//! A blocking client for the wire protocol.
//!
//! One [`Client`] wraps one TCP connection and issues closed-loop
//! request/response pairs. The typed helpers (`keygen`/`encaps`/
//! `decaps`) split the fixed-size response payloads using the parameter
//! set, so callers get keys and secrets, not byte blobs to slice.

use crate::session::{self, ClientSession};
use crate::wire::{self, Opcode, RequestFrame, ResponseFrame};
use crate::{params_code, BackendKind};
use lac::{Backend, Ciphertext, Kem, Params};
use lac_meter::NullMeter;
use lac_rand::Rng;
use std::io::BufReader;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// The error string the typed helpers return when the server sheds the
/// request with a `BUSY` status (queue full). Callers that want to retry
/// can match on it; the connection itself stays healthy.
pub const BUSY_MSG: &str = "server busy (request shed)";

/// A connected protocol client.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connect to `addr` (`"host:port"`) with no deadlines: connect and
    /// reads block indefinitely.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn connect(addr: &str) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        Self::from_stream(stream)
    }

    /// Connect with a deadline: `timeout_ms` bounds the TCP connect and
    /// every subsequent read/write (0 means no deadline, as
    /// [`Client::connect`]). A deadline that expires mid-exchange surfaces
    /// as a transport error from the helper in flight.
    ///
    /// # Errors
    ///
    /// Propagates socket errors, including the connect timeout.
    pub fn connect_with_timeout(addr: &str, timeout_ms: u64) -> std::io::Result<Self> {
        if timeout_ms == 0 {
            return Self::connect(addr);
        }
        let timeout = Duration::from_millis(timeout_ms);
        let mut last_err = None;
        let mut stream = None;
        for candidate in addr.to_socket_addrs()? {
            match TcpStream::connect_timeout(&candidate, timeout) {
                Ok(s) => {
                    stream = Some(s);
                    break;
                }
                Err(e) => last_err = Some(e),
            }
        }
        let stream = stream.ok_or_else(|| {
            last_err.unwrap_or_else(|| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidInput,
                    "address resolved to nothing",
                )
            })
        })?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        Self::from_stream(stream)
    }

    fn from_stream(stream: TcpStream) -> std::io::Result<Self> {
        stream.set_nodelay(true).ok();
        let writer = stream.try_clone()?;
        Ok(Self {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Split into the raw write half and the buffered read half, for
    /// callers that pipeline: one thread writes requests while another
    /// reads the in-order replies.
    pub fn into_split(self) -> (TcpStream, BufReader<TcpStream>) {
        (self.writer, self.reader)
    }

    /// Send one raw frame and read its response.
    ///
    /// # Errors
    ///
    /// Transport-level failures (the connection is unusable afterwards).
    /// Protocol-level failures arrive as an `Error`-status response, not
    /// an `Err`.
    pub fn request(&mut self, frame: &RequestFrame) -> Result<ResponseFrame, String> {
        wire::write_request(&mut self.writer, frame).map_err(|e| format!("send: {e}"))?;
        wire::read_response(&mut self.reader).map_err(|e| format!("recv: {e}"))
    }

    /// Send a frame and flatten both failure levels into `Err`. A `BUSY`
    /// shed becomes [`BUSY_MSG`] so callers can distinguish overload from
    /// hard failures.
    fn request_ok(&mut self, frame: &RequestFrame) -> Result<Vec<u8>, String> {
        let response = self.request(frame)?;
        if response.is_busy() {
            return Err(BUSY_MSG.to_string());
        }
        match response.error_message() {
            Some(message) => Err(message),
            None => Ok(response.payload),
        }
    }

    /// Generate a key pair on the server; returns `(pk, sk)` bytes.
    ///
    /// # Errors
    ///
    /// Transport failures, server-side errors, or a malformed response
    /// payload size.
    pub fn keygen(
        &mut self,
        params: &Params,
        backend: BackendKind,
        seq: u64,
    ) -> Result<(Vec<u8>, Vec<u8>), String> {
        let payload = self.request_ok(&RequestFrame {
            opcode: Opcode::Keygen,
            params_code: params_code(params),
            backend_code: backend.code(),
            seq,
            payload: Vec::new(),
        })?;
        let pk_len = params.public_key_bytes();
        let sk_len = params.kem_secret_key_bytes();
        if payload.len() != pk_len + sk_len {
            return Err(format!(
                "keygen response must be pk ({pk_len} B) ‖ sk ({sk_len} B), got {} B",
                payload.len()
            ));
        }
        let sk = payload[pk_len..].to_vec();
        let mut pk = payload;
        pk.truncate(pk_len);
        Ok((pk, sk))
    }

    /// Encapsulate against `pk`; returns `(ciphertext, shared_secret)`.
    ///
    /// # Errors
    ///
    /// Transport failures, server-side errors, or a malformed response.
    pub fn encaps(
        &mut self,
        params: &Params,
        backend: BackendKind,
        seq: u64,
        pk: &[u8],
    ) -> Result<(Vec<u8>, [u8; 32]), String> {
        let payload = self.request_ok(&RequestFrame {
            opcode: Opcode::Encaps,
            params_code: params_code(params),
            backend_code: backend.code(),
            seq,
            payload: pk.to_vec(),
        })?;
        let ct_len = params.ciphertext_bytes();
        if payload.len() != ct_len + 32 {
            return Err(format!(
                "encaps response must be ct ({ct_len} B) ‖ key (32 B), got {} B",
                payload.len()
            ));
        }
        let mut shared = [0u8; 32];
        shared.copy_from_slice(&payload[ct_len..]);
        let mut ct = payload;
        ct.truncate(ct_len);
        Ok((ct, shared))
    }

    /// Decapsulate `ct` with `sk`; returns the shared secret.
    ///
    /// # Errors
    ///
    /// Transport failures, server-side errors, or a malformed response.
    pub fn decaps(
        &mut self,
        params: &Params,
        backend: BackendKind,
        seq: u64,
        sk: &[u8],
        ct: &[u8],
    ) -> Result<[u8; 32], String> {
        let mut payload = Vec::with_capacity(sk.len() + ct.len());
        payload.extend_from_slice(sk);
        payload.extend_from_slice(ct);
        let payload = self.request_ok(&RequestFrame {
            opcode: Opcode::Decaps,
            params_code: params_code(params),
            backend_code: backend.code(),
            seq,
            payload,
        })?;
        if payload.len() != 32 {
            return Err(format!(
                "decaps response must be 32 B, got {} B",
                payload.len()
            ));
        }
        let mut shared = [0u8; 32];
        shared.copy_from_slice(&payload);
        Ok(shared)
    }

    /// Fetch the server's metrics snapshot as JSON text.
    ///
    /// # Errors
    ///
    /// Transport failures or a server-side error.
    pub fn stats(&mut self) -> Result<String, String> {
        let payload = self.request_ok(&RequestFrame::control(Opcode::Stats))?;
        String::from_utf8(payload).map_err(|e| format!("stats payload not UTF-8: {e}"))
    }

    /// Liveness check.
    ///
    /// # Errors
    ///
    /// Transport failures or an unexpected ack.
    pub fn ping(&mut self) -> Result<(), String> {
        let payload = self.request_ok(&RequestFrame::control(Opcode::Ping))?;
        if payload == b"pong" {
            Ok(())
        } else {
            Err("unexpected ping ack".into())
        }
    }

    /// Ask the server to shut down gracefully.
    ///
    /// # Errors
    ///
    /// Transport failures or an unexpected ack.
    pub fn shutdown(&mut self) -> Result<(), String> {
        let payload = self.request_ok(&RequestFrame::control(Opcode::Shutdown))?;
        if payload == b"bye" {
            Ok(())
        } else {
            Err("unexpected shutdown ack".into())
        }
    }

    /// Open an authenticated session: generate a key pair locally with
    /// `rng`, send a `SessionOpen` handshake (`seq` drives the server's
    /// DRBG fork, exactly like a KEM job), decapsulate the server's
    /// ciphertext, and derive the epoch-0 directional keys.
    ///
    /// The caller supplies a cached `kem`/`backend` pair so hot loops
    /// (bench lanes) don't rebuild them per handshake.
    ///
    /// # Errors
    ///
    /// Transport failures, server-side errors (including `BUSY`), or a
    /// malformed handshake response.
    pub fn session_open<R: Rng>(
        &mut self,
        kem: &Kem,
        backend: &mut dyn Backend,
        backend_kind: BackendKind,
        seq: u64,
        rng: &mut R,
    ) -> Result<ClientSession, String> {
        let params = *kem.params();
        let (pk, sk) = kem.keygen(rng, backend, &mut NullMeter);
        let payload = self.request_ok(&RequestFrame {
            opcode: Opcode::SessionOpen,
            params_code: params_code(&params),
            backend_code: backend_kind.code(),
            seq,
            payload: session::encode_open_request(0, &pk.to_bytes(), None),
        })?;
        let (id, epoch, ct) = session::decode_open_response(&payload, params.ciphertext_bytes())?;
        if epoch != 0 {
            return Err(format!("fresh session opened at epoch {epoch}, expected 0"));
        }
        if id == 0 {
            return Err("server assigned the reserved session id 0".into());
        }
        let ct = Ciphertext::from_bytes(&params, ct).map_err(|e| format!("bad ciphertext: {e}"))?;
        let shared = kem.decapsulate(&sk, &ct, backend, &mut NullMeter);
        Ok(ClientSession::new(id, shared.as_bytes()))
    }

    /// Send one sealed message on `session` and return the plaintext the
    /// server echoed back (verified and decrypted).
    ///
    /// # Errors
    ///
    /// Transport failures, server-side errors, or a reply that fails the
    /// session's tag/epoch/sequence checks.
    pub fn session_send(
        &mut self,
        session: &mut ClientSession,
        plaintext: &[u8],
    ) -> Result<Vec<u8>, String> {
        let payload = session.seal_next(plaintext);
        let reply = self.request_ok(&RequestFrame {
            opcode: Opcode::SessionMsg,
            params_code: 0,
            backend_code: 0,
            seq: 0,
            payload,
        })?;
        session.open_reply(&reply)
    }

    /// Rekey `session`: fresh local key pair, an authenticated
    /// `SessionOpen` targeting the session, decapsulation with the *new*
    /// secret key, then advance the epoch on success.
    ///
    /// # Errors
    ///
    /// Transport failures, server-side errors, or a response naming the
    /// wrong session/epoch.
    pub fn session_rekey<R: Rng>(
        &mut self,
        kem: &Kem,
        backend: &mut dyn Backend,
        backend_kind: BackendKind,
        session: &mut ClientSession,
        seq: u64,
        rng: &mut R,
    ) -> Result<(), String> {
        let params = *kem.params();
        let (pk, sk) = kem.keygen(rng, backend, &mut NullMeter);
        let pk_bytes = pk.to_bytes();
        let tag = session.rekey_tag(&pk_bytes);
        let payload = self.request_ok(&RequestFrame {
            opcode: Opcode::SessionOpen,
            params_code: params_code(&params),
            backend_code: backend_kind.code(),
            seq,
            payload: session::encode_open_request(session.id, &pk_bytes, Some(tag)),
        })?;
        let (id, epoch, ct) = session::decode_open_response(&payload, params.ciphertext_bytes())?;
        if id != session.id {
            return Err(format!(
                "rekey response names session {id}, not {}",
                session.id
            ));
        }
        if epoch != session.epoch.wrapping_add(1) {
            return Err(format!(
                "rekey moved to epoch {epoch}, expected {}",
                session.epoch.wrapping_add(1)
            ));
        }
        let ct = Ciphertext::from_bytes(&params, ct).map_err(|e| format!("bad ciphertext: {e}"))?;
        let shared = kem.decapsulate(&sk, &ct, backend, &mut NullMeter);
        session.apply_rekey(shared.as_bytes());
        Ok(())
    }

    /// Close `session` with an authenticated empty frame; the server
    /// reaps its table entry.
    ///
    /// # Errors
    ///
    /// Transport failures, server-side errors, or a non-empty ack.
    pub fn session_close(&mut self, mut session: ClientSession) -> Result<(), String> {
        let payload = session.seal_close();
        let reply = self.request_ok(&RequestFrame {
            opcode: Opcode::SessionClose,
            params_code: 0,
            backend_code: 0,
            seq: 0,
            payload,
        })?;
        if reply.is_empty() {
            Ok(())
        } else {
            Err("unexpected session close ack".into())
        }
    }
}
