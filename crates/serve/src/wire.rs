//! The length-prefixed binary wire protocol.
//!
//! Every frame is a fixed header followed by a `u32`-length-prefixed
//! payload; all integers are little-endian.
//!
//! ```text
//! request  (18-byte header):
//!   0..2   magic "LS"
//!   2      protocol version (2)
//!   3      opcode   (1 keygen, 2 encaps, 3 decaps, 4 stats, 5 shutdown,
//!                    6 ping, 8 session-open, 9 session-msg,
//!                    10 session-close; 7 is unassigned)
//!   4      params   (1 lac128, 2 lac192, 3 lac256; 0 for stats/shutdown/ping)
//!   5      backend  (1 ref, 2 ct, 3 hw, 4 hw-keccak; 0 likewise)
//!   6..14  seq (u64) — the job's DRBG lane (see lac_rand::Sha256CtrRng::fork)
//!   14..18 payload length (u32)
//!   18..   payload
//!
//! response (8-byte header):
//!   0..2   magic "ls"
//!   2      protocol version (2)
//!   3      status (0 ok, 1 error, 2 busy)
//!   4..8   payload length (u32)
//!   8..    payload
//! ```
//!
//! Status `2` (`BUSY`) is the overload-shedding answer: the server's job
//! queue was full when the request arrived, the request was **not**
//! executed, and the client may retry later. It is additive within
//! version 2 — a client only ever sees it when it has overrun the
//! server, never on a closed-loop exchange within the queue bound.
//!
//! Request payloads: keygen/stats/shutdown/ping — empty; encaps — the
//! serialized public key; decaps — serialized secret key ‖ serialized
//! ciphertext (both lengths are fixed by the parameter set, so no inner
//! framing is needed). Response payloads: keygen — pk ‖ sk; encaps —
//! ct ‖ 32-byte shared secret; decaps — shared secret; stats — the
//! metrics snapshot as JSON text; shutdown/ping — short ASCII acks; error
//! status — a UTF-8 message.
//!
//! **Session framing.** Opcodes 8–10 carry the authenticated-session
//! payloads defined in [`crate::session`]: `SESSION_OPEN` sends
//! `target_id ‖ pk [‖ rekey tag]` (target 0 opens a new session, non-zero
//! rekeys an existing one; seq drives the server-side DRBG fork exactly
//! like a KEM job) and is answered with `id ‖ epoch ‖ ct`;
//! `SESSION_MSG`/`SESSION_CLOSE` carry a sealed
//! [`crate::session::SessionFrame`] and are answered with the echoed
//! plaintext sealed server→client (resp. an empty OK).
//!
//! **Pipelining.** A client may write several request frames before
//! reading any reply. The server answers them in request order, one
//! response frame each, whatever order the workers finish in; a
//! malformed or shed request gets its own `Error`/`BUSY` frame without
//! failing its neighbours.

use crate::pool::{Job, JobKind};
use crate::{params_from_code, BackendKind};
use std::io::{self, Read, Write};

/// Request-frame magic.
pub const REQUEST_MAGIC: [u8; 2] = *b"LS";
/// Response-frame magic.
pub const RESPONSE_MAGIC: [u8; 2] = *b"ls";
/// Protocol version this build speaks.
pub const VERSION: u8 = 2;
/// Upper bound on payload size (both directions). Generously above the
/// largest legitimate payload (a LAC-256 decaps request is ~3.5 KiB).
pub const MAX_PAYLOAD: u32 = 1 << 20;

/// Request opcodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Opcode {
    /// Generate a key pair.
    Keygen,
    /// Encapsulate against the payload public key.
    Encaps,
    /// Decapsulate the payload (sk ‖ ct).
    Decaps,
    /// Fetch a metrics snapshot (JSON payload in the response).
    Stats,
    /// Ask the server to shut down gracefully.
    Shutdown,
    /// Liveness check.
    Ping,
    /// Open (or rekey) an authenticated session: the payload carries the
    /// client's KEM public key, the server answers with a fresh
    /// encapsulation (see `crate::session` for the payload codecs).
    SessionOpen,
    /// An AEAD-framed message on an open session; the server echoes the
    /// plaintext sealed under its own directional key.
    SessionMsg,
    /// Authenticated close of an open session (empty-body session frame).
    SessionClose,
}

impl Opcode {
    /// Wire code.
    pub fn code(self) -> u8 {
        match self {
            Opcode::Keygen => 1,
            Opcode::Encaps => 2,
            Opcode::Decaps => 3,
            Opcode::Stats => 4,
            Opcode::Shutdown => 5,
            Opcode::Ping => 6,
            Opcode::SessionOpen => 8,
            Opcode::SessionMsg => 9,
            Opcode::SessionClose => 10,
        }
    }

    /// Decode a wire code.
    pub fn from_code(code: u8) -> Option<Self> {
        match code {
            1 => Some(Opcode::Keygen),
            2 => Some(Opcode::Encaps),
            3 => Some(Opcode::Decaps),
            4 => Some(Opcode::Stats),
            5 => Some(Opcode::Shutdown),
            6 => Some(Opcode::Ping),
            8 => Some(Opcode::SessionOpen),
            9 => Some(Opcode::SessionMsg),
            10 => Some(Opcode::SessionClose),
            _ => None,
        }
    }
}

/// A parsed request frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestFrame {
    /// The operation requested.
    pub opcode: Opcode,
    /// Parameter-set wire code (see [`crate::params_code`]).
    pub params_code: u8,
    /// Backend wire code (see [`BackendKind::code`]).
    pub backend_code: u8,
    /// DRBG lane for the job.
    pub seq: u64,
    /// Opcode-specific payload.
    pub payload: Vec<u8>,
}

impl RequestFrame {
    /// A control frame (stats/shutdown/ping) with no payload.
    pub fn control(opcode: Opcode) -> Self {
        Self {
            opcode,
            params_code: 0,
            backend_code: 0,
            seq: 0,
            payload: Vec::new(),
        }
    }
}

/// Response status byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Success; payload is the result.
    Ok,
    /// Failure; payload is a UTF-8 message.
    Error,
    /// Overload shed: the job queue was full, the request was not
    /// executed, and the client may retry. Payload is empty.
    Busy,
}

/// A parsed response frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResponseFrame {
    /// Outcome of the request.
    pub status: Status,
    /// Status-specific payload.
    pub payload: Vec<u8>,
}

impl ResponseFrame {
    /// A success response.
    pub fn ok(payload: Vec<u8>) -> Self {
        Self {
            status: Status::Ok,
            payload,
        }
    }

    /// An error response carrying `message`.
    pub fn error(message: impl Into<String>) -> Self {
        Self {
            status: Status::Error,
            payload: message.into().into_bytes(),
        }
    }

    /// The shed answer: a `BUSY` status with no payload.
    pub fn busy() -> Self {
        Self {
            status: Status::Busy,
            payload: Vec::new(),
        }
    }

    /// Whether this is an overload-shed (`BUSY`) response.
    pub fn is_busy(&self) -> bool {
        self.status == Status::Busy
    }

    /// The error message, if this is an error response.
    pub fn error_message(&self) -> Option<String> {
        match self.status {
            Status::Ok | Status::Busy => None,
            Status::Error => Some(String::from_utf8_lossy(&self.payload).into_owned()),
        }
    }
}

fn bad_data(message: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message)
}

/// Serialize a request frame.
///
/// # Errors
///
/// Propagates I/O errors from `w`.
pub fn write_request<W: Write>(w: &mut W, frame: &RequestFrame) -> io::Result<()> {
    let mut header = [0u8; 18];
    header[0..2].copy_from_slice(&REQUEST_MAGIC);
    header[2] = VERSION;
    header[3] = frame.opcode.code();
    header[4] = frame.params_code;
    header[5] = frame.backend_code;
    header[6..14].copy_from_slice(&frame.seq.to_le_bytes());
    header[14..18].copy_from_slice(&(frame.payload.len() as u32).to_le_bytes());
    w.write_all(&header)?;
    w.write_all(&frame.payload)?;
    w.flush()
}

/// Request-frame header size on the wire.
pub const REQUEST_HEADER: usize = 18;

/// Incremental request-frame decoder for nonblocking sockets.
///
/// The event-driven server reads whatever bytes the kernel has and feeds
/// them in with [`FrameDecoder::feed`]; [`FrameDecoder::next_frame`]
/// yields complete frames as they materialize, independent of how the
/// byte stream was split across reads. Header validation (magic, version,
/// opcode, payload bound) happens as soon as the 18 header bytes are
/// present, so an oversized length claim is rejected before any payload
/// is buffered.
///
/// # Example
///
/// ```
/// use lac_serve::wire::{self, FrameDecoder, Opcode, RequestFrame};
///
/// let mut bytes = Vec::new();
/// wire::write_request(&mut bytes, &RequestFrame::control(Opcode::Ping)).unwrap();
/// let mut dec = FrameDecoder::new();
/// let (a, b) = bytes.split_at(5); // arbitrary split mid-header
/// dec.feed(a);
/// assert!(dec.next_frame().unwrap().is_none());
/// dec.feed(b);
/// assert_eq!(dec.next_frame().unwrap().unwrap().opcode, Opcode::Ping);
/// ```
#[derive(Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    at: usize,
}

impl FrameDecoder {
    /// An empty decoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append raw bytes from the socket.
    pub fn feed(&mut self, bytes: &[u8]) {
        // Compact lazily: only when the consumed prefix dominates the
        // buffer, so steady-state feeds are a plain append.
        if self.at > 0 && self.at * 2 >= self.buf.len() {
            self.buf.drain(..self.at);
            self.at = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Number of buffered, not-yet-consumed bytes.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.at
    }

    /// Whether a frame is sitting half-received in the buffer — the
    /// read-timeout trigger: a peer that starts a frame must finish it.
    pub fn has_partial(&self) -> bool {
        self.buffered() > 0
    }

    /// Decode the next complete frame, if the buffer holds one.
    ///
    /// # Errors
    ///
    /// A protocol violation (bad magic/version/opcode, oversized payload
    /// claim). The connection is beyond recovery at that point — framing
    /// is lost — so the caller should close it.
    pub fn next_frame(&mut self) -> Result<Option<RequestFrame>, String> {
        let pending = &self.buf[self.at..];
        if pending.len() < REQUEST_HEADER {
            return Ok(None);
        }
        let header = &pending[..REQUEST_HEADER];
        if header[0..2] != REQUEST_MAGIC {
            return Err(format!(
                "bad request magic {:02x}{:02x}",
                header[0], header[1]
            ));
        }
        if header[2] != VERSION {
            return Err(format!(
                "unsupported protocol version {} (this build speaks {VERSION})",
                header[2]
            ));
        }
        let opcode =
            Opcode::from_code(header[3]).ok_or_else(|| format!("unknown opcode {}", header[3]))?;
        let len = u32::from_le_bytes(header[14..18].try_into().expect("4 bytes"));
        if len > MAX_PAYLOAD {
            return Err(format!(
                "payload length {len} exceeds the {MAX_PAYLOAD}-byte limit"
            ));
        }
        let len = len as usize;
        if pending.len() < REQUEST_HEADER + len {
            return Ok(None);
        }
        let frame = RequestFrame {
            opcode,
            params_code: header[4],
            backend_code: header[5],
            seq: u64::from_le_bytes(header[6..14].try_into().expect("8 bytes")),
            payload: pending[REQUEST_HEADER..REQUEST_HEADER + len].to_vec(),
        };
        self.at += REQUEST_HEADER + len;
        if self.at == self.buf.len() {
            self.buf.clear();
            self.at = 0;
        }
        Ok(Some(frame))
    }
}

/// Serialize a response frame.
///
/// # Errors
///
/// Propagates I/O errors from `w`.
pub fn write_response<W: Write>(w: &mut W, frame: &ResponseFrame) -> io::Result<()> {
    let mut header = [0u8; 8];
    header[0..2].copy_from_slice(&RESPONSE_MAGIC);
    header[2] = VERSION;
    header[3] = match frame.status {
        Status::Ok => 0,
        Status::Error => 1,
        Status::Busy => 2,
    };
    header[4..8].copy_from_slice(&(frame.payload.len() as u32).to_le_bytes());
    w.write_all(&header)?;
    w.write_all(&frame.payload)?;
    w.flush()
}

/// Read one response frame.
///
/// # Errors
///
/// I/O errors (including EOF mid-frame), bad magic/version/status, or an
/// oversized payload.
pub fn read_response<R: Read>(r: &mut R) -> io::Result<ResponseFrame> {
    let mut header = [0u8; 8];
    r.read_exact(&mut header)?;
    if header[0..2] != RESPONSE_MAGIC {
        return Err(bad_data(format!(
            "bad response magic {:02x}{:02x}",
            header[0], header[1]
        )));
    }
    if header[2] != VERSION {
        return Err(bad_data(format!(
            "unsupported protocol version {}",
            header[2]
        )));
    }
    let status = match header[3] {
        0 => Status::Ok,
        1 => Status::Error,
        2 => Status::Busy,
        other => return Err(bad_data(format!("unknown status byte {other}"))),
    };
    let len = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes"));
    if len > MAX_PAYLOAD {
        return Err(bad_data(format!(
            "payload length {len} exceeds the {MAX_PAYLOAD}-byte limit"
        )));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    Ok(ResponseFrame { status, payload })
}

/// Turn an operation request frame into a pool [`Job`].
///
/// # Errors
///
/// Control opcodes (stats/shutdown/ping) and malformed codes or payload
/// sizes are rejected with a message suitable for an error response.
pub fn frame_to_job(frame: &RequestFrame) -> Result<Job, String> {
    let params = params_from_code(frame.params_code)
        .ok_or_else(|| format!("unknown parameter-set code {}", frame.params_code))?;
    let backend = BackendKind::from_code(frame.backend_code)
        .ok_or_else(|| format!("unknown backend code {}", frame.backend_code))?;
    let kind = match frame.opcode {
        Opcode::Keygen => {
            if !frame.payload.is_empty() {
                return Err("keygen takes no payload".into());
            }
            JobKind::Keygen
        }
        Opcode::Encaps => JobKind::Encaps {
            pk: frame.payload.clone(),
        },
        Opcode::Decaps => {
            let sk_len = params.kem_secret_key_bytes();
            let ct_len = params.ciphertext_bytes();
            if frame.payload.len() != sk_len + ct_len {
                return Err(format!(
                    "decaps payload must be sk ({sk_len} B) ‖ ct ({ct_len} B), got {} B",
                    frame.payload.len()
                ));
            }
            JobKind::Decaps {
                sk: frame.payload[..sk_len].to_vec(),
                ct: frame.payload[sk_len..].to_vec(),
            }
        }
        op => return Err(format!("opcode {op:?} is not a KEM job")),
    };
    Ok(Job::new(frame.seq, params, backend, kind))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params_code;
    use lac::Params;
    use std::io::Cursor;

    fn roundtrip_request(frame: &RequestFrame) -> RequestFrame {
        let mut buf = Vec::new();
        write_request(&mut buf, frame).unwrap();
        let mut dec = FrameDecoder::new();
        dec.feed(&buf);
        let back = dec.next_frame().unwrap().unwrap();
        assert_eq!(dec.buffered(), 0);
        back
    }

    #[test]
    fn request_frames_roundtrip() {
        let frames = [
            RequestFrame {
                opcode: Opcode::Encaps,
                params_code: params_code(&Params::lac256()),
                backend_code: BackendKind::Hw.code(),
                seq: 0xDEAD_BEEF_1234,
                payload: vec![7u8; 1056],
            },
            RequestFrame::control(Opcode::Stats),
            RequestFrame::control(Opcode::Shutdown),
            RequestFrame::control(Opcode::Ping),
        ];
        for frame in &frames {
            assert_eq!(&roundtrip_request(frame), frame);
        }
    }

    #[test]
    fn response_frames_roundtrip() {
        for frame in [
            ResponseFrame::ok(vec![1, 2, 3]),
            ResponseFrame::ok(Vec::new()),
            ResponseFrame::error("bad public key"),
        ] {
            let mut buf = Vec::new();
            write_response(&mut buf, &frame).unwrap();
            let back = read_response(&mut Cursor::new(buf)).unwrap();
            assert_eq!(back, frame);
        }
        assert_eq!(
            ResponseFrame::error("nope").error_message().as_deref(),
            Some("nope")
        );
        assert_eq!(ResponseFrame::ok(vec![]).error_message(), None);
    }

    #[test]
    fn busy_frames_roundtrip() {
        let frame = ResponseFrame::busy();
        assert!(frame.is_busy());
        assert_eq!(frame.error_message(), None);
        let mut buf = Vec::new();
        write_response(&mut buf, &frame).unwrap();
        assert_eq!(buf[3], 2);
        assert_eq!(read_response(&mut Cursor::new(buf)).unwrap(), frame);
    }

    #[test]
    fn decoder_yields_frames_across_arbitrary_splits() {
        let frames = [
            RequestFrame {
                opcode: Opcode::Encaps,
                params_code: 1,
                backend_code: 3,
                seq: 42,
                payload: vec![5u8; 99],
            },
            RequestFrame::control(Opcode::Ping),
        ];
        let mut bytes = Vec::new();
        for f in &frames {
            write_request(&mut bytes, f).unwrap();
        }
        // Feed one byte at a time — the most hostile split.
        let mut dec = FrameDecoder::new();
        let mut got = Vec::new();
        for b in &bytes {
            dec.feed(std::slice::from_ref(b));
            while let Some(frame) = dec.next_frame().unwrap() {
                got.push(frame);
            }
        }
        assert_eq!(got, frames);
        assert!(!dec.has_partial());
        assert_eq!(dec.buffered(), 0);
    }

    #[test]
    fn decoder_rejects_protocol_violations_without_buffering_payloads() {
        // Oversized length claim: rejected as soon as the header lands.
        let mut buf = Vec::new();
        buf.extend_from_slice(&REQUEST_MAGIC);
        buf.push(VERSION);
        buf.push(Opcode::Keygen.code());
        buf.extend_from_slice(&[1, 2]);
        buf.extend_from_slice(&0u64.to_le_bytes());
        buf.extend_from_slice(&(MAX_PAYLOAD + 1).to_le_bytes());
        let mut dec = FrameDecoder::new();
        dec.feed(&buf);
        assert!(dec.next_frame().unwrap_err().contains("exceeds"));

        // Bad magic / version / opcode (7 is unassigned).
        for (at, val, what) in [
            (0, b'X', "magic"),
            (2, 9, "version"),
            (3, 7, "opcode"),
            (3, 200, "opcode"),
        ] {
            let mut good = Vec::new();
            write_request(&mut good, &RequestFrame::control(Opcode::Ping)).unwrap();
            good[at] = val;
            let mut dec = FrameDecoder::new();
            dec.feed(&good);
            assert!(dec.next_frame().unwrap_err().contains(what), "{what}");
        }
    }

    #[test]
    fn bad_response_status_rejected() {
        let mut resp = Vec::new();
        write_response(&mut resp, &ResponseFrame::ok(vec![])).unwrap();
        resp[3] = 7;
        let err = read_response(&mut Cursor::new(resp)).unwrap_err();
        assert!(err.to_string().contains("status"));
    }

    #[test]
    fn frame_to_job_parses_ops_and_rejects_garbage() {
        let params = Params::lac128();
        let frame = RequestFrame {
            opcode: Opcode::Decaps,
            params_code: params_code(&params),
            backend_code: BackendKind::Ct.code(),
            seq: 3,
            payload: vec![0u8; params.kem_secret_key_bytes() + params.ciphertext_bytes()],
        };
        let job = frame_to_job(&frame).unwrap();
        assert!(matches!(job.kind, JobKind::Decaps { .. }));
        assert_eq!(job.seq, 3);

        // Wrong decaps payload size.
        let mut bad = frame.clone();
        bad.payload.pop();
        assert!(frame_to_job(&bad).unwrap_err().contains("decaps payload"));

        // Unknown params / backend codes.
        let mut bad = frame.clone();
        bad.params_code = 77;
        assert!(frame_to_job(&bad).is_err());
        let mut bad = frame.clone();
        bad.backend_code = 0;
        assert!(frame_to_job(&bad).is_err());

        // Control frames are not jobs.
        assert!(frame_to_job(&RequestFrame::control(Opcode::Stats)).is_err());

        // Keygen with a stray payload is rejected.
        let bad = RequestFrame {
            opcode: Opcode::Keygen,
            params_code: params_code(&params),
            backend_code: BackendKind::Ct.code(),
            seq: 0,
            payload: vec![1],
        };
        assert!(frame_to_job(&bad).is_err());
    }
}
