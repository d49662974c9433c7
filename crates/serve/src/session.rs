//! Authenticated session layer (`lac-session`).
//!
//! Long-lived encrypted channels negotiated over the KEM, matching the
//! paper's motivating scenario: a handshake-heavy, stateful workload
//! rather than isolated primitive calls. This module is the single home
//! for the session crypto framing — key schedule, AEAD-style frame
//! layout, epoch/rekey state machines — shared by the server, the client
//! helpers, the bench driver and the `secure_channel` example.
//!
//! # Key schedule
//!
//! A handshake yields a 32-byte KEM shared secret. Epoch 0's secret is
//! `SHA-256("lac-session:epoch0:v1" ‖ shared)`; each rekey chains
//! `s_{e+1} = SHA-256("lac-session:rekey:v1" ‖ s_e ‖ fresh_shared)`, so
//! an epoch's keys commit to the whole handshake history. From an epoch
//! secret, directional roots are drawn via the in-tree counter-mode
//! [`Expander`] (domain 1 = client→server, 2 = server→client), and each
//! root is split into an encryption key (domain 3) and a MAC key
//! (domain 4).
//!
//! # Frame AEAD
//!
//! A [`SessionFrame`] is `id ‖ epoch ‖ seq ‖ body ‖ tag`. The body is the
//! plaintext XORed with a per-frame keystream
//! (`Expander` over `SHA-256("lac-session:frame:v1" ‖ enc_key ‖ seq)`),
//! and the 32-byte tag is `SHA-256("lac-session:tag:v1" ‖ mac_key ‖
//! direction ‖ id ‖ epoch ‖ seq ‖ body_len ‖ body)` — header-bound, so
//! splicing a body under a different session/epoch/seq/direction fails
//! the constant-time tag compare.
//!
//! # Epochs and rekeying
//!
//! Rekeys are asynchronous on the server (the fresh encaps runs on the
//! worker pool) while messages are handled inline on the reactor, so a
//! pipelined client may have old-epoch frames in flight when the new
//! epoch lands. The server therefore accepts frames tagged with the
//! previous epoch as well ([`SessionState::accept_keys`]); anything older
//! is rejected. Replies leave in request order, so a client that applies
//! the rekey before reading later replies can be strict about epochs.

use lac_sha256::{Expander, Sha256};
use std::collections::HashMap;

/// Domain byte for the client→server directional root.
pub const DOMAIN_TO_SERVER: u8 = 1;
/// Domain byte for the server→client directional root.
pub const DOMAIN_TO_CLIENT: u8 = 2;
/// Domain byte splitting a directional root into its encryption key.
pub const DOMAIN_ENC: u8 = 3;
/// Domain byte splitting a directional root into its MAC key.
pub const DOMAIN_MAC: u8 = 4;

/// Frame direction, bound into every tag so reflected frames fail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Client→server traffic (sealed with the `to_server` key).
    ToServer,
    /// Server→client traffic (sealed with the `to_client` key).
    ToClient,
}

impl Direction {
    fn byte(self) -> u8 {
        match self {
            Direction::ToServer => DOMAIN_TO_SERVER,
            Direction::ToClient => DOMAIN_TO_CLIENT,
        }
    }
}

const LABEL_EPOCH0: &[u8] = b"lac-session:epoch0:v1";
const LABEL_REKEY: &[u8] = b"lac-session:rekey:v1";
const LABEL_FRAME: &[u8] = b"lac-session:frame:v1";
const LABEL_TAG: &[u8] = b"lac-session:tag:v1";
const LABEL_REKEY_AUTH: &[u8] = b"lac-session:rekey-auth:v1";

/// Tag length in bytes (a full SHA-256 digest).
pub const TAG_LEN: usize = 32;
/// Fixed per-frame overhead: id (8) ‖ epoch (4) ‖ seq (8) ‖ tag (32).
pub const FRAME_OVERHEAD: usize = 8 + 4 + 8 + TAG_LEN;

fn sha256(parts: &[&[u8]]) -> [u8; 32] {
    let mut h = Sha256::new();
    for p in parts {
        h.update(p);
    }
    h.finalize()
}

/// Expand 32 bytes from `seed` under domain-separation byte `domain`.
fn expand32(seed: &[u8; 32], domain: u8) -> [u8; 32] {
    let mut out = [0u8; 32];
    Expander::new(seed, domain).fill(&mut out);
    out
}

/// Constant-time 32-byte equality: folds the OR of XORed bytes so the
/// comparison touches every byte regardless of where a mismatch sits.
pub fn ct_eq(a: &[u8; 32], b: &[u8; 32]) -> bool {
    let mut acc = 0u8;
    for (x, y) in a.iter().zip(b.iter()) {
        acc |= x ^ y;
    }
    acc == 0
}

/// One direction's key pair: a stream-cipher key and a MAC key.
#[derive(Debug, Clone)]
pub struct DirectionalKey {
    /// Keystream seed for [`seal`]/[`open`].
    pub enc: [u8; 32],
    /// MAC key for the frame tag.
    pub mac: [u8; 32],
}

impl DirectionalKey {
    fn derive(epoch_secret: &[u8; 32], dir_domain: u8) -> Self {
        let root = expand32(epoch_secret, dir_domain);
        Self {
            enc: expand32(&root, DOMAIN_ENC),
            mac: expand32(&root, DOMAIN_MAC),
        }
    }
}

/// Both directions' keys for one epoch.
#[derive(Debug, Clone)]
pub struct EpochKeys {
    /// Client→server keys.
    pub to_server: DirectionalKey,
    /// Server→client keys.
    pub to_client: DirectionalKey,
}

impl EpochKeys {
    /// Derive both directional key pairs from an epoch secret.
    pub fn derive(epoch_secret: &[u8; 32]) -> Self {
        Self {
            to_server: DirectionalKey::derive(epoch_secret, DOMAIN_TO_SERVER),
            to_client: DirectionalKey::derive(epoch_secret, DOMAIN_TO_CLIENT),
        }
    }
}

/// Epoch 0 secret from the handshake's KEM shared secret.
pub fn epoch0_secret(shared: &[u8; 32]) -> [u8; 32] {
    sha256(&[LABEL_EPOCH0, shared])
}

/// Chain the next epoch secret from the current one and a fresh
/// KEM shared secret established by the rekey handshake.
pub fn next_epoch_secret(current: &[u8; 32], fresh_shared: &[u8; 32]) -> [u8; 32] {
    sha256(&[LABEL_REKEY, current, fresh_shared])
}

/// A sealed frame as carried in `SessionMsg`/`SessionClose` payloads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionFrame {
    /// Server-assigned session id.
    pub session_id: u64,
    /// Epoch the frame was sealed under.
    pub epoch: u32,
    /// Per-direction sequence number (never reset by rekeys).
    pub seq: u64,
    /// Stream-ciphered body.
    pub body: Vec<u8>,
    /// Header-bound SHA-256 tag.
    pub tag: [u8; 32],
}

impl SessionFrame {
    /// Serialize to the wire layout `id ‖ epoch ‖ seq ‖ body ‖ tag`.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(FRAME_OVERHEAD + self.body.len());
        out.extend_from_slice(&self.session_id.to_le_bytes());
        out.extend_from_slice(&self.epoch.to_le_bytes());
        out.extend_from_slice(&self.seq.to_le_bytes());
        out.extend_from_slice(&self.body);
        out.extend_from_slice(&self.tag);
        out
    }

    /// Parse the wire layout; the body is everything between the fixed
    /// header and the trailing tag.
    pub fn decode(bytes: &[u8]) -> Result<Self, String> {
        if bytes.len() < FRAME_OVERHEAD {
            return Err(format!(
                "session frame too short: {} bytes (need at least {FRAME_OVERHEAD})",
                bytes.len()
            ));
        }
        let session_id = u64::from_le_bytes(bytes[0..8].try_into().unwrap());
        let epoch = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
        let seq = u64::from_le_bytes(bytes[12..20].try_into().unwrap());
        let body = bytes[20..bytes.len() - TAG_LEN].to_vec();
        let mut tag = [0u8; 32];
        tag.copy_from_slice(&bytes[bytes.len() - TAG_LEN..]);
        Ok(Self {
            session_id,
            epoch,
            seq,
            body,
            tag,
        })
    }
}

fn frame_keystream(key: &DirectionalKey, seq: u64) -> Expander {
    let seed = sha256(&[LABEL_FRAME, &key.enc, &seq.to_le_bytes()]);
    Expander::new(&seed, 0)
}

fn frame_tag(
    key: &DirectionalKey,
    dir: Direction,
    session_id: u64,
    epoch: u32,
    seq: u64,
    body: &[u8],
) -> [u8; 32] {
    sha256(&[
        LABEL_TAG,
        &key.mac,
        &[dir.byte()],
        &session_id.to_le_bytes(),
        &epoch.to_le_bytes(),
        &seq.to_le_bytes(),
        &(body.len() as u32).to_le_bytes(),
        body,
    ])
}

/// Seal `plaintext` into an encoded [`SessionFrame`] under `key`.
pub fn seal(
    key: &DirectionalKey,
    dir: Direction,
    session_id: u64,
    epoch: u32,
    seq: u64,
    plaintext: &[u8],
) -> Vec<u8> {
    let mut body = plaintext.to_vec();
    let mut stream = frame_keystream(key, seq);
    for b in body.iter_mut() {
        *b ^= stream.next_byte();
    }
    let tag = frame_tag(key, dir, session_id, epoch, seq, &body);
    SessionFrame {
        session_id,
        epoch,
        seq,
        body,
        tag,
    }
    .encode()
}

/// Verify and decrypt a parsed frame. `None` means the tag did not
/// match (tampering, wrong key, wrong direction, spliced header).
pub fn open(key: &DirectionalKey, dir: Direction, frame: &SessionFrame) -> Option<Vec<u8>> {
    let want = frame_tag(
        key,
        dir,
        frame.session_id,
        frame.epoch,
        frame.seq,
        &frame.body,
    );
    if !ct_eq(&want, &frame.tag) {
        return None;
    }
    let mut plain = frame.body.clone();
    let mut stream = frame_keystream(key, frame.seq);
    for b in plain.iter_mut() {
        *b ^= stream.next_byte();
    }
    Some(plain)
}

/// Authenticator for a rekey request: binds the current epoch's
/// client→server MAC key, the session id, the epoch being superseded and
/// the fresh public key, so a rekey cannot be replayed (the epoch has
/// already moved on) or redirected to another session.
pub fn rekey_tag(key: &DirectionalKey, session_id: u64, epoch: u32, pk: &[u8]) -> [u8; 32] {
    sha256(&[
        LABEL_REKEY_AUTH,
        &key.mac,
        &session_id.to_le_bytes(),
        &epoch.to_le_bytes(),
        pk,
    ])
}

/// Build a `SessionOpen` request payload: `target_id ‖ pk [‖ tag]`.
/// `target_id = 0` opens a new session (no tag); non-zero rekeys that
/// session and must carry the [`rekey_tag`].
pub fn encode_open_request(target_id: u64, pk: &[u8], tag: Option<[u8; 32]>) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + pk.len() + if tag.is_some() { TAG_LEN } else { 0 });
    out.extend_from_slice(&target_id.to_le_bytes());
    out.extend_from_slice(pk);
    if let Some(t) = tag {
        out.extend_from_slice(&t);
    }
    out
}

/// A parsed `SessionOpen` request: `(target_id, pk, rekey_tag)`.
pub type OpenRequest<'a> = (u64, &'a [u8], Option<[u8; 32]>);

/// Parse a `SessionOpen` request payload given the parameter set's
/// public-key length. Returns `(target_id, pk, rekey_tag)`.
pub fn decode_open_request(payload: &[u8], pk_len: usize) -> Result<OpenRequest<'_>, String> {
    if payload.len() == 8 + pk_len {
        let id = u64::from_le_bytes(payload[0..8].try_into().unwrap());
        if id != 0 {
            return Err("open request without rekey tag must target session 0".into());
        }
        return Ok((0, &payload[8..], None));
    }
    if payload.len() == 8 + pk_len + TAG_LEN {
        let id = u64::from_le_bytes(payload[0..8].try_into().unwrap());
        if id == 0 {
            return Err("rekey request must target a non-zero session id".into());
        }
        let mut tag = [0u8; 32];
        tag.copy_from_slice(&payload[8 + pk_len..]);
        return Ok((id, &payload[8..8 + pk_len], Some(tag)));
    }
    Err(format!(
        "bad open request length {} (expected {} or {})",
        payload.len(),
        8 + pk_len,
        8 + pk_len + TAG_LEN
    ))
}

/// Build a `SessionOpen` OK response payload: `id ‖ epoch ‖ ct`.
pub fn encode_open_response(session_id: u64, epoch: u32, ct: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(12 + ct.len());
    out.extend_from_slice(&session_id.to_le_bytes());
    out.extend_from_slice(&epoch.to_le_bytes());
    out.extend_from_slice(ct);
    out
}

/// Parse a `SessionOpen` OK response payload given the parameter set's
/// ciphertext length. Returns `(session_id, epoch, ct)`.
pub fn decode_open_response(payload: &[u8], ct_len: usize) -> Result<(u64, u32, &[u8]), String> {
    if payload.len() != 12 + ct_len {
        return Err(format!(
            "bad open response length {} (expected {})",
            payload.len(),
            12 + ct_len
        ));
    }
    let id = u64::from_le_bytes(payload[0..8].try_into().unwrap());
    let epoch = u32::from_le_bytes(payload[8..12].try_into().unwrap());
    Ok((id, epoch, &payload[12..]))
}

/// Server-side per-session state.
#[derive(Debug, Clone)]
pub struct SessionState {
    /// Current epoch number (wraps at `u32::MAX`).
    pub epoch: u32,
    /// Current epoch secret (chained through rekeys).
    pub epoch_secret: [u8; 32],
    /// Current epoch's directional keys.
    pub keys: EpochKeys,
    /// Previous epoch's keys, kept for one rekey as the in-flight grace
    /// window; boxed to keep the common (no recent rekey) state small.
    pub prev_keys: Option<Box<EpochKeys>>,
    /// Next expected client→server sequence number.
    pub recv_seq: u64,
    /// Next server→client sequence number.
    pub send_seq: u64,
    /// Messages accepted since the last rekey (rekey-after-N trigger).
    pub msgs_in_epoch: u64,
}

impl SessionState {
    /// Fresh epoch-0 state from a handshake's KEM shared secret.
    pub fn new(shared: &[u8; 32]) -> Self {
        let secret = epoch0_secret(shared);
        Self {
            epoch: 0,
            keys: EpochKeys::derive(&secret),
            epoch_secret: secret,
            prev_keys: None,
            recv_seq: 0,
            send_seq: 0,
            msgs_in_epoch: 0,
        }
    }

    /// Advance one epoch with a fresh KEM shared secret. Sequence
    /// numbers are *not* reset — they are per-session, not per-epoch —
    /// so replay checks span rekeys.
    pub fn rekey(&mut self, fresh_shared: &[u8; 32]) {
        self.epoch_secret = next_epoch_secret(&self.epoch_secret, fresh_shared);
        self.epoch = self.epoch.wrapping_add(1);
        let new_keys = EpochKeys::derive(&self.epoch_secret);
        self.prev_keys = Some(Box::new(std::mem::replace(&mut self.keys, new_keys)));
        self.msgs_in_epoch = 0;
    }

    /// Keys to verify a frame tagged `frame_epoch`: the current epoch,
    /// or the immediately previous one while its grace window is open.
    pub fn accept_keys(&self, frame_epoch: u32) -> Option<&EpochKeys> {
        if frame_epoch == self.epoch {
            Some(&self.keys)
        } else if frame_epoch == self.epoch.wrapping_sub(1) {
            self.prev_keys.as_deref()
        } else {
            None
        }
    }
}

/// Client-side session state mirroring [`SessionState`].
#[derive(Debug, Clone)]
pub struct ClientSession {
    /// Server-assigned session id.
    pub id: u64,
    /// Current epoch number.
    pub epoch: u32,
    /// Current epoch secret.
    pub epoch_secret: [u8; 32],
    /// Current epoch's directional keys.
    pub keys: EpochKeys,
    /// Next client→server sequence number.
    pub send_seq: u64,
    /// Next expected server→client sequence number.
    pub recv_seq: u64,
    /// Messages sent since the last rekey.
    pub msgs_in_epoch: u64,
}

impl ClientSession {
    /// Fresh epoch-0 client state for a newly opened session.
    pub fn new(id: u64, shared: &[u8; 32]) -> Self {
        let secret = epoch0_secret(shared);
        Self {
            id,
            epoch: 0,
            keys: EpochKeys::derive(&secret),
            epoch_secret: secret,
            send_seq: 0,
            recv_seq: 0,
            msgs_in_epoch: 0,
        }
    }

    /// Seal the next client→server message, consuming one send seq.
    pub fn seal_next(&mut self, plaintext: &[u8]) -> Vec<u8> {
        let seq = self.send_seq;
        self.send_seq += 1;
        self.msgs_in_epoch += 1;
        seal(
            &self.keys.to_server,
            Direction::ToServer,
            self.id,
            self.epoch,
            seq,
            plaintext,
        )
    }

    /// Seal an authenticated close (an empty-body frame on the next seq).
    pub fn seal_close(&mut self) -> Vec<u8> {
        self.seal_next(&[])
    }

    /// Verify and decrypt a server→client reply payload. The client
    /// processes replies in request order and applies rekeys before
    /// reading later replies, so it is strict about the epoch.
    pub fn open_reply(&mut self, payload: &[u8]) -> Result<Vec<u8>, String> {
        let frame = SessionFrame::decode(payload)?;
        if frame.session_id != self.id {
            return Err(format!(
                "reply for session {} on session {}",
                frame.session_id, self.id
            ));
        }
        if frame.epoch != self.epoch {
            return Err(format!(
                "reply epoch {} (expected {})",
                frame.epoch, self.epoch
            ));
        }
        if frame.seq != self.recv_seq {
            return Err(format!(
                "reply seq {} (expected {})",
                frame.seq, self.recv_seq
            ));
        }
        let plain = open(&self.keys.to_client, Direction::ToClient, &frame)
            .ok_or_else(|| "server reply failed tag verification".to_string())?;
        self.recv_seq += 1;
        Ok(plain)
    }

    /// Authenticator for a rekey request carrying `pk`.
    pub fn rekey_tag(&self, pk: &[u8]) -> [u8; 32] {
        rekey_tag(&self.keys.to_server, self.id, self.epoch, pk)
    }

    /// Apply a completed rekey handshake (fresh KEM shared secret).
    pub fn apply_rekey(&mut self, fresh_shared: &[u8; 32]) {
        self.epoch_secret = next_epoch_secret(&self.epoch_secret, fresh_shared);
        self.epoch = self.epoch.wrapping_add(1);
        self.keys = EpochKeys::derive(&self.epoch_secret);
        self.msgs_in_epoch = 0;
    }

    /// Whether the rekey-after-N policy says this session is due.
    /// `limit == 0` disables rekeying.
    pub fn rekey_due(&self, limit: u64) -> bool {
        limit != 0 && self.msgs_in_epoch >= limit
    }
}

const NIL: u32 = u32::MAX;

struct Node {
    id: u64,
    state: SessionState,
    prev: u32,
    next: u32,
}

/// Bounded session table with exact LRU eviction: a hash map into an
/// intrusive doubly-linked list of slab nodes ordered most- to
/// least-recently used, so touch, insert and evict are all O(1).
///
/// The server holds one table per reactor shard (see `crate::server`);
/// the shard is the only sharding axis, so eviction order is exact
/// within the shard that owns the session.
pub struct SessionTable {
    map: HashMap<u64, usize>,
    nodes: Vec<Node>,
    free: Vec<u32>,
    head: u32,
    tail: u32,
    capacity: usize,
}

impl std::fmt::Debug for SessionTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionTable")
            .field("capacity", &self.capacity)
            .field("len", &self.len())
            .finish()
    }
}

impl SessionTable {
    /// Create a table bounded to `capacity` sessions.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "session table capacity must be non-zero");
        Self {
            map: HashMap::new(),
            nodes: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity,
        }
    }

    fn unlink(&mut self, at: u32) {
        let (prev, next) = {
            let n = &self.nodes[at as usize];
            (n.prev, n.next)
        };
        if prev == NIL {
            self.head = next;
        } else {
            self.nodes[prev as usize].next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.nodes[next as usize].prev = prev;
        }
    }

    fn push_front(&mut self, at: u32) {
        let old_head = self.head;
        {
            let n = &mut self.nodes[at as usize];
            n.prev = NIL;
            n.next = old_head;
        }
        if old_head != NIL {
            self.nodes[old_head as usize].prev = at;
        }
        self.head = at;
        if self.tail == NIL {
            self.tail = at;
        }
    }

    fn touch(&mut self, at: u32) {
        if self.head == at {
            return;
        }
        self.unlink(at);
        self.push_front(at);
    }

    /// Insert a session, evicting the least-recently-used one at
    /// capacity. Returns the evicted session id, if any.
    pub fn insert(&mut self, id: u64, state: SessionState) -> Option<u64> {
        let mut evicted = None;
        if !self.map.contains_key(&id) && self.map.len() >= self.capacity {
            let victim = self.tail;
            debug_assert_ne!(victim, NIL);
            let victim_id = self.nodes[victim as usize].id;
            self.remove(victim_id);
            evicted = Some(victim_id);
        }
        if let Some(&at) = self.map.get(&id) {
            self.nodes[at].state = state;
            self.touch(at as u32);
            return evicted;
        }
        let at = match self.free.pop() {
            Some(slot) => {
                self.nodes[slot as usize] = Node {
                    id,
                    state,
                    prev: NIL,
                    next: NIL,
                };
                slot
            }
            None => {
                self.nodes.push(Node {
                    id,
                    state,
                    prev: NIL,
                    next: NIL,
                });
                (self.nodes.len() - 1) as u32
            }
        };
        self.push_front(at);
        self.map.insert(id, at as usize);
        evicted
    }

    /// Look up a session, marking it most-recently used.
    pub fn get_mut(&mut self, id: u64) -> Option<&mut SessionState> {
        let at = *self.map.get(&id)?;
        self.touch(at as u32);
        Some(&mut self.nodes[at].state)
    }

    /// Remove a session, returning its state if present.
    pub fn remove(&mut self, id: u64) -> Option<SessionState> {
        let at = self.map.remove(&id)?;
        self.unlink(at as u32);
        self.free.push(at as u32);
        // Swap in a placeholder so the slot holds no live key material.
        let node = std::mem::replace(
            &mut self.nodes[at],
            Node {
                id: 0,
                state: SessionState::new(&[0u8; 32]),
                prev: NIL,
                next: NIL,
            },
        );
        Some(node.state)
    }

    /// Number of open sessions.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_state() -> (SessionState, ClientSession) {
        let shared = [0x42u8; 32];
        (SessionState::new(&shared), ClientSession::new(7, &shared))
    }

    #[test]
    fn both_ends_derive_identical_keys() {
        let (server, client) = sample_state();
        assert_eq!(server.epoch_secret, client.epoch_secret);
        assert_eq!(server.keys.to_server.enc, client.keys.to_server.enc);
        assert_eq!(server.keys.to_client.mac, client.keys.to_client.mac);
    }

    #[test]
    fn directions_and_epochs_use_independent_keys() {
        let (server, _) = sample_state();
        assert_ne!(server.keys.to_server.enc, server.keys.to_client.enc);
        assert_ne!(server.keys.to_server.enc, server.keys.to_server.mac);
        let mut rekeyed = server.clone();
        rekeyed.rekey(&[0x55u8; 32]);
        assert_ne!(server.keys.to_server.enc, rekeyed.keys.to_server.enc);
    }

    #[test]
    fn seal_open_round_trip() {
        let (server, mut client) = sample_state();
        let msg = b"attack at dawn";
        let sealed = client.seal_next(msg);
        let frame = SessionFrame::decode(&sealed).expect("decode");
        assert_eq!(frame.session_id, 7);
        assert_eq!(frame.epoch, 0);
        assert_eq!(frame.seq, 0);
        assert_ne!(frame.body, msg.to_vec(), "body must be ciphered");
        let plain = open(&server.keys.to_server, Direction::ToServer, &frame).expect("tag");
        assert_eq!(plain, msg);
    }

    #[test]
    fn every_tampered_byte_fails_the_tag() {
        let (server, mut client) = sample_state();
        let sealed = client.seal_next(b"integrity");
        for at in 0..sealed.len() {
            let mut bad = sealed.clone();
            bad[at] ^= 1;
            let frame = SessionFrame::decode(&bad).expect("still parses");
            assert!(
                open(&server.keys.to_server, Direction::ToServer, &frame).is_none(),
                "flip at byte {at} must fail"
            );
        }
    }

    #[test]
    fn wrong_direction_fails_the_tag() {
        let (server, mut client) = sample_state();
        let sealed = client.seal_next(b"reflect me");
        let frame = SessionFrame::decode(&sealed).unwrap();
        assert!(open(&server.keys.to_client, Direction::ToClient, &frame).is_none());
        assert!(open(&server.keys.to_server, Direction::ToClient, &frame).is_none());
    }

    #[test]
    fn ct_eq_matches_plain_equality() {
        let a = [7u8; 32];
        let mut b = a;
        assert!(ct_eq(&a, &b));
        b[31] ^= 1;
        assert!(!ct_eq(&a, &b));
        b[31] ^= 1;
        b[0] ^= 0x80;
        assert!(!ct_eq(&a, &b));
    }

    #[test]
    fn rekey_chains_and_keeps_grace_window() {
        let (mut server, mut client) = sample_state();
        let old = client.seal_next(b"old epoch");
        let fresh = [9u8; 32];
        server.rekey(&fresh);
        client.apply_rekey(&fresh);
        assert_eq!(server.epoch, 1);
        assert_eq!(server.epoch_secret, client.epoch_secret);
        // The in-flight epoch-0 frame still verifies via prev keys.
        let frame = SessionFrame::decode(&old).unwrap();
        let keys = server.accept_keys(frame.epoch).expect("grace window");
        assert!(open(&keys.to_server, Direction::ToServer, &frame).is_some());
        // New-epoch traffic verifies under the current keys.
        let new = client.seal_next(b"new epoch");
        let frame = SessionFrame::decode(&new).unwrap();
        let keys = server.accept_keys(frame.epoch).expect("current epoch");
        assert_eq!(
            open(&keys.to_server, Direction::ToServer, &frame).unwrap(),
            b"new epoch"
        );
        // A second rekey closes epoch 0's window.
        server.rekey(&[10u8; 32]);
        assert!(server.accept_keys(0).is_none());
        assert!(server.accept_keys(1).is_some());
    }

    #[test]
    fn epoch_wraps_without_panicking() {
        let (mut server, _) = sample_state();
        server.epoch = u32::MAX;
        server.rekey(&[1u8; 32]);
        assert_eq!(server.epoch, 0);
        assert!(server.accept_keys(u32::MAX).is_some(), "grace across wrap");
    }

    #[test]
    fn client_reply_checks_id_epoch_seq() {
        let (server, mut client) = sample_state();
        let reply = seal(
            &server.keys.to_client,
            Direction::ToClient,
            7,
            0,
            0,
            b"echo",
        );
        let mut wrong_id = client.clone();
        wrong_id.id = 8;
        assert!(wrong_id.open_reply(&reply).is_err());
        let mut wrong_epoch = client.clone();
        wrong_epoch.epoch = 1;
        assert!(wrong_epoch.open_reply(&reply).is_err());
        let mut wrong_seq = client.clone();
        wrong_seq.recv_seq = 5;
        assert!(wrong_seq.open_reply(&reply).is_err());
        assert_eq!(client.open_reply(&reply).unwrap(), b"echo");
        assert_eq!(client.recv_seq, 1);
    }

    #[test]
    fn rekey_tag_binds_session_epoch_and_pk() {
        let (_, client) = sample_state();
        let tag = client.rekey_tag(b"pk-bytes");
        assert_eq!(tag, rekey_tag(&client.keys.to_server, 7, 0, b"pk-bytes"));
        assert_ne!(tag, rekey_tag(&client.keys.to_server, 8, 0, b"pk-bytes"));
        assert_ne!(tag, rekey_tag(&client.keys.to_server, 7, 1, b"pk-bytes"));
        assert_ne!(tag, rekey_tag(&client.keys.to_server, 7, 0, b"pk-other"));
    }

    #[test]
    fn open_request_codec_round_trips_and_validates() {
        let pk = vec![3u8; 20];
        let fresh = encode_open_request(0, &pk, None);
        let (id, got_pk, tag) = decode_open_request(&fresh, 20).unwrap();
        assert_eq!((id, got_pk, tag), (0, &pk[..], None));

        let rekey = encode_open_request(7, &pk, Some([8u8; 32]));
        let (id, got_pk, tag) = decode_open_request(&rekey, 20).unwrap();
        assert_eq!((id, got_pk, tag), (7, &pk[..], Some([8u8; 32])));

        // A tagless rekey and a tagged fresh open are both malformed.
        assert!(decode_open_request(&encode_open_request(7, &pk, None), 20).is_err());
        assert!(decode_open_request(&encode_open_request(0, &pk, Some([0u8; 32])), 20).is_err());
        assert!(decode_open_request(&fresh, 21).is_err());
    }

    #[test]
    fn open_response_codec_round_trips() {
        let ct = vec![5u8; 16];
        let bytes = encode_open_response(42, 3, &ct);
        let (id, epoch, got) = decode_open_response(&bytes, 16).unwrap();
        assert_eq!((id, epoch, got), (42, 3, &ct[..]));
        assert!(decode_open_response(&bytes, 15).is_err());
        assert!(decode_open_response(&bytes[..11], 0).is_err());
    }

    #[test]
    fn frame_decode_rejects_short_input() {
        assert!(SessionFrame::decode(&[0u8; FRAME_OVERHEAD - 1]).is_err());
        assert!(SessionFrame::decode(&[0u8; FRAME_OVERHEAD]).is_ok());
    }

    fn state(tag: u8) -> SessionState {
        SessionState::new(&[tag; 32])
    }

    #[test]
    fn lru_evicts_in_exact_order() {
        let mut table = SessionTable::new(4);
        for id in 1..=4 {
            assert_eq!(table.insert(id, state(id as u8)), None);
        }
        // Touch 1 so 2 becomes the LRU victim.
        assert!(table.get_mut(1).is_some());
        assert_eq!(table.insert(5, state(5)), Some(2));
        assert_eq!(table.len(), 4);
        assert!(table.get_mut(2).is_none());
        assert!(table.get_mut(1).is_some());
        // Next victim is 3 (order after the touch: 5, 1, 4, 3).
        assert_eq!(table.insert(6, state(6)), Some(3));
    }

    #[test]
    fn remove_frees_capacity() {
        let mut table = SessionTable::new(2);
        table.insert(1, state(1));
        table.insert(2, state(2));
        assert!(table.remove(1).is_some());
        assert!(table.remove(1).is_none());
        assert_eq!(table.len(), 1);
        assert_eq!(table.insert(3, state(3)), None, "freed slot is reusable");
        assert_eq!(table.insert(4, state(4)), Some(2));
    }

    #[test]
    fn reinserting_same_id_replaces_without_eviction() {
        let mut table = SessionTable::new(2);
        table.insert(1, state(1));
        table.insert(2, state(2));
        let mut replacement = state(9);
        replacement.recv_seq = 77;
        assert_eq!(table.insert(1, replacement), None);
        assert_eq!(table.len(), 2);
        assert_eq!(table.get_mut(1).unwrap().recv_seq, 77);
    }
}
