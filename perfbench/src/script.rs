//! Seeded workload scripts.
//!
//! Every run executes a whole script generated here from the `--seed`
//! argument: a fixed list of operations, so op counts (and every modelled
//! cycle count derived from them) repeat exactly for a given seed and
//! run length. The generators are pure functions of their arguments.

use lac::Params;
use lac_serve::BackendKind;

/// SplitMix64: a tiny, well-mixed generator for script decisions. Keys
/// and ciphertexts come from the system's own DRBG, seeded from here.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator for `seed` on the named stream, so each script draws
    /// from its own sequence.
    pub fn new(seed: u64, stream: &str) -> Self {
        let mut s = Self(seed);
        for b in stream.bytes() {
            s.0 ^= u64::from(b);
            s.next_u64();
        }
        s
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound` (bound ≤ 2^32, so the modulo bias is below
    /// 2^-32).
    pub fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }

    /// 32 seed bytes for the system's DRBG.
    pub fn seed32(&mut self) -> [u8; 32] {
        let mut out = [0u8; 32];
        for chunk in out.chunks_mut(8) {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        out
    }
}

/// A KEM operation kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KemKind {
    /// Key generation.
    Keygen,
    /// Encapsulation against fixture `fixture`'s public key.
    Encaps,
    /// Decapsulation of fixture `fixture`'s ciphertext.
    Decaps,
}

impl KemKind {
    /// All kinds, in table order.
    pub const ALL: [KemKind; 3] = [KemKind::Keygen, KemKind::Encaps, KemKind::Decaps];

    /// Lower-case label.
    pub fn label(self) -> &'static str {
        match self {
            KemKind::Keygen => "keygen",
            KemKind::Encaps => "encaps",
            KemKind::Decaps => "decaps",
        }
    }
}

/// One kem-mix request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KemOp {
    /// Request sequence number (the server's DRBG lane); unique per op.
    pub seq: u64,
    /// Index into [`Params::ALL`].
    pub params: usize,
    /// Execution backend.
    pub backend: BackendKind,
    /// Operation.
    pub kind: KemKind,
    /// Which pre-generated key pair / ciphertext of the cell's fixture
    /// group the op uses (ignored by keygen).
    pub fixture: usize,
}

impl KemOp {
    /// The op's parameter set.
    pub fn params(&self) -> Params {
        Params::ALL[self.params]
    }
}

/// The kem-mix script: `ops` requests drawn uniformly from the 36 cells
/// keygen/encaps/decaps × LAC-128/192/256 × ref/ct/hw/hw-keccak, each on
/// one of `fixtures` pre-generated inputs of its cell.
pub fn kem_mix(seed: u64, ops: usize, fixtures: usize) -> Vec<KemOp> {
    let mut rng = SplitMix::new(seed, "kem-mix");
    (0..ops)
        .map(|i| KemOp {
            seq: i as u64 + 1,
            params: rng.below(Params::ALL.len()),
            backend: BackendKind::ALL[rng.below(BackendKind::ALL.len())],
            kind: KemKind::ALL[rng.below(KemKind::ALL.len())],
            fixture: rng.below(fixtures),
        })
        .collect()
}

/// One session-chat action.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionAction {
    /// Open a fresh LAC-128 session (a KEM handshake).
    Open,
    /// Send one sealed message and check its echo.
    Msg(Vec<u8>),
    /// Rekey the open session (a KEM handshake).
    Rekey,
    /// Close the session.
    Close,
}

impl SessionAction {
    /// Whether the action is a KEM handshake.
    pub fn is_handshake(&self) -> bool {
        matches!(self, SessionAction::Open | SessionAction::Rekey)
    }
}

/// Messages before and after a session's rekey: each half's count is
/// drawn uniformly from this range per session, so the lanes' handshakes
/// drift apart instead of running at the same time on every lane.
pub const HALF_SESSION_MSGS: (usize, usize) = (24, 72);
/// Smallest and largest message body, in bytes.
pub const MSG_BYTES: (usize, usize) = (16, 256);

/// One session-chat lane's script: back-to-back sessions of
/// `Open, a × Msg, Rekey, b × Msg, Close` with `a` and `b` drawn from
/// [`HALF_SESSION_MSGS`] (2 handshakes in 99 ops on average), cut to `ops`
/// actions and closed at the end. Message bodies are random bytes of
/// random length in [`MSG_BYTES`].
pub fn session_lane(seed: u64, lane: usize, ops: usize) -> Vec<SessionAction> {
    let mut rng = SplitMix::new(
        seed ^ (lane as u64).wrapping_mul(0xA24B_AED4_963E_E407),
        "session-chat",
    );
    let (lo, hi) = HALF_SESSION_MSGS;
    let mut out = Vec::with_capacity(ops + hi + 3);
    while out.len() < ops {
        out.push(SessionAction::Open);
        for half in 0..2 {
            if half == 1 {
                out.push(SessionAction::Rekey);
            }
            for _ in 0..lo + rng.below(hi - lo + 1) {
                let len = MSG_BYTES.0 + rng.below(MSG_BYTES.1 - MSG_BYTES.0 + 1);
                out.push(SessionAction::Msg(
                    (0..len).map(|_| rng.next_u64() as u8).collect(),
                ));
            }
        }
        out.push(SessionAction::Close);
    }
    out.truncate(ops);
    if out.last() != Some(&SessionAction::Close) {
        out.push(SessionAction::Close);
    }
    out
}

/// Share of an arrival slot over which each session-chat arrival is
/// jittered.
pub const ARRIVAL_JITTER: f64 = 0.5;

/// When each of a session-chat lane's `ops` actions is due, in seconds
/// from the window's start. Action `k` of lane `lane` falls in slot
/// `k + lane / lanes` (a slot is `1 / rate_per_lane` seconds) at a uniform
/// offset of up to [`ARRIVAL_JITTER`] slots, so arrivals keep a fixed
/// offered rate but do not lock onto any fixed period inside the server.
pub fn session_arrivals(
    seed: u64,
    lane: usize,
    lanes: usize,
    ops: usize,
    rate_per_lane: f64,
) -> Vec<f64> {
    let mut rng = SplitMix::new(
        seed ^ (lane as u64).wrapping_mul(0xA24B_AED4_963E_E407),
        "session-arrivals",
    );
    (0..ops)
        .map(|k| {
            let jitter = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
            (k as f64 + lane as f64 / lanes as f64 + ARRIVAL_JITTER * jitter) / rate_per_lane
        })
        .collect()
}

/// The iss-decrypt script: for each op, which of `pool` pre-generated
/// LAC-128 ciphertexts to decrypt.
pub fn iss_decrypt(seed: u64, ops: usize, pool: usize) -> Vec<usize> {
    let mut rng = SplitMix::new(seed, "iss-decrypt");
    (0..ops).map(|_| rng.below(pool)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kem_script_is_a_pure_function_of_the_seed() {
        assert_eq!(kem_mix(7, 500, 4), kem_mix(7, 500, 4));
        assert_ne!(kem_mix(7, 500, 4), kem_mix(8, 500, 4));
        // A longer script extends a shorter one with the same seed.
        assert_eq!(kem_mix(7, 800, 4)[..500], kem_mix(7, 500, 4)[..]);
    }

    #[test]
    fn kem_script_covers_every_cell_with_unique_seqs() {
        let script = kem_mix(3, 2_000, 4);
        let mut cells = std::collections::BTreeSet::new();
        for op in &script {
            cells.insert((op.params, op.backend.code(), op.kind.label()));
            assert!(op.fixture < 4);
        }
        assert_eq!(cells.len(), 36);
        let mut seqs: Vec<_> = script.iter().map(|o| o.seq).collect();
        seqs.dedup();
        assert_eq!(seqs.len(), script.len());
    }

    #[test]
    fn session_lanes_are_pure_and_distinct() {
        assert_eq!(session_lane(11, 0, 300), session_lane(11, 0, 300));
        assert_ne!(session_lane(11, 0, 300), session_lane(12, 0, 300));
        assert_ne!(session_lane(11, 0, 300), session_lane(11, 1, 300));
    }

    #[test]
    fn session_lane_shape() {
        let lane = session_lane(5, 1, 1_000);
        // 1,000 actions cut mid-session, plus the closing action.
        assert!(lane.len() == 1_000 || lane.len() == 1_001);
        assert_eq!(lane.last(), Some(&SessionAction::Close));
        // Sessions are Open, a messages, Rekey, b messages, Close, with a
        // and b in range; only the last one may be cut short.
        let sessions: Vec<_> = lane
            .split_inclusive(|a| *a == SessionAction::Close)
            .collect();
        let (lo, hi) = HALF_SESSION_MSGS;
        for (i, session) in sessions.iter().enumerate() {
            assert_eq!(session[0], SessionAction::Open);
            let halves: Vec<_> = session[1..session.len() - 1]
                .split(|a| *a == SessionAction::Rekey)
                .collect();
            for half in &halves {
                assert!(half.iter().all(|a| matches!(a,
                    SessionAction::Msg(b) if (MSG_BYTES.0..=MSG_BYTES.1).contains(&b.len()))));
            }
            if i + 1 < sessions.len() {
                assert_eq!(halves.len(), 2);
                assert!(halves.iter().all(|h| (lo..=hi).contains(&h.len())));
            }
        }
        // 1,000 actions hold 1000 / (2 * 72 + 3) to 1000 / (2 * 24 + 3)
        // sessions.
        assert!((7..=20).contains(&sessions.len()));
        // The halves are drawn per session, so the lanes rekey at
        // different places.
        let rekeys = |l: &[SessionAction]| -> Vec<usize> {
            (0..l.len())
                .filter(|&i| l[i] == SessionAction::Rekey)
                .collect()
        };
        assert_ne!(rekeys(&lane), rekeys(&session_lane(5, 0, 1_000)));
    }

    #[test]
    fn session_arrivals_keep_the_rate_and_the_lane_order() {
        let (lanes, rate) = (2, 200.0);
        let a = session_arrivals(9, 1, lanes, 1_000, rate);
        assert_eq!(a, session_arrivals(9, 1, lanes, 1_000, rate));
        assert_ne!(a, session_arrivals(10, 1, lanes, 1_000, rate));
        for (k, due) in a.iter().enumerate() {
            let slot = due * rate - k as f64 - 0.5;
            assert!((0.0..ARRIVAL_JITTER).contains(&slot), "action {k}: {slot}");
        }
        // Consecutive actions of a lane are at least half a slot apart.
        assert!(a
            .windows(2)
            .all(|w| w[1] - w[0] >= (1.0 - ARRIVAL_JITTER) / rate));
        // The offsets spread over the whole jitter range.
        let spread: Vec<f64> = a
            .iter()
            .enumerate()
            .map(|(k, d)| d * rate - k as f64)
            .collect();
        let lo = spread.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = spread.iter().cloned().fold(0.0, f64::max);
        assert!(lo < 0.51 && hi > 0.99, "offsets {lo}..{hi}");
    }

    #[test]
    fn iss_script_is_pure() {
        assert_eq!(iss_decrypt(1, 100, 16), iss_decrypt(1, 100, 16));
        assert_ne!(iss_decrypt(1, 100, 16), iss_decrypt(2, 100, 16));
        let script = iss_decrypt(1, 400, 16);
        assert!(script.iter().all(|&i| i < 16));
        assert_eq!(
            script
                .iter()
                .collect::<std::collections::BTreeSet<_>>()
                .len(),
            16
        );
    }
}
