//! The SHA-256 counter-mode DRBG and OS seeding.

use crate::Rng;
use lac_sha256::{Expander, Sha256};

/// Domain-separation byte for the SHA-256-CTR DRBG output stream, distinct
/// from the domains LAC itself uses for `GenA`/sampling so an RNG seeded
/// with a public seed can never collide with scheme-internal expansions.
const DOMAIN_DRBG: u8 = 0xD6;

/// Prefix mixed into `u64` convenience seeds before expansion.
const SEED_FROM_U64_TAG: &[u8] = b"lac-rand:seed_from_u64:v1";

/// Prefix mixed into child seeds derived by [`Sha256CtrRng::fork`].
const FORK_TAG: &[u8] = b"lac-rand:fork:v1";

/// Derive a 32-byte seed from a `u64` by hashing a tagged encoding.
fn expand_u64_seed(value: u64) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(SEED_FROM_U64_TAG);
    h.update(&value.to_le_bytes());
    h.finalize()
}

/// Best-effort 32 bytes of OS entropy.
///
/// Reads `/dev/urandom`. On platforms (or sandboxes) where that fails, it
/// falls back to hashing the current wall-clock time and process id — a
/// **deterministic, low-entropy fallback** suitable only for simulations
/// and benchmarks, never for production key material. The fallback is
/// deliberate: this workspace is a cycle-model reproduction and must run
/// in hermetic environments with no entropy device.
pub fn os_entropy_seed() -> [u8; 32] {
    if let Ok(mut f) = std::fs::File::open("/dev/urandom") {
        use std::io::Read;
        let mut seed = [0u8; 32];
        if f.read_exact(&mut seed).is_ok() {
            return seed;
        }
    }
    // Documented deterministic fallback: time ‖ pid through SHA-256.
    let mut h = Sha256::new();
    h.update(b"lac-rand:fallback-entropy:v1");
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos())
        .unwrap_or(0);
    h.update(&nanos.to_le_bytes());
    h.update(&std::process::id().to_le_bytes());
    h.finalize()
}

/// SHA-256 counter-mode DRBG — the workspace's one RNG.
///
/// Output block `i` is `SHA-256(seed ‖ 0xD6 ‖ LE32(i))`, i.e. exactly the
/// counter-mode expansion LAC uses for `GenA` and sampling (and which the
/// paper's SHA256 unit accelerates), under an RNG-private domain byte.
/// This replaces the external `StdRng` everywhere in the workspace: same
/// seed, same stream, on every platform and in every future PR.
///
/// # Example
///
/// ```
/// use lac_rand::{Rng, Sha256CtrRng};
///
/// let mut a = Sha256CtrRng::from_seed([9u8; 32]);
/// let mut b = Sha256CtrRng::from_seed([9u8; 32]);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone)]
pub struct Sha256CtrRng {
    seed: [u8; 32],
    expander: Expander,
}

impl Sha256CtrRng {
    /// DRBG from a full 32-byte seed.
    pub fn from_seed(seed: [u8; 32]) -> Self {
        Self {
            seed,
            expander: Expander::new(&seed, DOMAIN_DRBG),
        }
    }

    /// DRBG from a `u64` convenience seed (tagged and hashed to 32 bytes).
    pub fn seed_from_u64(value: u64) -> Self {
        Self::from_seed(expand_u64_seed(value))
    }

    /// DRBG seeded from best-effort OS entropy (see [`os_entropy_seed`]).
    pub fn from_os_entropy() -> Self {
        Self::from_seed(os_entropy_seed())
    }

    /// Derive an independent child DRBG for lane `index`.
    ///
    /// The child seed is `SHA-256(tag ‖ root_seed ‖ LE64(index))`, so forking
    /// is cheap (one compression), depends only on the *root seed* and the
    /// index — never on how much of the parent stream has been consumed —
    /// and distinct indices yield computationally independent streams.
    ///
    /// This is the mechanism `lac-serve` uses to give every job its own
    /// deterministic randomness: results are byte-identical no matter how
    /// many worker threads the jobs are spread across.
    ///
    /// # Example
    ///
    /// ```
    /// use lac_rand::{Rng, Sha256CtrRng};
    ///
    /// let root = Sha256CtrRng::seed_from_u64(7);
    /// let mut a = root.fork(0);
    /// let mut b = root.fork(1);
    /// assert_ne!(a.next_u64(), b.next_u64());
    /// // Forking again — even after consuming output — replays the lane.
    /// assert_eq!(root.fork(0).next_u64(), Sha256CtrRng::seed_from_u64(7).fork(0).next_u64());
    /// ```
    pub fn fork(&self, index: u64) -> Self {
        let mut h = Sha256::new();
        h.update(FORK_TAG);
        h.update(&self.seed);
        h.update(&index.to_le_bytes());
        Self::from_seed(h.finalize())
    }
}

impl Rng for Sha256CtrRng {
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.expander.fill(dest);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream<R: Rng>(rng: &mut R, len: usize) -> Vec<u8> {
        let mut out = vec![0u8; len];
        rng.fill_bytes(&mut out);
        out
    }

    #[test]
    fn sha256_ctr_is_deterministic_and_seed_sensitive() {
        let a = stream(&mut Sha256CtrRng::from_seed([1u8; 32]), 128);
        let b = stream(&mut Sha256CtrRng::from_seed([1u8; 32]), 128);
        let c = stream(&mut Sha256CtrRng::from_seed([2u8; 32]), 128);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn stream_is_contiguous_across_read_sizes() {
        let big = stream(&mut Sha256CtrRng::seed_from_u64(3), 100);
        let mut rng = Sha256CtrRng::seed_from_u64(3);
        let mut pieced = Vec::new();
        for chunk_len in [1usize, 2, 3, 31, 32, 31] {
            pieced.extend_from_slice(&stream(&mut rng, chunk_len));
        }
        assert_eq!(pieced, big);
    }

    #[test]
    fn seed_from_u64_differs_from_raw_seed() {
        // The u64 path is tagged, so seed_from_u64(0) must not equal
        // from_seed(zeros).
        let tagged = stream(&mut Sha256CtrRng::seed_from_u64(0), 32);
        let zeros = stream(&mut Sha256CtrRng::from_seed([0u8; 32]), 32);
        assert_ne!(tagged, zeros);
    }

    #[test]
    fn known_answer_first_block_sha256_ctr() {
        // Pinned so refactors can never silently change the stream that
        // every fixed-seed test in the workspace derives from:
        // SHA-256([0u8;32] ‖ 0xD6 ‖ LE32(0)).
        let first = stream(&mut Sha256CtrRng::from_seed([0u8; 32]), 32);
        let mut h = Sha256::new();
        h.update(&[0u8; 32]);
        h.update(&[0xD6]);
        h.update(&0u32.to_le_bytes());
        assert_eq!(first.as_slice(), &h.finalize());
    }

    #[test]
    fn fork_is_deterministic_and_lane_independent() {
        let root = Sha256CtrRng::seed_from_u64(11);
        // Deterministic per (root seed, index) and insensitive to how much
        // of the parent stream was consumed before forking.
        let mut consumed = Sha256CtrRng::seed_from_u64(11);
        let _ = stream(&mut consumed, 1000);
        assert_eq!(
            stream(&mut root.fork(3), 64),
            stream(&mut consumed.fork(3), 64)
        );
        // Distinct lanes, and distinct from the parent stream itself.
        assert_ne!(stream(&mut root.fork(0), 64), stream(&mut root.fork(1), 64));
        assert_ne!(
            stream(&mut root.fork(0), 64),
            stream(&mut Sha256CtrRng::seed_from_u64(11), 64)
        );
        // Different roots give different lanes.
        let other = Sha256CtrRng::seed_from_u64(12);
        assert_ne!(
            stream(&mut root.fork(0), 64),
            stream(&mut other.fork(0), 64)
        );
    }

    #[test]
    fn os_entropy_returns_without_panicking() {
        // Can't assert randomness, but the call must succeed everywhere —
        // including hermetic sandboxes (deterministic fallback).
        let a = os_entropy_seed();
        let _rng = Sha256CtrRng::from_seed(a);
    }
}
