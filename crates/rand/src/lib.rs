//! In-tree entropy substrate for the LAC workspace.
//!
//! The workspace must build and test with **zero external dependencies**
//! (tier-1 verify runs `cargo build --release --offline`), and everything
//! the scheme itself needs is deterministic, seedable randomness: LAC
//! expands 32-byte seeds through SHA-256 in counter mode for `GenA` and
//! polynomial sampling. This crate builds the workspace's RNG on exactly
//! that primitive instead of pulling in `rand`:
//!
//! * [`Rng`] — the trait every KEM/PKE entry point is generic over
//!   (`fill_bytes`, `next_u32`, `next_u64`, plus unbiased range and
//!   shuffle helpers);
//! * [`Sha256CtrRng`] — a SHA-256 counter-mode DRBG (mirroring LAC's own
//!   expansion pattern);
//! * [`prop`] — a small seeded randomized-property harness replacing
//!   `proptest` for the workspace's property tests.
//!
//! The DRBG is seedable from a 32-byte seed, a `u64` convenience seed,
//! or best-effort OS entropy (`/dev/urandom`, with a documented
//! deterministic fallback for platforms without it).
//!
//! # Example
//!
//! ```
//! use lac_rand::{Rng, Sha256CtrRng};
//!
//! let mut rng = Sha256CtrRng::seed_from_u64(7);
//! let mut key = [0u8; 32];
//! rng.fill_bytes(&mut key);
//! assert_eq!(rng.gen_below_u32(251) < 251, true);
//!
//! // Same seed, same stream — always.
//! let mut rng2 = Sha256CtrRng::seed_from_u64(7);
//! let mut key2 = [0u8; 32];
//! rng2.fill_bytes(&mut key2);
//! assert_eq!(key, key2);
//! ```

#![warn(missing_docs)]

mod drbg;
pub mod prop;

pub use drbg::{os_entropy_seed, Sha256CtrRng};

/// A deterministic random-number generator.
///
/// The one required method is [`Rng::fill_bytes`]; everything else is
/// derived from it. The derived integer helpers use rejection sampling, so
/// they are unbiased for every bound.
///
/// The trait is object-safe (the generic [`Rng::shuffle`] helper is
/// `Self: Sized`-bound), so `&mut dyn Rng` works where the generator is
/// chosen at run time.
pub trait Rng {
    /// Fill `dest` with pseudo-random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]);

    /// Next pseudo-random byte.
    fn next_byte(&mut self) -> u8 {
        let mut b = [0u8; 1];
        self.fill_bytes(&mut b);
        b[0]
    }

    /// Next pseudo-random `u32` (little-endian from the byte stream).
    fn next_u32(&mut self) -> u32 {
        let mut b = [0u8; 4];
        self.fill_bytes(&mut b);
        u32::from_le_bytes(b)
    }

    /// Next pseudo-random `u64` (little-endian from the byte stream).
    fn next_u64(&mut self) -> u64 {
        let mut b = [0u8; 8];
        self.fill_bytes(&mut b);
        u64::from_le_bytes(b)
    }

    /// Uniform `u64` in `[0, bound)` via rejection sampling (unbiased).
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    fn gen_below_u64(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "gen_below_u64: bound must be non-zero");
        if bound.is_power_of_two() {
            return self.next_u64() & (bound - 1);
        }
        // Reject values above the largest multiple of `bound` to stay
        // exactly uniform; acceptance probability is always > 1/2.
        let zone = u64::MAX - (u64::MAX % bound) - 1;
        loop {
            let v = self.next_u64();
            if v <= zone {
                return v % bound;
            }
        }
    }

    /// Uniform `u32` in `[0, bound)` (unbiased).
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    fn gen_below_u32(&mut self, bound: u32) -> u32 {
        self.gen_below_u64(u64::from(bound)) as u32
    }

    /// Uniform `usize` in `[0, bound)` (unbiased).
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    fn gen_below_usize(&mut self, bound: usize) -> usize {
        self.gen_below_u64(bound as u64) as usize
    }

    /// Uniform `usize` in `[range.start, range.end)`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn gen_range_usize(&mut self, range: core::ops::Range<usize>) -> usize {
        assert!(range.start < range.end, "gen_range_usize: empty range");
        range.start + self.gen_below_usize(range.end - range.start)
    }

    /// Uniform `i64` in `[lo, hi]` (inclusive).
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    fn gen_range_i64(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo <= hi, "gen_range_i64: lo > hi");
        let span = (hi as i128 - lo as i128 + 1) as u64;
        lo.wrapping_add(self.gen_below_u64(span) as i64)
    }

    /// Uniform random boolean.
    fn gen_bool(&mut self) -> bool {
        self.next_byte() & 1 == 1
    }

    /// Fisher–Yates shuffle of `slice` in place.
    fn shuffle<T>(&mut self, slice: &mut [T])
    where
        Self: Sized,
    {
        for i in (1..slice.len()).rev() {
            let j = self.gen_below_usize(i + 1);
            slice.swap(i, j);
        }
    }
}

impl<R: Rng + ?Sized> Rng for &mut R {
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        (**self).fill_bytes(dest);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gen_below_is_in_range_for_odd_bounds() {
        let mut rng = Sha256CtrRng::seed_from_u64(1);
        for bound in [1u64, 2, 3, 5, 251, 12289, u64::from(u32::MAX) + 3] {
            for _ in 0..200 {
                assert!(rng.gen_below_u64(bound) < bound, "bound {bound}");
            }
        }
    }

    #[test]
    fn gen_below_is_roughly_uniform() {
        let mut rng = Sha256CtrRng::seed_from_u64(2);
        let mut buckets = [0u32; 5];
        let samples = 20_000u32;
        for _ in 0..samples {
            buckets[rng.gen_below_usize(5)] += 1;
        }
        for (i, count) in buckets.iter().enumerate() {
            let expected = samples / 5;
            assert!(
                (i64::from(*count) - i64::from(expected)).unsigned_abs() < u64::from(expected) / 4,
                "bucket {i}: {count}"
            );
        }
    }

    #[test]
    fn gen_range_i64_covers_endpoints() {
        let mut rng = Sha256CtrRng::seed_from_u64(3);
        let (mut saw_lo, mut saw_hi) = (false, false);
        for _ in 0..500 {
            let v = rng.gen_range_i64(-1, 1);
            assert!((-1..=1).contains(&v));
            saw_lo |= v == -1;
            saw_hi |= v == 1;
        }
        assert!(saw_lo && saw_hi);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = Sha256CtrRng::seed_from_u64(4);
        let mut data: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut data);
        let mut sorted = data.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        // With 100 elements an identity shuffle is astronomically unlikely.
        assert_ne!(data, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn trait_objects_and_boxes_work() {
        let mut boxed: Box<dyn Rng> = Box::new(Sha256CtrRng::seed_from_u64(5));
        let mut reference = Sha256CtrRng::seed_from_u64(5);
        assert_eq!(boxed.next_u64(), reference.next_u64());
        let dynref: &mut dyn Rng = &mut reference;
        let mut via_dyn = [0u8; 8];
        let mut via_box = [0u8; 8];
        dynref.fill_bytes(&mut via_dyn);
        boxed.fill_bytes(&mut via_box);
        assert_eq!(via_dyn, via_box);
    }
}
