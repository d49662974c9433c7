//! Counter-mode seed expansion.
//!
//! LAC expands 32-byte seeds into arbitrarily long pseudo-random byte
//! streams by hashing `seed ‖ domain ‖ counter` and concatenating the
//! digests — this is the "repetitively uses a SHA256 accelerator" pattern
//! of the paper's `GenA` and `Sample poly` bottlenecks. [`Expander`] is
//! the one home of that stream: the DRBG and the session keystream read it
//! through SHA-256, and LAC's `GenA` and samplers through their backend's
//! hash, so the accelerated profiles charge their hash unit per block.

use crate::sha256;

/// Bytes of one hashed block: a 32-byte seed, the domain byte and the
/// 4-byte little-endian counter.
const BLOCK_BYTES: usize = 32 + 1 + 4;

/// Deterministic byte stream derived from a seed by hashing
/// `seed ‖ domain ‖ counter` in counter mode.
///
/// # Example
///
/// ```
/// use lac_sha256::Expander;
///
/// let mut a = Expander::new(&[1u8; 32], 0);
/// let mut b = Expander::new(&[1u8; 32], 0);
/// assert_eq!(a.next_byte(), b.next_byte());
///
/// // A different domain yields an independent stream.
/// let mut c = Expander::new(&[1u8; 32], 1);
/// let mut a2 = Expander::new(&[1u8; 32], 0);
/// let first_pair = (a2.next_byte(), c.next_byte());
/// assert_ne!(first_pair.0, first_pair.1);
/// ```
#[derive(Debug, Clone)]
pub struct Expander {
    seed: [u8; 32],
    domain: u8,
    counter: u32,
    buffer: [u8; 32],
    used: usize,
}

impl Expander {
    /// Create an expander for `seed` under domain-separation byte `domain`.
    pub fn new(seed: &[u8; 32], domain: u8) -> Self {
        Self {
            seed: *seed,
            domain,
            counter: 0,
            buffer: [0u8; 32],
            used: 32, // force refill on first read
        }
    }

    /// Next pseudo-random byte, hashing each new block with the caller's
    /// `hash` (LAC passes its backend's, so a hash unit's model or the
    /// metered software compression is charged per block).
    ///
    /// # Panics
    ///
    /// Panics if the 32-bit block counter would wrap.
    #[inline]
    pub fn next_byte_with(&mut self, hash: impl FnOnce(&[u8]) -> [u8; 32]) -> u8 {
        if self.used == 32 {
            let mut block = [0u8; BLOCK_BYTES];
            block[..32].copy_from_slice(&self.seed);
            block[32] = self.domain;
            block[33..].copy_from_slice(&self.counter.to_le_bytes());
            self.buffer = hash(&block);
            self.counter = self
                .counter
                .checked_add(1)
                .expect("expander counter overflow");
            self.used = 0;
        }
        let b = self.buffer[self.used];
        self.used += 1;
        b
    }

    /// Next pseudo-random byte.
    pub fn next_byte(&mut self) -> u8 {
        self.next_byte_with(sha256)
    }

    /// Fill `out` with pseudo-random bytes.
    pub fn fill(&mut self, out: &mut [u8]) {
        for b in out.iter_mut() {
            *b = self.next_byte();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256_metered;
    use lac_meter::CycleLedger;

    #[test]
    fn deterministic_for_same_seed_and_domain() {
        let seed = [0xabu8; 32];
        let mut a = Expander::new(&seed, 3);
        let mut b = Expander::new(&seed, 3);
        let mut buf_a = [0u8; 100];
        let mut buf_b = [0u8; 100];
        a.fill(&mut buf_a);
        b.fill(&mut buf_b);
        assert_eq!(buf_a, buf_b);
    }

    #[test]
    fn different_domains_diverge() {
        let seed = [9u8; 32];
        let mut a = Expander::new(&seed, 0);
        let mut b = Expander::new(&seed, 1);
        let mut buf_a = [0u8; 64];
        let mut buf_b = [0u8; 64];
        a.fill(&mut buf_a);
        b.fill(&mut buf_b);
        assert_ne!(buf_a, buf_b);
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Expander::new(&[0u8; 32], 0);
        let mut b = Expander::new(&[1u8; 32], 0);
        let mut buf_a = [0u8; 64];
        let mut buf_b = [0u8; 64];
        a.fill(&mut buf_a);
        b.fill(&mut buf_b);
        assert_ne!(buf_a, buf_b);
    }

    #[test]
    fn stream_is_contiguous_across_reads() {
        let seed = [4u8; 32];
        let mut big = Expander::new(&seed, 0);
        let mut buf = [0u8; 96];
        big.fill(&mut buf);

        let mut small = Expander::new(&seed, 0);
        for (i, expect) in buf.iter().enumerate() {
            assert_eq!(small.next_byte(), *expect, "byte {i}");
        }
    }

    #[test]
    fn blocks_are_seed_domain_counter_hashed_once_each() {
        let seed = [5u8; 32];
        let mut blocks = Vec::new();
        let mut e = Expander::new(&seed, 7);
        let streamed: Vec<u8> = (0..65)
            .map(|_| {
                e.next_byte_with(|block| {
                    blocks.push(block.to_vec());
                    sha256(block)
                })
            })
            .collect();
        // 65 bytes need ceil(65/32) = 3 digests, of counters 0, 1, 2.
        assert_eq!(blocks.len(), 3);
        for (counter, block) in blocks.iter().enumerate() {
            assert_eq!(block[..32], seed);
            assert_eq!(block[32], 7);
            assert_eq!(block[33..], (counter as u32).to_le_bytes());
        }
        let mut filled = [0u8; 65];
        Expander::new(&seed, 7).fill(&mut filled);
        assert_eq!(streamed, filled);
    }

    #[test]
    fn metering_charges_hash_work() {
        let mut ledger = CycleLedger::new();
        let mut e = Expander::new(&[0u8; 32], 0);
        for _ in 0..256 {
            e.next_byte_with(|block| sha256_metered(block, &mut ledger));
        }
        assert!(ledger.total() > 0);
    }
}
