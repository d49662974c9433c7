//! Keccak-f\[1600\] and the SHA-3 family, implemented from scratch.
//!
//! The DATE 2020 paper's SHA256 unit is small but slow next to the Keccak
//! accelerator of its reference \[8\]; swapping it is the paper's stated
//! future work ("Changing the SHA256 accelerator with a Keccak accelerator
//! to further increase the performance of LAC has been left for a future
//! work"). This crate provides the software substrate for that extension:
//!
//! * [`keccak_f1600`] — the permutation (24 rounds);
//! * [`Sponge`] — the sponge construction over it, which NewHope's `GenA`
//!   and `lac_hw::KeccakUnit::expand` squeeze at SHAKE128's rate (168
//!   bytes per permutation, versus SHA-256's 32 bytes per compression —
//!   the throughput root of the paper's comparison);
//! * [`sha3_256`] — the fixed-output hash;
//! * [`Shake128`] — the XOF, the reference `KeccakUnit`'s tests use;
//! * metered variants charging a portable-software cost per permutation.
//!
//! # Example
//!
//! ```
//! use lac_keccak::Shake128;
//!
//! let mut xof = Shake128::new();
//! xof.absorb(b"seed");
//! let mut out = [0u8; 16];
//! xof.squeeze(&mut out);
//! assert_ne!(out, [0u8; 16]);
//! ```

#![warn(missing_docs)]

use lac_meter::{Meter, NullMeter, Op};

/// Round constants for ι.
const RC: [u64; 24] = [
    0x0000000000000001,
    0x0000000000008082,
    0x800000000000808a,
    0x8000000080008000,
    0x000000000000808b,
    0x0000000080000001,
    0x8000000080008081,
    0x8000000000008009,
    0x000000000000008a,
    0x0000000000000088,
    0x0000000080008009,
    0x000000008000000a,
    0x000000008000808b,
    0x800000000000008b,
    0x8000000000008089,
    0x8000000000008003,
    0x8000000000008002,
    0x8000000000000080,
    0x000000000000800a,
    0x800000008000000a,
    0x8000000080008081,
    0x8000000000008080,
    0x0000000080000001,
    0x8000000080008008,
];

/// Rotation offsets for ρ, indexed `[x][y]`.
const RHO: [[u32; 5]; 5] = [
    [0, 36, 3, 41, 18],
    [1, 44, 10, 45, 2],
    [62, 6, 43, 15, 61],
    [28, 55, 25, 21, 56],
    [27, 20, 39, 8, 14],
];

/// Apply the Keccak-f\[1600\] permutation to the 5×5 lane state
/// (`state[x + 5*y]`, little-endian lanes).
pub fn keccak_f1600(state: &mut [u64; 25]) {
    for rc in RC {
        // θ
        let mut c = [0u64; 5];
        for (x, cx) in c.iter_mut().enumerate() {
            *cx = state[x] ^ state[x + 5] ^ state[x + 10] ^ state[x + 15] ^ state[x + 20];
        }
        for x in 0..5 {
            let d = c[(x + 4) % 5] ^ c[(x + 1) % 5].rotate_left(1);
            for y in 0..5 {
                state[x + 5 * y] ^= d;
            }
        }
        // ρ and π
        let mut b = [0u64; 25];
        for x in 0..5 {
            for y in 0..5 {
                b[y + 5 * ((2 * x + 3 * y) % 5)] = state[x + 5 * y].rotate_left(RHO[x][y]);
            }
        }
        // χ
        for y in 0..5 {
            for x in 0..5 {
                state[x + 5 * y] =
                    b[x + 5 * y] ^ (!b[(x + 1) % 5 + 5 * y] & b[(x + 2) % 5 + 5 * y]);
            }
        }
        // ι
        state[0] ^= rc;
    }
}

/// Modelled RISCY cycles for one software permutation.
///
/// Portable C Keccak-f\[1600\] on RV32 runs ~60 ops per lane per round over
/// 25 lanes × 24 rounds with 64-bit lanes emulated by register pairs; the
/// charge below (~13k cycles) matches pqm4-class figures for a
/// non-bit-interleaved implementation.
pub fn charge_permutation<M: Meter>(meter: &mut M) {
    meter.charge(Op::LoopIter, 24);
    // Per round: θ (30 xor-pairs + rotates), ρπ (25 double-rotates + moves),
    // χ (25 and/not/xor triples), all on 32-bit halves.
    meter.charge(Op::Alu, 24 * 380);
    meter.charge(Op::Load, 24 * 60);
    meter.charge(Op::Store, 24 * 50);
    meter.charge(Op::Call, 1);
}

/// A Keccak sponge with byte-granular absorb/squeeze.
#[derive(Debug, Clone)]
pub struct Sponge {
    state: [u64; 25],
    rate: usize, // bytes
    offset: usize,
    squeezing: bool,
    domain: u8,
    permutations: u64,
}

impl Sponge {
    /// Create a sponge with the given rate in bytes and domain-separation
    /// suffix bits (SHA-3: `0x06`, SHAKE: `0x1f`).
    ///
    /// # Panics
    ///
    /// Panics if `rate` is zero, not a multiple of 8, or ≥ 200.
    pub fn new(rate: usize, domain: u8) -> Self {
        assert!(rate > 0 && rate < 200 && rate % 8 == 0, "invalid rate");
        Self {
            state: [0u64; 25],
            rate,
            offset: 0,
            squeezing: false,
            domain,
            permutations: 0,
        }
    }

    /// Number of permutations performed so far.
    pub fn permutations(&self) -> u64 {
        self.permutations
    }

    fn xor_byte(&mut self, index: usize, byte: u8) {
        self.state[index / 8] ^= u64::from(byte) << (8 * (index % 8));
    }

    fn state_byte(&self, index: usize) -> u8 {
        (self.state[index / 8] >> (8 * (index % 8))) as u8
    }

    fn permute<M: Meter>(&mut self, meter: &mut M) {
        keccak_f1600(&mut self.state);
        charge_permutation(meter);
        self.permutations += 1;
        self.offset = 0;
    }

    /// Absorb input bytes.
    ///
    /// # Panics
    ///
    /// Panics if called after squeezing started.
    pub fn absorb(&mut self, data: &[u8]) {
        self.absorb_metered(data, &mut NullMeter);
    }

    /// Metered variant of [`Sponge::absorb`].
    ///
    /// # Panics
    ///
    /// Panics if called after squeezing started.
    pub fn absorb_metered<M: Meter>(&mut self, data: &[u8], meter: &mut M) {
        assert!(!self.squeezing, "absorb after squeeze");
        for &b in data {
            self.xor_byte(self.offset, b);
            self.offset += 1;
            if self.offset == self.rate {
                self.permute(meter);
            }
        }
        meter.charge(Op::Load, data.len() as u64);
        meter.charge(Op::Alu, data.len() as u64);
        meter.charge(Op::LoopIter, data.len() as u64);
    }

    fn pad(&mut self) {
        self.xor_byte(self.offset, self.domain);
        self.xor_byte(self.rate - 1, 0x80);
        self.squeezing = true;
    }

    /// Squeeze output bytes.
    pub fn squeeze(&mut self, out: &mut [u8]) {
        self.squeeze_metered(out, &mut NullMeter);
    }

    /// Metered variant of [`Sponge::squeeze`].
    pub fn squeeze_metered<M: Meter>(&mut self, out: &mut [u8], meter: &mut M) {
        if !self.squeezing {
            self.pad();
            self.permute(meter);
        }
        for slot in out.iter_mut() {
            if self.offset == self.rate {
                self.permute(meter);
            }
            *slot = self.state_byte(self.offset);
            self.offset += 1;
        }
        meter.charge(Op::Store, out.len() as u64);
        meter.charge(Op::LoopIter, out.len() as u64);
    }
}

/// SHAKE128 extendable-output function (rate 168).
#[derive(Debug, Clone)]
pub struct Shake128(Sponge);

impl Default for Shake128 {
    fn default() -> Self {
        Self::new()
    }
}

impl Shake128 {
    /// Fresh XOF.
    pub fn new() -> Self {
        Self(Sponge::new(168, 0x1f))
    }

    /// Absorb input (must precede all squeezes).
    pub fn absorb(&mut self, data: &[u8]) {
        self.0.absorb(data);
    }

    /// Squeeze output.
    pub fn squeeze(&mut self, out: &mut [u8]) {
        self.0.squeeze(out);
    }

    /// Access the underlying sponge (metered use, statistics).
    pub fn sponge_mut(&mut self) -> &mut Sponge {
        &mut self.0
    }
}

/// One-shot SHA3-256.
///
/// # Example
///
/// ```
/// let d = lac_keccak::sha3_256(b"");
/// assert_eq!(d[0], 0xa7);
/// ```
pub fn sha3_256(data: &[u8]) -> [u8; 32] {
    sha3_256_metered(data, &mut NullMeter)
}

/// Metered one-shot SHA3-256.
pub fn sha3_256_metered<M: Meter>(data: &[u8], meter: &mut M) -> [u8; 32] {
    let mut sponge = Sponge::new(136, 0x06);
    sponge.absorb_metered(data, meter);
    let mut out = [0u8; 32];
    sponge.squeeze_metered(&mut out, meter);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use lac_meter::CycleLedger;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    // NIST FIPS 202 known-answer vectors.
    #[test]
    fn sha3_256_empty() {
        assert_eq!(
            hex(&sha3_256(b"")),
            "a7ffc6f8bf1ed76651c14756a061d662f580ff4de43b49fa82d80a4b80f8434a"
        );
    }

    #[test]
    fn sha3_256_abc() {
        assert_eq!(
            hex(&sha3_256(b"abc")),
            "3a985da74fe225b2045c172d6bd390bd855f086e3e9d525b46bfe24511431532"
        );
    }

    #[test]
    fn shake128_empty() {
        let mut xof = Shake128::new();
        xof.absorb(b"");
        let mut out = [0u8; 32];
        xof.squeeze(&mut out);
        assert_eq!(
            hex(&out),
            "7f9c2ba4e88f827d616045507605853ed73b8093f6efbc88eb1a6eacfa66ef26"
        );
    }

    #[test]
    fn shake128_abc_prefix() {
        // SHAKE128("abc"), first 16 bytes (NIST example value).
        let mut xof = Shake128::new();
        xof.absorb(b"abc");
        let mut out = [0u8; 16];
        xof.squeeze(&mut out);
        assert_eq!(hex(&out), "5881092dd818bf5cf8a3ddb793fbcba7");
    }

    #[test]
    fn multi_block_absorb_matches_single() {
        let data = vec![0x5au8; 500]; // crosses the 168-byte rate repeatedly
        let mut one = Shake128::new();
        one.absorb(&data);
        let mut streamed = Shake128::new();
        for chunk in data.chunks(7) {
            streamed.absorb(chunk);
        }
        let mut a = [0u8; 64];
        let mut b = [0u8; 64];
        one.squeeze(&mut a);
        streamed.squeeze(&mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn incremental_squeeze_matches_bulk() {
        // 400 bytes in 11-byte steps cross the 168-byte rate twice, each
        // time inside a step.
        let mut bulk = Shake128::new();
        bulk.absorb(b"seed");
        let mut expect = [0u8; 400];
        bulk.squeeze(&mut expect);

        let mut step = Shake128::new();
        step.absorb(b"seed");
        let mut got = vec![0u8; 400];
        for chunk in got.chunks_mut(11) {
            step.squeeze(chunk);
        }
        assert_eq!(got, expect);
    }

    #[test]
    fn permutation_count_tracks_rate() {
        let mut xof = Shake128::new();
        xof.absorb(&[0u8; 168 * 2]); // exactly two full blocks absorbed
        assert_eq!(xof.sponge_mut().permutations(), 2);
        let mut out = [0u8; 200]; // pad-permute + one more for > 168 bytes
        xof.squeeze(&mut out);
        assert_eq!(xof.sponge_mut().permutations(), 4);
    }

    #[test]
    fn metered_cost_scales_with_permutations() {
        let mut small = CycleLedger::new();
        sha3_256_metered(&[0u8; 10], &mut small); // 1 permutation
        let mut large = CycleLedger::new();
        sha3_256_metered(&[0u8; 136 * 3], &mut large); // 4 permutations
        assert!(large.total() > 3 * small.total());
        // Sanity: ~13k cycles per permutation, far more throughput per
        // permutation than SHA-256 per block.
        assert!(small.total() > 8_000 && small.total() < 20_000);
    }

    #[test]
    #[should_panic(expected = "absorb after squeeze")]
    fn absorb_after_squeeze_panics() {
        let mut xof = Shake128::new();
        let mut out = [0u8; 1];
        xof.squeeze(&mut out);
        xof.absorb(b"late");
    }

    #[test]
    #[should_panic(expected = "invalid rate")]
    fn invalid_rate_rejected() {
        Sponge::new(200, 0x1f);
    }
}
