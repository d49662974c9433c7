//! The Keccak accelerator — the paper's stated future work.
//!
//! Section VI: "The SHA256 hardware module has a lower performance compared
//! to the Keccak implementation [of reference 8]. … Changing the SHA256
//! accelerator with a Keccak accelerator to further increase the
//! performance of LAC has been left for a future work." This model
//! implements that exploration: a full-state Keccak-f\[1600\] round engine
//! (one round per cycle, 24 cycles per permutation) with 32-bit word I/O,
//! at the resource cost Table III quotes for \[8\]'s unit (10,435 LUTs,
//! 4,225 registers — an order of magnitude more area than the SHA256
//! unit's 1,031 LUTs, which is exactly the trade-off the paper discusses).

use crate::area::{ResourceEstimate, KECCAK_ACCELERATOR_REF8};
use lac_keccak::Sponge;
use lac_meter::{Meter, Op};

/// Datapath cycles per Keccak-f\[1600\] permutation (one round per cycle).
pub const CYCLES_PER_PERMUTATION: u64 = 24;

/// Cycle-accurate model of a tightly-coupled Keccak/SHA-3 unit.
///
/// # Example
///
/// ```
/// use lac_hw::KeccakUnit;
/// use lac_meter::NullMeter;
///
/// let unit = KeccakUnit::new();
/// let d = unit.digest(b"abc", &mut NullMeter);
/// assert_eq!(d, lac_keccak::sha3_256(b"abc"));
/// ```
#[derive(Debug, Clone, Default)]
pub struct KeccakUnit;

impl KeccakUnit {
    /// Create a unit.
    pub fn new() -> Self {
        Self
    }

    /// Structural resource estimate (the \[8\] synthesis constants: the full
    /// 1600-bit state plus one combinational round).
    pub fn resources(&self) -> ResourceEstimate {
        KECCAK_ACCELERATOR_REF8
    }

    /// SHA3-256 digest with the accelerated cost model.
    ///
    /// Per absorbed rate block (136 bytes): 34 word writes (load + issue),
    /// then 24 permutation cycles; output: 8 word reads. The word-wide
    /// interface (vs the SHA256 unit's byte-wide one) plus the 4x-larger
    /// rate is where the speedup comes from.
    pub fn digest<M: Meter>(&self, data: &[u8], meter: &mut M) -> [u8; 32] {
        let rate = 136usize;
        let blocks = (data.len() / rate + 1) as u64; // padding always adds one
        let words_in = blocks * (rate as u64 / 4);
        meter.charge(Op::Load, words_in);
        meter.charge(Op::Alu, words_in); // issue per word
        meter.charge(Op::LoopIter, words_in);
        meter.charge_cycles(blocks * CYCLES_PER_PERMUTATION);
        meter.charge(Op::Alu, 8);
        meter.charge(Op::Store, 8);
        meter.charge(Op::LoopIter, 8);
        lac_keccak::sha3_256(data)
    }

    /// SHAKE128-style expansion: absorb `seed ‖ domain` once, squeeze
    /// `out.len()` bytes, charging one permutation per 168-byte rate block
    /// plus word-wide read-out.
    pub fn expand<M: Meter>(&self, seed: &[u8], domain: u8, out: &mut [u8], meter: &mut M) {
        let mut sponge = Sponge::new(168, 0x1f);
        sponge.absorb(seed);
        sponge.absorb(&[domain]);
        sponge.squeeze(out);
        let permutations = sponge.permutations();
        // Input: seed words once.
        let words_in = (seed.len() as u64 + 4) / 4 + 1;
        meter.charge(Op::Load, words_in);
        meter.charge(Op::Alu, words_in);
        meter.charge_cycles(permutations * CYCLES_PER_PERMUTATION);
        // Output: word-wide reads.
        let words_out = (out.len() as u64).div_ceil(4);
        meter.charge(Op::Alu, words_out);
        meter.charge(Op::Store, words_out);
        meter.charge(Op::LoopIter, words_out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lac_meter::{CycleLedger, NullMeter};

    #[test]
    fn digest_matches_software() {
        let unit = KeccakUnit::new();
        for data in [&b""[..], b"abc", &[7u8; 300]] {
            assert_eq!(
                unit.digest(data, &mut NullMeter),
                lac_keccak::sha3_256(data)
            );
        }
    }

    #[test]
    fn much_faster_than_sha256_unit() {
        // The whole point of the future-work swap: hashing the same data
        // costs far fewer cycles (bigger rate + word-wide I/O).
        let data = [1u8; 512];
        let mut k = CycleLedger::new();
        KeccakUnit::new().digest(&data, &mut k);
        let mut s = CycleLedger::new();
        crate::Sha256Unit::new().digest(&data, &mut s);
        assert!(
            k.total() * 3 < s.total(),
            "keccak {} vs sha256 {}",
            k.total(),
            s.total()
        );
    }

    #[test]
    fn expand_produces_shake_stream() {
        let unit = KeccakUnit::new();
        let mut out = [0u8; 64];
        unit.expand(&[9u8; 32], 3, &mut out, &mut NullMeter);
        let mut reference = lac_keccak::Shake128::new();
        reference.absorb(&[9u8; 32]);
        reference.absorb(&[3]);
        let mut expect = [0u8; 64];
        reference.squeeze(&mut expect);
        assert_eq!(out, expect);
    }

    #[test]
    fn expand_cost_scales_with_blocks() {
        let mut one = CycleLedger::new();
        let mut out = [0u8; 100];
        KeccakUnit::new().expand(&[0u8; 32], 0, &mut out, &mut one);
        let mut three = CycleLedger::new();
        let mut out = [0u8; 168 * 2 + 100];
        KeccakUnit::new().expand(&[0u8; 32], 0, &mut out, &mut three);
        assert!(three.total() > one.total());
    }

    #[test]
    fn resources_are_the_ref8_constants() {
        let r = KeccakUnit::new().resources();
        assert_eq!((r.luts, r.regs, r.brams, r.dsps), (10_435, 4_225, 0, 0));
    }

    #[test]
    fn area_trade_off_vs_sha256_unit() {
        // Table III's discussion: Keccak's speed costs ~10x the LUTs.
        let k = KeccakUnit::new().resources();
        let s = crate::Sha256Unit::new().resources();
        assert!(k.luts > 8 * s.luts);
    }
}
