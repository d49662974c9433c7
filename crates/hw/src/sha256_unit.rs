//! The SHA-256 accelerator (Section IV / V).
//!
//! A round engine keeping the 256-bit state in hardware. The driver feeds
//! input **one byte per `pq.sha256` instruction** (rs1 carries 8 data bits,
//! rs2 the write address / control signals: generate-hash and reset) and
//! reads the digest back byte-wise — this narrow register interface is why
//! the paper's `GenA`/`Sample poly` improve far less than the
//! multiplication (the SHA256 unit is small but I/O-bound, unlike
//! reference \[8\]'s Keccak).

use crate::area::{ResourceEstimate, SHA256_LUTS, SHA256_REGS};
use crate::UnitStats;
use lac_meter::{Meter, Op};
use lac_sha256::Sha256;

/// Datapath cycles per compressed block (64 rounds + schedule overlap).
pub const CYCLES_PER_BLOCK: u64 = 66;

/// Blocks the round engine compresses for a `len`-byte message. FIPS
/// padding: message + 0x80 + zeros + 8-byte length.
pub fn padded_blocks(len: usize) -> u64 {
    (len as u64 + 9).div_ceil(64)
}

/// Cycle-accurate model of the SHA256 unit.
///
/// # Example
///
/// ```
/// use lac_hw::Sha256Unit;
/// use lac_meter::NullMeter;
///
/// let mut unit = Sha256Unit::new();
/// let d = unit.digest(b"abc", &mut NullMeter);
/// assert_eq!(d, lac_sha256::sha256(b"abc"));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Sha256Unit {
    stats: UnitStats,
}

impl Sha256Unit {
    /// Create a unit.
    pub fn new() -> Self {
        Self::default()
    }

    /// Usage statistics.
    pub fn stats(&self) -> UnitStats {
        self.stats
    }

    /// Structural resource estimate (256-bit state + round logic).
    ///
    /// Matches Table III's SHA256 row (1,031 LUTs, 1,556 registers).
    pub fn resources(&self) -> ResourceEstimate {
        ResourceEstimate {
            luts: SHA256_LUTS,
            regs: SHA256_REGS,
            brams: 0,
            dsps: 0,
        }
    }

    /// Hash `data`, charging the accelerated cost to `meter`.
    ///
    /// No phase is entered: callers (`GenA`, sampling, the FO transform)
    /// wrap the call in their own phase so Table II's columns attribute
    /// correctly.
    ///
    /// Cost model per 64-byte block: 64 byte-write `pq.sha256` instructions
    /// — each loads a byte, packs the rs2 address/control word, issues, and
    /// polls the unit's ready flag — then [`CYCLES_PER_BLOCK`] datapath
    /// cycles, and for the final block 32 byte-wise digest reads. The
    /// byte-granular blocking interface is why the paper's SHA acceleration
    /// yields far less than the datapath's raw speed (Section VI discusses
    /// the SHA256 unit's low performance next to \[8\]'s Keccak).
    pub fn digest<M: Meter>(&mut self, data: &[u8], meter: &mut M) -> [u8; 32] {
        let blocks = padded_blocks(data.len());
        let bytes = blocks * 64;
        meter.charge(Op::Load, bytes); // byte load
        meter.charge(Op::Alu, 2 * bytes); // rs2 control pack + issue
        meter.charge(Op::Branch, bytes); // ready-flag poll
        meter.charge(Op::LoopIter, bytes);
        // Compute: the round engine runs per block.
        meter.charge_cycles(blocks * CYCLES_PER_BLOCK);
        self.stats.record(blocks * CYCLES_PER_BLOCK);
        // Output: 32 digest bytes read back (issue + store + poll).
        meter.charge(Op::Alu, 32);
        meter.charge(Op::Store, 32);
        meter.charge(Op::Branch, 32);
        meter.charge(Op::LoopIter, 32);

        let mut h = Sha256::new();
        h.update(data);
        h.finalize()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lac_meter::{CycleLedger, NullMeter};

    #[test]
    fn digest_matches_software() {
        let mut unit = Sha256Unit::new();
        for data in [&b""[..], b"abc", &[0u8; 200], &[0xff; 64]] {
            assert_eq!(unit.digest(data, &mut NullMeter), lac_sha256::sha256(data));
        }
    }

    #[test]
    fn hw_is_faster_than_software_but_io_bound() {
        let data = [3u8; 64 * 16];
        let mut hw = CycleLedger::new();
        Sha256Unit::new().digest(&data, &mut hw);
        let mut sw = CycleLedger::new();
        lac_sha256::sha256_metered(&data, &mut sw);
        let speedup = sw.total() as f64 / hw.total() as f64;
        // Faster than software, but nowhere near the datapath's 50x —
        // byte-wise register I/O dominates (the paper's stated drawback).
        assert!(speedup > 2.0, "speedup {speedup}");
        assert!(speedup < 15.0, "speedup {speedup}");
    }

    #[test]
    fn cost_scales_with_blocks() {
        // Fixed read-out cost plus a linear per-block cost.
        let mut one = CycleLedger::new();
        Sha256Unit::new().digest(&[0u8; 10], &mut one); // 1 block
        let mut two = CycleLedger::new();
        Sha256Unit::new().digest(&[0u8; 74], &mut two); // 2 blocks
        let mut three = CycleLedger::new();
        Sha256Unit::new().digest(&[0u8; 138], &mut three); // 3 blocks
        let step = two.total() - one.total();
        assert_eq!(three.total() - two.total(), step);
        assert!(step > CYCLES_PER_BLOCK, "step {step} must include I/O");
    }

    #[test]
    fn stats_track_blocks() {
        let mut unit = Sha256Unit::new();
        unit.digest(&[0u8; 120], &mut NullMeter); // 3 blocks with padding? (120+9)/64 -> 3
        assert_eq!(unit.stats().invocations, 1);
        assert_eq!(unit.stats().busy_cycles, 3 * CYCLES_PER_BLOCK);
    }

    #[test]
    fn resources_match_table_iii() {
        let r = Sha256Unit::new().resources();
        assert_eq!(r.luts, 1_031);
        assert_eq!(r.regs, 1_556);
    }
}
