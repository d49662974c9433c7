//! The constant-time modulo-q reducer *MOD q* (Barrett, Section V).
//!
//! A combinational unit mapping its two multiplications onto 2 DSP slices:
//! `pq.modq rd, rs1` returns `rs1 mod 251` one cycle later, with no
//! data-dependent timing (the software `%` operator would use the iterative
//! divider).

use crate::area::{ResourceEstimate, MOD_Q_DSPS, MOD_Q_LUTS};
use lac_meter::{Meter, Op};
use lac_ring::barrett_reduce;

/// Datapath cycles per reduction: the combinational result is ready one
/// EX-stage cycle after issue.
pub const CYCLES_PER_REDUCTION: u64 = 1;

/// Cycle-accurate model of the MOD q unit.
///
/// # Example
///
/// ```
/// use lac_hw::ModQ;
/// use lac_meter::NullMeter;
///
/// let unit = ModQ::new();
/// assert_eq!(unit.reduce(1000, &mut NullMeter), (1000 % 251) as u8);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ModQ;

impl ModQ {
    /// Create a unit.
    pub fn new() -> Self {
        Self
    }

    /// Structural resource estimate (Table III: 35 LUTs, 2 DSPs, no regs).
    pub fn resources(&self) -> ResourceEstimate {
        ResourceEstimate {
            luts: MOD_Q_LUTS,
            regs: 0,
            brams: 0,
            dsps: MOD_Q_DSPS,
        }
    }

    /// Reduce `x` modulo 251 in one instruction (issue + single-cycle
    /// combinational result).
    pub fn reduce<M: Meter>(&self, x: u32, meter: &mut M) -> u8 {
        meter.charge(Op::Alu, 1); // pq.modq issue
        meter.charge_cycles(CYCLES_PER_REDUCTION);
        barrett_reduce(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lac_meter::{CycleLedger, NullMeter};
    use lac_rand::{prop, Rng};

    #[test]
    fn reduces_correctly() {
        let unit = ModQ::new();
        for x in [0u32, 1, 250, 251, 502, 65535, u32::MAX] {
            assert_eq!(u32::from(unit.reduce(x, &mut NullMeter)), x % 251);
        }
    }

    #[test]
    fn constant_two_cycles_per_reduce() {
        let unit = ModQ::new();
        let mut a = CycleLedger::new();
        unit.reduce(0, &mut a);
        let mut b = CycleLedger::new();
        unit.reduce(u32::MAX, &mut b);
        assert_eq!(a.total(), b.total());
        assert_eq!(a.total(), 2); // 1 issue (Alu) + 1 datapath cycle
    }

    #[test]
    fn much_cheaper_than_software_division() {
        // The software modulo costs a Div (35 cycles) on RISCY.
        let unit = ModQ::new();
        let mut l = CycleLedger::new();
        unit.reduce(12345, &mut l);
        assert!(l.total() < lac_meter::Op::Div.cost());
    }

    #[test]
    fn resources_match_table_iii() {
        let r = ModQ::new().resources();
        assert_eq!((r.luts, r.regs, r.brams, r.dsps), (35, 0, 0, 2));
    }

    #[test]
    fn prop_matches_modulo() {
        prop::check("mod_q_matches_modulo", 256, |rng| {
            let x = rng.next_u32();
            prop::ensure_eq(u32::from(ModQ::new().reduce(x, &mut NullMeter)), x % 251)
        });
    }
}
