//! The loosely-coupled NTT accelerator of reference \[8\].
//!
//! Unlike the paper's tightly-coupled PQ-ALU, \[8\] attaches its NTT engine
//! as a bus co-processor: every transform pays a full operand transfer in
//! each direction on top of the pipelined butterfly computation. \[8\]
//! reports 24,609 cycles per NTT operation at n = 1024 — reproduced here
//! as ~9 bus cycles per word each way plus one butterfly per cycle — and
//! Table III quotes its area at 886 LUTs, 618 registers, 1 BRAM and
//! 26 DSPs.

use crate::ntt::Ntt;
use lac_hw::area::{ResourceEstimate, NTT_ACCELERATOR_REF8};
use lac_meter::Meter;

/// Bus cycles per 32-bit word transferred to/from the co-processor.
pub const BUS_CYCLES_PER_WORD: u64 = 9;

/// Fixed per-invocation control overhead (descriptor setup, start, poll).
pub const SETUP_CYCLES: u64 = 700;

/// Cycle model of the \[8\]-style NTT co-processor.
#[derive(Debug, Clone, Copy, Default)]
pub struct NttUnit;

impl NttUnit {
    /// Create a unit.
    pub fn new() -> Self {
        Self
    }

    /// Resource estimate (Table III's quoted \[8\] synthesis).
    pub fn resources(&self) -> ResourceEstimate {
        NTT_ACCELERATOR_REF8
    }

    fn charge<M: Meter + ?Sized>(&self, n: usize, meter: &mut M) {
        let words = n as u64; // one 14-bit coefficient per word transfer
        let compute = (n / 2) as u64 * u64::from(n.trailing_zeros());
        meter.charge_cycles(2 * words * BUS_CYCLES_PER_WORD + compute + SETUP_CYCLES);
    }

    /// Forward NTT through the co-processor.
    pub fn forward<M: Meter + ?Sized>(&self, ntt: &Ntt, poly: &[u16], meter: &mut M) -> Vec<u16> {
        self.charge(ntt.n(), meter);
        ntt.forward(poly, &mut lac_meter::NullMeter)
    }

    /// Inverse NTT through the co-processor.
    pub fn inverse<M: Meter + ?Sized>(&self, ntt: &Ntt, values: &[u16], meter: &mut M) -> Vec<u16> {
        self.charge(ntt.n(), meter);
        ntt.inverse(values, &mut lac_meter::NullMeter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lac_meter::{CycleLedger, NullMeter};

    #[test]
    fn per_ntt_cost_matches_ref8() {
        // [8]: 24,609 cycles per NTT operation at n = 1024.
        let ntt = Ntt::new(1024);
        let poly = vec![1u16; 1024];
        let unit = NttUnit::new();
        let mut l = CycleLedger::new();
        unit.forward(&ntt, &poly, &mut l);
        assert!(
            (22_000..27_000).contains(&l.total()),
            "{} (paper [8]: 24,609)",
            l.total()
        );
    }

    #[test]
    fn results_match_direct_ntt() {
        let ntt = Ntt::new(64);
        let poly: Vec<u16> = (0..64u32).map(|i| (i * 191 % 12289) as u16).collect();
        let unit = NttUnit::new();
        let via_unit = unit.forward(&ntt, &poly, &mut NullMeter);
        assert_eq!(via_unit, ntt.forward(&poly, &mut NullMeter));
        assert_eq!(unit.inverse(&ntt, &via_unit, &mut NullMeter), poly);
    }

    #[test]
    fn resources_are_quoted_ref8_numbers() {
        let r = NttUnit::new().resources();
        assert_eq!((r.luts, r.regs, r.brams, r.dsps), (886, 618, 1, 26));
    }
}
