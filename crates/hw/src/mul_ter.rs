//! The ternary polynomial multiplier *MUL TER* (Fig. 2).
//!
//! A length-n array of Modular Arithmetic Units (MAUs). The Control Unit
//! serializes the ternary coefficients a₀ … a_{n−1}, one per clock cycle;
//! each MAU adds, subtracts or forwards its running coefficient depending on
//! the serialized value (±1/0), and the feedback path from the rightmost MAU
//! performs the wrap-around — negated for the negative wrapped convolution
//! via the `sel` multiplexers (active once the cycle counter passes
//! n−1−cntr).
//!
//! The model simulates one architectural cycle per serialized coefficient
//! (n compute cycles total) and charges the Section V register I/O protocol:
//! five 8-bit general coefficients and five 2-bit ternary coefficients per
//! `pq.mul_ter` write (packed across rs1/rs2), four 8-bit result
//! coefficients per read.

use crate::area::{
    ResourceEstimate, MAU_LUTS, MAU_REGS, MUL_TER_CONTROL_LUTS, MUL_TER_CONTROL_REGS,
};
use crate::UnitStats;
use lac_meter::{Meter, Op, Phase};
use lac_ring::split::TernaryMulUnit;
use lac_ring::{Convolution, Poly, TernaryPoly, Q};

/// Coefficient pairs transferred per `pq.mul_ter` input instruction
/// (Section V: five general + five ternary coefficients across rs1/rs2).
pub const COEFFS_PER_WRITE: usize = 5;

/// Result coefficients returned per `pq.mul_ter` output instruction.
pub const COEFFS_PER_READ: usize = 4;

/// Datapath cycles of one length-`n` product: one architectural cycle per
/// serialized coefficient, plus the start/drain overhead of the control
/// FSM.
pub fn compute_cycles(n: usize) -> u64 {
    n as u64 + 2
}

/// Cycle-accurate model of the MUL TER unit.
///
/// # Example
///
/// ```
/// use lac_hw::MulTer;
/// use lac_meter::NullMeter;
/// use lac_ring::{Convolution, Poly, TernaryPoly};
///
/// let mut unit = MulTer::new(8);
/// let a = TernaryPoly::from_coeffs(vec![1, 0, -1, 0, 0, 0, 0, 0]);
/// let b = Poly::from_coeffs(vec![1, 2, 3, 4, 5, 6, 7, 8]);
/// let c = unit.multiply(&a, &b, Convolution::Negacyclic, &mut NullMeter);
/// assert_eq!(c.coeffs().len(), 8);
/// ```
#[derive(Debug, Clone)]
pub struct MulTer {
    n: usize,
    stats: UnitStats,
}

impl MulTer {
    /// Create a unit for length-`n` polynomials (the paper uses n = 512).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or odd (the array is built from coefficient
    /// pairs and the splitting algorithms require even lengths).
    pub fn new(n: usize) -> Self {
        assert!(n > 0 && n % 2 == 0, "unit length must be positive and even");
        Self {
            n,
            stats: UnitStats::default(),
        }
    }

    /// The unit's polynomial length.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Always false; the unit has a fixed nonzero length.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Usage statistics.
    pub fn stats(&self) -> UnitStats {
        self.stats
    }

    /// Structural resource estimate: n MAUs plus the serializing control.
    pub fn resources(&self) -> ResourceEstimate {
        ResourceEstimate {
            luts: self.n as u32 * MAU_LUTS + MUL_TER_CONTROL_LUTS,
            regs: self.n as u32 * MAU_REGS + MUL_TER_CONTROL_REGS,
            brams: 0,
            dsps: 0,
        }
    }

    /// One MAU operation: add / subtract / forward mod q, selected by the
    /// serialized ternary coefficient.
    #[inline]
    fn mau(c: u8, b: u8, a: i8) -> u8 {
        match a {
            1 => {
                let s = u16::from(c) + u16::from(b);
                (if s >= Q { s - Q } else { s }) as u8
            }
            -1 => {
                let d = i16::from(c) - i16::from(b);
                (if d < 0 { d + Q as i16 } else { d }) as u8
            }
            _ => c,
        }
    }

    /// Multiply `a · b mod (xⁿ ∓ 1)` on the unit, charging the full
    /// software-visible cost (input packing, n compute cycles, output
    /// unpacking) to `meter` under [`Phase::Mul`].
    ///
    /// # Panics
    ///
    /// Panics if the operand lengths differ from the unit length.
    pub fn multiply<M: Meter>(
        &mut self,
        a: &TernaryPoly,
        b: &Poly,
        conv: Convolution,
        meter: &mut M,
    ) -> Poly {
        assert_eq!(a.len(), self.n, "a length != unit length");
        assert_eq!(b.len(), self.n, "b length != unit length");
        let n = self.n;
        meter.enter(Phase::Mul);

        // ---- Input phase: ceil(n/5) pq.mul_ter writes. Per write, the
        // driver packs five 8-bit general and five 2-bit ternary
        // coefficients into rs1/rs2 (loads + shifts) and issues the custom
        // instruction.
        let writes = n.div_ceil(COEFFS_PER_WRITE) as u64;
        meter.charge(Op::Load, writes * 2 * COEFFS_PER_WRITE as u64);
        meter.charge(Op::Alu, writes * 12); // shift/or packing for both registers
        meter.charge(Op::Alu, writes); // the pq.mul_ter issue itself
        meter.charge(Op::LoopIter, writes);

        // ---- Compute phase: the Control Unit serializes a₀…a_{n−1}, one
        // per cycle. At the cycle with counter value `cntr`, the running
        // result held in the register chain corresponds to the partial
        // products of a₀…a_cntr; coefficients that wrap past xⁿ are negated
        // when the `sel` multiplexers engage (negative convolution).
        //
        // Architecturally this is: c += a_k · (b rotated by k), with the
        // wrapped part of the rotation sign-adjusted — one column of Eq. (1)
        // per clock.
        let mut c = vec![0u8; n];
        for (k, &ak) in a.coeffs().iter().enumerate() {
            if ak != 0 {
                for (i, ci) in c.iter_mut().enumerate() {
                    // b coefficient feeding MAU i at serialization step k.
                    let (bj, wrapped) = if i >= k {
                        (b.coeffs()[i - k], false)
                    } else {
                        (b.coeffs()[n + i - k], true)
                    };
                    // sel mux: negate the serialized coefficient for the
                    // wrapped taps under negative convolution.
                    let eff = if wrapped && conv == Convolution::Negacyclic {
                        -ak
                    } else {
                        ak
                    };
                    *ci = Self::mau(*ci, bj, eff);
                }
            }
        }
        meter.charge_cycles(compute_cycles(n));
        self.stats.record(compute_cycles(n));

        // ---- Output phase: ceil(n/4) pq.mul_ter reads; per read the driver
        // issues the instruction, splits rd into four bytes and stores them.
        let reads = n.div_ceil(COEFFS_PER_READ) as u64;
        meter.charge(Op::Alu, reads * (1 + 3)); // issue + unpack shifts
        meter.charge(Op::Store, reads * COEFFS_PER_READ as u64);
        meter.charge(Op::LoopIter, reads);

        meter.leave();
        Poly::from_coeffs(c)
    }
}

impl MulTer {
    /// Register-transfer-level simulation of Fig. 2's datapath, for
    /// cross-validation of [`MulTer::multiply`]'s algebraic model.
    ///
    /// Steps the actual hardware structure cycle by cycle: per clock, the
    /// Control Unit broadcasts the serialized coefficient a_cntr to all n
    /// MAUs (through the `sel` multiplexers, which negate it for MAU
    /// indices `i > n−1−cntr` under the negative convolution — the wrap
    /// compensation), every MAU adds/subtracts/forwards its `b` tap into
    /// its result register, and the register chain rotates one position
    /// with the rightmost-MAU feedback closing the ring.
    ///
    /// Charges nothing; use [`MulTer::multiply`] for metered runs. Both
    /// methods produce identical results (asserted by tests and usable as
    /// an equivalence check in downstream code).
    ///
    /// # Panics
    ///
    /// Panics if the operand lengths differ from the unit length.
    pub fn multiply_rtl(&self, a: &TernaryPoly, b: &Poly, conv: Convolution) -> Poly {
        assert_eq!(a.len(), self.n, "a length != unit length");
        assert_eq!(b.len(), self.n, "b length != unit length");
        let n = self.n;
        let mut c = vec![0u8; n];
        for (cntr, &ak) in a.coeffs().iter().enumerate() {
            // Phase 1: all n MAUs operate in parallel on the broadcast
            // coefficient (sel mux decides the sign per MAU).
            for (i, ci) in c.iter_mut().enumerate() {
                let eff = if conv == Convolution::Negacyclic && i > n - 1 - cntr {
                    -ak
                } else {
                    ak
                };
                *ci = Self::mau(*ci, b.coeffs()[i], eff);
            }
            // Phase 2: the register chain rotates; the feedback loop from
            // the rightmost MAU re-injects c₀ at c_{n−1} (the ring wrap).
            c.rotate_left(1);
        }
        Poly::from_coeffs(c)
    }
}

impl TernaryMulUnit for MulTer {
    fn unit_len(&self) -> usize {
        self.n
    }

    fn mul_unit(
        &mut self,
        a: &TernaryPoly,
        b: &Poly,
        conv: Convolution,
        mut meter: &mut dyn Meter,
    ) -> Poly {
        self.multiply(a, b, conv, &mut meter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lac_meter::{CycleLedger, NullMeter};
    use lac_rand::prop;
    use lac_ring::mul::mul_ternary;
    use lac_ring::split::split_mul_high;

    #[test]
    fn matches_software_multiplication_small() {
        let mut unit = MulTer::new(8);
        let a = TernaryPoly::from_coeffs(vec![1, -1, 0, 1, 0, 0, -1, 1]);
        let b = Poly::from_coeffs(vec![3, 1, 4, 1, 5, 9, 2, 6]);
        for conv in [Convolution::Cyclic, Convolution::Negacyclic] {
            let hw = unit.multiply(&a, &b, conv, &mut NullMeter);
            let sw = mul_ternary(&a, &b, conv, &mut NullMeter);
            assert_eq!(hw, sw, "{conv:?}");
        }
    }

    #[test]
    fn matches_software_multiplication_n512() {
        let mut unit = MulTer::new(512);
        let coeffs: Vec<i8> = (0..512)
            .map(|i| [1i8, 0, -1, 0, 0, 1, -1, 0][i % 8])
            .collect();
        let a = TernaryPoly::from_coeffs(coeffs);
        let b = Poly::from_coeffs((0..512u32).map(|i| (i * 7 % 251) as u8).collect());
        let hw = unit.multiply(&a, &b, Convolution::Negacyclic, &mut NullMeter);
        let sw = mul_ternary(&a, &b, Convolution::Negacyclic, &mut NullMeter);
        assert_eq!(hw, sw);
    }

    #[test]
    fn cycle_cost_matches_paper_n512() {
        // Table II: the optimized multiplication for n = 512 costs 6,390
        // cycles. Our model (I/O packing + 512 compute cycles) must land
        // within ~15%.
        let mut unit = MulTer::new(512);
        let a = TernaryPoly::zero(512);
        let b = Poly::zero(512);
        let mut l = CycleLedger::new();
        unit.multiply(&a, &b, Convolution::Negacyclic, &mut l);
        let total = l.total();
        assert!(
            (5_400..7_400).contains(&total),
            "n=512 HW mul cost {total} (paper: 6,390)"
        );
    }

    #[test]
    fn split_1024_on_512_unit_cycle_cost() {
        // Table II: optimized n = 1024 multiplication costs 151,354 cycles
        // (16 unit invocations + software recombination).
        let mut unit = MulTer::new(512);
        let a = TernaryPoly::zero(1024);
        let b = Poly::zero(1024);
        let mut l = CycleLedger::new();
        split_mul_high(&mut unit, &a, &b, Convolution::Negacyclic, &mut l);
        let total = l.total();
        assert!(
            (120_000..185_000).contains(&total),
            "n=1024 split mul cost {total} (paper: 151,354)"
        );
        assert_eq!(unit.stats().invocations, 16);
    }

    #[test]
    fn split_1024_on_512_unit_is_correct() {
        let mut unit = MulTer::new(512);
        let coeffs: Vec<i8> = (0..1024).map(|i| [0i8, -1, 1, 0][i % 4]).collect();
        let a = TernaryPoly::from_coeffs(coeffs);
        let b = Poly::from_coeffs((0..1024u32).map(|i| (i * 13 % 251) as u8).collect());
        let hw = split_mul_high(&mut unit, &a, &b, Convolution::Negacyclic, &mut NullMeter);
        let sw = mul_ternary(&a, &b, Convolution::Negacyclic, &mut NullMeter);
        assert_eq!(hw, sw);
    }

    #[test]
    fn hw_is_much_faster_than_software_model() {
        // The headline of the paper's multiplication column: ~372x for n=512.
        let mut unit = MulTer::new(512);
        let a = TernaryPoly::zero(512);
        let b = Poly::zero(512);
        let mut hw = CycleLedger::new();
        unit.multiply(&a, &b, Convolution::Negacyclic, &mut hw);
        let mut sw = CycleLedger::new();
        mul_ternary(&a, &b, Convolution::Negacyclic, &mut sw);
        let speedup = sw.total() as f64 / hw.total() as f64;
        assert!(
            (250.0..500.0).contains(&speedup),
            "speedup {speedup} (paper: ~372x)"
        );
    }

    #[test]
    fn resources_match_table_iii() {
        let unit = MulTer::new(512);
        let r = unit.resources();
        // Paper: 31,465 LUTs and 9,305 registers.
        assert!(
            (30_000..33_000).contains(&r.luts),
            "{} LUTs (paper: 31,465)",
            r.luts
        );
        assert!(
            (8_800..9_800).contains(&r.regs),
            "{} regs (paper: 9,305)",
            r.regs
        );
        assert_eq!(r.brams, 0);
        assert_eq!(r.dsps, 0);
    }

    #[test]
    fn stats_accumulate() {
        let mut unit = MulTer::new(8);
        let a = TernaryPoly::zero(8);
        let b = Poly::zero(8);
        unit.multiply(&a, &b, Convolution::Cyclic, &mut NullMeter);
        unit.multiply(&a, &b, Convolution::Cyclic, &mut NullMeter);
        assert_eq!(unit.stats().invocations, 2);
        assert_eq!(unit.stats().busy_cycles, 2 * (8 + 2));
    }

    #[test]
    #[should_panic(expected = "unit length")]
    fn length_mismatch_rejected() {
        let mut unit = MulTer::new(8);
        let a = TernaryPoly::zero(4);
        let b = Poly::zero(8);
        unit.multiply(&a, &b, Convolution::Cyclic, &mut NullMeter);
    }

    #[test]
    #[should_panic(expected = "positive and even")]
    fn odd_length_rejected() {
        MulTer::new(7);
    }

    #[test]
    fn rtl_simulation_matches_algebraic_model_n512() {
        let mut unit = MulTer::new(512);
        let coeffs: Vec<i8> = (0..512)
            .map(|i| [1i8, -1, 0, 0, 1, 0, -1, 1][i % 8])
            .collect();
        let a = TernaryPoly::from_coeffs(coeffs);
        let b = Poly::from_coeffs((0..512u32).map(|i| (i * 29 % 251) as u8).collect());
        for conv in [Convolution::Cyclic, Convolution::Negacyclic] {
            assert_eq!(
                unit.multiply_rtl(&a, &b, conv),
                unit.multiply(&a, &b, conv, &mut NullMeter),
                "{conv:?}"
            );
        }
    }

    #[test]
    fn rtl_simulation_matches_reference_small() {
        let unit = MulTer::new(8);
        let a = TernaryPoly::from_coeffs(vec![0, 1, -1, 1, 0, 0, -1, 1]);
        let b = Poly::from_coeffs(vec![250, 1, 100, 3, 77, 0, 9, 200]);
        for conv in [Convolution::Cyclic, Convolution::Negacyclic] {
            assert_eq!(
                unit.multiply_rtl(&a, &b, conv),
                mul_ternary(&a, &b, conv, &mut NullMeter),
                "{conv:?}"
            );
        }
    }

    #[test]
    fn prop_matches_software() {
        prop::check("mul_ter_matches_software", 48, |rng| {
            let mut unit = MulTer::new(16);
            let a = TernaryPoly::from_coeffs(prop::vec_i8(rng, 16, -1, 1));
            let b = Poly::from_coeffs(prop::vec_u8(rng, 16, 251));
            for conv in [Convolution::Cyclic, Convolution::Negacyclic] {
                prop::ensure_eq(
                    unit.multiply(&a, &b, conv, &mut NullMeter),
                    mul_ternary(&a, &b, conv, &mut NullMeter),
                )?;
            }
            Ok(())
        });
    }

    #[test]
    fn prop_rtl_matches_algebraic() {
        prop::check("mul_ter_rtl_matches_algebraic", 48, |rng| {
            let mut unit = MulTer::new(16);
            let a = TernaryPoly::from_coeffs(prop::vec_i8(rng, 16, -1, 1));
            let b = Poly::from_coeffs(prop::vec_u8(rng, 16, 251));
            for conv in [Convolution::Cyclic, Convolution::Negacyclic] {
                prop::ensure_eq(
                    unit.multiply_rtl(&a, &b, conv),
                    unit.multiply(&a, &b, conv, &mut NullMeter),
                )?;
            }
            Ok(())
        });
    }
}
