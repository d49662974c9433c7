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
//! [`MulTer::multiply`] charges one architectural cycle per serialized
//! coefficient (n compute cycles total) and the Section V register I/O
//! protocol: five 8-bit general coefficients and five 2-bit ternary
//! coefficients per `pq.mul_ter` write (packed across rs1/rs2), four 8-bit
//! result coefficients per read. [`MulTer::ring_product`] is the one
//! place that decides how a product in R_n runs on the unit: directly when
//! n is the unit length, through the paper's Algorithms 1–2 when n is
//! twice it, and not at all otherwise. Both take the product's value from
//! one `lac_ring::mul::ternary_product` call and charge their modelled
//! loops in closed form; [`MulTer::multiply_rtl`] steps the datapath
//! cycle by cycle and is the reference the tests check the unit product
//! against, and `lac_ring::split`'s tests hold the executable
//! Algorithms 1–2.

use crate::area::{
    ResourceEstimate, MAU_LUTS, MAU_REGS, MUL_TER_CONTROL_LUTS, MUL_TER_CONTROL_REGS,
};
use lac_meter::{Meter, Op, Phase};
use lac_ring::mul::ternary_product;
use lac_ring::split::{charge_recombination, UNIT_PRODUCTS};
use lac_ring::{add_mod, sub_mod, Convolution, Poly, TernaryPoly};

/// The paper's unit length: §IV-A picks a length-512 array as the
/// trade-off between speed and area. LAC-128 products run on it directly
/// and LAC-192/256 products through Algorithms 1–2.
pub const PAPER_LEN: usize = 512;

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
/// let unit = MulTer::new(8);
/// let a = TernaryPoly::from_coeffs(vec![1, 0, -1, 0, 0, 0, 0, 0]);
/// let b = Poly::from_coeffs(vec![1, 2, 3, 4, 5, 6, 7, 8]);
/// let c = unit.multiply(&a, &b, Convolution::Negacyclic, &mut NullMeter);
/// assert_eq!(c.coeffs().len(), 8);
/// // A product in R_16 runs on the length-8 unit through Algorithms 1–2.
/// let a16 = TernaryPoly::zero(16);
/// let b16 = Poly::zero(16);
/// let c16 = unit.ring_product(&a16, &b16, Convolution::Negacyclic, 16, &mut NullMeter);
/// assert_eq!(c16.map(|c| c.len()), Some(16));
/// ```
#[derive(Debug, Clone)]
pub struct MulTer {
    n: usize,
}

impl MulTer {
    /// Create a unit for length-`n` polynomials (the paper's: [`PAPER_LEN`]).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or odd (the array is built from coefficient
    /// pairs and the splitting algorithms require even lengths).
    pub fn new(n: usize) -> Self {
        assert!(n > 0 && n % 2 == 0, "unit length must be positive and even");
        Self { n }
    }

    /// The unit's polynomial length.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Always false; the unit has a fixed nonzero length.
    pub fn is_empty(&self) -> bool {
        false
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

    /// Multiply `a · b mod (xⁿ ∓ 1)` on the unit, charging the full
    /// software-visible cost (input packing, n compute cycles, output
    /// unpacking) to `meter` under [`Phase::Mul`]. An operand shorter than
    /// the unit is zero-extended to it and charged as a unit-length
    /// product.
    ///
    /// The value comes from [`ternary_product`], the one product kernel,
    /// called inside [`Phase::Mul`] too, so a meter that times phases books
    /// the host's product there; [`MulTer::multiply_rtl`] steps the
    /// datapath that computes it.
    ///
    /// # Panics
    ///
    /// Panics if an operand is longer than the unit.
    pub fn multiply<M: Meter>(
        &self,
        a: &TernaryPoly,
        b: &Poly,
        conv: Convolution,
        meter: &mut M,
    ) -> Poly {
        meter.enter(Phase::Mul);
        let c = ternary_product(a, b, self.n, conv, self.n);
        self.charge_products(1, meter);
        meter.leave();
        c
    }

    /// The first `out_len` coefficients of `a · b` in R_n, n = `a.len()`
    /// (b is zero-extended to n), computed on this length-u unit: `None`
    /// unless n is u or 2u, because the unit only reduces by x^u ∓ 1 and
    /// zero-padding to a longer unit would change the ring.
    ///
    /// At n = u the charge is one [`MulTer::multiply`]; at n = 2u it is
    /// the paper's Algorithms 1–2: [`UNIT_PRODUCTS`] unit products plus
    /// the recombination loops, in closed form
    /// ([`charge_recombination`]). The charge depends on u and n alone —
    /// not on `out_len`, because the unit always reads out whole products
    /// — and the value is one [`ternary_product`] call inside
    /// [`Phase::Mul`], so a caller that keeps only a prefix computes only
    /// that prefix.
    ///
    /// # Panics
    ///
    /// Panics if b is longer than a or `out_len` exceeds n.
    pub fn ring_product<M: Meter>(
        &self,
        a: &TernaryPoly,
        b: &Poly,
        conv: Convolution,
        out_len: usize,
        meter: &mut M,
    ) -> Option<Poly> {
        let (u, n) = (self.n, a.len());
        if n != u && n != 2 * u {
            return None;
        }
        meter.enter(Phase::Mul);
        let c = ternary_product(a, b, n, conv, out_len);
        if n == u {
            self.charge_products(1, meter);
        } else {
            self.charge_products(UNIT_PRODUCTS, meter);
            charge_recombination(u, meter);
        }
        meter.leave();
        Some(c)
    }

    /// Charge `count` unit products inside the caller's [`Phase::Mul`]:
    /// per product, ⌈n/5⌉ `pq.mul_ter` writes (the software packs five
    /// 8-bit general and five 2-bit ternary coefficients into rs1/rs2 with
    /// loads and shifts, then executes the instruction), n + 2 datapath
    /// cycles (the Control Unit serializes a₀…a_{n−1}, one per cycle,
    /// whatever their values) and ⌈n/4⌉ reads (execute, split rd into four
    /// bytes, store them).
    fn charge_products<M: Meter>(&self, count: u64, meter: &mut M) {
        let writes = count * self.n.div_ceil(COEFFS_PER_WRITE) as u64;
        let reads = count * self.n.div_ceil(COEFFS_PER_READ) as u64;
        meter.charge(Op::Load, writes * 2 * COEFFS_PER_WRITE as u64);
        meter.charge(Op::Alu, writes * 12); // shift/or packing for both registers
        meter.charge(Op::Alu, writes); // the pq.mul_ter issue itself
        meter.charge(Op::LoopIter, writes);
        meter.charge_cycles(count * compute_cycles(self.n));
        meter.charge(Op::Alu, reads * (1 + 3)); // issue + unpack shifts
        meter.charge(Op::Store, reads * COEFFS_PER_READ as u64);
        meter.charge(Op::LoopIter, reads);
    }
}

impl MulTer {
    /// One MAU operation: add / subtract / forward mod q, selected by the
    /// serialized ternary coefficient.
    #[inline]
    fn mau(c: u8, b: u8, a: i8) -> u8 {
        match a {
            1 => add_mod(c, b),
            -1 => sub_mod(c, b),
            _ => c,
        }
    }

    /// Register-transfer-level simulation of Fig. 2's datapath, for
    /// cross-validation of [`MulTer::multiply`]'s value.
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

#[cfg(test)]
mod tests {
    use super::*;
    use lac_meter::{CycleLedger, NullMeter};
    use lac_rand::{prop, Rng};
    use lac_ring::mul::{mul_full, mul_ternary, reduce_full};

    /// The product in R_n by the reference that shares no code with the
    /// product kernel.
    fn reference(a: &TernaryPoly, b: &Poly, n: usize, conv: Convolution) -> Poly {
        reduce_full(&mul_full(a, b), n, conv)
    }

    /// The unit's datapath cycles: what `l` holds beyond its op charges.
    fn datapath_cycles(l: &CycleLedger) -> u64 {
        l.total()
            - Op::ALL
                .iter()
                .map(|&op| l.op_count(op) * op.cost())
                .sum::<u64>()
    }

    #[test]
    fn matches_software_multiplication_small() {
        let unit = MulTer::new(8);
        let a = TernaryPoly::from_coeffs(vec![1, -1, 0, 1, 0, 0, -1, 1]);
        let b = Poly::from_coeffs(vec![3, 1, 4, 1, 5, 9, 2, 6]);
        for conv in [Convolution::Cyclic, Convolution::Negacyclic] {
            let hw = unit.multiply(&a, &b, conv, &mut NullMeter);
            assert_eq!(hw, reference(&a, &b, 8, conv), "{conv:?}");
        }
    }

    #[test]
    fn matches_software_multiplication_n512() {
        let unit = MulTer::new(512);
        let coeffs: Vec<i8> = (0..512)
            .map(|i| [1i8, 0, -1, 0, 0, 1, -1, 0][i % 8])
            .collect();
        let a = TernaryPoly::from_coeffs(coeffs);
        let b = Poly::from_coeffs((0..512u32).map(|i| (i * 7 % 251) as u8).collect());
        let hw = unit.multiply(&a, &b, Convolution::Negacyclic, &mut NullMeter);
        assert_eq!(hw, reference(&a, &b, 512, Convolution::Negacyclic));
    }

    #[test]
    fn cycle_cost_matches_paper_n512() {
        // Table II: the optimized multiplication for n = 512 costs 6,390
        // cycles. Our model (I/O packing + 512 compute cycles) must land
        // within ~15%.
        let unit = MulTer::new(512);
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
        let unit = MulTer::new(512);
        let a = TernaryPoly::zero(1024);
        let b = Poly::zero(1024);
        let mut l = CycleLedger::new();
        unit.ring_product(&a, &b, Convolution::Negacyclic, 1024, &mut l)
            .unwrap();
        let total = l.total();
        assert!(
            (120_000..185_000).contains(&total),
            "n=1024 split mul cost {total} (paper: 151,354)"
        );
        assert_eq!(datapath_cycles(&l), 16 * compute_cycles(512));
    }

    #[test]
    fn split_1024_on_512_unit_is_correct() {
        let unit = MulTer::new(512);
        let coeffs: Vec<i8> = (0..1024).map(|i| [0i8, -1, 1, 0][i % 4]).collect();
        let a = TernaryPoly::from_coeffs(coeffs);
        let b = Poly::from_coeffs((0..1024u32).map(|i| (i * 13 % 251) as u8).collect());
        let hw = unit.ring_product(&a, &b, Convolution::Negacyclic, 1024, &mut NullMeter);
        assert_eq!(hw, Some(reference(&a, &b, 1024, Convolution::Negacyclic)));
    }

    /// What Algorithms 1–2 charge for one length-2u product: 16 unit
    /// products at u plus the closed-form recombination.
    fn split_charge(u: usize) -> CycleLedger {
        let unit = MulTer::new(u);
        let (a, b) = (TernaryPoly::zero(u), Poly::zero(u));
        let mut expect = CycleLedger::new();
        for _ in 0..16 {
            unit.multiply(&a, &b, Convolution::Cyclic, &mut expect);
        }
        charge_recombination(u, &mut expect);
        expect
    }

    #[test]
    fn ring_product_values_and_charges_at_2u() {
        // Both convolutions, u ∈ {8, 16, 512}, out_len ∈ {1, odd, n}: the
        // value is the prefix of the product in R_2u, and the charge is
        // the whole product's, op by op and phase by phase.
        let mut rng = lac_rand::Sha256CtrRng::seed_from_u64(28);
        for u in [8, 16, 512] {
            let (unit, n) = (MulTer::new(u), 2 * u);
            let a = TernaryPoly::from_coeffs(prop::vec_i8(&mut rng, n, -1, 1));
            let b = Poly::from_coeffs(prop::vec_u8(&mut rng, n, 251));
            for conv in [Convolution::Cyclic, Convolution::Negacyclic] {
                let expect = reference(&a, &b, n, conv);
                for out_len in [1, u + 1, n] {
                    let mut cost = CycleLedger::new();
                    let got = unit.ring_product(&a, &b, conv, out_len, &mut cost).unwrap();
                    assert_eq!(got.coeffs(), &expect.coeffs()[..out_len], "u={u} {conv:?}");
                    assert_eq!(cost, split_charge(u), "u={u} out_len={out_len}");
                }
            }
        }
    }

    #[test]
    fn ring_product_at_u_is_one_unit_product() {
        let unit = MulTer::new(16);
        let a = TernaryPoly::from_coeffs((0..16).map(|i| [1i8, 0, -1][i % 3]).collect());
        let b = Poly::from_coeffs((0..16u8).map(|i| i * 15 % 251).collect());
        for conv in [Convolution::Cyclic, Convolution::Negacyclic] {
            let mut full = CycleLedger::new();
            let product = unit.multiply(&a, &b, conv, &mut full);
            assert_eq!(product, reference(&a, &b, 16, conv));
            for out_len in [1, 7, 16] {
                let mut cost = CycleLedger::new();
                let got = unit.ring_product(&a, &b, conv, out_len, &mut cost);
                assert_eq!(got.unwrap().coeffs(), &product.coeffs()[..out_len]);
                assert_eq!(cost, full, "out_len={out_len}");
            }
        }
    }

    #[test]
    fn ring_product_rejects_other_dimensions() {
        let unit = MulTer::new(16);
        for n in [8, 24, 64] {
            let mut cost = CycleLedger::new();
            let (a, b) = (TernaryPoly::zero(n), Poly::zero(n));
            let got = unit.ring_product(&a, &b, Convolution::Negacyclic, n, &mut cost);
            assert_eq!(got, None, "n={n}");
            assert_eq!(cost, CycleLedger::new(), "n={n} charged");
        }
    }

    #[test]
    fn hw_is_much_faster_than_software_model() {
        // The headline of the paper's multiplication column: ~372x for n=512.
        let unit = MulTer::new(512);
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
    fn datapath_cycles_accumulate() {
        let unit = MulTer::new(8);
        let a = TernaryPoly::zero(8);
        let b = Poly::zero(8);
        let mut l = CycleLedger::new();
        unit.multiply(&a, &b, Convolution::Cyclic, &mut l);
        unit.multiply(&a, &b, Convolution::Cyclic, &mut l);
        assert_eq!(datapath_cycles(&l), 2 * (8 + 2));
    }

    #[test]
    #[should_panic(expected = "operand longer than")]
    fn longer_than_unit_rejected() {
        let unit = MulTer::new(8);
        let a = TernaryPoly::zero(8);
        let b = Poly::zero(10);
        unit.multiply(&a, &b, Convolution::Cyclic, &mut NullMeter);
    }

    #[test]
    #[should_panic(expected = "positive and even")]
    fn odd_length_rejected() {
        MulTer::new(7);
    }

    #[test]
    fn rtl_simulation_matches_algebraic_model_n512() {
        let unit = MulTer::new(512);
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
        // Operands up to the unit's length: a shorter one is zero-extended
        // and still charged as a full product.
        let mut full_cost = CycleLedger::new();
        let zero = (TernaryPoly::zero(16), Poly::zero(16));
        MulTer::new(16).multiply(&zero.0, &zero.1, Convolution::Cyclic, &mut full_cost);
        prop::check("mul_ter_matches_software", 48, |rng| {
            let unit = MulTer::new(16);
            let la = rng.gen_range_usize(1..17);
            let lb = rng.gen_range_usize(1..17);
            let a = TernaryPoly::from_coeffs(prop::vec_i8(rng, la, -1, 1));
            let b = Poly::from_coeffs(prop::vec_u8(rng, lb, 251));
            for conv in [Convolution::Cyclic, Convolution::Negacyclic] {
                let mut cost = CycleLedger::new();
                prop::ensure_eq(
                    unit.multiply(&a, &b, conv, &mut cost),
                    reference(&a, &b, 16, conv),
                )?;
                prop::ensure_eq(&cost, &full_cost)?;
            }
            Ok(())
        });
    }

    #[test]
    fn prop_rtl_matches_algebraic() {
        prop::check("mul_ter_rtl_matches_algebraic", 48, |rng| {
            let unit = MulTer::new(16);
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
