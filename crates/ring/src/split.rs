//! The paper's software polynomial splitting (Algorithms 1 and 2), as a
//! cost.
//!
//! The *MUL TER* hardware unit has a fixed length u (512 for the paper's
//! chosen trade-off) and only reduces by x^u ± 1. To multiply the
//! length-1024 polynomials of LAC-192/256 on it, the paper splits twice:
//!
//! * Algorithm 2 multiplies two length-u polynomials *without* ring
//!   reduction by splitting them into u/2-halves, computing the four
//!   half-products on the length-u unit (zero-padded, so no wrap occurs),
//!   and recombining per Eq. (2);
//! * Algorithm 1 multiplies two length-2u polynomials in R_2u by calling
//!   Algorithm 2 four times and folding the x^u and x^2u terms back with
//!   the ring's wrap sign.
//!
//! Algorithm 1's result is the whole product in R_2u, so its value comes
//! from one `ternary_product` call like every other product; what the
//! split changes is the cost. One length-2u product is [`UNIT_PRODUCTS`]
//! unit products plus the recombination loops that
//! [`charge_recombination`] charges in closed form, from u alone.
//! `lac-hw`'s `MulTer::ring_product` is the one caller that decides
//! whether a product runs directly, split or not at all.
//!
//! The executable Algorithms 1–2 live in this module's tests. They are
//! the reference for both the value (against `mul_full` + `reduce_full`)
//! and the charges (against [`UNIT_PRODUCTS`] unit charges plus
//! [`charge_recombination`]).
//!
//! The paper notes that Karatsuba would save one of the four half-products
//! but needs general × general multiplications the ternary unit cannot do —
//! we follow the paper and use the four-product form.

use lac_meter::{Meter, Op, Phase};

/// Unit products in one length-2u product through Algorithm 1: four
/// Algorithm 2 calls of four half-products each.
pub const UNIT_PRODUCTS: u64 = 16;

/// Charge the recombination loops of one length-2u product through
/// Algorithms 1–2 on a length-u unit, under [`Phase::Mul`]: Algorithm 2's
/// lines 3–7 for each of its four calls, then Algorithm 1's lines 3–12.
///
/// The loops move and add byte-sized coefficients; the charges model the
/// optimized code handling four coefficients per 32-bit word, so each
/// loop over m coefficients is charged ⌈m/2⌉ iterations.
pub fn charge_recombination<M: Meter>(u: usize, meter: &mut M) {
    let w = (u as u64).div_ceil(2);
    let u = u as u64;
    meter.enter(Phase::Mul);
    // Algorithm 2, four calls. Each copies cll (one load, one store), adds
    // clh + chl at x^{u/2} (three loads, four ALU ops, one store) and adds
    // chh at x^u (two loads, two ALU ops, one store), one w-word loop each.
    meter.charge(Op::Load, 4 * (1 + 3 + 2) * w);
    meter.charge(Op::Alu, 4 * (4 + 2) * w);
    meter.charge(Op::Store, 4 * 3 * w);
    meter.charge(Op::LoopIter, 4 * 3 * w);
    // Algorithm 1. Lines 3–6 fold chh·x^2u onto cll over all 2u
    // coefficients (two loads, two ALU ops, one store per word); lines 7–9
    // and 10–12 each add one half of clh + chl (three loads, four ALU ops,
    // one store per word).
    meter.charge(Op::Load, 2 * u + 2 * 3 * w);
    meter.charge(Op::Alu, 2 * u + 2 * 4 * w);
    meter.charge(Op::Store, u + 2 * w);
    meter.charge(Op::LoopIter, u + 2 * w);
    meter.leave();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mul::{mul_full, reduce_full, ternary_product};
    use crate::{add_mod, sub_mod, Convolution, Poly, TernaryPoly};
    use lac_meter::CycleLedger;
    use lac_rand::{prop, Rng, Sha256CtrRng};

    /// Datapath cycles the test unit charges per product.
    const UNIT_CYCLES: u64 = 7;

    /// A length-`.0` multiplier unit that reduces by x^u ∓ 1 and charges a
    /// known amount per call. Its value comes from `mul_full` +
    /// `reduce_full`, which share no code with the product kernel.
    struct TestUnit(usize);

    impl TestUnit {
        /// One unit product's charge: one load and `UNIT_CYCLES` datapath
        /// cycles under `Phase::Mul`.
        fn charge(meter: &mut impl Meter) {
            meter.enter(Phase::Mul);
            meter.charge(Op::Load, 1);
            meter.charge_cycles(UNIT_CYCLES);
            meter.leave();
        }

        /// `a · b mod (x^u ∓ 1)`; operands shorter than u are zero-extended.
        fn mul_unit(
            &self,
            a: &TernaryPoly,
            b: &Poly,
            conv: Convolution,
            meter: &mut impl Meter,
        ) -> Poly {
            assert!(
                a.len() <= self.0 && b.len() <= self.0,
                "operand longer than unit"
            );
            Self::charge(meter);
            reduce_full(&mul_full(a, b), self.0, conv)
        }
    }

    fn ternary_halves(a: &TernaryPoly) -> (TernaryPoly, TernaryPoly) {
        let (lo, hi) = a.coeffs().split_at(a.len() / 2);
        (
            TernaryPoly::from_coeffs(lo.to_vec()),
            TernaryPoly::from_coeffs(hi.to_vec()),
        )
    }

    fn poly_halves(b: &Poly) -> (Poly, Poly) {
        let (lo, hi) = b.coeffs().split_at(b.len() / 2);
        (
            Poly::from_coeffs(lo.to_vec()),
            Poly::from_coeffs(hi.to_vec()),
        )
    }

    /// Algorithm 2 — `split_mul_low`: the full (unreduced) product of two
    /// length-u polynomials on a length-u unit. The unit zero-extends the
    /// u/2-halves to u, so its ring reduction never triggers. The result
    /// has length 2u. Charges as the paper's software does, loop by loop.
    fn split_mul_low(unit: &TestUnit, a: &TernaryPoly, b: &Poly, meter: &mut CycleLedger) -> Poly {
        let u = unit.0;
        assert_eq!((a.len(), b.len()), (u, u), "operand length != unit length");
        let quarter = u / 2;
        let (al, ah) = ternary_halves(a);
        let (bl, bh) = poly_halves(b);

        // Lines 1–2: the four half products on the unit.
        let cll = unit.mul_unit(&al, &bl, Convolution::Cyclic, meter);
        let chh = unit.mul_unit(&ah, &bh, Convolution::Cyclic, meter);
        let clh = unit.mul_unit(&al, &bh, Convolution::Cyclic, meter);
        let chl = unit.mul_unit(&ah, &bl, Convolution::Cyclic, meter);

        // Lines 3–7: c = cll + (clh + chl)·x^{u/2} + chh·x^u.
        meter.enter(Phase::Mul);
        let w = (u as u64).div_ceil(2);
        let mut c = vec![0u8; 2 * u];
        c[..u].copy_from_slice(cll.coeffs());
        meter.charge(Op::Load, w);
        meter.charge(Op::Store, w);
        meter.charge(Op::LoopIter, w);
        for i in 0..u {
            let s = add_mod(clh.coeffs()[i], chl.coeffs()[i]);
            c[i + quarter] = add_mod(c[i + quarter], s);
        }
        meter.charge(Op::Load, 3 * w);
        meter.charge(Op::Alu, 4 * w);
        meter.charge(Op::Store, w);
        meter.charge(Op::LoopIter, w);
        for i in 0..u {
            c[i + u] = add_mod(c[i + u], chh.coeffs()[i]);
        }
        meter.charge(Op::Load, 2 * w);
        meter.charge(Op::Alu, 2 * w);
        meter.charge(Op::Store, w);
        meter.charge(Op::LoopIter, w);
        meter.leave();
        Poly::from_coeffs(c)
    }

    /// Algorithm 1 — `split_mul_high`: the product of two length-2u
    /// polynomials in R_2u on a length-u unit. Four Algorithm 2 products
    /// are folded back with the ring's wrap sign: the x^2u term wraps onto
    /// x⁰, and the upper half of the x^u term wraps likewise.
    fn split_mul_high(
        unit: &TestUnit,
        a: &TernaryPoly,
        b: &Poly,
        conv: Convolution,
        meter: &mut CycleLedger,
    ) -> Poly {
        let u = unit.0;
        let n = 2 * u;
        assert_eq!(
            (a.len(), b.len()),
            (n, n),
            "operand length != 2 × unit length"
        );
        let (al, ah) = ternary_halves(a);
        let (bl, bh) = poly_halves(b);

        // Lines 1–2: four Algorithm 2 products, each of length 2u.
        let cll = split_mul_low(unit, &al, &bl, meter);
        let chh = split_mul_low(unit, &ah, &bh, meter);
        let clh = split_mul_low(unit, &al, &bh, meter);
        let chl = split_mul_low(unit, &ah, &bl, meter);

        meter.enter(Phase::Mul);
        let fold = |x: u8, y: u8| match conv {
            Convolution::Negacyclic => sub_mod(x, y),
            Convolution::Cyclic => add_mod(x, y),
        };
        let wn = (n as u64).div_ceil(2);
        let wu = (u as u64).div_ceil(2);
        // Lines 3–6: c ← cll, then wrap chh·x^2u around.
        let mut c: Vec<u8> = (cll.coeffs().iter().zip(chh.coeffs()))
            .map(|(&lo, &hi)| fold(lo, hi))
            .collect();
        meter.charge(Op::Load, 2 * wn);
        meter.charge(Op::Alu, 2 * wn);
        meter.charge(Op::Store, wn);
        meter.charge(Op::LoopIter, wn);
        // Lines 7–9: lower halves of (clh + chl)·x^u land at i + u.
        for i in 0..u {
            let s = add_mod(clh.coeffs()[i], chl.coeffs()[i]);
            c[i + u] = add_mod(c[i + u], s);
        }
        meter.charge(Op::Load, 3 * wu);
        meter.charge(Op::Alu, 4 * wu);
        meter.charge(Op::Store, wu);
        meter.charge(Op::LoopIter, wu);
        // Lines 10–12: upper halves wrap past x^2u.
        for i in u..n {
            let s = add_mod(clh.coeffs()[i], chl.coeffs()[i]);
            c[i - u] = fold(c[i - u], s);
        }
        meter.charge(Op::Load, 3 * wu);
        meter.charge(Op::Alu, 4 * wu);
        meter.charge(Op::Store, wu);
        meter.charge(Op::LoopIter, wu);
        meter.leave();
        Poly::from_coeffs(c)
    }

    /// The product in R_n by the reference that shares no code with the
    /// kernel.
    fn direct(a: &TernaryPoly, b: &Poly, conv: Convolution) -> Poly {
        reduce_full(&mul_full(a, b), a.len(), conv)
    }

    /// What the closed form charges for one length-2u product on the test
    /// unit.
    fn closed_form(u: usize) -> CycleLedger {
        let mut expect = CycleLedger::new();
        for _ in 0..UNIT_PRODUCTS {
            TestUnit::charge(&mut expect);
        }
        charge_recombination(u, &mut expect);
        expect
    }

    fn random_operands(rng: &mut impl Rng, n: usize) -> (TernaryPoly, Poly) {
        let a = TernaryPoly::from_coeffs(prop::vec_i8(rng, n, -1, 1));
        (a, Poly::from_coeffs(prop::vec_u8(rng, n, 251)))
    }

    #[test]
    fn split_low_matches_full_product() {
        let a = TernaryPoly::from_coeffs(vec![1, -1, 0, 1, 0, 0, 1, -1]);
        let b = Poly::from_coeffs(vec![3, 1, 4, 1, 5, 9, 2, 6]);
        let got = split_mul_low(&TestUnit(8), &a, &b, &mut CycleLedger::new());
        let full = mul_full(&a, &b);
        for (i, coeff) in got.coeffs().iter().enumerate() {
            let expect = full.get(i).copied().unwrap_or(0);
            assert_eq!(i32::from(*coeff), expect.rem_euclid(251), "coeff {i}");
        }
    }

    #[test]
    fn algorithms_equal_the_value_path_and_the_closed_form() {
        // At n = 2u for u ∈ {8, 16, 512}, both convolutions: Algorithms
        // 1–2 compute the product in R_2u, the one value path's prefix
        // equals theirs for every out_len shape, and their ledger equals
        // UNIT_PRODUCTS unit charges plus charge_recombination(u), op by
        // op and phase by phase.
        let mut rng = Sha256CtrRng::seed_from_u64(28);
        for u in [8, 16, 512] {
            let n = 2 * u;
            let (a, b) = random_operands(&mut rng, n);
            for conv in [Convolution::Cyclic, Convolution::Negacyclic] {
                let mut ledger = CycleLedger::new();
                let split = split_mul_high(&TestUnit(u), &a, &b, conv, &mut ledger);
                assert_eq!(split, direct(&a, &b, conv), "u={u} {conv:?}");
                assert_eq!(ledger, closed_form(u), "u={u} {conv:?}");
                for out_len in [1, u + 1, n] {
                    let got = ternary_product(&a, &b, n, conv, out_len);
                    assert_eq!(got.coeffs(), &split.coeffs()[..out_len], "u={u} {conv:?}");
                }
            }
        }
    }

    #[test]
    fn recombination_overhead_is_charged() {
        // Four Algorithm 2 recombinations (~3u ops each) plus Algorithm 1's
        // three loops: tens of thousands of modelled cycles at u = 512,
        // well below one schoolbook product, all under Phase::Mul.
        let mut ledger = CycleLedger::new();
        charge_recombination(512, &mut ledger);
        let total = ledger.total();
        assert!(
            (10_000..200_000).contains(&total),
            "recombination cost {total}"
        );
        assert_eq!(ledger.phase_total(Phase::Mul), total);
    }

    #[test]
    #[should_panic(expected = "2 × unit length")]
    fn wrong_length_rejected() {
        let a = TernaryPoly::zero(8);
        let b = Poly::zero(8);
        split_mul_high(
            &TestUnit(8),
            &a,
            &b,
            Convolution::Negacyclic,
            &mut CycleLedger::new(),
        );
    }

    #[test]
    fn prop_split_high_equals_direct() {
        prop::check("split_high_equals_direct", 64, |rng| {
            let (a, b) = random_operands(rng, 32);
            for conv in [Convolution::Cyclic, Convolution::Negacyclic] {
                let mut ledger = CycleLedger::new();
                let split = split_mul_high(&TestUnit(16), &a, &b, conv, &mut ledger);
                prop::ensure_eq(&split, &direct(&a, &b, conv))?;
                prop::ensure_eq(&ternary_product(&a, &b, 32, conv, 32), &split)?;
                prop::ensure_eq(ledger, closed_form(16))?;
            }
            Ok(())
        });
    }

    #[test]
    fn prop_split_low_is_full_product() {
        prop::check("split_low_is_full_product", 64, |rng| {
            let (a, b) = random_operands(rng, 16);
            let got = split_mul_low(&TestUnit(16), &a, &b, &mut CycleLedger::new());
            let full = mul_full(&a, &b);
            for (i, coeff) in got.coeffs().iter().enumerate() {
                let expect = full.get(i).copied().unwrap_or(0).rem_euclid(251);
                prop::ensure_eq(i32::from(*coeff), expect)?;
            }
            Ok(())
        });
    }
}
