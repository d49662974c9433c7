//! The paper's software polynomial splitting (Algorithms 1 and 2).
//!
//! The *MUL TER* hardware unit has a fixed length (512 for the paper's
//! chosen trade-off) and only reduces by x⁵¹² ± 1. To multiply the
//! length-1024 polynomials of LAC-192/256 on it, the paper splits twice:
//!
//! * [`split_mul_low`] (Algorithm 2) multiplies two length-u polynomials
//!   *without* ring reduction by splitting them into u/2-halves, computing
//!   the four half-products on the length-u unit (zero-padded, so no wrap
//!   occurs), and recombining per Eq. (2). The padding is implicit: the
//!   halves go to the unit as they are, and the unit zero-extends them;
//! * [`split_mul_high`] (Algorithm 1) multiplies two length-2u polynomials
//!   in R_2u by calling Algorithm 2 four times and folding the x^u and x^2u
//!   terms back with the ring's wrap sign.
//!
//! [`mul_on_unit`] decides how a length-n product runs on a length-u
//! unit: directly, through Algorithm 1, or not at all.
//!
//! All three functions are generic over the multiplier through the
//! [`TernaryMulUnit`] trait, which the cycle-accurate `MulTer` model in
//! `lac-hw` implements (and this module's tests, with a free software
//! unit).
//!
//! The paper notes that Karatsuba would save one of the four half-products
//! but needs general × general multiplications the ternary unit cannot do —
//! we follow the paper and use the four-product form.

use crate::{add_mod, sub_mod, Convolution, Poly, TernaryPoly};
use lac_meter::{Meter, Op, Phase};

/// A multiplier for ternary × general products of a fixed unit length,
/// reducing by x^len ± 1.
pub trait TernaryMulUnit {
    /// The unit's polynomial length (512 in the paper).
    fn unit_len(&self) -> usize;

    /// Compute `a · b mod (x^unit_len ∓ 1)`. An operand shorter than the
    /// unit is zero-extended to it — Algorithm 2's padding, implicit and
    /// charged as a unit-length product.
    ///
    /// # Panics
    ///
    /// Implementations panic if an operand is longer than
    /// [`TernaryMulUnit::unit_len`].
    fn mul_unit(
        &mut self,
        a: &TernaryPoly,
        b: &Poly,
        conv: Convolution,
        meter: &mut dyn Meter,
    ) -> Poly;
}

/// Algorithm 2 — `split_mul_low`: full (unreduced) product of two length-u
/// polynomials on a length-u multiplier unit.
///
/// The unit zero-extends the u/2-halves to u, so its ring reduction never
/// triggers (the products have degree < u) and either convolution setting
/// yields the exact product. The result has length 2u, coefficients in
/// `[0, q)`.
///
/// # Panics
///
/// Panics if `a`/`b` lengths differ from the unit length.
pub fn split_mul_low(
    unit: &mut dyn TernaryMulUnit,
    a: &TernaryPoly,
    b: &Poly,
    meter: &mut dyn Meter,
) -> Poly {
    let u = unit.unit_len();
    assert_eq!(a.len(), u, "a length != unit length");
    assert_eq!(b.len(), u, "b length != unit length");
    let quarter = u / 2;

    let (al, ah) = a.halves();
    let (bl, bh) = b.halves();

    // Line 1–2: the four half products on the unit (order as in the paper).
    let cll = unit.mul_unit(&al, &bl, Convolution::Cyclic, meter);
    let chh = unit.mul_unit(&ah, &bh, Convolution::Cyclic, meter);
    let clh = unit.mul_unit(&al, &bh, Convolution::Cyclic, meter);
    let chl = unit.mul_unit(&ah, &bl, Convolution::Cyclic, meter);

    // Line 3–7: recombination c = cll + (clh + chl)·x^{u/2} + chh·x^u.
    meter.enter(Phase::Mul);
    // Cost note: the recombination loops move/add byte-sized coefficients;
    // the charges model the optimized driver handling four coefficients per
    // 32-bit word (halved per-element counts).
    let w = (u as u64).div_ceil(2);
    let mut c = vec![0u8; 2 * u];
    c[..u].copy_from_slice(&cll.coeffs()[..u]);
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

/// Algorithm 1 — `split_mul_high`: multiply two length-2u polynomials in
/// R_2u = Z_q\[x\]/(x^2u ∓ 1) using a length-u multiplier unit.
///
/// Four [`split_mul_low`] products are folded back with the ring's wrap
/// sign: the x^2u term wraps onto x⁰ with sign ∓, and the upper half of the
/// x^u term wraps likewise (lines 3–12 of the paper's Algorithm 1).
///
/// # Panics
///
/// Panics if the operand lengths are not exactly `2 × unit_len`.
pub fn split_mul_high(
    unit: &mut dyn TernaryMulUnit,
    a: &TernaryPoly,
    b: &Poly,
    conv: Convolution,
    meter: &mut dyn Meter,
) -> Poly {
    let u = unit.unit_len();
    let n = 2 * u;
    assert_eq!(a.len(), n, "a length != 2 × unit length");
    assert_eq!(b.len(), n, "b length != 2 × unit length");

    let (al, ah) = a.halves();
    let (bl, bh) = b.halves();

    // Line 1–2: four Algorithm-2 products, each of length 2u.
    let cll = split_mul_low(unit, &al, &bl, meter);
    let chh = split_mul_low(unit, &ah, &bh, meter);
    let clh = split_mul_low(unit, &al, &bh, meter);
    let chl = split_mul_low(unit, &ah, &bl, meter);

    meter.enter(Phase::Mul);
    let fold = |x: u8, y: u8| match conv {
        Convolution::Negacyclic => sub_mod(x, y),
        Convolution::Cyclic => add_mod(x, y),
    };

    // Lines 3–6: c ← cll, then wrap chh·x^2u around (sign by convolution).
    // Same word-level batching note as in `split_mul_low`.
    let wn = (n as u64).div_ceil(2);
    let wu = (u as u64).div_ceil(2);
    let mut c = vec![0u8; n];
    for ((ci, &lo), &hi) in c.iter_mut().zip(cll.coeffs()).zip(chh.coeffs()) {
        *ci = fold(lo, hi);
    }
    meter.charge(Op::Load, 2 * wn);
    meter.charge(Op::Alu, 2 * wn);
    meter.charge(Op::Store, wn);
    meter.charge(Op::LoopIter, wn);

    // Lines 7–9: lower halves of (clh + chl)·x^u land at i + u directly.
    for i in 0..u {
        let s = add_mod(clh.coeffs()[i], chl.coeffs()[i]);
        c[i + u] = add_mod(c[i + u], s);
    }
    meter.charge(Op::Load, 3 * wu);
    meter.charge(Op::Alu, 4 * wu);
    meter.charge(Op::Store, wu);
    meter.charge(Op::LoopIter, wu);

    // Lines 10–12: upper halves wrap past x^2u (sign by convolution).
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

/// Multiply two length-n operands in R_n on a length-u unit: directly
/// when n = u, through [`split_mul_high`] when n = 2u. Any other n returns
/// `None`: the unit only reduces by x^u ∓ 1, and zero-padding to a longer
/// unit would change the ring.
pub fn mul_on_unit(
    unit: &mut dyn TernaryMulUnit,
    a: &TernaryPoly,
    b: &Poly,
    conv: Convolution,
    meter: &mut dyn Meter,
) -> Option<Poly> {
    let u = unit.unit_len();
    if a.len() == u {
        Some(unit.mul_unit(a, b, conv, meter))
    } else if a.len() == 2 * u {
        Some(split_mul_high(unit, a, b, conv, meter))
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mul::{mul_full, reduce_full, ternary_product};
    use lac_meter::{CycleLedger, NullMeter};
    use lac_rand::prop;

    /// The product kernel as a length-`.0` unit that charges nothing, so a
    /// ledger sees only the split algorithms' own cost.
    struct SchoolbookUnit(usize);

    impl TernaryMulUnit for SchoolbookUnit {
        fn unit_len(&self) -> usize {
            self.0
        }

        fn mul_unit(
            &mut self,
            a: &TernaryPoly,
            b: &Poly,
            conv: Convolution,
            _meter: &mut dyn Meter,
        ) -> Poly {
            ternary_product(a, b, self.0, conv, self.0)
        }
    }

    /// The product in R_n by the reference that shares no code with the
    /// kernel.
    fn direct(a: &TernaryPoly, b: &Poly, conv: Convolution) -> Poly {
        reduce_full(&mul_full(a, b), a.len(), conv)
    }

    #[test]
    fn split_low_matches_full_product() {
        let mut unit = SchoolbookUnit(8);
        let a = TernaryPoly::from_coeffs(vec![1, -1, 0, 1, 0, 0, 1, -1]);
        let b = Poly::from_coeffs(vec![3, 1, 4, 1, 5, 9, 2, 6]);
        let got = split_mul_low(&mut unit, &a, &b, &mut NullMeter);
        let full = mul_full(&a, &b);
        for (i, coeff) in got.coeffs().iter().enumerate() {
            let expect = full.get(i).copied().unwrap_or(0);
            assert_eq!(i32::from(*coeff), expect.rem_euclid(251), "coeff {i}");
        }
    }

    #[test]
    fn split_high_matches_direct_negacyclic() {
        let mut unit = SchoolbookUnit(8);
        let a = TernaryPoly::from_coeffs(vec![1, 0, -1, 1, 0, 1, -1, 0, 1, 1, 0, -1, 0, 0, 1, -1]);
        let b = Poly::from_coeffs((0u8..16).map(|i| i * 13 % 251).collect());
        let split = split_mul_high(&mut unit, &a, &b, Convolution::Negacyclic, &mut NullMeter);
        assert_eq!(split, direct(&a, &b, Convolution::Negacyclic));
    }

    #[test]
    fn split_high_matches_direct_cyclic() {
        let mut unit = SchoolbookUnit(8);
        let a = TernaryPoly::from_coeffs(vec![-1, 0, 1, 1, 0, -1, 1, 0, 0, 1, -1, 0, 1, 0, 0, 1]);
        let b = Poly::from_coeffs((0u8..16).map(|i| (i * 7 + 3) % 251).collect());
        let split = split_mul_high(&mut unit, &a, &b, Convolution::Cyclic, &mut NullMeter);
        assert_eq!(split, direct(&a, &b, Convolution::Cyclic));
    }

    #[test]
    fn split_high_full_lac_sizes() {
        // The real configuration: length-512 unit, length-1024 operands.
        let mut unit = SchoolbookUnit(512);
        let coeffs: Vec<i8> = (0..1024).map(|i| [0i8, 1, 0, -1][i % 4]).collect();
        let a = TernaryPoly::from_coeffs(coeffs);
        let b = Poly::from_coeffs((0..1024u32).map(|i| (i * 31 % 251) as u8).collect());
        let split = split_mul_high(&mut unit, &a, &b, Convolution::Negacyclic, &mut NullMeter);
        assert_eq!(split, direct(&a, &b, Convolution::Negacyclic));
    }

    #[test]
    fn recombination_overhead_is_charged() {
        // With a free unit, only the recombination cost remains.
        let mut unit = SchoolbookUnit(512);
        let a = TernaryPoly::zero(1024);
        let b = Poly::zero(1024);
        let mut ledger = CycleLedger::new();
        split_mul_high(&mut unit, &a, &b, Convolution::Negacyclic, &mut ledger);
        // Four Algorithm-2 recombinations (~3u ops each) plus Algorithm 1's
        // three loops: tens of thousands of modelled cycles, well below one
        // schoolbook product.
        let total = ledger.total();
        assert!(
            (10_000..200_000).contains(&total),
            "recombination cost {total}"
        );
    }

    #[test]
    #[should_panic(expected = "2 × unit length")]
    fn wrong_length_rejected() {
        let mut unit = SchoolbookUnit(8);
        let a = TernaryPoly::zero(8);
        let b = Poly::zero(8);
        split_mul_high(&mut unit, &a, &b, Convolution::Negacyclic, &mut NullMeter);
    }

    #[test]
    fn prop_split_high_equals_direct() {
        prop::check("split_high_equals_direct", 64, |rng| {
            let mut unit = SchoolbookUnit(16);
            let a = TernaryPoly::from_coeffs(prop::vec_i8(rng, 32, -1, 1));
            let b = Poly::from_coeffs(prop::vec_u8(rng, 32, 251));
            for conv in [Convolution::Cyclic, Convolution::Negacyclic] {
                let split = split_mul_high(&mut unit, &a, &b, conv, &mut NullMeter);
                prop::ensure_eq(split, direct(&a, &b, conv))?;
            }
            Ok(())
        });
    }

    #[test]
    fn prop_split_low_is_full_product() {
        prop::check("split_low_is_full_product", 64, |rng| {
            let mut unit = SchoolbookUnit(16);
            let a = TernaryPoly::from_coeffs(prop::vec_i8(rng, 16, -1, 1));
            let b = Poly::from_coeffs(prop::vec_u8(rng, 16, 251));
            let got = split_mul_low(&mut unit, &a, &b, &mut NullMeter);
            let full = mul_full(&a, &b);
            for (i, coeff) in got.coeffs().iter().enumerate() {
                let expect = full.get(i).copied().unwrap_or(0).rem_euclid(251);
                prop::ensure_eq(i32::from(*coeff), expect)?;
            }
            Ok(())
        });
    }
}
