//! Karatsuba multiplication for general × general polynomials — the
//! paper's second stated future work.
//!
//! Section IV-A: "Note that Karatsuba's algorithm allows to reduce the four
//! polynomial multiplications in Eq. (2) to three. However, using
//! Karatsuba's algorithm requires the multiplication of general
//! polynomials … our ternary multiplier MUL TER could not be used. … the
//! use of Karatsuba's algorithm has been left as a future work."
//!
//! This module implements that future work for the *software* path:
//! a recursive Karatsuba over Z₂₅₁ with a metered cost model, so the
//! trade-off the paper gestures at (3 multiplications instead of 4, at the
//! price of general-coefficient arithmetic) can actually be measured —
//! see the unit tests below.

use crate::{reduce_i32, Convolution, Poly, Q};
use lac_meter::{Meter, NullMeter, Op, Phase};

/// Recursion cut-off: products at or below this length use the schoolbook
/// base case (Karatsuba's additions dominate below ~32 coefficients).
pub const DEFAULT_THRESHOLD: usize = 32;

/// Full (unreduced, signed) schoolbook product; the base case.
fn schoolbook_full<M: Meter>(a: &[i32], b: &[i32], meter: &mut M) -> Vec<i32> {
    if a.is_empty() || b.is_empty() {
        return Vec::new();
    }
    let mut out = vec![0i32; a.len() + b.len() - 1];
    for (i, &ai) in a.iter().enumerate() {
        for (j, &bj) in b.iter().enumerate() {
            out[i + j] += ai * bj;
        }
    }
    // Reference cost: one multiply-accumulate per coefficient pair.
    let pairs = (a.len() * b.len()) as u64;
    meter.charge(Op::Load, 2 * pairs);
    meter.charge(Op::Mul, pairs);
    meter.charge(Op::Alu, pairs);
    meter.charge(Op::LoopIter, pairs);
    out
}

/// Recursive Karatsuba on signed coefficient slices.
///
/// Coefficients stay well inside `i32`: inputs are bounded by q−1 = 250 in
/// magnitude and the recursion depth over n ≤ 1024 keeps partial sums below
/// 2³¹ (1024 · 250 · 500 ≈ 2²⁷).
fn karatsuba_full<M: Meter>(a: &[i32], b: &[i32], threshold: usize, meter: &mut M) -> Vec<i32> {
    debug_assert_eq!(a.len(), b.len());
    let n = a.len();
    if n <= threshold {
        return schoolbook_full(a, b, meter);
    }
    let half = n / 2;
    let (a_lo, a_hi) = a.split_at(half);
    let (b_lo, b_hi) = b.split_at(half);

    // Three recursive products: lo·lo, hi·hi, (lo+hi)·(lo+hi).
    let p_lo = karatsuba_full(a_lo, b_lo, threshold, meter);
    let p_hi = karatsuba_full(a_hi, b_hi, threshold, meter);
    let a_sum: Vec<i32> = a_lo.iter().zip(a_hi).map(|(x, y)| x + y).collect();
    let b_sum: Vec<i32> = b_lo.iter().zip(b_hi).map(|(x, y)| x + y).collect();
    meter.charge(Op::Load, 4 * half as u64);
    meter.charge(Op::Alu, 2 * half as u64);
    meter.charge(Op::Store, 2 * half as u64);
    meter.charge(Op::LoopIter, 2 * half as u64);
    let p_mid = karatsuba_full(&a_sum, &b_sum, threshold, meter);

    // Combine: result = p_lo + (p_mid − p_lo − p_hi)·x^half + p_hi·x^n.
    let mut out = vec![0i32; 2 * n - 1];
    for (i, &v) in p_lo.iter().enumerate() {
        out[i] += v;
    }
    for (i, &v) in p_hi.iter().enumerate() {
        out[i + n] += v;
    }
    for i in 0..p_mid.len() {
        let mid = p_mid[i] - p_lo.get(i).copied().unwrap_or(0) - p_hi.get(i).copied().unwrap_or(0);
        out[i + half] += mid;
    }
    let combine_ops = (2 * n) as u64;
    meter.charge(Op::Load, 3 * combine_ops);
    meter.charge(Op::Alu, 3 * combine_ops);
    meter.charge(Op::Store, combine_ops);
    meter.charge(Op::LoopIter, combine_ops);
    out
}

/// General × general multiplication in Z_q\[x\]/(xⁿ ∓ 1) via Karatsuba,
/// metered under [`Phase::Mul`].
///
/// # Panics
///
/// Panics if operands differ in length or the length is not a power of two.
pub fn mul_general_karatsuba<M: Meter>(
    a: &Poly,
    b: &Poly,
    conv: Convolution,
    threshold: usize,
    meter: &mut M,
) -> Poly {
    assert_eq!(a.len(), b.len(), "length mismatch");
    let n = a.len();
    assert!(n.is_power_of_two(), "length must be a power of two");
    meter.enter(Phase::Mul);
    let ai: Vec<i32> = a.coeffs().iter().map(|&c| i32::from(c)).collect();
    let bi: Vec<i32> = b.coeffs().iter().map(|&c| i32::from(c)).collect();
    let full = karatsuba_full(&ai, &bi, threshold.max(1), meter);

    let wrap = conv.wrap_sign();
    let mut acc = vec![0i64; n];
    for (i, &v) in full.iter().enumerate() {
        if i < n {
            acc[i] += i64::from(v);
        } else {
            acc[i - n] += i64::from(wrap) * i64::from(v);
        }
    }
    let coeffs = acc
        .iter()
        .map(|&v| reduce_i32((v % i64::from(Q)) as i32))
        .collect();
    meter.charge(Op::Load, 2 * n as u64);
    meter.charge(Op::Alu, 2 * n as u64);
    meter.charge(Op::Mul, 2 * n as u64); // Barrett folds
    meter.charge(Op::Store, n as u64);
    meter.charge(Op::LoopIter, n as u64);
    meter.leave();
    Poly::from_coeffs(coeffs)
}

/// General × general schoolbook multiplication in the ring (reference for
/// Karatsuba, metered under [`Phase::Mul`]).
///
/// # Panics
///
/// Panics if operands differ in length.
pub fn mul_general_schoolbook<M: Meter>(
    a: &Poly,
    b: &Poly,
    conv: Convolution,
    meter: &mut M,
) -> Poly {
    assert_eq!(a.len(), b.len(), "length mismatch");
    let n = a.len();
    meter.enter(Phase::Mul);
    let ai: Vec<i32> = a.coeffs().iter().map(|&c| i32::from(c)).collect();
    let bi: Vec<i32> = b.coeffs().iter().map(|&c| i32::from(c)).collect();
    let full = schoolbook_full(&ai, &bi, meter);
    let wrap = conv.wrap_sign();
    let mut acc = vec![0i64; n];
    for (i, &v) in full.iter().enumerate() {
        if i < n {
            acc[i] += i64::from(v);
        } else {
            acc[i - n] += i64::from(wrap) * i64::from(v);
        }
    }
    let coeffs = acc
        .iter()
        .map(|&v| reduce_i32((v % i64::from(Q)) as i32))
        .collect();
    meter.leave();
    Poly::from_coeffs(coeffs)
}

/// Convenience wrapper with the default threshold.
pub fn mul_general(a: &Poly, b: &Poly, conv: Convolution) -> Poly {
    mul_general_karatsuba(a, b, conv, DEFAULT_THRESHOLD, &mut NullMeter)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mul::mul_ternary;
    use crate::TernaryPoly;
    use lac_meter::CycleLedger;
    use lac_rand::{prop, Rng};

    fn poly(n: usize, f: impl Fn(usize) -> u8) -> Poly {
        Poly::from_coeffs((0..n).map(f).collect())
    }

    #[test]
    fn matches_schoolbook_small() {
        let a = poly(8, |i| (i * 37 % 251) as u8);
        let b = poly(8, |i| (i * 91 + 5) as u8 % 251);
        for conv in [Convolution::Cyclic, Convolution::Negacyclic] {
            assert_eq!(
                mul_general_karatsuba(&a, &b, conv, 2, &mut NullMeter),
                mul_general_schoolbook(&a, &b, conv, &mut NullMeter),
                "{conv:?}"
            );
        }
    }

    #[test]
    fn matches_schoolbook_lac_sizes() {
        for n in [512usize, 1024] {
            let a = poly(n, |i| (i * 17 % 251) as u8);
            let b = poly(n, |i| (i * 73 + 11) as u8 % 251);
            assert_eq!(
                mul_general(&a, &b, Convolution::Negacyclic),
                mul_general_schoolbook(&a, &b, Convolution::Negacyclic, &mut NullMeter),
                "n={n}"
            );
        }
    }

    #[test]
    fn agrees_with_ternary_mul_on_ternary_inputs() {
        // A ternary polynomial is also a general one (−1 ↦ 250); results
        // must agree with the specialized path.
        let t = TernaryPoly::from_coeffs((0..64).map(|i| [1i8, 0, -1, 0][i % 4]).collect());
        let g = poly(64, |i| (i * 7 % 251) as u8);
        let expect = mul_ternary(&t, &g, Convolution::Negacyclic, &mut NullMeter);
        let got = mul_general(&t.to_poly(), &g, Convolution::Negacyclic);
        assert_eq!(got, expect);
    }

    #[test]
    fn karatsuba_is_cheaper_than_schoolbook_at_lac_sizes() {
        // The future-work pay-off: ~3x fewer modelled cycles at n = 512.
        let a = poly(512, |i| (i % 251) as u8);
        let b = poly(512, |i| (i * 3 % 251) as u8);
        let mut k = CycleLedger::new();
        mul_general_karatsuba(&a, &b, Convolution::Negacyclic, DEFAULT_THRESHOLD, &mut k);
        let mut s = CycleLedger::new();
        mul_general_schoolbook(&a, &b, Convolution::Negacyclic, &mut s);
        let speedup = s.total() as f64 / k.total() as f64;
        assert!(
            (2.0..6.0).contains(&speedup),
            "karatsuba speedup {speedup:.2} at n=512"
        );
    }

    #[test]
    fn but_ternary_specialization_still_wins() {
        // The paper's design argument: against the *ternary* multiplier's
        // add/sub-only cost profile (and certainly against MUL TER), plain
        // Karatsuba on general coefficients is not competitive enough to
        // justify a general-coefficient multiplier — the reference ternary
        // product's inner loop is what MUL TER replaces.
        let t = TernaryPoly::from_coeffs((0..512).map(|i| [1i8, 0, -1, 0][i % 4]).collect());
        let g = poly(512, |i| (i * 13 % 251) as u8);
        let mut ternary = CycleLedger::new();
        mul_ternary(&t, &g, Convolution::Negacyclic, &mut ternary);
        let mut karatsuba = CycleLedger::new();
        mul_general_karatsuba(
            &t.to_poly(),
            &g,
            Convolution::Negacyclic,
            DEFAULT_THRESHOLD,
            &mut karatsuba,
        );
        // Karatsuba does beat the weight-independent reference loop…
        assert!(karatsuba.total() < ternary.total());
        // …but stays orders of magnitude above the MUL TER unit (6.1k).
        assert!(karatsuba.total() > 100_000);
    }

    #[test]
    fn threshold_one_still_correct() {
        let a = poly(16, |i| (i * 5 % 251) as u8);
        let b = poly(16, |i| (i * 11 % 251) as u8);
        assert_eq!(
            mul_general_karatsuba(&a, &b, Convolution::Cyclic, 1, &mut NullMeter),
            mul_general_schoolbook(&a, &b, Convolution::Cyclic, &mut NullMeter)
        );
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_rejected() {
        let a = poly(12, |_| 1);
        let b = poly(12, |_| 2);
        mul_general_karatsuba(&a, &b, Convolution::Cyclic, 4, &mut NullMeter);
    }

    #[test]
    fn prop_karatsuba_matches_schoolbook() {
        prop::check("karatsuba_matches_schoolbook", 48, |rng| {
            let a = Poly::from_coeffs(prop::vec_u8(rng, 32, 251));
            let b = Poly::from_coeffs(prop::vec_u8(rng, 32, 251));
            let threshold = rng.gen_range_usize(1..33);
            for conv in [Convolution::Cyclic, Convolution::Negacyclic] {
                prop::ensure_eq(
                    mul_general_karatsuba(&a, &b, conv, threshold, &mut NullMeter),
                    mul_general_schoolbook(&a, &b, conv, &mut NullMeter),
                )?;
            }
            Ok(())
        });
    }
}
