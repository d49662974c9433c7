//! Polynomial arithmetic in R_n = Z_q\[x\]/(xⁿ ± 1) for LAC (q = 251).
//!
//! LAC performs all lattice arithmetic in the ring Z₂₅₁\[x\]/(xⁿ+1) with
//! n = 512 or n = 1024. Because LAC's secrets and errors are **ternary**
//! (coefficients in {−1, 0, 1}), every multiplication is a ternary × general
//! product that needs only additions and subtractions — the property the
//! paper's *MUL TER* accelerator exploits.
//!
//! This crate provides:
//!
//! * [`Poly`] — general polynomials with coefficients in Z₂₅₁;
//! * [`TernaryPoly`] — ternary polynomials;
//! * [`Convolution`] — positive (xⁿ−1) vs negative (xⁿ+1) wrapped
//!   convolution, both supported by the multiplier (Fig. 2);
//! * [`mul::ternary_product`] — the one ternary × general product, unmetered
//!   and branch-free, that every metered multiplier takes its values from;
//! * [`mul::mul_ternary`] / [`mul::mul_ternary_truncated`] — the product
//!   charged as the LAC reference implementation's schoolbook loop;
//! * [`split`] — the cost of the paper's Algorithms 1 and 2, which reuse
//!   a length-n/2 multiplier unit for length-n products via two levels of
//!   splitting (the executable algorithms are its tests' reference);
//! * [`barrett_reduce`] / [`reduce_i32`] — constant-time modular reduction
//!   by q = 251 (the paper's *MOD q* unit implements the same Barrett
//!   algorithm in hardware), and [`add_mod`] / [`sub_mod`].
//!
//! # Example
//!
//! ```
//! use lac_ring::{Convolution, Poly, TernaryPoly};
//! use lac_ring::mul::mul_ternary;
//! use lac_meter::NullMeter;
//!
//! let a = TernaryPoly::from_coeffs(vec![1, 0, -1, 0]);
//! let b = Poly::from_coeffs(vec![1, 2, 3, 4]);
//! let c = mul_ternary(&a, &b, Convolution::Negacyclic, &mut NullMeter);
//! assert_eq!(c.coeffs().len(), 4);
//! ```

#![warn(missing_docs)]

pub mod mul;
pub mod split;

use lac_meter::{Meter, Op};
use std::fmt;

/// The LAC modulus q = 251 (the largest prime below 2⁸).
pub const Q: u16 = 251;

/// Barrett constant ⌊2³²/q⌋ for q = 251.
const BARRETT_M: u64 = (1u64 << 32) / Q as u64;

/// Offset added before reducing signed accumulators: a multiple of q larger
/// than any magnitude produced by a length-1024 ternary × general product
/// (1024 · 250 = 256,000 < 251 · 2¹² = 1,028,096).
const SIGNED_OFFSET: i32 = (Q as i32) << 12;

/// Constant-time Barrett reduction of `x` modulo q = 251.
///
/// This is the algorithm implemented by the paper's *MOD q* hardware unit
/// (two DSP multiplies plus correction). Valid for any `u32` input.
///
/// # Example
///
/// ```
/// assert_eq!(lac_ring::barrett_reduce(503), 1);
/// assert_eq!(lac_ring::barrett_reduce(250), 250);
/// ```
#[inline]
pub fn barrett_reduce(x: u32) -> u8 {
    let approx = ((u64::from(x) * BARRETT_M) >> 32) as u32;
    let mut r = x - approx * u32::from(Q);
    // At most two correction steps are ever needed; branchless.
    r -= u32::from(Q) & ((r >= u32::from(Q)) as u32).wrapping_neg();
    r -= u32::from(Q) & ((r >= u32::from(Q)) as u32).wrapping_neg();
    debug_assert!(r < u32::from(Q));
    r as u8
}

/// Reduce a signed accumulator into `[0, q)`, branchlessly.
///
/// # Panics
///
/// Debug-panics if `x` is more negative than `-SIGNED_OFFSET` (cannot occur
/// for LAC-sized accumulations).
#[inline]
pub fn reduce_i32(x: i32) -> u8 {
    debug_assert!(x > -SIGNED_OFFSET);
    barrett_reduce((x + SIGNED_OFFSET) as u32)
}

/// `(a + b) mod q` for `a, b < q`: the MUL TER MAU's add.
#[inline]
pub fn add_mod(a: u8, b: u8) -> u8 {
    let s = u16::from(a) + u16::from(b);
    (if s >= Q { s - Q } else { s }) as u8
}

/// `(a − b) mod q` for `a, b < q`: the MUL TER MAU's subtract.
#[inline]
pub fn sub_mod(a: u8, b: u8) -> u8 {
    let d = i16::from(a) - i16::from(b);
    (if d < 0 { d + Q as i16 } else { d }) as u8
}

/// Which wrapped convolution the ring uses (Section IV-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Convolution {
    /// Reduction by xⁿ − 1: wrapped coefficients are **added**.
    Cyclic,
    /// Reduction by xⁿ + 1: wrapped coefficients are **subtracted** (LAC).
    Negacyclic,
}

impl Convolution {
    /// Sign applied to a coefficient that wraps past xⁿ.
    pub fn wrap_sign(self) -> i32 {
        match self {
            Convolution::Cyclic => 1,
            Convolution::Negacyclic => -1,
        }
    }
}

/// A polynomial over Z₂₅₁ with a fixed length n (degree < n).
///
/// Coefficients are stored lowest-degree first and kept reduced into
/// `[0, q)`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Poly {
    coeffs: Vec<u8>,
}

impl Poly {
    /// The zero polynomial of length `n`.
    pub fn zero(n: usize) -> Self {
        Self {
            coeffs: vec![0u8; n],
        }
    }

    /// Build from coefficients.
    ///
    /// # Panics
    ///
    /// Panics if any coefficient is ≥ q.
    pub fn from_coeffs(coeffs: Vec<u8>) -> Self {
        assert!(
            coeffs.iter().all(|&c| u16::from(c) < Q),
            "coefficient out of range [0, {Q})"
        );
        Self { coeffs }
    }

    /// Length n of the ring (number of coefficients).
    pub fn len(&self) -> usize {
        self.coeffs.len()
    }

    /// True if the polynomial has no coefficients (degenerate).
    pub fn is_empty(&self) -> bool {
        self.coeffs.is_empty()
    }

    /// Coefficient view.
    pub fn coeffs(&self) -> &[u8] {
        &self.coeffs
    }

    /// Coefficient-wise addition mod q. Both operands must share a length.
    ///
    /// # Panics
    ///
    /// Panics on length mismatch.
    pub fn add<M: Meter>(&self, other: &Self, meter: &mut M) -> Self {
        assert_eq!(self.len(), other.len(), "length mismatch");
        let coeffs = self
            .coeffs
            .iter()
            .zip(&other.coeffs)
            .map(|(&a, &b)| add_mod(a, b))
            .collect();
        meter.charge(Op::Load, 2 * self.len() as u64);
        meter.charge(Op::Alu, 2 * self.len() as u64);
        meter.charge(Op::Store, self.len() as u64);
        meter.charge(Op::LoopIter, self.len() as u64);
        Self { coeffs }
    }

    /// Coefficient-wise subtraction mod q.
    ///
    /// # Panics
    ///
    /// Panics on length mismatch.
    pub fn sub<M: Meter>(&self, other: &Self, meter: &mut M) -> Self {
        assert_eq!(self.len(), other.len(), "length mismatch");
        let coeffs = self
            .coeffs
            .iter()
            .zip(&other.coeffs)
            .map(|(&a, &b)| sub_mod(a, b))
            .collect();
        meter.charge(Op::Load, 2 * self.len() as u64);
        meter.charge(Op::Alu, 2 * self.len() as u64);
        meter.charge(Op::Store, self.len() as u64);
        meter.charge(Op::LoopIter, self.len() as u64);
        Self { coeffs }
    }
}

impl fmt::Display for Poly {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Poly(n={}, [", self.len())?;
        for (i, c) in self.coeffs.iter().take(8).enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{c}")?;
        }
        if self.len() > 8 {
            write!(f, ", …")?;
        }
        write!(f, "])")
    }
}

/// A ternary polynomial (coefficients in {−1, 0, 1}) of fixed length n.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct TernaryPoly {
    coeffs: Vec<i8>,
}

impl TernaryPoly {
    /// The zero ternary polynomial of length `n`.
    pub fn zero(n: usize) -> Self {
        Self {
            coeffs: vec![0i8; n],
        }
    }

    /// Build from coefficients.
    ///
    /// # Panics
    ///
    /// Panics if any coefficient is outside {−1, 0, 1}.
    pub fn from_coeffs(coeffs: Vec<i8>) -> Self {
        assert!(
            coeffs.iter().all(|&c| (-1..=1).contains(&c)),
            "coefficient outside {{-1, 0, 1}}"
        );
        Self { coeffs }
    }

    /// Length n.
    pub fn len(&self) -> usize {
        self.coeffs.len()
    }

    /// True if the polynomial has no coefficients (degenerate).
    pub fn is_empty(&self) -> bool {
        self.coeffs.is_empty()
    }

    /// Coefficient view.
    pub fn coeffs(&self) -> &[i8] {
        &self.coeffs
    }

    /// Number of nonzero coefficients (the fixed weight h in LAC).
    pub fn weight(&self) -> usize {
        self.coeffs.iter().filter(|&&c| c != 0).count()
    }

    /// View as a general polynomial (−1 ↦ q−1).
    pub fn to_poly(&self) -> Poly {
        Poly {
            coeffs: self
                .coeffs
                .iter()
                .map(|&c| if c < 0 { (Q - 1) as u8 } else { c as u8 })
                .collect(),
        }
    }
}

impl fmt::Display for TernaryPoly {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TernaryPoly(n={}, w={})", self.len(), self.weight())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lac_meter::NullMeter;
    use lac_rand::{prop, Rng};

    #[test]
    fn barrett_matches_modulo_exhaustive_16bit() {
        for x in 0u32..=70_000 {
            assert_eq!(u32::from(barrett_reduce(x)), x % u32::from(Q), "{x}");
        }
    }

    #[test]
    fn barrett_extremes() {
        assert_eq!(barrett_reduce(0), 0);
        assert_eq!(barrett_reduce(u32::MAX), (u32::MAX % 251) as u8);
    }

    #[test]
    fn reduce_i32_matches_rem_euclid() {
        for x in -300_000i32..=-299_000 {
            assert_eq!(i32::from(reduce_i32(x)), x.rem_euclid(251));
        }
        for x in [-1, -250, -251, -252, 0, 1, 250, 251, 252, 300_000] {
            assert_eq!(i32::from(reduce_i32(x)), x.rem_euclid(251), "{x}");
        }
    }

    #[test]
    fn poly_add_sub_roundtrip() {
        let a = Poly::from_coeffs(vec![0, 1, 125, 250]);
        let b = Poly::from_coeffs(vec![250, 250, 250, 250]);
        let sum = a.add(&b, &mut NullMeter);
        assert_eq!(sum.coeffs(), &[250, 0, 124, 249]);
        let back = sum.sub(&b, &mut NullMeter);
        assert_eq!(back, a);
    }

    #[test]
    fn poly_rejects_out_of_range() {
        let r = std::panic::catch_unwind(|| Poly::from_coeffs(vec![251]));
        assert!(r.is_err());
    }

    #[test]
    fn ternary_rejects_out_of_range() {
        let r = std::panic::catch_unwind(|| TernaryPoly::from_coeffs(vec![2]));
        assert!(r.is_err());
    }

    #[test]
    fn ternary_weight() {
        let t = TernaryPoly::from_coeffs(vec![1, 0, -1, 0, 1, 1]);
        assert_eq!(t.weight(), 4);
    }

    #[test]
    fn ternary_to_poly_maps_minus_one() {
        let t = TernaryPoly::from_coeffs(vec![-1, 0, 1]);
        assert_eq!(t.to_poly().coeffs(), &[250, 0, 1]);
    }

    #[test]
    fn wrap_signs() {
        assert_eq!(Convolution::Cyclic.wrap_sign(), 1);
        assert_eq!(Convolution::Negacyclic.wrap_sign(), -1);
    }

    #[test]
    fn display_impls_nonempty() {
        let p = Poly::from_coeffs(vec![1; 16]);
        assert!(!format!("{p}").is_empty());
        let t = TernaryPoly::zero(4);
        assert!(!format!("{t}").is_empty());
    }

    #[test]
    fn prop_barrett_matches_modulo() {
        prop::check("barrett_matches_modulo", 256, |rng| {
            let x = rng.next_u32();
            prop::ensure_eq(u32::from(barrett_reduce(x)), x % 251)
        });
    }

    #[test]
    fn prop_reduce_i32() {
        prop::check("reduce_i32", 256, |rng| {
            let x = rng.gen_range_i64(-1_000_000, 999_999) as i32;
            prop::ensure_eq(i32::from(reduce_i32(x)), x.rem_euclid(251))
        });
    }

    #[test]
    fn prop_add_commutes() {
        prop::check("add_commutes", 256, |rng| {
            let pa = Poly::from_coeffs(prop::vec_u8(rng, 8, 251));
            let pb = Poly::from_coeffs(prop::vec_u8(rng, 8, 251));
            prop::ensure_eq(pa.add(&pb, &mut NullMeter), pb.add(&pa, &mut NullMeter))
        });
    }

    #[test]
    fn prop_sub_is_inverse_of_add() {
        prop::check("sub_is_inverse_of_add", 256, |rng| {
            let pa = Poly::from_coeffs(prop::vec_u8(rng, 8, 251));
            let pb = Poly::from_coeffs(prop::vec_u8(rng, 8, 251));
            prop::ensure_eq(pa.add(&pb, &mut NullMeter).sub(&pb, &mut NullMeter), pa)
        });
    }
}
