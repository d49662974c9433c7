//! Polynomials over GF(2^m) and over GF(2).
//!
//! [`GfPoly`] carries field-element coefficients (minimal-polynomial
//! construction); [`BinPoly`] is a dense bit-packed
//! polynomial over GF(2) (BCH generator polynomials, codeword arithmetic).

use crate::Field;

/// A polynomial with coefficients in a [`Field`], lowest degree first.
///
/// The representation is normalized: no trailing zero coefficients (the zero
/// polynomial is an empty coefficient vector).
///
/// # Example
///
/// ```
/// use lac_gf::{poly::GfPoly, Field};
///
/// let gf = Field::gf512();
/// let p = GfPoly::from_coeffs(&[1, 0, 3]); // 1 + 3x²
/// assert_eq!(p.degree(), Some(2));
/// assert_eq!(p.eval(&gf, 1), 1 ^ 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct GfPoly {
    coeffs: Vec<u16>,
}

impl GfPoly {
    /// The zero polynomial.
    pub fn zero() -> Self {
        Self { coeffs: Vec::new() }
    }

    /// The constant polynomial 1.
    pub fn one() -> Self {
        Self { coeffs: vec![1] }
    }

    /// The monomial `c·x^k`.
    pub fn monomial(c: u16, k: usize) -> Self {
        if c == 0 {
            return Self::zero();
        }
        let mut coeffs = vec![0u16; k + 1];
        coeffs[k] = c;
        Self { coeffs }
    }

    /// Build from coefficients, lowest degree first (trailing zeros trimmed).
    pub fn from_coeffs(coeffs: &[u16]) -> Self {
        let mut coeffs = coeffs.to_vec();
        while coeffs.last() == Some(&0) {
            coeffs.pop();
        }
        Self { coeffs }
    }

    /// Coefficient view, lowest degree first.
    pub fn coeffs(&self) -> &[u16] {
        &self.coeffs
    }

    /// The coefficient of x^k (0 beyond the degree).
    pub fn coeff(&self, k: usize) -> u16 {
        self.coeffs.get(k).copied().unwrap_or(0)
    }

    /// Degree, or `None` for the zero polynomial.
    pub fn degree(&self) -> Option<usize> {
        self.coeffs.len().checked_sub(1)
    }

    /// Is this the zero polynomial?
    pub fn is_zero(&self) -> bool {
        self.coeffs.is_empty()
    }

    /// Polynomial addition (characteristic 2: also subtraction).
    pub fn add(&self, other: &Self) -> Self {
        let n = self.coeffs.len().max(other.coeffs.len());
        let mut out = vec![0u16; n];
        for (i, c) in out.iter_mut().enumerate() {
            *c = self.coeff(i) ^ other.coeff(i);
        }
        Self::from_coeffs(&out)
    }

    /// Polynomial multiplication in the given field.
    pub fn mul(&self, other: &Self, gf: &Field) -> Self {
        if self.is_zero() || other.is_zero() {
            return Self::zero();
        }
        let mut out = vec![0u16; self.coeffs.len() + other.coeffs.len() - 1];
        for (i, &a) in self.coeffs.iter().enumerate() {
            if a == 0 {
                continue;
            }
            for (j, &b) in other.coeffs.iter().enumerate() {
                out[i + j] ^= gf.mul(a, b);
            }
        }
        Self::from_coeffs(&out)
    }

    /// Multiply by the scalar `c`.
    pub fn scale(&self, c: u16, gf: &Field) -> Self {
        let out: Vec<u16> = self.coeffs.iter().map(|&a| gf.mul(a, c)).collect();
        Self::from_coeffs(&out)
    }

    /// Evaluate at `x` by Horner's rule.
    pub fn eval(&self, gf: &Field, x: u16) -> u16 {
        let mut acc = 0u16;
        for &c in self.coeffs.iter().rev() {
            acc = gf.mul(acc, x) ^ c;
        }
        acc
    }
}

/// A dense polynomial over GF(2), bit-packed (bit i of word i/64 = coefficient
/// of xⁱ).
///
/// # Example
///
/// ```
/// use lac_gf::poly::BinPoly;
///
/// let g = BinPoly::from_bits(&[1, 0, 1, 1]); // 1 + x² + x³
/// assert_eq!(g.degree(), Some(3));
/// let x5 = BinPoly::monomial(5);
/// let (_, r) = x5.div_rem(&g);
/// assert!(r.degree() < g.degree());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BinPoly {
    words: Vec<u64>,
}

impl BinPoly {
    /// The zero polynomial.
    pub fn zero() -> Self {
        Self { words: Vec::new() }
    }

    /// The monomial x^k.
    pub fn monomial(k: usize) -> Self {
        let mut p = Self::zero();
        p.set(k, true);
        p
    }

    /// Build from bits, lowest degree first.
    pub fn from_bits(bits: &[u8]) -> Self {
        let mut p = Self::zero();
        for (i, &b) in bits.iter().enumerate() {
            assert!(b <= 1, "bits must be 0 or 1");
            if b == 1 {
                p.set(i, true);
            }
        }
        p
    }

    /// Coefficient of xⁱ.
    pub fn get(&self, i: usize) -> bool {
        self.words
            .get(i / 64)
            .is_some_and(|w| (w >> (i % 64)) & 1 == 1)
    }

    /// Set the coefficient of xⁱ.
    pub fn set(&mut self, i: usize, value: bool) {
        let word = i / 64;
        if word >= self.words.len() {
            if !value {
                return;
            }
            self.words.resize(word + 1, 0);
        }
        if value {
            self.words[word] |= 1u64 << (i % 64);
        } else {
            self.words[word] &= !(1u64 << (i % 64));
        }
        self.trim();
    }

    fn trim(&mut self) {
        while self.words.last() == Some(&0) {
            self.words.pop();
        }
    }

    /// Degree, or `None` for the zero polynomial.
    pub fn degree(&self) -> Option<usize> {
        let last = *self.words.last()?;
        Some((self.words.len() - 1) * 64 + (63 - last.leading_zeros() as usize))
    }

    /// Is this the zero polynomial?
    pub fn is_zero(&self) -> bool {
        self.words.is_empty()
    }

    /// Number of nonzero coefficients.
    pub fn weight(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Addition over GF(2) (XOR).
    pub fn add(&self, other: &Self) -> Self {
        let n = self.words.len().max(other.words.len());
        let mut words = vec![0u64; n];
        for (i, w) in words.iter_mut().enumerate() {
            *w = self.words.get(i).copied().unwrap_or(0) ^ other.words.get(i).copied().unwrap_or(0);
        }
        let mut p = Self { words };
        p.trim();
        p
    }

    /// Shift left: multiply by x^k.
    pub fn shl(&self, k: usize) -> Self {
        if self.is_zero() {
            return Self::zero();
        }
        let mut out = Self::zero();
        let deg = self.degree().expect("nonzero");
        for i in 0..=deg {
            if self.get(i) {
                out.set(i + k, true);
            }
        }
        out
    }

    /// Carry-less multiplication over GF(2).
    pub fn mul(&self, other: &Self) -> Self {
        let mut out = Self::zero();
        let Some(deg) = self.degree() else {
            return out;
        };
        for i in 0..=deg {
            if self.get(i) {
                out = out.add(&other.shl(i));
            }
        }
        out
    }

    /// Polynomial division: returns `(quotient, remainder)`.
    ///
    /// # Panics
    ///
    /// Panics if `divisor` is zero.
    pub fn div_rem(&self, divisor: &Self) -> (Self, Self) {
        let d_deg = divisor.degree().expect("division by zero polynomial");
        let mut rem = self.clone();
        let mut quot = Self::zero();
        while let Some(r_deg) = rem.degree() {
            if r_deg < d_deg {
                break;
            }
            let shift = r_deg - d_deg;
            quot.set(shift, true);
            rem = rem.add(&divisor.shl(shift));
        }
        (quot, rem)
    }

    /// Remainder modulo `divisor`.
    pub fn rem(&self, divisor: &Self) -> Self {
        self.div_rem(divisor).1
    }

    /// The coefficients as bits, lowest degree first, exactly `len` entries.
    ///
    /// # Panics
    ///
    /// Panics if the polynomial has degree ≥ `len`.
    pub fn to_bits(&self, len: usize) -> Vec<u8> {
        if let Some(d) = self.degree() {
            assert!(d < len, "polynomial degree {d} does not fit in {len} bits");
        }
        (0..len).map(|i| u8::from(self.get(i))).collect()
    }
}

/// The cyclotomic coset of `i` modulo `n` (orbit of i under doubling):
/// `{i, 2i, 4i, …} mod n`, sorted.
pub fn cyclotomic_coset(n: u32, i: u32) -> Vec<u32> {
    let mut coset = Vec::new();
    let mut j = i % n;
    loop {
        coset.push(j);
        j = (j * 2) % n;
        if j == i % n {
            break;
        }
    }
    coset.sort_unstable();
    coset
}

/// The minimal polynomial of α^i over GF(2): ∏_{j ∈ C_i} (x − α^j).
///
/// The result always has coefficients in {0,1}; it is returned as a
/// [`BinPoly`].
///
/// # Panics
///
/// Panics if `i` is not in `1..2^m − 1` range semantics (i = 0 gives the
/// minimal polynomial of 1, which is x + 1 — allowed).
pub fn minimal_polynomial(gf: &Field, i: u32) -> BinPoly {
    let coset = cyclotomic_coset(u32::from(gf.order()), i);
    let mut acc = GfPoly::one();
    for &j in &coset {
        // (x + α^j) — addition is subtraction in characteristic 2.
        let factor = GfPoly::from_coeffs(&[gf.exp(j), 1]);
        acc = acc.mul(&factor, gf);
    }
    let mut out = BinPoly::zero();
    for (k, &c) in acc.coeffs().iter().enumerate() {
        assert!(c <= 1, "minimal polynomial must have binary coefficients");
        if c == 1 {
            out.set(k, true);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use lac_rand::{prop, Rng};

    fn gf() -> Field {
        Field::gf512()
    }

    #[test]
    fn gfpoly_degree_and_trim() {
        assert_eq!(GfPoly::zero().degree(), None);
        assert_eq!(GfPoly::from_coeffs(&[0, 0, 0]).degree(), None);
        assert_eq!(GfPoly::from_coeffs(&[5]).degree(), Some(0));
        assert_eq!(GfPoly::from_coeffs(&[1, 2, 0]).degree(), Some(1));
    }

    #[test]
    fn gfpoly_add_is_xor_of_coeffs() {
        let a = GfPoly::from_coeffs(&[1, 2, 3]);
        let b = GfPoly::from_coeffs(&[3, 2, 1]);
        assert_eq!(a.add(&b), GfPoly::from_coeffs(&[2, 0, 2]));
    }

    #[test]
    fn gfpoly_add_cancels_leading_terms() {
        let a = GfPoly::from_coeffs(&[1, 0, 7]);
        let b = GfPoly::from_coeffs(&[0, 0, 7]);
        assert_eq!(a.add(&b).degree(), Some(0));
    }

    #[test]
    fn gfpoly_mul_degree_adds() {
        let f = gf();
        let a = GfPoly::from_coeffs(&[1, 1]); // 1 + x
        let b = GfPoly::from_coeffs(&[1, 0, 1]); // 1 + x²
        let c = a.mul(&b, &f);
        assert_eq!(c.degree(), Some(3));
        // (1+x)(1+x²) = 1 + x + x² + x³ over GF(2) ⊂ GF(2^9).
        assert_eq!(c, GfPoly::from_coeffs(&[1, 1, 1, 1]));
    }

    #[test]
    fn gfpoly_eval_horner() {
        let f = gf();
        // p(x) = 3 + 5x + 7x²  at x = α.
        let p = GfPoly::from_coeffs(&[3, 5, 7]);
        let x = f.exp(1);
        let direct = 3 ^ f.mul(5, x) ^ f.mul(7, f.mul(x, x));
        assert_eq!(p.eval(&f, x), direct);
    }

    #[test]
    fn gfpoly_eval_roots_of_factor() {
        let f = gf();
        // (x + α^5)(x + α^9) must vanish at α^5 and α^9.
        let p = GfPoly::from_coeffs(&[f.exp(5), 1]).mul(&GfPoly::from_coeffs(&[f.exp(9), 1]), &f);
        assert_eq!(p.eval(&f, f.exp(5)), 0);
        assert_eq!(p.eval(&f, f.exp(9)), 0);
        assert_ne!(p.eval(&f, f.exp(6)), 0);
    }

    #[test]
    fn gfpoly_scale() {
        let f = gf();
        let p = GfPoly::from_coeffs(&[1, 2, 3]);
        let s = p.scale(f.exp(4), &f);
        for k in 0..3 {
            assert_eq!(s.coeff(k), f.mul(p.coeff(k), f.exp(4)));
        }
    }

    #[test]
    fn binpoly_basics() {
        let p = BinPoly::from_bits(&[1, 0, 1, 1]);
        assert_eq!(p.degree(), Some(3));
        assert!(p.get(0) && !p.get(1) && p.get(2) && p.get(3));
        assert_eq!(p.weight(), 3);
        assert_eq!(BinPoly::zero().degree(), None);
    }

    #[test]
    fn binpoly_set_clear_trims() {
        let mut p = BinPoly::monomial(100);
        p.set(100, false);
        assert!(p.is_zero());
    }

    #[test]
    fn binpoly_mul_matches_known_product() {
        // (1 + x)(1 + x + x²) = 1 + x³ over GF(2).
        let a = BinPoly::from_bits(&[1, 1]);
        let b = BinPoly::from_bits(&[1, 1, 1]);
        assert_eq!(a.mul(&b), BinPoly::from_bits(&[1, 0, 0, 1]));
    }

    #[test]
    fn binpoly_div_rem_reconstructs() {
        let a = BinPoly::from_bits(&[1, 0, 1, 1, 0, 1, 1, 0, 1]);
        let d = BinPoly::from_bits(&[1, 1, 0, 1]);
        let (q, r) = a.div_rem(&d);
        assert!(r.degree() < d.degree());
        assert_eq!(q.mul(&d).add(&r), a);
    }

    #[test]
    fn binpoly_to_bits_roundtrip() {
        let bits = [1u8, 0, 0, 1, 1, 0, 1];
        let p = BinPoly::from_bits(&bits);
        assert_eq!(p.to_bits(7), bits.to_vec());
        assert_eq!(p.to_bits(9)[7..], [0, 0]);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn binpoly_to_bits_too_small_panics() {
        BinPoly::monomial(8).to_bits(8);
    }

    #[test]
    fn coset_of_one_mod_511() {
        // C_1 = {1, 2, 4, 8, 16, 32, 64, 128, 256}: 9 elements (m = 9).
        let c = cyclotomic_coset(511, 1);
        assert_eq!(c, vec![1, 2, 4, 8, 16, 32, 64, 128, 256]);
    }

    #[test]
    fn cosets_partition() {
        // Cosets are disjoint and cover 1..511 (plus {0}).
        let mut seen = vec![false; 511];
        let mut total = 0;
        for i in 1..511u32 {
            if seen[i as usize] {
                continue;
            }
            for j in cyclotomic_coset(511, i) {
                assert!(!seen[j as usize], "element {j} in two cosets");
                seen[j as usize] = true;
                total += 1;
            }
        }
        assert_eq!(total, 510);
    }

    #[test]
    fn minimal_polynomial_of_alpha_is_field_poly() {
        // The minimal polynomial of α is the primitive polynomial itself.
        let f = gf();
        let m1 = minimal_polynomial(&f, 1);
        assert_eq!(m1, BinPoly::from_bits(&[1, 0, 0, 0, 1, 0, 0, 0, 0, 1]));
    }

    #[test]
    fn minimal_polynomial_annihilates_whole_coset() {
        let f = gf();
        for i in [1u32, 3, 5, 7, 9] {
            let mp = minimal_polynomial(&f, i);
            // Evaluate the binary polynomial at α^j for every j in C_i.
            for j in cyclotomic_coset(511, i) {
                let mut acc = 0u16;
                let x = f.exp(j);
                for k in (0..=mp.degree().unwrap()).rev() {
                    acc = f.mul(acc, x) ^ u16::from(mp.get(k));
                }
                assert_eq!(acc, 0, "m_{i}(α^{j}) != 0");
            }
        }
    }

    #[test]
    fn minimal_polynomial_of_zero_power() {
        // α^0 = 1 has minimal polynomial x + 1.
        let f = gf();
        assert_eq!(minimal_polynomial(&f, 0), BinPoly::from_bits(&[1, 1]));
    }

    #[test]
    fn prop_binpoly_div_rem_invariant() {
        prop::check("binpoly_div_rem_invariant", 128, |rng| {
            let a_len = rng.gen_range_usize(1..128);
            let d_len = rng.gen_range_usize(1..32);
            let a = BinPoly::from_bits(&prop::vec_u8(rng, a_len, 2));
            let mut d = BinPoly::from_bits(&prop::vec_u8(rng, d_len, 2));
            if d.is_zero() {
                d = BinPoly::monomial(0);
            }
            let (q, r) = a.div_rem(&d);
            prop::ensure_eq(q.mul(&d).add(&r), a)?;
            if let (Some(rd), Some(dd)) = (r.degree(), d.degree()) {
                prop::ensure(rd < dd, "remainder degree not below divisor")?;
            }
            Ok(())
        });
    }

    #[test]
    fn prop_gfpoly_mul_commutative() {
        prop::check("gfpoly_mul_commutative", 128, |rng| {
            let a_len = rng.gen_below_usize(12);
            let b_len = rng.gen_below_usize(12);
            let f = Field::gf512();
            let pa = GfPoly::from_coeffs(&prop::vec_u16(rng, a_len, 512));
            let pb = GfPoly::from_coeffs(&prop::vec_u16(rng, b_len, 512));
            prop::ensure_eq(pa.mul(&pb, &f), pb.mul(&pa, &f))
        });
    }

    #[test]
    fn prop_gfpoly_eval_is_ring_hom() {
        prop::check("gfpoly_eval_is_ring_hom", 128, |rng| {
            let a_len = rng.gen_below_usize(10);
            let b_len = rng.gen_below_usize(10);
            let f = Field::gf512();
            let pa = GfPoly::from_coeffs(&prop::vec_u16(rng, a_len, 512));
            let pb = GfPoly::from_coeffs(&prop::vec_u16(rng, b_len, 512));
            let x = prop::vec_u16(rng, 1, 512)[0];
            // eval(a*b) = eval(a)*eval(b), eval(a+b) = eval(a)+eval(b)
            prop::ensure_eq(
                pa.mul(&pb, &f).eval(&f, x),
                f.mul(pa.eval(&f, x), pb.eval(&f, x)),
            )?;
            prop::ensure_eq(pa.add(&pb).eval(&f, x), pa.eval(&f, x) ^ pb.eval(&f, x))
        });
    }
}
