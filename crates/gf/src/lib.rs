//! Binary-extension Galois field arithmetic GF(2^m), built from scratch.
//!
//! The BCH error-correcting code used by LAC works over GF(2⁹) generated by
//! the primitive polynomial p(x) = 1 + x⁴ + x⁹ (Section IV-B of the paper).
//! This crate provides:
//!
//! * [`Field`] — a field context carrying log/antilog tables for fast
//!   table-based multiplication (the software decoder's method);
//! * [`mul_shift_add`] — the bit-serial shift-and-add multiplication of the
//!   paper's *MUL GF* datapath (Fig. 3), written once: the branch-free
//!   product [`Field::mul_shift_add`] of the constant-time
//!   Berlekamp–Massey and `lac-hw`'s `MulGf` unit model both run it;
//! * [`poly::GfPoly`] — polynomials with coefficients in the field, used to
//!   build minimal polynomials (the BCH decoders keep their error locators
//!   as plain coefficient vectors);
//! * [`poly::BinPoly`] — dense polynomials over GF(2), used for BCH
//!   generator polynomials and LFSR-style systematic encoding;
//! * [`poly::minimal_polynomial`] / [`poly::cyclotomic_coset`] — the number
//!   theory needed to construct BCH generator polynomials at run time.
//!
//! # Example
//!
//! ```
//! use lac_gf::Field;
//!
//! let gf = Field::gf512();
//! let a = gf.exp(9); // α⁹ = 1 + α⁴  →  vector 0b000010001
//! assert_eq!(a, 0b000010001);
//! assert_eq!(gf.mul(a, gf.exp(1)), gf.exp(10));
//! ```

#![warn(missing_docs)]

pub mod poly;

use lac_meter::{Meter, Op};

/// The primitive polynomial of LAC's BCH field: p(x) = 1 + x⁴ + x⁹.
pub const LAC_PRIMITIVE_POLY: u32 = (1 << 9) | (1 << 4) | 1;

/// Bit-serial shift-and-add multiplication with interleaved reduction in
/// GF(2^m) generated by the primitive polynomial `poly` — the exact
/// dataflow of the paper's *MUL GF* hardware (Fig. 3), in exactly `m`
/// iterations regardless of operand values.
///
/// Both selects in an iteration, the reduction and the add, are an AND
/// with a mask that passes one optimisation barrier, so the compiled code
/// has no branch on the operands either. That was checked with `objdump`
/// on x86-64 release builds, in the copies inlined into the constant-time
/// Berlekamp–Massey and the syndrome kernel.
///
/// # Example
///
/// ```
/// use lac_gf::{mul_shift_add, Field, LAC_PRIMITIVE_POLY};
///
/// let gf = Field::gf512();
/// let (a, b) = (gf.exp(100), gf.exp(200));
/// assert_eq!(mul_shift_add(9, LAC_PRIMITIVE_POLY, a, b), gf.exp(300));
/// ```
#[inline]
pub fn mul_shift_add(m: u32, poly: u32, a: u16, b: u16) -> u16 {
    let mut c: u32 = 0;
    // Process b from the most significant bit down, as the hardware's
    // Control Unit does (it forwards b_{m-1} first).
    for i in (0..m).rev() {
        // Shift left; reduce by the primitive polynomial if the bit
        // leaving the register is set (feedback loop in Fig. 3).
        c <<= 1;
        c ^= mask((c >> m) & 1) & poly;
        // Add a if the current bit of b is set (AND gates in Fig. 3).
        c ^= mask(u32::from((b >> i) & 1)) & u32::from(a);
    }
    debug_assert!(c >> m == 0, "operands must be field elements");
    c as u16
}

/// All ones if `bit` is 1 and zero if it is 0, behind an optimisation
/// barrier. Without it the compiler knows the mask takes two values, and
/// the AND it feeds may become a conditional jump: x86-64 release builds
/// make the reduction select a `je` over a `mov` inside the constant-time
/// Berlekamp–Massey, whose host time then follows the error count. The
/// barrier is an empty `asm!` on a register, not `black_box`, which
/// round-trips the mask through memory: the constant-time
/// Berlekamp–Massey runs about 15% faster with it (EXPERIMENTS E20).
#[inline(always)]
fn mask(bit: u32) -> u32 {
    // 64 bits wide, so the template names a whole register on both targets.
    let mut mask = u64::from(bit).wrapping_neg();
    #[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
    // SAFETY: the template is a comment naming the one register operand;
    // it reads and writes nothing else.
    unsafe {
        std::arch::asm!("/* {0} */", inout(reg) mask, options(pure, nomem, nostack, preserves_flags));
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    {
        mask = std::hint::black_box(mask);
    }
    mask as u32
}

/// A binary-extension field GF(2^m), 2 ≤ m ≤ 16.
///
/// Elements are `u16` values in vector representation: bit i is the
/// coefficient of αⁱ. The zero element is `0`; the multiplicative group is
/// generated by `α = 0b10`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Field {
    m: u32,
    poly: u32,
    order: u16,     // 2^m - 1
    log: Vec<u16>,  // log[v] for v in 1..=order; log[alpha^i] = i
    alog: Vec<u16>, // alog[i] = alpha^i, doubled to avoid a reduction
}

impl Field {
    /// Construct GF(2^m) from a degree-m primitive polynomial given as a bit
    /// mask (bit i = coefficient of xⁱ).
    ///
    /// # Panics
    ///
    /// Panics if `m` is outside `2..=16`, if `poly` does not have degree
    /// exactly `m`, or if `poly` is not primitive (i.e. α does not generate
    /// the full multiplicative group).
    pub fn new(m: u32, poly: u32) -> Self {
        assert!((2..=16).contains(&m), "m must be in 2..=16");
        assert_eq!(32 - poly.leading_zeros() - 1, m, "poly must have degree m");
        let order = ((1u32 << m) - 1) as u16;
        let mut log = vec![0u16; (order as usize) + 1];
        let mut alog = vec![0u16; 2 * order as usize];
        let mut v: u32 = 1;
        for i in 0..order {
            assert!(
                i == 0 || v != 1,
                "polynomial {poly:#x} is not primitive for m={m}"
            );
            alog[i as usize] = v as u16;
            alog[(i + order) as usize] = v as u16;
            log[v as usize] = i;
            v <<= 1;
            if v >> m != 0 {
                v ^= poly;
            }
        }
        assert_eq!(v, 1, "polynomial {poly:#x} is not primitive for m={m}");
        Self {
            m,
            poly,
            order,
            log,
            alog,
        }
    }

    /// The field GF(2⁹) used by LAC's BCH codes, with p(x) = 1 + x⁴ + x⁹.
    pub fn gf512() -> Self {
        Self::new(9, LAC_PRIMITIVE_POLY)
    }

    /// Extension degree m.
    pub fn m(&self) -> u32 {
        self.m
    }

    /// Order of the multiplicative group, 2^m − 1.
    pub fn order(&self) -> u16 {
        self.order
    }

    /// α^i (power → vector representation), for any i (reduced mod 2^m − 1).
    pub fn exp(&self, i: u32) -> u16 {
        self.alog[(i % u32::from(self.order)) as usize]
    }

    /// Discrete logarithm: the i with α^i = `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is zero or not a field element.
    pub fn log(&self, v: u16) -> u16 {
        assert!(v != 0, "log of zero is undefined");
        assert!(v <= self.order, "not a field element");
        self.log[v as usize]
    }

    /// Field addition (= subtraction): bitwise XOR of vector representations.
    #[inline]
    pub fn add(&self, a: u16, b: u16) -> u16 {
        a ^ b
    }

    /// Table-based multiplication via log/antilog (the fast, *variable-time*
    /// software method: it branches on zero operands).
    #[inline]
    pub fn mul(&self, a: u16, b: u16) -> u16 {
        if a == 0 || b == 0 {
            return 0;
        }
        self.alog[self.log[a as usize] as usize + self.log[b as usize] as usize]
    }

    /// Metered variant of [`Field::mul`]: charges the table lookups and the
    /// zero-check branch of the software implementation.
    #[inline]
    pub fn mul_metered<M: Meter>(&self, a: u16, b: u16, meter: &mut M) -> u16 {
        meter.charge(Op::Branch, 2); // two zero checks
        if a == 0 || b == 0 {
            return 0;
        }
        meter.charge(Op::Load, 3); // log[a], log[b], alog[sum]
        meter.charge(Op::Alu, 2); // index add + address arithmetic
        self.alog[self.log[a as usize] as usize + self.log[b as usize] as usize]
    }

    /// [`mul_shift_add`] in this field: the branch-free product, m
    /// iterations whatever the operands.
    #[inline]
    pub fn mul_shift_add(&self, a: u16, b: u16) -> u16 {
        mul_shift_add(self.m, self.poly, a, b)
    }

    /// Multiplicative inverse.
    ///
    /// # Panics
    ///
    /// Panics if `v` is zero.
    pub fn inv(&self, v: u16) -> u16 {
        assert!(v != 0, "inverse of zero is undefined");
        let l = self.log[v as usize];
        self.alog[(self.order - l) as usize]
    }

    /// `base` raised to the integer power `e` (e may exceed the group order).
    pub fn pow(&self, base: u16, e: u32) -> u16 {
        if base == 0 {
            return if e == 0 { 1 } else { 0 };
        }
        let l = u64::from(self.log[base as usize]) * u64::from(e);
        self.alog[(l % u64::from(self.order)) as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lac_meter::CycleLedger;
    use lac_rand::prop;

    #[test]
    fn paper_vector_representations() {
        // Section IV-B: α⁹ = 1 + α⁴, α¹⁰ = α + α⁵, α¹¹ = α² + α⁶.
        let gf = Field::gf512();
        assert_eq!(gf.exp(9), (1 << 0) | (1 << 4));
        assert_eq!(gf.exp(10), (1 << 1) | (1 << 5));
        assert_eq!(gf.exp(11), (1 << 2) | (1 << 6));
    }

    #[test]
    fn group_order_is_511() {
        let gf = Field::gf512();
        assert_eq!(gf.order(), 511);
        assert_eq!(gf.exp(511), 1); // α^(2^m - 1) = 1
        assert_eq!(gf.exp(512), 2); // then α again
    }

    #[test]
    fn log_exp_roundtrip() {
        let gf = Field::gf512();
        for i in 0..511u32 {
            assert_eq!(u32::from(gf.log(gf.exp(i))), i);
        }
    }

    #[test]
    fn mul_by_zero_and_one() {
        let gf = Field::gf512();
        for v in 0..=511u16 {
            assert_eq!(gf.mul(v, 0), 0);
            assert_eq!(gf.mul(0, v), 0);
            assert_eq!(gf.mul(v, 1), v);
        }
    }

    #[test]
    fn inverse_is_inverse() {
        let gf = Field::gf512();
        for v in 1..=511u16 {
            assert_eq!(gf.mul(v, gf.inv(v)), 1);
        }
    }

    #[test]
    fn pow_matches_repeated_mul() {
        let gf = Field::gf512();
        let base = gf.exp(37);
        let mut acc = 1u16;
        for e in 0..40u32 {
            assert_eq!(gf.pow(base, e), acc);
            acc = gf.mul(acc, base);
        }
    }

    #[test]
    fn pow_of_zero() {
        let gf = Field::gf512();
        assert_eq!(gf.pow(0, 0), 1);
        assert_eq!(gf.pow(0, 5), 0);
    }

    #[test]
    fn shift_add_matches_table_mul_exhaustively_small_field() {
        // GF(2^4) with x^4 + x + 1 is small enough to check every pair.
        let gf = Field::new(4, 0b10011);
        for a in 0..16u16 {
            for b in 0..16u16 {
                assert_eq!(mul_shift_add(4, 0b10011, a, b), gf.mul(a, b), "{a} * {b}");
            }
        }
    }

    #[test]
    fn table_mul_cost_depends_on_zero_operands() {
        let gf = Field::gf512();
        let mut lz = CycleLedger::new();
        gf.mul_metered(0, 7, &mut lz);
        let mut lnz = CycleLedger::new();
        gf.mul_metered(3, 7, &mut lnz);
        assert!(lnz.total() > lz.total());
    }

    #[test]
    #[should_panic(expected = "not primitive")]
    fn non_primitive_poly_rejected() {
        // x^4 + x^3 + x^2 + x + 1 is irreducible but not primitive.
        Field::new(4, 0b11111);
    }

    #[test]
    #[should_panic(expected = "degree m")]
    fn wrong_degree_rejected() {
        Field::new(9, 0b10011);
    }

    fn gf512_pair(rng: &mut impl lac_rand::Rng) -> (u16, u16) {
        let v = prop::vec_u16(rng, 2, 512);
        (v[0], v[1])
    }

    #[test]
    fn prop_mul_commutative() {
        prop::check("gf_mul_commutative", 256, |rng| {
            let (a, b) = gf512_pair(rng);
            let gf = Field::gf512();
            prop::ensure_eq(gf.mul(a, b), gf.mul(b, a))
        });
    }

    #[test]
    fn prop_mul_associative() {
        prop::check("gf_mul_associative", 256, |rng| {
            let (a, b) = gf512_pair(rng);
            let c = prop::vec_u16(rng, 1, 512)[0];
            let gf = Field::gf512();
            prop::ensure_eq(gf.mul(gf.mul(a, b), c), gf.mul(a, gf.mul(b, c)))
        });
    }

    #[test]
    fn prop_distributive() {
        prop::check("gf_distributive", 256, |rng| {
            let (a, b) = gf512_pair(rng);
            let c = prop::vec_u16(rng, 1, 512)[0];
            let gf = Field::gf512();
            prop::ensure_eq(gf.mul(a, gf.add(b, c)), gf.add(gf.mul(a, b), gf.mul(a, c)))
        });
    }

    #[test]
    fn prop_shift_add_matches_table() {
        prop::check("gf_shift_add_matches_table", 256, |rng| {
            let (a, b) = gf512_pair(rng);
            let gf = Field::gf512();
            prop::ensure_eq(gf.mul_shift_add(a, b), gf.mul(a, b))
        });
    }

    #[test]
    fn prop_metered_mul_matches() {
        prop::check("gf_metered_mul_matches", 256, |rng| {
            let (a, b) = gf512_pair(rng);
            let gf = Field::gf512();
            let mut ledger = CycleLedger::new();
            prop::ensure_eq(gf.mul_metered(a, b, &mut ledger), gf.mul(a, b))
        });
    }
}
