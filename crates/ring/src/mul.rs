//! Ternary × general polynomial multiplication: the one product kernel and
//! the LAC reference implementation's cost profile.
//!
//! [`ternary_product`] is the only code that evaluates Eq. (1). It charges
//! nothing: each caller charges the algorithm it models and takes the
//! values from the kernel. [`mul_ternary`] and [`mul_ternary_truncated`]
//! charge the reference schoolbook; `lac-hw`'s `MulTer::multiply` charges
//! the MUL TER unit.
//!
//! The kernel has two bodies. On x86-64 hosts whose CPU reports AVX2 it
//! runs on byte lanes: every operand fits in a byte (b < 251, the secret
//! in {−1, 0, 1}), so one `vpmaddubsw` multiplies 32 unsigned bytes of b
//! by 32 signed bytes of the reversed secret and adds them in pairs into
//! i16 lanes. The wrapped half of b's copy holds q − b_t for the
//! negacyclic ring, so no byte carries a sign; a pair sum is at most
//! 2 · 251 = 502 in magnitude, and the lanes are widened into i32 at
//! least every 64 steps (64 · 502 < 2¹⁵) and reduced once per output.
//! Everywhere else it runs the portable body on i16 lanes, which the
//! tests also use as the oracle. Both give the same coefficients, and no
//! charge depends on which ran.
//!
//! The reference LAC code multiplies a ternary polynomial by a general one
//! with a plain n² schoolbook loop — Table II measures this at ~2.38M cycles
//! for n = 512 and ~9.48M for n = 1024 (independent of the secret's weight,
//! i.e. the inner loop runs for zero coefficients too). Per inner iteration
//! it costs two loads, one multiply, one accumulate and the loop overhead (9
//! modelled cycles), plus a final Barrett reduction pass. LAC's encryption
//! only needs the first `lv` coefficients of `b·s'` (the ones that carry the
//! BCH codeword), and the reference implementation exploits this: its cost
//! is `out_len · n` inner iterations instead of `n²`. Table II's LAC-192
//! encapsulation (13.4M cycles, not 19.8M) reflects exactly this
//! optimization. The charges depend only on n and `out_len`, so both
//! functions charge them once, in closed form.

use crate::{reduce_i32, Convolution, Poly, TernaryPoly};
use lac_meter::{Meter, Op, Phase};

/// Output rows computed per pass: each load of the reversed secret feeds
/// this many rows.
const ROWS: usize = 8;

/// The first `out_len` coefficients of `a · b mod (xⁿ ∓ 1)`, unmetered.
///
/// Implements Eq. (1) of the paper:
/// cᵢ = Σ_{j≤i} aⱼ b_{i−j} ± Σ_{j>i} aⱼ b_{n+i−j} (sign by convolution).
/// Both sums become one dot product over an extended copy `e` of b, built
/// once per call: `e[t]` ≡ ±b_t (mod q) for t < n and b_{t−n} for t ≥ n,
/// zero past each copy of b. With `a_rev` the secret reversed (length la),
/// `cᵢ = Σₖ a_rev[k]·e[n+i+1−la+k]`, so a full-length row is one
/// fixed-length dot product, reduced once with Barrett. Eight rows are
/// computed per pass over the secret.
///
/// On x86-64 hosts whose CPU reports AVX2 the product runs
/// `avx2::ternary_product` on byte lanes; everywhere else it runs
/// `ternary_product_portable` on i16 lanes, which the tests also use as
/// the oracle. Both compute the same coefficients, so no caller's value
/// or charge depends on the host. Loop bounds and indexes depend only on
/// n, the operand lengths and `out_len`, never on a coefficient's value.
/// Operands shorter than n are zero-extended.
///
/// # Panics
///
/// Panics if an operand is longer than n, `out_len` exceeds n, or n
/// exceeds 4096.
pub fn ternary_product(
    a: &TernaryPoly,
    b: &Poly,
    n: usize,
    conv: Convolution,
    out_len: usize,
) -> Poly {
    assert!(
        a.len() <= n && b.len() <= n,
        "operand longer than the ring dimension {n}"
    );
    assert!(out_len <= n, "out_len exceeds ring dimension");
    // A row sums at most n − 1 wrapped terms of 251 (q − 0, in the AVX2
    // body) and one unwrapped term of 250, so |cᵢ| ≤ 251·n − 1, inside
    // `reduce_i32`'s range for n ≤ 4096.
    assert!(n <= 4096, "ring dimension {n} above 4096");
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: `avx2::ternary_product` needs the `avx2` target feature,
        // and the CPU has just reported it.
        return unsafe { avx2::ternary_product(a, b, n, conv, out_len) };
    }
    ternary_product_portable(a, b, n, conv, out_len)
}

/// The portable body of [`ternary_product`]: i16 lanes, for hosts without
/// AVX2 and as the tests' oracle for `avx2::ternary_product`.
///
/// `e[t]` = ±b_t below n. Each term |aⱼ·bₖ| ≤ 250 is an i16 × i16
/// product; a row accumulates in `i32` (up to n · 250). Each block of
/// rows runs only over the part of its window where e holds a copy of b,
/// so a zero-extended operand costs less than a full one.
fn ternary_product_portable(
    a: &TernaryPoly,
    b: &Poly,
    n: usize,
    conv: Convolution,
    out_len: usize,
) -> Poly {
    let (la, lb) = (a.len(), b.len());
    let a_rev: Vec<i16> = a.coeffs().iter().rev().map(|&x| i16::from(x)).collect();
    let wrap = conv.wrap_sign() as i16;
    // The last block's rows past `out_len` read up to ROWS − 1 entries past
    // 2n; they are zero and the rows are dropped.
    let mut e = vec![0i16; 2 * n + ROWS - 1];
    for (t, &bt) in b.coeffs().iter().enumerate() {
        e[t] = wrap * i16::from(bt);
        e[n + t] = i16::from(bt);
    }
    let mut coeffs = Vec::with_capacity(out_len);
    for i0 in (0..out_len).step_by(ROWS) {
        // Row i0 + r reads e[s + r + k] for k < la. Some row of the block
        // reads the wrapped copy e[..lb] only for k < lo_end, and the
        // unwrapped copy e[n..n + lb] only for hi_start ≤ k < hi_end;
        // hi_end ≥ hi_start and hi_end ≥ lo_end for every shape.
        let s = n + i0 + 1 - la;
        let lo_end = la.min(lb.saturating_sub(s));
        let hi_start = (n + 1).saturating_sub(s + ROWS);
        let hi_end = la.min((n + lb).saturating_sub(s));
        let mut acc = [0i32; ROWS];
        if hi_start <= lo_end {
            // No zero gap between the two ranges: one pass, all of 0..la
            // for full-length operands.
            dot_rows(&a_rev[..hi_end], &e[s..], &mut acc);
        } else {
            dot_rows(&a_rev[..lo_end], &e[s..], &mut acc);
            dot_rows(&a_rev[hi_start..hi_end], &e[s + hi_start..], &mut acc);
        }
        coeffs.extend(acc.iter().take(out_len - i0).map(|&x| reduce_i32(x)));
    }
    Poly::from_coeffs(coeffs)
}

/// `acc[r] += Σₖ a[k]·e[r + k]` for every row r < [`ROWS`]: i16 products
/// summed in i32 lanes, which baseline x86-64 vectorises as `pmaddwd`
/// (the portable body only).
#[inline]
fn dot_rows(a: &[i16], e: &[i16], acc: &mut [i32; ROWS]) {
    let len = a.len();
    let windows: [&[i16]; ROWS] = std::array::from_fn(|r| &e[r..r + len]);
    let mut sums = [0i32; ROWS];
    for (k, &x) in a.iter().enumerate() {
        let x = i32::from(x);
        for (sum, w) in sums.iter_mut().zip(&windows) {
            *sum += x * i32::from(w[k]);
        }
    }
    for (total, sum) in acc.iter_mut().zip(sums) {
        *total += sum;
    }
}

/// [`ternary_product`] on AVX2 byte lanes: `vpmaddubsw` multiplies 32
/// unsigned bytes of b by 32 signed bytes of the secret, as each MAU of
/// Fig. 2 adds, subtracts or forwards its b tap.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::ROWS;
    use crate::{reduce_i32, Convolution, Poly, TernaryPoly, Q};
    use std::arch::x86_64::{
        __m256i, _mm256_add_epi16, _mm256_add_epi32, _mm256_hadd_epi32, _mm256_loadu_si256,
        _mm256_madd_epi16, _mm256_maddubs_epi16, _mm256_permute2x128_si256, _mm256_set1_epi16,
        _mm256_setzero_si256, _mm256_storeu_si256,
    };

    /// Coefficients per vector: one byte each.
    const LANES: usize = 32;

    /// Vector steps a row's i16 lanes take before they are widened to i32.
    /// Each step adds one pair sum of at most 2 · 251 = 502 in magnitude,
    /// and 64 · 502 = 32,128 < 2¹⁵, so no lane saturates or wraps.
    const STEPS_PER_WIDEN: usize = 64;

    // `row_sums` folds exactly eight accumulators into one vector.
    const _: () = assert!(ROWS == 8);

    /// The same coefficients as `ternary_product_portable`, from byte
    /// copies of the operands.
    ///
    /// `a_rev` is the reversed secret as i8, zero-padded to a multiple of
    /// [`LANES`]. `e` is b as u8, its wrapped half b_t for the cyclic ring
    /// and q − b_t ≡ −b_t (mod q) for the negacyclic one, so no byte needs
    /// a sign; it is zero past each copy of b and for the entries a block's
    /// last rows read past 2n. Per block of [`ROWS`] rows, every row takes
    /// one `vpmaddubsw` per 32 coefficients into i16 lanes, which
    /// `vpmaddwd` by ones widens into i32 every [`STEPS_PER_WIDEN`] steps.
    /// Each row is summed across its lanes and reduced once.
    ///
    /// Every row runs over the whole padded window: the padded and
    /// zero-extended entries are zero and add nothing.
    ///
    /// # Safety
    ///
    /// The CPU must support the `avx2` target feature.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn ternary_product(
        a: &TernaryPoly,
        b: &Poly,
        n: usize,
        conv: Convolution,
        out_len: usize,
    ) -> Poly {
        let la = a.len();
        let padded = la.div_ceil(LANES) * LANES;
        let mut a_rev = vec![0i8; padded];
        for (x, &c) in a_rev.iter_mut().zip(a.coeffs().iter().rev()) {
            *x = c;
        }
        let (base, wrap) = match conv {
            Convolution::Cyclic => (0, 1),
            Convolution::Negacyclic => (Q as i16, -1),
        };
        let mut e = vec![0u8; 2 * n + ROWS - 1 + padded - la];
        for (t, &bt) in b.coeffs().iter().enumerate() {
            e[t] = (base + wrap * i16::from(bt)) as u8;
            e[n + t] = bt;
        }
        let ones = _mm256_set1_epi16(1);
        let mut coeffs = Vec::with_capacity(out_len);
        for i0 in (0..out_len).step_by(ROWS) {
            // Row i0 + r reads window[r + k] for k < padded.
            let s = n + i0 + 1 - la;
            let window = &e[s..s + ROWS - 1 + padded];
            let mut wide = [_mm256_setzero_si256(); ROWS];
            for k0 in (0..padded).step_by(LANES * STEPS_PER_WIDEN) {
                let mut narrow = [_mm256_setzero_si256(); ROWS];
                for k in (k0..padded.min(k0 + LANES * STEPS_PER_WIDEN)).step_by(LANES) {
                    // SAFETY: k is a multiple of LANES below `padded`, a
                    // multiple of LANES too, so the read ends inside
                    // `a_rev` (`padded` bytes).
                    let x = unsafe { _mm256_loadu_si256(a_rev.as_ptr().add(k).cast()) };
                    for (r, sum) in narrow.iter_mut().enumerate() {
                        // SAFETY: the read ends at r + k + LANES ≤
                        // ROWS − 1 + padded, the length of `window`, which
                        // its slicing above checked.
                        let y = unsafe { _mm256_loadu_si256(window.as_ptr().add(r + k).cast()) };
                        *sum = _mm256_add_epi16(*sum, _mm256_maddubs_epi16(y, x));
                    }
                }
                for (total, sum) in wide.iter_mut().zip(narrow) {
                    *total = _mm256_add_epi32(*total, _mm256_madd_epi16(sum, ones));
                }
            }
            let sums = row_sums(&wide);
            coeffs.extend(sums.iter().take(out_len - i0).map(|&x| reduce_i32(x)));
        }
        // `reduce_i32` returns values below q, so the range check of
        // `Poly::from_coeffs`, a branch on every output, is skipped.
        Poly { coeffs }
    }

    /// The sum of each accumulator's eight i32 lanes, row by row.
    ///
    /// # Safety
    ///
    /// The CPU must support the `avx2` target feature.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn row_sums(wide: &[__m256i; ROWS]) -> [i32; ROWS] {
        // Each 128-bit half of `low4`/`high4` holds the partial sums of
        // rows 0–3 / 4–7 over that half's lanes.
        let low4 = _mm256_hadd_epi32(
            _mm256_hadd_epi32(wide[0], wide[1]),
            _mm256_hadd_epi32(wide[2], wide[3]),
        );
        let high4 = _mm256_hadd_epi32(
            _mm256_hadd_epi32(wide[4], wide[5]),
            _mm256_hadd_epi32(wide[6], wide[7]),
        );
        let sums = _mm256_add_epi32(
            _mm256_permute2x128_si256(low4, high4, 0x20),
            _mm256_permute2x128_si256(low4, high4, 0x31),
        );
        let mut out = [0i32; ROWS];
        // SAFETY: `out` holds ROWS = 8 i32s, the 32 bytes written.
        unsafe { _mm256_storeu_si256(out.as_mut_ptr().cast(), sums) };
        out
    }
}

/// Multiply a ternary polynomial by a general polynomial in
/// Z_q\[x\]/(xⁿ ∓ 1), charging the reference schoolbook under
/// [`Phase::Mul`].
///
/// # Panics
///
/// Panics if the operands have different lengths.
pub fn mul_ternary<M: Meter>(a: &TernaryPoly, b: &Poly, conv: Convolution, meter: &mut M) -> Poly {
    assert_eq!(a.len(), b.len(), "length mismatch");
    let n = a.len();
    meter.enter(Phase::Mul);
    let c = ternary_product(a, b, n, conv, n);
    // The full loop runs over the secret, loading each aⱼ once, then over
    // all n positions whatever aⱼ's value.
    meter.charge(Op::Load, n as u64);
    charge_reference(n, n, meter);
    meter.leave();
    c
}

/// Compute the first `out_len` coefficients of `a · b mod (xⁿ ∓ 1)`,
/// charging the reference schoolbook's `out_len · n` inner iterations
/// under [`Phase::Mul`].
///
/// # Panics
///
/// Panics if the operands differ in length or `out_len` exceeds it.
pub fn mul_ternary_truncated<M: Meter>(
    a: &TernaryPoly,
    b: &Poly,
    conv: Convolution,
    out_len: usize,
    meter: &mut M,
) -> Poly {
    assert_eq!(a.len(), b.len(), "length mismatch");
    let n = a.len();
    meter.enter(Phase::Mul);
    let c = ternary_product(a, b, n, conv, out_len);
    charge_reference(n, out_len, meter);
    meter.leave();
    c
}

/// Charge `rows` rows of the reference schoolbook — n inner iterations
/// each plus the row's loop overhead — and its Barrett pass over the
/// `rows` outputs.
fn charge_reference<M: Meter>(n: usize, rows: usize, meter: &mut M) {
    let (n, rows) = (n as u64, rows as u64);
    meter.charge(Op::Load, rows * 2 * n);
    meter.charge(Op::Mul, rows * n);
    meter.charge(Op::Alu, rows * n);
    meter.charge(Op::LoopIter, rows * (n + 1));
    // Per output: Barrett (two multiplies, four ALU ops), a load, a store
    // and the loop.
    meter.charge(Op::Mul, 2 * rows);
    meter.charge(Op::Alu, 4 * rows);
    meter.charge(Op::Load, rows);
    meter.charge(Op::Store, rows);
    meter.charge(Op::LoopIter, rows);
}

/// Full (unreduced) product of a ternary and a general polynomial: the
/// result has length `a.len() + b.len() − 1` and no ring reduction is
/// applied. The reference that tests check [`ternary_product`], the split
/// algorithms and the hardware model against.
pub fn mul_full(a: &TernaryPoly, b: &Poly) -> Vec<i32> {
    let mut acc = vec![0i32; (a.len() + b.len()).saturating_sub(1)];
    for (j, &aj) in a.coeffs().iter().enumerate() {
        if aj == 0 {
            continue;
        }
        for (k, &bk) in b.coeffs().iter().enumerate() {
            acc[j + k] += i32::from(aj) * i32::from(bk);
        }
    }
    acc
}

/// Reduce a full product (at most 2n coefficients) into R_n with the given
/// convolution. Reference helper for tests.
pub fn reduce_full(full: &[i32], n: usize, conv: Convolution) -> Poly {
    assert!(full.len() <= 2 * n, "full product too long for ring");
    let wrap = conv.wrap_sign();
    let mut acc = vec![0i32; n];
    for (i, &v) in full.iter().enumerate() {
        if i < n {
            acc[i] += v;
        } else {
            acc[i - n] += wrap * v;
        }
    }
    Poly::from_coeffs(acc.iter().map(|&v| reduce_i32(v)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use lac_meter::{CycleLedger, NullMeter};
    use lac_rand::{prop, Rng};

    fn tp(c: &[i8]) -> TernaryPoly {
        TernaryPoly::from_coeffs(c.to_vec())
    }

    fn gp(c: &[u8]) -> Poly {
        Poly::from_coeffs(c.to_vec())
    }

    #[test]
    fn small_cyclic_product() {
        // (1 + x) * (1 + 2x) mod (x^2 - 1) = 1 + 2x + x + 2x^2
        //  = (1 + 2) + 3x = 3 + 3x.
        let a = tp(&[1, 1]);
        let b = gp(&[1, 2]);
        let c = mul_ternary(&a, &b, Convolution::Cyclic, &mut NullMeter);
        assert_eq!(c.coeffs(), &[3, 3]);
    }

    #[test]
    fn small_negacyclic_product() {
        // Same product mod (x^2 + 1): 2x^2 ≡ −2 → (1 − 2) + 3x = −1 + 3x.
        let a = tp(&[1, 1]);
        let b = gp(&[1, 2]);
        let c = mul_ternary(&a, &b, Convolution::Negacyclic, &mut NullMeter);
        assert_eq!(c.coeffs(), &[250, 3]);
    }

    #[test]
    fn negative_coefficient_subtracts() {
        // (−1) * (5 + 7x) mod (x^2+1) = −5 − 7x = 246 + 244x.
        let a = tp(&[-1, 0]);
        let b = gp(&[5, 7]);
        let c = mul_ternary(&a, &b, Convolution::Negacyclic, &mut NullMeter);
        assert_eq!(c.coeffs(), &[246, 244]);
    }

    #[test]
    fn identity_multiplication() {
        let a = tp(&[1, 0, 0, 0]);
        let b = gp(&[9, 8, 7, 6]);
        for conv in [Convolution::Cyclic, Convolution::Negacyclic] {
            assert_eq!(mul_ternary(&a, &b, conv, &mut NullMeter), b);
        }
    }

    #[test]
    fn x_times_poly_rotates() {
        let a = tp(&[0, 1, 0, 0]); // x
        let b = gp(&[1, 2, 3, 4]);
        let cyc = mul_ternary(&a, &b, Convolution::Cyclic, &mut NullMeter);
        assert_eq!(cyc.coeffs(), &[4, 1, 2, 3]);
        let neg = mul_ternary(&a, &b, Convolution::Negacyclic, &mut NullMeter);
        assert_eq!(neg.coeffs(), &[251 - 4, 1, 2, 3]);
    }

    #[test]
    fn matches_full_then_reduce() {
        let a = tp(&[1, -1, 0, 1, 1, 0, -1, 1]);
        let b = gp(&[3, 1, 4, 1, 5, 9, 2, 6]);
        let full = mul_full(&a, &b);
        for conv in [Convolution::Cyclic, Convolution::Negacyclic] {
            assert_eq!(
                mul_ternary(&a, &b, conv, &mut NullMeter),
                reduce_full(&full, 8, conv)
            );
        }
    }

    #[test]
    fn reference_cost_profile_n512() {
        // Table II: LAC reference multiplication on RISC-V ≈ 2,381,843
        // cycles for n = 512. Our model must land within a few percent.
        let a = TernaryPoly::zero(512);
        let b = Poly::zero(512);
        let mut l = CycleLedger::new();
        mul_ternary(&a, &b, Convolution::Negacyclic, &mut l);
        let total = l.total();
        assert!(
            (2_200_000..2_600_000).contains(&total),
            "n=512 mul cost {total}"
        );
    }

    #[test]
    fn reference_cost_is_weight_independent() {
        // The n=1024 rows for LAC-192 (weight 256) and LAC-256 (weight 512)
        // report the same multiplication cost — the reference loop does not
        // skip zeros.
        let mut light = CycleLedger::new();
        mul_ternary(
            &TernaryPoly::zero(256),
            &Poly::zero(256),
            Convolution::Negacyclic,
            &mut light,
        );
        let dense = TernaryPoly::from_coeffs(vec![1i8; 256]);
        let mut heavy = CycleLedger::new();
        mul_ternary(
            &dense,
            &Poly::from_coeffs(vec![250u8; 256]),
            Convolution::Negacyclic,
            &mut heavy,
        );
        assert_eq!(light.total(), heavy.total());
    }

    #[test]
    fn cost_scales_quadratically() {
        let mut small = CycleLedger::new();
        mul_ternary(
            &TernaryPoly::zero(128),
            &Poly::zero(128),
            Convolution::Negacyclic,
            &mut small,
        );
        let mut big = CycleLedger::new();
        mul_ternary(
            &TernaryPoly::zero(256),
            &Poly::zero(256),
            Convolution::Negacyclic,
            &mut big,
        );
        let ratio = big.total() as f64 / small.total() as f64;
        assert!((3.5..4.5).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn cost_scales_with_out_len() {
        let a = TernaryPoly::zero(128);
        let b = Poly::zero(128);
        let mut half = CycleLedger::new();
        mul_ternary_truncated(&a, &b, Convolution::Negacyclic, 64, &mut half);
        let mut full = CycleLedger::new();
        mul_ternary_truncated(&a, &b, Convolution::Negacyclic, 128, &mut full);
        let ratio = full.total() as f64 / half.total() as f64;
        assert!((1.9..2.1).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    #[should_panic(expected = "above 4096")]
    fn oversized_ring_rejected() {
        ternary_product(
            &TernaryPoly::zero(0),
            &Poly::zero(0),
            4097,
            Convolution::Negacyclic,
            0,
        );
    }

    #[test]
    #[should_panic(expected = "out_len exceeds")]
    fn oversized_out_len_rejected() {
        let a = TernaryPoly::zero(8);
        let b = Poly::zero(8);
        mul_ternary_truncated(&a, &b, Convolution::Cyclic, 9, &mut NullMeter);
    }

    /// Checks the first `out_len` coefficients of the kernel, both of its
    /// bodies, and of the metered products on full-length operands, in
    /// both convolutions against `mul_full` + `reduce_full`.
    fn ensure_matches_reference(
        a: &TernaryPoly,
        b: &Poly,
        n: usize,
        out_len: usize,
    ) -> Result<(), String> {
        let full = mul_full(a, b);
        for conv in [Convolution::Cyclic, Convolution::Negacyclic] {
            let expect = reduce_full(&full, n, conv);
            let prefix = &expect.coeffs()[..out_len];
            prop::ensure_eq(ternary_product(a, b, n, conv, out_len).coeffs(), prefix)?;
            let portable = ternary_product_portable(a, b, n, conv, out_len);
            prop::ensure_eq(portable.coeffs(), prefix)?;
            if a.len() == n && b.len() == n {
                prop::ensure_eq(mul_ternary(a, b, conv, &mut NullMeter), expect.clone())?;
                let low = mul_ternary_truncated(a, b, conv, out_len, &mut NullMeter);
                prop::ensure_eq(low.coeffs(), prefix)?;
            }
        }
        Ok(())
    }

    /// Operands and a shape for the product properties: a ring dimension
    /// n, operands as long as it or shorter, and an `out_len`.
    fn random_operands(rng: &mut impl Rng) -> (TernaryPoly, Poly, usize, usize) {
        // LAC's ring sizes, small ones, and sizes that are not a multiple
        // of the kernel's row block.
        let n = [2, 6, 8, 10, 16, 512, 1024][rng.gen_below_usize(7)];
        // Operands as long as the ring, or shorter (zero-extended).
        let mut len = || {
            if rng.gen_bool() {
                n
            } else {
                rng.gen_range_usize(1..n + 1)
            }
        };
        let (la, lb) = (len(), len());
        let a = if rng.gen_bool() {
            TernaryPoly::from_coeffs(prop::vec_i8(rng, la, -1, 1))
        } else {
            // A fixed-weight secret: ±1 at distinct positions.
            let mut c = vec![0i8; la];
            for p in prop::distinct_positions(rng, la, la / 2) {
                c[p] = if rng.gen_bool() { 1 } else { -1 };
            }
            TernaryPoly::from_coeffs(c)
        };
        let b = Poly::from_coeffs(prop::vec_u8(rng, lb, 251));
        let out_len = [0, 1, rng.gen_below_usize(n + 1), n - 1, n][rng.gen_below_usize(5)];
        (a, b, n, out_len)
    }

    #[test]
    fn prop_matches_reference_reduction() {
        prop::check("mul_matches_reference_reduction", 64, |rng| {
            let (a, b, n, out_len) = random_operands(rng);
            ensure_matches_reference(&a, &b, n, out_len)
        });
    }

    /// The dispatched [`ternary_product`] against
    /// [`ternary_product_portable`] called directly. On a host without
    /// AVX2 the dispatch runs the portable body, so there this compares
    /// the portable body with itself.
    #[test]
    fn prop_dispatched_matches_portable() {
        prop::check("mul_dispatched_matches_portable", 256, |rng| {
            let (a, b, n, out_len) = random_operands(rng);
            for conv in [Convolution::Cyclic, Convolution::Negacyclic] {
                prop::ensure_eq(
                    ternary_product(&a, &b, n, conv, out_len),
                    ternary_product_portable(&a, &b, n, conv, out_len),
                )?;
            }
            Ok(())
        });
    }

    /// Extreme magnitudes through both bodies. Every term is ±250 for an
    /// all-250 b, so a full row at n = 1024 sums to ±256,000; the AVX2
    /// body's wrapped half holds q − 0 = 251 for a zero coefficient, so a
    /// byte-lane pair sum reaches ±502. At n = 4096 a row takes 128
    /// vector steps, past the i16 widening step. The portable body panics
    /// on an overflowing accumulator in a debug build, but intrinsic adds
    /// wrap silently in every build, so only such a case catches an i16
    /// run that is too long.
    #[test]
    fn extreme_magnitudes_through_both_bodies() {
        let zero_then_max = (0..1024).map(|t| if t < 512 { 0 } else { 250 }).collect();
        for b in [vec![250; 1024], vec![0; 1024], zero_then_max] {
            for sign in [1i8, -1] {
                // Full-length operands, then half-length ones,
                // zero-extended.
                for len in [1024, 512] {
                    let a = TernaryPoly::from_coeffs(vec![sign; len]);
                    let b = Poly::from_coeffs(b[..len].to_vec());
                    ensure_matches_reference(&a, &b, 1024, 1024).unwrap();
                }
            }
        }
        // b = 250, a constant: every coefficient of a·b is 250 times a's
        // sign in both rings.
        // In the AVX2 body the negacyclic rows sum up to 4095 wrapped terms
        // of ±251 (q − 0), so each i16 lane takes 64 pair sums of ±502
        // between widenings.
        let mut b = vec![0; 4096];
        b[0] = 250;
        let b = Poly::from_coeffs(b);
        for sign in [1i8, -1] {
            let a = TernaryPoly::from_coeffs(vec![sign; 4096]);
            let expect = Poly::from_coeffs(vec![reduce_i32(250 * i32::from(sign)); 4096]);
            for conv in [Convolution::Cyclic, Convolution::Negacyclic] {
                assert_eq!(ternary_product(&a, &b, 4096, conv, 4096), expect);
                assert_eq!(ternary_product_portable(&a, &b, 4096, conv, 4096), expect);
            }
        }
    }

    #[test]
    fn prop_distributes_over_addition() {
        prop::check("mul_distributes_over_addition", 64, |rng| {
            let a = TernaryPoly::from_coeffs(prop::vec_i8(rng, 8, -1, 1));
            let b = Poly::from_coeffs(prop::vec_u8(rng, 8, 251));
            let c = Poly::from_coeffs(prop::vec_u8(rng, 8, 251));
            let lhs = mul_ternary(
                &a,
                &b.add(&c, &mut NullMeter),
                Convolution::Negacyclic,
                &mut NullMeter,
            );
            let rhs = mul_ternary(&a, &b, Convolution::Negacyclic, &mut NullMeter).add(
                &mul_ternary(&a, &c, Convolution::Negacyclic, &mut NullMeter),
                &mut NullMeter,
            );
            prop::ensure_eq(lhs, rhs)
        });
    }
}
