//! The one BCH value path: the syndromes and the Chien search.
//!
//! Every decoder takes its values from these two functions — the
//! submission-style and Walters decoders here and `lac-hw`'s MUL CHIEN
//! unit — and charges its own modelled loops in closed form (DESIGN's
//! cycle-model rule 1: the charged algorithm is the modelled RISCY code;
//! the host computes the same function once). Neither function branches
//! on, or indexes a table with, anything derived from the received word or
//! the error locator: those values only ever meet masks. Loop bounds and
//! table indexes come from the code and the exponent range alone.

use crate::BchCode;
use std::ops::RangeInclusive;

/// The syndromes S_i = r(α^i), i = 1..=2t, of `received` (one bit per
/// `u8`, values 0/1, laid out as [`BchCode::encode`] returns them).
///
/// Masked accumulation for odd i: each position p adds α^(i·p) under the
/// mask of its bit, and the exponent i·p mod n is public. r has binary
/// coefficients, so each even syndrome is a square, S_2i = S_i², taken
/// with the branch-free shift-and-add product.
///
/// # Panics
///
/// Panics if `received.len() != code.codeword_len()`.
pub(crate) fn syndromes(code: &BchCode, received: &[u8]) -> Vec<u16> {
    assert_eq!(
        received.len(),
        code.codeword_len(),
        "received word has wrong length"
    );
    let gf = code.field();
    let order = u32::from(gf.order());
    let powers: Vec<u16> = (0..order).map(|e| gf.exp(e)).collect();
    let mut s = vec![0u16; 2 * code.t()];
    for i in 1..=s.len() {
        s[i - 1] = if i % 2 == 0 {
            gf.mul_shift_add(s[i / 2 - 1], s[i / 2 - 1])
        } else {
            let (mut e, mut acc) = (0, 0); // e = i·p mod n
            for &bit in received {
                acc ^= u16::from(bit & 1).wrapping_neg() & powers[e as usize];
                e += i as u32;
                e -= order & u32::from(e >= order).wrapping_neg();
            }
            acc
        };
    }
    s
}

/// Chien terms per chunk: eight `u16` lanes, one 128-bit vector register.
const LANES: usize = 8;

/// Evaluate Λ(x) = λ₀ + λ₁x + … + λ_t·x^t at x = α^l for every l in
/// `exponents`. Coefficients past `lambda`'s end read as zero, and any past
/// λ_t are ignored; the constant-time callers pass exactly t+1, so the
/// length is public.
///
/// Returns the error mask over the transmitted codeword — 1 at position
/// n − l wherever Λ(α^l) = 0 and n − l < `codeword_len()` — and the number
/// of roots in the whole range, shortened positions included.
///
/// Each term λ_j·α^(j·l), j = 1..=t, steps to the next exponent by its
/// public α^j, a GF(2)-linear map applied as m masked column XORs; the
/// first terms λ_j·α^(j·l₀) are one such map each. The terms sit in
/// chunks of eight `u16` lanes, so every column XOR is one vector
/// operation.
///
/// # Panics
///
/// Panics if the range reaches past n.
pub fn chien(code: &BchCode, lambda: &[u16], exponents: RangeInclusive<u32>) -> (Vec<u8>, usize) {
    let gf = code.field();
    let (n, t) = (code.n(), code.t());
    let (first, last) = exponents.into_inner();
    assert!(last as usize <= n, "exponent α^{last} is past n = {n}");
    let chunks = t.div_ceil(LANES);
    let lanes = |f: &dyn Fn(usize) -> u16| -> Vec<[u16; LANES]> {
        let chunk = |c: usize| std::array::from_fn(|k| f(1 + c * LANES + k));
        (0..chunks).map(chunk).collect()
    };
    // Row b of the map x ↦ x·α^(j·e) holds α^(b + j·e) in term j's lane.
    let map = |e: u32| -> Vec<[u16; LANES]> {
        (0..gf.m())
            .flat_map(|b| lanes(&|j| gf.exp(b + j as u32 * e)))
            .collect()
    };
    let apply = |map: &[[u16; LANES]], x: &[[u16; LANES]], y: &mut [[u16; LANES]]| {
        y.fill([0; LANES]);
        for (b, row) in map.chunks_exact(chunks).enumerate() {
            for ((y, x), c) in y.iter_mut().zip(x).zip(row) {
                for k in 0..LANES {
                    y[k] ^= ((x[k] >> b) & 1).wrapping_neg() & c[k];
                }
            }
        }
    };
    let coefficient = |j: usize| lambda.get(j).copied().unwrap_or(0);
    let lambda0 = coefficient(0);
    let coefficients = lanes(&|j| if j <= t { coefficient(j) } else { 0 });
    let mut terms = vec![[0; LANES]; chunks];
    apply(&map(first), &coefficients, &mut terms);
    let step = map(1);
    let mut next = terms.clone();
    let mut error_mask = vec![0u8; code.codeword_len()];
    let mut roots = 0;
    for l in first..=last {
        let sum = terms.iter().fold([0; LANES], |mut acc, chunk| {
            for k in 0..LANES {
                acc[k] ^= chunk[k];
            }
            acc
        });
        let value = sum.iter().fold(lambda0, |acc, &v| acc ^ v);
        let root = u8::from(value == 0);
        roots += usize::from(root);
        if let Some(slot) = error_mask.get_mut(n - l as usize) {
            *slot = root;
        }
        apply(&step, &terms, &mut next);
        std::mem::swap(&mut terms, &mut next);
    }
    (error_mask, roots)
}

#[cfg(test)]
mod tests {
    //! Oracles that share no code with the kernel: Horner's rule
    //! (`GfPoly::eval`) and direct evaluation, both with `Field`'s table
    //! products. `GfPoly::mul` builds locators with chosen roots.

    use super::*;
    use lac_gf::poly::GfPoly;
    use lac_meter::NullMeter;
    use lac_rand::{prop, Rng};

    /// r(α^i) by Horner's rule.
    fn horner(code: &BchCode, received: &[u8], i: u32) -> u16 {
        let r: Vec<u16> = received.iter().map(|&bit| u16::from(bit)).collect();
        GfPoly::from_coeffs(&r).eval(code.field(), code.field().exp(i))
    }

    /// Λ(α^l) = Σ_{j≤t} λ_j·(α^l)^j.
    fn direct(code: &BchCode, lambda: &[u16], l: u32) -> u16 {
        let gf = code.field();
        let x = gf.exp(l);
        let terms = lambda.iter().take(code.t() + 1).enumerate();
        terms.fold(0, |acc, (j, &c)| acc ^ gf.mul(c, gf.pow(x, j as u32)))
    }

    #[test]
    fn prop_syndromes_match_horner() {
        let codes = [BchCode::lac_t8(), BchCode::lac_t16()];
        prop::check("kernel_syndromes_match_horner", 32, |rng| {
            for code in &codes {
                // A codeword with 0..=2t errors, or a uniformly random word.
                let received = if rng.gen_bool() {
                    let mut msg = [0u8; 32];
                    rng.fill_bytes(&mut msg);
                    let mut cw = code.encode(&msg, &mut NullMeter);
                    for p in prop::distinct_positions(rng, cw.len(), 2 * code.t()) {
                        cw[p] ^= 1;
                    }
                    cw
                } else {
                    prop::vec_u8(rng, code.codeword_len(), 2)
                };
                let expect: Vec<u16> = (1..=2 * code.t() as u32)
                    .map(|i| horner(code, &received, i))
                    .collect();
                prop::ensure_eq(syndromes(code, &received), expect)?;
            }
            Ok(())
        });
    }

    #[test]
    fn prop_chien_matches_direct_evaluation() {
        let codes = [BchCode::lac_t8(), BchCode::lac_t16()];
        prop::check("kernel_chien_matches_direct_evaluation", 32, |rng| {
            for code in &codes {
                let gf = code.field();
                let (n, t, len) = (code.n(), code.t(), code.codeword_len());
                let window = code.chien_window();
                // Half the cases use all t+1 coefficients.
                let terms = if rng.gen_bool() {
                    t + 1
                } else {
                    1 + rng.gen_below_usize(t + 1)
                };
                // Random coefficients, a quarter of them zero, or the
                // product of terms − 1 factors (1 + α^(n−l)·x), whose roots
                // α^l the search must find; half of those l are the ends
                // of the three ranges below.
                let lambda = if rng.gen_bool() {
                    let mut lambda = prop::vec_u16(rng, terms, 512);
                    for c in lambda.iter_mut() {
                        if rng.gen_below_u32(4) == 0 {
                            *c = 0;
                        }
                    }
                    lambda
                } else {
                    let ends = [
                        1,
                        n - (len - 1),
                        n,
                        *window.start() as usize,
                        *window.end() as usize,
                    ];
                    let mut lambda = GfPoly::one();
                    for _ in 1..terms {
                        let l = if rng.gen_bool() {
                            ends[rng.gen_below_usize(ends.len())]
                        } else {
                            1 + rng.gen_below_usize(n)
                        };
                        let factor = GfPoly::from_coeffs(&[1, gf.exp((n - l) as u32)]);
                        lambda = lambda.mul(&factor, gf);
                    }
                    lambda.coeffs().to_vec()
                };
                let codeword = (n - (len - 1)) as u32..=n as u32;
                for range in [1..=n as u32, codeword, window.clone()] {
                    let mut mask = vec![0u8; len];
                    let mut roots = 0;
                    for l in range.clone() {
                        let root = u8::from(direct(code, &lambda, l) == 0);
                        roots += usize::from(root);
                        if let Some(slot) = mask.get_mut(n - l as usize) {
                            *slot = root;
                        }
                    }
                    prop::ensure_eq(chien(code, &lambda, range), (mask, roots))?;
                }
            }
            Ok(())
        });
    }
}
