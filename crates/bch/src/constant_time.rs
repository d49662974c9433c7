//! The constant-time (Walters–Roy style) BCH decoder.
//!
//! Every step performs a **fixed sequence of modelled operations**,
//! independent of the received word's contents:
//!
//! * syndromes: branch-free masked accumulation over every transmitted bit;
//! * error locator: inversion-free Berlekamp–Massey running all 2t
//!   iterations with branchless select of the update path;
//! * Chien search: full scan of the shortened codeword range, evaluating all
//!   t+1 locator terms with the bit-serial shift-and-add multiplication (the
//!   same dataflow as the paper's MUL GF hardware) — this is the step the
//!   paper accelerates, because it dominates the constant-time budget
//!   (Table I: 380k of 514k cycles);
//! * corrections: branchless conditional flip at every position.
//!
//! The decoded result equals the variable-time decoder's for any pattern of
//! up to t errors; only the cost model (and the real-world leakage) differs.
//!
//! [`decode_with`] is the one home of this pipeline, with the Chien step
//! as an argument: the software decoder passes its full-range search,
//! `lac-hw`'s accelerated decoder the MUL CHIEN unit's, so both share
//! every other charge.

use crate::{BchCode, Decoded};
use lac_meter::{Meter, Op, Phase};

/// Branch-free syndrome computation over the shortened codeword.
///
/// For each syndrome index i, walks all transmitted positions accumulating
/// `mask(r_p) & α^(i·p)` with an incrementally maintained exponent. The
/// charge per (syndrome, position) pair is fixed.
fn syndromes<M: Meter>(code: &BchCode, received: &[u8], meter: &mut M) -> Vec<u16> {
    let gf = code.field();
    let two_t = 2 * code.t();
    let order = u32::from(gf.order());
    let len = code.codeword_len();
    let mut s = vec![0u16; two_t];
    for (i, si) in s.iter_mut().enumerate() {
        let step = (i + 1) as u32;
        let mut idx = 0u32;
        let mut acc = 0u16;
        for &bit in received.iter().take(len) {
            let mask = (bit as u16).wrapping_neg();
            acc ^= mask & gf.exp(idx);
            idx += step;
            // Branchless wrap: idx ∈ [0, 2·order) before this line.
            idx -= order & ((idx >= order) as u32).wrapping_neg();
            meter.charge(Op::Load, 1);
            meter.charge(Op::Alu, 3);
            meter.charge(Op::LoopIter, 1);
        }
        *si = acc;
        meter.charge(Op::Store, 1);
        meter.charge(Op::LoopIter, 1);
    }
    s
}

/// Inversion-free Berlekamp–Massey, fixed 2t iterations, branchless updates.
///
/// Produces a scalar multiple of the error-locator polynomial (same roots,
/// same degree). Coefficient arrays have fixed length t+1.
fn berlekamp_massey<M: Meter>(code: &BchCode, s: &[u16], meter: &mut M) -> Vec<u16> {
    let gf = code.field();
    let t = code.t();
    let two_t = 2 * t;
    let mut lambda = vec![0u16; t + 2];
    let mut b = vec![0u16; t + 2];
    lambda[0] = 1;
    b[0] = 1;
    let mut gamma: u16 = 1;
    let mut k: i32 = 0;

    for r in 0..two_t {
        // δ = Σ_{i=0}^{t} λ_i · S_{r−i} with a fixed t+1-term charge.
        let mut delta = 0u16;
        for i in 0..=t {
            let s_val = if i <= r { s[r - i] } else { 0 };
            delta ^= gf.mul_masked_metered(lambda[i], s_val, meter);
            meter.charge(Op::Load, 2);
            meter.charge(Op::Alu, 1);
            meter.charge(Op::LoopIter, 1);
        }
        // λ_new = γ·λ − δ·x·b  (fixed t+2-term charge)
        let mut lambda_new = vec![0u16; t + 2];
        for i in 0..=t + 1 {
            let shifted_b = if i > 0 { b[i - 1] } else { 0 };
            lambda_new[i] = gf.mul_masked_metered(gamma, lambda[i], meter)
                ^ gf.mul_masked_metered(delta, shifted_b, meter);
            meter.charge(Op::Load, 2);
            meter.charge(Op::Alu, 1);
            meter.charge(Op::Store, 1);
            meter.charge(Op::LoopIter, 1);
        }
        // Branchless control: swap = (δ ≠ 0) ∧ (k ≥ 0).
        let swap = delta != 0 && k >= 0;
        let mask = (swap as u16).wrapping_neg();
        // Downward iteration: b[i] consumes b[i−1] (the x·b shift), so the
        // write order must not clobber unread entries.
        for i in (0..=t + 1).rev() {
            let shifted_b = if i > 0 { b[i - 1] } else { 0 };
            b[i] = (mask & lambda[i]) | (!mask & shifted_b);
            meter.charge(Op::Load, 2);
            meter.charge(Op::Alu, 3);
            meter.charge(Op::Store, 1);
            meter.charge(Op::LoopIter, 1);
        }
        gamma = (mask & delta) | (!mask & gamma);
        k = if swap { -k - 1 } else { k + 1 };
        meter.charge(Op::Alu, 6);
        lambda = lambda_new;
        meter.charge(Op::LoopIter, 1);
    }

    // Fixed-trace degree extraction: scan all coefficients.
    let mut degree = 0usize;
    for (i, &c) in lambda.iter().enumerate() {
        let nz = (c != 0) as usize;
        degree = nz * i + (1 - nz) * degree;
        meter.charge(Op::Load, 1);
        meter.charge(Op::Alu, 3);
        meter.charge(Op::LoopIter, 1);
    }
    lambda.truncate(degree + 1);
    lambda
}

/// Constant-time Chien search over the shortened codeword range.
///
/// Evaluates Λ(α^l) for every l covering transmitted positions, stepping all
/// t+1 terms with the shift-and-add GF multiplication (fixed m iterations
/// each). Returns a branchlessly-built error mask per position, plus the
/// root count.
pub(crate) fn chien<M: Meter>(code: &BchCode, lambda: &[u16], meter: &mut M) -> (Vec<u8>, usize) {
    let gf = code.field();
    let n = code.n();
    let t = code.t();
    let len = code.codeword_len();
    let lo = (n - (len - 1)) as u32; // exponent of the highest stored position

    // terms[j] = λ_j · α^(j·lo) initially; stepping multiplies by α^j.
    let mut terms = vec![0u16; t + 1];
    for (j, term) in terms.iter_mut().enumerate() {
        let lam = lambda.get(j).copied().unwrap_or(0);
        *term = gf.mul(lam, gf.pow(gf.exp(1), (j as u32) * lo));
        meter.charge(Op::Load, 3);
        meter.charge(Op::Alu, 2);
        meter.charge(Op::Store, 1);
        meter.charge(Op::LoopIter, 1);
    }

    let mut error_mask = vec![0u8; len];
    let mut roots = 0usize;
    for l in lo..=(n as u32) {
        let mut acc = 0u16;
        for term in terms.iter() {
            acc ^= term;
            meter.charge(Op::Load, 1);
            meter.charge(Op::Alu, 1);
            meter.charge(Op::LoopIter, 1);
        }
        let is_root = (acc == 0) as u8;
        let p = n - l as usize;
        error_mask[p] = is_root;
        roots += usize::from(is_root);
        meter.charge(Op::Alu, 4);
        meter.charge(Op::Store, 1);
        // Step all terms with the constant-time shift-and-add multiplier —
        // the software analogue of the MUL GF datapath (and the cost the
        // paper's MUL CHIEN unit eliminates).
        for (j, term) in terms.iter_mut().enumerate().skip(1) {
            *term = gf.mul_shift_add_metered(*term, gf.exp(j as u32), meter);
            meter.charge(Op::Load, 1);
            meter.charge(Op::Store, 1);
            meter.charge(Op::LoopIter, 1);
        }
        meter.charge(Op::LoopIter, 1);
    }
    (error_mask, roots)
}

/// The constant-time decode pipeline, each step under its own phase:
/// syndromes, Berlekamp–Massey, the Chien step `search` (given the error
/// locator, λ₀ first; returning the per-position error mask and the root
/// count), then the branchless flip and the message read-out as glue.
///
/// # Panics
///
/// Panics if `received.len() != code.codeword_len()`.
pub fn decode_with<M: Meter>(
    code: &BchCode,
    received: &[u8],
    meter: &mut M,
    search: impl FnOnce(&BchCode, &[u16], &mut M) -> (Vec<u8>, usize),
) -> Decoded {
    assert_eq!(
        received.len(),
        code.codeword_len(),
        "received word has wrong length"
    );

    meter.enter(Phase::BchSyndrome);
    let s = syndromes(code, received, meter);
    meter.leave();

    meter.enter(Phase::BchErrorLocator);
    let lambda = berlekamp_massey(code, &s, meter);
    meter.leave();

    meter.enter(Phase::BchChien);
    let locator_degree = lambda.len() - 1;
    let (error_mask, errors_located) = search(code, &lambda, meter);
    meter.leave();

    meter.enter(Phase::BchGlue);
    // Branchless conditional flip at every position.
    let mut corrected = received.to_vec();
    for (c, &e) in corrected.iter_mut().zip(error_mask.iter()) {
        *c ^= e;
        meter.charge(Op::Load, 2);
        meter.charge(Op::Alu, 1);
        meter.charge(Op::Store, 1);
        meter.charge(Op::LoopIter, 1);
    }
    let message = code.message_of(&corrected);
    meter.charge(Op::Load, crate::MESSAGE_BITS as u64);
    meter.charge(Op::Alu, crate::MESSAGE_BITS as u64);
    meter.leave();

    Decoded {
        message,
        locator_degree,
        errors_located,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lac_meter::{CycleLedger, NullMeter};

    fn flip(cw: &mut [u8], positions: &[usize]) {
        for &p in positions {
            cw[p] ^= 1;
        }
    }

    #[test]
    fn decodes_error_free_word() {
        let code = BchCode::lac_t16();
        let msg = [0x81u8; 32];
        let cw = code.encode(&msg, &mut NullMeter);
        let out = code.decode_constant_time(&cw, &mut NullMeter);
        assert_eq!(out.message, msg);
        assert_eq!(out.locator_degree, 0);
        assert_eq!(out.errors_located, out.locator_degree);
    }

    #[test]
    fn corrects_single_error_anywhere() {
        let code = BchCode::lac_t8();
        let msg = [0x5du8; 32];
        let clean = code.encode(&msg, &mut NullMeter);
        for p in (0..code.codeword_len()).step_by(13) {
            let mut cw = clean.clone();
            cw[p] ^= 1;
            let out = code.decode_constant_time(&cw, &mut NullMeter);
            assert_eq!(out.message, msg, "error at {p}");
            assert_eq!(out.errors_located, out.locator_degree);
        }
    }

    #[test]
    fn corrects_t_errors_both_codes() {
        for (code, step) in [(BchCode::lac_t8(), 40), (BchCode::lac_t16(), 24)] {
            let t = code.t();
            let positions: Vec<usize> = (0..t).map(|i| 2 + i * step).collect();
            let msg = [0xe7u8; 32];
            let mut cw = code.encode(&msg, &mut NullMeter);
            flip(&mut cw, &positions);
            let out = code.decode_constant_time(&cw, &mut NullMeter);
            assert_eq!(out.message, msg);
            assert_eq!(out.locator_degree, t);
            assert_eq!(out.errors_located, t);
        }
    }

    #[test]
    fn agrees_with_variable_time_decoder() {
        let code = BchCode::lac_t16();
        let msg = [0x2fu8; 32];
        let clean = code.encode(&msg, &mut NullMeter);
        for errors in [0usize, 1, 2, 5, 9, 16] {
            let mut cw = clean.clone();
            let positions: Vec<usize> = (0..errors).map(|i| 7 + i * 23).collect();
            flip(&mut cw, &positions);
            let ct = code.decode_constant_time(&cw, &mut NullMeter);
            let vt = code.decode_variable_time(&cw, &mut NullMeter);
            assert_eq!(ct.message, vt.message, "{errors} errors");
            assert_eq!(ct.locator_degree, vt.locator_degree);
        }
    }

    #[test]
    fn cycle_count_is_input_independent() {
        // The core claim of Walters et al. (and the reason the paper adopts
        // this decoder): identical modelled cost for 0 and t errors.
        let code = BchCode::lac_t16();
        let t = code.t();
        let mut totals = Vec::new();
        for errors in [0usize, 1, t / 2, t] {
            let msg = [0x99u8; 32];
            let mut cw = code.encode(&msg, &mut NullMeter);
            let positions: Vec<usize> = (0..errors).map(|i| 11 + i * 19).collect();
            flip(&mut cw, &positions);
            let mut ledger = CycleLedger::new();
            code.decode_constant_time(&cw, &mut ledger);
            totals.push(ledger.total());
        }
        assert!(
            totals.windows(2).all(|w| w[0] == w[1]),
            "constant-time decode leaked: {totals:?}"
        );
    }

    #[test]
    fn per_phase_costs_are_input_independent() {
        let code = BchCode::lac_t8();
        let msg = [0u8; 32];
        let clean = code.encode(&msg, &mut NullMeter);
        let mut dirty = clean.clone();
        flip(&mut dirty, &[3, 77, 150, 220, 290, 310, 320, 327]);

        let mut a = CycleLedger::new();
        code.decode_constant_time(&clean, &mut a);
        let mut b = CycleLedger::new();
        code.decode_constant_time(&dirty, &mut b);
        for phase in [
            Phase::BchSyndrome,
            Phase::BchErrorLocator,
            Phase::BchChien,
            Phase::BchGlue,
        ] {
            assert_eq!(
                a.phase_total(phase),
                b.phase_total(phase),
                "phase {phase} leaked"
            );
        }
    }

    #[test]
    fn chien_dominates_constant_time_budget() {
        // Table I shape: Chien ≈ 3/4 of the Walters decode budget.
        let code = BchCode::lac_t16();
        let cw = code.encode(&[1u8; 32], &mut NullMeter);
        let mut l = CycleLedger::new();
        code.decode_constant_time(&cw, &mut l);
        assert!(l.phase_total(Phase::BchChien) > l.total() / 2);
    }

    #[test]
    fn ct_decode_costs_more_than_vt() {
        // Constant time is bought with cycles (~3x in the paper).
        let code = BchCode::lac_t16();
        let cw = code.encode(&[0xabu8; 32], &mut NullMeter);
        let mut ct = CycleLedger::new();
        code.decode_constant_time(&cw, &mut ct);
        let mut vt = CycleLedger::new();
        code.decode_variable_time(&cw, &mut vt);
        assert!(ct.total() > vt.total());
    }

    #[test]
    #[should_panic(expected = "wrong length")]
    fn wrong_length_rejected() {
        let code = BchCode::lac_t8();
        code.decode_constant_time(&[0u8; 400], &mut NullMeter);
    }
}
