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
//! Those are the modelled RISCY loops, charged in closed form from t, m and
//! the codeword length alone. The host takes the syndromes and the Chien
//! values from [`crate::kernel`] and runs the 2t Berlekamp–Massey
//! iterations unmetered, with shift-and-add products and masked selects,
//! so no branch or table index in the source depends on the received
//! word. On the compiled code, `objdump` of an x86-64 release build's
//! Berlekamp–Massey shows no conditional jump over a move in its inlined
//! `lac_gf::mul_shift_add` copies, whose masks pass an optimisation
//! barrier, and its host time is the same at 0 and 16 errors (EXPERIMENTS
//! E20). The swap mask and the final selects are plain Rust and carry no
//! such barrier.
//!
//! The decoded result equals the variable-time decoder's for any pattern of
//! up to t errors; only the cost model (and the real-world leakage) differs.
//!
//! [`decode_with`] is the one home of this pipeline, with the Chien step
//! as an argument: the software decoder passes its full-range search,
//! `lac-hw`'s accelerated decoder the MUL CHIEN unit's, so both share
//! every other charge.

use crate::{kernel, BchCode, Decoded, MESSAGE_BITS};
use lac_meter::{Meter, Op, Phase};

/// Inversion-free Berlekamp–Massey: 2t iterations of branch-free updates.
///
/// Returns all t+2 coefficients of a scalar multiple of the error-locator
/// polynomial (same roots, same degree) and its degree, found by a scan of
/// every coefficient.
fn berlekamp_massey(code: &BchCode, s: &[u16]) -> (Vec<u16>, usize) {
    let gf = code.field();
    let t = code.t();
    let mut lambda = vec![0u16; t + 2];
    let mut b = vec![0u16; t + 2];
    lambda[0] = 1;
    b[0] = 1;
    let mut gamma: u16 = 1;
    let mut k: i32 = 0;

    for r in 0..2 * t {
        // δ = Σ_{i ≤ min(r, t)} λ_i · S_{r−i}.
        let delta = (0..=r.min(t)).fold(0, |d, i| d ^ gf.mul_shift_add(lambda[i], s[r - i]));
        // swap = (δ ≠ 0) ∧ (k ≥ 0), as a mask.
        let swap = (u16::from(delta != 0) & u16::from(k >= 0)).wrapping_neg();
        // λ ← γ·λ − δ·x·b and b ← swap ? λ : x·b, reading the old λ_i and
        // b_{i−1} at each i.
        let mut b_prev = 0;
        for (l, b) in lambda.iter_mut().zip(b.iter_mut()) {
            let (l_old, b_old) = (*l, *b);
            *l = gf.mul_shift_add(gamma, l_old) ^ gf.mul_shift_add(delta, b_prev);
            *b = (swap & l_old) | (!swap & b_prev);
            b_prev = b_old;
        }
        gamma = (swap & delta) | (!swap & gamma);
        let swap = i32::from(swap as i16);
        k = (swap & (-k - 1)) | (!swap & (k + 1));
    }

    let degree = lambda.iter().enumerate().fold(0, |degree, (i, &c)| {
        let nz = usize::from(c != 0);
        nz * i + (1 - nz) * degree
    });
    (lambda, degree)
}

/// Constant-time Chien search over the shortened codeword range: every
/// exponent α^l whose position n − l is transmitted.
///
/// Charged as t+1 preloaded terms, then per point t+1 accumulating xors,
/// the branchless root test and mask store, and t steps of the
/// shift-and-add multiplication (m iterations of three ALU ops each) — the
/// software analogue of the MUL GF datapath, and the cost the paper's
/// MUL CHIEN unit eliminates.
pub(crate) fn chien<M: Meter>(code: &BchCode, lambda: &[u16], meter: &mut M) -> (Vec<u8>, usize) {
    let (n, len) = (code.n(), code.codeword_len());
    let (t, m, points) = (code.t() as u64, u64::from(code.field().m()), len as u64);
    meter.charge(Op::Load, 3 * (t + 1) + points * (2 * t + 1));
    meter.charge(Op::Alu, 2 * (t + 1) + points * (t + 5 + 3 * m * t));
    meter.charge(Op::Store, t + 1 + points * (t + 1));
    meter.charge(Op::LoopIter, t + 1 + points * (t + 2 + t * (m + 1)));
    kernel::chien(code, lambda, (n - (len - 1)) as u32..=n as u32)
}

/// The constant-time decode pipeline, each step under its own phase:
/// syndromes, Berlekamp–Massey, the Chien step `search` (given λ₀…λ_t of
/// the error locator; returning the per-position error mask and the root
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
    let (t, len) = (code.t() as u64, received.len() as u64);

    // 2t passes over every position: a bit load, mask/and/xor, a loop
    // step; a store and a loop step per syndrome.
    meter.enter(Phase::BchSyndrome);
    let s = kernel::syndromes(code, received);
    meter.charge(Op::Load, 2 * t * len);
    meter.charge(Op::Alu, 2 * t * 3 * len);
    meter.charge(Op::LoopIter, 2 * t * (len + 1));
    meter.charge(Op::Store, 2 * t);
    meter.leave();

    // Per iteration: t+1 discrepancy terms (a masked table product —
    // three loads and eight ALU ops whatever its operands — two loads, a
    // xor, a loop step), t+2 update terms (two products, two loads, a xor,
    // a store, a loop step), t+2 terms of the branchless select of b (two
    // loads, three ALU ops, a store, a loop step) and six control ALU ops
    // with the loop step; then a (t+2)-term degree scan.
    meter.enter(Phase::BchErrorLocator);
    let (lambda, locator_degree) = berlekamp_massey(code, &s);
    let (terms, row) = (t + 1, t + 2);
    meter.charge(Op::Load, 2 * t * (5 * terms + 10 * row) + row);
    meter.charge(Op::Alu, 2 * t * (9 * terms + 20 * row + 6) + 3 * row);
    meter.charge(Op::Store, 2 * t * 2 * row);
    meter.charge(Op::LoopIter, 2 * t * (terms + 2 * row + 1) + row);
    meter.leave();

    meter.enter(Phase::BchChien);
    let (error_mask, errors_located) = search(code, &lambda[..=code.t()], meter);
    meter.leave();

    // Per position two loads, the flip, a store and a loop step; then the
    // read-out.
    meter.enter(Phase::BchGlue);
    let message = code.corrected_message(received, &error_mask);
    let bits = MESSAGE_BITS as u64;
    meter.charge(Op::Load, 2 * len + bits);
    meter.charge(Op::Alu, len + bits);
    meter.charge(Op::Store, len);
    meter.charge(Op::LoopIter, len);
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
