//! The variable-time (NIST-submission style) BCH decoder.
//!
//! This decoder mirrors the structure and the *timing behaviour* of the BCH
//! decoder shipped with the 2nd-round LAC submission, which Table I of the
//! paper shows to be non-constant-time despite its countermeasure compile
//! flag:
//!
//! * syndromes are accumulated only for the **set bits** of the received
//!   word (cost follows the word's Hamming weight);
//! * Berlekamp–Massey takes a cheap early-out on zero discrepancies, so an
//!   error-free word costs a few hundred modelled cycles where a 16-error
//!   word costs ~10k (the paper's 158 vs 10,172);
//! * the Chien search walks the full exponent range evaluating a fixed
//!   `t+1`-term array with zero-skipping table multiplications.
//!
//! The modelled cycle count therefore **leaks the error pattern** — this is
//! exactly the D'Anvers-et-al. side channel the constant-time decoder
//! removes.

use crate::{BchCode, Decoded};
use lac_meter::{Meter, Op, Phase};

/// Compute the 2t syndromes S_i = r(α^i), i = 1..=2t, the submission way:
/// iterate over codeword positions and accumulate `α^(i·p)` for set bits
/// only. Cost is proportional to the received word's Hamming weight.
fn syndromes<M: Meter>(code: &BchCode, received: &[u8], meter: &mut M) -> Vec<u16> {
    let gf = code.field();
    let two_t = 2 * code.t();
    let order = u32::from(gf.order());
    let mut s = vec![0u16; two_t];
    for (p, &bit) in received.iter().enumerate() {
        meter.charge(Op::Load, 1);
        meter.charge(Op::Branch, 1);
        meter.charge(Op::LoopIter, 1);
        if bit == 0 {
            continue;
        }
        // idx walks i·p mod (2^m − 1) incrementally: add p per syndrome.
        let mut idx = 0u32;
        for si in s.iter_mut() {
            idx += p as u32;
            if idx >= order {
                idx -= order;
            }
            *si ^= gf.exp(idx);
            meter.charge(Op::Alu, 3); // index add, wrap compare/sub, xor
            meter.charge(Op::Branch, 1);
            meter.charge(Op::Load, 2); // alog table + syndrome load
            meter.charge(Op::Store, 1);
            meter.charge(Op::LoopIter, 1);
        }
    }
    s
}

/// Standard Berlekamp–Massey with early outs (variable time).
///
/// Returns the error-locator polynomial Λ as coefficients `[λ0=1, λ1, …]`.
fn berlekamp_massey<M: Meter>(code: &BchCode, s: &[u16], meter: &mut M) -> Vec<u16> {
    let gf = code.field();
    let two_t = s.len();
    let mut lambda = vec![0u16; two_t + 1];
    let mut prev = vec![0u16; two_t + 1];
    lambda[0] = 1;
    prev[0] = 1;
    let mut l: usize = 0; // current LFSR length
    let mut m: usize = 1; // gap since last length change
    let mut b: u16 = 1; // last nonzero discrepancy

    for r in 0..two_t {
        // Discrepancy δ = Σ_{i=0}^{L} λ_i · S_{r−i}.
        let mut delta = s[r];
        meter.charge(Op::Load, 1);
        for i in 1..=l {
            delta ^= gf.mul_metered(lambda[i], s[r - i], meter);
            meter.charge(Op::Load, 2);
            meter.charge(Op::Alu, 1);
            meter.charge(Op::LoopIter, 1);
        }
        meter.charge(Op::Branch, 1);
        meter.charge(Op::LoopIter, 1);
        if delta == 0 {
            // Cheap early-out: nothing to update.
            m += 1;
            meter.charge(Op::Alu, 1);
            continue;
        }
        // t(x) = Λ(x) − (δ/b)·x^m·B(x)
        let coef = gf.mul_metered(delta, gf.inv(b), meter);
        meter.charge(Op::Load, 1); // inverse table
        let mut t_poly = lambda.clone();
        meter.charge(Op::Load, (two_t + 1) as u64);
        meter.charge(Op::Store, (two_t + 1) as u64);
        for i in 0..=two_t - m.min(two_t) {
            if i + m > two_t {
                break;
            }
            t_poly[i + m] ^= gf.mul_metered(coef, prev[i], meter);
            meter.charge(Op::Load, 2);
            meter.charge(Op::Alu, 1);
            meter.charge(Op::Store, 1);
            meter.charge(Op::LoopIter, 1);
        }
        meter.charge(Op::Branch, 1);
        if 2 * l <= r {
            l = r + 1 - l;
            prev = lambda;
            b = delta;
            m = 1;
            meter.charge(Op::Alu, 3);
        } else {
            m += 1;
            meter.charge(Op::Alu, 1);
        }
        lambda = t_poly;
    }
    lambda.truncate(l + 1);
    lambda
}

/// Chien search: walk the full exponent range 1..=n, evaluating Λ(α^l) with a
/// fixed (t+1)-term array. Term stepping is done in the log domain
/// (`idx_j += j`, antilog lookup), whose cost is independent of the λ values
/// — which is why Table I shows near-identical Chien cycles for 0 and 16
/// errors in the submission decoder. Roots at exponent l flag an error at
/// codeword position n − l.
///
/// Returns the located error positions (within the stored shortened buffer).
fn chien<M: Meter>(code: &BchCode, lambda: &[u16], meter: &mut M) -> Vec<usize> {
    let gf = code.field();
    let n = code.n();
    let t = code.t();
    // terms[j] tracks λ_j · α^(j·l); start at l = 1.
    let mut terms = vec![0u16; t + 1];
    for (j, term) in terms.iter_mut().enumerate() {
        let lam = lambda.get(j).copied().unwrap_or(0);
        *term = gf.mul(lam, gf.exp(j as u32));
        meter.charge(Op::Load, 3);
        meter.charge(Op::Alu, 2);
        meter.charge(Op::Store, 1);
        meter.charge(Op::LoopIter, 1);
    }
    let mut positions = Vec::new();
    for l in 1..=n as u32 {
        // Λ(α^l) = λ0 + Σ terms[j]
        let mut acc = lambda[0];
        for term in terms.iter().skip(1) {
            acc ^= term;
            meter.charge(Op::Load, 1);
            meter.charge(Op::Alu, 1);
            meter.charge(Op::LoopIter, 1);
        }
        meter.charge(Op::Branch, 1);
        if acc == 0 {
            let p = n - l as usize;
            if p < code.codeword_len() {
                positions.push(p);
            }
            meter.charge(Op::Alu, 2);
            meter.charge(Op::Store, 1);
        }
        // Advance every term by its constant: terms[j] *= α^j, charged as a
        // log-domain step (index add + wrap + antilog load + store).
        for (j, term) in terms.iter_mut().enumerate().skip(1) {
            *term = gf.mul(*term, gf.exp(j as u32));
            meter.charge(Op::Alu, 2);
            meter.charge(Op::Load, 1);
            meter.charge(Op::Store, 1);
            meter.charge(Op::LoopIter, 1);
        }
        meter.charge(Op::LoopIter, 1);
    }
    positions
}

pub(crate) fn decode<M: Meter>(code: &BchCode, received: &[u8], meter: &mut M) -> Decoded {
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
    // The submission code walks the Chien search unconditionally — even for
    // a degree-0 locator (Table I: ~107k cycles at zero errors too).
    let positions = chien(code, &lambda, meter);
    meter.leave();

    meter.enter(Phase::BchGlue);
    let mut corrected = received.to_vec();
    for &p in &positions {
        corrected[p] ^= 1;
        meter.charge(Op::Load, 1);
        meter.charge(Op::Alu, 1);
        meter.charge(Op::Store, 1);
    }
    let message = code.message_of(&corrected);
    meter.charge(Op::Load, crate::MESSAGE_BITS as u64);
    meter.charge(Op::Alu, crate::MESSAGE_BITS as u64);
    meter.leave();

    Decoded {
        message,
        locator_degree,
        errors_located: positions.len(),
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
        let msg = [0x3cu8; 32];
        let cw = code.encode(&msg, &mut NullMeter);
        let out = code.decode_variable_time(&cw, &mut NullMeter);
        assert_eq!(out.message, msg);
        assert_eq!(out.locator_degree, 0);
        assert!(out.likely_ok());
    }

    #[test]
    fn corrects_single_error_anywhere() {
        let code = BchCode::lac_t8();
        let msg = [0x77u8; 32];
        let clean = code.encode(&msg, &mut NullMeter);
        for p in (0..code.codeword_len()).step_by(17) {
            let mut cw = clean.clone();
            cw[p] ^= 1;
            let out = code.decode_variable_time(&cw, &mut NullMeter);
            assert_eq!(out.message, msg, "error at {p}");
            assert_eq!(out.locator_degree, 1);
            assert!(out.likely_ok());
        }
    }

    #[test]
    fn corrects_t_errors() {
        for (code, positions) in [
            (BchCode::lac_t8(), vec![0, 50, 100, 150, 200, 250, 300, 327]),
            (
                BchCode::lac_t16(),
                (0..16).map(|i| 3 + i * 24).collect::<Vec<_>>(),
            ),
        ] {
            let msg = [0xa5u8; 32];
            let mut cw = code.encode(&msg, &mut NullMeter);
            flip(&mut cw, &positions);
            let out = code.decode_variable_time(&cw, &mut NullMeter);
            assert_eq!(out.message, msg);
            assert_eq!(out.locator_degree, positions.len());
            assert_eq!(out.errors_located, positions.len());
        }
    }

    #[test]
    fn detects_overload_beyond_t() {
        // t+2 errors: decoding must not silently claim success with a wrong
        // message AND likely_ok true in the common case. (BCH can miscorrect,
        // but for this fixed pattern it reports inconsistency.)
        let code = BchCode::lac_t8();
        let msg = [0x11u8; 32];
        let mut cw = code.encode(&msg, &mut NullMeter);
        flip(&mut cw, &[1, 31, 61, 91, 121, 151, 181, 211, 241, 271]);
        let out = code.decode_variable_time(&cw, &mut NullMeter);
        // The strong assertion: with ≤ t errors it never fails, checked in
        // other tests; here we only require no panic and a defined result
        // of the right shape.
        assert_eq!(out.message.len(), msg.len());
    }

    #[test]
    fn zero_errors_cheaper_than_max_errors_in_error_locator() {
        // The Table I shape: submission-style BM is ~64x cheaper with zero
        // errors (158 vs 10,172 cycles).
        let code = BchCode::lac_t16();
        let msg = [0x42u8; 32];
        let clean = code.encode(&msg, &mut NullMeter);

        let mut l0 = CycleLedger::new();
        code.decode_variable_time(&clean, &mut l0);

        let mut dirty = clean.clone();
        flip(&mut dirty, &(0..16).map(|i| 5 + i * 20).collect::<Vec<_>>());
        let mut l16 = CycleLedger::new();
        code.decode_variable_time(&dirty, &mut l16);

        let bm0 = l0.phase_total(Phase::BchErrorLocator);
        let bm16 = l16.phase_total(Phase::BchErrorLocator);
        assert!(
            bm16 > 10 * bm0,
            "BM cost must leak error count: {bm0} vs {bm16}"
        );
        // Total decode differs too (the leak the paper demonstrates).
        assert_ne!(l0.total(), l16.total());
    }

    #[test]
    fn syndrome_cost_tracks_word_weight() {
        let code = BchCode::lac_t16();
        let light = code.encode(&[0u8; 32], &mut NullMeter); // all-zero codeword
        let heavy = code.encode(&[0xffu8; 32], &mut NullMeter);
        let mut ll = CycleLedger::new();
        code.decode_variable_time(&light, &mut ll);
        let mut lh = CycleLedger::new();
        code.decode_variable_time(&heavy, &mut lh);
        assert!(lh.phase_total(Phase::BchSyndrome) > ll.phase_total(Phase::BchSyndrome));
    }

    #[test]
    fn phases_are_all_charged() {
        let code = BchCode::lac_t16();
        let mut cw = code.encode(&[9u8; 32], &mut NullMeter);
        cw[100] ^= 1;
        let mut l = CycleLedger::new();
        code.decode_variable_time(&cw, &mut l);
        for phase in [
            Phase::BchSyndrome,
            Phase::BchErrorLocator,
            Phase::BchChien,
            Phase::BchGlue,
        ] {
            assert!(l.phase_total(phase) > 0, "phase {phase} uncharged");
        }
        let sum: u64 = [
            Phase::BchSyndrome,
            Phase::BchErrorLocator,
            Phase::BchChien,
            Phase::BchGlue,
        ]
        .iter()
        .map(|&p| l.phase_total(p))
        .sum();
        assert_eq!(sum, l.total(), "phases must partition the total");
    }

    #[test]
    #[should_panic(expected = "wrong length")]
    fn wrong_length_rejected() {
        let code = BchCode::lac_t16();
        code.decode_variable_time(&[0u8; 399], &mut NullMeter);
    }
}
