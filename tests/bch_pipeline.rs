//! Integration: the BCH pipeline across crates — encode in `lac-bch`,
//! corrupt through a noisy channel, decode with all three decoders
//! (submission, Walters, hardware-accelerated), including property-based
//! channel tests.

use lac_bch::BchCode;
use lac_hw::ChienUnit;
use lac_meter::NullMeter;
use lac_rand::{prop, Rng, Sha256CtrRng};

fn all_decoders_agree(code: &BchCode, cw: &[u8], expect: &[u8; 32]) {
    let vt = code.decode_variable_time(cw, &mut NullMeter);
    let ct = code.decode_constant_time(cw, &mut NullMeter);
    let hw = ChienUnit::new().decode(code, cw, &mut NullMeter);
    assert_eq!(vt.message, *expect, "variable-time decoder");
    assert_eq!(ct.message, *expect, "constant-time decoder");
    assert_eq!(hw.message, *expect, "accelerated decoder");
}

#[test]
fn random_error_patterns_up_to_t() {
    let mut rng = Sha256CtrRng::seed_from_u64(0xC0DE);
    for code in [BchCode::lac_t8(), BchCode::lac_t16()] {
        for trial in 0..30 {
            let mut msg = [0u8; 32];
            rng.fill_bytes(&mut msg);
            let clean = code.encode(&msg, &mut NullMeter);
            let errors = rng.gen_range_usize(0..code.t() + 1);
            let mut cw = clean.clone();
            // Choose distinct positions.
            let mut positions = Vec::new();
            while positions.len() < errors {
                let p = rng.gen_range_usize(0..code.codeword_len());
                if !positions.contains(&p) {
                    positions.push(p);
                    cw[p] ^= 1;
                }
            }
            all_decoders_agree(&code, &cw, &msg);
            let _ = trial;
        }
    }
}

#[test]
fn burst_errors_within_capability() {
    // Adjacent-bit bursts (common channel model) of length ≤ t.
    let code = BchCode::lac_t16();
    let msg = [0x5au8; 32];
    let clean = code.encode(&msg, &mut NullMeter);
    for start in [0usize, 100, 200, 384] {
        let mut cw = clean.clone();
        for i in 0..16 {
            cw[start + i] ^= 1;
        }
        all_decoders_agree(&code, &cw, &msg);
    }
}

#[test]
fn all_zero_and_all_one_messages() {
    for code in [BchCode::lac_t8(), BchCode::lac_t16()] {
        for msg in [[0u8; 32], [0xff; 32]] {
            let mut cw = code.encode(&msg, &mut NullMeter);
            cw[code.parity_len() + 128] ^= 1;
            all_decoders_agree(&code, &cw, &msg);
        }
    }
}

#[test]
fn decoder_reports_overload_distinctly() {
    // With 2t errors the decode is allowed to fail, but a located-root
    // count below the locator degree must signal the inconsistency for
    // typical patterns (rather than silently returning a wrong message with
    // a clean status).
    let code = BchCode::lac_t8();
    let msg = [0x31u8; 32];
    let mut cw = code.encode(&msg, &mut NullMeter);
    for i in 0..16 {
        cw[11 + i * 19] ^= 1;
    }
    let ct = code.decode_constant_time(&cw, &mut NullMeter);
    if ct.message != msg {
        // Any failure must be observable via the consistency check.
        assert!(
            ct.errors_located != ct.locator_degree || ct.locator_degree > code.t(),
            "silent miscorrection with clean status"
        );
    }
}

#[test]
fn prop_t16_corrects_any_pattern() {
    prop::check("bch_t16_corrects_any_pattern", 24, |rng| {
        let mut msg = [0u8; 32];
        rng.fill_bytes(&mut msg);
        let positions = prop::distinct_positions(rng, 400, 16);
        let code = BchCode::lac_t16();
        let clean = code.encode(&msg, &mut NullMeter);
        let mut cw = clean.clone();
        for &p in &positions {
            cw[p] ^= 1;
        }
        let out = code.decode_constant_time(&cw, &mut NullMeter);
        prop::ensure_eq(out.message, msg)?;
        prop::ensure_eq(out.locator_degree, positions.len())
    });
}

#[test]
fn prop_hw_decoder_matches_sw() {
    prop::check("bch_hw_decoder_matches_sw", 24, |rng| {
        let mut msg = [0u8; 32];
        rng.fill_bytes(&mut msg);
        let positions = prop::distinct_positions(rng, 328, 8);
        let code = BchCode::lac_t8();
        let mut cw = code.encode(&msg, &mut NullMeter);
        for &p in &positions {
            cw[p] ^= 1;
        }
        let sw = code.decode_constant_time(&cw, &mut NullMeter);
        let hw = ChienUnit::new().decode(&code, &cw, &mut NullMeter);
        prop::ensure_eq(sw.message, hw.message)?;
        prop::ensure_eq(sw.locator_degree, hw.locator_degree)
    });
}
