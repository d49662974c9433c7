//! Robustness: deserialization must reject, never panic, on arbitrary
//! input; decoders must behave sanely beyond their design envelope.

use lac::{
    AcceleratedBackend, Ciphertext, Kem, KemPublicKey, KemSecretKey, Params, PublicKey, SecretKey,
    SoftwareBackend,
};
use lac_bch::BchCode;
use lac_gf::Field;
use lac_hw::ChienUnit;
use lac_meter::NullMeter;
use lac_rand::{prop, Rng, Sha256CtrRng};

#[test]
fn pk_from_bytes_never_panics() {
    prop::check("pk_from_bytes_never_panics", 64, |rng| {
        let len = rng.gen_below_usize(1200);
        let bytes = prop::bytes(rng, len);
        for params in Params::ALL {
            let _ = PublicKey::from_bytes(&params, &bytes);
            let _ = KemPublicKey::from_bytes(&params, &bytes);
        }
        Ok(())
    });
}

#[test]
fn sk_from_bytes_never_panics() {
    prop::check("sk_from_bytes_never_panics", 64, |rng| {
        let len = rng.gen_below_usize(3000);
        let bytes = prop::bytes(rng, len);
        for params in Params::ALL {
            let _ = SecretKey::from_bytes(&params, &bytes);
            let _ = KemSecretKey::from_bytes(&params, &bytes);
        }
        Ok(())
    });
}

#[test]
fn ct_from_bytes_never_panics() {
    prop::check("ct_from_bytes_never_panics", 64, |rng| {
        let len = rng.gen_below_usize(1600);
        let bytes = prop::bytes(rng, len);
        for params in Params::ALL {
            let _ = Ciphertext::from_bytes(&params, &bytes);
        }
        Ok(())
    });
}

#[test]
fn right_length_random_bytes_parse_or_reject_cleanly() {
    // Exactly-sized buffers filled with values that may violate the
    // coefficient range: the parser must decide without panicking, and
    // accepted values must re-serialize to the same bytes.
    prop::check("right_length_random_bytes", 64, |rng| {
        let seed_byte = rng.next_byte();
        for params in Params::ALL {
            let n = params.ciphertext_bytes();
            let bytes: Vec<u8> = (0..n).map(|i| seed_byte.wrapping_add(i as u8)).collect();
            if let Ok(ct) = Ciphertext::from_bytes(&params, &bytes) {
                prop::ensure_eq(ct.to_bytes(), bytes)?;
            }
        }
        Ok(())
    });
}

#[test]
fn decoder_never_panics_on_arbitrary_words() {
    // Arbitrary 400-bit words are usually not within distance t of any
    // codeword: both decoders must return (possibly inconsistent)
    // results without panicking, and the CT decoder must still cost
    // exactly its fixed budget.
    prop::check("decoder_never_panics_on_arbitrary_words", 64, |rng| {
        let bits = prop::vec_u8(rng, 400, 2);
        let code = BchCode::lac_t16();
        let _ = code.decode_variable_time(&bits, &mut NullMeter);
        let mut l1 = lac_meter::CycleLedger::new();
        code.decode_constant_time(&bits, &mut l1);
        let mut l2 = lac_meter::CycleLedger::new();
        code.decode_constant_time(&vec![0u8; 400], &mut l2);
        prop::ensure_eq(l1.total(), l2.total())
    });
}

/// Words whose inversion-free Berlekamp–Massey locator can have degree
/// t+1, one past the t terms MUL CHIEN's multipliers hold: for each weaker
/// t' < t, the generator of the t'-error code and 12 of its codewords,
/// zero-padded to the code's length.
fn weaker_code_words(code: &BchCode) -> Vec<Vec<u8>> {
    let len = code.codeword_len();
    let mut words = Vec::new();
    for weaker_t in 1..code.t() {
        let weaker = BchCode::new(Field::gf512(), weaker_t);
        words.push(weaker.generator().to_bits(len));
        let mut rng = Sha256CtrRng::seed_from_u64(weaker_t as u64);
        for _ in 0..12 {
            let mut msg = [0u8; 32];
            rng.fill_bytes(&mut msg);
            let mut word = weaker.encode(&msg, &mut NullMeter);
            word.resize(len, 0);
            words.push(word);
        }
    }
    words
}

#[test]
fn chien_unit_decodes_locator_degree_above_t_as_software_ct() {
    for code in [BchCode::lac_t8(), BchCode::lac_t16()] {
        let (gf, t) = (code.field(), code.t());
        let (mut rooted, mut top_term) = (0, 0);
        for word in weaker_code_words(&code) {
            let sw = code.decode_constant_time(&word, &mut NullMeter);
            if sw.locator_degree != t + 1 {
                continue;
            }
            let hw = ChienUnit::new().decode(&code, &word, &mut NullMeter);
            assert_eq!(hw.message, sw.message, "t={t}");
            assert_eq!(hw.locator_degree, sw.locator_degree, "t={t}");

            // The pipeline hands the Chien step λ₀…λ_t; the unit's count
            // is their roots in its window, by direct evaluation.
            let mut lambda = Vec::new();
            lac_bch::ct::decode_with(&code, &word, &mut NullMeter, |code, l, _| {
                lambda = l.to_vec();
                (vec![0; code.codeword_len()], 0)
            });
            assert_eq!(lambda.len(), t + 1, "t={t}");
            let value = |x| (0..=t).fold(0, |acc, j| acc ^ gf.mul(lambda[j], gf.pow(x, j as u32)));
            let roots = code
                .chien_window()
                .filter(|&l| value(gf.exp(l)) == 0)
                .count();
            assert_eq!(hw.errors_located, roots, "t={t}");
            rooted += usize::from(roots > 0);
            top_term += usize::from(lambda[t] != 0);
        }
        assert!(
            rooted > 0 && top_term > 0,
            "t={t}: {rooted} words with roots in the window, {top_term} with λ_t ≠ 0"
        );
    }
}

#[test]
fn locator_degree_above_t_decapsulates_on_hw() {
    // A ciphertext with u = 0 decrypts to whatever word its v encodes; here
    // the generator of the t/2-error code, whose locator has degree t+1.
    // Re-encryption never matches, so every backend returns the
    // implicit-rejection key whatever its decoder found: the check is that
    // the accelerated backend answers instead of panicking.
    for params in Params::ALL {
        let kem = Kem::new(params);
        let code = params.bch_code();
        let weaker = BchCode::new(Field::gf512(), code.t() / 2);
        let word = weaker.generator().to_bits(code.codeword_len());
        let mut bytes = vec![0u8; params.n()];
        let v: Vec<u8> = (0..params.lv()).map(|i| 8 * word[i % word.len()]).collect();
        bytes.extend(v.chunks(2).map(|pair| pair[0] | pair[1] << 4));
        let ct = Ciphertext::from_bytes(&params, &bytes).unwrap();
        let mut rng = Sha256CtrRng::seed_from_u64(7);
        let (_, sk) = kem.keygen(&mut rng, &mut SoftwareBackend::reference(), &mut NullMeter);
        kem.decapsulate(&sk, &ct, &mut AcceleratedBackend::new(), &mut NullMeter);
    }
}

#[test]
fn truncated_and_padded_wire_formats_rejected() {
    for params in Params::ALL {
        for delta in [-2i64, -1, 1, 2, 100] {
            let len = (params.ciphertext_bytes() as i64 + delta) as usize;
            let bytes = vec![0u8; len];
            assert!(
                Ciphertext::from_bytes(&params, &bytes).is_err(),
                "{} ct len {len}",
                params.name()
            );
            let len = (params.public_key_bytes() as i64 + delta) as usize;
            assert!(
                PublicKey::from_bytes(&params, &vec![0u8; len]).is_err(),
                "{} pk len {len}",
                params.name()
            );
        }
    }
}

#[test]
fn error_messages_are_informative() {
    let err = PublicKey::from_bytes(&Params::lac128(), &[0u8; 5]).unwrap_err();
    let text = err.to_string();
    assert!(text.contains("544") && text.contains('5'), "{text}");
}
