//! Cross-crate integration: the full KEM across parameter sets, backends,
//! and serialization boundaries.

use lac::{
    AcceleratedBackend, BackendKind, Ciphertext, Kem, KemPublicKey, KemSecretKey, Params,
    SoftwareBackend,
};
use lac_meter::NullMeter;
use lac_rand::Rng;
use lac_rand::Sha256CtrRng;

#[test]
fn roundtrip_matrix_params_x_backends() {
    for params in Params::ALL {
        let kem = Kem::new(params);
        for kind in BackendKind::ALL {
            let mut backend = kind.build();
            let mut rng = Sha256CtrRng::seed_from_u64(11);
            let (pk, sk) = kem.keygen(&mut rng, backend.as_mut(), &mut NullMeter);
            let (ct, k1) = kem.encapsulate(&mut rng, &pk, backend.as_mut(), &mut NullMeter);
            let k2 = kem.decapsulate(&sk, &ct, backend.as_mut(), &mut NullMeter);
            assert_eq!(k1, k2, "{} on {}", params.name(), kind.name());
        }
    }
}

#[test]
fn many_random_roundtrips_lac128() {
    // Statistical confidence in the noise budget: many independent keys
    // and messages must all decrypt (decryption failure rate is designed
    // to be negligible thanks to the BCH code).
    let kem = Kem::new(Params::lac128());
    let mut backend = SoftwareBackend::constant_time();
    let mut rng = Sha256CtrRng::seed_from_u64(0xABCD);
    for round in 0..25 {
        let (pk, sk) = kem.keygen(&mut rng, &mut backend, &mut NullMeter);
        let (ct, k1) = kem.encapsulate(&mut rng, &pk, &mut backend, &mut NullMeter);
        let k2 = kem.decapsulate(&sk, &ct, &mut backend, &mut NullMeter);
        assert_eq!(k1, k2, "round {round}");
    }
}

#[test]
fn encaps_on_hw_decaps_on_sw_and_vice_versa() {
    for params in Params::ALL {
        let kem = Kem::new(params);
        let mut sw = SoftwareBackend::constant_time();
        let mut hw = AcceleratedBackend::new();
        let mut rng = Sha256CtrRng::seed_from_u64(3);
        let (pk, sk) = kem.keygen(&mut rng, &mut sw, &mut NullMeter);

        let (ct, k1) = kem.encapsulate(&mut rng, &pk, &mut hw, &mut NullMeter);
        assert_eq!(kem.decapsulate(&sk, &ct, &mut sw, &mut NullMeter), k1);

        let (ct2, k2) = kem.encapsulate(&mut rng, &pk, &mut sw, &mut NullMeter);
        assert_eq!(kem.decapsulate(&sk, &ct2, &mut hw, &mut NullMeter), k2);
    }
}

#[test]
fn full_wire_format_roundtrip() {
    // Serialize everything, reparse, and complete the protocol from bytes.
    for params in Params::ALL {
        let kem = Kem::new(params);
        let mut backend = SoftwareBackend::constant_time();
        let mut rng = Sha256CtrRng::seed_from_u64(5);
        let (pk, sk) = kem.keygen(&mut rng, &mut backend, &mut NullMeter);

        let pk2 = KemPublicKey::from_bytes(kem.params(), &pk.to_bytes()).expect("pk parses");
        let sk2 = KemSecretKey::from_bytes(kem.params(), &sk.to_bytes()).expect("sk parses");
        assert_eq!(pk, pk2);
        assert_eq!(sk, sk2);

        let (ct, k1) = kem.encapsulate(&mut rng, &pk2, &mut backend, &mut NullMeter);
        let ct_bytes = ct.to_bytes();
        assert_eq!(ct_bytes.len(), params.ciphertext_bytes());
        let ct2 = Ciphertext::from_bytes(kem.params(), &ct_bytes).expect("ct parses");
        assert_eq!(
            kem.decapsulate(&sk2, &ct2, &mut backend, &mut NullMeter),
            k1
        );
    }
}

#[test]
fn wire_sizes_match_paper_level_v() {
    // Section VI: LAC level V has ‖pk‖ ≈ 1054–1056, ‖sk‖ (CPA) = 1024,
    // ‖ct‖ = 1424 bytes — far below NewHope's 1824/1792/2176.
    let p = Params::lac256();
    assert_eq!(p.public_key_bytes(), 1056);
    assert_eq!(p.secret_key_bytes(), 1024);
    assert_eq!(p.ciphertext_bytes(), 1424);
    assert!(p.public_key_bytes() < 1824);
    assert!(p.ciphertext_bytes() < 2176);
}

#[test]
fn corrupted_ciphertexts_never_yield_the_real_key() {
    let kem = Kem::new(Params::lac192());
    let mut backend = SoftwareBackend::constant_time();
    let mut rng = Sha256CtrRng::seed_from_u64(17);
    let (pk, sk) = kem.keygen(&mut rng, &mut backend, &mut NullMeter);
    let (ct, k1) = kem.encapsulate(&mut rng, &pk, &mut backend, &mut NullMeter);

    for trial in 0..10 {
        let mut bytes = ct.to_bytes();
        // Heavy corruption: rewrite a 64-byte window with random residues.
        let start = 13 * trial % (bytes.len() - 64);
        for b in &mut bytes[start..start + 64] {
            *b = (rng.next_u32() % 251) as u8;
        }
        let evil = Ciphertext::from_bytes(kem.params(), &bytes).expect("valid encoding");
        let k = kem.decapsulate(&sk, &evil, &mut backend, &mut NullMeter);
        assert_ne!(
            k, k1,
            "trial {trial}: corrupted ct must not derive the session key"
        );
    }
}

#[test]
fn distinct_sessions_get_distinct_secrets() {
    let kem = Kem::new(Params::lac128());
    let mut backend = SoftwareBackend::constant_time();
    let mut rng = Sha256CtrRng::seed_from_u64(23);
    let (pk, _) = kem.keygen(&mut rng, &mut backend, &mut NullMeter);
    let (ct1, k1) = kem.encapsulate(&mut rng, &pk, &mut backend, &mut NullMeter);
    let (ct2, k2) = kem.encapsulate(&mut rng, &pk, &mut backend, &mut NullMeter);
    assert_ne!(ct1, ct2);
    assert_ne!(k1, k2);
}
