//! Integration checks on the paper-facing claims of the cycle model: the
//! orderings and factors that Tables I and II assert must hold in the
//! reproduction (exact constants live in EXPERIMENTS.md; here we pin the
//! *shape* so refactoring cannot silently destroy it), plus one fixture
//! that pins every charge by phase and by op.

use lac::{AcceleratedBackend, Backend, BackendKind, Kem, Params, SamplerKind, SoftwareBackend};
use lac_bch::BchCode;
use lac_meter::{CycleLedger, NullMeter, Op, Phase};
use lac_rand::{Rng, Sha256CtrRng};

fn decaps_cycles(params: Params, backend: &mut dyn Backend) -> CycleLedger {
    let kem = Kem::new(params);
    let mut rng = Sha256CtrRng::seed_from_u64(9);
    let (pk, sk) = kem.keygen(&mut rng, backend, &mut NullMeter);
    let (ct, _) = kem.encapsulate(&mut rng, &pk, backend, &mut NullMeter);
    let mut ledger = CycleLedger::new();
    kem.decapsulate(&sk, &ct, backend, &mut ledger);
    ledger
}

#[test]
fn headline_decapsulation_speedups() {
    // Paper: 7.66x / 14.42x / 13.36x (const-BCH software → optimized).
    // Our driver model is leaner, so factors come out larger; the shape
    // constraints are: every factor > 5x, and LAC-128 (n = 512) gains the
    // least.
    let mut factors = Vec::new();
    for params in Params::ALL {
        let sw = decaps_cycles(params, &mut SoftwareBackend::constant_time());
        let hw = decaps_cycles(params, &mut AcceleratedBackend::new());
        let f = sw.total() as f64 / hw.total() as f64;
        assert!(f > 5.0, "{}: speedup {f}", params.name());
        assert!(f < 60.0, "{}: speedup {f} implausibly large", params.name());
        factors.push(f);
    }
    assert!(
        factors[0] < factors[1] && factors[0] < factors[2],
        "LAC-128 must gain least: {factors:?}"
    );
}

#[test]
fn reference_decaps_magnitudes_match_paper() {
    // Paper Table II reference rows: 7.54M / 22.98M / 27.88M cycles.
    let paper = [7_544_632u64, 22_984_529, 27_879_782];
    for (params, expect) in Params::ALL.into_iter().zip(paper) {
        let got = decaps_cycles(params, &mut SoftwareBackend::reference()).total();
        let ratio = got as f64 / expect as f64;
        assert!(
            (0.75..1.35).contains(&ratio),
            "{}: {} vs paper {} ({ratio:.2}x)",
            params.name(),
            got,
            expect
        );
    }
}

#[test]
fn constant_bch_costs_more_than_reference() {
    for params in Params::ALL {
        let reference = decaps_cycles(params, &mut SoftwareBackend::reference());
        let constant = decaps_cycles(params, &mut SoftwareBackend::constant_time());
        assert!(
            constant.total() > reference.total(),
            "{}: constant-time BCH must cost extra",
            params.name()
        );
        // ... and the extra cost is exactly in the BCH phases.
        let delta_bch: i64 = [
            Phase::BchSyndrome,
            Phase::BchErrorLocator,
            Phase::BchChien,
            Phase::BchGlue,
        ]
        .iter()
        .map(|&p| constant.phase_total(p) as i64 - reference.phase_total(p) as i64)
        .sum();
        let delta_total = constant.total() as i64 - reference.total() as i64;
        assert_eq!(delta_bch, delta_total, "{}", params.name());
    }
}

#[test]
fn multiplication_dominates_software_but_not_optimized() {
    // Table II: the n² products are the software bottleneck; after MUL TER
    // they are a rounding error.
    for params in Params::ALL {
        let sw = decaps_cycles(params, &mut SoftwareBackend::constant_time());
        assert!(
            sw.phase_total(Phase::Mul) > sw.total() / 2,
            "{}: software Mul share too small",
            params.name()
        );
        let hw = decaps_cycles(params, &mut AcceleratedBackend::new());
        // After MUL TER, all multiplications together cost a small
        // fraction of one software product.
        assert!(
            hw.phase_total(Phase::Mul) * 10 < sw.phase_total(Phase::Mul),
            "{}: optimized Mul not at least 10x below software",
            params.name()
        );
    }
}

#[test]
fn optimized_bch_decode_improvement_factor() {
    // Paper: total BCH decode improves 3.21x (t=16 codes) and 4.22x (t=8)
    // over the constant-time software decoder.
    for (code, lo, hi) in [
        (BchCode::lac_t16(), 2.0, 5.0),
        (BchCode::lac_t8(), 2.0, 6.5),
    ] {
        let msg = [7u8; 32];
        let cw = code.encode(&msg, &mut NullMeter);
        let mut sw = CycleLedger::new();
        code.decode_constant_time(&cw, &mut sw);
        let mut hw = CycleLedger::new();
        lac_hw::ChienUnit::new().decode(&code, &cw, &mut hw);
        let f = sw.total() as f64 / hw.total() as f64;
        assert!(
            (lo..hi).contains(&f),
            "t={}: improvement {f:.2}x outside [{lo}, {hi}]",
            code.t()
        );
    }
}

#[test]
fn optimized_mul_factors_match_paper_order_of_magnitude() {
    // Paper: 2,381,843 → 6,390 (n=512, ~373x) and 9,482,261 → 151,354
    // (n=1024, ~63x).
    use lac_ring::{Poly, TernaryPoly};
    for (n, lo, hi) in [(512usize, 250.0, 500.0), (1024, 40.0, 90.0)] {
        let t = TernaryPoly::zero(n);
        let g = Poly::zero(n);
        let mut sw_cost = CycleLedger::new();
        SoftwareBackend::reference().ring_mul(&t, &g, &mut sw_cost);
        let mut hw_cost = CycleLedger::new();
        AcceleratedBackend::new().ring_mul(&t, &g, &mut hw_cost);
        let f = sw_cost.total() as f64 / hw_cost.total() as f64;
        assert!((lo..hi).contains(&f), "n={n}: factor {f:.1}");
    }
}

#[test]
fn accelerated_decaps_protected_phases_are_ciphertext_independent() {
    // The paper's protections cover the BCH decode (constant-time decoder +
    // MUL CHIEN), the multiplier, the comparison and the hashes: those
    // phases must cost identically for different ciphertexts. The
    // *rejection-based fixed-weight sampler* in the re-encryption remains
    // message-dependent (a residual leak the paper inherits from the LAC
    // reference code and does not claim to fix), so the sampling phase is
    // exempt.
    let kem = Kem::new(Params::lac128());
    let mut backend = AcceleratedBackend::new();
    let mut rng = Sha256CtrRng::seed_from_u64(31);
    let (pk, sk) = kem.keygen(&mut rng, &mut backend, &mut NullMeter);
    let (ct1, _) = kem.encapsulate(&mut rng, &pk, &mut backend, &mut NullMeter);
    let (ct2, _) = kem.encapsulate(&mut rng, &pk, &mut backend, &mut NullMeter);

    let mut l1 = CycleLedger::new();
    kem.decapsulate(&sk, &ct1, &mut backend, &mut l1);
    let mut l2 = CycleLedger::new();
    kem.decapsulate(&sk, &ct2, &mut backend, &mut l2);
    for phase in [
        Phase::Mul,
        Phase::BchSyndrome,
        Phase::BchErrorLocator,
        Phase::BchChien,
        Phase::BchGlue,
        Phase::BchEncode,
        Phase::GenA,
        Phase::Compare,
        Phase::Serialize,
    ] {
        assert_eq!(
            l1.phase_total(phase),
            l2.phase_total(phase),
            "phase {phase} leaked"
        );
    }
    // The residual difference is attributable to sampling (and the hashes
    // it feeds) only.
    let diff = l1.total().abs_diff(l2.total());
    let sample_diff = l1
        .phase_total(Phase::SamplePoly)
        .abs_diff(l2.phase_total(Phase::SamplePoly));
    let hash_diff = l1
        .phase_total(Phase::Hash)
        .abs_diff(l2.phase_total(Phase::Hash));
    assert!(
        diff <= sample_diff + hash_diff,
        "unexplained timing difference: total {diff}, sample {sample_diff}, hash {hash_diff}"
    );
}

#[test]
fn reference_decoder_leaks_through_full_decapsulation() {
    // End-to-end visibility of the Section VI-A flaw: with the reference
    // (variable-time) decoder, decapsulating ciphertexts whose decryption
    // noise differs can take different time. We cannot easily control the
    // noise from outside, so assert on the decoder directly at the decap
    // boundary: the BchErrorLocator phase is data-dependent.
    let code = BchCode::lac_t16();
    let msg = [1u8; 32];
    let clean = code.encode(&msg, &mut NullMeter);
    let mut dirty = clean.clone();
    for i in 0..16 {
        dirty[3 + i * 20] ^= 1;
    }
    let mut a = CycleLedger::new();
    code.decode_variable_time(&clean, &mut a);
    let mut b = CycleLedger::new();
    code.decode_variable_time(&dirty, &mut b);
    assert_ne!(
        a.phase_total(Phase::BchErrorLocator),
        b.phase_total(Phase::BchErrorLocator)
    );
}

#[test]
fn constant_time_sampler_closes_the_last_leak() {
    // With the sorting-network sampler (the round-2 countermeasure), the
    // *entire* decapsulation cost becomes ciphertext-independent — not just
    // the protected phases: the sampler draws a fixed number of PRG bytes
    // and performs a fixed compare-exchange schedule.
    let kem = Kem::with_sampler(Params::lac128(), lac::SamplerKind::ConstantTime);
    let mut backend = AcceleratedBackend::new();
    let mut rng = Sha256CtrRng::seed_from_u64(41);
    let (pk, sk) = kem.keygen(&mut rng, &mut backend, &mut NullMeter);
    let mut totals = Vec::new();
    for _ in 0..3 {
        let (ct, _) = kem.encapsulate(&mut rng, &pk, &mut backend, &mut NullMeter);
        let mut ledger = CycleLedger::new();
        let _ = kem.decapsulate(&sk, &ct, &mut backend, &mut ledger);
        totals.push(ledger.total());
    }
    assert!(
        totals.windows(2).all(|w| w[0] == w[1]),
        "fully-CT decapsulation leaked: {totals:?}"
    );
}

#[test]
fn ct_sampler_roundtrips_and_costs_more() {
    let reference = Kem::new(Params::lac128());
    let hardened = Kem::with_sampler(Params::lac128(), lac::SamplerKind::ConstantTime);
    let mut backend = SoftwareBackend::constant_time();
    let mut rng = Sha256CtrRng::seed_from_u64(42);

    let (pk, sk) = hardened.keygen(&mut rng, &mut backend, &mut NullMeter);
    let (ct, k1) = hardened.encapsulate(&mut rng, &pk, &mut backend, &mut NullMeter);
    assert_eq!(
        hardened.decapsulate(&sk, &ct, &mut backend, &mut NullMeter),
        k1
    );

    let mut plain = CycleLedger::new();
    let (pk2, _) = reference.keygen(&mut rng, &mut backend, &mut plain);
    let mut hard = CycleLedger::new();
    let (pk3, _) = hardened.keygen(&mut rng, &mut backend, &mut hard);
    assert!(hard.phase_total(Phase::SamplePoly) > 2 * plain.phase_total(Phase::SamplePoly));
    let _ = (pk2, pk3);
}

/// One ledger as a canonical line: the total, all 12 phase totals and
/// all 9 op counts.
fn render_ledger(text: &mut String, label: &str, ledger: &CycleLedger) {
    let phases = Phase::ALL.map(|phase| format!("; {phase} {}", ledger.phase_total(phase)));
    let ops = Op::ALL.map(|op| format!("; {} {}", op.name(), ledger.op_count(op)));
    let total = ledger.total();
    *text += &format!(
        "{label}: total {total}{}{}\n",
        phases.concat(),
        ops.concat()
    );
}

#[test]
fn every_charge_is_pinned_by_phase_and_op() {
    // `baselines/` pins totals and Table II's four columns; this pins the
    // rest of each ledger: every phase (glue, hash, serialize and compare
    // included) and every per-op count, for keygen, encaps and decaps on
    // each parameter set × sampler × backend at DRBG seeds 21, 22 and 23
    // (the rejection sampler's charges follow its draws, so one seed
    // would pin one collision pattern), and for each BCH decoder on
    // both codes at 0, 1, t/2, t, t+1, t+2 and 2t errors and on 8 uniformly
    // random words, with every field of each `Decoded` in its label. A
    // refactor that moves a charge site must keep the digest; a deliberate
    // model change replaces it and records the moved cells.
    const PINNED: &str = "fa3f7b641701a73dadf5805b7a5f1b6f0fb0af2fb8e63e2c9484ff3516b6cd68";
    let mut text = String::new();
    for params in Params::ALL {
        for sampler in [SamplerKind::Rejection, SamplerKind::ConstantTime] {
            let kem = Kem::with_sampler(params, sampler);
            for kind in BackendKind::ALL {
                let backend = &mut *kind.build();
                for seed in [21, 22, 23] {
                    let mut rng = Sha256CtrRng::seed_from_u64(seed);
                    let mut ledgers = [CycleLedger::new(), CycleLedger::new(), CycleLedger::new()];
                    let (pk, sk) = kem.keygen(&mut rng, backend, &mut ledgers[0]);
                    let (ct, _) = kem.encapsulate(&mut rng, &pk, backend, &mut ledgers[1]);
                    kem.decapsulate(&sk, &ct, backend, &mut ledgers[2]);
                    for (op, ledger) in ["keygen", "encaps", "decaps"].iter().zip(&ledgers) {
                        let label = format!(
                            "{} {sampler:?} {} seed {seed} {op}",
                            params.name(),
                            kind.name()
                        );
                        render_ledger(&mut text, &label, ledger);
                    }
                }
            }
        }
    }
    for code in [BchCode::lac_t8(), BchCode::lac_t16()] {
        let t = code.t();
        // Seeded errors up to 2t reach BM's long updates and overloaded
        // Chien searches; uniformly random words reach the submission
        // decoder's weight-driven syndrome cost and roots at shortened
        // positions.
        let mut words = Vec::new();
        for errors in [0, 1, t / 2, t, t + 1, t + 2, 2 * t] {
            let mut rng = Sha256CtrRng::seed_from_u64((t * 100 + errors) as u64);
            let mut msg = [0u8; 32];
            rng.fill_bytes(&mut msg);
            let mut cw = code.encode(&msg, &mut NullMeter);
            let mut flipped = Vec::new();
            while flipped.len() < errors {
                let p = rng.gen_below_usize(cw.len());
                if !flipped.contains(&p) {
                    flipped.push(p);
                    cw[p] ^= 1;
                }
            }
            words.push((format!("errors={errors}"), cw, Some(msg)));
        }
        let mut rng = Sha256CtrRng::seed_from_u64((t * 100 + 99) as u64);
        for i in 0..8 {
            let cw: Vec<u8> = (0..code.codeword_len())
                .map(|_| rng.next_byte() & 1)
                .collect();
            words.push((format!("random={i}"), cw, None));
        }
        for (case, cw, msg) in &words {
            for decoder in ["vt", "ct", "chien-unit"] {
                let mut ledger = CycleLedger::new();
                let out = match decoder {
                    "vt" => code.decode_variable_time(cw, &mut ledger),
                    "ct" => code.decode_constant_time(cw, &mut ledger),
                    _ => lac_hw::ChienUnit::new().decode(&code, cw, &mut ledger),
                };
                let message: String = out.message.iter().map(|b| format!("{b:02x}")).collect();
                let label = format!(
                    "t={t} {case} {decoder} (degree {}, located {}, message ok {}, message {message})",
                    out.locator_degree,
                    out.errors_located,
                    msg.is_some_and(|m| out.message == m)
                );
                render_ledger(&mut text, &label, &ledger);
            }
        }
    }
    let digest: String = lac_sha256::sha256(text.as_bytes())
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect();
    assert_eq!(
        digest, PINNED,
        "charges moved; the ledgers now read:\n{text}"
    );
}
