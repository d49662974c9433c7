//! Decryption-noise analysis: why LAC's aggressive parameters need the
//! strong BCH code.
//!
//! LAC's q = 251 with byte coefficients leaves very little noise margin;
//! the paper's Section I attributes LAC's small keys to "the use of a
//! strong error-correcting code (BCH), which allows using polynomials with
//! small single-byte coefficients". This harness quantifies that: it runs
//! many encrypt/decrypt transcripts, histograms the number of
//! pre-BCH bit errors per ciphertext, and projects the post-BCH failure
//! rate from the binomial tail beyond the code's correction capability t.
//!
//! Run: `cargo run --release -p lac-bench --bin failure_rate`

use lac::{Lac, Params, SoftwareBackend};
use lac_bench::Flags;
use lac_meter::NullMeter;
use lac_rand::Rng;
use lac_rand::Sha256CtrRng;

/// ln(n choose k) via the log-gamma-free cumulative product (exact enough
/// for tail estimates here).
fn ln_choose(n: u64, k: u64) -> f64 {
    let k = k.min(n - k);
    let mut acc = 0.0f64;
    for i in 0..k {
        acc += ((n - i) as f64).ln() - ((i + 1) as f64).ln();
    }
    acc
}

/// Upper bound on P[Bin(n, p) > t] by summing the tail.
fn binomial_tail(n: u64, p: f64, t: u64) -> f64 {
    if p <= 0.0 {
        return 0.0;
    }
    let mut total = 0.0f64;
    for k in (t + 1)..=n.min(t + 60) {
        let ln_term = ln_choose(n, k) + (k as f64) * p.ln() + ((n - k) as f64) * (1.0 - p).ln();
        total += ln_term.exp();
    }
    total
}

fn main() {
    Flags::parse(&[], &[]);
    println!("Pre-BCH error statistics and projected decryption-failure rates\n");
    println!(
        "{:<9} {:>7} {:>11} {:>12} {:>9} {:>13} {:>22}",
        "set", "trials", "bits/trial", "mean errors", "max", "per-bit p", "P[fail] (Bin tail)"
    );

    for params in Params::ALL {
        let lac = Lac::new(params);
        let code = lac.bch();
        let mut backend = SoftwareBackend::constant_time();
        let mut rng = Sha256CtrRng::seed_from_u64(0x5eed);

        let trials = 60usize;
        let mut total_errors = 0u64;
        let mut max_errors = 0u64;
        let bits = code.codeword_len() as u64;

        for _ in 0..trials {
            let (pk, sk) = lac.keygen(&mut rng, &mut backend, &mut NullMeter);
            let mut msg = [0u8; 32];
            rng.fill_bytes(&mut msg);
            let mut enc_seed = [0u8; 32];
            rng.fill_bytes(&mut enc_seed);
            let ct = lac.encrypt(&pk, &msg, &enc_seed, &mut backend, &mut NullMeter);
            let (out, info) = lac.decrypt(&sk, &ct, &mut backend, &mut NullMeter);
            assert_eq!(out, msg, "BCH failed within its envelope");
            // locator_degree counts the errors the decoder saw and fixed.
            total_errors += info.locator_degree as u64;
            max_errors = max_errors.max(info.locator_degree as u64);
        }

        let mean = total_errors as f64 / trials as f64;
        let p_bit = mean / bits as f64;
        let p_fail = binomial_tail(bits, p_bit, params.bch_t() as u64);
        println!(
            "{:<9} {:>7} {:>11} {:>12.3} {:>9} {:>13.2e} {:>22.2e}",
            params.name(),
            trials,
            bits,
            mean,
            max_errors,
            p_bit,
            p_fail
        );
    }

    println!("\nReading: the raw RLWE channel flips a handful of bits per ciphertext —");
    println!("far too many for an uncoded scheme at q = 251, and comfortably within");
    println!("BCH's t (16 / 8 / 16). The projected post-BCH failure rates are");
    println!("cryptographically negligible, which is what lets LAC ship the smallest");
    println!("keys and ciphertexts among the NIST lattice KEMs (Section VI).");
}
