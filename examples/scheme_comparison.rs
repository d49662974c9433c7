//! The paper's closing argument, executable: LAC (CCA, BCH-protected,
//! ternary-multiplier acceleration) vs NewHope (CPA, NTT co-processor) at
//! NIST level V — cycles, wire sizes, and accelerator area side by side.
//!
//! Run: `cargo run --release --example scheme_comparison`

use lac_meter::{report::thousands, CycleLedger, NullMeter};
use lac_rand::Sha256CtrRng;

fn main() {
    let mut rng = Sha256CtrRng::seed_from_u64(2026);

    // --- LAC-256, CCA, PQ-ALU backend.
    let lac_kem = lac::Kem::new(lac::Params::lac256());
    let mut lac_backend = lac::AcceleratedBackend::new();
    let (lac_pk, lac_sk) = lac_kem.keygen(&mut rng, &mut lac_backend, &mut NullMeter);
    let (lac_ct, _) = lac_kem.encapsulate(&mut rng, &lac_pk, &mut lac_backend, &mut NullMeter);
    let mut lac_kg = CycleLedger::new();
    lac_kem.keygen(&mut rng, &mut lac_backend, &mut lac_kg);
    let mut lac_enc = CycleLedger::new();
    lac_kem.encapsulate(&mut rng, &lac_pk, &mut lac_backend, &mut lac_enc);
    let mut lac_dec = CycleLedger::new();
    lac_kem.decapsulate(&lac_sk, &lac_ct, &mut lac_backend, &mut lac_dec);

    // --- NewHope1024, CPA, [8]-style co-processors.
    let nh_kem = newhope::CpaKem::new(newhope::NewHopeParams::newhope1024());
    let mut nh_backend = newhope::AcceleratedBackend::new();
    let (nh_pk, nh_sk) = nh_kem.keygen(&mut rng, &mut nh_backend, &mut NullMeter);
    let (nh_ct, _) = nh_kem.encapsulate(&mut rng, &nh_pk, &mut nh_backend, &mut NullMeter);
    let mut nh_kg = CycleLedger::new();
    nh_kem.keygen(&mut rng, &mut nh_backend, &mut nh_kg);
    let mut nh_enc = CycleLedger::new();
    nh_kem.encapsulate(&mut rng, &nh_pk, &mut nh_backend, &mut nh_enc);
    let mut nh_dec = CycleLedger::new();
    nh_kem.decapsulate(&nh_sk, &nh_ct, &mut nh_backend, &mut nh_dec);

    println!("LAC-256 (CCA, PQ-ALU) vs NewHope1024 (CPA, [8]-style co-processors)\n");
    println!("{:<24} {:>14} {:>14}", "", "LAC-256 opt.", "NewHope opt.");
    for (label, lac_v, nh_v) in [
        ("key generation", lac_kg.total(), nh_kg.total()),
        ("encapsulation", lac_enc.total(), nh_enc.total()),
        ("decapsulation", lac_dec.total(), nh_dec.total()),
    ] {
        println!(
            "{label:<24} {:>14} {:>14}",
            thousands(lac_v),
            thousands(nh_v)
        );
    }
    let lac_total = lac_kg.total() + lac_enc.total() + lac_dec.total();
    let nh_total = nh_kg.total() + nh_enc.total() + nh_dec.total();
    println!(
        "{:<24} {:>14} {:>14}   (paper: +3.12M for LAC)",
        "full protocol",
        thousands(lac_total),
        thousands(nh_total)
    );
    println!(
        "{:<24} {:>14}",
        "LAC overhead",
        thousands(lac_total - nh_total)
    );
    println!("  — the overhead buys CCA security (re-encryption), the BCH code, and");
    println!("    constant-time error correction (Section VI).\n");

    println!("{:<24} {:>14} {:>14}", "", "LAC-256", "NewHope1024");
    let lp = lac_kem.params();
    let np = nh_kem.params();
    for (label, lac_v, nh_v) in [
        (
            "public key (bytes)",
            lp.public_key_bytes(),
            np.public_key_bytes(),
        ),
        (
            "secret key (bytes)",
            lp.secret_key_bytes(),
            np.secret_key_bytes(),
        ),
        (
            "ciphertext (bytes)",
            lp.ciphertext_bytes(),
            np.ciphertext_bytes(),
        ),
    ] {
        println!("{label:<24} {lac_v:>14} {nh_v:>14}");
    }
    println!("  — LAC's smaller keys/ciphertexts are its selling point (paper abstract).\n");

    // Accelerator area.
    let lac_area = lac_backend.mul_ter().resources()
        + lac_backend.chien_unit().resources()
        + lac_hw::Sha256Unit::new().resources()
        + lac_hw::ModQ::new().resources();
    let nh_area = nh_backend.ntt_unit().resources() + nh_backend.keccak_unit().resources();
    println!(
        "{:<24} {:>14} {:>14}",
        "accelerator LUTs", lac_area.luts, nh_area.luts
    );
    println!(
        "{:<24} {:>14} {:>14}",
        "accelerator registers", lac_area.regs, nh_area.regs
    );
    println!(
        "{:<24} {:>14} {:>14}",
        "accelerator DSPs", lac_area.dsps, nh_area.dsps
    );
    println!(
        "{:<24} {:>14} {:>14}",
        "accelerator BRAMs", lac_area.brams, nh_area.brams
    );
    println!("  — LAC trades LUTs for DSPs/BRAM (Table III's discussion).");
}
