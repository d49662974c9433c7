//! End-to-end capstone: the LAC-128 decryption datapath as a RISC-V
//! program on the extended core.
//!
//! The program is `lac_rv32::kernels`' MUL TER driver followed by its
//! recover loop. It:
//! 1. streams the secret s (ternary) and the ciphertext's u (general)
//!    into MUL TER (103 packed `pq.mul_ter` writes),
//! 2. starts the negacyclic multiplication (512+2-cycle stall),
//! 3. reads back u·s (128 packed reads),
//! 4. reconstructs w = v̂ − (u·s) mod q per carried coefficient with a
//!    `pq.modq` reduction,
//! 5. threshold-decodes w into the 400 BCH codeword bits.
//!
//! The host then runs the BCH decoder over the recovered bits and checks
//! that the original 256-bit message comes back — i.e. a real ciphertext
//! produced by the Rust implementation decrypts correctly when the
//! arithmetic core of the decryption runs as simulated RISC-V code using
//! the paper's custom instructions.

use lac::{Ciphertext, Lac, Params, SecretKey, SoftwareBackend};
use lac_meter::NullMeter;
use lac_rand::Rng;
use lac_rand::Sha256CtrRng;
use lac_ring::mul::{mul_full, reduce_full};
use lac_ring::Convolution;
use lac_rv32::{kernels, ExitState, Machine};

/// Run the on-core decryption of `ct` under `sk`.
fn decrypt_on_core(sk: &SecretKey, ct: &Ciphertext) -> (Machine, ExitState) {
    let src = [kernels::mul_ter_driver(), kernels::recover_loop()].concat() + "ecall";
    let mut machine = Machine::assemble(&src).expect("assembles");
    kernels::write_stream(machine.cpu_mut(), sk.s().coeffs(), ct.u().coeffs());
    // v̂: the decompressed 4-bit v values, (v << 4) + 8, one byte each.
    let v_hat: Vec<u8> = ct.v().iter().map(|&v| (v << 4) + 8).collect();
    machine.cpu_mut().write_bytes(kernels::V_HAT, &v_hat);
    let exit = machine.run(50_000_000).expect("runs to ecall");
    (machine, exit)
}

#[test]
fn lac128_decryption_on_the_extended_core() {
    // --- Host side: generate a real key pair and ciphertext.
    let params = Params::lac128();
    let lac = Lac::new(params);
    let mut backend = SoftwareBackend::constant_time();
    let mut rng = Sha256CtrRng::seed_from_u64(0xD0_C0DE);
    let (pk, sk) = lac.keygen(&mut rng, &mut backend, &mut NullMeter);
    let mut msg = [0u8; 32];
    rng.fill_bytes(&mut msg);
    let ct = lac.encrypt(&pk, &msg, &[0x42u8; 32], &mut backend, &mut NullMeter);
    assert_eq!(params.lv(), kernels::LV);

    let (machine, exit) = decrypt_on_core(&sk, &ct);

    // --- Host side: BCH-decode the bits the RISC-V program produced.
    let bits = machine
        .cpu()
        .read_bytes(kernels::BITS, kernels::LV)
        .to_vec();
    let decoded = lac.bch().decode_constant_time(&bits, &mut NullMeter);
    assert_eq!(decoded.message, msg, "on-core decryption failed");

    // Sanity on the run itself: the 512-cycle MUL TER stall plus the
    // per-coefficient loop must be visible, and exactly one multiplication
    // must have been started.
    assert!(exit.cycles > 512 + 400 * 10);
    assert_eq!(
        machine.cpu().pq().issue_counts[3],
        400,
        "one pq.modq per coefficient"
    );

    // Cross-check against the pure-Rust decryption.
    let (native_msg, _) = lac.decrypt(&sk, &ct, &mut backend, &mut NullMeter);
    assert_eq!(native_msg, msg);
}

#[test]
fn recovered_bits_match_native_word_for_word() {
    // Same pipeline, but compare the raw codeword bits against a native
    // recomputation (catches sign/packing bugs that BCH would silently fix).
    let params = Params::lac128();
    let lac = Lac::new(params);
    let mut backend = SoftwareBackend::constant_time();
    let mut rng = Sha256CtrRng::seed_from_u64(77);
    let (pk, sk) = lac.keygen(&mut rng, &mut backend, &mut NullMeter);
    let ct = lac.encrypt(&pk, &[0x5au8; 32], &[1u8; 32], &mut backend, &mut NullMeter);
    let lv = params.lv();

    // Native recomputation of the codeword bits. u·s comes from the full
    // product reduced mod x^512 + 1, which shares no code with the
    // product kernel that MUL TER's START runs.
    let us = reduce_full(
        &mul_full(sk.s(), ct.u()),
        params.n(),
        Convolution::Negacyclic,
    );
    let native_bits: Vec<u8> = (0..lv)
        .map(|i| {
            let v_hat = i32::from(ct.v()[i]) * 16 + 8;
            let w = (v_hat - i32::from(us.coeffs()[i])).rem_euclid(251);
            u8::from((63..=188).contains(&w))
        })
        .collect();

    let (machine, _) = decrypt_on_core(&sk, &ct);
    assert_eq!(
        machine.cpu().read_bytes(kernels::BITS, lv),
        &native_bits[..]
    );
    // The whole product, not only the carried coefficients.
    assert_eq!(machine.cpu().read_bytes(kernels::US, 512), us.coeffs());
}
