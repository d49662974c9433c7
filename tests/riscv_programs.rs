//! Integration: RISC-V programs exercising the PQ-ALU against the native
//! implementations — the ISA-extension story of Section V, end to end.

use lac_gf::Field;
use lac_rand::{prop, Rng};
use lac_ring::mul::{mul_full, reduce_full};
use lac_ring::{Convolution, Poly, TernaryPoly};
use lac_rv32::pq::{self, ctrl, PqAlu};
use lac_rv32::{kernels, Machine, Trap};
use lac_sha256::sha256;

#[test]
fn pq_modq_program_matches_barrett() {
    for value in [0u32, 250, 251, 252, 1_000_000, u32::MAX] {
        let src = format!(
            r#"
                li a0, {}
                pq.modq a0, a0, zero
                ecall
            "#,
            value as i64
        );
        let mut m = Machine::assemble(&src).expect("assembles");
        let exit = m.run(100).expect("runs");
        assert_eq!(exit.reg(10), value % 251, "value {value}");
    }
}

#[test]
fn pq_sha256_program_hashes_a_memory_buffer() {
    // Hash 100 bytes stored in RAM through the unit, byte by byte, then
    // compare the first 4 digest bytes.
    let data: Vec<u8> = (0..100u32).map(|i| (i * 7 % 256) as u8).collect();
    let reads: String = (0..4)
        .map(|i| {
            let read = pq::control(ctrl::READ, i);
            format!("li t1, {read}\npq.sha256 a{i}, zero, t1\n")
        })
        .collect();
    let src = format!(
        r#"
            li   t1, {reset}
            pq.sha256 zero, zero, t1
            li   t2, 0x2000              # data pointer
            li   t3, 100                 # length
            li   t1, {write}
        feed:
            lbu  t0, 0(t2)
            pq.sha256 zero, t0, t1
            addi t2, t2, 1
            addi t3, t3, -1
            bnez t3, feed
            li   t1, {finalize}
            pq.sha256 zero, zero, t1
            {reads}
            ecall
        "#,
        reset = pq::control(ctrl::RESET, 0),
        write = pq::control(ctrl::LOAD, 0),
        finalize = pq::control(ctrl::START, 0),
    );
    let mut m = Machine::assemble(&src).expect("assembles");
    m.cpu_mut().write_bytes(0x2000, &data);
    let exit = m.run(100_000).expect("runs");
    let expect = sha256(&data);
    for (i, reg) in (10..14).enumerate() {
        assert_eq!(exit.reg(reg) as u8, expect[i], "digest byte {i}");
    }
}

#[test]
fn pq_mul_chien_two_rounds_use_feedback() {
    let gf = Field::gf512();
    let lambda = [400u16, 3, 222, 97];
    let consts = pq::mul_chien_loads(ctrl::LOAD, [1, 2, 3, 4].map(|k| gf.exp(k)));
    let values = pq::mul_chien_loads(ctrl::LOAD_VALUES, lambda);
    let loads: String = consts
        .iter()
        .chain(&values)
        .map(|(rs1, rs2)| format!("li t0, {rs1}\nli t1, {rs2}\npq.mul_chien zero, t0, t1\n"))
        .collect();
    let src = format!(
        r#"
            {loads}
            li t1, {compute}
            pq.mul_chien a0, zero, t1    # Λ-step at α¹·k
            pq.mul_chien a1, zero, t1    # feedback: now at α²·k
            ecall
        "#,
        compute = pq::control(ctrl::START, 0),
    );
    let mut m = Machine::assemble(&src).expect("assembles");
    let exit = m.run(10_000).expect("runs");
    let round = |r: u32| {
        (0..4).fold(0u16, |acc, k| {
            acc ^ gf.mul(lambda[k], gf.pow(gf.exp(k as u32 + 1), r))
        })
    };
    assert_eq!(exit.reg(10) as u16, round(1));
    assert_eq!(exit.reg(11) as u16, round(2));
}

#[test]
fn pq_mul_ter_full_polynomial_through_memory() {
    // Drive a complete 512-coefficient multiplication through the ISA:
    // the kernel streams packed operands from RAM (5 pairs per
    // instruction), starts the unit in negacyclic mode, and writes the
    // 512-byte result back to RAM.
    let n = 512usize;
    let a = TernaryPoly::from_coeffs(
        (0..n)
            .map(|i| [1i8, 0, -1, 0, 1, 0, 0, -1][i % 8])
            .collect(),
    );
    let b = Poly::from_coeffs((0..n).map(|i| (i * 31 % 251) as u8).collect());

    let mut m =
        Machine::assemble(&format!("{}ecall", kernels::mul_ter_driver())).expect("assembles");
    kernels::write_stream(m.cpu_mut(), a.coeffs(), b.coeffs());
    let exit = m.run(10_000_000).expect("runs");

    let expect = reduce_full(&mul_full(&a, &b), n, Convolution::Negacyclic);
    let got = m.cpu().read_bytes(kernels::US, n).to_vec();
    assert_eq!(got, expect.coeffs(), "ISA-driven product mismatch");
    // The unit's 514-cycle compute stall plus the streaming overhead must
    // all be visible in the cycle count.
    assert!(exit.cycles > 514);
}

#[test]
fn prop_pq_protocol_round_trips() {
    // The encoders and the device's decoder against oracles that share
    // neither: `mul_full` + `reduce_full` for MUL TER, `Field::mul` sums
    // for MUL CHIEN.
    let gf = Field::gf512();
    prop::check("pq_protocol_round_trips", 24, |rng| {
        // Operands of length n, zero-padded to the unit's 512.
        let n = 1 + rng.gen_below_usize(512);
        let mut ternary = prop::vec_i8(rng, 512, -1, 1);
        let mut general = prop::vec_u8(rng, 512, 251);
        ternary[n..].fill(0);
        general[n..].fill(0);
        let full = mul_full(
            &TernaryPoly::from_coeffs(ternary.clone()),
            &Poly::from_coeffs(general.clone()),
        );
        for conv in [Convolution::Cyclic, Convolution::Negacyclic] {
            let mut alu = PqAlu::new();
            for (rs1, rs2) in pq::mul_ter_loads(&ternary[..n], &general[..n]) {
                alu.mul_ter(rs1, rs2);
            }
            alu.mul_ter(0, pq::mul_ter_start(conv));
            let read = pq::control(ctrl::READ, 0);
            let got: Vec<u8> = (0..128)
                .flat_map(|_| alu.mul_ter(0, read).0.to_le_bytes())
                .collect();
            prop::ensure_eq(&got[..], reduce_full(&full, 512, conv).coeffs())?;
        }

        let consts: [u16; 4] = prop::vec_u16(rng, 4, 512).try_into().unwrap();
        let lambda: [u16; 4] = prop::vec_u16(rng, 4, 512).try_into().unwrap();
        let mut alu = PqAlu::new();
        let loads = pq::mul_chien_loads(ctrl::LOAD, consts);
        for (rs1, rs2) in loads
            .into_iter()
            .chain(pq::mul_chien_loads(ctrl::LOAD_VALUES, lambda))
        {
            alu.mul_chien(rs1, rs2);
        }
        let expect = (0..4).fold(0, |acc, k| acc ^ gf.mul(lambda[k], consts[k]));
        prop::ensure_eq(
            alu.mul_chien(0, pq::control(ctrl::START, 0)).0,
            u32::from(expect),
        )
    });
}

#[test]
fn traps_are_reported_not_swallowed() {
    // A PQ program with a bad memory access traps cleanly.
    let mut m = Machine::assemble(
        r#"
            li t0, 0x40000000
            lw a0, 0(t0)
            ecall
        "#,
    )
    .expect("assembles");
    match m.run(100) {
        Err(Trap::MemoryFault { .. }) => {}
        other => panic!("expected memory fault, got {other:?}"),
    }
}
