//! Drive the PQ-ALU through real RISC-V code: assemble programs that use
//! the paper's custom instructions (`pq.modq`, `pq.sha256`, `pq.mul_chien`,
//! `pq.mul_ter`) and run them on the RV32IM simulator, checking each result
//! against the native implementation.
//!
//! Run: `cargo run --release --example riscv_accel`

use lac_gf::Field;
use lac_ring::Convolution;
use lac_rv32::pq::{self, ctrl};
use lac_rv32::Machine;
use lac_sha256::sha256;

fn main() {
    modq_demo();
    sha256_demo();
    chien_demo();
    mul_ter_demo();
    println!("\nall PQ-ALU instructions verified against native implementations ✔");
}

/// pq.modq: reduce a batch of values modulo 251 in one instruction each.
fn modq_demo() {
    let mut m = Machine::assemble(
        r#"
            li   a0, 123456789
            pq.modq a0, a0, zero
            ecall
        "#,
    )
    .expect("assembles");
    let exit = m.run(1000).expect("runs");
    assert_eq!(exit.reg(10), 123_456_789 % 251);
    println!(
        "pq.modq: 123456789 mod 251 = {} (cycles: {})",
        exit.reg(10),
        exit.cycles
    );
}

/// pq.sha256: hash "abc" byte by byte through the unit and read back the
/// first digest word.
fn sha256_demo() {
    let src = format!(
        r#"
            # reset the unit (RESET)
            li   t1, {reset}
            pq.sha256 zero, zero, t1
            # write 'a','b','c' (LOAD, the byte in rs1[7:0])
            li   t1, {write}
            li   t0, 97
            pq.sha256 zero, t0, t1
            li   t0, 98
            pq.sha256 zero, t0, t1
            li   t0, 99
            pq.sha256 zero, t0, t1
            # finalize (START)
            li   t1, {finalize}
            pq.sha256 zero, zero, t1
            # read digest bytes 0..3 (READ, byte index in rs2[4:0])
            li   t1, {read0}
            pq.sha256 a0, zero, t1
            ori  t1, t1, 1
            pq.sha256 a1, zero, t1
            li   t1, {read2}
            pq.sha256 a2, zero, t1
            li   t1, {read3}
            pq.sha256 a3, zero, t1
            ecall
        "#,
        reset = pq::control(ctrl::RESET, 0),
        write = pq::control(ctrl::LOAD, 0),
        finalize = pq::control(ctrl::START, 0),
        read0 = pq::control(ctrl::READ, 0),
        read2 = pq::control(ctrl::READ, 2),
        read3 = pq::control(ctrl::READ, 3),
    );
    let mut m = Machine::assemble(&src).expect("assembles");
    let exit = m.run(10_000).expect("runs");
    let expect = sha256(b"abc");
    for (i, reg) in (10..14).enumerate() {
        assert_eq!(exit.reg(reg) as u8, expect[i], "digest byte {i}");
    }
    println!(
        "pq.sha256: sha256(\"abc\")[0..4] = {:02x} {:02x} {:02x} {:02x} ✔ (cycles: {})",
        exit.reg(10),
        exit.reg(11),
        exit.reg(12),
        exit.reg(13),
        exit.cycles
    );
}

/// pq.mul_chien: evaluate one step of Λ(αⁱ) with the 4-wide GF multiplier.
fn chien_demo() {
    let gf = Field::gf512();
    // Constants α¹..α⁴, values λ₁..λ₄: two writes each, one pair per write.
    let lambda = [33u16, 402, 7, 129];
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
            li   t1, {compute}       # COMPUTE: rd = xor of 4 products
            pq.mul_chien a0, zero, t1
            ecall
        "#,
        compute = pq::control(ctrl::START, 0),
    );
    let mut m = Machine::assemble(&src).expect("assembles");
    let exit = m.run(10_000).expect("runs");
    let expect = (0..4).fold(0u16, |acc, k| acc ^ gf.mul(lambda[k], gf.exp(k as u32 + 1)));
    assert_eq!(exit.reg(10) as u16, expect);
    println!(
        "pq.mul_chien: Σ λ_k·α^k = {:#05x} ✔ (9-cycle datapath stall included; cycles: {})",
        exit.reg(10),
        exit.cycles
    );
}

/// pq.mul_ter: multiply (1 − x)·(3 + 5x) on the 512-wide unit (inputs
/// zero-padded, cyclic mode) and read the first four result coefficients.
fn mul_ter_demo() {
    // Ternary (+1, −1) checks subtraction too:
    // (1 − x)(3 + 5x) = 3 + 2x − 5x²  →  3, 2, 246 mod 251.
    let (rs1, load) = pq::mul_ter_loads(&[1, -1], &[3, 5])[0];

    let src = format!(
        r#"
            li   t1, {reset}
            pq.mul_ter zero, zero, t1
            li   t0, {rs1}
            li   t1, {load}
            pq.mul_ter zero, t0, t1
            li   t1, {start}
            pq.mul_ter zero, zero, t1    # stalls 514 cycles
            li   t1, {read}
            pq.mul_ter a0, zero, t1      # first 4 coefficients
            ecall
        "#,
        reset = pq::control(ctrl::RESET, 0),
        start = pq::mul_ter_start(Convolution::Cyclic),
        read = pq::control(ctrl::READ, 0),
    );
    let mut m = Machine::assemble(&src).expect("assembles");
    let exit = m.run(10_000).expect("runs");
    let bytes = exit.reg(10).to_le_bytes();
    assert_eq!(bytes, [3, 2, 246, 0]);
    println!(
        "pq.mul_ter: (1 - x)(3 + 5x) = 3 + 2x - 5x² → coefficients {:?} ✔ (cycles: {})",
        &bytes[..3],
        exit.cycles
    );
    assert!(exit.cycles > 514, "compute stall must be visible");
}
