//! On-core self-measurement: the paper's cycle counts were taken *on the
//! RISC-V core itself*. This example does the same inside the simulator —
//! RISC-V programs read the `cycle` CSR around each PQ-ALU operation and
//! report their own latencies.
//!
//! Run: `cargo run --release --example self_benchmark`

use lac_ring::Convolution;
use lac_rv32::pq::{self, ctrl};
use lac_rv32::Machine;

/// Run a measurement program that leaves the cycle delta in a0.
fn measure(body: &str) -> u32 {
    let src = format!(
        r#"
            rdcycle s0
            {body}
            rdcycle s1
            sub  a0, s1, s0
            addi a0, a0, -1    # exclude the closing rdcycle itself
            ecall
        "#
    );
    let mut m = Machine::assemble(&src).expect("assembles");
    let exit = m.run(1_000_000).expect("runs");
    exit.reg(10)
}

fn main() {
    println!("On-core latencies measured by RISC-V programs via rdcycle\n");

    let modq = measure("li t0, 123456\npq.modq t1, t0, zero");
    let div = measure("li t0, 123456\nli t2, 251\nremu t1, t0, t2");
    println!("modulo 251:");
    println!("  pq.modq            : {modq:>4} cycles (incl. 2x li setup)");
    println!("  remu (M extension) : {div:>4} cycles (iterative divider)");

    let sha_block = measure(&format!(
        r#"
            li   t1, {reset}
            pq.sha256 zero, zero, t1
            li   t1, {write}
            li   t3, 64
        fill:
            pq.sha256 zero, t3, t1
            addi t3, t3, -1
            bnez t3, fill
            li   t1, {finalize}
            pq.sha256 zero, zero, t1
        "#,
        reset = pq::control(ctrl::RESET, 0),
        write = pq::control(ctrl::LOAD, 0),
        finalize = pq::control(ctrl::START, 0),
    ));
    println!("\nSHA-256, one 64-byte block through the unit:");
    println!("  write 64 bytes + generate : {sha_block:>5} cycles");

    let chien_step = measure(&format!(
        r#"
            li   t1, {compute}
            pq.mul_chien t2, zero, t1
        "#,
        compute = pq::control(ctrl::START, 0),
    ));
    println!("\nChien evaluation step (4 parallel GF multipliers):");
    println!("  pq.mul_chien compute : {chien_step:>4} cycles (9-cycle datapath + issue)");

    let mul_start = measure(&format!(
        r#"
            li   t1, {reset}
            pq.mul_ter zero, zero, t1
            li   t1, {start}
            pq.mul_ter zero, zero, t1
        "#,
        reset = pq::control(ctrl::RESET, 0),
        start = pq::mul_ter_start(Convolution::Negacyclic),
    ));
    println!("\nMUL TER compute phase (n = 512):");
    println!("  reset + start (stalls until done) : {mul_start:>4} cycles");
    assert!(
        mul_start > 514,
        "the 512+2-cycle compute stall must dominate"
    );

    println!("\n(Methodology note: this mirrors Section VI — the cycle numbers in the");
    println!("paper's tables are performance-counter readings taken on the RISCY core.)");
}
