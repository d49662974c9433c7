//! Helpers shared by the ISS differential suites (`riscv_predecode.rs`,
//! `riscv_jit.rs`, `riscv_warmstart.rs`): a register picker for random
//! programs and raw RV32 encoders for exact-address self-modifying
//! programs, whose patch bytes bypass the assembler so every store target
//! is a known constant.

use lac_rand::Rng;
use lac_rv32::Machine;

/// A random register in x5..x15 (avoids x0..x4 so sp/ra conventions and
/// the hardwired zero don't mask bugs, and keeps programs assemblable).
pub fn reg(rng: &mut impl Rng) -> u32 {
    5 + rng.gen_below_u32(11)
}

/// `ADDI rd, rs1, imm` encoder.
pub fn encode_addi(rd: u32, rs1: u32, imm: i32) -> u32 {
    ((imm as u32 & 0xFFF) << 20) | (rs1 << 15) | (rd << 7) | 0x13
}

/// `SLTIU rd, rs1, imm` encoder.
pub fn encode_sltiu(rd: u32, rs1: u32, imm: i32) -> u32 {
    ((imm as u32 & 0xFFF) << 20) | (rs1 << 15) | (0b011 << 12) | (rd << 7) | 0x13
}

/// `ADD rd, rs1, rs2` encoder.
pub fn encode_add(rd: u32, rs1: u32, rs2: u32) -> u32 {
    (rs2 << 20) | (rs1 << 15) | (rd << 7) | 0x33
}

/// `MUL rd, rs1, rs2` encoder.
pub fn encode_mul(rd: u32, rs1: u32, rs2: u32) -> u32 {
    (1 << 25) | (rs2 << 20) | (rs1 << 15) | (rd << 7) | 0x33
}

/// `SW rs2, imm(rs1)` encoder.
pub fn encode_sw(rs1: u32, rs2: u32, imm: i32) -> u32 {
    let imm = imm as u32 & 0xFFF;
    ((imm >> 5) << 25) | (rs2 << 20) | (rs1 << 15) | (0b010 << 12) | ((imm & 0x1F) << 7) | 0x23
}

/// `LUI rd, imm20` encoder.
pub fn encode_lui(rd: u32, imm20: u32) -> u32 {
    (imm20 << 12) | (rd << 7) | 0x37
}

/// `BNE rs1, rs2, offset` encoder (offset relative to this instruction).
pub fn encode_bne(rs1: u32, rs2: u32, offset: i32) -> u32 {
    let o = offset as u32;
    ((o >> 12 & 1) << 31)
        | ((o >> 5 & 0x3F) << 25)
        | (rs2 << 20)
        | (rs1 << 15)
        | (0b001 << 12)
        | ((o >> 1 & 0xF) << 8)
        | ((o >> 11 & 1) << 7)
        | 0x63
}

/// `ECALL` encoding.
pub const ECALL: u32 = 0x0000_0073;

/// Build `li rd, value` as (lui, addi) with RISC-V's sign-carry split.
pub fn encode_li(rd: u32, value: u32) -> [u32; 2] {
    let lo = (value << 20) as i32 >> 20; // sign-extended low 12 bits
    let hi = value.wrapping_sub(lo as u32) >> 12;
    [encode_lui(rd, hi), encode_addi(rd, rd, lo)]
}

/// Wrap raw words in a fresh machine starting at PC 0.
pub fn machine_from_words(words: &[u32]) -> Machine {
    let mut machine = Machine::assemble("ecall").expect("stub");
    machine.cpu_mut().load_words(0, words);
    machine.cpu_mut().set_pc(0);
    machine
}

/// The hot self-modifying loop: a single-line loop that stores into its
/// own body every iteration (same bytes until iteration `patch_at`, then
/// a patched victim, initially `old`, becomes `new`).
///
/// The store sits *before* the victim inside the loop body, so once a
/// fast engine has compiled the loop, every iteration's store invalidates
/// the running block's line and must bail exactly — and from iteration
/// `patch_at` on, the victim the engine resumes into is a different
/// instruction.
pub fn hot_self_modifying_words(patch_at: u32, iterations: u32, old: u32, new: u32) -> Vec<u32> {
    let delta = new.wrapping_sub(old);
    let mut words = Vec::new();
    words.extend(encode_li(20, 0)); // x20 = counter
    words.extend(encode_li(23, old)); // x23 = word to store (accumulates delta)
    words.extend(encode_li(22, delta)); // x22 = delta
    words.extend(encode_li(28, iterations)); // x28 = loop bound
    let loop_index = words.len();
    words.push(encode_addi(20, 20, 1)); // counter += 1
    words.push(encode_addi(21, 20, -(patch_at as i32))); // x21 = counter - patch_at
    words.push(encode_sltiu(21, 21, 1)); // x21 = (counter == patch_at)
    words.push(encode_mul(25, 21, 22)); // x25 = delta or 0
    words.push(encode_add(23, 23, 25)); // x23 += (delta at patch_at)
    let victim_index = words.len() + 1;
    words.push(encode_sw(0, 23, (victim_index * 4) as i32)); // patch the victim
    words.push(old); // the victim instruction
    let bne_index = words.len();
    words.push(encode_bne(
        20,
        28,
        (loop_index as i32 - bne_index as i32) * 4,
    ));
    words.push(ECALL);
    assert!(words.len() < 64, "loop must stay within one predecode line");
    words
}
