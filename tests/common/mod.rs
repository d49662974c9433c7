//! Helpers shared by the ISS differential suites (`riscv_predecode.rs`
//! and `riscv_jit.rs`): a register picker for random
//! programs and word-level program builders for exact-address
//! self-modifying programs, whose patch words are encoded directly
//! (`lac_rv32::encode`) so every store target is a known constant.

use lac_rand::Rng;
use lac_rv32::inst::{AluOp, BranchOp, StoreOp};
use lac_rv32::{Inst, Machine};

/// A random register in x5..x15 (avoids x0..x4 so sp/ra conventions and
/// the hardwired zero don't mask bugs, and keeps programs assemblable).
pub fn reg(rng: &mut impl Rng) -> u32 {
    5 + rng.gen_below_u32(11)
}

/// Encode one instruction through the simulator's own instruction table
/// (the suites only build in-range fields).
pub fn word(inst: Inst) -> u32 {
    lac_rv32::encode(inst).expect("test instructions have in-range fields")
}

/// `addi rd, rs1, imm`.
pub fn addi(rd: u8, rs1: u8, imm: i32) -> Inst {
    Inst::OpImm {
        op: AluOp::Add,
        rd,
        rs1,
        imm,
    }
}

/// `bne rs1, rs2, offset` (offset relative to this instruction).
pub fn bne(rs1: u8, rs2: u8, offset: i32) -> Inst {
    Inst::Branch {
        op: BranchOp::Ne,
        rs1,
        rs2,
        offset,
    }
}

/// `li rd, value` as a fixed-size `lui` + `addi` pair, with RISC-V's
/// sign-carry split.
pub fn li(rd: u8, value: u32) -> [u32; 2] {
    let hi = value.wrapping_add(0x800) & !0xfff;
    let lo = value.wrapping_sub(hi) as i32; // sign-extended low 12 bits
    [
        word(Inst::Lui { rd, imm: hi as i32 }),
        word(addi(rd, rd, lo)),
    ]
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
    words.extend(li(20, 0)); // x20 = counter
    words.extend(li(23, old)); // x23 = word to store (accumulates delta)
    words.extend(li(22, delta)); // x22 = delta
    words.extend(li(28, iterations)); // x28 = loop bound
    let loop_index = words.len();
    words.push(word(addi(20, 20, 1))); // counter += 1
    words.push(word(addi(21, 20, -(patch_at as i32)))); // x21 = counter - patch_at
    words.push(word(Inst::OpImm {
        op: AluOp::Sltu,
        rd: 21,
        rs1: 21,
        imm: 1,
    })); // x21 = (counter == patch_at)
    words.push(word(Inst::Op {
        op: AluOp::Mul,
        rd: 25,
        rs1: 21,
        rs2: 22,
    })); // x25 = delta or 0
    words.push(word(Inst::Op {
        op: AluOp::Add,
        rd: 23,
        rs1: 23,
        rs2: 25,
    })); // x23 += (delta at patch_at)
    let victim_index = words.len() + 1;
    words.push(word(Inst::Store {
        op: StoreOp::Word,
        rs1: 0,
        rs2: 23,
        offset: (victim_index * 4) as i32,
    })); // patch the victim
    words.push(old); // the victim instruction
    let bne_index = words.len();
    words.push(word(bne(
        20,
        28,
        (loop_index as i32 - bne_index as i32) * 4,
    )));
    words.push(word(Inst::Ecall));
    assert!(words.len() < 64, "loop must stay within one predecode line");
    words
}
