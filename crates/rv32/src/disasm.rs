//! A disassembler matching the assembler's syntax.
//!
//! [`disassemble`] renders a decoded [`Inst`] in the same syntax
//! [`crate::asm::assemble`] accepts, from the same tables the assembler
//! parses with: mnemonics from [`Inst::mnemonic`], register names from
//! [`reg_name`] and CSR names from [`Csr`]. So `assemble ∘ disassemble` is
//! [`crate::inst::encode`] on every encodable instruction — handy for
//! debugging simulator traces and asserted by round-trip tests.

use crate::inst::{Csr, Inst};

/// The ABI register names, `x0` to `x31`; the assembler parses the same
/// table (plus `fp` for `s0`).
pub(crate) const ABI_NAMES: [&str; 32] = [
    "zero", "ra", "sp", "gp", "tp", "t0", "t1", "t2", "s0", "s1", "a0", "a1", "a2", "a3", "a4",
    "a5", "a6", "a7", "s2", "s3", "s4", "s5", "s6", "s7", "s8", "s9", "s10", "s11", "t3", "t4",
    "t5", "t6",
];

/// ABI name of register `x<i>`.
pub fn reg_name(i: u8) -> &'static str {
    ABI_NAMES[i as usize]
}

/// Render one instruction in assembler syntax. Branch and jump targets are
/// shown as numeric byte offsets relative to the instruction.
pub fn disassemble(inst: Inst) -> String {
    let r = reg_name;
    let m = inst.mnemonic();
    match inst {
        Inst::Lui { rd, imm } | Inst::Auipc { rd, imm } => format!("{m} {}, {}", r(rd), imm >> 12),
        Inst::Jal { rd, offset } => format!("{m} {}, {offset}", r(rd)),
        Inst::Jalr { rd, rs1, offset } => format!("{m} {}, {}, {offset}", r(rd), r(rs1)),
        Inst::Branch {
            rs1, rs2, offset, ..
        } => format!("{m} {}, {}, {offset}", r(rs1), r(rs2)),
        Inst::Load {
            rd, rs1, offset, ..
        } => format!("{m} {}, {offset}({})", r(rd), r(rs1)),
        Inst::Store {
            rs1, rs2, offset, ..
        } => format!("{m} {}, {offset}({})", r(rs2), r(rs1)),
        Inst::OpImm { rd, rs1, imm, .. } => format!("{m} {}, {}, {imm}", r(rd), r(rs1)),
        Inst::Op { rd, rs1, rs2, .. } | Inst::Pq { rd, rs1, rs2, .. } => {
            format!("{m} {}, {}, {}", r(rd), r(rs1), r(rs2))
        }
        Inst::Csr { rd, rs1, csr, .. } => {
            let csr =
                Csr::from_number(csr).map_or_else(|| format!("{csr:#x}"), |c| c.name().into());
            format!("{m} {}, {csr}, {}", r(rd), r(rs1))
        }
        Inst::Fence | Inst::Ecall | Inst::Ebreak => m.into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;
    use crate::inst::decode;

    /// assemble → decode → disassemble → assemble must reproduce the word.
    fn roundtrip(src: &str) {
        let words = assemble(src).unwrap_or_else(|e| panic!("{src}: {e}"));
        for &w in &words {
            let inst = decode(w).unwrap_or_else(|e| panic!("{src}: {e}"));
            let text = disassemble(inst);
            let again = assemble(&text).unwrap_or_else(|e| panic!("'{text}': {e}"));
            assert_eq!(again, vec![w], "{src} → '{text}'");
        }
    }

    #[test]
    fn roundtrips_r_and_i_types() {
        for src in [
            "add a0, a1, a2",
            "sub t0, t1, t2",
            "xor s2, s3, s4",
            "sll t3, t4, t5",
            "mul a0, a1, a2",
            "divu s10, s11, t6",
            "addi a0, a0, -2048",
            "andi t0, t1, 255",
            "slli a0, a1, 31",
            "srai a2, a3, 1",
            "sltiu a4, a5, 1",
        ] {
            roundtrip(src);
        }
    }

    #[test]
    fn roundtrips_memory_ops() {
        for src in [
            "lw a0, 0(sp)",
            "lb t0, -1(a0)",
            "lhu s1, 2046(gp)",
            "sw ra, 4(sp)",
            "sb a7, -128(t6)",
            "sh zero, 0(a0)",
        ] {
            roundtrip(src);
        }
    }

    #[test]
    fn roundtrips_control_flow() {
        for src in [
            "jal ra, 2048",
            "jal zero, -4",
            "jalr ra, t0, 12",
            "beq a0, a1, 16",
            "bgeu t0, t1, -64",
            "ecall",
            "ebreak",
            "fence",
            "lui a0, 493",
            "auipc t0, -1",
        ] {
            roundtrip(src);
        }
    }

    #[test]
    fn roundtrips_pq_instructions() {
        for src in [
            "pq.mul_ter a0, a1, a2",
            "pq.mul_chien t0, t1, t2",
            "pq.sha256 zero, a0, a1",
            "pq.modq a0, a0, zero",
        ] {
            roundtrip(src);
        }
    }

    #[test]
    fn roundtrips_csr_instructions() {
        for src in [
            "csrrs a0, cycle, zero",
            "csrrw zero, mscratch, t0",
            "csrrc t1, instret, t2",
        ] {
            roundtrip(src);
        }
    }

    #[test]
    fn register_names_are_canonical() {
        assert_eq!(reg_name(0), "zero");
        assert_eq!(reg_name(2), "sp");
        assert_eq!(reg_name(10), "a0");
        assert_eq!(reg_name(31), "t6");
    }

    #[test]
    fn disassembles_readably() {
        let words = assemble("addi a0, zero, 42").unwrap();
        let text = disassemble(decode(words[0]).unwrap());
        assert_eq!(text, "addi a0, zero, 42");
    }
}
