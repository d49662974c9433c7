//! The shared RV32 instruction table end to end: for random in-range
//! instructions of every kind (`Inst::templates`), `decode` inverts
//! `encode`, and the assembler re-encodes exactly what the disassembler
//! prints.

use lac_rand::prop::{self, ensure_eq};
use lac_rand::Rng;
use lac_rv32::inst::AluOp;
use lac_rv32::{assemble, decode, disassemble, encode, Inst};

fn reg(rng: &mut impl Rng) -> u8 {
    rng.gen_below_u32(32) as u8
}

/// A random multiple of `step` in the `bits`-wide two's-complement range.
fn signed(rng: &mut impl Rng, bits: u32, step: i64) -> i32 {
    let half = 1i64 << (bits - 1);
    (rng.gen_range_i64(-half / step, (half - step) / step) * step) as i32
}

/// `template` with every operand field drawn from its format's range.
fn randomize(template: Inst, rng: &mut impl Rng) -> Inst {
    let (rd, rs1, rs2) = (reg(rng), reg(rng), reg(rng));
    match template {
        Inst::Lui { .. } => Inst::Lui {
            rd,
            imm: signed(rng, 32, 0x1000),
        },
        Inst::Auipc { .. } => Inst::Auipc {
            rd,
            imm: signed(rng, 32, 0x1000),
        },
        Inst::Jal { .. } => Inst::Jal {
            rd,
            offset: signed(rng, 21, 2),
        },
        Inst::Jalr { .. } => Inst::Jalr {
            rd,
            rs1,
            offset: signed(rng, 12, 1),
        },
        Inst::Branch { op, .. } => Inst::Branch {
            op,
            rs1,
            rs2,
            offset: signed(rng, 13, 2),
        },
        Inst::Load { op, .. } => Inst::Load {
            op,
            rd,
            rs1,
            offset: signed(rng, 12, 1),
        },
        Inst::Store { op, .. } => Inst::Store {
            op,
            rs1,
            rs2,
            offset: signed(rng, 12, 1),
        },
        Inst::OpImm { op, .. } => {
            let imm = match op {
                AluOp::Sll | AluOp::Srl | AluOp::Sra => rng.gen_below_u32(32) as i32,
                _ => signed(rng, 12, 1),
            };
            Inst::OpImm { op, rd, rs1, imm }
        }
        Inst::Op { op, .. } => Inst::Op { op, rd, rs1, rs2 },
        Inst::Csr { op, .. } => Inst::Csr {
            op,
            rd,
            rs1,
            csr: rng.gen_below_u32(0x1000) as u16,
        },
        Inst::Pq { unit, .. } => Inst::Pq { unit, rd, rs1, rs2 },
        Inst::Fence | Inst::Ecall | Inst::Ebreak => template,
    }
}

#[test]
fn every_instruction_kind_round_trips_through_the_table() {
    let templates: Vec<Inst> = Inst::templates().collect();
    prop::check("isa_round_trip", 64, |rng| {
        for &template in &templates {
            let inst = randomize(template, rng);
            let word = encode(inst).map_err(|e| format!("{inst:?}: {e}"))?;
            ensure_eq(decode(word), Ok(inst))?;
            let text = disassemble(inst);
            ensure_eq(
                assemble(&text).map_err(|e| format!("'{text}': {e}")),
                Ok(vec![word]),
            )?;
        }
        Ok(())
    });
}

#[test]
fn fields_the_format_cannot_hold_are_refused() {
    for inst in [
        Inst::OpImm {
            op: AluOp::Add,
            rd: 32,
            rs1: 0,
            imm: 0,
        },
        Inst::OpImm {
            op: AluOp::Sub,
            rd: 1,
            rs1: 1,
            imm: 1,
        },
        Inst::OpImm {
            op: AluOp::Sra,
            rd: 1,
            rs1: 1,
            imm: 32,
        },
        Inst::Lui { rd: 1, imm: 0x800 },
        Inst::Jal { rd: 0, offset: 3 },
        Inst::Jal {
            rd: 0,
            offset: 0x10_0000,
        },
    ] {
        assert!(encode(inst).is_err(), "{inst:?}");
    }
}
