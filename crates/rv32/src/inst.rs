//! The RV32 instruction table: RV32I base, M extension, C extension (via
//! decompression), Zicsr and the PQ-ALU custom instructions (opcode
//! `0x77`).
//!
//! This module is the only place that knows how an instruction is
//! encoded. Each operation enum carries its funct code(s) and mnemonic in
//! one table row (the `op_table!` macro), with the forward and inverse mappings
//! generated side by side; [`decode`] reads the funct codes, [`encode`] is
//! its exact inverse and the only place that packs fields and checks their
//! ranges, and [`decompress`] builds the [`Inst`] a 16-bit encoding
//! expands to and encodes that. The assembler ([`crate::asm`]) and the
//! disassembler ([`crate::disasm`]) take mnemonics from
//! [`Inst::mnemonic`], and CSR numbers and names come from [`Csr`].

use std::fmt;

/// Declares enums whose variants are rows of an encoding table: each row
/// gives the variant, its code (a funct field, a `(funct7, funct3)` pair
/// or a CSR number) and its assembler name. The code → variant match and
/// the variant → code match are generated from the same row, so each code
/// and name is written once.
macro_rules! op_table {
    ($(
        $(#[$meta:meta])*
        $name:ident: $code_fn:ident / $from_fn:ident -> $code_ty:ty, $text_fn:ident {
            $($(#[$vmeta:meta])* $variant:ident = $code:tt, $text:literal;)+
        }
    )+) => {$(
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum $name {
            $(#[doc = concat!("`", $text, "`")] $(#[$vmeta])* $variant,)+
        }

        impl $name {
            /// Every row of the table, in table order.
            pub const ALL: &'static [Self] = &[$(Self::$variant),+];

            /// The code this row encodes as.
            pub fn $code_fn(self) -> $code_ty {
                match self {
                    $(Self::$variant => $code,)+
                }
            }

            /// The row a code selects, if any.
            #[inline]
            pub fn $from_fn(code: $code_ty) -> Option<Self> {
                match code {
                    $($code => Some(Self::$variant),)+
                    _ => None,
                }
            }

            /// The assembler name.
            pub fn $text_fn(self) -> &'static str {
                match self {
                    $(Self::$variant => $text,)+
                }
            }
        }
    )+};
}

op_table! {
    /// Conditional branch comparisons.
    BranchOp: funct3 / from_funct3 -> u32, mnemonic {
        Eq = 0, "beq";
        Ne = 1, "bne";
        /// Signed.
        Lt = 4, "blt";
        /// Signed.
        Ge = 5, "bge";
        Ltu = 6, "bltu";
        Geu = 7, "bgeu";
    }

    /// Memory load widths/extensions.
    LoadOp: funct3 / from_funct3 -> u32, mnemonic {
        /// Sign-extended byte.
        Byte = 0, "lb";
        /// Sign-extended halfword.
        Half = 1, "lh";
        Word = 2, "lw";
        ByteU = 4, "lbu";
        HalfU = 5, "lhu";
    }

    /// Memory store widths.
    StoreOp: funct3 / from_funct3 -> u32, mnemonic {
        Byte = 0, "sb";
        Half = 1, "sh";
        Word = 2, "sw";
    }

    /// Register-register / register-immediate ALU operations (incl. the M
    /// extension), coded by the register form's `(funct7, funct3)`. The
    /// immediate forms share funct3; the shifts carry funct7 in
    /// `imm[11:5]` (see [`AluOp::imm_mnemonic`]).
    AluOp: funct / from_funct -> (u32, u32), mnemonic {
        Add = (0x00, 0), "add";
        Sub = (0x20, 0), "sub";
        Sll = (0x00, 1), "sll";
        Slt = (0x00, 2), "slt";
        Sltu = (0x00, 3), "sltu";
        Xor = (0x00, 4), "xor";
        Srl = (0x00, 5), "srl";
        Sra = (0x20, 5), "sra";
        Or = (0x00, 6), "or";
        And = (0x00, 7), "and";
        Mul = (0x01, 0), "mul";
        Mulh = (0x01, 1), "mulh";
        Mulhsu = (0x01, 2), "mulhsu";
        Mulhu = (0x01, 3), "mulhu";
        Div = (0x01, 4), "div";
        Divu = (0x01, 5), "divu";
        Rem = (0x01, 6), "rem";
        Remu = (0x01, 7), "remu";
    }

    /// CSR access operations (Zicsr subset).
    CsrOp: funct3 / from_funct3 -> u32, mnemonic {
        /// Atomic read/write.
        Rw = 1, "csrrw";
        /// Atomic read and set bits.
        Rs = 2, "csrrs";
        /// Atomic read and clear bits.
        Rc = 3, "csrrc";
    }

    /// The four PQ-ALU units selected by funct3 (Fig. 6).
    PqUnit: funct3 / from_funct3 -> u32, mnemonic {
        MulTer = 0, "pq.mul_ter";
        MulChien = 1, "pq.mul_chien";
        Sha256 = 2, "pq.sha256";
        ModQ = 3, "pq.modq";
    }

    /// The CSRs the core implements: the performance counters the paper's
    /// on-core measurements read (read-only) and a scratch register.
    Csr: number / from_number -> u16, name {
        Cycle = 0xc00, "cycle";
        CycleH = 0xc80, "cycleh";
        Instret = 0xc02, "instret";
        InstretH = 0xc82, "instreth";
        Mscratch = 0x340, "mscratch";
    }
}

impl AluOp {
    /// The immediate form's mnemonic, or `None` where the ISA has no
    /// immediate form (`sub` and the M extension).
    pub fn imm_mnemonic(self) -> Option<&'static str> {
        Some(match self {
            Self::Add => "addi",
            Self::Sll => "slli",
            Self::Slt => "slti",
            Self::Sltu => "sltiu",
            Self::Xor => "xori",
            Self::Srl => "srli",
            Self::Sra => "srai",
            Self::Or => "ori",
            Self::And => "andi",
            _ => return None,
        })
    }
}

impl Csr {
    /// The CSR an assembler name denotes, if any.
    pub(crate) fn from_name(name: &str) -> Option<Self> {
        Self::ALL.iter().copied().find(|csr| csr.name() == name)
    }
}

/// The major opcode shared by all PQ instructions (Section V).
pub const PQ_OPCODE: u32 = 0x77;

/// The base major opcodes (bits 6:0).
mod opcode {
    pub const LUI: u32 = 0x37;
    pub const AUIPC: u32 = 0x17;
    pub const JAL: u32 = 0x6f;
    pub const JALR: u32 = 0x67;
    pub const BRANCH: u32 = 0x63;
    pub const LOAD: u32 = 0x03;
    pub const STORE: u32 = 0x23;
    pub const OP_IMM: u32 = 0x13;
    pub const OP: u32 = 0x33;
    pub const MISC_MEM: u32 = 0x0f;
    pub const SYSTEM: u32 = 0x73;
}

/// A decoded instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum Inst {
    Lui {
        rd: u8,
        imm: i32,
    },
    Auipc {
        rd: u8,
        imm: i32,
    },
    Jal {
        rd: u8,
        offset: i32,
    },
    Jalr {
        rd: u8,
        rs1: u8,
        offset: i32,
    },
    Branch {
        op: BranchOp,
        rs1: u8,
        rs2: u8,
        offset: i32,
    },
    Load {
        op: LoadOp,
        rd: u8,
        rs1: u8,
        offset: i32,
    },
    Store {
        op: StoreOp,
        rs1: u8,
        rs2: u8,
        offset: i32,
    },
    OpImm {
        op: AluOp,
        rd: u8,
        rs1: u8,
        imm: i32,
    },
    Op {
        op: AluOp,
        rd: u8,
        rs1: u8,
        rs2: u8,
    },
    Fence,
    Ecall,
    Ebreak,
    Csr {
        op: CsrOp,
        rd: u8,
        rs1: u8,
        csr: u16,
    },
    Pq {
        unit: PqUnit,
        rd: u8,
        rs1: u8,
        rs2: u8,
    },
}

impl Inst {
    /// The assembler mnemonic. An immediate form the ISA lacks (which
    /// [`encode`] rejects) renders with its register-form mnemonic.
    pub fn mnemonic(&self) -> &'static str {
        match *self {
            Inst::Lui { .. } => "lui",
            Inst::Auipc { .. } => "auipc",
            Inst::Jal { .. } => "jal",
            Inst::Jalr { .. } => "jalr",
            Inst::Branch { op, .. } => op.mnemonic(),
            Inst::Load { op, .. } => op.mnemonic(),
            Inst::Store { op, .. } => op.mnemonic(),
            Inst::OpImm { op, .. } => op.imm_mnemonic().unwrap_or(op.mnemonic()),
            Inst::Op { op, .. } => op.mnemonic(),
            Inst::Fence => "fence",
            Inst::Ecall => "ecall",
            Inst::Ebreak => "ebreak",
            Inst::Csr { op, .. } => op.mnemonic(),
            Inst::Pq { unit, .. } => unit.mnemonic(),
        }
    }

    /// One instruction of every encodable kind, operand fields zero: the
    /// set of real (non-pseudo) mnemonics.
    #[rustfmt::skip]
    pub fn templates() -> impl Iterator<Item = Inst> {
        use Inst::*;
        let fixed = [
            Lui { rd: 0, imm: 0 }, Auipc { rd: 0, imm: 0 }, Jal { rd: 0, offset: 0 },
            Jalr { rd: 0, rs1: 0, offset: 0 }, Fence, Ecall, Ebreak,
        ];
        let imm_forms = AluOp::ALL.iter().filter(|op| op.imm_mnemonic().is_some());
        fixed.into_iter()
            .chain(BranchOp::ALL.iter().map(|&op| Branch { op, rs1: 0, rs2: 0, offset: 0 }))
            .chain(LoadOp::ALL.iter().map(|&op| Load { op, rd: 0, rs1: 0, offset: 0 }))
            .chain(StoreOp::ALL.iter().map(|&op| Store { op, rs1: 0, rs2: 0, offset: 0 }))
            .chain(imm_forms.map(|&op| OpImm { op, rd: 0, rs1: 0, imm: 0 }))
            .chain(AluOp::ALL.iter().map(|&op| Op { op, rd: 0, rs1: 0, rs2: 0 }))
            .chain(CsrOp::ALL.iter().map(|&op| Csr { op, rd: 0, rs1: 0, csr: 0 }))
            .chain(PqUnit::ALL.iter().map(|&unit| Pq { unit, rd: 0, rs1: 0, rs2: 0 }))
    }

    /// The template (see [`Inst::templates`]) a real mnemonic names.
    pub(crate) fn from_mnemonic(mnemonic: &str) -> Option<Inst> {
        Self::templates().find(|inst| inst.mnemonic() == mnemonic)
    }
}

impl fmt::Display for Inst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

/// Decoding failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodeInstError {
    /// The raw instruction word.
    pub word: u32,
}

impl fmt::Display for DecodeInstError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cannot decode instruction {:#010x}", self.word)
    }
}

impl std::error::Error for DecodeInstError {}

#[inline]
fn rd(w: u32) -> u8 {
    ((w >> 7) & 0x1f) as u8
}
#[inline]
fn rs1(w: u32) -> u8 {
    ((w >> 15) & 0x1f) as u8
}
#[inline]
fn rs2(w: u32) -> u8 {
    ((w >> 20) & 0x1f) as u8
}
#[inline]
fn funct3(w: u32) -> u32 {
    (w >> 12) & 0x7
}
#[inline]
fn funct7(w: u32) -> u32 {
    w >> 25
}

#[inline]
fn imm_i(w: u32) -> i32 {
    (w as i32) >> 20
}
#[inline]
fn imm_s(w: u32) -> i32 {
    (((w as i32) >> 25) << 5) | (((w >> 7) & 0x1f) as i32)
}
#[inline]
fn imm_b(w: u32) -> i32 {
    (((w as i32) >> 31) << 12)
        | ((((w >> 7) & 1) as i32) << 11)
        | ((((w >> 25) & 0x3f) as i32) << 5)
        | ((((w >> 8) & 0xf) as i32) << 1)
}
#[inline]
fn imm_u(w: u32) -> i32 {
    (w & 0xffff_f000) as i32
}
#[inline]
fn imm_j(w: u32) -> i32 {
    (((w as i32) >> 31) << 20)
        | ((((w >> 12) & 0xff) as i32) << 12)
        | ((((w >> 20) & 1) as i32) << 11)
        | ((((w >> 21) & 0x3ff) as i32) << 1)
}

/// Decode a 32-bit instruction word.
///
/// # Errors
///
/// Returns [`DecodeInstError`] for unknown encodings.
pub fn decode(w: u32) -> Result<Inst, DecodeInstError> {
    let err = || DecodeInstError { word: w };
    let (rd, rs1, rs2, f3) = (rd(w), rs1(w), rs2(w), funct3(w));
    let inst = match w & 0x7f {
        opcode::LUI => Inst::Lui { rd, imm: imm_u(w) },
        opcode::AUIPC => Inst::Auipc { rd, imm: imm_u(w) },
        opcode::JAL => Inst::Jal {
            rd,
            offset: imm_j(w),
        },
        opcode::JALR if f3 == 0 => Inst::Jalr {
            rd,
            rs1,
            offset: imm_i(w),
        },
        opcode::BRANCH => Inst::Branch {
            op: BranchOp::from_funct3(f3).ok_or_else(err)?,
            rs1,
            rs2,
            offset: imm_b(w),
        },
        opcode::LOAD => Inst::Load {
            op: LoadOp::from_funct3(f3).ok_or_else(err)?,
            rd,
            rs1,
            offset: imm_i(w),
        },
        opcode::STORE => Inst::Store {
            op: StoreOp::from_funct3(f3).ok_or_else(err)?,
            rs1,
            rs2,
            offset: imm_s(w),
        },
        opcode::OP_IMM => {
            // Only the right shifts are told apart by funct7 (imm[11:5]).
            let f7 = if f3 == 5 { funct7(w) } else { 0 };
            let op = AluOp::from_funct((f7, f3))
                .filter(|op| op.imm_mnemonic().is_some())
                .ok_or_else(err)?;
            let imm = if matches!(op, AluOp::Sll | AluOp::Srl | AluOp::Sra) {
                i32::from(rs2)
            } else {
                imm_i(w)
            };
            Inst::OpImm { op, rd, rs1, imm }
        }
        opcode::OP => {
            let op = AluOp::from_funct((funct7(w), f3)).ok_or_else(err)?;
            Inst::Op { op, rd, rs1, rs2 }
        }
        opcode::MISC_MEM => Inst::Fence,
        opcode::SYSTEM => match f3 {
            0 => match w >> 20 {
                0 => Inst::Ecall,
                1 => Inst::Ebreak,
                _ => return Err(err()),
            },
            _ => Inst::Csr {
                op: CsrOp::from_funct3(f3).ok_or_else(err)?,
                rd,
                rs1,
                csr: (w >> 20) as u16,
            },
        },
        PQ_OPCODE => {
            let unit = PqUnit::from_funct3(f3).ok_or_else(err)?;
            Inst::Pq { unit, rd, rs1, rs2 }
        }
        _ => return Err(err()),
    };
    Ok(inst)
}

/// Encoding failure: a field of an [`Inst`] its format cannot hold.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncodeError(String);

impl fmt::Display for EncodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for EncodeError {}

/// `value` as a field holding the multiples of `step` in `min..=max`.
fn field(name: &str, value: i64, min: i64, max: i64, step: i64) -> Result<u32, EncodeError> {
    if (min..=max).contains(&value) && value % step == 0 {
        return Ok(value as u32);
    }
    let multiple = if step > 1 {
        format!(" (multiples of {step})")
    } else {
        String::new()
    };
    Err(EncodeError(format!(
        "{name} {value} out of range {min}..={max}{multiple}"
    )))
}

/// `value` as a `bits`-wide two's-complement field of multiples of `step`.
fn signed(name: &str, value: i32, bits: u32, step: i64) -> Result<u32, EncodeError> {
    let half = 1i64 << (bits - 1);
    field(name, value.into(), -half, half - step, step)
}

fn reg(r: u8) -> Result<u32, EncodeError> {
    field("register", r.into(), 0, 31, 1)
}

fn r_type(opcode: u32, (f7, f3): (u32, u32), rd: u8, rs1: u8, rs2: u8) -> Result<u32, EncodeError> {
    Ok(f7 << 25 | reg(rs2)? << 20 | reg(rs1)? << 15 | f3 << 12 | reg(rd)? << 7 | opcode)
}

fn i_type(opcode: u32, f3: u32, rd: u8, rs1: u8, imm: u32) -> Result<u32, EncodeError> {
    Ok((imm & 0xfff) << 20 | reg(rs1)? << 15 | f3 << 12 | reg(rd)? << 7 | opcode)
}

fn s_type(opcode: u32, f3: u32, rs1: u8, rs2: u8, imm: u32) -> Result<u32, EncodeError> {
    Ok((imm >> 5 & 0x7f) << 25
        | reg(rs2)? << 20
        | reg(rs1)? << 15
        | f3 << 12
        | (imm & 0x1f) << 7
        | opcode)
}

fn u_type(opcode: u32, rd: u8, value: i32) -> Result<u32, EncodeError> {
    Ok(signed("upper immediate value", value, 32, 0x1000)? | reg(rd)? << 7 | opcode)
}

/// The `lui`/`auipc` value a 20-bit upper-immediate operand denotes
/// (`operand << 12`); the operand may be written signed or unsigned.
///
/// # Errors
///
/// Returns [`EncodeError`] outside `-0x80000..=0xfffff`.
pub(crate) fn upper_imm(operand: i64) -> Result<i32, EncodeError> {
    let bits = field("upper immediate", operand, -0x8_0000, 0xf_ffff, 1)?;
    Ok((bits << 12) as i32)
}

/// Encode one instruction: the exact inverse of [`decode`]
/// (`decode(encode(i)?) == Ok(i)`) and the only place that packs fields
/// and checks their ranges.
///
/// # Errors
///
/// Returns [`EncodeError`] for a field its format cannot hold: registers
/// past `x31`; I and S immediates outside 12-bit signed; branch offsets
/// outside ±4 KiB or odd; jump offsets outside ±1 MiB or odd; `lui`/`auipc`
/// values that are not multiples of 4096; shift amounts outside 0–31; CSR
/// numbers past 12 bits; or an immediate form the ISA lacks.
pub fn encode(inst: Inst) -> Result<u32, EncodeError> {
    match inst {
        Inst::Lui { rd, imm } => u_type(opcode::LUI, rd, imm),
        Inst::Auipc { rd, imm } => u_type(opcode::AUIPC, rd, imm),
        Inst::Jal { rd, offset } => {
            let o = signed("offset", offset, 21, 2)?;
            let imm =
                (o >> 20 & 1) << 19 | (o >> 1 & 0x3ff) << 9 | (o >> 11 & 1) << 8 | (o >> 12 & 0xff);
            Ok(imm << 12 | reg(rd)? << 7 | opcode::JAL)
        }
        Inst::Jalr { rd, rs1, offset } => {
            i_type(opcode::JALR, 0, rd, rs1, signed("offset", offset, 12, 1)?)
        }
        Inst::Branch {
            op,
            rs1,
            rs2,
            offset,
        } => {
            // B is S with bits 12 and 11 of the offset moved into S's bit
            // 11 and bit 0 (which B's even offsets never use).
            let o = signed("offset", offset, 13, 2)?;
            let imm = (o >> 12 & 1) << 11 | (o & 0x7e0) | (o & 0x1e) | (o >> 11 & 1);
            s_type(opcode::BRANCH, op.funct3(), rs1, rs2, imm)
        }
        Inst::Load {
            op,
            rd,
            rs1,
            offset,
        } => i_type(
            opcode::LOAD,
            op.funct3(),
            rd,
            rs1,
            signed("offset", offset, 12, 1)?,
        ),
        Inst::Store {
            op,
            rs1,
            rs2,
            offset,
        } => s_type(
            opcode::STORE,
            op.funct3(),
            rs1,
            rs2,
            signed("offset", offset, 12, 1)?,
        ),
        Inst::OpImm { op, rd, rs1, imm } => {
            let (f7, f3) = op.funct();
            let imm = match op {
                AluOp::Sll | AluOp::Srl | AluOp::Sra => {
                    f7 << 5 | field("shift amount", imm.into(), 0, 31, 1)?
                }
                _ if op.imm_mnemonic().is_some() => signed("immediate", imm, 12, 1)?,
                _ => {
                    let name = op.mnemonic();
                    return Err(EncodeError(format!("'{name}' has no immediate form")));
                }
            };
            i_type(opcode::OP_IMM, f3, rd, rs1, imm)
        }
        Inst::Op { op, rd, rs1, rs2 } => r_type(opcode::OP, op.funct(), rd, rs1, rs2),
        Inst::Fence => Ok(opcode::MISC_MEM),
        Inst::Ecall => Ok(opcode::SYSTEM),
        Inst::Ebreak => i_type(opcode::SYSTEM, 0, 0, 0, 1),
        Inst::Csr { op, rd, rs1, csr } => {
            let csr = field("CSR", csr.into(), 0, 0xfff, 1)?;
            i_type(opcode::SYSTEM, op.funct3(), rd, rs1, csr)
        }
        Inst::Pq { unit, rd, rs1, rs2 } => r_type(PQ_OPCODE, (0, unit.funct3()), rd, rs1, rs2),
    }
}

/// Expand a 16-bit compressed (C extension) instruction into its 32-bit
/// equivalent.
///
/// Supports the RV32C subset generated by compilers for integer code:
/// arithmetic, loads/stores, stack-pointer forms, jumps and branches.
///
/// # Errors
///
/// Returns [`DecodeInstError`] for reserved or unsupported encodings,
/// including RV32C's reserved shift amounts (`shamt[5] = 1`).
pub fn decompress(h: u16) -> Result<u32, DecodeInstError> {
    let err = || DecodeInstError { word: u32::from(h) };
    let h = u32::from(h);
    let funct3 = (h >> 13) & 0x7;
    // A full 5-bit register field, and a compressed 3-bit one (x8..x15).
    let full = |x: u32| (x & 0x1f) as u8;
    let rc = |x: u32| (x & 0x7) as u8 + 8;
    // The CI-format 6-bit immediate (c.addi, c.li, c.andi) and shift amount.
    let ci = sign_extend((((h >> 12) & 1) << 5) | ((h >> 2) & 0x1f), 6);
    let shamt = ((((h >> 12) & 1) << 5) | ((h >> 2) & 0x1f)) as i32;
    // The CL/CS-format word offset (c.lw, c.sw).
    let word_offset = ((h >> 7) & 0x38) | ((h << 1) & 0x40) | ((h >> 4) & 0x4);
    let addi = |rd: u8, rs1: u8, imm: i32| Inst::OpImm {
        op: AluOp::Add,
        rd,
        rs1,
        imm,
    };
    let alu_imm = |op: AluOp, rd: u8, imm: i32| Inst::OpImm {
        op,
        rd,
        rs1: rd,
        imm,
    };
    let lw = |rd: u8, rs1: u8, offset: u32| Inst::Load {
        op: LoadOp::Word,
        rd,
        rs1,
        offset: offset as i32,
    };
    let sw = |rs1: u8, rs2: u8, offset: u32| Inst::Store {
        op: StoreOp::Word,
        rs1,
        rs2,
        offset: offset as i32,
    };
    let jal = |rd: u8| Inst::Jal {
        rd,
        offset: cj_offset(h),
    };

    let inst = match (h & 0x3, funct3) {
        // c.addi4spn: addi rd', x2, nzuimm
        (0b00, 0b000) => {
            let imm = ((h >> 7) & 0x30) | ((h >> 1) & 0x3c0) | ((h >> 4) & 0x4) | ((h >> 2) & 0x8);
            if imm == 0 {
                return Err(err());
            }
            addi(rc(h >> 2), 2, imm as i32)
        }
        // c.lw: lw rd', offset(rs1')
        (0b00, 0b010) => lw(rc(h >> 2), rc(h >> 7), word_offset),
        // c.sw: sw rs2', offset(rs1')
        (0b00, 0b110) => sw(rc(h >> 7), rc(h >> 2), word_offset),
        // c.nop / c.addi
        (0b01, 0b000) => addi(full(h >> 7), full(h >> 7), ci),
        // c.jal (RV32): jal x1, offset
        (0b01, 0b001) => jal(1),
        // c.li: addi rd, x0, imm
        (0b01, 0b010) => addi(full(h >> 7), 0, ci),
        // c.addi16sp / c.lui
        (0b01, 0b011) => {
            let rd = full(h >> 7);
            if rd == 2 {
                let imm = (((h >> 12) & 1) << 9)
                    | (((h >> 3) & 0x3) << 7)
                    | (((h >> 5) & 1) << 6)
                    | (((h >> 2) & 1) << 5)
                    | (((h >> 6) & 1) << 4);
                let imm = sign_extend(imm, 10);
                if imm == 0 {
                    return Err(err());
                }
                addi(2, 2, imm)
            } else {
                let imm = sign_extend((((h >> 12) & 1) << 17) | (((h >> 2) & 0x1f) << 12), 18);
                if imm == 0 {
                    return Err(err());
                }
                Inst::Lui { rd, imm }
            }
        }
        // c.srli / c.srai / c.andi / c.sub / c.xor / c.or / c.and
        (0b01, 0b100) => {
            let rd = rc(h >> 7);
            match (h >> 10) & 0x3 {
                0b00 => alu_imm(AluOp::Srl, rd, shamt),
                0b01 => alu_imm(AluOp::Sra, rd, shamt),
                0b10 => alu_imm(AluOp::And, rd, ci),
                _ => Inst::Op {
                    op: [AluOp::Sub, AluOp::Xor, AluOp::Or, AluOp::And][((h >> 5) & 0x3) as usize],
                    rd,
                    rs1: rd,
                    rs2: rc(h >> 2),
                },
            }
        }
        // c.j: jal x0, offset
        (0b01, 0b101) => jal(0),
        // c.beqz / c.bnez
        (0b01, 0b110) | (0b01, 0b111) => {
            let imm = (((h >> 12) & 1) << 8)
                | (((h >> 5) & 0x3) << 6)
                | (((h >> 2) & 1) << 5)
                | (((h >> 10) & 0x3) << 3)
                | (((h >> 3) & 0x3) << 1);
            Inst::Branch {
                op: [BranchOp::Eq, BranchOp::Ne][(funct3 & 1) as usize],
                rs1: rc(h >> 7),
                rs2: 0,
                offset: sign_extend(imm, 9),
            }
        }
        // c.slli
        (0b10, 0b000) => alu_imm(AluOp::Sll, full(h >> 7), shamt),
        // c.lwsp: lw rd, offset(x2)
        (0b10, 0b010) => {
            let rd = full(h >> 7);
            if rd == 0 {
                return Err(err());
            }
            lw(
                rd,
                2,
                (((h >> 12) & 1) << 5) | (((h >> 4) & 0x7) << 2) | (((h >> 2) & 0x3) << 6),
            )
        }
        // c.jr / c.mv / c.ebreak / c.jalr / c.add
        (0b10, 0b100) => {
            let jalr = |rd: u8, rs1: u8| Inst::Jalr { rd, rs1, offset: 0 };
            let add = |rd: u8, rs1: u8, rs2: u8| Inst::Op {
                op: AluOp::Add,
                rd,
                rs1,
                rs2,
            };
            match ((h >> 12) & 1, full(h >> 7), full(h >> 2)) {
                (0, r, 0) if r != 0 => jalr(0, r),   // c.jr
                (0, r, s) if r != 0 => add(r, 0, s), // c.mv
                (1, 0, 0) => Inst::Ebreak,
                (1, r, 0) if r != 0 => jalr(1, r),   // c.jalr
                (1, r, s) if r != 0 => add(r, r, s), // c.add
                _ => return Err(err()),
            }
        }
        // c.swsp: sw rs2, offset(x2)
        (0b10, 0b110) => sw(
            2,
            full(h >> 2),
            (((h >> 9) & 0xf) << 2) | (((h >> 7) & 0x3) << 6),
        ),
        _ => return Err(err()),
    };
    // Every other expansion is in range by construction.
    encode(inst).map_err(|_| err())
}

fn sign_extend(value: u32, bits: u32) -> i32 {
    let shift = 32 - bits;
    ((value << shift) as i32) >> shift
}

/// The CJ-format offset of `c.j` / `c.jal`.
fn cj_offset(h: u32) -> i32 {
    let imm = (((h >> 12) & 1) << 11)
        | (((h >> 11) & 1) << 4)
        | (((h >> 9) & 0x3) << 8)
        | (((h >> 8) & 1) << 10)
        | (((h >> 7) & 1) << 6)
        | (((h >> 6) & 1) << 7)
        | (((h >> 3) & 0x7) << 1)
        | (((h >> 2) & 1) << 5);
    sign_extend(imm, 12)
}

#[cfg(test)]
// Binary literals in these tests are grouped by RV32C instruction *fields*
// (funct3 / imm / register slices), not by nibbles.
#[allow(clippy::unusual_byte_groupings)]
mod tests {
    use super::*;

    #[test]
    fn decode_addi() {
        // addi x5, x6, -3
        let w = (((-3i32 as u32) & 0xfff) << 20) | (6 << 15) | (5 << 7) | 0x13;
        assert_eq!(
            decode(w).unwrap(),
            Inst::OpImm {
                op: AluOp::Add,
                rd: 5,
                rs1: 6,
                imm: -3
            }
        );
    }

    #[test]
    fn decode_r_type_and_m() {
        // add x1, x2, x3
        let add = (3 << 20) | (2 << 15) | (1 << 7) | 0x33;
        assert!(matches!(
            decode(add).unwrap(),
            Inst::Op { op: AluOp::Add, .. }
        ));
        // mul x1, x2, x3
        let mul = (1 << 25) | (3 << 20) | (2 << 15) | (1 << 7) | 0x33;
        assert!(matches!(
            decode(mul).unwrap(),
            Inst::Op { op: AluOp::Mul, .. }
        ));
        // sub x4, x5, x6
        let sub = (0x20 << 25) | (6 << 20) | (5 << 15) | (4 << 7) | 0x33;
        assert!(matches!(
            decode(sub).unwrap(),
            Inst::Op { op: AluOp::Sub, .. }
        ));
    }

    #[test]
    fn decode_branch_offsets() {
        // beq x1, x2, +8
        let w = 0x0020_8463; // standard encoding of beq x1,x2,8
        match decode(w).unwrap() {
            Inst::Branch {
                op: BranchOp::Eq,
                rs1: 1,
                rs2: 2,
                offset,
            } => assert_eq!(offset, 8),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn decode_negative_branch_offset() {
        // bne x10, x0, -4  => 0xfe051ee3
        match decode(0xfe05_1ee3).unwrap() {
            Inst::Branch {
                op: BranchOp::Ne,
                rs1: 10,
                rs2: 0,
                offset,
            } => {
                assert_eq!(offset, -4);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn decode_loads_and_stores() {
        // lw x7, 16(x2) = 0x01012383
        match decode(0x0101_2383).unwrap() {
            Inst::Load {
                op: LoadOp::Word,
                rd: 7,
                rs1: 2,
                offset,
            } => assert_eq!(offset, 16),
            other => panic!("{other:?}"),
        }
        // sw x7, -8(x2) = 0xfe712c23
        match decode(0xfe71_2c23).unwrap() {
            Inst::Store {
                op: StoreOp::Word,
                rs1: 2,
                rs2: 7,
                offset,
            } => assert_eq!(offset, -8),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn decode_jal_jalr() {
        // jal x1, +2048? Use jal x1, 16 = 0x010000ef
        match decode(0x0100_00ef).unwrap() {
            Inst::Jal { rd: 1, offset } => assert_eq!(offset, 16),
            other => panic!("{other:?}"),
        }
        // jalr x0, 0(x1) = 0x00008067 (ret)
        match decode(0x0000_8067).unwrap() {
            Inst::Jalr {
                rd: 0,
                rs1: 1,
                offset,
            } => assert_eq!(offset, 0),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn decode_system() {
        assert_eq!(decode(0x0000_0073).unwrap(), Inst::Ecall);
        assert_eq!(decode(0x0010_0073).unwrap(), Inst::Ebreak);
    }

    #[test]
    fn decode_pq_instructions() {
        for (f3, unit) in [
            (0u32, PqUnit::MulTer),
            (1, PqUnit::MulChien),
            (2, PqUnit::Sha256),
            (3, PqUnit::ModQ),
        ] {
            let w = (7 << 20) | (6 << 15) | (f3 << 12) | (5 << 7) | PQ_OPCODE;
            assert_eq!(
                decode(w).unwrap(),
                Inst::Pq {
                    unit,
                    rd: 5,
                    rs1: 6,
                    rs2: 7
                },
                "funct3 {f3}"
            );
        }
    }

    #[test]
    fn unknown_opcode_rejected() {
        assert!(decode(0x0000_007b).is_err());
        assert!(decode(0xffff_ffff).is_err());
    }

    #[test]
    fn decompress_c_addi() {
        // c.addi x8, 1 => 0x0405
        let w = decompress(0x0405).unwrap();
        assert_eq!(
            decode(w).unwrap(),
            Inst::OpImm {
                op: AluOp::Add,
                rd: 8,
                rs1: 8,
                imm: 1
            }
        );
    }

    #[test]
    fn decompress_c_li_negative() {
        // c.li x10, -1 => funct3=010, rd=10, imm=-1 => bits:
        // 010 1 01010 11111 01 = 0x557d
        let w = decompress(0x557d).unwrap();
        assert_eq!(
            decode(w).unwrap(),
            Inst::OpImm {
                op: AluOp::Add,
                rd: 10,
                rs1: 0,
                imm: -1
            }
        );
    }

    #[test]
    fn decompress_c_mv_and_add() {
        // c.mv x10, x11 => 0x852e
        let w = decompress(0x852e).unwrap();
        assert_eq!(
            decode(w).unwrap(),
            Inst::Op {
                op: AluOp::Add,
                rd: 10,
                rs1: 0,
                rs2: 11
            }
        );
        // c.add x10, x11 => 0x952e
        let w = decompress(0x952e).unwrap();
        assert_eq!(
            decode(w).unwrap(),
            Inst::Op {
                op: AluOp::Add,
                rd: 10,
                rs1: 10,
                rs2: 11
            }
        );
    }

    #[test]
    fn decompress_c_lwsp_swsp() {
        // c.lwsp x5, 12(sp) => 0x42b2? Compute: funct3=010 op=10 rd=5
        // imm[5]=0 imm[4:2]=011 imm[7:6]=00 => bits 010 0 00101 0110 0 10
        let h = 0b010_0_00101_01100_10;
        let w = decompress(h as u16).unwrap();
        match decode(w).unwrap() {
            Inst::Load {
                op: LoadOp::Word,
                rd: 5,
                rs1: 2,
                offset,
            } => assert_eq!(offset, 12),
            other => panic!("{other:?}"),
        }
        // c.swsp x5, 12(sp): funct3=110 imm[5:2]=0011 imm[7:6]=00 rs2=5
        let h = 0b110_0011_00_00101_10;
        let w = decompress(h as u16).unwrap();
        match decode(w).unwrap() {
            Inst::Store {
                op: StoreOp::Word,
                rs1: 2,
                rs2: 5,
                offset,
            } => assert_eq!(offset, 12),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn decompress_c_j() {
        // c.j +4: funct3=101 op=01, imm=4 -> imm[3:1]=010
        let h = 0b101_00000000100_01u32;
        let w = decompress(h as u16).unwrap();
        match decode(w).unwrap() {
            Inst::Jal { rd: 0, offset } => assert_eq!(offset, 4),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn decompress_c_beqz() {
        // c.beqz x8, +4: funct3=110, rs1'=000; offset[2:1] sits in bits 4:3,
        // so offset = 4 → bits[6:2] = 00100.
        let h = 0b110_000_000_00100_01u32;
        let w = decompress(h as u16).unwrap();
        match decode(w).unwrap() {
            Inst::Branch {
                op: BranchOp::Eq,
                rs1: 8,
                rs2: 0,
                offset,
            } => {
                assert_eq!(offset, 4);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn decompress_rejects_reserved() {
        assert!(decompress(0x0000).is_err()); // all-zero is illegal
    }
}
