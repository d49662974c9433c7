//! A small two-pass RV32IM assembler.
//!
//! Supports labels, ABI register names, decimal/hex immediates, the common
//! pseudo-instructions (`li`, `la`, `mv`, `j`, `call`, `ret`, `beqz`, …),
//! the `.word`/`.space` data directives, and the four `pq.*` custom
//! mnemonics. Enough to write the programs the examples and tests run on
//! the simulator; not a full GNU-as replacement.
//!
//! The assembler only parses syntax: each line becomes one or more
//! [`Inst`] values (a real mnemonic names one of [`Inst::templates`], a
//! pseudo-instruction expands to the `Inst`s it stands for),
//! and [`encode`] packs them. Mnemonics, funct codes, CSR numbers and field
//! ranges therefore all come from the instruction table in
//! [`crate::inst`], and an operand its field cannot hold is an
//! [`AsmError`] naming the line, never a truncated encoding.
//!
//! # Example
//!
//! ```
//! let words = lac_rv32::assemble("li a0, 7\necall").unwrap();
//! assert_eq!(words.len(), 2);
//! ```

use crate::disasm::ABI_NAMES;
use crate::inst::{encode, upper_imm, AluOp, Csr, CsrOp, Inst};
use std::collections::HashMap;
use std::fmt;

/// Assembly failure with line context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsmError {
    /// 1-based source line.
    pub line: usize,
    /// Description of the problem.
    pub message: String,
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for AsmError {}

fn reg(name: &str, line: usize) -> Result<u8, AsmError> {
    let name = name.trim();
    let abi = || ABI_NAMES.iter().position(|&n| n == name).map(|i| i as u8);
    let numbered = || name.strip_prefix('x')?.parse().ok().filter(|&i| i < 32);
    let index = if name == "fp" { Some(8) } else { abi() };
    index.or_else(numbered).ok_or_else(|| AsmError {
        line,
        message: format!("unknown register '{name}'"),
    })
}

fn parse_int(text: &str, line: usize) -> Result<i64, AsmError> {
    let t = text.trim();
    let (neg, t) = if let Some(rest) = t.strip_prefix('-') {
        (true, rest)
    } else {
        (false, t)
    };
    let value = if let Some(hex) = t.strip_prefix("0x").or_else(|| t.strip_prefix("0X")) {
        i64::from_str_radix(hex, 16)
    } else {
        t.parse::<i64>()
    }
    .map_err(|_| AsmError {
        line,
        message: format!("invalid immediate '{text}'"),
    })?;
    Ok(if neg { -value } else { value })
}

/// Narrow a parsed operand to its [`Inst`] field type. A value the type
/// cannot hold fits no format; the field's exact range is [`encode`]'s to
/// check.
fn narrow<T: TryFrom<i64>>(value: i64, line: usize) -> Result<T, AsmError> {
    T::try_from(value).map_err(|_| AsmError {
        line,
        message: format!("operand {value} out of range"),
    })
}

/// A 32-bit data value (`.word`, `li`), written signed or unsigned.
fn word(value: i64, line: usize) -> Result<u32, AsmError> {
    if (i64::from(i32::MIN)..=i64::from(u32::MAX)).contains(&value) {
        Ok(value as u32)
    } else {
        Err(AsmError {
            line,
            message: format!("value {value} does not fit 32 bits"),
        })
    }
}

/// A `lui`/`addi` (or `auipc`/`jalr`) split of `value`: the upper part,
/// rounded so the sign-extended 12-bit lower part makes up the rest.
fn split_hi_lo(value: i32) -> (i32, i32) {
    let upper = value.wrapping_add(0x800) & !0xfff;
    (upper, value.wrapping_sub(upper))
}

// Line model ------------------------------------------------------------

#[derive(Debug, Clone)]
struct Item {
    line: usize,
    mnemonic: String,
    args: Vec<String>,
    addr: u32,
    size: u32,
}

fn split_args(rest: &str) -> Vec<String> {
    if rest.trim().is_empty() {
        return Vec::new();
    }
    rest.split(',').map(|a| a.trim().to_string()).collect()
}

/// A CSR operand: a name from the [`Csr`] table or a number.
fn csr_number(name: &str, line: usize) -> Result<u16, AsmError> {
    match Csr::from_name(name.trim()) {
        Some(csr) => Ok(csr.number()),
        None => narrow(parse_int(name, line)?, line),
    }
}

/// Assemble `source` into instruction words, origin address 0.
///
/// # Errors
///
/// Returns an [`AsmError`] with the offending line for syntax errors,
/// unknown mnemonics/registers/labels, or out-of-range immediates.
pub fn assemble(source: &str) -> Result<Vec<u32>, AsmError> {
    // Pass 1: strip comments, collect labels and item sizes.
    let mut items: Vec<Item> = Vec::new();
    let mut labels: HashMap<String, u32> = HashMap::new();
    let mut addr: u32 = 0;

    for (line_no, raw) in source.lines().enumerate() {
        let line = line_no + 1;
        let mut text = raw;
        for marker in ["#", "//", ";"] {
            if let Some(pos) = text.find(marker) {
                text = &text[..pos];
            }
        }
        let mut text = text.trim();
        // Labels (possibly several on one line).
        while let Some(colon) = text.find(':') {
            let (label, rest) = text.split_at(colon);
            let label = label.trim();
            if label.is_empty() || label.contains(char::is_whitespace) {
                break;
            }
            if labels.insert(label.to_string(), addr).is_some() {
                return Err(AsmError {
                    line,
                    message: format!("duplicate label '{label}'"),
                });
            }
            text = rest[1..].trim();
        }
        if text.is_empty() {
            continue;
        }
        let (mnemonic, rest) = match text.find(char::is_whitespace) {
            Some(pos) => (text[..pos].to_lowercase(), &text[pos..]),
            None => (text.to_lowercase(), ""),
        };
        let args = split_args(rest);
        let size = match mnemonic.as_str() {
            ".word" | ".space" => {
                if args.len() != 1 {
                    return Err(AsmError {
                        line,
                        message: format!("{mnemonic} needs one argument"),
                    });
                }
                if mnemonic == ".word" {
                    4
                } else {
                    let n = parse_int(&args[0], line)? as u32;
                    n.div_ceil(4) * 4
                }
            }
            "li" => {
                if args.len() != 2 {
                    return Err(AsmError {
                        line,
                        message: "li needs rd, imm".into(),
                    });
                }
                let value = parse_int(&args[1], line)?;
                word(value, line)?;
                if (-2048..=2047).contains(&value) {
                    4
                } else {
                    8
                }
            }
            "la" | "call" => 8,
            _ => 4,
        };
        items.push(Item {
            line,
            mnemonic,
            args,
            addr,
            size,
        });
        addr += size;
    }

    // Pass 2: parse operands into instructions and encode them.
    let mut words: Vec<u32> = Vec::new();
    for item in &items {
        let line = item.line;
        let err = |message: String| AsmError { line, message };
        let label_addr = |name: &str| -> Result<u32, AsmError> {
            labels
                .get(name)
                .copied()
                .ok_or_else(|| err(format!("unknown label '{name}'")))
        };
        // Branch/jump target: label or numeric offset from this item.
        let target = |i: usize| -> Result<i32, AsmError> {
            let arg = item.args[i].trim();
            if arg.starts_with(|c: char| c.is_ascii_digit() || c == '-') {
                narrow(parse_int(arg, line)?, line)
            } else {
                Ok(label_addr(arg)? as i32 - item.addr as i32)
            }
        };
        let need = |n: usize| -> Result<(), AsmError> {
            if item.args.len() == n {
                Ok(())
            } else {
                Err(err(format!(
                    "'{}' expects {n} operands, got {}",
                    item.mnemonic,
                    item.args.len()
                )))
            }
        };
        let r = |i: usize| reg(&item.args[i], line);
        let imm = |i: usize| parse_int(&item.args[i], line);
        let csr = |i: usize| csr_number(&item.args[i], line);
        // "off(rs)" operand.
        let mem = |i: usize| -> Result<(i32, u8), AsmError> {
            let a = &item.args[i];
            let bad = || err(format!("expected offset(reg), got '{a}'"));
            let (open, close) = (a.find('(').ok_or_else(bad)?, a.rfind(')').ok_or_else(bad)?);
            let off = match a[..open].trim() {
                "" => 0,
                off => narrow(parse_int(off, line)?, line)?,
            };
            Ok((off, reg(&a[open + 1..close], line)?))
        };
        let addi = |rd: u8, rs1: u8, imm: i32| Inst::OpImm {
            op: AluOp::Add,
            rd,
            rs1,
            imm,
        };

        let m = item.mnemonic.as_str();
        // Branch pseudos: `beqz rs, t` is `beq rs, zero, t` (bnez, bltz and
        // bgez alike) and `bgt a, b, t` is `blt b, a, t` (ble, bgtu and
        // bleu alike).
        let branch_op = |name: &str| match Inst::from_mnemonic(name) {
            Some(Inst::Branch { op, .. }) => Some(op),
            _ => None,
        };
        let zero_form = m.strip_suffix('z').and_then(branch_op);
        let swapped = branch_op(&m.replacen("gt", "lt", 1).replacen("le", "ge", 1));
        let insts: Vec<Inst> = match (m, Inst::from_mnemonic(m), zero_form, swapped) {
            (".word", ..) => {
                need(1)?;
                words.push(word(imm(0)?, line)?);
                continue;
            }
            (".space", ..) => {
                words.resize(words.len() + (item.size / 4) as usize, 0);
                continue;
            }
            (_, Some(template), ..) => vec![match template {
                Inst::Lui { .. } | Inst::Auipc { .. } => {
                    need(2)?;
                    let rd = r(0)?;
                    let imm = upper_imm(imm(1)?).map_err(|e| err(e.to_string()))?;
                    match template {
                        Inst::Lui { .. } => Inst::Lui { rd, imm },
                        _ => Inst::Auipc { rd, imm },
                    }
                }
                Inst::Jal { .. } => {
                    let (rd, offset) = match item.args.len() {
                        1 => (1, target(0)?),
                        2 => (r(0)?, target(1)?),
                        _ => return Err(err("jal expects [rd,] label".into())),
                    };
                    Inst::Jal { rd, offset }
                }
                Inst::Jalr { .. } => {
                    let (rd, rs1, offset) = match item.args.len() {
                        1 => (1, r(0)?, 0),
                        3 => (r(0)?, r(1)?, narrow(imm(2)?, line)?),
                        _ => return Err(err("jalr expects rd, rs1, imm".into())),
                    };
                    Inst::Jalr { rd, rs1, offset }
                }
                Inst::Branch { op, .. } => {
                    need(3)?;
                    let (rs1, rs2, offset) = (r(0)?, r(1)?, target(2)?);
                    Inst::Branch {
                        op,
                        rs1,
                        rs2,
                        offset,
                    }
                }
                Inst::Load { op, .. } => {
                    need(2)?;
                    let (rd, (offset, rs1)) = (r(0)?, mem(1)?);
                    Inst::Load {
                        op,
                        rd,
                        rs1,
                        offset,
                    }
                }
                Inst::Store { op, .. } => {
                    need(2)?;
                    let (rs2, (offset, rs1)) = (r(0)?, mem(1)?);
                    Inst::Store {
                        op,
                        rs1,
                        rs2,
                        offset,
                    }
                }
                Inst::OpImm { op, .. } => {
                    need(3)?;
                    let (rd, rs1, imm) = (r(0)?, r(1)?, narrow(imm(2)?, line)?);
                    Inst::OpImm { op, rd, rs1, imm }
                }
                Inst::Op { op, .. } => {
                    need(3)?;
                    let (rd, rs1, rs2) = (r(0)?, r(1)?, r(2)?);
                    Inst::Op { op, rd, rs1, rs2 }
                }
                Inst::Pq { unit, .. } => {
                    need(3)?;
                    let (rd, rs1, rs2) = (r(0)?, r(1)?, r(2)?);
                    Inst::Pq { unit, rd, rs1, rs2 }
                }
                Inst::Csr { op, .. } => {
                    need(3)?;
                    let (rd, csr, rs1) = (r(0)?, csr(1)?, r(2)?);
                    Inst::Csr { op, rd, rs1, csr }
                }
                Inst::Fence | Inst::Ecall | Inst::Ebreak => template,
            }],
            (_, None, Some(op), _) => {
                need(2)?;
                let (rs1, offset) = (r(0)?, target(1)?);
                vec![Inst::Branch {
                    op,
                    rs1,
                    rs2: 0,
                    offset,
                }]
            }
            (_, None, None, Some(op)) => {
                need(3)?;
                let (rs2, rs1, offset) = (r(0)?, r(1)?, target(2)?);
                vec![Inst::Branch {
                    op,
                    rs1,
                    rs2,
                    offset,
                }]
            }
            // Other pseudo-instructions.
            ("j" | "jr" | "ret", ..) => {
                if m != "ret" {
                    need(1)?;
                }
                vec![match m {
                    "j" => Inst::Jal {
                        rd: 0,
                        offset: target(0)?,
                    },
                    "jr" => Inst::Jalr {
                        rd: 0,
                        rs1: r(0)?,
                        offset: 0,
                    },
                    _ => Inst::Jalr {
                        rd: 0,
                        rs1: 1,
                        offset: 0,
                    },
                }]
            }
            ("call", ..) => {
                need(1)?;
                let rel = label_addr(&item.args[0])? as i32 - item.addr as i32;
                let (upper, lower) = split_hi_lo(rel);
                vec![
                    Inst::Auipc { rd: 1, imm: upper },
                    Inst::Jalr {
                        rd: 1,
                        rs1: 1,
                        offset: lower,
                    },
                ]
            }
            // `csrr rd, csr` is `csrrs rd, csr, zero`; `rdcycle rd` and
            // `rdinstret rd` name the CSR in the mnemonic.
            ("csrr" | "rdcycle" | "rdinstret", ..) => {
                let csr = if m == "csrr" {
                    need(2)?;
                    csr(1)?
                } else {
                    need(1)?;
                    csr_number(&m[2..], line)?
                };
                let rd = r(0)?;
                vec![Inst::Csr {
                    op: CsrOp::Rs,
                    rd,
                    rs1: 0,
                    csr,
                }]
            }
            ("nop", ..) => vec![addi(0, 0, 0)],
            ("mv" | "not" | "seqz", ..) => {
                need(2)?;
                let (rd, rs1) = (r(0)?, r(1)?);
                let (op, imm) = match m {
                    "mv" => (AluOp::Add, 0),
                    "not" => (AluOp::Xor, -1),
                    _ => (AluOp::Sltu, 1),
                };
                vec![Inst::OpImm { op, rd, rs1, imm }]
            }
            ("neg" | "snez", ..) => {
                need(2)?;
                let (rd, rs2) = (r(0)?, r(1)?);
                let op = if m == "neg" { AluOp::Sub } else { AluOp::Sltu };
                vec![Inst::Op {
                    op,
                    rd,
                    rs1: 0,
                    rs2,
                }]
            }
            ("li" | "la", ..) => {
                need(2)?;
                let rd = r(0)?;
                let value = match m {
                    "li" => word(imm(1)?, line)? as i32,
                    _ => label_addr(&item.args[1])? as i32,
                };
                if item.size == 4 {
                    vec![addi(rd, 0, value)]
                } else {
                    let (upper, lower) = split_hi_lo(value);
                    vec![Inst::Lui { rd, imm: upper }, addi(rd, rd, lower)]
                }
            }
            _ => {
                return Err(err(format!("unknown mnemonic '{m}'")));
            }
        };
        debug_assert_eq!(insts.len() as u32 * 4, item.size, "size mismatch: {m}");
        for inst in insts {
            words.push(encode(inst).map_err(|e| err(e.to_string()))?);
        }
    }
    Ok(words)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{decode, Inst, PQ_OPCODE};

    #[test]
    fn encodes_known_words() {
        // Cross-checked against GNU as output.
        assert_eq!(assemble("ret").unwrap(), vec![0x0000_8067]);
        assert_eq!(assemble("nop").unwrap(), vec![0x0000_0013]);
        assert_eq!(assemble("ecall").unwrap(), vec![0x0000_0073]);
        assert_eq!(assemble("addi a0, a0, 1").unwrap(), vec![0x0015_0513]);
        assert_eq!(assemble("add a0, a1, a2").unwrap(), vec![0x00c5_8533]);
        assert_eq!(assemble("lw a0, 4(sp)").unwrap(), vec![0x0041_2503]);
        assert_eq!(assemble("sw a0, 4(sp)").unwrap(), vec![0x00a1_2223]);
        assert_eq!(assemble("mul a0, a1, a2").unwrap(), vec![0x02c5_8533]);
    }

    #[test]
    fn li_small_and_large() {
        let small = assemble("li a0, -5").unwrap();
        assert_eq!(small.len(), 1);
        match decode(small[0]).unwrap() {
            Inst::OpImm {
                imm: -5, rd: 10, ..
            } => {}
            other => panic!("{other:?}"),
        }
        let large = assemble("li a0, 0x12345678").unwrap();
        assert_eq!(large.len(), 2);
    }

    #[test]
    fn labels_forward_and_backward() {
        let words = assemble(
            r#"
            start:
                beq  x0, x0, end
                nop
                j    start
            end:
                ecall
            "#,
        )
        .unwrap();
        // beq offset = +12 (3 instructions ahead).
        match decode(words[0]).unwrap() {
            Inst::Branch { offset, .. } => assert_eq!(offset, 12),
            other => panic!("{other:?}"),
        }
        // j offset = -8.
        match decode(words[2]).unwrap() {
            Inst::Jal { rd: 0, offset } => assert_eq!(offset, -8),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn pq_mnemonics_encode() {
        let words = assemble(
            "pq.mul_ter a0, a1, a2\npq.mul_chien a0, a1, a2\npq.sha256 a0, a1, a2\npq.modq a0, a1, a2",
        )
        .unwrap();
        for (i, w) in words.iter().enumerate() {
            assert_eq!(w & 0x7f, PQ_OPCODE);
            assert_eq!((w >> 12) & 7, i as u32);
        }
    }

    #[test]
    fn word_and_space_directives() {
        let words = assemble(".word 0xdeadbeef\n.space 8\n.word 7").unwrap();
        assert_eq!(words, vec![0xdead_beef, 0, 0, 7]);
    }

    #[test]
    fn la_resolves_data_labels() {
        let words = assemble(
            r#"
                la a0, data
                ecall
            data:
                .word 42
            "#,
        )
        .unwrap();
        assert_eq!(words.len(), 4);
        assert_eq!(words[3], 42);
    }

    #[test]
    fn abi_register_aliases() {
        let a = assemble("add s5, s11, fp").unwrap();
        let b = assemble("add x21, x27, x8").unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = assemble("nop\nbogus a0, a1").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("bogus"));
    }

    #[test]
    fn unknown_label_reported() {
        let e = assemble("j nowhere").unwrap_err();
        assert!(e.message.contains("nowhere"));
    }

    #[test]
    fn duplicate_label_rejected() {
        let e = assemble("x:\nnop\nx:\nnop").unwrap_err();
        assert!(e.message.contains("duplicate"));
    }

    #[test]
    fn out_of_range_operands_are_errors_naming_the_line() {
        // Out-of-range operands are errors, never truncated encodings.
        for src in [
            "addi a0, a0, 4096",
            "lw a0, 5000(sp)",
            "sw a0, -3000(sp)",
            "slli a0, a1, 33",
            "li a0, 0x100000000",
            "lui a0, 0x100000",
            "jalr ra, t0, 4096",
            "beq a0, a1, 3",
            ".word 4294967296",
            "csrrs a0, 0x1000, zero",
        ] {
            let err = assemble(&format!("nop\n{src}")).expect_err(src);
            assert_eq!(err.line, 2, "{src}: {err}");
        }
        // A branch to a label 4,400 bytes back is out of reach.
        let far = format!("top:\n{}beq a0, a1, top", "nop\n".repeat(1100));
        assert_eq!(assemble(&far).unwrap_err().line, 1102);
        // The range edges still assemble.
        for src in [
            "addi a0, a0, -2048",
            "addi a0, a0, 2047",
            "lw a0, -2048(sp)",
            "sw a0, 2047(sp)",
            "slli a0, a1, 31",
            "li a0, -2147483648",
            "li a0, 0xffffffff",
            "lui a0, 0xfffff",
            "auipc a0, -524288",
            "beq a0, a1, -4096",
            "beq a0, a1, 4094",
            "jal zero, 1048574",
            "jal zero, -1048576",
            ".word -1",
            "csrrs a0, 0xfff, zero",
        ] {
            assemble(src).unwrap_or_else(|e| panic!("{src}: {e}"));
        }
    }

    #[test]
    fn missing_operands_are_errors() {
        for src in [
            "j",
            "jr",
            "csrr a0",
            "rdcycle",
            "beqz a0",
            "bgt a0, a1",
            "lw a0",
            "lui a0",
        ] {
            assert!(assemble(src).is_err(), "{src}");
        }
    }

    #[test]
    fn comments_are_stripped() {
        let words = assemble("nop # trailing\n// whole line\n; also\nnop").unwrap();
        assert_eq!(words.len(), 2);
    }
}
