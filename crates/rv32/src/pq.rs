//! The PQ-ALU device: the register protocol of the four `pq.*`
//! instructions, in both directions, in front of the `lac-hw` units.
//!
//! The paper (Section V) specifies the R-type format, the opcode (0x77),
//! the funct3 unit select and the transfer granularity: five coefficient
//! pairs per `pq.mul_ter` write and four results per read, one GF(2⁹)
//! pair per `pq.mul_chien` write, one byte per `pq.sha256` transfer. The
//! bit positions are not printed, so this module pins down an encoding:
//! the stateful units take a control code in rs2\[31:28\] ([`ctrl`],
//! [`control`]); a code a unit does not decode returns 0.
//!
//! **pq.mul_ter** — a [`MulTer`] of length [`mul_ter::PAPER_LEN`]:
//! * `1` RESET — empty the operand buffers, rewind the read pointer;
//! * `2` LOAD ([`mul_ter_loads`]) — five (ternary, general) pairs: rs1 =
//!   generals 0–3 (bytes, little-endian), rs2\[7:0\] = general 4,
//!   rs2\[17:8\] = five 2-bit ternary crumbs, pair 0 lowest (`00` = 0,
//!   `01` = +1, `10` = −1, `11` = 0). Generals load reduced mod q; pairs
//!   past the unit length are dropped;
//! * `3` START ([`mul_ter_start`]) — rs2\[0\] = 1 selects the negative
//!   wrapped convolution; short operands are zero-padded; stalls for
//!   [`mul_ter::compute_cycles`];
//! * `4` READ — rd = the next four result bytes (zero past the end).
//!
//! **pq.mul_chien** — four [`MulGf`]s, each with a constant and a
//! feedback register (Fig. 4):
//! * `1` RESET — clear the constants and the feedback registers;
//! * `2` LOAD ([`mul_chien_loads`]) — one pair of α constants in
//!   rs1\[8:0\] and rs1\[24:16\]; rs2\[0\] selects multipliers 0–1 or 2–3;
//! * `5` LOAD_VALUES — the same, into the feedback registers (the λ terms);
//! * `3` COMPUTE — every multiplier multiplies its constant into its
//!   feedback register; rd = XOR of the four products; stalls for one
//!   [`mul_gf::M`]-cycle multiplication (the four run in parallel).
//!
//! **pq.sha256** — a [`Sha256Unit`] behind a message buffer: `1` RESET
//! empties it and zeroes the digest; `2` WRITE appends rs1\[7:0\]; `3`
//! FINALIZE hashes it, stalling [`CYCLES_PER_BLOCK`] per [padded
//! block](sha256_unit::padded_blocks); `4` READ returns digest byte
//! rs2\[4:0\].
//!
//! **pq.modq** — rd = rs1 mod 251 on the [`ModQ`] unit; stalls
//! [`mod_q::CYCLES_PER_REDUCTION`].
//!
//! The units run with a [`NullMeter`]: the ISS times the surrounding
//! RV32 instructions itself, so a `pq.*` instruction adds only its unit's
//! datapath stall, which depends on lengths, never on data.

use crate::inst::PqUnit;
use lac_hw::chien::PARALLEL_MULS;
use lac_hw::mul_ter::{self, COEFFS_PER_READ, COEFFS_PER_WRITE};
use lac_hw::sha256_unit::{self, CYCLES_PER_BLOCK};
use lac_hw::{mod_q, mul_gf, ModQ, MulGf, MulTer, Sha256Unit};
use lac_meter::NullMeter;
use lac_ring::{Convolution, Poly, TernaryPoly, Q};

/// Control codes: the values of rs2\[31:28\] the stateful units decode.
pub mod ctrl {
    /// Clear the unit's state (MUL TER, MUL CHIEN, SHA256).
    pub const RESET: u32 = 1;
    /// MUL TER: coefficient pairs; MUL CHIEN: α constants; SHA256: a byte.
    pub const LOAD: u32 = 2;
    /// MUL TER: start; MUL CHIEN: compute; SHA256: finalize.
    pub const START: u32 = 3;
    /// MUL TER: four results; SHA256: a digest byte.
    pub const READ: u32 = 4;
    /// MUL CHIEN: λ terms into the feedback registers.
    pub const LOAD_VALUES: u32 = 5;
}

/// The rs2 word that issues control `code` with `operand` in the low bits.
pub const fn control(code: u32, operand: u32) -> u32 {
    (code << 28) | operand
}

/// The ternary value each 2-bit crumb carries, indexed by crumb.
const CRUMBS: [i8; 4] = [0, 1, -1, 0];

/// The convolution each value of a START's rs2\[0\] selects.
const CONVS: [Convolution; 2] = [Convolution::Cyclic, Convolution::Negacyclic];

/// The `(rs1, rs2)` operands of the MUL TER LOADs that stream `ternary` ×
/// `general` into the unit, the last write zero-padded: the inverse of
/// the LOAD decoder in [`PqAlu::mul_ter`].
///
/// # Panics
///
/// Panics if the lengths differ or a ternary coefficient is outside
/// {−1, 0, 1}.
pub fn mul_ter_loads(ternary: &[i8], general: &[u8]) -> Vec<(u32, u32)> {
    assert_eq!(ternary.len(), general.len(), "operand lengths differ");
    let crumb = |t: &i8| CRUMBS.iter().position(|c| c == t).expect("not ternary") as u32;
    let writes = ternary
        .chunks(COEFFS_PER_WRITE)
        .zip(general.chunks(COEFFS_PER_WRITE));
    let le = |bytes: &[u8]| bytes.iter().rev().fold(0, |w, &b| w << 8 | u32::from(b));
    writes
        .map(|(t, g)| {
            let crumbs = t.iter().rev().fold(0, |w, t| w << 2 | crumb(t));
            let (low, fifth) = g.split_at(g.len().min(4));
            (le(low), control(ctrl::LOAD, crumbs << 8 | le(fifth)))
        })
        .collect()
}

/// The rs2 word of a MUL TER START in `conv`.
pub fn mul_ter_start(conv: Convolution) -> u32 {
    control(ctrl::START, u32::from(conv == CONVS[1]))
}

/// The `(rs1, rs2)` operands of the two MUL CHIEN writes that load
/// `values` into the four multipliers: `code` is [`ctrl::LOAD`] for the α
/// constants or [`ctrl::LOAD_VALUES`] for the λ terms.
///
/// # Panics
///
/// Panics if a value is not a 9-bit field element.
pub fn mul_chien_loads(code: u32, values: [u16; PARALLEL_MULS]) -> [(u32, u32); 2] {
    assert!(values.iter().all(|&v| v >> mul_gf::M == 0), "not GF(2^9)");
    [0, 1].map(|half| {
        let pair = u32::from(values[2 * half]) | u32::from(values[2 * half + 1]) << 16;
        (pair, control(code, half as u32))
    })
}

/// The PQ-ALU device state (one instance per CPU).
#[derive(Debug)]
pub struct PqAlu {
    // MUL TER: the loaded operands, the last product, the read pointer.
    mul_ter: MulTer,
    ter_a: Vec<i8>,
    ter_b: Vec<u8>,
    ter_out: Poly,
    ter_read_ptr: usize,
    // MUL CHIEN
    chien_muls: [MulGf; PARALLEL_MULS],
    chien_consts: [u16; PARALLEL_MULS],
    chien_vals: [u16; PARALLEL_MULS],
    // SHA256, MOD q
    sha: Sha256Unit,
    sha_buf: Vec<u8>,
    sha_digest: [u8; 32],
    mod_q: ModQ,
    /// Counts of executed pq instructions \[mul_ter, mul_chien, sha256, modq\].
    pub issue_counts: [u64; 4],
}

impl Default for PqAlu {
    fn default() -> Self {
        Self::new()
    }
}

impl PqAlu {
    /// A freshly reset device.
    pub fn new() -> Self {
        Self {
            mul_ter: MulTer::new(mul_ter::PAPER_LEN),
            ter_a: Vec::new(),
            ter_b: Vec::new(),
            ter_out: Poly::zero(mul_ter::PAPER_LEN),
            ter_read_ptr: 0,
            chien_muls: Default::default(),
            chien_consts: [0; PARALLEL_MULS],
            chien_vals: [0; PARALLEL_MULS],
            sha: Sha256Unit::new(),
            sha_buf: Vec::new(),
            sha_digest: [0u8; 32],
            mod_q: ModQ::new(),
            issue_counts: [0; 4],
        }
    }

    /// Execute one PQ instruction on `unit`. Returns `(rd value, stall
    /// cycles)`.
    #[inline]
    pub fn issue(&mut self, unit: PqUnit, rs1: u32, rs2: u32) -> (u32, u64) {
        match unit {
            PqUnit::MulTer => self.mul_ter(rs1, rs2),
            PqUnit::MulChien => self.mul_chien(rs1, rs2),
            PqUnit::Sha256 => self.sha256(rs1, rs2),
            PqUnit::ModQ => self.modq(rs1, rs2),
        }
    }

    /// Execute one `pq.mul_ter`. Returns `(rd value, stall cycles)`.
    pub fn mul_ter(&mut self, rs1: u32, rs2: u32) -> (u32, u64) {
        self.issue_counts[0] += 1;
        let n = self.mul_ter.len();
        match rs2 >> 28 {
            ctrl::RESET => {
                self.ter_a.clear();
                self.ter_b.clear();
                self.ter_read_ptr = 0;
                (0, 0)
            }
            ctrl::LOAD => {
                let generals = [rs1, rs1 >> 8, rs1 >> 16, rs1 >> 24, rs2];
                for (i, g) in generals.into_iter().enumerate().take(n - self.ter_b.len()) {
                    self.ter_a.push(CRUMBS[(rs2 >> (8 + 2 * i)) as usize & 3]);
                    self.ter_b.push(((g & 0xff) as u16 % Q) as u8);
                }
                (0, 0)
            }
            ctrl::START => {
                let conv = CONVS[(rs2 & 1) as usize];
                // The unit zero-extends operands loaded short of its length.
                let a = TernaryPoly::from_coeffs(self.ter_a.clone());
                let b = Poly::from_coeffs(self.ter_b.clone());
                self.ter_out = self.mul_ter.multiply(&a, &b, conv, &mut NullMeter);
                self.ter_read_ptr = 0;
                (0, mul_ter::compute_cycles(n))
            }
            ctrl::READ => {
                let mut out = [0u8; COEFFS_PER_READ];
                for slot in out.iter_mut() {
                    *slot = self
                        .ter_out
                        .coeffs()
                        .get(self.ter_read_ptr)
                        .copied()
                        .unwrap_or(0);
                    self.ter_read_ptr += 1;
                }
                (u32::from_le_bytes(out), 0)
            }
            _ => (0, 0),
        }
    }

    /// Execute one `pq.mul_chien`. Returns `(rd value, stall cycles)`.
    pub fn mul_chien(&mut self, rs1: u32, rs2: u32) -> (u32, u64) {
        self.issue_counts[1] += 1;
        let half = ((rs2 & 1) as usize) * 2;
        let pair = [rs1, rs1 >> 16].map(|w| (w & 0x1ff) as u16);
        match rs2 >> 28 {
            ctrl::RESET => {
                self.chien_consts = [0; PARALLEL_MULS];
                self.chien_vals = [0; PARALLEL_MULS];
                (0, 0)
            }
            ctrl::LOAD => {
                self.chien_consts[half..half + 2].copy_from_slice(&pair);
                (0, 0)
            }
            ctrl::LOAD_VALUES => {
                self.chien_vals[half..half + 2].copy_from_slice(&pair);
                (0, 0)
            }
            ctrl::START => {
                let mut acc = 0u16;
                let regs = self.chien_vals.iter_mut().zip(self.chien_consts);
                for (mul, (val, konst)) in self.chien_muls.iter().zip(regs) {
                    *val = mul.multiply(*val, konst, &mut NullMeter);
                    acc ^= *val;
                }
                (u32::from(acc), u64::from(mul_gf::M))
            }
            _ => (0, 0),
        }
    }

    /// Execute one `pq.sha256`. Returns `(rd value, stall cycles)`.
    pub fn sha256(&mut self, rs1: u32, rs2: u32) -> (u32, u64) {
        self.issue_counts[2] += 1;
        match rs2 >> 28 {
            ctrl::RESET => {
                self.sha_buf.clear();
                self.sha_digest = [0u8; 32];
                (0, 0)
            }
            ctrl::LOAD => {
                self.sha_buf.push(rs1 as u8);
                (0, 0)
            }
            ctrl::START => {
                self.sha_digest = self.sha.digest(&self.sha_buf, &mut NullMeter);
                let blocks = sha256_unit::padded_blocks(self.sha_buf.len());
                (0, blocks * CYCLES_PER_BLOCK)
            }
            ctrl::READ => (u32::from(self.sha_digest[(rs2 & 0x1f) as usize]), 0),
            _ => (0, 0),
        }
    }

    /// Execute one `pq.modq`. Returns `(rd value, stall cycles)`.
    pub fn modq(&mut self, rs1: u32, _rs2: u32) -> (u32, u64) {
        self.issue_counts[3] += 1;
        let rd = self.mod_q.reduce(rs1, &mut NullMeter);
        (u32::from(rd), mod_q::CYCLES_PER_REDUCTION)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lac_gf::Field;
    use lac_sha256::sha256;

    #[test]
    fn modq_reduces() {
        let mut pq = PqAlu::new();
        let (rd, stall) = pq.modq(1000, 0);
        assert_eq!(rd, 1000 % 251);
        assert_eq!(pq.modq(u32::MAX, 0).0, u32::MAX % 251);
        assert_eq!(pq.issue_counts[3], 2);
        assert_eq!(stall, mod_q::CYCLES_PER_REDUCTION);
    }

    #[test]
    fn sha256_protocol_matches_software() {
        let mut pq = PqAlu::new();
        pq.sha256(0, ctrl::RESET << 28);
        for &b in b"abc" {
            pq.sha256(u32::from(b), ctrl::LOAD << 28);
        }
        let (_, stall) = pq.sha256(0, ctrl::START << 28);
        assert_eq!(stall, CYCLES_PER_BLOCK); // one block
        let expect = sha256(b"abc");
        for i in 0..32u32 {
            let (byte, _) = pq.sha256(0, (ctrl::READ << 28) | i);
            assert_eq!(byte as u8, expect[i as usize], "byte {i}");
        }
    }

    #[test]
    fn mul_ter_protocol_small_product() {
        // Multiply (1 + x) · (3 + 5x) in the length-512 cyclic unit: both
        // inputs zero-padded, so the result is the plain product 3 + 8x + 5x².
        let mut pq = PqAlu::new();
        pq.mul_ter(0, ctrl::RESET << 28);
        // First LOAD: generals 3,5,0,0,0; ternary +1,+1,0,0,0.
        let rs1 = u32::from_le_bytes([3, 5, 0, 0]);
        let ternary = 0b01 | (0b01 << 2); // +1, +1
        let rs2 = (ctrl::LOAD << 28) | (ternary << 8);
        pq.mul_ter(rs1, rs2);
        let (_, stall) = pq.mul_ter(0, ctrl::START << 28); // cyclic
        assert_eq!(stall, mul_ter::compute_cycles(mul_ter::PAPER_LEN));
        let (packed, _) = pq.mul_ter(0, ctrl::READ << 28);
        let bytes = packed.to_le_bytes();
        assert_eq!(bytes, [3, 8, 5, 0]);
    }

    #[test]
    fn mul_ter_negacyclic_wraps() {
        // Load a = x^511 (ternary +1 at last position), b = x: product
        // x^512 ≡ −1 mod x^512+1, i.e. coefficient 0 = 250.
        let mut pq = PqAlu::new();
        pq.mul_ter(0, ctrl::RESET << 28);
        pq.mul_ter(u32::from_le_bytes([0, 1, 0, 0]), ctrl::LOAD << 28); // b = x
        for _ in 1..102 {
            pq.mul_ter(0, ctrl::LOAD << 28);
        }
        // Write 102 carries positions 510..514: slot 1 is position 511.
        pq.mul_ter(0, (ctrl::LOAD << 28) | (0b01 << (8 + 2)));
        pq.mul_ter(0, (ctrl::START << 28) | 1); // negacyclic
        let (packed, _) = pq.mul_ter(0, ctrl::READ << 28);
        assert_eq!(packed.to_le_bytes()[0], 250); // −1 mod 251
    }

    #[test]
    fn chien_steps_feedback() {
        // Load constants α¹..α⁴ and values λ₁..λ₄; two COMPUTEs must yield
        // λ_k·α^k then λ_k·α^{2k}.
        let gf = Field::gf512();
        let lambda = [17u16, 300, 5, 450];
        let mut pq = PqAlu::new();
        let pack = |a: u16, b: u16| u32::from(a) | (u32::from(b) << 16);
        pq.mul_chien(pack(gf.exp(1), gf.exp(2)), ctrl::LOAD << 28);
        pq.mul_chien(pack(gf.exp(3), gf.exp(4)), (ctrl::LOAD << 28) | 1);
        pq.mul_chien(pack(lambda[0], lambda[1]), ctrl::LOAD_VALUES << 28);
        pq.mul_chien(pack(lambda[2], lambda[3]), (ctrl::LOAD_VALUES << 28) | 1);

        let (out1, stall) = pq.mul_chien(0, ctrl::START << 28);
        assert_eq!(stall, u64::from(mul_gf::M));
        let expect1 = (0..4).fold(0u16, |acc, k| acc ^ gf.mul(lambda[k], gf.exp(k as u32 + 1)));
        assert_eq!(out1 as u16, expect1);

        let (out2, _) = pq.mul_chien(0, ctrl::START << 28);
        let expect2 = (0..4).fold(0u16, |acc, k| {
            acc ^ gf.mul(lambda[k], gf.pow(gf.exp(k as u32 + 1), 2))
        });
        assert_eq!(out2 as u16, expect2);
    }

    #[test]
    fn encoders_match_hand_packed_words() {
        // The first LOAD of `mul_ter_protocol_small_product`, then a short
        // second write whose sixth pair is zero-padded.
        let (load, start) = (ctrl::LOAD << 28, ctrl::START << 28);
        let loads = mul_ter_loads(&[1, 1, 0, 0, 0, -1], &[3, 5, 0, 0, 0, 7]);
        let first = (u32::from_le_bytes([3, 5, 0, 0]), load | (0b0101 << 8));
        assert_eq!(loads, [first, (7, load | (0b10 << 8))]);
        assert_eq!(mul_ter_start(Convolution::Negacyclic), start | 1);
        assert_eq!(mul_ter_start(Convolution::Cyclic), start);
        let [left, right] = mul_chien_loads(ctrl::LOAD_VALUES, [17, 300, 5, 450]);
        assert_eq!(left, (17 | (300 << 16), ctrl::LOAD_VALUES << 28));
        assert_eq!(right, (5 | (450 << 16), (ctrl::LOAD_VALUES << 28) | 1));
    }

    #[test]
    fn reset_clears_chien_state() {
        let mut pq = PqAlu::new();
        pq.mul_chien(123 | (456 << 16), ctrl::LOAD_VALUES << 28);
        pq.mul_chien(0, ctrl::RESET << 28);
        let (out, _) = pq.mul_chien(0, ctrl::START << 28);
        assert_eq!(out, 0);
    }
}
