//! The PQ-ALU device: register-level state machines behind the four
//! `pq.*` instructions.
//!
//! The paper (Section V) specifies the R-type format, the opcode (0x77),
//! the funct3 unit select, and the packing granularity (five
//! coefficient pairs per `pq.mul_ter` write, four field elements per
//! `pq.mul_chien` write, one byte per `pq.sha256` transfer); the exact bit
//! positions of the control fields are not printed, so this module pins
//! down a concrete encoding consistent with those constraints:
//!
//! **pq.mul_ter** — control in rs2\[31:28\]:
//! * `1` RESET — clear input/output pointers;
//! * `2` LOAD — rs1 = four general coefficients (bytes, little-endian),
//!   rs2\[7:0\] = fifth general coefficient, rs2\[17:8\] = five 2-bit ternary
//!   coefficients (`00`=0, `01`=+1, `10`=−1); five pairs per instruction;
//! * `3` START — rs2\[0\] = `conv_n` (1 = negative wrapped convolution);
//!   stalls for the unit's [`mul_ter::compute_cycles`];
//! * `4` READ — rd = next four result coefficients, pointer auto-advances.
//!
//! **pq.mul_chien** — control in rs2\[31:28\]:
//! * `1` LOAD_CONST — rs1\[8:0\], rs1\[24:16\] = α constants for one
//!   multiplier pair; rs2\[0\] selects the left (0) or right (1) pair;
//! * `2` LOAD_VAL — same layout, loads the λ terms into the feedback
//!   registers;
//! * `3` COMPUTE — every multiplier multiplies its constant into its
//!   feedback register (the Fig. 4 loop); rd = XOR of the four products;
//!   stalls for one [`mul_gf::M`]-cycle multiplication (the four run in
//!   parallel).
//!
//! **pq.sha256** — control in rs2\[31:28\]:
//! * `1` RESET; `2` WRITE (rs1\[7:0\] appended); `3` FINALIZE (stalls
//!   [`CYCLES_PER_BLOCK`] per [padded block](sha256_unit::padded_blocks));
//!   `4` READ (rd = digest byte rs2\[5:0\]).
//!
//! **pq.modq** — rd = rs1 mod 251, single-cycle Barrett datapath.
//!
//! Every stall is the matching `lac-hw` model's datapath time, so the ISS
//! and the cost model cannot drift apart.

use crate::inst::PqUnit;
use lac_hw::chien::PARALLEL_MULS;
use lac_hw::mul_ter::{self, COEFFS_PER_READ, COEFFS_PER_WRITE};
use lac_hw::sha256_unit::{self, CYCLES_PER_BLOCK};
use lac_hw::{mod_q, mul_gf, MulGf};
use lac_meter::NullMeter;
use lac_ring::mul::mul_ternary;
use lac_ring::{barrett_reduce, Convolution, Poly, TernaryPoly};
use lac_sha256::sha256;

/// Polynomial length of the MUL TER unit instance (the paper's choice).
pub const MUL_TER_LEN: usize = 512;

/// Control-field values shared by the stateful units.
pub mod ctrl {
    /// Clear pointers / state.
    pub const RESET: u32 = 1;
    /// Write input data.
    pub const LOAD: u32 = 2;
    /// Start computation (MUL TER) / compute+return (MUL CHIEN) /
    /// finalize (SHA256).
    pub const START: u32 = 3;
    /// Read output data.
    pub const READ: u32 = 4;
}

/// Decode a 2-bit ternary crumb.
fn crumb_to_ternary(c: u32) -> i8 {
    match c & 0x3 {
        0b01 => 1,
        0b10 => -1,
        _ => 0,
    }
}

/// The PQ-ALU device state (one instance per CPU). `Clone` so a
/// [`crate::warm::WarmImage`] can capture the device mid-operation.
#[derive(Debug, Clone)]
pub struct PqAlu {
    // MUL TER
    ter_a: Vec<i8>,
    ter_b: Vec<u8>,
    ter_out: Vec<u8>,
    ter_read_ptr: usize,
    // MUL CHIEN
    chien_consts: [u16; PARALLEL_MULS],
    chien_vals: [u16; PARALLEL_MULS],
    chien_muls: [MulGf; PARALLEL_MULS],
    // SHA256
    sha_buf: Vec<u8>,
    sha_digest: [u8; 32],
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
            ter_a: Vec::new(),
            ter_b: Vec::new(),
            ter_out: vec![0u8; MUL_TER_LEN],
            ter_read_ptr: 0,
            chien_consts: [0; PARALLEL_MULS],
            chien_vals: [0; PARALLEL_MULS],
            chien_muls: Default::default(),
            sha_buf: Vec::new(),
            sha_digest: [0u8; 32],
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
        match rs2 >> 28 {
            ctrl::RESET => {
                self.ter_a.clear();
                self.ter_b.clear();
                self.ter_read_ptr = 0;
                (0, 0)
            }
            ctrl::LOAD => {
                // Five general coefficients: four from rs1, one from rs2[7:0].
                let mut generals = [0u8; COEFFS_PER_WRITE];
                generals[..4].copy_from_slice(&rs1.to_le_bytes());
                generals[4] = (rs2 & 0xff) as u8;
                for (i, &g) in generals.iter().enumerate() {
                    if self.ter_b.len() < MUL_TER_LEN {
                        self.ter_b.push(g % 251);
                        self.ter_a.push(crumb_to_ternary(rs2 >> (8 + 2 * i as u32)));
                    }
                }
                (0, 0)
            }
            ctrl::START => {
                let conv = if rs2 & 1 == 1 {
                    Convolution::Negacyclic
                } else {
                    Convolution::Cyclic
                };
                let mut a = self.ter_a.clone();
                let mut b = self.ter_b.clone();
                a.resize(MUL_TER_LEN, 0);
                b.resize(MUL_TER_LEN, 0);
                let product = mul_ternary(
                    &TernaryPoly::from_coeffs(a),
                    &Poly::from_coeffs(b),
                    conv,
                    &mut NullMeter,
                );
                self.ter_out.copy_from_slice(product.coeffs());
                self.ter_read_ptr = 0;
                (0, mul_ter::compute_cycles(MUL_TER_LEN))
            }
            ctrl::READ => {
                let mut out = [0u8; COEFFS_PER_READ];
                for slot in out.iter_mut() {
                    *slot = self.ter_out.get(self.ter_read_ptr).copied().unwrap_or(0);
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
        let pair = ((rs2 & 1) as usize) * 2;
        let lo = (rs1 & 0x1ff) as u16;
        let hi = ((rs1 >> 16) & 0x1ff) as u16;
        match rs2 >> 28 {
            ctrl::RESET => {
                self.chien_consts = [0; PARALLEL_MULS];
                self.chien_vals = [0; PARALLEL_MULS];
                (0, 0)
            }
            ctrl::LOAD => {
                self.chien_consts[pair] = lo;
                self.chien_consts[pair + 1] = hi;
                (0, 0)
            }
            // LOAD_VAL shares the START slot - 1 gap: use control 5.
            5 => {
                self.chien_vals[pair] = lo;
                self.chien_vals[pair + 1] = hi;
                (0, 0)
            }
            ctrl::START => {
                let mut acc = 0u16;
                for i in 0..PARALLEL_MULS {
                    let stepped = self.chien_muls[i].multiply(
                        self.chien_vals[i],
                        self.chien_consts[i],
                        &mut NullMeter,
                    );
                    self.chien_vals[i] = stepped;
                    acc ^= stepped;
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
                self.sha_buf.push((rs1 & 0xff) as u8);
                (0, 0)
            }
            ctrl::START => {
                self.sha_digest = sha256(&self.sha_buf);
                let blocks = sha256_unit::padded_blocks(self.sha_buf.len());
                (0, blocks * CYCLES_PER_BLOCK)
            }
            ctrl::READ => {
                let idx = (rs2 & 0x3f) as usize % 32;
                (u32::from(self.sha_digest[idx]), 0)
            }
            _ => (0, 0),
        }
    }

    /// Execute one `pq.modq`. Returns `(rd value, stall cycles)`.
    pub fn modq(&mut self, rs1: u32, _rs2: u32) -> (u32, u64) {
        self.issue_counts[3] += 1;
        (u32::from(barrett_reduce(rs1)), mod_q::CYCLES_PER_REDUCTION)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lac_gf::Field;
    use lac_hw::{ModQ, MulTer, Sha256Unit};

    #[test]
    fn modq_reduces() {
        let mut pq = PqAlu::new();
        let (rd, stall) = pq.modq(1000, 0);
        assert_eq!(rd, 1000 % 251);
        assert_eq!(pq.modq(u32::MAX, 0).0, u32::MAX % 251);
        assert_eq!(pq.issue_counts[3], 2);
        let mut unit = ModQ::new();
        unit.reduce(1000, &mut NullMeter);
        assert_eq!(stall, unit.stats().busy_cycles);
    }

    #[test]
    fn sha256_protocol_matches_software() {
        let mut pq = PqAlu::new();
        pq.sha256(0, ctrl::RESET << 28);
        for &b in b"abc" {
            pq.sha256(u32::from(b), ctrl::LOAD << 28);
        }
        let (_, stall) = pq.sha256(0, ctrl::START << 28);
        let mut unit = Sha256Unit::new();
        unit.digest(b"abc", &mut NullMeter);
        assert_eq!(stall, unit.stats().busy_cycles); // one block
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
        let mut unit = MulTer::new(MUL_TER_LEN);
        let (a, b) = (
            TernaryPoly::from_coeffs(vec![0; MUL_TER_LEN]),
            Poly::zero(MUL_TER_LEN),
        );
        unit.multiply(&a, &b, Convolution::Cyclic, &mut NullMeter);
        assert_eq!(stall, unit.stats().busy_cycles);
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
        for i in 0..103 {
            // 5 pairs per load; position 511 is the 2nd slot of load #102.
            let mut rs1 = 0u32;
            let mut rs2 = ctrl::LOAD << 28;
            if i == 102 {
                // slots 510..514; slot index 1 is position 511.
                rs2 |= 0b01 << (8 + 2);
            }
            if i == 0 {
                // b coefficient 1 at position 1.
                rs1 = u32::from_le_bytes([0, 1, 0, 0]);
            }
            pq.mul_ter(rs1, rs2);
        }
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
        pq.mul_chien(pack(lambda[0], lambda[1]), 5 << 28);
        pq.mul_chien(pack(lambda[2], lambda[3]), (5 << 28) | 1);

        let (out1, stall) = pq.mul_chien(0, ctrl::START << 28);
        let mut unit = MulGf::new();
        unit.multiply(lambda[0], gf.exp(1), &mut NullMeter);
        assert_eq!(stall, unit.stats().busy_cycles);
        let expect1 = (0..4).fold(0u16, |acc, k| acc ^ gf.mul(lambda[k], gf.exp(k as u32 + 1)));
        assert_eq!(out1 as u16, expect1);

        let (out2, _) = pq.mul_chien(0, ctrl::START << 28);
        let expect2 = (0..4).fold(0u16, |acc, k| {
            acc ^ gf.mul(lambda[k], gf.pow(gf.exp(k as u32 + 1), 2))
        });
        assert_eq!(out2 as u16, expect2);
    }

    #[test]
    fn reset_clears_chien_state() {
        let mut pq = PqAlu::new();
        pq.mul_chien(123 | (456 << 16), 5 << 28);
        pq.mul_chien(0, ctrl::RESET << 28);
        let (out, _) = pq.mul_chien(0, ctrl::START << 28);
        assert_eq!(out, 0);
    }
}
