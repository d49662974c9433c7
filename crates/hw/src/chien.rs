//! The Chien-search accelerator *MUL CHIEN* (Fig. 4).
//!
//! Four [`MulGf`] instances evaluate the error-locator polynomial four terms
//! at a time (Eq. 4): Λ(αⁱ) = λ₀ + Σⱼ outⱼ where each outⱼ xors four
//! products λ_{k}·α^{i·k}. A feedback loop keeps the λ inputs loaded: after
//! the first evaluation, each multiplier's second operand is its own
//! previous output, so stepping to the next power of α costs one 9-cycle
//! multiplication per term with **no reload**.
//!
//! Because LAC's codeword is systematic and the message is only 256 bits,
//! the search only visits the 257 exponents covering the message positions
//! (α¹¹²…α³⁶⁸ for t = 16, α¹⁸⁴…α⁴⁴⁰ for t = 8) — Section IV-B.

use crate::area::{ResourceEstimate, CHIEN_GLUE_LUTS, CHIEN_GLUE_REGS};
use crate::mul_gf::MulGf;
use lac_bch::{BchCode, Decoded};
use lac_meter::{Meter, NullMeter, Op, Phase};

/// Number of parallel GF multipliers in the paper's unit.
pub const PARALLEL_MULS: usize = 4;

/// Cycle-accurate model of the MUL CHIEN unit.
///
/// # Example
///
/// ```
/// use lac_bch::BchCode;
/// use lac_hw::ChienUnit;
/// use lac_meter::NullMeter;
///
/// let code = BchCode::lac_t16();
/// let mut unit = ChienUnit::new();
/// let msg = [7u8; 32];
/// let mut cw = code.encode(&msg, &mut NullMeter);
/// cw[300] ^= 1;
/// let out = unit.decode(&code, &cw, &mut NullMeter);
/// assert_eq!(out.message, msg);
/// ```
#[derive(Debug, Clone)]
pub struct ChienUnit {
    muls: Vec<MulGf>,
}

impl Default for ChienUnit {
    fn default() -> Self {
        Self::new()
    }
}

impl ChienUnit {
    /// Create the paper's unit: four parallel GF multipliers.
    pub fn new() -> Self {
        Self::with_multipliers(PARALLEL_MULS)
    }

    /// Create a unit with a custom multiplier count — the design-space
    /// knob behind Eq. (4): `t` must be divisible by the count, so valid
    /// values for LAC are 1, 2, 4, 8 (and 16 for the t = 16 codes). More
    /// multipliers mean fewer sequential groups per evaluated power (less
    /// time) and proportionally more area.
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero.
    pub fn with_multipliers(count: usize) -> Self {
        assert!(count > 0, "at least one multiplier");
        Self {
            muls: vec![MulGf::new(); count],
        }
    }

    /// Number of parallel GF multipliers.
    pub fn multipliers(&self) -> usize {
        self.muls.len()
    }

    /// Total busy cycles across the four multipliers.
    pub fn busy_cycles(&self) -> u64 {
        self.muls.iter().map(|m| m.stats().busy_cycles).sum()
    }

    /// Structural resource estimate: four GF multipliers plus the operand
    /// buffers, adder tree and control glue.
    ///
    /// Matches Table III's "GF-Multipliers" row (86 LUTs, 158 registers).
    pub fn resources(&self) -> ResourceEstimate {
        let mut r = ResourceEstimate {
            luts: CHIEN_GLUE_LUTS,
            regs: CHIEN_GLUE_REGS,
            brams: 0,
            dsps: 0,
        };
        for m in &self.muls {
            r = r + m.resources();
        }
        r
    }

    /// Run the accelerated Chien search over the code's message window.
    ///
    /// `lambda` is the error-locator polynomial (λ₀ first). Returns the
    /// per-position error mask over the stored (shortened) codeword and the
    /// number of roots found in the window.
    ///
    /// Cycle charges (under [`Phase::BchChien`]) follow the Section V
    /// protocol: two operand-load instructions per group on the first
    /// evaluation, then per position one compute instruction per group with
    /// a 9-cycle datapath stall and a result read.
    ///
    /// # Panics
    ///
    /// Panics if `lambda` has more than t+1 coefficients.
    pub fn search<M: Meter>(
        &mut self,
        code: &BchCode,
        lambda: &[u16],
        meter: &mut M,
    ) -> (Vec<u8>, usize) {
        let t = code.t();
        let width = self.muls.len();
        assert!(
            lambda.len() <= t + 1,
            "locator degree exceeds the code's correction capability"
        );
        assert_eq!(t % width, 0, "t must be a multiple of the multiplier count");
        let gf = code.field();
        let n = code.n();
        let len = code.codeword_len();
        let window = code.chien_window();
        let (lo, hi) = (*window.start(), *window.end());
        let groups = t / width;

        meter.enter(Phase::BchChien);

        // Software preprocessing: start the window at α^lo by loading
        // λ_k·α^((lo−1)·k) instead of λ_k (t table multiplications) — the
        // unit's feedback loop multiplies by α^k *before* each evaluation,
        // so the first evaluated point is exactly α^lo.
        let mut terms = vec![0u16; t + 1];
        for (k, term) in terms.iter_mut().enumerate().skip(1) {
            let lam = lambda.get(k).copied().unwrap_or(0);
            *term = gf.mul(lam, gf.pow(gf.exp(1), (lo - 1) * k as u32));
            meter.charge(Op::Load, 3);
            meter.charge(Op::Alu, 3);
            meter.charge(Op::Store, 1);
            meter.charge(Op::LoopIter, 1);
        }
        // First-round operand loads: per group, two pq.mul_chien writes
        // (four 9-bit elements packed across rs1/rs2 each) for the λ terms
        // and the α^k constants.
        meter.charge(Op::Load, groups as u64 * 8);
        meter.charge(Op::Alu, groups as u64 * 12);
        meter.charge(Op::LoopIter, groups as u64);

        let lambda0 = lambda.first().copied().unwrap_or(0);
        let mut error_mask = vec![0u8; len];
        let mut roots = 0usize;

        for l in lo..=hi {
            let mut acc = lambda0;
            for g in 0..groups {
                // One compute/return instruction per group: the four
                // multipliers step their terms by α^k in parallel (feedback
                // loop), the adder tree xors them into out_j. Only one
                // 9-cycle datapath stall is architecturally visible per
                // group, so the parallel multiplies run under a NullMeter
                // and the stall is charged once.
                let mut out = 0u16;
                for slot in 0..width {
                    let k = 1 + width * g + slot;
                    let stepped =
                        self.muls[slot].multiply(terms[k], gf.exp(k as u32), &mut NullMeter);
                    terms[k] = stepped;
                    out ^= stepped;
                }
                meter.charge_cycles(u64::from(crate::mul_gf::M));
                acc ^= out;
                // Issue + result read + accumulate.
                meter.charge(Op::Alu, 3);
                meter.charge(Op::LoopIter, 1);
            }
            let is_root = (acc == 0) as u8;
            let p = n - l as usize;
            error_mask[p] = is_root;
            roots += usize::from(is_root);
            meter.charge(Op::Alu, 3);
            meter.charge(Op::Store, 1);
            meter.charge(Op::LoopIter, 1);
        }

        meter.leave();
        (error_mask, roots)
    }

    /// Full hardware-accelerated constant-time BCH decode: software
    /// constant-time syndromes and Berlekamp–Massey (from `lac-bch`)
    /// followed by the accelerated Chien search and branchless correction.
    ///
    /// This is the decode pipeline behind the paper's "LAC opt." rows
    /// (Table II, BCH Dec. column).
    ///
    /// # Panics
    ///
    /// Panics if `received.len() != code.codeword_len()`.
    pub fn decode<M: Meter>(&mut self, code: &BchCode, received: &[u8], meter: &mut M) -> Decoded {
        assert_eq!(
            received.len(),
            code.codeword_len(),
            "received word has wrong length"
        );
        meter.enter(Phase::BchSyndrome);
        let s = lac_bch::ct::syndromes(code, received, meter);
        meter.leave();

        meter.enter(Phase::BchErrorLocator);
        let lambda = lac_bch::ct::berlekamp_massey(code, &s, meter);
        meter.leave();

        let locator_degree = lambda.len() - 1;
        let (error_mask, errors_located) = self.search(code, &lambda, meter);

        meter.enter(Phase::BchGlue);
        let mut corrected = received.to_vec();
        for (c, &e) in corrected.iter_mut().zip(error_mask.iter()) {
            *c ^= e;
            meter.charge(Op::Load, 2);
            meter.charge(Op::Alu, 1);
            meter.charge(Op::Store, 1);
            meter.charge(Op::LoopIter, 1);
        }
        let message = code.message_of(&corrected);
        meter.charge(Op::Load, 256);
        meter.charge(Op::Alu, 256);
        meter.leave();

        Decoded {
            message,
            locator_degree,
            errors_located,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lac_meter::{CycleLedger, NullMeter};

    fn flip(cw: &mut [u8], positions: &[usize]) {
        for &p in positions {
            cw[p] ^= 1;
        }
    }

    #[test]
    fn decodes_error_free() {
        let code = BchCode::lac_t16();
        let mut unit = ChienUnit::new();
        let msg = [0x60u8; 32];
        let cw = code.encode(&msg, &mut NullMeter);
        let out = unit.decode(&code, &cw, &mut NullMeter);
        assert_eq!(out.message, msg);
        assert_eq!(out.locator_degree, 0);
    }

    #[test]
    fn corrects_message_errors_t16() {
        let code = BchCode::lac_t16();
        let mut unit = ChienUnit::new();
        let msg = [0xceu8; 32];
        let mut cw = code.encode(&msg, &mut NullMeter);
        // All errors in the message region (the window the unit scans).
        let positions: Vec<usize> = (0..16).map(|i| code.parity_len() + 2 + i * 15).collect();
        flip(&mut cw, &positions);
        let out = unit.decode(&code, &cw, &mut NullMeter);
        assert_eq!(out.message, msg);
        assert_eq!(out.errors_located, 16);
    }

    #[test]
    fn corrects_message_errors_t8() {
        let code = BchCode::lac_t8();
        let mut unit = ChienUnit::new();
        let msg = [0x4bu8; 32];
        let mut cw = code.encode(&msg, &mut NullMeter);
        let positions: Vec<usize> = (0..8).map(|i| code.parity_len() + 1 + i * 30).collect();
        flip(&mut cw, &positions);
        let out = unit.decode(&code, &cw, &mut NullMeter);
        assert_eq!(out.message, msg);
        assert_eq!(out.errors_located, 8);
    }

    #[test]
    fn parity_errors_do_not_corrupt_message() {
        // Errors confined to parity bits: the windowed search cannot locate
        // them, but the recovered message must still be correct.
        let code = BchCode::lac_t16();
        let mut unit = ChienUnit::new();
        let msg = [0x2au8; 32];
        let mut cw = code.encode(&msg, &mut NullMeter);
        flip(&mut cw, &[0, 20, 40, 60]);
        let out = unit.decode(&code, &cw, &mut NullMeter);
        assert_eq!(out.message, msg);
        assert!(out.errors_located < out.locator_degree);
    }

    #[test]
    fn agrees_with_software_ct_decoder() {
        let code = BchCode::lac_t16();
        let mut unit = ChienUnit::new();
        let msg = [0xf0u8; 32];
        let clean = code.encode(&msg, &mut NullMeter);
        for errors in [0usize, 3, 16] {
            let mut cw = clean.clone();
            let positions: Vec<usize> = (0..errors)
                .map(|i| code.parity_len() + 5 + i * 14)
                .collect();
            flip(&mut cw, &positions);
            let hw = unit.decode(&code, &cw, &mut NullMeter);
            let sw = code.decode_constant_time(&cw, &mut NullMeter);
            assert_eq!(hw.message, sw.message);
            assert_eq!(hw.locator_degree, sw.locator_degree);
        }
    }

    #[test]
    fn accelerated_chien_cost_is_input_independent() {
        let code = BchCode::lac_t16();
        let msg = [0x5cu8; 32];
        let clean = code.encode(&msg, &mut NullMeter);
        let mut dirty = clean.clone();
        flip(
            &mut dirty,
            &(0..16)
                .map(|i| code.parity_len() + 3 + i * 15)
                .collect::<Vec<_>>(),
        );
        let mut a = CycleLedger::new();
        ChienUnit::new().decode(&code, &clean, &mut a);
        let mut b = CycleLedger::new();
        ChienUnit::new().decode(&code, &dirty, &mut b);
        assert_eq!(a.total(), b.total(), "accelerated decode leaked");
    }

    #[test]
    fn accelerated_decode_cost_matches_paper() {
        // Table II: LAC-128/256 optimized BCH decode ≈ 160,295 cycles; the
        // Chien phase drops from ~380k (software CT) to tens of thousands.
        let code = BchCode::lac_t16();
        let cw = code.encode(&[1u8; 32], &mut NullMeter);
        let mut l = CycleLedger::new();
        ChienUnit::new().decode(&code, &cw, &mut l);
        let total = l.total();
        assert!(
            (120_000..210_000).contains(&total),
            "opt BCH decode {total} (paper: 160,295)"
        );
        let chien = l.phase_total(Phase::BchChien);
        assert!(
            chien < 80_000,
            "accelerated Chien {chien} (paper implies ~37k)"
        );
    }

    #[test]
    fn speedup_vs_software_ct_chien_matches_paper_factor() {
        // Paper: total decode improvement 3.21x for the t=16 code.
        let code = BchCode::lac_t16();
        let cw = code.encode(&[8u8; 32], &mut NullMeter);
        let mut sw = CycleLedger::new();
        code.decode_constant_time(&cw, &mut sw);
        let mut hw = CycleLedger::new();
        ChienUnit::new().decode(&code, &cw, &mut hw);
        let factor = sw.total() as f64 / hw.total() as f64;
        assert!((2.2..4.6).contains(&factor), "decode speedup {factor}");
    }

    #[test]
    fn resources_match_table_iii_gf_row() {
        let unit = ChienUnit::new();
        let r = unit.resources();
        assert_eq!(r.luts, 86, "paper: 86 LUTs");
        assert_eq!(r.regs, 158, "paper: 158 registers");
        assert_eq!(r.brams, 0);
        assert_eq!(r.dsps, 0);
    }
}
// (appended tests for the parallelism design-space knob)
#[cfg(test)]
mod width_tests {
    use super::*;
    use lac_meter::{CycleLedger, NullMeter};

    #[test]
    fn all_widths_decode_identically() {
        let code = BchCode::lac_t16();
        let msg = [0x6du8; 32];
        let mut cw = code.encode(&msg, &mut NullMeter);
        for i in 0..12 {
            cw[code.parity_len() + 4 + i * 19] ^= 1;
        }
        let reference = ChienUnit::new().decode(&code, &cw, &mut NullMeter);
        for width in [1usize, 2, 8, 16] {
            let out = ChienUnit::with_multipliers(width).decode(&code, &cw, &mut NullMeter);
            assert_eq!(out.message, reference.message, "width {width}");
            assert_eq!(out.errors_located, reference.errors_located);
        }
        assert_eq!(reference.message, msg);
    }

    #[test]
    fn wider_units_are_faster_and_bigger() {
        let code = BchCode::lac_t16();
        let cw = code.encode(&[3u8; 32], &mut NullMeter);
        let mut prev_cycles = u64::MAX;
        let mut prev_luts = 0u32;
        for width in [1usize, 2, 4, 8, 16] {
            let mut unit = ChienUnit::with_multipliers(width);
            let mut ledger = CycleLedger::new();
            unit.decode(&code, &cw, &mut ledger);
            let chien = ledger.phase_total(Phase::BchChien);
            assert!(chien < prev_cycles, "width {width} must cut Chien time");
            prev_cycles = chien;
            let luts = unit.resources().luts;
            assert!(luts > prev_luts, "width {width} must grow area");
            prev_luts = luts;
        }
    }

    #[test]
    fn incompatible_width_rejected() {
        // t = 8 is not divisible by 16.
        let code = BchCode::lac_t8();
        let cw = code.encode(&[0u8; 32], &mut NullMeter);
        let result = std::panic::catch_unwind(move || {
            ChienUnit::with_multipliers(16).decode(&code, &cw, &mut NullMeter)
        });
        assert!(result.is_err());
    }
}
