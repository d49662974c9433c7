//! The Chien-search accelerator *MUL CHIEN* (Fig. 4).
//!
//! Four GF multipliers evaluate the error-locator polynomial four terms at
//! a time (Eq. 4): Λ(αⁱ) = λ₀ + Σⱼ outⱼ where each outⱼ xors four
//! products λ_{k}·α^{i·k}. A feedback loop keeps the λ inputs loaded: after
//! the first evaluation, each multiplier's second operand is its own
//! previous output, so stepping to the next power of α costs one 9-cycle
//! multiplication per term with **no reload**.
//!
//! Because LAC's codeword is systematic and the message is only 256 bits,
//! the search only visits the 256 exponents of the message positions,
//! [`BchCode::chien_window`]: α¹¹²…α³⁶⁷ for t = 16 and α¹⁸⁴…α⁴³⁹ for
//! t = 8. Section IV-B quotes α¹¹²…α³⁶⁸ and α¹⁸⁴…α⁴⁴⁰, 257 exponents: its
//! last one, α³⁶⁸ or α⁴⁴⁰, is the top parity position.
//!
//! [`ChienUnit::search`] is the unit's step: it charges the unit's protocol
//! and stalls and takes its values from `lac_bch::kernel::chien`, the one
//! Chien evaluation. The rest of the accelerated decode — syndromes,
//! Berlekamp–Massey, the branchless correction and every phase — is
//! `lac_bch::ct::decode_with`, the one constant-time pipeline the software
//! decoder runs too.

use crate::area::{ResourceEstimate, CHIEN_GLUE_LUTS, CHIEN_GLUE_REGS};
use crate::mul_gf::{self, MulGf};
use lac_bch::{kernel, BchCode, Decoded};
use lac_meter::{Meter, Op};

/// Number of parallel GF multipliers in the paper's unit.
pub const PARALLEL_MULS: usize = 4;

/// Cycle model of the MUL CHIEN unit: it charges the unit's protocol and
/// stalls and takes its values from `lac_bch::kernel::chien`.
///
/// # Example
///
/// ```
/// use lac_bch::BchCode;
/// use lac_hw::ChienUnit;
/// use lac_meter::NullMeter;
///
/// let code = BchCode::lac_t16();
/// let msg = [7u8; 32];
/// let mut cw = code.encode(&msg, &mut NullMeter);
/// cw[300] ^= 1;
/// let out = ChienUnit::new().decode(&code, &cw, &mut NullMeter);
/// assert_eq!(out.message, msg);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ChienUnit;

impl ChienUnit {
    /// Create the unit model.
    pub fn new() -> Self {
        Self
    }

    /// Structural resource estimate: four GF multipliers plus the operand
    /// buffers, adder tree and control glue.
    ///
    /// Matches Table III's "GF-Multipliers" row (86 LUTs, 158 registers).
    pub fn resources(&self) -> ResourceEstimate {
        let glue = ResourceEstimate::new(CHIEN_GLUE_LUTS, CHIEN_GLUE_REGS, 0, 0);
        (0..PARALLEL_MULS).fold(glue, |r, _| r + MulGf::new().resources())
    }

    /// Run the accelerated Chien search over the code's message window,
    /// [`BchCode::chien_window`].
    ///
    /// `lambda` is the error-locator polynomial (λ₀ first). Returns the
    /// per-position error mask over the stored (shortened) codeword and the
    /// number of roots found in the window.
    ///
    /// Cycle charges follow the Section V protocol, in closed form from t
    /// and the window's length: t preprocessing products, two operand-load
    /// instructions per group on the first evaluation, then per point one
    /// compute instruction per group with a 9-cycle datapath stall and a
    /// result read. They land in the caller's phase; [`ChienUnit::decode`]
    /// runs the search under
    /// [`Phase::BchChien`](lac_meter::Phase::BchChien).
    ///
    /// # Panics
    ///
    /// Panics if `lambda` has more than t+1 coefficients.
    pub fn search<M: Meter>(
        &self,
        code: &BchCode,
        lambda: &[u16],
        meter: &mut M,
    ) -> (Vec<u8>, usize) {
        let t = code.t();
        assert!(
            lambda.len() <= t + 1,
            "locator degree exceeds the code's correction capability"
        );
        assert_eq!(
            t % PARALLEL_MULS,
            0,
            "t must be a multiple of the multiplier count"
        );
        let window = code.chien_window();
        let points = u64::from(window.end() - window.start() + 1);
        let (t, groups) = (t as u64, (t / PARALLEL_MULS) as u64);

        // Software preprocessing: start the window at α^lo by loading
        // λ_k·α^((lo−1)·k) instead of λ_k, one table multiplication per
        // term (three loads, three ALU ops, a store, a loop step) — the
        // unit's feedback loop multiplies by α^k *before* each evaluation,
        // so the first evaluated point is exactly α^lo. Then the
        // first-round operand loads: per group, two pq.mul_chien writes
        // (four 9-bit elements packed across rs1/rs2 each) for the λ terms
        // and the α^k constants.
        meter.charge(Op::Load, 3 * t + 8 * groups);
        meter.charge(Op::Alu, 3 * t + 12 * groups);
        meter.charge(Op::Store, t);
        meter.charge(Op::LoopIter, t + groups);
        // Per point, one compute/return instruction per group: the four
        // multipliers step their terms by α^k in parallel (feedback loop)
        // and the adder tree xors them into out_j. Only one 9-cycle
        // datapath stall is architecturally visible per group; issue,
        // result read and accumulate are three ALU ops and a loop step.
        // Then the root test, the mask store and the loop step.
        meter.charge_cycles(points * groups * u64::from(mul_gf::M));
        meter.charge(Op::Alu, points * (3 * groups + 3));
        meter.charge(Op::Store, points);
        meter.charge(Op::LoopIter, points * (groups + 1));
        kernel::chien(code, lambda, window)
    }

    /// Full hardware-accelerated constant-time BCH decode:
    /// `lac_bch::ct::decode_with` (software constant-time syndromes,
    /// Berlekamp–Massey and branchless correction) with this unit's
    /// [`ChienUnit::search`] as the Chien step.
    ///
    /// This is the decode pipeline behind the paper's "LAC opt." rows
    /// (Table II, BCH Dec. column).
    ///
    /// # Panics
    ///
    /// Panics if `received.len() != code.codeword_len()`.
    pub fn decode<M: Meter>(&self, code: &BchCode, received: &[u8], meter: &mut M) -> Decoded {
        lac_bch::ct::decode_with(code, received, meter, |code, lambda, meter| {
            self.search(code, lambda, meter)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lac_meter::{CycleLedger, NullMeter, Phase};

    fn flip(cw: &mut [u8], positions: &[usize]) {
        for &p in positions {
            cw[p] ^= 1;
        }
    }

    #[test]
    fn decodes_error_free() {
        let code = BchCode::lac_t16();
        let unit = ChienUnit::new();
        let msg = [0x60u8; 32];
        let cw = code.encode(&msg, &mut NullMeter);
        let out = unit.decode(&code, &cw, &mut NullMeter);
        assert_eq!(out.message, msg);
        assert_eq!(out.locator_degree, 0);
    }

    #[test]
    fn corrects_message_errors_t16() {
        let code = BchCode::lac_t16();
        let unit = ChienUnit::new();
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
        let unit = ChienUnit::new();
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
        let unit = ChienUnit::new();
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
        let unit = ChienUnit::new();
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
