//! The bit-serial GF(2⁹) multiplier *MUL GF* (Fig. 3).
//!
//! A shift-and-add structure with interleaved reduction by the primitive
//! polynomial p(x) = 1 + x⁴ + x⁹: the Control Unit feeds the bits of `b`
//! from b₈ downwards into the AND gates, the shift register `c` rotates with
//! a feedback tap from c₈ into c₀ and c₄, and after m = 9 clock cycles the
//! register holds the product. The register steps are `lac_gf`'s
//! [`mul_shift_add`], the one home of that loop (the constant-time software
//! multiply runs it too); this model adds the unit's 9 datapath cycles.

use crate::area::{ResourceEstimate, MUL_GF_LUTS, MUL_GF_REGS};
use lac_gf::{mul_shift_add, LAC_PRIMITIVE_POLY};
use lac_meter::Meter;

/// Field degree m = 9.
pub const M: u32 = 9;

/// Cycle-accurate model of one MUL GF instance.
///
/// # Example
///
/// ```
/// use lac_hw::MulGf;
/// use lac_meter::NullMeter;
///
/// let unit = MulGf::new();
/// // α · α = α², i.e. 0b10 · 0b10 = 0b100.
/// assert_eq!(unit.multiply(0b10, 0b10, &mut NullMeter), 0b100);
/// ```
#[derive(Debug, Clone, Default)]
pub struct MulGf;

impl MulGf {
    /// Create a multiplier (primitive polynomial fixed to LAC's 1 + x⁴ + x⁹).
    pub fn new() -> Self {
        Self
    }

    /// Structural resource estimate for one instance.
    pub fn resources(&self) -> ResourceEstimate {
        ResourceEstimate {
            luts: MUL_GF_LUTS,
            regs: MUL_GF_REGS,
            brams: 0,
            dsps: 0,
        }
    }

    /// Multiply two field elements in exactly m = 9 datapath cycles, the
    /// m register steps of [`mul_shift_add`] (Fig. 3).
    ///
    /// # Panics
    ///
    /// Panics if an operand is not a 9-bit field element.
    pub fn multiply<M2: Meter>(&self, a: u16, b: u16, meter: &mut M2) -> u16 {
        assert!(a < 512 && b < 512, "operands must be 9-bit field elements");
        meter.charge_cycles(u64::from(M));
        mul_shift_add(M, LAC_PRIMITIVE_POLY, a, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lac_gf::Field;
    use lac_meter::{CycleLedger, NullMeter};
    use lac_rand::prop;

    #[test]
    fn matches_field_multiplication_exhaustive_sample() {
        let gf = Field::gf512();
        let unit = MulGf::new();
        for a in (0u16..512).step_by(7) {
            for b in (0u16..512).step_by(11) {
                assert_eq!(
                    unit.multiply(a, b, &mut NullMeter),
                    gf.mul(a, b),
                    "{a} · {b}"
                );
            }
        }
    }

    #[test]
    fn paper_example_alpha9() {
        // α⁹ = 1 + α⁴: multiply α⁸ by α.
        let unit = MulGf::new();
        let alpha8 = 1u16 << 8;
        let alpha = 0b10u16;
        assert_eq!(unit.multiply(alpha8, alpha, &mut NullMeter), 0b000010001);
    }

    #[test]
    fn costs_exactly_nine_cycles() {
        let unit = MulGf::new();
        let mut l = CycleLedger::new();
        unit.multiply(300, 450, &mut l);
        assert_eq!(l.total(), 9);
    }

    #[test]
    fn cost_is_operand_independent() {
        let unit = MulGf::new();
        let mut a = CycleLedger::new();
        unit.multiply(0, 0, &mut a);
        let mut b = CycleLedger::new();
        unit.multiply(511, 511, &mut b);
        assert_eq!(a.total(), b.total());
    }

    #[test]
    fn resources_are_small() {
        // Table III charges the 4 GF multipliers + glue at 86 LUTs total.
        let unit = MulGf::new();
        assert!(unit.resources().luts <= 25);
        assert_eq!(unit.resources().dsps, 0);
    }

    #[test]
    #[should_panic(expected = "9-bit field")]
    fn oversized_operand_rejected() {
        MulGf::new().multiply(512, 1, &mut NullMeter);
    }

    #[test]
    fn prop_matches_field() {
        prop::check("mul_gf_matches_field", 256, |rng| {
            let pair = prop::vec_u16(rng, 2, 512);
            let (a, b) = (pair[0], pair[1]);
            let gf = Field::gf512();
            prop::ensure_eq(MulGf::new().multiply(a, b, &mut NullMeter), gf.mul(a, b))
        });
    }
}
