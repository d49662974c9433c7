//! Cycle-accurate models of the paper's PQ-ALU hardware accelerators.
//!
//! The DATE 2020 paper integrates four accelerators into the execution stage
//! of a RISCY core (Fig. 5):
//!
//! * [`MulTer`] — the systolic ternary polynomial multiplier (Fig. 2), a
//!   length-n array of Modular Arithmetic Units supporting both wrapped
//!   convolutions;
//! * [`MulGf`] — the bit-serial GF(2⁹) shift-and-add multiplier (Fig. 3);
//! * [`ChienUnit`] — MUL CHIEN, four GF multipliers with an adder tree and
//!   feedback loop evaluating the error-locator polynomial four terms at a
//!   time (Fig. 4 / Eq. 4); the model charges the unit's protocol and takes
//!   its values from `lac_bch::kernel::chien`;
//! * [`Sha256Unit`] — a SHA-256 round engine with byte-wise register I/O;
//! * [`ModQ`] — the combinational Barrett modulo-q reducer (two DSPs).
//!
//! Each model produces bit-exact results and **counts the cycles** the unit
//! and its software driver consume, including the register-packing I/O
//! formats of Section V. [`MulGf`] and `MulTer::multiply_rtl` step the
//! documented datapaths; `MulTer::multiply` and [`ChienUnit`] take their
//! values from the one host kernel of their function
//! (`lac_ring::mul::ternary_product`, `lac_bch::kernel::chien`) and charge
//! the unit's cycles in closed form. Each model also reports a structural
//! [`area::ResourceEstimate`] used to regenerate Table III.
//!
//! Since we have no FPGA, these models are the substitute substrate: the
//! paper's claims under reproduction are cycle counts and resource ratios,
//! both of which the models expose deterministically.

#![warn(missing_docs)]

pub mod area;
pub mod chien;
pub mod keccak_unit;
pub mod mod_q;
pub mod mul_gf;
pub mod mul_ter;
pub mod sha256_unit;

pub use area::ResourceEstimate;
pub use chien::ChienUnit;
pub use keccak_unit::KeccakUnit;
pub use mod_q::ModQ;
pub use mul_gf::MulGf;
pub use mul_ter::MulTer;
pub use sha256_unit::Sha256Unit;
