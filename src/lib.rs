//! Umbrella crate for the LAC RISC-V HW/SW co-design reproduction.
//!
//! Re-exports every workspace crate so integration tests, examples and
//! downstream users can reach the whole system through one dependency:
//!
//! * [`lac`] — the LAC scheme (PKE, CCA KEM, backends);
//! * [`newhope`] — the NewHope CPA baseline of the paper's reference \[8\];
//! * [`lac_bch`], [`lac_gf`], [`lac_ring`], [`lac_sha256`], [`lac_keccak`]
//!   — the arithmetic and hashing substrates;
//! * [`lac_hw`] — cycle-accurate accelerator models and the area model;
//! * [`lac_rv32`] — the RV32IM(C) simulator with the PQ-ALU extension;
//! * [`lac_meter`] — the cycle-accounting framework.
//!
//! See the repository README for the quick start and `EXPERIMENTS.md` for
//! the paper-vs-measured record.

#![warn(missing_docs)]

pub use lac;
pub use lac_bch;
pub use lac_gf;
pub use lac_hw;
pub use lac_keccak;
pub use lac_meter;
pub use lac_ring;
pub use lac_rv32;
pub use lac_sha256;
pub use newhope;
