//! Warm-start images: snapshot a fully-warmed machine once, then stamp
//! out cheap copies of it for every sweep cell or serve job.
//!
//! A cold `Cpu` pays three setup costs before its first useful retired
//! instruction: zeroing and loading RAM, refilling predecode lines, and
//! re-compiling the hot superblocks its siblings already compiled. A
//! [`WarmImage`] captures all three — the architectural state (registers,
//! PC, counters, PQ-ALU device), the RAM bytes, the predecoded lines with
//! their generation counters, and the compiled trace-cache slots — behind
//! one `Arc`, so cloning an image is a pointer copy and restoring into an
//! existing `Cpu` is a RAM `memcpy` plus sparse cache copies.
//!
//! **Exactness.** Restore replaces RAM, the predecode table (including
//! every per-line generation counter) and every superblock slot as one
//! operation, so the restored machine is indistinguishable from the one
//! that was snapshotted: generation counters rewind *together with* the
//! derived blocks keyed on them, so no stale block can survive to observe
//! a rewound generation. The warm-start property tests in
//! `tests/riscv_warmstart.rs` check bit-identical digests against cold
//! runs, including after stores that invalidate snapshotted superblocks.
//!
//! The per-`Cpu` [`crate::SharedTraceCache`] attachment is deliberately
//! *not* part of the image: which process-wide cache a CPU publishes to
//! is a harness decision, orthogonal to the machine state.
//!
//! JIT **chain links** are likewise never captured: link slots hold raw
//! host-code addresses inside one process's executable mappings, so an
//! image carrying them could chain a restored CPU into unmapped (or
//! wrong) memory. [`crate::Cpu::restore`] clears the chain registry and
//! any pending link instead; restored blocks re-link lazily on their
//! first hot dispatches, which costs one dispatch-loop round trip per
//! edge and nothing architectural.

use crate::cpu::Engine;
use crate::pq::PqAlu;
use crate::predecode::PredecodeImage;
use crate::superblock::{SlotImage, SuperblockStats};
use std::sync::Arc;

/// A cheaply-cloneable snapshot of a `Cpu` (see the module docs). Create
/// one with [`crate::Cpu::snapshot`]; consume it with
/// [`crate::Cpu::restore`] or [`crate::Cpu::from_image`].
#[derive(Debug, Clone)]
pub struct WarmImage {
    pub(crate) state: Arc<WarmState>,
}

/// The owned snapshot payload behind a [`WarmImage`]'s `Arc`.
#[derive(Debug)]
pub(crate) struct WarmState {
    pub(crate) regs: [u32; 32],
    pub(crate) pc: u32,
    pub(crate) cycles: u64,
    pub(crate) instructions: u64,
    pub(crate) mscratch: u32,
    pub(crate) pq: PqAlu,
    pub(crate) ram: Vec<u8>,
    pub(crate) engine: Engine,
    pub(crate) pre: PredecodeImage,
    pub(crate) sb_slot_count: usize,
    pub(crate) sb_slots: Vec<SlotImage>,
    pub(crate) sb_stats: SuperblockStats,
}

impl WarmImage {
    /// Bytes of simulated RAM the image holds.
    pub fn ram_bytes(&self) -> usize {
        self.state.ram.len()
    }

    /// Compiled superblocks captured in the trace-cache snapshot.
    pub fn cached_blocks(&self) -> usize {
        self.state
            .sb_slots
            .iter()
            .filter(|s| s.block.is_some())
            .count()
    }
}
