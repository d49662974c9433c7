//! Superblock compilation for the trace-cached execution engine.
//!
//! The predecode cache ([`crate::predecode`]) removed per-instruction
//! decode cost; what remains on its dispatch loop is per-instruction
//! *bookkeeping* — fuel check, counter updates, PC update, slot load —
//! paid once per retired instruction. The superblock engine removes most
//! of that too: it discovers straight-line regions ("superblocks"), each
//! ending at a control-flow or system boundary (branch, jump, CSR,
//! `ecall`, `ebreak`), compiles the region once into a flat vector of
//! [`BlockOp`]s with pre-resolved register indices, pre-folded immediates
//! and pre-summed modelled-cycle prefixes, and then executes whole blocks
//! from a PC-indexed trace cache. Fuel, cycle and instruction accounting
//! happen once per *block* on the happy path.
//!
//! Macro-op fusion folds common idioms into single ops:
//!
//! * `lui` + dependent `addi` → one constant materialisation,
//! * `auipc` + dependent load → one load from a precomputed address,
//! * load + dependent ALU op → one load-use pair,
//! * ALU op + dependent conditional branch → one compare-and-branch
//!   terminator.
//!
//! **Exactness.** The engine must be architecturally indistinguishable
//! from the decode-every-step oracle — same registers, memory, traps,
//! modelled cycles, retired-instruction counts and PQ-ALU stalls:
//!
//! * Every op records the PC of its first instruction and the prefix
//!   cycle/instruction totals of the ops before it, so a trap mid-block
//!   reconstructs the oracle's counter values and faulting PC exactly
//!   (`BlockOp::fault_point`: the oracle charges a faulting instruction
//!   its base cycle but not its load-use stall; fused pairs charge the
//!   completed first half).
//! * Costs come from the timing table in [`crate::timing`]: an op costs
//!   the sum of its instructions' [`crate::timing::static_cycles`], and a
//!   fused compare-and-branch terminator records its pair's static cycles
//!   for the taken penalty to add to.
//! * Only statically-costed instructions enter block bodies. PQ-ALU ops
//!   stay in the body but accumulate their device-reported stalls in a
//!   dynamic side counter that trap paths fold in, so stall accounting
//!   is bit-identical. CSR reads (which observe live counters) terminate
//!   blocks and execute on the shared `execute` core.
//! * Blocks record the predecode-line generations
//!   ([`crate::predecode::PredecodeCache::line_gen`]) of every line their
//!   instructions start in. A store that could rewrite any of those bytes
//!   bumps the generation (the predecode invalidation window already
//!   reaches 3 bytes back for straddling encodings), so a stale block is
//!   detected both at dispatch and *immediately after every store it
//!   executes* — self-modifying code, including a store into the
//!   currently-running block, behaves exactly as on the oracle.
//!
//! Compilation is driven by a hotness counter: a block head (entry PC
//! after a boundary) is interpreted until it has been seen
//! [`HOT_THRESHOLD`] times, then compiled and cached in a direct-mapped
//! [`SuperblockCache`]. The execution side lives in [`crate::cpu::Cpu`]
//! (`run` with [`crate::cpu::Engine::Superblock`], the default).

use crate::inst::{AluOp, BranchOp, Inst, LoadOp, PqUnit, StoreOp};
use crate::predecode::{PredecodeCache, Slot, LINE_BYTES};
use crate::timing;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Head executions before a block is compiled (the first probe counts).
/// Small enough that short-running differential tests still exercise the
/// compiled path; large enough that straight-line cold code is never
/// compiled.
pub const HOT_THRESHOLD: u32 = 4;

/// Maximum raw instructions collected into one block (body + terminator).
/// Bounds compile cost and the per-block fuel requirement; also the cap
/// on the interpreted stretch between head probes.
pub const MAX_OPS: usize = 64;

/// Default trace-cache slot count (direct-mapped, power of two).
pub const DEFAULT_SLOTS: usize = 4096;

/// Distinct predecode lines a maximal block can start instructions in:
/// `MAX_OPS` 4-byte instructions from an arbitrary even offset span at
/// most three 256-byte lines (one spare for safety).
pub(crate) const MAX_LINES: usize = 4;

pub(crate) const LINE_SHIFT: u32 = LINE_BYTES.trailing_zeros();

/// Second ALU operand of a fused op: folded immediate or register index.
#[derive(Debug, Clone, Copy)]
pub enum Src2 {
    /// Immediate (already sign-extended to 32 bits).
    Imm(u32),
    /// Register index.
    Reg(u8),
}

/// The operation kinds a block body is compiled into. Register indices
/// are pre-resolved `u8`s, immediates pre-extended, fused constants
/// pre-folded. Static modelled cost lives in the enclosing [`BlockOp`]'s
/// prefix sums; only PQ stalls are dynamic (accumulated at execution).
#[derive(Debug, Clone, Copy)]
pub enum OpKind {
    /// `lui`, or a fused `lui`+`addi` pair: `rd = value`.
    LoadImm {
        /// Destination register.
        rd: u8,
        /// Folded constant.
        value: u32,
    },
    /// `auipc` with the PC already added in.
    Auipc {
        /// Destination register.
        rd: u8,
        /// `pc + imm`, precomputed.
        value: u32,
    },
    /// Register-immediate ALU op.
    OpImm {
        /// Operation.
        op: AluOp,
        /// Destination register.
        rd: u8,
        /// Source register.
        rs1: u8,
        /// Sign-extended immediate.
        imm: u32,
    },
    /// Register-register ALU op.
    Op {
        /// Operation.
        op: AluOp,
        /// Destination register.
        rd: u8,
        /// First source register.
        rs1: u8,
        /// Second source register.
        rs2: u8,
    },
    /// Memory load.
    Load {
        /// Width/extension.
        op: LoadOp,
        /// Destination register.
        rd: u8,
        /// Base register.
        rs1: u8,
        /// Sign-extended offset.
        offset: u32,
    },
    /// Fused `auipc` + load through the `auipc` result: the absolute load
    /// address is precomputed at compile time.
    AuipcLoad {
        /// Load width/extension.
        op: LoadOp,
        /// The `auipc` destination (written even if the load faults).
        rd: u8,
        /// The load destination.
        lrd: u8,
        /// Precomputed absolute address (`pc + imm + offset`).
        addr: u32,
        /// The `auipc` result (`pc + imm`).
        value: u32,
        /// PC of the load (the faulting PC if the access traps).
        pc2: u32,
    },
    /// Fused load + dependent ALU op (classic load-use pair).
    LoadUse {
        /// Load width/extension.
        lop: LoadOp,
        /// Load destination register.
        lrd: u8,
        /// Load base register.
        lrs1: u8,
        /// Load offset (sign-extended).
        loffset: u32,
        /// Dependent ALU operation.
        aop: AluOp,
        /// ALU destination register.
        ard: u8,
        /// ALU first source register.
        ars1: u8,
        /// ALU second operand.
        asrc: Src2,
    },
    /// Memory store. Executes the predecode invalidation like any store;
    /// the engine re-validates the block's line generations right after,
    /// so a store into the running block bails out exactly.
    Store {
        /// Width.
        op: StoreOp,
        /// Base register.
        rs1: u8,
        /// Value register.
        rs2: u8,
        /// Sign-extended offset.
        offset: u32,
    },
    /// `fence` (a modelled no-op costing one cycle).
    Fence,
    /// PQ-ALU custom instruction: one static cycle plus a dynamic,
    /// device-reported stall accumulated at execution time.
    Pq {
        /// Functional unit.
        unit: PqUnit,
        /// Destination register.
        rd: u8,
        /// First source register.
        rs1: u8,
        /// Second source register.
        rs2: u8,
    },
}

/// One compiled body operation plus the prefix totals of everything
/// before it (used only on trap/bail paths; the happy path charges the
/// block totals once).
#[derive(Debug, Clone, Copy)]
pub struct BlockOp {
    /// PC of the op's first instruction.
    pub pc: u32,
    /// Static modelled cycles of body ops before this one.
    pub cycles_before: u32,
    /// Instructions retired by body ops before this one.
    pub instrs_before: u32,
    /// The operation.
    pub kind: OpKind,
}

impl BlockOp {
    /// What a memory fault inside this op adds to its prefix sums, as
    /// `(cycles, instructions, faulting pc)`: the faulting access pays its
    /// base cycle but no load-use stall, and the `auipc` half of a fused
    /// `auipc`+load has already retired.
    pub(crate) fn fault_point(&self) -> (u32, u32, u32) {
        match self.kind {
            OpKind::AuipcLoad { pc2, .. } => (2 * timing::BASE, 2, pc2),
            _ => (timing::BASE, 1, self.pc),
        }
    }
}

/// How a block ends.
#[derive(Debug, Clone, Copy)]
pub enum Terminator {
    /// Any boundary instruction (branch, jump, CSR, `ecall`, `ebreak`),
    /// executed on the shared `Cpu::execute` core so taken-branch
    /// penalties, live CSR counter reads and trap values are exact by
    /// construction.
    Plain {
        /// Decoded instruction.
        inst: Inst,
        /// Raw (decompressed) word, for trap values.
        word: u32,
        /// Encoded length in bytes.
        len: u8,
    },
    /// Fused ALU op + dependent conditional branch.
    CmpBranch {
        /// ALU operation.
        aop: AluOp,
        /// ALU destination register.
        ard: u8,
        /// ALU first source register.
        ars1: u8,
        /// ALU second operand.
        asrc: Src2,
        /// Branch comparison.
        bop: BranchOp,
        /// Branch first source register.
        brs1: u8,
        /// Branch second source register.
        brs2: u8,
        /// Branch target when taken.
        taken_pc: u32,
        /// Fall-through PC.
        fall_pc: u32,
        /// Static cycles of the pair; a taken branch adds
        /// [`crate::timing::TAKEN_BRANCH`].
        cycles: u32,
    },
    /// The block ended at [`MAX_OPS`] or just before a slot that does not
    /// hold a decodable instruction; execution resumes at `term_pc`.
    FallThrough,
}

/// A compiled superblock: pure translated code, free of any per-`Cpu`
/// validity metadata, so one `Arc<Block>` can be shared across CPUs
/// through a [`SharedTraceCache`]. The store-sensitivity metadata — which
/// predecode-line generations the installing CPU observed — lives in the
/// per-`Cpu` [`CachedBlock`] wrapper.
#[derive(Debug)]
pub struct Block {
    /// Anchor PC the block was compiled at — its dispatch head. Kept
    /// explicitly because fusion can absorb every body op into the
    /// terminator (e.g. a two-instruction `addi`+`bne` loop), leaving no
    /// op to recover the head from; the JIT bakes it into chain-link
    /// requests.
    pub head_pc: u32,
    /// Straight-line body.
    pub ops: Box<[BlockOp]>,
    /// Ending operation.
    pub term: Terminator,
    /// PC of the terminator (or the resume PC for
    /// [`Terminator::FallThrough`]).
    pub term_pc: u32,
    /// First PC past the last byte the block was compiled from (the end
    /// of the terminator's encoding, or the resume PC for
    /// [`Terminator::FallThrough`]). `[head, end_pc)` is exactly the
    /// code-byte span the compiled ops are a pure function of — the span
    /// a [`SharedTraceCache`] byte-validates on install.
    pub end_pc: u32,
    /// Total static body cycles (happy path adds once).
    pub body_cycles: u32,
    /// Total body instructions (happy path adds once).
    pub body_instrs: u32,
    /// Instructions retired by a full pass including the terminator —
    /// the fuel a dispatch requires.
    pub total_instrs: u64,
}

/// A block installed in one `Cpu`'s trace cache: the (possibly shared)
/// compiled code plus this CPU's `(line, generation)` validity pairs.
/// Any store that could rewrite the block's code bytes bumps one of the
/// generations, marking the entry stale; the engine checks at dispatch
/// and immediately after every store the block executes.
#[derive(Debug)]
pub struct CachedBlock {
    /// The compiled code (shareable across CPUs).
    pub block: Arc<Block>,
    /// `(line, generation)` pairs covering every byte of the block's code
    /// span, recorded against the installing CPU's predecode cache.
    lines: [(u32, u64); MAX_LINES],
    line_count: u8,
    /// Host code emitted for `block` by the JIT tier, if any. Rides along
    /// through clones (so warm snapshots keep their translations) but is
    /// only consulted when the CPU runs [`crate::cpu::Engine::Jit`].
    jit: Option<Arc<crate::jit::JitCode>>,
    /// This CPU's chain node for the block (successor link slots). Never
    /// cloned: link targets are process-local host addresses registered
    /// with one CPU's [`crate::jit::ChainRegistry`], so a snapshot or
    /// warm-image clone starts unlinked and re-links on its own CPU.
    chain: Option<Arc<crate::jit::ChainNode>>,
}

impl Clone for CachedBlock {
    fn clone(&self) -> Self {
        Self {
            block: Arc::clone(&self.block),
            lines: self.lines,
            line_count: self.line_count,
            jit: self.jit.clone(),
            chain: None,
        }
    }
}

impl CachedBlock {
    /// Wrap `block` with the `(line, generation)` pairs the installing
    /// CPU observed.
    pub(crate) fn from_lines(block: Arc<Block>, lines: &[(u32, u64)]) -> Self {
        assert!(
            lines.len() <= MAX_LINES,
            "block spans more lines than MAX_LINES"
        );
        let mut arr = [(0u32, 0u64); MAX_LINES];
        arr[..lines.len()].copy_from_slice(lines);
        Self {
            block,
            lines: arr,
            line_count: lines.len() as u8,
            jit: None,
            chain: None,
        }
    }

    /// Whether every predecode line this entry was validated against still
    /// has the generation observed at install time.
    #[inline]
    pub fn lines_current(&self, cache: &PredecodeCache) -> bool {
        self.lines[..usize::from(self.line_count)]
            .iter()
            .all(|&(line, gen)| cache.line_gen(line as usize) == gen)
    }

    /// The entry's `(line, generation)` validity pairs (handed to emitted
    /// code so post-store re-validation sees exactly what dispatch saw).
    #[inline]
    pub(crate) fn lines(&self) -> &[(u32, u64)] {
        &self.lines[..usize::from(self.line_count)]
    }

    /// The host code emitted for this block, if any.
    #[inline]
    pub(crate) fn jit_code(&self) -> Option<&Arc<crate::jit::JitCode>> {
        self.jit.as_ref()
    }

    /// Attach emitted host code to this entry.
    #[inline]
    pub(crate) fn set_jit(&mut self, code: Arc<crate::jit::JitCode>) {
        self.jit = Some(code);
    }

    /// This CPU's chain node for the block, if one was created.
    #[inline]
    pub(crate) fn chain_node(&self) -> Option<&Arc<crate::jit::ChainNode>> {
        self.chain.as_ref()
    }

    /// Attach this CPU's chain node.
    #[inline]
    pub(crate) fn set_chain(&mut self, node: Arc<crate::jit::ChainNode>) {
        self.chain = Some(node);
    }
}

/// Lifetime counters of the superblock engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SuperblockStats {
    /// Blocks compiled (including recompiles of stale heads).
    pub compiles: u64,
    /// Whole-block executions dispatched from the trace cache.
    pub dispatches: u64,
    /// Blocks dropped at dispatch because a line generation moved.
    pub stale_drops: u64,
    /// Mid-block bail-outs after a store invalidated the running block.
    pub store_bails: u64,
    /// Blocks adopted from a [`SharedTraceCache`] instead of compiled
    /// locally.
    pub shared_installs: u64,
    /// Locally-compiled blocks newly published to a [`SharedTraceCache`].
    pub shared_publishes: u64,
}

/// One direct-mapped trace-cache entry.
#[derive(Debug)]
pub struct BlockSlot {
    /// Head PC this entry tracks (`u32::MAX` = empty; heads are even).
    pub tag: u32,
    /// Times the head was probed without a cached block.
    pub heat: u32,
    /// The compiled block, once hot. Boxed so the dispatch loop's
    /// take/put-back is one pointer move, not a by-value copy of the
    /// entry (measurably hot: one take+put per block dispatch).
    pub block: Option<Box<CachedBlock>>,
}

/// One snapshotted trace-cache slot (see [`crate::warm::WarmImage`]).
#[derive(Debug, Clone)]
pub(crate) struct SlotImage {
    pub(crate) index: u32,
    pub(crate) tag: u32,
    pub(crate) heat: u32,
    pub(crate) block: Option<CachedBlock>,
}

/// The PC-indexed trace cache plus engine counters.
#[derive(Debug)]
pub struct SuperblockCache {
    slots: Vec<BlockSlot>,
    mask: usize,
    /// Engine lifetime counters.
    pub stats: SuperblockStats,
}

impl SuperblockCache {
    /// An empty trace cache with [`DEFAULT_SLOTS`] slots.
    pub fn new() -> Self {
        Self::with_slots(DEFAULT_SLOTS)
    }

    /// An empty trace cache with an explicit capacity, clamped to
    /// `[16, 1 << 20]` and rounded up to a power of two (the direct-mapped
    /// index is a mask). Capacity only moves the hot/conflict trade-off —
    /// it is never architecturally visible.
    pub fn with_slots(slots: usize) -> Self {
        let count = slots.clamp(16, 1 << 20).next_power_of_two();
        let mut slots = Vec::with_capacity(count);
        for _ in 0..count {
            slots.push(BlockSlot {
                tag: u32::MAX,
                heat: 0,
                block: None,
            });
        }
        Self {
            slots,
            mask: count - 1,
            stats: SuperblockStats::default(),
        }
    }

    /// The direct-mapped capacity of this cache.
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// Direct-mapped slot index for head `pc` (even).
    #[inline]
    pub fn index(&self, pc: u32) -> usize {
        (pc >> 1) as usize & self.mask
    }

    /// The slot at `index`.
    #[inline]
    pub fn slot_mut(&mut self, index: usize) -> &mut BlockSlot {
        &mut self.slots[index]
    }

    /// Clear every slot back to empty (tags, heat and blocks).
    pub(crate) fn reset(&mut self) {
        for slot in &mut self.slots {
            slot.tag = u32::MAX;
            slot.heat = 0;
            slot.block = None;
        }
    }

    /// Sparse snapshot of the occupied slots (blocks are `Arc`-shared, so
    /// this copies metadata, not compiled code).
    pub(crate) fn snapshot_slots(&self) -> Vec<SlotImage> {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, slot)| slot.tag != u32::MAX)
            .map(|(index, slot)| SlotImage {
                index: index as u32,
                tag: slot.tag,
                heat: slot.heat,
                block: slot.block.as_deref().cloned(),
            })
            .collect()
    }

    /// Restore a snapshot taken by [`SuperblockCache::snapshot_slots`],
    /// rebuilding the slot table if the capacity differs.
    pub(crate) fn restore_slots(
        &mut self,
        slot_count: usize,
        images: &[SlotImage],
        stats: SuperblockStats,
    ) {
        if self.slots.len() != slot_count {
            *self = Self::with_slots(slot_count);
        } else {
            self.reset();
        }
        for image in images {
            self.slots[image.index as usize] = BlockSlot {
                tag: image.tag,
                heat: image.heat,
                block: image.block.clone().map(Box::new),
            };
        }
        self.stats = stats;
    }
}

/// Distinct code versions remembered per head PC in a
/// [`SharedTraceCache`] (self-modifying heads cycle through versions; an
/// unbounded list would leak under adversarial rewriting).
const SHARED_VERSIONS_PER_HEAD: usize = 4;

#[derive(Debug)]
struct SharedEntry {
    /// The exact code bytes (`[head, end_pc)`) the block was compiled
    /// from, captured from the publishing CPU's RAM.
    code: Box<[u8]>,
    block: Arc<Block>,
}

/// Point-in-time counters of a [`SharedTraceCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SharedTraceStats {
    /// Lookups that found a byte-identical block to install.
    pub installs: u64,
    /// Lookups that found no matching entry.
    pub misses: u64,
    /// Blocks published (distinct `(head, code)` versions stored).
    pub publishes: u64,
    /// Entries currently held.
    pub blocks: u64,
}

/// A process-wide pool of compiled superblocks, shared across CPUs behind
/// an `Arc` so the first thread to compile a hot region pays for it once.
///
/// **Exactness.** A shared entry records the exact code bytes its block
/// was compiled from. Installing into another CPU byte-compares that span
/// against the installer's RAM — decode is a pure function of those
/// bytes, so equality re-derives the identical block — and then records
/// the installer's *own* predecode `(line, generation)` pairs in the
/// per-CPU [`CachedBlock`], so dispatch-time and post-store generation
/// validation work exactly as for locally-compiled blocks. Self-modifying
/// code therefore stays bit-identical: a stale shared block either fails
/// the byte compare at install or trips the generation check afterwards.
#[derive(Debug, Default)]
pub struct SharedTraceCache {
    map: Mutex<HashMap<u32, Vec<SharedEntry>>>,
    installs: AtomicU64,
    misses: AtomicU64,
    publishes: AtomicU64,
    /// Emitted host code keyed by `Arc<Block>` identity, so fleet workers
    /// adopting a shared block also adopt its translation (zero local JIT
    /// compiles on warm workers).
    jit: crate::jit::SharedJitPool,
}

impl SharedTraceCache {
    /// An empty shared cache (wrap in an `Arc` to attach to CPUs).
    pub fn new() -> Self {
        Self::default()
    }

    /// Point-in-time counters.
    pub fn stats(&self) -> SharedTraceStats {
        let blocks = self
            .map
            .lock()
            .expect("shared trace cache poisoned")
            .values()
            .map(|v| v.len() as u64)
            .sum();
        SharedTraceStats {
            installs: self.installs.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            publishes: self.publishes.load(Ordering::Relaxed),
            blocks,
        }
    }

    /// Find a published block for head `pc` whose recorded code bytes
    /// equal `ram` at that address (see the type docs for why byte
    /// equality is sufficient).
    pub(crate) fn lookup(&self, pc: u32, ram: &[u8]) -> Option<Arc<Block>> {
        let map = self.map.lock().expect("shared trace cache poisoned");
        if let Some(entries) = map.get(&pc) {
            for entry in entries {
                let span = ram.get(pc as usize..pc as usize + entry.code.len());
                if span == Some(&entry.code[..]) {
                    self.installs.fetch_add(1, Ordering::Relaxed);
                    return Some(Arc::clone(&entry.block));
                }
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Publish a locally-compiled block and the code bytes it depends on.
    /// Returns `true` if stored (`false` when an identical version is
    /// already present).
    pub(crate) fn publish(&self, pc: u32, code: &[u8], block: &Arc<Block>) -> bool {
        let mut map = self.map.lock().expect("shared trace cache poisoned");
        let entries = map.entry(pc).or_default();
        if entries.iter().any(|e| *e.code == *code) {
            return false;
        }
        if entries.len() >= SHARED_VERSIONS_PER_HEAD {
            entries.remove(0); // oldest version first
        }
        entries.push(SharedEntry {
            code: code.into(),
            block: Arc::clone(block),
        });
        self.publishes.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Adopt the pooled JIT translation for `block`, if one was published.
    pub(crate) fn jit_lookup(&self, block: &Arc<Block>) -> Option<Arc<crate::jit::JitCode>> {
        self.jit.lookup(block)
    }

    /// Publish emitted host code for `block` (keyed by `Arc` identity).
    pub(crate) fn jit_publish(&self, block: &Arc<Block>, code: &Arc<crate::jit::JitCode>) -> bool {
        self.jit.publish(block, code)
    }

    /// Point-in-time counters of the embedded JIT code pool.
    pub fn jit_stats(&self) -> crate::jit::SharedJitStats {
        self.jit.stats()
    }
}

impl Default for SuperblockCache {
    fn default() -> Self {
        Self::new()
    }
}

/// Whether `inst` ends a superblock: control flow (whose successor PC is
/// dynamic), CSR accesses (which must observe live counters on the shared
/// execute core) and the system instructions. Everything else — including
/// PQ-ALU ops, whose stalls are accounted dynamically — can sit in a
/// block body.
#[inline]
pub fn ends_block(inst: &Inst) -> bool {
    matches!(
        inst,
        Inst::Branch { .. }
            | Inst::Jal { .. }
            | Inst::Jalr { .. }
            | Inst::Csr { .. }
            | Inst::Ecall
            | Inst::Ebreak
    )
}

/// One raw instruction collected before fusion.
struct Raw {
    pc: u32,
    inst: Inst,
    word: u32,
    len: u8,
}

/// Compile the superblock anchored at `anchor` (an even PC), predecoding
/// lines through `cache` as needed. Returns `None` when the anchor slot
/// does not hold a decodable instruction (the interpreter will raise the
/// exact trap instead). The returned [`CachedBlock`] carries the
/// compiling CPU's `(line, generation)` validity pairs.
pub fn compile(cache: &mut PredecodeCache, ram: &[u8], anchor: u32) -> Option<CachedBlock> {
    debug_assert_eq!(anchor & 1, 0, "block heads are halfword-aligned");

    // Pass 1: collect the straight-line region.
    let mut raws: Vec<Raw> = Vec::new();
    let mut term: Option<Raw> = None;
    let mut pc = anchor;
    while raws.len() < MAX_OPS {
        match cache.lookup(ram, pc) {
            Slot::Trap(_) => break, // raised only if the PC gets here
            Slot::Empty => unreachable!("lookup never returns Empty"),
            Slot::Inst { inst, word, len } => {
                let raw = Raw {
                    pc,
                    inst,
                    word,
                    len,
                };
                if ends_block(&inst) {
                    term = Some(raw);
                    break;
                }
                pc = pc.wrapping_add(u32::from(len));
                raws.push(raw);
            }
        }
    }
    if raws.is_empty() && term.is_none() {
        return None;
    }
    let term_pc = term.as_ref().map_or(pc, |t| t.pc);
    // First PC past the last code byte the block depends on: every
    // instruction's encoding lies inside `[anchor, end_pc)`.
    let end_pc = term
        .as_ref()
        .map_or(pc, |t| t.pc.wrapping_add(u32::from(t.len)));

    // Record the lines instructions start in, before fusion loses PCs.
    let mut lines = [(0u32, 0u64); MAX_LINES];
    let mut line_count = 0u8;
    {
        let mut note = |pc: u32| {
            let line = pc >> LINE_SHIFT;
            let seen = lines[..usize::from(line_count)]
                .iter()
                .any(|&(l, _)| l == line);
            if !seen {
                assert!(
                    usize::from(line_count) < MAX_LINES,
                    "block spans more lines than MAX_LINES"
                );
                lines[usize::from(line_count)] = (line, cache.line_gen(line as usize));
                line_count += 1;
            }
        };
        for raw in &raws {
            note(raw.pc);
        }
        if let Some(t) = &term {
            note(t.pc);
        }
    }

    // Pass 2: fuse and lay out the body with prefix cost sums.
    let mut ops: Vec<BlockOp> = Vec::with_capacity(raws.len());
    let mut cycles: u32 = 0;
    let mut instrs: u32 = 0;
    let mut i = 0;
    while i < raws.len() {
        let raw = &raws[i];
        let (kind, consumed) = fuse(raw, raws.get(i + 1));
        ops.push(BlockOp {
            pc: raw.pc,
            cycles_before: cycles,
            instrs_before: instrs,
            kind,
        });
        for fused in &raws[i..i + consumed] {
            cycles += timing::static_cycles(&fused.inst);
        }
        instrs += consumed as u32;
        i += consumed;
    }

    // Terminator, possibly fusing the last plain ALU op into the branch.
    let mut term_instrs: u64 = 0;
    let terminator = match term {
        None => Terminator::FallThrough,
        Some(t) => {
            term_instrs = 1;
            // The last op is the one the branch would fuse with; its cost
            // is whatever it added to the totals.
            let last_cycles = ops.last().map_or(0, |op| cycles - op.cycles_before);
            let fused = fuse_cmp_branch(&t, ops.last(), last_cycles);
            match fused {
                Some(cmp) => {
                    // The ALU op moved into the terminator: un-count it.
                    let popped = ops.pop().expect("fuse_cmp_branch requires a last op");
                    cycles = popped.cycles_before;
                    instrs = popped.instrs_before;
                    term_instrs = 2;
                    cmp
                }
                None => Terminator::Plain {
                    inst: t.inst,
                    word: t.word,
                    len: t.len,
                },
            }
        }
    };

    let block = Arc::new(Block {
        head_pc: anchor,
        ops: ops.into_boxed_slice(),
        term: terminator,
        term_pc,
        end_pc,
        body_cycles: cycles,
        body_instrs: instrs,
        total_instrs: u64::from(instrs) + term_instrs,
    });
    Some(CachedBlock::from_lines(
        block,
        &lines[..usize::from(line_count)],
    ))
}

/// Map one raw instruction (peeking at its successor for fusion) to an
/// [`OpKind`] plus the number of raw instructions it consumed.
fn fuse(raw: &Raw, next: Option<&Raw>) -> (OpKind, usize) {
    match raw.inst {
        Inst::Lui { rd, imm } => {
            // lui rd, hi ; addi rd, rd, lo  →  rd = hi + lo (folded).
            // Requires rd != x0: `lui x0` discards, so the addi would read
            // a real zero, not the immediate.
            if rd != 0 {
                if let Some(n) = next {
                    if let Inst::OpImm {
                        op: AluOp::Add,
                        rd: ard,
                        rs1,
                        imm: aimm,
                    } = n.inst
                    {
                        if rs1 == rd && ard == rd {
                            let value = (imm as u32).wrapping_add(aimm as u32);
                            return (OpKind::LoadImm { rd, value }, 2);
                        }
                    }
                }
            }
            let value = imm as u32;
            (OpKind::LoadImm { rd, value }, 1)
        }
        Inst::Auipc { rd, imm } => {
            let value = raw.pc.wrapping_add(imm as u32);
            // auipc rd, hi ; load lrd, off(rd)  →  load from a constant
            // address. Same rd != x0 caveat as lui+addi.
            if rd != 0 {
                if let Some(n) = next {
                    if let Inst::Load {
                        op,
                        rd: lrd,
                        rs1,
                        offset,
                    } = n.inst
                    {
                        if rs1 == rd {
                            let kind = OpKind::AuipcLoad {
                                op,
                                rd,
                                lrd,
                                addr: value.wrapping_add(offset as u32),
                                value,
                                pc2: n.pc,
                            };
                            return (kind, 2);
                        }
                    }
                }
            }
            (OpKind::Auipc { rd, value }, 1)
        }
        Inst::Load {
            op,
            rd,
            rs1,
            offset,
        } => {
            // Load + an ALU op consuming the loaded register.
            if rd != 0 {
                if let Some(n) = next {
                    match n.inst {
                        Inst::OpImm {
                            op: aop,
                            rd: ard,
                            rs1: ars1,
                            imm,
                        } if ars1 == rd => {
                            let kind = OpKind::LoadUse {
                                lop: op,
                                lrd: rd,
                                lrs1: rs1,
                                loffset: offset as u32,
                                aop,
                                ard,
                                ars1,
                                asrc: Src2::Imm(imm as u32),
                            };
                            return (kind, 2);
                        }
                        Inst::Op {
                            op: aop,
                            rd: ard,
                            rs1: ars1,
                            rs2: ars2,
                        } if ars1 == rd || ars2 == rd => {
                            let kind = OpKind::LoadUse {
                                lop: op,
                                lrd: rd,
                                lrs1: rs1,
                                loffset: offset as u32,
                                aop,
                                ard,
                                ars1,
                                asrc: Src2::Reg(ars2),
                            };
                            return (kind, 2);
                        }
                        _ => {}
                    }
                }
            }
            (
                OpKind::Load {
                    op,
                    rd,
                    rs1,
                    offset: offset as u32,
                },
                1,
            )
        }
        Inst::Store {
            op,
            rs1,
            rs2,
            offset,
        } => (
            OpKind::Store {
                op,
                rs1,
                rs2,
                offset: offset as u32,
            },
            1,
        ),
        Inst::OpImm { op, rd, rs1, imm } => {
            let imm = imm as u32;
            (OpKind::OpImm { op, rd, rs1, imm }, 1)
        }
        Inst::Op { op, rd, rs1, rs2 } => (OpKind::Op { op, rd, rs1, rs2 }, 1),
        Inst::Fence => (OpKind::Fence, 1),
        // The device stall is added dynamically.
        Inst::Pq { unit, rd, rs1, rs2 } => (OpKind::Pq { unit, rd, rs1, rs2 }, 1),
        Inst::Branch { .. }
        | Inst::Jal { .. }
        | Inst::Jalr { .. }
        | Inst::Csr { .. }
        | Inst::Ecall
        | Inst::Ebreak => unreachable!("boundary instructions never enter a block body"),
    }
}

/// Try to fuse the last body op (a plain ALU op whose result the branch
/// compares, costing `last_cycles`) into the branch terminator.
fn fuse_cmp_branch(term: &Raw, last: Option<&BlockOp>, last_cycles: u32) -> Option<Terminator> {
    let Inst::Branch {
        op: bop,
        rs1: brs1,
        rs2: brs2,
        offset,
    } = term.inst
    else {
        return None;
    };
    let last = last?;
    let (aop, ard, ars1, asrc) = match last.kind {
        OpKind::OpImm { op, rd, rs1, imm } => (op, rd, rs1, Src2::Imm(imm)),
        OpKind::Op { op, rd, rs1, rs2 } => (op, rd, rs1, Src2::Reg(rs2)),
        _ => return None,
    };
    // The idiom: the branch reads the value the ALU just produced.
    if brs1 != ard && brs2 != ard {
        return None;
    }
    Some(Terminator::CmpBranch {
        aop,
        ard,
        ars1,
        asrc,
        bop,
        brs1,
        brs2,
        taken_pc: term.pc.wrapping_add(offset as u32),
        fall_pc: term.pc.wrapping_add(u32::from(term.len)),
        cycles: last_cycles + timing::static_cycles(&term.inst),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;

    fn setup(src: &str) -> (PredecodeCache, Vec<u8>) {
        let words = assemble(src).expect("test program assembles");
        let mut ram = vec![0u8; 1 << 16];
        for (i, w) in words.iter().enumerate() {
            ram[4 * i..4 * i + 4].copy_from_slice(&w.to_le_bytes());
        }
        (PredecodeCache::new(ram.len()), ram)
    }

    #[test]
    fn li_fuses_to_one_constant() {
        // `li` with a large constant expands to lui+addi.
        let (mut cache, ram) = setup("li t0, 0x12345\nnop\necall");
        let block = compile(&mut cache, &ram, 0).unwrap().block;
        assert!(matches!(
            block.ops[0].kind,
            OpKind::LoadImm { value: 0x12345, .. }
        ));
        assert_eq!(block.body_instrs, 3, "lui+addi fused + nop");
        assert!(matches!(block.term, Terminator::Plain { .. })); // ecall
        assert_eq!(block.total_instrs, 4);
    }

    #[test]
    fn cmp_branch_fuses_the_trailing_alu_op() {
        let (mut cache, ram) = setup(
            "loop: addi t0, t0, -1
bnez t0, loop
ecall",
        );
        let block = compile(&mut cache, &ram, 0).unwrap().block;
        assert!(block.ops.is_empty(), "the addi moved into the terminator");
        match block.term {
            Terminator::CmpBranch {
                taken_pc, fall_pc, ..
            } => {
                assert_eq!(taken_pc, 0);
                assert_eq!(fall_pc, 8);
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(block.total_instrs, 2);
    }

    #[test]
    fn load_use_pair_fuses() {
        let (mut cache, ram) = setup(
            "lbu t0, 0(t1)
addi t0, t0, 5
sw t0, 4(t1)
jal zero, 0",
        );
        let block = compile(&mut cache, &ram, 0).unwrap().block;
        assert!(matches!(block.ops[0].kind, OpKind::LoadUse { .. }));
        assert!(matches!(block.ops[1].kind, OpKind::Store { .. }));
        assert!(matches!(
            block.term,
            Terminator::Plain {
                inst: Inst::Jal { .. },
                ..
            }
        ));
        // lbu(2) + addi(1) + sw(1) static body cycles.
        assert_eq!(block.body_cycles, 4);
        assert_eq!(block.total_instrs, 4);
    }

    #[test]
    fn pq_ops_stay_in_the_body() {
        let (mut cache, ram) = setup(
            "pq.modq t0, t1, t2
addi t0, t0, 1
ecall",
        );
        let block = compile(&mut cache, &ram, 0).unwrap().block;
        assert!(matches!(block.ops[0].kind, OpKind::Pq { .. }));
        assert_eq!(block.body_instrs, 2);
    }

    #[test]
    fn block_ends_before_an_undecodable_slot() {
        let (mut cache, mut ram) = setup("addi t0, t0, 1\naddi t0, t0, 2");
        ram[8..12].copy_from_slice(&0xffff_ffffu32.to_le_bytes());
        let block = compile(&mut cache, &ram, 0).unwrap().block;
        assert_eq!(block.ops.len(), 2);
        assert!(matches!(block.term, Terminator::FallThrough));
        assert_eq!(block.term_pc, 8, "trap raised by the interpreter at 8");
        // A head sitting directly on the bad slot does not compile.
        assert!(compile(&mut cache, &ram, 8).is_none());
    }

    #[test]
    fn store_invalidation_marks_the_block_stale() {
        let (mut cache, ram) = setup("addi t0, t0, 1\necall");
        let cached = compile(&mut cache, &ram, 0).unwrap();
        assert!(cached.lines_current(&cache));
        cache.invalidate(4, 1); // overwrites the ecall
        assert!(!cached.lines_current(&cache));
    }

    #[test]
    fn distant_stores_leave_the_block_current() {
        let (mut cache, ram) = setup("addi t0, t0, 1\necall");
        let cached = compile(&mut cache, &ram, 0).unwrap();
        cache.invalidate(0x8000, 4); // data line, never predecoded
        assert!(cached.lines_current(&cache));
    }

    #[test]
    fn cap_bounds_block_length() {
        let body = "addi t0, t0, 1\n".repeat(MAX_OPS * 2);
        let (mut cache, ram) = setup(&format!("{body}ecall"));
        let block = compile(&mut cache, &ram, 0).unwrap().block;
        assert_eq!(block.ops.len(), MAX_OPS);
        assert!(matches!(block.term, Terminator::FallThrough));
        assert_eq!(block.term_pc, 4 * MAX_OPS as u32);
        assert_eq!(block.total_instrs, MAX_OPS as u64);
    }

    #[test]
    fn lui_to_x0_does_not_fold_the_addi() {
        // `lui x0` discards; the addi reads a real zero.
        let (mut cache, ram) = setup("lui x0, 0x12\naddi x0, x0, 3\necall");
        let block = compile(&mut cache, &ram, 0).unwrap().block;
        assert_eq!(block.body_instrs, 2, "no fusion");
        assert!(matches!(block.ops[0].kind, OpKind::LoadImm { rd: 0, .. }));
    }

    #[test]
    fn end_pc_covers_the_terminator_encoding() {
        let (mut cache, ram) = setup("addi t0, t0, 1\nnop\necall");
        let block = compile(&mut cache, &ram, 0).unwrap().block;
        assert_eq!(block.term_pc, 8);
        assert_eq!(block.end_pc, 12, "ecall's 4 encoding bytes included");

        // FallThrough: end_pc is the resume PC (first byte past the body).
        let (mut cache, mut ram) = setup("addi t0, t0, 1\naddi t0, t0, 2");
        ram[8..12].copy_from_slice(&0xffff_ffffu32.to_le_bytes());
        let block = compile(&mut cache, &ram, 0).unwrap().block;
        assert_eq!(block.end_pc, block.term_pc);
    }

    #[test]
    fn with_slots_sizes_the_direct_map() {
        let cache = SuperblockCache::with_slots(64);
        assert_eq!(cache.slot_count(), 64);
        // Two PCs that collide under 64 slots but not under the default.
        assert_eq!(cache.index(0), cache.index(128));
        let big = SuperblockCache::with_slots(DEFAULT_SLOTS);
        assert_ne!(big.index(0), big.index(128));
    }

    #[test]
    fn shared_cache_validates_code_bytes_on_lookup() {
        let (mut cache, mut ram) = setup("addi t0, t0, 1\necall");
        let cached = compile(&mut cache, &ram, 0).unwrap();
        let block = &cached.block;
        let code = ram[..block.end_pc as usize].to_vec();

        let shared = SharedTraceCache::new();
        assert!(shared.publish(0, &code, block));
        assert!(!shared.publish(0, &code, block), "identical version dedups");

        // Matching bytes → install; the returned Arc is the same block.
        let hit = shared.lookup(0, &ram).expect("bytes match");
        assert!(Arc::ptr_eq(&hit, block));

        // Rewrite one code byte → the byte compare rejects the entry.
        ram[0] ^= 0xff;
        assert!(shared.lookup(0, &ram).is_none());

        let stats = shared.stats();
        assert_eq!(stats.publishes, 1);
        assert_eq!(stats.installs, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.blocks, 1);
    }

    #[test]
    fn shared_cache_bounds_versions_per_head() {
        let (mut cache, ram) = setup("addi t0, t0, 1\necall");
        let cached = compile(&mut cache, &ram, 0).unwrap();
        let shared = SharedTraceCache::new();
        for v in 0..2 * SHARED_VERSIONS_PER_HEAD as u8 {
            assert!(shared.publish(0, &[v], &cached.block));
        }
        assert_eq!(
            shared.stats().blocks,
            SHARED_VERSIONS_PER_HEAD as u64,
            "oldest versions evicted"
        );
    }

    #[test]
    fn snapshot_restore_round_trips_slots() {
        let (mut pre, ram) = setup("addi t0, t0, 1\necall");
        let cached = compile(&mut pre, &ram, 0).unwrap();
        let mut cache = SuperblockCache::with_slots(64);
        let idx = cache.index(0);
        let slot = cache.slot_mut(idx);
        slot.tag = 0;
        slot.heat = HOT_THRESHOLD;
        slot.block = Some(Box::new(cached));
        cache.stats.compiles = 1;

        let images = cache.snapshot_slots();
        assert_eq!(images.len(), 1);
        let stats = cache.stats;

        let mut other = SuperblockCache::with_slots(16);
        other.restore_slots(64, &images, stats);
        assert_eq!(other.slot_count(), 64, "capacity follows the snapshot");
        let restored = other.slot_mut(idx);
        assert_eq!(restored.tag, 0);
        assert!(restored.block.is_some());
        assert_eq!(other.stats.compiles, 1);
    }
}
