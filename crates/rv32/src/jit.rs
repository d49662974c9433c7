//! Dynamic binary translation of superblocks to host machine code.
//!
//! The fourth engine tier ([`crate::cpu::Engine::Jit`]): already-compiled
//! [`crate::superblock::Block`]s — pre-resolved register indices, pre-folded
//! immediates, pre-summed cycle/instruction prefixes — are lowered once to
//! host x86-64 machine code in an mmap'd W^X exec buffer and entered through
//! a compact `JitCtx` context struct. Everything architectural stays in
//! Rust: the dispatch loop (hotness, fuel, generation validation at block
//! entry), trap reconstruction from the block's prefix sums, and the
//! terminator fallback for CSR/`ecall`/`ebreak` all reuse the superblock
//! engine's machinery, so the JIT is bit-identical to the three interpreter
//! tiers by construction.
//!
//! # Entry/exit protocol
//!
//! Emitted code is one function per block, `extern "C" fn(*mut JitCtx) ->
//! u32`. The context holds raw pointers into the owning
//! [`crate::cpu::Cpu`] (register file, RAM, PQ-ALU device, predecode
//! cache) plus the dispatched block's `(line, generation)` validity pairs;
//! guest registers are mutated in place, exactly as the interpreter would.
//! Retired cycle/instruction totals are committed *in host code*: every
//! fully-retired block adds its prefix-sum totals (plus the terminator's
//! cycles from [`crate::timing`] and any dynamic PQ stalls) to `ctx.cycles` /
//! `ctx.instructions` before leaving, so the counters are already exact
//! when control returns to Rust. The return value selects how the Rust
//! side settles the rest:
//!
//! * `EXIT_NEXT` — body and terminator fully retired and charged in
//!   host code; `next_pc` is in the context. If the exit crossed a static
//!   edge whose link slot was empty, `link_from`/`link_edge` name the
//!   edge so the dispatch loop can install the chain link for next time.
//! * `EXIT_TERM` — body retired but not yet charged; the terminator
//!   (CSR reads observing live counters, `ecall`, `ebreak`) executes on
//!   the shared interpreter core.
//! * `EXIT_TRAP_MEM` — a load/store at op `exit_op` faulted at
//!   `fault_addr`; Rust rebuilds the oracle's counters from the op's
//!   prefix sums and raises the exact trap.
//! * `EXIT_STORE_STALE` — the store at op `exit_op` retired but
//!   invalidated one of the block's own predecode lines (self-modifying
//!   code); the block stops before the next op, exactly like the
//!   interpreter's store bail.
//!
//! Because blocks chain (below), the partial-exit codes resolve their
//! prefix sums against the block named by `ctx.node` — the block that was
//! actually executing — not the block Rust dispatched.
//!
//! # Block chaining
//!
//! Each JIT-dispatched block owns a heap-allocated `ChainNode` with two
//! function-pointer out-slots (edge 0 = fall-through/static next, edge 1 =
//! taken branch target). A static terminator's epilogue commits the
//! block's totals, then loads the edge's slot: if non-null it checks the
//! remaining fuel budget against the successor's whole-block requirement,
//! charges it, swaps `ctx.node`/`ctx.lines` to the successor and jumps
//! straight to its *chain entry* (past the prologue) — the hot loop never
//! returns to Rust. A null slot (or a fuel shortfall) falls back to
//! `EXIT_NEXT`, and the dispatch loop installs the link on the way back
//! in, so loops self-link after one trip. Link slots live in ordinary
//! (data) heap memory read indirectly by emitted code — installing or
//! clearing a link never touches an RX page, so the W^X story below is
//! unchanged. Links are local to one CPU (host addresses never leave the
//! CPU that installed them). The `ChainRegistry` keeps every node alive
//! until a Rust-side safe point and severs every slot that could reach a
//! block whose predecode generations moved — see the registry docs for
//! the unlink protocol.
//!
//! # Host-register caching
//!
//! Within a block the emitter pins the three hottest guest registers in
//! callee-saved host registers (`rbp`, `r13`, `r15`), loaded at both
//! entry points and spilled back to the register file on every exit path
//! — including fault/bail stubs and chain edges — so `JitCtx` and the
//! guest register file stay the single source of truth at all four exit
//! codes. Helper calls (div/PQ/store-invalidate) are `extern "C"` and
//! never read the guest register file, so pins survive them without
//! spilling.
//!
//! # W^X discipline
//!
//! The exec buffer is mapped `PROT_READ|PROT_WRITE` (raw `mmap` syscall —
//! the workspace is hermetic, so no libc), filled, then flipped to
//! `PROT_READ|PROT_EXEC` with `mprotect`; it is never writable and
//! executable at the same time. Any mapping or protection failure marks
//! the JIT broken for that CPU and execution degrades to the superblock
//! interpreter — a counted fallback, never a panic.
//!
//! # Fallback
//!
//! [`host_supported`] gates the whole tier: on targets without an emitter
//! (anything but x86-64 Linux) `Engine::Jit` silently runs the superblock
//! engine and counts a fallback in [`JitStats`]. Tests can force the same
//! path on supported hosts with [`crate::cpu::Cpu::force_jit_fallback`].

#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
use crate::inst::{AluOp, PqUnit};
use crate::pq::PqAlu;
use crate::predecode::PredecodeCache;
use crate::superblock::{Block, MAX_LINES};
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
mod emit_x86_64;

/// Block exit code: body + terminator retired natively (see module docs).
pub(crate) const EXIT_NEXT: u32 = 0;
/// Block exit code: body retired, terminator needs the interpreter core.
pub(crate) const EXIT_TERM: u32 = 1;
/// Block exit code: memory fault at op `exit_op`.
pub(crate) const EXIT_TRAP_MEM: u32 = 2;
/// Block exit code: store at op `exit_op` invalidated the running block.
pub(crate) const EXIT_STORE_STALE: u32 = 3;

/// Whether this build has a JIT emitter for the host. When `false`,
/// [`crate::cpu::Engine::Jit`] degrades to the superblock interpreter at
/// run time (counted in [`JitStats::fallbacks`], never a panic).
pub fn host_supported() -> bool {
    cfg!(all(target_arch = "x86_64", target_os = "linux"))
}

/// Lifetime counters of the JIT tier (see [`crate::cpu::Cpu::jit_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JitStats {
    /// Superblocks lowered to host code by this CPU.
    pub compiles: u64,
    /// Whole-block executions entered through emitted host code from the
    /// Rust dispatch loop.
    pub dispatches: u64,
    /// Whole-block executions entered through a chain link, without
    /// returning to the dispatch loop in between.
    pub chained_dispatches: u64,
    /// Chain links installed into out-slots by the dispatch loop.
    pub links_installed: u64,
    /// Chain links severed (staleness sweeps, eviction GC, chaining
    /// disabled).
    pub unlinks: u64,
    /// Times `Engine::Jit` degraded to the superblock interpreter
    /// (unsupported host, exec-buffer failure, or a forced fallback).
    pub fallbacks: u64,
}

/// A link the emitted code asked for on its way out: the dispatch loop
/// installs it at the next dispatch of `to_pc`, once the target is known
/// to be current and translated.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PendingLink {
    /// Head PC of the block that exited on a null link slot.
    pub(crate) from_pc: u32,
    /// Which out-slot (0 = fall/static next, 1 = taken).
    pub(crate) edge: u8,
    /// The edge's static successor PC.
    pub(crate) to_pc: u32,
}

/// Per-CPU JIT engine state: counters plus the degraded-mode latches.
#[derive(Debug)]
pub(crate) struct JitState {
    pub(crate) stats: JitStats,
    /// Set when an exec-buffer allocation failed; the engine stays on the
    /// interpreter from then on (retrying mmap every block would thrash).
    pub(crate) broken: bool,
    /// Test/ops override: behave exactly like an unsupported host.
    pub(crate) forced_off: bool,
    /// Whether the dispatch loop may install chain links (benchmarks
    /// toggle this to measure the unchained baseline; emitted code is
    /// identical either way — with no links installed every edge takes
    /// the `EXIT_NEXT` path).
    pub(crate) chain_enabled: bool,
    /// Every live chain node of this CPU, plus the link counters.
    pub(crate) chain: ChainRegistry,
    /// Link requested by the last `EXIT_NEXT`, if any.
    pub(crate) pending: Option<PendingLink>,
}

impl Default for JitState {
    fn default() -> Self {
        Self {
            stats: JitStats::default(),
            broken: false,
            forced_off: false,
            chain_enabled: true,
            chain: ChainRegistry::default(),
            pending: None,
        }
    }
}

impl JitState {
    /// Whether emitted code may be used right now.
    pub(crate) fn usable(&self) -> bool {
        host_supported() && !self.broken && !self.forced_off
    }

    /// Counters merged with the registry's link/unlink tallies — the view
    /// [`crate::cpu::Cpu::jit_stats`] reports.
    pub(crate) fn snapshot(&self) -> JitStats {
        JitStats {
            links_installed: self.chain.links_installed,
            unlinks: self.chain.unlinks,
            ..self.stats
        }
    }
}

/// `ctx.link_edge` value meaning "this exit cannot be linked" (dynamic
/// target, terminator fallback, trap).
pub(crate) const LINK_NONE: u32 = u32::MAX;

/// One block's chain identity: the successor link slots plus everything
/// emitted code needs when it is *entered through a link* (whole-block
/// fuel requirement, validity pairs) and the keepalives that make a
/// traversal safe (the node pins both the translation and the block, so
/// a link installed before an eviction can still be followed until the
/// registry severs it at a safe point).
///
/// `repr(C)` with a prefix the emitter hard-codes (see `node_off`,
/// asserted by a unit test). Out-slots hold the *target node's* address;
/// its first field is the chain-entry host address, so a taken link is
/// `node = [slot]; jmp [node]`. Slots are plain data words — clearing one
/// (`unlink`) is a single atomic store, never an RX-page write.
#[derive(Debug)]
#[repr(C)]
pub(crate) struct ChainNode {
    /// Host address of the translation's chain entry (past the prologue).
    entry: usize,
    /// Whole-block fuel requirement (`Block::total_instrs`), checked by
    /// the predecessor's edge code before charging and jumping in.
    total_instrs: u64,
    /// Successor links: 0 = fall-through/static next, 1 = taken. Null =
    /// unlinked (take the `EXIT_NEXT` path).
    out: [AtomicUsize; 2],
    /// Number of valid pairs in `lines`.
    lines_len: u64,
    /// The block's `(line, generation)` validity pairs — `ctx.lines` is
    /// repointed here when a link is taken.
    lines: [(u32, u64); MAX_LINES],
    // --- Rust-only fields below (never addressed by emitted code) ---
    /// Head PC of the block (install-time sanity check).
    head_pc: u32,
    /// Keepalive: the block the prefix sums come from.
    block: Arc<Block>,
    /// Keepalive: the translation `entry` points into.
    _code: Arc<JitCode>,
}

impl ChainNode {
    pub(crate) fn new(
        head_pc: u32,
        block: &Arc<Block>,
        code: &Arc<JitCode>,
        lines: &[(u32, u64)],
    ) -> Arc<Self> {
        let mut pairs = [(0u32, 0u64); MAX_LINES];
        pairs[..lines.len()].copy_from_slice(lines);
        Arc::new(Self {
            entry: code.chain_entry_addr(),
            total_instrs: block.total_instrs,
            out: [AtomicUsize::new(0), AtomicUsize::new(0)],
            lines_len: lines.len() as u64,
            lines: pairs,
            head_pc,
            block: Arc::clone(block),
            _code: Arc::clone(code),
        })
    }

    pub(crate) fn head_pc(&self) -> u32 {
        self.head_pc
    }

    pub(crate) fn block(&self) -> &Block {
        &self.block
    }

    pub(crate) fn lines_ptr(&self) -> *const (u32, u64) {
        self.lines.as_ptr()
    }

    pub(crate) fn lines_len(&self) -> u64 {
        self.lines_len
    }

    fn lines_current(&self, cache: &PredecodeCache) -> bool {
        self.lines[..self.lines_len as usize]
            .iter()
            .all(|&(line, gen)| cache.line_gen(line as usize) == gen)
    }
}

/// Field offsets of the [`ChainNode`] prefix the emitter bakes into
/// addressing modes. Checked against the real layout by a test.
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
pub(crate) mod node_off {
    pub(crate) const ENTRY: u8 = 0x00;
    pub(crate) const TOTAL_INSTRS: u8 = 0x08;
    pub(crate) const OUT: u8 = 0x10;
    pub(crate) const LINES_LEN: u8 = 0x20;
    pub(crate) const LINES: u8 = 0x28;
}

/// All chain nodes a CPU has ever handed to emitted code that are still
/// potentially reachable, plus the link bookkeeping.
///
/// # Unlink protocol
///
/// Exactness requires that a link can never be traversed into stale code.
/// Every path that bumps a predecode generation therefore runs
/// [`ChainRegistry::sweep_stale`] *before* emitted code can take another
/// edge: the in-JIT store helper calls it synchronously when its
/// invalidation bumped a generation, and the interpreter-side store /
/// host-write paths do the same. The sweep only *clears* slots (atomic
/// stores) — it never drops a node, because the node of the currently
/// executing block is always on the list and its translation must not be
/// unmapped mid-run. Nodes are reclaimed by [`ChainRegistry::gc`] at
/// dispatch-loop safe points (slot eviction, stale drops) once nothing
/// but the registry holds them, after severing any slot still pointing at
/// them.
#[derive(Debug, Default)]
pub(crate) struct ChainRegistry {
    nodes: Vec<Arc<ChainNode>>,
    /// Links installed (slot went from one target to another).
    pub(crate) links_installed: u64,
    /// Links severed (staleness sweep, eviction GC, chaining disabled).
    pub(crate) unlinks: u64,
}

impl ChainRegistry {
    /// Track a node handed to emitted code.
    pub(crate) fn register(&mut self, node: Arc<ChainNode>) {
        self.nodes.push(node);
    }

    /// Point `from`'s out-slot `edge` at `to`'s chain entry.
    pub(crate) fn install(&mut self, from: &ChainNode, edge: u8, to: &Arc<ChainNode>) {
        let Some(slot) = from.out.get(edge as usize) else {
            return;
        };
        let target = Arc::as_ptr(to) as usize;
        if slot.load(Ordering::Relaxed) != target {
            slot.store(target, Ordering::Relaxed);
            self.links_installed += 1;
        }
    }

    /// Sever every link into a node whose predecode generations moved.
    /// Clear-only (safe to call from the in-JIT store helper): no node is
    /// dropped, so currently-executing translations stay mapped.
    pub(crate) fn sweep_stale(&mut self, cache: &PredecodeCache) {
        let stale: Vec<usize> = self
            .nodes
            .iter()
            .filter(|n| !n.lines_current(cache))
            .map(|n| Arc::as_ptr(n) as usize)
            .collect();
        if stale.is_empty() {
            return;
        }
        self.unlinks += Self::clear_slots_into(&self.nodes, &stale);
    }

    /// Reclaim nodes nothing but the registry references (their
    /// `CachedBlock` was evicted or dropped as stale). Severs any slot
    /// still pointing at a dead node first, so a traversal can never
    /// reach freed code. Only called from dispatch-loop safe points —
    /// never while emitted code is on the stack.
    pub(crate) fn gc(&mut self) {
        let dead: Vec<usize> = self
            .nodes
            .iter()
            .filter(|n| Arc::strong_count(n) == 1)
            .map(|n| Arc::as_ptr(n) as usize)
            .collect();
        if dead.is_empty() {
            return;
        }
        self.unlinks += Self::clear_slots_into(&self.nodes, &dead);
        self.nodes.retain(|n| Arc::strong_count(n) > 1);
    }

    /// Sever every link but keep the nodes (chaining disabled mid-run).
    pub(crate) fn unlink_all(&mut self) {
        let mut severed = 0u64;
        for node in &self.nodes {
            for slot in &node.out {
                if slot.swap(0, Ordering::Relaxed) != 0 {
                    severed += 1;
                }
            }
        }
        self.unlinks += severed;
    }

    fn clear_slots_into(nodes: &[Arc<ChainNode>], targets: &[usize]) -> u64 {
        let mut severed = 0u64;
        for node in nodes {
            for slot in &node.out {
                let p = slot.load(Ordering::Relaxed);
                if p != 0 && targets.contains(&p) {
                    slot.store(0, Ordering::Relaxed);
                    severed += 1;
                }
            }
        }
        severed
    }
}

/// The context struct emitted code executes against. `repr(C)` with a
/// layout the emitter hard-codes (asserted by a unit test): the
/// emitted-addressed prefix fits entirely in disp8 range, the Rust-only
/// tail (device/cache/registry pointers) sits past it. All pointers are
/// borrowed from the owning `Cpu` for the duration of one entry into
/// host code (which may traverse many chained blocks).
#[repr(C)]
pub(crate) struct JitCtx {
    /// Guest register file (`[u32; 32]`), mutated in place.
    pub(crate) regs: *mut u32,
    /// Guest RAM base.
    pub(crate) ram: *mut u8,
    /// Guest RAM length in bytes (bounds checks compare against this).
    pub(crate) ram_len: u64,
    /// Dynamic PQ-ALU stall cycles accumulated by helper calls since the
    /// last commit point (chain edge or `EXIT_NEXT`).
    pub(crate) dyn_cycles: u64,
    /// The *currently executing* block's `(line, generation)` pairs —
    /// repointed at the successor's pairs when a chain link is taken.
    pub(crate) lines: *const (u32, u64),
    /// Number of valid pairs behind `lines`.
    pub(crate) lines_len: u64,
    /// Retired-cycle total, live: seeded from the in-flight counter,
    /// committed per fully-retired block by emitted code.
    pub(crate) cycles: u64,
    /// Retired-instruction total, live (same discipline as `cycles`).
    pub(crate) instructions: u64,
    /// Fuel remaining *after* the current block retires. Chain edges
    /// check/charge the successor's whole-block requirement against this
    /// — the same precondition the dispatch loop applies.
    pub(crate) fuel: u64,
    /// The currently executing block's chain node (swapped on traversal).
    pub(crate) node: *const ChainNode,
    /// Blocks entered through a chain link during this entry.
    pub(crate) chained: u64,
    /// Out: resume PC for [`EXIT_NEXT`].
    pub(crate) next_pc: u32,
    /// Out: index of the op that faulted or bailed.
    pub(crate) exit_op: u32,
    /// Out: faulting data address for [`EXIT_TRAP_MEM`].
    pub(crate) fault_addr: u32,
    /// Out: which out-slot the exit crossed unlinked (0/1), or
    /// [`LINK_NONE`] for dynamic/unlinkable exits.
    pub(crate) link_edge: u32,
    /// Out: head PC of the block that exited (link installation key).
    pub(crate) link_from: u32,
    // --- Rust-only fields below (never addressed by emitted code) ---
    /// The PQ-ALU device (helper calls mutate its state machine).
    pub(crate) pq: *mut PqAlu,
    /// The predecode cache (store helper runs the invalidation).
    pub(crate) cache: *mut PredecodeCache,
    /// The owning CPU's chain registry (store helper sweeps stale links).
    pub(crate) chain: *mut ChainRegistry,
}

/// Field offsets the emitter bakes into addressing modes (one byte each —
/// everything fits a disp8). Checked against the real layout by a test.
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
pub(crate) mod ctx_off {
    pub(crate) const REGS: u8 = 0x00;
    pub(crate) const RAM: u8 = 0x08;
    pub(crate) const RAM_LEN: u8 = 0x10;
    pub(crate) const DYN_CYCLES: u8 = 0x18;
    pub(crate) const LINES: u8 = 0x20;
    pub(crate) const LINES_LEN: u8 = 0x28;
    pub(crate) const CYCLES: u8 = 0x30;
    pub(crate) const INSTRUCTIONS: u8 = 0x38;
    pub(crate) const FUEL: u8 = 0x40;
    pub(crate) const NODE: u8 = 0x48;
    pub(crate) const CHAINED: u8 = 0x50;
    pub(crate) const NEXT_PC: u8 = 0x58;
    pub(crate) const EXIT_OP: u8 = 0x5c;
    pub(crate) const FAULT_ADDR: u8 = 0x60;
    pub(crate) const LINK_EDGE: u8 = 0x64;
    pub(crate) const LINK_FROM: u8 = 0x68;
}

/// RISC-V division for emitted code: the interpreter ALU's result, edge
/// cases (divide by zero, overflow) included. `sel` is 0=div, 1=divu,
/// 2=rem, 3=remu; divider cycles are charged statically by the block's
/// prefix sums, never here.
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
extern "C" fn jit_div(sel: u32, a: u32, b: u32) -> u32 {
    const OPS: [AluOp; 4] = [AluOp::Div, AluOp::Divu, AluOp::Rem, AluOp::Remu];
    crate::cpu::alu(OPS[sel as usize & 3], a, b)
}

/// PQ-ALU dispatch for emitted code: runs the device (state machine and
/// all), folds the stall into `dyn_cycles`, returns the result value.
/// `unit` is the instruction's funct3 (see [`crate::inst::PqUnit`]).
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
unsafe extern "C" fn jit_pq(ctx: *mut JitCtx, unit: u32, a: u32, b: u32) -> u32 {
    let ctx = &mut *ctx;
    let unit = PqUnit::from_funct3(unit).expect("emitted code passes a PQ funct3");
    let (value, stall) = (*ctx.pq).issue(unit, a, b);
    ctx.dyn_cycles += stall;
    value
}

/// Post-store coherency for emitted code: run the predecode invalidation
/// (exactly as `Cpu::store` would), sever any chain link that now points
/// at stale code, then re-validate the running block's line generations.
/// Returns 0 if the block is still current, 1 if the store hit its own
/// code and the block must bail before the next op.
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
unsafe extern "C" fn jit_store_inval(ctx: *mut JitCtx, addr: u32, size: u32) -> u32 {
    let ctx = &mut *ctx;
    let cache = &mut *ctx.cache;
    if cache.invalidate(addr, size as usize) {
        // A generation moved: no link may chain into the affected blocks
        // again. Clear-only — the running block's own node is on this
        // list and its translation must stay mapped.
        (*ctx.chain).sweep_stale(cache);
    }
    let lines = std::slice::from_raw_parts(ctx.lines, ctx.lines_len as usize);
    let current = lines
        .iter()
        .all(|&(line, gen)| cache.line_gen(line as usize) == gen);
    u32::from(!current)
}

#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
mod backend {
    use super::emit_x86_64;
    use super::{jit_div, jit_pq, jit_store_inval, JitCtx};
    use crate::superblock::Block;
    use std::fmt;

    const PROT_READ: usize = 1;
    const PROT_WRITE: usize = 2;
    const PROT_EXEC: usize = 4;
    const MAP_PRIVATE_ANON: usize = 0x22; // MAP_PRIVATE | MAP_ANONYMOUS
    const PAGE: usize = 4096;

    /// Raw `mmap(NULL, len, prot, MAP_PRIVATE|MAP_ANONYMOUS, -1, 0)`.
    /// The workspace carries no libc crate, so the three calls the exec
    /// buffer needs go straight to the kernel.
    unsafe fn sys_mmap(len: usize, prot: usize) -> Option<*mut u8> {
        let ret: usize;
        core::arch::asm!(
            "syscall",
            inlateout("rax") 9usize => ret,
            in("rdi") 0usize,
            in("rsi") len,
            in("rdx") prot,
            in("r10") MAP_PRIVATE_ANON,
            in("r8") usize::MAX, // fd = -1
            in("r9") 0usize,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
        // Raw syscalls report errors as -errno in [-4095, -1].
        if ret >= -4095isize as usize {
            None
        } else {
            Some(ret as *mut u8)
        }
    }

    unsafe fn sys_mprotect(ptr: *mut u8, len: usize, prot: usize) -> isize {
        let ret: isize;
        core::arch::asm!(
            "syscall",
            inlateout("rax") 10isize => ret,
            in("rdi") ptr,
            in("rsi") len,
            in("rdx") prot,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
        ret
    }

    unsafe fn sys_munmap(ptr: *mut u8, len: usize) {
        let ret: isize;
        core::arch::asm!(
            "syscall",
            inlateout("rax") 11isize => ret,
            in("rdi") ptr,
            in("rsi") len,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
        let _ = ret;
    }

    /// A page-rounded executable mapping holding one block's emitted code.
    /// Written while `RW`, then flipped to `RX` — never both (W^X).
    struct ExecMap {
        ptr: *mut u8,
        len: usize,
    }

    impl ExecMap {
        fn new(code: &[u8]) -> Option<Self> {
            let len = code.len().max(1).next_multiple_of(PAGE);
            unsafe {
                let ptr = sys_mmap(len, PROT_READ | PROT_WRITE)?;
                std::ptr::copy_nonoverlapping(code.as_ptr(), ptr, code.len());
                if sys_mprotect(ptr, len, PROT_READ | PROT_EXEC) != 0 {
                    sys_munmap(ptr, len);
                    return None;
                }
                Some(Self { ptr, len })
            }
        }
    }

    impl Drop for ExecMap {
        fn drop(&mut self) {
            unsafe { sys_munmap(self.ptr, self.len) };
        }
    }

    /// One block's emitted host code. Immutable (and `RX`) after
    /// construction, so sharing across threads is sound.
    pub(crate) struct JitCode {
        map: ExecMap,
        code_len: usize,
        /// Byte offset of the chain entry (past the prologue, at the pin
        /// loads) — where a predecessor's link jump lands.
        chain_entry: usize,
    }

    // SAFETY: the mapping is read/execute-only after construction and the
    // helper addresses baked into it are process-wide constants.
    unsafe impl Send for JitCode {}
    unsafe impl Sync for JitCode {}

    impl fmt::Debug for JitCode {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.debug_struct("JitCode")
                .field("code_len", &self.code_len)
                .finish()
        }
    }

    impl JitCode {
        /// Enter the block.
        ///
        /// # Safety
        ///
        /// `ctx` must point to a fully-initialised [`JitCtx`] whose
        /// pointers are valid for the duration of the call and whose
        /// `lines` pairs belong to the block this code was emitted from.
        pub(crate) unsafe fn enter(&self, ctx: *mut JitCtx) -> u32 {
            let entry: unsafe extern "C" fn(*mut JitCtx) -> u32 = std::mem::transmute(self.map.ptr);
            entry(ctx)
        }

        /// Host address a chain link jumps to (past the prologue).
        pub(crate) fn chain_entry_addr(&self) -> usize {
            self.map.ptr as usize + self.chain_entry
        }
    }

    /// Lower `block` to host code. `None` only when the exec buffer
    /// cannot be mapped (the caller then latches the interpreter).
    pub(crate) fn translate(block: &Block) -> Option<JitCode> {
        let div: extern "C" fn(u32, u32, u32) -> u32 = jit_div;
        let pq: unsafe extern "C" fn(*mut JitCtx, u32, u32, u32) -> u32 = jit_pq;
        let store: unsafe extern "C" fn(*mut JitCtx, u32, u32) -> u32 = jit_store_inval;
        let helpers = emit_x86_64::Helpers {
            div: div as usize,
            pq: pq as usize,
            store_inval: store as usize,
        };
        let (code, chain_entry) = emit_x86_64::emit(block, &helpers);
        let code_len = code.len();
        ExecMap::new(&code).map(|map| JitCode {
            map,
            code_len,
            chain_entry,
        })
    }
}

#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
mod backend {
    use super::JitCtx;
    use crate::superblock::Block;

    /// Stub on hosts without an emitter: never constructed, so
    /// `Engine::Jit` always falls back to the superblock interpreter.
    #[derive(Debug)]
    pub(crate) struct JitCode {
        _never: core::convert::Infallible,
    }

    impl JitCode {
        /// Unreachable by construction (no `JitCode` value can exist).
        ///
        /// # Safety
        ///
        /// Never called; see [`translate`].
        pub(crate) unsafe fn enter(&self, _ctx: *mut JitCtx) -> u32 {
            match self._never {}
        }

        /// Unreachable by construction (no `JitCode` value can exist).
        pub(crate) fn chain_entry_addr(&self) -> usize {
            match self._never {}
        }
    }

    pub(crate) fn translate(_block: &Block) -> Option<JitCode> {
        None
    }
}

pub(crate) use backend::{translate, JitCode};

impl fmt::Display for JitStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "compiles {} dispatches {} chained {} links {} unlinks {} fallbacks {}",
            self.compiles,
            self.dispatches,
            self.chained_dispatches,
            self.links_installed,
            self.unlinks,
            self.fallbacks
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
    #[test]
    fn ctx_offsets_match_the_emitter() {
        let mut regs = [0u32; 32];
        let mut ram = [0u8; 4];
        let ctx = JitCtx {
            regs: regs.as_mut_ptr(),
            ram: ram.as_mut_ptr(),
            ram_len: 4,
            dyn_cycles: 0,
            lines: std::ptr::null(),
            lines_len: 0,
            cycles: 0,
            instructions: 0,
            fuel: 0,
            node: std::ptr::null(),
            chained: 0,
            next_pc: 0,
            exit_op: 0,
            fault_addr: 0,
            link_edge: LINK_NONE,
            link_from: 0,
            pq: std::ptr::null_mut(),
            cache: std::ptr::null_mut(),
            chain: std::ptr::null_mut(),
        };
        let base = std::ptr::addr_of!(ctx) as usize;
        let off = |p: usize| (p - base) as u8;
        assert_eq!(off(std::ptr::addr_of!(ctx.regs) as usize), ctx_off::REGS);
        assert_eq!(off(std::ptr::addr_of!(ctx.ram) as usize), ctx_off::RAM);
        assert_eq!(
            off(std::ptr::addr_of!(ctx.ram_len) as usize),
            ctx_off::RAM_LEN
        );
        assert_eq!(
            off(std::ptr::addr_of!(ctx.dyn_cycles) as usize),
            ctx_off::DYN_CYCLES
        );
        assert_eq!(off(std::ptr::addr_of!(ctx.lines) as usize), ctx_off::LINES);
        assert_eq!(
            off(std::ptr::addr_of!(ctx.lines_len) as usize),
            ctx_off::LINES_LEN
        );
        assert_eq!(
            off(std::ptr::addr_of!(ctx.cycles) as usize),
            ctx_off::CYCLES
        );
        assert_eq!(
            off(std::ptr::addr_of!(ctx.instructions) as usize),
            ctx_off::INSTRUCTIONS
        );
        assert_eq!(off(std::ptr::addr_of!(ctx.fuel) as usize), ctx_off::FUEL);
        assert_eq!(off(std::ptr::addr_of!(ctx.node) as usize), ctx_off::NODE);
        assert_eq!(
            off(std::ptr::addr_of!(ctx.chained) as usize),
            ctx_off::CHAINED
        );
        assert_eq!(
            off(std::ptr::addr_of!(ctx.next_pc) as usize),
            ctx_off::NEXT_PC
        );
        assert_eq!(
            off(std::ptr::addr_of!(ctx.exit_op) as usize),
            ctx_off::EXIT_OP
        );
        assert_eq!(
            off(std::ptr::addr_of!(ctx.fault_addr) as usize),
            ctx_off::FAULT_ADDR
        );
        assert_eq!(
            off(std::ptr::addr_of!(ctx.link_edge) as usize),
            ctx_off::LINK_EDGE
        );
        assert_eq!(
            off(std::ptr::addr_of!(ctx.link_from) as usize),
            ctx_off::LINK_FROM
        );
    }

    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
    #[test]
    fn node_offsets_match_the_emitter() {
        // The emitter addresses the ChainNode prefix with hard-coded
        // disp8 offsets; pin the repr(C) layout here.
        assert_eq!(
            std::mem::offset_of!(ChainNode, entry),
            node_off::ENTRY as usize
        );
        assert_eq!(
            std::mem::offset_of!(ChainNode, total_instrs),
            node_off::TOTAL_INSTRS as usize
        );
        assert_eq!(std::mem::offset_of!(ChainNode, out), node_off::OUT as usize);
        assert_eq!(
            std::mem::offset_of!(ChainNode, lines_len),
            node_off::LINES_LEN as usize
        );
        assert_eq!(
            std::mem::offset_of!(ChainNode, lines),
            node_off::LINES as usize
        );
        assert_eq!(std::mem::size_of::<std::sync::atomic::AtomicUsize>(), 8);
    }

    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
    #[test]
    fn div_helper_matches_riscv_edge_cases() {
        // div: by zero => all ones; overflow => dividend.
        assert_eq!(jit_div(0, 7, 0), u32::MAX);
        assert_eq!(jit_div(0, 0x8000_0000, u32::MAX), 0x8000_0000);
        assert_eq!(jit_div(0, (-7i32) as u32, 3), (-2i32) as u32);
        // divu: by zero => all ones.
        assert_eq!(jit_div(1, 7, 0), u32::MAX);
        assert_eq!(jit_div(1, 7, 2), 3);
        // rem: by zero => dividend; overflow => 0.
        assert_eq!(jit_div(2, 7, 0), 7);
        assert_eq!(jit_div(2, 0x8000_0000, u32::MAX), 0);
        assert_eq!(jit_div(2, (-7i32) as u32, 3), (-1i32) as u32);
        // remu: by zero => dividend.
        assert_eq!(jit_div(3, 7, 0), 7);
        assert_eq!(jit_div(3, 7, 2), 1);
    }

    #[test]
    fn host_support_matches_target() {
        assert_eq!(
            host_supported(),
            cfg!(all(target_arch = "x86_64", target_os = "linux"))
        );
    }
}
