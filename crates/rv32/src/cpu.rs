//! The RISCY-like CPU interpreter.
//!
//! A functional interpreter that charges modelled cycles from the RISCY
//! timing table in [`crate::timing`] (base cycle, load-use stall, jump
//! and taken-branch flushes, the iterative divider) plus the stalls the
//! PQ-ALU device reports. CSR numbers and names come from
//! [`crate::inst::Csr`].
//!
//! Three execution engines share one `execute` core, so they are
//! architecturally indistinguishable (same registers, memory, traps,
//! modelled cycles and retired-instruction counts):
//!
//! * the **JIT engine** ([`Engine::Jit`]; see [`crate::jit`]) lowers
//!   compiled superblocks to host machine code in W^X exec buffers and
//!   retires them natively, degrading to the superblock interpreter on
//!   unsupported hosts;
//! * the **superblock engine** (default; see [`crate::superblock`])
//!   compiles hot straight-line regions into trace-cached blocks of fused
//!   macro-ops and retires them whole, interpreting cold code one
//!   instruction at a time from the predecode cache ([`crate::predecode`]:
//!   each 16-bit code slot decoded once; stores into cached code
//!   invalidate the affected lines, so self-modifying code still works);
//! * the **decode-every-step classic engine** ([`Cpu::step`],
//!   [`Engine::Classic`]) re-decodes on every instruction and serves as
//!   the differential oracle for the fast engines.

use crate::inst::{decode, decompress, AluOp, BranchOp, Csr, CsrOp, Inst, LoadOp, StoreOp};
use crate::jit::{self, JitCtx, JitState, JitStats};
use crate::pq::PqAlu;
use crate::predecode::{PredecodeCache, Slot};
use crate::superblock::{
    self, BlockSlot, CachedBlock, OpKind, Src2, SuperblockCache, SuperblockStats, Terminator,
    HOT_THRESHOLD, MAX_OPS,
};
use crate::timing;
use std::fmt;
use std::sync::Arc;

/// Which execution engine [`Cpu::run`] dispatches through. All three are
/// bit-identical architecturally; they differ only in host speed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// Decode every instruction from RAM on every step — the slowest
    /// engine and the differential oracle the fast ones are tested
    /// against.
    Classic,
    /// Trace-cached superblock execution with macro-op fusion (default).
    Superblock,
    /// Superblocks lowered to host machine code (see [`crate::jit`]).
    /// Falls back to [`Engine::Superblock`] behaviour — silently, with a
    /// counter — on hosts without an emitter or when the exec buffer
    /// cannot be mapped.
    Jit,
}

/// Reasons execution stopped abnormally.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trap {
    /// An instruction word failed to decode.
    IllegalInstruction {
        /// Faulting PC.
        pc: u32,
        /// Raw instruction bits.
        word: u32,
    },
    /// An access fell outside RAM: a data access, or an instruction fetch
    /// (then `addr` is the fetch PC).
    MemoryFault {
        /// Faulting PC.
        pc: u32,
        /// Faulting address.
        addr: u32,
    },
    /// `ebreak` executed.
    Breakpoint {
        /// PC of the breakpoint.
        pc: u32,
    },
    /// The instruction budget given to [`Cpu::run`] was exhausted.
    OutOfFuel,
}

impl fmt::Display for Trap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Trap::IllegalInstruction { pc, word } => {
                write!(f, "illegal instruction {word:#010x} at {pc:#010x}")
            }
            Trap::MemoryFault { pc, addr } => {
                write!(f, "memory fault at address {addr:#010x} (pc {pc:#010x})")
            }
            Trap::Breakpoint { pc } => write!(f, "breakpoint at {pc:#010x}"),
            Trap::OutOfFuel => write!(f, "instruction budget exhausted"),
        }
    }
}

impl std::error::Error for Trap {}

/// Snapshot returned on a clean `ecall` exit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExitState {
    /// Register file at exit.
    pub regs: [u32; 32],
    /// PC of the `ecall`.
    pub pc: u32,
    /// Modelled cycles consumed.
    pub cycles: u64,
    /// Instructions retired.
    pub instructions: u64,
}

impl ExitState {
    /// Read register `x<i>` at exit.
    pub fn reg(&self, i: usize) -> u32 {
        self.regs[i]
    }
}

/// In-flight copies of the performance counters for the instruction being
/// retired. The batched fast loop keeps these (plus the PC and fuel) in
/// locals across iterations instead of round-tripping through the `Cpu`
/// fields, and syncs them back at loop exits; [`Cpu::step`] loads and
/// stores them around every instruction. CSR reads inside `execute` must
/// observe these live values, never the possibly-stale fields.
struct Flight {
    cycles: u64,
    instructions: u64,
}

impl Flight {
    /// Charge `cycles` modelled cycles (from [`crate::timing`]).
    #[inline(always)]
    fn charge(&mut self, cycles: u32) {
        self.cycles += u64::from(cycles);
    }
}

/// The simulated CPU: register file, PC, RAM and the PQ-ALU device.
#[derive(Debug)]
pub struct Cpu {
    regs: [u32; 32],
    pc: u32,
    ram: Vec<u8>,
    cycles: u64,
    instructions: u64,
    mscratch: u32,
    pq: PqAlu,
    cache: PredecodeCache,
    sb: SuperblockCache,
    jit: JitState,
    engine: Engine,
}

/// How a superblock execution handed control back to the dispatch loop.
enum BlockExit {
    /// Keep dispatching (normal completion or a store-invalidation bail).
    Continue,
    /// The terminator was a clean `ecall`.
    Ecall,
}

impl Cpu {
    /// Create a CPU with `ram_bytes` of zeroed RAM at address 0.
    pub fn new(ram_bytes: usize) -> Self {
        Self {
            regs: [0u32; 32],
            pc: 0,
            ram: vec![0u8; ram_bytes],
            cycles: 0,
            instructions: 0,
            mscratch: 0,
            pq: PqAlu::new(),
            cache: PredecodeCache::new(ram_bytes),
            sb: SuperblockCache::new(),
            jit: JitState::default(),
            engine: Engine::Superblock,
        }
    }

    /// Select the execution engine (default: [`Engine::Superblock`]).
    pub fn set_engine(&mut self, engine: Engine) {
        self.engine = engine;
    }

    /// The currently selected execution engine.
    pub fn engine(&self) -> Engine {
        self.engine
    }

    /// Superblock-engine lifetime counters.
    pub fn superblock_stats(&self) -> SuperblockStats {
        self.sb.stats
    }

    /// JIT-tier lifetime counters (all zero unless [`Engine::Jit`] ran).
    pub fn jit_stats(&self) -> JitStats {
        self.jit.snapshot()
    }

    /// Enable or disable JIT block chaining (default: enabled).
    ///
    /// Disabling severs every installed link and stops installing new
    /// ones; translations and every other JIT mechanism are untouched, so
    /// this isolates exactly the chaining win — `iss_bench` uses it to
    /// measure the unchained baseline.
    pub fn set_jit_chaining(&mut self, enabled: bool) {
        self.jit.chain_enabled = enabled;
        if !enabled {
            self.jit.pending = None;
            self.jit.chain.unlink_all();
        }
    }

    /// Force [`Engine::Jit`] to behave exactly like an unsupported host:
    /// every run degrades to the superblock interpreter (counted in
    /// [`JitStats::fallbacks`]). Tests use it to reach the fallback path
    /// on hosts that have a JIT backend.
    pub fn force_jit_fallback(&mut self, forced: bool) {
        self.jit.forced_off = forced;
    }

    /// Current program counter.
    pub fn pc(&self) -> u32 {
        self.pc
    }

    /// Set the program counter.
    pub fn set_pc(&mut self, pc: u32) {
        self.pc = pc;
    }

    /// Read register `x<i>`.
    pub fn reg(&self, i: usize) -> u32 {
        self.regs[i]
    }

    /// Hot-path register read: the decoder guarantees indices are 5-bit,
    /// but a predecoded index is a `u8` loaded from the slot table, so
    /// mask to elide the bounds check the optimizer cannot prove away.
    #[inline(always)]
    fn rreg(&self, i: u8) -> u32 {
        self.regs[usize::from(i) & 31]
    }

    /// Hot-path register write (x0 stays hardwired to zero).
    #[inline(always)]
    fn wreg(&mut self, i: u8, value: u32) {
        if i != 0 {
            self.regs[usize::from(i) & 31] = value;
        }
    }

    /// Modelled cycles consumed so far.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Instructions retired so far.
    pub fn instructions(&self) -> u64 {
        self.instructions
    }

    /// The PQ-ALU device (inspect accelerator state in tests).
    pub fn pq(&self) -> &PqAlu {
        &self.pq
    }

    /// Load 32-bit words at a byte address (little endian).
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds RAM.
    pub fn load_words(&mut self, addr: u32, words: &[u32]) {
        for (i, w) in words.iter().enumerate() {
            let a = addr as usize + 4 * i;
            self.ram[a..a + 4].copy_from_slice(&w.to_le_bytes());
        }
        if self.cache.invalidate(addr, 4 * words.len()) {
            self.jit.chain.sweep_stale(&self.cache);
        }
    }

    /// Write bytes into RAM.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds RAM.
    pub fn write_bytes(&mut self, addr: u32, bytes: &[u8]) {
        let a = addr as usize;
        self.ram[a..a + bytes.len()].copy_from_slice(bytes);
        if self.cache.invalidate(addr, bytes.len()) {
            self.jit.chain.sweep_stale(&self.cache);
        }
    }

    /// Read bytes from RAM.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds RAM.
    pub fn read_bytes(&self, addr: u32, len: usize) -> &[u8] {
        &self.ram[addr as usize..addr as usize + len]
    }

    fn load(&self, pc: u32, addr: u32, size: usize) -> Result<u32, Trap> {
        let a = addr as usize;
        if a + size > self.ram.len() {
            return Err(Trap::MemoryFault { pc, addr });
        }
        let mut v = 0u32;
        for i in 0..size {
            v |= u32::from(self.ram[a + i]) << (8 * i);
        }
        Ok(v)
    }

    fn store(&mut self, pc: u32, addr: u32, size: usize, value: u32) -> Result<(), Trap> {
        let a = addr as usize;
        if a + size > self.ram.len() {
            return Err(Trap::MemoryFault { pc, addr });
        }
        for i in 0..size {
            self.ram[a + i] = (value >> (8 * i)) as u8;
        }
        // Keep the predecode cache coherent: the store may have rewritten
        // code (self-modifying programs are legal on the slow path too).
        // A generation bump also severs any chain links into now-stale
        // translated blocks (see `crate::jit`'s unlink protocol).
        if self.cache.invalidate(addr, size) {
            self.jit.chain.sweep_stale(&self.cache);
        }
        Ok(())
    }

    /// Width/extension dispatch for loads, shared by all engines so every
    /// path produces identical values and trap PCs.
    #[inline(always)]
    fn load_value(&self, pc: u32, op: LoadOp, addr: u32) -> Result<u32, Trap> {
        Ok(match op {
            LoadOp::Byte => self.load(pc, addr, 1)? as i8 as i32 as u32,
            LoadOp::Half => self.load(pc, addr, 2)? as i16 as i32 as u32,
            LoadOp::Word => self.load(pc, addr, 4)?,
            LoadOp::ByteU => self.load(pc, addr, 1)?,
            LoadOp::HalfU => self.load(pc, addr, 2)?,
        })
    }

    /// Width dispatch for stores (see [`Cpu::load_value`]).
    #[inline(always)]
    fn store_value(&mut self, pc: u32, op: StoreOp, addr: u32, value: u32) -> Result<(), Trap> {
        match op {
            StoreOp::Byte => self.store(pc, addr, 1, value),
            StoreOp::Half => self.store(pc, addr, 2, value),
            StoreOp::Word => self.store(pc, addr, 4, value),
        }
    }

    /// Execute one instruction on the decode-every-step slow path.
    /// Returns `Ok(true)` if it was `ecall`.
    ///
    /// # Errors
    ///
    /// Returns a [`Trap`] on decode/memory faults or `ebreak`.
    pub fn step(&mut self) -> Result<bool, Trap> {
        let pc = self.pc;
        let (inst, word, len) = fetch(&self.ram, pc)?;
        let mut flight = Flight {
            cycles: self.cycles + u64::from(timing::BASE),
            instructions: self.instructions + 1,
        };
        let outcome = self.execute(pc, word, inst, u32::from(len), &mut flight);
        self.cycles = flight.cycles;
        self.instructions = flight.instructions;
        match outcome? {
            Some(next_pc) => {
                self.pc = next_pc;
                Ok(false)
            }
            None => {
                self.pc = pc;
                Ok(true)
            }
        }
    }

    /// The shared execution core: retire `inst` fetched at `pc`.
    /// `word` is the raw (decompressed) encoding, used only for trap values.
    ///
    /// Returns `Ok(Some(next_pc))`, or `Ok(None)` for a clean `ecall` exit.
    /// The in-flight counters (already incremented for this instruction)
    /// live in `flight` so the batched fast loop can keep them in registers
    /// across iterations; CSR reads observe them, not the stale fields.
    #[inline]
    fn execute(
        &mut self,
        pc: u32,
        word: u32,
        inst: Inst,
        len: u32,
        flight: &mut Flight,
    ) -> Result<Option<u32>, Trap> {
        let mut next_pc = pc.wrapping_add(len);

        match inst {
            Inst::Lui { rd, imm } => self.wreg(rd, imm as u32),
            Inst::Auipc { rd, imm } => self.wreg(rd, pc.wrapping_add(imm as u32)),
            Inst::Jal { rd, offset } => {
                self.wreg(rd, next_pc);
                next_pc = pc.wrapping_add(offset as u32);
                flight.charge(timing::JUMP);
            }
            Inst::Jalr { rd, rs1, offset } => {
                let target = self.rreg(rs1).wrapping_add(offset as u32) & !1;
                self.wreg(rd, next_pc);
                next_pc = target;
                flight.charge(timing::JUMP);
            }
            Inst::Branch {
                op,
                rs1,
                rs2,
                offset,
            } => {
                let a = self.rreg(rs1);
                let b = self.rreg(rs2);
                if branch_taken(op, a, b) {
                    next_pc = pc.wrapping_add(offset as u32);
                    flight.charge(timing::TAKEN_BRANCH);
                }
            }
            Inst::Load {
                op,
                rd,
                rs1,
                offset,
            } => {
                let addr = self.rreg(rs1).wrapping_add(offset as u32);
                let value = self.load_value(pc, op, addr)?;
                self.wreg(rd, value);
                flight.charge(timing::LOAD_USE);
            }
            Inst::Store {
                op,
                rs1,
                rs2,
                offset,
            } => {
                let addr = self.rreg(rs1).wrapping_add(offset as u32);
                let value = self.rreg(rs2);
                self.store_value(pc, op, addr, value)?;
            }
            Inst::OpImm { op, rd, rs1, imm } => {
                // No immediate form divides, so no extra charge.
                let a = self.rreg(rs1);
                self.wreg(rd, alu(op, a, imm as u32));
            }
            Inst::Op { op, rd, rs1, rs2 } => {
                let a = self.rreg(rs1);
                let b = self.rreg(rs2);
                self.wreg(rd, alu(op, a, b));
                // A branch, not an add of zero: keeps the classic loop fast.
                let extra = timing::alu_extra(op);
                if extra != 0 {
                    flight.charge(extra);
                }
            }
            Inst::Fence => {}
            Inst::Ecall => {
                return Ok(None);
            }
            Inst::Ebreak => return Err(Trap::Breakpoint { pc }),
            Inst::Csr { op, rd, rs1, csr } => {
                // Read the old value (cycle/instret expose the core's own
                // performance counters, as used by the paper's on-core
                // measurements; mscratch is a scratch register).
                let Some(csr) = Csr::from_number(csr) else {
                    return Err(Trap::IllegalInstruction { pc, word });
                };
                let old = match csr {
                    Csr::Cycle => flight.cycles as u32,
                    Csr::CycleH => (flight.cycles >> 32) as u32,
                    Csr::Instret => flight.instructions as u32,
                    Csr::InstretH => (flight.instructions >> 32) as u32,
                    Csr::Mscratch => self.mscratch,
                };
                let operand = self.rreg(rs1);
                let new = match op {
                    CsrOp::Rw => Some(operand),
                    CsrOp::Rs if rs1 != 0 => Some(old | operand),
                    CsrOp::Rc if rs1 != 0 => Some(old & !operand),
                    _ => None,
                };
                if let Some(value) = new {
                    match csr {
                        Csr::Mscratch => self.mscratch = value,
                        // Performance counters are read-only.
                        _ => return Err(Trap::IllegalInstruction { pc, word }),
                    }
                }
                self.wreg(rd, old);
            }
            Inst::Pq { unit, rd, rs1, rs2 } => {
                let (value, stall) = self.pq.issue(unit, self.rreg(rs1), self.rreg(rs2));
                self.wreg(rd, value);
                flight.cycles += stall;
            }
        }

        Ok(Some(next_pc))
    }

    /// Run until `ecall`, a trap, or `max_instructions` retired.
    ///
    /// Dispatches through the selected [`Engine`] (default:
    /// [`Engine::Superblock`]); all engines report identical
    /// [`ExitState`]s and [`Trap`]s, including the fuel accounting of
    /// [`Trap::OutOfFuel`] (the instruction budget is checked before every
    /// retired instruction on every path).
    ///
    /// # Errors
    ///
    /// Returns the stopping [`Trap`] (including [`Trap::OutOfFuel`]).
    pub fn run(&mut self, max_instructions: u64) -> Result<ExitState, Trap> {
        match self.engine {
            Engine::Classic => self.run_slow(max_instructions),
            Engine::Superblock => self.run_blocks(max_instructions, false),
            Engine::Jit => {
                if self.jit.usable() {
                    self.run_blocks(max_instructions, true)
                } else {
                    // Unsupported host, broken exec mapping, or a forced
                    // fallback: degrade to the superblock interpreter.
                    self.jit.stats.fallbacks += 1;
                    self.run_blocks(max_instructions, false)
                }
            }
        }
    }

    /// The decode-every-step loop behind [`Cpu::run`] (the oracle).
    fn run_slow(&mut self, max_instructions: u64) -> Result<ExitState, Trap> {
        let start = self.instructions;
        while self.instructions - start < max_instructions {
            if self.step()? {
                return Ok(self.exit_state());
            }
        }
        Err(Trap::OutOfFuel)
    }

    /// The trace-cached dispatch loop behind [`Cpu::run`] for
    /// [`Engine::Superblock`] and [`Engine::Jit`]. Hot block heads execute
    /// as compiled superblocks (one fuel/counter update per block); cold or
    /// fuel-starved stretches interpret single instructions from the
    /// predecode cache, stopping at block boundaries so heads accumulate
    /// heat. With `use_jit` set,
    /// dispatched blocks additionally carry emitted host code and retire
    /// through [`Cpu::exec_jit_block`]; everything else — hotness,
    /// generation validation, fuel, trap accounting — is byte-for-byte the
    /// same loop, which is what makes the tiers bit-identical.
    fn run_blocks(&mut self, max_instructions: u64, use_jit: bool) -> Result<ExitState, Trap> {
        if self.pc & 1 != 0 {
            // An odd PC cannot be keyed to a halfword slot, and an even
            // successor can only arise through a jump the oracle handles
            // identically — so run the whole budget on the oracle. (Jump
            // and branch targets are even by encoding and `jalr` clears
            // bit 0, hence inside the loop below the PC stays even.)
            return self.run_slow(max_instructions);
        }
        let mut fuel = max_instructions;
        let mut pc = self.pc;
        let mut flight = Flight {
            cycles: self.cycles,
            instructions: self.instructions,
        };
        macro_rules! sync {
            () => {
                self.pc = pc;
                self.cycles = flight.cycles;
                self.instructions = flight.instructions;
            };
        }
        'dispatch: loop {
            if fuel == 0 {
                sync!();
                return Err(Trap::OutOfFuel);
            }
            // A link request rides only from one `EXIT_NEXT` to the very
            // next dispatch-loop iteration: nothing executes in that
            // window, so the requesting block's slot is provably
            // unchanged and the edge still means what the emitted code
            // thinks it means. Anything older is discarded.
            let pending_link = self.jit.pending.take();
            // Probe the trace cache at this head.
            let idx = self.sb.index(pc);
            let mut evicted: Option<Box<CachedBlock>> = None;
            let mut block = {
                let slot = self.sb.slot_mut(idx);
                if slot.tag == pc {
                    match slot.block.take() {
                        Some(block) => Some(block),
                        None => {
                            slot.heat = slot.heat.saturating_add(1);
                            None
                        }
                    }
                } else {
                    // A new head claims the slot (direct-mapped: the
                    // previous tenant's heat and block are dropped).
                    evicted = std::mem::replace(
                        slot,
                        BlockSlot {
                            tag: pc,
                            heat: 1,
                            block: None,
                        },
                    )
                    .block;
                    None
                }
            };
            if let Some(old) = evicted {
                // Eviction is a dispatch-loop safe point: drop the
                // tenant, then sever and reclaim its chain node so no
                // link can reach the dead translation.
                let had_node = old.chain_node().is_some();
                drop(old);
                if had_node {
                    self.jit.chain.gc();
                }
            }
            if let Some(b) = &block {
                if !b.lines_current(&self.cache) {
                    // Code under the block changed since compilation;
                    // recompile right away (the head is already hot).
                    let had_node = b.chain_node().is_some();
                    block = None;
                    self.sb.stats.stale_drops += 1;
                    self.sb.slot_mut(idx).heat = HOT_THRESHOLD;
                    if had_node {
                        self.jit.chain.gc();
                    }
                }
            }
            if block.is_none() && self.sb.slot_mut(idx).heat >= HOT_THRESHOLD {
                match superblock::compile(&mut self.cache, &self.ram, pc) {
                    Some(b) => {
                        self.sb.stats.compiles += 1;
                        block = Some(Box::new(b));
                    }
                    // The head slot holds no decodable instruction: let
                    // the interpreted stretch raise the exact trap, and
                    // stop re-probing a head that cannot compile.
                    None => self.sb.slot_mut(idx).heat = 0,
                }
            }
            if let Some(mut b) = block {
                if fuel >= b.block.total_instrs {
                    self.sb.stats.dispatches += 1;
                    let jit_ready = use_jit && !self.jit.broken && {
                        if b.jit_code().is_none() {
                            self.ensure_jit(&mut b);
                        }
                        b.jit_code().is_some()
                    };
                    if jit_ready && b.chain_node().is_none() {
                        // Emitted code reads `ctx.node` on every static
                        // exit, so each JIT-dispatched block carries a
                        // chain node, created at its first JIT dispatch.
                        let code = Arc::clone(b.jit_code().expect("jit_ready checked"));
                        let node = jit::ChainNode::new(pc, &b.block, &code, b.lines());
                        self.jit.chain.register(Arc::clone(&node));
                        b.set_chain(node);
                    }
                    if let Some(link) = pending_link {
                        if jit_ready && self.jit.chain_enabled && link.to_pc == pc {
                            // This dispatch *is* the requested target, so
                            // the target node is translated and
                            // line-current; install the edge so the next
                            // trip through the source block chains here
                            // without leaving host code.
                            let to = Arc::clone(b.chain_node().expect("node created above"));
                            let from = if link.from_pc == pc {
                                // Self-loop: the source block is the one
                                // in hand (its slot is empty right now).
                                Some(Arc::clone(&to))
                            } else {
                                let fidx = self.sb.index(link.from_pc);
                                let fslot = self.sb.slot_mut(fidx);
                                if fslot.tag == link.from_pc {
                                    fslot.block.as_ref().and_then(|fb| fb.chain_node()).cloned()
                                } else {
                                    None
                                }
                            };
                            if let Some(from) = from {
                                debug_assert_eq!(from.head_pc(), link.from_pc);
                                self.jit.chain.install(&from, link.edge, &to);
                            }
                        }
                    }
                    let retired_before = flight.instructions;
                    let outcome = if jit_ready {
                        self.jit.stats.dispatches += 1;
                        self.exec_jit_block(&b, &mut pc, &mut flight, fuel)
                    } else {
                        self.exec_block(&b, &mut pc, &mut flight)
                    };
                    self.sb.slot_mut(idx).block = Some(b);
                    match outcome {
                        Ok(BlockExit::Continue) => {
                            fuel -= flight.instructions - retired_before;
                            continue 'dispatch;
                        }
                        Ok(BlockExit::Ecall) => {
                            sync!();
                            return Ok(self.exit_state());
                        }
                        Err(trap) => {
                            sync!();
                            return Err(trap);
                        }
                    }
                }
                // Not enough fuel for a whole block: put it back and
                // interpret below, where fuel is checked per instruction.
                self.sb.slot_mut(idx).block = Some(b);
            }
            // Cold (or fuel-starved) stretch: interpret from the predecode
            // cache until a block boundary retires, then re-probe.
            let mut steps = 0usize;
            loop {
                if fuel == 0 {
                    sync!();
                    return Err(Trap::OutOfFuel);
                }
                fuel -= 1;
                let mut slot = self.cache.slot_at(pc);
                if let Slot::Empty = slot {
                    slot = self.cache.fill(&self.ram, pc);
                }
                match slot {
                    Slot::Inst { inst, word, len } => {
                        let boundary = superblock::ends_block(&inst);
                        flight.charge(timing::BASE);
                        flight.instructions += 1;
                        match self.execute(pc, word, inst, u32::from(len), &mut flight) {
                            Ok(Some(next_pc)) => {
                                pc = next_pc;
                                if boundary {
                                    continue 'dispatch;
                                }
                            }
                            Ok(None) => {
                                sync!();
                                return Ok(self.exit_state());
                            }
                            Err(trap) => {
                                sync!();
                                return Err(trap);
                            }
                        }
                        steps += 1;
                        if steps >= MAX_OPS {
                            continue 'dispatch;
                        }
                    }
                    Slot::Trap(trap) => {
                        sync!();
                        return Err(trap);
                    }
                    Slot::Empty => unreachable!("fill never returns Empty"),
                }
            }
        }
    }

    /// Attach emitted host code to `cached`. A failed exec-buffer mapping
    /// latches the JIT broken for this CPU — every later dispatch
    /// interprets, counted once as a fallback.
    #[cold]
    fn ensure_jit(&mut self, cached: &mut CachedBlock) {
        match jit::translate(&cached.block) {
            Some(code) => {
                self.jit.stats.compiles += 1;
                cached.set_jit(Arc::new(code));
            }
            None => {
                self.jit.stats.fallbacks += 1;
                self.jit.broken = true;
            }
        }
    }

    /// Execute one compiled superblock — and any chain of statically
    /// linked successors — through emitted host code. Architecturally
    /// identical to running the same blocks through [`Cpu::exec_block`]
    /// back to back: the same entry preconditions (fuel for a whole block
    /// is re-checked in host code at every chain edge), and on every exit
    /// the counters and `*pc_io` hold exactly what the oracle would
    /// report. The emitted code mutates the register file, RAM, predecode
    /// generations, PQ device and the live cycle/instruction counters in
    /// place; this wrapper only settles partial-exit accounting from the
    /// exit protocol (see [`crate::jit`]). Partial exits resolve prefix
    /// sums against `ctx.node` — the block that was actually executing,
    /// which after chaining need not be `cached`.
    fn exec_jit_block(
        &mut self,
        cached: &CachedBlock,
        pc_io: &mut u32,
        flight: &mut Flight,
        fuel: u64,
    ) -> Result<BlockExit, Trap> {
        let node = Arc::clone(cached.chain_node().expect("jit dispatch registers a node"));
        let mut ctx = JitCtx {
            regs: self.regs.as_mut_ptr(),
            ram: self.ram.as_mut_ptr(),
            ram_len: self.ram.len() as u64,
            dyn_cycles: 0,
            lines: node.lines_ptr(),
            lines_len: node.lines_len(),
            cycles: flight.cycles,
            instructions: flight.instructions,
            // The dispatch precondition already paid for this block;
            // chain edges re-check and charge each successor in host
            // code, mirroring `fuel >= total_instrs` above.
            fuel: fuel - cached.block.total_instrs,
            node: Arc::as_ptr(&node),
            chained: 0,
            next_pc: 0,
            exit_op: 0,
            fault_addr: 0,
            link_edge: jit::LINK_NONE,
            link_from: 0,
            pq: &mut self.pq,
            cache: &mut self.cache,
            chain: &mut self.jit.chain,
        };
        let code = cached.jit_code().expect("dispatched without emitted code");
        // SAFETY: every ctx pointer borrows from `self` (or `node`'s
        // line pairs) and outlives the call; the code was emitted from
        // exactly this block, and the mapping is immutable RX. Chain
        // edges only enter nodes the registry keeps alive (reclaim
        // happens at dispatch-loop safe points, never inside a store
        // helper), and the unlink protocol guarantees they are
        // line-current on entry.
        let exit = unsafe { code.enter(&mut ctx) };
        // Each chained successor is a block dispatch that never returned
        // to Rust; fold it into the same counters the slow tier bumps.
        self.jit.stats.chained_dispatches += ctx.chained;
        self.sb.stats.dispatches += ctx.chained;
        // The block executing at exit time. SAFETY: `ctx.node` is either
        // the entry node (kept alive by the local `node` Arc) or a chain
        // successor the registry still holds.
        let cur = unsafe { &*ctx.node };
        let block = cur.block();
        match exit {
            jit::EXIT_NEXT => {
                // Body and terminator fully retired natively; the live
                // counters were committed in host code at the exit.
                flight.cycles = ctx.cycles;
                flight.instructions = ctx.instructions;
                *pc_io = ctx.next_pc;
                // A static edge missed its link (or failed the fuel
                // check): remember it so the very next dispatch can
                // install the link if it lands on the target.
                self.jit.pending = (self.jit.chain_enabled && ctx.link_edge != jit::LINK_NONE)
                    .then_some(jit::PendingLink {
                        from_pc: ctx.link_from,
                        edge: ctx.link_edge as u8,
                        to_pc: ctx.next_pc,
                    });
                Ok(BlockExit::Continue)
            }
            jit::EXIT_TERM => {
                // Body retired; the terminator (CSR/ecall/ebreak) needs
                // the interpreter core — same as `exec_block`'s tail.
                flight.cycles = ctx.cycles + u64::from(block.body_cycles) + ctx.dyn_cycles;
                flight.instructions = ctx.instructions + u64::from(block.body_instrs);
                let Terminator::Plain { inst, word, len } = block.term else {
                    unreachable!("EXIT_TERM only emitted for plain terminators");
                };
                flight.charge(timing::BASE);
                flight.instructions += 1;
                match self.execute(block.term_pc, word, inst, u32::from(len), flight) {
                    Ok(Some(next_pc)) => {
                        *pc_io = next_pc;
                        Ok(BlockExit::Continue)
                    }
                    Ok(None) => {
                        *pc_io = block.term_pc;
                        Ok(BlockExit::Ecall)
                    }
                    Err(trap) => {
                        *pc_io = block.term_pc;
                        Err(trap)
                    }
                }
            }
            jit::EXIT_TRAP_MEM => {
                // Rebuild the oracle's counters from the faulting op's
                // prefix sums, mirroring `exec_block`'s `partial!` paths.
                let op = &block.ops[ctx.exit_op as usize];
                let (extra_cycles, extra_instrs, at) = op.fault_point();
                flight.cycles =
                    ctx.cycles + u64::from(op.cycles_before + extra_cycles) + ctx.dyn_cycles;
                flight.instructions = ctx.instructions + u64::from(op.instrs_before + extra_instrs);
                *pc_io = at;
                Err(Trap::MemoryFault {
                    pc: at,
                    addr: ctx.fault_addr,
                })
            }
            jit::EXIT_STORE_STALE => {
                // The store retired but invalidated the running block:
                // stop before the next op, exactly like the interpreter.
                self.sb.stats.store_bails += 1;
                let k = ctx.exit_op as usize;
                let op = &block.ops[k];
                let resume = block.ops.get(k + 1).map_or(block.term_pc, |next| next.pc);
                flight.cycles =
                    ctx.cycles + u64::from(op.cycles_before + timing::BASE) + ctx.dyn_cycles;
                flight.instructions = ctx.instructions + u64::from(op.instrs_before) + 1;
                *pc_io = resume;
                Ok(BlockExit::Continue)
            }
            other => unreachable!("unknown jit exit code {other}"),
        }
    }

    /// Execute one compiled superblock. On entry `flight` holds the
    /// counters as of the block head; on any exit they hold exactly what
    /// the oracle would report, and `*pc_io` the PC it would sit at:
    ///
    /// * happy path — the block's static totals (plus dynamic PQ stalls)
    ///   are charged once, the terminator executes on the shared core;
    /// * trap at op `k` — counters rebuilt from the op's prefix sums plus
    ///   [`crate::superblock::BlockOp::fault_point`] (the faulting
    ///   instruction's base cycle; fused pairs also charge their completed
    ///   first half), PC at the faulting instruction;
    /// * store-invalidation bail — the store retires normally, then the
    ///   block stops *before* the next op and dispatch resumes there, so
    ///   a store into the running block is architecturally invisible.
    fn exec_block(
        &mut self,
        cached: &CachedBlock,
        pc_io: &mut u32,
        flight: &mut Flight,
    ) -> Result<BlockExit, Trap> {
        let block = &*cached.block;
        let entry_cycles = flight.cycles;
        let entry_instrs = flight.instructions;
        // PQ stalls are device-reported at execution time; trap paths
        // fold the accumulator into the static prefix sums.
        let mut dyn_cycles: u64 = 0;
        macro_rules! partial {
            ($op:expr, $extra_cycles:expr, $extra_instrs:expr, $at:expr) => {
                flight.cycles =
                    entry_cycles + u64::from($op.cycles_before + $extra_cycles) + dyn_cycles;
                flight.instructions = entry_instrs + u64::from($op.instrs_before + $extra_instrs);
                *pc_io = $at;
            };
        }
        macro_rules! fault {
            ($op:expr, $trap:expr) => {{
                let (extra_cycles, extra_instrs, at) = $op.fault_point();
                partial!($op, extra_cycles, extra_instrs, at);
                return Err($trap);
            }};
        }
        for (k, op) in block.ops.iter().enumerate() {
            match op.kind {
                OpKind::LoadImm { rd, value } => self.wreg(rd, value),
                OpKind::Auipc { rd, value } => self.wreg(rd, value),
                OpKind::OpImm { op, rd, rs1, imm } => {
                    let v = alu(op, self.rreg(rs1), imm);
                    self.wreg(rd, v);
                }
                OpKind::Op { op, rd, rs1, rs2 } => {
                    let v = alu(op, self.rreg(rs1), self.rreg(rs2));
                    self.wreg(rd, v);
                }
                OpKind::Load {
                    op: lop,
                    rd,
                    rs1,
                    offset,
                } => {
                    let addr = self.rreg(rs1).wrapping_add(offset);
                    match self.load_value(op.pc, lop, addr) {
                        Ok(v) => self.wreg(rd, v),
                        Err(trap) => fault!(op, trap),
                    }
                }
                OpKind::AuipcLoad {
                    op: lop,
                    rd,
                    lrd,
                    addr,
                    value,
                    pc2,
                } => {
                    // The auipc half always retires, even when the load
                    // (the second instruction of the pair) faults.
                    self.wreg(rd, value);
                    match self.load_value(pc2, lop, addr) {
                        Ok(v) => self.wreg(lrd, v),
                        Err(trap) => fault!(op, trap),
                    }
                }
                OpKind::LoadUse {
                    lop,
                    lrd,
                    lrs1,
                    loffset,
                    aop,
                    ard,
                    ars1,
                    asrc,
                } => {
                    let addr = self.rreg(lrs1).wrapping_add(loffset);
                    match self.load_value(op.pc, lop, addr) {
                        Ok(v) => {
                            self.wreg(lrd, v);
                            let a = self.rreg(ars1);
                            let b = match asrc {
                                Src2::Imm(imm) => imm,
                                Src2::Reg(r) => self.rreg(r),
                            };
                            self.wreg(ard, alu(aop, a, b));
                        }
                        Err(trap) => fault!(op, trap),
                    }
                }
                OpKind::Store {
                    op: sop,
                    rs1,
                    rs2,
                    offset,
                } => {
                    let addr = self.rreg(rs1).wrapping_add(offset);
                    let value = self.rreg(rs2);
                    match self.store_value(op.pc, sop, addr, value) {
                        Ok(()) => {
                            // The store may have rewritten code this very
                            // block was compiled from — bail before the
                            // next (possibly stale) op if so.
                            if !cached.lines_current(&self.cache) {
                                self.sb.stats.store_bails += 1;
                                let resume =
                                    block.ops.get(k + 1).map_or(block.term_pc, |next| next.pc);
                                partial!(op, timing::BASE, 1, resume);
                                return Ok(BlockExit::Continue);
                            }
                        }
                        Err(trap) => fault!(op, trap),
                    }
                }
                OpKind::Fence => {}
                OpKind::Pq { unit, rd, rs1, rs2 } => {
                    let (value, stall) = self.pq.issue(unit, self.rreg(rs1), self.rreg(rs2));
                    self.wreg(rd, value);
                    dyn_cycles += stall;
                }
            }
        }
        // Whole body retired: charge its totals once, then terminate.
        flight.cycles = entry_cycles + u64::from(block.body_cycles) + dyn_cycles;
        flight.instructions = entry_instrs + u64::from(block.body_instrs);
        match block.term {
            Terminator::FallThrough => {
                *pc_io = block.term_pc;
                Ok(BlockExit::Continue)
            }
            Terminator::Plain { inst, word, len } => {
                flight.charge(timing::BASE);
                flight.instructions += 1;
                match self.execute(block.term_pc, word, inst, u32::from(len), flight) {
                    Ok(Some(next_pc)) => {
                        *pc_io = next_pc;
                        Ok(BlockExit::Continue)
                    }
                    Ok(None) => {
                        *pc_io = block.term_pc;
                        Ok(BlockExit::Ecall)
                    }
                    Err(trap) => {
                        *pc_io = block.term_pc;
                        Err(trap)
                    }
                }
            }
            Terminator::CmpBranch {
                aop,
                ard,
                ars1,
                asrc,
                bop,
                brs1,
                brs2,
                taken_pc,
                fall_pc,
                cycles,
            } => {
                flight.charge(cycles);
                flight.instructions += 2;
                let a = self.rreg(ars1);
                let b = match asrc {
                    Src2::Imm(imm) => imm,
                    Src2::Reg(r) => self.rreg(r),
                };
                let v = alu(aop, a, b);
                self.wreg(ard, v);
                let x = self.rreg(brs1);
                let y = self.rreg(brs2);
                *pc_io = if branch_taken(bop, x, y) {
                    flight.charge(timing::TAKEN_BRANCH);
                    taken_pc
                } else {
                    fall_pc
                };
                Ok(BlockExit::Continue)
            }
        }
    }

    fn exit_state(&self) -> ExitState {
        ExitState {
            regs: self.regs,
            pc: self.pc,
            cycles: self.cycles,
            instructions: self.instructions,
        }
    }
}

/// Fetch the instruction at `pc` from `ram`: the decoded form, the raw
/// (decompressed) 32-bit word and the length in bytes (2 or 4), or the
/// trap the core raises — a `MemoryFault` at `pc` when the halfword, or a
/// 32-bit encoding's tail, runs off RAM, and an `IllegalInstruction` when
/// decompression or decode fails. The one place an instruction is read
/// from RAM: [`Cpu::step`] fetches through it on every instruction, and
/// the predecode fill caches its result, trap included, per halfword slot.
#[inline]
pub(crate) fn fetch(ram: &[u8], pc: u32) -> Result<(Inst, u32, u8), Trap> {
    let halfword = |a: usize| ram.get(a..a + 2).map(|b| u16::from_le_bytes([b[0], b[1]]));
    let fault = Trap::MemoryFault { pc, addr: pc };
    let half = halfword(pc as usize).ok_or(fault)?;
    let (word, len) = if half & 0x3 == 0x3 {
        let tail = halfword(pc as usize + 2).ok_or(fault)?;
        (u32::from(tail) << 16 | u32::from(half), 4)
    } else {
        let word = decompress(half).map_err(|e| Trap::IllegalInstruction { pc, word: e.word })?;
        (word, 2)
    };
    let inst = decode(word).map_err(|e| Trap::IllegalInstruction { pc, word: e.word })?;
    Ok((inst, word, len))
}

/// The branch comparison, shared by the execute core and the fused
/// compare-and-branch terminator.
#[inline(always)]
fn branch_taken(op: BranchOp, a: u32, b: u32) -> bool {
    match op {
        BranchOp::Eq => a == b,
        BranchOp::Ne => a != b,
        BranchOp::Lt => (a as i32) < (b as i32),
        BranchOp::Ge => (a as i32) >= (b as i32),
        BranchOp::Ltu => a < b,
        BranchOp::Geu => a >= b,
    }
}

#[inline(always)]
pub(crate) fn alu(op: AluOp, a: u32, b: u32) -> u32 {
    match op {
        AluOp::Add => a.wrapping_add(b),
        AluOp::Sub => a.wrapping_sub(b),
        AluOp::Sll => a << (b & 31),
        AluOp::Slt => u32::from((a as i32) < (b as i32)),
        AluOp::Sltu => u32::from(a < b),
        AluOp::Xor => a ^ b,
        AluOp::Srl => a >> (b & 31),
        AluOp::Sra => ((a as i32) >> (b & 31)) as u32,
        AluOp::Or => a | b,
        AluOp::And => a & b,
        AluOp::Mul => a.wrapping_mul(b),
        AluOp::Mulh => (((a as i32 as i64) * (b as i32 as i64)) >> 32) as u32,
        AluOp::Mulhsu => (((a as i32 as i64) * (b as u64 as i64)) >> 32) as u32,
        AluOp::Mulhu => ((u64::from(a) * u64::from(b)) >> 32) as u32,
        AluOp::Div => {
            if b == 0 {
                u32::MAX
            } else if a == 0x8000_0000 && b == u32::MAX {
                a
            } else {
                ((a as i32) / (b as i32)) as u32
            }
        }
        AluOp::Divu => a.checked_div(b).unwrap_or(u32::MAX),
        AluOp::Rem => {
            if b == 0 {
                a
            } else if a == 0x8000_0000 && b == u32::MAX {
                0
            } else {
                ((a as i32) % (b as i32)) as u32
            }
        }
        AluOp::Remu => {
            if b == 0 {
                a
            } else {
                a % b
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;

    fn run_program(src: &str) -> ExitState {
        let words = assemble(src).unwrap();
        let mut cpu = Cpu::new(1 << 20);
        cpu.load_words(0, &words);
        cpu.run(1_000_000).unwrap()
    }

    #[test]
    fn arithmetic_and_logic() {
        let exit = run_program(
            r#"
                li   t0, 100
                li   t1, 7
                add  a0, t0, t1      # 107
                sub  a1, t0, t1      # 93
                and  a2, t0, t1      # 4
                or   a3, t0, t1      # 103
                xor  a4, t0, t1      # 99
                ecall
            "#,
        );
        assert_eq!(exit.reg(10), 107);
        assert_eq!(exit.reg(11), 93);
        assert_eq!(exit.reg(12), 100 & 7);
        assert_eq!(exit.reg(13), 100 | 7);
        assert_eq!(exit.reg(14), 100 ^ 7);
    }

    #[test]
    fn shifts_and_compares() {
        let exit = run_program(
            r#"
                li   t0, -16
                srai a0, t0, 2       # -4
                srli a1, t0, 28      # 15
                slli a2, t0, 1       # -32
                slti a3, t0, 0       # 1
                sltiu a4, t0, 0      # 0
                ecall
            "#,
        );
        assert_eq!(exit.reg(10) as i32, -4);
        assert_eq!(exit.reg(11), 15);
        assert_eq!(exit.reg(12) as i32, -32);
        assert_eq!(exit.reg(13), 1);
        assert_eq!(exit.reg(14), 0);
    }

    #[test]
    fn m_extension() {
        let exit = run_program(
            r#"
                li   t0, -7
                li   t1, 3
                mul  a0, t0, t1      # -21
                div  a1, t0, t1      # -2 (toward zero)
                rem  a2, t0, t1      # -1
                li   t2, 0
                div  a3, t0, t2      # -1 (div by zero => all ones)
                rem  a4, t0, t2      # dividend
                ecall
            "#,
        );
        assert_eq!(exit.reg(10) as i32, -21);
        assert_eq!(exit.reg(11) as i32, -2);
        assert_eq!(exit.reg(12) as i32, -1);
        assert_eq!(exit.reg(13), u32::MAX);
        assert_eq!(exit.reg(14) as i32, -7);
    }

    #[test]
    fn loads_stores_all_widths() {
        let exit = run_program(
            r#"
                li   t0, 0x1000
                li   t1, -2
                sw   t1, 0(t0)
                lb   a0, 0(t0)       # 0xfe sign-extended = -2
                lbu  a1, 0(t0)       # 0xfe = 254
                lh   a2, 0(t0)       # -2
                lhu  a3, 0(t0)       # 0xfffe
                lw   a4, 0(t0)       # -2
                li   t2, 0x1234
                sh   t2, 8(t0)
                lhu  a5, 8(t0)
                ecall
            "#,
        );
        assert_eq!(exit.reg(10) as i32, -2);
        assert_eq!(exit.reg(11), 254);
        assert_eq!(exit.reg(12) as i32, -2);
        assert_eq!(exit.reg(13), 0xfffe);
        assert_eq!(exit.reg(14) as i32, -2);
        assert_eq!(exit.reg(15), 0x1234);
    }

    #[test]
    fn loops_and_branches() {
        // Sum 1..=10 with a loop.
        let exit = run_program(
            r#"
                li   a0, 0
                li   t0, 1
                li   t1, 11
            loop:
                add  a0, a0, t0
                addi t0, t0, 1
                bne  t0, t1, loop
                ecall
            "#,
        );
        assert_eq!(exit.reg(10), 55);
    }

    #[test]
    fn function_call_and_return() {
        let exit = run_program(
            r#"
                li   a0, 20
                jal  ra, double
                jal  ra, double
                ecall
            double:
                add  a0, a0, a0
                ret
            "#,
        );
        assert_eq!(exit.reg(10), 80);
    }

    #[test]
    fn x0_is_hardwired_zero() {
        let exit = run_program(
            r#"
                li   x0, 123
                add  a0, x0, x0
                ecall
            "#,
        );
        assert_eq!(exit.reg(10), 0);
        assert_eq!(exit.reg(0), 0);
    }

    #[test]
    fn taken_branch_costs_more() {
        let taken = run_program(
            r#"
                li t0, 1
                beq t0, t0, skip
                nop
            skip:
                ecall
            "#,
        );
        let not_taken = run_program(
            r#"
                li t0, 1
                beq t0, x0, skip
                nop
            skip:
                ecall
            "#,
        );
        // Same retired instruction count modulo the skipped nop; the taken
        // version pays the flush penalty.
        assert!(taken.cycles >= not_taken.cycles);
    }

    #[test]
    fn memory_fault_traps() {
        let words = assemble("li t0, 0x7fffffff\nlw a0, 0(t0)\necall").unwrap();
        let mut cpu = Cpu::new(1 << 16);
        cpu.load_words(0, &words);
        match cpu.run(100) {
            Err(Trap::MemoryFault { .. }) => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn illegal_instruction_traps() {
        let mut cpu = Cpu::new(1 << 16);
        cpu.load_words(0, &[0xffff_ffff]);
        match cpu.run(10) {
            Err(Trap::IllegalInstruction { .. }) => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn ebreak_traps() {
        let words = assemble("ebreak").unwrap();
        let mut cpu = Cpu::new(1 << 16);
        cpu.load_words(0, &words);
        assert!(matches!(cpu.run(10), Err(Trap::Breakpoint { pc: 0 })));
    }

    #[test]
    fn rdcycle_measures_elapsed_cycles() {
        // Measure the cost of a div instruction from inside the program.
        let exit = run_program(
            r#"
                rdcycle t0
                li   t1, 100
                li   t2, 7
                div  t3, t1, t2
                rdcycle t1
                sub  a0, t1, t0
                ecall
            "#,
        );
        // 2x li (1 each) + div (1 + 34) + the second rdcycle itself (1).
        assert_eq!(exit.reg(10), 2 + 35 + 1);
    }

    #[test]
    fn rdinstret_counts_instructions() {
        let exit = run_program(
            r#"
                rdinstret t0
                nop
                nop
                nop
                rdinstret t1
                sub  a0, t1, t0
                ecall
            "#,
        );
        assert_eq!(exit.reg(10), 4); // 3 nops + the second rdinstret
    }

    #[test]
    fn mscratch_is_readable_and_writable() {
        let exit = run_program(
            r#"
                li    t0, 0x1234
                csrrw zero, mscratch, t0
                csrr  a0, mscratch
                ecall
            "#,
        );
        assert_eq!(exit.reg(10), 0x1234);
    }

    #[test]
    fn writing_read_only_counter_traps() {
        let words = assemble(
            "li t0, 5
csrrw zero, cycle, t0
ecall",
        )
        .unwrap();
        let mut cpu = Cpu::new(1 << 16);
        cpu.load_words(0, &words);
        assert!(matches!(cpu.run(10), Err(Trap::IllegalInstruction { .. })));
    }

    #[test]
    fn unknown_csr_traps() {
        let words = assemble(
            "csrr a0, 0x7c0
ecall",
        )
        .unwrap();
        let mut cpu = Cpu::new(1 << 16);
        cpu.load_words(0, &words);
        assert!(matches!(cpu.run(10), Err(Trap::IllegalInstruction { .. })));
    }

    #[test]
    fn out_of_fuel() {
        let words = assemble("loop: j loop").unwrap();
        let mut cpu = Cpu::new(1 << 16);
        cpu.load_words(0, &words);
        assert!(matches!(cpu.run(100), Err(Trap::OutOfFuel)));
    }
}
