//! The x86-64 (SysV, Linux) emitter behind [`crate::jit`].
//!
//! One superblock becomes one `extern "C" fn(*mut JitCtx) -> u32` with a
//! second, chain entry point just past the prologue (see the
//! [`crate::jit`] module docs). The calling convention inside a block:
//!
//! * `rbx` — the [`crate::jit::JitCtx`] pointer,
//! * `r14` — the guest register file base (`ctx.regs`),
//! * `r12` — guest RAM base (`ctx.ram`),
//! * `rbp`/`r13`/`r15` — the block's pinned guest registers (the three
//!   hottest pre-resolved register indices, loaded at the chain entry and
//!   spilled on every exit path),
//! * `eax`/`ecx`/`edx` — scratch; unpinned guest registers stay
//!   memory-resident at `[r14 + 4*idx]` (disp8-addressable for all 32).
//!
//! All block-lived registers are callee-saved, so nothing is live across
//! the helper calls (PQ-ALU, division, store invalidation) by the SysV
//! ABI, and the helpers never touch the guest register file — pins
//! survive them without spilling.
//!
//! Writes to guest `x0` are elided at emit time; reads rely on the
//! `regs[0] == 0` invariant the interpreter maintains. Loads and stores
//! bounds-check `zext(addr) + width` against `ctx.ram_len` (exactly the
//! interpreter's `addr as usize + size > ram.len()`), jumping to a
//! per-op fault stub that reports [`crate::jit::EXIT_TRAP_MEM`]. Stores
//! additionally call the invalidation helper and bail through a stale
//! stub ([`crate::jit::EXIT_STORE_STALE`]) when they rewrote the running
//! block's own code lines. The prologue's `sub rsp, 8` keeps `rsp`
//! 16-byte aligned at every helper call site.
//!
//! Every fully-retiring exit commits the block's cycle/instruction
//! totals into the context in host code; a static-successor exit then
//! consults its [`crate::jit::ChainNode`] out-slot and either jumps
//! straight into the successor's chain entry (fuel permitting) or takes
//! the `EXIT_NEXT` path with `link_edge`/`link_from` filled in so the
//! dispatch loop can install the link.

use super::{ctx_off, node_off, EXIT_NEXT, EXIT_STORE_STALE, EXIT_TERM, EXIT_TRAP_MEM, LINK_NONE};
use crate::inst::{AluOp, BranchOp, Inst, LoadOp, StoreOp};
use crate::superblock::{Block, OpKind, Src2, Terminator};
use crate::timing;

/// Process-constant helper entry points baked into emitted code as
/// absolute `imm64` call targets.
pub(super) struct Helpers {
    pub(super) div: usize,
    pub(super) pq: usize,
    pub(super) store_inval: usize,
}

const EAX: u8 = 0;
const ECX: u8 = 1;
const EDX: u8 = 2;

/// Callee-saved hosts available for guest-register pinning, in
/// assignment order. `rbx`/`r12`/`r14` are the block bases.
const PIN_HOSTS: [u8; 3] = [5, 13, 15]; // rbp, r13, r15

/// Condition-code byte (`0F cc` long jump) that branches when the RISC-V
/// comparison holds.
fn branch_cc(op: BranchOp) -> u8 {
    match op {
        BranchOp::Eq => 0x84,  // je
        BranchOp::Ne => 0x85,  // jne
        BranchOp::Lt => 0x8c,  // jl
        BranchOp::Ge => 0x8d,  // jge
        BranchOp::Ltu => 0x82, // jb
        BranchOp::Geu => 0x83, // jae
    }
}

fn load_width(op: LoadOp) -> u8 {
    match op {
        LoadOp::Byte | LoadOp::ByteU => 1,
        LoadOp::Half | LoadOp::HalfU => 2,
        LoadOp::Word => 4,
    }
}

fn store_width(op: StoreOp) -> u8 {
    match op {
        StoreOp::Byte => 1,
        StoreOp::Half => 2,
        StoreOp::Word => 4,
    }
}

/// Exit stubs shared per faulting/bailing op, emitted after the body.
enum Stub {
    /// Memory fault at op `k`; the faulting address is live in `eax`.
    Fault(u32),
    /// Store at op `k` invalidated the running block.
    Stale(u32),
}

/// A tiny one-pass assembler: bytes plus label/rel32 fixups, plus the
/// block's guest-register pin assignment (consulted by every guest
/// register accessor).
struct Asm {
    code: Vec<u8>,
    labels: Vec<Option<usize>>,
    fixups: Vec<(usize, usize)>,
    /// `(guest, host)` pin pairs (≤ [`PIN_HOSTS`] entries).
    pins: Vec<(u8, u8)>,
}

impl Asm {
    fn new(pins: Vec<(u8, u8)>) -> Self {
        Self {
            code: Vec::with_capacity(1024),
            labels: Vec::new(),
            fixups: Vec::new(),
            pins,
        }
    }

    fn pin_of(&self, guest: u8) -> Option<u8> {
        self.pins
            .iter()
            .find(|&&(g, _)| g == guest)
            .map(|&(_, h)| h)
    }

    fn label(&mut self) -> usize {
        self.labels.push(None);
        self.labels.len() - 1
    }

    fn bind(&mut self, label: usize) {
        self.labels[label] = Some(self.code.len());
    }

    fn bytes(&mut self, bytes: &[u8]) {
        self.code.extend_from_slice(bytes);
    }

    fn d32(&mut self, v: u32) {
        self.code.extend_from_slice(&v.to_le_bytes());
    }

    fn rel32(&mut self, label: usize) {
        self.fixups.push((self.code.len(), label));
        self.d32(0);
    }

    /// `jmp rel32`.
    fn jmp(&mut self, label: usize) {
        self.bytes(&[0xe9]);
        self.rel32(label);
    }

    /// `jcc rel32` (long form).
    fn jcc(&mut self, cc: u8, label: usize) {
        self.bytes(&[0x0f, cc]);
        self.rel32(label);
    }

    /// `mov <dst32>, <src32>` for any host registers.
    fn mov_rr(&mut self, dst: u8, src: u8) {
        let rex = 0x40 | (u8::from(dst >= 8) << 2) | u8::from(src >= 8);
        if rex != 0x40 {
            self.bytes(&[rex]);
        }
        self.bytes(&[0x8b, 0xc0 | ((dst & 7) << 3) | (src & 7)]);
    }

    /// `mov <host32>, [r14 + 4*guest]` — read a guest register from the
    /// register file, bypassing the pin map (pin fills only).
    fn load_guest_mem(&mut self, host: u8, guest: u8) {
        let rex = 0x41 | (u8::from(host >= 8) << 2);
        self.bytes(&[rex, 0x8b, 0x40 | ((host & 7) << 3) | 6, 4 * (guest & 31)]);
    }

    /// `mov [r14 + 4*guest], <host32>` — write a guest register to the
    /// register file, bypassing the pin map (spills only).
    fn store_guest_mem(&mut self, guest: u8, host: u8) {
        let rex = 0x41 | (u8::from(host >= 8) << 2);
        self.bytes(&[rex, 0x89, 0x40 | ((host & 7) << 3) | 6, 4 * (guest & 31)]);
    }

    /// Read a guest register into `<host32>` (from its pin if pinned).
    fn load_guest(&mut self, host: u8, guest: u8) {
        match self.pin_of(guest) {
            Some(pin) => self.mov_rr(host, pin),
            None => self.load_guest_mem(host, guest),
        }
    }

    /// Write `<host32>` to a guest register (to its pin if pinned). The
    /// caller guards `guest != 0`.
    fn store_guest(&mut self, guest: u8, host: u8) {
        match self.pin_of(guest) {
            Some(pin) => self.mov_rr(pin, host),
            None => self.store_guest_mem(guest, host),
        }
    }

    /// Write `imm32` to a guest register (to its pin if pinned).
    fn store_guest_imm(&mut self, guest: u8, imm: u32) {
        match self.pin_of(guest) {
            Some(pin) => self.mov_imm(pin, imm),
            None => {
                self.bytes(&[0x41, 0xc7, 0x46, 4 * (guest & 31)]);
                self.d32(imm);
            }
        }
    }

    /// Load every pin from the register file (chain entry).
    fn load_pins(&mut self) {
        for i in 0..self.pins.len() {
            let (guest, host) = self.pins[i];
            self.load_guest_mem(host, guest);
        }
    }

    /// Spill every pin back to the register file. Clobbers no scratch
    /// register (safe on fault paths where `eax` is live).
    fn spill_pins(&mut self) {
        for i in 0..self.pins.len() {
            let (guest, host) = self.pins[i];
            self.store_guest_mem(guest, host);
        }
    }

    /// `mov <host32>, imm32` for any host register.
    fn mov_imm(&mut self, host: u8, imm: u32) {
        if host >= 8 {
            self.bytes(&[0x41]);
        }
        self.bytes(&[0xb8 + (host & 7)]);
        self.d32(imm);
    }

    /// `mov dword [rbx + off], imm32` — write a `u32` context field.
    fn ctx_store_imm(&mut self, off: u8, imm: u32) {
        self.bytes(&[0xc7, 0x43, off]);
        self.d32(imm);
    }

    /// `mov [rbx + off], eax`.
    fn ctx_store_eax(&mut self, off: u8) {
        self.bytes(&[0x89, 0x43, off]);
    }

    /// `add qword [rbx + off], imm32` (elided when zero).
    fn ctx_add_imm(&mut self, off: u8, imm: u32) {
        if imm != 0 {
            self.bytes(&[0x48, 0x81, 0x40 | 3, off]);
            self.d32(imm);
        }
    }

    /// `mov rax, imm64; call rax` — call a helper at a process-constant
    /// address. `rsp` is 16-byte aligned here by the prologue.
    fn call(&mut self, addr: usize) {
        self.bytes(&[0x48, 0xb8]);
        self.code.extend_from_slice(&(addr as u64).to_le_bytes());
        self.bytes(&[0xff, 0xd0]);
    }

    /// `add eax, imm32` (elided when zero).
    fn add_eax(&mut self, imm: u32) {
        if imm != 0 {
            self.bytes(&[0x05]);
            self.d32(imm);
        }
    }

    /// Bounds check: `lea rcx, [rax + width]; cmp rcx, [rbx + RAM_LEN];
    /// ja fault`. `eax` holds the (zero-extended) guest address.
    fn bounds_check(&mut self, width: u8, fault: usize) {
        self.bytes(&[0x48, 0x8d, 0x48, width]);
        self.bytes(&[0x48, 0x3b, 0x4b, ctx_off::RAM_LEN]);
        self.jcc(0x87, fault); // ja: zext(addr) + width > ram_len
    }

    /// RISC-V ALU op with `a` in `eax`, `b` in `ecx`; result in `eax`.
    /// Divisions call the edge-case helper (cycles are statically
    /// accounted elsewhere).
    fn alu(&mut self, op: AluOp, helpers: &Helpers) {
        match op {
            AluOp::Add => self.bytes(&[0x01, 0xc8]),
            AluOp::Sub => self.bytes(&[0x29, 0xc8]),
            AluOp::Xor => self.bytes(&[0x31, 0xc8]),
            AluOp::Or => self.bytes(&[0x09, 0xc8]),
            AluOp::And => self.bytes(&[0x21, 0xc8]),
            // x86 masks 32-bit shift counts to 5 bits, same as `b & 31`.
            AluOp::Sll => self.bytes(&[0xd3, 0xe0]),
            AluOp::Srl => self.bytes(&[0xd3, 0xe8]),
            AluOp::Sra => self.bytes(&[0xd3, 0xf8]),
            AluOp::Slt => self.bytes(&[0x39, 0xc8, 0x0f, 0x9c, 0xc0, 0x0f, 0xb6, 0xc0]),
            AluOp::Sltu => self.bytes(&[0x39, 0xc8, 0x0f, 0x92, 0xc0, 0x0f, 0xb6, 0xc0]),
            AluOp::Mul => self.bytes(&[0x0f, 0xaf, 0xc1]),
            AluOp::Mulh => {
                // movsxd rax,eax; movsxd rcx,ecx; imul rax,rcx; shr rax,32
                self.bytes(&[0x48, 0x63, 0xc0, 0x48, 0x63, 0xc9]);
                self.bytes(&[0x48, 0x0f, 0xaf, 0xc1, 0x48, 0xc1, 0xe8, 0x20]);
            }
            AluOp::Mulhsu => {
                // movsxd rax,eax; mov ecx,ecx (zext); imul; shr 32
                self.bytes(&[0x48, 0x63, 0xc0, 0x89, 0xc9]);
                self.bytes(&[0x48, 0x0f, 0xaf, 0xc1, 0x48, 0xc1, 0xe8, 0x20]);
            }
            AluOp::Mulhu => {
                // mov eax,eax; mov ecx,ecx (both zext); imul; shr 32
                self.bytes(&[0x89, 0xc0, 0x89, 0xc9]);
                self.bytes(&[0x48, 0x0f, 0xaf, 0xc1, 0x48, 0xc1, 0xe8, 0x20]);
            }
            AluOp::Div | AluOp::Divu | AluOp::Rem | AluOp::Remu => {
                let sel = match op {
                    AluOp::Div => 0,
                    AluOp::Divu => 1,
                    AluOp::Rem => 2,
                    _ => 3,
                };
                self.bytes(&[0x89, 0xc6]); // mov esi, eax (a)
                self.bytes(&[0x89, 0xca]); // mov edx, ecx (b)
                self.mov_imm(7, sel); // mov edi, sel
                self.call(helpers.div);
            }
        }
    }

    /// Load `b` into `ecx` from a [`Src2`].
    fn load_src2(&mut self, src: Src2) {
        match src {
            Src2::Imm(imm) => self.mov_imm(ECX, imm),
            Src2::Reg(r) => self.load_guest(ECX, r),
        }
    }

    /// Memory read at the guest address in `eax` into `edx`, with the
    /// RISC-V width/extension.
    fn read_ram(&mut self, op: LoadOp) {
        // [r12 + rax] — modrm 0x14 (edx, SIB), SIB 0x04 (base r12, index rax).
        match op {
            LoadOp::Byte => self.bytes(&[0x41, 0x0f, 0xbe, 0x14, 0x04]),
            LoadOp::Half => self.bytes(&[0x41, 0x0f, 0xbf, 0x14, 0x04]),
            LoadOp::Word => self.bytes(&[0x41, 0x8b, 0x14, 0x04]),
            LoadOp::ByteU => self.bytes(&[0x41, 0x0f, 0xb6, 0x14, 0x04]),
            LoadOp::HalfU => self.bytes(&[0x41, 0x0f, 0xb7, 0x14, 0x04]),
        }
    }

    /// Memory write of `edx` at the guest address in `eax`.
    fn write_ram(&mut self, op: StoreOp) {
        match op {
            StoreOp::Byte => self.bytes(&[0x41, 0x88, 0x14, 0x04]),
            StoreOp::Half => self.bytes(&[0x66, 0x41, 0x89, 0x14, 0x04]),
            StoreOp::Word => self.bytes(&[0x41, 0x89, 0x14, 0x04]),
        }
    }

    /// Commit the fully-retired block's totals into the context:
    /// `ctx.cycles += body + extra (+ dyn, zeroing it)` and
    /// `ctx.instructions += total`. Clobbers `rax` when the block has
    /// dynamic (PQ) cycles.
    fn commit_accounting(&mut self, block: &Block, extra: u32, has_dyn: bool) {
        let static_cycles = block.body_cycles.wrapping_add(extra);
        if has_dyn {
            self.bytes(&[0x48, 0x8b, 0x43, ctx_off::DYN_CYCLES]); // mov rax, [rbx+DYN]
            self.bytes(&[0x48, 0xc7, 0x43, ctx_off::DYN_CYCLES]); // mov qword [rbx+DYN], 0
            self.d32(0);
            if static_cycles != 0 {
                self.bytes(&[0x48, 0x05]); // add rax, imm32
                self.d32(static_cycles);
            }
            self.bytes(&[0x48, 0x01, 0x43, ctx_off::CYCLES]); // add [rbx+CYCLES], rax
        } else {
            self.ctx_add_imm(ctx_off::CYCLES, static_cycles);
        }
        self.ctx_add_imm(ctx_off::INSTRUCTIONS, block.total_instrs as u32);
    }

    fn finish(self) -> Assembled {
        (self.code, self.fixups, self.labels)
    }
}

/// What [`Asm::finish`] hands back: the code bytes, the pending
/// label fixups as `(patch_site, label)` pairs, and the label targets.
type Assembled = (Vec<u8>, Vec<(usize, usize)>, Vec<Option<usize>>);

fn tally(count: &mut [u32; 32], r: u8) {
    if r & 31 != 0 {
        count[(r & 31) as usize] += 1;
    }
}

fn tally_src2(count: &mut [u32; 32], src: Src2) {
    if let Src2::Reg(r) = src {
        tally(count, r);
    }
}

/// Count guest-register accesses and pick the pin assignment: the up-to-3
/// hottest registers touched at least twice (a single touch never pays
/// for its entry load plus per-exit spill). `x0` is never pinned.
fn pick_pins(block: &Block) -> Vec<(u8, u8)> {
    let mut count = [0u32; 32];
    let c = &mut count;
    for op in block.ops.iter() {
        match op.kind {
            OpKind::LoadImm { rd, .. } | OpKind::Auipc { rd, .. } => tally(c, rd),
            OpKind::OpImm { rd, rs1, .. } => {
                tally(c, rd);
                tally(c, rs1);
            }
            OpKind::Op { rd, rs1, rs2, .. } => {
                tally(c, rd);
                tally(c, rs1);
                tally(c, rs2);
            }
            OpKind::Load { rd, rs1, .. } => {
                tally(c, rd);
                tally(c, rs1);
            }
            OpKind::AuipcLoad { rd, lrd, .. } => {
                tally(c, rd);
                tally(c, lrd);
            }
            OpKind::LoadUse {
                lrd,
                lrs1,
                ard,
                ars1,
                asrc,
                ..
            } => {
                tally(c, lrd);
                tally(c, lrs1);
                tally(c, ard);
                tally(c, ars1);
                tally_src2(c, asrc);
            }
            OpKind::Store { rs1, rs2, .. } => {
                tally(c, rs1);
                tally(c, rs2);
            }
            OpKind::Fence => {}
            OpKind::Pq { rd, rs1, rs2, .. } => {
                tally(c, rd);
                tally(c, rs1);
                tally(c, rs2);
            }
        }
    }
    match block.term {
        Terminator::Plain { inst, .. } => match inst {
            Inst::Jal { rd, .. } => tally(c, rd),
            Inst::Jalr { rd, rs1, .. } => {
                tally(c, rd);
                tally(c, rs1);
            }
            Inst::Branch { rs1, rs2, .. } => {
                tally(c, rs1);
                tally(c, rs2);
            }
            _ => {}
        },
        Terminator::CmpBranch {
            ard,
            ars1,
            asrc,
            brs1,
            brs2,
            ..
        } => {
            tally(c, ard);
            tally(c, ars1);
            tally(c, brs1);
            tally(c, brs2);
            tally_src2(c, asrc);
        }
        Terminator::FallThrough => {}
    }
    let mut hot: Vec<u8> = (1u8..32).filter(|&r| count[r as usize] >= 2).collect();
    hot.sort_by_key(|&r| (std::cmp::Reverse(count[r as usize]), r));
    hot.truncate(PIN_HOSTS.len());
    hot.iter()
        .zip(PIN_HOSTS)
        .map(|(&guest, host)| (guest, host))
        .collect()
}

/// Lower one block to host code (see the module docs for the register
/// conventions and the [`crate::jit`] docs for the exit protocol).
/// Returns the code bytes and the byte offset of the chain entry.
pub(super) fn emit(block: &Block, helpers: &Helpers) -> (Vec<u8>, usize) {
    let mut a = Asm::new(pick_pins(block));
    let epi = a.label();
    let mut stubs: Vec<(usize, Stub)> = Vec::new();
    let has_dyn = block
        .ops
        .iter()
        .any(|op| matches!(op.kind, OpKind::Pq { .. }));
    let head_pc = block.head_pc;

    // Prologue: save callee-saved registers, align rsp for helper calls,
    // load ctx (rbx), regs (r14), ram (r12).
    a.bytes(&[0x53, 0x41, 0x54, 0x41, 0x55, 0x41, 0x56, 0x41, 0x57, 0x55]);
    a.bytes(&[0x48, 0x83, 0xec, 0x08]); // sub rsp, 8
    a.bytes(&[0x48, 0x89, 0xfb]); // mov rbx, rdi
    a.bytes(&[0x4c, 0x8b, 0x73, ctx_off::REGS]); // mov r14, [rbx+REGS]
    a.bytes(&[0x4c, 0x8b, 0x63, ctx_off::RAM]); // mov r12, [rbx+RAM]

    // Chain entry: a predecessor's link jump lands here — rbx/r14/r12
    // are already live (same CPU, same context), only the pins differ
    // per block.
    let chain_entry = a.code.len();
    a.load_pins();

    for (k, op) in block.ops.iter().enumerate() {
        emit_op(&mut a, &mut stubs, helpers, k as u32, &op.kind);
    }
    emit_terminator(&mut a, helpers, block, head_pc, has_dyn, epi);

    // Per-op exit stubs. Pins spill first (the spill clobbers nothing,
    // so the faulting address stays live in eax).
    for (label, stub) in stubs {
        a.bind(label);
        a.spill_pins();
        match stub {
            Stub::Fault(k) => {
                a.ctx_store_eax(ctx_off::FAULT_ADDR);
                a.ctx_store_imm(ctx_off::EXIT_OP, k);
                a.mov_imm(EAX, EXIT_TRAP_MEM);
                a.jmp(epi);
            }
            Stub::Stale(k) => {
                a.ctx_store_imm(ctx_off::EXIT_OP, k);
                a.mov_imm(EAX, EXIT_STORE_STALE);
                a.jmp(epi);
            }
        }
    }

    // Epilogue: undo the alignment pad, restore, return (eax = exit code).
    a.bind(epi);
    a.bytes(&[0x48, 0x83, 0xc4, 0x08]); // add rsp, 8
    a.bytes(&[
        0x5d, 0x41, 0x5f, 0x41, 0x5e, 0x41, 0x5d, 0x41, 0x5c, 0x5b, 0xc3,
    ]);
    let (mut code, fixups, labels) = a.finish();
    for (pos, label) in fixups {
        let target = labels[label].expect("unbound jit label");
        let rel = (target as i64 - (pos as i64 + 4)) as i32;
        code[pos..pos + 4].copy_from_slice(&rel.to_le_bytes());
    }
    (code, chain_entry)
}

fn emit_op(a: &mut Asm, stubs: &mut Vec<(usize, Stub)>, helpers: &Helpers, k: u32, kind: &OpKind) {
    let fault = |a: &mut Asm, stubs: &mut Vec<(usize, Stub)>| {
        let label = a.label();
        stubs.push((label, Stub::Fault(k)));
        label
    };
    match *kind {
        OpKind::LoadImm { rd, value } | OpKind::Auipc { rd, value } => {
            if rd != 0 {
                a.store_guest_imm(rd, value);
            }
        }
        OpKind::OpImm { op, rd, rs1, imm } => {
            if rd != 0 {
                a.load_guest(EAX, rs1);
                a.mov_imm(ECX, imm);
                a.alu(op, helpers);
                a.store_guest(rd, EAX);
            }
        }
        OpKind::Op { op, rd, rs1, rs2 } => {
            if rd != 0 {
                a.load_guest(EAX, rs1);
                a.load_guest(ECX, rs2);
                a.alu(op, helpers);
                a.store_guest(rd, EAX);
            }
        }
        OpKind::Load {
            op,
            rd,
            rs1,
            offset,
        } => {
            let f = fault(a, stubs);
            a.load_guest(EAX, rs1);
            a.add_eax(offset);
            a.bounds_check(load_width(op), f);
            a.read_ram(op);
            if rd != 0 {
                a.store_guest(rd, EDX);
            }
        }
        OpKind::AuipcLoad {
            op,
            rd,
            lrd,
            addr,
            value,
            ..
        } => {
            // The auipc half retires (writes rd) even if the load faults.
            if rd != 0 {
                a.store_guest_imm(rd, value);
            }
            let f = fault(a, stubs);
            a.mov_imm(EAX, addr);
            a.bounds_check(load_width(op), f);
            a.read_ram(op);
            if lrd != 0 {
                a.store_guest(lrd, EDX);
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
            let f = fault(a, stubs);
            a.load_guest(EAX, lrs1);
            a.add_eax(loffset);
            a.bounds_check(load_width(lop), f);
            a.read_ram(lop);
            if lrd != 0 {
                a.store_guest(lrd, EDX);
            }
            // The ALU half reads the register file after the load wrote
            // it (ars1/asrc may name lrd).
            if ard != 0 {
                a.load_guest(EAX, ars1);
                a.load_src2(asrc);
                a.alu(aop, helpers);
                a.store_guest(ard, EAX);
            }
        }
        OpKind::Store {
            op,
            rs1,
            rs2,
            offset,
        } => {
            let f = fault(a, stubs);
            a.load_guest(EAX, rs1);
            a.add_eax(offset);
            a.bounds_check(store_width(op), f);
            a.load_guest(EDX, rs2);
            a.write_ram(op);
            // Predecode coherency + self-modification check, in Rust.
            a.bytes(&[0x48, 0x89, 0xdf]); // mov rdi, rbx (ctx)
            a.bytes(&[0x89, 0xc6]); // mov esi, eax (addr)
            a.mov_imm(EDX, u32::from(store_width(op)));
            a.call(helpers.store_inval);
            a.bytes(&[0x85, 0xc0]); // test eax, eax
            let stale = a.label();
            stubs.push((stale, Stub::Stale(k)));
            a.jcc(0x85, stale); // jnz: the store hit our own code
        }
        OpKind::Fence => {}
        OpKind::Pq { unit, rd, rs1, rs2 } => {
            // The device always runs (state machine + stall), even when
            // the destination is x0.
            a.bytes(&[0x48, 0x89, 0xdf]); // mov rdi, rbx (ctx)
            a.mov_imm(6, unit.funct3()); // mov esi, funct3
            a.load_guest(EDX, rs1);
            a.load_guest(ECX, rs2);
            a.call(helpers.pq);
            if rd != 0 {
                a.store_guest(rd, EAX);
            }
        }
    }
}

/// Per-block facts every static exit shares: the block, its dispatch
/// anchor PC, whether it accumulates dynamic PQ stalls, and the
/// epilogue label.
struct ExitEnv<'a> {
    block: &'a Block,
    head_pc: u32,
    has_dyn: bool,
    epi: usize,
}

/// A fully-retiring exit to a *static* successor: spill, commit, then
/// try the chain link for `edge` (0 = fall/static next, 1 = taken). A
/// null slot — or too little fuel for the successor's whole block — takes
/// the `EXIT_NEXT` path with the link request filled in.
fn exit_static(a: &mut Asm, env: &ExitEnv, next_pc: u32, extra: u32, edge: u8) {
    let &ExitEnv {
        block,
        head_pc,
        has_dyn,
        epi,
    } = env;
    a.spill_pins();
    a.commit_accounting(block, extra, has_dyn);
    let miss = a.label();
    // rax = ctx.node->out[edge]; null means unlinked.
    a.bytes(&[0x48, 0x8b, 0x43, ctx_off::NODE]);
    a.bytes(&[0x48, 0x8b, 0x40, node_off::OUT + 8 * edge]);
    a.bytes(&[0x48, 0x85, 0xc0]); // test rax, rax
    a.jcc(0x84, miss); // jz
                       // Fuel gate: the dispatch loop's `fuel >= total_instrs` precondition,
                       // applied to the successor in host code.
    a.bytes(&[0x48, 0x8b, 0x48, node_off::TOTAL_INSTRS]); // mov rcx, [rax+TOTAL]
    a.bytes(&[0x48, 0x39, 0x4b, ctx_off::FUEL]); // cmp [rbx+FUEL], rcx
    a.jcc(0x82, miss); // jb: not enough fuel to chain
    a.bytes(&[0x48, 0x29, 0x4b, ctx_off::FUEL]); // sub [rbx+FUEL], rcx
    a.bytes(&[0x48, 0xff, 0x43, ctx_off::CHAINED]); // inc qword [rbx+CHAINED]
                                                    // Switch the context to the successor: node and validity pairs.
    a.bytes(&[0x48, 0x89, 0x43, ctx_off::NODE]); // mov [rbx+NODE], rax
    a.bytes(&[0x48, 0x8d, 0x48, node_off::LINES]); // lea rcx, [rax+LINES]
    a.bytes(&[0x48, 0x89, 0x4b, ctx_off::LINES]); // mov [rbx+LINES], rcx
    a.bytes(&[0x48, 0x8b, 0x48, node_off::LINES_LEN]); // mov rcx, [rax+LINES_LEN]
    a.bytes(&[0x48, 0x89, 0x4b, ctx_off::LINES_LEN]); // mov [rbx+LINES_LEN], rcx
                                                      // jmp qword [rax]: the zero displacement IS node_off::ENTRY.
    const _: () = assert!(node_off::ENTRY == 0);
    a.bytes(&[0xff, 0x20]);
    a.bind(miss);
    a.ctx_store_imm(ctx_off::NEXT_PC, next_pc);
    a.ctx_store_imm(ctx_off::LINK_EDGE, u32::from(edge));
    a.ctx_store_imm(ctx_off::LINK_FROM, head_pc);
    a.mov_imm(EAX, EXIT_NEXT);
    a.jmp(epi);
}

fn emit_terminator(
    a: &mut Asm,
    helpers: &Helpers,
    block: &Block,
    head_pc: u32,
    has_dyn: bool,
    epi: usize,
) {
    let env = &ExitEnv {
        block,
        head_pc,
        has_dyn,
        epi,
    };
    match block.term {
        Terminator::FallThrough => exit_static(a, env, block.term_pc, 0, 0),
        Terminator::Plain { inst, len, .. } => {
            let fall_pc = block.term_pc.wrapping_add(u32::from(len));
            match inst {
                Inst::Jal { rd, offset } => {
                    if rd != 0 {
                        a.store_guest_imm(rd, fall_pc);
                    }
                    let target = block.term_pc.wrapping_add(offset as u32);
                    exit_static(a, env, target, timing::static_cycles(&inst), 0);
                }
                Inst::Jalr { rd, rs1, offset } => {
                    // Target first: rs1 may alias rd.
                    a.load_guest(EAX, rs1);
                    a.add_eax(offset as u32);
                    a.bytes(&[0x83, 0xe0, 0xfe]); // and eax, -2
                    if rd != 0 {
                        a.store_guest_imm(rd, fall_pc);
                    }
                    a.spill_pins();
                    a.ctx_store_eax(ctx_off::NEXT_PC);
                    // Dynamic target: never linkable (commit clobbers rax
                    // only after next_pc is stored).
                    a.commit_accounting(block, timing::static_cycles(&inst), has_dyn);
                    a.ctx_store_imm(ctx_off::LINK_EDGE, LINK_NONE);
                    a.mov_imm(EAX, EXIT_NEXT);
                    a.jmp(epi);
                }
                Inst::Branch {
                    op,
                    rs1,
                    rs2,
                    offset,
                } => {
                    a.load_guest(EAX, rs1);
                    a.load_guest(ECX, rs2);
                    a.bytes(&[0x39, 0xc8]); // cmp eax, ecx
                    let taken = a.label();
                    a.jcc(branch_cc(op), taken);
                    let cycles = timing::static_cycles(&inst);
                    exit_static(a, env, fall_pc, cycles, 0);
                    a.bind(taken);
                    let target = block.term_pc.wrapping_add(offset as u32);
                    exit_static(a, env, target, cycles + timing::TAKEN_BRANCH, 1);
                }
                // CSR reads must observe live counters, ecall/ebreak need
                // the interpreter's exit/trap plumbing: hand back to Rust
                // (which runs the shared execute core — correct for any
                // terminator, so this is also the safe default).
                _ => {
                    a.spill_pins();
                    a.mov_imm(EAX, EXIT_TERM);
                    a.jmp(epi);
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
            if ard != 0 {
                a.load_guest(EAX, ars1);
                a.load_src2(asrc);
                a.alu(aop, helpers);
                a.store_guest(ard, EAX);
            }
            // The compare reads the register file after the ALU write
            // (brs1/brs2 name ard in the fused idiom).
            a.load_guest(EAX, brs1);
            a.load_guest(ECX, brs2);
            a.bytes(&[0x39, 0xc8]); // cmp eax, ecx
            let taken = a.label();
            a.jcc(branch_cc(bop), taken);
            exit_static(a, env, fall_pc, cycles, 0);
            a.bind(taken);
            exit_static(a, env, taken_pc, cycles + timing::TAKEN_BRANCH, 1);
        }
    }
}
