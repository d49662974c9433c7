//! Differential cases shared by the two fast-engine suites:
//! `riscv_predecode.rs` runs each case on the superblock engine and
//! `riscv_jit.rs` on the JIT, so every case covers both fast tiers once.
//!
//! The decode-every-step classic engine is the oracle, and every
//! observable — the full `ExitState` (register file, PC, modelled cycles,
//! retired instructions), the trap value, and data memory — must be
//! bit-identical to it on randomized programs. The program families
//! target the fast tiers' risk profile: straight-line ALU soup (per-op
//! lowering, fused macro-ops), branchy control flow (terminator lowering,
//! taken-branch cycles, cross-line fetch), compressed mixes (odd halfword
//! boundaries), stores into a hot compiled block (store-driven
//! invalidation; for the JIT, the post-store generation check in emitted
//! code), fuel exhaustion mid-block (dispatch requires whole-block fuel),
//! and traps raised by the last instruction of a fused pair (prefix-sum
//! accounting; the JIT's `EXIT_TRAP_MEM` path).

use crate::common::{addi, bne, hot_self_modifying_words, li, machine_from_words, reg, word};
use lac_rand::prop::{self, ensure, ensure_eq};
use lac_rand::Rng;
use lac_rv32::inst::{AluOp, LoadOp, StoreOp};
use lac_rv32::{jit, Engine, Inst, Machine, Trap};

/// Run the same program on the oracle and each of `engines` and demand
/// identical outcomes.
///
/// `build` must produce a fresh, deterministic machine each call (the
/// runs may not share mutable state). Returns the oracle's outcome for
/// callers that also want to assert against known-good values.
pub fn differential(
    engines: &[Engine],
    build: &dyn Fn() -> Machine,
    fuel: u64,
    data_window: Option<(u32, usize)>,
) -> Result<Result<lac_rv32::ExitState, Trap>, String> {
    let mut oracle = build();
    oracle.cpu_mut().set_engine(Engine::Classic);
    let oracle_outcome = oracle.cpu_mut().run(fuel);

    for &engine in engines {
        let tag = |e: String| format!("[{engine:?}] {e}");
        let mut fast = build();
        fast.cpu_mut().set_engine(engine);
        let fast_outcome = fast.cpu_mut().run(fuel);
        ensure_eq(oracle_outcome.clone(), fast_outcome).map_err(tag)?;
        // On traps `run` returns no snapshot; compare the architectural
        // state through the accessors so trap paths are held to the same
        // standard.
        ensure_eq(oracle.cpu().pc(), fast.cpu().pc()).map_err(tag)?;
        ensure_eq(oracle.cpu().cycles(), fast.cpu().cycles()).map_err(tag)?;
        ensure_eq(oracle.cpu().instructions(), fast.cpu().instructions()).map_err(tag)?;
        for i in 0..32 {
            ensure_eq(oracle.cpu().reg(i), fast.cpu().reg(i)).map_err(tag)?;
        }
        if let Some((addr, len)) = data_window {
            ensure(
                oracle.cpu().read_bytes(addr, len) == fast.cpu().read_bytes(addr, len),
                format!("[{engine:?}] data memory diverged in [{addr:#x}; {len})"),
            )?;
        }
    }
    Ok(oracle_outcome)
}

/// The property name of `case` on `engine` (`jit_branchy`, ...), so each
/// engine's run draws and reports its own seeds.
fn prop_name(engine: Engine, case: &str) -> String {
    format!("{}_{case}", format!("{engine:?}").to_lowercase())
}

/// One random instruction as assembly text: every ALU family the
/// emitter lowers (including div/rem and the mulh variants), plus loads,
/// stores and PQ ops so fused LoadUse / Store / Pq lowering is exercised
/// under entropy. Memory traffic stays inside [0x8000, 0x8800) via x31,
/// seeded once and never clobbered.
pub fn body_line(rng: &mut impl Rng) -> String {
    let rd = reg(rng);
    let rs1 = reg(rng);
    let rs2 = reg(rng);
    let imm = rng.gen_range_i64(-2048, 2047);
    let shamt = rng.gen_below_u32(32);
    let moff = 4 * rng.gen_below_u32(256); // word-aligned, in-window
    match rng.gen_below_u32(26) {
        0 => format!("add x{rd}, x{rs1}, x{rs2}"),
        1 => format!("sub x{rd}, x{rs1}, x{rs2}"),
        2 => format!("xor x{rd}, x{rs1}, x{rs2}"),
        3 => format!("or x{rd}, x{rs1}, x{rs2}"),
        4 => format!("and x{rd}, x{rs1}, x{rs2}"),
        5 => format!("sll x{rd}, x{rs1}, x{rs2}"),
        6 => format!("srl x{rd}, x{rs1}, x{rs2}"),
        7 => format!("sra x{rd}, x{rs1}, x{rs2}"),
        8 => format!("slt x{rd}, x{rs1}, x{rs2}"),
        9 => format!("sltu x{rd}, x{rs1}, x{rs2}"),
        10 => format!("mul x{rd}, x{rs1}, x{rs2}"),
        11 => format!("mulh x{rd}, x{rs1}, x{rs2}"),
        12 => format!("mulhu x{rd}, x{rs1}, x{rs2}"),
        13 => format!("mulhsu x{rd}, x{rs1}, x{rs2}"),
        14 => format!("div x{rd}, x{rs1}, x{rs2}"),
        15 => format!("rem x{rd}, x{rs1}, x{rs2}"),
        16 => format!("addi x{rd}, x{rs1}, {imm}"),
        17 => format!("xori x{rd}, x{rs1}, {imm}"),
        18 => format!("slli x{rd}, x{rs1}, {shamt}"),
        19 => format!("srai x{rd}, x{rs1}, {shamt}"),
        20 => format!("srli x{rd}, x{rs1}, {shamt}"),
        21 => format!("sltiu x{rd}, x{rs1}, {imm}"),
        22 => format!("sw x{rs2}, {moff}(x31)"),
        23 => format!("lw x{rd}, {moff}(x31)"),
        24 => format!("lbu x{rd}, {moff}(x31)\naddi x{rd}, x{rd}, {imm}"), // load-use
        _ => format!("pq.modq x{rd}, x{rs1}, x{rs2}"),
    }
}

/// Seed x5..x15 with random values and x31 with the data window base.
pub fn seed_regs(rng: &mut impl Rng) -> String {
    let mut src: String = (5..16)
        .map(|r| format!("li x{r}, {}\n", rng.next_u32() as i32))
        .collect();
    src.push_str("li x31, 0x8000\n");
    src
}

/// `j offset` (`jal x0`; offset relative to this instruction).
pub fn j(offset: i32) -> Inst {
    Inst::Jal { rd: 0, offset }
}

pub fn straight_line_programs_agree(engine: Engine) {
    prop::check(&prop_name(engine, "straight_line"), 40, |rng| {
        let mut src = seed_regs(rng);
        // Long enough to span several 256-byte predecode lines.
        for _ in 0..rng.gen_range_usize(20..200) {
            src.push_str(&body_line(rng));
            src.push('\n');
        }
        src.push_str("ecall\n");
        let build = move || Machine::assemble(&src).expect("random program assembles");
        let outcome = differential(&[engine], &build, 10_000, Some((0x8000, 0x800)))?;
        ensure(outcome.is_ok(), "straight-line program must reach ecall")
    });
}

pub fn branchy_programs_agree(engine: Engine) {
    prop::check(&prop_name(engine, "branchy"), 40, |rng| {
        let blocks = rng.gen_range_usize(3..10);
        let mut src = seed_regs(rng);
        // A bounded backward loop wrapping forward-branching blocks:
        // termination is structural (the counter strictly decreases and
        // every other branch goes strictly forward). Iteration counts
        // above the hot threshold exercise compiled re-dispatch of the
        // same heads.
        src.push_str(&format!("li x28, {}\n", rng.gen_range_usize(1..12)));
        src.push_str("loop_head:\n");
        for b in 0..blocks {
            src.push_str(&format!("block{b}:\n"));
            for _ in 0..rng.gen_range_usize(1..6) {
                src.push_str(&body_line(rng));
                src.push('\n');
            }
            let target = b + 1 + rng.gen_below_usize(blocks - b);
            let rs1 = reg(rng);
            let rs2 = reg(rng);
            let cond = match rng.gen_below_u32(4) {
                0 => format!("beq x{rs1}, x{rs2}"),
                1 => format!("bne x{rs1}, x{rs2}"),
                2 => format!("bltu x{rs1}, x{rs2}"),
                _ => format!("bge x{rs1}, x{rs2}"),
            };
            if target < blocks {
                src.push_str(&format!("{cond}, block{target}\n"));
            } else {
                src.push_str(&format!("{cond}, loop_tail\n"));
            }
        }
        src.push_str("loop_tail:\n");
        src.push_str("addi x28, x28, -1\n");
        src.push_str("bnez x28, loop_head\n");
        src.push_str("ecall\n");
        let build = move || Machine::assemble(&src).expect("random branchy program assembles");
        let outcome = differential(&[engine], &build, 100_000, Some((0x8000, 0x800)))?;
        ensure(outcome.is_ok(), "branchy program must reach ecall")
    });
}

pub fn store_into_hot_block_bails_exactly(engine: Engine) {
    // Victim flips from `addi x26, x26, 1` to `addi x26, x26, 7` on
    // iteration 8 — well after the engine has compiled the loop.
    let old = word(addi(26, 26, 1));
    let new = word(addi(26, 26, 7));
    let words = hot_self_modifying_words(8, 12, old, new);
    let build = move || machine_from_words(&words);
    let outcome = differential(&[engine], &build, 10_000, None).expect("engines agree");
    let exit = outcome.expect("loop reaches ecall");
    // Iterations 1..=7 bump by 1, 8..=12 by 7 (the patch store precedes
    // the victim within the same iteration).
    assert_eq!(exit.reg(26), 7 + 5 * 7);

    // The engine must really have run the compiled block (emitted code,
    // for the JIT) and bailed on the in-block store, not quietly
    // interpreted everything.
    let mut machine = build();
    machine.cpu_mut().set_engine(engine);
    machine.cpu_mut().run(10_000).expect("runs to ecall");
    let sb_stats = machine.cpu().superblock_stats();
    assert!(sb_stats.dispatches > 0, "[{engine:?}] {sb_stats:?}");
    assert!(sb_stats.store_bails > 0, "[{engine:?}] {sb_stats:?}");
    assert!(sb_stats.stale_drops > 0, "[{engine:?}] {sb_stats:?}");
    if engine == Engine::Jit && jit::host_supported() {
        let jit_stats = machine.cpu().jit_stats();
        assert!(jit_stats.dispatches > 0, "{jit_stats:?}");
    }
}

pub fn hot_self_modifying_loops_agree(engine: Engine) {
    prop::check(&prop_name(engine, "hot_self_modifying"), 40, |rng| {
        // Randomize the patch iteration (before/at/after the hot
        // threshold), the loop bound, and the patched instruction —
        // including words that no longer decode, which must trap
        // identically on every engine.
        let iterations = 5 + rng.gen_below_u32(12);
        let patch_at = 1 + rng.gen_below_u32(iterations);
        let old = word(addi(26, 26, 1));
        let new = match rng.gen_below_u32(3) {
            0 => word(addi(26, 26, rng.gen_range_i64(-2048, 2047) as i32)),
            1 => word(Inst::Op {
                op: AluOp::Mul,
                rd: 26,
                rs1: 26,
                rs2: 26,
            }),
            _ => rng.next_u32(), // possibly an illegal instruction
        };
        let words = hot_self_modifying_words(patch_at, iterations, old, new);
        let build = move || machine_from_words(&words);
        let _ = differential(&[engine], &build, 10_000, None)?;
        Ok(())
    });
}

pub fn trap_on_last_instruction_of_fused_pair(engine: Engine) {
    // Two blocks in different predecode lines. Block A (line 0) patches
    // block B's `auipc x6, 0` to `auipc x6, 0xFFFFF` on iteration 8 — by
    // then B's `auipc`+`lw` pair is hot and fused, so the recompiled
    // block's load (the *second* instruction of one fused op) faults at a
    // precomputed out-of-range address. The oracle retires the auipc and
    // faults on the lw; the engine (the JIT on its EXIT_TRAP_MEM path:
    // auipc half retired, +2/+2) must report the identical trap, PC,
    // counters and x6.
    let old_auipc = word(Inst::Auipc { rd: 6, imm: 0 });
    let new_auipc = word(Inst::Auipc { rd: 6, imm: -4096 }); // auipc x6, 0xfffff
    let patch_at = 8;
    let b_base = 256u32;

    let mut words = Vec::new();
    words.extend(li(20, 0)); // counter
    words.extend(li(23, old_auipc)); // stored word, accumulates delta
    words.extend(li(22, new_auipc.wrapping_sub(old_auipc)));
    words.extend(li(24, b_base)); // &B
    let a_loop = words.len();
    words.push(word(addi(20, 20, 1)));
    words.push(word(addi(21, 20, -patch_at)));
    words.push(word(Inst::OpImm {
        op: AluOp::Sltu,
        rd: 21,
        rs1: 21,
        imm: 1,
    }));
    words.push(word(Inst::Op {
        op: AluOp::Mul,
        rd: 25,
        rs1: 21,
        rs2: 22,
    }));
    words.push(word(Inst::Op {
        op: AluOp::Add,
        rd: 23,
        rs1: 23,
        rs2: 25,
    }));
    // Patch B's auipc (other line: no bail in A).
    words.push(word(Inst::Store {
        op: StoreOp::Word,
        rs1: 24,
        rs2: 23,
        offset: 0,
    }));
    let jal_index = words.len();
    words.push(word(j(b_base as i32 - (jal_index as i32) * 4)));
    while words.len() < (b_base / 4) as usize {
        words.push(0); // never executed
    }
    // Block B: the fused pair, then back to A.
    words.push(old_auipc); // auipc x6, 0        (pc = 256 → x6 = 256)
    words.push(word(Inst::Load {
        op: LoadOp::Word,
        rd: 7,
        rs1: 6,
        offset: 4,
    })); // lw x7, 4(x6)
    let bne_index = words.len();
    words.push(word(bne(0, 20, (a_loop as i32 - bne_index as i32) * 4))); // always taken
    words.push(word(Inst::Ecall)); // unreachable (the run ends in the fault)

    let build = move || machine_from_words(&words);
    let outcome = differential(&[engine], &build, 100_000, None).expect("engines agree");
    match outcome {
        Err(Trap::MemoryFault { pc, addr }) => {
            assert_eq!(pc, b_base + 4, "the lw (second of the pair) faults");
            assert_eq!(addr, b_base.wrapping_add(0xFFFF_F000).wrapping_add(4));
        }
        other => panic!("expected the patched pair to fault, got {other:?}"),
    }

    // Confirm the engine took the compiled path to the fault.
    let mut machine = build();
    machine.cpu_mut().set_engine(engine);
    assert!(machine.cpu_mut().run(100_000).is_err());
    assert_eq!(machine.cpu().reg(6), b_base.wrapping_add(0xFFFF_F000));
    let stats = machine.cpu().superblock_stats();
    assert!(stats.dispatches > 0, "[{engine:?}] {stats:?}");
    assert!(
        stats.stale_drops > 0,
        "[{engine:?}] patching B must drop its fused block: {stats:?}"
    );
}

pub fn compressed_and_misaligned_word_instructions_agree(engine: Engine) {
    prop::check(&prop_name(engine, "compressed_mix"), 40, |rng| {
        // A halfword stream mixing c.addi with full-width ADDIs, so
        // 32-bit instructions land on odd halfword (pc % 4 == 2)
        // boundaries; long streams repeat into hot fused blocks with
        // 2-byte encodings (terminator lengths matter for the
        // fall-through PC).
        let mut halves: Vec<u16> = Vec::new();
        for _ in 0..rng.gen_range_usize(4..40) {
            if rng.gen_below_u32(2) == 0 {
                // c.addi x10, imm (imm in -32..32, nonzero keeps it canonical)
                let imm = (rng.gen_range_i64(-32, 32) | 1) as i32;
                let imm = imm as u32;
                let half = 0x0001u16
                    | (((imm >> 5) & 1) as u16) << 12
                    | (10u16 << 7)
                    | ((imm & 0x1F) as u16) << 2;
                halves.push(half);
            } else {
                let full = word(addi(11, 11, rng.gen_range_i64(-2048, 2047) as i32));
                halves.push(full as u16);
                halves.push((full >> 16) as u16);
            }
        }
        let ecall = word(Inst::Ecall);
        halves.push(ecall as u16);
        halves.push((ecall >> 16) as u16);
        let bytes: Vec<u8> = halves.iter().flat_map(|h| h.to_le_bytes()).collect();
        let build = move || {
            let mut machine = Machine::assemble("ecall").expect("stub");
            machine.cpu_mut().write_bytes(0, &bytes);
            machine.cpu_mut().set_pc(0);
            machine
        };
        let outcome = differential(&[engine], &build, 10_000, None)?;
        ensure(outcome.is_ok(), "compressed mix must reach ecall")
    });
}

pub fn fuel_exhaustion_accounting_is_identical(engine: Engine) {
    // A fuel-limited run must report the same modelled cycles and retired
    // instructions as the oracle — the fast loops keep their counters in
    // locals and must sync them on the OutOfFuel exit, not just on clean
    // exits. The 4-instruction loop goes hot after a few iterations, so
    // fuels like 17..21 run out *mid-block*, where the engine must retire
    // instruction-by-instruction to the exact budget, and 1001 exhausts
    // from compiled dispatch. Resuming after a refuel must still agree.
    let src = r#"
            li   t0, 0
            li   t1, 1000000
        loop:
            addi t0, t0, 1
            lw   t2, 0(zero)
            add  t3, t2, t0
            bne  t0, t1, loop
            ecall
    "#;
    for fuel in [0u64, 1, 2, 3, 5, 17, 18, 19, 20, 21, 37, 100, 1001] {
        let [mut oracle, mut fast] = [Engine::Classic, engine].map(|engine| {
            let mut machine = Machine::assemble(src).expect("assembles");
            machine.cpu_mut().set_engine(engine);
            machine
        });
        for machine in [&mut oracle, &mut fast] {
            let engine = machine.cpu().engine();
            assert_eq!(
                machine.cpu_mut().run(fuel),
                Err(Trap::OutOfFuel),
                "fuel {fuel} ({engine:?})"
            );
        }
        assert_eq!(oracle.cpu().instructions(), fuel, "fuel == retired");
        assert_eq!(
            oracle.cpu().instructions(),
            fast.cpu().instructions(),
            "retired instructions diverged at fuel {fuel} ({engine:?})"
        );
        assert_eq!(
            oracle.cpu().cycles(),
            fast.cpu().cycles(),
            "modelled cycles diverged at fuel {fuel} ({engine:?})"
        );
        assert_eq!(
            oracle.cpu().pc(),
            fast.cpu().pc(),
            "pc diverged at fuel {fuel} ({engine:?})"
        );
        assert_eq!(
            oracle.cpu_mut().run(10_000_000),
            fast.cpu_mut().run(10_000_000),
            "post-refuel outcome at fuel {fuel} ({engine:?})"
        );
    }
}
