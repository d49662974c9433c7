//! Differential tests for the JIT engine tier: the decode-every-step
//! classic engine is the oracle, and every observable — the full
//! `ExitState` (register file, PC, modelled cycles, retired
//! instructions), the trap value, and data memory — must be bit-identical
//! to it on randomized programs.
//!
//! The cases shared with `riscv_predecode.rs` (straight-line, branchy,
//! compressed and hot self-modifying programs, the in-block store bail,
//! the fused-pair trap and fuel exhaustion; see `engine_cases`) run here
//! on `Engine::Jit`. The rest check the superblock engine and the JIT
//! alike: hot loops that must really JIT, self-modifying `sw`/`sb` (the
//! store-driven invalidation and its 3-byte back-window), fetches from
//! zeroed RAM, past the end of RAM and at an odd PC, CSR terminators,
//! forced fallback, warm fleets sharing emitted code, and block chaining
//! (self-links, stores into chained successors, fuel on chain edges,
//! eviction-severed links). On hosts without an emitter every
//! `Engine::Jit` run silently degrades to the superblock interpreter, so
//! the suite still passes — the JIT-actually-ran guards are gated on
//! `jit::host_supported()`.

mod common;
mod engine_cases;

use common::{addi, bne, li, machine_from_words, word};
use engine_cases::{body_line, differential, j, seed_regs};
use lac_rand::prop::{self, ensure, ensure_eq};
use lac_rand::Rng;
use lac_rv32::inst::{AluOp, StoreOp};
use lac_rv32::{jit, Cpu, Engine, Inst, Machine, SharedTraceCache, Trap};
use std::sync::Arc;

/// The engines the JIT-file-only cases check against the classic oracle.
const FAST_ENGINES: [Engine; 2] = [Engine::Superblock, Engine::Jit];

#[test]
fn straight_line_programs_agree() {
    engine_cases::straight_line_programs_agree(Engine::Jit);
}

#[test]
fn hot_loops_agree_and_actually_jit() {
    prop::check("jit_hot_loops", 40, |rng| {
        // A loop body rerun well past the hot threshold, so the JIT tier
        // compiles and dispatches emitted code (asserted below on
        // supported hosts), with a fused compare-and-branch terminator.
        let mut src = seed_regs(rng);
        let iterations = 8 + rng.gen_below_u32(40);
        src.push_str(&format!("li x28, {iterations}\n"));
        src.push_str("loop_head:\n");
        for _ in 0..rng.gen_range_usize(2..10) {
            src.push_str(&body_line(rng));
            src.push('\n');
        }
        src.push_str("addi x28, x28, -1\n");
        src.push_str("bnez x28, loop_head\n");
        src.push_str("ecall\n");
        let build = move || Machine::assemble(&src).expect("random loop assembles");
        let outcome = differential(&FAST_ENGINES, &build, 100_000, Some((0x8000, 0x800)))?;
        ensure(outcome.is_ok(), "hot loop must reach ecall")?;

        if jit::host_supported() {
            let mut machine = build();
            machine.cpu_mut().set_engine(Engine::Jit);
            machine.cpu_mut().run(100_000).map_err(|t| t.to_string())?;
            let stats = machine.cpu().jit_stats();
            ensure(
                stats.compiles > 0,
                format!("expected jit compiles: {stats:?}"),
            )?;
            ensure(
                stats.dispatches > 0,
                format!("expected jit dispatches: {stats:?}"),
            )?;
            ensure_eq(stats.fallbacks, 0)?;
        }
        Ok(())
    });
}

#[test]
fn branchy_programs_agree() {
    engine_cases::branchy_programs_agree(Engine::Jit);
}

#[test]
fn self_modifying_store_word_takes_effect_on_all_engines() {
    prop::check("self_modifying_sw", 40, |rng| {
        // The program patches the instruction at `patch` — initially
        // `addi x8, x8, 1` — with a random fresh ADDI, *after* the whole
        // line has been predecoded (everything lives in the first
        // 256-byte line, so fetching instruction 0 predecodes the stale
        // word at `patch`).
        let imm = rng.gen_range_i64(-2048, 2047) as i32;
        let rd = 10 + rng.gen_below_u32(4) as u8;
        let patched = word(addi(rd, rd, imm));
        let mut words = Vec::new();
        words.extend(li(5, patched)); // x5 = new instruction word
        let patch_index = words.len() + 1 + 1 + rng.gen_below_usize(4);
        words.push(word(Inst::Store {
            op: StoreOp::Word,
            rs1: 0,
            rs2: 5,
            offset: (patch_index * 4) as i32,
        }));
        while words.len() < patch_index {
            words.push(word(addi(9, 9, 1))); // filler (x9 never collides with rd)
        }
        words.push(word(addi(8, 8, 1))); // the stale instruction (bumps x8)
        words.push(word(Inst::Ecall));
        let build = move || machine_from_words(&words);
        let outcome = differential(&FAST_ENGINES, &build, 1_000, Some((0x100, 64)))?;
        let exit = outcome.map_err(|t| format!("trapped: {t}"))?;
        // The patch must actually have executed: rd carries the new
        // immediate and the stale instruction's x8 bump never happened.
        ensure_eq(exit.reg(rd as usize), imm as u32)?;
        ensure_eq(exit.reg(8), 0)
    });
}

#[test]
fn self_modifying_byte_store_into_instruction_middle_agrees() {
    prop::check("self_modifying_sb", 40, |rng| {
        // Patch a single random byte *inside* an upcoming 32-bit ADDI —
        // the store address is up to 3 bytes past the instruction start,
        // exercising the invalidation back-window.
        let byte = rng.next_byte();
        let offset = rng.gen_below_u32(4); // which byte of the instruction
        let mut words = Vec::new();
        words.extend(li(5, u32::from(byte)));
        let patch_index = words.len() + 1;
        words.push(word(Inst::Store {
            op: StoreOp::Byte,
            rs1: 0,
            rs2: 5,
            offset: (patch_index * 4 + offset as usize) as i32,
        }));
        words.push(word(addi(10, 10, 0x7F))); // the victim instruction
        words.push(word(Inst::Ecall));
        let build = move || machine_from_words(&words);
        // The mutated word may no longer decode (or may now trap); all
        // outcomes are acceptable as long as all engines agree bit-for-bit.
        let _ = differential(&FAST_ENGINES, &build, 1_000, None)?;
        Ok(())
    });
}

#[test]
fn store_into_running_jit_block_bails_exactly() {
    engine_cases::store_into_hot_block_bails_exactly(Engine::Jit);
}

#[test]
fn hot_self_modifying_loops_agree() {
    engine_cases::hot_self_modifying_loops_agree(Engine::Jit);
}

#[test]
fn trap_on_last_instruction_of_fused_pair() {
    engine_cases::trap_on_last_instruction_of_fused_pair(Engine::Jit);
}

#[test]
fn compressed_and_misaligned_word_instructions_agree() {
    engine_cases::compressed_and_misaligned_word_instructions_agree(Engine::Jit);
}

#[test]
fn fuel_exhaustion_accounting_is_identical() {
    engine_cases::fuel_exhaustion_accounting_is_identical(Engine::Jit);
}

#[test]
fn zeroed_ram_and_out_of_range_fetch_trap_identically() {
    // Walking zeroed RAM hits an illegal compressed instruction (0x0000);
    // a PC at/after the end of RAM hits the cache's out-of-range fill; a
    // 32-bit encoding (low bits 11) in RAM's last halfword runs its tail
    // off RAM. All engines must produce the same trap with the same
    // accounting.
    for (start_pc, last_half) in [
        (0u32, 0u16),
        (4094, 0),
        (4096, 0),
        (8192, 0),
        (4094, 0x0003),
    ] {
        let run = |engine: Engine| {
            let mut cpu = Cpu::new(4096);
            cpu.write_bytes(4094, &last_half.to_le_bytes());
            cpu.set_engine(engine);
            cpu.set_pc(start_pc);
            let outcome = cpu.run(1_000_000);
            assert!(outcome.is_err(), "pc {start_pc} must trap ({engine:?})");
            (outcome, cpu.cycles(), cpu.instructions(), cpu.pc())
        };
        let oracle = run(Engine::Classic);
        if last_half == 0x0003 {
            let fault = Trap::MemoryFault {
                pc: 4094,
                addr: 4094,
            };
            assert_eq!(oracle.0, Err(fault), "tail past the end of RAM");
        }
        for engine in FAST_ENGINES {
            assert_eq!(oracle, run(engine), "pc {start_pc} ({engine:?})");
        }
    }
}

#[test]
fn raw_cpu_odd_pc_entry_delegates_identically() {
    // An odd entry PC is the one case the fast loops delegate wholesale
    // to the oracle; every engine must still agree (here: on the trap).
    let run = |engine: Engine| {
        let mut cpu = Cpu::new(4096);
        cpu.set_engine(engine);
        cpu.set_pc(1);
        let outcome = cpu.run(10);
        assert!(outcome.is_err(), "odd pc must trap ({engine:?})");
        (outcome, cpu.cycles(), cpu.instructions(), cpu.pc())
    };
    let oracle = run(Engine::Classic);
    for engine in FAST_ENGINES {
        assert_eq!(oracle, run(engine), "{engine:?}");
    }
}

#[test]
fn forced_fallback_degrades_to_superblock_without_panicking() {
    // `force_jit_fallback(true)` models an unsupported host (or denied
    // exec mmap): Engine::Jit must silently run the superblock
    // interpreter — identical results, zero emitted-code dispatches, a
    // counted fallback — on every host, supported or not.
    let src = r#"
            li   a0, 0
            li   t0, 1
            li   t1, 101
        loop:
            add  a0, a0, t0
            addi t0, t0, 1
            bne  t0, t1, loop
            ecall
    "#;
    let mut reference = Machine::assemble(src).expect("assembles");
    reference.cpu_mut().set_engine(Engine::Superblock);
    let reference_exit = reference.cpu_mut().run(100_000).expect("reaches ecall");

    let mut forced = Machine::assemble(src).expect("assembles");
    forced.cpu_mut().set_engine(Engine::Jit);
    forced.cpu_mut().force_jit_fallback(true);
    let forced_exit = forced.cpu_mut().run(100_000).expect("reaches ecall");

    assert_eq!(reference_exit, forced_exit);
    let stats = forced.cpu().jit_stats();
    assert!(stats.fallbacks > 0, "fallback must be counted: {stats:?}");
    assert_eq!(stats.dispatches, 0, "no emitted code may run: {stats:?}");
    assert_eq!(stats.compiles, 0, "no translation may happen: {stats:?}");

    // Lifting the override restores the JIT on supported hosts.
    forced.cpu_mut().force_jit_fallback(false);
    forced.cpu_mut().set_pc(0);
    assert!(forced.cpu_mut().run(100_000).is_ok());
    if jit::host_supported() {
        assert!(forced.cpu().jit_stats().dispatches > 0);
    }
}

/// The warm-fleet scenario: a primer runs the workload once with
/// `Engine::Jit` and a `SharedTraceCache` attached, publishing both its
/// superblocks and their emitted host code; warm workers restored from
/// the same pre-run image then adopt everything — zero local superblock
/// *and* JIT compiles — and must produce bit-identical results to a
/// private (shared-less) run.
#[test]
fn warm_workers_share_jit_code_with_zero_local_compiles() {
    if !jit::host_supported() {
        return; // covered by the forced-fallback test elsewhere
    }
    let src = r#"
            li   a0, 0
            li   a1, 0
            li   t0, 1
            li   t1, 201
        loop:
            add  a0, a0, t0
            mul  a1, a0, t0
            sw   a1, 0x100(zero)
            lw   t2, 0x100(zero)
            add  a1, a1, t2
            pq.modq a1, a1, zero
            addi t0, t0, 1
            bne  t0, t1, loop
            ecall
    "#;
    let image = Machine::assemble(src).expect("assembles").snapshot();
    let shared = Arc::new(SharedTraceCache::new());

    let mut primer = Cpu::from_image(&image);
    primer.set_engine(Engine::Jit);
    primer.attach_shared_cache(Arc::clone(&shared));
    let primer_exit = primer.run(1_000_000).expect("primer reaches ecall");
    let primer_stats = primer.jit_stats();
    assert!(primer_stats.compiles > 0, "{primer_stats:?}");
    assert!(primer_stats.shared_publishes > 0, "{primer_stats:?}");
    assert!(shared.jit_stats().blocks > 0);

    let mut private = Cpu::from_image(&image);
    private.set_engine(Engine::Jit);
    let private_exit = private.run(1_000_000).expect("private reaches ecall");
    assert_eq!(primer_exit, private_exit);

    for _ in 0..4 {
        let mut worker = Cpu::from_image(&image);
        worker.set_engine(Engine::Jit);
        worker.attach_shared_cache(Arc::clone(&shared));
        let worker_exit = worker.run(1_000_000).expect("worker reaches ecall");
        assert_eq!(worker_exit, private_exit, "shared vs private digests");

        let jit_stats = worker.jit_stats();
        let sb_stats = worker.superblock_stats();
        assert_eq!(
            jit_stats.compiles, 0,
            "warm worker JIT-compiled: {jit_stats:?}"
        );
        assert_eq!(sb_stats.compiles, 0, "warm worker compiled: {sb_stats:?}");
        assert!(jit_stats.shared_installs > 0, "{jit_stats:?}");
        assert!(jit_stats.dispatches > 0, "{jit_stats:?}");
    }
}

#[test]
fn jit_engine_handles_csr_terminators_and_traps() {
    // CSR reads terminate blocks and run on the interpreter core
    // (EXIT_TERM); rdcycle inside a hot loop must observe live counters
    // identically on every tier.
    let src = r#"
            li   t0, 0
            li   t1, 40
            li   a0, 0
        loop:
            rdcycle t2
            add  a0, a0, t2
            addi t0, t0, 1
            bne  t0, t1, loop
            ecall
    "#;
    let build = move || Machine::assemble(src).expect("assembles");
    let outcome = differential(&FAST_ENGINES, &build, 100_000, None).expect("engines agree");
    assert!(outcome.is_ok());

    // ebreak as a hot-block terminator traps identically.
    let src2 = r#"
            li   t0, 0
        loop:
            addi t0, t0, 1
            ebreak
    "#;
    let build2 = move || Machine::assemble(src2).expect("assembles");
    let outcome2 = differential(&FAST_ENGINES, &build2, 100_000, None).expect("engines agree");
    assert!(matches!(outcome2, Err(Trap::Breakpoint { .. })));
}

#[test]
fn hot_loop_links_once_and_stays_linked() {
    // The canonical chaining shape: a two-instruction counted loop whose
    // taken edge points back at its own head. After one trip through the
    // EXIT_NEXT miss path the dispatch loop installs the self-link, and
    // every remaining iteration must retire without returning to Rust.
    let src = r#"
            li   t0, 0
            li   t1, 2000
        loop:
            addi t0, t0, 1
            bne  t0, t1, loop
            ecall
    "#;
    let build = move || Machine::assemble(src).expect("assembles");
    let outcome = differential(&FAST_ENGINES, &build, 100_000, None).expect("engines agree");
    assert!(outcome.is_ok());

    if jit::host_supported() {
        let mut machine = build();
        machine.cpu_mut().set_engine(Engine::Jit);
        machine.cpu_mut().run(100_000).expect("runs to ecall");
        let stats = machine.cpu().jit_stats();
        assert_eq!(stats.links_installed, 1, "one self-link: {stats:?}");
        assert_eq!(stats.unlinks, 0, "nothing invalidates it: {stats:?}");
        assert!(
            stats.chained_dispatches > 1000,
            "the loop must stay in host code: {stats:?}"
        );
        // Chained entries count as block dispatches in the superblock
        // stats too, so the tiers stay comparable.
        let sb = machine.cpu().superblock_stats();
        assert!(sb.dispatches > stats.chained_dispatches, "{sb:?}");
    }
}

/// Two mutually-chained blocks where block A patches an instruction in
/// block B on iteration `patch_at`: A keeps a counter, computes the patch
/// delta and target address (off-iterations store the unchanged value to
/// a plain data address instead, so the A→B link survives until the real
/// patch), stores, and jumps to B; B runs the victim instruction — 512
/// bytes away, so a *different* predecode line than A's own — and
/// branches back to A.
fn chained_successor_patch_words(patch_at: u32, iterations: u32, old: u32, new: u32) -> Vec<u32> {
    let delta = new.wrapping_sub(old);
    let b_base = 512u32;
    let mut words = Vec::new();
    let alu_imm = |op, rd, rs1, imm| word(Inst::OpImm { op, rd, rs1, imm });
    let alu = |op, rd, rs1, rs2| word(Inst::Op { op, rd, rs1, rs2 });
    words.extend(li(20, 0));
    words.extend(li(23, old));
    words.extend(li(22, delta));
    words.extend(li(28, iterations));
    let a_loop = words.len(); // word 8
    words.push(word(addi(20, 20, 1)));
    words.push(word(addi(21, 20, -(patch_at as i32))));
    words.push(alu_imm(AluOp::Sltu, 21, 21, 1)); // x21 = (iteration == patch_at)
    words.push(alu(AluOp::Mul, 25, 21, 22));
    words.push(alu(AluOp::Add, 23, 23, 25)); // x23 = old, or new at the patch
    words.push(alu_imm(AluOp::Sltu, 24, 21, 1)); // x24 = !x21
    words.push(alu_imm(AluOp::Sll, 24, 24, 12));
    words.push(word(addi(24, 24, b_base as i32))); // 512, or 0x1200 off-patch
    words.push(word(Inst::Store {
        op: StoreOp::Word,
        rs1: 24,
        rs2: 23,
        offset: 0,
    }));
    let jal_index = words.len();
    words.push(word(j(b_base as i32 - (jal_index as i32) * 4)));
    while words.len() < (b_base / 4) as usize {
        words.push(0);
    }
    words.push(old); // the victim, at byte 512
    let bne_index = words.len();
    words.push(word(bne(20, 28, (a_loop as i32 - bne_index as i32) * 4)));
    words.push(word(Inst::Ecall));
    words
}

#[test]
fn store_into_chained_successor_unlinks_and_bails_exactly() {
    let old = word(addi(26, 26, 1));
    let new = word(addi(26, 26, 7));
    let (patch_at, iterations) = (8u32, 14u32);
    let words = chained_successor_patch_words(patch_at, iterations, old, new);
    let build = move || machine_from_words(&words);
    let outcome = differential(&FAST_ENGINES, &build, 100_000, None).expect("engines agree");
    let exit = outcome.expect("loop reaches ecall");
    // The patch lands mid-iteration `patch_at`: B is re-fetched after the
    // store, so the new instruction takes effect that same trip.
    assert_eq!(
        exit.reg(26),
        (patch_at - 1) + 7 * (iterations - patch_at + 1)
    );

    if jit::host_supported() {
        let mut machine = build();
        machine.cpu_mut().set_engine(Engine::Jit);
        machine.cpu_mut().run(100_000).expect("runs to ecall");
        let stats = machine.cpu().jit_stats();
        let sb = machine.cpu().superblock_stats();
        // A→B and B→A both linked before the patch...
        assert!(stats.links_installed >= 2, "{stats:?}");
        assert!(stats.chained_dispatches > 0, "{stats:?}");
        // ...and the store severed the A→B edge (B's line went stale)
        // rather than letting emitted code chain into dead translation.
        assert!(stats.unlinks >= 1, "{stats:?}");
        assert!(sb.stale_drops >= 1, "{sb:?}");
    }
}

#[test]
fn fuel_exhaustion_lands_exactly_on_chain_edges() {
    // By fuel ~20 the two-instruction loop below is hot, translated and
    // self-linked, so budgets in 24..40 exhaust *inside* a chained run:
    // the emitted fuel check at the edge must refuse the next block at
    // exactly the same boundary the oracle stops at, and a refuel must
    // resume bit-identically.
    let src = r#"
            li   t0, 0
            li   t1, 1000000
        loop:
            addi t0, t0, 1
            bne  t0, t1, loop
            ecall
    "#;
    for fuel in 24u64..40 {
        let mut oracle = Machine::assemble(src).expect("assembles");
        oracle.cpu_mut().set_engine(Engine::Classic);
        assert_eq!(oracle.cpu_mut().run(fuel), Err(Trap::OutOfFuel));
        assert_eq!(oracle.cpu().instructions(), fuel);

        let mut machine = Machine::assemble(src).expect("assembles");
        machine.cpu_mut().set_engine(Engine::Jit);
        assert_eq!(machine.cpu_mut().run(fuel), Err(Trap::OutOfFuel));
        assert_eq!(machine.cpu().instructions(), fuel, "fuel {fuel}");
        assert_eq!(machine.cpu().cycles(), oracle.cpu().cycles(), "fuel {fuel}");
        assert_eq!(machine.cpu().pc(), oracle.cpu().pc(), "fuel {fuel}");
        if jit::host_supported() {
            assert!(
                machine.cpu().jit_stats().chained_dispatches > 0,
                "budget must run out while chained (fuel {fuel})"
            );
        }

        // Refuel both and run to completion: still bit-identical.
        let oracle_exit = oracle.cpu_mut().run(10_000_000);
        assert_eq!(
            oracle_exit,
            machine.cpu_mut().run(10_000_000),
            "fuel {fuel}"
        );
    }
}

#[test]
fn direct_mapped_eviction_severs_links() {
    // Two self-linking hot loops whose heads collide in the default
    // 4096-slot direct-mapped trace cache (index = (pc >> 1) & 4095, so
    // 0x100 and 0x2100 share slot 0x80 — their follow-on blocks at 0x108
    // and 0x2108 collide too). Each outer round evicts the other loop's
    // block, which must reclaim its chain node and sever the self-link
    // instead of leaving a dangling pointer for emitted code to follow.
    let inner = 12u32;
    let outer = 5u32;
    let a_base = 0x100u32;
    let b_base = 0x2100u32;
    let mut words = Vec::new();
    words.extend(li(27, inner));
    words.extend(li(20, 0));
    words.extend(li(28, outer));
    let outer_head = words.len(); // word 6, byte 0x18
    words.push(word(addi(21, 0, 0)));
    let jump_a = words.len();
    words.push(word(j(a_base as i32 - (jump_a as i32) * 4)));
    while words.len() < (a_base / 4) as usize {
        words.push(0);
    }
    words.push(word(addi(21, 21, 1))); // A loop head
    words.push(word(bne(21, 27, -4)));
    words.push(word(addi(22, 0, 0)));
    let jump_b = words.len();
    words.push(word(j(b_base as i32 - (jump_b as i32) * 4)));
    while words.len() < (b_base / 4) as usize {
        words.push(0);
    }
    words.push(word(addi(22, 22, 1))); // B loop head
    words.push(word(bne(22, 27, -4)));
    words.push(word(addi(20, 20, 1)));
    words.push(word(bne(20, 28, 8))); // another round → trampoline
    words.push(word(Inst::Ecall));
    let tramp = words.len();
    words.push(word(j((outer_head as i32 - tramp as i32) * 4)));

    let build = move || machine_from_words(&words);
    let outcome = differential(&FAST_ENGINES, &build, 100_000, None).expect("engines agree");
    let exit = outcome.expect("reaches ecall");
    assert_eq!(exit.reg(20), outer);
    assert_eq!(exit.reg(21), inner);

    if jit::host_supported() {
        let mut machine = build();
        machine.cpu_mut().set_engine(Engine::Jit);
        machine.cpu_mut().run(100_000).expect("runs to ecall");
        let stats = machine.cpu().jit_stats();
        assert!(
            stats.links_installed >= 4,
            "re-linked each round: {stats:?}"
        );
        assert!(stats.unlinks >= 2, "evictions must sever links: {stats:?}");
        assert!(stats.chained_dispatches > 0, "{stats:?}");
    }
}
