//! Warm-start layer tests: `Cpu::snapshot`/`Cpu::restore` and the
//! process-wide `SharedTraceCache` must be invisible to the architecture.
//!
//! Three exactness claims are checked differentially against cold runs on
//! the classic decode-every-step oracle:
//!
//! * **Snapshot/restore round trips.** A machine snapshotted mid-run and
//!   resumed — into a fresh CPU or over a dirty one — finishes in exactly
//!   the state a single uninterrupted run reaches, on randomized branchy
//!   programs.
//! * **Snapshotted superblocks die with their code.** An image captured
//!   while a self-modifying loop is hot contains compiled superblocks;
//!   the store that later rewrites the loop body must invalidate the
//!   restored copies exactly (generation counters travel with the blocks
//!   they validate), whether the store comes from the program or from
//!   host-side `write_bytes`.
//! * **Shared and private trace caches agree.** Concurrent CPUs racing
//!   publish/install on one `SharedTraceCache` produce the same digests
//!   as private-cache and classic-oracle runs of the same workload.

mod common;

use common::{addi, bne, hot_self_modifying_words, li, machine_from_words, reg, word};
use lac_rand::prop::{self, ensure, ensure_eq};
use lac_rand::Rng;
use lac_rv32::inst::AluOp;
use lac_rv32::superblock::{SuperblockCache, DEFAULT_SLOTS};
use lac_rv32::{Cpu, Engine, Inst, Machine, SharedTraceCache, Trap};
use std::sync::Arc;

/// Compare the complete observable state of two CPUs: outcome of the last
/// `run`, architectural accessors, and a data-memory window.
fn ensure_same_state(
    label: &str,
    oracle: &Cpu,
    other: &Cpu,
    data_window: Option<(u32, usize)>,
) -> Result<(), String> {
    let tag = |e: String| format!("[{label}] {e}");
    ensure_eq(oracle.pc(), other.pc()).map_err(tag)?;
    ensure_eq(oracle.cycles(), other.cycles()).map_err(tag)?;
    ensure_eq(oracle.instructions(), other.instructions()).map_err(tag)?;
    for i in 0..32 {
        ensure_eq(oracle.reg(i), other.reg(i)).map_err(tag)?;
    }
    if let Some((addr, len)) = data_window {
        ensure(
            oracle.read_bytes(addr, len) == other.read_bytes(addr, len),
            format!("[{label}] data memory diverged in [{addr:#x}; {len})"),
        )?;
    }
    Ok(())
}

/// One random ALU instruction as assembly text.
fn alu_line(rng: &mut impl Rng) -> String {
    let rd = reg(rng);
    let rs1 = reg(rng);
    let rs2 = reg(rng);
    let imm = rng.gen_range_i64(-2048, 2047);
    match rng.gen_below_u32(6) {
        0 => format!("add x{rd}, x{rs1}, x{rs2}"),
        1 => format!("sub x{rd}, x{rs1}, x{rs2}"),
        2 => format!("xor x{rd}, x{rs1}, x{rs2}"),
        3 => format!("addi x{rd}, x{rs1}, {imm}"),
        4 => format!("sltiu x{rd}, x{rs1}, {imm}"),
        _ => format!("mul x{rd}, x{rs1}, x{rs2}"),
    }
}

/// A random looping program hot enough to compile superblocks: seeded
/// registers, a counted backward loop of random ALU blocks, and an `sb`
/// store per iteration so data memory is part of the observable state.
fn branchy_program(rng: &mut impl Rng) -> String {
    let mut src = String::new();
    for r in 5..16 {
        src.push_str(&format!("li x{r}, {}\n", rng.next_u32() as i32));
    }
    let iterations = 6 + rng.gen_below_u32(10);
    src.push_str(&format!("li x28, {iterations}\n"));
    src.push_str("li x29, 0x4000\n");
    src.push_str("loop_head:\n");
    for _ in 0..rng.gen_range_usize(3..12) {
        src.push_str(&alu_line(rng));
        src.push('\n');
    }
    src.push_str("sb x6, 0(x29)\n");
    src.push_str("addi x29, x29, 1\n");
    src.push_str("addi x28, x28, -1\n");
    src.push_str("bnez x28, loop_head\n");
    src.push_str("ecall\n");
    src
}

#[test]
fn snapshot_restore_resumes_bit_identically_to_a_cold_run() {
    prop::check("warmstart_snapshot_restore", 30, |rng| {
        let src = branchy_program(rng);
        let build = |engine: Engine| {
            let mut machine = Machine::assemble(&src).expect("program assembles");
            machine.cpu_mut().set_engine(engine);
            machine
        };

        // The reference: one uninterrupted cold run on the classic oracle.
        let mut oracle = build(Engine::Classic);
        let cold_exit = oracle.cpu_mut().run(1_000_000);
        let total = match &cold_exit {
            Ok(exit) => exit.instructions,
            Err(t) => return Err(format!("program must reach ecall, got {t}")),
        };

        // Warm the superblock machine partway, snapshot mid-flight.
        let mut warm = build(Engine::Superblock);
        let pause = 1 + u64::from(rng.gen_below_u32(total.min(200) as u32 - 1));
        match warm.cpu_mut().run(pause) {
            Err(Trap::OutOfFuel) => {}
            other => return Err(format!("expected to pause mid-run, got {other:?}")),
        }
        let image = warm.snapshot();

        // Resume into a fresh CPU built from the image.
        let mut fresh = Cpu::from_image(&image);
        let fresh_exit = fresh.run(1_000_000);
        ensure_eq(cold_exit.clone(), fresh_exit)?;
        ensure_same_state("from_image", oracle.cpu(), &fresh, Some((0x4000, 32)))?;

        // Run the original machine to completion (dirtying its caches and
        // memory), then rewind it with `restore` and run again.
        warm.cpu_mut()
            .run(1_000_000)
            .map_err(|t| format!("continuation trapped: {t}"))?;
        warm.cpu_mut().restore(&image);
        let rewound_exit = warm.cpu_mut().run(1_000_000);
        ensure_eq(cold_exit, rewound_exit)?;
        ensure_same_state("restore", oracle.cpu(), warm.cpu(), Some((0x4000, 32)))
    });
}

#[test]
fn store_invalidates_a_snapshotted_superblock_exactly() {
    prop::check("warmstart_snapshotted_block_store", 30, |rng| {
        // The snapshot is taken while the loop is hot but before the
        // patch iteration, so the image carries a fused block whose code
        // the continuation then rewrites.
        let iterations = 10 + rng.gen_below_u32(8);
        let patch_at = 7 + rng.gen_below_u32(iterations - 7);
        let old = word(addi(26, 26, 1));
        let new = match rng.gen_below_u32(2) {
            0 => word(addi(26, 26, rng.gen_range_i64(-2048, 2047) as i32)),
            _ => word(Inst::Op {
                op: AluOp::Mul,
                rd: 26,
                rs1: 26,
                rs2: 26,
            }),
        };
        let words = hot_self_modifying_words(patch_at, iterations, old, new);

        // Reference: one uninterrupted classic run.
        let mut oracle = machine_from_words(&words);
        oracle.cpu_mut().set_engine(Engine::Classic);
        let cold_exit = oracle.cpu_mut().run(1_000_000);
        ensure(cold_exit.is_ok(), "loop must reach ecall")?;

        // Pause inside the hot region: past the fuse threshold (4 head
        // executions of an 8-instruction body) but before the patch runs.
        let pause = 8 + 8 * u64::from(5 + rng.gen_below_u32(patch_at - 6));
        let mut warm = machine_from_words(&words);
        match warm.cpu_mut().run(pause) {
            Err(Trap::OutOfFuel) => {}
            other => return Err(format!("expected to pause mid-loop, got {other:?}")),
        }
        let image = warm.snapshot();
        ensure(
            image.cached_blocks() > 0,
            "snapshot must capture the fused loop",
        )?;

        let mut resumed = Cpu::from_image(&image);
        let resumed_exit = resumed.run(1_000_000);
        ensure_eq(cold_exit, resumed_exit)?;
        ensure_same_state("resumed", oracle.cpu(), &resumed, None)?;
        let stats = resumed.superblock_stats();
        ensure(
            stats.store_bails > 0 || stats.stale_drops > 0,
            format!("the restored block must be invalidated by the patch: {stats:?}"),
        )
    });
}

#[test]
fn host_write_after_restore_invalidates_snapshotted_blocks() {
    // Same claim, driven from the host: snapshot a machine whose counted
    // loop is hot and fused, restore, patch the loop's victim instruction
    // with `write_bytes`, and demand the patch takes effect (x26 steps by
    // 7, not 1) exactly as on a classic machine given the same treatment.
    let old = word(addi(26, 26, 1));
    let new = word(addi(26, 26, 7));
    let mut words = Vec::new();
    words.extend(li(20, 0)); // counter
    words.extend(li(28, 40)); // bound
    let loop_index = words.len();
    words.push(word(addi(20, 20, 1)));
    let victim_index = words.len();
    words.push(old);
    let bne_index = words.len();
    words.push(word(bne(
        20,
        28,
        (loop_index as i32 - bne_index as i32) * 4,
    )));
    words.push(word(Inst::Ecall));
    let setup = loop_index as u64; // instructions before the first iteration

    let run_patched = |engine: Engine| {
        let mut machine = machine_from_words(&words);
        machine.cpu_mut().set_engine(engine);
        // Pause after exactly 20 of the 40 three-instruction iterations.
        assert_eq!(machine.cpu_mut().run(setup + 3 * 20), Err(Trap::OutOfFuel));
        let image = machine.snapshot();
        let mut cpu = Cpu::from_image(&image);
        cpu.write_bytes(4 * victim_index as u32, &new.to_le_bytes());
        cpu.run(1_000_000).expect("patched loop reaches ecall");
        cpu
    };

    let oracle = run_patched(Engine::Classic);
    let fused = run_patched(Engine::Superblock);
    ensure_same_state("host-patched", &oracle, &fused, None).expect("states agree");
    // 20 iterations before the snapshot step by 1; the 20 after the patch
    // step by 7 — the restored fused block did not keep running stale code.
    assert_eq!(oracle.reg(26), 20 + 20 * 7);
    let stats = fused.superblock_stats();
    assert!(
        stats.stale_drops > 0,
        "the snapshotted block must be dropped, not dispatched: {stats:?}"
    );
}

#[test]
fn shared_and_private_caches_digest_identically_under_concurrency() {
    // One pq.modq recover-style workload, many concurrent CPUs: half
    // attach one process-wide SharedTraceCache (racing publish/install),
    // half keep private caches, and one classic oracle supplies the
    // reference. Every final state must be identical.
    let src = r#"
            li   s0, 0
            li   s1, 12
        outer:
            li   t2, 0x8000
            li   t5, 0x9000
            li   t3, 96
            li   s2, 251
        recover:
            lbu  t0, 0(t2)
            add  t0, t0, s2
            pq.modq t0, t0, zero
            addi t0, t0, -63
            sltiu t0, t0, 126
            sb   t0, 0(t5)
            addi t2, t2, 1
            addi t5, t5, 1
            addi t3, t3, -1
            bnez t3, recover
            addi s0, s0, 1
            bne  s0, s1, outer
            ecall
    "#;
    let build = || {
        let mut machine = Machine::assemble(src).expect("workload assembles");
        let input: Vec<u8> = (0..96u32).map(|i| ((i * 7 + 3) % 251) as u8).collect();
        machine.cpu_mut().write_bytes(0x8000, &input);
        machine
    };

    let mut oracle = build();
    oracle.cpu_mut().set_engine(Engine::Classic);
    oracle.cpu_mut().run(1_000_000).expect("oracle finishes");

    let image = build().snapshot();
    let shared = Arc::new(SharedTraceCache::new());
    // Prime the cache once so the fleet's install path is exercised
    // deterministically (the publish/install race below still runs both
    // directions: late heads may be published by any worker).
    let mut primer = Cpu::from_image(&image);
    primer.attach_shared_cache(Arc::clone(&shared));
    primer.run(1_000_000).expect("primer finishes");
    ensure_same_state("primer", oracle.cpu(), &primer, Some((0x9000, 96)))
        .expect("primer divergence");

    let cpus: Vec<Cpu> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|i| {
                let image = &image;
                let shared = Arc::clone(&shared);
                scope.spawn(move || {
                    let mut cpu = Cpu::from_image(image);
                    if i % 2 == 0 {
                        cpu.attach_shared_cache(shared);
                    }
                    cpu.run(1_000_000).expect("worker finishes");
                    cpu
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("join"))
            .collect()
    });

    for (i, cpu) in cpus.iter().enumerate() {
        ensure_same_state(&format!("cpu {i}"), oracle.cpu(), cpu, Some((0x9000, 96)))
            .expect("shared/private divergence");
    }
    let stats = shared.stats();
    assert!(stats.publishes > 0, "someone must publish: {stats:?}");
    // Every shared-cache CPU must have adopted the primer's blocks
    // instead of recompiling them.
    for cpu in cpus.iter().step_by(2) {
        let sb = cpu.superblock_stats();
        assert!(sb.shared_installs > 0, "{sb:?}");
        assert_eq!(sb.compiles, 0, "{sb:?}");
    }
    // The private-cache CPUs compiled their own.
    for cpu in cpus.iter().skip(1).step_by(2) {
        assert!(cpu.superblock_stats().compiles > 0);
    }
}

#[test]
fn sb_capacity_is_configurable_and_clamped() {
    // `new` takes the default capacity; `with_slots` clamps to at least
    // 16 slots and rounds up to a power of two (the direct-mapped index is
    // a mask). Capacity only moves the hot/conflict trade-off.
    assert_eq!(SuperblockCache::new().slot_count(), DEFAULT_SLOTS);
    assert_eq!(SuperblockCache::with_slots(64).slot_count(), 64);
    assert_eq!(SuperblockCache::with_slots(100).slot_count(), 128);
    assert_eq!(SuperblockCache::with_slots(0).slot_count(), 16);
}
