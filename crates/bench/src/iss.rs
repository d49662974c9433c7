//! ISS throughput harness: how fast does the host retire simulated
//! instructions?
//!
//! Every figure elsewhere in this repo is a deterministic *modelled* cycle
//! count; this module is the one place that measures the simulator itself
//! (retired instructions per wall-second, "MIPS"). Its workload repeats
//! the LAC-128 decryption recover loop of [`lac_rv32::kernels`] — a
//! `pq.modq` per coefficient, byte loads/stores and a backward branch —
//! on deterministic inputs, on the three execution engines of `lac-rv32`:
//!
//! * the **JIT engine** (superblocks lowered to host machine code; falls
//!   back to the superblock interpreter on unsupported hosts),
//! * the **superblock engine** (trace-cached macro-op fusion, the
//!   default), and
//! * the **classic decode-every-step engine** (the differential oracle).
//!
//! All runs must produce bit-identical architectural results — the
//! digest covers the register file, PC, modelled cycles, retired
//! instructions and the program's output buffer — and `scripts/verify.sh`
//! gates on the superblock engine being at least 3× faster than the
//! classic engine in wall-clock (plus, on hosts with a JIT backend, the
//! chained JIT being at least 3× faster than the superblock engine and
//! at least 1.3× faster than the same JIT with block chaining off).

use crate::shard;
use lac_rv32::kernels::{self, LV};
use lac_rv32::{Cpu, Engine, Machine, SharedTraceCache, SharedTraceStats};
use lac_sha256::Sha256;
use std::sync::Arc;
use std::time::Instant;

/// The engines under measurement, slowest first.
pub const ENGINES: [Engine; 3] = [Engine::Classic, Engine::Superblock, Engine::Jit];

/// The stable lowercase name of an engine (CLI flag values, JSON fields).
pub fn engine_name(engine: Engine) -> &'static str {
    match engine {
        Engine::Classic => "classic",
        Engine::Superblock => "superblock",
        Engine::Jit => "jit",
    }
}

/// Parse an engine name as printed by [`engine_name`].
pub fn parse_engine(name: &str) -> Option<Engine> {
    match name {
        "classic" => Some(Engine::Classic),
        "superblock" => Some(Engine::Superblock),
        "jit" => Some(Engine::Jit),
        _ => None,
    }
}

/// One measured simulator run.
#[derive(Debug, Clone)]
pub struct IssRun {
    /// Instructions retired by the program.
    pub instructions: u64,
    /// Modelled RISCY cycles consumed.
    pub cycles: u64,
    /// Host wall-clock time of the run, in microseconds.
    pub wall_micros: u64,
    /// Retired instructions per wall-second, in millions.
    pub mips: f64,
    /// Hex SHA-256 over the architectural exit state and output buffer.
    pub digest: String,
    /// Superblocks translated to host code locally.
    pub jit_compiles: u64,
    /// Emitted host-code block entries.
    pub jit_dispatches: u64,
    /// Translations adopted from a shared trace cache instead of compiled.
    pub jit_shared_installs: u64,
    /// Times `Engine::Jit` degraded to the superblock interpreter
    /// (unsupported host, exec-mmap denial, or a forced fallback).
    pub jit_fallbacks: u64,
    /// Chain links installed between translated blocks.
    pub jit_links_installed: u64,
    /// Block entries taken through a chain link without returning to the
    /// Rust dispatch loop.
    pub jit_chained_dispatches: u64,
    /// Link slots severed by invalidation, eviction or restore.
    pub jit_unlinks: u64,
}

/// An engine comparison on the same workload.
#[derive(Debug, Clone)]
pub struct IssReport {
    /// The decode-every-step oracle.
    pub classic: IssRun,
    /// The trace-cached superblock engine.
    pub superblock: IssRun,
    /// The host-code JIT tier (superblock fallback where unsupported).
    pub jit: IssRun,
    /// The JIT tier with block chaining disabled ([`Cpu::set_jit_chaining`]):
    /// same translations, but every block returns to the Rust dispatch
    /// loop. Isolates the chaining win.
    pub jit_nochain: IssRun,
    /// `classic.wall / superblock.wall` — the verify.sh gate figure.
    pub speedup_superblock: f64,
    /// `classic.wall / jit.wall`.
    pub speedup_jit: f64,
    /// `superblock.wall / jit.wall` — the verify.sh JIT gate figure on
    /// supported hosts.
    pub jit_over_superblock: f64,
    /// `jit_nochain.wall / jit.wall` — the verify.sh chaining gate figure
    /// on supported hosts.
    pub jit_chain_over_jit: f64,
    /// Whether every run (three engines plus the unchained JIT) produced
    /// bit-identical architectural results.
    pub digests_match: bool,
}

/// Assemble the recover-loop workload repeated `iters` times and preload
/// its deterministic input buffers.
///
/// # Panics
///
/// Panics if `iters` is zero (the loop counts down from it), or if the
/// program fails to assemble (a build-time bug).
pub fn workload(iters: u32) -> Machine {
    assert!(iters > 0, "the ISS workload needs at least one iteration");
    let src = format!(
        r#"
            li   s0, 0
            li   s1, {iters}
        outer:
            {recover}
            addi s0, s0, 1
            bne  s0, s1, outer
            ecall
        "#,
        recover = kernels::recover_loop()
    );
    let mut machine = Machine::assemble(&src).expect("ISS workload assembles");
    // Deterministic pseudo-inputs in [0, 251), independent of any RNG so
    // the workload is a pure function of `iters`.
    let vhat: Vec<u8> = (0..LV).map(|i| ((i * 7 + 3) % 251) as u8).collect();
    let us: Vec<u8> = (0..LV).map(|i| ((i * 13 + 11) % 251) as u8).collect();
    machine.cpu_mut().write_bytes(kernels::V_HAT, &vhat);
    machine.cpu_mut().write_bytes(kernels::US, &us);
    machine
}

/// The instruction budget for an `iters`-sized workload.
fn budget(iters: u32) -> u64 {
    40 * u64::from(iters) * LV as u64 + 1_000_000
}

/// Run an already-configured CPU to `ecall` and measure it. The digest
/// covers the register file, PC, modelled cycles, retired instructions
/// and the output buffer — wall-clock and cache counters are excluded, so
/// cold, warm and shared-cache runs must all hash identically.
///
/// # Panics
///
/// Panics if the workload traps (a build-time bug).
fn measure_cpu(cpu: &mut Cpu, iters: u32) -> IssRun {
    let started = Instant::now();
    let exit = cpu.run(budget(iters)).expect("ISS workload runs to ecall");
    let wall_micros = started.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;

    let mut hash = Sha256::new();
    hash.update(b"lac-bench:iss-digest:v1");
    for reg in exit.regs {
        hash.update(&reg.to_le_bytes());
    }
    hash.update(&exit.pc.to_le_bytes());
    hash.update(&exit.cycles.to_le_bytes());
    hash.update(&exit.instructions.to_le_bytes());
    hash.update(cpu.read_bytes(kernels::BITS, LV));
    let digest: String = hash.finalize().iter().map(|b| format!("{b:02x}")).collect();

    let jit = cpu.jit_stats();
    let wall_secs = (wall_micros.max(1)) as f64 / 1e6;
    IssRun {
        instructions: exit.instructions,
        cycles: exit.cycles,
        wall_micros,
        mips: exit.instructions as f64 / wall_secs / 1e6,
        digest,
        jit_compiles: jit.compiles,
        jit_dispatches: jit.dispatches,
        jit_shared_installs: jit.shared_installs,
        jit_fallbacks: jit.fallbacks,
        jit_links_installed: jit.links_installed,
        jit_chained_dispatches: jit.chained_dispatches,
        jit_unlinks: jit.unlinks,
    }
}

/// Run the workload on one engine and measure it (cold start: assemble,
/// load and compile from scratch).
///
/// # Panics
///
/// Panics if the workload traps (a build-time bug).
pub fn run_path(iters: u32, engine: Engine) -> IssRun {
    let mut machine = workload(iters);
    machine.cpu_mut().set_engine(engine);
    measure_cpu(machine.cpu_mut(), iters)
}

/// [`run_path`] with JIT block chaining disabled — the unchained-JIT
/// baseline the `jit_chain_over_jit` figure divides by. Identical digest
/// by construction; only relevant for [`Engine::Jit`].
pub fn run_path_nochain(iters: u32, engine: Engine) -> IssRun {
    let mut machine = workload(iters);
    machine.cpu_mut().set_engine(engine);
    machine.cpu_mut().set_jit_chaining(false);
    measure_cpu(machine.cpu_mut(), iters)
}

/// Wall-clock repetitions per engine in [`compare`]. The workload is a
/// pure function of `iters`, so repeats only tighten the timing: we keep
/// the best (least-interfered) run, which is the standard estimator for
/// a deterministic kernel on a noisy shared host.
const COMPARE_REPS: u32 = 5;

/// Measure one engine, best of `COMPARE_REPS` runs.
pub fn measure(iters: u32, engine: Engine) -> IssRun {
    (0..COMPARE_REPS)
        .map(|_| run_path(iters, engine))
        .min_by_key(|run| run.wall_micros)
        .expect("COMPARE_REPS > 0")
}

/// Measure every engine, plus the JIT with chaining off, on the same
/// `iters`-sized workload, best of `COMPARE_REPS` runs each.
pub fn compare(iters: u32) -> IssReport {
    let classic = measure(iters, Engine::Classic);
    let superblock = measure(iters, Engine::Superblock);
    let jit = measure(iters, Engine::Jit);
    let jit_nochain = (0..COMPARE_REPS)
        .map(|_| run_path_nochain(iters, Engine::Jit))
        .min_by_key(|run| run.wall_micros)
        .expect("COMPARE_REPS > 0");
    let ratio = |slow: &IssRun, fast: &IssRun| {
        slow.wall_micros.max(1) as f64 / fast.wall_micros.max(1) as f64
    };
    let speedup_superblock = ratio(&classic, &superblock);
    let speedup_jit = ratio(&classic, &jit);
    let jit_over_superblock = ratio(&superblock, &jit);
    let jit_chain_over_jit = ratio(&jit_nochain, &jit);
    let digests_match = classic.digest == superblock.digest
        && classic.digest == jit.digest
        && classic.digest == jit_nochain.digest;
    IssReport {
        classic,
        superblock,
        jit,
        jit_nochain,
        speedup_superblock,
        speedup_jit,
        jit_over_superblock,
        jit_chain_over_jit,
        digests_match,
    }
}

/// Result of the self-modifying-code digest smoke (see [`smc_check`]).
#[derive(Debug, Clone)]
pub struct SmcReport {
    /// Digest from the decode-every-step oracle.
    pub classic_digest: String,
    /// Digest from the chained JIT tier (superblock fallback elsewhere).
    pub jit_digest: String,
    /// Whether all three engines produced bit-identical results.
    pub digests_match: bool,
    /// Chain links the JIT run installed before the patch landed.
    pub jit_links_installed: u64,
    /// Chained block entries the JIT run took.
    pub jit_chained_dispatches: u64,
    /// Links the patch severed — must be nonzero on hosts with a JIT
    /// backend, or the smoke never exercised the unlink path.
    pub jit_unlinks: u64,
}

/// Assemble the self-modifying smoke: a hot loop that, half-way through,
/// stores a new instruction word over its own already-chained body
/// (`addi s2, s2, 1` becomes `addi s2, s2, 7`). Under the chained JIT the
/// store executes in emitted host code while a link into the victim block
/// is live, so the run is only exact if `jit_store_inval` severs the link
/// and bails the running block at the precise store boundary.
fn smc_workload() -> Machine {
    const ITERS: u32 = 300;
    const PATCH_AT: u32 = 150;
    let src = format!(
        r#"
            li   t0, 0
            li   t1, {ITERS}
            li   t2, {PATCH_AT}
            la   t3, victim
            la   t4, newword
            li   s2, 0
        loop:
            addi t0, t0, 1
            bne  t0, t2, skip
            lw   t5, 0(t4)
            sw   t5, 0(t3)
        skip:
        victim:
            addi s2, s2, 1
            bne  t0, t1, loop
            ecall
        newword:
            .word 0x00790913
        "#
    );
    Machine::assemble(&src).expect("SMC workload assembles")
}

/// Run the self-modifying workload on all three engines and compare
/// digests — the `--smc` mode behind `scripts/verify.sh --quick`'s
/// unlink smoke.
///
/// # Panics
///
/// Panics if the workload traps (a build-time bug).
pub fn smc_check() -> SmcReport {
    let run = |engine: Engine| {
        let mut machine = smc_workload();
        machine.cpu_mut().set_engine(engine);
        measure_cpu(machine.cpu_mut(), 1)
    };
    let classic = run(Engine::Classic);
    let superblock = run(Engine::Superblock);
    let jit = run(Engine::Jit);
    SmcReport {
        digests_match: classic.digest == superblock.digest && classic.digest == jit.digest,
        classic_digest: classic.digest,
        jit_digest: jit.digest,
        jit_links_installed: jit.jit_links_installed,
        jit_chained_dispatches: jit.jit_chained_dispatches,
        jit_unlinks: jit.jit_unlinks,
    }
}

/// A cold-vs-warm fleet comparison: `cells` independent sweep cells run
/// on `threads` workers, once with per-cell cold starts (assemble, load,
/// compile from scratch — today's table-sweep behaviour) and once through
/// the warm-start layer (one pristine [`lac_rv32::WarmImage`] plus one
/// priming run populating a [`SharedTraceCache`], then per-cell
/// [`Cpu::restore`]). The image build and priming run are *inside* the
/// warm timing, so the speedup is end-to-end honest.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// Sweep cells per pass.
    pub cells: usize,
    /// Worker threads used.
    pub threads: usize,
    /// Workload size per cell.
    pub iters: u32,
    /// Wall-clock of the cold pass, microseconds.
    pub cold_wall_micros: u64,
    /// Wall-clock of the warm pass (including image + priming run).
    pub warm_wall_micros: u64,
    /// `cold_wall / warm_wall` — the verify.sh warm-start gate figure.
    pub speedup: f64,
    /// Whether every cold cell, every warm cell and the priming run all
    /// produced one identical architectural digest.
    pub digests_match: bool,
    /// That common digest (from the first cold cell).
    pub digest: String,
    /// Shared trace-cache counters after the warm pass.
    pub shared: SharedTraceStats,
}

/// Run the cold-vs-warm sweep comparison (see [`SweepReport`]).
///
/// # Panics
///
/// Panics if the workload traps (a build-time bug).
pub fn sweep(cells: usize, iters: u32, threads: usize) -> SweepReport {
    // Cold pass: every cell pays full setup, as table sweeps do today.
    let cold_started = Instant::now();
    let cold: Vec<String> = shard::run_indexed(cells, threads, |_| {
        run_path(iters, Engine::Superblock).digest
    });
    let cold_wall_micros = cold_started.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;

    // Warm pass: one image + one priming run, then restore per cell with
    // a per-worker CPU reused across cells.
    let warm_started = Instant::now();
    let image = workload(iters).snapshot();
    let shared = Arc::new(SharedTraceCache::new());
    let mut primer = Cpu::from_image(&image);
    primer.attach_shared_cache(Arc::clone(&shared));
    let prime_digest = measure_cpu(&mut primer, iters).digest;
    let warm: Vec<String> = shard::run_indexed_with(
        cells,
        threads,
        || {
            let mut cpu = Cpu::from_image(&image);
            cpu.attach_shared_cache(Arc::clone(&shared));
            cpu
        },
        |cpu, _| {
            cpu.restore(&image);
            measure_cpu(cpu, iters).digest
        },
    );
    let warm_wall_micros = warm_started.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;

    let digest = cold.first().cloned().unwrap_or_default();
    let digests_match = !digest.is_empty()
        && prime_digest == digest
        && cold.iter().all(|d| *d == digest)
        && warm.iter().all(|d| *d == digest);
    SweepReport {
        cells,
        threads,
        iters,
        cold_wall_micros,
        warm_wall_micros,
        speedup: cold_wall_micros.max(1) as f64 / warm_wall_micros.max(1) as f64,
        digests_match,
        digest,
        shared: shared.stats(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_engines_agree_architecturally() {
        let report = compare(2);
        assert!(report.digests_match, "engines diverged");
        assert_eq!(report.classic.instructions, report.superblock.instructions);
        assert_eq!(report.classic.instructions, report.jit.instructions);
        assert_eq!(report.classic.cycles, report.superblock.cycles);
        assert_eq!(report.classic.cycles, report.jit.cycles);
        assert!(report.classic.instructions > 2 * LV as u64);
    }

    #[test]
    fn jit_engine_matches_oracle_and_reports_its_mode() {
        let classic = run_path(2, Engine::Classic);
        let jit = run_path(2, Engine::Jit);
        assert_eq!(jit.digest, classic.digest, "jit diverged from oracle");
        assert_eq!(jit.instructions, classic.instructions);
        assert_eq!(jit.cycles, classic.cycles);
        if lac_rv32::jit::host_supported() {
            assert!(jit.jit_compiles > 0, "{jit:?}");
            assert!(jit.jit_dispatches > 0, "{jit:?}");
            assert_eq!(jit.jit_fallbacks, 0, "{jit:?}");
        } else {
            // The graceful degradation path: superblock results, one
            // counted fallback, no emitted code.
            assert_eq!(jit.jit_dispatches, 0, "{jit:?}");
            assert!(jit.jit_fallbacks > 0, "{jit:?}");
        }
    }

    #[test]
    fn superblock_engine_actually_dispatches_blocks() {
        let mut machine = workload(16);
        let exit = machine.run(10_000_000).expect("runs to ecall");
        assert!(exit.instructions > 0);
        let stats = machine.cpu().superblock_stats();
        assert!(stats.compiles > 0, "hot loop should compile");
        assert!(
            stats.dispatches > 10,
            "hot loop should run from the trace cache: {stats:?}"
        );
    }

    #[test]
    fn workload_scales_with_iters() {
        let one = run_path(1, Engine::Superblock);
        let three = run_path(3, Engine::Superblock);
        assert!(three.instructions > 2 * one.instructions);
        assert_ne!(one.digest, three.digest);
        // Same shape twice → identical digest (pure function of iters).
        assert_eq!(run_path(3, Engine::Superblock).digest, three.digest);
    }

    #[test]
    fn sweep_digests_match_across_cold_and_warm_fleets() {
        let report = sweep(3, 2, 2);
        assert!(report.digests_match, "{report:?}");
        assert_eq!(report.digest, run_path(2, Engine::Superblock).digest);
        assert!(report.shared.publishes > 0, "primer published nothing");
        assert!(report.shared.installs > 0, "workers installed nothing");
    }

    #[test]
    fn smc_workload_unlinks_and_stays_exact() {
        let report = smc_check();
        assert!(report.digests_match, "{report:?}");
        if lac_rv32::jit::host_supported() {
            assert!(report.jit_links_installed > 0, "{report:?}");
            assert!(report.jit_chained_dispatches > 0, "{report:?}");
            assert!(report.jit_unlinks > 0, "{report:?}");
        }
    }

    #[test]
    fn engine_names_round_trip() {
        for engine in ENGINES {
            assert_eq!(parse_engine(engine_name(engine)), Some(engine));
        }
        assert_eq!(parse_engine("warp-drive"), None);
    }
}
