//! ISS throughput smoke: run the LAC decryption recover-loop workload on
//! the `lac-rv32` execution engines and report wall-clock throughput.
//!
//! This is the binary behind `scripts/verify.sh`'s ISS gate: it exits
//! non-zero if any engine's architectural digest diverges, and prints the
//! superblock-vs-classic `"speedup"` so the caller can assert the ≥3×
//! floor. The `"mips_fast"` figure (superblock engine) is also compared
//! against the recorded floor in `baselines/iss.json` by
//! `scripts/bench_compare.sh`.
//!
//! Run: `cargo run --release -p lac-bench --bin iss_bench
//!       [--json] [--iters N] [--engine classic|superblock|jit]
//!       [--sweep [--cells N] [--threads N]] [--smc]`
//!
//! `--iters` and `--cells` must be at least 1: a zero size is a usage
//! error (exit 2), not an empty run.
//!
//! With `--engine`, only that engine is measured (no differential check);
//! the default compares every engine plus the JIT with chaining off, and
//! also prints the `"jit_over_superblock"` and `"jit_chain_over_jit"`
//! ratios and the `"jit_supported"` flag behind `scripts/verify.sh`'s JIT
//! gates (chained jit ≥ 3× superblock and ≥ 1.3× the unchained jit on
//! hosts with a JIT backend; on others `Engine::Jit` silently degrades to
//! the superblock interpreter and a one-line note is printed instead).
//! With `--smc`, a self-modifying workload patches an already-chained
//! block mid-run and the three engines' digests are compared — the
//! unlink-exactness smoke behind `scripts/verify.sh --quick`. With
//! `--sweep`, a fleet of `--cells` independent sweep cells runs on
//! `--threads` workers twice
//! — per-cell cold starts vs the warm-start layer (shared trace cache +
//! snapshot/restore) — and reports the `"warm_speedup"` ratio plus a
//! `"digests_match"` bit-identity check; this is the binary behind
//! `scripts/verify.sh`'s warm-start gate (warm ≥ 1.5× cold).

use lac_bench::{iss, shard, thousands, Flags};
use lac_rv32::Engine;
use std::num::{NonZeroU32, NonZeroUsize};
use std::process::ExitCode;

fn json_run(r: &iss::IssRun) -> String {
    format!(
        "{{\"instructions\": {}, \"cycles\": {}, \"wall_us\": {}, \"mips\": {:.2}, \"digest\": \"{}\", \"jit_compiles\": {}, \"jit_dispatches\": {}, \"jit_shared_installs\": {}, \"jit_fallbacks\": {}, \"iss_jit_links_installed\": {}, \"iss_jit_chained_dispatches\": {}, \"iss_jit_unlinks\": {}}}",
        r.instructions,
        r.cycles,
        r.wall_micros,
        r.mips,
        r.digest,
        r.jit_compiles,
        r.jit_dispatches,
        r.jit_shared_installs,
        r.jit_fallbacks,
        r.jit_links_installed,
        r.jit_chained_dispatches,
        r.jit_unlinks
    )
}

/// The one-line unsupported-host note: printed whenever a requested JIT
/// run degraded to the superblock interpreter instead of panicking.
fn note_fallback(run: &iss::IssRun) {
    if run.jit_fallbacks > 0 {
        println!(
            "  note: jit backend unavailable on this host ({} fallback{}); Engine::Jit ran on the superblock interpreter",
            run.jit_fallbacks,
            if run.jit_fallbacks == 1 { "" } else { "s" }
        );
    }
}

fn print_run(label: &str, r: &iss::IssRun) {
    println!(
        "  {label:<26} {:>12} instr in {:>9} us = {:>8.2} MIPS",
        thousands(r.instructions),
        r.wall_micros,
        r.mips
    );
}

fn run_sweep(flags: &Flags) -> ExitCode {
    flags.only(&["sweep", "json", "cells", "iters", "threads"]);
    // Sweep cells are small by default: the point is fleet setup cost,
    // not per-cell run length.
    let cells = flags.value("cells").map_or(48, NonZeroUsize::get);
    let iters = flags.value("iters").map_or(40, NonZeroU32::get);
    let threads = shard::thread_count(flags.value("threads"));
    let report = iss::sweep(cells, iters, threads);

    if flags.has("json") {
        println!("{{");
        println!("  \"bench\": \"iss_sweep\",");
        println!("  \"cells\": {},", report.cells);
        println!("  \"iters\": {},", report.iters);
        println!("  \"threads\": {},", report.threads);
        println!("  \"cold_wall_us\": {},", report.cold_wall_micros);
        println!("  \"warm_wall_us\": {},", report.warm_wall_micros);
        println!("  \"warm_speedup\": {:.2},", report.speedup);
        println!("  \"shared_publishes\": {},", report.shared.publishes);
        println!("  \"shared_installs\": {},", report.shared.installs);
        println!("  \"shared_blocks\": {},", report.shared.blocks);
        println!("  \"digest\": \"{}\",", report.digest);
        println!("  \"digests_match\": {}", report.digests_match);
        println!("}}");
    } else {
        println!(
            "ISS warm-start sweep — {} cells x {} iters on {} threads",
            report.cells, report.iters, report.threads
        );
        println!(
            "  cold (per-cell setup):      {:>9} us",
            report.cold_wall_micros
        );
        println!(
            "  warm (image + shared cache):{:>9} us",
            report.warm_wall_micros
        );
        println!("  speedup: {:.2}x", report.speedup);
        println!(
            "  shared cache: {} blocks published, {} installs across workers",
            report.shared.publishes, report.shared.installs
        );
        println!(
            "  digests match: {} ({})",
            report.digests_match,
            &report.digest[..16.min(report.digest.len())]
        );
    }

    if !report.digests_match {
        eprintln!("error: cold and warm fleets produced different architectural digests");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn run_smc(flags: &Flags) -> ExitCode {
    flags.only(&["smc", "json"]);
    let supported = lac_rv32::jit::host_supported();
    let report = iss::smc_check();
    if flags.has("json") {
        println!("{{");
        println!("  \"bench\": \"iss_smc\",");
        println!("  \"jit_supported\": {supported},");
        println!("  \"classic_digest\": \"{}\",", report.classic_digest);
        println!("  \"jit_digest\": \"{}\",", report.jit_digest);
        println!(
            "  \"iss_jit_links_installed\": {},",
            report.jit_links_installed
        );
        println!(
            "  \"iss_jit_chained_dispatches\": {},",
            report.jit_chained_dispatches
        );
        println!("  \"iss_jit_unlinks\": {},", report.jit_unlinks);
        println!("  \"digests_match\": {}", report.digests_match);
        println!("}}");
    } else {
        println!("ISS self-modifying-code smoke — patch a chained block mid-run");
        println!(
            "  chain: {} links installed, {} chained dispatches, {} unlinks",
            report.jit_links_installed, report.jit_chained_dispatches, report.jit_unlinks
        );
        println!(
            "  digests match: {} ({})",
            report.digests_match,
            &report.classic_digest[..16]
        );
    }
    if !report.digests_match {
        eprintln!("error: self-modifying workload diverged across engines");
        return ExitCode::FAILURE;
    }
    if supported && report.jit_unlinks == 0 {
        eprintln!("error: smc smoke never severed a chain link — unlink path untested");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let flags = Flags::parse(
        &["json", "smc", "sweep"],
        &["iters", "engine", "cells", "threads"],
    );
    if flags.has("smc") {
        return run_smc(&flags);
    }
    if flags.has("sweep") {
        return run_sweep(&flags);
    }
    flags.only(&["json", "iters", "engine"]);
    let json = flags.has("json");
    let iters = flags.value("iters").map_or(2_000, NonZeroU32::get);
    let only = match flags.value::<String>("engine") {
        None => None,
        Some(name) => match iss::parse_engine(&name) {
            Some(engine) => Some(engine),
            None => {
                eprintln!("error: unknown engine {name:?} (classic|superblock|jit)");
                return ExitCode::FAILURE;
            }
        },
    };

    if let Some(engine) = only {
        let run = iss::measure(iters, engine);
        let name = iss::engine_name(engine);
        if json {
            println!("{{");
            println!("  \"bench\": \"iss\",");
            println!("  \"iters\": {iters},");
            println!("  \"engine\": \"{name}\",");
            println!("  \"jit_supported\": {},", lac_rv32::jit::host_supported());
            println!("  \"run\": {}", json_run(&run));
            println!("}}");
        } else {
            println!("ISS throughput — LAC decrypt recover loop, {iters} iterations");
            print_run(&format!("{name}:"), &run);
            if engine == Engine::Jit {
                note_fallback(&run);
            }
        }
        return ExitCode::SUCCESS;
    }

    let report = iss::compare(iters);

    if json {
        println!("{{");
        println!("  \"bench\": \"iss\",");
        println!("  \"iters\": {iters},");
        println!("  \"jit_supported\": {},", lac_rv32::jit::host_supported());
        println!("  \"classic\": {},", json_run(&report.classic));
        println!("  \"superblock\": {},", json_run(&report.superblock));
        println!("  \"jit\": {},", json_run(&report.jit));
        println!("  \"jit_nochain\": {},", json_run(&report.jit_nochain));
        println!("  \"speedup_jit\": {:.2},", report.speedup_jit);
        println!(
            "  \"jit_over_superblock\": {:.2},",
            report.jit_over_superblock
        );
        println!(
            "  \"jit_chain_over_jit\": {:.2},",
            report.jit_chain_over_jit
        );
        // "speedup" and "mips_fast" are the compatibility keys gated by
        // scripts/verify.sh and scripts/bench_compare.sh: the fastest
        // *interpreter* (superblock) against the classic oracle — stable
        // across hosts with and without a JIT backend.
        println!("  \"speedup\": {:.2},", report.speedup_superblock);
        println!("  \"mips_fast\": {:.2},", report.superblock.mips);
        println!("  \"digests_match\": {}", report.digests_match);
        println!("}}");
    } else {
        println!("ISS throughput — LAC decrypt recover loop, {iters} iterations");
        print_run("classic (decode each step):", &report.classic);
        print_run("superblock (trace cache):", &report.superblock);
        print_run("jit unchained (host code):", &report.jit_nochain);
        print_run("jit chained (host code):", &report.jit);
        println!(
            "  speedup vs classic: superblock {:.2}x, jit {:.2}x",
            report.speedup_superblock, report.speedup_jit
        );
        println!(
            "  jit over superblock: {:.2}x, chained over unchained: {:.2}x",
            report.jit_over_superblock, report.jit_chain_over_jit
        );
        println!(
            "  chain: {} links installed, {} chained dispatches, {} unlinks",
            thousands(report.jit.jit_links_installed),
            thousands(report.jit.jit_chained_dispatches),
            thousands(report.jit.jit_unlinks)
        );
        note_fallback(&report.jit);
        println!(
            "  digests match: {} ({})",
            report.digests_match,
            &report.superblock.digest[..16]
        );
    }

    if !report.digests_match {
        eprintln!("error: the engines produced different architectural digests");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
