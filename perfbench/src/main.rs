//! The repository's benchmark: three seeded workloads driven through the
//! system's public API, with every output checked.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload kem-mix|session-chat|iss-decrypt --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the layer
//! replay and prints the per-layer metrics. The last line of standard
//! output is one JSON object; the lines before it are the noise record,
//! sample counts and layer shares. See `perfbench/README.md`.

mod host;
mod iss_decrypt;
mod kem;
mod kem_mix;
mod kernels;
mod report;
mod script;
mod server;
mod session_chat;
mod stats;
mod trace;

use report::Report;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;

/// Settings of one run.
#[derive(Debug, Clone)]
pub struct RunCfg {
    /// Workload seed.
    pub seed: u64,
    /// Nominal run length; scripts are sized from it.
    pub seconds: usize,
    /// Load threads and connections: `nproc`.
    pub lanes: usize,
}

/// Fewest timed ops of a run: a p99 needs ten samples beyond it.
pub const MIN_OPS: usize = 1_100;
/// Fresh start-ups per run whose median is `setup_s`.
pub const SETUP_REPS: usize = 15;
/// Alternating untraced/traced blocks of the tracing-overhead measurement.
pub const OVERHEAD_BLOCKS: usize = 16;

const WORKLOADS: [&str; 3] = ["kem-mix", "session-chat", "iss-decrypt"];

struct Args {
    workload: String,
    seed: u64,
    seconds: usize,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (expected one of {WORKLOADS:?})"
        ));
    }
    let seconds: usize = seconds.unwrap_or(10);
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

fn end_to_end(workload: &str, cfg: &RunCfg) -> Result<Report, String> {
    match workload {
        "kem-mix" => kem_mix::run(cfg),
        "session-chat" => session_chat::run(cfg),
        _ => iss_decrypt::run(cfg),
    }
}

/// The traced run: half the named workload's script in alternating
/// untraced and traced blocks (the tracing overhead), then the layer
/// replay of every workload's script, so every per-layer metric is
/// reported whichever workload is named. Spans are kept in memory and
/// written under `perfbench/out/` at exit.
fn traced(workload: &str, cfg: &RunCfg) -> Result<Report, String> {
    let origin = Instant::now();
    let mut report = Report::default();
    let (sides, spans) = match workload {
        "kem-mix" => kem_mix::overhead(cfg, origin, &mut report)?,
        "session-chat" => session_chat::overhead(cfg, origin, &mut report)?,
        _ => iss_decrypt::overhead(cfg, origin, &mut report)?,
    };
    let (rate, p50) = sides.sides();
    report.note(format!(
        "{workload} tracing overhead: ops_per_s {:.3} untraced vs {:.3} traced; p50_ms {:.4} vs {:.4}",
        rate[0], rate[1], p50[0], p50[1]
    ));
    report.metric("trace.overhead.ops_per_s", 1.0 - rate[1] / rate[0], "frac");
    report.metric("trace.overhead.p50_ms", p50[1] / p50[0] - 1.0, "frac");
    let mut all = Tracer::new(origin);
    all.absorb(spans);
    all.absorb(kem_mix::replay(cfg, origin, &mut report)?);
    all.absorb(session_chat::replay(cfg, origin, &mut report)?);
    all.absorb(iss_decrypt::replay(cfg, origin, &mut report)?);
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{workload}-seed{}.tsv", cfg.seed));
    all.write_tsv(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    report.note(format!(
        "{} spans written to {}",
        all.spans().len(),
        path.display()
    ));
    Ok(report)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let lanes = host::nproc();
    let cfg = RunCfg {
        seed: args.seed,
        seconds: args.seconds,
        lanes,
    };
    assert!(cfg.lanes <= host::nproc(), "more load threads than CPUs");
    let before = host::HostState::sample();
    let result = if args.trace {
        traced(&args.workload, &cfg)
    } else {
        end_to_end(&args.workload, &cfg)
    };
    let after = host::HostState::sample();
    let report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    println!("{}", before.noise_line(&after));
    println!(
        "load threads and connections: {lanes} (nproc {})",
        host::nproc()
    );
    for line in &report.notes {
        println!("{line}");
    }
    for m in &report.metrics {
        println!("{} = {} {}", m.name, m.value, m.unit);
    }
    println!("{}", report.json());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
