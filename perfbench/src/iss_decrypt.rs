//! iss-decrypt: one thread decrypting pre-generated LAC-128 ciphertexts
//! on the simulated core, once with each kernel per op.

use crate::host;
use crate::kem::PAPER_MUL_128;
use crate::kernels::{self, DecryptCase, Kernel, KernelKind, KernelRun};
use crate::report::Report;
use crate::script::{self, SplitMix};
use crate::stats::{self, Samples};
use crate::trace::{self, Overhead, Tracer};
use crate::RunCfg;
use lac::{AcceleratedBackend, Backend, SoftwareBackend};
use lac_meter::CycleLedger;
use std::time::Instant;

/// Script length per second of `--seconds`: about the ops one thread
/// completes per second on a 2-vCPU KVM guest.
const OPS_PER_SECOND: usize = 560;
/// Pre-generated ciphertexts the script draws from.
const CASES: usize = 16;
/// Untimed ops before the window.
const WARMUP_OPS: usize = 20;
/// Ops the layer replay re-runs.
const REPLAY_OPS: usize = 200;

fn cases(seed: u64) -> Vec<DecryptCase> {
    kernels::decrypt_cases(SplitMix::new(seed, "iss-cases").seed32(), CASES)
}

/// Check a run's bits against native decryption (whose bits decode back
/// to the message, checked when the case was generated).
fn check(kind: KernelKind, run: &KernelRun, case: &DecryptCase) -> Result<(), String> {
    if run.bits == case.native_bits {
        Ok(())
    } else {
        Err(format!(
            "{} kernel's bits differ from native decryption",
            kind.label()
        ))
    }
}

/// Assemble both kernels and decrypt `case` once on each, checked;
/// returns the seconds from the first `Machine::assemble` to the second
/// verified result, and the kernels.
fn start(case: &DecryptCase) -> Result<(f64, [Kernel; 2]), String> {
    let t0 = Instant::now();
    let mut kernels = KernelKind::ALL.map(Kernel::assemble);
    for k in &mut kernels {
        let run = k.decrypt(case)?;
        check(k.kind(), &run, case)?;
    }
    Ok((t0.elapsed().as_secs_f64(), kernels))
}

/// What a timed window saw.
struct Window {
    lat_ms: Samples,
    /// Host µs per `Cpu::run`, per kernel.
    run_us: [Samples; 2],
    /// Instructions retired, per kernel.
    instructions: [u64; 2],
    /// Thread CPU time inside `Cpu::run`, in ns.
    run_cpu_ns: u64,
    failed: (u64, Vec<String>),
    wall_s: f64,
    /// Each kernel's last run.
    last: [Option<KernelRun>; 2],
    tracer: Option<Tracer>,
}

/// Run `ops` back to back; an op decrypts its ciphertext with both
/// kernels, and its latency covers both runs.
fn window(
    kernels: &mut [Kernel; 2],
    cases: &[DecryptCase],
    ops: &[usize],
    traced: Option<Instant>,
) -> Window {
    let mut w = Window {
        lat_ms: Samples::new(),
        run_us: [Samples::new(), Samples::new()],
        instructions: [0; 2],
        run_cpu_ns: 0,
        failed: (0, Vec::new()),
        wall_s: 0.0,
        last: [None, None],
        tracer: traced.map(Tracer::new),
    };
    let start = Instant::now();
    for (i, &c) in ops.iter().enumerate() {
        let case = &cases[c];
        let t0 = Instant::now();
        let mut spans = [(t0, t0); 2];
        let mut runs: [Result<KernelRun, String>; 2] = [Err(String::new()), Err(String::new())];
        for (k, kernel) in kernels.iter_mut().enumerate() {
            kernel.load(case);
            let before = kernel.counters();
            let cpu0 = host::thread_cpu_ns();
            let r0 = Instant::now();
            let exit = kernel.run();
            let r1 = Instant::now();
            w.run_cpu_ns += host::thread_cpu_ns() - cpu0;
            spans[k] = (r0, r1);
            w.run_us[k].push((r1 - r0).as_secs_f64() * 1e6);
            runs[k] = exit.map(|e| kernel.result(&e, before));
        }
        let t1 = Instant::now();
        w.lat_ms.push((t1 - t0).as_secs_f64() * 1e3);
        if let Some(t) = w.tracer.as_mut() {
            let root = t.record("iss-decrypt.op", t0, t1, None, i as u64);
            t.record("rv32.run.ref", spans[0].0, spans[0].1, Some(root), i as u64);
            t.record("rv32.run.opt", spans[1].0, spans[1].1, Some(root), i as u64);
        }
        let mut ok = true;
        for (k, run) in runs.into_iter().enumerate() {
            let kind = KernelKind::ALL[k];
            match run.and_then(|r| check(kind, &r, case).map(|()| r)) {
                Ok(r) => {
                    w.instructions[k] += r.instructions;
                    w.last[k] = Some(r);
                }
                Err(e) => {
                    ok = false;
                    if w.failed.1.len() < 3 {
                        w.failed.1.push(format!("op {i} (case {c}): {e}"));
                    }
                }
            }
        }
        w.failed.0 += u64::from(!ok);
    }
    w.wall_s = start.elapsed().as_secs_f64();
    w
}

fn record(report: &mut Report, what: &str, attempted: usize, w: &Window) {
    report.ops(attempted as u64, w.failed.0);
    for why in &w.failed.1 {
        report.note(format!("FAILED {what}: {why}"));
    }
}

/// Mean |ISS cycles / paper − 1| over the LAC-128 Multiplication column,
/// `ref` and `opt`.
fn model_err(last: &[Option<KernelRun>; 2]) -> f64 {
    let mut sum = 0.0;
    for (k, kind) in KernelKind::ALL.iter().enumerate() {
        let cycles = last[k].as_ref().map_or(0, |r| r.brackets.mul_cycles(*kind));
        sum += (cycles as f64 / PAPER_MUL_128[k] as f64 - 1.0).abs();
    }
    sum / 2.0
}

/// The end-to-end run.
///
/// # Errors
///
/// A failed start-up.
pub fn run(cfg: &RunCfg) -> Result<Report, String> {
    let mut report = Report::default();
    let cases = cases(cfg.seed);
    let mut times = Vec::new();
    let mut kernels = None;
    for rep in 0..crate::SETUP_REPS {
        let (secs, k) = start(&cases[rep % CASES])?;
        times.push(secs);
        kernels = Some(k);
    }
    let mut kernels = kernels.expect("at least one start-up");
    let warm = script::iss_decrypt(cfg.seed ^ 0x5741_524D, WARMUP_OPS, CASES);
    let w = window(&mut kernels, &cases, &warm, None);
    record(&mut report, "warm-up", warm.len(), &w);

    let ops = script::iss_decrypt(
        cfg.seed,
        (cfg.seconds * OPS_PER_SECOND).max(crate::MIN_OPS),
        CASES,
    );
    let mut w = window(&mut kernels, &cases, &ops, None);
    record(&mut report, "window", ops.len(), &w);
    let ok = ops.len() as u64 - w.failed.0;

    report.metric("setup_s", stats::median(&times), "s");
    report.metric("ops_per_s", ok as f64 / w.wall_s, "1/s");
    report.quantile("p50_ms", w.lat_ms.quantile(0.5), "ms");
    report.quantile_note("p99_ms", w.lat_ms.quantile(0.99), "ms");
    report.metric("ok_frac", ok as f64 / ops.len() as f64, "frac");
    report.metric(
        "cpu_ms_per_op",
        w.run_cpu_ns as f64 / 1e6 / ok.max(1) as f64,
        "ms",
    );
    report.metric("model_err", model_err(&w.last), "frac");
    report.metric("peak_rss_mb", host::peak_rss_mb(), "MB");
    report.note(format!(
        "iss-decrypt: {} ops in {:.3} s; run p50 ref {:.1} us, opt {:.1} us",
        ops.len(),
        w.wall_s,
        w.run_us[0].quantile(0.5).map_or(f64::NAN, |q| q.value),
        w.run_us[1].quantile(0.5).map_or(f64::NAN, |q| q.value),
    ));
    Ok(report)
}

/// Traced run, part 1: the window untraced and traced in alternating
/// blocks, so host-speed drift hits both sides alike.
pub fn overhead(
    cfg: &RunCfg,
    origin: Instant,
    report: &mut Report,
) -> Result<(Overhead, Tracer), String> {
    let cases = cases(cfg.seed);
    let (_, mut kernels) = start(&cases[0])?;
    let ops = script::iss_decrypt(cfg.seed, cfg.seconds * OPS_PER_SECOND / 2, CASES);
    let mut sides = Overhead::default();
    let mut spans = Tracer::new(origin);
    for (i, block) in ops
        .chunks(ops.len().div_ceil(crate::OVERHEAD_BLOCKS))
        .enumerate()
    {
        let traced = i % 2 == 1;
        let w = window(&mut kernels, &cases, block, traced.then_some(origin));
        record(report, "overhead window", block.len(), &w);
        sides.add(traced, block.len() as u64 - w.failed.0, w.wall_s, &w.lat_ms);
        if let Some(t) = w.tracer {
            spans.absorb(t);
        }
    }
    Ok((sides, spans))
}

/// Traced run, part 2: `Machine::assemble`, then `Cpu::run` per kernel
/// over the script's first ops, with the kernels' `rdcycle` brackets;
/// records the `rv32`, `sim` and `pq` metrics.
pub fn replay(cfg: &RunCfg, origin: Instant, report: &mut Report) -> Result<Tracer, String> {
    let cases = cases(cfg.seed);
    let mut load_ms = 0.0;
    let mut first_run_ms = 0.0;
    let mut kernels = KernelKind::ALL.map(|kind| {
        let t0 = Instant::now();
        let k = Kernel::assemble(kind);
        load_ms += t0.elapsed().as_secs_f64() * 1e3;
        k
    });
    for k in &mut kernels {
        let t0 = Instant::now();
        let run = k.decrypt(&cases[0])?;
        first_run_ms += t0.elapsed().as_secs_f64() * 1e3;
        check(k.kind(), &run, &cases[0])?;
    }
    report.metric("rv32.load_ms", load_ms / 2.0, "ms");
    report.metric("rv32.first_run_ms", first_run_ms, "ms");

    let issues0 = kernels[1].machine().cpu().pq().issue_counts;
    let ops = script::iss_decrypt(cfg.seed, REPLAY_OPS, CASES);
    let mut w = window(&mut kernels, &cases, &ops, Some(origin));
    record(report, "iss replay", ops.len(), &w);
    let issues1 = kernels[1].machine().cpu().pq().issue_counts;

    for (k, kind) in KernelKind::ALL.iter().enumerate() {
        let run_s: f64 = w.tracer.as_ref().map_or(0.0, |t| {
            let name = if k == 0 {
                "rv32.run.ref"
            } else {
                "rv32.run.opt"
            };
            t.spans()
                .iter()
                .filter(|s| s.name == name)
                .map(|s| s.dur_ns() as f64 / 1e9)
                .sum()
        });
        report.metric(
            format!("rv32.{}.mips", kind.label()),
            w.instructions[k] as f64 / run_s / 1e6,
            "MIPS",
        );
        let p50 = w.run_us[k].quantile(0.5);
        report.quantile(&format!("rv32.{}.run_us", kind.label()), p50, "us");
    }
    let (mut sb, mut jit_compiles, mut fallbacks, mut chained, mut dispatched) = (0, 0, 0, 0, 0);
    for k in &kernels {
        let cpu = k.machine().cpu();
        sb += cpu.superblock_stats().compiles;
        let j = cpu.jit_stats();
        jit_compiles += j.compiles;
        fallbacks += j.fallbacks;
        chained += j.chained_dispatches;
        dispatched += j.dispatches + j.chained_dispatches;
    }
    report.metric("rv32.sb_compiles", sb as f64, "count");
    report.metric("rv32.jit_compiles", jit_compiles as f64, "count");
    report.metric("rv32.jit_fallbacks", fallbacks as f64, "count");
    report.metric(
        "rv32.chained_frac",
        chained as f64 / dispatched.max(1) as f64,
        "frac",
    );

    let [r, o] = &w.last;
    let (r, o) = (
        r.as_ref().ok_or("no ref run")?,
        o.as_ref().ok_or("no opt run")?,
    );
    report.metric("sim.ref.mul_cycles", r.brackets.phases[0] as f64, "cycles");
    report.metric(
        "sim.ref.recover_cycles",
        r.brackets.phases[1] as f64,
        "cycles",
    );
    report.metric(
        "sim.opt.stream_cycles",
        o.brackets.phases[0] as f64,
        "cycles",
    );
    report.metric(
        "sim.opt.start_cycles",
        o.brackets.phases[1] as f64,
        "cycles",
    );
    report.metric(
        "sim.opt.readout_cycles",
        o.brackets.phases[2] as f64,
        "cycles",
    );
    report.metric(
        "sim.opt.recover_cycles",
        o.brackets.phases[3] as f64,
        "cycles",
    );
    // The same multiplication under the lac-meter cost model.
    let meter = |backend: &mut dyn Backend| {
        let mut ledger = CycleLedger::new();
        backend.ring_mul(cases[0].sk.s(), cases[0].ct.u(), &mut ledger);
        ledger.total() as f64
    };
    let ref_meter = meter(&mut SoftwareBackend::reference());
    let opt_meter = meter(&mut AcceleratedBackend::new());
    let gap = |iss: u64, m: f64| (iss as f64 / m - 1.0).abs();
    report.metric(
        "sim.meter_gap.ref_mul",
        gap(r.brackets.mul_cycles(KernelKind::Ref), ref_meter),
        "frac",
    );
    report.metric(
        "sim.meter_gap.opt_mul",
        gap(o.brackets.mul_cycles(KernelKind::Opt), opt_meter),
        "frac",
    );
    let per_op = |i: usize| (issues1[i] - issues0[i]) as f64 / ops.len() as f64;
    report.metric("pq.mul_ter_issues", per_op(0), "count");
    report.metric("pq.modq_issues", per_op(3), "count");

    let tracer = w.tracer.take().expect("traced window");
    let selfs = trace::self_times(tracer.spans());
    for (name, share) in trace::layer_shares(tracer.spans(), &selfs) {
        report.note(format!(
            "iss replay share of op time: {name} {:.1}%",
            share * 100.0
        ));
    }
    Ok(tracer)
}
