//! kem-mix: a closed loop of KEM requests over `nproc` connections to an
//! in-process `Server` (`nproc` workers, one reactor).

use crate::host;
use crate::kem::{self, Direct, Fixture, Fixtures, FIXTURES};
use crate::report::Report;
use crate::script::{self, KemKind, KemOp, SplitMix};
use crate::server::{self, server_seed, Running};
use crate::stats::{self, Samples};
use crate::trace::{self, Overhead, Tracer};
use crate::RunCfg;
use lac::Params;
use lac_meter::{CycleLedger, NullMeter};
use lac_rand::Sha256CtrRng;
use lac_serve::client::Client;
use lac_serve::pool::{Job, JobKind, Reply, ServePool};
use lac_serve::BackendKind;
use std::sync::Barrier;
use std::thread;
use std::time::Instant;

/// Script length per second of `--seconds`: about what two workers
/// complete per second on a 2-vCPU KVM guest, so a run lasts about
/// `--seconds`.
const OPS_PER_SECOND: usize = 560;
/// Untimed ops before the window (every cell about twice).
const WARMUP_OPS: usize = 72;
/// Ops of the script the layer replay re-runs (enough for a p99 with
/// ten samples beyond it).
const REPLAY_OPS: usize = 1_200;
/// Timed chunks of the script. Each chunk's replies are checked right
/// after it, with the server idle, so the timed ops are spread over the
/// whole run and sample more of the host's speed phases.
const CHUNKS: usize = 5;

/// A fresh start-up: `Server::bind` to first verified reply on every
/// connection.
pub struct Startup {
    /// The server.
    pub server: Running,
    /// One connection per lane.
    pub clients: Vec<Client>,
    /// `Server::bind` alone, in seconds.
    pub bind_s: f64,
    /// Bind to the last connection's first verified reply, in seconds.
    pub setup_s: f64,
    /// JIT translations of the pool's ISS warm probes.
    pub warm_jit_compiles: u64,
}

/// Start a server and make one verified LAC-128 `hw` decapsulation on
/// each of `lanes` connections.
///
/// # Errors
///
/// A failed or wrong first reply.
pub fn start(lanes: usize, seed: [u8; 32], fixtures: &Fixtures) -> Result<Startup, String> {
    let t0 = Instant::now();
    let (server, bind_s, warm_jit_compiles) = server::spawn(lanes, seed)?;
    let mut clients = Vec::with_capacity(lanes);
    for lane in 0..lanes {
        let mut client = Client::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
        let op = KemOp {
            seq: lane as u64,
            params: 0,
            backend: BackendKind::Hw,
            kind: KemKind::Decaps,
            fixture: lane % FIXTURES,
        };
        let f = fixtures.of(&op);
        match call(&mut client, &op, f) {
            Ok(Reply::Decaps { shared }) if shared == f.shared => {}
            other => return Err(format!("first reply on connection {lane}: {other:?}")),
        }
        clients.push(client);
    }
    Ok(Startup {
        server,
        clients,
        bind_s,
        setup_s: t0.elapsed().as_secs_f64(),
        warm_jit_compiles,
    })
}

/// `reps` fresh start-ups; returns the median `setup_s` and the last
/// start-up, left running.
///
/// # Errors
///
/// A failed start-up.
pub fn setup(
    lanes: usize,
    seed: [u8; 32],
    fixtures: &Fixtures,
    reps: usize,
) -> Result<(f64, Startup), String> {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for rep in 0..reps {
        let s = start(lanes, seed, fixtures)?;
        times.push(s.setup_s);
        if rep + 1 < reps {
            drop(s.clients);
            s.server.stop();
        } else {
            last = Some(s);
        }
    }
    Ok((stats::median(&times), last.expect("at least one start-up")))
}

/// One request over `client`.
fn call(client: &mut Client, op: &KemOp, f: &Fixture) -> Result<Reply, String> {
    let p = op.params();
    match op.kind {
        KemKind::Keygen => client
            .keygen(&p, op.backend, op.seq)
            .map(|(pk, sk)| Reply::Keygen { pk, sk }),
        KemKind::Encaps => client
            .encaps(&p, op.backend, op.seq, &f.pk)
            .map(|(ct, shared)| Reply::Encaps { ct, shared }),
        KemKind::Decaps => client
            .decaps(&p, op.backend, op.seq, &f.sk, &f.ct)
            .map(|shared| Reply::Decaps { shared }),
    }
}

/// The ops of a timed window and what came back.
pub struct Window {
    /// Per-op latency in ms.
    pub lat_ms: Samples,
    /// Each op with its reply.
    pub results: Vec<(KemOp, Result<Reply, String>)>,
    /// First op sent to last reply received, in seconds.
    pub wall_s: f64,
    /// CPU time of every thread but the load generator's, in ns.
    pub system_cpu_ns: u64,
    /// Spans, when traced.
    pub tracer: Option<Tracer>,
}

/// Run `ops` closed-loop: lane `l` sends ops `l, l + lanes, …` on its
/// own connection, one at a time.
pub fn window(
    clients: &mut [Client],
    ops: &[KemOp],
    fixtures: &Fixtures,
    traced: Option<Instant>,
) -> Window {
    let lanes = clients.len();
    let barrier = Barrier::new(lanes + 1);
    thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(lane, client)| {
                let barrier = &barrier;
                s.spawn(move || {
                    barrier.wait();
                    let cpu0 = host::thread_cpu_ns();
                    let start = Instant::now();
                    let mut tracer = traced.map(Tracer::new);
                    let mut lat = Vec::new();
                    let mut results = Vec::new();
                    for op in ops.iter().skip(lane).step_by(lanes) {
                        let t0 = Instant::now();
                        let reply = call(client, op, fixtures.of(op));
                        let t1 = Instant::now();
                        lat.push((t1 - t0).as_secs_f64() * 1e3);
                        if let Some(t) = tracer.as_mut() {
                            t.record("kem-mix.op", t0, t1, None, op.seq);
                        }
                        results.push((*op, reply));
                    }
                    (
                        lat,
                        results,
                        host::thread_cpu_ns() - cpu0,
                        start,
                        Instant::now(),
                        tracer,
                    )
                })
            })
            .collect();
        barrier.wait();
        let proc0 = host::process_cpu_ns();
        let lane_out: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("lane panicked"))
            .collect();
        let proc_ns = host::process_cpu_ns() - proc0;
        let mut w = Window {
            lat_ms: Samples::new(),
            results: Vec::with_capacity(ops.len()),
            wall_s: 0.0,
            system_cpu_ns: proc_ns,
            tracer: traced.map(Tracer::new),
        };
        let start = lane_out.iter().map(|l| l.3).min().expect("a lane");
        let end = lane_out.iter().map(|l| l.4).max().expect("a lane");
        w.wall_s = (end - start).as_secs_f64();
        for (lat, results, cpu, _, _, tracer) in lane_out {
            lat.iter().for_each(|&v| w.lat_ms.push(v));
            w.results.extend(results);
            w.system_cpu_ns = w.system_cpu_ns.saturating_sub(cpu);
            if let (Some(all), Some(t)) = (w.tracer.as_mut(), tracer) {
                all.absorb(t);
            }
        }
        w
    })
}

/// Check every result on `lanes` threads; returns the failures, with up
/// to three described.
pub fn verify(
    results: &[(KemOp, Result<Reply, String>)],
    fixtures: &Fixtures,
    lanes: usize,
) -> (u64, Vec<String>) {
    let chunk = results.len().div_ceil(lanes).max(1);
    let per_lane: Vec<(u64, Vec<String>)> = thread::scope(|s| {
        let handles: Vec<_> = results
            .chunks(chunk)
            .map(|part| {
                s.spawn(move || {
                    let mut direct = Direct::new();
                    let mut failed = 0;
                    let mut why = Vec::new();
                    for (op, reply) in part {
                        let ok = match reply {
                            Ok(r) => direct.check(op, fixtures.of(op), r),
                            Err(_) => false,
                        };
                        if !ok {
                            failed += 1;
                            if why.len() < 3 {
                                why.push(format!(
                                    "{op:?}: {:?}",
                                    reply.as_ref().map(|_| "wrong output")
                                ));
                            }
                        }
                    }
                    (failed, why)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("check panicked"))
            .collect()
    });
    let failed = per_lane.iter().map(|p| p.0).sum();
    let why = per_lane.into_iter().flat_map(|p| p.1).take(3).collect();
    (failed, why)
}

fn record_failures(
    report: &mut Report,
    what: &str,
    attempted: usize,
    (failed, why): (u64, Vec<String>),
) {
    report.ops(attempted as u64, failed);
    for w in why {
        report.note(format!("FAILED {what}: {w}"));
    }
}

/// The end-to-end run.
///
/// # Errors
///
/// A failed start-up.
pub fn run(cfg: &RunCfg) -> Result<Report, String> {
    let mut report = Report::default();
    let fixtures = Fixtures::generate(cfg.seed);
    let script = script::kem_mix(
        cfg.seed,
        (cfg.seconds * OPS_PER_SECOND).max(crate::MIN_OPS),
        FIXTURES,
    );
    let seed = server_seed(cfg.seed);
    let (setup_s, mut up) = setup(cfg.lanes, seed, &fixtures, crate::SETUP_REPS)?;

    let warm = script::kem_mix(cfg.seed ^ 0x5741_524D, WARMUP_OPS, FIXTURES);
    let w = window(&mut up.clients, &warm, &fixtures, None);
    record_failures(
        &mut report,
        "warm-up",
        warm.len(),
        verify(&w.results, &fixtures, cfg.lanes),
    );

    let (mut lat_ms, mut wall_s, mut system_cpu_ns) = (Samples::new(), 0.0, 0);
    let (mut failed, mut why) = (0, Vec::new());
    let mut check_s = 0.0;
    for chunk in script.chunks(script.len().div_ceil(CHUNKS)) {
        let w = window(&mut up.clients, chunk, &fixtures, None);
        lat_ms.extend(&w.lat_ms);
        wall_s += w.wall_s;
        system_cpu_ns += w.system_cpu_ns;
        let t0 = Instant::now();
        let checked = verify(&w.results, &fixtures, cfg.lanes);
        check_s += t0.elapsed().as_secs_f64();
        failed += checked.0;
        why.extend(checked.1);
    }
    drop(up.clients);
    let snap = up.server.stop();
    why.truncate(3);
    let ok = script.len() as u64 - failed;
    record_failures(&mut report, "window", script.len(), (failed, why));
    let t1 = Instant::now();
    let root = Sha256CtrRng::from_seed(seed);
    let model_err = kem::model_err(&script, &fixtures, &root, &kem::table2_cells());
    report.note(format!(
        "kem-mix: replies checked in {check_s:.2} s, model cells metered in {:.2} s",
        t1.elapsed().as_secs_f64()
    ));

    report.metric("setup_s", setup_s, "s");
    report.metric("ops_per_s", ok as f64 / wall_s, "1/s");
    report.quantile("p50_ms", lat_ms.quantile(0.5), "ms");
    report.quantile_note("p99_ms", lat_ms.quantile(0.99), "ms");
    report.metric("ok_frac", ok as f64 / script.len() as f64, "frac");
    report.metric(
        "cpu_ms_per_op",
        system_cpu_ns as f64 / 1e6 / ok.max(1) as f64,
        "ms",
    );
    report.metric("model_err", model_err, "frac");
    report.metric("peak_rss_mb", host::peak_rss_mb(), "MB");
    report.note(format!(
        "kem-mix: {} ops on {} connections in {:.3} s over {CHUNKS} timed chunks; server: {} requests, {} errors, shed_busy {}, queue high water {}",
        script.len(),
        cfg.lanes,
        wall_s,
        snap.total_requests(),
        snap.errors,
        snap.frontend.shed_busy,
        snap.queue_high_water
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
    let fixtures = Fixtures::generate(cfg.seed);
    let script = script::kem_mix(cfg.seed, cfg.seconds * OPS_PER_SECOND / 2, FIXTURES);
    let (_, mut up) = setup(cfg.lanes, server_seed(cfg.seed), &fixtures, 1)?;
    let mut sides = Overhead::default();
    let mut spans = Tracer::new(origin);
    for (i, block) in script
        .chunks(script.len().div_ceil(crate::OVERHEAD_BLOCKS))
        .enumerate()
    {
        let traced = i % 2 == 1;
        let w = window(&mut up.clients, block, &fixtures, traced.then_some(origin));
        let (failed, why) = verify(&w.results, &fixtures, cfg.lanes);
        record_failures(report, "overhead window", block.len(), (failed, why));
        sides.add(traced, block.len() as u64 - failed, w.wall_s, &w.lat_ms);
        if let Some(t) = w.tracer {
            spans.absorb(t);
        }
    }
    drop(up.clients);
    up.server.stop();
    Ok((sides, spans))
}

/// Traced run, part 2: replay the script's first ops at each layer
/// boundary — `Client` over TCP, then `ServePool::submit` → `Ticket::wait`,
/// then a direct `Kem` call (timed with a null meter, then again under a
/// cycle ledger) — on `lanes` lanes, and record the `lac`, `meter`,
/// `pool`, `server` and start-up metrics.
pub fn replay(cfg: &RunCfg, origin: Instant, report: &mut Report) -> Result<Tracer, String> {
    let fixtures = Fixtures::generate(cfg.seed);
    let script = script::kem_mix(cfg.seed, REPLAY_OPS, FIXTURES);
    let seed = server_seed(cfg.seed);
    let mut up = start(cfg.lanes, seed, &fixtures)?;
    report.metric("setup.bind_ms", up.bind_s * 1e3, "ms");
    report.metric("setup.first_reply_ms", up.setup_s * 1e3, "ms");
    report.metric(
        "setup.warm_jit_compiles",
        up.warm_jit_compiles as f64,
        "count",
    );
    let pool = ServePool::new(kem::serve_config(cfg.lanes, seed));
    let root = Sha256CtrRng::from_seed(seed);
    let lanes = cfg.lanes;

    struct LaneOut {
        tracer: Tracer,
        cycles: kem::CycleSplit,
        failed: u64,
        why: Vec<String>,
    }
    let outs: Vec<LaneOut> = thread::scope(|s| {
        let handles: Vec<_> = up
            .clients
            .iter_mut()
            .enumerate()
            .map(|(lane, client)| {
                let (pool, root, fixtures, script) = (&pool, &root, &fixtures, &script);
                s.spawn(move || {
                    let mut out = LaneOut {
                        tracer: Tracer::new(origin),
                        cycles: kem::CycleSplit::default(),
                        failed: 0,
                        why: Vec::new(),
                    };
                    let mut direct = Direct::new();
                    for op in script.iter().skip(lane).step_by(lanes) {
                        let f = fixtures.of(op);
                        let t0 = Instant::now();
                        let tcp = call(client, op, f);
                        let t1 = Instant::now();
                        let tcp_span = out.tracer.record("server.tcp", t0, t1, None, op.seq);
                        let job = Job::new(op.seq, op.params(), op.backend, job_kind(op, f));
                        let t0 = Instant::now();
                        let pooled = pool.submit(job).wait();
                        let t1 = Instant::now();
                        let pool_span =
                            out.tracer
                                .record("pool.ticket", t0, t1, Some(tcp_span), op.seq);
                        let t0 = Instant::now();
                        let direct_reply = direct.execute(op, f, root, &mut NullMeter);
                        let t1 = Instant::now();
                        out.tracer
                            .record(lac_span(op), t0, t1, Some(pool_span), op.seq);
                        let mut ledger = CycleLedger::new();
                        let metered = direct.execute(op, f, root, &mut ledger);
                        out.cycles.add(&ledger);
                        let agree = tcp.as_ref() == Ok(&pooled)
                            && pooled == direct_reply
                            && direct_reply == metered;
                        if !(agree && direct.check(op, f, &direct_reply)) {
                            out.failed += 1;
                            if out.why.len() < 3 {
                                out.why
                                    .push(format!("{op:?}: layers disagree or wrong output"));
                            }
                        }
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replay lane panicked"))
            .collect()
    });
    drop(up.clients);
    let snap = up.server.stop();
    drop(pool);

    let mut tracer = Tracer::new(origin);
    let mut cycles = kem::CycleSplit::default();
    let mut failed = 0;
    for out in outs {
        failed += out.failed;
        for w in out.why {
            report.note(format!("FAILED kem replay: {w}"));
        }
        cycles.merge(&out.cycles);
        tracer.absorb(out.tracer);
    }
    report.ops(script.len() as u64, failed);

    // lac: mean host µs per direct call, per op × backend.
    for kind in KemKind::ALL {
        for backend in BackendKind::ALL {
            let name = format!("lac.{}.{}_us", kind.label(), backend.name());
            let durs: Vec<f64> = tracer
                .spans()
                .iter()
                .filter(|s| s.name == lac_span_name(kind, backend))
                .map(|s| s.dur_ns() as f64 / 1e3)
                .collect();
            report.metric(
                name,
                durs.iter().sum::<f64>() / durs.len().max(1) as f64,
                "us",
            );
        }
    }
    substrate(cfg.seed, report);

    let ops = cycles.ops.max(1) as f64;
    report.metric("meter.cycles_per_op", cycles.total as f64 / ops, "cycles");
    report.metric("meter.gen_a_cycles", cycles.gen_a as f64 / ops, "cycles");
    report.metric("meter.sample_cycles", cycles.sample as f64 / ops, "cycles");
    report.metric("meter.mul_cycles", cycles.mul as f64 / ops, "cycles");
    report.metric(
        "meter.bch_dec_cycles",
        cycles.bch_dec as f64 / ops,
        "cycles",
    );
    report.metric("meter.hash_cycles", cycles.hash as f64 / ops, "cycles");
    report.metric("meter.other_cycles", cycles.other as f64 / ops, "cycles");

    let selfs = trace::self_times(tracer.spans());
    let mut pool_self: Samples = trace::self_us_of(tracer.spans(), &selfs, "pool.ticket")
        .into_iter()
        .collect();
    let mut server_self: Samples = trace::self_us_of(tracer.spans(), &selfs, "server.tcp")
        .into_iter()
        .collect();
    report.quantile("pool.self_us_p50", pool_self.quantile(0.5), "us");
    report.quantile("pool.self_us_p99", pool_self.quantile(0.99), "us");
    report.metric(
        "pool.queue_high_water",
        snap.queue_high_water as f64,
        "count",
    );
    report.quantile("server.self_us_p50", server_self.quantile(0.5), "us");
    report.quantile("server.self_us_p99", server_self.quantile(0.99), "us");
    let frames = snap.frontend.frames_flushed.max(1) as f64;
    report.metric(
        "server.busy_us_per_frame",
        snap.frontend_busy_ns_max() as f64 / 1e3 / frames,
        "us",
    );
    report.metric(
        "server.frames_per_flush",
        snap.frontend.frames_per_flush(),
        "count",
    );
    report.metric("server.shed_busy", snap.frontend.shed_busy as f64, "count");
    for (name, share) in trace::layer_shares(tracer.spans(), &selfs) {
        report.note(format!(
            "kem replay share of client-observed time: {name} {:.1}%",
            share * 100.0
        ));
    }
    Ok(tracer)
}

fn job_kind(op: &KemOp, f: &Fixture) -> JobKind {
    match op.kind {
        KemKind::Keygen => JobKind::Keygen,
        KemKind::Encaps => JobKind::Encaps { pk: f.pk.clone() },
        KemKind::Decaps => JobKind::Decaps {
            sk: f.sk.clone(),
            ct: f.ct.clone(),
        },
    }
}

/// Span name of a direct call: `lac.<op>.<backend>`.
fn lac_span_name(kind: KemKind, backend: BackendKind) -> &'static str {
    const NAMES: [[&str; 4]; 3] = [
        [
            "lac.keygen.ref",
            "lac.keygen.ct",
            "lac.keygen.hw",
            "lac.keygen.hw-keccak",
        ],
        [
            "lac.encaps.ref",
            "lac.encaps.ct",
            "lac.encaps.hw",
            "lac.encaps.hw-keccak",
        ],
        [
            "lac.decaps.ref",
            "lac.decaps.ct",
            "lac.decaps.hw",
            "lac.decaps.hw-keccak",
        ],
    ];
    let k = KemKind::ALL.iter().position(|&x| x == kind).expect("kind");
    let b = BackendKind::ALL
        .iter()
        .position(|&x| x == backend)
        .expect("backend");
    NAMES[k][b]
}

fn lac_span(op: &KemOp) -> &'static str {
    lac_span_name(op.kind, op.backend)
}

/// Calls timed per substrate metric.
const SUBSTRATE_REPS: usize = 40;

/// The substrate crates under `lac`: `Backend::ring_mul` per backend,
/// the bare ternary multiply, and both BCH decoders, on LAC-128 operands
/// from the fixtures.
fn substrate(seed: u64, report: &mut Report) {
    let cases = crate::kernels::decrypt_cases(SplitMix::new(seed, "substrate").seed32(), 4);
    let mean_us = |f: &mut dyn FnMut(usize)| {
        let t0 = Instant::now();
        for i in 0..SUBSTRATE_REPS {
            f(i % cases.len());
        }
        t0.elapsed().as_secs_f64() * 1e6 / SUBSTRATE_REPS as f64
    };
    for backend in [BackendKind::Ref, BackendKind::Ct, BackendKind::Hw] {
        let mut b = backend.build();
        let us = mean_us(&mut |i| {
            std::hint::black_box(b.ring_mul(cases[i].sk.s(), cases[i].ct.u(), &mut NullMeter));
        });
        report.metric(format!("ring.mul_us.{}", backend.name()), us, "us");
    }
    let us = mean_us(&mut |i| {
        std::hint::black_box(lac_ring::mul::mul_ternary(
            cases[i].sk.s(),
            cases[i].ct.u(),
            lac_ring::Convolution::Negacyclic,
            &mut NullMeter,
        ));
    });
    report.metric("ring.mul_ternary_us", us, "us");
    let lac = lac::Lac::new(Params::lac128());
    let us = mean_us(&mut |i| {
        std::hint::black_box(
            lac.bch()
                .decode_variable_time(&cases[i].native_bits, &mut NullMeter),
        );
    });
    report.metric("bch.decode_us.vt", us, "us");
    let us = mean_us(&mut |i| {
        std::hint::black_box(
            lac.bch()
                .decode_constant_time(&cases[i].native_bits, &mut NullMeter),
        );
    });
    report.metric("bch.decode_us.ct", us, "us");
}
