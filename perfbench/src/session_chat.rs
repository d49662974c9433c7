//! session-chat: an open loop of sealed-session traffic at a fixed offered
//! rate over `nproc` lanes (one connection each) to an in-process
//! `Server`.

use crate::host;
use crate::kem::{self, Fixtures};
use crate::report::Report;
use crate::script::{self, SessionAction, SplitMix};
use crate::server::{self, server_seed, Running};
use crate::stats::{self, Samples};
use crate::trace::{self, Overhead, Tracer};
use crate::RunCfg;
use lac::{Backend, Kem, Params};
use lac_rand::Sha256CtrRng;
use lac_serve::client::Client;
use lac_serve::session::{self, ClientSession, Direction, SessionFrame};
use lac_serve::wire::{self, FrameDecoder, Opcode, RequestFrame};
use lac_serve::BackendKind;
use std::thread;
use std::time::{Duration, Instant};

/// Offered rate per lane, in ops per second: under a quarter of the rate
/// at which the backlog starts to grow on a 2-vCPU KVM guest (between 800
/// and 1000 per lane there), so a lane's next message is rarely due before
/// its last reply is in and a host stall delays few messages behind it
/// (see README.md).
const RATE_PER_LANE: f64 = 200.0;
/// Backend of both sides of every handshake.
const HANDSHAKE_BACKEND: BackendKind = BackendKind::Hw;
/// Untimed actions per lane before the window.
const WARMUP_ACTIONS: usize = 120;
/// Actions per lane the layer replay re-runs (over a thousand messages
/// in all, for a p99 with ten samples beyond it).
const REPLAY_ACTIONS: usize = 700;
/// The first message of every start-up.
const HELLO: &[u8] = b"perfbench session-chat hello....";

/// One lane: a connection, the client side's KEM state and its session.
pub struct Lane {
    client: Client,
    kem: Kem,
    backend: Box<dyn Backend>,
    rng: Sha256CtrRng,
    session: Option<ClientSession>,
    next_seq: u64,
}

impl Lane {
    fn connect(addr: &str, seed: u64, lane: usize) -> Result<Self, String> {
        Ok(Self {
            client: Client::connect(addr).map_err(|e| format!("connect: {e}"))?,
            kem: Kem::new(Params::lac128()),
            backend: HANDSHAKE_BACKEND.build(),
            rng: Sha256CtrRng::from_seed(
                SplitMix::new(seed ^ lane as u64, "session-lane").seed32(),
            ),
            session: None,
            // Handshake seqs (the server's DRBG lanes) are lane-strided.
            next_seq: (lane as u64 + 1) << 40,
        })
    }

    fn seq(&mut self) -> u64 {
        self.next_seq += 1;
        self.next_seq
    }

    /// Perform one action. A message passes only if its echo passes
    /// `ClientSession::open_reply`'s tag check and equals what was sent.
    fn act(&mut self, action: &SessionAction) -> Result<(), String> {
        match action {
            SessionAction::Open => {
                let seq = self.seq();
                let s = self.client.session_open(
                    &self.kem,
                    self.backend.as_mut(),
                    HANDSHAKE_BACKEND,
                    seq,
                    &mut self.rng,
                )?;
                self.session = Some(s);
                Ok(())
            }
            SessionAction::Msg(body) => {
                let s = self.session.as_mut().ok_or("no open session")?;
                let echo = self.client.session_send(s, body)?;
                if echo == *body {
                    Ok(())
                } else {
                    Err("echo differs from the message".into())
                }
            }
            SessionAction::Rekey => {
                let seq = self.seq();
                let s = self.session.as_mut().ok_or("no open session")?;
                self.client.session_rekey(
                    &self.kem,
                    self.backend.as_mut(),
                    HANDSHAKE_BACKEND,
                    s,
                    seq,
                    &mut self.rng,
                )
            }
            SessionAction::Close => {
                let s = self.session.take().ok_or("no open session")?;
                self.client.session_close(s)
            }
        }
    }
}

/// Start a server and, on each of `lanes` connections, open a session
/// and check the echo of a first message; returns the seconds this took
/// and the lanes with their sessions closed again.
fn start(lanes: usize, seed: u64) -> Result<(f64, Running, Vec<Lane>), String> {
    let t0 = Instant::now();
    let (server, _, _) = server::spawn(lanes, server_seed(seed))?;
    let mut out = Vec::with_capacity(lanes);
    for lane in 0..lanes {
        let mut l = Lane::connect(server.addr(), seed, lane)?;
        l.act(&SessionAction::Open)?;
        l.act(&SessionAction::Msg(HELLO.to_vec()))?;
        out.push(l);
    }
    let secs = t0.elapsed().as_secs_f64();
    for l in &mut out {
        l.act(&SessionAction::Close)?;
    }
    Ok((secs, server, out))
}

/// What a timed window saw.
pub struct Window {
    /// Latency of every op, in ms: from its due time when the system
    /// still held the lane then, else from when the lane sent it.
    pub lat_ms: Samples,
    /// Latency of the handshakes alone, in ms.
    pub handshake_ms: Samples,
    /// How late the generator sent, in ms.
    pub late_ms: Samples,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that failed, with up to three described.
    pub failed: (u64, Vec<String>),
    /// Scheduled start to last completion, in seconds.
    pub wall_s: f64,
    /// CPU time of every thread but the load generator's, in ns.
    pub system_cpu_ns: u64,
    /// Spans, when traced.
    pub tracer: Option<Tracer>,
}

/// Run each lane's script open-loop: each action is sent at its due
/// time (see [`script::session_arrivals`]). Its latency counts from the
/// due time when the lane's previous action was still in the system then,
/// so queueing is never hidden; when the lane was free, it counts from
/// the send, so the generator's own wake-up lateness (reported on its
/// own) stays out of the system's latency.
fn window(lanes: &mut [Lane], scripts: &[LaneScript], traced: Option<Instant>) -> Window {
    let start = Instant::now() + Duration::from_millis(20);
    let proc0 = host::process_cpu_ns();
    let outs: Vec<_> = thread::scope(|s| {
        let handles: Vec<_> = lanes
            .iter_mut()
            .zip(scripts)
            .enumerate()
            .map(|(l, (lane, script))| {
                s.spawn(move || {
                    let cpu0 = host::thread_cpu_ns();
                    let mut tracer = traced.map(Tracer::new);
                    let (mut lat, mut hs, mut late) =
                        (Samples::new(), Samples::new(), Samples::new());
                    let mut failed = (0u64, Vec::new());
                    let mut last = start;
                    for (k, (action, due_s)) in script.actions.iter().zip(&script.due_s).enumerate()
                    {
                        let due = start + Duration::from_secs_f64(*due_s);
                        let now = Instant::now();
                        if due > now {
                            thread::sleep(due - now);
                        }
                        let sent = Instant::now();
                        let result = lane.act(action);
                        let done = Instant::now();
                        // `last` is the previous action's completion.
                        let from = if last > due { due } else { sent.max(due) };
                        late.push((sent - due).as_secs_f64() * 1e3);
                        lat.push((done - from).as_secs_f64() * 1e3);
                        if action.is_handshake() {
                            hs.push((done - from).as_secs_f64() * 1e3);
                        }
                        if let Some(t) = tracer.as_mut() {
                            t.record(
                                "session-chat.op",
                                from,
                                done,
                                None,
                                (l * script.actions.len() + k) as u64,
                            );
                        }
                        if let Err(e) = result {
                            failed.0 += 1;
                            if failed.1.len() < 3 {
                                failed.1.push(format!("lane {l} action {k}: {e}"));
                            }
                        }
                        last = done;
                    }
                    (
                        lat,
                        hs,
                        late,
                        failed,
                        host::thread_cpu_ns() - cpu0,
                        last,
                        tracer,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("lane panicked"))
            .collect()
    });
    let mut w = Window {
        lat_ms: Samples::new(),
        handshake_ms: Samples::new(),
        late_ms: Samples::new(),
        attempted: scripts.iter().map(|s| s.actions.len() as u64).sum(),
        failed: (0, Vec::new()),
        wall_s: 0.0,
        system_cpu_ns: host::process_cpu_ns() - proc0,
        tracer: traced.map(Tracer::new),
    };
    let mut end = start;
    for (lat, hs, late, failed, cpu, last, tracer) in outs {
        w.lat_ms.extend(&lat);
        w.handshake_ms.extend(&hs);
        w.late_ms.extend(&late);
        w.failed.0 += failed.0;
        w.failed.1.extend(failed.1);
        w.system_cpu_ns = w.system_cpu_ns.saturating_sub(cpu);
        end = end.max(last);
        if let (Some(all), Some(t)) = (w.tracer.as_mut(), tracer) {
            all.absorb(t);
        }
    }
    w.failed.1.truncate(3);
    w.wall_s = (end - start).as_secs_f64();
    w
}

/// One lane's actions and when each is due, in seconds from the start
/// of the window.
struct LaneScript {
    actions: Vec<SessionAction>,
    due_s: Vec<f64>,
}

fn scripts(seed: u64, lanes: usize, actions: usize) -> Vec<LaneScript> {
    (0..lanes)
        .map(|l| {
            let actions = script::session_lane(seed, l, actions);
            let due_s = script::session_arrivals(seed, l, lanes, actions.len(), RATE_PER_LANE);
            LaneScript { actions, due_s }
        })
        .collect()
}

fn record(report: &mut Report, what: &str, w: &Window) {
    report.ops(w.attempted, w.failed.0);
    for why in &w.failed.1 {
        report.note(format!("FAILED {what}: {why}"));
    }
}

/// Table II cells of the handshakes: LAC-128 keygen, encaps and decaps on
/// the handshake backend.
fn handshake_model_err(seed: u64) -> f64 {
    let cells: Vec<_> = script::KemKind::ALL
        .iter()
        .map(|&k| (0, HANDSHAKE_BACKEND, k))
        .collect();
    let root = Sha256CtrRng::from_seed(server_seed(seed));
    kem::model_err(&[], &Fixtures::generate(seed), &root, &cells)
}

/// The end-to-end run.
///
/// # Errors
///
/// A failed start-up.
pub fn run(cfg: &RunCfg) -> Result<Report, String> {
    let mut report = Report::default();
    let mut times = Vec::new();
    let mut up = None;
    for rep in 0..crate::SETUP_REPS {
        let (secs, server, lanes) = start(cfg.lanes, cfg.seed)?;
        times.push(secs);
        if rep + 1 < crate::SETUP_REPS {
            drop(lanes);
            server.stop();
        } else {
            up = Some((server, lanes));
        }
    }
    let (server, mut lanes) = up.expect("at least one start-up");

    let warm = scripts(cfg.seed ^ 0x5741_524D, cfg.lanes, WARMUP_ACTIONS);
    record(&mut report, "warm-up", &window(&mut lanes, &warm, None));

    let per_lane = (cfg.seconds as f64 * RATE_PER_LANE) as usize;
    let script = scripts(
        cfg.seed,
        cfg.lanes,
        per_lane.max(crate::MIN_OPS.div_ceil(cfg.lanes)),
    );
    let mut w = window(&mut lanes, &script, None);
    record(&mut report, "window", &w);
    drop(lanes);
    let snap = server.stop();
    let ok = w.attempted - w.failed.0;

    report.metric("setup_s", stats::median(&times), "s");
    report.metric("ops_per_s", ok as f64 / w.wall_s, "1/s");
    report.quantile("p50_ms", w.lat_ms.quantile(0.5), "ms");
    report.quantile_note("p99_ms", w.lat_ms.quantile(0.99), "ms");
    report.metric("ok_frac", ok as f64 / w.attempted as f64, "frac");
    report.metric(
        "cpu_ms_per_op",
        w.system_cpu_ns as f64 / 1e6 / ok.max(1) as f64,
        "ms",
    );
    report.metric("model_err", handshake_model_err(cfg.seed), "frac");
    report.metric("peak_rss_mb", host::peak_rss_mb(), "MB");
    let late50 = w.late_ms.quantile(0.5).map_or(f64::NAN, |q| q.value);
    let late99 = w.late_ms.quantile(0.99).map_or(f64::NAN, |q| q.value);
    let hs50 = w.handshake_ms.quantile(0.5).map_or(f64::NAN, |q| q.value);
    report.note(format!(
        "session-chat: {} ops offered at {:.0}/s on {} lanes in {:.3} s; handshakes {} (p50 {:.3} ms); generator lateness p50 {:.4} ms, p99 {:.4} ms",
        w.attempted,
        RATE_PER_LANE * cfg.lanes as f64,
        cfg.lanes,
        w.wall_s,
        w.handshake_ms.len(),
        hs50,
        late50,
        late99
    ));
    report.note(format!(
        "session-chat server: {} messages, {} rekeys, tag failures {}, replay drops {}, shed_busy {}",
        snap.sessions.messages, snap.sessions.rekeys, snap.sessions.tag_failures, snap.sessions.replay_drops, snap.frontend.shed_busy
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
    let (_, server, mut lanes) = start(cfg.lanes, cfg.seed)?;
    let per_lane = (cfg.seconds as f64 * RATE_PER_LANE / 2.0) as usize / crate::OVERHEAD_BLOCKS;
    let mut sides = Overhead::default();
    let mut spans = Tracer::new(origin);
    for block in 0..crate::OVERHEAD_BLOCKS as u64 {
        let traced = block % 2 == 1;
        let script = scripts(cfg.seed ^ block, cfg.lanes, per_lane);
        let w = window(&mut lanes, &script, traced.then_some(origin));
        record(report, "overhead window", &w);
        sides.add(traced, w.attempted - w.failed.0, w.wall_s, &w.lat_ms);
        if let Some(t) = w.tracer {
            spans.absorb(t);
        }
    }
    drop(lanes);
    server.stop();
    Ok((sides, spans))
}

/// Traced run, part 2: replay each lane's script closed-loop at each
/// layer boundary — `Client::session_send` over TCP, then the same
/// message's `seal`/`open` on both sides directly, then `FrameDecoder`
/// over its request bytes — and record the `session`, `wire` and
/// session-path `server` metrics.
pub fn replay(cfg: &RunCfg, origin: Instant, report: &mut Report) -> Result<Tracer, String> {
    let (server, _, _) = server::spawn(cfg.lanes, server_seed(cfg.seed))?;
    let mut lanes = (0..cfg.lanes)
        .map(|l| Lane::connect(server.addr(), cfg.seed, l))
        .collect::<Result<Vec<_>, _>>()?;
    let scripts = scripts(cfg.seed, cfg.lanes, REPLAY_ACTIONS);
    struct LaneOut {
        tracer: Tracer,
        handshake_ms: Samples,
        requests: Vec<u8>,
        frames: usize,
        failed: u64,
        why: Vec<String>,
    }
    let outs: Vec<LaneOut> = thread::scope(|s| {
        let handles: Vec<_> = lanes
            .iter_mut()
            .zip(&scripts)
            .enumerate()
            .map(|(l, (lane, script))| {
                s.spawn(move || {
                    let mut out = LaneOut {
                        tracer: Tracer::new(origin),
                        handshake_ms: Samples::new(),
                        requests: Vec::new(),
                        frames: 0,
                        failed: 0,
                        why: Vec::new(),
                    };
                    for (k, action) in script.actions.iter().enumerate() {
                        let seq = (l * script.actions.len() + k) as u64;
                        let result = match (action, lane.session.clone()) {
                            (SessionAction::Msg(body), Some(mirror)) => replay_msg(
                                lane,
                                mirror,
                                body,
                                seq,
                                &mut out.tracer,
                                &mut out.requests,
                            )
                            .map(|()| out.frames += 1),
                            _ => {
                                let t0 = Instant::now();
                                let r = lane.act(action);
                                if action.is_handshake() {
                                    out.handshake_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                                }
                                r
                            }
                        };
                        if let Err(e) = result {
                            out.failed += 1;
                            if out.why.len() < 3 {
                                out.why.push(format!("lane {l} action {k}: {e}"));
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
    drop(lanes);
    let snap = server.stop();

    let mut tracer = Tracer::new(origin);
    let mut handshake_ms = Samples::new();
    let mut requests = Vec::new();
    let mut frames = 0;
    for out in outs {
        report.ops(0, out.failed);
        for w in out.why {
            report.note(format!("FAILED session replay: {w}"));
        }
        tracer.absorb(out.tracer);
        handshake_ms.extend(&out.handshake_ms);
        requests.extend(out.requests);
        frames += out.frames;
    }
    report.ops(scripts.iter().map(|s| s.actions.len() as u64).sum(), 0);

    let selfs = trace::self_times(tracer.spans());
    let mut server_self: Samples = trace::self_us_of(tracer.spans(), &selfs, "server.session_msg")
        .into_iter()
        .collect();
    let seal_open: Vec<f64> = trace::self_us_of(tracer.spans(), &selfs, "session.seal_open");
    report.quantile(
        "server.session_self_us_p50",
        server_self.quantile(0.5),
        "us",
    );
    report.quantile(
        "server.session_self_us_p99",
        server_self.quantile(0.99),
        "us",
    );
    report.metric(
        "session.seal_open_us",
        seal_open.iter().sum::<f64>() / seal_open.len().max(1) as f64,
        "us",
    );
    report.quantile("session.handshake_ms_p50", handshake_ms.quantile(0.5), "ms");
    report.metric(
        "session.tag_failures",
        snap.sessions.tag_failures as f64,
        "count",
    );
    report.metric(
        "session.replay_drops",
        snap.sessions.replay_drops as f64,
        "count",
    );
    let (ns_per_frame, decoded) = decode_all(&requests);
    if decoded != frames {
        report.ops(0, 1);
        report.note(format!(
            "FAILED wire replay: decoded {decoded} of {frames} frames"
        ));
    }
    report.metric("wire.decode_ns_per_frame", ns_per_frame, "ns");
    for (name, share) in trace::layer_shares(tracer.spans(), &selfs) {
        report.note(format!(
            "session replay share of message round trips: {name} {:.1}%",
            share * 100.0
        ));
    }
    Ok(tracer)
}

/// Replay one message at three boundaries: over TCP, then sealed and
/// opened directly on both sides (with a copy of the session taken
/// before the send), then decoded from its request bytes.
fn replay_msg(
    lane: &mut Lane,
    mut mirror: ClientSession,
    body: &[u8],
    seq: u64,
    tracer: &mut Tracer,
    requests: &mut Vec<u8>,
) -> Result<(), String> {
    let t0 = Instant::now();
    lane.act(&SessionAction::Msg(body.to_vec()))?;
    let t1 = Instant::now();
    let root = tracer.record("server.session_msg", t0, t1, None, seq);

    let t0 = Instant::now();
    let payload = mirror.seal_next(body);
    let frame = SessionFrame::decode(&payload)?;
    let plain = session::open(&mirror.keys.to_server, Direction::ToServer, &frame)
        .ok_or("server-side tag check failed")?;
    let echo = session::seal(
        &mirror.keys.to_client,
        Direction::ToClient,
        mirror.id,
        mirror.epoch,
        mirror.recv_seq,
        &plain,
    );
    let back = mirror.open_reply(&echo)?;
    let t1 = Instant::now();
    tracer.record("session.seal_open", t0, t1, Some(root), seq);
    if back != body {
        return Err("direct seal/open lost the message".into());
    }

    let mut bytes = Vec::new();
    let request = RequestFrame {
        opcode: Opcode::SessionMsg,
        params_code: 0,
        backend_code: 0,
        seq: 0,
        payload,
    };
    wire::write_request(&mut bytes, &request).map_err(|e| e.to_string())?;
    let t0 = Instant::now();
    let mut decoder = FrameDecoder::new();
    decoder.feed(&bytes);
    let decoded = decoder.next_frame()?;
    let t1 = Instant::now();
    tracer.record("wire.decode", t0, t1, Some(root), seq);
    if decoded.as_ref() != Some(&request) {
        return Err("wire decode differs from the request".into());
    }
    requests.extend_from_slice(&bytes);
    Ok(())
}

/// Passes of [`decode_all`] over the request bytes.
const DECODE_PASSES: usize = 20;

/// Decode `bytes` with one `FrameDecoder` fed in 16 KiB reads, as a
/// reactor would; returns ns per frame and the frames of one pass.
fn decode_all(bytes: &[u8]) -> (f64, usize) {
    let mut frames = 0;
    let t0 = Instant::now();
    for _ in 0..DECODE_PASSES {
        frames = 0;
        let mut decoder = FrameDecoder::new();
        for chunk in bytes.chunks(16 * 1024) {
            decoder.feed(chunk);
            while let Ok(Some(frame)) = decoder.next_frame() {
                std::hint::black_box(frame);
                frames += 1;
            }
        }
    }
    let ns = t0.elapsed().as_nanos() as f64 / (DECODE_PASSES * frames.max(1)) as f64;
    (ns, frames)
}
