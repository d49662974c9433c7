//! `bench-serve`: one scheduled-arrival load driver for the serving layer.
//!
//! A run is a [`Script`] — `requests` KEM operations, or `sessions` full
//! session lifecycles — dealt over `conns` lanes, one connection each:
//! action k rides lane k % conns. One arrival rule covers every script:
//!
//! * **closed** (`target_qps == 0`): a lane sends its next action when the
//!   previous reply has arrived;
//! * **paced** (`target_qps > 0`): action k is *due* at
//!   `start + k / target_qps`, whether or not earlier replies arrived.
//!
//! Latency is always taken from the due time (a closed action is due when
//! it is sent), so a server that falls behind a paced schedule shows up as
//! latency, never as coordinated omission. Paced KEM lanes pipeline: a
//! writer sends on schedule and a reader pairs replies with due times in
//! order, which the server guarantees per connection. Closed lanes and
//! every session lane keep one action in flight; session runs clamp their
//! lanes to `min(conns, sessions, queue)`, so one handshake in flight per
//! lane never sheds and a clean run reports zero `BUSY`.
//!
//! Each reply is counted once as ok, `BUSY` (a shed, not a failure) or
//! error, timed into its latency class (KEM requests; session handshakes
//! vs session messages), and folded into the run **digest**: lane `l`
//! hashes what its actions yielded in its own order (reply payloads for
//! KEM; epoch secrets, epochs and echoed plaintexts for sessions, never the
//! arrival-order session ids; the error text of a failed action), and the
//! run digest hashes the lane digests in lane order under a domain tag.
//! KEM request `r` always rides lane `r % conns` with DRBG lane `r + 1`, so
//! with a fixed `--seed` the digest is independent of worker count, reactor
//! count and the arrival rule.
//!
//! Server-side figures — worker and reactor counts, the modelled makespan,
//! write coalescing, busiest-shard CPU time, the session table — come from
//! one `STATS` poll after the load, for an in-process server and an
//! external `addr` alike. An in-process server is then shut down, and the
//! run returns only after it has drained.

use crate::client::{Client, BUSY_MSG};
use crate::metrics::{Histogram, HistogramSnapshot};
use crate::pool::ServeConfig;
use crate::server::Server;
use crate::wire::{self, Opcode, RequestFrame, ResponseFrame};
use crate::{params_code, BackendKind, Op};
use lac::{Kem, Params};
use lac_meter::NullMeter;
use lac_rand::Sha256CtrRng;
use lac_sha256::Sha256;
use std::time::{Duration, Instant};

/// What a run sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Script {
    /// `requests` KEM operations of one kind.
    Kem {
        /// Operation to drive.
        op: Op,
        /// Total requests across all lanes.
        requests: usize,
    },
    /// `sessions` session lifecycles: open, `chats` sealed messages with a
    /// rekey whenever `rekey_every` were sent in the epoch, then close.
    Sessions {
        /// Total sessions to open across all lanes.
        sessions: usize,
        /// Sealed chat messages per session.
        chats: usize,
        /// Client-driven rekey cadence; 0 never rekeys.
        rekey_every: u64,
        /// Keep every session open until the run ends (occupancy mode:
        /// fills the bounded table and shows LRU eviction beyond it).
        hold: bool,
    },
}

/// One load run: a script, its arrival rule and the server it targets.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// What to send.
    pub script: Script,
    /// Parameter set of every KEM operation and handshake.
    pub params: Params,
    /// Execution backend of every KEM operation and handshake.
    pub backend: BackendKind,
    /// Lanes the script is dealt over (one connection each).
    pub conns: usize,
    /// Arrival rule: 0 runs closed lanes; a positive rate paces action k
    /// to `k / target_qps` seconds after the start.
    pub target_qps: f64,
    /// Root seed (`u64` convenience form, like the CLI's `--seed`).
    pub seed: u64,
    /// Target an already-running server instead of spawning one.
    pub addr: Option<String>,
    /// Connect/read/write deadline per connection in ms (0 = none).
    pub timeout_ms: u64,
    /// Worker threads of the in-process server (unused with `addr`).
    pub workers: usize,
    /// Reactor shards of the in-process server (unused with `addr`).
    pub reactors: usize,
    /// Queue capacity of the in-process server. Session runs also clamp
    /// their lanes to it.
    pub queue_capacity: usize,
    /// Session-table bound of the in-process server.
    pub session_capacity: usize,
    /// Server-enforced rekey-after-N policy of the in-process server
    /// (0 disables; `rekey_every` drives client-side rekeys).
    pub session_rekey_after: u64,
}

impl Default for LoadConfig {
    fn default() -> Self {
        let server = ServeConfig::default();
        Self {
            script: Script::Kem {
                op: Op::Encaps,
                requests: 64,
            },
            params: Params::lac128(),
            backend: BackendKind::Ct,
            conns: 4,
            target_qps: 0.0,
            seed: 1,
            addr: None,
            timeout_ms: 10_000,
            workers: server.workers,
            reactors: server.reactors,
            queue_capacity: server.queue_capacity,
            session_capacity: server.session_capacity,
            session_rekey_after: server.session_rekey_after,
        }
    }
}

/// The actions a script issues.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// A KEM request.
    Request,
    /// A session-opening handshake.
    Open,
    /// A rekey handshake.
    Rekey,
    /// A sealed chat message.
    Chat,
    /// A session close.
    Close,
}

impl Action {
    /// Latency class: 0 for KEM requests and handshakes, 1 for session
    /// messages.
    fn class(self) -> usize {
        usize::from(matches!(self, Action::Chat | Action::Close))
    }
}

/// Results of one [`run`].
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// The run's configuration.
    pub cfg: LoadConfig,
    /// Lanes actually driven.
    pub lanes: usize,
    /// Successful replies per action, indexed by `Action as usize`.
    pub ok: [u64; 5],
    /// Actions the server shed with `BUSY`.
    pub busy: u64,
    /// Failed actions: error replies, and session-lane transport errors.
    pub errors: u64,
    /// Due-time → reply latency per class: KEM requests or session
    /// handshakes in `[0]`, session messages in `[1]`.
    pub latency: [HistogramSnapshot; 2],
    /// Wall-clock time from the start to the last reply, µs.
    pub wall_micros: u64,
    /// Hex SHA-256 over every lane's replies (see the module docs).
    pub digest: String,
    /// The server's `STATS` JSON, polled after the load (before an
    /// in-process server shuts down: in `hold` mode its `open` gauge is
    /// the end-of-run table occupancy).
    pub server_stats_json: String,
}

/// Derive the 32-byte pool seed from the CLI-style `u64` seed.
///
/// `lac-suite serve --seed N` and `bench-serve --seed N` both go through
/// this, so a run pointed at an external server reproduces the
/// in-process digests.
pub fn pool_seed(seed: u64) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(b"lac-serve:bench-root-seed:v1");
    h.update(&seed.to_le_bytes());
    h.finalize()
}

/// Derive the client-side keygen root seed for session handshakes (the
/// server side forks from [`pool_seed`]; keeping the two domains apart
/// means client keypairs never collide with server DRBG lanes).
fn session_client_seed(seed: u64) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(b"lac-serve:session-client-seed:v1");
    h.update(&seed.to_le_bytes());
    h.finalize()
}

/// Scan a flat JSON object for `"key": <u64>`. Only exact keys match
/// (`"open"` never matches `"conns_open"`), and the first match wins: the
/// stats snapshot renders its aggregates before the `shard_`-prefixed
/// per-shard rows, so a flat scan finds the aggregate values.
pub fn json_u64(json: &str, key: &str) -> Option<u64> {
    let needle = format!("\"{key}\": ");
    let start = json.find(&needle)? + needle.len();
    let rest = &json[start..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// `numerator / denominator`, or 0 for an empty denominator.
fn per(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

/// The payload every frame of a KEM script carries: nothing for keygen, a
/// fixed public key for encaps, a fixed secret key ‖ ciphertext for
/// decaps. The fixtures come from DRBG lane `u64::MAX` of the pool seed
/// and are built locally, so they never touch the server's metrics.
fn kem_payload(op: Op, cfg: &LoadConfig) -> Vec<u8> {
    if op == Op::Keygen {
        return Vec::new();
    }
    let kem = Kem::new(cfg.params);
    let mut backend = cfg.backend.build();
    let mut rng = Sha256CtrRng::from_seed(pool_seed(cfg.seed)).fork(u64::MAX);
    let (pk, sk) = kem.keygen(&mut rng, backend.as_mut(), &mut NullMeter);
    if op == Op::Encaps {
        return pk.to_bytes();
    }
    let (ct, _) = kem.encapsulate(&mut rng, &pk, backend.as_mut(), &mut NullMeter);
    [sk.to_bytes(), ct.to_bytes()].concat()
}

/// When a lane's actions are due.
#[derive(Debug, Clone, Copy)]
struct Schedule {
    start: Instant,
    lane: usize,
    lanes: usize,
    target_qps: f64,
}

impl Schedule {
    /// Due time of the lane's `j`-th action (global action
    /// `lane + j * lanes`), blocking until then. Closed lanes are due now.
    fn due(&self, j: usize) -> Instant {
        if self.target_qps <= 0.0 {
            return Instant::now();
        }
        let k = self.lane + j * self.lanes;
        let due = self.start + Duration::from_secs_f64(k as f64 / self.target_qps);
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        due
    }
}

/// One lane's share of a run: its schedule, digest and outcome counts.
struct Lane<'a> {
    schedule: Schedule,
    latency: &'a [Histogram; 2],
    digest: Sha256,
    ok: [u64; 5],
    busy: u64,
    errors: u64,
}

impl Lane<'_> {
    /// Count, time and fold one action: `Ok` hashes the bytes it yielded,
    /// `Err` its error text. Returns whether it succeeded.
    fn record(
        &mut self,
        action: Action,
        due: Instant,
        outcome: Result<&[u8], impl AsRef<str>>,
    ) -> bool {
        self.latency[action.class()].record(due.elapsed());
        match outcome {
            Ok(bytes) => {
                self.ok[action as usize] += 1;
                self.digest.update(bytes);
                true
            }
            Err(message) => {
                let message = message.as_ref();
                if message == BUSY_MSG {
                    self.busy += 1;
                } else {
                    self.errors += 1;
                }
                self.digest.update(message.as_bytes());
                false
            }
        }
    }

    /// [`Lane::record`] for a raw KEM reply frame.
    fn record_reply(&mut self, due: Instant, response: &ResponseFrame) {
        let message = response.error_message();
        let outcome = match &message {
            _ if response.is_busy() => Err(BUSY_MSG),
            Some(message) => Err(message.as_str()),
            None => Ok(&response.payload[..]),
        };
        self.record(Action::Request, due, outcome);
    }

    /// Drive this lane's share of a KEM script.
    fn kem(
        &mut self,
        mut client: Client,
        cfg: &LoadConfig,
        (op, requests): (Op, usize),
        payload: &[u8],
    ) -> Result<(), String> {
        let opcode = match op {
            Op::Keygen => Opcode::Keygen,
            Op::Encaps => Opcode::Encaps,
            Op::Decaps => Opcode::Decaps,
        };
        let frames: Vec<RequestFrame> = (self.schedule.lane..requests)
            .step_by(self.schedule.lanes)
            .map(|r| RequestFrame {
                opcode,
                params_code: params_code(&cfg.params),
                backend_code: cfg.backend.code(),
                // Lane 0 is reserved for ad-hoc CLI traffic, u64::MAX for
                // the fixtures.
                seq: r as u64 + 1,
                payload: payload.to_vec(),
            })
            .collect();
        if cfg.target_qps > 0.0 {
            // Pipelined: the writer keeps the schedule, the reader pairs
            // replies with due times in request order.
            let (mut writer, mut reader) = client.into_split();
            let (due_tx, due_rx) = std::sync::mpsc::channel();
            let schedule = self.schedule;
            return std::thread::scope(|scope| {
                let sender = scope.spawn(move || -> Result<(), String> {
                    for (j, frame) in frames.iter().enumerate() {
                        let due = schedule.due(j);
                        wire::write_request(&mut writer, frame)
                            .map_err(|e| format!("send: {e}"))?;
                        if due_tx.send(due).is_err() {
                            break; // the reader failed; its error is reported
                        }
                    }
                    Ok(())
                });
                let mut received = Ok(());
                while let Ok(due) = due_rx.recv() {
                    match wire::read_response(&mut reader) {
                        Ok(response) => self.record_reply(due, &response),
                        Err(e) => {
                            received = Err(format!("recv: {e}"));
                            break;
                        }
                    }
                }
                drop(due_rx);
                let sent = sender
                    .join()
                    .map_err(|_| "writer thread panicked".to_string())?;
                received.and(sent)
            });
        }
        for (j, frame) in frames.iter().enumerate() {
            let due = self.schedule.due(j);
            let response = client.request(frame)?;
            self.record_reply(due, &response);
        }
        Ok(())
    }

    /// Drive this lane's share of a session script.
    fn sessions(
        &mut self,
        mut client: Client,
        cfg: &LoadConfig,
        (sessions, chats, rekey_every, hold): (usize, usize, u64, bool),
    ) {
        let Schedule { lane, lanes, .. } = self.schedule;
        let kem = Kem::new(cfg.params);
        let mut backend = cfg.backend.build();
        let mut rng = Sha256CtrRng::from_seed(session_client_seed(cfg.seed)).fork(lane as u64);
        let (schedule, mut j) = (self.schedule, 0);
        let mut due = || {
            j += 1;
            schedule.due(j - 1)
        };
        // Handshake DRBG lanes: unique per lane and handshake, disjoint
        // from the KEM request lanes (r + 1) and the fixture lane.
        let mut handshake_seq = (lane as u64 + 1) << 32;
        for s in (lane..sessions).step_by(lanes) {
            let at = due();
            handshake_seq += 1;
            let opened =
                client.session_open(&kem, backend.as_mut(), cfg.backend, handshake_seq, &mut rng);
            let outcome = opened.as_ref().map(|session| &session.epoch_secret[..]);
            self.record(Action::Open, at, outcome);
            let Ok(mut session) = opened else {
                continue;
            };
            let mut failed = false;
            for chat in 0..chats {
                if session.rekey_due(rekey_every) {
                    let at = due();
                    handshake_seq += 1;
                    let rekeyed = client.session_rekey(
                        &kem,
                        backend.as_mut(),
                        cfg.backend,
                        &mut session,
                        handshake_seq,
                        &mut rng,
                    );
                    let epoch = [&session.epoch_secret[..], &session.epoch.to_le_bytes()].concat();
                    if !self.record(Action::Rekey, at, rekeyed.as_ref().map(|()| &epoch[..])) {
                        failed = true;
                        break;
                    }
                }
                let plaintext = format!("lane {lane} session {s} chat {chat}");
                let at = due();
                let echoed = client.session_send(&mut session, plaintext.as_bytes());
                if !self.record(Action::Chat, at, echoed.as_deref()) {
                    failed = true;
                    break;
                }
            }
            if !hold && !failed {
                let at = due();
                let closed = client.session_close(session);
                self.record(Action::Close, at, closed.as_ref().map(|()| &[][..]));
            }
        }
    }
}

/// Run one script against an in-process or external server (see the
/// module docs).
///
/// # Errors
///
/// Bind/connect failures (an in-process server's sizes included, see
/// [`Server::bind`]), a KEM-lane transport failure, a lane-thread panic,
/// an invalid `target_qps`, zero `conns` or an empty session script.
/// `BUSY` sheds and per-action protocol errors are *counted*, not fatal.
pub fn run(cfg: &LoadConfig) -> Result<LoadReport, String> {
    if !cfg.target_qps.is_finite() || cfg.target_qps < 0.0 {
        return Err(format!("bad target rate {} req/s", cfg.target_qps));
    }
    if cfg.conns == 0 {
        return Err("--conns is 0; it must be at least 1".into());
    }
    let (lanes, payload) = match cfg.script {
        Script::Kem { op, .. } => (cfg.conns, kem_payload(op, cfg)),
        Script::Sessions { sessions: 0, .. } => {
            return Err("--sessions needs at least one session".into())
        }
        Script::Sessions { sessions, .. } => {
            let lanes = cfg.conns.min(sessions);
            (lanes.min(cfg.queue_capacity), Vec::new())
        }
    };

    let (addr, server) = match &cfg.addr {
        Some(addr) => (addr.clone(), None),
        None => {
            let server = Server::bind(
                "127.0.0.1:0",
                ServeConfig {
                    workers: cfg.workers,
                    reactors: cfg.reactors,
                    queue_capacity: cfg.queue_capacity,
                    seed: pool_seed(cfg.seed),
                    session_capacity: cfg.session_capacity,
                    session_rekey_after: cfg.session_rekey_after,
                    ..ServeConfig::default()
                },
            )
            .map_err(|e| format!("bind: {e}"))?;
            let addr = server
                .local_addr()
                .map_err(|e| format!("local_addr: {e}"))?
                .to_string();
            (addr, Some(std::thread::spawn(move || server.run())))
        }
    };

    let latency = [Histogram::new(), Histogram::new()];
    let start = Instant::now();
    let results: Vec<Result<Lane, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..lanes)
            .map(|lane| {
                let (addr, latency, payload) = (&addr, &latency, &payload);
                scope.spawn(move || -> Result<Lane, String> {
                    let client = Client::connect_with_timeout(addr, cfg.timeout_ms)
                        .map_err(|e| format!("connect: {e}"))?;
                    let mut state = Lane {
                        schedule: Schedule {
                            start,
                            lane,
                            lanes,
                            target_qps: cfg.target_qps,
                        },
                        latency,
                        digest: Sha256::new(),
                        ok: [0; 5],
                        busy: 0,
                        errors: 0,
                    };
                    match cfg.script {
                        Script::Kem { op, requests } => {
                            state.kem(client, cfg, (op, requests), payload)?
                        }
                        Script::Sessions {
                            sessions,
                            chats,
                            rekey_every,
                            hold,
                        } => state.sessions(client, cfg, (sessions, chats, rekey_every, hold)),
                    }
                    Ok(state)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("lane thread panicked".into()))
            })
            .collect()
    });
    let wall_micros = start.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;

    // One stats poll for either kind of server, then shut an in-process
    // one down and wait for its drain, before any lane error returns.
    let stats = Client::connect_with_timeout(&addr, cfg.timeout_ms)
        .map_err(|e| format!("control connect: {e}"))
        .and_then(|mut control| {
            let json = control.stats().unwrap_or_default();
            if let Some(thread) = server {
                control.shutdown().map_err(|e| format!("shutdown: {e}"))?;
                thread
                    .join()
                    .map_err(|_| "server thread panicked".to_string())?;
            }
            Ok(json)
        });

    let mut run_digest = Sha256::new();
    run_digest.update(match cfg.script {
        Script::Kem { .. } => b"lac-serve:bench-digest:v1",
        Script::Sessions { .. } => b"lac-serve:session-digest:v1",
    });
    let (mut ok, mut busy, mut errors) = ([0u64; 5], 0, 0);
    for lane in results {
        let lane = lane?;
        run_digest.update(&lane.digest.finalize());
        for (total, count) in ok.iter_mut().zip(lane.ok) {
            *total += count;
        }
        busy += lane.busy;
        errors += lane.errors;
    }
    Ok(LoadReport {
        cfg: cfg.clone(),
        lanes,
        ok,
        busy,
        errors,
        latency: [latency[0].snapshot(), latency[1].snapshot()],
        wall_micros,
        digest: run_digest
            .finalize()
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect(),
        server_stats_json: stats?,
    })
}

impl LoadReport {
    /// An integer from the server's stats snapshot (0 when absent).
    pub fn stat(&self, key: &str) -> u64 {
        json_u64(&self.server_stats_json, key).unwrap_or(0)
    }

    /// Successful replies of every action.
    pub fn completions(&self) -> u64 {
        self.ok.iter().sum()
    }

    /// Replies per second of wall time (ok, busy and error: the server
    /// answered them all).
    pub fn achieved_qps(&self) -> f64 {
        let replies = self.completions() + self.busy + self.errors;
        per(replies as f64 * 1e6, self.wall_micros as f64)
    }

    /// Completions per modelled megacycle of the server's makespan (its
    /// busiest worker's cycle total; one modelled RISCY core per worker).
    /// Deterministic and host-independent: the worker sweep compares it.
    pub fn req_per_mcycle(&self) -> f64 {
        per(
            self.completions() as f64 * 1e6,
            self.stat("makespan_cycles") as f64,
        )
    }

    /// Flushed reply frames per busiest-shard CPU second: front-end
    /// throughput that measures reactor scaling even when shards
    /// timeshare one core (0 without a per-thread CPU clock).
    pub fn frames_per_busy_sec(&self) -> f64 {
        per(
            self.stat("frames_flushed") as f64 * 1e9,
            self.stat("frontend_busy_ns_max") as f64,
        )
    }

    /// Latency classes this script reports: JSON key, text label, histogram.
    fn classes(&self) -> Vec<(&'static str, &'static str, &HistogramSnapshot)> {
        match self.cfg.script {
            Script::Kem { .. } => vec![("latency", "latency", &self.latency[0])],
            Script::Sessions { .. } => vec![
                ("handshake_latency", "handshake latency", &self.latency[0]),
                ("message_latency", "message   latency", &self.latency[1]),
            ],
        }
    }

    /// Flat JSON object for `--json` output. The driver's own keys come
    /// before the embedded `"server"` snapshot, so first-match scanners
    /// read them, not the server's.
    pub fn to_json(&self) -> String {
        let [_, opened, rekeys, chats_ok, closes] = self.ok;
        let (bench, script) = match self.cfg.script {
            Script::Kem { op, requests } => (
                if self.cfg.target_qps > 0.0 {
                    "serve-open-loop"
                } else {
                    "serve-closed-loop"
                },
                format!("\"op\": \"{}\", \"requests\": {requests}", op.label()),
            ),
            Script::Sessions {
                sessions,
                chats,
                rekey_every,
                hold,
            } => (
                "serve-sessions",
                format!(
                    "\"sessions\": {sessions}, \"chats_per_session\": {chats}, \
                     \"rekey_every\": {rekey_every}, \"hold\": {hold}, \"opened\": {opened}, \
                     \"chats\": {chats_ok}, \"rekeys\": {rekeys}, \"closes\": {closes}"
                ),
            ),
        };
        let latency: Vec<String> = self
            .classes()
            .iter()
            .map(|(key, _, histogram)| format!("\"{key}\": {}", histogram.to_json()))
            .collect();
        let (writev_calls, frames) = (self.stat("writev_calls"), self.stat("frames_flushed"));
        format!(
            "{{\"bench\": \"{bench}\", {script}, \"params\": \"{}\", \"backend\": \"{}\", \
             \"workers\": {}, \"reactors\": {}, \"conns\": {}, \"target_qps\": {:.1}, \
             \"completions\": {}, \"busy\": {}, \"errors\": {}, \"wall_us\": {}, \
             \"achieved_qps\": {:.1}, \"makespan_cycles\": {}, \"req_per_mcycle\": {:.4}, \
             \"writev_calls\": {writev_calls}, \"frames_flushed\": {frames}, \
             \"frames_per_flush\": {:.2}, \"frames_per_busy_sec\": {:.1}, {}, \
             \"digest\": \"{}\", \"server\": {}}}",
            self.cfg.params.name(),
            self.cfg.backend.name(),
            self.stat("workers"),
            self.stat("reactors"),
            self.lanes,
            self.cfg.target_qps,
            self.completions(),
            self.busy,
            self.errors,
            self.wall_micros,
            self.achieved_qps(),
            self.stat("makespan_cycles"),
            self.req_per_mcycle(),
            per(frames as f64, writev_calls as f64),
            self.frames_per_busy_sec(),
            latency.join(", "),
            self.digest,
            if self.server_stats_json.is_empty() {
                "null"
            } else {
                &self.server_stats_json
            },
        )
    }

    /// Human-readable summary.
    pub fn to_text(&self) -> String {
        let script = match self.cfg.script {
            Script::Kem { op, requests } => format!("{requests} × {}", op.label()),
            Script::Sessions {
                sessions,
                chats,
                rekey_every,
                hold,
            } => format!(
                "{sessions} sessions × {chats} chats (rekey every {rekey_every}{})",
                if hold { ", hold" } else { "" }
            ),
        };
        let mut out = format!(
            "bench-serve {}: {script} on {} / {} — {} workers, {} reactors, {} conns\n",
            if self.cfg.target_qps > 0.0 {
                format!("open-loop at {:.0} req/s", self.cfg.target_qps)
            } else {
                "closed-loop".to_string()
            },
            self.cfg.params.name(),
            self.cfg.backend.name(),
            self.stat("workers"),
            self.stat("reactors"),
            self.lanes,
        );
        out.push_str(&format!(
            "  replies: ok {}, busy {}, errors {}",
            self.completions(),
            self.busy,
            self.errors
        ));
        if let Script::Sessions { .. } = self.cfg.script {
            let [_, opened, rekeys, chats, closes] = self.ok;
            out.push_str(&format!(
                " (opened {opened}, chats {chats}, rekeys {rekeys}, closes {closes})"
            ));
        }
        out.push_str(&format!(
            "\n  wall: {:.1} ms, {:.1} replies/s\n  modelled ({}-core RISCY): makespan {} cycles, \
             {:.3} req/Mcycle\n",
            self.wall_micros as f64 / 1e3,
            self.achieved_qps(),
            self.stat("workers"),
            self.stat("makespan_cycles"),
            self.req_per_mcycle(),
        ));
        for (_, label, histogram) in self.classes() {
            out.push_str(&format!(
                "  {label}: p50 {:.1} us, p99 {:.1} us, p999 {:.1} us, max {} us\n",
                histogram.quantile_micros_interp(0.50),
                histogram.quantile_micros_interp(0.99),
                histogram.quantile_micros_interp(0.999),
                histogram.max_micros,
            ));
        }
        out.push_str(&format!(
            "  writes: {} frames in {} writev calls, {:.0} frames/busy-s\n",
            self.stat("frames_flushed"),
            self.stat("writev_calls"),
            self.frames_per_busy_sec()
        ));
        if let Script::Sessions { .. } = self.cfg.script {
            out.push_str(&format!(
                "  table: open {}, evicted {}, replay drops {}, tag failures {}\n",
                self.stat("open"),
                self.stat("evicted"),
                self.stat("replay_drops"),
                self.stat("tag_failures")
            ));
        }
        out.push_str(&format!("  digest: {}\n", self.digest));
        out
    }
}

/// One sweep over several worker counts with everything else fixed.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// One report per worker count, in the order given.
    pub runs: Vec<LoadReport>,
    /// Modelled-throughput ratio `last.req_per_mcycle / first.req_per_mcycle`.
    pub scaling: f64,
    /// Whether every run produced the same digest.
    pub deterministic: bool,
}

/// Run [`run`] once per worker count (in-process servers only).
///
/// # Errors
///
/// Propagates the first failing run; rejects an empty `worker_counts` or
/// an external `addr` (worker count is a server-side property).
pub fn sweep_workers(cfg: &LoadConfig, worker_counts: &[usize]) -> Result<SweepReport, String> {
    if worker_counts.is_empty() {
        return Err("sweep needs at least one worker count".into());
    }
    if cfg.addr.is_some() {
        return Err("--sweep spawns its own servers; it cannot target --addr".into());
    }
    let mut runs = Vec::new();
    for &workers in worker_counts {
        let mut cfg = cfg.clone();
        cfg.workers = workers;
        runs.push(run(&cfg)?);
    }
    let (first, last) = (&runs[0], &runs[runs.len() - 1]);
    Ok(SweepReport {
        scaling: per(last.req_per_mcycle(), first.req_per_mcycle()),
        deterministic: runs.iter().all(|r| r.digest == first.digest),
        runs,
    })
}

impl SweepReport {
    /// JSON document for `--json` sweep output.
    pub fn to_json(&self) -> String {
        let runs: Vec<String> = self
            .runs
            .iter()
            .map(|r| format!("    {}", r.to_json()))
            .collect();
        format!(
            "{{\n  \"bench\": \"serve-sweep\",\n  \"runs\": [\n{}\n  ],\n  \
             \"scaling\": {:.4},\n  \"deterministic\": {}\n}}",
            runs.join(",\n"),
            self.scaling,
            self.deterministic
        )
    }

    /// Human-readable sweep table.
    pub fn to_text(&self) -> String {
        let mut out = format!(
            "bench-serve sweep: {} conns\n\n{:>8} {:>18} {:>16} {:>14} {:>12}\n",
            self.runs[0].lanes, "workers", "makespan cycles", "req/Mcycle", "wall req/s", "p99 us"
        );
        for run in &self.runs {
            out.push_str(&format!(
                "{:>8} {:>18} {:>16.3} {:>14.1} {:>12.1}\n",
                run.stat("workers"),
                run.stat("makespan_cycles"),
                run.req_per_mcycle(),
                run.achieved_qps(),
                run.latency[0].quantile_micros_interp(0.99)
            ));
        }
        out.push_str(&format!(
            "\nmodelled scaling {} -> {} workers: {:.2}x\ndigests identical across worker counts: {}\n",
            self.runs[0].stat("workers"),
            self.runs[self.runs.len() - 1].stat("workers"),
            self.scaling,
            self.deterministic
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_kem(requests: usize) -> LoadConfig {
        LoadConfig {
            script: Script::Kem {
                op: Op::Encaps,
                requests,
            },
            backend: BackendKind::Hw,
            conns: 2,
            seed: 42,
            workers: 2,
            queue_capacity: 8,
            ..LoadConfig::default()
        }
    }

    fn tiny_sessions() -> LoadConfig {
        LoadConfig {
            script: Script::Sessions {
                sessions: 4,
                chats: 3,
                rekey_every: 2,
                hold: false,
            },
            conns: 2,
            seed: 42,
            workers: 2,
            queue_capacity: 8,
            session_capacity: 16,
            ..LoadConfig::default()
        }
    }

    #[test]
    fn bench_runs_and_reports() {
        let report = run(&tiny_kem(6)).expect("bench runs");
        assert_eq!(report.completions(), 6);
        assert_eq!((report.busy, report.errors), (0, 0));
        assert_eq!(report.latency[0].count, 6);
        assert!(report.stat("makespan_cycles") > 0);
        assert!(report.req_per_mcycle() > 0.0);
        assert_eq!(report.stat("workers"), 2);
        assert_eq!(report.digest.len(), 64);
        let json = report.to_json();
        assert!(json.contains("\"op\": \"encaps\""), "{json}");
        assert!(json.contains("\"makespan_cycles\""), "{json}");
        let text = report.to_text();
        assert!(
            text.contains("closed-loop") && text.contains("digest"),
            "{text}"
        );
    }

    #[test]
    fn digest_is_worker_count_independent_and_seed_sensitive() {
        let one = run(&LoadConfig {
            workers: 1,
            ..tiny_kem(6)
        })
        .expect("1 worker");
        let three = run(&LoadConfig {
            workers: 3,
            ..tiny_kem(6)
        })
        .expect("3 workers");
        assert_eq!(one.digest, three.digest);
        let other_seed = run(&LoadConfig {
            seed: 43,
            ..tiny_kem(6)
        })
        .expect("other seed");
        assert_ne!(one.digest, other_seed.digest);
    }

    #[test]
    fn sweep_reports_scaling_and_determinism() {
        let sweep = sweep_workers(&tiny_kem(6), &[1, 2]).expect("sweep");
        assert_eq!(sweep.runs.len(), 2);
        assert!(sweep.deterministic);
        assert!(sweep.scaling > 1.0, "scaling {}", sweep.scaling);
        assert!(sweep.to_json().contains("\"deterministic\": true"));
        assert!(sweep.to_text().contains("modelled scaling"));
        assert!(sweep_workers(&tiny_kem(6), &[]).is_err());
        let external = LoadConfig {
            addr: Some("127.0.0.1:1".into()),
            ..tiny_kem(6)
        };
        assert!(sweep_workers(&external, &[1]).is_err());
    }

    #[test]
    fn open_loop_reports_tail_latency() {
        // 8 requests never outnumber the 8-slot queue, so none is shed.
        let paced = run(&LoadConfig {
            target_qps: 400.0,
            ..tiny_kem(8)
        })
        .expect("paced run");
        assert_eq!((paced.completions(), paced.busy, paced.errors), (8, 0, 0));
        assert_eq!(paced.latency[0].count, 8);
        assert_eq!(paced.digest, run(&tiny_kem(8)).expect("closed").digest);
        let json = paced.to_json();
        assert!(json.contains("\"bench\": \"serve-open-loop\""), "{json}");
        assert!(json.contains("\"p999_us\""), "{json}");
        assert!(paced.to_text().contains("p999"));
        for bad in [-1.0, f64::NAN] {
            let cfg = LoadConfig {
                target_qps: bad,
                ..tiny_kem(4)
            };
            assert!(run(&cfg).is_err());
        }
    }

    #[test]
    fn session_bench_runs_full_lifecycle() {
        let report = run(&tiny_sessions()).expect("session bench runs");
        let ok = |action: Action| report.ok[action as usize];
        assert_eq!(ok(Action::Open), 4);
        assert_eq!(ok(Action::Chat), 4 * 3);
        // 3 chats with rekey_every 2 → exactly one rekey per session.
        assert_eq!(ok(Action::Rekey), 4);
        assert_eq!(ok(Action::Close), 4);
        assert_eq!((report.busy, report.errors), (0, 0));
        assert_eq!(report.latency[0].count, 4 + 4);
        assert_eq!(report.latency[1].count, 4 * 3 + 4);
        // The post-load stats poll saw every session reaped.
        assert_eq!(report.stat("open"), 0);
        assert_eq!(report.stat("opened"), 4);
        assert_eq!(report.stat("rekeys"), 4);
        let json = report.to_json();
        assert!(json.contains("\"bench\": \"serve-sessions\""), "{json}");
        assert!(json.contains("\"handshake_latency\""), "{json}");
        let text = report.to_text();
        assert!(text.contains("handshake latency"), "{text}");
        assert!(text.contains("digest"), "{text}");
    }

    #[test]
    fn session_digest_is_worker_count_independent_and_seed_sensitive() {
        let with_workers = |workers| LoadConfig {
            workers,
            ..tiny_sessions()
        };
        let one = run(&with_workers(1)).expect("1 worker");
        let three = run(&with_workers(3)).expect("3 workers");
        assert_eq!(one.digest, three.digest);
        assert_eq!(one.errors, 0);
        let other_seed = run(&LoadConfig {
            seed: 43,
            ..tiny_sessions()
        })
        .expect("other seed");
        assert_ne!(one.digest, other_seed.digest);
    }

    #[test]
    fn session_hold_mode_fills_the_table_and_evicts_beyond_capacity() {
        // (reactors, capacity, sessions) -> (open, evicted). The two lanes
        // land one per shard, and the shards' tables split the capacity
        // exactly (5 over 2 shards: 3 + 2), so the table sits at capacity
        // and only sessions beyond it are LRU-evicted.
        for ((reactors, capacity, sessions), want) in [
            ((1, 4, 6), (4, 2)),
            ((2, 8, 8), (8, 0)),
            ((2, 5, 8), (5, 3)),
        ] {
            let report = run(&LoadConfig {
                script: Script::Sessions {
                    sessions,
                    chats: 0,
                    rekey_every: 0,
                    hold: true,
                },
                reactors,
                session_capacity: capacity,
                ..tiny_sessions()
            })
            .expect("hold run");
            let case = (reactors, capacity, sessions);
            let ok = |action: Action| report.ok[action as usize];
            assert_eq!((ok(Action::Open), ok(Action::Close)), (sessions as u64, 0));
            assert_eq!(report.errors, 0, "{case:?}");
            // The stats poll ran with every surviving session still open.
            let got = (report.stat("open"), report.stat("evicted"));
            assert_eq!(got, want, "{case:?}");
        }
        let empty = LoadConfig {
            script: Script::Sessions {
                sessions: 0,
                chats: 0,
                rekey_every: 0,
                hold: false,
            },
            ..tiny_sessions()
        };
        assert!(run(&empty).is_err());
    }
}
