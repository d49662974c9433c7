//! The worker pool: `std::thread` workers pulling jobs from a bounded
//! MPMC queue.
//!
//! Each worker owns its execution state outright — one instance of every
//! [`BackendKind`] and one [`Kem`] per parameter set (building a `Kem`
//! derives the BCH generator polynomial, so it is cached, not rebuilt per
//! job) — which keeps the hot path lock-free apart from the queue itself.
//!
//! **Determinism.** A job's randomness is `root.fork(job.seq)` (see
//! [`Sha256CtrRng::fork`]): it depends only on the pool's root seed and
//! the job's sequence number, never on which worker runs it or in what
//! order. A fixed seed therefore yields byte-identical results for 1 or
//! 64 workers — the property the acceptance benchmark checks.
//!
//! **Cycle accounting.** Every job runs under a [`CycleLedger`]; the total
//! is added to the executing worker's counter. The pool models a
//! multi-core RISCY machine (one core per worker), so the batch makespan
//! in modelled time is the busiest worker's total — this is how the
//! repo's wall-clock-free environment still measures worker scaling.
//!
//! **Warm start.** With [`ServeConfig::warm_iss`] on (the default), the
//! pool builds one pristine [`WarmImage`] of a small `pq.modq` probe
//! program, primes a process-wide [`SharedTraceCache`] with a single run
//! on the pool thread, and every worker executes the probe from the image
//! with the shared cache attached before entering its job loop. The first
//! thread to compile a hot superblock pays for it once; siblings adopt it
//! from the cache instead of re-compiling. The probe runs on
//! [`lac_rv32::Engine::Jit`] — the fastest tier, degrading silently to
//! the superblock interpreter on hosts without a JIT backend — so the
//! priming run also publishes its emitted host code through the shared
//! cache and warm workers start with zero local JIT compiles.
//! [`ServePool::new`] returns only after every worker has reported its
//! probe — all digests must equal the pool thread's reference (see
//! [`WarmReport`]), which is how the cross-worker sharing path stays
//! differentially checked at every pool startup.

use crate::metrics::{Metrics, MetricsSnapshot};
use crate::queue::BoundedQueue;
use crate::{BackendKind, Op};
use lac::{Backend, Ciphertext, Kem, KemPublicKey, KemSecretKey, Params};
use lac_meter::CycleLedger;
use lac_rand::Sha256CtrRng;
use lac_rv32::{Cpu, Engine, Machine, SharedTraceCache, SharedTraceStats, WarmImage};
use lac_sha256::Sha256;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Instant;

/// What a job does (the payloads are wire bytes, parsed by the worker so
/// malformed input is an error *reply*, not a server fault).
#[derive(Debug, Clone)]
pub enum JobKind {
    /// Generate a key pair.
    Keygen,
    /// Encapsulate against a serialized public key.
    Encaps {
        /// Serialized [`KemPublicKey`].
        pk: Vec<u8>,
    },
    /// Decapsulate a serialized ciphertext with a serialized secret key.
    Decaps {
        /// Serialized [`KemSecretKey`].
        sk: Vec<u8>,
        /// Serialized [`Ciphertext`].
        ct: Vec<u8>,
    },
}

impl JobKind {
    /// The metrics axis this job belongs to.
    pub fn op(&self) -> Op {
        match self {
            JobKind::Keygen => Op::Keygen,
            JobKind::Encaps { .. } => Op::Encaps,
            JobKind::Decaps { .. } => Op::Decaps,
        }
    }
}

/// One unit of work for the pool.
#[derive(Debug, Clone)]
pub struct Job {
    /// DRBG lane: the job's randomness is `root.fork(seq)`. Callers that
    /// need fresh randomness per request must use distinct values (the
    /// wire client and the load generator both do).
    pub seq: u64,
    /// Parameter set the job runs under.
    pub params: Params,
    /// Execution backend.
    pub backend: BackendKind,
    /// The operation and its payload.
    pub kind: JobKind,
}

impl Job {
    /// Convenience constructor.
    pub fn new(seq: u64, params: Params, backend: BackendKind, kind: JobKind) -> Self {
        Self {
            seq,
            params,
            backend,
            kind,
        }
    }
}

/// A finished job's result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply {
    /// Fresh key pair (serialized).
    Keygen {
        /// Serialized public key.
        pk: Vec<u8>,
        /// Serialized KEM secret key.
        sk: Vec<u8>,
    },
    /// Ciphertext and the shared secret it transports.
    Encaps {
        /// Serialized ciphertext.
        ct: Vec<u8>,
        /// The 32-byte shared secret.
        shared: [u8; 32],
    },
    /// The decapsulated shared secret.
    Decaps {
        /// The 32-byte shared secret.
        shared: [u8; 32],
    },
    /// The job could not be executed (malformed payload, closed pool, …).
    Error(String),
}

impl Reply {
    /// Whether this reply is an error.
    pub fn is_error(&self) -> bool {
        matches!(self, Reply::Error(_))
    }
}

/// Pool sizing and seeding, plus the event-driven front-end's operational
/// envelope (connection caps, timeouts, backpressure bounds). Every limit
/// here is also a CLI flag on `lac-suite serve` and a counter/gauge in the
/// `STATS` reply. `Server::bind` rejects a size below its marked minimum.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker-thread count (≥ 1).
    pub workers: usize,
    /// Reactor-shard count for the front-end (≥ 1): each shard is its own
    /// event-loop thread owning a disjoint set of connections, its own
    /// parker/waker, its own completion channel and its own slice of the
    /// session table. Connections are dealt round-robin at accept time
    /// and never migrate.
    pub reactors: usize,
    /// Bounded-queue capacity (≥ 1): producers block once this many jobs
    /// wait. The event-driven server never blocks — it sheds with `BUSY`
    /// instead.
    pub queue_capacity: usize,
    /// Root seed all per-job DRBG lanes fork from.
    pub seed: [u8; 32],
    /// Warm-start the workers' ISS state: prime a shared trace cache with
    /// one probe run and have every worker start from a [`WarmImage`]
    /// (see the module docs). Purely a startup optimisation — job results
    /// are identical either way.
    pub warm_iss: bool,
    /// Maximum simultaneously open connections (≥ 1); excess accepts are
    /// closed immediately and counted (`conns_rejected`).
    pub max_conns: usize,
    /// Accept-rate limit in connections/second (token bucket); 0 disables.
    pub accept_rps: u64,
    /// Close a connection with no traffic, no in-flight jobs and nothing
    /// buffered after this many milliseconds; 0 disables.
    pub idle_timeout_ms: u64,
    /// Close a connection that leaves a request frame half-sent for this
    /// many milliseconds (slow-loris guard); 0 disables.
    pub read_timeout_ms: u64,
    /// Close a connection whose write buffer makes no progress for this
    /// many milliseconds (dead-peer guard); 0 disables.
    pub write_timeout_ms: u64,
    /// Per-connection write-buffer bound in bytes (≥ 1): above it the
    /// server stops reading that connection until the peer drains
    /// (backpressure).
    pub max_write_buffer: usize,
    /// Graceful-drain deadline after `SHUTDOWN`, in milliseconds: in-flight
    /// jobs get this long to complete and flush before the server exits.
    pub drain_ms: u64,
    /// Bound on open sessions (≥ `reactors`), split as evenly as possible
    /// over the reactor shards' tables (see `crate::session::SessionTable`):
    /// opening a session on a full shard evicts that shard's
    /// least-recently-used one.
    pub session_capacity: usize,
    /// Force a session rekey after this many accepted messages in an
    /// epoch (the server rejects further traffic until the client
    /// rekeys); 0 disables the policy.
    pub session_rekey_after: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            workers: 4,
            reactors: 1,
            queue_capacity: 64,
            seed: [0u8; 32],
            warm_iss: true,
            max_conns: 1024,
            accept_rps: 0,
            idle_timeout_ms: 60_000,
            read_timeout_ms: 10_000,
            write_timeout_ms: 10_000,
            max_write_buffer: 1 << 20,
            drain_ms: 5_000,
            session_capacity: 1 << 17,
            session_rekey_after: 1 << 16,
        }
    }
}

/// Iterations of the warm-start probe's outer loop.
const PROBE_ITERS: u32 = 8;
/// Coefficients per probe recover pass.
const PROBE_COEFFS: u32 = 64;
/// Base address of the probe's input bytes.
const PROBE_IN: u32 = 0x8000;
/// Base address of the probe's output buffer.
const PROBE_OUT: u32 = 0x9000;

/// Assemble the warm-start probe: a miniature LAC recover loop (`pq.modq`,
/// byte loads/stores, a backward branch) hot enough for the superblock
/// engine to compile and publish its traces.
///
/// # Panics
///
/// Panics if the embedded program fails to assemble (a build-time bug).
fn probe_machine() -> Machine {
    let src = format!(
        r#"
            li   s0, 0
            li   s1, {PROBE_ITERS}
        outer:
            li   t2, {PROBE_IN}
            li   t5, {PROBE_OUT}
            li   t3, {PROBE_COEFFS}
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
        "#
    );
    let mut machine = Machine::assemble(&src).expect("warm probe assembles");
    let input: Vec<u8> = (0..PROBE_COEFFS)
        .map(|i| ((i * 11 + 5) % 251) as u8)
        .collect();
    machine.cpu_mut().write_bytes(PROBE_IN, &input);
    machine
}

/// Run the probe to `ecall` and hash the architectural exit state plus the
/// output buffer. Every warm worker must produce the pool thread's digest.
///
/// # Panics
///
/// Panics if the probe traps (a build-time bug).
fn run_probe(cpu: &mut Cpu) -> String {
    let exit = cpu.run(1_000_000).expect("warm probe runs to ecall");
    let mut hash = Sha256::new();
    hash.update(b"lac-serve:warm-probe:v1");
    for reg in exit.regs {
        hash.update(&reg.to_le_bytes());
    }
    hash.update(&exit.pc.to_le_bytes());
    hash.update(&exit.cycles.to_le_bytes());
    hash.update(&exit.instructions.to_le_bytes());
    hash.update(cpu.read_bytes(PROBE_OUT, PROBE_COEFFS as usize));
    hash.finalize().iter().map(|b| format!("{b:02x}")).collect()
}

/// The warm-start state every worker shares: one pristine probe image plus
/// the process-wide trace cache, primed by a single pool-thread run.
struct WarmStart {
    image: WarmImage,
    shared: Arc<SharedTraceCache>,
    reference_digest: String,
}

impl WarmStart {
    fn prime() -> Self {
        // The assembled machine is dropped once imaged, so its 8 MiB
        // predecode table is freed before the primer allocates its own.
        let image = probe_machine().snapshot();
        let shared = Arc::new(SharedTraceCache::new());
        let mut primer = Cpu::from_image(&image);
        primer.set_engine(Engine::Jit);
        primer.attach_shared_cache(Arc::clone(&shared));
        let reference_digest = run_probe(&mut primer);
        Self {
            image,
            shared,
            reference_digest,
        }
    }
}

/// One worker's startup warm-probe result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WarmProbe {
    /// Worker index.
    pub worker: usize,
    /// Architectural digest of the worker's probe run.
    pub digest: String,
    /// Superblocks the worker adopted from the shared trace cache.
    pub shared_installs: u64,
    /// Superblocks the worker compiled locally (zero when the priming run
    /// already published every hot block).
    pub compiles: u64,
    /// JIT translations the worker adopted from the shared trace cache.
    pub jit_shared_installs: u64,
    /// JIT translations the worker compiled locally (zero when the
    /// priming run already published host code for every hot block; also
    /// zero on hosts without a JIT backend).
    pub jit_compiles: u64,
    /// Chain links the worker's probe installed between translated
    /// blocks (links are process-local per CPU, never shared).
    pub jit_links_installed: u64,
    /// Probe block entries taken through a chain link without returning
    /// to the dispatch loop — the fleet-wide link-adoption signal.
    pub jit_chained_dispatches: u64,
    /// Probe chain links severed by invalidation, eviction or restore.
    pub jit_unlinks: u64,
}

/// Pool-wide warm-start report: the priming run's reference digest, every
/// worker's probe, and the shared trace-cache counters once all workers
/// finished. Available from [`ServePool::warm_report`] when
/// [`ServeConfig::warm_iss`] is on.
#[derive(Debug, Clone)]
pub struct WarmReport {
    /// Digest of the pool-thread priming run.
    pub reference_digest: String,
    /// Per-worker probe results, in worker-index order.
    pub probes: Vec<WarmProbe>,
    /// Shared trace-cache counters after every probe completed.
    pub shared: SharedTraceStats,
}

impl WarmReport {
    /// Whether every worker's probe digest equals the reference — the
    /// cross-worker exactness check.
    pub fn digests_agree(&self) -> bool {
        self.probes
            .iter()
            .all(|p| p.digest == self.reference_digest)
    }

    /// Fleet-wide chain-link adoption summed across every worker probe:
    /// `(links_installed, chained_dispatches, unlinks)`. Links are
    /// process-local per CPU, so the sum is the honest fleet total — no
    /// double counting through the shared trace cache.
    pub fn chain_totals(&self) -> (u64, u64, u64) {
        self.probes.iter().fold((0, 0, 0), |(l, c, u), p| {
            (
                l + p.jit_links_installed,
                c + p.jit_chained_dispatches,
                u + p.jit_unlinks,
            )
        })
    }
}

/// A worker-completed job routed back to the event loop: which
/// connection, which reply slot on it, and the result.
#[derive(Debug)]
pub struct Completion {
    /// Reactor-assigned connection id.
    pub conn: u64,
    /// Absolute reply-slot sequence on that connection (responses must go
    /// out in request order; the slot pins this reply's position).
    pub slot: u64,
    /// The job's result.
    pub reply: Reply,
}

/// Where a finished job's reply goes.
pub enum ReplySink {
    /// A plain channel — the blocking [`Ticket`] path.
    Channel(mpsc::Sender<Reply>),
    /// Event-loop routing: a [`Completion`] record plus a wake of the
    /// owning reactor shard, which blocks in its poller between passes (a
    /// wake sent while the shard is busy makes its next wait return at
    /// once, so the wakeup can never be lost).
    Routed {
        /// Reactor-assigned connection id.
        conn: u64,
        /// Reply-slot sequence on that connection.
        slot: u64,
        /// The reactor's completion channel.
        tx: mpsc::Sender<Completion>,
        /// Waker for the owning reactor shard, rung after sending.
        wake: crate::reactor::Waker,
    },
}

impl ReplySink {
    fn deliver(self, reply: Reply) {
        match self {
            // A dropped receiver (caller gave up) is fine — ignore errors.
            ReplySink::Channel(tx) => {
                let _ = tx.send(reply);
            }
            ReplySink::Routed {
                conn,
                slot,
                tx,
                wake,
            } => {
                let _ = tx.send(Completion { conn, slot, reply });
                wake.wake();
            }
        }
    }
}

/// Why [`ServePool::try_submit`] refused a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The queue is at capacity — shed the request (`BUSY`).
    Full,
    /// The pool is shutting down — answer with a terminal error.
    Closed,
}

/// A queued job plus its reply sink and enqueue timestamp.
struct Task {
    job: Job,
    enqueued: Instant,
    reply_to: ReplySink,
}

/// A ticket for a submitted job; redeem with [`Ticket::wait`].
pub struct Ticket {
    rx: mpsc::Receiver<Reply>,
}

impl Ticket {
    /// Block until the job's reply arrives. If the worker executing the
    /// job died (a panic in scheme code), this surfaces as an error reply
    /// rather than a hang: the channel disconnects.
    pub fn wait(self) -> Reply {
        self.rx
            .recv()
            .unwrap_or_else(|_| Reply::Error("worker disconnected before replying".into()))
    }
}

/// The worker pool (see module docs).
pub struct ServePool {
    queue: Arc<BoundedQueue<Task>>,
    metrics: Arc<Metrics>,
    worker_cycles: Arc<Vec<AtomicU64>>,
    handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
    config: ServeConfig,
    warm: Option<WarmReport>,
}

impl ServePool {
    /// Spawn `config.workers` workers. With [`ServeConfig::warm_iss`] on,
    /// this primes the shared trace cache and blocks until every worker
    /// has run its warm-start probe (see the module docs), so the pool is
    /// fully warmed when `new` returns.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero (a pool that can never make progress).
    pub fn new(config: ServeConfig) -> Self {
        assert!(config.workers > 0, "pool needs at least one worker");
        let queue = Arc::new(BoundedQueue::new(config.queue_capacity));
        let metrics = Arc::new(Metrics::with_reactors(config.reactors.max(1)));
        let worker_cycles: Arc<Vec<AtomicU64>> =
            Arc::new((0..config.workers).map(|_| AtomicU64::new(0)).collect());
        let root = Sha256CtrRng::from_seed(config.seed);
        let warm_start = config.warm_iss.then(WarmStart::prime);
        let (probe_tx, probe_rx) = mpsc::channel();
        let handles = (0..config.workers)
            .map(|index| {
                let queue = Arc::clone(&queue);
                let metrics = Arc::clone(&metrics);
                let cycles = Arc::clone(&worker_cycles);
                let root = root.clone();
                let warm = warm_start
                    .as_ref()
                    .map(|w| (w.image.clone(), Arc::clone(&w.shared), probe_tx.clone()));
                std::thread::Builder::new()
                    .name(format!("lac-serve-worker-{index}"))
                    .spawn(move || worker_main(index, &queue, &metrics, &cycles, &root, warm))
                    .expect("spawning worker thread")
            })
            .collect();
        drop(probe_tx);
        let warm = warm_start.map(|w| {
            let mut probes: Vec<WarmProbe> = (0..config.workers)
                .map(|_| {
                    probe_rx
                        .recv()
                        .expect("every worker reports its warm probe")
                })
                .collect();
            probes.sort_by_key(|p| p.worker);
            WarmReport {
                reference_digest: w.reference_digest,
                probes,
                shared: w.shared.stats(),
            }
        });
        Self {
            queue,
            metrics,
            worker_cycles,
            handles: Mutex::new(handles),
            config,
            warm,
        }
    }

    /// Enqueue one job (blocking while the queue is full) and return a
    /// ticket for its reply.
    pub fn submit(&self, job: Job) -> Ticket {
        let (tx, rx) = mpsc::channel();
        let task = Task {
            job,
            enqueued: Instant::now(),
            reply_to: ReplySink::Channel(tx),
        };
        if let Err(task) = self.queue.push(task) {
            // Pool already shut down: reply inline so the ticket resolves.
            task.reply_to
                .deliver(Reply::Error("pool is shut down".into()));
        }
        Ticket { rx }
    }

    /// Enqueue one job without blocking, delivering its reply through
    /// `sink` when a worker finishes it. This is the event loop's
    /// submission path: a full queue is an immediate [`SubmitError::Full`]
    /// (the caller sheds with `BUSY`) instead of a stalled reactor.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Full`] when the queue is at capacity,
    /// [`SubmitError::Closed`] when the pool is shutting down. The job and
    /// sink are dropped — the caller answers the peer itself.
    pub fn try_submit(&self, job: Job, sink: ReplySink) -> Result<(), SubmitError> {
        let task = Task {
            job,
            enqueued: Instant::now(),
            reply_to: sink,
        };
        self.queue.try_push(task).map_err(|e| match e {
            crate::queue::TryPushError::Full(_) => SubmitError::Full,
            crate::queue::TryPushError::Closed(_) => SubmitError::Closed,
        })
    }

    /// Dispatch a whole batch across the workers and return the replies
    /// **in submission order**. Every job is enqueued before the first
    /// wait: tickets buffer replies in their channels, so workers never
    /// block sending one and all of them stay fed. Backpressure applies:
    /// once the queue is full, submission proceeds at the pool's drain
    /// rate.
    pub fn submit_batch(&self, jobs: Vec<Job>) -> Vec<Reply> {
        let tickets: Vec<Ticket> = jobs.into_iter().map(|job| self.submit(job)).collect();
        tickets.into_iter().map(Ticket::wait).collect()
    }

    /// The live metrics handle.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The pool's configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// The warm-start report, when [`ServeConfig::warm_iss`] was on.
    pub fn warm_report(&self) -> Option<&WarmReport> {
        self.warm.as_ref()
    }

    /// Modelled cycles executed so far by each worker.
    pub fn worker_cycle_totals(&self) -> Vec<u64> {
        self.worker_cycles
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }

    /// Point-in-time snapshot of counters, histogram, queue state and
    /// per-worker cycle totals.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let shards = self.metrics.shard_snapshots();
        MetricsSnapshot {
            workers: self.config.workers,
            reactors: self.config.reactors.max(1),
            queue_capacity: self.queue.capacity(),
            queue_high_water: self.queue.high_water_mark(),
            requests: [
                self.metrics.requests(Op::Keygen),
                self.metrics.requests(Op::Encaps),
                self.metrics.requests(Op::Decaps),
            ],
            errors: self.metrics.errors(),
            latency: self.metrics.latency_snapshot(),
            worker_cycles: self.worker_cycle_totals(),
            frontend: self.metrics.frontend().snapshot(&shards),
            sessions: self.metrics.sessions().snapshot(&shards),
            shards,
        }
    }

    /// Graceful shutdown: stop accepting jobs, let queued jobs drain, join
    /// every worker. Idempotent; also runs on drop.
    pub fn shutdown(&self) {
        self.queue.close();
        let mut handles = self.handles.lock().expect("pool handle lock poisoned");
        for handle in handles.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for ServePool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Per-worker execution state: every backend kind plus a cached `Kem` per
/// parameter set (constructing one derives the BCH generator polynomial).
struct WorkerState {
    backends: Vec<(BackendKind, Box<dyn Backend>)>,
    kems: Vec<(&'static str, Kem)>,
}

impl WorkerState {
    fn new() -> Self {
        Self {
            backends: BackendKind::ALL
                .iter()
                .map(|&kind| (kind, kind.build()))
                .collect(),
            kems: Params::ALL
                .iter()
                .map(|&params| (params.name(), Kem::new(params)))
                .collect(),
        }
    }

    /// Split borrow: the cached `Kem` (shared) and the backend (mutable)
    /// for a job, without cloning either.
    fn for_job(&mut self, job: &Job) -> (&Kem, &mut dyn Backend) {
        let kem = self
            .kems
            .iter()
            .find(|(name, _)| *name == job.params.name())
            .map(|(_, kem)| kem)
            .expect("every parameter set is prebuilt");
        let backend = self
            .backends
            .iter_mut()
            .find(|(k, _)| *k == job.backend)
            .map(|(_, b)| b.as_mut())
            .expect("every BackendKind is prebuilt");
        (kem, backend)
    }
}

fn worker_main(
    index: usize,
    queue: &BoundedQueue<Task>,
    metrics: &Metrics,
    cycles: &[AtomicU64],
    root: &Sha256CtrRng,
    warm: Option<(WarmImage, Arc<SharedTraceCache>, mpsc::Sender<WarmProbe>)>,
) {
    if let Some((image, shared, report)) = warm {
        // Warm-start probe: run the shared workload from the pristine
        // image with the process-wide trace cache attached, adopting the
        // priming run's compiled superblocks instead of re-compiling.
        let mut cpu = Cpu::from_image(&image);
        cpu.set_engine(Engine::Jit);
        cpu.attach_shared_cache(shared);
        let digest = run_probe(&mut cpu);
        let stats = cpu.superblock_stats();
        let jit = cpu.jit_stats();
        // The pool constructor waits for this; a dropped receiver only
        // happens if `new` panicked, in which case the send result is moot.
        let _ = report.send(WarmProbe {
            worker: index,
            digest,
            shared_installs: stats.shared_installs,
            compiles: stats.compiles,
            jit_shared_installs: jit.shared_installs,
            jit_compiles: jit.compiles,
            jit_links_installed: jit.links_installed,
            jit_chained_dispatches: jit.chained_dispatches,
            jit_unlinks: jit.unlinks,
        });
    }
    let mut state = WorkerState::new();
    while let Some(task) = queue.pop() {
        let op = task.job.kind.op();
        let mut ledger = CycleLedger::new();
        let reply = execute(&mut state, root, &task.job, &mut ledger);
        cycles[index].fetch_add(ledger.total(), Ordering::Relaxed);
        metrics.record(op, task.enqueued.elapsed(), reply.is_error());
        task.reply_to.deliver(reply);
    }
}

/// Run one job on this worker's state. Malformed payloads become
/// [`Reply::Error`]; nothing here panics on bad input.
fn execute(
    state: &mut WorkerState,
    root: &Sha256CtrRng,
    job: &Job,
    ledger: &mut CycleLedger,
) -> Reply {
    let (kem, backend) = state.for_job(job);
    match &job.kind {
        JobKind::Keygen => {
            let mut rng = root.fork(job.seq);
            let (pk, sk) = kem.keygen(&mut rng, backend, ledger);
            Reply::Keygen {
                pk: pk.to_bytes(),
                sk: sk.to_bytes(),
            }
        }
        JobKind::Encaps { pk } => match KemPublicKey::from_bytes(&job.params, pk) {
            Ok(pk) => {
                let mut rng = root.fork(job.seq);
                let (ct, key) = kem.encapsulate(&mut rng, &pk, backend, ledger);
                Reply::Encaps {
                    ct: ct.to_bytes(),
                    shared: *key.as_bytes(),
                }
            }
            Err(e) => Reply::Error(format!("bad public key: {e}")),
        },
        JobKind::Decaps { sk, ct } => {
            let sk = match KemSecretKey::from_bytes(&job.params, sk) {
                Ok(sk) => sk,
                Err(e) => return Reply::Error(format!("bad secret key: {e}")),
            };
            let ct = match Ciphertext::from_bytes(&job.params, ct) {
                Ok(ct) => ct,
                Err(e) => return Reply::Error(format!("bad ciphertext: {e}")),
            };
            let key = kem.decapsulate(&sk, &ct, backend, ledger);
            Reply::Decaps {
                shared: *key.as_bytes(),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lac_meter::NullMeter;

    fn pool(workers: usize, seed: u8) -> ServePool {
        ServePool::new(ServeConfig {
            workers,
            queue_capacity: 4,
            seed: [seed; 32],
            warm_iss: true,
            ..ServeConfig::default()
        })
    }

    /// A batch covering every op on every backend and parameter set.
    fn full_matrix_batch(seed: u8) -> Vec<Job> {
        // Keygen/encaps/decaps chains need matching keys, so build the key
        // material deterministically outside the pool.
        let mut jobs = Vec::new();
        let mut seq = 0u64;
        let root = Sha256CtrRng::from_seed([seed; 32]);
        for params in Params::ALL {
            for kind in BackendKind::ALL {
                let kem = Kem::new(params);
                let mut backend = kind.build();
                let mut rng = root.fork(1_000_000 + seq);
                let (pk, sk) = kem.keygen(&mut rng, backend.as_mut(), &mut NullMeter);
                let (ct, _) = kem.encapsulate(&mut rng, &pk, backend.as_mut(), &mut NullMeter);
                jobs.push(Job::new(seq, params, kind, JobKind::Keygen));
                jobs.push(Job::new(
                    seq + 1,
                    params,
                    kind,
                    JobKind::Encaps { pk: pk.to_bytes() },
                ));
                jobs.push(Job::new(
                    seq + 2,
                    params,
                    kind,
                    JobKind::Decaps {
                        sk: sk.to_bytes(),
                        ct: ct.to_bytes(),
                    },
                ));
                seq += 3;
            }
        }
        jobs
    }

    #[test]
    fn batch_covers_all_params_and_backends() {
        let pool = pool(3, 9);
        let jobs = full_matrix_batch(9);
        let count = jobs.len();
        let replies = pool.submit_batch(jobs);
        assert_eq!(replies.len(), count);
        assert!(replies.iter().all(|r| !r.is_error()), "{replies:?}");
        let snap = pool.snapshot();
        assert_eq!(snap.total_requests() as usize, count);
        assert_eq!(snap.errors, 0);
        assert_eq!(snap.requests[0], 12); // 3 params × 4 backends keygens
        assert!(snap.total_cycles() > 0);
        assert!(snap.latency.count == count as u64);
    }

    #[test]
    fn results_identical_regardless_of_worker_count() {
        // The acceptance-criterion property, at unit-test scale: same seed,
        // same jobs, different worker counts → byte-identical replies.
        let jobs = || {
            let kem = Kem::new(Params::lac128());
            let mut b = BackendKind::Ct.build();
            let mut rng = Sha256CtrRng::seed_from_u64(123);
            let (pk, _) = kem.keygen(&mut rng, b.as_mut(), &mut NullMeter);
            (0..8)
                .map(|i| {
                    Job::new(
                        i,
                        Params::lac128(),
                        BackendKind::Ct,
                        JobKind::Encaps { pk: pk.to_bytes() },
                    )
                })
                .collect::<Vec<_>>()
        };
        let one = pool(1, 5).submit_batch(jobs());
        let four = pool(4, 5).submit_batch(jobs());
        assert_eq!(one, four);
        // Distinct seqs produce distinct ciphertexts.
        assert_ne!(one[0], one[1]);
        // A different root seed produces different results.
        let other = pool(2, 6).submit_batch(jobs());
        assert_ne!(one, other);
    }

    #[test]
    fn malformed_payloads_become_error_replies() {
        let pool = pool(2, 1);
        let params = Params::lac128();
        let replies = pool.submit_batch(vec![
            Job::new(
                0,
                params,
                BackendKind::Ct,
                JobKind::Encaps { pk: vec![1, 2, 3] },
            ),
            Job::new(
                1,
                params,
                BackendKind::Ct,
                JobKind::Decaps {
                    sk: vec![0; params.kem_secret_key_bytes()],
                    ct: vec![0xff; 4],
                },
            ),
            Job::new(2, params, BackendKind::Ct, JobKind::Keygen),
        ]);
        assert!(matches!(&replies[0], Reply::Error(e) if e.contains("bad public key")));
        assert!(matches!(&replies[1], Reply::Error(e) if e.contains("bad ciphertext")));
        assert!(!replies[2].is_error());
        assert_eq!(pool.snapshot().errors, 2);
    }

    #[test]
    fn keygen_then_encaps_then_decaps_through_the_pool_agree() {
        let pool = pool(2, 2);
        let params = Params::lac192();
        let Reply::Keygen { pk, sk } = pool
            .submit(Job::new(0, params, BackendKind::Hw, JobKind::Keygen))
            .wait()
        else {
            panic!("keygen failed")
        };
        let Reply::Encaps { ct, shared } = pool
            .submit(Job::new(1, params, BackendKind::Hw, JobKind::Encaps { pk }))
            .wait()
        else {
            panic!("encaps failed")
        };
        let Reply::Decaps { shared: shared2 } = pool
            .submit(Job::new(
                2,
                params,
                BackendKind::Hw,
                JobKind::Decaps { sk, ct },
            ))
            .wait()
        else {
            panic!("decaps failed")
        };
        assert_eq!(shared, shared2);
    }

    #[test]
    fn shutdown_is_graceful_and_idempotent() {
        let pool = pool(2, 3);
        let replies = pool.submit_batch(vec![Job::new(
            0,
            Params::lac128(),
            BackendKind::Ct,
            JobKind::Keygen,
        )]);
        assert!(!replies[0].is_error());
        pool.shutdown();
        pool.shutdown();
        // Submitting after shutdown resolves to an error, not a hang.
        let reply = pool
            .submit(Job::new(
                1,
                Params::lac128(),
                BackendKind::Ct,
                JobKind::Keygen,
            ))
            .wait();
        assert!(matches!(reply, Reply::Error(e) if e.contains("shut down")));
    }

    #[test]
    fn warm_probe_runs_on_every_worker_and_shares_blocks() {
        let pool = pool(4, 7);
        let report = pool.warm_report().expect("warm start is on by default");
        assert_eq!(report.probes.len(), 4);
        assert!(report.digests_agree(), "{report:?}");
        for probe in &report.probes {
            // The priming run published every hot block before any worker
            // started, so workers adopt instead of compiling — including
            // the emitted host code on hosts with a JIT backend.
            assert!(probe.shared_installs > 0, "{probe:?}");
            assert_eq!(probe.compiles, 0, "{probe:?}");
            assert_eq!(probe.jit_compiles, 0, "{probe:?}");
            if lac_rv32::jit::host_supported() {
                assert!(probe.jit_shared_installs > 0, "{probe:?}");
            }
        }
        assert!(report.shared.publishes > 0);
        assert!(report.shared.installs >= 4, "{report:?}");
        // A warmed pool still serves jobs normally.
        let replies = pool.submit_batch(vec![Job::new(
            0,
            Params::lac128(),
            BackendKind::Ct,
            JobKind::Keygen,
        )]);
        assert!(!replies[0].is_error());
    }

    #[test]
    fn cold_pool_skips_the_warm_probe_and_serves_identically() {
        let cold = ServePool::new(ServeConfig {
            workers: 2,
            queue_capacity: 4,
            seed: [5; 32],
            warm_iss: false,
            ..ServeConfig::default()
        });
        assert!(cold.warm_report().is_none());
        let jobs = |pool: &ServePool| {
            pool.submit_batch(vec![Job::new(
                0,
                Params::lac128(),
                BackendKind::Ct,
                JobKind::Keygen,
            )])
        };
        // Warm start is a host-speed optimisation only: same seed, same
        // jobs, same replies with or without it.
        assert_eq!(jobs(&cold), jobs(&pool(2, 5)));
    }

    #[test]
    fn try_submit_routes_completions_and_reports_overload() {
        let pool = ServePool::new(ServeConfig {
            workers: 1,
            queue_capacity: 1,
            seed: [8; 32],
            warm_iss: false,
            ..ServeConfig::default()
        });
        let (tx, rx) = mpsc::channel();
        let waker = crate::reactor::Poller::new().expect("poller").waker();
        let job = |seq| Job::new(seq, Params::lac128(), BackendKind::Ct, JobKind::Keygen);
        let sink = |slot| ReplySink::Routed {
            conn: 7,
            slot,
            tx: tx.clone(),
            wake: waker.clone(),
        };
        pool.try_submit(job(0), sink(0)).unwrap();
        // Saturate: capacity 1 with one worker — pushing fast enough must
        // eventually hit Full (the worker may drain the first job, so try
        // until we do).
        let mut accepted = 1u64;
        let mut saw_full = false;
        for slot in 1..100 {
            match pool.try_submit(job(slot), sink(slot)) {
                Ok(()) => accepted += 1,
                Err(SubmitError::Full) => {
                    saw_full = true;
                    break;
                }
                Err(SubmitError::Closed) => panic!("pool is not closed"),
            }
        }
        assert!(saw_full, "a 1-deep queue must overflow under a tight loop");
        // Every accepted job's completion comes back with its routing keys.
        let mut slots = Vec::new();
        for _ in 0..accepted {
            let c = rx
                .recv_timeout(std::time::Duration::from_secs(30))
                .expect("every accepted job completes");
            assert_eq!(c.conn, 7);
            assert!(!c.reply.is_error(), "{:?}", c.reply);
            slots.push(c.slot);
        }
        assert!(slots.contains(&0));
        pool.shutdown();
        assert_eq!(
            pool.try_submit(job(500), sink(500)),
            Err(SubmitError::Closed)
        );
    }

    #[test]
    fn cycle_totals_accumulate_per_worker() {
        let pool = pool(1, 4);
        pool.submit_batch(vec![
            Job::new(0, Params::lac128(), BackendKind::Ct, JobKind::Keygen),
            Job::new(1, Params::lac128(), BackendKind::Hw, JobKind::Keygen),
        ]);
        let totals = pool.worker_cycle_totals();
        assert_eq!(totals.len(), 1);
        assert!(totals[0] > 0);
        assert_eq!(pool.snapshot().makespan_cycles(), totals[0]);
    }
}
