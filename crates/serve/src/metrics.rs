//! Live serving metrics: atomic counters and fixed-bucket latency
//! histograms.
//!
//! Workers record into [`Metrics`] with relaxed atomics (no locks on the
//! hot path); a [`MetricsSnapshot`] is taken on demand — for the `STATS`
//! protocol request, on server shutdown, and by the load generator — and
//! renders as text or JSON. Latencies use power-of-two microsecond
//! buckets, and [`HistogramSnapshot::quantile_micros_interp`] linearly
//! interpolates a quantile's rank within its bucket, so tail quantiles
//! (p99/p999) do not overshoot to the bucket's power-of-two bound. That
//! is the usual trade for a lock-free histogram.
//!
//! Each reactor shard of the front-end owns a [`ShardStats`] row: its
//! accepted/open connections, routed pool completions, flushed reply
//! frames, `writev` calls, open sessions, accumulated busy CPU time and
//! poller wakeups. A shard row is the only home of those facts: the
//! aggregate [`FrontendSnapshot`] and [`SessionSnapshot`] fields are sums
//! over the rows, taken at snapshot time. The rows are also the raw
//! breakdown behind `serve-ctl stats --per-shard` and the front-end
//! scaling metric (frames per busiest-shard CPU-second).
//!
//! Events with no shard-local meaning are counted once, front-end wide:
//! [`FrontendStats`] holds connections rejected at the cap, accept-throttle
//! events, overload sheds (`BUSY` replies) and per-kind timeout kills, and
//! [`SessionStats`] holds the session-layer counters.

use crate::Op;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Number of latency buckets: bucket `i` counts samples with
/// `micros <= 2^i`, and the last bucket is a catch-all.
pub const LATENCY_BUCKETS: usize = 30;

/// Upper bound (µs) of bucket `i`.
fn bucket_upper_micros(i: usize) -> u64 {
    1u64 << i
}

/// Index of the bucket a sample of `micros` falls into.
fn bucket_index(micros: u64) -> usize {
    for i in 0..LATENCY_BUCKETS - 1 {
        if micros <= bucket_upper_micros(i) {
            return i;
        }
    }
    LATENCY_BUCKETS - 1
}

/// A lock-free fixed-bucket latency histogram.
pub struct Histogram {
    buckets: [AtomicU64; LATENCY_BUCKETS],
    count: AtomicU64,
    sum_micros: AtomicU64,
    max_micros: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_micros: AtomicU64::new(0),
            max_micros: AtomicU64::new(0),
        }
    }

    /// Record one latency sample.
    pub fn record(&self, latency: Duration) {
        let micros = latency.as_micros().min(u128::from(u64::MAX)) as u64;
        self.buckets[bucket_index(micros)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_micros.fetch_add(micros, Ordering::Relaxed);
        self.max_micros.fetch_max(micros, Ordering::Relaxed);
    }

    /// A point-in-time copy of the histogram.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: self.count.load(Ordering::Relaxed),
            sum_micros: self.sum_micros.load(Ordering::Relaxed),
            max_micros: self.max_micros.load(Ordering::Relaxed),
        }
    }
}

/// An immutable copy of a [`Histogram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket counts (`buckets[i]` counts samples ≤ 2^i µs).
    pub buckets: Vec<u64>,
    /// Total samples recorded.
    pub count: u64,
    /// Sum of all samples in microseconds.
    pub sum_micros: u64,
    /// Largest sample observed, in microseconds.
    pub max_micros: u64,
}

impl HistogramSnapshot {
    /// An empty snapshot.
    pub fn empty() -> Self {
        Self {
            buckets: vec![0; LATENCY_BUCKETS],
            count: 0,
            sum_micros: 0,
            max_micros: 0,
        }
    }

    /// Interpolated estimate (µs) of the `p`-quantile (`0.0 < p <= 1.0`):
    /// the rank's position *within* its bucket is resolved linearly
    /// between the bucket's bounds (clamped to the observed max), instead
    /// of reporting the power-of-two upper bound. Returns 0 for an empty
    /// histogram.
    pub fn quantile_micros_interp(&self, p: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = (p * self.count as f64).clamp(1.0, self.count as f64);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let before = seen as f64;
            seen += c;
            if seen as f64 >= rank {
                let lower = if i == 0 {
                    0.0
                } else {
                    bucket_upper_micros(i - 1) as f64
                };
                let upper = (bucket_upper_micros(i) as f64)
                    .min(self.max_micros as f64)
                    .max(lower);
                return lower + (rank - before) / c as f64 * (upper - lower);
            }
        }
        self.max_micros as f64
    }

    /// Mean latency in microseconds (0 when empty).
    pub fn mean_micros(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_micros as f64 / self.count as f64
        }
    }

    /// JSON object with count/mean/p50/p99/p999/max plus the raw buckets.
    /// Quantiles are interpolated (see
    /// [`HistogramSnapshot::quantile_micros_interp`]).
    pub fn to_json(&self) -> String {
        let buckets: Vec<String> = self.buckets.iter().map(u64::to_string).collect();
        format!(
            "{{\"count\": {}, \"mean_us\": {:.1}, \"p50_us\": {:.1}, \"p99_us\": {:.1}, \"p999_us\": {:.1}, \"max_us\": {}, \"buckets_pow2_us\": [{}]}}",
            self.count,
            self.mean_micros(),
            self.quantile_micros_interp(0.50),
            self.quantile_micros_interp(0.99),
            self.quantile_micros_interp(0.999),
            self.max_micros,
            buckets.join(", ")
        )
    }
}

/// Front-end-wide event counters: cap rejections, accept throttling,
/// sheds and timeout kills, all monotonic.
///
/// Reactor shards are the only writers, but the `STATS` snapshot is
/// taken through the same `Arc`, so these stay atomics like everything
/// else here. Connection and write-coalescing counts live in the shard
/// rows ([`ShardStats`]) and are summed into the snapshot.
#[derive(Default)]
pub struct FrontendStats {
    conns_rejected: AtomicU64,
    accept_throttled: AtomicU64,
    shed_busy: AtomicU64,
    timeouts_idle: AtomicU64,
    timeouts_read: AtomicU64,
    timeouts_write: AtomicU64,
}

impl FrontendStats {
    /// Record a connection refused at the `max_conns` cap.
    pub fn conn_rejected(&self) {
        self.conns_rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// Record an accept pass deferred by the accept-rate limiter.
    pub fn accept_throttle(&self) {
        self.accept_throttled.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one request shed with a `BUSY` reply.
    pub fn shed(&self) {
        self.shed_busy.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a connection killed by the idle timeout.
    pub fn timeout_idle(&self) {
        self.timeouts_idle.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a connection killed by the mid-frame read timeout.
    pub fn timeout_read(&self) {
        self.timeouts_read.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a connection killed by the write-progress timeout.
    pub fn timeout_write(&self) {
        self.timeouts_write.fetch_add(1, Ordering::Relaxed);
    }

    /// A point-in-time copy, with the connection and write-coalescing
    /// totals summed over the `shards` rows.
    pub fn snapshot(&self, shards: &[ShardSnapshot]) -> FrontendSnapshot {
        let sum = |field: fn(&ShardSnapshot) -> u64| shards.iter().map(field).sum();
        FrontendSnapshot {
            conns_open: sum(|s| s.conns_open),
            conns_accepted: sum(|s| s.conns_accepted),
            conns_rejected: self.conns_rejected.load(Ordering::Relaxed),
            accept_throttled: self.accept_throttled.load(Ordering::Relaxed),
            shed_busy: self.shed_busy.load(Ordering::Relaxed),
            timeouts_idle: self.timeouts_idle.load(Ordering::Relaxed),
            timeouts_read: self.timeouts_read.load(Ordering::Relaxed),
            timeouts_write: self.timeouts_write.load(Ordering::Relaxed),
            writev_calls: sum(|s| s.writev_calls),
            frames_flushed: sum(|s| s.frames_flushed),
        }
    }
}

/// Front-end totals: the [`FrontendStats`] counters plus the shard rows'
/// connection and write-coalescing sums.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FrontendSnapshot {
    /// Connections currently open (gauge).
    pub conns_open: u64,
    /// Connections accepted over the server's lifetime.
    pub conns_accepted: u64,
    /// Connections refused at the `max_conns` cap.
    pub conns_rejected: u64,
    /// Accept passes deferred by the accept-rate limiter.
    pub accept_throttled: u64,
    /// Requests shed with a `BUSY` reply (queue full).
    pub shed_busy: u64,
    /// Connections killed by the idle timeout.
    pub timeouts_idle: u64,
    /// Connections killed by the mid-frame read timeout.
    pub timeouts_read: u64,
    /// Connections killed by the write-progress timeout.
    pub timeouts_write: u64,
    /// Vectored flush syscalls issued across all shards.
    pub writev_calls: u64,
    /// Reply frames fully drained to sockets across all shards.
    pub frames_flushed: u64,
}

impl FrontendSnapshot {
    /// Mean reply frames retired per vectored flush (the write-coalescing
    /// ratio; 0 when no flush has happened).
    pub fn frames_per_flush(&self) -> f64 {
        if self.writev_calls == 0 {
            0.0
        } else {
            self.frames_flushed as f64 / self.writev_calls as f64
        }
    }

    /// JSON object (nested under `"frontend"` in the stats reply).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"conns_open\": {}, \"conns_accepted\": {}, \"conns_rejected\": {}, \
             \"accept_throttled\": {}, \"shed_busy\": {}, \
             \"writev_calls\": {}, \"frames_flushed\": {}, \"frames_per_flush\": {:.2}, \
             \"timeouts\": {{\"idle\": {}, \"read\": {}, \"write\": {}}}}}",
            self.conns_open,
            self.conns_accepted,
            self.conns_rejected,
            self.accept_throttled,
            self.shed_busy,
            self.writev_calls,
            self.frames_flushed,
            self.frames_per_flush(),
            self.timeouts_idle,
            self.timeouts_read,
            self.timeouts_write,
        )
    }
}

/// Live counters for one reactor shard, written only by that shard (the
/// accepting shard also counts a connection in its target's row when it
/// routes one there). Snapshots feed the `--per-shard` breakdown, the
/// front-end scaling metric and the aggregate totals.
#[derive(Default)]
pub struct ShardStats {
    conns_accepted: AtomicU64,
    conns_open: AtomicU64,
    completions: AtomicU64,
    writev_calls: AtomicU64,
    frames_flushed: AtomicU64,
    sessions_open: AtomicU64,
    busy_ns: AtomicU64,
    wakeups: AtomicU64,
}

impl ShardStats {
    /// Record a connection routed to this shard (gauge up, counter up).
    pub fn conn_opened(&self) {
        self.conns_open.fetch_add(1, Ordering::Relaxed);
        self.conns_accepted.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a connection closed on this shard (gauge down).
    pub fn conn_closed(&self) {
        self.conns_open.fetch_sub(1, Ordering::Relaxed);
    }

    /// Record `n` pool completions routed into this shard's reply slots.
    pub fn completions(&self, n: u64) {
        self.completions.fetch_add(n, Ordering::Relaxed);
    }

    /// Record one vectored flush that fully drained `frames` reply frames.
    pub fn writev(&self, frames: u64) {
        self.writev_calls.fetch_add(1, Ordering::Relaxed);
        self.frames_flushed.fetch_add(frames, Ordering::Relaxed);
    }

    /// Record a session installed in this shard's table slice (gauge up).
    pub fn session_opened(&self) {
        self.sessions_open.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a session leaving this shard's table slice — close,
    /// eviction or tag-mismatch force-close (gauge down).
    pub fn session_closed(&self) {
        self.sessions_open.fetch_sub(1, Ordering::Relaxed);
    }

    /// Publish the shard's accumulated busy CPU time (total, not delta);
    /// the shard loop refreshes this once per productive pass.
    pub fn set_busy_ns(&self, total: u64) {
        self.busy_ns.store(total, Ordering::Relaxed);
    }

    /// Record one return of the shard's poller wait.
    pub fn wakeup(&self) {
        self.wakeups.fetch_add(1, Ordering::Relaxed);
    }

    /// A point-in-time copy, tagged with the shard index.
    pub fn snapshot(&self, shard: usize) -> ShardSnapshot {
        ShardSnapshot {
            shard,
            conns_accepted: self.conns_accepted.load(Ordering::Relaxed),
            conns_open: self.conns_open.load(Ordering::Relaxed),
            completions: self.completions.load(Ordering::Relaxed),
            writev_calls: self.writev_calls.load(Ordering::Relaxed),
            frames_flushed: self.frames_flushed.load(Ordering::Relaxed),
            sessions_open: self.sessions_open.load(Ordering::Relaxed),
            busy_ns: self.busy_ns.load(Ordering::Relaxed),
            wakeups: self.wakeups.load(Ordering::Relaxed),
        }
    }
}

/// An immutable copy of one shard's [`ShardStats`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardSnapshot {
    /// The shard's index (0 owns the listener).
    pub shard: usize,
    /// Connections routed to this shard over the server's lifetime.
    pub conns_accepted: u64,
    /// Connections currently owned by this shard (gauge).
    pub conns_open: u64,
    /// Pool completions routed into this shard's reply slots.
    pub completions: u64,
    /// Vectored flush syscalls issued by this shard.
    pub writev_calls: u64,
    /// Reply frames this shard fully drained to sockets.
    pub frames_flushed: u64,
    /// Sessions currently held in this shard's table slice (gauge).
    pub sessions_open: u64,
    /// CPU time the shard has spent in productive passes, in ns
    /// (0 when the host has no per-thread CPU clock).
    pub busy_ns: u64,
    /// Times the shard's poller wait returned: one per event batch,
    /// wake or due timer — an idle shard does not wake.
    pub wakeups: u64,
}

impl ShardSnapshot {
    /// JSON object (one element of the `"shards"` array).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"shard\": {}, \"shard_conns_accepted\": {}, \"shard_conns_open\": {}, \
             \"shard_completions\": {}, \"shard_writev_calls\": {}, \
             \"shard_frames_flushed\": {}, \"shard_sessions_open\": {}, \
             \"shard_busy_ns\": {}, \"shard_wakeups\": {}}}",
            self.shard,
            self.conns_accepted,
            self.conns_open,
            self.completions,
            self.writev_calls,
            self.frames_flushed,
            self.sessions_open,
            self.busy_ns,
            self.wakeups,
        )
    }
}

/// Live counters for the session layer (`crate::session`), all monotonic.
///
/// Written by the reactor shards (each the sole owner of its session
/// table); read through the shared `Arc` by the `STATS` snapshot. The
/// open-session gauge lives in the shard rows, and the snapshot's `open`
/// sums them. Every opened session leaves exactly one way (client close,
/// LRU eviction, or a tag-mismatch force-close), so
/// `open = opened − closed − evicted − (tag failures that closed)`.
#[derive(Default)]
pub struct SessionStats {
    opened: AtomicU64,
    closed: AtomicU64,
    evicted: AtomicU64,
    rekeys: AtomicU64,
    replay_drops: AtomicU64,
    tag_failures: AtomicU64,
    messages: AtomicU64,
}

impl SessionStats {
    /// Record a completed session handshake.
    pub fn opened(&self) {
        self.opened.fetch_add(1, Ordering::Relaxed);
    }

    /// Record an authenticated client close.
    pub fn closed(&self) {
        self.closed.fetch_add(1, Ordering::Relaxed);
    }

    /// Record an LRU eviction at table capacity.
    pub fn evicted(&self) {
        self.evicted.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a session force-closed by a frame tag mismatch.
    pub fn tag_failure_closed(&self) {
        self.tag_failures.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a rekey-authenticator failure that left the session open.
    pub fn tag_failure_kept(&self) {
        self.tag_failures.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a frame dropped by the replay/ordering or epoch check.
    pub fn replay_drop(&self) {
        self.replay_drops.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a completed rekey (epoch advance).
    pub fn rekeyed(&self) {
        self.rekeys.fetch_add(1, Ordering::Relaxed);
    }

    /// Record an accepted (verified, in-order) session message.
    pub fn message(&self) {
        self.messages.fetch_add(1, Ordering::Relaxed);
    }

    /// A point-in-time copy, with `open` summed over the `shards` rows.
    pub fn snapshot(&self, shards: &[ShardSnapshot]) -> SessionSnapshot {
        SessionSnapshot {
            open: shards.iter().map(|s| s.sessions_open).sum(),
            opened: self.opened.load(Ordering::Relaxed),
            closed: self.closed.load(Ordering::Relaxed),
            evicted: self.evicted.load(Ordering::Relaxed),
            rekeys: self.rekeys.load(Ordering::Relaxed),
            replay_drops: self.replay_drops.load(Ordering::Relaxed),
            tag_failures: self.tag_failures.load(Ordering::Relaxed),
            messages: self.messages.load(Ordering::Relaxed),
        }
    }
}

/// Session-layer totals: the [`SessionStats`] counters plus the shard
/// rows' open-session sum.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SessionSnapshot {
    /// Sessions currently open (gauge).
    pub open: u64,
    /// Sessions ever opened.
    pub opened: u64,
    /// Sessions closed by an authenticated client close.
    pub closed: u64,
    /// Sessions evicted by the LRU bound.
    pub evicted: u64,
    /// Completed rekeys (epoch advances).
    pub rekeys: u64,
    /// Frames dropped by replay/ordering/epoch checks.
    pub replay_drops: u64,
    /// Frame or rekey tag verification failures.
    pub tag_failures: u64,
    /// Accepted session messages.
    pub messages: u64,
}

impl SessionSnapshot {
    /// JSON object (nested under `"sessions"` in the stats reply).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"open\": {}, \"opened\": {}, \"closed\": {}, \"evicted\": {}, \
             \"rekeys\": {}, \"replay_drops\": {}, \"tag_failures\": {}, \
             \"messages\": {}}}",
            self.open,
            self.opened,
            self.closed,
            self.evicted,
            self.rekeys,
            self.replay_drops,
            self.tag_failures,
            self.messages,
        )
    }
}

/// Shared live counters for a [`crate::pool::ServePool`].
pub struct Metrics {
    requests: [AtomicU64; 3],
    errors: AtomicU64,
    /// Service latency: enqueue → reply ready (includes queue wait).
    latency: Histogram,
    /// Front-end-wide event counters, written by reactor shards.
    frontend: FrontendStats,
    /// Session-layer counters, written by reactor shards.
    sessions: SessionStats,
    /// Per-shard rows, one per reactor (always at least one).
    shards: Vec<ShardStats>,
}

impl Default for Metrics {
    fn default() -> Self {
        Self::new()
    }
}

impl Metrics {
    /// Fresh all-zero metrics for a single-reactor front-end.
    pub fn new() -> Self {
        Self::with_reactors(1)
    }

    /// Fresh all-zero metrics with one [`ShardStats`] row per reactor.
    pub fn with_reactors(reactors: usize) -> Self {
        Self {
            requests: std::array::from_fn(|_| AtomicU64::new(0)),
            errors: AtomicU64::new(0),
            latency: Histogram::new(),
            frontend: FrontendStats::default(),
            sessions: SessionStats::default(),
            shards: (0..reactors.max(1))
                .map(|_| ShardStats::default())
                .collect(),
        }
    }

    /// The front-end-wide event counters (reactor-owned).
    pub fn frontend(&self) -> &FrontendStats {
        &self.frontend
    }

    /// The session-layer counters (reactor-owned).
    pub fn sessions(&self) -> &SessionStats {
        &self.sessions
    }

    /// Counters for reactor shard `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range (a wiring bug: shards are fixed
    /// at pool construction).
    pub fn shard(&self, index: usize) -> &ShardStats {
        &self.shards[index]
    }

    /// Connections open across every shard: the acceptor enforces
    /// `max_conns` against this sum, since connections close on their
    /// owning shard.
    pub(crate) fn conns_open(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.conns_open.load(Ordering::Relaxed))
            .sum()
    }

    /// Snapshot every shard row, tagged with its index.
    pub fn shard_snapshots(&self) -> Vec<ShardSnapshot> {
        self.shards
            .iter()
            .enumerate()
            .map(|(i, s)| s.snapshot(i))
            .collect()
    }

    /// Record one completed job.
    pub fn record(&self, op: Op, latency: Duration, is_error: bool) {
        self.requests[op.index()].fetch_add(1, Ordering::Relaxed);
        if is_error {
            self.errors.fetch_add(1, Ordering::Relaxed);
        }
        self.latency.record(latency);
    }

    /// Count of completed requests for `op`.
    pub fn requests(&self, op: Op) -> u64 {
        self.requests[op.index()].load(Ordering::Relaxed)
    }

    /// Count of jobs that replied with an error.
    pub fn errors(&self) -> u64 {
        self.errors.load(Ordering::Relaxed)
    }

    /// Snapshot the latency histogram.
    pub fn latency_snapshot(&self) -> HistogramSnapshot {
        self.latency.snapshot()
    }
}

/// A point-in-time view of everything a pool knows about itself.
#[derive(Debug, Clone)]
pub struct MetricsSnapshot {
    /// Worker-thread count.
    pub workers: usize,
    /// Reactor-shard count of the front-end (1 for a bare pool).
    pub reactors: usize,
    /// Queue capacity (backpressure bound).
    pub queue_capacity: usize,
    /// Deepest the queue has ever been.
    pub queue_high_water: usize,
    /// Completed requests per op, indexed by [`Op::index`].
    pub requests: [u64; 3],
    /// Jobs that replied with an error.
    pub errors: u64,
    /// Service latency (enqueue → reply ready).
    pub latency: HistogramSnapshot,
    /// Modelled RISCY cycles executed by each worker.
    pub worker_cycles: Vec<u64>,
    /// Connection front-end totals (zero for a bare pool).
    pub frontend: FrontendSnapshot,
    /// Session-layer totals (zero for a bare pool).
    pub sessions: SessionSnapshot,
    /// Per-reactor-shard breakdown (one row even for a bare pool).
    pub shards: Vec<ShardSnapshot>,
}

impl MetricsSnapshot {
    /// Total completed requests.
    pub fn total_requests(&self) -> u64 {
        self.requests.iter().sum()
    }

    /// Sum of modelled cycles across workers.
    pub fn total_cycles(&self) -> u64 {
        self.worker_cycles.iter().sum()
    }

    /// The modelled makespan: the busiest worker's cycle total. On a
    /// modelled multi-core machine (one RISCY core per worker) the batch
    /// finishes when the busiest core does, so throughput in modelled time
    /// is `total_requests / makespan`.
    pub fn makespan_cycles(&self) -> u64 {
        self.worker_cycles.iter().copied().max().unwrap_or(0)
    }

    /// Requests per modelled megacycle of makespan (0 when idle).
    pub fn requests_per_mcycle(&self) -> f64 {
        let makespan = self.makespan_cycles();
        if makespan == 0 {
            0.0
        } else {
            self.total_requests() as f64 * 1e6 / makespan as f64
        }
    }

    /// The front-end makespan: the busiest shard's accumulated busy CPU
    /// time in ns. The front-end analogue of [`Self::makespan_cycles`] —
    /// with one core per shard, the I/O plane finishes when the busiest
    /// shard does. 0 when the host has no per-thread CPU clock.
    pub fn frontend_busy_ns_max(&self) -> u64 {
        self.shards.iter().map(|s| s.busy_ns).max().unwrap_or(0)
    }

    /// Reply frames flushed per second of busiest-shard CPU time: the
    /// completions/s headline the reactor-scaling gate compares across
    /// `--reactors` counts. 0 when busy-time accounting is unavailable.
    pub fn frontend_frames_per_busy_sec(&self) -> f64 {
        let busy = self.frontend_busy_ns_max();
        if busy == 0 {
            0.0
        } else {
            self.frontend.frames_flushed as f64 * 1e9 / busy as f64
        }
    }

    /// Human-readable multi-line report.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "workers: {}  reactors: {}  queue: capacity {} / high-water {}\n",
            self.workers, self.reactors, self.queue_capacity, self.queue_high_water
        ));
        for op in Op::ALL {
            out.push_str(&format!(
                "  {:<7} {}\n",
                op.label(),
                self.requests[op.index()]
            ));
        }
        out.push_str(&format!("  errors  {}\n", self.errors));
        out.push_str(&format!(
            "conns: open {} / accepted {} / rejected {}, shed(BUSY) {}, \
             timeouts idle {} read {} write {}\n",
            self.frontend.conns_open,
            self.frontend.conns_accepted,
            self.frontend.conns_rejected,
            self.frontend.shed_busy,
            self.frontend.timeouts_idle,
            self.frontend.timeouts_read,
            self.frontend.timeouts_write,
        ));
        out.push_str(&format!(
            "sessions: open {} / opened {} / closed {} / evicted {}, rekeys {}, \
             replay-drops {}, tag-failures {}, messages {}\n",
            self.sessions.open,
            self.sessions.opened,
            self.sessions.closed,
            self.sessions.evicted,
            self.sessions.rekeys,
            self.sessions.replay_drops,
            self.sessions.tag_failures,
            self.sessions.messages,
        ));
        out.push_str(&format!(
            "latency: mean {:.0} us, p50 ~ {:.0} us, p99 ~ {:.0} us, p999 ~ {:.0} us, max {} us\n",
            self.latency.mean_micros(),
            self.latency.quantile_micros_interp(0.50),
            self.latency.quantile_micros_interp(0.99),
            self.latency.quantile_micros_interp(0.999),
            self.latency.max_micros
        ));
        out.push_str(&format!(
            "writes: {} writev calls, {} frames flushed ({:.2} frames/flush)\n",
            self.frontend.writev_calls,
            self.frontend.frames_flushed,
            self.frontend.frames_per_flush(),
        ));
        for s in &self.shards {
            out.push_str(&format!(
                "  shard {}: conns open {} / accepted {}, completions {}, \
                 frames {} in {} writev, sessions {}, busy {:.1} ms, wakeups {}\n",
                s.shard,
                s.conns_open,
                s.conns_accepted,
                s.completions,
                s.frames_flushed,
                s.writev_calls,
                s.sessions_open,
                s.busy_ns as f64 / 1e6,
                s.wakeups,
            ));
        }
        out.push_str(&format!(
            "modelled cycles: makespan {} (busiest worker), total {}, {:.2} req/Mcycle\n",
            self.makespan_cycles(),
            self.total_cycles(),
            self.requests_per_mcycle()
        ));
        out
    }

    /// JSON object (the `STATS` reply payload and `--json` building block).
    ///
    /// Aggregate objects (`frontend`, `sessions`) render *before* the
    /// per-shard array, and shard keys carry a `shard_` prefix, so
    /// first-match key scanners keep finding the aggregate values.
    pub fn to_json(&self) -> String {
        let cycles: Vec<String> = self.worker_cycles.iter().map(u64::to_string).collect();
        let shards: Vec<String> = self.shards.iter().map(ShardSnapshot::to_json).collect();
        format!(
            "{{\"workers\": {}, \"reactors\": {}, \"queue_capacity\": {}, \
             \"queue_high_water\": {}, \
             \"requests\": {{\"keygen\": {}, \"encaps\": {}, \"decaps\": {}}}, \
             \"errors\": {}, \"frontend\": {}, \"sessions\": {}, \"latency\": {}, \
             \"worker_cycles\": [{}], \"makespan_cycles\": {}, \"total_cycles\": {}, \
             \"requests_per_mcycle\": {:.4}, \"frontend_busy_ns_max\": {}, \
             \"frontend_frames_per_busy_sec\": {:.1}, \"shards\": [{}]}}",
            self.workers,
            self.reactors,
            self.queue_capacity,
            self.queue_high_water,
            self.requests[0],
            self.requests[1],
            self.requests[2],
            self.errors,
            self.frontend.to_json(),
            self.sessions.to_json(),
            self.latency.to_json(),
            cycles.join(", "),
            self.makespan_cycles(),
            self.total_cycles(),
            self.requests_per_mcycle(),
            self.frontend_busy_ns_max(),
            self.frontend_frames_per_busy_sec(),
            shards.join(", "),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotonic_and_bounded() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(1024), 10);
        assert_eq!(bucket_index(u64::MAX), LATENCY_BUCKETS - 1);
        let mut last = 0;
        for micros in [0u64, 1, 2, 5, 100, 10_000, 1 << 40] {
            let b = bucket_index(micros);
            assert!(b >= last);
            last = b;
        }
    }

    #[test]
    fn histogram_quantiles_track_samples() {
        let h = Histogram::new();
        // 99 fast samples and one slow one.
        for _ in 0..99 {
            h.record(Duration::from_micros(100));
        }
        h.record(Duration::from_millis(100));
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        assert!(s.quantile_micros_interp(0.5) <= 128.0);
        assert!(s.quantile_micros_interp(0.99) <= 128.0);
        assert!(s.quantile_micros_interp(1.0) >= 100_000.0 / 2.0);
        assert_eq!(s.max_micros, 100_000);
        assert!((s.mean_micros() - (99.0 * 100.0 + 100_000.0) / 100.0).abs() < 1.0);
    }

    #[test]
    fn empty_histogram_is_harmless() {
        let s = HistogramSnapshot::empty();
        assert_eq!(s.quantile_micros_interp(0.5), 0.0);
        assert_eq!(s.mean_micros(), 0.0);
        assert!(s.to_json().contains("\"count\": 0"));
    }

    #[test]
    fn metrics_record_and_snapshot() {
        let m = Metrics::new();
        m.record(Op::Keygen, Duration::from_micros(5), false);
        m.record(Op::Encaps, Duration::from_micros(6), false);
        m.record(Op::Encaps, Duration::from_micros(7), true);
        assert_eq!(m.requests(Op::Keygen), 1);
        assert_eq!(m.requests(Op::Encaps), 2);
        assert_eq!(m.requests(Op::Decaps), 0);
        assert_eq!(m.errors(), 1);
        assert_eq!(m.latency_snapshot().count, 3);
    }

    #[test]
    fn snapshot_json_and_text_render() {
        let snap = MetricsSnapshot {
            workers: 4,
            reactors: 2,
            queue_capacity: 64,
            queue_high_water: 17,
            requests: [1, 2, 3],
            errors: 0,
            latency: HistogramSnapshot::empty(),
            worker_cycles: vec![100, 400, 250, 0],
            frontend: FrontendSnapshot {
                conns_open: 2,
                conns_accepted: 9,
                conns_rejected: 1,
                accept_throttled: 0,
                shed_busy: 5,
                timeouts_idle: 1,
                timeouts_read: 0,
                timeouts_write: 0,
                writev_calls: 6,
                frames_flushed: 18,
            },
            sessions: SessionSnapshot {
                open: 3,
                opened: 10,
                closed: 5,
                evicted: 2,
                rekeys: 4,
                replay_drops: 1,
                tag_failures: 0,
                messages: 42,
            },
            shards: vec![
                ShardSnapshot {
                    shard: 0,
                    conns_accepted: 5,
                    conns_open: 1,
                    completions: 3,
                    writev_calls: 4,
                    frames_flushed: 12,
                    sessions_open: 2,
                    busy_ns: 2_000_000,
                    wakeups: 10,
                },
                ShardSnapshot {
                    shard: 1,
                    conns_accepted: 4,
                    conns_open: 1,
                    completions: 3,
                    writev_calls: 2,
                    frames_flushed: 6,
                    sessions_open: 1,
                    busy_ns: 3_000_000,
                    wakeups: 7,
                },
            ],
        };
        assert_eq!(snap.total_requests(), 6);
        assert_eq!(snap.makespan_cycles(), 400);
        assert_eq!(snap.total_cycles(), 750);
        assert!((snap.requests_per_mcycle() - 6.0 * 1e6 / 400.0).abs() < 1e-9);
        assert_eq!(snap.frontend_busy_ns_max(), 3_000_000);
        assert!((snap.frontend_frames_per_busy_sec() - 18.0 * 1e9 / 3e6).abs() < 1e-6);
        assert!((snap.frontend.frames_per_flush() - 3.0).abs() < 1e-9);
        let json = snap.to_json();
        for needle in [
            "\"workers\": 4",
            "\"reactors\": 2",
            "\"queue_high_water\": 17",
            "\"encaps\": 2",
            "\"makespan_cycles\": 400",
            "\"shed_busy\": 5",
            "\"conns_accepted\": 9",
            "\"writev_calls\": 6",
            "\"frames_per_flush\": 3.00",
            "\"p999_us\": 0.0",
            "\"rekeys\": 4",
            "\"replay_drops\": 1",
            "\"shard\": 1",
            "\"shard_busy_ns\": 3000000",
            "\"shard_wakeups\": 7",
            "\"frontend_busy_ns_max\": 3000000",
        ] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
        // `bench::json_u64`, `serve-ctl` and verify.sh's `json_field` scan
        // for the first match of a key, so the key sequence is pinned:
        // every aggregate renders before the `shard_`-prefixed rows.
        let keys: Vec<&str> = json.split('"').skip(1).step_by(2).collect();
        let shard = "shard shard_conns_accepted shard_conns_open shard_completions \
            shard_writev_calls shard_frames_flushed shard_sessions_open shard_busy_ns \
            shard_wakeups";
        let want = format!(
            "workers reactors queue_capacity queue_high_water requests keygen encaps decaps \
             errors frontend conns_open conns_accepted conns_rejected accept_throttled \
             shed_busy writev_calls frames_flushed frames_per_flush timeouts idle read write \
             sessions open opened closed evicted rekeys replay_drops tag_failures messages \
             latency count mean_us p50_us p99_us p999_us max_us buckets_pow2_us \
             worker_cycles makespan_cycles total_cycles requests_per_mcycle \
             frontend_busy_ns_max frontend_frames_per_busy_sec shards {shard} {shard}"
        );
        let want: Vec<&str> = want.split_whitespace().collect();
        assert_eq!(keys, want, "{json}");
        assert!(snap.to_text().contains("high-water 17"));
        assert!(snap.to_text().contains("reactors: 2"));
        assert!(snap.to_text().contains("shed(BUSY) 5"));
        assert!(snap.to_text().contains("rekeys 4"));
        assert!(snap.to_text().contains("shard 1:"));
        assert!(snap.to_text().contains("wakeups 7"));
    }

    #[test]
    fn shard_stats_gauges_and_counters() {
        let m = Metrics::with_reactors(2);
        m.shard(0).conn_opened();
        m.shard(0).conn_opened();
        m.shard(0).conn_closed();
        m.shard(1).completions(5);
        m.shard(1).writev(3);
        m.shard(1).writev(1);
        m.shard(0).session_opened();
        m.shard(0).session_closed();
        m.shard(1).set_busy_ns(42);
        m.shard(1).set_busy_ns(99);
        m.shard(0).wakeup();
        m.shard(0).wakeup();
        let rows = m.shard_snapshots();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].shard, 0);
        assert_eq!(rows[0].conns_accepted, 2);
        assert_eq!(rows[0].conns_open, 1);
        assert_eq!(rows[0].sessions_open, 0);
        assert_eq!(rows[1].completions, 5);
        assert_eq!(rows[1].writev_calls, 2);
        assert_eq!(rows[1].frames_flushed, 4);
        assert_eq!(rows[1].busy_ns, 99, "set_busy_ns stores totals");
        assert_eq!((rows[0].wakeups, rows[1].wakeups), (2, 0));
        assert!(rows[1].to_json().contains("\"shard_frames_flushed\": 4"));
    }

    #[test]
    fn session_gauge_balances_against_the_three_exits() {
        let m = Metrics::with_reactors(2);
        let (stats, rows) = (m.sessions(), [m.shard(0), m.shard(1)]);
        // Four opens over two shards, then one of each exit.
        for shard in [0, 1, 0, 1] {
            stats.opened();
            rows[shard].session_opened();
        }
        stats.closed();
        rows[0].session_closed();
        stats.evicted();
        rows[1].session_closed();
        stats.tag_failure_closed();
        rows[0].session_closed();
        stats.tag_failure_kept();
        stats.rekeyed();
        stats.replay_drop();
        stats.message();
        stats.message();
        let snap = stats.snapshot(&m.shard_snapshots());
        assert_eq!(snap.opened, 4);
        assert_eq!(snap.open, 1, "summed over the shard rows");
        assert_eq!(
            snap.open,
            snap.opened - snap.closed - snap.evicted - 1,
            "gauge balances against the three exits"
        );
        assert_eq!(snap.tag_failures, 2);
        assert_eq!(snap.rekeys, 1);
        assert_eq!(snap.messages, 2);
        assert!(snap.to_json().contains("\"open\": 1"));
    }

    #[test]
    fn interpolated_quantiles_are_tighter_than_bucket_bounds() {
        let h = Histogram::new();
        // 1000 samples in the (512, 1024] bucket; p50's bucket bound is
        // 1024 but the interpolated estimate sits mid-bucket.
        for _ in 0..1000 {
            h.record(Duration::from_micros(700));
        }
        let s = h.snapshot();
        let p50 = s.quantile_micros_interp(0.50);
        assert!(p50 > 512.0 && p50 < 1024.0, "p50 {p50}");
        // The p999 never exceeds the observed maximum.
        assert!(s.quantile_micros_interp(0.999) <= s.max_micros as f64);
        assert_eq!(HistogramSnapshot::empty().quantile_micros_interp(0.99), 0.0);

        // A clean bimodal split: 900 fast, 100 slow — p999 lands in the
        // slow mode, p50 in the fast one.
        let h = Histogram::new();
        for _ in 0..900 {
            h.record(Duration::from_micros(100));
        }
        for _ in 0..100 {
            h.record(Duration::from_micros(50_000));
        }
        let s = h.snapshot();
        assert!(s.quantile_micros_interp(0.50) <= 128.0);
        let p999 = s.quantile_micros_interp(0.999);
        assert!(p999 > 32_768.0 && p999 <= 50_000.0, "p999 {p999}");
    }

    #[test]
    fn frontend_totals_sum_the_shard_rows() {
        let m = Metrics::with_reactors(2);
        m.shard(0).conn_opened();
        m.shard(1).conn_opened();
        m.shard(1).conn_closed();
        m.shard(0).writev(3);
        m.shard(1).writev(2);
        assert_eq!(m.conns_open(), 1);
        let f = m.frontend();
        f.conn_rejected();
        f.accept_throttle();
        f.shed();
        f.shed();
        f.timeout_idle();
        f.timeout_read();
        f.timeout_write();
        let s = f.snapshot(&m.shard_snapshots());
        assert_eq!((s.conns_open, s.conns_accepted), (1, 2));
        assert_eq!((s.writev_calls, s.frames_flushed), (2, 5));
        assert!((s.frames_per_flush() - 2.5).abs() < 1e-9);
        assert_eq!(s.conns_rejected, 1);
        assert_eq!(s.accept_throttled, 1);
        assert_eq!(s.shed_busy, 2);
        assert_eq!(s.timeouts_idle, 1);
        assert_eq!(s.timeouts_read, 1);
        assert_eq!(s.timeouts_write, 1);
        assert!(s.to_json().contains("\"shed_busy\": 2"));
    }
}
