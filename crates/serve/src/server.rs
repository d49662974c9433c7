//! The TCP front-end: sharded, readiness-driven event loops.
//!
//! The server runs `ServeConfig::reactors` **shards**. Each shard is its
//! own event-loop thread owning a *disjoint* set of connections, with its
//! own [`Poller`]/completion channel, its own timers and its own slice of
//! the session table — the hot path never takes a cross-shard lock. Shard
//! 0 additionally owns the listener: accepted sockets are dealt
//! round-robin into per-shard registration queues (followed by a wake of
//! the target shard) and never migrate afterwards. Each connection is a
//! state machine: an incremental [`FrameDecoder`] turns whatever bytes
//! the kernel has into request frames, KEM jobs go to the [`ServePool`]
//! through the nonblocking [`ServePool::try_submit`], and finished jobs
//! come back over the *owning shard's* completion channel, which wakes
//! just that shard (see [`crate::reactor`]). Replies queue in
//! per-connection *slots* in request order — a slot is reserved when the
//! request is read and filled when its job completes — so pipelined
//! responses always leave in the order the requests arrived, no matter
//! which worker finished first. That per-connection ordering is what
//! keeps bench digests byte-identical across worker counts, reactor
//! counts and connection interleavings.
//!
//! **Blocking on readiness.** A shard sleeps in its poller until a socket
//! it owns has an event, a waker fires (a worker completion, a routed
//! connection, a drain) or its earliest armed timer is due: a
//! connection's read, write or idle deadline, the drain deadline, or the
//! refill of throttled accepts. With no timer armed it sleeps with no
//! timeout. A pass then visits only the connections that had an event, a
//! routed completion, or reads left over by the `READ_ROUNDS` fairness
//! bound; an idle connection costs nothing until its deadline.
//!
//! **Vectored flushes.** Completed reply slots are promoted whole (the
//! encoded frame `Vec` moves, no copy) into a per-connection frame queue,
//! and the queue's ready prefix drains through a single
//! [`reactor::try_write_vectored`] call — one syscall retiring many
//! pipelined replies. Per-shard `writev_calls` / `frames_flushed`
//! counters (summed in the `STATS` totals) make the coalescing ratio
//! observable.
//!
//! **Session sharding.** Sessions live on the shard that owns the
//! connection that opened them, in that shard's own exact-LRU
//! [`SessionTable`]. `session_capacity` is split over the shards (shard
//! `i` of `N` holds `session_capacity / N` entries, plus one when
//! `i < session_capacity % N`), so the tables sum to the configured bound.
//! Assigned ids stride by the shard count (`shard + 1`, `shard + 1 + N`,
//! …) so id spaces are disjoint and a session id presented on another
//! shard's connection is simply "unknown" — session state never migrates
//! and never needs a cross-shard lookup.
//!
//! **Overload shedding.** A shard never blocks on the pool: when the job
//! queue is full, the request is answered immediately with a `BUSY`
//! status (counted in `shed_busy`) instead of stalling the loop —
//! closed-loop clients with at most `queue_capacity` outstanding requests
//! never see it. The rest of the operational envelope is enforced here
//! too, every limit a [`ServeConfig`] knob and a metrics counter:
//! connection cap (`max_conns`, global across shards, excess accepts
//! closed), accept-rate limiting (token bucket on the accepting shard),
//! idle / mid-frame-read / write-progress timeouts (per shard, on the
//! shard's timer), and per-connection write backpressure (reading pauses
//! while the write queue is over `max_write_buffer`).
//!
//! **Graceful drain.** A `SHUTDOWN` frame can arrive on *any* shard: it
//! is acknowledged with `bye` there, and a shared drain flag (plus a
//! broadcast wake) tells every other shard to stop reading, flush what it
//! owes and exit once its own connections have emptied their slots (or
//! `drain_ms` expires). Only after every shard has exited is the pool
//! shut down and the final snapshot taken.

use crate::metrics::{MetricsSnapshot, ShardStats};
use crate::pool::{
    Completion, Job, JobKind, Reply, ReplySink, ServeConfig, ServePool, SubmitError,
};
use crate::reactor::{self, IoStatus, Poller, TokenBucket, Waker};
use crate::session::{self, Direction, SessionFrame, SessionState, SessionTable};
use crate::wire::{self, frame_to_job, FrameDecoder, Opcode, RequestFrame, ResponseFrame};
use crate::{params_from_code, BackendKind};
use std::collections::{HashMap, VecDeque};
use std::io::IoSlice;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Read-chunk size per socket attempt.
const READ_CHUNK: usize = 16 * 1024;
/// Max read chunks per connection per pass (fairness bound); a
/// connection that hits it is visited again on the next pass.
const READ_ROUNDS: usize = 4;
/// Poller token of the listener (connection ids never reach it).
const LISTENER: u64 = u64::MAX - 1;
/// Wait before retrying an accept that failed with the backlog non-empty
/// (`EMFILE`, `ENFILE`, `ENOBUFS`): the backlog stays queued and is
/// retried on this timer rather than on every pass.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(10);
/// Throttled accepts held for later admission before excess is refused.
const MAX_PENDING_ACCEPTS: usize = 64;
/// Max frames gathered into one vectored flush (IOV_MAX is 1024 on
/// Linux; 64 keeps the slice array cheap while still coalescing deep
/// pipelines).
const MAX_WRITE_IOV: usize = 64;

/// What [`Server::warm_report`] would describe; it never returns one.
/// Kept only because the benchmark package names these fields
/// (ROADMAP item 6(a) deletes them with that read).
#[derive(Debug, Clone)]
pub struct WarmReport {
    /// One entry per worker.
    pub probes: Vec<WarmProbe>,
}

/// One worker's entry in a [`WarmReport`].
#[derive(Debug, Clone, Copy)]
pub struct WarmProbe {
    /// JIT translations the worker compiled.
    pub jit_compiles: u64,
    /// JIT translations the worker adopted from another worker.
    pub jit_shared_installs: u64,
}

/// A bound-but-not-yet-running KEM server.
pub struct Server {
    listener: TcpListener,
    pool: Arc<ServePool>,
    /// One poller per reactor shard, the listener already registered
    /// with shard 0's.
    pollers: Vec<Poller>,
}

impl Server {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port), build
    /// every shard's poller and spawn the worker pool. The listener is
    /// nonblocking from the start.
    ///
    /// # Errors
    ///
    /// `InvalidInput`, naming the field, for a size the server cannot run
    /// as given: zero `workers`, `reactors`, `queue_capacity`, `max_conns`
    /// or `max_write_buffer`, or a `session_capacity` below one slot per
    /// reactor shard. Otherwise propagates socket errors from the bind and
    /// poller set-up errors (descriptor exhaustion).
    pub fn bind(addr: &str, config: ServeConfig) -> std::io::Result<Self> {
        for (field, value, least) in [
            ("workers", config.workers, 1),
            ("reactors", config.reactors, 1),
            ("queue_capacity", config.queue_capacity, 1),
            ("max_conns", config.max_conns, 1),
            ("max_write_buffer", config.max_write_buffer, 1),
            ("session_capacity", config.session_capacity, config.reactors),
        ] {
            if value < least {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidInput,
                    format!("{field} is {value}; it must be at least {least}"),
                ));
            }
        }
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let mut pollers = (0..config.reactors)
            .map(|_| Poller::new())
            .collect::<std::io::Result<Vec<_>>>()?;
        pollers[0].register(&listener, LISTENER)?;
        Ok(Self {
            listener,
            pool: Arc::new(ServePool::new(config)),
            pollers,
        })
    }

    /// The address actually bound (resolves ephemeral ports).
    ///
    /// # Errors
    ///
    /// Propagates `local_addr` socket errors.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Always `None`: the pool no longer runs an ISS warm-start probe.
    /// Kept, with [`WarmReport`], only because the benchmark package
    /// reads it for `setup.warm_jit_compiles`; ROADMAP item 6(a), a
    /// benchmark change, deletes the read and then this stub.
    pub fn warm_report(&self) -> Option<&WarmReport> {
        None
    }

    /// Run the sharded event loops until a `SHUTDOWN` frame arrives (on
    /// any shard) and every shard's drain completes, then shut the pool
    /// down and return the final snapshot (taken after the drain, so it
    /// includes every executed job). Shard 0 runs on the calling thread;
    /// shards 1..N on their own threads.
    pub fn run(self) -> MetricsSnapshot {
        let Self {
            listener,
            pool,
            pollers,
        } = self;
        let control = Arc::new(ShardControl {
            draining: AtomicBool::new(false),
            wakers: pollers.iter().map(Poller::waker).collect(),
        });
        let (reg_txs, reg_rxs): (Vec<_>, Vec<_>) =
            pollers.iter().map(|_| mpsc::channel::<TcpStream>()).unzip();
        let mut shards = pollers.into_iter().zip(reg_rxs);
        let (poller, reg_rx) = shards.next().expect("at least one shard");
        let mut handles = Vec::new();
        for (shard, (poller, reg_rx)) in (1..).zip(shards) {
            let pool = Arc::clone(&pool);
            let control = Arc::clone(&control);
            let handle = std::thread::Builder::new()
                .name(format!("lac-serve-shard-{shard}"))
                .spawn(move || {
                    EventLoop::new(shard, None, poller, reg_rx, Vec::new(), pool, control).run();
                })
                .expect("spawn reactor shard");
            handles.push(handle);
        }
        EventLoop::new(
            0,
            Some(listener),
            poller,
            reg_rx,
            reg_txs,
            Arc::clone(&pool),
            control,
        )
        .run();
        for handle in handles {
            let _ = handle.join();
        }
        // Every shard has exited: drain the queue and join every worker
        // *before* the snapshot, so the final report covers all executed
        // work.
        pool.shutdown();
        pool.snapshot()
    }
}

/// Cross-shard coordination: the drain flag and every shard's waker. The
/// only shared front-end state outside the (atomic) metrics — touched on
/// accept routing and shutdown, never on the per-frame hot path.
struct ShardControl {
    draining: AtomicBool,
    wakers: Vec<Waker>,
}

impl ShardControl {
    /// Wake one shard (accept routing).
    fn wake(&self, shard: usize) {
        self.wakers[shard].wake();
    }

    /// Raise the drain flag and wake every shard so each begins its own
    /// local drain immediately.
    fn request_drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
        for waker in &self.wakers {
            waker.wake();
        }
    }

    fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }
}

/// Serialize a response frame to bytes for the write queue.
fn encode(frame: &ResponseFrame) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(8 + frame.payload.len());
    wire::write_response(&mut bytes, frame).expect("writing to a Vec cannot fail");
    bytes
}

/// Map a pool reply onto the wire.
fn reply_to_response(reply: Reply) -> ResponseFrame {
    match reply {
        Reply::Keygen { mut pk, sk } => {
            pk.extend_from_slice(&sk);
            ResponseFrame::ok(pk)
        }
        Reply::Encaps { mut ct, shared } => {
            ct.extend_from_slice(&shared);
            ResponseFrame::ok(ct)
        }
        Reply::Decaps { shared } => ResponseFrame::ok(shared.to_vec()),
        Reply::Error(message) => ResponseFrame::error(message),
    }
}

/// One connection's state machine.
struct Conn {
    stream: TcpStream,
    decoder: FrameDecoder,
    /// Encoded reply frames ready to write, drained front-first by
    /// vectored flushes. Frames move in whole from their reply slots.
    wqueue: VecDeque<Vec<u8>>,
    /// Bytes of `wqueue.front()` already written (partial-write cursor).
    woff: usize,
    /// Total unwritten bytes across `wqueue` (backpressure gauge).
    wbuf_len: usize,
    /// Reply slots in request order: `Some(bytes)` is an encoded response
    /// ready to promote into `wqueue`; `None` awaits its job's completion.
    slots: VecDeque<Option<Vec<u8>>>,
    /// Absolute sequence of `slots.front()`; completions address slots by
    /// `head_slot + index`, so routing is O(1) arithmetic.
    head_slot: u64,
    /// Pending pool jobs (the number of `None` slots).
    inflight: usize,
    last_activity: Instant,
    /// When the currently half-received frame started (read timeout).
    partial_since: Option<Instant>,
    /// When the write buffer last failed to make progress.
    write_stalled_since: Option<Instant>,
    /// Reading paused by write backpressure.
    paused: bool,
    /// Stop reading; close once slots and write queue drain (peer EOF,
    /// shutdown ack, server drain).
    closing: bool,
    /// Remove this connection at the next opportunity.
    dead: bool,
    /// The socket may hold unread bytes: set by a poller event, cleared
    /// once a read comes up short. Edge-triggered readiness reports new
    /// bytes once, so whatever a pass leaves unread stays flagged here.
    readable: bool,
    /// Already on the shard's visit list for the next pass.
    queued: bool,
}

impl Conn {
    fn new(stream: TcpStream) -> Self {
        Self {
            stream,
            decoder: FrameDecoder::new(),
            wqueue: VecDeque::new(),
            woff: 0,
            wbuf_len: 0,
            slots: VecDeque::new(),
            head_slot: 0,
            inflight: 0,
            last_activity: Instant::now(),
            partial_since: None,
            write_stalled_since: None,
            paused: false,
            closing: false,
            dead: false,
            readable: true,
            queued: false,
        }
    }

    /// A pass should read this connection again without waiting for a
    /// new event: bytes may remain and nothing stops reading them.
    fn read_pending(&self) -> bool {
        self.readable && !(self.dead || self.closing || self.paused)
    }

    /// Append a ready response in the next slot.
    fn push_ready(&mut self, frame: &ResponseFrame) {
        self.slots.push_back(Some(encode(frame)));
    }

    /// Reserve the next slot for an in-flight job; returns its absolute
    /// sequence for completion routing.
    fn push_pending(&mut self) -> u64 {
        let slot = self.head_slot + self.slots.len() as u64;
        self.slots.push_back(None);
        self.inflight += 1;
        slot
    }

    /// Fill the just-reserved trailing slot inline (shed / closed-pool
    /// answers that never reached a worker).
    fn fill_last(&mut self, frame: &ResponseFrame) {
        *self.slots.back_mut().expect("slot was just reserved") = Some(encode(frame));
        self.inflight -= 1;
    }
}

/// Timeout knob in ms → optional duration (0 disables).
fn timeout(ms: u64) -> Option<Duration> {
    (ms > 0).then(|| Duration::from_millis(ms))
}

/// A session handshake whose encaps job is on the pool: `rekey` is the
/// target session for a rekey, `None` for a fresh open.
struct PendingOpen {
    rekey: Option<u64>,
}

/// One reactor shard: owns a disjoint set of sockets and blocks in its
/// poller between passes, until one of its sockets has an event, a timer
/// is due, or it is woken by a pool worker delivering a completion for
/// *its* connections, by the accepting shard routing it a new
/// connection, or by the drain broadcast.
struct EventLoop {
    /// This shard's index; shard 0 owns the listener.
    shard: usize,
    /// Total shard count (the session-id stride).
    reactors: usize,
    /// The accept socket (shard 0 only).
    listener: Option<TcpListener>,
    /// The listener may have queued connections (set by its events,
    /// cleared once an accept finds the backlog empty).
    listener_ready: bool,
    /// No accept retry before this instant (set when an accept failed
    /// with connections still queued).
    accept_backoff: Option<Instant>,
    /// Connections routed here by the accepting shard.
    reg_rx: mpsc::Receiver<TcpStream>,
    /// Registration queues to every shard (accepting shard only; empty
    /// elsewhere).
    reg_txs: Vec<mpsc::Sender<TcpStream>>,
    /// Round-robin cursor over shards for accept routing.
    next_rr: usize,
    pool: Arc<ServePool>,
    control: Arc<ShardControl>,
    conns: HashMap<u64, Conn>,
    /// Connections the next pass visits (each flagged `queued`).
    visit: Vec<u64>,
    /// Earliest connection deadline armed since the last timeout scan —
    /// a lower bound, since a deadline only moves later once set.
    conn_timer: Option<Instant>,
    next_id: u64,
    pending_accepts: VecDeque<TcpStream>,
    accept_bucket: TokenBucket,
    draining: bool,
    drain_deadline: Option<Instant>,
    tx: mpsc::Sender<Completion>,
    rx: mpsc::Receiver<Completion>,
    poller: Poller,
    /// This shard's session table, bounded with exact LRU eviction.
    /// Shard-owned: session crypto is symmetric-only and runs inline;
    /// only handshake encaps goes to the pool.
    sessions: SessionTable,
    /// Handshake jobs in flight, keyed by `(conn id, reply slot)`; the
    /// completion installs (or rekeys) the session before replying.
    pending_opens: HashMap<(u64, u64), PendingOpen>,
    /// Next session id to assign: starts at `shard + 1` and strides by
    /// the shard count, so id spaces are disjoint across shards (and 0
    /// stays reserved as the "new session" marker in open requests).
    next_session_id: u64,
    /// Accumulated CPU time of productive passes (ns).
    busy_ns: u64,
    // Knobs copied out of ServeConfig.
    session_rekey_after: u64,
    max_conns: u64,
    idle_timeout: Option<Duration>,
    read_timeout: Option<Duration>,
    write_timeout: Option<Duration>,
    max_write_buffer: usize,
    drain_ms: u64,
}

impl EventLoop {
    fn new(
        shard: usize,
        listener: Option<TcpListener>,
        poller: Poller,
        reg_rx: mpsc::Receiver<TcpStream>,
        reg_txs: Vec<mpsc::Sender<TcpStream>>,
        pool: Arc<ServePool>,
        control: Arc<ShardControl>,
    ) -> Self {
        let cfg = pool.config().clone();
        let reactors = cfg.reactors;
        let (tx, rx) = mpsc::channel();
        Self {
            shard,
            reactors,
            listener,
            listener_ready: false,
            accept_backoff: None,
            reg_rx,
            reg_txs,
            next_rr: 0,
            pool,
            control,
            conns: HashMap::new(),
            visit: Vec::new(),
            conn_timer: None,
            // Per-shard conn ids stride by the shard count so they stay
            // globally unique (handy in logs; routing never needs it).
            next_id: shard as u64,
            pending_accepts: VecDeque::new(),
            accept_bucket: TokenBucket::new(cfg.accept_rps),
            draining: false,
            drain_deadline: None,
            tx,
            rx,
            poller,
            // Each shard holds its exact share of the global bound.
            sessions: SessionTable::new(
                cfg.session_capacity / reactors
                    + usize::from(shard < cfg.session_capacity % reactors),
            ),
            pending_opens: HashMap::new(),
            next_session_id: shard as u64 + 1,
            busy_ns: 0,
            session_rekey_after: cfg.session_rekey_after,
            max_conns: cfg.max_conns as u64,
            idle_timeout: timeout(cfg.idle_timeout_ms),
            read_timeout: timeout(cfg.read_timeout_ms),
            write_timeout: timeout(cfg.write_timeout_ms),
            max_write_buffer: cfg.max_write_buffer,
            drain_ms: cfg.drain_ms,
        }
    }

    /// This shard's own counter row.
    fn shard_stats(&self) -> &ShardStats {
        self.pool.metrics().shard(self.shard)
    }

    fn run(mut self) {
        let mut ready = Vec::new();
        loop {
            ready.clear();
            self.poller.wait(self.wait_timeout(), &mut ready);
            self.shard_stats().wakeup();
            let pass_cpu = reactor::thread_cpu_ns();
            for &token in &ready {
                if token == LISTENER {
                    self.listener_ready = true;
                } else {
                    self.queue(token, true);
                }
            }
            let mut progress = self.register_pass();
            progress |= self.route_completions();
            progress |= self.accept_pass();
            progress |= self.conn_pass();
            self.timeout_pass();
            if progress {
                // Busy-time accounting: only passes that did work count,
                // so timer-only wakeups don't dilute the scaling metric.
                self.busy_ns += reactor::thread_cpu_ns().saturating_sub(pass_cpu);
                self.shard_stats().set_busy_ns(self.busy_ns);
            }
            if !self.draining && self.control.draining() {
                self.local_drain();
            }
            if self.draining {
                let expired = self.drain_deadline.is_some_and(|d| Instant::now() >= d);
                if self.conns.is_empty() || expired {
                    break;
                }
            }
        }
        // Account for connections still open at the deadline, plus any
        // that were routed here but never installed.
        while let Ok(_stream) = self.reg_rx.try_recv() {
            self.shard_stats().conn_closed();
        }
        let leftover = self.conns.len();
        self.conns.clear();
        for _ in 0..leftover {
            self.shard_stats().conn_closed();
        }
        self.shard_stats().set_busy_ns(self.busy_ns);
    }

    /// How long the next wait may block: not at all while connections
    /// are queued for a visit, otherwise until the earliest armed timer
    /// (none armed: indefinitely, until an event or a wake).
    fn wait_timeout(&self) -> Option<Duration> {
        if !self.visit.is_empty() {
            return Some(Duration::ZERO);
        }
        let accepting = self.listener.is_some() && !self.draining;
        let backoff = self
            .accept_backoff
            .filter(|_| accepting && self.listener_ready);
        let refill =
            (accepting && !self.pending_accepts.is_empty()).then(|| self.accept_bucket.refill_at());
        [self.conn_timer, self.drain_deadline, backoff, refill]
            .into_iter()
            .flatten()
            .min()
            .map(|due| due.saturating_duration_since(Instant::now()))
    }

    /// Put a connection on the next pass's visit list (once), and note
    /// that its socket may be readable when a poller event says so.
    fn queue(&mut self, id: u64, readable: bool) {
        if let Some(conn) = self.conns.get_mut(&id) {
            conn.readable |= readable;
            if !conn.queued {
                conn.queued = true;
                self.visit.push(id);
            }
        }
    }

    /// Drop a connection's poller registration and balance the gauge
    /// (the caller has removed it from `conns`, closing the socket).
    fn closed(&mut self, id: u64) {
        self.poller.deregister(id);
        self.shard_stats().conn_closed();
    }

    /// Install connections the accepting shard routed here. During a
    /// drain late registrations are dropped (the peer sees a close, the
    /// gauge stays balanced).
    fn register_pass(&mut self) -> bool {
        let mut any = false;
        while let Ok(stream) = self.reg_rx.try_recv() {
            any = true;
            if self.draining {
                self.shard_stats().conn_closed();
                continue;
            }
            self.install(stream);
        }
        any
    }

    /// Register a connection with this shard's poller and visit it on
    /// this pass: bytes may have arrived before registration.
    fn install(&mut self, stream: TcpStream) {
        let id = self.next_id;
        self.next_id += self.reactors as u64;
        if self.poller.register(&stream, id).is_err() {
            // The kernel will not watch it (memory or watch quota): close
            // it like any other failed connection.
            self.closed(id);
            return;
        }
        self.conns.insert(id, Conn::new(stream));
        self.queue(id, true);
    }

    /// Deliver worker completions into their reserved slots. Session
    /// handshake completions pass through [`EventLoop::finish_open`],
    /// which installs or rekeys the session before the reply is encoded.
    /// Workers wake this shard once per delivery, but a single pass here
    /// drains the whole batch.
    fn route_completions(&mut self) -> bool {
        let mut routed = 0u64;
        while let Ok(Completion { conn, slot, reply }) = self.rx.try_recv() {
            routed += 1;
            // Always reclaim the pending-open entry, even when the
            // connection died in the meantime — a dead peer must not
            // leak handshake bookkeeping (and its session is never
            // installed: the client could not have learned the id).
            let pending = self.pending_opens.remove(&(conn, slot));
            // A completion for a connection that died in the meantime is
            // dropped; the job itself was already executed and counted.
            let Some(index) = self.conns.get(&conn).and_then(|c| {
                slot.checked_sub(c.head_slot)
                    .map(|i| i as usize)
                    .filter(|&i| i < c.slots.len() && c.slots[i].is_none())
            }) else {
                continue;
            };
            let response = match pending {
                Some(p) => self.finish_open(p, reply),
                None => reply_to_response(reply),
            };
            let c = self.conns.get_mut(&conn).expect("checked above");
            c.slots[index] = Some(encode(&response));
            c.inflight -= 1;
            c.last_activity = Instant::now();
            self.queue(conn, false);
        }
        if routed > 0 {
            self.shard_stats().completions(routed);
        }
        routed > 0
    }

    /// Turn a completed handshake encaps into a `SessionOpen` reply,
    /// installing a fresh session or advancing the target's epoch.
    fn finish_open(&mut self, pending: PendingOpen, reply: Reply) -> ResponseFrame {
        let (ct, shared) = match reply {
            Reply::Encaps { ct, shared } => (ct, shared),
            Reply::Error(message) => return ResponseFrame::error(message),
            other => {
                return ResponseFrame::error(format!(
                    "internal: unexpected handshake reply {other:?}"
                ))
            }
        };
        let stats = self.pool.metrics().sessions();
        match pending.rekey {
            None => {
                let id = self.next_session_id;
                self.next_session_id += self.reactors as u64;
                if self
                    .sessions
                    .insert(id, SessionState::new(&shared))
                    .is_some()
                {
                    stats.evicted();
                    self.shard_stats().session_closed();
                }
                stats.opened();
                self.shard_stats().session_opened();
                ResponseFrame::ok(session::encode_open_response(id, 0, &ct))
            }
            Some(id) => match self.sessions.get_mut(id) {
                None => ResponseFrame::error(format!(
                    "unknown session {id} (evicted before the rekey completed)"
                )),
                Some(state) => {
                    state.rekey(&shared);
                    let epoch = state.epoch;
                    stats.rekeyed();
                    ResponseFrame::ok(session::encode_open_response(id, epoch, &ct))
                }
            },
        }
    }

    /// Accept whatever the backlog holds, subject to the rate limiter and
    /// the (global) connection cap, and deal the accepted sockets
    /// round-robin across shards. No-op on shards without the listener.
    fn accept_pass(&mut self) -> bool {
        if self.listener.is_none() || self.draining {
            return false;
        }
        let mut progress = false;
        // Admit previously throttled accepts first (FIFO), as tokens refill.
        while !self.pending_accepts.is_empty() && self.accept_bucket.try_take() {
            let stream = self.pending_accepts.pop_front().expect("non-empty");
            self.admit(stream);
            progress = true;
        }
        let now = Instant::now();
        if !self.listener_ready || self.accept_backoff.is_some_and(|t| now < t) {
            return progress;
        }
        self.accept_backoff = None;
        loop {
            let listener = self.listener.as_ref().expect("checked above");
            let stream = match reactor::try_accept(listener) {
                Ok(stream) => stream,
                Err(IoStatus::NotReady) => {
                    // Backlog empty: the next connection is a new event.
                    self.listener_ready = false;
                    break;
                }
                Err(_) => {
                    // Out of descriptors or buffers: the backlog stays
                    // queued, and no new event will announce it.
                    self.accept_backoff = Some(now + ACCEPT_BACKOFF);
                    break;
                }
            };
            progress = true;
            if !self.pending_accepts.is_empty() || !self.accept_bucket.try_take() {
                self.pool.metrics().frontend().accept_throttle();
                if self.pending_accepts.len() < MAX_PENDING_ACCEPTS {
                    self.pending_accepts.push_back(stream);
                } else {
                    // Past the holding cap the connection is
                    // refused outright (dropped = closed).
                    self.pool.metrics().frontend().conn_rejected();
                }
                continue;
            }
            self.admit(stream);
        }
        progress
    }

    /// Admit one accepted socket: enforce the global cap, set the socket
    /// options, pick the owning shard round-robin and hand it over (or
    /// install locally when this shard is the target).
    fn admit(&mut self, stream: TcpStream) {
        // The cap is global (shards close their own connections), so it
        // reads every shard's gauge rather than this shard's map.
        if self.pool.metrics().conns_open() >= self.max_conns {
            // Accept-then-close keeps the backlog moving and makes the
            // rejection observable (and countable) instead of leaving the
            // peer queued behind a full cap.
            self.pool.metrics().frontend().conn_rejected();
            return;
        }
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        // Request/response framing means Nagle + delayed ACK would add
        // ~40 ms to every closed-loop round trip.
        stream.set_nodelay(true).ok();
        let target = self.next_rr % self.reactors;
        self.next_rr += 1;
        self.pool.metrics().shard(target).conn_opened();
        if target == self.shard {
            self.install(stream);
        } else {
            match self.reg_txs[target].send(stream) {
                Ok(()) => self.control.wake(target),
                Err(_) => {
                    // The shard exited (drain lost the race); balance the
                    // gauge and drop the socket.
                    self.pool.metrics().shard(target).conn_closed();
                }
            }
        }
    }

    /// One read + flush round over the queued connections. A connection
    /// left with bytes to read (the fairness bound hit) is queued again,
    /// so the next wait does not block.
    fn conn_pass(&mut self) -> bool {
        let mut progress = false;
        let visit = std::mem::take(&mut self.visit);
        for &id in &visit {
            // Take the connection out of the map so frame handling can
            // borrow the loop (pool, completion channel) mutably.
            let Some(mut conn) = self.conns.remove(&id) else {
                continue;
            };
            conn.queued = false;
            progress |= self.read_conn(id, &mut conn);
            progress |= flush_conn(&mut conn, self.max_write_buffer, self.shard_stats());
            if conn.dead {
                self.closed(id);
                continue;
            }
            if let Some(due) = self.deadlines(&conn).into_iter().flatten().min() {
                self.conn_timer = Some(self.conn_timer.map_or(due, |t| t.min(due)));
            }
            let again = conn.read_pending() && !self.draining;
            self.conns.insert(id, conn);
            if again {
                self.queue(id, false);
            }
        }
        // Keep the list's allocation when nothing was queued meanwhile.
        if self.visit.is_empty() {
            self.visit = visit;
            self.visit.clear();
        }
        progress
    }

    /// Read and process frames from one connection until the socket runs
    /// dry, the fairness bound hits, or backpressure pauses it.
    fn read_conn(&mut self, id: u64, conn: &mut Conn) -> bool {
        if conn.dead || conn.closing || conn.paused || self.draining {
            return false;
        }
        let mut progress = false;
        let mut buf = [0u8; READ_CHUNK];
        for _ in 0..READ_ROUNDS {
            match reactor::try_read(&mut conn.stream, &mut buf) {
                IoStatus::Ready(n) => {
                    progress = true;
                    let now = Instant::now();
                    conn.last_activity = now;
                    conn.decoder.feed(&buf[..n]);
                    loop {
                        match conn.decoder.next_frame() {
                            Ok(Some(frame)) => self.handle_frame(id, conn, frame),
                            Ok(None) => break,
                            Err(_) => {
                                // Framing is lost; there is no safe way to
                                // reply on an unsynchronized stream.
                                conn.dead = true;
                                return true;
                            }
                        }
                    }
                    if conn.decoder.has_partial() {
                        conn.partial_since.get_or_insert(now);
                    } else {
                        conn.partial_since = None;
                    }
                    if conn.closing || conn.dead {
                        return true;
                    }
                    if n < buf.len() {
                        // A short read took everything queued; bytes
                        // arriving later are a new event.
                        conn.readable = false;
                        break;
                    }
                }
                IoStatus::NotReady => {
                    conn.readable = false;
                    break;
                }
                IoStatus::Closed => {
                    // Peer EOF: flush what we owe, then close.
                    conn.closing = true;
                    return true;
                }
                IoStatus::Failed => {
                    conn.dead = true;
                    return true;
                }
            }
        }
        progress
    }

    /// Dispatch one decoded request frame.
    fn handle_frame(&mut self, id: u64, conn: &mut Conn, frame: RequestFrame) {
        match frame.opcode {
            Opcode::Ping => conn.push_ready(&ResponseFrame::ok(b"pong".to_vec())),
            Opcode::Stats => {
                conn.push_ready(&ResponseFrame::ok(
                    self.pool.snapshot().to_json().into_bytes(),
                ));
            }
            Opcode::Shutdown => {
                conn.push_ready(&ResponseFrame::ok(b"bye".to_vec()));
                conn.closing = true;
                // Any shard can receive the shutdown: raise the shared
                // flag (waking the others), then drain locally right away
                // so the rest of this pass already observes it.
                self.control.request_drain();
                self.local_drain();
            }
            Opcode::Keygen | Opcode::Encaps | Opcode::Decaps => {
                self.submit_frame(id, conn, &frame);
            }
            Opcode::SessionOpen => self.session_open(id, conn, &frame),
            Opcode::SessionMsg => self.session_msg(conn, &frame, false),
            Opcode::SessionClose => self.session_msg(conn, &frame, true),
        }
    }

    /// Start a session handshake (fresh open or rekey): validate the
    /// request inline, then put the encaps on the pool under the frame's
    /// seq so the handshake result is worker-count-independent.
    fn session_open(&mut self, id: u64, conn: &mut Conn, frame: &RequestFrame) {
        let Some(params) = params_from_code(frame.params_code) else {
            conn.push_ready(&ResponseFrame::error(format!(
                "unknown params code {}",
                frame.params_code
            )));
            return;
        };
        let Some(backend) = BackendKind::from_code(frame.backend_code) else {
            conn.push_ready(&ResponseFrame::error(format!(
                "unknown backend code {}",
                frame.backend_code
            )));
            return;
        };
        let decoded = session::decode_open_request(&frame.payload, params.public_key_bytes());
        let (target, pk, tag) = match decoded {
            Ok(parts) => parts,
            Err(message) => {
                conn.push_ready(&ResponseFrame::error(message));
                return;
            }
        };
        let rekey = if target == 0 {
            None
        } else {
            // Authenticate the rekey against the session's *current*
            // epoch before spending pool work on it. A failure leaves
            // the session open: the frame never carried valid traffic.
            // A session owned by another shard is simply unknown here —
            // session state never migrates.
            let Some(state) = self.sessions.get_mut(target) else {
                conn.push_ready(&ResponseFrame::error(format!("unknown session {target}")));
                return;
            };
            let want = session::rekey_tag(&state.keys.to_server, target, state.epoch, pk);
            let tag = tag.expect("decode_open_request guarantees a tag for non-zero targets");
            if !session::ct_eq(&want, &tag) {
                self.pool.metrics().sessions().tag_failure_kept();
                conn.push_ready(&ResponseFrame::error(format!(
                    "rekey authenticator mismatch for session {target}"
                )));
                return;
            }
            Some(target)
        };
        let job = Job::new(
            frame.seq,
            params,
            backend,
            JobKind::Encaps { pk: pk.to_vec() },
        );
        let slot = conn.push_pending();
        let sink = ReplySink::Routed {
            conn: id,
            slot,
            tx: self.tx.clone(),
            wake: self.poller.waker(),
        };
        match self.pool.try_submit(job, sink) {
            Ok(()) => {
                self.pending_opens.insert((id, slot), PendingOpen { rekey });
            }
            Err(SubmitError::Full) => {
                self.pool.metrics().frontend().shed();
                conn.fill_last(&ResponseFrame::busy());
            }
            Err(SubmitError::Closed) => {
                conn.fill_last(&ResponseFrame::error("server is shutting down"));
            }
        }
    }

    /// Handle a sealed session frame inline (symmetric crypto only, no
    /// pool round trip). `close` distinguishes `SessionClose` (tears the
    /// session down on success) from `SessionMsg` (echoes the plaintext
    /// sealed server→client).
    ///
    /// Policy on failure: a **tag mismatch closes the session** (its key
    /// material cannot be trusted any further) but never the connection;
    /// replay/ordering and epoch violations drop the frame and keep the
    /// session, since the frame may simply be stale.
    fn session_msg(&mut self, conn: &mut Conn, frame: &RequestFrame, close: bool) {
        let parsed = match SessionFrame::decode(&frame.payload) {
            Ok(parsed) => parsed,
            Err(message) => {
                conn.push_ready(&ResponseFrame::error(message));
                return;
            }
        };
        let stats = self.pool.metrics().sessions();
        let id = parsed.session_id;
        let Some(state) = self.sessions.get_mut(id) else {
            conn.push_ready(&ResponseFrame::error(format!("unknown session {id}")));
            return;
        };
        let Some(keys) = state.accept_keys(parsed.epoch) else {
            stats.replay_drop();
            conn.push_ready(&ResponseFrame::error(format!(
                "session {id}: epoch {} is outside the accept window (current {})",
                parsed.epoch, state.epoch
            )));
            return;
        };
        let Some(plain) = session::open(&keys.to_server, Direction::ToServer, &parsed) else {
            self.sessions.remove(id);
            self.pool.metrics().sessions().tag_failure_closed();
            self.shard_stats().session_closed();
            conn.push_ready(&ResponseFrame::error(format!(
                "session {id}: tag mismatch (session closed)"
            )));
            return;
        };
        if parsed.seq != state.recv_seq {
            stats.replay_drop();
            conn.push_ready(&ResponseFrame::error(format!(
                "session {id}: seq {} replayed or reordered (expected {})",
                parsed.seq, state.recv_seq
            )));
            return;
        }
        if close {
            self.sessions.remove(id);
            self.pool.metrics().sessions().closed();
            self.shard_stats().session_closed();
            conn.push_ready(&ResponseFrame::ok(Vec::new()));
            return;
        }
        if self.session_rekey_after > 0 && state.msgs_in_epoch >= self.session_rekey_after {
            conn.push_ready(&ResponseFrame::error(format!(
                "session {id}: rekey required after {} messages in epoch {}",
                state.msgs_in_epoch, state.epoch
            )));
            return;
        }
        state.recv_seq += 1;
        state.msgs_in_epoch += 1;
        // Echo under the *current* epoch regardless of which epoch the
        // request used: replies leave in request order, so the client has
        // already applied any rekey by the time it reads this.
        let echo = session::seal(
            &state.keys.to_client,
            Direction::ToClient,
            id,
            state.epoch,
            state.send_seq,
            &plain,
        );
        state.send_seq += 1;
        stats.message();
        conn.push_ready(&ResponseFrame::ok(echo));
    }

    /// Reserve a reply slot and hand a KEM frame to the pool; shed with
    /// `BUSY` when the queue is full instead of blocking the shard.
    fn submit_frame(&mut self, id: u64, conn: &mut Conn, frame: &RequestFrame) {
        let job = match frame_to_job(frame) {
            Ok(job) => job,
            Err(message) => {
                conn.push_ready(&ResponseFrame::error(message));
                return;
            }
        };
        let slot = conn.push_pending();
        let sink = ReplySink::Routed {
            conn: id,
            slot,
            tx: self.tx.clone(),
            wake: self.poller.waker(),
        };
        match self.pool.try_submit(job, sink) {
            Ok(()) => {}
            Err(SubmitError::Full) => {
                self.pool.metrics().frontend().shed();
                conn.fill_last(&ResponseFrame::busy());
            }
            Err(SubmitError::Closed) => {
                conn.fill_last(&ResponseFrame::error("server is shutting down"));
            }
        }
    }

    /// A connection's armed deadlines in reap-priority order: mid-frame
    /// read, write progress, idle (only while it owes nothing).
    fn deadlines(&self, conn: &Conn) -> [Option<Instant>; 3] {
        let idle = conn.slots.is_empty() && conn.wbuf_len == 0 && !conn.closing;
        [
            self.read_timeout
                .zip(conn.partial_since)
                .map(|(t, s)| s + t),
            self.write_timeout
                .zip(conn.write_stalled_since)
                .map(|(t, s)| s + t),
            self.idle_timeout
                .filter(|_| idle)
                .map(|t| conn.last_activity + t),
        ]
    }

    /// Enforce idle / read / write timeouts over this shard's connections
    /// once the earliest armed deadline is due: reap the losers and re-arm
    /// for the earliest survivor. A deadline is armed whenever a visit
    /// leaves one set, so this full scan runs about once per timeout
    /// period rather than per pass.
    fn timeout_pass(&mut self) {
        let now = Instant::now();
        if !self.conn_timer.is_some_and(|t| now >= t) {
            return;
        }
        let frontend = self.pool.metrics().frontend();
        let mut next: Option<Instant> = None;
        let mut reap = Vec::new();
        for (&id, conn) in &self.conns {
            let [read, write, idle] = self.deadlines(conn);
            if read.is_some_and(|d| now >= d) {
                frontend.timeout_read();
                reap.push(id);
            } else if write.is_some_and(|d| now >= d) {
                frontend.timeout_write();
                reap.push(id);
            } else if idle.is_some_and(|d| now >= d) {
                frontend.timeout_idle();
                reap.push(id);
            } else if let Some(due) = [read, write, idle].into_iter().flatten().min() {
                next = Some(next.map_or(due, |n| n.min(due)));
            }
        }
        self.conn_timer = next;
        for id in reap {
            self.conns.remove(&id);
            self.closed(id);
        }
    }

    /// Enter this shard's graceful drain: stop accepting (if it owns the
    /// listener), stop reading, let in-flight work complete and flush.
    /// Triggered by a local `SHUTDOWN` frame or by another shard's via
    /// the shared flag — each shard runs its own deadline, so no shard
    /// assumes it can observe the others' connections.
    fn local_drain(&mut self) {
        if self.draining {
            return;
        }
        self.draining = true;
        self.drain_deadline = Some(Instant::now() + Duration::from_millis(self.drain_ms));
        self.pending_accepts.clear();
        // Visit every connection once: those owing nothing close now.
        let ids: Vec<u64> = self.conns.keys().copied().collect();
        for id in ids {
            if let Some(conn) = self.conns.get_mut(&id) {
                conn.closing = true;
            }
            self.queue(id, false);
        }
    }
}

/// Promote completed reply slots into the write queue (strictly in
/// request order) and drain the queue's ready prefix through vectored
/// writes — one syscall for up to [`MAX_WRITE_IOV`] frames; manage
/// backpressure and close-after-flush.
fn flush_conn(conn: &mut Conn, max_write_buffer: usize, shard: &ShardStats) -> bool {
    if conn.dead {
        return false;
    }
    while matches!(conn.slots.front(), Some(Some(_))) {
        let bytes = conn.slots.pop_front().flatten().expect("front is ready");
        conn.head_slot += 1;
        conn.wbuf_len += bytes.len();
        conn.wqueue.push_back(bytes);
    }
    let mut progress = false;
    while conn.wbuf_len > 0 {
        let mut slices: Vec<IoSlice> = Vec::with_capacity(conn.wqueue.len().min(MAX_WRITE_IOV));
        for (i, frame) in conn.wqueue.iter().take(MAX_WRITE_IOV).enumerate() {
            let start = if i == 0 { conn.woff } else { 0 };
            slices.push(IoSlice::new(&frame[start..]));
        }
        match reactor::try_write_vectored(&mut conn.stream, &slices) {
            IoStatus::Ready(mut n) => {
                progress = true;
                conn.wbuf_len -= n;
                let mut retired = 0u64;
                while n > 0 {
                    let remaining =
                        conn.wqueue.front().expect("bytes imply a frame").len() - conn.woff;
                    if n >= remaining {
                        n -= remaining;
                        conn.woff = 0;
                        conn.wqueue.pop_front();
                        retired += 1;
                    } else {
                        conn.woff += n;
                        n = 0;
                    }
                }
                shard.writev(retired);
                conn.write_stalled_since = None;
                conn.last_activity = Instant::now();
            }
            IoStatus::NotReady => {
                conn.write_stalled_since.get_or_insert_with(Instant::now);
                break;
            }
            IoStatus::Closed | IoStatus::Failed => {
                conn.dead = true;
                return progress;
            }
        }
    }
    if conn.wbuf_len == 0 {
        conn.write_stalled_since = None;
    }
    if conn.paused {
        if conn.wbuf_len <= max_write_buffer / 2 {
            conn.paused = false;
        }
    } else if conn.wbuf_len > max_write_buffer {
        conn.paused = true;
    }
    if conn.closing && conn.wbuf_len == 0 && conn.slots.is_empty() {
        conn.dead = true;
    }
    progress
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use crate::{params_code, BackendKind};
    use lac::Params;
    use std::io::{BufReader, Read, Write};

    fn spawn_with(config: ServeConfig) -> (SocketAddr, std::thread::JoinHandle<MetricsSnapshot>) {
        let server = Server::bind("127.0.0.1:0", config).expect("bind");
        let addr = server.local_addr().expect("addr");
        (addr, std::thread::spawn(move || server.run()))
    }

    fn spawn_server(workers: usize) -> (SocketAddr, std::thread::JoinHandle<MetricsSnapshot>) {
        spawn_with(ServeConfig {
            workers,
            queue_capacity: 8,
            seed: [3u8; 32],
            ..ServeConfig::default()
        })
    }

    #[test]
    fn full_protocol_over_tcp() {
        let (addr, handle) = spawn_server(2);
        let mut client = Client::connect(&addr.to_string()).expect("connect");
        let params = Params::lac128();

        assert!(client.ping().is_ok());

        let (pk, sk) = client.keygen(&params, BackendKind::Ct, 1).expect("keygen");
        assert_eq!(pk.len(), params.public_key_bytes());
        assert_eq!(sk.len(), params.kem_secret_key_bytes());

        let (ct, shared) = client
            .encaps(&params, BackendKind::Ct, 2, &pk)
            .expect("encaps");
        assert_eq!(ct.len(), params.ciphertext_bytes());

        let shared2 = client
            .decaps(&params, BackendKind::Ct, 3, &sk, &ct)
            .expect("decaps");
        assert_eq!(shared, shared2);

        // Cross-backend: hw decapsulates what ct produced.
        let shared3 = client
            .decaps(&params, BackendKind::Hw, 4, &sk, &ct)
            .expect("hw decaps");
        assert_eq!(shared, shared3);

        let stats = client.stats().expect("stats");
        assert!(stats.contains("\"decaps\": 2"), "{stats}");
        assert!(stats.contains("\"errors\": 0"), "{stats}");
        assert!(stats.contains("\"conns_open\": 1"), "{stats}");
        assert!(stats.contains("\"reactors\": 1"), "{stats}");

        client.shutdown().expect("shutdown");
        let final_snapshot = handle.join().expect("server thread");
        assert_eq!(final_snapshot.requests[0], 1);
        assert_eq!(final_snapshot.errors, 0);
        assert_eq!(final_snapshot.frontend.conns_accepted, 1);
        assert_eq!(final_snapshot.frontend.conns_open, 0);
        // Every reply frame left through a vectored flush.
        assert!(final_snapshot.frontend.writev_calls >= 1);
        assert!(final_snapshot.frontend.frames_flushed >= 6);
    }

    #[test]
    fn malformed_requests_get_error_responses_not_disconnects() {
        let (addr, handle) = spawn_server(1);
        let mut client = Client::connect(&addr.to_string()).expect("connect");
        let params = Params::lac128();

        // Garbage public key → error reply, connection stays usable.
        let err = client
            .encaps(&params, BackendKind::Ct, 1, &[1, 2, 3])
            .unwrap_err();
        assert!(err.contains("bad public key"), "{err}");

        // Unknown backend code at the frame level.
        let frame = RequestFrame {
            opcode: Opcode::Keygen,
            params_code: params_code(&params),
            backend_code: 99,
            seq: 0,
            payload: Vec::new(),
        };
        let resp = client.request(&frame).expect("transport ok");
        assert!(resp
            .error_message()
            .expect("is error")
            .contains("backend code"));

        // Still alive.
        assert!(client.ping().is_ok());
        client.shutdown().expect("shutdown");
        let snap = handle.join().expect("server");
        // The garbage-pk job reached the pool and was counted as an error.
        assert_eq!(snap.errors, 1);
    }

    #[test]
    fn concurrent_connections_are_served() {
        let (addr, handle) = spawn_server(2);
        let clients: Vec<_> = (0..3u64)
            .map(|c| {
                let addr = addr.to_string();
                std::thread::spawn(move || {
                    let mut client = Client::connect(&addr).expect("connect");
                    let params = Params::lac128();
                    let (pk, _) = client
                        .keygen(&params, BackendKind::Ct, 100 + c)
                        .expect("keygen");
                    client
                        .encaps(&params, BackendKind::Ct, 200 + c, &pk)
                        .expect("encaps")
                })
            })
            .collect();
        let results: Vec<_> = clients.into_iter().map(|c| c.join().unwrap()).collect();
        // Distinct seqs (and distinct keys) → distinct shared secrets.
        assert_ne!(results[0].1, results[1].1);
        let mut ctl = Client::connect(&addr.to_string()).expect("connect");
        ctl.shutdown().expect("shutdown");
        let snap = handle.join().expect("server");
        assert_eq!(snap.requests[0], 3);
        assert_eq!(snap.requests[1], 3);
    }

    #[test]
    fn pipelined_requests_reply_in_request_order() {
        let (addr, handle) = spawn_server(4);
        let params = Params::lac128();
        let keygen = |params_code, seq| RequestFrame {
            opcode: Opcode::Keygen,
            params_code,
            backend_code: BackendKind::Ct.code(),
            seq,
            payload: Vec::new(),
        };
        // Fire 6 keygen frames, with a bad-params keygen in the middle,
        // without reading a single response: the reply slots must
        // serialize them back in request order even though 4 workers race
        // on the jobs, and the bad frame's error must fill its own slot.
        let mut frames: Vec<_> = (1..=6u64)
            .map(|seq| keygen(params_code(&params), seq))
            .collect();
        frames.insert(3, keygen(99, 7));
        let mut stream = TcpStream::connect(addr).expect("connect");
        for frame in &frames {
            wire::write_request(&mut stream, frame).expect("send");
        }
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut keys = Vec::new();
        for index in 0..frames.len() {
            let frame = wire::read_response(&mut reader).expect("reply");
            if index == 3 {
                assert!(frame
                    .error_message()
                    .expect("bad params code fails")
                    .contains("parameter-set"));
            } else {
                assert!(frame.error_message().is_none(), "slot {index}");
                keys.push(frame.payload);
            }
        }
        // Same lanes through a fresh connection → identical bytes in the
        // same order (per-connection reply order is request order).
        drop(reader);
        let mut client = Client::connect(&addr.to_string()).expect("connect");
        for (i, seq) in (1..=6u64).enumerate() {
            let (pk, sk) = client
                .keygen(&params, BackendKind::Ct, seq)
                .expect("keygen");
            let mut joined = pk;
            joined.extend_from_slice(&sk);
            assert_eq!(joined, keys[i], "slot {i} out of order");
        }
        client.shutdown().expect("shutdown");
        let snap = handle.join().expect("server");
        // 6 pipelined + 6 replayed keygens reached the pool; the bad
        // frame never consumed a pool slot.
        assert_eq!(snap.requests[0], 12);
    }

    #[test]
    fn idle_timeout_reaps_quiet_connections() {
        let (addr, handle) = spawn_with(ServeConfig {
            workers: 1,
            queue_capacity: 8,
            seed: [3u8; 32],
            idle_timeout_ms: 50,
            ..ServeConfig::default()
        });
        let mut idle = Client::connect(&addr.to_string()).expect("connect");
        assert!(idle.ping().is_ok());
        // Go quiet past the timeout: the server closes us.
        std::thread::sleep(Duration::from_millis(400));
        assert!(idle.ping().is_err(), "idle connection must be reaped");
        let mut ctl = Client::connect(&addr.to_string()).expect("connect");
        ctl.shutdown().expect("shutdown");
        let snap = handle.join().expect("server");
        assert!(snap.frontend.timeouts_idle >= 1, "{:?}", snap.frontend);
    }

    #[test]
    fn read_timeout_reaps_a_half_frame_on_a_silent_shard() {
        let (addr, handle) = spawn_with(ServeConfig {
            workers: 1,
            queue_capacity: 8,
            seed: [3u8; 32],
            read_timeout_ms: 50,
            ..ServeConfig::default()
        });
        // Half a request header, then silence: nothing else reaches the
        // server, so only the shard's own read deadline can wake it.
        let mut frame = Vec::new();
        wire::write_request(
            &mut frame,
            &RequestFrame {
                opcode: Opcode::Ping,
                params_code: 0,
                backend_code: 0,
                seq: 0,
                payload: Vec::new(),
            },
        )
        .expect("encode");
        let mut stalled = TcpStream::connect(addr).expect("connect");
        stalled
            .write_all(&frame[..frame.len() / 2])
            .expect("half a frame");
        stalled
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("read timeout");
        let mut byte = [0u8; 1];
        let reaped = match stalled.read(&mut byte) {
            Ok(0) => true,
            Ok(_) => false,
            Err(e) => e.kind() == std::io::ErrorKind::ConnectionReset,
        };
        assert!(reaped, "the half-frame connection must be closed");
        let mut ctl = Client::connect(&addr.to_string()).expect("connect");
        ctl.shutdown().expect("shutdown");
        let snap = handle.join().expect("server");
        assert!(snap.frontend.timeouts_read >= 1, "{:?}", snap.frontend);
    }

    #[test]
    fn throttled_accepts_are_admitted_as_tokens_refill() {
        let (addr, handle) = spawn_with(ServeConfig {
            workers: 1,
            queue_capacity: 8,
            seed: [3u8; 32],
            accept_rps: 2,
            ..ServeConfig::default()
        });
        // Five back-to-back connects, each with a ping queued: two fit the
        // bucket's burst, the rest wait on the refill timer alone (no
        // other traffic arrives to wake the shard).
        let ping = RequestFrame {
            opcode: Opcode::Ping,
            params_code: 0,
            backend_code: 0,
            seq: 0,
            payload: Vec::new(),
        };
        let mut streams: Vec<TcpStream> = (0..5)
            .map(|_| {
                let mut stream = TcpStream::connect(addr).expect("connect");
                wire::write_request(&mut stream, &ping).expect("send ping");
                stream
                    .set_read_timeout(Some(Duration::from_secs(10)))
                    .expect("read timeout");
                stream
            })
            .collect();
        for (i, stream) in streams.iter_mut().enumerate() {
            let frame = wire::read_response(stream).expect("pong");
            assert_eq!(frame.payload, b"pong", "connection {i}");
        }
        let mut ctl = Client::connect(&addr.to_string()).expect("connect");
        ctl.shutdown().expect("shutdown");
        let snap = handle.join().expect("server");
        assert!(snap.frontend.accept_throttled >= 1, "{:?}", snap.frontend);
        assert_eq!(snap.frontend.conns_open, 0);
    }

    #[test]
    fn backpressure_pauses_reading_and_resumes_once_the_peer_drains() {
        let (addr, handle) = spawn_with(ServeConfig {
            workers: 1,
            queue_capacity: 8,
            seed: [3u8; 32],
            max_write_buffer: 16 * 1024,
            ..ServeConfig::default()
        });
        // Pipeline far more STATS replies (over 1 KB each) than the
        // socket buffers hold, without reading: the server's write queue
        // passes max_write_buffer and it stops reading this connection.
        // Once we drain, it must resume reading requests that arrived
        // while it was paused — no new input event will announce them.
        const REQUESTS: usize = 16_000;
        let mut frame = Vec::new();
        wire::write_request(
            &mut frame,
            &RequestFrame {
                opcode: Opcode::Stats,
                params_code: 0,
                backend_code: 0,
                seq: 0,
                payload: Vec::new(),
            },
        )
        .expect("encode");
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(20)))
            .expect("read timeout");
        let mut writer = stream.try_clone().expect("clone");
        let sender = std::thread::spawn(move || writer.write_all(&frame.repeat(REQUESTS)));
        // Only makes the pause likely; every reply must arrive either way.
        std::thread::sleep(Duration::from_millis(200));
        let mut reader = BufReader::new(stream);
        for i in 0..REQUESTS {
            let reply = wire::read_response(&mut reader).expect("stats reply");
            assert!(reply.error_message().is_none(), "reply {i}");
        }
        sender.join().expect("sender").expect("requests sent");
        drop(reader);
        let mut ctl = Client::connect(&addr.to_string()).expect("connect");
        ctl.shutdown().expect("shutdown");
        let snap = handle.join().expect("server");
        assert!(
            snap.frontend.frames_flushed > REQUESTS as u64,
            "{:?}",
            snap.frontend
        );
    }

    /// A shard with nothing due blocks in its poller: one idle connection
    /// under the default timeouts costs no periodic wakeups.
    #[cfg(all(
        target_os = "linux",
        any(
            target_arch = "x86_64",
            target_arch = "aarch64",
            target_arch = "riscv64"
        )
    ))]
    #[test]
    fn an_idle_shard_does_not_wake() {
        let (addr, handle) = spawn_with(ServeConfig {
            workers: 1,
            queue_capacity: 8,
            seed: [3u8; 32],
            ..ServeConfig::default()
        });
        let mut client = Client::connect(&addr.to_string()).expect("connect");
        assert!(client.ping().is_ok());
        let wakeups = |client: &mut Client| {
            let stats = client.stats().expect("stats");
            let key = "\"shard_wakeups\": ";
            let at = stats.find(key).expect("wakeups key") + key.len();
            let digits: String = stats[at..]
                .chars()
                .take_while(char::is_ascii_digit)
                .collect();
            digits.parse::<u64>().expect("wakeups value")
        };
        let before = wakeups(&mut client);
        std::thread::sleep(Duration::from_millis(300));
        let after = wakeups(&mut client);
        // The second STATS request itself is one wakeup.
        assert!(
            after - before <= 5,
            "idle shard woke {} times in 300 ms",
            after - before
        );
        client.shutdown().expect("shutdown");
        handle.join().expect("server");
    }

    #[test]
    fn bind_refuses_sizes_it_cannot_run() {
        // Checked on `bind` itself: a lost check returns a server here, so
        // the test fails instead of waiting on one that runs.
        let ok = ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        };
        type Shrink = fn(&mut ServeConfig);
        let cases: [(&str, Shrink); 7] = [
            ("workers", |c| c.workers = 0),
            ("reactors", |c| c.reactors = 0),
            ("queue_capacity", |c| c.queue_capacity = 0),
            ("max_conns", |c| c.max_conns = 0),
            ("max_write_buffer", |c| c.max_write_buffer = 0),
            ("session_capacity", |c| c.session_capacity = 0),
            ("session_capacity", |c| {
                (c.session_capacity, c.reactors) = (1, 2)
            }),
        ];
        for (field, shrink) in cases {
            let mut config = ok.clone();
            shrink(&mut config);
            match Server::bind("127.0.0.1:0", config) {
                Ok(_) => panic!("{field}: bound a server it cannot run"),
                Err(err) => {
                    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{field}");
                    assert!(
                        err.to_string().starts_with(&format!("{field} is ")),
                        "{err}"
                    );
                }
            }
        }
        assert!(Server::bind("127.0.0.1:0", ok).is_ok());
    }

    #[test]
    fn max_conns_cap_rejects_excess_connections() {
        // With two reactors the cap counts connections on both shards:
        // the first two land one per shard, and the third is rejected.
        for (reactors, max_conns) in [(1, 1), (2, 2)] {
            let (addr, handle) = spawn_with(ServeConfig {
                workers: 1,
                reactors,
                queue_capacity: 8,
                seed: [3u8; 32],
                max_conns,
                ..ServeConfig::default()
            });
            let mut admitted: Vec<Client> = (0..max_conns)
                .map(|_| {
                    let mut c = Client::connect(&addr.to_string()).expect("connect");
                    assert!(c.ping().is_ok());
                    c
                })
                .collect();
            // Over the cap: accepted then immediately closed — the ping
            // round trip fails instead of hanging.
            let mut excess = Client::connect(&addr.to_string()).expect("tcp connect");
            assert!(
                excess.ping().is_err(),
                "cap {max_conns} must reject the next conn ({reactors} reactors)"
            );
            admitted[0].shutdown().expect("shutdown");
            let snap = handle.join().expect("server");
            assert!(snap.frontend.conns_rejected >= 1, "{:?}", snap.frontend);
            assert_eq!(snap.frontend.conns_accepted, max_conns as u64);
            assert_eq!(snap.frontend.conns_open, 0);
        }
    }

    #[test]
    fn shards_deal_connections_round_robin() {
        let (addr, handle) = spawn_with(ServeConfig {
            workers: 1,
            reactors: 2,
            queue_capacity: 8,
            seed: [3u8; 32],
            ..ServeConfig::default()
        });
        // Four sequential connections land two per shard.
        let mut clients: Vec<Client> = (0..4)
            .map(|_| {
                let mut c = Client::connect(&addr.to_string()).expect("connect");
                // Round-trip before the next connect so accept order (and
                // thus the round-robin deal) is deterministic.
                assert!(c.ping().is_ok());
                c
            })
            .collect();
        let stats = clients[0].stats().expect("stats");
        assert!(stats.contains("\"reactors\": 2"), "{stats}");
        clients[0].shutdown().expect("shutdown");
        let snap = handle.join().expect("server");
        assert_eq!(snap.reactors, 2);
        assert_eq!(snap.shards.len(), 2);
        assert_eq!(snap.shards[0].conns_accepted, 2, "{:?}", snap.shards);
        assert_eq!(snap.shards[1].conns_accepted, 2, "{:?}", snap.shards);
        assert_eq!(snap.frontend.conns_open, 0);
        assert_eq!(snap.shards[0].conns_open, 0);
        assert_eq!(snap.shards[1].conns_open, 0);
    }

    #[test]
    fn shutdown_on_a_secondary_shard_drains_every_shard() {
        let (addr, handle) = spawn_with(ServeConfig {
            workers: 2,
            reactors: 3,
            queue_capacity: 8,
            seed: [3u8; 32],
            ..ServeConfig::default()
        });
        // conn A → shard 0, conn B → shard 1: work runs on shard 0, the
        // shutdown arrives on shard 1, and shard 0 must still drain.
        let mut a = Client::connect(&addr.to_string()).expect("connect A");
        let params = Params::lac128();
        let (pk, _) = a.keygen(&params, BackendKind::Ct, 7).expect("keygen");
        let mut b = Client::connect(&addr.to_string()).expect("connect B");
        assert!(a.encaps(&params, BackendKind::Ct, 8, &pk).is_ok());
        b.shutdown().expect("shutdown via shard 1");
        let snap = handle.join().expect("server");
        assert_eq!(snap.requests[0], 1);
        assert_eq!(snap.requests[1], 1);
        assert_eq!(snap.frontend.conns_open, 0, "all shards drained");
        assert_eq!(snap.shards.len(), 3);
        for shard in &snap.shards {
            assert_eq!(shard.conns_open, 0, "{shard:?}");
        }
    }

    #[test]
    fn idle_timeout_reaps_on_every_shard() {
        let (addr, handle) = spawn_with(ServeConfig {
            workers: 1,
            reactors: 2,
            queue_capacity: 8,
            seed: [3u8; 32],
            idle_timeout_ms: 50,
            ..ServeConfig::default()
        });
        // One idle connection per shard; both must be reaped by their
        // owning shard's timeout scan.
        let mut first = Client::connect(&addr.to_string()).expect("connect");
        assert!(first.ping().is_ok());
        let mut second = Client::connect(&addr.to_string()).expect("connect");
        assert!(second.ping().is_ok());
        std::thread::sleep(Duration::from_millis(400));
        assert!(first.ping().is_err(), "shard-0 conn must be reaped");
        assert!(second.ping().is_err(), "shard-1 conn must be reaped");
        let mut ctl = Client::connect(&addr.to_string()).expect("connect");
        ctl.shutdown().expect("shutdown");
        let snap = handle.join().expect("server");
        assert!(snap.frontend.timeouts_idle >= 2, "{:?}", snap.frontend);
        assert_eq!(snap.frontend.conns_open, 0);
    }

    #[test]
    fn pipelined_replies_coalesce_into_vectored_flushes() {
        let (addr, handle) = spawn_server(1);
        // 8 pings fired without reading: the replies queue behind the
        // slow first read and should retire in far fewer writev calls
        // than frames.
        let mut stream = TcpStream::connect(addr).expect("connect");
        for seq in 0..8u64 {
            wire::write_request(
                &mut stream,
                &RequestFrame {
                    opcode: Opcode::Ping,
                    params_code: 0,
                    backend_code: 0,
                    seq,
                    payload: Vec::new(),
                },
            )
            .expect("send");
        }
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        for _ in 0..8 {
            let frame = wire::read_response(&mut reader).expect("pong");
            assert_eq!(frame.payload, b"pong");
        }
        drop(reader);
        drop(stream);
        let mut ctl = Client::connect(&addr.to_string()).expect("connect");
        ctl.shutdown().expect("shutdown");
        let snap = handle.join().expect("server");
        // 8 pongs + the control connection's shutdown ack.
        assert!(snap.frontend.frames_flushed >= 9, "{:?}", snap.frontend);
        // Coalescing must beat one-syscall-per-frame: the 8 pipelined
        // pongs arrive in the same pass and leave in one flush.
        assert!(
            snap.frontend.writev_calls < snap.frontend.frames_flushed,
            "writev {} !< frames {}",
            snap.frontend.writev_calls,
            snap.frontend.frames_flushed,
        );
    }
}
