//! A minimal std-only readiness layer for the event-driven server.
//!
//! - [`Poller`] / [`Waker`] are one reactor shard's readiness source. On
//!   Linux the poller is an `epoll` set plus an `eventfd`, declared
//!   `extern "C"` against the libc that std already links, so the
//!   workspace stays free of crate dependencies. Every socket is
//!   registered once, edge-triggered for input and output, when it joins
//!   the shard: the kernel then reports it again only when new bytes
//!   arrive, the peer hangs up, or a send buffer that had filled drains,
//!   so a shard pass visits exactly the sockets that had an event and no
//!   pass calls `epoll_ctl`. [`Poller::wait`] blocks until an event, a
//!   [`Waker::wake`] or the caller's timeout — the shard's earliest armed
//!   deadline, or none at all. [`Waker::wake`] writes the eventfd and is
//!   not tied to a thread: a shard's poller and waker are built before
//!   the shard thread exists, and any thread holding the waker — pool
//!   workers finishing a routed job, the accepting shard routing a
//!   connection, a drain broadcast — wakes exactly that shard. A wake
//!   sent before the wait is kept by the eventfd's counter, so a wakeup
//!   raced against the shard's own pass is never lost. Other hosts keep
//!   the timed-park fallback behind the same interface: the wait parks
//!   for at most 1 ms (or until woken) and then reports every registered
//!   socket ready, so readiness is found by attempt as before.
//! - [`try_read`] / [`try_write_vectored`] / [`try_accept`] classify
//!   nonblocking socket results into an [`IoStatus`] the connection state
//!   machine can match on (`Ready` / `NotReady` / `Closed` / `Failed`).
//!   They retry `EINTR` themselves: under edge triggering an attempt that
//!   a signal cut short would never be reported again. The vectored form
//!   lets a shard flush many queued reply frames in one syscall.
//! - [`TokenBucket`] meters the accept rate and says when its next token
//!   is due, which the shard arms as a timer.
//! - [`thread_cpu_ns`] reads the calling thread's CPU clock, the basis of
//!   per-shard busy-time accounting (front-end scaling numbers).

use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

#[cfg(all(
    target_os = "linux",
    any(
        target_arch = "x86_64",
        target_arch = "aarch64",
        target_arch = "riscv64"
    )
))]
pub use epoll::{Poller, Waker};
#[cfg(not(all(
    target_os = "linux",
    any(
        target_arch = "x86_64",
        target_arch = "aarch64",
        target_arch = "riscv64"
    )
)))]
pub use park::{Poller, Waker};

/// Outcome of one nonblocking socket attempt.
#[derive(Debug)]
pub enum IoStatus {
    /// The operation moved `n > 0` bytes (or accepted a connection).
    Ready(usize),
    /// The socket is not ready (`WouldBlock`); try again once the poller
    /// reports it.
    NotReady,
    /// The peer closed the stream (EOF on read).
    Closed,
    /// A terminal socket error; the connection is unusable. From
    /// [`try_accept`]: the listener could not take a connection right now
    /// (`EMFILE`, `ENFILE`, `ENOBUFS`), though its backlog may hold some.
    Failed,
}

fn classify(err: &io::Error) -> IoStatus {
    match err.kind() {
        io::ErrorKind::WouldBlock => IoStatus::NotReady,
        _ => IoStatus::Failed,
    }
}

/// Run one nonblocking socket call, retrying `EINTR`.
fn retry<T>(mut op: impl FnMut() -> io::Result<T>) -> io::Result<T> {
    loop {
        match op() {
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            result => return result,
        }
    }
}

/// Attempt a nonblocking read into `buf`.
pub fn try_read(stream: &mut TcpStream, buf: &mut [u8]) -> IoStatus {
    match retry(|| stream.read(buf)) {
        Ok(0) => IoStatus::Closed,
        Ok(n) => IoStatus::Ready(n),
        Err(e) => classify(&e),
    }
}

/// Attempt a nonblocking vectored write: one syscall pushing as much of
/// the slice sequence as the socket will take. The caller guarantees the
/// slices hold at least one byte in total, so a 0-byte result means the
/// peer is gone.
pub fn try_write_vectored(stream: &mut TcpStream, bufs: &[io::IoSlice<'_>]) -> IoStatus {
    match retry(|| stream.write_vectored(bufs)) {
        Ok(0) => IoStatus::Closed,
        Ok(n) => IoStatus::Ready(n),
        Err(e) => classify(&e),
    }
}

/// Attempt a nonblocking accept. `Ok` carries the new stream; a peer
/// that reset before it was accepted is skipped, not reported, so an
/// `Err` is either an empty backlog (`NotReady`) or a listener that
/// cannot take a connection right now (`Failed`).
pub fn try_accept(listener: &TcpListener) -> Result<TcpStream, IoStatus> {
    loop {
        match retry(|| listener.accept()) {
            Ok((stream, _peer)) => return Ok(stream),
            Err(e) if e.kind() == io::ErrorKind::ConnectionAborted => continue,
            Err(e) => return Err(classify(&e)),
        }
    }
}

/// CPU time consumed by the *calling thread*, in nanoseconds.
///
/// This is what shard-scaling numbers are built from: on a host with
/// fewer cores than reactor shards the shards timeshare, so wall-clock
/// throughput cannot show the parallelism — but per-thread CPU time
/// attributes each shard's work to that shard regardless of scheduling,
/// and `completions / busiest-shard CPU` is the front-end analogue of the
/// pool's modelled `requests / busiest-worker cycles` makespan metric.
///
/// Implemented as a raw `clock_gettime(CLOCK_THREAD_CPUTIME_ID)` syscall
/// on x86-64 Linux (the workspace carries no libc crate; same approach as
/// the JIT's `mmap`). Unsupported hosts return 0 and the scaling metric
/// degrades to "unavailable" rather than lying with wall time.
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
pub fn thread_cpu_ns() -> u64 {
    const SYS_CLOCK_GETTIME: isize = 228;
    const CLOCK_THREAD_CPUTIME_ID: usize = 3;
    let mut ts = [0i64; 2]; // { tv_sec, tv_nsec }
    let ret: isize;
    unsafe {
        core::arch::asm!(
            "syscall",
            inlateout("rax") SYS_CLOCK_GETTIME => ret,
            in("rdi") CLOCK_THREAD_CPUTIME_ID,
            in("rsi") ts.as_mut_ptr(),
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
    }
    if ret != 0 {
        return 0;
    }
    (ts[0] as u64).saturating_mul(1_000_000_000) + ts[1] as u64
}

/// Fallback for hosts without the raw-syscall path: no per-thread CPU
/// clock, so shard busy-time accounting reports 0 ("unavailable").
#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
pub fn thread_cpu_ns() -> u64 {
    0
}

/// Edge-triggered `epoll` with an `eventfd` waker. The flag values and
/// the `epoll_event` layout are hard-coded for the architectures listed
/// in the `cfg`, which share them (the struct is packed on x86-64 only).
#[cfg(all(
    target_os = "linux",
    any(
        target_arch = "x86_64",
        target_arch = "aarch64",
        target_arch = "riscv64"
    )
))]
mod epoll {
    use std::ffi::{c_int, c_uint};
    use std::fs::File;
    use std::io::{self, Read, Write};
    use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
    use std::sync::Arc;
    use std::time::Duration;

    const EPOLL_CLOEXEC: c_int = 0o2_000_000;
    const EPOLL_CTL_ADD: c_int = 1;
    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLRDHUP: u32 = 0x2000;
    const EPOLLET: u32 = 1 << 31;
    const EFD_CLOEXEC: c_int = 0o2_000_000;
    const EFD_NONBLOCK: c_int = 0o4_000;
    /// Events taken per `epoll_wait`; more stay queued for the next one.
    const MAX_EVENTS: usize = 256;
    /// The token reserved for the poller's own eventfd.
    const WAKE_TOKEN: u64 = u64::MAX;

    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    extern "C" {
        fn epoll_create1(flags: c_int) -> c_int;
        fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        fn eventfd(initval: c_uint, flags: c_int) -> c_int;
    }

    /// Take ownership of the descriptor a create call returned, or turn
    /// its `-1` into the error.
    ///
    /// # Safety
    ///
    /// A non-negative `ret` must be a newly opened descriptor that
    /// nothing else owns or will close.
    unsafe fn owned(ret: c_int) -> io::Result<OwnedFd> {
        if ret < 0 {
            return Err(io::Error::last_os_error());
        }
        // SAFETY: guaranteed by the caller.
        Ok(unsafe { OwnedFd::from_raw_fd(ret) })
    }

    /// Wakes one [`Poller`] from any thread. Cheap to clone.
    #[derive(Clone)]
    pub struct Waker(Arc<File>);

    impl Waker {
        /// Wake the poller: its current wait returns, or its next one
        /// returns at once if it is not waiting.
        pub fn wake(&self) {
            // The only possible failure is EAGAIN, when the counter is
            // already near u64::MAX — and then the eventfd is readable
            // anyway, so the wake still lands.
            let _ = (&*self.0).write(&1u64.to_ne_bytes());
        }
    }

    /// One shard's readiness source: an edge-triggered `epoll` set with
    /// an `eventfd` for wakeups.
    pub struct Poller {
        epoll: OwnedFd,
        wake: Arc<File>,
        events: Box<[EpollEvent]>,
    }

    impl Poller {
        /// A new, empty poller.
        ///
        /// # Errors
        ///
        /// Propagates `epoll_create1`/`eventfd`/`epoll_ctl` failures
        /// (descriptor or memory exhaustion).
        pub fn new() -> io::Result<Self> {
            // SAFETY: both calls take only flag arguments and return a new
            // descriptor or -1.
            let (epoll, wake) = unsafe {
                (
                    owned(epoll_create1(EPOLL_CLOEXEC))?,
                    File::from(owned(eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK))?),
                )
            };
            let poller = Self {
                epoll,
                wake: Arc::new(wake),
                events: vec![EpollEvent { events: 0, data: 0 }; MAX_EVENTS].into_boxed_slice(),
            };
            poller.add(poller.wake.as_raw_fd(), EPOLLIN | EPOLLET, WAKE_TOKEN)?;
            Ok(poller)
        }

        fn add(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
            let mut event = EpollEvent {
                events,
                data: token,
            };
            // SAFETY: `event` is a live, correctly laid out epoll_event
            // that the kernel only reads during the call.
            let ret = unsafe { epoll_ctl(self.epoll.as_raw_fd(), EPOLL_CTL_ADD, fd, &mut event) };
            if ret < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        /// A waker for this poller, to hand to other threads.
        pub fn waker(&self) -> Waker {
            Waker(Arc::clone(&self.wake))
        }

        /// Watch `source` for input, output and hang-up, edge-triggered,
        /// reporting it under `token` (anything but `u64::MAX`). Once is
        /// enough for the socket's lifetime.
        ///
        /// # Errors
        ///
        /// Propagates `epoll_ctl` failures (memory or watch quota).
        pub fn register(&mut self, source: &impl AsRawFd, token: u64) -> io::Result<()> {
            debug_assert_ne!(token, WAKE_TOKEN, "token reserved for wakeups");
            self.add(
                source.as_raw_fd(),
                EPOLLIN | EPOLLOUT | EPOLLRDHUP | EPOLLET,
                token,
            )
        }

        /// Forget `token`'s socket. Nothing to do here: closing a socket
        /// removes it from every epoll set (the server never duplicates
        /// its descriptors), and an event still queued for it names a
        /// token the caller no longer knows.
        pub fn deregister(&mut self, _token: u64) {}

        /// Block until a registered socket has an event, a [`Waker`]
        /// fires, or `timeout` passes (`None`: no timeout). Tokens of the
        /// sockets with events are appended to `ready`; a wake is
        /// consumed here and appends nothing. A signal ends the wait
        /// early with nothing reported.
        ///
        /// # Panics
        ///
        /// If `epoll_wait` fails for a reason other than a signal, which
        /// only a bug here can cause.
        pub fn wait(&mut self, timeout: Option<Duration>, ready: &mut Vec<u64>) {
            // Round up: waking before the deadline would only wait again.
            let ms = timeout.map_or(-1, |t| {
                t.as_nanos().div_ceil(1_000_000).min(c_int::MAX as u128) as c_int
            });
            // SAFETY: `events` is an owned buffer of `len` entries that
            // the kernel fills from the front; `len` fits a c_int.
            let n = unsafe {
                epoll_wait(
                    self.epoll.as_raw_fd(),
                    self.events.as_mut_ptr(),
                    self.events.len() as c_int,
                    ms,
                )
            };
            if n < 0 {
                let err = io::Error::last_os_error();
                assert_eq!(
                    err.kind(),
                    io::ErrorKind::Interrupted,
                    "epoll_wait on the shard's own epoll set failed: {err}"
                );
                return;
            }
            for event in &self.events[..n as usize] {
                let token = event.data;
                if token == WAKE_TOKEN {
                    // Reset the counter so the next wake is a new edge
                    // (EAGAIN, an already-zero counter, is harmless).
                    let _ = (&*self.wake).read(&mut [0u8; 8]);
                } else {
                    ready.push(token);
                }
            }
        }
    }
}

/// The timed-park fallback for hosts without the epoll backend: a wait
/// parks on a condition variable for at most [`park::PARK`] (or until
/// woken) and then reports every registered socket ready, so the caller
/// finds real readiness by attempting each one. Built everywhere under
/// `cfg(test)` so its tests run on every host.
#[cfg(any(
    test,
    not(all(
        target_os = "linux",
        any(
            target_arch = "x86_64",
            target_arch = "aarch64",
            target_arch = "riscv64"
        )
    ))
))]
mod park {
    use std::io;
    use std::sync::{Arc, Condvar, Mutex};
    use std::time::Duration;

    /// Longest park: the timer granularity when no wake arrives.
    pub const PARK: Duration = Duration::from_millis(1);

    #[derive(Default)]
    struct Signal {
        woken: Mutex<bool>,
        cv: Condvar,
    }

    /// Wakes one [`Poller`] from any thread. Cheap to clone.
    #[derive(Clone)]
    pub struct Waker(Arc<Signal>);

    impl Waker {
        /// Wake the poller: its current wait returns, or its next one
        /// returns at once if it is not waiting.
        pub fn wake(&self) {
            *self.0.woken.lock().expect("waker flag poisoned") = true;
            self.0.cv.notify_one();
        }
    }

    /// One shard's readiness source: a timed park plus the list of
    /// registered tokens, all reported ready after every wait.
    pub struct Poller {
        signal: Arc<Signal>,
        tokens: Vec<u64>,
    }

    impl Poller {
        /// A new, empty poller.
        ///
        /// # Errors
        ///
        /// Never; the signature matches the epoll backend's.
        pub fn new() -> io::Result<Self> {
            Ok(Self {
                signal: Arc::default(),
                tokens: Vec::new(),
            })
        }

        /// A waker for this poller, to hand to other threads.
        pub fn waker(&self) -> Waker {
            Waker(Arc::clone(&self.signal))
        }

        /// Report `token` after every wait until it is deregistered.
        ///
        /// # Errors
        ///
        /// Never; the signature matches the epoll backend's.
        pub fn register<S>(&mut self, _source: &S, token: u64) -> io::Result<()> {
            self.tokens.push(token);
            Ok(())
        }

        /// Stop reporting `token`.
        pub fn deregister(&mut self, token: u64) {
            if let Some(i) = self.tokens.iter().position(|&t| t == token) {
                self.tokens.swap_remove(i);
            }
        }

        /// Park until woken or for `timeout` capped at [`PARK`], then
        /// append every registered token to `ready`.
        pub fn wait(&mut self, timeout: Option<Duration>, ready: &mut Vec<u64>) {
            let bound = timeout.map_or(PARK, |t| t.min(PARK));
            let mut woken = self.signal.woken.lock().expect("waker flag poisoned");
            if !*woken {
                woken = self
                    .signal
                    .cv
                    .wait_timeout(woken, bound)
                    .expect("waker flag poisoned")
                    .0;
            }
            *woken = false;
            drop(woken);
            ready.extend_from_slice(&self.tokens);
        }
    }
}

/// A token bucket metering events per second, refilled by elapsed wall
/// time; burst capacity is one second's worth of tokens. A rate of 0
/// means unlimited.
pub struct TokenBucket {
    rate: u64,
    tokens: f64,
    last: Instant,
}

impl TokenBucket {
    /// A bucket allowing `rate` events/second (0 = unlimited), starting
    /// full.
    pub fn new(rate: u64) -> Self {
        Self {
            rate,
            tokens: rate as f64,
            last: Instant::now(),
        }
    }

    /// Take one token if available. Always true for an unlimited bucket.
    pub fn try_take(&mut self) -> bool {
        if self.rate == 0 {
            return true;
        }
        let now = Instant::now();
        let dt = now.duration_since(self.last).as_secs_f64();
        self.last = now;
        self.tokens = (self.tokens + dt * self.rate as f64).min(self.rate as f64);
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }

    /// When the next token is due: the moment [`TokenBucket::try_take`]
    /// can next succeed (already past if a token is available).
    pub fn refill_at(&self) -> Instant {
        if self.rate == 0 || self.tokens >= 1.0 {
            return self.last;
        }
        self.last + Duration::from_secs_f64((1.0 - self.tokens) / self.rate as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A connected (client, accepted-server-side) pair with the server
    /// side nonblocking.
    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (accepted, _) = listener.accept().unwrap();
        accepted.set_nonblocking(true).unwrap();
        (peer, accepted)
    }

    #[test]
    fn waker_cuts_a_wait_short_even_when_sent_first() {
        let mut poller = Poller::new().unwrap();
        let mut ready = Vec::new();
        // Wake *before* waiting: the wake is kept, the wait returns
        // immediately instead of sleeping out the timeout.
        poller.waker().wake();
        let start = Instant::now();
        poller.wait(Some(Duration::from_secs(5)), &mut ready);
        assert!(start.elapsed() < Duration::from_secs(1));

        // Wake from another thread while waiting with no timeout at all.
        let waker = poller.waker();
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            waker.wake();
        });
        let start = Instant::now();
        poller.wait(None, &mut ready);
        assert!(start.elapsed() < Duration::from_secs(1));
        t.join().unwrap();
        assert!(ready.is_empty(), "a wake reports no socket: {ready:?}");
    }

    #[cfg(all(
        target_os = "linux",
        any(
            target_arch = "x86_64",
            target_arch = "aarch64",
            target_arch = "riscv64"
        )
    ))]
    #[test]
    fn epoll_reports_each_new_edge_once_and_honours_the_timeout() {
        let mut poller = Poller::new().unwrap();
        let (mut peer, mut accepted) = pair();
        poller.register(&accepted, 7).unwrap();
        let mut ready = Vec::new();
        // Registration reports the socket's current state (writable) once.
        poller.wait(Some(Duration::from_secs(5)), &mut ready);
        assert_eq!(ready, [7]);

        // No new edge: the wait sleeps out its timeout and reports nothing.
        ready.clear();
        let start = Instant::now();
        poller.wait(Some(Duration::from_millis(30)), &mut ready);
        assert!(ready.is_empty(), "{ready:?}");
        assert!(start.elapsed() >= Duration::from_millis(30));

        // Bytes arriving are one edge, reported under the token.
        peer.write_all(b"ping").unwrap();
        poller.wait(Some(Duration::from_secs(5)), &mut ready);
        assert_eq!(ready, [7]);
        let mut buf = [0u8; 16];
        assert!(matches!(
            try_read(&mut accepted, &mut buf),
            IoStatus::Ready(4)
        ));

        // Drained and quiet: nothing more until the peer acts again.
        ready.clear();
        poller.wait(Some(Duration::from_millis(20)), &mut ready);
        assert!(ready.is_empty(), "{ready:?}");
        drop(peer);
        poller.wait(Some(Duration::from_secs(5)), &mut ready);
        assert_eq!(ready, [7], "hang-up is an event");
        assert!(matches!(
            try_read(&mut accepted, &mut buf),
            IoStatus::Closed
        ));
    }

    #[test]
    fn park_fallback_reports_every_registered_socket_after_a_bounded_park() {
        let mut poller = park::Poller::new().unwrap();
        let (_peer, accepted) = pair();
        poller.register(&accepted, 3).unwrap();
        poller.register(&accepted, 9).unwrap();
        let mut ready = Vec::new();
        // The park is capped at PARK whatever the caller asks for.
        let start = Instant::now();
        poller.wait(None, &mut ready);
        assert!(start.elapsed() < Duration::from_secs(1));
        assert_eq!(ready, [3, 9]);

        poller.deregister(3);
        ready.clear();
        poller.waker().wake();
        poller.wait(Some(Duration::from_secs(5)), &mut ready);
        assert_eq!(ready, [9]);
    }

    #[test]
    fn nonblocking_accept_and_read_classify_not_ready() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        assert!(matches!(
            try_accept(&listener),
            Err(IoStatus::NotReady) | Err(IoStatus::Failed)
        ));

        let peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let mut accepted = loop {
            match try_accept(&listener) {
                Ok(s) => break s,
                Err(IoStatus::NotReady) => std::thread::sleep(Duration::from_millis(1)),
                Err(other) => panic!("accept failed: {other:?}"),
            }
        };
        accepted.set_nonblocking(true).unwrap();
        let mut buf = [0u8; 16];
        assert!(matches!(
            try_read(&mut accepted, &mut buf),
            IoStatus::NotReady
        ));
        drop(peer);
        // Peer gone: read eventually reports Closed.
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            match try_read(&mut accepted, &mut buf) {
                IoStatus::Closed => break,
                IoStatus::NotReady if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(1));
                }
                other => panic!("expected Closed, got {other:?}"),
            }
        }
    }

    #[test]
    fn vectored_write_moves_multiple_slices() {
        let (mut peer, mut accepted) = pair();
        let parts: [&[u8]; 3] = [b"one", b"two2", b"three33"];
        let slices: Vec<io::IoSlice> = parts.iter().map(|p| io::IoSlice::new(p)).collect();
        let total: usize = parts.iter().map(|p| p.len()).sum();
        match try_write_vectored(&mut accepted, &slices) {
            IoStatus::Ready(n) => assert!(n > 0 && n <= total, "wrote {n}"),
            other => panic!("expected Ready, got {other:?}"),
        }
        let mut buf = vec![0u8; total];
        peer.read_exact(&mut buf).unwrap();
        assert_eq!(buf, b"onetwo2three33");
    }

    #[test]
    fn thread_cpu_clock_monotonic_and_charges_work() {
        let t0 = thread_cpu_ns();
        // Burn a little CPU; the clock must advance (x86-64 Linux) or stay
        // pinned at the 0 fallback (other hosts) — never go backwards.
        let mut acc = 0u64;
        for i in 0..200_000u64 {
            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
        }
        std::hint::black_box(acc);
        let t1 = thread_cpu_ns();
        assert!(t1 >= t0, "thread CPU clock went backwards: {t0} -> {t1}");
        if cfg!(all(target_arch = "x86_64", target_os = "linux")) {
            assert!(t1 > 0, "CPU clock should be available on this host");
        }
    }

    #[test]
    fn token_bucket_meters_and_unlimited_never_blocks() {
        let mut unlimited = TokenBucket::new(0);
        for _ in 0..10_000 {
            assert!(unlimited.try_take());
        }
        assert!(unlimited.refill_at() <= Instant::now());

        // A 5/s bucket starts with a 5-token burst, then runs dry within
        // this tight loop (refill over a few microseconds is ≪ 1 token).
        let mut bucket = TokenBucket::new(5);
        let granted = (0..1000).filter(|_| bucket.try_take()).count();
        assert!((5..=20).contains(&granted), "granted {granted}");
        // Dry: the next token is due at most 1/5 s out, and is there
        // within the shard's 1 ms timer resolution of that.
        let due = bucket.refill_at();
        assert!(due > Instant::now());
        assert!(due <= Instant::now() + Duration::from_millis(200));
        std::thread::sleep(
            due.saturating_duration_since(Instant::now()) + Duration::from_millis(1),
        );
        assert!(bucket.try_take(), "a token is available at refill_at");
    }
}
