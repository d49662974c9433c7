//! `lac-serve` — a multi-worker serving layer over the LAC KEM.
//!
//! The paper accelerates single KEM operations; this crate turns the
//! reproduction into a *system* that serves KEM traffic: a worker pool
//! executes keygen/encaps/decaps jobs across all parameter sets and all
//! backends, a length-prefixed binary protocol exposes the pool over TCP,
//! and live metrics (request counters, queue high-water mark, latency
//! histograms, per-worker modelled cycle totals) are available both in
//! process and via a `STATS` protocol request. The backend axis is
//! `lac`'s [`BackendKind`], re-exported here because its wire code
//! travels in every KEM frame. Everything is built on
//! `std` only — `std::thread`, `Mutex`/`Condvar`, `TcpListener` — keeping
//! the workspace hermetic.
//!
//! Layers, bottom-up:
//!
//! * [`queue`] — a bounded MPMC channel on `Mutex` + `Condvar` with
//!   blocking backpressure and close-and-drain shutdown;
//! * [`metrics`] — atomic counters and fixed-bucket latency histograms;
//! * [`pool`] — [`pool::ServePool`]: worker threads, each owning its own
//!   backends and per-parameter-set [`lac::Kem`] instances, with per-job
//!   DRBG lanes forked from a root seed ([`lac_rand::Sha256CtrRng::fork`])
//!   so results are byte-identical regardless of worker count;
//! * [`wire`] — the framed request/response protocol (one reply frame per
//!   request, pipelined requests answered in order), with an incremental
//!   [`wire::FrameDecoder`] for nonblocking reads;
//! * [`reactor`] — a std-only readiness layer (a per-shard edge-triggered
//!   `epoll` poller with an `eventfd` waker on Linux, a timed-park
//!   fallback elsewhere; nonblocking I/O classification, vectored writes,
//!   accept-rate token bucket, per-thread CPU clocks);
//! * [`server`] — a sharded multi-reactor event loop (`reactors` shards,
//!   each owning a disjoint set of connections dealt round-robin at
//!   accept, plus a disjoint stride of the session-id space): per-shard
//!   state machines that block on socket readiness and visit only ready
//!   connections, ordered reply slots flushed with vectored writes,
//!   overload shedding (`BUSY`), connection caps, per-shard timers and
//!   graceful drain;
//! * [`session`] — authenticated long-lived channels over the KEM
//!   (`lac-session`): KEM-negotiated directional keys, AEAD-style frame
//!   sealing, epoch-tagged rekeying, and a bounded exact-LRU session
//!   table (one per reactor shard) — the reactor binds it to opcodes
//!   `SessionOpen`/`SessionMsg`/`SessionClose`;
//! * [`client`] — blocking `std::net` endpoint speaking [`wire`], with
//!   optional connect/read/write deadlines;
//! * [`bench`](mod@bench) — one scheduled-arrival load driver: a KEM or session
//!   script dealt over connection lanes, closed-loop or paced at a target
//!   rate, reporting wall-clock and modelled multi-core throughput,
//!   interpolated tail latency (p50/p99/p999) and an arrival-independent
//!   reply digest.
//!
//! # Determinism
//!
//! A job's randomness is `root_rng.fork(seq)` where `seq` is the job's
//! sequence number: it depends only on the root seed and `seq`, never on
//! scheduling. Two runs with the same seed and the same per-job sequence
//! numbers produce identical keys/ciphertexts/shared secrets whether the
//! pool has 1 worker or 64.
//!
//! # Example
//!
//! ```
//! use lac_serve::pool::{Job, JobKind, Reply, ServeConfig, ServePool};
//! use lac_serve::BackendKind;
//! use lac::Params;
//!
//! let pool = ServePool::new(ServeConfig {
//!     workers: 2,
//!     queue_capacity: 8,
//!     seed: [7u8; 32],
//!     ..ServeConfig::default()
//! });
//! let jobs = vec![
//!     Job::new(0, Params::lac128(), BackendKind::Ct, JobKind::Keygen),
//!     Job::new(1, Params::lac192(), BackendKind::Hw, JobKind::Keygen),
//! ];
//! let replies = pool.submit_batch(jobs);
//! assert!(matches!(replies[0], Reply::Keygen { .. }));
//! assert!(matches!(replies[1], Reply::Keygen { .. }));
//! ```

#![warn(missing_docs)]

pub mod bench;
pub mod client;
pub mod metrics;
pub mod pool;
pub mod queue;
pub mod reactor;
pub mod server;
pub mod session;
pub mod wire;

pub use lac::BackendKind;
use lac::Params;

/// The KEM operations the pool serves (also the metrics axis).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Key-pair generation.
    Keygen,
    /// Encapsulation against a supplied public key.
    Encaps,
    /// Decapsulation of a supplied ciphertext.
    Decaps,
}

impl Op {
    /// All operations, in counter-index order.
    pub const ALL: [Op; 3] = [Op::Keygen, Op::Encaps, Op::Decaps];

    /// Stable index into per-op counter arrays.
    pub fn index(self) -> usize {
        match self {
            Op::Keygen => 0,
            Op::Encaps => 1,
            Op::Decaps => 2,
        }
    }

    /// Lower-case label ("keygen" | "encaps" | "decaps").
    pub fn label(self) -> &'static str {
        match self {
            Op::Keygen => "keygen",
            Op::Encaps => "encaps",
            Op::Decaps => "decaps",
        }
    }

    /// Parse a label as printed by [`Op::label`].
    pub fn parse(name: &str) -> Result<Self, String> {
        match name {
            "keygen" => Ok(Op::Keygen),
            "encaps" => Ok(Op::Encaps),
            "decaps" => Ok(Op::Decaps),
            other => Err(format!(
                "unknown op '{other}' (expected keygen|encaps|decaps)"
            )),
        }
    }
}

/// One-byte wire code for a parameter set (1-based; 0 is reserved).
pub fn params_code(params: &Params) -> u8 {
    match params.n() {
        512 => 1,
        // Both level-III and level-V use n = 1024; they differ in D2.
        1024 if params.d2() => 3,
        1024 => 2,
        _ => 0,
    }
}

/// Decode a parameter-set wire code.
pub fn params_from_code(code: u8) -> Option<Params> {
    match code {
        1 => Some(Params::lac128()),
        2 => Some(Params::lac192()),
        3 => Some(Params::lac256()),
        _ => None,
    }
}

/// Parse a CLI parameter-set label.
pub fn params_parse(name: &str) -> Result<Params, String> {
    match name {
        "lac128" => Ok(Params::lac128()),
        "lac192" => Ok(Params::lac192()),
        "lac256" => Ok(Params::lac256()),
        other => Err(format!(
            "unknown parameter set '{other}' (expected lac128|lac192|lac256)"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn params_codes_roundtrip() {
        for p in Params::ALL {
            let code = params_code(&p);
            assert!(code != 0, "{}", p.name());
            let back = params_from_code(code).unwrap();
            assert_eq!(back.name(), p.name());
            assert!(params_parse(&p.name().to_lowercase().replace('-', "")).is_ok());
        }
        assert!(params_from_code(0).is_none());
        assert!(params_from_code(9).is_none());
    }

    #[test]
    fn ops_index_and_parse() {
        for (i, op) in Op::ALL.iter().enumerate() {
            assert_eq!(op.index(), i);
            assert_eq!(Op::parse(op.label()), Ok(*op));
        }
        assert!(Op::parse("encrypt").is_err());
    }
}
