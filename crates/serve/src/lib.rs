//! `lac-serve` — a multi-worker serving layer over the LAC KEM.
//!
//! The paper accelerates single KEM operations; this crate turns the
//! reproduction into a *system* that serves KEM traffic: a worker pool
//! executes keygen/encaps/decaps jobs across all parameter sets and all
//! backends, a length-prefixed binary protocol exposes the pool over TCP,
//! and live metrics (request counters, queue high-water mark, latency
//! histograms, per-worker modelled cycle totals) are available both in
//! process and via a `STATS` protocol request. Everything is built on
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
//! * [`bench`] — one scheduled-arrival load driver: a KEM or session
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
//!     warm_iss: true,
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

use lac::{AcceleratedBackend, Backend, KeccakAcceleratedBackend, Params, SoftwareBackend};

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

/// Which execution backend a job runs on.
///
/// This mirrors the CLI's `--backend` axis: the two software profiles, the
/// paper's PQ-ALU accelerator model, and the future-work Keccak variant.
/// Workers build their *own* instance of each (backends are cheap owned
/// state and `Backend: Send`), so no locking happens on the hot path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// `SoftwareBackend::reference()` — submission-style variable-time BCH.
    Ref,
    /// `SoftwareBackend::constant_time()` — Walters-style constant-time BCH.
    Ct,
    /// `AcceleratedBackend` — MUL TER + SHA256 unit + MUL CHIEN.
    Hw,
    /// `KeccakAcceleratedBackend` — the §VI future-work Keccak-hash variant
    /// (not interoperable with the SHA-256 backends).
    HwKeccak,
}

impl BackendKind {
    /// All backends, in wire-code order.
    pub const ALL: [BackendKind; 4] = [
        BackendKind::Ref,
        BackendKind::Ct,
        BackendKind::Hw,
        BackendKind::HwKeccak,
    ];

    /// CLI/wire label.
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Ref => "ref",
            BackendKind::Ct => "ct",
            BackendKind::Hw => "hw",
            BackendKind::HwKeccak => "hw-keccak",
        }
    }

    /// Parse a CLI label.
    pub fn parse(name: &str) -> Result<Self, String> {
        match name {
            "ref" => Ok(BackendKind::Ref),
            "ct" => Ok(BackendKind::Ct),
            "hw" => Ok(BackendKind::Hw),
            "hw-keccak" => Ok(BackendKind::HwKeccak),
            other => Err(format!(
                "unknown backend '{other}' (expected ref|ct|hw|hw-keccak)"
            )),
        }
    }

    /// One-byte wire code (1-based; 0 is reserved/invalid).
    pub fn code(self) -> u8 {
        match self {
            BackendKind::Ref => 1,
            BackendKind::Ct => 2,
            BackendKind::Hw => 3,
            BackendKind::HwKeccak => 4,
        }
    }

    /// Decode a wire code.
    pub fn from_code(code: u8) -> Option<Self> {
        match code {
            1 => Some(BackendKind::Ref),
            2 => Some(BackendKind::Ct),
            3 => Some(BackendKind::Hw),
            4 => Some(BackendKind::HwKeccak),
            _ => None,
        }
    }

    /// Build a fresh backend instance of this kind.
    pub fn build(self) -> Box<dyn Backend> {
        match self {
            BackendKind::Ref => Box::new(SoftwareBackend::reference()),
            BackendKind::Ct => Box::new(SoftwareBackend::constant_time()),
            BackendKind::Hw => Box::new(AcceleratedBackend::new()),
            BackendKind::HwKeccak => Box::new(KeccakAcceleratedBackend::new()),
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
    fn backend_codes_and_labels_roundtrip() {
        for kind in BackendKind::ALL {
            assert_eq!(BackendKind::from_code(kind.code()), Some(kind));
            assert_eq!(BackendKind::parse(kind.name()), Ok(kind));
        }
        assert!(BackendKind::from_code(0).is_none());
        assert!(BackendKind::parse("fpga").is_err());
    }

    #[test]
    fn ops_index_and_parse() {
        for (i, op) in Op::ALL.iter().enumerate() {
            assert_eq!(op.index(), i);
            assert_eq!(Op::parse(op.label()), Ok(*op));
        }
        assert!(Op::parse("encrypt").is_err());
    }

    #[test]
    fn backend_build_produces_distinct_labels() {
        let labels: Vec<&str> = BackendKind::ALL.iter().map(|k| k.build().label()).collect();
        assert_eq!(labels, vec!["ref.", "const. BCH", "opt.", "opt. + Keccak"]);
    }
}
