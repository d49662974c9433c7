//! Directed end-to-end tests for the sharded multi-reactor front-end:
//! reply digests must be byte-identical across reactor counts (for
//! closed and paced KEM runs, and for session workloads), and session
//! state must be invisible across shard boundaries — a session id minted
//! by one shard is simply "unknown" on a connection owned by another.

use lac::Kem;
use lac_rand::Sha256CtrRng;
use lac_serve::bench::{self, Action, LoadConfig, Script};
use lac_serve::client::Client;
use lac_serve::pool::ServeConfig;
use lac_serve::server::Server;
use lac_serve::session::{self, Direction};
use lac_serve::wire::{Opcode, RequestFrame};
use lac_serve::{params_code, BackendKind};
use std::thread::JoinHandle;

fn spawn(cfg: ServeConfig) -> (String, JoinHandle<lac_serve::metrics::MetricsSnapshot>) {
    let server = Server::bind("127.0.0.1:0", cfg).expect("bind");
    let addr = server.local_addr().expect("addr").to_string();
    (addr, std::thread::spawn(move || server.run()))
}

/// The KEM bench digest hashes every reply payload under a fixed
/// request→lane assignment, so it must not move when the server's reactor
/// count (or worker count) changes — for closed lanes and for paced
/// (pipelined) arrivals, which share the digest by construction.
#[test]
fn closed_and_paced_digests_are_reactor_count_independent() {
    let run = |reactors: usize, workers: usize, target_qps: f64| {
        let report = bench::run(&LoadConfig {
            script: Script::Kem {
                op: lac_serve::Op::Encaps,
                requests: 8,
            },
            conns: 2,
            target_qps,
            seed: 11,
            workers,
            reactors,
            queue_capacity: 8,
            ..LoadConfig::default()
        })
        .expect("bench run");
        assert_eq!((report.busy, report.errors), (0, 0));
        assert_eq!(report.stat("reactors"), reactors as u64);
        report.digest
    };
    let baseline = run(1, 1, 0.0);
    assert_eq!(run(4, 1, 0.0), baseline, "reactors must not change replies");
    assert_eq!(run(4, 4, 0.0), baseline, "nor reactors × workers");
    assert_eq!(run(1, 2, 300.0), baseline, "paced arrivals share it");
    assert_eq!(run(4, 2, 300.0), baseline, "sharded paced arrivals too");
}

fn session_script(reactors: usize, workers: usize, target_qps: f64) -> LoadConfig {
    LoadConfig {
        script: Script::Sessions {
            sessions: 8,
            chats: 2,
            rekey_every: 0,
            hold: false,
        },
        conns: 4,
        target_qps,
        seed: 11,
        workers,
        reactors,
        queue_capacity: 8,
        ..LoadConfig::default()
    }
}

/// The session workload hashes epoch secrets and echoed plaintexts
/// (session *ids* are excluded: they are shard-striped). The transcript
/// digest must be identical across reactor and worker counts and across
/// arrival rules, with zero sheds and zero errors.
#[test]
fn session_digests_are_reactor_and_worker_count_independent() {
    let run = |reactors: usize, workers: usize, target_qps: f64| {
        let report = bench::run(&session_script(reactors, workers, target_qps)).expect("run");
        let tag = format!("r{reactors} w{workers} qps{target_qps}");
        assert_eq!(report.errors, 0, "{tag}");
        assert_eq!(report.busy, 0, "{tag}");
        assert_eq!(report.ok[Action::Open as usize], 8, "{tag}");
        report.digest
    };
    let baseline = run(1, 1, 0.0);
    assert_eq!(
        run(1, 4, 0.0),
        baseline,
        "worker count must not change crypto"
    );
    assert_eq!(
        run(4, 1, 0.0),
        baseline,
        "reactor count must not change crypto"
    );
    assert_eq!(run(4, 4, 0.0), baseline, "nor both");
    assert_eq!(
        run(1, 2, 2000.0),
        baseline,
        "paced arrivals must not either"
    );
    assert_eq!(run(4, 2, 2000.0), baseline, "nor sharded paced arrivals");
}

/// A session script pointed at an external server seeded with
/// `pool_seed(seed)` reproduces the in-process digest: `--addr` is
/// honoured by session runs, not replaced by a private server.
#[test]
fn session_digest_over_addr_matches_the_in_process_digest() {
    let in_process = bench::run(&session_script(2, 2, 0.0)).expect("in-process run");
    let (addr, handle) = spawn(ServeConfig {
        workers: 2,
        reactors: 2,
        seed: bench::pool_seed(11),
        ..ServeConfig::default()
    });
    let external = bench::run(&LoadConfig {
        addr: Some(addr.clone()),
        ..session_script(2, 2, 0.0)
    })
    .expect("external run");
    Client::connect(&addr)
        .expect("control")
        .shutdown()
        .expect("shutdown");
    let snapshot = handle.join().expect("server thread");
    assert_eq!(external.errors, 0);
    assert_eq!(external.digest, in_process.digest);
    assert_eq!(snapshot.sessions.opened, 8, "the external server served it");
}

/// Two connections pinned to different shards (round-robin accept makes
/// the pinning deterministic) cannot observe each other's sessions: the
/// id spaces are disjoint by striding, and presenting a shard-0 session
/// id on a shard-1 connection is answered with "unknown session" — the
/// frame never reaches another shard's table.
#[test]
fn sessions_do_not_cross_shard_boundaries() {
    let (addr, handle) = spawn(ServeConfig {
        workers: 1,
        reactors: 2,
        queue_capacity: 8,
        seed: [3u8; 32],
        ..ServeConfig::default()
    });
    let kem = Kem::new(lac::Params::lac128());
    let mut backend = BackendKind::Ct.build();
    let mut rng = Sha256CtrRng::seed_from_u64(21);

    // Round-trip after each connect so accept order (and the round-robin
    // deal) is deterministic: a → shard 0, b → shard 1.
    let mut a = Client::connect(&addr).expect("connect a");
    a.ping().expect("a alive");
    let mut b = Client::connect(&addr).expect("connect b");
    b.ping().expect("b alive");

    let mut on_a = a
        .session_open(&kem, backend.as_mut(), BackendKind::Ct, 1000, &mut rng)
        .expect("open on shard 0");
    let on_b = b
        .session_open(&kem, backend.as_mut(), BackendKind::Ct, 2000, &mut rng)
        .expect("open on shard 1");
    // Shard k mints ids k+1, k+1+2, …: disjoint residues mod 2.
    assert_eq!(on_a.id % 2, 1, "shard 0 ids are odd (id {})", on_a.id);
    assert_eq!(on_b.id % 2, 0, "shard 1 ids are even (id {})", on_b.id);

    // A frame sealed under a's perfectly valid keys, presented on b's
    // connection: the owning shard never sees it, b's shard has no such
    // id, and the reply says so before any tag check could run.
    let sealed = session::seal(
        &on_a.keys.to_server,
        Direction::ToServer,
        on_a.id,
        on_a.epoch,
        0,
        b"wrong shard",
    );
    let msg = |payload: Vec<u8>| RequestFrame {
        opcode: Opcode::SessionMsg,
        params_code: params_code(&lac::Params::lac128()),
        backend_code: BackendKind::Ct.code(),
        seq: 0,
        payload,
    };
    let reply = b.request(&msg(sealed.clone())).expect("transport ok");
    let err = reply.error_message().expect("must be rejected");
    assert!(err.contains("unknown session"), "{err}");

    // The byte-identical frame on the owning connection is accepted.
    let reply = a.request(&msg(sealed)).expect("transport ok");
    assert!(reply.error_message().is_none(), "owner shard must accept");
    on_a.open_reply(&reply.payload).expect("echo verifies");

    // The misdelivery was not a tag failure and closed nothing.
    let mut control = Client::connect(&addr).expect("control");
    control.shutdown().expect("shutdown");
    let snapshot = handle.join().expect("server thread");
    assert_eq!(snapshot.sessions.tag_failures, 0);
    assert_eq!(snapshot.sessions.open, 2);
    assert_eq!(snapshot.shards.len(), 2);
    assert_eq!(snapshot.shards[0].sessions_open, 1);
    assert_eq!(snapshot.shards[1].sessions_open, 1);
}
