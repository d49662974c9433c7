//! Directed end-to-end tests for the session subsystem (`lac-session`)
//! over real TCP connections: handshake determinism across worker
//! counts, LRU eviction at capacity, replay/reorder rejection, tag
//! failures closing the session but not the connection, the one-epoch
//! rekey grace window, and server-enforced rekey-after-N.

use lac::Kem;
use lac_rand::Sha256CtrRng;
use lac_serve::client::Client;
use lac_serve::pool::ServeConfig;
use lac_serve::server::Server;
use lac_serve::session::{self, Direction, SessionFrame};
use lac_serve::wire::{Opcode, RequestFrame};
use lac_serve::{params_code, BackendKind};
use std::thread::JoinHandle;

fn spawn(cfg: ServeConfig) -> (String, JoinHandle<lac_serve::metrics::MetricsSnapshot>) {
    let server = Server::bind("127.0.0.1:0", cfg).expect("bind");
    let addr = server.local_addr().expect("addr").to_string();
    (addr, std::thread::spawn(move || server.run()))
}

fn config(workers: usize) -> ServeConfig {
    ServeConfig {
        workers,
        queue_capacity: 8,
        seed: [3u8; 32],
        ..ServeConfig::default()
    }
}

/// Open → chat → rekey → chat → close on servers with 1 and 4 workers:
/// the derived epoch secrets and echoed plaintexts must be identical
/// (per-job DRBG forks make handshakes worker-count independent), and
/// every session must be reaped by the time the server drains.
#[test]
fn session_lifecycle_is_worker_count_independent() {
    let mut transcripts = Vec::new();
    for workers in [1usize, 4] {
        let (addr, handle) = spawn(config(workers));
        let mut client = Client::connect(&addr).expect("connect");
        let kem = Kem::new(lac::Params::lac128());
        let mut backend = BackendKind::Ct.build();
        // Client-side randomness is seeded identically for both runs and
        // the wire seqs match, so the whole transcript must match.
        let mut rng = Sha256CtrRng::seed_from_u64(7);

        let mut session = client
            .session_open(&kem, backend.as_mut(), BackendKind::Ct, 1000, &mut rng)
            .expect("open");
        let secret0 = session.epoch_secret;
        let echo0 = client
            .session_send(&mut session, b"before rekey")
            .expect("chat 0");
        client
            .session_rekey(
                &kem,
                backend.as_mut(),
                BackendKind::Ct,
                &mut session,
                1001,
                &mut rng,
            )
            .expect("rekey");
        assert_eq!(session.epoch, 1);
        let secret1 = session.epoch_secret;
        assert_ne!(secret0, secret1, "rekey must rotate the epoch secret");
        let echo1 = client
            .session_send(&mut session, b"after rekey")
            .expect("chat 1");
        client.session_close(session).expect("close");

        let mut control = Client::connect(&addr).expect("control");
        control.shutdown().expect("shutdown");
        let snapshot = handle.join().expect("server thread");
        assert_eq!(snapshot.sessions.opened, 1, "workers {workers}");
        assert_eq!(snapshot.sessions.closed, 1, "workers {workers}");
        assert_eq!(snapshot.sessions.rekeys, 1, "workers {workers}");
        assert_eq!(snapshot.sessions.open, 0, "workers {workers}");
        assert_eq!(snapshot.sessions.messages, 2, "workers {workers}");
        transcripts.push((secret0, secret1, echo0, echo1));
    }
    assert_eq!(
        transcripts[0], transcripts[1],
        "session transcript must not depend on worker count"
    );
}

/// A table bounded at 4 holds the 4 most recently used sessions: with
/// every session but `victim` touched, opening a fifth evicts exactly
/// `victim`, whose id then answers "unknown session" while the survivors
/// and the newcomer keep chatting.
fn lru_eviction_drops(victim: usize) {
    let (addr, handle) = spawn(ServeConfig {
        session_capacity: 4,
        ..config(2)
    });
    let mut client = Client::connect(&addr).expect("connect");
    let kem = Kem::new(lac::Params::lac128());
    let mut backend = BackendKind::Ct.build();
    let mut rng = Sha256CtrRng::seed_from_u64(8);

    let mut sessions: Vec<_> = (0..4)
        .map(|i| {
            client
                .session_open(&kem, backend.as_mut(), BackendKind::Ct, 2000 + i, &mut rng)
                .expect("open")
        })
        .collect();
    for (i, s) in sessions.iter_mut().enumerate() {
        if i != victim {
            client.session_send(s, b"touch").expect("touch");
        }
    }
    let mut fifth = client
        .session_open(&kem, backend.as_mut(), BackendKind::Ct, 2004, &mut rng)
        .expect("fifth open");

    let evicted = client
        .session_send(&mut sessions[victim], b"hello?")
        .err()
        .unwrap_or_else(|| panic!("victim {victim} must have been evicted"));
    assert!(evicted.contains("unknown session"), "{evicted}");
    for (i, s) in sessions.iter_mut().enumerate() {
        if i != victim {
            client
                .session_send(s, b"still here")
                .unwrap_or_else(|e| panic!("victim {victim}: survivor {i}: {e}"));
        }
    }
    client
        .session_send(&mut fifth, b"newcomer")
        .expect("newcomer");

    let mut control = Client::connect(&addr).expect("control");
    control.shutdown().expect("shutdown");
    let snapshot = handle.join().expect("server thread");
    assert_eq!(snapshot.sessions.opened, 5);
    assert_eq!(snapshot.sessions.evicted, 1);
    assert_eq!(snapshot.sessions.open, 4);
}

#[test]
fn lru_eviction_drops_the_least_recently_used_session() {
    for victim in [0, 2] {
        lru_eviction_drops(victim);
    }
}

/// Replaying a previously accepted frame (or skipping ahead) is dropped
/// with an error reply, counted as a replay, and leaves the session
/// usable at the correct sequence number.
#[test]
fn replayed_and_reordered_frames_are_rejected_without_closing() {
    let (addr, handle) = spawn(config(2));
    let mut client = Client::connect(&addr).expect("connect");
    let kem = Kem::new(lac::Params::lac128());
    let mut backend = BackendKind::Ct.build();
    let mut rng = Sha256CtrRng::seed_from_u64(9);

    let mut session = client
        .session_open(&kem, backend.as_mut(), BackendKind::Ct, 3000, &mut rng)
        .expect("open");
    // Capture the exact bytes of seq 0, deliver them once...
    let sealed = session.seal_next(b"first");
    let msg = |payload: Vec<u8>| RequestFrame {
        opcode: Opcode::SessionMsg,
        params_code: params_code(&lac::Params::lac128()),
        backend_code: BackendKind::Ct.code(),
        seq: 0,
        payload,
    };
    let reply = client.request(&msg(sealed.clone())).expect("first send");
    assert!(reply.error_message().is_none(), "honest frame must echo");
    session.open_reply(&reply.payload).expect("echo verifies");

    // ...then replay them verbatim: same tag, stale seq.
    let replayed = client.request(&msg(sealed)).expect("transport ok");
    let err = replayed.error_message().expect("replay must error");
    assert!(err.contains("replayed or reordered"), "{err}");

    // A skipped-ahead seq (2 while the server expects 1) is also a drop.
    let skipped = session::seal(
        &session.keys.to_server,
        Direction::ToServer,
        session.id,
        session.epoch,
        2,
        b"from the future",
    );
    let reordered = client.request(&msg(skipped)).expect("transport ok");
    let err = reordered.error_message().expect("reorder must error");
    assert!(err.contains("replayed or reordered"), "{err}");

    // The session survived both drops and continues at seq 1.
    client
        .session_send(&mut session, b"second")
        .expect("session still live");

    let mut control = Client::connect(&addr).expect("control");
    control.shutdown().expect("shutdown");
    let snapshot = handle.join().expect("server thread");
    assert_eq!(snapshot.sessions.replay_drops, 2);
    assert_eq!(snapshot.sessions.tag_failures, 0);
    assert_eq!(snapshot.sessions.open, 1);
}

/// A forged tag closes the *session* (its key material is gone) but the
/// connection stays in protocol: PING answers, other sessions still work.
#[test]
fn tag_mismatch_closes_the_session_but_not_the_connection() {
    let (addr, handle) = spawn(config(2));
    let mut client = Client::connect(&addr).expect("connect");
    let kem = Kem::new(lac::Params::lac128());
    let mut backend = BackendKind::Ct.build();
    let mut rng = Sha256CtrRng::seed_from_u64(10);

    let mut victim = client
        .session_open(&kem, backend.as_mut(), BackendKind::Ct, 4000, &mut rng)
        .expect("open victim");
    let mut bystander = client
        .session_open(&kem, backend.as_mut(), BackendKind::Ct, 4001, &mut rng)
        .expect("open bystander");

    let mut sealed = victim.seal_next(b"to be corrupted");
    let last = sealed.len() - 1;
    sealed[last] ^= 0x80;
    let reply = client
        .request(&RequestFrame {
            opcode: Opcode::SessionMsg,
            params_code: params_code(&lac::Params::lac128()),
            backend_code: BackendKind::Ct.code(),
            seq: 0,
            payload: sealed,
        })
        .expect("transport ok");
    let err = reply.error_message().expect("forgery must error");
    assert!(err.contains("tag mismatch"), "{err}");

    // Connection-level liveness, then session-level death.
    client.ping().expect("connection must survive the forgery");
    let gone = client
        .session_send(&mut victim, b"anyone home?")
        .expect_err("victim session must be closed");
    assert!(gone.contains("unknown session"), "{gone}");
    client
        .session_send(&mut bystander, b"unaffected")
        .expect("other sessions keep working");

    let mut control = Client::connect(&addr).expect("control");
    control.shutdown().expect("shutdown");
    let snapshot = handle.join().expect("server thread");
    assert_eq!(snapshot.sessions.tag_failures, 1);
    assert_eq!(snapshot.sessions.open, 1, "only the bystander remains");
}

/// Frames sealed under epoch N are still accepted right after the rekey
/// to N+1 (the one-epoch grace window keeps in-flight traffic decryptable),
/// but fall outside the window once epoch N+2 arrives.
#[test]
fn rekey_grace_window_spans_exactly_one_epoch() {
    let (addr, handle) = spawn(config(2));
    let mut client = Client::connect(&addr).expect("connect");
    let kem = Kem::new(lac::Params::lac128());
    let mut backend = BackendKind::Ct.build();
    let mut rng = Sha256CtrRng::seed_from_u64(11);

    let mut session = client
        .session_open(&kem, backend.as_mut(), BackendKind::Ct, 5000, &mut rng)
        .expect("open");
    let epoch0_keys = session.keys.clone();
    // Seal "in flight" under epoch 0, then rekey before it is delivered.
    let in_flight = session.seal_next(b"sealed before the rekey");
    client
        .session_rekey(
            &kem,
            backend.as_mut(),
            BackendKind::Ct,
            &mut session,
            5001,
            &mut rng,
        )
        .expect("rekey to epoch 1");

    let msg = |payload: Vec<u8>| RequestFrame {
        opcode: Opcode::SessionMsg,
        params_code: params_code(&lac::Params::lac128()),
        backend_code: BackendKind::Ct.code(),
        seq: 0,
        payload,
    };
    let reply = client.request(&msg(in_flight)).expect("transport ok");
    assert!(
        reply.error_message().is_none(),
        "epoch-0 frame must still open during epoch 1: {:?}",
        reply.error_message()
    );
    // The echo is sealed under the *current* epoch's keys.
    let echo = SessionFrame::decode(&reply.payload).expect("echo frame");
    assert_eq!(echo.epoch, 1);
    let body = session::open(&session.keys.to_client, Direction::ToClient, &echo)
        .expect("echo verifies under epoch-1 keys");
    assert_eq!(body, b"sealed before the rekey");
    session.recv_seq += 1; // consumed the echo outside open_reply

    // After a second rekey the epoch-0 keys are out of the window.
    client
        .session_rekey(
            &kem,
            backend.as_mut(),
            BackendKind::Ct,
            &mut session,
            5002,
            &mut rng,
        )
        .expect("rekey to epoch 2");
    let stale = session::seal(
        &epoch0_keys.to_server,
        Direction::ToServer,
        session.id,
        0,
        1,
        b"two epochs late",
    );
    let reply = client.request(&msg(stale)).expect("transport ok");
    let err = reply.error_message().expect("stale epoch must error");
    assert!(err.contains("outside the accept window"), "{err}");

    let mut control = Client::connect(&addr).expect("control");
    control.shutdown().expect("shutdown");
    let snapshot = handle.join().expect("server thread");
    assert_eq!(snapshot.sessions.rekeys, 2);
    assert_eq!(snapshot.sessions.replay_drops, 1);
    assert_eq!(snapshot.sessions.open, 1);
}

/// With `session_rekey_after = 2` the server refuses a third message in
/// the same epoch until the client rekeys.
#[test]
fn server_enforces_rekey_after_limit() {
    let (addr, handle) = spawn(ServeConfig {
        session_rekey_after: 2,
        ..config(2)
    });
    let mut client = Client::connect(&addr).expect("connect");
    let kem = Kem::new(lac::Params::lac128());
    let mut backend = BackendKind::Ct.build();
    let mut rng = Sha256CtrRng::seed_from_u64(12);

    let mut session = client
        .session_open(&kem, backend.as_mut(), BackendKind::Ct, 6000, &mut rng)
        .expect("open");
    client.session_send(&mut session, b"one").expect("msg 1");
    client.session_send(&mut session, b"two").expect("msg 2");
    let refused = client
        .session_send(&mut session, b"three")
        .expect_err("third message in the epoch must be refused");
    assert!(refused.contains("rekey required"), "{refused}");
    assert!(session.rekey_due(2), "client-side cadence check agrees");

    // The refusal burned a client-side seq the server never consumed;
    // rewind it, rekey (which resets the per-epoch budget), and resume.
    session.send_seq -= 1;
    client
        .session_rekey(
            &kem,
            backend.as_mut(),
            BackendKind::Ct,
            &mut session,
            6001,
            &mut rng,
        )
        .expect("rekey");
    client
        .session_send(&mut session, b"three again")
        .expect("after rekey");

    let mut control = Client::connect(&addr).expect("control");
    control.shutdown().expect("shutdown");
    let snapshot = handle.join().expect("server thread");
    assert_eq!(snapshot.sessions.rekeys, 1);
    assert_eq!(snapshot.sessions.messages, 3);
    assert_eq!(snapshot.sessions.open, 1);
}
