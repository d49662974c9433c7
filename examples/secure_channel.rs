//! Secure channel: the scenario the paper's introduction motivates —
//! post-quantum key establishment for embedded communication — running on
//! the repo's real session subsystem (`lac-session`).
//!
//! An in-process `lac-serve` server plays the constrained embedded node.
//! The client opens an authenticated session over the wire protocol
//! (`SESSION_OPEN`: the client sends a LAC public key, the server
//! encapsulates, both sides derive directional SHA-256-CTR keys), chats
//! sealed frames, rotates the keys with an authenticated rekey (epoch
//! 0 → 1), and closes. A final forged frame demonstrates the failure
//! mode: the server drops the session, the connection survives.
//!
//! Run: `cargo run --release --example secure_channel`

use lac::{Kem, Params};
use lac_rand::Sha256CtrRng;
use lac_serve::client::Client;
use lac_serve::pool::ServeConfig;
use lac_serve::server::Server;
use lac_serve::wire::{Opcode, RequestFrame};
use lac_serve::{params_code, BackendKind};
use std::time::Instant;

fn main() {
    // The embedded node: a serving reactor over the PQ-ALU backend model.
    let server = Server::bind(
        "127.0.0.1:0",
        ServeConfig {
            workers: 2,
            queue_capacity: 16,
            seed: [7u8; 32],
            ..ServeConfig::default()
        },
    )
    .expect("bind");
    let addr = server.local_addr().expect("addr").to_string();
    let server_thread = std::thread::spawn(move || server.run());

    let mut client = Client::connect(&addr).expect("connect");
    let params = Params::lac256();
    let kem = Kem::new(params);
    let mut backend = BackendKind::Hw.build();
    let mut rng = Sha256CtrRng::seed_from_u64(7);

    // Handshake: keygen locally, SESSION_OPEN on the wire, decapsulate
    // the server's ciphertext, derive epoch-0 directional keys.
    let started = Instant::now();
    let mut session = client
        .session_open(&kem, backend.as_mut(), BackendKind::Hw, 1, &mut rng)
        .expect("session open");
    println!(
        "session {} open at epoch {} ({} B pk / {} B ct handshake, {:.1} ms)",
        session.id,
        session.epoch,
        params.public_key_bytes(),
        params.ciphertext_bytes(),
        started.elapsed().as_secs_f64() * 1e3
    );

    // Sealed chat: stream-cipher + SHA-256 tag per frame, strict ordering.
    for text in ["attack at dawn", "via post-quantum channel"] {
        let started = Instant::now();
        let echo = client
            .session_send(&mut session, text.as_bytes())
            .expect("sealed chat");
        assert_eq!(echo, text.as_bytes());
        println!(
            "sealed round trip ({} B body, epoch {}, {:.2} ms): {:?}",
            text.len(),
            session.epoch,
            started.elapsed().as_secs_f64() * 1e3,
            String::from_utf8_lossy(&echo)
        );
    }

    // Rekey: a fresh KEM handshake authenticated under the current MAC
    // key rotates both directions' keys; the epoch tag keeps any frames
    // still in flight under the old keys decryptable.
    let old_secret = session.epoch_secret;
    client
        .session_rekey(
            &kem,
            backend.as_mut(),
            BackendKind::Hw,
            &mut session,
            2,
            &mut rng,
        )
        .expect("rekey");
    assert_ne!(old_secret, session.epoch_secret);
    println!("rekeyed to epoch {} (key material rotated)", session.epoch);
    let echo = client
        .session_send(&mut session, b"fresh keys, same session")
        .expect("chat after rekey");
    println!(
        "sealed round trip under epoch {}: {:?}",
        session.epoch,
        String::from_utf8_lossy(&echo)
    );

    // Tampering: flip one ciphertext bit — the constant-time tag check
    // fails, the server reaps the session, the connection lives on.
    let mut forged = session.seal_next(b"to be corrupted");
    let last = forged.len() - 1;
    forged[last] ^= 0x80;
    let reply = client
        .request(&RequestFrame {
            opcode: Opcode::SessionMsg,
            params_code: params_code(&params),
            backend_code: BackendKind::Hw.code(),
            seq: 0,
            payload: forged,
        })
        .expect("transport");
    println!(
        "tampered frame rejected ✔ ({})",
        reply.error_message().expect("forgery must fail")
    );
    client.ping().expect("connection survives the forgery");

    // The table reaped the session; the stats show the whole story.
    let mut control = Client::connect(&addr).expect("control connect");
    control.shutdown().expect("shutdown");
    let snapshot = server_thread.join().expect("server thread");
    println!(
        "server session stats: opened {}, rekeys {}, messages {}, tag failures {}, open at exit {}",
        snapshot.sessions.opened,
        snapshot.sessions.rekeys,
        snapshot.sessions.messages,
        snapshot.sessions.tag_failures,
        snapshot.sessions.open
    );
}
