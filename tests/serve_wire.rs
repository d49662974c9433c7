//! Wire-protocol robustness: seeded property fuzzing of the incremental
//! frame decoder (arbitrary splits, truncation, oversize claims, header
//! corruption), an exhaustive opcode-byte round trip, seeded fuzz of the
//! authenticated session-frame codec, plus a live overload test: a server
//! with a tiny queue must shed a pipelined burst with `BUSY` while `PING`
//! still answers and new connections are still accepted.
//!
//! Replay a failing prop case with `LAC_PROP_SEED=<index>` (or the
//! printed `hex:` tape) as documented in `lac_rand::prop`.

use lac::Params;
use lac_rand::prop::{self, ensure, ensure_eq};
use lac_rand::Rng;
use lac_serve::client::Client;
use lac_serve::pool::ServeConfig;
use lac_serve::server::Server;
use lac_serve::wire::{self, FrameDecoder, Opcode, RequestFrame, MAX_PAYLOAD, REQUEST_HEADER};
use lac_serve::{params_code, BackendKind};
use std::io::{BufReader, Write};
use std::net::TcpStream;

/// Draw one random-but-valid request frame. KEM opcodes get arbitrary
/// payload bytes (content is validated by workers, not the decoder).
fn arbitrary_frame(rng: &mut impl Rng) -> RequestFrame {
    let opcode = [
        Opcode::Keygen,
        Opcode::Encaps,
        Opcode::Decaps,
        Opcode::Stats,
        Opcode::Shutdown,
        Opcode::Ping,
    ][rng.gen_below_usize(6)];
    RequestFrame {
        opcode,
        params_code: rng.next_u32() as u8,
        backend_code: rng.next_u32() as u8,
        seq: rng.next_u64(),
        payload: {
            let len = rng.gen_below_usize(300);
            prop::bytes(rng, len)
        },
    }
}

fn serialize(frames: &[RequestFrame]) -> Vec<u8> {
    let mut bytes = Vec::new();
    for frame in frames {
        wire::write_request(&mut bytes, frame).expect("vec write");
    }
    bytes
}

#[test]
fn decoder_yields_identical_frames_for_any_split() {
    prop::check("serve_wire_decoder_splits", 48, |rng| {
        let frames: Vec<RequestFrame> = (0..rng.gen_range_usize(1..6))
            .map(|_| arbitrary_frame(rng))
            .collect();
        let bytes = serialize(&frames);

        // Feed the stream in random-sized chunks (including empty ones)
        // and decode incrementally.
        let mut decoder = FrameDecoder::new();
        let mut decoded = Vec::new();
        let mut at = 0;
        while at < bytes.len() {
            let take = rng.gen_below_usize(bytes.len() - at + 1);
            decoder.feed(&bytes[at..at + take]);
            at += take;
            while let Some(frame) = decoder
                .next_frame()
                .map_err(|e| format!("valid stream rejected: {e}"))?
            {
                decoded.push(frame);
            }
        }
        ensure_eq(decoded.len(), frames.len())?;
        for (got, want) in decoded.iter().zip(&frames) {
            ensure_eq(got, want)?;
        }
        ensure(
            !decoder.has_partial(),
            "no leftover bytes after a whole stream",
        )
    });
}

#[test]
fn decoder_flags_truncation_as_partial_not_error() {
    prop::check("serve_wire_decoder_truncation", 48, |rng| {
        let frame = arbitrary_frame(rng);
        let bytes = serialize(std::slice::from_ref(&frame));
        // Cut strictly inside the frame (header or payload).
        let cut = 1 + rng.gen_below_usize(bytes.len() - 1);
        let mut decoder = FrameDecoder::new();
        decoder.feed(&bytes[..cut]);
        let first = decoder
            .next_frame()
            .map_err(|e| format!("truncation must not be a protocol error: {e}"))?;
        ensure(first.is_none(), "half a frame must not decode")?;
        ensure(decoder.has_partial(), "truncated bytes count as partial")?;
        // The remainder completes the frame.
        decoder.feed(&bytes[cut..]);
        let frame2 = decoder
            .next_frame()
            .map_err(|e| format!("completed stream rejected: {e}"))?;
        ensure_eq(frame2.as_ref(), Some(&frame))
    });
}

#[test]
fn decoder_rejects_corrupt_headers_and_oversize_claims() {
    prop::check("serve_wire_decoder_corruption", 48, |rng| {
        let frame = arbitrary_frame(rng);
        let mut bytes = serialize(std::slice::from_ref(&frame));

        match rng.gen_below_usize(4) {
            // Oversize length claim: rejected from the header alone,
            // before any payload is buffered.
            0 => {
                let oversize = MAX_PAYLOAD + 1 + rng.next_u32() % 1024;
                bytes[14..18].copy_from_slice(&oversize.to_le_bytes());
                bytes.truncate(REQUEST_HEADER);
            }
            // Corrupt magic.
            1 => bytes[rng.gen_below_usize(2)] ^= 0xff,
            // Wrong version.
            2 => bytes[2] = bytes[2].wrapping_add(1 + (rng.next_u32() % 254) as u8),
            // Unknown opcode: the unassigned 7, or past the last code.
            _ => bytes[3] = [7, 11 + (rng.next_u32() % 245) as u8][rng.gen_below_usize(2)],
        }

        let mut decoder = FrameDecoder::new();
        decoder.feed(&bytes);
        ensure(
            decoder.next_frame().is_err(),
            "corrupted header must be rejected",
        )
    });
}

#[test]
fn opcode_byte_round_trips_exhaustively() {
    // Walk the whole byte space: every decodable byte must encode back to
    // itself, and every other byte must be rejected — so adding an opcode
    // without wiring both directions (or reusing a code) fails here.
    let mut valid = 0;
    for byte in 0..=255u8 {
        match Opcode::from_code(byte) {
            Some(op) => {
                assert_eq!(op.code(), byte, "{op:?} must encode back to {byte}");
                valid += 1;
            }
            None => assert!(
                byte == 7 || !(1..=10).contains(&byte),
                "byte {byte} is in the assigned range but does not decode"
            ),
        }
    }
    assert_eq!(Opcode::from_code(7), None, "code 7 is unassigned");
    // 6 KEM/control opcodes + SessionOpen/SessionMsg/SessionClose.
    assert_eq!(valid, 9, "exactly the assigned opcodes decode");
}

#[test]
fn session_frame_codec_survives_chunking_truncation_and_corruption() {
    use lac_serve::session::{self, Direction, EpochKeys, SessionFrame, FRAME_OVERHEAD};

    prop::check("serve_wire_session_frames", 48, |rng| {
        // A random epoch secret gives a full key schedule; seal a random
        // body under the client→server keys.
        let mut secret = [0u8; 32];
        rng.fill_bytes(&mut secret);
        let keys = EpochKeys::derive(&secret);
        let session_id = rng.next_u64();
        let epoch = rng.next_u32();
        let seq = rng.next_u64();
        let body_len = rng.gen_below_usize(200);
        let body = prop::bytes(rng, body_len);
        let sealed = session::seal(
            &keys.to_server,
            Direction::ToServer,
            session_id,
            epoch,
            seq,
            &body,
        );

        // Ship the sealed payload inside a SessionMsg wire frame, feeding
        // the decoder in arbitrary chunks: the frame survives any split.
        let frame = RequestFrame {
            opcode: Opcode::SessionMsg,
            params_code: 0,
            backend_code: 0,
            seq: 0,
            payload: sealed.clone(),
        };
        let bytes = serialize(std::slice::from_ref(&frame));
        let mut decoder = FrameDecoder::new();
        let mut at = 0;
        let mut got = None;
        while at < bytes.len() {
            let take = 1 + rng.gen_below_usize(bytes.len() - at);
            decoder.feed(&bytes[at..at + take]);
            at += take;
            if let Some(frame) = decoder
                .next_frame()
                .map_err(|e| format!("valid session frame rejected: {e}"))?
            {
                got = Some(frame);
            }
        }
        let got = got.ok_or("session frame never decoded")?;
        ensure_eq(got.opcode, Opcode::SessionMsg)?;

        // The inner codec round-trips and the tag verifies...
        let inner = SessionFrame::decode(&got.payload).map_err(|e| format!("inner decode: {e}"))?;
        ensure_eq(inner.session_id, session_id)?;
        ensure_eq(inner.epoch, epoch)?;
        ensure_eq(inner.seq, seq)?;
        let opened = session::open(&keys.to_server, Direction::ToServer, &inner)
            .ok_or("honest frame must open")?;
        ensure_eq(opened, body.clone())?;

        // ...truncation below the fixed overhead is a decode error...
        let cut = rng.gen_below_usize(FRAME_OVERHEAD);
        ensure(
            SessionFrame::decode(&sealed[..cut]).is_err(),
            "short session frame must not decode",
        )?;

        // ...and any single-byte corruption still decodes structurally
        // (length is implicit) but must fail authentication.
        let mut corrupt = sealed.clone();
        let victim = rng.gen_below_usize(corrupt.len());
        corrupt[victim] ^= 1 + (rng.next_u32() % 255) as u8;
        match SessionFrame::decode(&corrupt) {
            Ok(forged) => ensure(
                session::open(&keys.to_server, Direction::ToServer, &forged).is_none(),
                "corrupted session frame must fail the tag",
            ),
            // Corrupting the header changes id/epoch/seq, which still
            // decodes; there is no length field to break.
            Err(e) => Err(format!("fixed-layout decode cannot fail: {e}")),
        }
    });
}

#[test]
fn overloaded_server_sheds_busy_but_stays_responsive() {
    // One slow worker behind a 2-deep queue: 32 keygen frames written in
    // one burst must overflow the queue, so the server sheds requests
    // with BUSY instead of stalling the reactor.
    let server = Server::bind(
        "127.0.0.1:0",
        ServeConfig {
            workers: 1,
            queue_capacity: 2,
            seed: [9u8; 32],
            ..ServeConfig::default()
        },
    )
    .expect("bind");
    let addr = server.local_addr().expect("addr");
    let handle = std::thread::spawn(move || server.run());

    let params = Params::lac128();
    let burst = serialize(
        &(0..32)
            .map(|i| RequestFrame {
                opcode: Opcode::Keygen,
                params_code: params_code(&params),
                backend_code: BackendKind::Ct.code(),
                seq: i + 1,
                payload: Vec::new(),
            })
            .collect::<Vec<_>>(),
    );

    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(&burst).expect("send burst");

    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let (mut ok, mut busy) = (0u32, 0u32);
    for _ in 0..32 {
        let item = wire::read_response(&mut reader).expect("item");
        if item.is_busy() {
            busy += 1;
        } else {
            assert!(item.error_message().is_none(), "only OK or BUSY expected");
            ok += 1;
        }
    }
    assert!(busy > 0, "a 2-deep queue must shed most of a 32-item burst");
    assert!(ok > 0, "accepted items must still complete");

    // The shedding connection is still in protocol: PING answers.
    wire::write_request(&mut stream, &RequestFrame::control(Opcode::Ping)).expect("ping");
    let pong = wire::read_response(&mut reader).expect("pong");
    assert_eq!(pong.payload, b"pong");

    // The server still accepts *new* connections after shedding...
    let mut fresh = Client::connect(&addr.to_string()).expect("fresh connect");
    assert!(fresh.ping().is_ok());
    // ...and drains gracefully on SHUTDOWN.
    fresh.shutdown().expect("shutdown");
    let snapshot = handle.join().expect("server thread");
    assert!(snapshot.frontend.shed_busy > 0, "{:?}", snapshot.frontend);
    assert_eq!(
        u64::from(ok),
        snapshot.requests[0],
        "every non-shed item reached the pool exactly once"
    );
    assert_eq!(snapshot.frontend.conns_open, 0);
}
