//! Wire-protocol robustness: every message round-trips, and no
//! malformed frame can panic the codec or desync the stream.

use optum_serve::{
    read_frame, write_frame, ClassSummary, ErrCode, FrameError, Reply, Request, SessionSummary,
    SlotHealth, MAX_FRAME,
};
use optum_sim::SnapWriter;
use proptest::prelude::*;

/// Builds one of every request kind from drawn primitives.
fn request_from(kind: u64, a: u64, b: u64, cap: Option<u64>, text: &[u8]) -> Request {
    match kind % 7 {
        0 => Request::Hello {
            client: String::from_utf8_lossy(text).into_owned(),
            seed: a,
            hosts: b,
            days: a ^ b,
            rate_bits: 1.5f64.to_bits(),
            queue_cap: cap,
            slot: a % 7,
            slots: a % 7 + 1 + b % 9,
            lease: cap.map(|c| c.wrapping_add(1)),
        },
        1 => Request::Submit {
            tick: a,
            pod: b as u32,
        },
        2 => Request::Complete { pod: a as u32 },
        3 => Request::Stats,
        4 => Request::Checkpoint,
        5 => Request::Drain,
        _ => Request::Bye,
    }
}

/// Builds one of every reply kind from drawn primitives.
fn reply_from(kind: u64, a: u64, b: u64, opt: Option<u64>, text: &[u8]) -> Reply {
    match kind % 11 {
        0 => Reply::HelloOk {
            proto: a,
            resume_tick: b,
            next_pod: a ^ b,
            end_tick: a.wrapping_add(b),
            cursor: b.wrapping_mul(3),
        },
        1 => Reply::Queued {
            pod: a as u32,
            tick: b,
        },
        2 => Reply::Shed {
            pod: a as u32,
            tick: b,
        },
        3 => Reply::Dup { pod: a as u32 },
        4 => Reply::PodStatus {
            pod: a as u32,
            placed_at: opt,
            node: opt.map(|x| x ^ 1),
            completed_at: opt.map(|x| x.wrapping_add(b)),
            shed_at: None,
            evictions: b,
        },
        5 => Reply::StatsOk {
            tick: a,
            pending: b,
            running: a ^ b,
            arrivals: a,
            admitted: b,
            shed: a.min(b),
            evicted: a % 5,
            denied: b % 1000,
            health: (0..(a % 4))
                .map(|i| SlotHealth {
                    slot: i,
                    watermark: b.wrapping_add(i),
                    lease_remaining: opt.map(|x| x ^ i),
                    state: i % 4,
                })
                .collect(),
        },
        6 => Reply::CheckpointOk { tick: a },
        7 => Reply::Drained(SessionSummary {
            digest: a,
            end_tick: b,
            pods: a.wrapping_mul(3),
            placed: b / 2,
            completed: b / 3,
            shed: b / 5,
            throttled_end: b / 7,
            disconnected: b / 11,
            denied_rate: (a % 1000) as f64 / 1000.0,
            per_class: vec![ClassSummary {
                class: (a % 6) as u8,
                arrivals: a,
                admitted: a / 2,
                shed: a / 3,
                throttled_end: a / 5,
                disconnected: a / 7,
                placed: b,
                completed: b / 2,
                p50_wait: a % 97,
                p99_wait: a % 911,
                p999_wait: a % 7919,
            }],
        }),
        8 => Reply::Evicted {
            slot: a % 64,
            tick: b,
            denied: a.wrapping_add(b),
        },
        9 => Reply::Draining { tick: a },
        _ => Reply::Error {
            code: [
                ErrCode::Malformed,
                ErrCode::Oversized,
                ErrCode::BadHandshake,
                ErrCode::OutOfOrder,
                ErrCode::Unsupported,
                ErrCode::Internal,
            ][(a % 6) as usize],
            message: String::from_utf8_lossy(text).into_owned(),
        },
    }
}

proptest! {
    #[test]
    fn every_request_roundtrips(
        kab in (0u64..7, 0u64..u64::MAX, 0u64..u32::MAX as u64),
        cap in proptest::option::of(0u64..1_000_000),
        text in proptest::collection::vec(0u8..255, 0..24),
    ) {
        let (kind, a, b) = kab;
        let req = request_from(kind, a, b, cap, &text);
        let decoded = Request::decode(&req.encode()).expect("well-formed request decodes");
        prop_assert_eq!(decoded, req);
    }

    #[test]
    fn every_reply_roundtrips(
        kab in (0u64..11, 0u64..u64::MAX, 0u64..u64::MAX),
        opt in proptest::option::of(0u64..u64::MAX),
        text in proptest::collection::vec(0u8..255, 0..24),
    ) {
        let (kind, a, b) = kab;
        let reply = reply_from(kind, a, b, opt, &text);
        let decoded = Reply::decode(&reply.encode()).expect("well-formed reply decodes");
        prop_assert_eq!(decoded, reply);
    }

    /// Arbitrary bytes never panic the decoders — they either decode
    /// or return a protocol error.
    #[test]
    fn random_payloads_never_panic(bytes in proptest::collection::vec(0u8..255, 0..256)) {
        let _ = Request::decode(&bytes);
        let _ = Reply::decode(&bytes);
        prop_assert!(true);
    }

    /// Every strict prefix of a valid encoding is rejected, not
    /// half-decoded: a truncated frame cannot smuggle a message.
    #[test]
    fn truncated_requests_are_rejected(
        kab in (0u64..7, 0u64..u64::MAX, 0u64..u32::MAX as u64),
    ) {
        let (kind, a, b) = kab;
        let full = request_from(kind, a, b, Some(9), b"trunc").encode();
        for cut in 0..full.len() {
            prop_assert!(Request::decode(&full[..cut]).is_err());
        }
    }

    /// Trailing garbage after a valid message is rejected.
    #[test]
    fn trailing_bytes_are_rejected(
        kab in (0u64..7, 0u64..u64::MAX, 0u64..u32::MAX as u64),
        extra in proptest::collection::vec(0u8..255, 1..16),
    ) {
        let (kind, a, b) = kab;
        let mut full = request_from(kind, a, b, None, b"x").encode();
        full.extend_from_slice(&extra);
        prop_assert!(Request::decode(&full).is_err());
    }

    /// A chaos-mangled frame stream — valid frames with a random tail
    /// cut and random byte flips, the exact damage the netchaos proxy
    /// inflicts — never panics the framing or message decoders: every
    /// frame either decodes or errors, and reading always terminates.
    #[test]
    fn mangled_frame_streams_never_panic_or_wedge(
        kinds in proptest::collection::vec(0u64..7, 1..8),
        cut_frac in 0.0f64..1.0,
        flips in proptest::collection::vec((0usize..4096, 0u8..255), 0..6),
    ) {
        let mut wire = Vec::new();
        for (i, &kind) in kinds.iter().enumerate() {
            let req = request_from(kind, i as u64, i as u64 + 7, Some(i as u64), b"chaos");
            write_frame(&mut wire, &req.encode()).unwrap();
        }
        let cut = ((wire.len() as f64) * cut_frac) as usize;
        wire.truncate(cut);
        for &(at, val) in &flips {
            if !wire.is_empty() {
                let at = at % wire.len();
                wire[at] ^= val;
            }
        }
        let mut cursor = std::io::Cursor::new(&wire);
        // Bounded by construction: every iteration either consumes at
        // least the 4-byte prefix or errors out.
        for _ in 0..kinds.len() + 1 {
            match read_frame(&mut cursor) {
                Ok(payload) => { let _ = Request::decode(&payload); }
                Err(_) => break,
            }
        }
        prop_assert!(true);
    }

    /// A truncated length prefix or payload surfaces as a framing
    /// error, never a panic or a bogus payload.
    #[test]
    fn truncated_frames_error_cleanly(cut_at in 0usize..12) {
        let mut wire = Vec::new();
        write_frame(&mut wire, &Request::Stats.encode()).unwrap();
        let cut = cut_at.min(wire.len().saturating_sub(1)).max(1);
        let mut cursor = std::io::Cursor::new(&wire[..cut]);
        match read_frame(&mut cursor) {
            Err(FrameError::Truncated) => prop_assert!(true),
            Ok(payload) => prop_assert!(
                false,
                "truncated stream produced a payload of {} bytes",
                payload.len()
            ),
            Err(_) => prop_assert!(true),
        }
    }
}

/// Bad UTF-8 inside a string field is a decode error, not a panic.
#[test]
fn bad_utf8_in_hello_is_rejected() {
    let mut w = SnapWriter::new();
    w.put_u64(1); // hello tag
    w.put_bytes(&[0xff, 0xfe, 0x80]); // invalid UTF-8 "client"
    w.put_u64(42);
    w.put_u64(60);
    w.put_u64(2);
    w.put_u64(1.0f64.to_bits());
    w.put_u64(0); // no queue cap
    let err = Request::decode(&w.into_bytes());
    assert!(err.is_err(), "invalid UTF-8 must not decode: {err:?}");
}

/// An unknown tag is rejected outright.
#[test]
fn unknown_tags_are_rejected() {
    let mut w = SnapWriter::new();
    w.put_u64(999);
    let bytes = w.into_bytes();
    assert!(Request::decode(&bytes).is_err());
    assert!(Reply::decode(&bytes).is_err());
}

/// An oversized frame is drained, reported, and the stream stays
/// framed: the next frame parses normally.
#[test]
fn oversized_frame_does_not_desync() {
    let huge = (MAX_FRAME + 1) as u32;
    let mut wire = huge.to_le_bytes().to_vec();
    wire.extend(std::iter::repeat_n(0xAAu8, huge as usize));
    write_frame(&mut wire, &Request::Drain.encode()).unwrap();
    let mut cursor = std::io::Cursor::new(wire);
    assert!(matches!(
        read_frame(&mut cursor),
        Err(FrameError::Oversized(_))
    ));
    let next = read_frame(&mut cursor).expect("stream still framed after drain");
    assert_eq!(Request::decode(&next).unwrap(), Request::Drain);
}

/// One of every request and reply variant, optional fields both
/// present and absent: what the wire pin hashes and the bit-flip sweep
/// mutates.
fn corpus() -> (Vec<Request>, Vec<Reply>) {
    let class = |class: u8, n: u64| ClassSummary {
        class,
        arrivals: 10 * n,
        admitted: 9 * n,
        shed: n,
        throttled_end: 0,
        disconnected: 0,
        placed: 9 * n,
        completed: 8 * n,
        p50_wait: n,
        p99_wait: 3 * n,
        p999_wait: 7 * n,
    };
    let requests = vec![
        Request::Hello {
            client: "optumload".into(),
            seed: 42,
            hosts: 60,
            days: 2,
            rate_bits: 1.0f64.to_bits(),
            queue_cap: Some(512),
            slot: 1,
            slots: 4,
            lease: Some(600),
        },
        Request::Hello {
            client: String::new(),
            seed: 7,
            hosts: 200,
            days: 8,
            rate_bits: 3.0f64.to_bits(),
            queue_cap: None,
            slot: 0,
            slots: 1,
            lease: None,
        },
        Request::Submit {
            tick: 1234,
            pod: 98_765,
        },
        Request::Complete { pod: u32::MAX },
        Request::Stats,
        Request::Checkpoint,
        Request::Drain,
        Request::Bye,
    ];
    let replies = vec![
        Reply::HelloOk {
            proto: 2,
            resume_tick: 2000,
            next_pod: 4321,
            end_tick: 5760,
            cursor: 17,
        },
        Reply::Queued { pod: 5, tick: 6 },
        Reply::Shed { pod: 7, tick: 8 },
        Reply::Dup { pod: 9 },
        Reply::PodStatus {
            pod: 11,
            placed_at: Some(12),
            node: Some(3),
            completed_at: Some(40),
            shed_at: None,
            evictions: 2,
        },
        Reply::PodStatus {
            pod: 13,
            placed_at: None,
            node: None,
            completed_at: None,
            shed_at: Some(14),
            evictions: 0,
        },
        Reply::StatsOk {
            tick: 100,
            pending: 3,
            running: 50,
            arrivals: 60,
            admitted: 55,
            shed: 5,
            evicted: 1,
            denied: 10,
            health: vec![
                SlotHealth {
                    slot: 0,
                    watermark: 99,
                    lease_remaining: Some(500),
                    state: 0,
                },
                SlotHealth {
                    slot: 1,
                    watermark: 42,
                    lease_remaining: None,
                    state: 3,
                },
            ],
        },
        Reply::CheckpointOk { tick: 2000 },
        Reply::Drained(SessionSummary {
            digest: 0x3681_e16c_df3c_8ecd,
            end_tick: 5760,
            pods: 300,
            placed: 270,
            completed: 240,
            shed: 30,
            throttled_end: 0,
            disconnected: 0,
            denied_rate: 0.1,
            per_class: vec![class(3, 1), class(4, 2), class(5, 7)],
        }),
        Reply::Evicted {
            slot: 2,
            tick: 700,
            denied: 1107,
        },
        Reply::Draining { tick: 1500 },
        Reply::Error {
            code: ErrCode::Malformed,
            message: "unknown request tag 999".into(),
        },
        Reply::Error {
            code: ErrCode::Internal,
            message: "checkpoint: disk full".into(),
        },
    ];
    (requests, replies)
}

/// FNV-1a of the framed corpus, recorded before the codec was
/// re-expressed as one `Snap` declaration per message: the wire bytes
/// are the protocol, not a property of how the codec is written.
const PINNED_WIRE_FNV: u64 = 0x1778_7fa7_c8c6_4ca4;

#[test]
fn corpus_wire_bytes_are_pinned() {
    let (requests, replies) = corpus();
    let mut wire = Vec::new();
    for req in &requests {
        write_frame(&mut wire, &req.encode()).unwrap();
    }
    for reply in &replies {
        write_frame(&mut wire, &reply.encode()).unwrap();
    }
    let hash = optum_sim::checkpoint::fnv1a(&wire);
    assert_eq!(
        (requests.len() + replies.len(), wire.len(), hash),
        (21, 1257, PINNED_WIRE_FNV),
        "wire bytes changed: {hash:#018x} over {} B",
        wire.len()
    );
}

/// Every single-bit flip of every corpus message decodes or errors,
/// under either decoder, and never panics.
#[test]
fn every_bit_flip_of_the_corpus_decodes_or_errors() {
    let (requests, replies) = corpus();
    let payloads = requests
        .iter()
        .map(Request::encode)
        .chain(replies.iter().map(Reply::encode));
    for payload in payloads {
        for bit in 0..payload.len() * 8 {
            let mut bytes = payload.clone();
            bytes[bit / 8] ^= 1 << (bit % 8);
            let _ = Request::decode(&bytes);
            let _ = Reply::decode(&bytes);
        }
    }
}

/// Narrow fields are range-checked, not truncated: a summary row whose
/// class word is 259 is refused rather than read as class 3.
#[test]
fn out_of_range_class_word_is_rejected() {
    let (_, replies) = corpus();
    let drained = replies
        .iter()
        .find(|r| matches!(r, Reply::Drained(_)))
        .unwrap();
    let mut bytes = drained.encode();
    // Tag, eight counters, the denied rate and the row count precede
    // the first row's class word.
    let at = 8 * 11;
    assert_eq!(bytes[at..at + 8], 3u64.to_le_bytes());
    assert!(Reply::decode(&bytes).is_ok());
    bytes[at..at + 8].copy_from_slice(&(256u64 + 3).to_le_bytes());
    assert!(Reply::decode(&bytes).is_err());
}
