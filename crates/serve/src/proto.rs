//! The optumd wire protocol.
//!
//! A tiny length-prefixed binary protocol: every frame is a `u32`
//! little-endian payload length followed by that many payload bytes.
//! The payload is a `u64` tag followed by the message fields in the
//! checkpoint codec's fixed-width little-endian layout, so both sides
//! of the durability story share one codec. Each message's layout is
//! stated once, as a tag table ([`optum_sim::snap_tagged!`]) over
//! [`optum_sim::Snap`] fields; encoder and decoder both come from it.
//!
//! Robustness rules (pinned by `tests/proto_roundtrip.rs`, together with
//! the FNV-1a of a corpus holding every message kind):
//!
//! * a frame longer than [`MAX_FRAME`] is **drained and rejected** —
//!   the reader consumes exactly the advertised bytes in bounded
//!   chunks, reports [`FrameError::Oversized`], and the stream stays
//!   framed (no desync);
//! * EOF on a length-prefix boundary is a clean close; EOF anywhere
//!   else is [`FrameError::Truncated`];
//! * undecodable payloads (unknown tag, short fields, trailing bytes,
//!   bad UTF-8, a word out of range for its field, a sequence longer
//!   than the bytes left) are [`ErrCode::Malformed`] — an error
//!   *reply*, never a panic and never a desync, because the frame
//!   boundary was already consumed before decoding began. Every
//!   single-bit flip of every corpus message is tested to decode or
//!   error.

use std::io::{self, Read, Write};
use std::net::TcpStream;

use optum_sim::Snap;
use optum_types::Result;

use crate::summary::SessionSummary;

/// Protocol version spoken by this build; echoed in [`Reply::HelloOk`].
///
/// v2 added session liveness: `hello` names a slot in a fixed slot
/// table (with an optional progress lease), replies gained `evicted`
/// (a laggard slot's unsubmitted pods were denied) and `draining`
/// (SIGTERM graceful shutdown), and `stats` carries per-slot health.
pub const PROTO_VERSION: u64 = 2;

/// Hard ceiling on a frame payload, in bytes. Nothing optumd speaks
/// comes near this; anything larger is a corrupt or hostile peer.
pub const MAX_FRAME: usize = 1 << 20;

/// Chunk size used to drain oversized frames without allocating them.
const DRAIN_CHUNK: usize = 64 * 1024;

/// Machine-readable error codes carried by [`Reply::Error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrCode {
    /// Frame decoded to garbage (unknown tag, short/trailing bytes,
    /// bad UTF-8).
    Malformed,
    /// Frame length exceeded [`MAX_FRAME`].
    Oversized,
    /// First message was not `hello`, or `hello` repeated/mismatched.
    BadHandshake,
    /// Submission violated trace order or the virtual clock.
    OutOfOrder,
    /// Request not valid in the session's current state.
    Unsupported,
    /// Server-side failure (checkpoint I/O, engine error).
    Internal,
}

optum_sim::snap_tagged!(ErrCode {
    1 => Malformed,
    2 => Oversized,
    3 => BadHandshake,
    4 => OutOfOrder,
    5 => Unsupported,
    6 => Internal,
});

/// Client → server messages.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Session handshake; must be the first message on every
    /// connection. The workload parameters let the server verify the
    /// client generated the same trace it is serving.
    Hello {
        /// Free-form client identity (diagnostics only; never enters
        /// the deterministic state).
        client: String,
        /// Trace seed the client generated against.
        seed: u64,
        /// Host count of the client's workload.
        hosts: u64,
        /// Trace window in days.
        days: u64,
        /// Arrival-rate multiplier, as IEEE-754 bits so equality is
        /// exact on the wire.
        rate_bits: u64,
        /// Admission queue cap the client expects, if any.
        queue_cap: Option<u64>,
        /// Submission slot this connection binds to (trace pods are
        /// partitioned round-robin over slots). A reconnect re-hellos
        /// the same slot and resumes its cursor.
        slot: u64,
        /// Total slot count of the session; every connection must
        /// agree (the first `hello` fixes the table).
        slots: u64,
        /// Progress lease in virtual ticks the client expects, if any;
        /// must match the server's configured lease.
        lease: Option<u64>,
    },
    /// Submit the next pod of the trace at virtual tick `tick`.
    Submit {
        /// Virtual tick of submission (must be ≥ the pod's rescaled
        /// arrival tick and ≥ the engine's clock).
        tick: u64,
        /// Pod id (trace position).
        pod: u32,
    },
    /// Query the outcome of a previously submitted pod.
    Complete {
        /// Pod id to query.
        pod: u32,
    },
    /// Snapshot of live engine counters.
    Stats,
    /// Force a durability checkpoint now.
    Checkpoint,
    /// No more submissions from this connection; run the session to
    /// the end of its window and return the summary.
    Drain,
    /// Final acknowledgement: the client received its `Drained`
    /// summary and is closing. Lets the server's post-completion
    /// linger phase end without waiting out its idle timeout; losing
    /// it costs only wall clock, never correctness.
    Bye,
}

/// Server → client messages.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// Handshake accepted.
    HelloOk {
        /// Server protocol version ([`PROTO_VERSION`]).
        proto: u64,
        /// Tick the session will resume/start stepping from.
        resume_tick: u64,
        /// Trace index of the next pod the engine expects.
        next_pod: u64,
        /// Exclusive end of the session window.
        end_tick: u64,
        /// Owned pods this slot has already covered (its submission
        /// cursor). A reconnecting client resumes from here instead of
        /// replaying its whole plan — with per-frame fault rates, full
        /// replay makes the survivable prefix shrink below the
        /// already-covered region and progress stalls permanently.
        cursor: u64,
    },
    /// Pod admitted into the pending queue at `tick`.
    Queued { pod: u32, tick: u64 },
    /// Pod denied service by admission control at `tick` — the
    /// protocol-level backpressure signal.
    Shed { pod: u32, tick: u64 },
    /// Pod was already processed (duplicate after resume).
    Dup { pod: u32 },
    /// Outcome of a pod so far; absent fields are `None`.
    PodStatus {
        pod: u32,
        placed_at: Option<u64>,
        node: Option<u64>,
        completed_at: Option<u64>,
        shed_at: Option<u64>,
        evictions: u64,
    },
    /// Live counters at `tick`, plus per-slot session health.
    StatsOk {
        tick: u64,
        pending: u64,
        running: u64,
        arrivals: u64,
        admitted: u64,
        shed: u64,
        /// Slots evicted so far.
        evicted: u64,
        /// Pods denied by eviction so far.
        denied: u64,
        /// Live per-slot health, in slot order.
        health: Vec<SlotHealth>,
    },
    /// Checkpoint written covering state up to `tick`.
    CheckpointOk { tick: u64 },
    /// Session complete; the deterministic outcome panel.
    Drained(SessionSummary),
    /// The slot this connection was bound to has been evicted: it
    /// failed to advance its watermark within its lease (or its
    /// connection died permanently). `denied` counts its unsubmitted
    /// pods denied so far; the server closes the connection after
    /// sending this.
    Evicted { slot: u64, tick: u64, denied: u64 },
    /// The server is shutting down gracefully (SIGTERM): state was
    /// checkpointed at `tick` and no further submissions are accepted.
    Draining { tick: u64 },
    /// Request rejected; the stream remains usable.
    Error { code: ErrCode, message: String },
}

/// Live health of one submission slot, carried by [`Reply::StatsOk`]
/// so a stalled session is observable before its lease bites.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotHealth {
    /// Slot index.
    pub slot: u64,
    /// Highest virtual tick the slot has vouched for.
    pub watermark: u64,
    /// Ticks of frontier progress left before the slot's lease
    /// expires; `None` when no lease is configured (or the slot is
    /// already draining/evicted).
    pub lease_remaining: Option<u64>,
    /// Slot state: 0 = active (attached), 1 = active (disconnected),
    /// 2 = draining, 3 = evicted.
    pub state: u64,
}

optum_sim::snap_fields!(SlotHealth {
    slot,
    watermark,
    lease_remaining,
    state
});

// The tag tables: a message is its tag word, then its fields in the
// order listed (`pod` ids are `u32` widened to a word).
optum_sim::snap_tagged!(Request {
    1 => Hello { client, seed, hosts, days, rate_bits, queue_cap, slot, slots, lease },
    2 => Submit { tick, pod },
    3 => Complete { pod },
    4 => Stats,
    5 => Checkpoint,
    6 => Drain,
    7 => Bye,
});

optum_sim::snap_tagged!(Reply {
    64 => HelloOk { proto, resume_tick, next_pod, end_tick, cursor },
    65 => Queued { pod, tick },
    66 => Shed { pod, tick },
    67 => Dup { pod },
    68 => PodStatus { pod, placed_at, node, completed_at, shed_at, evictions },
    69 => StatsOk { tick, pending, running, arrivals, admitted, shed, evicted, denied, health },
    70 => CheckpointOk { tick },
    71 => Drained(summary),
    72 => Error { code, message },
    73 => Evicted { slot, tick, denied },
    74 => Draining { tick },
});

impl Request {
    /// Encodes the request payload (tag + fields, no length prefix).
    pub fn encode(&self) -> Vec<u8> {
        self.snap_bytes()
    }

    /// Decodes a request payload. Rejects unknown tags, out-of-range
    /// words and trailing bytes so a corrupted frame cannot be
    /// half-understood.
    pub fn decode(payload: &[u8]) -> Result<Request> {
        Request::unsnap_exact(payload)
    }
}

impl Reply {
    /// Encodes the reply payload (tag + fields, no length prefix).
    pub fn encode(&self) -> Vec<u8> {
        self.snap_bytes()
    }

    /// Decodes a reply payload with the same strictness as
    /// [`Request::decode`].
    pub fn decode(payload: &[u8]) -> Result<Reply> {
        Reply::unsnap_exact(payload)
    }
}

/// How reading one frame from a peer went wrong.
#[derive(Debug)]
pub enum FrameError {
    /// Peer closed the stream on a frame boundary.
    CleanClose,
    /// Peer closed mid-length-prefix or mid-payload.
    Truncated,
    /// Declared payload length exceeded [`MAX_FRAME`]; the payload was
    /// drained so the stream is still framed.
    Oversized(usize),
    /// Transport-level I/O failure.
    Io(io::Error),
}

/// Writes one length-prefixed frame.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    debug_assert!(payload.len() <= MAX_FRAME);
    let len = payload.len() as u32;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(payload)
}

/// Reads one length-prefixed frame payload, enforcing the framing
/// robustness rules documented at module level.
pub fn read_frame(r: &mut impl Read) -> std::result::Result<Vec<u8>, FrameError> {
    let mut len_buf = [0u8; 4];
    match read_exact_or_eof(r, &mut len_buf) {
        ReadStatus::Full => {}
        ReadStatus::CleanEof => return Err(FrameError::CleanClose),
        ReadStatus::PartialEof => return Err(FrameError::Truncated),
        ReadStatus::Io(e) => return Err(FrameError::Io(e)),
    }
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > MAX_FRAME {
        // Consume the advertised payload in bounded chunks so the
        // next frame starts at the right offset, then reject.
        let mut left = len;
        let mut chunk = [0u8; DRAIN_CHUNK];
        while left > 0 {
            let take = left.min(DRAIN_CHUNK);
            match read_exact_or_eof(r, &mut chunk[..take]) {
                ReadStatus::Full => left -= take,
                ReadStatus::CleanEof | ReadStatus::PartialEof => return Err(FrameError::Truncated),
                ReadStatus::Io(e) => return Err(FrameError::Io(e)),
            }
        }
        return Err(FrameError::Oversized(len));
    }
    let mut payload = vec![0u8; len];
    match read_exact_or_eof(r, &mut payload) {
        ReadStatus::Full => Ok(payload),
        ReadStatus::CleanEof if len == 0 => Ok(payload),
        ReadStatus::CleanEof | ReadStatus::PartialEof => Err(FrameError::Truncated),
        ReadStatus::Io(e) => Err(FrameError::Io(e)),
    }
}

enum ReadStatus {
    Full,
    CleanEof,
    PartialEof,
    Io(io::Error),
}

fn read_exact_or_eof(r: &mut impl Read, buf: &mut [u8]) -> ReadStatus {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) if filled == 0 => return ReadStatus::CleanEof,
            Ok(0) => return ReadStatus::PartialEof,
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return ReadStatus::Io(e),
        }
    }
    ReadStatus::Full
}

/// Convenience: frame-encode and send a request.
pub fn send_request(w: &mut impl Write, req: &Request) -> io::Result<()> {
    write_frame(w, &req.encode())
}

/// Convenience: frame-encode and send a reply.
pub fn send_reply(w: &mut impl Write, reply: &Reply) -> io::Result<()> {
    write_frame(w, &reply.encode())
}

/// Makes a freshly opened socket latency-correct: `TCP_NODELAY` on.
/// Every stream the product creates — accepted or connected, server,
/// driver or chaos proxy — passes through here exactly once, at birth.
///
/// Both peers write whole frames into a `BufWriter` and flush when they
/// have nothing more to say, so the userspace buffer is the one place
/// frames are coalesced. Nagle on top of that only ever *holds* a
/// flushed frame: until the peer's next segment carries the ACK of the
/// previous one or, when the peer has nothing to send, until its
/// 40 ms delayed-ACK timer fires. There is no workload where that wait
/// buys anything here, hence no switch.
///
/// The result of `set_nodelay` is dropped on purpose: it fails only on
/// a socket that is already dead, and the first read or write on that
/// socket reports the same condition to code that can act on it.
pub fn tune(stream: &TcpStream) {
    let _ = stream.set_nodelay(true);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip_over_cursor() {
        let mut buf = Vec::new();
        let req = Request::Submit { tick: 9, pod: 42 };
        send_request(&mut buf, &req).unwrap();
        let mut cur = std::io::Cursor::new(buf);
        let payload = read_frame(&mut cur).unwrap();
        assert_eq!(Request::decode(&payload).unwrap(), req);
        assert!(matches!(read_frame(&mut cur), Err(FrameError::CleanClose)));
    }

    #[test]
    fn oversized_frame_is_drained_not_allocated() {
        let len = (MAX_FRAME + 3) as u32;
        let mut buf = len.to_le_bytes().to_vec();
        buf.extend(std::iter::repeat_n(0u8, len as usize));
        // A trailing valid frame must still parse after the drain.
        send_request(&mut buf, &Request::Stats).unwrap();
        let mut cur = std::io::Cursor::new(buf);
        match read_frame(&mut cur) {
            Err(FrameError::Oversized(n)) => assert_eq!(n, len as usize),
            other => panic!("expected oversized, got {other:?}"),
        }
        let payload = read_frame(&mut cur).unwrap();
        assert_eq!(Request::decode(&payload).unwrap(), Request::Stats);
    }

    #[test]
    fn tuned_loopback_pair_has_nodelay_on_both_ends() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let connected = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (accepted, _) = listener.accept().unwrap();
        assert!(!connected.nodelay().unwrap(), "the OS default is Nagle on");
        tune(&connected);
        tune(&accepted);
        assert!(connected.nodelay().unwrap());
        assert!(accepted.nodelay().unwrap());
    }

    /// Every socket the product opens is born through [`tune`]. Per
    /// source file: how many `TcpStream::connect*` calls and
    /// `.incoming()` loops it has, and how many `tune(` calls. The only
    /// untuned births are the two self-wake connects (`Server::run`,
    /// `ChaosProxy::drop`), which are dropped without carrying a byte.
    /// A new socket makes a count move: tune it, then update the row.
    #[test]
    fn every_product_socket_is_born_through_tune() {
        let code = |src: &str| -> String {
            src.lines()
                .filter(|l| !l.trim_start().starts_with("//"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        for (file, src, connects, accepts, tuned) in [
            ("server.rs", include_str!("server.rs"), 1, 1, 1),
            ("driver.rs", include_str!("driver.rs"), 1, 0, 1),
            ("netchaos.rs", include_str!("netchaos.rs"), 2, 1, 2),
        ] {
            let src = code(src);
            let count = |needle: &str| src.matches(needle).count();
            assert_eq!(count("TcpStream::connect"), connects, "{file}: connects");
            assert_eq!(count(".incoming()"), accepts, "{file}: accept loops");
            assert_eq!(count("tune(&"), tuned, "{file}: tuned sockets");
        }
    }
}
