//! optumload: an open-loop load driver for optumd.
//!
//! The driver regenerates the same rescaled trace as the server,
//! round-robins its pods across `conns` submission slots, and streams
//! each slot's submissions *open-loop*: writes are never paced by
//! replies (per-connection reads happen only after the `drain` is on
//! the wire). Every connection then waits for the server's `Drained`
//! summary; the summaries must be identical across connections, and
//! that single [`SessionSummary`] — plus the wire-level admission
//! counters — is the driver's report.
//!
//! All slots complete their first handshake before any submission is
//! sent (a barrier), so the server never sees a partially-assembled
//! session drain early.
//!
//! # Resilience
//!
//! A slot outlives its connection. When a transport error, a server
//! force-close (e.g. a detected submission gap), or a read timeout
//! cuts a session short, the driver reconnects under capped
//! exponential backoff with deterministic jitter, re-`hello`s the same
//! slot, and resubmits its plan *from the start*: the server's
//! per-slot cursor answers `dup` for everything already covered, so
//! resubmission is idempotent and a killed-and-reconnected run
//! converges to the exact digest of an undisturbed one. Backoff jitter
//! comes from `SplitMix64::stream(seed, slot, CH_BACKOFF)` — wall
//! pacing, never part of deterministic output.

use std::io::{BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::sync::{Arc, Barrier};
use std::time::Duration;

use optum_types::{Error, Result, SplitMix64};

use crate::proto::{
    read_frame, send_request, tune, ErrCode, FrameError, Reply, Request, SlotHealth, PROTO_VERSION,
};
use crate::server::ServeConfig;
use crate::summary::SessionSummary;

/// Jitter channel for reconnect backoff (`stream(seed, slot, ..)`).
const CH_BACKOFF: u64 = 0x0B_AC;

/// Backoff ceiling: `backoff_ms * 2^attempt` never exceeds this.
const BACKOFF_CAP_MS: u64 = 2_000;

/// Configuration of one optumload run.
#[derive(Debug, Clone)]
pub struct DriverConfig {
    /// Server address, e.g. `127.0.0.1:7421`.
    pub addr: String,
    /// Session parameters; must match the server's (the handshake
    /// rejects mismatches).
    pub session: ServeConfig,
    /// Client connections — one per submission slot.
    pub conns: usize,
    /// Client identity string sent in `hello` (diagnostics only).
    pub client: String,
    /// Reconnect attempts per slot after a lost connection
    /// (0 = fail on the first loss, the PR 8 behavior).
    pub retries: u32,
    /// Base reconnect backoff in milliseconds; doubles per attempt,
    /// capped, plus deterministic jitter.
    pub backoff_ms: u64,
    /// Give up on a silent socket after this long and reconnect
    /// (`None` = wait forever). Guards against a dropped `drain`
    /// frame wedging the session.
    pub read_timeout_ms: Option<u64>,
    /// Fault hook: `(slot, after)` makes that slot's connection die
    /// permanently after `after` submissions — no drain, no reconnect.
    /// Models a client that is gone for good; with a server lease the
    /// session still completes (the slot is evicted).
    pub kill: Option<(usize, usize)>,
}

impl DriverConfig {
    /// A plain, non-resilient driver (PR 8 semantics): no retries, no
    /// timeouts, no fault hooks.
    pub fn new(addr: String, session: ServeConfig, conns: usize, client: String) -> DriverConfig {
        DriverConfig {
            addr,
            session,
            conns,
            client,
            retries: 0,
            backoff_ms: 50,
            read_timeout_ms: None,
            kill: None,
        }
    }
}

/// Wire-level admission counters observed by the driver, summed over
/// all connections.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WireCounts {
    /// Submissions sent (including idempotent resubmissions).
    pub submitted: u64,
    /// `queued` verdicts received.
    pub queued: u64,
    /// `shed` verdicts received — denied service over the wire.
    pub shed: u64,
    /// `dup` acks (idempotent replay after a reconnect or resume).
    pub dup: u64,
    /// Reconnect attempts made after a lost connection.
    pub retries: u64,
    /// `evicted` replies received (slots the server gave up on).
    pub evicted: u64,
}

/// Live server health captured from a `stats` reply (slot 0 asks just
/// before draining).
#[derive(Debug, Clone, PartialEq)]
pub struct StatsView {
    /// Server virtual clock when sampled.
    pub tick: u64,
    /// Engine pending-queue depth.
    pub pending: u64,
    /// Pods running on hosts.
    pub running: u64,
    /// Slots the server has evicted so far.
    pub evicted: u64,
    /// Pods denied by disconnect so far.
    pub denied: u64,
    /// Per-slot liveness (watermark, lease remaining, state).
    pub health: Vec<SlotHealth>,
}

/// The outcome of a complete driver session.
#[derive(Debug, Clone)]
pub struct DriverReport {
    /// The server's deterministic end-state summary (identical on
    /// every surviving connection, asserted).
    pub summary: SessionSummary,
    /// Admission verdicts as observed across the wire.
    pub counts: WireCounts,
    /// Health snapshot from slot 0's pre-drain `stats` request, when
    /// the session got that far.
    pub stats: Option<StatsView>,
    /// Slots that ended evicted (including the killed slot when the
    /// server leased it out).
    pub evicted_slots: u64,
    /// Wall-clock duration of the session, in seconds. Measurement
    /// only — never part of deterministic output.
    pub wall_s: f64,
}

/// How one slot's thread ended.
enum SlotEnd {
    /// Ran to `Drained`; carries the session summary.
    Completed(SessionSummary),
    /// The server evicted this slot.
    Evicted,
    /// The configured kill hook fired: the connection died on purpose.
    Killed,
}

struct SlotResult {
    end: SlotEnd,
    counts: WireCounts,
    stats: Option<StatsView>,
}

/// Runs one open-loop session against a live optumd.
pub fn drive(cfg: &DriverConfig) -> Result<DriverReport> {
    let _span = optum_obs::span!("serve.drive");
    if cfg.conns == 0 {
        return Err(Error::InvalidConfig(
            "driver needs at least one connection".into(),
        ));
    }
    if let Some((slot, _)) = cfg.kill {
        if slot >= cfg.conns {
            return Err(Error::InvalidConfig(format!(
                "kill slot {slot} out of range for {} connections",
                cfg.conns
            )));
        }
    }
    let workload = cfg.session.workload()?;
    // Round-robin by trace position — the server's slot ownership rule
    // — so per-slot submission lists stay sorted by (tick, pod).
    let mut plans: Vec<Vec<(u64, u32)>> = vec![Vec::new(); cfg.conns];
    for (i, pod) in workload.pods.iter().enumerate() {
        plans[i % cfg.conns].push((pod.spec.arrival.0, pod.spec.id.0));
    }

    let start = std::time::Instant::now();
    let barrier = Arc::new(Barrier::new(cfg.conns));
    let mut handles = Vec::with_capacity(cfg.conns);
    for (slot, plan) in plans.into_iter().enumerate() {
        let cfg = cfg.clone();
        let barrier = Arc::clone(&barrier);
        handles.push(
            std::thread::Builder::new()
                .name(format!("drive-{slot}"))
                .spawn(move || drive_slot(&cfg, slot, &plan, &barrier))
                .expect("spawn drive slot"),
        );
    }

    let mut summary: Option<SessionSummary> = None;
    let mut counts = WireCounts::default();
    let mut stats: Option<StatsView> = None;
    let mut evicted_slots = 0u64;
    for handle in handles {
        let result = handle
            .join()
            .map_err(|_| Error::InvalidData("driver connection thread panicked".into()))??;
        match result.end {
            SlotEnd::Completed(conn_summary) => match &summary {
                None => summary = Some(conn_summary),
                Some(first) => {
                    if *first != conn_summary {
                        return Err(Error::InvalidData(
                            "connections observed different session summaries".into(),
                        ));
                    }
                }
            },
            SlotEnd::Evicted => evicted_slots += 1,
            SlotEnd::Killed => {}
        }
        counts.submitted += result.counts.submitted;
        counts.queued += result.counts.queued;
        counts.shed += result.counts.shed;
        counts.dup += result.counts.dup;
        counts.retries += result.counts.retries;
        counts.evicted += result.counts.evicted;
        if result.stats.is_some() {
            stats = result.stats;
        }
    }
    Ok(DriverReport {
        summary: summary.ok_or_else(|| {
            Error::InvalidData("no connection survived to observe the session summary".into())
        })?,
        counts,
        stats,
        evicted_slots,
        wall_s: start.elapsed().as_secs_f64(),
    })
}

/// How one connection attempt over a slot ended.
enum Attempt {
    /// `Drained` received; the session is over.
    Done(SessionSummary),
    /// The server evicted this slot — permanent, stop retrying.
    Evicted,
    /// The server is draining (SIGTERM) — the session will not finish.
    Draining(u64),
    /// Transient loss (transport error, force-close, timeout):
    /// reconnect and resubmit.
    Lost(String),
}

/// One slot's session: hello + barrier once, then submit/drain under
/// the reconnect loop until the session resolves.
fn drive_slot(
    cfg: &DriverConfig,
    slot: usize,
    plan: &[(u64, u32)],
    barrier: &Barrier,
) -> Result<SlotResult> {
    let mut counts = WireCounts::default();
    let mut stats: Option<StatsView> = None;
    let mut barrier = Some(barrier);

    let end = if matches!(cfg.kill, Some((victim, _)) if victim == slot) {
        kill_session(cfg, slot, plan, &mut barrier, &mut counts).map(|()| SlotEnd::Killed)
    } else {
        slot_loop(cfg, slot, plan, &mut barrier, &mut counts, &mut stats)
    };
    // If this slot bows out before its first successful handshake —
    // a fatal rejection, an exhausted retry budget — its peers are
    // still parked at the start barrier. Release them on the way out
    // so one slot's failure can never deadlock the rest.
    if let Some(b) = barrier.take() {
        b.wait();
    }
    Ok(SlotResult {
        end: end?,
        counts,
        stats,
    })
}

/// The reconnect loop over one slot's connection attempts.
fn slot_loop(
    cfg: &DriverConfig,
    slot: usize,
    plan: &[(u64, u32)],
    barrier: &mut Option<&Barrier>,
    counts: &mut WireCounts,
    stats: &mut Option<StatsView>,
) -> Result<SlotEnd> {
    let mut jitter = SplitMix64::stream(cfg.session.seed, slot as u64, CH_BACKOFF);
    // `attempt` is the total loss budget; `streak` is consecutive
    // losses without a successful handshake and drives the backoff
    // exponent, so a client making progress between faults never
    // escalates to the cap.
    let mut attempt = 0u32;
    let mut streak = 0u32;
    loop {
        let mut hello_ok = false;
        match try_session(cfg, slot, plan, barrier, counts, stats, &mut hello_ok)? {
            Attempt::Done(summary) => return Ok(SlotEnd::Completed(summary)),
            Attempt::Evicted => {
                counts.evicted += 1;
                return Ok(SlotEnd::Evicted);
            }
            Attempt::Draining(tick) => {
                return Err(Error::InvalidData(format!(
                    "server draining at tick {tick}; session did not complete"
                )))
            }
            Attempt::Lost(why) => {
                attempt += 1;
                if attempt > cfg.retries {
                    return Err(Error::InvalidData(format!(
                        "slot {slot} lost its connection and exhausted {} retries: {why}",
                        cfg.retries
                    )));
                }
                streak = if hello_ok { 1 } else { streak + 1 };
                counts.retries += 1;
                optum_obs::counter!("drive.reconnects");
                let base = cfg
                    .backoff_ms
                    .saturating_mul(1u64 << (streak - 1).min(16))
                    .min(BACKOFF_CAP_MS);
                let pause = base + jitter.next_u64() % (base / 2 + 1);
                std::thread::sleep(Duration::from_millis(pause));
            }
        }
    }
}

/// The kill fault hook: hello, barrier, submit `after` pods, then drop
/// the socket cold. Models a client that dies mid-stream and never
/// comes back.
fn kill_session(
    cfg: &DriverConfig,
    slot: usize,
    plan: &[(u64, u32)],
    barrier: &mut Option<&Barrier>,
    counts: &mut WireCounts,
) -> Result<()> {
    let (_, after) = cfg.kill.expect("kill hook configured");
    let stream = connect(&cfg.addr, cfg.read_timeout_ms)?;
    let read_half = clone_stream(&stream)?;
    let mut w = BufWriter::new(stream);
    let mut r = BufReader::new(read_half);
    send_io(send_hello(cfg, slot, &mut w))?;
    match recv(&mut r) {
        Ok(Reply::HelloOk { .. }) => {}
        Ok(other) => {
            return Err(Error::InvalidData(format!(
                "kill victim handshake failed: {other:?}"
            )))
        }
        Err(RecvErr::Lost(why)) => {
            return Err(Error::InvalidData(format!(
                "kill victim handshake failed: {why}"
            )))
        }
        Err(RecvErr::Fatal(e)) => return Err(e),
    }
    if let Some(b) = barrier.take() {
        b.wait();
    }
    for &(tick, pod) in plan.iter().take(after) {
        send_io(send_request(&mut w, &Request::Submit { tick, pod }))?;
        counts.submitted += 1;
    }
    send_io(w.flush())?;
    optum_obs::counter!("drive.killed_conns");
    // Dropping both halves closes the socket; the server sees EOF
    // mid-session and, under a lease, eventually evicts the slot.
    Ok(())
}

/// One connection attempt: (re-)hello the slot, resubmit the full plan
/// (the server answers `dup` for covered pods), drain, and read until
/// the session resolves. `Err` is fatal (config/handshake rejection);
/// recoverable losses come back as [`Attempt::Lost`].
fn try_session(
    cfg: &DriverConfig,
    slot: usize,
    plan: &[(u64, u32)],
    barrier: &mut Option<&Barrier>,
    counts: &mut WireCounts,
    stats: &mut Option<StatsView>,
    hello_ok: &mut bool,
) -> Result<Attempt> {
    let stream = match connect(&cfg.addr, cfg.read_timeout_ms) {
        Ok(s) => s,
        Err(e) => return Ok(Attempt::Lost(e.to_string())),
    };
    // Clone failure is resource pressure (e.g. a transient fd
    // shortage), not protocol damage: back off and retry like any
    // other transport loss.
    let read_half = match clone_stream(&stream) {
        Ok(r) => r,
        Err(e) => return Ok(Attempt::Lost(e.to_string())),
    };
    let mut w = BufWriter::new(stream);
    let mut r = BufReader::new(read_half);

    if let Err(e) = send_hello(cfg, slot, &mut w) {
        return Ok(Attempt::Lost(e.to_string()));
    }
    let resume: usize;
    match recv(&mut r) {
        Ok(Reply::HelloOk { proto, cursor, .. }) if proto == PROTO_VERSION => {
            *hello_ok = true;
            resume = cursor as usize;
        }
        Ok(Reply::HelloOk { proto, .. }) => {
            return Err(Error::InvalidData(format!(
                "server speaks protocol {proto}, this driver speaks {PROTO_VERSION}"
            )))
        }
        Ok(Reply::Evicted { .. }) => return Ok(Attempt::Evicted),
        Ok(Reply::Draining { tick }) => return Ok(Attempt::Draining(tick)),
        // A semantic rejection (wrong session parameters) is final;
        // any other error at hello — e.g. `malformed` because the
        // network truncated the hello frame itself — is transport
        // damage, and reconnecting with a clean stream can fix it.
        Ok(Reply::Error {
            code: ErrCode::BadHandshake,
            message,
        }) => {
            return Err(Error::InvalidData(format!(
                "handshake rejected (BadHandshake): {message}"
            )))
        }
        Ok(Reply::Error { code, message }) => {
            return Ok(Attempt::Lost(format!(
                "handshake hit a transport-level error ({code:?}): {message}"
            )))
        }
        Ok(other) => {
            return Err(Error::InvalidData(format!(
                "unexpected handshake reply: {other:?}"
            )))
        }
        Err(RecvErr::Lost(why)) => return Ok(Attempt::Lost(why)),
        Err(RecvErr::Fatal(e)) => return Err(e),
    }
    // No submissions before every slot is part of the session — first
    // successful handshake only; reconnects go straight to resubmit.
    if let Some(b) = barrier.take() {
        b.wait();
    }

    // Open-loop submission from the server's cursor: everything before
    // it is already covered, so a reconnect pushes only the uncovered
    // tail. Resuming at the cursor (rather than replaying the whole
    // plan for `dup` acks) is what guarantees forward progress on a
    // lossy link — replay would have to survive an ever-growing prefix
    // whose survival probability decays exponentially with its length.
    // `dup` replies still cover the race where a submission landed but
    // its connection died before the next hello.
    for &(tick, pod) in plan.iter().skip(resume.min(plan.len())) {
        if let Err(e) = send_request(&mut w, &Request::Submit { tick, pod }) {
            return Ok(Attempt::Lost(format!("transport error: {e}")));
        }
        counts.submitted += 1;
    }
    // Slot 0 samples server health right before draining, so the
    // report can show live watermarks and lease budgets.
    if slot == 0 {
        if let Err(e) = send_request(&mut w, &Request::Stats) {
            return Ok(Attempt::Lost(format!("transport error: {e}")));
        }
    }
    if let Err(e) = send_request(&mut w, &Request::Drain) {
        return Ok(Attempt::Lost(format!("transport error: {e}")));
    }
    if let Err(e) = w.flush() {
        return Ok(Attempt::Lost(format!("transport error: {e}")));
    }

    loop {
        match recv(&mut r) {
            Ok(Reply::Queued { .. }) => counts.queued += 1,
            Ok(Reply::Shed { .. }) => counts.shed += 1,
            Ok(Reply::Dup { .. }) => counts.dup += 1,
            Ok(Reply::StatsOk {
                tick,
                pending,
                running,
                evicted,
                denied,
                health,
                ..
            }) => {
                *stats = Some(StatsView {
                    tick,
                    pending,
                    running,
                    evicted,
                    denied,
                    health,
                })
            }
            Ok(Reply::Drained(summary)) => {
                // Ack the summary so the server's linger phase can end
                // as soon as every slot has seen it. Best-effort: a
                // `bye` lost in transit only delays the server's exit
                // until its linger idle timeout.
                let _ = send_request(&mut w, &Request::Bye).and_then(|()| w.flush());
                return Ok(Attempt::Done(summary));
            }
            Ok(Reply::Evicted { .. }) => return Ok(Attempt::Evicted),
            Ok(Reply::Draining { tick }) => return Ok(Attempt::Draining(tick)),
            // A mid-session error (e.g. a detected submission gap) is
            // followed by a server force-close: treat it as a lost
            // connection and let the reconnect loop recover.
            Ok(Reply::Error { code, message }) => {
                return Ok(Attempt::Lost(format!("server error ({code:?}): {message}")))
            }
            Ok(other) => {
                return Err(Error::InvalidData(format!(
                    "unexpected reply mid-session: {other:?}"
                )))
            }
            Err(RecvErr::Lost(why)) => return Ok(Attempt::Lost(why)),
            Err(RecvErr::Fatal(e)) => return Err(e),
        }
    }
}

fn connect(addr: &str, read_timeout_ms: Option<u64>) -> Result<TcpStream> {
    let stream = TcpStream::connect(addr)
        .map_err(|e| Error::InvalidConfig(format!("cannot connect to {addr}: {e}")))?;
    tune(&stream);
    if let Some(ms) = read_timeout_ms {
        stream
            .set_read_timeout(Some(Duration::from_millis(ms.max(1))))
            .map_err(|e| Error::InvalidConfig(format!("cannot set read timeout: {e}")))?;
    }
    Ok(stream)
}

fn clone_stream(stream: &TcpStream) -> Result<TcpStream> {
    stream
        .try_clone()
        .map_err(|e| Error::InvalidConfig(format!("cannot clone stream: {e}")))
}

fn send_hello(cfg: &DriverConfig, slot: usize, w: &mut impl std::io::Write) -> std::io::Result<()> {
    send_request(
        w,
        &Request::Hello {
            client: format!("{}#{}", cfg.client, slot),
            seed: cfg.session.seed,
            hosts: cfg.session.hosts as u64,
            days: cfg.session.days,
            rate_bits: cfg.session.rate.to_bits(),
            queue_cap: cfg.session.queue_cap.map(|c| c as u64),
            slot: slot as u64,
            slots: cfg.conns as u64,
            lease: cfg.session.lease_ticks,
        },
    )?;
    w.flush()
}

enum RecvErr {
    /// Transport-level loss: reconnectable.
    Lost(String),
    /// Protocol-level corruption: give up.
    Fatal(Error),
}

fn recv(r: &mut impl std::io::Read) -> std::result::Result<Reply, RecvErr> {
    let payload = read_frame(r).map_err(|e| match e {
        FrameError::CleanClose => RecvErr::Lost("server closed the connection".into()),
        FrameError::Truncated => RecvErr::Lost("truncated reply frame".into()),
        FrameError::Io(e) => RecvErr::Lost(format!("transport error: {e}")),
        FrameError::Oversized(n) => {
            RecvErr::Fatal(Error::InvalidData(format!("oversized reply frame ({n} B)")))
        }
    })?;
    Reply::decode(&payload).map_err(RecvErr::Fatal)
}

fn send_io(r: std::io::Result<()>) -> Result<()> {
    r.map_err(|e| Error::InvalidData(format!("transport error: {e}")))
}
