//! optumd: the simulation engine as a long-lived TCP service.
//!
//! One engine thread owns the [`Simulator`] in incremental mode and is
//! the only writer of deterministic state. Each accepted connection
//! gets a reader thread (frames → one central channel, so all requests
//! serialize through a single queue) and a writer thread (replies →
//! socket, so the engine never blocks on a slow client).
//!
//! # The watermark protocol
//!
//! The engine's virtual clock must never run ahead of a client that
//! still has submissions for an open tick, and the final state must
//! not depend on how the OS interleaved socket reads. Both follow from
//! one rule: every submission *slot* carries a *watermark* — the
//! latest tick it has submitted at so far (∞ once it drains) — and
//! tick `T` is stepped only when every active slot's watermark is
//! `> T`. At that point the inbox for `T` is complete whatever order
//! the frames arrived in, and sorting it by pod id (trace position)
//! makes the step input — and therefore the entire session — a pure
//! function of (seed, rate, submissions).
//!
//! # Slots and session liveness
//!
//! The trace is partitioned round-robin over a fixed table of
//! submission slots (pod `i` belongs to slot `i mod nslots`); the
//! first `hello` fixes the table and every connection binds to one
//! slot. A connection is transient — it can die and a later connection
//! can re-`hello` the same slot and resume its cursor — but the slot's
//! watermark and submission cursor are durable session state. Each
//! slot accepts exactly its next owned pod: earlier pods answer `dup`
//! (the idempotent-resubmit path), and a *later* pod proves a frame
//! was lost in transit, so the server rejects it and force-closes the
//! connection before the watermark can advance past the hole — a lossy
//! link degrades into a reconnect, never into a desynced trace.
//!
//! When a lease is configured, a slot that fails to advance its
//! watermark within `lease_ticks` of the session frontier is
//! *evicted*: its unsubmitted pods are denied (each at its own arrival
//! tick, into the `disconnected` ledger class), and the engine stops
//! waiting for it. Eviction timing is wall-clock (the server has to
//! *notice* the stall) but the resulting virtual state is not: at
//! detection the clock is still at or below the laggard's watermark
//! and every denied pod's arrival is at or past it, so the denial
//! ticks — and the final digest — depend only on *which* slots were
//! evicted, never on when the server gave up waiting (DESIGN §13).
//!
//! Virtual-clock vs wall-clock: submissions carry virtual ticks and
//! all deterministic outputs (digest, summary, replies) are functions
//! of virtual time only. Wall-clock exists solely outside the engine
//! thread — socket pacing, measured latency panels, stall *detection*
//! — and never feeds back into state.

use std::collections::{BTreeMap, HashMap};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use optum_sched::AlibabaLike;
use optum_sim::{read_snapshot_file, SimConfig, Simulator, SubmitEntry};
use optum_trace::{generate, rescale_arrivals, Workload, WorkloadConfig};
use optum_types::{Error, PodId, Result, Tick};

use crate::proto::{
    read_frame, send_reply, tune, ErrCode, FrameError, Reply, Request, SlotHealth, PROTO_VERSION,
};
use crate::summary::SessionSummary;

/// Engine-loop poll interval: how often the deterministic core wakes
/// without an event to check the drain signal and the idle gate.
/// Wall-clock here affects only *when* the server notices a condition,
/// never the virtual state it computes.
const IDLE_POLL: Duration = Duration::from_millis(50);

/// Consecutive empty polls required before an *attached* slot may be
/// lease-evicted. A detached slot's watermark is final (its socket is
/// closed, FIFO guarantees no frame can still arrive), so it is
/// evicted the moment its lease expires; an attached slot's frames
/// might merely be queued behind other traffic, so the server demands
/// a fully idle event queue first — the gate exists so a connected but
/// silent peer cannot freeze the service forever.
const ATTACHED_EVICT_IDLE: u32 = 8;

/// Post-completion linger budget, in [`IDLE_POLL`] units (100 polls =
/// 5 s): how long the server keeps answering re-`hello`s with the
/// final summary while waiting for every slot's `bye` ack. Must
/// comfortably exceed the driver's reconnect backoff cap (2 s) so a
/// client mid-backoff when the session completes still gets through.
const LINGER_IDLE_POLLS: u32 = 100;

/// How long the teardown lets writer threads drain and flush on their
/// own before it shuts their sockets under them. A healthy writer needs
/// one scheduling quantum; only a client that stopped reading while its
/// socket buffers were full takes the whole budget.
const TEARDOWN_FLUSH: Duration = Duration::from_secs(1);

/// Ceiling on the slot-table size a `hello` may fix.
const MAX_SLOTS: u64 = 4096;

/// Configuration of one optumd session.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Hosts in the simulated cluster.
    pub hosts: usize,
    /// Trace window length in days.
    pub days: u64,
    /// Master seed (trace and engine).
    pub seed: u64,
    /// Open-loop arrival-rate multiplier: arrivals are compressed to
    /// `arrival / rate` ticks, window unchanged (`1.0` = the verbatim
    /// trace, bit-identical to the batch engine).
    pub rate: f64,
    /// Admission queue cap (PR 5 backpressure); `None` = unbounded.
    pub queue_cap: Option<usize>,
    /// Write a durability checkpoint every this many ticks.
    pub checkpoint_every: Option<u64>,
    /// Snapshot file for checkpoints and `--resume`.
    pub checkpoint_path: Option<PathBuf>,
    /// Resume from `checkpoint_path` instead of starting at tick 0.
    pub resume: bool,
    /// Crash test hook: `exit(137)` immediately before stepping this
    /// tick, simulating `kill -9` at a deterministic point. Only for
    /// the `optumd` binary — never set in-process.
    pub kill_at: Option<u64>,
    /// Progress lease in virtual ticks: a slot whose watermark falls
    /// this far behind the session frontier is evicted (its remaining
    /// pods denied into the `disconnected` ledger class). `None`
    /// disables eviction — the engine waits forever, PR 8 behavior.
    pub lease_ticks: Option<u64>,
    /// Graceful-drain trigger (SIGTERM in the `optumd` binary): when
    /// the flag flips true the server checkpoints at the current step
    /// boundary, answers everything in flight, replies `draining`, and
    /// exits cleanly with [`ServeOutcome::Drained`].
    pub drain_on: Option<&'static AtomicBool>,
}

impl ServeConfig {
    /// Session at the fast experiment scale (60 hosts, 2 days, seed 42).
    pub fn fast() -> ServeConfig {
        ServeConfig {
            hosts: 60,
            days: 2,
            seed: 42,
            rate: 1.0,
            queue_cap: None,
            checkpoint_every: None,
            checkpoint_path: None,
            resume: false,
            kill_at: None,
            lease_ticks: None,
            drain_on: None,
        }
    }

    /// The engine configuration this session runs under.
    pub fn sim_config(&self) -> SimConfig {
        let mut sc = SimConfig::new(self.hosts);
        sc.queue_cap = self.queue_cap;
        sc.checkpoint_every = self.checkpoint_every;
        sc.checkpoint_path = self.checkpoint_path.clone();
        sc
    }

    /// Generates the session workload: the deterministic trace at this
    /// scale with arrivals rescaled by `rate`. Client and server both
    /// call this, which is what lets the handshake pin both sides to
    /// the same trace without shipping it over the wire.
    pub fn workload(&self) -> Result<Workload> {
        let mut workload = generate(&WorkloadConfig::sized(self.hosts, self.days, self.seed))?;
        rescale_arrivals(&mut workload, self.rate)?;
        Ok(workload)
    }
}

/// How an optumd session ended.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeOutcome {
    /// The session ran its full window; the deterministic summary.
    Completed(SessionSummary),
    /// The server was asked to drain (SIGTERM) before the window end:
    /// state was checkpointed at `tick` (when a checkpoint path is
    /// configured) and every client got a `draining` reply.
    Drained {
        /// Step boundary the drain was cut at.
        tick: u64,
    },
}

impl ServeOutcome {
    /// The summary of a completed session; panics on a drained one
    /// (callers that never drain use this to unwrap).
    pub fn summary(self) -> SessionSummary {
        match self {
            ServeOutcome::Completed(s) => s,
            ServeOutcome::Drained { tick } => {
                panic!("session drained at tick {tick} before completing")
            }
        }
    }
}

/// What a connection's reader thread feeds the engine.
enum Event {
    /// Connection accepted; carries the reply channel.
    Open(mpsc::Sender<Outbound>),
    /// A well-framed, well-formed request.
    Req(Request),
    /// A framing or decoding failure that leaves the stream usable.
    Bad(ErrCode, String),
    /// Reader hit EOF or a transport error.
    Closed,
}

/// What the engine feeds a connection's writer thread.
enum Outbound {
    /// Send one reply frame.
    Reply(Reply),
    /// Flush, then shut the socket down (both directions — this also
    /// unblocks the connection's reader, which reports `Closed`).
    Shutdown,
}

/// Engine-side view of one live connection.
struct Conn {
    tx: mpsc::Sender<Outbound>,
    /// The slot this connection is bound to, once it has hello'd.
    slot: Option<usize>,
}

/// Durable per-slot session state: survives the death of whatever
/// connection is currently bound to the slot.
struct SlotState {
    /// Connection currently bound to the slot, if any.
    attached: Option<u64>,
    /// Latest tick this slot has submitted at; the engine may step any
    /// tick strictly below the minimum active watermark.
    watermark: u64,
    /// Slot finished submitting and asked for the session summary.
    draining: bool,
    /// Slot was lease-evicted; its remaining pods are denied as the
    /// clock reaches their arrivals.
    evicted: bool,
    /// Owned-position cursor: owned pods before it were submitted
    /// (bucketed or ingested) or denied; resubmissions answer `dup`.
    cursor: usize,
    /// Owned pods denied so far (after eviction).
    denied: u64,
}

/// Session-wide deterministic state outside the engine.
struct Session<'a> {
    /// Arrival tick of every trace pod, by trace index.
    arrivals: &'a [u64],
    /// Configured progress lease.
    lease: Option<u64>,
    /// The slot table; empty until the first `hello` fixes it.
    slots: Vec<SlotState>,
    /// At least one slot has asked to drain.
    drain_seen: bool,
}

impl Session<'_> {
    fn started(&self) -> bool {
        !self.slots.is_empty()
    }

    fn nslots(&self) -> usize {
        self.slots.len()
    }

    /// Pods owned by slot `s` (trace indices `s, s+n, s+2n, …`).
    fn owned_count(&self, s: usize) -> usize {
        let n = self.arrivals.len();
        if n > s {
            (n - 1 - s) / self.nslots() + 1
        } else {
            0
        }
    }

    /// Trace index of slot `s`'s owned pod at owned position `pos`.
    fn owned_index(&self, s: usize, pos: usize) -> usize {
        s + pos * self.nslots()
    }

    /// Fixes the slot table, initializing each slot's cursor from the
    /// engine's trace cursor (non-zero after a checkpoint resume).
    fn init(&mut self, nslots: usize, next_arrival: usize) {
        self.slots = (0..nslots)
            .map(|s| SlotState {
                attached: None,
                watermark: 0,
                draining: false,
                evicted: false,
                cursor: if next_arrival > s {
                    (next_arrival - 1 - s) / nslots + 1
                } else {
                    0
                },
                denied: 0,
            })
            .collect();
    }

    /// The session frontier: the most-advanced effective watermark
    /// over non-evicted slots (a draining slot counts as the window
    /// end). `None` when every slot is evicted.
    fn frontier(&self, end_tick: u64) -> Option<u64> {
        self.slots
            .iter()
            .filter(|s| !s.evicted)
            .map(|s| if s.draining { end_tick } else { s.watermark })
            .max()
    }
}

/// A bound, not-yet-running optumd session.
pub struct Server {
    cfg: ServeConfig,
    listener: TcpListener,
}

impl Server {
    /// Binds the service (use port 0 to let the OS pick).
    pub fn bind(cfg: ServeConfig, addr: &str) -> Result<Server> {
        if cfg.lease_ticks == Some(0) {
            return Err(Error::InvalidConfig(
                "lease of 0 ticks would evict every slot on arrival; \
                 use None to disable eviction"
                    .into(),
            ));
        }
        let listener = TcpListener::bind(addr)
            .map_err(|e| Error::InvalidConfig(format!("cannot bind {addr}: {e}")))?;
        Ok(Server { cfg, listener })
    }

    /// The bound address (known before [`Server::run`] blocks).
    pub fn local_addr(&self) -> SocketAddr {
        self.listener
            .local_addr()
            .expect("bound listener has a local address")
    }

    /// Serves exactly one session: accepts connections, steps the
    /// engine under the watermark protocol, and returns either the
    /// deterministic session summary (a drained session reached the
    /// end of its window) or the drain tick (graceful shutdown). Every
    /// reader and writer thread is joined and every socket closed
    /// before this returns — an abruptly dying client leaks nothing.
    pub fn run(self) -> Result<ServeOutcome> {
        let _span = optum_obs::span!("serve.session");
        let workload = self.cfg.workload()?;
        let sim_config = self.cfg.sim_config();
        let scheduler = AlibabaLike::default();
        let sim = if self.cfg.resume {
            let path = self.cfg.checkpoint_path.as_ref().ok_or_else(|| {
                Error::InvalidConfig("--resume requires a checkpoint path".into())
            })?;
            let snapshot = read_snapshot_file(path)?;
            Simulator::resume(&workload, scheduler, sim_config, &snapshot)?
        } else {
            Simulator::new(&workload, scheduler, sim_config)?
        };
        let arrivals: Vec<u64> = workload.pods.iter().map(|p| p.spec.arrival.0).collect();

        let (tx, rx) = mpsc::channel::<(u64, Event)>();
        let done = Arc::new(AtomicBool::new(false));
        let writers: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let readers: Arc<Mutex<ReaderSlots>> = Arc::new(Mutex::new(Vec::new()));
        let accept = {
            let listener = self
                .listener
                .try_clone()
                .map_err(|e| Error::InvalidConfig(format!("cannot clone listener: {e}")))?;
            let tx = tx.clone();
            let done = Arc::clone(&done);
            let writers = Arc::clone(&writers);
            let readers = Arc::clone(&readers);
            std::thread::Builder::new()
                .name("srv-accept".into())
                .spawn(move || accept_loop(listener, tx, done, writers, readers))
                .expect("spawn srv-accept")
        };
        drop(tx);

        let outcome = engine_loop(&self.cfg, sim, &rx, &arrivals);

        if outcome.is_err() {
            optum_obs::counter!("serve.engine_errors");
        }

        // Teardown: no thread or fd outlives the session, and no reply
        // the engine queued is lost on the way out.
        //
        // 1. Stop the accept loop. The wake-up connect is bounded: if
        //    the listen backlog is already full (clients racing
        //    reconnects against a dying session), the accept loop has
        //    queued work and will see `done` on its own — a blocking
        //    connect here could deadlock the teardown against that very
        //    backlog.
        // 2. Drop the event receiver. `engine_loop` took its connection
        //    table with it; events still queued (a connection accepted
        //    in the races around `done`) hold the last reply senders.
        // 3. Join the writers *before* any socket is touched. With
        //    every sender gone each one drains its queue, flushes and
        //    exits by itself — that flush is the `Draining`, `Evicted`
        //    or `Drained` the client is waiting for, and a socket shut
        //    down first turns it into EPIPE and the client's EOF.
        // 4. Only then shut the sockets, which unblocks readers parked
        //    in `read_frame` (a client that never closed) and any
        //    writer that outlived step 3, and join what is left.
        done.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect_timeout(&self.local_addr(), Duration::from_secs(1));
        let _ = accept.join();
        drop(rx);
        // A writer blocked in `write` on a client that stopped reading
        // never finishes by itself, hence the deadline. (`SO_SNDTIMEO`
        // cannot do this: the kernel reads it when a send starts, so
        // set now it is invisible to the blocked call, and set at
        // accept it would cut off the open-loop driver, which by design
        // reads nothing until its whole plan is on the wire.)
        let writer_handles = std::mem::take(&mut *writers.lock().expect("writer registry"));
        let deadline = Instant::now() + TEARDOWN_FLUSH;
        while writer_handles.iter().any(|h| !h.is_finished()) && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        let stuck = writer_handles.iter().filter(|h| !h.is_finished()).count();
        if stuck > 0 {
            optum_obs::counter!("serve.teardown_stuck_writers", stuck as u64);
        }
        let reader_handles = std::mem::take(&mut *readers.lock().expect("reader registry"));
        for (stream, handle) in reader_handles {
            let _ = stream.shutdown(Shutdown::Both);
            let _ = handle.join();
        }
        for h in writer_handles {
            let _ = h.join();
        }
        outcome
    }
}

/// Reader registry entries: the cloned shutdown half of the socket
/// (held so teardown can unblock a parked `read_frame`) plus the
/// reader thread's handle.
type ReaderSlots = Vec<(TcpStream, JoinHandle<()>)>;

fn accept_loop(
    listener: TcpListener,
    tx: mpsc::Sender<(u64, Event)>,
    done: Arc<AtomicBool>,
    writers: Arc<Mutex<Vec<JoinHandle<()>>>>,
    readers: Arc<Mutex<ReaderSlots>>,
) {
    let mut next_id = 0u64;
    for stream in listener.incoming() {
        if done.load(Ordering::SeqCst) {
            break;
        }
        // Reap threads whose connections already ended. Without this,
        // a reconnect storm accumulates one zombie thread per writer
        // and a zombie thread *plus a cloned socket fd* per reader for
        // the life of the session — enough churn exhausts the fd table
        // and takes every later accept down with it.
        reap_registries(&writers, &readers);
        let stream = match stream {
            Ok(s) => s,
            Err(_) => continue,
        };
        tune(&stream);
        let id = next_id;
        next_id += 1;
        let write_half = match stream.try_clone() {
            Ok(s) => s,
            Err(_) => continue,
        };
        let shutdown_half = match stream.try_clone() {
            Ok(s) => s,
            Err(_) => continue,
        };
        let (reply_tx, reply_rx) = mpsc::channel::<Outbound>();
        if tx.send((id, Event::Open(reply_tx))).is_err() {
            break;
        }
        writers.lock().expect("writer registry").push(
            std::thread::Builder::new()
                .name("srv-writer".into())
                .spawn(move || writer_loop(write_half, reply_rx))
                .expect("spawn srv-writer"),
        );
        let tx = tx.clone();
        let reader = std::thread::Builder::new()
            .name("srv-reader".into())
            .spawn(move || reader_loop(stream, id, tx))
            .expect("spawn srv-reader");
        readers
            .lock()
            .expect("reader registry")
            .push((shutdown_half, reader));
    }
}

/// Joins every reader/writer thread that has already exited and drops
/// its registry entry — for readers that entry holds the cloned
/// shutdown socket, i.e. an open fd. Live threads stay registered so
/// the session teardown can still unblock and join them.
fn reap_registries(writers: &Mutex<Vec<JoinHandle<()>>>, readers: &Mutex<ReaderSlots>) {
    let mut ws = writers.lock().expect("writer registry");
    let live = std::mem::take(&mut *ws);
    for h in live {
        if h.is_finished() {
            let _ = h.join();
        } else {
            ws.push(h);
        }
    }
    drop(ws);
    let mut rs = readers.lock().expect("reader registry");
    let live = std::mem::take(&mut *rs);
    for (stream, h) in live {
        if h.is_finished() {
            let _ = h.join();
        } else {
            rs.push((stream, h));
        }
    }
}

/// Replies → socket. With `TCP_NODELAY` on (see [`tune`]) the kernel
/// sends what it is given when it is given it, so the drain-then-flush
/// below is the only place replies are coalesced: everything the
/// engine queued while the previous flush was in progress leaves in
/// one write. `serve.reply_frames / serve.reply_flushes` is that
/// layer's useful-work ratio.
fn writer_loop(stream: TcpStream, rx: mpsc::Receiver<Outbound>) {
    let mut w = std::io::BufWriter::new(stream);
    let mut close = false;
    while !close {
        let Ok(first) = rx.recv() else { break };
        // Batch whatever else is already queued, then flush once.
        let mut pending = Some(first);
        let mut frames = 0u64;
        while let Some(out) = pending.take() {
            match out {
                Outbound::Reply(reply) => {
                    if send_reply(&mut w, &reply).is_err() {
                        return;
                    }
                    frames += 1;
                }
                Outbound::Shutdown => {
                    close = true;
                    break;
                }
            }
            pending = rx.try_recv().ok();
        }
        if std::io::Write::flush(&mut w).is_err() {
            return;
        }
        if frames > 0 {
            optum_obs::counter!("serve.reply_frames", frames);
            optum_obs::counter!("serve.reply_flushes");
        }
    }
    if close {
        let _ = w.get_ref().shutdown(Shutdown::Both);
    }
}

fn reader_loop(stream: TcpStream, id: u64, tx: mpsc::Sender<(u64, Event)>) {
    let mut r = std::io::BufReader::new(stream);
    loop {
        let event = match read_frame(&mut r) {
            Ok(payload) => match Request::decode(&payload) {
                Ok(req) => Event::Req(req),
                Err(e) => Event::Bad(ErrCode::Malformed, e.to_string()),
            },
            Err(FrameError::CleanClose) | Err(FrameError::Io(_)) => break,
            Err(FrameError::Truncated) => {
                let _ = tx.send((id, Event::Bad(ErrCode::Malformed, "truncated frame".into())));
                break;
            }
            Err(FrameError::Oversized(n)) => Event::Bad(
                ErrCode::Oversized,
                format!("frame of {n} bytes exceeds the frame limit"),
            ),
        };
        if tx.send((id, event)).is_err() {
            break;
        }
    }
    let _ = tx.send((id, Event::Closed));
}

/// Applies a connection-lifecycle event to the connection table —
/// the same way while the session runs and while it lingers — and
/// hands a request back for the caller's phase to serve.
fn connection_event(
    sess: &mut Session<'_>,
    conns: &mut HashMap<u64, Conn>,
    id: u64,
    event: Event,
) -> Option<Request> {
    match event {
        Event::Open(tx) => {
            optum_obs::counter!("serve.conns");
            conns.insert(id, Conn { tx, slot: None });
        }
        Event::Closed => {
            // A closed connection can no longer submit: detach its
            // slot (the slot itself — cursor, watermark — survives for
            // a reconnect). Its already-bucketed submissions stay
            // valid.
            if let Some(conn) = conns.remove(&id) {
                if let Some(s) = conn.slot {
                    if sess.slots[s].attached == Some(id) {
                        sess.slots[s].attached = None;
                    }
                }
            }
        }
        Event::Bad(code, message) => {
            optum_obs::counter!("serve.protocol_errors");
            if let Some(conn) = conns.get(&id) {
                let _ = conn
                    .tx
                    .send(Outbound::Reply(Reply::Error { code, message }));
            }
        }
        Event::Req(req) => return Some(req),
    }
    None
}

/// Why a `hello` cannot join this session, if it cannot: its session
/// tuple `(seed, hosts, days, rate_bits, queue_cap, lease, slots,
/// slot)` must match the server's configuration and the slot table
/// the first `hello` fixed. `None` for a hello that may join (and for
/// any other request, which carries no tuple).
fn hello_mismatch(cfg: &ServeConfig, sess: &Session<'_>, hello: &Request) -> Option<String> {
    let &Request::Hello {
        seed,
        hosts,
        days,
        rate_bits,
        queue_cap,
        slot,
        slots,
        lease,
        ..
    } = hello
    else {
        return None;
    };
    if seed != cfg.seed
        || hosts != cfg.hosts as u64
        || days != cfg.days
        || rate_bits != cfg.rate.to_bits()
        || queue_cap != cfg.queue_cap.map(|c| c as u64)
    {
        Some(format!(
            "session mismatch: server is seed={} hosts={} days={} rate={} cap={:?}",
            cfg.seed, cfg.hosts, cfg.days, cfg.rate, cfg.queue_cap
        ))
    } else if lease != cfg.lease_ticks {
        Some(format!(
            "lease mismatch: server lease is {:?}",
            cfg.lease_ticks
        ))
    } else if slots == 0 || slots > MAX_SLOTS || slot >= slots {
        Some(format!("invalid slot {slot} of {slots} (max {MAX_SLOTS})"))
    } else if sess.started() && sess.nslots() as u64 != slots {
        Some(format!("slot table fixed at {} slots", sess.nslots()))
    } else {
        None
    }
}

/// The deterministic core: single-threaded over one event queue.
fn engine_loop(
    cfg: &ServeConfig,
    sim: Simulator<'_, AlibabaLike>,
    rx: &mpsc::Receiver<(u64, Event)>,
    arrivals: &[u64],
) -> Result<ServeOutcome> {
    let mut sim = Some(sim);
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    // tick → submissions for that tick (pod, owning slot).
    let mut buckets: BTreeMap<u64, Vec<(PodId, usize)>> = BTreeMap::new();
    let mut sess = Session {
        arrivals,
        lease: cfg.lease_ticks,
        slots: Vec::new(),
        drain_seen: false,
    };
    let mut idle_polls = 0u32;

    loop {
        match rx.recv_timeout(IDLE_POLL) {
            Ok((id, event)) => {
                idle_polls = 0;
                if let Some(req) = connection_event(&mut sess, &mut conns, id, event) {
                    let engine = sim.as_mut().expect("engine live while accepting requests");
                    handle_request(cfg, engine, &mut sess, &mut conns, id, req, &mut buckets);
                }
            }
            Err(mpsc::RecvTimeoutError::Timeout) => idle_polls = idle_polls.saturating_add(1),
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                return Err(Error::InvalidData(
                    "accept loop died before the session completed".into(),
                ))
            }
        }

        // Graceful drain (SIGTERM): checkpoint at the step boundary,
        // tell every client, exit cleanly.
        if let Some(flag) = cfg.drain_on {
            if flag.load(Ordering::SeqCst) {
                return graceful_drain(cfg, sim.as_ref().expect("engine"), &conns);
            }
        }

        check_evictions(
            sim.as_ref().expect("engine"),
            &mut sess,
            &mut conns,
            idle_polls,
        );

        // Advance the virtual clock as far as the watermarks allow.
        while let Some(t) = steppable_tick(sim.as_ref().expect("engine"), &sess) {
            if cfg.kill_at == Some(t) {
                // Simulated kill -9: no cleanup, no flush beyond what
                // already left the process.
                std::process::exit(137);
            }
            step_tick(
                sim.as_mut().expect("engine"),
                &mut buckets,
                &mut sess,
                &conns,
                t,
            )?;
        }

        let engine = sim.as_ref().expect("engine");
        if sess.started()
            && engine.next_step() == engine.end_tick()
            && sess.slots.iter().all(|s| s.draining || s.evicted)
        {
            let end_tick = engine.end_tick().0;
            let next_pod = engine.next_arrival_index() as u64;
            let result = sim.take().expect("engine").finish()?;
            let summary = SessionSummary::from_result(&result);
            for slot in sess.slots.iter().filter(|s| s.draining) {
                if let Some(conn) = slot.attached.and_then(|cid| conns.get(&cid)) {
                    let _ = conn
                        .tx
                        .send(Outbound::Reply(Reply::Drained(summary.clone())));
                }
            }
            return linger_for_acks(cfg, rx, &mut sess, &mut conns, summary, end_tick, next_pod);
        }
    }
}

/// Post-completion linger. The summary is final, but a slot whose
/// connection died right as the session completed never received its
/// `Drained` reply — returning immediately would strand that client
/// reconnecting into a dead address forever. So the server keeps
/// accepting: a re-`hello` for a live slot is answered with `HelloOk`
/// plus the final summary, and each slot acks receipt with `bye`.
/// Lingering ends when every non-evicted slot has acked (the common
/// case: microseconds) or after [`LINGER_IDLE_POLLS`] quiet polls —
/// a client that died for good sends no ack, and an evicted slot's
/// client is presumed dead already. Nothing here touches
/// deterministic state; linger only re-delivers it.
fn linger_for_acks(
    cfg: &ServeConfig,
    rx: &mpsc::Receiver<(u64, Event)>,
    sess: &mut Session<'_>,
    conns: &mut HashMap<u64, Conn>,
    summary: SessionSummary,
    end_tick: u64,
    next_pod: u64,
) -> Result<ServeOutcome> {
    let mut acked: Vec<bool> = sess.slots.iter().map(|s| s.evicted).collect();
    let mut idle = 0u32;
    while !acked.iter().all(|&a| a) && idle < LINGER_IDLE_POLLS {
        // SIGTERM during linger: the session is complete; just go.
        if let Some(flag) = cfg.drain_on {
            if flag.load(Ordering::SeqCst) {
                break;
            }
        }
        match rx.recv_timeout(IDLE_POLL) {
            Ok((id, event)) => {
                idle = 0;
                if let Some(req) = connection_event(sess, conns, id, event) {
                    linger_request(
                        cfg, sess, conns, &mut acked, id, req, &summary, end_tick, next_pod,
                    );
                }
            }
            Err(mpsc::RecvTimeoutError::Timeout) => idle += 1,
            // Accept loop gone: nobody is left to ack.
            Err(mpsc::RecvTimeoutError::Disconnected) => break,
        }
    }
    if idle >= LINGER_IDLE_POLLS {
        optum_obs::counter!("serve.linger_idle_exits");
    }
    Ok(ServeOutcome::Completed(summary))
}

/// Serves one request during linger. Re-`hello`s get the summary
/// re-delivered, `bye` acks it; anything else is a frame that was
/// already in flight when the session completed — the `Drained`
/// queued on its connection resolves the client, so it needs no
/// answer.
#[allow(clippy::too_many_arguments)]
fn linger_request(
    cfg: &ServeConfig,
    sess: &mut Session<'_>,
    conns: &mut HashMap<u64, Conn>,
    acked: &mut [bool],
    conn_id: u64,
    req: Request,
    summary: &SessionSummary,
    end_tick: u64,
    next_pod: u64,
) {
    let Some(tx) = conns.get(&conn_id).map(|c| c.tx.clone()) else {
        return;
    };
    match req {
        ref hello @ Request::Hello { slot, .. } => {
            // The slot table is fixed by now (the session completed),
            // so any tuple the live session would refuse is refused.
            if !sess.started() || hello_mismatch(cfg, sess, hello).is_some() {
                let _ = tx.send(Outbound::Reply(Reply::Error {
                    code: ErrCode::BadHandshake,
                    message: "hello does not match the completed session".into(),
                }));
                let _ = tx.send(Outbound::Shutdown);
                return;
            }
            let s = slot as usize;
            if sess.slots[s].evicted {
                let _ = tx.send(Outbound::Reply(Reply::Evicted {
                    slot,
                    tick: end_tick,
                    denied: sess.slots[s].denied,
                }));
                let _ = tx.send(Outbound::Shutdown);
                return;
            }
            sess.slots[s].attached = Some(conn_id);
            if let Some(conn) = conns.get_mut(&conn_id) {
                conn.slot = Some(s);
            }
            optum_obs::counter!("serve.linger_redeliveries");
            let _ = tx.send(Outbound::Reply(Reply::HelloOk {
                proto: PROTO_VERSION,
                resume_tick: end_tick,
                next_pod,
                end_tick,
                cursor: sess.slots[s].cursor as u64,
            }));
            let _ = tx.send(Outbound::Reply(Reply::Drained(summary.clone())));
        }
        Request::Bye => {
            if let Some(s) = conns.get(&conn_id).and_then(|c| c.slot) {
                acked[s] = true;
            }
        }
        _ => {}
    }
}

/// SIGTERM path: cut a checkpoint at the current step boundary (when
/// configured), answer every connection with `draining`, and hand the
/// drain tick back so the binary can exit cleanly. In-flight replies
/// flush because every writer drains its queue before closing.
fn graceful_drain(
    cfg: &ServeConfig,
    sim: &Simulator<'_, AlibabaLike>,
    conns: &HashMap<u64, Conn>,
) -> Result<ServeOutcome> {
    let tick = sim.next_step().0;
    if cfg.checkpoint_path.is_some() {
        sim.checkpoint_now()?;
    }
    optum_obs::counter!("serve.drainings");
    for conn in conns.values() {
        let _ = conn.tx.send(Outbound::Reply(Reply::Draining { tick }));
        let _ = conn.tx.send(Outbound::Shutdown);
    }
    Ok(ServeOutcome::Drained { tick })
}

/// Evicts every lease-expired slot. A detached slot (its connection is
/// gone, so its watermark is final) is evicted as soon as the frontier
/// outruns its lease; an attached slot additionally requires the event
/// queue to have been idle for [`ATTACHED_EVICT_IDLE`] polls, so a
/// healthy client whose frames are merely queued behind other traffic
/// is never evicted spuriously. Slots are scanned in slot order, so
/// the evicted set — the only thing the final state depends on — is
/// itself deterministic given the same stalls.
fn check_evictions(
    sim: &Simulator<'_, AlibabaLike>,
    sess: &mut Session<'_>,
    conns: &mut HashMap<u64, Conn>,
    idle_polls: u32,
) {
    let Some(lease) = sess.lease else { return };
    if !sess.started() {
        return;
    }
    let Some(frontier) = sess.frontier(sim.end_tick().0) else {
        return;
    };
    for s in 0..sess.slots.len() {
        let slot = &sess.slots[s];
        if slot.evicted || slot.draining {
            continue;
        }
        if frontier < slot.watermark.saturating_add(lease) {
            continue;
        }
        if slot.attached.is_some() && idle_polls < ATTACHED_EVICT_IDLE {
            continue;
        }
        let denied_total = (sess.owned_count(s) - slot.cursor) as u64;
        let slot = &mut sess.slots[s];
        slot.evicted = true;
        optum_obs::counter!("serve.evictions");
        if let Some(cid) = slot.attached.take() {
            if let Some(conn) = conns.get_mut(&cid) {
                let _ = conn.tx.send(Outbound::Reply(Reply::Evicted {
                    slot: s as u64,
                    tick: sim.next_step().0,
                    denied: denied_total,
                }));
                let _ = conn.tx.send(Outbound::Shutdown);
                conn.slot = None;
            }
        }
    }
}

/// The next tick the watermark protocol allows stepping, if any.
fn steppable_tick(sim: &Simulator<'_, AlibabaLike>, sess: &Session<'_>) -> Option<u64> {
    if !sess.started() {
        return None;
    }
    let next = sim.next_step().0;
    if next >= sim.end_tick().0 {
        return None;
    }
    let min_watermark = sess
        .slots
        .iter()
        .filter(|s| !s.draining && !s.evicted)
        .map(|s| s.watermark)
        .min();
    match min_watermark {
        // Every active slot is already past `next`. A detached slot
        // still gates here: until its lease expires the session waits
        // for its reconnect, exactly as PR 8 waited on every conn.
        Some(wm) if wm > next => Some(next),
        Some(_) => None,
        // No active slots left: run out the window once a drain was
        // requested or an eviction freed the clock; otherwise hold.
        None if sess.drain_seen || sess.slots.iter().any(|s| s.evicted) => Some(next),
        None => None,
    }
}

/// Steps one tick: closes the tick's bucket, folds in the denials of
/// evicted slots whose pods arrive at this tick, sorts everything into
/// trace order, feeds the engine, and answers each submission with the
/// protocol-level admission verdict (`queued` or `shed`). Denied pods
/// get no reply — their connection is gone by definition.
fn step_tick(
    sim: &mut Simulator<'_, AlibabaLike>,
    buckets: &mut BTreeMap<u64, Vec<(PodId, usize)>>,
    sess: &mut Session<'_>,
    conns: &HashMap<u64, Conn>,
    t: u64,
) -> Result<()> {
    let bucket = buckets.remove(&t).unwrap_or_default();
    let mut entries: Vec<SubmitEntry> = bucket
        .iter()
        .map(|&(pid, _)| SubmitEntry::Submit(pid))
        .collect();
    for s in 0..sess.slots.len() {
        if !sess.slots[s].evicted {
            continue;
        }
        while sess.slots[s].cursor < sess.owned_count(s)
            && sess.arrivals[sess.owned_index(s, sess.slots[s].cursor)] <= t
        {
            let idx = sess.owned_index(s, sess.slots[s].cursor);
            entries.push(SubmitEntry::Deny(PodId(idx as u32)));
            sess.slots[s].cursor += 1;
            sess.slots[s].denied += 1;
            optum_obs::counter!("serve.denied");
        }
    }
    entries.sort_by_key(|e| e.pod());
    let outbox = sim.step_entries(Tick(t), &entries)?;
    for (pid, s) in bucket {
        let reply = if outbox.shed.contains(&pid) {
            optum_obs::counter!("serve.shed_replies");
            Reply::Shed {
                pod: pid.0,
                tick: t,
            }
        } else {
            optum_obs::counter!("serve.queued_replies");
            Reply::Queued {
                pod: pid.0,
                tick: t,
            }
        };
        if let Some(conn) = sess.slots[s].attached.and_then(|cid| conns.get(&cid)) {
            let _ = conn.tx.send(Outbound::Reply(reply));
        }
    }
    Ok(())
}

fn handle_request(
    cfg: &ServeConfig,
    sim: &mut Simulator<'_, AlibabaLike>,
    sess: &mut Session<'_>,
    conns: &mut HashMap<u64, Conn>,
    conn_id: u64,
    req: Request,
    buckets: &mut BTreeMap<u64, Vec<(PodId, usize)>>,
) {
    let Some(tx) = conns.get(&conn_id).map(|c| c.tx.clone()) else {
        return;
    };
    let reply = match req {
        ref hello @ Request::Hello { slot, slots, .. } => {
            let bound = conns.get(&conn_id).and_then(|c| c.slot);
            if bound.is_some() {
                some_error(ErrCode::BadHandshake, "hello repeated".into())
            } else if let Some(message) = hello_mismatch(cfg, sess, hello) {
                some_error(ErrCode::BadHandshake, message)
            } else {
                if !sess.started() {
                    sess.init(slots as usize, sim.next_arrival_index());
                }
                let s = slot as usize;
                if sess.slots[s].evicted {
                    // The slot is gone for good; tell the client so it
                    // stops resubmitting, then close.
                    let _ = tx.send(Outbound::Reply(Reply::Evicted {
                        slot,
                        tick: sim.next_step().0,
                        denied: sess.slots[s].denied,
                    }));
                    let _ = tx.send(Outbound::Shutdown);
                    None
                } else {
                    // Re-hello displaces any previous binding: frames
                    // on the old socket can no longer be trusted to
                    // arrive, so it is shut down.
                    if let Some(old) = sess.slots[s].attached.replace(conn_id) {
                        if old != conn_id {
                            if let Some(oc) = conns.get_mut(&old) {
                                optum_obs::counter!("serve.displaced");
                                let _ = oc.tx.send(Outbound::Shutdown);
                                oc.slot = None;
                            }
                        }
                    }
                    if let Some(conn) = conns.get_mut(&conn_id) {
                        conn.slot = Some(s);
                    }
                    Some(Reply::HelloOk {
                        proto: PROTO_VERSION,
                        resume_tick: sim.next_step().0,
                        next_pod: sim.next_arrival_index() as u64,
                        end_tick: sim.end_tick().0,
                        cursor: sess.slots[s].cursor as u64,
                    })
                }
            }
        }
        Request::Submit { tick, pod } => {
            let pid = PodId(pod);
            let bound = conns.get(&conn_id).and_then(|c| c.slot);
            match bound {
                None => some_error(ErrCode::BadHandshake, "submit before hello".into()),
                Some(s) if pid.index() >= sess.arrivals.len() => some_error(
                    ErrCode::OutOfOrder,
                    format!(
                        "pod {pod} past the end of the trace ({} pods); slot {s}",
                        sess.arrivals.len()
                    ),
                ),
                Some(s) if pid.index() % sess.nslots() != s => some_error(
                    ErrCode::Unsupported,
                    format!("pod {pod} is not owned by slot {s}"),
                ),
                Some(s) => {
                    let pos = pid.index() / sess.nslots();
                    if pos < sess.slots[s].cursor {
                        // Already covered — the idempotent-resubmit path.
                        optum_obs::counter!("serve.dup_replies");
                        Some(Reply::Dup { pod })
                    } else if pos > sess.slots[s].cursor {
                        // A hole: an earlier owned pod never arrived,
                        // so a frame was dropped in transit. Reject
                        // and force-close before the watermark can
                        // vouch for a tick it did not fully deliver.
                        optum_obs::counter!("serve.gap_disconnects");
                        let next = sess.owned_index(s, sess.slots[s].cursor);
                        let _ = tx.send(Outbound::Reply(Reply::Error {
                            code: ErrCode::OutOfOrder,
                            message: format!(
                                "submission gap on slot {s}: got pod {pod}, expected pod {next} \
                                 (a frame was lost; reconnect and resubmit)"
                            ),
                        }));
                        let _ = tx.send(Outbound::Shutdown);
                        None
                    } else if tick < sim.next_step().0 {
                        some_error(
                            ErrCode::OutOfOrder,
                            format!(
                                "submission at tick {tick} behind the virtual clock {}",
                                sim.next_step().0
                            ),
                        )
                    } else if tick >= sim.end_tick().0 {
                        some_error(
                            ErrCode::OutOfOrder,
                            format!("submission at tick {tick} past the session window"),
                        )
                    } else if tick < sess.arrivals[pid.index()] {
                        some_error(
                            ErrCode::OutOfOrder,
                            format!(
                                "pod {pod} submitted at tick {tick} before its arrival tick {}",
                                sess.arrivals[pid.index()]
                            ),
                        )
                    } else {
                        optum_obs::counter!("serve.submits");
                        buckets.entry(tick).or_default().push((pid, s));
                        sess.slots[s].cursor += 1;
                        sess.slots[s].watermark = sess.slots[s].watermark.max(tick);
                        None // verdict arrives when the tick closes
                    }
                }
            }
        }
        Request::Complete { pod } => match sim.outcome(PodId(pod)) {
            Some(o) => Some(Reply::PodStatus {
                pod,
                placed_at: o.placed_at.map(|t| t.0),
                node: o.node.map(|n| n.0 as u64),
                completed_at: o.completed_at.map(|t| t.0),
                shed_at: o.shed_at.map(|t| t.0),
                evictions: o.evictions as u64,
            }),
            None => some_error(ErrCode::Unsupported, format!("unknown pod {pod}")),
        },
        Request::Stats => {
            let stats = sim.overload_stats();
            let (arrivals, admitted, shed) =
                stats.per_class.iter().fold((0, 0, 0), |(a, ad, s), c| {
                    (a + c.arrivals, ad + c.admitted, s + c.shed)
                });
            let frontier = sess.frontier(sim.end_tick().0);
            let health: Vec<SlotHealth> = sess
                .slots
                .iter()
                .enumerate()
                .map(|(i, sl)| SlotHealth {
                    slot: i as u64,
                    watermark: sl.watermark,
                    lease_remaining: match (sess.lease, sl.draining || sl.evicted, frontier) {
                        (Some(l), false, Some(f)) => {
                            Some(sl.watermark.saturating_add(l).saturating_sub(f))
                        }
                        _ => None,
                    },
                    state: if sl.evicted {
                        3
                    } else if sl.draining {
                        2
                    } else if sl.attached.is_some() {
                        0
                    } else {
                        1
                    },
                })
                .collect();
            Some(Reply::StatsOk {
                tick: sim.next_step().0,
                pending: sim.pending_depth() as u64,
                running: sim.running_count() as u64,
                arrivals,
                admitted,
                shed,
                evicted: sess.slots.iter().filter(|s| s.evicted).count() as u64,
                denied: stats.total_disconnected(),
                health,
            })
        }
        Request::Checkpoint => match sim.checkpoint_now() {
            Ok(t) => Some(Reply::CheckpointOk { tick: t.0 }),
            Err(e) => some_error(ErrCode::Internal, e.to_string()),
        },
        Request::Drain => {
            let bound = conns.get(&conn_id).and_then(|c| c.slot);
            match bound {
                None => some_error(ErrCode::BadHandshake, "drain before hello".into()),
                Some(s) if sess.slots[s].cursor < sess.owned_count(s) => {
                    // Draining with unsubmitted pods means submit
                    // frames were lost upstream of the drain: honoring
                    // it would leave a permanent hole in the trace.
                    // Reject and force a reconnect-and-resubmit.
                    optum_obs::counter!("serve.gap_disconnects");
                    let missing = sess.owned_count(s) - sess.slots[s].cursor;
                    let _ = tx.send(Outbound::Reply(Reply::Error {
                        code: ErrCode::OutOfOrder,
                        message: format!(
                            "drain on slot {s} with {missing} unsubmitted pods \
                             (frames were lost; reconnect and resubmit)"
                        ),
                    }));
                    let _ = tx.send(Outbound::Shutdown);
                    None
                }
                Some(s) => {
                    sess.slots[s].draining = true;
                    sess.drain_seen = true;
                    None // the Drained reply carries the summary at the end
                }
            }
        }
        // A `bye` belongs to the linger phase; before completion it is
        // a client giving up on a displaced connection — nothing to
        // settle, nothing to say.
        Request::Bye => None,
    };
    if let Some(reply) = reply {
        let _ = tx.send(Outbound::Reply(reply));
    }
}

fn some_error(code: ErrCode, message: String) -> Option<Reply> {
    Some(Reply::Error { code, message })
}
