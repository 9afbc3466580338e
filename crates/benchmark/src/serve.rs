//! `serve-replay`: `optumd` in-process over loopback TCP.
//!
//! The only workload that goes through `proto`, `server` and `driver`.
//! Two phases share one session configuration and two connections:
//!
//! * **blast** — the product client [`optum_serve::drive`], a saturated
//!   open loop that writes the whole trace and then reads. Its wall is
//!   mostly engine plus a wire share; `pods_per_s` and `cpu_s` come
//!   from here.
//! * **paced** — this file's own open-loop client, replaying the trace
//!   at a fixed number of virtual ticks per wall second. Every frame
//!   has a due time on that schedule; the verdict lag of a pod is timed
//!   from the instant its tick became closable *on the schedule* (so a
//!   stall counts against every pod behind it), and how late the
//!   generator itself ran is reported apart.

use std::io::{BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use optum_sched::AlibabaLike;
use optum_serve::{
    drive, read_frame, write_frame, DriverConfig, Reply, Request, ServeConfig, ServeOutcome,
    Server, SessionSummary, PROTO_VERSION,
};
use optum_types::{Error, Result, SplitMix64, TICKS_PER_DAY};

use crate::measure::{peak_rss_mb, process_cpu_s, quantile, Summary};
use crate::metrics::{RunResult, Values};
use crate::{obs_self_ms, RunArgs, TRACE_SEED};

/// Client connections (= submission slots) of every session.
const CONNS: usize = 2;

/// A session that has not finished after this long has hung: it is
/// counted as failed instead of stalling the benchmark.
const SESSION_DEADLINE: Duration = Duration::from_secs(60);

/// Blast sessions per paced session of the untraced pass. A blast
/// keeps half a dozen threads busy on two vCPUs and can only be timed
/// whole, so of all the spans here it is the one a busy host disturbs
/// most (its fastest-of-9 swung 3 474–5 137 pods/s from run to run in
/// one bad quarter of an hour): it gets the most repetitions the time
/// cap leaves room for.
const BLASTS_PER_ROUND: usize = 5;

/// Width of the paced client's seeded send jitter, in ticks.
const JITTER_TICKS: f64 = 0.5;

/// `SplitMix64::stream` channel of the send jitter.
const CH_JITTER: u64 = 0x0B_E7;

/// Size and pace of the serve workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeScale {
    /// Hosts in the served cluster.
    pub hosts: usize,
    /// Trace window in days.
    pub days: u64,
    /// Virtual ticks per wall second of the paced phase.
    pub pace: f64,
    /// Pace of the one diagnostic session of the traced pass.
    pub diagnostic_pace: f64,
    /// About how long one blast session takes, in seconds: sets the
    /// rep count (see `RunArgs::reps`).
    pub blast_s: f64,
}

/// The session every phase serves. `optumd` and its clients each
/// regenerate the trace from `(hosts, days, seed)`, so the served trace
/// is the fixed [`TRACE_SEED`] population and nothing else; `--seed`
/// reaches this workload through the paced client's send jitter.
fn session_config(scale: &ServeScale) -> ServeConfig {
    let mut cfg = ServeConfig::fast();
    cfg.hosts = scale.hosts;
    cfg.days = scale.days;
    cfg.seed = TRACE_SEED;
    cfg
}

/// A running in-process server: its address and the thread that will
/// hand back the outcome and the instant `Server::run` returned.
struct Served {
    addr: String,
    thread: JoinHandle<(Result<ServeOutcome>, Instant)>,
}

fn serve(cfg: &ServeConfig) -> Result<Served> {
    let server = Server::bind(cfg.clone(), "127.0.0.1:0")?;
    let addr = server.local_addr().to_string();
    let thread = std::thread::Builder::new()
        .name("bench-optumd".into())
        .spawn(move || {
            let outcome = server.run();
            (outcome, Instant::now())
        })
        .map_err(|e| Error::InvalidConfig(format!("cannot spawn server thread: {e}")))?;
    Ok(Served { addr, thread })
}

impl Served {
    /// Joins the server thread: its summary (if it completed) and when
    /// it returned.
    fn join(self) -> (Option<SessionSummary>, Instant) {
        match self.thread.join() {
            Ok((Ok(ServeOutcome::Completed(summary)), at)) => (Some(summary), at),
            Ok((_, at)) => (None, at),
            Err(_) => (None, Instant::now()),
        }
    }
}

/// One blast session, timed from outside `drive`.
struct Blast {
    wall_s: f64,
    cpu_s: f64,
    submitted: u64,
    /// Submits that got neither `queued` nor `shed`.
    unanswered: u64,
    /// The client's summary, when server and client agree on it.
    summary: Option<SessionSummary>,
}

fn blast(cfg: &ServeConfig) -> Result<Blast> {
    let served = serve(cfg)?;
    let mut driver = DriverConfig::new(served.addr.clone(), cfg.clone(), CONNS, "bench".into());
    driver.read_timeout_ms = Some(SESSION_DEADLINE.as_millis() as u64);
    let cpu0 = process_cpu_s();
    let start = Instant::now();
    let report = drive(&driver);
    let wall_s = start.elapsed().as_secs_f64();
    let cpu_s = process_cpu_s() - cpu0;
    let Ok(report) = report else {
        // A hung or broken session: leave the server thread behind
        // (joining it could hang too) and report the failure.
        return Ok(Blast {
            wall_s,
            cpu_s,
            submitted: 0,
            unanswered: 0,
            summary: None,
        });
    };
    let (server_summary, _) = served.join();
    let answered = report.counts.queued + report.counts.shed;
    Ok(Blast {
        wall_s,
        cpu_s,
        submitted: report.counts.submitted,
        unanswered: report.counts.submitted.saturating_sub(answered),
        summary: (server_summary.as_ref() == Some(&report.summary)).then_some(report.summary),
    })
}

/// What one connection's reader saw.
#[derive(Default)]
struct Heard {
    /// `(pod, read instant)` of every `queued`/`shed` verdict.
    verdicts: Vec<(u32, Instant)>,
    frames: u64,
    bytes: u64,
    /// `Error` replies and replies the session should never produce.
    errors: u64,
    /// The `Drained` summary and when it was read.
    drained: Option<(SessionSummary, Instant)>,
}

/// What one connection's writer did.
struct Sent {
    frames: u64,
    bytes: u64,
    /// How late each batch left against its due time, ms.
    late_ms: Vec<f64>,
    /// When the `drain` was written.
    drain_at: Instant,
}

/// Appends `req` to `buf` as one length-prefixed frame.
fn push_frame(buf: &mut Vec<u8>, req: &Request) {
    write_frame(buf, &req.encode()).expect("writing to a Vec cannot fail");
}

fn frame_of(req: &Request) -> Vec<u8> {
    let mut buf = Vec::new();
    push_frame(&mut buf, req);
    buf
}

fn io_err(what: &str, e: std::io::Error) -> Error {
    Error::InvalidData(format!("paced client: {what}: {e}"))
}

/// Connects one slot and shakes hands; returns the stream and the
/// hello round-trip time.
fn connect(addr: &str, cfg: &ServeConfig, slot: usize) -> Result<(TcpStream, Duration)> {
    let mut stream = TcpStream::connect(addr).map_err(|e| io_err("connect", e))?;
    stream.set_nodelay(true).map_err(|e| io_err("nodelay", e))?;
    stream
        .set_read_timeout(Some(SESSION_DEADLINE))
        .map_err(|e| io_err("read timeout", e))?;
    let hello = frame_of(&Request::Hello {
        client: format!("bench-paced#{slot}"),
        seed: cfg.seed,
        hosts: cfg.hosts as u64,
        days: cfg.days,
        rate_bits: cfg.rate.to_bits(),
        queue_cap: cfg.queue_cap.map(|c| c as u64),
        slot: slot as u64,
        slots: CONNS as u64,
        lease: cfg.lease_ticks,
    });
    let start = Instant::now();
    stream.write_all(&hello).map_err(|e| io_err("hello", e))?;
    let payload = read_frame(&mut stream)
        .map_err(|e| Error::InvalidData(format!("paced client: hello reply: {e:?}")))?;
    let rtt = start.elapsed();
    match Reply::decode(&payload)? {
        Reply::HelloOk { proto, .. } if proto == PROTO_VERSION => Ok((stream, rtt)),
        other => Err(Error::InvalidData(format!(
            "paced client: handshake refused: {other:?}"
        ))),
    }
}

/// Due time of a slot's frames for `tick`, in seconds after the session
/// start: the tick's place on the pace, plus a seeded jitter of up to
/// [`JITTER_TICKS`] — the arrival process of an open loop is not a
/// metronome, and this is the input `--seed` draws for this workload.
fn due_s(tick: u64, pace: f64, jitter: &mut SplitMix64) -> f64 {
    (tick as f64 + jitter.next_f64() * JITTER_TICKS) / pace
}

/// Writes one slot's plan on schedule (`due_s[i]` seconds after `start`
/// for the `i`-th distinct tick of the plan), then the `drain` at the
/// window end.
fn write_paced(
    mut stream: TcpStream,
    plan: &[(u64, u32)],
    due_s: &[f64],
    start: Instant,
    drain_due_s: f64,
) -> std::io::Result<Sent> {
    let due = |s: f64| start + Duration::from_secs_f64(s);
    let mut sent = Sent {
        frames: 0,
        bytes: 0,
        late_ms: Vec::new(),
        drain_at: start,
    };
    let mut batch = Vec::new();
    let mut due_s = due_s.iter();
    let mut i = 0;
    while i < plan.len() {
        let tick = plan[i].0;
        batch.clear();
        while i < plan.len() && plan[i].0 == tick {
            let (tick, pod) = plan[i];
            push_frame(&mut batch, &Request::Submit { tick, pod });
            sent.frames += 1;
            i += 1;
        }
        let due_at = due(*due_s.next().expect("one due time per distinct tick"));
        std::thread::sleep(due_at.saturating_duration_since(Instant::now()));
        stream.write_all(&batch)?;
        sent.late_ms.push(
            Instant::now()
                .saturating_duration_since(due_at)
                .as_secs_f64()
                * 1e3,
        );
        sent.bytes += batch.len() as u64;
    }
    let drain = frame_of(&Request::Drain);
    std::thread::sleep(due(drain_due_s).saturating_duration_since(Instant::now()));
    stream.write_all(&drain)?;
    sent.drain_at = Instant::now();
    sent.frames += 1;
    sent.bytes += drain.len() as u64;
    Ok(sent)
}

/// Reads one slot's replies until `Drained`, stamping each verdict the
/// moment its frame is read, then acknowledges with `bye`.
fn read_replies(stream: TcpStream) -> Heard {
    let mut heard = Heard::default();
    let mut ack = stream.try_clone().ok();
    let mut reader = BufReader::new(stream);
    loop {
        // A read error is the deadline or a dead server: the missing
        // verdicts are counted by the caller.
        let Ok(payload) = read_frame(&mut reader) else {
            return heard;
        };
        let at = Instant::now();
        heard.frames += 1;
        heard.bytes += 4 + payload.len() as u64;
        match Reply::decode(&payload) {
            Ok(Reply::Queued { pod, .. }) | Ok(Reply::Shed { pod, .. }) => {
                heard.verdicts.push((pod, at))
            }
            Ok(Reply::Drained(summary)) => {
                heard.drained = Some((summary, at));
                if let Some(w) = ack.as_mut() {
                    let _ = w.write_all(&frame_of(&Request::Bye));
                }
                return heard;
            }
            _ => heard.errors += 1,
        }
    }
}

/// One paced session.
struct Paced {
    /// Client trace generation + bind + connect + hello, both slots.
    setup_s: f64,
    hello_rtt_us: f64,
    cpu_s: f64,
    submitted: u64,
    /// Submits with no verdict, plus `Error` replies.
    failed_ops: u64,
    errors: u64,
    lags_ms: Vec<f64>,
    late_ms: Vec<f64>,
    frames_sent: u64,
    frames_recv: u64,
    bytes_sent: u64,
    bytes_recv: u64,
    drain_tail_ms: f64,
    linger_ms: f64,
    summary: Option<SessionSummary>,
}

/// Runs the `session`-th paced session of a run at `pace` ticks per
/// second, its send jitter drawn from `seed`.
fn paced(cfg: &ServeConfig, pace: f64, seed: u64, session: u64) -> Result<Paced> {
    let setup_start = Instant::now();
    let workload = cfg.workload()?;
    let arrivals: Vec<u64> = workload.pods.iter().map(|p| p.spec.arrival.0).collect();
    let drain_due_s = workload.config.window_ticks() as f64 / pace;
    // Round-robin by trace position: the server's slot ownership rule.
    let mut plans: Vec<Vec<(u64, u32)>> = vec![Vec::new(); CONNS];
    for (i, &tick) in arrivals.iter().enumerate() {
        plans[i % CONNS].push((tick, i as u32));
    }
    // Per slot: the distinct ticks it submits at and when each is due.
    let slot_ticks: Vec<Vec<u64>> = plans
        .iter()
        .map(|p| {
            let mut t: Vec<u64> = p.iter().map(|f| f.0).collect();
            t.dedup();
            t
        })
        .collect();
    let slot_due_s: Vec<Vec<f64>> = slot_ticks
        .iter()
        .enumerate()
        .map(|(slot, ticks)| {
            let lane = session * CONNS as u64 + slot as u64;
            let mut jitter = SplitMix64::stream(seed, lane, CH_JITTER);
            ticks.iter().map(|&t| due_s(t, pace, &mut jitter)).collect()
        })
        .collect();
    let served = serve(cfg)?;
    let mut streams = Vec::new();
    let mut hello_rtt = Duration::ZERO;
    for slot in 0..CONNS {
        let (stream, rtt) = connect(&served.addr, cfg, slot)?;
        hello_rtt = hello_rtt.max(rtt);
        streams.push(stream);
    }
    let setup_s = setup_start.elapsed().as_secs_f64();

    let cpu0 = process_cpu_s();
    let start = Instant::now();
    let mut sent = Vec::new();
    let mut heard = Vec::new();
    std::thread::scope(|scope| -> Result<()> {
        let mut writers = Vec::new();
        let mut readers = Vec::new();
        for ((stream, plan), due_s) in streams.into_iter().zip(&plans).zip(&slot_due_s) {
            let read_half = stream.try_clone().map_err(|e| io_err("clone", e))?;
            readers.push(scope.spawn(move || read_replies(read_half)));
            writers.push(scope.spawn(move || write_paced(stream, plan, due_s, start, drain_due_s)));
        }
        for w in writers {
            sent.push(w.join().expect("paced writer panicked"));
        }
        for r in readers {
            heard.push(r.join().expect("paced reader panicked"));
        }
        Ok(())
    })?;
    let cpu_s = process_cpu_s() - cpu0;

    let incomplete = heard.iter().any(|h| h.drained.is_none()) || sent.iter().any(|s| s.is_err());
    let (server_summary, returned_at) = if incomplete {
        // Joining a server whose session never completed could hang.
        (None, Instant::now())
    } else {
        served.join()
    };

    // A tick closes once every slot has sent a later tick or drained;
    // on the schedule, that is the latest such due time over the slots.
    let closable_s = |tick: u64| {
        slot_ticks
            .iter()
            .zip(&slot_due_s)
            .map(|(ticks, due_s)| {
                let next = ticks.partition_point(|&t| t <= tick);
                due_s.get(next).copied().unwrap_or(drain_due_s)
            })
            .fold(0.0, f64::max)
    };
    let mut lags_ms = Vec::new();
    for h in &heard {
        for &(pod, at) in &h.verdicts {
            let Some(&tick) = arrivals.get(pod as usize) else {
                continue;
            };
            let closable = start + Duration::from_secs_f64(closable_s(tick));
            lags_ms.push(at.saturating_duration_since(closable).as_secs_f64() * 1e3);
        }
    }

    let submitted = arrivals.len() as u64;
    let errors: u64 = heard.iter().map(|h| h.errors).sum();
    let drained_at = heard
        .iter()
        .filter_map(|h| h.drained.as_ref())
        .map(|d| d.1)
        .max();
    let drain_at = sent.iter().flatten().map(|s| s.drain_at).max();
    let summaries: Vec<&SessionSummary> = heard
        .iter()
        .filter_map(|h| h.drained.as_ref())
        .map(|d| &d.0)
        .collect();
    let agreed = !incomplete
        && summaries.windows(2).all(|w| w[0] == w[1])
        && summaries.first().copied() == server_summary.as_ref();
    Ok(Paced {
        setup_s,
        hello_rtt_us: hello_rtt.as_secs_f64() * 1e6,
        cpu_s,
        submitted,
        failed_ops: submitted.saturating_sub(lags_ms.len() as u64) + errors,
        errors,
        late_ms: sent
            .iter()
            .flatten()
            .flat_map(|s| s.late_ms.clone())
            .collect(),
        frames_sent: sent.iter().flatten().map(|s| s.frames).sum::<u64>() + CONNS as u64,
        frames_recv: heard.iter().map(|h| h.frames).sum::<u64>() + CONNS as u64,
        bytes_sent: sent.iter().flatten().map(|s| s.bytes).sum(),
        bytes_recv: heard.iter().map(|h| h.bytes).sum(),
        drain_tail_ms: match (drain_at, drained_at) {
            (Some(a), Some(b)) => b.saturating_duration_since(a).as_secs_f64() * 1e3,
            _ => 0.0,
        },
        linger_ms: drained_at
            .map(|d| returned_at.saturating_duration_since(d).as_secs_f64() * 1e3)
            .unwrap_or(0.0),
        lags_ms,
        summary: agreed.then(|| server_summary.expect("agreed implies a server summary")),
    })
}

/// The batch engine run of the identical session — trace generation
/// included, as `Server::run` generates its own — timed, with its
/// digest.
fn engine_equivalent(cfg: &ServeConfig) -> Result<(f64, u64)> {
    let start = Instant::now();
    let workload = cfg.workload()?;
    let result = optum_sim::run(&workload, AlibabaLike::default(), cfg.sim_config())?;
    Ok((start.elapsed().as_secs_f64(), result.digest()))
}

/// Output checks and failure accounting shared by both pass kinds.
#[derive(Default)]
struct Ledger {
    attempted: u64,
    failed: u64,
    first: Option<SessionSummary>,
    summaries_differ: bool,
    ledger_broken: bool,
}

impl Ledger {
    /// Books one session: `ops` submits of which `failed_ops` failed,
    /// and the summary server and client agreed on (or `None`).
    fn book(&mut self, ops: u64, failed_ops: u64, summary: &Option<SessionSummary>) {
        self.attempted += ops + 1;
        self.failed += failed_ops;
        match summary {
            None => {
                self.failed += 1;
                self.summaries_differ = true;
            }
            Some(s) => {
                self.ledger_broken |= !s.ledger_holds();
                self.summaries_differ |= self.first.get_or_insert_with(|| s.clone()) != s;
            }
        }
    }

    fn blast(&mut self, b: &Blast) {
        self.book(b.submitted, b.unanswered, &b.summary);
    }

    fn paced(&mut self, p: &Paced) {
        self.book(p.submitted, p.failed_ops, &p.summary);
    }
}

/// Runs the serve workload.
pub fn run(scale: &ServeScale, args: &RunArgs) -> Result<RunResult> {
    let cfg = session_config(scale);
    let mut ledger = Ledger::default();
    let mut values = Values::new();
    let mut batch_digest = 0;

    if !args.traced {
        (_, batch_digest) = engine_equivalent(&cfg)?;
        // Blast and paced sessions alternate, so each kind samples the
        // whole run and not one stretch of it.
        let window_ticks = (scale.days * TICKS_PER_DAY) as f64;
        let round_s = BLASTS_PER_ROUND as f64 * scale.blast_s + window_ticks / scale.pace;
        let mut blasts = Vec::new();
        let mut sessions = Vec::new();
        let mut peak_rss = 0.0;
        for round in 0..args.reps(round_s) {
            for _ in 0..BLASTS_PER_ROUND {
                let b = blast(&cfg)?;
                ledger.blast(&b);
                blasts.push(b);
            }
            let p = paced(&cfg, scale.pace, args.seed, round as u64)?;
            ledger.paced(&p);
            sessions.push(p);
            // `optumd` serves one session per process. Every further
            // session here starts fresh threads, which glibc hands
            // fresh malloc arenas now and then (+4 MB in about one run
            // of ten): growth no one-session server sees. So the
            // high-water mark is read once each kind of session has
            // run, not at the end.
            if round == 0 {
                peak_rss = peak_rss_mb();
            }
        }
        let column = |f: fn(&Blast) -> f64| blasts.iter().map(f).collect::<Vec<f64>>();
        let pods = blasts.iter().map(|b| b.submitted).max().unwrap_or(0);
        let per_session = |f: &dyn Fn(&Paced) -> f64| sessions.iter().map(f).collect::<Vec<f64>>();
        values.insert("setup_s", Summary::of(&per_session(&|p| p.setup_s)));
        values.insert(
            "pods_per_s",
            Summary::fastest(&column(|b| b.wall_s)).rate_of(pods as f64),
        );
        values.insert("cpu_s", Summary::fastest(&column(|b| b.cpu_s)));
        values.insert("peak_rss_mb", Summary::single(peak_rss));
        // Percentiles per session, then the quietest session, as every
        // other timing is its fastest repetition: pooled, one stall of
        // the host inside one session would own the whole tail.
        values.insert(
            "verdict_lag_p50_ms",
            Summary::fastest(&per_session(&|p| quantile(&p.lags_ms, 0.5))),
        );
        values.insert(
            "verdict_lag_p99_ms",
            Summary::fastest(&per_session(&|p| quantile(&p.lags_ms, 0.99))),
        );
    } else {
        // Bare blasts, their batch equivalents and traced blasts (the
        // program's registry reset before and read after) alternate,
        // so a difference of their fastest is not a difference of
        // moods of the machine. The wire overhead is a difference of
        // two such walls, ten times smaller than either, so the rounds
        // take all of `seconds`; the two paced sessions come on top.
        let mut bare_s = Vec::new();
        let mut engine_s = Vec::new();
        let mut traced_s = Vec::new();
        let mut last = None;
        for _ in 0..args.reps(3.0 * scale.blast_s) {
            let bare = blast(&cfg)?;
            ledger.blast(&bare);
            bare_s.push(bare.wall_s);

            let (wall_s, digest) = engine_equivalent(&cfg)?;
            batch_digest = digest;
            engine_s.push(wall_s);

            optum_obs::reset();
            let traced = blast(&cfg)?;
            let snap = optum_obs::snapshot();
            ledger.blast(&traced);
            traced_s.push(traced.wall_s);
            last = Some((traced.submitted, snap));
        }
        let bare_s = Summary::fastest(&bare_s).value;
        let engine_s = Summary::fastest(&engine_s).value;
        let overhead = Summary::fastest(&traced_s).value / bare_s;
        let (pods, snap) = last.expect("at least one round");

        let p = paced(&cfg, scale.pace, args.seed, 1)?;
        let diag = paced(&cfg, scale.diagnostic_pace, args.seed, 2)?;

        let one = Summary::single;
        values.insert("tracegen.pods", one(pods as f64));
        values.insert("serve.session_wall_ms", one(bare_s * 1e3));
        values.insert("serve.engine_equiv_ms", one(engine_s * 1e3));
        values.insert("serve.wire_overhead_ms", one((bare_s - engine_s) * 1e3));
        values.insert("serve.hello_rtt_us", one(p.hello_rtt_us));
        values.insert("serve.frames_sent", one(p.frames_sent as f64));
        values.insert("serve.frames_recv", one(p.frames_recv as f64));
        values.insert("serve.bytes_sent", one(p.bytes_sent as f64));
        values.insert("serve.bytes_recv", one(p.bytes_recv as f64));
        values.insert("serve.drain_tail_ms", one(p.drain_tail_ms));
        values.insert("serve.linger_ms", one(p.linger_ms));
        values.insert("serve.lag_samples", one(p.lags_ms.len() as f64));
        values.insert("serve.lag_p999_ms", one(quantile(&p.lags_ms, 0.999)));
        values.insert("serve.lag_max_ms", one(quantile(&p.lags_ms, 1.0)));
        values.insert("serve.send_late_p99_ms", one(quantile(&p.late_ms, 0.99)));
        values.insert("serve.paced_cpu_s", one(p.cpu_s));
        values.insert(
            "serve.lag_p50_ms_at_3000",
            one(quantile(&diag.lags_ms, 0.5)),
        );
        values.insert(
            "serve.lag_p99_ms_at_3000",
            one(quantile(&diag.lags_ms, 0.99)),
        );
        values.insert(
            "serve.protocol_errors",
            one((p.errors + diag.errors) as f64),
        );
        for (name, span) in [
            ("obs.sim.physics_self_ms", "sim.physics"),
            ("obs.sim.schedule_round_self_ms", "sim.schedule_round"),
            ("obs.sched.best_node_self_ms", "sched.best_node"),
            ("obs.serve.session_self_ms", "serve.session"),
        ] {
            values.insert(name, one(obs_self_ms(&snap, span)));
        }
        values.insert("trace.overhead_ratio", one(overhead));
        ledger.paced(&p);
        ledger.paced(&diag);

        let (encode_ns, decode_ns) = codec_probe();
        values.insert("proto.encode_ns_per_frame", one(encode_ns));
        values.insert("proto.decode_ns_per_frame", one(decode_ns));
        values.insert("proto.loopback_frames_per_s", one(loopback_probe()?));
    }

    let served_digest = ledger.first.as_ref().map(|s| s.digest).unwrap_or(0);
    let checks = vec![
        ("summaries_agree", !ledger.summaries_differ),
        ("ledger_holds", !ledger.ledger_broken),
        ("served_equals_batch", served_digest == batch_digest),
    ];
    let digests = vec![("served", served_digest), ("batch", batch_digest)];
    Ok(RunResult::assemble(
        "serve-replay",
        args.seed,
        args.traced,
        ledger.attempted,
        ledger.failed,
        checks,
        digests,
        values,
    ))
}

/// `proto` in isolation: ns to encode and to decode one submit/queued
/// frame pair through the public codec.
fn codec_probe() -> (f64, f64) {
    const FRAMES: u32 = 200_000;
    let start = Instant::now();
    let mut bytes = 0usize;
    for pod in 0..FRAMES {
        let req = Request::Submit {
            tick: u64::from(pod / 4),
            pod,
        };
        bytes += std::hint::black_box(req.encode()).len();
    }
    let encode_ns = start.elapsed().as_nanos() as f64 / f64::from(FRAMES);
    std::hint::black_box(bytes);

    let payload = Reply::Queued { pod: 7, tick: 9 }.encode();
    let start = Instant::now();
    for _ in 0..FRAMES {
        let reply = Reply::decode(std::hint::black_box(&payload));
        std::hint::black_box(reply.is_ok());
    }
    let decode_ns = start.elapsed().as_nanos() as f64 / f64::from(FRAMES);
    (encode_ns, decode_ns)
}

/// The wire ceiling: submit→queued echoes per second over a loopback
/// socket with no engine behind it, in windows of 256 frames.
fn loopback_probe() -> Result<f64> {
    const WINDOW: u32 = 256;
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| io_err("probe bind", e))?;
    let addr = listener.local_addr().map_err(|e| io_err("probe addr", e))?;
    let echo = std::thread::spawn(move || -> std::io::Result<()> {
        let (stream, _) = listener.accept()?;
        let mut out = std::io::BufWriter::new(stream.try_clone()?);
        let mut input = BufReader::new(stream);
        while let Ok(payload) = read_frame(&mut input) {
            if let Ok(Request::Submit { tick, pod }) = Request::decode(&payload) {
                write_frame(&mut out, &Reply::Queued { pod, tick }.encode())?;
            }
            if input.buffer().is_empty() {
                out.flush()?;
            }
        }
        Ok(())
    });
    let mut stream = TcpStream::connect(addr).map_err(|e| io_err("probe connect", e))?;
    stream.set_nodelay(true).map_err(|e| io_err("nodelay", e))?;
    let mut input = BufReader::new(stream.try_clone().map_err(|e| io_err("clone", e))?);
    let start = Instant::now();
    let mut echoed = 0u64;
    let mut batch = Vec::new();
    while start.elapsed().as_secs_f64() < 0.3 {
        batch.clear();
        for pod in 0..WINDOW {
            push_frame(&mut batch, &Request::Submit { tick: 0, pod });
        }
        stream
            .write_all(&batch)
            .map_err(|e| io_err("probe write", e))?;
        for _ in 0..WINDOW {
            read_frame(&mut input)
                .map_err(|e| Error::InvalidData(format!("loopback probe: {e:?}")))?;
            echoed += 1;
        }
    }
    let rate = echoed as f64 / start.elapsed().as_secs_f64();
    drop(input);
    drop(stream);
    echo.join()
        .map_err(|_| Error::InvalidData("loopback echo thread panicked".into()))?
        .map_err(|e| io_err("probe echo", e))?;
    Ok(rate)
}
