//! `shard-100k`: the sharded scale engine at 100 000 hosts.
//!
//! The only workload that enters `optum-shard` and the `optum-parallel`
//! pool, and it enters nothing else — no `sim`, `sched` or `serve` —
//! so it is where a shard-layer change must show and the no-change
//! control for every other layer.

use std::time::Instant;

use optum_shard::{ScaleEngine, ScaleResult, ScaleSimConfig};
use optum_trace::{generate_scale, ScalePod, ScaleWorkloadConfig};
use optum_types::{Result, TICKS_PER_DAY};

use crate::measure::{peak_rss_mb, process_cpu_s, Summary};
use crate::metrics::{RunResult, Values};
use crate::{obs_self_ms, RunArgs};

/// Trace window of the scale workload, in days.
const DAYS: u64 = 1;

/// Shard count of the measured arm.
const SHARDS: usize = 4;

/// Passes of the untraced run per pass that fits into `--seconds`. The
/// span here is the whole pass (`ScaleEngine::run` is one call), so the
/// fastest repetition only gets steadier with more of them, and a pass
/// is short enough that half again as many still make the shortest run
/// of the four workloads.
const OVERSAMPLE: f64 = 1.5;

/// Size of the shard workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardScale {
    /// Fleet size.
    pub hosts: usize,
    /// How many times set-up is repeated for the `setup_s` median.
    pub setups: usize,
    /// About how long one measured pass takes, in seconds: sets the rep
    /// count (see `RunArgs::reps`).
    pub pass_s: f64,
}

struct Pass {
    wall_s: f64,
    cpu_s: f64,
    result: ScaleResult,
}

/// Walls of one round of the traced pass: the measured arm bare, the
/// same arm with the registry read, and the two arms it is compared
/// against.
struct Round {
    bare_s: f64,
    traced_s: f64,
    one_thread_s: f64,
    one_shard_s: f64,
}

fn pass(pods: &[ScalePod], hosts: usize, seed: u64, shards: usize, threads: usize) -> Pass {
    let mut cfg = ScaleSimConfig::new(hosts, shards, DAYS * TICKS_PER_DAY);
    cfg.seed = seed;
    cfg.threads = threads;
    let cpu0 = process_cpu_s();
    let start = Instant::now();
    let result = ScaleEngine::new(pods, cfg).run();
    Pass {
        wall_s: start.elapsed().as_secs_f64(),
        cpu_s: process_cpu_s() - cpu0,
        result,
    }
}

/// Runs the shard workload.
pub fn run(scale: &ShardScale, args: &RunArgs) -> Result<RunResult> {
    // Set-up, repeated for the `setup_s` median; each extra trace is
    // dropped before the next is generated, so peak RSS holds one.
    let generate = || {
        let start = Instant::now();
        let pods = generate_scale(&ScaleWorkloadConfig::sized(scale.hosts, DAYS, args.seed));
        (pods, start.elapsed().as_secs_f64())
    };
    let mut setup_s = Vec::new();
    for _ in 1..scale.setups {
        setup_s.push(generate().1);
    }
    let (pods, last_setup_s) = generate();
    setup_s.push(last_setup_s);

    // `(digest, ledger conserved)` of every pass, judged at the end
    // against the 1-shard pass among them.
    let mut outcomes = Vec::new();
    let mut judge = |p: &Pass| outcomes.push((p.result.digest(), p.result.conservation_holds()));

    let mut values = Values::new();
    if !args.traced {
        // The four shards step on one thread here. With as many busy
        // threads as the box has cores, whatever else wakes up on the
        // host preempts one of them while the other waits at the tick's
        // join, and the pass times the host's scheduler: beside a
        // process busy two seconds in four, the fastest of twelve
        // half-day passes ranged over 0.64-0.83 s on two threads and
        // over 0.68-0.76 s on one. The threaded arm is timed in the
        // traced pass (`shard.run_4shard_ms`, `shard.thread_speedup`).
        let passes: Vec<(f64, f64)> = (0..args.reps(scale.pass_s / OVERSAMPLE))
            .map(|_| {
                let p = pass(&pods, scale.hosts, args.seed, SHARDS, 1);
                judge(&p);
                (p.wall_s, p.cpu_s)
            })
            .collect();
        let wall = Summary::fastest(&passes.iter().map(|p| p.0).collect::<Vec<f64>>());
        values.insert("setup_s", Summary::of(&setup_s));
        values.insert("pods_per_s", wall.rate_of(pods.len() as f64));
        values.insert(
            "cpu_s",
            Summary::fastest(&passes.iter().map(|p| p.1).collect::<Vec<f64>>()),
        );
        // Read before the 1-shard reference below runs, so the
        // high-water mark is that of the measured arm.
        values.insert("peak_rss_mb", Summary::single(peak_rss_mb()));
        // No wire here, so no verdict is ever waited for: the pass wall
        // stands in (see `metrics::applies`).
        let stand_in = Summary::single(wall.value * 1e3);
        values.insert("verdict_lag_p50_ms", stand_in);
        values.insert("verdict_lag_p99_ms", stand_in);
        // The single-shard run every 4-shard pass must have reproduced.
        judge(&pass(&pods, scale.hosts, args.seed, 1, 1));
    } else {
        let threads = optum_parallel::resolve_threads(0).min(SHARDS);
        let mut last = None;
        let mut round = || {
            let bare = pass(&pods, scale.hosts, args.seed, SHARDS, threads);
            judge(&bare);

            optum_obs::reset();
            let traced = pass(&pods, scale.hosts, args.seed, SHARDS, threads);
            let snap = optum_obs::snapshot();
            judge(&traced);

            let one_thread = pass(&pods, scale.hosts, args.seed, SHARDS, 1);
            judge(&one_thread);
            let one_shard = pass(&pods, scale.hosts, args.seed, 1, 1);
            judge(&one_shard);
            last = Some((traced.result, snap));
            Round {
                bare_s: bare.wall_s,
                traced_s: traced.wall_s,
                one_thread_s: one_thread.wall_s,
                one_shard_s: one_shard.wall_s,
            }
        };
        let rounds: Vec<Round> = (0..args.reps(4.0 * scale.pass_s))
            .map(|_| round())
            .collect();
        let over_rounds =
            |f: fn(&Round) -> f64| Summary::fastest(&rounds.iter().map(f).collect::<Vec<f64>>());
        let ms = |s: Summary| Summary {
            value: s.value * 1e3,
            q1: s.q1 * 1e3,
            q3: s.q3 * 1e3,
            n: s.n,
        };
        let bare = over_rounds(|r| r.bare_s);
        let traced = over_rounds(|r| r.traced_s);
        let one_thread = over_rounds(|r| r.one_thread_s);
        let one_shard = over_rounds(|r| r.one_shard_s);
        let (result, snap) = last.expect("at least one round");
        let count = |n: u64| Summary::single(n as f64);
        values.insert("tracegen.generate_scale_ms", ms(Summary::of(&setup_s)));
        values.insert("tracegen.pods", count(pods.len() as u64));
        values.insert("shard.run_1shard_ms", ms(one_shard));
        values.insert("shard.run_4shard_1thread_ms", ms(one_thread));
        values.insert("shard.run_4shard_ms", ms(traced));
        values.insert(
            "shard.exchange_overhead_ratio",
            Summary::single(one_thread.value / one_shard.value),
        );
        values.insert(
            "shard.thread_speedup",
            Summary::single(one_thread.value / traced.value),
        );
        values.insert("shard.active_ticks", count(result.active_ticks));
        values.insert("shard.skipped_ticks", count(result.skipped_ticks));
        values.insert("shard.placed", count(result.placements));
        values.insert(
            "shard.shed",
            count(result.per_class.iter().map(|c| c.shed).sum()),
        );
        values.insert(
            "obs.shard.tick_self_ms",
            Summary::single(obs_self_ms(&snap, "shard.tick")),
        );
        values.insert(
            "trace.overhead_ratio",
            Summary::single(traced.value / bare.value),
        );
    }

    // Every pass, whatever its layout, must agree with the 1-shard pass
    // (the last one, in both pass kinds).
    let reference_digest = outcomes.last().expect("at least one pass").0;
    let failed = outcomes.iter().filter(|o| o.0 != reference_digest || !o.1);
    let checks = vec![
        (
            "digest_equals_1shard",
            outcomes.iter().all(|o| o.0 == reference_digest),
        ),
        ("ledger_conserved", outcomes.iter().all(|o| o.1)),
    ];
    Ok(RunResult::assemble(
        "shard-100k",
        args.seed,
        args.traced,
        outcomes.len() as u64,
        failed.count() as u64,
        checks,
        vec![("scale_run", reference_digest)],
        values,
    ))
}
