//! Control-plane degradation sweep: the `repro degrade` experiment.
//!
//! Crosses proposal-channel loss rates with distributed-scheduler
//! replica counts and reports how placement quality survives a lossy
//! control plane: every proposal a `DistributedOptum` replica sends to
//! the Deployment Module draws a deterministic fate (deliver / drop /
//! duplicate) from its per-(seed, replica, tick) stream; drops retry
//! under capped exponential backoff, duplicates are idempotently
//! deduplicated, and exhausted retry budgets defer the pod a round.
//!
//! The loss=0, k=1 arm bypasses the claim table and the channel
//! machinery entirely, so it is byte-identical to the fig19 `Optum`
//! evaluation arm — the sweep's anchor, pinned by the golden suite.
//!
//! A second panel forces the trained predictor faulty for the whole
//! run: the circuit breaker must open on the first probe and the run
//! must land the Optum-util arm's placement ratio instead of erroring
//! (graceful degradation, the acceptance bar of the fault-tolerance
//! work).

use std::sync::Arc;

use optum_chaos::{generate_outages, ChannelChaosConfig, PredictorChaosConfig};
use optum_core::{DistStats, DistributedOptum, OptumConfig};
use optum_sim::SimResult;
use optum_types::Result;

use crate::output::{Figure, Panel};
use crate::runner::Runner;

/// Proposal-loss grid (fraction of send attempts dropped in flight).
pub const LOSS_GRID: [f64; 4] = [0.0, 0.01, 0.05, 0.20];

/// Replica-count grid for the distributed deployment.
pub const SHARD_GRID: [usize; 3] = [1, 4, 16];

/// The `degrade` experiment over the default grids.
pub fn degrade(runner: &mut Runner) -> Result<Figure> {
    degrade_grid(runner, &LOSS_GRID, &SHARD_GRID)
}

/// The `degrade` experiment over explicit grids (tests use reduced
/// ones).
pub fn degrade_grid(runner: &mut Runner, losses: &[f64], shards: &[usize]) -> Result<Figure> {
    let (usage, interference) = runner.profilers()?;
    let seed = runner.config.seed;
    let window_ticks = runner.config.workload_config().window_ticks();

    // Sweep arms, then the two predictor-outage arms, in one fan-out.
    let mut schedulers: Vec<Box<dyn optum_sim::Scheduler + Send>> = Vec::new();
    let mut stats: Vec<Arc<DistStats>> = Vec::new();
    for &loss in losses {
        for &k in shards {
            let mut s = DistributedOptum::with_shared(
                k,
                OptumConfig::default(),
                usage.clone(),
                interference.clone(),
            )?;
            if loss > 0.0 {
                s.set_channel_chaos(ChannelChaosConfig::lossy(seed, loss));
            }
            stats.push(s.stats_handle());
            schedulers.push(Box::new(s));
        }
    }
    // Forced whole-run predictor outage vs the explicit util-only arm.
    let mut down = DistributedOptum::with_shared(
        1,
        OptumConfig::default(),
        usage.clone(),
        interference.clone(),
    )?;
    down.set_outage_plan(generate_outages(&PredictorChaosConfig::always_faulty(
        window_ticks,
    )));
    stats.push(down.stats_handle());
    schedulers.push(Box::new(down));
    let util = DistributedOptum::with_shared(
        1,
        OptumConfig {
            util_only: true,
            ..OptumConfig::default()
        },
        usage,
        interference,
    )?;
    stats.push(util.stats_handle());
    schedulers.push(Box::new(util));

    let results = runner.run_evals(schedulers)?;

    let mut fig = Figure::new(
        "degrade",
        "Placement quality under control-plane faults (lossy proposal channels, predictor outage)",
    );
    let mut pa = Panel::new(
        "(a) proposal-loss sweep",
        &[
            "loss_pct",
            "shards",
            "scheduler",
            "placement_rate",
            "mean_active_cpu_util",
            "conflicts_resolved",
            "retries",
            "dropped",
            "duplicated",
            "exhausted",
            "dedup_acks",
            "fallback_frac",
        ],
    );
    let mut idx = 0usize;
    for &loss in losses {
        for &k in shards {
            let r = &results[idx];
            let s = &stats[idx];
            idx += 1;
            pa.row(vec![
                format!("{:.1}", loss * 100.0),
                k.to_string(),
                r.scheduler.clone(),
                format!("{:.4}", r.placement_rate()),
                format!("{:.4}", r.mean_active_cpu_util()),
                DistStats::get(&s.conflicts).to_string(),
                DistStats::get(&s.retries).to_string(),
                DistStats::get(&s.dropped).to_string(),
                DistStats::get(&s.duplicated).to_string(),
                DistStats::get(&s.exhausted).to_string(),
                DistStats::get(&s.dedup_acks).to_string(),
                format!("{:.4}", fallback_frac(r, s)),
            ]);
        }
    }
    fig.push(pa);

    // (b) Predictor outage: graceful degradation to the util arm.
    // fallback_frac counts ticks where scoring ran utilization-only
    // for any reason, so the permanent util-only arm reads 1.0 just
    // like the breaker-degraded arm — the point of the panel is that
    // their placement rates coincide.
    let mut pb = Panel::new(
        "(b) forced predictor outage",
        &[
            "arm",
            "placement_rate",
            "mean_active_cpu_util",
            "fallback_frac",
            "placement_delta_pp",
        ],
    );
    let (rd, sd) = (&results[idx], &stats[idx]);
    let (ru, su) = (&results[idx + 1], &stats[idx + 1]);
    for (arm, r, s) in [("Optum predictor-down", rd, sd), ("Optum-util", ru, su)] {
        pb.row(vec![
            arm.to_string(),
            format!("{:.4}", r.placement_rate()),
            format!("{:.4}", r.mean_active_cpu_util()),
            format!("{:.4}", fallback_frac(r, s)),
            format!("{:.3}", (r.placement_rate() - ru.placement_rate()) * 100.0),
        ]);
    }
    fig.push(pb);
    Ok(fig)
}

/// Fraction of simulated ticks any replica spent in utilization-only
/// fallback.
fn fallback_frac(r: &SimResult, s: &DistStats) -> f64 {
    DistStats::get(&s.fallback_ticks) as f64 / r.end_tick.0.max(1) as f64
}
