//! Figs. 19–20: end-to-end scheduler comparison.
//!
//! Protocol (mirroring §5.1): the Tracing Coordinator's reference run
//! provides offline-profiling data; Optum trains on it; every
//! scheduler then replays the same workload; all results are compared
//! against the AlibabaLike reference.

use optum_core::{OptumConfig, OptumScheduler};
use optum_sched::{BorgLike, Medea, NSigmaSched, RcLike};
use optum_sim::SimResult;
use optum_stats::Ecdf;
use optum_types::{Result, SloClass};

use crate::output::{Figure, Panel};
use crate::runner::Runner;

/// Builds a trained Optum scheduler from the runner's profilers.
pub fn trained_optum(runner: &mut Runner, config: OptumConfig) -> Result<OptumScheduler> {
    let (usage, interference) = runner.profilers()?;
    Ok(OptumScheduler::with_shared(config, usage, interference))
}

/// Runs the full scheduler roster (excluding the reference), caching
/// the results on the runner (Figs. 19 and 20 share them).
pub fn run_roster(runner: &mut Runner) -> Result<()> {
    if !runner.roster_cache.is_empty() {
        return Ok(());
    }
    let optum = trained_optum(runner, OptumConfig::default())?;
    // Every contender replays the same immutable workload, so the
    // five runs fan out across the runner's worker threads; results
    // stay in roster order.
    let roster: Vec<Box<dyn optum_sim::Scheduler + Send>> = vec![
        Box::new(optum),
        Box::new(RcLike::default()),
        Box::new(NSigmaSched::default()),
        Box::new(BorgLike::default()),
        Box::new(Medea::default()),
    ];
    runner.roster_cache = runner.run_evals(roster)?;
    Ok(())
}

/// Fig. 19: utilization improvement over the reference scheduler (a)
/// and capacity-violation rate (b).
pub fn fig19(runner: &mut Runner) -> Result<Figure> {
    runner.reference()?;
    run_roster(runner)?;
    let results = &runner.roster_cache;
    let reference = runner.reference_cached();

    let mut fig = Figure::new(
        "fig19",
        "Utilization improvement and violation rate vs the production scheduler",
    );
    let mut pa = Panel::new(
        "(a) active-host CPU-utilization improvement over time (percentage points)",
        &["tick", "scheduler", "improvement_pp"],
    );
    for r in results {
        for (s, base) in r.cluster_series.iter().zip(&reference.cluster_series) {
            if s.tick.0 % 120 != 0 {
                continue;
            }
            let imp = (s.mean_cpu_util_active - base.mean_cpu_util_active) * 100.0;
            pa.row(vec![
                s.tick.0.to_string(),
                r.scheduler.clone(),
                format!("{imp:.3}"),
            ]);
        }
    }
    fig.push(pa);

    let mut pb = Panel::new(
        "(b) capacity-violation rate",
        &[
            "scheduler",
            "violation_rate",
            "cpu_node_ticks",
            "mem_node_ticks",
        ],
    );
    let mut row = |r: &SimResult| {
        pb.row(vec![
            r.scheduler.clone(),
            format!("{:.6}", r.violations.rate()),
            r.violations.cpu_node_ticks.to_string(),
            r.violations.mem_node_ticks.to_string(),
        ]);
    };
    row(reference);
    for r in results {
        row(r);
    }
    fig.push(pb);

    // Summary: mean improvement + placement rates.
    let mut ps = Panel::new(
        "summary",
        &[
            "scheduler",
            "mean_active_cpu_util",
            "improvement_pp",
            "placement_rate",
        ],
    );
    let base_util = reference.mean_active_cpu_util();
    ps.row(vec![
        reference.scheduler.clone(),
        format!("{base_util:.4}"),
        "0.000".into(),
        format!("{:.4}", reference.placement_rate()),
    ]);
    for r in results {
        let u = r.mean_active_cpu_util();
        ps.row(vec![
            r.scheduler.clone(),
            format!("{u:.4}"),
            format!("{:.3}", (u - base_util) * 100.0),
            format!("{:.4}", r.placement_rate()),
        ]);
    }
    fig.push(ps);
    Ok(fig)
}

/// Per-pod PSI degradation of a scheduler vs the reference:
/// relative increase `max(0, psi_new − psi_ref) / max(psi_ref, 0.01)`
/// clamped to 1, except that absolute increases below one percentage
/// point of stall time count as zero (immaterial, and a relative
/// metric explodes on near-zero baselines).
fn psi_violation(new: &SimResult, reference: &SimResult) -> Vec<f64> {
    new.outcomes
        .iter()
        .zip(&reference.outcomes)
        .filter(|(n, b)| n.slo.is_latency_sensitive() && n.scheduled() && b.scheduled())
        .map(|(n, b)| {
            let abs = (n.worst_psi - b.worst_psi).max(0.0);
            if abs <= 0.01 {
                0.0
            } else {
                (abs / b.worst_psi.max(0.01)).min(1.0)
            }
        })
        .collect()
}

/// Fig. 20: LS PSI-violation CDF (a); BE completion-time violation
/// rate (b).
pub fn fig20(runner: &mut Runner) -> Result<Figure> {
    runner.reference()?;
    run_roster(runner)?;
    let results = &runner.roster_cache;
    let reference = runner.reference_cached();

    let mut fig = Figure::new("fig20", "Pod performance vs the production scheduler");
    let mut pa = Panel::new(
        "(a) LS PSI violation rate CDF",
        &["violation", "scheduler", "cdf"],
    );
    let mut ps = Panel::new(
        "(a) summary",
        &["scheduler", "frac_no_degradation", "p99_violation"],
    );
    for r in results {
        let v = psi_violation(r, reference);
        // "No degradation" tolerates 5% relative PSI increase: the
        // continuous physics never reproduces a pod's pressure exactly
        // (the paper's replay reads discretized historical values, so
        // equal conditions produce exact ties there).
        let none = v.iter().filter(|&&x| x <= 0.05).count() as f64 / v.len().max(1) as f64;
        if let Some(cdf) = Ecdf::new(v) {
            for (x, f) in cdf.curve_sampled(40) {
                pa.row(vec![
                    format!("{x:.4}"),
                    r.scheduler.clone(),
                    format!("{f:.4}"),
                ]);
            }
            ps.row(vec![
                r.scheduler.clone(),
                format!("{none:.4}"),
                format!("{:.4}", cdf.quantile(0.99)),
            ]);
        }
    }
    fig.push(pa);
    fig.push(ps);

    // (b) BE: per-app fraction of pods completing later than under the
    // reference, averaged across apps.
    let mut pb = Panel::new(
        "(b) BE completion violation",
        &["scheduler", "avg_violation_rate"],
    );
    for r in results {
        let mut per_app: std::collections::HashMap<u32, (usize, usize)> =
            std::collections::HashMap::new();
        for (n, b) in r.outcomes.iter().zip(&reference.outcomes) {
            if n.slo != SloClass::Be {
                continue;
            }
            let (Some(an), Some(ab)) = (n.actual_duration, b.actual_duration) else {
                continue;
            };
            let e = per_app.entry(n.app.0).or_default();
            e.1 += 1;
            // A violation is a strictly longer completion; a one-tick
            // tolerance absorbs discretization.
            if an > ab + 1 {
                e.0 += 1;
            }
        }
        let rates: Vec<f64> = per_app
            .values()
            .filter(|(_, total)| *total >= 5)
            .map(|(viol, total)| *viol as f64 / *total as f64)
            .collect();
        let avg = if rates.is_empty() {
            0.0
        } else {
            rates.iter().sum::<f64>() / rates.len() as f64
        };
        pb.row(vec![r.scheduler.clone(), format!("{avg:.5}")]);
    }
    fig.push(pb);
    Ok(fig)
}
