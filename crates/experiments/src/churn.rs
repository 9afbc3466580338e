//! Resilience under cluster churn: the `churn` experiment.
//!
//! Sweeps a node-failure MTBF grid (including the healthy `inf` arm)
//! across the full scheduler roster. Each arm injects the same
//! seed-derived fault plan — node crashes with exponential
//! inter-failure times, maintenance drains, transient capacity
//! degradation and straggler pod kills — into every scheduler's run,
//! so differences within an arm are purely scheduler behavior.
//!
//! The healthy arm is byte-identical to the fig19/fig20 evaluation
//! pipeline (an empty fault plan leaves the engine's hot paths
//! untouched), which pins down that the chaos subsystem costs nothing
//! when disabled. Expected shape: every scheduler degrades as MTBF
//! shrinks, and Optum degrades most gracefully — its usage-based
//! scoring re-packs evicted pods onto genuinely free capacity, while
//! request-based contenders reject or misplace the reschedule burst.

use optum_chaos::{generate_plan, ChaosConfig};
use optum_sim::SimResult;
use optum_types::{FaultEvent, Result, SloClass};

use crate::output::{Figure, Panel};
use crate::runner::{full_roster, slo_delta, Runner};

/// The default MTBF grid, in days per node (`inf` = healthy cluster).
pub const MTBF_GRID: [f64; 4] = [f64::INFINITY, 8.0, 2.0, 0.5];

fn mtbf_label(days: f64) -> String {
    if days.is_finite() {
        format!("{days:.2}")
    } else {
        "inf".into()
    }
}

/// The `churn` experiment over the default MTBF grid.
pub fn churn(runner: &mut Runner) -> Result<Figure> {
    churn_grid(runner, &MTBF_GRID)
}

/// The `churn` experiment over an explicit MTBF grid (tests use a
/// reduced grid).
pub fn churn_grid(runner: &mut Runner, grid: &[f64]) -> Result<Figure> {
    let (usage, interference) = runner.profilers()?;
    let window_ticks = runner.config.workload_config().window_ticks();
    let hosts = runner.config.hosts as u32;
    let seed = runner.config.seed;

    // One fault plan per arm, shared by every scheduler in the arm so
    // within-arm differences are purely scheduler behavior.
    let plans: Vec<Vec<FaultEvent>> = grid
        .iter()
        .map(|&mtbf| {
            generate_plan(&ChaosConfig::from_mtbf_days(
                hosts,
                window_ticks,
                seed,
                mtbf,
            ))
        })
        .collect();

    // Flatten every (arm × scheduler) run into one fan-out.
    let mut jobs: Vec<(Box<dyn optum_sim::Scheduler + Send>, Vec<FaultEvent>)> = Vec::new();
    for plan in &plans {
        for scheduler in full_roster(&usage, &interference) {
            jobs.push((scheduler, plan.clone()));
        }
    }
    let per_arm = jobs.len() / plans.len().max(1);
    let results: Vec<SimResult> = optum_parallel::parallel_map_owned_threads(
        runner.threads(),
        jobs,
        |_, (scheduler, plan)| {
            runner.run_eval(&runner.workload, scheduler, |cfg| cfg.fault_events = plan)
        },
    )
    .into_iter()
    .collect::<Result<_>>()?;

    let arm_result = |ai: usize, si: usize| &results[ai * per_arm + si];

    let mut fig = Figure::new(
        "churn",
        "Scheduler resilience under node failures and cluster churn",
    );

    // (a) Cluster-level health per (MTBF, scheduler).
    let mut pa = Panel::new(
        "(a) cluster health per arm",
        &[
            "mtbf_days",
            "scheduler",
            "placement_rate",
            "mean_active_cpu_util",
            "violation_rate",
            "evictions",
            "stale_rejections",
            "crashes",
            "down_node_ticks",
        ],
    );
    for (ai, &mtbf) in grid.iter().enumerate() {
        for si in 0..per_arm {
            let r = arm_result(ai, si);
            pa.row(vec![
                mtbf_label(mtbf),
                r.scheduler.clone(),
                format!("{:.4}", r.placement_rate()),
                format!("{:.4}", r.mean_active_cpu_util()),
                format!("{:.6}", r.violations.rate()),
                r.churn.total_evictions().to_string(),
                r.churn.stale_rejections.to_string(),
                r.churn.crashes.to_string(),
                r.churn.down_node_ticks.to_string(),
            ]);
        }
    }
    fig.push(pa);

    // (b) Per-class recovery: time-to-reschedule and failure counts.
    let mut pb = Panel::new(
        "(b) per-class recovery",
        &[
            "mtbf_days",
            "scheduler",
            "class",
            "evictions",
            "rescheduled",
            "mean_ttr_ticks",
            "failed",
        ],
    );
    for (ai, &mtbf) in grid.iter().enumerate() {
        for si in 0..per_arm {
            let r = arm_result(ai, si);
            for &slo in &SloClass::ALL {
                let c = r.churn.class(slo);
                if c.evictions == 0 {
                    continue;
                }
                pb.row(vec![
                    mtbf_label(mtbf),
                    r.scheduler.clone(),
                    slo.to_string(),
                    c.evictions.to_string(),
                    c.rescheduled.to_string(),
                    format!("{:.2}", c.mean_ttr_ticks()),
                    c.failed.to_string(),
                ]);
            }
        }
    }
    fig.push(pb);

    // (c) SLO degradation of each churn arm vs the same scheduler's
    // healthy (inf) arm: how much performance the churn itself costs.
    let mut pc = Panel::new(
        "(c) SLO delta vs healthy arm",
        &[
            "mtbf_days",
            "scheduler",
            "ls_psi_degraded_frac",
            "be_completion_violation",
            "placement_drop_pp",
        ],
    );
    let healthy_arm = grid.iter().position(|m| !m.is_finite());
    if let Some(hi) = healthy_arm {
        for (ai, &mtbf) in grid.iter().enumerate() {
            if ai == hi {
                continue;
            }
            for si in 0..per_arm {
                let r = arm_result(ai, si);
                let base = arm_result(hi, si);
                let (ls_frac, be_frac) = slo_delta(r, base);
                pc.row(vec![
                    mtbf_label(mtbf),
                    r.scheduler.clone(),
                    format!("{ls_frac:.4}"),
                    format!("{be_frac:.5}"),
                    format!(
                        "{:.3}",
                        (base.placement_rate() - r.placement_rate()) * 100.0
                    ),
                ]);
            }
        }
    }
    fig.push(pc);
    Ok(fig)
}
