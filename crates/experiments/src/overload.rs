//! Overload protection under arrival storms: the `overload`
//! experiment.
//!
//! Sweeps arrival-storm intensity against the admission controller's
//! queue cap across the full scheduler roster. Every arm of one
//! intensity replays the *same* storm-injected workload (one
//! deterministic [`apply_storm`] composition per intensity), so
//! differences within an intensity are purely protection policy and
//! scheduler behavior.
//!
//! Protection is a package: a finite queue cap also arms the per-tick
//! decision-cost deadline (`BUDGET_PER_HOST` units per host), under
//! which schedulers degrade to cheaper decision modes — first-fit
//! prefix scans, shrunken Medea batches, truncated Optum candidate
//! samples. `cap = None` arms are fully unprotected: unbounded queue,
//! no deadline.
//!
//! The `intensity = 1`, `cap = None` arm is byte-identical to the
//! fig19/fig20 evaluation pipeline — [`apply_storm`] returns the
//! workload unchanged at unit intensity and disabled protection leaves
//! the engine's hot paths untouched — which pins down that the overload
//! subsystem costs nothing when off (the golden suite asserts it).
//!
//! Expected shape under storm: the class-aware shedder denies
//! best-effort service first and reserved-tier service last
//! (`BE shed rate ≥ LS shed rate ≥ LSR shed rate`), and bounding the
//! queue keeps LSR waiting-time tails close to their calm-weather
//! values while the unprotected arms let every class's tail explode.

use optum_sim::SimResult;
use optum_stats::Ecdf;
use optum_trace::{apply_storm, StormConfig, Workload};
use optum_types::{Result, SloClass};

use crate::output::{Figure, Panel};
use crate::runner::{full_roster, Runner};

/// The default storm-intensity grid (arrival-rate multipliers; `1` is
/// the calm anchor).
pub const INTENSITY_GRID: [f64; 4] = [1.0, 2.0, 5.0, 10.0];

/// The default queue-cap grid (`None` = unbounded/unprotected).
pub const CAP_GRID: [Option<usize>; 3] = [None, Some(4000), Some(1000)];

/// Per-host decision-cost budget per tick on protected arms: one unit
/// is one candidate host examined, so this allows each host to be
/// looked at a few hundred times per 30-second tick — generous in calm
/// weather, binding during a storm's retry floods.
pub const BUDGET_PER_HOST: u64 = 256;

/// One completed (intensity × cap × scheduler) run.
pub struct OverloadArm {
    /// Storm arrival-rate multiplier of this arm.
    pub intensity: f64,
    /// Queue cap of this arm (`None` = unprotected).
    pub cap: Option<usize>,
    /// The simulation result.
    pub result: SimResult,
}

/// The deterministic storm description for one intensity: a single
/// afternoon burst window covering a sixth of the trace, starting a
/// third of the way in (past the fill-up ramp, inside the diurnal
/// steady state).
pub fn storm_config(seed: u64, window_ticks: u64, intensity: f64) -> StormConfig {
    StormConfig::single(seed, window_ticks / 3, window_ticks / 6, intensity)
}

fn cap_label(cap: Option<usize>) -> String {
    match cap {
        Some(c) => c.to_string(),
        None => "inf".into(),
    }
}

/// Runs the full (intensity × cap × roster) grid, returning raw
/// results in grid order (intensity-major, cap, then roster order).
pub fn overload_results(
    runner: &mut Runner,
    intensities: &[f64],
    caps: &[Option<usize>],
) -> Result<Vec<OverloadArm>> {
    let (usage, interference) = runner.profilers()?;
    let seed = runner.config.seed;
    let window_ticks = runner.config.workload_config().window_ticks();
    let budget = runner.config.hosts as u64 * BUDGET_PER_HOST;

    // One storm-injected workload per intensity, shared by every cap
    // and scheduler of that intensity. Unit intensity returns the base
    // workload bit-identical (the fig19 anchor).
    let storms: Vec<Workload> = intensities
        .iter()
        .map(|&intensity| {
            apply_storm(
                &runner.workload,
                &storm_config(seed, window_ticks, intensity),
            )
        })
        .collect::<Result<_>>()?;

    // Flatten every (intensity × cap × scheduler) run into one
    // fan-out.
    let mut jobs: Vec<(usize, Option<usize>, Box<dyn optum_sim::Scheduler + Send>)> = Vec::new();
    for wi in 0..intensities.len() {
        for &cap in caps {
            for scheduler in full_roster(&usage, &interference) {
                jobs.push((wi, cap, scheduler));
            }
        }
    }
    let runner_ref: &Runner = runner;
    optum_parallel::parallel_map_owned_threads(
        runner_ref.threads(),
        jobs,
        |_, (wi, cap, scheduler)| {
            let result = runner_ref.run_eval(&storms[wi], scheduler, |cfg| {
                // Protection is a package: a finite cap also arms the
                // decision deadline.
                cfg.queue_cap = cap;
                cfg.decision_cost_budget = cap.map(|_| budget);
            })?;
            Ok(OverloadArm {
                intensity: intensities[wi],
                cap,
                result,
            })
        },
    )
    .into_iter()
    .collect()
}

/// The `overload` experiment over the default grids.
pub fn overload(runner: &mut Runner) -> Result<Figure> {
    overload_grid(runner, &INTENSITY_GRID, &CAP_GRID)
}

/// The `overload` experiment over explicit grids (tests and the
/// golden suite use reduced ones).
pub fn overload_grid(
    runner: &mut Runner,
    intensities: &[f64],
    caps: &[Option<usize>],
) -> Result<Figure> {
    let arms = overload_results(runner, intensities, caps)?;
    Ok(overload_figure(&arms))
}

/// Renders the `overload` figure from the arms of a grid, in the order
/// [`overload_results`] returns them.
pub fn overload_figure(arms: &[OverloadArm]) -> Figure {
    let mut fig = Figure::new(
        "overload",
        "Overload protection under arrival storms (bounded queues, class-aware shedding, decision deadlines)",
    );

    // (a) Arm-level health: placement, utilization, admission ledger.
    let mut pa = Panel::new(
        "(a) arm health",
        &[
            "intensity",
            "queue_cap",
            "scheduler",
            "placement_rate",
            "mean_active_cpu_util",
            "arrivals",
            "shed",
            "throttled_end",
            "max_queue_depth",
            "budget_exhausted_rounds",
        ],
    );
    for arm in arms {
        let r = &arm.result;
        let o = &r.overload;
        let arrivals: u64 = o.per_class.iter().map(|c| c.arrivals).sum();
        let throttled_end: u64 = o.per_class.iter().map(|c| c.throttled_end).sum();
        pa.row(vec![
            format!("{:.0}", arm.intensity),
            cap_label(arm.cap),
            r.scheduler.clone(),
            format!("{:.4}", r.placement_rate()),
            format!("{:.4}", r.mean_active_cpu_util()),
            arrivals.to_string(),
            o.total_shed().to_string(),
            throttled_end.to_string(),
            o.max_depth.to_string(),
            o.budget_exhausted_rounds.to_string(),
        ]);
    }
    fig.push(pa);

    // (b) Class-aware shedding and waiting tails: the point of the
    // protection — BE absorbs the denial, LSR keeps its tail.
    let mut pb = Panel::new(
        "(b) per-class shed rate and waiting tail",
        &[
            "intensity",
            "queue_cap",
            "scheduler",
            "class",
            "arrivals",
            "shed_rate",
            "p99_wait_ticks",
        ],
    );
    for arm in arms {
        let r = &arm.result;
        for &slo in &[SloClass::Lsr, SloClass::Ls, SloClass::Be] {
            let c = r.overload.class(slo);
            if c.arrivals == 0 {
                continue;
            }
            pb.row(vec![
                format!("{:.0}", arm.intensity),
                cap_label(arm.cap),
                r.scheduler.clone(),
                slo.to_string(),
                c.arrivals.to_string(),
                format!("{:.4}", c.shed_rate()),
                format!("{:.1}", p99_wait(r, slo)),
            ]);
        }
    }
    fig.push(pb);

    // (c) fig19-style utilization delta vs the same arm's reference
    // scheduler: what the storm + protection combination costs or buys
    // relative to the production baseline under identical pressure.
    let mut pc = Panel::new(
        "(c) utilization delta vs same-arm AlibabaLike (percentage points)",
        &["intensity", "queue_cap", "scheduler", "improvement_pp"],
    );
    for chunk in arms.chunk_by(|a, b| (a.intensity, a.cap) == (b.intensity, b.cap)) {
        let base = chunk[0].result.mean_active_cpu_util();
        debug_assert_eq!(chunk[0].result.scheduler, "AlibabaLike");
        for arm in &chunk[1..] {
            pc.row(vec![
                format!("{:.0}", arm.intensity),
                cap_label(arm.cap),
                arm.result.scheduler.clone(),
                format!("{:.3}", (arm.result.mean_active_cpu_util() - base) * 100.0),
            ]);
        }
    }
    fig.push(pc);
    fig
}

/// 99th-percentile queue-waiting time (ticks) of one class's arrivals.
/// Shed and never-placed pods count with their censored waits — denial
/// does not launder the tail.
pub fn p99_wait(r: &SimResult, slo: SloClass) -> f64 {
    let waits: Vec<f64> = r.outcomes_of(slo).map(|o| o.wait_ticks as f64).collect();
    match Ecdf::new(waits) {
        Some(cdf) => cdf.quantile(0.99),
        None => 0.0,
    }
}
