//! Fig. 21: sensitivity of Optum to the objective weights ω_o, ω_b.

use optum_core::{OptumConfig, OptumScheduler};
use optum_types::Result;

use crate::output::{Figure, Panel};
use crate::runner::{slo_delta, Runner};

/// The weight grid of Fig. 21.
pub const OMEGAS: [f64; 5] = [0.1, 0.3, 0.5, 0.7, 0.9];

/// Fig. 21: for each (ω_o, ω_b) pair, the average utilization
/// improvement (a), the BE violation rate (b), and the LS violation
/// rate (c), all relative to the reference scheduler.
pub fn fig21(runner: &mut Runner) -> Result<Figure> {
    let base_util = runner.reference()?.mean_active_cpu_util();

    let mut fig = Figure::new("fig21", "Sensitivity to the objective weights");
    let mut panel = Panel::new(
        "sweep",
        &[
            "omega_o",
            "omega_b",
            "util_improvement_pp",
            "be_violation",
            "ls_violation",
        ],
    );
    // One trained pair of profilers; only the objective weights vary.
    let (usage, interference) = runner.profilers()?;
    // Build the full 5×5 grid of schedulers up front, then fan the 25
    // independent simulations out across the runner's worker threads.
    // The sweep isolates the objective weights: the hard PSI and CPU
    // guards are relaxed so ω alone governs the utilization /
    // performance trade-off (the paper's default deployment keeps the
    // guards; Fig. 21 studies Eq. 6's weights).
    let mut grid: Vec<(f64, f64)> = Vec::with_capacity(OMEGAS.len() * OMEGAS.len());
    for &omega_o in &OMEGAS {
        for &omega_b in &OMEGAS {
            grid.push((omega_o, omega_b));
        }
    }
    let schedulers: Vec<OptumScheduler> = grid
        .iter()
        .map(|&(omega_o, omega_b)| {
            OptumScheduler::with_shared(
                OptumConfig {
                    omega_o,
                    omega_b,
                    psi_guard: f64::INFINITY,
                    cpu_guard: 1.0,
                    ..OptumConfig::default()
                },
                usage.clone(),
                interference.clone(),
            )
        })
        .collect();
    let results = runner.run_evals(schedulers)?;

    // Score the grid serially, in ω order; the reference lookup is
    // loop-invariant, so hoist it out of the scoring loop.
    let reference = runner.reference_cached();
    for (&(omega_o, omega_b), result) in grid.iter().zip(&results) {
        let util = result.mean_active_cpu_util();
        let (ls_violation, be_violation) = slo_delta(result, reference);
        panel.row(vec![
            format!("{omega_o:.1}"),
            format!("{omega_b:.1}"),
            format!("{:.3}", (util - base_util) * 100.0),
            format!("{be_violation:.5}"),
            format!("{ls_violation:.5}"),
        ]);
    }
    fig.push(panel);
    Ok(fig)
}
