//! `repro check`: a fast self-validation pass over the paper's
//! qualitative claims.
//!
//! Runs the pipeline at smoke scale and prints PASS/FAIL per claim —
//! the quickest way to confirm a fresh checkout (or a modified
//! physics) still reproduces the paper's shapes. The same claims are
//! enforced as integration tests; this command exists for humans.

use optum_types::{Result, SloClass};

use crate::endtoend::run_roster;
use crate::output::{Figure, Panel};
use crate::runner::Runner;

struct Claims {
    panel: Panel,
    failures: usize,
}

impl Claims {
    fn new() -> Claims {
        Claims {
            panel: Panel::new("claims", &["claim", "measured", "verdict"]),
            failures: 0,
        }
    }

    fn check(&mut self, claim: &str, measured: String, pass: bool) {
        if !pass {
            self.failures += 1;
        }
        self.panel.row(vec![
            claim.to_string(),
            measured,
            if pass { "PASS".into() } else { "FAIL".into() },
        ]);
    }
}

/// Runs the validation pass (used by `repro check`).
pub fn check(runner: &mut Runner) -> Result<Figure> {
    let mut claims = Claims::new();

    // Workload shape claims.
    {
        let w = &runner.workload;
        let total = w.pods.len() as f64;
        let share =
            |class: SloClass| w.pods.iter().filter(|p| p.spec.slo == class).count() as f64 / total;
        let ls_lsr = share(SloClass::Ls) + share(SloClass::Lsr);
        claims.check(
            "six SLO classes present (Fig 2b)",
            format!(
                "{} classes",
                w.slo_distribution().iter().filter(|(_, n)| *n > 0).count()
            ),
            w.slo_distribution().iter().all(|(_, n)| *n > 0),
        );
        claims.check(
            "LS+LSR a substantial share (Fig 2b)",
            format!("{:.1}%", ls_lsr * 100.0),
            ls_lsr > 0.15,
        );
        let mut per_min = std::collections::HashMap::new();
        for p in &w.pods {
            *per_min.entry(p.spec.arrival.minute()).or_insert(0u64) += 1;
        }
        let mut counts: Vec<u64> = per_min.values().copied().collect();
        counts.sort();
        let (p50, max) = (counts[counts.len() / 2], counts[counts.len() - 1]);
        claims.check(
            "arrivals heavy-tailed (Fig 7)",
            format!("p50 {p50}/min, max {max}/min"),
            max >= p50 * 8,
        );
    }

    // Reference-run claims.
    {
        let reference = runner.reference()?;
        claims.check(
            "overall utilization low despite over-commitment (Fig 4/5)",
            format!("mean CPU {:.1}%", reference.mean_cpu_utilization() * 100.0),
            reference.mean_cpu_utilization() < 0.5,
        );
        let be_waits: Vec<f64> = reference
            .outcomes_of(SloClass::Be)
            .map(|o| o.wait_seconds())
            .collect();
        let tail = be_waits.iter().filter(|&&s| s > 100.0).count() as f64 / be_waits.len() as f64;
        claims.check(
            "BE pods show >100 s waiting tail (Fig 8)",
            format!("{:.1}% of BE", tail * 100.0),
            tail > 0.005,
        );
        let psi_positive = reference
            .outcomes
            .iter()
            .filter(|o| o.slo.is_latency_sensitive())
            .any(|o| o.worst_psi > 0.05);
        claims.check(
            "pressure (PSI) observable under contention (Fig 13–15)",
            format!("{psi_positive}"),
            psi_positive,
        );
    }

    // Predictor claim (via the offline profiles).
    {
        let training = runner.training()?;
        let pairs = training.ero.observed_pairs();
        claims.check(
            "pairwise joint peaks below individual peaks (Eq 3)",
            format!("{pairs} pairs profiled"),
            pairs > 10,
        );
    }

    // End-to-end claims.
    {
        run_roster(runner)?;
        let active = optum_sim::SimResult::mean_active_cpu_util;
        let base = active(runner.reference_cached());
        let optum = &runner.roster_cache[0];
        let others_best = runner.roster_cache[1..]
            .iter()
            .map(&active)
            .fold(f64::NEG_INFINITY, f64::max);
        claims.check(
            "Optum improves utilization over the reference (Fig 19a)",
            format!("{:+.1} pp", (active(optum) - base) * 100.0),
            active(optum) > base,
        );
        claims.check(
            "Optum beats every baseline on utilization (Fig 19a)",
            format!("{:.3} vs best baseline {:.3}", active(optum), others_best),
            active(optum) >= others_best,
        );
        claims.check(
            "Optum keeps capacity violations negligible (Fig 19b)",
            format!("{:.6}", optum.violations.rate()),
            optum.violations.rate() < 0.005,
        );
        claims.check(
            "all schedulers place (almost) everything",
            format!("min placement {:.3}", {
                runner
                    .roster_cache
                    .iter()
                    .map(|r| r.placement_rate())
                    .fold(1.0f64, f64::min)
            }),
            runner
                .roster_cache
                .iter()
                .all(|r| r.placement_rate() > 0.95),
        );
    }

    let mut fig = Figure::new(
        "check",
        format!(
            "Qualitative-claims validation — {} failure(s)",
            claims.failures
        ),
    );
    fig.push(claims.panel);
    Ok(fig)
}
