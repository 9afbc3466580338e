//! Pod arrival-stream generation.
//!
//! Long-running classes (LS/LSR/Unknown/System/VMEnv) maintain a steady
//! replica count with exponential-lifetime churn, which yields the
//! near-constant LS submission rate of Fig. 3(a). Best-effort jobs
//! arrive as a non-homogeneous Poisson process anti-phase to the LS
//! diurnal, each spawning a heavy-tailed burst of tasks — producing the
//! heavy-tailed per-minute submission counts of Fig. 7.

use optum_stats::{Exponential, LogNormal, Sampler};
use optum_types::{PodId, PodSpec, Resources, Result, StdRng, Tick};

use crate::config::WorkloadConfig;
use crate::population::{AppKind, AppProfile, GeneratedPod};
use crate::workload::dist;

/// Draws a Poisson count with mean `lambda` (Knuth's method; fine for
/// the per-tick rates used here, which are ≪ 30).
pub fn poisson(rng: &mut StdRng, lambda: f64) -> u64 {
    if lambda <= 0.0 {
        return 0;
    }
    let l = (-lambda).exp();
    let mut k = 0u64;
    let mut p = 1.0;
    loop {
        p *= rng.next_f64();
        if p <= l {
            return k;
        }
        k += 1;
    }
}

/// Builds the pod spec shared by every pod of `app`.
pub(crate) fn spec_for(app: &AppProfile, id: u32, arrival: Tick, duration: Option<u64>) -> PodSpec {
    PodSpec {
        id: PodId(id),
        app: app.id,
        slo: app.slo,
        request: Resources::new(app.cpu_request, app.mem_request),
        limit: Resources::new(
            app.cpu_request * app.limit_factor,
            app.mem_request * app.limit_factor,
        ),
        arrival,
        nominal_duration: duration,
    }
}

/// Generates the full pod stream for one long-running application:
/// each replica slot is a renewal chain of pods with exponential
/// lifetimes, replaced on death until the window closes.
fn long_running_pods(
    app: &AppProfile,
    config: &WorkloadConfig,
    next_id: &mut u32,
    rng: &mut StdRng,
    rt_sigma: f64,
    out: &mut Vec<GeneratedPod>,
) -> Result<()> {
    let window = config.window_ticks();
    let lifetime = dist(
        format_args!(
            "lifetime of app {:?} (mean {} ticks)",
            app.id,
            app.mean_lifetime_ticks()
        ),
        Exponential::new(1.0 / app.mean_lifetime_ticks().max(1.0)),
    )?;
    let input_dist = dist(
        format_args!("long-running input factor"),
        LogNormal::from_median(1.0, 0.08),
    )?;
    let rt_dist = dist(
        format_args!("response-time factor (sigma {rt_sigma})"),
        LogNormal::from_median(1.0, rt_sigma),
    )?;
    for _slot in 0..app.replicas() {
        // Initial replicas ramp in over the first twelve hours (a
        // cluster fills gradually; a cold-start burst would smear
        // placements across every host before any packing signal
        // exists).
        let mut t = rng.gen_range(0..12 * optum_types::TICKS_PER_HOUR);
        while t < window {
            let life = lifetime.sample(rng).max(optum_types::TICKS_PER_HOUR as f64) as u64;
            let pod = GeneratedPod {
                spec: spec_for(app, *next_id, Tick(t), Some(life)),
                input_factor: input_dist.sample(rng),
                rt_factor: rt_dist.sample(rng),
            };
            *next_id += 1;
            out.push(pod);
            // The replacement is submitted one tick after the death.
            t = t.saturating_add(life).saturating_add(1);
        }
    }
    Ok(())
}

/// Generates the pod stream for one best-effort application: jobs
/// arrive Poisson at the app's diurnal rate; each spawns a heavy-tailed
/// burst of tasks whose nominal work scales with their input size.
fn best_effort_pods(
    app: &AppProfile,
    config: &WorkloadConfig,
    next_id: &mut u32,
    rng: &mut StdRng,
    out: &mut Vec<GeneratedPod>,
) -> Result<()> {
    let AppKind::Be(params) = &app.kind else {
        return Ok(());
    };
    let window = config.window_ticks();
    let input_dist = dist(
        format_args!("BE input factor (be_input_sigma {})", config.be_input_sigma),
        LogNormal::from_median(1.0, config.be_input_sigma),
    )?;
    for t in 0..window {
        let hour = Tick(t).hour_of_day();
        let jobs = poisson(rng, params.job_rate.at(hour));
        for _ in 0..jobs {
            let tasks = params.tasks_per_job.sample(rng).round().max(1.0) as u64;
            for k in 0..tasks {
                // Tasks of one job trickle in over a couple of ticks.
                let arrival = Tick((t + k % 3).min(window - 1));
                let input = input_dist.sample(rng);
                // Bigger inputs mean proportionally more work.
                let work = (params.duration.sample(rng) * input.sqrt())
                    .round()
                    .max(1.0) as u64;
                let pod = GeneratedPod {
                    spec: spec_for(app, *next_id, arrival, Some(work)),
                    input_factor: input,
                    rt_factor: 1.0,
                };
                *next_id += 1;
                out.push(pod);
            }
        }
    }
    Ok(())
}

/// Generates the complete pod arrival stream across all applications,
/// sorted by arrival tick, with ids equal to vector positions.
pub fn generate_pods(
    config: &WorkloadConfig,
    apps: &[AppProfile],
    rng: &mut StdRng,
) -> Result<Vec<GeneratedPod>> {
    let mut out = Vec::new();
    let mut next_id = 0u32;
    for app in apps {
        match &app.kind {
            AppKind::Be(_) => best_effort_pods(app, config, &mut next_id, rng, &mut out)?,
            AppKind::Ls(_) => {
                // Per-app RT spread: some services have deep call
                // chains (high CoV), some are shallow.
                let rt_sigma = rng.gen_range(0.6..1.1);
                long_running_pods(app, config, &mut next_id, rng, rt_sigma, &mut out)?;
            }
            AppKind::Other(_) => {
                long_running_pods(app, config, &mut next_id, rng, 0.1, &mut out)?;
            }
        }
    }
    out.sort_by_key(|p| p.spec.arrival);
    // Re-key ids to sorted positions so PodId doubles as an index.
    for (i, pod) in out.iter_mut().enumerate() {
        pod.spec.id = PodId(i as u32);
    }
    Ok(out)
}

/// Compresses every arrival tick by `rate` for open-loop replay:
/// `arrival' = floor(arrival / rate)`, so a rate of 4 squeezes the
/// trace's submission stream into a quarter of the window (the
/// observation window itself is unchanged — the tail idles, exactly
/// like a storm). The map is monotone, so pods stay sorted by arrival
/// with ids equal to positions, and `rate = 1` is the identity — the
/// anchor the batch/serve equivalence tests rely on. Both `optumd` and
/// `optumload` apply this to the same generated workload, which makes
/// the engine's waiting-time accounting equal to the wire-level
/// submit→placed latency.
pub fn rescale_arrivals(workload: &mut crate::Workload, rate: f64) -> Result<()> {
    if !(rate.is_finite() && rate > 0.0) {
        return Err(optum_types::Error::InvalidConfig(format!(
            "arrival rate multiplier must be a positive finite number, got {rate}"
        )));
    }
    if rate == 1.0 {
        return Ok(());
    }
    let last = workload.config.window_ticks().saturating_sub(1);
    for pod in &mut workload.pods {
        let scaled = (pod.spec.arrival.0 as f64 / rate).floor() as u64;
        pod.spec.arrival = Tick(scaled.min(last));
    }
    debug_assert!(workload
        .pods
        .windows(2)
        .all(|p| p[0].spec.arrival <= p[1].spec.arrival));
    Ok(())
}

/// The per-tick arrival schedule of a workload: pod ids grouped by
/// arrival tick, in trace order within a tick. This is the open-loop
/// submission plan a load driver replays, and feeding it tick by tick
/// into the incremental engine reproduces the batch run bit for bit.
pub fn arrival_schedule(workload: &crate::Workload) -> Vec<(Tick, Vec<PodId>)> {
    let mut out: Vec<(Tick, Vec<PodId>)> = Vec::new();
    for pod in &workload.pods {
        match out.last_mut() {
            Some((t, ids)) if *t == pod.spec.arrival => ids.push(pod.spec.id),
            _ => out.push((pod.spec.arrival, vec![pod.spec.id])),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rescale_keeps_order_and_identity() {
        let mut w = crate::generate(&crate::WorkloadConfig::small(11)).unwrap();
        let original: Vec<u64> = w.pods.iter().map(|p| p.spec.arrival.0).collect();
        rescale_arrivals(&mut w, 1.0).unwrap();
        assert_eq!(
            original,
            w.pods.iter().map(|p| p.spec.arrival.0).collect::<Vec<_>>(),
            "rate 1 must be the identity"
        );
        rescale_arrivals(&mut w, 3.0).unwrap();
        assert!(w
            .pods
            .windows(2)
            .all(|p| p[0].spec.arrival <= p[1].spec.arrival));
        for (orig, pod) in original.iter().zip(&w.pods) {
            assert_eq!(pod.spec.arrival.0, orig / 3);
        }
        assert!(rescale_arrivals(&mut w, 0.0).is_err());
        assert!(rescale_arrivals(&mut w, f64::NAN).is_err());
    }

    #[test]
    fn schedule_covers_every_pod_in_trace_order() {
        let w = crate::generate(&crate::WorkloadConfig::small(13)).unwrap();
        let schedule = arrival_schedule(&w);
        let mut expect = 0u32;
        for (tick, ids) in &schedule {
            for id in ids {
                assert_eq!(id.0, expect, "schedule must preserve trace order");
                assert_eq!(w.pods[id.index()].spec.arrival, *tick);
                expect += 1;
            }
        }
        assert_eq!(expect as usize, w.pods.len());
        assert!(schedule.windows(2).all(|s| s[0].0 < s[1].0));
    }

    #[test]
    fn poisson_mean_matches_lambda() {
        let mut rng = StdRng::seed_from_u64(5);
        let n = 20_000;
        let total: u64 = (0..n).map(|_| poisson(&mut rng, 2.5)).sum();
        let mean = total as f64 / n as f64;
        assert!((mean - 2.5).abs() < 0.05, "mean {mean}");
        assert_eq!(poisson(&mut rng, 0.0), 0);
        assert_eq!(poisson(&mut rng, -1.0), 0);
    }
}
