//! Arrival-storm injection: flash-crowd bursts layered on the base
//! arrival stream.
//!
//! Production traces show bursty, heavy-tailed arrival regimes — flash
//! crowds, retry storms, mass job submissions — on top of the polite
//! diurnal baseline the generator produces. A [`StormConfig`] describes
//! burst windows, each with a *rate multiplier* (intensity) and an SLO
//! *class mix*; [`apply_storm`] composes them onto an existing
//! [`Workload`], multiplying the arrival rate inside each window while
//! leaving the rest of the trace untouched.
//!
//! Determinism follows the chaos-plan convention: every window draws
//! from its own `SplitMix64::stream(seed, window_index, STORM_CHANNEL)`
//! stream, so changing one window's parameters never perturbs another
//! window's pods, and the same `(seed, config)` always yields the same
//! storm byte for byte.
//!
//! A window with `intensity <= 1` contributes nothing, and a config
//! whose windows all contribute nothing returns the input workload
//! **unchanged** (same bytes, same pod ids) — the anchor arms of the
//! overload experiment rely on this to stay byte-identical to fig19.

use optum_stats::{Exponential, LogNormal, Sampler};
use optum_types::{Error, PodId, Result, SloClass, SplitMix64, StdRng, Tick};

use crate::arrivals::spec_for;
use crate::population::{AppKind, AppProfile, GeneratedPod};
use crate::workload::{dist, Workload};

/// SplitMix64 channel salt for storm streams. Chaos reserves 1–4
/// (crash/drain/degrade/kill); storms use the next free channel so a
/// storm layered on a fault plan never perturbs the fault events.
pub const STORM_CHANNEL: u64 = 5;

/// Share of storm pods per SLO class. Weights are relative (they are
/// normalized by their sum); classes with zero weight — or with no
/// application of that class in the workload — contribute no pods.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClassMix {
    /// Best-effort weight (batch retry storms; the common case).
    pub be: f64,
    /// Latency-sensitive weight (mass redeploys / scale-outs).
    pub ls: f64,
    /// Reserved latency-sensitive weight (rare: emergency capacity).
    pub lsr: f64,
}

impl ClassMix {
    /// The production-shaped default: storms are dominated by
    /// best-effort resubmissions with a thin LS tail.
    pub fn be_heavy() -> ClassMix {
        ClassMix {
            be: 0.85,
            ls: 0.12,
            lsr: 0.03,
        }
    }

    /// A storm made purely of best-effort arrivals.
    pub fn all_be() -> ClassMix {
        ClassMix {
            be: 1.0,
            ls: 0.0,
            lsr: 0.0,
        }
    }

    fn validate(&self) -> Result<()> {
        for (name, w) in [("be", self.be), ("ls", self.ls), ("lsr", self.lsr)] {
            if !w.is_finite() || w < 0.0 {
                return Err(Error::InvalidConfig(format!(
                    "storm class mix weight {name} must be finite and >= 0, got {w}"
                )));
            }
        }
        if self.be + self.ls + self.lsr <= 0.0 {
            return Err(Error::InvalidConfig(
                "storm class mix weights sum to zero".into(),
            ));
        }
        Ok(())
    }
}

/// One burst window: arrivals inside `[start, start + duration)` are
/// multiplied by `intensity`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StormWindow {
    /// First tick of the burst.
    pub start: u64,
    /// Length of the burst in ticks.
    pub duration: u64,
    /// Arrival-rate multiplier over the window (1 = no storm; 10 = the
    /// window sees ten times its baseline arrivals).
    pub intensity: f64,
    /// SLO class mix of the *extra* arrivals.
    pub mix: ClassMix,
}

/// A full storm description: deterministic given `(seed, windows)`.
#[derive(Debug, Clone, PartialEq)]
pub struct StormConfig {
    /// Seed of the per-window SplitMix64 streams.
    pub seed: u64,
    /// Burst windows (may overlap; each contributes independently).
    pub windows: Vec<StormWindow>,
}

impl StormConfig {
    /// A storm that injects nothing (no windows).
    pub fn quiet(seed: u64) -> StormConfig {
        StormConfig {
            seed,
            windows: Vec::new(),
        }
    }

    /// A single window of `duration` ticks starting at `start` with a
    /// uniform rate multiplier and the default BE-heavy mix.
    pub fn single(seed: u64, start: u64, duration: u64, intensity: f64) -> StormConfig {
        StormConfig {
            seed,
            windows: vec![StormWindow {
                start,
                duration,
                intensity,
                mix: ClassMix::be_heavy(),
            }],
        }
    }

    fn validate(&self) -> Result<()> {
        for (i, w) in self.windows.iter().enumerate() {
            if !w.intensity.is_finite() || w.intensity < 0.0 {
                return Err(Error::InvalidConfig(format!(
                    "storm window {i} intensity must be finite and >= 0, got {}",
                    w.intensity
                )));
            }
            w.mix.validate()?;
        }
        Ok(())
    }
}

/// Apps of one SLO class, the candidate templates for storm pods.
fn class_apps(apps: &[AppProfile], class: SloClass) -> Vec<&AppProfile> {
    apps.iter().filter(|a| a.slo == class).collect()
}

/// Splits `extra` pods across the mix classes by largest-remainder so
/// the per-window total is exact.
fn split_by_mix(extra: u64, mix: &ClassMix) -> [(SloClass, u64); 3] {
    let sum = mix.be + mix.ls + mix.lsr;
    let be = ((extra as f64) * mix.be / sum).round() as u64;
    let ls = ((extra as f64) * mix.ls / sum).round() as u64;
    let lsr = extra.saturating_sub(be).saturating_sub(ls);
    [
        (SloClass::Be, be.min(extra)),
        (SloClass::Ls, ls.min(extra.saturating_sub(be.min(extra)))),
        (SloClass::Lsr, lsr),
    ]
}

/// Generates the extra pods of one storm window. `next_id` continues
/// the workload's id space; ids are re-keyed after the final merge
/// sort, so they only need to be unique here.
fn window_pods(
    workload: &Workload,
    window_idx: usize,
    window: &StormWindow,
    seed: u64,
    next_id: &mut u32,
    out: &mut Vec<GeneratedPod>,
) -> Result<()> {
    let trace_end = workload.config.window_ticks();
    if window.intensity <= 1.0 || window.duration == 0 || window.start >= trace_end {
        return Ok(());
    }
    let lo = window.start;
    let hi = window.start.saturating_add(window.duration).min(trace_end);
    let base = workload
        .pods
        .iter()
        .filter(|p| p.spec.arrival.0 >= lo && p.spec.arrival.0 < hi)
        .count() as u64;
    let extra = ((base as f64) * (window.intensity - 1.0)).round() as u64;
    if extra == 0 {
        return Ok(());
    }

    // Per-(seed, window) stream: independent of every other window and
    // of all chaos channels.
    let mut stream = SplitMix64::stream(seed, window_idx as u64, STORM_CHANNEL);
    let mut rng = StdRng::seed_from_u64(stream.next_u64());

    let be_input = dist(
        format_args!(
            "storm BE input factor (be_input_sigma {})",
            workload.config.be_input_sigma
        ),
        LogNormal::from_median(1.0, workload.config.be_input_sigma),
    )?;
    let lr_input = dist(
        format_args!("storm long-running input factor"),
        LogNormal::from_median(1.0, 0.08),
    )?;
    let rt_dist = dist(
        format_args!("storm response-time factor"),
        LogNormal::from_median(1.0, 0.85),
    )?;

    for (class, count) in split_by_mix(extra, &window.mix) {
        if count == 0 {
            continue;
        }
        let apps = class_apps(&workload.apps, class);
        if apps.is_empty() {
            // A tiny workload may lack a class entirely; the storm
            // simply has nothing of that class to amplify.
            continue;
        }
        for _ in 0..count {
            let app = apps[rng.gen_range(0..apps.len())];
            let arrival = Tick(rng.gen_range(lo..hi).min(trace_end - 1));
            let pod = match &app.kind {
                AppKind::Be(p) => {
                    let input = be_input.sample(&mut rng);
                    let work = (p.duration.sample(&mut rng) * input.sqrt())
                        .round()
                        .max(1.0) as u64;
                    GeneratedPod {
                        spec: spec_for(app, *next_id, arrival, Some(work)),
                        input_factor: input,
                        rt_factor: 1.0,
                    }
                }
                AppKind::Ls(_) | AppKind::Other(_) => {
                    let lifetime = dist(
                        format_args!(
                            "storm lifetime of app {:?} (mean {} ticks)",
                            app.id,
                            app.mean_lifetime_ticks()
                        ),
                        Exponential::new(1.0 / app.mean_lifetime_ticks().max(1.0)),
                    )?;
                    let life = lifetime
                        .sample(&mut rng)
                        .max(optum_types::TICKS_PER_HOUR as f64)
                        as u64;
                    GeneratedPod {
                        spec: spec_for(app, *next_id, arrival, Some(life)),
                        input_factor: lr_input.sample(&mut rng),
                        rt_factor: rt_dist.sample(&mut rng),
                    }
                }
            };
            *next_id += 1;
            out.push(pod);
        }
    }
    Ok(())
}

/// Composes a storm onto a workload, returning a new workload whose
/// pod stream contains the extra burst arrivals, re-sorted by arrival
/// with ids re-keyed to positions (the same post-pass as
/// [`crate::arrivals::generate_pods`]).
///
/// When no window contributes any pod (quiet config, or every window
/// has `intensity <= 1`), the input workload is returned **unchanged**
/// — bit-identical, preserving every pod id.
pub fn apply_storm(workload: &Workload, storm: &StormConfig) -> Result<Workload> {
    storm.validate()?;
    let mut extras = Vec::new();
    let mut next_id = workload.pods.len() as u32;
    for (i, window) in storm.windows.iter().enumerate() {
        window_pods(workload, i, window, storm.seed, &mut next_id, &mut extras)?;
    }
    let mut out = workload.clone();
    if extras.is_empty() {
        return Ok(out);
    }
    out.pods.extend(extras);
    // Stable sort: base pods keep their relative order; storm pods
    // land after base pods sharing an arrival tick.
    out.pods.sort_by_key(|p| p.spec.arrival);
    for (i, pod) in out.pods.iter_mut().enumerate() {
        pod.spec.id = PodId(i as u32);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WorkloadConfig;
    use crate::workload::generate;

    fn base() -> Workload {
        generate(&WorkloadConfig::small(11)).expect("workload")
    }

    #[test]
    fn quiet_storm_is_bit_identical() {
        let w = base();
        let stormed = apply_storm(&w, &StormConfig::quiet(9)).expect("storm");
        assert_eq!(stormed, w);
    }

    #[test]
    fn unit_intensity_is_bit_identical() {
        let w = base();
        let stormed = apply_storm(&w, &StormConfig::single(9, 100, 500, 1.0)).expect("storm");
        assert_eq!(stormed, w);
    }

    #[test]
    fn storm_multiplies_window_arrivals() {
        let w = base();
        let (lo, hi) = (400u64, 1000u64);
        let storm = StormConfig::single(9, lo, hi - lo, 5.0);
        let stormed = apply_storm(&w, &storm).expect("storm");
        let in_window = |wl: &Workload| {
            wl.pods
                .iter()
                .filter(|p| p.spec.arrival.0 >= lo && p.spec.arrival.0 < hi)
                .count() as f64
        };
        let before = in_window(&w);
        let after = in_window(&stormed);
        assert!(
            after >= 4.0 * before && after <= 6.0 * before,
            "storm 5x produced {after} arrivals from {before}"
        );
        // Outside the window the stream is untouched.
        let outside_before = w.pods.len() as f64 - before;
        let outside_after = stormed.pods.len() as f64 - after;
        assert_eq!(outside_before, outside_after);
    }

    #[test]
    fn storm_is_deterministic_and_window_independent() {
        let w = base();
        let storm = StormConfig {
            seed: 7,
            windows: vec![
                StormWindow {
                    start: 200,
                    duration: 300,
                    intensity: 3.0,
                    mix: ClassMix::be_heavy(),
                },
                StormWindow {
                    start: 2000,
                    duration: 300,
                    intensity: 2.0,
                    mix: ClassMix::all_be(),
                },
            ],
        };
        let a = apply_storm(&w, &storm).expect("storm");
        let b = apply_storm(&w, &storm).expect("storm");
        assert_eq!(a, b);

        // Dropping the second window must not change the pods the
        // first one injects (per-window streams are independent).
        let only_first = StormConfig {
            seed: 7,
            windows: storm.windows[..1].to_vec(),
        };
        let c = apply_storm(&w, &only_first).expect("storm");
        let early = |wl: &Workload| {
            wl.pods
                .iter()
                .filter(|p| p.spec.arrival.0 < 1000)
                .map(|p| (p.spec.arrival, p.spec.app, p.spec.slo))
                .collect::<Vec<_>>()
        };
        assert_eq!(early(&a), early(&c));
    }

    #[test]
    fn all_be_storm_adds_only_be_pods() {
        let w = base();
        let storm = StormConfig {
            seed: 3,
            windows: vec![StormWindow {
                start: 500,
                duration: 600,
                intensity: 4.0,
                mix: ClassMix::all_be(),
            }],
        };
        let stormed = apply_storm(&w, &storm).expect("storm");
        let per_class =
            |wl: &Workload, c: SloClass| wl.pods.iter().filter(|p| p.spec.slo == c).count();
        assert_eq!(
            per_class(&w, SloClass::Ls),
            per_class(&stormed, SloClass::Ls)
        );
        assert_eq!(
            per_class(&w, SloClass::Lsr),
            per_class(&stormed, SloClass::Lsr)
        );
        assert!(per_class(&stormed, SloClass::Be) > per_class(&w, SloClass::Be));
    }

    #[test]
    fn ids_are_positions_after_injection() {
        let w = base();
        let stormed = apply_storm(&w, &StormConfig::single(1, 0, 2000, 2.0)).expect("storm");
        for (i, pod) in stormed.pods.iter().enumerate() {
            assert_eq!(pod.spec.id, PodId(i as u32));
        }
        for pair in stormed.pods.windows(2) {
            assert!(pair[0].spec.arrival <= pair[1].spec.arrival);
        }
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let w = base();
        let bad = StormConfig {
            seed: 0,
            windows: vec![StormWindow {
                start: 0,
                duration: 10,
                intensity: f64::NAN,
                mix: ClassMix::be_heavy(),
            }],
        };
        assert!(apply_storm(&w, &bad).is_err());
        let bad_mix = StormConfig {
            seed: 0,
            windows: vec![StormWindow {
                start: 0,
                duration: 10,
                intensity: 2.0,
                mix: ClassMix {
                    be: 0.0,
                    ls: 0.0,
                    lsr: 0.0,
                },
            }],
        };
        assert!(apply_storm(&w, &bad_mix).is_err());
    }
}
