//! Warehouse-scale pod population generator for the sharded engine.
//!
//! The full generator ([`crate::generate`]) materializes rich
//! [`crate::Workload`] state — app profiles, per-pod physics factors,
//! affinity sets — that the characterization figures need but that
//! does not fit in memory at 100k hosts × 8 days (tens of millions of
//! pods × hundreds of bytes). This module produces the *flat*
//! population the `optum-shard` scale engine consumes: one compact
//! record per pod (class, request, mean usage, nominal duration),
//! already sorted by arrival tick.
//!
//! Determinism: every draw comes from a per-tick
//! [`SplitMix64`] stream
//! `stream(seed, SCALE_CHANNEL, tick)`, so the population is a pure
//! function of `(seed, hosts, days)` — independent of shard count,
//! thread count, and machine. Densities are per 100 hosts, as in
//! [`crate::WorkloadConfig`], so scaling hosts scales the population
//! linearly with no retuning.

use optum_types::{SloClass, SplitMix64, TICKS_PER_DAY};

/// RNG channel tag for the scale population (decorrelates this stream
/// from the storm and chaos channels sharing a seed).
pub const SCALE_CHANNEL: u64 = 0x5CA1_E000;

/// Configuration of the flat scale population.
#[derive(Debug, Clone, PartialEq)]
pub struct ScaleWorkloadConfig {
    /// RNG seed.
    pub seed: u64,
    /// Hosts the population is sized for.
    pub hosts: usize,
    /// Window length in days.
    pub days: u64,
    /// Total pod arrivals per 100 hosts per day (all classes). The
    /// characterization workload runs ~2000 BE pods per 100 hosts per
    /// day; the scale sweep defaults lower so the 100k-host arm stays
    /// within a CI container's memory — the axis under test is hosts,
    /// not pod density.
    pub pods_per_100_per_day: f64,
    /// Fraction of arrivals that are long-running LS services.
    pub ls_share: f64,
    /// Fraction of arrivals that are reserved (LSR) services.
    pub lsr_share: f64,
    /// Amplitude of the diurnal arrival-rate curve.
    pub diurnal_amp: f64,
    /// Median CPU request (normalized cores).
    pub cpu_request_median: f64,
    /// Median memory request.
    pub mem_request_median: f64,
    /// Log-scale spread of the request distributions.
    pub request_sigma: f64,
    /// Mean fraction of its CPU request a pod actually uses.
    pub cpu_usage_ratio: f64,
    /// Mean fraction of its memory request a pod actually uses.
    pub mem_usage_ratio: f64,
    /// Bounded-Pareto shape of BE durations.
    pub be_duration_alpha: f64,
    /// Maximum BE duration in ticks.
    pub be_duration_max_ticks: f64,
    /// Mean LS/LSR lifetime in days.
    pub ls_mean_lifetime_days: f64,
}

impl ScaleWorkloadConfig {
    /// Calibrated defaults for `hosts` hosts over `days` days.
    pub fn sized(hosts: usize, days: u64, seed: u64) -> ScaleWorkloadConfig {
        ScaleWorkloadConfig {
            seed,
            hosts,
            days,
            pods_per_100_per_day: 400.0,
            ls_share: 0.15,
            lsr_share: 0.05,
            diurnal_amp: 0.35,
            cpu_request_median: 0.045,
            mem_request_median: 0.03,
            request_sigma: 0.55,
            cpu_usage_ratio: 0.3,
            mem_usage_ratio: 0.6,
            be_duration_alpha: 0.7,
            be_duration_max_ticks: 2880.0,
            ls_mean_lifetime_days: 1.2,
        }
    }

    /// Window length in ticks.
    pub fn window_ticks(&self) -> u64 {
        self.days * TICKS_PER_DAY
    }
}

/// One pod of the flat scale population. Ids are implicit: a pod's id
/// is its index in the generated vector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScalePod {
    /// Arrival tick.
    pub arrival: u64,
    /// Service class (Be, Ls or Lsr).
    pub class: SloClass,
    /// CPU request (normalized cores).
    pub cpu_req: f64,
    /// Memory request.
    pub mem_req: f64,
    /// Mean CPU usage while running (≤ request).
    pub cpu_use: f64,
    /// Mean memory usage while running (≤ request).
    pub mem_use: f64,
    /// Nominal duration in ticks (capacity is held this long once
    /// placed; an eviction restarts the clock).
    pub duration: u64,
}

/// Approximately standard-normal draw: a sum of four uniforms,
/// centered and variance-corrected (Irwin–Hall). Smooth enough for
/// log-scale request spreads; cheap and dependency-free.
fn approx_normal(rng: &mut SplitMix64) -> f64 {
    let s = rng.next_f64() + rng.next_f64() + rng.next_f64() + rng.next_f64();
    (s - 2.0) * 1.732_050_807_568_877_2
}

/// Bounded-Pareto draw on `[lo, hi]` with shape `alpha`.
fn bounded_pareto(rng: &mut SplitMix64, alpha: f64, lo: f64, hi: f64) -> f64 {
    let u = rng.next_f64();
    let la = lo.powf(alpha);
    let ha = hi.powf(alpha);
    (-(u * ha - u * la - ha) / (ha * la)).powf(-1.0 / alpha)
}

/// Generates the flat population, sorted by arrival (ties keep draw
/// order, so the stream is already canonical).
pub fn generate_scale(cfg: &ScaleWorkloadConfig) -> Vec<ScalePod> {
    let window = cfg.window_ticks();
    let total = cfg.pods_per_100_per_day * (cfg.hosts as f64 / 100.0) * cfg.days as f64;
    let mean_per_tick = total / window as f64;
    let mut pods = Vec::with_capacity(total as usize + 16);
    for t in 0..window {
        let mut rng = SplitMix64::stream(cfg.seed, SCALE_CHANNEL, t);
        // Diurnal arrival intensity, peaking mid-day.
        let phase = (t % TICKS_PER_DAY) as f64 / TICKS_PER_DAY as f64;
        let diurnal = 1.0 + cfg.diurnal_amp * (std::f64::consts::TAU * (phase - 0.25)).sin();
        let lambda = mean_per_tick * diurnal;
        let mut count = lambda.floor() as u64;
        if rng.next_f64() < lambda.fract() {
            count += 1;
        }
        for _ in 0..count {
            let class_draw = rng.next_f64();
            let class = if class_draw < cfg.ls_share {
                SloClass::Ls
            } else if class_draw < cfg.ls_share + cfg.lsr_share {
                SloClass::Lsr
            } else {
                SloClass::Be
            };
            let cpu_req =
                cfg.cpu_request_median * (cfg.request_sigma * approx_normal(&mut rng)).exp();
            let mem_req =
                cfg.mem_request_median * (cfg.request_sigma * approx_normal(&mut rng)).exp();
            let cpu_req = cpu_req.clamp(0.001, 1.0);
            let mem_req = mem_req.clamp(0.001, 1.0);
            let spread = 0.6 + 0.8 * rng.next_f64();
            let cpu_use = (cfg.cpu_usage_ratio * spread * cpu_req).min(cpu_req);
            let mem_use = (cfg.mem_usage_ratio * spread * mem_req).min(mem_req);
            let duration = match class {
                SloClass::Be => bounded_pareto(
                    &mut rng,
                    cfg.be_duration_alpha,
                    2.0,
                    cfg.be_duration_max_ticks,
                ) as u64,
                // Long-running services: exponential lifetime, clipped
                // to at least 15 minutes.
                _ => (rng.exp(cfg.ls_mean_lifetime_days * TICKS_PER_DAY as f64) as u64).max(30),
            };
            pods.push(ScalePod {
                arrival: t,
                class,
                cpu_req,
                mem_req,
                cpu_use,
                mem_use,
                duration: duration.max(1),
            });
        }
    }
    pods
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_sorted() {
        let cfg = ScaleWorkloadConfig::sized(200, 1, 42);
        let a = generate_scale(&cfg);
        let b = generate_scale(&cfg);
        assert_eq!(a, b);
        assert!(!a.is_empty());
        assert!(a.windows(2).all(|w| w[0].arrival <= w[1].arrival));
    }

    #[test]
    fn density_scales_linearly_with_hosts() {
        let small = generate_scale(&ScaleWorkloadConfig::sized(100, 1, 7)).len() as f64;
        let big = generate_scale(&ScaleWorkloadConfig::sized(1000, 1, 7)).len() as f64;
        let ratio = big / small;
        assert!((8.0..12.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn fields_are_sane() {
        for p in generate_scale(&ScaleWorkloadConfig::sized(150, 1, 9)) {
            assert!(p.cpu_req > 0.0 && p.cpu_req <= 1.0);
            assert!(p.mem_req > 0.0 && p.mem_req <= 1.0);
            assert!(p.cpu_use <= p.cpu_req && p.cpu_use > 0.0);
            assert!(p.mem_use <= p.mem_req && p.mem_use > 0.0);
            assert!(p.duration >= 1);
            assert!(matches!(
                p.class,
                SloClass::Be | SloClass::Ls | SloClass::Lsr
            ));
        }
    }

    #[test]
    fn seed_changes_the_population() {
        let a = generate_scale(&ScaleWorkloadConfig::sized(200, 1, 1));
        let b = generate_scale(&ScaleWorkloadConfig::sized(200, 1, 2));
        assert_ne!(a, b);
    }
}
