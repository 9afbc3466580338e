//! Random samplers used by the synthetic trace generator.
//!
//! Implemented from first principles (the offline registry carries no
//! `rand_distr`): Box–Muller for normals, inverse-CDF transforms for the
//! exponential and Pareto families, a table-based Zipf sampler, and the
//! deterministic diurnal curve that shapes LS workload over the day.

use optum_types::StdRng;

/// A distribution that can draw `f64` samples from an RNG.
pub trait Sampler {
    /// Draws one sample.
    fn sample(&self, rng: &mut StdRng) -> f64;

    /// Draws `n` samples into a vector.
    fn sample_n(&self, rng: &mut StdRng, n: usize) -> Vec<f64> {
        (0..n).map(|_| self.sample(rng)).collect()
    }
}

/// Normal distribution via the Box–Muller transform.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normal {
    /// Mean.
    pub mean: f64,
    /// Standard deviation (non-negative).
    pub std: f64,
}

impl Normal {
    /// Creates a normal distribution; `None` when `std` is negative or
    /// either parameter is non-finite.
    pub fn new(mean: f64, std: f64) -> Option<Normal> {
        if std < 0.0 || !mean.is_finite() || !std.is_finite() {
            return None;
        }
        Some(Normal { mean, std })
    }

    /// Draws a standard-normal variate.
    pub fn standard_sample(rng: &mut StdRng) -> f64 {
        // Box–Muller: u1 in (0, 1] avoids ln(0).
        let u1: f64 = 1.0 - rng.next_f64();
        let u2 = rng.next_f64();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }
}

impl Sampler for Normal {
    fn sample(&self, rng: &mut StdRng) -> f64 {
        self.mean + self.std * Normal::standard_sample(rng)
    }
}

/// Log-normal distribution: `exp(N(mu, sigma))`.
///
/// Resource requests in production traces are heavily right-skewed;
/// log-normal matches the published request distributions well.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal {
    /// Mean of the underlying normal (log-scale location).
    pub mu: f64,
    /// Std of the underlying normal (log-scale spread).
    pub sigma: f64,
}

impl LogNormal {
    /// Creates a log-normal; `None` when `sigma` is negative.
    pub fn new(mu: f64, sigma: f64) -> Option<LogNormal> {
        if sigma < 0.0 || !mu.is_finite() || !sigma.is_finite() {
            return None;
        }
        Some(LogNormal { mu, sigma })
    }

    /// Log-normal parameterized by the desired median and the
    /// multiplicative spread `sigma` (log-scale std).
    pub fn from_median(median: f64, sigma: f64) -> Option<LogNormal> {
        if median <= 0.0 {
            return None;
        }
        LogNormal::new(median.ln(), sigma)
    }
}

impl Sampler for LogNormal {
    fn sample(&self, rng: &mut StdRng) -> f64 {
        (self.mu + self.sigma * Normal::standard_sample(rng)).exp()
    }
}

/// Exponential distribution with rate `lambda` (inverse-CDF method).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    /// Rate parameter (> 0); mean is `1 / lambda`.
    pub lambda: f64,
}

impl Exponential {
    /// Creates an exponential distribution; `None` unless `lambda > 0`.
    pub fn new(lambda: f64) -> Option<Exponential> {
        if lambda > 0.0 && lambda.is_finite() {
            Some(Exponential { lambda })
        } else {
            None
        }
    }
}

impl Sampler for Exponential {
    fn sample(&self, rng: &mut StdRng) -> f64 {
        let u: f64 = 1.0 - rng.next_f64();
        -u.ln() / self.lambda
    }
}

/// Pareto distribution with scale `xm` and shape `alpha`
/// (heavy-tailed; models waiting times and batch sizes, Figs. 7–8).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pareto {
    /// Scale (minimum value, > 0).
    pub xm: f64,
    /// Shape (> 0); smaller means heavier tail.
    pub alpha: f64,
}

impl Pareto {
    /// Creates a Pareto distribution; `None` unless both parameters are
    /// positive.
    pub fn new(xm: f64, alpha: f64) -> Option<Pareto> {
        if xm > 0.0 && alpha > 0.0 && xm.is_finite() && alpha.is_finite() {
            Some(Pareto { xm, alpha })
        } else {
            None
        }
    }
}

impl Sampler for Pareto {
    fn sample(&self, rng: &mut StdRng) -> f64 {
        let u: f64 = 1.0 - rng.next_f64();
        self.xm / u.powf(1.0 / self.alpha)
    }
}

/// Pareto truncated to `[lo, hi]` via the bounded-Pareto inverse CDF.
///
/// Used where the trace shows heavy tails with physical caps (task
/// durations, tasks-per-job).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundedPareto {
    /// Lower bound (> 0).
    pub lo: f64,
    /// Upper bound (> lo).
    pub hi: f64,
    /// Shape (> 0).
    pub alpha: f64,
}

impl BoundedPareto {
    /// Creates a bounded Pareto; `None` unless `0 < lo < hi` and
    /// `alpha > 0`.
    pub fn new(lo: f64, hi: f64, alpha: f64) -> Option<BoundedPareto> {
        if lo > 0.0 && hi > lo && alpha > 0.0 {
            Some(BoundedPareto { lo, hi, alpha })
        } else {
            None
        }
    }
}

impl Sampler for BoundedPareto {
    fn sample(&self, rng: &mut StdRng) -> f64 {
        let u = rng.next_f64();
        let (la, ha) = (self.lo.powf(self.alpha), self.hi.powf(self.alpha));
        // Inverse CDF of the bounded Pareto.
        let x = (-(u * ha - u * la - ha) / (ha * la)).powf(-1.0 / self.alpha);
        x.clamp(self.lo, self.hi)
    }
}

/// Zipf distribution over ranks `1..=n` with exponent `s`.
///
/// Application popularity in production traces is Zipf-like: a few
/// applications own most pods.
#[derive(Debug, Clone, PartialEq)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Builds a Zipf sampler over `n` ranks; `None` when `n == 0` or
    /// `s < 0`.
    pub fn new(n: usize, s: f64) -> Option<Zipf> {
        if n == 0 || s < 0.0 || !s.is_finite() {
            return None;
        }
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        Some(Zipf { cdf })
    }

    /// Draws a rank in `1..=n` (lower rank = more popular).
    pub fn sample_rank(&self, rng: &mut StdRng) -> usize {
        let u = rng.next_f64();
        self.cdf.partition_point(|&c| c < u) + 1
    }

    /// Number of ranks.
    pub fn n(&self) -> usize {
        self.cdf.len()
    }
}

impl Sampler for Zipf {
    fn sample(&self, rng: &mut StdRng) -> f64 {
        self.sample_rank(rng) as f64
    }
}

/// Deterministic diurnal curve: `base · (1 + amp · sin(2π(h − phase)/24))`.
///
/// Shapes LS QPS over the day (Fig. 3(b)); with `amp < 1` the curve
/// stays positive. BE arrival rates use an anti-phase copy (valley
/// filling, Implication 1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Diurnal {
    /// Mean level of the curve.
    pub base: f64,
    /// Relative amplitude in `[0, 1]`.
    pub amp: f64,
    /// Phase shift in hours (peak at `phase + 6h`).
    pub phase: f64,
}

impl Diurnal {
    /// Creates a diurnal curve; `None` when `amp` is outside `[0, 1]`
    /// or `base` is negative.
    pub fn new(base: f64, amp: f64, phase: f64) -> Option<Diurnal> {
        if !(0.0..=1.0).contains(&amp) || base < 0.0 {
            return None;
        }
        Some(Diurnal { base, amp, phase })
    }

    /// The curve value at hour-of-day `h` (fractional, `[0, 24)`).
    pub fn at(&self, h: f64) -> f64 {
        let angle = std::f64::consts::TAU * (h - self.phase) / 24.0;
        (self.base * (1.0 + self.amp * angle.sin())).max(0.0)
    }

    /// The anti-phase curve (shifted by 12 hours): high where `self` is
    /// low. Used for best-effort arrivals.
    pub fn anti_phase(&self) -> Diurnal {
        Diurnal {
            base: self.base,
            amp: self.amp,
            phase: self.phase + 12.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::describe::{mean, stddev};

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn normal_moments() {
        let d = Normal::new(5.0, 2.0).unwrap();
        let xs = d.sample_n(&mut rng(), 40_000);
        assert!((mean(&xs) - 5.0).abs() < 0.05);
        assert!((stddev(&xs) - 2.0).abs() < 0.05);
    }

    #[test]
    fn normal_rejects_negative_std() {
        assert!(Normal::new(0.0, -1.0).is_none());
        assert!(Normal::new(f64::NAN, 1.0).is_none());
    }

    #[test]
    fn lognormal_median() {
        let d = LogNormal::from_median(0.03, 0.8).unwrap();
        let mut xs = d.sample_n(&mut rng(), 40_000);
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = xs[xs.len() / 2];
        assert!((median - 0.03).abs() < 0.002, "median {median}");
        assert!(xs.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn exponential_mean() {
        let d = Exponential::new(0.5).unwrap();
        let xs = d.sample_n(&mut rng(), 40_000);
        assert!((mean(&xs) - 2.0).abs() < 0.05);
        assert!(Exponential::new(0.0).is_none());
    }

    #[test]
    fn pareto_respects_scale_and_tail() {
        let d = Pareto::new(1.0, 2.0).unwrap();
        let xs = d.sample_n(&mut rng(), 40_000);
        assert!(xs.iter().all(|&x| x >= 1.0));
        // Mean of Pareto(1, 2) is alpha*xm/(alpha-1) = 2.
        assert!((mean(&xs) - 2.0).abs() < 0.15);
    }

    #[test]
    fn bounded_pareto_stays_in_bounds() {
        let d = BoundedPareto::new(2.0, 100.0, 1.1).unwrap();
        let xs = d.sample_n(&mut rng(), 10_000);
        assert!(xs.iter().all(|&x| (2.0..=100.0).contains(&x)));
        // Heavy tail: some samples land in the top decade.
        assert!(xs.iter().any(|&x| x > 50.0));
        assert!(BoundedPareto::new(5.0, 2.0, 1.0).is_none());
    }

    #[test]
    fn zipf_is_skewed_to_low_ranks() {
        let d = Zipf::new(100, 1.2).unwrap();
        let mut counts = vec![0usize; 101];
        let mut r = rng();
        for _ in 0..20_000 {
            counts[d.sample_rank(&mut r)] += 1;
        }
        assert!(counts[1] > counts[10]);
        assert!(counts[1] > counts[50] * 5);
        assert_eq!(counts[0], 0, "rank 0 must never be drawn");
    }

    #[test]
    fn zipf_edge_cases() {
        assert!(Zipf::new(0, 1.0).is_none());
        let one = Zipf::new(1, 1.0).unwrap();
        assert_eq!(one.sample_rank(&mut rng()), 1);
    }

    #[test]
    fn diurnal_curve_shape() {
        let d = Diurnal::new(100.0, 0.5, 0.0).unwrap();
        // Peak at phase + 6h, trough at phase + 18h.
        assert!((d.at(6.0) - 150.0).abs() < 1e-9);
        assert!((d.at(18.0) - 50.0).abs() < 1e-9);
        let anti = d.anti_phase();
        assert!((anti.at(18.0) - 150.0).abs() < 1e-9);
        assert!(Diurnal::new(1.0, 1.5, 0.0).is_none());
    }

    #[test]
    fn diurnal_never_negative() {
        let d = Diurnal::new(10.0, 1.0, 3.0).unwrap();
        for i in 0..240 {
            assert!(d.at(i as f64 / 10.0) >= 0.0);
        }
    }
}
