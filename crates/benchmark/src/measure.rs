//! Clocks and order statistics shared by every workload.

/// The reported value of a set of repeated measurements — their median
/// or, for the timings of a measured phase, their fastest — with their
/// quartiles.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// The reported statistic of the samples.
    pub value: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Sample count.
    pub n: usize,
}

impl Summary {
    /// Summarises `samples` by their median; quartiles follow Python's
    /// `statistics.quantiles(values, n=4)` (the exclusive method), so
    /// the numbers printed here are the ones an outside harness
    /// computes from the same values. Fewer than two samples collapse
    /// to the single value.
    ///
    /// # Panics
    ///
    /// Panics on an empty slice: every caller measures at least once.
    pub fn of(samples: &[f64]) -> Summary {
        assert!(!samples.is_empty(), "no samples to summarise");
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        let median = if n % 2 == 1 {
            v[n / 2]
        } else {
            (v[n / 2 - 1] + v[n / 2]) / 2.0
        };
        if n < 2 {
            return Summary::single(median);
        }
        let cut = |i: usize| {
            let m = n + 1;
            let j = (i * m / 4).clamp(1, n - 1);
            let delta = (i * m) as f64 - (j * 4) as f64;
            (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
        };
        Summary {
            value: median,
            q1: cut(1),
            q3: cut(3),
            n,
        }
    }

    /// Summarises the durations of repeated identical work by the
    /// **fastest** repetition. Noise on a shared box only ever adds
    /// time, in phases that outlast a run (the same pass takes 3.3 s in
    /// one minute and 5.5 s in the next), so the median of a run's
    /// repetitions moves with the phase the run fell into; the fastest
    /// repetition is the statistic that repeats. The quartiles still
    /// show the swing.
    pub fn fastest(samples: &[f64]) -> Summary {
        Summary {
            value: samples.iter().copied().fold(f64::INFINITY, f64::min),
            ..Summary::of(samples)
        }
    }

    /// A single reading with no spread.
    pub fn single(value: f64) -> Summary {
        Summary {
            value,
            q1: value,
            q3: value,
            n: 1,
        }
    }

    /// `amount ÷ self`, for a summary of durations: the rate at the
    /// reported duration, with the quartiles swapped to stay ordered.
    pub fn rate_of(&self, amount: f64) -> Summary {
        Summary {
            value: amount / self.value,
            q1: amount / self.q3,
            q3: amount / self.q1,
            n: self.n,
        }
    }

    /// Interquartile distance as a share of the reported value.
    pub fn spread(&self) -> f64 {
        if self.value == 0.0 {
            return 0.0;
        }
        ((self.q3 - self.q1) / self.value).abs()
    }
}

/// The `q`-quantile of `samples`: the smallest value with at least
/// `q` of the samples at or below it. Returns 0 for an empty set.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q.clamp(0.0, 1.0) * v.len() as f64).ceil().max(1.0) as usize;
    v.get(rank - 1).or(v.last()).copied().unwrap_or(0.0)
}

/// The `q`-quantile of a log₂-bucket histogram, interpolated linearly
/// inside the bucket that holds the rank and clamped to the observed
/// extremes — finer than [`optum_obs::Hist::quantile`]'s bucket
/// midpoint, which can only ever read one of 65 values.
pub fn hist_quantile(h: &optum_obs::Hist, q: f64) -> f64 {
    if h.count == 0 {
        return 0.0;
    }
    let rank = (q.clamp(0.0, 1.0) * h.count as f64).max(1.0);
    let mut seen = 0.0;
    for (i, &c) in h.buckets.iter().enumerate() {
        if c == 0 {
            continue;
        }
        if seen + c as f64 >= rank {
            let lo = if i == 0 {
                0.0
            } else {
                (1u64 << (i - 1)) as f64
            };
            let hi = optum_obs::Hist::bucket_le(i) as f64;
            let inside = (rank - seen) / c as f64;
            return (lo + (hi - lo) * inside).clamp(h.min as f64, h.max as f64);
        }
        seen += c as f64;
    }
    h.max as f64
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const PROCESS_CPUTIME: i32 = 2;

/// User + system CPU seconds consumed by this process so far, over all
/// of its threads, living or joined.
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, exclusively borrowed `timespec` with the
    // 64-bit Linux layout (two `long`s), and the call writes nothing
    // else. The clock id is a constant the kernel knows.
    let rc = unsafe { clock_gettime(PROCESS_CPUTIME, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    optum_obs::peak_rss_bytes()
        .map(|b| b as f64 / (1024.0 * 1024.0))
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!((s.q1, s.value, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        let s = Summary::of(&[4.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.value, s.q3), (1.0, 2.0, 4.0));
        // statistics.quantiles([3, 5], n=4) == [2.5, 4.0, 5.5]
        let s = Summary::of(&[5.0, 3.0]);
        assert_eq!((s.q1, s.value, s.q3), (2.5, 4.0, 5.5));
        let f = Summary::fastest(&[5.0, 3.0, 4.0]);
        assert_eq!((f.q1, f.value, f.q3, f.n), (3.0, 3.0, 5.0, 3));
        assert_eq!(f.rate_of(12.0).value, 4.0);
    }

    #[test]
    fn quantile_is_the_nearest_rank() {
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn hist_quantile_interpolates_and_clamps() {
        let mut h = optum_obs::Hist::default();
        for v in 100..200u64 {
            h.observe(v);
        }
        let p50 = hist_quantile(&h, 0.5);
        assert!((100.0..200.0).contains(&p50), "{p50}");
        assert_eq!(hist_quantile(&h, 1.0), 199.0);
        assert!(hist_quantile(&h, 0.0) >= 100.0);
    }

    #[test]
    fn cpu_clock_advances() {
        let a = process_cpu_s();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        assert!(process_cpu_s() > a);
    }
}
