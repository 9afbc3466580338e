//! Bounded rolling windows over streaming samples.
//!
//! Predictors observe "the last period (usually 24 hours)" of host
//! usage (§3.2.2); this window keeps that history in O(capacity) memory.

use std::collections::VecDeque;

/// A fixed-capacity FIFO of recent samples with O(1) push and O(n)
/// aggregate queries.
///
/// # Examples
///
/// ```
/// use optum_stats::RollingWindow;
///
/// let mut w = RollingWindow::new(3);
/// for x in [1.0, 2.0, 3.0, 4.0] {
///     w.push(x);
/// }
/// assert_eq!(w.as_slice(), vec![2.0, 3.0, 4.0]);
/// assert_eq!(w.max(), Some(4.0));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RollingWindow {
    buf: VecDeque<f64>,
    capacity: usize,
}

impl RollingWindow {
    /// Creates a window holding at most `capacity` samples
    /// (`capacity` of zero is bumped to one).
    pub fn new(capacity: usize) -> RollingWindow {
        RollingWindow {
            buf: VecDeque::new(),
            capacity: capacity.max(1),
        }
    }

    /// Appends a sample, evicting the oldest when full.
    #[inline]
    pub fn push(&mut self, x: f64) {
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
        }
        self.buf.push_back(x);
    }

    /// Number of retained samples.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when no samples are retained.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Copies the retained samples, oldest first.
    pub fn as_slice(&self) -> Vec<f64> {
        self.buf.iter().copied().collect()
    }

    /// Mean of retained samples; `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        if self.buf.is_empty() {
            return None;
        }
        Some(self.buf.iter().sum::<f64>() / self.buf.len() as f64)
    }

    /// Population standard deviation; `None` when empty.
    pub fn std(&self) -> Option<f64> {
        let m = self.mean()?;
        let var = self.buf.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / self.buf.len() as f64;
        Some(var.sqrt())
    }

    /// Maximum retained sample; `None` when empty.
    pub fn max(&self) -> Option<f64> {
        self.buf.iter().copied().fold(None, |acc, x| match acc {
            None => Some(x),
            Some(m) => Some(m.max(x)),
        })
    }

    /// The p-th percentile (`p` in `[0, 100]`, nearest rank);
    /// `None` when empty.
    ///
    /// Uses O(n) selection rather than a full sort: the nearest-rank
    /// definition only needs the k-th order statistic, and selection
    /// returns the same value a sort would put at that rank.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        if self.buf.is_empty() {
            return None;
        }
        let mut xs = self.as_slice();
        let rank = ((p / 100.0).clamp(0.0, 1.0) * (xs.len() as f64 - 1.0)).round() as usize;
        let (_, at_rank, _) = xs.select_nth_unstable_by(rank, |a, b| {
            a.partial_cmp(b).expect("windows never hold NaN")
        });
        Some(*at_rank)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn evicts_oldest() {
        let mut w = RollingWindow::new(2);
        w.push(1.0);
        w.push(2.0);
        w.push(3.0);
        assert_eq!(w.as_slice(), vec![2.0, 3.0]);
        assert_eq!(w.len(), 2);
    }

    #[test]
    fn zero_capacity_is_bumped() {
        let mut w = RollingWindow::new(0);
        w.push(5.0);
        assert_eq!(w.len(), 1);
    }

    #[test]
    fn aggregates() {
        let mut w = RollingWindow::new(10);
        assert_eq!(w.mean(), None);
        assert_eq!(w.max(), None);
        assert_eq!(w.percentile(99.0), None);
        for x in [1.0, 2.0, 3.0, 4.0] {
            w.push(x);
        }
        assert_eq!(w.mean(), Some(2.5));
        assert_eq!(w.max(), Some(4.0));
        assert_eq!(w.percentile(0.0), Some(1.0));
        assert_eq!(w.percentile(100.0), Some(4.0));
        assert!((w.std().unwrap() - (1.25f64).sqrt()).abs() < 1e-12);
    }

    proptest! {
        #[test]
        fn percentile_matches_full_sort(
            xs in proptest::collection::vec(-1e3f64..1e3, 1..200),
            p in 0f64..100.0,
        ) {
            let mut w = RollingWindow::new(xs.len());
            for &x in &xs {
                w.push(x);
            }
            let mut sorted = xs.clone();
            sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let rank = ((p / 100.0).clamp(0.0, 1.0) * (sorted.len() as f64 - 1.0)).round() as usize;
            prop_assert_eq!(w.percentile(p), Some(sorted[rank]));
        }

        #[test]
        fn never_exceeds_capacity(
            xs in proptest::collection::vec(-1e3f64..1e3, 0..100),
            cap in 1usize..20,
        ) {
            let mut w = RollingWindow::new(cap);
            for &x in &xs {
                w.push(x);
                prop_assert!(w.len() <= cap);
            }
            if xs.len() >= cap {
                prop_assert_eq!(w.as_slice(), xs[xs.len() - cap..].to_vec());
            }
        }
    }
}
