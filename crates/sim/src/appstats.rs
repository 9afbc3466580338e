//! Online per-application statistics (the Tracing Coordinator's live
//! aggregate view).
//!
//! Schedulers consult these statistics at decision time through the
//! [`ProfileSource`] trait: Resource Central needs per-pod p99 usage,
//! the Optum predictor needs memory profiles and ERO pairs. Statistics
//! update every physics pass and percentile caches refresh on a stride.

use optum_predictors::ProfileSource;
use optum_stats::RollingWindow;
use optum_types::{AppId, Resources, Result};

use crate::checkpoint::{Snap, SnapReader, SnapWriter};
use crate::training::EroTable;

/// Running statistics for one application.
#[derive(Debug, Clone)]
pub struct AppStats {
    /// Recent per-pod CPU usage samples.
    cpu_window: RollingWindow,
    /// Recent per-pod memory usage samples.
    mem_window: RollingWindow,
    /// Welford accumulators for memory *utilization* CoV.
    mem_util_count: u64,
    mem_util_mean: f64,
    mem_util_m2: f64,
    /// Maximum observed per-pod utilizations.
    pub max_cpu_util: f64,
    /// Maximum observed per-pod memory utilization.
    pub max_mem_util: f64,
    /// Maximum observed normalized QPS.
    pub max_qps_norm: f64,
    /// Cached p99s (refreshed on a stride).
    cached_p99: Option<Resources>,
    /// Total samples observed.
    pub samples: u64,
}

impl Default for AppStats {
    fn default() -> AppStats {
        AppStats {
            cpu_window: RollingWindow::new(1024),
            mem_window: RollingWindow::new(1024),
            mem_util_count: 0,
            mem_util_mean: 0.0,
            mem_util_m2: 0.0,
            max_cpu_util: 0.0,
            max_mem_util: 0.0,
            max_qps_norm: 0.0,
            cached_p99: None,
            samples: 0,
        }
    }
}

impl AppStats {
    /// Records one pod observation: its usage, and that usage relative
    /// to its request (`usage.div(&request)`).
    #[inline]
    pub fn observe(&mut self, usage: Resources, util: Resources, qps_norm: f64) {
        self.cpu_window.push(usage.cpu);
        self.mem_window.push(usage.mem);
        let mem_util = util.mem;
        self.max_cpu_util = self.max_cpu_util.max(util.cpu);
        self.max_mem_util = self.max_mem_util.max(mem_util);
        self.max_qps_norm = self.max_qps_norm.max(qps_norm);
        // Welford update of the memory-utilization variance.
        self.mem_util_count += 1;
        let delta = mem_util - self.mem_util_mean;
        self.mem_util_mean += delta / self.mem_util_count as f64;
        self.mem_util_m2 += delta * (mem_util - self.mem_util_mean);
        self.samples += 1;
    }

    /// Coefficient of variation of the observed memory utilization.
    pub fn mem_cov(&self) -> f64 {
        if self.mem_util_count < 2 || self.mem_util_mean == 0.0 {
            return 0.0;
        }
        let var = self.mem_util_m2 / self.mem_util_count as f64;
        var.sqrt() / self.mem_util_mean.abs()
    }

    /// Recomputes the cached p99 usage.
    pub fn refresh(&mut self) {
        if self.cpu_window.is_empty() {
            self.cached_p99 = None;
            return;
        }
        let cpu = self.cpu_window.percentile(99.0).unwrap_or(0.0);
        let mem = self.mem_window.percentile(99.0).unwrap_or(0.0);
        self.cached_p99 = Some(Resources::new(cpu, mem));
    }

    /// The cached p99 usage, if any samples were observed.
    pub fn p99(&self) -> Option<Resources> {
        self.cached_p99
    }
}

/// Hand-written because restore replays the saved samples into fresh
/// windows (they hold at most their capacity, so replaying in order
/// reproduces the deque exactly).
impl Snap for AppStats {
    fn snap(&self, w: &mut SnapWriter) {
        self.cpu_window.as_slice().snap(w);
        self.mem_window.as_slice().snap(w);
        self.mem_util_count.snap(w);
        self.mem_util_mean.snap(w);
        self.mem_util_m2.snap(w);
        self.max_cpu_util.snap(w);
        self.max_mem_util.snap(w);
        self.max_qps_norm.snap(w);
        self.cached_p99.snap(w);
        self.samples.snap(w);
    }

    fn unsnap(r: &mut SnapReader<'_>) -> Result<AppStats> {
        let mut s = AppStats::default();
        for x in Vec::unsnap(r)? {
            s.cpu_window.push(x);
        }
        for x in Vec::unsnap(r)? {
            s.mem_window.push(x);
        }
        s.mem_util_count = Snap::unsnap(r)?;
        s.mem_util_mean = Snap::unsnap(r)?;
        s.mem_util_m2 = Snap::unsnap(r)?;
        s.max_cpu_util = Snap::unsnap(r)?;
        s.max_mem_util = Snap::unsnap(r)?;
        s.max_qps_norm = Snap::unsnap(r)?;
        s.cached_p99 = Snap::unsnap(r)?;
        s.samples = Snap::unsnap(r)?;
        Ok(s)
    }
}

/// Store of per-application statistics plus the live ERO table.
#[derive(Debug, Clone)]
pub struct AppStatsStore {
    stats: Vec<AppStats>,
    ero: EroTable,
}

impl AppStatsStore {
    /// Creates a store for `n_apps` applications.
    pub fn new(n_apps: usize) -> AppStatsStore {
        AppStatsStore {
            stats: (0..n_apps).map(|_| AppStats::default()).collect(),
            ero: EroTable::new(n_apps),
        }
    }

    /// Number of tracked applications.
    pub fn len(&self) -> usize {
        self.stats.len()
    }

    /// True when tracking no applications.
    pub fn is_empty(&self) -> bool {
        self.stats.is_empty()
    }

    /// Statistics of one application.
    pub fn get(&self, app: AppId) -> &AppStats {
        &self.stats[app.index()]
    }

    /// Records one pod observation for an application (see
    /// [`AppStats::observe`]).
    #[inline]
    pub fn observe(&mut self, app: AppId, usage: Resources, util: Resources, qps: f64) {
        self.stats[app.index()].observe(usage, util, qps);
    }

    /// Records a pairwise joint-usage ratio.
    pub fn observe_pair(&mut self, a: AppId, b: AppId, ratio: f64) {
        self.ero.observe(a, b, ratio);
    }

    /// Refreshes every application's cached percentiles.
    pub fn refresh_all(&mut self) {
        for s in &mut self.stats {
            s.refresh();
        }
    }

    /// The live ERO table.
    pub fn ero_table(&self) -> &EroTable {
        &self.ero
    }
}

crate::snap_fields!(AppStatsStore { stats, ero });

impl ProfileSource for AppStatsStore {
    fn p99_usage(&self, app: AppId) -> Option<Resources> {
        self.stats.get(app.index())?.p99()
    }

    fn max_mem_util(&self, app: AppId) -> Option<f64> {
        let s = self.stats.get(app.index())?;
        if s.samples == 0 {
            return None;
        }
        if s.mem_cov() <= 0.01 {
            Some(s.max_mem_util)
        } else {
            Some(1.0)
        }
    }

    fn ero(&self, a: AppId, b: AppId) -> f64 {
        self.ero.get(a, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_refresh() {
        let mut store = AppStatsStore::new(2);
        for i in 0..100 {
            store.observe(
                AppId(0),
                Resources::new(i as f64 / 100.0, 0.01),
                Resources::new(i as f64 / 100.0, 0.5),
                0.0,
            );
        }
        assert_eq!(store.p99_usage(AppId(0)), None, "cache not refreshed yet");
        store.refresh_all();
        let p99 = store.p99_usage(AppId(0)).unwrap();
        assert!(p99.cpu > 0.95, "p99 {p99:?}");
        assert_eq!(store.p99_usage(AppId(1)), None);
    }

    #[test]
    fn memory_profile_depends_on_stability() {
        let mut store = AppStatsStore::new(2);
        // App 0: rock-stable memory utilization.
        for _ in 0..50 {
            store.observe(
                AppId(0),
                Resources::new(0.0, 0.01),
                Resources::new(0.0, 0.01 / 0.02),
                0.0,
            );
        }
        // App 1: wildly varying memory.
        for i in 0..50 {
            let mem = if i % 2 == 0 { 0.002 } else { 0.018 };
            store.observe(
                AppId(1),
                Resources::new(0.0, mem),
                Resources::new(0.0, mem / 0.02),
                0.0,
            );
        }
        assert_eq!(store.max_mem_util(AppId(0)), Some(0.5));
        assert_eq!(store.max_mem_util(AppId(1)), Some(1.0));
    }

    #[test]
    fn max_utils_track_peaks() {
        let mut s = AppStats::default();
        s.observe(Resources::new(0.02, 0.01), Resources::new(0.2, 0.1), 0.3);
        s.observe(Resources::new(0.08, 0.005), Resources::new(0.8, 0.05), 0.9);
        assert!((s.max_cpu_util - 0.8).abs() < 1e-12);
        assert!((s.max_mem_util - 0.1).abs() < 1e-12);
        assert_eq!(s.max_qps_norm, 0.9);
        assert_eq!(s.samples, 2);
    }

    #[test]
    fn ero_through_store() {
        let mut store = AppStatsStore::new(3);
        store.observe_pair(AppId(0), AppId(1), 0.45);
        assert_eq!(store.ero(AppId(0), AppId(1)), 0.45);
        assert_eq!(store.ero(AppId(0), AppId(2)), 1.0);
    }

    #[test]
    fn welford_cov_matches_direct() {
        let mut s = AppStats::default();
        let utils = [0.4, 0.5, 0.6, 0.5, 0.45, 0.55];
        for &u in &utils {
            s.observe(
                Resources::new(0.0, u * 0.02),
                Resources::new(0.0, u * 0.02 / 0.02),
                0.0,
            );
        }
        let direct = optum_stats::coefficient_of_variation(&utils).unwrap();
        assert!(
            (s.mem_cov() - direct).abs() < 1e-9,
            "{} vs {direct}",
            s.mem_cov()
        );
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The cached p99 always lies within the observed sample range.
        #[test]
        fn p99_within_observed_range(
            samples in proptest::collection::vec(0.001f64..1.0, 2..200)
        ) {
            let mut store = AppStatsStore::new(1);
            for &s in &samples {
                store.observe(
                    AppId(0),
                    Resources::new(s, s / 2.0),
                    Resources::new(s, s / 2.0),
                    0.0,
                );
            }
            store.refresh_all();
            let p99 = store.p99_usage(AppId(0)).unwrap();
            let lo = samples.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = samples.iter().cloned().fold(0.0f64, f64::max);
            prop_assert!(p99.cpu >= lo - 1e-12 && p99.cpu <= hi + 1e-12);
        }

        /// Max utilizations never decrease as more samples arrive.
        #[test]
        fn max_utils_monotone(samples in proptest::collection::vec(0.001f64..1.0, 1..100)) {
            let mut s = AppStats::default();
            let mut prev = 0.0;
            for &x in &samples {
                s.observe(Resources::new(x, x), Resources::new(x, x), x);
                prop_assert!(s.max_cpu_util >= prev);
                prev = s.max_cpu_util;
            }
        }
    }
}
