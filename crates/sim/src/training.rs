//! Offline-profiling dataset collected by the tracing layer.
//!
//! The paper's Offline Profiler trains on the first seven days of
//! trace data (§5.1). A profiling simulation run with
//! `collect_training` enabled produces this dataset; the Optum
//! scheduler's profilers consume it.

use optum_predictors::ProfileSource;
use optum_types::{AppId, Error, Resources, Result};

use crate::checkpoint::{Snap, SnapReader, SnapWriter};

/// One PSI training sample for a latency-sensitive application
/// (the inputs and output of Eq. 1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PsiSample {
    /// Application the pod belongs to.
    pub app: AppId,
    /// Pod CPU utilization (usage / request).
    pub pod_cpu_util: f64,
    /// Pod memory utilization (usage / request).
    pub pod_mem_util: f64,
    /// Host CPU utilization.
    pub host_cpu_util: f64,
    /// Host memory utilization.
    pub host_mem_util: f64,
    /// Normalized QPS in `[0, 1]`.
    pub qps_norm: f64,
    /// Observed CPU PSI (60-second window), the learning target.
    pub psi: f64,
}

crate::snap_fields!(PsiSample {
    app,
    pod_cpu_util,
    pod_mem_util,
    host_cpu_util,
    host_mem_util,
    qps_norm,
    psi
});

impl PsiSample {
    /// The feature vector in the order the profiler trains on.
    pub fn features(&self) -> Vec<f64> {
        vec![
            self.pod_cpu_util,
            self.pod_mem_util,
            self.host_cpu_util,
            self.host_mem_util,
            self.qps_norm,
        ]
    }
}

/// One completion-time training sample for a best-effort application
/// (the inputs and output of Eq. 2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CtSample {
    /// Application the pod belongs to.
    pub app: AppId,
    /// Maximum pod CPU utilization over the run.
    pub max_pod_cpu_util: f64,
    /// Maximum pod memory utilization over the run.
    pub max_pod_mem_util: f64,
    /// Maximum host CPU utilization over the run.
    pub max_host_cpu_util: f64,
    /// Maximum host memory utilization over the run.
    pub max_host_mem_util: f64,
    /// Normalized completion time in `[0, 1]`: the slowdown ratio
    /// `actual/nominal` scaled by [`CT_NORM_SCALE`] and clamped — an
    /// uncontended pod reads `1/CT_NORM_SCALE`, a pod slowed to
    /// `CT_NORM_SCALE×` its nominal time reads 1.0. (The paper
    /// normalizes to the maximum completion time; a ratio to the
    /// nominal is the per-app equivalent and keeps targets away from
    /// zero, where MAPE degenerates.)
    pub ct_norm: f64,
}

crate::snap_fields!(CtSample {
    app,
    max_pod_cpu_util,
    max_pod_mem_util,
    max_host_cpu_util,
    max_host_mem_util,
    ct_norm
});

impl CtSample {
    /// The feature vector in the order the profiler trains on.
    pub fn features(&self) -> Vec<f64> {
        vec![
            self.max_pod_cpu_util,
            self.max_pod_mem_util,
            self.max_host_cpu_util,
            self.max_host_mem_util,
        ]
    }
}

/// The slowdown ratio mapped to the top of the `[0, 1]` target range
/// (the physics caps slowdown well below 4×).
pub const CT_NORM_SCALE: f64 = 4.0;

/// Normalizes a (nominal, actual) completion pair to the `[0, 1]`
/// learning target.
pub fn normalize_ct(nominal: u64, actual: u64) -> f64 {
    if nominal == 0 {
        return 0.0;
    }
    (actual as f64 / nominal as f64 / CT_NORM_SCALE).clamp(0.0, 1.0)
}

/// Dense pairwise effective-resource-usage table (Eq. 5), keyed by
/// application pair. Unobserved pairs read 1.0 (the conservative
/// initialization of §4.2.2).
#[derive(Debug, Clone, PartialEq)]
pub struct EroTable {
    n: usize,
    /// Observed maxima; NaN marks "never observed".
    vals: Vec<f64>,
}

impl EroTable {
    /// Creates a table for `n` applications with no observations.
    pub fn new(n: usize) -> EroTable {
        EroTable {
            n,
            vals: vec![f64::NAN; n * n],
        }
    }

    fn idx(&self, a: AppId, b: AppId) -> usize {
        let (lo, hi) = if a.0 <= b.0 {
            (a.index(), b.index())
        } else {
            (b.index(), a.index())
        };
        // Upper-triangular packing.
        lo * self.n + hi
    }

    /// Records an observed joint-usage ratio for a co-located pair,
    /// keeping the maximum (Eq. 5). Ratios are clamped to `[0, 1]`
    /// (Eq. 4 guarantees the bound when usage ≤ request; throttled
    /// hosts can momentarily exceed it).
    pub fn observe(&mut self, a: AppId, b: AppId, ratio: f64) {
        if a.index() >= self.n || b.index() >= self.n {
            return;
        }
        let i = self.idx(a, b);
        let r = ratio.clamp(0.0, 1.0);
        if self.vals[i].is_nan() || self.vals[i] < r {
            self.vals[i] = r;
        }
    }

    /// The effective coefficient for a pair; 1.0 when never observed.
    pub fn get(&self, a: AppId, b: AppId) -> f64 {
        if a.index() >= self.n || b.index() >= self.n {
            return 1.0;
        }
        let v = self.vals[self.idx(a, b)];
        if v.is_nan() {
            1.0
        } else {
            v
        }
    }

    /// Number of applications covered.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when sized for zero applications.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Count of observed (non-default) pairs.
    pub fn observed_pairs(&self) -> usize {
        self.vals.iter().filter(|v| !v.is_nan()).count()
    }
}

/// The app count, then the cells (NaN "unobserved" markers round-trip
/// bit-exactly). Hand-written for the check that the cells are `n²`.
impl Snap for EroTable {
    fn snap(&self, w: &mut SnapWriter) {
        self.n.snap(w);
        self.vals.snap(w);
    }

    fn unsnap(r: &mut SnapReader<'_>) -> Result<EroTable> {
        let n = usize::unsnap(r)?;
        let vals = Vec::unsnap(r)?;
        if n.checked_mul(n) != Some(vals.len()) {
            return Err(Error::InvalidData(format!(
                "snapshot corrupt: ERO table for {n} apps has {} cells",
                vals.len()
            )));
        }
        Ok(EroTable { n, vals })
    }
}

/// Per-application usage profile snapshot from the profiling run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AppUsageProfile {
    /// Whether the app was observed running at all.
    pub seen: bool,
    /// p99 of per-pod usage.
    pub p99_usage: Resources,
    /// Maximum observed per-pod CPU utilization (usage/request).
    pub max_cpu_util: f64,
    /// Maximum observed per-pod memory utilization.
    pub max_mem_util: f64,
    /// Coefficient of variation of pod memory utilization.
    pub mem_cov: f64,
    /// Maximum observed normalized QPS.
    pub max_qps_norm: f64,
}

impl Default for AppUsageProfile {
    fn default() -> AppUsageProfile {
        AppUsageProfile {
            seen: false,
            p99_usage: Resources::ZERO,
            max_cpu_util: 0.0,
            max_mem_util: 0.0,
            mem_cov: 0.0,
            max_qps_norm: 0.0,
        }
    }
}

/// The complete offline-profiling dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainingData {
    /// PSI samples across all LS applications.
    pub psi: Vec<PsiSample>,
    /// Completion-time samples across all BE applications.
    pub ct: Vec<CtSample>,
    /// Pairwise ERO table.
    pub ero: EroTable,
    /// Triple-wise ERO table (when collected; §4.2.2's extension).
    pub triples: Option<TripleEroTable>,
    /// Per-application usage profiles, indexed by [`AppId`].
    pub app_profiles: Vec<AppUsageProfile>,
}

impl ProfileSource for TrainingData {
    fn p99_usage(&self, app: AppId) -> Option<Resources> {
        let p = self.app_profiles.get(app.index())?;
        if p.seen {
            Some(p.p99_usage)
        } else {
            None
        }
    }

    fn max_mem_util(&self, app: AppId) -> Option<f64> {
        let p = self.app_profiles.get(app.index())?;
        if !p.seen {
            return None;
        }
        // §4.2.2: profile the observed max only for memory-stable apps.
        if p.mem_cov <= 0.01 {
            Some(p.max_mem_util)
        } else {
            Some(1.0)
        }
    }

    fn ero(&self, a: AppId, b: AppId) -> f64 {
        self.ero.get(a, b)
    }

    fn ero3(&self, a: AppId, b: AppId, c: AppId) -> Option<f64> {
        self.triples.as_ref()?.get(a, b, c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ero_defaults_to_one() {
        let t = EroTable::new(4);
        assert_eq!(t.get(AppId(0), AppId(3)), 1.0);
        assert_eq!(
            t.get(AppId(9), AppId(0)),
            1.0,
            "out of range is conservative"
        );
        assert_eq!(t.observed_pairs(), 0);
    }

    #[test]
    fn ero_keeps_maximum_and_is_symmetric() {
        let mut t = EroTable::new(4);
        t.observe(AppId(1), AppId(2), 0.4);
        t.observe(AppId(2), AppId(1), 0.6);
        t.observe(AppId(1), AppId(2), 0.5);
        assert_eq!(t.get(AppId(1), AppId(2)), 0.6);
        assert_eq!(t.get(AppId(2), AppId(1)), 0.6);
        assert_eq!(t.observed_pairs(), 1);
    }

    #[test]
    fn ero_clamps_ratio() {
        let mut t = EroTable::new(2);
        t.observe(AppId(0), AppId(1), 1.7);
        assert_eq!(t.get(AppId(0), AppId(1)), 1.0);
    }

    #[test]
    fn ct_normalization() {
        assert_eq!(normalize_ct(100, 100), 0.25);
        assert!((normalize_ct(100, 200) - 0.5).abs() < 1e-12);
        assert_eq!(normalize_ct(100, 1000), 1.0);
        assert_eq!(normalize_ct(0, 5), 0.0);
    }

    #[test]
    fn training_data_profile_source() {
        let mut profiles = vec![AppUsageProfile::default(); 3];
        profiles[1] = AppUsageProfile {
            seen: true,
            p99_usage: Resources::new(0.02, 0.01),
            max_cpu_util: 0.5,
            max_mem_util: 0.6,
            mem_cov: 0.005,
            max_qps_norm: 1.0,
        };
        profiles[2] = AppUsageProfile {
            seen: true,
            mem_cov: 0.5,
            ..profiles[1]
        };
        let td = TrainingData {
            psi: vec![],
            ct: vec![],
            ero: EroTable::new(3),
            triples: None,
            app_profiles: profiles,
        };
        assert_eq!(td.p99_usage(AppId(0)), None);
        assert_eq!(td.p99_usage(AppId(1)), Some(Resources::new(0.02, 0.01)));
        // Memory-stable app exposes its observed max; unstable app 1.0.
        assert_eq!(td.max_mem_util(AppId(1)), Some(0.6));
        assert_eq!(td.max_mem_util(AppId(2)), Some(1.0));
    }

    #[test]
    fn sample_feature_order() {
        let s = PsiSample {
            app: AppId(0),
            pod_cpu_util: 1.0,
            pod_mem_util: 2.0,
            host_cpu_util: 3.0,
            host_mem_util: 4.0,
            qps_norm: 5.0,
            psi: 0.5,
        };
        assert_eq!(s.features(), vec![1.0, 2.0, 3.0, 4.0, 5.0]);
        let c = CtSample {
            app: AppId(0),
            max_pod_cpu_util: 1.0,
            max_pod_mem_util: 2.0,
            max_host_cpu_util: 3.0,
            max_host_mem_util: 4.0,
            ct_norm: 0.1,
        };
        assert_eq!(c.features(), vec![1.0, 2.0, 3.0, 4.0]);
    }
}

/// Sparse triple-wise effective-resource-usage table — the extension
/// §4.2.2 sketches: profiling each *combination of three* applications
/// yields tighter usage predictions than pairs, at a profiling-overhead
/// cost (which is why Optum ships pairwise; this table exists for the
/// ablation).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TripleEroTable {
    vals: std::collections::HashMap<u64, f64>,
}

impl TripleEroTable {
    /// Creates an empty table.
    pub fn new() -> TripleEroTable {
        TripleEroTable::default()
    }

    /// Packs a sorted app triple into one key (21 bits per id).
    fn key(a: AppId, b: AppId, c: AppId) -> u64 {
        let mut ids = [a.0 as u64, b.0 as u64, c.0 as u64];
        ids.sort_unstable();
        (ids[0] << 42) | (ids[1] << 21) | ids[2]
    }

    /// Records an observed joint-usage ratio for a co-located triple,
    /// keeping the maximum.
    pub fn observe(&mut self, a: AppId, b: AppId, c: AppId, ratio: f64) {
        let r = ratio.clamp(0.0, 1.0);
        let e = self
            .vals
            .entry(Self::key(a, b, c))
            .or_insert(f64::NEG_INFINITY);
        if *e < r {
            *e = r;
        }
    }

    /// The effective coefficient for a triple, if ever observed.
    pub fn get(&self, a: AppId, b: AppId, c: AppId) -> Option<f64> {
        self.vals.get(&Self::key(a, b, c)).copied()
    }

    /// Count of observed triples.
    pub fn observed(&self) -> usize {
        self.vals.len()
    }
}

/// The entries as a `(key, value)` sequence in key order, so identical
/// tables always produce identical bytes (hash-map iteration order is
/// not deterministic). Hand-written for that sort, and for refusing
/// keys out of order on the way back.
impl Snap for TripleEroTable {
    fn snap(&self, w: &mut SnapWriter) {
        let mut entries: Vec<(u64, f64)> = self.vals.iter().map(|(&k, &v)| (k, v)).collect();
        entries.sort_unstable_by_key(|&(k, _)| k);
        entries.snap(w);
    }

    fn unsnap(r: &mut SnapReader<'_>) -> Result<TripleEroTable> {
        let entries = Vec::<(u64, f64)>::unsnap(r)?;
        if entries.windows(2).any(|e| e[0].0 >= e[1].0) {
            return Err(Error::InvalidData(
                "snapshot corrupt: triple ERO keys out of order".into(),
            ));
        }
        Ok(TripleEroTable {
            vals: entries.into_iter().collect(),
        })
    }
}

#[cfg(test)]
mod triple_tests {
    use super::*;

    #[test]
    fn triple_table_is_order_invariant() {
        let mut t = TripleEroTable::new();
        t.observe(AppId(3), AppId(1), AppId(2), 0.4);
        assert_eq!(t.get(AppId(1), AppId(2), AppId(3)), Some(0.4));
        assert_eq!(t.get(AppId(2), AppId(3), AppId(1)), Some(0.4));
        assert_eq!(t.get(AppId(1), AppId(2), AppId(4)), None);
        t.observe(AppId(1), AppId(2), AppId(3), 0.6);
        t.observe(AppId(1), AppId(2), AppId(3), 0.5);
        assert_eq!(t.get(AppId(3), AppId(2), AppId(1)), Some(0.6));
        assert_eq!(t.observed(), 1);
    }

    #[test]
    fn triple_clamps() {
        let mut t = TripleEroTable::new();
        t.observe(AppId(0), AppId(1), AppId(2), 2.0);
        assert_eq!(t.get(AppId(0), AppId(1), AppId(2)), Some(1.0));
    }
}
