//! The Offline Profiler: per-application interference models and
//! resource-usage profiles (§4.2).

use std::collections::HashMap;

use optum_ml::{
    Dataset, Discretizer, ForestParams, GradientBoost, LinearRegression, LinearSvr, Matrix,
    MlpRegressor, RandomForest, Regressor, RidgeRegression,
};
use optum_sim::{AppUsageProfile, EroTable, TrainingData};
use optum_types::{AppId, Error, Resources, Result};

pub use optum_ml::forest::ForestParams as ProfilerForestParams;

/// Regression-model families the profiler can use (compared in
/// Fig. 18; Random Forest wins and is the default).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// Random Forest (Optum's choice).
    RandomForest,
    /// Ordinary least squares.
    Linear,
    /// Ridge regression.
    Ridge,
    /// Linear ε-SVR.
    Svr,
    /// Multi-layer perceptron.
    Mlp,
    /// Gradient-boosted trees (our extension; not in the paper's
    /// comparison).
    Gbdt,
}

impl ModelKind {
    /// The paper's five families, in the order of Fig. 18's legend.
    pub const ALL: [ModelKind; 5] = [
        ModelKind::RandomForest,
        ModelKind::Svr,
        ModelKind::Linear,
        ModelKind::Mlp,
        ModelKind::Ridge,
    ];

    /// The paper's families plus this reproduction's extensions.
    pub const EXTENDED: [ModelKind; 6] = [
        ModelKind::RandomForest,
        ModelKind::Svr,
        ModelKind::Linear,
        ModelKind::Mlp,
        ModelKind::Ridge,
        ModelKind::Gbdt,
    ];

    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            ModelKind::RandomForest => "RF",
            ModelKind::Linear => "LR",
            ModelKind::Ridge => "Ridge",
            ModelKind::Svr => "SVR",
            ModelKind::Mlp => "MLP",
            ModelKind::Gbdt => "GBDT",
        }
    }

    /// Instantiates an unfitted model of this family.
    pub fn build(&self, seed: u64) -> Box<dyn Regressor + Send + Sync> {
        match self {
            ModelKind::RandomForest => Box::new(
                RandomForest::new(
                    ForestParams {
                        n_trees: 20,
                        tree: optum_ml::tree::TreeParams {
                            max_depth: 10,
                            min_samples_leaf: 3,
                            // The profiling problems have only 4–5
                            // features, all informative: subsampling them
                            // hurts far more than it decorrelates.
                            max_features: Some(8),
                        },
                    },
                    seed,
                )
                .expect("valid forest params"),
            ),
            ModelKind::Linear => Box::new(LinearRegression::new()),
            ModelKind::Ridge => Box::new(RidgeRegression::new(1.0).expect("valid lambda")),
            ModelKind::Svr => Box::new(LinearSvr::default_params(seed)),
            ModelKind::Mlp => Box::new(MlpRegressor::default_params(seed)),
            ModelKind::Gbdt => Box::new(GradientBoost::default_params(seed)),
        }
    }
}

/// Profiler training configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProfilerConfig {
    /// Minimum samples before an application gets a model.
    pub min_samples: usize,
    /// Cap on training samples per application (subsampled evenly).
    pub max_samples_per_app: usize,
    /// Held-out fraction for validation MAPE.
    pub test_fraction: f64,
    /// Target discretization buckets (§5.2 uses 25).
    pub buckets: usize,
    /// BE applications are only optimized when their validation MAPE
    /// is below this (§5.2 uses 0.2).
    pub be_mape_threshold: f64,
    /// Model family to fit.
    pub model: ModelKind,
    /// RNG seed for model fitting and splits.
    pub seed: u64,
    /// Worker threads for fanning the independent per-application fits
    /// out during [`InterferenceProfiler::train`]: `0` (the default)
    /// resolves via `OPTUM_THREADS` / available parallelism, `1` is
    /// serial. Each app's fit is seeded independently, so the trained
    /// profiler is bit-identical for every thread count. The forests
    /// themselves stay serial — parallelism lives at the app level.
    pub threads: usize,
}

impl Default for ProfilerConfig {
    fn default() -> ProfilerConfig {
        ProfilerConfig {
            min_samples: 40,
            max_samples_per_app: 1200,
            test_fraction: 0.25,
            buckets: 25,
            be_mape_threshold: 0.2,
            model: ModelKind::RandomForest,
            seed: 7,
            threads: 0,
        }
    }
}

/// A fitted per-application model plus its held-out accuracy.
struct AppModel {
    model: Box<dyn Regressor + Send + Sync>,
    mape: f64,
}

/// Evenly subsamples row indices to at most `cap`.
fn subsample_indices(n: usize, cap: usize) -> Vec<usize> {
    if n <= cap {
        return (0..n).collect();
    }
    (0..cap).map(|i| i * n / cap).collect()
}

/// Fits one model family on (features, targets), returning the fitted
/// model and its MAPE on a held-out split (targets discretized per
/// §4.2.1 before fitting).
///
/// Returns `Err` for degenerate datasets (too few samples, singular
/// fits).
pub fn fit_and_score(
    features: &[Vec<f64>],
    targets: &[f64],
    config: &ProfilerConfig,
) -> Result<(Box<dyn Regressor + Send + Sync>, f64)> {
    if features.len() != targets.len() || features.len() < config.min_samples {
        return Err(Error::InvalidData(format!(
            "need at least {} samples, have {}",
            config.min_samples,
            features.len()
        )));
    }
    let disc = Discretizer::new(0.0, 1.0, config.buckets)?;
    let x = Matrix::from_rows(features)?;
    let y: Vec<f64> = targets.iter().map(|&t| disc.discretize(t)).collect();
    let data = Dataset::new(x, y)?;
    let (train, test) = optum_ml::train_test_split(&data, config.test_fraction, config.seed)?;
    let mut model = config.model.build(config.seed);
    model.fit(&train.x, &train.y)?;
    // Predictions are discretized too: the bucket upper bound is the
    // final prediction (§4.2.1).
    let preds: Vec<f64> = model
        .predict(&test.x)
        .iter()
        .map(|&p| disc.discretize(p))
        .collect();
    let mape = optum_stats::mape(&preds, &test.y)
        .ok_or_else(|| Error::InvalidData("validation targets all zero".into()))?;
    Ok((model, mape))
}

/// One application's raw training samples: feature rows + targets.
type AppSamples = (Vec<Vec<f64>>, Vec<f64>);

/// Fits one model per application group, fanning the independent fits
/// out across `config.threads` workers. Groups are visited in sorted
/// app order (`HashMap` iteration order is not deterministic); every
/// fit draws only from its own seeded RNG, so the result is identical
/// for any thread count. Apps whose fit fails are skipped.
fn fit_groups(
    by_app: HashMap<AppId, AppSamples>,
    config: &ProfilerConfig,
) -> HashMap<AppId, AppModel> {
    let mut groups: Vec<(AppId, AppSamples)> = by_app.into_iter().collect();
    groups.sort_by_key(|(app, _)| app.0);
    optum_parallel::parallel_map_threads(config.threads, &groups, |_, (app, (feats, targets))| {
        let idx = subsample_indices(feats.len(), config.max_samples_per_app);
        let f: Vec<Vec<f64>> = idx.iter().map(|&i| feats[i].clone()).collect();
        let t: Vec<f64> = idx.iter().map(|&i| targets[i]).collect();
        fit_and_score(&f, &t, config)
            .ok()
            .map(|(model, mape)| (*app, AppModel { model, mape }))
    })
    .into_iter()
    .flatten()
    .collect()
}

/// The Interference Profiler (❷): builds one performance model per
/// application — PSI for latency-sensitive services (Eq. 1),
/// normalized completion time for best-effort applications (Eq. 2).
pub struct InterferenceProfiler {
    config: ProfilerConfig,
    discretizer: Discretizer,
    ls_models: HashMap<AppId, AppModel>,
    be_models: HashMap<AppId, AppModel>,
}

impl InterferenceProfiler {
    /// Trains per-application models from the profiling dataset.
    ///
    /// Applications with too few samples, or whose fit fails, simply
    /// get no model (the scheduler treats them as zero interference
    /// contribution, exactly like the paper which only optimizes the
    /// BE applications it can predict accurately).
    pub fn train(data: &TrainingData, config: ProfilerConfig) -> Result<InterferenceProfiler> {
        let discretizer = Discretizer::new(0.0, 1.0, config.buckets)?;
        let mut by_app_ls: HashMap<AppId, (Vec<Vec<f64>>, Vec<f64>)> = HashMap::new();
        for s in &data.psi {
            let entry = by_app_ls.entry(s.app).or_default();
            entry.0.push(s.features());
            entry.1.push(s.psi);
        }
        let mut by_app_be: HashMap<AppId, (Vec<Vec<f64>>, Vec<f64>)> = HashMap::new();
        for s in &data.ct {
            let entry = by_app_be.entry(s.app).or_default();
            entry.0.push(s.features());
            entry.1.push(s.ct_norm);
        }

        let ls_models = fit_groups(by_app_ls, &config);
        let be_models = fit_groups(by_app_be, &config);
        Ok(InterferenceProfiler {
            config,
            discretizer,
            ls_models,
            be_models,
        })
    }

    /// Predicted PSI for an LS application under the given conditions
    /// (Eq. 9 inputs); `None` when the app has no model.
    pub fn predict_psi(
        &self,
        app: AppId,
        max_pod_cpu_util: f64,
        max_pod_mem_util: f64,
        host_cpu_util: f64,
        host_mem_util: f64,
        max_qps_norm: f64,
    ) -> Option<f64> {
        let m = self.ls_models.get(&app)?;
        let raw = m.model.predict_row(&[
            max_pod_cpu_util,
            max_pod_mem_util,
            host_cpu_util,
            host_mem_util,
            max_qps_norm,
        ]);
        Some(self.bucketize(raw))
    }

    /// Raw (continuous) PSI prediction, for the Eq. 11 score, where
    /// bucket edges would create count-amplified score cliffs; `None`
    /// when the app has no model.
    pub fn predict_psi_raw(
        &self,
        app: AppId,
        max_pod_cpu_util: f64,
        max_pod_mem_util: f64,
        host_cpu_util: f64,
        host_mem_util: f64,
        max_qps_norm: f64,
    ) -> Option<f64> {
        let m = self.ls_models.get(&app)?;
        let raw = m.model.predict_row(&[
            max_pod_cpu_util,
            max_pod_mem_util,
            host_cpu_util,
            host_mem_util,
            max_qps_norm,
        ]);
        Some(raw.clamp(0.0, 1.0))
    }

    /// Predicted normalized completion time for a BE application
    /// (Eq. 10 inputs); `None` when the app has no model *or* its
    /// validation MAPE exceeds the threshold (§5.2: Optum only
    /// optimizes BE applications it can predict accurately).
    pub fn predict_ct(
        &self,
        app: AppId,
        max_pod_cpu_util: f64,
        max_pod_mem_util: f64,
        host_cpu_util: f64,
        host_mem_util: f64,
    ) -> Option<f64> {
        let m = self.be_models.get(&app)?;
        if m.mape > self.config.be_mape_threshold {
            return None;
        }
        let raw = m.model.predict_row(&[
            max_pod_cpu_util,
            max_pod_mem_util,
            host_cpu_util,
            host_mem_util,
        ]);
        Some(self.bucketize(raw))
    }

    /// Raw (continuous) completion-time prediction, for the Eq. 11
    /// score; `None` when unmodeled or insufficiently accurate.
    pub fn predict_ct_raw(
        &self,
        app: AppId,
        max_pod_cpu_util: f64,
        max_pod_mem_util: f64,
        host_cpu_util: f64,
        host_mem_util: f64,
    ) -> Option<f64> {
        let m = self.be_models.get(&app)?;
        if m.mape > self.config.be_mape_threshold {
            return None;
        }
        let raw = m.model.predict_row(&[
            max_pod_cpu_util,
            max_pod_mem_util,
            host_cpu_util,
            host_mem_util,
        ]);
        Some(raw.clamp(0.0, 1.0))
    }

    /// Discretizes a raw prediction to its bucket upper bound, except
    /// that the lowest bucket reads as zero: Eq. 11 sums predicted
    /// interference over every resident pod, and a non-zero floor
    /// would penalize hosts by pod count rather than by pressure.
    fn bucketize(&self, raw: f64) -> f64 {
        let width = 1.0 / self.config.buckets as f64;
        if raw <= width {
            0.0
        } else {
            self.discretizer.discretize(raw)
        }
    }

    /// Validation MAPE per LS application.
    pub fn ls_mapes(&self) -> Vec<(AppId, f64)> {
        self.ls_models.iter().map(|(a, m)| (*a, m.mape)).collect()
    }

    /// Validation MAPE per BE application.
    pub fn be_mapes(&self) -> Vec<(AppId, f64)> {
        self.be_models.iter().map(|(a, m)| (*a, m.mape)).collect()
    }

    /// Number of modeled (LS, BE) applications.
    pub fn model_counts(&self) -> (usize, usize) {
        (self.ls_models.len(), self.be_models.len())
    }
}

/// The Resource Usage Profiler (❸): the pairwise ERO table plus
/// per-application usage profiles, packaged as the
/// [`optum_predictors::ProfileSource`] the Optum predictor consumes.
pub struct ResourceUsageProfiler {
    ero: EroTable,
    triples: Option<optum_sim::TripleEroTable>,
    profiles: Vec<AppUsageProfile>,
}

impl ResourceUsageProfiler {
    /// Extracts the usage profiles from a profiling dataset.
    pub fn from_training(data: &TrainingData) -> ResourceUsageProfiler {
        ResourceUsageProfiler {
            ero: data.ero.clone(),
            triples: data.triples.clone(),
            profiles: data.app_profiles.clone(),
        }
    }

    /// Profile of one application.
    pub fn profile(&self, app: AppId) -> Option<&AppUsageProfile> {
        self.profiles.get(app.index())
    }

    /// The ERO table.
    pub fn ero_table(&self) -> &EroTable {
        &self.ero
    }
}

impl optum_predictors::ProfileSource for ResourceUsageProfiler {
    fn p99_usage(&self, app: AppId) -> Option<Resources> {
        let p = self.profiles.get(app.index())?;
        if p.seen {
            Some(p.p99_usage)
        } else {
            None
        }
    }

    fn max_mem_util(&self, app: AppId) -> Option<f64> {
        let p = self.profiles.get(app.index())?;
        if !p.seen {
            return None;
        }
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

/// Deterministic health view over the trained profilers.
///
/// Chaos marks the [`InterferenceProfiler`] / [`ResourceUsageProfiler`]
/// pair faulty or stale for windows of ticks
/// ([`optum_chaos::generate_outages`]); the scheduler probes this view
/// once per tick and trips its circuit breaker while the predictors
/// are down. The profilers themselves are shared immutably across
/// scheduler replicas, so health is tracked *beside* them rather than
/// inside: every replica sees the same plan and flips at the same
/// tick.
#[derive(Debug, Clone, Default)]
pub struct PredictorHealth {
    /// Sorted, disjoint outage windows.
    outages: Vec<optum_chaos::OutageWindow>,
    /// First window that could still cover the current tick (ticks are
    /// probed in order, so scanning never restarts).
    cursor: usize,
}

impl PredictorHealth {
    /// Always-healthy predictors (no chaos).
    pub fn healthy() -> PredictorHealth {
        PredictorHealth::default()
    }

    /// Health driven by a sorted outage plan.
    pub fn from_plan(outages: Vec<optum_chaos::OutageWindow>) -> PredictorHealth {
        PredictorHealth { outages, cursor: 0 }
    }

    /// True when any outage is planned at all.
    pub fn has_outages(&self) -> bool {
        !self.outages.is_empty()
    }

    /// Probes predictor health at a tick. Ticks must be probed in
    /// non-decreasing order (the scheduler probes once per tick).
    pub fn healthy_at(&mut self, t: optum_types::Tick) -> bool {
        while self.outages.get(self.cursor).is_some_and(|w| w.end <= t) {
            self.cursor += 1;
        }
        !self.outages.get(self.cursor).is_some_and(|w| w.contains(t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use optum_sim::{CtSample, PsiSample};
    use optum_trace::hash_noise;

    /// Builds a synthetic dataset whose PSI follows a threshold
    /// nonlinearity in host utilization (like the real physics).
    fn synthetic_training(n_apps: usize, samples_per_app: usize) -> TrainingData {
        let mut psi = Vec::new();
        let mut ct = Vec::new();
        for app in 0..n_apps {
            for i in 0..samples_per_app {
                let u = hash_noise(1, app as u64, i as u64);
                let host = hash_noise(2, app as u64, i as u64);
                let qps = hash_noise(3, app as u64, i as u64);
                let target = (0.8 * (host - 0.6).max(0.0) * (0.3 + 0.7 * u) * (0.4 + 0.6 * qps))
                    .clamp(0.0, 1.0);
                // Vary every feature independently (constant or
                // collinear columns would be singular for the
                // closed-form linear models).
                let jitter = hash_noise(4, app as u64, i as u64);
                let jitter2 = hash_noise(6, app as u64, i as u64);
                psi.push(PsiSample {
                    app: AppId(app as u32),
                    pod_cpu_util: u,
                    pod_mem_util: 0.4 + 0.2 * jitter,
                    host_cpu_util: host,
                    host_mem_util: 0.3 + 0.2 * jitter2,
                    qps_norm: qps,
                    psi: target,
                });
                let ct_target = (0.5 * (host - 0.5).max(0.0)).clamp(0.0, 1.0);
                ct.push(CtSample {
                    app: AppId(app as u32),
                    max_pod_cpu_util: u,
                    max_pod_mem_util: 0.8 + 0.1 * jitter,
                    max_host_cpu_util: host,
                    max_host_mem_util: 0.3 + 0.2 * jitter2,
                    ct_norm: ct_target,
                });
            }
        }
        TrainingData {
            psi,
            ct,
            ero: EroTable::new(n_apps),
            triples: None,
            app_profiles: vec![AppUsageProfile::default(); n_apps],
        }
    }

    #[test]
    fn trains_models_and_predicts_monotonically() {
        let data = synthetic_training(2, 400);
        let profiler = InterferenceProfiler::train(&data, ProfilerConfig::default()).unwrap();
        let (ls, be) = profiler.model_counts();
        assert_eq!(ls, 2);
        assert_eq!(be, 2);
        let low = profiler
            .predict_psi(AppId(0), 0.5, 0.5, 0.2, 0.4, 0.8)
            .unwrap();
        let high = profiler
            .predict_psi(AppId(0), 0.5, 0.5, 0.95, 0.4, 0.8)
            .unwrap();
        assert!(high > low, "psi must rise with host util: {low} -> {high}");
    }

    #[test]
    fn rf_validation_mape_is_reasonable() {
        let data = synthetic_training(1, 600);
        let profiler = InterferenceProfiler::train(&data, ProfilerConfig::default()).unwrap();
        let mapes = profiler.ls_mapes();
        assert_eq!(mapes.len(), 1);
        assert!(mapes[0].1 < 0.6, "LS MAPE {}", mapes[0].1);
    }

    #[test]
    fn unknown_app_has_no_model() {
        let data = synthetic_training(1, 200);
        let profiler = InterferenceProfiler::train(&data, ProfilerConfig::default()).unwrap();
        assert!(profiler
            .predict_psi(AppId(9), 0.5, 0.5, 0.5, 0.5, 0.5)
            .is_none());
        assert!(profiler.predict_ct(AppId(9), 0.5, 0.5, 0.5, 0.5).is_none());
    }

    #[test]
    fn too_few_samples_is_skipped_not_fatal() {
        let data = synthetic_training(1, 10);
        let profiler = InterferenceProfiler::train(&data, ProfilerConfig::default()).unwrap();
        assert_eq!(profiler.model_counts(), (0, 0));
    }

    #[test]
    fn model_kinds_all_fit() {
        let data = synthetic_training(1, 300);
        for kind in ModelKind::ALL {
            let cfg = ProfilerConfig {
                model: kind,
                ..ProfilerConfig::default()
            };
            let p = InterferenceProfiler::train(&data, cfg).unwrap();
            assert_eq!(p.model_counts().0, 1, "{} failed to fit", kind.label());
        }
    }

    #[test]
    fn fit_and_score_rejects_tiny_datasets() {
        let cfg = ProfilerConfig::default();
        let feats = vec![vec![0.0]; 5];
        let targets = vec![0.1; 5];
        assert!(fit_and_score(&feats, &targets, &cfg).is_err());
    }

    #[test]
    fn subsample_even() {
        assert_eq!(subsample_indices(4, 10), vec![0, 1, 2, 3]);
        let idx = subsample_indices(100, 10);
        assert_eq!(idx.len(), 10);
        assert_eq!(idx[0], 0);
        assert!(idx.windows(2).all(|w| w[1] > w[0]));
    }

    #[test]
    fn usage_profiler_wraps_training_data() {
        use optum_predictors::ProfileSource;
        let mut data = synthetic_training(2, 50);
        data.app_profiles[0] = AppUsageProfile {
            seen: true,
            p99_usage: Resources::new(0.02, 0.01),
            max_cpu_util: 0.4,
            max_mem_util: 0.7,
            mem_cov: 0.001,
            max_qps_norm: 0.9,
        };
        data.ero.observe(AppId(0), AppId(1), 0.35);
        let rup = ResourceUsageProfiler::from_training(&data);
        assert_eq!(rup.p99_usage(AppId(0)), Some(Resources::new(0.02, 0.01)));
        assert_eq!(rup.max_mem_util(AppId(0)), Some(0.7));
        assert_eq!(rup.ero(AppId(0), AppId(1)), 0.35);
        assert_eq!(rup.p99_usage(AppId(1)), None);
    }
}
