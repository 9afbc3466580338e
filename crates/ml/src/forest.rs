//! Random-Forest regressor: bagged CART trees with per-split feature
//! subsampling.
//!
//! The model the paper's Interference Profiler adopts after comparing
//! five regressors (§4.2.1, Fig. 18).

use optum_types::{Error, Result, StdRng};

use crate::linalg::Matrix;
use crate::tree::{DecisionTree, TreeParams};
use crate::Regressor;

/// Tuning knobs for a random forest.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ForestParams {
    /// Number of trees.
    pub n_trees: usize,
    /// Per-tree parameters; `max_features` of `None` is replaced by
    /// `ceil(d / 3)` (the regression heuristic) at fit time.
    pub tree: TreeParams,
}

impl Default for ForestParams {
    fn default() -> ForestParams {
        ForestParams {
            n_trees: 30,
            tree: TreeParams {
                max_depth: 10,
                min_samples_leaf: 2,
                max_features: None,
            },
        }
    }
}

/// A bagging ensemble of regression trees.
///
/// # Examples
///
/// ```
/// use optum_ml::{Matrix, RandomForest, Regressor};
///
/// let rows: Vec<Vec<f64>> = (0..30).map(|i| vec![i as f64]).collect();
/// let y: Vec<f64> = (0..30).map(|i| if i < 15 { 0.0 } else { 1.0 }).collect();
/// let x = Matrix::from_rows(&rows).unwrap();
/// let mut rf = RandomForest::default_params(7);
/// rf.fit(&x, &y).unwrap();
/// assert!(rf.predict_row(&[3.0]) < 0.3);
/// assert!(rf.predict_row(&[25.0]) > 0.7);
/// ```
#[derive(Debug, Clone)]
pub struct RandomForest {
    params: ForestParams,
    seed: u64,
    threads: usize,
    inv_tree_count: f64,
    trees: Vec<DecisionTree>,
}

/// Model equality: parameters, seed, and fitted trees. The execution
/// config (`threads`) is deliberately excluded — the same model fitted
/// with different worker counts is the same model.
impl PartialEq for RandomForest {
    fn eq(&self, other: &RandomForest) -> bool {
        self.params == other.params
            && self.seed == other.seed
            && self.inv_tree_count == other.inv_tree_count
            && self.trees == other.trees
    }
}

impl RandomForest {
    /// Creates an unfitted forest. Training and batch prediction run
    /// serially by default; see [`RandomForest::set_threads`].
    pub fn new(params: ForestParams, seed: u64) -> Result<RandomForest> {
        if params.n_trees == 0 {
            return Err(Error::InvalidConfig("n_trees must be > 0".into()));
        }
        // Validate tree params early by constructing a probe tree.
        DecisionTree::new(params.tree, 0)?;
        Ok(RandomForest {
            params,
            seed,
            threads: 1,
            inv_tree_count: 0.0,
            trees: Vec::new(),
        })
    }

    /// Creates a forest with [`ForestParams::default`].
    pub fn default_params(seed: u64) -> RandomForest {
        RandomForest::new(ForestParams::default(), seed).expect("defaults are valid")
    }

    /// Sets the worker-thread count for [`Regressor::fit`] and
    /// [`RandomForest::predict_matrix`]: `1` is serial (the default),
    /// `0` resolves to `OPTUM_THREADS` / the machine's parallelism,
    /// any other value is taken literally. The fitted model and its
    /// predictions are bit-identical for every thread count.
    pub fn set_threads(&mut self, threads: usize) {
        self.threads = threads;
    }

    /// Builder-style [`RandomForest::set_threads`].
    pub fn with_threads(mut self, threads: usize) -> RandomForest {
        self.set_threads(threads);
        self
    }

    /// Configured worker-thread count (`0` = auto).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Number of fitted trees.
    pub fn tree_count(&self) -> usize {
        self.trees.len()
    }

    /// Predicts every row of `x`, with the fitted check hoisted out of
    /// the per-row loop and rows fanned out across the configured
    /// worker threads. Output order always matches row order.
    pub fn predict_matrix(&self, x: &Matrix) -> Vec<f64> {
        let mut out = Vec::new();
        self.predict_into(x, &mut out);
        out
    }

    /// Batched prediction into a caller-owned buffer, the allocation-
    /// free core of [`RandomForest::predict_matrix`]: `out` is resized
    /// to `x.rows()` and overwritten, so one scratch vector can be
    /// reused across calls. Rows are accumulated tree-outer — every
    /// row walks one tree's contiguous node arrays while they are hot
    /// in cache — which adds each row's tree predictions in forest
    /// order, exactly the per-row `sum()` order, so results are
    /// bit-identical to [`Regressor::predict_row`] per row for any
    /// thread count.
    pub fn predict_into(&self, x: &Matrix, out: &mut Vec<f64>) {
        let _predict = optum_obs::span!("ml.forest.predict");
        assert!(!self.trees.is_empty(), "fit before predict");
        let n = x.rows();
        out.clear();
        out.resize(n, 0.0);
        let threads = optum_parallel::resolve_threads(self.threads).min(n.max(1));
        if threads <= 1 || n <= 1 {
            Self::predict_range(&self.trees, self.inv_tree_count, x, 0, out);
            return;
        }
        // Contiguous row chunks, one per worker; chunk outputs are
        // copied back in row order, so the result is chunk-invariant.
        let chunk = n.div_ceil(threads);
        let ranges: Vec<(usize, usize)> = (0..threads)
            .map(|t| (t * chunk, ((t + 1) * chunk).min(n)))
            .filter(|(lo, hi)| lo < hi)
            .collect();
        let parts = optum_parallel::parallel_map_threads(threads, &ranges, |_, &(lo, hi)| {
            let mut part = vec![0.0; hi - lo];
            Self::predict_range(&self.trees, self.inv_tree_count, x, lo, &mut part);
            part
        });
        for (&(lo, hi), part) in ranges.iter().zip(parts) {
            out[lo..hi].copy_from_slice(&part);
        }
    }

    /// Tree-outer prediction of rows `lo..lo + out.len()` of `x`.
    fn predict_range(trees: &[DecisionTree], inv: f64, x: &Matrix, lo: usize, out: &mut [f64]) {
        for t in trees {
            for (k, acc) in out.iter_mut().enumerate() {
                *acc += t.predict_row(x.row(lo + k));
            }
        }
        for acc in out.iter_mut() {
            *acc *= inv;
        }
    }
}

impl Regressor for RandomForest {
    fn fit(&mut self, x: &Matrix, y: &[f64]) -> Result<()> {
        let _fit = optum_obs::span!("ml.forest.fit");
        if x.rows() != y.len() {
            return Err(Error::InvalidData("feature/target length mismatch".into()));
        }
        let n = x.rows();
        if n == 0 {
            return Err(Error::InvalidData("empty training set".into()));
        }
        let d = x.cols();
        let mut tree_params = self.params.tree;
        if tree_params.max_features.is_none() {
            tree_params.max_features = Some((d / 3).max(1));
        }
        // Draw every bootstrap sample from the master RNG in tree
        // order before fanning out, so the stream consumed is exactly
        // the serial loop's and the fitted forest is bit-identical for
        // any thread count. Trees then fit on index views of `x`
        // instead of copied bootstrap matrices.
        let mut rng = StdRng::seed_from_u64(self.seed);
        let samples: Vec<Vec<usize>> = (0..self.params.n_trees)
            .map(|_| (0..n).map(|_| rng.gen_range(0..n)).collect())
            .collect();
        let seed = self.seed;
        let fitted = optum_parallel::parallel_map_threads(self.threads, &samples, |t, indices| {
            let mut tree = DecisionTree::new(tree_params, seed.wrapping_add(t as u64 + 1))?;
            tree.fit_sample(x, y, indices)?;
            Ok(tree)
        });
        self.trees = fitted.into_iter().collect::<Result<Vec<DecisionTree>>>()?;
        self.inv_tree_count = 1.0 / self.trees.len() as f64;
        Ok(())
    }

    fn predict_row(&self, row: &[f64]) -> f64 {
        assert!(!self.trees.is_empty(), "fit before predict");
        self.trees.iter().map(|t| t.predict_row(row)).sum::<f64>() * self.inv_tree_count
    }

    fn predict(&self, x: &Matrix) -> Vec<f64> {
        self.predict_matrix(x)
    }

    fn predict_into(&self, x: &Matrix, out: &mut Vec<f64>) {
        RandomForest::predict_into(self, x, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::r2_score;

    #[test]
    fn validates_params() {
        let bad = ForestParams {
            n_trees: 0,
            ..ForestParams::default()
        };
        assert!(RandomForest::new(bad, 0).is_err());
    }

    #[test]
    fn deterministic_for_seed() {
        let rows: Vec<Vec<f64>> = (0..40).map(|i| vec![i as f64, (i % 3) as f64]).collect();
        let y: Vec<f64> = (0..40).map(|i| (i % 3) as f64 * 4.0).collect();
        let x = Matrix::from_rows(&rows).unwrap();
        let mut a = RandomForest::default_params(5);
        let mut b = RandomForest::default_params(5);
        a.fit(&x, &y).unwrap();
        b.fit(&x, &y).unwrap();
        assert_eq!(a.predict_row(&[10.0, 1.0]), b.predict_row(&[10.0, 1.0]));
        assert_eq!(a.tree_count(), 30);
    }

    #[test]
    fn beats_single_tree_on_nonlinear_noisy_target() {
        let mut rng = StdRng::seed_from_u64(99);
        let mut rows = Vec::new();
        let mut y = Vec::new();
        // Nonlinear target with noise: y = sin-ish threshold interaction.
        for _ in 0..300 {
            let a = rng.gen_range(0.0..1.0);
            let b = rng.gen_range(0.0..1.0);
            let noise = rng.gen_range(-0.05..0.05);
            rows.push(vec![a, b]);
            y.push(((a - 0.5).max(0.0) * 2.0 + (b * 3.0).sin().abs() * 0.5 + noise).max(0.01));
        }
        let split = 250;
        let train_rows: Vec<Vec<f64>> = rows[..split].to_vec();
        let train_x = Matrix::from_rows(&train_rows).unwrap();
        let mut rf = RandomForest::default_params(1);
        rf.fit(&train_x, &y[..split]).unwrap();
        let preds: Vec<f64> = rows[split..].iter().map(|r| rf.predict_row(r)).collect();
        let r2 = r2_score(&preds, &y[split..]).unwrap();
        assert!(r2 > 0.6, "forest R2 {r2}");
    }

    #[test]
    fn parallel_fit_matches_serial_bitwise() {
        let rows: Vec<Vec<f64>> = (0..60)
            .map(|i| vec![i as f64, (i % 7) as f64, (i % 3) as f64])
            .collect();
        let y: Vec<f64> = (0..60).map(|i| ((i % 7) * (i % 3)) as f64).collect();
        let x = Matrix::from_rows(&rows).unwrap();
        let mut serial = RandomForest::default_params(11);
        serial.fit(&x, &y).unwrap();
        for threads in [2, 4, 8] {
            let mut par = RandomForest::default_params(11).with_threads(threads);
            par.fit(&x, &y).unwrap();
            assert_eq!(serial, par, "threads={threads}");
            for r in rows.iter() {
                assert_eq!(
                    serial.predict_row(r).to_bits(),
                    par.predict_row(r).to_bits()
                );
            }
        }
    }

    #[test]
    fn predict_matrix_matches_per_row() {
        let rows: Vec<Vec<f64>> = (0..50).map(|i| vec![i as f64, (i % 5) as f64]).collect();
        let y: Vec<f64> = (0..50).map(|i| (i % 5) as f64).collect();
        let x = Matrix::from_rows(&rows).unwrap();
        let mut rf = RandomForest::default_params(2).with_threads(4);
        rf.fit(&x, &y).unwrap();
        let batch = rf.predict_matrix(&x);
        let single: Vec<f64> = (0..x.rows()).map(|i| rf.predict_row(x.row(i))).collect();
        assert_eq!(batch, single);
        assert_eq!(Regressor::predict(&rf, &x), batch);
    }

    #[test]
    fn predict_into_reuses_buffer_across_thread_counts() {
        let rows: Vec<Vec<f64>> = (0..37).map(|i| vec![i as f64, (i % 4) as f64]).collect();
        let y: Vec<f64> = (0..37).map(|i| (i % 4) as f64).collect();
        let x = Matrix::from_rows(&rows).unwrap();
        let mut rf = RandomForest::default_params(6);
        rf.fit(&x, &y).unwrap();
        let serial: Vec<f64> = (0..x.rows()).map(|i| rf.predict_row(x.row(i))).collect();
        // One scratch buffer reused across calls, stale contents and
        // wrong length included.
        let mut buf = vec![f64::NAN; 3];
        for threads in [1, 2, 4, 8] {
            rf.set_threads(threads);
            rf.predict_into(&x, &mut buf);
            assert_eq!(buf.len(), x.rows());
            for (a, b) in buf.iter().zip(&serial) {
                assert_eq!(a.to_bits(), b.to_bits(), "threads={threads}");
            }
        }
    }

    #[test]
    fn averaging_smooths_predictions() {
        // Forest output is an average, so it lies within tree outputs' range.
        let rows: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = (0..20).map(|i| i as f64).collect();
        let x = Matrix::from_rows(&rows).unwrap();
        let mut rf = RandomForest::default_params(3);
        rf.fit(&x, &y).unwrap();
        let p = rf.predict_row(&[10.0]);
        assert!((0.0..=19.0).contains(&p));
    }
}
