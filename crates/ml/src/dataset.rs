//! Dataset container, train/test splitting and feature standardization.

use optum_types::{Error, Result, StdRng};

use crate::linalg::Matrix;

/// A supervised-learning dataset: a feature matrix plus a target vector
/// of matching length.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    /// Feature rows (one per sample).
    pub x: Matrix,
    /// Target values.
    pub y: Vec<f64>,
}

impl Dataset {
    /// Bundles features and targets; lengths must match.
    pub fn new(x: Matrix, y: Vec<f64>) -> Result<Dataset> {
        if x.rows() != y.len() {
            return Err(Error::InvalidData(format!(
                "{} feature rows vs {} targets",
                x.rows(),
                y.len()
            )));
        }
        Ok(Dataset { x, y })
    }

    /// Builds a dataset from `(features, target)` sample tuples.
    pub fn from_samples(samples: &[(Vec<f64>, f64)]) -> Result<Dataset> {
        let rows: Vec<Vec<f64>> = samples.iter().map(|(f, _)| f.clone()).collect();
        let y: Vec<f64> = samples.iter().map(|(_, t)| *t).collect();
        Dataset::new(Matrix::from_rows(&rows)?, y)
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.y.len()
    }

    /// True when the dataset has no samples (unreachable through the
    /// constructors, which require at least one row).
    pub fn is_empty(&self) -> bool {
        self.y.is_empty()
    }

    /// Selects a subset of samples by index (indices may repeat, as in
    /// a bootstrap resample).
    pub fn select(&self, indices: &[usize]) -> Result<Dataset> {
        if indices.is_empty() {
            return Err(Error::InvalidData("empty selection".into()));
        }
        let rows: Vec<Vec<f64>> = indices.iter().map(|&i| self.x.row(i).to_vec()).collect();
        let y: Vec<f64> = indices.iter().map(|&i| self.y[i]).collect();
        Dataset::new(Matrix::from_rows(&rows)?, y)
    }
}

/// Splits a dataset into shuffled train/test parts; `test_fraction` in
/// `(0, 1)`. Deterministic for a given seed.
pub fn train_test_split(
    data: &Dataset,
    test_fraction: f64,
    seed: u64,
) -> Result<(Dataset, Dataset)> {
    if !(0.0..1.0).contains(&test_fraction) || test_fraction == 0.0 {
        return Err(Error::InvalidConfig(
            "test_fraction must be in (0, 1)".into(),
        ));
    }
    let n = data.len();
    let n_test = ((n as f64) * test_fraction).round().max(1.0) as usize;
    if n_test >= n {
        return Err(Error::InvalidData("not enough samples to split".into()));
    }
    let mut idx: Vec<usize> = (0..n).collect();
    StdRng::seed_from_u64(seed).shuffle(&mut idx);
    let test = data.select(&idx[..n_test])?;
    let train = data.select(&idx[n_test..])?;
    Ok((train, test))
}

/// Z-score feature standardizer fitted on training data.
///
/// Gradient-based models (SVR, MLP) need standardized inputs to
/// converge; tree models do not, but standardization never hurts them.
#[derive(Debug, Clone, PartialEq)]
pub struct Standardizer {
    means: Vec<f64>,
    stds: Vec<f64>,
}

impl Standardizer {
    /// Fits per-column mean and std; constant columns get std 1 so they
    /// pass through centered.
    pub fn fit(x: &Matrix) -> Standardizer {
        let cols = x.cols();
        let n = x.rows() as f64;
        let mut means = vec![0.0; cols];
        let mut stds = vec![0.0; cols];
        for c in 0..cols {
            let col = x.col(c);
            let m = col.iter().sum::<f64>() / n;
            let var = col.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / n;
            means[c] = m;
            stds[c] = if var.sqrt() > 1e-12 { var.sqrt() } else { 1.0 };
        }
        Standardizer { means, stds }
    }

    /// Transforms a matrix column-wise.
    pub fn transform(&self, x: &Matrix) -> Matrix {
        let mut out = x.clone();
        for r in 0..x.rows() {
            for c in 0..x.cols() {
                out.set(r, c, (x.get(r, c) - self.means[c]) / self.stds[c]);
            }
        }
        out
    }

    /// Transforms one row.
    pub fn transform_row(&self, row: &[f64]) -> Vec<f64> {
        row.iter()
            .enumerate()
            .map(|(c, v)| (v - self.means[c]) / self.stds[c])
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Dataset {
        let samples: Vec<(Vec<f64>, f64)> = (0..20)
            .map(|i| (vec![i as f64, (i * i) as f64], i as f64 * 2.0))
            .collect();
        Dataset::from_samples(&samples).unwrap()
    }

    #[test]
    fn new_rejects_mismatch() {
        let x = Matrix::from_rows(&[vec![1.0], vec![2.0]]).unwrap();
        assert!(Dataset::new(x, vec![1.0]).is_err());
    }

    #[test]
    fn split_partitions_and_is_deterministic() {
        let d = toy();
        let (tr1, te1) = train_test_split(&d, 0.25, 7).unwrap();
        let (tr2, te2) = train_test_split(&d, 0.25, 7).unwrap();
        assert_eq!(tr1, tr2);
        assert_eq!(te1, te2);
        assert_eq!(tr1.len() + te1.len(), d.len());
        assert_eq!(te1.len(), 5);
        // Different seed shuffles differently.
        let (_, te3) = train_test_split(&d, 0.25, 8).unwrap();
        assert_ne!(te1, te3);
    }

    #[test]
    fn split_validates_fraction() {
        let d = toy();
        assert!(train_test_split(&d, 0.0, 1).is_err());
        assert!(train_test_split(&d, 1.0, 1).is_err());
    }

    #[test]
    fn select_supports_bootstrap_repeats() {
        let d = toy();
        let s = d.select(&[0, 0, 3]).unwrap();
        assert_eq!(s.len(), 3);
        assert_eq!(s.y, vec![0.0, 0.0, 6.0]);
        assert!(d.select(&[]).is_err());
    }

    #[test]
    fn standardizer_zero_mean_unit_std() {
        let d = toy();
        let s = Standardizer::fit(&d.x);
        let t = s.transform(&d.x);
        for c in 0..t.cols() {
            let col = t.col(c);
            let m = col.iter().sum::<f64>() / col.len() as f64;
            let var = col.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / col.len() as f64;
            assert!(m.abs() < 1e-9);
            assert!((var - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn standardizer_handles_constant_column() {
        let x = Matrix::from_rows(&[vec![5.0, 1.0], vec![5.0, 2.0]]).unwrap();
        let s = Standardizer::fit(&x);
        let t = s.transform(&x);
        assert_eq!(t.get(0, 0), 0.0);
        assert_eq!(t.get(1, 0), 0.0);
        assert_eq!(s.transform_row(&[5.0, 1.5]), vec![0.0, 0.0]);
    }
}
