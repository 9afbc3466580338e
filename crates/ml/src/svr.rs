//! Linear ε-insensitive support vector regression trained by
//! stochastic gradient descent.
//!
//! Minimizes the L2-loss SVR primal
//! `λ/2‖w‖² + (1/n)Σ max(0, |wᵀxᵢ + b − yᵢ| − ε)²`
//! (the smooth variant solved by LIBLINEAR's `-s 11`), whose gradient is
//! proportional to the tube-exceeding error and therefore converges at
//! least-squares speed. Inputs are standardized internally so the
//! step-size schedule is scale-free.

use optum_types::{Error, Result, StdRng};

use crate::dataset::Standardizer;
use crate::linalg::Matrix;
use crate::Regressor;

/// Hyper-parameters and learned state of a linear SVR.
#[derive(Debug, Clone, PartialEq)]
pub struct LinearSvr {
    epsilon: f64,
    lambda: f64,
    epochs: usize,
    seed: u64,
    weights: Vec<f64>,
    bias: f64,
    scaler: Option<Standardizer>,
}

impl LinearSvr {
    /// Creates an unfitted SVR.
    ///
    /// * `epsilon` — insensitivity tube half-width (≥ 0).
    /// * `lambda` — L2 regularization strength (> 0).
    /// * `epochs` — passes over the shuffled training data.
    pub fn new(epsilon: f64, lambda: f64, epochs: usize, seed: u64) -> Result<LinearSvr> {
        if epsilon < 0.0 || lambda <= 0.0 || epochs == 0 {
            return Err(Error::InvalidConfig(
                "need epsilon >= 0, lambda > 0, epochs > 0".into(),
            ));
        }
        Ok(LinearSvr {
            epsilon,
            lambda,
            epochs,
            seed,
            weights: Vec::new(),
            bias: 0.0,
            scaler: None,
        })
    }

    /// Defaults that work well on the profiling feature scales.
    pub fn default_params(seed: u64) -> LinearSvr {
        LinearSvr::new(0.01, 1e-4, 60, seed).expect("default parameters are valid")
    }

    fn raw_predict(&self, row: &[f64]) -> f64 {
        let mut acc = self.bias;
        for (w, v) in self.weights.iter().zip(row) {
            acc += w * v;
        }
        acc
    }
}

impl Regressor for LinearSvr {
    fn fit(&mut self, x: &Matrix, y: &[f64]) -> Result<()> {
        if x.rows() != y.len() {
            return Err(Error::InvalidData("feature/target length mismatch".into()));
        }
        let scaler = Standardizer::fit(x);
        let xs = scaler.transform(x);
        let n = xs.rows();
        let d = xs.cols();
        self.weights = vec![0.0; d];
        self.bias = y.iter().sum::<f64>() / n as f64;
        let mut order: Vec<usize> = (0..n).collect();
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut step_count = 0usize;
        for _ in 0..self.epochs {
            rng.shuffle(&mut order);
            for &i in &order {
                step_count += 1;
                // Decaying step size; the 1e-3 decay constant reaches a
                // ~50x reduction by the end of a typical run.
                let eta = 0.05 / (1.0 + 1e-3 * step_count as f64);
                let row = xs.row(i);
                let err = self.raw_predict(row) - y[i];
                // Gradient of the squared epsilon-insensitive loss:
                // zero inside the tube, proportional outside.
                let g = if err > self.epsilon {
                    err - self.epsilon
                } else if err < -self.epsilon {
                    err + self.epsilon
                } else {
                    0.0
                };
                for (w, v) in self.weights.iter_mut().zip(row) {
                    *w -= eta * (self.lambda * *w + g * v);
                }
                self.bias -= eta * g;
            }
        }
        self.scaler = Some(scaler);
        Ok(())
    }

    fn predict_row(&self, row: &[f64]) -> f64 {
        let scaler = self.scaler.as_ref().expect("fit before predict");
        self.raw_predict(&scaler.transform_row(row))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validates_params() {
        assert!(LinearSvr::new(-0.1, 1.0, 10, 0).is_err());
        assert!(LinearSvr::new(0.1, 0.0, 10, 0).is_err());
        assert!(LinearSvr::new(0.1, 1.0, 0, 0).is_err());
    }

    #[test]
    fn fits_linear_relationship() {
        let rows: Vec<Vec<f64>> = (0..60).map(|i| vec![i as f64 / 10.0]).collect();
        let y: Vec<f64> = rows.iter().map(|r| 2.0 * r[0] + 1.0).collect();
        let x = Matrix::from_rows(&rows).unwrap();
        let mut svr = LinearSvr::new(0.01, 1e-5, 120, 3).unwrap();
        svr.fit(&x, &y).unwrap();
        for probe in [0.5, 2.0, 4.0] {
            let pred = svr.predict_row(&[probe]);
            assert!(
                (pred - (2.0 * probe + 1.0)).abs() < 0.25,
                "probe {probe}: got {pred}"
            );
        }
    }

    #[test]
    fn tube_ignores_small_deviations() {
        // All targets within the epsilon tube of their mean: the loss
        // gradient is zero everywhere, so the model never moves off its
        // mean-bias initialization.
        let rows: Vec<Vec<f64>> = (0..40).map(|i| vec![(i % 7) as f64]).collect();
        let y: Vec<f64> = (0..40)
            .map(|i| 5.0 + 0.04 * ((i % 3) as f64 - 1.0))
            .collect();
        let x = Matrix::from_rows(&rows).unwrap();
        let mut svr = LinearSvr::new(0.1, 1e-4, 80, 1).unwrap();
        svr.fit(&x, &y).unwrap();
        let mean = y.iter().sum::<f64>() / y.len() as f64;
        for probe in [0.0, 3.0, 6.0] {
            let pred = svr.predict_row(&[probe]);
            assert!((pred - mean).abs() < 1e-9, "probe {probe}: got {pred}");
        }
    }

    #[test]
    fn deterministic_for_seed() {
        let rows: Vec<Vec<f64>> = (0..30).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = (0..30).map(|i| i as f64 * 0.5).collect();
        let x = Matrix::from_rows(&rows).unwrap();
        let mut a = LinearSvr::default_params(9);
        let mut b = LinearSvr::default_params(9);
        a.fit(&x, &y).unwrap();
        b.fit(&x, &y).unwrap();
        assert_eq!(a.predict_row(&[13.0]), b.predict_row(&[13.0]));
    }

    #[test]
    fn length_mismatch_rejected() {
        let x = Matrix::from_rows(&[vec![1.0]]).unwrap();
        let mut svr = LinearSvr::default_params(0);
        assert!(svr.fit(&x, &[1.0, 2.0]).is_err());
    }
}
