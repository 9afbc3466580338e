//! Multi-layer perceptron regressor trained by mini-batch SGD.
//!
//! One ReLU hidden layer with He initialization and a linear output;
//! inputs are standardized internally. Matches the "MLP Regressor"
//! baseline of Fig. 18.

use optum_stats::Normal;
use optum_types::{Error, Result, StdRng};

use crate::dataset::Standardizer;
use crate::linalg::Matrix;
use crate::Regressor;

/// A one-hidden-layer MLP regressor.
#[derive(Debug, Clone, PartialEq)]
pub struct MlpRegressor {
    hidden: usize,
    lr: f64,
    epochs: usize,
    batch: usize,
    seed: u64,
    // Learned parameters: w1 is hidden×input, b1 hidden, w2 hidden, b2 scalar.
    w1: Vec<Vec<f64>>,
    b1: Vec<f64>,
    w2: Vec<f64>,
    b2: f64,
    scaler: Option<Standardizer>,
    target_mean: f64,
    target_std: f64,
}

impl MlpRegressor {
    /// Creates an unfitted MLP.
    pub fn new(hidden: usize, lr: f64, epochs: usize, batch: usize, seed: u64) -> Result<Self> {
        if hidden == 0 || lr <= 0.0 || epochs == 0 || batch == 0 {
            return Err(Error::InvalidConfig(
                "need hidden > 0, lr > 0, epochs > 0, batch > 0".into(),
            ));
        }
        Ok(MlpRegressor {
            hidden,
            lr,
            epochs,
            batch,
            seed,
            w1: Vec::new(),
            b1: Vec::new(),
            w2: Vec::new(),
            b2: 0.0,
            scaler: None,
            target_mean: 0.0,
            target_std: 1.0,
        })
    }

    /// Defaults sized for the 4–5 feature profiling problems.
    pub fn default_params(seed: u64) -> MlpRegressor {
        MlpRegressor::new(16, 0.01, 80, 16, seed).expect("default parameters are valid")
    }

    /// Forward pass on a standardized row, returning (hidden
    /// activations, standardized output).
    fn forward(&self, row: &[f64]) -> (Vec<f64>, f64) {
        let h: Vec<f64> = self
            .w1
            .iter()
            .zip(&self.b1)
            .map(|(w, b)| {
                let z: f64 = w.iter().zip(row).map(|(wi, xi)| wi * xi).sum::<f64>() + b;
                z.max(0.0)
            })
            .collect();
        let out = self.w2.iter().zip(&h).map(|(w, a)| w * a).sum::<f64>() + self.b2;
        (h, out)
    }
}

impl Regressor for MlpRegressor {
    fn fit(&mut self, x: &Matrix, y: &[f64]) -> Result<()> {
        if x.rows() != y.len() {
            return Err(Error::InvalidData("feature/target length mismatch".into()));
        }
        let scaler = Standardizer::fit(x);
        let xs = scaler.transform(x);
        let n = xs.rows();
        let d = xs.cols();
        // Standardize the target too: keeps gradients O(1).
        self.target_mean = y.iter().sum::<f64>() / n as f64;
        let var = y
            .iter()
            .map(|v| (v - self.target_mean).powi(2))
            .sum::<f64>()
            / n as f64;
        self.target_std = if var.sqrt() > 1e-12 { var.sqrt() } else { 1.0 };
        let yt: Vec<f64> = y
            .iter()
            .map(|v| (v - self.target_mean) / self.target_std)
            .collect();

        let mut rng = StdRng::seed_from_u64(self.seed);
        // He initialization for the ReLU layer.
        let he = (2.0 / d as f64).sqrt();
        self.w1 = (0..self.hidden)
            .map(|_| {
                (0..d)
                    .map(|_| Normal::standard_sample(&mut rng) * he)
                    .collect()
            })
            .collect();
        self.b1 = vec![0.0; self.hidden];
        let out_scale = (1.0 / self.hidden as f64).sqrt();
        self.w2 = (0..self.hidden)
            .map(|_| Normal::standard_sample(&mut rng) * out_scale)
            .collect();
        self.b2 = 0.0;

        let mut order: Vec<usize> = (0..n).collect();
        for _ in 0..self.epochs {
            rng.shuffle(&mut order);
            for chunk in order.chunks(self.batch) {
                // Accumulate gradients over the mini-batch.
                let mut gw1 = vec![vec![0.0; d]; self.hidden];
                let mut gb1 = vec![0.0; self.hidden];
                let mut gw2 = vec![0.0; self.hidden];
                let mut gb2 = 0.0;
                for &i in chunk {
                    let row = xs.row(i);
                    let (h, out) = self.forward(row);
                    let err = out - yt[i];
                    gb2 += err;
                    for j in 0..self.hidden {
                        gw2[j] += err * h[j];
                        if h[j] > 0.0 {
                            let delta = err * self.w2[j];
                            gb1[j] += delta;
                            for (g, xv) in gw1[j].iter_mut().zip(row) {
                                *g += delta * xv;
                            }
                        }
                    }
                }
                let scale = self.lr / chunk.len() as f64;
                for j in 0..self.hidden {
                    self.w2[j] -= scale * gw2[j];
                    self.b1[j] -= scale * gb1[j];
                    for (w, g) in self.w1[j].iter_mut().zip(&gw1[j]) {
                        *w -= scale * g;
                    }
                }
                self.b2 -= scale * gb2;
            }
        }
        self.scaler = Some(scaler);
        Ok(())
    }

    fn predict_row(&self, row: &[f64]) -> f64 {
        let scaler = self.scaler.as_ref().expect("fit before predict");
        let (_, out) = self.forward(&scaler.transform_row(row));
        out * self.target_std + self.target_mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validates_params() {
        assert!(MlpRegressor::new(0, 0.1, 10, 4, 0).is_err());
        assert!(MlpRegressor::new(4, 0.0, 10, 4, 0).is_err());
        assert!(MlpRegressor::new(4, 0.1, 0, 4, 0).is_err());
        assert!(MlpRegressor::new(4, 0.1, 10, 0, 0).is_err());
    }

    #[test]
    fn learns_linear_function() {
        let rows: Vec<Vec<f64>> = (0..80).map(|i| vec![i as f64 / 20.0]).collect();
        let y: Vec<f64> = rows.iter().map(|r| 3.0 * r[0] - 1.0).collect();
        let x = Matrix::from_rows(&rows).unwrap();
        let mut mlp = MlpRegressor::new(16, 0.02, 200, 8, 5).unwrap();
        mlp.fit(&x, &y).unwrap();
        for probe in [0.5, 2.0, 3.5] {
            let pred = mlp.predict_row(&[probe]);
            assert!(
                (pred - (3.0 * probe - 1.0)).abs() < 0.4,
                "probe {probe}: got {pred}"
            );
        }
    }

    #[test]
    fn learns_nonlinear_function() {
        // y = relu-like kink at x = 1: the network must bend.
        let rows: Vec<Vec<f64>> = (0..100).map(|i| vec![i as f64 / 25.0]).collect();
        let y: Vec<f64> = rows.iter().map(|r| (r[0] - 1.0).max(0.0) * 2.0).collect();
        let x = Matrix::from_rows(&rows).unwrap();
        let mut mlp = MlpRegressor::new(24, 0.02, 300, 10, 11).unwrap();
        mlp.fit(&x, &y).unwrap();
        assert!(mlp.predict_row(&[0.5]).abs() < 0.35);
        let high = mlp.predict_row(&[3.0]);
        assert!((high - 4.0).abs() < 0.6, "got {high}");
    }

    #[test]
    fn deterministic_for_seed() {
        let rows: Vec<Vec<f64>> = (0..40).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = (0..40).map(|i| (i % 5) as f64).collect();
        let x = Matrix::from_rows(&rows).unwrap();
        let mut a = MlpRegressor::default_params(2);
        let mut b = MlpRegressor::default_params(2);
        a.fit(&x, &y).unwrap();
        b.fit(&x, &y).unwrap();
        assert_eq!(a.predict_row(&[7.0]), b.predict_row(&[7.0]));
    }
}
