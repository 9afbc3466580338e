//! From-scratch machine-learning library for the Optum profilers.
//!
//! The paper's Offline Profiler (§4.2.1) compares Linear Regression,
//! Ridge, Support Vector Regression, Multi-layer Perceptron and Random
//! Forest models, adopting Random Forest for its accuracy (Fig. 18).
//! The offline crate registry carries no ML crates, so this crate
//! implements all five regressors, the dense linear algebra they need,
//! the paper's bucket discretization of prediction targets, and the
//! dataset utilities used for train/test evaluation.
//!
//! All models implement [`Regressor`]; randomized models take explicit
//! seeds so results are reproducible.

pub mod dataset;
pub mod discretize;
pub mod forest;
pub mod gbdt;
pub mod linalg;
pub mod linear;
pub mod metrics;
pub mod mlp;
pub mod svr;
pub mod tree;

pub use dataset::{train_test_split, Dataset, Standardizer};
pub use discretize::Discretizer;
pub use forest::{ForestParams, RandomForest};
pub use gbdt::{GbdtParams, GradientBoost};
pub use linalg::Matrix;
pub use linear::{LinearRegression, RidgeRegression};
pub use metrics::r2_score;
pub use mlp::MlpRegressor;
pub use svr::LinearSvr;
#[doc(hidden)]
pub use tree::BoxedTree;
pub use tree::{DecisionTree, TreeParams};

use optum_types::Result;

/// A trainable regression model mapping feature rows to a scalar target.
pub trait Regressor {
    /// Fits the model on a feature matrix (one row per sample) and a
    /// target vector of matching length.
    fn fit(&mut self, x: &Matrix, y: &[f64]) -> Result<()>;

    /// Predicts the target for one feature row.
    ///
    /// # Panics
    ///
    /// Implementations may panic when called before [`Regressor::fit`]
    /// or with a row of the wrong width; use [`Regressor::predict`] for
    /// checked batch inference.
    fn predict_row(&self, row: &[f64]) -> f64;

    /// Predicts targets for every row of a matrix.
    fn predict(&self, x: &Matrix) -> Vec<f64> {
        (0..x.rows()).map(|i| self.predict_row(x.row(i))).collect()
    }

    /// Predicts targets for every row of `x` into a caller-owned
    /// buffer (cleared and refilled), so batch callers can reuse one
    /// scratch vector across calls. Bit-identical to
    /// [`Regressor::predict`].
    fn predict_into(&self, x: &Matrix, out: &mut Vec<f64>) {
        out.clear();
        out.extend((0..x.rows()).map(|i| self.predict_row(x.row(i))));
    }
}
