//! CART regression tree with variance-reduction splits.
//!
//! The building block of the Random Forest the paper's Interference
//! Profiler adopts (§4.2.1). Supports per-split feature subsampling so
//! the forest can decorrelate its trees.
//!
//! # Layout
//!
//! Fitting still uses the natural recursive builder ([`BoxedTree`], a
//! pointer-chasing `enum` of boxed nodes), but the fitted tree is
//! *lowered* into a flattened struct-of-arrays layout: contiguous
//! `feature`/`threshold`/`left`/`right` arrays for the internal nodes
//! plus a `leaf_value` array, with leaves marked by a sentinel bit in
//! the child index. Prediction then walks a handful of dense arrays
//! that stay resident in L1 instead of chasing heap pointers, which is
//! what makes the batched forest predictions cheap. The lowering is a
//! pure structural copy in deterministic preorder, so predictions are
//! bit-identical to walking the boxed builder's output.

use optum_types::{Error, Result, StdRng};

use crate::linalg::Matrix;
use crate::Regressor;

/// Tuning knobs for a regression tree.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TreeParams {
    /// Maximum tree depth.
    pub max_depth: usize,
    /// Minimum samples a leaf may hold.
    pub min_samples_leaf: usize,
    /// Features considered per split; `None` means all features.
    pub max_features: Option<usize>,
}

impl Default for TreeParams {
    fn default() -> TreeParams {
        TreeParams {
            max_depth: 12,
            min_samples_leaf: 2,
            max_features: None,
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
enum Node {
    Leaf {
        value: f64,
    },
    Split {
        feature: usize,
        threshold: f64,
        left: Box<Node>,
        right: Box<Node>,
    },
}

/// High bit of a child index: set when the index refers into
/// `leaf_value` rather than the internal-node arrays.
const LEAF_BIT: u32 = 1 << 31;
/// Root sentinel of an unfitted tree.
const UNFITTED: u32 = u32::MAX;

/// A CART regression tree.
///
/// # Examples
///
/// ```
/// use optum_ml::{DecisionTree, Matrix, Regressor};
///
/// let x = Matrix::from_rows(&[vec![0.0], vec![1.0], vec![10.0], vec![11.0]]).unwrap();
/// let y = [0.0, 0.0, 5.0, 5.0];
/// let mut tree = DecisionTree::default_params(0);
/// tree.fit(&x, &y).unwrap();
/// assert_eq!(tree.predict_row(&[0.5]), 0.0);
/// assert_eq!(tree.predict_row(&[10.5]), 5.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionTree {
    params: TreeParams,
    seed: u64,
    n_features: usize,
    /// Encoded root: an internal-node index, a `LEAF_BIT`-tagged leaf
    /// index, or [`UNFITTED`].
    root: u32,
    /// Split feature per internal node.
    feature: Vec<u16>,
    /// Split threshold per internal node.
    threshold: Vec<f64>,
    /// Left child per internal node (`LEAF_BIT`-tagged when a leaf).
    left: Vec<u32>,
    /// Right child per internal node (`LEAF_BIT`-tagged when a leaf).
    right: Vec<u32>,
    /// Leaf predictions.
    leaf_value: Vec<f64>,
}

impl DecisionTree {
    /// Creates an unfitted tree.
    pub fn new(params: TreeParams, seed: u64) -> Result<DecisionTree> {
        if params.max_depth == 0 || params.min_samples_leaf == 0 {
            return Err(Error::InvalidConfig(
                "max_depth and min_samples_leaf must be > 0".into(),
            ));
        }
        if params.max_features == Some(0) {
            return Err(Error::InvalidConfig(
                "max_features must be > 0 when set".into(),
            ));
        }
        Ok(DecisionTree {
            params,
            seed,
            n_features: 0,
            root: UNFITTED,
            feature: Vec::new(),
            threshold: Vec::new(),
            left: Vec::new(),
            right: Vec::new(),
            leaf_value: Vec::new(),
        })
    }

    /// Creates a tree with [`TreeParams::default`].
    pub fn default_params(seed: u64) -> DecisionTree {
        DecisionTree::new(TreeParams::default(), seed).expect("defaults are valid")
    }

    /// Number of leaves in the fitted tree (0 when unfitted).
    pub fn leaf_count(&self) -> usize {
        self.leaf_value.len()
    }

    /// Number of internal (split) nodes in the fitted tree.
    pub fn split_count(&self) -> usize {
        self.feature.len()
    }

    /// Lowers a boxed node into the flat arrays in preorder, returning
    /// its encoded index.
    fn lower(&mut self, node: &Node) -> u32 {
        match node {
            Node::Leaf { value } => {
                let j = self.leaf_value.len() as u32;
                self.leaf_value.push(*value);
                LEAF_BIT | j
            }
            Node::Split {
                feature,
                threshold,
                left,
                right,
            } => {
                let i = self.feature.len();
                self.feature.push(*feature as u16);
                self.threshold.push(*threshold);
                self.left.push(UNFITTED);
                self.right.push(UNFITTED);
                let l = self.lower(left);
                let r = self.lower(right);
                self.left[i] = l;
                self.right[i] = r;
                i as u32
            }
        }
    }

    fn install(&mut self, root: Node, n_features: usize) {
        self.n_features = n_features;
        self.feature.clear();
        self.threshold.clear();
        self.left.clear();
        self.right.clear();
        self.leaf_value.clear();
        self.root = self.lower(&root);
    }

    fn build(
        x: &Matrix,
        y: &[f64],
        indices: &[usize],
        depth: usize,
        params: &TreeParams,
        rng: &mut StdRng,
    ) -> Node {
        let mean = indices.iter().map(|&i| y[i]).sum::<f64>() / indices.len() as f64;
        if depth >= params.max_depth || indices.len() < 2 * params.min_samples_leaf {
            return Node::Leaf { value: mean };
        }
        let sse_parent: f64 = indices.iter().map(|&i| (y[i] - mean).powi(2)).sum();
        if sse_parent < 1e-12 {
            return Node::Leaf { value: mean };
        }

        // Candidate feature subset (forest mode) or all features.
        let d = x.cols();
        let mut feats: Vec<usize> = (0..d).collect();
        if let Some(k) = params.max_features {
            rng.shuffle(&mut feats);
            feats.truncate(k.min(d));
        }

        let mut best: Option<(usize, f64, f64)> = None; // (feature, threshold, sse)
        let mut sortable: Vec<(f64, f64)> = Vec::with_capacity(indices.len());
        for &f in &feats {
            sortable.clear();
            sortable.extend(indices.iter().map(|&i| (x.get(i, f), y[i])));
            sortable.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite features"));
            // Prefix sums let each candidate threshold be scored in O(1).
            let n = sortable.len();
            let total_sum: f64 = sortable.iter().map(|p| p.1).sum();
            let total_sq: f64 = sortable.iter().map(|p| p.1 * p.1).sum();
            let mut left_sum = 0.0;
            let mut left_sq = 0.0;
            for i in 0..n - 1 {
                left_sum += sortable[i].1;
                left_sq += sortable[i].1 * sortable[i].1;
                // Can't split between equal feature values.
                if sortable[i].0 == sortable[i + 1].0 {
                    continue;
                }
                let nl = (i + 1) as f64;
                let nr = (n - i - 1) as f64;
                if (i + 1) < params.min_samples_leaf || (n - i - 1) < params.min_samples_leaf {
                    continue;
                }
                let right_sum = total_sum - left_sum;
                let right_sq = total_sq - left_sq;
                let sse =
                    (left_sq - left_sum * left_sum / nl) + (right_sq - right_sum * right_sum / nr);
                if best.is_none_or(|(_, _, b)| sse < b) {
                    let threshold = (sortable[i].0 + sortable[i + 1].0) / 2.0;
                    best = Some((f, threshold, sse));
                }
            }
        }

        let Some((feature, threshold, sse)) = best else {
            return Node::Leaf { value: mean };
        };
        if sse >= sse_parent - 1e-12 {
            return Node::Leaf { value: mean };
        }

        let (left_idx, right_idx): (Vec<usize>, Vec<usize>) = indices
            .iter()
            .partition(|&&i| x.get(i, feature) <= threshold);
        Node::Split {
            feature,
            threshold,
            left: Box::new(Self::build(x, y, &left_idx, depth + 1, params, rng)),
            right: Box::new(Self::build(x, y, &right_idx, depth + 1, params, rng)),
        }
    }
}

impl DecisionTree {
    /// Fits on a sample view: conceptual training row `j` is
    /// `x.row(indices[j])` with target `y[indices[j]]`. Duplicate
    /// indices are allowed (bootstrap resampling). Produces a tree
    /// bit-identical to copying the sampled rows into a fresh matrix
    /// and calling [`Regressor::fit`], without materializing the copy:
    /// split scoring walks the sample in `indices` order, so every
    /// floating-point accumulation sees the same values in the same
    /// order.
    pub fn fit_sample(&mut self, x: &Matrix, y: &[f64], indices: &[usize]) -> Result<()> {
        if x.rows() != y.len() {
            return Err(Error::InvalidData("feature/target length mismatch".into()));
        }
        if indices.is_empty() {
            return Err(Error::InvalidData("empty sample in fit_sample".into()));
        }
        if indices.iter().any(|&i| i >= x.rows()) {
            return Err(Error::InvalidData("sample index out of bounds".into()));
        }
        if x.cols() > u16::MAX as usize {
            return Err(Error::InvalidData(
                "flattened trees support at most 65535 features".into(),
            ));
        }
        let mut rng = StdRng::seed_from_u64(self.seed);
        let root = Self::build(x, y, indices, 0, &self.params, &mut rng);
        self.install(root, x.cols());
        Ok(())
    }

    /// Accumulates this tree's prediction for every row of `x` into
    /// `out` (`out[r] += tree(x.row(r))`).
    ///
    /// This is the batched kernel of `RandomForest::predict_matrix`:
    /// all rows walk one tree while its (small, contiguous) node
    /// arrays stay hot in cache, instead of every row re-touching
    /// every tree. Addition order per row is exactly "trees in forest
    /// order", so forest sums stay bit-identical to the per-row loop.
    pub fn predict_add(&self, x: &Matrix, out: &mut [f64]) {
        assert_eq!(x.rows(), out.len(), "output length must match rows");
        for (r, acc) in out.iter_mut().enumerate() {
            *acc += self.predict_row(x.row(r));
        }
    }
}

impl Regressor for DecisionTree {
    fn fit(&mut self, x: &Matrix, y: &[f64]) -> Result<()> {
        let indices: Vec<usize> = (0..x.rows()).collect();
        self.fit_sample(x, y, &indices)
    }

    fn predict_row(&self, row: &[f64]) -> f64 {
        assert!(self.root != UNFITTED, "fit before predict");
        let mut idx = self.root;
        while idx & LEAF_BIT == 0 {
            let i = idx as usize;
            idx = if row[self.feature[i] as usize] <= self.threshold[i] {
                self.left[i]
            } else {
                self.right[i]
            };
        }
        self.leaf_value[(idx & !LEAF_BIT) as usize]
    }

    fn predict(&self, x: &Matrix) -> Vec<f64> {
        let mut out = vec![0.0; x.rows()];
        self.predict_add(x, &mut out);
        out
    }
}

/// The recursive boxed builder exposed as a reference implementation.
///
/// Fits the exact same tree as [`DecisionTree`] (they share the
/// builder) but *keeps* the pointer-chasing boxed nodes and predicts
/// by walking them. Exists so tests and benches can check the
/// flattened layout bit-for-bit against the original representation;
/// production code should always use [`DecisionTree`].
#[doc(hidden)]
#[derive(Debug, Clone, PartialEq)]
pub struct BoxedTree {
    root: Node,
}

impl BoxedTree {
    /// Fits a boxed reference tree (same builder, no lowering).
    pub fn fit(params: TreeParams, seed: u64, x: &Matrix, y: &[f64]) -> Result<BoxedTree> {
        // Reuse DecisionTree's validation.
        DecisionTree::new(params, seed)?;
        if x.rows() != y.len() {
            return Err(Error::InvalidData("feature/target length mismatch".into()));
        }
        if x.rows() == 0 {
            return Err(Error::InvalidData("empty training set".into()));
        }
        let indices: Vec<usize> = (0..x.rows()).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        Ok(BoxedTree {
            root: DecisionTree::build(x, y, &indices, 0, &params, &mut rng),
        })
    }

    /// Predicts one row by walking the boxed nodes.
    pub fn predict_row(&self, row: &[f64]) -> f64 {
        let mut node = &self.root;
        loop {
            match node {
                Node::Leaf { value } => return *value,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    node = if row[*feature] <= *threshold {
                        left
                    } else {
                        right
                    };
                }
            }
        }
    }

    /// Number of leaves.
    pub fn leaf_count(&self) -> usize {
        fn count(node: &Node) -> usize {
            match node {
                Node::Leaf { .. } => 1,
                Node::Split { left, right, .. } => count(left) + count(right),
            }
        }
        count(&self.root)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn validates_params() {
        let bad = TreeParams {
            max_depth: 0,
            ..TreeParams::default()
        };
        assert!(DecisionTree::new(bad, 0).is_err());
        let bad2 = TreeParams {
            max_features: Some(0),
            ..TreeParams::default()
        };
        assert!(DecisionTree::new(bad2, 0).is_err());
    }

    #[test]
    fn pure_targets_make_single_leaf() {
        let x = Matrix::from_rows(&[vec![1.0], vec![2.0], vec![3.0]]).unwrap();
        let mut t = DecisionTree::default_params(0);
        t.fit(&x, &[4.0, 4.0, 4.0]).unwrap();
        assert_eq!(t.leaf_count(), 1);
        assert_eq!(t.split_count(), 0);
        assert_eq!(t.predict_row(&[9.9]), 4.0);
    }

    #[test]
    fn splits_step_function_exactly() {
        let rows: Vec<Vec<f64>> = (0..50).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = (0..50).map(|i| if i < 25 { 1.0 } else { 9.0 }).collect();
        let x = Matrix::from_rows(&rows).unwrap();
        let mut t = DecisionTree::default_params(0);
        t.fit(&x, &y).unwrap();
        assert_eq!(t.predict_row(&[10.0]), 1.0);
        assert_eq!(t.predict_row(&[40.0]), 9.0);
    }

    #[test]
    fn respects_max_depth() {
        let rows: Vec<Vec<f64>> = (0..64).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = (0..64).map(|i| i as f64).collect();
        let x = Matrix::from_rows(&rows).unwrap();
        let params = TreeParams {
            max_depth: 2,
            ..TreeParams::default()
        };
        let mut t = DecisionTree::new(params, 0).unwrap();
        t.fit(&x, &y).unwrap();
        assert!(t.leaf_count() <= 4);
    }

    #[test]
    fn respects_min_samples_leaf() {
        let rows: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let x = Matrix::from_rows(&rows).unwrap();
        let params = TreeParams {
            min_samples_leaf: 5,
            ..TreeParams::default()
        };
        let mut t = DecisionTree::new(params, 0).unwrap();
        t.fit(&x, &y).unwrap();
        assert!(t.leaf_count() <= 2);
    }

    #[test]
    fn learns_two_feature_interaction() {
        // Target depends on feature 1 only; feature 0 is noise.
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for i in 0..40 {
            rows.push(vec![(i * 7 % 13) as f64, (i % 2) as f64]);
            y.push(if i % 2 == 0 { 0.0 } else { 10.0 });
        }
        let x = Matrix::from_rows(&rows).unwrap();
        let mut t = DecisionTree::default_params(0);
        t.fit(&x, &y).unwrap();
        assert_eq!(t.predict_row(&[3.0, 0.0]), 0.0);
        assert_eq!(t.predict_row(&[3.0, 1.0]), 10.0);
    }

    #[test]
    fn fit_sample_matches_copied_bootstrap() {
        let rows: Vec<Vec<f64>> = (0..40).map(|i| vec![i as f64, (i % 4) as f64]).collect();
        let y: Vec<f64> = (0..40).map(|i| (i % 4) as f64 * 2.5).collect();
        let x = Matrix::from_rows(&rows).unwrap();
        // Bootstrap-style sample with duplicates, arbitrary order.
        let indices: Vec<usize> = (0..40)
            .map(|i| (i * 17 + 5) % 40)
            .chain([3, 3, 7])
            .collect();
        let copied_rows: Vec<Vec<f64>> = indices.iter().map(|&i| rows[i].clone()).collect();
        let copied_y: Vec<f64> = indices.iter().map(|&i| y[i]).collect();
        let bx = Matrix::from_rows(&copied_rows).unwrap();
        let params = TreeParams {
            max_features: Some(1),
            ..TreeParams::default()
        };
        let mut view = DecisionTree::new(params, 9).unwrap();
        view.fit_sample(&x, &y, &indices).unwrap();
        let mut copied = DecisionTree::new(params, 9).unwrap();
        copied.fit(&bx, &copied_y).unwrap();
        assert_eq!(view, copied);
    }

    #[test]
    fn fit_sample_rejects_bad_input() {
        let x = Matrix::from_rows(&[vec![1.0], vec![2.0]]).unwrap();
        let y = [1.0, 2.0];
        let mut t = DecisionTree::default_params(0);
        assert!(t.fit_sample(&x, &y, &[]).is_err());
        assert!(t.fit_sample(&x, &y, &[2]).is_err());
    }

    #[test]
    fn refit_replaces_previous_tree() {
        let rows: Vec<Vec<f64>> = (0..50).map(|i| vec![i as f64]).collect();
        let x = Matrix::from_rows(&rows).unwrap();
        let y1: Vec<f64> = (0..50).map(|i| if i < 25 { 1.0 } else { 9.0 }).collect();
        let y2 = vec![3.5; 50];
        let mut t = DecisionTree::default_params(0);
        t.fit(&x, &y1).unwrap();
        assert!(t.leaf_count() > 1);
        t.fit(&x, &y2).unwrap();
        assert_eq!(t.leaf_count(), 1, "refit must clear the old arrays");
        assert_eq!(t.predict_row(&[0.0]), 3.5);
    }

    #[test]
    fn flat_matches_boxed_reference() {
        let rows: Vec<Vec<f64>> = (0..60)
            .map(|i| vec![(i * 13 % 17) as f64, (i % 5) as f64, i as f64])
            .collect();
        let y: Vec<f64> = (0..60).map(|i| ((i * 7) % 11) as f64 - 5.0).collect();
        let x = Matrix::from_rows(&rows).unwrap();
        let params = TreeParams {
            max_depth: 6,
            min_samples_leaf: 2,
            max_features: Some(2),
        };
        let mut flat = DecisionTree::new(params, 42).unwrap();
        flat.fit(&x, &y).unwrap();
        let boxed = BoxedTree::fit(params, 42, &x, &y).unwrap();
        assert_eq!(flat.leaf_count(), boxed.leaf_count());
        for r in 0..x.rows() {
            let row = x.row(r);
            assert_eq!(flat.predict_row(row), boxed.predict_row(row));
        }
    }

    #[test]
    fn predict_add_accumulates_in_order() {
        let rows: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = (0..20).map(|i| (i % 3) as f64).collect();
        let x = Matrix::from_rows(&rows).unwrap();
        let mut t = DecisionTree::default_params(0);
        t.fit(&x, &y).unwrap();
        let mut out = vec![1.0; x.rows()];
        t.predict_add(&x, &mut out);
        for (r, &v) in out.iter().enumerate() {
            assert_eq!(v, 1.0 + t.predict_row(x.row(r)));
        }
    }

    proptest! {
        #[test]
        fn predictions_within_target_range(
            points in proptest::collection::vec((-100f64..100.0, -100f64..100.0), 4..60),
            probe in -200f64..200.0,
        ) {
            let rows: Vec<Vec<f64>> = points.iter().map(|p| vec![p.0]).collect();
            let y: Vec<f64> = points.iter().map(|p| p.1).collect();
            let x = Matrix::from_rows(&rows).unwrap();
            let mut t = DecisionTree::default_params(1);
            t.fit(&x, &y).unwrap();
            let pred = t.predict_row(&[probe]);
            let lo = y.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = y.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            prop_assert!(pred >= lo - 1e-9 && pred <= hi + 1e-9);
        }
    }
}
