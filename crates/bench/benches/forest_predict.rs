//! Inference throughput of the flattened array-layout trees against
//! the boxed pointer-chasing builder they are lowered from.
//!
//! The flattened layout must stay bit-identical to the boxed tree
//! (asserted here before timing), so this bench answers only the
//! speed question: per-row walks over contiguous `feature`/
//! `threshold` arrays vs `Box<Node>` chains, and the batched
//! `predict_matrix` / `predict_into` forest paths the scheduler uses.

use criterion::{criterion_group, criterion_main, Criterion};

use optum_ml::{BoxedTree, DecisionTree, Matrix, RandomForest, Regressor, TreeParams};

/// The profiler-shaped synthetic regression problem (see forest_fit).
fn training_set(n: usize) -> (Matrix, Vec<f64>) {
    let mut rng = optum_types::StdRng::seed_from_u64(4242);
    let mut rows = Vec::with_capacity(n);
    let mut y = Vec::with_capacity(n);
    for _ in 0..n {
        let u = rng.gen_range(0.0..1.0);
        let host = rng.gen_range(0.0..1.0);
        let qps = rng.gen_range(0.0..1.0);
        let jitter = rng.gen_range(0.0..1.0);
        rows.push(vec![u, 0.4 + 0.2 * jitter, host, 0.3 + 0.2 * jitter, qps]);
        y.push((0.8 * (host - 0.6).max(0.0) * (0.3 + 0.7 * u) * (0.4 + 0.6 * qps)).clamp(0.0, 1.0));
    }
    (Matrix::from_rows(&rows).unwrap(), y)
}

fn forest_predict(c: &mut Criterion) {
    let (x, y) = training_set(6000);
    let mut group = c.benchmark_group("forest_predict");
    group.sample_size(5000);

    // One tree, both layouts, fitted identically on the full sample.
    let boxed = BoxedTree::fit(TreeParams::default(), 7, &x, &y).unwrap();
    let mut flat = DecisionTree::new(TreeParams::default(), 7).unwrap();
    let indices: Vec<usize> = (0..x.rows()).collect();
    flat.fit_sample(&x, &y, &indices).unwrap();
    for i in 0..x.rows() {
        assert_eq!(
            boxed.predict_row(x.row(i)).to_bits(),
            flat.predict_row(x.row(i)).to_bits(),
            "flattened layout must be bit-identical to the boxed builder"
        );
    }

    group.bench_function("boxed_tree_row", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 1) % x.rows();
            std::hint::black_box(boxed.predict_row(x.row(i)))
        });
    });
    group.bench_function("flattened_tree_row", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 1) % x.rows();
            std::hint::black_box(flat.predict_row(x.row(i)))
        });
    });

    // The forest paths the profiler actually calls.
    let mut rf = RandomForest::default_params(7);
    rf.fit(&x, &y).unwrap();
    group.bench_function("forest_row", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 1) % x.rows();
            std::hint::black_box(rf.predict_row(x.row(i)))
        });
    });
    group.bench_function("forest_predict_matrix", |b| {
        b.iter(|| std::hint::black_box(rf.predict_matrix(&x)));
    });
    group.bench_function("forest_predict_into_reused", |b| {
        let mut out = Vec::new();
        b.iter(|| {
            rf.predict_into(&x, &mut out);
            std::hint::black_box(out.len())
        });
    });
    group.finish();
}

criterion_group!(benches, forest_predict);
criterion_main!(benches);
