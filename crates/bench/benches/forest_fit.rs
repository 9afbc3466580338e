//! Random-Forest training throughput: serial vs the parallel worker
//! pool at 1/2/4/8 threads. The fitted model is bit-identical at
//! every point; only wall-clock changes (on multi-core machines).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use optum_ml::{Matrix, RandomForest, Regressor};

/// A synthetic regression problem shaped like the profiler's: a few
/// informative features, a nonlinear threshold target.
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

fn forest_fit(c: &mut Criterion) {
    let (x, y) = training_set(1200);
    let mut group = c.benchmark_group("forest_fit");
    group.sample_size(10);

    group.bench_function("serial", |b| {
        b.iter(|| {
            let mut rf = RandomForest::default_params(7);
            rf.fit(&x, &y).unwrap();
            std::hint::black_box(rf)
        });
    });
    for threads in [1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new("pool", threads),
            &threads,
            |b, &threads| {
                b.iter(|| {
                    let mut rf = RandomForest::default_params(7).with_threads(threads);
                    rf.fit(&x, &y).unwrap();
                    std::hint::black_box(rf)
                });
            },
        );
    }

    // Batch inference through the same pool.
    let mut fitted = RandomForest::default_params(7).with_threads(4);
    fitted.fit(&x, &y).unwrap();
    group.bench_function("predict_matrix_4_threads", |b| {
        b.iter(|| std::hint::black_box(fitted.predict_matrix(&x)));
    });
    group.finish();
}

criterion_group!(benches, forest_fit);
criterion_main!(benches);
