//! The Optum candidate filter+score loop: one placement decision end
//! to end (sampling, feasibility guards, interference scoring) per
//! iteration.
//!
//! `fused` is the production path — per candidate a memo lookup and,
//! on a miss, the utilization prediction into a reusable scratch
//! buffer followed by the Eq. 11 score. `util_only` drops the
//! predictor terms (the paper's Optum-util ablation and the
//! circuit-breaker fallback), bounding how much of the decision cost
//! the interference model accounts for.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use optum_bench::{bench_cluster, bench_probes, bench_training, bench_workload};
use optum_core::{OptumConfig, OptumScheduler, ProfilerConfig};
use optum_sim::{ClusterView, Scheduler};
use optum_types::{ClusterConfig, Tick};

fn candidate_score(c: &mut Criterion) {
    let workload = bench_workload();
    let training = bench_training(&workload);
    let probes = bench_probes(&workload, 32);
    let mut group = c.benchmark_group("candidate_score");
    group.sample_size(20);

    for &n in &[500usize, 2000] {
        let (nodes, apps) = bench_cluster(n, &workload);
        let cluster = ClusterConfig::homogeneous(n);
        for (label, util_only) in [("fused", false), ("util_only", true)] {
            group.bench_with_input(BenchmarkId::new(label, n), &n, |b, _| {
                let mut sched = OptumScheduler::from_training(
                    OptumConfig {
                        util_only,
                        ..OptumConfig::default()
                    },
                    &training,
                    ProfilerConfig {
                        max_samples_per_app: 400,
                        ..ProfilerConfig::default()
                    },
                )
                .expect("training succeeds");
                let view = ClusterView {
                    tick: Tick(240),
                    nodes: &nodes,
                    apps: &apps,
                    cluster: &cluster,
                    history_window: 240,
                    affinity: &[],
                };
                sched.on_tick(&view);
                let mut i = 0usize;
                b.iter(|| {
                    let pod = &probes[i % probes.len()];
                    i += 1;
                    std::hint::black_box(sched.select_node(pod, &view))
                });
            });
        }
    }
    group.finish();
}

criterion_group!(benches, candidate_score);
criterion_main!(benches);
