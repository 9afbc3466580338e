//! Ablations over the design choices DESIGN.md calls out: PPO sampling
//! rate and discretization depth.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use optum_bench::{bench_cluster, bench_probes, bench_training, bench_workload};
use optum_core::{OptumConfig, OptumScheduler, ProfilerConfig};
use optum_sim::{ClusterView, Scheduler};
use optum_types::{ClusterConfig, Tick};

fn ablations(c: &mut Criterion) {
    let workload = bench_workload();
    let training = bench_training(&workload);
    let probes = bench_probes(&workload, 32);
    let (nodes, apps) = bench_cluster(2000, &workload);
    let cluster = ClusterConfig::homogeneous(2000);
    let mut group = c.benchmark_group("ablations");
    group.sample_size(10);

    let mut bench_cfg = |id: BenchmarkId, cfg: OptumConfig, pc: ProfilerConfig| {
        let nodes = &nodes;
        let apps = &apps;
        let cluster = &cluster;
        let probes = &probes;
        let training = &training;
        group.bench_function(id, move |b| {
            let mut sched = OptumScheduler::from_training(cfg, training, pc).unwrap();
            let view = ClusterView {
                tick: Tick(240),
                nodes,
                apps,
                cluster,
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
    };

    let base_pc = ProfilerConfig {
        max_samples_per_app: 300,
        ..ProfilerConfig::default()
    };
    // PPO sampling rate: candidate count is the latency lever of §4.3.4.
    for rate in [0.01, 0.05, 0.2, 1.0] {
        bench_cfg(
            BenchmarkId::new("sampling_rate", format!("{rate}")),
            OptumConfig {
                sample_rate: rate,
                ..OptumConfig::default()
            },
            base_pc,
        );
    }
    // Discretization depth of the interference profiler.
    for buckets in [10usize, 25, 100] {
        bench_cfg(
            BenchmarkId::new("buckets", buckets),
            OptumConfig::default(),
            ProfilerConfig {
                buckets,
                max_samples_per_app: 300,
                ..ProfilerConfig::default()
            },
        );
    }
    group.finish();
}

criterion_group!(benches, ablations);
criterion_main!(benches);
