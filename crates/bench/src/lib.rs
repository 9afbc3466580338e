//! Shared fixtures for the Criterion benchmarks.

use optum_core::{OptumConfig, OptumScheduler, ProfilerConfig, TracingCoordinator};
use optum_sim::{AppStatsStore, NodeRuntime, ResidentPod, TrainingData};
use optum_trace::{generate, Workload, WorkloadConfig};
use optum_types::{NodeId, NodeSpec, PodSpec, Resources, Tick};

/// A small workload reused across benches.
pub fn bench_workload() -> Workload {
    generate(&WorkloadConfig::sized(40, 1, 2024)).expect("generation succeeds")
}

/// Profiling data for the bench workload.
pub fn bench_training(workload: &Workload) -> TrainingData {
    TracingCoordinator {
        hosts: 40,
        profile_days: 1,
        training_stride: 20,
    }
    .collect(workload)
    .expect("profiling succeeds")
}

/// A trained Optum scheduler over the bench workload.
pub fn bench_optum(training: &TrainingData) -> OptumScheduler {
    OptumScheduler::from_training(
        OptumConfig::default(),
        training,
        ProfilerConfig {
            max_samples_per_app: 400,
            ..ProfilerConfig::default()
        },
    )
    .expect("training succeeds")
}

/// A pre-filled cluster of `n` hosts drawing pods from the workload.
pub fn bench_cluster(n: usize, workload: &Workload) -> (Vec<NodeRuntime>, AppStatsStore) {
    let mut nodes = Vec::with_capacity(n);
    let mut apps = AppStatsStore::new(workload.apps.len());
    let mut cursor = 0usize;
    for i in 0..n {
        let mut node = NodeRuntime::with_window(NodeSpec::standard(NodeId(i as u32)), 240);
        for _ in 0..20 {
            let gen = &workload.pods[cursor % workload.pods.len()];
            cursor += 1;
            node.add_pod(ResidentPod {
                id: gen.spec.id,
                app: gen.spec.app,
                slo: gen.spec.slo,
                request: gen.spec.request,
                limit: gen.spec.limit,
                placed_at: Tick(0),
            });
            let usage = gen.spec.request * 0.3;
            apps.observe(gen.spec.app, usage, usage.div(&gen.spec.request), 0.5);
        }
        for k in 0..240u64 {
            let u = 0.3 + 0.1 * ((i as f64 * 0.7 + k as f64 / 37.0).sin());
            node.push_usage(Resources::new(u, 0.4));
        }
        nodes.push(node);
    }
    apps.refresh_all();
    (nodes, apps)
}

/// Probe pods for placement benches.
pub fn bench_probes(workload: &Workload, count: usize) -> Vec<PodSpec> {
    workload
        .pods
        .iter()
        .take(count)
        .map(|p| p.spec.clone())
        .collect()
}
