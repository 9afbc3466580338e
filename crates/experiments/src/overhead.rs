//! Fig. 22: scheduling overhead vs cluster size.
//!
//! A placement micro-benchmark: synthetic clusters of 1,000–6,000
//! pre-filled hosts, measuring the wall-clock cost of one scheduling
//! decision per scheduler. Medea's cost includes its amortized share
//! of the batch ILP solve.

use std::time::Instant;

use optum_core::{OptumConfig, OptumScheduler, ProfilerConfig, TracingCoordinator};
use optum_sched::{AlibabaLike, BorgLike, Medea, NSigmaSched, RcLike};
use optum_sim::{AppStatsStore, ClusterView, NodeRuntime, ResidentPod, Scheduler};
use optum_trace::{generate, Workload};
use optum_types::{ClusterConfig, NodeId, NodeSpec, PodSpec, Result, Tick};

use crate::output::{Figure, Panel};
use crate::runner::ExpConfig;

/// Builds a pre-filled synthetic cluster of `n` hosts from a workload's
/// pod population (~25 resident pods per host, 2 h of usage history).
fn build_cluster(n: usize, workload: &Workload) -> (Vec<NodeRuntime>, AppStatsStore) {
    let mut nodes = Vec::with_capacity(n);
    let mut apps = AppStatsStore::new(workload.apps.len());
    let pods = &workload.pods;
    let mut cursor = 0usize;
    for i in 0..n {
        let mut node = NodeRuntime::with_window(NodeSpec::standard(NodeId(i as u32)), 240);
        for _ in 0..25 {
            let gen = &pods[cursor % pods.len()];
            cursor += 1;
            node.add_pod(ResidentPod {
                id: gen.spec.id,
                app: gen.spec.app,
                slo: gen.spec.slo,
                request: gen.spec.request,
                limit: gen.spec.limit,
                placed_at: Tick(0),
            });
            // Seed app statistics so profile-based predictors engage.
            let usage = gen.spec.request * 0.25;
            apps.observe(gen.spec.app, usage, usage.div(&gen.spec.request), 0.5);
        }
        for k in 0..240u64 {
            let u = 0.25 + 0.1 * ((i as f64 + k as f64 / 40.0).sin());
            node.push_usage(optum_types::Resources::new(u, 0.4));
        }
        nodes.push(node);
    }
    apps.refresh_all();
    (nodes, apps)
}

/// Mean decision latency (ms) of a scheduler over `probes` pods.
fn measure<S: Scheduler>(
    mut sched: S,
    nodes: &[NodeRuntime],
    apps: &AppStatsStore,
    cluster: &ClusterConfig,
    probes: &[PodSpec],
) -> (f64, f64) {
    let view = ClusterView {
        tick: Tick(240),
        nodes,
        apps,
        cluster,
        history_window: 240,
        affinity: &[],
    };
    sched.on_tick(&view);
    let mut total = 0.0;
    let mut worst: f64 = 0.0;
    for pod in probes {
        let start = Instant::now();
        let _ = sched.select_node(pod, &view);
        let ms = start.elapsed().as_secs_f64() * 1e3;
        total += ms;
        worst = worst.max(ms);
    }
    (total / probes.len() as f64, worst)
}

/// Medea's per-pod amortized latency: a 15-pod long-running batch
/// (queue → ILP solve → assignment) plus the fast path.
fn measure_medea(
    nodes: &[NodeRuntime],
    apps: &AppStatsStore,
    cluster: &ClusterConfig,
    probes: &[PodSpec],
) -> (f64, f64) {
    let mut sched = Medea::default();
    let view = ClusterView {
        tick: Tick(240),
        nodes,
        apps,
        cluster,
        history_window: 240,
        affinity: &[],
    };
    let lr: Vec<&PodSpec> = probes.iter().filter(|p| p.slo.is_long_running()).collect();
    let batch: Vec<&PodSpec> = lr.iter().copied().take(15).collect();
    if batch.is_empty() {
        return measure(sched, nodes, apps, cluster, probes);
    }
    let start = Instant::now();
    for pod in &batch {
        let _ = sched.select_node(pod, &view);
    }
    sched.on_tick(&view);
    for pod in &batch {
        let _ = sched.select_node(pod, &view);
    }
    let per_pod = start.elapsed().as_secs_f64() * 1e3 / batch.len() as f64;
    (per_pod, per_pod)
}

/// Fig. 22: mean scheduling latency per decision vs node count.
pub fn fig22(config: &ExpConfig) -> Result<Figure> {
    // App population + profiles come from a small profiling pipeline.
    let wl_cfg = optum_trace::WorkloadConfig::sized(60, 1, config.seed);
    let workload = generate(&wl_cfg)?;
    let training = TracingCoordinator {
        hosts: 60,
        profile_days: 1,
        training_stride: 20,
    }
    .collect(&workload)?;
    let profiler_cfg = ProfilerConfig {
        max_samples_per_app: 400,
        ..ProfilerConfig::default()
    };

    let node_counts: Vec<usize> = if config.hosts < 200 {
        vec![200, 400, 600, 800]
    } else {
        vec![1000, 2000, 3000, 4000, 5000, 6000]
    };
    // Probe pods: a BE/LS mix drawn from the population.
    let probes: Vec<PodSpec> = workload
        .pods
        .iter()
        .take(60)
        .map(|p| p.spec.clone())
        .collect();

    let mut fig = Figure::new("fig22", "Scheduling overhead vs number of nodes");
    let mut panel = Panel::new(
        "decision latency",
        &["nodes", "scheduler", "mean_ms", "max_ms"],
    );
    for &n in &node_counts {
        let (nodes, apps) = build_cluster(n, &workload);
        let cluster = ClusterConfig::homogeneous(n);
        let mut record = |name: &str, (mean, max): (f64, f64)| {
            panel.row(vec![
                n.to_string(),
                name.to_string(),
                format!("{mean:.4}"),
                format!("{max:.4}"),
            ]);
        };
        let optum = OptumScheduler::from_training(OptumConfig::default(), &training, profiler_cfg)?;
        record("Optum", measure(optum, &nodes, &apps, &cluster, &probes));
        record(
            "AlibabaLike",
            measure(AlibabaLike::default(), &nodes, &apps, &cluster, &probes),
        );
        record(
            "RC-like",
            measure(RcLike::default(), &nodes, &apps, &cluster, &probes),
        );
        record(
            "N-sigma",
            measure(NSigmaSched::default(), &nodes, &apps, &cluster, &probes),
        );
        record(
            "Borg-like",
            measure(BorgLike::default(), &nodes, &apps, &cluster, &probes),
        );
        record("Medea", measure_medea(&nodes, &apps, &cluster, &probes));
    }
    fig.push(panel);
    Ok(fig)
}
