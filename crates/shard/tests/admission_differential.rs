//! Differential test of the one admission controller behind both
//! engines: the same seeded arrival stream goes through the legacy
//! `Simulator` and through a 1-shard `ScaleEngine`, neither of which
//! ever places a pod, so admission is the only thing that happens.
//! Per-class ledgers (depth peaks included) and the shed order must
//! come out equal at every cap.

use optum_shard::{ScaleEngine, ScaleSimConfig, ScoreParams};
use optum_sim::testing::Refuse;
use optum_sim::SimConfig;
use optum_trace::{generate, ScalePod, WorkloadConfig};
use optum_types::Tick;

const HOSTS: usize = 40;
const WINDOW: u64 = 900;

/// `(shed tick, pod)` in shed order: by tick, then pod id.
fn shed_order(shed_at: impl Iterator<Item = Option<u64>>) -> Vec<(u64, usize)> {
    let mut order: Vec<(u64, usize)> = shed_at
        .enumerate()
        .filter_map(|(pod, at)| at.map(|t| (t, pod)))
        .collect();
    order.sort_unstable();
    order
}

#[test]
fn simulator_and_one_shard_engine_admit_identically() {
    for seed in [3u64, 17, 42] {
        let workload = generate(&WorkloadConfig::small(seed)).unwrap();
        let scale_pods: Vec<ScalePod> = workload
            .pods
            .iter()
            .map(|p| ScalePod {
                arrival: p.spec.arrival.0,
                class: p.spec.slo,
                cpu_req: 0.1,
                mem_req: 0.1,
                cpu_use: 0.05,
                mem_use: 0.05,
                duration: 10,
            })
            .collect();
        for cap in [None, Some(0), Some(1), Some(16), Some(200), Some(100_000)] {
            let mut sim_cfg = SimConfig::new(HOSTS);
            sim_cfg.end_tick = Some(Tick(WINDOW));
            sim_cfg.queue_cap = cap;
            // No over-commit budget: LSR preemption finds no room
            // either, so the refusing scheduler's verdict is final.
            sim_cfg.preempt_request_cap = 0.0;
            let sim = optum_sim::run(&workload, Refuse::default(), sim_cfg).unwrap();
            assert!(sim.outcomes.iter().all(|o| o.placed_at.is_none()));

            let mut scale_cfg = ScaleSimConfig::new(HOSTS, 1, WINDOW);
            scale_cfg.queue_cap = cap;
            // A zero budget on every axis: no candidate ever scores.
            scale_cfg.score = ScoreParams {
                mem_guard: 0.0,
                cpu_budget: 0.0,
                mem_budget: 0.0,
            };
            let scale = ScaleEngine::new(&scale_pods, scale_cfg).run();
            assert_eq!(scale.placements, 0);

            assert_eq!(
                sim.overload.per_class, scale.per_class,
                "ledgers differ at seed {seed}, cap {cap:?}"
            );
            assert_eq!(
                shed_order(sim.outcomes.iter().map(|o| o.shed_at.map(|t| t.0))),
                shed_order(
                    scale
                        .outcomes
                        .iter()
                        .map(|o| (o.shed_at != optum_shard::engine::NEVER).then_some(o.shed_at))
                ),
                "shed order differs at seed {seed}, cap {cap:?}"
            );
            if cap.is_some_and(|c| c <= 200) {
                assert!(sim.overload.total_shed() > 0, "cap {cap:?} must bind");
            }
        }
    }
}
