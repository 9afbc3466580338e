//! Consistency of the simulator under arbitrary fault plans.
//!
//! Property: whatever the chaos subsystem throws at the engine, the
//! run-level accounting stays consistent — every fault-driven eviction
//! is eventually re-placed or counted failed, per-pod and per-class
//! eviction counts agree, completed pods were placed, and the same
//! plan replays bit-identically.

use optum_chaos::{generate_plan, ChaosConfig};
use optum_sim::testing::FirstFit;
use optum_sim::{run, SimConfig, SimResult};
use optum_trace::{generate, Workload, WorkloadConfig};
use optum_types::{DelayCause, FaultEvent, FaultKind, NodeId, SloClass, Tick};
use proptest::prelude::*;

const HOSTS: usize = 40;

fn workload() -> &'static Workload {
    use std::sync::OnceLock;
    static W: OnceLock<Workload> = OnceLock::new();
    W.get_or_init(|| generate(&WorkloadConfig::small(7)).unwrap())
}

fn run_with(faults: Vec<FaultEvent>) -> SimResult {
    let mut cfg = SimConfig::new(HOSTS);
    cfg.fault_events = faults;
    run(workload(), FirstFit, cfg).unwrap()
}

fn assert_consistent(r: &SimResult) {
    // Per class: every fault-driven eviction resolves to a successful
    // re-placement or a window-end failure.
    for &slo in &SloClass::ALL {
        let c = r.churn.class(slo);
        assert_eq!(
            c.evictions,
            c.rescheduled + c.failed,
            "class {slo:?}: evictions {} != rescheduled {} + failed {}",
            c.evictions,
            c.rescheduled,
            c.failed
        );
    }
    // Per-pod eviction counts agree with the per-class totals.
    let per_pod: u64 = r.outcomes.iter().map(|o| o.evictions as u64).sum();
    assert_eq!(per_pod, r.churn.total_evictions());
    for o in &r.outcomes {
        // Completion implies placement, and durations are positive.
        if o.completed_at.is_some() {
            assert!(o.placed_at.is_some(), "pod {:?} completed unplaced", o.id);
            assert!(o.actual_duration.unwrap_or(0) >= 1);
        }
        // A pod evicted at least once recorded the eviction delay cause
        // at some point (it may be overwritten by later rounds) and its
        // wait accounting never exceeds the window.
        assert!(
            o.wait_ticks <= r.end_tick.0 * (1 + o.evictions as u64 + o.preemptions as u64),
            "pod {:?} wait {} out of range",
            o.id,
            o.wait_ticks
        );
    }
    // Each counted crash put its node down for at least the crash tick.
    assert!(r.churn.down_node_ticks >= r.churn.crashes);
    assert!(r.violations.rate() <= 1.0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn random_fault_plans_keep_the_simulator_consistent(
        seed in any::<u64>(),
        mtbf_days in 0.05f64..4.0,
    ) {
        let window = workload().config.window_ticks();
        let cfg = ChaosConfig::from_mtbf_days(HOSTS as u32, window, seed, mtbf_days);
        let plan = generate_plan(&cfg);
        let r = run_with(plan.clone());
        assert_consistent(&r);
        // Same plan, same result, bit for bit.
        let r2 = run_with(plan);
        prop_assert_eq!(&r.outcomes, &r2.outcomes);
        prop_assert_eq!(&r.violations, &r2.violations);
        prop_assert_eq!(&r.churn, &r2.churn);
    }
}

#[test]
fn empty_fault_plan_matches_the_plain_engine() {
    let plain = run(workload(), FirstFit, SimConfig::new(HOSTS)).unwrap();
    let chaos = run_with(Vec::new());
    assert_eq!(plain.outcomes, chaos.outcomes);
    assert_eq!(plain.violations, chaos.violations);
    assert_eq!(plain.cluster_series, chaos.cluster_series);
    assert_eq!(chaos.churn, optum_sim::ChurnStats::default());
}

#[test]
fn a_stormy_plan_actually_churns() {
    let window = workload().config.window_ticks();
    let cfg = ChaosConfig::from_mtbf_days(HOSTS as u32, window, 7, 0.25);
    let r = run_with(generate_plan(&cfg));
    assert!(r.churn.crashes > 0, "no crashes under MTBF=0.25d");
    assert!(r.churn.down_node_ticks > 0);
    assert!(
        r.churn.total_evictions() > 0,
        "crashes evicted nothing: {:?}",
        r.churn
    );
    assert!(
        r.churn.per_class.iter().any(|c| c.rescheduled > 0),
        "nothing was ever rescheduled"
    );
    // Eviction shows up as a delay cause (the fig9b satellite).
    assert!(r
        .outcomes
        .iter()
        .any(|o| o.delay_cause == Some(DelayCause::Eviction)));
    assert_consistent(&r);
}

/// Eviction at the very last tick: the restart backoff (base 2 ticks)
/// pushes every victim's earliest re-offer past the window end, so
/// none can reschedule and finalize must count them all `failed` —
/// the `evictions == rescheduled + failed` invariant holds with the
/// entire right-hand side on the `failed` leg.
#[test]
fn crash_at_the_final_tick_counts_every_eviction_as_failed() {
    let window = workload().config.window_ticks();
    let plan: Vec<FaultEvent> = (0..HOSTS as u32)
        .map(|n| FaultEvent {
            at: Tick(window - 1),
            node: NodeId(n),
            kind: FaultKind::Crash,
        })
        .collect();
    let r = run_with(plan);
    // Every node was Up until the final tick, so every crash counts.
    assert_eq!(r.churn.crashes, HOSTS as u64);
    assert!(
        r.churn.total_evictions() > 0,
        "no pods resident at the final tick: {:?}",
        r.churn
    );
    for &slo in &SloClass::ALL {
        let c = r.churn.class(slo);
        assert_eq!(
            c.rescheduled, 0,
            "class {slo:?} rescheduled after a final-tick eviction"
        );
        assert_eq!(c.failed, c.evictions, "class {slo:?}");
    }
    assert_consistent(&r);
}

/// A `PodKill` aimed at a node with no resident pods is a pure no-op:
/// `pod_kills` only counts kills that found a victim, and the run is
/// bit-identical to one with no faults at all.
#[test]
fn pod_kill_on_an_empty_node_is_a_no_op() {
    // Faults apply before the tick-0 schedule round, so at t=0 every
    // node is still empty no matter what the scheduler does later.
    let plan = vec![FaultEvent {
        at: Tick(0),
        node: NodeId(5),
        kind: FaultKind::PodKill { selector: 42 },
    }];
    let r = run_with(plan);
    assert_eq!(r.churn.pod_kills, 0, "kill on an empty node was counted");
    let baseline = run_with(Vec::new());
    assert_eq!(r.outcomes, baseline.outcomes);
    assert_eq!(r.churn, baseline.churn);
    assert_eq!(r.violations, baseline.violations);
}

/// Draining an empty node counts the drain episode but evicts nothing:
/// the node just drops out of the schedulable set. With no other
/// faults in the plan the churn ledger stays all-zero except `drains`.
#[test]
fn drain_of_an_empty_node_counts_the_drain_but_evicts_nothing() {
    let plan = vec![FaultEvent {
        at: Tick(0),
        node: NodeId(HOSTS as u32 - 1),
        kind: FaultKind::DrainStart,
    }];
    let r = run_with(plan);
    assert_eq!(r.churn.drains, 1);
    assert_eq!(r.churn.total_evictions(), 0, "empty drain evicted pods");
    for &slo in &SloClass::ALL {
        let c = r.churn.class(slo);
        assert_eq!((c.rescheduled, c.failed), (0, 0), "class {slo:?}");
    }
    assert_consistent(&r);
}

// --- Control-plane faults: lossy proposal channels ------------------

mod message_loss {
    use super::{workload, HOSTS};
    use optum_chaos::ChannelChaosConfig;
    use optum_core::{
        DistStats, DistributedOptum, InterferenceProfiler, OptumConfig, ProfilerConfig,
        ResourceUsageProfiler, TracingCoordinator,
    };
    use optum_sim::{run, SimConfig, SimResult};
    use proptest::prelude::*;
    use std::sync::Arc;

    /// One shared trained profile set (RF training is the slow part).
    fn profilers() -> &'static (Arc<ResourceUsageProfiler>, Arc<InterferenceProfiler>) {
        use std::sync::OnceLock;
        static P: OnceLock<(Arc<ResourceUsageProfiler>, Arc<InterferenceProfiler>)> =
            OnceLock::new();
        P.get_or_init(|| {
            let training = TracingCoordinator {
                hosts: HOSTS,
                profile_days: 1,
                training_stride: 20,
            }
            .collect(workload())
            .expect("profiling succeeds");
            (
                Arc::new(ResourceUsageProfiler::from_training(&training)),
                Arc::new(
                    InterferenceProfiler::train(&training, ProfilerConfig::default())
                        .expect("training succeeds"),
                ),
            )
        })
    }

    fn dist(k: usize, channel: Option<ChannelChaosConfig>) -> DistributedOptum {
        let (usage, interference) = profilers();
        let mut s = DistributedOptum::with_shared(
            k,
            OptumConfig::default(),
            usage.clone(),
            interference.clone(),
        )
        .expect("k >= 1");
        if let Some(c) = channel {
            s.set_channel_chaos(c);
        }
        s
    }

    fn run_dist(s: DistributedOptum) -> SimResult {
        run(workload(), s, SimConfig::new(HOSTS)).expect("simulation succeeds")
    }

    /// Pod and message conservation under an arbitrary lossy channel:
    /// every submitted pod is either placed or still waiting (none
    /// vanish, none double-place — a placed pod has exactly one host
    /// and one placement tick), every dropped send resolves to exactly
    /// one retry or one exhaustion, every dedup ack answers a
    /// duplicate, and the same (seed, loss, k) replays bit-identically.
    fn assert_conserved(r: &SimResult, stats: &DistStats) {
        assert_eq!(r.outcomes.len(), workload().pods.len());
        let placed = r.outcomes.iter().filter(|o| o.scheduled()).count();
        let waiting = r.outcomes.iter().filter(|o| !o.scheduled()).count();
        assert_eq!(placed + waiting, r.outcomes.len());
        for o in &r.outcomes {
            assert_eq!(o.node.is_some(), o.placed_at.is_some(), "pod {:?}", o.id);
            if o.completed_at.is_some() {
                assert!(o.scheduled(), "pod {:?} completed unplaced", o.id);
            }
        }
        // No data-plane faults in the plan: the churn ledger is empty
        // (message loss defers pods, it never evicts them).
        assert_eq!(r.churn, optum_sim::ChurnStats::default());
        // Channel accounting: drops split exactly into retries and
        // exhaustions; acks never exceed duplicate deliveries.
        let dropped = DistStats::get(&stats.dropped);
        let retries = DistStats::get(&stats.retries);
        let exhausted = DistStats::get(&stats.exhausted);
        assert_eq!(
            dropped,
            retries + exhausted,
            "dropped {dropped} != retries {retries} + exhausted {exhausted}"
        );
        assert!(DistStats::get(&stats.dedup_acks) <= DistStats::get(&stats.duplicated));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        #[test]
        fn lossy_channels_conserve_pods_and_messages(
            seed in any::<u64>(),
            loss in 0.01f64..0.6,
            k in 1usize..5,
        ) {
            let s = dist(k, Some(ChannelChaosConfig::lossy(seed, loss)));
            let stats = s.stats_handle();
            let r = run_dist(s);
            assert_conserved(&r, &stats);
            // Bit-identical replay of the same lossy run.
            let s2 = dist(k, Some(ChannelChaosConfig::lossy(seed, loss)));
            let r2 = run_dist(s2);
            prop_assert_eq!(&r.outcomes, &r2.outcomes);
            prop_assert_eq!(&r.violations, &r2.violations);
        }
    }

    /// A zero-loss channel is bit-identical to a run that never heard
    /// of channel chaos, and the experiment fan-out preserves that at
    /// 1 and 4 worker threads (the sim itself is single-threaded; the
    /// pool only changes where each run executes).
    #[test]
    fn loss_zero_is_bit_identical_to_chaos_free_at_1_and_4_threads() {
        let baseline = run_dist(dist(2, None));
        let zero_stats;
        {
            let s = dist(2, Some(ChannelChaosConfig::lossy(9, 0.0)));
            zero_stats = s.stats_handle();
            let zero = run_dist(s);
            assert_eq!(baseline.outcomes, zero.outcomes);
            assert_eq!(baseline.violations, zero.violations);
            assert_eq!(baseline.cluster_series, zero.cluster_series);
        }
        assert_eq!(DistStats::get(&zero_stats.dropped), 0);
        assert_eq!(DistStats::get(&zero_stats.retries), 0);
        for threads in [1usize, 4] {
            let schedulers = vec![
                dist(2, None),
                dist(2, Some(ChannelChaosConfig::lossy(9, 0.0))),
            ];
            let results: Vec<SimResult> =
                optum_parallel::parallel_map_owned_threads(threads, schedulers, |_, s| run_dist(s));
            for r in &results {
                assert_eq!(
                    baseline.outcomes, r.outcomes,
                    "thread count {threads} perturbed a zero-loss run"
                );
            }
        }
    }
}

/// A second crash on a node that is already Down is idempotent: it is
/// not counted and evicts nothing, so the run is bit-identical to the
/// single-crash plan.
#[test]
fn a_crash_on_a_down_node_is_idempotent() {
    let first = FaultEvent {
        at: Tick(100),
        node: NodeId(0),
        kind: FaultKind::Crash,
    };
    let double = vec![
        first,
        FaultEvent {
            at: Tick(101),
            node: NodeId(0),
            kind: FaultKind::Crash,
        },
    ];
    let r2 = run_with(double);
    let r1 = run_with(vec![first]);
    assert_eq!(r1.churn.crashes, 1);
    assert_eq!(r2.churn.crashes, 1, "crash on a Down node was counted");
    assert_eq!(r1.outcomes, r2.outcomes);
    assert_eq!(r1.churn, r2.churn);
    assert_eq!(r1.violations, r2.violations);
    assert_consistent(&r2);
}
