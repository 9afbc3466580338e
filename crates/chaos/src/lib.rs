//! Deterministic, seed-driven fault-plan generation.
//!
//! The paper evaluates Optum on a healthy cluster; real unified
//! platforms run under constant churn. This crate generates the churn:
//! given a [`ChaosConfig`], [`generate_plan`] produces a canonical,
//! time-sorted sequence of [`FaultEvent`]s — node crashes with
//! exponential inter-failure times and exponential repair times,
//! periodic-ish maintenance drains, transient capacity degradation,
//! and cluster-wide straggler pod kills — that `optum-sim` injects
//! into its tick loop.
//!
//! Determinism contract: the plan is a pure function of the config.
//! Every fault channel draws from its own counter-derived stream
//! (SplitMix64), so changing one channel's parameters never perturbs
//! another channel's events, and the final [`sort_fault_plan`] pass
//! makes the order independent of generation order.

use optum_types::{sort_fault_plan, FaultEvent, FaultKind, NodeId, Tick, TICKS_PER_DAY};

pub mod control;
pub mod storm;

pub use control::{
    generate_outages, ChannelChaosConfig, OutageWindow, PredictorChaosConfig, ProposalFate,
};
/// Re-exported so existing users keep compiling; the generator itself
/// lives in `optum-types` so dependency-light crates (the simulator's
/// lossy-channel wrapper) can share the exact stream definition.
pub use optum_types::SplitMix64;
pub use storm::{generate_storm, StormPlanConfig};

/// Derives an independent stream for `(seed, node, channel)`.
fn stream(seed: u64, node: u64, channel: u64) -> SplitMix64 {
    SplitMix64::stream(seed, node, channel)
}

/// Parameters of a fault plan. All intervals are *means* of
/// exponential inter-event times, in ticks; `f64::INFINITY` disables a
/// channel entirely.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosConfig {
    /// Seed of every stream.
    pub seed: u64,
    /// Hosts in the cluster (events target nodes `0..nodes`).
    pub nodes: u32,
    /// Plan horizon: no event fires at or after this tick.
    pub window_ticks: u64,
    /// Per-node mean time between crashes (MTBF).
    pub crash_mtbf_ticks: f64,
    /// Mean repair time after a crash (MTTR).
    pub crash_mttr_ticks: f64,
    /// Per-node mean time between maintenance drains.
    pub drain_interval_ticks: f64,
    /// Fixed drain duration.
    pub drain_duration_ticks: u64,
    /// Per-node mean time between degradation episodes.
    pub degrade_interval_ticks: f64,
    /// Fixed degradation duration.
    pub degrade_duration_ticks: u64,
    /// Effective-capacity multiplier while degraded.
    pub degrade_factor: f64,
    /// Cluster-wide mean time between straggler pod kills.
    pub pod_kill_interval_ticks: f64,
}

impl ChaosConfig {
    /// A fully quiet configuration: no channel enabled, empty plan.
    pub fn quiet(nodes: u32, window_ticks: u64) -> ChaosConfig {
        ChaosConfig {
            seed: 0,
            nodes,
            window_ticks,
            crash_mtbf_ticks: f64::INFINITY,
            crash_mttr_ticks: 120.0,
            drain_interval_ticks: f64::INFINITY,
            drain_duration_ticks: 240,
            degrade_interval_ticks: f64::INFINITY,
            degrade_duration_ticks: 120,
            degrade_factor: 0.6,
            pod_kill_interval_ticks: f64::INFINITY,
        }
    }

    /// The churn experiment's single-knob configuration: every channel
    /// scales off one per-node crash MTBF given in days. Crashes repair
    /// in a mean of one hour; drains come six crash-lifetimes apart and
    /// last two hours; degradations (to 60% capacity, one hour) come
    /// three crash-lifetimes apart; straggler kills hit the cluster at
    /// the same aggregate rate as crashes. An infinite MTBF yields an
    /// empty plan.
    pub fn from_mtbf_days(nodes: u32, window_ticks: u64, seed: u64, mtbf_days: f64) -> ChaosConfig {
        if !mtbf_days.is_finite() {
            return ChaosConfig {
                seed,
                ..ChaosConfig::quiet(nodes, window_ticks)
            };
        }
        let mtbf = mtbf_days * TICKS_PER_DAY as f64;
        ChaosConfig {
            seed,
            nodes,
            window_ticks,
            crash_mtbf_ticks: mtbf,
            crash_mttr_ticks: 120.0,
            drain_interval_ticks: 6.0 * mtbf,
            drain_duration_ticks: 240,
            degrade_interval_ticks: 3.0 * mtbf,
            degrade_duration_ticks: 120,
            degrade_factor: 0.6,
            pod_kill_interval_ticks: mtbf / nodes.max(1) as f64,
        }
    }
}

/// Seed-channel salts (one per fault channel).
const CH_CRASH: u64 = 1;
const CH_DRAIN: u64 = 2;
const CH_DEGRADE: u64 = 3;
const CH_KILL: u64 = 4;

/// Generates the canonical fault plan for a configuration.
///
/// The result is sorted by [`FaultEvent::order_key`] and contains only
/// events strictly inside the window. Paired end events (recover,
/// drain end, degrade end) are emitted even when they land past the
/// window start of their begin event — a crash near the window end
/// whose recovery falls outside simply leaves the node down.
pub fn generate_plan(cfg: &ChaosConfig) -> Vec<FaultEvent> {
    let mut events: Vec<FaultEvent> = Vec::new();
    let horizon = cfg.window_ticks;

    // Per-node alternating crash/recover walk.
    if cfg.crash_mtbf_ticks.is_finite() {
        for node in 0..cfg.nodes {
            let mut rng = stream(cfg.seed, node as u64, CH_CRASH);
            let mut t = 0u64;
            loop {
                let gap = tick_gap(rng.exp(cfg.crash_mtbf_ticks));
                let Some(crash_at) = t.checked_add(gap).filter(|&x| x < horizon) else {
                    break;
                };
                events.push(FaultEvent {
                    at: Tick(crash_at),
                    node: NodeId(node),
                    kind: FaultKind::Crash,
                });
                let repair = tick_gap(rng.exp(cfg.crash_mttr_ticks));
                let recover_at = crash_at.saturating_add(repair);
                if recover_at >= horizon {
                    break; // down to the end of the window
                }
                events.push(FaultEvent {
                    at: Tick(recover_at),
                    node: NodeId(node),
                    kind: FaultKind::Recover,
                });
                t = recover_at;
            }
        }
    }

    // Per-node maintenance drains of fixed duration.
    if cfg.drain_interval_ticks.is_finite() {
        for node in 0..cfg.nodes {
            let mut rng = stream(cfg.seed, node as u64, CH_DRAIN);
            let mut t = 0u64;
            loop {
                let gap = tick_gap(rng.exp(cfg.drain_interval_ticks));
                let Some(start) = t.checked_add(gap).filter(|&x| x < horizon) else {
                    break;
                };
                events.push(FaultEvent {
                    at: Tick(start),
                    node: NodeId(node),
                    kind: FaultKind::DrainStart,
                });
                let end = start.saturating_add(cfg.drain_duration_ticks.max(1));
                if end >= horizon {
                    break;
                }
                events.push(FaultEvent {
                    at: Tick(end),
                    node: NodeId(node),
                    kind: FaultKind::DrainEnd,
                });
                t = end;
            }
        }
    }

    // Per-node transient degradation episodes.
    if cfg.degrade_interval_ticks.is_finite() {
        for node in 0..cfg.nodes {
            let mut rng = stream(cfg.seed, node as u64, CH_DEGRADE);
            let mut t = 0u64;
            loop {
                let gap = tick_gap(rng.exp(cfg.degrade_interval_ticks));
                let Some(start) = t.checked_add(gap).filter(|&x| x < horizon) else {
                    break;
                };
                events.push(FaultEvent {
                    at: Tick(start),
                    node: NodeId(node),
                    kind: FaultKind::Degrade {
                        factor: cfg.degrade_factor.clamp(0.05, 1.0),
                    },
                });
                let end = start.saturating_add(cfg.degrade_duration_ticks.max(1));
                if end >= horizon {
                    break;
                }
                events.push(FaultEvent {
                    at: Tick(end),
                    node: NodeId(node),
                    kind: FaultKind::DegradeEnd,
                });
                t = end;
            }
        }
    }

    // Cluster-wide straggler kills.
    if cfg.pod_kill_interval_ticks.is_finite() && cfg.nodes > 0 {
        let mut rng = stream(cfg.seed, u64::MAX, CH_KILL);
        let mut t = 0u64;
        loop {
            let gap = tick_gap(rng.exp(cfg.pod_kill_interval_ticks));
            let Some(at) = t.checked_add(gap).filter(|&x| x < horizon) else {
                break;
            };
            let node = (rng.next_u64() % cfg.nodes as u64) as u32;
            let selector = rng.next_u64();
            events.push(FaultEvent {
                at: Tick(at),
                node: NodeId(node),
                kind: FaultKind::PodKill { selector },
            });
            t = at;
        }
    }

    sort_fault_plan(&mut events);
    events
}

/// Routes a canonical fault plan to the shards of a
/// [`ShardLayout`](optum_types::ShardLayout): each shard receives the
/// subsequence of events targeting nodes it owns, preserving the
/// global [`FaultEvent::order_key`] order within every shard. Events
/// on a node outside the fleet are dropped, as the legacy engine skips
/// them; the concatenation of the routed plans is a permutation of the
/// rest, and routing a single-shard layout keeps every in-fleet event.
pub fn route_plan(layout: &optum_types::ShardLayout, plan: &[FaultEvent]) -> Vec<Vec<FaultEvent>> {
    let mut routed: Vec<Vec<FaultEvent>> = vec![Vec::new(); layout.shard_count()];
    for ev in plan {
        if let Some(s) = layout.shard_of(ev.node) {
            routed[s].push(*ev);
        }
    }
    routed
}

/// Rounds an exponential draw up to a whole positive tick gap.
fn tick_gap(draw: f64) -> u64 {
    if !draw.is_finite() {
        return u64::MAX;
    }
    (draw.ceil() as u64).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy() -> ChaosConfig {
        ChaosConfig::from_mtbf_days(24, 2880 * 2, 7, 0.5)
    }

    #[test]
    fn route_plan_partitions_in_order() {
        let plan = generate_plan(&busy());
        assert!(!plan.is_empty());
        let layout = optum_types::ShardLayout::contiguous(24, 4);
        let routed = route_plan(&layout, &plan);
        assert_eq!(routed.len(), layout.shard_count());
        // Each shard only sees its own nodes, in global order.
        for (s, events) in routed.iter().enumerate() {
            for ev in events {
                assert_eq!(layout.shard_of(ev.node), Some(s));
            }
            assert!(events
                .windows(2)
                .all(|w| w[0].order_key() <= w[1].order_key()));
        }
        // Concatenation is a permutation of the input.
        let total: usize = routed.iter().map(Vec::len).sum();
        assert_eq!(total, plan.len());
        // Single-shard routing is the identity.
        let single = route_plan(&optum_types::ShardLayout::single(24), &plan);
        assert_eq!(single.len(), 1);
        assert_eq!(single[0], plan);
        // An event outside the fleet reaches no shard.
        let mut stray = plan.clone();
        stray.push(FaultEvent {
            at: Tick(1),
            node: NodeId(24),
            kind: FaultKind::Crash,
        });
        assert_eq!(route_plan(&layout, &stray), routed);
    }

    #[test]
    fn quiet_plan_is_empty() {
        assert!(generate_plan(&ChaosConfig::quiet(100, 23_040)).is_empty());
        assert!(
            generate_plan(&ChaosConfig::from_mtbf_days(100, 23_040, 42, f64::INFINITY)).is_empty()
        );
    }

    #[test]
    fn plan_is_deterministic_and_sorted() {
        let a = generate_plan(&busy());
        let b = generate_plan(&busy());
        assert_eq!(a, b);
        assert!(!a.is_empty());
        for w in a.windows(2) {
            assert!(w[0].order_key() <= w[1].order_key(), "plan not sorted");
        }
    }

    #[test]
    fn seed_changes_the_plan() {
        let a = generate_plan(&busy());
        let b = generate_plan(&ChaosConfig { seed: 8, ..busy() });
        assert_ne!(a, b);
    }

    #[test]
    fn events_stay_inside_window_and_cluster() {
        let cfg = busy();
        let plan = generate_plan(&cfg);
        for e in &plan {
            assert!(e.at.0 < cfg.window_ticks);
            assert!(e.node.0 < cfg.nodes);
        }
    }

    #[test]
    fn crash_recover_alternate_per_node() {
        let cfg = busy();
        let plan = generate_plan(&cfg);
        for node in 0..cfg.nodes {
            let mut down = false;
            for e in plan.iter().filter(|e| e.node.0 == node) {
                match e.kind {
                    FaultKind::Crash => {
                        assert!(!down, "double crash on node {node}");
                        down = true;
                    }
                    FaultKind::Recover => {
                        assert!(down, "recover while up on node {node}");
                        down = false;
                    }
                    _ => {}
                }
            }
        }
    }

    #[test]
    fn mtbf_controls_crash_count() {
        let window = 2880 * 8;
        let count = |days: f64| {
            generate_plan(&ChaosConfig::from_mtbf_days(50, window, 42, days))
                .iter()
                .filter(|e| matches!(e.kind, FaultKind::Crash))
                .count()
        };
        assert!(count(0.5) > count(4.0), "shorter MTBF must crash more");
    }

    #[test]
    fn splitmix_is_reproducible_and_in_range() {
        let mut a = SplitMix64::new(99);
        let mut b = SplitMix64::new(99);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut r = SplitMix64::new(3);
        let mut sum = 0.0;
        for _ in 0..2000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        assert!((sum / 2000.0 - 0.5).abs() < 0.05, "uniform mean off");
        // Exponential mean roughly matches.
        let mut s = 0.0;
        for _ in 0..2000 {
            s += r.exp(40.0);
        }
        assert!((s / 2000.0 - 40.0).abs() < 5.0, "exp mean {}", s / 2000.0);
    }
}
