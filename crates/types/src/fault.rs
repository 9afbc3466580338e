//! Node lifecycle states and fault-injection events.
//!
//! Real unified platforms run under constant churn: hosts crash and
//! recover, go through maintenance drains, and transiently degrade
//! (thermal throttling, noisy co-located daemons). These types are the
//! vocabulary of that churn: the simulator consumes a time-sorted
//! [`FaultEvent`] plan and drives each node through the
//! [`NodeLifecycle`] state machine; the `optum-chaos` crate generates
//! such plans deterministically from a seed.

use crate::ids::NodeId;
use crate::time::Tick;

/// Lifecycle state of a host.
///
/// Only [`NodeLifecycle::Up`] nodes accept new placements. A crash
/// ([`FaultKind::Crash`]) forces the node [`NodeLifecycle::Down`] and
/// its pods lose their progress; a maintenance drain
/// ([`FaultKind::DrainStart`]) moves it to [`NodeLifecycle::Draining`]
/// and evicts pods gracefully (progress kept).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum NodeLifecycle {
    /// Healthy and schedulable.
    #[default]
    Up,
    /// Under maintenance: unschedulable, resident pods evicted
    /// gracefully.
    Draining,
    /// Crashed: unschedulable, resident pods killed.
    Down,
}

impl NodeLifecycle {
    /// Whether the node may receive new placements.
    pub fn is_schedulable(&self) -> bool {
        matches!(self, NodeLifecycle::Up)
    }
}

/// What happens to a node at a fault event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// The node fails abruptly: it goes [`NodeLifecycle::Down`] and
    /// every resident pod is killed (progress lost).
    Crash,
    /// A crashed node returns to service.
    Recover,
    /// Maintenance begins: the node drains (graceful eviction,
    /// progress kept) and stops accepting placements.
    DrainStart,
    /// Maintenance ends.
    DrainEnd,
    /// Transient degradation: the node's effective capacity shrinks to
    /// `factor` × nominal until [`FaultKind::DegradeEnd`].
    Degrade {
        /// Effective-capacity multiplier in `(0, 1]`.
        factor: f64,
    },
    /// Degradation ends; full capacity restored.
    DegradeEnd,
    /// One resident pod is killed (a straggler injection). The victim
    /// is chosen as `selector % resident_pod_count` at apply time, so
    /// the event stays meaningful whatever is resident.
    PodKill {
        /// Deterministic victim selector.
        selector: u64,
    },
}

impl FaultKind {
    /// Tie-break rank for events at the same tick on the same node:
    /// state-restoring events apply before state-breaking ones, so a
    /// recover + crash at the same tick nets out to a crashed node.
    pub fn rank(&self) -> u8 {
        match self {
            FaultKind::Recover => 0,
            FaultKind::DrainEnd => 1,
            FaultKind::DegradeEnd => 2,
            FaultKind::Crash => 3,
            FaultKind::DrainStart => 4,
            FaultKind::Degrade { .. } => 5,
            FaultKind::PodKill { .. } => 6,
        }
    }
}

/// One scheduled fault: at tick `at`, `kind` happens to `node`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// When the fault fires.
    pub at: Tick,
    /// The affected host.
    pub node: NodeId,
    /// What happens.
    pub kind: FaultKind,
}

impl FaultEvent {
    /// Total deterministic ordering key: time, then node, then kind
    /// rank, then the kind's payload. Fault plans are sorted by this
    /// key so injection order never depends on generation order.
    pub fn order_key(&self) -> (u64, u32, u8, u64) {
        let payload = match self.kind {
            FaultKind::Degrade { factor } => factor.to_bits(),
            FaultKind::PodKill { selector } => selector,
            _ => 0,
        };
        (self.at.0, self.node.0, self.kind.rank(), payload)
    }
}

/// Sorts a fault plan into canonical apply order.
pub fn sort_fault_plan(events: &mut [FaultEvent]) {
    events.sort_by_key(FaultEvent::order_key);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_up_is_schedulable() {
        assert!(NodeLifecycle::Up.is_schedulable());
        assert!(!NodeLifecycle::Draining.is_schedulable());
        assert!(!NodeLifecycle::Down.is_schedulable());
        assert_eq!(NodeLifecycle::default(), NodeLifecycle::Up);
    }

    #[test]
    fn sort_is_canonical() {
        let mk = |at: u64, node: u32, kind: FaultKind| FaultEvent {
            at: Tick(at),
            node: NodeId(node),
            kind,
        };
        let mut a = vec![
            mk(5, 1, FaultKind::Crash),
            mk(5, 1, FaultKind::Recover),
            mk(2, 9, FaultKind::PodKill { selector: 7 }),
            mk(5, 0, FaultKind::DrainStart),
        ];
        let mut b: Vec<FaultEvent> = a.iter().rev().copied().collect();
        sort_fault_plan(&mut a);
        sort_fault_plan(&mut b);
        assert_eq!(a, b);
        assert_eq!(a[0].at, Tick(2));
        // Recover applies before Crash at the same (tick, node).
        assert_eq!(a[2].kind, FaultKind::Recover);
        assert_eq!(a[3].kind, FaultKind::Crash);
    }
}
