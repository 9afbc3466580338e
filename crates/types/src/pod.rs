//! Pod descriptors and lifecycle.

use crate::ids::{AppId, NodeId, PodId};
use crate::resources::Resources;
use crate::slo::SloClass;
use crate::time::Tick;

/// Static description of a unified task request (one pod).
///
/// Mirrors the trace's "pod basic information": identity, application,
/// SLO class, resource request and limit, and submission time. Best-
/// effort pods additionally carry their nominal (contention-free)
/// duration; the simulator inflates it according to host contention.
#[derive(Debug, Clone, PartialEq)]
pub struct PodSpec {
    /// Unique pod identifier.
    pub id: PodId,
    /// The application this pod belongs to.
    pub app: AppId,
    /// SLO class of the request.
    pub slo: SloClass,
    /// Resources the pod asks for (the scheduler's planning quantity).
    pub request: Resources,
    /// Maximum resources the pod may consume before being throttled.
    pub limit: Resources,
    /// Tick at which the request is submitted to the API server.
    pub arrival: Tick,
    /// Nominal duration in ticks for finite (batch) pods; `None` for
    /// long-running services, which live to the end of the window.
    pub nominal_duration: Option<u64>,
}

impl PodSpec {
    /// True when the pod eventually terminates on its own.
    pub fn is_finite(&self) -> bool {
        self.nominal_duration.is_some()
    }
}

/// Lifecycle phase of a pod inside the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PodPhase {
    /// Submitted but not yet placed; accumulating waiting time.
    Pending,
    /// Placed and running on a node.
    Running,
    /// Finished (batch pods) or stopped at window end.
    Completed,
    /// Evicted by a higher-priority pod and requeued.
    Preempted,
}

/// Why a pending pod could not be scheduled in a given round.
///
/// Fig. 9(b) attributes scheduling delays to insufficient CPU,
/// insufficient memory, both, or other causes (affinity, temporary
/// storage, ...).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DelayCause {
    /// Both CPU and memory were insufficient on all candidates.
    CpuAndMemory,
    /// Only CPU was insufficient.
    Cpu,
    /// Only memory was insufficient.
    Memory,
    /// Affinity or other non-resource constraints.
    Other,
    /// The pod was evicted from its host (preemption or a fault) and
    /// is waiting to be rescheduled.
    Eviction,
}

impl DelayCause {
    /// Display label matching Fig. 9(b).
    pub fn label(&self) -> &'static str {
        match self {
            DelayCause::CpuAndMemory => "CPU & Mem",
            DelayCause::Cpu => "CPU",
            DelayCause::Memory => "Mem",
            DelayCause::Other => "Other",
            DelayCause::Eviction => "Eviction",
        }
    }
}

/// A placement decision: pod → node, made at a tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    /// The placed pod.
    pub pod: PodId,
    /// The selected host.
    pub node: NodeId,
    /// When the decision took effect.
    pub at: Tick,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(duration: Option<u64>) -> PodSpec {
        PodSpec {
            id: PodId(1),
            app: AppId(2),
            slo: SloClass::Be,
            request: Resources::new(0.02, 0.01),
            limit: Resources::new(0.04, 0.02),
            arrival: Tick(100),
            nominal_duration: duration,
        }
    }

    #[test]
    fn finite_vs_long_running() {
        assert!(spec(Some(10)).is_finite());
        assert!(!spec(None).is_finite());
    }

    #[test]
    fn delay_cause_labels() {
        assert_eq!(DelayCause::CpuAndMemory.label(), "CPU & Mem");
        assert_eq!(DelayCause::Other.label(), "Other");
    }
}
