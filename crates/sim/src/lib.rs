//! Discrete-event cluster simulator for unified scheduling.
//!
//! Replays a generated [`optum_trace::Workload`] against a pluggable
//! [`Scheduler`], advancing in 30-second ticks:
//!
//! 1. newly arrived unified requests enter the pending queue;
//! 2. the scheduler places pending pods (highest SLO class first) with
//!    a per-tick budget modeling real scheduler throughput; LSR pods
//!    may preempt BE pods when no host fits;
//! 3. the ground-truth physics produces every pod's actual usage; CPU
//!    over-runs are throttled proportionally and counted as capacity
//!    violations;
//! 4. PSI windows advance for latency-sensitive pods and best-effort
//!    progress integrates under contention, inflating completion times;
//! 5. the tracing layer records per-tick cluster statistics, sampled
//!    pod series, waiting-time outcomes, predictor-accuracy points and
//!    (optionally) the offline-profiling dataset Optum trains on.
//!
//! The result ([`SimResult`]) carries everything the paper's figures
//! need. Simulations are fully deterministic: identical configuration
//! and scheduler behavior yield identical results.

pub mod admission;
pub mod appstats;
pub mod checkpoint;
pub mod config;
pub mod engine;
pub mod node;
pub mod result;
pub mod scheduler;
#[doc(hidden)]
pub mod testing;
pub mod training;
pub mod view;

pub use admission::{Admission, Admit};
pub use appstats::AppStatsStore;
pub use checkpoint::{
    read_snapshot_file, write_snapshot_file, Fingerprint, Snap, SnapPart, SnapReader, SnapWriter,
};
pub use config::{PredictorEval, SimConfig};
pub use engine::{physics_stage_table, Simulator, StepOutbox, SubmitEntry};
pub use node::{NodeRuntime, PodPhysics, ResidentPod};
pub use result::{
    ChurnStats, ClassChurn, ClassOverload, ClusterTickStats, NodeSnapshot, OverloadStats,
    PodOutcome, PodPoint, SimResult, ViolationStats,
};
pub use scheduler::{Decision, DecisionBudget, Scheduler};
pub use training::{AppUsageProfile, CtSample, EroTable, PsiSample, TrainingData, TripleEroTable};
pub use view::ClusterView;

/// Runs a workload under a scheduler and returns the collected result.
pub fn run<S: Scheduler>(
    workload: &optum_trace::Workload,
    scheduler: S,
    config: SimConfig,
) -> optum_types::Result<SimResult> {
    Simulator::new(workload, scheduler, config)?.run()
}
