//! Simulation results: everything the paper's figures are computed
//! from.

use optum_predictors::PredictionErrors;
use optum_types::{AppId, DelayCause, NodeId, PodId, PsiWindow, Resources, SloClass, Tick};

use crate::training::TrainingData;

/// Final outcome of one pod.
#[derive(Debug, Clone, PartialEq)]
pub struct PodOutcome {
    /// Pod identity.
    pub id: PodId,
    /// Owning application.
    pub app: AppId,
    /// SLO class.
    pub slo: SloClass,
    /// Resource request.
    pub request: Resources,
    /// Submission tick.
    pub arrival: Tick,
    /// Host the pod landed on, if placed.
    pub node: Option<NodeId>,
    /// Tick the pod was placed, if placed.
    pub placed_at: Option<Tick>,
    /// Ticks spent waiting in the pending queue (placement − arrival;
    /// for never-placed pods, window end − arrival).
    pub wait_ticks: u64,
    /// The last recorded reason a scheduling round declined the pod.
    pub delay_cause: Option<DelayCause>,
    /// Completion tick, if the pod finished inside the window.
    pub completed_at: Option<Tick>,
    /// Nominal (contention-free) duration in ticks.
    pub nominal_duration: u64,
    /// Actual wall-clock running duration in ticks (BE pods inflate
    /// under contention).
    pub actual_duration: Option<u64>,
    /// Worst CPU PSI (60-second window) observed while running.
    pub worst_psi: f64,
    /// Maximum pod CPU utilization (usage/request) while running.
    pub max_pod_cpu_util: f64,
    /// Maximum pod memory utilization while running.
    pub max_pod_mem_util: f64,
    /// Maximum CPU utilization of the hosting node while running.
    pub max_host_cpu_util: f64,
    /// Maximum memory utilization of the hosting node while running.
    pub max_host_mem_util: f64,
    /// Mean pod CPU utilization (usage/request) over the run.
    pub mean_pod_cpu_util: f64,
    /// Mean pod memory utilization over the run.
    pub mean_pod_mem_util: f64,
    /// Times this pod was preempted by an LSR pod.
    pub preemptions: u32,
    /// Times this pod was evicted by a fault (node crash or drain, or
    /// a straggler kill), as opposed to scheduler preemption.
    pub evictions: u32,
    /// Alignment-score rank of the chosen host under usage-based
    /// availability (1 = best; recorded when `record_ranks` is set).
    pub rank_by_usage: Option<u32>,
    /// Alignment-score rank under request-based availability.
    pub rank_by_request: Option<u32>,
    /// Tick the admission controller shed this pod (dropped from a
    /// full pending queue), if it was shed. Shed pods are never
    /// placed; their `wait_ticks` is censored at the shed tick.
    pub shed_at: Option<Tick>,
    /// Tick the serve front-end denied this pod because its owning
    /// client connection was evicted (lease expiry or permanent
    /// disconnect) before submitting it. Denied pods never reach the
    /// admission queue; their `wait_ticks` is censored at the denial
    /// tick, mirroring `shed_at`.
    pub disconnected_at: Option<Tick>,
}

// What the run accumulates; the identity fields are rebuilt from the
// workload on restore.
crate::snap_fields!(in PodOutcome {
    node,
    placed_at,
    wait_ticks,
    delay_cause,
    completed_at,
    actual_duration,
    worst_psi,
    max_pod_cpu_util,
    max_pod_mem_util,
    max_host_cpu_util,
    max_host_mem_util,
    mean_pod_cpu_util,
    mean_pod_mem_util,
    preemptions,
    evictions,
    rank_by_usage,
    rank_by_request,
    shed_at,
    disconnected_at
});

impl PodOutcome {
    /// Folds a placement's performance peaks into the outcome (peaks
    /// carry across evictions).
    pub(crate) fn absorb_peaks(&mut self, state: &crate::node::PodPhysics) {
        self.worst_psi = self.worst_psi.max(state.worst_psi);
        self.max_pod_cpu_util = self.max_pod_cpu_util.max(state.max_pod_cpu_util);
        self.max_pod_mem_util = self.max_pod_mem_util.max(state.max_pod_mem_util);
        self.max_host_cpu_util = self.max_host_cpu_util.max(state.max_host_cpu_util);
        self.max_host_mem_util = self.max_host_mem_util.max(state.max_host_mem_util);
    }

    /// Records the mean pod utilization of the pod's last placement.
    pub(crate) fn absorb_mean_util(&mut self, state: &crate::node::PodPhysics) {
        if state.util_ticks > 0 {
            let mean = state.util_sum.scale(1.0 / state.util_ticks as f64);
            self.mean_pod_cpu_util = mean.cpu;
            self.mean_pod_mem_util = mean.mem;
        }
    }

    /// Waiting time in seconds.
    pub fn wait_seconds(&self) -> f64 {
        self.wait_ticks as f64 * optum_types::TICK_SECONDS as f64
    }

    /// Whether the pod was ever placed.
    pub fn scheduled(&self) -> bool {
        self.placed_at.is_some()
    }

    /// Completion-time inflation `(actual − nominal)/nominal`, when
    /// the pod completed.
    pub fn inflation(&self) -> Option<f64> {
        let actual = self.actual_duration? as f64;
        if self.nominal_duration == 0 {
            return None;
        }
        Some((actual - self.nominal_duration as f64) / self.nominal_duration as f64)
    }
}

/// Per-tick cluster aggregate statistics (recorded on a stride).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterTickStats {
    /// The tick.
    pub tick: Tick,
    /// Mean CPU utilization across all hosts.
    pub mean_cpu_util: f64,
    /// Maximum CPU utilization across hosts.
    pub max_cpu_util: f64,
    /// Mean memory utilization across all hosts.
    pub mean_mem_util: f64,
    /// Maximum memory utilization across hosts.
    pub max_mem_util: f64,
    /// Hosts with at least one resident pod. Packing quality shows
    /// here: a scheduler that achieves the same work on fewer active
    /// hosts saves resources (the objective of Eq. 6 / Fig. 19(a)).
    pub active_nodes: usize,
    /// Mean CPU utilization across *active* hosts only.
    pub mean_cpu_util_active: f64,
    /// Mean memory utilization across *active* hosts only.
    pub mean_mem_util_active: f64,
    /// Pods waiting in the pending queue.
    pub pending: usize,
    /// Pods currently running.
    pub running: usize,
    /// BE pods submitted during this tick.
    pub submitted_be: usize,
    /// LS + LSR pods submitted during this tick.
    pub submitted_ls: usize,
    /// Mean per-pod CPU utilization of running BE pods.
    pub mean_be_pod_util: f64,
    /// Mean per-pod CPU utilization of running LS/LSR pods.
    pub mean_ls_pod_util: f64,
    /// Mean QPS of running LS/LSR pods.
    pub mean_ls_qps: f64,
    /// Hosts currently crashed ([`optum_types::NodeLifecycle::Down`]).
    pub down_nodes: usize,
}

crate::snap_fields!(ClusterTickStats {
    tick,
    mean_cpu_util,
    max_cpu_util,
    mean_mem_util,
    max_mem_util,
    active_nodes,
    mean_cpu_util_active,
    mean_mem_util_active,
    pending,
    running,
    submitted_be,
    submitted_ls,
    mean_be_pod_util,
    mean_ls_pod_util,
    mean_ls_qps,
    down_nodes
});

/// One sampled point of a pod's recorded time series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PodPoint {
    /// The tick.
    pub tick: Tick,
    /// Actual usage.
    pub usage: Resources,
    /// CPU PSI windows.
    pub cpu_psi: PsiWindow,
    /// Memory PSI windows.
    pub mem_psi: PsiWindow,
    /// QPS (LS pods).
    pub qps: f64,
    /// Response time in ms (LS pods).
    pub response_time: f64,
    /// Hosting node CPU utilization.
    pub host_cpu_util: f64,
    /// Hosting node memory utilization.
    pub host_mem_util: f64,
    /// Network receive volume proxy.
    pub rx: f64,
    /// Network transmit volume proxy.
    pub tx: f64,
}

crate::snap_fields!(PodPoint {
    tick,
    usage,
    cpu_psi,
    mem_psi,
    qps,
    response_time,
    host_cpu_util,
    host_mem_util,
    rx,
    tx
});

/// A point-in-time snapshot of one node's commitments (drives the
/// over-commitment-rate distributions of Fig. 5).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeSnapshot {
    /// The node.
    pub node: NodeId,
    /// Snapshot tick.
    pub at: Tick,
    /// Node capacity.
    pub capacity: Resources,
    /// Sum of resident requests.
    pub requested: Resources,
    /// Sum of resident limits.
    pub limits: Resources,
    /// Actual usage at the snapshot.
    pub usage: Resources,
    /// Resident pods.
    pub pod_count: u32,
}

crate::snap_fields!(NodeSnapshot {
    node,
    at,
    capacity,
    requested,
    limits,
    usage,
    pod_count
});

/// Capacity-violation accounting.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ViolationStats {
    /// Node-ticks where raw CPU demand exceeded capacity.
    pub cpu_node_ticks: u64,
    /// Node-ticks where raw memory demand exceeded capacity.
    pub mem_node_ticks: u64,
    /// Total node-ticks simulated.
    pub total_node_ticks: u64,
}

impl ViolationStats {
    /// Overall violation rate (violating node-ticks per node-tick).
    pub fn rate(&self) -> f64 {
        if self.total_node_ticks == 0 {
            return 0.0;
        }
        (self.cpu_node_ticks + self.mem_node_ticks) as f64 / self.total_node_ticks as f64
    }
}

crate::snap_fields!(ViolationStats {
    cpu_node_ticks,
    mem_node_ticks,
    total_node_ticks
});

/// Recovery accounting for one SLO class under churn.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ClassChurn {
    /// Fault-driven evictions of pods in this class.
    pub evictions: u64,
    /// Evictions later followed by a successful re-placement.
    pub rescheduled: u64,
    /// Total ticks from eviction to re-placement, over all
    /// re-placements.
    pub resched_ticks: u64,
    /// Evicted pods still un-placed when the window closed.
    pub failed: u64,
}

impl ClassChurn {
    /// Mean time-to-reschedule in ticks (over successful
    /// re-placements).
    pub fn mean_ttr_ticks(&self) -> f64 {
        if self.rescheduled == 0 {
            return 0.0;
        }
        self.resched_ticks as f64 / self.rescheduled as f64
    }
}

crate::snap_fields!(ClassChurn {
    evictions,
    rescheduled,
    resched_ticks,
    failed
});

/// Fault-injection and recovery accounting for one run. All-zero for
/// healthy runs (an empty fault plan).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ChurnStats {
    /// Node crashes applied.
    pub crashes: u64,
    /// Maintenance drains applied.
    pub drains: u64,
    /// Degradation episodes applied.
    pub degradations: u64,
    /// Straggler pod kills applied (only counted when a victim was
    /// resident).
    pub pod_kills: u64,
    /// Node-ticks spent crashed (capacity offline).
    pub down_node_ticks: u64,
    /// Placements the engine rejected because the scheduler's view was
    /// stale: the chosen node had failed or started draining by
    /// decision time. The pod goes back to the queue for a
    /// rescheduling round.
    pub stale_rejections: u64,
    /// Per-class recovery accounting, indexed in [`SloClass::ALL`]
    /// order.
    pub per_class: [ClassChurn; SloClass::ALL.len()],
}

impl ChurnStats {
    /// Recovery accounting of one class.
    pub fn class(&self, slo: SloClass) -> &ClassChurn {
        &self.per_class[slo.index()]
    }

    /// Mutable recovery accounting of one class.
    pub fn class_mut(&mut self, slo: SloClass) -> &mut ClassChurn {
        &mut self.per_class[slo.index()]
    }

    /// Total fault-driven evictions across classes.
    pub fn total_evictions(&self) -> u64 {
        self.per_class.iter().map(|c| c.evictions).sum()
    }
}

crate::snap_fields!(ChurnStats {
    crashes,
    drains,
    degradations,
    pod_kills,
    down_node_ticks,
    stale_rejections,
    per_class
});

/// Admission accounting for one SLO class under overload protection.
///
/// The ledger is conserved by construction: a pod that reaches the
/// controller lands in exactly one of `admitted`, `shed`,
/// `disconnected` (denied because its submitting connection was
/// evicted), or (for BE pods still parked in the throttle buffer when
/// the window closes) `throttled_end`, so
/// `admitted + shed + throttled_end + disconnected == arrivals`
/// holds per class at all times. Shedding a pod that was previously
/// admitted moves it from `admitted` to `shed` (the `admitted` counter
/// is net of sheds, not a monotone event count).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ClassOverload {
    /// Pods of this class that reached the admission controller.
    pub arrivals: u64,
    /// Pods currently accounted as admitted (accepted into the pending
    /// queue and not subsequently shed).
    pub admitted: u64,
    /// Pods dropped by class-aware load shedding (queue over cap).
    pub shed: u64,
    /// Throttle-buffer releases: BE pods deferred by backpressure and
    /// later admitted when the queue drained below the high-water
    /// mark. Each release is also counted in `admitted`.
    pub requeued: u64,
    /// Pods still parked in the BE throttle buffer when the window
    /// closed (neither admitted nor shed).
    pub throttled_end: u64,
    /// Peak number of this class's pods in the pending queue.
    pub max_depth: u64,
    /// Pods denied by the serve front-end because their submitting
    /// connection was evicted (lease expiry or permanent disconnect)
    /// before it could submit them. Always zero for runs without a
    /// service front-end.
    pub disconnected: u64,
}

impl ClassOverload {
    /// The conservation law: every arrival is in exactly one of
    /// `admitted`, `shed`, `throttled_end` or `disconnected`.
    pub fn conserved(&self) -> bool {
        [self.shed, self.throttled_end, self.disconnected]
            .into_iter()
            .try_fold(self.admitted, u64::checked_add)
            == Some(self.arrivals)
    }

    /// Denied-service rate: the fraction of this class's arrivals the
    /// overload protection kept out — shed outright, or still parked
    /// in the throttle buffer when the window closed (backpressure
    /// that never released is denial too, not a technicality; under a
    /// refusing or saturated scheduler most BE pods end there).
    pub fn shed_rate(&self) -> f64 {
        if self.arrivals == 0 {
            return 0.0;
        }
        (self.shed + self.throttled_end) as f64 / self.arrivals as f64
    }
}

crate::snap_fields!(ClassOverload {
    arrivals,
    admitted,
    shed,
    requeued,
    throttled_end,
    max_depth,
    disconnected
});

/// Overload-protection accounting for one run: the admission
/// controller's per-class ledger plus decision-deadline pressure.
/// All-zero except `arrivals`/`admitted`/depths when the queue is
/// unbounded and no decision budget is set.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct OverloadStats {
    /// Per-class admission ledger, indexed in [`SloClass::ALL`] order.
    pub per_class: [ClassOverload; SloClass::ALL.len()],
    /// Peak pending-queue depth (all classes).
    pub max_depth: u64,
    /// Peak BE throttle-buffer occupancy.
    pub throttled_peak: u64,
    /// Scheduling rounds that ran out of decision budget with pods
    /// still waiting.
    pub budget_exhausted_rounds: u64,
}

impl OverloadStats {
    /// Admission ledger of one class.
    pub fn class(&self, slo: SloClass) -> &ClassOverload {
        &self.per_class[slo.index()]
    }

    /// Total pods shed across classes.
    pub fn total_shed(&self) -> u64 {
        self.per_class.iter().map(|c| c.shed).sum()
    }

    /// Whether the per-class conservation invariant holds:
    /// `admitted + shed + throttled_end + disconnected == arrivals`
    /// for every class.
    pub fn conserved(&self) -> bool {
        self.per_class.iter().all(ClassOverload::conserved)
    }

    /// Total pods denied by client-connection eviction across classes.
    pub fn total_disconnected(&self) -> u64 {
        self.per_class.iter().map(|c| c.disconnected).sum()
    }
}

crate::snap_fields!(OverloadStats {
    max_depth,
    throttled_peak,
    budget_exhausted_rounds,
    per_class
});

/// Everything a simulation run produces.
pub struct SimResult {
    /// Scheduler display name.
    pub scheduler: String,
    /// Per-pod outcomes, indexed by pod id.
    pub outcomes: Vec<PodOutcome>,
    /// Strided cluster aggregates.
    pub cluster_series: Vec<ClusterTickStats>,
    /// Full time series for sampled pods.
    pub pod_series: Vec<(PodId, Vec<PodPoint>)>,
    /// Capacity-violation accounting.
    pub violations: ViolationStats,
    /// Fault-injection and recovery accounting (all-zero for healthy
    /// runs).
    pub churn: ChurnStats,
    /// Overload-protection accounting (admission ledger, shed counts,
    /// decision-budget pressure).
    pub overload: OverloadStats,
    /// Predictor-accuracy results (when enabled).
    pub predictor_errors: Vec<(String, PredictionErrors)>,
    /// Offline-profiling dataset (when enabled).
    pub training: Option<TrainingData>,
    /// Per-node commitment snapshot (when `snapshot_tick` is set).
    pub node_snapshot: Vec<NodeSnapshot>,
    /// Last simulated tick (exclusive).
    pub end_tick: Tick,
}

impl SimResult {
    /// Outcomes of pods in a given SLO class.
    pub fn outcomes_of(&self, slo: SloClass) -> impl Iterator<Item = &PodOutcome> {
        self.outcomes.iter().filter(move |o| o.slo == slo)
    }

    /// Mean CPU utilization across the recorded series.
    pub fn mean_cpu_utilization(&self) -> f64 {
        if self.cluster_series.is_empty() {
            return 0.0;
        }
        self.cluster_series
            .iter()
            .map(|s| s.mean_cpu_util)
            .sum::<f64>()
            / self.cluster_series.len() as f64
    }

    /// Mean CPU utilization of the *active* hosts across the recorded
    /// series (the quantity Fig. 19(a) compares between schedulers).
    pub fn mean_active_cpu_util(&self) -> f64 {
        if self.cluster_series.is_empty() {
            return 0.0;
        }
        self.cluster_series
            .iter()
            .map(|s| s.mean_cpu_util_active)
            .sum::<f64>()
            / self.cluster_series.len() as f64
    }

    /// Fraction of placed pods among all submitted.
    pub fn placement_rate(&self) -> f64 {
        if self.outcomes.is_empty() {
            return 0.0;
        }
        self.outcomes.iter().filter(|o| o.scheduled()).count() as f64 / self.outcomes.len() as f64
    }

    /// [`Fingerprint`](crate::checkpoint::Fingerprint) digest over
    /// every pod outcome, the admission/churn ledgers and the recorded
    /// cluster series — two runs with equal digests placed, completed,
    /// shed and measured identically. The serve protocol reports this
    /// as the deterministic end-state digest of a session (the
    /// counterpart of `ScaleResult::digest`).
    pub fn digest(&self) -> u64 {
        let mut fp = crate::checkpoint::Fingerprint::new();
        fp.fold(self.end_tick.0);
        fp.fold(self.outcomes.len() as u64);
        for o in &self.outcomes {
            fp.fold(o.node.map(|n| n.0 as u64).unwrap_or(u64::MAX));
            fp.fold(o.placed_at.map(|t| t.0).unwrap_or(u64::MAX));
            fp.fold(o.completed_at.map(|t| t.0).unwrap_or(u64::MAX));
            fp.fold(o.shed_at.map(|t| t.0).unwrap_or(u64::MAX));
            fp.fold(o.wait_ticks);
            fp.fold(o.preemptions as u64);
            fp.fold(o.evictions as u64);
            fp.fold(o.actual_duration.unwrap_or(u64::MAX));
            // Folded conditionally so every pre-existing run (no serve
            // front-end, hence no denials) keeps its digest byte for
            // byte; a marker distinguishes "denied at t" from any
            // plain-field continuation.
            if let Some(t) = o.disconnected_at {
                fp.fold(0xD15C);
                fp.fold(t.0);
            }
        }
        for c in &self.overload.per_class {
            fp.fold(c.arrivals);
            fp.fold(c.admitted);
            fp.fold(c.shed);
            fp.fold(c.requeued);
            fp.fold(c.throttled_end);
            if c.disconnected != 0 {
                fp.fold(c.disconnected);
            }
        }
        fp.fold(self.churn.total_evictions());
        fp.fold(self.violations.cpu_node_ticks);
        fp.fold(self.violations.mem_node_ticks);
        fp.fold(self.violations.total_node_ticks);
        fp.fold(self.cluster_series.len() as u64);
        for s in &self.cluster_series {
            fp.fold(s.tick.0);
            fp.fold_f64(s.mean_cpu_util);
            fp.fold_f64(s.mean_mem_util);
            fp.fold(s.pending as u64);
            fp.fold(s.running as u64);
            fp.fold(s.active_nodes as u64);
        }
        fp.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome() -> PodOutcome {
        PodOutcome {
            id: PodId(0),
            app: AppId(0),
            slo: SloClass::Be,
            request: Resources::new(0.02, 0.01),
            arrival: Tick(10),
            node: Some(NodeId(3)),
            placed_at: Some(Tick(14)),
            wait_ticks: 4,
            delay_cause: Some(DelayCause::Cpu),
            completed_at: Some(Tick(100)),
            nominal_duration: 50,
            actual_duration: Some(86),
            worst_psi: 0.2,
            max_pod_cpu_util: 0.4,
            max_pod_mem_util: 0.9,
            max_host_cpu_util: 0.8,
            max_host_mem_util: 0.6,
            mean_pod_cpu_util: 0.3,
            mean_pod_mem_util: 0.8,
            preemptions: 0,
            evictions: 0,
            rank_by_usage: None,
            rank_by_request: None,
            shed_at: None,
            disconnected_at: None,
        }
    }

    #[test]
    fn outcome_accessors() {
        let o = outcome();
        assert_eq!(o.wait_seconds(), 120.0);
        assert!(o.scheduled());
        assert!((o.inflation().unwrap() - 0.72).abs() < 1e-12);
    }

    /// A preemption or eviction count above `u32::MAX` is refused, not
    /// truncated into a plausible count.
    #[test]
    fn outcome_counts_are_range_checked() {
        use crate::checkpoint::{SnapPart, SnapReader, SnapWriter};
        for field in 0..2 {
            let mut o = outcome();
            let marker = 0xabcd_u32;
            *[&mut o.preemptions, &mut o.evictions][field] = marker;
            let mut w = SnapWriter::new();
            o.snap_part(&mut w);
            let mut bytes = w.into_bytes();
            let at = bytes
                .chunks(8)
                .position(|c| c == (marker as u64).to_le_bytes())
                .unwrap()
                * 8;
            let mut back = outcome();
            back.unsnap_part(&mut SnapReader::new(&bytes)).unwrap();
            assert_eq!(back, o);
            bytes[at + 4] = 1; // the word is now 2^32 + marker
            assert!(back.unsnap_part(&mut SnapReader::new(&bytes)).is_err());
        }
    }

    #[test]
    fn violation_rate() {
        let v = ViolationStats {
            cpu_node_ticks: 5,
            mem_node_ticks: 5,
            total_node_ticks: 1000,
        };
        assert!((v.rate() - 0.01).abs() < 1e-12);
        assert_eq!(ViolationStats::default().rate(), 0.0);
    }

    #[test]
    fn overload_class_accounting_and_conservation() {
        let mut o = OverloadStats::default();
        let be = &mut o.per_class[SloClass::Be.index()];
        be.arrivals = 10;
        be.admitted = 6;
        be.shed = 3;
        be.throttled_end = 1;
        be.max_depth = 7;
        assert!(o.conserved());
        // Denied-service rate: 3 shed + 1 still throttled of 10.
        assert!((o.class(SloClass::Be).shed_rate() - 0.4).abs() < 1e-12);
        assert_eq!(o.total_shed(), 3);
        o.per_class[SloClass::Ls.index()].shed = 1;
        assert!(!o.conserved(), "LS shed without an arrival must trip");
        assert_eq!(o.class(SloClass::Lsr).shed_rate(), 0.0);
    }

    #[test]
    fn disconnected_pods_enter_the_conservation_law() {
        let mut o = OverloadStats::default();
        let be = &mut o.per_class[SloClass::Be.index()];
        be.arrivals = 10;
        be.admitted = 6;
        be.shed = 2;
        be.disconnected = 2;
        assert!(o.conserved());
        assert_eq!(o.total_disconnected(), 2);
        o.per_class[SloClass::Be.index()].disconnected = 3;
        assert!(!o.conserved(), "a denial without an arrival must trip");
    }

    #[test]
    fn churn_class_accounting() {
        let mut c = ChurnStats::default();
        c.class_mut(SloClass::Be).evictions += 3;
        c.class_mut(SloClass::Be).rescheduled += 2;
        c.class_mut(SloClass::Be).resched_ticks += 10;
        c.class_mut(SloClass::Ls).evictions += 1;
        assert_eq!(c.class(SloClass::Be).evictions, 3);
        assert_eq!(c.total_evictions(), 4);
        assert!((c.class(SloClass::Be).mean_ttr_ticks() - 5.0).abs() < 1e-12);
        assert_eq!(c.class(SloClass::Lsr).mean_ttr_ticks(), 0.0);
    }
}
