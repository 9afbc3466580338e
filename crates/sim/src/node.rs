//! Per-node runtime state.

use std::sync::atomic::{AtomicU64, Ordering};

use optum_predictors::PodInfo;
use optum_types::{
    AppId, NodeLifecycle, NodeSpec, PodId, PsiWindow, Resources, Result, SloClass, Tick,
};

use crate::checkpoint::{Snap, SnapPart, SnapReader, SnapWriter};

/// A pod resident on a node, as the node tracks it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResidentPod {
    /// Pod identity.
    pub id: PodId,
    /// Owning application.
    pub app: AppId,
    /// SLO class.
    pub slo: SloClass,
    /// Resource request.
    pub request: Resources,
    /// Resource limit.
    pub limit: Resources,
    /// When the pod was placed here.
    pub placed_at: Tick,
}

crate::snap_fields!(ResidentPod {
    id,
    app,
    slo,
    request,
    limit,
    placed_at
});

/// What the physics pass reads and writes for one resident pod: the
/// constants it needs every tick and the pod's running state, kept with
/// the node so the pass walks them front to back instead of looking
/// each pod up by id.
///
/// [`NodeRuntime::add_pod`] creates the record from the [`ResidentPod`]
/// with fresh running state; the engine then sets what only it knows
/// (`input_factor`, `end_tick`, `work_left`) and is the only writer
/// afterwards (through the crate-private `NodeRuntime::physics_mut`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PodPhysics {
    /// Pod identity (equal to the [`ResidentPod`] in the same position).
    pub id: PodId,
    /// Owning application.
    pub app: AppId,
    /// SLO class.
    pub slo: SloClass,
    /// Resource request.
    pub request: Resources,
    /// The pod's input-size factor on CPU usage (`1.0` until the
    /// engine fills it from the workload).
    pub input_factor: f64,
    /// Wall-clock end for long-running pods.
    pub end_tick: Option<Tick>,
    /// Remaining work units for best-effort pods.
    pub work_left: f64,
    /// CPU pressure windows.
    pub cpu_psi: PsiWindow,
    /// Memory pressure windows.
    pub mem_psi: PsiWindow,
    /// Worst 60 s CPU pressure since placement.
    pub worst_psi: f64,
    /// Peak pod CPU utilization since placement.
    pub max_pod_cpu_util: f64,
    /// Peak pod memory utilization since placement.
    pub max_pod_mem_util: f64,
    /// Peak host CPU utilization since placement.
    pub max_host_cpu_util: f64,
    /// Peak host memory utilization since placement.
    pub max_host_mem_util: f64,
    /// Sum of per-tick pod utilizations since placement.
    pub util_sum: Resources,
    /// Ticks accumulated into `util_sum`.
    pub util_ticks: u64,
}

impl PodPhysics {
    fn fresh(pod: &ResidentPod) -> PodPhysics {
        PodPhysics {
            id: pod.id,
            app: pod.app,
            slo: pod.slo,
            request: pod.request,
            input_factor: 1.0,
            end_tick: None,
            work_left: 0.0,
            cpu_psi: PsiWindow::ZERO,
            mem_psi: PsiWindow::ZERO,
            worst_psi: 0.0,
            max_pod_cpu_util: 0.0,
            max_pod_mem_util: 0.0,
            max_host_cpu_util: 0.0,
            max_host_mem_util: 0.0,
            util_sum: Resources::ZERO,
            util_ticks: 0,
        }
    }
}

// The running state only: the constants are rebuilt from the resident
// pod and the workload at restore time.
crate::snap_fields!(in PodPhysics {
    end_tick,
    work_left,
    cpu_psi,
    mem_psi,
    worst_psi,
    max_pod_cpu_util,
    max_pod_mem_util,
    max_host_cpu_util,
    max_host_mem_util,
    util_sum,
    util_ticks
});

/// Runtime state of one physical host.
///
/// Keeps resident pods in placement order (the Optum predictor pairs
/// them in that order), running request/limit sums, the last computed
/// actual usage, and an append-only usage history from which schedulers
/// read their observation windows.
#[derive(Debug, Clone)]
pub struct NodeRuntime {
    /// Static description.
    pub spec: NodeSpec,
    /// Lifecycle state (fault injection drives this; healthy runs stay
    /// [`NodeLifecycle::Up`] forever).
    pub lifecycle: NodeLifecycle,
    /// Effective-capacity multiplier in `(0, 1]`; `1.0` when healthy.
    /// Transient degradation (thermal throttling, noisy daemons)
    /// shrinks it.
    pub degrade: f64,
    /// Resident pods, in placement order. Private so that
    /// [`Self::add_pod`] and [`Self::remove_pod`] are the only ways to
    /// change the list, and each of them moves `pods_version`.
    pods: Vec<ResidentPod>,
    /// Parallel predictor-facing view of `pods`.
    infos: Vec<PodInfo>,
    /// Parallel physics records of `pods`.
    physics: Vec<PodPhysics>,
    /// See [`Self::pods_version`].
    pods_version: u64,
    /// Sum of resident requests.
    pub requested: Resources,
    /// Sum of resident requests of best-effort pods only (schedulers
    /// reserve burst headroom for the non-BE remainder).
    pub requested_be: Resources,
    /// Sum of resident limits.
    pub limits: Resources,
    /// Actual usage computed in the last physics pass.
    pub usage: Resources,
    /// Append-only CPU usage history (one entry per tick).
    cpu_history: Vec<f64>,
    /// Append-only memory usage history (one entry per tick).
    mem_history: Vec<f64>,
    /// Statistics window length in ticks.
    window: usize,
    /// Incremental windowed sums: (Σx, Σx²) for CPU and memory, so
    /// N-sigma-style mean/std queries are O(1) instead of O(window).
    cpu_sums: (f64, f64),
    mem_sums: (f64, f64),
}

/// Default statistics window: 24 hours of 30-second ticks.
const DEFAULT_WINDOW: usize = 2880;

/// The version every empty, never-touched pod list carries.
const EMPTY_PODS_VERSION: u64 = 0;

/// Source of pod-list versions: one process-wide counter, so a value
/// is handed out once and names one list content for good. The values
/// differ from run to run when simulators run on several threads;
/// nothing may read them for anything but equality.
static NEXT_PODS_VERSION: AtomicU64 = AtomicU64::new(EMPTY_PODS_VERSION + 1);

impl NodeRuntime {
    /// Creates an empty node with the default 24-hour stats window.
    pub fn new(spec: NodeSpec) -> NodeRuntime {
        NodeRuntime::with_window(spec, DEFAULT_WINDOW)
    }

    /// Creates an empty node with an explicit stats window.
    pub fn with_window(spec: NodeSpec, window: usize) -> NodeRuntime {
        NodeRuntime {
            spec,
            lifecycle: NodeLifecycle::Up,
            degrade: 1.0,
            pods: Vec::new(),
            infos: Vec::new(),
            physics: Vec::new(),
            pods_version: EMPTY_PODS_VERSION,
            requested: Resources::ZERO,
            requested_be: Resources::ZERO,
            limits: Resources::ZERO,
            usage: Resources::ZERO,
            cpu_history: Vec::new(),
            mem_history: Vec::new(),
            window: window.max(1),
            cpu_sums: (0.0, 0.0),
            mem_sums: (0.0, 0.0),
        }
    }

    /// Number of resident pods.
    pub fn pod_count(&self) -> usize {
        self.pods.len()
    }

    /// Resident pods, in placement order.
    pub fn pods(&self) -> &[ResidentPod] {
        &self.pods
    }

    /// Version stamp of the resident pod list. Two nodes — of one
    /// simulator or of two, in one process — that report the same
    /// version hold the same pods in the same order: a new node is at
    /// the shared empty version, every [`Self::add_pod`] and
    /// [`Self::remove_pod`] takes a version never handed out before,
    /// `Clone` copies list and version together, and a checkpoint
    /// restore re-adds its pods and so takes fresh versions. The
    /// converse does not hold (equal lists may differ in version), so
    /// a cache keyed on it can miss needlessly but never hit wrongly.
    pub fn pods_version(&self) -> u64 {
        self.pods_version
    }

    fn bump_pods_version(&mut self) {
        self.pods_version = NEXT_PODS_VERSION.fetch_add(1, Ordering::Relaxed);
    }

    /// Whether the node may receive new placements (it is
    /// [`NodeLifecycle::Up`]). Schedulers must skip nodes that fail
    /// this; the engine's stale-view guard rejects placements onto
    /// them regardless.
    pub fn is_schedulable(&self) -> bool {
        self.lifecycle.is_schedulable()
    }

    /// Capacity currently usable by the physics: nominal capacity
    /// scaled by the degradation factor. Exactly the nominal capacity
    /// when healthy (the common case takes the fast path, keeping
    /// healthy runs bit-identical to the pre-chaos engine).
    pub fn effective_capacity(&self) -> Resources {
        if self.degrade >= 1.0 {
            self.spec.capacity
        } else {
            self.spec.capacity.scale(self.degrade)
        }
    }

    /// Adds a pod (placement).
    pub fn add_pod(&mut self, pod: ResidentPod) {
        self.requested += pod.request;
        if pod.slo == SloClass::Be {
            self.requested_be += pod.request;
        }
        self.limits += pod.limit;
        self.infos.push(PodInfo {
            app: pod.app,
            request: pod.request,
            limit: pod.limit,
        });
        self.physics.push(PodPhysics::fresh(&pod));
        self.pods.push(pod);
        self.bump_pods_version();
    }

    /// Removes a pod (completion or eviction); returns it with its
    /// physics record when found.
    pub fn remove_pod(&mut self, id: PodId) -> Option<(ResidentPod, PodPhysics)> {
        let idx = self.pods.iter().position(|p| p.id == id)?;
        let pod = self.pods.remove(idx);
        self.infos.remove(idx);
        let physics = self.physics.remove(idx);
        self.bump_pods_version();
        self.requested -= pod.request;
        if pod.slo == SloClass::Be {
            self.requested_be -= pod.request;
        }
        self.limits -= pod.limit;
        // Clamp float drift so an emptied node reads exactly zero.
        if self.pods.is_empty() {
            self.requested = Resources::ZERO;
            self.requested_be = Resources::ZERO;
            self.limits = Resources::ZERO;
        }
        Some((pod, physics))
    }

    /// Records the node's actual usage for this tick and slides the
    /// windowed sums.
    pub fn push_usage(&mut self, usage: Resources) {
        self.usage = usage;
        self.cpu_history.push(usage.cpu);
        self.mem_history.push(usage.mem);
        self.cpu_sums.0 += usage.cpu;
        self.cpu_sums.1 += usage.cpu * usage.cpu;
        self.mem_sums.0 += usage.mem;
        self.mem_sums.1 += usage.mem * usage.mem;
        let n = self.cpu_history.len();
        if n > self.window {
            let old_cpu = self.cpu_history[n - 1 - self.window];
            let old_mem = self.mem_history[n - 1 - self.window];
            self.cpu_sums.0 -= old_cpu;
            self.cpu_sums.1 -= old_cpu * old_cpu;
            self.mem_sums.0 -= old_mem;
            self.mem_sums.1 -= old_mem * old_mem;
        }
    }

    /// Windowed (mean, std) of CPU usage in O(1); zeros when empty.
    pub fn cpu_stats(&self) -> (f64, f64) {
        Self::stats_of(self.cpu_sums, self.cpu_history.len().min(self.window))
    }

    /// Windowed (mean, std) of memory usage in O(1); zeros when empty.
    pub fn mem_stats(&self) -> (f64, f64) {
        Self::stats_of(self.mem_sums, self.mem_history.len().min(self.window))
    }

    fn stats_of(sums: (f64, f64), n: usize) -> (f64, f64) {
        if n == 0 {
            return (0.0, 0.0);
        }
        let mean = sums.0 / n as f64;
        // Guard against tiny negative variance from float drift.
        let var = (sums.1 / n as f64 - mean * mean).max(0.0);
        (mean, var.sqrt())
    }

    /// The last `window` CPU usage samples (fewer if young).
    pub fn cpu_window(&self, window: usize) -> &[f64] {
        let n = self.cpu_history.len();
        &self.cpu_history[n.saturating_sub(window)..]
    }

    /// The last `window` memory usage samples (fewer if young).
    pub fn mem_window(&self, window: usize) -> &[f64] {
        let n = self.mem_history.len();
        &self.mem_history[n.saturating_sub(window)..]
    }

    /// Maximum recorded CPU usage over the trailing `window` ticks.
    pub fn peak_cpu(&self, window: usize) -> f64 {
        self.cpu_window(window).iter().copied().fold(0.0, f64::max)
    }

    /// Predictor-facing pod list, in placement order.
    pub fn pod_infos(&self) -> &[PodInfo] {
        &self.infos
    }

    /// Physics records of the resident pods, position-parallel to
    /// [`Self::pods`].
    pub fn physics(&self) -> &[PodPhysics] {
        &self.physics
    }

    /// The records for the engine to advance. Only their state and
    /// engine-filled fields may change; the list itself changes through
    /// [`Self::add_pod`] and [`Self::remove_pod`] alone.
    pub(crate) fn physics_mut(&mut self) -> &mut [PodPhysics] {
        &mut self.physics
    }

    /// Current utilization (usage relative to capacity).
    pub fn utilization(&self) -> Resources {
        self.usage.div(&self.spec.capacity)
    }

    /// Free capacity by requests (negative coordinates clamped to 0).
    pub fn free_by_request(&self) -> Resources {
        self.spec.capacity.saturating_sub(&self.requested)
    }

    /// Free capacity by last actual usage.
    pub fn free_by_usage(&self) -> Resources {
        self.spec.capacity.saturating_sub(&self.usage)
    }
}

/// The node's mutable state; the spec and window are the node's own
/// (rebuilt from configuration). Hand-written because restore re-adds
/// the residents through `add_pod`, so the list takes fresh
/// `pods_version`s.
impl SnapPart for NodeRuntime {
    fn snap_part(&self, w: &mut SnapWriter) {
        self.lifecycle.snap(w);
        self.degrade.snap(w);
        self.pods.snap(w);
        // Running sums are saved verbatim, not recomputed from pods:
        // float accumulation order (adds and removes over the run)
        // would not reproduce them bit-exactly.
        for r in [self.requested, self.requested_be, self.limits, self.usage] {
            r.snap(w);
        }
        self.cpu_history.snap(w);
        self.mem_history.snap(w);
        self.cpu_sums.snap(w);
        self.mem_sums.snap(w);
    }

    fn unsnap_part(&mut self, r: &mut SnapReader<'_>) -> Result<()> {
        let mut node = NodeRuntime::with_window(self.spec, self.window);
        node.lifecycle = NodeLifecycle::unsnap(r)?;
        node.degrade = f64::unsnap(r)?;
        for pod in Vec::<ResidentPod>::unsnap(r)? {
            node.add_pod(pod);
        }
        // `add_pod` accumulated sums of its own; the saved ones win.
        node.requested = Resources::unsnap(r)?;
        node.requested_be = Resources::unsnap(r)?;
        node.limits = Resources::unsnap(r)?;
        node.usage = Resources::unsnap(r)?;
        node.cpu_history = Vec::unsnap(r)?;
        node.mem_history = Vec::unsnap(r)?;
        node.cpu_sums = Snap::unsnap(r)?;
        node.mem_sums = Snap::unsnap(r)?;
        *self = node;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use optum_types::NodeId;

    fn pod(id: u32, cpu: f64, mem: f64) -> ResidentPod {
        ResidentPod {
            id: PodId(id),
            app: AppId(0),
            slo: SloClass::Ls,
            request: Resources::new(cpu, mem),
            limit: Resources::new(cpu * 2.0, mem * 2.0),
            placed_at: Tick(0),
        }
    }

    #[test]
    fn add_remove_keeps_sums() {
        let mut n = NodeRuntime::new(NodeSpec::standard(NodeId(0)));
        n.add_pod(pod(1, 0.2, 0.1));
        n.add_pod(pod(2, 0.3, 0.2));
        assert_eq!(n.requested, Resources::new(0.5, 0.30000000000000004));
        assert_eq!(n.pod_infos().len(), 2);
        n.physics_mut()[0].work_left = 7.0;
        let (removed, physics) = n.remove_pod(PodId(1)).unwrap();
        assert_eq!(removed.id, PodId(1));
        assert_eq!((physics.id, physics.work_left), (PodId(1), 7.0));
        assert_eq!(n.physics()[0].id, PodId(2));
        assert!((n.requested.cpu - 0.3).abs() < 1e-12);
        assert_eq!(n.pod_infos()[0].request.cpu, 0.3);
        assert!(n.remove_pod(PodId(9)).is_none());
        n.remove_pod(PodId(2));
        assert_eq!(n.requested, Resources::ZERO);
    }

    #[test]
    fn history_windows() {
        let mut n = NodeRuntime::new(NodeSpec::standard(NodeId(0)));
        for i in 0..10 {
            n.push_usage(Resources::new(i as f64 / 10.0, 0.5));
        }
        assert_eq!(n.cpu_window(3), &[0.7, 0.8, 0.9]);
        assert_eq!(n.cpu_window(100).len(), 10);
        assert_eq!(n.peak_cpu(5), 0.9);
        assert_eq!(n.mem_window(2), &[0.5, 0.5]);
        assert_eq!(n.usage.cpu, 0.9);
    }

    #[test]
    fn lifecycle_gates_schedulability() {
        use optum_types::NodeLifecycle;
        let mut n = NodeRuntime::new(NodeSpec::standard(NodeId(0)));
        assert!(n.is_schedulable());
        assert_eq!(n.effective_capacity(), n.spec.capacity);
        n.lifecycle = NodeLifecycle::Draining;
        assert!(!n.is_schedulable());
        n.lifecycle = NodeLifecycle::Down;
        assert!(!n.is_schedulable());
        n.degrade = 0.5;
        assert!((n.effective_capacity().cpu - n.spec.capacity.cpu * 0.5).abs() < 1e-12);
    }

    #[test]
    fn free_capacity() {
        let mut n = NodeRuntime::new(NodeSpec::standard(NodeId(0)));
        n.add_pod(pod(1, 0.7, 0.2));
        assert!((n.free_by_request().cpu - 0.3).abs() < 1e-12);
        n.add_pod(pod(2, 0.7, 0.2));
        // Over-committed: free-by-request clamps at zero.
        assert_eq!(n.free_by_request().cpu, 0.0);
        n.push_usage(Resources::new(0.4, 0.1));
        assert!((n.free_by_usage().cpu - 0.6).abs() < 1e-12);
    }
}

#[cfg(test)]
mod version_tests {
    use super::*;
    use optum_types::NodeId;
    use std::collections::HashSet;

    fn node() -> NodeRuntime {
        NodeRuntime::new(NodeSpec::standard(NodeId(0)))
    }

    fn pod(id: u32) -> ResidentPod {
        ResidentPod {
            id: PodId(id),
            app: AppId(id % 2),
            slo: SloClass::Be,
            request: Resources::new(0.1, 0.05),
            limit: Resources::new(0.2, 0.1),
            placed_at: Tick(3),
        }
    }

    fn restore(n: &NodeRuntime) -> NodeRuntime {
        let mut w = SnapWriter::new();
        n.snap_part(&mut w);
        let bytes = w.into_bytes();
        let mut restored = NodeRuntime::new(n.spec);
        restored.unsnap_part(&mut SnapReader::new(&bytes)).unwrap();
        restored
    }

    #[test]
    fn every_list_change_takes_a_version_never_seen_before() {
        let mut n = node();
        assert_eq!(n.pods_version(), node().pods_version(), "empty lists agree");
        let mut seen = HashSet::from([n.pods_version()]);
        n.add_pod(pod(1));
        assert!(seen.insert(n.pods_version()), "add");
        n.add_pod(pod(2));
        assert!(seen.insert(n.pods_version()), "second add");
        assert!(n.remove_pod(PodId(9)).is_none());
        assert!(
            !seen.insert(n.pods_version()),
            "a failed remove changes nothing"
        );
        n.remove_pod(PodId(1));
        assert!(seen.insert(n.pods_version()), "remove");
        n.remove_pod(PodId(2));
        assert!(seen.insert(n.pods_version()), "remove to empty");
        // The same pod again: same content as two steps ago, new
        // version all the same (equal versions imply equal lists, not
        // the other way round).
        n.add_pod(pod(2));
        assert!(seen.insert(n.pods_version()), "re-add of the same pod");
        // Usage history is not part of the list.
        n.push_usage(Resources::new(0.3, 0.1));
        assert!(!seen.insert(n.pods_version()), "push_usage");
    }

    #[test]
    fn a_clone_shares_the_version_until_either_side_changes() {
        let mut a = node();
        a.add_pod(pod(1));
        let mut b = a.clone();
        assert_eq!(a.pods_version(), b.pods_version());
        assert_eq!(a.pods(), b.pods());
        // The same change on both sides yields equal lists under
        // different versions; what matters is that neither keeps the
        // old one.
        let shared = a.pods_version();
        a.add_pod(pod(2));
        b.add_pod(pod(3));
        assert_ne!(a.pods_version(), shared);
        assert_ne!(b.pods_version(), shared);
        assert_ne!(a.pods_version(), b.pods_version());
    }

    #[test]
    fn a_restored_node_shares_no_version_with_a_node_of_other_content() {
        let mut original = node();
        original.add_pod(pod(1));
        original.add_pod(pod(2));
        // Nodes of other content, some built before the restore and
        // one after: the same pods in the other order, a prefix, the
        // empty list, and the original moved on.
        let mut swapped = node();
        swapped.add_pod(pod(2));
        swapped.add_pod(pod(1));
        let mut prefix = node();
        prefix.add_pod(pod(1));
        let restored = restore(&original);
        assert_eq!(restored.pods(), original.pods());
        assert_eq!(restored.pod_infos(), original.pod_infos());
        assert_eq!(restored.requested, original.requested);
        original.remove_pod(PodId(2));
        let mut later = node();
        later.add_pod(pod(7));
        for other in [&swapped, &prefix, &node(), &original, &later] {
            assert_ne!(other.pods(), restored.pods());
            assert_ne!(other.pods_version(), restored.pods_version());
        }
        // An empty node restores to the shared empty version.
        assert_eq!(restore(&node()).pods_version(), node().pods_version());
    }
}

#[cfg(test)]
mod window_tests {
    use super::*;
    use optum_types::NodeId;

    #[test]
    fn incremental_stats_match_direct() {
        let mut n = NodeRuntime::with_window(NodeSpec::standard(NodeId(0)), 5);
        let xs = [0.1, 0.9, 0.4, 0.6, 0.2, 0.8, 0.3, 0.7];
        for &x in &xs {
            n.push_usage(Resources::new(x, x / 2.0));
        }
        let window = &xs[xs.len() - 5..];
        let mean = optum_stats::mean(window);
        let std = optum_stats::stddev(window);
        let (m, s) = n.cpu_stats();
        assert!((m - mean).abs() < 1e-9, "{m} vs {mean}");
        assert!((s - std).abs() < 1e-9, "{s} vs {std}");
        let (mm, _) = n.mem_stats();
        assert!((mm - mean / 2.0).abs() < 1e-9);
    }

    #[test]
    fn empty_stats_are_zero() {
        let n = NodeRuntime::new(NodeSpec::standard(NodeId(0)));
        assert_eq!(n.cpu_stats(), (0.0, 0.0));
        assert_eq!(n.mem_stats(), (0.0, 0.0));
    }
}
