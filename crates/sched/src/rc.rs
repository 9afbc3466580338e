//! Resource-Central-like scheduler.

use optum_predictors::ProfileSource;
use optum_sim::{ClusterView, Decision, DecisionBudget, NodeRuntime, Scheduler};
use optum_types::{PodSpec, Resources};

use crate::{alignment, best_node, best_node_budgeted};

/// Azure's Resource-Central-style policy (§5.1): a host is feasible
/// for a pod when the sum of the 99th-percentile usage of all resident
/// pods plus the incoming pod stays below `usage_cap` (0.8) of
/// capacity, *and* the request over-commit ratio stays below
/// `overcommit_cap` (1.2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RcLike {
    /// Fraction of capacity the p99-sum may fill (paper: 0.8).
    pub usage_cap: f64,
    /// Request over-commit ratio cap (paper: 1.2).
    pub overcommit_cap: f64,
}

impl Default for RcLike {
    fn default() -> RcLike {
        RcLike {
            usage_cap: 0.8,
            overcommit_cap: 1.2,
        }
    }
}

impl RcLike {
    /// p99-sum prediction for a node, with the incoming request added.
    fn p99_sum(&self, node: &NodeRuntime, view: &ClusterView<'_>, pod: &PodSpec) -> Resources {
        let mut total = match view.apps.p99_usage(pod.app) {
            Some(p) => p.min(&pod.limit),
            None => pod.request,
        };
        for info in node.pod_infos() {
            total += match view.apps.p99_usage(info.app) {
                Some(p) => p.min(&info.limit),
                None => info.request,
            };
        }
        total
    }

    fn decide(
        &mut self,
        pod: &PodSpec,
        view: &ClusterView<'_>,
        budget: Option<&mut DecisionBudget>,
    ) -> Decision {
        let request = pod.request;
        let feas = |n: &NodeRuntime| {
            if !view.allows(pod.app, n.spec.id) {
                return None;
            }
            let cap = n.spec.capacity;
            let cpu_room = n.requested.cpu + request.cpu <= self.overcommit_cap * cap.cpu;
            let mem_room = n.requested.mem + request.mem <= self.overcommit_cap * cap.mem;
            // A host over the commit cap on both resources fails either
            // way; skip its p99 sum (a full walk of its pods), which is
            // most of a decision on a saturated cluster.
            if !cpu_room && !mem_room {
                return Some((false, false));
            }
            let pred = self.p99_sum(n, view, pod);
            let cpu_ok = pred.cpu <= self.usage_cap * cap.cpu && cpu_room;
            let mem_ok = pred.mem <= self.usage_cap * cap.mem && mem_room;
            Some((cpu_ok, mem_ok))
        };
        let score = |n: &NodeRuntime| {
            let pred = self.p99_sum(n, view, pod);
            alignment(&request, &pred, &n.spec.capacity)
        };
        let result = match budget {
            None => best_node(view.nodes, feas, score),
            Some(b) => best_node_budgeted(view.nodes, b, feas, score),
        };
        match result {
            Ok(node) => Decision::Place(node),
            Err(cause) => Decision::Unplaceable(cause),
        }
    }
}

impl Scheduler for RcLike {
    fn name(&self) -> String {
        "RC-like".into()
    }

    fn select_node(&mut self, pod: &PodSpec, view: &ClusterView<'_>) -> Decision {
        self.decide(pod, view, None)
    }

    fn select_node_budgeted(
        &mut self,
        pod: &PodSpec,
        view: &ClusterView<'_>,
        budget: &mut DecisionBudget,
    ) -> Decision {
        self.decide(pod, view, Some(budget))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use optum_sim::{AppStatsStore, NodeRuntime, ResidentPod};
    use optum_types::{AppId, ClusterConfig, NodeId, NodeSpec, PodId, SloClass, Tick};

    #[test]
    fn respects_overcommit_cap() {
        let mut sched = RcLike::default();
        let mut apps = AppStatsStore::new(2);
        // Tiny observed usage so the p99 check passes everywhere.
        for _ in 0..10 {
            apps.observe(
                AppId(0),
                Resources::new(0.01, 0.01),
                Resources::new(0.01, 0.01).div(&Resources::new(0.3, 0.1)),
                0.0,
            );
            apps.observe(
                AppId(1),
                Resources::new(0.01, 0.01),
                Resources::new(0.01, 0.01).div(&Resources::new(0.3, 0.1)),
                0.0,
            );
        }
        apps.refresh_all();
        let cluster = ClusterConfig::homogeneous(2);
        let mut n0 = NodeRuntime::new(NodeSpec::standard(NodeId(0)));
        for i in 0..4 {
            n0.add_pod(ResidentPod {
                id: PodId(i),
                app: AppId(0),
                slo: SloClass::Ls,
                request: Resources::new(0.3, 0.1),
                limit: Resources::new(0.6, 0.2),
                placed_at: Tick(0),
            });
        }
        let n1 = NodeRuntime::new(NodeSpec::standard(NodeId(1)));
        let nodes = vec![n0, n1];
        let view = ClusterView {
            tick: Tick(0),
            nodes: &nodes,
            apps: &apps,
            cluster: &cluster,
            history_window: 10,
            affinity: &[],
        };
        let pod = PodSpec {
            id: PodId(9),
            app: AppId(1),
            slo: SloClass::Ls,
            request: Resources::new(0.2, 0.05),
            limit: Resources::new(0.4, 0.1),
            arrival: Tick(0),
            nominal_duration: None,
        };
        // Node 0 requested 1.2 + 0.2 > 1.2 cap -> node 1.
        assert_eq!(sched.select_node(&pod, &view), Decision::Place(NodeId(1)));
    }
}
