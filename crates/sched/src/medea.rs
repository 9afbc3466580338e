//! Medea-like two-path scheduler (the paper's reference \[17\]).
//!
//! Medea treats long-running containers as first-class: it places them
//! with an ILP-based optimizer (costly, high-quality) while
//! short-running pods go through a traditional low-latency path. Per
//! the paper's setup (§5.1) the optimizer considers at most 40 hosts
//! and 15 pods per solve.
//!
//! The ILP here is solved exactly by branch-and-bound over the
//! (pod → host | skip) assignment space — maximizing placed count and
//! then total alignment — with an explored-node budget that degrades
//! to the greedy incumbent on pathological instances.

use std::collections::HashMap;

use optum_sim::{ClusterView, Decision, DecisionBudget, Scheduler};
use optum_types::{DelayCause, NodeId, PodId, PodSpec, Resources};

use crate::{alignment, best_node, best_node_budgeted};

/// Branch-and-bound placement: assign each pod a host (or skip),
/// maximizing `(placed count, total dot-score)` under per-host
/// capacity. Returns the chosen assignments.
pub fn solve_placement(
    pods: &[(PodId, Resources, u64)],
    hosts: &[(NodeId, Resources)],
    node_budget: usize,
) -> Vec<(PodId, NodeId)> {
    if pods.is_empty() || hosts.is_empty() {
        return Vec::new();
    }
    // Big pods first: prunes earlier.
    let mut order: Vec<usize> = (0..pods.len()).collect();
    order.sort_by(|&a, &b| {
        let ka = pods[a].1.cpu + pods[a].1.mem;
        let kb = pods[b].1.cpu + pods[b].1.mem;
        kb.partial_cmp(&ka).expect("finite requests")
    });

    struct Search<'s> {
        pods: &'s [(PodId, Resources, u64)],
        order: &'s [usize],
        free: Vec<Resources>,
        current: Vec<Option<usize>>,
        best: Vec<Option<usize>>,
        best_key: (usize, f64),
        explored: usize,
        budget: usize,
    }

    impl Search<'_> {
        fn dfs(&mut self, depth: usize, placed: usize, score: f64) {
            self.explored += 1;
            if self.explored > self.budget {
                return;
            }
            // Optimistic bound: everything remaining placed.
            let optimistic = placed + (self.order.len() - depth);
            if optimistic < self.best_key.0 {
                return;
            }
            if depth == self.order.len() {
                let key = (placed, score);
                if key.0 > self.best_key.0 || (key.0 == self.best_key.0 && key.1 > self.best_key.1)
                {
                    self.best_key = key;
                    self.best = self.current.clone();
                }
                return;
            }
            let pod_idx = self.order[depth];
            let request = self.pods[pod_idx].1;
            // Try hosts in descending fit-score order.
            // Best fit: the host left with the least residual after
            // the assignment scores highest (packing objective).
            let mut ranked: Vec<(usize, f64)> = self
                .free
                .iter()
                .enumerate()
                .filter(|(_, f)| request.fits_within(f))
                .map(|(h, f)| (h, -request.dot(f)))
                .collect();
            ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite scores"));
            for (h, s) in ranked {
                self.free[h] -= request;
                self.current[pod_idx] = Some(h);
                self.dfs(depth + 1, placed + 1, score + s);
                self.current[pod_idx] = None;
                self.free[h] += request;
            }
            // Skip branch.
            self.dfs(depth + 1, placed, score);
        }
    }

    let mut search = Search {
        pods,
        order: &order,
        free: hosts.iter().map(|(_, f)| *f).collect(),
        current: vec![None; pods.len()],
        best: vec![None; pods.len()],
        best_key: (0, f64::NEG_INFINITY),
        explored: 0,
        budget: node_budget.max(1),
    };
    search.dfs(0, 0, 0.0);
    let best = search.best;
    pods.iter()
        .enumerate()
        .filter_map(|(i, (pid, _, _))| best[i].map(|h| (*pid, hosts[h].0)))
        .collect()
}

/// The Medea-like scheduler.
pub struct Medea {
    /// Long-running pods awaiting the next batch solve.
    batch: Vec<(PodId, optum_types::AppId, Resources)>,
    /// Solved assignments waiting to be handed out.
    assignments: HashMap<PodId, NodeId>,
    /// Maximum pods per ILP solve (paper: 15).
    pub max_batch: usize,
    /// Maximum candidate hosts per solve (paper: 40).
    pub max_hosts: usize,
    /// Branch-and-bound explored-node budget.
    pub node_budget: usize,
    /// Request over-commit cap for long-running placement.
    pub overcommit: f64,
}

impl Default for Medea {
    fn default() -> Medea {
        Medea {
            batch: Vec::new(),
            assignments: HashMap::new(),
            max_batch: 15,
            max_hosts: 40,
            node_budget: 20_000,
            overcommit: 2.0,
        }
    }
}

impl Medea {
    /// Runs one batch solve over the first `take` queued pods.
    fn run_batch(&mut self, view: &ClusterView<'_>, take: usize) {
        if take == 0 {
            return;
        }
        let _solve = optum_obs::span!("sched.medea.solve");
        let queued: Vec<(PodId, optum_types::AppId, Resources)> =
            self.batch.drain(..take).collect();
        // Candidate hosts: the busiest hosts with any remaining budget
        // (packing), padded with a few of the freest as overflow room.
        let mut hosts: Vec<(NodeId, Resources)> = view
            .nodes
            .iter()
            .filter(|n| n.is_schedulable())
            .map(|n| {
                let budget = n.spec.capacity * self.overcommit;
                (n.spec.id, budget.saturating_sub(&n.requested))
            })
            .filter(|(_, free)| free.cpu > 0.0 && free.mem > 0.0)
            .collect();
        // Ascending by free capacity: fullest (but not full) first.
        hosts.sort_by(|a, b| {
            (a.1.cpu + a.1.mem)
                .partial_cmp(&(b.1.cpu + b.1.mem))
                .expect("finite")
        });
        let overflow = (self.max_hosts / 4).max(1).min(hosts.len());
        let mut chosen: Vec<(NodeId, Resources)> = hosts
            .iter()
            .take(self.max_hosts.saturating_sub(overflow))
            .copied()
            .collect();
        chosen.extend(hosts.iter().rev().take(overflow).copied());
        chosen.dedup_by_key(|(id, _)| *id);
        let hosts = chosen;
        // Per-pod affinity masks over the chosen candidate hosts.
        let pods: Vec<(PodId, Resources, u64)> = queued
            .iter()
            .map(|&(pid, app, req)| {
                let mut mask = 0u64;
                for (h, (node, _)) in hosts.iter().enumerate() {
                    if view.allows(app, *node) {
                        mask |= 1 << h;
                    }
                }
                (pid, req, mask)
            })
            .collect();
        for (pid, node) in solve_placement(&pods, &hosts, self.node_budget) {
            self.assignments.insert(pid, node);
        }
        // Unplaced pods return to the batch for the next solve.
        for (pid, app, req) in queued {
            if !self.assignments.contains_key(&pid) {
                self.batch.push((pid, app, req));
            }
        }
    }

    /// Shared decision body; `budget` selects the budget-degraded
    /// short-running scan (the long-running path is cheap — a single
    /// validate against a pre-solved assignment — and charges 1).
    fn decide(
        &mut self,
        pod: &PodSpec,
        view: &ClusterView<'_>,
        budget: Option<&mut DecisionBudget>,
    ) -> Decision {
        if pod.slo.is_long_running() {
            let _validate = optum_obs::span!("sched.medea.validate");
            if let Some(b) = budget {
                b.charge(1);
            }
            if let Some(node) = self.assignments.remove(&pod.id) {
                // Validate against drift since the solve.
                let n = &view.nodes[node.index()];
                let budget = n.spec.capacity * self.overcommit;
                if n.is_schedulable() && (n.requested + pod.request).fits_within(&budget) {
                    return Decision::Place(node);
                }
            }
            if !self.batch.iter().any(|(id, _, _)| *id == pod.id) {
                self.batch.push((pod.id, pod.app, pod.request));
            }
            // Deferred to the next batch solve.
            return Decision::Unplaceable(DelayCause::Other);
        }
        // Short-running path: fast Borg-style placement.
        let request = pod.request;
        let feas = |n: &optum_sim::NodeRuntime| {
            if !view.allows(pod.app, n.spec.id) {
                return None;
            }
            let cap = n.spec.capacity;
            Some((
                0.9 * (n.requested.cpu + request.cpu) <= cap.cpu,
                0.9 * (n.requested.mem + request.mem) <= cap.mem,
            ))
        };
        let score =
            |n: &optum_sim::NodeRuntime| alignment(&request, &n.requested, &n.spec.capacity);
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

impl Scheduler for Medea {
    fn name(&self) -> String {
        "Medea".into()
    }

    fn on_tick(&mut self, view: &ClusterView<'_>) {
        let take = self.batch.len().min(self.max_batch);
        self.run_batch(view, take);
    }

    /// Under a decision deadline the batch solve shrinks: each solved
    /// pod costs up to `max_hosts` candidate examinations, so the batch
    /// is capped at what the remaining budget affords (never below one
    /// pod, so the batch cannot stall forever).
    fn on_tick_budgeted(&mut self, view: &ClusterView<'_>, budget: &mut DecisionBudget) {
        let full = self.batch.len().min(self.max_batch);
        if full == 0 {
            return;
        }
        let per_pod = self.max_hosts.max(1) as u64;
        let take = if budget.is_limited() {
            let affordable = (budget.remaining() / per_pod).max(1) as usize;
            if affordable < full {
                optum_obs::counter!("sched.medea_batch_shrunk");
            }
            full.min(affordable)
        } else {
            full
        };
        budget.charge(take as u64 * per_pod);
        self.run_batch(view, take);
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

    #[test]
    fn ilp_places_all_when_room() {
        let pods = vec![
            (PodId(0), Resources::new(0.4, 0.1), u64::MAX),
            (PodId(1), Resources::new(0.4, 0.1), u64::MAX),
            (PodId(2), Resources::new(0.4, 0.1), u64::MAX),
        ];
        let hosts = vec![
            (NodeId(0), Resources::new(1.0, 1.0)),
            (NodeId(1), Resources::new(0.5, 0.5)),
        ];
        let placed = solve_placement(&pods, &hosts, 100_000);
        assert_eq!(placed.len(), 3, "two fit on host 0, one on host 1");
        // Capacity respected.
        let on0: f64 = placed
            .iter()
            .filter(|(_, n)| *n == NodeId(0))
            .map(|(p, _)| pods.iter().find(|(id, _, _)| id == p).unwrap().1.cpu)
            .sum();
        assert!(on0 <= 1.0 + 1e-9);
    }

    #[test]
    fn ilp_beats_naive_first_fit() {
        // First-fit by arrival would put the 0.6 pod on host 0 and
        // strand one 0.5 pod; the exact solve places all three.
        let pods = vec![
            (PodId(0), Resources::new(0.6, 0.1), u64::MAX),
            (PodId(1), Resources::new(0.5, 0.1), u64::MAX),
            (PodId(2), Resources::new(0.5, 0.1), u64::MAX),
        ];
        let hosts = vec![
            (NodeId(0), Resources::new(1.0, 1.0)),
            (NodeId(1), Resources::new(0.6, 1.0)),
        ];
        let placed = solve_placement(&pods, &hosts, 100_000);
        assert_eq!(placed.len(), 3);
    }

    #[test]
    fn ilp_skips_unplaceable() {
        let pods = vec![
            (PodId(0), Resources::new(0.9, 0.1), u64::MAX),
            (PodId(1), Resources::new(0.9, 0.1), u64::MAX),
        ];
        let hosts = vec![(NodeId(0), Resources::new(1.0, 1.0))];
        let placed = solve_placement(&pods, &hosts, 100_000);
        assert_eq!(placed.len(), 1);
    }

    #[test]
    fn ilp_empty_inputs() {
        assert!(solve_placement(&[], &[(NodeId(0), Resources::UNIT)], 100).is_empty());
        assert!(solve_placement(&[(PodId(0), Resources::UNIT, u64::MAX)], &[], 100).is_empty());
    }
}

#[cfg(test)]
mod scheduler_tests {
    use super::*;
    use optum_sim::{AppStatsStore, NodeRuntime};
    use optum_types::{AppId, ClusterConfig, SloClass, Tick};

    fn pod(id: u32, slo: SloClass, cpu: f64) -> PodSpec {
        PodSpec {
            id: PodId(id),
            app: AppId(0),
            slo,
            request: Resources::new(cpu, 0.05),
            limit: Resources::new(cpu * 2.0, 0.1),
            arrival: Tick(0),
            nominal_duration: Some(10),
        }
    }

    #[test]
    fn long_running_pods_defer_then_place() {
        let mut sched = Medea::default();
        let apps = AppStatsStore::new(1);
        let cluster = ClusterConfig::homogeneous(3);
        let nodes: Vec<NodeRuntime> = cluster.nodes().map(NodeRuntime::new).collect();
        let view = ClusterView {
            tick: Tick(0),
            nodes: &nodes,
            apps: &apps,
            cluster: &cluster,
            history_window: 16,
            affinity: &[],
        };
        let p = pod(1, SloClass::Ls, 0.2);
        // First offer: queued for the batch ILP.
        assert_eq!(
            sched.select_node(&p, &view),
            Decision::Unplaceable(DelayCause::Other)
        );
        // The batch solve runs on the tick hook…
        sched.on_tick(&view);
        // …and the assignment is handed out on the next offer.
        match sched.select_node(&p, &view) {
            Decision::Place(_) => {}
            d => panic!("expected placement after solve, got {d:?}"),
        }
    }

    #[test]
    fn budgeted_batch_solve_shrinks_under_pressure() {
        let mut sched = Medea::default();
        let apps = AppStatsStore::new(1);
        let cluster = ClusterConfig::homogeneous(3);
        let nodes: Vec<NodeRuntime> = cluster.nodes().map(NodeRuntime::new).collect();
        let view = ClusterView {
            tick: Tick(0),
            nodes: &nodes,
            apps: &apps,
            cluster: &cluster,
            history_window: 16,
            affinity: &[],
        };
        for i in 0..3 {
            let p = pod(i, SloClass::Ls, 0.1);
            assert_eq!(
                sched.select_node(&p, &view),
                Decision::Unplaceable(DelayCause::Other)
            );
        }
        // Budget affords exactly one pod's worth of host examinations:
        // the solve shrinks to a single pod instead of all three.
        let mut budget = optum_sim::DecisionBudget::new(sched.max_hosts as u64);
        sched.on_tick_budgeted(&view, &mut budget);
        assert_eq!(sched.assignments.len(), 1);
        assert_eq!(sched.batch.len(), 2);
        assert_eq!(budget.remaining(), 0);

        // An unlimited budget solves the whole batch, like on_tick.
        let mut open = optum_sim::DecisionBudget::unlimited();
        sched.on_tick_budgeted(&view, &mut open);
        assert_eq!(sched.assignments.len(), 3);
        assert!(sched.batch.is_empty());
    }

    #[test]
    fn short_running_pods_take_the_fast_path() {
        let mut sched = Medea::default();
        let apps = AppStatsStore::new(1);
        let cluster = ClusterConfig::homogeneous(2);
        let nodes: Vec<NodeRuntime> = cluster.nodes().map(NodeRuntime::new).collect();
        let view = ClusterView {
            tick: Tick(0),
            nodes: &nodes,
            apps: &apps,
            cluster: &cluster,
            history_window: 16,
            affinity: &[],
        };
        // BE pods place immediately, no batching round-trip.
        match sched.select_node(&pod(2, SloClass::Be, 0.1), &view) {
            Decision::Place(_) => {}
            d => panic!("expected immediate BE placement, got {d:?}"),
        }
    }
}
