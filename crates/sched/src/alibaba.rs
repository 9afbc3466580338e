//! The reference scheduler: Alibaba's measured production behavior.
//!
//! §3.2.1 establishes that the production unified scheduler
//! "over-commits BE pods based on the actual resource usage but hardly
//! over-commits when scheduling LS pods". This scheduler encodes
//! exactly that asymmetry:
//!
//! * **BE pods** place against *actual usage*, but a burst reserve —
//!   a fraction of the non-BE requests on the host — is held back so
//!   LS services can spike (this is why BE pods queue at LS peaks and
//!   flood in at troughs: valley filling).
//! * **LS/LSR and background pods** place against *requests*, with a
//!   bounded over-commit cap (the trace shows request over-commitment
//!   up to ~4×, Fig. 5(a)) and conservative memory (over-committed
//!   with probability < 0.03, Fig. 5(b)).
//!
//! Hosts are ranked by the alignment score between the request vector
//! and the free vector under the applicable policy.

use optum_sim::{ClusterView, Decision, DecisionBudget, NodeRuntime, Scheduler, Snap};
use optum_trace::hash_noise;
use optum_types::{PodSpec, Resources, SloClass};

use crate::{alignment, best_node, best_node_budgeted};

/// Tunable policy constants of the reference scheduler.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AlibabaParams {
    /// Number of hosts examined per request (a bounded candidate set,
    /// independent of cluster size — production schedulers rank a
    /// candidate subset, not the whole cluster; misses at load peaks
    /// are what queue pods, the waiting-time tails of Fig. 8).
    pub candidates: usize,
    /// Fraction of non-BE *requests* reserved (on top of current
    /// usage) before a BE pod may land on a host.
    pub ls_burst_reserve: f64,
    /// Memory headroom cap for BE placement: usage + request must stay
    /// under this fraction of memory capacity.
    pub be_mem_cap: f64,
    /// CPU request over-commit cap for non-BE placement (multiples of
    /// capacity).
    pub ls_cpu_overcommit: f64,
    /// Memory request cap for non-BE placement (multiples of
    /// capacity; ≤ 1 keeps memory conservatively committed).
    pub ls_mem_overcommit: f64,
    /// Cluster-level BE admission pause: while mean cluster CPU usage
    /// exceeds its trailing average by this factor (i.e. during the
    /// diurnal peak), new BE pods queue ("the unified scheduler often
    /// delays the scheduling of BE pods" to protect LS SLAs, §3.1.3 —
    /// the queueing behind the heavy BE waiting tail of Fig. 8 and the
    /// trough-time BE floods of Fig. 3(a)). Relative to the trailing
    /// mean so the policy is scale- and load-level-free.
    pub be_pause_peak_factor: f64,
}

impl Default for AlibabaParams {
    fn default() -> AlibabaParams {
        AlibabaParams {
            candidates: 24,
            ls_burst_reserve: 0.5,
            be_mem_cap: 0.9,
            ls_cpu_overcommit: 3.0,
            ls_mem_overcommit: 1.0,
            be_pause_peak_factor: 1.07,
        }
    }
}

/// The reference production-like unified scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct AlibabaLike {
    params: AlibabaParams,
    /// Whether the cluster is currently too busy to admit BE pods
    /// (refreshed per tick).
    be_paused: bool,
    /// Trailing (exponentially smoothed) mean cluster CPU usage.
    usage_ema: f64,
}

impl AlibabaLike {
    /// Creates the scheduler with explicit policy constants.
    pub fn new(params: AlibabaParams) -> AlibabaLike {
        AlibabaLike {
            params,
            be_paused: false,
            usage_ema: 0.0,
        }
    }

    fn be_fit(&self, node: &NodeRuntime, request: &Resources) -> (bool, bool) {
        let cap = node.spec.capacity;
        let non_be_requested = node.requested.saturating_sub(&node.requested_be);
        let reserve_cpu = self.params.ls_burst_reserve * non_be_requested.cpu;
        let cpu_ok = node.usage.cpu + reserve_cpu + request.cpu <= cap.cpu;
        let mem_ok = node.usage.mem + request.mem <= self.params.be_mem_cap * cap.mem;
        (cpu_ok, mem_ok)
    }

    fn ls_fit(&self, node: &NodeRuntime, request: &Resources) -> (bool, bool) {
        let cap = node.spec.capacity;
        let cpu_ok = node.requested.cpu + request.cpu <= self.params.ls_cpu_overcommit * cap.cpu;
        let mem_ok = node.requested.mem + request.mem <= self.params.ls_mem_overcommit * cap.mem;
        (cpu_ok, mem_ok)
    }

    /// Shared decision body; `budget` selects the budget-degraded scan.
    /// The candidate sampling and affinity filters are identical in
    /// both modes — only the scan strategy degrades under pressure.
    fn decide(
        &mut self,
        pod: &PodSpec,
        view: &ClusterView<'_>,
        budget: Option<&mut DecisionBudget>,
    ) -> Decision {
        if pod.slo == SloClass::Be && self.be_paused {
            return Decision::Unplaceable(optum_types::DelayCause::CpuAndMemory);
        }
        let request = pod.request;
        // Deterministic per-(pod, tick) candidate subset: the same pod
        // sees fresh candidates each retry round.
        let frac = (self.params.candidates as f64 / view.nodes.len().max(1) as f64).min(1.0);
        let in_sample = |n: &NodeRuntime| {
            frac >= 1.0
                || hash_noise(
                    0xA11B,
                    pod.id.0 as u64 ^ (view.tick.0 << 20),
                    n.spec.id.0 as u64,
                ) < frac
        };
        let result = if pod.slo == SloClass::Be {
            let feas = |n: &NodeRuntime| {
                if !in_sample(n) || !view.allows(pod.app, n.spec.id) {
                    return None;
                }
                Some(self.be_fit(n, &request))
            };
            let score = |n: &NodeRuntime| alignment(&request, &n.usage, &n.spec.capacity);
            match budget {
                None => best_node(view.nodes, feas, score),
                Some(b) => best_node_budgeted(view.nodes, b, feas, score),
            }
        } else {
            let feas = |n: &NodeRuntime| {
                if !in_sample(n) || !view.allows(pod.app, n.spec.id) {
                    return None;
                }
                Some(self.ls_fit(n, &request))
            };
            let score = |n: &NodeRuntime| alignment(&request, &n.requested, &n.spec.capacity);
            match budget {
                None => best_node(view.nodes, feas, score),
                Some(b) => best_node_budgeted(view.nodes, b, feas, score),
            }
        };
        match result {
            Ok(node) => Decision::Place(node),
            Err(cause) => Decision::Unplaceable(cause),
        }
    }
}

impl Scheduler for AlibabaLike {
    fn name(&self) -> String {
        "AlibabaLike".into()
    }

    fn on_tick(&mut self, view: &ClusterView<'_>) {
        let n = view.nodes.len().max(1) as f64;
        let mean_cpu = view.nodes.iter().map(|x| x.utilization().cpu).sum::<f64>() / n;
        // ~12-hour time constant: the EMA tracks the load level, the
        // instantaneous mean rides the diurnal wave above and below it.
        const ALPHA: f64 = 1.0 / 1440.0;
        if self.usage_ema == 0.0 {
            self.usage_ema = mean_cpu;
        } else {
            self.usage_ema += ALPHA * (mean_cpu - self.usage_ema);
        }
        // The EMA needs a day to learn the load level; pausing during
        // the fill-up ramp would queue everything indefinitely.
        let warmed = view.tick.0 >= optum_types::TICKS_PER_DAY;
        self.be_paused = warmed && mean_cpu > self.usage_ema * self.params.be_pause_peak_factor;
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

    // Policy constants are construction-time configuration; the only
    // mutable state is the BE admission gate and its trailing EMA.
    fn save_state(&self) -> Option<Vec<u8>> {
        Some((self.be_paused, self.usage_ema).snap_bytes())
    }

    fn load_state(&mut self, state: &[u8]) -> optum_types::Result<()> {
        (self.be_paused, self.usage_ema) = Snap::unsnap_exact(state)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use optum_sim::{AppStatsStore, NodeRuntime, ResidentPod};
    use optum_types::{AppId, ClusterConfig, NodeId, NodeSpec, PodId, Tick};

    fn resident(id: u32, slo: SloClass, cpu: f64, mem: f64) -> ResidentPod {
        ResidentPod {
            id: PodId(id),
            app: AppId(0),
            slo,
            request: Resources::new(cpu, mem),
            limit: Resources::new(cpu * 2.0, mem * 2.0),
            placed_at: Tick(0),
        }
    }

    fn pod(slo: SloClass, cpu: f64, mem: f64) -> PodSpec {
        PodSpec {
            id: PodId(99),
            app: AppId(1),
            slo,
            request: Resources::new(cpu, mem),
            limit: Resources::new(cpu * 2.0, mem * 2.0),
            arrival: Tick(0),
            nominal_duration: Some(10),
        }
    }

    /// Full-scan params so tiny test clusters are fully visible.
    fn full_scan() -> AlibabaLike {
        AlibabaLike::new(AlibabaParams {
            candidates: usize::MAX,
            ..AlibabaParams::default()
        })
    }

    #[test]
    fn be_respects_burst_reserve() {
        let mut sched = full_scan();
        let apps = AppStatsStore::new(2);
        let cluster = ClusterConfig::homogeneous(2);

        // Node 0: heavy non-BE requests and usage (reserve blocks BE).
        let mut n0 = NodeRuntime::new(NodeSpec::standard(NodeId(0)));
        n0.add_pod(resident(1, SloClass::Ls, 1.6, 0.3));
        n0.push_usage(Resources::new(0.3, 0.3));
        // Node 1: lightly requested.
        let mut n1 = NodeRuntime::new(NodeSpec::standard(NodeId(1)));
        n1.add_pod(resident(2, SloClass::Ls, 0.2, 0.1));
        n1.push_usage(Resources::new(0.1, 0.1));
        let nodes = vec![n0, n1];
        let view = ClusterView {
            tick: Tick(0),
            nodes: &nodes,
            apps: &apps,
            cluster: &cluster,
            history_window: 100,
            affinity: &[],
        };
        let d = sched.select_node(&pod(SloClass::Be, 0.05, 0.01), &view);
        // Node 0: usage 0.3 + reserve 0.8 + 0.05 > 1 -> infeasible.
        assert_eq!(d, Decision::Place(NodeId(1)));
    }

    #[test]
    fn ls_placement_is_request_based() {
        let mut sched = full_scan();
        let apps = AppStatsStore::new(2);
        let cluster = ClusterConfig::homogeneous(2);
        // Node 0 over-committed beyond the cap; node 1 has room.
        let mut n0 = NodeRuntime::new(NodeSpec::standard(NodeId(0)));
        n0.add_pod(resident(1, SloClass::Ls, 2.95, 0.2));
        n0.push_usage(Resources::new(0.05, 0.05));
        let mut n1 = NodeRuntime::new(NodeSpec::standard(NodeId(1)));
        n1.add_pod(resident(2, SloClass::Ls, 0.5, 0.2));
        n1.push_usage(Resources::new(0.4, 0.4));
        let nodes = vec![n0, n1];
        let view = ClusterView {
            tick: Tick(0),
            nodes: &nodes,
            apps: &apps,
            cluster: &cluster,
            history_window: 100,
            affinity: &[],
        };
        let d = sched.select_node(&pod(SloClass::Ls, 0.1, 0.05), &view);
        assert_eq!(d, Decision::Place(NodeId(1)));
    }

    #[test]
    fn reports_memory_cause() {
        let mut sched = full_scan();
        let apps = AppStatsStore::new(2);
        let cluster = ClusterConfig::homogeneous(1);
        let mut n0 = NodeRuntime::new(NodeSpec::standard(NodeId(0)));
        // Memory requests exhausted, CPU fine.
        n0.add_pod(resident(1, SloClass::Ls, 0.1, 1.0));
        n0.push_usage(Resources::new(0.1, 0.7));
        let nodes = vec![n0];
        let view = ClusterView {
            tick: Tick(0),
            nodes: &nodes,
            apps: &apps,
            cluster: &cluster,
            history_window: 100,
            affinity: &[],
        };
        let d = sched.select_node(&pod(SloClass::Ls, 0.05, 0.05), &view);
        assert_eq!(d, Decision::Unplaceable(optum_types::DelayCause::Memory));
    }

    #[test]
    fn checkpoint_state_round_trips() {
        let src = AlibabaLike {
            be_paused: true,
            usage_ema: 0.4375,
            ..AlibabaLike::default()
        };
        let state = src.save_state().unwrap();
        let mut dst = AlibabaLike::default();
        dst.load_state(&state).unwrap();
        assert_eq!(src, dst);
        // Garbage state is rejected, not silently accepted.
        assert!(dst.load_state(&[1, 2, 3]).is_err());
    }
}
