//! Property test of the node-resident physics records: random place /
//! complete / preempt / kill / crash / drain / checkpoint-restore
//! sequences, driven through the engine's own operations, with the
//! test making the placement decisions. After every tick each node's
//! records must be position-parallel to its pod list, and a pod's
//! progress must survive exactly the evictions
//! [`EvictKind::keeps_progress`] says it does — across restores too.

use std::collections::HashMap;

use super::*;
use crate::node::PodPhysics;
use crate::testing::Refuse;
use optum_trace::{generate, WorkloadConfig};
use optum_types::SplitMix64;
use proptest::prelude::*;

const HOSTS: usize = 10;
const TICKS: u64 = 140;

fn workload() -> &'static Workload {
    static W: std::sync::OnceLock<Workload> = std::sync::OnceLock::new();
    W.get_or_init(|| generate(&WorkloadConfig::small(7)).unwrap())
}

type Sim = Simulator<'static, Refuse>;

/// The driver: the engine plus what the test believes each evicted
/// pod carries into its next placement.
struct Driver {
    sim: Sim,
    rng: SplitMix64,
    carried: HashMap<PodId, f64>,
    /// Placements that resumed carried progress.
    resumed: usize,
    restores: usize,
}

impl Driver {
    fn pick(&mut self, n: usize) -> usize {
        (self.rng.next_u64() % n as u64) as usize
    }

    fn assert_records_parallel(&self) {
        let sim = &self.sim;
        for (i, node) in sim.nodes.iter().enumerate() {
            assert_eq!(node.physics().len(), node.pods().len());
            for (state, pod) in node.physics().iter().zip(node.pods()) {
                assert_eq!(
                    (state.id, state.app, state.slo, state.request),
                    (pod.id, pod.app, pod.slo, pod.request)
                );
                assert_eq!(sim.location[pod.id.index()], Some(NodeId(i as u32)));
            }
        }
        assert_eq!(
            sim.running_count(),
            sim.location.iter().flatten().count(),
            "every located pod is resident exactly once"
        );
    }

    fn state_of(&self, pid: PodId) -> PodPhysics {
        let node = self.sim.location[pid.index()].expect("running");
        *self.sim.nodes[node.index()]
            .physics()
            .iter()
            .find(|s| s.id == pid)
            .expect("a located pod is resident on its node")
    }

    /// Books an eviction that already happened: the record is gone,
    /// the peaks reached the outcome whatever the kind, and progress is
    /// carried only by the kinds that keep it.
    fn check_evicted(&mut self, before: PodPhysics, peaks: &PodOutcome, t: Tick, kind: EvictKind) {
        let pid = before.id;
        assert_eq!(self.sim.location[pid.index()], None);
        let o = &self.sim.outcomes[pid.index()];
        assert_eq!(o.worst_psi, peaks.worst_psi.max(before.worst_psi));
        assert_eq!(
            o.max_pod_cpu_util,
            peaks.max_pod_cpu_util.max(before.max_pod_cpu_util)
        );
        assert_eq!(
            o.max_host_mem_util,
            peaks.max_host_mem_util.max(before.max_host_mem_util)
        );
        let remaining = if before.slo == SloClass::Be {
            Some(before.work_left)
        } else {
            before
                .end_tick
                .filter(|end| end.0 != u64::MAX)
                .map(|end| end.saturating_since(t) as f64)
        };
        match remaining.filter(|_| kind.keeps_progress()) {
            Some(left) => self.carried.insert(pid, left),
            None => self.carried.remove(&pid),
        };
    }

    fn evict_one(&mut self, pid: PodId, t: Tick, kind: EvictKind) {
        let before = self.state_of(pid);
        let peaks = self.sim.outcomes[pid.index()].clone();
        self.sim.evict(pid, t, kind);
        self.check_evicted(before, &peaks, t, kind);
    }

    fn evict_node(&mut self, node: usize, t: Tick, kind: EvictKind, lifecycle: NodeLifecycle) {
        let before: Vec<(PodPhysics, PodOutcome)> = self.sim.nodes[node]
            .physics()
            .iter()
            .map(|s| (*s, self.sim.outcomes[s.id.index()].clone()))
            .collect();
        self.sim.nodes[node].lifecycle = lifecycle;
        self.sim.evict_all(node, t, kind);
        assert_eq!(self.sim.nodes[node].pod_count(), 0);
        for (state, peaks) in before {
            self.check_evicted(state, &peaks, t, kind);
        }
    }

    /// Places a pod and checks the new record: fresh running state,
    /// constants from the workload, and exactly the carried progress.
    fn place(&mut self, pid: PodId, node: usize, t: Tick) {
        self.sim.place(pid, NodeId(node as u32), t);
        let gen = &workload().pods[pid.index()];
        let state = *self.sim.nodes[node].physics().last().unwrap();
        assert_eq!(state.id, pid);
        assert_eq!(state.input_factor, gen.input_factor);
        assert_eq!(
            (state.cpu_psi, state.mem_psi),
            (PsiWindow::ZERO, PsiWindow::ZERO)
        );
        assert_eq!((state.worst_psi, state.util_ticks), (0.0, 0));
        let duration = gen.spec.nominal_duration.unwrap_or(u64::MAX);
        let carried = self.carried.remove(&pid);
        self.resumed += carried.is_some() as usize;
        if gen.spec.slo == SloClass::Be {
            assert_eq!(state.work_left, carried.unwrap_or(duration as f64));
            assert_eq!(state.end_tick, None);
        } else {
            let remaining = carried.map(|left| left as u64).unwrap_or(duration);
            assert_eq!(state.end_tick, Some(Tick(t.0.saturating_add(remaining))));
        }
    }

    fn random_running(&mut self) -> Option<(PodId, usize)> {
        let hosts: Vec<usize> = (0..HOSTS)
            .filter(|&i| self.sim.nodes[i].pod_count() > 0)
            .collect();
        if hosts.is_empty() {
            return None;
        }
        let node = hosts[self.pick(hosts.len())];
        let slot = self.pick(self.sim.nodes[node].pod_count());
        Some((self.sim.nodes[node].pods()[slot].id, node))
    }

    fn disturb(&mut self, t: Tick) {
        let node = self.pick(HOSTS);
        match (self.pick(7), self.random_running()) {
            (0, Some((pid, host))) => {
                self.sim.complete(pid, host, t);
                assert_eq!(self.sim.location[pid.index()], None);
                assert_eq!(self.sim.outcomes[pid.index()].completed_at, Some(t));
            }
            (1, Some((pid, _))) => self.evict_one(pid, t, EvictKind::Preempt),
            (2, Some((pid, _))) => self.evict_one(pid, t, EvictKind::Kill),
            (3, _) => self.evict_node(node, t, EvictKind::Crash, NodeLifecycle::Down),
            (4, _) => self.evict_node(node, t, EvictKind::Drain, NodeLifecycle::Draining),
            _ => self.sim.nodes[node].lifecycle = NodeLifecycle::Up,
        }
    }

    /// Snapshots at the top of tick `t`, restores into a fresh engine
    /// and carries on with that one.
    fn restore(&mut self, t: Tick) {
        let bytes = self.sim.snapshot_bytes(t).unwrap();
        let restored = Simulator::resume(
            workload(),
            Refuse::checkpointable(),
            SimConfig::new(HOSTS),
            &bytes,
        )
        .unwrap();
        for (a, b) in restored.nodes.iter().zip(&self.sim.nodes) {
            assert_eq!(a.pods(), b.pods());
            assert_eq!(a.physics(), b.physics());
        }
        assert_eq!(restored.location, self.sim.location);
        assert_eq!(restored.snapshot_bytes(t).unwrap(), bytes);
        self.sim = restored;
        self.restores += 1;
    }

    fn run(&mut self) {
        let mut round = Vec::new();
        for t in (0..TICKS).map(Tick) {
            self.sim.admit_arrivals(t);
            for _ in 0..self.pick(3) {
                self.disturb(t);
            }
            self.sim
                .admission
                .take_round(&mut round, pod_meta(workload()));
            for pid in round.drain(..) {
                let node = self.pick(HOSTS);
                if self.pick(4) > 0 && self.sim.nodes[node].is_schedulable() {
                    self.place(pid, node, t);
                } else {
                    self.sim.requeue(pid);
                }
            }
            self.sim.physics_pass(t, 0, 0);
            self.assert_records_parallel();
            if self.pick(24) == 0 {
                self.restore(t.next());
            }
        }
        assert!(self.sim.outcomes.iter().any(|o| o.completed_at.is_some()));
        assert!(
            self.resumed > 0 && self.restores > 0,
            "the sequence must exercise both"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn records_follow_their_pods_and_keep_the_progress_they_should(seed in any::<u64>()) {
        let sim = Simulator::new(workload(), Refuse::checkpointable(), SimConfig::new(HOSTS)).unwrap();
        Driver { sim, rng: SplitMix64::new(seed), carried: HashMap::new(), resumed: 0, restores: 0 }
            .run();
    }
}
