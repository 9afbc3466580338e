//! A scheduler wrapper that times every call the engine makes into the
//! `sched`/`optum` layer, from outside that layer.

use std::time::Instant;

use optum_obs::Hist;
use optum_sim::{ClusterView, Decision, DecisionBudget, Scheduler};
use optum_types::PodSpec;

/// What [`Timed`] recorded over one run.
#[derive(Debug, Clone, Default)]
pub struct SchedStats {
    /// Duration of every `select_node*` call, nanoseconds.
    pub select_ns: Hist,
    /// Calls that answered [`Decision::Place`].
    pub placed: u64,
    /// Total time inside `on_tick*`, nanoseconds.
    pub on_tick_ns: u64,
}

/// Forwards every [`Scheduler`] method to `inner` and records the time
/// spent there into `stats`. Recording is two clock reads and one
/// fixed-size histogram update per call — no allocation — and never
/// touches what the scheduler sees or answers, so a wrapped run is
/// bit-identical to a bare one.
pub struct Timed<'a, S> {
    inner: S,
    stats: &'a mut SchedStats,
}

impl<'a, S: Scheduler> Timed<'a, S> {
    /// Wraps `inner`; `stats` outlives the simulator that consumes the
    /// wrapper, which is how the numbers get back out.
    pub fn new(inner: S, stats: &'a mut SchedStats) -> Timed<'a, S> {
        Timed { inner, stats }
    }

    fn record_select(&mut self, start: Instant, decision: Decision) -> Decision {
        let ns = start.elapsed().as_nanos() as u64;
        self.stats.select_ns.observe(ns);
        if matches!(decision, Decision::Place(_)) {
            self.stats.placed += 1;
        }
        decision
    }

    fn record_on_tick(&mut self, start: Instant) {
        self.stats.on_tick_ns += start.elapsed().as_nanos() as u64;
    }
}

impl<S: Scheduler> Scheduler for Timed<'_, S> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn select_node(&mut self, pod: &PodSpec, view: &ClusterView<'_>) -> Decision {
        let start = Instant::now();
        let decision = self.inner.select_node(pod, view);
        self.record_select(start, decision)
    }

    fn on_tick(&mut self, view: &ClusterView<'_>) {
        let start = Instant::now();
        self.inner.on_tick(view);
        self.record_on_tick(start);
    }

    fn select_node_budgeted(
        &mut self,
        pod: &PodSpec,
        view: &ClusterView<'_>,
        budget: &mut DecisionBudget,
    ) -> Decision {
        let start = Instant::now();
        let decision = self.inner.select_node_budgeted(pod, view, budget);
        self.record_select(start, decision)
    }

    fn on_tick_budgeted(&mut self, view: &ClusterView<'_>, budget: &mut DecisionBudget) {
        let start = Instant::now();
        self.inner.on_tick_budgeted(view, budget);
        self.record_on_tick(start);
    }

    fn save_state(&self) -> Option<Vec<u8>> {
        self.inner.save_state()
    }

    fn load_state(&mut self, state: &[u8]) -> optum_types::Result<()> {
        self.inner.load_state(state)
    }
}
