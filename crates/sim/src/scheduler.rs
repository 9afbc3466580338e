//! The scheduler interface the simulator drives.

use optum_types::{DelayCause, NodeId, PodSpec};

use crate::view::ClusterView;

/// The outcome of one placement attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// Place the pod on this host.
    Place(NodeId),
    /// No acceptable host this round; retry later. The cause feeds the
    /// delay attribution of Fig. 9(b).
    Unplaceable(DelayCause),
}

/// A per-tick scheduling budget in deterministic **virtual cost**
/// units (one unit ≈ one candidate host examined) — never wall clock,
/// so budget-limited runs replay bit-identically across machines and
/// thread counts.
///
/// The engine creates one budget per tick and threads it through
/// [`Scheduler::on_tick_budgeted`] and every
/// [`Scheduler::select_node_budgeted`] call of the round. Schedulers
/// charge what they examine and may consult [`DecisionBudget::remaining`]
/// to shrink their own work (smaller Medea batch, truncated Optum
/// candidate set, first-fit fallback for full-scan schedulers). An
/// unlimited budget (no `decision_cost_budget` configured) never
/// exhausts, and every scheduler must behave exactly as its
/// un-budgeted path in that case.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecisionBudget {
    limit: u64,
    spent: u64,
}

impl DecisionBudget {
    /// A budget of `limit` virtual cost units.
    pub fn new(limit: u64) -> DecisionBudget {
        DecisionBudget { limit, spent: 0 }
    }

    /// A budget that never exhausts (the no-deadline default).
    pub fn unlimited() -> DecisionBudget {
        DecisionBudget {
            limit: u64::MAX,
            spent: 0,
        }
    }

    /// Whether this budget can actually exhaust.
    pub fn is_limited(&self) -> bool {
        self.limit != u64::MAX
    }

    /// Records `units` of work (saturating).
    pub fn charge(&mut self, units: u64) {
        self.spent = self.spent.saturating_add(units);
    }

    /// Unspent units (zero once exhausted).
    pub fn remaining(&self) -> u64 {
        self.limit.saturating_sub(self.spent)
    }

    /// Whether the budget is spent.
    pub fn exhausted(&self) -> bool {
        self.spent >= self.limit
    }

    /// Units charged so far.
    pub fn spent(&self) -> u64 {
        self.spent
    }
}

/// A unified scheduler: given a pending pod and the cluster state,
/// pick a host (or decline).
///
/// The simulator calls [`Scheduler::select_node`] once per pending pod
/// per tick (budget permitting), in SLO-priority order, updating the
/// cluster view between calls. [`Scheduler::on_tick`] runs once per
/// tick before scheduling, for bookkeeping (profile updates, window
/// maintenance).
pub trait Scheduler {
    /// Display name (used in result labeling).
    fn name(&self) -> String;

    /// Chooses a host for `pod`, or declines with a cause.
    fn select_node(&mut self, pod: &PodSpec, view: &ClusterView<'_>) -> Decision;

    /// Per-tick bookkeeping hook.
    fn on_tick(&mut self, view: &ClusterView<'_>) {
        let _ = view;
    }

    /// Budget-aware variant of [`Scheduler::select_node`]. The default
    /// charges a full host scan and delegates; schedulers with a
    /// cheaper degraded mode (first-fit, truncated sampling) override
    /// this to respect the remaining budget. Must behave exactly like
    /// `select_node` under an unlimited budget.
    fn select_node_budgeted(
        &mut self,
        pod: &PodSpec,
        view: &ClusterView<'_>,
        budget: &mut DecisionBudget,
    ) -> Decision {
        budget.charge(view.nodes.len() as u64);
        self.select_node(pod, view)
    }

    /// Budget-aware variant of [`Scheduler::on_tick`]. The default
    /// delegates without charging (bookkeeping is free); schedulers
    /// that do per-tick placement work (Medea's batch solve) override
    /// this to shrink the work under pressure. Must behave exactly
    /// like `on_tick` under an unlimited budget.
    fn on_tick_budgeted(&mut self, view: &ClusterView<'_>, budget: &mut DecisionBudget) {
        let _ = budget;
        self.on_tick(view);
    }

    /// Serializes the scheduler's internal mutable state for an engine
    /// checkpoint. `None` (the default) declares the scheduler
    /// non-checkpointable: the engine refuses to write a snapshot and
    /// reports a clear error instead of silently dropping state.
    /// Stateless schedulers should return `Some(Vec::new())`.
    fn save_state(&self) -> Option<Vec<u8>> {
        None
    }

    /// Restores state produced by [`Scheduler::save_state`] when
    /// resuming from a checkpoint.
    fn load_state(&mut self, state: &[u8]) -> optum_types::Result<()> {
        let _ = state;
        Err(optum_types::Error::InvalidData(format!(
            "scheduler '{}' does not support checkpoint restore",
            self.name()
        )))
    }
}

/// Blanket impl so boxed schedulers — `Box<dyn Scheduler>`, and the
/// `Box<dyn Scheduler + Send>` rosters that move onto experiment
/// worker threads — can be passed around.
impl<S: Scheduler + ?Sized> Scheduler for Box<S> {
    fn name(&self) -> String {
        self.as_ref().name()
    }

    fn select_node(&mut self, pod: &PodSpec, view: &ClusterView<'_>) -> Decision {
        self.as_mut().select_node(pod, view)
    }

    fn on_tick(&mut self, view: &ClusterView<'_>) {
        self.as_mut().on_tick(view)
    }

    fn select_node_budgeted(
        &mut self,
        pod: &PodSpec,
        view: &ClusterView<'_>,
        budget: &mut DecisionBudget,
    ) -> Decision {
        self.as_mut().select_node_budgeted(pod, view, budget)
    }

    fn on_tick_budgeted(&mut self, view: &ClusterView<'_>, budget: &mut DecisionBudget) {
        self.as_mut().on_tick_budgeted(view, budget)
    }

    fn save_state(&self) -> Option<Vec<u8>> {
        self.as_ref().save_state()
    }

    fn load_state(&mut self, state: &[u8]) -> optum_types::Result<()> {
        self.as_mut().load_state(state)
    }
}
