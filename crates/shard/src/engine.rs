//! The sharded, event-driven scale engine.
//!
//! One [`ScaleEngine`] coordinates N per-shard states: admission and
//! the pending queue live at the coordinator (global SLO-priority
//! order must be preserved), node state, completion events and the
//! routed fault plan live in the shards. Every *active* tick runs the
//! same phase sequence:
//!
//! 1. **Admission** (coordinator, serial): throttle release, arrivals,
//!    queue-cap shedding — [`optum_sim::Admission`], the same
//!    controller the legacy engine runs (net `admitted`, BE high-water
//!    throttle). Each request's candidates are drawn and routed to
//!    their owning shards.
//! 2. **Shard step** (parallel over the `optum-parallel` pool): each
//!    shard pops due completions, applies due faults, and scores the
//!    candidates routed to it, proposing only for requests it can
//!    place.
//! 3. **Exchange** (coordinator): outboxes drain in the seeded
//!    delivery order; completions/evictions apply (commutative),
//!    proposals fold to the global argmin per request.
//! 4. **Commit** (coordinator, serial, request order): each winning
//!    proposal is re-validated against the *current* node state —
//!    earlier commits this round may have consumed the capacity — and
//!    either placed or left pending. Optimistic concurrency, exactly
//!    the Omega-style transaction the paper's unified scheduler
//!    assumes at the cluster edge.
//! 5. **Series sample** (stride-gated): per-slab sums folded in global
//!    slab order.
//!
//! Ticks on which nothing can change — no arrival, no completion, no
//! fault due, and the last round made no progress — are skipped in
//! O(1) (see [`ScaleResult::skipped_ticks`]). A tick allocates nothing
//! per request, and times each phase ([`tick_stage_table`]).

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Mutex;

use optum_chaos::route_plan;
use optum_parallel::parallel_map_threads;
use optum_sim::checkpoint::{fnv1a_fold, FNV1A_INIT};
use optum_sim::{Admission, Admit, ClassOverload};
use optum_trace::ScalePod;
use optum_types::{
    sort_fault_plan, FaultEvent, FaultKind, NodeId, ShardLayout, SloClass, SplitMix64, SLAB_NODES,
};

use crate::exchange::{delivery_order, Proposal};
use crate::sched::{best_proposals, score_candidate, PodFootprint, ScoreParams};
use crate::soa::{NodeTable, Resident, SlabAccumulator, STATE_DOWN, STATE_DRAINING, STATE_UP};

/// RNG channel tag of the per-(pod, tick) candidate draw.
const CANDIDATE_CHANNEL: u64 = 0xCA4D_1DA7;

/// Nanosecond counters of the stages of the `shard.tick` span, in phase
/// order: admission with the round's candidate draw, shard step,
/// exchange, commit, series sample (see [`optum_obs::StageClock`]).
const TICK_STAGES: [&str; 5] = [
    "shard.tick.admit_ns",
    "shard.tick.step_ns",
    "shard.tick.exchange_ns",
    "shard.tick.commit_ns",
    "shard.tick.sample_ns",
];

/// Renders the stage budget of the `shard.tick` span per tick (see
/// [`optum_obs::stage_table`]). `None` when the snapshot holds no tick.
pub fn tick_stage_table(snap: &optum_obs::Snapshot) -> Option<String> {
    let ticks = snap.span("shard.tick")?.count;
    optum_obs::stage_table(snap, "shard.tick", &TICK_STAGES, ("tick", ticks))
}

/// Sentinel for "never happened" tick fields.
pub const NEVER: u64 = u64::MAX;
/// Sentinel for "no node".
pub const NO_NODE: u32 = u32::MAX;

/// Pod run-state codes (coordinator-side). Whether a waiting pod is
/// queued or throttled is the admission controller's knowledge.
const PS_WAITING: u8 = 0;
const PS_RUNNING: u8 = 1;
const PS_DONE: u8 = 2;
const PS_SHED: u8 = 3;

/// Configuration of a sharded scale run.
#[derive(Debug, Clone, PartialEq)]
pub struct ScaleSimConfig {
    /// Fleet size (unit-capacity hosts).
    pub hosts: usize,
    /// Shard count; the layout is
    /// [`ShardLayout::contiguous`]`(hosts, shards)`.
    pub shards: usize,
    /// Worker threads for the shard fan-out (`0` = auto).
    pub threads: usize,
    /// Seed of the exchange delivery order and the candidate draws.
    pub seed: u64,
    /// Window end (exclusive), in ticks.
    pub end_tick: u64,
    /// Bounded pending queue (`None` = unbounded), with the legacy
    /// engine's class-aware shedding and BE high-water throttling.
    pub queue_cap: Option<usize>,
    /// Maximum placement decisions per active tick.
    pub schedule_budget_per_tick: usize,
    /// Power-of-k-choices candidate sample size per (pod, tick).
    pub candidates_per_pod: usize,
    /// Stride between cluster series samples, in ticks.
    pub series_stride: u64,
    /// Scoring and admission parameters.
    pub score: ScoreParams,
    /// Fault plan (routed per shard at construction).
    pub fault_events: Vec<FaultEvent>,
}

impl ScaleSimConfig {
    /// Defaults for `hosts` hosts over `end_tick` ticks.
    pub fn new(hosts: usize, shards: usize, end_tick: u64) -> ScaleSimConfig {
        ScaleSimConfig {
            hosts,
            shards,
            threads: 1,
            seed: 42,
            end_tick,
            queue_cap: None,
            schedule_budget_per_tick: 4096,
            candidates_per_pod: 64,
            series_stride: 10,
            score: ScoreParams::default(),
            fault_events: Vec::new(),
        }
    }
}

/// Per-pod final record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScaleOutcome {
    /// First placement tick ([`NEVER`] if never placed).
    pub placed_at: u64,
    /// Last node the pod ran on ([`NO_NODE`] if never placed).
    pub node: u32,
    /// Completion tick ([`NEVER`] if still running / never placed).
    pub completed_at: u64,
    /// Shed tick ([`NEVER`] if never shed).
    pub shed_at: u64,
    /// Fault-driven evictions suffered.
    pub evictions: u32,
}

impl Default for ScaleOutcome {
    fn default() -> ScaleOutcome {
        ScaleOutcome {
            placed_at: NEVER,
            node: NO_NODE,
            completed_at: NEVER,
            shed_at: NEVER,
            evictions: 0,
        }
    }
}

/// One cluster series sample (folded from per-slab sums in global
/// slab order — bit-identical across shard and thread counts).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScaleSample {
    /// Sample tick.
    pub tick: u64,
    /// Aggregate CPU utilization (Σ usage / Σ schedulable capacity).
    pub cpu_util: f64,
    /// Aggregate memory utilization.
    pub mem_util: f64,
    /// Pending-queue depth.
    pub pending: u64,
    /// Running pods.
    pub running: u64,
    /// Nodes not currently Up.
    pub unavailable: u64,
}

/// Result of a sharded scale run.
#[derive(Debug, Clone, PartialEq)]
pub struct ScaleResult {
    /// Per-class admission ledgers, indexed in [`SloClass::ALL`] order.
    pub per_class: [ClassOverload; SloClass::ALL.len()],
    /// Per-pod records (indexed by pod id).
    pub outcomes: Vec<ScaleOutcome>,
    /// Cluster series.
    pub series: Vec<ScaleSample>,
    /// Placement commits.
    pub placements: u64,
    /// Completions.
    pub completions: u64,
    /// Fault-driven evictions.
    pub evictions: u64,
    /// Exchange messages delivered.
    pub messages: u64,
    /// Ticks actually executed.
    pub active_ticks: u64,
    /// Ticks skipped by the event-driven loop.
    pub skipped_ticks: u64,
    /// Window end.
    pub end_tick: u64,
}

impl ScaleResult {
    /// FNV-1a digest over every outcome, ledger and series sample —
    /// two runs are byte-equivalent iff their digests match (used by
    /// the golden figure to pin cross-shard identity visibly).
    pub fn digest(&self) -> u64 {
        let mut h = FNV1A_INIT;
        let mut put = |word: u64| h = fnv1a_fold(h, &word.to_le_bytes());
        for o in &self.outcomes {
            put(o.placed_at);
            put(o.node as u64);
            put(o.completed_at);
            put(o.shed_at);
            put(o.evictions as u64);
        }
        for c in &self.per_class {
            put(c.arrivals);
            put(c.admitted);
            put(c.shed);
            put(c.requeued);
            put(c.throttled_end);
        }
        for s in &self.series {
            put(s.tick);
            put(s.cpu_util.to_bits());
            put(s.mem_util.to_bits());
            put(s.pending);
            put(s.running);
            put(s.unavailable);
        }
        h
    }

    /// Per-class conservation: every arrival ends in exactly one of
    /// admitted / shed / still-throttled.
    pub fn conservation_holds(&self) -> bool {
        self.per_class.iter().all(ClassOverload::conserved)
    }
}

/// One scheduling request of the current round.
struct Request {
    pod: u32,
    fp: PodFootprint,
}

/// The current round, routed to the shards: scratch reused across ticks.
#[derive(Default)]
struct Round {
    /// Owning shard of every slab. Layouts are slab-aligned, so no slab
    /// straddles two shards and this lookup is exact.
    slab_owner: Vec<usize>,
    requests: Vec<Request>,
    /// Per shard: the `(request index, global node)` candidates it
    /// owns, grouped by request in draw order.
    routed: Vec<Vec<(u32, u32)>>,
    /// The exchange's delivery order.
    order: Vec<usize>,
    /// Global argmin per request, folded by the exchange.
    winners: Vec<Option<Proposal>>,
}

impl Round {
    /// Draws the pod's global candidate set for this tick — a pure
    /// function of `(seed, pod, tick)`, independent of shards and
    /// threads — straight into the owning shards' lists.
    fn make_request(&mut self, pod: u32, p: &ScalePod, cfg: &ScaleSimConfig, t: u64) {
        let i = self.requests.len() as u32;
        let k = cfg.candidates_per_pod.clamp(1, cfg.hosts);
        let mut rng = SplitMix64::stream(cfg.seed ^ CANDIDATE_CHANNEL, pod as u64, t);
        for _ in 0..k {
            let node = (rng.next_u64() % cfg.hosts as u64) as u32;
            self.routed[self.slab_owner[node as usize / SLAB_NODES]].push((i, node));
        }
        self.requests.push(Request {
            pod,
            fp: PodFootprint {
                cpu_req: p.cpu_req,
                mem_req: p.mem_req,
                cpu_use: p.cpu_use,
                mem_use: p.mem_use,
            },
        });
    }
}

/// A shard's per-tick outbox (cleared, not reallocated).
#[derive(Default)]
struct Outbox {
    completions: Vec<u32>,
    evictions: Vec<u32>,
    /// `(request index, proposal)` for the requests this shard can place.
    proposals: Vec<(u32, Proposal)>,
}

/// One shard: its node table, completion queue, and fault-plan slice.
struct ShardState {
    nodes: NodeTable,
    faults: Vec<FaultEvent>,
    fault_cursor: usize,
    /// Min-heap of (end tick, pod, local node). Stale entries (evicted
    /// pods) are invalidated lazily by the resident `end` match.
    completions: BinaryHeap<Reverse<(u64, u32, u32)>>,
    out: Outbox,
}

impl ShardState {
    fn new(range: (u32, u32), faults: Vec<FaultEvent>) -> ShardState {
        ShardState {
            nodes: NodeTable::new(range.0, range.1),
            faults,
            fault_cursor: 0,
            completions: BinaryHeap::new(),
            out: Outbox::default(),
        }
    }

    /// Earliest tick at which this shard has work.
    fn next_event(&self) -> Option<u64> {
        let f = self.faults.get(self.fault_cursor).map(|e| e.at.0);
        let c = self.completions.peek().map(|Reverse((e, _, _))| *e);
        match (f, c) {
            (None, x) | (x, None) => x,
            (Some(a), Some(b)) => Some(a.min(b)),
        }
    }

    /// Evicts every resident of a node (deterministic order: last slot
    /// first, matching the swap-remove state evolution).
    fn evict_all(&mut self, local: usize) {
        while let Some(slot) = self.nodes.residents[local].len().checked_sub(1) {
            let r = self.nodes.remove_pod(local, slot);
            self.out.evictions.push(r.pod);
        }
    }

    /// One shard tick into [`ShardState::out`]: completions, faults,
    /// then the scoring of the candidates `routed` to this shard.
    fn step(&mut self, t: u64, requests: &[Request], routed: &[(u32, u32)], params: &ScoreParams) {
        self.out.completions.clear();
        self.out.evictions.clear();
        self.out.proposals.clear();
        while let Some(&Reverse((end, pod, local))) = self.completions.peek() {
            if end > t {
                break;
            }
            self.completions.pop();
            let local = local as usize;
            if let Some(slot) = self.nodes.residents[local]
                .iter()
                .position(|r| r.pod == pod && r.end == end)
            {
                self.nodes.remove_pod(local, slot);
                self.out.completions.push(pod);
            }
        }
        while self.fault_cursor < self.faults.len() && self.faults[self.fault_cursor].at.0 <= t {
            let ev = self.faults[self.fault_cursor];
            self.fault_cursor += 1;
            let local = self.nodes.local(ev.node.0);
            match ev.kind {
                FaultKind::Crash => {
                    self.nodes.set_state(local, STATE_DOWN);
                    self.evict_all(local);
                }
                FaultKind::Recover => {
                    if self.nodes.state[local] == STATE_DOWN {
                        self.nodes.set_state(local, STATE_UP);
                    }
                }
                FaultKind::DrainStart => {
                    if self.nodes.state[local] == STATE_UP {
                        self.nodes.set_state(local, STATE_DRAINING);
                    }
                    self.evict_all(local);
                }
                FaultKind::DrainEnd => {
                    if self.nodes.state[local] == STATE_DRAINING {
                        self.nodes.set_state(local, STATE_UP);
                    }
                }
                FaultKind::Degrade { factor } => self.nodes.set_degrade(local, factor),
                FaultKind::DegradeEnd => self.nodes.set_degrade(local, 1.0),
                FaultKind::PodKill { selector } => {
                    let n = self.nodes.residents[local].len();
                    if n > 0 {
                        let slot = (selector % n as u64) as usize;
                        let r = self.nodes.remove_pod(local, slot);
                        self.out.evictions.push(r.pod);
                    }
                }
            }
        }
        let fp = |i: u32| &requests[i as usize].fp;
        best_proposals(&self.nodes, routed, fp, params, &mut self.out.proposals);
    }
}

/// The admission controller's view of a scale pod: its
/// `(class, arrival tick)`.
fn pod_meta(pods: &[ScalePod]) -> impl Fn(u32) -> (SloClass, u64) + '_ {
    |id| {
        let p = &pods[id as usize];
        (p.class, p.arrival)
    }
}

/// The sharded scale engine (see module docs for the tick phases).
pub struct ScaleEngine<'p> {
    cfg: ScaleSimConfig,
    pods: &'p [ScalePod],
    cells: Vec<Mutex<ShardState>>,
    round: Round,
    admission: Admission<u32>,
    pod_state: Vec<u8>,
    outcomes: Vec<ScaleOutcome>,
    next_arrival: usize,
    running: u64,
    placements: u64,
    completions_n: u64,
    evictions_n: u64,
    messages: u64,
    series: Vec<ScaleSample>,
    last_series_bucket: u64,
}

impl<'p> ScaleEngine<'p> {
    /// Builds the engine: computes the slab-aligned layout and its slab
    /// owner table, routes the (canonically sorted) fault plan per
    /// shard, and sizes the coordinator state to the population.
    pub fn new(pods: &'p [ScalePod], cfg: ScaleSimConfig) -> ScaleEngine<'p> {
        assert!(cfg.hosts > 0, "scale engine needs at least one host");
        let layout = ShardLayout::contiguous(cfg.hosts, cfg.shards);
        let mut plan = cfg.fault_events.clone();
        sort_fault_plan(&mut plan);
        let routed = route_plan(&layout, &plan);
        let cells = layout
            .ranges
            .iter()
            .zip(routed)
            .map(|(&range, faults)| Mutex::new(ShardState::new(range, faults)))
            .collect();
        let slab_owner = (0..layout.slab_count())
            .map(|slab| layout.shard_of(NodeId((slab * SLAB_NODES) as u32)))
            .collect::<Option<_>>()
            .expect("a layout tiles the fleet");
        let round = Round {
            slab_owner,
            routed: vec![Vec::new(); layout.shard_count()],
            ..Round::default()
        };
        let n = pods.len();
        ScaleEngine {
            cells,
            round,
            pods,
            admission: Admission::new(cfg.queue_cap),
            pod_state: vec![PS_WAITING; n],
            outcomes: vec![ScaleOutcome::default(); n],
            next_arrival: 0,
            running: 0,
            placements: 0,
            completions_n: 0,
            evictions_n: 0,
            messages: 0,
            series: Vec::new(),
            last_series_bucket: 0,
            cfg,
        }
    }

    /// Runs the event-driven loop to the window end.
    pub fn run(mut self) -> ScaleResult {
        let _run = optum_obs::span!("shard.run");
        let end = self.cfg.end_tick;
        let mut t = 0u64;
        let mut active = 0u64;
        while t < end {
            let progress = self.step_tick(t);
            active += 1;
            let mut nt = end;
            if progress {
                nt = t + 1;
            }
            if let Some(p) = self.pods.get(self.next_arrival) {
                nt = nt.min(p.arrival);
            }
            for cell in self.cells.iter_mut() {
                if let Some(e) = cell.get_mut().expect("shard cell poisoned").next_event() {
                    nt = nt.min(e);
                }
            }
            t = nt.max(t + 1);
        }
        self.finalize(end, active)
    }

    fn step_tick(&mut self, t: u64) -> bool {
        let _tick = optum_obs::span!("shard.tick");
        let mut stage = optum_obs::StageClock::start();
        let [admit_ns, step_ns, exchange_ns, commit_ns, sample_ns] = TICK_STAGES;
        let meta = pod_meta(self.pods);
        self.admission.release_throttled(&meta);
        while let Some(p) = self.pods.get(self.next_arrival) {
            if p.arrival > t {
                break;
            }
            if self.admission.admit(self.next_arrival as u32, &meta) == Admit::Throttled {
                optum_obs::counter!("shard.throttled");
            }
            self.next_arrival += 1;
        }
        self.admission.settle(&meta);
        while let Some(pod) = self.admission.next_shed() {
            self.outcomes[pod as usize].shed_at = t;
            self.pod_state[pod as usize] = PS_SHED;
            optum_obs::counter!("shard.shed");
        }
        if self.cfg.queue_cap.is_some() {
            self.admission.record_peaks();
        }
        let queue = self.admission.sorted(&meta);
        let round = &mut self.round;
        round.requests.clear();
        round.routed.iter_mut().for_each(Vec::clear);
        for &pod in &queue[..self.cfg.schedule_budget_per_tick.min(queue.len())] {
            round.make_request(pod, &self.pods[pod as usize], &self.cfg, t);
        }
        stage.lap(admit_ns);

        let params = self.cfg.score;
        let (requests, routed) = (&round.requests, &round.routed);
        if self.cells.len() == 1 || self.cfg.threads == 1 {
            // Serial fast path: no per-tick thread spawn.
            for (cell, routed) in self.cells.iter_mut().zip(routed) {
                cell.get_mut()
                    .expect("shard cell poisoned")
                    .step(t, requests, routed, &params);
            }
        } else {
            parallel_map_threads(self.cfg.threads, &self.cells, |s, cell| {
                let mut st = cell.lock().expect("shard cell poisoned");
                st.step(t, requests, &routed[s], &params);
            });
        }
        stage.lap(step_ns);

        // Exchange: drain outboxes in the seeded delivery order.
        delivery_order(self.cfg.seed, t, self.cells.len(), &mut round.order);
        let winners = &mut round.winners;
        winners.clear();
        winners.resize(round.requests.len(), None);
        let mut requeued = 0usize;
        for &s in &round.order {
            let ob = &self.cells[s].get_mut().expect("shard cell poisoned").out;
            self.messages +=
                (ob.completions.len() + ob.evictions.len() + ob.proposals.len()) as u64;
            for &pod in &ob.completions {
                self.outcomes[pod as usize].completed_at = t;
                self.pod_state[pod as usize] = PS_DONE;
                self.running -= 1;
                self.completions_n += 1;
            }
            for &pod in &ob.evictions {
                self.outcomes[pod as usize].evictions += 1;
                self.pod_state[pod as usize] = PS_WAITING;
                self.running -= 1;
                self.evictions_n += 1;
                self.admission.push(pod, &meta);
                requeued += 1;
                optum_obs::counter!("shard.requeues");
            }
            for &(i, p) in &ob.proposals {
                let w = &mut winners[i as usize];
                *w = Proposal::merge(*w, Some(p));
            }
        }
        stage.lap(exchange_ns);

        // Commit: sequential optimistic validation in request order.
        let mut placed = 0usize;
        for (req, &w) in round.requests.iter().zip(&round.winners) {
            let _d = optum_obs::span!("sched.decide");
            let Some(w) = w else { continue };
            let cell = &mut self.cells[round.slab_owner[w.node as usize / SLAB_NODES]];
            let st = cell.get_mut().expect("shard cell poisoned");
            let local = st.nodes.local(w.node);
            // Re-validate: an earlier commit this round (or a fault
            // this tick) may have consumed the headroom.
            if score_candidate(&st.nodes, local, &req.fp, &params).is_none() {
                optum_obs::counter!("shard.commit_conflicts");
                continue;
            }
            let end_tick = t + self.pods[req.pod as usize].duration;
            st.nodes.add_pod(
                local,
                Resident {
                    pod: req.pod,
                    cpu_use: req.fp.cpu_use,
                    mem_use: req.fp.mem_use,
                    cpu_req: req.fp.cpu_req,
                    mem_req: req.fp.mem_req,
                    end: end_tick,
                },
            );
            st.completions
                .push(Reverse((end_tick, req.pod, local as u32)));
            let o = &mut self.outcomes[req.pod as usize];
            if o.placed_at == NEVER {
                o.placed_at = t;
            }
            o.node = w.node;
            self.pod_state[req.pod as usize] = PS_RUNNING;
            self.running += 1;
            self.placements += 1;
            placed += 1;
            optum_obs::counter!("shard.placements");
        }
        if placed > 0 {
            let ps = &self.pod_state;
            self.admission
                .remove_placed(|p| ps[p as usize] == PS_RUNNING, &meta);
        }
        stage.lap(commit_ns);
        self.maybe_sample(t);
        stage.lap(sample_ns);

        // Progress: retry next tick only when this round changed the
        // queue or a throttle release is possible; otherwise park
        // until the next arrival/completion/fault.
        (placed > 0 && !self.admission.pending().is_empty())
            || requeued > 0
            || self.admission.release_due()
    }

    fn maybe_sample(&mut self, t: u64) {
        let stride = self.cfg.series_stride.max(1);
        let bucket = t / stride;
        if !self.series.is_empty() && bucket <= self.last_series_bucket {
            return;
        }
        self.last_series_bucket = bucket;
        let mut acc = SlabAccumulator::default();
        let mut unavailable = 0u64;
        for cell in self.cells.iter_mut() {
            let st = cell.get_mut().expect("shard cell poisoned");
            st.nodes.fold_slabs(&mut acc);
            unavailable += st.nodes.unavailable as u64;
        }
        self.series.push(ScaleSample {
            tick: t,
            cpu_util: if acc.cpu_cap > 0.0 {
                acc.cpu_used / acc.cpu_cap
            } else {
                0.0
            },
            mem_util: if acc.mem_cap > 0.0 {
                acc.mem_used / acc.mem_cap
            } else {
                0.0
            },
            pending: self.admission.pending().len() as u64,
            running: self.running,
            unavailable,
        });
    }

    fn finalize(mut self, end: u64, active: u64) -> ScaleResult {
        self.admission.close();
        ScaleResult {
            per_class: self.admission.stats().per_class,
            outcomes: self.outcomes,
            series: self.series,
            placements: self.placements,
            completions: self.completions_n,
            evictions: self.evictions_n,
            messages: self.messages,
            active_ticks: active,
            skipped_ticks: end - active,
            end_tick: end,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use optum_trace::{generate_scale, ScaleWorkloadConfig};
    use optum_types::{Tick, TICKS_PER_DAY};

    fn population(hosts: usize, seed: u64) -> Vec<ScalePod> {
        generate_scale(&ScaleWorkloadConfig::sized(hosts, 1, seed))
    }

    fn run_with(pods: &[ScalePod], hosts: usize, shards: usize, threads: usize) -> ScaleResult {
        let mut cfg = ScaleSimConfig::new(hosts, shards, TICKS_PER_DAY);
        cfg.threads = threads;
        ScaleEngine::new(pods, cfg).run()
    }

    #[test]
    fn pods_run_and_complete() {
        let pods = population(100, 42);
        let r = run_with(&pods, 100, 1, 1);
        assert_eq!(r.outcomes.len(), pods.len());
        assert!(r.placements > 0);
        assert!(r.completions > 0);
        assert!(r.completions <= r.placements);
        assert!(r.conservation_holds());
        assert!(!r.series.is_empty());
        // Event-driven: a light one-day window must skip some ticks.
        assert_eq!(r.active_ticks + r.skipped_ticks, TICKS_PER_DAY);
    }

    #[test]
    fn shard_count_is_invisible_in_the_result() {
        let pods = population(200, 7);
        let base = run_with(&pods, 200, 1, 1);
        // 200 hosts are four slabs: at 8 shards the last four are empty.
        for shards in [2usize, 3, 4, 8] {
            for threads in [1usize, 4] {
                let r = run_with(&pods, 200, shards, threads);
                assert_eq!(
                    r.outcomes, base.outcomes,
                    "shards={shards} threads={threads}"
                );
                assert_eq!(r.per_class, base.per_class);
                assert_eq!(r.digest(), base.digest());
                for (a, b) in r.series.iter().zip(&base.series) {
                    assert_eq!(a.cpu_util.to_bits(), b.cpu_util.to_bits());
                    assert_eq!(a.mem_util.to_bits(), b.mem_util.to_bits());
                }
            }
        }
    }

    #[test]
    fn crash_evicts_and_requeues() {
        let pods = population(80, 3);
        let mut cfg = ScaleSimConfig::new(80, 2, TICKS_PER_DAY);
        // Crash half the fleet mid-day, recover an hour later.
        for node in 0..40u32 {
            cfg.fault_events.push(FaultEvent {
                at: Tick(1000),
                node: NodeId(node),
                kind: FaultKind::Crash,
            });
            cfg.fault_events.push(FaultEvent {
                at: Tick(1120),
                node: NodeId(node),
                kind: FaultKind::Recover,
            });
        }
        let faulty = ScaleEngine::new(&pods, cfg).run();
        assert!(faulty.evictions > 0, "mid-day crash wave must evict");
        assert!(faulty.conservation_holds());
        assert!(faulty.series.iter().any(|s| s.unavailable > 0));
    }

    #[test]
    fn faults_outside_the_fleet_are_skipped() {
        let pods = population(100, 42);
        let clean = run_with(&pods, 100, 1, 1);
        for shards in [1usize, 2, 4] {
            let mut cfg = ScaleSimConfig::new(100, shards, TICKS_PER_DAY);
            cfg.fault_events.push(FaultEvent {
                at: Tick(500),
                node: NodeId(500),
                kind: FaultKind::Crash,
            });
            let r = ScaleEngine::new(&pods, cfg).run();
            assert_eq!(r.digest(), clean.digest(), "shards={shards}");
        }
    }

    #[test]
    fn queue_cap_sheds_and_conserves() {
        // Deterministic flood: 100 heavy pods at tick 0 against two
        // hosts — the queue must overflow whatever the scheduler does.
        let pods: Vec<ScalePod> = (0..100)
            .map(|i| ScalePod {
                arrival: 0,
                class: if i % 2 == 0 {
                    SloClass::Be
                } else {
                    SloClass::Ls
                },
                cpu_req: 0.5,
                mem_req: 0.4,
                cpu_use: 0.45,
                mem_use: 0.35,
                duration: 500,
            })
            .collect();
        let mut cfg = ScaleSimConfig::new(2, 2, TICKS_PER_DAY);
        cfg.queue_cap = Some(20);
        let r = ScaleEngine::new(&pods, cfg).run();
        let be = r.per_class[SloClass::Be.index()];
        assert!(
            be.shed > 0 || be.throttled_end > 0,
            "two hosts must overload"
        );
        assert!(r.per_class.iter().any(|c| c.shed > 0), "cap must shed");
        assert!(r.conservation_holds());
    }

    #[test]
    fn zero_cap_sheds_everything() {
        let pods = population(50, 5);
        let mut cfg = ScaleSimConfig::new(50, 1, TICKS_PER_DAY);
        cfg.queue_cap = Some(0);
        let r = ScaleEngine::new(&pods, cfg).run();
        assert_eq!(r.placements, 0);
        for c in &r.per_class {
            assert_eq!(c.shed, c.arrivals);
        }
        assert!(r.conservation_holds());
    }
}
