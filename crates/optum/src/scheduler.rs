//! The Online Scheduler: Resource Usage Predictor (❺), Interference
//! Predictor (❹) and Node Selector (❻) behind the score of Eq. 11.

use std::collections::HashMap;
use std::sync::Arc;

use optum_predictors::{OptumPredictor, PodInfo, UsagePredictor};
use optum_sim::{ClusterView, Decision, NodeRuntime, Scheduler, TrainingData};
use optum_types::{AppId, PodSpec, Resources, SloClass, StdRng};

use crate::profiler::{InterferenceProfiler, ResourceUsageProfiler};

/// Online-scheduler configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OptumConfig {
    /// Weight of LS interference in the objective (ω_o; §5.1 uses 0.7).
    pub omega_o: f64,
    /// Weight of BE interference (ω_b; §5.1 uses 0.3).
    pub omega_b: f64,
    /// PPO-style host sampling probability (§4.3.4 uses 0.05).
    pub sample_rate: f64,
    /// Lower bound on sampled candidates. At the paper's scale the
    /// 5% rate yields ~300 candidates and the chance that a sample
    /// misses every busy host is nil; a sub-scale cluster needs this
    /// floor or placements leak onto idle hosts and smear the packing.
    pub min_candidates: usize,
    /// Memory-utilization guard: hosts predicted beyond this fraction
    /// of memory capacity leave the candidate list (§5.1 uses 0.8).
    pub memory_guard: f64,
    /// CPU-utilization guard, the CPU analogue of the memory guard.
    /// The paper's predictor over-estimates usage by 25–110%
    /// (Fig. 11(a)), so its `POC ≤ capacity` check implicitly keeps
    /// actual peaks well below saturation; the ERO predictor on this
    /// workload is accurate to ~15%, so an explicit margin restores
    /// the same effective headroom.
    pub cpu_guard: f64,
    /// RNG seed for candidate sampling.
    pub seed: u64,
    /// Hard per-application PSI constraint (§4.3.1: "the system can
    /// also impose separate constraints on PSI from important
    /// services"): a candidate whose placement would push any resident
    /// LS application's predicted PSI above this is infeasible.
    pub psi_guard: f64,
    /// Utilization-only scoring (the paper's Optum-util ablation):
    /// drop the interference terms and the PSI guard, keep the
    /// CPU/memory guards. This is also the circuit breaker's fallback
    /// mode when the trained predictors are faulty or stale.
    pub util_only: bool,
    /// Consecutive failed predictor probes before the breaker opens.
    pub breaker_trip_after: u32,
    /// Ticks the breaker stays open before probing again (half-open).
    pub breaker_cooldown_ticks: u32,
}

impl Default for OptumConfig {
    fn default() -> OptumConfig {
        OptumConfig {
            omega_o: 0.7,
            omega_b: 0.3,
            sample_rate: 0.05,
            min_candidates: 64,
            memory_guard: 0.8,
            cpu_guard: 0.8,
            seed: 42,
            psi_guard: 0.1,
            util_only: false,
            breaker_trip_after: 1,
            breaker_cooldown_ticks: 10,
        }
    }
}

/// Circuit-breaker state guarding the trained predictors.
///
/// `Closed` is the healthy state (full Eq. 11 scoring). A failed
/// predictor probe — the profiles are marked faulty or stale by the
/// chaos plan — counts toward `breaker_trip_after`; tripping opens the
/// breaker and the scheduler falls back to utilization-only scoring.
/// After `breaker_cooldown_ticks` the breaker half-opens and probes
/// again: a healthy probe closes it (full scoring resumes with the
/// refreshed profile), a failed one re-opens it for another cooldown.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Predictors healthy; full interference-aware scoring.
    Closed,
    /// Predictors faulty; utilization-only fallback.
    Open,
    /// Cooldown elapsed; probing for recovery (still in fallback).
    HalfOpen,
}

/// Memoization key for interference predictions: the (app, POC
/// bucket, POM bucket) space is tiny, and RF inference dominates
/// scoring cost without this cache.
type RiKey = (u32, u16, u16, bool);

/// A scored placement candidate, for inspection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CandidateExplanation {
    /// Predicted CPU utilization after placement (POC / capacity).
    pub poc_util: f64,
    /// Predicted memory utilization after placement (POM / capacity).
    pub pom_util: f64,
    /// The Eq. 11 score (−∞ when infeasible).
    pub score: f64,
    /// Whether the candidate passed the feasibility checks.
    pub feasible: bool,
    /// False when the CPU guard or the PSI guard (CPU pressure on a
    /// resident LS application) rejected the candidate.
    pub cpu_ok: bool,
    /// False when the memory guard rejected the candidate.
    pub mem_ok: bool,
    /// Summed predicted PSI over resident LS pods (pre-weight).
    pub ls_ri: f64,
    /// Summed predicted completion inflation over resident BE pods.
    pub be_ri: f64,
}

/// Internal per-candidate scoring result.
#[derive(Clone, Copy)]
struct ScoredCandidate {
    score: f64,
    cpu_ok: bool,
    mem_ok: bool,
    ls_ri: f64,
    be_ri: f64,
}

impl ScoredCandidate {
    /// Equality of every bit, which is what a memo hit owes a fresh
    /// computation (`==` would let `0.0` pass for `-0.0`).
    fn bit_eq(&self, other: &ScoredCandidate) -> bool {
        let bits = |c: &ScoredCandidate| {
            (
                c.score.to_bits(),
                c.cpu_ok,
                c.mem_ok,
                c.ls_ri.to_bits(),
                c.be_ri.to_bits(),
            )
        };
        bits(self) == bits(other)
    }
}

fn resource_bits(r: Resources) -> [u64; 2] {
    [r.cpu.to_bits(), r.mem.to_bits()]
}

/// Everything scoring reads of the incoming pod, as bit patterns. Pods
/// of one application share all of it, so a host sees a handful of
/// classes. `app` leads because the derived `==` compares in field
/// order and a mismatch there ends the comparison.
#[derive(Clone, Copy, PartialEq, Eq)]
struct PodClass {
    app: AppId,
    slo: SloClass,
    request: [u64; 2],
    limit: [u64; 2],
}

impl PodClass {
    fn of(pod: &PodSpec) -> PodClass {
        PodClass {
            app: pod.app,
            slo: pod.slo,
            request: resource_bits(pod.request),
            limit: resource_bits(pod.limit),
        }
    }
}

/// One host's memoized scores: valid for one pod-list version (and the
/// capacity it was scored against), one entry per pod class seen since
/// the list last changed. The default matches no host — none has zero
/// capacity — so a fresh slot's first lookup misses.
#[derive(Default)]
struct HostMemo {
    pods_version: u64,
    capacity: [u64; 2],
    entries: Vec<(PodClass, ScoredCandidate)>,
}

impl HostMemo {
    /// The stored score of `class` on `node`; forgets the entries first
    /// when the host's pod list has moved on.
    fn lookup(&mut self, node: &NodeRuntime, class: &PodClass) -> Option<ScoredCandidate> {
        let capacity = resource_bits(node.spec.capacity);
        if (self.pods_version, self.capacity) != (node.pods_version(), capacity) {
            self.pods_version = node.pods_version();
            self.capacity = capacity;
            self.entries.clear();
            return None;
        }
        self.entries
            .iter()
            .find(|(c, _)| c == class)
            .map(|&(_, scored)| scored)
    }
}

/// Resident pods of one host grouped per (app, class), with counts.
type AppGroups = Vec<(AppId, SloClass, f64)>;

/// Buffers one decision fills and the next reuses, so a decision whose
/// candidates all hit the memo allocates nothing.
#[derive(Default)]
struct DecideScratch {
    /// Host indices under the PPO shuffle.
    sample: Vec<usize>,
    /// The sampled hosts that are schedulable and affinity-allowed.
    candidates: Vec<usize>,
    /// Pod list of a host plus the incoming pod (`observation_plus`).
    infos: Vec<PodInfo>,
    /// One score per candidate, in candidate order.
    scored: Vec<(usize, ScoredCandidate)>,
    groups: AppGroups,
}

/// The predictor half of one candidate's score: host utilization with
/// the pod added, and the guards on it.
struct CandidateEval {
    /// Predicted CPU utilization after placement (POC / capacity).
    poc_util: f64,
    /// Predicted memory utilization after placement (POM / capacity).
    pom_util: f64,
    cpu_ok: bool,
    mem_ok: bool,
}

/// The Optum unified scheduler.
pub struct OptumScheduler {
    config: OptumConfig,
    usage_profiles: Arc<ResourceUsageProfiler>,
    interference: Arc<InterferenceProfiler>,
    predictor: OptumPredictor,
    rng: StdRng,
    ri_cache: HashMap<RiKey, f64>,
    /// Candidate memo, one slot per host (see DESIGN.md, "Candidate
    /// memo"). Holds either full or utilization-only scores, never
    /// both: `memo_degraded` says which.
    memo: Vec<HostMemo>,
    memo_degraded: bool,
    scratch: DecideScratch,
    health: crate::profiler::PredictorHealth,
    breaker: BreakerState,
    consecutive_failures: u32,
    cooldown_left: u32,
    fallback_ticks: u64,
}

impl OptumScheduler {
    /// Builds the scheduler from offline-profiling outputs.
    pub fn new(
        config: OptumConfig,
        usage_profiles: ResourceUsageProfiler,
        interference: InterferenceProfiler,
    ) -> OptumScheduler {
        OptumScheduler::with_shared(config, Arc::new(usage_profiles), Arc::new(interference))
    }

    /// Builds the scheduler from shared profiling outputs (several
    /// scheduler instances — parameter sweeps, distributed deployments
    /// — can reuse one trained profiler).
    pub fn with_shared(
        config: OptumConfig,
        usage_profiles: Arc<ResourceUsageProfiler>,
        interference: Arc<InterferenceProfiler>,
    ) -> OptumScheduler {
        OptumScheduler {
            rng: StdRng::seed_from_u64(config.seed),
            config,
            usage_profiles,
            interference,
            predictor: OptumPredictor,
            ri_cache: HashMap::new(),
            memo: Vec::new(),
            memo_degraded: false,
            scratch: DecideScratch::default(),
            health: crate::profiler::PredictorHealth::healthy(),
            breaker: BreakerState::Closed,
            consecutive_failures: 0,
            cooldown_left: 0,
            fallback_ticks: 0,
        }
    }

    /// Installs a predictor outage plan (sorted chaos windows during
    /// which the trained profiles are faulty or stale). The circuit
    /// breaker probes it once per tick.
    pub fn set_outage_plan(&mut self, outages: Vec<optum_chaos::OutageWindow>) {
        self.health = crate::profiler::PredictorHealth::from_plan(outages);
    }

    /// Current circuit-breaker state.
    pub fn breaker_state(&self) -> BreakerState {
        self.breaker
    }

    /// Ticks spent in utilization-only fallback because of the
    /// breaker (permanent `util_only` configs do not count).
    pub fn fallback_ticks(&self) -> u64 {
        self.fallback_ticks
    }

    /// True while scoring runs utilization-only — either the
    /// permanent Optum-util configuration or an open breaker.
    pub fn is_degraded(&self) -> bool {
        self.config.util_only || self.breaker != BreakerState::Closed
    }

    /// Advances the breaker state machine with one predictor probe.
    fn probe_predictor(&mut self, tick: optum_types::Tick) {
        if !self.health.has_outages() {
            return;
        }
        let healthy = self.health.healthy_at(tick);
        match self.breaker {
            BreakerState::Closed => {
                if healthy {
                    self.consecutive_failures = 0;
                } else {
                    self.consecutive_failures += 1;
                    if self.consecutive_failures >= self.config.breaker_trip_after.max(1) {
                        self.breaker = BreakerState::Open;
                        self.cooldown_left = self.config.breaker_cooldown_ticks.max(1);
                        optum_obs::counter!("optum.breaker.opened");
                    }
                }
            }
            BreakerState::Open => {
                self.cooldown_left = self.cooldown_left.saturating_sub(1);
                if self.cooldown_left == 0 {
                    self.breaker = BreakerState::HalfOpen;
                    optum_obs::counter!("optum.breaker.half_open");
                }
            }
            BreakerState::HalfOpen => {
                if healthy {
                    self.breaker = BreakerState::Closed;
                    self.consecutive_failures = 0;
                    optum_obs::counter!("optum.breaker.closed");
                } else {
                    self.breaker = BreakerState::Open;
                    self.cooldown_left = self.config.breaker_cooldown_ticks.max(1);
                    optum_obs::counter!("optum.breaker.opened");
                }
            }
        }
        if self.breaker != BreakerState::Closed {
            self.fallback_ticks += 1;
            optum_obs::counter!("optum.fallback.ticks");
        }
    }

    /// Convenience constructor straight from a profiling dataset.
    pub fn from_training(
        config: OptumConfig,
        data: &TrainingData,
        profiler_config: crate::profiler::ProfilerConfig,
    ) -> optum_types::Result<OptumScheduler> {
        let interference = InterferenceProfiler::train(data, profiler_config)?;
        Ok(OptumScheduler::new(
            config,
            ResourceUsageProfiler::from_training(data),
            interference,
        ))
    }

    /// Raw model prediction for one app at a utilization point.
    fn raw_ri(&self, app: AppId, is_ls: bool, poc_util: f64, pom_util: f64) -> f64 {
        let Some(profile) = self.usage_profiles.profile(app) else {
            return 0.0;
        };
        if is_ls {
            self.interference
                .predict_psi_raw(
                    app,
                    profile.max_cpu_util,
                    profile.max_mem_util,
                    poc_util,
                    pom_util,
                    profile.max_qps_norm,
                )
                .unwrap_or(0.0)
        } else {
            self.interference
                .predict_ct_raw(
                    app,
                    profile.max_cpu_util,
                    profile.max_mem_util,
                    poc_util,
                    pom_util,
                )
                .unwrap_or(0.0)
        }
    }

    /// Interference of one application's pods on a host with the given
    /// predicted utilization (Eqs. 9–10).
    ///
    /// The model is evaluated at quantized utilization bucket centers
    /// and baseline-corrected against its own low-utilization reading:
    /// Eq. 11 multiplies this value by the host's pod count, so raw
    /// tree jitter or a constant floor would otherwise be amplified
    /// into count-proportional noise that buries the utilization term.
    /// After the correction, below-knee hosts read exactly zero and
    /// only genuine pressure signal survives.
    fn ri_of(&mut self, app: AppId, is_ls: bool, poc_util: f64, pom_util: f64) -> f64 {
        let bucket = |u: f64| (u.clamp(0.0, 1.0) * 25.0).min(24.0) as u16;
        let center = |b: u16| (b as f64 + 0.5) / 25.0;
        let key: RiKey = (app.0, bucket(poc_util), bucket(pom_util), is_ls);
        if let Some(v) = self.ri_cache.get(&key) {
            return *v;
        }
        // Baseline: the model's reading in the uncontended regime.
        let base = self.raw_ri(app, is_ls, 0.26, center(key.2));
        let at = self.raw_ri(app, is_ls, center(key.1), center(key.2));
        let value = (at - base).max(0.0);
        self.ri_cache.insert(key, value);
        value
    }

    /// Explains the scoring of one candidate host for a pod: the
    /// predicted utilizations, interference terms and final score.
    /// Useful for debugging placement decisions.
    pub fn explain(
        &mut self,
        pod: &PodSpec,
        node: &NodeRuntime,
        view: &ClusterView<'_>,
    ) -> CandidateExplanation {
        let mut s = std::mem::take(&mut self.scratch);
        let eval = self.eval_candidate(pod, node, view, &mut s.infos);
        let scored = self.score_eval(pod, node, &eval, &mut s.groups);
        self.scratch = s;
        CandidateExplanation {
            poc_util: eval.poc_util,
            pom_util: eval.pom_util,
            score: scored.score,
            feasible: scored.score > f64::NEG_INFINITY,
            cpu_ok: scored.cpu_ok,
            mem_ok: scored.mem_ok,
            ls_ri: scored.ls_ri,
            be_ri: scored.be_ri,
        }
    }

    /// Sums the per-application interference terms of a host state
    /// (Eqs. 9–10), returning (LS sum, BE sum, worst single-app LS
    /// PSI).
    fn interference_sums(
        &mut self,
        groups: &[(AppId, SloClass, f64)],
        poc_util: f64,
        pom_util: f64,
    ) -> (f64, f64, f64) {
        let mut ls_ri = 0.0;
        let mut be_ri = 0.0;
        let mut worst_ls: f64 = 0.0;
        for &(app, slo, count) in groups {
            if slo.is_latency_sensitive() {
                let ri = self.ri_of(app, true, poc_util, pom_util);
                ls_ri += count * ri;
                worst_ls = worst_ls.max(ri);
            } else if slo == SloClass::Be {
                be_ri += count * self.ri_of(app, false, poc_util, pom_util);
            }
        }
        (ls_ri, be_ri, worst_ls)
    }

    /// Scores placing `pod` on `node` without the memo: what `decide`
    /// runs for a miss, and what the debug check of every memo hit
    /// recomputes.
    fn score_candidate(
        &mut self,
        pod: &PodSpec,
        node: &NodeRuntime,
        view: &ClusterView<'_>,
        infos: &mut Vec<PodInfo>,
        groups: &mut AppGroups,
    ) -> ScoredCandidate {
        let eval = self.eval_candidate(pod, node, view, infos);
        self.score_eval(pod, node, &eval, groups)
    }

    /// The predictor half of scoring: the host-utilization prediction
    /// with the pod added (Eqs. 7–8) and the CPU/memory guards on it.
    fn eval_candidate(
        &self,
        pod: &PodSpec,
        node: &NodeRuntime,
        view: &ClusterView<'_>,
        buf: &mut Vec<PodInfo>,
    ) -> CandidateEval {
        let extra = PodInfo {
            app: pod.app,
            request: pod.request,
            limit: pod.limit,
        };
        let cap = node.spec.capacity;
        let obs = view.observation_plus(node, extra, buf);
        let pred: Resources = self.predictor.predict(&obs, self.usage_profiles.as_ref());
        let poc_util = pred.cpu / cap.cpu;
        let pom_util = pred.mem / cap.mem;
        CandidateEval {
            poc_util,
            pom_util,
            cpu_ok: poc_util <= self.config.cpu_guard,
            mem_ok: pom_util <= self.config.memory_guard,
        }
    }

    /// The scoring half: Eq. 11 of the host state after placement,
    /// from a candidate's utilization prediction. The score is −∞ when
    /// a guard rejects the candidate.
    fn score_eval(
        &mut self,
        pod: &PodSpec,
        node: &NodeRuntime,
        eval: &CandidateEval,
        groups: &mut AppGroups,
    ) -> ScoredCandidate {
        let (poc_util, pom_util) = (eval.poc_util, eval.pom_util);
        let (cpu_ok, mem_ok) = (eval.cpu_ok, eval.mem_ok);
        if !cpu_ok || !mem_ok {
            return ScoredCandidate {
                score: f64::NEG_INFINITY,
                cpu_ok,
                mem_ok,
                ls_ri: 0.0,
                be_ri: 0.0,
            };
        }
        // Utilization-only scoring (the Optum-util ablation, also the
        // breaker's fallback while the trained predictors are down):
        // keep the utilization product and the CPU/memory guards, drop
        // the interference terms and the PSI guard that depend on the
        // faulty models.
        if self.config.util_only || self.breaker != BreakerState::Closed {
            return ScoredCandidate {
                score: poc_util * pom_util,
                cpu_ok: true,
                mem_ok: true,
                ls_ri: 0.0,
                be_ri: 0.0,
            };
        }
        // Resident pods and the incoming one, grouped per app (small
        // vectors; avoid hashing).
        groups.clear();
        let residents = node.pods().iter().map(|rp| (rp.app, rp.slo));
        for (app, slo) in residents.chain([(pod.app, pod.slo)]) {
            match groups.iter_mut().find(|(a, s, _)| *a == app && *s == slo) {
                Some(g) => g.2 += 1.0,
                None => groups.push((app, slo, 1.0)),
            }
        }
        let (ls_ri, be_ri, worst_ls) = self.interference_sums(groups, poc_util, pom_util);
        // Hard PSI constraint: refuse to push any LS application past
        // the guard (reported as a CPU-pressure cause).
        if worst_ls > self.config.psi_guard {
            return ScoredCandidate {
                score: f64::NEG_INFINITY,
                cpu_ok: false,
                mem_ok: true,
                ls_ri,
                be_ri,
            };
        }
        ScoredCandidate {
            score: poc_util * pom_util - self.config.omega_o * ls_ri - self.config.omega_b * be_ri,
            cpu_ok: true,
            mem_ok: true,
            ls_ri,
            be_ri,
        }
    }
}

impl OptumScheduler {
    /// The PPO sample size for an `n`-host cluster.
    fn sample_size(&self, n: usize) -> usize {
        ((n as f64 * self.config.sample_rate).ceil() as usize)
            .max(self.config.min_candidates)
            .min(n)
    }

    /// Drops the whole memo when what it was filled under no longer
    /// holds: the breaker opened or closed (`score_eval` falls back to
    /// utilization-only scores while it is open) or another host count
    /// (another cluster behind the same indices).
    fn sync_memo(&mut self, hosts: usize) {
        let degraded = self.is_degraded();
        if self.memo.len() != hosts || self.memo_degraded != degraded {
            self.memo.clear();
            self.memo.resize_with(hosts, HostMemo::default);
            self.memo_degraded = degraded;
        }
    }

    /// Decision body. `want_cap` (set only on the budget-degraded
    /// path) truncates the PPO sample; `None` is the exact legacy
    /// scan, including its RNG consumption.
    fn decide(
        &mut self,
        pod: &PodSpec,
        view: &ClusterView<'_>,
        want_cap: Option<usize>,
    ) -> Decision {
        let mut s = std::mem::take(&mut self.scratch);
        let decision = self.decide_in(pod, view, want_cap, &mut s);
        self.scratch = s;
        decision
    }

    fn decide_in(
        &mut self,
        pod: &PodSpec,
        view: &ClusterView<'_>,
        want_cap: Option<usize>,
        s: &mut DecideScratch,
    ) -> Decision {
        let n = view.nodes.len();
        let want = {
            let want = self.sample_size(n);
            match want_cap {
                Some(cap) => want.min(cap.max(1)),
                None => want,
            }
        };
        // PPO sampling: a random host subset per request (§4.3.4).
        {
            let _filter = optum_obs::span!("optum.filter");
            s.sample.clear();
            s.sample.extend(0..n);
            let chosen = self.rng.partial_shuffle(&mut s.sample, want);
            // Affinity first (§2.1: candidates are the affinity-
            // satisfying nodes), then the PPO sample.
            s.candidates.clear();
            s.candidates.extend(chosen.iter().copied().filter(|&i| {
                view.nodes[i].is_schedulable() && view.allows(pod.app, view.nodes[i].spec.id)
            }));
        }
        if s.candidates.is_empty() {
            return Decision::Unplaceable(optum_types::DelayCause::Other);
        }

        let _score = optum_obs::span!("optum.score");
        // A candidate's score is a function of its pod list, the pod's
        // class, the static profiles and the breaker mode, so a host
        // whose list has not moved since it last scored this class is
        // not scored again.
        self.sync_memo(n);
        let class = PodClass::of(pod);
        s.scored.clear();
        let mut misses = 0;
        for &i in &s.candidates {
            let node = &view.nodes[i];
            let scored = match self.memo[i].lookup(node, &class) {
                // Every debug build — so every test — is the memo's
                // oracle: a hit must be the fresh score, bit for bit.
                Some(hit) => {
                    debug_assert!(
                        hit.bit_eq(&self.score_candidate(
                            pod,
                            node,
                            view,
                            &mut s.infos,
                            &mut s.groups
                        )),
                        "stale candidate memo: host {i}, pod-list version {}",
                        node.pods_version()
                    );
                    hit
                }
                None => {
                    let fresh = self.score_candidate(pod, node, view, &mut s.infos, &mut s.groups);
                    self.memo[i].entries.push((class, fresh));
                    misses += 1;
                    fresh
                }
            };
            s.scored.push((i, scored));
        }
        optum_obs::counter!("optum.memo.hit", (s.candidates.len() - misses) as u64);
        if misses > 0 {
            optum_obs::counter!("optum.memo.miss", misses as u64);
        }

        // Idle hosts are a last resort: waking one forfeits the
        // consolidation the objective is chasing, so an empty candidate
        // only wins when no occupied candidate is feasible. Among
        // occupied hosts, ties break toward the fuller one, then the
        // lower index — a deterministic fill order that packs instead
        // of smearing bursts across the cluster.
        let mut best: Option<(usize, f64, usize)> = None;
        let mut best_empty: Option<(usize, f64)> = None;
        let mut any_cpu_ok = false;
        let mut any_mem_ok = false;
        for &(i, sc) in &s.scored {
            let (score, cpu_ok, mem_ok) = (sc.score, sc.cpu_ok, sc.mem_ok);
            any_cpu_ok |= cpu_ok;
            any_mem_ok |= mem_ok;
            if score == f64::NEG_INFINITY {
                continue;
            }
            let count = view.nodes[i].pod_count();
            if count == 0 {
                if best_empty.is_none_or(|(bi, _)| i < bi) {
                    best_empty = Some((i, score));
                }
                continue;
            }
            let better = match best {
                None => true,
                Some((bi, bs, bc)) => {
                    score > bs + 1e-12
                        || ((score - bs).abs() <= 1e-12 && (count > bc || (count == bc && i < bi)))
                }
            };
            if better {
                best = Some((i, score, count));
            }
        }
        match best.map(|(i, _, _)| i).or(best_empty.map(|(i, _)| i)) {
            Some(i) => Decision::Place(optum_types::NodeId(i as u32)),
            None => {
                let cause = match (any_cpu_ok, any_mem_ok) {
                    (false, false) => optum_types::DelayCause::CpuAndMemory,
                    (false, true) => optum_types::DelayCause::Cpu,
                    (true, false) => optum_types::DelayCause::Memory,
                    // Sampling simply missed; affinity-like cause.
                    (true, true) => optum_types::DelayCause::Other,
                };
                Decision::Unplaceable(cause)
            }
        }
    }
}

impl Scheduler for OptumScheduler {
    fn name(&self) -> String {
        if self.config.util_only {
            "Optum-util".into()
        } else {
            "Optum".into()
        }
    }

    fn on_tick(&mut self, view: &ClusterView<'_>) {
        self.probe_predictor(view.tick);
    }

    fn select_node(&mut self, pod: &PodSpec, view: &ClusterView<'_>) -> Decision {
        self.decide(pod, view, None)
    }

    /// Under a decision deadline, the candidate filter truncates: the
    /// PPO sample shrinks to what the remaining budget affords (at
    /// least one host). When the budget covers the full sample the
    /// legacy path runs unchanged — including its RNG draws — so an
    /// unlimited budget is bit-identical to [`Self::select_node`].
    fn select_node_budgeted(
        &mut self,
        pod: &PodSpec,
        view: &ClusterView<'_>,
        budget: &mut optum_sim::DecisionBudget,
    ) -> Decision {
        let want = self.sample_size(view.nodes.len());
        if budget.remaining() >= want as u64 {
            budget.charge(want as u64);
            return self.decide(pod, view, None);
        }
        optum_obs::counter!("optum.candidates_truncated");
        let cap = budget.remaining().max(1) as usize;
        budget.charge(cap as u64);
        self.decide(pod, view, Some(cap))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiler::ProfilerConfig;
    use optum_sim::{AppStatsStore, AppUsageProfile, EroTable, ResidentPod};
    use optum_types::{ClusterConfig, NodeId, NodeSpec, PodId, Tick};

    /// Training data with a strong utilization→PSI signal for app 0
    /// and a completion-time signal for app 1. With five apps or more,
    /// apps 3 and 4 have both models — they run as LS and as BE — at
    /// other slopes, steeper the fuller the host's memory, so that
    /// every dimension of an `RiKey` moves their reading. App 2 is
    /// never modeled.
    fn training(n_apps: usize) -> TrainingData {
        use optum_sim::{CtSample, PsiSample};
        use optum_trace::hash_noise;
        let mut psi = Vec::new();
        let mut ct = Vec::new();
        let mut push = |ls_app, be_app, host, host_mem, psi_target: f64, ct_target: f64| {
            psi.push(PsiSample {
                app: AppId(ls_app),
                pod_cpu_util: 0.3,
                pod_mem_util: 0.5,
                host_cpu_util: host,
                host_mem_util: host_mem,
                qps_norm: 0.8,
                psi: psi_target.clamp(0.0, 1.0),
            });
            ct.push(CtSample {
                app: AppId(be_app),
                max_pod_cpu_util: 0.3,
                max_pod_mem_util: 0.9,
                max_host_cpu_util: host,
                max_host_mem_util: host_mem,
                ct_norm: ct_target.clamp(0.0, 1.0),
            });
        };
        for i in 0..600 {
            let host = hash_noise(5, 0, i);
            let knee = (host - 0.5).max(0.0);
            push(0, 1, host, 0.4, 0.9 * knee * 2.0, 0.6 * knee);
            if n_apps >= 5 {
                let mem = hash_noise(5, 1, i);
                for (app, slope) in [(3, 0.3), (4, 0.15)] {
                    let steep = slope * (0.5 + mem);
                    push(app, app, host, mem, steep * knee, 3.0 * steep * knee);
                }
            }
        }
        let mut profiles = vec![
            AppUsageProfile {
                seen: true,
                p99_usage: Resources::new(0.05, 0.02),
                max_cpu_util: 0.5,
                max_mem_util: 0.6,
                mem_cov: 0.005,
                max_qps_norm: 0.9,
            };
            n_apps
        ];
        profiles[1].mem_cov = 0.5;
        TrainingData {
            psi,
            ct,
            ero: EroTable::new(n_apps),
            triples: None,
            app_profiles: profiles,
        }
    }

    fn scheduler() -> OptumScheduler {
        scheduler_for(3, OptumConfig::default())
    }

    fn scheduler_for(n_apps: usize, config: OptumConfig) -> OptumScheduler {
        OptumScheduler::from_training(config, &training(n_apps), ProfilerConfig::default()).unwrap()
    }

    fn resident(id: u32, app: u32, slo: SloClass, cpu: f64, mem: f64) -> ResidentPod {
        ResidentPod {
            id: PodId(id),
            app: AppId(app),
            slo,
            request: Resources::new(cpu, mem),
            limit: Resources::new(cpu * 2.0, mem * 2.0),
            placed_at: Tick(0),
        }
    }

    fn pod(app: u32, slo: SloClass) -> PodSpec {
        PodSpec {
            id: PodId(99),
            app: AppId(app),
            slo,
            request: Resources::new(0.05, 0.02),
            limit: Resources::new(0.1, 0.04),
            arrival: Tick(0),
            nominal_duration: Some(20),
        }
    }

    #[test]
    fn budgeted_selection_matches_legacy_when_unpressured() {
        let mut legacy = scheduler();
        let mut budgeted = scheduler();
        let apps = AppStatsStore::new(3);
        let cluster = ClusterConfig::homogeneous(8);
        let mut nodes: Vec<NodeRuntime> = cluster.nodes().map(NodeRuntime::new).collect();
        for (i, node) in nodes.iter_mut().enumerate() {
            node.add_pod(resident(i as u32, 2, SloClass::Unknown, 0.1, 0.02));
        }
        let view = ClusterView {
            tick: Tick(0),
            nodes: &nodes,
            apps: &apps,
            cluster: &cluster,
            history_window: 10,
            affinity: &[],
        };
        // An unlimited budget must not perturb decisions or RNG state:
        // both schedulers stay in lockstep across repeated calls.
        for _ in 0..5 {
            let mut open = optum_sim::DecisionBudget::unlimited();
            let d_legacy = legacy.select_node(&pod(0, SloClass::Ls), &view);
            let d_budgeted = budgeted.select_node_budgeted(&pod(0, SloClass::Ls), &view, &mut open);
            assert_eq!(d_legacy, d_budgeted);
        }
        // A nearly spent budget truncates the sample but still decides.
        let mut tight = optum_sim::DecisionBudget::new(2);
        let d = budgeted.select_node_budgeted(&pod(0, SloClass::Be), &view, &mut tight);
        assert_eq!(tight.remaining(), 0);
        match d {
            Decision::Place(_) | Decision::Unplaceable(_) => {}
        }
    }

    #[test]
    fn memory_guard_excludes_hosts() {
        let mut sched = scheduler();
        let apps = AppStatsStore::new(3);
        let cluster = ClusterConfig::homogeneous(2);
        // Node 0's profiled memory (0.6 max utilization × 1.4
        // requested) lands past the 0.8 guard.
        let mut n0 = NodeRuntime::new(NodeSpec::standard(NodeId(0)));
        n0.add_pod(resident(1, 2, SloClass::Ls, 0.1, 1.4));
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
        let d = sched.select_node(&pod(0, SloClass::Ls), &view);
        assert_eq!(d, Decision::Place(NodeId(1)));
    }

    #[test]
    fn prefers_utilization_but_penalizes_interference() {
        let mut sched = scheduler();
        let apps = AppStatsStore::new(3);
        let cluster = ClusterConfig::homogeneous(2);
        // Node 0: busy enough that predicted utilization implies high
        // PSI for the LS app; node 1 moderately used (good packing,
        // low interference).
        let mut n0 = NodeRuntime::new(NodeSpec::standard(NodeId(0)));
        for i in 0..9 {
            n0.add_pod(resident(i, 2, SloClass::Unknown, 0.105, 0.02));
        }
        n0.add_pod(resident(20, 0, SloClass::Ls, 0.05, 0.02));
        let mut n1 = NodeRuntime::new(NodeSpec::standard(NodeId(1)));
        for i in 30..34 {
            n1.add_pod(resident(i, 2, SloClass::Unknown, 0.105, 0.02));
        }
        let nodes = vec![n0, n1];
        let view = ClusterView {
            tick: Tick(0),
            nodes: &nodes,
            apps: &apps,
            cluster: &cluster,
            history_window: 10,
            affinity: &[],
        };
        let d = sched.select_node(&pod(0, SloClass::Ls), &view);
        // Placing on node 0 would push predicted CPU utilization near 1
        // where app 0's PSI model reads high pressure; Optum chooses
        // node 1 despite its lower joint utilization.
        assert_eq!(d, Decision::Place(NodeId(1)));
    }

    #[test]
    fn reports_cause_when_everything_full() {
        let mut sched = scheduler();
        let apps = AppStatsStore::new(3);
        let cluster = ClusterConfig::homogeneous(1);
        let mut n0 = NodeRuntime::new(NodeSpec::standard(NodeId(0)));
        // Unknown memory profile: predictions use the full request.
        n0.add_pod(resident(1, 2, SloClass::Ls, 0.99, 0.85));
        let nodes = vec![n0];
        let view = ClusterView {
            tick: Tick(0),
            nodes: &nodes,
            apps: &apps,
            cluster: &cluster,
            history_window: 10,
            affinity: &[],
        };
        match sched.select_node(&pod(0, SloClass::Ls), &view) {
            Decision::Unplaceable(_) => {}
            d => panic!("expected unplaceable, got {d:?}"),
        }
    }

    #[test]
    fn breaker_trips_on_outage_and_recovers_after_cooldown() {
        let mut sched = scheduler();
        sched.set_outage_plan(vec![optum_chaos::OutageWindow {
            start: Tick(2),
            end: Tick(4),
        }]);
        let apps = AppStatsStore::new(3);
        let cluster = ClusterConfig::homogeneous(1);
        let nodes = vec![NodeRuntime::new(NodeSpec::standard(NodeId(0)))];
        let view_at = |t: u64| ClusterView {
            tick: Tick(t),
            nodes: &nodes,
            apps: &apps,
            cluster: &cluster,
            history_window: 10,
            affinity: &[],
        };
        sched.on_tick(&view_at(0));
        assert_eq!(sched.breaker_state(), BreakerState::Closed);
        assert!(!sched.is_degraded());
        // First failed probe trips the breaker (trip_after = 1).
        sched.on_tick(&view_at(2));
        assert_eq!(sched.breaker_state(), BreakerState::Open);
        assert!(sched.is_degraded());
        // The default cooldown (10 ticks) runs down while the outage
        // ends underneath; then one healthy probe closes the breaker.
        for t in 3..13 {
            sched.on_tick(&view_at(t));
        }
        assert_eq!(sched.breaker_state(), BreakerState::HalfOpen);
        sched.on_tick(&view_at(13));
        assert_eq!(sched.breaker_state(), BreakerState::Closed);
        assert!(!sched.is_degraded());
        assert_eq!(sched.fallback_ticks(), 11);
    }

    #[test]
    fn util_only_config_reports_the_ablation_name() {
        let data = training(3);
        let sched = OptumScheduler::from_training(
            OptumConfig {
                util_only: true,
                ..OptumConfig::default()
            },
            &data,
            ProfilerConfig::default(),
        )
        .unwrap();
        assert_eq!(sched.name(), "Optum-util");
        assert!(sched.is_degraded());
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let data = training(3);
        let mk = |seed| {
            OptumScheduler::from_training(
                OptumConfig {
                    seed,
                    sample_rate: 0.5,
                    min_candidates: 1,
                    ..OptumConfig::default()
                },
                &data,
                ProfilerConfig::default(),
            )
            .unwrap()
        };
        let mut a = mk(1);
        let mut b = mk(1);
        let apps = AppStatsStore::new(3);
        let cluster = ClusterConfig::homogeneous(20);
        let nodes: Vec<NodeRuntime> = cluster.nodes().map(NodeRuntime::new).collect();
        let view = ClusterView {
            tick: Tick(0),
            nodes: &nodes,
            apps: &apps,
            cluster: &cluster,
            history_window: 10,
            affinity: &[],
        };
        for _ in 0..5 {
            assert_eq!(
                a.select_node(&pod(0, SloClass::Ls), &view),
                b.select_node(&pod(0, SloClass::Ls), &view)
            );
        }
    }

    // ---- candidate memo -------------------------------------------------

    fn view_of<'a>(
        nodes: &'a [NodeRuntime],
        apps: &'a AppStatsStore,
        cluster: &'a ClusterConfig,
        tick: u64,
    ) -> ClusterView<'a> {
        ClusterView {
            tick: Tick(tick),
            nodes,
            apps,
            cluster,
            history_window: 10,
            affinity: &[],
        }
    }

    /// What `decide` must answer, worked out without the memo: its
    /// argmax and tie-break over the `explain` of every host. (`None`
    /// = unplaceable. With `min_candidates` ≥ hosts the PPO sample is
    /// the whole cluster, so "every host" is the candidate set.)
    fn memo_free_choice(
        sched: &mut OptumScheduler,
        pod: &PodSpec,
        view: &ClusterView<'_>,
    ) -> Option<NodeId> {
        let mut best: Option<(usize, f64, usize)> = None;
        let mut best_empty = None;
        for (i, node) in view.nodes.iter().enumerate() {
            let e = sched.explain(pod, node, view);
            if !e.feasible {
                continue;
            }
            let count = node.pod_count();
            if count == 0 {
                best_empty = best_empty.or(Some(i));
            } else if best.is_none_or(|(_, bs, bc)| {
                e.score > bs + 1e-12 || ((e.score - bs).abs() <= 1e-12 && count > bc)
            }) {
                best = Some((i, e.score, count));
            }
        }
        best.map(|(i, _, _)| i)
            .or(best_empty)
            .map(|i| NodeId(i as u32))
    }

    fn choice(decision: Decision) -> Option<NodeId> {
        match decision {
            Decision::Place(node) => Some(node),
            Decision::Unplaceable(_) => None,
        }
    }

    fn sized_pod(app: u32, slo: SloClass, cpu: f64) -> PodSpec {
        PodSpec {
            request: Resources::new(cpu, 0.02),
            limit: Resources::new(2.0 * cpu, 0.04),
            ..pod(app, slo)
        }
    }

    #[test]
    fn decisions_track_the_cluster_through_adds_and_removes() {
        enum Op {
            Add(usize, ResidentPod),
            Remove(usize, u32),
        }
        use Op::*;
        let filler = |id| resident(id, 2, SloClass::Unknown, 0.1, 0.1);
        let ops = vec![
            // Host 2 becomes the only occupied host, then host 3
            // overtakes it.
            Add(2, filler(1)),
            Add(2, filler(2)),
            Add(3, filler(3)),
            Add(3, filler(4)),
            Add(3, filler(5)),
            // An LS resident whose PSI model reads pressure.
            Add(3, resident(6, 0, SloClass::Ls, 0.05, 0.02)),
            // Host 3 shrinks back below host 2.
            Remove(3, 4),
            Remove(3, 5),
            Remove(3, 3),
            // Host 2 empties (idle hosts are a last resort) and takes
            // the very same pod back.
            Remove(2, 1),
            Remove(2, 2),
            Add(2, filler(2)),
            // Host 3 empties; host 1 fills past the CPU guard.
            Remove(3, 6),
            Add(1, resident(7, 2, SloClass::Unknown, 0.7, 0.1)),
            Add(1, resident(8, 1, SloClass::Be, 0.08, 0.1)),
            Remove(1, 7),
        ];
        let pods = [
            pod(0, SloClass::Ls),
            pod(1, SloClass::Be),
            // Same app and class as the first, another size: its own
            // pod class.
            sized_pod(0, SloClass::Ls, 0.12),
        ];
        let mut sched = scheduler();
        let apps = AppStatsStore::new(3);
        let cluster = ClusterConfig::homogeneous(5);
        let mut nodes: Vec<NodeRuntime> = cluster.nodes().map(NodeRuntime::new).collect();
        let mut answers = Vec::new();
        let mut check = |nodes: &[NodeRuntime], step: usize| {
            let view = view_of(nodes, &apps, &cluster, step as u64);
            for p in &pods {
                let expect = memo_free_choice(&mut sched, p, &view);
                // Twice: the second decision is served from the memo.
                for round in 0..2 {
                    let got = choice(sched.select_node(p, &view));
                    assert_eq!(got, expect, "step {step}, app {}, round {round}", p.app.0);
                }
                answers.push(expect);
            }
        };
        check(&nodes, 0);
        for (step, op) in ops.into_iter().enumerate() {
            match op {
                Add(host, rp) => nodes[host].add_pod(rp),
                Remove(host, id) => {
                    nodes[host].remove_pod(PodId(id)).expect("resident");
                }
            }
            check(&nodes, step + 1);
        }
        // The script is worth nothing if the answer never moves.
        answers.sort();
        answers.dedup();
        assert!(answers.len() >= 4, "only {answers:?} ever chosen");
    }

    #[test]
    fn scores_follow_the_breaker_on_an_unchanged_cluster() {
        let mut sched = scheduler();
        sched.set_outage_plan(vec![optum_chaos::OutageWindow {
            start: Tick(2),
            end: Tick(4),
        }]);
        let apps = AppStatsStore::new(3);
        let cluster = ClusterConfig::homogeneous(2);
        // Host 0: fuller, and under PSI pressure for app 0. Host 1:
        // lighter, no pressure. Full scoring avoids host 0; the
        // utilization-only fallback packs onto it.
        let mut n0 = NodeRuntime::new(NodeSpec::standard(NodeId(0)));
        for i in 0..6 {
            n0.add_pod(resident(i, 2, SloClass::Unknown, 0.105, 0.02));
        }
        n0.add_pod(resident(20, 0, SloClass::Ls, 0.05, 0.02));
        let mut n1 = NodeRuntime::new(NodeSpec::standard(NodeId(1)));
        for i in 30..34 {
            n1.add_pod(resident(i, 2, SloClass::Unknown, 0.105, 0.02));
        }
        let nodes = vec![n0, n1];
        let p = pod(0, SloClass::Ls);
        let decide_at = |sched: &mut OptumScheduler, tick: u64| {
            let view = view_of(&nodes, &apps, &cluster, tick);
            sched.on_tick(&view);
            let expect = memo_free_choice(sched, &p, &view);
            for _ in 0..2 {
                assert_eq!(choice(sched.select_node(&p, &view)), expect, "tick {tick}");
            }
            expect
        };
        let closed = decide_at(&mut sched, 0);
        assert_eq!(sched.breaker_state(), BreakerState::Closed);
        let open = decide_at(&mut sched, 2);
        assert_eq!(sched.breaker_state(), BreakerState::Open);
        assert_ne!(closed, open, "the two modes must disagree on this cluster");
        for t in 3..13 {
            assert_eq!(decide_at(&mut sched, t), open, "still in fallback at {t}");
        }
        assert_eq!(decide_at(&mut sched, 13), closed);
        assert_eq!(sched.breaker_state(), BreakerState::Closed);
    }

    #[test]
    fn one_scheduler_two_clusters_share_nothing_but_clones() {
        // Two clusters built apart: the same pod count on every host,
        // other pods. A memo keyed on anything coarser than the list
        // itself (its length, say) would serve A's scores for B.
        let build = |app: u32, cpu: f64| -> Vec<NodeRuntime> {
            ClusterConfig::homogeneous(4)
                .nodes()
                .enumerate()
                .map(|(i, spec)| {
                    let mut node = NodeRuntime::new(spec);
                    for k in 0..=i {
                        node.add_pod(resident(
                            (8 * i + k) as u32,
                            app,
                            SloClass::Unknown,
                            cpu,
                            0.05,
                        ));
                    }
                    node
                })
                .collect()
        };
        let a = build(2, 0.05);
        let b = build(1, 0.25);
        let a_clone = a.clone();
        let apps = AppStatsStore::new(3);
        let cluster = ClusterConfig::homogeneous(4);
        let mut sched = scheduler();
        let (ls, be) = (pod(0, SloClass::Ls), pod(1, SloClass::Be));
        let entries = |sched: &OptumScheduler| {
            sched
                .memo
                .iter()
                .map(|h| h.entries.len())
                .collect::<Vec<_>>()
        };

        let view_a = view_of(&a, &apps, &cluster, 0);
        let on_a = memo_free_choice(&mut sched, &ls, &view_a);
        assert_eq!(choice(sched.select_node(&ls, &view_a)), on_a);
        assert_eq!(entries(&sched), [1; 4]);

        // A clone is the same lists under the same versions: the
        // second class joins the first in every slot.
        let view_clone = view_of(&a_clone, &apps, &cluster, 0);
        sched.select_node(&be, &view_clone);
        assert_eq!(entries(&sched), [2; 4]);

        // B's lists are others: every slot starts over.
        let view_b = view_of(&b, &apps, &cluster, 0);
        let on_b = memo_free_choice(&mut sched, &ls, &view_b);
        assert_eq!(choice(sched.select_node(&ls, &view_b)), on_b);
        assert_eq!(entries(&sched), [1; 4]);
        assert_ne!(on_a, on_b, "the clusters must differ in their answer");
        // And back again.
        assert_eq!(choice(sched.select_node(&ls, &view_a)), on_a);

        // Another host count drops the memo whole.
        let view_short = view_of(&a[..3], &apps, &cluster, 0);
        sched.select_node(&ls, &view_short);
        assert_eq!(entries(&sched), [1; 3]);
    }

    // ---- Eq. 11 and the RI cache, from the outside ----------------------

    /// The applications of `training(5)` with the classes they run as.
    const KINDS: [(u32, SloClass); 7] = [
        (0, SloClass::Ls),
        (1, SloClass::Be),
        (2, SloClass::Unknown),
        (3, SloClass::Ls),
        (3, SloClass::Be),
        (4, SloClass::Ls),
        (4, SloClass::Be),
    ];

    /// `n` seeded hosts of 0–12 residents of mixed kinds; seven hosts
    /// in eight lack one kind, so the LS and the BE term also show up
    /// alone.
    fn random_hosts(seed: u64, n: usize) -> Vec<NodeRuntime> {
        use optum_trace::hash_noise;
        ClusterConfig::homogeneous(n)
            .nodes()
            .enumerate()
            .map(|(h, spec)| {
                let mut node = NodeRuntime::new(spec);
                let draw = |k: u64| hash_noise(seed, h as u64, k);
                for k in 0..(draw(0) * 13.0) as u64 {
                    let kind = (draw(3 * k + 1) * 7.0) as usize;
                    let (app, slo) = KINDS[if kind == h % 8 { (kind + 1) % 7 } else { kind }];
                    let (cpu, mem) = (0.03 + 0.09 * draw(3 * k + 2), 0.02 + 0.2 * draw(3 * k + 3));
                    node.add_pod(resident((16 * h as u64 + k) as u32, app, slo, cpu, mem));
                }
                node
            })
            .collect()
    }

    fn random_pod(seed: u64, k: u64) -> PodSpec {
        use optum_trace::hash_noise;
        let (app, slo) = KINDS[(hash_noise(seed, k, 0) * 7.0) as usize];
        PodSpec {
            request: Resources::new(
                0.02 + 0.1 * hash_noise(seed, k, 1),
                0.02 + 0.1 * hash_noise(seed, k, 2),
            ),
            ..pod(app, slo)
        }
    }

    fn bits(e: &CandidateExplanation) -> ([u64; 5], [bool; 3]) {
        (
            [e.poc_util, e.pom_util, e.score, e.ls_ri, e.be_ri].map(f64::to_bits),
            [e.feasible, e.cpu_ok, e.mem_ok],
        )
    }

    #[test]
    fn explain_is_equation_11_or_names_the_guard() {
        let cfg = OptumConfig::default();
        let mut full = scheduler_for(5, cfg);
        let util_cfg = OptumConfig {
            util_only: true,
            ..cfg
        };
        let mut util_only = scheduler_for(5, util_cfg);
        let mut tripped = scheduler_for(5, cfg);
        tripped.set_outage_plan(vec![optum_chaos::OutageWindow {
            start: Tick(0),
            end: Tick(1),
        }]);
        let apps = AppStatsStore::new(5);
        let cluster = ClusterConfig::homogeneous(48);
        let nodes = random_hosts(11, 48);
        let view = view_of(&nodes, &apps, &cluster, 0);
        tripped.on_tick(&view);
        assert_eq!(tripped.breaker_state(), BreakerState::Open);

        // Feasible explanations seen with a positive LS and BE term,
        // and rejections seen by the CPU, memory and PSI guard.
        let (mut with_ls, mut with_be, mut by_cpu, mut by_mem, mut by_psi) = (0, 0, 0, 0, 0);
        for k in 0..40 {
            let p = random_pod(12, k);
            for node in &nodes {
                let e = full.explain(&p, node, &view);
                let cpu_fits = e.poc_util <= cfg.cpu_guard;
                let mem_fits = e.pom_util <= cfg.memory_guard;
                assert_eq!(e.feasible, e.cpu_ok && e.mem_ok);
                assert_eq!(e.mem_ok, mem_fits);
                if e.feasible {
                    let eq11 =
                        e.poc_util * e.pom_util - cfg.omega_o * e.ls_ri - cfg.omega_b * e.be_ri;
                    assert_eq!(e.score.to_bits(), eq11.to_bits());
                    with_ls += usize::from(e.ls_ri > 0.0);
                    with_be += usize::from(e.be_ri > 0.0);
                } else {
                    assert_eq!(e.score, f64::NEG_INFINITY);
                    if cpu_fits && mem_fits {
                        // Only the PSI guard is left, and it reports
                        // as CPU pressure.
                        assert!(!e.cpu_ok && e.ls_ri > cfg.psi_guard);
                        by_psi += 1;
                    } else {
                        assert_eq!(e.cpu_ok, cpu_fits);
                        assert_eq!((e.ls_ri, e.be_ri), (0.0, 0.0));
                        by_cpu += usize::from(!cpu_fits);
                        by_mem += usize::from(!mem_fits);
                    }
                }
                for degraded in [&mut util_only, &mut tripped] {
                    let d = degraded.explain(&p, node, &view);
                    let score = if cpu_fits && mem_fits {
                        e.poc_util * e.pom_util
                    } else {
                        f64::NEG_INFINITY
                    };
                    let expect = CandidateExplanation {
                        score,
                        feasible: cpu_fits && mem_fits,
                        cpu_ok: cpu_fits,
                        mem_ok: mem_fits,
                        ls_ri: 0.0,
                        be_ri: 0.0,
                        ..e
                    };
                    assert_eq!(bits(&d), bits(&expect));
                }
            }
        }
        let seen = [with_ls, with_be, by_cpu, by_mem, by_psi];
        assert!(seen.iter().all(|&n| n >= 10), "cases not covered: {seen:?}");
    }

    #[test]
    fn a_warm_ri_cache_answers_as_a_cold_one() {
        let apps = AppStatsStore::new(5);
        let cluster = ClusterConfig::homogeneous(40);
        let mut warm = scheduler_for(5, OptumConfig::default());
        let busy = random_hosts(21, 40);
        let view = view_of(&busy, &apps, &cluster, 0);
        for k in 0..300 {
            warm.select_node(&random_pod(22, k), &view);
        }
        let warmed = warm.ri_cache.len();
        assert!(warmed >= 50, "only {warmed} RI keys after 300 decisions");

        // Hosts and pods neither scheduler has seen: the warm one
        // answers from its cache wherever a key matches.
        let mut cold = scheduler_for(5, OptumConfig::default());
        let unseen = random_hosts(23, 40);
        let view = view_of(&unseen, &apps, &cluster, 0);
        for k in 0..40 {
            let p = random_pod(24, k);
            for node in &unseen {
                let (w, c) = (warm.explain(&p, node, &view), cold.explain(&p, node, &view));
                assert_eq!(bits(&w), bits(&c), "pod {k}, host {:?}", node.spec.id);
            }
        }
        assert!(
            warm.ri_cache.len() < warmed + cold.ri_cache.len(),
            "no key of the unseen hosts was already cached"
        );
    }
}
