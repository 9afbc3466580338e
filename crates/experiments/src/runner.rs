//! Shared experiment context: workload, reference run, profiling data.
//!
//! Expensive artifacts are computed once and reused across figures:
//! the synthetic workload, the reference (AlibabaLike) simulation of
//! the full window, the offline-profiling dataset and the profilers
//! Optum trains on it.

use std::sync::Arc;

use optum_core::{
    InterferenceProfiler, OptumConfig, OptumScheduler, ProfilerConfig, ResourceUsageProfiler,
};
use optum_sched::{AlibabaLike, BorgLike, Medea, NSigmaSched, RcLike};
use optum_sim::{run, Scheduler, SimConfig, SimResult, TrainingData};
use optum_trace::{generate, Workload, WorkloadConfig};
use optum_types::{Result, SloClass};

/// Experiment scale configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ExpConfig {
    /// Hosts in the simulated cluster.
    pub hosts: usize,
    /// Trace window length in days.
    pub days: u64,
    /// Master seed.
    pub seed: u64,
    /// Shard count override (`None` = single shard). Legacy figures
    /// record the layout in their checkpoints (v3 headers); the
    /// `scale` experiment narrows its shard grid to this value.
    pub shards: Option<usize>,
}

impl ExpConfig {
    /// The standard reproduction scale: 200 hosts over 8 days (a
    /// 1:30 scale model of the paper's 6,000-host testbed; densities
    /// are per-host so statistics match).
    pub fn standard() -> ExpConfig {
        ExpConfig {
            hosts: 200,
            days: 8,
            seed: 42,
            shards: None,
        }
    }

    /// A fast scale for smoke runs: 60 hosts over 2 days.
    pub fn fast() -> ExpConfig {
        ExpConfig {
            hosts: 60,
            days: 2,
            seed: 42,
            shards: None,
        }
    }

    /// The workload configuration at this scale.
    pub fn workload_config(&self) -> WorkloadConfig {
        WorkloadConfig::sized(self.hosts, self.days, self.seed)
    }
}

/// Caching context shared by the figure runners.
pub struct Runner {
    /// Scale configuration.
    pub config: ExpConfig,
    /// The generated workload.
    pub workload: Workload,
    reference: Option<SimResult>,
    profilers: Option<Profilers>,
    /// Cached contender results (Figs. 19–20 share the same roster).
    pub roster_cache: Vec<SimResult>,
    /// Worker threads for [`Runner::run_evals`]: `0` (the default)
    /// resolves via `OPTUM_THREADS` / available parallelism, `1` is
    /// serial, anything else is literal.
    threads: usize,
    /// Checkpoint the reference run every N ticks into this file.
    checkpoint: Option<(u64, std::path::PathBuf)>,
    /// Resume the reference run from this snapshot instead of
    /// replaying it from tick zero.
    resume_from: Option<std::path::PathBuf>,
}

impl Runner {
    /// Generates the workload for a configuration.
    pub fn new(config: ExpConfig) -> Result<Runner> {
        let _gen = optum_obs::span!("exp.workload_gen");
        let workload = generate(&config.workload_config())?;
        Ok(Runner {
            config,
            workload,
            reference: None,
            profilers: None,
            roster_cache: Vec::new(),
            threads: 0,
            checkpoint: None,
            resume_from: None,
        })
    }

    /// Checkpoints the reference run every `every` ticks into `path`
    /// (atomically replaced each time). Only the reference run is
    /// checkpointed: it dominates wall time, and its AlibabaLike
    /// scheduler carries serializable state, while the Optum
    /// evaluation arms hold live model RNGs and decline snapshots.
    pub fn set_checkpointing(&mut self, every: u64, path: std::path::PathBuf) {
        self.checkpoint = Some((every, path));
    }

    /// Resumes the reference run from a snapshot written by a
    /// checkpointed run over the same configuration and workload
    /// (fingerprint-checked); the completed run is byte-identical to
    /// an uninterrupted one.
    pub fn set_resume(&mut self, path: std::path::PathBuf) {
        self.resume_from = Some(path);
    }

    /// Sets the fan-out worker count (`0` = auto; see
    /// [`optum_parallel::resolve_threads`]). Results are bit-identical
    /// for every thread count.
    pub fn set_threads(&mut self, threads: usize) {
        self.threads = threads;
    }

    /// Configured fan-out worker count (`0` = auto).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Base simulation configuration at this scale. Records the shard
    /// layout when `--shards` was given, so checkpoints carry it and a
    /// resume under a different layout is rejected.
    pub fn sim_config(&self) -> SimConfig {
        let mut cfg = SimConfig::new(self.config.hosts);
        if let Some(shards) = self.config.shards {
            cfg.shard_layout = Some(optum_types::ShardLayout::contiguous(
                self.config.hosts,
                shards,
            ));
        }
        cfg
    }

    /// The reference run: AlibabaLike over the full window with rank
    /// recording, a mid-window commitment snapshot, per-pod series
    /// sampling and training collection. Computed once.
    pub fn reference(&mut self) -> Result<&SimResult> {
        if self.reference.is_none() {
            let _ref_span = optum_obs::span!("exp.reference");
            let mut cfg = self.sim_config();
            cfg.record_ranks = true;
            cfg.collect_training = true;
            cfg.training_stride = 40;
            cfg.pods_per_app_sampled = 4;
            cfg.series_stride = 10;
            // Snapshot mid-window at the diurnal LS peak (~15:00).
            let mid_day = self.config.days / 2;
            cfg.snapshot_tick = Some(optum_types::Tick(
                mid_day * optum_types::TICKS_PER_DAY + 15 * optum_types::TICKS_PER_HOUR,
            ));
            if let Some((every, path)) = &self.checkpoint {
                cfg.checkpoint_every = Some(*every);
                cfg.checkpoint_path = Some(path.clone());
            }
            let result = if let Some(snap) = &self.resume_from {
                let bytes = optum_sim::read_snapshot_file(snap)?;
                optum_sim::Simulator::resume(&self.workload, AlibabaLike::default(), cfg, &bytes)?
                    .run()?
            } else {
                run(&self.workload, AlibabaLike::default(), cfg)?
            };
            self.reference = Some(result);
        }
        Ok(self.reference.as_ref().expect("just computed"))
    }

    /// The cached reference run; call [`Runner::reference`] first.
    ///
    /// # Panics
    ///
    /// Panics when the reference run has not been computed yet.
    pub fn reference_cached(&self) -> &SimResult {
        self.reference
            .as_ref()
            .expect("call reference() before reference_cached()")
    }

    /// The offline-profiling dataset (from the reference run).
    pub fn training(&mut self) -> Result<&TrainingData> {
        self.reference()?;
        self.reference
            .as_ref()
            .and_then(|r| r.training.as_ref())
            .ok_or_else(|| {
                optum_types::Error::InvalidData("reference run collected no training".into())
            })
    }

    /// Optum's offline profilers, trained once on the reference run's
    /// dataset and shared by every arm of every experiment (training
    /// is seeded, so the cached pair is the pair any arm would train).
    pub fn profilers(&mut self) -> Result<Profilers> {
        if self.profilers.is_none() {
            let training = self.training()?;
            self.profilers = Some((
                Arc::new(ResourceUsageProfiler::from_training(training)),
                Arc::new(InterferenceProfiler::train(
                    training,
                    ProfilerConfig::default(),
                )?),
            ));
        }
        Ok(self.profilers.clone().expect("just trained"))
    }

    /// Runs an evaluation simulation (lean recording) of `workload`
    /// under a scheduler. `configure` adjusts the engine configuration
    /// of the arm — a fault plan, overload protection; with the
    /// runner's own workload and nothing adjusted this is the
    /// fig19/fig20 evaluation arm, which the anchor arms of the churn,
    /// degrade and overload experiments must stay byte-identical to.
    pub fn run_eval<S: Scheduler>(
        &self,
        workload: &Workload,
        scheduler: S,
        configure: impl FnOnce(&mut SimConfig),
    ) -> Result<SimResult> {
        let _eval = optum_obs::span!("exp.eval");
        let mut cfg = self.sim_config();
        cfg.pods_per_app_sampled = 0;
        cfg.series_stride = 10;
        configure(&mut cfg);
        run(workload, scheduler, cfg)
    }

    /// Runs one evaluation simulation per scheduler, fanned out across
    /// the configured worker threads over the shared immutable
    /// workload. Results come back in scheduler order and are
    /// bit-identical to running [`Runner::run_eval`] serially: each
    /// simulation is fully self-contained (own `SimConfig`, own
    /// scheduler state), so the pool only changes *where* it runs.
    pub fn run_evals<S>(&self, schedulers: Vec<S>) -> Result<Vec<SimResult>>
    where
        S: Scheduler + Send,
    {
        let _fanout = optum_obs::span!("exp.fanout");
        optum_parallel::parallel_map_owned_threads(self.threads, schedulers, |_, scheduler| {
            self.run_eval(&self.workload, scheduler, |_| {})
        })
        .into_iter()
        .collect()
    }
}

/// Optum's trained offline profilers (see [`Runner::profilers`]).
pub type Profilers = (Arc<ResourceUsageProfiler>, Arc<InterferenceProfiler>);

/// The full scheduler roster of the churn and overload experiments:
/// the production reference first, the paper's baselines, then a
/// default-configured Optum over the shared profilers. Panels name
/// each arm by its [`Scheduler::name`].
pub fn full_roster(
    usage: &Arc<ResourceUsageProfiler>,
    interference: &Arc<InterferenceProfiler>,
) -> Vec<Box<dyn Scheduler + Send>> {
    vec![
        Box::new(AlibabaLike::default()),
        Box::new(RcLike::default()),
        Box::new(NSigmaSched::default()),
        Box::new(BorgLike::default()),
        Box::new(Medea::default()),
        Box::new(OptumScheduler::with_shared(
            OptumConfig::default(),
            usage.clone(),
            interference.clone(),
        )),
    ]
}

/// (Fraction of LS pods with degraded PSI, fraction of BE pods with a
/// longer completion) of a run against a baseline run of the same
/// workload — the reference scheduler's, or the same scheduler's
/// healthy arm.
pub fn slo_delta(new: &SimResult, base: &SimResult) -> (f64, f64) {
    let mut ls_total = 0usize;
    let mut ls_viol = 0usize;
    let mut be_total = 0usize;
    let mut be_viol = 0usize;
    for (n, b) in new.outcomes.iter().zip(&base.outcomes) {
        if n.slo.is_latency_sensitive() && n.scheduled() && b.scheduled() {
            ls_total += 1;
            if n.worst_psi > b.worst_psi + 0.01 {
                ls_viol += 1;
            }
        } else if n.slo == SloClass::Be {
            if let (Some(an), Some(ab)) = (n.actual_duration, b.actual_duration) {
                be_total += 1;
                if an > ab + 1 {
                    be_viol += 1;
                }
            }
        }
    }
    (
        ls_viol as f64 / ls_total.max(1) as f64,
        be_viol as f64 / be_total.max(1) as f64,
    )
}
