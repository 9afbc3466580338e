//! Synthetic Alibaba-like unified-scheduling workload generator.
//!
//! The paper characterizes eight days of production traces from ~6,000
//! hosts: >1 M pods from 10,000+ applications across six SLO classes.
//! Those traces are not publicly reproducible at full fidelity, so this
//! crate generates a *statistically matched* synthetic workload:
//!
//! * the SLO-class population mix of Fig. 2(b);
//! * constant LS submission rates and bursty, heavy-tailed BE arrivals
//!   anti-phase to the LS diurnal (Figs. 3, 7);
//! * log-normal resource requests with the request≫usage gaps of
//!   Fig. 6 (LS CPU ~5× over-requested, BE memory nearly fully used);
//! * consistent within-application behavior with the CoV structure of
//!   Fig. 12 (high BE CPU CoV from input-size spread, high LS RT CoV
//!   from call-chain amplification);
//! * **ground-truth performance physics** — PSI as a nonlinear function
//!   of pod utilization, host utilization and QPS, and completion-time
//!   inflation as a function of host contention — reproducing the
//!   correlation structure of Figs. 13–16 and giving the profilers of
//!   Optum something real to learn (Fig. 18).
//!
//! Physics noise is *hash-based and deterministic*: the workload a pod
//! experiences depends only on (seed, app, pod, tick, host state), never
//! on RNG consumption order, so different schedulers face identical
//! conditions and their outcomes are directly comparable.

pub mod arrivals;
pub mod config;
pub mod physics;
pub mod population;
pub mod scale;
pub mod storm;
pub mod workload;

pub use arrivals::{arrival_schedule, rescale_arrivals};
pub use config::WorkloadConfig;
pub use physics::{affinity_allows, hash_noise, keyed_noise, mix, noise_key};
pub use population::{AppKind, AppProfile, BeParams, LsParams, PsiShape, TickTerms};
pub use scale::{generate_scale, ScalePod, ScaleWorkloadConfig, SCALE_CHANNEL};
pub use storm::{apply_storm, ClassMix, StormConfig, StormWindow, STORM_CHANNEL};
pub use workload::{generate, GeneratedPod, Workload};
