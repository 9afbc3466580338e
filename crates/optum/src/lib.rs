//! Optum: a profiling-driven unified data-center scheduler
//! (EuroSys '23).
//!
//! Optum balances the trade-off between overall resource utilization
//! and contention-induced performance degradation (Eq. 6). Its
//! architecture (Fig. 17 of the paper) maps to this crate as follows:
//!
//! | Paper component | Module |
//! |---|---|
//! | ❶ Tracing Coordinator | [`tracing`] |
//! | ❷ Interference Profiler | [`profiler::InterferenceProfiler`] |
//! | ❸ Resource Usage Profiler | [`profiler::ResourceUsageProfiler`] |
//! | ❹ Interference Predictor | [`scheduler`] (per-candidate RI terms, Eqs. 9–10) |
//! | ❺ Resource Usage Predictor | [`optum_predictors::OptumPredictor`] (Eqs. 7–8) |
//! | ❻ Node Selector | [`scheduler::OptumScheduler`] (score Eq. 11) |
//! | ❼ Deployment Module | [`deployment::DeploymentModule`] |
//!
//! The Offline Profiler trains on data collected by a profiling run
//! (the paper uses the first seven days of the trace); the Online
//! Scheduler then scores a PPO-sampled subset of hosts per request and
//! picks the best.

pub mod deployment;
pub mod distributed;
pub mod profiler;
pub mod scheduler;
pub mod tracing;

pub use deployment::{Delivery, DeploymentModule};
pub use distributed::{DistStats, DistributedOptum};
pub use profiler::{
    InterferenceProfiler, ModelKind, PredictorHealth, ProfilerConfig, ResourceUsageProfiler,
};
pub use scheduler::{BreakerState, CandidateExplanation, OptumConfig, OptumScheduler};
pub use tracing::TracingCoordinator;
