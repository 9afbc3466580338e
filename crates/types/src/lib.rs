//! Shared domain types for the Optum unified-scheduling reproduction.
//!
//! This crate defines the vocabulary every other crate speaks:
//! normalized [`Resources`] vectors, [`SloClass`] service classes, pod and
//! node descriptors, the 30-second [`Tick`] clock used throughout the
//! 8-day simulated window, and the runtime samples collected by the
//! tracing layer.
//!
//! All resource quantities are *normalized* to the capacity of a standard
//! host, exactly as in the published Alibaba traces: a node has CPU
//! capacity `1.0` and memory capacity `1.0`, and a pod requesting 3% of a
//! machine's cores has `request.cpu == 0.03`.

pub mod config;
pub mod error;
pub mod fault;
pub mod ids;
pub mod node;
pub mod pod;
pub mod resources;
pub mod rng;
pub mod samples;
pub mod shard;
pub mod slo;
pub mod time;

pub use config::ClusterConfig;
pub use error::{Error, Result};
pub use fault::{sort_fault_plan, FaultEvent, FaultKind, NodeLifecycle};
pub use ids::{AppId, NodeId, PodId};
pub use node::NodeSpec;
pub use pod::{DelayCause, Placement, PodPhase, PodSpec};
pub use resources::{ResourceKind, Resources};
pub use rng::{SplitMix64, StdRng};
pub use samples::{NodeSample, PodSample, PsiWindow};
pub use shard::{ShardLayout, SLAB_NODES};
pub use slo::SloClass;
pub use time::{Tick, TICKS_PER_DAY, TICKS_PER_HOUR, TICKS_PER_MINUTE, TICK_SECONDS};
