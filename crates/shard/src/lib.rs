//! Sharded cluster engine: the warehouse-scale execution layer.
//!
//! The legacy single-engine simulator (`optum-sim`) models every host
//! in one flat state vector and scans it every tick — faithful for the
//! paper's figures at thousands of hosts, but O(hosts) per tick makes
//! 100k+ hosts unreachable. This crate partitions the cluster into
//! **shards**: each shard owns a contiguous slab-aligned host range
//! (see [`optum_types::ShardLayout`]), a struct-of-arrays node table
//! ([`soa::NodeTable`]), its own completion event queue and its slice
//! of the fault plan. Shards execute in parallel on the
//! `optum-parallel` pool and meet at tick boundaries in a
//! deterministic **cross-shard exchange** ([`exchange`]): placement
//! proposals, eviction requeues, completion notices and global-stat
//! digests, delivered in an order that is a pure function of
//! `(seed, shard, tick)`.
//!
//! ## Determinism
//!
//! Results are bit-identical across shard counts *and* thread counts,
//! by construction rather than by tolerance:
//!
//! 1. **Slab-aligned reductions.** Every floating-point cluster
//!    aggregate is accumulated per [`optum_types::SLAB_NODES`]-host
//!    slab and folded in global slab order. A slab is owned by exactly
//!    one shard, so the summation tree never depends on the layout.
//! 2. **Canonical merges.** Exchange reductions are commutative
//!    (per-pod completion marks) or canonically ordered (min-score
//!    proposal with node-id tie-break, pending-queue reinsertion under
//!    the global `(priority, arrival, id)` key) — the seeded delivery
//!    order exercises the machinery without being load-bearing.
//! 3. **Partition-invariant scheduling.** Candidate hosts are drawn by
//!    a power-of-k-choices sample from `(seed, pod, tick)` over the
//!    *global* node-id space, and each draw is routed once to the shard
//!    that owns it (a slab-owner table: layouts are slab-aligned, so
//!    the lookup is exact). Each shard scores only its routed
//!    candidates and proposes only for requests it can place; the
//!    exchange folds the proposals to the global argmin with the
//!    canonical (score, node) order — exactly the result a single
//!    shard computes over the same candidates.
//!
//! ## Event-driven ticks
//!
//! The engine only executes ticks on which something can change: a pod
//! arrival, a completion, a fault, or a pending queue that made
//! progress last round. All other ticks are skipped in O(1), which is
//! what makes the 100k-host arm of `repro scale` tractable.

pub mod engine;
pub mod exchange;
pub mod sched;
pub mod soa;

pub use engine::{
    tick_stage_table, ScaleEngine, ScaleOutcome, ScaleResult, ScaleSample, ScaleSimConfig,
};
pub use exchange::{delivery_order, Proposal};
pub use sched::{score_candidate, ScoreParams};
pub use soa::NodeTable;
