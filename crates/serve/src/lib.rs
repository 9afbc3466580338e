//! The scheduler as a long-lived service.
//!
//! Everything else in this workspace drives the simulation engine as
//! a batch job: build a workload, call [`optum_sim::run`], read the
//! result. This crate turns the same engine into a *service*:
//!
//! * [`server`] — `optumd`, a TCP front-end speaking a tiny
//!   length-prefixed wire protocol ([`proto`]), backed by the engine's
//!   incremental mode ([`optum_sim::Simulator::step`]), with the PR 5
//!   admission controller as protocol-level backpressure (`shed`
//!   replies) and PR 4 checkpoints as restart durability
//!   (`optumd --resume`);
//! * [`driver`] — `optumload`, an open-loop load driver replaying the
//!   generated trace at a configurable rate multiplier, reconnecting
//!   under capped backoff and resubmitting idempotently when the
//!   transport fails;
//! * [`netchaos`] — a seeded chaos proxy that mangles the
//!   client→server frame stream (drops, delays, reordering,
//!   truncation, abrupt disconnects) for fault-injection runs;
//! * [`summary`] — the deterministic end-of-session outcome panel.
//!
//! The contract pinned by this crate's test suite: a full
//! client/server session is **replay-deterministic** — same seed and
//! rate ⇒ byte-identical end-state digest and outcome panel,
//! regardless of socket interleaving, connection count, a kill -9 and
//! resume in the middle, or any recoverable wire fault between client
//! and server.

pub mod driver;
pub mod netchaos;
pub mod proto;
pub mod server;
pub mod summary;

pub use driver::{drive, DriverConfig, DriverReport, StatsView, WireCounts};
pub use netchaos::{ChaosProxy, NetChaosPlan, ProxyReport};
pub use proto::{
    read_frame, send_reply, send_request, tune, write_frame, ErrCode, FrameError, Reply, Request,
    SlotHealth, MAX_FRAME, PROTO_VERSION,
};
pub use server::{ServeConfig, ServeOutcome, Server};
pub use summary::{ClassSummary, SessionSummary};
