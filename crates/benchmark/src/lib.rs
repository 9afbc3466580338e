//! The repository's one benchmark (see `README.md` beside this crate).
//!
//! Four workloads, each stressing a different layer of the stack; six
//! end-to-end metrics with regression bounds, measured with tracing
//! off; and a separate traced pass whose per-layer metrics are timed
//! from this crate, around the calls into each layer's public
//! functions. The program under test only ever receives generated
//! inputs: the seed is an argument of the benchmark.
//!
//! # Seed policy
//!
//! Reseeding the whole trace changes *which tenants exist*, and with a
//! few dozen heavy-tailed applications per cluster that moves the cost
//! of one replay by 18 % (200 hosts) to 110 % (storm, 60 hosts) from
//! seed to seed; reseeding only the storm's extra pods still moves it
//! by a factor of two, because saturation is a threshold — more than
//! any bound could hold. So the traces of the three simulator
//! workloads are fixed by [`TRACE_SEED`], and `--seed` seeds what acts
//! on them: the candidate sampling of the Optum scheduler under test
//! (`calm-optum`, `storm-optum`) and the send jitter of the paced
//! client (`serve-replay`, whose server hard-wires a deterministic
//! scheduler). The shard workload's 400 k-pod population is large
//! enough to reseed whole, trace and engine both.

pub mod batch;
pub mod compare;
pub mod measure;
pub mod metrics;
pub mod serve;
pub mod shard;
pub mod timed;

use optum_types::Result;

pub use metrics::{RunResult, END_TO_END, PER_LAYER};

/// The workloads, in the order `all` runs them, each with the reason
/// it exists.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "calm-optum",
        "fig19 Optum arm at the paper's host count (200 hosts x 2 days): sim physics does most of the work, scheduling little",
    ),
    (
        "storm-optum",
        "same layers under a 3x arrival storm on a bounded queue (60 hosts): retry floods make scheduler decisions most of the wall",
    ),
    (
        "serve-replay",
        "optumd over loopback, blast then paced open loop: the only path through proto, server and driver",
    ),
    (
        "shard-100k",
        "100k-host sharded engine: the only user of shard and parallel, and the no-change control for the rest",
    ),
];

/// Seed of the tenant population of the simulator workloads (see the
/// seed policy above).
pub const TRACE_SEED: u64 = 42;

/// How large the workloads are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the committed numbers were measured at.
    Full,
    /// Tiny sizes for the smoke test under `cargo test`.
    Smoke,
}

/// Arguments of one run of one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct RunArgs {
    /// Workload name (one of [`WORKLOADS`]).
    pub workload: String,
    /// Seed every input is generated from.
    pub seed: u64,
    /// How long the measured phase is sized to take, in seconds (see
    /// `RunArgs::reps`).
    pub seconds: f64,
    /// Traced (per-layer) pass instead of the untraced (end-to-end) one.
    pub traced: bool,
    /// Workload sizes.
    pub scale: Scale,
}

/// Runs one workload and returns its result. `Err` means the program
/// under test failed outright; a failed output check is reported in
/// the result instead.
pub fn run(args: &RunArgs) -> Result<RunResult> {
    let smoke = args.scale == Scale::Smoke;
    match args.workload.as_str() {
        "calm-optum" => batch::run(
            "calm-optum",
            &batch::BatchScale {
                hosts: if smoke { 16 } else { 200 },
                days: if smoke { 1 } else { 2 },
                storm: None,
                setups: if smoke { 1 } else { 2 },
                pass_s: 3.4,
            },
            args,
        ),
        "storm-optum" => batch::run(
            "storm-optum",
            &batch::BatchScale {
                hosts: if smoke { 16 } else { 60 },
                days: if smoke { 1 } else { 2 },
                storm: Some((3.0, if smoke { 128 } else { 512 })),
                setups: if smoke { 1 } else { 3 },
                pass_s: 3.3,
            },
            args,
        ),
        "serve-replay" => serve::run(
            &serve::ServeScale {
                hosts: if smoke { 16 } else { 60 },
                days: if smoke { 1 } else { 2 },
                pace: if smoke { 4000.0 } else { 1000.0 },
                diagnostic_pace: if smoke { 8000.0 } else { 3000.0 },
                blast_s: 0.8,
            },
            args,
        ),
        "shard-100k" => shard::run(
            &shard::ShardScale {
                hosts: if smoke { 2_000 } else { 100_000 },
                setups: if smoke { 1 } else { 15 },
                pass_s: 1.4,
            },
            args,
        ),
        other => Err(optum_types::Error::InvalidConfig(format!(
            "unknown workload '{other}' (known: {})",
            WORKLOADS.map(|w| w.0).join(", ")
        ))),
    }
}

impl RunArgs {
    /// How often a measured phase is repeated when one repetition takes
    /// about `nominal_s` seconds: as often as fits into `seconds`, and
    /// at least three times. A function of the arguments alone, never
    /// of how fast this commit runs, so the fastest-of-n statistic has
    /// the same n on both sides of a comparison.
    pub(crate) fn reps(&self, nominal_s: f64) -> usize {
        match self.scale {
            Scale::Full => ((self.seconds / nominal_s).round() as usize).max(3),
            Scale::Smoke => 1,
        }
    }
}

/// Self time of a program-reported span, in ms (0 when the span never
/// ran or the build is `obs-off`).
pub(crate) fn obs_self_ms(snap: &optum_obs::Snapshot, span: &str) -> f64 {
    snap.span(span)
        .map(|s| s.self_ns as f64 / 1e6)
        .unwrap_or(0.0)
}
