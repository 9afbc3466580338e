//! Runtime samples collected by the tracing coordinator.
//!
//! These mirror the trace's "pod running information" and "node running
//! information" records: per-tick resource usage, PSI pressure metrics
//! over three windows, and application-level QPS / response time.

use crate::ids::{NodeId, PodId};
use crate::resources::Resources;
use crate::time::Tick;

/// Pressure-stall information over the kernel's three sampling windows
/// (10 s, 60 s, 300 s).
///
/// Only the *some* variant applies to CPU; memory exposes both *some*
/// and *full* (§3.3.2). Values are fractions of wall time in `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PsiWindow {
    /// Pressure over the trailing 10 seconds.
    pub avg10: f64,
    /// Pressure over the trailing 60 seconds.
    pub avg60: f64,
    /// Pressure over the trailing 300 seconds.
    pub avg300: f64,
}

/// The three EMA mixing factors for a 30 s tick. `f64::exp` is not a
/// `const fn`, so they are evaluated once at first use; `step` runs on
/// every pod every tick and must not pay three `exp` calls each time.
fn alphas() -> (f64, f64, f64) {
    static ALPHAS: std::sync::OnceLock<(f64, f64, f64)> = std::sync::OnceLock::new();
    *ALPHAS.get_or_init(|| {
        const TICK: f64 = 30.0;
        let alpha = |window: f64| 1.0 - (-TICK / window).exp();
        (alpha(10.0).min(1.0), alpha(60.0), alpha(300.0))
    })
}

impl PsiWindow {
    /// A zero-pressure reading.
    pub const ZERO: PsiWindow = PsiWindow {
        avg10: 0.0,
        avg60: 0.0,
        avg300: 0.0,
    };

    /// Builds the three windows by exponentially smoothing an
    /// instantaneous pressure series; `instant` is the latest value and
    /// `prev` the previous window state.
    ///
    /// The kernel computes PSI as exponential moving averages with the
    /// window length as time constant; with a 30 s tick the 10 s window
    /// effectively tracks the instantaneous value while the 300 s window
    /// smooths over ten ticks.
    #[inline]
    pub fn step(prev: PsiWindow, instant: f64) -> PsiWindow {
        let (a10, a60, a300) = alphas();
        let mix = |old: f64, a: f64| old + a * (instant - old);
        PsiWindow {
            avg10: mix(prev.avg10, a10),
            avg60: mix(prev.avg60, a60),
            avg300: mix(prev.avg300, a300),
        }
    }

    /// The worst pressure across the three windows.
    pub fn worst(&self) -> f64 {
        self.avg10.max(self.avg60).max(self.avg300)
    }
}

/// One OS-level + application-level sample of a running pod.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PodSample {
    /// Sampled pod.
    pub pod: PodId,
    /// Host the pod runs on.
    pub node: NodeId,
    /// Collection time.
    pub at: Tick,
    /// Actual CPU/memory usage (normalized).
    pub usage: Resources,
    /// CPU pressure (the *some* variant).
    pub cpu_psi: PsiWindow,
    /// Memory pressure (the *some* variant; full-memory PSI tracks it
    /// closely in the trace and is derived where needed).
    pub mem_psi: PsiWindow,
    /// Queries per second over the last minute (LS pods; zero for BE).
    pub qps: f64,
    /// Average response time over the last minute (LS pods; zero for BE).
    pub response_time: f64,
    /// Bytes received over the tick (network RX, normalized).
    pub rx: f64,
    /// Bytes sent over the tick (network TX, normalized).
    pub tx: f64,
}

/// One sample of a physical host's aggregate state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeSample {
    /// Sampled node.
    pub node: NodeId,
    /// Collection time.
    pub at: Tick,
    /// Total CPU/memory usage of all pods on the node.
    pub usage: Resources,
    /// Sum of resource requests of all pods on the node.
    pub requested: Resources,
    /// Sum of resource limits of all pods on the node.
    pub limit: Resources,
    /// Number of pods hosted.
    pub pod_count: u32,
}

impl NodeSample {
    /// CPU/memory utilization relative to a capacity.
    pub fn utilization(&self, capacity: &Resources) -> Resources {
        self.usage.div(capacity)
    }

    /// Over-commitment rate of requests relative to a capacity
    /// (Fig. 5): sum of requests divided by capacity.
    pub fn overcommit_request(&self, capacity: &Resources) -> Resources {
        self.requested.div(capacity)
    }

    /// Over-commitment rate of limits relative to a capacity.
    pub fn overcommit_limit(&self, capacity: &Resources) -> Resources {
        self.limit.div(capacity)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn psi_step_converges_to_instant() {
        let mut w = PsiWindow::ZERO;
        for _ in 0..100 {
            w = PsiWindow::step(w, 0.8);
        }
        assert!((w.avg10 - 0.8).abs() < 1e-9);
        assert!((w.avg60 - 0.8).abs() < 1e-6);
        assert!((w.avg300 - 0.8).abs() < 1e-3);
    }

    #[test]
    fn psi_step_matches_uncached_alphas() {
        // `step` must stay bit-identical to evaluating the EMA factors
        // inline on every call.
        const TICK: f64 = 30.0;
        let alpha = |window: f64| 1.0 - (-TICK / window).exp();
        let mix = |old: f64, a: f64, instant: f64| old + a * (instant - old);
        let mut w = PsiWindow::ZERO;
        for i in 0..50 {
            let instant = (i as f64 * 0.37).sin().abs();
            let expect = PsiWindow {
                avg10: mix(w.avg10, alpha(10.0).min(1.0), instant),
                avg60: mix(w.avg60, alpha(60.0), instant),
                avg300: mix(w.avg300, alpha(300.0), instant),
            };
            w = PsiWindow::step(w, instant);
            assert_eq!(w.avg10.to_bits(), expect.avg10.to_bits());
            assert_eq!(w.avg60.to_bits(), expect.avg60.to_bits());
            assert_eq!(w.avg300.to_bits(), expect.avg300.to_bits());
        }
    }

    #[test]
    fn psi_longer_windows_lag() {
        let w = PsiWindow::step(PsiWindow::ZERO, 1.0);
        assert!(w.avg10 >= w.avg60);
        assert!(w.avg60 >= w.avg300);
        assert!(w.avg300 > 0.0);
    }

    #[test]
    fn psi_worst_picks_max() {
        let w = PsiWindow {
            avg10: 0.1,
            avg60: 0.5,
            avg300: 0.2,
        };
        assert_eq!(w.worst(), 0.5);
    }

    #[test]
    fn node_sample_ratios() {
        let s = NodeSample {
            node: NodeId(0),
            at: Tick(0),
            usage: Resources::new(0.3, 0.4),
            requested: Resources::new(2.0, 0.5),
            limit: Resources::new(4.0, 1.0),
            pod_count: 10,
        };
        let cap = Resources::UNIT;
        assert_eq!(s.utilization(&cap), Resources::new(0.3, 0.4));
        assert_eq!(s.overcommit_request(&cap).cpu, 2.0);
        assert_eq!(s.overcommit_limit(&cap).cpu, 4.0);
    }
}
