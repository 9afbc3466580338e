//! The deterministic end state of a serve session.
//!
//! A [`SessionSummary`] is what `optumd` hands back on `drain`: the
//! end-state digest, the per-class admission ledger, and the
//! submit→placed latency tail (p50/p99/p999) — everything the
//! `repro serve` panel renders, computed once server-side so every
//! client of a session sees the same bytes. All quantities are in
//! virtual ticks; wall-clock never enters the summary, which is what
//! makes it replay-deterministic.

use optum_sim::SimResult;
use optum_types::SloClass;

/// Per-SLO-class slice of the session summary.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassSummary {
    /// Position in [`SloClass::ALL`].
    pub class: u8,
    /// Pods of this class submitted (admission ledger: `admitted +
    /// shed + throttled_end + disconnected == arrivals`).
    pub arrivals: u64,
    /// Admitted into the pending queue (net of later cap sheds).
    pub admitted: u64,
    /// Denied service by admission control.
    pub shed: u64,
    /// Still throttled when the window closed.
    pub throttled_end: u64,
    /// Denied because the submitting connection was evicted.
    pub disconnected: u64,
    /// Pods ever placed on a host.
    pub placed: u64,
    /// Pods whose run completed inside the window.
    pub completed: u64,
    /// Median submit→placed latency among placed pods, in ticks.
    pub p50_wait: u64,
    /// 99th-percentile submit→placed latency, in ticks.
    pub p99_wait: u64,
    /// 99.9th-percentile submit→placed latency, in ticks.
    pub p999_wait: u64,
}

impl ClassSummary {
    /// The class this row describes.
    pub fn slo(&self) -> SloClass {
        SloClass::ALL[self.class as usize % SloClass::ALL.len()]
    }
}

optum_sim::snap_fields!(ClassSummary {
    class,
    arrivals,
    admitted,
    shed,
    throttled_end,
    disconnected,
    placed,
    completed,
    p50_wait,
    p99_wait,
    p999_wait
});

/// The deterministic outcome of one complete serve session.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionSummary {
    /// FNV-1a digest of the final engine state
    /// ([`SimResult::digest`]): byte-identical sessions ⇔ equal
    /// digests, whatever the socket interleaving.
    pub digest: u64,
    /// Last simulated tick (exclusive).
    pub end_tick: u64,
    /// Pods in the session trace.
    pub pods: u64,
    /// Pods ever placed.
    pub placed: u64,
    /// Pods completed inside the window.
    pub completed: u64,
    /// Pods denied service by admission control.
    pub shed: u64,
    /// Pods still throttled at the end of the window.
    pub throttled_end: u64,
    /// Pods denied because their submitting connection was evicted.
    pub disconnected: u64,
    /// Denied-service rate: `shed / arrivals` (0 when nothing arrived).
    pub denied_rate: f64,
    /// Per-class ledgers and latency tails, in [`SloClass::ALL`] order
    /// (classes with no arrivals included, all-zero).
    pub per_class: Vec<ClassSummary>,
}

impl SessionSummary {
    /// Computes the summary from a finished engine run.
    pub fn from_result(result: &SimResult) -> SessionSummary {
        let mut per_class = Vec::with_capacity(SloClass::ALL.len());
        let mut waits: Vec<u64> = Vec::new();
        for (i, &class) in SloClass::ALL.iter().enumerate() {
            let ledger = result.overload.class(class);
            waits.clear();
            let mut placed = 0u64;
            let mut completed = 0u64;
            for o in result.outcomes_of(class) {
                if let Some(at) = o.placed_at {
                    placed += 1;
                    waits.push(at.saturating_since(o.arrival));
                }
                if o.completed_at.is_some() {
                    completed += 1;
                }
            }
            waits.sort_unstable();
            per_class.push(ClassSummary {
                class: i as u8,
                arrivals: ledger.arrivals,
                admitted: ledger.admitted,
                shed: ledger.shed,
                throttled_end: ledger.throttled_end,
                disconnected: ledger.disconnected,
                placed,
                completed,
                p50_wait: quantile(&waits, 0.50),
                p99_wait: quantile(&waits, 0.99),
                p999_wait: quantile(&waits, 0.999),
            });
        }
        let arrivals: u64 = per_class.iter().map(|c| c.arrivals).sum();
        let shed: u64 = per_class.iter().map(|c| c.shed).sum();
        let denied_rate = if arrivals == 0 {
            0.0
        } else {
            shed as f64 / arrivals as f64
        };
        SessionSummary {
            digest: result.digest(),
            end_tick: result.end_tick.0,
            pods: result.outcomes.len() as u64,
            placed: per_class.iter().map(|c| c.placed).sum(),
            completed: per_class.iter().map(|c| c.completed).sum(),
            shed,
            throttled_end: per_class.iter().map(|c| c.throttled_end).sum(),
            disconnected: per_class.iter().map(|c| c.disconnected).sum(),
            denied_rate,
            per_class,
        }
    }

    /// Per-class admission conservation across the wire boundary.
    pub fn ledger_holds(&self) -> bool {
        self.per_class
            .iter()
            .all(|c| c.admitted + c.shed + c.throttled_end + c.disconnected == c.arrivals)
    }
}

optum_sim::snap_fields!(SessionSummary {
    digest,
    end_tick,
    pods,
    placed,
    completed,
    shed,
    throttled_end,
    disconnected,
    denied_rate,
    per_class
});

/// Nearest-rank quantile over sorted latencies (empty → 0).
fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((sorted.len() as f64) * q).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&v, 0.50), 50);
        assert_eq!(quantile(&v, 0.99), 99);
        assert_eq!(quantile(&v, 0.999), 100);
        assert_eq!(quantile(&[], 0.5), 0);
        assert_eq!(quantile(&[7], 0.999), 7);
    }
}
