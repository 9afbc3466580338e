//! # optum-obs — observability substrate
//!
//! Lock-cheap metrics (counters, gauges, log₂-bucket histograms),
//! RAII span tracing with total/self time, and snapshot export for
//! machine-readable perf baselines — no external crates.
//!
//! ## Model
//!
//! All recording goes to a **thread-local shard**; shards merge into a
//! process-global registry only at scope exit — an explicit [`flush`]
//! at the end of a worker closure, with thread-teardown `Drop` as a
//! best-effort fallback (scoped threads signal completion *before*
//! TLS destructors run, so don't rely on the fallback inside
//! `std::thread::scope`). The hot path never takes a lock. Merges are
//! commutative integer additions, so the merged totals are exactly
//! what a single-threaded run would record — the `optum-parallel`
//! fan-out stays deterministic and so do the metrics that describe it
//! (wall-clock *durations* vary run to run, counts do not).
//!
//! Metrics are observation-only: nothing read from the registry may
//! influence simulation or scheduling, so instrumented and
//! `obs-off` builds produce bit-identical experiment output.
//!
//! ## Usage
//!
//! ```
//! use optum_obs as obs;
//!
//! obs::reset();
//! {
//!     let _g = obs::span!("demo.outer");
//!     obs::counter!("demo.events");
//!     obs::counter!("demo.bytes", 128);
//!     obs::observe!("demo.latency_ns", 1_500);
//!     obs::gauge!("demo.threads", 4.0);
//! }
//! let snap = obs::snapshot();
//! # #[cfg(not(feature = "obs-off"))]
//! assert_eq!(snap.counter("demo.events"), Some(1));
//! ```
//!
//! ## `obs-off`
//!
//! With the `obs-off` cargo feature every recording call compiles to
//! nothing: [`SpanGuard`] is a zero-sized type without `Drop`,
//! counters/gauges/histograms are `#[inline(always)]` empty bodies,
//! and [`snapshot`] returns an empty [`Snapshot`]. The snapshot and
//! export types still compile, so downstream code needs no cfgs. The
//! `obs_overhead` Criterion bench in `crates/bench` guards the
//! zero-cost claim.

mod json;
mod registry;
mod span;
mod summary;

pub use json::JsonWriter;
pub use registry::{
    counter_add, flush, gauge_set, observe_u64, reset, snapshot, Hist, Snapshot, SpanStat,
    HIST_BUCKETS,
};
pub use span::{SpanGuard, StageClock};
pub use summary::{render_summary, stage_table};

/// Opens a timing span; bind the guard (`let _g = span!("name");`) —
/// it records on drop.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::SpanGuard::enter($name)
    };
}

/// Increments a counter by 1, or by an explicit amount.
#[macro_export]
macro_rules! counter {
    ($name:expr) => {
        $crate::counter_add($name, 1)
    };
    ($name:expr, $v:expr) => {
        $crate::counter_add($name, $v)
    };
}

/// Sets a gauge to a value (last write wins; main-thread knobs only).
#[macro_export]
macro_rules! gauge {
    ($name:expr, $v:expr) => {
        $crate::gauge_set($name, $v)
    };
}

/// Records a `u64` sample into a histogram.
#[macro_export]
macro_rules! observe {
    ($name:expr, $v:expr) => {
        $crate::observe_u64($name, $v)
    };
}

/// Reads the peak resident-set size of this process in bytes
/// (`VmHWM` from `/proc/self/status`); `None` off Linux or if the
/// file is unreadable. Works identically under `obs-off` — it reads
/// kernel accounting, not the registry.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest.trim().trim_end_matches(" kB").trim().parse().ok()?;
            return Some(kb * 1024);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    #[cfg(not(feature = "obs-off"))]
    use std::sync::Mutex;

    /// The registry is process-global; serialize tests that touch it.
    #[cfg(not(feature = "obs-off"))]
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    #[cfg(not(feature = "obs-off"))]
    fn locked() -> std::sync::MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    #[cfg(not(feature = "obs-off"))]
    fn counters_gauges_histograms_round_trip() {
        let _l = locked();
        reset();
        counter!("t.hits");
        counter!("t.hits", 4);
        gauge!("t.load", 0.75);
        observe!("t.lat", 10);
        observe!("t.lat", 1000);
        let snap = snapshot();
        assert_eq!(snap.counter("t.hits"), Some(5));
        assert_eq!(snap.gauge("t.load"), Some(0.75));
        let h = snap.hist("t.lat").unwrap();
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, 1010);
        assert_eq!(h.min, 10);
        assert_eq!(h.max, 1000);
    }

    #[test]
    #[cfg(not(feature = "obs-off"))]
    fn spans_nest_and_split_self_time() {
        let _l = locked();
        reset();
        {
            let _outer = span!("t.outer");
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _inner = span!("t.inner");
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        }
        let snap = snapshot();
        let outer = snap.span("t.outer").unwrap();
        let inner = snap.span("t.inner").unwrap();
        assert_eq!(outer.count, 1);
        assert_eq!(inner.count, 1);
        // Outer total covers inner total; outer self excludes it.
        assert!(outer.total_ns >= inner.total_ns);
        assert!(outer.self_ns <= outer.total_ns - inner.total_ns + 1_000_000);
        assert_eq!(inner.self_ns, inner.total_ns);
    }

    #[test]
    #[cfg(not(feature = "obs-off"))]
    fn stage_clock_charges_consecutive_stages_inside_one_span() {
        let _l = locked();
        reset();
        {
            let _g = span!("t.staged");
            let mut clock = StageClock::start();
            std::thread::sleep(std::time::Duration::from_millis(2));
            clock.lap("t.staged.a_ns");
            clock.lap("t.staged.b_ns");
        }
        let snap = snapshot();
        let (a, b) = (
            snap.counter("t.staged.a_ns").unwrap(),
            snap.counter("t.staged.b_ns").unwrap(),
        );
        let span = snap.span("t.staged").unwrap();
        assert!(a >= 2_000_000 && b < a, "a={a} b={b}");
        // Laps open no child span: the stages stay inside the self time.
        assert_eq!(span.self_ns, span.total_ns);
        assert!(a + b <= span.total_ns);
        let stages = ["t.staged.a_ns", "t.staged.b_ns"];
        let table = stage_table(&snap, "t.staged", &stages, ("call", span.count)).unwrap();
        assert!(table.contains("ns/call") && table.contains("t.staged.b_ns"));
        assert_eq!(stage_table(&snap, "t.missing", &stages, ("call", 1)), None);
    }

    #[test]
    #[cfg(not(feature = "obs-off"))]
    fn worker_thread_shards_merge_on_exit() {
        let _l = locked();
        reset();
        counter!("t.merge", 1);
        let handles: Vec<_> = (0..3)
            .map(|_| {
                std::thread::spawn(|| {
                    counter!("t.merge", 10);
                    observe!("t.merge_h", 7);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let snap = snapshot();
        assert_eq!(snap.counter("t.merge"), Some(31));
        assert_eq!(snap.hist("t.merge_h").unwrap().count, 3);
    }

    #[test]
    fn hist_bucketing_and_quantiles() {
        let mut h = Hist::default();
        for v in [0u64, 1, 2, 3, 4, 7, 8, 1024] {
            h.observe(v);
        }
        assert_eq!(h.count, 8);
        assert_eq!(h.buckets[0], 1); // 0
        assert_eq!(h.buckets[1], 1); // 1
        assert_eq!(h.buckets[2], 2); // 2,3
        assert_eq!(h.buckets[3], 2); // 4,7
        assert_eq!(h.buckets[4], 1); // 8
        assert_eq!(h.buckets[11], 1); // 1024
        assert_eq!(h.min, 0);
        assert_eq!(h.max, 1024);
        // Quantiles are bucket-approximate but ordered and bounded.
        assert!(h.quantile(0.0) <= h.quantile(0.5));
        assert!(h.quantile(0.5) <= h.quantile(1.0));
        assert!(h.quantile(1.0) <= h.max);
    }

    #[test]
    fn hist_merge_equals_serial() {
        let vals = [3u64, 9, 81, 6561, 0, 1, u64::MAX];
        let mut serial = Hist::default();
        for &v in &vals {
            serial.observe(v);
        }
        let mut a = Hist::default();
        let mut b = Hist::default();
        for (i, &v) in vals.iter().enumerate() {
            if i % 2 == 0 {
                a.observe(v);
            } else {
                b.observe(v);
            }
        }
        a.merge(&b);
        assert_eq!(a, serial);
    }

    #[test]
    #[cfg(feature = "obs-off")]
    fn obs_off_compiles_to_no_ops() {
        // SpanGuard must be a ZST with no Drop machinery.
        assert_eq!(std::mem::size_of::<SpanGuard>(), 0);
        assert!(!std::mem::needs_drop::<SpanGuard>());
        let _g = span!("t.off");
        assert_eq!(std::mem::size_of::<StageClock>(), 0);
        StageClock::start().lap("t.off.stage_ns");
        counter!("t.off");
        gauge!("t.off.g", 1.0);
        observe!("t.off.h", 42);
        flush();
        let snap = snapshot();
        assert!(snap.is_empty());
        assert_eq!(render_summary(&snap), "(no observability data recorded)\n");
    }

    #[test]
    #[cfg(not(feature = "obs-off"))]
    fn reset_clears_everything() {
        let _l = locked();
        reset();
        counter!("t.gone");
        flush();
        reset();
        assert!(snapshot().is_empty());
    }

    #[test]
    #[cfg(not(feature = "obs-off"))]
    fn summary_renders_all_sections() {
        let _l = locked();
        reset();
        {
            let _g = span!("t.render");
        }
        counter!("t.render.c", 2);
        gauge!("t.render.g", 1.5);
        observe!("t.render.h", 99);
        let text = render_summary(&snapshot());
        for needle in ["span", "t.render", "counter", "gauge", "histogram"] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }

    #[test]
    fn peak_rss_is_plausible_on_linux() {
        if let Some(rss) = peak_rss_bytes() {
            // More than a page, less than a terabyte.
            assert!(rss > 4096 && rss < (1 << 40), "rss = {rss}");
        }
    }
}
