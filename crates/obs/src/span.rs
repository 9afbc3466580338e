//! RAII span guards for structured tracing.
//!
//! `let _g = span!("sim.tick");` times the enclosing scope and records
//! the duration under the span name when the guard drops. Spans nest:
//! each guard tracks how much wall time its direct children consumed
//! (via a per-thread accumulator stack in the shard), so the registry
//! can report both *total* and *self* time per span name.
//!
//! Under the `obs-off` feature the guard is a zero-sized type with no
//! `Drop` impl and `enter` is an `#[inline(always)]` no-op, so the
//! whole mechanism compiles away.

#[cfg(not(feature = "obs-off"))]
use crate::registry::{record_span, with_local};
#[cfg(not(feature = "obs-off"))]
use std::time::Instant;

/// Times a scope; created by [`SpanGuard::enter`] or the
/// [`span!`](crate::span) macro, records on drop.
#[cfg(not(feature = "obs-off"))]
pub struct SpanGuard {
    name: &'static str,
    start: Instant,
}

/// No-op stand-in when observability is compiled out.
#[cfg(feature = "obs-off")]
pub struct SpanGuard;

#[cfg(not(feature = "obs-off"))]
impl SpanGuard {
    /// Opens a span; the returned guard records when dropped.
    #[inline]
    pub fn enter(name: &'static str) -> SpanGuard {
        // Push a child-time accumulator for this span.
        with_local(|s| s.stack.push(0));
        SpanGuard {
            name,
            start: Instant::now(),
        }
    }
}

#[cfg(not(feature = "obs-off"))]
impl Drop for SpanGuard {
    fn drop(&mut self) {
        let total_ns = self.start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        let mut child_ns = 0u64;
        with_local(|s| {
            child_ns = s.stack.pop().unwrap_or(0);
            // Credit our full duration to the parent's child accumulator.
            if let Some(parent) = s.stack.last_mut() {
                *parent = parent.saturating_add(total_ns);
            }
        });
        record_span(self.name, total_ns, total_ns.saturating_sub(child_ns));
    }
}

#[cfg(feature = "obs-off")]
impl SpanGuard {
    /// No-op: observability is compiled out.
    #[inline(always)]
    pub fn enter(_name: &'static str) -> SpanGuard {
        SpanGuard
    }
}

/// Splits one span into consecutive stages without a span per stage:
/// each [`StageClock::lap`] adds the nanoseconds since the previous lap
/// (or the start) to a counter, so the enclosing span's self time keeps
/// covering all of them. One clock read per lap; a no-op ZST under
/// `obs-off`.
#[cfg(not(feature = "obs-off"))]
pub struct StageClock {
    last: Instant,
}

/// No-op stand-in when observability is compiled out.
#[cfg(feature = "obs-off")]
pub struct StageClock;

#[cfg(not(feature = "obs-off"))]
impl StageClock {
    /// Starts timing the first stage.
    #[inline]
    pub fn start() -> StageClock {
        StageClock {
            last: Instant::now(),
        }
    }

    /// Ends the current stage, charging its duration to `counter`, and
    /// starts the next.
    #[inline]
    pub fn lap(&mut self, counter: &'static str) {
        let now = Instant::now();
        let ns = now.duration_since(self.last).as_nanos();
        crate::counter_add(counter, ns.min(u64::MAX as u128) as u64);
        self.last = now;
    }
}

#[cfg(feature = "obs-off")]
impl StageClock {
    /// No-op: observability is compiled out.
    #[inline(always)]
    pub fn start() -> StageClock {
        StageClock
    }

    /// No-op: observability is compiled out.
    #[inline(always)]
    pub fn lap(&mut self, _counter: &'static str) {}
}
