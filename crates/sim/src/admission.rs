//! The admission controller shared by batch, served and sharded
//! execution.
//!
//! One bounded pending queue under one priority rule (§2.1, §3.1.3:
//! LS, LSR and BE share a queue). [`Admission`] owns the queue and its
//! `(Reverse(priority), arrival, id)` total order with a lazy re-sort,
//! the 3/4 high-water BE throttle with oldest-first release, cap
//! shedding from the sorted back, and the per-class [`OverloadStats`]
//! ledger with its depth peaks and conservation law. It is generic
//! over the pod-id type and reads a pod's `(class, arrival tick)`
//! through a closure the engine passes in, so `Simulator` (`PodId`s
//! into a `Workload`) and `optum-shard`'s `ScaleEngine` (`u32`s into a
//! `ScalePod` slice) monomorphise the same code: no `dyn`, no per-pod
//! allocation.
//!
//! What a shed *means* — the shed tick, censored waits, recovery
//! accounting, wire events — stays in the engine, which drains the
//! shed ids ([`Admission::next_shed`]) after [`Admission::settle`].

use std::cmp::Reverse;
use std::collections::VecDeque;

use optum_types::SloClass;

use crate::result::OverloadStats;

/// What [`Admission::admit`] did with an arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admit {
    /// Entered the pending queue.
    Queued,
    /// BE arrival over the high-water mark: parked in the throttle
    /// buffer until the queue drains.
    Throttled,
    /// Degenerate cap of zero: shed on arrival.
    Shed,
}

/// Pending-queue sort key: highest SLO priority first, FIFO within a
/// class, pod id as a total tiebreak (total order, so a lazy re-sort
/// reproduces an eager per-round sort bit-identically).
fn queue_key<P>(id: P, (class, arrival): (SloClass, u64)) -> (Reverse<u8>, u64, P) {
    (Reverse(class.priority()), arrival, id)
}

/// The bounded pending queue, BE throttle buffer and per-class ledger
/// (see the module docs). Every method that orders or classifies pods
/// takes `meta`, the engine's `id -> (class, arrival tick)` lookup.
#[derive(Debug, Clone)]
pub struct Admission<P> {
    cap: Option<usize>,
    pending: Vec<P>,
    /// Whether `pending` is sorted by [`queue_key`]. Pushes that keep
    /// the key order preserve the flag, so quiet ticks skip the
    /// re-sort entirely.
    sorted: bool,
    /// BE pods deferred by backpressure, in arrival order.
    throttled: VecDeque<P>,
    /// Shed ids the engine has not drained yet, oldest first.
    shed: VecDeque<P>,
    /// Pending-queue depth per class, in [`SloClass::ALL`] order.
    class_depth: [u64; SloClass::ALL.len()],
    stats: OverloadStats,
}

impl<P: Copy + Ord> Admission<P> {
    /// An empty controller over a queue bounded at `cap` (`None` =
    /// unbounded: nothing is ever throttled or shed).
    pub fn new(cap: Option<usize>) -> Admission<P> {
        Admission {
            cap,
            pending: Vec::new(),
            sorted: true,
            throttled: VecDeque::new(),
            shed: VecDeque::new(),
            class_depth: [0; SloClass::ALL.len()],
            stats: OverloadStats::default(),
        }
    }

    /// Whether the queue has reached the BE-throttle threshold: 3/4
    /// of the cap, at least one. Never without a cap, nor with the
    /// degenerate cap of zero (which sheds instead).
    fn over_high_water(&self) -> bool {
        self.cap
            .is_some_and(|c| c > 0 && self.pending.len() >= (c / 4 * 3).max(1))
    }

    /// Whether [`Admission::release_throttled`] has a pod to release
    /// (an event-driven engine must not skip that tick).
    pub fn release_due(&self) -> bool {
        !self.throttled.is_empty() && !self.over_high_water()
    }

    /// Backpressure release, first thing each tick: readmits throttled
    /// BE pods (oldest first) while the queue sits below the
    /// high-water mark.
    pub fn release_throttled(&mut self, meta: impl Fn(P) -> (SloClass, u64)) {
        while self.release_due() {
            let id = self.throttled.pop_front().expect("release is due");
            let c = &mut self.stats.per_class[meta(id).0.index()];
            c.admitted += 1;
            c.requeued += 1;
            self.push(id, &meta);
        }
    }

    /// Takes one arrival: shed on a degenerate cap, throttled for BE
    /// over the high-water mark, queued otherwise.
    pub fn admit(&mut self, id: P, meta: impl Fn(P) -> (SloClass, u64)) -> Admit {
        let class = meta(id).0;
        self.stats.per_class[class.index()].arrivals += 1;
        if self.cap == Some(0) {
            self.stats.per_class[class.index()].shed += 1;
            self.shed.push_back(id);
            Admit::Shed
        } else if class == SloClass::Be && self.over_high_water() {
            self.throttled.push_back(id);
            Admit::Throttled
        } else {
            self.stats.per_class[class.index()].admitted += 1;
            self.push(id, meta);
            Admit::Queued
        }
    }

    /// Counts an arrival a front-end denied before submission (its
    /// client connection was evicted): it lands in the `disconnected`
    /// ledger class and never touches the queue.
    pub fn deny(&mut self, class: SloClass) {
        let c = &mut self.stats.per_class[class.index()];
        c.arrivals += 1;
        c.disconnected += 1;
    }

    /// Per-tick settle point, after the tick's arrivals: enforces the
    /// cap by shedding from the sorted back of the queue — lowest SLO
    /// priority first, newest arrival first within a class, so an LSR
    /// pod is never shed while any BE pod is queued — and checks the
    /// conservation law in test builds.
    pub fn settle(&mut self, meta: impl Fn(P) -> (SloClass, u64)) {
        let cap = self.cap.unwrap_or(usize::MAX);
        if self.pending.len() > cap {
            self.sort(&meta);
            while self.pending.len() > cap {
                let id = self.pending.pop().expect("len > cap >= 0");
                let ci = meta(id).0.index();
                self.class_depth[ci] -= 1;
                // Shed pods were admitted; the ledger is net.
                self.stats.per_class[ci].admitted -= 1;
                self.stats.per_class[ci].shed += 1;
                self.shed.push_back(id);
            }
        }
        debug_assert!(
            self.ledger_holds(),
            "admission ledger not conserved: {:?} with {} throttled",
            self.stats.per_class,
            self.throttled.len()
        );
    }

    /// The oldest shed id (on arrival or from the queue back) the
    /// engine has not booked yet; engines drain these after
    /// [`Admission::settle`].
    pub fn next_shed(&mut self) -> Option<P> {
        self.shed.pop_front()
    }

    /// Records the depth peaks (per class, whole queue, throttle
    /// buffer). Engines observe them once per tick after
    /// [`Admission::settle`]; transient mid-round depths mean nothing.
    pub fn record_peaks(&mut self) {
        for (c, &d) in self.stats.per_class.iter_mut().zip(&self.class_depth) {
            c.max_depth = c.max_depth.max(d);
        }
        self.stats.max_depth = self.stats.max_depth.max(self.pending.len() as u64);
        self.stats.throttled_peak = self.stats.throttled_peak.max(self.throttled.len() as u64);
    }

    /// Puts a pod in the queue without touching the ledger: a
    /// scheduling round returning a pod it did not place, or an
    /// evicted pod coming back (it was admitted when it first arrived).
    /// The sorted flag is cleared only when the push actually breaks
    /// the key order.
    pub fn push(&mut self, id: P, meta: impl Fn(P) -> (SloClass, u64)) {
        let m = meta(id);
        self.class_depth[m.0.index()] += 1;
        if let (true, Some(&last)) = (self.sorted, self.pending.last()) {
            self.sorted = queue_key(id, m) >= queue_key(last, meta(last));
        }
        self.pending.push(id);
    }

    fn sort(&mut self, meta: impl Fn(P) -> (SloClass, u64)) {
        if !self.sorted {
            self.pending.sort_by_key(|&id| queue_key(id, meta(id)));
            self.sorted = true;
        }
    }

    /// The queue in priority order (re-sorted only if dirty).
    pub fn sorted(&mut self, meta: impl Fn(P) -> (SloClass, u64)) -> &[P] {
        self.sort(meta);
        &self.pending
    }

    /// Moves the whole queue, in priority order, into the empty
    /// `round`; the engine [`Admission::push`]es back what it does not
    /// place. A swap, so both vectors keep their capacity and
    /// steady-state rounds allocate nothing.
    pub fn take_round(&mut self, round: &mut Vec<P>, meta: impl Fn(P) -> (SloClass, u64)) {
        debug_assert!(round.is_empty());
        self.sort(meta);
        std::mem::swap(&mut self.pending, round);
        self.class_depth = [0; SloClass::ALL.len()];
    }

    /// Removes the queued pods `placed` says were placed this round;
    /// the relative order, and so the sorted flag, survives.
    pub fn remove_placed(
        &mut self,
        placed: impl Fn(P) -> bool,
        meta: impl Fn(P) -> (SloClass, u64),
    ) {
        let depth = &mut self.class_depth;
        self.pending.retain(|&id| {
            let gone = placed(id);
            if gone {
                depth[meta(id).0.index()] -= 1;
            }
            !gone
        });
    }

    /// The pending queue in its current (possibly unsorted) order.
    pub fn pending(&self) -> &[P] {
        &self.pending
    }

    /// Whether [`Admission::pending`] is currently in priority order.
    pub fn is_sorted(&self) -> bool {
        self.sorted
    }

    /// The BE throttle buffer, oldest first.
    pub fn throttled(&self) -> &VecDeque<P> {
        &self.throttled
    }

    /// Closes the window: the (BE) pods still parked in the throttle
    /// buffer settle into `throttled_end`.
    pub fn close(&mut self) {
        self.stats.per_class[SloClass::Be.index()].throttled_end += self.throttled.len() as u64;
    }

    /// The ledger accumulated so far.
    pub fn stats(&self) -> &OverloadStats {
        &self.stats
    }

    /// The ledger, for the engine-side counter that lives beside it
    /// (decision-budget pressure), checkpoint restore, and taking the
    /// final result.
    pub fn stats_mut(&mut self) -> &mut OverloadStats {
        &mut self.stats
    }

    /// The conservation law, with the pods parked in the throttle
    /// buffer (BE is the only class it ever holds) counted as they will
    /// be in `throttled_end` if they are still there at the close; and
    /// no class has more pods queued than admitted.
    pub fn ledger_holds(&self) -> bool {
        SloClass::ALL.iter().all(|&class| {
            let mut c = self.stats.per_class[class.index()];
            if class == SloClass::Be {
                c.throttled_end = self.throttled.len() as u64;
            }
            c.conserved() && self.class_depth[class.index()] <= c.admitted
        })
    }

    /// Replaces the queues with checkpointed ones. Class depths are
    /// derived state, rebuilt from the restored queue; a sorted flag
    /// the queue contradicts is dropped (the next round sorts).
    pub fn restore_queues(
        &mut self,
        pending: Vec<P>,
        sorted: bool,
        throttled: VecDeque<P>,
        meta: impl Fn(P) -> (SloClass, u64),
    ) {
        self.class_depth = [0; SloClass::ALL.len()];
        for &id in &pending {
            self.class_depth[meta(id).0.index()] += 1;
        }
        self.sorted = sorted && pending.is_sorted_by_key(|&id| queue_key(id, meta(id)));
        self.pending = pending;
        self.throttled = throttled;
    }
}
