//! Property tests on the shared admission controller in isolation:
//! random `(class, arrival)` streams driven through a stand-in engine
//! that places, requeues, evicts and denies at random, across caps
//! {None, 0, 1, small, large}.
//!
//! 1. **Conservation** after every operation: per class,
//!    `admitted + shed + throttled + disconnected == arrivals`.
//! 2. **The cap holds** after every settle: `len() <= cap`.
//! 3. **Class-aware shedding**: no pod is shed while a pod of lower
//!    SLO priority is still queued — in particular no LSR pod while a
//!    BE pod is queued.

use proptest::prelude::*;

use optum_sim::{Admission, Admit};
use optum_types::{SloClass, SplitMix64};

/// `fed` is what the controller has been given so far, per class.
fn assert_conserved(adm: &Admission<u32>, fed: &[u64; SloClass::ALL.len()], when: &str) {
    for class in SloClass::ALL {
        let c = adm.stats().class(class);
        let parked = if class == SloClass::Be {
            adm.throttled().len() as u64
        } else {
            0
        };
        assert_eq!(c.arrivals, fed[class.index()], "{when}: {class}");
        assert_eq!(
            c.admitted + c.shed + parked + c.disconnected,
            c.arrivals,
            "{when}: {class} ledger {c:?} with {parked} throttled"
        );
    }
}

proptest! {
    #[test]
    fn ledger_cap_and_shed_order_hold_under_random_traffic(
        stream in proptest::collection::vec((0usize..6, 0u64..3), 1..160),
        cap_choice in 0usize..5,
        small_cap in 2usize..12,
        seed in any::<u64>(),
    ) {
        let cap = [None, Some(0), Some(1), Some(small_cap), Some(10_000)][cap_choice];
        // Pod i is `(class, arrival tick)`; arrivals never go backwards.
        let mut tick = 0u64;
        let pods: Vec<(SloClass, u64)> = stream
            .iter()
            .map(|&(class, gap)| {
                tick += gap;
                (SloClass::ALL[class], tick)
            })
            .collect();
        let meta = |id: u32| pods[id as usize];
        let mut dice = SplitMix64::new(seed);
        let mut adm: Admission<u32> = Admission::new(cap);
        let mut fed = [0u64; SloClass::ALL.len()];
        let mut running: Vec<u32> = Vec::new();
        let mut round: Vec<u32> = Vec::new();
        let mut next = 0usize;

        for t in 0..=tick + 3 {
            adm.release_throttled(meta);
            assert_conserved(&adm, &fed, "release");

            while next < pods.len() && pods[next].1 <= t {
                let class = pods[next].0;
                fed[class.index()] += 1;
                if dice.next_u64().is_multiple_of(8) {
                    adm.deny(class);
                } else {
                    let verdict = adm.admit(next as u32, meta);
                    prop_assert!(verdict != Admit::Throttled || class == SloClass::Be);
                    prop_assert_eq!(verdict == Admit::Shed, cap == Some(0));
                }
                assert_conserved(&adm, &fed, "arrival");
                next += 1;
            }

            adm.settle(meta);
            assert_conserved(&adm, &fed, "settle");
            if let Some(cap) = cap {
                prop_assert!(adm.pending().len() <= cap, "{} over cap {cap}", adm.pending().len());
            }
            while let Some(shed) = adm.next_shed() {
                for &queued in adm.pending() {
                    prop_assert!(
                        meta(queued).0.priority() >= meta(shed).0.priority(),
                        "shed {:?} while {:?} is queued",
                        meta(shed),
                        meta(queued)
                    );
                }
            }
            adm.record_peaks();
            for class in SloClass::ALL {
                let depth = adm.pending().iter().filter(|&&id| meta(id).0 == class).count();
                prop_assert!(adm.stats().class(class).max_depth >= depth as u64);
            }

            // A scheduling round that places some pods and returns
            // the rest, in the order the controller hands out.
            adm.take_round(&mut round, meta);
            for pair in round.windows(2) {
                let (a, b) = (meta(pair[0]), meta(pair[1]));
                prop_assert!(
                    (std::cmp::Reverse(a.0.priority()), a.1, pair[0])
                        < (std::cmp::Reverse(b.0.priority()), b.1, pair[1])
                );
            }
            for &id in &round {
                if dice.next_u64().is_multiple_of(3) {
                    running.push(id);
                } else {
                    adm.push(id, meta);
                }
            }
            round.clear();
            // A fault evicts a running pod back into the queue.
            if !running.is_empty() && dice.next_u64().is_multiple_of(4) {
                let victim = running.swap_remove(dice.next_u64() as usize % running.len());
                adm.push(victim, meta);
            }
            assert_conserved(&adm, &fed, "round");
        }

        adm.close();
        let stats = adm.stats();
        prop_assert!(stats.conserved());
        if let Some(cap) = cap {
            prop_assert!(stats.max_depth <= cap as u64);
        } else {
            prop_assert_eq!(stats.total_shed(), 0);
            prop_assert_eq!(stats.throttled_peak, 0);
        }
    }
}
