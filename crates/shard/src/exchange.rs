//! Deterministic cross-shard message exchange.
//!
//! At every active tick each shard emits an **outbox** — completion
//! notices, eviction requeues, and one placement proposal per
//! scheduling request — and the coordinator drains the outboxes in a
//! *seeded delivery order*: a permutation of the shards that is a pure
//! function of `(seed, shard, tick)`, reusing the counter-derived
//! [`SplitMix64`] streams the control-plane chaos layer introduced
//! (every shard's jitter key comes from its own
//! `stream(seed, shard, tick)`). Like a real exchange fabric, the
//! arrival order varies tick to tick — but replays bit-identically for
//! a given seed.
//!
//! The reductions applied while draining are deliberately insensitive
//! to that order (commutative marks, canonical argmin with node-id
//! tie-break), so the seeded order exercises the delivery machinery
//! without becoming load-bearing for determinism across *shard
//! counts* — see the crate docs for the full argument.

use optum_types::SplitMix64;

/// Channel tag decorrelating exchange jitter from other seeded
/// channels sharing the run seed.
pub const EXCHANGE_CHANNEL: u64 = 0xE8C4_A96E;

/// One shard's placement proposal for one scheduling request.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Proposal {
    /// Candidate score (lower is better).
    pub score: f64,
    /// Global node id (the tie-break, ascending).
    pub node: u32,
}

impl Proposal {
    /// Canonical merge: keep the better proposal, breaking score ties
    /// toward the lower node id. Commutative and associative, so the
    /// fold result is independent of delivery order.
    pub fn merge(a: Option<Proposal>, b: Option<Proposal>) -> Option<Proposal> {
        match (a, b) {
            (None, x) | (x, None) => x,
            (Some(x), Some(y)) => {
                if (y.score, y.node) < (x.score, x.node) {
                    Some(y)
                } else {
                    Some(x)
                }
            }
        }
    }
}

/// Writes into `order` the order in which the coordinator drains
/// `shards` outboxes at tick `tick`: shards sorted by their seeded
/// jitter key. A pure function of `(seed, shard, tick)` — independent
/// of thread scheduling, wall clock, and machine.
pub fn delivery_order(seed: u64, tick: u64, shards: usize, order: &mut Vec<usize>) {
    let key = |s: usize| SplitMix64::stream(seed ^ EXCHANGE_CHANNEL, s as u64, tick).next_u64();
    order.clear();
    order.extend(0..shards);
    order.sort_unstable_by_key(|&s| (key(s), s));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn order(seed: u64, tick: u64, shards: usize) -> Vec<usize> {
        let mut order = vec![7; 3];
        delivery_order(seed, tick, shards, &mut order);
        order
    }

    #[test]
    fn delivery_order_is_a_seeded_permutation() {
        let a = order(42, 100, 8);
        assert_eq!(a, order(42, 100, 8));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..8).collect::<Vec<_>>());
        // Different ticks (almost always) permute differently.
        let any_different = (0..32).any(|t| order(42, t, 8) != a);
        assert!(any_different);
    }

    #[test]
    fn proposal_merge_is_canonical() {
        let x = Proposal {
            score: 0.5,
            node: 10,
        };
        let y = Proposal {
            score: 0.5,
            node: 3,
        };
        let z = Proposal {
            score: 0.2,
            node: 99,
        };
        assert_eq!(Proposal::merge(Some(x), Some(y)), Some(y));
        assert_eq!(Proposal::merge(Some(y), Some(x)), Some(y));
        assert_eq!(Proposal::merge(Some(x), Some(z)), Some(z));
        assert_eq!(Proposal::merge(None, Some(x)), Some(x));
        assert_eq!(Proposal::merge(None, None), None);
    }
}
