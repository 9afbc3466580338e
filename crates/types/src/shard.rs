//! Cluster shard layout: the contiguous host-range partition shared by
//! the sharded engine (`optum-shard`) and the checkpoint format
//! (`optum-sim`).
//!
//! A layout slices the fleet into contiguous node-id ranges, one per
//! shard, **aligned to fixed-size slabs** ([`SLAB_NODES`] hosts). Slab
//! alignment is what makes the sharded engine's floating-point
//! reductions shard-count invariant: cluster-wide sums are always
//! accumulated per slab and combined in global slab order, and because
//! every slab is owned by exactly one shard, the summation tree is a
//! pure function of the host count — never of how many shards the
//! slabs were dealt to.
//!
//! The layout also travels inside simulation snapshots (see
//! `optum-sim`'s checkpoint format, `SNAP_VERSION >= 3`): a run
//! checkpointed under one layout must not silently resume under
//! another, so restore compares the stored layout against the
//! configured one and fails loudly on mismatch.

use crate::ids::NodeId;

/// Hosts per slab — the granularity of shard boundaries and of the
/// deterministic reduction tree. A function of nothing: changing this
/// constant changes every sharded result, so it is fixed forever.
pub const SLAB_NODES: usize = 64;

/// A contiguous, slab-aligned partition of `hosts` nodes into shards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardLayout {
    /// Total hosts partitioned.
    pub hosts: usize,
    /// Half-open global node-id ranges `[start, end)`, one per shard,
    /// in shard order. Ranges tile `[0, hosts)`; a trailing shard may
    /// be empty when there are fewer slabs than shards.
    pub ranges: Vec<(u32, u32)>,
}

impl ShardLayout {
    /// The degenerate single-shard layout: one range covering the
    /// whole fleet. This is what the legacy single-engine simulator
    /// records in its checkpoints.
    pub fn single(hosts: usize) -> ShardLayout {
        ShardLayout::contiguous(hosts, 1)
    }

    /// Partitions `hosts` into `shards` contiguous slab-aligned
    /// ranges, distributing slabs as evenly as possible (earlier
    /// shards take the remainder). `shards == 0` is treated as 1.
    pub fn contiguous(hosts: usize, shards: usize) -> ShardLayout {
        let shards = shards.max(1);
        let slabs = hosts.div_ceil(SLAB_NODES).max(1);
        let base = slabs / shards;
        let rem = slabs % shards;
        let mut ranges = Vec::with_capacity(shards);
        let mut slab = 0usize;
        for s in 0..shards {
            let take = base + usize::from(s < rem);
            let start = (slab * SLAB_NODES).min(hosts);
            let end = ((slab + take) * SLAB_NODES).min(hosts);
            ranges.push((start as u32, end as u32));
            slab += take;
        }
        ShardLayout { hosts, ranges }
    }

    /// Number of shards (including empty trailing ones).
    pub fn shard_count(&self) -> usize {
        self.ranges.len()
    }

    /// The shard owning a global node id, `None` for an id outside the
    /// fleet.
    pub fn shard_of(&self, node: NodeId) -> Option<usize> {
        let id = node.0;
        self.ranges.iter().position(|&(s, e)| s <= id && id < e)
    }

    /// Global slab count (the length of the reduction tree).
    pub fn slab_count(&self) -> usize {
        self.hosts.div_ceil(SLAB_NODES).max(1)
    }

    /// Compact human-readable form used in checkpoint mismatch errors,
    /// e.g. `4 shards over 6000 hosts [0..1536, 1536..3072, ...]`.
    pub fn describe(&self) -> String {
        let mut s = format!(
            "{} shard{} over {} hosts [",
            self.ranges.len(),
            if self.ranges.len() == 1 { "" } else { "s" },
            self.hosts
        );
        for (i, (a, b)) in self.ranges.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            if i >= 4 && self.ranges.len() > 5 {
                s.push_str("...");
                break;
            }
            s.push_str(&format!("{a}..{b}"));
        }
        s.push(']');
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges_tile_the_fleet() {
        for hosts in [1usize, 63, 64, 65, 1000, 6000, 100_000] {
            for shards in [1usize, 2, 4, 16, 33] {
                let l = ShardLayout::contiguous(hosts, shards);
                assert_eq!(l.ranges.len(), shards);
                let mut next = 0u32;
                for &(a, b) in &l.ranges {
                    assert_eq!(a, next);
                    assert!(b >= a);
                    // Every boundary except the fleet edge is slab-aligned.
                    if (b as usize) < hosts {
                        assert_eq!(b as usize % SLAB_NODES, 0);
                    }
                    next = b;
                }
                assert_eq!(next as usize, hosts);
            }
        }
    }

    #[test]
    fn shard_of_matches_ranges() {
        let l = ShardLayout::contiguous(300, 3);
        for id in 0..300u32 {
            let s = l.shard_of(NodeId(id)).unwrap();
            let (a, b) = l.ranges[s];
            assert!(a <= id && id < b);
        }
        assert_eq!(l.shard_of(NodeId(300)), None);
    }

    #[test]
    fn single_is_one_range() {
        let l = ShardLayout::single(77);
        assert_eq!(l.ranges, vec![(0, 77)]);
        assert_eq!(l.describe(), "1 shard over 77 hosts [0..77]");
    }

    #[test]
    fn more_shards_than_slabs_leaves_empty_tails() {
        let l = ShardLayout::contiguous(10, 4);
        assert_eq!(l.ranges[0], (0, 10));
        assert!(l.ranges[1..].iter().all(|&(a, b)| a == b));
    }
}
