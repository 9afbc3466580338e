//! Struct-of-arrays node table for one shard.
//!
//! Hot scheduling loops touch one or two fields of many nodes, so the
//! table stores each field contiguously (capacity, usage, committed
//! requests, lifecycle) instead of an array of node structs. Alongside
//! the per-node fields it maintains **per-slab partial sums** of usage
//! and schedulable capacity: the engine's cluster-wide series are
//! folded from these cells in global slab order, which is what keeps
//! the floating-point reduction independent of the shard count (see
//! the crate docs).

use optum_types::SLAB_NODES;

/// Lifecycle codes stored in [`NodeTable::state`].
pub const STATE_UP: u8 = 0;
/// Draining: unschedulable, capacity withdrawn from the slab sums.
pub const STATE_DRAINING: u8 = 1;
/// Down: unschedulable, capacity withdrawn from the slab sums.
pub const STATE_DOWN: u8 = 2;

/// One pod resident on a node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Resident {
    /// Global pod id (index into the scale population).
    pub pod: u32,
    /// Mean CPU usage charged to the node.
    pub cpu_use: f64,
    /// Mean memory usage charged to the node.
    pub mem_use: f64,
    /// CPU request committed on the node.
    pub cpu_req: f64,
    /// Memory request committed on the node.
    pub mem_req: f64,
    /// Completion tick (used to invalidate stale completion events
    /// after an eviction re-places the pod).
    pub end: u64,
}

/// Struct-of-arrays state of the nodes one shard owns.
#[derive(Debug)]
pub struct NodeTable {
    /// First global node id of the shard's range.
    start: u32,
    /// Effective CPU capacity (nominal × degrade factor).
    pub cpu_cap: Vec<f64>,
    /// Effective memory capacity.
    pub mem_cap: Vec<f64>,
    /// Sum of resident mean CPU usage.
    pub cpu_used: Vec<f64>,
    /// Sum of resident mean memory usage.
    pub mem_used: Vec<f64>,
    /// Sum of resident CPU requests (over-commit accounting).
    pub cpu_committed: Vec<f64>,
    /// Sum of resident memory requests.
    pub mem_committed: Vec<f64>,
    /// Lifecycle code per node ([`STATE_UP`] etc.).
    pub state: Vec<u8>,
    /// Resident pods per node (short lists; eviction order is the
    /// deterministic mutation order, not arrival order).
    pub residents: Vec<Vec<Resident>>,
    /// Per-local-slab sum of `cpu_used`.
    slab_cpu_used: Vec<f64>,
    /// Per-local-slab sum of `mem_used`.
    slab_mem_used: Vec<f64>,
    /// Per-local-slab sum of schedulable (Up) CPU capacity.
    slab_cpu_cap: Vec<f64>,
    /// Per-local-slab sum of schedulable (Up) memory capacity.
    slab_mem_cap: Vec<f64>,
    /// Nodes currently not Up.
    pub unavailable: u32,
}

impl NodeTable {
    /// A table for the global half-open node range `[start, end)` of
    /// unit-capacity hosts. The range must be slab-aligned at `start`
    /// (guaranteed by [`optum_types::ShardLayout::contiguous`]).
    pub fn new(start: u32, end: u32) -> NodeTable {
        let n = (end - start) as usize;
        let slabs = n.div_ceil(SLAB_NODES).max(1);
        let mut t = NodeTable {
            start,
            cpu_cap: vec![1.0; n],
            mem_cap: vec![1.0; n],
            cpu_used: vec![0.0; n],
            mem_used: vec![0.0; n],
            cpu_committed: vec![0.0; n],
            mem_committed: vec![0.0; n],
            state: vec![STATE_UP; n],
            residents: vec![Vec::new(); n],
            slab_cpu_used: vec![0.0; slabs],
            slab_mem_used: vec![0.0; slabs],
            slab_cpu_cap: vec![0.0; slabs],
            slab_mem_cap: vec![0.0; slabs],
            unavailable: 0,
        };
        for i in 0..n {
            let s = i / SLAB_NODES;
            t.slab_cpu_cap[s] += t.cpu_cap[i];
            t.slab_mem_cap[s] += t.mem_cap[i];
        }
        t
    }

    /// Local index of a global node id owned by this table.
    pub fn local(&self, node: u32) -> usize {
        (node - self.start) as usize
    }

    /// Whether the node accepts new placements.
    pub fn is_schedulable(&self, local: usize) -> bool {
        self.state[local] == STATE_UP
    }

    /// Charges a resident's usage and committed requests to a node.
    pub fn add_pod(&mut self, local: usize, r: Resident) {
        let s = local / SLAB_NODES;
        self.cpu_used[local] += r.cpu_use;
        self.mem_used[local] += r.mem_use;
        self.cpu_committed[local] += r.cpu_req;
        self.mem_committed[local] += r.mem_req;
        self.slab_cpu_used[s] += r.cpu_use;
        self.slab_mem_used[s] += r.mem_use;
        self.residents[local].push(r);
    }

    /// Removes the resident at `slot` (swap-remove; the list order is
    /// part of the deterministic state evolution) and refunds its
    /// usage and requests.
    pub fn remove_pod(&mut self, local: usize, slot: usize) -> Resident {
        let r = self.residents[local].swap_remove(slot);
        let s = local / SLAB_NODES;
        self.cpu_used[local] -= r.cpu_use;
        self.mem_used[local] -= r.mem_use;
        self.cpu_committed[local] -= r.cpu_req;
        self.mem_committed[local] -= r.mem_req;
        self.slab_cpu_used[s] -= r.cpu_use;
        self.slab_mem_used[s] -= r.mem_use;
        r
    }

    /// Transitions a node's lifecycle, keeping the slab capacity sums
    /// consistent (only Up capacity is schedulable and counted).
    pub fn set_state(&mut self, local: usize, new: u8) {
        let old = self.state[local];
        if old == new {
            return;
        }
        let s = local / SLAB_NODES;
        if old == STATE_UP {
            self.slab_cpu_cap[s] -= self.cpu_cap[local];
            self.slab_mem_cap[s] -= self.mem_cap[local];
            self.unavailable += 1;
        }
        if new == STATE_UP {
            self.slab_cpu_cap[s] += self.cpu_cap[local];
            self.slab_mem_cap[s] += self.mem_cap[local];
            self.unavailable -= 1;
        }
        self.state[local] = new;
    }

    /// Applies a degrade factor: effective capacity becomes
    /// `factor × nominal` (factor 1.0 restores full capacity).
    pub fn set_degrade(&mut self, local: usize, factor: f64) {
        let s = local / SLAB_NODES;
        let new_cpu = factor;
        let new_mem = factor;
        if self.state[local] == STATE_UP {
            self.slab_cpu_cap[s] += new_cpu - self.cpu_cap[local];
            self.slab_mem_cap[s] += new_mem - self.mem_cap[local];
        }
        self.cpu_cap[local] = new_cpu;
        self.mem_cap[local] = new_mem;
    }

    /// Folds this shard's slab cells into running cluster sums, in
    /// local (= global, for contiguous layouts) slab order.
    pub fn fold_slabs(&self, acc: &mut SlabAccumulator) {
        for s in 0..self.slab_cpu_used.len() {
            acc.cpu_used += self.slab_cpu_used[s];
            acc.mem_used += self.slab_mem_used[s];
            acc.cpu_cap += self.slab_cpu_cap[s];
            acc.mem_cap += self.slab_mem_cap[s];
        }
    }
}

/// Running sums of the global slab fold.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct SlabAccumulator {
    /// Sum of mean CPU usage across all slabs.
    pub cpu_used: f64,
    /// Sum of mean memory usage across all slabs.
    pub mem_used: f64,
    /// Sum of schedulable CPU capacity.
    pub cpu_cap: f64,
    /// Sum of schedulable memory capacity.
    pub mem_cap: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn resident(pod: u32, amt: f64) -> Resident {
        Resident {
            pod,
            cpu_use: amt,
            mem_use: amt / 2.0,
            cpu_req: amt * 2.0,
            mem_req: amt,
            end: 100,
        }
    }

    #[test]
    fn add_remove_roundtrips_sums() {
        let mut t = NodeTable::new(128, 128 + 100);
        assert_eq!(t.local(130), 2);
        t.add_pod(2, resident(7, 0.25));
        t.add_pod(2, resident(8, 0.1));
        assert_eq!(t.residents[2].len(), 2);
        let mut acc = SlabAccumulator::default();
        t.fold_slabs(&mut acc);
        assert!((acc.cpu_used - 0.35).abs() < 1e-12);
        assert!((acc.cpu_cap - 100.0).abs() < 1e-12);
        t.remove_pod(2, 0);
        t.remove_pod(2, 0);
        let mut acc = SlabAccumulator::default();
        t.fold_slabs(&mut acc);
        assert!(acc.cpu_used.abs() < 1e-12);
        assert!(t.residents[2].is_empty());
    }

    #[test]
    fn lifecycle_moves_capacity() {
        let mut t = NodeTable::new(0, 10);
        t.set_state(3, STATE_DOWN);
        assert_eq!(t.unavailable, 1);
        let mut acc = SlabAccumulator::default();
        t.fold_slabs(&mut acc);
        assert!((acc.cpu_cap - 9.0).abs() < 1e-12);
        t.set_state(3, STATE_UP);
        assert_eq!(t.unavailable, 0);
        let mut acc = SlabAccumulator::default();
        t.fold_slabs(&mut acc);
        assert!((acc.cpu_cap - 10.0).abs() < 1e-12);
    }

    #[test]
    fn degrade_scales_capacity() {
        let mut t = NodeTable::new(0, 4);
        t.set_degrade(1, 0.5);
        let mut acc = SlabAccumulator::default();
        t.fold_slabs(&mut acc);
        assert!((acc.cpu_cap - 3.5).abs() < 1e-12);
        t.set_degrade(1, 1.0);
        let mut acc = SlabAccumulator::default();
        t.fold_slabs(&mut acc);
        assert!((acc.cpu_cap - 4.0).abs() < 1e-12);
    }
}
