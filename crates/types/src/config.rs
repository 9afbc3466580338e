//! Cluster-level configuration.

use crate::ids::NodeId;
use crate::node::NodeSpec;
use crate::resources::Resources;

/// Static configuration of a simulated cluster.
///
/// The paper's testbed emulates ~6,000 homogeneous hosts per cluster;
/// tests use much smaller clusters.
///
/// # Examples
///
/// ```
/// use optum_types::ClusterConfig;
///
/// let cluster = ClusterConfig::homogeneous(100);
/// assert_eq!(cluster.nodes().count(), 100);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterConfig {
    /// Number of physical hosts.
    pub node_count: usize,
    /// Capacity of each host (normalized).
    pub node_capacity: Resources,
    /// Memory-utilization guard: hosts whose predicted memory
    /// utilization exceeds this are removed from candidate lists to
    /// avoid OOM kills (§5.1 sets 0.8).
    pub memory_guard: f64,
}

impl ClusterConfig {
    /// A homogeneous cluster of standard hosts with the paper's 0.8
    /// memory guard.
    pub fn homogeneous(node_count: usize) -> ClusterConfig {
        ClusterConfig {
            node_count,
            node_capacity: Resources::UNIT,
            memory_guard: 0.8,
        }
    }

    /// Iterates the node specs of the cluster.
    pub fn nodes(&self) -> impl Iterator<Item = NodeSpec> + '_ {
        let cap = self.node_capacity;
        (0..self.node_count).map(move |i| NodeSpec {
            id: NodeId::from(i),
            capacity: cap,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn homogeneous_cluster_iterates_all_nodes() {
        let c = ClusterConfig::homogeneous(5);
        let nodes: Vec<_> = c.nodes().collect();
        assert_eq!(nodes.len(), 5);
        assert_eq!(nodes[4].id, NodeId(4));
        assert_eq!(nodes[0].capacity, Resources::UNIT);
        assert_eq!(c.memory_guard, 0.8);
    }
}
