//! Physical host descriptors.

use crate::ids::NodeId;
use crate::resources::Resources;

/// Static description of a physical host.
///
/// Capacities are normalized: the standard host has `(1.0, 1.0)`.
/// Heterogeneous clusters can scale capacities per node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeSpec {
    /// Unique machine identifier.
    pub id: NodeId,
    /// CPU and memory capacity.
    pub capacity: Resources,
}

impl NodeSpec {
    /// A standard normalized host.
    pub fn standard(id: NodeId) -> NodeSpec {
        NodeSpec {
            id,
            capacity: Resources::UNIT,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_host_has_unit_capacity() {
        let n = NodeSpec::standard(NodeId(3));
        assert_eq!(n.capacity, Resources::UNIT);
        assert_eq!(n.id, NodeId(3));
    }
}
