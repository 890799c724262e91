use std::sync::Arc;

use crate::{CsrGraph, GraphError, NodeId, Orientation};

/// A link-reversal problem instance: the communication graph `G`, the
/// initial acyclic orientation `G'_init`, and the destination node `D` —
/// exactly the inputs assumed by §2 of the paper.
///
/// The graph is a shared [`CsrGraph`] and the initial orientation one bit
/// per half-edge slot, so an instance costs about 8 bytes per half-edge
/// plus 8 per node, and every engine, automaton and protocol builds its
/// state from it without copying the graph. Instances never change during
/// an execution.
///
/// ```
/// use lr_graph::{NodeId, ReversalInstance};
///
/// // 0 → 1 → 2 with the destination at the far end.
/// let inst = ReversalInstance::from_edges(&[(0, 1), (1, 2)], NodeId::new(2)).unwrap();
/// assert_eq!(inst.node_count(), 3);
/// assert_eq!(inst.initial_bad_nodes(), 0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReversalInstance {
    init: Orientation,
    /// The destination node `D`, which never takes steps.
    pub dest: NodeId,
}

impl ReversalInstance {
    /// Builds and validates an instance from its directed edges `(tail,
    /// head)`; the nodes are the edges' endpoints, and any `u32` is a
    /// valid id.
    ///
    /// # Errors
    ///
    /// In this order:
    ///
    /// * [`GraphError::SelfLoop`] or [`GraphError::DuplicateEdge`] — for
    ///   the first arc that is a self-loop or repeats an earlier edge in
    ///   either direction;
    /// * [`GraphError::UnknownNode`] — `dest` is not an endpoint;
    /// * [`GraphError::Disconnected`] — the graph is not connected
    ///   (required for termination in a destination-oriented state);
    /// * [`GraphError::ContainsCycle`] — the orientation is not acyclic.
    pub fn from_edges(arcs: &[(u32, u32)], dest: NodeId) -> Result<Self, GraphError> {
        Self::new(Orientation::from_edges(arcs)?, dest)
    }

    /// Validates an orientation and destination as
    /// [`ReversalInstance::from_edges`] does after its arc checks.
    pub(crate) fn new(init: Orientation, dest: NodeId) -> Result<Self, GraphError> {
        if init.csr().index_of(dest).is_none() {
            return Err(GraphError::UnknownNode(dest));
        }
        if !init.csr().is_connected() {
            return Err(GraphError::Disconnected);
        }
        if !init.is_acyclic() {
            return Err(GraphError::ContainsCycle);
        }
        Ok(ReversalInstance { init, dest })
    }

    /// Wraps an orientation a generator built valid by construction
    /// (connected, acyclic, `dest` a node).
    pub(crate) fn from_valid(init: Orientation, dest: NodeId) -> Self {
        debug_assert!(init.csr().index_of(dest).is_some());
        ReversalInstance { init, dest }
    }

    /// A copy that shares no allocation with this instance: the graph is
    /// copied into a fresh [`Arc`]. A clone shares the graph, so every
    /// state built from either bumps one reference count; threads that
    /// work on the same instance each take a copy so they never write
    /// one count.
    pub fn deep_copy(&self) -> Self {
        let csr = Arc::new(CsrGraph::clone(self.csr()));
        ReversalInstance {
            init: Orientation::from_words(csr, self.init.words().to_vec()),
            dest: self.dest,
        }
    }

    /// The graph `G`.
    pub fn csr(&self) -> &Arc<CsrGraph> {
        self.init.csr()
    }

    /// The initial orientation `G'_init`.
    pub fn init(&self) -> &Orientation {
        &self.init
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.csr().node_count()
    }

    /// Number of half-edge slots (2 × the edge count).
    pub fn half_edge_count(&self) -> usize {
        self.csr().half_edge_count()
    }

    /// The initial in-neighbors `in-nbrs_u` of a node, ascending (fixed
    /// for the whole execution, per §2).
    pub fn initial_in_nbrs(&self, u: NodeId) -> Vec<NodeId> {
        self.initial_nbrs(u, false)
    }

    /// The initial out-neighbors `out-nbrs_u` of a node, ascending.
    pub fn initial_out_nbrs(&self, u: NodeId) -> Vec<NodeId> {
        self.initial_nbrs(u, true)
    }

    fn initial_nbrs(&self, u: NodeId, out: bool) -> Vec<NodeId> {
        let csr = self.csr();
        csr.index_of(u).map_or_else(Vec::new, |i| {
            csr.slots(i)
                .filter(|&slot| self.init.is_out(slot) == out)
                .map(|slot| csr.node(csr.target(slot)))
                .collect()
        })
    }

    /// Nodes that initially have no directed path to the destination
    /// (`n_b`, the "bad node" count of the Θ(n_b²) bound).
    pub fn initial_bad_nodes(&self) -> usize {
        self.init.bad_node_count(self.dest)
    }

    /// Resident size of the instance in bytes: the CSR arrays plus the
    /// packed orientation words.
    pub fn resident_bytes(&self) -> usize {
        self.csr().resident_bytes() + self.init.words().len() * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn valid_instance() -> ReversalInstance {
        ReversalInstance::from_edges(&[(0, 1), (1, 2), (0, 2)], n(2)).unwrap()
    }

    #[test]
    fn valid_instance_constructs() {
        let inst = valid_instance();
        assert_eq!(inst.node_count(), 3);
        assert_eq!(inst.half_edge_count(), 6);
        assert_eq!(inst.initial_bad_nodes(), 0);
    }

    #[test]
    fn validation_errors_come_in_order() {
        let from = |arcs: &[(u32, u32)], dest| ReversalInstance::from_edges(arcs, n(dest));
        // A duplicate beats an unknown destination, which beats
        // disconnection, which beats a cycle.
        assert_eq!(
            from(&[(0, 1), (2, 3), (1, 0)], 9),
            Err(GraphError::DuplicateEdge(n(1), n(0)))
        );
        assert_eq!(
            from(&[(0, 1), (2, 3)], 9),
            Err(GraphError::UnknownNode(n(9)))
        );
        let cyclic_and_split = [(0, 1), (1, 2), (2, 0), (3, 4)];
        assert_eq!(from(&cyclic_and_split, 0), Err(GraphError::Disconnected));
        assert_eq!(
            from(&cyclic_and_split[..3], 0),
            Err(GraphError::ContainsCycle)
        );
        assert_eq!(from(&[], 0), Err(GraphError::UnknownNode(n(0))));
    }

    #[test]
    fn initial_neighbor_sets() {
        let inst = valid_instance();
        assert_eq!(inst.initial_in_nbrs(n(2)), vec![n(0), n(1)]);
        assert_eq!(inst.initial_out_nbrs(n(0)), vec![n(1), n(2)]);
        assert_eq!(inst.initial_in_nbrs(n(0)), vec![]);
        assert_eq!(inst.initial_out_nbrs(n(9)), vec![]);
    }

    #[test]
    fn bad_node_count_counts_unreachable() {
        // 2 → 1 → 0: every node reaches 0, and only 2 reaches itself.
        let arcs = [(1, 0), (2, 1)];
        let inst = ReversalInstance::from_edges(&arcs, n(0)).unwrap();
        assert_eq!(inst.initial_bad_nodes(), 0);
        let inst = ReversalInstance::from_edges(&arcs, n(2)).unwrap();
        assert_eq!(inst.initial_bad_nodes(), 2);
    }

    #[test]
    fn a_deep_copy_equals_its_instance_and_shares_no_graph() {
        let inst = crate::stream::random_connected(12, 9, 4);
        let copy = inst.deep_copy();
        assert_eq!(copy, inst);
        assert_eq!(crate::parse::to_text(&copy), crate::parse::to_text(&inst));
        assert!(!Arc::ptr_eq(copy.csr(), inst.csr()));
        assert_ne!(copy.init().words().as_ptr(), inst.init().words().as_ptr());
        // A clone, by contrast, shares the graph.
        assert!(Arc::ptr_eq(inst.clone().csr(), inst.csr()));
    }

    #[test]
    fn resident_bytes_adds_the_orientation_words() {
        let inst = valid_instance();
        assert_eq!(inst.resident_bytes(), inst.csr().resident_bytes() + 8);
    }
}
