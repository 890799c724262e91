use std::collections::BTreeMap;

use crate::{DirectedView, GraphError, NodeId, Orientation, UndirectedGraph};

/// The left-to-right plane embedding of the *initial* DAG used by the
/// paper's acyclicity proof (§4.2):
///
/// > "Since the input to the PR algorithm is a DAG, we can embed it in a
/// > plane, ensuring all edges are initially directed from left to right.
/// > Therefore, for each node u all edges associated with nodes in
/// > in-nbrs_u are to the left of u, and all nodes associated with edges in
/// > out-nbrs_u are to the right of u."
///
/// The embedding assigns every node an x-coordinate from a topological
/// order of the initial orientation. It is computed **once** from
/// `G'_init` and never changes, exactly like the paper's `in-nbrs`/`out-nbrs`
/// sets. Invariants 4.1 and 4.2 are phrased in terms of this left/right
/// relation.
///
/// ```
/// use lr_graph::{stream, PlaneEmbedding};
///
/// let inst = stream::chain_away(4).to_instance();
/// let emb = PlaneEmbedding::of_initial(&inst.graph, &inst.init).unwrap();
/// // In chain_away the destination n0 is leftmost and ids increase rightward.
/// for w in [(0, 1), (1, 2), (2, 3)] {
///     assert!(emb.is_left_of(w.0.into(), w.1.into()));
/// }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlaneEmbedding {
    x: BTreeMap<NodeId, usize>,
}

impl PlaneEmbedding {
    /// Computes an embedding from the initial orientation by topological
    /// sort, so that every initially-directed edge points left → right.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::ContainsCycle`] if the initial orientation is
    /// not acyclic (the paper's model requires `G'_init` to be a DAG).
    pub fn of_initial(graph: &UndirectedGraph, init: &Orientation) -> Result<Self, GraphError> {
        let view = DirectedView::new(graph, init);
        let order = view.topological_sort().ok_or(GraphError::ContainsCycle)?;
        let x = order.into_iter().enumerate().map(|(i, u)| (u, i)).collect();
        Ok(PlaneEmbedding { x })
    }

    /// The x-coordinate of a node, or `None` for unknown nodes.
    pub fn x(&self, u: NodeId) -> Option<usize> {
        self.x.get(&u).copied()
    }

    /// Returns `true` if `u` lies strictly to the left of `v`.
    ///
    /// # Panics
    ///
    /// Panics if either node is not part of the embedded graph; the
    /// embedding covers every node of the instance by construction.
    pub fn is_left_of(&self, u: NodeId, v: NodeId) -> bool {
        self.x[&u] < self.x[&v]
    }

    /// Returns `true` if the edge `{u, v}` (under `orientation`) is directed
    /// from left to right in this embedding.
    ///
    /// # Panics
    ///
    /// Panics if the edge is not oriented.
    pub fn left_to_right(&self, orientation: &Orientation, u: NodeId, v: NodeId) -> bool {
        let (l, r) = if self.is_left_of(u, v) {
            (u, v)
        } else {
            (v, u)
        };
        orientation.points_from_to(l, r)
    }

    /// The rightmost node among `nodes`.
    ///
    /// Returns `None` when `nodes` is empty. Used by the Theorem 4.3 cycle
    /// argument ("let v_i be the rightmost node of the cycle").
    pub fn rightmost(&self, nodes: &[NodeId]) -> Option<NodeId> {
        nodes.iter().copied().max_by_key(|&u| self.x[&u])
    }

    /// Number of embedded nodes.
    pub fn len(&self) -> usize {
        self.x.len()
    }

    /// Returns `true` if the embedding is empty.
    pub fn is_empty(&self) -> bool {
        self.x.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn diamond() -> (UndirectedGraph, Orientation) {
        // 0 -> 1 -> 3, 0 -> 2 -> 3
        let g = UndirectedGraph::from_edges(&[(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap();
        let o = Orientation::from_order(&g, &[n(0), n(1), n(2), n(3)]);
        (g, o)
    }

    #[test]
    fn initial_edges_point_left_to_right() {
        let (g, o) = diamond();
        let emb = PlaneEmbedding::of_initial(&g, &o).unwrap();
        for (u, v) in o.directed_edges() {
            assert!(emb.is_left_of(u, v), "{u} should be left of {v}");
            assert!(emb.left_to_right(&o, u, v));
        }
    }

    #[test]
    fn embedding_is_stable_under_reversals() {
        let (g, mut o) = diamond();
        let emb = PlaneEmbedding::of_initial(&g, &o).unwrap();
        o.reverse(n(1), n(3)).unwrap();
        // The embedding does not change; the reversed edge now points
        // right-to-left.
        assert!(!emb.left_to_right(&o, n(1), n(3)));
        assert!(emb.is_left_of(n(1), n(3)));
    }

    #[test]
    fn cyclic_initial_orientation_is_rejected() {
        let g = UndirectedGraph::from_edges(&[(0, 1), (1, 2), (0, 2)]).unwrap();
        let mut o = Orientation::new();
        o.set_from_to(n(0), n(1));
        o.set_from_to(n(1), n(2));
        o.set_from_to(n(2), n(0));
        assert_eq!(
            PlaneEmbedding::of_initial(&g, &o),
            Err(GraphError::ContainsCycle)
        );
    }

    #[test]
    fn rightmost_of_set() {
        let (g, o) = diamond();
        let emb = PlaneEmbedding::of_initial(&g, &o).unwrap();
        let rm = emb.rightmost(&[n(0), n(3), n(1)]).unwrap();
        assert_eq!(rm, n(3));
        assert_eq!(emb.rightmost(&[]), None);
    }

    #[test]
    fn len_and_is_empty() {
        let (g, o) = diamond();
        let emb = PlaneEmbedding::of_initial(&g, &o).unwrap();
        assert_eq!(emb.len(), 4);
        assert!(!emb.is_empty());
    }
}
