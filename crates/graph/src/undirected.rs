use std::collections::{BTreeMap, BTreeSet, VecDeque};

use serde::{Deserialize, Serialize};

use crate::{GraphError, NodeId};

/// An undirected simple graph `G = (V, E)`.
///
/// This is the fixed communication graph of the system model (§2 of the
/// paper): link-reversal executions never add or remove nodes or edges, they
/// only re-orient the existing edges via an [`Orientation`](crate::Orientation).
///
/// Adjacency is stored in [`BTreeMap`]/[`BTreeSet`] so that all iteration
/// orders are deterministic — important for reproducible executions and
/// model checking.
///
/// ```
/// use lr_graph::{NodeId, UndirectedGraph};
///
/// let mut g = UndirectedGraph::new();
/// let a = g.add_node();
/// let b = g.add_node();
/// let c = g.add_node();
/// g.add_edge(a, b).unwrap();
/// g.add_edge(b, c).unwrap();
/// assert_eq!(g.node_count(), 3);
/// assert_eq!(g.edge_count(), 2);
/// assert_eq!(g.degree(b), 2);
/// assert!(g.is_connected());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct UndirectedGraph {
    adj: BTreeMap<NodeId, BTreeSet<NodeId>>,
}

impl UndirectedGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a graph with `n` nodes, identified `0..n`, and no edges.
    pub fn with_nodes(n: usize) -> Self {
        let mut g = Self::new();
        for _ in 0..n {
            g.add_node();
        }
        g
    }

    /// Builds a graph from an edge list, creating nodes as needed.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::SelfLoop`] or [`GraphError::DuplicateEdge`] if
    /// the edge list is not a simple graph.
    ///
    /// ```
    /// use lr_graph::UndirectedGraph;
    /// let g = UndirectedGraph::from_edges(&[(0, 1), (1, 2), (2, 0)]).unwrap();
    /// assert_eq!(g.edge_count(), 3);
    /// ```
    pub fn from_edges(edges: &[(u32, u32)]) -> Result<Self, GraphError> {
        let mut g = Self::new();
        for &(u, v) in edges {
            let (u, v) = (NodeId::new(u), NodeId::new(v));
            g.ensure_node(u);
            g.ensure_node(v);
            g.add_edge(u, v)?;
        }
        Ok(g)
    }

    /// Adds a fresh node, one past the largest id so far, and returns its
    /// identifier.
    ///
    /// # Panics
    ///
    /// Panics if node `u32::MAX` already exists (the id space is
    /// exhausted).
    pub fn add_node(&mut self) -> NodeId {
        let id = match self.adj.last_key_value() {
            None => 0,
            Some((last, _)) => last.raw().checked_add(1).expect("node ids exhausted"),
        };
        let id = NodeId::new(id);
        self.adj.insert(id, BTreeSet::new());
        id
    }

    /// Ensures a node with the given identifier exists.
    pub fn ensure_node(&mut self, id: NodeId) {
        self.adj.entry(id).or_default();
    }

    /// Adds the undirected edge `{u, v}`.
    ///
    /// # Errors
    ///
    /// Returns an error if `u == v`, either endpoint is unknown, or the edge
    /// already exists.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) -> Result<(), GraphError> {
        if u == v {
            return Err(GraphError::SelfLoop(u));
        }
        if !self.adj.contains_key(&u) {
            return Err(GraphError::UnknownNode(u));
        }
        if !self.adj.contains_key(&v) {
            return Err(GraphError::UnknownNode(v));
        }
        if self.adj[&u].contains(&v) {
            return Err(GraphError::DuplicateEdge(u, v));
        }
        self.adj.get_mut(&u).expect("checked").insert(v);
        self.adj.get_mut(&v).expect("checked").insert(u);
        Ok(())
    }

    /// Returns `true` if the node is present.
    pub fn contains_node(&self, u: NodeId) -> bool {
        self.adj.contains_key(&u)
    }

    /// Returns `true` if the edge `{u, v}` is present.
    pub fn contains_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.adj.get(&u).is_some_and(|s| s.contains(&v))
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.adj.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.adj.values().map(BTreeSet::len).sum::<usize>() / 2
    }

    /// Iterates over all nodes in ascending id order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.adj.keys().copied()
    }

    /// Iterates over all edges as canonical pairs `(u, v)` with `u < v`,
    /// in lexicographic order.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.adj.iter().flat_map(|(&u, nbrs)| {
            nbrs.iter()
                .copied()
                .filter(move |&v| u < v)
                .map(move |v| (u, v))
        })
    }

    /// The neighbor set `nbrs_u` of a node (empty if the node is unknown).
    pub fn neighbors(&self, u: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.adj.get(&u).into_iter().flatten().copied()
    }

    /// The neighbor set of `u` as a [`BTreeSet`].
    pub fn neighbor_set(&self, u: NodeId) -> BTreeSet<NodeId> {
        self.adj.get(&u).cloned().unwrap_or_default()
    }

    /// Degree of a node (0 if unknown).
    pub fn degree(&self, u: NodeId) -> usize {
        self.adj.get(&u).map_or(0, BTreeSet::len)
    }

    /// Returns `true` if the graph is connected (the empty graph counts as
    /// connected).
    pub fn is_connected(&self) -> bool {
        let Some(&start) = self.adj.keys().next() else {
            return true;
        };
        let mut seen = BTreeSet::new();
        let mut queue = VecDeque::new();
        seen.insert(start);
        queue.push_back(start);
        while let Some(u) = queue.pop_front() {
            for v in self.neighbors(u) {
                if seen.insert(v) {
                    queue.push_back(v);
                }
            }
        }
        seen.len() == self.adj.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(n: u32) -> UndirectedGraph {
        let edges: Vec<(u32, u32)> = (0..n.saturating_sub(1)).map(|i| (i, i + 1)).collect();
        UndirectedGraph::from_edges(&edges).unwrap()
    }

    #[test]
    fn empty_graph() {
        let g = UndirectedGraph::new();
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edge_count(), 0);
        assert!(g.is_connected());
    }

    #[test]
    fn with_nodes_assigns_contiguous_ids() {
        let g = UndirectedGraph::with_nodes(4);
        let ids: Vec<u32> = g.nodes().map(NodeId::raw).collect();
        assert_eq!(ids, vec![0, 1, 2, 3]);
    }

    #[test]
    fn add_edge_rejects_self_loop() {
        let mut g = UndirectedGraph::with_nodes(2);
        let a = NodeId::new(0);
        assert_eq!(g.add_edge(a, a), Err(GraphError::SelfLoop(a)));
    }

    #[test]
    fn add_edge_rejects_duplicates_both_orders() {
        let mut g = UndirectedGraph::with_nodes(2);
        let (a, b) = (NodeId::new(0), NodeId::new(1));
        g.add_edge(a, b).unwrap();
        assert_eq!(g.add_edge(a, b), Err(GraphError::DuplicateEdge(a, b)));
        assert_eq!(g.add_edge(b, a), Err(GraphError::DuplicateEdge(b, a)));
    }

    #[test]
    fn add_edge_rejects_unknown_nodes() {
        let mut g = UndirectedGraph::with_nodes(1);
        let (a, x) = (NodeId::new(0), NodeId::new(9));
        assert_eq!(g.add_edge(a, x), Err(GraphError::UnknownNode(x)));
        assert_eq!(g.add_edge(x, a), Err(GraphError::UnknownNode(x)));
    }

    #[test]
    fn edges_are_canonical_and_sorted() {
        let g = UndirectedGraph::from_edges(&[(2, 1), (0, 2), (0, 1)]).unwrap();
        let e: Vec<(u32, u32)> = g.edges().map(|(u, v)| (u.raw(), v.raw())).collect();
        assert_eq!(e, vec![(0, 1), (0, 2), (1, 2)]);
    }

    #[test]
    fn neighbors_and_degree() {
        let g = path(3);
        let b = NodeId::new(1);
        let nbrs: Vec<u32> = g.neighbors(b).map(NodeId::raw).collect();
        assert_eq!(nbrs, vec![0, 2]);
        assert_eq!(g.degree(b), 2);
        assert_eq!(g.degree(NodeId::new(0)), 1);
        assert_eq!(g.degree(NodeId::new(99)), 0);
    }

    #[test]
    fn connectivity() {
        assert!(path(5).is_connected());
        let mut g = path(3);
        let d = g.add_node();
        assert!(!g.is_connected());
        g.add_edge(NodeId::new(2), d).unwrap();
        assert!(g.is_connected());
    }

    #[test]
    fn ensure_node_is_idempotent_and_bumps_ids() {
        let mut g = UndirectedGraph::new();
        g.ensure_node(NodeId::new(5));
        g.ensure_node(NodeId::new(5));
        assert_eq!(g.node_count(), 1);
        let fresh = g.add_node();
        assert_eq!(fresh.raw(), 6);
        // The largest id is a node like any other.
        g.ensure_node(NodeId::new(u32::MAX));
        assert_eq!(g.node_count(), 3);
    }

    #[test]
    #[should_panic(expected = "node ids exhausted")]
    fn add_node_after_the_largest_id_panics() {
        let mut g = UndirectedGraph::new();
        g.ensure_node(NodeId::new(u32::MAX));
        g.add_node();
    }

    #[test]
    fn serde_round_trip() {
        let g = path(4);
        let json = serde_json::to_string(&g).unwrap();
        let back: UndirectedGraph = serde_json::from_str(&json).unwrap();
        assert_eq!(back, g);
    }
}
