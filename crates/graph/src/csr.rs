//! Compressed-sparse-row view of an [`UndirectedGraph`] — the flat
//! execution-side representation of the communication graph.
//!
//! The [`UndirectedGraph`] frontend stores adjacency in
//! `BTreeMap`/`BTreeSet` for deterministic construction, parsing, and
//! serialization, but every lookup on the run-loop hot path pays a
//! pointer-chasing logarithmic cost. `CsrGraph` is built **once** per
//! instance and never mutated afterwards (executions only re-orient
//! edges, they never change the graph), so all of it fits in three flat
//! arrays:
//!
//! * a sorted node table giving every [`NodeId`] a dense index in
//!   `0..n`;
//! * CSR offsets + neighbor array: the neighbors of node `i` occupy the
//!   contiguous **half-edge slots** `offsets[i]..offsets[i + 1]`, sorted
//!   by neighbor id;
//! * a twin table: the slot of the ordered pair `(u, v)` maps to the
//!   slot of `(v, u)` in O(1), so per-endpoint edge state (the paper's
//!   duplicated `dir[u, v]` variables) can live in one `Vec` indexed by
//!   slot.
//!
//! A slot's *source* (the owning node) is not stored — it is recovered
//! from `offsets` by binary search when needed, and the hot loops avoid
//! even that by iterating per-node slot ranges. All slot indices are
//! `u32`, so the representation costs 8 bytes per half-edge plus 8 bytes
//! per node; construction is checked against the `u32` capacity limit.
//!
//! Iteration orders (nodes ascending, neighbors ascending, edges
//! lexicographic) match the `BTreeMap` frontend exactly, so executions
//! driven through either representation are step-for-step identical.

use crate::{GraphError, NodeId, UndirectedGraph};

/// A compressed-sparse-row snapshot of an [`UndirectedGraph`] with
/// half-edge/twin indexing.
///
/// Each ordered pair of adjacent nodes `(u, v)` owns one **slot** — a
/// flat array index — and [`CsrGraph::twin`] maps the slot of `(u, v)`
/// to the slot of `(v, u)`.
///
/// ```
/// use lr_graph::{CsrGraph, NodeId, UndirectedGraph};
///
/// let g = UndirectedGraph::from_edges(&[(0, 1), (1, 2)]).unwrap();
/// let csr = CsrGraph::from_graph(&g);
/// assert_eq!(csr.node_count(), 3);
/// assert_eq!(csr.half_edge_count(), 4);
/// let one = csr.index_of(NodeId::new(1)).unwrap();
/// assert_eq!(csr.degree(one), 2);
/// for slot in csr.slots(one) {
///     assert_eq!(csr.source(slot), one);
///     assert_eq!(csr.twin(csr.twin(slot)), slot);
/// }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsrGraph {
    /// All nodes, ascending; position in this table is the dense index.
    nodes: Vec<NodeId>,
    /// Whether `nodes[i].raw() == i` for all `i` (the common case), which
    /// makes [`CsrGraph::index_of`] O(1) instead of a binary search.
    contiguous: bool,
    /// CSR offsets, length `n + 1`; node `i`'s slots are
    /// `offsets[i]..offsets[i + 1]`.
    offsets: Vec<u32>,
    /// Per-slot target node index, length `2m`.
    targets: Vec<u32>,
    /// Per-slot twin slot (slot of the reversed ordered pair).
    twins: Vec<u32>,
}

/// The maximum number of half-edge slots a [`CsrGraph`] can hold: every
/// slot index (and every offset) is a `u32`.
pub const MAX_HALF_EDGES: usize = u32::MAX as usize;

/// Checks a prospective half-edge count against [`MAX_HALF_EDGES`].
///
/// # Errors
///
/// Returns [`GraphError::SlotCapacity`] if `half_edges` does not fit the
/// `u32` slot-index space.
pub fn check_slot_capacity(half_edges: usize) -> Result<(), GraphError> {
    if half_edges > MAX_HALF_EDGES {
        return Err(GraphError::SlotCapacity(half_edges));
    }
    Ok(())
}

/// Computes the twin table for a sorted, symmetric CSR adjacency in
/// O(n + m): for a fixed node `v`, the slots targeting `v` appear in
/// global slot order exactly when their sources ascend — the same order
/// in which `v`'s own neighbor run lists them — so a single cursor per
/// node pairs every half-edge with its reverse without any searching.
///
/// # Panics
///
/// Panics if the adjacency is not symmetric (some `(u, v)` slot has no
/// `(v, u)` counterpart) — impossible for [`UndirectedGraph`] input,
/// and a generator bug when reached through [`CsrBuilder`].
fn twin_table(offsets: &[u32], targets: &[u32]) -> Vec<u32> {
    let n = offsets.len() - 1;
    let mut cursor: Vec<u32> = offsets[..n].to_vec();
    let mut twins = vec![0u32; targets.len()];
    for u in 0..n {
        for slot in offsets[u] as usize..offsets[u + 1] as usize {
            let v = targets[slot] as usize;
            let t = cursor[v];
            cursor[v] += 1;
            twins[slot] = t;
            // `t` must lie in v's slot range and target `u` — then it is
            // the unique slot of (v, u) and the pairing is fully
            // verified.
            assert!(
                t < offsets[v + 1] && targets[t as usize] as usize == u,
                "adjacency is not symmetric: slot {slot} (node {u} -> {v}) has no reverse half-edge"
            );
        }
    }
    twins
}

impl CsrGraph {
    /// Builds the CSR snapshot of `graph` in O(n + m).
    ///
    /// # Panics
    ///
    /// Panics if the graph exceeds [`MAX_HALF_EDGES`] half-edges; use
    /// [`CsrGraph::try_from_graph`] to handle that case as an error.
    pub fn from_graph(graph: &UndirectedGraph) -> Self {
        Self::try_from_graph(graph).expect("graph fits the u32 slot-index capacity")
    }

    /// Builds the CSR snapshot of `graph`, checking the `u32` slot-index
    /// capacity. O(n + m).
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::SlotCapacity`] if the graph has more than
    /// [`MAX_HALF_EDGES`] half-edges, or [`GraphError::UnknownNode`] if
    /// an adjacency list names a node missing from the node set (which
    /// [`UndirectedGraph`] never produces).
    pub fn try_from_graph(graph: &UndirectedGraph) -> Result<Self, GraphError> {
        check_slot_capacity(2 * graph.edge_count())?;
        let nodes: Vec<NodeId> = graph.nodes().collect();
        let contiguous = nodes.iter().enumerate().all(|(i, u)| u.raw() as usize == i);
        let mut offsets = Vec::with_capacity(nodes.len() + 1);
        let mut targets = Vec::with_capacity(2 * graph.edge_count());
        offsets.push(0u32);
        for &u in &nodes {
            for v in graph.neighbors(u) {
                let vi = if contiguous {
                    v.raw()
                } else {
                    nodes
                        .binary_search(&v)
                        .map_err(|_| GraphError::UnknownNode(v))? as u32
                };
                targets.push(vi);
            }
            offsets.push(targets.len() as u32);
        }
        let twins = twin_table(&offsets, &targets);
        Ok(CsrGraph {
            nodes,
            contiguous,
            offsets,
            targets,
            twins,
        })
    }

    /// Builds a contiguous-id CSR directly from prepared offset/target
    /// arrays whose neighbor runs are already strictly ascending — the
    /// scatter-pass back door for streaming generators that cannot emit
    /// node-by-node (layered DAGs, random graphs).
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::SlotCapacity`] if `targets` exceeds
    /// [`MAX_HALF_EDGES`] entries.
    ///
    /// # Panics
    ///
    /// Panics on malformed arrays (unsorted or out-of-range runs,
    /// asymmetric adjacency) — generator bugs, not runtime conditions.
    pub(crate) fn from_sorted_adjacency(
        offsets: Vec<u32>,
        targets: Vec<u32>,
    ) -> Result<Self, GraphError> {
        check_slot_capacity(targets.len())?;
        let n = offsets.len() - 1;
        assert_eq!(
            *offsets.last().expect("offsets nonempty") as usize,
            targets.len()
        );
        for u in 0..n {
            let run = &targets[offsets[u] as usize..offsets[u + 1] as usize];
            assert!(
                run.windows(2).all(|w| w[0] < w[1]),
                "neighbors of node index {u} must be strictly ascending"
            );
            assert!(
                run.iter().all(|&v| (v as usize) < n && v as usize != u),
                "neighbor run of node index {u} is out of range or self-looping"
            );
        }
        let twins = twin_table(&offsets, &targets);
        Ok(CsrGraph {
            nodes: (0..n as u32).map(NodeId::new).collect(),
            contiguous: true,
            offsets,
            targets,
            twins,
        })
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of half-edge slots (= 2 × edge count).
    pub fn half_edge_count(&self) -> usize {
        self.targets.len()
    }

    /// Number of undirected edges.
    pub fn edge_count(&self) -> usize {
        self.targets.len() / 2
    }

    /// All nodes in ascending id order (dense-index order).
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes.iter().copied()
    }

    /// The node at dense index `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= node_count()`.
    pub fn node(&self, idx: usize) -> NodeId {
        self.nodes[idx]
    }

    /// The dense index of `u`, or `None` if `u` is not a node.
    pub fn index_of(&self, u: NodeId) -> Option<usize> {
        if self.contiguous {
            let i = u.raw() as usize;
            (i < self.nodes.len()).then_some(i)
        } else {
            self.nodes.binary_search(&u).ok()
        }
    }

    /// Degree of the node at dense index `idx`.
    pub fn degree(&self, idx: usize) -> usize {
        (self.offsets[idx + 1] - self.offsets[idx]) as usize
    }

    /// The half-edge slots owned by the node at dense index `idx`.
    pub fn slots(&self, idx: usize) -> std::ops::Range<usize> {
        self.offsets[idx] as usize..self.offsets[idx + 1] as usize
    }

    /// Dense indices of the neighbors of node `idx`, ascending; entry `k`
    /// corresponds to slot `slots(idx).start + k`.
    pub fn neighbor_indices(&self, idx: usize) -> &[u32] {
        &self.targets[self.slots(idx)]
    }

    /// The dense index of the slot's target (the neighbor).
    pub fn target(&self, slot: usize) -> usize {
        self.targets[slot] as usize
    }

    /// The dense index of the slot's source (the owning node), recovered
    /// from the offset table in O(log n). Hot loops should instead
    /// iterate [`CsrGraph::slots`] per node, where the source is the loop
    /// variable.
    pub fn source(&self, slot: usize) -> usize {
        debug_assert!(slot < self.targets.len(), "slot {slot} out of range");
        // Number of offsets ≤ slot, minus one: degree-0 nodes share an
        // offset with their successor, and the predicate being `<=`
        // resolves the tie to the *last* node starting at that offset —
        // the one that actually owns the slot.
        self.offsets.partition_point(|&o| o as usize <= slot) - 1
    }

    /// The slot of the reversed ordered pair: `twin(slot of (u, v))` is
    /// the slot of `(v, u)`.
    pub fn twin(&self, slot: usize) -> usize {
        self.twins[slot] as usize
    }

    /// The slot of the ordered pair `(u, v)` given both dense indices, or
    /// `None` if `{u, v}` is not an edge. O(log Δ).
    pub fn slot_of(&self, u_idx: usize, v_idx: usize) -> Option<usize> {
        let range = self.slots(u_idx);
        let rel = self.targets[range.clone()]
            .binary_search(&(v_idx as u32))
            .ok()?;
        Some(range.start + rel)
    }

    /// Resident size of the CSR arrays in bytes — the representation
    /// cost tracked by the scale benchmarks.
    pub fn resident_bytes(&self) -> usize {
        self.nodes.len() * std::mem::size_of::<NodeId>()
            + self.offsets.len() * 4
            + self.targets.len() * 4
            + self.twins.len() * 4
    }
}

/// Streaming CSR construction for generators that know their adjacency
/// without materializing an edge list: nodes are pushed in dense-index
/// order (ids `0..n`, contiguous), each with its ascending neighbor run,
/// and [`CsrBuilder::finish`] derives the twin table in O(n + m).
///
/// ```
/// use lr_graph::CsrBuilder;
///
/// // The 3-node chain 0 — 1 — 2.
/// let mut b = CsrBuilder::with_capacity(3, 4);
/// b.push_node(&[1]);
/// b.push_node(&[0, 2]);
/// b.push_node(&[1]);
/// let csr = b.finish().unwrap();
/// assert_eq!(csr.half_edge_count(), 4);
/// assert_eq!(csr.twin(0), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct CsrBuilder {
    offsets: Vec<u32>,
    targets: Vec<u32>,
    overflow: bool,
}

impl CsrBuilder {
    /// Creates a builder with preallocated space for `nodes` nodes and
    /// `half_edges` half-edge slots.
    pub fn with_capacity(nodes: usize, half_edges: usize) -> Self {
        let mut offsets = Vec::with_capacity(nodes + 1);
        offsets.push(0u32);
        CsrBuilder {
            offsets,
            targets: Vec::with_capacity(half_edges.min(MAX_HALF_EDGES)),
            overflow: false,
        }
    }

    /// Appends the next node (dense index `self.node_count()`) with its
    /// neighbor run, which must be strictly ascending.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-order or self-looping neighbor.
    pub fn push_node(&mut self, neighbors: &[u32]) {
        let me = (self.offsets.len() - 1) as u32;
        let mut prev: Option<u32> = None;
        for &v in neighbors {
            assert_ne!(v, me, "self-loop at node index {me}");
            assert!(
                prev.is_none_or(|p| p < v),
                "neighbors of node index {me} must be strictly ascending"
            );
            prev = Some(v);
            if self.targets.len() >= MAX_HALF_EDGES {
                self.overflow = true;
            } else {
                self.targets.push(v);
            }
        }
        self.offsets.push(self.targets.len() as u32);
    }

    /// Number of nodes pushed so far.
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of half-edge slots pushed so far.
    pub fn half_edge_count(&self) -> usize {
        self.targets.len()
    }

    /// Finalizes the graph: computes the twin table and wraps the arrays
    /// in a contiguous-id [`CsrGraph`].
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::SlotCapacity`] if more than
    /// [`MAX_HALF_EDGES`] half-edges were pushed.
    ///
    /// # Panics
    ///
    /// Panics if a neighbor index is out of range or the adjacency is
    /// not symmetric — generator bugs, not runtime conditions.
    pub fn finish(self) -> Result<CsrGraph, GraphError> {
        if self.overflow {
            return Err(GraphError::SlotCapacity(MAX_HALF_EDGES + 1));
        }
        let n = self.offsets.len() - 1;
        if let Some(&bad) = self.targets.iter().find(|&&v| v as usize >= n) {
            panic!("neighbor index {bad} out of range for {n} nodes");
        }
        let twins = twin_table(&self.offsets, &self.targets);
        Ok(CsrGraph {
            nodes: (0..n as u32).map(NodeId::new).collect(),
            contiguous: true,
            offsets: self.offsets,
            targets: self.targets,
            twins,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn mirrors_btreemap_adjacency_exactly() {
        let g = UndirectedGraph::from_edges(&[(0, 1), (1, 2), (0, 2), (2, 3)]).unwrap();
        let csr = CsrGraph::from_graph(&g);
        assert_eq!(csr.node_count(), g.node_count());
        assert_eq!(csr.half_edge_count(), 2 * g.edge_count());
        for (i, u) in g.nodes().enumerate() {
            assert_eq!(csr.node(i), u);
            assert_eq!(csr.index_of(u), Some(i));
            assert_eq!(csr.degree(i), g.degree(u));
            let nbrs: Vec<NodeId> = csr
                .neighbor_indices(i)
                .iter()
                .map(|&j| csr.node(j as usize))
                .collect();
            let expected: Vec<NodeId> = g.neighbors(u).collect();
            assert_eq!(nbrs, expected, "neighbor order must match the frontend");
        }
    }

    #[test]
    fn twin_is_an_involution_crossing_the_edge() {
        let g = UndirectedGraph::from_edges(&[(0, 1), (1, 2), (0, 2), (1, 3)]).unwrap();
        let csr = CsrGraph::from_graph(&g);
        for slot in 0..csr.half_edge_count() {
            let t = csr.twin(slot);
            assert_ne!(t, slot);
            assert_eq!(csr.twin(t), slot, "twin must be an involution");
            assert_eq!(csr.source(t), csr.target(slot));
            assert_eq!(csr.target(t), csr.source(slot));
        }
    }

    #[test]
    fn source_recovers_the_owning_node_for_every_slot() {
        // Includes a degree-0 node (index 3 in 0,1,2,3,4 with edges
        // avoiding 3) so the offset tie-break is exercised.
        let mut g = UndirectedGraph::with_nodes(5);
        g.add_edge(n(0), n(1)).unwrap();
        g.add_edge(n(1), n(2)).unwrap();
        g.add_edge(n(2), n(4)).unwrap();
        let csr = CsrGraph::from_graph(&g);
        for idx in 0..csr.node_count() {
            for slot in csr.slots(idx) {
                assert_eq!(csr.source(slot), idx, "slot {slot}");
            }
        }
    }

    #[test]
    fn slot_of_finds_every_ordered_pair() {
        let g = UndirectedGraph::from_edges(&[(0, 1), (1, 2)]).unwrap();
        let csr = CsrGraph::from_graph(&g);
        for (u, v) in g.edges() {
            let (ui, vi) = (csr.index_of(u).unwrap(), csr.index_of(v).unwrap());
            let s = csr.slot_of(ui, vi).expect("edge has a slot");
            assert_eq!(csr.source(s), ui);
            assert_eq!(csr.target(s), vi);
            assert_eq!(csr.twin(s), csr.slot_of(vi, ui).unwrap());
        }
        assert_eq!(csr.slot_of(0, 2), None, "{{0, 2}} is not an edge");
    }

    #[test]
    fn non_contiguous_ids_fall_back_to_binary_search() {
        let mut g = UndirectedGraph::new();
        g.ensure_node(n(5));
        g.ensure_node(n(9));
        g.ensure_node(n(200));
        g.add_edge(n(5), n(200)).unwrap();
        g.add_edge(n(9), n(200)).unwrap();
        let csr = CsrGraph::from_graph(&g);
        assert_eq!(csr.index_of(n(5)), Some(0));
        assert_eq!(csr.index_of(n(9)), Some(1));
        assert_eq!(csr.index_of(n(200)), Some(2));
        assert_eq!(csr.index_of(n(6)), None);
        assert_eq!(csr.degree(2), 2);
        let s = csr.slot_of(0, 2).unwrap();
        assert_eq!(csr.node(csr.target(s)), n(200));
        for idx in 0..csr.node_count() {
            for slot in csr.slots(idx) {
                assert_eq!(csr.source(slot), idx);
            }
        }
    }

    #[test]
    fn isolated_nodes_have_empty_slot_ranges() {
        let mut g = UndirectedGraph::with_nodes(3);
        g.add_edge(n(0), n(1)).unwrap();
        let csr = CsrGraph::from_graph(&g);
        assert_eq!(csr.degree(2), 0);
        assert!(csr.slots(2).is_empty());
        assert!(csr.neighbor_indices(2).is_empty());
    }

    #[test]
    fn builder_matches_from_graph_on_a_small_graph() {
        let g = UndirectedGraph::from_edges(&[(0, 1), (1, 2), (0, 2), (2, 3)]).unwrap();
        let reference = CsrGraph::from_graph(&g);
        let mut b = CsrBuilder::with_capacity(4, 8);
        b.push_node(&[1, 2]);
        b.push_node(&[0, 2]);
        b.push_node(&[0, 1, 3]);
        b.push_node(&[2]);
        assert_eq!(b.node_count(), 4);
        assert_eq!(b.half_edge_count(), 8);
        let built = b.finish().unwrap();
        assert_eq!(built, reference);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn builder_rejects_out_of_order_neighbors() {
        let mut b = CsrBuilder::with_capacity(3, 4);
        b.push_node(&[2, 1]);
    }

    #[test]
    #[should_panic(expected = "not symmetric")]
    fn builder_rejects_asymmetric_adjacency() {
        let mut b = CsrBuilder::with_capacity(2, 2);
        b.push_node(&[1]);
        b.push_node(&[]);
        let _ = b.finish();
    }

    #[test]
    fn capacity_check_rejects_oversized_slot_counts() {
        assert!(check_slot_capacity(MAX_HALF_EDGES).is_ok());
        assert_eq!(
            check_slot_capacity(MAX_HALF_EDGES + 1),
            Err(GraphError::SlotCapacity(MAX_HALF_EDGES + 1))
        );
    }

    #[test]
    fn resident_bytes_counts_the_flat_arrays() {
        let g = UndirectedGraph::from_edges(&[(0, 1), (1, 2)]).unwrap();
        let csr = CsrGraph::from_graph(&g);
        // 3 nodes × 4 + 4 offsets × 4 + 4 targets × 4 + 4 twins × 4.
        assert_eq!(csr.resident_bytes(), 12 + 16 + 16 + 16);
    }
}
