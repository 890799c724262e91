//! The compressed-sparse-row communication graph `G = (V, E)` of §2,
//! the one graph representation every instance, engine, simulator and
//! analysis runs on. Executions only re-orient edges, so a graph is built
//! **once** into flat arrays:
//!
//! * a sorted node table giving every [`NodeId`] a dense index in `0..n`;
//! * CSR offsets + neighbor array: the neighbors of node `i` occupy the
//!   contiguous **half-edge slots** `offsets[i]..offsets[i + 1]`, sorted
//!   by neighbor id, so edges come in lexicographic `(min, max)` order;
//! * a twin table mapping the slot of `(u, v)` to the slot of `(v, u)`,
//!   so per-endpoint edge state (the paper's duplicated `dir[u, v]`) can
//!   live in one `Vec` indexed by slot.
//!
//! All slot indices are `u32`: 8 bytes per half-edge plus 8 per node,
//! with construction checked against the `u32` capacity limit.

use crate::orientation::bit_set;
use crate::{GraphError, NodeId};

/// An undirected simple graph in compressed-sparse-row form with
/// half-edge/twin indexing.
///
/// Each ordered pair of adjacent nodes `(u, v)` owns one **slot** — a
/// flat array index — and [`CsrGraph::twin`] maps the slot of `(u, v)`
/// to the slot of `(v, u)`.
///
/// ```
/// use lr_graph::{NodeId, ReversalInstance};
///
/// let inst = ReversalInstance::from_edges(&[(0, 1), (1, 2)], NodeId::new(0)).unwrap();
/// let csr = inst.csr();
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
/// `(v, u)` counterpart) — impossible for an arc list, and a generator
/// bug when reached through [`CsrBuilder`].
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

/// Builds the CSR of the graph whose edges are `arcs` (each `(tail,
/// head)`, ids any `u32`), with every arc's direction as a slot bit (set
/// ⟺ the slot's edge points out of its owner). The
/// nodes are the arcs' endpoints, ascending. Each node's run is ordered
/// by neighbour, which the scatter already produces for arcs listed in
/// canonical edge order; other runs are sorted.
///
/// # Errors
///
/// [`GraphError::SlotCapacity`] for more than [`MAX_HALF_EDGES`]
/// half-edges; otherwise, for the first arc in input order that is a
/// self-loop or repeats an earlier edge (in either direction),
/// [`GraphError::SelfLoop`] or [`GraphError::DuplicateEdge`] naming it
/// as given.
pub(crate) fn from_arcs(arcs: &[(u32, u32)]) -> Result<(CsrGraph, Vec<u64>), GraphError> {
    check_slot_capacity(arcs.len().saturating_mul(2))?;
    let mut nodes: Vec<u32> = arcs.iter().flat_map(|&(u, v)| [u, v]).collect();
    nodes.sort_unstable();
    nodes.dedup();
    let n = nodes.len();
    let contiguous = nodes.last().is_none_or(|&last| last as usize + 1 == n);
    let index = |u: u32| -> usize {
        if contiguous {
            u as usize
        } else {
            nodes.binary_search(&u).expect("every endpoint is a node")
        }
    };
    let mut offsets = vec![0u32; n + 1];
    for &(u, v) in arcs {
        offsets[index(u) + 1] += 1;
        offsets[index(v) + 1] += 1;
    }
    for i in 0..n {
        offsets[i + 1] += offsets[i];
    }
    // One key per half-edge: the target above the out bit (bit 31) and
    // the arc's index (below 2^31, by the capacity check).
    const OUT: u64 = 1 << 31;
    let mut cursor: Vec<u32> = offsets[..n].to_vec();
    let mut keys = vec![0u64; 2 * arcs.len()];
    for (k, &(u, v)) in arcs.iter().enumerate() {
        let (ui, vi) = (index(u), index(v));
        keys[cursor[ui] as usize] = (vi as u64) << 32 | OUT | k as u64;
        cursor[ui] += 1;
        keys[cursor[vi] as usize] = (ui as u64) << 32 | k as u64;
        cursor[vi] += 1;
    }
    drop(cursor);
    // The first offending arc: a self-loop, or the second arc of some
    // edge (the smallest arc index after a group's first).
    let mut first_bad = arcs.iter().position(|&(u, v)| u == v);
    for u in 0..n {
        let run = &mut keys[offsets[u] as usize..offsets[u + 1] as usize];
        if !run.is_sorted() {
            run.sort_unstable();
        }
        for group in run.chunk_by(|a, b| a >> 32 == b >> 32) {
            let arc = |key: &u64| (key & (OUT - 1)) as usize;
            let first = group.iter().map(arc).min().expect("a nonempty group");
            if let Some(second) = group.iter().map(arc).filter(|&k| k != first).min() {
                first_bad = Some(first_bad.map_or(second, |b| b.min(second)));
            }
        }
    }
    if let Some(k) = first_bad {
        let (u, v) = (NodeId::new(arcs[k].0), NodeId::new(arcs[k].1));
        return Err(if u == v {
            GraphError::SelfLoop(u)
        } else {
            GraphError::DuplicateEdge(u, v)
        });
    }
    let mut out = vec![0u64; keys.len().div_ceil(64)];
    let targets: Vec<u32> = keys
        .iter()
        .enumerate()
        .map(|(slot, &key)| {
            if key & OUT != 0 {
                bit_set(&mut out, slot);
            }
            (key >> 32) as u32
        })
        .collect();
    drop(keys);
    let twins = twin_table(&offsets, &targets);
    let csr = CsrGraph {
        nodes: nodes.into_iter().map(NodeId::new).collect(),
        contiguous,
        offsets,
        targets,
        twins,
    };
    Ok((csr, out))
}

impl CsrGraph {
    /// Builds a contiguous-id CSR from offset/target arrays whose
    /// neighbor runs are already strictly ascending: the end of
    /// [`CsrBuilder`] and of the scatter-pass generators.
    ///
    /// # Errors
    ///
    /// [`GraphError::SlotCapacity`] past [`MAX_HALF_EDGES`] entries.
    ///
    /// # Panics
    ///
    /// On malformed arrays (unsorted, out-of-range or asymmetric runs) —
    /// generator bugs, not runtime conditions.
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

    /// The node at dense index `idx`: on a contiguous graph the index
    /// itself, without reading the node table.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= node_count()`.
    pub fn node(&self, idx: usize) -> NodeId {
        if self.contiguous {
            assert!(
                idx < self.nodes.len(),
                "node index {idx} out of range for {} nodes",
                self.nodes.len()
            );
            NodeId::new(idx as u32)
        } else {
            self.nodes[idx]
        }
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

    /// The neighbors of `u`, ascending (none if `u` is not a node).
    pub fn neighbors(&self, u: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        let run = self
            .index_of(u)
            .map_or(&[][..], |i| self.neighbor_indices(i));
        run.iter().map(|&v| self.node(v as usize))
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

    /// Returns `true` if the graph is connected (the empty graph counts
    /// as connected).
    pub fn is_connected(&self) -> bool {
        let mut seen = vec![false; self.node_count()];
        let mut stack: Vec<usize> = (!seen.is_empty()).then_some(0).into_iter().collect();
        while let Some(u) = stack.pop() {
            if !std::mem::replace(&mut seen[u], true) {
                stack.extend(self.neighbor_indices(u).iter().map(|&v| v as usize));
            }
        }
        seen.iter().all(|&s| s)
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
        CsrGraph::from_sorted_adjacency(self.offsets, self.targets)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn built(arcs: &[(u32, u32)]) -> CsrGraph {
        from_arcs(arcs).unwrap().0
    }

    #[test]
    fn arcs_build_ascending_runs_and_slot_bits() {
        // Arcs out of canonical order, so some runs need the sort.
        let (csr, out) = from_arcs(&[(2, 1), (0, 2), (1, 0), (3, 2)]).unwrap();
        assert_eq!(csr.node_count(), 4);
        assert_eq!(csr.half_edge_count(), 8);
        let runs: Vec<&[u32]> = (0..4).map(|i| csr.neighbor_indices(i)).collect();
        assert_eq!(runs, [&[1, 2][..], &[0, 2], &[0, 1, 3], &[2]]);
        // Slot bit set ⟺ the arc leaves the slot's owner.
        let out_slots: Vec<(usize, usize)> = (0..8)
            .filter(|&s| out[0] >> s & 1 == 1)
            .map(|s| (csr.source(s), csr.target(s)))
            .collect();
        assert_eq!(out_slots, vec![(0, 2), (1, 0), (2, 1), (3, 2)]);
    }

    #[test]
    fn arcs_report_the_first_offending_arc_in_input_order() {
        let err = |arcs: &[(u32, u32)]| from_arcs(arcs).err();
        assert_eq!(
            err(&[(0, 1), (1, 0)]),
            Some(GraphError::DuplicateEdge(n(1), n(0)))
        );
        assert_eq!(
            err(&[(0, 1), (2, 2), (1, 0)]),
            Some(GraphError::SelfLoop(n(2)))
        );
        assert_eq!(
            err(&[(0, 1), (5, 6), (0, 1), (3, 3), (6, 5)]),
            Some(GraphError::DuplicateEdge(n(0), n(1)))
        );
        assert_eq!(
            err(&[(4, 9), (9, 4), (9, 4), (4, 9)]),
            Some(GraphError::DuplicateEdge(n(9), n(4)))
        );
        assert_eq!(err(&[]), None);
    }

    #[test]
    fn twin_is_an_involution_crossing_the_edge() {
        let csr = built(&[(0, 1), (1, 2), (0, 2), (1, 3)]);
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
        // A degree-0 node (index 3) exercises the offset tie-break.
        let mut b = CsrBuilder::with_capacity(5, 6);
        b.push_node(&[1]);
        b.push_node(&[0, 2]);
        b.push_node(&[1, 4]);
        b.push_node(&[]);
        b.push_node(&[2]);
        let csr = b.finish().unwrap();
        for idx in 0..csr.node_count() {
            for slot in csr.slots(idx) {
                assert_eq!(csr.source(slot), idx, "slot {slot}");
            }
        }
        assert_eq!(csr.degree(3), 0);
        assert!(csr.slots(3).is_empty());
        assert!(csr.neighbor_indices(3).is_empty());
        assert!(!csr.is_connected());
    }

    #[test]
    fn slot_of_finds_every_ordered_pair() {
        let csr = built(&[(0, 1), (1, 2)]);
        for (ui, vi) in [(0, 1), (1, 2)] {
            let s = csr.slot_of(ui, vi).expect("edge has a slot");
            assert_eq!(csr.source(s), ui);
            assert_eq!(csr.target(s), vi);
            assert_eq!(csr.twin(s), csr.slot_of(vi, ui).unwrap());
        }
        assert_eq!(csr.slot_of(0, 2), None, "{{0, 2}} is not an edge");
    }

    #[test]
    fn non_contiguous_ids_fall_back_to_binary_search() {
        let csr = built(&[(5, 200), (9, 200), (u32::MAX, 9)]);
        assert_eq!(csr.index_of(n(5)), Some(0));
        assert_eq!(csr.index_of(n(9)), Some(1));
        assert_eq!(csr.index_of(n(200)), Some(2));
        assert_eq!(csr.index_of(n(u32::MAX)), Some(3));
        assert_eq!(csr.index_of(n(6)), None);
        assert_eq!(csr.degree(2), 2);
        let s = csr.slot_of(0, 2).unwrap();
        assert_eq!(csr.node(csr.target(s)), n(200));
        assert!(csr.is_connected());
    }

    #[test]
    fn node_nodes_and_index_of_round_trip() {
        for csr in [
            built(&[(0, 1), (1, 2), (3, 2)]),
            built(&[(5, 200), (9, 200), (u32::MAX, 9)]),
        ] {
            let nodes: Vec<NodeId> = csr.nodes().collect();
            assert_eq!(nodes.len(), csr.node_count());
            for (i, &u) in nodes.iter().enumerate() {
                assert_eq!(csr.node(i), u);
                assert_eq!(csr.index_of(u), Some(i));
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn node_past_the_end_panics_on_a_contiguous_graph() {
        let csr = built(&[(0, 1), (1, 2)]);
        let _ = csr.node(3);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn node_past_the_end_panics_on_a_gapped_graph() {
        let csr = built(&[(5, 200), (9, 200)]);
        let _ = csr.node(3);
    }

    #[test]
    fn builder_matches_the_arc_list_build() {
        let reference = built(&[(0, 1), (1, 2), (0, 2), (2, 3)]);
        let mut b = CsrBuilder::with_capacity(4, 8);
        b.push_node(&[1, 2]);
        b.push_node(&[0, 2]);
        b.push_node(&[0, 1, 3]);
        b.push_node(&[2]);
        assert_eq!(b.half_edge_count(), 8);
        assert_eq!(b.finish().unwrap(), reference);
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
        let csr = built(&[(0, 1), (1, 2)]);
        // 3 nodes × 4 + 4 offsets × 4 + 4 targets × 4 + 4 twins × 4.
        assert_eq!(csr.resident_bytes(), 12 + 16 + 16 + 16);
    }
}
