//! Streaming instance construction: generators that emit neighbor runs
//! directly into CSR arrays, never materializing a `BTreeMap` graph or
//! an intermediate edge list.
//!
//! The [`crate::generate`] module builds [`ReversalInstance`]s through the
//! `UndirectedGraph`/`Orientation` frontend — ideal for validation and
//! serialization, but its pointer-heavy maps cost hundreds of bytes per
//! edge, which caps it at tens of thousands of nodes. The streaming
//! counterparts in this module produce a [`CsrInstance`] — the flat CSR
//! graph plus a bit-packed initial orientation (1 bit per half-edge) —
//! at roughly 8 bytes per half-edge plus 8 per node, so million-node
//! instances fit comfortably in memory.
//!
//! Every streaming generator is pinned to its materializing counterpart
//! by the differential suite: `stream::f(args)` must equal
//! `CsrInstance::from_instance(&generate::f(args))` bit for bit,
//! including the RNG draws of the random families.

use std::collections::HashSet;
use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::csr::check_slot_capacity;
use crate::{CsrBuilder, CsrGraph, EdgeDir, NodeId, ReversalInstance};

/// Reads bit `i` of a packed word array.
fn bit_get(words: &[u64], i: usize) -> bool {
    (words[i >> 6] >> (i & 63)) & 1 == 1
}

/// Sets bit `i` of a packed word array.
fn bit_set(words: &mut [u64], i: usize) {
    words[i >> 6] |= 1u64 << (i & 63);
}

/// A flat, memory-lean problem instance: the CSR communication graph,
/// the initial orientation packed to one bit per half-edge slot (bit set
/// ⟺ the slot's edge points **out** of the owning node), and the
/// destination.
///
/// This is the large-scale counterpart of [`ReversalInstance`]; the two
/// are interconvertible via [`CsrInstance::from_instance`], and a
/// streaming generator's output equals the conversion of its
/// materializing twin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsrInstance {
    csr: Arc<CsrGraph>,
    init_out: Vec<u64>,
    dest: NodeId,
}

impl CsrInstance {
    /// Converts a materialized instance to the flat representation.
    pub fn from_instance(inst: &ReversalInstance) -> Self {
        let csr = Arc::new(CsrGraph::from_graph(&inst.graph));
        let mut init_out = vec![0u64; csr.half_edge_count().div_ceil(64)];
        for ui in 0..csr.node_count() {
            let u = csr.node(ui);
            for slot in csr.slots(ui) {
                let v = csr.node(csr.target(slot));
                if inst.init.dir(u, v) == Some(EdgeDir::Out) {
                    bit_set(&mut init_out, slot);
                }
            }
        }
        CsrInstance {
            csr,
            init_out,
            dest: inst.dest,
        }
    }

    /// The CSR graph.
    pub fn csr(&self) -> &Arc<CsrGraph> {
        &self.csr
    }

    /// The destination node.
    pub fn dest(&self) -> NodeId {
        self.dest
    }

    /// The destination's dense index.
    pub fn dest_index(&self) -> usize {
        self.csr
            .index_of(self.dest)
            .expect("destination is a node of the instance")
    }

    /// The initial direction of a half-edge slot from its owner's
    /// perspective.
    pub fn init_dir_at(&self, slot: usize) -> EdgeDir {
        if bit_get(&self.init_out, slot) {
            EdgeDir::Out
        } else {
            EdgeDir::In
        }
    }

    /// The packed initial-orientation words (bit set ⟺ slot is out).
    pub fn init_out_words(&self) -> &[u64] {
        &self.init_out
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.csr.node_count()
    }

    /// Number of half-edge slots.
    pub fn half_edge_count(&self) -> usize {
        self.csr.half_edge_count()
    }

    /// Resident size of the instance in bytes: the CSR arrays plus the
    /// packed orientation words.
    pub fn resident_bytes(&self) -> usize {
        self.csr.resident_bytes() + self.init_out.len() * 8
    }
}

/// Internal accumulator pairing a [`CsrBuilder`] with the packed
/// orientation bits of the slots as they are emitted.
struct InstanceBuilder {
    b: CsrBuilder,
    init_out: Vec<u64>,
}

impl InstanceBuilder {
    fn with_capacity(nodes: usize, half_edges: usize) -> Self {
        InstanceBuilder {
            b: CsrBuilder::with_capacity(nodes, half_edges),
            init_out: Vec::with_capacity(half_edges.div_ceil(64)),
        }
    }

    /// Pushes the next node's ascending neighbor run; `out[k]` gives the
    /// initial direction of the slot for `neighbors[k]`.
    fn push_node(&mut self, neighbors: &[u32], out: &[bool]) {
        debug_assert_eq!(neighbors.len(), out.len());
        let base = self.b.half_edge_count();
        self.init_out
            .resize((base + neighbors.len()).div_ceil(64), 0);
        for (k, &o) in out.iter().enumerate() {
            if o {
                bit_set(&mut self.init_out, base + k);
            }
        }
        self.b.push_node(neighbors);
    }

    fn finish(self, dest: NodeId) -> CsrInstance {
        let csr = self
            .b
            .finish()
            .expect("streaming generators check capacity up front");
        CsrInstance {
            csr: Arc::new(csr),
            init_out: self.init_out,
            dest,
        }
    }
}

/// Asserts the half-edge count of a family fits the slot-index space
/// before any allocation happens.
///
/// # Panics
///
/// Panics with the [`crate::GraphError::SlotCapacity`] message on
/// overflow — generators are infallible APIs, mirroring the panicking
/// contracts of [`crate::generate`].
fn assert_capacity(half_edges: usize) {
    if let Err(e) = check_slot_capacity(half_edges) {
        panic!("{e}");
    }
}

/// Streaming [`crate::generate::chain_away`]: the chain `D = v0 — … — v(n-1)`
/// with every edge directed away from destination `v0`.
///
/// # Panics
///
/// Panics if `n < 2`.
pub fn chain_away(n: usize) -> CsrInstance {
    assert!(n >= 2, "chain needs at least 2 nodes");
    assert_capacity(2 * (n - 1));
    let mut ib = InstanceBuilder::with_capacity(n, 2 * (n - 1));
    for i in 0..n as u32 {
        if i == 0 {
            ib.push_node(&[1], &[true]);
        } else if i as usize == n - 1 {
            ib.push_node(&[i - 1], &[false]);
        } else {
            ib.push_node(&[i - 1, i + 1], &[false, true]);
        }
    }
    ib.finish(NodeId::new(0))
}

/// Streaming [`crate::generate::chain_toward`]: the chain with every edge
/// directed toward destination `v0`.
///
/// # Panics
///
/// Panics if `n < 2`.
pub fn chain_toward(n: usize) -> CsrInstance {
    assert!(n >= 2, "chain needs at least 2 nodes");
    assert_capacity(2 * (n - 1));
    let mut ib = InstanceBuilder::with_capacity(n, 2 * (n - 1));
    for i in 0..n as u32 {
        if i == 0 {
            ib.push_node(&[1], &[false]);
        } else if i as usize == n - 1 {
            ib.push_node(&[i - 1], &[true]);
        } else {
            ib.push_node(&[i - 1, i + 1], &[true, false]);
        }
    }
    ib.finish(NodeId::new(0))
}

/// Streaming [`crate::generate::alternating_chain`]: edge `{vi, vi+1}` directed
/// `vi → vi+1` when `i` is odd, `vi+1 → vi` when `i` is even.
///
/// # Panics
///
/// Panics if `n < 2`.
pub fn alternating_chain(n: usize) -> CsrInstance {
    assert!(n >= 2, "chain needs at least 2 nodes");
    assert_capacity(2 * (n - 1));
    let mut ib = InstanceBuilder::with_capacity(n, 2 * (n - 1));
    // Edge i—i+1 points i → i+1 iff i is odd, so from node k's
    // perspective: the left edge (index k-1) is In iff k-1 is odd, and
    // the right edge (index k) is Out iff k is odd.
    let left_out = |k: u32| (k - 1).is_multiple_of(2);
    let right_out = |k: u32| k % 2 == 1;
    for k in 0..n as u32 {
        if k == 0 {
            ib.push_node(&[1], &[right_out(0)]);
        } else if k as usize == n - 1 {
            ib.push_node(&[k - 1], &[left_out(k)]);
        } else {
            ib.push_node(&[k - 1, k + 1], &[left_out(k), right_out(k)]);
        }
    }
    ib.finish(NodeId::new(0))
}

/// Streaming [`crate::generate::star_away`]: destination at the center, every
/// edge directed center → leaf.
///
/// # Panics
///
/// Panics if `leaves == 0`.
pub fn star_away(leaves: usize) -> CsrInstance {
    assert!(leaves >= 1, "star needs at least 1 leaf");
    assert_capacity(2 * leaves);
    let mut ib = InstanceBuilder::with_capacity(leaves + 1, 2 * leaves);
    let nbrs: Vec<u32> = (1..=leaves as u32).collect();
    let out = vec![true; leaves];
    ib.push_node(&nbrs, &out);
    for _ in 1..=leaves {
        ib.push_node(&[0], &[false]);
    }
    ib.finish(NodeId::new(0))
}

/// Streaming [`crate::generate::binary_tree_away`]: a complete binary tree
/// rooted at the destination, every edge directed away from the root.
pub fn binary_tree_away(depth: usize) -> CsrInstance {
    let levels = depth + 2;
    let n = (1usize << levels) - 1;
    assert_capacity(2 * (n - 1));
    let mut ib = InstanceBuilder::with_capacity(n, 2 * (n - 1));
    let mut nbrs: Vec<u32> = Vec::with_capacity(3);
    let mut out: Vec<bool> = Vec::with_capacity(3);
    for i in 0..n {
        nbrs.clear();
        out.clear();
        if i > 0 {
            nbrs.push(((i - 1) / 2) as u32);
            out.push(false);
        }
        for child in [2 * i + 1, 2 * i + 2] {
            if child < n {
                nbrs.push(child as u32);
                out.push(true);
            }
        }
        ib.push_node(&nbrs, &out);
    }
    ib.finish(NodeId::new(0))
}

/// Streaming [`crate::generate::grid_away`]: an `rows × cols` grid (row-major
/// ids) with right and down edges, all directed away from the
/// destination in the top-left corner.
///
/// # Panics
///
/// Panics if `rows * cols < 2`.
pub fn grid_away(rows: usize, cols: usize) -> CsrInstance {
    assert!(rows * cols >= 2, "grid needs at least 2 nodes");
    let half_edges = 2 * (rows * (cols - 1) + (rows - 1) * cols);
    assert_capacity(half_edges);
    let mut ib = InstanceBuilder::with_capacity(rows * cols, half_edges);
    let mut nbrs: Vec<u32> = Vec::with_capacity(4);
    let mut out: Vec<bool> = Vec::with_capacity(4);
    for r in 0..rows {
        for c in 0..cols {
            let me = r * cols + c;
            nbrs.clear();
            out.clear();
            // Ascending neighbor ids: up, left, right, down. Edges
            // point right and down, so up/left are In, right/down Out.
            if r > 0 {
                nbrs.push((me - cols) as u32);
                out.push(false);
            }
            if c > 0 {
                nbrs.push((me - 1) as u32);
                out.push(false);
            }
            if c + 1 < cols {
                nbrs.push((me + 1) as u32);
                out.push(true);
            }
            if r + 1 < rows {
                nbrs.push((me + cols) as u32);
                out.push(true);
            }
            ib.push_node(&nbrs, &out);
        }
    }
    ib.finish(NodeId::new(0))
}

/// Streaming [`crate::generate::complete_away`]: the complete DAG oriented from
/// smaller to larger id, destination node 0.
///
/// # Panics
///
/// Panics if `n < 2`.
pub fn complete_away(n: usize) -> CsrInstance {
    assert!(n >= 2, "complete graph needs at least 2 nodes");
    assert_capacity(n * (n - 1));
    let mut ib = InstanceBuilder::with_capacity(n, n * (n - 1));
    let mut nbrs: Vec<u32> = Vec::with_capacity(n - 1);
    let mut out: Vec<bool> = Vec::with_capacity(n - 1);
    for i in 0..n as u32 {
        nbrs.clear();
        out.clear();
        for j in 0..n as u32 {
            if j != i {
                nbrs.push(j);
                out.push(j > i);
            }
        }
        ib.push_node(&nbrs, &out);
    }
    ib.finish(NodeId::new(0))
}

/// Streaming [`crate::generate::layered`]: `depth` layers of `width` nodes over
/// the destination, every node wired to a random non-empty subset of the
/// previous layer, all edges directed away from the destination.
///
/// Runs the RNG twice with the same seed — one pass to count degrees,
/// one to scatter the edges — so the draws match the materializing
/// generator exactly.
///
/// # Panics
///
/// Panics if `width == 0` or `depth == 0`, or if `p` is not in `[0, 1]`.
pub fn layered(width: usize, depth: usize, p: f64, seed: u64) -> CsrInstance {
    assert!(
        width > 0 && depth > 0,
        "layered graph needs width, depth > 0"
    );
    assert!((0.0..=1.0).contains(&p), "p must be a probability");
    let n = 1 + width * depth;
    // Replays the frontend's generation loop, feeding each `u → v` edge
    // (with `u` in the earlier layer) to `sink` in draw order.
    fn emit_edges<F: FnMut(usize, usize)>(
        width: usize,
        depth: usize,
        p: f64,
        seed: u64,
        mut sink: F,
    ) {
        let node_at = |layer: usize, i: usize| -> usize {
            if layer == 0 {
                0
            } else {
                1 + (layer - 1) * width + i
            }
        };
        let layer_size = |layer: usize| if layer == 0 { 1 } else { width };
        let mut rng = SmallRng::seed_from_u64(seed);
        for layer in 1..=depth {
            for i in 0..width {
                let v = node_at(layer, i);
                let prev = layer - 1;
                let mut linked = false;
                for j in 0..layer_size(prev) {
                    if rng.gen_bool(p) {
                        sink(node_at(prev, j), v);
                        linked = true;
                    }
                }
                if !linked {
                    let j = rng.gen_range(0..layer_size(prev));
                    sink(node_at(prev, j), v);
                }
            }
        }
    }
    // Pass 1: count degrees only.
    let mut deg = vec![0u32; n];
    emit_edges(width, depth, p, seed, |u, v| {
        deg[u] += 1;
        deg[v] += 1;
    });
    let half_edges: usize = deg.iter().map(|&d| d as usize).sum();
    assert_capacity(half_edges);
    let mut offsets = Vec::with_capacity(n + 1);
    let mut acc = 0u32;
    offsets.push(0u32);
    for &d in &deg {
        acc += d;
        offsets.push(acc);
    }
    // Pass 2: replay again, scattering each edge into both endpoints'
    // runs. Generation order visits a node's lower neighbors ascending
    // (j ascending over the previous layer) before any of its upper
    // neighbors (i ascending over the next layer), so the scattered
    // runs come out sorted without a sort pass.
    let mut cursor: Vec<u32> = offsets[..n].to_vec();
    let mut targets = vec![0u32; half_edges];
    let mut init_out = vec![0u64; half_edges.div_ceil(64)];
    emit_edges(width, depth, p, seed, |u, v| {
        // u is in the earlier layer: the edge points u → v.
        let su = cursor[u] as usize;
        targets[su] = v as u32;
        bit_set(&mut init_out, su);
        cursor[u] += 1;
        let sv = cursor[v] as usize;
        targets[sv] = u as u32;
        cursor[v] += 1;
    });
    let csr = CsrGraph::from_sorted_adjacency(offsets, targets)
        .expect("capacity checked before allocation");
    CsrInstance {
        csr: Arc::new(csr),
        init_out,
        dest: NodeId::new(0),
    }
}

/// Streaming [`crate::generate::random_connected`]: a random attachment
/// spanning tree plus `extra_edges` random edges, oriented by a random
/// topological order, destination node 0.
///
/// Keeps only a flat `(u, v)` edge buffer and a hash set for the
/// duplicate checks while generating — both freed before the instance
/// is returned — instead of the frontend's per-node B-tree adjacency.
///
/// # Panics
///
/// Panics if `n < 2`.
pub fn random_connected(n: usize, extra_edges: usize, seed: u64) -> CsrInstance {
    assert!(n >= 2, "graph needs at least 2 nodes");
    let mut rng = SmallRng::seed_from_u64(seed);
    let max_edges = n * (n - 1) / 2;
    let target = (n - 1).saturating_add(extra_edges).min(max_edges);
    assert_capacity(2 * target);
    let mut edges: Vec<(u32, u32)> = Vec::with_capacity(target);
    let mut seen: HashSet<(u32, u32)> = HashSet::with_capacity(target);
    // Random attachment spanning tree — same draws as the frontend.
    for i in 1..n {
        let parent = rng.gen_range(0..i);
        let key = (parent as u32, i as u32);
        edges.push(key);
        seen.insert(key);
    }
    // Extra edges, skipping duplicates; cap attempts to stay total.
    let mut attempts = 0;
    while edges.len() < target && attempts < 50 * target {
        attempts += 1;
        let u = rng.gen_range(0..n);
        let v = rng.gen_range(0..n);
        if u == v {
            continue;
        }
        let key = (u.min(v) as u32, u.max(v) as u32);
        if seen.insert(key) {
            edges.push(key);
        }
    }
    drop(seen);
    let mut order: Vec<NodeId> = (0..n as u32).map(NodeId::new).collect();
    order.shuffle(&mut rng);
    let mut rank = vec![0u32; n];
    for (pos, &u) in order.iter().enumerate() {
        rank[u.index()] = pos as u32;
    }
    drop(order);
    // Counting-scatter the edge buffer into CSR runs, then sort each
    // run (edge order is random, unlike the layered family).
    let mut deg = vec![0u32; n];
    for &(a, b) in &edges {
        deg[a as usize] += 1;
        deg[b as usize] += 1;
    }
    let half_edges = 2 * edges.len();
    let mut offsets = Vec::with_capacity(n + 1);
    let mut acc = 0u32;
    offsets.push(0u32);
    for &d in &deg {
        acc += d;
        offsets.push(acc);
    }
    drop(deg);
    let mut cursor: Vec<u32> = offsets[..n].to_vec();
    let mut targets = vec![0u32; half_edges];
    for &(a, b) in &edges {
        targets[cursor[a as usize] as usize] = b;
        cursor[a as usize] += 1;
        targets[cursor[b as usize] as usize] = a;
        cursor[b as usize] += 1;
    }
    drop(edges);
    drop(cursor);
    for u in 0..n {
        targets[offsets[u] as usize..offsets[u + 1] as usize].sort_unstable();
    }
    // Orient by the shuffled order: slot (u, v) is out iff u precedes v.
    let mut init_out = vec![0u64; half_edges.div_ceil(64)];
    for u in 0..n {
        let run = offsets[u] as usize..offsets[u + 1] as usize;
        for (slot, &t) in targets[run.clone()].iter().enumerate() {
            if rank[u] < rank[t as usize] {
                bit_set(&mut init_out, run.start + slot);
            }
        }
    }
    let csr = CsrGraph::from_sorted_adjacency(offsets, targets)
        .expect("capacity checked before allocation");
    CsrInstance {
        csr: Arc::new(csr),
        init_out,
        dest: NodeId::new(0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate;

    /// Every streaming family must equal the conversion of its
    /// materializing counterpart — same CSR, same packed orientation,
    /// same destination. (The differential proptest in
    /// `tests/proptest_graph.rs` covers randomized parameters.)
    #[test]
    fn streaming_families_match_materializing_counterparts() {
        for n in [2usize, 3, 5, 9] {
            assert_eq!(
                chain_away(n),
                CsrInstance::from_instance(&generate::chain_away(n)),
                "chain_away({n})"
            );
            assert_eq!(
                chain_toward(n),
                CsrInstance::from_instance(&generate::chain_toward(n)),
                "chain_toward({n})"
            );
            assert_eq!(
                alternating_chain(n),
                CsrInstance::from_instance(&generate::alternating_chain(n)),
                "alternating_chain({n})"
            );
            assert_eq!(
                star_away(n),
                CsrInstance::from_instance(&generate::star_away(n)),
                "star_away({n})"
            );
            assert_eq!(
                complete_away(n),
                CsrInstance::from_instance(&generate::complete_away(n)),
                "complete_away({n})"
            );
        }
        for depth in 0..3 {
            assert_eq!(
                binary_tree_away(depth),
                CsrInstance::from_instance(&generate::binary_tree_away(depth)),
                "binary_tree_away({depth})"
            );
        }
        for (rows, cols) in [(1, 2), (2, 2), (3, 4), (5, 1)] {
            assert_eq!(
                grid_away(rows, cols),
                CsrInstance::from_instance(&generate::grid_away(rows, cols)),
                "grid_away({rows}, {cols})"
            );
        }
        for seed in 0..4 {
            assert_eq!(
                layered(3, 2, 0.4, seed),
                CsrInstance::from_instance(&generate::layered(3, 2, 0.4, seed)),
                "layered(3, 2, 0.4, {seed})"
            );
            assert_eq!(
                random_connected(9, 6, seed),
                CsrInstance::from_instance(&generate::random_connected(9, 6, seed)),
                "random_connected(9, 6, {seed})"
            );
        }
    }

    #[test]
    fn init_dirs_are_mirrored_across_twins() {
        let inst = random_connected(12, 10, 3);
        let csr = inst.csr();
        for slot in 0..csr.half_edge_count() {
            assert_eq!(
                inst.init_dir_at(slot),
                inst.init_dir_at(csr.twin(slot)).flipped(),
                "slot {slot}"
            );
        }
    }

    #[test]
    fn resident_bytes_stays_within_the_scale_budget() {
        // The 16 bytes/half-edge acceptance bar, checked on a small
        // chain (the per-node arrays amortize at scale; at n = 64 the
        // chain is already under the bar).
        let inst = chain_away(64);
        let per_half_edge = inst.resident_bytes() as f64 / inst.half_edge_count() as f64;
        assert!(
            per_half_edge <= 16.0,
            "chain_away(64) costs {per_half_edge:.2} B/half-edge"
        );
    }

    #[test]
    fn dest_index_resolves() {
        let inst = grid_away(2, 3);
        assert_eq!(inst.dest(), NodeId::new(0));
        assert_eq!(inst.dest_index(), 0);
        assert_eq!(inst.node_count(), 6);
        assert_eq!(inst.half_edge_count(), 2 * 7);
    }
}
