//! Instance generators: the graph families used by the examples, the
//! tests, the scenario specs, and the benchmark. Each one emits neighbor
//! runs directly into CSR arrays, never materializing an intermediate
//! edge list where it can avoid one.
//!
//! Every generator returns a [`ReversalInstance`] — the CSR graph plus
//! the initial orientation at one bit per half-edge slot — at roughly 8
//! bytes per half-edge plus 8 per node, so million-node instances fit
//! comfortably in memory. The families are connected and acyclic by
//! construction. Unless documented otherwise the destination is node
//! `0`.
//!
//! The **`*_away` families direct every edge away from the destination**,
//! which makes *every* other node a "bad node" (no initial path to `D`) —
//! the configuration that exhibits the Θ(n_b²) worst-case total work cited
//! in §1 of the paper.
//!
//! [`random_connected`], the benchmark's million-node family, draws its
//! edges before it knows any run, so it keeps them as a flat buffer of
//! `(lower, higher)` endpoint pairs. Each edge's higher end is scattered
//! into its lower end's run, from the run's end down, and only those
//! higher parts are sorted. One descending pass then fills every lower
//! part, writes both twins and sets each edge's initial out bit. The
//! spent pair buffer becomes the twin table, so beside the instance's
//! own arrays the build holds only the extra edges' key table and a few
//! per-node arrays.

use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::csr::check_slot_capacity;
use crate::orientation::bit_set;
use crate::{CsrBuilder, CsrGraph, NodeId, Orientation, ReversalInstance};

/// Wraps a generator's CSR and slot bits as an instance.
fn instance(csr: CsrGraph, init_out: Vec<u64>, dest: NodeId) -> ReversalInstance {
    ReversalInstance::from_valid(Orientation::from_words(Arc::new(csr), init_out), dest)
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

    fn finish(self, dest: NodeId) -> ReversalInstance {
        let csr = self
            .b
            .finish()
            .expect("streaming generators check capacity up front");
        instance(csr, self.init_out, dest)
    }
}

/// Asserts the half-edge count of a family fits the slot-index space
/// before any allocation happens: generators are infallible APIs that
/// panic, with the [`crate::GraphError::SlotCapacity`] message, on bad
/// sizes.
fn assert_capacity(half_edges: usize) {
    if let Err(e) = check_slot_capacity(half_edges) {
        panic!("{e}");
    }
}

/// A chain `D = v0 — v1 — … — v(n-1)` with every edge directed **away**
/// from the destination `v0`.
///
/// Only `v(n-1)` is a sink; reversals ripple back and forth along the
/// chain, producing the classic quadratic worst case.
///
/// # Panics
///
/// Panics if `n < 2`.
///
/// ```
/// use lr_graph::stream;
/// let inst = stream::chain_away(5);
/// assert_eq!(inst.initial_bad_nodes(), 4);
/// ```
pub fn chain_away(n: usize) -> ReversalInstance {
    chain(n, |_| true)
}

/// A chain with every edge directed **toward** the destination `v0`:
/// already destination-oriented, so no algorithm performs any work on it.
///
/// # Panics
///
/// Panics if `n < 2`.
pub fn chain_toward(n: usize) -> ReversalInstance {
    chain(n, |_| false)
}

/// An *alternating* chain `D = v0 — v1 — … — v(n-1)`: edge `{vi, vi+1}`
/// is directed `vi → vi+1` when `i` is odd and `vi+1 → vi` when `i` is
/// even. Odd-indexed interior nodes are initial sources, even-indexed
/// ones initial sinks — the dense-sink configuration on which Partial
/// Reversal exhibits its Θ(n_b²) worst-case behaviour (FR's worst case is
/// [`chain_away`]; both bounds are cited in §1 of the paper from Busch et
/// al.).
///
/// # Panics
///
/// Panics if `n < 2`.
///
/// ```
/// use lr_graph::stream;
/// let inst = stream::alternating_chain(5);
/// // 1 → 0, 1 → 2, 3 → 2, 3 → 4
/// assert_eq!(inst.init().sinks().len(), 3); // nodes 0 (dest), 2, 4
/// ```
pub fn alternating_chain(n: usize) -> ReversalInstance {
    chain(n, |i| i % 2 == 1)
}

/// The chain `v0 — v1 — … — v(n-1)`, destination `v0`, with edge
/// `{vi, vi+1}` directed `vi → vi+1` exactly when `up(i)`.
fn chain(n: usize, up: impl Fn(u32) -> bool) -> ReversalInstance {
    assert!(n >= 2, "chain needs at least 2 nodes");
    assert_capacity(2 * (n - 1));
    let mut ib = InstanceBuilder::with_capacity(n, 2 * (n - 1));
    let last = n as u32 - 1;
    for i in 0..=last {
        match i {
            0 => ib.push_node(&[1], &[up(0)]),
            _ if i == last => ib.push_node(&[i - 1], &[!up(i - 1)]),
            _ => ib.push_node(&[i - 1, i + 1], &[!up(i - 1), up(i)]),
        }
    }
    ib.finish(NodeId::new(0))
}

/// A star with the destination at the center and every edge directed from
/// the center to the leaves. Every leaf is initially a sink and a bad node.
///
/// # Panics
///
/// Panics if `leaves == 0`.
pub fn star_away(leaves: usize) -> ReversalInstance {
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

/// A complete binary tree rooted at the destination, every edge directed
/// away from the root. Depth 0 is the root with two children, and each
/// further level doubles the leaves: `2^(depth + 2) − 1` nodes.
pub fn binary_tree_away(depth: usize) -> ReversalInstance {
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

/// An `rows × cols` grid (row-major ids) with right and down edges, all
/// directed away from the destination in the top-left corner.
///
/// # Panics
///
/// Panics if `rows * cols < 2`.
pub fn grid_away(rows: usize, cols: usize) -> ReversalInstance {
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

/// The complete DAG on `n` nodes: every pair connected, oriented from the
/// smaller to the larger id, destination node 0 (so every edge points away
/// from the destination).
///
/// # Panics
///
/// Panics if `n < 2`.
pub fn complete_away(n: usize) -> ReversalInstance {
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

/// A layered DAG: `depth` layers of `width` nodes plus the destination in
/// its own layer 0. Each node connects to a random non-empty subset of the
/// previous layer (edge probability `p`, at least one forced link for
/// connectivity), all edges directed away from the destination.
///
/// Runs the RNG twice with the same seed — one pass to count degrees,
/// one to scatter the edges — so both passes see the same draws.
///
/// # Panics
///
/// Panics if `width == 0` or `depth == 0`, or if `p` is not in `[0, 1]`.
pub fn layered(width: usize, depth: usize, p: f64, seed: u64) -> ReversalInstance {
    assert!(
        width > 0 && depth > 0,
        "layered graph needs width, depth > 0"
    );
    assert!((0.0..=1.0).contains(&p), "p must be a probability");
    let n = 1 + width * depth;
    // The generation loop, feeding each `u → v` edge (with `u` in the
    // earlier layer) to `sink` in draw order.
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
    instance(csr, init_out, NodeId::new(0))
}

/// A random connected **bipartite** instance with every edge initially
/// oriented from side A (`0..width`, containing the destination node 0)
/// to side B (`width..2·width`): side B starts as one maximal sink set
/// of `width` pairwise non-adjacent nodes, and a greedy round that steps
/// all of B hands the whole sink set to A — the "ping-pong" family whose
/// rounds stay ~`width` wide for a long prefix of the execution.
///
/// Built for throughput benchmarking of round-parallel executors: wide
/// rounds with tunable degree (each B node gets `degree` distinct A
/// neighbors — two deterministic for connectivity, the rest random).
///
/// # Panics
///
/// Panics if `width < 2` or `degree` is outside `2..=width` (two
/// deterministic edges per B node form the connecting ring).
pub fn bipartite_away(width: usize, degree: usize, seed: u64) -> ReversalInstance {
    assert!(width >= 2, "bipartite sides need at least 2 nodes");
    assert!(
        degree >= 2 && degree <= width,
        "degree must be in 2..=width"
    );
    assert_capacity(width.saturating_mul(degree).saturating_mul(2));
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut b_runs: Vec<Vec<u32>> = Vec::with_capacity(width);
    for i in 0..width {
        // Deterministic ring A_i — B_i — A_{i+1}: guarantees
        // connectivity and coverage of both sides regardless of the
        // random draws below.
        let mut run = vec![i as u32, ((i + 1) % width) as u32];
        let mut attempts = 0;
        while run.len() < degree && attempts < 50 * degree {
            attempts += 1;
            let a = rng.gen_range(0..width) as u32;
            if !run.contains(&a) {
                run.push(a);
            }
        }
        run.sort_unstable();
        b_runs.push(run);
    }
    // B ids ascend with `i`, so every A run comes out sorted.
    let mut a_runs: Vec<Vec<u32>> = vec![Vec::new(); width];
    for (i, run) in b_runs.iter().enumerate() {
        for &a in run {
            a_runs[a as usize].push((width + i) as u32);
        }
    }
    let half_edges = 2 * b_runs.iter().map(Vec::len).sum::<usize>();
    let mut ib = InstanceBuilder::with_capacity(2 * width, half_edges);
    for run in &a_runs {
        ib.push_node(run, &vec![true; run.len()]);
    }
    for run in &b_runs {
        ib.push_node(run, &vec![false; run.len()]);
    }
    ib.finish(NodeId::new(0))
}

/// A random connected graph: a random attachment spanning tree over `n`
/// nodes plus `extra_edges` additional random edges (capped at the
/// complete graph), oriented by a uniformly random topological order.
/// The destination is node 0; some nodes typically have no initial path
/// to it, giving the algorithms real work to do.
///
/// Keeps a flat buffer of `(lower, higher)` endpoint pairs and an
/// open-addressing table of the extra edges while generating. The CSR
/// then comes from one pass that pairs every edge from its lower end,
/// writing both twins and the edge's out bit, and the spent pair buffer
/// becomes the twin table.
///
/// # Panics
///
/// Panics if `n < 2`.
pub fn random_connected(n: usize, extra_edges: usize, seed: u64) -> ReversalInstance {
    assert!(n >= 2, "graph needs at least 2 nodes");
    let mut rng = SmallRng::seed_from_u64(seed);
    let pairs = random_edges(n, extra_edges, &mut rng);
    orient_randomly(n, pairs, &mut rng)
}

/// A set of nonzero `u64` keys: open addressing with linear probing and
/// a multiplicative hash, sized so it is at most half full.
struct KeySet {
    slots: Vec<u64>,
    /// `64 − log2(slots.len())`: the hash is the product's top bits.
    shift: u32,
}

impl KeySet {
    fn with_capacity(keys: usize) -> Self {
        let len = keys.saturating_mul(2).next_power_of_two().max(2);
        KeySet {
            slots: vec![0; len],
            shift: 64 - len.trailing_zeros(),
        }
    }

    /// Inserts `key` (nonzero); returns whether it was absent.
    fn insert(&mut self, key: u64) -> bool {
        let mask = self.slots.len() - 1;
        let mut i = (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize;
        loop {
            match self.slots[i] {
                0 => {
                    self.slots[i] = key;
                    return true;
                }
                k if k == key => return false,
                _ => i = (i + 1) & mask,
            }
        }
    }
}

/// The edges of [`random_connected`] as flat `(min, max)` pairs: the tree
/// edge `(parent, i)` of every node `i ≥ 1` at pair `i − 1`, then the
/// extra edges in the order drawn.
fn random_edges(n: usize, extra_edges: usize, rng: &mut SmallRng) -> Vec<u32> {
    let max_edges = n * (n - 1) / 2;
    let target = (n - 1).saturating_add(extra_edges).min(max_edges);
    assert_capacity(2 * target);
    let mut pairs: Vec<u32> = Vec::with_capacity(2 * target);
    // Random attachment spanning tree.
    for i in 1..n {
        let parent = rng.gen_range(0..i);
        pairs.extend([parent as u32, i as u32]);
    }
    // Extra edges, skipping duplicates; cap attempts to stay total. An
    // edge `(a, b)` repeats a tree edge iff `a` is the parent of `b`;
    // repeats among the extra edges show up in `extras`.
    let mut extras = KeySet::with_capacity(target - (n - 1));
    let mut attempts = 0;
    while pairs.len() < 2 * target && attempts < 50 * target {
        attempts += 1;
        let u = rng.gen_range(0..n);
        let v = rng.gen_range(0..n);
        if u == v {
            continue;
        }
        let (a, b) = (u.min(v) as u32, u.max(v) as u32);
        if pairs[2 * (b as usize - 1)] != a && extras.insert(u64::from(a) << 32 | u64::from(b)) {
            pairs.extend([a, b]);
        }
    }
    pairs
}

/// Orients the edges of `pairs` (flat `(lower, higher)` endpoint pairs)
/// over `n` nodes by a shuffled node order drawn from `rng`, and builds
/// the instance, destination node 0.
///
/// Each edge's higher end is scattered into its lower end's run, from
/// the run's end down, and only these higher parts are sorted. Then
/// [`CsrGraph::from_higher_runs`] fills the lower parts, both twins and
/// one out bit per edge in a single pass: the slot of `(u, v)`, `u < v`,
/// if `u` comes first in the shuffled order, else the slot of `(v, u)`.
/// The spent pair buffer becomes the twin table.
fn orient_randomly(n: usize, pairs: Vec<u32>, rng: &mut SmallRng) -> ReversalInstance {
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.shuffle(rng);
    let mut rank = vec![0u32; n];
    for (pos, &u) in order.iter().enumerate() {
        rank[u as usize] = pos as u32;
    }
    drop(order);
    let mut offsets = vec![0u32; n + 1];
    for &u in &pairs {
        offsets[u as usize + 1] += 1;
    }
    for u in 0..n {
        offsets[u + 1] += offsets[u];
    }
    let mut lower_ends: Vec<u32> = offsets[1..].to_vec();
    let mut targets = vec![0u32; pairs.len()];
    for pair in pairs.chunks_exact(2) {
        let end = &mut lower_ends[pair[0] as usize];
        *end -= 1;
        targets[*end as usize] = pair[1];
    }
    for u in 0..n {
        targets[lower_ends[u] as usize..offsets[u + 1] as usize].sort_unstable();
    }
    let mut init_out = vec![0u64; pairs.len().div_ceil(64)];
    let csr = CsrGraph::from_higher_runs(offsets, targets, lower_ends, pairs, |u, s, v, t| {
        bit_set(&mut init_out, if rank[u] < rank[v] { s } else { t });
    });
    instance(csr, init_out, NodeId::new(0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::to_text;

    #[test]
    fn bipartite_away_has_one_wide_sink_side() {
        let inst = bipartite_away(8, 3, 7);
        assert_eq!(inst.node_count(), 16);
        // Side B (ids 8..16) is exactly the initial sink set.
        let sinks = inst.init().sinks();
        assert_eq!(sinks.len(), 8);
        assert!(sinks.iter().all(|u| u.raw() >= 8));
        // Every B node carries the requested degree.
        for i in 8..16 {
            assert_eq!(inst.csr().degree(i), 3);
        }
        // Deterministic per seed.
        assert_eq!(inst, bipartite_away(8, 3, 7));
    }

    #[test]
    #[should_panic(expected = "degree must be in 2..=width")]
    fn bipartite_away_rejects_sub_ring_degree() {
        let _ = bipartite_away(4, 1, 1);
    }

    #[test]
    fn bipartite_away_is_connected_at_minimum_degree_for_any_seed() {
        // Degree 2 builds exactly the deterministic ring — connectivity
        // must not depend on the random draws.
        for seed in 0..20 {
            let inst = bipartite_away(5, 2, seed);
            assert!(inst.csr().is_connected(), "seed {seed}");
        }
    }

    #[test]
    fn chain_away_all_nodes_bad() {
        let inst = chain_away(6);
        assert_eq!(inst.node_count(), 6);
        assert_eq!(inst.initial_bad_nodes(), 5);
        assert_eq!(inst.init().sinks(), vec![NodeId::new(5)]);
    }

    #[test]
    fn chain_toward_is_destination_oriented() {
        let inst = chain_toward(6);
        assert!(inst.init().is_destination_oriented(inst.dest));
        assert_eq!(inst.initial_bad_nodes(), 0);
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn chain_requires_two_nodes() {
        let _ = chain_away(1);
    }

    #[test]
    fn star_leaves_are_sinks() {
        let inst = star_away(4);
        assert_eq!(inst.init().sinks().len(), 4);
        assert_eq!(inst.initial_bad_nodes(), 4);
    }

    #[test]
    fn binary_tree_structure() {
        let inst = binary_tree_away(1); // 7 nodes
        assert_eq!(inst.node_count(), 7);
        assert_eq!(inst.csr().edge_count(), 6);
        assert!(inst.init().is_acyclic());
        // Leaves are the 4 deepest nodes, all sinks.
        assert_eq!(inst.init().sinks().len(), 4);
    }

    #[test]
    fn grid_shape_and_acyclicity() {
        let inst = grid_away(3, 4);
        // Edges: 3*(4-1) horizontal + (3-1)*4 vertical = 9 + 8 = 17.
        assert_eq!((inst.node_count(), inst.half_edge_count()), (12, 34));
        assert!(inst.init().is_acyclic());
        // Bottom-right corner is the unique sink.
        assert_eq!(inst.init().sinks(), vec![NodeId::new(11)]);
    }

    #[test]
    fn complete_away_is_total_order() {
        let inst = complete_away(5);
        assert_eq!(inst.csr().edge_count(), 10);
        assert!(inst.init().is_acyclic());
        assert_eq!(inst.init().sinks(), vec![NodeId::new(4)]);
    }

    #[test]
    fn layered_is_connected_dag() {
        for seed in 0..5 {
            let inst = layered(4, 3, 0.4, seed);
            assert!(inst.csr().is_connected());
            assert!(inst.init().is_acyclic());
            assert_eq!(inst.node_count(), 13);
        }
    }

    #[test]
    fn random_connected_is_valid_and_deterministic() {
        let a = random_connected(20, 15, 7);
        assert_eq!(a, random_connected(20, 15, 7));
        assert!(a.csr().is_connected());
        assert!(a.init().is_acyclic());
        assert!(a.csr().edge_count() >= 19);
        let c = random_connected(20, 15, 8);
        assert_ne!(a, c, "different seeds should differ");
    }

    /// [`random_edges`] with a `HashSet` for every duplicate check: the
    /// reference the flat key set must match draw for draw.
    fn hash_set_edges(n: usize, extra_edges: usize, rng: &mut SmallRng) -> Vec<(u32, u32)> {
        use std::collections::HashSet;

        let target = (n - 1).saturating_add(extra_edges).min(n * (n - 1) / 2);
        let mut edges = Vec::with_capacity(target);
        let mut seen = HashSet::with_capacity(target);
        for i in 1..n {
            let key = (rng.gen_range(0..i) as u32, i as u32);
            edges.push(key);
            seen.insert(key);
        }
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
        edges
    }

    /// The scatter-and-sort build, the reference for [`orient_randomly`]:
    /// scatter both ends of every edge into CSR runs, sort each run, pair
    /// the twins with `twin_table` and orient every slot by its rank.
    fn scatter_sort_reference(
        n: usize,
        edges: Vec<(u32, u32)>,
        rng: &mut SmallRng,
    ) -> ReversalInstance {
        let mut order: Vec<NodeId> = (0..n as u32).map(NodeId::new).collect();
        order.shuffle(rng);
        let mut rank = vec![0u32; n];
        for (pos, &u) in order.iter().enumerate() {
            rank[u.index()] = pos as u32;
        }
        let mut deg = vec![0u32; n];
        for &(a, b) in &edges {
            deg[a as usize] += 1;
            deg[b as usize] += 1;
        }
        let mut offsets = vec![0u32];
        for &d in &deg {
            offsets.push(offsets.last().unwrap() + d);
        }
        let mut cursor: Vec<u32> = offsets[..n].to_vec();
        let mut targets = vec![0u32; 2 * edges.len()];
        for &(a, b) in &edges {
            targets[cursor[a as usize] as usize] = b;
            cursor[a as usize] += 1;
            targets[cursor[b as usize] as usize] = a;
            cursor[b as usize] += 1;
        }
        for u in 0..n {
            targets[offsets[u] as usize..offsets[u + 1] as usize].sort_unstable();
        }
        let mut init_out = vec![0u64; targets.len().div_ceil(64)];
        for u in 0..n {
            let run = offsets[u] as usize..offsets[u + 1] as usize;
            for (slot, &t) in targets[run.clone()].iter().enumerate() {
                if rank[u] < rank[t as usize] {
                    bit_set(&mut init_out, run.start + slot);
                }
            }
        }
        let csr = CsrGraph::from_sorted_adjacency(offsets, targets).unwrap();
        instance(csr, init_out, NodeId::new(0))
    }

    /// `random_connected(n, extra, seed)` built the reference way: edges
    /// drawn with a `HashSet`, CSR by scatter, sort and `twin_table`.
    fn reference(n: usize, extra: usize, seed: u64) -> ReversalInstance {
        let mut rng = SmallRng::seed_from_u64(seed);
        let edges = hash_set_edges(n, extra, &mut rng);
        scatter_sort_reference(n, edges, &mut rng)
    }

    #[test]
    fn random_connected_matches_the_hash_set_reference() {
        // Sparse to complete: 1,000 extra edges complete every n here.
        let extras = [0, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 1000];
        let mut cases = 0;
        for n in 2..16 {
            for extra in extras {
                for seed in 0..14 {
                    assert_eq!(
                        random_connected(n, extra, seed),
                        reference(n, extra, seed),
                        "n {n}, extra {extra}, seed {seed}"
                    );
                    cases += 1;
                }
            }
        }
        assert_eq!(cases, 2352);
        // Sizes where the table's probe runs get long, then runs longer
        // than a u64 word of slot bits: dense graphs on 150 nodes, the
        // complete one (149 slots a node) among them.
        for (n, extra, seed) in [
            (1_000, 1_000, 1),
            (3_000, 10_000, 2),
            (150, 10_000, 3),
            (150, 20_000, 4),
            (400, 9_000, 5),
        ] {
            let inst = random_connected(n, extra, seed);
            assert_eq!(inst, reference(n, extra, seed), "n {n}, extra {extra}");
            let max_degree = (0..n).map(|u| inst.csr().degree(u)).max();
            assert!(n != 150 || max_degree > Some(64), "n {n}: {max_degree:?}");
        }
        assert_eq!(
            random_connected(150, 20_000, 4).half_edge_count(),
            150 * 149
        );
    }

    #[test]
    fn key_set_reports_repeats() {
        let mut set = KeySet::with_capacity(4);
        for key in [1, 7, u64::MAX, 7 << 32 | 9] {
            assert!(set.insert(key), "{key} is new");
            assert!(!set.insert(key), "{key} repeats");
        }
    }

    #[test]
    fn random_connected_extra_edges_capped_at_complete() {
        assert_eq!(random_connected(4, 1000, 3).half_edge_count(), 12);
    }

    /// Every family is a valid instance: the validating builder, given
    /// its directed edges, rebuilds it exactly.
    #[test]
    fn every_family_rebuilds_through_the_validating_builder() {
        for flat in [
            chain_away(7),
            chain_toward(6),
            alternating_chain(9),
            star_away(1),
            star_away(5),
            binary_tree_away(2),
            grid_away(3, 4),
            grid_away(5, 1),
            complete_away(5),
            layered(3, 3, 0.4, 5),
            bipartite_away(4, 3, 2),
            random_connected(12, 8, 3),
        ] {
            let arcs: Vec<(u32, u32)> = flat
                .init()
                .directed_edges()
                .map(|(t, h)| (t.raw(), h.raw()))
                .collect();
            assert_eq!(ReversalInstance::from_edges(&arcs, flat.dest), Ok(flat));
        }
    }

    /// Golden values: pins the RNG draws of every random family, which
    /// name the topology of every seeded spec. If this test fails, a
    /// change altered a draw or its order — fix the change, do not
    /// re-pin the texts.
    #[test]
    fn random_families_match_their_golden_text() {
        let random = "dest 0\n1 > 0\n2 > 0\n3 > 0\n5 > 0\n4 > 1\n1 > 5\n2 > 6\n\
                      3 > 6\n4 > 5\n4 > 6\n";
        assert_eq!(to_text(&random_connected(7, 4, 3)), random);
        let bipartite = "dest 0\n0 > 4\n0 > 7\n1 > 4\n1 > 5\n1 > 6\n2 > 5\n2 > 6\n\
                         2 > 7\n3 > 4\n3 > 5\n3 > 6\n3 > 7\n";
        assert_eq!(to_text(&bipartite_away(4, 3, 5)), bipartite);
        let layered_text = "dest 0\n0 > 1\n0 > 2\n0 > 3\n1 > 5\n1 > 6\n2 > 5\n3 > 4\n\
                            3 > 6\n4 > 7\n5 > 7\n5 > 8\n5 > 9\n6 > 9\n";
        assert_eq!(to_text(&layered(3, 3, 0.5, 2)), layered_text);
    }

    /// FNV-1a, 64-bit.
    fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
        bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// The benchmark's engine-1m instance, byte for byte: its text and
    /// its Kahn order, which the GB engines' initial heights come from.
    /// The digests were computed with the scatter-and-sort build of
    /// `scatter_sort_reference` and the `VecDeque` Kahn pass.
    #[test]
    #[ignore = "a million-node build; about a second in release, runs in the CI --ignored tier"]
    fn the_engine_1m_instance_and_its_kahn_order_are_pinned() {
        let inst = random_connected(1_000_000, 1_000_000, 3);
        let text = to_text(&inst);
        assert_eq!(
            (text.len(), fnv1a(text.bytes())),
            (31_271_113, 0x0e32_d2c8_066a_de47)
        );
        let order = inst.init().topological_order().expect("acyclic");
        let bytes = order.iter().flat_map(|&u| (u as u32).to_le_bytes());
        assert_eq!(
            (order.len(), fnv1a(bytes)),
            (1_000_000, 0x821d_db9e_564a_b951)
        );
    }

    #[test]
    fn init_dirs_are_mirrored_across_twins() {
        let inst = random_connected(12, 10, 3);
        let csr = inst.csr();
        for slot in 0..csr.half_edge_count() {
            assert_eq!(
                inst.init().dir_at(slot),
                inst.init().dir_at(csr.twin(slot)).flipped(),
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
}
