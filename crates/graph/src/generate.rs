//! Workload generators: the graph families used by the examples, tests,
//! and the benchmark harness.
//!
//! Every generator returns a validated [`ReversalInstance`] whose initial
//! orientation is acyclic, matching the model of §2. Unless documented
//! otherwise the destination is node `0`.
//!
//! The **`*_away` families direct every edge away from the destination**,
//! which makes *every* other node a "bad node" (no initial path to `D`) —
//! the configuration that exhibits the Θ(n_b²) worst-case total work cited
//! in §1 of the paper.

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::{NodeId, Orientation, ReversalInstance, UndirectedGraph};

fn ids(n: usize) -> Vec<NodeId> {
    (0..n as u32).map(NodeId::new).collect()
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
/// use lr_graph::generate;
/// let inst = generate::chain_away(5);
/// assert_eq!(inst.initial_bad_nodes(), 4);
/// ```
pub fn chain_away(n: usize) -> ReversalInstance {
    assert!(n >= 2, "chain needs at least 2 nodes");
    let mut g = UndirectedGraph::with_nodes(n);
    let mut o = Orientation::new();
    for i in 0..n - 1 {
        let (u, v) = (NodeId::new(i as u32), NodeId::new(i as u32 + 1));
        g.add_edge(u, v).expect("fresh edge");
        o.set_from_to(u, v);
    }
    ReversalInstance::new(g, o, NodeId::new(0)).expect("chain is valid")
}

/// A chain with every edge directed **toward** the destination `v0`:
/// already destination-oriented, so no algorithm performs any work on it.
///
/// # Panics
///
/// Panics if `n < 2`.
pub fn chain_toward(n: usize) -> ReversalInstance {
    assert!(n >= 2, "chain needs at least 2 nodes");
    let mut g = UndirectedGraph::with_nodes(n);
    let mut o = Orientation::new();
    for i in 0..n - 1 {
        let (u, v) = (NodeId::new(i as u32), NodeId::new(i as u32 + 1));
        g.add_edge(u, v).expect("fresh edge");
        o.set_from_to(v, u);
    }
    ReversalInstance::new(g, o, NodeId::new(0)).expect("chain is valid")
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
/// use lr_graph::generate;
/// let inst = generate::alternating_chain(5);
/// // 1 → 0, 1 → 2, 3 → 2, 3 → 4
/// assert_eq!(inst.view().sinks().len(), 3); // nodes 0 (dest), 2, 4
/// ```
pub fn alternating_chain(n: usize) -> ReversalInstance {
    assert!(n >= 2, "chain needs at least 2 nodes");
    let mut g = UndirectedGraph::with_nodes(n);
    let mut o = Orientation::new();
    for i in 0..n - 1 {
        let (u, v) = (NodeId::new(i as u32), NodeId::new(i as u32 + 1));
        g.add_edge(u, v).expect("fresh edge");
        if i % 2 == 1 {
            o.set_from_to(u, v);
        } else {
            o.set_from_to(v, u);
        }
    }
    ReversalInstance::new(g, o, NodeId::new(0)).expect("chain is valid")
}

/// A star with the destination at the center and every edge directed from
/// the center to the leaves. Every leaf is initially a sink and a bad node.
///
/// # Panics
///
/// Panics if `leaves == 0`.
pub fn star_away(leaves: usize) -> ReversalInstance {
    assert!(leaves >= 1, "star needs at least 1 leaf");
    let mut g = UndirectedGraph::with_nodes(leaves + 1);
    let mut o = Orientation::new();
    let center = NodeId::new(0);
    for i in 1..=leaves {
        let leaf = NodeId::new(i as u32);
        g.add_edge(center, leaf).expect("fresh edge");
        o.set_from_to(center, leaf);
    }
    ReversalInstance::new(g, o, center).expect("star is valid")
}

/// A complete binary tree of the given depth (depth 0 = a single edge pair
/// root with two children) rooted at the destination, every edge directed
/// away from the root.
///
/// # Panics
///
/// Panics if `depth == 0` produces fewer than 2 nodes (i.e. never; depth 0
/// gives 3 nodes).
pub fn binary_tree_away(depth: usize) -> ReversalInstance {
    let levels = depth + 2; // root level + depth more levels
    let n = (1usize << levels) - 1;
    let mut g = UndirectedGraph::with_nodes(n);
    let mut o = Orientation::new();
    for i in 1..n {
        let child = NodeId::new(i as u32);
        let parent = NodeId::new(((i - 1) / 2) as u32);
        g.add_edge(parent, child).expect("fresh edge");
        o.set_from_to(parent, child);
    }
    ReversalInstance::new(g, o, NodeId::new(0)).expect("tree is valid")
}

/// An `rows × cols` grid with edges to the right and down, all directed
/// away from the destination in the top-left corner (row-major order).
///
/// # Panics
///
/// Panics if `rows * cols < 2`.
pub fn grid_away(rows: usize, cols: usize) -> ReversalInstance {
    assert!(rows * cols >= 2, "grid needs at least 2 nodes");
    let id = |r: usize, c: usize| NodeId::new((r * cols + c) as u32);
    let mut g = UndirectedGraph::with_nodes(rows * cols);
    let mut o = Orientation::new();
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                g.add_edge(id(r, c), id(r, c + 1)).expect("fresh edge");
                o.set_from_to(id(r, c), id(r, c + 1));
            }
            if r + 1 < rows {
                g.add_edge(id(r, c), id(r + 1, c)).expect("fresh edge");
                o.set_from_to(id(r, c), id(r + 1, c));
            }
        }
    }
    ReversalInstance::new(g, o, NodeId::new(0)).expect("grid is valid")
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
    let mut g = UndirectedGraph::with_nodes(n);
    let mut o = Orientation::new();
    for i in 0..n {
        for j in i + 1..n {
            let (u, v) = (NodeId::new(i as u32), NodeId::new(j as u32));
            g.add_edge(u, v).expect("fresh edge");
            o.set_from_to(u, v);
        }
    }
    ReversalInstance::new(g, o, NodeId::new(0)).expect("complete graph is valid")
}

/// A layered DAG: `depth` layers of `width` nodes plus the destination in
/// its own layer 0. Each node connects to a random non-empty subset of the
/// previous layer (edge probability `p`, at least one forced link for
/// connectivity), all edges directed away from the destination.
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
    let mut rng = SmallRng::seed_from_u64(seed);
    let n = 1 + width * depth;
    let mut g = UndirectedGraph::with_nodes(n);
    let mut o = Orientation::new();
    let node_at = |layer: usize, i: usize| -> NodeId {
        if layer == 0 {
            NodeId::new(0)
        } else {
            NodeId::new((1 + (layer - 1) * width + i) as u32)
        }
    };
    let layer_size = |layer: usize| if layer == 0 { 1 } else { width };
    for layer in 1..=depth {
        for i in 0..width {
            let v = node_at(layer, i);
            let prev = layer - 1;
            let mut linked = false;
            for j in 0..layer_size(prev) {
                if rng.gen_bool(p) {
                    let u = node_at(prev, j);
                    g.add_edge(u, v).expect("fresh edge");
                    o.set_from_to(u, v);
                    linked = true;
                }
            }
            if !linked {
                let j = rng.gen_range(0..layer_size(prev));
                let u = node_at(prev, j);
                g.add_edge(u, v).expect("fresh edge");
                o.set_from_to(u, v);
            }
        }
    }
    ReversalInstance::new(g, o, NodeId::new(0)).expect("layered graph is valid")
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
/// neighbors — one deterministic for connectivity, the rest random).
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
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut g = UndirectedGraph::with_nodes(2 * width);
    let mut o = Orientation::new();
    for i in 0..width {
        let b = NodeId::new((width + i) as u32);
        // Deterministic ring A_i — B_i — A_{i+1}: guarantees
        // connectivity and coverage of both sides regardless of the
        // random draws below.
        for a in [i, (i + 1) % width] {
            let a = NodeId::new(a as u32);
            g.add_edge(a, b).expect("fresh edge");
            o.set_from_to(a, b);
        }
        let mut added = 2;
        let mut attempts = 0;
        while added < degree && attempts < 50 * degree {
            attempts += 1;
            let a = NodeId::new(rng.gen_range(0..width) as u32);
            if !g.contains_edge(a, b) {
                g.add_edge(a, b).expect("checked fresh");
                o.set_from_to(a, b);
                added += 1;
            }
        }
    }
    ReversalInstance::new(g, o, NodeId::new(0)).expect("bipartite instance is valid")
}

/// A random connected graph: a random spanning tree over `n` nodes plus
/// `extra_edges` additional random edges, oriented by a uniformly random
/// topological order. The destination is node 0.
///
/// Some nodes typically have no initial path to the destination, giving
/// the algorithms real work to do.
///
/// # Panics
///
/// Panics if `n < 2`.
pub fn random_connected(n: usize, extra_edges: usize, seed: u64) -> ReversalInstance {
    assert!(n >= 2, "graph needs at least 2 nodes");
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut g = UndirectedGraph::with_nodes(n);
    // Random attachment spanning tree.
    for i in 1..n {
        let parent = rng.gen_range(0..i);
        g.add_edge(NodeId::new(parent as u32), NodeId::new(i as u32))
            .expect("fresh edge");
    }
    // Extra edges, skipping duplicates; cap attempts to stay total.
    let max_edges = n * (n - 1) / 2;
    let target = (n - 1).saturating_add(extra_edges).min(max_edges);
    let mut attempts = 0;
    while g.edge_count() < target && attempts < 50 * target {
        attempts += 1;
        let u = rng.gen_range(0..n);
        let v = rng.gen_range(0..n);
        if u == v {
            continue;
        }
        let (u, v) = (NodeId::new(u as u32), NodeId::new(v as u32));
        if !g.contains_edge(u, v) {
            g.add_edge(u, v).expect("checked fresh");
        }
    }
    let mut order = ids(n);
    order.shuffle(&mut rng);
    let o = Orientation::from_order(&g, &order);
    ReversalInstance::new(g, o, NodeId::new(0)).expect("random graph is valid")
}

/// Like [`random_connected`] but with the orientation chosen so that the
/// destination is the **maximum** of the topological order: every edge on
/// the destination is incoming, and typically many nodes already reach it.
pub fn random_connected_oriented_toward(
    n: usize,
    extra_edges: usize,
    seed: u64,
) -> ReversalInstance {
    let base = random_connected(n, extra_edges, seed);
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
    let mut order: Vec<NodeId> = base.graph.nodes().filter(|&u| u != base.dest).collect();
    order.shuffle(&mut rng);
    order.push(base.dest);
    let o = Orientation::from_order(&base.graph, &order);
    ReversalInstance::new(base.graph, o, base.dest).expect("valid")
}

/// A uniformly random acyclic orientation of an existing graph (orient by
/// a random permutation of the nodes).
pub fn random_orientation(graph: &UndirectedGraph, seed: u64) -> Orientation {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut order: Vec<NodeId> = graph.nodes().collect();
    order.shuffle(&mut rng);
    Orientation::from_order(graph, &order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DirectedView;

    #[test]
    fn bipartite_away_has_one_wide_sink_side() {
        let inst = bipartite_away(8, 3, 7);
        assert_eq!(inst.node_count(), 16);
        // Side B (ids 8..16) is exactly the initial sink set.
        let sinks = inst.view().sinks();
        assert_eq!(sinks.len(), 8);
        assert!(sinks.iter().all(|u| u.raw() >= 8));
        // Every B node carries the requested degree.
        for i in 8..16 {
            assert_eq!(inst.graph.degree(NodeId::new(i)), 3);
        }
        // Deterministic per seed.
        let again = bipartite_away(8, 3, 7);
        assert_eq!(inst, again);
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
            assert!(inst.graph.is_connected(), "seed {seed}");
        }
    }

    #[test]
    fn chain_away_all_nodes_bad() {
        let inst = chain_away(6);
        assert_eq!(inst.node_count(), 6);
        assert_eq!(inst.initial_bad_nodes(), 5);
        assert_eq!(inst.view().sinks(), vec![NodeId::new(5)]);
    }

    #[test]
    fn chain_toward_is_destination_oriented() {
        let inst = chain_toward(6);
        assert!(inst.view().is_destination_oriented(inst.dest));
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
        assert_eq!(inst.view().sinks().len(), 4);
        assert_eq!(inst.initial_bad_nodes(), 4);
    }

    #[test]
    fn binary_tree_structure() {
        let inst = binary_tree_away(1); // 7 nodes
        assert_eq!(inst.node_count(), 7);
        assert_eq!(inst.graph.edge_count(), 6);
        assert!(inst.view().is_acyclic());
        // Leaves are the 4 deepest nodes, all sinks.
        assert_eq!(inst.view().sinks().len(), 4);
    }

    #[test]
    fn grid_shape_and_acyclicity() {
        let inst = grid_away(3, 4);
        assert_eq!(inst.node_count(), 12);
        // Edges: 3*(4-1) horizontal + (3-1)*4 vertical = 9 + 8 = 17.
        assert_eq!(inst.graph.edge_count(), 17);
        assert!(inst.view().is_acyclic());
        // Bottom-right corner is the unique sink.
        assert_eq!(inst.view().sinks(), vec![NodeId::new(11)]);
    }

    #[test]
    fn complete_away_is_total_order() {
        let inst = complete_away(5);
        assert_eq!(inst.graph.edge_count(), 10);
        assert!(inst.view().is_acyclic());
        assert_eq!(inst.view().sinks(), vec![NodeId::new(4)]);
    }

    #[test]
    fn layered_is_connected_dag() {
        for seed in 0..5 {
            let inst = layered(4, 3, 0.4, seed);
            assert!(inst.graph.is_connected());
            assert!(inst.view().is_acyclic());
            assert_eq!(inst.node_count(), 13);
        }
    }

    #[test]
    fn random_connected_is_valid_and_deterministic() {
        let a = random_connected(20, 15, 7);
        let b = random_connected(20, 15, 7);
        assert_eq!(a, b, "same seed must give the same instance");
        assert!(a.graph.is_connected());
        assert!(a.view().is_acyclic());
        assert!(a.graph.edge_count() >= 19);
        let c = random_connected(20, 15, 8);
        assert_ne!(a, c, "different seeds should differ");
    }

    #[test]
    fn random_connected_extra_edges_capped_at_complete() {
        let inst = random_connected(4, 1000, 3);
        assert_eq!(inst.graph.edge_count(), 6);
    }

    #[test]
    fn oriented_toward_leaves_destination_as_global_sink_candidate() {
        let inst = random_connected_oriented_toward(15, 10, 11);
        // Every edge at the destination is incoming.
        let view = DirectedView::new(&inst.graph, &inst.init);
        assert_eq!(view.out_degree(inst.dest), 0);
        // The destination is a sink of the initial DAG, so at least its
        // neighbors reach it; typically many more do.
        assert!(view.nodes_reaching(inst.dest).len() > 1);
    }

    #[test]
    fn random_orientation_is_acyclic() {
        let inst = random_connected(12, 20, 5);
        for seed in 0..10 {
            let o = random_orientation(&inst.graph, seed);
            assert!(DirectedView::new(&inst.graph, &o).is_acyclic());
            assert!(o.covers(&inst.graph));
        }
    }
}
