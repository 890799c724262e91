//! Exhaustive enumeration of small graphs and orientations, the substrate
//! for the model-checking harness (experiments E1–E6).
//!
//! The paper's invariants are universally quantified over *reachable
//! states* of executions starting from *any* connected graph, *any*
//! acyclic initial orientation, and *any* destination. For small `n`, all
//! of these can be enumerated, turning the paper's induction proofs into
//! finite, machine-checkable statements.

use crate::{DirectedView, NodeId, Orientation, ReversalInstance, UndirectedGraph};

/// Enumerates all labeled connected simple graphs on `n` nodes.
///
/// The number of edge subsets is `2^(n(n-1)/2)`, so this is intended for
/// `n ≤ 6` (`n = 5` gives 1024 subsets; `n = 6` gives 32768).
///
/// # Panics
///
/// Panics if `n == 0` or `n > 7` (guards against accidental explosion).
///
/// ```
/// use lr_graph::enumerate::connected_graphs;
/// // 1, 1, 4, 38, 728 labeled connected graphs on 1..=5 nodes.
/// assert_eq!(connected_graphs(3).len(), 4);
/// assert_eq!(connected_graphs(4).len(), 38);
/// ```
pub fn connected_graphs(n: usize) -> Vec<UndirectedGraph> {
    assert!((1..=7).contains(&n), "connected_graphs is for 1 ≤ n ≤ 7");
    let pairs: Vec<(u32, u32)> = (0..n as u32)
        .flat_map(|i| ((i + 1)..n as u32).map(move |j| (i, j)))
        .collect();
    let m = pairs.len();
    let mut out = Vec::new();
    for mask in 0..(1u64 << m) {
        let mut g = UndirectedGraph::with_nodes(n);
        for (bit, &(i, j)) in pairs.iter().enumerate() {
            if mask >> bit & 1 == 1 {
                g.add_edge(NodeId::new(i), NodeId::new(j)).expect("fresh");
            }
        }
        if g.is_connected() {
            out.push(g);
        }
    }
    out
}

/// Enumerates all acyclic orientations of `graph`.
///
/// Tries all `2^m` direction assignments and keeps the acyclic ones; meant
/// for graphs with at most ~20 edges.
///
/// # Panics
///
/// Panics if the graph has more than 24 edges.
///
/// ```
/// use lr_graph::enumerate::acyclic_orientations;
/// use lr_graph::UndirectedGraph;
/// // A triangle has 6 orientations, 2 of which are cyclic.
/// let g = UndirectedGraph::from_edges(&[(0, 1), (1, 2), (0, 2)]).unwrap();
/// assert_eq!(acyclic_orientations(&g).len(), 6);
/// ```
pub fn acyclic_orientations(graph: &UndirectedGraph) -> Vec<Orientation> {
    let edges: Vec<(NodeId, NodeId)> = graph.edges().collect();
    let m = edges.len();
    assert!(m <= 24, "too many edges for exhaustive orientation");
    let mut out = Vec::new();
    for mask in 0..(1u64 << m) {
        let mut o = Orientation::new();
        for (bit, &(u, v)) in edges.iter().enumerate() {
            if mask >> bit & 1 == 1 {
                o.set_from_to(u, v);
            } else {
                o.set_from_to(v, u);
            }
        }
        if DirectedView::new(graph, &o).is_acyclic() {
            out.push(o);
        }
    }
    out
}

/// Enumerates every [`ReversalInstance`] on `n` nodes: all connected
/// graphs × all acyclic orientations × all destinations.
///
/// This is the full input space of the paper's model for size `n`. The
/// counts grow quickly: `n = 3` yields 54 instances, `n = 4` yields
/// 1,784 and `n = 5` yields 132,150 (checked against the independent
/// count `Σ_G n · T_G(2, 0)`, see [`tutte`]).
pub fn all_instances(n: usize) -> Vec<ReversalInstance> {
    let mut out = Vec::new();
    for g in connected_graphs(n) {
        for o in acyclic_orientations(&g) {
            for dest in g.nodes() {
                out.push(
                    ReversalInstance::new(g.clone(), o.clone(), dest)
                        .expect("enumerated instance is valid"),
                );
            }
        }
    }
    out
}

/// The Tutte polynomial `T_G(x, y)`, by Whitney's subset expansion
/// `Σ_{A ⊆ E} (x − 1)^{r(E) − r(A)} (y − 1)^{|A| − r(A)}`, where `r(A)` is
/// the number of edges of a spanning forest of `(V, A)`.
///
/// Two evaluations count what the model checker enumerates, sharing no
/// code with [`acyclic_orientations`]:
///
/// * `T_G(2, 0)` is the number of acyclic orientations (Stanley's
///   theorem: `|χ_G(−1)|`), the oracle for the claim to cover every
///   instance;
/// * `T_G(1, 0)` is the number of acyclic orientations whose only sink is
///   a given node (Greene–Zaslavsky), i.e. the instances with that
///   destination that start destination-oriented.
///
/// # Panics
///
/// Panics if the graph has more than 24 edges.
///
/// ```
/// use lr_graph::enumerate::tutte;
/// use lr_graph::UndirectedGraph;
/// // K4: one acyclic orientation per ordering of its 4 nodes; node 0 is
/// // the only sink of the 3! orderings that end at it.
/// let k4 =
///     UndirectedGraph::from_edges(&[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]).unwrap();
/// assert_eq!(tutte(&k4, 2, 0), 24);
/// assert_eq!(tutte(&k4, 1, 0), 6);
/// ```
pub fn tutte(graph: &UndirectedGraph, x: i64, y: i64) -> i64 {
    let nodes: Vec<NodeId> = graph.nodes().collect();
    let index = |u: NodeId| nodes.binary_search(&u).expect("edge endpoints are nodes");
    let edges: Vec<(usize, usize)> = graph.edges().map(|(u, v)| (index(u), index(v))).collect();
    let m = edges.len();
    assert!(m <= 24, "too many edges for the subset expansion");
    fn root(parent: &mut [usize], mut u: usize) -> usize {
        while parent[u] != u {
            parent[u] = parent[parent[u]];
            u = parent[u];
        }
        u
    }
    let mut parent: Vec<usize> = Vec::with_capacity(nodes.len());
    let mut rank_of = |mask: u64| -> u32 {
        parent.clear();
        parent.extend(0..nodes.len());
        let mut rank = 0u32;
        for (bit, &(u, v)) in edges.iter().enumerate() {
            if mask >> bit & 1 == 1 {
                let (ru, rv) = (root(&mut parent, u), root(&mut parent, v));
                if ru != rv {
                    parent[ru] = rv;
                    rank += 1;
                }
            }
        }
        rank
    };
    let full = (1u64 << m) - 1;
    let rank_e = rank_of(full);
    (0..=full)
        .map(|mask| {
            let r = rank_of(mask);
            (x - 1).pow(rank_e - r) * (y - 1).pow(mask.count_ones() - r)
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn connected_graph_counts_match_oeis_a001187() {
        // OEIS A001187: 1, 1, 1, 4, 38, 728 labeled connected graphs.
        assert_eq!(connected_graphs(1).len(), 1);
        assert_eq!(connected_graphs(2).len(), 1);
        assert_eq!(connected_graphs(3).len(), 4);
        assert_eq!(connected_graphs(4).len(), 38);
    }

    #[test]
    fn acyclic_orientation_count_of_path() {
        // Every orientation of a tree is acyclic: 2^(n-1).
        let g = UndirectedGraph::from_edges(&[(0, 1), (1, 2), (2, 3)]).unwrap();
        assert_eq!(acyclic_orientations(&g).len(), 8);
    }

    #[test]
    fn acyclic_orientation_count_of_triangle_and_k4() {
        // Acyclic orientations are counted by |chi(-1)| where chi is the
        // chromatic polynomial: triangle -> 6, K4 -> 24.
        let tri = UndirectedGraph::from_edges(&[(0, 1), (1, 2), (0, 2)]).unwrap();
        assert_eq!(acyclic_orientations(&tri).len(), 6);
        let k4 =
            UndirectedGraph::from_edges(&[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]).unwrap();
        assert_eq!(acyclic_orientations(&k4).len(), 24);
    }

    #[test]
    fn all_instances_are_valid_and_counted() {
        // n = 3: graphs = {path(012), path(102), path(021), triangle}
        // paths: 4 orientations each... path on 3 nodes has 2 edges -> 4
        // acyclic orientations; triangle has 6. Instances multiply by 3
        // destinations: (3 paths * 4 + 6) * 3 = (12 + 6) * 3 = 54.
        let insts = all_instances(3);
        assert_eq!(insts.len(), 54);
        for inst in &insts {
            assert!(inst.view().is_acyclic());
            assert!(inst.graph.is_connected());
        }
    }

    #[test]
    fn subset_expansion_counts_every_acyclic_orientation() {
        for n in 1..=5 {
            for g in connected_graphs(n) {
                assert_eq!(
                    tutte(&g, 2, 0),
                    acyclic_orientations(&g).len() as i64,
                    "{g:?}"
                );
            }
        }
    }

    /// Σ_G n · T_G(2, 0) over the connected graphs on `n` nodes: one
    /// instance per graph, acyclic orientation, and destination.
    fn independent_instance_count(n: usize) -> u64 {
        connected_graphs(n)
            .iter()
            .map(|g| u64::try_from(tutte(g, 2, 0)).expect("a count") * n as u64)
            .sum()
    }

    #[test]
    fn all_instances_matches_the_independent_count() {
        for (n, count) in [(3, 54), (4, 1_784)] {
            assert_eq!(independent_instance_count(n), count);
            assert_eq!(all_instances(n).len() as u64, count);
        }
    }

    #[test]
    #[ignore = "all_instances(5) takes seconds in a debug build; run with --ignored"]
    fn all_instances_matches_the_independent_count_at_n5() {
        assert_eq!(independent_instance_count(5), 132_150);
        assert_eq!(all_instances(5).len(), 132_150);
    }
}
