//! Exhaustive enumeration of small graphs and orientations, the substrate
//! for the model-checking harness (experiments E1–E6).
//!
//! The paper's invariants are universally quantified over *reachable
//! states* of executions starting from *any* connected graph, *any*
//! acyclic initial orientation, and *any* destination. For small `n`, all
//! of these can be enumerated, turning the paper's induction proofs into
//! finite, machine-checkable statements. [`all_instances`] lists every
//! labeled instance; [`instance_orbits`] lists one per isomorphism class,
//! weighted by the size of its class.

use std::sync::Arc;

use crate::{CsrBuilder, CsrGraph, NodeId, Orientation, ReversalInstance};

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
pub fn connected_graphs(n: usize) -> Vec<Arc<CsrGraph>> {
    assert!((1..=7).contains(&n), "connected_graphs is for 1 ≤ n ≤ 7");
    let pairs = node_pairs(n);
    (0..1u32 << pairs.len())
        .filter(|&mask| mask_is_connected(n, &pairs, mask))
        .map(|mask| graph_of(n, &masked_pairs(&pairs, mask)))
        .collect()
}

/// Enumerates all acyclic orientations of `graph`.
///
/// Tries all `2^m` direction assignments and keeps the acyclic ones; meant
/// for graphs with at most ~20 edges. Bit `k` of an assignment directs the
/// `k`-th edge in canonical order from its smaller endpoint, and the
/// orientations come in assignment order.
///
/// # Panics
///
/// Panics if the graph has more than 24 edges.
///
/// ```
/// use lr_graph::enumerate::{acyclic_orientations, connected_graphs};
/// // The triangle (the last connected graph on 3 nodes) has 8
/// // orientations, 2 of which are cyclic.
/// let triangle = connected_graphs(3).pop().unwrap();
/// assert_eq!(acyclic_orientations(&triangle).len(), 6);
/// ```
pub fn acyclic_orientations(graph: &Arc<CsrGraph>) -> Vec<Orientation> {
    let m = graph.edge_count();
    assert!(m <= 24, "too many edges for exhaustive orientation");
    (0..1u64 << m)
        .map(|mask| oriented(graph, mask))
        .filter(Orientation::is_acyclic)
        .collect()
}

/// The orientation of `graph` whose `k`-th canonical edge points from its
/// smaller endpoint iff bit `k` of `mask` is set.
fn oriented(graph: &Arc<CsrGraph>, mask: u64) -> Orientation {
    let mut k = 0;
    Orientation::from_fn(Arc::clone(graph), |_, _| {
        k += 1;
        mask >> (k - 1) & 1 == 1
    })
}

/// The graph on nodes `0..n` with the given edges `(i, j)`, `i < j`, in
/// lexicographic order.
fn graph_of(n: usize, edges: &[(usize, usize)]) -> Arc<CsrGraph> {
    let mut adjacency = vec![Vec::new(); n];
    for &(i, j) in edges {
        adjacency[i].push(j as u32);
        adjacency[j].push(i as u32);
    }
    let mut b = CsrBuilder::with_capacity(n, 2 * edges.len());
    for run in &adjacency {
        b.push_node(run);
    }
    Arc::new(b.finish().expect("a small graph"))
}

/// The pairs whose bit is set in `mask`.
fn masked_pairs(pairs: &[(usize, usize)], mask: u32) -> Vec<(usize, usize)> {
    pairs
        .iter()
        .enumerate()
        .filter(|&(k, _)| mask >> k & 1 == 1)
        .map(|(_, &e)| e)
        .collect()
}

/// Enumerates every [`ReversalInstance`] on `n` nodes: all connected
/// graphs × all acyclic orientations × all destinations.
///
/// This is the full labeled input space of the paper's model for size
/// `n`. The counts grow quickly: `n = 3` yields 54 instances, `n = 4`
/// yields 1,784 and `n = 5` yields 132,150 (checked against the
/// independent count `Σ_G n · T_G(2, 0)`, see [`tutte`]); `n = 6` would
/// yield 21,580,572. The model checker sweeps [`instance_orbits`]
/// instead, one instance per isomorphism class; this labeled space is
/// the reference its tests compare against.
pub fn all_instances(n: usize) -> Vec<ReversalInstance> {
    let mut out = Vec::new();
    for g in connected_graphs(n) {
        for o in acyclic_orientations(&g) {
            for dest in g.nodes() {
                out.push(
                    ReversalInstance::new(o.clone(), dest).expect("enumerated instance is valid"),
                );
            }
        }
    }
    out
}

/// One [`ReversalInstance`] per isomorphism class of instances on `n`
/// nodes, each with its orbit size: the number of labeled instances in
/// [`all_instances`] that are relabelings of it, `n! / |Aut(G, O, D)|`.
///
/// Built by filter-then-canonicalize: each class of connected graphs is
/// represented by its member with the smallest edge mask over all `n!`
/// relabelings, together with its automorphism group `Aut(G)`. The
/// acyclic orientations and destinations of that member are then taken up
/// to `Aut(G)`: `(O, D)` represents its orbit when no automorphism maps it
/// to a smaller `(O, D)`, and the automorphisms that fix it are
/// `Aut(G, O, D)`. Representatives come in a fixed order (graph mask,
/// then orientation mask, then destination).
///
/// The orbit sizes sum to `all_instances(n).len()`: 54, 1,784, 132,150
/// and 21,580,572 at `n = 3..=6`, from 10, 84, 1,225 and 32,389
/// representatives.
///
/// # Panics
///
/// Panics if `n == 0` or `n > 6`. `n = 7` has more than 1.5 M classes;
/// enumerating them needs orderly generation rather than filtering 2²¹
/// edge masks against 5,040 relabelings.
///
/// ```
/// use lr_graph::enumerate::instance_orbits;
/// // The 4 labeled instances on one edge form 2 classes: the
/// // destination at the edge's head, or at its tail.
/// let orbits = instance_orbits(2);
/// assert_eq!(orbits.iter().map(|&(_, size)| size).collect::<Vec<_>>(), [2, 2]);
/// ```
pub fn instance_orbits(n: usize) -> Vec<(ReversalInstance, u64)> {
    assert!((1..=6).contains(&n), "instance_orbits is for 1 ≤ n ≤ 6");
    let pairs = node_pairs(n);
    let n_factorial: u64 = (1..=n as u64).product();
    let orders = permutations(n);
    let mut out = Vec::new();
    for class in connected_graph_classes(n) {
        let edges = masked_pairs(&pairs, class.mask);
        let graph = graph_of(n, &edges);
        // Orientation bit k is set when edges[k] = (i, j), i < j, points
        // i → j. Every acyclic orientation is the one some node order
        // induces (each edge points from the earlier node to the later),
        // and every order induces an acyclic one.
        let mut orientations: Vec<u32> = orders
            .iter()
            .map(|rank| {
                edges
                    .iter()
                    .enumerate()
                    .filter(|&(_, &(i, j))| rank[i] < rank[j])
                    .fold(0, |o, (k, _)| o | 1 << k)
            })
            .collect();
        orientations.sort_unstable();
        orientations.dedup();
        // Each automorphism sends edge k to edge `to`, pointing the other
        // way relative to mask order when `flip`.
        let edge_index = |u: usize, v: usize| {
            edges
                .binary_search(&(u.min(v), u.max(v)))
                .expect("an automorphism maps edges to edges")
        };
        let moves: Vec<Vec<(usize, bool)>> = class
            .automorphisms
            .iter()
            .map(|p| {
                edges
                    .iter()
                    .map(|&(i, j)| (edge_index(p[i], p[j]), p[i] > p[j]))
                    .collect()
            })
            .collect();
        let image = |o: u32, moves: &[(usize, bool)]| {
            moves
                .iter()
                .enumerate()
                .fold(0u32, |img, (k, &(to, flip))| {
                    img | u32::from((o >> k & 1 == 1) != flip) << to
                })
        };
        for &o in &orientations {
            for dest in 0..n {
                let mut stabilizer = 0u64;
                let smallest = class.automorphisms.iter().zip(&moves).all(|(p, moves)| {
                    let moved = (image(o, moves), p[dest]);
                    stabilizer += u64::from(moved == (o, dest));
                    moved >= (o, dest)
                });
                if smallest {
                    let inst = ReversalInstance::new(oriented(&graph, o.into()), node(dest))
                        .expect("enumerated instance is valid");
                    out.push((inst, n_factorial / stabilizer));
                }
            }
        }
    }
    out
}

/// One isomorphism class of connected graphs: its canonical member and
/// that member's automorphisms.
struct GraphClass {
    /// The class's smallest edge mask over all relabelings; bit `k` is the
    /// `k`-th pair of [`node_pairs`].
    mask: u32,
    /// Every node map `p` (`u ↦ p[u]`) that fixes `mask`, the identity
    /// first.
    automorphisms: Vec<Vec<usize>>,
}

/// The isomorphism classes of connected graphs on `n` nodes, in mask
/// order: every connected edge mask that no relabeling makes smaller.
fn connected_graph_classes(n: usize) -> Vec<GraphClass> {
    let pairs = node_pairs(n);
    let mut bit = vec![vec![0usize; n]; n];
    for (k, &(i, j)) in pairs.iter().enumerate() {
        bit[i][j] = k;
        bit[j][i] = k;
    }
    let maps = permutations(n);
    // Under each map, the mask bit each pair's bit moves to.
    let moves: Vec<Vec<u32>> = maps
        .iter()
        .map(|p| pairs.iter().map(|&(i, j)| 1 << bit[p[i]][p[j]]).collect())
        .collect();
    let relabel = |mask: u32, moves: &[u32]| {
        moves
            .iter()
            .enumerate()
            .filter(|&(k, _)| mask >> k & 1 == 1)
            .fold(0u32, |m, (_, &b)| m | b)
    };
    (0..1u32 << pairs.len())
        .filter(|&mask| mask_is_connected(n, &pairs, mask))
        .filter_map(|mask| {
            let mut automorphisms = Vec::new();
            for (p, moves) in maps.iter().zip(&moves) {
                match relabel(mask, moves).cmp(&mask) {
                    std::cmp::Ordering::Less => return None,
                    std::cmp::Ordering::Equal => automorphisms.push(p.clone()),
                    std::cmp::Ordering::Greater => {}
                }
            }
            Some(GraphClass {
                mask,
                automorphisms,
            })
        })
        .collect()
}

/// Whether the graph on `0..n` with edge mask `mask` is connected.
fn mask_is_connected(n: usize, pairs: &[(usize, usize)], mask: u32) -> bool {
    let mut adj = vec![0u32; n];
    for (k, &(i, j)) in pairs.iter().enumerate() {
        if mask >> k & 1 == 1 {
            adj[i] |= 1 << j;
            adj[j] |= 1 << i;
        }
    }
    let mut reached = 1u32;
    loop {
        let next = (0..n)
            .filter(|&u| reached >> u & 1 == 1)
            .fold(reached, |r, u| r | adj[u]);
        if next == reached {
            return reached.count_ones() as usize == n;
        }
        reached = next;
    }
}

/// The unordered pairs `(i, j)`, `i < j`, of `0..n`: the edge-mask bit
/// order of [`connected_graphs`] and [`instance_orbits`].
fn node_pairs(n: usize) -> Vec<(usize, usize)> {
    (0..n)
        .flat_map(|i| (i + 1..n).map(move |j| (i, j)))
        .collect()
}

/// Every permutation of `0..n` in lexicographic order, the identity first.
fn permutations(n: usize) -> Vec<Vec<usize>> {
    let mut p: Vec<usize> = (0..n).collect();
    let mut out = vec![p.clone()];
    // Narayana's next-permutation step until the order is descending.
    while let Some(i) = (1..n).rev().find(|&i| p[i - 1] < p[i]) {
        let j = (i..n)
            .rev()
            .find(|&j| p[i - 1] < p[j])
            .expect("p[i] qualifies");
        p.swap(i - 1, j);
        p[i..].reverse();
        out.push(p.clone());
    }
    out
}

fn node(i: usize) -> NodeId {
    NodeId::new(u32::try_from(i).expect("a small node index"))
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
/// use lr_graph::enumerate::{connected_graphs, tutte};
/// // K4 (the last connected graph on 4 nodes): one acyclic orientation
/// // per ordering of its 4 nodes; node 0 is the only sink of the 3!
/// // orderings that end at it.
/// let k4 = connected_graphs(4).pop().unwrap();
/// assert_eq!(tutte(&k4, 2, 0), 24);
/// assert_eq!(tutte(&k4, 1, 0), 6);
/// ```
pub fn tutte(graph: &CsrGraph, x: i64, y: i64) -> i64 {
    let n = graph.node_count();
    let edges: Vec<(usize, usize)> = (0..n)
        .flat_map(|u| {
            graph
                .neighbor_indices(u)
                .iter()
                .map(move |&v| (u, v as usize))
        })
        .filter(|&(u, v)| u < v)
        .collect();
    let m = edges.len();
    assert!(m <= 24, "too many edges for the subset expansion");
    fn root(parent: &mut [usize], mut u: usize) -> usize {
        while parent[u] != u {
            parent[u] = parent[parent[u]];
            u = parent[u];
        }
        u
    }
    let mut parent: Vec<usize> = Vec::with_capacity(n);
    let mut rank_of = |mask: u64| -> u32 {
        parent.clear();
        parent.extend(0..n);
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
    use std::collections::HashMap;

    #[test]
    fn acyclic_orientation_count_of_path() {
        // Every orientation of a tree is acyclic: 2^(n-1).
        let path = graph_of(4, &[(0, 1), (1, 2), (2, 3)]);
        assert_eq!(acyclic_orientations(&path).len(), 8);
    }

    #[test]
    fn acyclic_orientation_count_of_triangle_and_k4() {
        // Acyclic orientations are counted by |chi(-1)| where chi is the
        // chromatic polynomial: triangle -> 6, K4 -> 24.
        let tri = graph_of(3, &node_pairs(3));
        assert_eq!(acyclic_orientations(&tri).len(), 6);
        let k4 = graph_of(4, &node_pairs(4));
        assert_eq!(acyclic_orientations(&k4).len(), 24);
    }

    #[test]
    fn orientations_come_in_mask_order() {
        // Bit k directs the k-th canonical edge of the path 0 — 1 — 2 from
        // its smaller end.
        let path = graph_of(3, &[(0, 1), (1, 2)]);
        let arcs: Vec<Vec<(u32, u32)>> = acyclic_orientations(&path)
            .iter()
            .map(|o| {
                o.directed_edges()
                    .map(|(t, h)| (t.raw(), h.raw()))
                    .collect()
            })
            .collect();
        assert_eq!(
            arcs,
            vec![
                vec![(1, 0), (2, 1)],
                vec![(0, 1), (2, 1)],
                vec![(1, 0), (1, 2)],
                vec![(0, 1), (1, 2)],
            ]
        );
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
            assert!(inst.init().is_acyclic());
            assert!(inst.csr().is_connected());
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

    #[test]
    fn permutations_are_every_node_map_once() {
        for n in 0..=5 {
            let maps = permutations(n);
            assert_eq!(maps.len(), (1..=n).product::<usize>());
            assert!(maps.windows(2).all(|w| w[0] < w[1]), "strictly increasing");
            assert!(maps.iter().all(|p| {
                let mut sorted = p.clone();
                sorted.sort_unstable();
                sorted == (0..n).collect::<Vec<_>>()
            }));
        }
    }

    #[test]
    fn graph_classes_match_oeis_a001349_and_a001187() {
        // OEIS A001349: 1, 1, 2, 6, 21, 112 unlabeled connected graphs;
        // a class of n!/|Aut(G)| labeled members each, they add up to
        // A001187: 1, 1, 4, 38, 728, 26,704 labeled connected graphs.
        for (n, classes, labeled) in [
            (1, 1, 1),
            (2, 1, 1),
            (3, 2, 4),
            (4, 6, 38),
            (5, 21, 728),
            (6, 112, 26_704),
        ] {
            let found = connected_graph_classes(n);
            assert_eq!(found.len(), classes, "n = {n}");
            let n_factorial: usize = (1..=n).product();
            let members: usize = found
                .iter()
                .map(|c| n_factorial / c.automorphisms.len())
                .sum();
            assert_eq!(members, labeled, "n = {n}");
        }
        for (n, labeled) in [(1, 1), (2, 1), (3, 4), (4, 38)] {
            assert_eq!(connected_graphs(n).len(), labeled);
        }
    }

    /// Σ of the orbit sizes of `instance_orbits(n)`.
    fn orbit_size_sum(orbits: &[(ReversalInstance, u64)]) -> u64 {
        orbits.iter().map(|&(_, size)| size).sum()
    }

    #[test]
    fn orbit_sizes_sum_to_the_independent_count() {
        // Stanley: Σ_G n · T_G(2, 0) over the labeled connected graphs
        // counts the labeled instances, with no enumeration of
        // orientations or relabelings.
        for (n, representatives) in [(1, 1), (2, 2), (3, 10), (4, 84), (5, 1_225)] {
            let orbits = instance_orbits(n);
            assert_eq!(orbits.len(), representatives, "n = {n}");
            assert_eq!(orbit_size_sum(&orbits), independent_instance_count(n));
        }
    }

    #[test]
    fn orbit_sizes_sum_to_the_pinned_count_at_n6() {
        // 6 destinations × 3,596,762 weakly connected labeled DAGs on 6
        // nodes (OEIS A082402: Robinson's acyclic-digraph recurrence,
        // restricted to connected ones by the exponential formula), in
        // 32,389 classes.
        let orbits = instance_orbits(6);
        assert_eq!(orbits.len(), 32_389);
        assert_eq!(orbit_size_sum(&orbits), 21_580_572);
    }

    /// The smallest relabeling of an instance, as its sorted directed edges
    /// and destination: equal exactly for isomorphic instances.
    fn brute_force_canonical_form(inst: &ReversalInstance) -> (Vec<(usize, usize)>, usize) {
        permutations(inst.node_count())
            .iter()
            .map(|p| {
                let mut arcs: Vec<(usize, usize)> = inst
                    .init()
                    .directed_edges()
                    .map(|(u, v)| (p[u.index()], p[v.index()]))
                    .collect();
                arcs.sort_unstable();
                (arcs, p[inst.dest.index()])
            })
            .min()
            .expect("at least the identity")
    }

    #[test]
    fn every_labeled_instance_lies_in_exactly_one_orbit() {
        // Canonicalize every labeled instance by brute force over S_n,
        // sharing nothing with the mask and automorphism code: the classes
        // found are the representatives' classes, one each, and each holds
        // its representative's orbit size of labeled instances.
        for n in 2..=4 {
            let mut class_sizes: HashMap<_, u64> = HashMap::new();
            for inst in all_instances(n) {
                *class_sizes
                    .entry(brute_force_canonical_form(&inst))
                    .or_default() += 1;
            }
            let orbits = instance_orbits(n);
            assert_eq!(orbits.len(), class_sizes.len(), "n = {n}");
            for (rep, size) in &orbits {
                let form = brute_force_canonical_form(rep);
                assert_eq!(class_sizes.remove(&form), Some(*size), "{rep:?}");
            }
        }
    }
}
