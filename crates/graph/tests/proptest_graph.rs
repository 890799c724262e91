//! Property-based tests for the graph substrate: structural invariants
//! that must hold for every generated graph, orientation, and embedding.

use lr_graph::{stream, DirectedView, NodeId, Orientation, UndirectedGraph};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

fn graph_strategy() -> impl Strategy<Value = UndirectedGraph> {
    (2usize..=14, 0usize..=30, any::<u64>())
        .prop_map(|(n, extra, seed)| stream::random_connected(n, extra, seed).to_instance().graph)
}

/// A uniformly random acyclic orientation of `graph` (orient by a random
/// permutation of the nodes).
fn random_orientation(graph: &UndirectedGraph, seed: u64) -> Orientation {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut order: Vec<NodeId> = graph.nodes().collect();
    order.shuffle(&mut rng);
    Orientation::from_order(graph, &order)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Degrees sum to twice the edge count (handshake lemma).
    #[test]
    fn handshake_lemma(g in graph_strategy()) {
        let sum: usize = g.nodes().map(|u| g.degree(u)).sum();
        prop_assert_eq!(sum, 2 * g.edge_count());
    }

    /// `edges()` yields each edge once, canonically ordered.
    #[test]
    fn edges_are_canonical(g in graph_strategy()) {
        let edges: Vec<(NodeId, NodeId)> = g.edges().collect();
        for &(u, v) in &edges {
            prop_assert!(u < v);
            prop_assert!(g.contains_edge(u, v));
            prop_assert!(g.contains_edge(v, u));
        }
        let mut dedup = edges.clone();
        dedup.dedup();
        prop_assert_eq!(dedup.len(), g.edge_count());
    }

    /// Any orientation built from a node order is acyclic, and reversing
    /// one edge twice restores it.
    #[test]
    fn order_orientations_are_acyclic(g in graph_strategy(), seed in any::<u64>()) {
        let o = random_orientation(&g, seed);
        prop_assert!(DirectedView::new(&g, &o).is_acyclic());
        prop_assert!(o.covers(&g));
        if let Some((u, v)) = g.edges().next() {
            let mut o2 = o.clone();
            o2.reverse(u, v).unwrap();
            prop_assert_ne!(o2.dir(u, v), o.dir(u, v));
            o2.reverse(u, v).unwrap();
            prop_assert_eq!(&o2, &o);
        }
    }

    /// In-degree plus out-degree equals degree at every node.
    #[test]
    fn degree_split(g in graph_strategy(), seed in any::<u64>()) {
        let o = random_orientation(&g, seed);
        let view = DirectedView::new(&g, &o);
        for u in g.nodes() {
            prop_assert_eq!(view.in_degree(u) + view.out_degree(u), g.degree(u));
        }
    }

    /// Topological order respects every directed edge.
    #[test]
    fn topological_order_is_consistent(g in graph_strategy(), seed in any::<u64>()) {
        let o = random_orientation(&g, seed);
        let view = DirectedView::new(&g, &o);
        let order = view.topological_sort().expect("acyclic");
        let pos: std::collections::BTreeMap<NodeId, usize> =
            order.iter().enumerate().map(|(i, &u)| (u, i)).collect();
        for (t, h) in o.directed_edges() {
            prop_assert!(pos[&t] < pos[&h]);
        }
    }

    /// Every DAG has at least one sink and one source; no node is both
    /// unless isolated (excluded by connectivity, n ≥ 2).
    #[test]
    fn sinks_and_sources_exist(g in graph_strategy(), seed in any::<u64>()) {
        let o = random_orientation(&g, seed);
        let view = DirectedView::new(&g, &o);
        prop_assert!(!view.sinks().is_empty());
        prop_assert!(!view.sources().is_empty());
        for u in g.nodes() {
            prop_assert!(!(view.is_sink(u) && view.is_source(u)));
        }
    }

    /// `nodes_reaching(dest)` is closed under taking in-neighbors... i.e.
    /// every node with an edge into the reaching set is itself reaching.
    #[test]
    fn reaching_set_is_closed(g in graph_strategy(), seed in any::<u64>()) {
        let o = random_orientation(&g, seed);
        let view = DirectedView::new(&g, &o);
        let dest = g.nodes().next().unwrap();
        let reach = view.nodes_reaching(dest);
        for &r in &reach {
            for v in view.in_neighbors(r) {
                prop_assert!(reach.contains(&v));
            }
        }
        // And each reaching node has an actual directed path.
        for &r in &reach {
            prop_assert!(view.directed_path(r, dest).is_some());
        }
    }

    /// The plane embedding of an acyclic orientation puts every edge
    /// left-to-right, and destination-orientation is equivalent to
    /// "every node reaches dest".
    #[test]
    fn embedding_and_reachability(n in 2usize..=12, extra in 0usize..=20, seed in any::<u64>()) {
        let inst = stream::random_connected(n, extra, seed).to_instance();
        let emb = inst.embedding();
        for (t, h) in inst.init.directed_edges() {
            prop_assert!(emb.is_left_of(t, h));
            prop_assert!(emb.left_to_right(&inst.init, t, h));
        }
        let view = inst.view();
        let oriented = view.is_destination_oriented(inst.dest);
        let all_reach = inst.graph.nodes().all(|u| view.can_reach(u, inst.dest));
        prop_assert_eq!(oriented, all_reach);
    }

    /// Parse/serialize round trip through the text format.
    #[test]
    fn text_round_trip(n in 2usize..=10, extra in 0usize..=12, seed in any::<u64>()) {
        let inst = stream::random_connected(n, extra, seed).to_instance();
        let text = lr_graph::parse::to_text(&inst);
        let back = lr_graph::parse::parse_instance(&text).unwrap();
        prop_assert_eq!(back, inst);
    }

    /// Orientation serde rebuilds the same direction assignment.
    #[test]
    fn orientation_serde(g in graph_strategy(), seed in any::<u64>()) {
        let o = random_orientation(&g, seed);
        let json = serde_json::to_string(&o).unwrap();
        let back: Orientation = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(back, o);
    }
}
