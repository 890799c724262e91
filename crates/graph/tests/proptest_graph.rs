//! Property-based tests for the graph substrate: structural invariants
//! that must hold for every generated graph and orientation.

use std::sync::Arc;

use lr_graph::{stream, CsrGraph, EdgeDir, NodeId, Orientation, ReversalInstance};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

fn graph_strategy() -> impl Strategy<Value = Arc<CsrGraph>> {
    (2usize..=14, 0usize..=30, any::<u64>())
        .prop_map(|(n, extra, seed)| Arc::clone(stream::random_connected(n, extra, seed).csr()))
}

/// A uniformly random acyclic orientation of `graph` (orient by a random
/// permutation of the nodes).
fn random_orientation(graph: &Arc<CsrGraph>, seed: u64) -> Orientation {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut rank: Vec<usize> = (0..graph.node_count()).collect();
    rank.shuffle(&mut rng);
    Orientation::from_fn(Arc::clone(graph), |src, slot| {
        rank[src] < rank[graph.target(slot)]
    })
}

/// A random orientation with each edge directed by a coin flip, cycles
/// included.
fn coin_orientation(graph: &Arc<CsrGraph>, seed: u64) -> Orientation {
    let mut rng = SmallRng::seed_from_u64(seed);
    Orientation::from_fn(Arc::clone(graph), |_, _| rng.gen_bool(0.5))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Degrees sum to twice the edge count (handshake lemma).
    #[test]
    fn handshake_lemma(g in graph_strategy()) {
        let sum: usize = (0..g.node_count()).map(|u| g.degree(u)).sum();
        prop_assert_eq!(sum, 2 * g.edge_count());
    }

    /// `directed_edges()` yields each edge once, canonically ordered,
    /// and agrees with both slots' bits.
    #[test]
    fn directed_edges_are_canonical(g in graph_strategy(), seed in any::<u64>()) {
        let o = coin_orientation(&g, seed);
        let edges: Vec<(NodeId, NodeId)> = o.directed_edges().collect();
        prop_assert_eq!(edges.len(), g.edge_count());
        let canonical: Vec<(NodeId, NodeId)> =
            edges.iter().map(|&(t, h)| (t.min(h), t.max(h))).collect();
        prop_assert!(canonical.windows(2).all(|w| w[0] < w[1]));
        for &(t, h) in &edges {
            prop_assert_eq!(o.dir(t, h), Some(EdgeDir::Out));
            prop_assert_eq!(o.dir(h, t), Some(EdgeDir::In));
        }
    }

    /// Any orientation built from a node order is acyclic, and reversing
    /// one edge twice restores it.
    #[test]
    fn order_orientations_are_acyclic(g in graph_strategy(), seed in any::<u64>()) {
        let o = random_orientation(&g, seed);
        prop_assert!(o.is_acyclic());
        prop_assert_eq!(o.find_cycle(), None);
        let (u, v) = o.directed_edges().next().expect("a connected graph has an edge");
        let mut o2 = o.clone();
        o2.reverse(u, v).unwrap();
        prop_assert_ne!(o2.dir(u, v), o.dir(u, v));
        o2.reverse(u, v).unwrap();
        prop_assert_eq!(&o2, &o);
    }

    /// The topological order respects every directed edge, and a cycle
    /// is found exactly when there is none.
    #[test]
    fn topological_order_and_find_cycle_agree(g in graph_strategy(), seed in any::<u64>()) {
        let o = coin_orientation(&g, seed);
        match (o.topological_order(), o.find_cycle()) {
            (Some(order), None) => {
                let mut pos = vec![0; g.node_count()];
                for (i, &u) in order.iter().enumerate() {
                    pos[u] = i;
                }
                for (t, h) in o.directed_edges() {
                    let (t, h) = (g.index_of(t).unwrap(), g.index_of(h).unwrap());
                    prop_assert!(pos[t] < pos[h]);
                }
            }
            (None, Some(cycle)) => {
                for (i, &a) in cycle.iter().enumerate() {
                    prop_assert!(o.points_from_to(a, cycle[(i + 1) % cycle.len()]));
                }
            }
            (order, cycle) => prop_assert!(false, "order {:?} beside cycle {:?}", order, cycle),
        }
    }

    /// Every DAG has a sink; in-neighbours and out-neighbours split each
    /// node's degree.
    #[test]
    fn sinks_exist_and_degrees_split(n in 2usize..=14, extra in 0usize..=30, seed in any::<u64>()) {
        let inst = stream::random_connected(n, extra, seed);
        prop_assert!(!inst.init().sinks().is_empty());
        for (i, u) in inst.csr().nodes().enumerate() {
            let (ins, outs) = (inst.initial_in_nbrs(u), inst.initial_out_nbrs(u));
            prop_assert_eq!(ins.len() + outs.len(), inst.csr().degree(i));
            prop_assert_eq!(inst.init().is_sink(u), outs.is_empty());
        }
    }

    /// The nodes reaching the destination are closed under taking
    /// in-neighbours, and destination-orientation means all reach it.
    #[test]
    fn reaching_set_is_closed(g in graph_strategy(), seed in any::<u64>()) {
        let o = coin_orientation(&g, seed);
        let dest = g.node(0);
        let reach = o.nodes_reaching(dest);
        for (slot_owner, &reaches) in reach.iter().enumerate() {
            for slot in g.slots(slot_owner) {
                if reaches && !o.is_out(slot) {
                    prop_assert!(reach[g.target(slot)]);
                }
            }
        }
        let bad = reach.iter().filter(|&&r| !r).count();
        prop_assert_eq!(o.bad_node_count(dest), bad);
        prop_assert_eq!(o.is_destination_oriented(dest), bad == 0);
    }

    /// Parse/serialize round trip through the text format, and the
    /// validating builder rebuilds every generated instance.
    #[test]
    fn text_round_trip(n in 2usize..=10, extra in 0usize..=12, seed in any::<u64>()) {
        let inst = stream::random_connected(n, extra, seed);
        let text = lr_graph::parse::to_text(&inst);
        let back = lr_graph::parse::parse_instance(&text).unwrap();
        prop_assert_eq!(&back, &inst);
        let arcs: Vec<(u32, u32)> =
            inst.init().directed_edges().map(|(t, h)| (t.raw(), h.raw())).collect();
        prop_assert_eq!(ReversalInstance::from_edges(&arcs, inst.dest), Ok(inst));
    }
}
