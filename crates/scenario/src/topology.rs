//! Building a [`TopologySpec`] into a flat [`CsrInstance`] through the
//! streaming generators of [`lr_graph::stream`], or into the validated
//! map-backed [`ReversalInstance`] that the protocols run on.

use lr_graph::{stream, CsrInstance, NodeId, Orientation, ReversalInstance, UndirectedGraph};

use crate::spec::{SpecError, TopologySpec};

/// Builds the instance for one run. `run_seed` is used by the random
/// families when the spec pins no topology seed. Generator families are
/// built by [`build_csr_instance`] and materialized with
/// [`CsrInstance::to_instance`].
///
/// # Errors
///
/// Returns a [`SpecError`] for inline edge lists that do not form a
/// valid instance (duplicate edges, disconnected graph, destination not
/// a node).
pub fn build_instance(spec: &TopologySpec, run_seed: u64) -> Result<ReversalInstance, SpecError> {
    match spec {
        TopologySpec::Inline { edges, dest } => build_inline(edges, *dest),
        _ => Ok(build_csr_instance(spec, run_seed)?.to_instance()),
    }
}

/// Builds the **flat** CSR instance for one run. Every generator family
/// streams straight into CSR arrays, so no intermediate edge list or
/// adjacency map is materialized — this is what lets spec validation
/// touch million-node topologies without paying the map
/// representation's footprint. Inline edge lists are built as map
/// instances and flattened.
///
/// # Errors
///
/// Same as [`build_instance`].
pub fn build_csr_instance(spec: &TopologySpec, run_seed: u64) -> Result<CsrInstance, SpecError> {
    let inst = match *spec {
        TopologySpec::ChainAway { n } => stream::chain_away(n),
        TopologySpec::ChainToward { n } => stream::chain_toward(n),
        TopologySpec::Alternating { n } => stream::alternating_chain(n),
        TopologySpec::Star { leaves } => stream::star_away(leaves),
        TopologySpec::Tree { depth } => stream::binary_tree_away(depth),
        TopologySpec::Grid { rows, cols } => stream::grid_away(rows, cols),
        TopologySpec::Complete { n } => stream::complete_away(n),
        TopologySpec::Random {
            n,
            extra_edges,
            seed,
        } => stream::random_connected(n, extra_edges, seed.unwrap_or(run_seed)),
        TopologySpec::Bipartite {
            width,
            degree,
            seed,
        } => stream::bipartite_away(width, degree, seed.unwrap_or(run_seed)),
        TopologySpec::Layered {
            width,
            depth,
            p,
            seed,
        } => stream::layered(width, depth, p, seed.unwrap_or(run_seed)),
        TopologySpec::Inline { ref edges, dest } => {
            return build_inline(edges, dest).map(|i| CsrInstance::from_instance(&i))
        }
    };
    Ok(inst)
}

/// An inline edge list becomes an instance oriented from the higher
/// node id to the lower — always acyclic, and destination-oriented
/// whenever the destination is the minimum id on every path (node ids
/// pick the initial DAG, churn and the protocols do the rest).
fn build_inline(edges: &[(u32, u32)], dest: u32) -> Result<ReversalInstance, SpecError> {
    let mut graph = UndirectedGraph::new();
    let mut orientation = Orientation::new();
    for &(u, v) in edges {
        let (a, b) = (NodeId::new(u), NodeId::new(v));
        graph.ensure_node(a);
        graph.ensure_node(b);
        graph.add_edge(a, b).map_err(|e| {
            SpecError::new("topology.edges", format!("edge {u}-{v} is invalid: {e}"))
        })?;
        // Higher id points at lower id: a strict total order, hence
        // acyclic.
        if u > v {
            orientation.set_from_to(a, b);
        } else {
            orientation.set_from_to(b, a);
        }
    }
    let dest_id = NodeId::new(dest);
    if !graph.contains_node(dest_id) {
        return Err(SpecError::new(
            "topology.dest",
            format!("destination {dest} does not appear in the edge list"),
        ));
    }
    ReversalInstance::new(graph, orientation, dest_id)
        .map_err(|e| SpecError::new("topology", format!("inline topology is invalid: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn families_build() {
        for (spec, expect_n) in [
            (TopologySpec::ChainAway { n: 5 }, 5),
            (TopologySpec::Star { leaves: 4 }, 5),
            (TopologySpec::Grid { rows: 2, cols: 3 }, 6),
            (
                TopologySpec::Random {
                    n: 8,
                    extra_edges: 4,
                    seed: Some(1),
                },
                8,
            ),
        ] {
            let inst = build_instance(&spec, 0).unwrap();
            assert_eq!(inst.node_count(), expect_n, "{spec:?}");
        }
    }

    #[test]
    fn random_extra_edges_saturate_at_the_complete_graph() {
        let spec = TopologySpec::Random {
            n: 6,
            extra_edges: usize::MAX,
            seed: Some(1),
        };
        let map = build_instance(&spec, 0).unwrap();
        assert_eq!(map.graph.edge_count(), 15, "K6");
    }

    #[test]
    fn seedless_random_families_follow_the_run_seed() {
        let spec = TopologySpec::Random {
            n: 10,
            extra_edges: 5,
            seed: None,
        };
        let a = build_instance(&spec, 7).unwrap();
        let b = build_instance(&spec, 7).unwrap();
        let c = build_instance(&spec, 8).unwrap();
        assert_eq!(a, b, "same run seed, same topology");
        assert_ne!(a, c, "different run seed, different topology");
    }

    #[test]
    fn inline_topologies_are_acyclic_and_validated() {
        let inst = build_inline(&[(0, 1), (1, 2), (2, 3), (3, 0)], 0).unwrap();
        assert_eq!(inst.node_count(), 4);
        assert!(inst.view().is_acyclic());

        let dup = build_inline(&[(0, 1), (1, 0)], 0);
        assert!(dup.is_err(), "duplicate edge must be an error");
        let missing_dest = build_inline(&[(0, 1)], 9);
        assert!(missing_dest.unwrap_err().msg.contains("destination 9"));
        let disconnected = build_inline(&[(0, 1), (2, 3)], 0);
        assert!(disconnected.is_err(), "disconnected graph must be an error");
    }
}
