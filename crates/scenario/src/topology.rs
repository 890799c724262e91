//! Building a [`TopologySpec`] into a [`ReversalInstance`]: generator
//! families stream straight into CSR arrays through [`lr_graph::stream`],
//! and inline edge lists go through the validating
//! [`ReversalInstance::from_edges`].

use lr_graph::{stream, NodeId, Orientation, ReversalInstance};

use crate::spec::{SpecError, TopologySpec};

/// Builds the instance for one run. `run_seed` is used by the random
/// families when the spec pins no topology seed. No family materializes
/// an intermediate edge list or adjacency map, which is what lets spec
/// validation touch million-node topologies in the CSR footprint alone.
///
/// # Errors
///
/// Returns a [`SpecError`] for inline edge lists that do not form a
/// valid instance (duplicate edges, disconnected graph, destination not
/// a node).
pub fn build_instance(spec: &TopologySpec, run_seed: u64) -> Result<ReversalInstance, SpecError> {
    Ok(match *spec {
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
        TopologySpec::Inline { ref edges, dest } => build_inline(edges, dest)?,
    })
}

/// An inline edge list becomes an instance oriented from the higher
/// node id to the lower — always acyclic, and destination-oriented
/// whenever the destination is the minimum id on every path (node ids
/// pick the initial DAG, churn and the protocols do the rest).
fn build_inline(edges: &[(u32, u32)], dest: u32) -> Result<ReversalInstance, SpecError> {
    // A self-loop or repeated edge is named as the spec writes it.
    Orientation::from_edges(edges).map_err(|e| {
        let (u, v) = match e {
            lr_graph::GraphError::SelfLoop(u) => (u, u),
            lr_graph::GraphError::DuplicateEdge(u, v) => (u, v),
            _ => (NodeId::new(0), NodeId::new(0)),
        };
        let (u, v) = (u.raw(), v.raw());
        SpecError::new("topology.edges", format!("edge {u}-{v} is invalid: {e}"))
    })?;
    // Higher id points at lower id: a strict total order, hence acyclic.
    let arcs: Vec<(u32, u32)> = edges.iter().map(|&(u, v)| (u.max(v), u.min(v))).collect();
    ReversalInstance::from_edges(&arcs, NodeId::new(dest)).map_err(|e| match e {
        lr_graph::GraphError::UnknownNode(_) => SpecError::new(
            "topology.dest",
            format!("destination {dest} does not appear in the edge list"),
        ),
        e => SpecError::new("topology", format!("inline topology is invalid: {e}")),
    })
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
        assert_eq!(map.csr().edge_count(), 15, "K6");
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
        assert!(inst.init().is_acyclic());

        let dup = build_inline(&[(0, 1), (1, 0)], 0).unwrap_err();
        assert_eq!(dup.path, "topology.edges");
        assert!(dup.msg.contains("edge 1-0 is invalid"), "{}", dup.msg);
        let self_loop = build_inline(&[(0, 1), (2, 2)], 0).unwrap_err();
        assert!(
            self_loop.msg.contains("edge 2-2 is invalid"),
            "{}",
            self_loop.msg
        );
        let missing_dest = build_inline(&[(0, 1)], 9);
        assert!(missing_dest.unwrap_err().msg.contains("destination 9"));
        let disconnected = build_inline(&[(0, 1), (2, 3)], 0);
        assert!(disconnected.is_err(), "disconnected graph must be an error");
    }
}
