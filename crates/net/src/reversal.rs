//! The **distributed** Partial Reversal protocol.
//!
//! The paper's automata assume a global scheduler that can see which nodes
//! are sinks. In a network, a node only knows its own height and whatever
//! its neighbors last announced. The Gafni–Bertsekas triple-height
//! formulation makes this work:
//!
//! * each node `u` holds a [`TripleHeight`]; the edge `{u, v}` is directed
//!   from the higher height to the lower;
//! * heights only ever **increase** (a stepping sink rises above its
//!   lowest neighbors), so a neighbor's cached height is always a *lower
//!   bound* on its true height;
//! * therefore, when `u`'s cache says every live neighbor is above it,
//!   that is true of the real heights as well — `u` really is a sink and
//!   its reversal is a legitimate Partial Reversal step of the global
//!   execution. Stale caches can only *delay* a reversal, never fabricate
//!   one.
//!
//! Acyclicity and termination of the global execution then follow from
//! the paper's theorems. The tests verify both on the simulator, and the
//! [`crate::live`] module re-runs the same protocol on real threads.
//!
//! The sink test lives once, in this module's `reverse_if_sink`: the
//! routing protocol, [`crate::election`] (which exempts the node that
//! believes itself leader instead of the destination) and
//! [`crate::live`] call it too, and the height update it applies is
//! [`TripleHeight::raised_above`]. The protocol is event-driven and
//! never retransmits, so it assumes reliable links: one lost
//! announcement can leave a neighbor waiting forever.

use std::collections::BTreeMap;

use lr_core::alg::TripleHeight;
use lr_graph::{NodeId, Orientation, PlaneEmbedding, ReversalInstance, UndirectedGraph};

use crate::sim::{Ctx, EventSim, LinkConfig, Protocol};

/// Messages of the distributed reversal protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReversalMsg {
    /// "My height is now `h`" — broadcast at start and after every
    /// reversal.
    Height(TripleHeight),
    /// Link-layer notification injected by the harness: "your link to
    /// this neighbor is gone". Prompts a sink re-evaluation.
    LinkDown(NodeId),
}

/// Per-node state of the distributed reversal protocol.
#[derive(Debug, Clone)]
pub struct ReversalNode {
    /// This node's current height.
    pub height: TripleHeight,
    /// Last announced height of each neighbor.
    pub known: BTreeMap<NodeId, TripleHeight>,
    /// Whether this node is the destination (never reverses).
    pub is_dest: bool,
    /// Number of reversals performed.
    pub reversals: u64,
}

/// The protocol implementation (stateless; all state is per-node).
#[derive(Debug, Clone, Copy, Default)]
pub struct DistributedPr;

/// Computes the initial heights exactly as
/// [`lr_core::alg::FrontierTripleHeightsEngine`] does: `α = 0`,
/// `β = −x` from the plane embedding of the initial DAG.
pub fn initial_heights(inst: &ReversalInstance) -> BTreeMap<NodeId, TripleHeight> {
    let emb = PlaneEmbedding::of_initial(&inst.graph, &inst.init)
        .expect("instance orientation is acyclic");
    inst.graph
        .nodes()
        .map(|u| {
            (
                u,
                TripleHeight {
                    alpha: 0,
                    beta: -(emb.x(u).expect("embedding covers nodes") as i64),
                    id: u,
                },
            )
        })
        .collect()
}

/// Builds the per-node states for an instance.
pub fn initial_nodes(inst: &ReversalInstance) -> BTreeMap<NodeId, ReversalNode> {
    initial_heights(inst)
        .into_iter()
        .map(|(u, height)| {
            (
                u,
                ReversalNode {
                    height,
                    known: BTreeMap::new(),
                    is_dest: u == inst.dest,
                    reversals: 0,
                },
            )
        })
        .collect()
}

/// The sink test and Partial Reversal step every protocol of this crate
/// shares (distributed PR, routing, election and the threaded mode).
/// When every live neighbor's height is known and above `height`, the
/// node is a sink: raise `height` by [`TripleHeight::raised_above`] and
/// return `true`. Callers add their own exemption (the destination, a
/// node that believes itself leader) and count their own reversals.
pub(crate) fn reverse_if_sink(
    height: &mut TripleHeight,
    known: &BTreeMap<NodeId, TripleHeight>,
    live: &[NodeId],
) -> bool {
    let is_sink = !live.is_empty()
        && live
            .iter()
            .all(|v| known.get(v).is_some_and(|h| *h > *height));
    if is_sink {
        *height = height.raised_above(live.iter().map(|v| known[v]));
    }
    is_sink
}

/// The distributed PR step of one node: every node but the destination
/// reverses when [`reverse_if_sink`] finds it a sink.
pub(crate) fn try_reverse(node: &mut ReversalNode, live: &[NodeId]) -> bool {
    if node.is_dest || !reverse_if_sink(&mut node.height, &node.known, live) {
        return false;
    }
    node.reversals += 1;
    true
}

impl Protocol for DistributedPr {
    type Msg = ReversalMsg;
    type Node = ReversalNode;

    fn on_start(&mut self, ctx: &mut Ctx<'_, ReversalMsg>, node: &mut ReversalNode) {
        ctx.broadcast(ReversalMsg::Height(node.height));
    }

    fn on_message(
        &mut self,
        ctx: &mut Ctx<'_, ReversalMsg>,
        node: &mut ReversalNode,
        from: NodeId,
        msg: ReversalMsg,
    ) {
        match msg {
            ReversalMsg::Height(h) => {
                node.known.insert(from, h);
            }
            ReversalMsg::LinkDown(v) => {
                // The neighbor is gone; its cached height must not gate
                // future sink checks (`ctx.neighbors` already excludes it,
                // so nothing else to do — keep the entry as history).
                let _ = v;
            }
        }
        // A single update may suffice; if the node is still a sink after
        // more announcements arrive, those messages re-trigger this path.
        if try_reverse(node, ctx.neighbors) {
            ctx.broadcast(ReversalMsg::Height(node.height));
        }
    }
}

/// Runs the distributed protocol to quiescence and returns the converged
/// simulator.
///
/// # Panics
///
/// Panics if the network fails to go quiescent within `max_events`.
pub fn converge(
    inst: &ReversalInstance,
    link: LinkConfig,
    seed: u64,
    max_events: u64,
) -> EventSim<DistributedPr> {
    let mut sim = EventSim::new(
        DistributedPr,
        inst.graph.clone(),
        initial_nodes(inst),
        link,
        seed,
    );
    sim.start();
    assert!(
        sim.run_to_quiescence(max_events),
        "distributed PR did not converge within {max_events} events"
    );
    sim
}

/// Extracts the orientation implied by the current heights over the
/// **live** links of the simulator's graph. Edges whose links failed are
/// skipped (the caller compares against the surviving graph).
pub fn orientation_from_heights(
    graph: &UndirectedGraph,
    heights: &BTreeMap<NodeId, TripleHeight>,
) -> Orientation {
    let mut o = Orientation::new();
    for (u, v) in graph.edges() {
        if heights[&u] > heights[&v] {
            o.set_from_to(u, v);
        } else {
            o.set_from_to(v, u);
        }
    }
    o
}

/// Snapshot of all node heights in a converged simulator.
pub fn height_snapshot(sim: &EventSim<DistributedPr>) -> BTreeMap<NodeId, TripleHeight> {
    sim.nodes().map(|(u, n)| (u, n.height)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lr_graph::{stream, DirectedView};

    #[test]
    fn converges_to_destination_oriented_dag() {
        for seed in 0..5 {
            let inst = stream::random_connected(16, 12, 800 + seed).to_instance();
            let sim = converge(&inst, LinkConfig::default(), seed, 1_000_000);
            let heights = height_snapshot(&sim);
            let o = orientation_from_heights(&inst.graph, &heights);
            let view = DirectedView::new(&inst.graph, &o);
            assert!(view.is_acyclic(), "seed {seed}: cycle after convergence");
            assert!(
                view.is_destination_oriented(inst.dest),
                "seed {seed}: not destination-oriented"
            );
        }
    }

    #[test]
    fn already_oriented_instance_performs_no_reversals() {
        let inst = stream::chain_toward(10).to_instance();
        let sim = converge(&inst, LinkConfig::default(), 0, 100_000);
        let total: u64 = sim.nodes().map(|(_, n)| n.reversals).sum();
        assert_eq!(total, 0);
        // Only the initial height broadcasts flowed.
        assert_eq!(sim.stats().sent, 2 * 9);
    }

    #[test]
    fn reversal_counts_match_central_engine_ballpark() {
        // The distributed schedule is one of the admissible global PR
        // schedules, so its total reversal count must be bounded by the
        // Θ(n_b²) worst case and must do real work on the away-chain.
        let inst = stream::chain_away(16).to_instance();
        let sim = converge(&inst, LinkConfig::default(), 0, 1_000_000);
        let total: u64 = sim.nodes().map(|(_, n)| n.reversals).sum();
        assert!(total >= 15, "every bad node must step at least once");
        let nb = 15u64;
        assert!(total <= nb * nb + nb, "work beyond the worst-case bound");
    }

    #[test]
    fn convergence_is_robust_to_jitter_and_delay() {
        let inst = stream::grid_away(4, 4).to_instance();
        for seed in 0..5 {
            let sim = converge(
                &inst,
                LinkConfig {
                    delay: 3,
                    jitter: 10,
                    loss: 0.0,
                },
                seed,
                5_000_000,
            );
            let heights = height_snapshot(&sim);
            let o = orientation_from_heights(&inst.graph, &heights);
            assert!(DirectedView::new(&inst.graph, &o).is_destination_oriented(inst.dest));
        }
    }

    #[test]
    fn plain_protocol_documented_loss_limitation() {
        // The event-driven protocol never retransmits, so it assumes
        // reliable links: under loss, messages stop flowing while a
        // non-destination sink remains. This pins that limitation down.
        let inst = stream::chain_away(8).to_instance();
        let mut sim = EventSim::new(
            DistributedPr,
            inst.graph.clone(),
            initial_nodes(&inst),
            LinkConfig {
                delay: 1,
                jitter: 0,
                loss: 0.9,
            },
            3,
        );
        sim.start();
        let quiescent = sim.run_to_quiescence(1_000_000);
        assert!(quiescent, "with 90% loss the network just goes silent");
        let heights = height_snapshot(&sim);
        let o = orientation_from_heights(&inst.graph, &heights);
        let view = lr_graph::DirectedView::new(&inst.graph, &o);
        // Quiescent but NOT converged: a lost announcement is never
        // resent, so a neighbor waits on it forever.
        assert!(
            !view.is_destination_oriented(inst.dest),
            "expected the lossy run to stall before converging"
        );
    }

    #[test]
    fn heights_only_increase() {
        // Monotonicity is the correctness linchpin of the distributed
        // argument; verify it along a run by instrumenting snapshots.
        let inst = stream::random_connected(12, 10, 5).to_instance();
        let mut sim = EventSim::new(
            DistributedPr,
            inst.graph.clone(),
            initial_nodes(&inst),
            LinkConfig::default(),
            9,
        );
        sim.start();
        let mut last = height_snapshot(&sim);
        let mut guard = 0;
        while sim.step() {
            let now = height_snapshot(&sim);
            for (u, h) in &now {
                assert!(h >= &last[u], "height of {u} decreased");
            }
            last = now;
            guard += 1;
            assert!(guard < 1_000_000);
        }
    }
}
