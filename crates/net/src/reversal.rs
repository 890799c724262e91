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
//! A node's cache is its run of simulator slots: [`DistributedPr`]'s
//! [`Protocol::Slot`] is the neighbor's last announced height (`None`
//! until one arrives). The sink test lives once, in this module's
//! `reverse_if_sink`, which reads the cached heights of the live
//! neighbors: the routing protocol, [`crate::election`] (which exempts
//! the node that believes itself leader instead of the destination) and
//! [`crate::live`] call it too, and the height update it applies is
//! [`TripleHeight::raised_above`]. The initial heights are lr-core's,
//! [`initial_triple_heights`]. The protocol is event-driven and never
//! retransmits, so it assumes reliable links: one lost announcement can
//! leave a neighbor waiting forever.

use std::collections::BTreeMap;

use lr_core::alg::{initial_triple_heights, TripleHeight};
use lr_graph::{NodeId, Orientation, ReversalInstance};

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

/// Per-node state of the distributed reversal protocol. The neighbors'
/// last announced heights live in the node's slots.
#[derive(Debug, Clone)]
pub struct ReversalNode {
    /// This node's current height.
    pub height: TripleHeight,
    /// Whether this node is the destination (never reverses).
    pub is_dest: bool,
    /// Number of reversals performed.
    pub reversals: u64,
}

/// The protocol implementation (stateless; all state is per-node and
/// per-slot).
#[derive(Debug, Clone, Copy, Default)]
pub struct DistributedPr;

/// Builds the per-node states for an instance, by dense index, with
/// lr-core's initial triple heights.
pub fn initial_nodes(inst: &ReversalInstance) -> Vec<ReversalNode> {
    initial_triple_heights(inst)
        .into_iter()
        .map(|height| ReversalNode {
            height,
            is_dest: height.id == inst.dest,
            reversals: 0,
        })
        .collect()
}

/// The sink test and Partial Reversal step every protocol of this crate
/// shares (distributed PR, routing, election and the threaded mode).
/// `live_known` yields the cached height of each live neighbor (`None`
/// when none has arrived yet). When every one is known and above
/// `height`, the node is a sink: raise `height` by
/// [`TripleHeight::raised_above`] and return `true`. Callers add their
/// own exemption (the destination, a node that believes itself leader)
/// and count their own reversals.
pub(crate) fn reverse_if_sink<I>(height: &mut TripleHeight, live_known: I) -> bool
where
    I: IntoIterator<Item = Option<TripleHeight>>,
    I::IntoIter: Clone,
{
    let live_known = live_known.into_iter();
    let mut any = false;
    for h in live_known.clone() {
        match h {
            Some(h) if h > *height => any = true,
            _ => return false,
        }
    }
    if any {
        *height = height.raised_above(live_known.flatten());
    }
    any
}

/// The distributed PR step of one node: every node but the destination
/// reverses when [`reverse_if_sink`] finds it a sink.
pub(crate) fn try_reverse<I>(node: &mut ReversalNode, live_known: I) -> bool
where
    I: IntoIterator<Item = Option<TripleHeight>>,
    I::IntoIter: Clone,
{
    if node.is_dest || !reverse_if_sink(&mut node.height, live_known) {
        return false;
    }
    node.reversals += 1;
    true
}

impl Protocol for DistributedPr {
    type Msg = ReversalMsg;
    type Node = ReversalNode;
    type Slot = Option<TripleHeight>;

    fn on_start(&mut self, ctx: &mut Ctx<'_, ReversalMsg, Self::Slot>, node: &mut ReversalNode) {
        ctx.broadcast(ReversalMsg::Height(node.height));
    }

    fn on_message(
        &mut self,
        ctx: &mut Ctx<'_, ReversalMsg, Self::Slot>,
        node: &mut ReversalNode,
        _from: NodeId,
        msg: ReversalMsg,
    ) {
        match msg {
            ReversalMsg::Height(h) => {
                if let Some(known) = ctx.sender_slot_mut() {
                    *known = Some(h);
                }
            }
            // The neighbor is gone; its link is no longer live, so its
            // cached height no longer gates the sink check (the slot
            // keeps it as history).
            ReversalMsg::LinkDown(_) => {}
        }
        // A single update may suffice; if the node is still a sink after
        // more announcements arrive, those messages re-trigger this path.
        if try_reverse(node, ctx.live_slots().copied()) {
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
        inst.csr().clone(),
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

/// The orientation the heights imply on the given edges (the whole graph,
/// or only its live links): each edge points from its higher endpoint to
/// its lower one.
///
/// # Panics
///
/// Panics if `edges` repeats an edge or holds a self-loop.
pub fn orientation_from_heights(
    edges: impl IntoIterator<Item = (NodeId, NodeId)>,
    heights: &BTreeMap<NodeId, TripleHeight>,
) -> Orientation {
    let arcs: Vec<(u32, u32)> = edges
        .into_iter()
        .map(|(u, v)| {
            let (tail, head) = if heights[&u] > heights[&v] {
                (u, v)
            } else {
                (v, u)
            };
            (tail.raw(), head.raw())
        })
        .collect();
    Orientation::from_edges(&arcs).expect("the edges of a simple graph")
}

/// Snapshot of all node heights in a converged simulator.
pub fn height_snapshot(sim: &EventSim<DistributedPr>) -> BTreeMap<NodeId, TripleHeight> {
    sim.nodes().map(|(u, n)| (u, n.height)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lr_graph::stream;

    #[test]
    fn converges_to_destination_oriented_dag() {
        for seed in 0..5 {
            let inst = stream::random_connected(16, 12, 800 + seed);
            let sim = converge(&inst, LinkConfig::default(), seed, 1_000_000);
            let heights = height_snapshot(&sim);
            let o = orientation_from_heights(inst.init().directed_edges(), &heights);
            assert!(o.is_acyclic(), "seed {seed}: cycle after convergence");
            assert!(
                o.is_destination_oriented(inst.dest),
                "seed {seed}: not destination-oriented"
            );
        }
    }

    #[test]
    fn already_oriented_instance_performs_no_reversals() {
        let inst = stream::chain_toward(10);
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
        let inst = stream::chain_away(16);
        let sim = converge(&inst, LinkConfig::default(), 0, 1_000_000);
        let total: u64 = sim.nodes().map(|(_, n)| n.reversals).sum();
        assert!(total >= 15, "every bad node must step at least once");
        let nb = 15u64;
        assert!(total <= nb * nb + nb, "work beyond the worst-case bound");
    }

    #[test]
    fn convergence_is_robust_to_jitter_and_delay() {
        let inst = stream::grid_away(4, 4);
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
            let o = orientation_from_heights(inst.init().directed_edges(), &heights);
            assert!(o.is_destination_oriented(inst.dest));
        }
    }

    #[test]
    fn plain_protocol_documented_loss_limitation() {
        // The event-driven protocol never retransmits, so it assumes
        // reliable links: under loss, messages stop flowing while a
        // non-destination sink remains. This pins that limitation down.
        let inst = stream::chain_away(8);
        let mut sim = EventSim::new(
            DistributedPr,
            inst.csr().clone(),
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
        let o = orientation_from_heights(inst.init().directed_edges(), &heights);
        // Quiescent but NOT converged: a lost announcement is never
        // resent, so a neighbor waits on it forever.
        assert!(
            !o.is_destination_oriented(inst.dest),
            "expected the lossy run to stall before converging"
        );
    }

    #[test]
    fn heights_only_increase() {
        // Monotonicity is the correctness linchpin of the distributed
        // argument; verify it along a run by instrumenting snapshots.
        let inst = stream::random_connected(12, 10, 5);
        let mut sim = EventSim::new(
            DistributedPr,
            inst.csr().clone(),
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
