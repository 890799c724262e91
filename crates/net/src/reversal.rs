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
    /// Local beacon timer (only used by [`BeaconPr`]): re-announce the
    /// current height to defeat message loss.
    Tick,
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

/// The PR height update, shared with the routing/election protocols:
/// if `node` (not the destination) can see that every live neighbor is
/// above it, raise its height past the lowest neighbors and return `true`.
pub(crate) fn try_reverse(node: &mut ReversalNode, live: &[NodeId]) -> bool {
    if node.is_dest || live.is_empty() {
        return false;
    }
    // Wait until every live neighbor's height is known.
    if !live.iter().all(|v| node.known.contains_key(v)) {
        return false;
    }
    if !live.iter().all(|&v| node.known[&v] > node.height) {
        return false;
    }
    let min_alpha = live
        .iter()
        .map(|v| node.known[v].alpha)
        .min()
        .expect("live is non-empty");
    let new_alpha = min_alpha + 1;
    let min_beta_tying = live
        .iter()
        .filter(|v| node.known[v].alpha == new_alpha)
        .map(|v| node.known[v].beta)
        .min();
    node.height.alpha = new_alpha;
    if let Some(b) = min_beta_tying {
        node.height.beta = b - 1;
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
            ReversalMsg::Tick => {}
        }
        // A single update may suffice; if the node is still a sink after
        // more announcements arrive, those messages re-trigger this path.
        if try_reverse(node, ctx.neighbors) {
            ctx.broadcast(ReversalMsg::Height(node.height));
        }
    }
}

/// Loss-tolerant variant of [`DistributedPr`]: every node re-announces
/// its height on a periodic local timer (a *beacon*), so a lost `Height`
/// message is eventually compensated.
///
/// [`DistributedPr`] itself requires reliable links — one lost
/// announcement can leave a neighbor waiting forever (the protocol is
/// event-driven and never retransmits). Beacons restore liveness under
/// any loss rate `< 1`: heights are monotone, so re-announcing the
/// current height is always safe, and the first beacon that gets through
/// unblocks the waiting neighbor.
///
/// Because the timer recurs forever the network never *quiesces*; drive
/// it with [`EventSim::run_until`] and assess convergence from a height
/// snapshot.
#[derive(Debug, Clone, Copy)]
pub struct BeaconPr {
    /// Beacon period in ticks.
    pub interval: u64,
}

impl Protocol for BeaconPr {
    type Msg = ReversalMsg;
    type Node = ReversalNode;

    fn on_start(&mut self, ctx: &mut Ctx<'_, ReversalMsg>, node: &mut ReversalNode) {
        ctx.broadcast(ReversalMsg::Height(node.height));
        ctx.schedule_self(self.interval, ReversalMsg::Tick);
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
            ReversalMsg::LinkDown(_) => {}
            ReversalMsg::Tick => {
                ctx.broadcast(ReversalMsg::Height(node.height));
                ctx.schedule_self(self.interval, ReversalMsg::Tick);
            }
        }
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
    fn beacons_defeat_message_loss() {
        // 30% loss deadlocks the plain protocol but not the beaconing
        // variant: after enough virtual time the heights must orient the
        // graph toward the destination.
        let inst = stream::random_connected(12, 10, 4242).to_instance();
        let mut sim = EventSim::new(
            BeaconPr { interval: 10 },
            inst.graph.clone(),
            initial_nodes(&inst),
            LinkConfig {
                delay: 1,
                jitter: 2,
                loss: 0.3,
            },
            7,
        );
        sim.start();
        sim.run_until(5_000);
        let heights = sim
            .nodes()
            .map(|(u, n)| (u, n.height))
            .collect::<BTreeMap<_, _>>();
        let o = orientation_from_heights(&inst.graph, &heights);
        let view = lr_graph::DirectedView::new(&inst.graph, &o);
        assert!(view.is_acyclic());
        assert!(
            view.is_destination_oriented(inst.dest),
            "beaconing protocol should converge despite 30% loss"
        );
        assert!(sim.stats().dropped > 0, "loss must actually have occurred");
    }

    #[test]
    fn plain_protocol_documented_loss_limitation() {
        // The event-driven protocol with no retransmission can stall
        // under loss: messages stop flowing while a non-destination sink
        // remains. This pins down the limitation that motivates BeaconPr.
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
        // Quiescent but NOT converged — the deadlock the beacons fix.
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
