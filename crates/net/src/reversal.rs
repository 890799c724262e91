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
//! [`Protocol::Slot`] is a [`KnownHeight`], the `(α, β)` of the
//! neighbor's last announced height (unknown until one arrives). The
//! slot keeps no id: the neighbor's id is the slot's target, which the
//! sink test and [`crate::routing::downhill`] read only when the `(α, β)`
//! parts tie. The sink test lives once, in this module's
//! `reverse_if_sink`, which reads the cached heights of the live
//! neighbors: the routing protocol, [`crate::election`] (which exempts
//! the node that believes itself leader instead of the destination) and
//! [`crate::live`] call it too, and the height update it applies is
//! lr-core's [`raised_alpha_beta`]. The initial heights are lr-core's,
//! [`initial_triple_heights`]. The protocol is event-driven and never
//! retransmits, so it assumes reliable links: one lost announcement can
//! leave a neighbor waiting forever.

use std::collections::BTreeMap;

use lr_core::alg::{initial_triple_heights, raised_alpha_beta, TripleHeight};
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

/// The per-node states for an instance, by dense index, with lr-core's
/// initial triple heights. An iterator, so a protocol that wraps them
/// (routing) builds its nodes without an intermediate vector.
pub fn initial_nodes(inst: &ReversalInstance) -> impl Iterator<Item = ReversalNode> {
    let dest = inst.dest;
    initial_triple_heights(inst)
        .into_iter()
        .map(move |height| ReversalNode {
            height,
            is_dest: height.id == dest,
            reversals: 0,
        })
}

/// What a node keeps about one neighbor, in the slot of their link: the
/// `(α, β)` of the neighbor's last announced [`TripleHeight`], or nothing
/// before the first announcement. The id is left out, since it is the
/// slot's target, so a slot takes 16 bytes where an
/// `Option<TripleHeight>` takes 32.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KnownHeight {
    /// [`KnownHeight::UNKNOWN`] until a height is known.
    alpha: i64,
    beta: i64,
}

impl KnownHeight {
    /// The `α` of an unknown height. Every height the protocols announce
    /// has `α ≥ 0`: it starts at 0 and only rises.
    const UNKNOWN: i64 = i64::MIN;

    /// The `(α, β)` of `h`.
    pub fn of(h: TripleHeight) -> Self {
        debug_assert_ne!(h.alpha, Self::UNKNOWN, "an announced height has α ≥ 0");
        KnownHeight {
            alpha: h.alpha,
            beta: h.beta,
        }
    }

    /// The known `(α, β)`, if any.
    pub fn get(self) -> Option<(i64, i64)> {
        (self.alpha != Self::UNKNOWN).then_some((self.alpha, self.beta))
    }
}

impl Default for KnownHeight {
    /// No height known yet.
    fn default() -> Self {
        KnownHeight {
            alpha: Self::UNKNOWN,
            beta: 0,
        }
    }
}

/// The sink test and Partial Reversal step every protocol of this crate
/// shares (distributed PR, routing, election and the threaded mode).
/// `run` yields, in run order, each neighbor's slot, or `None` for a
/// failed link, and `id_at(k)` is the id of the neighbor at run position
/// `k`. When every live neighbor's height is known and above `height`,
/// the node is a sink: raise `height` by [`raised_alpha_beta`] and return
/// `true`. A neighbor is above when its `(α, β)` is, or when the two tie
/// and its id is higher, which is the only case that calls `id_at`.
/// Callers add their own exemption (the destination, a node that
/// believes itself leader) and count their own reversals.
pub(crate) fn reverse_if_sink<I>(
    height: &mut TripleHeight,
    run: I,
    id_at: impl Fn(usize) -> NodeId,
) -> bool
where
    I: IntoIterator<Item = Option<KnownHeight>>,
    I::IntoIter: Clone,
{
    let run = run.into_iter();
    let own = (height.alpha, height.beta);
    let mut any = false;
    for (k, slot) in run.clone().enumerate() {
        match slot.map(KnownHeight::get) {
            None => {}
            Some(Some(h)) if h > own || (h == own && id_at(k) > height.id) => any = true,
            Some(_) => return false,
        }
    }
    if any {
        let live = run.flatten().filter_map(KnownHeight::get);
        (height.alpha, height.beta) = raised_alpha_beta(height.beta, live);
    }
    any
}

/// The distributed PR step of one node: every node but the destination
/// reverses when [`reverse_if_sink`] finds it a sink.
pub(crate) fn try_reverse<I>(
    node: &mut ReversalNode,
    run: I,
    id_at: impl Fn(usize) -> NodeId,
) -> bool
where
    I: IntoIterator<Item = Option<KnownHeight>>,
    I::IntoIter: Clone,
{
    if node.is_dest || !reverse_if_sink(&mut node.height, run, id_at) {
        return false;
    }
    node.reversals += 1;
    true
}

impl Protocol for DistributedPr {
    type Msg = ReversalMsg;
    type Node = ReversalNode;
    type Slot = KnownHeight;

    fn on_start(&mut self, ctx: &mut Ctx<'_, ReversalMsg, Self::Slot>, node: &mut ReversalNode) {
        ctx.broadcast(ReversalMsg::Height(node.height));
    }

    fn on_message(
        &mut self,
        ctx: &mut Ctx<'_, ReversalMsg, Self::Slot>,
        node: &mut ReversalNode,
        msg: ReversalMsg,
    ) {
        match msg {
            ReversalMsg::Height(h) => {
                if let Some(known) = ctx.sender_slot_mut() {
                    *known = KnownHeight::of(h);
                }
            }
            // The neighbor is gone; its link is no longer live, so its
            // cached height no longer gates the sink check (the slot
            // keeps it as history).
            ReversalMsg::LinkDown(_) => {}
        }
        // A single update may suffice; if the node is still a sink after
        // more announcements arrive, those messages re-trigger this path.
        if try_reverse(node, ctx.run().map(|s| s.copied()), |k| ctx.neighbor(k)) {
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
        initial_nodes(inst).collect(),
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
    use crate::routing::downhill;
    use lr_graph::stream;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// One neighbor in a test run: `None` for a failed link, else its
    /// height if one is known.
    type FullSlot = Option<Option<TripleHeight>>;

    /// The sink rule on full heights: every live neighbor known and
    /// above, then `raised_above`.
    fn full_sink_rule(height: &mut TripleHeight, run: &[FullSlot]) -> bool {
        let live: Vec<Option<TripleHeight>> = run.iter().flatten().copied().collect();
        if live.is_empty() || !live.iter().all(|h| h.is_some_and(|h| h > *height)) {
            return false;
        }
        *height = height.raised_above(live.into_iter().flatten());
        true
    }

    /// The downhill hop on full heights: the lowest known live neighbor
    /// below `own`.
    fn full_downhill(own: TripleHeight, run: &[FullSlot]) -> Option<usize> {
        let known = run
            .iter()
            .enumerate()
            .filter_map(|(k, s)| Some((k, (*s)??)));
        known
            .filter(|&(_, h)| h < own)
            .min_by_key(|&(_, h)| h)
            .map(|(k, _)| k)
    }

    #[test]
    fn id_free_slots_decide_as_full_heights_do_under_forced_ties() {
        let mut rng = SmallRng::seed_from_u64(29);
        let (mut ties, mut sinks, mut hops) = (0, 0, 0);
        for _ in 0..5_000 {
            let ab = |rng: &mut SmallRng| {
                let (alpha, beta) = (rng.gen_range(0..3u32), rng.gen_range(0..3u32));
                (i64::from(alpha), -i64::from(beta))
            };
            let me = rng.gen_range(0..12u32);
            let (alpha, beta) = ab(&mut rng);
            let own = TripleHeight {
                alpha,
                beta,
                id: NodeId::new(me),
            };
            // Up to five neighbors, ascending by id as a run lists them.
            let mut ids: Vec<u32> = (0..12).filter(|&v| v != me && rng.gen_bool(0.4)).collect();
            ids.truncate(5);
            let run: Vec<FullSlot> = ids
                .iter()
                .map(|&v| {
                    // Half the known neighbors tie `own` on (α, β).
                    let (alpha, beta) = if rng.gen_bool(0.5) {
                        (own.alpha, own.beta)
                    } else {
                        ab(&mut rng)
                    };
                    let h = TripleHeight {
                        alpha,
                        beta,
                        id: NodeId::new(v),
                    };
                    match rng.gen_range(0..6u32) {
                        0 => None,
                        1 => Some(None),
                        _ => Some(Some(h)),
                    }
                })
                .collect();
            ties += run
                .iter()
                .flatten()
                .flatten()
                .any(|h| (h.alpha, h.beta) == (own.alpha, own.beta)) as u32;
            let slots: Vec<Option<KnownHeight>> = run
                .iter()
                .map(|s| s.map(|h| h.map_or_else(KnownHeight::default, KnownHeight::of)))
                .collect();
            let id_at = |k: usize| NodeId::new(ids[k]);

            let (mut full, mut id_free) = (own, own);
            let sink = full_sink_rule(&mut full, &run);
            assert_eq!(
                reverse_if_sink(&mut id_free, slots.iter().copied(), id_at),
                sink
            );
            assert_eq!(id_free, full, "{own:?} over {run:?}");
            sinks += sink as u32;

            let known = slots.iter().map(|s| s.and_then(KnownHeight::get));
            let hop = downhill((own.alpha, own.beta), known, |k| id_at(k) < own.id);
            assert_eq!(hop, full_downhill(own, &run), "{own:?} over {run:?}");
            hops += hop.is_some() as u32;
        }
        assert!(
            ties > 1_000 && sinks > 100 && hops > 1_000,
            "{ties} {sinks} {hops}"
        );
    }

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
            initial_nodes(&inst).collect(),
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
            initial_nodes(&inst).collect(),
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
