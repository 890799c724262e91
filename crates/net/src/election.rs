//! Leader election by link reversal, in the spirit of
//! Malpani–Welch–Vaidya (the leader-election application the paper's
//! abstract refers to), simplified to the single-partition case.
//!
//! The current leader is the DAG's destination. When it departs, the
//! neighbors that detect the loss each propose themselves in a new epoch
//! and flood the proposal; nodes adopt the lexicographically largest
//! `(epoch, candidate)` they hear and re-flood. Meanwhile Partial
//! Reversal keeps running with one twist: a node that currently believes
//! itself the leader never reverses (the sink rule is the distributed
//! protocol's, [`crate::reversal`], with this exemption in place of the
//! destination's). Once proposals stabilize, exactly one node refuses
//! to reverse, and reversal re-orients the surviving DAG toward it — the
//! elected leader. As in the reversal protocol, each node keeps its
//! neighbors' last announced `(α, β)` in its slots
//! ([`crate::reversal::KnownHeight`]).

use std::collections::BTreeMap;

use lr_core::alg::{initial_triple_heights, TripleHeight};
use lr_graph::{NodeId, ReversalInstance};

use crate::reversal::{orientation_from_heights, reverse_if_sink, KnownHeight};
use crate::sim::{Ctx, EventSim, LinkConfig, Protocol};

/// Messages of the election protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ElectMsg {
    /// Height gossip for the reversal layer.
    Height(TripleHeight),
    /// Leadership proposal: adopt if `(epoch, leader)` beats the local
    /// pair.
    Elect {
        /// Election round.
        epoch: u64,
        /// Proposed leader.
        leader: NodeId,
    },
    /// Link-layer notification that the link to this neighbor is gone.
    LinkDown(NodeId),
}

/// Per-node election state.
#[derive(Debug, Clone)]
pub struct ElectNode {
    /// This node's height (reversal layer).
    pub height: TripleHeight,
    /// Who this node currently believes leads.
    pub leader: NodeId,
    /// Current election epoch.
    pub epoch: u64,
    /// Reversals performed.
    pub reversals: u64,
}

/// The election protocol.
#[derive(Debug, Clone, Copy, Default)]
pub struct Election;

impl Protocol for Election {
    type Msg = ElectMsg;
    type Node = ElectNode;
    type Slot = KnownHeight;

    fn on_start(&mut self, ctx: &mut Ctx<'_, ElectMsg, Self::Slot>, node: &mut ElectNode) {
        ctx.broadcast(ElectMsg::Height(node.height));
    }

    fn on_message(
        &mut self,
        ctx: &mut Ctx<'_, ElectMsg, Self::Slot>,
        node: &mut ElectNode,
        msg: ElectMsg,
    ) {
        match msg {
            ElectMsg::Height(h) => {
                if let Some(known) = ctx.sender_slot_mut() {
                    *known = KnownHeight::of(h);
                }
            }
            ElectMsg::Elect { epoch, leader } => {
                if (epoch, leader) > (node.epoch, node.leader) {
                    node.epoch = epoch;
                    node.leader = leader;
                    ctx.broadcast(ElectMsg::Elect { epoch, leader });
                }
            }
            ElectMsg::LinkDown(dead) => {
                // If the lost neighbor was the leader, propose myself in
                // a fresh epoch.
                if dead == node.leader {
                    node.epoch += 1;
                    node.leader = ctx.self_id;
                    ctx.broadcast(ElectMsg::Elect {
                        epoch: node.epoch,
                        leader: ctx.self_id,
                    });
                }
            }
        }
        // Partial Reversal, except that a node believing itself leader
        // never reverses: it is the destination the DAG re-orients to.
        if node.leader != ctx.self_id
            && reverse_if_sink(&mut node.height, ctx.run().map(|s| s.copied()), |k| {
                ctx.neighbor(k)
            })
        {
            node.reversals += 1;
            ctx.broadcast(ElectMsg::Height(node.height));
        }
    }
}

/// Election harness over one instance.
pub struct ElectionHarness {
    sim: EventSim<Election>,
    original_leader: NodeId,
}

/// Outcome of a completed election.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ElectionReport {
    /// The leader every surviving node agrees on.
    pub leader: NodeId,
    /// The epoch of the winning proposal.
    pub epoch: u64,
    /// Total reversals performed during re-orientation.
    pub reversals: u64,
    /// Total messages sent (heights + proposals).
    pub messages: u64,
}

impl ElectionHarness {
    /// Builds the harness and starts the protocol; the initial DAG
    /// converges toward the instance's destination (the initial leader)
    /// as the simulator runs.
    pub fn new(inst: &ReversalInstance, link: LinkConfig, seed: u64) -> Self {
        let nodes = initial_triple_heights(inst)
            .into_iter()
            .map(|height| ElectNode {
                height,
                leader: inst.dest,
                epoch: 0,
                reversals: 0,
            })
            .collect();
        let mut sim = EventSim::new(Election, inst.csr().clone(), nodes, link, seed);
        sim.start();
        ElectionHarness {
            sim,
            original_leader: inst.dest,
        }
    }

    /// Builds the harness and converges the initial DAG toward the
    /// instance's destination (the initial leader).
    ///
    /// # Panics
    ///
    /// Panics if initial convergence exceeds 10⁷ deliveries.
    pub fn converged(inst: &ReversalInstance, link: LinkConfig, seed: u64) -> Self {
        let mut harness = Self::new(inst, link, seed);
        assert!(
            harness.sim.run_to_quiescence(10_000_000),
            "initial convergence failed"
        );
        harness
    }

    /// Direct access to the simulator.
    pub fn sim(&self) -> &EventSim<Election> {
        &self.sim
    }

    /// Mutable access to the simulator, e.g. to set per-link
    /// [`LinkConfig`] overrides after the initial convergence.
    pub fn sim_mut(&mut self) -> &mut EventSim<Election> {
        &mut self.sim
    }

    /// Crashes the current leader: fails all its links and delivers
    /// link-down notifications to its neighbors.
    pub fn crash_leader(&mut self) {
        let leader = self.original_leader;
        let nbrs: Vec<NodeId> = self.sim.neighbors(leader).collect();
        for v in nbrs {
            self.sim.fail_link(leader, v);
            self.sim.inject(leader, v, ElectMsg::LinkDown(leader));
        }
    }

    /// Runs to quiescence and reports the agreed leader.
    ///
    /// # Panics
    ///
    /// Panics if the network does not quiesce, if the survivors disagree
    /// on the leader, or if the surviving graph is not oriented toward
    /// the winner.
    pub fn run(&mut self, max_events: u64) -> ElectionReport {
        assert!(self.sim.run_to_quiescence(max_events), "did not quiesce");
        let survivors: Vec<NodeId> = self
            .sim
            .nodes()
            .map(|(u, _)| u)
            .filter(|&u| u != self.original_leader)
            .collect();
        let leader = self.sim.node(survivors[0]).leader;
        let epoch = self.sim.node(survivors[0]).epoch;
        for &u in &survivors {
            assert_eq!(
                self.sim.node(u).leader,
                leader,
                "survivors disagree on the leader"
            );
        }
        // Verify the surviving graph is destination-oriented toward the
        // new leader.
        let surviving = self
            .sim
            .links()
            .filter(|&(a, b, _)| a != self.original_leader && b != self.original_leader)
            .map(|(a, b, _)| (a, b));
        let heights: BTreeMap<NodeId, TripleHeight> = survivors
            .iter()
            .map(|&u| (u, self.sim.node(u).height))
            .collect();
        let o = orientation_from_heights(surviving, &heights);
        // Connected survivors: every one of them is an endpoint.
        if survivors.len() > 1 && o.csr().node_count() == survivors.len() && o.csr().is_connected()
        {
            assert!(
                o.is_destination_oriented(leader),
                "surviving DAG is not oriented toward the new leader"
            );
        }
        ElectionReport {
            leader,
            epoch,
            reversals: self.sim.nodes().map(|(_, n)| n.reversals).sum(),
            messages: self.sim.stats().sent,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lr_graph::stream;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn new_leader_is_elected_after_crash() {
        // Random connected graph with destination 0; after 0 crashes the
        // highest-id neighbor of 0 must win (only 0's neighbors propose).
        for seed in 0..5 {
            let inst = stream::random_connected(12, 14, 900 + seed);
            let mut h = ElectionHarness::converged(&inst, LinkConfig::default(), seed);
            let expected: NodeId = inst
                .csr()
                .neighbors(inst.dest)
                .max()
                .expect("destination has neighbors");
            h.crash_leader();
            let report = h.run(10_000_000);
            assert_eq!(report.leader, expected, "seed {seed}");
            assert_eq!(report.epoch, 1);
        }
    }

    #[test]
    fn election_on_chain_picks_the_sole_neighbor() {
        let inst = stream::chain_away(6);
        let mut h = ElectionHarness::converged(&inst, LinkConfig::default(), 0);
        h.crash_leader(); // node 0 dies; only neighbor is 1
        let report = h.run(1_000_000);
        assert_eq!(report.leader, n(1));
        assert!(report.messages > 0);
    }

    #[test]
    fn no_crash_means_no_new_epoch() {
        let inst = stream::grid_away(3, 3);
        let mut h = ElectionHarness::converged(&inst, LinkConfig::default(), 1);
        let report_messages = h.sim.stats().sent;
        // Run again without crashing: nothing new happens.
        assert!(h.sim.run_to_quiescence(1_000));
        assert_eq!(h.sim.stats().sent, report_messages);
        for (_, node) in h.sim.nodes() {
            assert_eq!(node.epoch, 0);
        }
    }

    #[test]
    fn election_tolerates_jitter() {
        let inst = stream::random_connected(10, 12, 42);
        let mut h = ElectionHarness::converged(
            &inst,
            LinkConfig {
                delay: 2,
                jitter: 9,
                loss: 0.0,
            },
            7,
        );
        h.crash_leader();
        let report = h.run(10_000_000);
        let expected: NodeId = inst.csr().neighbors(inst.dest).max().unwrap();
        assert_eq!(report.leader, expected);
    }
}
