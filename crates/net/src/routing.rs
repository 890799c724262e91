//! TORA-style destination-oriented routing over the reversal-maintained
//! DAG (experiment E12).
//!
//! Data packets are forwarded greedily *downhill*: each hop moves to a
//! live neighbor whose (last known) height is lower. On the converged DAG
//! this is loop-free and always reaches the destination — that is exactly
//! what destination-orientation buys. When a link fails, the affected
//! nodes re-run the distributed Partial Reversal protocol; packets that
//! find no downhill neighbor wait in a local buffer until their node's
//! height rises above a neighbor.
//!
//! Transient staleness during reconvergence can bounce a packet uphill;
//! a hop limit bounds the damage and the harness counts such drops.

use std::collections::BTreeMap;

use lr_graph::{NodeId, ReversalInstance};

use crate::reversal::{initial_nodes, try_reverse, ReversalNode};
use crate::sim::{Ctx, EventSim, LinkConfig, Protocol};

/// A routed data packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Packet {
    /// Caller-chosen identifier.
    pub id: u64,
    /// Hops taken so far.
    pub hops: u32,
}

/// Messages of the routing protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteMsg {
    /// Height gossip (the reversal protocol).
    Height(lr_core::alg::TripleHeight),
    /// Link-layer failure notification.
    LinkDown(NodeId),
    /// A data packet addressed to the DAG's destination.
    Data(Packet),
}

/// Per-node routing state: the reversal state plus packet bookkeeping.
#[derive(Debug, Clone)]
pub struct RouteNode {
    /// Embedded distributed-reversal state.
    pub rev: ReversalNode,
    /// Packets waiting for a downhill neighbor.
    pub buffered: Vec<Packet>,
    /// Packets delivered here (only the destination accumulates these).
    pub delivered: Vec<Packet>,
    /// Packets dropped at this node by the hop limit.
    pub dropped: u64,
    /// Packets forwarded by this node.
    pub forwarded: u64,
    /// Ids of packets this node has already handled — used to count
    /// **revisits**, i.e. transient routing loops.
    pub seen: std::collections::BTreeSet<u64>,
    /// Times a packet came back to this node (loop passes). Zero on a
    /// converged DAG, the observable form of the acyclicity theorem.
    pub revisits: u64,
}

/// The hop limit for a walk over a graph of `node_count` nodes: four
/// times the node count, at least 16, saturating at `u32::MAX` instead of
/// wrapping once `4 · node_count` leaves `u32` (from 2³⁰ nodes up).
pub fn probe_hop_limit(node_count: usize) -> u32 {
    u32::try_from(node_count.saturating_mul(4))
        .unwrap_or(u32::MAX)
        .max(16)
}

/// The greedy downhill hop: the live neighbor with the lowest known
/// height below `own`, or `None` when no live neighbor is known to sit
/// lower. `known` looks up a neighbor's last announced height. Packet
/// forwarding here and the scenario engine's route probes both step
/// through it, over triple heights and TORA heights alike.
pub fn downhill<H: Ord>(
    own: H,
    live: &[NodeId],
    known: impl Fn(NodeId) -> Option<H>,
) -> Option<NodeId> {
    live.iter()
        .filter_map(|&v| known(v).map(|h| (h, v)))
        .filter(|(h, _)| *h < own)
        .min()
        .map(|(_, v)| v)
}

/// The routing protocol. Forwarding uses a hop limit to cut transient
/// loops during reconvergence.
#[derive(Debug, Clone, Copy)]
pub struct TorarRouting {
    /// Maximum hops before a packet is dropped.
    pub hop_limit: u32,
}

impl TorarRouting {
    fn forward(&self, ctx: &mut Ctx<'_, RouteMsg>, node: &mut RouteNode, mut packet: Packet) {
        if node.rev.is_dest {
            node.delivered.push(packet);
            return;
        }
        if packet.hops >= self.hop_limit {
            node.dropped += 1;
            return;
        }
        let known = |v| node.rev.known.get(&v).copied();
        match downhill(node.rev.height, ctx.neighbors, known) {
            Some(v) => {
                packet.hops += 1;
                node.forwarded += 1;
                ctx.send(v, RouteMsg::Data(packet));
            }
            None => node.buffered.push(packet),
        }
    }

    fn flush(&self, ctx: &mut Ctx<'_, RouteMsg>, node: &mut RouteNode) {
        if node.buffered.is_empty() {
            return;
        }
        let buffered = std::mem::take(&mut node.buffered);
        for p in buffered {
            self.forward(ctx, node, p);
        }
    }
}

impl Protocol for TorarRouting {
    type Msg = RouteMsg;
    type Node = RouteNode;

    fn on_start(&mut self, ctx: &mut Ctx<'_, RouteMsg>, node: &mut RouteNode) {
        ctx.broadcast(RouteMsg::Height(node.rev.height));
    }

    fn on_message(
        &mut self,
        ctx: &mut Ctx<'_, RouteMsg>,
        node: &mut RouteNode,
        from: NodeId,
        msg: RouteMsg,
    ) {
        match msg {
            RouteMsg::Height(h) => {
                node.rev.known.insert(from, h);
            }
            RouteMsg::LinkDown(_) => {}
            RouteMsg::Data(p) => {
                if !node.seen.insert(p.id) {
                    node.revisits += 1;
                }
                self.forward(ctx, node, p);
            }
        }
        if try_reverse(&mut node.rev, ctx.neighbors) {
            ctx.broadcast(RouteMsg::Height(node.rev.height));
        }
        // Any event can open a downhill path (a first height heard, or
        // our own reversal); retry buffered packets.
        self.flush(ctx, node);
    }
}

/// Convenience harness: a routing simulation plus packet accounting.
pub struct RoutingHarness {
    sim: EventSim<TorarRouting>,
    dest: NodeId,
    next_packet: u64,
    injected: u64,
}

/// End-of-run routing metrics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoutingReport {
    /// Packets handed to the network.
    pub injected: u64,
    /// Packets that reached the destination.
    pub delivered: u64,
    /// Packets dropped by the hop limit.
    pub dropped: u64,
    /// Packets still buffered somewhere (undelivered, not dropped).
    pub stranded: u64,
    /// Total packet revisits across all nodes (transient loop passes);
    /// zero whenever routing happens on a converged DAG.
    pub revisits: u64,
    /// Mean hops over delivered packets.
    pub mean_hops: f64,
    /// Total protocol messages sent (heights + data).
    pub messages: u64,
    /// Virtual time of the last event.
    pub converged_at: u64,
}

impl RoutingHarness {
    /// Builds a harness over `inst` without starting the protocol, so a
    /// caller can set per-link overrides through
    /// [`RoutingHarness::sim_mut`] before the first height flood.
    pub fn new(inst: &ReversalInstance, link: LinkConfig, seed: u64) -> Self {
        let nodes: BTreeMap<NodeId, RouteNode> = initial_nodes(inst)
            .into_iter()
            .map(|(u, rev)| {
                (
                    u,
                    RouteNode {
                        rev,
                        buffered: Vec::new(),
                        delivered: Vec::new(),
                        dropped: 0,
                        forwarded: 0,
                        seen: Default::default(),
                        revisits: 0,
                    },
                )
            })
            .collect();
        let hop_limit = probe_hop_limit(inst.node_count());
        let sim = EventSim::new(
            TorarRouting { hop_limit },
            inst.graph.clone(),
            nodes,
            link,
            seed,
        );
        RoutingHarness {
            sim,
            dest: inst.dest,
            next_packet: 0,
            injected: 0,
        }
    }

    /// Builds a harness over `inst` and runs the initial reversal to
    /// quiescence so routing starts on a destination-oriented DAG.
    ///
    /// # Panics
    ///
    /// Panics if the initial convergence does not finish within 10⁷
    /// events.
    pub fn converged(inst: &ReversalInstance, link: LinkConfig, seed: u64) -> Self {
        let mut harness = Self::new(inst, link, seed);
        harness.sim.start();
        assert!(
            harness.sim.run_to_quiescence(10_000_000),
            "initial reversal did not converge"
        );
        harness
    }

    /// The destination every packet is routed to.
    pub fn dest(&self) -> NodeId {
        self.dest
    }

    /// Hands a fresh packet to `src` for delivery to the destination.
    pub fn send_packet(&mut self, src: NodeId) -> u64 {
        let id = self.next_packet;
        self.next_packet += 1;
        self.injected += 1;
        self.sim
            .inject(src, src, RouteMsg::Data(Packet { id, hops: 0 }));
        id
    }

    /// Fails the link `{u, v}` and notifies both endpoints (link-layer
    /// detection).
    pub fn fail_link(&mut self, u: NodeId, v: NodeId) {
        self.sim.fail_link(u, v);
        self.sim.inject(v, u, RouteMsg::LinkDown(v));
        self.sim.inject(u, v, RouteMsg::LinkDown(u));
    }

    /// Runs until quiescence (or the event budget) and reports.
    pub fn run(&mut self, max_events: u64) -> RoutingReport {
        let quiescent = self.sim.run_to_quiescence(max_events);
        assert!(quiescent, "routing network did not quiesce");
        self.report()
    }

    /// Direct access to the underlying simulator.
    pub fn sim(&self) -> &EventSim<TorarRouting> {
        &self.sim
    }

    /// Mutable access to the underlying simulator, e.g. to set per-link
    /// [`LinkConfig`] overrides between packets.
    pub fn sim_mut(&mut self) -> &mut EventSim<TorarRouting> {
        &mut self.sim
    }

    /// Current metrics.
    pub fn report(&self) -> RoutingReport {
        let delivered_pkts = &self.sim.node(self.dest).delivered;
        let delivered = delivered_pkts.len() as u64;
        let mean_hops = if delivered == 0 {
            0.0
        } else {
            delivered_pkts.iter().map(|p| p.hops as f64).sum::<f64>() / delivered as f64
        };
        let dropped: u64 = self.sim.nodes().map(|(_, n)| n.dropped).sum();
        let stranded: u64 = self.sim.nodes().map(|(_, n)| n.buffered.len() as u64).sum();
        let revisits: u64 = self.sim.nodes().map(|(_, n)| n.revisits).sum();
        RoutingReport {
            injected: self.injected,
            delivered,
            dropped,
            stranded,
            revisits,
            mean_hops,
            messages: self.sim.stats().sent,
            converged_at: self.sim.stats().last_event_time,
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
    fn probe_hop_limit_floors_at_16_and_saturates_at_u32_max() {
        assert_eq!(probe_hop_limit(3), 16);
        assert_eq!(probe_hop_limit(5), 20);
        // 4 · 2³⁰ = 2³² no longer fits a u32: the limit saturates instead
        // of wrapping to 0 (and flooring to 16).
        assert_eq!(probe_hop_limit(1 << 30), u32::MAX);
        assert_eq!(probe_hop_limit(usize::MAX), u32::MAX);
    }

    #[test]
    fn all_packets_delivered_on_stable_network() {
        let inst = stream::random_connected(20, 15, 3).to_instance();
        let mut h = RoutingHarness::converged(&inst, LinkConfig::default(), 1);
        for u in inst.graph.nodes() {
            if u != inst.dest {
                h.send_packet(u);
            }
        }
        let report = h.run(1_000_000);
        assert_eq!(report.delivered, 19);
        assert_eq!(report.dropped, 0);
        assert_eq!(report.stranded, 0);
        assert!(report.mean_hops >= 1.0);
        assert!(
            report.mean_hops <= 20.0,
            "downhill paths cannot exceed n hops on a converged DAG"
        );
    }

    #[test]
    fn delivery_survives_link_failure_and_reconvergence() {
        // Chain 0 ← 1 ← … ← 7 converged toward 0; fail a middle link and
        // route from the far end: the graph becomes disconnected, so add
        // a bypass edge first. Use a ladder-ish random graph instead.
        let inst = stream::random_connected(16, 14, 9).to_instance();
        let mut h = RoutingHarness::converged(&inst, LinkConfig::default(), 2);

        // Rebuilds the graph without a set of edges, to test connectivity
        // before actually failing a link. Every node is materialized so a
        // fully isolated node counts as a disconnection.
        let without = |skip: &[(NodeId, NodeId)]| {
            let mut g = lr_graph::UndirectedGraph::new();
            for u in inst.graph.nodes() {
                g.ensure_node(u);
            }
            for (a, b) in inst.graph.edges() {
                let skipped = skip
                    .iter()
                    .any(|&(u, v)| (a, b) == (u, v) || (a, b) == (v, u));
                if !skipped {
                    g.add_edge(a, b).expect("fresh edge");
                }
            }
            g
        };

        // Fail up to three links whose removal keeps the graph connected.
        let mut failed: Vec<(NodeId, NodeId)> = Vec::new();
        for (u, v) in inst.graph.edges() {
            if failed.len() == 3 {
                break;
            }
            let mut candidate = failed.clone();
            candidate.push((u, v));
            if without(&candidate).is_connected() {
                h.fail_link(u, v);
                failed = candidate;
            }
        }
        assert_eq!(failed.len(), 3, "fixture should find 3 removable links");
        for u in inst.graph.nodes() {
            if u != inst.dest {
                h.send_packet(u);
            }
        }
        let report = h.run(5_000_000);
        assert_eq!(
            report.delivered + report.dropped,
            report.injected,
            "every packet must be delivered or counted dropped; {report:?}"
        );
        assert!(
            report.delivered >= report.injected * 8 / 10,
            "most packets should survive mild churn: {report:?}"
        );
    }

    #[test]
    fn hop_counts_are_minimal_on_a_converged_chain() {
        let inst = stream::chain_away(8).to_instance();
        let mut h = RoutingHarness::converged(&inst, LinkConfig::default(), 0);
        h.send_packet(n(7));
        let report = h.run(100_000);
        assert_eq!(report.delivered, 1);
        // On a chain the only path has exactly 7 hops.
        assert!((report.mean_hops - 7.0).abs() < f64::EPSILON);
    }

    #[test]
    fn packets_buffer_while_disconnected_from_downhill() {
        // Star with destination at the center: leaves forward in one hop.
        let inst = stream::star_away(5).to_instance();
        let mut h = RoutingHarness::converged(&inst, LinkConfig::default(), 4);
        h.send_packet(n(3));
        let report = h.run(100_000);
        assert_eq!(report.delivered, 1);
        assert!((report.mean_hops - 1.0).abs() < f64::EPSILON);
    }

    #[test]
    fn no_packet_ever_loops_on_a_converged_dag() {
        // The observable form of the acyclicity theorem: greedy-downhill
        // forwarding on a converged DAG never revisits a node.
        for seed in 0..5 {
            let inst = stream::random_connected(24, 30, 1200 + seed).to_instance();
            let mut h = RoutingHarness::converged(&inst, LinkConfig::default(), seed);
            for u in inst.graph.nodes().filter(|&u| u != inst.dest) {
                h.send_packet(u);
            }
            let r = h.run(5_000_000);
            assert_eq!(r.revisits, 0, "seed {seed}: loop detected: {r:?}");
            assert_eq!(r.delivered, r.injected);
        }
    }

    #[test]
    fn reports_are_internally_consistent() {
        let inst = stream::grid_away(3, 4).to_instance();
        let mut h = RoutingHarness::converged(&inst, LinkConfig::default(), 5);
        for u in inst.graph.nodes().filter(|&u| u != inst.dest).take(5) {
            h.send_packet(u);
        }
        let r = h.run(1_000_000);
        assert_eq!(r.injected, 5);
        assert_eq!(r.delivered + r.dropped + r.stranded, r.injected);
    }
}
