//! TORA — the Temporally-Ordered Routing Algorithm (Park & Corson,
//! INFOCOM 1997), the protocol that brought link reversal to ad-hoc
//! routing and the reason the paper's abstract cites routing as the
//! application of Partial Reversal.
//!
//! TORA generalizes Gafni–Bertsekas heights to quintuples
//! `(τ, oid, r, δ, i)`:
//!
//! * `τ` — the logical *time* of the reference level (0 for the original
//!   destination-rooted heights),
//! * `oid` — the node that *defined* the reference level,
//! * `r` — the reflection bit,
//! * `δ` — the ordering offset within a reference level,
//! * `i` — the node id, breaking all ties.
//!
//! Edges run from lexicographically higher to lower heights; unrouted
//! nodes have the NULL height and their links are undirected.
//!
//! Three mechanisms (all implemented here, simplified to a synchronous
//! per-event state machine over the discrete-event simulator):
//!
//! * **Route creation** — `QRY` floods from a node that needs a route;
//!   any routed node answers with an `UPD` carrying its height; nodes
//!   with the route-required flag adopt `(τ, oid, r, δ+1, i)` and
//!   re-announce.
//! * **Route maintenance** — when a routed node loses its last
//!   *downstream* link it reacts with one of the five Park–Corson cases:
//!   1. **Generate** (loss due to a link failure): define a new
//!      reference level `(now, i, 0, 0, i)` — a "full reversal" of its
//!      remaining links;
//!   2. **Propagate** (loss due to an `UPD`, neighbors carry *different*
//!      reference levels): adopt the highest neighbor reference level
//!      with `δ = min δ − 1`;
//!   3. **Reflect** (same unreflected level everywhere): bounce the level
//!      back with `r = 1`;
//!   4. **Detect** (own reflected level returned from every neighbor):
//!      a **partition** — erase routes with a `CLR` flood;
//!   5. **Generate** (someone else's reflected level everywhere): give
//!      up on it and define a fresh reference level.
//! * **Route erasure** — `CLR` tagged with the invalid reference level
//!   nulls every height built on it.
//!
//! The paper's connection: within one reference level TORA's `δ`
//! dynamics are exactly height-based link reversal, and the acyclicity
//! of the height order — the property the paper proves for PR — is what
//! keeps TORA's routes loop-free at every instant.
//!
//! Each node keeps its neighbors' last heard heights in its simulator
//! slots ([`Tora`]'s [`Protocol::Slot`] is `Option<ToraHeight>`, `None`
//! for NULL or never heard).

use std::sync::Arc;

use lr_graph::{CsrGraph, NodeId, Orientation};

use crate::sim::{Ctx, EventSim, LinkConfig, Protocol};

/// A TORA height quintuple; ordered lexicographically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ToraHeight {
    /// Logical time of the reference level.
    pub tau: u64,
    /// Originator of the reference level.
    pub oid: NodeId,
    /// Reflection bit (0 or 1).
    pub r: u8,
    /// Ordering offset within the reference level.
    pub delta: i64,
    /// Node id tie-breaker.
    pub id: NodeId,
}

impl ToraHeight {
    /// The destination's fixed ZERO height.
    pub fn zero(dest: NodeId) -> Self {
        ToraHeight {
            tau: 0,
            oid: dest,
            r: 0,
            delta: 0,
            id: dest,
        }
    }

    /// The reference level `(τ, oid, r)` of this height.
    pub fn ref_level(&self) -> (u64, NodeId, u8) {
        (self.tau, self.oid, self.r)
    }
}

/// TORA protocol messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ToraMsg {
    /// Route request flood.
    Qry,
    /// Height announcement (`None` = "my height is NULL now").
    Upd(Option<ToraHeight>),
    /// Route erasure for an invalid reference level `(τ, oid)`.
    Clr {
        /// Reference-level time.
        tau: u64,
        /// Reference-level originator.
        oid: NodeId,
    },
    /// Local stimulus: this node needs a route (injected by the harness).
    NeedRoute,
    /// Link-layer notification: the link to this neighbor failed.
    LinkDown(NodeId),
}

/// Per-node TORA state.
#[derive(Debug, Clone)]
pub struct ToraNode {
    /// This node's height (`None` = NULL, unrouted).
    pub height: Option<ToraHeight>,
    /// Route-required flag (a `QRY` is outstanding).
    pub route_required: bool,
    /// Whether this node is the destination.
    pub is_dest: bool,
    /// Set when this node detected a partition (case 4) at the recorded
    /// virtual time.
    pub partition_detected_at: Option<u64>,
    /// Reference levels generated (cases 1 and 5).
    pub reference_levels_generated: u64,
}

/// The TORA protocol.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tora;

/// Why maintenance ran — selects between case 1 and cases 2–5.
enum Cause {
    LinkFailure,
    Update,
}

/// A TORA node's slot: the neighbor's last heard height.
type KnownHeight = Option<ToraHeight>;

impl Tora {
    /// The five-case maintenance reaction of a routed node that lost its
    /// last downstream link. Returns `true` if the height changed (an
    /// `UPD` must be broadcast) — case 4 broadcasts `CLR` itself.
    fn maintain(
        &self,
        ctx: &mut Ctx<'_, ToraMsg, KnownHeight>,
        node: &mut ToraNode,
        cause: Cause,
    ) -> bool {
        // The known non-NULL heights of the live neighbors.
        let routed: Vec<ToraHeight> = ctx.live_slots().flatten().copied().collect();
        let Some(me) = node.height else {
            return false;
        };
        if node.is_dest || routed.is_empty() {
            // NULL nodes and the destination never react; a node with no
            // routed neighbors at all has nobody upstream to serve.
            return false;
        }
        if routed.iter().any(|&h| h < me) {
            // A downstream neighbor remains.
            return false;
        }
        match cause {
            Cause::LinkFailure => {
                // Case 1: generate a new reference level.
                node.height = Some(ToraHeight {
                    tau: ctx.now,
                    oid: ctx.self_id,
                    r: 0,
                    delta: 0,
                    id: ctx.self_id,
                });
                node.reference_levels_generated += 1;
                true
            }
            Cause::Update => {
                let mut levels: Vec<(u64, NodeId, u8)> =
                    routed.iter().map(|h| h.ref_level()).collect();
                levels.sort();
                levels.dedup();
                if levels.len() > 1 {
                    // Case 2: propagate the highest reference level.
                    let top = *levels.last().expect("non-empty");
                    let min_delta = routed
                        .iter()
                        .filter(|h| h.ref_level() == top)
                        .map(|h| h.delta)
                        .min()
                        .expect("some neighbor carries the top level");
                    node.height = Some(ToraHeight {
                        tau: top.0,
                        oid: top.1,
                        r: top.2,
                        delta: min_delta - 1,
                        id: ctx.self_id,
                    });
                    true
                } else {
                    let (tau, oid, r) = levels[0];
                    if r == 0 {
                        // Case 3: reflect the level.
                        node.height = Some(ToraHeight {
                            tau,
                            oid,
                            r: 1,
                            delta: 0,
                            id: ctx.self_id,
                        });
                        true
                    } else if oid == ctx.self_id {
                        // Case 4: own reflection returned — partition.
                        node.height = None;
                        node.route_required = false;
                        node.partition_detected_at = Some(ctx.now);
                        ctx.broadcast(ToraMsg::Clr { tau, oid });
                        // Also let neighbors know our height is gone.
                        ctx.broadcast(ToraMsg::Upd(None));
                        false
                    } else {
                        // Case 5: someone else's dead reflection — start
                        // a fresh reference level.
                        node.height = Some(ToraHeight {
                            tau: ctx.now,
                            oid: ctx.self_id,
                            r: 0,
                            delta: 0,
                            id: ctx.self_id,
                        });
                        node.reference_levels_generated += 1;
                        true
                    }
                }
            }
        }
    }
}

impl Protocol for Tora {
    type Msg = ToraMsg;
    type Node = ToraNode;
    type Slot = KnownHeight;

    fn on_start(&mut self, ctx: &mut Ctx<'_, ToraMsg, KnownHeight>, node: &mut ToraNode) {
        if node.is_dest {
            ctx.broadcast(ToraMsg::Upd(node.height));
        }
    }

    fn on_message(
        &mut self,
        ctx: &mut Ctx<'_, ToraMsg, KnownHeight>,
        node: &mut ToraNode,
        _from: NodeId,
        msg: ToraMsg,
    ) {
        match msg {
            ToraMsg::NeedRoute => {
                if node.height.is_none() && !node.route_required && !node.is_dest {
                    node.route_required = true;
                    ctx.broadcast(ToraMsg::Qry);
                }
            }
            ToraMsg::Qry => {
                if node.height.is_some() || node.is_dest {
                    // A routed node answers with its height.
                    ctx.broadcast(ToraMsg::Upd(node.height));
                } else if !node.route_required {
                    node.route_required = true;
                    ctx.broadcast(ToraMsg::Qry);
                }
            }
            ToraMsg::Upd(h) => {
                if let Some(known) = ctx.sender_slot_mut() {
                    *known = h;
                }
                if node.is_dest {
                    return;
                }
                if node.route_required {
                    if let Some(hj) = h {
                        // Route creation: adopt (τ, oid, r, δ+1, i).
                        node.height = Some(ToraHeight {
                            tau: hj.tau,
                            oid: hj.oid,
                            r: hj.r,
                            delta: hj.delta + 1,
                            id: ctx.self_id,
                        });
                        node.route_required = false;
                        ctx.broadcast(ToraMsg::Upd(node.height));
                        return;
                    }
                }
                if self.maintain(ctx, node, Cause::Update) {
                    ctx.broadcast(ToraMsg::Upd(node.height));
                }
            }
            ToraMsg::Clr { tau, oid } => {
                let mine_matches = node.height.is_some_and(|h| h.tau == tau && h.oid == oid);
                // Drop neighbor entries built on the invalid level.
                for entry in ctx.slots_mut() {
                    if entry.is_some_and(|h| h.tau == tau && h.oid == oid) {
                        *entry = None;
                    }
                }
                if mine_matches && !node.is_dest {
                    node.height = None;
                    node.route_required = false;
                    ctx.broadcast(ToraMsg::Clr { tau, oid });
                    ctx.broadcast(ToraMsg::Upd(None));
                }
            }
            ToraMsg::LinkDown(v) => {
                if let Some(k) = ctx.position(v) {
                    ctx.slots_mut()[k] = None;
                }
                if self.maintain(ctx, node, Cause::LinkFailure) {
                    ctx.broadcast(ToraMsg::Upd(node.height));
                }
            }
        }
    }
}

/// Builds initial TORA node states, by dense index: the destination
/// holds the ZERO height, everyone else is NULL.
pub fn initial_tora_nodes(graph: &CsrGraph, dest: NodeId) -> Vec<ToraNode> {
    graph
        .nodes()
        .map(|u| ToraNode {
            height: (u == dest).then(|| ToraHeight::zero(dest)),
            route_required: false,
            is_dest: u == dest,
            partition_detected_at: None,
            reference_levels_generated: 0,
        })
        .collect()
}

/// Convenience harness for TORA scenarios.
pub struct ToraHarness {
    sim: EventSim<Tora>,
    dest: NodeId,
}

impl ToraHarness {
    /// Creates the harness; only the destination is routed initially.
    pub fn new(graph: impl Into<Arc<CsrGraph>>, dest: NodeId, link: LinkConfig, seed: u64) -> Self {
        let graph = graph.into();
        let nodes = initial_tora_nodes(&graph, dest);
        let mut sim = EventSim::new(Tora, graph, nodes, link, seed);
        sim.start();
        sim.run_to_quiescence(1_000_000);
        ToraHarness { sim, dest }
    }

    /// Requests a route at `u` (QRY flood) and runs to quiescence.
    pub fn create_route(&mut self, u: NodeId) {
        self.sim.inject(u, u, ToraMsg::NeedRoute);
        assert!(
            self.sim.run_to_quiescence(10_000_000),
            "route creation did not quiesce"
        );
    }

    /// Fails the link `{u, v}` and notifies both endpoints; the
    /// maintenance cases fire as the simulator runs on.
    pub fn fail_link(&mut self, u: NodeId, v: NodeId) {
        self.sim.fail_link(u, v);
        self.sim.inject(v, u, ToraMsg::LinkDown(v));
        self.sim.inject(u, v, ToraMsg::LinkDown(u));
    }

    /// Heals the link `{u, v}` and re-announces both heights across it.
    pub fn heal_link(&mut self, u: NodeId, v: NodeId) {
        self.sim.heal_link(u, v);
        let hu = self.sim.node(u).height;
        let hv = self.sim.node(v).height;
        self.sim.inject(v, u, ToraMsg::Upd(hv));
        self.sim.inject(u, v, ToraMsg::Upd(hu));
    }

    /// The current height of `u`.
    pub fn height(&self, u: NodeId) -> Option<ToraHeight> {
        self.sim.node(u).height
    }

    /// Whether `u` has detected a partition.
    pub fn partition_detected(&self, u: NodeId) -> bool {
        self.sim.node(u).partition_detected_at.is_some()
    }

    /// Direct access to the simulator.
    pub fn sim(&self) -> &EventSim<Tora> {
        &self.sim
    }

    /// Mutable access to the simulator, e.g. to set per-link
    /// [`LinkConfig`] overrides before injecting traffic.
    pub fn sim_mut(&mut self) -> &mut EventSim<Tora> {
        &mut self.sim
    }

    /// The orientation implied by the current heights over live links
    /// between *routed* nodes (NULL-height nodes contribute no edges, and
    /// a routed node without a live link to another is not in it).
    pub fn routed_orientation(&self) -> Orientation {
        let mut arcs = Vec::new();
        for (u, v, live) in self.sim.links() {
            let (hu, hv) = (self.sim.node(u).height, self.sim.node(v).height);
            if let (Some(hu), Some(hv), true) = (hu, hv, live) {
                let (tail, head) = if hu > hv { (u, v) } else { (v, u) };
                arcs.push((tail.raw(), head.raw()));
            }
        }
        Orientation::from_edges(&arcs).expect("each live link once")
    }

    /// Checks that every routed node has a directed path to the
    /// destination within the routed subgraph.
    pub fn routed_nodes_reach_destination(&self) -> bool {
        if self.sim.node(self.dest).height.is_none() {
            return false;
        }
        let o = self.routed_orientation();
        let reaching = o.nodes_reaching(self.dest);
        self.sim.nodes().all(|(u, n)| {
            n.height.is_none() || u == self.dest || o.csr().index_of(u).is_some_and(|i| reaching[i])
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lr_graph::stream;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn graph(edges: &[(u32, u32)]) -> CsrGraph {
        Orientation::from_edges(edges)
            .unwrap()
            .csr()
            .as_ref()
            .clone()
    }

    /// Runs the maintenance a link change set off to quiescence.
    fn quiesce(h: &mut ToraHarness) {
        assert!(h.sim_mut().run_to_quiescence(10_000_000), "did not quiesce");
    }

    fn path_graph(len: u32) -> CsrGraph {
        let edges: Vec<(u32, u32)> = (0..len - 1).map(|i| (i, i + 1)).collect();
        graph(&edges)
    }

    #[test]
    fn route_creation_floods_and_routes_everyone_on_a_path() {
        let g = path_graph(5);
        let mut h = ToraHarness::new(g, n(0), LinkConfig::default(), 1);
        assert_eq!(h.height(n(4)), None);
        h.create_route(n(4));
        // The QRY flood plus UPD responses route every node on the path.
        for i in 1..5 {
            let height = h.height(n(i)).expect("routed");
            assert_eq!(height.tau, 0, "creation uses the destination level");
            assert_eq!(height.delta, i as i64, "δ counts hops from the destination");
        }
        assert!(h.routed_nodes_reach_destination());
    }

    #[test]
    fn routes_form_destination_oriented_dag_on_random_graphs() {
        for seed in 0..5 {
            let inst = stream::random_connected(16, 16, 90_000 + seed);
            let mut h =
                ToraHarness::new(inst.csr().clone(), inst.dest, LinkConfig::default(), seed);
            // One node asks; the flood routes (at least) a path.
            for u in inst.csr().nodes() {
                if u != inst.dest {
                    h.create_route(u);
                }
            }
            assert!(h.routed_nodes_reach_destination(), "seed {seed}");
            assert!(h.routed_orientation().is_acyclic());
        }
    }

    #[test]
    fn link_failure_with_alternate_route_repairs_locally() {
        // A cycle: 0(D) - 1 - 2 - 3 - 0. Fail {0, 1}: node 1 generates a
        // new reference level (case 1) and routes via 2 -> 3 -> 0.
        let g = graph(&[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let mut h = ToraHarness::new(g, n(0), LinkConfig::default(), 2);
        h.create_route(n(2));
        assert!(h.routed_nodes_reach_destination());
        h.fail_link(n(0), n(1));
        quiesce(&mut h);
        assert!(
            h.routed_nodes_reach_destination(),
            "maintenance must restore routes on the surviving cycle"
        );
        assert!(h.sim().node(n(1)).reference_levels_generated >= 1);
        assert!(!h.partition_detected(n(1)));
        // Node 1 now routes through 2.
        let h1 = h.height(n(1)).unwrap();
        let h2 = h.height(n(2)).unwrap();
        assert!(h1 > h2, "1 must point at 2 after the reversal");
    }

    #[test]
    fn partition_is_detected_and_routes_erased() {
        // Path D - 1 - 2 - 3; failing {D, 1} partitions {1, 2, 3}. The
        // reference level generated at 1 reflects off 3 and returns to 1,
        // which detects the partition (case 4) and CLRs the region.
        let g = path_graph(4);
        let mut h = ToraHarness::new(g, n(0), LinkConfig::default(), 3);
        h.create_route(n(3));
        assert!(h.routed_nodes_reach_destination());
        h.fail_link(n(0), n(1));
        quiesce(&mut h);
        assert!(
            h.partition_detected(n(1)),
            "node 1 must detect the partition"
        );
        for i in 1..4 {
            assert_eq!(
                h.height(n(i)),
                None,
                "node {i}'s route must be erased by the CLR flood"
            );
        }
    }

    #[test]
    fn healed_partition_allows_re_routing() {
        let g = path_graph(4);
        let mut h = ToraHarness::new(g, n(0), LinkConfig::default(), 4);
        h.create_route(n(3));
        h.fail_link(n(0), n(1));
        quiesce(&mut h);
        assert!(h.partition_detected(n(1)));
        h.heal_link(n(0), n(1));
        quiesce(&mut h);
        h.create_route(n(3));
        assert!(h.routed_nodes_reach_destination());
        assert_eq!(h.height(n(3)).unwrap().delta, 3);
    }

    #[test]
    fn maintenance_reference_levels_order_above_creation_levels() {
        // After a repair, the new reference level (τ = now > 0) sits
        // above every creation-time height — the temporal ordering that
        // gives TORA its name.
        let g = graph(&[(0, 1), (1, 2), (2, 0)]);
        let mut h = ToraHarness::new(g, n(0), LinkConfig::default(), 5);
        h.create_route(n(1));
        h.create_route(n(2));
        h.fail_link(n(0), n(1));
        quiesce(&mut h);
        assert!(h.routed_nodes_reach_destination());
        let h1 = h.height(n(1)).unwrap();
        assert!(h1.tau > 0, "repair must use a temporal reference level");
        assert!(h1 > h.height(n(2)).unwrap());
    }

    #[test]
    fn destination_never_reacts_to_maintenance() {
        let g = path_graph(3);
        let mut h = ToraHarness::new(g, n(0), LinkConfig::default(), 6);
        h.create_route(n(2));
        h.fail_link(n(1), n(2)); // strands node 2
        quiesce(&mut h);
        assert_eq!(
            h.height(n(0)),
            Some(ToraHeight::zero(n(0))),
            "destination height is immutable"
        );
    }
}
