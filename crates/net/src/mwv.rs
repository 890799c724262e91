//! Leader election by link reversal in the style of
//! Malpani–Welch–Vaidya (*Leader election algorithms for mobile ad hoc
//! networks*, DIAL-M 2000) — the leader-election application named in the
//! paper's abstract, built on the TORA machinery.
//!
//! Each node's height is extended to a **seven-tuple**
//! `(−era, lid, τ, oid, r, δ, i)`: the (negated) era of the election and
//! the id of the leader the height is rooted at, followed by the TORA
//! quintuple. Heights order lexicographically, so a **newer election
//! beats an older one, and among concurrent elections the smaller leader
//! id wins** — MWV's "most recent election wins" rule. Within one
//! leader's component, heights are destination-oriented toward that
//! leader exactly as in TORA.
//!
//! The core moves, straight from MWV:
//!
//! * when TORA's case 4 fires — a node's own reflected reference level
//!   returns, proving the component contains no leader — the detecting
//!   node **elects itself** in a fresh era and floods its new height;
//! * every node (leaders included — this is how concurrently elected
//!   leaders merge) adopts any neighbor height with a better
//!   `(−era, lid)` key.
//!
//! The era stamp is what kills the count-to-infinity failure mode:
//! without it, stale heights rooted at a *dead* leader with a small id
//! keep looking attractive and circulate forever (we reproduced exactly
//! that livelock before adding eras; see the repository history of this
//! file's tests).

use std::collections::BTreeMap;

use lr_graph::{NodeId, UndirectedGraph};

use crate::sim::{Ctx, EventSim, LinkConfig, Protocol};

/// An MWV height: leader id plus the TORA quintuple.
///
/// Ordering: two heights compare first on `lid` — **a smaller leader id
/// makes the whole height smaller**, so every node prefers flowing
/// toward the smallest-id leader — then on the TORA components.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MwvHeight {
    /// Negated election era: `-(era as i64)`, so **newer elections make
    /// lower (more attractive) heights**. The initial configuration has
    /// era 0; every self-election stamps the current virtual time.
    pub neg_era: i64,
    /// The leader this height is rooted at.
    pub lid: NodeId,
    /// Reference-level time.
    pub tau: u64,
    /// Reference-level originator.
    pub oid: NodeId,
    /// Reflection bit.
    pub r: u8,
    /// Ordering offset.
    pub delta: i64,
    /// Node id tie-breaker.
    pub id: NodeId,
}

impl MwvHeight {
    /// The height of a leader that elected itself in `era`.
    pub fn leader(lid: NodeId, era: u64) -> Self {
        MwvHeight {
            neg_era: -(era as i64),
            lid,
            tau: 0,
            oid: lid,
            r: 0,
            delta: 0,
            id: lid,
        }
    }

    /// The election key: `(neg_era, lid)` — smaller is preferred, i.e.
    /// newer era first, then smaller leader id.
    pub fn leader_key(&self) -> (i64, NodeId) {
        (self.neg_era, self.lid)
    }

    /// Reference level within the leader's component.
    pub fn ref_level(&self) -> (u64, NodeId, u8) {
        (self.tau, self.oid, self.r)
    }
}

/// MWV protocol messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MwvMsg {
    /// Height announcement.
    Upd(MwvHeight),
    /// Link-layer failure notification.
    LinkDown(NodeId),
}

/// Per-node MWV state.
#[derive(Debug, Clone)]
pub struct MwvNode {
    /// Current height; every node is always routed toward *some* leader.
    pub height: MwvHeight,
    /// Last heard neighbor heights.
    pub nbr_heights: BTreeMap<NodeId, MwvHeight>,
    /// Elections this node started (case-4 detections).
    pub self_elections: u64,
}

impl MwvNode {
    /// The leader this node currently believes in.
    pub fn leader(&self) -> NodeId {
        self.height.lid
    }

    /// Whether this node is currently a leader.
    pub fn is_leader(&self, me: NodeId) -> bool {
        self.height.lid == me
    }
}

/// The MWV election protocol.
#[derive(Debug, Clone, Copy, Default)]
pub struct Mwv;

impl Mwv {
    fn known_same_leader<'a>(
        node: &'a MwvNode,
        live: &'a [NodeId],
    ) -> impl Iterator<Item = (NodeId, MwvHeight)> + 'a {
        live.iter().filter_map(|v| {
            node.nbr_heights
                .get(v)
                .copied()
                .filter(|h| h.leader_key() == node.height.leader_key())
                .map(|h| (*v, h))
        })
    }

    /// TORA-style maintenance lifted to MWV heights. Returns `true` if
    /// the height changed.
    fn maintain(&self, ctx: &mut Ctx<'_, MwvMsg>, node: &mut MwvNode, link_failure: bool) -> bool {
        let me = ctx.self_id;
        // Adoption rule first, and it applies to **leaders as well**: a
        // leader that hears a smaller-lid height steps down and joins
        // that component (this is how concurrently elected leaders merge
        // — without it every case-4 detector would lead forever).
        let best_foreign = ctx
            .neighbors
            .iter()
            .filter_map(|v| node.nbr_heights.get(v).copied())
            .filter(|h| h.leader_key() < node.height.leader_key())
            .min();
        if let Some(h) = best_foreign {
            node.height = MwvHeight {
                neg_era: h.neg_era,
                lid: h.lid,
                tau: h.tau,
                oid: h.oid,
                r: h.r,
                delta: h.delta + 1,
                id: me,
            };
            return true;
        }
        if node.is_leader(me) {
            return false;
        }
        // Within our leader's component: do we still have a downstream?
        let mine = node.height;
        let same: Vec<(NodeId, MwvHeight)> = Self::known_same_leader(node, ctx.neighbors).collect();
        if same.iter().any(|(_, h)| *h < mine) {
            return false;
        }
        if same.is_empty() {
            // Cut off from everyone sharing our leader. If some neighbor
            // follows another leader (necessarily a larger lid, or the
            // smaller-lid adoption above would have fired), join it —
            // our own leader is unreachable through this neighborhood.
            // Only a node with no routed neighbors at all elects itself.
            let best_any = ctx
                .neighbors
                .iter()
                .filter_map(|v| node.nbr_heights.get(v).copied())
                .min();
            match best_any {
                Some(h) => {
                    node.height = MwvHeight {
                        neg_era: h.neg_era,
                        lid: h.lid,
                        tau: h.tau,
                        oid: h.oid,
                        r: h.r,
                        delta: h.delta + 1,
                        id: me,
                    };
                }
                None => {
                    node.height = MwvHeight::leader(me, ctx.now);
                    node.self_elections += 1;
                }
            }
            return true;
        }
        if link_failure {
            // Case 1: new reference level inside the component.
            node.height = MwvHeight {
                neg_era: mine.neg_era,
                lid: mine.lid,
                tau: ctx.now,
                oid: me,
                r: 0,
                delta: 0,
                id: me,
            };
            return true;
        }
        let mut levels: Vec<(u64, NodeId, u8)> = same.iter().map(|(_, h)| h.ref_level()).collect();
        levels.sort();
        levels.dedup();
        if levels.len() > 1 {
            // Case 2: propagate the highest level.
            let top = *levels.last().expect("non-empty");
            let min_delta = same
                .iter()
                .filter(|(_, h)| h.ref_level() == top)
                .map(|(_, h)| h.delta)
                .min()
                .expect("some neighbor carries the top level");
            node.height = MwvHeight {
                neg_era: mine.neg_era,
                lid: mine.lid,
                tau: top.0,
                oid: top.1,
                r: top.2,
                delta: min_delta - 1,
                id: me,
            };
            true
        } else {
            let (tau, oid, r) = levels[0];
            if r == 0 {
                // Case 3: reflect.
                node.height = MwvHeight {
                    neg_era: mine.neg_era,
                    lid: mine.lid,
                    tau,
                    oid,
                    r: 1,
                    delta: 0,
                    id: me,
                };
                true
            } else if oid == me {
                // Case 4 → MWV: partition from the leader — elect
                // myself in a fresh era so stale heights rooted at the
                // unreachable leader can never out-compete the election.
                node.height = MwvHeight::leader(me, ctx.now);
                node.self_elections += 1;
                true
            } else {
                // Case 5: fresh reference level.
                node.height = MwvHeight {
                    neg_era: mine.neg_era,
                    lid: mine.lid,
                    tau: ctx.now,
                    oid: me,
                    r: 0,
                    delta: 0,
                    id: me,
                };
                true
            }
        }
    }
}

impl Protocol for Mwv {
    type Msg = MwvMsg;
    type Node = MwvNode;

    fn on_start(&mut self, ctx: &mut Ctx<'_, MwvMsg>, node: &mut MwvNode) {
        ctx.broadcast(MwvMsg::Upd(node.height));
    }

    fn on_message(
        &mut self,
        ctx: &mut Ctx<'_, MwvMsg>,
        node: &mut MwvNode,
        from: NodeId,
        msg: MwvMsg,
    ) {
        match msg {
            MwvMsg::Upd(h) => {
                node.nbr_heights.insert(from, h);
            }
            MwvMsg::LinkDown(v) => {
                node.nbr_heights.remove(&v);
                if self.maintain(ctx, node, true) {
                    ctx.broadcast(MwvMsg::Upd(node.height));
                }
                return;
            }
        }
        if self.maintain(ctx, node, false) {
            ctx.broadcast(MwvMsg::Upd(node.height));
        }
    }
}

/// Initial MWV states: everyone starts in `leader`'s component with
/// BFS-hop `δ` heights (a pre-built destination-oriented DAG).
pub fn initial_mwv_nodes(graph: &UndirectedGraph, leader: NodeId) -> BTreeMap<NodeId, MwvNode> {
    // BFS distances from the leader.
    let mut dist: BTreeMap<NodeId, i64> = BTreeMap::new();
    let mut queue = std::collections::VecDeque::new();
    dist.insert(leader, 0);
    queue.push_back(leader);
    while let Some(u) = queue.pop_front() {
        let d = dist[&u];
        for v in graph.neighbors(u) {
            if let std::collections::btree_map::Entry::Vacant(e) = dist.entry(v) {
                e.insert(d + 1);
                queue.push_back(v);
            }
        }
    }
    assert_eq!(dist.len(), graph.node_count(), "graph must be connected");
    graph
        .nodes()
        .map(|u| {
            (
                u,
                MwvNode {
                    height: MwvHeight {
                        neg_era: 0,
                        lid: leader,
                        tau: 0,
                        oid: leader,
                        r: 0,
                        delta: dist[&u],
                        id: u,
                    },
                    nbr_heights: BTreeMap::new(),
                    self_elections: 0,
                },
            )
        })
        .collect()
}

/// MWV harness.
pub struct MwvHarness {
    sim: EventSim<Mwv>,
}

impl MwvHarness {
    /// Builds the harness with everyone following `leader` and announces
    /// initial heights.
    pub fn new(graph: &UndirectedGraph, leader: NodeId, link: LinkConfig, seed: u64) -> Self {
        let nodes = initial_mwv_nodes(graph, leader);
        let mut sim = EventSim::new(Mwv, graph.clone(), nodes, link, seed);
        sim.start();
        assert!(
            sim.run_to_quiescence(10_000_000),
            "initial gossip must settle"
        );
        MwvHarness { sim }
    }

    /// Crashes a node: fails all its links with notifications, then runs
    /// to quiescence.
    pub fn crash(&mut self, dead: NodeId) {
        let nbrs: Vec<NodeId> = self.sim.live_neighbors(dead).to_vec();
        for v in nbrs {
            self.sim.fail_link(dead, v);
            self.sim.inject(dead, v, MwvMsg::LinkDown(dead));
        }
        assert!(self.sim.run_to_quiescence(10_000_000), "did not quiesce");
    }

    /// The leader each surviving node currently follows (`dead` nodes
    /// excluded by the caller).
    pub fn leader_of(&self, u: NodeId) -> NodeId {
        self.sim.node(u).leader()
    }

    /// Asserts all nodes in `component` agree on one leader inside the
    /// component and that heights orient the component toward that
    /// leader; returns the leader.
    ///
    /// # Panics
    ///
    /// Panics if agreement or orientation fails.
    pub fn assert_component_converged(&self, component: &[NodeId]) -> NodeId {
        let leader = self.leader_of(component[0]);
        for &u in component {
            assert_eq!(self.leader_of(u), leader, "{u} disagrees on the leader");
        }
        assert!(
            component.contains(&leader),
            "leader {leader} must live in the component"
        );
        // Orientation: follow strictly-descending heights to the leader.
        for &start in component {
            let mut cur = start;
            let mut hops = 0;
            while cur != leader {
                let me = self.sim.node(cur).height;
                let next = self
                    .sim
                    .live_neighbors(cur)
                    .iter()
                    .copied()
                    .filter(|v| component.contains(v))
                    .map(|v| (self.sim.node(v).height, v))
                    .filter(|(h, _)| *h < me)
                    .min();
                let Some((_, v)) = next else {
                    panic!("{cur} has no downhill neighbor toward {leader}");
                };
                cur = v;
                hops += 1;
                assert!(
                    hops <= component.len(),
                    "cycle while descending from {start}"
                );
            }
        }
        leader
    }

    /// Direct access to the simulator.
    pub fn sim(&self) -> &EventSim<Mwv> {
        &self.sim
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lr_graph::stream;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn path_graph(len: u32) -> UndirectedGraph {
        let edges: Vec<(u32, u32)> = (0..len - 1).map(|i| (i, i + 1)).collect();
        UndirectedGraph::from_edges(&edges).unwrap()
    }

    #[test]
    fn stable_network_keeps_its_leader() {
        let inst = stream::random_connected(12, 10, 100).to_instance();
        let h = MwvHarness::new(&inst.graph, inst.dest, LinkConfig::default(), 1);
        let all: Vec<NodeId> = inst.graph.nodes().collect();
        assert_eq!(h.assert_component_converged(&all), inst.dest);
    }

    #[test]
    fn partitioned_component_elects_its_own_leader() {
        // Path 0(L) - 1 - 2 - 3: crashing node 1 strands {2, 3}. The
        // stranded pair detects the loss via reflection and elects node
        // 2 or 3 (whichever detects; adoption then settles on min id).
        let g = path_graph(4);
        let mut h = MwvHarness::new(&g, n(0), LinkConfig::default(), 2);
        h.crash(n(1));
        let leader = h.assert_component_converged(&[n(2), n(3)]);
        assert_eq!(leader, n(2), "min-id adoption settles on node 2");
        assert_eq!(h.leader_of(n(0)), n(0), "old leader keeps leading its side");
        let elections: u64 = [n(2), n(3)]
            .iter()
            .map(|&u| h.sim().node(u).self_elections)
            .sum();
        assert!(elections >= 1, "someone must have self-elected");
    }

    #[test]
    fn leader_crash_triggers_election_among_survivors() {
        for seed in 0..5 {
            let inst = stream::random_connected(10, 12, 200 + seed).to_instance();
            let mut h = MwvHarness::new(&inst.graph, inst.dest, LinkConfig::default(), seed);
            h.crash(inst.dest);
            let survivors: Vec<NodeId> = inst.graph.nodes().filter(|&u| u != inst.dest).collect();
            // The winner is whichever detector's election spread (the
            // smallest id among self-elected leaders); the component
            // must agree on it and be oriented toward it.
            let leader = h.assert_component_converged(&survivors);
            assert!(
                h.sim().node(leader).self_elections >= 1,
                "seed {seed}: the agreed leader {leader} must have self-elected"
            );
        }
    }

    #[test]
    fn components_merge_on_newest_election_after_heal() {
        // Crash node 1 on the path, let {2,3} elect node 2, then heal:
        // MWV semantics say the **newest election wins** the merge, so
        // the whole path converges on node 2 (its era postdates node 0's
        // initial era-0 leadership).
        let g = path_graph(4);
        let mut h = MwvHarness::new(&g, n(0), LinkConfig::default(), 3);
        h.crash(n(1));
        let partition_leader = h.assert_component_converged(&[n(2), n(3)]);
        assert_eq!(partition_leader, n(2));
        // Heal all of node 1's links and re-announce.
        h.sim.heal_link(n(0), n(1));
        h.sim.heal_link(n(1), n(2));
        let h0 = h.sim.node(n(0)).height;
        let h1 = h.sim.node(n(1)).height;
        let h2 = h.sim.node(n(2)).height;
        h.sim.inject(n(0), n(1), MwvMsg::Upd(h0));
        h.sim.inject(n(2), n(1), MwvMsg::Upd(h2));
        h.sim.inject(n(1), n(2), MwvMsg::Upd(h1));
        assert!(h.sim.run_to_quiescence(10_000_000));
        let all: Vec<NodeId> = g.nodes().collect();
        assert_eq!(h.assert_component_converged(&all), n(2));
        // The old leader stepped down.
        assert!(!h.sim.node(n(0)).is_leader(n(0)));
    }

    #[test]
    fn multiple_simultaneous_partitions() {
        // Star of paths: 0(L) with arms (1,2) and (3,4). Crashing 0
        // creates two components; each elects its own min-id leader.
        let g = UndirectedGraph::from_edges(&[(0, 1), (1, 2), (0, 3), (3, 4)]).unwrap();
        let mut h = MwvHarness::new(&g, n(0), LinkConfig::default(), 4);
        h.crash(n(0));
        assert_eq!(h.assert_component_converged(&[n(1), n(2)]), n(1));
        assert_eq!(h.assert_component_converged(&[n(3), n(4)]), n(3));
    }
}
