//! Token-based mutual exclusion by link reversal on a spanning tree —
//! Raymond's algorithm, the mutual-exclusion application the paper's
//! abstract refers to (via Welch & Walter's treatment).
//!
//! Every node keeps a `holder` pointer: itself if it has the token,
//! otherwise the tree neighbor in the token's direction. The holder
//! pointers are exactly a **destination-oriented tree** whose destination
//! is the token holder; passing the token reverses the pointers along its
//! path — link reversal in its purest form. The test suite checks the
//! destination-orientation invariant at quiescence, which is this module's
//! connection to the paper's central property.

use std::collections::VecDeque;
use std::sync::Arc;

use lr_graph::{CsrGraph, NodeId};

use crate::sim::{Ctx, EventSim, LinkConfig, Protocol};

/// Messages of Raymond's algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MutexMsg {
    /// A request for the token, forwarded hop-by-hop toward the holder.
    Request,
    /// The token itself.
    Token,
    /// Local stimulus: this node wants the critical section (injected by
    /// the harness, never sent over links).
    Local,
}

/// Per-node state of Raymond's algorithm.
#[derive(Debug, Clone)]
pub struct MutexNode {
    /// Self if this node holds the token, else the tree neighbor toward
    /// the holder.
    pub holder: NodeId,
    /// FIFO of pending requesters (neighbors, or self).
    pub queue: VecDeque<NodeId>,
    /// Whether a request toward the holder is already outstanding.
    pub asked: bool,
    /// Completed critical sections at this node.
    pub cs_entries: u64,
    /// Tree neighbors (the protocol runs on a spanning tree).
    pub tree_nbrs: Vec<NodeId>,
}

/// Raymond's algorithm. Critical sections are instantaneous: a node that
/// obtains the token with itself at the head of its queue "uses" it and
/// immediately continues, so the interesting observable is the pointer
/// structure and message flow rather than CS timing.
#[derive(Debug, Clone, Copy, Default)]
pub struct RaymondMutex;

fn assign_and_request(ctx: &mut Ctx<'_, MutexMsg, ()>, node: &mut MutexNode) {
    // assign_privilege
    if node.holder == ctx.self_id {
        if let Some(&head) = node.queue.front() {
            node.queue.pop_front();
            if head == ctx.self_id {
                // Enter and immediately exit the critical section.
                node.cs_entries += 1;
            } else {
                node.holder = head;
                node.asked = false;
                ctx.send(head, MutexMsg::Token);
            }
        }
    }
    // make_request
    if node.holder != ctx.self_id && !node.queue.is_empty() && !node.asked {
        ctx.send(node.holder, MutexMsg::Request);
        node.asked = true;
    }
    // After a CS completes locally, the queue may still hold requests.
    if node.holder == ctx.self_id && !node.queue.is_empty() {
        assign_and_request(ctx, node);
    }
}

impl Protocol for RaymondMutex {
    type Msg = MutexMsg;
    type Node = MutexNode;
    type Slot = ();

    fn on_start(&mut self, _ctx: &mut Ctx<'_, MutexMsg, ()>, _node: &mut MutexNode) {}

    fn on_message(&mut self, ctx: &mut Ctx<'_, MutexMsg, ()>, node: &mut MutexNode, msg: MutexMsg) {
        match msg {
            MutexMsg::Local => node.queue.push_back(ctx.self_id),
            MutexMsg::Request => {
                let from = ctx.sender().expect("a request arrives over a tree link");
                node.queue.push_back(from);
            }
            MutexMsg::Token => {
                node.holder = ctx.self_id;
            }
        }
        assign_and_request(ctx, node);
    }
}

/// Builds the BFS spanning tree of `graph` rooted at `root` and the
/// initial node states by dense index (token at the root, holder
/// pointers toward it).
///
/// # Panics
///
/// Panics if `root` is not a node or the graph is not connected.
pub fn initial_mutex_nodes(graph: &CsrGraph, root: NodeId) -> Vec<MutexNode> {
    let n = graph.node_count();
    // BFS to get parents, by dense index.
    let root = graph.index_of(root).expect("root is a node");
    let mut parent: Vec<Option<usize>> = vec![None; n];
    parent[root] = Some(root);
    let mut order = vec![root];
    let mut i = 0;
    while i < order.len() {
        let u = order[i];
        i += 1;
        for &v in graph.neighbor_indices(u) {
            let v = v as usize;
            if parent[v].is_none() {
                parent[v] = Some(u);
                order.push(v);
            }
        }
    }
    assert_eq!(order.len(), n, "graph must be connected");
    let parent: Vec<usize> = parent.into_iter().flatten().collect();
    // Tree adjacency.
    let mut tree_nbrs: Vec<Vec<NodeId>> = vec![Vec::new(); n];
    for (child, &par) in parent.iter().enumerate() {
        if child != par {
            tree_nbrs[child].push(graph.node(par));
            tree_nbrs[par].push(graph.node(child));
        }
    }
    tree_nbrs
        .into_iter()
        .zip(parent)
        .map(|(mut tree_nbrs, par)| {
            tree_nbrs.sort();
            MutexNode {
                holder: graph.node(par),
                queue: VecDeque::new(),
                asked: false,
                cs_entries: 0,
                tree_nbrs,
            }
        })
        .collect()
}

/// Mutual-exclusion harness over a spanning tree of `graph`.
pub struct MutexHarness {
    sim: EventSim<RaymondMutex>,
}

/// End-of-run mutual-exclusion metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MutexReport {
    /// Total critical-section entries across all nodes.
    pub cs_entries: u64,
    /// Total messages (requests + token moves).
    pub messages: u64,
    /// The node holding the token at quiescence.
    pub final_holder: NodeId,
}

impl MutexHarness {
    /// Creates the harness with the token at `root`.
    pub fn new(graph: impl Into<Arc<CsrGraph>>, root: NodeId, link: LinkConfig, seed: u64) -> Self {
        let graph = graph.into();
        let nodes = initial_mutex_nodes(&graph, root);
        let mut sim = EventSim::new(RaymondMutex, graph, nodes, link, seed);
        sim.start();
        MutexHarness { sim }
    }

    /// Queues a critical-section request at `u`.
    pub fn request(&mut self, u: NodeId) {
        self.sim.inject(u, u, MutexMsg::Local);
    }

    /// Direct access to the simulator.
    pub fn sim(&self) -> &EventSim<RaymondMutex> {
        &self.sim
    }

    /// Mutable access to the simulator, e.g. to fail links or set
    /// per-link [`LinkConfig`] overrides between requests.
    pub fn sim_mut(&mut self) -> &mut EventSim<RaymondMutex> {
        &mut self.sim
    }

    /// Runs to quiescence.
    ///
    /// # Panics
    ///
    /// Panics if the network does not quiesce, more than one node holds
    /// the token, or the holder pointers do not form a tree oriented
    /// toward the holder.
    pub fn run(&mut self, max_events: u64) -> MutexReport {
        assert!(self.sim.run_to_quiescence(max_events), "did not quiesce");
        // Token uniqueness.
        let holders: Vec<NodeId> = self
            .sim
            .nodes()
            .filter(|(u, n)| n.holder == *u)
            .map(|(u, _)| u)
            .collect();
        assert_eq!(holders.len(), 1, "exactly one node must hold the token");
        let holder = holders[0];
        // Destination-orientation of the pointer tree: following holder
        // pointers from any node reaches the token holder.
        for (u, _) in self.sim.nodes() {
            let mut cur = u;
            let mut hops = 0;
            while cur != holder {
                cur = self.sim.node(cur).holder;
                hops += 1;
                assert!(
                    hops <= self.sim.csr().node_count(),
                    "holder pointers contain a cycle at {u}"
                );
            }
        }
        MutexReport {
            cs_entries: self.sim.nodes().map(|(_, n)| n.cs_entries).sum(),
            messages: self.sim.stats().sent,
            final_holder: holder,
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

    fn chain_graph(len: u32) -> CsrGraph {
        let edges: Vec<(u32, u32)> = (0..len - 1).map(|i| (i, i + 1)).collect();
        lr_graph::Orientation::from_edges(&edges)
            .unwrap()
            .csr()
            .as_ref()
            .clone()
    }

    #[test]
    fn single_request_moves_token_to_requester() {
        let g = chain_graph(5);
        let mut h = MutexHarness::new(g.clone(), n(0), LinkConfig::default(), 0);
        h.request(n(4));
        let r = h.run(10_000);
        assert_eq!(r.cs_entries, 1);
        assert_eq!(r.final_holder, n(4));
        // 4 request hops + 4 token hops on the chain.
        assert_eq!(r.messages, 8);
    }

    #[test]
    fn every_request_is_served_exactly_once() {
        let inst = stream::random_connected(12, 10, 6);
        let mut h = MutexHarness::new(inst.csr().clone(), inst.dest, LinkConfig::default(), 1);
        for u in inst.csr().nodes() {
            h.request(u);
        }
        let r = h.run(1_000_000);
        assert_eq!(r.cs_entries, 12);
    }

    #[test]
    fn holder_already_owning_enters_immediately() {
        let g = chain_graph(3);
        let mut h = MutexHarness::new(g.clone(), n(0), LinkConfig::default(), 2);
        h.request(n(0));
        let r = h.run(1_000);
        assert_eq!(r.cs_entries, 1);
        assert_eq!(r.final_holder, n(0));
        assert_eq!(r.messages, 0, "local grant needs no messages");
    }

    #[test]
    fn repeated_contention_is_fair_enough_to_serve_all() {
        let g = chain_graph(8);
        let mut h = MutexHarness::new(
            g.clone(),
            n(3),
            LinkConfig {
                delay: 2,
                jitter: 5,
                loss: 0.0,
            },
            3,
        );
        for round in 0..3 {
            for u in g.nodes() {
                let _ = round;
                h.request(u);
            }
        }
        let r = h.run(1_000_000);
        assert_eq!(r.cs_entries, 24);
    }

    #[test]
    fn pointer_tree_validates_after_token_moves() {
        // The run() postcondition asserts destination-orientation; make
        // sure it holds after multiple token migrations.
        let inst = stream::random_connected(10, 8, 11);
        let mut h = MutexHarness::new(inst.csr().clone(), inst.dest, LinkConfig::default(), 4);
        h.request(n(7));
        h.run(100_000);
        h.request(n(2));
        h.run(100_000);
        let r = {
            h.request(n(9));
            h.run(100_000)
        };
        assert_eq!(r.final_holder, n(9));
    }
}
