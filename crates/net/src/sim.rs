//! A deterministic discrete-event network simulator.
//!
//! Nodes exchange typed messages over per-link FIFO channels with
//! configurable delay, jitter, and loss. Time is virtual (`u64` ticks).
//! All randomness comes from a seeded PRNG, so every simulation is
//! reproducible from its configuration.
//!
//! Protocols implement [`Protocol`]: a start hook and a message handler,
//! both receiving a [`Ctx`] through which they send messages and read the
//! clock. The driver loop pops the earliest event, dispatches it, and
//! enqueues whatever the handler sent.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::fmt::Debug;

use lr_graph::{CsrGraph, NodeId, UndirectedGraph};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Link timing/loss configuration.
#[derive(Debug, Clone, Copy)]
pub struct LinkConfig {
    /// Base one-way delay in ticks (≥ 1).
    pub delay: u64,
    /// Maximum extra random delay (uniform in `0..=jitter`).
    pub jitter: u64,
    /// Probability a message is dropped in transit.
    pub loss: f64,
}

impl Default for LinkConfig {
    fn default() -> Self {
        LinkConfig {
            delay: 1,
            jitter: 0,
            loss: 0.0,
        }
    }
}

/// The interface a protocol exposes to the simulator.
pub trait Protocol {
    /// Message type carried over links.
    type Msg: Clone + Debug;
    /// Per-node protocol state.
    type Node;

    /// Called once per node before any message flows.
    fn on_start(&mut self, ctx: &mut Ctx<'_, Self::Msg>, node: &mut Self::Node);

    /// Called when a message from `from` arrives at `node`.
    fn on_message(
        &mut self,
        ctx: &mut Ctx<'_, Self::Msg>,
        node: &mut Self::Node,
        from: NodeId,
        msg: Self::Msg,
    );
}

/// Handler context: identity, clock, neighbor list, and an outbox.
#[derive(Debug)]
pub struct Ctx<'a, M> {
    /// The node this handler runs on.
    pub self_id: NodeId,
    /// Current virtual time.
    pub now: u64,
    /// Live neighbors of `self_id` (failed links excluded).
    pub neighbors: &'a [NodeId],
    outbox: Vec<(NodeId, M)>,
    timers: Vec<(u64, M)>,
}

impl<M> Ctx<'_, M> {
    /// Sends `msg` to `to` (must be a live neighbor; violations are
    /// reported by the driver, not silently dropped).
    pub fn send(&mut self, to: NodeId, msg: M) {
        self.outbox.push((to, msg));
    }

    /// Sends `msg` to every live neighbor.
    pub fn broadcast(&mut self, msg: M)
    where
        M: Clone,
    {
        for &v in self.neighbors {
            self.outbox.push((v, msg.clone()));
        }
    }

    /// Schedules `msg` for local redelivery after `delay` ticks — a
    /// timer. Timer messages bypass links entirely: they are never
    /// dropped, delayed further, or lost to link failure, and arrive as
    /// `on_message(…, from = self_id, msg)`.
    pub fn schedule_self(&mut self, delay: u64, msg: M) {
        self.timers.push((delay.max(1), msg));
    }
}

#[derive(Debug)]
struct InFlight<M> {
    from: NodeId,
    to: NodeId,
    msg: M,
}

/// Statistics of a finished simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SimStats {
    /// Messages handed to the network.
    pub sent: u64,
    /// Messages delivered to handlers.
    pub delivered: u64,
    /// Messages dropped by lossy links.
    pub dropped: u64,
    /// Messages discarded because their link failed mid-flight.
    pub lost_to_failure: u64,
    /// Virtual time of the last delivered event.
    pub last_event_time: u64,
}

/// The discrete-event simulator.
pub struct EventSim<P: Protocol> {
    protocol: P,
    graph: UndirectedGraph,
    /// CSR snapshot of `graph` for dense node indexing.
    csr: CsrGraph,
    /// Per-node live-neighbor lists (dense index), maintained
    /// incrementally: rebuilt only for the two endpoints of a failed or
    /// healed link, so event dispatch never rescans adjacency or
    /// allocates.
    live_nbrs: Vec<Vec<NodeId>>,
    nodes: BTreeMap<NodeId, P::Node>,
    link_config: LinkConfig,
    /// Per-link overrides of `link_config`, keyed by canonical edge.
    /// Heterogeneous networks (the scenario engine's per-link specs) set
    /// these; links without an entry use the global config.
    link_overrides: BTreeMap<(NodeId, NodeId), LinkConfig>,
    /// Links currently down (canonical order).
    failed: std::collections::BTreeSet<(NodeId, NodeId)>,
    queue: BinaryHeap<Reverse<(u64, u64)>>, // (deliver_at, seq)
    in_flight: BTreeMap<u64, InFlight<P::Msg>>, // seq -> message
    /// FIFO enforcement: earliest permissible delivery per directed link.
    link_clock: BTreeMap<(NodeId, NodeId), u64>,
    rng: SmallRng,
    now: u64,
    seq: u64,
    stats: SimStats,
}

impl<P: Protocol> EventSim<P> {
    /// Creates a simulator over `graph` with one protocol-state per node.
    pub fn new(
        protocol: P,
        graph: UndirectedGraph,
        nodes: BTreeMap<NodeId, P::Node>,
        link_config: LinkConfig,
        seed: u64,
    ) -> Self {
        assert_eq!(
            nodes.len(),
            graph.node_count(),
            "every node needs protocol state"
        );
        let csr = CsrGraph::from_graph(&graph);
        let live_nbrs = (0..csr.node_count())
            .map(|i| {
                csr.neighbor_indices(i)
                    .iter()
                    .map(|&j| csr.node(j as usize))
                    .collect()
            })
            .collect();
        EventSim {
            protocol,
            graph,
            csr,
            live_nbrs,
            nodes,
            link_config,
            link_overrides: BTreeMap::new(),
            failed: Default::default(),
            queue: BinaryHeap::new(),
            in_flight: BTreeMap::new(),
            link_clock: BTreeMap::new(),
            rng: SmallRng::seed_from_u64(seed),
            now: 0,
            seq: 0,
            stats: SimStats::default(),
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Advances the virtual clock to `t`. Lets an external driver —
    /// the scenario engine, the serve loop — fire scheduled actions at
    /// their nominal times even when the network is quiescent and no
    /// event would otherwise move the clock.
    ///
    /// A `t` at or before the current clock is a **documented no-op**:
    /// the clock never rewinds and no event is re-delivered. Drivers
    /// that batch (the serve loop calls this once per tick) can
    /// therefore call it unconditionally.
    ///
    /// When `t` lies beyond the next pending live event, the clock
    /// advances only *to that event's time*, never past it —
    /// [`EventSim::step`] stamps the clock with the event it delivers,
    /// so overshooting here would make the very next `step` a clock
    /// rewind. Callers that want the clock pinned at `t` drain first
    /// with [`EventSim::run_until_capped`]`(t, …)`, as the scenario
    /// engine and serve loop both do.
    pub fn advance_to(&mut self, t: u64) {
        if t <= self.now {
            return;
        }
        let target = match self.next_live_event_time() {
            Some(next) => t.min(next),
            None => t,
        };
        self.now = self.now.max(target);
    }

    /// Statistics so far.
    pub fn stats(&self) -> SimStats {
        self.stats
    }

    /// Immutable access to a node's protocol state.
    pub fn node(&self, u: NodeId) -> &P::Node {
        &self.nodes[&u]
    }

    /// Iterates over all `(id, state)` pairs.
    pub fn nodes(&self) -> impl Iterator<Item = (NodeId, &P::Node)> {
        self.nodes.iter().map(|(&u, s)| (u, s))
    }

    /// The underlying communication graph.
    pub fn graph(&self) -> &UndirectedGraph {
        &self.graph
    }

    /// Live neighbors of `u` (failed links excluded), as a borrow of the
    /// incrementally maintained cache — no allocation.
    pub fn live_neighbors(&self, u: NodeId) -> &[NodeId] {
        match self.csr.index_of(u) {
            Some(i) => &self.live_nbrs[i],
            None => &[],
        }
    }

    /// Canonical (sorted) key for an undirected link — the one scheme
    /// every per-link map in the simulator uses.
    fn canon(u: NodeId, v: NodeId) -> (NodeId, NodeId) {
        if u < v {
            (u, v)
        } else {
            (v, u)
        }
    }

    fn is_failed(&self, u: NodeId, v: NodeId) -> bool {
        self.failed.contains(&Self::canon(u, v))
    }

    /// Overrides the timing/loss configuration of the single link
    /// `{u, v}` (both directions). Takes effect for messages enqueued
    /// after the call; messages already in flight keep their schedule.
    ///
    /// # Panics
    ///
    /// Panics if `{u, v}` is not an edge of the graph.
    pub fn set_link_config(&mut self, u: NodeId, v: NodeId, config: LinkConfig) {
        assert!(self.graph.contains_edge(u, v), "no link {u}–{v}");
        self.link_overrides.insert(Self::canon(u, v), config);
    }

    /// The effective configuration of the link `{u, v}`: the per-link
    /// override when one was set, the global config otherwise.
    pub fn link_config(&self, u: NodeId, v: NodeId) -> LinkConfig {
        self.link_overrides
            .get(&Self::canon(u, v))
            .copied()
            .unwrap_or(self.link_config)
    }

    /// Recomputes the cached live-neighbor list of one node — called only
    /// when a link incident to it fails or heals.
    fn rebuild_live(&mut self, u: NodeId) {
        let i = self.csr.index_of(u).expect("endpoint is a node");
        let live: Vec<NodeId> = self
            .csr
            .neighbor_indices(i)
            .iter()
            .map(|&j| self.csr.node(j as usize))
            .filter(|&v| !self.is_failed(u, v))
            .collect();
        self.live_nbrs[i] = live;
    }

    /// Fails the link `{u, v}`: future sends are impossible and in-flight
    /// messages on the link are discarded.
    ///
    /// # Panics
    ///
    /// Panics if `{u, v}` is not an edge of the graph.
    pub fn fail_link(&mut self, u: NodeId, v: NodeId) {
        assert!(self.graph.contains_edge(u, v), "no link {u}–{v}");
        self.failed.insert(Self::canon(u, v));
        let doomed: Vec<u64> = self
            .in_flight
            .iter()
            .filter(|(_, m)| (m.from == u && m.to == v) || (m.from == v && m.to == u))
            .map(|(&s, _)| s)
            .collect();
        for s in doomed {
            self.in_flight.remove(&s);
            self.stats.lost_to_failure += 1;
        }
        self.rebuild_live(u);
        self.rebuild_live(v);
    }

    /// Restores a previously failed link.
    pub fn heal_link(&mut self, u: NodeId, v: NodeId) {
        self.failed.remove(&Self::canon(u, v));
        if self.graph.contains_edge(u, v) {
            self.rebuild_live(u);
            self.rebuild_live(v);
        }
    }

    /// Runs every node's `on_start` hook (call once, before stepping).
    pub fn start(&mut self) {
        let ids: Vec<NodeId> = self.nodes.keys().copied().collect();
        for u in ids {
            self.dispatch(u, None);
        }
    }

    /// Delivers the next event, if any. Returns `false` when the network
    /// is quiescent (no messages in flight).
    pub fn step(&mut self) -> bool {
        loop {
            let Some(&Reverse((t, seq))) = self.queue.peek() else {
                return false;
            };
            self.queue.pop();
            // The in-flight entry may have been discarded by a link
            // failure; skip stale queue entries.
            let Some(m) = self.in_flight.remove(&seq) else {
                continue;
            };
            self.now = t;
            self.stats.delivered += 1;
            self.stats.last_event_time = t;
            let (to, from, msg) = (m.to, m.from, m.msg);
            self.dispatch_message(to, from, msg);
            return true;
        }
    }

    /// Runs until quiescence or until `max_events` deliveries.
    ///
    /// Returns `true` if the network went quiescent within the budget.
    /// Quiescence means no *live* message remains in flight — queue
    /// entries whose message was discarded by a link failure do not
    /// count.
    pub fn run_to_quiescence(&mut self, max_events: u64) -> bool {
        for _ in 0..max_events {
            if !self.step() {
                return true;
            }
        }
        self.in_flight.is_empty()
    }

    /// Virtual time of the next live event, dropping any stale queue
    /// entries (messages cancelled by a link failure) encountered on
    /// the way — a stale head must never satisfy a deadline check on
    /// behalf of a live event scheduled later.
    fn next_live_event_time(&mut self) -> Option<u64> {
        while let Some(&Reverse((t, seq))) = self.queue.peek() {
            if self.in_flight.contains_key(&seq) {
                return Some(t);
            }
            self.queue.pop();
        }
        None
    }

    /// Runs until the next live event would land after `deadline` (or
    /// nothing is in flight). For protocols with recurring timers,
    /// which never quiesce, this is the natural driver. Returns the
    /// number of events delivered.
    pub fn run_until(&mut self, deadline: u64) -> u64 {
        self.run_until_capped(deadline, u64::MAX).0
    }

    /// Like [`EventSim::run_until`], but delivers at most `max_events`
    /// events. Returns `(delivered, capped)`: `capped` is `true` when
    /// the budget ran out with live events still due at or before
    /// `deadline`.
    pub fn run_until_capped(&mut self, deadline: u64, max_events: u64) -> (u64, bool) {
        let mut delivered = 0u64;
        loop {
            match self.next_live_event_time() {
                Some(t) if t <= deadline => {
                    if delivered == max_events {
                        return (delivered, true);
                    }
                    if self.step() {
                        delivered += 1;
                    }
                }
                _ => return (delivered, false),
            }
        }
    }

    /// Injects a message from outside the network (e.g. a client handing
    /// a packet to its local node). Delivered to `to` as if sent by
    /// `from` — `from == to` models local delivery.
    pub fn inject(&mut self, from: NodeId, to: NodeId, msg: P::Msg) {
        self.dispatch_message(to, from, msg);
    }

    fn dispatch_message(&mut self, to: NodeId, from: NodeId, msg: P::Msg) {
        self.dispatch(to, Some((from, msg)));
    }

    fn dispatch(&mut self, u: NodeId, incoming: Option<(NodeId, P::Msg)>) {
        let idx = self.csr.index_of(u).expect("dispatch target is a node");
        let mut ctx = Ctx {
            self_id: u,
            now: self.now,
            neighbors: &self.live_nbrs[idx],
            outbox: Vec::new(),
            timers: Vec::new(),
        };
        let node = self.nodes.get_mut(&u).expect("node exists");
        match incoming {
            None => self.protocol.on_start(&mut ctx, node),
            Some((from, msg)) => self.protocol.on_message(&mut ctx, node, from, msg),
        }
        let (outbox, timers) = (ctx.outbox, ctx.timers);
        for (to, msg) in outbox {
            self.enqueue(u, to, msg);
        }
        for (delay, msg) in timers {
            self.enqueue_timer(u, delay, msg);
        }
    }

    fn enqueue_timer(&mut self, u: NodeId, delay: u64, msg: P::Msg) {
        let seq = self.seq;
        self.seq += 1;
        // Saturating: a timer past the end of time fires at the end of
        // time instead of wrapping into the past.
        self.queue
            .push(Reverse((self.now.saturating_add(delay), seq)));
        self.in_flight.insert(
            seq,
            InFlight {
                from: u,
                to: u,
                msg,
            },
        );
    }

    fn enqueue(&mut self, from: NodeId, to: NodeId, msg: P::Msg) {
        assert!(
            self.graph.contains_edge(from, to),
            "{from} tried to send to non-neighbor {to}"
        );
        self.stats.sent += 1;
        if self.is_failed(from, to) {
            self.stats.lost_to_failure += 1;
            return;
        }
        let config = self.link_config(from, to);
        if config.loss > 0.0 && self.rng.gen_bool(config.loss) {
            self.stats.dropped += 1;
            return;
        }
        let jitter = if config.jitter > 0 {
            self.rng.gen_range(0..=config.jitter)
        } else {
            0
        };
        let earliest = self
            .now
            .saturating_add(config.delay.max(1))
            .saturating_add(jitter);
        // FIFO per directed link: never deliver before the previous
        // message on the same link.
        let clock = self.link_clock.entry((from, to)).or_insert(0);
        let deliver_at = earliest.max(*clock);
        *clock = deliver_at;
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Reverse((deliver_at, seq)));
        self.in_flight.insert(seq, InFlight { from, to, msg });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Flood: every node forwards the first token it sees to all
    /// neighbors; counts receptions.
    struct Flood {
        origin: NodeId,
    }

    #[derive(Default)]
    struct FloodNode {
        received: u32,
        relayed: bool,
    }

    impl Protocol for Flood {
        type Msg = ();
        type Node = FloodNode;

        fn on_start(&mut self, ctx: &mut Ctx<'_, ()>, node: &mut FloodNode) {
            if ctx.self_id == self.origin {
                node.relayed = true;
                ctx.broadcast(());
            }
        }

        fn on_message(
            &mut self,
            ctx: &mut Ctx<'_, ()>,
            node: &mut FloodNode,
            _from: NodeId,
            _msg: (),
        ) {
            node.received += 1;
            if !node.relayed {
                node.relayed = true;
                ctx.broadcast(());
            }
        }
    }

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn path_graph(len: u32) -> UndirectedGraph {
        let edges: Vec<(u32, u32)> = (0..len - 1).map(|i| (i, i + 1)).collect();
        UndirectedGraph::from_edges(&edges).unwrap()
    }

    fn flood_sim(len: u32, cfg: LinkConfig, seed: u64) -> EventSim<Flood> {
        let g = path_graph(len);
        let nodes = g.nodes().map(|u| (u, FloodNode::default())).collect();
        EventSim::new(Flood { origin: n(0) }, g, nodes, cfg, seed)
    }

    #[test]
    fn flood_reaches_every_node() {
        let mut sim = flood_sim(6, LinkConfig::default(), 0);
        sim.start();
        assert!(sim.run_to_quiescence(10_000));
        for (u, node) in sim.nodes() {
            if u != n(0) {
                assert!(node.received > 0, "{u} never got the token");
            }
        }
        // Each hop takes 1 tick; the far end (5 hops away) hears the
        // token at t = 5, and its relay back to node 4 lands at t = 6 —
        // the final event.
        assert_eq!(sim.stats().last_event_time, 6);
    }

    #[test]
    fn fifo_is_preserved_under_jitter() {
        /// Sends 10 numbered messages 0..10 along one link; the receiver
        /// asserts ascending order.
        struct Seq;
        #[derive(Default)]
        struct SeqNode {
            next_expected: u32,
        }
        impl Protocol for Seq {
            type Msg = u32;
            type Node = SeqNode;
            fn on_start(&mut self, ctx: &mut Ctx<'_, u32>, _n: &mut SeqNode) {
                if ctx.self_id == NodeId::new(0) {
                    for i in 0..10 {
                        ctx.send(NodeId::new(1), i);
                    }
                }
            }
            fn on_message(
                &mut self,
                _ctx: &mut Ctx<'_, u32>,
                node: &mut SeqNode,
                _from: NodeId,
                msg: u32,
            ) {
                assert_eq!(msg, node.next_expected, "FIFO violated");
                node.next_expected += 1;
            }
        }
        let g = path_graph(2);
        let nodes = g.nodes().map(|u| (u, SeqNode::default())).collect();
        let mut sim = EventSim::new(
            Seq,
            g,
            nodes,
            LinkConfig {
                delay: 1,
                jitter: 7,
                loss: 0.0,
            },
            42,
        );
        sim.start();
        assert!(sim.run_to_quiescence(1_000));
        assert_eq!(sim.node(n(1)).next_expected, 10);
    }

    #[test]
    fn lossy_links_drop_messages() {
        let mut sim = flood_sim(
            2,
            LinkConfig {
                delay: 1,
                jitter: 0,
                loss: 1.0,
            },
            1,
        );
        sim.start();
        assert!(sim.run_to_quiescence(100));
        assert_eq!(sim.node(n(1)).received, 0);
        assert!(sim.stats().dropped > 0);
    }

    #[test]
    fn failed_links_discard_in_flight_messages() {
        let mut sim = flood_sim(3, LinkConfig::default(), 2);
        sim.start(); // node 0 broadcasts to 1
        sim.fail_link(n(0), n(1));
        assert!(sim.run_to_quiescence(100));
        assert_eq!(sim.node(n(1)).received, 0, "message should be lost");
        assert!(sim.stats().lost_to_failure > 0);
        // Healing allows traffic again.
        sim.heal_link(n(0), n(1));
        sim.inject(n(0), n(1), ());
        assert!(sim.run_to_quiescence(100));
        assert!(sim.node(n(1)).received > 0);
    }

    #[test]
    fn per_link_overrides_shape_delivery_times() {
        // Path 0 — 1 — 2, global delay 1, but the {1, 2} hop overridden
        // to delay 10: the flood reaches node 1 at t = 1 and node 2 at
        // t = 11, and the final echo back over the slow link lands at
        // t = 21.
        let mut sim = flood_sim(3, LinkConfig::default(), 0);
        sim.set_link_config(
            n(1),
            n(2),
            LinkConfig {
                delay: 10,
                jitter: 0,
                loss: 0.0,
            },
        );
        assert_eq!(sim.link_config(n(2), n(1)).delay, 10, "both directions");
        assert_eq!(sim.link_config(n(0), n(1)).delay, 1, "others untouched");
        sim.start();
        assert!(sim.run_to_quiescence(10_000));
        assert_eq!(sim.stats().last_event_time, 21);
    }

    #[test]
    fn per_link_loss_override_drops_only_on_that_link() {
        // Path 0 — 1 — 2 with {1, 2} fully lossy: node 1 hears the
        // flood, node 2 never does, and every drop happened on the lossy
        // link.
        let mut sim = flood_sim(3, LinkConfig::default(), 3);
        sim.set_link_config(
            n(1),
            n(2),
            LinkConfig {
                delay: 1,
                jitter: 0,
                loss: 1.0,
            },
        );
        sim.start();
        assert!(sim.run_to_quiescence(10_000));
        assert!(sim.node(n(1)).received > 0);
        assert_eq!(sim.node(n(2)).received, 0);
        assert!(sim.stats().dropped > 0);
    }

    #[test]
    fn overrides_preserve_per_link_fifo_and_determinism() {
        let run = |seed| {
            let mut sim = flood_sim(5, LinkConfig::default(), seed);
            sim.set_link_config(
                n(2),
                n(3),
                LinkConfig {
                    delay: 2,
                    jitter: 9,
                    loss: 0.2,
                },
            );
            sim.start();
            assert!(sim.run_to_quiescence(100_000));
            sim.stats()
        };
        assert_eq!(run(11), run(11), "same seed, same run");
    }

    #[test]
    fn stale_entries_from_failed_links_do_not_distort_deadlines_or_quiescence() {
        // Path 0 — 1 — 2 with a slow {1, 2} link: node 0's broadcast to
        // 1 is due at t = 1; node 1's relay to 2 at t = 100. Failing
        // {0, 1} *after* node 1 relayed cancels 1's echo back to 0
        // (due t ≈ 101) but leaves its queue entry.
        let mut sim = flood_sim(3, LinkConfig::default(), 0);
        sim.set_link_config(
            n(1),
            n(2),
            LinkConfig {
                delay: 100,
                jitter: 0,
                loss: 0.0,
            },
        );
        sim.start();
        assert_eq!(sim.run_until(1), 1, "node 1 hears the token");
        sim.fail_link(n(0), n(1));
        // The cancelled echo's stale entry (t = 101) must not make
        // run_until(50) deliver the live t = 100 relay beyond its
        // deadline…
        assert_eq!(sim.run_until(50), 0, "nothing live is due by t = 50");
        assert!(sim.now() <= 50, "clock must not overshoot the deadline");
        // …and once the relay is delivered and everything live drains,
        // leftover stale entries must not mask quiescence.
        assert!(sim.run_to_quiescence(100));
        assert!(
            sim.run_to_quiescence(0),
            "stale entries are not in-flight work"
        );
        assert_eq!(sim.node(n(2)).received, 1);
    }

    /// `advance_to` with `t` at or before the clock is a documented
    /// no-op: no rewind, no re-delivery, quiescence undisturbed.
    #[test]
    fn advance_to_at_or_before_the_clock_is_a_no_op() {
        let mut sim = flood_sim(3, LinkConfig::default(), 0);
        sim.start();
        assert!(sim.run_to_quiescence(1_000));
        let now = sim.now();
        let stats = sim.stats();
        sim.advance_to(now); // equal
        assert_eq!(sim.now(), now, "equal t must not move the clock");
        sim.advance_to(now - 1); // earlier
        sim.advance_to(0);
        assert_eq!(sim.now(), now, "earlier t must not rewind the clock");
        assert_eq!(sim.stats(), stats, "no event may be re-delivered");
        assert!(sim.run_to_quiescence(0), "still quiescent");
        // A genuinely future t still advances a quiescent clock.
        sim.advance_to(now + 25);
        assert_eq!(sim.now(), now + 25);
    }

    /// Regression (pre-fix failure): `advance_to` past a pending live
    /// event used to set the clock beyond it, so the next `step()` —
    /// which stamps the clock with the delivered event's time — moved
    /// time *backwards*. The clamp caps the advance at the next live
    /// event instead.
    #[test]
    fn advance_to_never_overshoots_pending_events_into_a_rewind() {
        let mut sim = flood_sim(
            2,
            LinkConfig {
                delay: 100,
                jitter: 0,
                loss: 0.0,
            },
            0,
        );
        sim.start(); // node 0's token to node 1 is in flight, due t = 100
        sim.advance_to(500);
        assert!(
            sim.now() <= 100,
            "advance_to must not pass the pending t = 100 delivery (now = {})",
            sim.now()
        );
        let before = sim.now();
        assert!(sim.step(), "the delivery is still pending");
        assert!(
            sim.now() >= before,
            "step rewound the clock: {} -> {}",
            before,
            sim.now()
        );
        assert_eq!(sim.now(), 100, "the token arrives at its due time");
        assert_eq!(sim.node(n(1)).received, 1, "delivered exactly once");
    }

    #[test]
    fn run_until_capped_reports_exhaustion() {
        let mut sim = flood_sim(6, LinkConfig::default(), 0);
        sim.start();
        let (delivered, capped) = sim.run_until_capped(u64::MAX, 2);
        assert_eq!(delivered, 2);
        assert!(capped, "live events remain beyond the budget");
        let (_, capped) = sim.run_until_capped(u64::MAX, 10_000);
        assert!(!capped, "the flood drains within the budget");
    }

    #[test]
    #[should_panic(expected = "no link")]
    fn override_on_missing_link_panics() {
        let mut sim = flood_sim(3, LinkConfig::default(), 0);
        sim.set_link_config(n(0), n(2), LinkConfig::default());
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let mut sim = flood_sim(
                8,
                LinkConfig {
                    delay: 2,
                    jitter: 5,
                    loss: 0.1,
                },
                seed,
            );
            sim.start();
            sim.run_to_quiescence(100_000);
            sim.stats()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn timers_fire_at_the_scheduled_time() {
        /// Node 0 schedules ticks at +5 and (from the first tick) +7,
        /// recording arrival times.
        struct Timed;
        #[derive(Default)]
        struct TimedNode {
            fired_at: Vec<u64>,
        }
        impl Protocol for Timed {
            type Msg = u8;
            type Node = TimedNode;
            fn on_start(&mut self, ctx: &mut Ctx<'_, u8>, _n: &mut TimedNode) {
                if ctx.self_id == NodeId::new(0) {
                    ctx.schedule_self(5, 1);
                }
            }
            fn on_message(
                &mut self,
                ctx: &mut Ctx<'_, u8>,
                node: &mut TimedNode,
                from: NodeId,
                msg: u8,
            ) {
                assert_eq!(from, ctx.self_id, "timers arrive from self");
                node.fired_at.push(ctx.now);
                if msg == 1 {
                    ctx.schedule_self(7, 2);
                }
            }
        }
        let g = path_graph(2);
        let nodes = g.nodes().map(|u| (u, TimedNode::default())).collect();
        let mut sim = EventSim::new(Timed, g, nodes, LinkConfig::default(), 0);
        sim.start();
        assert!(sim.run_to_quiescence(100));
        assert_eq!(sim.node(n(0)).fired_at, vec![5, 12]);
    }

    #[test]
    fn timers_survive_lossy_and_failed_links() {
        /// A recurring tick on a fully lossy network still fires.
        struct Ticker;
        #[derive(Default)]
        struct TickNode {
            ticks: u32,
        }
        impl Protocol for Ticker {
            type Msg = ();
            type Node = TickNode;
            fn on_start(&mut self, ctx: &mut Ctx<'_, ()>, _n: &mut TickNode) {
                ctx.schedule_self(2, ());
            }
            fn on_message(
                &mut self,
                ctx: &mut Ctx<'_, ()>,
                node: &mut TickNode,
                _f: NodeId,
                _m: (),
            ) {
                node.ticks += 1;
                ctx.schedule_self(2, ());
            }
        }
        let g = path_graph(2);
        let nodes = g.nodes().map(|u| (u, TickNode::default())).collect();
        let mut sim = EventSim::new(
            Ticker,
            g,
            nodes,
            LinkConfig {
                delay: 1,
                jitter: 0,
                loss: 1.0,
            },
            0,
        );
        sim.start();
        sim.fail_link(n(0), n(1));
        let delivered = sim.run_until(20);
        assert!(delivered >= 18, "both nodes tick every 2 ticks");
        assert_eq!(sim.node(n(0)).ticks, 10);
    }

    #[test]
    fn run_until_respects_deadline() {
        let mut sim = flood_sim(6, LinkConfig::default(), 0);
        sim.start();
        sim.run_until(2);
        assert!(sim.now() <= 2);
        // Remaining events still pending.
        assert!(!sim.run_to_quiescence(0));
        assert!(sim.run_to_quiescence(1_000));
    }

    #[test]
    #[should_panic(expected = "non-neighbor")]
    fn sending_to_non_neighbor_panics() {
        struct Bad;
        impl Protocol for Bad {
            type Msg = ();
            type Node = ();
            fn on_start(&mut self, ctx: &mut Ctx<'_, ()>, _n: &mut ()) {
                if ctx.self_id == NodeId::new(0) {
                    ctx.send(NodeId::new(2), ()); // 0–2 is not an edge
                }
            }
            fn on_message(&mut self, _c: &mut Ctx<'_, ()>, _n: &mut (), _f: NodeId, _m: ()) {}
        }
        let g = path_graph(3);
        let nodes = g.nodes().map(|u| (u, ())).collect();
        let mut sim = EventSim::new(Bad, g, nodes, LinkConfig::default(), 0);
        sim.start();
    }
}
