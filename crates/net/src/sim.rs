//! A deterministic discrete-event network simulator over a CSR graph.
//!
//! Nodes exchange typed messages over per-link FIFO channels with
//! configurable delay, jitter, and loss. Time is virtual (`u64` ticks).
//! All randomness comes from a seeded PRNG, so every simulation is
//! reproducible from its configuration.
//!
//! Protocols implement [`Protocol`]: a start hook and a message handler,
//! both receiving a [`Ctx`] through which they send messages, read the
//! clock and keep per-neighbor state. The driver loop pops the earliest
//! event, dispatches it, and enqueues whatever the handler sent. There
//! are no timers: every event is a message delivery, so a run is
//! quiescent once nothing is in flight, and an external driver moves the
//! clock with [`EventSim::advance_to`].
//!
//! ## Layout
//!
//! The simulator keeps no map-backed graph. Everything is indexed by the
//! [`CsrGraph`] it is built on:
//!
//! * protocol state sits in a `Vec` by dense node index;
//! * each **half-edge slot** — the slot of the ordered pair `(u, v)`, in
//!   `u`'s contiguous run of slots — holds the link's live bit, its
//!   [`LinkConfig`] (an index into the few distinct configs), the FIFO
//!   clock of the directed link `u → v`, and the protocol's
//!   [`Protocol::Slot`]: what `u` keeps about `v`, such as `v`'s last
//!   announced height. A handler sees its node's run through [`Ctx`];
//!   a reader outside the handlers, such as a route probe, scans the same
//!   run with [`EventSim::slot`] and [`EventSim::is_live`];
//! * each send in flight sits in the event queue itself, in the FIFO of
//!   its delivery time, so events come out in `(deliver_at, send
//!   order)`. One queue entry carries one send over up to 32 consecutive
//!   slots of its sender, a bit per copy still due, delivered lowest
//!   slot first: a unicast is a one-bit entry, and a broadcast whose
//!   copies share a delivery time (links of one delay, no jitter) is one
//!   entry. A copy due at another time than the live copy before it
//!   starts a new entry. Each copy draws its loss and jitter and moves
//!   its link's FIFO clock as it would alone, so the schedule is the one
//!   a queue of single copies gives. A link failure clears the link's
//!   bits in place, and a count of the live copies in flight decides
//!   quiescence. Delivering the last live copy empties the queue,
//!   cancelled entries and all;
//! * a **touched log** lists, once each, the nodes whose state, slots,
//!   live bits or link configs changed since the log was last drained
//!   ([`EventSim::touched`]), so a reader that caches what it computed
//!   from those can retire exactly the stale part.

use std::collections::{BTreeMap, VecDeque};
use std::fmt::Debug;
use std::sync::Arc;

use lr_graph::{CsrGraph, NodeId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Link timing/loss configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
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
    /// Per-neighbor protocol state, one per half-edge slot: what a node
    /// keeps about one neighbor (e.g. its last announced height). Every
    /// slot starts at `Default` and keeps its value while its link is
    /// down.
    type Slot: Default;

    /// Called once per node before any message flows.
    fn on_start(&mut self, ctx: &mut Ctx<'_, Self::Msg, Self::Slot>, node: &mut Self::Node);

    /// Called when a message arrives at `node`; [`Ctx::sender`] names
    /// the neighbor it came from.
    fn on_message(
        &mut self,
        ctx: &mut Ctx<'_, Self::Msg, Self::Slot>,
        node: &mut Self::Node,
        msg: Self::Msg,
    );
}

/// Handler context: identity, clock, the node's run of slots, and an
/// outbox.
///
/// Run position `k` is the node's `k`-th neighbor in ascending id order;
/// [`Ctx::slots_mut`] and [`Ctx::run`] are indexed by it.
#[derive(Debug)]
pub struct Ctx<'a, M, S> {
    /// The node this handler runs on.
    pub self_id: NodeId,
    /// Current virtual time.
    pub now: u64,
    csr: &'a CsrGraph,
    /// Dense index of `self_id`.
    me: usize,
    /// First slot of the node's run.
    first: usize,
    links: &'a [SlotLink],
    slots: &'a mut [S],
    /// Run position of the link the message arrived on.
    arrival: Option<usize>,
    /// The sends, enqueued in order once the handler returns.
    outbox: &'a mut Vec<Parcel<M>>,
}

impl<M, S> Ctx<'_, M, S> {
    /// The run position of neighbor `v`, or `None` if `v` is not a
    /// neighbor.
    pub fn position(&self, v: NodeId) -> Option<usize> {
        let slot = self.csr.slot_of(self.me, self.csr.index_of(v)?)?;
        Some(slot - self.first)
    }

    /// The neighbor at run position `k`.
    pub fn neighbor(&self, k: usize) -> NodeId {
        self.csr.node(self.csr.target(self.first + k))
    }

    /// The per-neighbor states, by run position (failed links included).
    pub fn slots_mut(&mut self) -> &mut [S] {
        self.slots
    }

    /// The run in position order: `Some(state)` for a live link, `None`
    /// for a failed one.
    pub fn run(&self) -> impl Iterator<Item = Option<&S>> + Clone {
        self.slots
            .iter()
            .zip(self.links)
            .map(|(s, link)| link.live.then_some(s))
    }

    /// The states of the live links, in run order.
    pub fn live_slots(&self) -> impl Iterator<Item = &S> + Clone {
        self.run().flatten()
    }

    /// The neighbor the message being handled arrived from — `None` in
    /// `on_start` and for a message injected from a node that is not a
    /// neighbor (such as a local delivery). Resolved on demand: a
    /// delivery pays for the id only when its handler asks.
    pub fn sender(&self) -> Option<NodeId> {
        self.arrival.map(|k| self.neighbor(k))
    }

    /// The state kept about the sender of the message being handled —
    /// `None` where [`Ctx::sender`] is.
    pub fn sender_slot_mut(&mut self) -> Option<&mut S> {
        self.arrival.map(|k| &mut self.slots[k])
    }

    /// Sends `msg` to the neighbor at run position `k`. A send over a
    /// failed link counts as sent and lost to the failure.
    pub fn send_at(&mut self, k: usize, msg: M) {
        assert!(k < self.slots.len(), "run position {k} out of range");
        self.outbox.push(Parcel {
            base: (self.first + k) as u32,
            mask: 1,
            msg,
        });
    }

    /// Sends `msg` to the neighbor `to`.
    ///
    /// # Panics
    ///
    /// Panics if `to` is not a neighbor.
    pub fn send(&mut self, to: NodeId, msg: M) {
        let Some(k) = self.position(to) else {
            panic!("{} tried to send to non-neighbor {to}", self.self_id);
        };
        self.send_at(k, msg);
    }

    /// Sends `msg` to every live neighbor: one send for each window of
    /// 32 run positions that holds a live link.
    pub fn broadcast(&mut self, msg: M)
    where
        M: Clone,
    {
        for (w, window) in self.links.chunks(32).enumerate() {
            let live = window.iter().enumerate();
            let mask = live.fold(0, |mask, (b, link)| mask | u32::from(link.live) << b);
            if mask != 0 {
                self.outbox.push(Parcel {
                    base: (self.first + 32 * w) as u32,
                    mask,
                    msg: msg.clone(),
                });
            }
        }
    }
}

/// The simulator's record of one half-edge slot: what a route probe
/// reads besides the protocol's state.
#[derive(Debug, Clone, Copy)]
struct SlotLink {
    /// Index into [`EventSim::configs`].
    config: u32,
    /// Whether the link is up.
    live: bool,
}

/// One send over up to 32 consecutive slots of its sender: bit `b` of
/// `mask` stands for the copy over slot `base + b`, to that slot's
/// target. In the outbox the bits are the copies to send; in the queue,
/// the copies still due, all at the entry's time. An entry whose mask a
/// link failure emptied is skipped.
#[derive(Debug)]
struct Parcel<M> {
    base: u32,
    mask: u32,
    msg: M,
}

/// The event queue: the sends in flight, in one FIFO per delivery time.
/// A time's entries are pushed in send order, so taking the earliest
/// time's FIFO front first yields events in `(deliver_at, send order)`.
/// The earliest FIFO is kept apart, so delivering from it needs no
/// lookup; the later ones sit in a map by time.
#[derive(Debug)]
struct EventQueue<M> {
    /// The earliest delivery time. Meaningless while `front` is empty.
    front_time: u64,
    /// The earliest time's FIFO; empty only when the whole queue is.
    front: VecDeque<Parcel<M>>,
    later: BTreeMap<u64, VecDeque<Parcel<M>>>,
}

impl<M> EventQueue<M> {
    fn push(&mut self, t: u64, parcel: Parcel<M>) {
        if !self.front.is_empty() && t != self.front_time {
            if t > self.front_time {
                self.later.entry(t).or_default().push_back(parcel);
                return;
            }
            // An earlier time takes the front; the old front joins the
            // later ones.
            let front = std::mem::take(&mut self.front);
            self.later.insert(self.front_time, front);
        }
        self.front_time = t;
        self.front.push_back(parcel);
    }

    /// The earliest entry and its delivery time.
    fn front_mut(&mut self) -> Option<(u64, &mut Parcel<M>)> {
        Some((self.front_time, self.front.front_mut()?))
    }

    fn clear(&mut self) {
        self.front.clear();
        self.later.clear();
    }

    fn pop(&mut self) -> Option<(u64, Parcel<M>)> {
        let parcel = self.front.pop_front()?;
        let t = self.front_time;
        if self.front.is_empty() {
            if let Some((next, fifo)) = self.later.pop_first() {
                (self.front_time, self.front) = (next, fifo);
            }
        }
        Some((t, parcel))
    }
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
    csr: Arc<CsrGraph>,
    /// Protocol state by dense node index.
    nodes: Vec<P::Node>,
    /// Protocol neighbor state by slot.
    slots: Vec<P::Slot>,
    /// Live bit and config index by slot.
    links: Vec<SlotLink>,
    /// FIFO clock by slot: the delivery time of the last message sent
    /// over the slot's directed link.
    clocks: Vec<u64>,
    /// The distinct link configs; entry 0 is the global one.
    configs: Vec<LinkConfig>,
    queue: EventQueue<P::Msg>,
    /// The copies in the queue that no link failure cancelled.
    in_flight: u64,
    /// The handlers' outbox, reused across dispatches.
    outbox: Vec<Parcel<P::Msg>>,
    rng: SmallRng,
    now: u64,
    /// The dense nodes touched since the last drain, each once, in the
    /// order they were first touched; see [`EventSim::touched`].
    touched: Vec<u32>,
    /// One bit per node: set while the node is in `touched`.
    touched_bits: Vec<u64>,
    /// How many times the touched log was drained.
    drains: u64,
    stats: SimStats,
}

impl<P: Protocol> EventSim<P> {
    /// Creates a simulator over `graph` with one protocol state per node,
    /// in dense-index (ascending id) order.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` does not hold exactly one state per node.
    pub fn new(
        protocol: P,
        graph: impl Into<Arc<CsrGraph>>,
        nodes: Vec<P::Node>,
        link_config: LinkConfig,
        seed: u64,
    ) -> Self {
        let csr = graph.into();
        assert_eq!(
            nodes.len(),
            csr.node_count(),
            "every node needs protocol state"
        );
        let half_edges = csr.half_edge_count();
        let n = csr.node_count();
        EventSim {
            protocol,
            slots: (0..half_edges).map(|_| P::Slot::default()).collect(),
            links: vec![
                SlotLink {
                    config: 0,
                    live: true,
                };
                half_edges
            ],
            clocks: vec![0; half_edges],
            csr,
            nodes,
            configs: vec![link_config],
            queue: EventQueue {
                front_time: 0,
                front: VecDeque::new(),
                later: BTreeMap::new(),
            },
            in_flight: 0,
            outbox: Vec::new(),
            rng: SmallRng::seed_from_u64(seed),
            now: 0,
            touched: Vec::with_capacity(n),
            touched_bits: vec![0; n.div_ceil(64)],
            drains: 0,
            stats: SimStats::default(),
        }
    }

    /// The dense nodes touched since the last [`EventSim::drain_touched`],
    /// each once, in the order they were first touched.
    ///
    /// A call touches every node whose reads it can change. A handler
    /// dispatch (start, delivery, [`EventSim::inject`]) touches its
    /// receiver, since that node's state and run of slots are all a
    /// handler writes. [`EventSim::fail_link`], [`EventSim::heal_link`]
    /// and [`EventSim::set_link_config`] touch both endpoints, whose runs
    /// hold the link's live bit and config. [`EventSim::advance_to`] moves
    /// only the clock and touches nothing. So anything computed from one
    /// node's state, slots, live bits and link configs stays valid until
    /// that node is touched, which is what a route cache keys on.
    pub fn touched(&self) -> &[u32] {
        &self.touched
    }

    /// Moves the touched nodes into `into`, replacing what it held, and
    /// starts an empty log. Returns the drain's number, counting from 1.
    pub fn drain_touched(&mut self, into: &mut Vec<u32>) -> u64 {
        for &i in &self.touched {
            self.touched_bits[i as usize / 64] &= !(1 << (i % 64));
        }
        into.clear();
        std::mem::swap(into, &mut self.touched);
        self.drains += 1;
        self.drains
    }

    /// How many times the touched log was drained.
    pub fn drains(&self) -> u64 {
        self.drains
    }

    fn touch(&mut self, i: usize) {
        let (word, bit) = (i / 64, 1 << (i % 64));
        if self.touched_bits[word] & bit == 0 {
            self.touched_bits[word] |= bit;
            self.touched.push(i as u32);
        }
    }

    /// Touches both endpoints of the link of slot `uv`: its owner, then
    /// its target.
    fn touch_link(&mut self, uv: usize) {
        self.touch(self.csr.target(self.csr.twin(uv)));
        self.touch(self.csr.target(uv));
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

    /// The communication graph.
    pub fn csr(&self) -> &CsrGraph {
        &self.csr
    }

    /// Dense index of `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is not a node.
    fn index(&self, u: NodeId) -> usize {
        self.csr
            .index_of(u)
            .unwrap_or_else(|| panic!("{u} is not a node"))
    }

    /// Immutable access to a node's protocol state.
    ///
    /// # Panics
    ///
    /// Panics if `u` is not a node.
    pub fn node(&self, u: NodeId) -> &P::Node {
        &self.nodes[self.index(u)]
    }

    /// The protocol state of the node at dense index `i`.
    pub fn node_at(&self, i: usize) -> &P::Node {
        &self.nodes[i]
    }

    /// Iterates over all `(id, state)` pairs in ascending id order.
    pub fn nodes(&self) -> impl Iterator<Item = (NodeId, &P::Node)> {
        self.csr.nodes().zip(&self.nodes)
    }

    /// The protocol's neighbor state at a slot.
    pub fn slot(&self, slot: usize) -> &P::Slot {
        &self.slots[slot]
    }

    /// Whether the link of a slot is up.
    pub fn is_live(&self, slot: usize) -> bool {
        self.links[slot].live
    }

    /// The configuration of the link of a slot.
    pub fn link_config_at(&self, slot: usize) -> LinkConfig {
        self.configs[self.links[slot].config as usize]
    }

    /// All neighbors of `u`, failed links included, ascending.
    pub fn neighbors(&self, u: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        let csr = &*self.csr;
        csr.neighbor_indices(self.index(u))
            .iter()
            .map(move |&j| csr.node(j as usize))
    }

    /// Every link once as `(u, v, live)` with `u < v`, in lexicographic
    /// order.
    pub fn links(&self) -> impl Iterator<Item = (NodeId, NodeId, bool)> + '_ {
        let csr = &*self.csr;
        (0..csr.node_count()).flat_map(move |i| {
            csr.slots(i)
                .filter(move |&s| csr.target(s) > i)
                .map(move |s| (csr.node(i), csr.node(csr.target(s)), self.links[s].live))
        })
    }

    /// The two slots `(u, v)` and `(v, u)` of the link `{u, v}`, if it
    /// is one.
    fn find_link(&self, u: NodeId, v: NodeId) -> Option<(usize, usize)> {
        let uv = self
            .csr
            .slot_of(self.csr.index_of(u)?, self.csr.index_of(v)?)?;
        Some((uv, self.csr.twin(uv)))
    }

    /// [`Self::find_link`] for an operation that needs the link.
    ///
    /// # Panics
    ///
    /// Panics if `{u, v}` is not an edge of the graph.
    fn link(&self, u: NodeId, v: NodeId) -> (usize, usize) {
        self.find_link(u, v)
            .unwrap_or_else(|| panic!("no link {u}–{v}"))
    }

    /// Overrides the timing/loss configuration of the single link
    /// `{u, v}` (both directions). Takes effect for messages enqueued
    /// after the call; messages already in flight keep their schedule.
    ///
    /// # Panics
    ///
    /// Panics if `{u, v}` is not an edge of the graph.
    pub fn set_link_config(&mut self, u: NodeId, v: NodeId, config: LinkConfig) {
        let (uv, vu) = self.link(u, v);
        let index = match self.configs.iter().position(|c| *c == config) {
            Some(i) => i,
            None => {
                self.configs.push(config);
                self.configs.len() - 1
            }
        };
        let index = u32::try_from(index).expect("fewer than 2^32 distinct link configs");
        self.links[uv].config = index;
        self.links[vu].config = index;
        self.touch_link(uv);
    }

    /// The effective configuration of the link `{u, v}`: the per-link
    /// override when one was set, the global config otherwise.
    pub fn link_config(&self, u: NodeId, v: NodeId) -> LinkConfig {
        self.find_link(u, v)
            .map_or(self.configs[0], |(uv, _)| self.link_config_at(uv))
    }

    /// Fails the link `{u, v}`: future sends are impossible and in-flight
    /// messages on the link are discarded.
    ///
    /// # Panics
    ///
    /// Panics if `{u, v}` is not an edge of the graph.
    pub fn fail_link(&mut self, u: NodeId, v: NodeId) {
        let (uv, vu) = self.link(u, v);
        self.links[uv].live = false;
        self.links[vu].live = false;
        self.touch_link(uv);
        // A message in flight over a directed link is due no earlier than
        // now and no later than the link's FIFO clock, so a link whose two
        // clocks are behind now carries none and the queue needs no scan.
        if self.clocks[uv] < self.now && self.clocks[vu] < self.now {
            return;
        }
        let queue = &mut self.queue;
        for parcel in queue
            .front
            .iter_mut()
            .chain(queue.later.values_mut().flatten())
        {
            let bit = |slot: usize| {
                let b = slot.wrapping_sub(parcel.base as usize);
                if b < 32 {
                    1 << b
                } else {
                    0
                }
            };
            let cancelled = parcel.mask & (bit(uv) | bit(vu));
            parcel.mask &= !cancelled;
            let lost = u64::from(cancelled.count_ones());
            self.in_flight -= lost;
            self.stats.lost_to_failure += lost;
        }
    }

    /// Restores a previously failed link (a no-op for a pair that is not
    /// an edge).
    pub fn heal_link(&mut self, u: NodeId, v: NodeId) {
        if let Some((uv, vu)) = self.find_link(u, v) {
            self.links[uv].live = true;
            self.links[vu].live = true;
            self.touch_link(uv);
        }
    }

    /// Runs every node's `on_start` hook (call once, before stepping).
    pub fn start(&mut self) {
        for i in 0..self.nodes.len() {
            self.dispatch(i, None);
        }
    }

    /// Delivers the next event, if any: the lowest copy still due of the
    /// earliest entry. Returns `false` when the network is quiescent (no
    /// messages in flight).
    pub fn step(&mut self) -> bool {
        while let Some((t, parcel)) = self.queue.front_mut() {
            if parcel.mask == 0 {
                // A link failure cancelled every copy left.
                self.queue.pop();
                continue;
            }
            let slot = parcel.base as usize + parcel.mask.trailing_zeros() as usize;
            parcel.mask &= parcel.mask - 1;
            let msg = if parcel.mask != 0 {
                parcel.msg.clone()
            } else {
                self.queue.pop().expect("the entry just read").1.msg
            };
            let (to, arrival) = (self.csr.target(slot), self.csr.twin(slot));
            self.in_flight -= 1;
            if self.in_flight == 0 {
                // The last live copy is out, so everything left was
                // cancelled: a link failure's scan walks only what is
                // sent from here on.
                self.queue.clear();
            }
            self.now = t;
            self.stats.delivered += 1;
            self.stats.last_event_time = t;
            let k = arrival - self.csr.slots(to).start;
            self.dispatch(to, Some((Some(k), msg)));
            return true;
        }
        false
    }

    /// Runs until quiescence or until `max_events` deliveries.
    ///
    /// Returns `true` if the network went quiescent within the budget.
    /// Quiescence means no *live* message remains in flight — messages
    /// cancelled by a link failure do not count.
    pub fn run_to_quiescence(&mut self, max_events: u64) -> bool {
        for _ in 0..max_events {
            if !self.step() {
                return true;
            }
        }
        self.in_flight == 0
    }

    /// Virtual time of the next live event, dropping any cancelled
    /// entries met on the way — a cancelled head must never satisfy a
    /// deadline check on behalf of a live event scheduled later.
    fn next_live_event_time(&mut self) -> Option<u64> {
        while let Some((t, parcel)) = self.queue.front_mut() {
            if parcel.mask != 0 {
                return Some(t);
            }
            self.queue.pop();
        }
        None
    }

    /// Runs until the next live event would land after `deadline` (or
    /// nothing is in flight), delivering at most `max_events` events.
    /// Returns `(delivered, capped)`: `capped` is `true` when the budget
    /// ran out with live events still due at or before `deadline`.
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
    /// `from` over their link, so [`Ctx::sender`] reads `from`; when the
    /// two are not neighbors (`from == to` models local delivery) it
    /// reads `None`.
    ///
    /// # Panics
    ///
    /// Panics if `to` is not a node.
    pub fn inject(&mut self, from: NodeId, to: NodeId, msg: P::Msg) {
        let i = self.index(to);
        let arrival = self
            .csr
            .index_of(from)
            .and_then(|j| self.csr.slot_of(i, j))
            .map(|slot| slot - self.csr.slots(i).start);
        self.dispatch(i, Some((arrival, msg)));
    }

    /// Runs `i`'s handler: `on_start`, or `on_message` for an incoming
    /// `(arrival run position, message)`.
    fn dispatch(&mut self, i: usize, incoming: Option<(Option<usize>, P::Msg)>) {
        self.touch(i);
        let run = self.csr.slots(i);
        let mut outbox = std::mem::take(&mut self.outbox);
        let (arrival, msg) = match incoming {
            Some((arrival, msg)) => (arrival, Some(msg)),
            None => (None, None),
        };
        let mut ctx = Ctx {
            self_id: self.csr.node(i),
            now: self.now,
            csr: &self.csr,
            me: i,
            first: run.start,
            links: &self.links[run.clone()],
            slots: &mut self.slots[run],
            arrival,
            outbox: &mut outbox,
        };
        let node = &mut self.nodes[i];
        match msg {
            None => self.protocol.on_start(&mut ctx, node),
            Some(msg) => self.protocol.on_message(&mut ctx, node, msg),
        }
        for send in outbox.drain(..) {
            self.enqueue(send);
        }
        self.outbox = outbox;
    }

    /// Hands one send to the network, copy by copy in run order: each
    /// copy counts as sent, is lost over a failed link or dropped by its
    /// link's loss draw, and is otherwise due after its delay and jitter
    /// draw, never before the last copy over its link. A copy due when
    /// the live copy before it is joins that copy's entry; any other
    /// starts a new one. Entries are pushed in copy order, so the queue
    /// yields exactly what one entry per copy would.
    fn enqueue(&mut self, send: Parcel<P::Msg>) {
        let Parcel {
            base,
            mut mask,
            msg,
        } = send;
        // The entry being built: its delivery time and copies.
        let mut built: Option<(u64, u32)> = None;
        while mask != 0 {
            let b = mask.trailing_zeros();
            mask &= mask - 1;
            let slot = base as usize + b as usize;
            self.stats.sent += 1;
            let link = self.links[slot];
            if !link.live {
                self.stats.lost_to_failure += 1;
                continue;
            }
            let config = self.configs[link.config as usize];
            if config.loss > 0.0 && self.rng.gen_bool(config.loss) {
                self.stats.dropped += 1;
                continue;
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
            let deliver_at = earliest.max(self.clocks[slot]);
            self.clocks[slot] = deliver_at;
            self.in_flight += 1;
            match &mut built {
                Some((t, copies)) if *t == deliver_at => *copies |= 1 << b,
                _ => {
                    if let Some((t, copies)) = built.replace((deliver_at, 1 << b)) {
                        let msg = msg.clone();
                        self.queue.push(
                            t,
                            Parcel {
                                base,
                                mask: copies,
                                msg,
                            },
                        );
                    }
                }
            }
        }
        if let Some((t, copies)) = built {
            self.queue.push(
                t,
                Parcel {
                    base,
                    mask: copies,
                    msg,
                },
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lr_graph::Orientation;

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
        type Slot = ();

        fn on_start(&mut self, ctx: &mut Ctx<'_, (), ()>, node: &mut FloodNode) {
            if ctx.self_id == self.origin {
                node.relayed = true;
                ctx.broadcast(());
            }
        }

        fn on_message(&mut self, ctx: &mut Ctx<'_, (), ()>, node: &mut FloodNode, _msg: ()) {
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

    fn path_graph(len: u32) -> CsrGraph {
        let edges: Vec<(u32, u32)> = (0..len - 1).map(|i| (i, i + 1)).collect();
        Orientation::from_edges(&edges)
            .unwrap()
            .csr()
            .as_ref()
            .clone()
    }

    fn flood_sim(len: u32, cfg: LinkConfig, seed: u64) -> EventSim<Flood> {
        let nodes = (0..len).map(|_| FloodNode::default()).collect();
        EventSim::new(Flood { origin: n(0) }, path_graph(len), nodes, cfg, seed)
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

    fn drain(sim: &mut EventSim<Flood>) -> Vec<u32> {
        let mut nodes = Vec::new();
        sim.drain_touched(&mut nodes);
        nodes
    }

    #[test]
    fn each_mutation_touches_exactly_its_nodes_and_advance_to_none() {
        let mut sim = flood_sim(4, LinkConfig::default(), 0);
        assert!(sim.touched().is_empty());
        sim.start();
        assert_eq!(drain(&mut sim), [0, 1, 2, 3], "start dispatches every node");
        assert_eq!(sim.drains(), 1);
        assert!(sim.touched().is_empty(), "a drain empties the log");
        assert!(sim.step());
        assert_eq!(drain(&mut sim), [1], "a delivery touches its receiver");
        sim.inject(n(3), n(3), ());
        sim.inject(n(2), n(3), ());
        assert_eq!(drain(&mut sim), [3], "inject touches its receiver, once");
        sim.fail_link(n(2), n(1));
        assert_eq!(drain(&mut sim), [2, 1], "fail_link touches both ends");
        sim.heal_link(n(1), n(2));
        assert_eq!(drain(&mut sim), [1, 2], "heal_link touches both ends");
        sim.heal_link(n(0), n(2));
        assert_eq!(drain(&mut sim), [0u32; 0], "a pair that is no link");
        let slow = LinkConfig {
            delay: 5,
            ..LinkConfig::default()
        };
        sim.set_link_config(n(2), n(3), slow);
        assert_eq!(drain(&mut sim), [2, 3], "set_link_config touches both ends");
        assert_eq!(sim.drains(), 7);

        // Only the clock moves: drain first so nothing bounds the advance.
        assert!(sim.run_to_quiescence(1_000));
        drain(&mut sim);
        let t = sim.now() + 100;
        sim.advance_to(t);
        assert_eq!(sim.now(), t);
        assert!(sim.touched().is_empty(), "advance_to touches nothing");
    }

    #[test]
    fn failing_an_idle_link_changes_no_stats_and_a_busy_one_counts_its_loss() {
        let mut sim = flood_sim(4, LinkConfig::default(), 0);
        sim.start();
        assert!(sim.run_to_quiescence(1_000));
        let stats = sim.stats();
        sim.fail_link(n(1), n(2));
        assert_eq!(sim.stats(), stats, "nothing was in flight");

        // Node 0's token to node 1 is due at t = 1, and the clock stands
        // at t = 1 with the token still in flight. Named either way round,
        // the link carries it.
        for (u, v) in [(0, 1), (1, 0)] {
            let mut sim = flood_sim(2, LinkConfig::default(), 0);
            sim.start();
            sim.advance_to(1);
            assert_eq!(sim.now(), 1);
            sim.fail_link(n(u), n(v));
            assert_eq!(sim.stats().lost_to_failure, 1, "the token due now is lost");
            assert!(sim.run_to_quiescence(100));
            assert_eq!(sim.node(n(1)).received, 0);
        }
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
            type Slot = ();
            fn on_start(&mut self, ctx: &mut Ctx<'_, u32, ()>, _n: &mut SeqNode) {
                if ctx.self_id == NodeId::new(0) {
                    for i in 0..10 {
                        ctx.send(NodeId::new(1), i);
                    }
                }
            }
            fn on_message(&mut self, _ctx: &mut Ctx<'_, u32, ()>, node: &mut SeqNode, msg: u32) {
                assert_eq!(msg, node.next_expected, "FIFO violated");
                node.next_expected += 1;
            }
        }
        let nodes = vec![SeqNode::default(), SeqNode::default()];
        let mut sim = EventSim::new(
            Seq,
            path_graph(2),
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
        // (due t ≈ 101), which stays in the queue, cancelled.
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
        assert_eq!(
            sim.run_until_capped(1, u64::MAX),
            (1, false),
            "node 1 hears the token"
        );
        sim.fail_link(n(0), n(1));
        // The cancelled echo (t = 101) must not make a run to t = 50
        // deliver the live t = 100 relay beyond its deadline…
        assert_eq!(
            sim.run_until_capped(50, u64::MAX),
            (0, false),
            "nothing live is due by t = 50"
        );
        assert!(sim.now() <= 50, "clock must not overshoot the deadline");
        // …and once the relay is delivered and everything live drains,
        // leftover cancelled messages must not mask quiescence.
        assert!(sim.run_to_quiescence(100));
        assert!(
            sim.run_to_quiescence(0),
            "cancelled messages are not in-flight work"
        );
        assert_eq!(sim.node(n(2)).received, 1);
    }

    /// A shared log of deliveries as `(time, from, to, number)`.
    type DeliveryLog = std::rc::Rc<std::cell::RefCell<Vec<(u64, u32, u32, u32)>>>;

    /// Burst: at start every node sends `0..4` to each neighbor, one
    /// broadcast per number; a receiver logs each delivery and sends
    /// nothing.
    struct Burst {
        log: DeliveryLog,
    }

    impl Protocol for Burst {
        type Msg = u32;
        type Node = ();
        type Slot = ();

        fn on_start(&mut self, ctx: &mut Ctx<'_, u32, ()>, _node: &mut ()) {
            for i in 0..4 {
                ctx.broadcast(i);
            }
        }

        fn on_message(&mut self, ctx: &mut Ctx<'_, u32, ()>, _node: &mut (), i: u32) {
            let from = ctx
                .sender()
                .expect("every burst message arrives over a link");
            let entry = (ctx.now, from.raw(), ctx.self_id.raw(), i);
            self.log.borrow_mut().push(entry);
        }
    }

    #[test]
    fn a_failure_cancels_messages_in_every_fifo_and_the_last_live_one_resets_the_queue() {
        // Path 0 — 1 — 2: the jittered {0, 1} link carries four messages
        // each way, due at t = 1..=5; the {1, 2} link four each way, all
        // due at t = 3.
        let log = DeliveryLog::default();
        let slow = LinkConfig {
            delay: 3,
            ..LinkConfig::default()
        };
        let burst = Burst { log: log.clone() };
        let mut sim = EventSim::new(burst, path_graph(3), vec![(); 3], slow, 12);
        let jittered = LinkConfig {
            delay: 1,
            jitter: 4,
            loss: 0.0,
        };
        sim.set_link_config(n(0), n(1), jittered);
        sim.start();
        assert!(!sim.run_to_quiescence(0), "16 messages in flight");
        assert_eq!(sim.run_until_capped(2, u64::MAX), (3, false));
        // The {0, 1} messages still in flight: 1 → 0 numbers 1 and 2, due
        // at t = 3 in the front FIFO among the {1, 2} ones, and 0 → 1
        // numbers 2 and 3 and 1 → 0 number 3 in the t = 5 FIFO.
        sim.fail_link(n(1), n(0));
        let stats = sim.stats();
        assert_eq!(
            (stats.sent, stats.delivered, stats.lost_to_failure),
            (16, 3, 5)
        );
        assert!(!sim.run_to_quiescence(0), "the {{1, 2}} messages are live");
        for _ in 0..8 {
            assert!(sim.step());
        }
        assert_eq!(sim.in_flight, 0);
        assert!(
            sim.queue.front.is_empty() && sim.queue.later.is_empty(),
            "the last live message out empties the queue, cancelled ones and all"
        );
        assert!(sim.run_to_quiescence(0));
        assert_eq!(sim.stats().delivered, 11);
        assert_eq!(
            sim.stats().lost_to_failure,
            5,
            "no cancelled message arrives"
        );
        assert_eq!(
            *log.borrow(),
            [
                (2, 0, 1, 0),
                (2, 0, 1, 1),
                (2, 1, 0, 0),
                (3, 1, 2, 0),
                (3, 1, 2, 1),
                (3, 1, 2, 2),
                (3, 1, 2, 3),
                (3, 2, 1, 0),
                (3, 2, 1, 1),
                (3, 2, 1, 2),
                (3, 2, 1, 3),
            ]
        );
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
    fn run_until_respects_deadline() {
        let mut sim = flood_sim(6, LinkConfig::default(), 0);
        sim.start();
        sim.run_until_capped(2, u64::MAX);
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
            type Slot = ();
            fn on_start(&mut self, ctx: &mut Ctx<'_, (), ()>, _n: &mut ()) {
                if ctx.self_id == NodeId::new(0) {
                    ctx.send(NodeId::new(2), ()); // 0–2 is not an edge
                }
            }
            fn on_message(&mut self, _c: &mut Ctx<'_, (), ()>, _n: &mut (), _m: ()) {}
        }
        let mut sim = EventSim::new(Bad, path_graph(3), vec![(); 3], LinkConfig::default(), 0);
        sim.start();
    }

    /// Gossip: every node relays the first two messages it receives to
    /// all live neighbors, and logs each delivery as `(time, from, to)`.
    struct Gossip {
        log: std::rc::Rc<std::cell::RefCell<Vec<(u64, u32, u32)>>>,
    }

    impl Protocol for Gossip {
        type Msg = ();
        type Node = u32;
        type Slot = ();

        fn on_start(&mut self, ctx: &mut Ctx<'_, (), ()>, _node: &mut u32) {
            if ctx.self_id == n(0) {
                ctx.broadcast(());
            }
        }

        fn on_message(&mut self, ctx: &mut Ctx<'_, (), ()>, node: &mut u32, _msg: ()) {
            let from = ctx.sender().expect("every gossip arrives over a link");
            self.log
                .borrow_mut()
                .push((ctx.now, from.raw(), ctx.self_id.raw()));
            *node += 1;
            if *node <= 2 {
                ctx.broadcast(());
            }
        }
    }

    /// FNV-1a over the delivered `(time, from, to)` sequence.
    fn schedule_digest(log: &[(u64, u32, u32)]) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &(t, from, to) in log {
            for b in t
                .to_le_bytes()
                .into_iter()
                .chain(from.to_le_bytes())
                .chain(to.to_le_bytes())
            {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        }
        h
    }

    /// Pins the exact schedule of a seeded run that exercises every
    /// per-slot mechanism: jitter and loss draws, a per-link override,
    /// the FIFO clocks, and a link that fails with a message in flight
    /// and heals later. The values were recorded on the map-backed
    /// simulator this one replaced; a slab or clock bug that reorders
    /// deliveries the same way on every run changes the digest.
    #[test]
    fn seeded_schedule_is_pinned() {
        // A 3 × 3 grid plus one diagonal.
        let g = Orientation::from_edges(&[
            (0, 1),
            (1, 2),
            (3, 4),
            (4, 5),
            (6, 7),
            (7, 8),
            (0, 3),
            (3, 6),
            (1, 4),
            (4, 7),
            (2, 5),
            (5, 8),
            (0, 4),
        ])
        .unwrap();
        let log = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let mut sim = EventSim::new(
            Gossip { log: log.clone() },
            g.csr().as_ref().clone(),
            vec![0u32; 9],
            LinkConfig {
                delay: 2,
                jitter: 3,
                loss: 0.1,
            },
            17,
        );
        sim.set_link_config(
            n(4),
            n(5),
            LinkConfig {
                delay: 5,
                jitter: 0,
                loss: 0.0,
            },
        );
        sim.start();
        sim.run_until_capped(4, u64::MAX);
        sim.fail_link(n(1), n(4));
        sim.run_until_capped(9, u64::MAX);
        sim.heal_link(n(1), n(4));
        sim.inject(n(1), n(4), ());
        assert!(sim.run_to_quiescence(100_000));
        assert_eq!(
            sim.stats(),
            SimStats {
                sent: 52,
                delivered: 46,
                dropped: 5,
                lost_to_failure: 1,
                last_event_time: 19,
            }
        );
        let log = log.borrow();
        assert_eq!(log.len(), 47, "46 deliveries and the injection");
        assert_eq!(schedule_digest(&log), 0x8ec7_e6bb_b836_7e15);
    }

    type SenderLog = std::rc::Rc<std::cell::RefCell<Vec<(u32, Option<u32>)>>>;

    /// Logs every handled message as `(receiver, sender)`, the sender as
    /// [`Ctx::sender`] resolves it.
    struct Senders {
        log: SenderLog,
    }

    impl Protocol for Senders {
        type Msg = ();
        type Node = ();
        type Slot = ();

        fn on_start(&mut self, ctx: &mut Ctx<'_, (), ()>, _node: &mut ()) {
            assert_eq!(ctx.sender(), None, "a start has no sender");
            if ctx.self_id == n(2) {
                ctx.send(n(1), ());
            }
        }

        fn on_message(&mut self, ctx: &mut Ctx<'_, (), ()>, _node: &mut (), _msg: ()) {
            let entry = (ctx.self_id.raw(), ctx.sender().map(NodeId::raw));
            self.log.borrow_mut().push(entry);
        }
    }

    #[test]
    fn the_sender_is_the_arrival_links_neighbor_and_none_otherwise() {
        let senders = Senders {
            log: Default::default(),
        };
        let log = senders.log.clone();
        let mut sim = EventSim::new(
            senders,
            path_graph(3),
            vec![(); 3],
            LinkConfig::default(),
            0,
        );
        sim.start();
        assert!(sim.run_to_quiescence(10));
        sim.inject(n(0), n(1), ()); // as if sent over the link 0 — 1
        sim.inject(n(1), n(1), ()); // a local delivery
        sim.inject(n(0), n(2), ()); // 0 — 2 is no link
        assert_eq!(
            *log.borrow(),
            [(1, Some(2)), (1, Some(0)), (1, None), (2, None)]
        );
    }

    /// Mixer: a node answers the sender of its first delivery with a
    /// unicast and broadcasts on its first two, so broadcasts and
    /// unicasts share the FIFOs; at start node 0 broadcasts and every
    /// fifth other node sends node 0 a unicast. Logs each delivery as
    /// `(time, from, to)`.
    struct Mixer {
        log: std::rc::Rc<std::cell::RefCell<Vec<(u64, u32, u32)>>>,
    }

    impl Protocol for Mixer {
        type Msg = ();
        type Node = u32;
        type Slot = ();

        fn on_start(&mut self, ctx: &mut Ctx<'_, (), ()>, _node: &mut u32) {
            match ctx.self_id.raw() {
                0 => ctx.broadcast(()),
                id if id % 5 == 0 => ctx.send(n(0), ()),
                _ => {}
            }
        }

        fn on_message(&mut self, ctx: &mut Ctx<'_, (), ()>, node: &mut u32, _msg: ()) {
            let from = ctx
                .sender()
                .expect("every mixer message arrives over a link");
            self.log
                .borrow_mut()
                .push((ctx.now, from.raw(), ctx.self_id.raw()));
            *node += 1;
            if *node == 1 {
                ctx.send(from, ());
            }
            if *node <= 2 {
                ctx.broadcast(());
            }
        }
    }

    /// Pins the schedule of a run on delay-only links, where a send over
    /// several links shares queue entries: a star whose centre's 40
    /// links span two 32-slot windows, a path among eight leaves, a
    /// slower link in each window that splits it, and a link that
    /// fails and heals while a partly delivered broadcast sits at the
    /// front of the queue, so its remaining copy over that link stays
    /// lost. The values were recorded on the simulator that queued one
    /// entry per copy.
    #[test]
    fn delay_only_schedule_is_pinned() {
        let edges: Vec<(u32, u32)> = (1..=40)
            .map(|leaf| (0, leaf))
            .chain((1..8).map(|i| (i, i + 1)))
            .collect();
        let g = Orientation::from_edges(&edges).unwrap();
        let log = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let calm = LinkConfig {
            delay: 2,
            ..LinkConfig::default()
        };
        let mut sim = EventSim::new(
            Mixer { log: log.clone() },
            g.csr().as_ref().clone(),
            vec![0u32; 41],
            calm,
            5,
        );
        let slow = LinkConfig {
            delay: 5,
            ..LinkConfig::default()
        };
        sim.set_link_config(n(0), n(7), slow);
        sim.set_link_config(n(0), n(35), slow);
        sim.start();
        // Node 0's copies to leaves 1, 2 and 3 are out; those to 4, 5 and
        // 6 are due now, at t = 2.
        assert_eq!(sim.run_until_capped(2, 3), (3, true));
        sim.fail_link(n(0), n(5));
        sim.heal_link(n(5), n(0));
        assert!(sim.run_to_quiescence(100_000));
        assert_eq!(
            sim.stats(),
            SimStats {
                sent: 277,
                delivered: 275,
                dropped: 0,
                lost_to_failure: 2,
                last_event_time: 12,
            }
        );
        let log = log.borrow();
        assert!(
            !log.contains(&(2, 0, 5)),
            "the copy cancelled at the front stays lost after the heal"
        );
        assert_eq!(log.len(), 275);
        assert_eq!(schedule_digest(&log), 0x26f2_1b16_5d45_f96c);
    }

    #[test]
    fn a_broadcast_over_calm_links_is_one_queue_entry() {
        use crate::reversal::{initial_nodes, DistributedPr};
        let inst = lr_graph::stream::grid_away(10, 10);
        let nodes = initial_nodes(&inst).collect();
        let mut sim = EventSim::new(
            DistributedPr,
            inst.csr().clone(),
            nodes,
            LinkConfig::default(),
            0,
        );
        sim.start();
        let queue = &sim.queue;
        let entries = || queue.front.iter().chain(queue.later.values().flatten());
        assert_eq!(entries().count(), 100, "one entry per node");
        let copies: u32 = entries().map(|p| p.mask.count_ones()).sum();
        assert_eq!(
            (copies, sim.in_flight),
            (360, 360),
            "one copy per half-edge"
        );
    }

    #[test]
    fn a_parcel_of_routing_messages_stays_40_bytes() {
        assert_eq!(std::mem::size_of::<Parcel<crate::routing::RouteMsg>>(), 40);
    }
}
