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
//! * messages in flight sit in a `Vec` slab tagged with their sequence
//!   number. The event queue keeps one FIFO of queue entries per
//!   delivery time, so events come out in `(deliver_at, seq)` order, and
//!   a message cancelled by a link failure leaves only a stale queue
//!   entry behind.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
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

    /// Called when a message from `from` arrives at `node`.
    fn on_message(
        &mut self,
        ctx: &mut Ctx<'_, Self::Msg, Self::Slot>,
        node: &mut Self::Node,
        from: NodeId,
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
    /// `(slot, message)` pairs, enqueued in order once the handler
    /// returns.
    outbox: &'a mut Vec<(usize, M)>,
}

impl<M, S> Ctx<'_, M, S> {
    /// The run position of neighbor `v`, or `None` if `v` is not a
    /// neighbor.
    pub fn position(&self, v: NodeId) -> Option<usize> {
        let slot = self.csr.slot_of(self.me, self.csr.index_of(v)?)?;
        Some(slot - self.first)
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

    /// The state kept about the sender of the message being handled —
    /// `None` in `on_start` and for a message injected from a node that
    /// is not a neighbor (such as a local delivery).
    pub fn sender_slot_mut(&mut self) -> Option<&mut S> {
        self.arrival.map(|k| &mut self.slots[k])
    }

    /// Sends `msg` to the neighbor at run position `k`. A send over a
    /// failed link counts as sent and lost to the failure.
    pub fn send_at(&mut self, k: usize, msg: M) {
        assert!(k < self.slots.len(), "run position {k} out of range");
        self.outbox.push((self.first + k, msg));
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

    /// Sends `msg` to every live neighbor.
    pub fn broadcast(&mut self, msg: M)
    where
        M: Clone,
    {
        for (k, link) in self.links.iter().enumerate() {
            if link.live {
                self.outbox.push((self.first + k, msg.clone()));
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

/// One slab entry: a message in flight, or a free entry (`msg` is
/// `None`). `seq` tells a live queue entry from a stale one whose
/// message was cancelled and whose entry may since have been reused.
#[derive(Debug)]
struct Parcel<M> {
    seq: u64,
    /// Dense index of the receiving node.
    to: u32,
    /// The receiver's slot of the link, `(to, from)`.
    arrival: u32,
    msg: Option<M>,
}

/// The event queue: queue entries `(seq, slab entry)` in one FIFO per
/// delivery time. A time's entries are pushed in `seq` order, so taking
/// the earliest time's FIFO front first yields events in
/// `(deliver_at, seq)` order. The earliest FIFO is kept apart, so
/// delivering from it needs no lookup; the later ones sit in a map, with
/// a min-heap of their times.
#[derive(Debug, Default)]
struct EventQueue {
    /// The earliest delivery time. Meaningless while `front` is empty.
    front_time: u64,
    /// The earliest time's FIFO; empty only when the whole queue is.
    front: VecDeque<(u64, u32)>,
    later: HashMap<u64, VecDeque<(u64, u32)>>,
    later_times: BinaryHeap<Reverse<u64>>,
}

impl EventQueue {
    fn push(&mut self, t: u64, seq: u64, entry: u32) {
        if !self.front.is_empty() && t != self.front_time {
            if t > self.front_time {
                let times = &mut self.later_times;
                let fifo = self.later.entry(t).or_insert_with(|| {
                    times.push(Reverse(t));
                    VecDeque::new()
                });
                fifo.push_back((seq, entry));
                return;
            }
            // An earlier time takes the front; the old front joins the
            // later ones.
            let front = std::mem::take(&mut self.front);
            self.later.insert(self.front_time, front);
            self.later_times.push(Reverse(self.front_time));
        }
        self.front_time = t;
        self.front.push_back((seq, entry));
    }

    /// The earliest entry as `(deliver_at, seq, slab entry)`.
    fn peek(&self) -> Option<(u64, u64, u32)> {
        let &(seq, entry) = self.front.front()?;
        Some((self.front_time, seq, entry))
    }

    fn pop(&mut self) -> Option<(u64, u64, u32)> {
        let (seq, entry) = self.front.pop_front()?;
        let t = self.front_time;
        if self.front.is_empty() {
            if let Some(Reverse(next)) = self.later_times.pop() {
                self.front = self.later.remove(&next).expect("a listed time has a FIFO");
                self.front_time = next;
            }
        }
        Some((t, seq, entry))
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
    queue: EventQueue,
    slab: Vec<Parcel<P::Msg>>,
    /// Free slab entries; the others hold the messages in flight.
    free: Vec<u32>,
    /// The handlers' outbox, reused across dispatches.
    outbox: Vec<(usize, P::Msg)>,
    rng: SmallRng,
    now: u64,
    seq: u64,
    /// Bumped by every call that can change what a reader outside the
    /// handlers sees; see [`EventSim::epoch`].
    epoch: u64,
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
            queue: EventQueue::default(),
            slab: Vec::new(),
            free: Vec::new(),
            outbox: Vec::new(),
            rng: SmallRng::seed_from_u64(seed),
            now: 0,
            seq: 0,
            epoch: 0,
            stats: SimStats::default(),
        }
    }

    /// The mutation epoch: a counter bumped by every call that can change
    /// a node's state, a slot's state, a link's live bit or its config —
    /// each handler dispatch (start, delivery, [`EventSim::inject`]),
    /// [`EventSim::fail_link`], [`EventSim::heal_link`] and
    /// [`EventSim::set_link_config`]. [`EventSim::advance_to`] moves only
    /// the clock and leaves it alone. Anything computed from those reads
    /// therefore stays valid while the epoch is unchanged, which is what
    /// a route cache keys on. It wraps only after 2^64 mutations.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    fn bump_epoch(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
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
        self.bump_epoch();
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
        self.bump_epoch();
        let (uv, vu) = (uv as u32, vu as u32);
        for (i, parcel) in self.slab.iter_mut().enumerate() {
            if parcel.msg.is_some() && (parcel.arrival == uv || parcel.arrival == vu) {
                parcel.msg = None;
                self.free.push(i as u32);
                self.stats.lost_to_failure += 1;
            }
        }
    }

    /// Restores a previously failed link (a no-op for a pair that is not
    /// an edge).
    pub fn heal_link(&mut self, u: NodeId, v: NodeId) {
        if let Some((uv, vu)) = self.find_link(u, v) {
            self.links[uv].live = true;
            self.links[vu].live = true;
            self.bump_epoch();
        }
    }

    /// Runs every node's `on_start` hook (call once, before stepping).
    pub fn start(&mut self) {
        for i in 0..self.nodes.len() {
            self.dispatch(i, None);
        }
    }

    /// Whether the queue entry `(seq, entry)` still carries its message.
    fn is_pending(&self, seq: u64, entry: u32) -> bool {
        let parcel = &self.slab[entry as usize];
        parcel.seq == seq && parcel.msg.is_some()
    }

    /// Delivers the next event, if any. Returns `false` when the network
    /// is quiescent (no messages in flight).
    pub fn step(&mut self) -> bool {
        while let Some((t, seq, entry)) = self.queue.pop() {
            // The message may have been discarded by a link failure;
            // skip stale queue entries.
            if !self.is_pending(seq, entry) {
                continue;
            }
            let parcel = &mut self.slab[entry as usize];
            let msg = parcel.msg.take().expect("pending entry holds a message");
            let (to, arrival) = (parcel.to as usize, parcel.arrival as usize);
            self.free.push(entry);
            self.now = t;
            self.stats.delivered += 1;
            self.stats.last_event_time = t;
            let from = self.csr.node(self.csr.target(arrival));
            let k = arrival - self.csr.slots(to).start;
            self.dispatch(to, Some((from, Some(k), msg)));
            return true;
        }
        false
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
        self.free.len() == self.slab.len()
    }

    /// Virtual time of the next live event, dropping any stale queue
    /// entries (messages cancelled by a link failure) encountered on
    /// the way — a stale head must never satisfy a deadline check on
    /// behalf of a live event scheduled later.
    fn next_live_event_time(&mut self) -> Option<u64> {
        while let Some((t, seq, entry)) = self.queue.peek() {
            if self.is_pending(seq, entry) {
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
    /// `from` — `from == to` models local delivery.
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
        self.dispatch(i, Some((from, arrival, msg)));
    }

    fn dispatch(&mut self, i: usize, incoming: Option<(NodeId, Option<usize>, P::Msg)>) {
        self.bump_epoch();
        let run = self.csr.slots(i);
        let mut outbox = std::mem::take(&mut self.outbox);
        let (arrival, incoming) = match incoming {
            Some((from, arrival, msg)) => (arrival, Some((from, msg))),
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
        match incoming {
            None => self.protocol.on_start(&mut ctx, node),
            Some((from, msg)) => self.protocol.on_message(&mut ctx, node, from, msg),
        }
        for (slot, msg) in outbox.drain(..) {
            self.enqueue(slot, msg);
        }
        self.outbox = outbox;
    }

    fn enqueue(&mut self, slot: usize, msg: P::Msg) {
        self.stats.sent += 1;
        let link = self.links[slot];
        if !link.live {
            self.stats.lost_to_failure += 1;
            return;
        }
        let config = self.configs[link.config as usize];
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
        let deliver_at = earliest.max(self.clocks[slot]);
        self.clocks[slot] = deliver_at;
        let seq = self.seq;
        self.seq += 1;
        let parcel = Parcel {
            seq,
            to: self.csr.target(slot) as u32,
            arrival: self.csr.twin(slot) as u32,
            msg: Some(msg),
        };
        let entry = match self.free.pop() {
            Some(entry) => {
                self.slab[entry as usize] = parcel;
                entry
            }
            None => {
                self.slab.push(parcel);
                u32::try_from(self.slab.len() - 1).expect("fewer than 2^32 messages in flight")
            }
        };
        self.queue.push(deliver_at, seq, entry);
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

        fn on_message(
            &mut self,
            ctx: &mut Ctx<'_, (), ()>,
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

    #[test]
    fn every_mutation_bumps_the_epoch_and_the_clock_does_not() {
        let mut sim = flood_sim(4, LinkConfig::default(), 0);
        let mut last = sim.epoch();
        let mut bumped = |sim: &EventSim<Flood>, what: &str| {
            assert_ne!(sim.epoch(), last, "{what} must bump the epoch");
            last = sim.epoch();
        };
        sim.start();
        bumped(&sim, "start (one dispatch per node)");
        assert!(sim.step());
        bumped(&sim, "a delivery");
        sim.inject(n(3), n(3), ());
        bumped(&sim, "inject");
        sim.fail_link(n(1), n(2));
        bumped(&sim, "fail_link");
        sim.heal_link(n(1), n(2));
        bumped(&sim, "heal_link");
        let slow = LinkConfig {
            delay: 5,
            ..LinkConfig::default()
        };
        sim.set_link_config(n(2), n(3), slow);
        bumped(&sim, "set_link_config");

        // Only the clock moves: drain first so nothing bounds the advance.
        assert!(sim.run_to_quiescence(1_000));
        let before = sim.epoch();
        let t = sim.now() + 100;
        sim.advance_to(t);
        assert_eq!(sim.now(), t);
        assert_eq!(sim.epoch(), before, "advance_to must not bump the epoch");
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
            fn on_message(
                &mut self,
                _ctx: &mut Ctx<'_, u32, ()>,
                node: &mut SeqNode,
                _from: NodeId,
                msg: u32,
            ) {
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
        assert_eq!(
            sim.run_until_capped(1, u64::MAX),
            (1, false),
            "node 1 hears the token"
        );
        sim.fail_link(n(0), n(1));
        // The cancelled echo's stale entry (t = 101) must not make a run
        // to t = 50 deliver the live t = 100 relay beyond its deadline…
        assert_eq!(
            sim.run_until_capped(50, u64::MAX),
            (0, false),
            "nothing live is due by t = 50"
        );
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
            fn on_message(&mut self, _c: &mut Ctx<'_, (), ()>, _n: &mut (), _f: NodeId, _m: ()) {}
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

        fn on_message(
            &mut self,
            ctx: &mut Ctx<'_, (), ()>,
            node: &mut u32,
            from: NodeId,
            _msg: (),
        ) {
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
}
