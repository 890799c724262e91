//! Executing one scenario run: build the instance, wire the protocol
//! onto [`EventSim`] with heterogeneous links, walk the merged
//! churn + traffic timeline, and collect metrics after every churn
//! event.
//!
//! ## Timing semantics
//!
//! Scenario times are **lower bounds**. Actions (churn events and
//! traffic waves) execute in time order; before each one the simulator
//! runs until the action's `at` tick. After every *churn* event the
//! engine additionally waits up to the spec's **settle window** for the
//! network to go quiescent and records the convergence time
//! (`quiesced_at − fired_at`) — the paper's "convergence after
//! perturbation" observable — so a slow convergence pushes later
//! actions forward in virtual time. A phase that does not quiesce
//! within the window (Partial Reversal livelocks in any component cut
//! off from the destination — the partition behaviour TORA fixes) is
//! recorded with `quiesced = false` and the censored convergence value.
//! Every run stays bit-for-bit reproducible from `(spec, seed, trial)`.
//!
//! ## Protocol adapters
//!
//! Each protocol plugs in through one `Driver` that holds only what the
//! protocol does differently: how it takes link churn, a leader crash and
//! traffic (refusing what it does not take), its route probe, and the
//! metrics it writes into a row. The simulator controls every protocol
//! shares (the clock, budgeted delivery, quiescence, the touched log,
//! link configs, start) are one `SimControl` implementation for every
//! [`EventSim`], which `Driver::sim` hands out. `make_driver` builds
//! the adapter, and `start_driver` applies the spec's link overrides in
//! one loop and starts the protocol.
//!
//! Instance and driver construction run under a `scenario.build` span,
//! and each row's live-link scan and metrics under `scenario.metrics`.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

use lr_core::alg::TripleHeight;
use lr_graph::{CsrGraph, NodeId, ReversalInstance};
use lr_net::election::ElectionHarness;
use lr_net::mutex::MutexHarness;
use lr_net::reversal::{initial_nodes, orientation_from_heights, DistributedPr, ReversalMsg};
use lr_net::routing::{downhill, probe_hop_limit, RouteMsg, RoutingHarness};
use lr_net::sim::{EventSim, LinkConfig, Protocol, SimStats};
use lr_net::tora::{ToraHarness, ToraMsg};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;

use crate::spec::{
    derive_churn_seed, derive_run_seed, ChurnKind, LinkSpec, ProtocolKind, ScenarioSpec, Sources,
    SpecError,
};
use crate::topology::build_instance;

/// A runtime failure of a structurally valid scenario (e.g. the
/// network exhausted the `max_events` budget inside one settle
/// window).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioError(pub String);

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ScenarioError {}

impl From<SpecError> for ScenarioError {
    fn from(e: SpecError) -> Self {
        ScenarioError(e.to_string())
    }
}

/// One structured result row from a scenario run: the sweep runner
/// emits one row per churn event plus one `"summary"` row per
/// `(seed, trial)` run. `lr scenario run` renders the rows as a table;
/// the determinism suite compares them as JSON.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ScenarioRecord {
    /// Scenario name from the spec.
    pub scenario: String,
    /// Protocol driven ("routing", "reversal", "tora", "mutex",
    /// "election").
    pub protocol: String,
    /// Topology family ("random", "grid", "inline", …).
    pub family: String,
    /// Node count of the instance.
    pub n: usize,
    /// Undirected edge count of the instance.
    pub edges: usize,
    /// Base seed of the run (from the spec's seed list).
    pub seed: u64,
    /// Trial index within the seed.
    pub trial: usize,
    /// Row kind: `"event"` for per-churn-event rows, `"summary"` for
    /// the end-of-run roll-up.
    pub row: String,
    /// Index of the churn event (for `"summary"` rows: the number of
    /// churn events executed).
    pub event_index: usize,
    /// Human-readable event description (`"fail 2 link(s)"`,
    /// `"summary"`, …).
    pub event: String,
    /// Virtual time the event fired (for summaries: end-of-run time).
    pub at: u64,
    /// Ticks from the event until the network re-quiesced (convergence
    /// time; for summaries: total virtual duration of the run). When
    /// `quiesced` is false this is the settle window — a censored
    /// measurement.
    pub convergence_ticks: u64,
    /// Whether the network actually went quiescent within the settle
    /// window. `false` marks livelock — e.g. Partial Reversal in a
    /// component cut off from the destination reverses forever (the
    /// partition problem TORA exists to solve).
    pub quiesced: bool,
    /// Packets/queries injected so far (for tora: distinct queried
    /// sources).
    pub injected: u64,
    /// Packets/queries delivered so far. Cumulative for most
    /// protocols; for tora it is the number of queried sources
    /// currently routed, which partition detection can *decrease*
    /// between rows (heights are erased on a detected partition).
    pub delivered: u64,
    /// Packets dropped (hop limit) so far.
    pub dropped: u64,
    /// Packets buffered somewhere, still undelivered.
    pub stranded: u64,
    /// `delivered / injected` (1.0 when nothing was injected).
    pub delivery_rate: f64,
    /// Mean hops over delivered packets.
    pub mean_hops: f64,
    /// Mean route stretch over delivered packets: hops divided by the
    /// shortest live path at injection time (0 when no packet was
    /// delivered).
    pub stretch: f64,
    /// Total packet revisits (transient routing loops) so far.
    pub revisits: u64,
    /// Total protocol messages handed to the network so far.
    pub messages: u64,
    /// Total reversals across nodes so far.
    pub total_reversals: u64,
    /// Largest per-node reversal count (work skew).
    pub max_node_reversals: u64,
    /// Mean per-node reversal count.
    pub mean_node_reversals: f64,
    /// Whether the protocol's structural invariant held when the row
    /// was taken (height orientation acyclic over live links / token
    /// tree oriented toward the holder) — the paper's
    /// acyclicity-under-perturbation observable.
    pub acyclic: bool,
    /// Whether the row was produced in smoke mode (first seed and trial
    /// only).
    pub smoke: bool,
}

/// The result of one `(seed, trial)` run: the structured rows plus the
/// raw simulator stats (the determinism tests compare these
/// bit-for-bit).
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutcome {
    /// One `"event"` row per churn event (plus the index-0 `"start"`
    /// row) and one final `"summary"` row.
    pub records: Vec<ScenarioRecord>,
    /// End-of-run simulator statistics.
    pub sim_stats: SimStats,
}

/// One synchronous route answer read off the live orientation (no
/// protocol messages, no clock movement): how many hops a greedy
/// height-descent walk takes from the probed source to its sink, and
/// the summed per-link delay along that walk. Produced by
/// [`Driver::route_probe`] for the resident serve loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RouteProbe {
    /// Links crossed from the source to the sink.
    pub hops: u64,
    /// Sum of the configured per-link delays along the walk (each
    /// clamped to ≥ 1 tick, matching the simulator's delivery clamp),
    /// saturating at `u64::MAX`.
    pub path_delay: u64,
}

/// Why a route probe has no answer right now.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum NoRoute {
    /// The walk reached a node with a NULL TORA height.
    Unrouted,
    /// The walk reached a node that is not the sink and knows no live
    /// neighbor below it.
    DeadEnd,
    /// The walk re-entered a node, so it would loop forever.
    Revisit,
    /// The walk passed its hop bound.
    HopLimit,
}

/// One node's memoized probe answer: the next hop of its route, and the
/// route length and summed delay from the node to its sink.
#[derive(Debug, Clone, Copy)]
struct MemoEntry {
    /// Dense index of the route's next hop, or [`NO_ANSWER`].
    next: u32,
    hops: u32,
    path_delay: u64,
}

const _: () = assert!(std::mem::size_of::<MemoEntry>() == 16);

/// The `next` of an entry that holds no answer. Every node of a connected
/// CSR graph owns one of its fewer than 2^32 half-edge slots, so no node
/// has this dense index.
const NO_ANSWER: u32 = u32::MAX;

impl MemoEntry {
    const EMPTY: MemoEntry = MemoEntry {
        next: NO_ANSWER,
        hops: 0,
        path_delay: 0,
    };
}

/// A route cache for [`Driver::route_probe`]: each dense node's answer
/// and the next hop of its route. A walk reads only the state, slots,
/// live bits and link configs of the nodes on its route, so an answer
/// stays exact until the simulator touches one of them
/// ([`EventSim::touched`]).
///
/// [`RouteMemo::retire`] takes each drain of the simulator's touched log
/// and retires every touched node's answer, then every answer whose next
/// hop was retired, transitively: the touched nodes' upstream cones. An
/// answer whose route avoids them is kept. A memo that missed a drain,
/// or is read while the log holds undrained nodes, retires every entry
/// first, so no caller reads a stale answer. A memo belongs to one
/// driver; keep one per probing thread.
#[derive(Debug, Default)]
pub(crate) struct RouteMemo {
    entries: Vec<MemoEntry>,
    /// The last drain of the touched log the entries account for
    /// (`None` before first use).
    drain: Option<u64>,
    /// The walked prefix of the probe in progress: each node, by dense
    /// index, and the delay of the hop out of it.
    path: Vec<(u32, u64)>,
    /// Hops walked over the memo's life; answered suffixes are not
    /// walked.
    pub(crate) walked: u64,
}

impl RouteMemo {
    /// Retires every entry of a memo over `n` nodes.
    fn clear(&mut self, n: usize) {
        self.entries.clear();
        self.entries.resize(n, MemoEntry::EMPTY);
    }

    /// Readies the memo for a walk over `sim`: a memo of another size, one
    /// that missed a drain, or a read with undrained touches retires every
    /// entry first.
    fn sync<P: Protocol>(&mut self, sim: &EventSim<P>) {
        let n = sim.csr().node_count();
        if self.entries.len() != n || self.drain != Some(sim.drains()) || !sim.touched().is_empty()
        {
            self.clear(n);
            self.drain = Some(sim.drains());
        }
    }

    /// Retires what drain number `drain` of the simulator's touched log,
    /// `touched`, made stale: each touched node's answer and, found by
    /// scanning a retired node's neighbours in `csr`, each answer whose
    /// next hop was retired. A memo that did not see drain `drain − 1`
    /// retires everything.
    pub(crate) fn retire(&mut self, csr: &CsrGraph, touched: &[u32], drain: u64) {
        if self.entries.len() != csr.node_count() || self.drain.map(|d| d + 1) != Some(drain) {
            self.clear(csr.node_count());
        } else {
            let mut upstream = Vec::new();
            for &t in touched {
                self.entries[t as usize] = MemoEntry::EMPTY;
                upstream.push(t);
                while let Some(r) = upstream.pop() {
                    for &w in csr.neighbor_indices(r as usize) {
                        let entry = &mut self.entries[w as usize];
                        if entry.next == r {
                            *entry = MemoEntry::EMPTY;
                            upstream.push(w);
                        }
                    }
                }
            }
        }
        self.drain = Some(drain);
    }

    /// The current answer `(hops, path_delay)` from node `i`, if known.
    fn get(&self, i: usize) -> Option<(u64, u64)> {
        let e = self.entries[i];
        (e.next != NO_ANSWER).then_some((u64::from(e.hops), e.path_delay))
    }
}

/// The simulator controls that do not depend on the protocol, written
/// once for every [`EventSim`]: what the timeline executor and
/// [`crate::serve`] drive through [`Driver::sim`].
pub(crate) trait SimControl {
    /// The virtual clock.
    fn now(&self) -> u64;
    /// Delivers live events due at or before `deadline`, at most
    /// `max_events` of them; returns `(delivered, capped)` where
    /// `capped` means the budget ran out with work still due.
    fn run_until_capped(&mut self, deadline: u64, max_events: u64) -> (u64, bool);
    /// Runs [`SimControl::run_until_capped`]; a budget that runs out is
    /// an error naming `what`.
    fn run_until(
        &mut self,
        deadline: u64,
        max_events: u64,
        what: &dyn std::fmt::Display,
    ) -> Result<(), ScenarioError> {
        let (delivered, capped) = self.run_until_capped(deadline, max_events);
        if capped {
            return Err(ScenarioError(format!(
                "{what}: event budget exhausted after {delivered} deliveries \
                 (max_events = {max_events})"
            )));
        }
        Ok(())
    }
    /// Advances the virtual clock to `t` when the network is quiescent
    /// before then (actions honor their nominal `at` times).
    fn advance_to(&mut self, t: u64);
    /// Whether no events remain in flight.
    fn is_quiescent(&mut self) -> bool;
    /// Drains the touched log into `into` ([`EventSim::drain_touched`])
    /// and returns the drain's number.
    fn drain_touched(&mut self, into: &mut Vec<u32>) -> u64;
    /// The simulator's statistics so far.
    fn stats(&self) -> SimStats;
    /// Overrides the config of the link `{u, v}`.
    fn set_link_config(&mut self, u: NodeId, v: NodeId, config: LinkConfig);
    /// Runs every node's start hook.
    fn start(&mut self);
}

impl<P: Protocol> SimControl for EventSim<P> {
    fn now(&self) -> u64 {
        EventSim::now(self)
    }

    fn run_until_capped(&mut self, deadline: u64, max_events: u64) -> (u64, bool) {
        EventSim::run_until_capped(self, deadline, max_events)
    }

    fn advance_to(&mut self, t: u64) {
        EventSim::advance_to(self, t);
    }

    fn is_quiescent(&mut self) -> bool {
        self.run_to_quiescence(0)
    }

    fn drain_touched(&mut self, into: &mut Vec<u32>) -> u64 {
        EventSim::drain_touched(self, into)
    }

    fn stats(&self) -> SimStats {
        EventSim::stats(self)
    }

    fn set_link_config(&mut self, u: NodeId, v: NodeId, config: LinkConfig) {
        EventSim::set_link_config(self, u, v, config);
    }

    fn start(&mut self) {
        EventSim::start(self);
    }
}

/// What each protocol adapter does differently: its rules for link
/// churn, leader crashes and traffic, its route probe and its row
/// metrics. A protocol refuses the actions it does not take, as the
/// spec parser and the serve feed validator already do.
pub(crate) trait Driver: Sync {
    /// The protocol's simulator.
    fn sim(&mut self) -> &mut dyn SimControl;
    /// Fails the link `{u, v}` and notifies both endpoints.
    fn fail_link(&mut self, _u: NodeId, _v: NodeId) -> Result<(), ScenarioError> {
        Err(ScenarioError("this protocol takes no link churn".into()))
    }
    /// Restores the link `{u, v}` and re-announces across it.
    fn heal_link(&mut self, _u: NodeId, _v: NodeId) -> Result<(), ScenarioError> {
        Err(ScenarioError("this protocol takes no link churn".into()))
    }
    /// Crashes the current leader.
    fn crash_leader(&mut self) -> Result<(), ScenarioError> {
        Err(ScenarioError(
            "crash_leader is only supported by election scenarios".into(),
        ))
    }
    /// Injects one unit of traffic (packet / route query / CS request)
    /// at each source. A routing packet is priced at the live-link
    /// distance `ledger` holds for its source.
    fn inject_wave(
        &mut self,
        _sources: &[NodeId],
        _ledger: &LinkLedger,
    ) -> Result<(), ScenarioError> {
        Err(ScenarioError("this protocol takes no traffic".into()))
    }
    /// Answers one route query from `src` against the *current* node
    /// states, without sending a message or moving the clock: walks
    /// greedily downhill (holder pointers for mutex) until the
    /// protocol's sink is reached. An error says why the query is
    /// unanswerable right now, typically mid-convergence. `memo` caches
    /// answers across calls and never changes one (the mutex walk
    /// ignores it).
    fn route_probe(&self, src: NodeId, memo: &mut RouteMemo) -> Result<RouteProbe, NoRoute>;
    /// Writes the protocol's metrics at a row's quiescent point into
    /// `rec`, over the `live` links. A field the protocol does not
    /// measure keeps the row's default.
    fn metrics(&self, live: &[(NodeId, NodeId)], rec: &mut ScenarioRecord);
}

/// Greedy height-descent walk shared by the routing / reversal /
/// election / TORA probes: from `src`, repeatedly take the
/// [`downhill`] hop over the current node's run of slots, until
/// `is_sink` accepts the current node. `own(node)` reads a node's height
/// (`None`, a NULL TORA height, means unrouted: no answer) and
/// `known(slot)` the height a slot holds for its neighbor. Both may leave
/// out the id that breaks ties, as the triple heights' `(α, β)` do: when
/// a neighbor's height equals the node's, the lower dense index, which is
/// the lower id, is below.
///
/// The walk reads frozen state and picks each hop from the current node
/// alone, so re-entering a node means it loops forever: Brent's cycle
/// check stops it there, without per-probe memory. The hop bound mirrors
/// the routing protocol's packet hop limit: the probe is answered iff
/// the route reaches the sink within it.
///
/// The walk also stops at a node whose answer `memo` holds and adds that
/// answer's hops and delay to its own. An answered walk then stores the
/// answer and next hop of every node it walked through; a walk that ends
/// in a revisit, a dead end or a NULL height stores nothing. Either way
/// the result is the plain walk's, since a memo keeps an answer only
/// while no node on its route is touched.
fn descend_heights<P: Protocol, H: Ord>(
    sim: &EventSim<P>,
    src: NodeId,
    memo: &mut RouteMemo,
    own: impl Fn(&P::Node) -> Option<H>,
    known: impl Fn(&P::Slot) -> Option<H>,
    is_sink: impl Fn(NodeId, &P::Node) -> bool,
) -> Result<RouteProbe, NoRoute> {
    let csr = sim.csr();
    let limit = u64::from(probe_hop_limit(csr.node_count()));
    memo.sync(sim);
    memo.path.clear();
    let mut cur = csr.index_of(src).expect("probe source is a node");
    // Brent: `mark` is re-set to the current node whenever `since`, the
    // hops since the last re-set, reaches `span`, which then doubles.
    // Once `span` covers the loop, the walk comes back to its mark.
    let (mut mark, mut span, mut since) = (cur, 1u64, 0u64);
    // The rest of the route from where the walk stops: nothing at the
    // sink, the memoized answer at a memo hit.
    let (mut hops, mut path_delay) = loop {
        if let Some(rest) = memo.get(cur) {
            break rest;
        }
        let node = sim.node_at(cur);
        if is_sink(csr.node(cur), node) {
            break (0, 0);
        }
        if memo.path.len() as u64 >= limit {
            return Err(NoRoute::HopLimit);
        }
        let run = csr.slots(cur);
        let heights = run.clone().map(|s| {
            if sim.is_live(s) {
                known(sim.slot(s))
            } else {
                None
            }
        });
        let own = own(node).ok_or(NoRoute::Unrouted)?;
        let below_on_tie = |k| csr.target(run.start + k) < cur;
        let slot = run.start + downhill(own, heights, below_on_tie).ok_or(NoRoute::DeadEnd)?;
        memo.path
            .push((cur as u32, sim.link_config_at(slot).delay.max(1)));
        memo.walked += 1;
        cur = csr.target(slot);
        if cur == mark {
            return Err(NoRoute::Revisit);
        }
        since += 1;
        if since == span {
            (mark, span, since) = (cur, 2 * span, 0);
        }
    };
    if hops + memo.path.len() as u64 > limit {
        return Err(NoRoute::HopLimit);
    }
    // Suffix sums, last hop first. Saturating addition of non-negative
    // terms is associative, so the delay equals the plain walk's sum.
    let mut next = cur as u32;
    for &(node, delay) in memo.path.iter().rev() {
        hops += 1;
        path_delay = delay.saturating_add(path_delay);
        memo.entries[node as usize] = MemoEntry {
            next,
            // At most the hop limit, itself a `u32`.
            hops: hops as u32,
            path_delay,
        };
        next = node;
    }
    Ok(RouteProbe { hops, path_delay })
}

/// Checks that the orientation implied by `heights` over the live
/// graph is acyclic — the paper's theorem, observed under churn.
fn heights_acyclic(
    live: &[(NodeId, NodeId)],
    heights: impl Iterator<Item = (NodeId, TripleHeight)>,
) -> bool {
    let heights: BTreeMap<NodeId, TripleHeight> = heights.collect();
    orientation_from_heights(live.iter().copied(), &heights).is_acyclic()
}

/// Writes the per-node work distribution into `rec`: its total, its
/// largest count and its mean.
fn record_work(rec: &mut ScenarioRecord, per_node: impl Iterator<Item = u64>) {
    let counts: Vec<u64> = per_node.collect();
    rec.total_reversals = counts.iter().sum();
    rec.max_node_reversals = counts.iter().copied().max().unwrap_or(0);
    rec.mean_node_reversals = if counts.is_empty() {
        0.0
    } else {
        rec.total_reversals as f64 / counts.len() as f64
    };
}

fn rate(delivered: u64, injected: u64) -> f64 {
    if injected == 0 {
        1.0
    } else {
        delivered as f64 / injected as f64
    }
}

// ───────────────────────── routing ─────────────────────────

/// Full-metrics adapter: TORA-style greedy-downhill routing on a
/// [`RoutingHarness`], plus the shortest-path-at-injection bookkeeping
/// route stretch needs.
struct RoutingDriver {
    harness: RoutingHarness,
    /// Packet id → live shortest path from its origin to the destination
    /// at injection (absent when the origin was cut off).
    shortest: BTreeMap<u64, u64>,
}

impl Driver for RoutingDriver {
    fn sim(&mut self) -> &mut dyn SimControl {
        self.harness.sim_mut()
    }

    fn fail_link(&mut self, u: NodeId, v: NodeId) -> Result<(), ScenarioError> {
        self.harness.fail_link(u, v);
        Ok(())
    }

    fn heal_link(&mut self, u: NodeId, v: NodeId) -> Result<(), ScenarioError> {
        let sim = self.harness.sim_mut();
        sim.heal_link(u, v);
        // Re-announce across the healed link so it becomes usable
        // (heights are monotone, so re-announcing is always safe).
        let hu = sim.node(u).rev.height;
        let hv = sim.node(v).rev.height;
        sim.inject(u, v, RouteMsg::Height(hu));
        sim.inject(v, u, RouteMsg::Height(hv));
        Ok(())
    }

    fn inject_wave(
        &mut self,
        sources: &[NodeId],
        ledger: &LinkLedger,
    ) -> Result<(), ScenarioError> {
        for &src in sources {
            let at = self.harness.sim().csr().index_of(src);
            let id = self.harness.send_packet(src);
            if let Some(d) = ledger.distance(at.expect("source is a node")) {
                self.shortest.insert(id, d);
            }
        }
        Ok(())
    }

    fn route_probe(&self, src: NodeId, memo: &mut RouteMemo) -> Result<RouteProbe, NoRoute> {
        let dest = self.harness.dest();
        descend_heights(
            self.harness.sim(),
            src,
            memo,
            |n| Some((n.rev.height.alpha, n.rev.height.beta)),
            |known| known.get(),
            |u, _| u == dest,
        )
    }

    fn metrics(&self, live: &[(NodeId, NodeId)], rec: &mut ScenarioRecord) {
        let report = self.harness.report();
        let sim = self.harness.sim();
        // Stretch: hops over the live shortest path at injection time,
        // averaged over delivered packets whose origin was connected.
        let (mut stretch_sum, mut stretch_count) = (0.0, 0u64);
        for p in sim.node(self.harness.dest()).delivered() {
            if let Some(&shortest) = self.shortest.get(&p.id) {
                if shortest > 0 {
                    stretch_sum += f64::from(p.hops) / shortest as f64;
                    stretch_count += 1;
                }
            }
        }
        if stretch_count > 0 {
            rec.stretch = stretch_sum / stretch_count as f64;
        }
        rec.injected = report.injected;
        rec.delivered = report.delivered;
        rec.dropped = report.dropped;
        rec.stranded = report.stranded;
        rec.mean_hops = report.mean_hops;
        rec.revisits = report.revisits;
        record_work(rec, sim.nodes().map(|(_, n)| n.rev.reversals));
        rec.acyclic = heights_acyclic(live, sim.nodes().map(|(u, n)| (u, n.rev.height)));
    }
}

// ───────────────────────── reversal ─────────────────────────

/// Convergence-only adapter: the distributed Partial Reversal protocol
/// under churn, no data traffic.
struct ReversalDriver {
    sim: EventSim<DistributedPr>,
}

impl Driver for ReversalDriver {
    fn sim(&mut self) -> &mut dyn SimControl {
        &mut self.sim
    }

    fn fail_link(&mut self, u: NodeId, v: NodeId) -> Result<(), ScenarioError> {
        self.sim.fail_link(u, v);
        self.sim.inject(v, u, ReversalMsg::LinkDown(v));
        self.sim.inject(u, v, ReversalMsg::LinkDown(u));
        Ok(())
    }

    fn heal_link(&mut self, u: NodeId, v: NodeId) -> Result<(), ScenarioError> {
        self.sim.heal_link(u, v);
        let hu = self.sim.node(u).height;
        let hv = self.sim.node(v).height;
        self.sim.inject(u, v, ReversalMsg::Height(hu));
        self.sim.inject(v, u, ReversalMsg::Height(hv));
        Ok(())
    }

    fn route_probe(&self, src: NodeId, memo: &mut RouteMemo) -> Result<RouteProbe, NoRoute> {
        descend_heights(
            &self.sim,
            src,
            memo,
            |n| Some((n.height.alpha, n.height.beta)),
            |known| known.get(),
            |_, n| n.is_dest,
        )
    }

    fn metrics(&self, live: &[(NodeId, NodeId)], rec: &mut ScenarioRecord) {
        record_work(rec, self.sim.nodes().map(|(_, n)| n.reversals));
        rec.acyclic = heights_acyclic(live, self.sim.nodes().map(|(u, n)| (u, n.height)));
    }
}

// ───────────────────────── tora ─────────────────────────

/// TORA adapter: traffic waves are route queries (QRY floods); a query
/// counts as delivered while its source holds a non-NULL height at a
/// measurement point (partition detection erases heights, un-counting
/// the cut-off queries).
///
/// Queries go through `sim_mut()` directly, not the harness's
/// `create_route`, which assert-quiesces with its own budget, so the
/// engine's settle window and `max_events` contract hold for TORA like
/// every other protocol.
struct ToraDriver {
    harness: ToraHarness,
    /// The distinct queried sources: a repeated NeedRoute for an
    /// already-queried node is TORA-idempotent, and counting it would cap
    /// the delivery rate below 1 for multi-wave traffic (delivered counts
    /// sources, not waves).
    queried: BTreeSet<NodeId>,
}

impl Driver for ToraDriver {
    fn sim(&mut self) -> &mut dyn SimControl {
        self.harness.sim_mut()
    }

    fn fail_link(&mut self, u: NodeId, v: NodeId) -> Result<(), ScenarioError> {
        self.harness.fail_link(u, v);
        Ok(())
    }

    fn heal_link(&mut self, u: NodeId, v: NodeId) -> Result<(), ScenarioError> {
        self.harness.heal_link(u, v);
        Ok(())
    }

    fn inject_wave(
        &mut self,
        sources: &[NodeId],
        _ledger: &LinkLedger,
    ) -> Result<(), ScenarioError> {
        for &src in sources {
            self.queried.insert(src);
            self.harness.sim_mut().inject(src, src, ToraMsg::NeedRoute);
        }
        Ok(())
    }

    fn route_probe(&self, src: NodeId, memo: &mut RouteMemo) -> Result<RouteProbe, NoRoute> {
        // TORA heights are optional: NULL (`None`) means unrouted — a
        // probe from or through such a node has no answer.
        descend_heights(
            self.harness.sim(),
            src,
            memo,
            |n| n.height,
            |&known| known,
            |_, n| n.is_dest,
        )
    }

    fn metrics(&self, _live: &[(NodeId, NodeId)], rec: &mut ScenarioRecord) {
        let sim = self.harness.sim();
        rec.injected = self.queried.len() as u64;
        rec.delivered = self
            .queried
            .iter()
            .filter(|&&u| self.harness.height(u).is_some())
            .count() as u64;
        record_work(rec, sim.nodes().map(|(_, n)| n.reference_levels_generated));
        rec.acyclic = self.harness.routed_orientation().is_acyclic();
    }
}

// ───────────────────────── mutex ─────────────────────────

/// Raymond's-algorithm adapter: traffic waves are critical-section
/// requests; "delivered" counts completed CS entries.
struct MutexDriver {
    harness: MutexHarness,
    injected: u64,
}

impl Driver for MutexDriver {
    fn sim(&mut self) -> &mut dyn SimControl {
        self.harness.sim_mut()
    }

    fn inject_wave(
        &mut self,
        sources: &[NodeId],
        _ledger: &LinkLedger,
    ) -> Result<(), ScenarioError> {
        self.injected += sources.len() as u64;
        for &src in sources {
            self.harness.request(src);
        }
        Ok(())
    }

    fn route_probe(&self, src: NodeId, _memo: &mut RouteMemo) -> Result<RouteProbe, NoRoute> {
        // Raymond's tree: each node's `holder` pointer leads toward
        // the token. The walk follows holder pointers to the node that
        // holds the token (holder == itself); a chain longer than the
        // node count means the pointers cycle mid-handoff — no answer.
        let sim = self.harness.sim();
        let bound = sim.csr().node_count() as u64;
        let mut cur = src;
        let mut hops = 0u64;
        let mut path_delay = 0u64;
        while sim.node(cur).holder != cur {
            if hops >= bound {
                return Err(NoRoute::HopLimit);
            }
            let next = sim.node(cur).holder;
            path_delay = path_delay.saturating_add(sim.link_config(cur, next).delay.max(1));
            hops += 1;
            cur = next;
        }
        Ok(RouteProbe { hops, path_delay })
    }

    fn metrics(&self, _live: &[(NodeId, NodeId)], rec: &mut ScenarioRecord) {
        let sim = self.harness.sim();
        rec.injected = self.injected;
        rec.delivered = sim.nodes().map(|(_, n)| n.cs_entries).sum();
        rec.stranded = sim.nodes().map(|(_, n)| n.queue.len() as u64).sum();
        // Structural invariant at a quiescent point: exactly one token
        // holder, and holder pointers walk to it without cycling.
        let holders: Vec<NodeId> = sim
            .nodes()
            .filter(|(u, n)| n.holder == *u)
            .map(|(u, _)| u)
            .collect();
        rec.acyclic = holders.len() == 1 && {
            let holder = holders[0];
            let bound = sim.csr().node_count();
            sim.nodes().all(|(u, _)| {
                let mut cur = u;
                let mut hops = 0;
                while cur != holder && hops <= bound {
                    cur = sim.node(cur).holder;
                    hops += 1;
                }
                cur == holder
            })
        };
    }
}

// ───────────────────────── election ─────────────────────────

/// Leader-election adapter: churn is `crash_leader`; metrics report the
/// re-orientation work and post-crash agreement.
struct ElectionDriver {
    harness: ElectionHarness,
    crashed: bool,
}

impl Driver for ElectionDriver {
    fn sim(&mut self) -> &mut dyn SimControl {
        self.harness.sim_mut()
    }

    fn crash_leader(&mut self) -> Result<(), ScenarioError> {
        if self.crashed {
            return Err(ScenarioError("the leader is already crashed".into()));
        }
        self.crashed = true;
        self.harness.crash_leader();
        Ok(())
    }

    fn route_probe(&self, src: NodeId, memo: &mut RouteMemo) -> Result<RouteProbe, NoRoute> {
        // The elected leader is the orientation's sink: a node that
        // believes itself leader. Heights descend toward it exactly as
        // in the reversal protocol.
        descend_heights(
            self.harness.sim(),
            src,
            memo,
            |n| Some((n.height.alpha, n.height.beta)),
            |known| known.get(),
            |u, n| n.leader == u,
        )
    }

    fn metrics(&self, live: &[(NodeId, NodeId)], rec: &mut ScenarioRecord) {
        let sim = self.harness.sim();
        record_work(rec, sim.nodes().map(|(_, n)| n.reversals));
        rec.acyclic = heights_acyclic(live, sim.nodes().map(|(u, n)| (u, n.height)));
    }
}

// ───────────────────────── the executor ─────────────────────────

/// One entry of the merged timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum ActionKind {
    /// Traffic waves fire before churn at the same tick.
    Traffic(u64),
    /// Churn index into `spec.churn`.
    Churn(usize),
}

fn timeline(spec: &ScenarioSpec) -> Vec<(u64, ActionKind)> {
    let mut actions: Vec<(u64, ActionKind)> = Vec::new();
    if let Some(t) = &spec.traffic {
        for wave in 0..t.packets_per_source {
            // Saturating: extreme start/interval values clamp to the
            // end of time instead of overflowing.
            let at = t.start.saturating_add(wave.saturating_mul(t.interval));
            actions.push((at, ActionKind::Traffic(wave)));
        }
    }
    for (i, e) in spec.churn.iter().enumerate() {
        actions.push((e.at, ActionKind::Churn(i)));
    }
    actions.sort();
    actions
}

fn resolve_sources(spec: &ScenarioSpec, inst: &ReversalInstance) -> Vec<NodeId> {
    match spec.traffic.as_ref().map(|t| &t.sources) {
        Some(Sources::All) | None => inst
            .csr()
            .nodes()
            .filter(|&u| u != inst.dest || spec.protocol.dest_may_request())
            .collect(),
        Some(Sources::List(list)) => list.iter().map(|&u| NodeId::new(u)).collect(),
    }
}

/// Builds the protocol adapter. The TORA, mutex and election harness
/// constructors start their protocol without delivering anything;
/// routing and reversal start in [`start_driver`].
pub(crate) fn make_driver(
    spec: &ScenarioSpec,
    inst: &ReversalInstance,
    link: LinkConfig,
    run_seed: u64,
) -> Box<dyn Driver> {
    let csr = inst.csr().clone();
    match spec.protocol {
        ProtocolKind::Routing => Box::new(RoutingDriver {
            harness: RoutingHarness::new(inst, link, run_seed),
            shortest: BTreeMap::new(),
        }),
        ProtocolKind::Reversal => Box::new(ReversalDriver {
            sim: EventSim::new(
                DistributedPr,
                csr,
                initial_nodes(inst).collect(),
                link,
                run_seed,
            ),
        }),
        ProtocolKind::Tora => Box::new(ToraDriver {
            harness: ToraHarness::new(csr, inst.dest, link, run_seed),
            queried: BTreeSet::new(),
        }),
        ProtocolKind::Mutex => Box::new(MutexDriver {
            harness: MutexHarness::new(csr, inst.dest, link, run_seed),
            injected: 0,
        }),
        ProtocolKind::Election => Box::new(ElectionDriver {
            harness: ElectionHarness::new(inst, link, run_seed),
            crashed: false,
        }),
    }
}

/// Starts the protocol of a fresh driver with the spec's link overrides
/// applied.
///
/// Routing and reversal take the overrides before their start flood, so
/// even the initial convergence sees them. TORA and election first
/// deliver the start their constructors sent, within the spec's
/// `max_events`; their overrides, like mutex's, take effect from the
/// first scenario action onward.
///
/// # Errors
///
/// Returns a [`ScenarioError`] when TORA's or election's initial
/// convergence exhausts `max_events`.
pub(crate) fn start_driver(
    spec: &ScenarioSpec,
    driver: &mut dyn Driver,
) -> Result<(), ScenarioError> {
    let sim = driver.sim();
    if matches!(spec.protocol, ProtocolKind::Tora | ProtocolKind::Election) {
        sim.run_until(u64::MAX, spec.max_events, &"initial convergence")?;
    }
    for o in &spec.links.overrides {
        let (u, v) = (NodeId::new(o.u), NodeId::new(o.v));
        sim.set_link_config(u, v, spec_link_config(&o.link));
    }
    if matches!(
        spec.protocol,
        ProtocolKind::Routing | ProtocolKind::Reversal
    ) {
        sim.start();
    }
    Ok(())
}

pub(crate) fn spec_link_config(l: &LinkSpec) -> LinkConfig {
    LinkConfig {
        delay: l.delay,
        jitter: l.jitter,
        loss: l.loss,
    }
}

/// The distance of a node the destination cannot reach over live links.
const UNREACHABLE: u32 = u32::MAX;

/// Shared churn bookkeeping: the engine and the serve loop mirror the
/// failed-link set so partitions cut only live links and random churn
/// samples correctly, and keep the BFS distance of every node from the
/// destination over the live links, which prices route stretch.
///
/// The distances are repaired, not recomputed. Each fail and heal is
/// logged, and [`LinkLedger::repair`] applies the logged changes at once.
/// It visits the changed links' endpoints, the nodes whose distance may
/// rise or does fall, and their neighbours, never the whole graph (the
/// unit-weight case of Ramalingam and Reps' dynamic shortest paths):
///
/// 1. **Orphans.** In order of old distance, starting from the endpoints
///    of the failed links, mark each node none of whose live neighbours
///    one closer to the destination is unmarked: it lost every live
///    shortest-path parent. A marked node's neighbours one farther away
///    become candidates in turn. Every unmarked node keeps a live path of
///    its old length.
/// 2. **Relaxation.** The marked nodes forget their distance and are
///    re-priced from their unmarked neighbours, healed links offer each
///    endpoint the other's distance plus one, and one monotone queue
///    relaxes outward from there, so a heal also lowers the distances
///    behind it.
pub(crate) struct LinkLedger {
    csr: Arc<CsrGraph>,
    dest: usize,
    pub(crate) failed: BTreeSet<(NodeId, NodeId)>,
    /// BFS distance from the destination over the live links, by dense
    /// node index, as of the last repair ([`UNREACHABLE`]: cut off).
    dist: Vec<u32>,
    /// Links failed and healed since the last repair, by dense index.
    failed_since: Vec<(u32, u32)>,
    healed_since: Vec<(u32, u32)>,
    /// The orphans of the repair in progress, by dense index; all clear
    /// between repairs.
    orphan: Vec<bool>,
}

impl LinkLedger {
    /// The ledger of `inst` with every link live: one BFS from the
    /// destination prices every node.
    pub(crate) fn new(inst: &ReversalInstance) -> Self {
        let csr = Arc::clone(inst.csr());
        let n = csr.node_count();
        let dest = csr.index_of(inst.dest).expect("the destination is a node");
        let mut ledger = LinkLedger {
            csr,
            dest,
            failed: BTreeSet::new(),
            dist: vec![UNREACHABLE; n],
            failed_since: Vec::new(),
            healed_since: Vec::new(),
            orphan: vec![false; n],
        };
        ledger.dist[dest] = 0;
        ledger.relax(vec![(0, dest as u32)]);
        ledger
    }

    pub(crate) fn canon(u: NodeId, v: NodeId) -> (NodeId, NodeId) {
        if u < v {
            (u, v)
        } else {
            (v, u)
        }
    }

    /// Whether the link between dense nodes `i` and `j` is live.
    fn is_live(&self, i: usize, j: usize) -> bool {
        let (u, v) = (self.csr.node(i), self.csr.node(j));
        !self.failed.contains(&Self::canon(u, v))
    }

    /// The dense indices of the link `{u, v}`.
    fn dense(&self, u: NodeId, v: NodeId) -> (u32, u32) {
        let index = |w| {
            self.csr
                .index_of(w)
                .expect("a churned link joins two nodes") as u32
        };
        (index(u), index(v))
    }

    /// Fails the link `{u, v}` if it is live, and passes the change on to
    /// `driver`.
    pub(crate) fn fail(
        &mut self,
        driver: &mut dyn Driver,
        u: NodeId,
        v: NodeId,
    ) -> Result<(), ScenarioError> {
        if self.failed.insert(Self::canon(u, v)) {
            self.failed_since.push(self.dense(u, v));
            driver.fail_link(u, v)?;
        }
        Ok(())
    }

    /// Heals the link `{u, v}` if it is failed, and passes the change on
    /// to `driver`.
    pub(crate) fn heal(
        &mut self,
        driver: &mut dyn Driver,
        u: NodeId,
        v: NodeId,
    ) -> Result<(), ScenarioError> {
        if self.failed.remove(&Self::canon(u, v)) {
            self.healed_since.push(self.dense(u, v));
            driver.heal_link(u, v)?;
        }
        Ok(())
    }

    /// Node churn: fails every live link of `node`, neighbours ascending,
    /// each as `(min, max)`: the order of [`LinkLedger::live_edges`].
    pub(crate) fn crash(
        &mut self,
        driver: &mut dyn Driver,
        node: NodeId,
    ) -> Result<(), ScenarioError> {
        let csr = Arc::clone(&self.csr);
        let i = csr.index_of(node).expect("a crashed node is a node");
        for &j in csr.neighbor_indices(i) {
            let (a, b) = Self::canon(node, csr.node(j as usize));
            self.fail(driver, a, b)?;
        }
        Ok(())
    }

    /// Node churn: heals every failed link of `node`, in the failed set's
    /// order.
    pub(crate) fn restore(
        &mut self,
        driver: &mut dyn Driver,
        node: NodeId,
    ) -> Result<(), ScenarioError> {
        let incident: Vec<(NodeId, NodeId)> = self
            .failed
            .iter()
            .copied()
            .filter(|&(a, b)| a == node || b == node)
            .collect();
        for (a, b) in incident {
            self.heal(driver, a, b)?;
        }
        Ok(())
    }

    /// Every live link once, `(u, v)` with `u < v`, in lexicographic order:
    /// the order random churn samples from.
    pub(crate) fn live_edges(&self) -> Vec<(NodeId, NodeId)> {
        let csr = &self.csr;
        (0..csr.node_count())
            .flat_map(|i| {
                csr.neighbor_indices(i)
                    .iter()
                    .filter(move |&&j| j as usize > i)
                    .map(move |&j| (csr.node(i), csr.node(j as usize)))
            })
            .filter(|e| !self.failed.contains(e))
            .collect()
    }

    /// The live-link distance of dense node `i` from the destination
    /// (`None`: cut off). Call [`LinkLedger::repair`] after churn first.
    pub(crate) fn distance(&self, i: usize) -> Option<u64> {
        debug_assert!(
            self.failed_since.is_empty() && self.healed_since.is_empty(),
            "distances read with churn unrepaired"
        );
        let d = self.dist[i];
        (d != UNREACHABLE).then_some(u64::from(d))
    }

    /// Brings the distances up to date with every fail and heal since the
    /// last repair, and returns how many distances changed.
    pub(crate) fn repair(&mut self) -> u64 {
        // 1. Orphans, in order of old distance from the failed links'
        // endpoints. A candidate's neighbours one closer were all decided
        // before it.
        let mut candidates = Vec::new();
        for (a, b) in std::mem::take(&mut self.failed_since) {
            for x in [a, b] {
                if self.dist[x as usize] != UNREACHABLE {
                    candidates.push((self.dist[x as usize], x));
                }
            }
        }
        let mut queue = LevelQueue::new(candidates);
        let mut orphans: Vec<(u32, u32)> = Vec::new();
        while let Some((d, v)) = queue.pop() {
            let vi = v as usize;
            if vi == self.dest || self.orphan[vi] {
                continue;
            }
            let neighbours = self.csr.neighbor_indices(vi);
            let has_parent = neighbours.iter().any(|&u| {
                let ui = u as usize;
                self.dist[ui] == d - 1 && !self.orphan[ui] && self.is_live(vi, ui)
            });
            if has_parent {
                continue;
            }
            self.orphan[vi] = true;
            orphans.push((v, d));
            for &w in neighbours {
                if self.dist[w as usize] == d + 1 {
                    queue.push(d + 1, w);
                }
            }
        }

        // 2. Relaxation: each orphan from its best unmarked live neighbour,
        // each healed link both ways, then outward.
        for &(v, _) in &orphans {
            self.dist[v as usize] = UNREACHABLE;
        }
        let mut seeds = Vec::new();
        for &(v, _) in &orphans {
            let vi = v as usize;
            let best = self
                .csr
                .neighbor_indices(vi)
                .iter()
                .filter(|&&u| self.is_live(vi, u as usize))
                .map(|&u| self.dist[u as usize])
                .min()
                .unwrap_or(UNREACHABLE)
                .saturating_add(1);
            if best < self.dist[vi] {
                self.dist[vi] = best;
                seeds.push((best, v));
            }
        }
        for (a, b) in std::mem::take(&mut self.healed_since) {
            if !self.is_live(a as usize, b as usize) {
                continue;
            }
            for (x, y) in [(a, b), (b, a)] {
                let offer = self.dist[x as usize].saturating_add(1);
                if offer < self.dist[y as usize] {
                    self.dist[y as usize] = offer;
                    seeds.push((offer, y));
                }
            }
        }
        // Each node the relaxation settles outside the orphans is one whose
        // distance fell.
        let mut repaired = self.relax(seeds);
        for (v, old) in orphans {
            self.orphan[v as usize] = false;
            repaired += u64::from(self.dist[v as usize] != old);
        }
        repaired
    }

    /// Relaxes outward from `seeds`, each `(distance, node)` with the
    /// distance already stored, until every live link `{u, v}` has
    /// `dist[v] ≤ dist[u] + 1`. Returns how many non-orphan nodes it
    /// settled: each is a node whose distance fell.
    fn relax(&mut self, seeds: Vec<(u32, u32)>) -> u64 {
        let mut queue = LevelQueue::new(seeds);
        let mut settled = 0;
        while let Some((d, v)) = queue.pop() {
            let vi = v as usize;
            // A node settles once, at its final distance; later entries
            // for it are stale.
            if self.dist[vi] != d {
                continue;
            }
            settled += u64::from(!self.orphan[vi]);
            for &w in self.csr.neighbor_indices(vi) {
                let wi = w as usize;
                if d + 1 < self.dist[wi] && self.is_live(vi, wi) {
                    self.dist[wi] = d + 1;
                    queue.push(d + 1, w);
                }
            }
        }
        settled
    }
}

/// A monotone priority queue of `(level, node)` for unit-weight
/// relaxations: the seeds, sorted, merged with a FIFO of later pushes.
/// Each push is one level above the entry popped last, so the FIFO stays
/// sorted and entries leave in order of level.
struct LevelQueue {
    seeds: std::iter::Peekable<std::vec::IntoIter<(u32, u32)>>,
    fifo: VecDeque<(u32, u32)>,
}

impl LevelQueue {
    fn new(mut seeds: Vec<(u32, u32)>) -> Self {
        seeds.sort_unstable();
        LevelQueue {
            seeds: seeds.into_iter().peekable(),
            fifo: VecDeque::new(),
        }
    }

    fn push(&mut self, level: u32, node: u32) {
        self.fifo.push_back((level, node));
    }

    fn pop(&mut self) -> Option<(u32, u32)> {
        match (self.seeds.peek(), self.fifo.front()) {
            (Some(seed), Some(next)) if next < seed => self.fifo.pop_front(),
            (Some(_), _) => self.seeds.next(),
            (None, _) => self.fifo.pop_front(),
        }
    }
}

/// Executes one `(seed, trial)` run of a parsed, validated spec.
///
/// `smoke` marks the emitted rows (the caller also shrinks the sweep);
/// it does not change the run itself.
///
/// # Errors
///
/// Returns a [`ScenarioError`] when the topology cannot be built for
/// this seed or the network exhausts `max_events` without quiescing.
pub fn run_scenario(
    spec: &ScenarioSpec,
    seed: u64,
    trial: usize,
    smoke: bool,
) -> Result<RunOutcome, ScenarioError> {
    // Whole-run span (inert without a recording session); dropped on
    // every return path, error paths included.
    let mut run_span = lr_obs::span("scenario", format!("scenario.run {}", spec.name));
    run_span.arg("seed", seed);
    run_span.arg("trial", trial as u64);
    let run_seed = derive_run_seed(seed, trial);
    let build_span = lr_obs::span("scenario", "scenario.build");
    let inst = build_instance(&spec.topology, run_seed)?;
    spec.validate_against(&inst, seed, trial)
        .map_err(|e| ScenarioError(format!("invalid scenario: {e}")))?;
    let link = spec_link_config(&spec.links.default);
    let mut driver = make_driver(spec, &inst, link, run_seed);
    start_driver(spec, driver.as_mut())?;
    let mut ledger = LinkLedger::new(&inst);
    drop(build_span);
    let mut churn_rng = SmallRng::seed_from_u64(derive_churn_seed(run_seed));
    let sources = resolve_sources(spec, &inst);
    let mut records: Vec<ScenarioRecord> = Vec::new();

    // One row: the run's identity, the phase's `(convergence_ticks,
    // quiesced)`, and the metrics the driver reports over the live links.
    // Every metric the driver leaves alone keeps its default here.
    let record = |driver: &mut dyn Driver,
                  ledger: &LinkLedger,
                  (row, event_index, event, at): (&str, usize, &str, u64),
                  (convergence_ticks, quiesced): (u64, bool)| {
        let _sp = lr_obs::span("scenario", "scenario.metrics");
        let mut rec = ScenarioRecord {
            scenario: spec.name.clone(),
            protocol: spec.protocol.name().to_string(),
            family: spec.topology.family_name().to_string(),
            n: inst.node_count(),
            edges: inst.csr().edge_count(),
            seed,
            trial,
            row: row.to_string(),
            event_index,
            event: event.to_string(),
            at,
            convergence_ticks,
            quiesced,
            injected: 0,
            delivered: 0,
            dropped: 0,
            stranded: 0,
            delivery_rate: 1.0,
            mean_hops: 0.0,
            stretch: 0.0,
            revisits: 0,
            messages: driver.sim().stats().sent,
            total_reversals: 0,
            max_node_reversals: 0,
            mean_node_reversals: 0.0,
            acyclic: true,
            smoke,
        };
        driver.metrics(&ledger.live_edges(), &mut rec);
        rec.delivery_rate = rate(rec.delivered, rec.injected);
        rec
    };

    // Waits up to the settle window for quiescence. Returns
    // `(convergence_ticks, quiesced)` measured from `fired_at`; a
    // non-quiescent phase reports the censored window instead.
    let settle_phase = |sim: &mut dyn SimControl,
                        fired_at: u64,
                        what: &str|
     -> Result<(u64, bool), ScenarioError> {
        let deadline = fired_at.saturating_add(spec.settle);
        let (delivered, capped) = sim.run_until_capped(deadline, spec.max_events);
        if capped {
            return Err(ScenarioError(format!(
                "{what}: event budget exhausted after {delivered} deliveries within one \
                 settle window (max_events = {})",
                spec.max_events
            )));
        }
        let quiesced = sim.is_quiescent();
        let ticks = if quiesced {
            sim.now().saturating_sub(fired_at)
        } else {
            spec.settle
        };
        Ok((ticks, quiesced))
    };

    // Initial convergence: the index-0 "start" event row. (TORA and
    // election converge in `start_driver`, so this phase is instantly
    // quiescent for them and `now()` already carries their convergence
    // time.)
    let start = {
        let _sp = lr_obs::span("scenario", "scenario.settle start");
        settle_phase(driver.sim(), 0, "initial convergence")?
    };
    records.push(record(
        driver.as_mut(),
        &ledger,
        ("event", 0, "start", 0),
        start,
    ));

    for (at, action) in timeline(spec) {
        let sim = driver.sim();
        if at > sim.now() {
            sim.run_until(at, spec.max_events, &format_args!("drain to t = {at}"))?;
            sim.advance_to(at);
        }
        match action {
            ActionKind::Traffic(_) => {
                ledger.repair();
                driver.inject_wave(&sources, &ledger)?;
            }
            ActionKind::Churn(i) => {
                let fired_at = driver.sim().now();
                let kind = &spec.churn[i].kind;
                // Per-churn-event span: covers the mutation and the
                // settle phase that measures its convergence.
                let mut churn_span =
                    lr_obs::span("scenario", format!("scenario.churn {}", kind.describe()));
                apply_churn(kind, driver.as_mut(), &mut ledger, &mut churn_rng)?;
                let (ticks, quiesced) =
                    settle_phase(driver.sim(), fired_at, &format!("churn[{i}]"))?;
                churn_span.arg("event", i as u64 + 1);
                churn_span.arg("at", fired_at);
                churn_span.arg("convergence_ticks", ticks);
                churn_span.arg("quiesced", u64::from(quiesced));
                drop(churn_span);
                records.push(record(
                    driver.as_mut(),
                    &ledger,
                    ("event", i + 1, &kind.describe(), fired_at),
                    (ticks, quiesced),
                ));
            }
        }
    }

    let drain_from = driver.sim().now();
    let (_, quiesced) = {
        let _sp = lr_obs::span("scenario", "scenario.settle drain");
        settle_phase(driver.sim(), drain_from, "final drain")?
    };
    let end = driver.sim().now();
    records.push(record(
        driver.as_mut(),
        &ledger,
        ("summary", spec.churn.len(), "summary", end),
        (end, quiesced),
    ));

    let sim_stats = driver.sim().stats();
    record_sim_stats(&sim_stats);
    Ok(RunOutcome { sim_stats, records })
}

/// Records a run's simulator statistics as `net.*` counters — a
/// projection of [`SimStats`], inert without a recording session.
pub(crate) fn record_sim_stats(stats: &SimStats) {
    for (name, value) in [
        ("net.sent", stats.sent),
        ("net.delivered", stats.delivered),
        ("net.dropped", stats.dropped),
        ("net.lost_to_failure", stats.lost_to_failure),
    ] {
        lr_obs::counter(name).add(value);
    }
}

fn apply_churn(
    kind: &ChurnKind,
    driver: &mut dyn Driver,
    ledger: &mut LinkLedger,
    rng: &mut SmallRng,
) -> Result<(), ScenarioError> {
    match kind {
        ChurnKind::Fail(edges) => {
            for &(u, v) in edges {
                ledger.fail(driver, NodeId::new(u), NodeId::new(v))?;
            }
        }
        ChurnKind::Heal(edges) => {
            for &(u, v) in edges {
                ledger.heal(driver, NodeId::new(u), NodeId::new(v))?;
            }
        }
        ChurnKind::Partition(side) => {
            let side: BTreeSet<NodeId> = side.iter().map(|&u| NodeId::new(u)).collect();
            for (u, v) in ledger.live_edges() {
                if side.contains(&u) != side.contains(&v) {
                    ledger.fail(driver, u, v)?;
                }
            }
        }
        ChurnKind::Random { fail, heal } => {
            // Sample without replacement from one list of each, built per
            // event and kept in order: a drawn entry leaves its list as it
            // leaves the ledger's set. If fewer links are available than
            // requested, churn what exists.
            let mut live = ledger.live_edges();
            for _ in 0..*fail {
                if live.is_empty() {
                    break;
                }
                let (u, v) = live.remove(rng.gen_range(0..live.len()));
                ledger.fail(driver, u, v)?;
            }
            let mut failed: Vec<(NodeId, NodeId)> = ledger.failed.iter().copied().collect();
            for _ in 0..*heal {
                if failed.is_empty() {
                    break;
                }
                let (u, v) = failed.remove(rng.gen_range(0..failed.len()));
                ledger.heal(driver, u, v)?;
            }
        }
        ChurnKind::CrashLeader => driver.crash_leader()?,
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;

    use lr_net::sim::Ctx;

    use super::*;
    use crate::topology::build_instance;

    /// Every node announces height 1 to its neighbors and holds height 5
    /// itself, so each believes the other sits below it: a stale-height
    /// loop.
    struct Stale;

    impl Protocol for Stale {
        type Msg = u32;
        type Node = u32;
        type Slot = Option<u32>;

        fn on_start(&mut self, ctx: &mut Ctx<'_, u32, Option<u32>>, _node: &mut u32) {
            ctx.broadcast(1);
        }

        fn on_message(&mut self, ctx: &mut Ctx<'_, u32, Option<u32>>, _node: &mut u32, msg: u32) {
            if let Some(known) = ctx.sender_slot_mut() {
                *known = Some(msg);
            }
        }
    }

    /// Every node holds its id as its height and learns its neighbors'
    /// only from injected messages, so a test sets the heights it reads.
    struct Learn;

    impl Protocol for Learn {
        type Msg = u32;
        type Node = u32;
        type Slot = Option<u32>;

        fn on_start(&mut self, _ctx: &mut Ctx<'_, u32, Option<u32>>, _node: &mut u32) {}

        fn on_message(&mut self, ctx: &mut Ctx<'_, u32, Option<u32>>, _node: &mut u32, msg: u32) {
            if let Some(known) = ctx.sender_slot_mut() {
                *known = Some(msg);
            }
        }
    }

    #[test]
    fn memoized_delays_saturate_like_the_plain_walk() {
        let n = NodeId::new;
        let path = [(0, 1), (1, 2), (2, 3)];
        let graph = lr_graph::Orientation::from_edges(&path).unwrap();
        let mut sim = EventSim::new(
            Learn,
            graph.csr().as_ref().clone(),
            vec![0, 1, 2, 3],
            LinkConfig::default(),
            0,
        );
        for (u, v) in path {
            sim.inject(n(u), n(v), u);
            sim.inject(n(v), n(u), v);
        }
        let delay = |delay| LinkConfig {
            delay,
            ..LinkConfig::default()
        };
        sim.set_link_config(n(0), n(1), delay(5));
        sim.set_link_config(n(1), n(2), delay(1 << 63));
        sim.set_link_config(n(2), n(3), delay(1 << 63));
        sim.drain_touched(&mut Vec::new());
        let probe = |src, memo: &mut RouteMemo| {
            descend_heights(&sim, n(src), memo, |&h| Some(h), |&k| k, |u, _| u == n(0))
        };
        let mut memo = RouteMemo::default();
        // 2 first, so that 3's walk stops at a memo hit.
        for src in [2, 3, 1, 3] {
            assert_eq!(
                probe(src, &mut memo),
                probe(src, &mut RouteMemo::default()),
                "from {src}"
            );
        }
        assert_eq!(memo.walked, 2 + 1, "3 and the second 1 are memo hits");
        let answer = |src, memo: &mut RouteMemo| probe(src, memo).map(|p| (p.hops, p.path_delay));
        assert_eq!(answer(2, &mut memo), Ok((2, (1 << 63) + 5)));
        assert_eq!(answer(3, &mut memo), Ok((3, u64::MAX)));
    }

    /// A `Learn` tree toward sink 0 in which every node has learned its
    /// neighbours' heights (their ids): routes 1 → 0, 2 → 1 → 0,
    /// 3 → 2 → 1 → 0, 4 → 1 → 0, 5 → 0 and 6 → 5 → 0.
    fn learned_tree() -> EventSim<Learn> {
        let n = NodeId::new;
        let edges = [(0, 1), (1, 2), (2, 3), (1, 4), (0, 5), (5, 6)];
        let graph = lr_graph::Orientation::from_edges(&edges).unwrap();
        let mut sim = EventSim::new(
            Learn,
            graph.csr().as_ref().clone(),
            (0..7).collect(),
            LinkConfig::default(),
            0,
        );
        for (u, v) in edges {
            sim.inject(n(u), n(v), u);
            sim.inject(n(v), n(u), v);
        }
        sim
    }

    fn probe_tree(sim: &EventSim<Learn>, src: u32, memo: &mut RouteMemo) -> Option<(u64, u64)> {
        let answer = descend_heights(
            sim,
            NodeId::new(src),
            memo,
            |&h| Some(h),
            |&k| k,
            |u, _| u == NodeId::new(0),
        );
        answer.ok().map(|p| (p.hops, p.path_delay))
    }

    /// Probes every node of the tree with `memo`, checking each answer
    /// against a fresh walk.
    fn probe_all(sim: &EventSim<Learn>, memo: &mut RouteMemo) {
        for src in 1..7 {
            let fresh = probe_tree(sim, src, &mut RouteMemo::default());
            assert!(fresh.is_some(), "the tree routes {src}");
            assert_eq!(probe_tree(sim, src, memo), fresh, "from {src}");
        }
    }

    /// The nodes `memo` answers for.
    fn answered(memo: &RouteMemo) -> Vec<usize> {
        (0..memo.entries.len())
            .filter(|&i| memo.get(i).is_some())
            .collect()
    }

    /// Drains the simulator's touched log into `memo`.
    fn retire(sim: &mut EventSim<Learn>, memo: &mut RouteMemo) {
        let mut touched = Vec::new();
        let drain = sim.drain_touched(&mut touched);
        memo.retire(sim.csr(), &touched, drain);
    }

    #[test]
    fn a_touched_node_retires_its_upstream_cone_and_keeps_the_routes_beside_it() {
        let n = NodeId::new;
        let mut sim = learned_tree();
        let mut memo = RouteMemo::default();
        retire(&mut sim, &mut memo);
        probe_all(&sim, &mut memo);
        assert_eq!(answered(&memo), [1, 2, 3, 4, 5, 6]);

        // Node 2 hears 3's height again: nothing changes, but 2 is
        // touched. Its cone is 2 and 3; 1's route does not pass 2.
        sim.inject(n(3), n(2), 3);
        retire(&mut sim, &mut memo);
        assert_eq!(answered(&memo), [1, 4, 5, 6]);
        let walked = memo.walked;
        probe_all(&sim, &mut memo);
        assert_eq!(memo.walked - walked, 2, "2 walks to 1, then 3 to 2");

        // Touching 1 retires its whole upstream cone, two levels deep.
        sim.inject(n(2), n(1), 2);
        retire(&mut sim, &mut memo);
        assert_eq!(answered(&memo), [5, 6]);
        probe_all(&sim, &mut memo);

        // Every route ends at the sink, so touching it retires them all.
        sim.inject(n(5), n(0), 5);
        retire(&mut sim, &mut memo);
        assert_eq!(answered(&memo), [0usize; 0]);
        probe_all(&sim, &mut memo);
        assert_eq!(answered(&memo), [1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn a_missed_drain_or_an_undrained_touch_retires_every_entry() {
        let n = NodeId::new;
        let mut sim = learned_tree();
        let mut memo = RouteMemo::default();
        retire(&mut sim, &mut memo);
        probe_all(&sim, &mut memo);

        // Leaf 6's cone is 6 alone, but a read with 6 still undrained
        // cannot know that: it retires everything before it walks.
        sim.inject(n(5), n(6), 5);
        assert_eq!(probe_tree(&sim, 3, &mut memo), Some((3, 3)));
        assert_eq!(answered(&memo), [1, 2, 3], "the walk's own answers");
        // The drain it read ahead of is then an ordinary one.
        retire(&mut sim, &mut memo);
        assert_eq!(answered(&memo), [1, 2, 3]);
        probe_all(&sim, &mut memo);

        // A memo that misses a drain cannot tell what it held: the next
        // drain it sees retires everything.
        sim.inject(n(5), n(6), 5);
        sim.drain_touched(&mut Vec::new());
        sim.inject(n(5), n(6), 5);
        retire(&mut sim, &mut memo);
        assert_eq!(answered(&memo), [0usize; 0]);
        probe_all(&sim, &mut memo);
        assert_eq!(answered(&memo), [1, 2, 3, 4, 5, 6]);
    }

    /// BFS distances from the destination over the links outside
    /// `failed`, by dense index: the from-scratch reference.
    fn fresh_bfs(inst: &ReversalInstance, failed: &BTreeSet<(NodeId, NodeId)>) -> Vec<Option<u64>> {
        let csr = inst.csr();
        let dest = csr.index_of(inst.dest).unwrap();
        let mut dist = vec![None; csr.node_count()];
        dist[dest] = Some(0);
        let mut queue = VecDeque::from([dest]);
        while let Some(u) = queue.pop_front() {
            for &v in csr.neighbor_indices(u) {
                let v = v as usize;
                let link = LinkLedger::canon(csr.node(u), csr.node(v));
                if dist[v].is_none() && !failed.contains(&link) {
                    dist[v] = dist[u].map(|d| d + 1);
                    queue.push_back(v);
                }
            }
        }
        dist
    }

    /// Drives seeded churn through a ledger over `topology` (a reversal
    /// driver receives it) and repairs after every change: the distances
    /// must equal a fresh BFS each time, and `repair` must count the ones
    /// that moved. Starts with a cut that strands the nodes whose id is at
    /// least `far` and the heal that reconnects them, then draws fails,
    /// heals, crashes, restores, partitions and random churn, several
    /// between some repairs. Returns the distances repaired in all.
    fn repairs_match_fresh_bfs(topology: &str, far: u32, seed: u64) -> u64 {
        let spec = ScenarioSpec::from_json(&format!(
            r#"{{"name": "ledger", "protocol": "reversal", "topology": {topology}}}"#
        ))
        .unwrap();
        let inst = build_instance(&spec.topology, seed).unwrap();
        let mut driver = make_driver(&spec, &inst, LinkConfig::default(), seed);
        start_driver(&spec, driver.as_mut()).unwrap();
        let mut ledger = LinkLedger::new(&inst);
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut want = fresh_bfs(&inst, &BTreeSet::new());
        let n = inst.node_count();
        let mut total = 0;
        let mut check = |ledger: &mut LinkLedger, what: &str| {
            let repaired = ledger.repair();
            let fresh = fresh_bfs(&inst, &ledger.failed);
            let got: Vec<Option<u64>> = (0..n).map(|i| ledger.distance(i)).collect();
            assert_eq!(got, fresh, "{topology}, seed {seed}: after {what}");
            let moved = (0..n).filter(|&i| fresh[i] != want[i]).count() as u64;
            assert_eq!(repaired, moved, "{topology}, seed {seed}: after {what}");
            want = fresh;
            total += repaired;
        };
        check(&mut ledger, "nothing");

        let side: Vec<u32> = (far..n as u32).collect();
        let cut: Vec<(u32, u32)> = ledger
            .live_edges()
            .iter()
            .map(|&(u, v)| (u.raw(), v.raw()))
            .filter(|&(u, v)| (u >= far) != (v >= far))
            .collect();
        let driver = driver.as_mut();
        let mut churn = |kind: ChurnKind, driver: &mut dyn Driver, ledger: &mut LinkLedger| {
            apply_churn(&kind, driver, ledger, &mut rng).unwrap();
        };
        churn(ChurnKind::Partition(side), driver, &mut ledger);
        check(&mut ledger, "the cut");
        assert!(
            (far as usize..n).all(|i| ledger.distance(i).is_none()),
            "the cut strands the far nodes"
        );
        churn(ChurnKind::Heal(cut), driver, &mut ledger);
        check(&mut ledger, "the heal");
        assert!((0..n).all(|i| ledger.distance(i).is_some()));

        // A second stream picks the changes, so the churn draws stay the
        // engine's own. Past one failed link in ten, only heals and
        // restores are drawn, so the destination keeps most of the graph.
        let mut pick = SmallRng::seed_from_u64(!seed);
        let budget = inst.csr().edge_count() / 10;
        for step in 0..150 {
            for _ in 0..pick.gen_range(1..4u32) {
                let node = NodeId::new(pick.gen_range(0..n as u32));
                let kinds = if ledger.failed.len() > budget {
                    0..2
                } else {
                    0..6u32
                };
                match pick.gen_range(kinds) {
                    0 => churn(ChurnKind::Random { fail: 0, heal: 1 }, driver, &mut ledger),
                    1 => ledger.restore(driver, node).unwrap(),
                    2 => churn(ChurnKind::Random { fail: 1, heal: 0 }, driver, &mut ledger),
                    3 => ledger.crash(driver, node).unwrap(),
                    4 => {
                        let side = (0..n as u32).filter(|_| pick.gen_range(0..16u32) == 0);
                        churn(ChurnKind::Partition(side.collect()), driver, &mut ledger);
                    }
                    _ => churn(ChurnKind::Random { fail: 2, heal: 1 }, driver, &mut ledger),
                }
            }
            check(&mut ledger, &format!("step {step}"));
        }
        total
    }

    #[test]
    fn repaired_distances_equal_a_fresh_bfs_through_churn() {
        for seed in 1..=3 {
            // Sparse random graphs: most nodes have one shortest-path
            // parent, so a failure orphans whole subtrees.
            let random = r#"{"family": "random", "n": 80, "extra_edges": 20}"#;
            let grid = r#"{"family": "grid", "rows": 7, "cols": 9}"#;
            for (topology, far) in [(random, 60), (grid, 45)] {
                let repaired = repairs_match_fresh_bfs(topology, far, seed);
                assert!(repaired > 300, "{topology}: {repaired} repaired");
            }
        }
    }

    /// Runs a `protocol` spec on the inline `edges` with `max_events: 1`:
    /// `run_scenario` and `run_serve` must both refuse its start by name.
    fn start_exhausts_a_budget_of_one(protocol: &str, edges: &str) {
        let spec = ScenarioSpec::from_json(&format!(
            r#"{{"name": "tight", "protocol": "{protocol}", "max_events": 1,
                 "topology": {{"family": "inline", "edges": {edges}}}}}"#
        ))
        .unwrap();
        let want =
            "initial convergence: event budget exhausted after 1 deliveries (max_events = 1)";
        assert_eq!(run_scenario(&spec, 0, 0, false).unwrap_err().0, want);
        let options = crate::serve::ServeOptions::default();
        let served = crate::serve::run_serve(&spec, &options, &[]).unwrap_err();
        assert_eq!(served.0, want);
    }

    #[test]
    fn election_start_honors_max_events() {
        start_exhausts_a_budget_of_one("election", "[[0, 1], [1, 2], [2, 3]]");
    }

    #[test]
    fn tora_start_honors_max_events() {
        // The destination, node 0, announces its ZERO height to its three
        // neighbors: three deliveries against a budget of one.
        start_exhausts_a_budget_of_one("tora", "[[0, 1], [0, 2], [0, 3]]");
    }

    #[test]
    fn drivers_refuse_what_their_protocol_does_not_take() {
        let driver = |protocol: &str| {
            let spec = ScenarioSpec::from_json(&format!(
                r#"{{"name": "refusals", "protocol": "{protocol}",
                     "topology": {{"family": "inline", "edges": [[0, 1], [1, 2]]}}}}"#
            ))
            .unwrap();
            let inst = build_instance(&spec.topology, 0).unwrap();
            let mut driver = make_driver(&spec, &inst, LinkConfig::default(), 0);
            start_driver(&spec, driver.as_mut()).unwrap();
            (driver, LinkLedger::new(&inst))
        };
        let (u, v) = (NodeId::new(0), NodeId::new(1));
        let churn = "this protocol takes no link churn";
        let traffic = "this protocol takes no traffic";
        let crash = "crash_leader is only supported by election scenarios";
        let (mut mutex, ledger) = driver("mutex");
        assert_eq!(mutex.fail_link(u, v).unwrap_err().0, churn);
        assert_eq!(mutex.heal_link(u, v).unwrap_err().0, churn);
        assert_eq!(mutex.crash_leader().unwrap_err().0, crash);
        assert!(mutex.inject_wave(&[u], &ledger).is_ok());
        let (mut election, ledger) = driver("election");
        assert_eq!(election.fail_link(u, v).unwrap_err().0, churn);
        assert_eq!(election.inject_wave(&[u], &ledger).unwrap_err().0, traffic);
        assert!(election.crash_leader().is_ok());
        let (mut reversal, ledger) = driver("reversal");
        assert_eq!(reversal.inject_wave(&[u], &ledger).unwrap_err().0, traffic);
        assert_eq!(reversal.crash_leader().unwrap_err().0, crash);
        assert!(reversal.fail_link(u, v).is_ok());
    }

    #[test]
    fn a_probe_stops_at_its_first_revisit() {
        let graph = lr_graph::Orientation::from_edges(&[(0, 1)]).unwrap();
        let mut sim = EventSim::new(
            Stale,
            graph.csr().as_ref().clone(),
            vec![5, 5],
            LinkConfig::default(),
            0,
        );
        sim.start();
        assert!(sim.run_to_quiescence(10));
        // Each hop reads the one slot of the current node.
        let reads = Cell::new(0u32);
        let probe = descend_heights(
            &sim,
            NodeId::new(0),
            &mut RouteMemo::default(),
            |&own| Some(own),
            |&known| {
                reads.set(reads.get() + 1);
                known
            },
            |_, _| false,
        );
        assert_eq!(
            probe,
            Err(NoRoute::Revisit),
            "0 → 1 → 0 … never reaches a sink"
        );
        // The hop limit alone would allow 16 hops.
        assert_eq!(probe_hop_limit(2), 16);
        assert!(reads.get() <= 4, "walked {} hops", reads.get());
    }
}
