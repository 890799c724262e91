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

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use lr_core::alg::TripleHeight;
use lr_graph::{CsrGraph, NodeId, ReversalInstance};
use lr_net::election::ElectionHarness;
use lr_net::mutex::{MutexHarness, MutexMsg};
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

/// Cumulative metrics snapshot taken at a quiescent point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Metrics {
    injected: u64,
    delivered: u64,
    dropped: u64,
    stranded: u64,
    delivery_rate: f64,
    mean_hops: f64,
    stretch: f64,
    revisits: u64,
    messages: u64,
    total_reversals: u64,
    max_node_reversals: u64,
    mean_node_reversals: f64,
    acyclic: bool,
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

/// One node's memoized probe answer: the route length and summed delay
/// from the node to its sink, current while `stamp` is the memo's stamp.
#[derive(Debug, Clone, Copy, Default)]
struct MemoEntry {
    stamp: u32,
    hops: u32,
    path_delay: u64,
}

const _: () = assert!(std::mem::size_of::<MemoEntry>() == 16);

/// A route cache for [`Driver::route_probe`]: each dense node's answer
/// under one mutation epoch of the driver's simulator
/// ([`EventSim::epoch`]). Between mutations a node's downhill route is a
/// fixed function of the simulator state, so an answer stays exact until
/// the epoch moves.
///
/// A new epoch retires every entry at once by moving the memo's stamp on,
/// without touching the entries. When the `u32` stamp would wrap, every
/// entry is cleared first, so a stale entry can never carry the current
/// stamp. A memo belongs to one driver; keep one per probing thread.
#[derive(Debug, Default)]
pub(crate) struct RouteMemo {
    entries: Vec<MemoEntry>,
    /// The epoch the current stamp stands for (`None` before first use).
    epoch: Option<u64>,
    /// The stamp of current entries; 0 is never current.
    stamp: u32,
    /// The walked prefix of the probe in progress: each node, by dense
    /// index, and the delay of the hop out of it.
    path: Vec<(u32, u64)>,
    /// Hops walked over the memo's life; answered suffixes are not
    /// walked.
    pub(crate) walked: u64,
}

impl RouteMemo {
    /// Brings the memo to `epoch` of a simulator over `n` nodes.
    fn sync(&mut self, epoch: u64, n: usize) {
        if self.entries.len() != n {
            self.entries = vec![MemoEntry::default(); n];
            self.epoch = None;
        }
        if self.epoch != Some(epoch) {
            self.epoch = Some(epoch);
            self.stamp = self.stamp.checked_add(1).unwrap_or_else(|| {
                self.entries.fill(MemoEntry::default());
                1
            });
        }
    }

    /// The current answer `(hops, path_delay)` from node `i`, if known.
    fn get(&self, i: usize) -> Option<(u64, u64)> {
        let e = self.entries[i];
        (e.stamp == self.stamp).then_some((u64::from(e.hops), e.path_delay))
    }
}

/// What every protocol adapter exposes to the shared timeline executor
/// (and, since the resident serve loop, to [`crate::serve`]).
pub(crate) trait Driver: Sync {
    fn now(&self) -> u64;
    /// Delivers live events due at or before `deadline`, at most
    /// `max_events` of them; returns `(delivered, capped)` where
    /// `capped` means the budget ran out with work still due.
    fn run_until_capped(&mut self, deadline: u64, max_events: u64) -> (u64, bool);
    /// Advances the virtual clock to `t` when the network is quiescent
    /// before then (actions honor their nominal `at` times).
    fn advance_to(&mut self, t: u64);
    /// Whether no events remain in flight.
    fn is_quiescent(&mut self) -> bool;
    fn fail_link(&mut self, u: NodeId, v: NodeId);
    fn heal_link(&mut self, u: NodeId, v: NodeId);
    fn crash_leader(&mut self) -> Result<(), String> {
        Err("crash_leader is only supported by election scenarios".into())
    }
    /// Injects one unit of traffic (packet / route query / CS request)
    /// at each source.
    fn inject_wave(&mut self, sources: &[NodeId]);
    /// Answers one route query from `src` against the *current* node
    /// states, without sending a message or moving the clock: walks
    /// greedily downhill (holder pointers for mutex) until the
    /// protocol's sink is reached. An error says why the query is
    /// unanswerable right now, typically mid-convergence. `memo` caches
    /// answers across calls and never changes one (the mutex walk
    /// ignores it).
    fn route_probe(&self, src: NodeId, memo: &mut RouteMemo) -> Result<RouteProbe, NoRoute>;
    /// BFS distances from `from` over the simulator's live links, by
    /// dense node index (`None`: unreachable).
    fn live_distances(&self, from: NodeId) -> Vec<Option<u64>>;
    fn metrics(&self, live: &[(NodeId, NodeId)]) -> Metrics;
    fn sim_stats(&self) -> SimStats;
}

/// Greedy height-descent walk shared by the routing / reversal /
/// election / TORA probes: from `src`, repeatedly take the
/// [`downhill`] hop over the current node's run of slots, until
/// `is_sink` accepts the current node. `own(node)` reads a node's height
/// (`None`, a NULL TORA height, means unrouted: no answer) and
/// `known(slot)` the height a slot holds for its neighbor.
///
/// The walk reads frozen state and picks each hop from the current node
/// alone, so re-entering a node means it loops forever: Brent's cycle
/// check stops it there, without per-probe memory. The hop bound mirrors
/// the routing protocol's packet hop limit: the probe is answered iff
/// the route reaches the sink within it.
///
/// The walk also stops at a node whose answer `memo` holds for the
/// simulator's current epoch and adds that answer's hops and delay to
/// its own. An answered walk then stores the answer of every node it
/// walked through; a walk that ends in a revisit, a dead end or a NULL
/// height stores nothing. Either way the result is the plain walk's.
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
    memo.sync(sim.epoch(), csr.node_count());
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
        let slot = run.start + downhill(own, heights).ok_or(NoRoute::DeadEnd)?;
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
    let stamp = memo.stamp;
    for &(node, delay) in memo.path.iter().rev() {
        hops += 1;
        path_delay = delay.saturating_add(path_delay);
        memo.entries[node as usize] = MemoEntry {
            stamp,
            // At most the hop limit, itself a `u32`.
            hops: hops as u32,
            path_delay,
        };
    }
    Ok(RouteProbe { hops, path_delay })
}

/// BFS distances from `from` over the *live* links of the simulator, by
/// dense node index.
fn live_distances<P: Protocol>(sim: &EventSim<P>, from: NodeId) -> Vec<Option<u64>> {
    let csr = sim.csr();
    let mut dist = vec![None; csr.node_count()];
    let from = csr.index_of(from).expect("BFS root is a node");
    dist[from] = Some(0u64);
    let mut queue = VecDeque::from([from]);
    while let Some(u) = queue.pop_front() {
        let d = dist[u].map(|d| d + 1);
        for slot in csr.slots(u) {
            let v = csr.target(slot);
            if sim.is_live(slot) && dist[v].is_none() {
                dist[v] = d;
                queue.push_back(v);
            }
        }
    }
    dist
}

/// Checks that the orientation implied by `heights` over the live
/// graph is acyclic — the paper's theorem, observed under churn.
fn heights_acyclic(live: &[(NodeId, NodeId)], heights: &BTreeMap<NodeId, TripleHeight>) -> bool {
    orientation_from_heights(live.iter().copied(), heights).is_acyclic()
}

fn work_stats(per_node: impl Iterator<Item = u64>) -> (u64, u64, f64) {
    let counts: Vec<u64> = per_node.collect();
    let total: u64 = counts.iter().sum();
    let max = counts.iter().copied().max().unwrap_or(0);
    let mean = if counts.is_empty() {
        0.0
    } else {
        total as f64 / counts.len() as f64
    };
    (total, max, mean)
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

impl RoutingDriver {
    fn new(
        inst: &ReversalInstance,
        link: LinkConfig,
        overrides: &[(NodeId, NodeId, LinkConfig)],
        seed: u64,
    ) -> Self {
        let mut harness = RoutingHarness::new(inst, link, seed);
        let sim = harness.sim_mut();
        for &(u, v, cfg) in overrides {
            sim.set_link_config(u, v, cfg);
        }
        sim.start();
        RoutingDriver {
            harness,
            shortest: BTreeMap::new(),
        }
    }
}

impl Driver for RoutingDriver {
    fn now(&self) -> u64 {
        self.harness.sim().now()
    }

    fn run_until_capped(&mut self, deadline: u64, max_events: u64) -> (u64, bool) {
        self.harness
            .sim_mut()
            .run_until_capped(deadline, max_events)
    }

    fn advance_to(&mut self, t: u64) {
        self.harness.sim_mut().advance_to(t);
    }

    fn is_quiescent(&mut self) -> bool {
        self.harness.sim_mut().run_to_quiescence(0)
    }

    fn fail_link(&mut self, u: NodeId, v: NodeId) {
        self.harness.fail_link(u, v);
    }

    fn heal_link(&mut self, u: NodeId, v: NodeId) {
        let sim = self.harness.sim_mut();
        sim.heal_link(u, v);
        // Re-announce across the healed link so it becomes usable
        // (heights are monotone, so re-announcing is always safe).
        let hu = sim.node(u).rev.height;
        let hv = sim.node(v).rev.height;
        sim.inject(u, v, RouteMsg::Height(hu));
        sim.inject(v, u, RouteMsg::Height(hv));
    }

    fn inject_wave(&mut self, sources: &[NodeId]) {
        // One BFS from the destination prices every source of the wave.
        let dist = self.live_distances(self.harness.dest());
        for &src in sources {
            let at = self.harness.sim().csr().index_of(src);
            let id = self.harness.send_packet(src);
            if let Some(d) = dist[at.expect("source is a node")] {
                self.shortest.insert(id, d);
            }
        }
    }

    fn route_probe(&self, src: NodeId, memo: &mut RouteMemo) -> Result<RouteProbe, NoRoute> {
        let dest = self.harness.dest();
        descend_heights(
            self.harness.sim(),
            src,
            memo,
            |n| Some(n.rev.height),
            |&known| known,
            |u, _| u == dest,
        )
    }

    fn live_distances(&self, from: NodeId) -> Vec<Option<u64>> {
        live_distances(self.harness.sim(), from)
    }

    fn metrics(&self, live: &[(NodeId, NodeId)]) -> Metrics {
        let report = self.harness.report();
        let sim = self.harness.sim();
        // Stretch: hops over the live shortest path at injection time,
        // averaged over delivered packets whose origin was connected.
        let (mut stretch_sum, mut stretch_count) = (0.0, 0u64);
        for p in &sim.node(self.harness.dest()).delivered {
            if let Some(&shortest) = self.shortest.get(&p.id) {
                if shortest > 0 {
                    stretch_sum += f64::from(p.hops) / shortest as f64;
                    stretch_count += 1;
                }
            }
        }
        let (total, max, mean) = work_stats(sim.nodes().map(|(_, n)| n.rev.reversals));
        let heights: BTreeMap<NodeId, TripleHeight> =
            sim.nodes().map(|(u, n)| (u, n.rev.height)).collect();
        Metrics {
            injected: report.injected,
            delivered: report.delivered,
            dropped: report.dropped,
            stranded: report.stranded,
            delivery_rate: rate(report.delivered, report.injected),
            mean_hops: report.mean_hops,
            stretch: if stretch_count == 0 {
                0.0
            } else {
                stretch_sum / stretch_count as f64
            },
            revisits: report.revisits,
            messages: report.messages,
            total_reversals: total,
            max_node_reversals: max,
            mean_node_reversals: mean,
            acyclic: heights_acyclic(live, &heights),
        }
    }

    fn sim_stats(&self) -> SimStats {
        self.harness.sim().stats()
    }
}

// ───────────────────────── reversal ─────────────────────────

/// Convergence-only adapter: the distributed Partial Reversal protocol
/// under churn, no data traffic.
struct ReversalDriver {
    sim: EventSim<DistributedPr>,
}

impl ReversalDriver {
    fn new(
        inst: &ReversalInstance,
        link: LinkConfig,
        overrides: &[(NodeId, NodeId, LinkConfig)],
        seed: u64,
    ) -> Self {
        let mut sim = EventSim::new(
            DistributedPr,
            inst.csr().clone(),
            initial_nodes(inst),
            link,
            seed,
        );
        for &(u, v, cfg) in overrides {
            sim.set_link_config(u, v, cfg);
        }
        sim.start();
        ReversalDriver { sim }
    }
}

impl Driver for ReversalDriver {
    fn now(&self) -> u64 {
        self.sim.now()
    }

    fn run_until_capped(&mut self, deadline: u64, max_events: u64) -> (u64, bool) {
        self.sim.run_until_capped(deadline, max_events)
    }

    fn advance_to(&mut self, t: u64) {
        self.sim.advance_to(t);
    }

    fn is_quiescent(&mut self) -> bool {
        self.sim.run_to_quiescence(0)
    }

    fn fail_link(&mut self, u: NodeId, v: NodeId) {
        self.sim.fail_link(u, v);
        self.sim.inject(v, u, ReversalMsg::LinkDown(v));
        self.sim.inject(u, v, ReversalMsg::LinkDown(u));
    }

    fn heal_link(&mut self, u: NodeId, v: NodeId) {
        self.sim.heal_link(u, v);
        let hu = self.sim.node(u).height;
        let hv = self.sim.node(v).height;
        self.sim.inject(u, v, ReversalMsg::Height(hu));
        self.sim.inject(v, u, ReversalMsg::Height(hv));
    }

    fn inject_wave(&mut self, _sources: &[NodeId]) {
        unreachable!("reversal scenarios carry no traffic (rejected at parse time)")
    }

    fn route_probe(&self, src: NodeId, memo: &mut RouteMemo) -> Result<RouteProbe, NoRoute> {
        descend_heights(
            &self.sim,
            src,
            memo,
            |n| Some(n.height),
            |&known| known,
            |_, n| n.is_dest,
        )
    }

    fn live_distances(&self, from: NodeId) -> Vec<Option<u64>> {
        live_distances(&self.sim, from)
    }

    fn metrics(&self, live: &[(NodeId, NodeId)]) -> Metrics {
        let (total, max, mean) = work_stats(self.sim.nodes().map(|(_, n)| n.reversals));
        let heights: BTreeMap<NodeId, TripleHeight> =
            self.sim.nodes().map(|(u, n)| (u, n.height)).collect();
        Metrics {
            injected: 0,
            delivered: 0,
            dropped: 0,
            stranded: 0,
            delivery_rate: 1.0,
            mean_hops: 0.0,
            stretch: 0.0,
            revisits: 0,
            messages: self.sim.stats().sent,
            total_reversals: total,
            max_node_reversals: max,
            mean_node_reversals: mean,
            acyclic: heights_acyclic(live, &heights),
        }
    }

    fn sim_stats(&self) -> SimStats {
        self.sim.stats()
    }
}

// ───────────────────────── tora ─────────────────────────

/// TORA adapter: traffic waves are route queries (QRY floods); a query
/// counts as delivered while its source holds a non-NULL height at a
/// measurement point (partition detection erases heights, un-counting
/// the cut-off queries).
///
/// Churn and queries go through `sim_mut()` directly — not the
/// harness's `fail_link`/`create_route`, which assert-quiesce
/// internally with their own budget — so the engine's settle window
/// and `max_events` contract hold for TORA like every other protocol.
struct ToraDriver {
    harness: ToraHarness,
    queried: BTreeSet<NodeId>,
    injected: u64,
}

impl Driver for ToraDriver {
    fn now(&self) -> u64 {
        self.harness.sim().now()
    }

    fn run_until_capped(&mut self, deadline: u64, max_events: u64) -> (u64, bool) {
        self.harness
            .sim_mut()
            .run_until_capped(deadline, max_events)
    }

    fn advance_to(&mut self, t: u64) {
        self.harness.sim_mut().advance_to(t);
    }

    fn is_quiescent(&mut self) -> bool {
        self.harness.sim_mut().run_to_quiescence(0)
    }

    fn fail_link(&mut self, u: NodeId, v: NodeId) {
        // Mirrors ToraHarness::fail_link minus its internal quiesce.
        let sim = self.harness.sim_mut();
        sim.fail_link(u, v);
        sim.inject(v, u, ToraMsg::LinkDown(v));
        sim.inject(u, v, ToraMsg::LinkDown(u));
    }

    fn heal_link(&mut self, u: NodeId, v: NodeId) {
        // Mirrors ToraHarness::heal_link minus its internal quiesce:
        // re-announce both heights across the restored link.
        let sim = self.harness.sim_mut();
        sim.heal_link(u, v);
        let hu = sim.node(u).height;
        let hv = sim.node(v).height;
        sim.inject(v, u, ToraMsg::Upd(hv));
        sim.inject(u, v, ToraMsg::Upd(hu));
    }

    fn inject_wave(&mut self, sources: &[NodeId]) {
        // `injected` counts *distinct* queried sources: a repeated
        // NeedRoute for an already-queried node is TORA-idempotent, and
        // counting it would cap the delivery rate below 1 for
        // multi-wave traffic (delivered counts sources, not waves).
        for &src in sources {
            if self.queried.insert(src) {
                self.injected += 1;
            }
            self.harness.sim_mut().inject(src, src, ToraMsg::NeedRoute);
        }
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

    fn live_distances(&self, from: NodeId) -> Vec<Option<u64>> {
        live_distances(self.harness.sim(), from)
    }

    fn metrics(&self, _live: &[(NodeId, NodeId)]) -> Metrics {
        let acyclic = self.harness.routed_orientation().is_acyclic();
        let (total, max, mean) = work_stats(
            self.harness
                .sim()
                .nodes()
                .map(|(_, n)| n.reference_levels_generated),
        );
        let delivered = self
            .queried
            .iter()
            .filter(|&&u| self.harness.height(u).is_some())
            .count() as u64;
        Metrics {
            injected: self.injected,
            delivered,
            dropped: 0,
            stranded: 0,
            delivery_rate: rate(delivered, self.injected),
            mean_hops: 0.0,
            stretch: 0.0,
            revisits: 0,
            messages: self.harness.sim().stats().sent,
            total_reversals: total,
            max_node_reversals: max,
            mean_node_reversals: mean,
            acyclic,
        }
    }

    fn sim_stats(&self) -> SimStats {
        self.harness.sim().stats()
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
    fn now(&self) -> u64 {
        self.harness.sim().now()
    }

    fn run_until_capped(&mut self, deadline: u64, max_events: u64) -> (u64, bool) {
        self.harness
            .sim_mut()
            .run_until_capped(deadline, max_events)
    }

    fn advance_to(&mut self, t: u64) {
        self.harness.sim_mut().advance_to(t);
    }

    fn is_quiescent(&mut self) -> bool {
        self.harness.sim_mut().run_to_quiescence(0)
    }

    fn fail_link(&mut self, _u: NodeId, _v: NodeId) {
        unreachable!("mutex scenarios reject churn at parse time")
    }

    fn heal_link(&mut self, _u: NodeId, _v: NodeId) {
        unreachable!("mutex scenarios reject churn at parse time")
    }

    fn inject_wave(&mut self, sources: &[NodeId]) {
        for &src in sources {
            self.injected += 1;
            self.harness.sim_mut().inject(src, src, MutexMsg::Local);
        }
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

    fn live_distances(&self, from: NodeId) -> Vec<Option<u64>> {
        live_distances(self.harness.sim(), from)
    }

    fn metrics(&self, _live: &[(NodeId, NodeId)]) -> Metrics {
        let sim = self.harness.sim();
        let delivered: u64 = sim.nodes().map(|(_, n)| n.cs_entries).sum();
        // Structural invariant at a quiescent point: exactly one token
        // holder, and holder pointers walk to it without cycling.
        let holders: Vec<NodeId> = sim
            .nodes()
            .filter(|(u, n)| n.holder == *u)
            .map(|(u, _)| u)
            .collect();
        let acyclic = holders.len() == 1 && {
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
        let stranded: u64 = sim.nodes().map(|(_, n)| n.queue.len() as u64).sum();
        Metrics {
            injected: self.injected,
            delivered,
            dropped: 0,
            stranded,
            delivery_rate: rate(delivered, self.injected),
            mean_hops: 0.0,
            stretch: 0.0,
            revisits: 0,
            messages: sim.stats().sent,
            total_reversals: 0,
            max_node_reversals: 0,
            mean_node_reversals: 0.0,
            acyclic,
        }
    }

    fn sim_stats(&self) -> SimStats {
        self.harness.sim().stats()
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
    fn now(&self) -> u64 {
        self.harness.sim().now()
    }

    fn run_until_capped(&mut self, deadline: u64, max_events: u64) -> (u64, bool) {
        self.harness
            .sim_mut()
            .run_until_capped(deadline, max_events)
    }

    fn advance_to(&mut self, t: u64) {
        self.harness.sim_mut().advance_to(t);
    }

    fn is_quiescent(&mut self) -> bool {
        self.harness.sim_mut().run_to_quiescence(0)
    }

    fn fail_link(&mut self, _u: NodeId, _v: NodeId) {
        unreachable!("election scenarios accept only crash_leader churn (parse-time rule)")
    }

    fn heal_link(&mut self, _u: NodeId, _v: NodeId) {
        unreachable!("election scenarios accept only crash_leader churn (parse-time rule)")
    }

    fn crash_leader(&mut self) -> Result<(), String> {
        if self.crashed {
            return Err("the leader is already crashed".into());
        }
        self.crashed = true;
        self.harness.crash_leader();
        Ok(())
    }

    fn inject_wave(&mut self, _sources: &[NodeId]) {
        unreachable!("election scenarios carry no traffic (rejected at parse time)")
    }

    fn route_probe(&self, src: NodeId, memo: &mut RouteMemo) -> Result<RouteProbe, NoRoute> {
        // The elected leader is the orientation's sink: a node that
        // believes itself leader. Heights descend toward it exactly as
        // in the reversal protocol.
        descend_heights(
            self.harness.sim(),
            src,
            memo,
            |n| Some(n.height),
            |&known| known,
            |u, n| n.leader == u,
        )
    }

    fn live_distances(&self, from: NodeId) -> Vec<Option<u64>> {
        live_distances(self.harness.sim(), from)
    }

    fn metrics(&self, live: &[(NodeId, NodeId)]) -> Metrics {
        let sim = self.harness.sim();
        let (total, max, mean) = work_stats(sim.nodes().map(|(_, n)| n.reversals));
        let heights: BTreeMap<NodeId, TripleHeight> =
            sim.nodes().map(|(u, n)| (u, n.height)).collect();
        Metrics {
            injected: 0,
            delivered: 0,
            dropped: 0,
            stranded: 0,
            delivery_rate: 1.0,
            mean_hops: 0.0,
            stretch: 0.0,
            revisits: 0,
            messages: sim.stats().sent,
            total_reversals: total,
            max_node_reversals: max,
            mean_node_reversals: mean,
            acyclic: heights_acyclic(live, &heights),
        }
    }

    fn sim_stats(&self) -> SimStats {
        self.harness.sim().stats()
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
            .filter(|&u| u != inst.dest || spec.protocol == ProtocolKind::Mutex)
            .collect(),
        Some(Sources::List(list)) => list.iter().map(|&u| NodeId::new(u)).collect(),
    }
}

/// Builds the protocol adapter with heterogeneous links applied.
///
/// For routing/reversal the overrides are set *before* the protocol
/// starts, so even the initial convergence sees them. The
/// tora/mutex/election harness constructors run their own start (and
/// initial convergence) internally; their overrides take effect from
/// the first scenario action onward.
pub(crate) fn make_driver(
    spec: &ScenarioSpec,
    inst: &ReversalInstance,
    link: LinkConfig,
    run_seed: u64,
) -> Box<dyn Driver> {
    let overrides: Vec<(NodeId, NodeId, LinkConfig)> = spec
        .links
        .overrides
        .iter()
        .map(|o| {
            (
                NodeId::new(o.u),
                NodeId::new(o.v),
                spec_link_config(&o.link),
            )
        })
        .collect();
    match spec.protocol {
        ProtocolKind::Routing => Box::new(RoutingDriver::new(inst, link, &overrides, run_seed)),
        ProtocolKind::Reversal => Box::new(ReversalDriver::new(inst, link, &overrides, run_seed)),
        ProtocolKind::Tora => {
            let mut harness = ToraHarness::new(inst.csr().clone(), inst.dest, link, run_seed);
            for &(u, v, cfg) in &overrides {
                harness.sim_mut().set_link_config(u, v, cfg);
            }
            Box::new(ToraDriver {
                harness,
                queried: BTreeSet::new(),
                injected: 0,
            })
        }
        ProtocolKind::Mutex => {
            let mut harness = MutexHarness::new(inst.csr().clone(), inst.dest, link, run_seed);
            for &(u, v, cfg) in &overrides {
                harness.sim_mut().set_link_config(u, v, cfg);
            }
            Box::new(MutexDriver {
                harness,
                injected: 0,
            })
        }
        ProtocolKind::Election => {
            let mut harness = ElectionHarness::converged(inst, link, run_seed);
            for &(u, v, cfg) in &overrides {
                harness.sim_mut().set_link_config(u, v, cfg);
            }
            Box::new(ElectionDriver {
                harness,
                crashed: false,
            })
        }
    }
}

pub(crate) fn spec_link_config(l: &LinkSpec) -> LinkConfig {
    LinkConfig {
        delay: l.delay,
        jitter: l.jitter,
        loss: l.loss,
    }
}

/// Shared churn bookkeeping: the engine mirrors the failed-link set so
/// partitions cut only live links and random churn samples correctly.
pub(crate) struct LinkLedger {
    pub(crate) edges: Vec<(NodeId, NodeId)>,
    pub(crate) failed: BTreeSet<(NodeId, NodeId)>,
}

impl LinkLedger {
    /// Every edge of `graph` once, `(u, v)` with `u < v`, in
    /// lexicographic order — the order random churn samples from.
    pub(crate) fn new(graph: &CsrGraph) -> Self {
        let edges = (0..graph.node_count())
            .flat_map(|i| {
                graph
                    .neighbor_indices(i)
                    .iter()
                    .filter(move |&&j| j as usize > i)
                    .map(move |&j| (graph.node(i), graph.node(j as usize)))
            })
            .collect();
        LinkLedger {
            edges,
            failed: BTreeSet::new(),
        }
    }

    pub(crate) fn canon(u: NodeId, v: NodeId) -> (NodeId, NodeId) {
        if u < v {
            (u, v)
        } else {
            (v, u)
        }
    }

    pub(crate) fn fail(&mut self, driver: &mut dyn Driver, u: NodeId, v: NodeId) {
        if self.failed.insert(Self::canon(u, v)) {
            driver.fail_link(u, v);
        }
    }

    pub(crate) fn heal(&mut self, driver: &mut dyn Driver, u: NodeId, v: NodeId) {
        if self.failed.remove(&Self::canon(u, v)) {
            driver.heal_link(u, v);
        }
    }

    pub(crate) fn live_edges(&self) -> Vec<(NodeId, NodeId)> {
        self.edges
            .iter()
            .copied()
            .filter(|e| !self.failed.contains(e))
            .collect()
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
    let inst = build_instance(&spec.topology, run_seed)?;
    spec.validate_against(&inst, seed, trial)
        .map_err(|e| ScenarioError(format!("invalid scenario: {e}")))?;
    let link = spec_link_config(&spec.links.default);
    let mut driver = make_driver(spec, &inst, link, run_seed);
    let mut churn_rng = SmallRng::seed_from_u64(derive_churn_seed(run_seed));
    let mut ledger = LinkLedger::new(inst.csr());
    let sources = resolve_sources(spec, &inst);
    let mut records: Vec<ScenarioRecord> = Vec::new();

    let base_record = |row: &str, event_index: usize, event: &str, at: u64| ScenarioRecord {
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
        convergence_ticks: 0,
        quiesced: true,
        injected: 0,
        delivered: 0,
        dropped: 0,
        stranded: 0,
        delivery_rate: 1.0,
        mean_hops: 0.0,
        stretch: 0.0,
        revisits: 0,
        messages: 0,
        total_reversals: 0,
        max_node_reversals: 0,
        mean_node_reversals: 0.0,
        acyclic: true,
        smoke,
    };
    let fill = |rec: &mut ScenarioRecord, m: &Metrics| {
        rec.injected = m.injected;
        rec.delivered = m.delivered;
        rec.dropped = m.dropped;
        rec.stranded = m.stranded;
        rec.delivery_rate = m.delivery_rate;
        rec.mean_hops = m.mean_hops;
        rec.stretch = m.stretch;
        rec.revisits = m.revisits;
        rec.messages = m.messages;
        rec.total_reversals = m.total_reversals;
        rec.max_node_reversals = m.max_node_reversals;
        rec.mean_node_reversals = m.mean_node_reversals;
        rec.acyclic = m.acyclic;
    };

    // Waits up to the settle window for quiescence. Returns
    // `(quiesced, convergence_ticks)` measured from `fired_at`; a
    // non-quiescent phase reports the censored window instead.
    let settle_phase = |driver: &mut dyn Driver,
                        fired_at: u64,
                        what: &str|
     -> Result<(bool, u64), ScenarioError> {
        let deadline = fired_at.saturating_add(spec.settle);
        let (delivered, capped) = driver.run_until_capped(deadline, spec.max_events);
        if capped {
            return Err(ScenarioError(format!(
                "{what}: event budget exhausted after {delivered} deliveries within one \
                 settle window (max_events = {})",
                spec.max_events
            )));
        }
        let quiesced = driver.is_quiescent();
        let ticks = if quiesced {
            driver.now().saturating_sub(fired_at)
        } else {
            spec.settle
        };
        Ok((quiesced, ticks))
    };

    // Initial convergence: the index-0 "start" event row. (The
    // tora/mutex/election harnesses converge in their constructors, so
    // this phase is instantly quiescent for them and `now()` already
    // carries their convergence time.)
    let (quiesced, _) = {
        let _sp = lr_obs::span("scenario", "scenario.settle start");
        settle_phase(driver.as_mut(), 0, "initial convergence")?
    };
    let mut rec = base_record("event", 0, "start", 0);
    rec.convergence_ticks = if quiesced { driver.now() } else { spec.settle };
    rec.quiesced = quiesced;
    fill(&mut rec, &driver.metrics(&ledger.live_edges()));
    records.push(rec);

    for (at, action) in timeline(spec) {
        if at > driver.now() {
            let (delivered, capped) = driver.run_until_capped(at, spec.max_events);
            if capped {
                return Err(ScenarioError(format!(
                    "drain to t = {at}: event budget exhausted after {delivered} deliveries \
                     (max_events = {})",
                    spec.max_events
                )));
            }
            driver.advance_to(at);
        }
        match action {
            ActionKind::Traffic(_) => driver.inject_wave(&sources),
            ActionKind::Churn(i) => {
                let fired_at = driver.now();
                // Per-churn-event span: covers the mutation and the
                // settle phase that measures its convergence.
                let mut churn_span = lr_obs::span(
                    "scenario",
                    format!("scenario.churn {}", spec.churn[i].kind.describe()),
                );
                apply_churn(
                    &spec.churn[i].kind,
                    driver.as_mut(),
                    &mut ledger,
                    &mut churn_rng,
                )?;
                let (quiesced, ticks) =
                    settle_phase(driver.as_mut(), fired_at, &format!("churn[{i}]"))?;
                churn_span.arg("event", i as u64 + 1);
                churn_span.arg("at", fired_at);
                churn_span.arg("convergence_ticks", ticks);
                churn_span.arg("quiesced", u64::from(quiesced));
                drop(churn_span);
                let mut rec = base_record("event", i + 1, &spec.churn[i].kind.describe(), fired_at);
                rec.convergence_ticks = ticks;
                rec.quiesced = quiesced;
                fill(&mut rec, &driver.metrics(&ledger.live_edges()));
                records.push(rec);
            }
        }
    }

    let drain_from = driver.now();
    let (quiesced, _) = {
        let _sp = lr_obs::span("scenario", "scenario.settle drain");
        settle_phase(driver.as_mut(), drain_from, "final drain")?
    };
    let mut summary = base_record("summary", spec.churn.len(), "summary", driver.now());
    summary.convergence_ticks = driver.now();
    summary.quiesced = quiesced;
    fill(&mut summary, &driver.metrics(&ledger.live_edges()));
    records.push(summary);

    let sim_stats = driver.sim_stats();
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
                ledger.fail(driver, NodeId::new(u), NodeId::new(v));
            }
        }
        ChurnKind::Heal(edges) => {
            for &(u, v) in edges {
                ledger.heal(driver, NodeId::new(u), NodeId::new(v));
            }
        }
        ChurnKind::Partition(side) => {
            let side: BTreeSet<NodeId> = side.iter().map(|&u| NodeId::new(u)).collect();
            for (u, v) in ledger.live_edges() {
                if side.contains(&u) != side.contains(&v) {
                    ledger.fail(driver, u, v);
                }
            }
        }
        ChurnKind::Random { fail, heal } => {
            // Sample without replacement; if fewer links are available
            // than requested, churn what exists.
            for _ in 0..*fail {
                let live = ledger.live_edges();
                if live.is_empty() {
                    break;
                }
                let (u, v) = live[rng.gen_range(0..live.len())];
                ledger.fail(driver, u, v);
            }
            for _ in 0..*heal {
                let failed: Vec<(NodeId, NodeId)> = ledger.failed.iter().copied().collect();
                if failed.is_empty() {
                    break;
                }
                let (u, v) = failed[rng.gen_range(0..failed.len())];
                ledger.heal(driver, u, v);
            }
        }
        ChurnKind::CrashLeader => driver.crash_leader().map_err(ScenarioError)?,
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;

    use lr_net::sim::Ctx;

    use super::*;

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

        fn on_message(
            &mut self,
            ctx: &mut Ctx<'_, u32, Option<u32>>,
            _node: &mut u32,
            _from: NodeId,
            msg: u32,
        ) {
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

        fn on_message(
            &mut self,
            ctx: &mut Ctx<'_, u32, Option<u32>>,
            _node: &mut u32,
            _from: NodeId,
            msg: u32,
        ) {
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

    #[test]
    fn a_new_epoch_retires_every_entry_and_a_stamp_wrap_clears_them() {
        let mut memo = RouteMemo::default();
        memo.sync(7, 3);
        let entry = |stamp| MemoEntry {
            stamp,
            hops: 2,
            path_delay: 9,
        };
        memo.entries[1] = entry(memo.stamp);
        assert_eq!(memo.get(1), Some((2, 9)));
        memo.sync(7, 3);
        assert_eq!(memo.get(1), Some((2, 9)), "the same epoch keeps entries");
        memo.sync(8, 3);
        assert_eq!(memo.get(1), None, "a new epoch retires them");

        // The last stamp before a wrap, next to an entry left from the
        // first stamp: after the wrap it would read as current.
        memo.stamp = u32::MAX;
        memo.entries[0] = entry(1);
        memo.entries[2] = entry(u32::MAX);
        assert_eq!(memo.get(2), Some((2, 9)));
        memo.sync(9, 3);
        assert_eq!(memo.stamp, 1);
        assert!((0..3).all(|i| memo.get(i).is_none()), "{memo:?}");
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
