//! `lr serve` — the resident simulation driver: one live protocol
//! instance under a **streaming** request workload.
//!
//! Every earlier execution mode is batch: a scenario runs its fixed
//! timeline and exits. This module keeps the instance resident and
//! feeds it an *open-loop* stream of work — route queries, link
//! fail/heal events, node churn — admitted in per-tick batches against
//! a bounded queue, answered synchronously from the live orientation,
//! and folded into streaming latency/hops/stretch sketches, so the
//! steady-state p50/p99 under load is a reportable number instead of a
//! post-hoc aggregate.
//!
//! ## Workload sources
//!
//! * The **generator**: a seeded open-loop arrival process producing
//!   `rate` route queries per simulation tick from uniformly sampled
//!   sources. Open-loop means arrivals do not wait for answers — when
//!   the instance cannot keep up, the bounded queue overflows and the
//!   overflow is a *counted drop*, never a panic and never back
//!   pressure.
//! * An optional **newline-JSON feed** (stdin or a file): one event
//!   per line, each `{"at": T, ...}` with exactly one action key —
//!   `"route": SRC`, `"fail": [U, V]`, `"heal": [U, V]`,
//!   `"crash": NODE` (fails every live incident link),
//!   `"restore": NODE` (heals every failed incident link), or
//!   `"crash_leader": true` (election only).
//!
//! ## Tick discipline and determinism
//!
//! Each served tick drains the simulator to the tick boundary
//! (`run_until_capped` then `advance_to`), applies the feed's churn
//! for that tick, enqueues the tick's arrivals, then admits up to
//! `batch` queued requests and answers them via the protocol driver's
//! `route_probe` — a pure read of the current node states. A request's
//! latency is its queue wait in ticks plus the probed path's summed link
//! delay; its stretch is the probed hop count over the live BFS distance
//! at answer time. Probes are fanned out over worker threads but
//! **folded in admission order**, so the report — and its rendering — is
//! byte-identical for a fixed `(spec, seed, flags)` across runs *and
//! across `--threads` values*. Wall-clock time lives
//! only in [`ServeReport::elapsed_ns`], which the rendering leaves out.
//!
//! ## Route cache
//!
//! Partial Reversal repairs locally: after a link change only the nodes
//! that lost their way to the destination reverse, and a route that
//! avoids them stays the same. A node's downhill route is a function of
//! the state, slots, live bits and link configs of the nodes on it, and
//! the simulator logs every node a dispatch, link failure, heal or
//! link-config change touches. So every probe worker keeps a route memo
//! across ticks: each node's `(hops, path_delay)` answer and the next hop
//! of its route. Before each batch the serve loop drains the touched log
//! once, and every memo retires the touched nodes' answers and,
//! transitively, each answer whose next hop it retired: exactly the
//! routes through a touched node. A walk stops at the sink or at a node
//! the memo answers, and an answered walk stores the answer of every node
//! it passed. An answer is therefore the plain walk's; a quiet tick
//! answers each probe with one memo read, and a churn event re-walks only
//! the routes it changed.
//!
//! Each `serve.batch` span carries a `walked` arg, the hops its probes
//! actually walked; the hops it answered are the report's. The two differ
//! by what the memo saved, and `walked` depends on `--threads` (each
//! worker fills its own memo), so it is a span arg and not a folded
//! counter. For the same reason the benchmark's `serve.hops_per_s`, the
//! answered hops per second of `serve.batch`, counts answered hops, not
//! walked ones.
//!
//! ## Stretch pricing
//!
//! Stretch divides a probe's hops by the source's BFS distance from the
//! destination over the live links. The serve loop's link ledger (the
//! scenario engine's, which every fail and heal already passes through)
//! keeps those distances, one `u32` per node, from a single BFS at build.
//! After each churn tick it repairs them from the changed links alone:
//! the nodes that lost every live shortest-path parent are marked in order
//! of distance, then one relaxation re-prices them and the nodes behind
//! any healed link. A link failure near the far corner of a 100k-node
//! grid moves 9 to 15 distances, and the repair visits little more than
//! those nodes and their neighbours, so no churn tick walks the whole
//! graph. Each `serve.reprice` span carries a `repaired` arg, the number
//! of distances the tick changed.

use std::collections::{BTreeMap, VecDeque};
use std::time::Instant;

use lr_core::par::worker_count;
use lr_graph::{CsrGraph, NodeId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde_json::Value;

use crate::engine::{
    make_driver, record_sim_stats, spec_link_config, start_driver, Driver, LinkLedger, NoRoute,
    RouteMemo, RouteProbe, ScenarioError, SimControl,
};
use crate::spec::{derive_run_seed, ProtocolKind, ScenarioSpec, TrafficSpec};
use crate::stats::{MetricSketch, STRETCH_GRID_HI};
use crate::topology::build_instance;

/// Mixer xored into the run seed to derive the workload generator's
/// RNG stream (kept distinct from the engine's churn stream the same
/// way [`crate::spec::derive_churn_seed`] is).
const WORKLOAD_SEED_MIX: u64 = 0x5EBB_1E5E_ED00_C0DE;

/// Hard ceiling on `--duration`: the serve loop runs one iteration per
/// served tick.
pub const MAX_SERVE_TICKS: u64 = 1_000_000;

/// Hard ceiling on the generated requests, `--rate × --duration`: the
/// generator draws one source per request.
pub const MAX_SERVE_REQUESTS: u64 = 10_000_000;

/// A failure while parsing the feed or running the serve loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeError(pub String);

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ServeError {}

impl From<ScenarioError> for ServeError {
    fn from(e: ScenarioError) -> Self {
        ServeError(e.to_string())
    }
}

/// Knobs of one serve run (everything except the spec itself).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeOptions {
    /// Generator rate: route queries per simulation tick (0 = feed
    /// only).
    pub rate: u64,
    /// Served ticks after the spec's settle window.
    pub duration: u64,
    /// Worker threads answering probes (≥ 1; changes wall-clock only).
    pub threads: usize,
    /// Admission batch cap per tick (≥ 1).
    pub batch: usize,
    /// Bounded queue capacity (≥ 1); overflow is a counted drop.
    pub queue: usize,
    /// Overrides the spec's first seed when set.
    pub seed: Option<u64>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            rate: 10,
            duration: 100,
            threads: 1,
            batch: 256,
            queue: 1024,
            seed: None,
        }
    }
}

/// One action of the streaming feed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FeedAction {
    /// A route query from this source node.
    Route(u32),
    /// Fail the link `{u, v}`.
    Fail(u32, u32),
    /// Heal the link `{u, v}`.
    Heal(u32, u32),
    /// Node churn: fail every live link incident to this node.
    Crash(u32),
    /// Node churn: heal every failed link incident to this node.
    Restore(u32),
    /// Crash the current leader (election protocol only).
    CrashLeader,
}

/// One line of the feed: an action scheduled for a served tick
/// (1-based; tick 0 is the settled initial state).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FeedEvent {
    /// The served tick the action fires at (≥ 1).
    pub at: u64,
    /// What fires.
    pub action: FeedAction,
}

fn feed_err(line_no: usize, msg: impl std::fmt::Display) -> ServeError {
    ServeError(format!("feed line {line_no}: {msg}"))
}

fn feed_node(v: &Value, line_no: usize, key: &str) -> Result<u32, ServeError> {
    v.as_u64()
        .and_then(|n| u32::try_from(n).ok())
        .ok_or_else(|| feed_err(line_no, format!("\"{key}\" needs a node id")))
}

fn feed_edge(v: &Value, line_no: usize, key: &str) -> Result<(u32, u32), ServeError> {
    let arr = v
        .as_array()
        .filter(|a| a.len() == 2)
        .ok_or_else(|| feed_err(line_no, format!("\"{key}\" needs a [u, v] pair")))?;
    Ok((
        feed_node(&arr[0], line_no, key)?,
        feed_node(&arr[1], line_no, key)?,
    ))
}

/// Parses a newline-JSON feed. Blank lines are skipped; every other
/// line must be an object with `"at"` (a served tick ≥ 1) and exactly
/// one action key.
///
/// # Errors
///
/// Returns a [`ServeError`] naming the 1-based line of the first
/// malformed entry.
pub fn parse_feed(text: &str) -> Result<Vec<FeedEvent>, ServeError> {
    let mut events = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line_no = i + 1;
        if line.trim().is_empty() {
            continue;
        }
        let value: Value = serde_json::from_str(line)
            .map_err(|e| feed_err(line_no, format!("malformed JSON: {e}")))?;
        let obj = value
            .as_object()
            .ok_or_else(|| feed_err(line_no, "expected a JSON object"))?;
        let at = obj
            .get("at")
            .and_then(Value::as_u64)
            .ok_or_else(|| feed_err(line_no, "missing or non-integer \"at\""))?;
        if at == 0 {
            return Err(feed_err(line_no, "\"at\" must be ≥ 1 (ticks are 1-based)"));
        }
        let actions: Vec<&String> = obj.keys().filter(|k| k.as_str() != "at").collect();
        let [key] = actions[..] else {
            return Err(feed_err(
                line_no,
                "expected exactly one action key next to \"at\" \
                 (route | fail | heal | crash | restore | crash_leader)",
            ));
        };
        let v = &obj[key.as_str()];
        let action = match key.as_str() {
            "route" => FeedAction::Route(feed_node(v, line_no, "route")?),
            "fail" => {
                let (u, w) = feed_edge(v, line_no, "fail")?;
                FeedAction::Fail(u, w)
            }
            "heal" => {
                let (u, w) = feed_edge(v, line_no, "heal")?;
                FeedAction::Heal(u, w)
            }
            "crash" => FeedAction::Crash(feed_node(v, line_no, "crash")?),
            "restore" => FeedAction::Restore(feed_node(v, line_no, "restore")?),
            "crash_leader" => {
                if v.as_bool() != Some(true) {
                    return Err(feed_err(line_no, "\"crash_leader\" must be true"));
                }
                FeedAction::CrashLeader
            }
            other => return Err(feed_err(line_no, format!("unknown action \"{other}\""))),
        };
        events.push(FeedEvent { at, action });
    }
    Ok(events)
}

/// The outcome of one serve run: counts, streaming sketches, and the
/// deterministic rendering. Wall-clock lives only in `elapsed_ns` and
/// never reaches [`ServeReport::render`].
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReport {
    /// Scenario name from the spec.
    pub scenario: String,
    /// Protocol served.
    pub protocol: String,
    /// Topology family.
    pub family: String,
    /// Node count.
    pub n: usize,
    /// Undirected edge count.
    pub edges: usize,
    /// Base seed the run derived from.
    pub seed: u64,
    /// Generator rate (requests/tick).
    pub rate: u64,
    /// Served ticks.
    pub duration: u64,
    /// Admission batch cap.
    pub batch: usize,
    /// Bounded queue capacity.
    pub queue: usize,
    /// Worker threads used (excluded from the rendering).
    pub threads: usize,
    /// Settle window that preceded serving.
    pub settle: u64,
    /// Route queries produced by the generator.
    pub offered_generator: u64,
    /// Route queries taken from the feed.
    pub offered_feed: u64,
    /// Feed events whose tick fell past the served horizon (ignored).
    pub feed_ignored: u64,
    /// Requests admitted past the bounded queue.
    pub admitted: u64,
    /// Admitted requests answered from the live orientation.
    pub answered: u64,
    /// Admitted requests with no current route.
    pub unroutable: u64,
    /// Requests dropped on queue overflow.
    pub dropped: u64,
    /// Requests still queued when the horizon was reached.
    pub leftover: u64,
    /// Churn events applied from the feed.
    pub link_events: u64,
    /// Protocol messages the simulator sent over the whole run.
    pub messages: u64,
    /// Per-request latency in virtual ticks (queue wait + path delay).
    pub latency: MetricSketch,
    /// Per-request route length in hops.
    pub hops: MetricSketch,
    /// Per-request stretch vs the live BFS distance (empty for
    /// protocols without a fixed destination sink).
    pub stretch: MetricSketch,
    /// Wall-clock nanoseconds of the serve loop (never rendered).
    pub elapsed_ns: u64,
}

fn sketch_line(name: &str, s: &MetricSketch) -> String {
    if s.moments.count() == 0 {
        return format!("{name}: (no observations)");
    }
    format!(
        "{name}: p50 {:.3}  p90 {:.3}  p99 {:.3}  mean {:.3}  max {:.3}  ({} obs)",
        s.quantile(0.50),
        s.quantile(0.90),
        s.quantile(0.99),
        s.moments.mean(),
        s.moments.max(),
        s.moments.count(),
    )
}

impl ServeReport {
    /// Renders the deterministic summary: every line is a pure
    /// function of `(spec, seed, workload flags)` — no thread count,
    /// no wall-clock — so output is byte-identical across runs and
    /// `--threads` values.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "serve {}: {} on {} (n = {}, edges = {}), seed {}\n",
            self.scenario, self.protocol, self.family, self.n, self.edges, self.seed
        ));
        out.push_str(&format!(
            "workload: rate {}/tick × {} ticks (after settle {}), batch ≤ {}, queue ≤ {}\n",
            self.rate, self.duration, self.settle, self.batch, self.queue
        ));
        out.push_str(&format!(
            "offered {} (generator {}, feed {}{})  admitted {}  answered {}  \
             unroutable {}  dropped {}  leftover {}\n",
            self.offered_generator + self.offered_feed,
            self.offered_generator,
            self.offered_feed,
            if self.feed_ignored > 0 {
                format!(", {} past horizon ignored", self.feed_ignored)
            } else {
                String::new()
            },
            self.admitted,
            self.answered,
            self.unroutable,
            self.dropped,
            self.leftover,
        ));
        out.push_str(&format!(
            "churn events applied {}  protocol messages {}\n",
            self.link_events, self.messages
        ));
        out.push_str(&sketch_line("latency (ticks)", &self.latency));
        out.push('\n');
        out.push_str(&sketch_line("hops", &self.hops));
        out.push('\n');
        out.push_str(&sketch_line("stretch", &self.stretch));
        out.push('\n');
        out
    }
}

/// Answers one batch of probes: fans the reads out over up to
/// [`worker_count`]`(threads, batch.len())` workers in contiguous chunks
/// but returns results **in request order** — the fold downstream is
/// therefore independent of the thread count. Worker `k` reads and
/// fills `memos[k]`, which is added the first time a batch has a `k`-th
/// chunk.
fn probe_batch(
    driver: &dyn Driver,
    batch: &[(NodeId, u64)],
    threads: usize,
    memos: &mut Vec<RouteMemo>,
) -> Vec<Result<RouteProbe, NoRoute>> {
    let chunk = batch
        .len()
        .div_ceil(worker_count(threads, batch.len()))
        .max(1);
    let workers = batch.len().div_ceil(chunk).max(1);
    if memos.len() < workers {
        memos.resize_with(workers, RouteMemo::default);
    }
    if workers == 1 {
        let memo = &mut memos[0];
        return batch
            .iter()
            .map(|&(src, _)| driver.route_probe(src, memo))
            .collect();
    }
    std::thread::scope(|s| {
        let handles: Vec<_> = batch
            .chunks(chunk)
            .zip(memos.iter_mut())
            .map(|(part, memo)| {
                s.spawn(move || {
                    part.iter()
                        .map(|&(src, _)| driver.route_probe(src, memo))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("probe worker panicked"))
            .collect()
    })
}

/// Semantic validation of a parsed feed against the instance and the
/// protocol's churn rules (mirrors the spec-level parse-time rules:
/// link churn only for routing/reversal/tora, `crash_leader` only for
/// election and at most once).
fn validate_feed(
    feed: &[FeedEvent],
    spec: &ScenarioSpec,
    graph: &CsrGraph,
    dest: NodeId,
) -> Result<(), ServeError> {
    let check_node = |id: u32, i: usize| -> Result<usize, ServeError> {
        if let Some(u) = graph.index_of(NodeId::new(id)) {
            Ok(u)
        } else {
            Err(ServeError(format!(
                "feed event {}: node {id} is not in the topology",
                i + 1
            )))
        }
    };
    let check_churn = |i: usize| -> Result<(), ServeError> {
        if spec.protocol.keeps_dest_dag() {
            Ok(())
        } else {
            Err(ServeError(format!(
                "feed event {}: {} scenarios accept no link/node churn",
                i + 1,
                spec.protocol.name()
            )))
        }
    };
    let mut crashed_leader = false;
    for (i, e) in feed.iter().enumerate() {
        match e.action {
            FeedAction::Route(src) => {
                check_node(src, i)?;
                if NodeId::new(src) == dest && !spec.protocol.dest_may_request() {
                    return Err(ServeError(format!(
                        "feed event {}: node {src} is the destination — it cannot be a \
                         route source",
                        i + 1
                    )));
                }
            }
            FeedAction::Fail(u, v) | FeedAction::Heal(u, v) => {
                check_churn(i)?;
                let (a, b) = (check_node(u, i)?, check_node(v, i)?);
                if graph.slot_of(a, b).is_none() {
                    return Err(ServeError(format!(
                        "feed event {}: [{u}, {v}] is not an edge of the topology",
                        i + 1
                    )));
                }
            }
            FeedAction::Crash(u) | FeedAction::Restore(u) => {
                check_churn(i)?;
                check_node(u, i)?;
            }
            FeedAction::CrashLeader => {
                if spec.protocol != ProtocolKind::Election {
                    return Err(ServeError(format!(
                        "feed event {}: crash_leader is only supported by election \
                         scenarios",
                        i + 1
                    )));
                }
                if crashed_leader {
                    return Err(ServeError(format!(
                        "feed event {}: at most one crash_leader event per feed (the \
                         harness crashes the initial leader exactly once)",
                        i + 1
                    )));
                }
                crashed_leader = true;
            }
        }
    }
    Ok(())
}

/// Applies one churn action of the feed to the driver. Link changes go
/// through the ledger, which passes each real change on to the driver.
fn apply_churn(
    action: FeedAction,
    driver: &mut dyn Driver,
    ledger: &mut LinkLedger,
) -> Result<(), ScenarioError> {
    match action {
        FeedAction::Route(_) => unreachable!("a route is a request, not churn"),
        FeedAction::Fail(u, v) => ledger.fail(driver, NodeId::new(u), NodeId::new(v)),
        FeedAction::Heal(u, v) => ledger.heal(driver, NodeId::new(u), NodeId::new(v)),
        FeedAction::Crash(u) => ledger.crash(driver, NodeId::new(u)),
        FeedAction::Restore(u) => ledger.restore(driver, NodeId::new(u)),
        FeedAction::CrashLeader => driver.crash_leader(),
    }
}

/// Drains the simulator's touched log into `touched`, and has every memo
/// retire the answers the drained nodes made stale.
fn retire_touched(
    sim: &mut dyn SimControl,
    csr: &CsrGraph,
    memos: &mut [RouteMemo],
    touched: &mut Vec<u32>,
) {
    let drain = sim.drain_touched(touched);
    for memo in memos {
        memo.retire(csr, touched, drain);
    }
}

/// Rejects the spec sections serve does not run: serve drives one
/// instance, and its workload comes from the generator and the feed.
/// The parser fills the default traffic workload in when a
/// traffic-driven protocol's spec has no traffic section, so only a
/// non-default one counts as declared.
fn reject_unserved_sections(spec: &ScenarioSpec) -> Result<(), ServeError> {
    let section = if spec.matrix.is_some() {
        "a matrix".to_string()
    } else if !spec.churn.is_empty() {
        format!("{} churn event(s)", spec.churn.len())
    } else if spec
        .traffic
        .as_ref()
        .is_some_and(|t| *t != TrafficSpec::default())
    {
        "a traffic section".to_string()
    } else {
        return Ok(());
    };
    Err(ServeError(format!(
        "spec declares {section}, which serve does not run; `lr serve` drives a single \
         instance and takes its workload from --rate (generated route queries) and --feed \
         (routes, link and node churn, crash_leader)"
    )))
}

/// Runs the resident serve loop: settles the instance, then serves
/// `options.duration` ticks of open-loop workload (generator +
/// `feed`), answering admitted requests from the live orientation.
///
/// # Errors
///
/// Returns a [`ServeError`] for a spec with a matrix, churn events or a
/// traffic section, a served window that ends past the virtual clock's
/// range, a workload past [`MAX_SERVE_TICKS`] or [`MAX_SERVE_REQUESTS`],
/// an unbuildable topology, an invalid feed, or an exhausted per-tick
/// event budget (`spec.max_events`).
pub fn run_serve(
    spec: &ScenarioSpec,
    options: &ServeOptions,
    feed: &[FeedEvent],
) -> Result<ServeReport, ServeError> {
    reject_unserved_sections(spec)?;
    if spec.settle.checked_add(options.duration).is_none() {
        return Err(ServeError(format!(
            "--duration {}: the served window ends past the virtual clock's range \
             (settle {} + duration > {})",
            options.duration,
            spec.settle,
            u64::MAX
        )));
    }
    if options.duration > MAX_SERVE_TICKS {
        return Err(ServeError(format!(
            "--duration {}: serve runs at most {MAX_SERVE_TICKS} ticks",
            options.duration
        )));
    }
    if options
        .rate
        .checked_mul(options.duration)
        .is_none_or(|n| n > MAX_SERVE_REQUESTS)
    {
        return Err(ServeError(format!(
            "--rate {0}: {0} requests per tick × {1} ticks exceed the ceiling of \
             {MAX_SERVE_REQUESTS} generated requests",
            options.rate, options.duration
        )));
    }
    let seed = options
        .seed
        .unwrap_or_else(|| spec.seeds.first().copied().unwrap_or(0));
    let run_seed = derive_run_seed(seed, 0);
    let inst = build_instance(&spec.topology, run_seed).map_err(|e| ServeError(e.to_string()))?;
    let csr = inst.csr();
    let dest = inst.dest;
    spec.validate_against(&inst, seed, 0)
        .map_err(|e| ServeError(format!("invalid scenario: {e}")))?;
    validate_feed(feed, spec, csr, dest)?;
    if options.batch == 0 || options.queue == 0 || options.threads == 0 {
        return Err(ServeError(
            "batch, queue, and threads must all be ≥ 1".into(),
        ));
    }

    let mut run_span = lr_obs::span("serve", format!("serve.run {}", spec.name));
    run_span.arg("seed", seed);
    run_span.arg("rate", options.rate);
    run_span.arg("duration", options.duration);

    let link = spec_link_config(&spec.links.default);
    let build_span = lr_obs::span("serve", "serve.build");
    let mut driver = {
        let _sp = lr_obs::span("serve", "serve.build driver");
        make_driver(spec, &inst, link, run_seed)
    };
    {
        let _sp = lr_obs::span("serve", "serve.build start");
        start_driver(spec, driver.as_mut())?;
    }
    // Mirrors the driver's failed links: every fail or heal goes through
    // it, so the simulator's live links are the ledger's. Stretch is
    // priced against its distances from the destination over the live
    // links, repaired after each churn tick.
    let mut ledger = {
        let _sp = lr_obs::span("serve", "serve.build ledger");
        LinkLedger::new(&inst)
    };
    drop(build_span);

    // Initial convergence, exactly like the scenario engine's settle
    // phase: drain up to the settle window, then pin the clock there so
    // served tick `k` is virtual time `settle + k` regardless of how
    // fast convergence went.
    {
        let _sp = lr_obs::span("serve", "serve.settle");
        driver
            .sim()
            .run_until(spec.settle, spec.max_events, &"initial convergence")?;
        // TORA builds routes on demand: heights stay NULL until a node
        // issues a query, so a freshly converged instance would answer
        // every probe with "unroutable". Prime the DAG with one query
        // wave from every non-destination node (NeedRoute is idempotent
        // for already-routed nodes) and drain it inside the settle
        // window.
        if spec.protocol == ProtocolKind::Tora {
            let sources: Vec<NodeId> = csr.nodes().filter(|&u| u != dest).collect();
            driver.inject_wave(&sources, &ledger)?;
            driver
                .sim()
                .run_until(spec.settle, spec.max_events, &"tora route priming")?;
        }
        driver.sim().advance_to(spec.settle);
    }
    let base = spec.settle;

    // Only protocols with a fixed destination sink get stretch (the
    // mutex token and an electable leader move).
    let priced = spec.protocol.keeps_dest_dag();

    // Sketch grids are sized from the settled topology: the eccentricity
    // of the destination bounds the typical path, the spec's largest
    // link delay scales it into ticks. Out-of-range observations clamp
    // into the edge bins; the moments keep the exact mean/max. The
    // bounds saturate, so extreme delays and durations cannot overflow.
    let ecc = (0..csr.node_count())
        .filter_map(|i| ledger.distance(i))
        .max()
        .unwrap_or(0)
        .max(1);
    let max_delay = spec
        .links
        .overrides
        .iter()
        .map(|o| o.link.delay)
        .chain([spec.links.default.delay])
        .max()
        .unwrap_or(1)
        .max(1);
    let lat_hi = ecc
        .saturating_mul(max_delay)
        .saturating_add(options.duration)
        .saturating_add(1) as f64;
    let hops_hi = ecc.saturating_mul(4).saturating_add(8) as f64;
    let mut latency = MetricSketch::new(0.0, lat_hi);
    let mut hops = MetricSketch::new(0.0, hops_hi);
    let mut stretch = MetricSketch::new(0.0, STRETCH_GRID_HI);

    // The generator samples sources uniformly from the non-destination
    // nodes (every node for mutex, where the "destination" is just the
    // initial token holder and a legal requester).
    let eligible: Vec<NodeId> = csr
        .nodes()
        .filter(|&u| u != dest || spec.protocol.dest_may_request())
        .collect();
    if eligible.is_empty() && options.rate > 0 {
        return Err(ServeError(
            "the topology has no eligible request sources".into(),
        ));
    }
    let mut workload_rng = SmallRng::seed_from_u64(run_seed ^ WORKLOAD_SEED_MIX);

    // Feed events bucketed by tick, preserving input order within one.
    let mut by_tick: BTreeMap<u64, Vec<FeedAction>> = BTreeMap::new();
    let mut feed_ignored = 0u64;
    for e in feed {
        if e.at > options.duration {
            feed_ignored += 1;
        } else {
            by_tick.entry(e.at).or_default().push(e.action);
        }
    }

    let mut pending: VecDeque<(NodeId, u64)> = VecDeque::new();
    let (mut offered_generator, mut offered_feed) = (0u64, 0u64);
    let (mut admitted, mut answered, mut unroutable) = (0u64, 0u64, 0u64);
    let (mut dropped, mut link_events) = (0u64, 0u64);
    let batch_span = lr_obs::span_handle("serve", "serve.batch");
    let drain_span = lr_obs::span_handle("serve", "serve.drain");
    let churn_span = lr_obs::span_handle("serve", "serve.churn");
    // One route cache per probe worker, kept across ticks; before each
    // batch every memo retires what the simulator touched since the last.
    let mut memos: Vec<RouteMemo> = Vec::new();
    let mut touched: Vec<u32> = Vec::new();
    let began = Instant::now();

    for tick in 1..=options.duration {
        let t = base + tick;
        // Drain protocol traffic (height floods from earlier churn) to
        // the tick boundary, then pin the clock at it.
        let sim = driver.sim();
        if t > sim.now() {
            let _sp = drain_span.start();
            sim.run_until(t, spec.max_events, &format_args!("tick {tick}"))?;
            sim.advance_to(t);
        }

        // Feed actions for this tick: churn mutates the instance (and
        // invalidates the stretch pricing), routes join the queue ahead
        // of the generator's arrivals.
        let mut churned = false;
        let enqueue = |src: NodeId, pending: &mut VecDeque<(NodeId, u64)>, dropped: &mut u64| {
            if pending.len() < options.queue {
                pending.push_back((src, tick));
            } else {
                *dropped += 1;
            }
        };
        for &action in by_tick.get(&tick).map_or(&[][..], Vec::as_slice) {
            if let FeedAction::Route(src) = action {
                offered_feed += 1;
                enqueue(NodeId::new(src), &mut pending, &mut dropped);
            } else {
                let _sp = churn_span.start();
                apply_churn(action, driver.as_mut(), &mut ledger)?;
                link_events += 1;
                churned |= action != FeedAction::CrashLeader;
            }
        }
        if churned && priced {
            let mut sp = lr_obs::span("serve", "serve.reprice");
            sp.arg("repaired", ledger.repair());
        }

        // Open-loop generator arrivals for this tick.
        for _ in 0..options.rate {
            let src = eligible[workload_rng.gen_range(0..eligible.len())];
            offered_generator += 1;
            enqueue(src, &mut pending, &mut dropped);
        }

        // Admit up to the batch cap and answer from the live
        // orientation — probes are pure reads, folded in admission
        // order regardless of the worker thread count.
        let take = options.batch.min(pending.len());
        let batch: Vec<(NodeId, u64)> = pending.drain(..take).collect();
        if batch.is_empty() {
            continue;
        }
        let mut span = batch_span.start();
        span.arg("tick", tick);
        span.arg("admitted", batch.len() as u64);
        span.arg("queued", pending.len() as u64);
        admitted += batch.len() as u64;
        retire_touched(driver.sim(), csr, &mut memos, &mut touched);
        let walked_before: u64 = memos.iter().map(|m| m.walked).sum();
        let probes = probe_batch(driver.as_ref(), &batch, options.threads, &mut memos);
        // The hops the batch walked rather than read from a memo: a
        // function of the worker count, so a span arg only.
        span.arg(
            "walked",
            memos.iter().map(|m| m.walked).sum::<u64>() - walked_before,
        );
        for (&(src, arrival), probe) in batch.iter().zip(&probes) {
            match probe {
                Ok(p) => {
                    answered += 1;
                    let wait = tick - arrival;
                    latency.push(wait.saturating_add(p.path_delay) as f64);
                    hops.push(p.hops as f64);
                    if priced {
                        let d = ledger.distance(csr.index_of(src).expect("source is a node"));
                        if let Some(d) = d.filter(|&d| d > 0) {
                            stretch.push(p.hops as f64 / d as f64);
                        }
                    }
                }
                Err(_) => unroutable += 1,
            }
        }
        span.arg("answered", answered);
        drop(span);
    }
    let elapsed_ns = began.elapsed().as_nanos() as u64;
    let sim_stats = driver.sim().stats();
    record_sim_stats(&sim_stats);

    Ok(ServeReport {
        scenario: spec.name.clone(),
        protocol: spec.protocol.name().to_string(),
        family: spec.topology.family_name().to_string(),
        n: inst.node_count(),
        edges: csr.edge_count(),
        seed,
        rate: options.rate,
        duration: options.duration,
        batch: options.batch,
        queue: options.queue,
        threads: options.threads,
        settle: base,
        offered_generator,
        offered_feed,
        feed_ignored,
        admitted,
        answered,
        unroutable,
        dropped,
        leftover: pending.len() as u64,
        link_events,
        messages: sim_stats.sent,
        latency,
        hops,
        stretch,
        elapsed_ns,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(json: &str) -> ScenarioSpec {
        ScenarioSpec::from_json(json).expect("valid spec")
    }

    fn grid_spec() -> ScenarioSpec {
        spec(
            r#"{
                "name": "serve-test",
                "topology": {"family": "grid", "rows": 4, "cols": 4},
                "seeds": [7]
            }"#,
        )
    }

    fn opts(rate: u64, duration: u64) -> ServeOptions {
        ServeOptions {
            rate,
            duration,
            ..ServeOptions::default()
        }
    }

    #[test]
    fn serve_is_bit_reproducible_for_a_fixed_seed() {
        let spec = grid_spec();
        let a = run_serve(&spec, &opts(5, 30), &[]).unwrap();
        let b = run_serve(&spec, &opts(5, 30), &[]).unwrap();
        assert_eq!(a.render(), b.render());
        assert!(a.answered > 0, "steady grid answers its load");
        assert_eq!(a.answered + a.unroutable, a.admitted);
        assert_eq!(
            a.offered_generator,
            5 * 30,
            "open-loop generator offers rate × duration"
        );
    }

    #[test]
    fn workloads_at_the_ceilings_run_and_past_them_error() {
        // A two-node chain keeps a million served ticks cheap.
        let tiny = spec(
            r#"{"name": "ceiling", "topology": {"family": "chain-away", "n": 2},
                "settle": 10}"#,
        );
        for (rate, duration) in [(0, MAX_SERVE_TICKS), (MAX_SERVE_REQUESTS, 1)] {
            let report = run_serve(&tiny, &opts(rate, duration), &[]).unwrap();
            assert_eq!(report.duration, duration);
            assert_eq!(report.offered_generator, rate * duration);
        }
        // Past a ceiling is an error naming the flag and its value, before
        // anything is built; the last two once ran until killed.
        let grid =
            spec(r#"{"name": "ceiling", "topology": {"family": "grid", "rows": 3, "cols": 3}}"#);
        for (rate, duration, msg) in [
            (
                0,
                MAX_SERVE_TICKS + 1,
                "--duration 1000001: serve runs at most 1000000 ticks",
            ),
            (
                MAX_SERVE_REQUESTS + 1,
                1,
                "--rate 10000001: 10000001 requests per tick × 1 ticks exceed the ceiling \
                 of 10000000 generated requests",
            ),
            (
                MAX_SERVE_REQUESTS / 2 + 1,
                2,
                "--rate 5000001: 5000001 requests per tick × 2 ticks exceed the ceiling of \
                 10000000 generated requests",
            ),
            (
                u64::MAX,
                2,
                "--rate 18446744073709551615: 18446744073709551615 requests per tick × 2 \
                 ticks exceed the ceiling of 10000000 generated requests",
            ),
            (
                0,
                1_000_000_000_000_000,
                "--duration 1000000000000000: serve runs at most 1000000 ticks",
            ),
        ] {
            let err = run_serve(&grid, &opts(rate, duration), &[]).unwrap_err();
            assert_eq!(err.0, msg, "rate {rate}, duration {duration}");
        }
    }

    #[test]
    fn serve_reports_are_identical_across_thread_counts() {
        // Every protocol under the churn it takes: the demo feed for the
        // three with link churn, generated routes alone for mutex, and one
        // crash_leader for election.
        let demo = parse_feed(include_str!("../../../examples/serve/feed_demo.ndjson")).unwrap();
        let crash = parse_feed("{\"at\": 30, \"crash_leader\": true}").unwrap();
        let grid = r#"{"family": "grid", "rows": 8, "cols": 8}"#;
        let tree = r#"{"family": "inline",
                       "edges": [[0, 1], [0, 2], [1, 3], [1, 4], [2, 5], [2, 6], [5, 7]]}"#;
        for (protocol, topology, feed, churn) in [
            ("routing", grid, &demo[..], 4),
            ("reversal", grid, &demo[..], 4),
            ("tora", grid, &demo[..], 4),
            ("mutex", tree, &[][..], 0),
            ("election", grid, &crash[..], 1),
        ] {
            let spec = spec(&format!(
                r#"{{"name": "threads-{protocol}", "protocol": "{protocol}",
                     "topology": {topology}, "seeds": [42]}}"#
            ));
            let base = run_serve(&spec, &opts(8, 50), feed).unwrap();
            assert_eq!(base.link_events, churn, "{protocol}: churn applied");
            assert!(base.answered > 0, "{protocol}: answers its load");
            // A batch of 8 runs at most 8 workers, and keeps a memo for
            // each worker it runs, whatever the flag says.
            for threads in [2usize, 4, usize::MAX] {
                let par = run_serve(
                    &spec,
                    &ServeOptions {
                        threads,
                        ..opts(8, 50)
                    },
                    feed,
                )
                .unwrap();
                assert_eq!(
                    par.render(),
                    base.render(),
                    "{protocol}: thread count must not change the rendered report"
                );
                assert_eq!(par.latency, base.latency, "{protocol}");
                assert_eq!(par.hops, base.hops, "{protocol}");
                assert_eq!(par.stretch, base.stretch, "{protocol}");
            }
        }
    }

    #[test]
    fn queue_overflow_is_a_counted_drop_not_a_panic() {
        let spec = grid_spec();
        let report = run_serve(
            &spec,
            &ServeOptions {
                rate: 50,
                duration: 10,
                batch: 2,
                queue: 8,
                ..ServeOptions::default()
            },
            &[],
        )
        .unwrap();
        assert!(report.dropped > 0, "an overloaded queue must drop");
        assert_eq!(
            report.offered_generator,
            report.admitted + report.dropped + report.leftover,
            "every offered request is admitted, dropped, or left over"
        );
        assert!(report.admitted <= 2 * 10, "batch cap bounds admissions");
    }

    #[test]
    fn feed_routes_and_churn_drive_the_live_instance() {
        let spec = grid_spec();
        // Fail a corner link, route from the corner once the reversal
        // wave has re-converged, heal, route again.
        let feed = parse_feed(
            "{\"at\": 2, \"fail\": [0, 1]}\n\
             {\"at\": 6, \"route\": 3}\n\
             \n\
             {\"at\": 8, \"heal\": [0, 1]}\n\
             {\"at\": 12, \"route\": 3}\n",
        )
        .unwrap();
        assert_eq!(feed.len(), 4);
        let report = run_serve(&spec, &opts(0, 14), &feed).unwrap();
        assert_eq!(report.offered_feed, 2);
        assert_eq!(report.link_events, 2);
        assert_eq!(report.answered, 2, "both probed routes resolve");
        // Pinned: the first probe walks 5 hops around the failed link,
        // which is also the live shortest path then (stretch 1); the
        // second walks 5 hops again against 3 once healed (stretch 5/3).
        assert_eq!(
            report.render(),
            "serve serve-test: routing on grid (n = 16, edges = 24), seed 7\n\
             workload: rate 0/tick × 14 ticks (after settle 10000), batch ≤ 256, queue ≤ 1024\n\
             offered 2 (generator 0, feed 2)  admitted 2  answered 2  unroutable 0  dropped 0  \
             leftover 0\n\
             churn events applied 2  protocol messages 101\n\
             latency (ticks): p50 5.000  p90 5.000  p99 5.000  mean 5.000  max 5.000  (2 obs)\n\
             hops: p50 5.000  p90 5.000  p99 5.000  mean 5.000  max 5.000  (2 obs)\n\
             stretch: p50 1.062  p90 1.667  p99 1.667  mean 1.333  max 1.667  (2 obs)\n"
        );
    }

    #[test]
    fn node_crash_and_restore_translate_to_incident_link_churn() {
        let spec = grid_spec();
        let feed = parse_feed(
            "{\"at\": 2, \"crash\": 5}\n\
             {\"at\": 6, \"restore\": 5}\n",
        )
        .unwrap();
        let report = run_serve(&spec, &opts(3, 12), &feed).unwrap();
        assert_eq!(report.link_events, 2);
        assert!(report.answered > 0);
    }

    #[test]
    fn feed_validation_rejects_bad_events() {
        let spec = grid_spec();
        for (feed_line, needle) in [
            ("{\"at\": 0, \"route\": 3}", "1-based"),
            ("{\"at\": 1}", "exactly one action"),
            (
                "{\"at\": 1, \"route\": 3, \"fail\": [0, 1]}",
                "exactly one action",
            ),
            ("{\"at\": 1, \"warp\": 3}", "unknown action"),
            ("{\"at\": 1, \"fail\": [0]}", "[u, v] pair"),
            ("not json", "malformed JSON"),
        ] {
            let err = parse_feed(feed_line).unwrap_err();
            assert!(
                err.0.contains(needle),
                "{feed_line:?} should fail with {needle:?}, got {err}"
            );
        }
        // Semantic failures surface from run_serve.
        for (line, needle) in [
            ("{\"at\": 1, \"route\": 99}", "not in the topology"),
            ("{\"at\": 1, \"fail\": [0, 5]}", "not an edge"),
            ("{\"at\": 1, \"crash_leader\": true}", "election"),
        ] {
            let feed = parse_feed(line).unwrap();
            let err = run_serve(&spec, &opts(0, 4), &feed).unwrap_err();
            assert!(
                err.0.contains(needle),
                "{line:?} should fail with {needle:?}, got {err}"
            );
        }
        // A second crash_leader fails validation, before anything is
        // served, and names its event and the rule.
        let election = ScenarioSpec::from_json(
            r#"{"name": "serve-election", "protocol": "election",
                "topology": {"family": "grid", "rows": 4, "cols": 4}}"#,
        )
        .unwrap();
        let feed =
            parse_feed("{\"at\": 2, \"crash_leader\": true}\n{\"at\": 9, \"crash_leader\": true}")
                .unwrap();
        let err = run_serve(&election, &opts(0, 12), &feed).unwrap_err();
        assert!(
            err.0
                .starts_with("feed event 2: at most one crash_leader event per feed"),
            "{err}"
        );
    }

    /// Drives `spec` like a churned serve run: from the start, each tick
    /// applies `feed`'s churn at that tick (`None` primes TORA with a
    /// query from every node), retires what the simulator touched from
    /// one long-lived memo as the serve loop does, probes every node with
    /// that memo and with a fresh memo each, then drains to the next tick.
    /// The two must agree on every probe. Returns how many probes ended
    /// each way, and the hops the long-lived memo walked against the
    /// fresh walks.
    fn memo_agrees_with_fresh_walks(
        spec: &ScenarioSpec,
        feed: &[(u64, Option<FeedAction>)],
        ticks: u64,
    ) -> (BTreeMap<String, u64>, u64, u64) {
        let run_seed = derive_run_seed(spec.seeds[0], 0);
        let inst = build_instance(&spec.topology, run_seed).unwrap();
        let link = spec_link_config(&spec.links.default);
        let mut driver = make_driver(spec, &inst, link, run_seed);
        start_driver(spec, driver.as_mut()).unwrap();
        let mut ledger = LinkLedger::new(&inst);
        let nodes: Vec<NodeId> = inst.csr().nodes().collect();
        let mut memos = [RouteMemo::default()];
        let mut touched = Vec::new();
        let mut tally: BTreeMap<String, u64> = BTreeMap::new();
        let mut fresh_walked = 0u64;
        for tick in 0..=ticks {
            for &(_, action) in feed.iter().filter(|&&(at, _)| at == tick) {
                match action {
                    Some(action) => apply_churn(action, driver.as_mut(), &mut ledger).unwrap(),
                    None => driver.inject_wave(&nodes, &ledger).unwrap(),
                }
            }
            retire_touched(driver.sim(), inst.csr(), &mut memos, &mut touched);
            let memo = &mut memos[0];
            // Alternate the order so memo hits come from both ends of a
            // route.
            let mut order = nodes.clone();
            if tick % 2 == 1 {
                order.reverse();
            }
            for u in order {
                let mut fresh = RouteMemo::default();
                let want = driver.route_probe(u, &mut fresh);
                fresh_walked += fresh.walked;
                let got = driver.route_probe(u, memo);
                assert_eq!(got, want, "{}: tick {tick}, node {u}", spec.name);
                let end = got.map_or_else(|e| format!("{e:?}"), |_| "answered".into());
                *tally.entry(end).or_default() += 1;
            }
            let sim = driver.sim();
            let (_, capped) = sim.run_until_capped(tick + 1, spec.max_events);
            assert!(!capped, "{}: tick {tick}", spec.name);
            sim.advance_to(tick + 1);
        }
        (tally, memos[0].walked, fresh_walked)
    }

    #[test]
    fn memoized_probes_equal_fresh_walks_through_churn() {
        // Slow, jittery links stretch every cascade over several ticks;
        // two odd delays make path delays differ from hop counts.
        let spec_for = |protocol: &str| {
            spec(&format!(
                r#"{{"name": "memo-{protocol}", "protocol": "{protocol}",
                     "topology": {{"family": "grid", "rows": 5, "cols": 5}},
                     "links": {{"delay": 2, "jitter": 3, "overrides": [
                         {{"u": 5, "v": 10, "delay": 3}}, {{"u": 6, "v": 7, "delay": 5}}]}},
                     "seeds": [5]}}"#
            ))
        };
        // A failed link, an interior crash, and the far corner (node 24)
        // cut off and healed: the corner's component has no destination,
        // so Partial Reversal keeps reversing there and TORA erases its
        // height.
        let link_churn = [
            (40, Some(FeedAction::Fail(0, 1))),
            (60, Some(FeedAction::Crash(12))),
            (80, Some(FeedAction::Heal(0, 1))),
            (100, Some(FeedAction::Fail(23, 24))),
            (100, Some(FeedAction::Fail(19, 24))),
            (130, Some(FeedAction::Restore(12))),
            (150, Some(FeedAction::Heal(19, 24))),
            (150, Some(FeedAction::Heal(23, 24))),
        ];
        let mut tora = vec![(20, None)];
        tora.extend(link_churn);
        for (protocol, feed, reasons) in [
            ("routing", &link_churn[..], &["DeadEnd", "Revisit"][..]),
            ("reversal", &link_churn[..], &["DeadEnd", "Revisit"][..]),
            ("tora", &tora[..], &["DeadEnd", "Revisit", "Unrouted"][..]),
            (
                "election",
                &[(30, Some(FeedAction::CrashLeader))][..],
                &["Revisit"][..],
            ),
        ] {
            let (tally, walked, fresh) =
                memo_agrees_with_fresh_walks(&spec_for(protocol), feed, 200);
            for end in ["answered"].iter().chain(reasons) {
                assert!(
                    tally.get(*end).is_some_and(|&n| n > 0),
                    "{protocol}: no probe ended as {end}: {tally:?}"
                );
            }
            assert!(
                walked * 2 < fresh,
                "{protocol}: the memo walked {walked} hops of the fresh walks' {fresh}"
            );
        }
    }

    #[test]
    fn every_protocol_family_serves_route_probes() {
        // 2×3 grid for the link-churn protocols; inline path for
        // mutex/election (mutex requires a tree). Each protocol's
        // `(answered, unroutable, messages)` is pinned.
        let grid = r#"{"family": "grid", "rows": 2, "cols": 3}"#;
        let path = r#"{"family": "inline", "edges": [[0,1],[1,2],[2,3]]}"#;
        for (protocol, topology, pinned) in [
            ("routing", grid, (30, 0, 26)),
            ("reversal", grid, (30, 0, 26)),
            ("tora", grid, (30, 0, 30)),
            ("mutex", path, (30, 0, 0)),
            ("election", path, (30, 0, 6)),
        ] {
            let s = spec(&format!(
                r#"{{"name": "serve-{protocol}", "protocol": "{protocol}",
                     "topology": {topology}, "seeds": [3]}}"#
            ));
            let report = run_serve(&s, &opts(2, 15), &[]).unwrap();
            assert!(
                report.answered > 0,
                "{protocol}: a settled instance answers probes \
                 (answered = {}, unroutable = {})",
                report.answered,
                report.unroutable
            );
            assert_eq!(report.answered + report.unroutable, report.admitted);
            let got = (report.answered, report.unroutable, report.messages);
            assert_eq!(got, pinned, "{protocol}: (answered, unroutable, messages)");
        }
    }
}
