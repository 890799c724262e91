//! One workload of the repository benchmark, run once in this process.
//!
//! ```text
//! perfbench <workload> --seed N [--trace PATH] [--smoke]
//! ```
//!
//! Runs `serve-steady`, `serve-churn`, `engine-1m` or `modelcheck-n5`
//! through the library's public calls, checks the outputs, and prints
//! one JSON line of raw measurements, which `run.py` aggregates across
//! processes. A failed check exits 1 with the reason on stderr and
//! prints no measurement.
//!
//! `--trace PATH` records the run in an `lr_obs` session, writes the
//! Chrome trace to PATH, validates it, and adds the span-derived
//! per-layer numbers. `--smoke` shrinks every workload to well under a
//! second, for the benchmark's own test.

use std::process::ExitCode;
use std::time::Instant;

use lr_core::alg::{FrontierEngine, FrontierFamily};
use lr_core::engine::{run_engine_frontier, RunStats, SchedulePolicy, DEFAULT_MAX_STEPS};
use lr_graph::enumerate::all_instances;
use lr_graph::{stream, NodeId};
use lr_obs::{ObsMode, ObsReport, ObsSession};
use lr_scenario::spec::derive_run_seed;
use lr_scenario::topology::build_instance;
use lr_scenario::{parse_feed, run_serve, ScenarioSpec, ServeOptions, ServeReport};
use lr_simrel::model_check::{CheckKind, McOptions};
use serde_json::{Map, Value};

const WORKLOADS: [&str; 4] = ["serve-steady", "serve-churn", "engine-1m", "modelcheck-n5"];

/// What one workload run measured.
struct Outcome {
    /// Seconds before the measured work started.
    setup_s: f64,
    /// Seconds of the measured phase.
    measured_s: f64,
    /// Deterministic work units done in the measured phase.
    work: u64,
    /// Operations attempted.
    attempted: u64,
    /// Operations that failed.
    failed: u64,
    /// Operations that got no answer (`fail_share` divides this by
    /// `attempted`); on serve this adds unroutable replies to `failed`.
    unanswered: u64,
    /// The run's deterministic output: identical for every run of one
    /// seed, traced or not.
    digest: String,
    /// Per-layer numbers from the benchmark's own timers and the
    /// workload's reports.
    layers: Vec<(String, f64)>,
}

fn secs(since: Instant) -> f64 {
    since.elapsed().as_secs_f64()
}

fn ensure(ok: bool, what: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(what())
    }
}

// ───────────────────────────── serve ─────────────────────────────

/// Size and load of the two serve workloads.
struct ServeShape {
    /// Grid side: the instance is a `side × side` routing grid.
    side: usize,
    settle: u64,
    rate: u64,
    duration: u64,
}

/// The 317×317 grid (100,489 nodes) of `examples/serve/grid_100k.json`
/// at 100 requests per tick for 200 ticks: below the batch cap of 256,
/// so nothing queues and nothing is dropped.
const SERVE: ServeShape = ServeShape {
    side: 317,
    settle: 2000,
    rate: 100,
    duration: 200,
};

const SERVE_SMOKE: ServeShape = ServeShape {
    side: 24,
    settle: 300,
    rate: 10,
    duration: 80,
};

/// The spec of `examples/serve/grid_100k.json`, kept here so an edit to
/// the example cannot change the benchmark.
fn grid_spec(shape: &ServeShape) -> String {
    format!(
        r#"{{"name": "serve-grid-100k", "protocol": "routing",
            "topology": {{"family": "grid", "rows": {side}, "cols": {side}}},
            "seeds": [42], "settle": {settle}, "max_events": 50000000}}"#,
        side = shape.side,
        settle = shape.settle,
    )
}

/// Distances from the far corner (column `side − 1`) of the top-row
/// nodes whose destination-side link fails, one fail/heal pair each.
///
/// The failures stay near the corner on purpose. Probes climb to the
/// destination's row and then walk along it, so a failed top-row link
/// strands every probe from the columns beyond it until the reversal
/// cascade settles, and each stranded probe can walk up to 4n hops
/// before it gives up. Failures at random top-row positions stranded
/// 8,243 of 20,000 probes and made the run 50× slower (211 s against
/// 4 s on a 2-vCPU VM). A fixed set of distances, shuffled per seed,
/// strands about the same share of probes for every seed.
const CORNER_DISTANCES: [usize; 2] = [8, 14];

/// Interior `crash`/`restore` pairs: cheap for the protocol (every
/// interior node keeps a second downhill link) but each event reprices
/// stretch with a full BFS of the live graph.
const CRASH_PAIRS: usize = 2;

/// splitmix64: a seeded stream for the feed, independent of the
/// program's own generators.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// The serve-churn feed for `seed` as newline JSON: fail/heal pairs on
/// top-row links near the far corner alternating with interior
/// crash/restore pairs, one event every `duration / 8` ticks, each
/// healed `duration / 16` ticks later. Node ids follow the grid
/// generator: `(r, c)` is `r · side + c`, and the destination is node 0.
fn churn_feed(side: usize, duration: u64, seed: u64) -> String {
    let mut rng = SplitMix(seed);
    let mut distances = CORNER_DISTANCES;
    for i in (1..distances.len()).rev() {
        distances.swap(i, rng.below(i + 1));
    }
    let gap = duration / 8;
    let window = gap / 2;
    let mut lines = Vec::new();
    for k in 0..distances.len().max(CRASH_PAIRS) {
        let at = gap * (2 * k as u64 + 1);
        if let Some(&d) = distances.get(k) {
            let (u, v) = (side - 2 - d, side - 1 - d);
            lines.push((at, format!(r#""fail": [{u}, {v}]"#)));
            lines.push((at + window, format!(r#""heal": [{u}, {v}]"#)));
        }
        if k < CRASH_PAIRS {
            let interior = |rng: &mut SplitMix| side / 4 + rng.below(side / 2);
            let node = interior(&mut rng) * side + interior(&mut rng);
            lines.push((at + gap, format!(r#""crash": {node}"#)));
            lines.push((at + gap + window, format!(r#""restore": {node}"#)));
        }
    }
    lines.sort_by_key(|&(at, _)| at);
    lines
        .iter()
        .map(|(at, action)| format!("{{\"at\": {at}, {action}}}\n"))
        .collect()
}

fn serve(churn: bool, seed: u64, smoke: bool) -> Result<Outcome, String> {
    let shape = if smoke { &SERVE_SMOKE } else { &SERVE };
    let began = Instant::now();
    let spec = ScenarioSpec::from_json(&grid_spec(shape)).map_err(|e| e.to_string())?;
    let spec_s = secs(began);

    // `run_serve` builds its own copy; this one is timed for the graph
    // layer and pins the geometry the churn feed assumes.
    let t = Instant::now();
    let inst =
        build_instance(&spec.topology, derive_run_seed(seed, 0)).map_err(|e| e.to_string())?;
    let build_s = secs(t);
    ensure(
        inst.dest == NodeId::new(0) && inst.node_count() == shape.side * shape.side,
        || "the grid generator no longer puts the destination at node 0".into(),
    )?;
    drop(inst);
    let feed_text = if churn {
        churn_feed(shape.side, shape.duration, seed)
    } else {
        String::new()
    };
    let feed = parse_feed(&feed_text).map_err(|e| e.to_string())?;

    let options = ServeOptions {
        rate: shape.rate,
        duration: shape.duration,
        threads: 1,
        seed: Some(seed),
        ..ServeOptions::default()
    };
    let t = Instant::now();
    let report = run_serve(&spec, &options, &feed).map_err(|e| e.to_string())?;
    let serve_s = secs(t);
    let loop_s = report.elapsed_ns as f64 / 1e9;

    let t = Instant::now();
    check_serve(&report, shape, feed.len() as u64, churn)?;
    let check_s = secs(t);

    let offered = report.offered_generator + report.offered_feed;
    let hops = report.hops.moments.mean() * report.hops.moments.count() as f64;
    Ok(Outcome {
        setup_s: spec_s + serve_s - loop_s,
        measured_s: loop_s,
        work: report.answered,
        attempted: offered,
        failed: report.dropped + report.leftover,
        unanswered: report.unroutable + report.dropped + report.leftover,
        digest: report.render(),
        layers: vec![
            ("graph.build_s".into(), build_s),
            ("net.msgs".into(), report.messages as f64),
            ("serve.hops".into(), hops.round()),
            ("serve.unroutable".into(), report.unroutable as f64),
            ("serve.churn_events".into(), report.link_events as f64),
            ("bench.check_s".into(), check_s),
        ],
    })
}

/// The serve checks that hold for any seed.
fn check_serve(
    report: &ServeReport,
    shape: &ServeShape,
    feed_events: u64,
    churn: bool,
) -> Result<(), String> {
    ensure(
        report.offered_generator == shape.rate * shape.duration && report.offered_feed == 0,
        || {
            format!(
                "offered {} + {} from the feed, expected rate × duration = {}",
                report.offered_generator,
                report.offered_feed,
                shape.rate * shape.duration
            )
        },
    )?;
    ensure(
        report.answered + report.unroutable == report.admitted,
        || {
            format!(
                "answered {} + unroutable {} ≠ admitted {}",
                report.answered, report.unroutable, report.admitted
            )
        },
    )?;
    ensure(
        report.admitted + report.dropped + report.leftover == report.offered_generator,
        || "admitted + dropped + leftover ≠ offered".into(),
    )?;
    let stretch = &report.stretch.moments;
    ensure(stretch.count() > 0 && stretch.min() >= 1.0, || {
        format!(
            "stretch below 1 (min {} over {} answers)",
            stretch.min(),
            stretch.count()
        )
    })?;
    ensure(
        report.link_events == feed_events && report.feed_ignored == 0,
        || {
            format!(
                "applied {} of {feed_events} churn events ({} past the horizon)",
                report.link_events, report.feed_ignored
            )
        },
    )?;
    ensure(churn || report.unroutable == 0, || {
        format!("{} unroutable probes without churn", report.unroutable)
    })
}

// ───────────────────────────── engine ─────────────────────────────

/// Nodes of the engine workload's `random_connected` instance; as many
/// extra edges again give a mean degree of about 4.
const ENGINE_NODES: usize = 1_000_000;
const ENGINE_NODES_SMOKE: usize = 5_000;

/// The generator seed of that instance, fixed rather than taken from the
/// workload seed: the total steps of the six families swing by a third
/// with it (13.9 M to 18.7 M over seeds 1 to 5), far more than the
/// run-to-run noise the benchmark's bounds allow. Seed 3 sits at the
/// median, 15.1 M.
const ENGINE_GRAPH_SEED: u64 = 3;

/// The per-family metric suffix: `fr`, `pr`, `newpr`, `gb-pair`,
/// `gb-triple`, `bll`.
fn family_key(family: FrontierFamily) -> String {
    match family.name() {
        "BLL[PR]" => "bll".into(),
        name => name.to_lowercase(),
    }
}

/// Runs the six families on the pinned instance. Every run checks that
/// each family terminates with the destination as its only sink, and the
/// paper's equivalences; acyclicity needs the whole orientation, which
/// takes half a second per family to extract on a 2-vCPU VM, so untraced
/// runs check it for PR, the paper's subject, and traced runs for every
/// family.
fn engine(smoke: bool, all_acyclic: bool) -> Result<Outcome, String> {
    let n = if smoke {
        ENGINE_NODES_SMOKE
    } else {
        ENGINE_NODES
    };
    let (mut build_s, mut init_s, mut run_s, mut check_s) = (0.0, 0.0, 0.0, 0.0);
    let mut layers = Vec::new();
    let mut runs: Vec<(FrontierFamily, RunStats)> = Vec::new();
    for family in FrontierFamily::ALL {
        let key = family_key(family);
        let t = Instant::now();
        let inst = stream::random_connected(n, n, ENGINE_GRAPH_SEED);
        build_s += secs(t);
        let half_edges = inst.half_edge_count();

        let t = Instant::now();
        let mut engine = family.engine(inst);
        init_s += secs(t);

        let t = Instant::now();
        let stats = run_engine_frontier(
            engine.as_mut(),
            SchedulePolicy::GreedyRounds,
            DEFAULT_MAX_STEPS,
        );
        let family_s = secs(t);
        run_s += family_s;
        layers.push((format!("core.run_s.{key}"), family_s));
        layers.push((
            format!("core.steps_per_s.{key}"),
            stats.steps as f64 / family_s,
        ));
        layers.push((
            format!("core.bytes_per_half_edge.{key}"),
            engine.resident_bytes() as f64 / half_edges as f64,
        ));

        let t = Instant::now();
        ensure(stats.terminated, || {
            format!(
                "{} hit the step budget after {} steps",
                family.name(),
                stats.steps
            )
        })?;
        if all_acyclic || family == FrontierFamily::PartialReversal {
            check_destination_oriented(engine.as_ref())
        } else {
            check_only_sink(engine.as_ref())
        }
        .map_err(|e| format!("{}: {e}", family.name()))?;
        check_s += secs(t);
        runs.push((family, stats));
    }

    let t = Instant::now();
    check_equivalences(&runs)?;
    check_s += secs(t);
    layers.extend([
        ("graph.stream_build_s".into(), build_s),
        ("core.init_s".into(), init_s),
        ("bench.check_s".into(), check_s),
    ]);
    let digest = runs
        .iter()
        .map(|(family, s)| {
            format!(
                "{}: steps {} reversals {} dummy {} rounds {}\n",
                family.name(),
                s.steps,
                s.total_reversals,
                s.dummy_steps,
                s.rounds
            )
        })
        .collect();
    Ok(Outcome {
        setup_s: build_s + init_s,
        measured_s: run_s,
        work: runs.iter().map(|(_, s)| s.steps as u64).sum(),
        attempted: runs.len() as u64,
        // A run that hits the step budget has already failed the checks.
        failed: 0,
        unanswered: 0,
        digest,
        layers,
    })
}

/// Checks that the engine's orientation is acyclic with the destination
/// as its only sink, which on a connected graph means every node has a
/// directed path to the destination.
fn check_destination_oriented(engine: &dyn FrontierEngine) -> Result<(), String> {
    let csr = engine.csr();
    let n = csr.node_count();
    let index = |u: NodeId| {
        csr.index_of(u)
            .ok_or_else(|| format!("node {u} is not in the graph"))
    };
    let edges = engine
        .orientation()
        .directed_edges()
        .map(|(tail, head)| Ok((index(tail)?, index(head)?)))
        .collect::<Result<Vec<_>, String>>()?;
    ensure(edges.len() == csr.edge_count(), || {
        format!(
            "orientation covers {} of {} edges",
            edges.len(),
            csr.edge_count()
        )
    })?;
    // In-edges grouped by head, so sinks can be peeled in reverse
    // topological order.
    let mut out_degree = vec![0u32; n];
    let mut in_start = vec![0usize; n + 1];
    for &(tail, head) in &edges {
        out_degree[tail] += 1;
        in_start[head + 1] += 1;
    }
    for i in 0..n {
        in_start[i + 1] += in_start[i];
    }
    let mut fill = in_start.clone();
    let mut tails = vec![0u32; edges.len()];
    for &(tail, head) in &edges {
        tails[fill[head]] = tail as u32;
        fill[head] += 1;
    }
    drop(edges);

    let dest = index(engine.dest())?;
    let mut queue: Vec<usize> = (0..n).filter(|&i| out_degree[i] == 0).collect();
    ensure(queue == [dest], || {
        format!("{} sinks, expected only the destination", queue.len())
    })?;
    let mut peeled = 0usize;
    while let Some(head) = queue.pop() {
        peeled += 1;
        for &tail in &tails[in_start[head]..in_start[head + 1]] {
            let tail = tail as usize;
            out_degree[tail] -= 1;
            if out_degree[tail] == 0 {
                queue.push(tail);
            }
        }
    }
    ensure(peeled == n, || {
        format!("orientation has a cycle through {} nodes", n - peeled)
    })
}

/// Checks that the destination is the engine's only sink.
fn check_only_sink(engine: &dyn FrontierEngine) -> Result<(), String> {
    let csr = engine.csr();
    let sinks: Vec<NodeId> = csr.nodes().filter(|&u| engine.is_sink(u)).collect();
    ensure(sinks == [engine.dest()], || {
        format!("{} sinks, expected only the destination", sinks.len())
    })
}

/// The paper's equivalences, checked on one instance: FR and GB-pair
/// take the same steps and reversals, as do PR and GB-triple; NewPR
/// reverses the same edges as PR.
fn check_equivalences(runs: &[(FrontierFamily, RunStats)]) -> Result<(), String> {
    let stats = |name: &str| -> Result<&RunStats, String> {
        runs.iter()
            .find(|(family, _)| family.name() == name)
            .map(|(_, s)| s)
            .ok_or_else(|| format!("no {name} run"))
    };
    for (a, b, same_steps) in [
        ("FR", "GB-pair", true),
        ("PR", "GB-triple", true),
        ("PR", "NewPR", false),
    ] {
        let (x, y) = (stats(a)?, stats(b)?);
        ensure(x.total_reversals == y.total_reversals, || {
            format!(
                "{a} reversed {} edges, {b} {}",
                x.total_reversals, y.total_reversals
            )
        })?;
        ensure(!same_steps || x.steps == y.steps, || {
            format!("{a} took {} steps, {b} {}", x.steps, y.steps)
        })?;
    }
    Ok(())
}

// ─────────────────────────── modelcheck ───────────────────────────

/// The checks of the exhaustive battery this workload runs.
const MC_CHECKS: [CheckKind; 3] = [CheckKind::NewPr, CheckKind::RPrime, CheckKind::Termination];

/// Instance workers; the fan-out across independent instances is the
/// only parallel path any workload measures.
const MC_THREADS: usize = 2;

/// Σ_G AO(G)·n over connected 5-node graphs, counted independently of
/// `all_instances`.
const N5_INSTANCES: usize = 132_150;

fn modelcheck(began: Instant, smoke: bool) -> Result<Outcome, String> {
    let n = if smoke { 3 } else { 5 };
    let t = Instant::now();
    let instances = all_instances(n).len();
    let enumerate_s = secs(t);
    ensure(smoke || instances == N5_INSTANCES, || {
        format!("all_instances(5) yields {instances} instances, expected {N5_INSTANCES}")
    })?;
    let setup_s = secs(began);

    let opts = McOptions::default().with_threads(MC_THREADS);
    let (mut measured_s, mut work) = (0.0, 0u64);
    let mut layers = vec![("graph.enumerate_s".to_string(), enumerate_s)];
    let mut digest = String::new();
    for kind in MC_CHECKS {
        let t = Instant::now();
        let summary = kind.run(n, &opts);
        let check_s = secs(t);
        measured_s += check_s;
        let units = (summary.states_visited + summary.transitions) as u64;
        work += units;
        layers.push((format!("simrel.check_s.{}", kind.key()), check_s));
        layers.push((
            format!("simrel.work_per_s.{}", kind.key()),
            units as f64 / check_s,
        ));
        ensure(summary.verified(), || {
            format!(
                "{} failed: violation {:?}, truncated {:?}",
                kind.key(),
                summary.first_violation,
                summary.truncated
            )
        })?;
        ensure(summary.instances == instances, || {
            format!(
                "{} covered {} of {instances} instances",
                kind.key(),
                summary.instances
            )
        })?;
        digest.push_str(&format!(
            "{}: instances {} states {} transitions {}\n",
            kind.key(),
            summary.instances,
            summary.states_visited,
            summary.transitions
        ));
    }
    Ok(Outcome {
        setup_s,
        measured_s,
        work,
        attempted: MC_CHECKS.len() as u64,
        // An unverified or truncated check has already failed the checks.
        failed: 0,
        unanswered: 0,
        digest,
        layers,
    })
}

// ───────────────────────────── trace ─────────────────────────────

fn layer(layers: &[(String, f64)], name: &str) -> f64 {
    layers
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0.0, |&(_, v)| v)
}

/// Per-layer numbers from the spans the program already emits. Span
/// totals and counts cover the whole run; percentiles come from the
/// captured events, which stop when the session's 2^18-event buffer is
/// full, so on modelcheck-n5 the layer p95 covers the first half of the
/// battery.
fn span_layers(workload: &str, report: &ObsReport, layers: &[(String, f64)]) -> Vec<(String, f64)> {
    let stat = |matches: &dyn Fn(&str) -> bool| {
        report
            .spans
            .iter()
            .filter(|(name, _)| matches(name))
            .fold((0u64, 0.0), |(count, total), (_, s)| {
                (count + s.count, total + s.total_ns as f64 / 1e9)
            })
    };
    let total_s = |name: &str| stat(&|n| n == name).1;
    // Nearest-rank quantile of the captured events' durations, in ms.
    let quantile_ms = |name: &str, q: f64| {
        let mut durations: Vec<u64> = report
            .events
            .iter()
            .filter(|e| e.ph == 'X' && e.name == name)
            .map(|e| e.dur_ns)
            .collect();
        durations.sort_unstable();
        let rank = ((q * durations.len() as f64).ceil() as usize).max(1);
        durations.get(rank - 1).map_or(0.0, |&ns| ns as f64 / 1e6)
    };
    match workload {
        "serve-steady" | "serve-churn" => {
            let settle = total_s("serve.settle");
            let batch = total_s("serve.batch");
            let run = stat(&|n| n.starts_with("serve.run ")).1;
            vec![
                ("net.settle_s".into(), settle),
                ("serve.batch_s".into(), batch),
                (
                    "serve.batch_p50_ms".into(),
                    quantile_ms("serve.batch", 0.50),
                ),
                (
                    "serve.batch_p95_ms".into(),
                    quantile_ms("serve.batch", 0.95),
                ),
                ("serve.unattributed_s".into(), run - settle - batch),
                (
                    "serve.hops_per_s".into(),
                    layer(layers, "serve.hops") / batch,
                ),
            ]
        }
        "engine-1m" => vec![
            (
                "core.round_p50_ms".into(),
                quantile_ms("engine.round", 0.50),
            ),
            (
                "core.round_p95_ms".into(),
                quantile_ms("engine.round", 0.95),
            ),
            (
                "core.rounds".into(),
                stat(&|n| n == "engine.round").0 as f64,
            ),
        ],
        _ => vec![
            (
                "ioa.layers".into(),
                stat(&|n| n == "explore.layer").0 as f64,
            ),
            (
                "ioa.layer_p95_ms".into(),
                quantile_ms("explore.layer", 0.95),
            ),
        ],
    }
}

/// Writes the session's Chrome trace to `path` and validates what landed
/// on disk.
fn write_trace(report: &ObsReport, path: &str) -> Result<(), String> {
    std::fs::write(path, report.render_chrome_trace())
        .map_err(|e| format!("cannot write {path}: {e}"))?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let events = lr_obs::validate_chrome_trace(&text).map_err(|e| format!("{path}: {e}"))?;
    ensure(events == report.events.len(), || {
        format!(
            "{path} holds {events} events, the session captured {}",
            report.events.len()
        )
    })
}

// ───────────────────────────── main ─────────────────────────────

struct Cli {
    workload: String,
    seed: u64,
    trace: Option<String>,
    smoke: bool,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut it = args.iter();
    let workload = it
        .next()
        .ok_or("usage: perfbench <workload> --seed N [--trace PATH] [--smoke]")?;
    ensure(WORKLOADS.contains(&workload.as_str()), || {
        format!("unknown workload {workload:?}; expected one of {WORKLOADS:?}")
    })?;
    let mut cli = Cli {
        workload: workload.clone(),
        seed: 0,
        trace: None,
        smoke: false,
    };
    let mut seed = None;
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--seed" => {
                let v = it.next().ok_or("--seed needs a value")?;
                seed = Some(
                    v.parse()
                        .map_err(|_| format!("--seed {v:?} is not a u64"))?,
                );
            }
            "--trace" => cli.trace = Some(it.next().ok_or("--trace needs a path")?.clone()),
            "--smoke" => cli.smoke = true,
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    cli.seed = seed.ok_or("--seed is required")?;
    Ok(cli)
}

fn run(cli: &Cli, began: Instant) -> Result<Map<String, Value>, String> {
    let session = cli
        .trace
        .as_ref()
        .map(|_| ObsSession::start(ObsMode::Chrome));
    let outcome = match cli.workload.as_str() {
        "serve-steady" => serve(false, cli.seed, cli.smoke),
        "serve-churn" => serve(true, cli.seed, cli.smoke),
        "engine-1m" => engine(cli.smoke, cli.trace.is_some()),
        _ => modelcheck(began, cli.smoke),
    };
    let report = session.map(ObsSession::finish);
    let mut outcome = outcome?;

    let mut out = Map::new();
    if let (Some(path), Some(report)) = (&cli.trace, &report) {
        let t = Instant::now();
        write_trace(report, path)?;
        let export_s = secs(t);
        let spans = span_layers(&cli.workload, report, &outcome.layers);
        outcome.layers.extend(spans);
        outcome.layers.push(("obs.export_s".into(), export_s));
        out.insert("trace_events".into(), Value::from(report.events.len()));
        out.insert("trace_dropped".into(), Value::from(report.dropped_events));
    }
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    out.insert("workload".into(), Value::from(cli.workload.as_str()));
    out.insert("seed".into(), Value::from(cli.seed));
    out.insert("cpus".into(), Value::from(cpus));
    out.insert("setup_s".into(), Value::from(outcome.setup_s));
    out.insert("measured_s".into(), Value::from(outcome.measured_s));
    out.insert("work".into(), Value::from(outcome.work));
    out.insert("attempted".into(), Value::from(outcome.attempted));
    out.insert("failed".into(), Value::from(outcome.failed));
    out.insert("unanswered".into(), Value::from(outcome.unanswered));
    out.insert("digest".into(), Value::from(outcome.digest));
    let layers: Map<String, Value> = outcome
        .layers
        .into_iter()
        .map(|(name, v)| (name, Value::from(v)))
        .collect();
    out.insert("layers".into(), Value::from(layers));
    Ok(out)
}

fn main() -> ExitCode {
    let began = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = parse_cli(&args).and_then(|cli| run(&cli, began));
    match result {
        Ok(out) => {
            let line = serde_json::to_string(&Value::from(out)).expect("measurements serialize");
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
