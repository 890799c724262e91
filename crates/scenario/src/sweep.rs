//! The sweep executors: the serial `seeds × trials` runner behind
//! `lr scenario run`, and the **parallel matrix-sweep executor** behind
//! `lr scenario sweep`.
//!
//! ## The parallel executor
//!
//! [`run_matrix_sweep`] expands a spec's `matrix` section into its
//! [`MatrixPoint`]s ([`ScenarioSpec::expand_matrix`]), turns
//! `points × seeds × trials` into a flat list of independent **cells**,
//! and fans the cells out over scoped `std` threads through
//! [`fold_in_order`]. Each cell is one [`run_scenario`] call — a pure
//! function of `(spec, seed, trial)` — so workers share nothing but the
//! fold's queue.
//!
//! ## Determinism
//!
//! Completion order is scheduler-dependent; the *merge* is not. Every
//! cell's position in the list is its canonical index (matrix index ≻
//! seed ≻ trial), and [`fold_in_order`] merges cell summaries into the
//! streaming statistics ([`crate::stats::PointStats`]) strictly in
//! canonical index order — the serial and parallel paths execute the
//! exact same reduce-and-merge operations in the exact same order.
//! Errors follow the same rule: the reported failure is the one from
//! the lowest-indexed failing cell. A sweep at `--threads 8` is
//! therefore **bit-identical** — merged rows, summary JSON, and error
//! — to the same sweep at `--threads 1` (enforced per protocol by
//! `tests/equivalence.rs`).
//!
//! Memory stays O(metrics): each finished cell is reduced to a
//! fixed-size summary *in the worker* (its record rows are dropped on
//! the spot) and waits for its canonical turn only as long as the
//! fold's window of O(threads) cells allows, so peak memory is
//! O(points + threads), never O(cells × rows).

use std::ops::ControlFlow;

use lr_core::par::fold_in_order;
use lr_obs::MetricsShard;
use serde::Serialize;

use crate::engine::{run_scenario, RunOutcome, ScenarioError, ScenarioRecord};
use crate::spec::{MatrixPoint, ScenarioSpec};
use crate::stats::PointStats;

/// Sweep execution options (the serial runner).
#[derive(Debug, Clone, Copy, Default)]
pub struct SweepOptions {
    /// Smoke mode: run only the first seed's first trial and mark every
    /// row `smoke` — the CI gate that keeps scenarios executing without
    /// paying for the full sweep.
    pub smoke: bool,
}

/// The outcome of a full serial sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepOutcome {
    /// Every run's rows, in `(seed, trial)` order.
    pub records: Vec<ScenarioRecord>,
    /// Per-run outcomes (same order), for callers that want the raw
    /// simulator stats.
    pub runs: Vec<RunOutcome>,
    /// The folded deterministic metrics shard: per-run shards (derived
    /// from the record rows) merged in run order.
    pub metrics: MetricsShard,
}

/// Runs the whole `seeds × trials` sweep declared by `spec`, serially,
/// retaining every row (the `lr scenario run` path — per-event rows are
/// the product). Matrix expansion is [`run_matrix_sweep`]'s job.
///
/// # Errors
///
/// Propagates the first [`ScenarioError`] (invalid spec for some seed,
/// or a network that refused to quiesce). A spec that declares a
/// `matrix` is rejected outright — silently running only its base
/// point would hand back rows the caller believes cover the grid.
pub fn run_sweep(
    spec: &ScenarioSpec,
    options: SweepOptions,
) -> Result<SweepOutcome, ScenarioError> {
    if spec.matrix.is_some() {
        return Err(ScenarioError(
            "spec declares a matrix; run it with run_matrix_sweep (CLI: `lr scenario sweep`)"
                .into(),
        ));
    }
    // Smoke is an explicit caller decision (the CLI's --smoke flag),
    // never read from the environment, so sweeps never shrink because
    // of ambient state.
    let smoke = options.smoke;
    let mut records = Vec::new();
    let mut runs = Vec::new();
    let mut metrics = MetricsShard::new();
    for &(seed, trial) in &spec.sweep_runs(smoke) {
        let outcome = run_scenario(spec, seed, trial, smoke)?;
        metrics.merge(&cell_metrics(&outcome.records));
        records.extend(outcome.records.iter().cloned());
        runs.push(outcome);
    }
    metrics.publish();
    Ok(SweepOutcome {
        records,
        runs,
        metrics,
    })
}

// ───────────────────────── matrix sweep ─────────────────────────

/// Matrix-sweep execution options.
#[derive(Debug, Clone, Copy)]
pub struct MatrixOptions {
    /// Worker threads pulling cells from the queue. 1 = run every cell
    /// on the caller's thread (the serial reference the equivalence
    /// suite compares against).
    pub threads: usize,
    /// Smoke mode: one cell (first seed, first trial) per matrix point.
    pub smoke: bool,
}

impl Default for MatrixOptions {
    fn default() -> Self {
        MatrixOptions {
            threads: 1,
            smoke: false,
        }
    }
}

/// The outcome of a matrix sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixOutcome {
    /// The expanded grid, in canonical order.
    pub points: Vec<MatrixPoint>,
    /// Cells executed (`points × seeds × trials`, smoke-shrunk).
    pub cells: usize,
    /// One streaming-summary row per matrix point plus the final
    /// whole-sweep roll-up row.
    pub records: Vec<SweepRecord>,
    /// The folded deterministic metrics shard: per-cell shards merged
    /// strictly in canonical cell order by [`fold_in_order`], so it is
    /// bit-identical at every thread count
    /// (`tests/equivalence.rs` asserts the rendered bytes).
    pub metrics: MetricsShard,
}

/// One unit of sweep work: a `(matrix point, seed, trial)` cell. The
/// position in the cell vector is its canonical merge index.
#[derive(Debug, Clone, Copy)]
struct Cell {
    point: usize,
    seed: u64,
    trial: usize,
}

/// Expands the matrix and runs every cell, fanning out over
/// `options.threads` scoped `std` threads, then folds results in
/// canonical order into per-point and whole-sweep streaming summaries.
///
/// # Errors
///
/// Returns the error of the lowest-indexed failing cell (deterministic
/// across thread counts), or the expansion error for an invalid matrix.
pub fn run_matrix_sweep(
    spec: &ScenarioSpec,
    options: MatrixOptions,
) -> Result<MatrixOutcome, ScenarioError> {
    let smoke = options.smoke;
    let points = spec.expand_matrix()?;
    let cells: Vec<Cell> = points
        .iter()
        .flat_map(|p| {
            p.spec
                .sweep_runs(smoke)
                .into_iter()
                .map(move |(seed, trial)| Cell {
                    point: p.index,
                    seed,
                    trial,
                })
        })
        .collect();

    let (point_stats, mut metrics) =
        run_and_fold(&points, &cells, spec.settle, options.threads, smoke)?;
    metrics.add("sweep.points", points.len() as u64);
    metrics.publish();

    // Row metadata mirrors the smoke shrink of `sweep_runs` (first
    // seed, first trial); counting the runs themselves would misreport
    // under duplicate seeds.
    let (seeds, trials) = if smoke {
        (1, 1)
    } else {
        (spec.seeds.len(), spec.trials)
    };
    let mut sweep_total = PointStats::new(spec.settle);
    let mut records = Vec::with_capacity(points.len() + 1);
    for (point, stats) in points.iter().zip(&point_stats) {
        sweep_total.merge(stats);
        let link = point.spec.links.default;
        records.push(summary_record(
            spec,
            stats,
            SummaryIdent {
                row: "point",
                point_index: point.index,
                label: &point.label,
                protocol: point.spec.protocol.name(),
                family: point.spec.topology.family_name(),
                delay: link.delay,
                jitter: link.jitter,
                loss: link.loss,
                churn_scale: point.churn_scale,
                seeds,
                trials,
            },
            smoke,
        ));
    }
    records.push(summary_record(
        spec,
        &sweep_total,
        SummaryIdent {
            row: "sweep",
            point_index: points.len(),
            label: "sweep",
            protocol: "*",
            family: "*",
            delay: 0,
            jitter: 0,
            loss: 0.0,
            churn_scale: 0,
            seeds,
            trials,
        },
        smoke,
    ));
    Ok(MatrixOutcome {
        cells: cells.len(),
        points,
        records,
        metrics,
    })
}

/// The deterministic per-cell metrics shard, derived from the same
/// record rows the streaming summaries absorb — one tally, two
/// projections. Event rows contribute convergence observations; the
/// summary row contributes the run's cumulative traffic totals (its
/// counters are cumulative across the run, so summing event rows would
/// double-count).
fn cell_metrics(records: &[ScenarioRecord]) -> MetricsShard {
    let mut m = MetricsShard::new();
    m.add("sweep.cells", 1);
    for r in records {
        if r.row == "event" {
            m.add("sweep.events", 1);
            m.add("sweep.convergence_ticks", r.convergence_ticks);
            m.record_max("sweep.max_convergence_ticks", r.convergence_ticks);
            if !r.quiesced {
                m.add("sweep.censored_events", 1);
            }
        } else {
            m.add("sweep.messages", r.messages);
            m.add("sweep.reversals", r.total_reversals);
            m.add("sweep.injected", r.injected);
            m.add("sweep.delivered", r.delivered);
            m.add("sweep.dropped", r.dropped);
        }
    }
    m
}

/// Reduces one finished cell to its fixed-size streaming summary. The
/// full record rows are dropped right here, in the worker — this is
/// what keeps sweep memory bounded by summaries instead of rows.
fn reduce_cell(settle: u64, outcome: &RunOutcome) -> PointStats {
    let mut stats = PointStats::new(settle);
    stats.absorb_cell(&outcome.records);
    stats
}

/// Runs every cell on `threads` workers and merges each cell's summary
/// into its point's accumulator and the sweep's metrics, strictly in
/// canonical cell order ([`fold_in_order`]). The first error in that
/// order ends the sweep and is returned, so it is the lowest-indexed
/// failing cell's at every thread count.
fn run_and_fold(
    points: &[MatrixPoint],
    cells: &[Cell],
    settle: u64,
    threads: usize,
    smoke: bool,
) -> Result<(Vec<PointStats>, MetricsShard), ScenarioError> {
    let run_cell = |i: usize| {
        let c = &cells[i];
        // Per-cell span: one RAII guard around the whole simulation
        // (inert without a recording session).
        let mut span = lr_obs::span("sweep", "sweep.cell");
        span.arg("point", c.point as u64);
        span.arg("seed", c.seed);
        span.arg("trial", c.trial as u64);
        run_scenario(&points[c.point].spec, c.seed, c.trial, smoke).map(|outcome| {
            (
                c.point,
                reduce_cell(settle, &outcome),
                cell_metrics(&outcome.records),
            )
        })
    };
    let mut stats: Vec<PointStats> = points.iter().map(|_| PointStats::new(settle)).collect();
    let mut metrics = MetricsShard::new();
    let folded = fold_in_order(cells.len(), threads, run_cell, |cell| match cell {
        Ok((point, cell_stats, shard)) => {
            stats[point].merge(&cell_stats);
            metrics.merge(&shard);
            ControlFlow::Continue(())
        }
        Err(e) => ControlFlow::Break(e),
    });
    match folded {
        ControlFlow::Continue(()) => Ok((stats, metrics)),
        ControlFlow::Break(e) => Err(e),
    }
}

/// One streaming summary row from the matrix-sweep executor: either one
/// matrix point's aggregate over its `seeds × trials` cells
/// (`row = "point"`) or the whole sweep's roll-up (`row = "sweep"`).
///
/// Deliberately **no thread-count field**: the executor's contract is
/// that a sweep's merged rows are bit-identical at every `--threads`
/// value, and the rows are what the equivalence suite compares
/// byte-for-byte.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SweepRecord {
    /// Sweep name (the base spec's `name`).
    pub sweep: String,
    /// Row kind: `"point"` per matrix point, `"sweep"` for the roll-up.
    pub row: String,
    /// Canonical matrix index of the point (row-major over the axes;
    /// the point count for the `"sweep"` row).
    pub point_index: usize,
    /// Human-readable point label
    /// (`routing|random(n=16,extra=10)|d1j0l0.05|x2`; `"sweep"` for the
    /// roll-up).
    pub label: String,
    /// Protocol of the point (`"*"` for the roll-up).
    pub protocol: String,
    /// Topology family of the point (`"*"` for the roll-up).
    pub family: String,
    /// Global default link delay of the point (0 for the roll-up).
    pub delay: u64,
    /// Global default link jitter of the point (0 for the roll-up).
    pub jitter: u64,
    /// Global default link loss of the point (0 for the roll-up).
    pub loss: f64,
    /// Random-churn intensity multiplier of the point (0 for the
    /// roll-up).
    pub churn_scale: u64,
    /// Cells folded into this row (`seeds × trials` per point).
    pub cells: usize,
    /// Seeds swept (after smoke shrinking).
    pub seeds: usize,
    /// Trials per seed (after smoke shrinking).
    pub trials: usize,
    /// Convergence observations (one per event row of every cell).
    pub conv_count: u64,
    /// Mean convergence ticks.
    pub conv_mean: f64,
    /// Population std-dev of convergence ticks.
    pub conv_std: f64,
    /// Median convergence ticks (fixed-grid sketch estimate).
    pub conv_p50: f64,
    /// 90th-percentile convergence ticks (sketch estimate).
    pub conv_p90: f64,
    /// Largest convergence observation.
    pub conv_max: f64,
    /// Mean route stretch over cells that delivered at least one
    /// priced packet (0 when none did — the sentinel `stretch = 0.0`
    /// of empty or trafficless cells is excluded, since real stretch
    /// is never below 1).
    pub stretch_mean: f64,
    /// 90th-percentile route stretch (sketch estimate, same gating).
    pub stretch_p90: f64,
    /// Mean delivery rate over *traffic-carrying* cells
    /// (`injected > 0`; 0 when the point carries no traffic —
    /// convergence-only cells' sentinel rate of 1.0 is excluded).
    pub delivery_mean: f64,
    /// Worst traffic-carrying cell's delivery rate (same gating).
    pub delivery_min: f64,
    /// Total protocol messages across cells.
    pub messages: u64,
    /// Total reversals across cells.
    pub total_reversals: u64,
    /// Whether every settle phase of every cell quiesced.
    pub quiesced_all: bool,
    /// Whether the structural acyclicity invariant held on every row of
    /// every cell.
    pub acyclic_all: bool,
    /// Whether the rows were produced in smoke mode.
    pub smoke: bool,
}

/// Identification half of a summary row (the stats half comes from
/// [`PointStats`]).
struct SummaryIdent<'a> {
    row: &'a str,
    point_index: usize,
    label: &'a str,
    protocol: &'a str,
    family: &'a str,
    delay: u64,
    jitter: u64,
    loss: f64,
    churn_scale: u64,
    seeds: usize,
    trials: usize,
}

fn summary_record(
    spec: &ScenarioSpec,
    stats: &PointStats,
    ident: SummaryIdent<'_>,
    smoke: bool,
) -> SweepRecord {
    SweepRecord {
        sweep: spec.name.clone(),
        row: ident.row.to_string(),
        point_index: ident.point_index,
        label: ident.label.to_string(),
        protocol: ident.protocol.to_string(),
        family: ident.family.to_string(),
        delay: ident.delay,
        jitter: ident.jitter,
        loss: ident.loss,
        churn_scale: ident.churn_scale,
        cells: stats.cells,
        seeds: ident.seeds,
        trials: ident.trials,
        conv_count: stats.convergence.moments.count(),
        conv_mean: stats.convergence.moments.mean(),
        conv_std: stats.convergence.moments.std_dev(),
        conv_p50: stats.convergence.quantile(0.5),
        conv_p90: stats.convergence.quantile(0.9),
        conv_max: stats.convergence.moments.max(),
        stretch_mean: stats.stretch.moments.mean(),
        stretch_p90: stats.stretch.quantile(0.9),
        delivery_mean: stats.delivery.moments.mean(),
        delivery_min: stats.delivery.moments.min(),
        messages: stats.messages,
        total_reversals: stats.total_reversals,
        quiesced_all: stats.quiesced_all,
        acyclic_all: stats.acyclic_all,
        smoke,
    }
}

// ───────────────────────── rendering ─────────────────────────

/// Renders sweep rows as a fixed-width text table (the CLI's stdout
/// artifact; the JSON rows are the machine-readable one).
pub fn render_table(records: &[ScenarioRecord]) -> String {
    use std::fmt::Write as _;

    let mut out = String::new();
    let header = [
        "seed", "trial", "event", "at", "conv", "inj", "dlv", "rate", "hops", "stretch", "msgs",
        "revs", "acyclic",
    ];
    let widths = [6usize, 5, 22, 8, 8, 6, 6, 6, 6, 7, 9, 7, 7];
    for (w, h) in widths.iter().zip(header) {
        let _ = write!(out, "{h:>w$} ", w = w);
    }
    out.truncate(out.trim_end().len());
    out.push('\n');
    let total: usize = widths.iter().sum::<usize>() + widths.len();
    out.push_str(&"-".repeat(total));
    out.push('\n');
    for r in records {
        let cells = [
            r.seed.to_string(),
            r.trial.to_string(),
            format!("[{}] {}", r.event_index, r.event),
            r.at.to_string(),
            r.convergence_ticks.to_string(),
            r.injected.to_string(),
            r.delivered.to_string(),
            format!("{:.2}", r.delivery_rate),
            format!("{:.1}", r.mean_hops),
            format!("{:.2}", r.stretch),
            r.messages.to_string(),
            r.total_reversals.to_string(),
            r.acyclic.to_string(),
        ];
        for (w, c) in widths.iter().zip(cells) {
            let _ = write!(out, "{c:>w$} ", w = w);
        }
        out.truncate(out.trim_end().len());
        out.push('\n');
    }
    out
}

/// Renders matrix-sweep summary rows as a fixed-width text table.
pub fn render_matrix_table(records: &[SweepRecord]) -> String {
    use std::fmt::Write as _;

    let mut out = String::new();
    let header = [
        "idx",
        "label",
        "cells",
        "conv.mean",
        "conv.p90",
        "stretch",
        "dlv.mean",
        "quiet",
        "acyclic",
    ];
    let widths = [4usize, 52, 6, 10, 9, 8, 9, 6, 7];
    for (w, h) in widths.iter().zip(header) {
        let _ = write!(out, "{h:>w$} ", w = w);
    }
    out.truncate(out.trim_end().len());
    out.push('\n');
    let total: usize = widths.iter().sum::<usize>() + widths.len();
    out.push_str(&"-".repeat(total));
    out.push('\n');
    for r in records {
        let cells = [
            r.point_index.to_string(),
            r.label.clone(),
            r.cells.to_string(),
            format!("{:.1}", r.conv_mean),
            format!("{:.1}", r.conv_p90),
            format!("{:.2}", r.stretch_mean),
            format!("{:.2}", r.delivery_mean),
            r.quiesced_all.to_string(),
            r.acyclic_all.to_string(),
        ];
        for (w, c) in widths.iter().zip(cells) {
            let _ = write!(out, "{c:>w$} ", w = w);
        }
        out.truncate(out.trim_end().len());
        out.push('\n');
    }
    out
}
