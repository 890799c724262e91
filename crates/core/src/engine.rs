//! The run loop driving [`FrontierEngine`]s to termination under
//! different scheduling policies, with work accounting.
//!
//! Link-reversal complexity results count **total reversals** (work) and
//! **rounds** (greedy schedule depth). The run loop records both, plus the
//! per-node work vector used by the game-theoretic comparison (E10) and
//! NewPR's dummy-step count (E9).
//!
//! Every entry point shares one driver (`drive`), so policy, budget, and
//! stats logic exists once:
//!
//! * [`run_engine_frontier`] — reads the engine's incrementally
//!   maintained enabled view, steps through the zero-allocation
//!   [`FrontierEngine::step_into`] pipeline (one [`StepScratch`] per
//!   run), and batches each greedy round's enabled-set edits into one
//!   merge;
//! * [`run_engine_frontier_sharded`] — greedy rounds with the plan
//!   phase **fanned out** across worker threads, sharded by contiguous
//!   node ranges (each worker owns a fixed slice of the id space and
//!   plans the enabled nodes that fall in it); bit-identical to the
//!   sequential greedy run at every thread count.
//!
//! The incremental enabled view stays falsifiable from outside: the
//! differential suite (`tests/csr_differential.rs`) compares it with an
//! `is_sink` rescan after every single step and at every greedy-round
//! boundary, on every engine configuration.

use std::collections::BTreeMap;
use std::sync::Arc;

use lr_graph::{CsrGraph, NodeId};
use lr_obs::MetricsShard;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::alg::FrontierEngine;
use crate::{par, PlanAux, StepOutcome, StepScratch};

/// Scheduling policy for [`run_engine_frontier`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulePolicy {
    /// Every current sink steps once per round (the paper's `reverse(S)`
    /// with `S` = all sinks). Since sinks are pairwise non-adjacent this
    /// equals a maximal simultaneous step.
    GreedyRounds,
    /// One uniformly random enabled node steps at a time.
    RandomSingle {
        /// PRNG seed; equal seeds give equal executions.
        seed: u64,
    },
    /// The smallest-id enabled node steps.
    FirstSingle,
    /// The largest-id enabled node steps.
    LastSingle,
}

/// Aggregate statistics of one run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunStats {
    /// Algorithm name as reported by the engine.
    pub algorithm: &'static str,
    /// Total node-steps taken (including dummy steps).
    pub steps: usize,
    /// Total edge reversals across all steps.
    pub total_reversals: usize,
    /// NewPR dummy steps (zero for other algorithms).
    pub dummy_steps: usize,
    /// Number of greedy rounds (only meaningful for
    /// [`SchedulePolicy::GreedyRounds`]; equals `steps` otherwise).
    pub rounds: usize,
    /// Per-node step counts indexed by **dense CSR node index** — the
    /// work vector of the game-theoretic analysis (each node's "cost").
    /// Use [`RunStats::work_per_node`] for the node-keyed map view.
    pub work: Vec<usize>,
    /// Sum over scheduling iterations of the enabled-set size at the
    /// start of the iteration (the "frontier occupancy" integral).
    /// Under [`SchedulePolicy::GreedyRounds`] with no budget cut this
    /// equals [`RunStats::steps`] exactly — every snapshotted sink
    /// steps once — which the obs agreement suite asserts per family.
    pub frontier_occupancy: usize,
    /// Whether the run reached quiescence within the step budget.
    pub terminated: bool,
}

impl RunStats {
    /// The maximum work performed by any single node.
    pub fn max_node_work(&self) -> usize {
        self.work.iter().copied().max().unwrap_or(0)
    }

    /// The social cost in the sense of Charron-Bost et al.: the total
    /// number of steps taken by all nodes.
    pub fn social_cost(&self) -> usize {
        self.steps
    }

    /// The work vector as a node-keyed map, derived on demand from the
    /// dense [`RunStats::work`] vector (`csr` must be the engine's CSR
    /// snapshot). Only the node-keyed reports (E10) pay for the map.
    pub fn work_per_node(&self, csr: &CsrGraph) -> BTreeMap<NodeId, usize> {
        csr.nodes()
            .enumerate()
            .map(|(i, u)| (u, self.work[i]))
            .collect()
    }

    /// The run's deterministic metrics, **derived** from the stats the
    /// run loop already books — the obs counters are a projection of
    /// `RunStats`, never a second tally, so per-step work cannot be
    /// double-booked between the work vector and the observability
    /// layer (the agreement suite in `tests/obs_metrics.rs` pins this
    /// for every family × policy, sharded runs included).
    pub fn metrics(&self) -> MetricsShard {
        let mut m = MetricsShard::new();
        m.add("engine.steps", self.steps as u64);
        m.add("engine.reversals", self.total_reversals as u64);
        m.add("engine.dummy_steps", self.dummy_steps as u64);
        m.add("engine.rounds", self.rounds as u64);
        m.add("engine.frontier_occupancy", self.frontier_occupancy as u64);
        m.add("engine.terminated_runs", u64::from(self.terminated));
        m.record_max("engine.max_node_work", self.max_node_work() as u64);
        m
    }
}

/// Default safety budget: generous for Θ(n²) workloads on benchmark sizes.
pub const DEFAULT_MAX_STEPS: usize = 50_000_000;

/// Per-step bookkeeping shared by every scheduling arm of the run loop:
/// step/reversal/dummy counters plus a dense work vector indexed by the
/// CSR node index carried in each [`StepOutcome`] (no per-step map or
/// index lookups).
struct StepBook {
    steps: usize,
    total_reversals: usize,
    dummy_steps: usize,
    work: Vec<usize>,
    frontier_occupancy: usize,
}

impl StepBook {
    fn new(node_count: usize) -> Self {
        StepBook {
            steps: 0,
            total_reversals: 0,
            dummy_steps: 0,
            work: vec![0; node_count],
            frontier_occupancy: 0,
        }
    }

    fn record(&mut self, outcome: &StepOutcome) {
        self.steps += 1;
        self.total_reversals += outcome.reversal_count;
        if outcome.dummy {
            self.dummy_steps += 1;
        }
        self.work[outcome.node_idx] += 1;
    }

    fn into_stats(self, algorithm: &'static str, rounds: usize, terminated: bool) -> RunStats {
        RunStats {
            algorithm,
            steps: self.steps,
            total_reversals: self.total_reversals,
            dummy_steps: self.dummy_steps,
            rounds,
            work: self.work,
            frontier_occupancy: self.frontier_occupancy,
            terminated,
        }
    }
}

/// One greedy round through the zero-allocation pipeline with batched
/// enabled-set edits: every sink in `snapshot` steps once (stopping at
/// the budget). Shared by `drive`'s sequential rounds and the
/// small-round fast path of its parallel rounds, so the loops stay in
/// lockstep by construction — the bit-identical guarantee depends on it.
fn greedy_round_zero_alloc(
    engine: &mut dyn FrontierEngine,
    snapshot: &[NodeId],
    book: &mut StepBook,
    scratch: &mut StepScratch,
    max_steps: usize,
) {
    engine.begin_round();
    for &u in snapshot {
        let outcome = engine.step_into(u, scratch);
        book.record(&outcome);
        if book.steps >= max_steps {
            break;
        }
    }
    engine.end_round();
}

/// Obs handles for one `drive` invocation, resolved once at run start
/// and only when a session is recording. When no session records the
/// `Option` is `None` and each scheduling iteration pays one
/// predictable local branch — the per-step hot loops
/// ([`greedy_round_zero_alloc`], the plan/apply phases) are not
/// instrumented at all.
struct DriveObs {
    run_span: lr_obs::Span,
    round_span: lr_obs::SpanHandle,
    frontier_hist: lr_obs::Histogram,
}

impl DriveObs {
    fn resolve(algorithm: &'static str) -> DriveObs {
        DriveObs {
            run_span: lr_obs::span("engine", format!("engine.run {algorithm}")),
            round_span: lr_obs::span_handle("engine", "engine.round"),
            frontier_hist: lr_obs::histogram("engine.round_frontier"),
        }
    }
}

fn drive(
    engine: &mut dyn FrontierEngine,
    policy: SchedulePolicy,
    max_steps: usize,
    parallel: Option<ParallelConfig>,
) -> RunStats {
    let algorithm = engine.algorithm_name();
    let mut obs = lr_obs::enabled().then(|| DriveObs::resolve(algorithm));
    let csr = Arc::clone(engine.csr());
    let mut book = StepBook::new(csr.node_count());
    let mut rounds = 0usize;
    let mut terminated = false;
    let mut rng = match policy {
        SchedulePolicy::RandomSingle { seed } => Some(SmallRng::seed_from_u64(seed)),
        _ => None,
    };
    let mut scratch = StepScratch::new();
    // Reusable greedy-round snapshot. The single-step policies never
    // touch it — they read the engine's view directly.
    let mut snapshot: Vec<NodeId> = Vec::new();
    // A worker beyond one per node would own an empty slice of the id
    // space, so the requested count is capped there and at the shared
    // worker ceiling; results are bit-identical at every count either
    // way.
    let parallel = parallel.map(|cfg| ParallelConfig {
        threads: par::worker_count(cfg.threads, csr.node_count()),
        ..cfg
    });
    // Per-worker plan shards, reused across rounds (empty when the run
    // is sequential).
    let mut shards: Vec<PlanShard> = match parallel {
        Some(cfg) => (0..cfg.threads).map(|_| PlanShard::default()).collect(),
        None => Vec::new(),
    };
    loop {
        if engine.is_terminated() {
            terminated = true;
            break;
        }
        if book.steps >= max_steps {
            break;
        }
        // Frontier occupancy at the start of the iteration: the
        // enabled-set size every scheduling arm is about to draw from.
        // Identical for serial and sharded rounds (same snapshot) — so
        // the differential suites keep comparing whole `RunStats` values.
        let frontier_len = engine.enabled().len();
        book.frontier_occupancy += frontier_len;
        let _round_span = obs.as_ref().map(|o| {
            o.frontier_hist.observe(frontier_len as u64);
            let mut span = o.round_span.start();
            span.arg("frontier", frontier_len as u64);
            span
        });
        rounds += 1;
        let u = match policy {
            SchedulePolicy::GreedyRounds => {
                // A maximal simultaneous step: every sink in the snapshot
                // steps once. Sinks are pairwise non-adjacent, so
                // sequential application equals the set action — and no
                // one reads the enabled view until the round ends, so the
                // engine batches its enabled-set edits into one merge.
                snapshot.clear();
                snapshot.extend_from_slice(engine.enabled());
                match parallel {
                    Some(cfg) => planned_parallel_round(
                        engine,
                        &csr,
                        &snapshot,
                        &mut book,
                        &mut scratch,
                        &mut shards,
                        cfg,
                        max_steps,
                    ),
                    None => greedy_round_zero_alloc(
                        engine,
                        &snapshot,
                        &mut book,
                        &mut scratch,
                        max_steps,
                    ),
                }
                continue;
            }
            SchedulePolicy::RandomSingle { .. } => {
                let rng = rng.as_mut().expect("rng initialized for RandomSingle");
                *engine.enabled().choose(rng).expect("enabled non-empty")
            }
            SchedulePolicy::FirstSingle => *engine.enabled().first().expect("non-empty"),
            SchedulePolicy::LastSingle => *engine.enabled().last().expect("non-empty"),
        };
        let outcome = engine.step_into(u, &mut scratch);
        book.record(&outcome);
    }
    let stats = book.into_stats(algorithm, rounds, terminated);
    if let Some(obs) = obs.as_mut() {
        obs.run_span.arg("steps", stats.steps as u64);
        obs.run_span.arg("rounds", stats.rounds as u64);
        obs.run_span.arg("reversals", stats.total_reversals as u64);
        // Publish the derived (never re-tallied) metrics shard into the
        // global recorder so the sinks show them next to the timing.
        stats.metrics().publish();
    }
    stats
}

/// The **frontier-driven** run loop: drives `engine` until termination
/// (no enabled node) or until `max_steps` node-steps have been taken,
/// keeping only the enabled frontier (and, inside the engine, its
/// one-hop delta) hot.
///
/// Each greedy round snapshots the enabled frontier into a reusable
/// buffer, steps every frontier node through the zero-allocation
/// pipeline — one [`StepScratch`] for the whole run, no per-step heap
/// traffic after warm-up — and closes the round on
/// [`crate::EnabledTracker`]'s batch merge, so per-round work is
/// O(frontier + reversed edges), never O(n). Single-step policies treat
/// the policy's chosen node as a one-element frontier. The loop touches
/// nothing but the engine's flat arrays, which is what lets the engines
/// run million-node instances.
///
/// The engine is **not** reset first; callers compose runs on partially
/// advanced engines when needed.
pub fn run_engine_frontier(
    engine: &mut dyn FrontierEngine,
    policy: SchedulePolicy,
    max_steps: usize,
) -> RunStats {
    drive(engine, policy, max_steps, None)
}

/// Tuning for [`run_engine_frontier_sharded_with`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelConfig {
    /// Worker-thread count for the plan phase (clamped to 1 ..= the
    /// node count and [`par::MAX_WORKERS`]; 1 means fully sequential).
    pub threads: usize,
    /// Rounds with fewer enabled nodes than this run sequentially —
    /// spawning workers for a handful of sinks costs more than it saves.
    pub min_parallel_round: usize,
}

impl ParallelConfig {
    /// `threads` workers, kept as requested, with the default round-size
    /// cutoff: 64 × the most workers a round can get,
    /// `threads.min(`[`par::MAX_WORKERS`]`)`.
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        ParallelConfig {
            threads,
            min_parallel_round: 64 * threads.min(par::MAX_WORKERS),
        }
    }
}

/// One planned step, pointing into a shard's concatenated slot buffer.
struct PlanRec {
    outcome: StepOutcome,
    start: usize,
    aux: PlanAux,
}

/// Per-worker plan output, reused across rounds.
#[derive(Default)]
struct PlanShard {
    recs: Vec<PlanRec>,
    /// Every planned step's reversed slots, concatenated.
    slots: Vec<u32>,
    scratch: StepScratch,
}

/// Plans one shard of a round against the shared pre-round state.
fn plan_shard(planner: &dyn FrontierEngine, shard: &mut PlanShard, nodes: &[NodeId]) {
    for &u in nodes {
        let outcome = planner.plan_step(u, &mut shard.scratch);
        shard.recs.push(PlanRec {
            outcome,
            start: shard.slots.len(),
            aux: shard.scratch.aux(),
        });
        shard.slots.extend_from_slice(shard.scratch.slots());
    }
}

/// One greedy round with the plan phase fanned out across scoped `std`
/// threads and a sequential apply — `drive`'s parallel round.
///
/// Every worker plans its sub-worklist against the shared **frozen
/// pre-round state** (read-only borrow; a round's sinks are pairwise
/// non-adjacent, so pre-round plans equal mid-round sequential plans).
/// The apply phase then replays all planned steps on the caller thread
/// in snapshot order — each worker's node range is a consecutive
/// subslice of the ascending snapshot — reconciling every boundary
/// half-edge and tracker delta in the deterministic sequential order.
/// Rounds smaller than `cfg.min_parallel_round` (and everything when
/// `cfg.threads == 1`) take the sequential fast path, which is exactly
/// one [`run_engine_frontier`] round.
#[allow(clippy::too_many_arguments)]
fn planned_parallel_round(
    engine: &mut dyn FrontierEngine,
    csr: &CsrGraph,
    snapshot: &[NodeId],
    book: &mut StepBook,
    scratch: &mut StepScratch,
    shards: &mut [PlanShard],
    cfg: ParallelConfig,
    max_steps: usize,
) {
    let threads = cfg.threads;
    if threads == 1 || snapshot.len() < cfg.min_parallel_round {
        // Sequential fast path — exactly one `run_engine_frontier` round.
        greedy_round_zero_alloc(engine, snapshot, book, scratch, max_steps);
        return;
    }
    // Plan phase: workers read the shared pre-round state.
    for shard in shards.iter_mut() {
        shard.recs.clear();
        shard.slots.clear();
    }
    // Worker `k` owns dense indices `[k·⌈n/threads⌉, (k+1)·⌈n/threads⌉)`.
    // The snapshot is ascending by id, and dense CSR indices are
    // ascending by id too, so each worker's sub-worklist is the
    // consecutive run of snapshot entries inside its index range.
    let mut slices: Vec<&[NodeId]> = Vec::with_capacity(threads);
    let chunk = csr.node_count().div_ceil(threads);
    let mut lo = 0usize;
    for k in 0..threads {
        let hi = if k + 1 == threads {
            snapshot.len()
        } else {
            let bound = (k + 1) * chunk;
            lo + snapshot[lo..]
                .partition_point(|&u| csr.index_of(u).expect("enabled node exists") < bound)
        };
        if hi > lo {
            slices.push(&snapshot[lo..hi]);
        }
        lo = hi;
    }
    let planner: &dyn FrontierEngine = engine;
    std::thread::scope(|s| {
        let mut work = shards.iter_mut().zip(slices.iter().copied());
        // The caller thread plans the first shard itself; only the
        // remaining shards pay for a spawn.
        let first = work.next();
        for (shard, nodes) in work {
            s.spawn(move || plan_shard(planner, shard, nodes));
        }
        if let Some((shard, nodes)) = first {
            plan_shard(planner, shard, nodes);
        }
    });
    // Apply phase: shards cover the snapshot in order, so the tracker's
    // out-count deltas merge deterministically.
    engine.begin_round();
    'apply: for shard in shards.iter() {
        for rec in &shard.recs {
            let slots = &shard.slots[rec.start..rec.start + rec.outcome.reversal_count];
            engine.apply_planned(rec.outcome.node_idx, slots, rec.aux);
            book.record(&rec.outcome);
            if book.steps >= max_steps {
                break 'apply;
            }
        }
    }
    engine.end_round();
}

/// [`run_engine_frontier`] for [`SchedulePolicy::GreedyRounds`] with the
/// plan phase **sharded by contiguous node ranges** across worker
/// threads, default tuning. See [`run_engine_frontier_sharded_with`].
pub fn run_engine_frontier_sharded(
    engine: &mut dyn FrontierEngine,
    threads: usize,
    max_steps: usize,
) -> RunStats {
    run_engine_frontier_sharded_with(engine, ParallelConfig::new(threads), max_steps)
}

/// Greedy-rounds execution with **node-range-sharded** parallel
/// planning, explicit tuning.
///
/// The id space is partitioned once into `cfg.threads` contiguous dense-
/// index ranges; each round, every scoped worker thread receives as
/// its sub-worklist the run of enabled nodes falling in its range (a
/// consecutive subslice of the ascending round snapshot) and plans those
/// steps against the frozen pre-round state. The caller thread then
/// applies all planned steps sequentially in snapshot order, reconciling
/// boundary half-edges — a planned reversal whose twin slot lives in
/// another worker's range — and the enabled-tracker deltas in the same
/// deterministic order the sequential schedule would have used. The
/// freeze/shard/fold discipline is PRs 3/5/6's; the resulting
/// [`RunStats`], final state, and enabled sets are **bit-identical** to
/// [`run_engine_frontier`] under [`SchedulePolicy::GreedyRounds`] at
/// every thread count (`tests/frontier_differential.rs`).
///
/// Range sharding gives each worker a stable slice of the id space
/// across rounds — its CSR and direction-bit reads for planning stay
/// within that slice, which is the layout a future multi-process split
/// of the arrays would inherit.
///
/// Rounds smaller than `cfg.min_parallel_round` (and everything when
/// `cfg.threads == 1`) take the sequential fast path. A thread count
/// above the node count or [`par::MAX_WORKERS`] is capped there.
pub fn run_engine_frontier_sharded_with(
    engine: &mut dyn FrontierEngine,
    cfg: ParallelConfig,
    max_steps: usize,
) -> RunStats {
    drive(engine, SchedulePolicy::GreedyRounds, max_steps, Some(cfg))
}

/// Runs and asserts the link-reversal postcondition: the final orientation
/// is acyclic and destination-oriented.
///
/// # Panics
///
/// Panics if the run does not terminate within `max_steps` or the
/// postcondition fails — used by tests and experiments that require
/// completed runs.
pub fn run_to_destination_oriented(
    engine: &mut dyn FrontierEngine,
    policy: SchedulePolicy,
    max_steps: usize,
) -> RunStats {
    let stats = run_engine_frontier(engine, policy, max_steps);
    assert!(
        stats.terminated,
        "{} did not terminate within {max_steps} steps",
        stats.algorithm
    );
    let o = engine.orientation();
    let dest = engine.dest();
    if let Some(&sink) = o.sinks().iter().find(|&&u| u != dest) {
        panic!(
            "{} terminated non-destination-oriented: {sink} is a sink",
            stats.algorithm
        );
    }
    assert!(o.is_acyclic(), "{} broke acyclicity", stats.algorithm);
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alg::{FrontierFamily, FrontierPrEngine};
    use lr_graph::{stream, ReversalInstance};

    fn pr(inst: &ReversalInstance) -> FrontierPrEngine {
        FrontierPrEngine::new(inst.clone())
    }

    #[test]
    fn all_algorithms_terminate_on_chain_under_all_policies() {
        let inst = stream::chain_away(9);
        let policies = [
            SchedulePolicy::GreedyRounds,
            SchedulePolicy::RandomSingle { seed: 3 },
            SchedulePolicy::FirstSingle,
            SchedulePolicy::LastSingle,
        ];
        for family in FrontierFamily::ALL {
            for policy in policies {
                let mut engine = family.engine(inst.clone());
                let stats = run_to_destination_oriented(engine.as_mut(), policy, DEFAULT_MAX_STEPS);
                assert!(stats.terminated);
                assert!(stats.steps > 0);
                assert_eq!(
                    stats.work.iter().sum::<usize>(),
                    stats.steps,
                    "work vector must sum to steps"
                );
            }
        }
    }

    #[test]
    fn greedy_rounds_counts_rounds_not_steps() {
        let mut e = FrontierPrEngine::new(stream::star_away(6)); // 6 sinks step in round 1
        let stats = run_engine_frontier(&mut e, SchedulePolicy::GreedyRounds, DEFAULT_MAX_STEPS);
        assert!(stats.terminated);
        assert!(stats.rounds < stats.steps || stats.steps <= 1);
    }

    #[test]
    fn random_runs_reproducible_by_seed() {
        let inst = stream::random_connected(14, 10, 5);
        let mut a = pr(&inst);
        let sa = run_engine_frontier(&mut a, SchedulePolicy::RandomSingle { seed: 9 }, 100_000);
        let mut b = pr(&inst);
        let sb = run_engine_frontier(&mut b, SchedulePolicy::RandomSingle { seed: 9 }, 100_000);
        assert_eq!(sa, sb);
        assert_eq!(a.orientation(), b.orientation());
    }

    #[test]
    fn newpr_counts_dummy_steps() {
        // Star centered on an initial sink with the destination at a leaf
        // forces dummy steps for the other leaves (initial sources).
        let inst = lr_graph::parse::parse_instance("dest 3\n1 > 0\n2 > 0\n3 > 0").unwrap();
        let mut e = FrontierFamily::NewPr.engine(inst.clone());
        let stats =
            run_to_destination_oriented(e.as_mut(), SchedulePolicy::FirstSingle, DEFAULT_MAX_STEPS);
        assert!(stats.dummy_steps > 0, "expected dummy steps, got none");
        assert!(stats.steps > stats.dummy_steps);
    }

    #[test]
    fn step_budget_is_respected() {
        let mut e = FrontierFamily::FullReversal.engine(stream::chain_away(64));
        let stats = run_engine_frontier(e.as_mut(), SchedulePolicy::FirstSingle, 10);
        assert!(!stats.terminated);
        assert_eq!(stats.steps, 10);
    }

    #[test]
    fn social_cost_and_max_work_accessors() {
        let inst = stream::chain_away(6);
        let mut e = pr(&inst);
        let stats = run_engine_frontier(&mut e, SchedulePolicy::GreedyRounds, DEFAULT_MAX_STEPS);
        assert_eq!(stats.social_cost(), stats.steps);
        assert!(stats.max_node_work() >= 1);
    }

    #[test]
    fn work_per_node_map_mirrors_dense_vector() {
        let inst = stream::alternating_chain(9);
        let mut e = pr(&inst);
        let stats = run_engine_frontier(&mut e, SchedulePolicy::GreedyRounds, DEFAULT_MAX_STEPS);
        let map = stats.work_per_node(e.csr());
        assert_eq!(map.len(), stats.work.len());
        for (i, u) in e.csr().nodes().enumerate() {
            assert_eq!(map[&u], stats.work[i]);
        }
    }

    #[test]
    fn sharded_greedy_is_bit_identical_to_sequential_for_every_family() {
        let flat = stream::alternating_chain(65);
        for family in FrontierFamily::ALL {
            let mut seq = family.engine(flat.clone());
            let seq_stats = run_engine_frontier(
                seq.as_mut(),
                SchedulePolicy::GreedyRounds,
                DEFAULT_MAX_STEPS,
            );
            for threads in [1usize, 2, 4, 8] {
                let mut par = family.engine(flat.clone());
                // min_parallel_round: 0 forces the sharded path even on
                // this small instance.
                let cfg = ParallelConfig {
                    threads,
                    min_parallel_round: 0,
                };
                let par_stats =
                    run_engine_frontier_sharded_with(par.as_mut(), cfg, DEFAULT_MAX_STEPS);
                assert_eq!(
                    par_stats,
                    seq_stats,
                    "{} × {threads} threads",
                    family.name()
                );
                assert_eq!(par.orientation(), seq.orientation());
                assert_eq!(par.enabled(), seq.enabled());
            }
        }
    }

    #[test]
    fn sharded_respects_step_budget() {
        let flat = stream::alternating_chain(65);
        let mut seq = FrontierPrEngine::new(flat.clone());
        let seq_stats = run_engine_frontier(&mut seq, SchedulePolicy::GreedyRounds, 100);
        let mut par = FrontierPrEngine::new(flat);
        let cfg = ParallelConfig {
            threads: 4,
            min_parallel_round: 0,
        };
        let par_stats = run_engine_frontier_sharded_with(&mut par, cfg, 100);
        assert!(!par_stats.terminated);
        assert_eq!(par_stats, seq_stats);
    }

    #[test]
    fn sharded_handles_more_threads_than_nodes() {
        let mut e = FrontierPrEngine::new(stream::chain_away(4));
        let cfg = ParallelConfig {
            threads: 16,
            min_parallel_round: 0,
        };
        let stats = run_engine_frontier_sharded_with(&mut e, cfg, DEFAULT_MAX_STEPS);
        assert!(stats.terminated);
    }

    #[test]
    fn counts_past_the_worker_ceiling_take_the_ceilings_round_cut_off() {
        let (ceiling, absurd) = (ParallelConfig::new(64), ParallelConfig::new(100_000));
        assert_eq!(absurd.min_parallel_round, ceiling.min_parallel_round);
        assert_eq!(ceiling.min_parallel_round, 4096);
        assert_eq!(absurd.threads, 100_000, "the requested count is kept");
        assert_eq!(ParallelConfig::new(usize::MAX).min_parallel_round, 4096);
        assert_eq!(ParallelConfig::new(0), ParallelConfig::new(1));
    }

    #[test]
    fn absurd_thread_counts_are_capped_and_bit_identical() {
        let flat = stream::star_away(5);
        let mut one = FrontierPrEngine::new(flat.clone());
        let want = run_engine_frontier_sharded(&mut one, 1, DEFAULT_MAX_STEPS);
        let mut e = FrontierPrEngine::new(flat.clone());
        let got = run_engine_frontier_sharded(&mut e, usize::MAX, DEFAULT_MAX_STEPS);
        assert_eq!(got, want);
        // Forced onto the sharded path: one worker per node at most.
        let cfg = ParallelConfig {
            threads: usize::MAX,
            min_parallel_round: 0,
        };
        let mut e = FrontierPrEngine::new(flat);
        let got = run_engine_frontier_sharded_with(&mut e, cfg, DEFAULT_MAX_STEPS);
        assert_eq!(got, want);
        assert_eq!(e.orientation(), one.orientation());
    }
}
