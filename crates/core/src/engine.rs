//! The run loop driving [`FrontierEngine`]s to termination under
//! different scheduling policies, with work accounting.
//!
//! Link-reversal complexity results count **total reversals** (work) and
//! **rounds** (greedy schedule depth). The run loop records both, plus the
//! per-node work vector used by the game-theoretic comparison (E10) and
//! NewPR's dummy-step count (E9).
//!
//! There is one run loop, [`run_engine_frontier`], so policy, budget, and
//! stats logic exists once: it reads the engine's incrementally
//! maintained enabled view, steps through the zero-allocation
//! [`FrontierEngine::step_into`] pipeline (one [`StepScratch`] per run),
//! and batches each greedy round's enabled-set edits into one merge.
//! [`run_to_destination_oriented`] runs it and checks the postcondition.
//!
//! The incremental enabled view stays falsifiable from outside: the
//! differential suite (`tests/csr_differential.rs`) compares it with an
//! `is_sink` rescan after every single step and at every greedy-round
//! boundary, on every engine configuration.

use std::collections::BTreeMap;

use lr_graph::{CsrGraph, NodeId};
use lr_obs::MetricsShard;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::alg::FrontierEngine;
use crate::{StepOutcome, StepScratch};

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
    /// for every family × policy).
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

/// Obs handles for one run, resolved once at run start and only when a
/// session is recording. When no session records the `Option` is `None`
/// and each scheduling iteration pays one predictable local branch — the
/// per-step loop is not instrumented at all.
struct RunObs {
    run_span: lr_obs::Span,
    round_span: lr_obs::SpanHandle,
    frontier_hist: lr_obs::Histogram,
}

impl RunObs {
    fn resolve(algorithm: &'static str) -> RunObs {
        RunObs {
            run_span: lr_obs::span("engine", format!("engine.run {algorithm}")),
            round_span: lr_obs::span_handle("engine", "engine.round"),
            frontier_hist: lr_obs::histogram("engine.round_frontier"),
        }
    }
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
    let algorithm = engine.algorithm_name();
    let mut obs = lr_obs::enabled().then(|| RunObs::resolve(algorithm));
    let mut book = StepBook::new(engine.csr().node_count());
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
                // steps once (stopping at the budget). Sinks are pairwise
                // non-adjacent, so sequential application equals the set
                // action — and no one reads the enabled view until the
                // round ends, so the engine batches its enabled-set edits
                // into one merge.
                snapshot.clear();
                snapshot.extend_from_slice(engine.enabled());
                engine.begin_round();
                for &u in &snapshot {
                    let outcome = engine.step_into(u, &mut scratch);
                    book.record(&outcome);
                    if book.steps >= max_steps {
                        break;
                    }
                }
                engine.end_round();
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
}
