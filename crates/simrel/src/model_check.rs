//! Exhaustive model checking over **all** instances of bounded size: every
//! connected graph, every acyclic orientation, every destination.
//!
//! The paper's theorems are universally quantified over this input space
//! (and then over all reachable states). For `n ≤ 4` the space is small
//! enough to enumerate completely, turning each theorem into a finite
//! check; `n = 5` takes seconds, and [`MAX_N`] = 5 is the largest size
//! that fits in memory. [`CheckKind::run`] is the one entry point: it
//! runs one check over every instance of size `n`.
//!
//! ## Parallelism — one axis, one answer
//!
//! [`McOptions::threads`] fans the *instances* of `all_instances(n)` out
//! across crossbeam-scoped workers; each instance's check runs serially
//! on the worker that took it. Per-instance outcomes are folded into the
//! [`ModelCheckSummary`] strictly in enumeration order through a reorder
//! buffer, so the summary — counts, first violation, truncation — is
//! **bit-identical at every thread count**. The `lr modelcheck --threads`
//! flag sets it.
//!
//! ## Truncation is a hard error
//!
//! A truncated exploration (state or pair budget exhausted) previously
//! tripped only a `debug_assert!`, which vanishes in release builds — a
//! truncated sweep could silently count as verified. Truncation is now
//! carried in [`ModelCheckSummary::truncated`] and fails
//! [`ModelCheckSummary::verified`].

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use lr_core::alg::{NewPrAutomaton, OneStepPrAutomaton, PrSetAutomaton};
use lr_core::invariants::{newpr_invariants, onestep_pr_invariants, pr_set_invariants};
use lr_graph::enumerate::all_instances;
use lr_graph::ReversalInstance;
use lr_ioa::explore::{check_termination, explore, ExplorationReport, TerminationResult};
use lr_ioa::{ExhaustiveSimReport, SimulationError};

use crate::{r_checker, r_prime_checker, rev_r_checker, rev_r_prime_checker};

/// Aggregate result of a model-checking sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelCheckSummary {
    /// Instances (graph × orientation × destination) checked.
    pub instances: usize,
    /// Total distinct states visited across all instances.
    pub states_visited: usize,
    /// Total transitions traversed.
    pub transitions: usize,
    /// Worst-case execution length over all instances: the longest path
    /// in any reachable state graph for [`CheckKind::Termination`], 0 for
    /// every other check.
    pub longest_execution: usize,
    /// Description of the first violation, if any.
    pub first_violation: Option<String>,
    /// Description of the first truncated (budget-limited, hence
    /// inconclusive) per-instance check, if any. A truncated sweep is
    /// **not** verified.
    pub truncated: Option<String>,
}

impl ModelCheckSummary {
    /// `true` when every instance was checked to completion and no
    /// violation was found. Truncation means the check was inconclusive,
    /// so it also fails verification.
    pub fn verified(&self) -> bool {
        self.first_violation.is_none() && self.truncated.is_none()
    }
}

/// Parallelism and budget knobs for [`CheckKind::run`].
#[derive(Debug, Clone)]
pub struct McOptions {
    /// Worker threads: instances of `all_instances(n)` fan out across
    /// this many crossbeam-scoped workers. `1` = serial.
    pub threads: usize,
    /// Per-instance state/pair budget; exhausting it is reported as
    /// truncation (a hard error), never silently ignored.
    pub max_states: usize,
}

impl Default for McOptions {
    fn default() -> Self {
        McOptions {
            threads: 1,
            max_states: 5_000_000,
        }
    }
}

impl McOptions {
    /// These options with a different thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }
}

/// The largest instance size the checker takes. Every check materializes
/// `all_instances(n)` at about 850 B an instance: 132,150 instances
/// (about 113 MB) at n = 5, but 21,580,572 (about 18 GB) at n = 6.
pub const MAX_N: usize = 5;

/// Parses a size argument: `Ok(n)` for an integer in `2..=MAX_N`,
/// otherwise an error naming the argument and the range.
pub fn parse_size(arg: &str) -> Result<usize, String> {
    arg.parse::<usize>()
        .ok()
        .filter(|n| (2..=MAX_N).contains(n))
        .ok_or_else(|| format!("modelcheck needs a size n in 2..={MAX_N}, got {arg:?}"))
}

// ───────────────────── the instance sweep driver ─────────────────────

/// Everything one instance's check contributes to the summary.
#[derive(Default)]
struct InstanceOutcome {
    states: usize,
    transitions: usize,
    violation: Option<String>,
    truncation: Option<String>,
    /// Worst-case execution length (termination checks; 0 elsewhere).
    longest_execution: usize,
}

/// The in-order fold: outcomes submitted in any order fold into the
/// summary strictly in enumeration order (0, 1, 2, …), early arrivals
/// parked until the gap fills. It makes the parallel sweep's fold
/// sequence — and therefore its summary — independent of worker
/// scheduling.
struct SweepFold {
    summary: ModelCheckSummary,
    /// Enumeration index of the next outcome to fold.
    next: usize,
    /// Finished-but-out-of-order outcomes.
    parked: BTreeMap<usize, InstanceOutcome>,
    /// Set once a violation or truncation folds; later instances (in
    /// enumeration order) are not folded, matching the serial early
    /// return.
    stopped: bool,
}

impl SweepFold {
    fn new() -> Self {
        SweepFold {
            summary: ModelCheckSummary {
                instances: 0,
                states_visited: 0,
                transitions: 0,
                longest_execution: 0,
                first_violation: None,
                truncated: None,
            },
            next: 0,
            parked: BTreeMap::new(),
            stopped: false,
        }
    }

    /// Submits the outcome of instance `index`, folding it — and any
    /// parked successors it unblocks — in index order.
    fn submit(&mut self, index: usize, outcome: InstanceOutcome) {
        self.parked.insert(index, outcome);
        while let Some(out) = self.parked.remove(&self.next) {
            let index = self.next;
            self.next += 1;
            if self.stopped {
                continue;
            }
            let s = &mut self.summary;
            s.instances += 1;
            s.states_visited += out.states;
            s.transitions += out.transitions;
            s.longest_execution = s.longest_execution.max(out.longest_execution);
            if let Some(v) = out.violation {
                s.first_violation = Some(v);
                self.stopped = true;
            } else if let Some(t) = out.truncation {
                s.truncated = Some(format!("instance #{index}: {t}"));
                self.stopped = true;
            }
        }
    }
}

/// Runs `per` over every instance, folding outcomes **in enumeration
/// order** into one summary: serial when `opts.threads <= 1`, otherwise
/// fanned out over crossbeam-scoped workers (at most one per instance)
/// pulling from a shared cursor into one [`SweepFold`] — bit-identical
/// either way. Stops folding (and stops handing out instances) at the
/// first violation or truncation, like the serial sweep's early return.
fn sweep_instances<F>(instances: &[ReversalInstance], opts: &McOptions, per: F) -> ModelCheckSummary
where
    F: Fn(&ReversalInstance) -> InstanceOutcome + Sync,
{
    let threads = opts.threads.clamp(1, instances.len().max(1));
    if threads == 1 {
        let mut fold = SweepFold::new();
        for (i, inst) in instances.iter().enumerate() {
            if fold.stopped {
                break;
            }
            fold.submit(i, per(inst));
        }
        return fold.summary;
    }

    let fold = Mutex::new(SweepFold::new());
    let cursor = AtomicUsize::new(0);
    crossbeam::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|_| loop {
                if fold.lock().expect("sweep fold lock").stopped {
                    break;
                }
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= instances.len() {
                    break;
                }
                let out = per(&instances[i]);
                fold.lock().expect("sweep fold lock").submit(i, out);
            });
        }
    })
    .expect("scoped sweep workers run");
    fold.into_inner().expect("workers joined").summary
}

// ───────────────────── per-instance outcomes ─────────────────────

fn explore_outcome(report: ExplorationReport) -> InstanceOutcome {
    InstanceOutcome {
        states: report.states_visited,
        transitions: report.transitions,
        violation: report.violation.map(|v| v.to_string()),
        truncation: report.truncated.then(|| {
            format!(
                "exploration truncated after {} states (budget exhausted)",
                report.states_visited
            )
        }),
        longest_execution: 0,
    }
}

fn sim_outcome(result: Result<ExhaustiveSimReport, SimulationError>) -> InstanceOutcome {
    match result {
        Ok(report) => InstanceOutcome {
            states: report.pairs_visited,
            transitions: report.transitions_matched,
            truncation: (!report.complete).then(|| {
                format!(
                    "simulation pair space truncated after {} pairs (budget exhausted)",
                    report.pairs_visited
                )
            }),
            ..InstanceOutcome::default()
        },
        Err(e) => InstanceOutcome {
            violation: Some(e.to_string()),
            ..InstanceOutcome::default()
        },
    }
}

/// Termination of NewPR, then of OneStepPR, on one instance; the first
/// divergence or exhausted budget ends the instance's check.
fn termination_outcome(
    np: &NewPrAutomaton<'_>,
    os: &OneStepPrAutomaton<'_>,
    max_states: usize,
) -> InstanceOutcome {
    let mut out = InstanceOutcome::default();
    if fold_termination(&mut out, "NewPR", check_termination(np, max_states)) {
        fold_termination(&mut out, "OneStepPR", check_termination(os, max_states));
    }
    out
}

/// Folds one automaton's termination verdict into the instance outcome;
/// returns `false` when the verdict ends the instance's check.
fn fold_termination(out: &mut InstanceOutcome, who: &str, res: TerminationResult) -> bool {
    match res {
        TerminationResult::Terminates {
            states,
            longest_execution,
        } => {
            out.states += states;
            out.longest_execution = out.longest_execution.max(longest_execution);
            true
        }
        TerminationResult::Diverges { witness_depth } => {
            out.violation = Some(format!(
                "{who}: Diverges {{ witness_depth: {witness_depth} }}"
            ));
            false
        }
        TerminationResult::Unknown => {
            out.truncation = Some(format!("{who}: termination check hit the state budget"));
            false
        }
    }
}

// ───────────────────── the check battery ─────────────────────

/// One of the eight model checks. [`CheckKind::run`] runs it over every
/// instance of a given size; the `lr modelcheck` CLI, the experiment
/// binaries and the benchmark all go through it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckKind {
    /// E1/E2: Invariants 3.1, 4.1, 4.2 and Theorem 4.3 in every reachable
    /// state of NewPR.
    NewPr,
    /// E3: Invariants 3.1, 3.2, Corollaries 3.3/3.4 and acyclicity in
    /// every reachable state of `OneStepPR`.
    OneStepPr,
    /// E3 (set actions): the same checks for the original `PR` automaton
    /// with simultaneous `reverse(S)` actions.
    PrSet,
    /// E4 (Theorem 5.2): the `R'` forward-simulation obligations
    /// (PR → OneStepPR) over the full reachable pair space.
    RPrime,
    /// E5 (Theorem 5.4): the `R` forward-simulation obligations
    /// (OneStepPR → NewPR) over the full reachable pair space.
    R,
    /// §6 extension: the **reverse** relation `R⁻` (NewPR → OneStepPR,
    /// dummy steps stuttering).
    RevR,
    /// §6 extension: the reverse of `R'` (OneStepPR → PR via singleton
    /// sets).
    RevRPrime,
    /// The Gafni–Bertsekas **termination** guarantee: the reachable state
    /// graphs of NewPR and OneStepPR are acyclic, so every execution under
    /// every schedule is finite. Records the worst-case execution length
    /// in [`ModelCheckSummary::longest_execution`].
    Termination,
}

impl CheckKind {
    /// Every check, in the canonical battery order.
    pub const ALL: [CheckKind; 8] = [
        CheckKind::NewPr,
        CheckKind::OneStepPr,
        CheckKind::PrSet,
        CheckKind::RPrime,
        CheckKind::R,
        CheckKind::RevR,
        CheckKind::RevRPrime,
        CheckKind::Termination,
    ];

    /// Stable machine-readable key (CLI `--checks`, span names).
    pub fn key(self) -> &'static str {
        match self {
            CheckKind::NewPr => "newpr",
            CheckKind::OneStepPr => "onestep",
            CheckKind::PrSet => "prset",
            CheckKind::RPrime => "rprime",
            CheckKind::R => "r",
            CheckKind::RevR => "revr",
            CheckKind::RevRPrime => "revrprime",
            CheckKind::Termination => "termination",
        }
    }

    /// Human-readable description for report tables.
    pub fn title(self) -> &'static str {
        match self {
            CheckKind::NewPr => "NewPR invariants + Thm 4.3",
            CheckKind::OneStepPr => "OneStepPR invariants",
            CheckKind::PrSet => "PR (set actions) invariants",
            CheckKind::RPrime => "R' simulation (Thm 5.2)",
            CheckKind::R => "R simulation (Thm 5.4)",
            CheckKind::RevR => "reverse R (§6)",
            CheckKind::RevRPrime => "reverse R' (§6)",
            CheckKind::Termination => "termination (GB)",
        }
    }

    /// Parses a [`key`](CheckKind::key) back into a kind.
    pub fn from_key(key: &str) -> Option<CheckKind> {
        CheckKind::ALL.iter().copied().find(|k| k.key() == key)
    }

    /// Runs this check on every instance of size `n` with the given
    /// options.
    ///
    /// # Panics
    ///
    /// If `n > MAX_N`, before any instance is enumerated.
    pub fn run(self, n: usize, opts: &McOptions) -> ModelCheckSummary {
        assert!(
            n <= MAX_N,
            "model check size {n} is above MAX_N = {MAX_N}: all_instances({n}) does not fit in memory"
        );
        let budget = opts.max_states;
        sweep_instances(&all_instances(n), opts, |inst| {
            let np = NewPrAutomaton { inst };
            let os = OneStepPrAutomaton { inst };
            let pr = PrSetAutomaton { inst };
            match self {
                CheckKind::NewPr => explore_outcome(explore(&np, &newpr_invariants(inst), budget)),
                CheckKind::OneStepPr => {
                    explore_outcome(explore(&os, &onestep_pr_invariants(inst), budget))
                }
                CheckKind::PrSet => explore_outcome(explore(&pr, &pr_set_invariants(inst), budget)),
                CheckKind::RPrime => {
                    sim_outcome(r_prime_checker(inst).check_exhaustive(&pr, &os, budget))
                }
                CheckKind::R => sim_outcome(r_checker(inst).check_exhaustive(&os, &np, budget)),
                CheckKind::RevR => {
                    sim_outcome(rev_r_checker(inst).check_exhaustive(&np, &os, budget))
                }
                CheckKind::RevRPrime => {
                    sim_outcome(rev_r_prime_checker(inst).check_exhaustive(&os, &pr, budget))
                }
                CheckKind::Termination => termination_outcome(&np, &os, budget),
            }
        })
    }
}

/// One timed battery entry: a check, its summary, and its wall-clock.
#[derive(Debug, Clone)]
pub struct BatteryRow {
    /// Which check ran.
    pub kind: CheckKind,
    /// The sweep's summary.
    pub summary: ModelCheckSummary,
    /// Wall-clock time of the sweep, nanoseconds.
    pub elapsed_ns: u64,
}

/// The model-check battery behind `lr modelcheck`: runs `checks` at size
/// `n` with the given options, timing each sweep.
///
/// When an `lr-obs` session is recording, each check gets a
/// `modelcheck.check <key>` span, and the battery publishes
/// `modelcheck.*` counters derived from the deterministic summaries —
/// the sweeps themselves are bit-identical at every thread count, so
/// the published metrics are too.
pub fn run_battery(n: usize, checks: &[CheckKind], opts: &McOptions) -> Vec<BatteryRow> {
    let rows: Vec<BatteryRow> = checks
        .iter()
        .map(|&kind| {
            let mut span = lr_obs::enabled()
                .then(|| lr_obs::span("modelcheck", format!("modelcheck.check {}", kind.key())));
            let start = Instant::now();
            let summary = kind.run(n, opts);
            if let Some(span) = span.as_mut() {
                span.arg("n", n as u64);
                span.arg("instances", summary.instances as u64);
                span.arg("states", summary.states_visited as u64);
            }
            BatteryRow {
                kind,
                summary,
                elapsed_ns: start.elapsed().as_nanos() as u64,
            }
        })
        .collect();
    if lr_obs::enabled() {
        battery_metrics(&rows).publish();
    }
    rows
}

/// Derives the battery's deterministic metrics shard from its rows —
/// a projection of the summaries, never a second tally.
pub fn battery_metrics(rows: &[BatteryRow]) -> lr_obs::MetricsShard {
    let mut m = lr_obs::MetricsShard::new();
    for row in rows {
        m.add("modelcheck.checks", 1);
        m.add("modelcheck.instances", row.summary.instances as u64);
        m.add("modelcheck.states", row.summary.states_visited as u64);
        m.add("modelcheck.transitions", row.summary.transitions as u64);
        m.add(
            "modelcheck.verified_checks",
            u64::from(row.summary.verified()),
        );
        m.record_max(
            "modelcheck.max_states_per_check",
            row.summary.states_visited as u64,
        );
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use lr_graph::enumerate::{connected_graphs, tutte};
    use lr_ioa::Automaton;
    use proptest::prelude::*;
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};

    /// (instances, states, transitions, longest execution) of one check.
    type Counts = (usize, usize, usize, usize);

    /// Every check's counts in [`CheckKind::ALL`] order, as `lr modelcheck`
    /// prints them.
    const PINNED: [(usize, [Counts; 8]); 2] = [
        (
            3,
            [
                (54, 123, 72, 0),
                (54, 117, 66, 0),
                (54, 117, 69, 0),
                (54, 117, 69, 0),
                (54, 117, 66, 0),
                (54, 123, 72, 0),
                (54, 117, 66, 0),
                (54, 240, 0, 3),
            ],
        ),
        (
            4,
            [
                (1_784, 5_868, 4_632, 0),
                (1_784, 5_388, 4_044, 0),
                (1_784, 5_388, 4_492, 0),
                (1_784, 5_388, 4_492, 0),
                (1_784, 5_388, 4_044, 0),
                (1_784, 5_868, 4_632, 0),
                (1_784, 5_388, 4_044, 0),
                (1_784, 11_256, 0, 6),
            ],
        ),
    ];

    #[test]
    fn every_check_verifies_with_pinned_counts_at_n3_and_n4() {
        let opts = McOptions::default();
        for (n, rows) in PINNED {
            for (kind, want) in CheckKind::ALL.into_iter().zip(rows) {
                let s = kind.run(n, &opts);
                assert!(s.verified(), "{} at n={n}: {s:?}", kind.key());
                assert_eq!(
                    (
                        s.instances,
                        s.states_visited,
                        s.transitions,
                        s.longest_execution
                    ),
                    want,
                    "{} at n={n}",
                    kind.key()
                );
            }
        }
    }

    /// Instances whose NewPR initial state is already quiescent, i.e.
    /// whose destination is the orientation's only sink.
    fn quiescent_initial_instances(n: usize) -> usize {
        all_instances(n)
            .iter()
            .filter(|inst| {
                let aut = NewPrAutomaton { inst };
                aut.is_quiescent(&aut.initial_state())
            })
            .count()
    }

    /// Greene–Zaslavsky: for any node `d`, `T_G(1, 0)` acyclic
    /// orientations of `G` have `d` as their unique sink. So the instances
    /// that start quiescent number `Σ_G n · T_G(1, 0)`.
    fn greene_zaslavsky_count(n: usize) -> usize {
        connected_graphs(n)
            .iter()
            .map(|g| usize::try_from(tutte(g, 1, 0)).expect("a count") * n)
            .sum()
    }

    #[test]
    fn quiescent_initial_instances_match_greene_zaslavsky() {
        for (n, count) in [(3, 15), (4, 316)] {
            assert_eq!(greene_zaslavsky_count(n), count);
            assert_eq!(quiescent_initial_instances(n), count);
        }
    }

    #[test]
    #[ignore = "all_instances(5) takes seconds in a debug build; run with --ignored"]
    fn quiescent_initial_instances_match_greene_zaslavsky_at_n5() {
        assert_eq!(greene_zaslavsky_count(5), 16_885);
        assert_eq!(quiescent_initial_instances(5), 16_885);
    }

    #[test]
    fn truncation_is_a_hard_error_not_a_debug_assert() {
        // Regression for the silent-truncation hazard: with a tiny state
        // budget the sweep must fail verification in *every* build
        // profile, carrying the truncation reason — not a violation. The
        // simulation checkers' pair budget and the termination bound are
        // held to the same rule.
        let opts = McOptions {
            max_states: 2,
            ..McOptions::default()
        };
        for kind in [CheckKind::NewPr, CheckKind::RPrime, CheckKind::Termination] {
            let s = kind.run(3, &opts);
            assert!(
                !s.verified(),
                "{}: truncated sweep must not verify",
                kind.key()
            );
            assert!(
                s.truncated.is_some(),
                "{}: truncation must be reported",
                kind.key()
            );
            assert!(
                s.first_violation.is_none(),
                "{}: truncation is not a violation: {:?}",
                kind.key(),
                s.first_violation
            );
        }
    }

    #[test]
    fn parallel_sweeps_bit_identical_to_serial_at_n3() {
        let serial = McOptions::default();
        for threads in [2usize, 4, 8] {
            let par = McOptions::default().with_threads(threads);
            for kind in CheckKind::ALL {
                assert_eq!(
                    kind.run(3, &serial),
                    kind.run(3, &par),
                    "{} diverged at threads={threads}",
                    kind.key()
                );
            }
        }
    }

    #[test]
    fn absurd_thread_counts_are_capped_at_the_instance_count() {
        let serial = McOptions::default();
        let huge = McOptions::default().with_threads(usize::MAX);
        for kind in CheckKind::ALL {
            assert_eq!(kind.run(2, &serial), kind.run(2, &huge), "{}", kind.key());
        }
    }

    #[test]
    fn battery_rows_verify_every_instance_in_check_order() {
        let opts = McOptions::default().with_threads(2);
        let checks = [CheckKind::NewPr, CheckKind::Termination];
        let rows = run_battery(3, &checks, &opts);
        assert_eq!(rows.len(), 2);
        for (row, kind) in rows.iter().zip(checks) {
            assert!(row.summary.verified(), "{:?}", row.summary);
            assert_eq!(row.kind, kind);
            assert_eq!(row.summary.instances, 54);
        }
    }

    #[test]
    fn battery_metrics_are_a_projection_of_the_summaries() {
        let opts = McOptions::default();
        let rows = run_battery(3, &[CheckKind::NewPr], &opts);
        let m = battery_metrics(&rows);
        assert_eq!(m.count("modelcheck.checks"), 1);
        assert_eq!(
            m.count("modelcheck.instances"),
            rows[0].summary.instances as u64
        );
        assert_eq!(
            m.count("modelcheck.states"),
            rows[0].summary.states_visited as u64
        );
        assert_eq!(
            m.max("modelcheck.max_states_per_check"),
            rows[0].summary.states_visited as u64
        );
    }

    #[test]
    fn truncated_parallel_sweeps_bit_identical_to_serial() {
        // The early-stop path (violation/truncation mid-enumeration) must
        // also fold identically at every thread count.
        let tiny = McOptions {
            max_states: 2,
            ..McOptions::default()
        };
        let serial = CheckKind::NewPr.run(3, &tiny);
        for threads in [2usize, 4, 8] {
            let par = tiny.clone().with_threads(threads);
            assert_eq!(serial, CheckKind::NewPr.run(3, &par));
        }
    }

    #[test]
    #[should_panic(expected = "above MAX_N")]
    fn run_rejects_a_size_above_max_n_before_enumerating() {
        CheckKind::NewPr.run(MAX_N + 1, &McOptions::default());
    }

    #[test]
    fn check_kind_keys_round_trip() {
        for kind in CheckKind::ALL {
            assert_eq!(CheckKind::from_key(kind.key()), Some(kind));
            assert!(!kind.title().is_empty());
        }
        assert_eq!(CheckKind::from_key("nonsense"), None);
    }

    /// The outcome of instance `i` in the fold tests: `i` states, one
    /// transition, truncated when `i == stop`.
    fn outcome(i: usize, stop: usize) -> InstanceOutcome {
        InstanceOutcome {
            states: i,
            transitions: 1,
            truncation: (i == stop).then(|| "budget".to_string()),
            ..InstanceOutcome::default()
        }
    }

    #[test]
    fn sweep_fold_parks_early_arrivals_until_the_gap_fills() {
        let mut fold = SweepFold::new();
        fold.submit(2, outcome(2, usize::MAX));
        assert_eq!(
            (fold.parked.len(), fold.next, fold.summary.instances),
            (1, 0, 0)
        );
        fold.submit(0, outcome(0, usize::MAX));
        assert_eq!(
            (fold.parked.len(), fold.next, fold.summary.instances),
            (1, 1, 1)
        );
        fold.submit(1, outcome(1, usize::MAX));
        assert_eq!(
            (fold.parked.len(), fold.next, fold.summary.instances),
            (0, 3, 3)
        );
        assert_eq!(fold.summary.states_visited, 3);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Any submission order folds to the in-order summary, which stops
        /// at the first truncated instance.
        #[test]
        fn sweep_fold_linearizes_any_permutation(
            len in 0usize..64,
            stop in 0usize..80,
            seed in any::<u64>(),
        ) {
            // A seeded permutation of 0..len: sort the indices by a keyed
            // hash.
            let mut order: Vec<usize> = (0..len).collect();
            order.sort_by_key(|&i| {
                let mut h = DefaultHasher::new();
                (seed, i).hash(&mut h);
                h.finish()
            });
            let mut fold = SweepFold::new();
            for &i in &order {
                fold.submit(i, outcome(i, stop));
            }
            let folded = len.min(stop + 1);
            prop_assert_eq!(fold.next, len);
            prop_assert_eq!(fold.parked.len(), 0);
            prop_assert_eq!(
                (fold.summary.instances, fold.summary.states_visited, fold.summary.transitions),
                (folded, folded * folded.saturating_sub(1) / 2, folded)
            );
            let want = (stop < len).then(|| format!("instance #{stop}: budget"));
            prop_assert_eq!(fold.summary.truncated, want);
        }
    }
}
