//! Exhaustive model checking over **all** instances of bounded size: every
//! connected graph, every acyclic orientation, every destination.
//!
//! The paper's theorems are universally quantified over this input space
//! (and then over all reachable states). For small `n` the space is finite,
//! turning each theorem into a finite check. [`CheckKind::run`] is the one
//! entry point: it runs one check over every instance of size `n ≤`
//! [`MAX_N`] = 6.
//!
//! ## Symmetry — one instance per isomorphism class
//!
//! The automata (NewPR, OneStepPR, PR with set actions) and the relations
//! R, R′ and their reverses use node ids only as names. Relabeling an
//! instance's nodes therefore relabels its reachable state graph (or pair
//! space) without changing its shape, so each check's per-instance
//! outcome — states, transitions, longest execution, verdict — is the
//! same on every instance of an isomorphism class. [`CheckKind::run`]
//! checks one representative per class, from [`instance_orbits`], and
//! weights its counts by the class's orbit size, so every summary is the
//! one a sweep of all labeled instances would give. At n = 5 that is 1,225
//! representatives for 132,150 labeled instances; at n = 6, 32,389 for
//! 21,580,572.
//!
//! The one place an id order enters is the plane embedding behind
//! Invariants 4.1 and 4.2, a topological order of the initial DAG with
//! ties broken by id. Both invariants compare only neighbours, though,
//! and for neighbours `u` lies left of `v` exactly when the initial
//! orientation points `u → v`, whatever the tie-break.
//!
//! The argument's proof obligation is tested here: the seeded proptest
//! `relabeling_preserves_every_per_instance_outcome` relabels random
//! instances with up to 7 nodes and requires each check's outcome to be
//! unchanged, and `orbit_sweep_equals_the_labeled_sweep_at_n3_and_n4`
//! (n = 5 under `--ignored`) runs all eight checks over `all_instances(n)`
//! with weight 1 and requires the same summaries. The representatives
//! themselves are checked against two Tutte evaluations: their orbit sizes
//! sum to `Σ_G n · T_G(2, 0)`, and those that start quiescent weigh
//! `Σ_G n · T_G(1, 0)`.
//!
//! ## Parallelism — one axis, one answer
//!
//! [`McOptions::threads`] fans the representatives out across scoped
//! `std` threads; each one's check runs serially on the worker that took
//! it. [`fold_in_order`] folds the per-instance outcomes into the
//! [`ModelCheckSummary`] strictly in enumeration order, so the summary —
//! counts, first violation, truncation — is **bit-identical at every
//! thread count**. The `lr modelcheck --threads` flag sets it.
//!
//! Each check runs on a private [`deep_copy`](ReversalInstance::deep_copy)
//! of its representative, a few hundred bytes at n ≤ 6 that the check
//! drops when it ends. Every automaton state holds the instance's graph
//! through an `Arc`, so each state clone and drop writes the graph's
//! reference count. [`instance_orbits`] shares one graph among all the
//! representatives of a graph class, and consecutive representatives,
//! mostly of one class, go to whichever worker is free; without the copy
//! the workers would keep writing one shared count, and at n = 6 two
//! threads ran slower than one.
//!
//! ## Truncation is a hard error
//!
//! A truncated exploration (state or pair budget exhausted) previously
//! tripped only a `debug_assert!`, which vanishes in release builds — a
//! truncated sweep could silently count as verified. Truncation is now
//! carried in [`ModelCheckSummary::truncated`] and fails
//! [`ModelCheckSummary::verified`]. Both it and
//! [`ModelCheckSummary::first_violation`] name the representative (in
//! [`parse`] syntax) and its orbit size.

use std::ops::ControlFlow;
use std::time::Instant;

use lr_core::alg::{NewPrAutomaton, OneStepPrAutomaton, PrSetAutomaton};
use lr_core::invariants::{newpr_invariants, onestep_pr_invariants, pr_set_invariants};
use lr_core::par::fold_in_order;
use lr_graph::enumerate::instance_orbits;
use lr_graph::{parse, ReversalInstance};
use lr_ioa::explore::{check_termination, explore, ExplorationReport, TerminationResult};
use lr_ioa::{ExhaustiveSimReport, SimulationError};

use crate::{r_checker, r_prime_checker, rev_r_checker, rev_r_prime_checker};

/// Aggregate result of a model-checking sweep.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ModelCheckSummary {
    /// Labeled instances (graph × orientation × destination) covered: the
    /// orbit sizes of the representatives checked.
    pub instances: usize,
    /// Representatives checked, one per isomorphism class of instances.
    pub orbits: usize,
    /// Total distinct states visited across all labeled instances (each
    /// representative's count times its orbit size).
    pub states_visited: usize,
    /// Total transitions traversed, weighted the same way.
    pub transitions: usize,
    /// Worst-case execution length over all instances: the longest path
    /// in any reachable state graph for [`CheckKind::Termination`], 0 for
    /// every other check.
    pub longest_execution: usize,
    /// Description of the first violation, if any, naming the
    /// representative it was found on.
    pub first_violation: Option<String>,
    /// Description of the first truncated (budget-limited, hence
    /// inconclusive) per-instance check, if any, naming its
    /// representative. A truncated sweep is **not** verified.
    pub truncated: Option<String>,
}

impl ModelCheckSummary {
    /// `true` when every instance was checked to completion and no
    /// violation was found. Truncation means the check was inconclusive,
    /// so it also fails verification.
    pub fn verified(&self) -> bool {
        self.first_violation.is_none() && self.truncated.is_none()
    }

    /// Folds the outcome of the next representative in enumeration
    /// order, whose orbit holds `orbit` labeled instances. Instances,
    /// states and transitions count once per labeled instance; the
    /// longest execution is a max. Breaks at a violation or truncation,
    /// which ends the sweep.
    fn add(&mut self, orbit: usize, out: InstanceOutcome) -> ControlFlow<()> {
        self.orbits += 1;
        self.instances += orbit;
        self.states_visited += orbit * out.states;
        self.transitions += orbit * out.transitions;
        self.longest_execution = self.longest_execution.max(out.longest_execution);
        if let Some(v) = out.violation {
            self.first_violation = Some(v);
            return ControlFlow::Break(());
        }
        if let Some(t) = out.truncation {
            self.truncated = Some(t);
            return ControlFlow::Break(());
        }
        ControlFlow::Continue(())
    }
}

/// Parallelism and budget knobs for [`CheckKind::run`].
#[derive(Debug, Clone)]
pub struct McOptions {
    /// Worker threads: the representatives of `instance_orbits(n)` fan
    /// out across this many scoped `std` threads, at most one per
    /// representative. `1` = serial.
    pub threads: usize,
    /// Per-search state/pair budget; exhausting it is reported as
    /// truncation (a hard error), never silently ignored.
    pub max_states: usize,
}

/// The default per-search budget: over 1,000 times the most states or
/// pairs any search meets at n ≤ 6 (82, pinned by the unit tests), so
/// a defective automaton that loops or grows its state is reported as
/// truncated in seconds rather than after gigabytes.
const DEFAULT_MAX_STATES: usize = 100_000;

impl Default for McOptions {
    fn default() -> Self {
        McOptions {
            threads: 1,
            max_states: DEFAULT_MAX_STATES,
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
/// one representative per isomorphism class, `instance_orbits(n)`: 32,389
/// at n = 6 (about 28 MB), standing for 21,580,572 labeled instances.
/// n = 7 has more than 1.5 M classes, which filter-then-canonicalize
/// cannot enumerate in reasonable time; it would need orderly generation.
pub const MAX_N: usize = 6;

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

/// Names a representative and its orbit in a violation or truncation
/// message: its destination and directed edges in [`parse`] syntax, `;`
/// for a line break.
fn describe(inst: &ReversalInstance, orbit: u64) -> String {
    let text = parse::to_text(inst).trim_end().replace('\n', "; ");
    format!("instance [{text}] (representative of {orbit} labeled instance(s))")
}

/// Runs `per` over every representative on `opts.threads` workers,
/// folding outcomes weighted by orbit size **in enumeration order** into
/// one summary through [`fold_in_order`], so it is bit-identical at
/// every thread count. Each check runs on the representative's
/// [`deep_copy`](ReversalInstance::deep_copy), dropped when it ends (see
/// the module docs). Stops at the first violation or truncation; its
/// message is prefixed with the representative's [`describe`].
fn sweep_instances<F>(
    orbits: &[(ReversalInstance, u64)],
    opts: &McOptions,
    per: F,
) -> ModelCheckSummary
where
    F: Fn(&ReversalInstance) -> InstanceOutcome + Sync,
{
    let check = |i: usize| {
        let (rep, orbit) = &orbits[i];
        let mut out = per(&rep.deep_copy());
        for message in [&mut out.violation, &mut out.truncation]
            .into_iter()
            .flatten()
        {
            *message = format!("{}: {message}", describe(rep, *orbit));
        }
        (
            usize::try_from(*orbit).expect("an orbit fits in usize"),
            out,
        )
    };
    let mut summary = ModelCheckSummary::default();
    // A break has already recorded its violation or truncation.
    let _ = fold_in_order(orbits.len(), opts.threads, check, |(orbit, out)| {
        summary.add(orbit, out)
    });
    summary
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
    /// It checks one representative per isomorphism class, from
    /// [`instance_orbits`], and counts each representative's states and
    /// transitions once per labeled instance of its class (see the module
    /// docs for why that is sound). The summary's
    /// [`instances`](ModelCheckSummary::instances), states, transitions
    /// and longest execution are therefore those of a sweep over all of
    /// `all_instances(n)`; [`orbits`](ModelCheckSummary::orbits) counts
    /// the representatives.
    ///
    /// # Panics
    ///
    /// If `n > MAX_N`, before any instance is enumerated.
    pub fn run(self, n: usize, opts: &McOptions) -> ModelCheckSummary {
        self.sweep(&orbits(n), opts)
    }

    /// Runs this check on each `(instance, orbit size)` in `orbits`: the
    /// one enumeration a battery shares, or a labeled sweep in tests.
    fn sweep(self, orbits: &[(ReversalInstance, u64)], opts: &McOptions) -> ModelCheckSummary {
        sweep_instances(orbits, opts, |inst| self.check(inst, opts.max_states))
    }

    /// This check's outcome on one instance.
    fn check(self, inst: &ReversalInstance, budget: usize) -> InstanceOutcome {
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
            CheckKind::RevR => sim_outcome(rev_r_checker(inst).check_exhaustive(&np, &os, budget)),
            CheckKind::RevRPrime => {
                sim_outcome(rev_r_prime_checker(inst).check_exhaustive(&os, &pr, budget))
            }
            CheckKind::Termination => termination_outcome(&np, &os, budget),
        }
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

/// The representatives `instance_orbits(n)` with their orbit sizes.
///
/// # Panics
///
/// If `n > MAX_N`, before any instance is enumerated.
fn orbits(n: usize) -> Vec<(ReversalInstance, u64)> {
    assert!(
        n <= MAX_N,
        "model check size {n} is above MAX_N = {MAX_N}: instance_orbits({n}) is out of reach"
    );
    instance_orbits(n)
}

/// The model-check battery behind `lr modelcheck`: enumerates the
/// representatives at size `n` once, then runs `checks` over them with
/// the given options, timing each sweep.
///
/// When an `lr-obs` session is recording, the enumeration gets a
/// `modelcheck.enumerate` span and each check a
/// `modelcheck.check <key>` span, and the battery publishes
/// `modelcheck.*` counters derived from the deterministic summaries —
/// the sweeps themselves are bit-identical at every thread count, so
/// the published metrics are too.
pub fn run_battery(n: usize, checks: &[CheckKind], opts: &McOptions) -> Vec<BatteryRow> {
    let span = lr_obs::span("modelcheck", "modelcheck.enumerate");
    let orbits = orbits(n);
    drop(span);
    let rows: Vec<BatteryRow> = checks
        .iter()
        .map(|&kind| {
            let mut span = lr_obs::enabled()
                .then(|| lr_obs::span("modelcheck", format!("modelcheck.check {}", kind.key())));
            let start = Instant::now();
            let summary = kind.sweep(&orbits, opts);
            if let Some(span) = span.as_mut() {
                span.arg("n", n as u64);
                span.arg("instances", summary.instances as u64);
                span.arg("orbits", summary.orbits as u64);
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
        m.add("modelcheck.orbits", row.summary.orbits as u64);
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
    use lr_graph::enumerate::{all_instances, connected_graphs, tutte};
    use lr_graph::{stream, NodeId};
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

    /// Every labeled instance on `n` nodes as its own orbit: the reference
    /// the representatives are checked against.
    fn labeled(n: usize) -> Vec<(ReversalInstance, u64)> {
        all_instances(n).into_iter().map(|inst| (inst, 1)).collect()
    }

    /// The labeled instances whose NewPR initial state is already
    /// quiescent, i.e. whose destination is the orientation's only sink,
    /// counted through the orbit sizes.
    fn quiescent_starts(orbits: &[(ReversalInstance, u64)]) -> u64 {
        orbits
            .iter()
            .filter(|(inst, _)| {
                let aut = NewPrAutomaton { inst };
                aut.is_quiescent(&aut.initial_state())
            })
            .map(|&(_, orbit)| orbit)
            .sum()
    }

    /// Greene–Zaslavsky: for any node `d`, `T_G(1, 0)` acyclic
    /// orientations of `G` have `d` as their unique sink. So the instances
    /// that start quiescent number `Σ_G n · T_G(1, 0)`.
    fn greene_zaslavsky_count(n: usize) -> u64 {
        connected_graphs(n)
            .iter()
            .map(|g| u64::try_from(tutte(g, 1, 0)).expect("a count") * n as u64)
            .sum()
    }

    #[test]
    fn quiescent_initial_instances_match_greene_zaslavsky() {
        for (n, count) in [(3, 15), (4, 316)] {
            assert_eq!(greene_zaslavsky_count(n), count);
            assert_eq!(quiescent_starts(&labeled(n)), count);
            assert_eq!(quiescent_starts(&instance_orbits(n)), count);
        }
        assert_eq!(greene_zaslavsky_count(5), 16_885);
        assert_eq!(quiescent_starts(&instance_orbits(5)), 16_885);
    }

    #[test]
    #[ignore = "all_instances(5) takes seconds in a debug build; run with --ignored"]
    fn quiescent_initial_instances_match_greene_zaslavsky_at_n5() {
        assert_eq!(quiescent_starts(&labeled(5)), 16_885);
    }

    #[test]
    fn quiescent_representatives_weigh_the_pinned_count_at_n6() {
        // The labeled acyclic digraphs on 6 nodes with exactly one sink
        // (OEIS A003025, by inclusion–exclusion over Robinson's
        // recurrence); a unique sink makes the digraph connected.
        assert_eq!(quiescent_starts(&instance_orbits(6)), 2_174_586);
    }

    /// `s` without its representative count, the one field in which an
    /// orbit sweep and the labeled sweep differ.
    fn without_orbits(s: ModelCheckSummary) -> ModelCheckSummary {
        ModelCheckSummary { orbits: 0, ..s }
    }

    /// Every check over the representatives against the same check over
    /// every labeled instance, at 1 and 2 threads.
    fn assert_orbit_sweep_equals_labeled_sweep(n: usize, representatives: usize) {
        let labeled = labeled(n);
        for threads in [1, 2] {
            let opts = McOptions::default().with_threads(threads);
            for kind in CheckKind::ALL {
                let reduced = kind.run(n, &opts);
                let full = kind.sweep(&labeled, &opts);
                assert!(full.verified(), "{} at n={n}: {full:?}", kind.key());
                assert_eq!(
                    (reduced.orbits, full.orbits),
                    (representatives, labeled.len()),
                    "{} at n={n}",
                    kind.key()
                );
                assert_eq!(
                    without_orbits(reduced),
                    without_orbits(full),
                    "{} at n={n}, {threads} thread(s)",
                    kind.key()
                );
            }
        }
    }

    #[test]
    fn orbit_sweep_equals_the_labeled_sweep_at_n3_and_n4() {
        assert_orbit_sweep_equals_labeled_sweep(3, 10);
        assert_orbit_sweep_equals_labeled_sweep(4, 84);
    }

    #[test]
    #[ignore = "the labeled n = 5 sweeps take seconds; run with --ignored"]
    fn orbit_sweep_equals_the_labeled_sweep_at_n5() {
        assert_orbit_sweep_equals_labeled_sweep(5, 1_225);
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
        let orbits = instance_orbits(3);
        for kind in [CheckKind::NewPr, CheckKind::RPrime, CheckKind::Termination] {
            let s = kind.run(3, &opts);
            assert!(
                !s.verified(),
                "{}: truncated sweep must not verify",
                kind.key()
            );
            assert!(
                s.first_violation.is_none(),
                "{}: truncation is not a violation: {:?}",
                kind.key(),
                s.first_violation
            );
            // The sweep stopped at the representative that truncated, and
            // the message names it and its orbit.
            let (rep, orbit) = &orbits[s.orbits - 1];
            let truncated = s.truncated.expect("truncation must be reported");
            assert!(
                truncated.starts_with(&format!("{}: ", describe(rep, *orbit))),
                "{}: {truncated}",
                kind.key()
            );
        }
    }

    #[test]
    fn a_violation_names_its_representative_and_orbit() {
        let (edge, orbit) = &instance_orbits(2)[0];
        assert_eq!(
            describe(edge, *orbit),
            "instance [dest 0; 1 > 0] (representative of 2 labeled instance(s))"
        );
        let orbits = instance_orbits(3);
        let bad = 6;
        for threads in [1, 2] {
            let s = sweep_instances(
                &orbits,
                &McOptions::default().with_threads(threads),
                |inst| InstanceOutcome {
                    states: 1,
                    violation: (*inst == orbits[bad].0).then(|| "boom".to_string()),
                    ..InstanceOutcome::default()
                },
            );
            let (rep, orbit) = &orbits[bad];
            assert_eq!(s.orbits, bad + 1);
            assert_eq!(
                s.first_violation,
                Some(format!("{}: boom", describe(rep, *orbit)))
            );
            let weight: u64 = orbits[..=bad].iter().map(|&(_, w)| w).sum();
            assert_eq!(
                (s.instances as u64, s.states_visited as u64),
                (weight, weight)
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
        let session = lr_obs::ObsSession::start(lr_obs::ObsMode::Chrome);
        let rows = run_battery(3, &[CheckKind::NewPr], &opts);
        let report = session.finish();
        let m = battery_metrics(&rows);
        assert_eq!(m.count("modelcheck.checks"), 1);
        assert_eq!(
            (rows[0].summary.instances, rows[0].summary.orbits),
            (54, 10)
        );
        assert_eq!(
            m.count("modelcheck.instances"),
            rows[0].summary.instances as u64
        );
        assert_eq!(m.count("modelcheck.orbits"), rows[0].summary.orbits as u64);
        let span = report
            .events
            .iter()
            .find(|e| e.name == "modelcheck.check newpr")
            .expect("the check's span");
        for (key, value) in [
            ("instances", rows[0].summary.instances),
            ("orbits", rows[0].summary.orbits),
            ("states", rows[0].summary.states_visited),
        ] {
            assert!(span.args.contains(&(key, value as u64)), "{key}: {span:?}");
        }
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

    /// The outcome of instance `i` in the summary test: `i` states, one
    /// transition, truncated when `i == stop`.
    fn outcome(i: usize, stop: usize) -> InstanceOutcome {
        InstanceOutcome {
            states: i,
            transitions: 1,
            longest_execution: i % 5,
            truncation: (i == stop).then(|| format!("budget at {i}")),
            ..InstanceOutcome::default()
        }
    }

    #[test]
    fn summaries_weight_counts_by_orbit_size_but_not_the_longest_execution() {
        let mut s = ModelCheckSummary::default();
        assert_eq!(s.add(6, outcome(3, usize::MAX)), ControlFlow::Continue(()));
        assert_eq!(s.add(2, outcome(4, 4)), ControlFlow::Break(()));
        assert_eq!(
            (s.orbits, s.instances, s.states_visited, s.transitions),
            (2, 8, 6 * 3 + 2 * 4, 8)
        );
        assert_eq!(s.longest_execution, 4);
        assert_eq!(s.truncated.as_deref(), Some("budget at 4"));
    }

    /// The most states (or pairs) one search meets on one representative
    /// of size `n`: each check's in [`CheckKind::ALL`] order, with the
    /// termination check's NewPR and OneStepPR searches apart, since the
    /// budget bounds each search on its own.
    fn most_states_per_search(n: usize) -> [usize; 9] {
        let mut most = [0; 9];
        for (inst, _) in instance_orbits(n) {
            for (k, kind) in CheckKind::ALL[..7].iter().enumerate() {
                let out = kind.check(&inst, DEFAULT_MAX_STATES);
                assert!(out.violation.is_none() && out.truncation.is_none());
                most[k] = most[k].max(out.states);
            }
            let np = check_termination(&NewPrAutomaton { inst: &inst }, DEFAULT_MAX_STATES);
            let os = check_termination(&OneStepPrAutomaton { inst: &inst }, DEFAULT_MAX_STATES);
            for (k, res) in [np, os].into_iter().enumerate() {
                let TerminationResult::Terminates { states, .. } = res else {
                    panic!("termination search {k} at n={n}: {res:?}");
                };
                most[7 + k] = most[7 + k].max(states);
            }
        }
        most
    }

    /// The most states one search meets at each size, in the order of
    /// [`most_states_per_search`]. NewPR, reverse R and NewPR's
    /// termination search meet 3^(n−2) + 1 at these sizes, and every
    /// other search 2^(n−1).
    const MOST_STATES: [(usize, [usize; 9]); 5] = [
        (2, [2, 2, 2, 2, 2, 2, 2, 2, 2]),
        (3, [4, 4, 4, 4, 4, 4, 4, 4, 4]),
        (4, [10, 8, 8, 8, 8, 10, 8, 10, 8]),
        (5, [28, 16, 16, 16, 16, 28, 16, 28, 16]),
        (6, [82, 32, 32, 32, 32, 82, 32, 82, 32]),
    ];

    /// Checks one size's maxima against [`MOST_STATES`] and the default
    /// budget's margin.
    fn assert_most_states_pinned(n: usize) {
        let (_, want) = MOST_STATES[n - 2];
        let most = most_states_per_search(n);
        assert_eq!(most, want, "n={n}");
        assert!(
            most.iter().all(|&m| m * 1_000 < DEFAULT_MAX_STATES),
            "n={n}"
        );
    }

    #[test]
    fn the_most_states_one_search_meets_are_pinned_up_to_n5() {
        for n in 2..=5 {
            assert_most_states_pinned(n);
        }
    }

    #[test]
    #[ignore = "one search per check on every n = 6 representative takes seconds; run with --ignored"]
    fn the_most_states_one_search_meets_are_pinned_at_n6() {
        assert_most_states_pinned(6);
    }

    /// `inst` with every node `u` renamed `map[u]`.
    fn relabel(inst: &ReversalInstance, map: &[u32]) -> ReversalInstance {
        let arcs: Vec<(u32, u32)> = inst
            .init()
            .directed_edges()
            .map(|(u, v)| (map[u.index()], map[v.index()]))
            .collect();
        ReversalInstance::from_edges(&arcs, NodeId::new(map[inst.dest.index()]))
            .expect("a relabeled instance")
    }

    /// The parts of a per-instance outcome the symmetry argument says a
    /// relabeling cannot change.
    fn invariant_part(out: &InstanceOutcome) -> (usize, usize, usize, bool) {
        (
            out.states,
            out.transitions,
            out.longest_execution,
            out.violation.is_none() && out.truncation.is_none(),
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The symmetry argument's proof obligation: relabeling an
        /// instance's nodes leaves every check's per-instance counts and
        /// verdict unchanged, so one representative per isomorphism class
        /// stands for its whole orbit.
        #[test]
        fn relabeling_preserves_every_per_instance_outcome(
            n in 2usize..8,
            extra in 0usize..22,
            dest in 0usize..7,
            seed in any::<u64>(),
        ) {
            let mut inst = stream::random_connected(n, extra, seed);
            inst.dest = NodeId::new((dest % n) as u32);
            // A seeded permutation of the ids: sort them by a keyed hash.
            let mut ids: Vec<u32> = (0..n as u32).collect();
            ids.sort_by_key(|&i| {
                let mut h = DefaultHasher::new();
                (seed, i).hash(&mut h);
                h.finish()
            });
            let relabeled = relabel(&inst, &ids);
            let budget = McOptions::default().max_states;
            for kind in CheckKind::ALL {
                prop_assert_eq!(
                    invariant_part(&kind.check(&inst, budget)),
                    invariant_part(&kind.check(&relabeled, budget)),
                    "{} on {:?} relabeled by {:?}",
                    kind.key(),
                    inst,
                    ids
                );
            }
        }
    }
}
