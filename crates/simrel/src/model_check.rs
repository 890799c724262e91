//! Exhaustive model checking over **all** instances of bounded size: every
//! connected graph, every acyclic orientation, every destination.
//!
//! The paper's theorems are universally quantified over this input space
//! (and then over all reachable states). For `n ≤ 4` the space is small
//! enough to enumerate completely, turning each theorem into a finite
//! check; `n = 5` is feasible for spot checks. Experiments E1–E6 run
//! these harnesses and record the totals.
//!
//! ## Parallelism — two axes, one answer
//!
//! Every check accepts [`McOptions`] with two thread knobs: `threads`
//! fans the *instances* of `all_instances(n)` out across crossbeam-scoped
//! workers (outer axis), and `explore_threads` parallelizes the state
//! space *within* each instance via
//! [`lr_ioa::explore::explore_parallel`] (inner axis).
//! Per-instance outcomes are folded into the [`ModelCheckSummary`]
//! strictly in enumeration order through the same reorder-buffer
//! discipline as the explorer, so the summary — counts, first violation,
//! truncation — is **bit-identical at every thread count**. The
//! `lr modelcheck --threads` flag feeds the outer knob.
//!
//! ## Truncation is a hard error
//!
//! A truncated exploration (state or pair budget exhausted) previously
//! tripped only a `debug_assert!`, which vanishes in release builds — a
//! truncated sweep could silently count as verified. Truncation is now
//! carried in [`ModelCheckSummary::truncated`] and fails
//! [`ModelCheckSummary::verified`].

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use lr_core::alg::{NewPrAutomaton, OneStepPrAutomaton, PrSetAutomaton};
use lr_core::invariants::{newpr_invariants, onestep_pr_invariants, pr_set_invariants};
use lr_graph::enumerate::all_instances;
use lr_graph::ReversalInstance;
use lr_ioa::explore::{
    check_termination, explore_parallel, ExploreOptions, ReorderBuffer, TerminationResult,
};

use crate::{r_checker, r_prime_checker};

/// Aggregate result of a model-checking sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelCheckSummary {
    /// Instances (graph × orientation × destination) checked.
    pub instances: usize,
    /// Total distinct states visited across all instances.
    pub states_visited: usize,
    /// Total transitions traversed.
    pub transitions: usize,
    /// Description of the first violation, if any.
    pub first_violation: Option<String>,
    /// Description of the first truncated (budget-limited, hence
    /// inconclusive) per-instance check, if any. A truncated sweep is
    /// **not** verified.
    pub truncated: Option<String>,
}

impl ModelCheckSummary {
    fn empty() -> Self {
        ModelCheckSummary {
            instances: 0,
            states_visited: 0,
            transitions: 0,
            first_violation: None,
            truncated: None,
        }
    }

    /// `true` when every instance was checked to completion and no
    /// violation was found. Truncation means the check was inconclusive,
    /// so it also fails verification.
    pub fn verified(&self) -> bool {
        self.first_violation.is_none() && self.truncated.is_none()
    }
}

/// Parallelism and budget knobs for the `model_check_*` sweeps.
#[derive(Debug, Clone)]
pub struct McOptions {
    /// Worker threads for the **outer** axis: instances of
    /// `all_instances(n)` fan out across this many crossbeam-scoped
    /// workers. `1` = serial.
    pub threads: usize,
    /// Worker threads for the **inner** axis: each instance's state space
    /// is explored with `explore_parallel(…, explore_threads)`.
    pub explore_threads: usize,
    /// Per-instance state/pair budget; exhausting it is reported as
    /// truncation (a hard error), never silently ignored.
    pub max_states: usize,
}

impl Default for McOptions {
    fn default() -> Self {
        McOptions {
            threads: 1,
            explore_threads: 1,
            max_states: 5_000_000,
        }
    }
}

impl McOptions {
    /// These options with a different outer thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }
}

fn explore_opts(opts: &McOptions) -> ExploreOptions {
    ExploreOptions {
        max_states: opts.max_states,
        max_depth: usize::MAX,
        record_traces: false,
    }
}

// ───────────────────── the instance sweep driver ─────────────────────

/// Everything one instance's check contributes to the summary.
struct InstanceOutcome {
    states: usize,
    transitions: usize,
    violation: Option<String>,
    truncation: Option<String>,
    /// Worst-case execution length (termination sweeps; 0 elsewhere).
    worst: usize,
}

struct SweepFold {
    summary: ModelCheckSummary,
    worst: usize,
    /// Enumeration index of the next outcome to fold (outcomes arrive
    /// strictly in order, so the fold can count them itself).
    next: usize,
    /// Set once a violation or truncation folds; later instances (in
    /// enumeration order) are not folded, matching the serial early
    /// return.
    stopped: bool,
}

impl SweepFold {
    fn fold(&mut self, out: InstanceOutcome) {
        let index = self.next;
        self.next += 1;
        if self.stopped {
            return;
        }
        self.summary.instances += 1;
        self.summary.states_visited += out.states;
        self.summary.transitions += out.transitions;
        self.worst = self.worst.max(out.worst);
        if let Some(v) = out.violation {
            self.summary.first_violation = Some(v);
            self.stopped = true;
        } else if let Some(t) = out.truncation {
            self.summary.truncated = Some(format!("instance #{index}: {t}"));
            self.stopped = true;
        }
    }
}

/// Runs `per` over every instance, folding outcomes **in enumeration
/// order** into one summary: serial when `opts.threads <= 1`, otherwise
/// fanned out over crossbeam-scoped workers (at most one per instance)
/// pulling from a shared cursor with a reorder-buffer merge —
/// bit-identical either way. Stops folding (and stops handing out
/// instances) at the first violation or truncation, like the serial
/// sweep's early return.
fn sweep_instances<F>(
    instances: &[ReversalInstance],
    opts: &McOptions,
    per: F,
) -> (ModelCheckSummary, usize)
where
    F: Fn(&ReversalInstance) -> InstanceOutcome + Sync,
{
    let threads = opts.threads.clamp(1, instances.len().max(1));
    if threads == 1 {
        let mut fold = SweepFold {
            summary: ModelCheckSummary::empty(),
            worst: 0,
            next: 0,
            stopped: false,
        };
        for inst in instances {
            if fold.stopped {
                break;
            }
            fold.fold(per(inst));
        }
        return (fold.summary, fold.worst);
    }

    let fold = Mutex::new((
        SweepFold {
            summary: ModelCheckSummary::empty(),
            worst: 0,
            next: 0,
            stopped: false,
        },
        ReorderBuffer::new(),
    ));
    let cursor = AtomicUsize::new(0);
    crossbeam::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|_| loop {
                if fold.lock().expect("sweep fold lock").0.stopped {
                    break;
                }
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= instances.len() {
                    break;
                }
                let out = per(&instances[i]);
                let (f, buffer) = &mut *fold.lock().expect("sweep fold lock");
                buffer.submit(i, out, |out| f.fold(out));
            });
        }
    })
    .expect("scoped sweep workers run");
    let (f, _) = fold.into_inner().expect("workers joined");
    (f.summary, f.worst)
}

// ───────────────────── per-check sweeps ─────────────────────

/// E1/E2: checks Invariants 3.1, 4.1, 4.2 and Theorem 4.3 in **every
/// reachable state of NewPR on every instance** of size `n`.
pub fn model_check_newpr(n: usize) -> ModelCheckSummary {
    model_check_newpr_opts(n, &McOptions::default())
}

/// [`model_check_newpr`] with explicit parallelism/budget knobs.
pub fn model_check_newpr_opts(n: usize, opts: &McOptions) -> ModelCheckSummary {
    let instances = all_instances(n);
    let eopts = explore_opts(opts);
    sweep_instances(&instances, opts, |inst| {
        let aut = NewPrAutomaton { inst };
        let invs = newpr_invariants(inst);
        explore_outcome(explore_parallel(&aut, &invs, &eopts, opts.explore_threads))
    })
    .0
}

/// E3: checks Invariants 3.1, 3.2, Corollaries 3.3/3.4 and acyclicity in
/// every reachable state of `OneStepPR` on every instance of size `n`.
pub fn model_check_onestep_pr(n: usize) -> ModelCheckSummary {
    model_check_onestep_pr_opts(n, &McOptions::default())
}

/// [`model_check_onestep_pr`] with explicit parallelism/budget knobs.
pub fn model_check_onestep_pr_opts(n: usize, opts: &McOptions) -> ModelCheckSummary {
    let instances = all_instances(n);
    let eopts = explore_opts(opts);
    sweep_instances(&instances, opts, |inst| {
        let aut = OneStepPrAutomaton { inst };
        let invs = onestep_pr_invariants(inst);
        explore_outcome(explore_parallel(&aut, &invs, &eopts, opts.explore_threads))
    })
    .0
}

/// E3 (set actions): same checks for the original `PR` automaton with
/// simultaneous `reverse(S)` actions.
pub fn model_check_pr_set(n: usize) -> ModelCheckSummary {
    model_check_pr_set_opts(n, &McOptions::default())
}

/// [`model_check_pr_set`] with explicit parallelism/budget knobs.
pub fn model_check_pr_set_opts(n: usize, opts: &McOptions) -> ModelCheckSummary {
    let instances = all_instances(n);
    let eopts = explore_opts(opts);
    sweep_instances(&instances, opts, |inst| {
        let aut = PrSetAutomaton { inst };
        let invs = pr_set_invariants(inst);
        explore_outcome(explore_parallel(&aut, &invs, &eopts, opts.explore_threads))
    })
    .0
}

fn explore_outcome<A: lr_ioa::Automaton>(
    report: lr_ioa::explore::ExplorationReport<A>,
) -> InstanceOutcome {
    InstanceOutcome {
        states: report.states_visited,
        transitions: report.transitions,
        violation: report.violation.map(|(v, _)| v.to_string()),
        truncation: report.truncated.then(|| {
            format!(
                "exploration truncated after {} states (budget exhausted)",
                report.states_visited
            )
        }),
        worst: 0,
    }
}

fn sim_outcome(
    result: Result<lr_ioa::ExhaustiveSimReport, impl std::fmt::Display>,
) -> InstanceOutcome {
    match result {
        Ok(report) => InstanceOutcome {
            states: report.pairs_visited,
            transitions: report.transitions_matched,
            violation: None,
            truncation: (!report.complete).then(|| {
                format!(
                    "simulation pair space truncated after {} pairs (budget exhausted)",
                    report.pairs_visited
                )
            }),
            worst: 0,
        },
        Err(e) => InstanceOutcome {
            states: 0,
            transitions: 0,
            violation: Some(e.to_string()),
            truncation: None,
            worst: 0,
        },
    }
}

/// E4 (Theorem 5.2): verifies the `R'` forward-simulation obligations over
/// the full reachable pair space of every instance of size `n`.
pub fn model_check_r_prime(n: usize) -> ModelCheckSummary {
    model_check_r_prime_opts(n, &McOptions::default())
}

/// [`model_check_r_prime`] with explicit parallelism/budget knobs.
pub fn model_check_r_prime_opts(n: usize, opts: &McOptions) -> ModelCheckSummary {
    let instances = all_instances(n);
    sweep_instances(&instances, opts, |inst| {
        let pr = PrSetAutomaton { inst };
        let os = OneStepPrAutomaton { inst };
        sim_outcome(r_prime_checker(inst).check_exhaustive(&pr, &os, opts.max_states))
    })
    .0
}

/// E5 (Theorem 5.4): verifies the `R` forward-simulation obligations over
/// the full reachable pair space of every instance of size `n`.
pub fn model_check_r(n: usize) -> ModelCheckSummary {
    model_check_r_opts(n, &McOptions::default())
}

/// [`model_check_r`] with explicit parallelism/budget knobs.
pub fn model_check_r_opts(n: usize, opts: &McOptions) -> ModelCheckSummary {
    let instances = all_instances(n);
    sweep_instances(&instances, opts, |inst| {
        let os = OneStepPrAutomaton { inst };
        let np = NewPrAutomaton { inst };
        sim_outcome(r_checker(inst).check_exhaustive(&os, &np, opts.max_states))
    })
    .0
}

/// The Gafni–Bertsekas **termination** guarantee, machine-checked: for
/// every instance of size `n`, the reachable state graphs of NewPR and
/// OneStepPR are acyclic — every execution under every schedule is
/// finite. Also records the worst-case execution length over all
/// instances (the exact finite-instance analogue of the Θ(n_b²) bound).
pub fn model_check_termination(n: usize) -> (ModelCheckSummary, usize) {
    model_check_termination_opts(n, &McOptions::default())
}

/// [`model_check_termination`] with explicit parallelism/budget knobs.
pub fn model_check_termination_opts(n: usize, opts: &McOptions) -> (ModelCheckSummary, usize) {
    let instances = all_instances(n);
    sweep_instances(&instances, opts, |inst| {
        let mut out = InstanceOutcome {
            states: 0,
            transitions: 0,
            violation: None,
            truncation: None,
            worst: 0,
        };
        let np = NewPrAutomaton { inst };
        if !fold_termination(&mut out, "NewPR", check_termination(&np, opts.max_states)) {
            return out;
        }
        let os = OneStepPrAutomaton { inst };
        fold_termination(
            &mut out,
            "OneStepPR",
            check_termination(&os, opts.max_states),
        );
        out
    })
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
            out.worst = out.worst.max(longest_execution);
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

/// Like [`model_check_newpr`] but over a deterministic **sample** of the
/// instances of size `n` (every `stride`-th instance of the full
/// enumeration). `n = 5` has ~1.5M instances; sampling keeps spot checks
/// tractable while still drawing from the exact input space.
pub fn model_check_newpr_sampled(n: usize, stride: usize) -> ModelCheckSummary {
    model_check_newpr_sampled_opts(n, stride, &McOptions::default())
}

/// [`model_check_newpr_sampled`] with explicit parallelism/budget knobs.
pub fn model_check_newpr_sampled_opts(
    n: usize,
    stride: usize,
    opts: &McOptions,
) -> ModelCheckSummary {
    assert!(stride >= 1, "stride must be positive");
    let instances: Vec<ReversalInstance> = all_instances(n).into_iter().step_by(stride).collect();
    let eopts = explore_opts(opts);
    sweep_instances(&instances, opts, |inst| {
        let aut = NewPrAutomaton { inst };
        let invs = newpr_invariants(inst);
        explore_outcome(explore_parallel(&aut, &invs, &eopts, opts.explore_threads))
    })
    .0
}

/// §6 extension: verifies the **reverse** relation `R⁻` (NewPR →
/// OneStepPR, dummy steps stuttering) over the full reachable pair space
/// of every instance of size `n`.
pub fn model_check_rev_r(n: usize) -> ModelCheckSummary {
    model_check_rev_r_opts(n, &McOptions::default())
}

/// [`model_check_rev_r`] with explicit parallelism/budget knobs.
pub fn model_check_rev_r_opts(n: usize, opts: &McOptions) -> ModelCheckSummary {
    let instances = all_instances(n);
    sweep_instances(&instances, opts, |inst| {
        let np = NewPrAutomaton { inst };
        let os = OneStepPrAutomaton { inst };
        sim_outcome(crate::rev_r_checker(inst).check_exhaustive(&np, &os, opts.max_states))
    })
    .0
}

/// §6 extension: verifies the reverse of `R'` (OneStepPR → PR via
/// singleton sets) over the full reachable pair space of every instance
/// of size `n`.
pub fn model_check_rev_r_prime(n: usize) -> ModelCheckSummary {
    model_check_rev_r_prime_opts(n, &McOptions::default())
}

/// [`model_check_rev_r_prime`] with explicit parallelism/budget knobs.
pub fn model_check_rev_r_prime_opts(n: usize, opts: &McOptions) -> ModelCheckSummary {
    let instances = all_instances(n);
    sweep_instances(&instances, opts, |inst| {
        let os = OneStepPrAutomaton { inst };
        let pr = PrSetAutomaton { inst };
        sim_outcome(crate::rev_r_prime_checker(inst).check_exhaustive(&os, &pr, opts.max_states))
    })
    .0
}

// ───────────────────── the check battery ─────────────────────

/// One of the eight model checks, for battery-style consumers (the
/// `lr modelcheck` CLI, the benchmark, CI smoke steps).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckKind {
    /// [`model_check_newpr`] — E1/E2 invariants + Theorem 4.3.
    NewPr,
    /// [`model_check_onestep_pr`] — E3 invariants + acyclicity.
    OneStepPr,
    /// [`model_check_pr_set`] — E3 with set actions.
    PrSet,
    /// [`model_check_r_prime`] — E4, Theorem 5.2.
    RPrime,
    /// [`model_check_r`] — E5, Theorem 5.4.
    R,
    /// [`model_check_rev_r`] — §6 reverse simulation `R⁻`.
    RevR,
    /// [`model_check_rev_r_prime`] — §6 reverse of `R'`.
    RevRPrime,
    /// [`model_check_termination`] — Gafni–Bertsekas termination.
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

    /// Runs this check at size `n` with the given options.
    pub fn run(self, n: usize, opts: &McOptions) -> ModelCheckSummary {
        match self {
            CheckKind::NewPr => model_check_newpr_opts(n, opts),
            CheckKind::OneStepPr => model_check_onestep_pr_opts(n, opts),
            CheckKind::PrSet => model_check_pr_set_opts(n, opts),
            CheckKind::RPrime => model_check_r_prime_opts(n, opts),
            CheckKind::R => model_check_r_opts(n, opts),
            CheckKind::RevR => model_check_rev_r_opts(n, opts),
            CheckKind::RevRPrime => model_check_rev_r_prime_opts(n, opts),
            CheckKind::Termination => model_check_termination_opts(n, opts).0,
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

    // n = 3 sweeps run in milliseconds; n = 4 in seconds (used by the
    // experiment binaries rather than unit tests).

    #[test]
    fn newpr_theorems_hold_on_all_3_node_instances() {
        let s = model_check_newpr(3);
        assert!(s.verified(), "{:?}", s.first_violation);
        assert_eq!(s.instances, 54);
        assert!(s.states_visited > s.instances);
    }

    #[test]
    fn onestep_pr_invariants_hold_on_all_3_node_instances() {
        let s = model_check_onestep_pr(3);
        assert!(s.verified(), "{:?}", s.first_violation);
        assert_eq!(s.instances, 54);
    }

    #[test]
    fn pr_set_invariants_hold_on_all_3_node_instances() {
        let s = model_check_pr_set(3);
        assert!(s.verified(), "{:?}", s.first_violation);
    }

    #[test]
    fn r_prime_is_simulation_on_all_3_node_instances() {
        let s = model_check_r_prime(3);
        assert!(s.verified(), "{:?}", s.first_violation);
        assert!(s.transitions > 0);
    }

    #[test]
    fn r_is_simulation_on_all_3_node_instances() {
        let s = model_check_r(3);
        assert!(s.verified(), "{:?}", s.first_violation);
    }

    #[test]
    fn termination_holds_on_all_3_node_instances() {
        let (s, worst) = model_check_termination(3);
        assert!(s.verified(), "{:?}", s.first_violation);
        assert_eq!(s.instances, 54);
        // On 3-node instances no execution is longer than a handful of
        // steps; the exact worst case is pinned here as a regression
        // anchor.
        assert!((2..=10).contains(&worst), "worst execution length {worst}");
    }

    #[test]
    fn reverse_relations_are_simulations_on_all_3_node_instances() {
        let s = model_check_rev_r(3);
        assert!(s.verified(), "R⁻: {:?}", s.first_violation);
        let s = model_check_rev_r_prime(3);
        assert!(s.verified(), "rev R': {:?}", s.first_violation);
    }

    #[test]
    fn truncation_is_a_hard_error_not_a_debug_assert() {
        // Regression for the silent-truncation hazard: with a tiny state
        // budget the sweep must fail verification in *every* build
        // profile, carrying the truncation reason — not a violation.
        let opts = McOptions {
            max_states: 2,
            ..McOptions::default()
        };
        let s = model_check_newpr_opts(3, &opts);
        assert!(!s.verified(), "truncated sweep must not verify");
        assert!(s.truncated.is_some(), "truncation must be reported");
        assert!(
            s.first_violation.is_none(),
            "truncation is not a violation: {:?}",
            s.first_violation
        );

        // Same hazard existed for the simulation checkers' pair budget.
        let s = model_check_r_prime_opts(3, &opts);
        assert!(!s.verified());
        assert!(s.truncated.is_some(), "pair truncation must be reported");

        // And for the termination bound (previously folded into
        // first_violation via TerminationResult::Unknown).
        let (s, _) = model_check_termination_opts(3, &opts);
        assert!(!s.verified());
        assert!(s.truncated.is_some());
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
        // Inner-axis parallelism must not change summaries either.
        let inner = McOptions {
            explore_threads: 4,
            ..McOptions::default()
        };
        assert_eq!(model_check_newpr_opts(3, &inner), model_check_newpr(3));
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
        let serial = model_check_newpr_opts(3, &tiny);
        for threads in [2usize, 4, 8] {
            let par = McOptions {
                max_states: 2,
                threads,
                ..McOptions::default()
            };
            assert_eq!(serial, model_check_newpr_opts(3, &par));
        }
    }

    #[test]
    fn check_kind_keys_round_trip() {
        for kind in CheckKind::ALL {
            assert_eq!(CheckKind::from_key(kind.key()), Some(kind));
            assert!(!kind.title().is_empty());
        }
        assert_eq!(CheckKind::from_key("nonsense"), None);
    }

    #[test]
    fn sampled_sweep_subsets_the_full_enumeration() {
        let full = model_check_newpr(3);
        let sampled = model_check_newpr_sampled(3, 10);
        assert!(sampled.verified());
        assert_eq!(sampled.instances, full.instances.div_ceil(10));
        assert!(sampled.states_visited < full.states_visited);
    }

    #[test]
    #[ignore = "several seconds; run with --ignored or via the experiment binary"]
    fn everything_holds_on_all_4_node_instances() {
        let opts = McOptions::default();
        for kind in CheckKind::ALL {
            let s = kind.run(4, &opts);
            assert!(
                s.verified(),
                "{} failed at n=4: violation={:?} truncated={:?}",
                kind.key(),
                s.first_violation,
                s.truncated
            );
        }
    }
}
