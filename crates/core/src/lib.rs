//! Link-reversal algorithms from Radeva & Lynch, *Partial Reversal
//! Acyclicity* (MIT-CSAIL-TR-2011-022 / PODC 2011), with every invariant
//! and simulation obligation of the paper implemented as executable,
//! falsifiable checks.
//!
//! # What's here
//!
//! * [`alg`] — the algorithms, as the paper's I/O automata and as one
//!   flat engine generic over each family's reversal rule:
//!   * [`alg::PrSetAutomaton`] / [`alg::OneStepPrAutomaton`] — the paper's
//!     Algorithms 1 and 3 (list-based Partial Reversal),
//!   * [`alg::NewPrAutomaton`] — the paper's Algorithm 2 (`NewPR`),
//!   * [`alg::FullReversalAutomaton`] — Full Reversal.
//!
//!   Every family runs on one flat, CSR-native engine,
//!   [`alg::Frontier`], the only [`alg::FrontierEngine`]: it holds the
//!   enabled tracker, the step's precondition, the round batching and
//!   reset once, and is generic over the family's [`alg::Rule`] —
//!   [`alg::FrRule`], [`alg::PrRule`], [`alg::NewPrRule`], the
//!   Gafni–Bertsekas height formulations [`alg::PairHeightsRule`] /
//!   [`alg::TripleHeightsRule`], and the labeled-reversal
//!   generalization's [`alg::BllLabeling`] (Binary Link Labels), each
//!   just its state, sink test and step. Engines are built
//!   uniformly through [`alg::FrontierFamily`]: bit-packed per-slot
//!   state over the instance's CSR, million-node capable. The automata
//!   are the oracle: every engine runs in lockstep beside the automaton
//!   whose reversal sets it reproduces.
//! * [`invariants`] — Invariants 3.1, 3.2, Corollaries 3.3/3.4,
//!   Invariants 4.1, 4.2(a–d) and the acyclicity theorems 4.3/5.5 as
//!   named predicates with rich counterexample messages.
//! * [`engine`] — the one run loop, [`engine::run_engine_frontier`]
//!   (greedy rounds, random, deterministic), with work accounting:
//!   total reversals, per-node work vectors, rounds, dummy steps. It
//!   consumes the engines' incremental enabled view through the
//!   zero-allocation step pipeline and batches each greedy round's
//!   enabled-set edits into one merge.
//! * [`step`] — the zero-allocation step pipeline, by half-edge slot:
//!   caller-owned [`StepScratch`] buffers and lightweight
//!   [`StepOutcome`]s. The **caller owns the scratch**: one buffer per
//!   run, overwritten by every step, no per-step heap traffic after
//!   warm-up (see the module docs for the full ownership contract).
//! * [`par`] — the in-order parallel fold behind the exhaustive model
//!   checker and the scenario matrix sweep: work items on scoped
//!   threads, results folded strictly in index order.
//! * [`enabled`] — incremental enabled-set maintenance
//!   ([`EnabledTracker`]) held by the engine shell, with per-step edits
//!   for single-step schedulers and, for greedy rounds, one merge per
//!   round of a bitmap of the newly enabled nodes.
//! * [`work`] — growth-rate fitting for the Θ(n_b²) worst-case work
//!   experiments.
//! * [`game`] — the Charron-Bost-style social-cost comparison of FR vs PR.
//!
//! # Quickstart
//!
//! ```
//! use lr_core::alg::FrontierFamily;
//! use lr_core::engine::{run_to_destination_oriented, SchedulePolicy, DEFAULT_MAX_STEPS};
//! use lr_graph::stream;
//!
//! let mut engine = FrontierFamily::NewPr.engine(stream::chain_away(16));
//! let stats = run_to_destination_oriented(
//!     engine.as_mut(),
//!     SchedulePolicy::GreedyRounds,
//!     DEFAULT_MAX_STEPS,
//! );
//! assert!(stats.terminated);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dirs;

pub mod alg;
pub mod enabled;
pub mod engine;
pub mod game;
pub mod invariants;
pub mod par;
pub mod step;
pub mod trace;
pub mod work;

pub use dirs::{DirInconsistency, MirroredDirs, ReversalStep};
pub use enabled::EnabledTracker;
pub use step::{StepOutcome, StepScratch};
