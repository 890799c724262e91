//! An executable I/O-automaton framework in the style of Lynch,
//! *Distributed Algorithms* (1996) — the formalism the paper uses to
//! present all three Partial Reversal variants.
//!
//! The paper's automata (`PR`, `OneStepPR`, `NewPR`) are infinite families
//! of finite transition systems: a state set, a set of actions, a
//! precondition per action, and an effect per action. This crate provides:
//!
//! * [`Automaton`] — the transition-system trait (states, actions,
//!   preconditions via [`Automaton::enabled_actions`], effects via
//!   [`Automaton::apply`]).
//! * [`Execution`] — a recorded alternating sequence
//!   `s0, a1, s1, a2, …` with validity re-checking.
//! * [`Scheduler`] — pluggable action choice: first-enabled, uniformly
//!   random, round-robin, or caller-driven; plus [`run`] /
//!   [`run_to_quiescence`] drivers.
//! * [`explore`](explore::explore) — breadth-first reachability over the
//!   full state space with per-state invariant checking, used to turn the
//!   paper's induction proofs into finite checks; a violation names the
//!   invariant and the depth of the first state that breaks it.
//! * [`SimulationChecker`] — mechanized forward-simulation obligations in
//!   the exact shape of the paper's Lemma 5.1(b)/5.3(b): *for every step of
//!   the concrete automaton and every related abstract state, a proposed
//!   finite abstract action sequence exists, is enabled step-by-step, and
//!   re-establishes the relation.*
//!
//! # Example: a bounded counter
//!
//! ```
//! use lr_ioa::{Automaton, run, schedulers::FirstEnabled};
//!
//! struct Counter(u32); // counts 0..=max
//! impl Automaton for Counter {
//!     type State = u32;
//!     type Action = ();
//!     fn initial_state(&self) -> u32 { 0 }
//!     fn enabled_actions(&self, s: &u32) -> Vec<()> {
//!         if *s < self.0 { vec![()] } else { vec![] }
//!     }
//!     fn apply(&self, s: &u32, _: &()) -> u32 { s + 1 }
//! }
//!
//! let exec = run(&Counter(5), &mut FirstEnabled, 100);
//! assert_eq!(*exec.last_state(), 5);
//! assert!(exec.validate(&Counter(5)).is_ok());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod automaton;
mod execution;
mod invariant;
mod scheduler;
mod simulation;
mod store;

pub mod explore;

pub use automaton::Automaton;
pub use execution::{Execution, ValidityError};
pub use invariant::{CheckOutcome, Invariant, InvariantViolation};
pub use scheduler::{run, run_to_quiescence, schedulers, QuiescenceReport, Scheduler};
pub use simulation::{ExhaustiveSimReport, SimulationChecker, SimulationError};
