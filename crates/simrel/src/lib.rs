//! Mechanized simulation relations from §5 of Radeva & Lynch, *Partial
//! Reversal Acyclicity*: the binary relation `R'` from `PR` to
//! `OneStepPR` (Lemma 5.1 / Theorem 5.2), the binary relation `R` from
//! `OneStepPR` to `NewPR` (Lemma 5.3 / Theorem 5.4), and the end-to-end
//! refinement argument that transfers NewPR's acyclicity proof to the
//! original Partial Reversal (Theorem 5.5).
//!
//! The relations and their constructive step correspondences are
//! implemented exactly as the paper defines them and are checked two
//! ways:
//!
//! * along **recorded executions** ([`lr_ioa::SimulationChecker::check_execution`]),
//!   which rebuilds the paper's matching abstract execution step by step;
//! * over the **entire reachable pair space** of small instances
//!   ([`lr_ioa::SimulationChecker::check_exhaustive`]), the finite
//!   analogue of the paper's induction (Theorems 5.2/5.4).
//!
//! The [`model_check`] module then quantifies over *all* connected graphs
//! of bounded size, all acyclic orientations, and all destinations —
//! turning every universally-quantified theorem in the paper into a
//! terminating check.
//!
//! ```
//! use lr_graph::stream;
//! use lr_simrel::{r_checker, r_prime_checker};
//! use lr_core::alg::{NewPrAutomaton, OneStepPrAutomaton, PrSetAutomaton};
//!
//! let inst = stream::chain_away(4);
//! // Lemma 5.1(b): every PR set-step is matched by OneStepPR steps.
//! let rp = r_prime_checker(&inst);
//! let report = rp
//!     .check_exhaustive(
//!         &PrSetAutomaton { inst: &inst },
//!         &OneStepPrAutomaton { inst: &inst },
//!         100_000,
//!     )
//!     .expect("R' is a forward simulation");
//! assert!(report.complete);
//!
//! // Lemma 5.3(b): every OneStepPR step is matched by 1–2 NewPR steps.
//! let r = r_checker(&inst);
//! r.check_exhaustive(
//!     &OneStepPrAutomaton { inst: &inst },
//!     &NewPrAutomaton { inst: &inst },
//!     100_000,
//! )
//! .expect("R is a forward simulation");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod relation_r;
mod relation_r_prime;

pub mod model_check;
pub mod refinement;
pub mod reverse;

pub use relation_r::{r_checker, r_holds};
pub use relation_r_prime::{r_prime_checker, r_prime_holds};
pub use reverse::{
    equivalence_round_trip, rev_r_checker, rev_r_holds, rev_r_prime_checker, EquivalenceReport,
};
