//! # link-reversal
//!
//! A comprehensive Rust implementation of **link reversal algorithms**,
//! reproducing Radeva & Lynch, *Partial Reversal Acyclicity*
//! (MIT-CSAIL-TR-2011-022; brief announcement at PODC 2011) as a working
//! system: the paper's three Partial Reversal automata with every
//! invariant and simulation relation mechanized, the companion algorithms
//! (Full Reversal, Gafni–Bertsekas heights, Binary Link Labels), a
//! model-checking harness that verifies the paper's theorems exhaustively
//! on bounded instances, and the applications that motivate link reversal
//! in the first place — routing, leader election, and mutual exclusion —
//! on a message-passing network simulator.
//!
//! This crate is an umbrella that re-exports the workspace members:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`graph`] | `lr-graph` | CSR graphs, orientations and their analyses, instances, generators |
//! | [`ioa`] | `lr-ioa` | I/O automata, schedulers, explorer, simulation checking |
//! | [`core`] | `lr-core` | PR / OneStepPR / NewPR / FR / heights / BLL + invariants |
//! | [`simrel`] | `lr-simrel` | relations R′ and R, refinement, model checking |
//! | [`net`] | `lr-net` | network simulator, routing, election, mutex, threaded mode |
//! | [`scenario`] | `lr-scenario` | declarative churn/link/traffic scenarios + sweep runner |
//!
//! # Quickstart
//!
//! ```
//! use link_reversal::prelude::*;
//!
//! // The classic worst case: a chain with every edge pointing away from
//! // the destination.
//! let inst = stream::chain_away(32);
//!
//! // Run the paper's NewPR to termination under greedy scheduling.
//! let mut engine = FrontierFamily::NewPr.engine(inst);
//! let stats = run_to_destination_oriented(
//!     engine.as_mut(), SchedulePolicy::GreedyRounds, DEFAULT_MAX_STEPS);
//!
//! // The final graph is acyclic and destination-oriented.
//! assert!(stats.terminated);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use lr_core as core;
pub use lr_graph as graph;
pub use lr_ioa as ioa;
pub use lr_net as net;
pub use lr_scenario as scenario;
pub use lr_simrel as simrel;

pub mod cli;

/// The most commonly used items in one import.
pub mod prelude {
    pub use lr_core::alg::{
        BllLabeling, FrontierBllEngine, FrontierEngine, FrontierFamily, FrontierFrEngine,
        FrontierNewPrEngine, FrontierPairHeightsEngine, FrontierPrEngine,
        FrontierTripleHeightsEngine, FullReversalAutomaton, NewPrAutomaton, OneStepPrAutomaton,
        PrSetAutomaton,
    };
    pub use lr_core::engine::{
        run_engine_frontier, run_to_destination_oriented, RunStats, SchedulePolicy,
        DEFAULT_MAX_STEPS,
    };
    pub use lr_core::invariants;
    pub use lr_core::{StepOutcome, StepScratch};
    pub use lr_graph::{stream, NodeId, Orientation, ReversalInstance};
    pub use lr_ioa::{run, run_to_quiescence, schedulers, Automaton, Execution};
    pub use lr_simrel::{r_checker, r_prime_checker};
}
