//! The end-to-end refinement argument of Theorem 5.5: a `PR` execution is
//! matched by a `OneStepPR` execution (via `R'`), which is matched by a
//! `NewPR` execution (via `R`); all three end in the same directed graph,
//! so NewPR's acyclicity (Theorem 4.3) transfers to PR.
//!
//! [`refine_and_check`] performs the whole chain for one concrete
//! execution and additionally checks acyclicity of **every** intermediate
//! state of all three executions, which is the conclusion the paper draws
//! from the chain of relations.

use std::fmt;

use lr_core::alg::{NewPrAutomaton, OneStepPrAutomaton, PrSetAutomaton};
use lr_core::invariants::check_acyclic;
use lr_graph::ReversalInstance;
use lr_ioa::{Execution, SimulationError};

use crate::{r_checker, r_prime_checker};

/// Which stage of the refinement chain failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RefinementError {
    /// The `R'` obligations failed while matching PR by OneStepPR.
    RPrime(SimulationError),
    /// The `R` obligations failed while matching OneStepPR by NewPR.
    R(SimulationError),
    /// Some state of one of the three executions contains a directed
    /// cycle (this would falsify Theorem 4.3/5.5).
    Cycle {
        /// "PR", "OneStepPR" or "NewPR".
        stage: &'static str,
        /// Description of the cycle.
        detail: String,
    },
    /// The final orientations of the three executions disagree.
    FinalGraphMismatch,
}

impl fmt::Display for RefinementError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RefinementError::RPrime(e) => write!(f, "R' obligations failed: {e}"),
            RefinementError::R(e) => write!(f, "R obligations failed: {e}"),
            RefinementError::Cycle { stage, detail } => {
                write!(f, "cycle in a {stage} state: {detail}")
            }
            RefinementError::FinalGraphMismatch => {
                write!(f, "final orientations of the matched executions disagree")
            }
        }
    }
}

impl std::error::Error for RefinementError {}

/// Step counts of a successful refinement chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RefinementReport {
    /// Set-actions in the original PR execution.
    pub pr_steps: usize,
    /// Single-node steps in the matched OneStepPR execution.
    pub onestep_steps: usize,
    /// Steps (including dummies) in the matched NewPR execution.
    pub newpr_steps: usize,
    /// Total states checked for acyclicity across all three executions.
    pub states_checked: usize,
}

/// Runs the full Theorem 5.5 chain on one recorded PR execution.
///
/// # Errors
///
/// Returns the first failed obligation — a broken relation, a disabled
/// matched action, a cycle, or diverging final graphs.
pub fn refine_and_check<'a>(
    inst: &'a ReversalInstance,
    pr_exec: &Execution<PrSetAutomaton<'a>>,
) -> Result<RefinementReport, RefinementError> {
    let pr = PrSetAutomaton { inst };
    let os = OneStepPrAutomaton { inst };
    let np = NewPrAutomaton { inst };

    let onestep_exec = r_prime_checker(inst)
        .check_execution(&pr, &os, pr_exec)
        .map_err(RefinementError::RPrime)?;
    let newpr_exec = r_checker(inst)
        .check_execution(&os, &np, &onestep_exec)
        .map_err(RefinementError::R)?;

    let mut states_checked = 0;
    for s in pr_exec.states() {
        check_acyclic(&s.dirs).map_err(|detail| RefinementError::Cycle {
            stage: "PR",
            detail,
        })?;
        states_checked += 1;
    }
    for s in onestep_exec.states() {
        check_acyclic(&s.dirs).map_err(|detail| RefinementError::Cycle {
            stage: "OneStepPR",
            detail,
        })?;
        states_checked += 1;
    }
    for s in newpr_exec.states() {
        check_acyclic(&s.dirs).map_err(|detail| RefinementError::Cycle {
            stage: "NewPR",
            detail,
        })?;
        states_checked += 1;
    }

    let g_pr = pr_exec.last_state().dirs.orientation();
    let g_os = onestep_exec.last_state().dirs.orientation();
    let g_np = newpr_exec.last_state().dirs.orientation();
    if g_pr != g_os || g_os != g_np {
        return Err(RefinementError::FinalGraphMismatch);
    }

    Ok(RefinementReport {
        pr_steps: pr_exec.len(),
        onestep_steps: onestep_exec.len(),
        newpr_steps: newpr_exec.len(),
        states_checked,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lr_graph::stream;
    use lr_ioa::{run, schedulers, Automaton};

    #[test]
    fn refinement_chain_on_random_executions() {
        for seed in 0..10 {
            let inst = stream::random_connected(8, 6, 700 + seed);
            let pr = PrSetAutomaton { inst: &inst };
            let exec = run(&pr, &mut schedulers::UniformRandom::seeded(seed), 10_000);
            assert!(pr.is_quiescent(exec.last_state()), "seed {seed}");
            let report =
                refine_and_check(&inst, &exec).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            // OneStepPR splits each set action into its members.
            assert!(report.onestep_steps >= report.pr_steps);
            // NewPR adds dummy steps on top.
            assert!(report.newpr_steps >= report.onestep_steps);
            assert!(report.states_checked > 0);
        }
    }

    #[test]
    fn refinement_counts_dummy_inflation() {
        // Star centered on an initial sink, destination at a leaf:
        // OneStepPR full-list steps force NewPR double steps.
        let inst = lr_graph::parse::parse_instance("dest 3\n1 > 0\n2 > 0\n3 > 0").unwrap();
        let pr = PrSetAutomaton { inst: &inst };
        let exec = run(&pr, &mut schedulers::FirstEnabled, 10_000);
        let report = refine_and_check(&inst, &exec).expect("chain holds");
        assert!(report.newpr_steps > report.onestep_steps);
    }

    #[test]
    fn empty_execution_refines_trivially() {
        let inst = stream::chain_toward(5); // destination-oriented: no steps
        let pr = PrSetAutomaton { inst: &inst };
        let exec = lr_ioa::Execution::<PrSetAutomaton>::new(pr.initial_state());
        let report = refine_and_check(&inst, &exec).expect("trivial chain");
        assert_eq!(report.pr_steps, 0);
        assert_eq!(report.newpr_steps, 0);
    }

    #[test]
    fn greedy_set_executions_refine() {
        // Exercise genuinely set-valued actions: the greedy schedule fires
        // all sinks at once.
        let inst = stream::star_away(5);
        let pr = PrSetAutomaton { inst: &inst };
        // LastEnabled picks the largest subset (all sinks) because the
        // subsets are enumerated in mask order — last = full set.
        let exec = run(&pr, &mut schedulers::LastEnabled, 1_000);
        assert!(pr.is_quiescent(exec.last_state()));
        let report = refine_and_check(&inst, &exec).expect("chain holds");
        assert!(report.onestep_steps > report.pr_steps);
    }
}
