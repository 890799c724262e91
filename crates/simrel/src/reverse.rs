//! The **reverse** simulation relations — the paper's §6 future work,
//! realized and machine-checked.
//!
//! > "A possible extension of this result is showing a binary relation in
//! > the reverse direction too (from the new algorithm to the original
//! > one). Such a relation would imply … that the two algorithms are
//! > equivalent with respect to the direction of the edges in the graph."
//!
//! Two relations are needed:
//!
//! * [`rev_r_checker`] — `NewPR → OneStepPR`. The interesting direction:
//!   a NewPR **dummy step** changes no edges, so it is matched by the
//!   *empty* OneStepPR sequence (a stutter). The relation must therefore
//!   tolerate the post-dummy parity skew. The paper's `R` is too strong
//!   for that intermediate state; the weakened relation `R⁻` used here
//!   relaxes each node's parity/list clause on the side whose initial
//!   neighbor set is empty — precisely the nodes that ever dummy-step:
//!
//!   `(t, s) ∈ R⁻` iff `t.G' = s.G'` and for every node `u`:
//!   * if `parity[u] = even`: `list[u] ⊆ out-nbrs_u` **or** `out-nbrs_u = ∅`;
//!   * if `parity[u] = odd`:  `list[u] ⊆ in-nbrs_u` **or** `in-nbrs_u = ∅`.
//!
//!   Non-dummy `reverse(u)` maps to a single `reverse(u)`.
//!
//! * [`rev_r_prime_checker`] — `OneStepPR → PR`: `reverse(u)` maps to the
//!   singleton set action `reverse({u})`; the relation is the paper's
//!   `R'` unchanged.
//!
//! Together with the forward direction, the composition gives the
//! equivalence the paper conjectures: every NewPR execution is matched by
//! a PR execution ending in the same directed graph (and vice versa) —
//! checked exhaustively in [`crate::model_check`] and demonstrated by
//! [`equivalence_round_trip`].

use std::collections::BTreeSet;

use lr_core::alg::{
    NewPrAutomaton, NewPrState, OneStepPrAutomaton, Parity, PrSetAutomaton, PrState, ReverseSet,
};
use lr_graph::{NodeId, Orientation, ReversalInstance};
use lr_ioa::{run, Execution, Scheduler, SimulationChecker, SimulationError};

/// Does the weakened reverse relation `R⁻` relate a `NewPR` state (now
/// the concrete side) and a `OneStepPR` state (now the abstract side)?
pub fn rev_r_holds(inst: &ReversalInstance, t: &NewPrState, s: &PrState) -> bool {
    if !t.dirs.same_orientation(&s.dirs) {
        return false;
    }
    inst.csr().nodes().all(|u| {
        // The allowed side is out-nbrs_u at even parity, in-nbrs_u at
        // odd: list[u] ⊆ allowed, or allowed = ∅.
        let out = t.parity(u) == Parity::Even;
        s.list_within_initial(inst, u, out) || initial_side_is_empty(inst, u, out)
    })
}

/// Whether `u` has no initial neighbour on one side: `out-nbrs_u = ∅`
/// when `out`, else `in-nbrs_u = ∅`. Read off the initial slot bits.
fn initial_side_is_empty(inst: &ReversalInstance, u: NodeId, out: bool) -> bool {
    let csr = inst.csr();
    csr.index_of(u)
        .is_none_or(|ui| csr.slots(ui).all(|slot| inst.init().is_out(slot) != out))
}

/// Builds the `NewPR → OneStepPR` checker: relation `R⁻` plus the
/// zero-or-one-step correspondence (dummy steps stutter).
pub fn rev_r_checker(
    inst: &ReversalInstance,
) -> SimulationChecker<NewPrAutomaton<'_>, OneStepPrAutomaton<'_>> {
    let rel_inst = inst.clone();
    let corr_inst = inst.clone();
    SimulationChecker::new(
        move |t: &NewPrState, s: &PrState| rev_r_holds(&rel_inst, t, s),
        move |t: &NewPrState, &u: &NodeId, _s: &PrState| -> Vec<NodeId> {
            // NewPR reverses in-nbrs_u at even parity, out-nbrs_u at odd.
            let out = t.parity(u) == Parity::Odd;
            if initial_side_is_empty(&corr_inst, u, out) {
                vec![] // dummy step: OneStepPR stutters
            } else {
                vec![u]
            }
        },
    )
}

/// Builds the `OneStepPR → PR` checker: the paper's `R'` with the
/// singleton-set correspondence.
pub fn rev_r_prime_checker(
    _inst: &ReversalInstance,
) -> SimulationChecker<OneStepPrAutomaton<'_>, PrSetAutomaton<'_>> {
    SimulationChecker::new(
        crate::r_prime_holds,
        |_s: &PrState, &u: &NodeId, _t: &PrState| vec![ReverseSet(BTreeSet::from([u]))],
    )
}

/// Outcome of [`equivalence_round_trip`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EquivalenceReport {
    /// Steps in the driving NewPR execution (including dummies).
    pub newpr_steps: usize,
    /// Steps in the matched OneStepPR execution (dummies elided).
    pub onestep_steps: usize,
    /// Set actions in the matched PR execution.
    pub pr_steps: usize,
    /// The common final orientation of all three executions.
    pub final_orientation: Orientation,
}

/// The §6 equivalence, demonstrated constructively: drive **NewPR** with
/// any scheduler, then match its execution by a OneStepPR execution (via
/// `R⁻`) and that one by a PR execution (via `R'` reversed) — all three
/// end in the same directed graph.
///
/// # Errors
///
/// Returns the first failed simulation obligation.
pub fn equivalence_round_trip<'a, S>(
    inst: &'a ReversalInstance,
    scheduler: &mut S,
    max_steps: usize,
) -> Result<EquivalenceReport, SimulationError>
where
    S: Scheduler<NewPrAutomaton<'a>>,
{
    let np = NewPrAutomaton { inst };
    let os = OneStepPrAutomaton { inst };
    let pr = PrSetAutomaton { inst };
    let np_exec: Execution<NewPrAutomaton> = run(&np, scheduler, max_steps);
    let os_exec = rev_r_checker(inst).check_execution(&np, &os, &np_exec)?;
    let pr_exec = rev_r_prime_checker(inst).check_execution(&os, &pr, &os_exec)?;
    let g_np = np_exec.last_state().dirs.orientation();
    let g_os = os_exec.last_state().dirs.orientation();
    let g_pr = pr_exec.last_state().dirs.orientation();
    debug_assert_eq!(g_np, g_os);
    debug_assert_eq!(g_os, g_pr);
    Ok(EquivalenceReport {
        newpr_steps: np_exec.len(),
        onestep_steps: os_exec.len(),
        pr_steps: pr_exec.len(),
        final_orientation: g_np,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lr_graph::stream;
    use lr_ioa::{schedulers, Automaton};

    #[test]
    fn initial_states_are_related() {
        let inst = stream::random_connected(8, 6, 1);
        let np = NewPrAutomaton { inst: &inst };
        let os = OneStepPrAutomaton { inst: &inst };
        assert!(rev_r_holds(&inst, &np.initial_state(), &os.initial_state()));
    }

    #[test]
    fn dummy_steps_map_to_empty_sequences() {
        let inst = lr_graph::parse::parse_instance("dest 3\n1 > 0\n2 > 0\n3 > 0").unwrap();
        let checker = rev_r_checker(&inst);
        let np = NewPrAutomaton { inst: &inst };
        // Node 1 is an initial source; once 0 reverses, 1 becomes a sink
        // with even parity and empty in-nbrs — its step is a dummy.
        let s0 = np.initial_state();
        let s1 = np.apply(&s0, &NodeId::new(0));
        let seq = checker.matching_actions(&s1, &NodeId::new(1), &PrState::initial(&inst));
        assert!(seq.is_empty(), "dummy step must stutter");
    }

    #[test]
    fn reverse_r_along_random_newpr_executions() {
        for seed in 0..10 {
            let inst = stream::random_connected(9, 7, 7000 + seed);
            let np = NewPrAutomaton { inst: &inst };
            let os = OneStepPrAutomaton { inst: &inst };
            let exec = run(&np, &mut schedulers::UniformRandom::seeded(seed), 100_000);
            assert!(np.is_quiescent(exec.last_state()));
            let matched = rev_r_checker(&inst)
                .check_execution(&np, &os, &exec)
                .unwrap_or_else(|e| panic!("seed {seed}: R⁻ violated: {e}"));
            assert_eq!(
                matched.last_state().dirs.orientation(),
                exec.last_state().dirs.orientation()
            );
            // Dummies elided: the matched execution is never longer.
            assert!(matched.len() <= exec.len());
        }
    }

    #[test]
    fn reverse_r_exhaustive_on_small_instances() {
        for inst in [
            stream::chain_away(4),
            stream::star_away(3),
            lr_graph::parse::parse_instance("dest 3\n1 > 0\n2 > 0\n3 > 0").unwrap(),
            stream::random_connected(5, 3, 77),
        ] {
            let np = NewPrAutomaton { inst: &inst };
            let os = OneStepPrAutomaton { inst: &inst };
            let report = rev_r_checker(&inst)
                .check_exhaustive(&np, &os, 1_000_000)
                .expect("R⁻ is a forward simulation NewPR → OneStepPR");
            assert!(report.complete);
        }
    }

    #[test]
    fn reverse_r_prime_exhaustive_on_small_instances() {
        for inst in [stream::chain_away(4), stream::star_away(3)] {
            let os = OneStepPrAutomaton { inst: &inst };
            let pr = PrSetAutomaton { inst: &inst };
            let report = rev_r_prime_checker(&inst)
                .check_exhaustive(&os, &pr, 1_000_000)
                .expect("R' reversed is a forward simulation OneStepPR → PR");
            assert!(report.complete);
        }
    }

    #[test]
    fn equivalence_round_trip_on_random_instances() {
        for seed in 0..10 {
            let inst = stream::random_connected(8, 8, 8000 + seed);
            let report = equivalence_round_trip(
                &inst,
                &mut schedulers::UniformRandom::seeded(seed),
                100_000,
            )
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert!(report.onestep_steps <= report.newpr_steps);
            assert_eq!(report.onestep_steps, report.pr_steps);
            // The round trip ends destination-oriented.
            assert!(report.final_orientation.is_destination_oriented(inst.dest));
        }
    }
}
