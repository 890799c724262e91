//! The binary relation `R` between `OneStepPR` and `NewPR` — §5.3 of the
//! paper.
//!
//! `(s, t) ∈ R` iff
//!
//! 1. `s.G' = t.G'` — both states orient every edge the same way;
//! 2. for each node `u`: if `t.parity[u] = even` then
//!    `s.list[u] ⊆ out-nbrs_u`;
//! 3. for each node `u`: if `t.parity[u] = odd` then
//!    `s.list[u] ⊆ in-nbrs_u`.
//!
//! The step correspondence of Lemma 5.3(b) maps one `reverse(w)` of
//! `OneStepPR` to **one or two** `reverse(w)` actions of `NewPR`: two
//! exactly when `s.list[w] = nbrs_w`, in which case NewPR's first step is
//! the dummy step that re-aligns `w`'s parity.

use lr_core::alg::{NewPrAutomaton, NewPrState, OneStepPrAutomaton, Parity, PrState};
use lr_graph::{NodeId, ReversalInstance};
use lr_ioa::SimulationChecker;

/// Does `R` relate an `OneStepPR` state and a `NewPR` state?
pub fn r_holds(inst: &ReversalInstance, s: &PrState, t: &NewPrState) -> bool {
    if !s.dirs.same_orientation(&t.dirs) {
        return false;
    }
    // list[u] ⊆ out-nbrs_u at even parity, ⊆ in-nbrs_u at odd.
    inst.csr()
        .nodes()
        .all(|u| s.list_within_initial(inst, u, t.parity(u) == Parity::Even))
}

/// Builds the Lemma 5.3 checker: relation `R` plus the constructive
/// one-or-two-step correspondence.
pub fn r_checker(
    inst: &ReversalInstance,
) -> SimulationChecker<OneStepPrAutomaton<'_>, NewPrAutomaton<'_>> {
    let rel_inst = inst.clone();
    let corr_inst = inst.clone();
    SimulationChecker::new(
        move |s: &PrState, t: &NewPrState| r_holds(&rel_inst, s, t),
        move |s: &PrState, &w: &NodeId, _t: &NewPrState| -> Vec<NodeId> {
            // list[w] = nbrs_w, both ascending.
            if s.list(w).eq(corr_inst.csr().neighbors(w)) {
                // The dummy step re-aligns parity, then the real step
                // reverses the same set OneStepPR reverses.
                vec![w, w]
            } else {
                vec![w]
            }
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use lr_graph::stream;
    use lr_ioa::{run, schedulers, Automaton};

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn initial_states_are_related() {
        let inst = stream::random_connected(8, 5, 2);
        let os = OneStepPrAutomaton { inst: &inst };
        let np = NewPrAutomaton { inst: &inst };
        assert!(r_holds(&inst, &os.initial_state(), &np.initial_state()));
    }

    #[test]
    fn relation_rejects_diverged_orientations() {
        let inst = stream::chain_away(4);
        let s = PrState::initial(&inst);
        let mut t = NewPrState::initial(&inst);
        t.dirs.reverse_outward(n(3), n(2));
        assert!(!r_holds(&inst, &s, &t));
    }

    #[test]
    fn relation_rejects_list_outside_parity_set() {
        let inst = stream::chain_away(4);
        let mut s = PrState::initial(&inst);
        // parity[1] is even, so list[1] must be ⊆ out-nbrs(1) = {2};
        // insert the in-neighbor 0 instead.
        s.insert_into_list(n(1), n(0));
        let t = NewPrState::initial(&inst);
        assert!(!r_holds(&inst, &s, &t));
    }

    #[test]
    fn correspondence_is_single_step_for_partial_list() {
        let inst = stream::chain_away(4);
        let checker = r_checker(&inst);
        let s = PrState::initial(&inst);
        let t = NewPrState::initial(&inst);
        // list[3] = ∅ ≠ nbrs(3) = {2} → one step.
        assert_eq!(checker.matching_actions(&s, &n(3), &t), vec![n(3)]);
    }

    #[test]
    fn correspondence_is_double_step_for_full_list() {
        let inst = stream::chain_away(4);
        let checker = r_checker(&inst);
        let mut s = PrState::initial(&inst);
        s.insert_into_list(n(3), n(2)); // list = nbrs
        let t = NewPrState::initial(&inst);
        assert_eq!(checker.matching_actions(&s, &n(3), &t), vec![n(3), n(3)]);
    }

    #[test]
    fn lemma_5_3_along_random_executions() {
        for seed in 0..10 {
            let inst = stream::random_connected(9, 6, 600 + seed);
            let os = OneStepPrAutomaton { inst: &inst };
            let np = NewPrAutomaton { inst: &inst };
            let exec = run(&os, &mut schedulers::UniformRandom::seeded(seed), 10_000);
            assert!(os.is_quiescent(exec.last_state()));
            let checker = r_checker(&inst);
            let abs_exec = checker
                .check_execution(&os, &np, &exec)
                .unwrap_or_else(|e| panic!("seed {seed}: R violated: {e}"));
            assert_eq!(
                abs_exec.last_state().dirs.orientation(),
                exec.last_state().dirs.orientation(),
                "both executions must end with the same G'"
            );
            // NewPR may take more steps (dummies), never fewer.
            assert!(abs_exec.len() >= exec.len());
        }
    }

    #[test]
    fn theorem_5_4_exhaustive_on_small_instances() {
        for inst in [
            stream::chain_away(4),
            stream::star_away(3),
            lr_graph::parse::parse_instance("dest 3\n1 > 0\n2 > 0\n3 > 0").unwrap(),
            stream::random_connected(5, 3, 8),
        ] {
            let os = OneStepPrAutomaton { inst: &inst };
            let np = NewPrAutomaton { inst: &inst };
            let report = r_checker(&inst)
                .check_exhaustive(&os, &np, 1_000_000)
                .expect("R is a forward simulation");
            assert!(report.complete);
        }
    }

    #[test]
    fn dummy_steps_appear_in_matched_executions() {
        // The star centered on an initial sink with a leaf destination
        // forces full-list steps in OneStepPR, hence double steps in the
        // matched NewPR execution.
        let inst = lr_graph::parse::parse_instance("dest 3\n1 > 0\n2 > 0\n3 > 0").unwrap();
        let os = OneStepPrAutomaton { inst: &inst };
        let np = NewPrAutomaton { inst: &inst };
        let exec = run(&os, &mut schedulers::FirstEnabled, 10_000);
        assert!(os.is_quiescent(exec.last_state()));
        let abs_exec = r_checker(&inst)
            .check_execution(&os, &np, &exec)
            .expect("R holds");
        assert!(
            abs_exec.len() > exec.len(),
            "expected dummy steps to lengthen the NewPR execution \
             (OneStepPR: {}, NewPR: {})",
            exec.len(),
            abs_exec.len()
        );
    }
}
