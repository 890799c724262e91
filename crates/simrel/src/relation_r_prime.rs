//! The binary relation `R'` between `PR` (Algorithm 1, set actions) and
//! `OneStepPR` (Algorithm 3, single-node actions) — §5.2 of the paper.
//!
//! `(s, t) ∈ R'` iff
//!
//! 1. `s.G' = t.G'` — both states orient every edge the same way, and
//! 2. `s.list[u] = t.list[u]` for every node `u`.
//!
//! The step correspondence of Lemma 5.1(b) maps one `reverse(S)` to the
//! sequence `reverse(u₁), …, reverse(uₙ)` over the members of `S` (any
//! order works because sinks are pairwise non-adjacent; we use ascending
//! node order, matching the paper's arbitrary enumeration).

use lr_core::alg::{OneStepPrAutomaton, PrSetAutomaton, PrState, ReverseSet};
use lr_graph::{NodeId, ReversalInstance};
use lr_ioa::SimulationChecker;

/// Does `R'` relate these two states?
///
/// Both automata share the [`PrState`] type, so the relation compares the
/// derived orientation and the lists — exactly parts (1) and (2) of the
/// paper's definition (not raw state equality, although the two coincide
/// whenever Invariant 3.1 holds). The orientations are compared on the
/// direction bits in place, through
/// [`MirroredDirs::same_orientation`](lr_core::MirroredDirs::same_orientation).
pub fn r_prime_holds(s: &PrState, t: &PrState) -> bool {
    s.dirs.same_orientation(&t.dirs) && s.same_lists(t)
}

/// Builds the Lemma 5.1 checker: relation `R'` plus the constructive step
/// correspondence `reverse(S) ↦ (reverse(u))_{u ∈ S}`.
pub fn r_prime_checker(
    _inst: &ReversalInstance,
) -> SimulationChecker<PrSetAutomaton<'_>, OneStepPrAutomaton<'_>> {
    SimulationChecker::new(
        r_prime_holds,
        |_s: &PrState, action: &ReverseSet, _t: &PrState| -> Vec<NodeId> {
            action.0.iter().copied().collect()
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use lr_core::alg::pr_reverse_set;
    use lr_graph::stream;
    use lr_ioa::{run, schedulers, Automaton, SimulationError};
    use std::collections::BTreeSet;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn initial_states_are_related() {
        let inst = stream::random_connected(8, 5, 1);
        let pr = PrSetAutomaton { inst: &inst };
        let os = OneStepPrAutomaton { inst: &inst };
        assert!(r_prime_holds(&pr.initial_state(), &os.initial_state()));
    }

    #[test]
    fn relation_distinguishes_diverged_lists() {
        let inst = stream::chain_away(4);
        let s = PrState::initial(&inst);
        let mut t = PrState::initial(&inst);
        t.insert_into_list(n(1), n(2));
        assert!(!r_prime_holds(&s, &t));
    }

    #[test]
    fn relation_distinguishes_diverged_orientations() {
        let inst = stream::chain_away(4);
        let s = PrState::initial(&inst);
        let mut t = PrState::initial(&inst);
        t.dirs.reverse_outward(n(3), n(2));
        assert!(!r_prime_holds(&s, &t));
    }

    #[test]
    fn set_step_matched_by_singleton_sequence() {
        let inst = stream::star_away(4);
        let checker = r_prime_checker(&inst);
        let s = PrState::initial(&inst);
        let action = ReverseSet(BTreeSet::from([n(1), n(3), n(4)]));
        let seq = checker.matching_actions(&s, &action, &s);
        assert_eq!(seq, vec![n(1), n(3), n(4)]);
    }

    #[test]
    fn lemma_5_1_along_random_executions() {
        for seed in 0..10 {
            let inst = stream::random_connected(9, 6, 500 + seed);
            let pr = PrSetAutomaton { inst: &inst };
            let os = OneStepPrAutomaton { inst: &inst };
            let exec = run(&pr, &mut schedulers::UniformRandom::seeded(seed), 10_000);
            let checker = r_prime_checker(&inst);
            let abs_exec = checker
                .check_execution(&pr, &os, &exec)
                .unwrap_or_else(|e| panic!("seed {seed}: R' violated: {e}"));
            // The matched execution reverses the same edges in total.
            assert_eq!(
                abs_exec.last_state().dirs.orientation(),
                exec.last_state().dirs.orientation()
            );
            assert!(abs_exec.validate(&os).is_ok());
        }
    }

    #[test]
    fn theorem_5_2_exhaustive_on_small_instances() {
        for inst in [
            stream::chain_away(4),
            stream::star_away(3),
            stream::random_connected(5, 3, 7),
        ] {
            let pr = PrSetAutomaton { inst: &inst };
            let os = OneStepPrAutomaton { inst: &inst };
            let report = r_prime_checker(&inst)
                .check_exhaustive(&pr, &os, 1_000_000)
                .expect("R' is a forward simulation");
            assert!(report.complete);
            assert!(report.pairs_visited >= 1);
        }
    }

    #[test]
    fn wrong_correspondence_is_rejected() {
        // A correspondence that drops one member of S must break the
        // relation (the dropped node's reversal is missing).
        let inst = stream::star_away(3);
        let pr = PrSetAutomaton { inst: &inst };
        let os = OneStepPrAutomaton { inst: &inst };
        let broken: SimulationChecker<PrSetAutomaton, OneStepPrAutomaton> =
            SimulationChecker::new(r_prime_holds, |_s, action: &ReverseSet, _t| {
                action.0.iter().copied().skip(1).collect()
            });
        let mut s = PrState::initial(&inst);
        let action = ReverseSet(BTreeSet::from([n(1), n(2)]));
        let mut exec = lr_ioa::Execution::<PrSetAutomaton>::new(s.clone());
        pr_reverse_set(&inst, &mut s, &action.0);
        exec.push(action, s);
        assert!(matches!(
            broken.check_execution(&pr, &os, &exec),
            Err(SimulationError::RelationBroken { .. })
        ));
    }
}
