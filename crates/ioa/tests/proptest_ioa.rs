//! Property-based tests of the I/O-automaton framework itself, using a
//! parametric bounded-grid automaton (two counters with caps) whose
//! state space is fully understood.

use lr_ioa::explore::{check_termination, explore, TerminationResult};
use lr_ioa::{run, run_to_quiescence, schedulers, Automaton, Invariant};
use proptest::prelude::*;

/// Two independent counters capped at (a, b); quiesces at (a, b).
#[derive(Debug, Clone)]
struct Grid {
    a: u8,
    b: u8,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Axis {
    A,
    B,
}

impl Automaton for Grid {
    type State = (u8, u8);
    type Action = Axis;

    fn initial_state(&self) -> (u8, u8) {
        (0, 0)
    }

    fn enabled_actions(&self, s: &(u8, u8)) -> Vec<Axis> {
        let mut v = Vec::new();
        if s.0 < self.a {
            v.push(Axis::A);
        }
        if s.1 < self.b {
            v.push(Axis::B);
        }
        v
    }

    fn apply(&self, s: &(u8, u8), action: &Axis) -> (u8, u8) {
        match action {
            Axis::A => (s.0 + 1, s.1),
            Axis::B => (s.0, s.1 + 1),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every recorded execution validates against its automaton, under
    /// every stock scheduler.
    #[test]
    fn recorded_executions_validate(a in 0u8..6, b in 0u8..6, seed in any::<u64>()) {
        let g = Grid { a, b };
        let runs = [
            run(&g, &mut schedulers::FirstEnabled, 1_000),
            run(&g, &mut schedulers::LastEnabled, 1_000),
            run(&g, &mut schedulers::RoundRobin::default(), 1_000),
            run(&g, &mut schedulers::UniformRandom::seeded(seed), 1_000),
        ];
        for exec in &runs {
            prop_assert!(exec.validate(&g).is_ok());
            // The grid quiesces exactly at (a, b) after a + b steps.
            prop_assert_eq!(*exec.last_state(), (a, b));
            prop_assert_eq!(exec.len(), (a + b) as usize);
        }
    }

    /// The explorer visits exactly the (a+1)(b+1) grid states and finds
    /// the single quiescent corner.
    #[test]
    fn explorer_counts_grid_states(a in 0u8..6, b in 0u8..6) {
        let g = Grid { a, b };
        let report = explore(&g, &[], 1_000_000);
        prop_assert!(report.verified());
        prop_assert_eq!(report.states_visited, (a as usize + 1) * (b as usize + 1));
        prop_assert_eq!(report.quiescent_states, 1);
        prop_assert_eq!(report.max_depth_reached, (a + b) as usize);
    }

    /// An invariant that only fails at the far corner is found at depth
    /// a + b, after every other grid state was admitted.
    #[test]
    fn corner_violation_is_found_at_its_depth(a in 1u8..6, b in 1u8..6) {
        let g = Grid { a, b };
        let inv = Invariant::holds("not-corner", move |s: &(u8, u8)| *s != (a, b));
        let report = explore(&g, &[inv], 1_000_000);
        let violation = report.violation.expect("corner reached");
        prop_assert_eq!(violation.depth, Some((a + b) as usize));
        prop_assert_eq!(report.states_visited, (a as usize + 1) * (b as usize + 1));
    }

    /// Termination analysis: the grid terminates with longest execution
    /// a + b; adding a wrap-around edge makes it diverge.
    #[test]
    fn termination_analysis_is_exact(a in 0u8..6, b in 0u8..6) {
        let g = Grid { a, b };
        prop_assert_eq!(
            check_termination(&g, 1_000_000),
            TerminationResult::Terminates {
                states: (a as usize + 1) * (b as usize + 1),
                longest_execution: (a + b) as usize,
            }
        );
    }

    /// run_to_quiescence reports termination truthfully.
    #[test]
    fn quiescence_reports(a in 0u8..6, b in 0u8..6) {
        let g = Grid { a, b };
        let r = run_to_quiescence(&g, &mut schedulers::FirstEnabled, 10_000);
        prop_assert!(r.quiescent);
        let r = run_to_quiescence(&Grid { a: 5, b: 5 }, &mut schedulers::FirstEnabled, 3);
        prop_assert!(!r.quiescent);
    }
}

/// A two-state loop automaton for divergence checking (outside proptest —
/// no parameters needed).
#[test]
fn loop_automaton_diverges() {
    #[derive(Debug, Clone)]
    struct Flip;
    impl Automaton for Flip {
        type State = bool;
        type Action = ();
        fn initial_state(&self) -> bool {
            false
        }
        fn enabled_actions(&self, _: &bool) -> Vec<()> {
            vec![()]
        }
        fn apply(&self, s: &bool, _: &()) -> bool {
            !s
        }
    }
    assert!(matches!(
        check_termination(&Flip, 1_000),
        TerminationResult::Diverges { .. }
    ));
}
