use std::fmt;

use crate::store::StateStore;
use crate::{Automaton, Execution};

/// Mechanized forward-simulation checking, in exactly the shape of the
/// paper's Lemma 5.1(b) and Lemma 5.3(b):
///
/// > For each pair of reachable states `s` of `C` and `t` of `Abs` with
/// > `(s, t) ∈ R`, and for every step `(s, s')` of `C`, there exists a
/// > finite sequence of steps of `Abs` starting with `t` and ending with
/// > some `t'` such that `(s', t') ∈ R`.
///
/// The *existence* of the abstract step sequence is provided constructively
/// by a `correspondence` function (the paper constructs it explicitly in
/// both lemmas: `reverse(S) ↦ reverse(u₁)…reverse(uₙ)` for R′, and
/// `reverse(w) ↦ one or two reverse(w)` for R). The checker then verifies,
/// step by step, that
///
/// 1. the initial states are related (Lemma part (a)),
/// 2. each proposed abstract action is enabled where it is applied,
/// 3. after the abstract sequence, the relation holds again.
pub struct SimulationChecker<C: Automaton, Abs: Automaton> {
    #[allow(clippy::type_complexity)]
    relation: Box<dyn Fn(&C::State, &Abs::State) -> bool + Send + Sync>,
    #[allow(clippy::type_complexity)]
    correspondence:
        Box<dyn Fn(&C::State, &C::Action, &Abs::State) -> Vec<Abs::Action> + Send + Sync>,
}

/// Why a simulation check failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimulationError {
    /// The initial states are not related (Lemma part (a) fails).
    InitialStatesUnrelated,
    /// A proposed abstract action was not enabled.
    AbstractActionNotEnabled {
        /// Index of the concrete step being matched.
        step: usize,
        /// Index within the proposed abstract action sequence.
        seq_index: usize,
    },
    /// After executing the proposed abstract sequence the relation does
    /// not hold between `s'` and `t'`.
    RelationBroken {
        /// Index of the concrete step being matched.
        step: usize,
    },
}

impl fmt::Display for SimulationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimulationError::InitialStatesUnrelated => {
                write!(f, "initial states are not related by R")
            }
            SimulationError::AbstractActionNotEnabled { step, seq_index } => write!(
                f,
                "matching concrete step #{step}: abstract action #{seq_index} of the proposed sequence is not enabled"
            ),
            SimulationError::RelationBroken { step } => write!(
                f,
                "after matching concrete step #{step} the relation R does not hold"
            ),
        }
    }
}

impl std::error::Error for SimulationError {}

impl<C: Automaton, Abs: Automaton> SimulationChecker<C, Abs> {
    /// Creates a checker from the relation `R` and the constructive step
    /// correspondence.
    pub fn new<R, F>(relation: R, correspondence: F) -> Self
    where
        R: Fn(&C::State, &Abs::State) -> bool + Send + Sync + 'static,
        F: Fn(&C::State, &C::Action, &Abs::State) -> Vec<Abs::Action> + Send + Sync + 'static,
    {
        SimulationChecker {
            relation: Box::new(relation),
            correspondence: Box::new(correspondence),
        }
    }

    /// Whether two states are related.
    pub fn related(&self, s: &C::State, t: &Abs::State) -> bool {
        (self.relation)(s, t)
    }

    /// The proposed abstract action sequence matching one concrete step.
    pub fn matching_actions(
        &self,
        s: &C::State,
        action: &C::Action,
        t: &Abs::State,
    ) -> Vec<Abs::Action> {
        (self.correspondence)(s, action, t)
    }

    /// Verifies the simulation obligations along a *given* concrete
    /// execution, constructing the matching abstract execution.
    ///
    /// # Errors
    ///
    /// Returns the first failed obligation.
    pub fn check_execution(
        &self,
        concrete_automaton: &C,
        abstract_automaton: &Abs,
        execution: &Execution<C>,
    ) -> Result<Execution<Abs>, SimulationError> {
        debug_assert!(
            execution.validate(concrete_automaton).is_ok(),
            "concrete execution must be valid"
        );
        let t0 = abstract_automaton.initial_state();
        if !self.related(execution.initial_state(), &t0) {
            return Err(SimulationError::InitialStatesUnrelated);
        }
        let mut abs_exec = Execution::<Abs>::new(t0);
        for (step, (s, a, s_prime)) in execution.steps().enumerate() {
            let t = abs_exec.last_state().clone();
            let seq = self.matching_actions(s, a, &t);
            for (seq_index, abs_action) in seq.into_iter().enumerate() {
                let cur = abs_exec.last_state().clone();
                if !abstract_automaton.is_enabled(&cur, &abs_action) {
                    return Err(SimulationError::AbstractActionNotEnabled { step, seq_index });
                }
                let next = abstract_automaton.apply(&cur, &abs_action);
                abs_exec.push(abs_action, next);
            }
            if !self.related(s_prime, abs_exec.last_state()) {
                return Err(SimulationError::RelationBroken { step });
            }
        }
        Ok(abs_exec)
    }
}

/// Statistics from [`SimulationChecker::check_exhaustive`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExhaustiveSimReport {
    /// Number of related `(concrete, abstract)` state pairs visited.
    pub pairs_visited: usize,
    /// Number of concrete transitions matched.
    pub transitions_matched: usize,
    /// Whether the pair space was exhausted within the bound.
    pub complete: bool,
}

impl<C: Automaton, Abs: Automaton> SimulationChecker<C, Abs> {
    /// Verifies the simulation obligations over the **entire reachable
    /// pair space**: starting from the initial pair, every concrete
    /// transition from every reached pair is matched via the
    /// correspondence, and each resulting pair is re-checked and explored.
    ///
    /// This is the finite-instance analogue of the induction in Theorems
    /// 5.2/5.4: instead of one execution, *all* executions are covered
    /// (the abstract successor is deterministic given the proposed action
    /// sequence, which is how the paper's proofs construct the matching
    /// execution too).
    ///
    /// # Errors
    ///
    /// Returns the first failed obligation.
    pub fn check_exhaustive(
        &self,
        concrete_automaton: &C,
        abstract_automaton: &Abs,
        max_pairs: usize,
    ) -> Result<ExhaustiveSimReport, SimulationError> {
        let s0 = concrete_automaton.initial_state();
        let t0 = abstract_automaton.initial_state();
        if !self.related(&s0, &t0) {
            return Err(SimulationError::InitialStatesUnrelated);
        }
        // The pairs in admission order, each stored once: the FIFO queue
        // is the range of indices from `next` on.
        let mut store = StateStore::new((s0, t0));
        let mut next = 0;
        let mut report = ExhaustiveSimReport {
            pairs_visited: 1,
            transitions_matched: 0,
            complete: true,
        };
        while next < store.len() {
            let i = next;
            next += 1;
            for a in concrete_automaton.enabled_actions(&store.get(i).0) {
                let (s, t) = store.get(i);
                let s_prime = concrete_automaton.apply(s, &a);
                let mut t_cur = t.clone();
                for (seq_index, abs_action) in
                    self.matching_actions(s, &a, t).into_iter().enumerate()
                {
                    if !abstract_automaton.is_enabled(&t_cur, &abs_action) {
                        return Err(SimulationError::AbstractActionNotEnabled {
                            step: report.transitions_matched,
                            seq_index,
                        });
                    }
                    t_cur = abstract_automaton.apply(&t_cur, &abs_action);
                }
                if !self.related(&s_prime, &t_cur) {
                    return Err(SimulationError::RelationBroken {
                        step: report.transitions_matched,
                    });
                }
                report.transitions_matched += 1;
                let pair = (s_prime, t_cur);
                if let Err(hash) = store.find(&pair) {
                    if report.pairs_visited >= max_pairs {
                        report.complete = false;
                        continue;
                    }
                    report.pairs_visited += 1;
                    store.admit(pair, hash);
                }
            }
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::automaton::test_automata::Counter;
    use crate::{run, schedulers::FirstEnabled, Automaton};

    /// A counter that advances by 2 each step; simulated by Counter via
    /// two unit steps.
    struct BigStep {
        max: u32,
    }

    impl Automaton for BigStep {
        type State = u32;
        type Action = ();

        fn initial_state(&self) -> u32 {
            0
        }

        fn enabled_actions(&self, s: &u32) -> Vec<()> {
            if *s + 2 <= self.max {
                vec![()]
            } else {
                vec![]
            }
        }

        fn apply(&self, s: &u32, _: &()) -> u32 {
            s + 2
        }
    }

    fn checker() -> SimulationChecker<BigStep, Counter> {
        SimulationChecker::new(
            |s: &u32, t: &u32| s == t,
            |_s, _a, _t| vec![(), ()], // one big step = two unit steps
        )
    }

    #[test]
    fn valid_simulation_constructs_abstract_execution() {
        let big = BigStep { max: 10 };
        let small = Counter { max: 10 };
        let exec = run(&big, &mut FirstEnabled, 100);
        assert_eq!(*exec.last_state(), 10);
        let abs = checker()
            .check_execution(&big, &small, &exec)
            .expect("simulation holds");
        assert_eq!(*abs.last_state(), 10);
        assert_eq!(abs.len(), 10); // 5 big steps * 2 unit steps
        assert!(abs.validate(&small).is_ok());
    }

    #[test]
    fn relation_breakage_detected() {
        let big = BigStep { max: 10 };
        let small = Counter { max: 10 };
        // Wrong correspondence: one unit step per big step — relation
        // (equality) breaks after the first matched step.
        let bad: SimulationChecker<BigStep, Counter> =
            SimulationChecker::new(|s, t| s == t, |_, _, _| vec![()]);
        let exec = run(&big, &mut FirstEnabled, 1);
        assert_eq!(
            bad.check_execution(&big, &small, &exec),
            Err(SimulationError::RelationBroken { step: 0 })
        );
    }

    #[test]
    fn disabled_abstract_action_detected() {
        let big = BigStep { max: 10 };
        // Abstract automaton too small: its counter quiesces at 1, so the
        // second proposed unit action is disabled.
        let tiny = Counter { max: 1 };
        let exec = run(&big, &mut FirstEnabled, 1);
        assert_eq!(
            checker().check_execution(&big, &tiny, &exec),
            Err(SimulationError::AbstractActionNotEnabled {
                step: 0,
                seq_index: 1
            })
        );
    }

    #[test]
    fn unrelated_initial_states_detected() {
        let big = BigStep { max: 4 };
        let small = Counter { max: 4 };
        let never: SimulationChecker<BigStep, Counter> =
            SimulationChecker::new(|_, _| false, |_, _, _| vec![]);
        let exec = run(&big, &mut FirstEnabled, 0);
        assert_eq!(
            never.check_execution(&big, &small, &exec),
            Err(SimulationError::InitialStatesUnrelated)
        );
    }

    #[test]
    fn exhaustive_check_covers_pair_space() {
        let big = BigStep { max: 8 };
        let small = Counter { max: 8 };
        let report = checker()
            .check_exhaustive(&big, &small, 10_000)
            .expect("simulation holds");
        // Pairs are (0,0), (2,2), (4,4), (6,6), (8,8).
        assert_eq!(report.pairs_visited, 5);
        assert_eq!(report.transitions_matched, 4);
        assert!(report.complete);
    }

    #[test]
    fn exhaustive_check_detects_broken_relation() {
        let big = BigStep { max: 8 };
        let small = Counter { max: 8 };
        let bad: SimulationChecker<BigStep, Counter> =
            SimulationChecker::new(|s, t| s == t, |_, _, _| vec![()]);
        assert_eq!(
            bad.check_exhaustive(&big, &small, 10_000),
            Err(SimulationError::RelationBroken { step: 0 })
        );
    }

    #[test]
    fn exhaustive_check_reports_truncation() {
        let big = BigStep { max: 1_000 };
        let small = Counter { max: 1_000 };
        let report = checker().check_exhaustive(&big, &small, 5).unwrap();
        assert!(!report.complete);
        assert_eq!(report.pairs_visited, 5);
    }

    #[test]
    fn error_display_mentions_step() {
        let e = SimulationError::AbstractActionNotEnabled {
            step: 3,
            seq_index: 1,
        };
        let s = e.to_string();
        assert!(s.contains("#3"));
        assert!(s.contains("#1"));
    }
}
