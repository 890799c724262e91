use std::fmt::Debug;
use std::hash::Hash;

/// A (closed) I/O automaton: a transition system with preconditioned
/// actions, following Lynch's model as used in §3–§4 of the paper.
///
/// Implementations describe a *family instance* — e.g. "NewPR on this
/// particular graph with this destination" — while the trait's methods give
/// the semantics:
///
/// * [`initial_state`](Automaton::initial_state) — the unique start state
///   (the paper's automata have a single initial state per instance).
/// * [`enabled_actions`](Automaton::enabled_actions) — the actions whose
///   *precondition* holds in a state.
/// * [`apply`](Automaton::apply) — the *effect* of an action.
///
/// States must be `Eq + Hash + Clone` so the explorer can memoize visited
/// states.
pub trait Automaton {
    /// State type. Equality/hash define state identity for exploration.
    type State: Clone + Eq + Hash + Debug;
    /// Action type.
    type Action: Clone + Eq + Debug;

    /// The initial state.
    fn initial_state(&self) -> Self::State;

    /// All actions enabled in `state`, in a deterministic order.
    fn enabled_actions(&self, state: &Self::State) -> Vec<Self::Action>;

    /// Applies `action` to `state`, returning the successor state.
    ///
    /// Callers must only pass enabled actions; implementations are
    /// encouraged to panic on violations (they indicate harness bugs, not
    /// recoverable conditions).
    fn apply(&self, state: &Self::State, action: &Self::Action) -> Self::State;

    /// Whether `action` is enabled in `state`.
    ///
    /// The default implementation searches
    /// [`enabled_actions`](Automaton::enabled_actions); implementations
    /// with large action sets should override it with a direct
    /// precondition check.
    fn is_enabled(&self, state: &Self::State, action: &Self::Action) -> bool {
        self.enabled_actions(state).contains(action)
    }

    /// Whether `state` is quiescent (no action enabled). For link-reversal
    /// automata this is exactly termination: no non-destination sink
    /// remains, i.e. the graph is destination-oriented.
    fn is_quiescent(&self, state: &Self::State) -> bool {
        self.enabled_actions(state).is_empty()
    }
}

#[cfg(test)]
pub(crate) mod test_automata {
    use super::Automaton;

    /// Counts 0..=max in unit steps. Quiesces at `max`.
    pub struct Counter {
        pub max: u32,
    }

    impl Automaton for Counter {
        type State = u32;
        type Action = ();

        fn initial_state(&self) -> u32 {
            0
        }

        fn enabled_actions(&self, s: &u32) -> Vec<()> {
            if *s < self.max {
                vec![()]
            } else {
                vec![]
            }
        }

        fn apply(&self, s: &u32, _: &()) -> u32 {
            s + 1
        }
    }

    /// Two independent tokens moving on a small ring; used to exercise the
    /// explorer with branching.
    pub struct TwoTokens {
        pub ring: u32,
    }

    #[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
    pub enum Token {
        A,
        B,
    }

    impl Automaton for TwoTokens {
        type State = (u32, u32);
        type Action = Token;

        fn initial_state(&self) -> (u32, u32) {
            (0, 0)
        }

        fn enabled_actions(&self, _: &(u32, u32)) -> Vec<Token> {
            vec![Token::A, Token::B]
        }

        fn apply(&self, s: &(u32, u32), a: &Token) -> (u32, u32) {
            match a {
                Token::A => ((s.0 + 1) % self.ring, s.1),
                Token::B => (s.0, (s.1 + 1) % self.ring),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::test_automata::*;
    use super::*;

    #[test]
    fn counter_semantics() {
        let c = Counter { max: 3 };
        let s0 = c.initial_state();
        assert_eq!(s0, 0);
        assert!(c.is_enabled(&s0, &()));
        let s1 = c.apply(&s0, &());
        assert_eq!(s1, 1);
        assert!(!c.is_quiescent(&s1));
        assert!(c.is_quiescent(&3));
        assert!(!c.is_enabled(&3, &()));
    }

    #[test]
    fn two_tokens_never_quiesce() {
        let t = TwoTokens { ring: 2 };
        assert!(!t.is_quiescent(&t.initial_state()));
        assert_eq!(t.enabled_actions(&(1, 1)).len(), 2);
    }
}
