use std::fmt;

use crate::Automaton;

/// A named predicate over automaton states — the executable form of the
/// paper's invariants (3.1, 3.2, 4.1, 4.2, acyclicity).
///
/// A check returns `Ok(())` or a human-readable description of the
/// violation, which the explorer wraps in an [`InvariantViolation`] with
/// the depth of the offending state.
pub struct Invariant<A: Automaton> {
    name: String,
    #[allow(clippy::type_complexity)]
    check: Box<dyn Fn(&A::State) -> Result<(), String> + Send + Sync>,
}

impl<A: Automaton> Invariant<A> {
    /// Creates a named invariant from a checking closure.
    pub fn new<F>(name: impl Into<String>, check: F) -> Self
    where
        F: Fn(&A::State) -> Result<(), String> + Send + Sync + 'static,
    {
        Invariant {
            name: name.into(),
            check: Box::new(check),
        }
    }

    /// Creates an invariant from a boolean predicate (violations carry a
    /// generic message).
    pub fn holds<F>(name: impl Into<String>, pred: F) -> Self
    where
        F: Fn(&A::State) -> bool + Send + Sync + 'static,
    {
        let name = name.into();
        let label = name.clone();
        Invariant::new(name, move |s| {
            if pred(s) {
                Ok(())
            } else {
                Err(format!("predicate '{label}' is false"))
            }
        })
    }

    /// The invariant's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Checks the invariant in one state.
    pub fn check(&self, state: &A::State) -> Result<(), String> {
        (self.check)(state)
    }
}

impl<A: Automaton> fmt::Debug for Invariant<A> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Invariant")
            .field("name", &self.name)
            .finish()
    }
}

/// Outcome of checking a set of invariants across a state space or
/// execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckOutcome {
    /// Every invariant held in every checked state.
    Ok {
        /// Number of states checked.
        states_checked: usize,
    },
    /// Some invariant failed.
    Violated(InvariantViolation),
}

impl CheckOutcome {
    /// `true` when no violation was found.
    pub fn is_ok(&self) -> bool {
        matches!(self, CheckOutcome::Ok { .. })
    }
}

/// A concrete invariant violation, with enough context to reproduce it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvariantViolation {
    /// Name of the violated invariant.
    pub invariant: String,
    /// Description produced by the check.
    pub message: String,
    /// Depth (number of steps from the initial state) of the violating
    /// state, when known.
    pub depth: Option<usize>,
}

impl fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invariant '{}' violated", self.invariant)?;
        if let Some(d) = self.depth {
            write!(f, " at depth {d}")?;
        }
        write!(f, ": {}", self.message)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::automaton::test_automata::Counter;

    #[test]
    fn invariant_check_and_name() {
        let inv: Invariant<Counter> = Invariant::new("below-5", |s: &u32| {
            if *s < 5 {
                Ok(())
            } else {
                Err(format!("state {s} is not below 5"))
            }
        });
        assert_eq!(inv.name(), "below-5");
        assert!(inv.check(&3).is_ok());
        let err = inv.check(&7).unwrap_err();
        assert!(err.contains('7'));
    }

    #[test]
    fn holds_constructor() {
        let inv: Invariant<Counter> = Invariant::holds("even", |s: &u32| s.is_multiple_of(2));
        assert!(inv.check(&2).is_ok());
        assert!(inv.check(&3).is_err());
    }

    #[test]
    fn violation_display() {
        let v = InvariantViolation {
            invariant: "acyclic".into(),
            message: "cycle n0->n1->n0".into(),
            depth: Some(4),
        };
        let s = v.to_string();
        assert!(s.contains("acyclic"));
        assert!(s.contains("depth 4"));
        assert!(s.contains("n0->n1->n0"));
    }

    #[test]
    fn outcome_is_ok() {
        assert!(CheckOutcome::Ok { states_checked: 10 }.is_ok());
        let v = InvariantViolation {
            invariant: "x".into(),
            message: "y".into(),
            depth: None,
        };
        assert!(!CheckOutcome::Violated(v).is_ok());
    }
}
