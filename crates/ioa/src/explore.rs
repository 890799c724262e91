//! Breadth-first exploration of an automaton's reachable state space with
//! per-state invariant checking, and a cycle check for termination.
//!
//! The paper proves its invariants by induction over reachable states. For
//! a *fixed finite instance* (a given graph, orientation, and destination)
//! the reachable state space is finite, so the same statement — "invariant
//! I holds in every reachable state" — becomes a terminating breadth-first
//! search. The model checker (`lr_simrel::model_check`) runs this search
//! over every instance of bounded size, fanning the instances out across
//! threads; each search itself is serial.

use crate::store::StateStore;
use crate::{Automaton, Invariant, InvariantViolation};

/// Result of a (possibly truncated) reachability exploration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExplorationReport {
    /// Number of distinct states visited.
    pub states_visited: usize,
    /// Number of transitions traversed.
    pub transitions: usize,
    /// Maximum BFS depth reached.
    pub max_depth_reached: usize,
    /// Number of quiescent (terminal) states found.
    pub quiescent_states: usize,
    /// Sum of frontier widths over all expanded layers (the layer-width
    /// integral).
    pub frontier_sum: usize,
    /// Widest single layer expanded.
    pub frontier_max: usize,
    /// First invariant violation found, in BFS admission order.
    pub violation: Option<InvariantViolation>,
    /// Whether a new state was found after `max_states` states had been
    /// admitted, i.e. the reachable space was not exhausted.
    pub truncated: bool,
}

impl ExplorationReport {
    /// `true` when the full reachable space was explored and no invariant
    /// was violated.
    pub fn verified(&self) -> bool {
        self.violation.is_none() && !self.truncated
    }

    /// The exploration's deterministic metrics, **derived** from the
    /// report, so they (and their rendered bytes) are a projection of the
    /// counts above, never a second tally.
    pub fn metrics(&self) -> lr_obs::MetricsShard {
        let mut m = lr_obs::MetricsShard::new();
        m.add("explore.states", self.states_visited as u64);
        m.add("explore.transitions", self.transitions as u64);
        m.add("explore.quiescent_states", self.quiescent_states as u64);
        m.add("explore.frontier_states", self.frontier_sum as u64);
        // Transitions whose successor was not admitted as a new state:
        // duplicates caught by the visited set, plus budget rejections
        // (the initial state is admitted before any transition fires,
        // hence the `- 1`).
        m.add(
            "explore.duplicate_hits",
            (self.transitions as u64)
                .saturating_sub((self.states_visited as u64).saturating_sub(1)),
        );
        m.add("explore.violations", u64::from(self.violation.is_some()));
        m.add("explore.truncated_runs", u64::from(self.truncated));
        m.record_max("explore.max_frontier", self.frontier_max as u64);
        m.record_max("explore.max_depth", self.max_depth_reached as u64);
        m
    }
}

fn check_invariants<A: Automaton>(
    invariants: &[Invariant<A>],
    state: &A::State,
    depth: usize,
) -> Option<InvariantViolation> {
    for inv in invariants {
        if let Err(message) = inv.check(state) {
            return Some(InvariantViolation {
                invariant: inv.name().to_string(),
                message,
                depth: Some(depth),
            });
        }
    }
    None
}

/// Explores all states reachable from the initial state, layer by layer,
/// checking each invariant in each newly admitted state.
///
/// Layers are expanded in admission order; each admitted state is
/// stored once, and each successor is looked up with one hash. The
/// initial state is always admitted; a new state found once
/// `max_states` states are admitted is dropped and marks the report
/// [`truncated`](ExplorationReport::truncated).
/// The first violating admission stops all further admissions, but the
/// rest of its layer is still expanded, so that layer's transitions and
/// quiescent states are counted in full.
pub fn explore<A: Automaton>(
    automaton: &A,
    invariants: &[Invariant<A>],
    max_states: usize,
) -> ExplorationReport {
    let initial = automaton.initial_state();
    let mut report = ExplorationReport {
        states_visited: 1,
        transitions: 0,
        max_depth_reached: 0,
        quiescent_states: 0,
        frontier_sum: 0,
        frontier_max: 0,
        violation: check_invariants(invariants, &initial, 0),
        truncated: false,
    };
    // The states in admission order: each layer is the range of indices
    // admitted while the previous one was expanded.
    let mut store = StateStore::new(initial);
    let mut layer = 0..1;
    let mut depth = 0usize;
    // Resolved once per exploration, and only when a session records —
    // the disabled path costs one relaxed load per call.
    let layer_span = lr_obs::enabled().then(|| lr_obs::span_handle("explore", "explore.layer"));
    while !layer.is_empty() && report.violation.is_none() {
        report.max_depth_reached = depth;
        report.frontier_sum += layer.len();
        report.frontier_max = report.frontier_max.max(layer.len());
        let _sp = layer_span.as_ref().map(|h| {
            let mut span = h.start();
            span.arg("depth", depth as u64);
            span.arg("frontier", layer.len() as u64);
            span
        });
        for i in layer.clone() {
            let enabled = automaton.enabled_actions(store.get(i));
            if enabled.is_empty() {
                report.quiescent_states += 1;
                continue;
            }
            for action in enabled {
                let succ = automaton.apply(store.get(i), &action);
                report.transitions += 1;
                if report.violation.is_some() {
                    continue;
                }
                let Err(hash) = store.find(&succ) else {
                    continue;
                };
                if report.states_visited >= max_states {
                    report.truncated = true;
                    continue;
                }
                report.states_visited += 1;
                report.violation = check_invariants(invariants, &succ, depth + 1);
                store.admit(succ, hash);
            }
        }
        layer = layer.end..store.len();
        depth += 1;
    }
    if layer_span.is_some() {
        report.metrics().publish();
    }
    report
}

/// Result of [`check_termination`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TerminationResult {
    /// The reachable state graph is acyclic: every execution is finite,
    /// i.e. the automaton terminates under **every** schedule.
    Terminates {
        /// Distinct states visited.
        states: usize,
        /// Length of the longest execution (the worst-case step count
        /// over all schedules).
        longest_execution: usize,
    },
    /// A cycle of states exists: some schedule runs forever.
    Diverges {
        /// DFS depth (steps from the initial state along the search path)
        /// of the state whose successor closed the cycle.
        witness_depth: usize,
    },
    /// The exploration bound was hit before the answer was known.
    Unknown,
}

/// Decides termination of a finite-instance automaton by checking the
/// reachable state graph for cycles (iterative DFS with colors).
///
/// Termination under every schedule — the Gafni–Bertsekas guarantee that
/// complements the paper's acyclicity theorem — is equivalent to the
/// *state graph* being acyclic: a divergent execution in a finite state
/// space must revisit a state. As a bonus, the longest path in the
/// acyclic state graph is the exact worst-case execution length.
///
/// Each state is expanded once, when the search first meets it; a
/// state's last-listed successor is searched first. One store holds
/// every met state once, in the order met, each with a color: grey
/// while it is on the search path, black with the longest path from it
/// once every successor is done. Each stack frame keeps a running
/// maximum, folding in a successor's length when that successor
/// finishes or when it is met already black, so a finished state's
/// length is known without applying its actions again.
pub fn check_termination<A: Automaton>(automaton: &A, max_states: usize) -> TerminationResult {
    enum Color {
        Grey,
        /// Finished, with the length of the longest path from the state.
        Black(usize),
    }

    /// A state on the search path.
    struct Frame<S> {
        /// The state's index in the store.
        index: usize,
        /// Successors not yet processed.
        succs: Vec<S>,
        /// Steps from the initial state along the search path.
        depth: usize,
        /// The longest path through the successors processed so far.
        longest: usize,
    }

    let successors = |state: &A::State| -> Vec<A::State> {
        automaton
            .enabled_actions(state)
            .into_iter()
            .map(|a| automaton.apply(state, &a))
            .collect()
    };

    // Every met state, in the order met, with its color by index.
    let mut store = StateStore::new(automaton.initial_state());
    let mut color = vec![Color::Grey];
    let mut stack = vec![Frame {
        index: 0,
        succs: successors(store.get(0)),
        depth: 0,
        longest: 0,
    }];
    let mut longest_execution = 0;
    while let Some(top) = stack.last_mut() {
        match top.succs.pop() {
            Some(next) => match store.find(&next) {
                Ok(i) => match color[i] {
                    Color::Grey => {
                        return TerminationResult::Diverges {
                            witness_depth: top.depth,
                        };
                    }
                    Color::Black(longest) => top.longest = top.longest.max(longest + 1),
                },
                Err(hash) => {
                    if store.len() >= max_states {
                        return TerminationResult::Unknown;
                    }
                    let depth = top.depth + 1;
                    let succs = successors(&next);
                    let index = store.admit(next, hash);
                    color.push(Color::Grey);
                    stack.push(Frame {
                        index,
                        succs,
                        depth,
                        longest: 0,
                    });
                }
            },
            None => {
                let done = stack.pop().expect("non-empty");
                match stack.last_mut() {
                    Some(parent) => parent.longest = parent.longest.max(done.longest + 1),
                    // Every state is reachable from the initial one, so
                    // no path is longer than the initial state's.
                    None => longest_execution = done.longest,
                }
                color[done.index] = Color::Black(done.longest);
            }
        }
    }
    TerminationResult::Terminates {
        states: store.len(),
        longest_execution,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::automaton::test_automata::{Counter, TwoTokens};

    #[test]
    fn explores_full_counter_space() {
        let c = Counter { max: 9 };
        let r = explore(&c, &[], 1_000_000);
        assert_eq!(r.states_visited, 10);
        assert_eq!(r.transitions, 9);
        assert_eq!(r.quiescent_states, 1);
        assert_eq!(r.max_depth_reached, 9);
        assert!(r.verified());
    }

    #[test]
    fn explores_product_space() {
        let t = TwoTokens { ring: 4 };
        let r = explore(&t, &[], 1_000_000);
        assert_eq!(r.states_visited, 16);
        assert_eq!(r.quiescent_states, 0);
        assert!(r.verified());
    }

    #[test]
    fn finds_violation_at_its_depth() {
        let c = Counter { max: 100 };
        let inv = Invariant::holds("below-4", |s: &u32| *s < 4);
        let r = explore(&c, &[inv], 1_000_000);
        assert!(!r.verified());
        let violation = r.violation.expect("must be violated");
        assert_eq!(violation.invariant, "below-4");
        assert_eq!(violation.depth, Some(4));
        assert_eq!(r.states_visited, 5);
    }

    #[test]
    fn violation_in_initial_state_detected() {
        let c = Counter { max: 3 };
        let inv = Invariant::holds("nonzero", |s: &u32| *s != 0);
        let r = explore(&c, &[inv], 1_000_000);
        assert_eq!(r.violation.expect("violated at s0").depth, Some(0));
        assert_eq!((r.states_visited, r.transitions), (1, 0));
    }

    #[test]
    fn violation_stops_admission_but_finishes_its_layer() {
        // Layer 0 is (0,0); layer 1 is (1,0), (0,1). Expanding (1,0)
        // admits the violating (2,0). The remaining three transitions of
        // layer 1 are still counted, but none of their successors is
        // admitted, and layer 2 is never expanded.
        let t = TwoTokens { ring: 4 };
        let inv = Invariant::holds("not-(2,0)", |s: &(u32, u32)| *s != (2, 0));
        let r = explore(&t, &[inv], 1_000_000);
        assert_eq!(r.violation.expect("(2,0) is reachable").depth, Some(2));
        assert_eq!(
            (r.states_visited, r.transitions, r.max_depth_reached),
            (4, 6, 1)
        );
        assert_eq!((r.frontier_sum, r.frontier_max), (3, 2));
        assert!(!r.truncated);
    }

    #[test]
    fn max_states_truncates() {
        let c = Counter { max: 1_000 };
        let r = explore(&c, &[], 10);
        assert!(r.truncated);
        assert!(!r.verified());
        assert_eq!(r.states_visited, 10);
    }

    #[test]
    fn max_states_zero_and_one_do_not_panic() {
        let c = Counter { max: 100 };
        for max_states in [0usize, 1] {
            let r = explore(&c, &[], max_states);
            // The initial state is always admitted; the budget bites on
            // the first successor.
            assert_eq!(r.states_visited, 1);
            assert!(r.truncated);
            assert!(!r.verified());
        }
    }

    #[test]
    fn counter_terminates_with_exact_longest_execution() {
        let c = Counter { max: 7 };
        assert_eq!(
            check_termination(&c, 1_000_000),
            TerminationResult::Terminates {
                states: 8,
                longest_execution: 7
            }
        );
    }

    #[test]
    fn ring_tokens_diverge() {
        let t = TwoTokens { ring: 3 };
        assert!(matches!(
            check_termination(&t, 1_000_000),
            TerminationResult::Diverges { .. }
        ));
    }

    #[test]
    fn termination_check_respects_bound() {
        let c = Counter { max: 1_000_000 };
        assert_eq!(check_termination(&c, 10), TerminationResult::Unknown);
    }

    /// An explicit state graph: state `s` steps to each state listed in
    /// `self.0[s]`. The search takes a state's last-listed successor
    /// first.
    struct Graph(&'static [&'static [u32]]);

    impl Automaton for Graph {
        type State = u32;
        type Action = u32;

        fn initial_state(&self) -> u32 {
            0
        }

        fn enabled_actions(&self, s: &u32) -> Vec<u32> {
            self.0[*s as usize].to_vec()
        }

        fn apply(&self, _: &u32, next: &u32) -> u32 {
            *next
        }
    }

    #[test]
    fn a_state_finished_through_a_short_branch_keeps_its_length_on_the_long_one() {
        // 0 → 4 → 3 → 5 is searched first and finishes 3 with length 1;
        // the longest path 0 → 1 → 2 → 3 → 5 then meets 3 already black,
        // so its length must come from 3's finished entry.
        let g = Graph(&[&[1, 4], &[2], &[3], &[5], &[3], &[]]);
        assert_eq!(
            check_termination(&g, 1_000_000),
            TerminationResult::Terminates {
                states: 6,
                longest_execution: 4
            }
        );
    }

    #[test]
    fn a_cross_edge_into_a_finished_state_is_not_a_cycle() {
        // 0 → 2 → 3 → 4 finishes first; then 1's edge to 3 (and 0's
        // edge to 1) reaches only finished states.
        let g = Graph(&[&[1, 2], &[3], &[3], &[4], &[]]);
        assert_eq!(
            check_termination(&g, 1_000_000),
            TerminationResult::Terminates {
                states: 5,
                longest_execution: 3
            }
        );
        // A true back edge, 4 → 2, closes the cycle 2 → 3 → 4 → 2 at
        // depth 3.
        let g = Graph(&[&[1, 2], &[3], &[3], &[4], &[2]]);
        assert_eq!(
            check_termination(&g, 1_000_000),
            TerminationResult::Diverges { witness_depth: 3 }
        );
    }
}
