//! Full Reversal (FR): when a node is a sink it reverses **all** of its
//! incident edges (§1 of the paper, originally Gafni–Bertsekas).
//!
//! FR needs no per-node bookkeeping at all, which is why its acyclicity
//! argument is one paragraph: the last node to step has all edges
//! outgoing, so it cannot lie on a cycle.

use std::sync::Arc;

use lr_graph::{NodeId, Orientation, ReversalInstance};
use lr_ioa::Automaton;

use crate::alg::{assert_may_step, may_step, Frontier, Rule};
use crate::{MirroredDirs, ReversalStep, StepScratch};

/// FR state: just the mirrored edge directions.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct FullReversalState {
    /// The `dir[u, v]` variables.
    pub dirs: MirroredDirs,
}

impl FullReversalState {
    /// The initial state for an instance.
    pub fn initial(inst: &ReversalInstance) -> Self {
        FullReversalState {
            dirs: MirroredDirs::from_instance(inst),
        }
    }
}

/// Applies one FR step at `u`: reverse every incident edge outward.
///
/// # Panics
///
/// Panics if `u` is not a sink or is the destination.
pub(crate) fn full_reversal_step(
    inst: &ReversalInstance,
    state: &mut FullReversalState,
    u: NodeId,
) -> ReversalStep {
    assert_may_step(inst, &state.dirs, u);
    let csr = Arc::clone(state.dirs.csr());
    let ui = csr.index_of(u).expect("sink is a node");
    let mut targets = Vec::with_capacity(csr.degree(ui));
    for slot in csr.slots(ui) {
        targets.push(csr.node(csr.target(slot)));
        state.dirs.reverse_outward_at(slot);
    }
    ReversalStep {
        node: u,
        reversed: targets,
        dummy: false,
    }
}

/// Full Reversal's rule: a sink reverses every incident edge. Its only
/// state is the bit-packed [`MirroredDirs`], so a step is one masked
/// word flip per incident edge.
#[derive(Debug, Clone, Copy, Default)]
pub struct FrRule;

/// FR over a [`ReversalInstance`]: the engine shell around [`FrRule`].
/// Step-for-step identical to [`FullReversalAutomaton`] (the lockstep
/// suite).
pub type FrontierFrEngine = Frontier<FrRule>;

impl FrontierFrEngine {
    /// The current bit-packed direction state.
    pub fn dirs(&self) -> &MirroredDirs {
        &self.state
    }
}

impl Rule for FrRule {
    type State = MirroredDirs;

    fn name(&self) -> &'static str {
        "FR"
    }

    fn initial(&self, inst: &ReversalInstance) -> MirroredDirs {
        MirroredDirs::from_instance(inst)
    }

    #[inline]
    fn is_sink_at(&self, _: &ReversalInstance, dirs: &MirroredDirs, ui: usize) -> bool {
        dirs.is_sink_at(ui)
    }

    #[inline]
    fn step(
        &self,
        inst: &ReversalInstance,
        dirs: &mut MirroredDirs,
        ui: usize,
        scratch: &mut StepScratch,
    ) {
        for slot in inst.csr().slots(ui) {
            scratch.push(slot);
            dirs.reverse_outward_at(slot);
        }
    }

    fn orientation(&self, _: &ReversalInstance, dirs: &MirroredDirs) -> Orientation {
        dirs.orientation()
    }

    fn state_bytes(dirs: &MirroredDirs) -> usize {
        dirs.resident_bytes()
    }
}

/// FR as an I/O automaton with single-node `reverse(u)` actions.
#[derive(Debug, Clone, Copy)]
pub struct FullReversalAutomaton<'a> {
    /// The fixed instance.
    pub inst: &'a ReversalInstance,
}

impl Automaton for FullReversalAutomaton<'_> {
    type State = FullReversalState;
    type Action = NodeId;

    fn initial_state(&self) -> FullReversalState {
        FullReversalState::initial(self.inst)
    }

    fn enabled_actions(&self, state: &FullReversalState) -> Vec<NodeId> {
        self.inst
            .csr()
            .nodes()
            .filter(|&u| may_step(self.inst, &state.dirs, u))
            .collect()
    }

    fn is_enabled(&self, state: &FullReversalState, &u: &NodeId) -> bool {
        may_step(self.inst, &state.dirs, u)
    }

    fn apply(&self, state: &FullReversalState, &u: &NodeId) -> FullReversalState {
        let mut next = state.clone();
        full_reversal_step(self.inst, &mut next, u);
        next
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alg::FrontierEngine;
    use lr_graph::stream;
    use lr_ioa::run;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn fr_step_reverses_all_edges() {
        let mut e = FrontierFrEngine::new(stream::star_away(3)); // leaves 1,2,3 are sinks
        let step = e.step(n(1));
        assert_eq!(step.reversed, vec![n(0)]);
        assert!(!step.dummy);
        assert!(!e.is_sink(n(1)));
    }

    #[test]
    #[should_panic(expected = "must be a sink")]
    fn fr_step_requires_sink() {
        let mut e = FrontierFrEngine::new(stream::chain_away(3));
        e.step(n(1)); // node 1 has an outgoing edge
    }

    #[test]
    #[should_panic(expected = "never takes steps")]
    fn destination_never_steps() {
        let mut e = FrontierFrEngine::new(stream::chain_toward(2)); // dest 0 is a sink here
        e.step(n(0));
    }

    #[test]
    fn fr_terminates_destination_oriented_on_chain() {
        let inst = stream::chain_away(5);
        let mut e = FrontierFrEngine::new(inst.clone());
        let mut total = 0usize;
        while let Some(&u) = e.enabled().first() {
            total += e.step(u).reversal_count();
            assert!(total < 10_000, "runaway execution");
        }
        let o = e.orientation();
        assert!(o.is_destination_oriented(inst.dest));
        assert!(o.is_acyclic());
        assert!(total > 0);
    }

    #[test]
    fn frontier_fr_reset_restores_initial() {
        let mut e = FrontierFrEngine::new(stream::chain_away(5));
        let fresh = e.clone();
        e.step(n(4));
        assert_ne!(e.orientation(), fresh.orientation());
        e.reset();
        assert_eq!(e.dirs(), fresh.dirs());
        assert_eq!(e.enabled(), fresh.enabled());
    }

    #[test]
    fn fr_preserves_acyclicity_along_random_runs() {
        let inst = stream::random_connected(10, 8, 42);
        let aut = FullReversalAutomaton { inst: &inst };
        let exec = run(
            &aut,
            &mut lr_ioa::schedulers::UniformRandom::seeded(1),
            10_000,
        );
        assert!(exec.validate(&aut).is_ok());
        for s in exec.states() {
            let o = s.dirs.orientation();
            assert!(o.is_acyclic());
            assert!(s.dirs.check_consistency().is_ok());
        }
        assert!(aut.is_quiescent(exec.last_state()), "FR must terminate");
    }
}
