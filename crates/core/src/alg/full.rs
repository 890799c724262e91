//! Full Reversal (FR): when a node is a sink it reverses **all** of its
//! incident edges (§1 of the paper, originally Gafni–Bertsekas).
//!
//! FR needs no per-node bookkeeping at all, which is why its acyclicity
//! argument is one paragraph: the last node to step has all edges
//! outgoing, so it cannot lie on a cycle.

use std::sync::Arc;

use lr_graph::{NodeId, Orientation, ReversalInstance};
use lr_ioa::Automaton;

use crate::alg::{debug_check_planned, FrontierEngine};
use crate::{EnabledTracker, MirroredDirs, PlanAux, ReversalStep, StepOutcome, StepScratch};

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
    assert_ne!(u, inst.dest, "destination {u} never takes steps");
    assert!(
        state.dirs.is_sink(u),
        "reverse({u}) precondition: {u} must be a sink"
    );
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

/// FR over a [`ReversalInstance`]: the simplest frontier engine — its
/// only mutable state is the bit-packed [`MirroredDirs`] and the
/// incremental enabled worklist, so a step is one masked word flip per
/// incident edge. Step-for-step identical to [`FullReversalAutomaton`]
/// (the lockstep suite).
#[derive(Debug, Clone)]
pub struct FrontierFrEngine {
    /// The initial configuration, retained for [`FrontierEngine::reset`].
    init: ReversalInstance,
    dirs: MirroredDirs,
    tracker: EnabledTracker,
}

impl FrontierFrEngine {
    /// Creates the engine in the initial state of `inst`.
    pub fn new(inst: ReversalInstance) -> Self {
        let dirs = MirroredDirs::from_instance(&inst);
        let tracker = EnabledTracker::from_dirs(&dirs, inst.dest);
        FrontierFrEngine {
            init: inst,
            dirs,
            tracker,
        }
    }

    /// The current bit-packed direction state.
    pub fn dirs(&self) -> &MirroredDirs {
        &self.dirs
    }
}

impl FrontierEngine for FrontierFrEngine {
    fn instance(&self) -> &ReversalInstance {
        &self.init
    }

    fn algorithm_name(&self) -> &'static str {
        "FR"
    }

    fn is_sink(&self, u: NodeId) -> bool {
        self.dirs.is_sink(u)
    }

    fn enabled(&self) -> &[NodeId] {
        self.tracker.enabled()
    }

    fn plan_step(&self, u: NodeId, scratch: &mut StepScratch) -> StepOutcome {
        assert_ne!(u, self.dest(), "destination {u} never takes steps");
        let csr = self.init.csr();
        let ui = csr.index_of(u).expect("stepping node exists");
        assert!(
            self.dirs.is_sink_at(ui),
            "reverse({u}) precondition: {u} must be a sink"
        );
        scratch.clear();
        for slot in csr.slots(ui) {
            scratch.push(slot);
        }
        StepOutcome {
            node_idx: ui,
            reversal_count: scratch.slots.len(),
            dummy: false,
        }
    }

    fn apply_planned(&mut self, ui: usize, slots: &[u32], _aux: PlanAux) {
        let csr = self.init.csr();
        debug_check_planned(csr, ui, slots);
        for &slot in slots {
            self.dirs.reverse_outward_at(slot as usize);
        }
        self.tracker.record_step(csr, ui, slots);
    }

    fn orientation(&self) -> Orientation {
        self.dirs.orientation()
    }

    fn begin_round(&mut self) {
        self.tracker.begin_batch();
    }

    fn end_round(&mut self) {
        self.tracker.end_batch(self.init.csr());
    }

    fn reset(&mut self) {
        self.dirs = MirroredDirs::from_instance(&self.init);
        self.tracker = EnabledTracker::from_dirs(&self.dirs, self.init.dest);
    }

    fn resident_bytes(&self) -> usize {
        let csr = self.init.csr();
        csr.resident_bytes()
            + self.dirs.resident_bytes()
            + self.init.half_edge_count().div_ceil(64) * 8 // retained init bits
            + csr.node_count() * 4 // tracker out-counts
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
            .filter(|&u| u != self.inst.dest && state.dirs.is_sink(u))
            .collect()
    }

    fn is_enabled(&self, state: &FullReversalState, &u: &NodeId) -> bool {
        u != self.inst.dest && state.dirs.is_sink(u)
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
