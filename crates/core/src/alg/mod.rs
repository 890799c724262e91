//! The link-reversal algorithms: the paper's three Partial Reversal
//! automata, Full Reversal, the Gafni–Bertsekas height formulations, and a
//! labeled-reversal generalization.
//!
//! The algorithms come in two forms:
//!
//! * the paper's **automata** ([`lr_ioa::Automaton`]) — pure transition
//!   systems with cloneable states:
//!   [`FullReversalAutomaton`], [`OneStepPrAutomaton`] /
//!   [`PrSetAutomaton`] (Algorithms 3 and 1) and [`NewPrAutomaton`]
//!   (Algorithm 2). The model checker verifies the paper's theorems on
//!   them exhaustively, and they are the oracle for the engines;
//! * one flat **engine**, [`Frontier`], the one [`FrontierEngine`]: an
//!   imperative, in-place state machine over CSR arrays and bit-packed
//!   per-slot words, used by every run loop, trace, and benchmark. It is
//!   generic over a [`Rule`], which is all a family adds: its state,
//!   sink test, and step. Each family's engine
//!   is a type alias (such as [`FrontierPrEngine`], `Frontier<PrRule>`)
//!   built through [`FrontierFamily::engine`].
//!
//! Both forms start from the same [`ReversalInstance`]: a shared CSR
//! graph, the initial orientation as one bit per half-edge slot, and the
//! destination.
//!
//! The three automata cover all six engine families: GB-pair and
//! BLL\[FR\] reverse exactly Full Reversal's sets, and GB-triple and
//! BLL\[PR\] exactly Partial Reversal's. The lockstep suite
//! (`tests/end_to_end.rs` at the workspace root) runs every engine beside
//! its automaton and compares enabled sets and orientations at every
//! step, so what is model-checked is what is benchmarked.

mod bll;
mod frontier;
mod full;
mod heights;
mod newpr;
mod pr;

pub use bll::{BllLabeling, FrontierBllEngine};
pub use frontier::{Frontier, FrontierFamily, Rule};
pub use full::{FrRule, FrontierFrEngine, FullReversalAutomaton, FullReversalState};
pub use heights::{
    initial_triple_heights, raised_alpha_beta, FrontierPairHeightsEngine,
    FrontierTripleHeightsEngine, PairHeight, PairHeightsRule, TripleHeight, TripleHeightsRule,
};
pub use newpr::{newpr_step, FrontierNewPrEngine, NewPrAutomaton, NewPrRule, NewPrState, Parity};
pub use pr::{
    onestep_pr_step, pr_reverse_set, FrontierPrEngine, OneStepPrAutomaton, PrRule, PrSetAutomaton,
    PrState, ReverseSet,
};

use std::sync::Arc;

use lr_graph::{CsrGraph, NodeId, Orientation, ReversalInstance};

use crate::{MirroredDirs, ReversalStep, StepOutcome, StepScratch};

/// A flat, imperative link-reversal state machine over a fixed
/// [`ReversalInstance`]: all steady state lives in CSR-indexed arrays and
/// bit-packed per-slot words, with the incremental
/// [`crate::EnabledTracker`] as its worklist, which is what lets it run
/// at million-node scale. [`Frontier`] implements it once for every
/// family's [`Rule`]; construct one through [`FrontierFamily::engine`].
///
/// A node may step when it is a sink and is not the destination. The
/// run loop in [`crate::engine`] drives engines to termination.
///
/// [`FrontierEngine::enabled`] is an O(1) borrow of the current sorted
/// sink set and [`FrontierEngine::is_terminated`] an O(1) emptiness
/// check; neither rescans the graph.
///
/// # The step pipeline
///
/// A step works by half-edge slot (see [`crate::step`]):
///
/// * [`FrontierEngine::step_into`] resolves the stepping node to its
///   dense index, checks the step's precondition, has the rule
///   ([`Rule::step`]) write the slots it reverses into a caller-owned
///   [`StepScratch`] and rewrite its state for them in place, and
///   records the step in the enabled tracker — the **zero-allocation
///   hot path** the run loop uses (one reusable scratch per run);
/// * [`FrontierEngine::step`] is the allocating wrapper (fresh buffer
///   per call, owned [`ReversalStep`] result with the neighbours' ids)
///   for traces, tests, and the lockstep suite.
pub trait FrontierEngine {
    /// The retained initial configuration (shared CSR + one direction
    /// bit per half-edge) the engine was built from and resets to.
    fn instance(&self) -> &ReversalInstance;

    /// The destination node of the instance (never takes steps).
    fn dest(&self) -> NodeId {
        self.instance().dest
    }

    /// The CSR snapshot of the instance's graph shared by this engine's
    /// state (dense `NodeId → usize` indexing for run-loop work vectors).
    fn csr(&self) -> &Arc<CsrGraph> {
        self.instance().csr()
    }

    /// A short algorithm name for reports ("FR", "PR", "NewPR", ...).
    fn algorithm_name(&self) -> &'static str;

    /// Whether `u` currently is a sink (all incident edges incoming).
    ///
    /// Computed directly from the engine's direction state — **not** from
    /// the incremental enabled set — so differential tests can cross-check
    /// the two.
    fn is_sink(&self, u: NodeId) -> bool;

    /// The nodes currently allowed to take a step — all sinks except the
    /// destination, ascending — as an incrementally maintained view.
    /// O(1); no allocation.
    fn enabled(&self) -> &[NodeId];

    /// Performs node `u`'s reversal step through the caller-owned
    /// `scratch`, with **no heap allocation** in steady state: the
    /// reversed half-edge slots (ascending, all in `u`'s slot range) are
    /// written into the reusable buffer and the returned
    /// [`StepOutcome`], which carries `u`'s dense index, is `Copy`. See
    /// [`StepScratch`] for the ownership contract.
    ///
    /// # Panics
    ///
    /// Panics if `u` is not enabled (not a sink, or is the destination) —
    /// that is a scheduling bug, not a runtime condition.
    fn step_into(&mut self, u: NodeId, scratch: &mut StepScratch) -> StepOutcome;

    /// Performs node `u`'s reversal step, returning an owned
    /// [`ReversalStep`] that names the reversed neighbours by id.
    ///
    /// Thin wrapper over [`FrontierEngine::step_into`] that allocates a
    /// fresh buffer per call. Run loops use `step_into`; traces, tests,
    /// and one-shot callers use this.
    ///
    /// # Panics
    ///
    /// Panics if `u` is not enabled (not a sink, or is the destination) —
    /// that is a scheduling bug, not a runtime condition.
    fn step(&mut self, u: NodeId) -> ReversalStep {
        let mut scratch = StepScratch::new();
        let outcome = self.step_into(u, &mut scratch);
        ReversalStep {
            node: u,
            reversed: scratch.targets(self.csr()).collect(),
            dummy: outcome.dummy,
        }
    }

    /// Marks the start of a greedy round whose steps will all be applied
    /// before the enabled view is read again: the round's enabled-set
    /// edits collapse into one merge
    /// ([`crate::EnabledTracker::begin_batch`]).
    fn begin_round(&mut self);

    /// Closes a round opened by [`FrontierEngine::begin_round`],
    /// bringing [`FrontierEngine::enabled`] current.
    fn end_round(&mut self);

    /// The current single-copy orientation of the graph.
    fn orientation(&self) -> Orientation;

    /// Whether the execution has terminated (no enabled node). For
    /// connected instances this is exactly destination-orientedness. O(1).
    fn is_terminated(&self) -> bool {
        self.enabled().is_empty()
    }

    /// Restores the initial state.
    fn reset(&mut self);

    /// Total resident bytes of the engine's steady state — the shared
    /// CSR arrays plus every per-node/per-slot array the engine owns.
    /// This is the number the benchmark's bytes-per-half-edge metrics
    /// report. The enabled tracker's round buffers (the enabled list,
    /// its merge buffer, and the bitmap of a round's newly enabled
    /// nodes at one bit per node) are not counted.
    fn resident_bytes(&self) -> usize;
}

/// The precondition of the paper's `reverse(u)` on the automata's
/// direction state: `u` is not the destination, and it is a sink.
pub(crate) fn may_step(inst: &ReversalInstance, dirs: &MirroredDirs, u: NodeId) -> bool {
    u != inst.dest && dirs.is_sink(u)
}

/// Asserts [`may_step`], naming the half that fails.
pub(crate) fn assert_may_step(inst: &ReversalInstance, dirs: &MirroredDirs, u: NodeId) {
    assert_ne!(u, inst.dest, "destination {u} never takes steps");
    assert!(
        dirs.is_sink(u),
        "reverse({u}) precondition: {u} must be a sink"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use lr_graph::stream;

    #[test]
    fn engines_constructed_for_all_families() {
        let inst = stream::chain_away(4);
        for family in FrontierFamily::ALL {
            let e = family.engine(inst.clone());
            assert_eq!(e.dest(), inst.dest);
            assert_eq!(e.algorithm_name(), family.name());
            assert_eq!(e.instance(), &inst);
            assert!(!e.is_terminated(), "{} should have work", family.name());
            assert_eq!(e.enabled(), &[lr_graph::NodeId::new(3)][..]);
        }
    }

    #[test]
    fn default_step_wrapper_matches_step_into() {
        let inst = stream::chain_away(5);
        for family in FrontierFamily::ALL {
            let mut a = family.engine(inst.clone());
            let mut b = family.engine(inst.clone());
            let mut scratch = crate::StepScratch::new();
            let u = lr_graph::NodeId::new(4);
            let step = a.step(u);
            let outcome = b.step_into(u, &mut scratch);
            let targets: Vec<lr_graph::NodeId> = scratch.targets(b.csr()).collect();
            assert_eq!(step.reversed, targets);
            assert_eq!(step.reversal_count(), outcome.reversal_count);
            assert_eq!(step.dummy, outcome.dummy);
            assert_eq!(b.csr().node(outcome.node_idx), u);
            assert_eq!(a.enabled(), b.enabled());
        }
    }
}
