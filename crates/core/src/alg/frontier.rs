//! The family registry and the one engine shell.
//!
//! [`FrontierFamily`] is the one enum naming the algorithm families, and
//! [`Frontier`] is the one [`FrontierEngine`]: a shell generic over a
//! [`Rule`], the part in which the families differ.
//! [`FrontierFamily::engine`] builds each family's shell:
//!
//! | family | rule | flat per-node/per-slot state |
//! |---|---|---|
//! | FR | [`super::FrRule`] | directions only |
//! | PR | [`super::PrRule`] | directions, `list[u]` as one bit per slot |
//! | NewPR | [`super::NewPrRule`] | directions, reversal counts as `Vec<u64>` |
//! | GB-pair | [`super::PairHeightsRule`] | `α` by dense index as `Vec<i64>` |
//! | GB-triple | [`super::TripleHeightsRule`] | `(α, β)` by dense index as `Vec<(i64, i64)>` |
//! | BLL | [`BllLabeling`] | directions, link labels as one bit per slot |
//!
//! The families share one model — a sink that is not the destination
//! steps, the enabled set is the sinks, and a greedy round steps them
//! all — and [`Frontier`] holds it once.
//!
//! Directions are the bit-packed [`crate::MirroredDirs`] (1 bit per
//! half-edge slot, twin bit updated in the same pass), and the per-slot
//! sets of PR and BLL are one bit per slot too, so "is the list full?"
//! or "is any label 1?" is a masked read of the node's slot range.
//! Nothing in any engine's steady state is proportional to anything but
//! the CSR arrays (≈ 8 bytes/half-edge) and a few bitsets and per-node
//! words (≈ 0.4 bytes/half-edge + ~8–24 bytes/node), so a
//! 1,000,000-node instance runs in tens of megabytes. The oracle is the
//! paper's own automata: the lockstep suite (`tests/end_to_end.rs` at
//! the workspace root) runs FR, GB-pair and BLL\[FR\] beside
//! [`super::FullReversalAutomaton`], PR, GB-triple and BLL\[PR\] beside
//! [`super::OneStepPrAutomaton`], and NewPR beside
//! [`super::NewPrAutomaton`], comparing enabled sets and orientations
//! at every step.

use std::fmt::Debug;

use lr_graph::{NodeId, Orientation, ReversalInstance};

use crate::alg::{
    BllLabeling, FrRule, FrontierBllEngine, FrontierEngine, FrontierFrEngine, FrontierNewPrEngine,
    FrontierPairHeightsEngine, FrontierPrEngine, FrontierTripleHeightsEngine, NewPrRule,
    PairHeightsRule, PrRule, TripleHeightsRule,
};
use crate::{EnabledTracker, StepOutcome, StepScratch};

/// The algorithm families, one [`Rule`] each: the paper's Full
/// Reversal, Partial Reversal and NewPR, the two Gafni–Bertsekas height
/// formulations, and Binary Link Labels under either labeling rule.
///
/// [`FrontierFamily::engine`] builds the family's engine, the shell
/// around its rule; the CLI and every report name a family by
/// [`FrontierFamily::name`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum FrontierFamily {
    /// Full Reversal → [`FrontierFrEngine`].
    FullReversal,
    /// Partial Reversal (Algorithm 1/3) → [`FrontierPrEngine`].
    PartialReversal,
    /// NewPR (Algorithm 2) → [`FrontierNewPrEngine`].
    NewPr,
    /// Gafni–Bertsekas pair heights → [`FrontierPairHeightsEngine`].
    PairHeights,
    /// Gafni–Bertsekas triple heights → [`FrontierTripleHeightsEngine`].
    TripleHeights,
    /// Binary link labels with the given labeling rule →
    /// [`FrontierBllEngine`].
    Bll(BllLabeling),
}

impl FrontierFamily {
    /// Every family, with `BLL[PR]` as the canonical BLL entry (the
    /// `BLL[FR]` labeling shares the rule type and is covered by the
    /// lockstep suite separately).
    pub const ALL: [FrontierFamily; 6] = [
        FrontierFamily::FullReversal,
        FrontierFamily::PartialReversal,
        FrontierFamily::NewPr,
        FrontierFamily::PairHeights,
        FrontierFamily::TripleHeights,
        FrontierFamily::Bll(BllLabeling::PartialReversal),
    ];

    /// The display name: its rule's [`Rule::name`], which the engine
    /// reports via [`FrontierEngine::algorithm_name`] (and so what lands
    /// in [`crate::engine::RunStats::algorithm`]).
    pub fn name(self) -> &'static str {
        match self {
            FrontierFamily::FullReversal => FrRule.name(),
            FrontierFamily::PartialReversal => PrRule.name(),
            FrontierFamily::NewPr => NewPrRule.name(),
            FrontierFamily::PairHeights => PairHeightsRule.name(),
            FrontierFamily::TripleHeights => TripleHeightsRule.name(),
            FrontierFamily::Bll(labeling) => labeling.name(),
        }
    }

    /// Constructs this family's engine in the initial state of `inst` —
    /// the one execution substrate every run goes through.
    pub fn engine(self, inst: ReversalInstance) -> Box<dyn FrontierEngine> {
        let engine: Box<dyn FrontierEngine> = match self {
            FrontierFamily::FullReversal => Box::new(FrontierFrEngine::new(inst)),
            FrontierFamily::PartialReversal => Box::new(FrontierPrEngine::new(inst)),
            FrontierFamily::NewPr => Box::new(FrontierNewPrEngine::new(inst)),
            FrontierFamily::PairHeights => Box::new(FrontierPairHeightsEngine::new(inst)),
            FrontierFamily::TripleHeights => Box::new(FrontierTripleHeightsEngine::new(inst)),
            FrontierFamily::Bll(labeling) => Box::new(FrontierBllEngine::new(inst, labeling)),
        };
        observe_engine_build(self.name(), engine.as_ref());
        engine
    }
}

/// Records build-time gauges (steady-state resident footprint, graph
/// extent) and an instant trace marker for a freshly built engine.
/// Costs one relaxed load when no obs session is recording; the
/// engine's step path is untouched either way.
fn observe_engine_build(family: &'static str, engine: &dyn FrontierEngine) {
    if !lr_obs::enabled() {
        return;
    }
    let csr = engine.instance().csr();
    let resident = engine.resident_bytes() as u64;
    lr_obs::gauge("engine.resident_bytes").record_max(resident);
    lr_obs::gauge("engine.nodes").record_max(csr.node_count() as u64);
    lr_obs::gauge("engine.half_edges").record_max(csr.half_edge_count() as u64);
    lr_obs::instant(
        "engine",
        format!("engine.build {family}"),
        &[
            ("resident_bytes", resident),
            ("nodes", csr.node_count() as u64),
            ("half_edges", csr.half_edge_count() as u64),
        ],
    );
}

/// What one family does differently: its state, its sink test, and its
/// step. [`Frontier`] does the rest.
///
/// Every method gets the engine's instance, so a rule reads the CSR and
/// the initial bits from there and stores neither. The six families
/// implement it in this crate, where a step can write its slots, and
/// mark their step methods (`is_sink_at`, `step`) `#[inline]`: the shell
/// is generic and the rules are not, so without it the compiler may keep
/// each as a call out of the shell's step path.
pub trait Rule: Clone + Debug {
    /// The family's per-node and per-slot state, by dense CSR index and
    /// half-edge slot.
    type State: Clone + Debug;

    /// The short name reports use ("FR", "PR", ...), as
    /// [`FrontierFamily::name`] gives it.
    fn name(&self) -> &'static str;

    /// The state in the initial configuration of `inst`.
    fn initial(&self, inst: &ReversalInstance) -> Self::State;

    /// Whether the node at dense index `ui` is a sink, read from the
    /// state alone (never from the enabled set).
    fn is_sink_at(&self, inst: &ReversalInstance, state: &Self::State, ui: usize) -> bool;

    /// Steps the sink at dense index `ui`: pushes the slots it reverses,
    /// ascending and all in `ui`'s slot range, into the cleared
    /// `scratch`, and rewrites `state` for exactly those slots.
    fn step(
        &self,
        inst: &ReversalInstance,
        state: &mut Self::State,
        ui: usize,
        scratch: &mut StepScratch,
    );

    /// The single-copy orientation the state describes.
    fn orientation(&self, inst: &ReversalInstance, state: &Self::State) -> Orientation;

    /// The resident bytes of the state's arrays.
    fn state_bytes(state: &Self::State) -> usize;
}

/// The one [`FrontierEngine`]: a family's [`Rule`] and its state beside
/// what every family shares, which is
///
/// * the retained [`ReversalInstance`], which [`FrontierEngine::reset`]
///   returns to;
/// * the incremental [`EnabledTracker`], seeded from the instance's
///   initial bits (every rule's initial state describes the initial
///   orientation), whose batch merge is the greedy-round boundary for
///   [`crate::engine::run_engine_frontier`];
/// * the step's precondition (the destination never steps, and the
///   stepping node is a sink by its rule's test) and its
///   [`StepOutcome`]: a step that reverses no slot is a dummy step,
///   which only NewPR takes, since every other rule reverses at least
///   one edge of a sink;
/// * the shared terms of [`FrontierEngine::resident_bytes`].
///
/// A rule keeps its state type and initial state, its sink test, its
/// step (the ascending slots it reverses, and the state it rewrites for
/// them), and its orientation, name and state bytes. The rule is a type
/// parameter, so the step path has no dynamic dispatch.
#[derive(Debug, Clone)]
pub struct Frontier<R: Rule> {
    /// The initial configuration, retained for [`FrontierEngine::reset`]
    /// (an `Arc`'d CSR plus one bit per half-edge, cheap to keep).
    init: ReversalInstance,
    pub(super) rule: R,
    pub(super) state: R::State,
    tracker: EnabledTracker,
}

impl<R: Rule> Frontier<R> {
    /// Creates the engine of `rule` in the initial state of `inst`.
    pub(crate) fn with_rule(inst: ReversalInstance, rule: R) -> Self {
        Frontier {
            state: rule.initial(&inst),
            tracker: EnabledTracker::from_orientation(inst.init(), inst.dest),
            init: inst,
            rule,
        }
    }
}

impl<R: Rule + Default> Frontier<R> {
    /// Creates the engine in the initial state of `inst`.
    pub fn new(inst: ReversalInstance) -> Self {
        Frontier::with_rule(inst, R::default())
    }
}

impl<R: Rule> FrontierEngine for Frontier<R> {
    fn instance(&self) -> &ReversalInstance {
        &self.init
    }

    fn algorithm_name(&self) -> &'static str {
        self.rule.name()
    }

    fn is_sink(&self, u: NodeId) -> bool {
        let ui = self.init.csr().index_of(u);
        ui.is_some_and(|ui| self.rule.is_sink_at(&self.init, &self.state, ui))
    }

    fn enabled(&self) -> &[NodeId] {
        self.tracker.enabled()
    }

    fn step_into(&mut self, u: NodeId, scratch: &mut StepScratch) -> StepOutcome {
        assert_ne!(u, self.init.dest, "destination {u} never takes steps");
        let csr = self.init.csr();
        let ui = csr.index_of(u).expect("stepping node exists");
        assert!(
            self.rule.is_sink_at(&self.init, &self.state, ui),
            "reverse({u}) precondition: {u} must be a sink"
        );
        scratch.clear();
        self.rule.step(&self.init, &mut self.state, ui, scratch);
        let slots = scratch.slots();
        debug_assert!(
            slots.is_sorted_by(|a, b| a < b)
                && slots.iter().all(|&s| csr.slots(ui).contains(&(s as usize))),
            "reversed slots must ascend within the slot range of node index {ui}"
        );
        self.tracker.record_step(csr, ui, slots);
        StepOutcome {
            node_idx: ui,
            reversal_count: slots.len(),
            dummy: slots.is_empty(),
        }
    }

    fn begin_round(&mut self) {
        self.tracker.begin_batch();
    }

    fn end_round(&mut self) {
        self.tracker.end_batch(self.init.csr());
    }

    fn orientation(&self) -> Orientation {
        self.rule.orientation(&self.init, &self.state)
    }

    fn reset(&mut self) {
        self.state = self.rule.initial(&self.init);
        self.tracker = EnabledTracker::from_orientation(self.init.init(), self.init.dest);
    }

    /// The shared CSR arrays, the rule's state, the retained initial
    /// bits and the tracker's per-node out-counts.
    fn resident_bytes(&self) -> usize {
        let csr = self.init.csr();
        csr.resident_bytes()
            + R::state_bytes(&self.state)
            + self.init.half_edge_count().div_ceil(64) * 8
            + csr.node_count() * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{run_engine_frontier, SchedulePolicy, DEFAULT_MAX_STEPS};
    use lr_graph::stream;

    fn all_families() -> impl Iterator<Item = FrontierFamily> {
        let bll_fr = FrontierFamily::Bll(BllLabeling::FullReversal);
        FrontierFamily::ALL.into_iter().chain([bll_fr])
    }

    #[test]
    fn family_names_are_distinct_and_match_engine_reports() {
        for family in FrontierFamily::ALL {
            let e = family.engine(stream::chain_away(4));
            assert_eq!(e.algorithm_name(), family.name());
            assert_eq!(e.instance().node_count(), 4);
            assert!(e.resident_bytes() > 0);
        }
        assert_eq!(
            FrontierFamily::Bll(BllLabeling::FullReversal).name(),
            "BLL[FR]"
        );
        let names: std::collections::BTreeSet<_> =
            FrontierFamily::ALL.iter().map(|f| f.name()).collect();
        assert_eq!(names.len(), FrontierFamily::ALL.len());
    }

    #[test]
    fn reset_restores_every_family_mid_round_and_after_termination() {
        let inst = stream::grid_away(4, 5);
        for family in all_families() {
            let fresh = family.engine(inst.clone());
            let mut e = family.engine(inst.clone());
            e.begin_round();
            let u = fresh.enabled()[0];
            e.step(u);
            e.reset();
            assert_eq!(e.orientation(), fresh.orientation(), "{}", family.name());
            assert_eq!(e.enabled(), fresh.enabled(), "{}", family.name());
            run_engine_frontier(e.as_mut(), SchedulePolicy::GreedyRounds, DEFAULT_MAX_STEPS);
            assert!(e.is_terminated());
            e.reset();
            assert_eq!(e.orientation(), fresh.orientation(), "{}", family.name());
            assert_eq!(e.enabled(), fresh.enabled(), "{}", family.name());
            assert_eq!(e.resident_bytes(), fresh.resident_bytes());
        }
    }

    #[test]
    fn a_step_that_reverses_no_slot_is_the_only_dummy_step() {
        // Only NewPR reverses nothing: leaf 1, an initial source, dummy-steps
        // once the centre has reversed toward it.
        let inst = lr_graph::parse::parse_instance("dest 3\n1 > 0\n2 > 0\n3 > 0").unwrap();
        for family in all_families() {
            let mut e = family.engine(inst.clone());
            let mut scratch = StepScratch::new();
            let centre = e.step_into(NodeId::new(0), &mut scratch);
            assert!(!centre.dummy && centre.reversal_count == 3);
            let leaf = e.step_into(NodeId::new(1), &mut scratch);
            assert_eq!(leaf.dummy, leaf.reversal_count == 0, "{}", family.name());
            assert_eq!(
                leaf.dummy,
                family == FrontierFamily::NewPr,
                "{}",
                family.name()
            );
        }
    }
}
