//! A labeled-reversal generalization in the spirit of Welch & Walter's
//! *Binary Link Labels* (reference [6] of the paper).
//!
//! §1 of the paper describes BLL as a generalized algorithm where every
//! edge carries a binary label and a stepping sink reverses edges
//! according to those labels; PR is the special case whose labels encode
//! "neighbor has not reversed since my last step". The exact BLL
//! formulation appears in a book that was *to appear* when the paper was
//! written; we implement the generalization faithfully to §1's
//! description: each node holds one bit per incident link, a stepping sink
//! reverses exactly its 1-labeled links (all links if none is labeled 1),
//! and a [`BllLabeling`] policy decides how labels evolve. The two stock
//! policies instantiate Partial Reversal and Full Reversal, and the
//! lockstep suite verifies each against the paper's automaton for its
//! target step by step.

use lr_graph::{NodeId, Orientation, ReversalInstance};

use crate::alg::frontier::{count_bits_in_range, set_bits_in_range};
use crate::alg::{debug_check_planned, FrontierEngine};
use crate::{EnabledTracker, MirroredDirs, PlanAux, StepOutcome, StepScratch};

/// A label-update policy for [`FrontierBllEngine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BllLabeling {
    /// Partial Reversal labels: `μ_u(v) = 1` iff `v` has **not** reversed
    /// toward `u` since `u`'s last step (the complement of `list[u]`).
    /// When a neighbor reverses an edge toward `u`, the label drops to 0;
    /// when `u` steps, all its labels reset to 1.
    PartialReversal,
    /// Full Reversal labels: constantly 1 — every step reverses every
    /// incident edge.
    FullReversal,
}

/// BLL over a [`ReversalInstance`]: the `μ_u(v)` labels are one bit per
/// half-edge slot (the bit of slot `(u, v)` holds `μ_u(v)`), so a label
/// read or write is a masked word access, and the "`u` forgets its
/// history" reset is a ranged bit fill over `u`'s slot range.
/// Step-for-step identical to [`crate::alg::OneStepPrAutomaton`] under
/// the PR labeling and to [`crate::alg::FullReversalAutomaton`] under the
/// FR labeling (the lockstep suite).
#[derive(Debug, Clone)]
pub struct FrontierBllEngine {
    /// The initial configuration, retained for [`FrontierEngine::reset`].
    init: ReversalInstance,
    labeling: BllLabeling,
    dirs: MirroredDirs,
    /// `μ_u(v)` ⟺ the bit of slot `(u, v)`, initially all 1 under
    /// either policy. Bits past `half_edge_count` are padding and are
    /// never read.
    labels: Vec<u64>,
    tracker: EnabledTracker,
}

impl FrontierBllEngine {
    /// Creates the engine with the given labeling policy.
    pub fn new(inst: ReversalInstance, labeling: BllLabeling) -> Self {
        let dirs = MirroredDirs::from_instance(&inst);
        let labels = vec![!0u64; inst.half_edge_count().div_ceil(64)];
        let tracker = EnabledTracker::from_dirs(&dirs, inst.dest);
        FrontierBllEngine {
            init: inst,
            labeling,
            dirs,
            labels,
            tracker,
        }
    }

    /// The current bit-packed direction state.
    pub fn dirs(&self) -> &MirroredDirs {
        &self.dirs
    }

    /// The labeling policy.
    pub fn labeling(&self) -> BllLabeling {
        self.labeling
    }

    /// The label `μ_u(v)` of the ordered pair at `slot` = `(u, v)`.
    #[inline]
    fn label_at(&self, slot: usize) -> bool {
        self.labels[slot >> 6] >> (slot & 63) & 1 == 1
    }
}

impl FrontierEngine for FrontierBllEngine {
    fn instance(&self) -> &ReversalInstance {
        &self.init
    }

    fn algorithm_name(&self) -> &'static str {
        match self.labeling {
            BllLabeling::PartialReversal => "BLL[PR]",
            BllLabeling::FullReversal => "BLL[FR]",
        }
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
        // A stepping sink reverses exactly its 1-labeled links — all
        // links if none is labeled 1. "Any 1-labeled?" is one popcount
        // over u's slot range.
        let r = csr.slots(ui);
        let any_one = count_bits_in_range(&self.labels, r.start, r.end) > 0;
        scratch.clear();
        for slot in r {
            if !any_one || self.label_at(slot) {
                scratch.push(slot);
            }
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
        // Reverse each planned edge; under the PR labeling the reversed
        // neighbor's label for u (the twin slot's bit) drops to 0.
        let pr_labels = self.labeling == BllLabeling::PartialReversal;
        for &slot in slots {
            let slot = slot as usize;
            self.dirs.reverse_outward_at(slot);
            if pr_labels {
                let twin = csr.twin(slot);
                self.labels[twin >> 6] &= !(1 << (twin & 63));
            }
        }
        if pr_labels {
            // u forgets its history (list[u] := ∅ ⇒ all labels 1).
            let r = csr.slots(ui);
            set_bits_in_range(&mut self.labels, r.start, r.end);
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
        self.labels.fill(!0);
        self.tracker = EnabledTracker::from_dirs(&self.dirs, self.init.dest);
    }

    fn resident_bytes(&self) -> usize {
        let csr = self.init.csr();
        csr.resident_bytes()
            + self.dirs.resident_bytes()
            + self.labels.len() * 8
            + self.init.half_edge_count().div_ceil(64) * 8 // retained init bits
            + csr.node_count() * 4 // tracker out-counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lr_graph::stream;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn all_labels_one(e: &FrontierBllEngine) -> bool {
        (0..e.init.half_edge_count()).all(|slot| e.label_at(slot))
    }

    #[test]
    fn initial_labels_all_one() {
        for labeling in [BllLabeling::PartialReversal, BllLabeling::FullReversal] {
            assert!(all_labels_one(&FrontierBllEngine::new(
                stream::chain_away(4),
                labeling
            )));
        }
    }

    #[test]
    fn fr_labeling_never_changes() {
        let mut e = FrontierBllEngine::new(stream::chain_away(3), BllLabeling::FullReversal);
        e.step(n(2));
        assert!(all_labels_one(&e));
    }

    #[test]
    fn frontier_bll_pr_labeling_clears_and_resets_labels() {
        let flat = stream::chain_away(3);
        let csr = std::sync::Arc::clone(flat.csr());
        let mut e = FrontierBllEngine::new(flat, BllLabeling::PartialReversal);
        e.step(n(2));
        // Node 1's label for 2 dropped: slot (1, 2) is the second slot of
        // node 1's range (neighbors {0, 2} ascending).
        let u1 = csr.index_of(n(1)).unwrap();
        let slot_12 = csr.slots(u1).find(|&s| csr.node(csr.target(s)) == n(2));
        assert!(!e.label_at(slot_12.unwrap()));
        // Node 2's own labels reset to 1.
        let u2 = csr.index_of(n(2)).unwrap();
        for slot in csr.slots(u2) {
            assert!(e.label_at(slot));
        }
    }

    #[test]
    fn frontier_bll_reset_restores_initial() {
        let mut e = FrontierBllEngine::new(stream::chain_away(5), BllLabeling::PartialReversal);
        let fresh = e.clone();
        e.step(n(4));
        e.reset();
        assert_eq!(e.dirs(), fresh.dirs());
        assert_eq!(e.labels, fresh.labels);
        assert_eq!(e.enabled(), fresh.enabled());
    }

    #[test]
    fn bll_preserves_acyclicity_under_both_policies() {
        let inst = stream::random_connected(10, 10, 77);
        for labeling in [BllLabeling::PartialReversal, BllLabeling::FullReversal] {
            let mut e = FrontierBllEngine::new(inst.clone(), labeling);
            let mut steps = 0;
            while let Some(&u) = e.enabled().first() {
                e.step(u);
                let o = e.orientation();
                assert!(o.is_acyclic(), "{:?} broke acyclicity", labeling);
                steps += 1;
                assert!(steps < 100_000);
            }
        }
    }
}
