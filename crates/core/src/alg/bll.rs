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

use lr_graph::{Orientation, ReversalInstance};

use crate::alg::{Frontier, Rule};
use crate::dirs::{all_word_masks, word_bit};
use crate::{MirroredDirs, StepScratch};

/// A label-update policy for [`FrontierBllEngine`], and BLL's rule: the
/// `μ_u(v)` labels are one bit per half-edge slot (the bit of slot `(u,
/// v)` holds `μ_u(v)`), so a label read or write is a masked word
/// access, and the "`u` forgets its history" reset is a ranged bit fill
/// over `u`'s slot range.
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

/// BLL over a [`ReversalInstance`]: the engine shell around a
/// [`BllLabeling`]. Step-for-step identical to
/// [`crate::alg::OneStepPrAutomaton`] under the PR labeling and to
/// [`crate::alg::FullReversalAutomaton`] under the FR labeling (the
/// lockstep suite).
pub type FrontierBllEngine = Frontier<BllLabeling>;

impl FrontierBllEngine {
    /// Creates the engine with the given labeling policy.
    pub fn new(inst: ReversalInstance, labeling: BllLabeling) -> Self {
        Frontier::with_rule(inst, labeling)
    }

    /// The current bit-packed direction state.
    pub fn dirs(&self) -> &MirroredDirs {
        &self.state.0
    }

    /// The labeling policy.
    pub fn labeling(&self) -> BllLabeling {
        self.rule
    }
}

impl Rule for BllLabeling {
    /// The directions, and the `μ_u(v)` label bits, initially all 1
    /// under either policy. Bits past the half-edge count are padding
    /// and are never read.
    type State = (MirroredDirs, Vec<u64>);

    fn name(&self) -> &'static str {
        match self {
            BllLabeling::PartialReversal => "BLL[PR]",
            BllLabeling::FullReversal => "BLL[FR]",
        }
    }

    fn initial(&self, inst: &ReversalInstance) -> Self::State {
        let labels = vec![!0; inst.half_edge_count().div_ceil(64)];
        (MirroredDirs::from_instance(inst), labels)
    }

    #[inline]
    fn is_sink_at(&self, _: &ReversalInstance, (dirs, _): &Self::State, ui: usize) -> bool {
        dirs.is_sink_at(ui)
    }

    #[inline]
    fn step(
        &self,
        inst: &ReversalInstance,
        (dirs, labels): &mut Self::State,
        ui: usize,
        scratch: &mut StepScratch,
    ) {
        // A stepping sink reverses exactly its 1-labeled links — all
        // links if none is labeled 1. "Any 1-labeled?" is one masked
        // read of u's slot range. Under the PR labeling the reversed
        // neighbor's label for u (the twin slot's bit, outside u's
        // range) drops to 0, and u forgets its history (list[u] := ∅ ⇒
        // all labels 1).
        let csr = inst.csr();
        let r = csr.slots(ui);
        let pr_labels = *self == BllLabeling::PartialReversal;
        let any_one = !all_word_masks(r.clone(), |w, m| labels[w] & m == 0);
        for slot in r.clone() {
            let (w, m) = word_bit(slot);
            if !any_one || labels[w] & m != 0 {
                scratch.push(slot);
                dirs.reverse_outward_at(slot);
                if pr_labels {
                    let (w, m) = word_bit(csr.twin(slot));
                    labels[w] &= !m;
                }
            }
        }
        if pr_labels {
            all_word_masks(r, |w, m| {
                labels[w] |= m;
                true
            });
        }
    }

    fn orientation(&self, _: &ReversalInstance, (dirs, _): &Self::State) -> Orientation {
        dirs.orientation()
    }

    fn state_bytes((dirs, labels): &Self::State) -> usize {
        dirs.resident_bytes() + labels.len() * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alg::FrontierEngine;
    use lr_graph::{stream, NodeId};

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    impl FrontierBllEngine {
        /// The label `μ_u(v)` of the ordered pair at `slot` = `(u, v)`.
        fn label_at(&self, slot: usize) -> bool {
            let (w, m) = word_bit(slot);
            self.state.1[w] & m != 0
        }
    }

    fn all_labels_one(e: &FrontierBllEngine) -> bool {
        (0..e.instance().half_edge_count()).all(|slot| e.label_at(slot))
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
        assert_eq!(e.state.1, fresh.state.1);
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
