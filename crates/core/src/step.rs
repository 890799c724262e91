//! The zero-allocation step pipeline: caller-owned scratch buffers and
//! lightweight step outcomes.
//!
//! A step works by **slot**. Every rule of the paper reads and rewrites
//! only the stepping node's own incident edges, and those are the node's
//! half-edge slots (`csr.slots(ui)`), so the pipeline never turns a
//! neighbour back into its node id:
//!
//! * [`StepScratch`] — a **caller-owned, reusable** buffer the engine
//!   writes each step's reversed half-edge slots into;
//! * [`StepOutcome`] — the lightweight, `Copy` result of a step: the
//!   stepping node's dense CSR index, the reversal count, and the NewPR
//!   dummy flag.
//!
//! [`crate::alg::FrontierEngine::step_into`] resolves the stepping node's
//! id to its dense index once; the family's rule pushes the slots it
//! reverses and rewrites its state for exactly those, and the enabled
//! tracker decrements the out-count of each slot's target. Only the
//! allocating [`crate::alg::FrontierEngine::step`] wrapper maps the slots
//! back to neighbour ids, for its owned [`crate::ReversalStep`].
//!
//! # Ownership contract
//!
//! The **caller** owns the scratch and is expected to reuse one
//! `StepScratch` for an entire run: `step_into` overwrites (never
//! appends to) the buffer, so after the warm-up growth of the first few
//! steps the pipeline performs no per-step allocation at all. The
//! buffer's contents are only meaningful until the next `step_into` call
//! that receives the same scratch; callers that need to keep a step's
//! reversal set must copy it out (or use the allocating
//! [`crate::alg::FrontierEngine::step`] wrapper, which does exactly
//! that).

use lr_graph::{CsrGraph, NodeId};

/// The lightweight result of one engine step: everything the run-loop
/// bookkeeping needs, nothing heap-allocated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepOutcome {
    /// Dense CSR index of the node that stepped (see
    /// [`lr_graph::CsrGraph::index_of`]); run loops index their work
    /// vectors with it directly instead of re-resolving the `NodeId`.
    pub node_idx: usize,
    /// Number of edges reversed by the step (0 for NewPR dummy steps).
    pub reversal_count: usize,
    /// `true` for NewPR "dummy" steps that reverse nothing and only flip
    /// the parity bit (§4.1).
    pub dummy: bool,
}

/// A caller-owned, reusable buffer for the zero-allocation step
/// pipeline. See the [module docs](self) for the ownership contract.
#[derive(Debug, Clone, Default)]
pub struct StepScratch {
    /// Reversed half-edge slots of the most recent step, all in the
    /// stepping node's slot range and ascending (so their targets ascend
    /// by node id, the order every rule reverses in).
    slots: Vec<u32>,
}

impl StepScratch {
    /// An empty scratch; grows on first use and is then reused.
    pub fn new() -> Self {
        StepScratch::default()
    }

    /// The reversed half-edge slots written by the most recent
    /// [`crate::alg::FrontierEngine::step_into`], ascending. The
    /// neighbour a slot reverses toward is
    /// `csr.node(csr.target(slot as usize))`.
    pub fn slots(&self) -> &[u32] {
        &self.slots
    }

    /// The neighbours the reversed slots point to, by id and
    /// ascending: the target of each slot in `csr`, the engine's graph.
    pub fn targets<'a>(&'a self, csr: &'a CsrGraph) -> impl Iterator<Item = NodeId> + 'a {
        self.slots
            .iter()
            .map(|&slot| csr.node(csr.target(slot as usize)))
    }

    /// Appends one reversed half-edge slot to the current step: a
    /// [`crate::alg::Rule::step`] pushes slots of the stepping node's
    /// own range (`csr.slots(ui)`) in ascending order, and rewrites its
    /// state for exactly the pushed slots.
    pub(crate) fn push(&mut self, slot: usize) {
        debug_assert!(u32::try_from(slot).is_ok(), "slot {slot} exceeds u32");
        self.slots.push(slot as u32);
    }

    /// Resets the buffer for a new step; the engine does this before
    /// every rule step.
    pub(crate) fn clear(&mut self) {
        self.slots.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scratch_reuse_keeps_capacity() {
        let mut s = StepScratch::new();
        for slot in 0..8 {
            s.push(slot);
        }
        let cap = s.slots.capacity();
        s.clear();
        assert!(s.slots().is_empty());
        assert_eq!(s.slots.capacity(), cap, "clear must not shrink");
    }
}
