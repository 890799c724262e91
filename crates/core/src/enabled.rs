//! Incremental enabled-set maintenance for reversal engines.
//!
//! A node is *enabled* when it is a sink (every incident edge incoming)
//! and is not the destination. The pre-PR-2 engines recomputed this set
//! by scanning all `n` nodes before every step — O(n·Δ) work per step on
//! executions whose steps each touch only Δ edges. [`EnabledTracker`]
//! exploits the locality of link reversal: after node `u` steps, only
//! `u` and the neighbors it reversed toward can change sink status, so
//! the enabled set can be maintained with O(Δ + s) work per step (s =
//! current enabled count: a binary search per changed node plus one
//! contiguous shift of the sorted vector) and no per-step allocation.
//! The shift keeps the view sorted so schedulers see exactly the order a
//! full scan would produce; s is bounded by the graph's independence
//! number and the shift is a cache-friendly memmove, so this term stays
//! far below the O(n·Δ) rescan it replaces even on sink-heavy workloads.
//!
//! The tracker is deliberately redundant state: it mirrors what a scan
//! of the underlying direction state would produce, and the differential
//! test suite (`tests/csr_differential.rs`) checks that mirror against an
//! `is_sink` rescan after every single step and at every greedy-round
//! boundary, on every engine configuration.

use lr_graph::{CsrGraph, NodeId};

/// Incrementally maintained set of enabled nodes (sinks minus the
/// destination), kept sorted ascending so scheduling policies see the
/// same deterministic order a full scan would produce.
///
/// Two update modes:
///
/// * **immediate** (the default) — every [`EnabledTracker::record_step`]
///   edits the sorted vector in place (one binary search + contiguous
///   shift per changed node), keeping `enabled()` exact after every
///   step. Single-step schedulers need this.
/// * **batched** — between [`EnabledTracker::begin_batch`] and
///   [`EnabledTracker::end_batch`], `record_step` only accumulates
///   out-count deltas plus removal/insertion lists; `end_batch` merges
///   them into the sorted vector in **one linear pass**. Greedy rounds
///   use this: a round applies many steps without reading `enabled()`,
///   so the per-step O(s) shifts (s = current sink count) collapse into
///   a single O(s + round) merge. Because the enabled *set* is a pure
///   function of the out-counts, the merged result is bit-identical to
///   what per-step editing produces.
#[derive(Debug, Clone)]
pub struct EnabledTracker {
    /// Dense index of the destination (never enabled).
    dest_idx: usize,
    /// Per-node count of outgoing half-edges; a sink has count 0.
    out_count: Vec<u32>,
    /// Enabled nodes, ascending. Stale w.r.t. `removed`/`inserted` while
    /// a batch is open.
    enabled: Vec<NodeId>,
    /// Whether a batch is open.
    batching: bool,
    /// Batched: nodes that stepped and gained outgoing edges.
    removed: Vec<NodeId>,
    /// Batched: nodes whose out-count reached zero.
    inserted: Vec<NodeId>,
    /// Reusable merge target, swapped with `enabled` in `end_batch`.
    merge_buf: Vec<NodeId>,
}

impl EnabledTracker {
    /// Builds the tracker by scanning every half-edge slot once:
    /// `edge_out(slot, src)` reports whether the slot's edge currently
    /// points *out of* its source node `src` (passed by dense index so
    /// callers never resolve a slot back to its owner).
    pub fn new(
        csr: &CsrGraph,
        dest: NodeId,
        mut edge_out: impl FnMut(usize, usize) -> bool,
    ) -> Self {
        let dest_idx = csr.index_of(dest).expect("destination is a node");
        let mut out_count = vec![0u32; csr.node_count()];
        for (src, count) in out_count.iter_mut().enumerate() {
            // Per-node slot ranges instead of a per-slot `csr.source`
            // lookup: the source is the loop variable.
            *count = csr.slots(src).filter(|&slot| edge_out(slot, src)).count() as u32;
        }
        let enabled = (0..csr.node_count())
            .filter(|&i| i != dest_idx && csr.degree(i) > 0 && out_count[i] == 0)
            .map(|i| csr.node(i))
            .collect();
        EnabledTracker {
            dest_idx,
            out_count,
            enabled,
            batching: false,
            removed: Vec::new(),
            inserted: Vec::new(),
            merge_buf: Vec::new(),
        }
    }

    /// Builds the tracker from a [`crate::MirroredDirs`] state.
    pub fn from_dirs(dirs: &crate::MirroredDirs, dest: NodeId) -> Self {
        EnabledTracker::new(dirs.csr(), dest, |slot, _src| {
            dirs.dir_at(slot) == lr_graph::EdgeDir::Out
        })
    }

    /// The currently enabled nodes, ascending. O(1).
    ///
    /// While a batch is open the view reflects the state at
    /// [`EnabledTracker::begin_batch`]; [`EnabledTracker::end_batch`]
    /// brings it current.
    pub fn enabled(&self) -> &[NodeId] {
        &self.enabled
    }

    /// Opens a batch: subsequent [`EnabledTracker::record_step`] calls
    /// accumulate deltas instead of editing the sorted vector.
    ///
    /// # Panics
    ///
    /// Panics if a batch is already open.
    pub fn begin_batch(&mut self) {
        assert!(!self.batching, "batch already open");
        self.batching = true;
        self.removed.clear();
        self.inserted.clear();
    }

    /// Closes the batch, merging the accumulated removals and
    /// insertions into the sorted enabled vector in one linear pass.
    ///
    /// # Panics
    ///
    /// Panics if no batch is open.
    pub fn end_batch(&mut self) {
        assert!(self.batching, "no batch open");
        self.batching = false;
        // Steppers are recorded in schedule order, which greedy rounds
        // take ascending — but sort defensively so the merge never
        // depends on the caller's iteration order. Newly enabled nodes
        // arrive in reversal order and genuinely need the sort.
        self.removed.sort_unstable();
        self.inserted.sort_unstable();
        self.merge_buf.clear();
        let (mut i, mut j, mut k) = (0, 0, 0);
        while i < self.enabled.len() || j < self.inserted.len() {
            let take_inserted = j < self.inserted.len()
                && (i >= self.enabled.len() || self.inserted[j] < self.enabled[i]);
            if take_inserted {
                self.merge_buf.push(self.inserted[j]);
                j += 1;
            } else {
                let u = self.enabled[i];
                i += 1;
                if k < self.removed.len() && self.removed[k] == u {
                    k += 1;
                } else {
                    self.merge_buf.push(u);
                }
            }
        }
        debug_assert_eq!(k, self.removed.len(), "removed node was not enabled");
        std::mem::swap(&mut self.enabled, &mut self.merge_buf);
    }

    /// Applies the enabled-set delta of one step: `u` reversed the edges
    /// to `reversed` outward. Only `u` and those neighbors are touched.
    ///
    /// # Panics
    ///
    /// Panics if `u` or a reversed neighbor is not a node of the graph.
    pub fn record_step(&mut self, csr: &CsrGraph, u: NodeId, reversed: &[NodeId]) {
        let ui = csr.index_of(u).expect("stepping node exists");
        self.out_count[ui] += reversed.len() as u32;
        if !reversed.is_empty() {
            // A dummy step (NewPR §4.1) reverses nothing: u stays a sink
            // and stays enabled. Otherwise it gained outgoing edges.
            if self.batching {
                self.removed.push(u);
            } else {
                self.remove(u);
            }
        }
        for &v in reversed {
            let vi = csr.index_of(v).expect("reversed neighbor exists");
            debug_assert!(self.out_count[vi] > 0, "reversed edge was outgoing at {v}");
            self.out_count[vi] -= 1;
            if self.out_count[vi] == 0 && vi != self.dest_idx {
                // v had an outgoing edge, so degree(v) > 0 holds.
                if self.batching {
                    self.inserted.push(v);
                } else {
                    self.insert(v);
                }
            }
        }
    }

    fn insert(&mut self, u: NodeId) {
        if let Err(pos) = self.enabled.binary_search(&u) {
            self.enabled.insert(pos, u);
        }
    }

    fn remove(&mut self, u: NodeId) {
        if let Ok(pos) = self.enabled.binary_search(&u) {
            self.enabled.remove(pos);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MirroredDirs;
    use lr_graph::stream;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn initial_enabled_set_matches_scan() {
        let inst = stream::chain_away(5);
        let dirs = MirroredDirs::from_instance(&inst);
        let t = EnabledTracker::from_dirs(&dirs, inst.dest);
        assert_eq!(t.enabled(), &[n(4)]);
    }

    #[test]
    fn destination_is_never_enabled() {
        let inst = stream::chain_toward(4); // dest 0 is the unique sink
        let dirs = MirroredDirs::from_instance(&inst);
        let t = EnabledTracker::from_dirs(&dirs, inst.dest);
        assert!(t.enabled().is_empty());
    }

    #[test]
    fn step_delta_tracks_full_rescan() {
        let inst = stream::random_connected(14, 12, 77);
        let mut dirs = MirroredDirs::from_instance(&inst);
        let mut t = EnabledTracker::from_dirs(&dirs, inst.dest);
        let mut guard = 0;
        while let Some(&u) = t.enabled().first() {
            // Full-reversal step: reverse every incident edge.
            let reversed: Vec<NodeId> = inst.csr().neighbors(u).collect();
            for &v in &reversed {
                dirs.reverse_outward(u, v);
            }
            t.record_step(dirs.csr(), u, &reversed);
            let rescan: Vec<NodeId> = inst
                .csr()
                .nodes()
                .filter(|&w| w != inst.dest && dirs.is_sink(w))
                .collect();
            assert_eq!(t.enabled(), &rescan[..], "tracker diverged from scan");
            guard += 1;
            assert!(guard < 100_000);
        }
    }

    #[test]
    fn batched_round_matches_immediate_updates() {
        // Drive identical full-reversal greedy rounds through both
        // update modes; every round boundary must agree exactly.
        let inst = stream::random_connected(16, 14, 3);
        let mut dirs_a = MirroredDirs::from_instance(&inst);
        let mut dirs_b = dirs_a.clone();
        let mut a = EnabledTracker::from_dirs(&dirs_a, inst.dest); // immediate
        let mut b = EnabledTracker::from_dirs(&dirs_b, inst.dest); // batched
        let mut guard = 0;
        while !a.enabled().is_empty() {
            let round: Vec<NodeId> = a.enabled().to_vec();
            b.begin_batch();
            for &u in &round {
                let reversed: Vec<NodeId> = inst.csr().neighbors(u).collect();
                for &v in &reversed {
                    dirs_a.reverse_outward(u, v);
                    dirs_b.reverse_outward(u, v);
                }
                a.record_step(dirs_a.csr(), u, &reversed);
                b.record_step(dirs_b.csr(), u, &reversed);
            }
            b.end_batch();
            assert_eq!(a.enabled(), b.enabled(), "modes diverged");
            guard += 1;
            assert!(guard < 100_000);
        }
        assert!(b.enabled().is_empty());
    }

    #[test]
    #[should_panic(expected = "batch already open")]
    fn nested_batches_are_rejected() {
        let inst = stream::chain_away(3);
        let dirs = MirroredDirs::from_instance(&inst);
        let mut t = EnabledTracker::from_dirs(&dirs, inst.dest);
        t.begin_batch();
        t.begin_batch();
    }

    #[test]
    fn empty_reversal_keeps_node_enabled() {
        let inst = stream::chain_away(3);
        let dirs = MirroredDirs::from_instance(&inst);
        let mut t = EnabledTracker::from_dirs(&dirs, inst.dest);
        assert_eq!(t.enabled(), &[n(2)]);
        t.record_step(dirs.csr(), n(2), &[]); // NewPR dummy step
        assert_eq!(t.enabled(), &[n(2)], "dummy step must not disable");
    }
}
