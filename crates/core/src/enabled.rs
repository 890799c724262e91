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
//! A step is recorded the way engines take it: the stepping node's dense
//! index and its reversed half-edge slots. Each slot's target is the
//! neighbour whose out-count drops, so the tracker never resolves a
//! node id. Dense indices ascend with node ids (the CSR node table is
//! sorted), which is what lets a greedy round's newly enabled nodes be
//! collected by index and still come out in id order.
//!
//! The tracker is deliberately redundant state: it mirrors what a scan
//! of the underlying direction state would produce, and the differential
//! test suite (`tests/csr_differential.rs`) checks that mirror against an
//! `is_sink` rescan after every single step and at every greedy-round
//! boundary, on every engine configuration, with contiguous and with
//! gapped node ids.

use lr_graph::{CsrGraph, NodeId, Orientation};

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
///   out-count deltas, the list of nodes that stepped, and a bitmap (one
///   bit per dense index) of the nodes whose out-count reached zero,
///   with the list of bitmap words it touched. `end_batch` drops the
///   nodes that stepped from the sorted vector, sorts the touched words,
///   and merges their bits in, read in index order, which is id order:
///   O(s + edits + w·log w) for w touched words, with no comparison
///   sort of nodes and nothing proportional to n. Greedy rounds use
///   this: a round applies many steps without reading `enabled()`, so
///   the per-step O(s) shifts collapse into one merge. Because the
///   enabled *set* is a pure function of the out-counts, the merged
///   result is bit-identical to what per-step editing produces.
#[derive(Debug, Clone)]
pub struct EnabledTracker {
    /// Dense index of the destination (never enabled).
    dest_idx: usize,
    /// Per-node count of outgoing half-edges; a sink has count 0.
    out_count: Vec<u32>,
    /// Enabled nodes, ascending. Stale w.r.t. `removed`/`fresh` while a
    /// batch is open.
    enabled: Vec<NodeId>,
    /// Whether a batch is open.
    batching: bool,
    /// Batched: nodes that stepped and gained outgoing edges, in step
    /// order.
    removed: Vec<NodeId>,
    /// Batched: bit `i` is set iff the node at dense index `i` reached
    /// out-count zero. All clear outside a batch.
    fresh: Vec<u64>,
    /// Batched: the index of every word of `fresh` with a set bit, once
    /// each.
    touched: Vec<u32>,
    /// Reusable merge target, swapped with `enabled` in `end_batch`.
    merge_buf: Vec<NodeId>,
}

impl EnabledTracker {
    /// Builds the tracker from an orientation's slot bits, such as an
    /// instance's initial ones, from which every engine starts: one
    /// pass over every half-edge slot.
    pub fn from_orientation(orientation: &Orientation, dest: NodeId) -> Self {
        let csr = orientation.csr();
        let dest_idx = csr.index_of(dest).expect("destination is a node");
        let mut out_count = vec![0u32; csr.node_count()];
        for (src, count) in out_count.iter_mut().enumerate() {
            *count = csr
                .slots(src)
                .filter(|&slot| orientation.is_out(slot))
                .count() as u32;
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
            fresh: vec![0; csr.node_count().div_ceil(64)],
            touched: Vec::new(),
            merge_buf: Vec::new(),
        }
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
    }

    /// Closes the batch: drops the nodes that stepped from the sorted
    /// enabled vector and merges in the bitmap of newly enabled nodes.
    /// `csr` must be the graph the steps were recorded on.
    ///
    /// # Panics
    ///
    /// Panics if no batch is open.
    pub fn end_batch(&mut self, csr: &CsrGraph) {
        assert!(self.batching, "no batch open");
        self.batching = false;
        // Greedy rounds step their snapshot in ascending order, so this
        // is one pass; only an out-of-order caller pays for a sort.
        if !self.removed.is_sorted() {
            self.removed.sort_unstable();
        }
        // Drop the nodes that stepped. Both lists ascend, so one cursor
        // walks `removed`. A node that stepped and was re-enabled in the
        // same batch comes back below, from the bitmap.
        let removed = &self.removed;
        let mut k = 0;
        self.enabled.retain(|&u| {
            let stepped = removed.get(k) == Some(&u);
            k += usize::from(stepped);
            !stepped
        });
        debug_assert_eq!(k, removed.len(), "removed node was not enabled");
        // Merge in the newly enabled nodes in id order: the touched words
        // in order, each word's bits low to high. Reading a word clears
        // it.
        self.touched.sort_unstable();
        self.merge_buf.clear();
        let mut i = 0;
        for &w in &self.touched {
            let base = (w as usize) << 6;
            let mut bits = std::mem::take(&mut self.fresh[w as usize]);
            while bits != 0 {
                let v = csr.node(base | bits.trailing_zeros() as usize);
                bits &= bits - 1;
                while i < self.enabled.len() && self.enabled[i] < v {
                    self.merge_buf.push(self.enabled[i]);
                    i += 1;
                }
                self.merge_buf.push(v);
            }
        }
        self.touched.clear();
        self.merge_buf.extend_from_slice(&self.enabled[i..]);
        std::mem::swap(&mut self.enabled, &mut self.merge_buf);
    }

    /// Applies the enabled-set delta of one step: the node at dense
    /// index `ui` reversed the edges of `slots` (slots of its own range)
    /// outward. Only `ui` and the slots' targets are touched.
    ///
    /// # Panics
    ///
    /// Panics if `ui` or a slot is out of range for `csr`.
    pub fn record_step(&mut self, csr: &CsrGraph, ui: usize, slots: &[u32]) {
        self.out_count[ui] += slots.len() as u32;
        if !slots.is_empty() {
            // A dummy step (NewPR §4.1) reverses nothing: u stays a sink
            // and stays enabled. Otherwise it gained outgoing edges.
            let u = csr.node(ui);
            if self.batching {
                self.removed.push(u);
            } else {
                self.remove(u);
            }
        }
        for &slot in slots {
            let vi = csr.target(slot as usize);
            debug_assert!(
                self.out_count[vi] > 0,
                "reversed edge was outgoing at node index {vi}"
            );
            self.out_count[vi] -= 1;
            if self.out_count[vi] == 0 && vi != self.dest_idx {
                // v had an outgoing edge, so degree(v) > 0 holds.
                if self.batching {
                    let word = &mut self.fresh[vi >> 6];
                    if *word == 0 {
                        self.touched.push((vi >> 6) as u32);
                    }
                    *word |= 1 << (vi & 63);
                } else {
                    self.insert(csr.node(vi));
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
    use lr_graph::{stream, ReversalInstance};

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    /// A full-reversal step of the node at dense index `ui` on `dirs`:
    /// every slot of its range, reversed outward. Returns the slots.
    fn reverse_all(dirs: &mut MirroredDirs, ui: usize) -> Vec<u32> {
        let slots: Vec<u32> = dirs.csr().slots(ui).map(|s| s as u32).collect();
        for &slot in &slots {
            dirs.reverse_outward_at(slot as usize);
        }
        slots
    }

    #[test]
    fn initial_enabled_set_matches_scan() {
        let inst = stream::chain_away(5);
        let t = EnabledTracker::from_orientation(inst.init(), inst.dest);
        assert_eq!(t.enabled(), &[n(4)]);
    }

    #[test]
    fn destination_is_never_enabled() {
        let inst = stream::chain_toward(4); // dest 0 is the unique sink
        let t = EnabledTracker::from_orientation(inst.init(), inst.dest);
        assert!(t.enabled().is_empty());
    }

    #[test]
    fn step_delta_tracks_full_rescan() {
        let inst = stream::random_connected(14, 12, 77);
        let mut dirs = MirroredDirs::from_instance(&inst);
        let mut t = EnabledTracker::from_orientation(inst.init(), inst.dest);
        let csr = std::sync::Arc::clone(inst.csr());
        let mut guard = 0;
        while let Some(&u) = t.enabled().first() {
            let ui = csr.index_of(u).unwrap();
            let slots = reverse_all(&mut dirs, ui);
            t.record_step(&csr, ui, &slots);
            let rescan: Vec<NodeId> = csr
                .nodes()
                .filter(|&w| w != inst.dest && dirs.is_sink(w))
                .collect();
            assert_eq!(t.enabled(), &rescan[..], "tracker diverged from scan");
            guard += 1;
            assert!(guard < 100_000);
        }
    }

    /// Drives identical full-reversal greedy rounds through both update
    /// modes; every round boundary must agree exactly. Returns the
    /// largest round.
    fn batched_matches_immediate(inst: &ReversalInstance) -> usize {
        let csr = std::sync::Arc::clone(inst.csr());
        let mut dirs_a = MirroredDirs::from_instance(inst);
        let mut dirs_b = dirs_a.clone();
        let mut a = EnabledTracker::from_orientation(inst.init(), inst.dest); // immediate
        let mut b = EnabledTracker::from_orientation(inst.init(), inst.dest); // batched
        let (mut rounds, mut largest) = (0, 0);
        while !a.enabled().is_empty() {
            let round: Vec<NodeId> = a.enabled().to_vec();
            largest = largest.max(round.len());
            b.begin_batch();
            for &u in &round {
                let ui = csr.index_of(u).unwrap();
                let slots = reverse_all(&mut dirs_a, ui);
                reverse_all(&mut dirs_b, ui);
                a.record_step(&csr, ui, &slots);
                b.record_step(&csr, ui, &slots);
            }
            b.end_batch(&csr);
            assert_eq!(a.enabled(), b.enabled(), "modes diverged in round {rounds}");
            rounds += 1;
            assert!(rounds < 100_000);
        }
        assert!(b.enabled().is_empty());
        assert!(b.fresh.iter().all(|&w| w == 0), "a batch leaves no bit set");
        largest
    }

    #[test]
    fn batched_round_matches_immediate_updates() {
        batched_matches_immediate(&stream::random_connected(16, 14, 3));
        // Gapped ids (i ↦ 3·i + 2): the bitmap is by dense index, the
        // enabled view by id, and here the two differ.
        let plain = stream::random_connected(40, 50, 8);
        let arcs: Vec<(u32, u32)> = plain
            .init()
            .directed_edges()
            .map(|(t, h)| (3 * t.raw() + 2, 3 * h.raw() + 2))
            .collect();
        let gapped = ReversalInstance::from_edges(&arcs, n(3 * plain.dest.raw() + 2)).unwrap();
        assert_eq!(gapped.csr().node(1), n(5));
        batched_matches_immediate(&gapped);
        // Rounds that enable thousands of nodes spread over many words
        // of the bitmap, so the touched-word order carries the merge.
        let largest = batched_matches_immediate(&stream::random_connected(20_000, 20_000, 5));
        assert!(largest >= 1_000, "largest round had only {largest} nodes");
    }

    #[test]
    #[should_panic(expected = "batch already open")]
    fn nested_batches_are_rejected() {
        let inst = stream::chain_away(3);
        let mut t = EnabledTracker::from_orientation(inst.init(), inst.dest);
        t.begin_batch();
        t.begin_batch();
    }

    #[test]
    fn empty_reversal_keeps_node_enabled() {
        let inst = stream::chain_away(3);
        let mut t = EnabledTracker::from_orientation(inst.init(), inst.dest);
        assert_eq!(t.enabled(), &[n(2)]);
        t.record_step(inst.csr(), 2, &[]); // NewPR dummy step
        assert_eq!(t.enabled(), &[n(2)], "dummy step must not disable");
    }
}
