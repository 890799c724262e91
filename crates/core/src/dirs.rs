//! The paper's edge-direction state: one `dir[u, v] ∈ {in, out}` variable
//! per **ordered** pair of adjacent nodes.
//!
//! The paper stores the direction of every edge twice — once from each
//! endpoint's perspective — and then *proves* the two copies stay
//! consistent (Invariant 3.1). We deliberately keep the same duplicated
//! representation instead of a single direction per edge, so that
//! Invariant 3.1 is a falsifiable property of the implementation rather
//! than true by construction.
//!
//! The duplicated state is **bit-packed** over the instance's
//! [`CsrGraph`]: one bit per half-edge slot (set ⟺ `out`) in a `u64`
//! word vector, initialized by copying the instance's own orientation
//! words. The slot of `(u, v)` and the slot of `(v, u)` are **distinct
//! bits** (related by the twin table), so the representation stays
//! falsifiable — [`MirroredDirs::set_one_sided`] can desynchronize the
//! two copies and [`MirroredDirs::check_consistency`] has a real property
//! to check — while every lookup on the execution hot path is a masked
//! word read. [`MirroredDirs::orientation`] reads one copy per edge back
//! into the single-copy [`Orientation`] that every analysis runs on.

use std::hash::{Hash, Hasher};
use std::ops::Range;
use std::sync::Arc;

use lr_graph::{CsrGraph, EdgeDir, NodeId, Orientation, ReversalInstance};

/// The word index and bit mask of a half-edge slot.
#[inline]
pub(crate) fn word_bit(slot: usize) -> (usize, u64) {
    (slot >> 6, 1u64 << (slot & 63))
}

/// Walks the words of a bitset that hold the bits of the non-empty
/// `range`, in order, calling `f(word, mask)` with each word's index and
/// the mask of the range's bits in it until `f` returns `false`; returns
/// whether it never did. The one masked word-range walk behind every
/// ranged read and write of per-slot bits (a node's slot range is a
/// `range`). A closure rather than an iterator, so the common one-word
/// range compiles to one masked access.
#[inline]
pub(crate) fn all_word_masks(range: Range<usize>, mut f: impl FnMut(usize, u64) -> bool) -> bool {
    debug_assert!(!range.is_empty(), "an empty range has no words");
    let (first, last) = (range.start >> 6, (range.end - 1) >> 6);
    let lo = !0u64 << (range.start & 63);
    let hi = !0u64 >> (63 - ((range.end - 1) & 63));
    if first == last {
        return f(first, lo & hi);
    }
    f(first, lo) && (first + 1..last).all(|w| f(w, !0)) && f(last, hi)
}

/// Both-endpoint edge direction state: `dir[u, v]` for every ordered pair
/// of adjacent `u, v`, stored as one bit per half-edge slot (set ⟺
/// `out`) over a shared [`CsrGraph`].
#[derive(Debug, Clone)]
pub struct MirroredDirs {
    csr: Arc<CsrGraph>,
    /// Packed directions: bit `slot` of `words[slot / 64]` is 1 iff
    /// `dir[u, v] = out` for the slot of `(u, v)`; the twin slot's bit
    /// holds the other endpoint's independent copy. Padding bits beyond
    /// `len` stay zero so word-level `Eq`/`Hash` are well defined.
    words: Vec<u64>,
    /// Number of valid slots (= the CSR half-edge count).
    len: usize,
}

/// A violation of Invariant 3.1: the two per-endpoint copies of an edge
/// direction disagree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirInconsistency {
    /// One endpoint.
    pub u: NodeId,
    /// The other endpoint.
    pub v: NodeId,
    /// `dir[u, v]`.
    pub dir_uv: EdgeDir,
    /// `dir[v, u]` — equal to `dir_uv`, which is the inconsistency.
    pub dir_vu: EdgeDir,
}

impl MirroredDirs {
    /// Initializes from an instance: `dir[u, v] = out` iff the initial
    /// orientation directs `u → v`, and symmetrically for `dir[v, u]`
    /// (matching the `States` section of Algorithms 1–3). Shares the
    /// instance's CSR and copies its orientation words — O(m / 64), no
    /// per-edge work, which is what makes million-node engine
    /// construction cheap.
    pub fn from_instance(inst: &ReversalInstance) -> Self {
        MirroredDirs {
            csr: Arc::clone(inst.csr()),
            words: inst.init().words().to_vec(),
            len: inst.half_edge_count(),
        }
    }

    /// The shared CSR snapshot the directions are indexed by.
    pub fn csr(&self) -> &Arc<CsrGraph> {
        &self.csr
    }

    fn slot(&self, u: NodeId, v: NodeId) -> Option<usize> {
        let ui = self.csr.index_of(u)?;
        let vi = self.csr.index_of(v)?;
        self.csr.slot_of(ui, vi)
    }

    fn slot_or_panic(&self, u: NodeId, v: NodeId) -> usize {
        self.slot(u, v)
            .unwrap_or_else(|| panic!("no edge between {u} and {v}"))
    }

    /// `dir[u, v]` — the direction of edge `{u, v}` from `u`'s perspective.
    ///
    /// # Panics
    ///
    /// Panics if `{u, v}` is not an edge, which indicates a harness bug.
    pub fn dir(&self, u: NodeId, v: NodeId) -> EdgeDir {
        self.dir_at(self.slot_or_panic(u, v))
    }

    /// `dir` by half-edge slot — the allocation-free hot-path accessor.
    pub fn dir_at(&self, slot: usize) -> EdgeDir {
        assert!(slot < self.len, "slot {slot} out of range");
        if self.is_out_at(slot) {
            EdgeDir::Out
        } else {
            EdgeDir::In
        }
    }

    /// Whether the slot's own copy reads `out`: [`MirroredDirs::dir_at`]
    /// as a bit.
    pub(crate) fn is_out_at(&self, slot: usize) -> bool {
        let (w, m) = word_bit(slot);
        self.words[w] & m != 0
    }

    /// Whether the slot's edge points out of the slot's owner by the
    /// edge's canonical copy, the one held by its smaller endpoint, which
    /// [`MirroredDirs::orientation`] reads. Slots run by owner, so the
    /// canonical slot is the smaller of an edge's two.
    fn canonical_out(&self, slot: usize) -> bool {
        let twin = self.csr.twin(slot);
        if slot < twin {
            self.is_out_at(slot)
        } else {
            !self.is_out_at(twin)
        }
    }

    /// Executes the paper's reversal assignment for one edge as performed
    /// by node `u`: `dir[u, v] := out; dir[v, u] := in`.
    ///
    /// # Panics
    ///
    /// Panics if `{u, v}` is not an edge.
    pub fn reverse_outward(&mut self, u: NodeId, v: NodeId) {
        let slot = self.slot_or_panic(u, v);
        self.reverse_outward_at(slot);
    }

    /// [`MirroredDirs::reverse_outward`] by half-edge slot: assigns both
    /// copies — the slot's bit and its twin's — in the same pass, O(1).
    pub fn reverse_outward_at(&mut self, slot: usize) {
        assert!(slot < self.len, "slot {slot} out of range");
        let (w, m) = word_bit(slot);
        self.words[w] |= m;
        let (tw, tm) = word_bit(self.csr.twin(slot));
        self.words[tw] &= !tm;
    }

    /// Sets a **single** side `dir[u, v]` without touching `dir[v, u]`.
    ///
    /// Only exists so tests can manufacture Invariant 3.1 violations; the
    /// algorithms never call it.
    #[doc(hidden)]
    pub fn set_one_sided(&mut self, u: NodeId, v: NodeId, d: EdgeDir) {
        let slot = self.slot_or_panic(u, v);
        let (w, m) = word_bit(slot);
        match d {
            EdgeDir::Out => self.words[w] |= m,
            EdgeDir::In => self.words[w] &= !m,
        }
    }

    /// Checks Invariant 3.1: for each edge `{u, v}`,
    /// `dir[u, v] = in` iff `dir[v, u] = out`.
    ///
    /// # Errors
    ///
    /// Returns the first inconsistent edge (lexicographic order).
    pub fn check_consistency(&self) -> Result<(), DirInconsistency> {
        for src in 0..self.csr.node_count() {
            for slot in self.csr.slots(src) {
                let dst = self.csr.target(slot);
                if src < dst {
                    let here = self.dir_at(slot);
                    let back = self.dir_at(self.csr.twin(slot));
                    if back != here.flipped() {
                        return Err(DirInconsistency {
                            u: self.csr.node(src),
                            v: self.csr.node(dst),
                            dir_uv: here,
                            dir_vu: back,
                        });
                    }
                }
            }
        }
        Ok(())
    }

    /// Whether the node at dense index `idx` is a sink *from its own
    /// perspective*: it has at least one incident edge and every one of
    /// its half-edge slots reads `in`. Word-masked — O(Δ / 64),
    /// allocation-free.
    pub fn is_sink_at(&self, idx: usize) -> bool {
        let r = self.csr.slots(idx);
        !r.is_empty() && all_word_masks(r, |w, m| self.words[w] & m == 0)
    }

    /// Whether `u` is a sink *from `u`'s own perspective*: it has at least
    /// one incident edge and `dir[u, v] = in` for all neighbors `v` — the
    /// precondition of every `reverse` action in the paper. `false` for
    /// unknown nodes.
    pub fn is_sink(&self, u: NodeId) -> bool {
        self.csr.index_of(u).is_some_and(|idx| self.is_sink_at(idx))
    }

    /// All sinks in ascending node order, lazily — no allocation per
    /// call; collect or iterate as the caller needs.
    pub fn sinks(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.csr.node_count())
            .filter(|&i| self.is_sink_at(i))
            .map(|i| self.csr.node(i))
    }

    /// Extracts the single-copy [`Orientation`] (using each edge's
    /// canonical-endpoint copy). When Invariant 3.1 holds this is *the*
    /// directed graph `G'` of the state.
    pub fn orientation(&self) -> Orientation {
        Orientation::from_fn(Arc::clone(&self.csr), |_, slot| {
            self.dir_at(slot) == EdgeDir::Out
        })
    }

    /// Whether [`MirroredDirs::orientation`] is acyclic, decided on the
    /// slot bits without building it: Kahn's peel, reading each edge's
    /// canonical copy. One scratch buffer holds every node's count of
    /// incoming edges not yet peeled and the stack of nodes left with
    /// none; each node enters the stack once, when its count reaches 0.
    pub(crate) fn is_acyclic(&self) -> bool {
        let csr = &*self.csr;
        let n = csr.node_count();
        let mut scratch = vec![0u32; 2 * n];
        let (indeg, ready) = scratch.split_at_mut(n);
        let mut top = 0;
        for (u, d) in indeg.iter_mut().enumerate() {
            let incoming = csr.slots(u).filter(|&s| !self.canonical_out(s)).count();
            *d = u32::try_from(incoming).expect("a degree fits the u32 slot space");
            if incoming == 0 {
                ready[top] = u as u32;
                top += 1;
            }
        }
        let mut peeled = 0;
        while top > 0 {
            top -= 1;
            let u = ready[top] as usize;
            peeled += 1;
            for slot in csr.slots(u) {
                if self.canonical_out(slot) {
                    let v = csr.target(slot);
                    indeg[v] -= 1;
                    if indeg[v] == 0 {
                        ready[top] = v as u32;
                        top += 1;
                    }
                }
            }
        }
        peeled == n
    }

    /// Whether `self.orientation() == other.orientation()`, decided on the
    /// slot bits without building either: both direct one graph, and
    /// every edge's canonical copy agrees. The other copies may differ.
    pub fn same_orientation(&self, other: &MirroredDirs) -> bool {
        (Arc::ptr_eq(&self.csr, &other.csr) || self.csr == other.csr)
            && self
                .words
                .iter()
                .zip(&other.words)
                .enumerate()
                .all(|(w, (a, b))| {
                    let mut diff = a ^ b;
                    while diff != 0 {
                        let slot = w * 64 + diff.trailing_zeros() as usize;
                        if slot < self.csr.twin(slot) {
                            return false;
                        }
                        diff &= diff - 1;
                    }
                    true
                })
    }

    /// Number of ordered direction entries (= 2 × edge count).
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when there are no edges.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Resident size of the packed direction words in bytes.
    pub fn resident_bytes(&self) -> usize {
        self.words.len() * 8
    }
}

// Equality and hashing ignore the shared CSR handle's identity: two
// direction states are equal when they describe the same graph with the
// same per-endpoint assignments. States of one execution always share
// their `Arc`, so the structural comparison is only hit across instances.
// Padding bits are kept zero by every mutator, so whole-word comparison
// is exact.
impl PartialEq for MirroredDirs {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len
            && self.words == other.words
            && (Arc::ptr_eq(&self.csr, &other.csr) || self.csr == other.csr)
    }
}

impl Eq for MirroredDirs {}

impl Hash for MirroredDirs {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.words.hash(state);
    }
}

/// One node's step in a link-reversal execution, as recorded by engines
/// and the trace machinery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReversalStep {
    /// The node that took the step.
    pub node: NodeId,
    /// Edges reversed, as `(node, neighbor)` pairs (directed `node →
    /// neighbor` after the step).
    pub reversed: Vec<NodeId>,
    /// `true` for NewPR "dummy" steps that reverse nothing and only flip
    /// the parity bit (§4.1).
    pub dummy: bool,
}

impl ReversalStep {
    /// Number of edges reversed in this step.
    pub fn reversal_count(&self) -> usize {
        self.reversed.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lr_graph::stream;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn from_instance_matches_initial_orientation() {
        let inst = stream::chain_away(3);
        let d = MirroredDirs::from_instance(&inst);
        assert_eq!(d.dir(n(0), n(1)), EdgeDir::Out);
        assert_eq!(d.dir(n(1), n(0)), EdgeDir::In);
        assert_eq!(d.dir(n(1), n(2)), EdgeDir::Out);
        assert_eq!(d.len(), 4);
        assert!(d.check_consistency().is_ok());
    }

    #[test]
    #[should_panic(expected = "no edge")]
    fn dir_of_non_edge_panics() {
        let inst = stream::chain_away(3);
        let d = MirroredDirs::from_instance(&inst);
        let _ = d.dir(n(0), n(2));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn dir_at_rejects_out_of_range_slots() {
        let inst = stream::chain_away(3);
        let d = MirroredDirs::from_instance(&inst);
        let _ = d.dir_at(4); // 4 half-edges: valid slots are 0..4
    }

    #[test]
    fn reverse_outward_updates_both_sides() {
        let inst = stream::chain_away(3);
        let mut d = MirroredDirs::from_instance(&inst);
        // Node 2 is the sink; it reverses its edge to 1.
        d.reverse_outward(n(2), n(1));
        assert_eq!(d.dir(n(2), n(1)), EdgeDir::Out);
        assert_eq!(d.dir(n(1), n(2)), EdgeDir::In);
        assert!(d.check_consistency().is_ok());
    }

    #[test]
    fn consistency_violation_is_reported() {
        let inst = stream::chain_away(3);
        let mut d = MirroredDirs::from_instance(&inst);
        d.set_one_sided(n(1), n(0), EdgeDir::Out); // dir[0,1] is also Out now
        let err = d.check_consistency().unwrap_err();
        assert_eq!((err.u, err.v), (n(0), n(1)));
        assert_eq!(err.dir_uv, err.dir_vu.flipped().flipped());
    }

    #[test]
    fn both_copies_are_distinct_storage() {
        // The falsifiability guarantee: writing one ordered pair must not
        // implicitly write the other — one bit flips, its twin does not.
        let inst = stream::chain_away(3);
        let mut d = MirroredDirs::from_instance(&inst);
        d.set_one_sided(n(2), n(1), EdgeDir::Out);
        assert_eq!(d.dir(n(2), n(1)), EdgeDir::Out);
        assert_eq!(d.dir(n(1), n(2)), EdgeDir::Out, "twin copy untouched");
        assert!(d.check_consistency().is_err());
    }

    #[test]
    fn sink_detection_from_own_perspective() {
        let inst = stream::chain_away(4);
        let d = MirroredDirs::from_instance(&inst);
        assert!(d.is_sink(n(3)));
        assert!(!d.is_sink(n(0)));
        assert!(!d.is_sink(n(1)));
        assert_eq!(d.sinks().collect::<Vec<_>>(), vec![n(3)]);
    }

    #[test]
    fn sink_detection_across_word_boundaries() {
        // A star with 100 leaves gives the center a 100-slot range
        // spanning two and a half words; after every leaf reverses, the
        // center's whole range reads `in`.
        let inst = stream::star_away(100);
        let mut d = MirroredDirs::from_instance(&inst);
        assert!(!d.is_sink(n(0)));
        for leaf in 1..=100u32 {
            assert!(d.is_sink(n(leaf)), "leaf {leaf} starts as a sink");
            d.reverse_outward(n(leaf), n(0));
        }
        assert!(d.is_sink(n(0)));
        assert_eq!(d.sinks().collect::<Vec<_>>(), vec![n(0)]);
    }

    #[test]
    fn orientation_round_trip() {
        let inst = stream::random_connected(12, 10, 3);
        let d = MirroredDirs::from_instance(&inst);
        assert_eq!(&d.orientation(), inst.init());
    }

    /// Sets one copy of the slot's edge, as a harness corrupting the
    /// state would.
    fn set_slot(d: &mut MirroredDirs, slot: usize, dir: EdgeDir) {
        let csr = Arc::clone(d.csr());
        let (u, v) = (csr.node(csr.source(slot)), csr.node(csr.target(slot)));
        d.set_one_sided(u, v, dir);
    }

    /// `count` seeded direction states of `random_connected` instances
    /// with 2–20 nodes. Each edge gets a random direction, so many states
    /// are cyclic; in every third state one to three single copies are
    /// overwritten through `set_one_sided`, breaking Invariant 3.1.
    fn random_states(count: u64) -> Vec<MirroredDirs> {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        (0..count)
            .map(|seed| {
                let mut rng = SmallRng::seed_from_u64(seed);
                let nodes = rng.gen_range(2..=20usize);
                let inst = stream::random_connected(nodes, rng.gen_range(0..=2 * nodes), seed);
                let mut d = MirroredDirs::from_instance(&inst);
                for slot in 0..d.len() {
                    if slot < d.csr().twin(slot) && rng.gen_bool(0.5) {
                        d.reverse_outward_at(d.csr().twin(slot));
                    }
                }
                if seed % 3 == 0 {
                    for _ in 0..rng.gen_range(1..=3usize) {
                        let slot = rng.gen_range(0..d.len());
                        let dir = if rng.gen_bool(0.5) {
                            EdgeDir::Out
                        } else {
                            EdgeDir::In
                        };
                        set_slot(&mut d, slot, dir);
                    }
                }
                d
            })
            .collect()
    }

    #[test]
    fn the_peel_agrees_with_the_orientation_on_random_states() {
        let (mut cyclic, mut inconsistent) = (0, 0);
        for (i, d) in random_states(600).iter().enumerate() {
            let o = d.orientation();
            assert_eq!(d.is_acyclic(), o.is_acyclic(), "state {i}");
            assert_eq!(d.is_acyclic(), o.find_cycle().is_none(), "state {i}");
            cyclic += usize::from(!o.is_acyclic());
            inconsistent += usize::from(d.check_consistency().is_err());
        }
        // Both verdicts, and broken copies, are well represented.
        assert!((100..500).contains(&cyclic), "{cyclic} cyclic states");
        assert!(inconsistent > 100, "{inconsistent} inconsistent states");
    }

    #[test]
    fn the_orientation_compare_agrees_with_the_orientation_on_random_states() {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(7);
        let mut same = 0;
        let states = random_states(600);
        for (i, a) in states.iter().enumerate() {
            // A copy with up to two single copies flipped: a canonical
            // copy changes the orientation, the other copy does not.
            let mut b = a.clone();
            for _ in 0..rng.gen_range(0..=2usize) {
                let slot = rng.gen_range(0..b.len());
                let dir = b.dir_at(slot).flipped();
                set_slot(&mut b, slot, dir);
            }
            let want = a.orientation() == b.orientation();
            assert_eq!(a.same_orientation(&b), want, "state {i}");
            assert_eq!(b.same_orientation(a), want, "state {i}");
            same += usize::from(want);
            // A graph of its own never compares equal, however alike.
            let other = &states[(i + 1) % states.len()];
            assert_eq!(
                a.same_orientation(other),
                a.orientation() == other.orientation(),
                "states {i} and next"
            );
        }
        assert!((100..500).contains(&same), "{same} equal pairs");
        // One graph built twice compares by content.
        let inst = stream::random_connected(9, 6, 1);
        let rebuilt = stream::random_connected(9, 6, 1);
        let a = MirroredDirs::from_instance(&inst);
        let b = MirroredDirs::from_instance(&rebuilt);
        assert!(!Arc::ptr_eq(a.csr(), b.csr()));
        assert!(a.same_orientation(&b));
    }

    #[test]
    fn equality_and_hash_follow_direction_values() {
        use std::collections::hash_map::DefaultHasher;
        let inst = stream::chain_away(4);
        let a = MirroredDirs::from_instance(&inst);
        let b = MirroredDirs::from_instance(&stream::chain_away(4)); // separate CSR build
        assert_eq!(a, b);
        let hash = |d: &MirroredDirs| {
            let mut h = DefaultHasher::new();
            d.hash(&mut h);
            h.finish()
        };
        assert_eq!(hash(&a), hash(&b));
        let mut c = b.clone();
        c.reverse_outward(n(3), n(2));
        assert_ne!(a, c);
    }

    #[test]
    fn the_word_walk_covers_exactly_the_range_and_stops_early() {
        for (a, b) in [
            (0, 256),
            (0, 1),
            (3, 64),
            (63, 65),
            (64, 128),
            (5, 200),
            (130, 131),
        ] {
            let mut words = [0u64; 4];
            let mut last = None;
            assert!(all_word_masks(a..b, |w, m| {
                assert!(last < Some(w), "{a}..{b}: word {w} out of order");
                last = Some(w);
                words[w] |= m;
                true
            }));
            for s in 0..256 {
                let (w, m) = word_bit(s);
                assert_eq!(words[w] & m != 0, (a..b).contains(&s), "{a}..{b}: slot {s}");
            }
            let mut calls = 0;
            assert!(!all_word_masks(a..b, |_, _| {
                calls += 1;
                false
            }));
            assert_eq!(calls, 1, "{a}..{b}: the walk goes on after a false");
        }
    }

    #[test]
    fn reversal_step_counts() {
        let s = ReversalStep {
            node: n(1),
            reversed: vec![n(0), n(2)],
            dummy: false,
        };
        assert_eq!(s.reversal_count(), 2);
    }
}
