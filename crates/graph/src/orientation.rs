use std::collections::VecDeque;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Range;
use std::sync::Arc;

use crate::csr::from_arcs;
use crate::{CsrGraph, GraphError, NodeId};

/// The direction of an edge from one endpoint's perspective, matching the
/// paper's state variable `dir[u, v] ∈ {in, out}`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EdgeDir {
    /// The edge points *toward* this node (incoming).
    In,
    /// The edge points *away from* this node (outgoing).
    Out,
}

impl EdgeDir {
    /// The opposite direction.
    #[must_use]
    pub fn flipped(self) -> Self {
        match self {
            EdgeDir::In => EdgeDir::Out,
            EdgeDir::Out => EdgeDir::In,
        }
    }
}

/// Sets bit `i` of a packed word array.
pub(crate) fn bit_set(words: &mut [u64], i: usize) {
    words[i >> 6] |= 1u64 << (i & 63);
}

/// The number of set bits of a packed word array in `range`: one masked
/// popcount per word the range touches.
fn ones_in(words: &[u64], range: Range<usize>) -> usize {
    if range.is_empty() {
        return 0;
    }
    let (first, last) = (range.start >> 6, (range.end - 1) >> 6);
    let head = !0u64 << (range.start & 63);
    let tail = !0u64 >> (63 - ((range.end - 1) & 63));
    if first == last {
        return (words[first] & head & tail).count_ones() as usize;
    }
    let middle: u32 = words[first + 1..last].iter().map(|w| w.count_ones()).sum();
    ((words[first] & head).count_ones() + middle + (words[last] & tail).count_ones()) as usize
}

/// A direction for every edge of a [`CsrGraph`]: the directed graph
/// `G' = (V, E')` of §2, as one bit per half-edge slot (set ⟺ the slot's
/// edge points **out** of the slot's owner).
///
/// The two slots of an edge always hold complementary bits, so this type
/// makes Invariant 3.1 true by construction; the algorithm crate keeps
/// the paper's duplicated per-endpoint state separately so the invariant
/// can be checked rather than assumed.
///
/// Every analysis link reversal needs lives here: sinks, a topological
/// order, acyclicity and a witness cycle, and destination-orientation.
/// Each is one O(n + m) pass over the CSR.
///
/// ```
/// use lr_graph::{stream, EdgeDir, NodeId};
///
/// let inst = stream::chain_away(4); // every edge points away from n0
/// let mut o = inst.init().clone();
/// let (a, b) = (NodeId::new(0), NodeId::new(1));
/// assert_eq!(o.dir(a, b), Some(EdgeDir::Out));
/// assert_eq!(o.sinks(), vec![NodeId::new(3)]);
/// assert!(o.is_acyclic());
/// assert!(!o.is_destination_oriented(inst.dest));
/// o.reverse(a, b).unwrap();
/// assert!(o.points_from_to(b, a));
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct Orientation {
    csr: Arc<CsrGraph>,
    /// Bit `slot` is set iff the slot's edge points out of its owner.
    /// Padding bits past the last slot stay zero.
    out: Vec<u64>,
}

impl Orientation {
    /// Builds the orientation of the graph whose edges are `arcs`, each
    /// `(tail, head)` pointing from tail to head; the nodes are the arcs'
    /// endpoints, and any `u32` is a valid id. The orientation may be
    /// cyclic and the graph disconnected; [`ReversalInstance::from_edges`]
    /// adds the instance checks.
    ///
    /// # Errors
    ///
    /// [`GraphError::SelfLoop`] or [`GraphError::DuplicateEdge`] for the
    /// first arc that is a self-loop or repeats an earlier edge in either
    /// direction; [`GraphError::SlotCapacity`] past the `u32` slot space.
    ///
    /// [`ReversalInstance::from_edges`]: crate::ReversalInstance::from_edges
    pub fn from_edges(arcs: &[(u32, u32)]) -> Result<Self, GraphError> {
        let (csr, out) = from_arcs(arcs)?;
        Ok(Orientation::from_words(Arc::new(csr), out))
    }

    /// Packed slot bits as produced by a generator or the builder; the
    /// caller guarantees that twin slots hold complementary bits.
    pub(crate) fn from_words(csr: Arc<CsrGraph>, out: Vec<u64>) -> Self {
        debug_assert_eq!(out.len(), csr.half_edge_count().div_ceil(64));
        Orientation { csr, out }
    }

    /// Orients every edge of `csr` by a rule on its canonical slot:
    /// `points_up(src, slot)` is asked once per edge, for the slot owned
    /// by the smaller dense index `src`, and says whether the edge points
    /// from `src` to the slot's target. The twin slot gets the opposite
    /// bit.
    pub fn from_fn(csr: Arc<CsrGraph>, mut points_up: impl FnMut(usize, usize) -> bool) -> Self {
        let mut out = vec![0u64; csr.half_edge_count().div_ceil(64)];
        for src in 0..csr.node_count() {
            for slot in csr.slots(src) {
                if src < csr.target(slot) {
                    let bit = if points_up(src, slot) {
                        slot
                    } else {
                        csr.twin(slot)
                    };
                    bit_set(&mut out, bit);
                }
            }
        }
        Orientation { csr, out }
    }

    /// The graph this orientation directs.
    pub fn csr(&self) -> &Arc<CsrGraph> {
        &self.csr
    }

    /// The packed slot bits (bit set ⟺ the slot points out).
    pub fn words(&self) -> &[u64] {
        &self.out
    }

    /// Whether the half-edge slot points out of its owner.
    pub fn is_out(&self, slot: usize) -> bool {
        (self.out[slot >> 6] >> (slot & 63)) & 1 == 1
    }

    /// The direction of a half-edge slot from its owner's perspective.
    pub fn dir_at(&self, slot: usize) -> EdgeDir {
        if self.is_out(slot) {
            EdgeDir::Out
        } else {
            EdgeDir::In
        }
    }

    fn slot(&self, u: NodeId, v: NodeId) -> Option<usize> {
        self.csr
            .slot_of(self.csr.index_of(u)?, self.csr.index_of(v)?)
    }

    /// The direction of edge `{u, v}` from `u`'s perspective, or `None`
    /// if `{u, v}` is not an edge.
    pub fn dir(&self, u: NodeId, v: NodeId) -> Option<EdgeDir> {
        self.slot(u, v).map(|slot| self.dir_at(slot))
    }

    /// Returns `true` if the edge `{u, v}` is oriented `u → v`.
    pub fn points_from_to(&self, u: NodeId, v: NodeId) -> bool {
        self.dir(u, v) == Some(EdgeDir::Out)
    }

    /// Reverses the direction of edge `{u, v}`.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::UnknownEdge`] if `{u, v}` is not an edge.
    pub fn reverse(&mut self, u: NodeId, v: NodeId) -> Result<(), GraphError> {
        let slot = self.slot(u, v).ok_or(GraphError::UnknownEdge(u, v))?;
        for s in [slot, self.csr.twin(slot)] {
            self.out[s >> 6] ^= 1u64 << (s & 63);
        }
        Ok(())
    }

    /// All directed edges as `(tail, head)` pairs, in canonical edge order
    /// (by smaller endpoint, then larger).
    pub fn directed_edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        let csr = &*self.csr;
        (0..csr.node_count()).flat_map(move |src| {
            csr.slots(src)
                .filter(move |&slot| src < csr.target(slot))
                .map(move |slot| {
                    let (u, v) = (csr.node(src), csr.node(csr.target(slot)));
                    if self.is_out(slot) {
                        (u, v)
                    } else {
                        (v, u)
                    }
                })
        })
    }

    /// The number of edges pointing out of the node at dense index `idx`:
    /// a popcount of its slot range.
    pub fn out_degree_at(&self, idx: usize) -> usize {
        ones_in(&self.out, self.csr.slots(idx))
    }

    /// Whether the node at dense index `idx` is a sink: it has at least
    /// one incident edge and all of them are incoming (§1).
    pub fn is_sink_at(&self, idx: usize) -> bool {
        let slots = self.csr.slots(idx);
        !slots.is_empty() && slots.clone().all(|slot| !self.is_out(slot))
    }

    /// Whether `u` is a sink; `false` for a node not in the graph.
    pub fn is_sink(&self, u: NodeId) -> bool {
        self.csr.index_of(u).is_some_and(|i| self.is_sink_at(i))
    }

    /// All sinks, in ascending node order.
    pub fn sinks(&self) -> Vec<NodeId> {
        (0..self.csr.node_count())
            .filter(|&i| self.is_sink_at(i))
            .map(|i| self.csr.node(i))
            .collect()
    }

    /// A topological order by dense index, or `None` if the orientation
    /// has a cycle. Kahn's algorithm: the nodes without incoming edges
    /// seed a FIFO queue in ascending order, and each dequeued node
    /// releases its out-neighbours in ascending slot order. Each node's
    /// in-degree is its degree less a popcount of its slot range
    /// ([`Orientation::out_degree_at`]), and the order itself is the
    /// queue: a node is appended when released and dequeued by a cursor
    /// that walks the order from its front.
    pub fn topological_order(&self) -> Option<Vec<usize>> {
        let csr = &*self.csr;
        let n = csr.node_count();
        let mut indeg: Vec<u32> = (0..n)
            .map(|i| (csr.degree(i) - self.out_degree_at(i)) as u32)
            .collect();
        let mut order = Vec::with_capacity(n);
        order.extend((0..n).filter(|&i| indeg[i] == 0));
        let mut head = 0;
        while let Some(&u) = order.get(head) {
            head += 1;
            for slot in csr.slots(u) {
                if self.is_out(slot) {
                    let v = csr.target(slot);
                    indeg[v] -= 1;
                    if indeg[v] == 0 {
                        order.push(v);
                    }
                }
            }
        }
        (order.len() == n).then_some(order)
    }

    /// Returns `true` if the directed graph is acyclic — the property
    /// Theorems 4.3 and 5.5 of the paper establish for every reachable
    /// state.
    pub fn is_acyclic(&self) -> bool {
        self.topological_order().is_some()
    }

    /// Finds a directed cycle, if one exists, as a node sequence
    /// `v0 → v1 → … → vk → v0` (the closing edge is implicit).
    ///
    /// Depth-first from each unvisited node in ascending order, taking a
    /// node's out-neighbours from the highest down.
    pub fn find_cycle(&self) -> Option<Vec<NodeId>> {
        const WHITE: u8 = 0;
        const GREY: u8 = 1;
        const BLACK: u8 = 2;
        let csr = &*self.csr;
        let n = csr.node_count();
        let mut mark = vec![WHITE; n];
        let mut parent = vec![0usize; n];
        // Each frame is a node and the end of its unexplored slot range.
        let mut stack: Vec<(usize, usize)> = Vec::new();
        for root in 0..n {
            if mark[root] != WHITE {
                continue;
            }
            mark[root] = GREY;
            stack.push((root, csr.slots(root).end));
            while let Some(&mut (u, ref mut end)) = stack.last_mut() {
                let start = csr.slots(u).start;
                let next = (start..*end).rev().find(|&slot| self.is_out(slot));
                let Some(slot) = next else {
                    mark[u] = BLACK;
                    stack.pop();
                    continue;
                };
                *end = slot;
                let v = csr.target(slot);
                match mark[v] {
                    WHITE => {
                        parent[v] = u;
                        mark[v] = GREY;
                        stack.push((v, csr.slots(v).end));
                    }
                    GREY => {
                        let mut cycle = vec![csr.node(u)];
                        let mut cur = u;
                        while cur != v {
                            cur = parent[cur];
                            cycle.push(csr.node(cur));
                        }
                        cycle.reverse();
                        return Some(cycle);
                    }
                    _ => {}
                }
            }
        }
        None
    }

    /// Which nodes, by dense index, have a directed path to `dest`
    /// (`dest` itself included): a reverse BFS from `dest`. All `false`
    /// when `dest` is not a node.
    pub fn nodes_reaching(&self, dest: NodeId) -> Vec<bool> {
        let csr = &*self.csr;
        let mut seen = vec![false; csr.node_count()];
        let Some(d) = csr.index_of(dest) else {
            return seen;
        };
        seen[d] = true;
        let mut queue = VecDeque::from([d]);
        while let Some(u) = queue.pop_front() {
            for slot in csr.slots(u) {
                let v = csr.target(slot);
                if !self.is_out(slot) && !seen[v] {
                    seen[v] = true;
                    queue.push_back(v);
                }
            }
        }
        seen
    }

    /// Number of nodes with **no** directed path to `dest` — the `n_b`
    /// ("bad nodes") parameter of the Θ(n_b²) work bound cited in §1.
    pub fn bad_node_count(&self, dest: NodeId) -> usize {
        self.nodes_reaching(dest).iter().filter(|&&r| !r).count()
    }

    /// The goal condition of link reversal: every node has a directed
    /// path to `dest` ("destination-oriented", §1).
    pub fn is_destination_oriented(&self, dest: NodeId) -> bool {
        self.bad_node_count(dest) == 0
    }
}

// Equal orientations have equal words, so hashing the words alone is
// consistent with `Eq`.
impl Hash for Orientation {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.out.hash(state);
    }
}

impl fmt::Debug for Orientation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.directed_edges()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ReversalInstance;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    /// 0 → 1 → 2, plus 0 → 2 (a transitive DAG on a triangle).
    fn triangle_dag() -> Orientation {
        ReversalInstance::from_edges(&[(0, 1), (1, 2), (0, 2)], n(2))
            .unwrap()
            .init()
            .clone()
    }

    /// The triangle's cyclic orientation 0 → 1 → 2 → 0.
    fn triangle_cycle() -> Orientation {
        Orientation::from_edges(&[(0, 1), (1, 2), (2, 0)]).unwrap()
    }

    #[test]
    fn flipped_is_involutive() {
        assert_eq!(EdgeDir::In.flipped(), EdgeDir::Out);
        assert_eq!(EdgeDir::Out.flipped().flipped(), EdgeDir::Out);
    }

    #[test]
    fn dir_reads_both_perspectives() {
        let o = triangle_dag();
        assert_eq!(o.dir(n(1), n(0)), Some(EdgeDir::In));
        assert_eq!(o.dir(n(0), n(1)), Some(EdgeDir::Out));
        assert!(o.points_from_to(n(1), n(2)));
        assert!(!o.points_from_to(n(2), n(1)));
        assert_eq!(o.dir(n(0), n(9)), None);
    }

    #[test]
    fn reverse_flips_both_slots_and_rejects_non_edges() {
        let mut o = triangle_dag();
        o.reverse(n(1), n(0)).unwrap();
        assert!(o.points_from_to(n(1), n(0)));
        assert_eq!(o.dir(n(0), n(1)), Some(EdgeDir::In));
        o.reverse(n(0), n(1)).unwrap();
        assert_eq!(o, triangle_dag());
        assert_eq!(
            o.reverse(n(0), n(7)),
            Err(GraphError::UnknownEdge(n(0), n(7)))
        );
    }

    #[test]
    fn directed_edges_come_in_canonical_order() {
        let edges: Vec<(u32, u32)> = triangle_cycle()
            .directed_edges()
            .map(|(a, b)| (a.raw(), b.raw()))
            .collect();
        assert_eq!(edges, vec![(0, 1), (2, 0), (1, 2)]);
    }

    #[test]
    fn sinks_and_topological_order_on_a_dag() {
        let o = triangle_dag();
        assert!(o.is_sink(n(2)));
        assert!(!o.is_sink(n(1)));
        assert!(!o.is_sink(n(9)));
        assert_eq!(o.sinks(), vec![n(2)]);
        assert_eq!(o.topological_order(), Some(vec![0, 1, 2]));
        assert!(o.is_acyclic());
        assert_eq!(o.find_cycle(), None);
    }

    #[test]
    fn kahn_seeds_ascend_and_the_queue_is_fifo() {
        // 3 → 0, 3 → 1, 2 → 1, 0 → 4, 1 → 4: seeds 2 and 3 ascend, and 1
        // (released by 3 after 2's edge) is dequeued after 0.
        let o = ReversalInstance::from_edges(&[(3, 0), (3, 1), (2, 1), (0, 4), (1, 4)], n(4))
            .unwrap()
            .init()
            .clone();
        assert_eq!(o.topological_order(), Some(vec![2, 3, 0, 1, 4]));
    }

    /// Kahn's algorithm with a separate `VecDeque` queue and per-slot
    /// in-degree counts: the reference for
    /// [`Orientation::topological_order`].
    fn queue_kahn(o: &Orientation) -> Option<Vec<usize>> {
        let csr = o.csr();
        let n = csr.node_count();
        let mut indeg: Vec<u32> = (0..n)
            .map(|i| csr.slots(i).filter(|&s| !o.is_out(s)).count() as u32)
            .collect();
        let mut ready: VecDeque<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut order = Vec::new();
        while let Some(u) = ready.pop_front() {
            order.push(u);
            for slot in csr.slots(u).filter(|&s| o.is_out(s)) {
                let v = csr.target(slot);
                indeg[v] -= 1;
                if indeg[v] == 0 {
                    ready.push_back(v);
                }
            }
        }
        (order.len() == n).then_some(order)
    }

    /// Random orientations of random graphs: by a random rank (acyclic)
    /// or by a coin per edge (mostly cyclic), with contiguous ids and with
    /// ids spread out (`7u + 3`), so the node table is searched.
    fn random_orientations() -> Vec<Orientation> {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};

        let mut rng = SmallRng::seed_from_u64(11);
        let mut out = Vec::new();
        for n in 2..40u32 {
            for case in 0..12 {
                let rank: Vec<u32> = (0..n).map(|_| rng.gen_range(0..1000)).collect();
                let p = [0.1, 0.3, 0.8][case % 3];
                let mut arcs = Vec::new();
                for a in 0..n {
                    for b in a + 1..n {
                        if rng.gen_bool(p) {
                            let forward = if case % 2 == 0 {
                                (rank[a as usize], a) < (rank[b as usize], b)
                            } else {
                                rng.gen_bool(0.5)
                            };
                            arcs.push(if forward { (a, b) } else { (b, a) });
                        }
                    }
                }
                if case % 4 >= 2 {
                    for arc in &mut arcs {
                        *arc = (7 * arc.0 + 3, 7 * arc.1 + 3);
                    }
                }
                out.push(Orientation::from_edges(&arcs).unwrap());
            }
        }
        out
    }

    #[test]
    fn kahn_without_a_queue_matches_the_queue_reference() {
        let (mut acyclic, mut cyclic, mut gapped) = (0, 0, 0);
        for o in random_orientations() {
            let order = o.topological_order();
            assert_eq!(order, queue_kahn(&o), "{o:?}");
            assert_eq!(order.is_some(), o.find_cycle().is_none(), "{o:?}");
            match order {
                Some(_) => acyclic += 1,
                None => cyclic += 1,
            }
            if o.csr()
                .nodes()
                .enumerate()
                .any(|(i, u)| u.raw() as usize != i)
            {
                gapped += 1;
            }
        }
        assert!(
            acyclic > 200 && cyclic > 100,
            "{acyclic} acyclic, {cyclic} cyclic"
        );
        assert!(gapped > 200, "{gapped} gapped");
    }

    #[test]
    fn out_degree_is_the_count_of_out_slots() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};

        // Node 0 owns 70 slots and node 2 owns 130: runs that start and
        // end inside u64 words and span whole ones. Nodes 1 and 4 own
        // none.
        let mut b = crate::CsrBuilder::with_capacity(205, 402);
        b.push_node(&(5..75).collect::<Vec<u32>>());
        b.push_node(&[]);
        b.push_node(&(75..205).collect::<Vec<u32>>());
        b.push_node(&[204]);
        b.push_node(&[]);
        for _ in 5..75 {
            b.push_node(&[0]);
        }
        for _ in 75..204 {
            b.push_node(&[2]);
        }
        b.push_node(&[2, 3]);
        let fan = Arc::new(b.finish().unwrap());
        let degrees = [0, 1, 2, 4].map(|i| fan.degree(i));
        assert_eq!(degrees, [70, 0, 130, 0]);
        let dense = Arc::clone(crate::stream::random_connected(150, 20_000, 4).csr());
        let mut rng = SmallRng::seed_from_u64(5);
        for csr in [fan, dense] {
            for p in [0.0, 0.05, 0.5, 0.95, 1.0] {
                let o = Orientation::from_fn(Arc::clone(&csr), |_, _| rng.gen_bool(p));
                for i in 0..csr.node_count() {
                    let count = csr.slots(i).filter(|&s| o.is_out(s)).count();
                    assert_eq!(o.out_degree_at(i), count, "node {i}, p {p}");
                }
            }
        }
    }

    #[test]
    fn cycle_is_detected_and_reported() {
        let o = triangle_cycle();
        assert!(!o.is_acyclic());
        assert_eq!(o.topological_order(), None);
        assert!(o.sinks().is_empty());
        let cycle = o.find_cycle().expect("cycle exists");
        assert_eq!(cycle, vec![n(0), n(1), n(2)]);
        for (i, &a) in cycle.iter().enumerate() {
            let b = cycle[(i + 1) % cycle.len()];
            assert!(o.points_from_to(a, b), "{a} -> {b} should be an edge");
        }
    }

    #[test]
    fn destination_orientation_and_bad_nodes() {
        let o = triangle_dag();
        assert!(o.is_destination_oriented(n(2)));
        assert!(!o.is_destination_oriented(n(0)));
        assert_eq!(o.bad_node_count(n(2)), 0);
        assert_eq!(o.bad_node_count(n(0)), 2);
        assert_eq!(o.nodes_reaching(n(1)), vec![true, true, false]);
        assert_eq!(o.nodes_reaching(n(9)), vec![false; 3]);
    }

    #[test]
    fn from_fn_asks_each_edge_once_from_its_smaller_end() {
        let o = triangle_dag();
        let csr = Arc::clone(o.csr());
        let mut asked = Vec::new();
        let rebuilt = Orientation::from_fn(Arc::clone(&csr), |src, slot| {
            asked.push((src, csr.target(slot)));
            o.is_out(slot)
        });
        assert_eq!(asked, vec![(0, 1), (0, 2), (1, 2)]);
        assert_eq!(rebuilt, o);
        assert_eq!(format!("{rebuilt:?}"), "[(n0, n1), (n0, n2), (n1, n2)]");
    }
}
