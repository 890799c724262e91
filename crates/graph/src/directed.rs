use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::{NodeId, Orientation, UndirectedGraph};

/// A borrowed directed view of an [`UndirectedGraph`] under an
/// [`Orientation`]: the directed graph `G'` of the paper.
///
/// All link-reversal analyses live here: sinks and sources, acyclicity
/// (Kahn's algorithm), topological order, reachability, and the
/// *destination-orientation* property that link-reversal algorithms
/// establish (every node has a directed path to the destination).
///
/// ```
/// use lr_graph::{stream, NodeId};
///
/// let inst = stream::chain_away(4).to_instance(); // D ← everything points away from D
/// let view = inst.view();
/// assert!(view.is_acyclic());
/// assert_eq!(view.sinks(), vec![NodeId::new(3)]);
/// assert!(!view.is_destination_oriented(inst.dest));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct DirectedView<'a> {
    graph: &'a UndirectedGraph,
    orientation: &'a Orientation,
}

impl<'a> DirectedView<'a> {
    /// Creates a view of `graph` directed by `orientation`.
    ///
    /// The orientation is expected to cover every edge of the graph; edges
    /// without an assigned direction are ignored by every query, which the
    /// algorithm crates rely on never happening (their constructors validate
    /// coverage).
    pub fn new(graph: &'a UndirectedGraph, orientation: &'a Orientation) -> Self {
        DirectedView { graph, orientation }
    }

    /// The underlying undirected graph.
    pub fn graph(&self) -> &'a UndirectedGraph {
        self.graph
    }

    /// The orientation.
    pub fn orientation(&self) -> &'a Orientation {
        self.orientation
    }

    /// Out-neighbors of `u` (targets of edges leaving `u`).
    pub fn out_neighbors(&self, u: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.graph
            .neighbors(u)
            .filter(move |&v| self.orientation.points_from_to(u, v))
    }

    /// In-neighbors of `u` (sources of edges entering `u`).
    pub fn in_neighbors(&self, u: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.graph
            .neighbors(u)
            .filter(move |&v| self.orientation.points_from_to(v, u))
    }

    /// Out-degree of `u`.
    pub fn out_degree(&self, u: NodeId) -> usize {
        self.out_neighbors(u).count()
    }

    /// In-degree of `u`.
    pub fn in_degree(&self, u: NodeId) -> usize {
        self.in_neighbors(u).count()
    }

    /// A node is a *sink* when it has at least one incident edge and all of
    /// them are incoming (§1: "all its incident edges are incoming").
    pub fn is_sink(&self, u: NodeId) -> bool {
        self.graph.degree(u) > 0 && self.out_degree(u) == 0
    }

    /// A node is a *source* when it has at least one incident edge and all
    /// of them are outgoing.
    pub fn is_source(&self, u: NodeId) -> bool {
        self.graph.degree(u) > 0 && self.in_degree(u) == 0
    }

    /// All sinks, in ascending node order.
    pub fn sinks(&self) -> Vec<NodeId> {
        self.graph.nodes().filter(|&u| self.is_sink(u)).collect()
    }

    /// All sources, in ascending node order.
    pub fn sources(&self) -> Vec<NodeId> {
        self.graph.nodes().filter(|&u| self.is_source(u)).collect()
    }

    /// A topological order of `G'`, or `None` if it contains a cycle
    /// (Kahn's algorithm).
    pub fn topological_sort(&self) -> Option<Vec<NodeId>> {
        let mut indeg: BTreeMap<NodeId, usize> =
            self.graph.nodes().map(|u| (u, self.in_degree(u))).collect();
        let mut ready: VecDeque<NodeId> = indeg
            .iter()
            .filter(|&(_, &d)| d == 0)
            .map(|(&u, _)| u)
            .collect();
        let mut order = Vec::with_capacity(self.graph.node_count());
        while let Some(u) = ready.pop_front() {
            order.push(u);
            for v in self.out_neighbors(u) {
                let d = indeg.get_mut(&v).expect("node present");
                *d -= 1;
                if *d == 0 {
                    ready.push_back(v);
                }
            }
        }
        (order.len() == self.graph.node_count()).then_some(order)
    }

    /// Returns `true` if `G'` is acyclic — the property Theorem 4.3 / 5.5 of
    /// the paper establishes for every reachable state.
    pub fn is_acyclic(&self) -> bool {
        self.topological_sort().is_some()
    }

    /// Finds a directed cycle, if one exists, as a node sequence
    /// `v0 → v1 → … → vk → v0` (the closing edge is implicit).
    pub fn find_cycle(&self) -> Option<Vec<NodeId>> {
        #[derive(Clone, Copy, PartialEq)]
        enum Mark {
            White,
            Grey,
            Black,
        }
        let mut mark: BTreeMap<NodeId, Mark> =
            self.graph.nodes().map(|u| (u, Mark::White)).collect();
        let mut parent: BTreeMap<NodeId, NodeId> = BTreeMap::new();

        for root in self.graph.nodes() {
            if mark[&root] != Mark::White {
                continue;
            }
            // Iterative DFS with an explicit stack of (node, out-neighbor list).
            let mut stack = vec![(root, self.out_neighbors(root).collect::<Vec<_>>())];
            mark.insert(root, Mark::Grey);
            while let Some((u, nbrs)) = stack.last_mut() {
                if let Some(v) = nbrs.pop() {
                    match mark[&v] {
                        Mark::White => {
                            parent.insert(v, *u);
                            mark.insert(v, Mark::Grey);
                            let next = self.out_neighbors(v).collect::<Vec<_>>();
                            stack.push((v, next));
                        }
                        Mark::Grey => {
                            // Found a back edge u -> v: reconstruct the cycle.
                            let mut cycle = vec![*u];
                            let mut cur = *u;
                            while cur != v {
                                cur = parent[&cur];
                                cycle.push(cur);
                            }
                            cycle.reverse();
                            return Some(cycle);
                        }
                        Mark::Black => {}
                    }
                } else {
                    mark.insert(*u, Mark::Black);
                    stack.pop();
                }
            }
        }
        None
    }

    /// The set of nodes that can reach `dest` along directed edges
    /// (including `dest` itself). Computed by reverse BFS from `dest`.
    pub fn nodes_reaching(&self, dest: NodeId) -> BTreeSet<NodeId> {
        let mut seen = BTreeSet::new();
        if !self.graph.contains_node(dest) {
            return seen;
        }
        let mut queue = VecDeque::new();
        seen.insert(dest);
        queue.push_back(dest);
        while let Some(u) = queue.pop_front() {
            for v in self.in_neighbors(u) {
                if seen.insert(v) {
                    queue.push_back(v);
                }
            }
        }
        seen
    }

    /// Returns `true` if `u` has a directed path to `dest`.
    pub fn can_reach(&self, u: NodeId, dest: NodeId) -> bool {
        self.nodes_reaching(dest).contains(&u)
    }

    /// The goal condition of link reversal: every node has a directed path
    /// to `dest` ("destination-oriented", §1).
    pub fn is_destination_oriented(&self, dest: NodeId) -> bool {
        self.nodes_reaching(dest).len() == self.graph.node_count()
    }

    /// Number of nodes with **no** directed path to `dest` — the `n_b`
    /// ("bad nodes") parameter of the Θ(n_b²) work bound cited in §1.
    pub fn bad_node_count(&self, dest: NodeId) -> usize {
        self.graph.node_count() - self.nodes_reaching(dest).len()
    }

    /// A shortest directed path from `u` to `dest` (inclusive of both
    /// endpoints), if one exists.
    pub fn directed_path(&self, u: NodeId, dest: NodeId) -> Option<Vec<NodeId>> {
        if u == dest {
            return Some(vec![u]);
        }
        // BFS from u along out-edges.
        let mut parent: BTreeMap<NodeId, NodeId> = BTreeMap::new();
        let mut queue = VecDeque::new();
        parent.insert(u, u);
        queue.push_back(u);
        while let Some(x) = queue.pop_front() {
            for v in self.out_neighbors(x) {
                if let std::collections::btree_map::Entry::Vacant(e) = parent.entry(v) {
                    e.insert(x);
                    if v == dest {
                        let mut path = vec![dest];
                        let mut cur = dest;
                        while cur != u {
                            cur = parent[&cur];
                            path.push(cur);
                        }
                        path.reverse();
                        return Some(path);
                    }
                    queue.push_back(v);
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Orientation;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    /// 0 → 1 → 2, plus 0 → 2 (a transitive DAG on a triangle).
    fn triangle_dag() -> (UndirectedGraph, Orientation) {
        let g = UndirectedGraph::from_edges(&[(0, 1), (1, 2), (0, 2)]).unwrap();
        let o = Orientation::from_order(&g, &[n(0), n(1), n(2)]);
        (g, o)
    }

    #[test]
    fn out_and_in_neighbors() {
        let (g, o) = triangle_dag();
        let v = DirectedView::new(&g, &o);
        let outs: Vec<u32> = v.out_neighbors(n(0)).map(NodeId::raw).collect();
        assert_eq!(outs, vec![1, 2]);
        let ins: Vec<u32> = v.in_neighbors(n(2)).map(NodeId::raw).collect();
        assert_eq!(ins, vec![0, 1]);
        assert_eq!(v.out_degree(n(2)), 0);
        assert_eq!(v.in_degree(n(0)), 0);
    }

    #[test]
    fn sinks_and_sources() {
        let (g, o) = triangle_dag();
        let v = DirectedView::new(&g, &o);
        assert!(v.is_sink(n(2)));
        assert!(!v.is_sink(n(1)));
        assert!(v.is_source(n(0)));
        assert_eq!(v.sinks(), vec![n(2)]);
        assert_eq!(v.sources(), vec![n(0)]);
    }

    #[test]
    fn isolated_node_is_neither_sink_nor_source() {
        let mut g = UndirectedGraph::with_nodes(1);
        let iso = g.add_node();
        let o = Orientation::new();
        let v = DirectedView::new(&g, &o);
        assert!(!v.is_sink(iso));
        assert!(!v.is_source(iso));
    }

    #[test]
    fn topological_sort_on_dag() {
        let (g, o) = triangle_dag();
        let v = DirectedView::new(&g, &o);
        assert_eq!(v.topological_sort(), Some(vec![n(0), n(1), n(2)]));
        assert!(v.is_acyclic());
        assert_eq!(v.find_cycle(), None);
    }

    #[test]
    fn cycle_is_detected_and_reported() {
        let g = UndirectedGraph::from_edges(&[(0, 1), (1, 2), (0, 2)]).unwrap();
        let mut o = Orientation::new();
        o.set_from_to(n(0), n(1));
        o.set_from_to(n(1), n(2));
        o.set_from_to(n(2), n(0));
        let v = DirectedView::new(&g, &o);
        assert!(!v.is_acyclic());
        let cycle = v.find_cycle().expect("cycle exists");
        assert_eq!(cycle.len(), 3);
        // Every consecutive pair (cyclically) must be a directed edge.
        for i in 0..cycle.len() {
            let a = cycle[i];
            let b = cycle[(i + 1) % cycle.len()];
            assert!(o.points_from_to(a, b), "{a} -> {b} should be an edge");
        }
    }

    #[test]
    fn destination_orientation() {
        let (g, o) = triangle_dag();
        let v = DirectedView::new(&g, &o);
        // Everything flows toward node 2.
        assert!(v.is_destination_oriented(n(2)));
        assert!(!v.is_destination_oriented(n(0)));
        assert_eq!(v.bad_node_count(n(2)), 0);
        assert_eq!(v.bad_node_count(n(0)), 2);
    }

    #[test]
    fn nodes_reaching_reverse_bfs() {
        let g = UndirectedGraph::from_edges(&[(0, 1), (1, 2), (3, 2)]).unwrap();
        let mut o = Orientation::new();
        o.set_from_to(n(0), n(1));
        o.set_from_to(n(1), n(2));
        o.set_from_to(n(2), n(3));
        let v = DirectedView::new(&g, &o);
        let r = v.nodes_reaching(n(2));
        assert!(r.contains(&n(0)) && r.contains(&n(1)) && r.contains(&n(2)));
        assert!(!r.contains(&n(3)));
    }

    #[test]
    fn directed_path_extraction() {
        let (g, o) = triangle_dag();
        let v = DirectedView::new(&g, &o);
        let p = v.directed_path(n(0), n(2)).unwrap();
        assert_eq!(p.first(), Some(&n(0)));
        assert_eq!(p.last(), Some(&n(2)));
        // Each hop must follow a directed edge.
        for w in p.windows(2) {
            assert!(o.points_from_to(w[0], w[1]));
        }
        assert_eq!(v.directed_path(n(2), n(0)), None);
        assert_eq!(v.directed_path(n(1), n(1)), Some(vec![n(1)]));
    }
}
