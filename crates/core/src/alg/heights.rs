//! The Gafni–Bertsekas *height* formulations of link reversal ([4] in the
//! paper).
//!
//! GB assign every node a totally-ordered label ("height") and direct
//! every edge from the higher endpoint to the lower. Reversal never touches
//! edges directly: a sink raises its own height, implicitly flipping some
//! incident edges. Two label schemes are classical:
//!
//! * **pair heights** `(α, id)` — a stepping sink sets
//!   `α_u := 1 + max{α_v : v ∈ nbrs(u)}`, flipping *all* incident edges:
//!   exactly Full Reversal.
//! * **triple heights** `(α, β, id)` — a stepping sink sets
//!   `α_u := 1 + min{α_v}` and, if some neighbor now ties on `α`,
//!   `β_u := min{β_v : α_v = α_u} − 1`: it rises above only the
//!   lowest-`α` neighbors — exactly Partial Reversal.
//!
//! Because heights totally order the nodes, acyclicity is *free* in this
//! representation — which is exactly the labeling machinery the paper's
//! new proof avoids. We implement both schemes to (a) cross-validate the
//! list-based implementations step-by-step (experiment E11) and (b) serve
//! as the local-state algorithm in the distributed simulator, where nodes
//! only know their neighbors' heights. The triple-height update lives
//! once, in [`TripleHeight::raised_above`]: the flat engine below and
//! every `lr-net` protocol (distributed PR, routing, election and the
//! threaded mode) step through it.

use std::sync::Arc;

use lr_graph::{CsrGraph, NodeId, Orientation, ReversalInstance};

use crate::alg::FrontierEngine;
use crate::{EnabledTracker, PlanAux, StepOutcome, StepScratch};

/// A Gafni–Bertsekas pair height `(α, id)`, ordered lexicographically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PairHeight {
    /// The reversal counter component.
    pub alpha: i64,
    /// Unique tie-breaker.
    pub id: NodeId,
}

/// A Gafni–Bertsekas triple height `(α, β, id)`, ordered lexicographically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TripleHeight {
    /// The primary component, incremented past the lowest neighbors.
    pub alpha: i64,
    /// The secondary component, lowered below same-`α` neighbors.
    pub beta: i64,
    /// Unique tie-breaker.
    pub id: NodeId,
}

impl TripleHeight {
    /// The Partial Reversal step of a sink with neighbour heights
    /// `nbrs`: `α := 1 + min α`, and when some neighbour then ties on
    /// `α`, `β := min{β : α = new α} − 1`; otherwise `β` is kept. The
    /// raised node sits above exactly the neighbours at `α − 1`, the
    /// lowest ones, which are the edges the step reverses.
    ///
    /// # Panics
    ///
    /// Panics if `nbrs` is empty (a sink has at least one neighbour).
    pub fn raised_above<I>(self, nbrs: I) -> TripleHeight
    where
        I: IntoIterator<Item = TripleHeight>,
        I::IntoIter: Clone,
    {
        let nbrs = nbrs.into_iter();
        let alpha = 1 + nbrs
            .clone()
            .map(|h| h.alpha)
            .min()
            .expect("a sink has at least one neighbour");
        let beta = nbrs
            .filter(|h| h.alpha == alpha)
            .map(|h| h.beta - 1)
            .min()
            .unwrap_or(self.beta);
        TripleHeight {
            alpha,
            beta,
            ..self
        }
    }
}

/// Plane-embedding x-coordinates by dense CSR index: each node's place
/// in the initial orientation's Kahn order
/// ([`lr_graph::Orientation::topological_order`]), so every initial edge
/// points from a smaller coordinate to a larger one.
fn initial_positions(inst: &ReversalInstance) -> Vec<usize> {
    let order = inst
        .init()
        .topological_order()
        .expect("initial orientation must be acyclic");
    let mut pos = vec![0; order.len()];
    for (x, &u) in order.iter().enumerate() {
        pos[u] = x;
    }
    pos
}

/// Builds the enabled tracker for a height vector: the slot's edge points
/// out of its source iff the source's height is the larger one.
fn height_tracker<H: Ord>(csr: &CsrGraph, dest: NodeId, heights: &[H]) -> EnabledTracker {
    EnabledTracker::new(csr, dest, |slot, src| {
        heights[src] > heights[csr.target(slot)]
    })
}

/// Sink test shared by both height engines: every neighbor sits above.
fn height_is_sink_at<H: Ord>(csr: &CsrGraph, heights: &[H], idx: usize) -> bool {
    csr.degree(idx) > 0
        && csr
            .neighbor_indices(idx)
            .iter()
            .all(|&v| heights[v as usize] > heights[idx])
}

/// The orientation induced by total-order heights: each edge runs from
/// the higher endpoint to the lower.
fn height_orientation<H: Ord>(csr: &Arc<CsrGraph>, heights: &[H]) -> Orientation {
    Orientation::from_fn(Arc::clone(csr), |src, slot| {
        heights[src] > heights[csr.target(slot)]
    })
}

/// The initial pair heights of an instance: `α_u = n − 1 − x(u)`.
fn initial_pair_heights(inst: &ReversalInstance) -> Vec<PairHeight> {
    let csr = inst.csr();
    let n = csr.node_count() as i64;
    initial_positions(inst)
        .into_iter()
        .zip(csr.nodes())
        .map(|(x, u)| PairHeight {
            alpha: n - 1 - x as i64,
            id: u,
        })
        .collect()
}

/// The initial triple heights of an instance, by dense CSR index:
/// `α = 0`, `β_u = −x(u)`, with `x` the plane-embedding coordinate from
/// the initial orientation's Kahn order. The GB-triple engine starts here, and so do
/// the distributed protocols of `lr-net`.
///
/// # Panics
///
/// Panics if the initial orientation is not acyclic (no generator or
/// validated instance produces one).
pub fn initial_triple_heights(inst: &ReversalInstance) -> Vec<TripleHeight> {
    let csr = inst.csr();
    initial_positions(inst)
        .into_iter()
        .zip(csr.nodes())
        .map(|(x, u)| TripleHeight {
            alpha: 0,
            beta: -(x as i64),
            id: u,
        })
        .collect()
}

/// Full Reversal via pair heights over a [`ReversalInstance`]: heights
/// by dense CSR index, initial coordinates from the Kahn order in
/// `initial_positions`, `α_u = n − 1 − x(u)` so initial edges (left →
/// right) run from higher to lower height. Step-for-step identical to
/// [`crate::alg::FullReversalAutomaton`] (the lockstep suite).
#[derive(Debug, Clone)]
pub struct FrontierPairHeightsEngine {
    /// The initial configuration, retained for [`FrontierEngine::reset`].
    init: ReversalInstance,
    /// Heights by dense CSR index.
    heights: Vec<PairHeight>,
    tracker: EnabledTracker,
}

impl FrontierPairHeightsEngine {
    /// Creates the engine in the initial state of `inst`.
    pub fn new(inst: ReversalInstance) -> Self {
        let heights = initial_pair_heights(&inst);
        let tracker = height_tracker(inst.csr(), inst.dest, &heights);
        FrontierPairHeightsEngine {
            init: inst,
            heights,
            tracker,
        }
    }

    /// The current height of a node.
    ///
    /// # Panics
    ///
    /// Panics if `u` is not a node of the instance.
    pub fn height(&self, u: NodeId) -> PairHeight {
        self.heights[self.init.csr().index_of(u).expect("known node")]
    }
}

impl FrontierEngine for FrontierPairHeightsEngine {
    fn instance(&self) -> &ReversalInstance {
        &self.init
    }

    fn algorithm_name(&self) -> &'static str {
        "GB-pair"
    }

    fn is_sink(&self, u: NodeId) -> bool {
        let csr = self.init.csr();
        csr.index_of(u)
            .is_some_and(|i| height_is_sink_at(csr, &self.heights, i))
    }

    fn enabled(&self) -> &[NodeId] {
        self.tracker.enabled()
    }

    fn plan_step(&self, u: NodeId, scratch: &mut StepScratch) -> StepOutcome {
        assert_ne!(u, self.dest(), "destination {u} never takes steps");
        let csr = self.init.csr();
        let ui = csr.index_of(u).expect("stepping node exists");
        assert!(
            height_is_sink_at(csr, &self.heights, ui),
            "reverse({u}) precondition: {u} must be a sink"
        );
        let max_alpha = csr
            .neighbor_indices(ui)
            .iter()
            .map(|&v| self.heights[v as usize].alpha)
            .max()
            .expect("sink has at least one neighbor");
        scratch.clear();
        for &v in csr.neighbor_indices(ui) {
            scratch.reversed.push(csr.node(v as usize));
        }
        scratch.aux = PlanAux(max_alpha + 1, 0);
        StepOutcome {
            node_idx: ui,
            reversal_count: scratch.reversed.len(),
            dummy: false,
        }
    }

    fn apply_planned(&mut self, u: NodeId, reversed: &[NodeId], aux: PlanAux) {
        let csr = Arc::clone(self.init.csr());
        let ui = csr.index_of(u).expect("planned node");
        self.heights[ui].alpha = aux.0;
        self.tracker.record_step(&csr, u, reversed);
    }

    fn orientation(&self) -> Orientation {
        height_orientation(self.init.csr(), &self.heights)
    }

    fn begin_round(&mut self) {
        self.tracker.begin_batch();
    }

    fn end_round(&mut self) {
        self.tracker.end_batch();
    }

    fn reset(&mut self) {
        self.heights = initial_pair_heights(&self.init);
        self.tracker = height_tracker(self.init.csr(), self.init.dest, &self.heights);
    }

    fn resident_bytes(&self) -> usize {
        let csr = self.init.csr();
        csr.resident_bytes()
            + self.heights.len() * std::mem::size_of::<PairHeight>()
            + self.init.half_edge_count().div_ceil(64) * 8 // retained init bits
            + csr.node_count() * 4 // tracker out-counts
    }
}

/// Partial Reversal via triple heights over a [`ReversalInstance`] —
/// the triple-height twin of [`FrontierPairHeightsEngine`], starting from
/// `α = 0` and `β_u = −x(u)`. Step-for-step identical to
/// [`crate::alg::OneStepPrAutomaton`] (the lockstep suite).
#[derive(Debug, Clone)]
pub struct FrontierTripleHeightsEngine {
    /// The initial configuration, retained for [`FrontierEngine::reset`].
    init: ReversalInstance,
    /// Heights by dense CSR index.
    heights: Vec<TripleHeight>,
    tracker: EnabledTracker,
}

impl FrontierTripleHeightsEngine {
    /// Creates the engine in the initial state of `inst`.
    pub fn new(inst: ReversalInstance) -> Self {
        let heights = initial_triple_heights(&inst);
        let tracker = height_tracker(inst.csr(), inst.dest, &heights);
        FrontierTripleHeightsEngine {
            init: inst,
            heights,
            tracker,
        }
    }

    /// The current height of a node.
    ///
    /// # Panics
    ///
    /// Panics if `u` is not a node of the instance.
    pub fn height(&self, u: NodeId) -> TripleHeight {
        self.heights[self.init.csr().index_of(u).expect("known node")]
    }
}

impl FrontierEngine for FrontierTripleHeightsEngine {
    fn instance(&self) -> &ReversalInstance {
        &self.init
    }

    fn algorithm_name(&self) -> &'static str {
        "GB-triple"
    }

    fn is_sink(&self, u: NodeId) -> bool {
        let csr = self.init.csr();
        csr.index_of(u)
            .is_some_and(|i| height_is_sink_at(csr, &self.heights, i))
    }

    fn enabled(&self) -> &[NodeId] {
        self.tracker.enabled()
    }

    fn plan_step(&self, u: NodeId, scratch: &mut StepScratch) -> StepOutcome {
        assert_ne!(u, self.dest(), "destination {u} never takes steps");
        let csr = self.init.csr();
        let ui = csr.index_of(u).expect("stepping node exists");
        assert!(
            height_is_sink_at(csr, &self.heights, ui),
            "reverse({u}) precondition: {u} must be a sink"
        );
        let nbrs = csr.neighbor_indices(ui);
        let raised = self.heights[ui].raised_above(nbrs.iter().map(|&v| self.heights[v as usize]));
        scratch.clear();
        for &v in nbrs {
            if self.heights[v as usize].alpha == raised.alpha - 1 {
                scratch.reversed.push(csr.node(v as usize));
            }
        }
        scratch.aux = PlanAux(raised.alpha, raised.beta);
        StepOutcome {
            node_idx: ui,
            reversal_count: scratch.reversed.len(),
            dummy: false,
        }
    }

    fn apply_planned(&mut self, u: NodeId, reversed: &[NodeId], aux: PlanAux) {
        let csr = Arc::clone(self.init.csr());
        let ui = csr.index_of(u).expect("planned node");
        let h = &mut self.heights[ui];
        h.alpha = aux.0;
        h.beta = aux.1;
        self.tracker.record_step(&csr, u, reversed);
    }

    fn orientation(&self) -> Orientation {
        height_orientation(self.init.csr(), &self.heights)
    }

    fn begin_round(&mut self) {
        self.tracker.begin_batch();
    }

    fn end_round(&mut self) {
        self.tracker.end_batch();
    }

    fn reset(&mut self) {
        self.heights = initial_triple_heights(&self.init);
        self.tracker = height_tracker(self.init.csr(), self.init.dest, &self.heights);
    }

    fn resident_bytes(&self) -> usize {
        let csr = self.init.csr();
        csr.resident_bytes()
            + self.heights.len() * std::mem::size_of::<TripleHeight>()
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

    #[test]
    fn heights_initially_match_orientation() {
        let inst = stream::random_connected(10, 8, 21);
        let pair = FrontierPairHeightsEngine::new(inst.clone());
        assert_eq!(&pair.orientation(), inst.init());
        let triple = FrontierTripleHeightsEngine::new(inst.clone());
        assert_eq!(&triple.orientation(), inst.init());
    }

    #[test]
    fn pair_step_flips_all_edges() {
        let mut e = FrontierPairHeightsEngine::new(stream::chain_away(4));
        let step = e.step(n(3));
        assert_eq!(step.reversed, vec![n(2)]);
        assert!(e.height(n(3)) > e.height(n(2)));
        assert!(!e.is_sink(n(3)));
    }

    #[test]
    fn triple_step_spares_already_raised_neighbors() {
        // Path 0(D) — 1 — 2 — 3 with edges 0 > 1, 1 > 2, 3 > 2: node 2 is
        // the initial sink, node 3 an initial source.
        let inst = lr_graph::parse::parse_instance("dest 0\n0 > 1\n1 > 2\n3 > 2").unwrap();
        let mut e = FrontierTripleHeightsEngine::new(inst.clone());
        // 2 steps: both neighbors have α = 0, so both edges flip.
        let s2 = e.step(n(2));
        assert_eq!(s2.reversed, vec![n(1), n(3)]);
        assert_eq!(e.height(n(2)).alpha, 1);
        // 3 is now a sink again (only edge 2 → 3): its neighbor 2 has the
        // minimum α = 1, so α_3 := 2 and the edge flips back.
        let s3 = e.step(n(3));
        assert_eq!(s3.reversed, vec![n(2)]);
        assert_eq!(e.height(n(3)).alpha, 2);
        // 1 is a sink (0 → 1 from the start, 2 → 1 since 2's step). Its
        // neighbors are 0 (α = 0) and 2 (α = 1): new α_1 = 1 TIES with
        // node 2, so β_1 drops below β_2 and **only** the edge to 0
        // flips — node 2, which already reversed toward 1, is spared.
        assert!(e.is_sink(n(1)));
        let s1 = e.step(n(1));
        assert_eq!(s1.reversed, vec![n(0)]);
        assert_eq!(e.height(n(1)).alpha, 1);
        assert_eq!(e.height(n(1)).beta, e.height(n(2)).beta - 1);
        assert!(e.height(n(2)) > e.height(n(1)), "edge 2 → 1 must survive");
    }

    #[test]
    fn heights_terminate_destination_oriented() {
        let inst = stream::grid_away(4, 5);
        let engines: [Box<dyn FrontierEngine>; 2] = [
            Box::new(FrontierPairHeightsEngine::new(inst.clone())),
            Box::new(FrontierTripleHeightsEngine::new(inst.clone())),
        ];
        for mut eng in engines {
            let mut steps = 0usize;
            while let Some(&u) = eng.enabled().first() {
                eng.step(u);
                steps += 1;
                assert!(steps < 1_000_000, "runaway");
            }
            let o = eng.orientation();
            assert!(
                o.is_destination_oriented(inst.dest),
                "{} must orient the grid",
                eng.algorithm_name()
            );
        }
    }

    #[test]
    fn initial_positions_put_every_initial_edge_left_to_right() {
        for seed in 0..6 {
            let inst = stream::random_connected(18, 14, 500 + seed);
            let pos = initial_positions(&inst);
            let mut sorted = pos.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..18).collect::<Vec<_>>(), "a permutation");
            let csr = inst.csr();
            for (t, h) in inst.init().directed_edges() {
                let (t, h) = (csr.index_of(t).unwrap(), csr.index_of(h).unwrap());
                assert!(pos[t] < pos[h], "seed {seed}: {t} → {h}");
            }
        }
    }

    #[test]
    fn frontier_heights_reset_restores_initial() {
        let mut e = FrontierTripleHeightsEngine::new(stream::grid_away(3, 4));
        let fresh = e.clone();
        let u = *e.enabled().first().unwrap();
        e.step(u);
        e.reset();
        assert_eq!(e.heights, fresh.heights);
        assert_eq!(e.enabled(), fresh.enabled());
    }

    #[test]
    #[should_panic(expected = "must be a sink")]
    fn triple_step_requires_sink() {
        let mut e = FrontierTripleHeightsEngine::new(stream::chain_away(3));
        e.step(n(1));
    }
}
