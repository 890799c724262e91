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
//! once, in [`raised_alpha_beta`], the `(α, β)` core of
//! [`TripleHeight::raised_above`]: the GB-triple rule below and every
//! `lr-net` protocol (distributed PR, routing, election and the threaded
//! mode) step through the core.
//!
//! The two rules store heights **by dense CSR index** and without the
//! id: [`PairHeightsRule`] keeps `α` (8 bytes per node) and
//! [`TripleHeightsRule`] `(α, β)` (16 bytes per node). The
//! dense index is the tie-break. The CSR node table is sorted by id, so
//! comparing `(α, index)` orders nodes exactly as `(α, id)` does, and
//! every comparison, orientation and enabled set is the one the full
//! heights give. A full [`PairHeight`] or [`TripleHeight`] is built only
//! where one is asked for, by `height()`.

use std::sync::Arc;

use lr_graph::{CsrGraph, NodeId, Orientation, ReversalInstance};

use crate::alg::{Frontier, FrontierEngine, Rule};
use crate::StepScratch;

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
        let nbrs = nbrs.into_iter().map(|h| (h.alpha, h.beta));
        let (alpha, beta) = raised_alpha_beta(self.beta, nbrs);
        TripleHeight {
            alpha,
            beta,
            ..self
        }
    }
}

/// The rule of [`TripleHeight::raised_above`] on the `(α, β)` parts
/// alone, which is all it reads: the new `(α, β)` of a sink whose own
/// `β` is `beta` and whose neighbours have the `(α, β)` parts `nbrs`.
/// The GB-triple rule and `lr-net`'s protocols, which store no ids,
/// step through it directly.
///
/// # Panics
///
/// Panics if `nbrs` is empty (a sink has at least one neighbour).
#[inline]
pub fn raised_alpha_beta<I>(beta: i64, nbrs: I) -> (i64, i64)
where
    I: Iterator<Item = (i64, i64)> + Clone,
{
    let alpha = 1 + nbrs
        .clone()
        .map(|(a, _)| a)
        .min()
        .expect("a sink has at least one neighbour");
    let beta = nbrs
        .filter(|&(a, _)| a == alpha)
        .map(|(_, b)| b - 1)
        .min()
        .unwrap_or(beta);
    (alpha, beta)
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

/// Sink test shared by both height engines: every neighbor sits above.
/// `keys[i]` is the stored height of the node at dense index `i`, whose
/// tie-break is `i` itself.
fn height_is_sink_at<K: Ord + Copy>(csr: &CsrGraph, keys: &[K], idx: usize) -> bool {
    csr.degree(idx) > 0
        && csr
            .neighbor_indices(idx)
            .iter()
            .all(|&v| (keys[v as usize], v as usize) > (keys[idx], idx))
}

/// The orientation induced by total-order heights: each edge runs from
/// the higher endpoint to the lower.
fn height_orientation<K: Ord + Copy>(csr: &Arc<CsrGraph>, keys: &[K]) -> Orientation {
    Orientation::from_fn(Arc::clone(csr), |src, slot| {
        let dst = csr.target(slot);
        (keys[src], src) > (keys[dst], dst)
    })
}

/// The initial triple heights' `(α, β)` by dense CSR index: `α = 0`,
/// `β_u = −x(u)`.
fn initial_alpha_betas(inst: &ReversalInstance) -> Vec<(i64, i64)> {
    initial_positions(inst)
        .into_iter()
        .map(|x| (0, -(x as i64)))
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
    initial_alpha_betas(inst)
        .into_iter()
        .zip(inst.csr().nodes())
        .map(|((alpha, beta), id)| TripleHeight { alpha, beta, id })
        .collect()
}

/// Full Reversal via pair heights: `α` by dense CSR index, with the
/// index as the tie-break (see the module docs). The initial
/// coordinates come from the Kahn order in `initial_positions`, with
/// `α_u = n − 1 − x(u)`, so initial edges (left → right) run from higher
/// to lower height. A sink sets `α := 1 + max α` of its neighbors and
/// rises above all of them.
#[derive(Debug, Clone, Copy, Default)]
pub struct PairHeightsRule;

/// Pair heights over a [`ReversalInstance`]: the engine shell around
/// [`PairHeightsRule`]. Step-for-step identical to
/// [`crate::alg::FullReversalAutomaton`] (the lockstep suite).
pub type FrontierPairHeightsEngine = Frontier<PairHeightsRule>;

impl FrontierPairHeightsEngine {
    /// The current height of a node.
    ///
    /// # Panics
    ///
    /// Panics if `u` is not a node of the instance.
    pub fn height(&self, u: NodeId) -> PairHeight {
        let i = self.instance().csr().index_of(u).expect("known node");
        PairHeight {
            alpha: self.state[i],
            id: u,
        }
    }
}

impl Rule for PairHeightsRule {
    /// `α` by dense CSR index.
    type State = Vec<i64>;

    fn name(&self) -> &'static str {
        "GB-pair"
    }

    fn initial(&self, inst: &ReversalInstance) -> Vec<i64> {
        let n = inst.node_count() as i64;
        initial_positions(inst)
            .into_iter()
            .map(|x| n - 1 - x as i64)
            .collect()
    }

    #[inline]
    fn is_sink_at(&self, inst: &ReversalInstance, alphas: &Vec<i64>, ui: usize) -> bool {
        height_is_sink_at(inst.csr(), alphas, ui)
    }

    #[inline]
    fn step(
        &self,
        inst: &ReversalInstance,
        alphas: &mut Vec<i64>,
        ui: usize,
        scratch: &mut StepScratch,
    ) {
        let csr = inst.csr();
        let max_alpha = csr
            .neighbor_indices(ui)
            .iter()
            .map(|&v| alphas[v as usize])
            .max()
            .expect("sink has at least one neighbor");
        for slot in csr.slots(ui) {
            scratch.push(slot);
        }
        alphas[ui] = max_alpha + 1;
    }

    fn orientation(&self, inst: &ReversalInstance, alphas: &Vec<i64>) -> Orientation {
        height_orientation(inst.csr(), alphas)
    }

    fn state_bytes(alphas: &Vec<i64>) -> usize {
        alphas.len() * std::mem::size_of::<i64>()
    }
}

/// Partial Reversal via triple heights, the triple-height twin of
/// [`PairHeightsRule`]: `(α, β)` by dense CSR index, starting from
/// `α = 0` and `β_u = −x(u)`. A sink steps through
/// [`raised_alpha_beta`] and reverses the edges to its neighbors at the
/// new `α − 1`, the lowest ones.
#[derive(Debug, Clone, Copy, Default)]
pub struct TripleHeightsRule;

/// Triple heights over a [`ReversalInstance`]: the engine shell around
/// [`TripleHeightsRule`]. Step-for-step identical to
/// [`crate::alg::OneStepPrAutomaton`] (the lockstep suite).
pub type FrontierTripleHeightsEngine = Frontier<TripleHeightsRule>;

impl FrontierTripleHeightsEngine {
    /// The current height of a node.
    ///
    /// # Panics
    ///
    /// Panics if `u` is not a node of the instance.
    pub fn height(&self, u: NodeId) -> TripleHeight {
        let (alpha, beta) = self.state[self.instance().csr().index_of(u).expect("known node")];
        TripleHeight { alpha, beta, id: u }
    }
}

impl Rule for TripleHeightsRule {
    /// `(α, β)` by dense CSR index.
    type State = Vec<(i64, i64)>;

    fn name(&self) -> &'static str {
        "GB-triple"
    }

    fn initial(&self, inst: &ReversalInstance) -> Vec<(i64, i64)> {
        initial_alpha_betas(inst)
    }

    #[inline]
    fn is_sink_at(&self, inst: &ReversalInstance, heights: &Vec<(i64, i64)>, ui: usize) -> bool {
        height_is_sink_at(inst.csr(), heights, ui)
    }

    #[inline]
    fn step(
        &self,
        inst: &ReversalInstance,
        heights: &mut Vec<(i64, i64)>,
        ui: usize,
        scratch: &mut StepScratch,
    ) {
        let csr = inst.csr();
        let nbrs = csr.neighbor_indices(ui);
        let (alpha, beta) =
            raised_alpha_beta(heights[ui].1, nbrs.iter().map(|&v| heights[v as usize]));
        for (slot, &v) in csr.slots(ui).zip(nbrs) {
            if heights[v as usize].0 == alpha - 1 {
                scratch.push(slot);
            }
        }
        heights[ui] = (alpha, beta);
    }

    fn orientation(&self, inst: &ReversalInstance, heights: &Vec<(i64, i64)>) -> Orientation {
        height_orientation(inst.csr(), heights)
    }

    fn state_bytes(heights: &Vec<(i64, i64)>) -> usize {
        heights.len() * std::mem::size_of::<(i64, i64)>()
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
        // The engines seed their trackers from the initial bits, which is
        // sound only because the initial heights induce the same
        // orientation.
        for inst in [
            stream::random_connected(10, 8, 21),
            stream::random_connected(200, 300, 4),
            stream::grid_away(5, 7),
        ] {
            let sinks: Vec<NodeId> = inst
                .init()
                .sinks()
                .into_iter()
                .filter(|&u| u != inst.dest)
                .collect();
            let pair = FrontierPairHeightsEngine::new(inst.clone());
            assert_eq!(&pair.orientation(), inst.init());
            assert_eq!(pair.enabled(), sinks);
            let triple = FrontierTripleHeightsEngine::new(inst.clone());
            assert_eq!(&triple.orientation(), inst.init());
            assert_eq!(triple.enabled(), sinks);
        }
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
        assert_eq!(e.state, fresh.state);
        assert_eq!(e.enabled(), fresh.enabled());
    }

    #[test]
    #[should_panic(expected = "must be a sink")]
    fn triple_step_requires_sink() {
        let mut e = FrontierTripleHeightsEngine::new(stream::chain_away(3));
        e.step(n(1));
    }
}
