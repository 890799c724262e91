//! `NewPR` (Algorithm 2) — the paper's contribution: a static variant of
//! Partial Reversal.
//!
//! Instead of a dynamic `list[u]`, each node alternates between reversing
//! the edges to its **initial** in-neighbors and its **initial**
//! out-neighbors, tracked by the parity of `count[u]`, the number of steps
//! it has taken. With even parity the node reverses `in-nbrs_u`, with odd
//! parity `out-nbrs_u`.
//!
//! A node whose relevant set is empty (an initial sink stepping with even
//! parity, or an initial source stepping with odd parity) performs a
//! **dummy step**: it reverses nothing and just increments its counter
//! (§4.1). Dummy steps are what make the step-count invariants (4.1/4.2)
//! uniform across all nodes.

use lr_graph::{EdgeDir, NodeId, Orientation, ReversalInstance};
use lr_ioa::Automaton;

use crate::alg::{assert_may_step, may_step, Frontier, Rule};
use crate::{MirroredDirs, ReversalStep, StepScratch};

/// The parity of a node's step count — the derived variable `parity[u]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Parity {
    /// Even number of steps taken; next reversal targets `in-nbrs`.
    Even,
    /// Odd number of steps taken; next reversal targets `out-nbrs`.
    Odd,
}

/// `NewPR` state: edge directions plus the per-node step counter.
///
/// The counters are kept the way [`NewPrRule`] keeps them: `count[u]` is
/// entry `i` of a `Vec<u64>`, where `i` is `u`'s dense CSR index.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct NewPrState {
    /// The `dir[u, v]` variables.
    pub dirs: MirroredDirs,
    /// History variable `count[u]`: steps taken by `u`, initially 0, by
    /// dense index.
    counts: Vec<u64>,
}

impl NewPrState {
    /// The initial state: directions from the instance, all counts zero.
    pub fn initial(inst: &ReversalInstance) -> Self {
        NewPrState {
            dirs: MirroredDirs::from_instance(inst),
            counts: vec![0; inst.node_count()],
        }
    }

    /// The dense index of `u`.
    fn index(&self, u: NodeId) -> usize {
        self.dirs
            .csr()
            .index_of(u)
            .unwrap_or_else(|| panic!("no count for unknown node {u}"))
    }

    /// `count[u]`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is not a node of the instance.
    pub fn count(&self, u: NodeId) -> u64 {
        self.counts[self.index(u)]
    }

    /// `count[u]` for the node at dense index `ui`.
    pub(crate) fn count_at(&self, ui: usize) -> u64 {
        self.counts[ui]
    }

    /// Sets `count[u]` without a step.
    ///
    /// Only exists so tests can manufacture count corruptions; the
    /// algorithms never call it.
    ///
    /// # Panics
    ///
    /// Panics if `u` is not a node of the instance.
    #[doc(hidden)]
    pub fn set_count(&mut self, u: NodeId, count: u64) {
        let ui = self.index(u);
        self.counts[ui] = count;
    }

    /// The derived variable `parity[u]`.
    pub fn parity(&self, u: NodeId) -> Parity {
        if self.count(u).is_multiple_of(2) {
            Parity::Even
        } else {
            Parity::Odd
        }
    }
}

/// Applies the effect of `reverse(u)` exactly as written in Algorithm 2.
///
/// # Panics
///
/// Panics if `u` is the destination or not a sink.
pub fn newpr_step(inst: &ReversalInstance, state: &mut NewPrState, u: NodeId) -> ReversalStep {
    assert_may_step(inst, &state.dirs, u);
    let csr = inst.csr();
    let ui = state.index(u);
    // Even parity reverses the edges to in-nbrs_u, odd parity those to
    // out-nbrs_u: the slots whose initial bit reads in, or out. Neighbor
    // slots are ascending by id.
    let out_side = state.parity(u) == Parity::Odd;
    let mut reversed = Vec::new();
    for slot in csr.slots(ui) {
        if inst.init().is_out(slot) == out_side {
            reversed.push(csr.node(csr.target(slot)));
            state.dirs.reverse_outward_at(slot);
        }
    }
    state.counts[ui] += 1;
    let dummy = reversed.is_empty();
    ReversalStep {
        node: u,
        reversed,
        dummy,
    }
}

/// `NewPR`'s rule: the frozen `in-nbrs`/`out-nbrs` partition of §2 is
/// read straight off the instance's initial direction bits (one masked
/// read per slot), and the `count[u]` history variable is a dense
/// `Vec<u64>` by CSR index instead of a `BTreeMap`. A step whose
/// relevant set is empty reverses no slot: the §4.1 dummy step.
#[derive(Debug, Clone, Copy, Default)]
pub struct NewPrRule;

/// `NewPR` over a [`ReversalInstance`]: the engine shell around
/// [`NewPrRule`]. Step-for-step identical to [`NewPrAutomaton`] (the
/// lockstep suite), dummy steps included.
pub type FrontierNewPrEngine = Frontier<NewPrRule>;

impl FrontierNewPrEngine {
    /// The current bit-packed direction state.
    pub fn dirs(&self) -> &MirroredDirs {
        &self.state.0
    }
}

impl Rule for NewPrRule {
    /// The directions, and `count[u]` by dense CSR index (initially all
    /// zero).
    type State = (MirroredDirs, Vec<u64>);

    fn name(&self) -> &'static str {
        "NewPR"
    }

    fn initial(&self, inst: &ReversalInstance) -> Self::State {
        (
            MirroredDirs::from_instance(inst),
            vec![0; inst.node_count()],
        )
    }

    #[inline]
    fn is_sink_at(&self, _: &ReversalInstance, (dirs, _): &Self::State, ui: usize) -> bool {
        dirs.is_sink_at(ui)
    }

    #[inline]
    fn step(
        &self,
        inst: &ReversalInstance,
        (dirs, counts): &mut Self::State,
        ui: usize,
        scratch: &mut StepScratch,
    ) {
        // Even parity reverses the initial in-neighbors, odd parity the
        // initial out-neighbors (Algorithm 2) — the retained initial
        // bitset *is* the frozen partition.
        let want_initial_in = counts[ui].is_multiple_of(2);
        for slot in inst.csr().slots(ui) {
            if (inst.init().dir_at(slot) == EdgeDir::In) == want_initial_in {
                scratch.push(slot);
                dirs.reverse_outward_at(slot);
            }
        }
        counts[ui] += 1;
    }

    fn orientation(&self, _: &ReversalInstance, (dirs, _): &Self::State) -> Orientation {
        dirs.orientation()
    }

    fn state_bytes((dirs, counts): &Self::State) -> usize {
        dirs.resident_bytes() + counts.len() * 8
    }
}

/// `NewPR` as an I/O automaton with `reverse(u)` actions.
#[derive(Debug, Clone, Copy)]
pub struct NewPrAutomaton<'a> {
    /// The fixed instance.
    pub inst: &'a ReversalInstance,
}

impl Automaton for NewPrAutomaton<'_> {
    type State = NewPrState;
    type Action = NodeId;

    fn initial_state(&self) -> NewPrState {
        NewPrState::initial(self.inst)
    }

    fn enabled_actions(&self, state: &NewPrState) -> Vec<NodeId> {
        self.inst
            .csr()
            .nodes()
            .filter(|&u| may_step(self.inst, &state.dirs, u))
            .collect()
    }

    fn is_enabled(&self, state: &NewPrState, &u: &NodeId) -> bool {
        may_step(self.inst, &state.dirs, u)
    }

    fn apply(&self, state: &NewPrState, &u: &NodeId) -> NewPrState {
        let mut next = state.clone();
        newpr_step(self.inst, &mut next, u);
        next
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alg::FrontierEngine;
    use lr_graph::stream;
    use lr_ioa::{run, schedulers, Automaton};

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn even_parity_reverses_initial_in_nbrs() {
        let inst = stream::chain_away(3);
        let mut s = NewPrState::initial(&inst);
        assert_eq!(s.parity(n(2)), Parity::Even);
        // in-nbrs of node 2 = {1}; node 2 is a sink.
        let step = newpr_step(&inst, &mut s, n(2));
        assert_eq!(step.reversed, vec![n(1)]);
        assert!(!step.dummy);
        assert_eq!(s.count(n(2)), 1);
        assert_eq!(s.parity(n(2)), Parity::Odd);
    }

    #[test]
    fn odd_parity_reverses_initial_out_nbrs() {
        // Alternating chain 1 → 0(D), 1 → 2, 3 → 2, 3 → 4: node 3 is an
        // initial source, so it first dummy-steps (even parity, in-nbrs =
        // ∅) and then reverses its initial out-nbrs {2, 4} on odd parity.
        let inst = lr_graph::parse::parse_instance("dest 0\n1 > 0\n1 > 2\n3 > 2\n3 > 4").unwrap();
        let mut s = NewPrState::initial(&inst);
        newpr_step(&inst, &mut s, n(2)); // even: reverses in-nbrs(2) = {1, 3}
        newpr_step(&inst, &mut s, n(4)); // even: reverses in-nbrs(4) = {3}
        let dummy = newpr_step(&inst, &mut s, n(3)); // even, in-nbrs(3) = ∅
        assert!(dummy.dummy);
        let odd = newpr_step(&inst, &mut s, n(3)); // odd: out-nbrs(3) = {2, 4}
        assert!(!odd.dummy);
        assert_eq!(odd.reversed, vec![n(2), n(4)]);
        assert_eq!(s.count(n(3)), 2);
        assert_eq!(s.parity(n(3)), Parity::Even);
    }

    #[test]
    fn initial_source_performs_dummy_step_when_it_becomes_a_sink() {
        // Star centered on an initial sink 0 with the destination at leaf
        // 3: after 0's first step every leaf is a sink. Leaf 1 is an
        // *initial source* (in-nbrs = ∅), so its first step must be the
        // §4.1 dummy step: reverse nothing, flip parity only.
        let inst = lr_graph::parse::parse_instance("dest 3\n1 > 0\n2 > 0\n3 > 0").unwrap();
        let mut s = NewPrState::initial(&inst);

        // 0 is a sink with even parity: reverses in-nbrs {1, 2, 3}.
        let s1 = newpr_step(&inst, &mut s, n(0));
        assert_eq!(s1.reversed.len(), 3);
        assert!(!s1.dummy);

        // 1 is now a sink (its only edge 0 → 1 is incoming) with even
        // parity, but in-nbrs(1) = ∅ → dummy step.
        let s2 = newpr_step(&inst, &mut s, n(1));
        assert!(
            s2.dummy,
            "initial source stepping on even parity is a dummy"
        );
        assert_eq!(s2.reversed.len(), 0);
        assert_eq!(s.count(n(1)), 1);

        // Still a sink; with odd parity it reverses out-nbrs {0}.
        let s3 = newpr_step(&inst, &mut s, n(1));
        assert!(!s3.dummy);
        assert_eq!(s3.reversed, vec![n(0)]);
    }

    #[test]
    fn newpr_terminates_on_random_graphs() {
        for seed in 0..5 {
            let inst = stream::random_connected(12, 10, seed);
            let aut = NewPrAutomaton { inst: &inst };
            let exec = run(
                &aut,
                &mut schedulers::UniformRandom::seeded(seed),
                1_000_000,
            );
            assert!(
                aut.is_quiescent(exec.last_state()),
                "NewPR must terminate (seed {seed})"
            );
            let o = exec.last_state().dirs.orientation();
            assert!(o.is_destination_oriented(inst.dest));
        }
    }

    #[test]
    fn acyclic_in_every_state_on_random_run() {
        let inst = stream::random_connected(10, 8, 99);
        let aut = NewPrAutomaton { inst: &inst };
        let exec = run(&aut, &mut schedulers::UniformRandom::seeded(2), 100_000);
        for s in exec.states() {
            let o = s.dirs.orientation();
            assert!(o.is_acyclic());
        }
    }

    #[test]
    fn count_only_increments_for_stepping_node() {
        let inst = stream::chain_away(4);
        let aut = NewPrAutomaton { inst: &inst };
        let s0 = aut.initial_state();
        let s1 = aut.apply(&s0, &n(3));
        assert_eq!(s1.count(n(3)), 1);
        for u in [0u32, 1, 2] {
            assert_eq!(s1.count(n(u)), 0, "count[{u}] must be unchanged");
        }
    }

    #[test]
    #[should_panic(expected = "must be a sink")]
    fn step_requires_sink() {
        let inst = stream::chain_away(3);
        let mut s = NewPrState::initial(&inst);
        newpr_step(&inst, &mut s, n(1)); // node 1 has an outgoing edge
    }

    #[test]
    #[should_panic(expected = "never takes steps")]
    fn destination_never_steps() {
        let inst = stream::chain_toward(3); // dest 0 is a sink here
        let mut s = NewPrState::initial(&inst);
        newpr_step(&inst, &mut s, n(0));
    }

    #[test]
    fn frontier_newpr_dummy_steps_keep_the_node_enabled() {
        // Same topology as `initial_source_performs_dummy_step…`: after
        // the center steps, leaf 1 dummy-steps and must stay enabled.
        let inst = lr_graph::parse::parse_instance("dest 3\n1 > 0\n2 > 0\n3 > 0").unwrap();
        let mut e = FrontierNewPrEngine::new(inst.clone());
        e.step(n(0));
        assert!(e.enabled().contains(&n(1)));
        let dummy = e.step(n(1));
        assert!(dummy.dummy);
        assert!(e.enabled().contains(&n(1)), "dummy step keeps 1 enabled");
        let real = e.step(n(1));
        assert_eq!(real.reversed, vec![n(0)]);
    }
}
