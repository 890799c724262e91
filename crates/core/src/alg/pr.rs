//! Partial Reversal in its list-based forms: the paper's Algorithm 1
//! (`PR`, set-valued `reverse(S)` actions) and Algorithm 3 (`OneStepPR`,
//! single-node `reverse(u)` actions).
//!
//! Each node `u` keeps `list[u]` — the neighbors that took a step since
//! the last time `u` took a step. A stepping sink reverses the edges to
//! the neighbors **not** in its list, unless the list contains *all*
//! neighbors, in which case it reverses everything; the list is then
//! emptied, and `u` is appended to the list of every neighbor whose edge
//! was reversed.

use std::collections::BTreeSet;
use std::sync::Arc;

use lr_graph::{NodeId, Orientation, ReversalInstance};
use lr_ioa::Automaton;

use crate::alg::{assert_may_step, may_step, Frontier, Rule};
use crate::dirs::{all_word_masks, word_bit};
use crate::{MirroredDirs, ReversalStep, StepScratch};

/// Shared state of `PR` and `OneStepPR`: edge directions plus `list[u]`.
///
/// The lists are kept the way [`PrRule`] keeps them: one bit per
/// half-edge slot, set for the slot of `(u, v)` iff `v ∈ list[u]`, so
/// `list[u]` is the bits of `u`'s slot range. Padding bits past the last
/// slot stay zero, so the derived `Eq` and `Hash` compare exactly the
/// directions and the lists.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PrState {
    /// The `dir[u, v]` variables.
    pub dirs: MirroredDirs,
    /// `list[u]` for every node, one bit per slot; initially all clear.
    lists: Vec<u64>,
}

impl PrState {
    /// The initial state: directions from the instance, all lists empty.
    pub fn initial(inst: &ReversalInstance) -> Self {
        PrState {
            dirs: MirroredDirs::from_instance(inst),
            lists: vec![0; inst.half_edge_count().div_ceil(64)],
        }
    }

    /// The members of `list[u]`, ascending.
    ///
    /// # Panics
    ///
    /// Panics if `u` is not a node of the instance.
    pub fn list(&self, u: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        let csr = self.dirs.csr();
        csr.slots(self.index(u))
            .filter(|&slot| self.listed_at(slot))
            .map(|slot| csr.node(csr.target(slot)))
    }

    /// Whether `list[u]` lies within one side of `u`'s initial
    /// neighbours: `list[u] ⊆ out-nbrs_u` when `out`, else `list[u] ⊆
    /// in-nbrs_u`. Read off the slot bits: every listed slot of `u` has
    /// the initial direction `out` in `inst`, this state's instance.
    ///
    /// # Panics
    ///
    /// Panics if `u` is not a node of the instance.
    pub fn list_within_initial(&self, inst: &ReversalInstance, u: NodeId, out: bool) -> bool {
        self.dirs
            .csr()
            .slots(self.index(u))
            .all(|slot| !self.listed_at(slot) || inst.init().is_out(slot) == out)
    }

    /// Whether `list[u] = t.list[u]` for every node `u`, for two states
    /// of one instance: their list bits agree word for word.
    pub fn same_lists(&self, t: &PrState) -> bool {
        self.lists == t.lists
    }

    /// Puts `v` into `list[u]` without a step.
    ///
    /// Only exists so tests can manufacture list corruptions; the
    /// algorithms never call it.
    ///
    /// # Panics
    ///
    /// Panics if `{u, v}` is not an edge.
    #[doc(hidden)]
    pub fn insert_into_list(&mut self, u: NodeId, v: NodeId) {
        let csr = self.dirs.csr();
        let slot = csr
            .index_of(u)
            .zip(csr.index_of(v))
            .and_then(|(ui, vi)| csr.slot_of(ui, vi))
            .unwrap_or_else(|| panic!("no edge between {u} and {v}"));
        self.set_listed_at(slot, true);
    }

    /// The dense index of `u`.
    fn index(&self, u: NodeId) -> usize {
        self.dirs
            .csr()
            .index_of(u)
            .unwrap_or_else(|| panic!("no list for unknown node {u}"))
    }

    /// Whether the slot of `(u, v)` is listed: `v ∈ list[u]`.
    pub(crate) fn listed_at(&self, slot: usize) -> bool {
        let (w, m) = word_bit(slot);
        self.lists[w] & m != 0
    }

    fn set_listed_at(&mut self, slot: usize, listed: bool) {
        let (w, m) = word_bit(slot);
        if listed {
            self.lists[w] |= m;
        } else {
            self.lists[w] &= !m;
        }
    }
}

/// Applies the effect of `reverse(u)` exactly as written in Algorithm 1/3
/// for a single node `u`.
///
/// # Panics
///
/// Panics if `u` is the destination or not a sink (the action's
/// precondition).
pub fn onestep_pr_step(inst: &ReversalInstance, state: &mut PrState, u: NodeId) -> ReversalStep {
    assert_may_step(inst, &state.dirs, u);
    let csr = Arc::clone(state.dirs.csr());
    let ui = csr.index_of(u).expect("sink is a node");
    // Reverse the neighbors not in `list[u]` — unless the list holds
    // *all* neighbors, in which case everything reverses — and add `u` to
    // each reversed neighbor's list, the bit of the twin slot. Neighbor
    // slots are ascending by id. The selection reads only `list[u]` and
    // the additions write only other nodes' lists, so each selected edge
    // is reversed outward and recorded as it is selected.
    let list_is_full = csr.slots(ui).all(|slot| state.listed_at(slot));
    let mut targets = Vec::with_capacity(csr.degree(ui));
    for slot in csr.slots(ui) {
        if list_is_full || !state.listed_at(slot) {
            targets.push(csr.node(csr.target(slot)));
            state.dirs.reverse_outward_at(slot);
            state.set_listed_at(csr.twin(slot), true);
        }
    }
    // Empty `list[u]`.
    for slot in csr.slots(ui) {
        state.set_listed_at(slot, false);
    }
    ReversalStep {
        node: u,
        reversed: targets,
        dummy: false,
    }
}

/// Applies the effect of the set action `reverse(S)` of Algorithm 1.
///
/// Because no two sinks are ever adjacent, the per-node effects touch
/// disjoint edges and the sequential application below is exactly the
/// paper's simultaneous assignment.
///
/// # Panics
///
/// Panics if `set` is empty, contains the destination, or contains a
/// non-sink.
pub fn pr_reverse_set(
    inst: &ReversalInstance,
    state: &mut PrState,
    set: &BTreeSet<NodeId>,
) -> Vec<ReversalStep> {
    assert!(!set.is_empty(), "reverse(S) requires S ≠ ∅");
    // Check the whole precondition before mutating anything, so the
    // effect is all-or-nothing like an automaton transition.
    for &u in set {
        assert_may_step(inst, &state.dirs, u);
    }
    set.iter()
        .map(|&u| onestep_pr_step(inst, state, u))
        .collect()
}

/// `OneStepPR` (Algorithm 3) as an I/O automaton with `reverse(u)`
/// actions.
#[derive(Debug, Clone, Copy)]
pub struct OneStepPrAutomaton<'a> {
    /// The fixed instance.
    pub inst: &'a ReversalInstance,
}

impl Automaton for OneStepPrAutomaton<'_> {
    type State = PrState;
    type Action = NodeId;

    fn initial_state(&self) -> PrState {
        PrState::initial(self.inst)
    }

    fn enabled_actions(&self, state: &PrState) -> Vec<NodeId> {
        self.inst
            .csr()
            .nodes()
            .filter(|&u| may_step(self.inst, &state.dirs, u))
            .collect()
    }

    fn is_enabled(&self, state: &PrState, &u: &NodeId) -> bool {
        may_step(self.inst, &state.dirs, u)
    }

    fn apply(&self, state: &PrState, &u: &NodeId) -> PrState {
        let mut next = state.clone();
        onestep_pr_step(self.inst, &mut next, u);
        next
    }
}

/// The set action `reverse(S)` of Algorithm 1.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ReverseSet(pub BTreeSet<NodeId>);

/// `PR` (Algorithm 1) as an I/O automaton whose actions are **sets** of
/// simultaneously-stepping sinks.
///
/// `enabled_actions` enumerates every nonempty subset of the current
/// non-destination sinks, which is exponential in the sink count — this
/// automaton exists for model checking small instances and for the R′
/// simulation relation; large-scale runs use
/// [`crate::alg::FrontierPrEngine`].
#[derive(Debug, Clone, Copy)]
pub struct PrSetAutomaton<'a> {
    /// The fixed instance.
    pub inst: &'a ReversalInstance,
}

impl Automaton for PrSetAutomaton<'_> {
    type State = PrState;
    type Action = ReverseSet;

    fn initial_state(&self) -> PrState {
        PrState::initial(self.inst)
    }

    fn enabled_actions(&self, state: &PrState) -> Vec<ReverseSet> {
        let sinks: Vec<NodeId> = self
            .inst
            .csr()
            .nodes()
            .filter(|&u| may_step(self.inst, &state.dirs, u))
            .collect();
        assert!(
            sinks.len() <= 16,
            "PrSetAutomaton enumerates 2^sinks actions; use FrontierPrEngine for large instances"
        );
        let mut out = Vec::new();
        for mask in 1u32..(1 << sinks.len()) {
            let set: BTreeSet<NodeId> = sinks
                .iter()
                .enumerate()
                .filter(|(i, _)| mask >> i & 1 == 1)
                .map(|(_, &u)| u)
                .collect();
            out.push(ReverseSet(set));
        }
        out
    }

    fn is_enabled(&self, state: &PrState, action: &ReverseSet) -> bool {
        !action.0.is_empty()
            && action
                .0
                .iter()
                .all(|&u| may_step(self.inst, &state.dirs, u))
    }

    fn apply(&self, state: &PrState, action: &ReverseSet) -> PrState {
        let mut next = state.clone();
        pr_reverse_set(self.inst, &mut next, &action.0);
        next
    }
}

/// `OneStepPR`'s rule (Algorithm 3) over bit-packed state: the
/// `list[u]` sets are one bit per half-edge slot, set for slot `(u, v)`
/// iff `v ∈ list[u]`. The paper only ever asks "is neighbor `v` in
/// `list[u]`?" and "is the list full?", both masked word reads over
/// `u`'s slot range. Same target selection and list bookkeeping as
/// [`onestep_pr_step`].
#[derive(Debug, Clone, Copy, Default)]
pub struct PrRule;

/// `OneStepPR` over a [`ReversalInstance`]: the engine shell around
/// [`PrRule`]. Step-for-step identical to [`OneStepPrAutomaton`] (the
/// lockstep suite).
pub type FrontierPrEngine = Frontier<PrRule>;

impl FrontierPrEngine {
    /// The current bit-packed direction state.
    pub fn dirs(&self) -> &MirroredDirs {
        &self.state.0
    }
}

impl Rule for PrRule {
    /// The directions, and the `list[u]` bits (initially all clear:
    /// Algorithms 1 and 3 start with empty lists).
    type State = (MirroredDirs, Vec<u64>);

    fn name(&self) -> &'static str {
        "PR"
    }

    fn initial(&self, inst: &ReversalInstance) -> Self::State {
        let list = vec![0; inst.half_edge_count().div_ceil(64)];
        (MirroredDirs::from_instance(inst), list)
    }

    #[inline]
    fn is_sink_at(&self, _: &ReversalInstance, (dirs, _): &Self::State, ui: usize) -> bool {
        dirs.is_sink_at(ui)
    }

    #[inline]
    fn step(
        &self,
        inst: &ReversalInstance,
        (dirs, list): &mut Self::State,
        ui: usize,
        scratch: &mut StepScratch,
    ) {
        // The rule of `onestep_pr_step`: reverse the neighbors not in
        // `list[u]`, unless the list holds all of them, in which case
        // reverse everything; record u in each reversed neighbor's list
        // (the twin slot's bit), and afterwards empty list[u]. Neighbor
        // slots are ascending by id, and the twins lie outside u's range.
        let csr = inst.csr();
        let r = csr.slots(ui);
        let list_is_full = all_word_masks(r.clone(), |w, m| list[w] & m == m);
        for slot in r.clone() {
            let (w, m) = word_bit(slot);
            if list_is_full || list[w] & m == 0 {
                scratch.push(slot);
                dirs.reverse_outward_at(slot);
                let (w, m) = word_bit(csr.twin(slot));
                list[w] |= m;
            }
        }
        all_word_masks(r, |w, m| {
            list[w] &= !m;
            true
        });
    }

    fn orientation(&self, _: &ReversalInstance, (dirs, _): &Self::State) -> Orientation {
        dirs.orientation()
    }

    fn state_bytes((dirs, list): &Self::State) -> usize {
        dirs.resident_bytes() + list.len() * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alg::FrontierEngine;
    use crate::engine::{run_engine_frontier, SchedulePolicy, DEFAULT_MAX_STEPS};
    use lr_graph::stream;
    use lr_ioa::{run, schedulers, Automaton, Scheduler};
    use std::collections::BTreeMap;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn engine_first_step_with_empty_list_reverses_everything() {
        let mut e = FrontierPrEngine::new(stream::chain_away(3));
        let step = e.step(n(2));
        assert_eq!(step.reversed, vec![n(1)]);
        assert!(!e.is_sink(n(2)));
    }

    #[test]
    fn engine_spares_list_members() {
        let mut e = FrontierPrEngine::new(stream::chain_away(4));
        e.step(n(3)); // list[2] = {3}
        let step = e.step(n(2)); // spares 3
        assert_eq!(step.reversed, vec![n(1)]);
    }

    #[test]
    fn engine_reset_restores_the_initial_state() {
        let mut e = FrontierPrEngine::new(stream::grid_away(4, 5));
        let fresh = e.clone();
        run_engine_frontier(&mut e, SchedulePolicy::GreedyRounds, DEFAULT_MAX_STEPS);
        assert!(e.is_terminated());
        e.reset();
        assert_eq!(e.dirs(), fresh.dirs());
        assert_eq!(e.state.1, fresh.state.1);
        assert_eq!(e.enabled(), fresh.enabled());
    }

    #[test]
    fn engine_resident_bytes_stays_within_the_scale_budget() {
        let e = FrontierPrEngine::new(stream::grid_away(32, 32));
        let he = 2 * (2 * 32 * 31); // grid edge count × 2
        assert!(
            e.resident_bytes() <= 16 * he,
            "{} bytes for {} half-edges",
            e.resident_bytes(),
            he
        );
    }

    #[test]
    fn first_step_with_empty_list_reverses_everything() {
        let inst = stream::chain_away(3);
        let mut s = PrState::initial(&inst);
        // Node 2 is a sink with an empty list: list ≠ nbrs, so it
        // reverses nbrs \ ∅ = all incident edges.
        let step = onestep_pr_step(&inst, &mut s, n(2));
        assert_eq!(step.reversed, vec![n(1)]);
        // Node 1's list now records that 2 reversed.
        assert_eq!(s.list(n(1)).collect::<Vec<_>>(), [n(2)]);
        assert_eq!(s.list(n(2)).count(), 0);
    }

    #[test]
    fn list_members_are_spared() {
        // chain_away(4): 0 -> 1 -> 2 -> 3, dest 0.
        let inst = stream::chain_away(4);
        let mut s = PrState::initial(&inst);
        onestep_pr_step(&inst, &mut s, n(3)); // 3 reverses {2,3}; list[2] = {3}
        onestep_pr_step(&inst, &mut s, n(2)); // list[2]={3} ≠ nbrs{1,3}: reverse only 1
        assert!(!s.dirs.is_sink(n(3)));
        // Edge {2,3} still points 3 -> 2 (2 spared it).
        assert!(
            s.dirs.orientation().points_from_to(n(3), n(2)),
            "edge to list member must not be reversed"
        );
        // list[2] emptied after its step.
        assert_eq!(s.list(n(2)).count(), 0);
    }

    #[test]
    fn full_list_reverses_all() {
        // 0 is dest; edges 1-0, 1-2 both pointing away from 1.
        let inst = lr_graph::parse::parse_instance("dest 0\n1 > 0\n1 > 2").unwrap();
        let aut = OneStepPrAutomaton { inst: &inst };
        // 0 is dest (sink, never steps); 2 is the only enabled sink. It
        // reverses {1,2}, so list[1] = {2}.
        let s = aut.apply(&aut.initial_state(), &n(2));
        // 1 -> 0 still; 2 -> 1 now: 1 has in from 2, out to 0. Terminated.
        assert!(aut.is_quiescent(&s));
        let o = s.dirs.orientation();
        assert!(o.is_destination_oriented(inst.dest));
    }

    #[test]
    #[should_panic(expected = "must be a sink")]
    fn step_requires_sink() {
        let inst = stream::chain_away(3);
        let mut s = PrState::initial(&inst);
        onestep_pr_step(&inst, &mut s, n(1));
    }

    #[test]
    #[should_panic(expected = "S ≠ ∅")]
    fn set_action_requires_nonempty() {
        let inst = stream::chain_away(3);
        let mut s = PrState::initial(&inst);
        pr_reverse_set(&inst, &mut s, &BTreeSet::new());
    }

    #[test]
    fn set_action_equals_sequential_singletons() {
        let inst = stream::star_away(4); // sinks: 1,2,3,4 (dest is center 0)
        let set: BTreeSet<NodeId> = [n(1), n(3)].into();
        let mut a = PrState::initial(&inst);
        pr_reverse_set(&inst, &mut a, &set);
        let mut b = PrState::initial(&inst);
        onestep_pr_step(&inst, &mut b, n(1));
        onestep_pr_step(&inst, &mut b, n(3));
        assert_eq!(a, b);
        // And in the other order, because sinks are never adjacent.
        let mut c = PrState::initial(&inst);
        onestep_pr_step(&inst, &mut c, n(3));
        onestep_pr_step(&inst, &mut c, n(1));
        assert_eq!(a, c);
    }

    #[test]
    fn set_automaton_enumerates_all_nonempty_subsets() {
        let inst = stream::star_away(3); // 3 sinks
        let aut = PrSetAutomaton { inst: &inst };
        let actions = aut.enabled_actions(&aut.initial_state());
        assert_eq!(actions.len(), 7); // 2^3 - 1
        for a in &actions {
            assert!(aut.is_enabled(&aut.initial_state(), a));
        }
    }

    #[test]
    fn onestep_automaton_runs_to_quiescence() {
        let inst = stream::random_connected(9, 6, 17);
        let aut = OneStepPrAutomaton { inst: &inst };
        let exec = run(&aut, &mut schedulers::UniformRandom::seeded(5), 100_000);
        assert!(aut.is_quiescent(exec.last_state()), "PR must terminate");
        assert!(exec.validate(&aut).is_ok());
        let o = exec.last_state().dirs.orientation();
        assert!(o.is_destination_oriented(inst.dest));
    }

    #[test]
    fn lists_equal_the_lists_recomputed_from_the_steps() {
        // The oracle replays each step's `ReversalStep`: reversing toward
        // `v` adds the stepping node to `list[v]`, and a step empties the
        // stepping node's list. After every step of seeded random
        // executions it must equal every `list(u)`.
        for seed in 0..60u64 {
            let nodes = 2 + (seed % 19) as usize;
            let inst = stream::random_connected(nodes, nodes, 3_000 + seed);
            let aut = OneStepPrAutomaton { inst: &inst };
            let mut sched = schedulers::UniformRandom::seeded(seed);
            let mut s = aut.initial_state();
            let mut oracle: BTreeMap<NodeId, BTreeSet<NodeId>> =
                inst.csr().nodes().map(|u| (u, BTreeSet::new())).collect();
            for steps in 0.. {
                for (&u, list) in &oracle {
                    assert!(
                        s.list(u).eq(list.iter().copied()),
                        "seed {seed}, after {steps} steps: list[{u}] = {:?}, expected {list:?}",
                        s.list(u).collect::<Vec<_>>()
                    );
                }
                let enabled = aut.enabled_actions(&s);
                if enabled.is_empty() {
                    break;
                }
                let i = Scheduler::<OneStepPrAutomaton>::choose(&mut sched, &s, &enabled)
                    .expect("the scheduler never stops");
                let step = onestep_pr_step(&inst, &mut s, enabled[i]);
                for v in &step.reversed {
                    oracle.get_mut(v).expect("a node").insert(step.node);
                }
                oracle.get_mut(&step.node).expect("a node").clear();
            }
        }
    }

    #[test]
    fn the_list_side_predicate_agrees_with_the_neighbour_sets() {
        // Along seeded random executions, and on a copy of each state
        // with one neighbour forced into a list, `list_within_initial`
        // must equal `list[u] ⊆ out-nbrs_u` (or `⊆ in-nbrs_u`) computed
        // from the id lists.
        let (mut within, mut outside) = (0usize, 0usize);
        for seed in 0..40u64 {
            let nodes = 2 + (seed % 11) as usize;
            let inst = stream::random_connected(nodes, nodes, 5_000 + seed);
            let aut = OneStepPrAutomaton { inst: &inst };
            let mut sched = schedulers::UniformRandom::seeded(seed);
            let mut s = aut.initial_state();
            for steps in 0usize.. {
                let mut corrupt = s.clone();
                let u = inst.csr().node(steps % nodes);
                let v = inst.csr().neighbors(u).nth(steps % 3).unwrap_or(u);
                if v != u {
                    corrupt.insert_into_list(u, v);
                }
                for state in [&s, &corrupt] {
                    for u in inst.csr().nodes() {
                        for out in [false, true] {
                            let side = if out {
                                inst.initial_out_nbrs(u)
                            } else {
                                inst.initial_in_nbrs(u)
                            };
                            let want = state.list(u).all(|v| side.contains(&v));
                            assert_eq!(
                                state.list_within_initial(&inst, u, out),
                                want,
                                "seed {seed}, step {steps}, node {u}, out {out}"
                            );
                            *if want { &mut within } else { &mut outside } += 1;
                        }
                    }
                }
                let enabled = aut.enabled_actions(&s);
                if enabled.is_empty() {
                    break;
                }
                let i = Scheduler::<OneStepPrAutomaton>::choose(&mut sched, &s, &enabled)
                    .expect("the scheduler never stops");
                onestep_pr_step(&inst, &mut s, enabled[i]);
            }
        }
        assert!(within > 1_000 && outside > 1_000, "{within} / {outside}");
    }
}
