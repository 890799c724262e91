//! The family registry and the flat Partial Reversal engine.
//!
//! [`FrontierFamily`] is the one enum naming the algorithm families;
//! [`FrontierFamily::engine`] builds each family's
//! [`FrontierEngine`], the only engine of its family:
//!
//! | family | engine | flat per-node/per-slot state |
//! |---|---|---|
//! | FR | [`super::FrontierFrEngine`] | directions only |
//! | PR | [`FrontierPrEngine`] | `list[u]` as one bit per slot |
//! | NewPR | [`super::FrontierNewPrEngine`] | reversal counts as `Vec<u64>` |
//! | GB-pair | [`super::FrontierPairHeightsEngine`] | `α` by dense index as `Vec<i64>` |
//! | GB-triple | [`super::FrontierTripleHeightsEngine`] | `(α, β)` by dense index as `Vec<(i64, i64)>` |
//! | BLL | [`super::FrontierBllEngine`] | link labels as one bit per slot |
//!
//! [`FrontierPrEngine`] implements the exact transition function of
//! Algorithm 3 (`OneStepPR`, see [`super::pr`]) — same target selection,
//! same list bookkeeping, same `"PR"` name in reports — over a
//! [`ReversalInstance`]:
//!
//! * edge directions are the bit-packed [`MirroredDirs`] (1 bit per
//!   half-edge slot, twin bit updated in the same pass);
//! * the per-node `list[u]` sets are **also** one bit per half-edge
//!   slot: the bit of slot `(u, v)` is set iff `v ∈ list[u]` — the paper
//!   only ever asks "is neighbor `v` in `list[u]`?" and "is the list
//!   full?", both of which are masked word reads over `u`'s slot range;
//! * the enabled set is the incremental [`EnabledTracker`], whose batch
//!   merge is the greedy-round boundary for
//!   [`crate::engine::run_engine_frontier`].
//!
//! Nothing in any engine's steady state is proportional to anything but
//! the CSR arrays (≈ 8 bytes/half-edge) and a few bitsets and per-node
//! words (≈ 0.4 bytes/half-edge + ~8–24 bytes/node), so a
//! 1,000,000-node instance runs in tens of megabytes. The oracle is the
//! paper's own automata: the lockstep suite (`tests/end_to_end.rs` at
//! the workspace root) runs FR, GB-pair and BLL\[FR\] beside
//! [`super::FullReversalAutomaton`], PR, GB-triple and BLL\[PR\] beside
//! [`super::OneStepPrAutomaton`], and NewPR beside
//! [`super::NewPrAutomaton`], comparing enabled sets and orientations
//! at every step.

use lr_graph::{NodeId, Orientation, ReversalInstance};

use crate::alg::{
    debug_check_planned, BllLabeling, FrontierBllEngine, FrontierEngine, FrontierFrEngine,
    FrontierNewPrEngine, FrontierPairHeightsEngine, FrontierTripleHeightsEngine,
};
use crate::{EnabledTracker, MirroredDirs, PlanAux, StepOutcome, StepScratch};

/// The algorithm families, one flat engine each: the paper's Full
/// Reversal, Partial Reversal and NewPR, the two Gafni–Bertsekas height
/// formulations, and Binary Link Labels under either labeling rule.
///
/// [`FrontierFamily::engine`] builds the family's flat engine; the CLI
/// and every report name a family by [`FrontierFamily::name`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum FrontierFamily {
    /// Full Reversal → [`super::FrontierFrEngine`].
    FullReversal,
    /// Partial Reversal (Algorithm 1/3) → [`FrontierPrEngine`].
    PartialReversal,
    /// NewPR (Algorithm 2) → [`super::FrontierNewPrEngine`].
    NewPr,
    /// Gafni–Bertsekas pair heights → [`super::FrontierPairHeightsEngine`].
    PairHeights,
    /// Gafni–Bertsekas triple heights → [`super::FrontierTripleHeightsEngine`].
    TripleHeights,
    /// Binary link labels with the given labeling rule →
    /// [`super::FrontierBllEngine`].
    Bll(BllLabeling),
}

impl FrontierFamily {
    /// Every family, with `BLL[PR]` as the canonical BLL entry (the
    /// `BLL[FR]` labeling shares the engine type and is covered by the
    /// lockstep suite separately).
    pub const ALL: [FrontierFamily; 6] = [
        FrontierFamily::FullReversal,
        FrontierFamily::PartialReversal,
        FrontierFamily::NewPr,
        FrontierFamily::PairHeights,
        FrontierFamily::TripleHeights,
        FrontierFamily::Bll(BllLabeling::PartialReversal),
    ];

    /// The display name, identical to what the engines report via
    /// [`FrontierEngine::algorithm_name`] (and so to what lands in
    /// [`crate::engine::RunStats::algorithm`]).
    pub fn name(self) -> &'static str {
        match self {
            FrontierFamily::FullReversal => "FR",
            FrontierFamily::PartialReversal => "PR",
            FrontierFamily::NewPr => "NewPR",
            FrontierFamily::PairHeights => "GB-pair",
            FrontierFamily::TripleHeights => "GB-triple",
            FrontierFamily::Bll(BllLabeling::PartialReversal) => "BLL[PR]",
            FrontierFamily::Bll(BllLabeling::FullReversal) => "BLL[FR]",
        }
    }

    /// Constructs this family's flat engine in the initial state of
    /// `inst` — the one execution substrate every run goes through.
    pub fn engine(self, inst: ReversalInstance) -> Box<dyn FrontierEngine> {
        let engine: Box<dyn FrontierEngine> = match self {
            FrontierFamily::FullReversal => Box::new(FrontierFrEngine::new(inst)),
            FrontierFamily::PartialReversal => Box::new(FrontierPrEngine::new(inst)),
            FrontierFamily::NewPr => Box::new(FrontierNewPrEngine::new(inst)),
            FrontierFamily::PairHeights => Box::new(FrontierPairHeightsEngine::new(inst)),
            FrontierFamily::TripleHeights => Box::new(FrontierTripleHeightsEngine::new(inst)),
            FrontierFamily::Bll(labeling) => Box::new(FrontierBllEngine::new(inst, labeling)),
        };
        observe_engine_build(self.name(), engine.as_ref());
        engine
    }
}

/// Records build-time gauges (steady-state resident footprint, graph
/// extent) and an instant trace marker for a freshly built flat
/// engine. Costs one relaxed load when no obs session is recording;
/// the engine's step path is untouched either way.
fn observe_engine_build(family: &'static str, engine: &dyn FrontierEngine) {
    if !lr_obs::enabled() {
        return;
    }
    let csr = engine.instance().csr();
    let resident = engine.resident_bytes() as u64;
    lr_obs::gauge("engine.resident_bytes").record_max(resident);
    lr_obs::gauge("engine.nodes").record_max(csr.node_count() as u64);
    lr_obs::gauge("engine.half_edges").record_max(csr.half_edge_count() as u64);
    lr_obs::instant(
        "engine",
        format!("engine.build {family}"),
        &[
            ("resident_bytes", resident),
            ("nodes", csr.node_count() as u64),
            ("half_edges", csr.half_edge_count() as u64),
        ],
    );
}

/// Pops (counts) the set bits of `words` within slot range `start..end`.
pub(crate) fn count_bits_in_range(words: &[u64], start: usize, end: usize) -> usize {
    if start >= end {
        return 0;
    }
    let (w0, w1) = (start >> 6, (end - 1) >> 6);
    let lo = !0u64 << (start & 63);
    let hi = !0u64 >> (63 - ((end - 1) & 63));
    if w0 == w1 {
        (words[w0] & lo & hi).count_ones() as usize
    } else {
        (words[w0] & lo).count_ones() as usize
            + (words[w1] & hi).count_ones() as usize
            + words[w0 + 1..w1]
                .iter()
                .map(|&w| w.count_ones() as usize)
                .sum::<usize>()
    }
}

/// Clears every bit of `words` within slot range `start..end`.
pub(crate) fn clear_bits_in_range(words: &mut [u64], start: usize, end: usize) {
    if start >= end {
        return;
    }
    let (w0, w1) = (start >> 6, (end - 1) >> 6);
    let lo = !0u64 << (start & 63);
    let hi = !0u64 >> (63 - ((end - 1) & 63));
    if w0 == w1 {
        words[w0] &= !(lo & hi);
    } else {
        words[w0] &= !lo;
        words[w1] &= !hi;
        for w in &mut words[w0 + 1..w1] {
            *w = 0;
        }
    }
}

/// Sets every bit of `words` within slot range `start..end`.
pub(crate) fn set_bits_in_range(words: &mut [u64], start: usize, end: usize) {
    if start >= end {
        return;
    }
    let (w0, w1) = (start >> 6, (end - 1) >> 6);
    let lo = !0u64 << (start & 63);
    let hi = !0u64 >> (63 - ((end - 1) & 63));
    if w0 == w1 {
        words[w0] |= lo & hi;
    } else {
        words[w0] |= lo;
        words[w1] |= hi;
        for w in &mut words[w0 + 1..w1] {
            *w = !0;
        }
    }
}

/// `OneStepPR` (Algorithm 3) over a [`ReversalInstance`]: bit-packed
/// directions, bit-packed lists, incremental enabled set.
#[derive(Debug, Clone)]
pub struct FrontierPrEngine {
    /// The initial configuration, retained for [`FrontierEngine::reset`]
    /// (an `Arc`'d CSR plus one bit per half-edge — cheap to keep).
    init: ReversalInstance,
    dirs: MirroredDirs,
    /// `list[u] ∋ v` ⟺ the bit of slot `(u, v)` is set. Initially all
    /// clear (Algorithm 1/3 start with empty lists).
    list: Vec<u64>,
    tracker: EnabledTracker,
}

impl FrontierPrEngine {
    /// Creates the engine in the initial state of `inst`.
    pub fn new(inst: ReversalInstance) -> Self {
        let dirs = MirroredDirs::from_instance(&inst);
        let list = vec![0u64; inst.half_edge_count().div_ceil(64)];
        let tracker = EnabledTracker::from_dirs(&dirs, inst.dest);
        FrontierPrEngine {
            init: inst,
            dirs,
            list,
            tracker,
        }
    }

    /// The current bit-packed direction state.
    pub fn dirs(&self) -> &MirroredDirs {
        &self.dirs
    }

    /// Whether `v` (a slot of `u`'s range) is in `list[u]`.
    #[inline]
    fn list_has(&self, slot: usize) -> bool {
        self.list[slot >> 6] >> (slot & 63) & 1 == 1
    }

    fn is_sink_at(&self, idx: usize) -> bool {
        self.dirs.is_sink_at(idx)
    }
}

impl FrontierEngine for FrontierPrEngine {
    fn instance(&self) -> &ReversalInstance {
        &self.init
    }

    fn algorithm_name(&self) -> &'static str {
        "PR"
    }

    fn is_sink(&self, u: NodeId) -> bool {
        self.dirs.is_sink(u)
    }

    fn enabled(&self) -> &[NodeId] {
        self.tracker.enabled()
    }

    fn plan_step(&self, u: NodeId, scratch: &mut StepScratch) -> StepOutcome {
        assert_ne!(u, self.dest(), "destination {u} never takes steps");
        let csr = self.init.csr();
        let ui = csr.index_of(u).expect("stepping node exists");
        assert!(
            self.is_sink_at(ui),
            "reverse({u}) precondition: {u} must be a sink"
        );
        // The exact rule of `pr_select_targets`: reverse the neighbors
        // not in `list[u]`, unless the list holds all of them, in which
        // case reverse everything. Neighbor slots are ascending by id.
        let r = csr.slots(ui);
        let list_is_full = count_bits_in_range(&self.list, r.start, r.end) == csr.degree(ui);
        scratch.clear();
        for slot in r {
            if list_is_full || !self.list_has(slot) {
                scratch.push(slot);
            }
        }
        StepOutcome {
            node_idx: ui,
            reversal_count: scratch.slots.len(),
            dummy: false,
        }
    }

    fn apply_planned(&mut self, ui: usize, slots: &[u32], _aux: PlanAux) {
        let csr = self.init.csr();
        debug_check_planned(csr, ui, slots);
        // The three effects of `pr_apply_targets`: reverse each planned
        // edge (both copies), record u in the reversed neighbor's list
        // (the twin slot's bit), and — afterwards — empty list[u].
        for &slot in slots {
            let slot = slot as usize;
            self.dirs.reverse_outward_at(slot);
            let twin = csr.twin(slot);
            self.list[twin >> 6] |= 1 << (twin & 63);
        }
        let r = csr.slots(ui);
        clear_bits_in_range(&mut self.list, r.start, r.end);
        self.tracker.record_step(csr, ui, slots);
    }

    fn orientation(&self) -> Orientation {
        self.dirs.orientation()
    }

    fn begin_round(&mut self) {
        self.tracker.begin_batch();
    }

    fn end_round(&mut self) {
        self.tracker.end_batch(self.init.csr());
    }

    fn reset(&mut self) {
        self.dirs = MirroredDirs::from_instance(&self.init);
        self.list.fill(0);
        self.tracker = EnabledTracker::from_dirs(&self.dirs, self.init.dest);
    }

    /// The shared CSR arrays, the direction and list bitsets, the
    /// retained initial bitset, and the tracker's per-node out-counts.
    fn resident_bytes(&self) -> usize {
        let csr = self.init.csr();
        csr.resident_bytes()
            + self.dirs.resident_bytes()
            + self.list.len() * 8
            + self.init.half_edge_count().div_ceil(64) * 8
            + csr.node_count() * 4 // tracker out-counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{run_engine_frontier, SchedulePolicy, DEFAULT_MAX_STEPS};
    use lr_graph::stream;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn bit_range_helpers_agree_with_naive_loops() {
        let mut words = vec![0u64; 4];
        for slot in [0usize, 3, 63, 64, 127, 128, 200, 255] {
            words[slot >> 6] |= 1 << (slot & 63);
        }
        let naive = |w: &[u64], a: usize, b: usize| {
            (a..b).filter(|&s| w[s >> 6] >> (s & 63) & 1 == 1).count()
        };
        for (a, b) in [
            (0, 256),
            (0, 1),
            (3, 64),
            (63, 65),
            (64, 128),
            (5, 200),
            (10, 10),
        ] {
            assert_eq!(
                count_bits_in_range(&words, a, b),
                naive(&words, a, b),
                "{a}..{b}"
            );
        }
        let mut cleared = words.clone();
        clear_bits_in_range(&mut cleared, 63, 129);
        for s in 0..256 {
            let expect = if (63..129).contains(&s) {
                0
            } else {
                words[s >> 6] >> (s & 63) & 1
            };
            assert_eq!(cleared[s >> 6] >> (s & 63) & 1, expect, "slot {s}");
        }
        let mut set = words.clone();
        set_bits_in_range(&mut set, 62, 130);
        for s in 0..256 {
            let expect = if (62..130).contains(&s) {
                1
            } else {
                words[s >> 6] >> (s & 63) & 1
            };
            assert_eq!(set[s >> 6] >> (s & 63) & 1, expect, "slot {s}");
        }
        let mut one = words.clone();
        set_bits_in_range(&mut one, 130, 131);
        assert_eq!(one[2] >> 2 & 1, 1);
    }

    #[test]
    fn family_names_are_distinct_and_match_engine_reports() {
        for family in FrontierFamily::ALL {
            let e = family.engine(stream::chain_away(4));
            assert_eq!(e.algorithm_name(), family.name());
            assert_eq!(e.instance().node_count(), 4);
            assert!(e.resident_bytes() > 0);
        }
        assert_eq!(
            FrontierFamily::Bll(BllLabeling::FullReversal).name(),
            "BLL[FR]"
        );
        let names: std::collections::BTreeSet<_> =
            FrontierFamily::ALL.iter().map(|f| f.name()).collect();
        assert_eq!(names.len(), FrontierFamily::ALL.len());
    }

    #[test]
    fn first_step_with_empty_list_reverses_everything() {
        let mut e = FrontierPrEngine::new(stream::chain_away(3));
        let step = e.step(n(2));
        assert_eq!(step.reversed, vec![n(1)]);
        assert!(!e.is_sink(n(2)));
    }

    #[test]
    fn list_members_are_spared() {
        let mut e = FrontierPrEngine::new(stream::chain_away(4));
        e.step(n(3)); // list[2] = {3}
        let step = e.step(n(2)); // spares 3
        assert_eq!(step.reversed, vec![n(1)]);
    }

    #[test]
    fn reset_restores_the_initial_state() {
        let mut e = FrontierPrEngine::new(stream::grid_away(4, 5));
        let fresh = e.clone();
        run_engine_frontier(&mut e, SchedulePolicy::GreedyRounds, DEFAULT_MAX_STEPS);
        assert!(e.is_terminated());
        e.reset();
        assert_eq!(e.dirs(), fresh.dirs());
        assert_eq!(e.enabled(), fresh.enabled());
    }

    #[test]
    fn resident_bytes_stays_within_the_scale_budget() {
        let e = FrontierPrEngine::new(stream::grid_away(32, 32));
        let he = 2 * (2 * 32 * 31); // grid edge count × 2
        assert!(
            e.resident_bytes() <= 16 * he,
            "{} bytes for {} half-edges",
            e.resident_bytes(),
            he
        );
    }
}
