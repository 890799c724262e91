//! Differential properties of the million-node machinery: the
//! bit-packed direction words must be observably identical to a retained
//! reference on random connected instances, and every flat engine must
//! finish the pinned large instances.
//!
//! The falsified redundancy is the **bit-packed [`MirroredDirs`]**
//! against a retained `Vec<EdgeDir>` slot model across random mutation
//! sequences (including one-sided desyncs). Beside it sit the
//! million-node smokes, the engine-1m instance's pinned runs, and every
//! family's pinned `resident_bytes()`, on a grid and on a random instance
//! with gapped ids (`i ↦ 3·i + 2`).
//!
//! Each flat engine's step-for-step agreement with the paper's automata
//! is the lockstep suite's job (`tests/end_to_end.rs` at the workspace
//! root), and the one run loop's greedy rounds on gapped ids are
//! checked against an `is_sink` rescan by `tests/csr_differential.rs`.

use lr_core::alg::{BllLabeling, FrontierEngine, FrontierFamily, FrontierPrEngine};
use lr_core::engine::{run_engine_frontier, SchedulePolicy, DEFAULT_MAX_STEPS};
use lr_core::MirroredDirs;
use lr_graph::{stream, EdgeDir, NodeId, ReversalInstance};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn instance_strategy() -> impl Strategy<Value = ReversalInstance> {
    (4usize..=16, 0usize..=20, any::<u64>())
        .prop_map(|(n, extra, seed)| stream::random_connected(n, extra, seed))
}

/// Every frontier family: the six canonical families plus the
/// FR-labeled BLL variant.
fn all_families() -> [FrontierFamily; 7] {
    [
        FrontierFamily::FullReversal,
        FrontierFamily::PartialReversal,
        FrontierFamily::NewPr,
        FrontierFamily::PairHeights,
        FrontierFamily::TripleHeights,
        FrontierFamily::Bll(BllLabeling::PartialReversal),
        FrontierFamily::Bll(BllLabeling::FullReversal),
    ]
}

/// The id map of the gapped relabelling: monotone, so dense indices and
/// slots are unchanged.
fn gap(u: NodeId) -> NodeId {
    NodeId::new(3 * u.raw() + 2)
}

/// `inst` with every id relabelled by [`gap`].
fn gapped(inst: &ReversalInstance) -> ReversalInstance {
    let arcs: Vec<(u32, u32)> = inst
        .init()
        .directed_edges()
        .map(|(t, h)| (gap(t).raw(), gap(h).raw()))
        .collect();
    ReversalInstance::from_edges(&arcs, gap(inst.dest)).expect("a relabelled instance is valid")
}

/// The retained reference model for the packed words: one [`EdgeDir`]
/// per half-edge slot, mutated by the same operations.
struct SlotModel {
    dirs: Vec<EdgeDir>,
}

impl SlotModel {
    fn of(d: &MirroredDirs) -> Self {
        SlotModel {
            dirs: (0..d.len()).map(|s| d.dir_at(s)).collect(),
        }
    }

    fn reverse_outward_at(&mut self, csr: &lr_graph::CsrGraph, slot: usize) {
        self.dirs[slot] = EdgeDir::Out;
        self.dirs[csr.twin(slot)] = EdgeDir::In;
    }

    fn is_sink_at(&self, csr: &lr_graph::CsrGraph, idx: usize) -> bool {
        let r = csr.slots(idx);
        !r.is_empty() && r.clone().all(|s| self.dirs[s] == EdgeDir::In)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The packed words agree with the `Vec<EdgeDir>` slot model after
    /// every mutation of a random sequence of `reverse_outward_at` and
    /// one-sided desync/repair writes — on every accessor: `dir_at`,
    /// `is_sink_at`, the `sinks()` iterator, and `check_consistency`.
    #[test]
    fn bit_packed_dirs_match_slot_model(
        inst in instance_strategy(),
        seed in any::<u64>(),
    ) {
        let mut d = MirroredDirs::from_instance(&inst);
        let csr = std::sync::Arc::clone(d.csr());
        let mut model = SlotModel::of(&d);
        let mut rng = SmallRng::seed_from_u64(seed);
        for _ in 0..200 {
            let slot = rng.gen_range(0..csr.half_edge_count());
            let src = csr.source(slot);
            let (u, v) = (csr.node(src), csr.node(csr.target(slot)));
            match rng.gen_range(0..4u32) {
                0 | 1 => {
                    d.reverse_outward_at(slot);
                    model.reverse_outward_at(&csr, slot);
                }
                2 => {
                    // Desync one copy, check, then repair it the same way
                    // the model sees it.
                    let flipped = d.dir_at(slot).flipped();
                    d.set_one_sided(u, v, flipped);
                    model.dirs[slot] = flipped;
                }
                _ => {
                    let cur = d.dir_at(slot);
                    d.set_one_sided(u, v, cur);
                }
            }
            for s in 0..csr.half_edge_count() {
                prop_assert_eq!(d.dir_at(s), model.dirs[s], "slot {}", s);
            }
            let model_sinks: Vec<NodeId> = (0..csr.node_count())
                .filter(|&i| model.is_sink_at(&csr, i))
                .map(|i| csr.node(i))
                .collect();
            for i in 0..csr.node_count() {
                prop_assert_eq!(d.is_sink_at(i), model.is_sink_at(&csr, i));
            }
            prop_assert_eq!(d.sinks().collect::<Vec<_>>(), model_sinks);
            let model_consistent = (0..csr.half_edge_count())
                .all(|s| model.dirs[s] == model.dirs[csr.twin(s)].flipped());
            prop_assert_eq!(d.check_consistency().is_ok(), model_consistent);
        }
    }
}

/// The CSR-native postcondition check in `run_to_destination_oriented`
/// accepts a correct flat run.
#[test]
fn run_to_destination_oriented_on_flat_engine() {
    let mut e = FrontierPrEngine::new(stream::grid_away(8, 9));
    let stats = lr_core::engine::run_to_destination_oriented(
        &mut e,
        SchedulePolicy::GreedyRounds,
        DEFAULT_MAX_STEPS,
    );
    assert!(stats.terminated);
    assert_eq!(stats.algorithm, "PR");
}

/// The scale acceptance check at a CI-friendly size: a 65,536-node chain
/// and a 256×256 grid run to completion through the frontier loop with
/// the whole engine resident under 16 bytes per half-edge.
#[test]
fn frontier_engine_scale_smoke() {
    for (inst, label) in [
        (stream::chain_away(65_536), "chain"),
        (stream::grid_away(256, 256), "grid"),
    ] {
        let he = inst.half_edge_count();
        let mut e = FrontierPrEngine::new(inst);
        assert!(
            e.resident_bytes() <= 16 * he,
            "{label}: {} bytes for {he} half-edges",
            e.resident_bytes()
        );
        let stats = run_engine_frontier(&mut e, SchedulePolicy::GreedyRounds, DEFAULT_MAX_STEPS);
        assert!(stats.terminated, "{label} must terminate");
        assert!(e.dirs().check_consistency().is_ok());
    }
}

/// The million-node acceptance run for **every** family: each flat
/// engine completes a 1M-node instance inside the default step budget
/// through the frontier loop. The instance family is chosen per
/// algorithm so total work is Θ(n): FR and GB-pair are Θ(n²) on the
/// away-chain (each reversal re-enables the neighbor nearer the
/// destination), so they run on the star; the PR-side families run on
/// the away-chain. Multi-second in release — runs in the CI `--ignored`
/// tier.
#[test]
#[ignore = "million-node runs; multi-second in release, runs in the CI --ignored tier"]
fn million_node_runs_complete_for_every_family() {
    for family in all_families() {
        let star = matches!(
            family,
            FrontierFamily::FullReversal
                | FrontierFamily::PairHeights
                | FrontierFamily::Bll(BllLabeling::FullReversal)
        );
        let (inst, label) = if star {
            (stream::star_away(1_000_000), "star_away(1M)")
        } else {
            (stream::chain_away(1_000_000), "chain_away(1M)")
        };
        let mut e = family.engine(inst);
        let stats =
            run_engine_frontier(e.as_mut(), SchedulePolicy::GreedyRounds, DEFAULT_MAX_STEPS);
        assert!(
            stats.terminated,
            "{} on {label} must terminate within {DEFAULT_MAX_STEPS} steps (took {})",
            family.name(),
            stats.steps
        );
        assert!(e.resident_bytes() > 0, "{}", family.name());
    }
}

/// The million-node acceptance run: `chain_away(1_000_000)` and
/// `grid_away(1000, 1000)` complete inside the default step budget with
/// peak representation ≤ 16 bytes/half-edge. Multi-second in release —
/// runs in the CI `--ignored` tier.
#[test]
#[ignore = "million-node run; multi-second in release, runs in the CI --ignored tier"]
fn million_node_chain_and_grid_complete_within_default_budget() {
    for (inst, label) in [
        (stream::chain_away(1_000_000), "chain_away(1M)"),
        (stream::grid_away(1000, 1000), "grid_away(1000x1000)"),
    ] {
        let he = inst.half_edge_count();
        let mut e = FrontierPrEngine::new(inst);
        assert!(
            e.resident_bytes() <= 16 * he,
            "{label}: {} bytes for {he} half-edges exceeds 16 B/half-edge",
            e.resident_bytes()
        );
        let stats = run_engine_frontier(&mut e, SchedulePolicy::GreedyRounds, DEFAULT_MAX_STEPS);
        assert!(
            stats.terminated,
            "{label} must terminate within {DEFAULT_MAX_STEPS} steps (took {})",
            stats.steps
        );
        assert!(e.dirs().check_consistency().is_ok(), "{label}");
    }
}

/// The instance of the benchmark's `engine-1m` workload,
/// `random_connected(1_000_000, 1_000_000, 3)`, run by every family under
/// greedy rounds. Each run's `(steps, reversals, dummy steps, rounds)` is
/// pinned, so a change to the generator, an engine or the run loop shows
/// here rather than only as a benchmark digest that has to agree with
/// itself. The pairs the paper relates agree: FR with GB-pair, PR with
/// GB-triple and BLL[PR], and NewPR reverses PR's edges in more steps.
#[test]
#[ignore = "million-node runs; seconds in release, runs in the CI --ignored tier"]
fn the_engine_1m_instance_runs_are_pinned() {
    for family in FrontierFamily::ALL {
        let pinned = match family.name() {
            "FR" | "GB-pair" => (2_541_005, 9_825_084, 0, 34),
            "PR" | "GB-triple" | "BLL[PR]" => (2_346_049, 6_169_149, 0, 53),
            "NewPR" => (2_947_847, 6_169_149, 601_798, 57),
            other => panic!("no pinned run for {other}"),
        };
        let mut e = family.engine(stream::random_connected(1_000_000, 1_000_000, 3));
        let s = run_engine_frontier(e.as_mut(), SchedulePolicy::GreedyRounds, DEFAULT_MAX_STEPS);
        assert!(s.terminated, "{}", family.name());
        assert_eq!(
            (s.steps, s.total_reversals, s.dummy_steps, s.rounds),
            pinned,
            "{}: (steps, reversals, dummy, rounds)",
            family.name()
        );
    }
}

/// Every family's `resident_bytes()`, the number perfbench's
/// `core.bytes_per_half_edge.*` layers project, pinned exactly on a grid
/// and on a gapped random instance (whose CSR keeps its node table).
/// The values were written by the build before the engines shared one
/// shell, which moved the shared terms of the sum.
#[test]
fn resident_bytes_are_pinned_for_every_family() {
    let grid = stream::grid_away(32, 32);
    let random = gapped(&stream::random_connected(500, 700, 11));
    for family in all_families() {
        let pinned = match family.name() {
            "FR" => (45_028, 25_796),
            "PR" | "BLL[PR]" | "BLL[FR]" => (45_524, 26_100),
            "NewPR" => (53_220, 29_796),
            "GB-pair" => (52_724, 29_492),
            "GB-triple" => (60_916, 33_492),
            other => panic!("no pinned footprint for {other}"),
        };
        let got = (
            family.engine(grid.clone()).resident_bytes(),
            family.engine(random.clone()).resident_bytes(),
        );
        assert_eq!(got, pinned, "{}: (grid, gapped random)", family.name());
    }
}
