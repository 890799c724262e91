//! Cross-crate integration: every algorithm × every generator family ×
//! every scheduling policy terminates in an acyclic, destination-oriented
//! graph, and every flat engine runs in lockstep with the paper's
//! automaton for its family — the automata are the engines' oracle.

use link_reversal::prelude::*;
use proptest::prelude::*;

fn families() -> Vec<(&'static str, ReversalInstance)> {
    vec![
        ("chain_away", stream::chain_away(17)),
        ("chain_toward", stream::chain_toward(17)),
        ("alternating_chain", stream::alternating_chain(17)),
        ("star_away", stream::star_away(9)),
        ("binary_tree_away", stream::binary_tree_away(2)),
        ("grid_away", stream::grid_away(4, 5)),
        ("complete_away", stream::complete_away(9)),
        ("layered", stream::layered(4, 4, 0.5, 11)),
        ("random_sparse", stream::random_connected(20, 5, 21)),
        ("random_dense", stream::random_connected(20, 60, 22)),
    ]
}

#[test]
fn every_algorithm_orients_every_family_under_every_policy() {
    let policies = [
        SchedulePolicy::GreedyRounds,
        SchedulePolicy::RandomSingle { seed: 77 },
        SchedulePolicy::FirstSingle,
        SchedulePolicy::LastSingle,
    ];
    for (name, inst) in families() {
        for family in FrontierFamily::ALL {
            for policy in policies {
                let mut engine = family.engine(inst.clone());
                let stats = run_to_destination_oriented(engine.as_mut(), policy, DEFAULT_MAX_STEPS);
                assert!(
                    stats.terminated,
                    "{} did not terminate on {name} under {policy:?}",
                    family.name()
                );
            }
        }
    }
}

#[test]
fn final_work_is_schedule_sensitive_but_bounded() {
    // PR's total work varies across schedules but always stays within the
    // Θ(n_b²) bound family-wise.
    let inst = stream::alternating_chain(33);
    let nb = inst.initial_bad_nodes();
    for policy in [
        SchedulePolicy::GreedyRounds,
        SchedulePolicy::RandomSingle { seed: 5 },
        SchedulePolicy::FirstSingle,
    ] {
        let mut e = FrontierFamily::PartialReversal.engine(inst.clone());
        let stats = run_engine_frontier(e.as_mut(), policy, DEFAULT_MAX_STEPS);
        assert!(stats.terminated);
        assert!(
            stats.total_reversals <= nb * nb + nb,
            "work {} exceeds quadratic bound for nb = {nb}",
            stats.total_reversals
        );
    }
}

#[test]
fn acyclicity_holds_in_every_intermediate_state() {
    // Drive each algorithm one step at a time and check acyclicity and
    // mirror-consistency at every prefix.
    let inst = stream::random_connected(14, 12, 33);
    for family in FrontierFamily::ALL {
        let mut engine = family.engine(inst.clone());
        let mut guard = 0;
        loop {
            let o = engine.orientation();
            assert!(o.is_acyclic(), "{} broke acyclicity", family.name());
            let Some(&u) = engine.enabled().first() else {
                break;
            };
            engine.step(u);
            guard += 1;
            assert!(guard < 1_000_000);
        }
        let o = engine.orientation();
        assert!(o.is_destination_oriented(inst.dest));
    }
}

/// The paper's automaton a flat engine must track step for step.
#[derive(Debug, Clone, Copy)]
enum Oracle {
    /// `FullReversalAutomaton`.
    Fr,
    /// `OneStepPrAutomaton` (Algorithm 3).
    OneStepPr,
    /// `NewPrAutomaton` (Algorithm 2).
    NewPr,
}

/// One row per engine configuration. GB-pair and BLL[FR] reverse exactly
/// Full Reversal's sets and GB-triple and BLL[PR] exactly Partial
/// Reversal's, so three automata cover all seven.
const LOCKSTEP: [(FrontierFamily, Oracle); 7] = [
    (FrontierFamily::FullReversal, Oracle::Fr),
    (FrontierFamily::PairHeights, Oracle::Fr),
    (FrontierFamily::Bll(BllLabeling::FullReversal), Oracle::Fr),
    (FrontierFamily::PartialReversal, Oracle::OneStepPr),
    (FrontierFamily::TripleHeights, Oracle::OneStepPr),
    (
        FrontierFamily::Bll(BllLabeling::PartialReversal),
        Oracle::OneStepPr,
    ),
    (FrontierFamily::NewPr, Oracle::NewPr),
];

/// Runs `family`'s flat engine beside `oracle` on `inst`, stepping the
/// node `pick(enabled, k)` chooses at step `k`: equal enabled sets before
/// every step, equal orientations after it.
fn lockstep(
    label: &str,
    inst: &ReversalInstance,
    (family, oracle): (FrontierFamily, Oracle),
    pick: impl Fn(&[NodeId], usize) -> NodeId,
) {
    let label = format!("{label}/{}", family.name());
    match oracle {
        Oracle::Fr => {
            let aut = FullReversalAutomaton { inst };
            track(&label, inst, family, &aut, |s| s.dirs.orientation(), pick);
        }
        Oracle::OneStepPr => {
            let aut = OneStepPrAutomaton { inst };
            track(&label, inst, family, &aut, |s| s.dirs.orientation(), pick);
        }
        Oracle::NewPr => {
            let aut = NewPrAutomaton { inst };
            track(&label, inst, family, &aut, |s| s.dirs.orientation(), pick);
        }
    }
}

fn track<A: Automaton<Action = NodeId>>(
    label: &str,
    inst: &ReversalInstance,
    family: FrontierFamily,
    aut: &A,
    orientation: impl Fn(&A::State) -> Orientation,
    pick: impl Fn(&[NodeId], usize) -> NodeId,
) {
    let mut engine = family.engine(inst.clone());
    let mut state = aut.initial_state();
    for k in 0.. {
        let enabled = aut.enabled_actions(&state);
        assert_eq!(engine.enabled(), enabled, "{label}: before step {k}");
        if enabled.is_empty() {
            return;
        }
        let u = pick(&enabled, k);
        engine.step(u);
        state = aut.apply(&state, &u);
        assert_eq!(
            engine.orientation(),
            orientation(&state),
            "{label}: after step {k} ({u})"
        );
        assert!(k < 1_000_000, "{label}: runaway execution");
    }
}

/// Every engine configuration tracks its automaton on every generator
/// family, and on the n = 30 and n = 40 random instances of the E11
/// experiment, under first and last picks.
#[test]
fn automata_and_engines_trace_identically() {
    let mut instances = families();
    instances.push(("random_30", stream::random_connected(30, 35, 555)));
    for seed in 0..3 {
        instances.push(("random_40", stream::random_connected(40, 50, 1234 + seed)));
    }
    for (name, inst) in &instances {
        for row in LOCKSTEP {
            lockstep(&format!("{name}/first"), inst, row, |e, _| e[0]);
            lockstep(&format!("{name}/last"), inst, row, |e, _| e[e.len() - 1]);
        }
    }
}

/// Runs the flat engines of families `a` and `b` under one schedule
/// (`pick` from their common enabled set): equal enabled sets and equal
/// reversed sets at every step, equal orientations at the end.
fn same_reversals(
    inst: &ReversalInstance,
    a: FrontierFamily,
    b: FrontierFamily,
    pick: impl Fn(&[NodeId]) -> NodeId,
) {
    let label = format!("{} vs {}", a.name(), b.name());
    let mut a = a.engine(inst.clone());
    let mut b = b.engine(inst.clone());
    for k in 0.. {
        assert_eq!(a.enabled(), b.enabled(), "{label}: before step {k}");
        if a.enabled().is_empty() {
            break;
        }
        let u = pick(a.enabled());
        assert_eq!(
            a.step(u).reversed,
            b.step(u).reversed,
            "{label}: step {k} ({u})"
        );
        assert!(k < 1_000_000, "{label}: runaway execution");
    }
    assert_eq!(
        a.orientation(),
        b.orientation(),
        "{label}: final orientation"
    );
}

#[test]
fn height_formulations_match_list_formulations_on_large_graphs() {
    // E11 at integration scale: identical schedules must produce
    // identical orientations at every step.
    for seed in 0..3 {
        let inst = stream::random_connected(40, 50, 1234 + seed);
        let first = |e: &[NodeId]| e[0];
        same_reversals(
            &inst,
            FrontierFamily::PartialReversal,
            FrontierFamily::TripleHeights,
            first,
        );
        same_reversals(
            &inst,
            FrontierFamily::FullReversal,
            FrontierFamily::PairHeights,
            first,
        );
    }
}

#[test]
fn bll_instantiations_match_their_targets_at_scale() {
    let inst = stream::random_connected(30, 35, 555);
    let last = |e: &[NodeId]| e[e.len() - 1];
    for (labeling, target) in [
        (
            BllLabeling::PartialReversal,
            FrontierFamily::PartialReversal,
        ),
        (BllLabeling::FullReversal, FrontierFamily::FullReversal),
    ] {
        same_reversals(&inst, FrontierFamily::Bll(labeling), target, last);
    }
}

/// The id map of the gapped relabelling: monotone, so dense indices,
/// slots and every order are unchanged and only the ids have gaps.
fn gap(u: NodeId) -> NodeId {
    NodeId::new(3 * u.raw() + 2)
}

/// `inst` with every id relabelled by [`gap`], through the validating
/// constructor a parsed instance goes through.
fn gapped(inst: &ReversalInstance) -> ReversalInstance {
    let arcs: Vec<(u32, u32)> = inst
        .init()
        .directed_edges()
        .map(|(t, h)| (gap(t).raw(), gap(h).raw()))
        .collect();
    ReversalInstance::from_edges(&arcs, gap(inst.dest)).expect("a relabelled instance is valid")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The same lockstep on random connected instances under a seeded
    /// rotation through the enabled set, and on their gapped copies,
    /// whose ids differ from the dense indices. Each family's runs on
    /// the gapped copy report the unrelabelled run's `RunStats` and end
    /// in its orientation under the id map.
    #[test]
    fn automata_and_engines_trace_identically_on_random_instances(
        n in 4usize..=16,
        extra in 0usize..=20,
        seed in any::<u64>(),
    ) {
        let inst = stream::random_connected(n, extra, seed);
        let spaced = gapped(&inst);
        let pick = |e: &[NodeId], k: usize| e[(seed as usize).wrapping_add(k) % e.len()];
        for row in LOCKSTEP {
            lockstep("random", &inst, row, pick);
            lockstep("gapped", &spaced, row, pick);
            for policy in [
                SchedulePolicy::GreedyRounds,
                SchedulePolicy::FirstSingle,
                SchedulePolicy::RandomSingle { seed },
            ] {
                let mut plain = row.0.engine(inst.clone());
                let mut twin = row.0.engine(spaced.clone());
                let stats = run_engine_frontier(plain.as_mut(), policy, DEFAULT_MAX_STEPS);
                let twin_stats = run_engine_frontier(twin.as_mut(), policy, DEFAULT_MAX_STEPS);
                prop_assert_eq!(&twin_stats, &stats, "{} under {:?}", row.0.name(), policy);
                let edges: Vec<(NodeId, NodeId)> = plain
                    .orientation()
                    .directed_edges()
                    .map(|(t, h)| (gap(t), gap(h)))
                    .collect();
                let twin_edges: Vec<(NodeId, NodeId)> =
                    twin.orientation().directed_edges().collect();
                prop_assert_eq!(twin_edges, edges, "{} under {:?}", row.0.name(), policy);
            }
        }
    }
}

#[test]
fn destination_never_steps_anywhere() {
    for (name, inst) in families() {
        for family in FrontierFamily::ALL {
            let mut engine = family.engine(inst.clone());
            let stats = run_engine_frontier(
                engine.as_mut(),
                SchedulePolicy::RandomSingle { seed: 1 },
                DEFAULT_MAX_STEPS,
            );
            let dest_idx = engine.csr().index_of(inst.dest).expect("dest is a node");
            assert_eq!(
                stats.work[dest_idx],
                0,
                "destination stepped in {} on {name}",
                family.name()
            );
        }
    }
}
