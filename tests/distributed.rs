//! Integration tests for the distributed layer: the message-passing
//! protocol's outcomes must agree with the centralized theory — same
//! destination-orientation guarantee, work within the same bounds — and
//! the applications must keep their invariants under churn.

use link_reversal::core::alg::FrontierFamily;
use link_reversal::core::engine::{run_engine_frontier, SchedulePolicy, DEFAULT_MAX_STEPS};
use link_reversal::graph::{stream, NodeId};
use link_reversal::net::election::ElectionHarness;
use link_reversal::net::live::run_threaded;
use link_reversal::net::mutex::MutexHarness;
use link_reversal::net::reversal::{
    converge, height_snapshot, orientation_from_heights, DistributedPr,
};
use link_reversal::net::routing::RoutingHarness;
use link_reversal::net::sim::{EventSim, LinkConfig};

#[test]
fn distributed_convergence_matches_theory_guarantees() {
    for seed in 0..4 {
        let inst = stream::random_connected(25, 25, 6000 + seed);
        let sim = converge(&inst, LinkConfig::default(), seed, 10_000_000);
        let o = orientation_from_heights(inst.init().directed_edges(), &height_snapshot(&sim));
        assert!(o.is_acyclic());
        assert!(o.is_destination_oriented(inst.dest));
        // Work bound: the distributed schedule is an admissible PR
        // schedule, so the Θ(n_b²) ceiling applies.
        let nb = inst.initial_bad_nodes() as u64;
        let total: u64 = sim.nodes().map(|(_, n)| n.reversals).sum();
        assert!(total <= (nb + 1) * (nb + 1) + inst.node_count() as u64);
    }
}

#[test]
fn distributed_work_is_invariant_to_message_timing_on_trees() {
    // On trees, PR reversal sets are schedule-independent, so any two
    // timing regimes must do identical total work — and so must the
    // threaded mode and the flat engines. Four runs of the one height
    // rule (two simulated timings, real threads, GB-triple) and PR's
    // list formulation agree on every tree depth.
    let work =
        |sim: &EventSim<DistributedPr>| -> u64 { sim.nodes().map(|(_, n)| n.reversals).sum() };
    let engine_steps = |family: FrontierFamily, d: usize| -> u64 {
        let mut engine = family.engine(stream::binary_tree_away(d));
        run_engine_frontier(
            engine.as_mut(),
            SchedulePolicy::GreedyRounds,
            DEFAULT_MAX_STEPS,
        )
        .steps as u64
    };
    for (d, expected) in [(1, 6), (2, 14), (3, 30), (4, 62)] {
        let inst = stream::binary_tree_away(d);
        let calm = converge(&inst, LinkConfig::default(), 1, 10_000_000);
        let wild = converge(
            &inst,
            LinkConfig {
                delay: 5,
                jitter: 20,
                loss: 0.0,
            },
            99,
            10_000_000,
        );
        let all = [
            work(&calm),
            work(&wild),
            run_threaded(&inst).reversals,
            engine_steps(FrontierFamily::TripleHeights, d),
            engine_steps(FrontierFamily::PartialReversal, d),
        ];
        assert_eq!(
            all, [expected; 5],
            "depth {d}: simulator ×2, threads, GB-triple, PR"
        );
    }
}

#[test]
fn threaded_work_equals_partial_reversal_steps_on_random_graphs() {
    // Heights only rise and each channel is FIFO, so a node that sees
    // every neighbour above it is a true sink: every threaded step is a
    // Partial Reversal step, and a node's PR work is the same under every
    // schedule. Real threads therefore do exactly the engine's work on
    // any graph, not only on trees.
    for n in [12usize, 20, 40, 60] {
        for extra in [0, n / 2, 2 * n] {
            for seed in 9000..9010 {
                let inst = stream::random_connected(n, extra, seed);
                let threaded = run_threaded(&inst).reversals;
                let mut engine = FrontierFamily::PartialReversal.engine(inst);
                let steps = run_engine_frontier(
                    engine.as_mut(),
                    SchedulePolicy::GreedyRounds,
                    DEFAULT_MAX_STEPS,
                )
                .steps as u64;
                assert_eq!(threaded, steps, "random_connected({n}, {extra}, {seed})");
            }
        }
    }
}

#[test]
fn threaded_and_simulated_modes_agree_on_final_structure() {
    let inst = stream::grid_away(4, 4);
    let sim = converge(&inst, LinkConfig::default(), 3, 10_000_000);
    let sim_o = orientation_from_heights(inst.init().directed_edges(), &height_snapshot(&sim));
    let live = run_threaded(&inst);
    let live_o = orientation_from_heights(inst.init().directed_edges(), &live.heights);
    // Different schedules may reach different DAGs, but both must be
    // acyclic and destination-oriented.
    for o in [sim_o, live_o] {
        assert!(o.is_acyclic());
        assert!(o.is_destination_oriented(inst.dest));
    }
}

#[test]
fn routing_delivers_under_lossless_churn() {
    let inst = stream::random_connected(18, 20, 7000);
    let mut h = RoutingHarness::converged(&inst, LinkConfig::default(), 4);
    for u in inst.csr().nodes().filter(|&u| u != inst.dest) {
        h.send_packet(u);
    }
    let r = h.run(10_000_000);
    assert_eq!(r.delivered, r.injected);
}

#[test]
fn election_then_routing_composes() {
    // After a leader crash and re-election, the surviving DAG routes
    // toward the new leader — verified structurally by the harness.
    let inst = stream::random_connected(14, 16, 8000);
    let mut h = ElectionHarness::converged(&inst, LinkConfig::default(), 5);
    h.crash_leader();
    let report = h.run(10_000_000);
    let expected: NodeId = inst.csr().neighbors(inst.dest).max().unwrap();
    assert_eq!(report.leader, expected);
}

#[test]
fn mutex_serves_heavy_contention() {
    let inst = stream::random_connected(16, 14, 9000);
    let mut h = MutexHarness::new(inst.csr().clone(), inst.dest, LinkConfig::default(), 6);
    let mut expected = 0;
    for round in 0..5 {
        for u in inst.csr().nodes() {
            if (u.raw() + round) % 2 == 0 {
                h.request(u);
                expected += 1;
            }
        }
    }
    let r = h.run(10_000_000);
    assert_eq!(r.cs_entries, expected);
}
