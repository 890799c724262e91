//! Integration tests for the distributed layer: the message-passing
//! protocol's outcomes must agree with the centralized theory — same
//! destination-orientation guarantee, work within the same bounds — and
//! the applications must keep their invariants under churn.

use std::collections::BTreeMap;

use link_reversal::core::alg::FrontierFamily;
use link_reversal::core::engine::{run_engine_frontier, SchedulePolicy, DEFAULT_MAX_STEPS};
use link_reversal::graph::{stream, NodeId, ReversalInstance};
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

// Heights only rise and every link is FIFO, so a stored neighbour
// height is never above the true one, and a node that sees every live
// neighbour above it is a true sink: every distributed step is a Partial
// Reversal step at a true sink. A node's PR work is the same in every
// execution (Busch and Tirthapura), so each mode's per-node reversal
// count must equal the PR engine's per-node steps on every graph.

/// The PR engine's steps of each node under greedy rounds.
fn pr_work(inst: &ReversalInstance) -> BTreeMap<NodeId, usize> {
    let mut engine = FrontierFamily::PartialReversal.engine(inst.clone());
    let stats = run_engine_frontier(
        engine.as_mut(),
        SchedulePolicy::GreedyRounds,
        DEFAULT_MAX_STEPS,
    );
    assert!(stats.terminated);
    stats.work_per_node(inst.csr())
}

/// Asserts that `got`, each node's reversals in ascending id order, is
/// `want`, naming the first node that differs.
fn assert_work(got: impl IntoIterator<Item = u64>, want: &BTreeMap<NodeId, usize>, what: &str) {
    let got: Vec<u64> = got.into_iter().collect();
    assert_eq!(got.len(), want.len(), "{what}: node count");
    let differs = want.iter().zip(&got).find(|&((_, &w), &g)| g != w as u64);
    if let Some(((u, w), g)) = differs {
        panic!("{what}: node {u} reversed {g} times, the PR engine stepped it {w} times");
    }
}

/// Each node's reversals in a converged distributed-PR simulation.
fn simulated_work(sim: &EventSim<DistributedPr>) -> impl Iterator<Item = u64> + '_ {
    sim.nodes().map(|(_, n)| n.reversals)
}

#[test]
fn simulated_work_equals_partial_reversal_steps_per_node_on_random_graphs() {
    // Calm links share queue entries across a broadcast; jittered ones
    // hold one copy per entry. The routing harness's start is serve's
    // settle.
    let jittered = LinkConfig {
        delay: 5,
        jitter: 20,
        loss: 0.0,
    };
    for n in [12usize, 20, 40, 60, 200] {
        for extra in [0, n / 2, 2 * n] {
            for seed in 9000..9010 {
                let inst = stream::random_connected(n, extra, seed);
                let want = pr_work(&inst);
                let case = format!("random_connected({n}, {extra}, {seed})");
                let calm = converge(&inst, LinkConfig::default(), seed, 10_000_000);
                assert_work(simulated_work(&calm), &want, &format!("{case}, calm"));
                let wild = converge(&inst, jittered, seed, 10_000_000);
                assert_work(simulated_work(&wild), &want, &format!("{case}, jittered"));
                let routing = RoutingHarness::converged(&inst, LinkConfig::default(), seed);
                let routed = routing.sim().nodes().map(|(_, n)| n.rev.reversals);
                assert_work(routed, &want, &format!("{case}, routing"));
            }
        }
    }
}

#[test]
#[ignore = "two million-node convergences, about 8 seconds in a release build; run with --ignored"]
fn simulated_work_equals_partial_reversal_steps_per_node_at_a_million_nodes() {
    // The 1000 × 1000 grid and the engine-1m benchmark's instance, one
    // after the other.
    for (inst, total) in [
        (stream::grid_away(1000, 1000), 999_999),
        (stream::random_connected(1_000_000, 1_000_000, 3), 2_346_049),
    ] {
        let want = pr_work(&inst);
        assert_eq!(want.values().sum::<usize>(), total);
        let sim = converge(&inst, LinkConfig::default(), 1, 100_000_000);
        let case = format!("{} nodes", inst.node_count());
        assert_work(simulated_work(&sim), &want, &case);
    }
}

#[test]
fn threaded_work_equals_partial_reversal_steps_on_random_graphs() {
    // Real threads, no simulator: the same per-node work, on instances
    // small enough for one thread per node.
    for n in [12usize, 20, 40, 60] {
        for extra in [0, n / 2, 2 * n] {
            for seed in 9000..9010 {
                let inst = stream::random_connected(n, extra, seed);
                let report = run_threaded(&inst).expect("under the node ceiling");
                let case = format!("random_connected({n}, {extra}, {seed}), threaded");
                assert_work(report.node_reversals, &pr_work(&inst), &case);
            }
        }
    }
}

#[test]
fn threaded_and_simulated_modes_agree_on_final_structure() {
    let inst = stream::grid_away(4, 4);
    let sim = converge(&inst, LinkConfig::default(), 3, 10_000_000);
    let sim_o = orientation_from_heights(inst.init().directed_edges(), &height_snapshot(&sim));
    let live = run_threaded(&inst).expect("under the node ceiling");
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
