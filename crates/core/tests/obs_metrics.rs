//! Single-booking agreement between [`RunStats`] and the obs metrics
//! layer: the obs counters are a *projection* of the stats the run loop
//! already books — `RunStats::metrics()` derives them — so the work
//! vector and the observability counters cannot drift apart or
//! double-count a step, on any family and any policy.

use lr_core::alg::{BllLabeling, FrontierFamily};
use lr_core::engine::{run_engine_frontier, RunStats, SchedulePolicy, DEFAULT_MAX_STEPS};
use lr_graph::{stream, ReversalInstance};
use lr_obs::MetricsShard;

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

fn policies() -> [SchedulePolicy; 4] {
    [
        SchedulePolicy::GreedyRounds,
        SchedulePolicy::RandomSingle { seed: 0xC0FFEE },
        SchedulePolicy::FirstSingle,
        SchedulePolicy::LastSingle,
    ]
}

fn instance() -> ReversalInstance {
    stream::random_connected(24, 30, 97)
}

/// The shard `RunStats::metrics()` must equal, rebuilt here field by
/// field from the public stats — a drifting derivation fails this.
fn expected_shard(stats: &RunStats) -> MetricsShard {
    let mut m = MetricsShard::new();
    m.add("engine.steps", stats.steps as u64);
    m.add("engine.reversals", stats.total_reversals as u64);
    m.add("engine.dummy_steps", stats.dummy_steps as u64);
    m.add("engine.rounds", stats.rounds as u64);
    m.add("engine.frontier_occupancy", stats.frontier_occupancy as u64);
    m.add("engine.terminated_runs", u64::from(stats.terminated));
    m.record_max(
        "engine.max_node_work",
        stats.work.iter().copied().max().unwrap_or(0) as u64,
    );
    m
}

fn assert_single_booked(family: FrontierFamily, policy: SchedulePolicy, stats: &RunStats) {
    let ctx = format!("{} under {:?}", family.name(), policy);
    assert!(stats.terminated, "{ctx}: must terminate");
    // The work vector is the only per-step tally; steps is its total.
    assert_eq!(
        stats.work.iter().sum::<usize>(),
        stats.steps,
        "{ctx}: work vector and step counter disagree"
    );
    // The obs shard is derived from the stats, not re-tallied.
    let metrics = stats.metrics();
    assert_eq!(metrics, expected_shard(stats), "{ctx}: derivation drifted");
    assert_eq!(metrics.count("engine.steps"), stats.steps as u64, "{ctx}");
    // Occupancy integral: every scheduled iteration draws from a
    // non-empty frontier, and under greedy rounds with no budget cut
    // every snapshotted sink steps exactly once, so the integral
    // *equals* the step count — the strongest form of "not
    // double-booked".
    assert!(
        stats.frontier_occupancy >= stats.steps,
        "{ctx}: occupancy below steps"
    );
    if policy == SchedulePolicy::GreedyRounds {
        assert_eq!(
            stats.frontier_occupancy, stats.steps,
            "{ctx}: greedy occupancy must equal steps"
        );
    }
}

#[test]
fn metrics_agree_with_run_stats_for_every_family_and_policy() {
    let csr_inst = instance();
    for family in all_families() {
        for policy in policies() {
            let mut engine = family.engine(csr_inst.clone());
            let stats = run_engine_frontier(engine.as_mut(), policy, DEFAULT_MAX_STEPS);
            assert_single_booked(family, policy, &stats);
        }
    }
}

/// A budget-cut run must stay single-booked too: the occupancy
/// integral only counts iterations that were actually scheduled.
#[test]
fn budget_cut_runs_stay_single_booked() {
    let csr_inst = instance();
    let mut engine = FrontierFamily::PartialReversal.engine(csr_inst);
    let stats = run_engine_frontier(engine.as_mut(), SchedulePolicy::GreedyRounds, 3);
    assert!(!stats.terminated);
    assert_eq!(stats.work.iter().sum::<usize>(), stats.steps);
    assert_eq!(stats.metrics(), expected_shard(&stats));
    // The final round was cut mid-snapshot, so the integral may exceed
    // the steps actually taken — but never the other way around.
    assert!(stats.frontier_occupancy >= stats.steps);
}
