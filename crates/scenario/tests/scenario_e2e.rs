//! End-to-end scenario runs: every protocol adapter, churn semantics
//! (partition/heal, per-link overrides), and metric sanity.

use lr_scenario::spec::ScenarioSpec;
use lr_scenario::sweep::{run_sweep, SweepOptions};
use lr_scenario::RunOutcome;

fn run_one(json: &str) -> RunOutcome {
    let spec = ScenarioSpec::from_json(json).expect("spec parses");
    spec.validate().expect("spec validates");
    let outcome = run_sweep(&spec, SweepOptions::default()).expect("sweep runs");
    assert_eq!(outcome.runs.len(), 1, "single-run fixture");
    outcome.runs.into_iter().next().unwrap()
}

/// Pins a run's exact outputs: the simulator's `[sent, delivered,
/// dropped, lost_to_failure, last_event_time]` and the summary row's
/// `(messages, total_reversals, mean_hops, stretch)`. A refactor that
/// shifts a protocol's behaviour fails here even when it shifts every
/// run alike, which the determinism suites cannot see.
fn assert_pinned(run: &RunOutcome, stats: [u64; 5], summary: (u64, u64, f64, f64)) {
    let s = run.sim_stats;
    let row = run.records.last().unwrap();
    let got = [
        s.sent,
        s.delivered,
        s.dropped,
        s.lost_to_failure,
        s.last_event_time,
    ];
    assert_eq!(got, stats, "sim stats");
    let got = (
        row.messages,
        row.total_reversals,
        row.mean_hops,
        row.stretch,
    );
    assert_eq!(got, summary, "summary (messages, reversals, hops, stretch)");
}

#[test]
fn routing_stable_network_delivers_everything_at_stretch_one() {
    let run = run_one(
        r#"{
            "name": "stable-grid",
            "topology": {"family": "grid", "rows": 3, "cols": 3},
            "traffic": {"packets_per_source": 2, "interval": 5}
        }"#,
    );
    let summary = run.records.last().unwrap();
    assert_eq!(summary.row, "summary");
    assert_eq!(summary.injected, 16, "8 sources × 2 waves");
    assert_eq!(summary.delivered, 16);
    assert_eq!(summary.delivery_rate, 1.0);
    assert_eq!(summary.revisits, 0, "converged DAG never loops");
    assert!(summary.acyclic);
    // Greedy downhill on a converged grid follows shortest paths.
    assert!(
        (summary.stretch - 1.0).abs() < 1e-9,
        "stretch should be exactly 1.0 on the stable grid, got {}",
        summary.stretch
    );
    assert!(summary.mean_hops >= 1.0);
    assert_pinned(&run, [82, 82, 0, 0, 9], (82, 8, 2.25, 1.0));
}

#[test]
fn routing_partition_livelocks_then_heal_delivers() {
    // Chain 0-1-2-3; partition {2, 3} away, heal, then inject from 3.
    // While partitioned, nodes 2 and 3 are cut off from the destination
    // and Partial Reversal raises their heights forever — the settle
    // window turns that livelock into a `quiesced = false` measurement
    // (the partition behaviour TORA exists to fix).
    let run = run_one(
        r#"{
            "name": "partition-heal",
            "topology": {"family": "inline", "edges": [[0,1],[1,2],[2,3]], "dest": 0},
            "churn": [
                {"at": 20, "partition": [2, 3]},
                {"at": 200, "heal": [[1, 2]]}
            ],
            "traffic": {"sources": [3], "packets_per_source": 1, "start": 600},
            "settle": 300
        }"#,
    );
    let partition_row = &run.records[1];
    assert_eq!(partition_row.event, "partition 2 node(s)");
    assert!(
        !partition_row.quiesced,
        "the cut-off component must livelock: {partition_row:?}"
    );
    assert_eq!(
        partition_row.convergence_ticks, 300,
        "censored at the settle window"
    );
    assert_eq!(partition_row.delivered, 0);
    // The heal reconnects the chain and the network re-converges.
    let heal_row = &run.records[2];
    assert!(
        heal_row.quiesced,
        "healed network must re-converge: {heal_row:?}"
    );
    // The packet injected after the heal is delivered.
    let summary = run.records.last().unwrap();
    assert!(summary.quiesced);
    assert_eq!(summary.injected, 1);
    assert_eq!(summary.delivered, 1, "{summary:?}");
    assert_eq!(summary.stranded, 0);
    assert!(summary.acyclic, "acyclicity must survive the churn");
    assert_pinned(&run, [311, 311, 0, 0, 603], (311, 302, 3.0, 1.0));
}

#[test]
fn routing_through_the_shipped_churn_waves_is_pinned() {
    // The random topology gives nodes several lower neighbours, and two
    // of the three waves are priced while links are down, so both the
    // downhill choice and the live-link BFS show in hops and stretch.
    let text = include_str!("../../../examples/scenarios/churn_waves.json");
    let spec = ScenarioSpec::from_json(text).expect("spec parses");
    let run = lr_scenario::run_scenario(&spec, 1, 0, false).expect("first run");
    assert_pinned(
        &run,
        [341, 341, 0, 0, 359],
        (341, 24, 1.9710144927536233, 1.125),
    );
}

#[test]
fn per_link_overrides_slow_the_overridden_path() {
    let base = r#"{
        "name": "override-NAME",
        "topology": {"family": "inline", "edges": [[0,1],[1,2]], "dest": 0},
        "traffic": {"sources": [2], "packets_per_source": 1, "start": 0}LINKS
    }"#;
    let fast = run_one(&base.replace("NAME", "fast").replace("LINKS", ""));
    let slow = run_one(&base.replace("NAME", "slow").replace(
        "LINKS",
        r#", "links": {"overrides": [{"u": 1, "v": 2, "delay": 50}]}"#,
    ));
    let (fast_t, slow_t) = (
        fast.records.last().unwrap().at,
        slow.records.last().unwrap().at,
    );
    assert!(
        slow_t > fast_t + 40,
        "the 50-tick link must dominate the run: fast {fast_t}, slow {slow_t}"
    );
    assert_eq!(slow.records.last().unwrap().delivered, 1);
}

#[test]
fn reversal_scenario_reports_convergence_and_work() {
    let run = run_one(
        r#"{
            "name": "reversal-churn",
            "protocol": "reversal",
            "topology": {"family": "chain-away", "n": 10},
            "churn": [{"at": 40, "fail": [[4, 5]]}, {"at": 90, "heal": [[4, 5]]}],
            "settle": 400
        }"#,
    );
    let start = &run.records[0];
    assert!(start.quiesced, "initial convergence completes");
    assert!(
        start.total_reversals >= 9,
        "away-chain makes every bad node work"
    );
    assert!(start.convergence_ticks > 0);
    // Failing {4,5} cuts nodes 5..9 off from the destination: livelock,
    // censored at the settle window. Healing re-converges.
    let fail_row = &run.records[1];
    assert!(!fail_row.quiesced, "{fail_row:?}");
    let heal_row = &run.records[2];
    assert!(heal_row.quiesced, "{heal_row:?}");
    assert!(run.records.iter().all(|r| r.acyclic));
    assert_eq!(run.records.len(), 4, "start + 2 churn + summary");
    // The failed middle link disconnects the chain; healing reconnects
    // it. Messages must have flowed in both churn phases.
    let summary = run.records.last().unwrap();
    assert!(summary.messages > start.messages);
    assert_pinned(&run, [749, 749, 0, 0, 448], (749, 417, 0.0, 0.0));
}

#[test]
fn tora_queries_route_sources_under_churn() {
    let run = run_one(
        r#"{
            "name": "tora-queries",
            "protocol": "tora",
            "topology": {"family": "inline",
                         "edges": [[0,1],[1,2],[2,3],[3,0],[3,4],[4,5]], "dest": 0},
            "churn": [{"at": 500, "fail": [[0, 1]]}],
            "traffic": {"sources": [1, 5], "packets_per_source": 1, "start": 10}
        }"#,
    );
    let summary = run.records.last().unwrap();
    assert_eq!(summary.injected, 2);
    assert_eq!(summary.delivered, 2, "both queries routed: {summary:?}");
    assert!(summary.acyclic, "TORA heights stay loop-free");
    assert!(summary.messages > 0);
    assert_pinned(&run, [33, 33, 0, 0, 502], (33, 1, 0.0, 0.0));
}

#[test]
fn tora_multi_wave_queries_reach_full_delivery_rate() {
    // Repeated NeedRoute queries from the same sources are idempotent;
    // the delivery rate must reach 1.0, not 1/waves.
    let run = run_one(
        r#"{
            "name": "tora-waves",
            "protocol": "tora",
            "topology": {"family": "grid", "rows": 2, "cols": 3},
            "traffic": {"packets_per_source": 2, "interval": 20}
        }"#,
    );
    let summary = run.records.last().unwrap();
    assert_eq!(summary.injected, 5, "distinct queried sources");
    assert_eq!(summary.delivered, 5, "{summary:?}");
    assert_eq!(summary.delivery_rate, 1.0, "{summary:?}");
}

#[test]
fn mutex_requests_all_enter_the_critical_section() {
    let run = run_one(
        r#"{
            "name": "mutex-contention",
            "protocol": "mutex",
            "topology": {"family": "random", "n": 9, "extra_edges": 6, "seed": 3},
            "traffic": {"packets_per_source": 2, "interval": 3}
        }"#,
    );
    let summary = run.records.last().unwrap();
    assert_eq!(summary.injected, 18, "9 sources × 2 waves");
    assert_eq!(
        summary.delivered, 18,
        "every request enters the CS: {summary:?}"
    );
    assert!(
        summary.acyclic,
        "token tree stays oriented toward the holder"
    );
    assert_pinned(&run, [36, 36, 0, 0, 19], (36, 0, 0.0, 0.0));
}

#[test]
fn election_crash_leader_reorients_survivors() {
    let run = run_one(
        r#"{
            "name": "election-crash",
            "protocol": "election",
            "topology": {"family": "random", "n": 10, "extra_edges": 8, "seed": 11},
            "churn": [{"at": 100, "crash_leader": true}]
        }"#,
    );
    let crash_row = &run.records[1];
    assert_eq!(crash_row.event, "crash leader");
    assert!(crash_row.convergence_ticks > 0, "re-election takes time");
    assert!(
        crash_row.total_reversals > 0,
        "survivors must reverse toward the new leader"
    );
    assert!(run.records.iter().all(|r| r.acyclic));
    assert_pinned(&run, [116, 116, 0, 0, 104], (116, 9, 0.0, 0.0));
}

#[test]
fn random_churn_is_driven_by_the_run_seed() {
    let json = |seed: u64| {
        format!(
            r#"{{
                "name": "random-churn",
                "protocol": "reversal",
                "topology": {{"family": "random", "n": 12, "extra_edges": 10, "seed": 42}},
                "churn": [{{"at": 30, "random": {{"fail": 2}}}},
                          {{"at": 80, "random": {{"heal": 1, "fail": 1}}}}],
                "seeds": [{seed}]
            }}"#
        )
    };
    let a = run_one(&json(1));
    let b = run_one(&json(1));
    let c = run_one(&json(2));
    assert_eq!(a.sim_stats, b.sim_stats);
    assert_eq!(a.records, b.records);
    // Same fixed topology, different run seed → different random churn.
    assert_ne!(
        a.sim_stats, c.sim_stats,
        "run seed must drive the random churn choices"
    );
}

#[test]
fn sweep_shapes_match_seeds_times_trials() {
    let spec = ScenarioSpec::from_json(
        r#"{
            "name": "sweep-shape",
            "protocol": "reversal",
            "topology": {"family": "alternating", "n": 8},
            "seeds": [1, 2, 3],
            "trials": 2
        }"#,
    )
    .unwrap();
    let outcome = run_sweep(&spec, SweepOptions::default()).unwrap();
    assert_eq!(outcome.runs.len(), 6);
    // Each run: start row + summary row (no churn).
    assert_eq!(outcome.records.len(), 12);
    for r in &outcome.records {
        assert_eq!(r.scenario, "sweep-shape");
        assert_eq!(r.family, "alternating");
        assert_eq!(r.n, 8);
        assert!(!r.smoke);
    }
}

/// Traffic at the end of virtual time: injections and deliveries
/// saturate at `u64::MAX` instead of overflowing (a debug panic) or
/// wrapping into the past, and every packet still arrives.
#[test]
fn traffic_at_the_end_of_time_saturates_instead_of_wrapping() {
    for traffic in [
        r#"{"packets_per_source": 2, "start": 18446744073709551615}"#,
        r#"{"packets_per_source": 2, "interval": 18446744073709551615}"#,
    ] {
        let run = run_one(&format!(
            r#"{{"name": "end-of-time", "topology": {{"family": "chain-away", "n": 4}},
                "traffic": {traffic}}}"#
        ));
        let summary = run.records.last().unwrap();
        assert_eq!(summary.at, u64::MAX, "{traffic}");
        assert_eq!(summary.injected, 6, "3 sources × 2 waves: {traffic}");
        assert_eq!(summary.delivered, summary.injected, "{traffic}");
    }
}
