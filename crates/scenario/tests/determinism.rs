//! Determinism regression: the same spec + seed must reproduce the run
//! bit-for-bit — `SimStats`, every metric row, and the serialized
//! report JSON.

use lr_scenario::spec::ScenarioSpec;
use lr_scenario::sweep::{run_sweep, SweepOptions};

/// A deliberately noisy scenario: jitter, loss, per-link overrides,
/// random churn, and multi-wave traffic — every source of randomness
/// the engine has, all hanging off the run seed.
const NOISY: &str = r#"{
    "name": "determinism-noisy",
    "protocol": "routing",
    "topology": {"family": "random", "n": 14, "extra_edges": 12, "seed": 99},
    "links": {
        "delay": 2, "jitter": 5, "loss": 0.05,
        "overrides": [{"u": 0, "v": 1, "delay": 7, "jitter": 3}]
    },
    "churn": [
        {"at": 60, "random": {"fail": 2}},
        {"at": 140, "random": {"fail": 1, "heal": 2}}
    ],
    "traffic": {"packets_per_source": 2, "start": 10, "interval": 40},
    "seeds": [5, 6],
    "trials": 2,
    "settle": 800
}"#;

fn spec_edges(seed: u64) -> Vec<(u32, u32)> {
    // The override references edge {0, 1}; random_connected(14, 12, 99)
    // must contain it for the spec to validate. This helper documents
    // the dependency: if the generator changes, the test fails here
    // with a clear message instead of deep in the engine.
    let inst = lr_graph::stream::random_connected(14, 12, seed);
    inst.init()
        .directed_edges()
        .map(|(u, v)| (u.raw().min(v.raw()), u.raw().max(v.raw())))
        .collect()
}

#[test]
fn same_spec_and_seed_reproduce_bit_identical_runs() {
    assert!(
        spec_edges(99).contains(&(0, 1)),
        "fixture assumption: topology seed 99 contains edge 0-1"
    );
    let spec = ScenarioSpec::from_json(NOISY).expect("spec parses");
    let a = run_sweep(&spec, SweepOptions::default()).expect("first sweep runs");
    let b = run_sweep(&spec, SweepOptions::default()).expect("second sweep runs");

    // SimStats per run, bit-identical.
    let stats_a: Vec<_> = a.runs.iter().map(|r| r.sim_stats).collect();
    let stats_b: Vec<_> = b.runs.iter().map(|r| r.sim_stats).collect();
    assert_eq!(stats_a, stats_b, "SimStats must be reproducible");

    // Metric rows, bit-identical (covers every f64: rates, stretch,
    // work means).
    assert_eq!(a.records, b.records, "metric rows must be reproducible");

    // Serialized report JSON, byte-identical.
    let json_a = serde_json::to_string_pretty(&a.records).unwrap();
    let json_b = serde_json::to_string_pretty(&b.records).unwrap();
    assert_eq!(json_a, json_b, "report JSON must be byte-stable");
}

#[test]
fn different_seeds_actually_differ() {
    let spec = ScenarioSpec::from_json(NOISY).expect("spec parses");
    let mut other = spec.clone();
    other.seeds = vec![7, 8];
    let a = run_sweep(&spec, SweepOptions::default()).unwrap();
    let b = run_sweep(&other, SweepOptions::default()).unwrap();
    assert_ne!(
        a.runs.iter().map(|r| r.sim_stats).collect::<Vec<_>>(),
        b.runs.iter().map(|r| r.sim_stats).collect::<Vec<_>>(),
        "changing the seeds must change the runs (jitter + loss are live)"
    );
}

#[test]
fn trials_within_a_seed_are_distinct_runs() {
    let spec = ScenarioSpec::from_json(NOISY).expect("spec parses");
    let outcome = run_sweep(&spec, SweepOptions::default()).unwrap();
    // seeds [5, 6] × trials 2 = 4 runs.
    assert_eq!(outcome.runs.len(), 4);
    assert_ne!(
        outcome.runs[0].sim_stats, outcome.runs[1].sim_stats,
        "trial 0 and trial 1 of the same seed must not repeat each other"
    );
}

#[test]
fn smoke_mode_shrinks_but_stays_deterministic() {
    let spec = ScenarioSpec::from_json(NOISY).expect("spec parses");
    let opts = SweepOptions { smoke: true };
    let a = run_sweep(&spec, opts).unwrap();
    let b = run_sweep(&spec, opts).unwrap();
    assert_eq!(a.runs.len(), 1, "smoke = first seed, first trial only");
    assert_eq!(a.records, b.records);
    assert!(a.records.iter().all(|r| r.smoke), "smoke rows are marked");
}
