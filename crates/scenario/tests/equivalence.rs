//! Serial/parallel equivalence: the matrix-sweep executor's contract is
//! that worker count never changes the result. For every protocol, the
//! sweep at threads ∈ {2, 4, 8} must produce **bit-identical** merged
//! rows — and byte-identical serialized JSON — to the serial sweep at
//! threads = 1, as the scenario determinism suite demands of one run.

use lr_scenario::spec::ScenarioSpec;
use lr_scenario::sweep::{run_matrix_sweep, MatrixOptions};

const THREAD_COUNTS: [usize; 3] = [2, 4, 8];

/// Runs the sweep serially and at every parallel thread count, asserting
/// rows and JSON agree bit-for-bit.
fn assert_serial_parallel_equivalent(json: &str) {
    let spec = ScenarioSpec::from_json(json).expect("spec parses");
    let serial = run_matrix_sweep(
        &spec,
        MatrixOptions {
            threads: 1,
            smoke: false,
        },
    )
    .expect("serial sweep runs");
    assert!(
        !serial.records.is_empty(),
        "fixture must produce summary rows"
    );
    let serial_json = serde_json::to_string_pretty(&serial.records).unwrap();
    for threads in THREAD_COUNTS {
        let parallel = run_matrix_sweep(
            &spec,
            MatrixOptions {
                threads,
                smoke: false,
            },
        )
        .expect("parallel sweep runs");
        assert_eq!(parallel.cells, serial.cells, "{threads} threads");
        assert_eq!(
            parallel.records, serial.records,
            "{threads} threads: merged rows must be bit-identical to serial"
        );
        let parallel_json = serde_json::to_string_pretty(&parallel.records).unwrap();
        assert_eq!(
            parallel_json, serial_json,
            "{threads} threads: serialized rows must be byte-identical"
        );
        assert_eq!(
            parallel.metrics.render(),
            serial.metrics.render(),
            "{threads} threads: folded metrics shard must render byte-identical to serial"
        );
    }
    assert!(
        !serial.metrics.is_empty(),
        "sweep must fold a non-empty metrics shard"
    );
    assert_eq!(
        serial.metrics.count("sweep.cells"),
        serial.cells as u64,
        "folded shard counts every cell exactly once"
    );
}

#[test]
fn routing_sweeps_are_thread_count_invariant() {
    // Every source of randomness the engine has: jitter, loss, random
    // churn, multi-wave traffic, a loss axis, and a churn-intensity
    // axis.
    assert_serial_parallel_equivalent(
        r#"{
            "name": "eq-routing",
            "protocol": "routing",
            "topology": {"family": "random", "n": 10, "extra_edges": 8, "seed": 5},
            "links": {"delay": 1, "jitter": 3, "loss": 0.04},
            "churn": [
                {"at": 50, "random": {"fail": 1}},
                {"at": 140, "random": {"heal": 1}}
            ],
            "traffic": {"packets_per_source": 2, "start": 20, "interval": 60},
            "seeds": [3, 4],
            "trials": 2,
            "settle": 500,
            "matrix": {
                "links": [{"loss": 0.0}, {"loss": 0.08}],
                "churn_scale": [1, 2]
            }
        }"#,
    );
}

#[test]
fn reversal_sweeps_are_thread_count_invariant() {
    // Convergence-only; random churn on a grid can cut components off
    // and censor settle phases — the censored rows must merge
    // identically too.
    assert_serial_parallel_equivalent(
        r#"{
            "name": "eq-reversal",
            "protocol": "reversal",
            "topology": {"family": "grid", "rows": 3, "cols": 4},
            "links": {"delay": 1, "jitter": 2, "loss": 0.02},
            "churn": [
                {"at": 40, "random": {"fail": 2}},
                {"at": 180, "random": {"heal": 2}}
            ],
            "seeds": [1, 2],
            "trials": 2,
            "settle": 400,
            "matrix": {"churn_scale": [1, 2]}
        }"#,
    );
}

#[test]
fn tora_sweeps_are_thread_count_invariant() {
    assert_serial_parallel_equivalent(
        r#"{
            "name": "eq-tora",
            "protocol": "tora",
            "topology": {"family": "random", "n": 9, "extra_edges": 6, "seed": 2},
            "links": {"delay": 1, "jitter": 1, "loss": 0.0},
            "churn": [{"at": 60, "random": {"fail": 1}}],
            "traffic": {"packets_per_source": 1, "start": 10, "interval": 40},
            "seeds": [1, 2],
            "trials": 2,
            "settle": 500,
            "matrix": {"links": [{"delay": 1}, {"delay": 3, "jitter": 2}]}
        }"#,
    );
}

#[test]
fn mutex_sweeps_are_thread_count_invariant() {
    // Raymond's algorithm: no churn (static spanning tree), traffic =
    // critical-section requests.
    assert_serial_parallel_equivalent(
        r#"{
            "name": "eq-mutex",
            "protocol": "mutex",
            "topology": {"family": "tree", "depth": 3},
            "traffic": {"packets_per_source": 2, "interval": 30},
            "seeds": [1, 2],
            "trials": 2,
            "settle": 400,
            "matrix": {"links": [{"delay": 1, "jitter": 2}, {"delay": 3}]}
        }"#,
    );
}

#[test]
fn election_sweeps_are_thread_count_invariant() {
    assert_serial_parallel_equivalent(
        r#"{
            "name": "eq-election",
            "protocol": "election",
            "topology": {"family": "random", "n": 8, "extra_edges": 5, "seed": 9},
            "churn": [{"at": 30, "crash_leader": true}],
            "seeds": [1, 2],
            "trials": 2,
            "settle": 400,
            "matrix": {"links": [{"jitter": 0}, {"jitter": 4}]}
        }"#,
    );
}

#[test]
fn smoke_sweeps_are_thread_count_invariant_too() {
    let spec = ScenarioSpec::from_json(
        r#"{
            "name": "eq-smoke",
            "topology": {"family": "grid", "rows": 3, "cols": 3},
            "churn": [{"at": 50, "random": {"fail": 1}}],
            "seeds": [7, 8],
            "trials": 3,
            "settle": 300,
            "matrix": {"churn_scale": [1, 3]}
        }"#,
    )
    .unwrap();
    let serial = run_matrix_sweep(
        &spec,
        MatrixOptions {
            threads: 1,
            smoke: true,
        },
    )
    .unwrap();
    assert_eq!(serial.cells, 2, "smoke: one cell per matrix point");
    assert!(serial.records.iter().all(|r| r.smoke));
    for threads in THREAD_COUNTS {
        let parallel = run_matrix_sweep(
            &spec,
            MatrixOptions {
                threads,
                smoke: true,
            },
        )
        .unwrap();
        assert_eq!(parallel.records, serial.records, "{threads} threads");
        assert_eq!(
            parallel.metrics.render(),
            serial.metrics.render(),
            "{threads} threads: smoke metrics shard must render byte-identical"
        );
    }
}

#[test]
fn absurd_thread_counts_match_one_thread() {
    let spec = ScenarioSpec::from_json(
        r#"{
            "name": "eq-huge-threads",
            "topology": {"family": "chain-away", "n": 4},
            "seeds": [1],
            "settle": 100,
            "matrix": {"churn_scale": [1]}
        }"#,
    )
    .unwrap();
    let run = |threads| {
        run_matrix_sweep(
            &spec,
            MatrixOptions {
                threads,
                smoke: true,
            },
        )
        .unwrap()
    };
    let serial = run(1);
    let huge = run(usize::MAX);
    assert_eq!(huge.records, serial.records);
    assert_eq!(huge.metrics.render(), serial.metrics.render());
}

#[test]
fn errors_are_deterministic_across_thread_counts() {
    // Point 1's topology lacks the churned link, so its cells fail at
    // runtime validation while point 0's succeed. The reported error
    // must be the lowest-indexed failing cell's, whichever worker
    // reaches it first.
    let spec = ScenarioSpec::from_json(
        r#"{
            "name": "eq-error",
            "topology": {"family": "inline", "edges": [[0, 1], [1, 2]], "dest": 0},
            "churn": [{"at": 20, "fail": [[0, 1]]}],
            "seeds": [1, 2],
            "settle": 200,
            "matrix": {
                "topology": [
                    {"family": "inline", "edges": [[0, 1], [1, 2]], "dest": 0},
                    {"family": "inline", "edges": [[0, 2], [2, 1]], "dest": 0}
                ]
            }
        }"#,
    )
    .unwrap();
    let serial_err = run_matrix_sweep(
        &spec,
        MatrixOptions {
            threads: 1,
            smoke: false,
        },
    )
    .expect_err("point 1 has no link 0-1");
    assert!(
        serial_err.to_string().contains("no link 0-1"),
        "{serial_err}"
    );
    for threads in THREAD_COUNTS {
        let parallel_err = run_matrix_sweep(
            &spec,
            MatrixOptions {
                threads,
                smoke: false,
            },
        )
        .expect_err("same failure in parallel");
        assert_eq!(
            parallel_err.to_string(),
            serial_err.to_string(),
            "{threads} threads: error must come from the lowest-indexed failing cell"
        );
    }
}

#[test]
fn run_sweep_refuses_matrix_specs_instead_of_running_the_base_point() {
    use lr_scenario::sweep::{run_sweep, SweepOptions};

    let spec = ScenarioSpec::from_json(
        r#"{"name": "m", "topology": {"family": "chain-away", "n": 4},
            "matrix": {"links": [{"delay": 1}, {"delay": 2}]}}"#,
    )
    .unwrap();
    let err = run_sweep(&spec, SweepOptions::default()).expect_err("matrix spec must be refused");
    assert!(err.to_string().contains("run_matrix_sweep"), "{err}");
}

#[test]
fn absurd_matrix_grids_are_rejected_not_expanded() {
    use lr_scenario::spec::{LinkSpec, MatrixSpec, MAX_MATRIX_POINTS};

    let mut spec = ScenarioSpec::from_json(
        r#"{"name": "evil", "topology": {"family": "chain-away", "n": 4}}"#,
    )
    .unwrap();
    // Four axes of 2^16 entries each: the true product is 2^64, which
    // wraps to 0 under unchecked multiplication — the saturating count
    // must still trip the cap instead of looping forever.
    spec.matrix = Some(MatrixSpec {
        protocols: vec![lr_scenario::spec::ProtocolKind::Routing; 1 << 16],
        topologies: vec![lr_scenario::spec::TopologySpec::ChainAway { n: 4 }; 1 << 16],
        links: vec![LinkSpec::default(); 1 << 16],
        churn_scales: vec![1; 1 << 16],
    });
    assert_eq!(
        spec.matrix.as_ref().unwrap().point_count(),
        usize::MAX,
        "saturates instead of wrapping"
    );
    let err = spec.expand_matrix().expect_err("cap must trip");
    assert!(err.msg.contains(&MAX_MATRIX_POINTS.to_string()), "{err}");
}

#[test]
fn matrix_expansion_is_canonical_row_major() {
    let spec = ScenarioSpec::from_json(
        r#"{
            "name": "order",
            "topology": {"family": "chain-away", "n": 4},
            "churn": [{"at": 10, "random": {"fail": 1}}],
            "matrix": {
                "protocol": ["routing", "reversal"],
                "links": [{"delay": 1}, {"delay": 2}],
                "churn_scale": [1, 3]
            }
        }"#,
    )
    .unwrap();
    let points = spec.expand_matrix().unwrap();
    assert_eq!(points.len(), 8);
    // Protocol outermost, then links, then churn_scale; indexes dense.
    let labels: Vec<&str> = points.iter().map(|p| p.label.as_str()).collect();
    assert_eq!(
        labels,
        [
            "routing|chain-away(n=4)|d1j0l0|x1",
            "routing|chain-away(n=4)|d1j0l0|x3",
            "routing|chain-away(n=4)|d2j0l0|x1",
            "routing|chain-away(n=4)|d2j0l0|x3",
            "reversal|chain-away(n=4)|d1j0l0|x1",
            "reversal|chain-away(n=4)|d1j0l0|x3",
            "reversal|chain-away(n=4)|d2j0l0|x1",
            "reversal|chain-away(n=4)|d2j0l0|x3",
        ]
    );
    for (i, p) in points.iter().enumerate() {
        assert_eq!(p.index, i);
        assert!(p.spec.matrix.is_none(), "points carry no nested matrix");
    }
    // The protocol axis adapted traffic: routing points gained the
    // default workload, reversal points carry none.
    assert!(points[0].spec.traffic.is_some());
    assert!(points[4].spec.traffic.is_none());
    // churn_scale multiplied the random event's intensity.
    let scaled = &points[1].spec.churn[0];
    assert_eq!(
        format!("{:?}", scaled.kind),
        "Random { fail: 3, heal: 0 }",
        "x3 point scales the random churn"
    );
}

/// PR 10 extends the contract to the resident service mode: a serve
/// run's rendered report is a pure function of `(spec, seed, options
/// minus threads)`, so every worker count must reproduce the serial
/// report byte-for-byte — feed churn, queue pressure, and all.
#[test]
fn serve_reports_are_byte_identical_at_every_thread_count() {
    let spec = ScenarioSpec::from_json(
        r#"{
            "name": "serve-equivalence",
            "protocol": "routing",
            "topology": {"family": "grid", "rows": 6, "cols": 6},
            "seeds": [7]
        }"#,
    )
    .expect("spec parses");
    let feed = lr_scenario::parse_feed(concat!(
        "{\"at\": 4, \"fail\": [0, 1]}\n",
        "{\"at\": 12, \"heal\": [0, 1]}\n",
        "{\"at\": 16, \"route\": 35}\n",
    ))
    .expect("feed parses");
    let run = |threads: usize| {
        let options = lr_scenario::ServeOptions {
            rate: 6,
            duration: 40,
            threads,
            ..Default::default()
        };
        lr_scenario::run_serve(&spec, &options, &feed)
            .expect("serve runs")
            .render()
    };
    let serial = run(1);
    // The feed's one route query and two churn events both land.
    assert!(serial.contains("feed 1"), "fixture route must be offered");
    assert!(
        serial.contains("churn events applied 2"),
        "fixture churn must be applied"
    );
    for threads in THREAD_COUNTS {
        assert_eq!(run(threads), serial, "threads = {threads} must match");
    }
}
