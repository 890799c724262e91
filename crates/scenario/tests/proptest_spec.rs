//! Property tests for the scenario spec: `serialize → parse →
//! re-serialize` is a fixed point, and malformed input produces
//! actionable [`SpecError`]s — never panics.

use lr_scenario::spec::{
    ChurnEvent, ChurnKind, LinkOverride, LinkSpec, LinksSpec, MatrixSpec, ProtocolKind,
    ScenarioSpec, Sources, SpecError, TopologySpec, TrafficSpec,
};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// Builds a valid spec from raw entropy. Picks families, protocols,
/// churn kinds, and traffic shapes by modular choice so the round-trip
/// property covers every variant of the schema.
fn spec_from_entropy(e: (u64, u64, u64, u64, u64)) -> ScenarioSpec {
    let (a, b, c, d, f) = e;
    let n = 4 + (a % 8) as usize; // 4..=11 nodes
    let topology = match b % 6 {
        0 => TopologySpec::ChainAway { n },
        1 => TopologySpec::Alternating { n },
        2 => TopologySpec::Grid { rows: 2, cols: 3 },
        3 => TopologySpec::Random {
            n,
            extra_edges: (c % 6) as usize,
            seed: if c.is_multiple_of(2) { Some(c) } else { None },
        },
        4 => TopologySpec::Star { leaves: n },
        _ => TopologySpec::Inline {
            edges: (0..n as u32 - 1).map(|i| (i, i + 1)).collect(),
            dest: 0,
        },
    };
    // Chain edges 0-1, 1-2 exist in every family above except star
    // (hub 0 to leaves), so churn/overrides reference edges that exist
    // per family.
    let spine = |i: u32| -> (u32, u32) {
        if matches!(topology, TopologySpec::Star { .. }) {
            (0, i + 1)
        } else if matches!(topology, TopologySpec::Random { .. }) {
            // Random topologies have no guaranteed edge; churn there
            // uses the random kind only.
            (0, 0)
        } else {
            (i, i + 1)
        }
    };
    let protocol = match c % 4 {
        0 => ProtocolKind::Routing,
        1 => ProtocolKind::Reversal,
        2 => ProtocolKind::Tora,
        _ => ProtocolKind::Mutex,
    };
    let churn = if protocol == ProtocolKind::Mutex {
        Vec::new()
    } else {
        let mut events = vec![ChurnEvent {
            at: 10 + d % 50,
            kind: ChurnKind::Random {
                fail: 1 + (d % 2) as usize,
                heal: (d % 3) as usize,
            },
        }];
        if spine(0) != (0, 0) {
            events.push(ChurnEvent {
                at: 100 + d % 50,
                kind: ChurnKind::Fail(vec![spine(0)]),
            });
            events.push(ChurnEvent {
                at: 200 + d % 50,
                kind: ChurnKind::Heal(vec![spine(0)]),
            });
        }
        events
    };
    let traffic = match protocol {
        ProtocolKind::Reversal | ProtocolKind::Election => None,
        _ => Some(TrafficSpec {
            sources: if f.is_multiple_of(2) {
                Sources::All
            } else {
                Sources::List(vec![1, 2])
            },
            packets_per_source: 1 + f % 3,
            start: f % 20,
            interval: 1 + f % 9,
        }),
    };
    let overrides = if spine(1) == (0, 0) || matches!(topology, TopologySpec::Star { .. }) {
        Vec::new()
    } else {
        vec![LinkOverride {
            u: spine(1).0,
            v: spine(1).1,
            link: LinkSpec {
                delay: 1 + a % 5,
                jitter: b % 4,
                loss: (d % 10) as f64 / 20.0,
            },
        }]
    };
    // Roughly half the specs carry a matrix section, so the round-trip
    // property covers every axis of the grid grammar too. Axis entries
    // are kept protocol-compatible with the base churn/traffic (random
    // churn + routing/reversal work with everything above except the
    // mutex base, which has no churn).
    let matrix = if f % 2 == 0 {
        None
    } else {
        Some(MatrixSpec {
            protocols: if protocol == ProtocolKind::Mutex || churn.is_empty() {
                Vec::new()
            } else {
                vec![ProtocolKind::Routing, ProtocolKind::Reversal]
            },
            topologies: if f % 4 == 1 {
                vec![
                    TopologySpec::ChainAway { n: 4 },
                    TopologySpec::Grid { rows: 2, cols: 3 },
                ]
            } else {
                Vec::new()
            },
            links: vec![LinkSpec {
                delay: 1 + f % 4,
                jitter: f % 3,
                loss: (f % 4) as f64 / 20.0,
            }],
            churn_scales: if f % 4 == 3 { vec![1, 2] } else { Vec::new() },
        })
    };
    ScenarioSpec {
        name: format!("prop-{}", a % 1000),
        protocol,
        topology,
        links: LinksSpec {
            default: LinkSpec {
                delay: 1 + b % 3,
                jitter: a % 3,
                loss: (c % 5) as f64 / 25.0,
            },
            overrides,
        },
        churn,
        traffic,
        trials: 1 + (a % 3) as usize,
        seeds: vec![b % 100, 1000 + c % 100],
        max_events: 1_000_000,
        settle: 100 + f % 1000,
        matrix,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// serialize → parse returns the identical spec, and re-serializing
    /// reproduces the byte-identical canonical JSON.
    #[test]
    fn round_trip_is_identity(e in (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>())) {
        let spec = spec_from_entropy(e);
        let json = spec.to_json_string();
        let parsed = ScenarioSpec::from_json(&json)
            .map_err(|err| TestCaseError::fail(format!("canonical JSON failed to parse: {err}\n{json}")))?;
        prop_assert_eq!(&parsed, &spec);
        prop_assert_eq!(parsed.to_json_string(), json);
    }

    /// Truncating or corrupting the JSON never panics: the parser
    /// returns an error (or, for benign corruption, a spec).
    #[test]
    fn corrupted_json_never_panics(e in (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()), cut in 1usize..4096) {
        let json = spec_from_entropy(e).to_json_string();
        let cut = cut % json.len().max(1);
        let truncated: String = json.chars().take(cut).collect();
        let _ = ScenarioSpec::from_json(&truncated);
        let swapped = json.replacen(':', ",", 1);
        let _ = ScenarioSpec::from_json(&swapped);
    }
}

/// Table of malformed specs: every error must carry the offending path
/// so a user can fix the file without reading the parser.
#[test]
fn malformed_specs_produce_actionable_errors() {
    let cases: &[(&str, &str, &str)] = &[
        ("{", "(json)", "malformed JSON"),
        ("[1, 2]", "(root)", "expected an object"),
        (
            r#"{"topology": {"family": "grid", "rows": 2, "cols": 2}}"#,
            "name",
            "missing",
        ),
        (r#"{"name": "x"}"#, "topology", "missing"),
        (
            r#"{"name": "x", "topology": {"family": "moebius"}}"#,
            "topology.family",
            "unknown family",
        ),
        (
            r#"{"name": "x", "topology": {"family": "grid"}}"#,
            "topology.rows",
            "missing",
        ),
        (
            r#"{"name": "x", "topology": {"family": "chain-away", "n": 1}}"#,
            "topology.n",
            "at least 2",
        ),
        (
            r#"{"name": "x", "topology": {"family": "chain-away", "n": "six"}}"#,
            "topology.n",
            "expected a non-negative integer, found string",
        ),
        (
            r#"{"name": "x", "topology": {"family": "chain-away", "n": 4}, "frobnicate": 1}"#,
            "(root).frobnicate",
            "unknown key",
        ),
        (
            r#"{"name": "x", "topology": {"family": "chain-away", "n": 4},
                "links": {"loss": 1.5}}"#,
            "links.loss",
            "probability",
        ),
        (
            r#"{"name": "x", "topology": {"family": "chain-away", "n": 4},
                "links": {"delay": 0}}"#,
            "links.delay",
            "at least 1",
        ),
        (
            r#"{"name": "x", "topology": {"family": "chain-away", "n": 4},
                "churn": [{"fail": [[0, 1]]}]}"#,
            "churn[0].at",
            "missing",
        ),
        (
            r#"{"name": "x", "topology": {"family": "chain-away", "n": 4},
                "churn": [{"at": 5}]}"#,
            "churn[0]",
            "exactly one action",
        ),
        (
            r#"{"name": "x", "topology": {"family": "chain-away", "n": 4},
                "churn": [{"at": 5, "fail": [[0, 1]], "heal": [[0, 1]]}]}"#,
            "churn[0]",
            "fail and heal",
        ),
        (
            r#"{"name": "x", "topology": {"family": "chain-away", "n": 4},
                "churn": [{"at": 5, "fail": [[0, 0]]}]}"#,
            "churn[0].fail[0]",
            "self-loop",
        ),
        (
            r#"{"name": "x", "topology": {"family": "chain-away", "n": 4},
                "churn": [{"at": 9, "fail": [[0, 1]]}, {"at": 5, "heal": [[0, 1]]}]}"#,
            "churn",
            "sorted by time",
        ),
        (
            r#"{"name": "x", "topology": {"family": "chain-away", "n": 4},
                "traffic": {"sources": []}}"#,
            "traffic.sources",
            "non-empty",
        ),
        (
            r#"{"name": "x", "topology": {"family": "chain-away", "n": 4}, "seeds": []}"#,
            "seeds",
            "at least one seed",
        ),
        (
            r#"{"name": "x", "protocol": "mutex",
                "topology": {"family": "chain-away", "n": 4},
                "churn": [{"at": 5, "fail": [[0, 1]]}]}"#,
            "churn",
            "mutex scenarios do not support churn",
        ),
        (
            r#"{"name": "x", "protocol": "reversal",
                "topology": {"family": "chain-away", "n": 4},
                "traffic": {}}"#,
            "traffic",
            "convergence-only",
        ),
        (
            r#"{"name": "x", "protocol": "routing",
                "topology": {"family": "chain-away", "n": 4},
                "churn": [{"at": 5, "crash_leader": true}]}"#,
            "churn",
            "crash_leader events require protocol \"election\"",
        ),
        (
            r#"{"name": "x", "protocol": "election",
                "topology": {"family": "chain-away", "n": 4},
                "churn": [{"at": 5, "crash_leader": true}, {"at": 9, "crash_leader": true}]}"#,
            "churn",
            "at most one crash_leader",
        ),
        (
            r#"{"name": "x", "topology": {"family": "chain-away", "n": 4},
                "traffic": {"packets_per_source": 1000000000000}}"#,
            "traffic.packets_per_source",
            "at most",
        ),
    ];
    for (input, path, msg) in cases {
        let err: SpecError = ScenarioSpec::from_json(input).expect_err(input);
        assert!(
            err.path.contains(path),
            "{input}\n  expected path containing {path:?}, got {:?} ({})",
            err.path,
            err.msg
        );
        assert!(
            err.msg.contains(msg),
            "{input}\n  expected message containing {msg:?}, got {:?}",
            err.msg
        );
    }
}

/// Cross-validation (edges/nodes that do not exist) also errors cleanly.
#[test]
fn validation_catches_dangling_references() {
    let spec = ScenarioSpec::from_json(
        r#"{"name": "x", "topology": {"family": "chain-away", "n": 4},
            "churn": [{"at": 5, "fail": [[0, 3]]}]}"#,
    )
    .unwrap();
    let err = spec.validate().unwrap_err();
    assert!(err.path.contains("churn[0]"), "{err}");
    assert!(err.msg.contains("no link 0-3"), "{err}");

    let spec = ScenarioSpec::from_json(
        r#"{"name": "x", "topology": {"family": "chain-away", "n": 4},
            "links": {"overrides": [{"u": 1, "v": 3, "delay": 9}]}}"#,
    )
    .unwrap();
    let err = spec.validate().unwrap_err();
    assert!(err.path.contains("links.overrides[0]"), "{err}");

    let spec = ScenarioSpec::from_json(
        r#"{"name": "x", "topology": {"family": "chain-away", "n": 4},
            "traffic": {"sources": [0]}}"#,
    )
    .unwrap();
    let err = spec.validate().unwrap_err();
    assert!(err.msg.contains("destination"), "{err}");
}

/// `validate` builds the streamed CSR instance and checks the spec by
/// CSR lookups, so cross-checking a spec over a six-figure topology
/// completes in the CSR footprint even in a debug build.
#[test]
fn validation_scales_through_the_flat_route() {
    let spec = ScenarioSpec::from_json(
        r#"{"name": "big", "topology": {"family": "grid", "rows": 350, "cols": 350},
            "churn": [{"at": 5, "fail": [[0, 1]]}],
            "traffic": {"sources": [122499]}}"#,
    )
    .unwrap();
    spec.validate().expect("large grid spec validates");

    // Dangling references are still caught on the flat route.
    let bad = ScenarioSpec::from_json(
        r#"{"name": "big", "topology": {"family": "grid", "rows": 350, "cols": 350},
            "churn": [{"at": 5, "fail": [[0, 2]]}]}"#,
    )
    .unwrap();
    let err = bad.validate().unwrap_err();
    assert!(err.msg.contains("no link 0-2"), "{err}");
}
