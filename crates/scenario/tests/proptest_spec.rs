//! Property tests for the scenario spec: every drawn spec text parses to
//! the spec drawn beside it, defaulted keys and all, and malformed input
//! produces actionable [`SpecError`]s — never panics.

use lr_scenario::spec::{
    ChurnEvent, ChurnKind, LinkOverride, LinkSpec, LinksSpec, MatrixSpec, ProtocolKind,
    ScenarioSpec, Sources, SpecError, TopologySpec, TrafficSpec, DEFAULT_MAX_EVENTS,
    DEFAULT_SETTLE_TICKS,
};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// A JSON object from `(key, value)` pairs, each value already JSON
/// text; a `None` value leaves its key out.
fn object(fields: &[(&str, Option<String>)]) -> String {
    let body: Vec<String> = fields
        .iter()
        .filter_map(|(key, value)| value.as_ref().map(|v| format!("\"{key}\": {v}")))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// `value` as JSON text, or `None` when it equals the parser's
/// `default` and `omit` says to leave the key out.
fn field<T: PartialEq + std::fmt::Display>(value: T, default: T, omit: bool) -> Option<String> {
    (value != default || !omit).then(|| value.to_string())
}

fn edge_list(edges: &[(u32, u32)]) -> String {
    let items: Vec<String> = edges.iter().map(|(u, v)| format!("[{u}, {v}]")).collect();
    format!("[{}]", items.join(", "))
}

/// The `delay`/`jitter`/`loss` keys of `link`, each left out on some
/// draws when it equals the value it inherits from `base`.
fn link_fields(link: LinkSpec, base: LinkSpec, omit: bool) -> [(&'static str, Option<String>); 3] {
    [
        ("delay", field(link.delay, base.delay, omit)),
        ("jitter", field(link.jitter, base.jitter, omit)),
        ("loss", field(link.loss, base.loss, omit)),
    ]
}

/// Draws a valid spec from raw entropy and returns its JSON text beside
/// it. Picks families, protocols, churn kinds, and traffic shapes by
/// modular choice so the parse property covers every variant of the
/// schema; the high bits of `a` pick which keys holding their default
/// the text leaves out, so the parser's defaulting is covered too.
fn spec_from_entropy(e: (u64, u64, u64, u64, u64)) -> (String, ScenarioSpec) {
    let (a, b, c, d, f) = e;
    let omit = |bit: u32| (a >> (32 + bit)) & 1 == 1;
    let n = 4 + (a % 8) as usize; // 4..=11 nodes
    let (topology, topology_json) = match b % 6 {
        0 => (
            TopologySpec::ChainAway { n },
            format!(r#"{{"family": "chain-away", "n": {n}}}"#),
        ),
        1 => (
            TopologySpec::Alternating { n },
            format!(r#"{{"family": "alternating", "n": {n}}}"#),
        ),
        2 => (
            TopologySpec::Grid { rows: 2, cols: 3 },
            r#"{"family": "grid", "rows": 2, "cols": 3}"#.to_string(),
        ),
        3 => {
            let extra_edges = (c % 6) as usize;
            let seed = c.is_multiple_of(2).then_some(c);
            (
                TopologySpec::Random {
                    n,
                    extra_edges,
                    seed,
                },
                object(&[
                    ("family", Some(r#""random""#.into())),
                    ("n", Some(n.to_string())),
                    ("extra_edges", Some(extra_edges.to_string())),
                    ("seed", seed.map(|s| s.to_string())),
                ]),
            )
        }
        4 => (
            TopologySpec::Star { leaves: n },
            format!(r#"{{"family": "star", "leaves": {n}}}"#),
        ),
        _ => {
            let edges: Vec<(u32, u32)> = (0..n as u32 - 1).map(|i| (i, i + 1)).collect();
            let json = object(&[
                ("family", Some(r#""inline""#.into())),
                ("edges", Some(edge_list(&edges))),
                ("dest", field(0, 0, omit(0))),
            ]);
            (TopologySpec::Inline { edges, dest: 0 }, json)
        }
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
    let mut churn: Vec<(ChurnEvent, String)> = Vec::new();
    if protocol != ProtocolKind::Mutex {
        let (at, fail, heal) = (10 + d % 50, 1 + (d % 2) as usize, (d % 3) as usize);
        let random = object(&[
            ("fail", Some(fail.to_string())),
            ("heal", field(heal, 0, omit(1))),
        ]);
        churn.push((
            ChurnEvent {
                at,
                kind: ChurnKind::Random { fail, heal },
            },
            format!(r#"{{"at": {at}, "random": {random}}}"#),
        ));
        if spine(0) != (0, 0) {
            let edge = edge_list(&[spine(0)]);
            let (fail_at, heal_at) = (100 + d % 50, 200 + d % 50);
            churn.push((
                ChurnEvent {
                    at: fail_at,
                    kind: ChurnKind::Fail(vec![spine(0)]),
                },
                format!(r#"{{"at": {fail_at}, "fail": {edge}}}"#),
            ));
            churn.push((
                ChurnEvent {
                    at: heal_at,
                    kind: ChurnKind::Heal(vec![spine(0)]),
                },
                format!(r#"{{"at": {heal_at}, "heal": {edge}}}"#),
            ));
        }
    }
    let (churn, churn_json): (Vec<ChurnEvent>, Vec<String>) = churn.into_iter().unzip();
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
    // A traffic-driven protocol's section holding the default workload
    // may be left out whole: the parser supplies it.
    let traffic_json = traffic.as_ref().and_then(|t| {
        let sources = match &t.sources {
            Sources::All => field(r#""all""#, r#""all""#, omit(2)),
            Sources::List(_) => Some("[1, 2]".to_string()),
        };
        let json = object(&[
            ("sources", sources),
            (
                "packets_per_source",
                field(t.packets_per_source, 1, omit(3)),
            ),
            ("start", field(t.start, 0, omit(3))),
            ("interval", field(t.interval, 1, omit(3))),
        ]);
        (*t != TrafficSpec::default() || !omit(4)).then_some(json)
    });
    let default_link = LinkSpec {
        delay: 1 + b % 3,
        jitter: a % 3,
        loss: (c % 5) as f64 / 25.0,
    };
    // An override's keys left out inherit the links default.
    let overrides: Vec<(LinkOverride, String)> =
        if spine(1) == (0, 0) || matches!(topology, TopologySpec::Star { .. }) {
            Vec::new()
        } else {
            let (u, v) = spine(1);
            let link = LinkSpec {
                delay: 1 + a % 5,
                jitter: b % 4,
                loss: (d % 10) as f64 / 20.0,
            };
            let mut fields = vec![("u", Some(u.to_string())), ("v", Some(v.to_string()))];
            fields.extend(link_fields(link, default_link, omit(5)));
            vec![(LinkOverride { u, v, link }, object(&fields))]
        };
    let (overrides, overrides_json): (Vec<LinkOverride>, Vec<String>) =
        overrides.into_iter().unzip();
    let links = LinksSpec {
        default: default_link,
        overrides,
    };
    let links_json = (links != LinksSpec::default() || !omit(6)).then(|| {
        let mut fields = link_fields(default_link, LinkSpec::default(), omit(7)).to_vec();
        if !overrides_json.is_empty() {
            fields.push((
                "overrides",
                Some(format!("[{}]", overrides_json.join(", "))),
            ));
        }
        object(&fields)
    });
    // Roughly half the specs carry a matrix section, so the parse
    // property covers every axis of the grid grammar too. Axis entries
    // are kept protocol-compatible with the base churn/traffic (random
    // churn + routing/reversal work with everything above except the
    // mutex base, which has no churn). A links entry's keys left out
    // inherit the base links default.
    let (matrix, matrix_json) = if f % 2 == 0 {
        (None, None)
    } else {
        let protocols = if protocol == ProtocolKind::Mutex || churn.is_empty() {
            Vec::new()
        } else {
            vec![ProtocolKind::Routing, ProtocolKind::Reversal]
        };
        let topologies = if f % 4 == 1 {
            vec![
                TopologySpec::ChainAway { n: 4 },
                TopologySpec::Grid { rows: 2, cols: 3 },
            ]
        } else {
            Vec::new()
        };
        let link = LinkSpec {
            delay: 1 + f % 4,
            jitter: f % 3,
            loss: (f % 4) as f64 / 20.0,
        };
        let churn_scales = if f % 4 == 3 { vec![1, 2] } else { Vec::new() };
        let json = object(&[
            (
                "protocol",
                (!protocols.is_empty()).then(|| r#"["routing", "reversal"]"#.to_string()),
            ),
            (
                "topology",
                (!topologies.is_empty()).then(|| {
                    r#"[{"family": "chain-away", "n": 4},
                        {"family": "grid", "rows": 2, "cols": 3}]"#
                        .to_string()
                }),
            ),
            (
                "links",
                Some(format!(
                    "[{}]",
                    object(&link_fields(link, default_link, omit(8)))
                )),
            ),
            (
                "churn_scale",
                (!churn_scales.is_empty()).then(|| "[1, 2]".to_string()),
            ),
        ]);
        let matrix = MatrixSpec {
            protocols,
            topologies,
            links: vec![link],
            churn_scales,
        };
        (Some(matrix), Some(json))
    };
    let name = format!("prop-{}", a % 1000);
    let trials = 1 + (a % 3) as usize;
    let seeds = vec![b % 100, 1000 + c % 100];
    let max_events = if d % 4 == 0 {
        DEFAULT_MAX_EVENTS
    } else {
        1_000_000
    };
    let settle = if f % 5 == 0 {
        DEFAULT_SETTLE_TICKS
    } else {
        100 + f % 1000
    };
    let json = object(&[
        ("name", Some(format!("\"{name}\""))),
        (
            "protocol",
            field(protocol.name(), "routing", omit(9)).map(|p| format!("\"{p}\"")),
        ),
        ("topology", Some(topology_json)),
        ("links", links_json),
        (
            "churn",
            (!churn_json.is_empty() || !omit(10)).then(|| format!("[{}]", churn_json.join(", "))),
        ),
        ("traffic", traffic_json),
        ("trials", field(trials, 1, omit(11))),
        ("seeds", Some(format!("[{}, {}]", seeds[0], seeds[1]))),
        (
            "max_events",
            field(max_events, DEFAULT_MAX_EVENTS, omit(12)),
        ),
        ("settle", field(settle, DEFAULT_SETTLE_TICKS, omit(13))),
        ("matrix", matrix_json),
    ]);
    let spec = ScenarioSpec {
        name,
        protocol,
        topology,
        links,
        churn,
        traffic,
        trials,
        seeds,
        max_events,
        settle,
        matrix,
    };
    (json, spec)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every drawn spec text parses to exactly the spec drawn beside it.
    #[test]
    fn round_trip_is_identity(e in (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>())) {
        let (json, expected) = spec_from_entropy(e);
        let parsed = ScenarioSpec::from_json(&json)
            .map_err(|err| TestCaseError::fail(format!("spec text failed to parse: {err}\n{json}")))?;
        prop_assert_eq!(parsed, expected);
    }

    /// Truncating or corrupting the JSON never panics: the parser
    /// returns an error (or, for benign corruption, a spec).
    #[test]
    fn corrupted_json_never_panics(e in (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()), cut in 1usize..4096) {
        let (json, _) = spec_from_entropy(e);
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
