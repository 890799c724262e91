//! `lr serve` under an observability session: the build and its three
//! parts (driver construction, the protocol's start, the ledger's first
//! BFS), each tick's drain, each churn action and stretch repricing get
//! their spans, each repricing names the distances it repaired, and the
//! simulator's statistics land as `net.*` counters.
//!
//! This is the binary's only test, so no other serve run can record
//! into the session's counters.

use lr_obs::{ObsMode, ObsSession};
use lr_scenario::{parse_feed, run_serve, ScenarioSpec, ServeOptions};

#[test]
fn serve_records_build_drain_churn_and_reprice_spans_and_net_counters() {
    let spec = ScenarioSpec::from_json(
        r#"{"name": "serve-obs", "topology": {"family": "grid", "rows": 4, "cols": 4},
            "seeds": [7]}"#,
    )
    .unwrap();
    let feed =
        parse_feed("{\"at\": 2, \"fail\": [0, 1]}\n{\"at\": 6, \"heal\": [0, 1]}\n").unwrap();
    let options = ServeOptions {
        rate: 3,
        duration: 10,
        ..ServeOptions::default()
    };
    // Json keeps each span's args beside the aggregates.
    let session = ObsSession::start(ObsMode::Json);
    let report = run_serve(&spec, &options, &feed).unwrap();
    let obs = session.finish();

    let counter = |name: &str| {
        obs.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    };
    assert_eq!(counter("net.sent"), Some(report.messages));
    let delivered = counter("net.delivered").expect("net.delivered recorded");
    let dropped = counter("net.dropped").expect("net.dropped recorded");
    let lost = counter("net.lost_to_failure").expect("net.lost_to_failure recorded");
    assert!(delivered + dropped + lost <= report.messages);
    let span = |name: &str| {
        obs.spans
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, s)| s.count)
    };
    assert_eq!(span("serve.build"), Some(1));
    for part in ["driver", "start", "ledger"] {
        assert_eq!(span(&format!("serve.build {part}")), Some(1), "{part}");
    }
    assert_eq!(span("serve.reprice"), Some(2), "one repair per churn tick");
    // On the 4 × 4 grid toward node 0, failing the link 0–1 sends the rest
    // of the top row, nodes 1, 2 and 3, round through the second row, two
    // hops farther each; the heal brings them back.
    let repaired: Vec<u64> = obs
        .events
        .iter()
        .filter(|e| e.name == "serve.reprice")
        .map(|e| {
            e.args
                .iter()
                .find(|&&(k, _)| k == "repaired")
                .map(|&(_, v)| v)
                .expect("a repaired arg")
        })
        .collect();
    assert_eq!(repaired, [3, 3]);
    assert!(
        repaired.iter().all(|&r| 0 < r && r < report.n as u64),
        "repaired {repaired:?} of {} distances",
        report.n
    );
    assert_eq!(report.link_events, 2);
    assert_eq!(
        span("serve.churn"),
        Some(report.link_events),
        "one span per applied churn event"
    );
    assert_eq!(
        span("serve.drain"),
        Some(options.duration),
        "one drain per served tick"
    );
}
