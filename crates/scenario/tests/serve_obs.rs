//! `lr serve` under an observability session: driver construction,
//! each tick's drain, each churn action and stretch repricing get their
//! spans, and the simulator's statistics land as `net.*` counters.
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
    let session = ObsSession::start(ObsMode::Summary);
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
    assert_eq!(span("serve.reprice"), Some(2), "one BFS per churn tick");
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
