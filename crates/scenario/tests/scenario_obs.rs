//! `lr scenario run` under an observability session: each run's
//! instance and driver construction, and each row's live-link scan and
//! metrics, get their spans.
//!
//! This is the binary's only test, so no other run can record into the
//! session.

use lr_obs::{ObsMode, ObsSession};
use lr_scenario::{run_sweep, ScenarioSpec, SweepOptions};

#[test]
fn scenario_runs_record_one_build_span_per_run_and_one_metrics_span_per_row() {
    let spec = ScenarioSpec::from_json(include_str!(
        "../../../examples/scenarios/partition_heal.json"
    ))
    .unwrap();
    let session = ObsSession::start(ObsMode::Json);
    let outcome = run_sweep(&spec, SweepOptions::default()).unwrap();
    let obs = session.finish();

    let span = |name: &str| {
        obs.spans
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, s)| s.count)
    };
    // Two seeds, one trial each; a start row, two churn rows and a
    // summary row per run.
    assert_eq!((outcome.runs.len(), outcome.records.len()), (2, 8));
    assert_eq!(span("scenario.build"), Some(2), "one per run");
    assert_eq!(span("scenario.metrics"), Some(8), "one per row");
}
