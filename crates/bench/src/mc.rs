//! The model-check battery behind `lr modelcheck`: runs [`CheckKind`]
//! sweeps at a given size and times each one.

use std::time::Instant;

use lr_simrel::model_check::{CheckKind, McOptions, ModelCheckSummary};

/// One timed battery entry: a check, its summary, and its wall-clock.
#[derive(Debug, Clone)]
pub struct BatteryRow {
    /// Which check ran.
    pub kind: CheckKind,
    /// The sweep's summary.
    pub summary: ModelCheckSummary,
    /// Wall-clock time of the sweep, nanoseconds.
    pub elapsed_ns: u64,
}

/// Runs `checks` at size `n` with the given options, timing each sweep.
///
/// When an `lr-obs` session is recording, each check gets a
/// `modelcheck.check <key>` span, and the battery publishes
/// `modelcheck.*` counters derived from the deterministic summaries —
/// the sweeps themselves are bit-identical at every thread count, so
/// the published metrics are too.
pub fn run_battery(n: usize, checks: &[CheckKind], opts: &McOptions) -> Vec<BatteryRow> {
    let rows: Vec<BatteryRow> = checks
        .iter()
        .map(|&kind| {
            let mut span = lr_obs::enabled()
                .then(|| lr_obs::span("modelcheck", format!("modelcheck.check {}", kind.key())));
            let start = Instant::now();
            let summary = kind.run(n, opts);
            if let Some(span) = span.as_mut() {
                span.arg("n", n as u64);
                span.arg("instances", summary.instances as u64);
                span.arg("states", summary.states_visited as u64);
            }
            BatteryRow {
                kind,
                summary,
                elapsed_ns: start.elapsed().as_nanos() as u64,
            }
        })
        .collect();
    if lr_obs::enabled() {
        battery_metrics(&rows).publish();
    }
    rows
}

/// Derives the battery's deterministic metrics shard from its rows —
/// a projection of the summaries, never a second tally.
pub fn battery_metrics(rows: &[BatteryRow]) -> lr_obs::MetricsShard {
    let mut m = lr_obs::MetricsShard::new();
    for row in rows {
        m.add("modelcheck.checks", 1);
        m.add("modelcheck.instances", row.summary.instances as u64);
        m.add("modelcheck.states", row.summary.states_visited as u64);
        m.add("modelcheck.transitions", row.summary.transitions as u64);
        m.add(
            "modelcheck.verified_checks",
            u64::from(row.summary.verified()),
        );
        m.record_max(
            "modelcheck.max_states_per_check",
            row.summary.states_visited as u64,
        );
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn battery_rows_verify_every_instance_in_check_order() {
        let opts = McOptions::default().with_threads(2);
        let checks = [CheckKind::NewPr, CheckKind::Termination];
        let rows = run_battery(3, &checks, &opts);
        assert_eq!(rows.len(), 2);
        for (row, kind) in rows.iter().zip(checks) {
            assert!(row.summary.verified(), "{:?}", row.summary);
            assert_eq!(row.kind, kind);
            assert_eq!(row.summary.instances, 54);
        }
    }

    #[test]
    fn battery_metrics_are_a_projection_of_the_summaries() {
        let opts = McOptions::default();
        let rows = run_battery(3, &[CheckKind::NewPr], &opts);
        let m = battery_metrics(&rows);
        assert_eq!(m.count("modelcheck.checks"), 1);
        assert_eq!(
            m.count("modelcheck.instances"),
            rows[0].summary.instances as u64
        );
        assert_eq!(
            m.count("modelcheck.states"),
            rows[0].summary.states_visited as u64
        );
        assert_eq!(
            m.max("modelcheck.max_states_per_check"),
            rows[0].summary.states_visited as u64
        );
    }
}
