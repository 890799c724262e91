//! Zero-cost observability for the link-reversal stack.
//!
//! The crate splits observability into two regimes with very different
//! guarantees, mirroring the serial/parallel split the rest of the
//! workspace is built around:
//!
//! * **The global recorder** ([`Registry`], [`Span`] guards, the trace
//!   buffer) is *timing-oriented* and therefore nondeterministic: span
//!   durations and event order depend on the machine. It is designed to
//!   be free when off — every handle operation and every span start is
//!   gated behind a **single relaxed atomic load**, and no instrumented
//!   hot loop takes a lock or allocates unless a session is active.
//!   Handles ([`Counter`], [`Gauge`], [`Histogram`], [`SpanHandle`])
//!   are resolved against the registry **once at registration**; after
//!   that the hot path is pure `AtomicU64` arithmetic.
//! * **[`MetricsShard`]** is the *deterministic* side: a plain value
//!   type of saturating counters and maxima with a commutative,
//!   associative [`MetricsShard::merge`]. Per-worker shards folded in
//!   canonical shard order (the reorder-buffer discipline used by the
//!   scenario sweep executor and the model checker's instance sweep)
//!   render byte-identical output at every thread count, which is what
//!   the equivalence suites assert.
//!
//! A process records into the global recorder only between
//! [`ObsSession::start`] and [`ObsSession::finish`]. Sessions are
//! serialized by a process-wide gate so concurrent tests cannot
//! interleave counters; `finish` returns an [`ObsReport`] that renders
//! to the three sinks: a human summary table, a newline-JSON event log,
//! and a Chrome/Perfetto `trace_events` JSON document (see
//! [`ObsReport::render_chrome_trace`] and [`validate_chrome_trace`]).

mod registry;
mod shard;
mod sink;
mod span;

pub use registry::{
    counter, enabled, gauge, histogram, span_handle, Counter, Gauge, Histogram, HistogramSnapshot,
    Registry, SpanStatSnapshot,
};
pub use shard::MetricsShard;
pub use sink::{validate_chrome_trace, ObsReport};
pub use span::{instant, span, Span, SpanHandle, TraceEvent};

use std::sync::atomic::Ordering;
use std::sync::{Mutex, MutexGuard, OnceLock};

/// How much the global recorder captures, and which sink the CLI
/// renders at the end of the command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObsMode {
    /// No recording at all: every instrumentation site reduces to one
    /// relaxed load. This is the default.
    Off,
    /// Counters, gauges, histograms, and span *aggregates* (count,
    /// total, min, max) — no per-event trace buffer. Rendered as a
    /// human table.
    Summary,
    /// Everything `Summary` records, plus the bounded trace-event
    /// buffer, rendered as a newline-JSON event log.
    Json,
    /// Everything `Summary` records, plus the bounded trace-event
    /// buffer, rendered as Chrome/Perfetto `trace_events` JSON.
    Chrome,
}

impl ObsMode {
    /// Parses a CLI argument (`off | summary | json | chrome`).
    pub fn parse(s: &str) -> Option<ObsMode> {
        match s {
            "off" => Some(ObsMode::Off),
            "summary" => Some(ObsMode::Summary),
            "json" => Some(ObsMode::Json),
            "chrome" => Some(ObsMode::Chrome),
            _ => None,
        }
    }

    /// The canonical CLI spelling (round-trips through [`ObsMode::parse`]).
    pub fn name(self) -> &'static str {
        match self {
            ObsMode::Off => "off",
            ObsMode::Summary => "summary",
            ObsMode::Json => "json",
            ObsMode::Chrome => "chrome",
        }
    }

    /// Whether this mode keeps individual trace events (as opposed to
    /// aggregates only).
    pub fn captures_events(self) -> bool {
        matches!(self, ObsMode::Json | ObsMode::Chrome)
    }

    fn level(self) -> u8 {
        match self {
            ObsMode::Off => registry::LEVEL_OFF,
            ObsMode::Summary => registry::LEVEL_STATS,
            ObsMode::Json | ObsMode::Chrome => registry::LEVEL_EVENTS,
        }
    }
}

fn session_gate() -> &'static Mutex<()> {
    static GATE: OnceLock<Mutex<()>> = OnceLock::new();
    GATE.get_or_init(|| Mutex::new(()))
}

/// An exclusive recording window over the global recorder.
///
/// `start` resets the registry and trace buffer and raises the global
/// level; `finish` (or drop) lowers it back to off. A process-wide
/// mutex serializes sessions so tests running `--obs` commands in
/// parallel cannot interleave counters. The gate is poison-tolerant: a
/// panic inside one session does not wedge every later one.
pub struct ObsSession {
    mode: ObsMode,
    _gate: MutexGuard<'static, ()>,
}

impl ObsSession {
    /// Opens a session: waits for any other in-process session to end,
    /// zeroes all registered metrics and the trace buffer, and enables
    /// recording at `mode`'s level.
    pub fn start(mode: ObsMode) -> ObsSession {
        let gate = session_gate()
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        registry::global().reset();
        span::reset_trace();
        registry::LEVEL.store(mode.level(), Ordering::SeqCst);
        ObsSession { mode, _gate: gate }
    }

    /// The mode this session was opened with.
    pub fn mode(&self) -> ObsMode {
        self.mode
    }

    /// Stops recording and snapshots everything recorded during the
    /// session into an [`ObsReport`].
    pub fn finish(self) -> ObsReport {
        registry::LEVEL.store(registry::LEVEL_OFF, Ordering::SeqCst);
        let (events, dropped_events) = span::drain_trace();
        let reg = registry::global().snapshot();
        ObsReport {
            mode: self.mode,
            counters: reg.counters,
            gauges: reg.gauges,
            histograms: reg.histograms,
            spans: reg.spans,
            events,
            dropped_events,
        }
    }
}

impl Drop for ObsSession {
    fn drop(&mut self) {
        // `finish` already lowered the level; this covers early drops
        // (including panics mid-session) so recording never outlives
        // the gate.
        registry::LEVEL.store(registry::LEVEL_OFF, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_names_round_trip() {
        for mode in [
            ObsMode::Off,
            ObsMode::Summary,
            ObsMode::Json,
            ObsMode::Chrome,
        ] {
            assert_eq!(ObsMode::parse(mode.name()), Some(mode));
        }
        assert_eq!(ObsMode::parse("perfetto"), None);
    }

    #[test]
    fn disabled_recording_is_invisible() {
        let c = counter("test.disabled.counter");
        c.add(7);
        let session = ObsSession::start(ObsMode::Summary);
        let report = session.finish();
        let got = report
            .counters
            .iter()
            .find(|(name, _)| name == "test.disabled.counter")
            .map(|(_, v)| *v);
        assert_eq!(got, Some(0), "adds outside a session must not land");
    }

    #[test]
    fn session_records_counters_spans_and_histograms() {
        let session = ObsSession::start(ObsMode::Chrome);
        let c = counter("test.session.counter");
        c.add(3);
        c.inc();
        gauge("test.session.gauge").record_max(41);
        gauge("test.session.gauge").record_max(12);
        histogram("test.session.hist").observe(5);
        let handle = span_handle("test", "test.session.span");
        {
            let mut s = handle.start();
            s.arg("k", 9);
        }
        drop(span("test", "one-shot"));
        instant("test", "marker", &[("n", 1)]);
        let report = session.finish();

        assert!(report
            .counters
            .contains(&("test.session.counter".to_string(), 4)));
        assert!(report
            .gauges
            .contains(&("test.session.gauge".to_string(), 41)));
        let hist = report
            .histograms
            .iter()
            .find(|(name, _)| name == "test.session.hist")
            .map(|(_, snap)| snap.clone())
            .expect("histogram registered");
        assert_eq!((hist.count, hist.sum), (1, 5));
        let span_stat = report
            .spans
            .iter()
            .find(|(name, _)| name == "test.session.span")
            .map(|(_, s)| s.clone())
            .expect("span aggregated");
        assert_eq!(span_stat.count, 1);
        assert!(span_stat.max_ns >= span_stat.min_ns);
        // Chrome mode keeps the individual events too: the two spans
        // plus the instant marker.
        assert_eq!(report.events.len(), 3);
        assert_eq!(report.dropped_events, 0);
    }

    #[test]
    fn summary_mode_aggregates_without_events() {
        let session = ObsSession::start(ObsMode::Summary);
        drop(span("test", "agg-only"));
        let report = session.finish();
        assert!(report.events.is_empty());
        assert!(report.spans.iter().any(|(name, _)| name == "agg-only"));
    }

    #[test]
    fn sessions_reset_between_runs() {
        let session = ObsSession::start(ObsMode::Summary);
        counter("test.reset.counter").add(10);
        drop(session.finish());
        let session = ObsSession::start(ObsMode::Summary);
        let report = session.finish();
        let got = report
            .counters
            .iter()
            .find(|(name, _)| name == "test.reset.counter")
            .map(|(_, v)| *v);
        assert_eq!(got, Some(0));
    }
}
