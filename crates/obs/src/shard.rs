//! Deterministic, mergeable metrics: the value-type side of the crate.
//!
//! A [`MetricsShard`] carries no atomics and touches no global state.
//! Workers build one per unit of work (sweep cell, exploration, engine
//! run); the executor folds them in canonical order — the same
//! reorder-buffer discipline the scenario sweep and the model checker's
//! instance sweep already use — and because [`MetricsShard::merge`] is
//! commutative and associative over saturating adds and maxima, the
//! folded shard (and therefore [`MetricsShard::render`] output) is
//! bit-identical at every thread count. The equivalence suites assert
//! exactly that.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A deterministic bag of saturating counters and high-water marks.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsShard {
    counts: BTreeMap<String, u64>,
    maxes: BTreeMap<String, u64>,
}

impl MetricsShard {
    /// An empty shard — the identity element of [`MetricsShard::merge`].
    pub fn new() -> MetricsShard {
        MetricsShard::default()
    }

    /// Adds `n` to the counter `key` (saturating).
    pub fn add(&mut self, key: impl Into<String>, n: u64) {
        let slot = self.counts.entry(key.into()).or_insert(0);
        *slot = slot.saturating_add(n);
    }

    /// Raises the high-water mark `key` to `v` if larger.
    pub fn record_max(&mut self, key: impl Into<String>, v: u64) {
        let slot = self.maxes.entry(key.into()).or_insert(0);
        *slot = (*slot).max(v);
    }

    /// Folds `other` into `self`: counters add (saturating), marks max.
    pub fn merge(&mut self, other: &MetricsShard) {
        for (key, v) in &other.counts {
            let slot = self.counts.entry(key.clone()).or_insert(0);
            *slot = slot.saturating_add(*v);
        }
        for (key, v) in &other.maxes {
            let slot = self.maxes.entry(key.clone()).or_insert(0);
            *slot = (*slot).max(*v);
        }
    }

    /// The counter `key` (0 when absent).
    pub fn count(&self, key: &str) -> u64 {
        self.counts.get(key).copied().unwrap_or(0)
    }

    /// The high-water mark `key` (0 when absent).
    pub fn max(&self, key: &str) -> u64 {
        self.maxes.get(key).copied().unwrap_or(0)
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty() && self.maxes.is_empty()
    }

    /// Number of distinct keys (counters + marks).
    pub fn len(&self) -> usize {
        self.counts.len() + self.maxes.len()
    }

    /// Canonical text rendering: one `kind key value` line per entry,
    /// keys sorted within kind. Two shards are equal iff their
    /// renderings are byte-identical, which is what the thread-count
    /// equivalence suites compare.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (key, v) in &self.counts {
            let _ = writeln!(out, "count {key} {v}");
        }
        for (key, v) in &self.maxes {
            let _ = writeln!(out, "max {key} {v}");
        }
        out
    }

    /// Publishes the shard into the global recorder (counters add,
    /// marks raise gauges) so deterministic metrics appear in `--obs`
    /// sinks next to the timing data. Inert when no session records.
    pub fn publish(&self) {
        if !crate::enabled() {
            return;
        }
        for (key, v) in &self.counts {
            crate::counter(key).add(*v);
        }
        for (key, v) in &self.maxes {
            crate::gauge(key).record_max(*v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_is_commutative_on_samples() {
        let mut a = MetricsShard::new();
        a.add("steps", 3);
        a.record_max("work", 9);
        let mut b = MetricsShard::new();
        b.add("steps", 4);
        b.add("rounds", 1);
        b.record_max("work", 2);

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.render(), ba.render());
        assert_eq!(ab.count("steps"), 7);
        assert_eq!(ab.max("work"), 9);
    }

    #[test]
    fn empty_is_identity() {
        let mut a = MetricsShard::new();
        a.add("x", 5);
        let snapshot = a.clone();
        a.merge(&MetricsShard::new());
        assert_eq!(a, snapshot);
        let mut e = MetricsShard::new();
        e.merge(&snapshot);
        assert_eq!(e, snapshot);
    }

    #[test]
    fn saturating_add_never_wraps() {
        let mut a = MetricsShard::new();
        a.add("big", u64::MAX - 1);
        a.add("big", 10);
        assert_eq!(a.count("big"), u64::MAX);
    }

    #[test]
    fn render_is_canonical_and_kind_separated() {
        let mut a = MetricsShard::new();
        a.record_max("zeta", 1);
        a.add("alpha", 2);
        a.add("beta", 3);
        assert_eq!(a.render(), "count alpha 2\ncount beta 3\nmax zeta 1\n");
    }
}
