//! Mergeable streaming statistics for sweep results: count/mean/M2
//! moments plus fixed-grid quantile sketches, so a matrix sweep's
//! memory stays O(metrics × points) instead of O(cells).
//!
//! Every accumulator here supports `merge`, so per-cell results can be
//! folded into per-point summaries and per-point summaries into the
//! whole-sweep roll-up. Determinism contract:
//!
//! * [`FixedGridQuantiles`] merges are **exactly** associative and
//!   commutative — bins are integer counts, addition is addition.
//! * [`Moments`] merges use Chan's parallel update; counts, min, and
//!   max merge exactly, while mean/M2 are floating-point and only
//!   associative up to rounding. The sweep executor therefore folds
//!   cells in canonical matrix order regardless of worker completion
//!   order, which makes the merged values — and their serialized JSON —
//!   **bit-identical** between serial and parallel sweeps.
//!
//! Both properties are property-tested in
//! `tests/proptest_stats.rs` (shuffled folds vs a single pass, plus
//! empty/singleton identities).

use crate::engine::ScenarioRecord;

/// Streaming count/mean/M2 moments with min/max, mergeable à la
/// Chan et al. (the parallel Welford update).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Moments {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Default for Moments {
    fn default() -> Self {
        Self::new()
    }
}

impl Moments {
    /// The empty accumulator (the identity of [`Moments::merge`]).
    pub fn new() -> Self {
        Moments {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// A single-observation accumulator.
    pub fn of(x: f64) -> Self {
        Moments {
            count: 1,
            mean: x,
            m2: 0.0,
            min: x,
            max: x,
        }
    }

    /// Adds one observation. Defined as `merge(of(x))`, so pushing is
    /// exactly the singleton merge (the Welford update falls out of
    /// Chan's formula at `n₂ = 1`).
    pub fn push(&mut self, x: f64) {
        self.merge(&Moments::of(x));
    }

    /// Folds `other` into `self` (Chan's parallel moments update).
    pub fn merge(&mut self, other: &Moments) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let n = n1 + n2;
        let delta = other.mean - self.mean;
        self.mean += delta * (n2 / n);
        self.m2 += other.m2 + delta * delta * (n1 * n2 / n);
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0 when fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation (0 when empty).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest observation (0 when empty).
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }
}

/// Number of bins every [`FixedGridQuantiles`] sketch uses.
pub const QUANTILE_BINS: usize = 64;

/// A fixed-grid quantile sketch: `QUANTILE_BINS` equal-width bins over
/// a caller-chosen `[lo, hi]` range, observations clamped into the edge
/// bins. Chosen over P² because integer bin counts make the merge
/// **exactly** associative and commutative — the property the
/// serial/parallel equivalence contract leans on — at the cost of
/// quantile resolution bounded by the grid width.
#[derive(Debug, Clone, PartialEq)]
pub struct FixedGridQuantiles {
    lo: f64,
    hi: f64,
    bins: Vec<u64>,
    count: u64,
}

impl FixedGridQuantiles {
    /// An empty sketch over `[lo, hi]` (`lo < hi` required).
    pub fn new(lo: f64, hi: f64) -> Self {
        assert!(lo < hi, "quantile grid needs lo < hi, got [{lo}, {hi}]");
        FixedGridQuantiles {
            lo,
            hi,
            bins: vec![0; QUANTILE_BINS],
            count: 0,
        }
    }

    /// Adds one observation, clamped into the grid range.
    pub fn push(&mut self, x: f64) {
        let span = self.hi - self.lo;
        let pos = ((x - self.lo) / span * QUANTILE_BINS as f64).floor();
        let idx = (pos.max(0.0) as usize).min(QUANTILE_BINS - 1);
        self.bins[idx] += 1;
        self.count += 1;
    }

    /// Folds `other` into `self` by adding bin counts — exactly
    /// associative and commutative.
    ///
    /// # Panics
    ///
    /// Panics when the grids differ (merging sketches over different
    /// ranges is a programming error, not a data condition).
    pub fn merge(&mut self, other: &FixedGridQuantiles) {
        assert!(
            self.lo == other.lo && self.hi == other.hi,
            "cannot merge quantile sketches over different grids \
             ([{}, {}] vs [{}, {}])",
            self.lo,
            self.hi,
            other.lo,
            other.hi
        );
        for (a, b) in self.bins.iter_mut().zip(&other.bins) {
            *a += b;
        }
        self.count += other.count;
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Estimated `q`-quantile (`q` clamped into `[0, 1]`): walks the
    /// cumulative bin counts to the target rank and interpolates
    /// linearly inside the bin, placing rank `r` of a `c`-count bin at
    /// its `(r − ½)/c` point. The midpoint placement keeps every
    /// estimate *strictly inside* its bin — `quantile(0.0)` cannot
    /// report the first occupied bin's upper edge, and a single
    /// observation at a bin's lower edge is no longer reported a full
    /// bin-width high. Returns 0 when empty; accuracy is bounded by the
    /// bin width, and observations outside the grid range clamp to its
    /// edges.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        // Target rank in [1, count]: the ceil keeps q = 0.5 of two
        // observations on the first, matching the "lower median".
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let width = (self.hi - self.lo) / QUANTILE_BINS as f64;
        let mut seen = 0u64;
        for (i, &c) in self.bins.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if seen + c >= rank {
                let into = ((rank - seen) as f64 - 0.5) / c as f64;
                return self.lo + (i as f64 + into) * width;
            }
            seen += c;
        }
        self.hi
    }
}

/// One metric's full streaming summary: moments + quantile sketch,
/// merged together.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSketch {
    /// Count/mean/M2/min/max.
    pub moments: Moments,
    /// Fixed-grid quantile sketch.
    pub quantiles: FixedGridQuantiles,
}

impl MetricSketch {
    /// An empty sketch whose quantile grid covers `[lo, hi]`.
    pub fn new(lo: f64, hi: f64) -> Self {
        MetricSketch {
            moments: Moments::new(),
            quantiles: FixedGridQuantiles::new(lo, hi),
        }
    }

    /// Adds one observation to both accumulators.
    pub fn push(&mut self, x: f64) {
        self.moments.push(x);
        self.quantiles.push(x);
    }

    /// Folds `other` into `self`.
    pub fn merge(&mut self, other: &MetricSketch) {
        self.moments.merge(&other.moments);
        self.quantiles.merge(&other.quantiles);
    }

    /// Estimated `q`-quantile, clamped into the observed
    /// `[min, max]` range. The raw grid estimate interpolates inside a
    /// bin, so on a sketch whose observations all land in one bin it
    /// could otherwise report a median *above the maximum observation*
    /// — an internally inconsistent summary row. Min and max merge
    /// exactly, so the clamp preserves serial/parallel bit-identity.
    pub fn quantile(&self, q: f64) -> f64 {
        self.quantiles
            .quantile(q)
            .clamp(self.moments.min(), self.moments.max())
    }
}

/// Upper edge of the stretch quantile grid: delivered-packet stretch
/// above 8× the shortest path clamps into the top bin.
pub const STRETCH_GRID_HI: f64 = 8.0;

/// The streaming aggregate of one matrix point (or a whole sweep):
/// everything the sweep-summary rows report, mergeable so per-cell
/// results fold in without retaining them.
#[derive(Debug, Clone, PartialEq)]
pub struct PointStats {
    /// Convergence ticks, one observation per `"event"` row (the start
    /// row and every churn event of every cell).
    pub convergence: MetricSketch,
    /// Route stretch, one observation per cell that delivered at least
    /// one priced packet. A summary row's `stretch = 0.0` is a
    /// sentinel ("nothing delivered" or a trafficless protocol), not a
    /// sub-shortest-path route — absorbing it would drag the mean
    /// below the real floor of 1.0.
    pub stretch: MetricSketch,
    /// Delivery rate, one observation per *traffic-carrying* cell
    /// (`injected > 0`). Convergence-only cells report the sentinel
    /// `delivery_rate = 1.0` with nothing injected; counting those
    /// would inflate a mixed-protocol sweep's mean.
    pub delivery: MetricSketch,
    /// Whether every settle phase of every cell quiesced.
    pub quiesced_all: bool,
    /// Whether the structural acyclicity invariant held on every row.
    pub acyclic_all: bool,
    /// Total protocol messages across cells (summary rows).
    pub messages: u64,
    /// Total reversals across cells (summary rows).
    pub total_reversals: u64,
    /// Cells folded in.
    pub cells: usize,
}

impl PointStats {
    /// An empty aggregate. `settle` bounds the convergence grid — a
    /// censored phase reports exactly the settle window, so the grid
    /// covers every representable value.
    pub fn new(settle: u64) -> Self {
        PointStats {
            convergence: MetricSketch::new(0.0, (settle.max(1)) as f64),
            stretch: MetricSketch::new(0.0, STRETCH_GRID_HI),
            delivery: MetricSketch::new(0.0, 1.0),
            quiesced_all: true,
            acyclic_all: true,
            messages: 0,
            total_reversals: 0,
            cells: 0,
        }
    }

    /// Folds one cell's records (one `run_scenario` outcome) into the
    /// aggregate. The records themselves can be dropped afterwards —
    /// this is the O(metrics) part.
    pub fn absorb_cell(&mut self, records: &[ScenarioRecord]) {
        self.cells += 1;
        for rec in records {
            self.quiesced_all &= rec.quiesced;
            self.acyclic_all &= rec.acyclic;
            match rec.row.as_str() {
                "event" => self.convergence.push(rec.convergence_ticks as f64),
                "summary" => {
                    if rec.injected > 0 {
                        self.delivery.push(rec.delivery_rate);
                    }
                    if rec.stretch > 0.0 {
                        self.stretch.push(rec.stretch);
                    }
                    self.messages += rec.messages;
                    self.total_reversals += rec.total_reversals;
                }
                _ => {}
            }
        }
    }

    /// Folds another aggregate in (points into the sweep roll-up).
    pub fn merge(&mut self, other: &PointStats) {
        self.convergence.merge(&other.convergence);
        self.stretch.merge(&other.stretch);
        self.delivery.merge(&other.delivery);
        self.quiesced_all &= other.quiesced_all;
        self.acyclic_all &= other.acyclic_all;
        self.messages += other.messages;
        self.total_reversals += other.total_reversals;
        self.cells += other.cells;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn moments_match_naive_formulas() {
        let xs = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0];
        let mut m = Moments::new();
        for &x in &xs {
            m.push(x);
        }
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        assert_eq!(m.count(), xs.len() as u64);
        assert!((m.mean() - mean).abs() < 1e-12);
        assert!((m.variance() - var).abs() < 1e-12);
        assert_eq!(m.min(), 1.0);
        assert_eq!(m.max(), 9.0);
    }

    #[test]
    fn empty_moments_report_zeroes() {
        let m = Moments::new();
        assert_eq!(m.count(), 0);
        assert_eq!(m.mean(), 0.0);
        assert_eq!(m.variance(), 0.0);
        assert_eq!(m.min(), 0.0);
        assert_eq!(m.max(), 0.0);
    }

    #[test]
    fn quantiles_hit_exact_values_on_a_uniform_fill() {
        let mut q = FixedGridQuantiles::new(0.0, 64.0);
        for i in 0..64 {
            q.push(i as f64 + 0.5);
        }
        // One observation per bin, each at its bin midpoint: with the
        // (rank − ½)/c placement the estimates ARE the samples.
        assert!((q.quantile(0.5) - 31.5).abs() < 1e-9);
        assert!((q.quantile(0.0) - 0.5).abs() < 1e-9);
        assert!((q.quantile(1.0) - 63.5).abs() < 1e-9);
        assert_eq!(q.count(), 64);
    }

    #[test]
    fn quantile_sketch_clamps_out_of_range_observations() {
        let mut q = FixedGridQuantiles::new(0.0, 10.0);
        q.push(-5.0);
        q.push(100.0);
        assert_eq!(q.count(), 2);
        let width = 10.0 / QUANTILE_BINS as f64;
        // Below-range clamps into bin 0, above-range into the top bin;
        // the estimates sit at those bins' midpoints.
        assert!((q.quantile(0.0) - width / 2.0).abs() < 1e-9);
        assert!((q.quantile(1.0) - (10.0 - width / 2.0)).abs() < 1e-9);
    }

    /// Regression (pre-fix failure): `(rank − seen)/c` interpolation
    /// reported the *upper* edge of the occupied bin, so a single
    /// observation at a bin's lower edge came back a full bin-width
    /// high and `quantile(0.0)` could exceed the true minimum by a
    /// whole bin.
    #[test]
    fn single_sample_quantile_stays_strictly_inside_its_bin() {
        let mut q = FixedGridQuantiles::new(0.0, 64.0);
        q.push(0.0); // lower edge of bin 0
        let width = 64.0 / QUANTILE_BINS as f64;
        for p in [0.0, 0.5, 1.0] {
            let est = q.quantile(p);
            assert!(
                est < width,
                "q{p} = {est} escaped bin 0 (width {width}) for a single sample at 0"
            );
        }
    }

    /// Edge pin: samples exactly at `hi` land in the top bin (not an
    /// out-of-bounds bin), and every quantile of such a fill reports
    /// from inside that bin.
    #[test]
    fn samples_exactly_at_hi_land_in_the_top_bin() {
        let mut q = FixedGridQuantiles::new(0.0, 8.0);
        for _ in 0..4 {
            q.push(8.0);
        }
        assert_eq!(q.count(), 4);
        let width = 8.0 / QUANTILE_BINS as f64;
        for p in [0.0, 0.5, 0.99, 1.0] {
            let est = q.quantile(p);
            assert!(
                est > 8.0 - width && est <= 8.0,
                "q{p} = {est} outside the top bin ({}, 8]",
                8.0 - width
            );
        }
    }

    /// Edge pin: with every sample identical, all raw grid estimates
    /// stay inside the one occupied bin, and the [`MetricSketch`]
    /// clamp turns every quantile into exactly the observed value.
    #[test]
    fn all_identical_samples_answer_every_quantile_identically() {
        let mut s = MetricSketch::new(0.0, 100.0);
        for _ in 0..1000 {
            s.push(42.0);
        }
        let width = 100.0 / QUANTILE_BINS as f64;
        let bin_lo = (42.0 / width).floor() * width;
        for p in [0.0, 0.25, 0.5, 0.75, 0.99, 1.0] {
            let raw = s.quantiles.quantile(p);
            assert!(
                raw > bin_lo && raw < bin_lo + width,
                "raw q{p} = {raw} left the occupied bin [{bin_lo}, {})",
                bin_lo + width
            );
            assert_eq!(s.quantile(p), 42.0, "clamped estimate at q{p}");
        }
    }

    /// Edge pin: after merging two sketches whose data occupy disjoint
    /// halves of the grid, `quantile(0.0)` answers from the lowest
    /// occupied bin and `quantile(1.0)` from the highest — the merge
    /// cannot smear the extremes across the gap.
    #[test]
    fn extreme_quantiles_after_merging_disjoint_fills() {
        let mut low = FixedGridQuantiles::new(0.0, 64.0);
        let mut high = FixedGridQuantiles::new(0.0, 64.0);
        for i in 0..8 {
            low.push(i as f64 + 0.5); // bins 0..8
            high.push(56.5 + i as f64); // bins 56..64
        }
        low.merge(&high);
        assert_eq!(low.count(), 16);
        assert!((low.quantile(0.0) - 0.5).abs() < 1e-9, "min from bin 0");
        assert!((low.quantile(1.0) - 63.5).abs() < 1e-9, "max from bin 63");
        // The median straddles the gap: rank 8 is the last low sample.
        assert!((low.quantile(0.5) - 7.5).abs() < 1e-9);
    }

    #[test]
    fn metric_sketch_quantiles_never_leave_the_observed_range() {
        // All observations land in the first bin of a wide grid: the
        // raw bin interpolation would report ~p50 above the max.
        let mut s = MetricSketch::new(0.0, 1500.0);
        for x in [2.0, 3.0, 8.0] {
            s.push(x);
        }
        for q in [0.0, 0.5, 0.9, 1.0] {
            let est = s.quantile(q);
            assert!((2.0..=8.0).contains(&est), "q{q} = {est} outside [2, 8]");
        }
        assert_eq!(MetricSketch::new(0.0, 1.0).quantile(0.5), 0.0, "empty");
    }

    #[test]
    #[should_panic(expected = "different grids")]
    fn merging_mismatched_grids_panics() {
        let mut a = FixedGridQuantiles::new(0.0, 1.0);
        let b = FixedGridQuantiles::new(0.0, 2.0);
        a.merge(&b);
    }
}
