//! Streaming latency-distribution metrics.
//!
//! The simulator used to accumulate a single latency *sum*, which can only
//! ever report a mean — useless for tail behavior, which is what any
//! traffic-serving deployment actually provisions for.  [`LatencyHistogram`]
//! replaces it: a fixed-bin streaming histogram that records each delivered
//! packet's latency as it completes, in O(1) per sample and a fixed memory
//! footprint, and answers percentile queries afterwards.
//!
//! # Determinism
//!
//! Every field is an integer counter and the bin layout is a compile-time
//! constant, so two simulations that deliver the same packets produce
//! bit-identical histograms — regardless of thread count, platform or the
//! order in which cells of a sweep were scheduled.  Percentiles are computed
//! with the nearest-rank method over integer cumulative counts (no
//! interpolation, no floating-point accumulation), so they inherit that
//! determinism.

use serde::{Deserialize, Serialize};

/// Latencies below this many cycles land in their own exact one-cycle bin;
/// larger latencies share the overflow bin (represented by the observed
/// maximum).  4096 cycles comfortably covers every sub-saturation operating
/// point of the paper's grids (packet transfer alone is 16 cycles; queueing
/// under heavy load adds hundreds, not thousands).
pub const LATENCY_BINS: usize = 4096;

/// A deterministic fixed-bin histogram of packet latencies in cycles.
///
/// Bin `i` counts packets whose latency was exactly `i` cycles
/// (`i < LATENCY_BINS`); everything above is pooled in an overflow bin whose
/// representative value is the maximum latency observed.
///
/// # Examples
///
/// ```
/// use fabric_power_router::metrics::LatencyHistogram;
///
/// let mut histogram = LatencyHistogram::new();
/// for latency in [16, 17, 17, 20, 90] {
///     histogram.record(latency);
/// }
/// assert_eq!(histogram.to_sparse().count, 5);
/// assert_eq!(histogram.percentile(50.0), 17.0);
/// assert_eq!(histogram.percentile(99.0), 90.0);
/// assert!((histogram.mean() - 32.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyHistogram {
    /// One exact count per latency value below [`LATENCY_BINS`].
    bins: Vec<u64>,
    /// Samples at or above [`LATENCY_BINS`] cycles.
    overflow: u64,
    /// Total samples recorded.
    count: u64,
    /// Exact sum of all recorded latencies (integers, so no rounding).
    sum: u64,
    /// Largest latency recorded (the overflow bin's representative).
    max: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self {
            bins: vec![0; LATENCY_BINS],
            overflow: 0,
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Records one packet latency in cycles.
    pub fn record(&mut self, latency_cycles: u64) {
        match usize::try_from(latency_cycles) {
            Ok(index) if index < LATENCY_BINS => self.bins[index] += 1,
            _ => self.overflow += 1,
        }
        self.count += 1;
        self.sum += latency_cycles;
        self.max = self.max.max(latency_cycles);
    }

    /// Mean latency in cycles (0 when empty).
    ///
    /// The sum is an exact integer, so this matches a running floating-point
    /// sum of the same samples bit for bit (every partial sum of cycle counts
    /// is far below 2^53).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The `q`-th percentile latency in cycles, by the nearest-rank method:
    /// the smallest recorded latency whose cumulative count reaches
    /// `ceil(q/100 × count)`.
    ///
    /// Returns 0 for an empty histogram.  Samples in the overflow bin are
    /// represented by the maximum latency observed.  Because the rank is
    /// monotone in `q`, `percentile(50) ≤ percentile(95) ≤ percentile(99)`
    /// always holds.
    #[must_use]
    pub fn percentile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 100.0);
        // Integer rank: ceil(q/100 * count), at least 1.
        #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
        let rank = ((q / 100.0 * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cumulative = 0_u64;
        for (latency, &bucket) in self.bins.iter().enumerate() {
            cumulative += bucket;
            if cumulative >= rank {
                return latency as f64;
            }
        }
        // The rank falls in the overflow bin.
        self.max as f64
    }

    /// The three tail summary values carried by simulation reports and sweep
    /// points, in order: p50, p95, p99.
    #[must_use]
    pub fn summary(&self) -> [f64; 3] {
        [
            self.percentile(50.0),
            self.percentile(95.0),
            self.percentile(99.0),
        ]
    }

    /// Exports the distribution in the sparse form documents carry: only the
    /// non-zero bins, as ascending `(latency, count)` pairs, plus the exact
    /// totals.
    #[must_use]
    pub fn to_sparse(&self) -> SparseLatencyHistogram {
        SparseLatencyHistogram {
            bins: self
                .bins
                .iter()
                .enumerate()
                .filter(|&(_, &count)| count > 0)
                .map(|(latency, &count)| (latency as u64, count))
                .collect(),
            overflow: self.overflow,
            count: self.count,
            sum: self.sum,
            max: self.max,
        }
    }
}

/// The sparse, document-friendly form of a [`LatencyHistogram`].
///
/// A dense histogram is almost entirely zeros ([`LATENCY_BINS`] bins, of
/// which a typical sub-saturation cell populates a few dozen), so sweep
/// documents carry only the non-zero `(latency, count)` pairs plus the same
/// exact totals the dense form keeps ([`LatencyHistogram::to_sparse`]).  An
/// empty value is what a document written before this field existed
/// deserializes to via `#[serde(default)]`.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct SparseLatencyHistogram {
    /// `(latency in cycles, samples)` for every non-zero exact bin,
    /// ascending by latency.
    #[serde(default)]
    pub bins: Vec<(u64, u64)>,
    /// Samples at or above [`LATENCY_BINS`] cycles (represented by `max`).
    #[serde(default)]
    pub overflow: u64,
    /// Total samples recorded.
    #[serde(default)]
    pub count: u64,
    /// Exact sum of all recorded latencies.
    #[serde(default)]
    pub sum: u64,
    /// Largest latency recorded.
    #[serde(default)]
    pub max: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_is_all_zero() {
        let histogram = LatencyHistogram::new();
        assert_eq!(histogram.count, 0);
        assert_eq!(histogram.mean(), 0.0);
        assert_eq!(histogram.percentile(50.0), 0.0);
        assert_eq!(histogram.percentile(99.0), 0.0);
        assert_eq!(histogram.max, 0);
    }

    #[test]
    fn single_sample_is_every_percentile() {
        let mut histogram = LatencyHistogram::new();
        histogram.record(23);
        for q in [0.0, 1.0, 50.0, 95.0, 99.0, 100.0] {
            assert_eq!(histogram.percentile(q), 23.0, "q = {q}");
        }
        assert_eq!(histogram.mean(), 23.0);
    }

    #[test]
    fn nearest_rank_matches_a_sorted_reference() {
        // 1..=100: pN is exactly N by the nearest-rank definition.
        let mut histogram = LatencyHistogram::new();
        for latency in 1..=100 {
            histogram.record(latency);
        }
        assert_eq!(histogram.percentile(50.0), 50.0);
        assert_eq!(histogram.percentile(95.0), 95.0);
        assert_eq!(histogram.percentile(99.0), 99.0);
        assert_eq!(histogram.percentile(100.0), 100.0);
        assert_eq!(histogram.percentile(1.0), 1.0);
    }

    #[test]
    fn percentiles_are_monotone_in_q() {
        let mut histogram = LatencyHistogram::new();
        let mut state = 0x1234_5678_u64;
        for _ in 0..500 {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            histogram.record(state % 700);
        }
        let [p50, p95, p99] = histogram.summary();
        assert!(p50 <= p95, "{p50} vs {p95}");
        assert!(p95 <= p99, "{p95} vs {p99}");
        assert!(p99 <= histogram.max as f64);
    }

    #[test]
    fn overflow_samples_report_the_observed_maximum() {
        let mut histogram = LatencyHistogram::new();
        histogram.record(10);
        histogram.record(LATENCY_BINS as u64 + 500);
        histogram.record(LATENCY_BINS as u64 + 900);
        assert_eq!(histogram.overflow, 2);
        assert_eq!(
            histogram.percentile(99.0),
            (LATENCY_BINS as u64 + 900) as f64
        );
        assert_eq!(histogram.percentile(1.0), 10.0);
    }

    #[test]
    fn sparse_export_round_trips_losslessly() {
        let mut histogram = LatencyHistogram::new();
        for latency in [16, 16, 17, 20, 20, 20, 4100, 9000] {
            histogram.record(latency);
        }
        let sparse = histogram.to_sparse();
        assert_eq!(sparse.bins, vec![(16, 2), (17, 1), (20, 3)]);
        assert_eq!(sparse.overflow, 2);
        assert_eq!(sparse.count, 8);
        assert_eq!(sparse.sum, 13_209);
        assert_eq!(sparse.max, 9000);
        // And through JSON, which is how documents carry it.
        let json = serde_json::to_string(&sparse).expect("serialize");
        let back: SparseLatencyHistogram = serde_json::from_str(&json).expect("parse");
        assert_eq!(back, sparse);
    }

    #[test]
    fn empty_sparse_histogram_is_default_and_expands_empty() {
        let sparse = SparseLatencyHistogram::default();
        assert_eq!(sparse.count, 0);
        assert_eq!(LatencyHistogram::new().to_sparse(), sparse);
        // `{}` — the serde(default) shape of a pre-field document — parses.
        let back: SparseLatencyHistogram = serde_json::from_str("{}").expect("parse");
        assert_eq!(back, sparse);
    }
}
