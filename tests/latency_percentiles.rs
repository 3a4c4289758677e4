//! Determinism and ordering guarantees of the streaming latency-distribution
//! metrics: the histogram-derived percentiles are a pure function of the
//! workload (thread count must not show), and `p50 ≤ p95 ≤ p99` holds for
//! every distribution the histogram can record.

use proptest::prelude::*;

use fabric_power_router::metrics::{LatencyHistogram, LATENCY_BINS};
use fabric_power_sweep::{ExperimentConfig, SweepEngine};

#[test]
fn percentiles_are_identical_at_one_and_eight_threads() {
    let config = ExperimentConfig {
        port_counts: vec![4, 8],
        offered_loads: vec![0.2, 0.4],
        warmup_cycles: 50,
        measure_cycles: 300,
        ..ExperimentConfig::paper()
    };
    let single = SweepEngine::new().with_threads(1).run(&config).unwrap();
    let parallel = SweepEngine::new().with_threads(8).run(&config).unwrap();
    assert_eq!(single.len(), parallel.len());
    for (a, b) in single.iter().zip(&parallel) {
        assert_eq!(a.latency_p50.to_bits(), b.latency_p50.to_bits());
        assert_eq!(a.latency_p95.to_bits(), b.latency_p95.to_bits());
        assert_eq!(a.latency_p99.to_bits(), b.latency_p99.to_bits());
        assert_eq!(
            a.average_latency_cycles.to_bits(),
            b.average_latency_cycles.to_bits()
        );
    }
    // The sweep delivers packets, so the percentiles are real measurements.
    assert!(single.iter().any(|p| p.latency_p99 > 0.0));
}

/// A deterministic pseudo-random latency stream: enough structure to hit
/// exact bins, ties, and the overflow bin, driven by proptest-drawn scalars.
fn latency_stream(seed: u64, count: usize, spread: u64) -> Vec<u64> {
    let mut state = seed | 1;
    (0..count)
        .map(|_| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            state % spread
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn percentiles_are_ordered_for_any_sample_stream(
        seed in any::<u64>(),
        count in 1_usize..400,
        // Spreads both inside the exact-bin region and far into overflow.
        spread in 1_u64..(3 * LATENCY_BINS as u64),
    ) {
        let samples = latency_stream(seed, count, spread);
        let mut histogram = LatencyHistogram::new();
        for &sample in &samples {
            histogram.record(sample);
        }
        let totals = histogram.to_sparse();
        prop_assert_eq!(totals.count, count as u64);

        let p50 = histogram.percentile(50.0);
        let p95 = histogram.percentile(95.0);
        let p99 = histogram.percentile(99.0);
        prop_assert!(p50 <= p95, "p50 {} > p95 {}", p50, p95);
        prop_assert!(p95 <= p99, "p95 {} > p99 {}", p95, p99);
        prop_assert!(p99 <= totals.max as f64);

        // The mean lies within the recorded range.
        let min = *samples.iter().min().unwrap();
        prop_assert!(histogram.mean() >= min as f64);
        prop_assert!(histogram.mean() <= totals.max as f64);
    }

    #[test]
    fn percentiles_match_a_nearest_rank_reference_below_overflow(
        seed in any::<u64>(),
        count in 1_usize..300,
        spread in 1_u64..(LATENCY_BINS as u64),
        q in 1.0_f64..100.0,
    ) {
        let mut samples = latency_stream(seed, count, spread);
        let mut histogram = LatencyHistogram::new();
        for &sample in &samples {
            histogram.record(sample);
        }
        // Nearest-rank over the sorted samples is the textbook definition.
        samples.sort_unstable();
        let rank = ((q / 100.0 * count as f64).ceil() as usize).clamp(1, count);
        prop_assert_eq!(histogram.percentile(q), samples[rank - 1] as f64);
    }
}
