//! Direct property coverage for `TrafficPattern` destination math.
//!
//! The fixed-permutation patterns (tornado, bit-complement, transpose,
//! shifted permutation) were previously exercised only indirectly through
//! whole sweeps; these tests pin their algebraic invariants — bijectivity,
//! involution, self-address avoidance — and the bursty generator's mean
//! burst length, at the unit level.

use proptest::prelude::*;

use fabric_power_router::traffic::{TrafficGenerator, TrafficPattern};

/// All destinations a fixed pattern assigns across every source, skipping
/// the sources that fall back to a uniform destination.
fn fixed_map(pattern: TrafficPattern, ports: usize) -> Vec<(usize, usize)> {
    (0..ports)
        .filter_map(|source| {
            pattern
                .fixed_destination(source, ports)
                .map(|destination| (source, destination))
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn permutation_shift_is_a_bijection(ports in 2_usize..64, shift in 1_usize..64) {
        let pattern = TrafficPattern::Permutation { shift };
        let map = fixed_map(pattern, ports);
        prop_assert_eq!(map.len(), ports);
        let mut destinations: Vec<usize> = map.iter().map(|&(_, d)| d).collect();
        destinations.sort_unstable();
        prop_assert_eq!(destinations, (0..ports).collect::<Vec<_>>());
    }

    #[test]
    fn tornado_is_a_bijection_at_half_span_distance(ports in 2_usize..64) {
        let map = fixed_map(TrafficPattern::Tornado, ports);
        prop_assert_eq!(map.len(), ports);
        let mut destinations = Vec::new();
        for &(source, destination) in &map {
            prop_assert_eq!(destination, (source + ports / 2) % ports);
            destinations.push(destination);
        }
        destinations.sort_unstable();
        prop_assert_eq!(destinations, (0..ports).collect::<Vec<_>>());
    }

    #[test]
    fn bit_complement_is_an_involution(ports in 2_usize..128) {
        let pattern = TrafficPattern::BitComplement;
        for (source, destination) in fixed_map(pattern, ports) {
            prop_assert_ne!(destination, source);
            // Applying the complement twice returns to the source.
            prop_assert_eq!(pattern.fixed_destination(destination, ports), Some(source));
        }
        // Only the middle port of an odd port count falls back to uniform.
        let fallbacks = ports - fixed_map(pattern, ports).len();
        prop_assert_eq!(fallbacks, ports % 2);
    }

    #[test]
    fn transpose_is_an_involution_off_the_diagonal(side in 2_usize..12) {
        let ports = side * side;
        let pattern = TrafficPattern::Transpose;
        let map = fixed_map(pattern, ports);
        // Exactly the `side` diagonal sources fall back to uniform.
        prop_assert_eq!(map.len(), ports - side);
        for (source, destination) in map {
            let (row, column) = (source / side, source % side);
            prop_assert_eq!(destination, column * side + row);
            prop_assert_ne!(destination, source);
            prop_assert_eq!(pattern.fixed_destination(destination, ports), Some(source));
        }
    }

    #[test]
    fn transpose_needs_a_perfect_square(ports in 2_usize..200) {
        let side = (ports as f64).sqrt().round() as usize;
        let is_square = side * side == ports;
        let any_fixed = !fixed_map(TrafficPattern::Transpose, ports).is_empty();
        prop_assert_eq!(any_fixed, is_square && ports > 1);
    }

    #[test]
    fn stochastic_patterns_have_no_fixed_destination(source in 0_usize..16) {
        let patterns = [
            TrafficPattern::UniformRandom,
            TrafficPattern::Hotspot { port: 3, fraction: 0.5 },
            TrafficPattern::Bursty { on_load: 0.8, off_load: 0.1, mean_burst: 20.0 },
        ];
        for pattern in patterns {
            prop_assert_eq!(pattern.fixed_destination(source, 16), None);
        }
    }
}

#[test]
fn transpose_generator_swaps_rows_and_columns_on_a_square_count() {
    let mut generator = TrafficGenerator::new(16, 1.0, 1, TrafficPattern::Transpose, 11).unwrap();
    for source in 0..16 {
        let (row, column) = (source / 4, source % 4);
        for cycle in 0..50 {
            if let Some(packet) = generator.arrivals(source, cycle) {
                if row == column {
                    // Diagonal sources fall back to uniform destinations.
                    assert_ne!(packet.destination, source);
                } else {
                    assert_eq!(packet.destination, column * 4 + row);
                }
            }
        }
    }
}

#[test]
fn transpose_generator_degrades_to_uniform_on_a_non_square_count() {
    let mut generator = TrafficGenerator::new(8, 1.0, 1, TrafficPattern::Transpose, 12).unwrap();
    let mut seen = std::collections::HashSet::new();
    for cycle in 0..2000 {
        if let Some(packet) = generator.arrivals(0, cycle) {
            assert_ne!(packet.destination, 0);
            seen.insert(packet.destination);
        }
    }
    assert_eq!(seen.len(), 7, "uniform fallback covers every other port");
}

#[test]
fn bursty_mean_burst_length_matches_the_dwell_parameter() {
    // ON at load 1.0 with single-word packets arrives every ON cycle;
    // OFF at load ~0 never arrives — so the per-port arrival run lengths
    // expose the hidden two-state chain directly, and their mean must track
    // `mean_burst` (geometric dwell ⇒ mean run length = mean_burst).
    let mean_burst = 25.0;
    let pattern = TrafficPattern::Bursty {
        on_load: 1.0,
        off_load: 0.0,
        mean_burst,
    };
    let mut generator = TrafficGenerator::new(2, 0.5, 1, pattern, 13).unwrap();
    let cycles = 60_000_u64;
    let mut runs = 0_u64;
    let mut on_cycles = 0_u64;
    let mut previous_arrived = false;
    for cycle in 0..cycles {
        for port in 0..2 {
            let arrived = generator.arrivals(port, cycle).is_some();
            if port == 0 {
                if arrived {
                    on_cycles += 1;
                    if !previous_arrived {
                        runs += 1;
                    }
                }
                previous_arrived = arrived;
            }
        }
    }
    assert!(runs > 100, "expected many bursts, saw {runs}");
    let measured = on_cycles as f64 / runs as f64;
    assert!(
        (measured - mean_burst).abs() < mean_burst * 0.25,
        "mean burst length {measured}, expected ≈ {mean_burst}"
    );
}
