//! Property-based equivalence between the level-scheduled bit-parallel
//! [`PackedSimulator`] and the raw topological walk of the scalar
//! [`Simulator`], under the step patterns characterization uses.
//!
//! The random netlists are rich in structure a schedule could be tempted to
//! short-cut — duplicate cells, nets nothing drives or reads — and the packed engine must still account for the *full* net
//! space: its per-net toggle counts, lane-cycles and energy report equal
//! the sums of 64 per-lane scalar walks bit for bit.  Covered: a final step
//! that counts only a prefix of the lanes (the remainder step of a
//! measurement budget that is not a multiple of [`LANES`]; with one cycle it
//! is a masked *first* step), and the warm-up / reset / measure protocol.

use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use super::random_netlist;
use crate::cells::CellKind;
use crate::library::CellLibrary;
use crate::packed::{PackedSimulator, LANES};
use crate::schedule::EvalSchedule;
use crate::sim::{EnergyTables, Simulator};

/// Bit `lane` of every word: lane `lane`'s view of packed input or output
/// words.
fn lane_bits(words: &[u64], lane: u32) -> Vec<bool> {
    words.iter().map(|word| (word >> lane) & 1 == 1).collect()
}

fn accumulate(acc: &mut [u64], counts: &[u64]) {
    for (acc, &count) in acc.iter_mut().zip(counts) {
        *acc += count;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn scheduled_packed_engine_matches_raw_walk_bit_exactly(
        seed in any::<u64>(),
        counted_final in 1_u32..=64,
        cells in 15_usize..40,
        cycles in 1_usize..12,
    ) {
        let netlist = random_netlist(seed, cells, &CellKind::ALL);
        let library = CellLibrary::calibrated_018um();
        let pi_count = netlist.primary_inputs().len();

        // The final step counts only lanes below `counted_final`; all 64
        // lanes is an ordinary full step.
        let final_mask = u64::MAX >> (LANES - counted_final);

        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5EED_0002);
        let schedule = EvalSchedule::compile(&netlist).unwrap();
        let tables = EnergyTables::new(&netlist, &library);
        let mut packed = PackedSimulator::new(&schedule, &tables);
        let mut oracles: Vec<Simulator<'_>> = (0..LANES)
            .map(|_| Simulator::new(&netlist, &library).unwrap())
            .collect();
        let mut summed = vec![0_u64; netlist.net_count()];
        for i in 0..cycles {
            let vector: Vec<u64> = (0..pi_count).map(|_| rng.gen::<u64>()).collect();
            if i + 1 == cycles {
                // Lanes left out of the final step are measured up to here.
                for scalar in &oracles[counted_final as usize..] {
                    accumulate(&mut summed, scalar.net_toggle_counts());
                }
                packed.step(final_mask, |inputs| inputs.set_run(0, vector.iter().copied()));
            } else {
                packed.step(!0, |inputs| inputs.set_run(0, vector.iter().copied()));
            }
            // Every lane's outputs track its oracle at every step, counted
            // or not.
            let outputs: Vec<u64> = netlist
                .primary_outputs()
                .iter()
                .map(|&net| packed.net_word(net))
                .collect();
            for (lane, scalar) in (0..).zip(&mut oracles) {
                scalar.step(&lane_bits(&vector, lane));
                prop_assert_eq!(lane_bits(&outputs, lane), scalar.output_values());
            }
        }
        for scalar in &oracles[..counted_final as usize] {
            accumulate(&mut summed, scalar.net_toggle_counts());
        }

        let lane_cycles = (cycles as u64 - 1) * u64::from(LANES) + u64::from(counted_final);
        prop_assert_eq!(packed.net_toggle_counts(), &summed[..]);
        prop_assert_eq!(packed.report().cycles, lane_cycles);
        prop_assert_eq!(packed.report(), tables.report_from_counts(&summed, lane_cycles));
    }

    #[test]
    fn warmup_reset_measure_protocol_is_preserved(
        seed in any::<u64>(),
        cells in 15_usize..32,
        warmup in 1_usize..6,
        measure in 1_usize..8,
    ) {
        // The characterization protocol: warm up, reset counters, measure.
        // The one-shot settle toggles of the first step land in the warm-up
        // of both engines and are zeroed together, so the measured counts
        // still agree.
        let netlist = random_netlist(seed, cells, &CellKind::ALL);
        let library = CellLibrary::calibrated_018um();
        let pi_count = netlist.primary_inputs().len();
        let vectors: Vec<Vec<u64>> = {
            let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5EED_0003);
            (0..warmup + measure)
                .map(|_| (0..pi_count).map(|_| rng.gen::<u64>()).collect())
                .collect()
        };

        let schedule = EvalSchedule::compile(&netlist).unwrap();
        let tables = EnergyTables::new(&netlist, &library);
        let mut packed = PackedSimulator::new(&schedule, &tables);
        for vector in &vectors[..warmup] {
            packed.step(!0, |inputs| inputs.set_run(0, vector.iter().copied()));
        }
        packed.reset_counters();
        for vector in &vectors[warmup..] {
            packed.step(!0, |inputs| inputs.set_run(0, vector.iter().copied()));
        }

        let mut summed = vec![0_u64; netlist.net_count()];
        for lane in 0..LANES {
            let mut scalar = Simulator::new(&netlist, &library).unwrap();
            for vector in &vectors[..warmup] {
                scalar.step(&lane_bits(vector, lane));
            }
            scalar.reset_counters();
            for vector in &vectors[warmup..] {
                scalar.step(&lane_bits(vector, lane));
            }
            accumulate(&mut summed, scalar.net_toggle_counts());
        }

        let lane_cycles = measure as u64 * u64::from(LANES);
        prop_assert_eq!(packed.net_toggle_counts(), &summed[..]);
        prop_assert_eq!(packed.report().cycles, lane_cycles);
        prop_assert_eq!(packed.report(), tables.report_from_counts(&summed, lane_cycles));
    }
}
