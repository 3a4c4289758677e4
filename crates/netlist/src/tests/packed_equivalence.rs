//! Property-based equivalence between the bit-parallel [`PackedSimulator`]
//! and the scalar [`Simulator`] oracle: over random small netlists covering
//! every [`CellKind`] (combinational, DFF state, pass-gate hold), a
//! packed run must reproduce the summed per-lane toggle counts of scalar
//! runs on the per-lane bit streams — and therefore bit-identical energies
//! through the shared [`EnergyTables`].
//!
//! After every step, every net's word must equal, lane by lane, the value
//! of that net in the lane's oracle, so a cell evaluated out of level order
//! or not at all fails on the step it happens, even when no primary output
//! shows it.
//!
//! The netlists are seeded with structure the engine's one level-ordered
//! pass per step must get right: duplicate cells and undriven nets nothing
//! reads.  Only a random number of low lanes is driven (the rest
//! see all-zero inputs), so many cells re-evaluate to the word they already
//! hold, which must add no toggle.  The packed run counts a random subset
//! of lanes on its final step; with a single cycle that is a masked *first*
//! step.

use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use super::random_netlist;
use crate::cells::CellKind;
use crate::library::CellLibrary;
use crate::netlist::NetId;
use crate::packed::{PackedSimulator, LANES};
use crate::schedule::EvalSchedule;
use crate::sim::{EnergyTables, Simulator};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn packed_run_matches_summed_scalar_lanes_bit_exactly(
        seed in any::<u64>(),
        driven_lanes in 1_u32..=64,
        final_mask in any::<u64>(),
        cells in 15_usize..48,
        cycles in 1_usize..16,
    ) {
        let netlist = random_netlist(seed, cells, &CellKind::ALL);
        let library = CellLibrary::calibrated_018um();
        let pi_count = netlist.primary_inputs().len();

        // Random per-cycle input words: bit L of each word is lane L's
        // input bit for that cycle.
        let driven = u64::MAX >> (64 - driven_lanes);
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xABCD_EF01);
        let vectors: Vec<Vec<u64>> = (0..cycles)
            .map(|_| (0..pi_count).map(|_| rng.gen::<u64>() & driven).collect())
            .collect();

        // Every lane evolves through every step, but the final step only
        // counts the lanes selected by `final_mask`.  The scalar oracle for
        // lane L replays bit L of the vectors in lockstep; a lane masked out
        // of the final step banks its counts before that step, since its
        // final-step activity is unmeasured by construction.
        let schedule = EvalSchedule::compile(&netlist).unwrap();
        let tables = EnergyTables::new(&netlist, &library);
        let mut packed = PackedSimulator::new(&schedule, &tables);
        let mut oracles: Vec<Simulator<'_>> = (0..LANES)
            .map(|_| Simulator::new(&netlist, &library).unwrap())
            .collect();
        let mut summed = vec![0_u64; netlist.net_count()];
        let mut lane_cycles = 0_u64;
        for (i, vector) in vectors.iter().enumerate() {
            let last = i + 1 == cycles;
            let count_mask = if last { final_mask } else { !0 };
            packed.step(count_mask, |inputs| inputs.set_run(0, vector.iter().copied()));
            let outputs: Vec<u64> = netlist
                .primary_outputs()
                .iter()
                .map(|&net| packed.net_word(net))
                .collect();
            let words: Vec<(NetId, u64)> = netlist
                .nets()
                .map(|(net, _)| (net, packed.net_word(net)))
                .collect();
            for (lane, scalar) in oracles.iter_mut().enumerate() {
                let counted = (count_mask >> lane) & 1 == 1;
                if !counted {
                    for (acc, &count) in summed.iter_mut().zip(scalar.net_toggle_counts()) {
                        *acc += count;
                    }
                    lane_cycles += i as u64;
                }
                let bits: Vec<bool> =
                    vector.iter().map(|word| (word >> lane) & 1 == 1).collect();
                scalar.step(&bits);
                if last && counted {
                    for (acc, &count) in summed.iter_mut().zip(scalar.net_toggle_counts()) {
                        *acc += count;
                    }
                    lane_cycles += cycles as u64;
                }
                // Every lane's outputs track its oracle, counted or not.
                let lane_outputs: Vec<bool> =
                    outputs.iter().map(|word| (word >> lane) & 1 == 1).collect();
                prop_assert_eq!(lane_outputs, scalar.output_values());
                // So does every net, whether an output reads it or not.
                for &(net, word) in &words {
                    prop_assert_eq!(
                        (word >> lane) & 1 == 1,
                        scalar.net_value(net),
                        "net {} in lane {} after step {}",
                        net.index(),
                        lane,
                        i
                    );
                }
            }
        }

        prop_assert_eq!(packed.net_toggle_counts(), &summed[..]);
        prop_assert_eq!(packed.report().cycles, lane_cycles);
        // Identical integer counts ⇒ bit-identical energy reports through
        // the shared deterministic count→energy conversion.
        prop_assert_eq!(packed.report(), tables.report_from_counts(&summed, lane_cycles));
    }
}
