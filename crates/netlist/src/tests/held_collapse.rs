//! Property test of the held-input collapse
//! ([`EvalSchedule::compile_held`]): over random netlists with a random
//! subset of primary inputs held at random values, a [`PackedSimulator`] on
//! the collapsed schedule equals one on the plain schedule after every step,
//! on the energy report, on every net's toggle count and on every net's
//! word, dropped nets included.
//!
//! The random netlists hold `Buf`, `Mux2` and `PassGate` cells
//! whose selects and enables are drawn from the same pool as every other
//! input, so a case drops anything from no cell to long forwarding chains.
//! The stimulus drives a random number of low lanes of the other inputs,
//! counters reset after a warm-up of 0 to 3 steps (0: before the first
//! step), and the final step counts a random subset of lanes.

use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use super::random_netlist;
use crate::cells::CellKind;
use crate::library::CellLibrary;
use crate::packed::PackedSimulator;
use crate::schedule::EvalSchedule;
use crate::sim::EnergyTables;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn held_compile_matches_the_plain_compile_after_every_step(
        seed in any::<u64>(),
        held_mask in any::<u64>(),
        held_values in any::<u64>(),
        driven_lanes in 1_u32..=64,
        cells in 15_usize..48,
        warmup in 0_usize..4,
        measured in 1_usize..8,
        final_mask in any::<u64>(),
    ) {
        let netlist = random_netlist(seed, cells, &CellKind::ALL);
        let tables = EnergyTables::new(&netlist, &CellLibrary::calibrated_018um());
        let pi_count = netlist.primary_inputs().len();
        let held: Vec<(usize, bool)> = (0..pi_count)
            .filter(|&pi| (held_mask >> pi) & 1 == 1)
            .map(|pi| (pi, (held_values >> pi) & 1 == 1))
            .collect();
        let plain_schedule = EvalSchedule::compile(&netlist).unwrap();
        let held_schedule = EvalSchedule::compile_held(&netlist, &held).unwrap();
        let mut plain = PackedSimulator::new(&plain_schedule, &tables);
        let mut collapsed = PackedSimulator::new(&held_schedule, &tables);

        let driven = u64::MAX >> (64 - driven_lanes);
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x4E1D_0003);
        let mut words = vec![0_u64; pi_count];
        for &(pi, value) in &held {
            words[pi] = if value { !0 } else { 0 };
        }
        let steps = warmup + measured;
        for step in 0..steps {
            if step == warmup {
                plain.reset_counters();
                collapsed.reset_counters();
            }
            for (pi, word) in words.iter_mut().enumerate() {
                if !held.iter().any(|&(held_pi, _)| held_pi == pi) {
                    *word = rng.gen::<u64>() & driven;
                }
            }
            let count_mask = if step + 1 == steps { final_mask } else { !0 };
            plain.step(count_mask, |inputs| inputs.set_run(0, words.iter().copied()));
            collapsed.step(count_mask, |inputs| inputs.set_run(0, words.iter().copied()));

            prop_assert_eq!(collapsed.report(), plain.report(), "step {}", step);
            prop_assert_eq!(
                collapsed.net_toggle_counts(),
                plain.net_toggle_counts(),
                "step {}",
                step
            );
            for (net, _) in netlist.nets() {
                prop_assert_eq!(
                    collapsed.net_word(net),
                    plain.net_word(net),
                    "net #{} after step {}",
                    net.index(),
                    step
                );
            }
        }
    }
}
