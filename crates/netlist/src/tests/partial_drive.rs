//! Property test of the packed engine's persistent inputs: a
//! [`PackedSimulator`] whose drive writes only the inputs that change equals
//! one that writes every input on every step, after every step, on the
//! energy report, on every net's toggle count and on every net's word.
//!
//! Both simulators run one schedule of a random netlist compiled against a
//! random subset of its primary inputs held at random values
//! ([`EvalSchedule::compile_held`]).  The full drive writes every input,
//! held ones included, as one run on every step.  The partial drive writes
//! the held-high inputs and a random subset of the held-low ones on the
//! first step only (an undriven input stays all-zero), then on each step a
//! random subset of the other inputs, each with a new random word on a
//! random number of low lanes, as runs of consecutive positions
//! ([`PackedInputs::set_run`]) and single writes ([`PackedInputs::set`]).
//! Counters reset after a warm-up of 0 to 3 steps (0: before the first
//! step), and the final step counts a random subset of lanes.
//!
//! [`PackedInputs::set_run`]: crate::packed::PackedInputs::set_run
//! [`PackedInputs::set`]: crate::packed::PackedInputs::set

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
    fn driving_only_the_changed_inputs_equals_driving_every_input(
        seed in any::<u64>(),
        held_mask in any::<u64>(),
        held_values in any::<u64>(),
        driven_low_held in any::<u64>(),
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
        let is_held = |pi: usize| held.iter().any(|&(held_pi, _)| held_pi == pi);
        let schedule = EvalSchedule::compile_held(&netlist, &held).unwrap();
        let mut full = PackedSimulator::new(&schedule, &tables);
        let mut partial = PackedSimulator::new(&schedule, &tables);

        let driven = u64::MAX >> (64 - driven_lanes);
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x9A27_1A10);
        let mut words = vec![0_u64; pi_count];
        for &(pi, value) in &held {
            words[pi] = if value { !0 } else { 0 };
        }
        let steps = warmup + measured;
        for step in 0..steps {
            if step == warmup {
                full.reset_counters();
                partial.reset_counters();
            }
            // The positions the partial drive writes this step, ascending.
            let mut changed: Vec<usize> = Vec::new();
            for (pi, word) in words.iter_mut().enumerate() {
                if is_held(pi) {
                    let high = *word != 0;
                    if step == 0 && (high || (driven_low_held >> pi) & 1 == 1) {
                        changed.push(pi);
                    }
                } else if rng.gen::<bool>() {
                    *word = rng.gen::<u64>() & driven;
                    changed.push(pi);
                }
            }
            let count_mask = if step + 1 == steps { final_mask } else { !0 };
            full.step(count_mask, |inputs| inputs.set_run(0, words.iter().copied()));
            partial.step(count_mask, |inputs| {
                // Maximal runs of consecutive positions: a run of one is a
                // single write.
                let mut rest = &changed[..];
                while let Some(&first) = rest.first() {
                    let len = rest
                        .iter()
                        .zip(first..)
                        .take_while(|&(&pi, expected)| pi == expected)
                        .count();
                    if len == 1 {
                        inputs.set(first, words[first]);
                    } else {
                        inputs.set_run(first, words[first..first + len].iter().copied());
                    }
                    rest = &rest[len..];
                }
            });

            prop_assert_eq!(partial.report().cycles, full.report().cycles, "step {}", step);
            prop_assert_eq!(partial.report(), full.report(), "step {}", step);
            prop_assert_eq!(
                partial.net_toggle_counts(),
                full.net_toggle_counts(),
                "step {}",
                step
            );
            for (net, _) in netlist.nets() {
                prop_assert_eq!(
                    partial.net_word(net),
                    full.net_word(net),
                    "net #{} after step {}",
                    net.index(),
                    step
                );
            }
        }
    }
}
