//! Property-based tests (proptest) over the core data structures and
//! invariants that the experiments rely on.

use proptest::prelude::*;

use fabric_power_core::prelude::*;
use fabric_power_memory::MemoryModel;
use fabric_power_tech::polarity_flips;
use fabric_power_tech::units::{Capacitance, Voltage};
use fabric_power_thompson::wirelength;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn polarity_flips_is_symmetric_and_bounded(a in any::<u64>(), b in any::<u64>()) {
        let flips = polarity_flips(a, b);
        prop_assert_eq!(flips, polarity_flips(b, a));
        prop_assert!(flips <= 64);
        prop_assert_eq!(polarity_flips(a, a), 0);
    }

    #[test]
    fn switching_energy_is_monotone_in_capacitance_and_voltage(
        cap_ff in 0.1_f64..1e6,
        extra_ff in 0.1_f64..1e6,
        volts in 0.1_f64..5.0,
    ) {
        let small = Capacitance::from_femtofarads(cap_ff);
        let large = Capacitance::from_femtofarads(cap_ff + extra_ff);
        let v = Voltage::from_volts(volts);
        prop_assert!(large.switching_energy(v) > small.switching_energy(v));
        let higher_v = Voltage::from_volts(volts * 1.5);
        prop_assert!(small.switching_energy(higher_v) > small.switching_energy(v));
    }

    #[test]
    fn memory_access_energy_is_monotone_in_capacity(
        kilobits_a in 1_u64..512,
        kilobits_b in 1_u64..512,
    ) {
        let (small, large) = if kilobits_a <= kilobits_b {
            (kilobits_a, kilobits_b)
        } else {
            (kilobits_b, kilobits_a)
        };
        let small_model = MemoryModel::shared_buffer(small * 1024).unwrap();
        let large_model = MemoryModel::shared_buffer(large * 1024).unwrap();
        prop_assert!(
            large_model.buffer_bit_energy() >= small_model.buffer_bit_energy()
        );
    }

    #[test]
    fn wire_length_formulas_are_monotone_in_ports(ports in prop_oneof![Just(4_usize), Just(8), Just(16), Just(32)]) {
        let next = ports * 2;
        prop_assert!(wirelength::crossbar_bit_wire_grids(next) > wirelength::crossbar_bit_wire_grids(ports));
        prop_assert!(wirelength::banyan_bit_wire_grids(next) > wirelength::banyan_bit_wire_grids(ports));
        prop_assert!(wirelength::batcher_banyan_bit_wire_grids(next) > wirelength::batcher_banyan_bit_wire_grids(ports));
        prop_assert!(wirelength::fully_connected_bit_wire_grids(next) > wirelength::fully_connected_bit_wire_grids(ports));
    }

    #[test]
    fn analytic_energies_are_positive_and_ordered(ports in prop_oneof![Just(4_usize), Just(8), Just(16), Just(32), Just(64)]) {
        let model = FabricEnergyModel::paper(ports).unwrap();
        let banyan0 = analytic::banyan_bit_energy(&model, 0);
        let banyan1 = analytic::banyan_bit_energy(&model, 1);
        let crossbar = analytic::crossbar_bit_energy(&model);
        let batcher = analytic::batcher_banyan_bit_energy(&model);
        let fully = analytic::fully_connected_bit_energy(&model);
        for energy in [banyan0, banyan1, crossbar, batcher, fully] {
            prop_assert!(energy.as_joules() > 0.0);
        }
        // Contention only ever adds energy.
        prop_assert!(banyan1 > banyan0);
        // The uncontended Banyan is always cheaper than Batcher-Banyan,
        // which carries the same Banyan plus a sorter in front.
        prop_assert!(banyan0 < batcher);
    }
}

#[test]
fn proptest_regressions_directory_is_not_required() {
    // Plain sanity test so the file also contains a deterministic test: the
    // analytic model for the paper's sizes is finite and non-zero.
    for ports in [4, 8, 16, 32] {
        let model = FabricEnergyModel::paper(ports).unwrap();
        assert!(model.buffer_bit_energy().as_joules().is_finite());
        assert!(!model.grid_bit_energy().is_zero());
    }
}
