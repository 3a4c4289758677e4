//! Property-based tests (proptest) over the core data structures and
//! invariants that the experiments rely on.

use proptest::prelude::*;

use fabric_power_core::prelude::*;
use fabric_power_fabric::topology::FabricTopology;
use fabric_power_memory::MemoryModel;
use fabric_power_netlist::InputVector;
use fabric_power_tech::polarity_flips;
use fabric_power_tech::units::{Capacitance, Voltage};
use fabric_power_thompson::wirelength;

/// Strategy: one of the paper's power-of-two port counts.
fn port_counts() -> impl Strategy<Value = usize> {
    prop_oneof![
        Just(2_usize),
        Just(4),
        Just(8),
        Just(16),
        Just(32),
        Just(64)
    ]
}

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
    fn banyan_routes_always_have_log2_hops_and_in_range_elements(
        ports in port_counts(),
        input_seed in any::<usize>(),
        output_seed in any::<usize>(),
    ) {
        let input = input_seed % ports;
        let output = output_seed % ports;
        let topology = FabricTopology::new(Architecture::Banyan, ports).unwrap();
        let path = topology.route(input, output);
        prop_assert_eq!(path.switch_hops() as u32, wirelength::banyan_stages(ports));
        prop_assert_eq!(path.total_wire_grids(), wirelength::banyan_bit_wire_grids(ports));
        for hop in &path.hops {
            prop_assert!(hop.element.index < ports / 2);
            prop_assert!(hop.output_port < 2);
        }
    }

    #[test]
    fn banyan_final_links_identify_destinations(
        ports in port_counts(),
        input_a in any::<usize>(),
        input_b in any::<usize>(),
        output_a in any::<usize>(),
        output_b in any::<usize>(),
    ) {
        let topology = FabricTopology::new(Architecture::Banyan, ports).unwrap();
        let a = topology.route(input_a % ports, output_a % ports);
        let b = topology.route(input_b % ports, output_b % ports);
        let last_a = a.hops.last().unwrap();
        let last_b = b.hops.last().unwrap();
        // Two packets to different outputs never share the final link; two
        // packets to the same output always share it.
        if output_a % ports == output_b % ports {
            prop_assert_eq!(last_a.element, last_b.element);
            prop_assert_eq!(last_a.output_port, last_b.output_port);
        } else {
            prop_assert!(
                last_a.element != last_b.element || last_a.output_port != last_b.output_port
            );
        }
    }

    #[test]
    fn crossbar_fully_connected_and_batcher_paths_match_their_closed_forms(
        ports in port_counts(),
        input in any::<usize>(),
        output in any::<usize>(),
    ) {
        let input = input % ports;
        let output = output % ports;
        let crossbar = FabricTopology::new(Architecture::Crossbar, ports).unwrap();
        prop_assert_eq!(
            crossbar.route(input, output).total_wire_grids(),
            wirelength::crossbar_bit_wire_grids(ports)
        );
        // Every bit toggles the whole broadcast ingress bus (Eq. 4), whichever
        // output it is bound for, and passes one MUX.
        let fully = FabricTopology::new(Architecture::FullyConnected, ports).unwrap();
        let path = fully.route(input, output);
        prop_assert_eq!(
            path.total_wire_grids(),
            wirelength::fully_connected_bit_wire_grids(ports)
        );
        prop_assert_eq!(path.switch_hops(), 1);
        let batcher = FabricTopology::new(Architecture::BatcherBanyan, ports).unwrap();
        let path = batcher.route(input, output);
        prop_assert_eq!(
            path.total_wire_grids(),
            wirelength::batcher_banyan_bit_wire_grids(ports)
        );
        prop_assert_eq!(
            path.switch_hops() as u64,
            wirelength::batcher_sorting_stages(ports) + u64::from(wirelength::banyan_stages(ports))
        );
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
            large_model.access_energy_per_bit() >= small_model.access_energy_per_bit()
        );
    }

    #[test]
    fn input_vector_counts_match_mask(ports in 1_usize..=32, mask in any::<u64>()) {
        let mut vector = InputVector::none(ports);
        let mut expected = 0;
        for port in 0..ports {
            let active = (mask >> port) & 1 == 1;
            vector.set_active(port, active);
            expected += usize::from(active);
        }
        prop_assert_eq!(vector.active_count(), expected);
        prop_assert_eq!(vector.active_ports().count(), expected);
        // Formatting always shows one digit per port.
        let printed = vector.to_string();
        prop_assert_eq!(printed.matches(['0', '1']).count(), ports);
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
        assert!(model.buffer_bit_energy().is_finite());
        assert!(!model.grid_bit_energy().is_zero());
    }
}
