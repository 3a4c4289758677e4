//! End-to-end integration of the whole workspace: gate-level
//! characterization → energy-model assembly → topology routing → bit-level
//! simulation, crossing every crate boundary at least once.

use fabric_power_core::prelude::*;
use fabric_power_fabric::analytic;
use fabric_power_fabric::topology::FabricTopology;
use fabric_power_netlist::characterize::CharacterizationConfig;
use fabric_power_router::sim::RouterSimulator;
use fabric_power_tech::constants::PAPER_PORT_COUNTS;
use fabric_power_thompson::wirelength;

#[test]
fn derived_energy_model_supports_the_same_pipeline_as_the_paper_model() {
    let ports = 4;
    let derived = FabricEnergyModel::derived(
        ports,
        &Technology::tsmc180(),
        &CellLibrary::calibrated_018um(),
        &CharacterizationConfig::quick(),
    )
    .expect("derived model");
    let paper = FabricEnergyModel::paper(ports).expect("paper model");

    for (label, model) in [("derived", &derived), ("paper", &paper)] {
        let config = SimulationConfig::quick(Architecture::Banyan, ports, 0.3);
        let report = RouterSimulator::new(config, model.clone())
            .expect("simulator")
            .run();
        assert!(
            report.measured_throughput() > 0.1,
            "{label}: throughput {}",
            report.measured_throughput()
        );
        assert!(report.energy.total().as_joules() > 0.0, "{label}");
        // Both models agree that the fabric moves bits more cheaply over
        // wires than through buffers.
        assert!(
            model.buffer_bit_energy() > model.grid_bit_energy() * 10.0,
            "{label}"
        );
    }
}

#[test]
fn analytic_equations_agree_with_topology_path_structure() {
    // The closed-form equations and the routed paths must describe the same
    // fabric: same wire grids, same switch-hop counts.
    for &ports in &PAPER_PORT_COUNTS {
        let model = FabricEnergyModel::paper(ports).expect("model");

        let crossbar = FabricTopology::new(Architecture::Crossbar, ports).expect("topology");
        let path = crossbar.route(0, ports - 1);
        let wire_energy = model.wire_bit_energy(path.total_wire_grids());
        let switch_energy = model.switch_bit_energy(SwitchClass::CrossbarCrosspoint, 1)
            * path.hops[0].charged_inputs as f64;
        let reconstructed = wire_energy + switch_energy;
        let analytic_value = analytic::crossbar_bit_energy(&model);
        assert!(
            (reconstructed.as_joules() - analytic_value.as_joules()).abs()
                < 1e-6 * analytic_value.as_joules(),
            "crossbar N={ports}: path-based {reconstructed} vs Eq.3 {analytic_value}"
        );

        let banyan = FabricTopology::new(Architecture::Banyan, ports).expect("topology");
        let banyan_path = banyan.route(0, ports - 1);
        assert_eq!(
            banyan_path.total_wire_grids(),
            wirelength::banyan_bit_wire_grids(ports)
        );
        assert_eq!(
            banyan_path.switch_hops() as u32,
            wirelength::banyan_stages(ports)
        );
    }
}

#[test]
fn table2_feeds_the_paper_energy_model() {
    let computed = Table2::compute(&PAPER_PORT_COUNTS).expect("table 2");
    for &ports in &PAPER_PORT_COUNTS {
        let model = FabricEnergyModel::paper(ports).expect("model");
        let published = Table2::paper().bit_energy(ports).expect("published");
        // The paper model uses the published buffer value verbatim...
        assert_eq!(model.buffer_bit_energy(), published);
        // ...and our structural model stays within 2x of it.
        let ours = computed.bit_energy(ports).expect("computed");
        let ratio = ours / published;
        assert!((0.5..=2.0).contains(&ratio), "N={ports}: ratio {ratio}");
    }
}

#[test]
fn characterized_table1_keeps_the_orderings_the_experiments_rely_on() {
    let library = CellLibrary::calibrated_018um();
    let table = Table1::characterize(16, 4, &library, &CharacterizationConfig::quick())
        .expect("characterization");
    // Idle switches cost (almost) nothing compared with busy ones.
    assert!(
        table.banyan_binary.energy_for_active_count(0) < table.banyan_binary.single_active() * 0.25
    );
    // The crosspoint is by far the cheapest switch.
    assert!(table.crosspoint.single_active() < table.banyan_binary.single_active() * 0.5);
    // MUX energy grows with the input count.
    let mut previous = Energy::ZERO;
    for mux in &table.muxes {
        let busy = mux.energy_for_active_count(mux.ports());
        assert!(busy > previous);
        previous = busy;
    }
}
