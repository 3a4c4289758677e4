//! End-to-end integration of the whole workspace: gate-level
//! characterization → energy-model assembly → route tables → bit-level
//! simulation, crossing every crate boundary at least once.

use std::sync::Arc;

use fabric_power_core::prelude::*;
use fabric_power_netlist::characterize::CharacterizationConfig;
use fabric_power_router::sim::RouterSimulator;
use fabric_power_tech::constants::PAPER_PORT_COUNTS;

#[test]
fn derived_energy_model_supports_the_same_pipeline_as_the_paper_model() {
    let ports = 4;
    let derived = Arc::new(
        FabricEnergyModel::derived(
            ports,
            &Technology::tsmc180(),
            &CellLibrary::calibrated_018um(),
            &CharacterizationConfig::quick(),
        )
        .expect("derived model"),
    );
    let paper = Arc::new(FabricEnergyModel::paper(ports).expect("paper model"));

    for (label, model) in [("derived", &derived), ("paper", &paper)] {
        let config = SimulationConfig {
            warmup_cycles: 100,
            measure_cycles: 800,
            ..SimulationConfig::new(Architecture::Banyan, ports, 0.3)
        };
        let report = RouterSimulator::with_shared_model(config, Arc::clone(model))
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
        table.banyan_binary.energy_for_active_count(0)
            < table.banyan_binary.energy_for_active_count(1) * 0.25
    );
    // The crosspoint is by far the cheapest switch.
    assert!(
        table.crosspoint.energy_for_active_count(1)
            < table.banyan_binary.energy_for_active_count(1) * 0.5
    );
    // MUX energy grows with the input count.
    let mut previous = Energy::ZERO;
    for mux in &table.muxes {
        let busy = mux.energy_for_active_count(mux.ports());
        assert!(busy > previous);
        previous = busy;
    }
}
