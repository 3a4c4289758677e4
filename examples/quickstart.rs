//! Quickstart: estimate the power of one switch fabric under one traffic
//! load, using the paper's published bit-energy components.
//!
//! Run with `cargo run --release --example quickstart`.

use std::sync::Arc;

use fabric_power_core::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Pick a fabric: a 16x16 Banyan network.
    let ports = 16;
    let architecture = Architecture::Banyan;

    // 2. Assemble the bit-energy model (Table 1 + Table 2 + 87 fJ/grid).
    let model = Arc::new(FabricEnergyModel::paper(ports)?);
    println!(
        "bit-energy components: E_S(banyan,[0,1]) = {}, E_B = {}, E_T = {}",
        model.switch_bit_energy(SwitchClass::BanyanBinary, 1),
        model.buffer_bit_energy(),
        model.grid_bit_energy()
    );

    // 3. The closed-form worst case (Eq. 5) — no contention vs. one buffered stage.
    let uncontended = analytic::banyan_bit_energy(&model, 0);
    let contended = analytic::banyan_bit_energy(&model, 1);
    println!(
        "worst-case bit energy: {uncontended} uncontended, {contended} with one buffered stage"
    );

    // 4. Simulate dynamic traffic at 30 % offered load and read off the power.
    let config = SimulationConfig::new(architecture, ports, 0.30);
    let report = RouterSimulator::with_shared_model(config, model)?.run();
    println!(
        "simulated {architecture} {ports}x{ports} at 30% load: throughput {:.1}%, power {}, buffer share {:.0}%",
        report.measured_throughput() * 100.0,
        report.average_power(),
        report.energy.buffer_fraction() * 100.0
    );
    Ok(())
}
