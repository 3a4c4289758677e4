//! Architecture exploration: compare the four switch fabrics of the paper at
//! one size and load, the way a router designer would when picking a fabric.
//!
//! Run with `cargo run --release --example architecture_comparison`.

use std::sync::Arc;

use fabric_power_core::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let ports = 16;
    let offered_load = 0.40;
    let model = Arc::new(FabricEnergyModel::paper(ports)?);

    println!(
        "{ports}x{ports} fabrics at {:.0}% offered load",
        offered_load * 100.0
    );
    println!(
        "{:<18} {:>12} {:>12} {:>14} {:>12} {:>14} {:>10}",
        "architecture",
        "power (mW)",
        "throughput",
        "buffer share",
        "latency",
        "p50/p95/p99",
        "worst-case"
    );

    for architecture in Architecture::ALL {
        let config = SimulationConfig::new(architecture, ports, offered_load);
        let report = RouterSimulator::with_shared_model(config, Arc::clone(&model))?.run();
        let worst_case = analytic::worst_case_bit_energy(architecture, &model, 1);
        println!(
            "{:<18} {:>12.2} {:>11.1}% {:>13.0}% {:>12.1} {:>14} {:>10.1}pJ",
            architecture.to_string(),
            report.average_power().as_milliwatts(),
            report.measured_throughput() * 100.0,
            report.energy.buffer_fraction() * 100.0,
            report.average_latency_cycles,
            format!(
                "{:.0}/{:.0}/{:.0}",
                report.latency_p50, report.latency_p95, report.latency_p99
            ),
            worst_case.as_picojoules()
        );
    }

    println!("\n(The fully-connected fabric wins on power; the Banyan pays the buffer penalty.)");
    Ok(())
}
