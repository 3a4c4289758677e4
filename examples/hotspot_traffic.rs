//! Extension beyond the paper: how does a hot-spot destination change the
//! power picture?  Hot-spot traffic concentrates packets on one egress port,
//! which throttles the deliverable throughput (head-of-line blocking) and —
//! inside the Banyan — concentrates interconnect contention on one subtree.
//!
//! Run with `cargo run --release --example hotspot_traffic`.

use std::sync::Arc;

use fabric_power_core::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let ports = 16;
    let offered_load = 0.40;
    let model = Arc::new(FabricEnergyModel::paper(ports)?);

    println!(
        "{ports}x{ports} Banyan at {:.0}% offered load: uniform vs. hot-spot destinations",
        offered_load * 100.0
    );
    println!(
        "{:<28} {:>12} {:>12} {:>16} {:>14}",
        "traffic pattern", "power (mW)", "throughput", "buffered words", "buffer share"
    );

    let patterns = [
        ("uniform random", TrafficPattern::UniformRandom),
        (
            "30% hot-spot on port 0",
            TrafficPattern::Hotspot {
                port: 0,
                fraction: 0.3,
            },
        ),
        (
            "60% hot-spot on port 0",
            TrafficPattern::Hotspot {
                port: 0,
                fraction: 0.6,
            },
        ),
        (
            "permutation (no dest. contention)",
            TrafficPattern::Permutation { shift: 5 },
        ),
        ("tornado (half-span permutation)", TrafficPattern::Tornado),
        ("bit-complement permutation", TrafficPattern::BitComplement),
        (
            "bursty on/off (80%/5%, 400 cyc)",
            TrafficPattern::Bursty {
                on_load: 0.80,
                off_load: 0.05,
                mean_burst: 400.0,
            },
        ),
    ];

    for (label, pattern) in patterns {
        let config =
            SimulationConfig::new(Architecture::Banyan, ports, offered_load).with_pattern(pattern);
        let report = RouterSimulator::with_shared_model(config, Arc::clone(&model))?.run();
        println!(
            "{:<28} {:>12.2} {:>11.1}% {:>16} {:>13.0}%",
            label,
            report.average_power().as_milliwatts(),
            report.measured_throughput() * 100.0,
            report.buffered_words,
            report.energy.buffer_fraction() * 100.0
        );
    }

    println!("\n(Hot-spot traffic loses throughput to head-of-line blocking at the input");
    println!(" buffers, so the fabric moves fewer bits and the measured power can drop even");
    println!(" though the energy per delivered bit gets worse.)");
    Ok(())
}
