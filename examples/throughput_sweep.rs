//! A reduced version of the paper's Figure 9: sweep the offered load from
//! 10 % to 50 % and watch the Banyan's buffer penalty grow while the other
//! fabrics scale linearly.
//!
//! Run with `cargo run --release --example throughput_sweep`.

use fabric_power_core::prelude::*;
use fabric_power_sweep::report::format_document;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut config = ExperimentConfig::quick();
    config.port_counts = vec![16];
    config.offered_loads = vec![0.10, 0.20, 0.30, 0.40, 0.50];

    // The sweep runs on the parallel engine (one worker per core, one shared
    // energy model per fabric size); results are identical for every thread
    // count.
    let engine = SweepEngine::new();
    eprintln!(
        "evaluating {} operating points on {} thread(s)",
        config.grid_size(),
        engine.threads()
    );
    let document = SweepDocument {
        scenario: "throughput-sweep".into(),
        points: engine.run(&config)?,
        config,
        seed_strategy: SeedStrategy::Shared,
    };
    // The text `fabric-power report` prints for the same document.
    println!("{}", format_document(&document));

    // Show how the Banyan's buffer share of total energy grows with load.
    println!("Banyan internal-buffer share of total fabric energy:");
    let sweep = ThroughputSweep {
        points: document.points,
    };
    for point in sweep.curve(Architecture::Banyan, 16) {
        let share =
            point.buffer_energy / (point.buffer_energy + point.switch_energy + point.wire_energy);
        println!(
            "  load {:>3.0}% -> buffered words {:>6}, buffer share {:>4.0}%",
            point.offered_load * 100.0,
            point.buffered_words,
            share * 100.0
        );
    }
    Ok(())
}
