//! Tour of the sweep-engine subsystem: pick scenarios from the registry, run
//! them on the parallel engine, and emit structured results.
//!
//! This is the library-level equivalent of
//! `fabric-power sweep --scenario quick --out results.json`.
//!
//! Run with `cargo run --release --example sweep_scenarios`.

use fabric_power_core::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let registry = ScenarioRegistry::builtin();

    println!("registered scenarios:");
    for scenario in registry.scenarios() {
        println!(
            "  {:<20} {:>4} points  {}",
            scenario.name,
            scenario.config.grid_size(),
            scenario.summary
        );
    }

    // Run the smoke scenario on every core; the same grid run with
    // `.with_threads(1)` produces byte-identical JSON.
    let scenario = registry.get("quick").expect("built-in scenario");
    let engine = SweepEngine::new();
    println!(
        "\nrunning `{}` ({} points) on {} thread(s)...",
        scenario.name,
        scenario.config.grid_size(),
        engine.threads()
    );
    let points = engine.run(&scenario.config)?;

    let document = SweepDocument {
        scenario: scenario.name.clone(),
        config: scenario.config.clone(),
        seed_strategy: SeedStrategy::Shared,
        points,
    };

    // Structured emission: deterministic JSON (for tooling) and CSV (for
    // spreadsheets/plotting).
    let json = document.to_json_string()?;
    let csv = document.to_csv_string();
    println!(
        "JSON document: {} bytes; CSV table: {} rows",
        json.len(),
        csv.lines().count() - 1
    );

    // The cheapest architecture per fabric size, straight off the points.
    for &ports in &document.config.port_counts {
        let cheapest = document
            .points
            .iter()
            .filter(|p| p.ports == ports)
            .min_by(|a, b| a.power.as_watts().total_cmp(&b.power.as_watts()))
            .expect("points exist");
        println!(
            "cheapest operating point at {ports}x{ports}: {} at {:.0}% load ({:.3} mW)",
            cheapest.architecture,
            cheapest.offered_load * 100.0,
            cheapest.power.as_milliwatts()
        );
    }
    Ok(())
}
