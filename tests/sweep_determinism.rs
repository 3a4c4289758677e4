//! Workspace-level determinism and equivalence guarantees of the sweep
//! subsystem:
//!
//! 1. the same scenario + seed produces **byte-identical JSON** at
//!    `--threads 1` and `--threads 8`;
//! 2. the engine-backed `ThroughputSweep::run` matches the original
//!    sequential nested-loop implementation point for point;
//! 3. scenario registry entries run end to end through engine and emitters.

use std::sync::Arc;

use fabric_power_core::prelude::*;
use fabric_power_router::sim::RouterSimulator;
use fabric_power_sweep::{ShardStrategy, SweepDocument, SweepEngine, SweepPlan};

/// A scenario-sized grid that still finishes quickly in CI.
fn test_config() -> ExperimentConfig {
    ExperimentConfig {
        port_counts: vec![4, 8],
        offered_loads: vec![0.1, 0.3, 0.5],
        warmup_cycles: 100,
        measure_cycles: 400,
        ..ExperimentConfig::paper()
    }
}

fn document_for_threads(threads: usize) -> String {
    let config = test_config();
    let points = SweepEngine::new()
        .with_threads(threads)
        .run(&config)
        .expect("sweep");
    SweepDocument {
        scenario: "determinism-test".into(),
        config,
        seed_strategy: SeedStrategy::Shared,
        points,
    }
    .to_json_string()
    .expect("serialize")
}

#[test]
fn json_is_byte_identical_across_thread_counts() {
    let single = document_for_threads(1);
    for threads in [2, 8] {
        let parallel = document_for_threads(threads);
        assert_eq!(
            single, parallel,
            "thread count {threads} changed the emitted bytes"
        );
    }
}

/// The original pre-engine implementation, inlined as the reference: one
/// `RouterSimulator` per cell, in canonical grid order, each seeded as
/// `strategy` seeds the cell.
fn sequential_reference(config: &ExperimentConfig, strategy: SeedStrategy) -> Vec<SweepPoint> {
    let mut reference = Vec::new();
    for &ports in &config.port_counts {
        let model = Arc::new(config.model_spec(ports).build().expect("model"));
        for &architecture in &config.architectures {
            for &offered_load in &config.offered_loads {
                let seed = strategy.cell_seed(
                    config.seed,
                    architecture,
                    ports,
                    offered_load,
                    config.pattern,
                    None,
                );
                let sim_config = config.simulation_config(architecture, ports, offered_load, seed);
                let report = RouterSimulator::with_shared_model(sim_config, Arc::clone(&model))
                    .expect("simulator")
                    .run();
                reference.push(SweepPoint {
                    architecture,
                    ports,
                    offered_load,
                    measured_throughput: report.measured_throughput(),
                    power: report.average_power(),
                    switch_energy: report.energy.switches,
                    buffer_energy: report.energy.buffers,
                    wire_energy: report.energy.wires,
                    buffered_words: report.buffered_words,
                    average_latency_cycles: report.average_latency_cycles,
                    latency_p50: report.latency_p50,
                    latency_p95: report.latency_p95,
                    latency_p99: report.latency_p99,
                    latency_histogram: report.latency_histogram,
                    network: None,
                });
            }
        }
    }
    reference
}

#[test]
fn engine_backed_sweep_matches_sequential_reference() {
    let config = test_config();
    let sweep = ThroughputSweep::run(&config).expect("sweep");
    assert_eq!(
        sweep.points,
        sequential_reference(&config, SeedStrategy::Shared)
    );
}

#[test]
fn per_cell_seeded_plan_matches_sequential_reference() {
    // Per-cell seeds give every architecture its own traffic, so the engine
    // runs each cell as a simulation of its own.
    let config = test_config();
    let plan = SweepPlan::new(
        "per-cell-reference",
        config.clone(),
        SeedStrategy::PerCell,
        1,
        ShardStrategy::Contiguous,
    )
    .expect("plan");
    let document = SweepEngine::new()
        .with_threads(2)
        .run_plan(&plan)
        .expect("sweep");
    let reference = sequential_reference(&config, SeedStrategy::PerCell);
    assert_eq!(document.points, reference);
    assert_ne!(
        reference,
        sequential_reference(&config, SeedStrategy::Shared),
        "per-cell seeding should change at least one trajectory"
    );
}

#[test]
fn every_builtin_scenario_expands_and_a_reduced_version_runs() {
    let registry = ScenarioRegistry::builtin();
    assert!(registry.scenarios().len() >= 7);
    for scenario in registry.scenarios() {
        assert!(scenario.config.grid_size() > 0, "{}", scenario.name);
        // Shrink every scenario to one cheap cell and push it through the
        // whole engine + emitter pipeline.  Network scenarios keep their
        // radix (a 2-D mesh needs 5 ports, so radix 4 would be rejected) and
        // shrink the mesh axis to its first size instead.
        let reduced = ExperimentConfig {
            port_counts: if scenario.config.network.is_some() {
                scenario.config.port_counts.clone()
            } else {
                vec![4]
            },
            offered_loads: vec![scenario.config.offered_loads[0]],
            architectures: vec![if scenario.config.network.is_some() {
                scenario.config.architectures[0]
            } else {
                Architecture::Banyan
            }],
            warmup_cycles: 20,
            measure_cycles: 100,
            network: scenario.config.network.clone().map(|mut network| {
                network.meshes.truncate(1);
                network
            }),
            ..scenario.config.clone()
        };
        let points = SweepEngine::new().run(&reduced).expect("run");
        assert_eq!(points.len(), 1, "{}", scenario.name);
        let document = SweepDocument {
            scenario: scenario.name.clone(),
            config: reduced,
            seed_strategy: SeedStrategy::Shared,
            points,
        };
        let json = document.to_json_string().expect("emit");
        let back = serde_json::from_str::<SweepDocument>(&json).expect("parse");
        assert_eq!(document, back, "{}", scenario.name);
    }
}

#[test]
fn golden_single_router_sweep_bytes_are_pinned() {
    // `tests/golden/single_router_sweep.json` was emitted by the
    // pre-RouterNode-refactor simulator (`fabric-power sweep --scenario-file
    // tests/golden/single_router_scenario.json`).  The refactored core —
    // and the whole network layer above it — must keep reproducing those
    // bytes exactly, at any thread count.
    let scenario_json = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/single_router_scenario.json"
    ))
    .expect("read golden scenario");
    let scenario: fabric_power_sweep::Scenario =
        serde_json::from_str(&scenario_json).expect("parse golden scenario");
    let golden = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/single_router_sweep.json"
    ))
    .expect("read golden sweep document");
    for threads in [1, 4] {
        let points = SweepEngine::new()
            .with_threads(threads)
            .run(&scenario.config)
            .expect("golden sweep runs");
        let document = SweepDocument {
            scenario: scenario.name.clone(),
            config: scenario.config.clone(),
            seed_strategy: SeedStrategy::Shared,
            points,
        };
        let emitted = document.to_json_string().expect("serialize") + "\n";
        assert_eq!(
            emitted, golden,
            "threads {threads}: the single-router sweep bytes drifted from the golden pin"
        );
    }
}

#[test]
fn per_cell_seeding_is_thread_invariant_too() {
    let config = test_config();
    let plan = SweepPlan::new(
        "per-cell",
        config,
        SeedStrategy::PerCell,
        1,
        ShardStrategy::Contiguous,
    )
    .unwrap();
    let run = |threads| {
        SweepEngine::new()
            .with_threads(threads)
            .run_plan(&plan)
            .expect("sweep")
    };
    assert_eq!(run(1), run(8));
}
