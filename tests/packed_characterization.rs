//! Workspace-level guarantee of bit-parallel characterization: derived
//! sweeps, whose models are characterized on the 64-lane packed engine,
//! emit byte-identical JSON at 1 and 8 threads.

use fabric_power_sweep::{ExperimentConfig, ModelSource, SeedStrategy, SweepDocument, SweepEngine};

/// A derived-model grid small enough for CI.
fn derived_document(threads: usize) -> String {
    let config = ExperimentConfig {
        port_counts: vec![4, 8],
        offered_loads: vec![0.2, 0.4],
        warmup_cycles: 50,
        measure_cycles: 200,
        model_source: ModelSource::Derived,
        ..ExperimentConfig::paper()
    };
    let points = SweepEngine::new()
        .with_threads(threads)
        .run(&config)
        .expect("sweep");
    SweepDocument {
        scenario: "packed-characterization-test".into(),
        config,
        seed_strategy: SeedStrategy::Shared,
        points,
    }
    .to_json_string()
    .expect("serialize")
}

#[test]
fn derived_sweep_documents_are_byte_identical_across_threads_with_packed_characterization() {
    let single = derived_document(1);
    let parallel = derived_document(8);
    assert_eq!(
        single, parallel,
        "packed characterization broke sweep thread-count determinism"
    );
}
