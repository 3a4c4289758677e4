//! Byte pins on gate-level characterization output.
//!
//! Determinism tests elsewhere compare runs of the same build against each
//! other; these compare against bytes written by an earlier build, so any
//! engine change that moves a single LUT bit fails here:
//!
//! 1. `tests/golden/table1_characterized.json` is the pretty JSON of the
//!    full Table 1 characterized at 32-bit buses and 5-bit sort addresses
//!    with the default characterization config;
//! 2. the `derived-quick` scenario document (the bytes
//!    `fabric-power sweep --scenario derived-quick --threads 1 --out FILE`
//!    writes) has a pinned digest.

use fabric_power_fabric::provider::stable_hash_hex;
use fabric_power_netlist::{CellLibrary, CharacterizationConfig, Table1};
use fabric_power_sweep::{ModelProvider, ScenarioRegistry, SweepDocument, SweepEngine};

#[test]
fn characterized_table1_bytes_are_pinned() {
    let table = Table1::characterize(
        32,
        5,
        &CellLibrary::calibrated_018um(),
        &CharacterizationConfig::default(),
    )
    .expect("characterize Table 1");
    let emitted = serde_json::to_string_pretty(&table).expect("serialize");
    let golden = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/table1_characterized.json"
    ))
    .expect("read golden Table 1");
    assert_eq!(
        emitted, golden,
        "characterized Table 1 drifted from the golden pin"
    );
    assert_eq!(
        stable_hash_hex(golden.as_bytes()),
        "4c630e2225cc4b1fa57046983e581c48"
    );
}

#[test]
fn derived_quick_document_digest_is_pinned() {
    let scenario = ScenarioRegistry::builtin()
        .get("derived-quick")
        .expect("derived-quick is registered")
        .clone();
    let engine = SweepEngine::new()
        .with_threads(1)
        .with_provider(std::sync::Arc::new(ModelProvider::in_memory()));
    let points = engine.run(&scenario.config).expect("derived-quick runs");
    let document = SweepDocument {
        scenario: scenario.name,
        config: scenario.config,
        seed_strategy: engine.seed_strategy(),
        points,
    };
    let bytes = document.to_json_string().expect("serialize") + "\n";
    assert_eq!(
        stable_hash_hex(bytes.as_bytes()),
        "421536f6f1c8f2fa5b5edf94c8745f3b",
        "the derived-quick document drifted from its pinned digest"
    );
}
