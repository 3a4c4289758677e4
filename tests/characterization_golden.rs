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
//!    writes) has a pinned digest;
//! 3. the same Table 1 JSON has pinned digests at stimulus seeds 1–8 of
//!    the default config and 1–4 of the quick config, and the Batcher
//!    sorting switch at 2–4 address bits has one each, so a change that
//!    only moves the LUTs at some seeds or widths is caught too.

use fabric_power_fabric::provider::stable_hash_hex;
use fabric_power_netlist::{
    characterize_class, CellLibrary, CharacterizationConfig, SwitchClass, Table1,
};
use fabric_power_sweep::{
    ModelProvider, ScenarioRegistry, SeedStrategy, SweepDocument, SweepEngine,
};

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
        seed_strategy: SeedStrategy::Shared,
        points,
    };
    let bytes = document.to_json_string().expect("serialize") + "\n";
    assert_eq!(
        stable_hash_hex(bytes.as_bytes()),
        "421536f6f1c8f2fa5b5edf94c8745f3b",
        "the derived-quick document drifted from its pinned digest"
    );
}

/// The digest of the pretty JSON of `value`.
fn json_digest(value: &impl serde::Serialize) -> String {
    stable_hash_hex(
        serde_json::to_string_pretty(value)
            .expect("serialize")
            .as_bytes(),
    )
}

/// Compares every `(label, digest)` against its pin and reports all
/// mismatches at once.
fn assert_digests(actual: &[(String, String)], pinned: &[&str]) {
    assert_eq!(actual.len(), pinned.len());
    let drifted: Vec<String> = actual
        .iter()
        .zip(pinned)
        .filter(|((_, digest), pin)| digest != *pin)
        .map(|((label, digest), pin)| format!("{label}: {digest} (pinned {pin})"))
        .collect();
    assert!(
        drifted.is_empty(),
        "drifted from the pins:\n{}",
        drifted.join("\n")
    );
}

/// Table 1 digests at `seeds` under `base` with only the seed replaced.
fn table1_digests(
    base: CharacterizationConfig,
    seeds: std::ops::RangeInclusive<u64>,
) -> Vec<(String, String)> {
    let library = CellLibrary::calibrated_018um();
    seeds
        .map(|seed| {
            let config = CharacterizationConfig { seed, ..base };
            let table =
                Table1::characterize(32, 5, &library, &config).expect("characterize Table 1");
            (format!("seed {seed}"), json_digest(&table))
        })
        .collect()
}

#[test]
fn characterized_table1_digests_are_pinned_at_eight_default_seeds() {
    assert_digests(
        &table1_digests(CharacterizationConfig::default(), 1..=8),
        &[
            "e2a26b064b6b9c5cf0e8bf2429b2d19d",
            "7bf738bacbb8fc399c8c61207ca2698a",
            "32be1c1a5539a3a2120fce64d1b30af3",
            "05569683b84ab3c374fba3eb37a06cda",
            "6f1412ef7fda763973e32e149e50afea",
            "85205050eadfc2f74524e72ea33eb1e0",
            "d89ebeee00cee74546a0c13ea0aabfb0",
            "481cd46cbc2819920d93d197804aeee3",
        ],
    );
}

#[test]
fn characterized_table1_digests_are_pinned_at_four_quick_seeds() {
    assert_digests(
        &table1_digests(CharacterizationConfig::quick(), 1..=4),
        &[
            "52c6eb55fcb6f63dbabb641a0ce7d6ce",
            "fa4216c0c3798fd3c232df3f6bce5e34",
            "9724c3fd61555cc0ac11048ad51ec7c1",
            "73b073430ea72ad1b2c3eb4ffac766f8",
        ],
    );
}

#[test]
fn batcher_sorting_digests_are_pinned_at_two_to_four_address_bits() {
    let library = CellLibrary::calibrated_018um();
    let actual: Vec<(String, String)> = (2..=4)
        .map(|address_bits| {
            let lut = characterize_class(
                SwitchClass::BatcherSorting,
                32,
                address_bits,
                &library,
                &CharacterizationConfig::default(),
            )
            .expect("characterize the sorting switch");
            (format!("{address_bits} address bits"), json_digest(&lut))
        })
        .collect();
    assert_digests(
        &actual,
        &[
            "e6237f79bb297bfdf67c3399d4fae046",
            "27c2d78d459d3650982c029991f76abd",
            "a9ad58b1eb9c1bd3f6144db4c44dad0c",
        ],
    );
}
