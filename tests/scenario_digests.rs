//! Digest pins on every registered scenario's document.
//!
//! `tests/golden/scenario_digests.json` holds, under `scenarios`, the
//! `stable_hash_hex` of the bytes `fabric-power sweep --scenario <name>
//! --out FILE` writes for each registered scenario at its default seed, and
//! under `conform_stdout` the digest of what `conform` prints (checked in
//! `tests/conform.rs`, which evaluates the ledger anyway).  The documents do
//! not depend on the thread count, so the scenarios run on every available
//! thread.
//!
//! On a mismatch the fresh file is written to
//! `$CARGO_TARGET_TMPDIR/scenario_digests.json`; copy it over the golden
//! only when a change is meant to alter the documents, and name every
//! scenario that moved.
//!
//! The golden lists exactly the registered scenarios, so the one document
//! pinned outside the registry, CI's 128-port four-fabric scenario, has its
//! digest in its own test here.

use std::collections::{BTreeMap, BTreeSet};

use fabric_power_fabric::provider::stable_hash_hex;
use fabric_power_sweep::{
    Scenario, ScenarioRegistry, SeedStrategy, ShardStrategy, SweepEngine, SweepPlan,
};
use serde::{Deserialize, Serialize};

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/scenario_digests.json"
);

#[derive(Serialize, Deserialize)]
struct Digests {
    scenarios: BTreeMap<String, String>,
    conform_stdout: String,
}

/// The bytes `fabric-power sweep --scenario <name> --out FILE` writes: the
/// grid as a one-shard plan, pretty JSON and a trailing newline.
fn document_digest(engine: &SweepEngine, scenario: &Scenario) -> String {
    let plan = SweepPlan::new(
        scenario.name.clone(),
        scenario.config.clone(),
        SeedStrategy::Shared,
        1,
        ShardStrategy::Contiguous,
    )
    .expect("one shard");
    let document = engine.run_plan(&plan).expect("the scenario runs");
    let bytes = serde_json::to_string_pretty(&document).expect("serialize") + "\n";
    stable_hash_hex(bytes.as_bytes())
}

#[test]
fn every_registered_scenario_document_is_pinned() {
    let golden: Digests =
        serde_json::from_str(&std::fs::read_to_string(GOLDEN).expect("read the golden"))
            .expect("parse the golden");
    let engine = SweepEngine::new();
    let fresh: BTreeMap<String, String> = ScenarioRegistry::builtin()
        .scenarios()
        .iter()
        .map(|scenario| (scenario.name.clone(), document_digest(&engine, scenario)))
        .collect();
    let names: BTreeSet<&String> = fresh.keys().chain(golden.scenarios.keys()).collect();
    let drifted: Vec<String> = names
        .into_iter()
        .filter_map(|name| match (fresh.get(name), golden.scenarios.get(name)) {
            (Some(digest), Some(pin)) if digest == pin => None,
            (Some(_), Some(_)) => Some(format!("{name} drifted")),
            (Some(_), None) => Some(format!("{name} is registered but not pinned")),
            (None, _) => Some(format!("{name} is pinned but not registered")),
        })
        .collect();
    if !drifted.is_empty() {
        let digests = Digests {
            scenarios: fresh,
            conform_stdout: golden.conform_stdout,
        };
        let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("scenario_digests.json");
        let json = serde_json::to_string_pretty(&digests).expect("serialize") + "\n";
        std::fs::write(&path, json).expect("write fresh digests");
        panic!(
            "{}; fresh digests are in {}",
            drifted.join(", "),
            path.display()
        );
    }
}

/// CI's "Wide-fabric" scenario, as `sweep --scenario-file` reads it: all
/// four 128-port fabrics at one load.  No registered scenario has a fabric
/// above 64 ports.
const WIDE_128: &str = r#"{
  "name": "wide-128",
  "summary": "All four 128-port fabrics at one load",
  "config": {
    "port_counts": [128],
    "offered_loads": [0.3],
    "architectures": ["Crossbar", "FullyConnected", "Banyan", "BatcherBanyan"],
    "packet_words": 16,
    "warmup_cycles": 50,
    "measure_cycles": 200,
    "seed": 229384194,
    "pattern": "UniformRandom",
    "model_source": "Paper"
  }
}"#;

#[test]
fn the_128_port_four_fabric_document_is_pinned() {
    let scenario: Scenario = serde_json::from_str(WIDE_128).expect("parse the scenario");
    for threads in [1, 2] {
        let engine = SweepEngine::new().with_threads(threads);
        assert_eq!(
            document_digest(&engine, &scenario),
            "4ef344d1f0d835cdc2e0beedb6282aa2",
            "{threads} thread(s)"
        );
    }
}
