//! What `fabric-power sweep` itself writes: the `--out` bytes of a
//! single-router and a mesh scenario, against the digests that
//! `tests/golden/scenario_digests.json` pins for the library's run of the
//! same scenarios, and the header of the `--csv` table.

use std::path::PathBuf;
use std::process::Command;

use fabric_power_fabric::provider::stable_hash_hex;

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/golden/scenario_digests.json"
);

/// The digest the golden pins for the registered scenario `name`.
fn pinned_digest(name: &str) -> String {
    let golden = std::fs::read_to_string(GOLDEN).expect("read the golden");
    let golden = serde_json::parse_value_str(&golden).expect("parse the golden");
    golden
        .get("scenarios")
        .and_then(|scenarios| scenarios.get(name))
        .and_then(serde::Value::as_str)
        .unwrap_or_else(|| panic!("`{name}` is not pinned"))
        .to_string()
}

/// Runs `sweep --scenario <name> --threads 1` with `flag` pointing at a
/// temporary file named after `tag`, and returns what it wrote there.
fn sweep_to_file(name: &str, flag: &str, tag: &str) -> Vec<u8> {
    let path: PathBuf = std::env::temp_dir().join(format!(
        "fabric-power-cli-sweep-{}-{tag}",
        std::process::id()
    ));
    let output = Command::new(env!("CARGO_BIN_EXE_fabric-power"))
        .args(["sweep", "--scenario", name, "--threads", "1", flag])
        .arg(&path)
        .output()
        .expect("run fabric-power");
    let bytes = std::fs::read(&path);
    let _ = std::fs::remove_file(&path);
    assert!(
        output.status.success(),
        "{name}: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    bytes.expect("read what sweep wrote")
}

#[test]
fn sweep_writes_the_pinned_documents() {
    // One single-router scenario and one mesh scenario.
    for name in ["quick", "noc-quick"] {
        let bytes = sweep_to_file(name, "--out", &format!("{name}.json"));
        assert_eq!(stable_hash_hex(&bytes), pinned_digest(name), "{name}");
    }
}

#[test]
fn sweep_writes_the_csv_header() {
    let csv = sweep_to_file("quick", "--csv", "quick.csv");
    let csv = String::from_utf8(csv).expect("UTF-8 CSV");
    let header = csv.lines().next().expect("a header line");
    assert_eq!(header.split(',').count(), 13, "{header}");
    assert!(
        header.ends_with("latency_p50,latency_p95,latency_p99"),
        "{header}"
    );
}
