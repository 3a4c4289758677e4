//! Structured emitters: deterministic JSON and CSV documents for sweep
//! results.
//!
//! A [`SweepDocument`] bundles the scenario name, the exact configuration
//! that ran, and every measured point.  Serialization is fully
//! deterministic — object keys keep declaration order, floats render via
//! shortest-round-trip formatting — so the same sweep always produces the
//! same bytes, whatever the thread count (exercised by the workspace's
//! determinism tests).

use std::io::Write;
use std::path::Path;

use serde::{Deserialize, Serialize};

use crate::cell::{SeedStrategy, SweepPoint};
use crate::config::ExperimentConfig;

pub use fabric_power_fabric::provider::write_atomic;

/// A complete, self-describing sweep result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepDocument {
    /// The scenario name this sweep ran (or a free-form label).
    pub scenario: String,
    /// The exact configuration that produced the points.
    pub config: ExperimentConfig,
    /// How each cell's seed was derived from `config.seed` — without this a
    /// `per-cell` run could not be reproduced from its own document.
    pub seed_strategy: SeedStrategy,
    /// One point per grid cell, in canonical order.
    pub points: Vec<SweepPoint>,
}

/// The CSV header [`SweepDocument::to_csv_string`] writes.
pub const CSV_HEADER: &str = "architecture,ports,offered_load,measured_throughput,power_mw,\
switch_energy_j,buffer_energy_j,wire_energy_j,buffered_words,average_latency_cycles,\
latency_p50,latency_p95,latency_p99";

/// Extra columns appended to [`CSV_HEADER`] when at least one point carries
/// network aggregates (a sweep with a mesh axis).  Single-router documents
/// keep the original 13-column shape byte for byte.
pub const CSV_NETWORK_COLUMNS: &str = ",width,height,torus,routing,average_hops,\
hops_p50,hops_p95,hops_p99,link_energy_j,per_hop_energy_j,saturation_throughput,\
link_words,credit_stalls";

impl SweepDocument {
    /// Serializes to pretty JSON (deterministic bytes).
    ///
    /// # Errors
    ///
    /// Propagates serializer errors.
    pub fn to_json_string(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string_pretty(self)
    }

    /// Parses a document previously emitted by
    /// [`SweepDocument::to_json_string`].
    ///
    /// # Errors
    ///
    /// Propagates parse errors.
    pub fn from_json_str(json: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(json)
    }

    /// Renders the points as CSV (header plus one row per point).
    ///
    /// When any point carries network aggregates the
    /// [`CSV_NETWORK_COLUMNS`] are appended to the header and every row —
    /// empty fields on rows without them (a 1×1 network cell in a mixed
    /// document).  Documents without any stay in the original 13-column
    /// shape.
    #[must_use]
    pub fn to_csv_string(&self) -> String {
        let networked = self.points.iter().any(|point| point.network.is_some());
        let mut out = String::from(CSV_HEADER);
        if networked {
            out.push_str(CSV_NETWORK_COLUMNS);
        }
        out.push('\n');
        for point in &self.points {
            out.push_str(&format!(
                "{},{},{},{},{},{},{},{},{},{},{},{},{}",
                point.architecture.slug(),
                point.ports,
                point.offered_load,
                point.measured_throughput,
                point.power.as_milliwatts(),
                point.switch_energy.as_joules(),
                point.buffer_energy.as_joules(),
                point.wire_energy.as_joules(),
                point.buffered_words,
                point.average_latency_cycles,
                point.latency_p50,
                point.latency_p95,
                point.latency_p99,
            ));
            if networked {
                match &point.network {
                    Some(stats) => out.push_str(&format!(
                        ",{},{},{},{},{},{},{},{},{},{},{},{},{}",
                        stats.width,
                        stats.height,
                        stats.torus,
                        stats.routing.slug(),
                        stats.average_hops,
                        stats.hops_p50,
                        stats.hops_p95,
                        stats.hops_p99,
                        stats.link_energy.as_joules(),
                        stats.per_hop_energy.as_joules(),
                        stats.saturation_throughput,
                        stats.link_words,
                        stats.credit_stalls,
                    )),
                    None => out.push_str(&",".repeat(13)),
                }
            }
            out.push('\n');
        }
        out
    }

    /// Writes the JSON form to `path` (with a trailing newline),
    /// atomically — see [`write_atomic`].
    ///
    /// # Errors
    ///
    /// Propagates serializer and I/O errors.
    pub fn write_json(&self, path: &Path) -> Result<(), Box<dyn std::error::Error>> {
        write_atomic(path, &(self.to_json_string()? + "\n"))?;
        Ok(())
    }

    /// Writes the CSV form to `path`, atomically — see [`write_atomic`].
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_csv(&self, path: &Path) -> Result<(), Box<dyn std::error::Error>> {
        write_atomic(path, &self.to_csv_string())?;
        Ok(())
    }
}

/// Writes `text` to standard output in full: the one stdout path of the
/// command-line binaries.
///
/// A reader that has gone away (a closed pipe, as in `fabric-power … |
/// head`) ends the process quietly with exit status 0, since nobody is left
/// to read the rest.  Any other write error is returned.
///
/// # Errors
///
/// Returns a message naming stdout for a write error other than a closed
/// pipe.
pub fn write_stdout(text: &str) -> Result<(), String> {
    let written = {
        let mut stdout = std::io::stdout().lock();
        stdout
            .write_all(text.as_bytes())
            .and_then(|()| stdout.flush())
    };
    match written {
        Ok(()) => Ok(()),
        Err(error) if error.kind() == std::io::ErrorKind::BrokenPipe => std::process::exit(0),
        Err(error) => Err(format!("writing to stdout: {error}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SweepEngine;

    fn quick_document() -> SweepDocument {
        let config = ExperimentConfig {
            port_counts: vec![4],
            offered_loads: vec![0.2],
            warmup_cycles: 50,
            measure_cycles: 200,
            ..ExperimentConfig::quick()
        };
        let points = SweepEngine::new().with_threads(1).run(&config).unwrap();
        SweepDocument {
            scenario: "unit-test".into(),
            config,
            seed_strategy: SeedStrategy::Shared,
            points,
        }
    }

    #[test]
    fn json_round_trips_losslessly() {
        let document = quick_document();
        let json = document.to_json_string().expect("serialize");
        let back = SweepDocument::from_json_str(&json).expect("deserialize");
        assert_eq!(document, back);
    }

    #[test]
    fn json_bytes_are_deterministic() {
        let a = quick_document().to_json_string().unwrap();
        let b = quick_document().to_json_string().unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn csv_has_header_plus_one_row_per_point() {
        let document = quick_document();
        let csv = document.to_csv_string();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], CSV_HEADER);
        assert_eq!(lines.len(), 1 + document.points.len());
        let fields: Vec<&str> = lines[1].split(',').collect();
        assert_eq!(fields.len(), 13);
        assert_eq!(fields[1], "4");
        // The three percentile columns sit after the mean latency.
        assert!(CSV_HEADER.ends_with("latency_p50,latency_p95,latency_p99"));
    }

    #[test]
    fn network_sweeps_append_the_network_csv_columns() {
        let config = ExperimentConfig {
            port_counts: vec![8],
            offered_loads: vec![0.2],
            architectures: vec![fabric_power_fabric::Architecture::Crossbar],
            warmup_cycles: 20,
            measure_cycles: 100,
            network: Some(crate::config::NetworkSweepConfig::meshes(&[(1, 1), (2, 2)])),
            ..ExperimentConfig::quick()
        };
        let points = SweepEngine::new().with_threads(1).run(&config).unwrap();
        let document = SweepDocument {
            scenario: "noc-csv".into(),
            config,
            seed_strategy: SeedStrategy::Shared,
            points,
        };
        let csv = document.to_csv_string();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], format!("{CSV_HEADER}{CSV_NETWORK_COLUMNS}"));
        assert!(lines[0].ends_with("credit_stalls"));
        let columns = lines[0].split(',').count();
        // The 1×1 cell has no network aggregates: its row pads with empty
        // fields but keeps the column count.
        for row in &lines[1..] {
            assert_eq!(row.split(',').count(), columns, "{row}");
        }
        assert!(lines[1].ends_with(&",".repeat(13)), "1x1 row pads empty");
        let multi: Vec<&str> = lines[2].split(',').collect();
        assert_eq!(multi[13], "2", "width column");
        assert_eq!(multi[14], "2", "height column");
        assert_eq!(multi[16], "dimension-order");
        // The JSON form round-trips the aggregates losslessly.
        let back = SweepDocument::from_json_str(&document.to_json_string().unwrap()).unwrap();
        assert_eq!(back, document);
        assert!(back.points[0].network.is_none());
        assert!(back.points[1].network.is_some());
    }

    #[test]
    fn documents_without_percentile_fields_still_parse() {
        // A point as emitted before the latency-percentile columns existed:
        // no latency_p50/p95/p99 keys.  `#[serde(default)]` reads them as 0
        // instead of rejecting the whole document.
        let legacy = r#"{
            "architecture": "Crossbar",
            "ports": 4,
            "offered_load": 0.2,
            "measured_throughput": 0.19,
            "power": 0.0015,
            "switch_energy": 1e-9,
            "buffer_energy": 0.0,
            "wire_energy": 1e-9,
            "buffered_words": 0,
            "average_latency_cycles": 17.5
        }"#;
        let point: crate::cell::SweepPoint = serde_json::from_str(legacy).expect("legacy parses");
        assert_eq!(point.average_latency_cycles, 17.5);
        assert_eq!(point.latency_p50, 0.0);
        assert_eq!(point.latency_p95, 0.0);
        assert_eq!(point.latency_p99, 0.0);
    }

    #[test]
    fn atomic_writes_replace_and_leave_no_temp_files() {
        let dir =
            std::env::temp_dir().join(format!("fabric-power-emit-atomic-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("doc.json");
        write_atomic(&path, "first\n").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "first\n");
        // Overwriting an existing file goes through the same rename.
        write_atomic(&path, "second\n").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "second\n");
        // Nothing but the target remains — no stray temp files.
        let entries: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(entries, vec!["doc.json".to_string()]);
        // A write into a missing directory fails without inventing files.
        let missing = dir.join("no-such-dir").join("doc.json");
        assert!(write_atomic(&missing, "x").is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn files_round_trip_through_disk() {
        let document = quick_document();
        let dir = std::env::temp_dir();
        let json_path = dir.join("fabric_power_sweep_emit_test.json");
        let csv_path = dir.join("fabric_power_sweep_emit_test.csv");
        document.write_json(&json_path).expect("write json");
        document.write_csv(&csv_path).expect("write csv");
        let json = std::fs::read_to_string(&json_path).expect("read json");
        let back = SweepDocument::from_json_str(json.trim_end()).expect("parse");
        assert_eq!(document, back);
        assert!(std::fs::read_to_string(&csv_path)
            .expect("read csv")
            .starts_with("architecture,"));
        let _ = std::fs::remove_file(json_path);
        let _ = std::fs::remove_file(csv_path);
    }
}
