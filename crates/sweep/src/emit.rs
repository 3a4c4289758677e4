//! Structured emitters: deterministic JSON and CSV documents for sweep
//! results.
//!
//! A [`SweepDocument`] bundles the scenario name, the exact configuration
//! that ran, and every measured point.  Serialization is fully
//! deterministic — object keys keep declaration order, floats render via
//! shortest-round-trip formatting — so the same sweep always produces the
//! same bytes, whatever the thread count (exercised by the workspace's
//! determinism tests).

use std::fmt::Write as _;
use std::io::Write as _;

use fabric_power_noc::NetworkStats;
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

/// One reported value: its CSV column name and how to read it.
pub(crate) type Field = (&'static str, fn(&SweepPoint) -> f64);

/// A point's reported values keyed by CSV column name, in column order
/// after `architecture,ports,offered_load`.  The CSV table writes them and
/// [`crate::diff_documents`] compares them.
pub(crate) const POINT_FIELDS: [Field; 10] = [
    ("measured_throughput", |p| p.measured_throughput),
    ("power_mw", |p| p.power.as_milliwatts()),
    ("switch_energy_j", |p| p.switch_energy.as_joules()),
    ("buffer_energy_j", |p| p.buffer_energy.as_joules()),
    ("wire_energy_j", |p| p.wire_energy.as_joules()),
    ("buffered_words", |p| p.buffered_words as f64),
    ("average_latency_cycles", |p| p.average_latency_cycles),
    ("latency_p50", |p| p.latency_p50),
    ("latency_p95", |p| p.latency_p95),
    ("latency_p99", |p| p.latency_p99),
];

/// A point's network aggregates keyed by CSV column name, in column order
/// after the mesh columns `width,height,torus,routing`.  Each reads NaN for
/// a point without network stats, so two single-router points agree bit
/// for bit (same NaN) while `diff` reports a present-vs-absent pair.
pub(crate) const NETWORK_FIELDS: [Field; 9] = [
    ("average_hops", |p| network(p, |n| n.average_hops)),
    ("hops_p50", |p| network(p, |n| n.hops_p50)),
    ("hops_p95", |p| network(p, |n| n.hops_p95)),
    ("hops_p99", |p| network(p, |n| n.hops_p99)),
    ("link_energy_j", |p| {
        network(p, |n| n.link_energy.as_joules())
    }),
    ("per_hop_energy_j", |p| {
        network(p, |n| n.per_hop_energy.as_joules())
    }),
    ("saturation_throughput", |p| {
        network(p, |n| n.saturation_throughput)
    }),
    ("link_words", |p| network(p, |n| n.link_words as f64)),
    ("credit_stalls", |p| network(p, |n| n.credit_stalls as f64)),
];

/// One network aggregate of a point, or NaN when it has none.
fn network(point: &SweepPoint, value: fn(&NetworkStats) -> f64) -> f64 {
    point.network.as_ref().map_or(f64::NAN, value)
}

impl SweepDocument {
    /// Serializes to pretty JSON (deterministic bytes).
    ///
    /// # Errors
    ///
    /// Propagates serializer errors.
    pub fn to_json_string(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string_pretty(self)
    }

    /// Renders the points as CSV (header plus one row per point): the
    /// coordinates `architecture,ports,offered_load`, then the ten values
    /// `diff` compares, `measured_throughput` to `latency_p99`.
    ///
    /// When any point carries network aggregates, the mesh columns
    /// `width,height,torus,routing` and the nine network values,
    /// `average_hops` to `credit_stalls`, follow on the header and every
    /// row — empty fields on rows without them (a 1×1 network cell in a
    /// mixed document).  Documents without any keep the 13-column shape.
    #[must_use]
    pub fn to_csv_string(&self) -> String {
        let networked = self.points.iter().any(|point| point.network.is_some());
        let mut out = String::from("architecture,ports,offered_load");
        for (name, _) in POINT_FIELDS {
            let _ = write!(out, ",{name}");
        }
        if networked {
            out.push_str(",width,height,torus,routing");
            for (name, _) in NETWORK_FIELDS {
                let _ = write!(out, ",{name}");
            }
        }
        out.push('\n');
        for point in &self.points {
            let _ = write!(
                out,
                "{},{},{}",
                point.architecture.slug(),
                point.ports,
                point.offered_load
            );
            for (_, value) in POINT_FIELDS {
                let _ = write!(out, ",{}", value(point));
            }
            match &point.network {
                Some(stats) => {
                    let _ = write!(
                        out,
                        ",{},{},{},{}",
                        stats.width,
                        stats.height,
                        stats.torus,
                        stats.routing.slug()
                    );
                    for (_, value) in NETWORK_FIELDS {
                        let _ = write!(out, ",{}", value(point));
                    }
                }
                None if networked => out.push_str(&",".repeat(4 + NETWORK_FIELDS.len())),
                None => {}
            }
            out.push('\n');
        }
        out
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

    /// The single-router CSV header, the three percentile columns after
    /// the mean latency.
    const CSV_HEADER: &str = "architecture,ports,offered_load,measured_throughput,power_mw,\
switch_energy_j,buffer_energy_j,wire_energy_j,buffered_words,average_latency_cycles,\
latency_p50,latency_p95,latency_p99";

    /// The columns a document with network aggregates appends.
    const CSV_NETWORK_COLUMNS: &str = ",width,height,torus,routing,average_hops,\
hops_p50,hops_p95,hops_p99,link_energy_j,per_hop_energy_j,saturation_throughput,\
link_words,credit_stalls";

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
        let back = serde_json::from_str::<SweepDocument>(&json).expect("deserialize");
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
        let back =
            serde_json::from_str::<SweepDocument>(&document.to_json_string().unwrap()).unwrap();
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
}
