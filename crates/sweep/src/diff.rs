//! Structural comparison of two [`SweepDocument`]s: the engine behind
//! `fabric-power diff <a.json> <b.json>`.
//!
//! Sweeps are deterministic, so two runs of the same scenario must agree to
//! the byte — any drift (a model change, a broken cache entry, a
//! non-deterministic code path) shows up here as per-cell deltas.  The diff
//! is cell-oriented rather than textual: mismatches name the operating point
//! and the field, not a line number.

use std::collections::BTreeMap;

use fabric_power_router::metrics::SparseLatencyHistogram;

use crate::emit::{SweepDocument, NETWORK_FIELDS, POINT_FIELDS};

/// One numeric field that differs between the two documents at one cell.
#[derive(Debug, Clone, PartialEq)]
pub struct FieldDelta {
    /// Field name: the JSON/CSV spelling, or for the latency histogram
    /// `latency_histogram.count` (likewise `sum`, `max`, `overflow`) and
    /// `latency_histogram[L]`, the samples of latency `L` cycles.
    pub field: String,
    /// Value in the first document.
    pub a: f64,
    /// Value in the second document.
    pub b: f64,
}

impl FieldDelta {
    /// The relative deviation `|a − b| / max(|a|, |b|)` (0 when both are 0).
    #[must_use]
    pub fn relative(&self) -> f64 {
        let scale = self.a.abs().max(self.b.abs());
        if scale == 0.0 {
            0.0
        } else {
            (self.a - self.b).abs() / scale
        }
    }
}

/// All field deltas of one grid cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CellDiff {
    /// Cell position in canonical grid order.
    pub index: usize,
    /// The cell's operating point, for the report (`architecture`, ports,
    /// offered load come from the first document).
    pub label: String,
    /// Every differing numeric field, the latency histogram's last.
    pub fields: Vec<FieldDelta>,
}

/// The full comparison result.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DocumentDiff {
    /// Mismatches in the documents' shape or metadata (scenario name,
    /// configuration, seed strategy, point counts, cell coordinates).  Any
    /// entry here means the per-cell comparison below is best-effort.
    pub structural: Vec<String>,
    /// Cells whose measured values differ beyond the tolerance.
    pub cells: Vec<CellDiff>,
}

impl DocumentDiff {
    /// `true` when the two documents agree (within the tolerance used).
    #[must_use]
    pub fn is_match(&self) -> bool {
        self.structural.is_empty() && self.cells.is_empty()
    }

    /// Renders the human-readable report `fabric-power diff` prints.
    #[must_use]
    pub fn format(&self) -> String {
        if self.is_match() {
            return "documents match\n".to_owned();
        }
        let mut out = String::new();
        for note in &self.structural {
            out.push_str(&format!("structural: {note}\n"));
        }
        for cell in &self.cells {
            out.push_str(&format!("cell {} [{}]:\n", cell.index, cell.label));
            for delta in &cell.fields {
                out.push_str(&format!(
                    "  {:<22} a={:.6e}  b={:.6e}  rel={:.3e}\n",
                    delta.field,
                    delta.a,
                    delta.b,
                    delta.relative()
                ));
            }
        }
        out.push_str(&format!(
            "{} structural note(s), {} differing cell(s)\n",
            self.structural.len(),
            self.cells.len()
        ));
        out
    }
}

/// Compares two sweep documents cell by cell.
///
/// `tolerance` is the accepted relative deviation per field (`0.0` demands
/// exact equality — the right setting for two runs of the same deterministic
/// scenario; a small tolerance like `1e-9` compares results across
/// platforms or refactors).  Each latency-histogram total and the count at
/// each latency is a field of its own.
#[must_use]
pub fn diff_documents(a: &SweepDocument, b: &SweepDocument, tolerance: f64) -> DocumentDiff {
    let mut diff = DocumentDiff::default();

    if a.scenario != b.scenario {
        diff.structural
            .push(format!("scenario `{}` vs `{}`", a.scenario, b.scenario));
    }
    if a.config != b.config {
        diff.structural
            .push("experiment configurations differ".to_owned());
    }
    if a.seed_strategy != b.seed_strategy {
        diff.structural.push("seed strategies differ".to_owned());
    }
    if a.points.len() != b.points.len() {
        diff.structural.push(format!(
            "{} point(s) vs {} point(s)",
            a.points.len(),
            b.points.len()
        ));
    }

    for (index, (pa, pb)) in a.points.iter().zip(&b.points).enumerate() {
        if pa.architecture != pb.architecture
            || pa.ports != pb.ports
            || pa.offered_load.to_bits() != pb.offered_load.to_bits()
        {
            diff.structural.push(format!(
                "cell {index}: coordinates differ ({} {}x{} @{} vs {} {}x{} @{})",
                pa.architecture.slug(),
                pa.ports,
                pa.ports,
                pa.offered_load,
                pb.architecture.slug(),
                pb.ports,
                pb.ports,
                pb.offered_load,
            ));
            continue;
        }

        let fields: Vec<FieldDelta> = POINT_FIELDS
            .iter()
            .chain(&NETWORK_FIELDS)
            .map(|&(field, value)| (field.to_owned(), value(pa), value(pb)))
            .chain(histogram_fields(
                &pa.latency_histogram,
                &pb.latency_histogram,
            ))
            .map(|(field, a, b)| FieldDelta { field, a, b })
            // A NaN deviation (one side NaN) must report as a difference,
            // not vanish through a false `>` comparison.
            .filter(|delta| {
                let relative = delta.relative();
                delta.a.to_bits() != delta.b.to_bits()
                    && (relative.is_nan() || relative > tolerance)
            })
            .collect();
        if !fields.is_empty() {
            diff.cells.push(CellDiff {
                index,
                label: format!(
                    "{} {}x{} @{:.0}%",
                    pa.architecture.slug(),
                    pa.ports,
                    pa.ports,
                    pa.offered_load * 100.0
                ),
                fields,
            });
        }
    }

    diff
}

/// Every field of two cells' latency histograms as `(name, a, b)`: the four
/// totals, then the samples at each latency either side records, ascending.
/// Bins are summed by latency, so two histograms that expand to the same
/// distribution have no differing field.
fn histogram_fields(
    a: &SparseLatencyHistogram,
    b: &SparseLatencyHistogram,
) -> Vec<(String, f64, f64)> {
    let totals = [
        ("count", a.count, b.count),
        ("sum", a.sum, b.sum),
        ("max", a.max, b.max),
        ("overflow", a.overflow, b.overflow),
    ];
    let mut bins: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
    for &(latency, count) in &a.bins {
        let entry = &mut bins.entry(latency).or_default().0;
        *entry = entry.saturating_add(count);
    }
    for &(latency, count) in &b.bins {
        let entry = &mut bins.entry(latency).or_default().1;
        *entry = entry.saturating_add(count);
    }
    totals
        .into_iter()
        .map(|(total, a, b)| (format!("latency_histogram.{total}"), a, b))
        .chain(
            bins.into_iter()
                .map(|(latency, (a, b))| (format!("latency_histogram[{latency}]"), a, b)),
        )
        .map(|(field, a, b)| (field, a as f64, b as f64))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::SeedStrategy;
    use crate::config::ExperimentConfig;
    use crate::engine::SweepEngine;

    fn document() -> SweepDocument {
        let config = ExperimentConfig {
            port_counts: vec![4],
            offered_loads: vec![0.2, 0.4],
            warmup_cycles: 50,
            measure_cycles: 200,
            ..ExperimentConfig::quick()
        };
        let points = SweepEngine::new().with_threads(1).run(&config).unwrap();
        SweepDocument {
            scenario: "diff-test".into(),
            config,
            seed_strategy: SeedStrategy::Shared,
            points,
        }
    }

    #[test]
    fn identical_documents_match() {
        let doc = document();
        let diff = diff_documents(&doc, &doc.clone(), 0.0);
        assert!(diff.is_match());
        assert_eq!(diff.format(), "documents match\n");
    }

    #[test]
    fn value_drift_is_reported_per_cell_and_field() {
        let a = document();
        let mut b = a.clone();
        b.points[1].measured_throughput *= 1.5;
        b.points[1].average_latency_cycles += 1.0;
        let diff = diff_documents(&a, &b, 0.0);
        assert!(!diff.is_match());
        assert!(diff.structural.is_empty());
        assert_eq!(diff.cells.len(), 1);
        assert_eq!(diff.cells[0].index, 1);
        let fields: Vec<&str> = diff.cells[0].fields.iter().map(|d| &*d.field).collect();
        assert_eq!(
            fields,
            vec!["measured_throughput", "average_latency_cycles"]
        );
        let report = diff.format();
        assert!(report.contains("cell 1"));
        assert!(report.contains("measured_throughput"));
        assert!(report.contains("1 differing cell(s)"));
    }

    #[test]
    fn latency_percentile_drift_is_reported() {
        let a = document();
        let mut b = a.clone();
        b.points[0].latency_p50 += 1.0;
        b.points[0].latency_p95 += 2.0;
        b.points[0].latency_p99 += 3.0;
        let diff = diff_documents(&a, &b, 0.0);
        assert!(!diff.is_match());
        let fields: Vec<&str> = diff.cells[0].fields.iter().map(|d| &*d.field).collect();
        assert_eq!(fields, vec!["latency_p50", "latency_p95", "latency_p99"]);
    }

    #[test]
    fn latency_histogram_drift_alone_is_a_cell_difference() {
        let a = document();
        let mut b = a.clone();
        // Move one sample between the first two latency bins: every total
        // and percentile of the document stays as it was.
        let histogram = &mut b.points[1].latency_histogram;
        assert!(histogram.bins.len() >= 2, "{histogram:?}");
        histogram.bins[0].1 -= 1;
        histogram.bins[1].1 += 1;
        let (low, high) = (histogram.bins[0].0, histogram.bins[1].0);
        let diff = diff_documents(&a, &b, 0.0);
        assert!(diff.structural.is_empty());
        assert_eq!(diff.cells.len(), 1);
        assert_eq!(diff.cells[0].index, 1);
        let fields: Vec<&str> = diff.cells[0].fields.iter().map(|d| &*d.field).collect();
        assert_eq!(
            fields,
            vec![
                format!("latency_histogram[{low}]"),
                format!("latency_histogram[{high}]")
            ]
        );
        assert!(diff.format().contains("1 differing cell(s)"));
        // A total differs on its own too.
        let mut c = a.clone();
        c.points[0].latency_histogram.overflow += 1;
        let diff = diff_documents(&a, &c, 0.0);
        assert_eq!(diff.cells[0].fields[0].field, "latency_histogram.overflow");
    }

    #[test]
    fn network_aggregates_diff_like_any_other_field() {
        let stats = fabric_power_noc::NetworkStats {
            width: 2,
            height: 2,
            torus: false,
            routing: fabric_power_noc::RoutingPolicy::DimensionOrder,
            average_hops: 1.5,
            hops_p50: 1.0,
            hops_p95: 2.0,
            hops_p99: 2.0,
            link_energy: fabric_power_tech::units::Energy::from_picojoules(3.0),
            per_hop_energy: fabric_power_tech::units::Energy::from_picojoules(0.5),
            saturation_throughput: 0.2,
            link_words: 100,
            credit_stalls: 4,
        };
        // Both sides carrying stats: only the drifted field reports.
        let mut a = document();
        a.points[0].network = Some(stats);
        let mut b = a.clone();
        b.points[0].network = Some(fabric_power_noc::NetworkStats {
            average_hops: 1.75,
            ..stats
        });
        let diff = diff_documents(&a, &b, 0.0);
        assert_eq!(diff.cells.len(), 1);
        let fields: Vec<&str> = diff.cells[0].fields.iter().map(|d| &*d.field).collect();
        assert_eq!(fields, vec!["average_hops"]);
        // Present vs absent is a difference (NaN never hides), at any
        // tolerance.
        let mut stripped = a.clone();
        stripped.points[0].network = None;
        for tolerance in [0.0, 1e-3] {
            let diff = diff_documents(&a, &stripped, tolerance);
            assert!(!diff.is_match(), "tol {tolerance}");
            assert!(diff.cells[0]
                .fields
                .iter()
                .any(|d| d.field == "average_hops"));
        }
        // Two single-router documents (no stats anywhere) still match: the
        // NaN placeholders agree bit for bit.
        assert!(diff_documents(&document(), &document(), 0.0).is_match());
    }

    #[test]
    fn tolerance_absorbs_small_relative_drift() {
        let a = document();
        let mut b = a.clone();
        b.points[0].measured_throughput *= 1.0 + 1e-12;
        assert!(!diff_documents(&a, &b, 0.0).is_match());
        assert!(diff_documents(&a, &b, 1e-9).is_match());
    }

    #[test]
    fn shape_and_metadata_mismatches_are_structural() {
        let a = document();

        let mut renamed = a.clone();
        renamed.scenario = "other".into();
        let diff = diff_documents(&a, &renamed, 0.0);
        assert_eq!(diff.structural.len(), 1);
        assert!(diff.structural[0].contains("scenario"));

        let mut truncated = a.clone();
        truncated.points.pop();
        assert!(diff_documents(&a, &truncated, 0.0)
            .structural
            .iter()
            .any(|n| n.contains("point(s)")));

        let mut shuffled = a.clone();
        shuffled.points.swap(0, 1);
        let diff = diff_documents(&a, &shuffled, 0.0);
        assert!(diff
            .structural
            .iter()
            .any(|n| n.contains("coordinates differ")));
    }

    #[test]
    fn nan_on_one_side_is_a_difference_not_a_match() {
        let a = document();
        let mut b = a.clone();
        b.points[0].average_latency_cycles = f64::NAN;
        for tolerance in [0.0, 1e-3] {
            let diff = diff_documents(&a, &b, tolerance);
            assert!(!diff.is_match(), "NaN must never hide (tol {tolerance})");
            assert_eq!(diff.cells[0].fields[0].field, "average_latency_cycles");
        }
    }

    #[test]
    fn field_delta_relative_handles_zero() {
        assert_eq!(
            FieldDelta {
                field: "x".into(),
                a: 0.0,
                b: 0.0
            }
            .relative(),
            0.0
        );
        assert!(
            (FieldDelta {
                field: "x".into(),
                a: 1.0,
                b: 2.0
            }
            .relative()
                - 0.5)
                .abs()
                < 1e-12
        );
    }
}
