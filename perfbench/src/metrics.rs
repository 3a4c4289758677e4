//! The benchmark's metric catalog — the names and units `BENCHMARK.json`
//! declares, in the same order — and the per-layer accumulator a traced
//! sample fills in.

use std::collections::BTreeMap;
use std::time::Duration;

/// End-to-end metrics, reported from untraced samples on every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("sim_cycles_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported from traced samples on every workload (a
/// layer the workload does not reach reads 0).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("router.run_s", "s"),
    ("router.run_s.crossbar", "s"),
    ("router.run_s.fully_connected", "s"),
    ("router.run_s.banyan", "s"),
    ("router.run_s.batcher_banyan", "s"),
    ("router.run_s.p4", "s"),
    ("router.run_s.p8", "s"),
    ("router.run_s.p16", "s"),
    ("router.run_s.p32", "s"),
    ("router.ns_per_cycle", "ns"),
    ("router.ns_per_cycle.crossbar", "ns"),
    ("router.ns_per_cycle.fully_connected", "ns"),
    ("router.ns_per_cycle.banyan", "ns"),
    ("router.ns_per_cycle.batcher_banyan", "ns"),
    ("router.cycles", "count"),
    ("router.words_delivered", "count"),
    ("router.packets_delivered", "count"),
    ("router.buffered_words", "count"),
    ("noc.run_s", "s"),
    ("noc.run_s.2x2", "s"),
    ("noc.run_s.4x4", "s"),
    ("noc.run_s.8x8", "s"),
    ("noc.ns_per_node_tick", "ns"),
    ("noc.node_ticks", "count"),
    ("noc.link_words", "count"),
    ("noc.credit_stalls", "count"),
    ("netlist.characterize_s", "s"),
    ("netlist.characterize_s.crosspoint", "s"),
    ("netlist.characterize_s.banyan", "s"),
    ("netlist.characterize_s.batcher", "s"),
    ("netlist.characterize_s.mux4", "s"),
    ("netlist.characterize_s.mux8", "s"),
    ("netlist.characterize_s.mux16", "s"),
    ("netlist.characterize_s.mux32", "s"),
    ("netlist.lane_cycles", "count"),
    ("netlist.lane_cycles_per_s", "1/s"),
    ("fabric.build_s", "s"),
    ("fabric.assemble_s", "s"),
    ("fabric.store_write_s", "s"),
    ("fabric.store_read_s", "s"),
    ("fabric.builds", "count"),
    ("fabric.disk_hits", "count"),
    ("fabric.disk_rejections", "count"),
    ("fabric.warm_hit_ratio", "ratio"),
    ("fabric.store_bytes", "bytes"),
    ("sweep.plan_s", "s"),
    ("sweep.cell_s", "s"),
    ("sweep.max_cell_s", "s"),
    ("sweep.self_s", "s"),
    ("sweep.merge_s", "s"),
    ("sweep.emit_s", "s"),
    ("sweep.doc_bytes", "bytes"),
    ("trace.overhead_frac", "ratio"),
    ("trace.coverage_frac", "ratio"),
];

/// The self times that partition a traced sample's work between the
/// layers; their sum, over the untraced `wall_s`, is `trace.coverage_frac`.
pub const SELF_TIMES: &[&str] = &[
    "router.run_s",
    "noc.run_s",
    "netlist.characterize_s",
    "fabric.assemble_s",
    "fabric.store_write_s",
    "fabric.store_read_s",
    "sweep.self_s",
];

/// Per-layer values of one traced sample, keyed by catalog name.
#[derive(Debug, Clone, Default)]
pub struct Layers(BTreeMap<String, f64>);

impl Layers {
    /// Adds `value` to metric `name` (missing metrics start at 0).
    pub fn add(&mut self, name: &str, value: f64) {
        *self.0.entry(name.to_owned()).or_default() += value;
    }

    /// Adds a duration in seconds to metric `name`.
    pub fn add_time(&mut self, name: &str, elapsed: Duration) {
        self.add(name, elapsed.as_secs_f64());
    }

    /// Raises metric `name` to at least `value`.
    pub fn max(&mut self, name: &str, value: f64) {
        let entry = self.0.entry(name.to_owned()).or_default();
        *entry = entry.max(value);
    }

    /// Overwrites metric `name`.
    pub fn set(&mut self, name: &str, value: f64) {
        self.0.insert(name.to_owned(), value);
    }

    /// The value of metric `name` (0 when never touched).
    #[must_use]
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// Sets `name` to `numerator / denominator × scale`, or 0 when the
    /// denominator is 0 (a layer the workload never reached).
    pub fn set_ratio(&mut self, name: &str, numerator: &str, denominator: &str, scale: f64) {
        let denominator = self.get(denominator);
        let value = if denominator > 0.0 {
            self.get(numerator) / denominator * scale
        } else {
            0.0
        };
        self.set(name, value);
    }

    /// Sum of the layer self times ([`SELF_TIMES`]).
    #[must_use]
    pub fn self_time_s(&self) -> f64 {
        SELF_TIMES.iter().map(|name| self.get(name)).sum()
    }

    /// Names this sample set that the catalog does not declare.
    #[must_use]
    pub fn unknown_names(&self) -> Vec<String> {
        self.0
            .keys()
            .filter(|name| !PER_LAYER.iter().any(|(known, _)| known == name))
            .cloned()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` pairs of one metric list in `BENCHMARK.json`.
    fn declared(list: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let json = serde_json::parse_value_str(&text).expect("BENCHMARK.json parses");
        json.get(list)
            .and_then(serde::Value::as_array)
            .expect("metric list present")
            .iter()
            .map(|metric| {
                let field = |key| metric.get(key).and_then(serde::Value::as_str).unwrap();
                (field("name").to_owned(), field("unit").to_owned())
            })
            .collect()
    }

    fn catalog(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|(name, unit)| ((*name).to_owned(), (*unit).to_owned()))
            .collect()
    }

    #[test]
    fn catalog_matches_benchmark_json() {
        assert_eq!(catalog(END_TO_END), declared("end_to_end"));
        assert_eq!(catalog(PER_LAYER), declared("per_layer"));
    }

    #[test]
    fn self_times_are_catalog_metrics() {
        for name in SELF_TIMES {
            assert!(PER_LAYER.iter().any(|(known, _)| known == name), "{name}");
        }
    }
}
