//! Plain-text summaries of sweep documents, used by `fabric-power report`.
//!
//! This is the one way to print the paper's Figures 9 and 10: run
//! `fabric-power sweep --scenario paper-fig9` (or `paper-fig10`) and pass
//! the document to `fabric-power report`.

use crate::emit::SweepDocument;
use crate::sweeps::{PortSweep, ThroughputSweep};

/// Renders per-fabric-size power and latency tables plus headline
/// observations (the cheapest architecture and the fully-connected vs.
/// Batcher-Banyan gap at each load) for a sweep document.
///
/// A mesh sweep gets one set of tables per mesh, each built from that
/// mesh's points alone.  Single-router points, and 1×1 meshes (which carry
/// no network stats), share one unlabeled set.
#[must_use]
pub fn format_document(document: &SweepDocument) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "scenario: {} ({} points, seed 0x{:X}, {} seeding)\n",
        document.scenario,
        document.points.len(),
        document.config.seed,
        match document.seed_strategy {
            crate::cell::SeedStrategy::Shared => "shared",
            crate::cell::SeedStrategy::PerCell => "per-cell",
        }
    ));

    // The lookups are ThroughputSweep's, so the CLI report and the API never
    // diverge on matching tolerance or tie-breaks.  Every mesh shares the
    // (architecture, ports, load) axes, so each mesh gets its own sweep.
    let mut meshes: Vec<(Option<String>, ThroughputSweep)> = Vec::new();
    for point in &document.points {
        let mesh = point.network.as_ref().map(|stats| {
            let shape = if stats.torus { "torus" } else { "mesh" };
            format!("{}x{} {shape}", stats.width, stats.height)
        });
        match meshes.iter_mut().find(|(label, _)| *label == mesh) {
            Some((_, sweep)) => sweep.points.push(point.clone()),
            None => meshes.push((
                mesh,
                ThroughputSweep {
                    points: vec![point.clone()],
                },
            )),
        }
    }

    let tables = meshes.iter().flat_map(|(mesh, sweep)| {
        let ports = document.config.port_counts.iter();
        ports.map(move |&ports| (mesh, sweep, ports))
    });
    for (mesh, sweep, ports) in tables {
        let title = match mesh {
            Some(mesh) => format!("{mesh} of {ports}x{ports} fabrics"),
            None => format!("{ports}x{ports} fabric"),
        };
        out.push_str(&format!("\n{title} — average power [mW]\n"));
        out.push_str(&format!("{:<16}", "load"));
        for &load in &document.config.offered_loads {
            out.push_str(&format!("{:>12.0}%", load * 100.0));
        }
        out.push('\n');
        for &architecture in &document.config.architectures {
            out.push_str(&format!("{:<16}", architecture.slug()));
            for &load in &document.config.offered_loads {
                match sweep.power(architecture, ports, load) {
                    Some(power) => {
                        out.push_str(&format!("{:>13.3}", power.as_milliwatts()));
                    }
                    None => out.push_str(&format!("{:>13}", "-")),
                }
            }
            out.push('\n');
        }
        out.push_str(&format!("{title} — latency [cycles] (mean p50/p95/p99)\n"));
        out.push_str(&format!("{:<16}", "load"));
        for &load in &document.config.offered_loads {
            out.push_str(&format!("{:>17.0}%", load * 100.0));
        }
        out.push('\n');
        for &architecture in &document.config.architectures {
            out.push_str(&format!("{:<16}", architecture.slug()));
            for &load in &document.config.offered_loads {
                let cell = match sweep.point(architecture, ports, load) {
                    Some(point) => format!(
                        "{:.1} {:.0}/{:.0}/{:.0}",
                        point.average_latency_cycles,
                        point.latency_p50,
                        point.latency_p95,
                        point.latency_p99
                    ),
                    None => "-".into(),
                };
                // 18 columns, the last 17 right-aligned after a space that
                // keeps a wider cell from running into the one before it.
                out.push_str(&format!(" {cell:>17}"));
            }
            out.push('\n');
        }
        for &load in &document.config.offered_loads {
            if let Some(cheapest) = sweep.cheapest(ports, load) {
                out.push_str(&format!(
                    "  cheapest at {:.0}% load: {}\n",
                    load * 100.0,
                    cheapest.slug()
                ));
            }
        }
        // The paper's Figure 10 headline: 37% at 4x4 narrowing to 20%
        // at 32x32, at 50% load.
        for &load in &document.config.offered_loads {
            let at_load = PortSweep {
                offered_load: load,
                points: document
                    .config
                    .architectures
                    .iter()
                    .filter_map(|&architecture| sweep.point(architecture, ports, load))
                    .cloned()
                    .collect(),
            };
            if let Some(gap) = at_load.fully_connected_vs_batcher_gap(ports) {
                out.push_str(&format!(
                    "  fully_connected vs batcher_banyan gap at {:.0}% load: {:.0}%\n",
                    load * 100.0,
                    gap * 100.0
                ));
            }
        }
    }

    // Network aggregates, for sweeps with a mesh axis: one row per
    // networked point (1×1 cells report as plain single routers and carry
    // no row here).
    let networked: Vec<_> = document
        .points
        .iter()
        .filter_map(|point| point.network.as_ref().map(|stats| (point, stats)))
        .collect();
    if !networked.is_empty() {
        out.push_str("\nnetwork aggregates (per-hop energy over router + link traversals)\n");
        out.push_str(&format!(
            "{:<12}{:<18}{:>6}{:>10}{:>15}{:>14}{:>13}{:>10}{:>9}\n",
            "mesh",
            "routing",
            "load",
            "avg hops",
            "p50/p95/p99",
            "per-hop [pJ]",
            "link [pJ]",
            "sat thpt",
            "stalls"
        ));
        for (point, stats) in networked {
            out.push_str(&format!(
                "{:<12}{:<18}{:>5.0}%{:>10.2}{:>15}{:>14.3}{:>13.3}{:>10.3}{:>9}\n",
                format!(
                    "{}x{}{}",
                    stats.width,
                    stats.height,
                    if stats.torus { " torus" } else { "" }
                ),
                stats.routing.slug(),
                point.offered_load * 100.0,
                stats.average_hops,
                format!(
                    "{:.0}/{:.0}/{:.0}",
                    stats.hops_p50, stats.hops_p95, stats.hops_p99
                ),
                stats.per_hop_energy.as_picojoules(),
                stats.link_energy.as_picojoules(),
                stats.saturation_throughput,
                stats.credit_stalls,
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ExperimentConfig;
    use crate::engine::SweepEngine;

    #[test]
    fn report_mentions_every_architecture_and_size() {
        let config = ExperimentConfig {
            port_counts: vec![4],
            offered_loads: vec![0.1, 0.3],
            warmup_cycles: 50,
            measure_cycles: 200,
            ..ExperimentConfig::quick()
        };
        let points = SweepEngine::new().with_threads(1).run(&config).unwrap();
        let document = SweepDocument {
            scenario: "report-test".into(),
            config: config.clone(),
            seed_strategy: crate::cell::SeedStrategy::Shared,
            points,
        };
        let text = format_document(&document);
        assert!(text.contains("4x4 fabric"));
        for architecture in &config.architectures {
            assert!(text.contains(architecture.slug()), "{architecture}");
        }
        assert!(text.contains("cheapest at 10% load"));
    }

    #[test]
    fn report_prints_one_gap_line_per_size_and_load() {
        let config = ExperimentConfig {
            port_counts: vec![4, 8],
            offered_loads: vec![0.1, 0.3],
            warmup_cycles: 50,
            measure_cycles: 200,
            ..ExperimentConfig::quick()
        };
        assert_eq!(config.architectures.len(), 4);
        let points = SweepEngine::new().with_threads(1).run(&config).unwrap();
        let text = format_document(&SweepDocument {
            scenario: "gap-report-test".into(),
            config: config.clone(),
            seed_strategy: crate::cell::SeedStrategy::Shared,
            points: points.clone(),
        });
        let mut expected = Vec::new();
        for &ports in &config.port_counts {
            for &offered_load in &config.offered_loads {
                let at_load = PortSweep {
                    offered_load,
                    points: points
                        .iter()
                        .filter(|p| p.offered_load == offered_load)
                        .cloned()
                        .collect(),
                };
                let gap = at_load.fully_connected_vs_batcher_gap(ports).unwrap();
                expected.push(format!(
                    "  fully_connected vs batcher_banyan gap at {:.0}% load: {:.0}%",
                    offered_load * 100.0,
                    gap * 100.0
                ));
            }
        }
        let printed: Vec<&str> = text.lines().filter(|l| l.contains(" gap at ")).collect();
        assert_eq!(printed, expected);
    }

    #[test]
    fn report_appends_the_network_section_for_mesh_sweeps() {
        let config = ExperimentConfig {
            port_counts: vec![8],
            offered_loads: vec![0.2],
            architectures: vec![fabric_power_fabric::Architecture::Crossbar],
            warmup_cycles: 20,
            measure_cycles: 100,
            network: Some(crate::config::NetworkSweepConfig::meshes(&[(2, 2), (3, 3)])),
            ..ExperimentConfig::quick()
        };
        let points = SweepEngine::new().with_threads(1).run(&config).unwrap();
        let document = SweepDocument {
            scenario: "noc-report-test".into(),
            config,
            seed_strategy: crate::cell::SeedStrategy::Shared,
            points,
        };
        let text = format_document(&document);
        assert!(text.contains("network aggregates"));
        assert!(text.contains("dimension-order"));
        // Each mesh gets its own tables, holding its own powers.
        for mesh in ["2x2", "3x3"] {
            assert!(text.contains(&format!("{mesh} mesh of 8x8 fabrics — average power [mW]")));
        }
        assert_eq!(document.points.len(), 2);
        for point in &document.points {
            let power = format!("{:.3}", point.power.as_milliwatts());
            assert!(text.contains(&power), "missing {power} mW");
        }
        // A gap line needs both the fully-connected and the Batcher-Banyan.
        assert!(!text.contains(" gap at "));
        // Single-router documents never grow the section.
        let plain = ExperimentConfig {
            port_counts: vec![4],
            offered_loads: vec![0.2],
            warmup_cycles: 20,
            measure_cycles: 100,
            ..ExperimentConfig::quick()
        };
        let plain_points = SweepEngine::new().with_threads(1).run(&plain).unwrap();
        let plain_text = format_document(&SweepDocument {
            scenario: "plain".into(),
            config: plain,
            seed_strategy: crate::cell::SeedStrategy::Shared,
            points: plain_points,
        });
        assert!(!plain_text.contains("network aggregates"));
    }

    #[test]
    fn report_prints_latency_columns_with_percentiles() {
        let config = ExperimentConfig {
            port_counts: vec![4],
            offered_loads: vec![0.3],
            warmup_cycles: 50,
            measure_cycles: 200,
            ..ExperimentConfig::quick()
        };
        let points = SweepEngine::new().with_threads(1).run(&config).unwrap();
        let document = SweepDocument {
            scenario: "latency-report-test".into(),
            config,
            seed_strategy: crate::cell::SeedStrategy::Shared,
            points: points.clone(),
        };
        let text = format_document(&document);
        assert!(text.contains("latency [cycles] (mean p50/p95/p99)"));
        // The table carries the actual measured values, not placeholders.
        let point = &points[0];
        assert!(text.contains(&format!(
            "{:.1} {:.0}/{:.0}/{:.0}",
            point.average_latency_cycles, point.latency_p50, point.latency_p95, point.latency_p99
        )));
    }

    #[test]
    fn wide_latency_cells_stay_separated() {
        let config = ExperimentConfig {
            port_counts: vec![4],
            offered_loads: vec![0.2, 0.4],
            architectures: vec![fabric_power_fabric::Architecture::Banyan],
            warmup_cycles: 20,
            measure_cycles: 100,
            ..ExperimentConfig::quick()
        };
        let mut points = SweepEngine::new().with_threads(1).run(&config).unwrap();
        // Saturated cells, as the 32x32 Banyan gives in paper-fig9: each
        // cell is 18 or more characters wide.
        for (point, mean) in points.iter_mut().zip([259_275.6, 1_084_666.3]) {
            point.average_latency_cycles = mean;
            point.latency_p50 = 217.0;
            point.latency_p95 = 777.0;
            point.latency_p99 = 1084.0;
        }
        let text = format_document(&SweepDocument {
            scenario: "wide-latency-test".into(),
            config,
            seed_strategy: crate::cell::SeedStrategy::Shared,
            points,
        });
        let row = text
            .lines()
            .skip_while(|line| !line.contains("latency [cycles]"))
            .find(|line| line.starts_with("banyan"))
            .expect("a Banyan latency row");
        assert_eq!(
            row.split_whitespace().collect::<Vec<_>>(),
            [
                "banyan",
                "259275.6",
                "217/777/1084",
                "1084666.3",
                "217/777/1084"
            ],
            "{row}"
        );
    }
}
