//! Byte pin on full router and network reports.
//!
//! The sweep goldens carry `SweepPoint`s, which drop some report fields
//! (`words_delivered` and `packets_delivered` among them) and cover only
//! the scenario grids.
//! `tests/golden/router_reports.json` holds the pretty JSON of the complete
//! `SimulationReport` — every counter, the three energies and the latency
//! histogram — for each architecture × ports {2, 8, 32, 64} × traffic
//! pattern {uniform, hotspot, tornado, bursty}, plus the complete
//! `NetworkReport` of a 4×4 minimal-adaptive mesh with single-packet link
//! credits and of a 3×3 torus. Every run is 60 warm-up plus 300 measured
//! cycles at the default seed, except one 32-port Banyan cell that runs the
//! paper's full window.
//!
//! On a mismatch the fresh bytes are written to
//! `$CARGO_TARGET_TMPDIR/router_reports.json`; copy that file over the
//! golden only when a change is meant to alter the simulated statistics.

use std::sync::Arc;

use fabric_power_fabric::{Architecture, FabricEnergyModel};
use fabric_power_noc::{NetworkConfig, NetworkReport, NetworkSimulator, RoutingPolicy};
use fabric_power_router::{RouterSimulator, SimulationConfig, SimulationReport, TrafficPattern};
use serde::Serialize;

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/router_reports.json"
);

const WARMUP_CYCLES: u64 = 60;
const MEASURE_CYCLES: u64 = 300;
const OFFERED_LOAD: f64 = 0.6;

#[derive(Serialize)]
struct RouterCase {
    case: String,
    report: SimulationReport,
}

#[derive(Serialize)]
struct NetworkCase {
    case: String,
    report: NetworkReport,
}

#[derive(Serialize)]
struct Reports {
    routers: Vec<RouterCase>,
    networks: Vec<NetworkCase>,
}

fn patterns() -> [(&'static str, TrafficPattern); 4] {
    [
        ("uniform", TrafficPattern::UniformRandom),
        (
            "hotspot",
            TrafficPattern::Hotspot {
                port: 0,
                fraction: 0.5,
            },
        ),
        ("tornado", TrafficPattern::Tornado),
        (
            "bursty",
            TrafficPattern::Bursty {
                on_load: 0.9,
                off_load: 0.1,
                mean_burst: 25.0,
            },
        ),
    ]
}

fn router_cases() -> Vec<RouterCase> {
    let mut cases = Vec::new();
    for architecture in Architecture::ALL {
        for ports in [2, 8, 32, 64] {
            let model = Arc::new(FabricEnergyModel::paper(ports).expect("paper model"));
            for (name, pattern) in patterns() {
                let config = SimulationConfig {
                    warmup_cycles: WARMUP_CYCLES,
                    measure_cycles: MEASURE_CYCLES,
                    ..SimulationConfig::new(architecture, ports, OFFERED_LOAD)
                }
                .with_pattern(pattern);
                let report = RouterSimulator::with_shared_model(config, Arc::clone(&model))
                    .expect("router builds")
                    .run();
                cases.push(RouterCase {
                    case: format!("{}/p{ports}/{name}", architecture.slug()),
                    report,
                });
            }
        }
    }
    // One Banyan cell runs the paper's full 500 + 4,000-cycle window, in
    // which it parks 28,250 words.
    let config = SimulationConfig::new(Architecture::Banyan, 32, 0.5);
    let model = Arc::new(FabricEnergyModel::paper(32).expect("paper model"));
    cases.push(RouterCase {
        case: "banyan/p32/uniform/load0.5/500+4000".to_owned(),
        report: RouterSimulator::with_shared_model(config, model)
            .expect("router builds")
            .run(),
    });
    cases
}

fn network_cases() -> Vec<NetworkCase> {
    let model = Arc::new(FabricEnergyModel::paper(8).expect("paper model"));
    let grids = [
        (
            "banyan-mesh4x4-adaptive-depth1",
            Architecture::Banyan,
            NetworkConfig {
                routing: RoutingPolicy::MinimalAdaptive,
                link_depth: 1,
                ..NetworkConfig::mesh(4, 4)
            },
        ),
        (
            "batcher-banyan-torus3x3",
            Architecture::BatcherBanyan,
            NetworkConfig {
                torus: true,
                ..NetworkConfig::mesh(3, 3)
            },
        ),
    ];
    grids
        .into_iter()
        .map(|(case, architecture, network)| {
            let config = SimulationConfig {
                warmup_cycles: WARMUP_CYCLES,
                measure_cycles: MEASURE_CYCLES,
                ..SimulationConfig::new(architecture, 8, 0.3)
            };
            let report = NetworkSimulator::with_shared_model(config, network, Arc::clone(&model))
                .expect("network builds")
                .run();
            NetworkCase {
                case: case.to_owned(),
                report,
            }
        })
        .collect()
}

#[test]
fn full_router_and_network_reports_are_pinned() {
    let reports = Reports {
        routers: router_cases(),
        networks: network_cases(),
    };
    let emitted = serde_json::to_string_pretty(&reports).expect("serialize") + "\n";
    let golden = std::fs::read_to_string(GOLDEN).unwrap_or_default();
    if emitted != golden {
        let fresh = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("router_reports.json");
        std::fs::write(&fresh, &emitted).expect("write fresh reports");
        panic!(
            "router reports drifted from {GOLDEN}; fresh bytes are in {}",
            fresh.display()
        );
    }
}
