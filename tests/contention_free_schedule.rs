//! The premise of the router's shared flow schedule, checked from outside
//! the simulator.
//!
//! Destination contention is resolved at the arbiter, before a packet
//! enters the fabric (paper §3.2), and only the Banyan has interconnect
//! contention (§4).  So under the same traffic the crossbar, the
//! fully-connected and the Batcher-Banyan fabric grant, send and complete
//! every packet on the same cycles, whatever they charge for it.  Here each
//! architecture runs on a simulator of its own; at every operating point of
//! short grids the three must deliver the same words and packets with the
//! same latency histogram, and park no word in a node buffer.  The Banyan
//! runs alongside to show that the comparison can tell fabrics apart.

use std::sync::Arc;

use fabric_power_fabric::{Architecture, FabricEnergyModel};
use fabric_power_router::{RouterSimulator, SimulationConfig, SimulationReport, TrafficPattern};

const CONTENTION_FREE: [Architecture; 3] = [
    Architecture::Crossbar,
    Architecture::FullyConnected,
    Architecture::BatcherBanyan,
];

const PATTERNS: [TrafficPattern; 3] = [
    TrafficPattern::UniformRandom,
    TrafficPattern::Hotspot {
        port: 1,
        fraction: 0.3,
    },
    TrafficPattern::Tornado,
];

fn run(
    architecture: Architecture,
    ports: usize,
    load: f64,
    pattern: TrafficPattern,
    model: &Arc<FabricEnergyModel>,
) -> SimulationReport {
    let config = SimulationConfig {
        warmup_cycles: 60,
        measure_cycles: 300,
        seed: 0x5CED_0001 + ports as u64,
        ..SimulationConfig::new(architecture, ports, load)
    }
    .with_pattern(pattern);
    RouterSimulator::with_shared_model(config, Arc::clone(model))
        .expect("simulator")
        .run()
}

#[test]
fn contention_free_fabrics_deliver_the_same_packets_on_the_same_cycles() {
    let mut banyan_differs = false;
    for ports in [4, 8, 16, 32] {
        let model = Arc::new(FabricEnergyModel::paper(ports).expect("paper model"));
        for pattern in PATTERNS {
            for load in [0.1, 0.5, 1.0] {
                let point = format!("{ports}x{ports}, {pattern:?}, load {load}");
                let [first, rest @ ..] = CONTENTION_FREE
                    .map(|architecture| run(architecture, ports, load, pattern, &model));
                assert!(first.packets_delivered > 0, "{point}: nothing delivered");
                for report in [&first].into_iter().chain(&rest) {
                    let label = format!("{} at {point}", report.architecture);
                    assert_eq!(report.buffered_words, 0, "{label}");
                    assert_eq!(report.words_delivered, first.words_delivered, "{label}");
                    assert_eq!(report.packets_delivered, first.packets_delivered, "{label}");
                    assert_eq!(report.latency_histogram, first.latency_histogram, "{label}");
                }
                let banyan = run(Architecture::Banyan, ports, load, pattern, &model);
                banyan_differs |= banyan.words_delivered != first.words_delivered
                    || banyan.latency_histogram != first.latency_histogram;
            }
        }
    }
    assert!(
        banyan_differs,
        "the Banyan's contention never changed a delivery, so the comparison shows nothing"
    );
}
