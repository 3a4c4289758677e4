//! Input-buffered saturation behaviour (paper §6): with uniform random
//! traffic and input buffering the egress throughput cannot exceed the
//! head-of-line blocking limit of ≈58.6 %, and below saturation the measured
//! throughput tracks the offered load.

use fabric_power_core::prelude::*;
use fabric_power_router::sim::simulate;

fn run(architecture: Architecture, ports: usize, load: f64, cycles: u64) -> SimulationReport {
    simulate(
        SimulationConfig::new(architecture, ports, load)
            .with_cycles(300, cycles)
            .with_seed(0x5A7),
    )
    .expect("simulation")
}

#[test]
fn below_saturation_throughput_tracks_offered_load() {
    for architecture in Architecture::ALL {
        for load in [0.1, 0.3] {
            let report = run(architecture, 8, load, 2500);
            let measured = report.measured_throughput();
            assert!(
                (measured - load).abs() < 0.05,
                "{architecture} at {load}: measured {measured}"
            );
        }
    }
}

#[test]
fn heavy_load_saturates_near_the_hol_limit() {
    // Offered 95% on the contention-free fabrics: the egress throughput must
    // saturate in the neighbourhood of the classic 58.6% input-buffering
    // limit (the paper notes the theoretical value is not reachable).
    let published_limit = fabric_power_tech::constants::INPUT_BUFFER_SATURATION_THROUGHPUT;
    for architecture in [Architecture::Crossbar, Architecture::FullyConnected] {
        let report = run(architecture, 16, 0.95, 4000);
        let measured = report.measured_throughput();
        assert!(
            measured < published_limit + 0.12,
            "{architecture}: measured {measured} should saturate near {published_limit}"
        );
        assert!(
            measured > 0.40,
            "{architecture}: measured {measured} is implausibly low"
        );
    }
}

#[test]
fn saturated_throughput_is_insensitive_to_further_load_increase() {
    let at_80 = run(Architecture::Crossbar, 8, 0.80, 3000).measured_throughput();
    let at_95 = run(Architecture::Crossbar, 8, 0.95, 3000).measured_throughput();
    assert!(
        (at_95 - at_80).abs() < 0.08,
        "saturated throughput moved from {at_80} to {at_95}"
    );
}

#[test]
fn permutation_traffic_is_not_limited_by_destination_contention() {
    // With a fixed permutation there is no head-of-line blocking, so even at
    // 80% offered load the contention-free fabrics deliver what is offered.
    let report = simulate(
        SimulationConfig::new(Architecture::FullyConnected, 8, 0.8)
            .with_pattern(TrafficPattern::Permutation { shift: 3 })
            .with_cycles(300, 3000),
    )
    .expect("simulation");
    assert!(
        (report.measured_throughput() - 0.8).abs() < 0.06,
        "measured {}",
        report.measured_throughput()
    );
}

#[test]
fn banyan_saturates_no_higher_than_contention_free_fabrics() {
    let banyan = run(Architecture::Banyan, 8, 0.95, 3000).measured_throughput();
    let crossbar = run(Architecture::Crossbar, 8, 0.95, 3000).measured_throughput();
    assert!(
        banyan <= crossbar + 0.05,
        "banyan {banyan} vs crossbar {crossbar}"
    );
}
