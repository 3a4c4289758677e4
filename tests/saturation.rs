//! Input-buffered saturation behaviour (paper §6): with uniform random
//! traffic and input buffering the egress throughput cannot exceed the
//! head-of-line blocking limit of ≈58.6 %, and below saturation the measured
//! throughput tracks the offered load.

use std::sync::Arc;

use fabric_power_core::prelude::*;

/// Runs `config` on the paper's energy model for its port count.
fn simulate(config: SimulationConfig) -> SimulationReport {
    let model = Arc::new(FabricEnergyModel::paper(config.ports).expect("paper model"));
    RouterSimulator::with_shared_model(config, model)
        .expect("simulation")
        .run()
}

fn run(architecture: Architecture, ports: usize, load: f64, cycles: u64) -> SimulationReport {
    simulate(SimulationConfig {
        warmup_cycles: 300,
        measure_cycles: cycles,
        seed: 0x5A7,
        ..SimulationConfig::new(architecture, ports, load)
    })
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
        SimulationConfig {
            warmup_cycles: 300,
            measure_cycles: 3000,
            ..SimulationConfig::new(Architecture::FullyConnected, 8, 0.8)
        }
        .with_pattern(TrafficPattern::Permutation { shift: 3 }),
    );
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

/// SplitMix64: the slotted model's own seeded generator.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`; the modulo bias is below 2^-60 for the port
    /// counts used here.
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Saturation throughput of the slotted input-queued switch (Karol, Hluchyj
/// and Morgan, IEEE Trans. Commun. 1987), measured over `slots` slots.
/// Every input always holds a head-of-line packet whose output is uniform
/// over the *other* `ports - 1` outputs, as `UniformRandom` draws them.  In
/// each slot every requested output serves one of its contenders, chosen
/// at random, and each served input draws a fresh head-of-line packet.
fn slotted_saturation_throughput(ports: usize, slots: u64, seed: u64) -> f64 {
    let mut rng = SplitMix64(seed);
    let fresh = |rng: &mut SplitMix64, input: usize| (input + 1 + rng.below(ports - 1)) % ports;
    let mut head: Vec<usize> = (0..ports).map(|input| fresh(&mut rng, input)).collect();
    let mut contenders: Vec<Vec<usize>> = vec![Vec::new(); ports];
    let mut served = 0_u64;
    for _ in 0..slots {
        for list in &mut contenders {
            list.clear();
        }
        for (input, &output) in head.iter().enumerate() {
            contenders[output].push(input);
        }
        for list in &contenders {
            if !list.is_empty() {
                let winner = list[rng.below(list.len())];
                head[winner] = fresh(&mut rng, winner);
                served += 1;
            }
        }
    }
    served as f64 / (ports as u64 * slots) as f64
}

#[test]
fn one_word_crossbar_saturates_at_the_slotted_hol_limit() {
    // With 1-word packets every grant lasts one cycle, so at offered load
    // 1.0 the crossbar is the slotted input-queued switch: 0.690 at 4 ports
    // and 0.626 at 8, above the 0.586 of N -> infinity.  Over seeds 1-4 and
    // the default seed, 10,000 measured cycles read within 0.005 of those
    // values; the slotted model itself is within 0.001 at 100,000 slots.
    for ports in [4, 8] {
        let slotted = slotted_saturation_throughput(ports, 100_000, 0x5107);
        let measured = simulate(SimulationConfig {
            packet_words: 1,
            warmup_cycles: 2_000,
            measure_cycles: 10_000,
            ..SimulationConfig::new(Architecture::Crossbar, ports, 1.0)
        })
        .measured_throughput();
        assert!(
            (measured - slotted).abs() < 0.01,
            "{ports} ports: measured {measured}, slotted model {slotted}"
        );
    }
}
