//! The bit-level, cycle-driven router simulation platform (paper §5.2).
//!
//! This is the Rust replacement for the paper's Simulink/C++ S-function
//! platform.  Every clock cycle:
//!
//! 1. new packets arrive at the ingress process units (input buffering —
//!    these queues sit outside the switch fabric and are not charged);
//! 2. the arbiter grants head-of-line packets to free egress ports with a
//!    first-come-first-serve round-robin policy, which resolves destination
//!    contention before packets enter the fabric (paper §3.2);
//! 3. every in-flight packet pushes one payload word along its path; the
//!    simulator charges node-switch energy from the input-vector LUTs, wire
//!    energy for every bit that flips polarity on every interconnect segment,
//!    and — inside the Banyan — buffer energy whenever interconnect
//!    contention forces a word into a node buffer.
//!
//! Throughput is measured at the egress ports, exactly as in the paper.

use std::sync::Arc;

use fabric_power_fabric::energy_model::{EnergyModelError, FabricEnergyModel};
use fabric_power_fabric::provider::{ModelProvider, ModelSpec};
use fabric_power_fabric::topology::TopologyError;

use crate::config::{SimulationConfig, SimulationReport};
use crate::metrics::LatencyHistogram;
use crate::node::RouterNode;
use crate::packet::Packet;
use crate::route_table::{PricedRoutes, RouteTable};
use crate::traffic::{TrafficError, TrafficGenerator};

/// Errors raised when constructing a [`RouterSimulator`].
#[derive(Debug)]
pub enum SimulationError {
    /// The topology could not be built (bad port count).
    Topology(TopologyError),
    /// Acquiring the energy model from a provider failed.
    Model(EnergyModelError),
    /// The energy model was built for a different port count than the
    /// configuration requests.
    PortMismatch {
        /// Ports in the configuration.
        config_ports: usize,
        /// Ports the energy model was built for.
        model_ports: usize,
    },
    /// A traffic parameter is out of range.
    Traffic(TrafficError),
}

impl std::fmt::Display for SimulationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Topology(e) => write!(f, "topology: {e}"),
            Self::Model(e) => write!(f, "energy model: {e}"),
            Self::PortMismatch {
                config_ports,
                model_ports,
            } => write!(
                f,
                "configuration requests {config_ports} ports but the energy model was built for {model_ports}"
            ),
            Self::Traffic(e) => write!(f, "traffic: {e}"),
        }
    }
}

impl std::error::Error for SimulationError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Topology(e) => Some(e),
            Self::Model(e) => Some(e),
            Self::Traffic(e) => Some(e),
            Self::PortMismatch { .. } => None,
        }
    }
}

impl From<TopologyError> for SimulationError {
    fn from(e: TopologyError) -> Self {
        Self::Topology(e)
    }
}

impl From<EnergyModelError> for SimulationError {
    fn from(e: EnergyModelError) -> Self {
        Self::Model(e)
    }
}

impl From<TrafficError> for SimulationError {
    fn from(e: TrafficError) -> Self {
        Self::Traffic(e)
    }
}

/// The bit-level router simulator.
///
/// # Examples
///
/// ```
/// use fabric_power_fabric::{Architecture, FabricEnergyModel};
/// use fabric_power_router::config::SimulationConfig;
/// use fabric_power_router::sim::RouterSimulator;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let config = SimulationConfig::quick(Architecture::Banyan, 4, 0.3);
/// let model = FabricEnergyModel::paper(4)?;
/// let report = RouterSimulator::new(config, model)?.run();
/// assert!(report.measured_throughput() > 0.0);
/// assert!(report.energy.total().as_joules() > 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct RouterSimulator {
    config: SimulationConfig,
    /// The per-tick switching core (queues, arbiter, flows, energy): shared
    /// with the NoC layer, which drives a whole mesh of them.
    node: RouterNode,
    /// Packets the node finished this cycle (drained every cycle).
    completed: Vec<Packet>,
    traffic: TrafficGenerator,

    cycle: u64,
    measuring: bool,
    measured_cycles: u64,
    packets_delivered: u64,
    latency: LatencyHistogram,
}

impl RouterSimulator {
    /// Creates a simulator from a configuration and a matching energy model.
    ///
    /// # Errors
    ///
    /// Returns [`SimulationError`] if the port count is invalid or does not
    /// match the energy model, or a traffic parameter is out of range.
    pub fn new(
        config: SimulationConfig,
        model: FabricEnergyModel,
    ) -> Result<Self, SimulationError> {
        Self::with_shared_model(config, Arc::new(model))
    }

    /// Creates a simulator whose energy model is acquired through a
    /// [`ModelProvider`] — the standard construction path since the
    /// model-provider layer owns all model acquisition (memoized in memory,
    /// optionally persisted in a content-addressed on-disk cache).
    ///
    /// The model stays [`Arc`]-shared: repeated simulations of the same spec
    /// reuse one allocation, whether or not they share a thread.
    ///
    /// # Errors
    ///
    /// Returns [`SimulationError`] if the model cannot be built, the port
    /// count is invalid, the spec's port count does not match the
    /// configuration's, or a traffic parameter is out of range.
    pub fn from_provider(
        config: SimulationConfig,
        provider: &ModelProvider,
        spec: &ModelSpec,
    ) -> Result<Self, SimulationError> {
        let model = provider.get(spec)?;
        Self::with_shared_model(config, model)
    }

    /// Creates a simulator from a configuration and a shared energy model.
    ///
    /// This is the constructor parameter sweeps use: one immutable model per
    /// fabric size, shared across every simulation (and worker thread) via
    /// [`Arc`] instead of being cloned per operating point.
    ///
    /// # Errors
    ///
    /// Returns [`SimulationError`] if the port count is invalid or does not
    /// match the energy model, or a traffic parameter is out of range.
    pub fn with_shared_model(
        config: SimulationConfig,
        model: Arc<FabricEnergyModel>,
    ) -> Result<Self, SimulationError> {
        let routes = RouteTable::new(config.architecture, config.ports)?;
        let fabric = Arc::new(PricedRoutes::new(routes, model)?);
        let node = RouterNode::new(fabric, config.node_buffer_bits);
        let traffic = TrafficGenerator::new(
            config.ports,
            config.offered_load,
            config.packet_words,
            config.pattern,
            config.seed,
        )?;
        Ok(Self {
            node,
            completed: Vec::new(),
            traffic,
            cycle: 0,
            measuring: false,
            measured_cycles: 0,
            packets_delivered: 0,
            latency: LatencyHistogram::new(),
            config,
        })
    }

    /// Runs the configured warmup and measurement windows and returns the
    /// report.
    #[must_use]
    pub fn run(mut self) -> SimulationReport {
        let total = self.config.warmup_cycles + self.config.measure_cycles;
        for _ in 0..total {
            self.step();
        }
        self.report()
    }

    /// Simulates a single clock cycle. Exposed so tests and interactive tools
    /// can drive the simulator incrementally; most callers want
    /// [`RouterSimulator::run`].
    pub fn step(&mut self) {
        if self.cycle == self.config.warmup_cycles {
            self.begin_measurement();
        }
        if self.measuring {
            self.measured_cycles += 1;
        }

        for port in 0..self.config.ports {
            if let Some(packet) = self.traffic.arrivals(port, self.cycle) {
                self.node.inject(port, packet);
            }
        }
        self.node.step(self.cycle, &mut self.completed);
        for packet in self.completed.drain(..) {
            if self.measuring {
                self.packets_delivered += 1;
                self.latency.record(self.cycle + 1 - packet.arrival_cycle);
            }
            self.traffic.recycle(packet.payload);
        }

        self.cycle += 1;
    }

    /// Builds the report for everything measured so far.
    #[must_use]
    pub fn report(&self) -> SimulationReport {
        let [latency_p50, latency_p95, latency_p99] = self.latency.summary();
        SimulationReport {
            architecture: self.config.architecture,
            ports: self.config.ports,
            offered_load: self.config.offered_load,
            measured_cycles: self.measured_cycles,
            words_delivered: self.node.words_delivered(),
            packets_delivered: self.packets_delivered,
            buffered_words: self.node.buffered_words(),
            buffer_overflow_cycles: self.node.buffer_overflow_cycles(),
            average_latency_cycles: self.latency.mean(),
            latency_p50,
            latency_p95,
            latency_p99,
            latency_histogram: self.latency.to_sparse(),
            energy: self.node.energy(),
            cycle_time: self.config.cycle_time(),
        }
    }

    /// The latency distribution recorded so far (one sample per packet
    /// delivered during the measurement window).
    #[must_use]
    pub fn latency_histogram(&self) -> &LatencyHistogram {
        &self.latency
    }

    fn begin_measurement(&mut self) {
        self.measuring = true;
        self.measured_cycles = 0;
        self.packets_delivered = 0;
        self.latency = LatencyHistogram::new();
        self.node.begin_measurement();
    }
}

/// Convenience wrapper: obtain the paper-reference energy model for the
/// configuration's port count from the process-wide shared
/// [`ModelProvider`], run the simulation and return the report.
///
/// # Errors
///
/// Propagates energy-model and simulator construction failures.
pub fn simulate(
    config: SimulationConfig,
) -> Result<SimulationReport, Box<dyn std::error::Error + Send + Sync>> {
    let spec = ModelSpec::paper(config.ports);
    let simulator = RouterSimulator::from_provider(config, &ModelProvider::shared(), &spec)?;
    Ok(simulator.run())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::TrafficPattern;
    use fabric_power_fabric::Architecture;
    use proptest::prelude::*;

    fn run(architecture: Architecture, ports: usize, load: f64) -> SimulationReport {
        simulate(SimulationConfig::quick(architecture, ports, load)).expect("simulation runs")
    }

    #[test]
    fn throughput_tracks_offered_load_below_saturation() {
        for architecture in Architecture::ALL {
            let report = run(architecture, 8, 0.2);
            let measured = report.measured_throughput();
            assert!(
                (measured - 0.2).abs() < 0.07,
                "{architecture}: offered 0.2, measured {measured}"
            );
        }
    }

    #[test]
    fn throughput_saturates_near_the_input_buffer_limit() {
        // Offered load far above the 58.6% head-of-line blocking limit: the
        // measured egress throughput must saturate below ~65%.
        let config =
            SimulationConfig::quick(Architecture::Crossbar, 8, 0.95).with_cycles(300, 2500);
        let report = simulate(config).unwrap();
        let measured = report.measured_throughput();
        assert!(measured < 0.70, "measured {measured} should saturate");
        assert!(measured > 0.40, "measured {measured} suspiciously low");
    }

    #[test]
    fn energy_scales_with_offered_load() {
        let low = run(Architecture::Crossbar, 8, 0.1);
        let high = run(Architecture::Crossbar, 8, 0.4);
        assert!(high.energy.total() > low.energy.total() * 2.0);
        assert!(high.average_power() > low.average_power());
    }

    #[test]
    fn only_banyan_accumulates_buffer_energy() {
        let banyan = run(Architecture::Banyan, 8, 0.4);
        assert!(banyan.buffered_words > 0);
        assert!(banyan.energy.buffers.as_joules() > 0.0);
        for architecture in [
            Architecture::Crossbar,
            Architecture::FullyConnected,
            Architecture::BatcherBanyan,
        ] {
            let report = run(architecture, 8, 0.4);
            assert_eq!(report.buffered_words, 0, "{architecture}");
            assert!(report.energy.buffers.is_zero(), "{architecture}");
        }
    }

    #[test]
    fn banyan_buffer_fraction_grows_with_load() {
        let low = run(Architecture::Banyan, 8, 0.1);
        let high = run(Architecture::Banyan, 8, 0.5);
        assert!(high.energy.buffer_fraction() > low.energy.buffer_fraction());
    }

    #[test]
    fn fully_connected_is_cheapest_at_moderate_load() {
        let ports = 8;
        let load = 0.4;
        let fully = run(Architecture::FullyConnected, ports, load).average_power();
        for architecture in [Architecture::Crossbar, Architecture::BatcherBanyan] {
            let other = run(architecture, ports, load).average_power();
            assert!(
                fully < other,
                "fully connected {fully} should beat {architecture} {other}"
            );
        }
    }

    #[test]
    fn permutation_traffic_avoids_destination_contention() {
        let config = SimulationConfig::quick(Architecture::Crossbar, 8, 0.5)
            .with_pattern(TrafficPattern::Permutation { shift: 1 });
        let report = simulate(config).unwrap();
        // Without head-of-line blocking the measured throughput tracks the
        // offered load closely even at 50%.
        assert!((report.measured_throughput() - 0.5).abs() < 0.07);
    }

    #[test]
    fn simulation_is_reproducible_for_a_fixed_seed() {
        let a = run(Architecture::Banyan, 4, 0.3);
        let b = run(Architecture::Banyan, 4, 0.3);
        assert_eq!(a.words_delivered, b.words_delivered);
        assert_eq!(a.energy, b.energy);
        let c =
            simulate(SimulationConfig::quick(Architecture::Banyan, 4, 0.3).with_seed(99)).unwrap();
        assert_ne!(a.words_delivered, c.words_delivered);
    }

    #[test]
    fn latency_exceeds_packet_length() {
        let report = run(Architecture::Crossbar, 4, 0.3);
        assert!(report.packets_delivered > 0);
        assert!(report.average_latency_cycles >= 16.0);
    }

    #[test]
    fn latency_percentiles_are_ordered_and_bracket_the_mean() {
        let report = run(Architecture::Crossbar, 8, 0.4);
        assert!(report.packets_delivered > 0);
        // A packet needs at least its 16 transfer cycles.
        assert!(report.latency_p50 >= 16.0);
        assert!(report.latency_p50 <= report.latency_p95);
        assert!(report.latency_p95 <= report.latency_p99);
        // The mean of a right-skewed queueing distribution sits between the
        // median and the extreme tail.
        assert!(report.average_latency_cycles <= report.latency_p99);
    }

    #[test]
    fn latency_histogram_count_matches_delivered_packets() {
        let config = SimulationConfig::quick(Architecture::Banyan, 4, 0.4);
        let model = FabricEnergyModel::paper(4).unwrap();
        let mut sim = RouterSimulator::new(config.clone(), model).unwrap();
        let total = config.warmup_cycles + config.measure_cycles;
        for _ in 0..total {
            sim.step();
        }
        let report = sim.report();
        assert_eq!(sim.latency_histogram().count(), report.packets_delivered);
        assert!((sim.latency_histogram().mean() - report.average_latency_cycles).abs() < 1e-12);
    }

    #[test]
    fn mismatched_model_is_rejected() {
        let config = SimulationConfig::quick(Architecture::Crossbar, 8, 0.2);
        let model = FabricEnergyModel::paper(4).unwrap();
        assert!(matches!(
            RouterSimulator::new(config, model),
            Err(SimulationError::PortMismatch { .. })
        ));
    }

    #[test]
    fn provider_constructed_simulator_matches_direct_construction() {
        let provider = ModelProvider::in_memory();
        let spec = ModelSpec::paper(4);
        let config = SimulationConfig::quick(Architecture::Banyan, 4, 0.3);
        let via_provider = RouterSimulator::from_provider(config.clone(), &provider, &spec)
            .unwrap()
            .run();
        let direct = RouterSimulator::new(config, FabricEnergyModel::paper(4).unwrap())
            .unwrap()
            .run();
        assert_eq!(via_provider.energy, direct.energy);
        assert_eq!(via_provider.words_delivered, direct.words_delivered);

        // Model failures surface as SimulationError::Model…
        let bad = SimulationConfig::quick(Architecture::Crossbar, 6, 0.2);
        assert!(matches!(
            RouterSimulator::from_provider(bad, &provider, &ModelSpec::paper(6)),
            Err(SimulationError::Model(_))
        ));
        // …and a spec/config port disagreement stays a PortMismatch.
        let mismatched = SimulationConfig::quick(Architecture::Crossbar, 8, 0.2);
        assert!(matches!(
            RouterSimulator::from_provider(mismatched, &provider, &ModelSpec::paper(4)),
            Err(SimulationError::PortMismatch { .. })
        ));
    }

    #[test]
    fn step_can_be_driven_manually() {
        let config = SimulationConfig::quick(Architecture::Banyan, 4, 0.5);
        let model = FabricEnergyModel::paper(4).unwrap();
        let mut sim = RouterSimulator::new(config, model).unwrap();
        for _ in 0..50 {
            sim.step();
        }
        let report = sim.report();
        assert_eq!(report.measured_cycles, 0, "still inside warmup");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn energy_components_are_non_negative_and_buffers_price_the_parked_words(
            architecture in prop_oneof![
                Just(Architecture::Crossbar),
                Just(Architecture::FullyConnected),
                Just(Architecture::Banyan),
                Just(Architecture::BatcherBanyan),
            ],
            ports in prop_oneof![Just(4_usize), Just(8), Just(16), Just(32)],
            load in 0.01_f64..=1.0,
            seed in any::<u64>(),
            packet_words in 1_usize..=32,
        ) {
            let model = FabricEnergyModel::paper(ports).unwrap();
            let word_energy =
                model.buffer_bit_energy().as_joules() * f64::from(model.bus_width_bits());
            let config = SimulationConfig::quick(architecture, ports, load)
                .with_seed(seed)
                .with_packet_words(packet_words);
            let report = RouterSimulator::new(config, model).unwrap().run();
            let energy = report.energy;
            for (component, joules) in [
                ("switches", energy.switches.as_joules()),
                ("buffers", energy.buffers.as_joules()),
                ("wires", energy.wires.as_joules()),
            ] {
                prop_assert!(
                    joules.is_finite() && joules >= 0.0,
                    "{} energy {} is negative or not finite",
                    component,
                    joules
                );
            }
            // One buffer access per parked word, priced at the bus width.
            let buffers = energy.buffers.as_joules();
            if report.buffered_words == 0 {
                prop_assert_eq!(buffers, 0.0);
            } else {
                let expected = report.buffered_words as f64 * word_energy;
                prop_assert!(
                    (buffers - expected).abs() <= 1e-9 * expected,
                    "buffers {} J against {} parked words x {} J = {} J",
                    buffers,
                    report.buffered_words,
                    word_energy,
                    expected
                );
            }
        }
    }
}
