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

use fabric_power_fabric::energy_model::FabricEnergyModel;
use fabric_power_fabric::Architecture;

use crate::config::{SimulationConfig, SimulationReport};
use crate::metrics::LatencyHistogram;
use crate::node::RouterNode;
use crate::packet::Packet;
use crate::route_table::PricedRoutes;
use crate::traffic::{TrafficError, TrafficGenerator};

/// Errors raised when constructing a [`RouterSimulator`].
#[derive(Debug)]
pub enum SimulationError {
    /// The energy model, and so every route table priced under it, has
    /// another port count than the configuration requests.
    PortMismatch {
        /// Ports in the configuration.
        config_ports: usize,
        /// Ports of the energy model and its priced route tables.
        model_ports: usize,
    },
    /// A traffic parameter is out of range.
    Traffic(TrafficError),
    /// The measurement window is empty (see
    /// [`SimulationConfig::check_window`]).
    ZeroMeasureCycles,
}

impl std::fmt::Display for SimulationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::PortMismatch {
                config_ports,
                model_ports,
            } => write!(
                f,
                "configuration requests {config_ports} ports but the energy model was built for {model_ports}"
            ),
            Self::Traffic(e) => write!(f, "traffic: {e}"),
            Self::ZeroMeasureCycles => {
                f.write_str("a run needs at least one measure cycle, got 0")
            }
        }
    }
}

impl std::error::Error for SimulationError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Traffic(e) => Some(e),
            Self::PortMismatch { .. } | Self::ZeroMeasureCycles => None,
        }
    }
}

impl From<TrafficError> for SimulationError {
    fn from(e: TrafficError) -> Self {
        Self::Traffic(e)
    }
}

/// The bit-level router simulator.
///
/// One simulator steps the architectures of one operating point from a
/// single [`TrafficGenerator`] ([`RouterSimulator::lockstep`], given one
/// priced route table per architecture): each cycle's arrivals are drawn
/// once and every [`RouterNode`] gets its own copy of each packet.  The
/// generator never looks at a node (input queues are unbounded), so each
/// node sees exactly the traffic a simulator of its architecture alone
/// would draw, and its report is the same to the bit.
/// Stepping the architectures together pays for the ChaCha8 keystream once
/// instead of once per architecture.
///
/// Every contention-free architecture (crossbar, fully-connected,
/// Batcher-Banyan) is charged on one node, whose one flow schedule grants,
/// sends and completes each packet once for all of them: without
/// interconnect contention no flow is ever blocked, so those do not depend
/// on the fabric.  Each contendable architecture (the Banyan) has a node of
/// its own.  [`RouterSimulator::with_shared_model`] lowers and prices the
/// one table of `config.architecture` and builds the one-architecture case
/// of the same step loop; a sweep prices each table once and hands it to
/// every [`lockstep`](RouterSimulator::lockstep) simulator that steps it.
///
/// The loop draws the arrivals of a batch of cycles at a time and then
/// steps each node through the whole batch, so a node's state stays in
/// cache while it steps; the reports do not depend on the batch length.
///
/// # Examples
///
/// ```
/// use fabric_power_fabric::{Architecture, FabricEnergyModel};
/// use fabric_power_router::config::SimulationConfig;
/// use fabric_power_router::sim::RouterSimulator;
/// use std::sync::Arc;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let config = SimulationConfig {
///     warmup_cycles: 100,
///     measure_cycles: 800,
///     ..SimulationConfig::new(Architecture::Banyan, 4, 0.3)
/// };
/// let model = Arc::new(FabricEnergyModel::paper(4)?);
/// let report = RouterSimulator::with_shared_model(config, model)?.run();
/// assert!(report.measured_throughput() > 0.0);
/// assert!(report.energy.total().as_joules() > 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct RouterSimulator {
    /// The shared configuration; its `architecture` is not read (each
    /// report names its table's).
    config: SimulationConfig,
    /// The nodes that charge the architectures, all fed the same arrivals.
    nodes: Vec<NodeRun>,
    /// Per architecture, in the order given: where it is charged.
    fabrics: Vec<FabricSlot>,
    traffic: TrafficGenerator,
    /// The batch of arrivals being replayed, in cycle and port order.
    arrivals: Vec<Packet>,
    /// The next cycle to simulate.
    cycle: u64,
}

/// One architecture of a [`RouterSimulator`]: the node that charges it and
/// the index of its fabric on that node.
#[derive(Debug, Clone, Copy)]
struct FabricSlot {
    architecture: Architecture,
    node: usize,
    fabric: usize,
}

/// One node inside a [`RouterSimulator`]: the per-tick switching core
/// (shared with the NoC layer, which drives a whole mesh of them) and what
/// it has delivered, the same for every fabric it charges.
#[derive(Debug)]
struct NodeRun {
    node: RouterNode,
    /// Packets the node finished this cycle (drained every cycle).
    completed: Vec<Packet>,
    /// Payload buffers of the node's finished packets, refilled with the
    /// copies of later arrivals, so steady state allocates nothing.
    spare_payloads: Vec<Vec<u64>>,
    packets_delivered: u64,
    latency: LatencyHistogram,
}

impl NodeRun {
    /// Enqueues this node's own copy of `packet` at its source port.
    fn inject(&mut self, packet: &Packet) {
        let mut payload = self.spare_payloads.pop().unwrap_or_default();
        payload.clone_from(&packet.payload);
        self.node
            .inject(packet.source, Packet { payload, ..*packet });
    }

    /// Starts the measurement window: zeroes what the node has delivered.
    fn begin_measurement(&mut self) {
        self.packets_delivered = 0;
        self.latency = LatencyHistogram::new();
        self.node.begin_measurement();
    }
}

/// Cycles of arrivals a [`RouterSimulator`] draws ahead before replaying
/// them node by node, so each node's state stays in cache for that many
/// steps.
const REPLAY_CYCLES: u64 = 64;

impl RouterSimulator {
    /// Creates a simulator from a configuration and a shared energy model,
    /// lowering and pricing the route table of `config.architecture` at the
    /// model's port count.
    ///
    /// One immutable model per fabric size is shared across every
    /// simulation (and worker thread) via [`Arc`] instead of being cloned
    /// per operating point.
    ///
    /// # Errors
    ///
    /// Returns [`SimulationError`] if the measurement window is empty, the
    /// configuration's port count is not the energy model's
    /// ([`SimulationError::PortMismatch`]), or a traffic parameter is out of
    /// range.
    pub fn with_shared_model(
        config: SimulationConfig,
        model: Arc<FabricEnergyModel>,
    ) -> Result<Self, SimulationError> {
        let table = PricedRoutes::new(config.architecture, model);
        Self::lockstep(config, &[Arc::new(table)])
    }

    /// Creates a simulator that steps the architecture of every entry of
    /// `tables` on the traffic `config` describes, in lockstep: the
    /// contention-free ones on one shared node and each contendable one on
    /// a node of its own (grouped by the route table's contention, not by
    /// name).  Every field of `config` but `architecture` applies to every
    /// architecture; [`RouterSimulator::run_all`] lists their reports in
    /// `tables` order, and each equals what
    /// [`RouterSimulator::with_shared_model`] would report for that
    /// table's architecture and energy model alone.
    ///
    /// The tables are only read, so one priced table can serve every
    /// simulator that steps its architecture and size: a sweep lowers and
    /// prices each once.
    ///
    /// # Errors
    ///
    /// Returns [`SimulationError`] if the measurement window is empty, a
    /// table was lowered for another port count than `config.ports`
    /// ([`SimulationError::PortMismatch`]), or a traffic parameter is out
    /// of range.
    ///
    /// # Panics
    ///
    /// Panics if `tables` is empty, or if tables that share a node differ
    /// in bus width.
    pub fn lockstep(
        config: SimulationConfig,
        tables: &[Arc<PricedRoutes>],
    ) -> Result<Self, SimulationError> {
        assert!(
            !tables.is_empty(),
            "a simulator needs at least one architecture"
        );
        config.check_window()?;
        let mut node_fabrics: Vec<Vec<Arc<PricedRoutes>>> = Vec::new();
        let mut shared_node = None;
        let mut fabrics = Vec::with_capacity(tables.len());
        for table in tables {
            let routes = table.routes();
            if routes.ports() != config.ports {
                return Err(SimulationError::PortMismatch {
                    config_ports: config.ports,
                    model_ports: routes.ports(),
                });
            }
            let contendable = routes.contendable();
            let node = match shared_node {
                Some(node) if !contendable => node,
                _ => {
                    node_fabrics.push(Vec::new());
                    node_fabrics.len() - 1
                }
            };
            if !contendable {
                shared_node = Some(node);
            }
            fabrics.push(FabricSlot {
                architecture: routes.architecture(),
                node,
                fabric: node_fabrics[node].len(),
            });
            node_fabrics[node].push(Arc::clone(table));
        }
        let nodes = node_fabrics
            .into_iter()
            .map(|fabrics| NodeRun {
                node: RouterNode::sharing(fabrics),
                completed: Vec::new(),
                spare_payloads: Vec::new(),
                packets_delivered: 0,
                latency: LatencyHistogram::new(),
            })
            .collect();
        let traffic = TrafficGenerator::new(
            config.ports,
            config.offered_load,
            config.packet_words,
            config.pattern,
            config.seed,
        )?;
        Ok(Self {
            config,
            nodes,
            fabrics,
            traffic,
            arrivals: Vec::new(),
            cycle: 0,
        })
    }

    /// Runs the configured warmup and measurement windows and returns the
    /// first architecture's report.
    #[must_use]
    pub fn run(self) -> SimulationReport {
        self.run_all().swap_remove(0)
    }

    /// Runs the configured warmup and measurement windows and returns every
    /// architecture's report, in the order the architectures were given.
    #[must_use]
    pub fn run_all(mut self) -> Vec<SimulationReport> {
        self.advance(self.config.warmup_cycles + self.config.measure_cycles);
        self.reports()
    }

    /// Simulates the next `cycles` clock cycles, [`REPLAY_CYCLES`] at a
    /// time: the arrivals of a batch are drawn first, then each node steps
    /// through the whole batch on its own copies of them.
    fn advance(&mut self, cycles: u64) {
        let warmup = self.config.warmup_cycles;
        let end = self.cycle + cycles;
        while self.cycle < end {
            let start = self.cycle;
            let stop = end.min(start + REPLAY_CYCLES);
            for cycle in start..stop {
                for port in 0..self.config.ports {
                    if let Some(packet) = self.traffic.arrivals(port, cycle) {
                        self.arrivals.push(packet);
                    }
                }
            }
            for run in &mut self.nodes {
                let mut arrivals = self.arrivals.iter().peekable();
                for cycle in start..stop {
                    if cycle == warmup {
                        run.begin_measurement();
                    }
                    while let Some(packet) = arrivals.next_if(|p| p.arrival_cycle == cycle) {
                        run.inject(packet);
                    }
                    run.node.step(cycle, &mut run.completed);
                    for packet in run.completed.drain(..) {
                        if cycle >= warmup {
                            run.packets_delivered += 1;
                            run.latency.record(cycle + 1 - packet.arrival_cycle);
                        }
                        run.spare_payloads.push(packet.payload);
                    }
                }
            }
            for packet in self.arrivals.drain(..) {
                self.traffic.recycle(packet.payload);
            }
            self.cycle = stop;
        }
    }

    /// Builds every architecture's report for everything measured so far,
    /// in the order the architectures were given.
    fn reports(&self) -> Vec<SimulationReport> {
        self.fabrics
            .iter()
            .map(|&slot| self.report_of(slot))
            .collect()
    }

    fn report_of(&self, slot: FabricSlot) -> SimulationReport {
        let run = &self.nodes[slot.node];
        let [latency_p50, latency_p95, latency_p99] = run.latency.summary();
        SimulationReport {
            architecture: slot.architecture,
            ports: self.config.ports,
            offered_load: self.config.offered_load,
            measured_cycles: self.cycle.saturating_sub(self.config.warmup_cycles),
            words_delivered: run.node.words_delivered(),
            packets_delivered: run.packets_delivered,
            buffered_words: run.node.buffered_words(),
            average_latency_cycles: run.latency.mean(),
            latency_p50,
            latency_p95,
            latency_p99,
            latency_histogram: run.latency.to_sparse(),
            energy: run.node.fabric_energy(slot.fabric),
            cycle_time: self.config.cycle_time(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::TrafficPattern;
    use proptest::prelude::*;

    /// Runs `config` on the paper's energy model for its port count.
    fn simulate(config: SimulationConfig) -> SimulationReport {
        let model = Arc::new(FabricEnergyModel::paper(config.ports).expect("paper model"));
        RouterSimulator::with_shared_model(config, model)
            .expect("simulator builds")
            .run()
    }

    fn run(architecture: Architecture, ports: usize, load: f64) -> SimulationReport {
        simulate(SimulationConfig::quick(architecture, ports, load))
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
        let config = SimulationConfig {
            warmup_cycles: 300,
            measure_cycles: 2500,
            ..SimulationConfig::quick(Architecture::Crossbar, 8, 0.95)
        };
        let report = simulate(config);
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
        let report = simulate(config);
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
        let c = simulate(SimulationConfig {
            seed: 99,
            ..SimulationConfig::quick(Architecture::Banyan, 4, 0.3)
        });
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
        let report = run(Architecture::Banyan, 4, 0.4);
        let histogram = &report.latency_histogram;
        assert!(report.packets_delivered > 0);
        assert_eq!(histogram.count, report.packets_delivered);
        let binned: u64 = histogram.bins.iter().map(|&(_, count)| count).sum();
        assert_eq!(binned + histogram.overflow, histogram.count);
        let mean = histogram.sum as f64 / histogram.count as f64;
        assert!((mean - report.average_latency_cycles).abs() < 1e-12);
    }

    #[test]
    fn mismatched_model_is_rejected() {
        let config = SimulationConfig::quick(Architecture::Crossbar, 8, 0.2);
        let model = Arc::new(FabricEnergyModel::paper(4).unwrap());
        assert!(matches!(
            RouterSimulator::with_shared_model(config, model),
            Err(SimulationError::PortMismatch { .. })
        ));
    }

    fn priced(architecture: Architecture, ports: usize) -> Arc<PricedRoutes> {
        let model = Arc::new(FabricEnergyModel::paper(ports).unwrap());
        Arc::new(PricedRoutes::new(architecture, model))
    }

    #[test]
    fn lockstep_rejects_a_table_of_another_port_count() {
        let config = SimulationConfig::quick(Architecture::Crossbar, 8, 0.2);
        for tables in [
            vec![priced(Architecture::Crossbar, 4)],
            vec![
                priced(Architecture::Crossbar, 8),
                priced(Architecture::Banyan, 16),
            ],
        ] {
            let error = RouterSimulator::lockstep(config.clone(), &tables).unwrap_err();
            assert!(
                matches!(
                    error,
                    SimulationError::PortMismatch {
                        config_ports: 8,
                        model_ports: 4 | 16,
                    }
                ),
                "{error}"
            );
        }
    }

    #[test]
    fn step_can_be_driven_manually() {
        let config = SimulationConfig::quick(Architecture::Banyan, 4, 0.5);
        let model = Arc::new(FabricEnergyModel::paper(4).unwrap());
        let mut sim = RouterSimulator::with_shared_model(config, model).unwrap();
        for _ in 0..50 {
            sim.advance(1);
        }
        assert_eq!(sim.reports()[0].measured_cycles, 0, "still inside warmup");
    }

    /// The four traffic patterns of `tests/router_reports_golden.rs`.
    const PATTERNS: [TrafficPattern; 4] = [
        TrafficPattern::UniformRandom,
        TrafficPattern::Hotspot {
            port: 0,
            fraction: 0.5,
        },
        TrafficPattern::Tornado,
        TrafficPattern::Bursty {
            on_load: 0.9,
            off_load: 0.1,
            mean_burst: 25.0,
        },
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]

        #[test]
        fn lockstep_nodes_report_exactly_what_separate_runs_report(
            ports in prop_oneof![Just(2_usize), Just(8), Just(32)],
            pattern in 0_usize..PATTERNS.len(),
            load in 0.01_f64..=1.0,
            seed in any::<u64>(),
            packet_words in 1_usize..=32,
            warmup in 0_u64..=150,
            measure in 1_u64..=250,
            rotation in 0_usize..Architecture::ALL.len(),
        ) {
            let model = Arc::new(FabricEnergyModel::paper(ports).unwrap());
            let mut architectures = Architecture::ALL;
            architectures.rotate_left(rotation);
            let config = SimulationConfig {
                seed,
                packet_words,
                warmup_cycles: warmup,
                measure_cycles: measure,
                ..SimulationConfig::quick(architectures[0], ports, load)
            }
            .with_pattern(PATTERNS[pattern]);
            let separate: Vec<SimulationReport> = architectures
                .iter()
                .map(|&architecture| {
                    let config = SimulationConfig { architecture, ..config.clone() };
                    RouterSimulator::with_shared_model(config, Arc::clone(&model))
                        .unwrap()
                        .run()
                })
                .collect();
            let tables: Vec<Arc<PricedRoutes>> = architectures
                .iter()
                .map(|&architecture| Arc::new(PricedRoutes::new(architecture, Arc::clone(&model))))
                .collect();
            let lockstep = RouterSimulator::lockstep(config.clone(), &tables).unwrap();
            prop_assert_eq!(lockstep.run_all(), separate.clone());

            // Stepping one cycle at a time replays the same arrivals.
            let mut stepped = RouterSimulator::lockstep(config, &tables).unwrap();
            for _ in 0..warmup + measure {
                stepped.advance(1);
            }
            prop_assert_eq!(stepped.reports(), separate);
        }
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
            let config = SimulationConfig {
                seed,
                packet_words,
                ..SimulationConfig::quick(architecture, ports, load)
            };
            let report = RouterSimulator::with_shared_model(config, Arc::new(model))
                .unwrap()
                .run();
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
