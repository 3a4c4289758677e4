//! The deterministic global tick loop over a grid of [`RouterNode`]s.
//!
//! Every tick, in fixed order:
//!
//! 1. each node's local traffic source injects at most one new packet
//!    (per-node RNG streams derived from the run seed, node 0 keeping the
//!    base stream so a 1×1 network replays the single-router simulation
//!    bit for bit);
//! 2. packets whose link traversal finished are delivered into the
//!    receiving router's input queue on the reverse-direction port, with
//!    their next output port chosen by the routing policy;
//! 3. every router runs one fabric cycle (arbitrate → resolve contention →
//!    transmit → complete) through the shared [`RouterNode`] stepping core;
//!    completed packets either eject at their destination's local port or
//!    move to the egress staging queue of their outgoing link;
//! 4. each link launches at most one staged packet, but only while it holds
//!    credits: the packets in flight on the link plus the receiver's input
//!    queue must stay below the configured link depth — otherwise the
//!    launch stalls and is retried next tick.
//!
//! Phases 2 and 4 visit only the links that can act.  Two bit sets over the
//! link slots (`node * 4 + direction index`) are kept up to date as packets
//! move: the links with packets on the wire, which a launch joins and the
//! last delivery leaves, and the egresses with staged packets, which a
//! completion joins and the last launch leaves.  Both phases visit their
//! set in ascending slot order, the order of a scan over every node and
//! direction, so link energy is summed in the same order and
//! minimal-adaptive routing reads the same egress occupancy.
//!
//! Each travelling packet's bookkeeping (destination node, injection cycle,
//! hops) lives in a slab indexed by the packet's id.  An ejected packet's id
//! goes on a free list and is reused by a later injection, so ids are
//! unique only among the packets in flight; no report shows them.
//!
//! Energy: every router charges its own switch/buffer/wire energy through
//! its `FabricEnergyModel` (one spec per distinct node configuration,
//! `Arc`-shared across the grid); link traversals additionally charge
//! `grid bit energy × (polarity flips × link_grids)` per word against the
//! per-link last-word state, read from a row priced once per flip count.
//! Unlike the intra-fabric wire model, which masks each word to the bus
//! width, a link counts the flips of the whole 64-bit payload word.  During
//! warmup a link only takes on each packet's last word.

use std::collections::VecDeque;
use std::sync::Arc;

use fabric_power_fabric::energy_model::FabricEnergyModel;
use fabric_power_router::config::{SimulationConfig, SimulationReport};
use fabric_power_router::metrics::LatencyHistogram;
use fabric_power_router::node::RouterNode;
use fabric_power_router::packet::Packet;
use fabric_power_router::route_table::PricedRoutes;
use fabric_power_router::sim::{RouterSimulator, SimulationError};
use fabric_power_router::traffic::TrafficGenerator;
use fabric_power_router::EnergyAccount;
use fabric_power_tech::units::Energy;
use fabric_power_tech::wire::polarity_flips;

use crate::config::{NetworkConfig, NetworkReport, NetworkStats};
use crate::topology::{Direction, NetworkShape, RoutingPolicy, LOCAL_PORT};

/// Errors raised when constructing a [`NetworkSimulator`].
#[derive(Debug)]
pub enum NetworkError {
    /// The underlying router core could not be built.
    Simulation(SimulationError),
    /// The grid has zero routers.
    EmptyNetwork,
    /// The node radix (fabric port count) is too small for the grid's port
    /// map.
    RadixTooSmall {
        /// Configured fabric ports per node.
        radix: usize,
        /// Minimum ports the shape needs (local port + used directions).
        required: usize,
    },
    /// The link traversal latency must be at least one cycle.
    ZeroLinkLatency,
    /// The link credit depth must be at least one packet.
    ZeroLinkDepth,
}

impl std::fmt::Display for NetworkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Simulation(e) => write!(f, "router core: {e}"),
            Self::EmptyNetwork => write!(f, "network has zero routers"),
            Self::RadixTooSmall { radix, required } => write!(
                f,
                "node radix {radix} is too small for the grid's port map (needs ≥ {required})"
            ),
            Self::ZeroLinkLatency => write!(f, "link latency must be at least one cycle"),
            Self::ZeroLinkDepth => write!(f, "link credit depth must be at least one packet"),
        }
    }
}

impl std::error::Error for NetworkError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Simulation(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SimulationError> for NetworkError {
    fn from(e: SimulationError) -> Self {
        Self::Simulation(e)
    }
}

/// The RNG seed of one node's traffic source.  Node 0 keeps the base seed —
/// so a 1×1 network replays the single-router RNG stream exactly — and the
/// rest get SplitMix64-scrambled per-node streams, the same `seed ⊕ index`
/// idiom the sweep engine uses for per-cell seeds.
#[must_use]
pub(crate) fn node_seed(base: u64, node: usize) -> u64 {
    if node == 0 {
        return base;
    }
    let mut z = base ^ (node as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Link slots per node: one per grid direction.
const DIRECTIONS: usize = Direction::ALL.len();

/// The link slot of `node`'s egress in `direction`.
fn slot(node: usize, direction: Direction) -> usize {
    node * DIRECTIONS + direction.index()
}

/// Adds `slot` to a word-sliced slot set.
fn insert(set: &mut [u64], slot: usize) {
    set[slot / 64] |= 1 << (slot % 64);
}

/// Removes `slot` from a word-sliced slot set.
fn remove(set: &mut [u64], slot: usize) {
    set[slot / 64] &= !(1 << (slot % 64));
}

/// The members of word `index` of a slot set holding `bits`, in ascending
/// order.
fn members(index: usize, mut bits: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (bits != 0).then(|| {
            let slot = index * 64 + bits.trailing_zeros() as usize;
            bits &= bits - 1;
            slot
        })
    })
}

/// Global bookkeeping for one packet travelling the network.
#[derive(Debug, Clone, Copy)]
struct PacketMeta {
    destination_node: usize,
    injected_cycle: u64,
    hops: u64,
}

/// One directed inter-router link.
#[derive(Debug)]
struct Link {
    to_node: usize,
    /// Input port at the receiver (the reverse direction's fabric port).
    to_port: usize,
    /// Packets on the wire, with their delivery cycles (FIFO).
    in_flight: VecDeque<(u64, Packet)>,
    /// Last word transmitted, for polarity-flip wire energy.
    last_word: u64,
}

/// A mesh/torus of routers driven by one deterministic tick loop.
#[derive(Debug)]
struct MeshNetwork {
    config: SimulationConfig,
    net: NetworkConfig,
    shape: NetworkShape,
    nodes: Vec<RouterNode>,
    traffic: Vec<TrafficGenerator>,
    /// Per link slot; `None` where the mesh edge has no link.
    links: Vec<Option<Link>>,
    /// Per link slot: completed packets waiting for link credits.
    staging: Vec<VecDeque<Packet>>,
    /// The link slots with packets on the wire.
    flying: Vec<u64>,
    /// The link slots whose egress holds staged packets.
    staged: Vec<u64>,
    /// Per packet id, the travelling packet's bookkeeping.
    meta: Vec<PacketMeta>,
    /// Ids of ejected packets, reused before the slab grows.
    free_ids: Vec<u64>,
    /// Packets the node being stepped finished this tick (drained per
    /// node).
    completed: Vec<Packet>,

    cycle: u64,
    measuring: bool,
    measured_cycles: u64,
    packets_delivered: u64,
    words_ejected: u64,
    latency: LatencyHistogram,
    hops: LatencyHistogram,
    /// Router traversals (hops + 1) summed over delivered packets.
    traversals: u64,
    link_energy: Energy,
    link_words: u64,
    credit_stalls: u64,
    /// A link word's wire energy by its flip count `0..=64`.
    link_prices: Vec<Energy>,
}

impl MeshNetwork {
    fn new(
        config: SimulationConfig,
        net: NetworkConfig,
        model: Arc<FabricEnergyModel>,
    ) -> Result<Self, NetworkError> {
        config.check_window()?;
        let shape = net.shape();
        let node_count = shape.nodes();
        if config.ports <= shape.max_used_port() {
            return Err(NetworkError::RadixTooSmall {
                radix: config.ports,
                required: shape.max_used_port() + 1,
            });
        }
        if net.link_latency == 0 {
            return Err(NetworkError::ZeroLinkLatency);
        }
        if net.link_depth == 0 {
            return Err(NetworkError::ZeroLinkDepth);
        }
        if model.ports() != config.ports {
            return Err(SimulationError::PortMismatch {
                config_ports: config.ports,
                model_ports: model.ports(),
            }
            .into());
        }
        let grid_bit_energy = model.grid_bit_energy();
        let link_grids = f64::from(net.link_grids);
        let link_prices = (0..=u64::BITS)
            .map(|flips| grid_bit_energy * (f64::from(flips) * link_grids))
            .collect();
        // Every node has the same fabric and model, so they share one
        // priced route table.
        let fabric = Arc::new(PricedRoutes::new(config.architecture, model));
        let mut nodes = Vec::with_capacity(node_count);
        let mut traffic = Vec::with_capacity(node_count);
        let mut links = Vec::with_capacity(node_count * DIRECTIONS);
        for node in 0..node_count {
            nodes.push(RouterNode::new(Arc::clone(&fabric)));
            // The traffic pattern runs over *node* indices: each node's
            // source draws destinations among the other nodes, one local
            // injection port per node per cycle.
            traffic.push(
                TrafficGenerator::new(
                    node_count,
                    config.offered_load,
                    config.packet_words,
                    config.pattern,
                    node_seed(config.seed, node),
                )
                .map_err(SimulationError::from)?,
            );
            links.extend(Direction::ALL.map(|direction| {
                shape.neighbor(node, direction).map(|to_node| Link {
                    to_node,
                    to_port: direction.reverse().port(),
                    in_flight: VecDeque::new(),
                    last_word: 0,
                })
            }));
        }
        let slot_words = links.len().div_ceil(64);
        Ok(Self {
            config,
            net,
            shape,
            nodes,
            traffic,
            staging: links.iter().map(|_| VecDeque::new()).collect(),
            links,
            flying: vec![0; slot_words],
            staged: vec![0; slot_words],
            meta: Vec::new(),
            free_ids: Vec::new(),
            completed: Vec::new(),
            cycle: 0,
            measuring: false,
            measured_cycles: 0,
            packets_delivered: 0,
            words_ejected: 0,
            latency: LatencyHistogram::new(),
            hops: LatencyHistogram::new(),
            traversals: 0,
            link_energy: Energy::ZERO,
            link_words: 0,
            credit_stalls: 0,
            link_prices,
        })
    }

    fn begin_measurement(&mut self) {
        self.measuring = true;
        self.measured_cycles = 0;
        self.packets_delivered = 0;
        self.words_ejected = 0;
        self.latency = LatencyHistogram::new();
        self.hops = LatencyHistogram::new();
        self.traversals = 0;
        self.link_energy = Energy::ZERO;
        self.link_words = 0;
        self.credit_stalls = 0;
        for node in &mut self.nodes {
            node.begin_measurement();
        }
    }

    /// Congestion of one egress: staged packets plus packets on the wire.
    /// Used by minimal-adaptive routing as its (deterministic) load signal.
    fn egress_occupancy(&self, node: usize, direction: Direction) -> usize {
        let slot = slot(node, direction);
        let staged = self.staging[slot].len();
        let flying = self.links[slot]
            .as_ref()
            .map_or(0, |link| link.in_flight.len());
        staged + flying
    }

    /// The output port a packet at `node` heading for `destination` takes
    /// this tick.
    fn route(&self, node: usize, destination: usize) -> usize {
        let [x_dir, y_dir] = self.shape.productive_directions(node, destination);
        match (x_dir, y_dir) {
            (None, None) => LOCAL_PORT,
            (Some(direction), None) | (None, Some(direction)) => direction.port(),
            (Some(x), Some(y)) => match self.net.routing {
                RoutingPolicy::DimensionOrder => x.port(),
                RoutingPolicy::MinimalAdaptive => {
                    // Least-loaded productive egress; ties go to X, keeping
                    // the decision deterministic.
                    if self.egress_occupancy(node, y) < self.egress_occupancy(node, x) {
                        y.port()
                    } else {
                        x.port()
                    }
                }
            },
        }
    }

    fn step(&mut self) {
        if self.cycle == self.config.warmup_cycles {
            self.begin_measurement();
        }
        if self.measuring {
            self.measured_cycles += 1;
        }

        self.inject_traffic();
        self.deliver_link_arrivals();
        self.step_nodes();
        self.launch_links();

        self.cycle += 1;
    }

    /// Phase 1: every node's local source offers at most one new packet.
    fn inject_traffic(&mut self) {
        for node in 0..self.nodes.len() {
            let Some(mut packet) = self.traffic[node].arrivals(node, self.cycle) else {
                continue;
            };
            // The generator addressed a *node*; re-key the packet onto this
            // router's port map and give it an id no travelling packet has.
            let destination_node = packet.destination;
            let meta = PacketMeta {
                destination_node,
                injected_cycle: self.cycle,
                hops: 0,
            };
            let id = if let Some(id) = self.free_ids.pop() {
                self.meta[id as usize] = meta;
                id
            } else {
                self.meta.push(meta);
                self.meta.len() as u64 - 1
            };
            packet.id = id;
            packet.source = LOCAL_PORT;
            packet.destination = self.route(node, destination_node);
            self.nodes[node].inject(LOCAL_PORT, packet);
        }
    }

    /// Phase 2: packets that finished their link traversal enter the
    /// receiving router's input queue, routed onward.  Only links with
    /// packets on the wire are visited, in ascending slot order.
    fn deliver_link_arrivals(&mut self) {
        for word in 0..self.flying.len() {
            for slot in members(word, self.flying[word]) {
                self.deliver_arrivals(slot);
            }
        }
    }

    /// Delivers the due packets on `slot`'s link, and drops the slot from
    /// the flying set once its wire is empty.
    fn deliver_arrivals(&mut self, slot: usize) {
        loop {
            let link = self.links[slot].as_mut().expect("a flying slot has a link");
            let due = link
                .in_flight
                .front()
                .is_some_and(|&(arrival, _)| arrival <= self.cycle);
            if !due {
                if link.in_flight.is_empty() {
                    remove(&mut self.flying, slot);
                }
                return;
            }
            let (_, mut packet) = link.in_flight.pop_front().expect("front exists");
            let (to_node, to_port) = (link.to_node, link.to_port);
            let destination_node = self.meta[packet.id as usize].destination_node;
            packet.source = to_port;
            packet.destination = self.route(to_node, destination_node);
            packet.arrival_cycle = self.cycle;
            self.nodes[to_node].inject(to_port, packet);
        }
    }

    /// Phase 3: one fabric cycle per router; completions eject locally or
    /// move to egress staging.
    fn step_nodes(&mut self) {
        for node in 0..self.nodes.len() {
            self.nodes[node].step(self.cycle, &mut self.completed);
            for packet in self.completed.drain(..) {
                if packet.destination == LOCAL_PORT {
                    let meta = self.meta[packet.id as usize];
                    self.free_ids.push(packet.id);
                    debug_assert_eq!(meta.destination_node, node);
                    if self.measuring {
                        self.packets_delivered += 1;
                        self.words_ejected += packet.words() as u64;
                        self.latency.record(self.cycle + 1 - meta.injected_cycle);
                        self.hops.record(meta.hops);
                        self.traversals += meta.hops + 1;
                    }
                } else {
                    let slot = slot(node, Direction::ALL[packet.destination - 1]);
                    self.staging[slot].push_back(packet);
                    insert(&mut self.staged, slot);
                }
            }
        }
    }

    /// Phase 4: every link launches at most one staged packet, spending a
    /// credit; exhausted credits stall the launch until the receiver
    /// drains.  Only egresses with staged packets are visited, in ascending
    /// slot order.
    fn launch_links(&mut self) {
        for word in 0..self.staged.len() {
            for slot in members(word, self.staged[word]) {
                self.launch(slot);
            }
        }
    }

    /// Launches the first packet staged at `slot` if its link has a credit,
    /// moving the slot from the staged set to the flying set as needed.
    fn launch(&mut self, slot: usize) {
        let Some(link) = self.links[slot].as_ref() else {
            unreachable!("staged packets always have a link");
        };
        let credits_used =
            link.in_flight.len() + self.nodes[link.to_node].input_queue_len(link.to_port);
        if credits_used >= self.net.link_depth {
            if self.measuring {
                self.credit_stalls += 1;
            }
            return;
        }
        let staging = &mut self.staging[slot];
        let packet = staging.pop_front().expect("a staged slot holds a packet");
        if staging.is_empty() {
            remove(&mut self.staged, slot);
        }
        self.drive_link(&packet, slot);
        self.meta[packet.id as usize].hops += 1;
        let link = self.links[slot].as_mut().expect("checked above");
        link.in_flight
            .push_back((self.cycle + self.net.link_latency, packet));
        insert(&mut self.flying, slot);
    }

    /// Drives one packet's serialized word stream onto `slot`'s link.
    /// While measuring, charges its polarity-flip wire energy and counts its
    /// words; during warmup only the link's last-word state advances, like
    /// the intra-fabric links.
    fn drive_link(&mut self, packet: &Packet, slot: usize) {
        let link = self.links[slot]
            .as_mut()
            .expect("caller checked the link exists");
        if !self.measuring {
            if let Some(&word) = packet.payload.last() {
                link.last_word = word;
            }
            return;
        }
        let mut energy = Energy::ZERO;
        for &word in &packet.payload {
            energy += self.link_prices[polarity_flips(link.last_word, word) as usize];
            link.last_word = word;
        }
        self.link_energy += energy;
        self.link_words += packet.words() as u64;
    }

    fn report(&self) -> NetworkReport {
        let mut energy = EnergyAccount::new();
        let mut buffered_words = 0;
        for node in &self.nodes {
            energy.merge(&node.energy());
            buffered_words += node.buffered_words();
        }
        energy.wires += self.link_energy;
        let [latency_p50, latency_p95, latency_p99] = self.latency.summary();
        let simulation = SimulationReport {
            architecture: self.config.architecture,
            ports: self.config.ports,
            offered_load: self.config.offered_load,
            measured_cycles: self.measured_cycles,
            words_delivered: self.words_ejected,
            packets_delivered: self.packets_delivered,
            buffered_words,
            average_latency_cycles: self.latency.mean(),
            latency_p50,
            latency_p95,
            latency_p99,
            latency_histogram: self.latency.to_sparse(),
            energy,
            cycle_time: self.config.cycle_time(),
        };
        let [hops_p50, hops_p95, hops_p99] = self.hops.summary();
        let per_hop_energy = if self.traversals == 0 {
            Energy::ZERO
        } else {
            energy.total() / self.traversals as f64
        };
        let saturation_throughput = if self.measured_cycles == 0 {
            0.0
        } else {
            self.words_ejected as f64 / (self.measured_cycles * self.nodes.len() as u64) as f64
        };
        let network = NetworkStats {
            width: self.net.width,
            height: self.net.height,
            torus: self.net.torus,
            routing: self.net.routing,
            average_hops: self.hops.mean(),
            hops_p50,
            hops_p95,
            hops_p99,
            link_energy: self.link_energy,
            per_hop_energy,
            saturation_throughput,
            link_words: self.link_words,
            credit_stalls: self.credit_stalls,
        };
        NetworkReport {
            simulation,
            network: Some(network),
        }
    }
}

/// A network-of-routers simulator.
///
/// A 1×1 network *is* a single router: it delegates to [`RouterSimulator`]
/// wholesale, so its [`NetworkReport::simulation`] is bit-for-bit the
/// report the single-router path produces (and
/// [`NetworkReport::network`] is `None`).  Larger grids run the
/// deterministic tick loop described in the module docs.
///
/// # Examples
///
/// ```
/// use fabric_power_fabric::{Architecture, FabricEnergyModel};
/// use fabric_power_noc::{NetworkConfig, NetworkSimulator};
/// use fabric_power_router::config::SimulationConfig;
/// use std::sync::Arc;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let config = SimulationConfig {
///     warmup_cycles: 100,
///     measure_cycles: 800,
///     ..SimulationConfig::new(Architecture::Crossbar, 8, 0.2)
/// };
/// let network = NetworkConfig::mesh(2, 2);
/// let model = Arc::new(FabricEnergyModel::paper(8)?);
/// let report = NetworkSimulator::with_shared_model(config, network, model)?.run();
/// assert!(report.network.unwrap().average_hops >= 1.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct NetworkSimulator {
    inner: Inner,
}

#[derive(Debug)]
enum Inner {
    Single(Box<RouterSimulator>),
    Multi(Box<MeshNetwork>),
}

impl NetworkSimulator {
    /// Creates a network simulator from a node configuration, a network
    /// configuration, and a shared per-node energy model.
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError`] if the grid is empty, the node radix cannot
    /// host the port map, the link knobs are degenerate, or the router core
    /// rejects the configuration.
    pub fn with_shared_model(
        config: SimulationConfig,
        network: NetworkConfig,
        model: Arc<FabricEnergyModel>,
    ) -> Result<Self, NetworkError> {
        let inner = if network.nodes() == 0 {
            return Err(NetworkError::EmptyNetwork);
        } else if network.nodes() == 1 {
            Inner::Single(Box::new(RouterSimulator::with_shared_model(config, model)?))
        } else {
            Inner::Multi(Box::new(MeshNetwork::new(config, network, model)?))
        };
        Ok(Self { inner })
    }

    /// Runs the configured warmup and measurement windows and returns the
    /// report.
    #[must_use]
    pub fn run(self) -> NetworkReport {
        match self.inner {
            Inner::Single(sim) => NetworkReport {
                simulation: sim.run(),
                network: None,
            },
            Inner::Multi(mut mesh) => {
                for _ in 0..mesh.config.warmup_cycles + mesh.config.measure_cycles {
                    mesh.step();
                }
                mesh.report()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric_power_fabric::Architecture;
    use fabric_power_router::traffic::TrafficPattern;
    use proptest::prelude::*;

    fn model(ports: usize) -> Arc<FabricEnergyModel> {
        Arc::new(FabricEnergyModel::paper(ports).expect("paper model"))
    }

    /// A short run: 100 warm-up and 800 measured cycles.
    fn quick(architecture: Architecture, ports: usize, load: f64) -> SimulationConfig {
        SimulationConfig {
            warmup_cycles: 100,
            measure_cycles: 800,
            ..SimulationConfig::new(architecture, ports, load)
        }
    }

    fn quick_config(load: f64) -> SimulationConfig {
        quick(Architecture::Crossbar, 8, load)
    }

    #[test]
    fn one_by_one_network_reports_exactly_like_a_single_router() {
        let config = quick(Architecture::Banyan, 8, 0.3);
        let single = RouterSimulator::with_shared_model(config.clone(), model(8))
            .unwrap()
            .run();
        let network =
            NetworkSimulator::with_shared_model(config, NetworkConfig::mesh(1, 1), model(8))
                .unwrap()
                .run();
        assert_eq!(network.network, None);
        assert_eq!(network.simulation, single);
    }

    #[test]
    fn mesh_delivers_packets_with_multi_hop_latency() {
        let report = NetworkSimulator::with_shared_model(
            quick_config(0.2),
            NetworkConfig::mesh(2, 2),
            model(8),
        )
        .unwrap()
        .run();
        let stats = report.network.expect("multi-node stats");
        assert!(report.simulation.packets_delivered > 0);
        assert!(stats.average_hops >= 1.0, "hops {}", stats.average_hops);
        assert!(stats.link_energy.as_joules() > 0.0);
        assert!(stats.per_hop_energy.as_joules() > 0.0);
        assert!(stats.link_words > 0);
        assert!(stats.saturation_throughput > 0.0);
        // Link energy is folded into the wire component of the account.
        assert!(report.simulation.energy.wires >= stats.link_energy);
        // End-to-end latency includes at least one link traversal beyond the
        // packet's own transfer time.
        assert!(report.simulation.average_latency_cycles > 16.0);
    }

    #[test]
    fn network_runs_are_reproducible_per_seed() {
        let run = |seed: u64| {
            NetworkSimulator::with_shared_model(
                SimulationConfig {
                    seed,
                    ..quick_config(0.25)
                },
                NetworkConfig::mesh(3, 3),
                model(8),
            )
            .unwrap()
            .run()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(
            run(7).simulation.words_delivered,
            run(8).simulation.words_delivered
        );
    }

    #[test]
    fn torus_wraparound_shortens_ring_distances() {
        // Tornado traffic on a 4-node ring: the mesh forces multi-hop paths,
        // the torus halves them via wraparound.
        let run = |net: NetworkConfig| {
            NetworkSimulator::with_shared_model(
                quick(Architecture::Crossbar, 8, 0.2).with_pattern(TrafficPattern::Tornado),
                net,
                model(8),
            )
            .unwrap()
            .run()
            .network
            .unwrap()
            .average_hops
        };
        let mesh_hops = run(NetworkConfig::mesh(4, 1));
        let torus_hops = run(NetworkConfig {
            torus: true,
            ..NetworkConfig::mesh(4, 1)
        });
        assert_eq!(mesh_hops, 2.0, "tornado on a 4-line is always 2 hops");
        assert_eq!(torus_hops, 2.0, "half-way ties route positively");
        let mesh_far = run(NetworkConfig::mesh(5, 1));
        let torus_far = run(NetworkConfig {
            torus: true,
            ..NetworkConfig::mesh(5, 1)
        });
        assert!(torus_far < mesh_far, "mesh {mesh_far} vs torus {torus_far}");
    }

    #[test]
    fn minimal_adaptive_still_routes_minimally() {
        let run = |routing: RoutingPolicy| {
            NetworkSimulator::with_shared_model(
                quick(Architecture::Crossbar, 8, 0.3).with_pattern(TrafficPattern::Transpose),
                NetworkConfig {
                    routing,
                    ..NetworkConfig::mesh(3, 3)
                },
                model(8),
            )
            .unwrap()
            .run()
        };
        let dor = run(RoutingPolicy::DimensionOrder);
        let adaptive = run(RoutingPolicy::MinimalAdaptive);
        // Both policies take minimal paths: every delivered packet's hop
        // count is bounded by the 3×3 mesh diameter (4).  The averages can
        // differ slightly because congestion shifts which packets complete
        // inside the measurement window.
        for report in [&dor, &adaptive] {
            let stats = report.network.as_ref().unwrap();
            assert!(report.simulation.packets_delivered > 0);
            assert!(stats.average_hops >= 1.0);
            assert!(
                stats.hops_p99 <= 4.0,
                "non-minimal path: {}",
                stats.hops_p99
            );
        }
    }

    #[test]
    fn shallow_links_stall_on_credits() {
        let report = NetworkSimulator::with_shared_model(
            quick(Architecture::Crossbar, 8, 0.8),
            NetworkConfig {
                link_depth: 1,
                ..NetworkConfig::mesh(2, 2)
            },
            model(8),
        )
        .unwrap()
        .run();
        assert!(report.network.unwrap().credit_stalls > 0);
    }

    #[test]
    fn hotspot_node_attracts_network_traffic() {
        let report = NetworkSimulator::with_shared_model(
            quick(Architecture::Crossbar, 8, 0.3).with_pattern(TrafficPattern::Hotspot {
                port: 0,
                fraction: 0.8,
            }),
            NetworkConfig::mesh(2, 2),
            model(8),
        )
        .unwrap()
        .run();
        assert!(report.simulation.packets_delivered > 0);
    }

    #[test]
    fn too_small_a_radix_is_rejected() {
        let config = quick(Architecture::Crossbar, 4, 0.2);
        let result =
            NetworkSimulator::with_shared_model(config, NetworkConfig::mesh(2, 2), model(4));
        assert!(matches!(
            result,
            Err(NetworkError::RadixTooSmall {
                radix: 4,
                required: 5
            })
        ));
    }

    #[test]
    fn a_model_of_another_port_count_is_rejected() {
        let result = NetworkSimulator::with_shared_model(
            quick_config(0.2),
            NetworkConfig::mesh(2, 2),
            model(4),
        );
        assert!(matches!(
            result,
            Err(NetworkError::Simulation(SimulationError::PortMismatch {
                config_ports: 8,
                model_ports: 4,
            }))
        ));
    }

    #[test]
    fn an_empty_grid_is_rejected() {
        for net in [NetworkConfig::mesh(0, 4), NetworkConfig::mesh(4, 0)] {
            assert!(matches!(
                NetworkSimulator::with_shared_model(quick_config(0.2), net, model(8)),
                Err(NetworkError::EmptyNetwork)
            ));
        }
    }

    #[test]
    fn single_row_network_fits_radix_four_nodes() {
        let config = quick(Architecture::Crossbar, 4, 0.2);
        let report =
            NetworkSimulator::with_shared_model(config, NetworkConfig::mesh(4, 1), model(4))
                .unwrap()
                .run();
        assert!(report.simulation.packets_delivered > 0);
    }

    #[test]
    fn degenerate_link_knobs_are_rejected() {
        let mut net = NetworkConfig::mesh(2, 2);
        net.link_latency = 0;
        assert!(matches!(
            NetworkSimulator::with_shared_model(quick_config(0.2), net, model(8)),
            Err(NetworkError::ZeroLinkLatency)
        ));
        let net = NetworkConfig {
            link_depth: 0,
            ..NetworkConfig::mesh(2, 2)
        };
        assert!(matches!(
            NetworkSimulator::with_shared_model(quick_config(0.2), net, model(8)),
            Err(NetworkError::ZeroLinkDepth)
        ));
    }

    #[test]
    fn node_seed_keeps_the_base_stream_for_node_zero() {
        assert_eq!(node_seed(0xDAC_2002, 0), 0xDAC_2002);
        assert_ne!(node_seed(0xDAC_2002, 1), 0xDAC_2002);
        assert_ne!(node_seed(0xDAC_2002, 1), node_seed(0xDAC_2002, 2));
    }

    #[test]
    fn network_report_round_trips_through_json() {
        let report = NetworkSimulator::with_shared_model(
            quick_config(0.2),
            NetworkConfig::mesh(2, 2),
            model(8),
        )
        .unwrap()
        .run();
        let json = serde_json::to_string(&report).unwrap();
        let back: NetworkReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
    }

    /// The traffic patterns the properties draw from.
    fn pattern(index: usize) -> TrafficPattern {
        match index {
            0 => TrafficPattern::UniformRandom,
            1 => TrafficPattern::Hotspot {
                port: 0,
                fraction: 0.5,
            },
            2 => TrafficPattern::Tornado,
            3 => TrafficPattern::Transpose,
            _ => TrafficPattern::Bursty {
                on_load: 0.8,
                off_load: 0.1,
                mean_burst: 20.0,
            },
        }
    }

    /// Packets whose metadata is in use: injected and not yet ejected.
    fn live_packets(mesh: &MeshNetwork) -> i64 {
        mesh.meta.len() as i64 - mesh.free_ids.len() as i64
    }

    /// Packets queued at a router input, crossing a fabric, staged at an
    /// egress or on a link's wire.
    fn packets_held(mesh: &MeshNetwork) -> i64 {
        let queued: usize = mesh
            .nodes
            .iter()
            .map(|node| {
                (0..mesh.config.ports)
                    .map(|port| node.input_queue_len(port))
                    .sum::<usize>()
            })
            .sum();
        let in_fabric: usize = mesh.nodes.iter().map(RouterNode::flows_in_fabric).sum();
        let staged: usize = mesh.staging.iter().map(VecDeque::len).sum();
        let on_links: usize = mesh
            .links
            .iter()
            .flatten()
            .map(|link| link.in_flight.len())
            .sum();
        (queued + in_fabric + staged + on_links) as i64
    }

    /// Payload words on the links' wires.
    fn words_on_links(mesh: &MeshNetwork) -> u64 {
        mesh.links
            .iter()
            .flatten()
            .flat_map(|link| &link.in_flight)
            .map(|(_, packet)| packet.words() as u64)
            .sum()
    }

    /// The flying and staged slot sets recounted from the links and the
    /// staging queues.
    fn recounted_link_sets(mesh: &MeshNetwork) -> [Vec<u64>; 2] {
        let mut flying = vec![0; mesh.flying.len()];
        let mut staged = vec![0; mesh.staged.len()];
        for slot in 0..mesh.links.len() {
            let link = mesh.links[slot].as_ref();
            if link.is_some_and(|link| !link.in_flight.is_empty()) {
                insert(&mut flying, slot);
            }
            if !mesh.staging[slot].is_empty() {
                insert(&mut staged, slot);
            }
        }
        [flying, staged]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn mesh_conserves_packets_credits_link_words_and_energy(
            width in 1_usize..=4,
            height in 1_usize..=4,
            torus in any::<bool>(),
            adaptive in any::<bool>(),
            link_depth in 1_usize..=4,
            link_latency in 1_u64..=3,
            architecture in prop_oneof![Just(Architecture::Crossbar), Just(Architecture::Banyan)],
            load in 0.05_f64..=1.0,
            packet_words in 1_usize..=16,
            pattern_index in 0_usize..5,
            inject_ticks in 1_u64..=200,
            seed in any::<u64>(),
        ) {
            // At least two nodes: a 1×1 network is a single router.
            let width = if width * height == 1 { 2 } else { width };
            let net = NetworkConfig {
                torus,
                routing: if adaptive {
                    RoutingPolicy::MinimalAdaptive
                } else {
                    RoutingPolicy::DimensionOrder
                },
                link_depth,
                link_latency,
                ..NetworkConfig::mesh(width, height)
            };
            let config = SimulationConfig {
                packet_words,
                seed,
                warmup_cycles: 0,
                measure_cycles: inject_ticks,
                ..quick(architecture, 8, load)
            }
            .with_pattern(pattern(pattern_index));
            let mut mesh = MeshNetwork::new(config, net, model(8)).unwrap();
            // The whole run is measured, so every ejection and launch counts.
            mesh.begin_measurement();
            let (mut injected, mut launched_words) = (0, 0);
            while mesh.cycle < inject_ticks || live_packets(&mesh) > 0 {
                prop_assert!(mesh.cycle < inject_ticks + 20_000, "the network never drained");
                if mesh.cycle < inject_ticks {
                    let live = live_packets(&mesh);
                    mesh.inject_traffic();
                    injected += live_packets(&mesh) - live;
                }
                mesh.deliver_link_arrivals();
                mesh.step_nodes();
                let on_links = words_on_links(&mesh);
                mesh.launch_links();
                launched_words += words_on_links(&mesh) - on_links;
                mesh.cycle += 1;

                prop_assert_eq!(
                    [mesh.flying.clone(), mesh.staged.clone()],
                    recounted_link_sets(&mesh)
                );
                for link in mesh.links.iter().flatten() {
                    let queued = mesh.nodes[link.to_node].input_queue_len(link.to_port);
                    let credits_used = link.in_flight.len() + queued;
                    prop_assert!(
                        credits_used <= link_depth,
                        "{credits_used} packets hold a depth-{link_depth} link's credits"
                    );
                }
                // After every tick each live packet is somewhere, and each
                // injected packet is either delivered or still live.
                let (held, live) = (packets_held(&mesh), live_packets(&mesh));
                let tick = mesh.cycle - 1;
                prop_assert_eq!(held, live, "tick {tick}: packets held vs live");
                prop_assert_eq!(
                    injected,
                    mesh.packets_delivered as i64 + live,
                    "tick {tick}: injected vs delivered + live"
                );
            }

            // Drained: nothing queued, staged or on a wire, and every packet
            // ejected exactly once, freeing its id exactly once.
            prop_assert!(mesh.staging.iter().all(VecDeque::is_empty));
            prop_assert_eq!(words_on_links(&mesh), 0);
            for node in &mesh.nodes {
                prop_assert!((0..8).all(|port| node.input_queue_len(port) == 0));
            }
            prop_assert_eq!(mesh.packets_delivered as i64, injected);
            prop_assert_eq!(mesh.words_ejected, injected as u64 * packet_words as u64);
            let mut free_ids = mesh.free_ids.clone();
            free_ids.sort_unstable();
            prop_assert!(
                free_ids.iter().copied().eq(0..mesh.meta.len() as u64),
                "an id was freed twice or never"
            );

            // Every launched word was counted once, and each launch was one
            // hop of one packet.
            prop_assert_eq!(mesh.link_words, launched_words);
            let hops = mesh.traversals - mesh.packets_delivered;
            prop_assert_eq!(hops * packet_words as u64, launched_words);

            // The energy components are non-negative and add up: the nodes'
            // accounts plus the link energy, folded into the wires.
            let report = mesh.report();
            let energy = report.simulation.energy;
            let stats = report.network.expect("a multi-node report");
            for component in [energy.switches, energy.buffers, energy.wires, stats.link_energy] {
                prop_assert!(component.as_joules() >= 0.0, "negative energy {component:?}");
            }
            let mut recounted = EnergyAccount::new();
            for node in &mesh.nodes {
                recounted.merge(&node.energy());
            }
            recounted.wires += stats.link_energy;
            prop_assert_eq!(energy, recounted);
            prop_assert_eq!(energy.total(), energy.switches + energy.buffers + energy.wires);
        }

        #[test]
        fn one_by_one_network_equals_the_single_router_for_any_config(
            architecture in prop_oneof![
                Just(Architecture::Crossbar),
                Just(Architecture::FullyConnected),
                Just(Architecture::Banyan),
                Just(Architecture::BatcherBanyan),
            ],
            ports in prop_oneof![Just(2_usize), Just(4), Just(8), Just(16)],
            load in 0.05_f64..=1.0,
            packet_words in 1_usize..=16,
            pattern_index in 0_usize..5,
            warmup in 0_u64..=100,
            measure in 1_u64..=400,
            seed in any::<u64>(),
        ) {
            let config = SimulationConfig {
                packet_words,
                seed,
                warmup_cycles: warmup,
                measure_cycles: measure,
                ..quick(architecture, ports, load)
            }
            .with_pattern(pattern(pattern_index));
            let single = RouterSimulator::with_shared_model(config.clone(), model(ports))
                .unwrap()
                .run();
            let network =
                NetworkSimulator::with_shared_model(config, NetworkConfig::mesh(1, 1), model(ports))
                    .unwrap()
                    .run();
            prop_assert_eq!(network.network, None);
            prop_assert_eq!(network.simulation, single);
        }
    }
}
