//! The reusable per-tick switching core of one router.
//!
//! [`RouterNode`] is the per-cycle body of the router: accept injected
//! packets, arbitrate head-of-line packets onto free egress ports, resolve
//! interconnect contention, push one payload word per in-flight packet
//! while charging switch/wire/buffer energy, and hand back the packets that
//! finished crossing the fabric this cycle.  Traffic is *injected*
//! ([`RouterNode::inject`]) rather than self-generated, so the same core
//! serves both the single-router driver (`RouterSimulator`, which feeds it
//! from a `TrafficGenerator`) and a network node (`fabric-power-noc`, which
//! feeds it from inter-router links).
//!
//! The node knows nothing about warmup windows, latency bookkeeping or
//! traffic patterns: the driver owns the clock and calls
//! [`RouterNode::step`] once per cycle, then interprets the completions
//! (recording end-to-end latency, or forwarding the packet to its next
//! hop).
//!
//! # Steady-state cost
//!
//! A cycle hashes nothing and allocates nothing once the queues and flow
//! list have grown to their working size, and charging a word is table
//! reads and additions:
//!
//! * **Priced route table.**  Paths come from a shared [`RouteTable`],
//!   lowered once at construction.  A grant copies a small `Copy` route;
//!   every hop carries dense link and element ids, so the per-link
//!   polarity state, the per-element occupancy and the node-buffer fill are
//!   flat arrays.  The table comes inside a [`PricedRoutes`], which holds
//!   each hop kind's wire energy per flipped-bit count and switch energy
//!   per element occupancy, so a hop charges two table reads instead of a
//!   LUT lookup, a division and two conversions.  A mesh shares one.
//! * **One-pass arbiter.**  Each free input's head-of-line packet bids for
//!   its destination in one pass over the inputs, and each free output
//!   keeps the bidder that comes first in its round-robin order.  A
//!   granted input's head targets only that output, so this grants exactly
//!   what scanning every output's round-robin order would, in the same
//!   (output) order, leaving the same grant pointers.
//! * **Occupancy bookkeeping.**  The per-element occupancy counts the
//!   unblocked, unfinished flows on each element.  It changes only when a
//!   flow does: a grant adds the flow's hops, a blocked flag flipping in
//!   contention resolution removes or re-adds them, and completion removes
//!   them.  Transmission reads it without a pass over the flows' hops.
//! * **Scratch claims.**  The contention claims live across cycles and
//!   are cleared by walking the unblocked flows' hops, not reallocated.
//! * **Completion buffer.**  [`RouterNode::step`] moves finished packets
//!   into a buffer the caller owns and drains, instead of returning a new
//!   `Vec` of clones.
//!
//! Energy is summed in the same per-flow, per-hop order as a direct walk
//! of [`FabricTopology::route`](fabric_power_fabric::FabricTopology::route)
//! paths, and every table entry is the product that walk computes, so every
//! statistic is bit-identical to it.
//!
//! [`RouteTable`]: crate::route_table::RouteTable

use std::collections::VecDeque;
use std::sync::Arc;

use fabric_power_fabric::energy_model::FabricEnergyModel;
use fabric_power_tech::units::Energy;
use fabric_power_tech::wire::polarity_flips;

use crate::energy::EnergyAccount;
use crate::packet::Packet;
use crate::route_table::{Hop, PricedRoutes, Route};

/// One packet currently crossing the fabric.
#[derive(Debug, Clone)]
struct ActiveFlow {
    packet: Packet,
    route: Route,
    words_delivered: usize,
    /// Words currently parked in a node buffer because of contention.
    backlog: u64,
    /// Dense id of the element the backlog is parked at: the first
    /// contended hop since the backlog was last empty.  Only meaningful
    /// while `backlog > 0`.
    backlog_element: u32,
    blocked: bool,
}

impl ActiveFlow {
    fn is_complete(&self) -> bool {
        self.words_delivered >= self.packet.words()
    }
}

/// Marks an output nobody has bid for in the current pass.
const NO_BID: usize = usize::MAX;

/// The first-come-first-serve round-robin arbiter: one grant pointer per
/// egress port, plus the scratch of one arbitration pass.
#[derive(Debug, Clone)]
struct Arbiter {
    grant_pointer: Vec<usize>,
    /// Per output, the input winning the current pass (`NO_BID` between
    /// passes).
    winner: Vec<usize>,
    grants: Vec<(usize, usize)>,
}

impl Arbiter {
    fn new(ports: usize) -> Self {
        Self {
            grant_pointer: vec![0; ports],
            winner: vec![NO_BID; ports],
            grants: Vec::with_capacity(ports),
        }
    }

    /// One arbitration pass.  Every free input whose head-of-line packet
    /// (`head_destination`) is addressed to a free output bids for it; the
    /// output keeps the bidder that comes first in its round-robin order,
    /// starting at its grant pointer.  Returns the `(input, output)` grants
    /// in output order and moves each granting output's pointer past its
    /// winner.
    fn arbitrate(
        &mut self,
        input_busy: &[bool],
        output_busy: &[bool],
        head_destination: impl Fn(usize) -> Option<usize>,
    ) -> &[(usize, usize)] {
        let ports = self.grant_pointer.len();
        for (input, &busy) in input_busy.iter().enumerate() {
            if busy {
                continue;
            }
            let Some(output) = head_destination(input) else {
                continue;
            };
            if output_busy[output] {
                continue;
            }
            let pointer = self.grant_pointer[output];
            let winner = &mut self.winner[output];
            // Bids arrive in input order, so a later bidder is first in
            // round-robin order only if it is the first at or after the
            // pointer and the current winner lies before it.
            if *winner == NO_BID || (*winner < pointer && input >= pointer) {
                *winner = input;
            }
        }
        self.grants.clear();
        for output in 0..ports {
            let input = std::mem::replace(&mut self.winner[output], NO_BID);
            if input != NO_BID {
                self.grant_pointer[output] = (input + 1) % ports;
                self.grants.push((input, output));
            }
        }
        &self.grants
    }
}

/// The per-tick switching core of one router: input queues, the
/// first-come-first-serve round-robin arbiter, the in-fabric flows with
/// their per-link polarity state, and the three-component energy account.
#[derive(Debug)]
pub struct RouterNode {
    node_buffer_bits: u64,
    /// Shared immutable route table priced under the node's energy model
    /// (one per simulator, [`Arc`]-shared across a mesh's nodes).
    fabric: Arc<PricedRoutes>,

    input_queues: Vec<VecDeque<Packet>>,
    input_busy: Vec<bool>,
    output_busy: Vec<bool>,
    arbiter: Arbiter,
    flows: Vec<ActiveFlow>,
    /// Last word driven onto each fabric link, by dense link id.
    link_last_word: Vec<u64>,
    /// Words parked in each element's node buffer, by dense element id.
    node_buffer_words: Vec<u64>,
    /// Contention scratch, all `false` between cycles: the links claimed
    /// this cycle, by dense link id.
    claimed: Vec<bool>,
    /// The unblocked, unfinished flows crossing each element, by dense
    /// element id: the input vector its node-switch LUT is indexed with.
    /// Kept up to date as flows are granted, blocked, unblocked and
    /// completed.
    occupancy: Vec<usize>,

    measuring: bool,
    words_delivered: u64,
    buffered_words: u64,
    buffer_overflow_cycles: u64,
    energy: EnergyAccount,
}

impl RouterNode {
    /// Creates a node that routes through `fabric`'s table and charges its
    /// energy model.
    #[must_use]
    pub fn new(fabric: Arc<PricedRoutes>, node_buffer_bits: u64) -> Self {
        let routes = fabric.routes();
        let ports = routes.ports();
        Self {
            node_buffer_bits,
            input_queues: vec![VecDeque::new(); ports],
            input_busy: vec![false; ports],
            output_busy: vec![false; ports],
            arbiter: Arbiter::new(ports),
            flows: Vec::with_capacity(ports),
            link_last_word: vec![0; routes.link_count()],
            node_buffer_words: vec![0; routes.element_count()],
            claimed: vec![false; routes.link_count()],
            occupancy: vec![0; routes.element_count()],
            fabric,
            measuring: false,
            words_delivered: 0,
            buffered_words: 0,
            buffer_overflow_cycles: 0,
            energy: EnergyAccount::new(),
        }
    }

    /// Number of switch-fabric ports.
    #[must_use]
    pub fn ports(&self) -> usize {
        self.fabric.routes().ports()
    }

    /// The energy model this node charges against.
    #[must_use]
    pub fn model(&self) -> &FabricEnergyModel {
        self.fabric.model()
    }

    /// Enqueues a packet at an input port.  The packet's `source` and
    /// `destination` are *local* port indices on this node, and `source`
    /// must be `port`; a network layer rewrites them per hop.
    pub fn inject(&mut self, port: usize, packet: Packet) {
        self.input_queues[port].push_back(packet);
    }

    /// Packets currently waiting in the given input queue (head-of-line
    /// packet included, in-fabric flows excluded).  Network links use this
    /// for backpressure.
    #[must_use]
    pub fn input_queue_len(&self, port: usize) -> usize {
        self.input_queues[port].len()
    }

    /// Starts the measurement window: zeroes the delivered-word, buffering
    /// and energy accounts.  In-flight state (queues, flows, per-link
    /// polarity) is deliberately kept — warmup exists precisely to populate
    /// it.
    pub fn begin_measurement(&mut self) {
        self.measuring = true;
        self.words_delivered = 0;
        self.buffered_words = 0;
        self.buffer_overflow_cycles = 0;
        self.energy = EnergyAccount::new();
    }

    /// Payload words that left through egress ports during the measurement
    /// window.
    #[must_use]
    pub fn words_delivered(&self) -> u64 {
        self.words_delivered
    }

    /// Words parked in node buffers by interconnect contention during the
    /// measurement window.
    #[must_use]
    pub fn buffered_words(&self) -> u64 {
        self.buffered_words
    }

    /// Cycles during which a node buffer exceeded its configured capacity.
    #[must_use]
    pub fn buffer_overflow_cycles(&self) -> u64 {
        self.buffer_overflow_cycles
    }

    /// The switch/buffer/wire energy charged during the measurement window.
    #[must_use]
    pub fn energy(&self) -> EnergyAccount {
        self.energy
    }

    /// Runs one clock cycle — arbitration, contention resolution, word
    /// transmission, flow completion — and appends the packets that
    /// finished crossing the fabric this cycle to `completed`, in
    /// completion order.
    ///
    /// The packets are moved, not cloned, and `completed` is only appended
    /// to: the caller owns the buffer and drains it after each step, so its
    /// capacity is reused across cycles.  Arbitration is one pass over the
    /// inputs and every path comes from the node's priced
    /// [`RouteTable`](crate::route_table::RouteTable), so in steady state a
    /// step neither hashes nor allocates.
    ///
    /// The caller owns the clock: `cycle` only seeds the rotating contention
    /// priority and is echoed nowhere else.
    pub fn step(&mut self, cycle: u64, completed: &mut Vec<Packet>) {
        self.arbitrate();
        self.resolve_contention(cycle);
        self.transmit();
        self.complete_flows(completed);
    }

    /// First-come-first-serve arbitration with a round-robin tie-break per
    /// egress port: destination contention is resolved here, before packets
    /// enter the fabric (paper §3.2).
    fn arbitrate(&mut self) {
        let queues = &self.input_queues;
        let grants = self
            .arbiter
            .arbitrate(&self.input_busy, &self.output_busy, |input| {
                queues[input].front().map(|head| head.destination)
            });
        let table = self.fabric.routes();
        for &(input, output) in grants {
            let packet = self.input_queues[input]
                .pop_front()
                .expect("a granted input has a head-of-line packet");
            let route = table.route(input, output);
            // A packet without words completes at once and never occupies
            // its path.
            if !packet.payload.is_empty() {
                count_occupancy(&mut self.occupancy, table.hops(&route), true);
            }
            self.flows.push(ActiveFlow {
                packet,
                route,
                words_delivered: 0,
                backlog: 0,
                backlog_element: 0,
                blocked: false,
            });
            self.input_busy[input] = true;
            self.output_busy[output] = true;
        }
    }

    /// Detects interconnect contention (internal blocking) for fabrics whose
    /// paths can share links — only the Banyan in the paper's set.  Flows are
    /// examined in a rotating priority order; a flow that cannot claim every
    /// link of its path is blocked for this cycle and its incoming word is
    /// absorbed by the node buffer at the first contended hop.  A flow whose
    /// blocked flag flips moves its hops out of or back into the element
    /// occupancy.  On other fabrics no flow is ever blocked.
    fn resolve_contention(&mut self, cycle: u64) {
        let table = self.fabric.routes();
        if self.flows.is_empty() || !table.contendable() {
            return;
        }
        let count = self.flows.len();
        let start = (cycle as usize) % count;
        for offset in 0..count {
            let flow = &mut self.flows[(start + offset) % count];
            if flow.is_complete() {
                continue;
            }
            let hops = table.hops(&flow.route);
            let contendable = hops.iter().filter(|hop| table.data(hop).contendable);
            let blocked = if let Some(blocking) = contendable
                .clone()
                .find(|hop| self.claimed[hop.link as usize])
            {
                // Parked words stay where they were parked until the
                // backlog drains, even if the flow later blocks elsewhere.
                if flow.backlog == 0 {
                    flow.backlog_element = blocking.element;
                }
                true
            } else {
                for hop in contendable {
                    self.claimed[hop.link as usize] = true;
                }
                false
            };
            if blocked != flow.blocked {
                flow.blocked = blocked;
                count_occupancy(&mut self.occupancy, hops, !blocked);
            }
        }
        // Only unblocked flows claimed links.
        for flow in self.flows.iter().filter(|flow| !flow.blocked) {
            for hop in table.hops(&flow.route) {
                self.claimed[hop.link as usize] = false;
            }
        }
    }

    /// Advances every flow by one word, charging energy as it goes.
    fn transmit(&mut self) {
        let fabric = &*self.fabric;
        let table = fabric.routes();
        let model = fabric.model();
        let bus_width = f64::from(model.bus_width_bits());
        let word_mask = if model.bus_width_bits() >= 64 {
            u64::MAX
        } else {
            (1_u64 << model.bus_width_bits()) - 1
        };

        let mut switch_energy = Energy::ZERO;
        let mut wire_energy = Energy::ZERO;
        let mut buffer_energy = Energy::ZERO;

        for flow in &mut self.flows {
            if flow.is_complete() {
                continue;
            }
            if flow.blocked {
                // The word arriving at the contended node this cycle is written
                // into (and will later be read back from) the node buffer.
                buffer_energy += model.buffer_bit_energy() * bus_width;
                flow.backlog += 1;
                if self.measuring {
                    self.buffered_words += 1;
                }
                let entry = &mut self.node_buffer_words[flow.backlog_element as usize];
                *entry += 1;
                if *entry * u64::from(model.bus_width_bits()) > self.node_buffer_bits
                    && self.measuring
                {
                    self.buffer_overflow_cycles += 1;
                }
                continue;
            }

            let word = flow.packet.payload[flow.words_delivered] & word_mask;

            // Wire energy: only bits that flip polarity on each interconnect
            // segment dissipate energy (paper Eq. 2).
            let ingress = &mut self.link_last_word[flow.route.ingress_link as usize];
            let flips = f64::from(polarity_flips(*ingress, word));
            *ingress = word;
            wire_energy += model.grid_bit_energy() * (flips * flow.route.wire_grids_before as f64);
            for hop in table.hops(&flow.route) {
                let last = &mut self.link_last_word[hop.link as usize];
                wire_energy += fabric.wire_energy(hop, polarity_flips(*last, word));
                *last = word;
                // Node-switch energy from the input-vector LUT, at the
                // element's occupancy.
                switch_energy += fabric.switch_energy(hop, self.occupancy[hop.element as usize]);
            }

            // A word previously parked in the node buffer drains along with
            // this one (its read access was already charged on the write).
            if flow.backlog > 0 {
                flow.backlog -= 1;
                self.node_buffer_words[flow.backlog_element as usize] -= 1;
            }

            flow.words_delivered += 1;
            if self.measuring {
                self.words_delivered += 1;
            }
        }

        if self.measuring {
            self.energy.switches += switch_energy;
            self.energy.wires += wire_energy;
            self.energy.buffers += buffer_energy;
        }
    }

    /// Removes finished flows, releases their path's occupancy and the
    /// words they still had parked, frees their input/output ports, and
    /// moves their packets into `completed` in completion order.
    fn complete_flows(&mut self, completed: &mut Vec<Packet>) {
        let table = self.fabric.routes();
        for flow in self.flows.extract_if(.., |flow| flow.is_complete()) {
            // A flow finishes on a word it sent unblocked, so it still
            // occupies its path, unless it never had a word to send.
            if !flow.packet.payload.is_empty() {
                count_occupancy(&mut self.occupancy, table.hops(&flow.route), false);
            }
            self.node_buffer_words[flow.backlog_element as usize] -= flow.backlog;
            self.input_busy[flow.packet.source] = false;
            self.output_busy[flow.packet.destination] = false;
            completed.push(flow.packet);
        }
    }
}

/// Counts a flow's hops into (`enter`) or out of the element occupancy.
fn count_occupancy(occupancy: &mut [usize], hops: &[Hop], enter: bool) {
    for hop in hops {
        let occupants = &mut occupancy[hop.element as usize];
        if enter {
            *occupants += 1;
        } else {
            *occupants -= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::route_table::RouteTable;
    use fabric_power_fabric::Architecture;
    use fabric_power_tech::constants::BANYAN_NODE_BUFFER_BITS;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// The output-major scan the one-pass arbiter replaced: for each free
    /// output in turn, grant the first free input, from the output's grant
    /// pointer on, whose head-of-line packet targets it.
    fn output_major_scan(
        heads: &[Option<usize>],
        input_busy: &mut [bool],
        output_busy: &mut [bool],
        grant_pointer: &mut [usize],
    ) -> Vec<(usize, usize)> {
        let ports = heads.len();
        let mut grants = Vec::new();
        for output in 0..ports {
            if output_busy[output] {
                continue;
            }
            let start = grant_pointer[output];
            for offset in 0..ports {
                let input = (start + offset) % ports;
                if input_busy[input] || heads[input] != Some(output) {
                    continue;
                }
                grants.push((input, output));
                input_busy[input] = true;
                output_busy[output] = true;
                grant_pointer[output] = (input + 1) % ports;
                break;
            }
        }
        grants
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn one_pass_arbiter_matches_the_output_major_scan(
            ports in 2_usize..=64,
            seed in any::<u64>(),
        ) {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            // Per-case densities, so both sparse and saturated passes occur.
            let head_p = rng.gen::<f64>();
            let busy_p = rng.gen::<f64>();
            let pointers: Vec<usize> = (0..ports).map(|_| rng.gen_range(0..ports)).collect();
            let mut arbiter = Arbiter::new(ports);
            arbiter.grant_pointer.clone_from(&pointers);
            let mut reference_pointers = pointers;
            // Several passes on one arbiter also cover its scratch reuse.
            for _ in 0..4 {
                let heads: Vec<Option<usize>> = (0..ports)
                    .map(|_| rng.gen_bool(head_p).then(|| rng.gen_range(0..ports)))
                    .collect();
                let input_busy: Vec<bool> = (0..ports).map(|_| rng.gen_bool(busy_p)).collect();
                let output_busy: Vec<bool> = (0..ports).map(|_| rng.gen_bool(busy_p)).collect();

                let grants = arbiter
                    .arbitrate(&input_busy, &output_busy, |input| heads[input])
                    .to_vec();
                let expected = output_major_scan(
                    &heads,
                    &mut input_busy.clone(),
                    &mut output_busy.clone(),
                    &mut reference_pointers,
                );
                prop_assert_eq!(grants, expected);
                prop_assert_eq!(&arbiter.grant_pointer, &reference_pointers);
                prop_assert!(arbiter.winner.iter().all(|&winner| winner == NO_BID));
            }
        }
    }

    fn drained(node: &RouterNode) -> bool {
        node.flows.is_empty() && node.input_queues.iter().all(VecDeque::is_empty)
    }

    /// The element occupancy recounted from the flows, as a node between
    /// steps must hold it: every unblocked flow on every element it crosses.
    fn recounted_occupancy(node: &RouterNode) -> Vec<usize> {
        let table = node.fabric.routes();
        let mut occupancy = vec![0; node.occupancy.len()];
        for flow in node.flows.iter().filter(|flow| !flow.blocked) {
            for hop in table.hops(&flow.route) {
                occupancy[hop.element as usize] += 1;
            }
        }
        occupancy
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn router_core_conserves_packets_words_and_buffer_occupancy(
            architecture in prop_oneof![
                Just(Architecture::Crossbar),
                Just(Architecture::FullyConnected),
                Just(Architecture::Banyan),
                Just(Architecture::BatcherBanyan),
            ],
            ports in prop_oneof![Just(2_usize), Just(4), Just(8), Just(16), Just(32)],
            seed in any::<u64>(),
        ) {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let routes = RouteTable::new(architecture, ports).unwrap();
            let model = Arc::new(FabricEnergyModel::paper(ports).unwrap());
            let fabric = Arc::new(PricedRoutes::new(routes, model).unwrap());
            let mut node = RouterNode::new(fabric, BANYAN_NODE_BUFFER_BITS);
            node.begin_measurement();

            // Per-case injection rate and schedule length, light to saturating.
            let inject_p = rng.gen::<f64>() * 0.5;
            let schedule_cycles = rng.gen_range(1..200_u64);
            let mut outstanding: Vec<Option<Vec<u64>>> = Vec::new();
            let mut completed = Vec::new();
            let mut completed_words = 0;
            let mut cycle = 0;
            while cycle < schedule_cycles || !drained(&node) {
                prop_assert!(cycle < 100_000, "the node never drained");
                if cycle < schedule_cycles {
                    for port in 0..ports {
                        if !rng.gen_bool(inject_p) {
                            continue;
                        }
                        // Zero-word packets complete at grant without occupying their path.
                        let words = rng.gen_range(0..=24_usize);
                        let payload: Vec<u64> = (0..words).map(|_| rng.gen()).collect();
                        node.inject(
                            port,
                            Packet {
                                id: outstanding.len() as u64,
                                source: port,
                                destination: rng.gen_range(0..ports),
                                payload: payload.clone(),
                                arrival_cycle: cycle,
                            },
                        );
                        outstanding.push(Some(payload));
                    }
                }
                node.step(cycle, &mut completed);
                prop_assert_eq!(&node.occupancy, &recounted_occupancy(&node));
                for packet in completed.drain(..) {
                    let injected = outstanding[packet.id as usize].take();
                    prop_assert!(
                        injected.as_ref() == Some(&packet.payload),
                        "packet {} completed twice or with an altered payload",
                        packet.id
                    );
                    completed_words += packet.words() as u64;
                }
                cycle += 1;
            }
            prop_assert!(outstanding.iter().all(Option::is_none), "a packet never completed");
            prop_assert_eq!(completed_words, node.words_delivered());
            if architecture != Architecture::Banyan {
                prop_assert_eq!(node.buffered_words(), 0);
                prop_assert!(node.energy().buffers.is_zero());
            }
            prop_assert!(
                node.node_buffer_words.iter().all(|&words| words == 0),
                "{architecture} {ports}x{ports}: words left parked after draining"
            );
            prop_assert!(
                node.occupancy.iter().all(|&occupants| occupants == 0),
                "{architecture} {ports}x{ports}: element occupancy left after draining"
            );
            prop_assert!(
                !node.claimed.contains(&true),
                "{architecture} {ports}x{ports}: a link left claimed after draining"
            );
        }
    }
}
