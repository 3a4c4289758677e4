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
//! * **Event-kept arbiter.**  The arbiter never scans the ports.  Per
//!   output it keeps a bit set of the free inputs whose head-of-line packet
//!   targets it, and a set of *pending* outputs: free outputs with at least
//!   one request.  Three events keep them current: an injection into the
//!   empty queue of a free input adds a request, a grant withdraws the
//!   winner's request and marks the output busy, and a completion frees
//!   the output and lets the freed input's next head request.  A pass
//!   visits only the pending outputs, in ascending order, and grants each
//!   the first requester at or after its grant pointer, wrapping around.
//!   A free input requests exactly one output, so this grants what
//!   scanning every output's round-robin order would, in the same order,
//!   leaving the same grant pointers.  The sets are word-sliced
//!   (`ports.div_ceil(64)` words), so any port count works.
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

/// The word holding port `index` in a word-sliced port set, and its bit.
fn bit(index: usize) -> (usize, u64) {
    (index / 64, 1 << (index % 64))
}

/// The first member of `set` at or after `start`, wrapping around.
fn first_at_or_after(set: &[u64], start: usize) -> Option<usize> {
    let (first, _) = bit(start);
    let head = set[first] & (u64::MAX << (start % 64));
    if head != 0 {
        return Some(first * 64 + head.trailing_zeros() as usize);
    }
    // The members of `set[first]` at or after `start` are known absent.
    (first + 1..set.len())
        .chain(0..=first)
        .find(|&word| set[word] != 0)
        .map(|word| word * 64 + set[word].trailing_zeros() as usize)
}

/// The first-come-first-serve round-robin arbiter: one grant pointer per
/// egress port, and the request sets that the node's events keep current
/// (see the module docs).
#[derive(Debug, Clone)]
struct Arbiter {
    /// Words per port set: `ports.div_ceil(64)`.
    words: usize,
    grant_pointer: Vec<usize>,
    /// Per output, `words` words: the free inputs whose head-of-line packet
    /// targets it.
    requests: Vec<u64>,
    /// The outputs a flow holds.
    busy: Vec<u64>,
    /// The free outputs with at least one request.  Empty between passes.
    pending: Vec<u64>,
    grants: Vec<(usize, usize)>,
}

impl Arbiter {
    fn new(ports: usize) -> Self {
        let words = ports.div_ceil(64);
        Self {
            words,
            grant_pointer: vec![0; ports],
            requests: vec![0; ports * words],
            busy: vec![0; words],
            pending: vec![0; words],
            grants: Vec::with_capacity(ports),
        }
    }

    fn requests(&mut self, output: usize) -> &mut [u64] {
        &mut self.requests[output * self.words..][..self.words]
    }

    /// A free input's new head-of-line packet requests `output`.
    fn request(&mut self, input: usize, output: usize) {
        let (word, mask) = bit(input);
        self.requests(output)[word] |= mask;
        let (word, mask) = bit(output);
        if self.busy[word] & mask == 0 {
            self.pending[word] |= mask;
        }
    }

    /// The flow holding `output` completed: the output is free again, and
    /// pending if any input is waiting for it.
    fn release(&mut self, output: usize) {
        let (word, mask) = bit(output);
        self.busy[word] &= !mask;
        if self.requests(output).iter().any(|&requests| requests != 0) {
            self.pending[word] |= mask;
        }
    }

    /// One arbitration pass.  Each pending output grants the requester that
    /// comes first in its round-robin order, starting at its grant pointer,
    /// withdraws that request and becomes busy.  Returns the
    /// `(input, output)` grants in output order and moves each granting
    /// output's pointer past its winner.  Every pending output has a
    /// requester, so the pass leaves no output pending.
    fn arbitrate(&mut self) -> &[(usize, usize)] {
        let ports = self.grant_pointer.len();
        self.grants.clear();
        for word in 0..self.words {
            let mut outputs = std::mem::take(&mut self.pending[word]);
            self.busy[word] |= outputs;
            while outputs != 0 {
                let output = word * 64 + outputs.trailing_zeros() as usize;
                outputs &= outputs - 1;
                let pointer = self.grant_pointer[output];
                let requests = self.requests(output);
                let input =
                    first_at_or_after(requests, pointer).expect("a pending output has a request");
                let (at, mask) = bit(input);
                requests[at] &= !mask;
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
    /// The inputs a flow holds.
    input_busy: Vec<bool>,
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
        let queue = &mut self.input_queues[port];
        if queue.is_empty() && !self.input_busy[port] {
            self.arbiter.request(port, packet.destination);
        }
        queue.push_back(packet);
    }

    /// Packets currently waiting in the given input queue (head-of-line
    /// packet included, in-fabric flows excluded).  Network links use this
    /// for backpressure.
    #[must_use]
    pub fn input_queue_len(&self, port: usize) -> usize {
        self.input_queues[port].len()
    }

    /// Granted flows whose packets have not finished crossing the fabric.
    /// [`step`](Self::step) removes a finished flow in the cycle its last
    /// word leaves, so between steps this counts the packets in the fabric.
    #[must_use]
    pub fn flows_in_fabric(&self) -> usize {
        self.flows.len()
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
    /// capacity is reused across cycles.  Arbitration visits only the
    /// outputs that can grant and every path comes from the node's priced
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
        let table = self.fabric.routes();
        for &(input, output) in self.arbiter.arbitrate() {
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
                // into (and will later be read back from) the node buffer: one
                // `E_B_bit` per bit pays for both accesses, as in Eq. 5.
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
    /// words they still had parked, frees their input/output ports (the
    /// freed input's next head-of-line packet requests its output), and
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
            let input = flow.packet.source;
            self.input_busy[input] = false;
            self.arbiter.release(flow.packet.destination);
            if let Some(head) = self.input_queues[input].front() {
                self.arbiter.request(input, head.destination);
            }
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

    /// The output-major scan the event-kept arbiter replaced: for each free
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

    /// The arbiter's request, busy and pending sets recounted from the
    /// outputs each free input's head-of-line packet requests and the
    /// outputs the flows hold.
    fn recounted_sets(
        ports: usize,
        requested: impl IntoIterator<Item = (usize, usize)>,
        held: impl IntoIterator<Item = usize>,
    ) -> [Vec<u64>; 3] {
        let words = ports.div_ceil(64);
        let mut requests = vec![0; ports * words];
        for (input, output) in requested {
            requests[output * words + input / 64] |= 1 << (input % 64);
        }
        let mut busy = vec![0; words];
        for output in held {
            busy[output / 64] |= 1 << (output % 64);
        }
        let mut pending = vec![0; words];
        for output in 0..ports {
            let requested = requests[output * words..][..words].iter().any(|&w| w != 0);
            if requested && busy[output / 64] & 1 << (output % 64) == 0 {
                pending[output / 64] |= 1 << (output % 64);
            }
        }
        [requests, busy, pending]
    }

    fn arbiter_sets(arbiter: &Arbiter) -> [Vec<u64>; 3] {
        [
            arbiter.requests.clone(),
            arbiter.busy.clone(),
            arbiter.pending.clone(),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn one_pass_arbiter_matches_the_output_major_scan(
            ports in 2_usize..=130,
            seed in any::<u64>(),
        ) {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            // Per-case rates, so both sparse and saturated passes occur.
            let inject_p = rng.gen::<f64>();
            let complete_p = rng.gen::<f64>();
            let pointers: Vec<usize> = (0..ports).map(|_| rng.gen_range(0..ports)).collect();
            let mut arbiter = Arbiter::new(ports);
            arbiter.grant_pointer.clone_from(&pointers);
            let mut reference_pointers = pointers;
            // Per input, the queued packets' outputs and the output its
            // flow holds; each pass's state is loaded through the events a
            // node raises.
            let mut queues = vec![VecDeque::new(); ports];
            let mut holding: Vec<Option<usize>> = vec![None; ports];
            for _ in 0..6 {
                for input in 0..ports {
                    if let Some(output) = holding[input] {
                        if rng.gen_bool(complete_p) {
                            holding[input] = None;
                            arbiter.release(output);
                            if let Some(&head) = queues[input].front() {
                                arbiter.request(input, head);
                            }
                        }
                    }
                    if rng.gen_bool(inject_p) {
                        let output = rng.gen_range(0..ports);
                        if queues[input].is_empty() && holding[input].is_none() {
                            arbiter.request(input, output);
                        }
                        queues[input].push_back(output);
                    }
                }
                let heads: Vec<Option<usize>> =
                    queues.iter().map(|queue| queue.front().copied()).collect();
                let requested = (0..ports).filter_map(|input| {
                    let output = heads[input].filter(|_| holding[input].is_none())?;
                    Some((input, output))
                });
                let held: Vec<usize> = holding.iter().flatten().copied().collect();
                prop_assert_eq!(
                    arbiter_sets(&arbiter),
                    recounted_sets(ports, requested, held.iter().copied())
                );

                let grants = arbiter.arbitrate().to_vec();
                let mut output_busy = vec![false; ports];
                for &output in &held {
                    output_busy[output] = true;
                }
                let expected = output_major_scan(
                    &heads,
                    &mut holding.iter().map(Option::is_some).collect::<Vec<_>>(),
                    &mut output_busy,
                    &mut reference_pointers,
                );
                prop_assert_eq!(&grants, &expected);
                prop_assert_eq!(&arbiter.grant_pointer, &reference_pointers);
                prop_assert!(arbiter.pending.iter().all(|&w| w == 0), "an output left pending");
                for (input, output) in grants {
                    queues[input].pop_front();
                    holding[input] = Some(output);
                }
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

    /// The arbiter's sets recounted from the node's queues and flows, after
    /// checking that the busy inputs are exactly those a flow holds.
    fn recounted_arbiter_sets(node: &RouterNode) -> [Vec<u64>; 3] {
        let mut input_busy = vec![false; node.ports()];
        for flow in &node.flows {
            input_busy[flow.packet.source] = true;
        }
        assert_eq!(node.input_busy, input_busy, "a busy input without a flow");
        let requested = node
            .input_queues
            .iter()
            .enumerate()
            .filter_map(|(input, queue)| {
                let head = queue.front().filter(|_| !input_busy[input])?;
                Some((input, head.destination))
            });
        let held = node.flows.iter().map(|flow| flow.packet.destination);
        recounted_sets(node.ports(), requested, held)
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
            ports in prop_oneof![Just(2_usize), Just(4), Just(8), Just(16), Just(32), Just(128)],
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
                prop_assert_eq!(arbiter_sets(&node.arbiter), recounted_arbiter_sets(&node));
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
