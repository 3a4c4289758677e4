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
//! * **Shared schedule.**  A node is one flow schedule (input queues,
//!   arbiter, flows, completions) that charges one or more priced fabrics,
//!   each with its own link polarity state, element occupancy and energy
//!   account.  Destination contention is resolved at the arbiter, before a
//!   packet enters the fabric, so on a fabric without interconnect
//!   contention no flow is ever blocked: grants, words and completions do
//!   not depend on the fabric, and each fabric still sums its energy flow
//!   by flow, hop by hop, exactly as on a node of its own.  The single
//!   router runs the crossbar, fully-connected and Batcher-Banyan fabrics
//!   of an operating point on one node.  A contendable fabric (the Banyan)
//!   blocks flows, so it always has a node to itself.
//! * **Priced route table.**  Paths come from a shared route table,
//!   lowered once at construction.  A grant stores the route's index, the
//!   same in every fabric's table; every hop carries dense link and element
//!   ids, so the per-link polarity state and the per-element occupancy are
//!   flat arrays.  The table comes inside a [`PricedRoutes`], which holds
//!   one price row per hop kind: the wire energy per flipped-bit count,
//!   then the switch energy per element occupancy.  A hop carries its
//!   row's offset, so finding its wire price takes no multiply.
//! * **Element prices.**  Each fabric keeps every element's switch price
//!   at its current occupancy in one array, which the occupancy events
//!   rewrite from the element's row.  A hop is then a link load and
//!   compare, two price loads, two additions and a link store.
//! * **Flip reuse.**  Each flow remembers the last word it sent, and each
//!   new word's flips against it are counted once per step for every
//!   fabric.  A link that still holds that last word, because no other flow
//!   drove it since, flips exactly those bits, so only a link another flow
//!   drove counts its own.  The ingress segment of a port carries only that
//!   port's flows, so it always holds the flow's last word: the node keeps
//!   its polarity per input, and it is charged only where the route's
//!   ingress run has grids (the fully-connected broadcast bus).
//! * **Warm-up.**  A step chooses `transmit::<true>` or `transmit::<false>`
//!   once.  In warm-up the links and words still advance, but no price is
//!   read, no flip counted and nothing added.
//! * **Skipped passes.**  A step runs a pass only when the cycle's events
//!   give it work, and each skip is exact.  The arbiter's may-be-pending
//!   flag is set by every event that marks an output pending and cleared
//!   by the pass, so while it is clear no output is pending and a pass
//!   would grant nothing.  A step that leaves the node without flows ends
//!   after arbitration.  Only a contendable node has claim stamps; on any
//!   other no flow is ever blocked, so the contention pass returns before
//!   it reads the table.  A flow completes only when it is granted without
//!   a word or sends its last one; the grant and `transmit` count those,
//!   and completion runs only when the count is non-zero.
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
//!   them.  Transmission reads the element prices without a pass over the
//!   flows' hops.
//! * **Claim stamps.**  Each contention pass has a new number, and a claim
//!   writes it into the link's slot, so a link is claimed in this pass
//!   exactly when it holds this pass's number.  The last pass's claims
//!   lapse without a clearing walk, and the array is never reallocated.
//!   The rotation visits the flows as two slices: from the starting flow
//!   to the end, then from the first.
//! * **Completion buffer.**  [`RouterNode::step`] moves finished packets
//!   into a buffer the caller owns and drains, instead of returning a new
//!   `Vec` of clones.
//!
//! Energy is summed flow by flow, hop by hop in path order, and every
//! table entry is the product the per-hop formula computes, so every
//! statistic is bit-identical to charging the energy model hop by hop.
//! The terms left out are exact zeros.

use std::collections::VecDeque;
use std::sync::Arc;

use fabric_power_tech::units::Energy;
use fabric_power_tech::wire::polarity_flips;

use crate::energy::EnergyAccount;
use crate::packet::Packet;
use crate::route_table::{Hop, PricedRoutes, FLIP_COUNTS};

/// One packet currently crossing the fabric.
#[derive(Debug, Clone)]
struct ActiveFlow {
    packet: Packet,
    /// Index of the flow's route, the same in every fabric's table.
    route: u32,
    words_delivered: usize,
    /// The last word the flow sent; before its first, the word its ingress
    /// segment last carried.
    last_word: u64,
    blocked: bool,
}

impl ActiveFlow {
    fn is_complete(&self) -> bool {
        self.words_delivered >= self.packet.words()
    }
}

/// One word a flow sends this cycle, as every fabric of the node charges
/// it.
#[derive(Debug, Clone, Copy)]
struct Send {
    /// Index of the flow's route.
    route: u32,
    /// Polarity flips of `word` against `previous` (0 in warm-up, where
    /// nothing is charged).
    flips: u32,
    /// The flow's last word before this one.
    previous: u64,
    word: u64,
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
    /// Set whenever an event marks an output pending, cleared by the pass:
    /// while it is clear, `pending` is empty and a pass would grant nothing.
    may_be_pending: bool,
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
            may_be_pending: false,
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
            self.may_be_pending = true;
        }
    }

    /// The flow holding `output` completed: the output is free again, and
    /// pending if any input is waiting for it.
    fn release(&mut self, output: usize) {
        let (word, mask) = bit(output);
        self.busy[word] &= !mask;
        if self.requests(output).iter().any(|&requests| requests != 0) {
            self.pending[word] |= mask;
            self.may_be_pending = true;
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
        self.may_be_pending = false;
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

/// A fabric's element occupancy and the switch prices it selects.
#[derive(Debug, Clone, PartialEq)]
struct Occupancy {
    /// The unblocked, unfinished flows crossing each element, by dense
    /// element id: the input vector its node-switch LUT is indexed with.
    counts: Vec<usize>,
    /// Each element's switch price at its count, by dense element id.
    prices: Vec<Energy>,
}

impl Occupancy {
    fn new(fabric: &PricedRoutes) -> Self {
        Self {
            counts: vec![0; fabric.routes().element_count()],
            prices: fabric.idle_element_prices().to_vec(),
        }
    }

    /// Counts a flow's hops into (`enter`) or out of the occupancy and
    /// reprices their elements from `fabric`'s rows.
    fn count(&mut self, fabric: &PricedRoutes, hops: &[Hop], enter: bool) {
        let (rows, row_len) = fabric.price_rows();
        for hop in hops {
            let element = hop.element as usize;
            let occupants = &mut self.counts[element];
            if enter {
                *occupants += 1;
            } else {
                *occupants -= 1;
            }
            // At most one flow per input, so an element never holds more
            // than `ports`; a larger count would read the next hop kind's
            // row.
            debug_assert!(FLIP_COUNTS + *occupants < row_len);
            self.prices[element] = rows[hop.row as usize + FLIP_COUNTS + *occupants];
        }
    }
}

/// One priced fabric a node charges, with its own link polarity state,
/// element occupancy and energy.
#[derive(Debug)]
struct Fabric {
    /// Shared immutable route table priced under an energy model
    /// ([`Arc`]-shared across a mesh's nodes, and across a sweep's
    /// simulators).
    priced: Arc<PricedRoutes>,
    /// Last word driven onto each element's output links, by dense link id
    /// (the ingress segments' ids stay unused: the node keeps those per
    /// input).
    link_last_word: Vec<u64>,
    occupancy: Occupancy,
    switches: Energy,
    wires: Energy,
}

impl Fabric {
    fn new(priced: Arc<PricedRoutes>) -> Self {
        Self {
            link_last_word: vec![0; priced.routes().link_count()],
            occupancy: Occupancy::new(&priced),
            priced,
            switches: Energy::ZERO,
            wires: Energy::ZERO,
        }
    }

    /// Counts the hops of route `route` into or out of the occupancy.
    fn count_route(&mut self, route: u32, enter: bool) {
        let table = self.priced.routes();
        let hops = table.hops(table.route(route));
        self.occupancy.count(&self.priced, hops, enter);
    }

    /// Drives this cycle's words onto the fabric's links and, while
    /// `MEASURING`, charges their wire and switch energy.
    fn charge<const MEASURING: bool>(&mut self, sends: &[Send]) {
        let table = self.priced.routes();
        let links = &mut self.link_last_word[..];
        if !MEASURING {
            for send in sends {
                for hop in table.hops(table.route(send.route)) {
                    links[hop.link as usize] = send.word;
                }
            }
            return;
        }
        let (rows, _) = self.priced.price_rows();
        let grid_bit_energy = self.priced.model().grid_bit_energy();
        let element_prices = &self.occupancy.prices[..];
        let mut switch_energy = Energy::ZERO;
        let mut wire_energy = Energy::ZERO;
        for send in sends {
            let route = table.route(send.route);
            // Wire energy: only bits that flip polarity on each
            // interconnect segment dissipate energy (paper Eq. 2).  The
            // ingress segment holds the flow's last word; only the
            // fully-connected fabric's has grids.
            if route.wire_grids_before != 0.0 {
                wire_energy += grid_bit_energy * (f64::from(send.flips) * route.wire_grids_before);
            }
            for hop in table.hops(route) {
                // A link still holding the flow's last word flips the bits
                // the word does; only a link another flow drove since
                // counts its own.
                let last = &mut links[hop.link as usize];
                let flips = if *last == send.previous {
                    send.flips
                } else {
                    polarity_flips(*last, send.word)
                };
                *last = send.word;
                wire_energy += rows[hop.row as usize + flips as usize];
                // Node-switch energy from the input-vector LUT, at the
                // element's occupancy.
                switch_energy += element_prices[hop.element as usize];
            }
        }
        self.switches += switch_energy;
        self.wires += wire_energy;
    }
}

/// The per-tick switching core of one router: input queues, the
/// first-come-first-serve round-robin arbiter and the in-fabric flows,
/// charging one or more fabrics, each with its per-link polarity state and
/// its energy account.
#[derive(Debug)]
pub struct RouterNode {
    /// The fabrics the schedule charges: one if it is contendable.
    fabrics: Vec<Fabric>,
    /// The mask that cuts a word to every fabric's bus width.
    word_mask: u64,
    /// The energy of one word parked in a node buffer.
    word_buffer_energy: Energy,

    input_queues: Vec<VecDeque<Packet>>,
    /// The inputs a flow holds.
    input_busy: Vec<bool>,
    /// The last word each input's ingress segment carried.
    input_last_word: Vec<u64>,
    arbiter: Arbiter,
    flows: Vec<ActiveFlow>,
    /// Flows that finished this step: granted without a word, or sent
    /// their last one.  Completion runs only when it is non-zero.
    finished: usize,
    /// The words the flows send this cycle.
    sends: Vec<Send>,
    /// The number of the contention pass that last claimed each link, by
    /// dense link id: a link is claimed in this pass exactly when it holds
    /// `contention_pass`.  Empty on a fabric without contention, whose
    /// links are never claimed.
    claimed: Vec<u64>,
    /// Contention passes run so far; 0 claims no link.
    contention_pass: u64,

    measuring: bool,
    words_delivered: u64,
    buffered_words: u64,
    buffers: Energy,
}

impl RouterNode {
    /// Creates a node that routes through `fabric`'s table and charges its
    /// energy model.
    #[must_use]
    pub fn new(fabric: Arc<PricedRoutes>) -> Self {
        Self::sharing(vec![fabric])
    }

    /// Creates a node whose one flow schedule charges every fabric of
    /// `fabrics`, each exactly as a node of its own would.
    ///
    /// # Panics
    ///
    /// Panics if `fabrics` is empty, if the fabrics differ in port count or
    /// bus width, or if a contendable fabric would share the node: its
    /// contention pass blocks flows, which the other fabrics would not.
    pub(crate) fn sharing(fabrics: Vec<Arc<PricedRoutes>>) -> Self {
        let first = fabrics.first().expect("a node charges at least one fabric");
        let routes = first.routes();
        let model = first.model();
        let ports = routes.ports();
        let bus_width_bits = model.bus_width_bits();
        assert!(
            fabrics.len() == 1 || fabrics.iter().all(|fabric| !fabric.routes().contendable()),
            "a contendable fabric blocks flows, so it cannot share a flow schedule"
        );
        assert!(
            fabrics.iter().all(|fabric| {
                fabric.routes().ports() == ports
                    && fabric.model().bus_width_bits() == bus_width_bits
            }),
            "the fabrics of a node must agree on ports and bus width"
        );
        let claimed = if routes.contendable() {
            vec![0; routes.link_count()]
        } else {
            Vec::new()
        };
        Self {
            word_mask: if bus_width_bits >= 64 {
                u64::MAX
            } else {
                (1_u64 << bus_width_bits) - 1
            },
            word_buffer_energy: model.buffer_bit_energy() * f64::from(bus_width_bits),
            input_queues: vec![VecDeque::new(); ports],
            input_busy: vec![false; ports],
            input_last_word: vec![0; ports],
            arbiter: Arbiter::new(ports),
            flows: Vec::with_capacity(ports),
            finished: 0,
            sends: Vec::with_capacity(ports),
            claimed,
            contention_pass: 0,
            fabrics: fabrics.into_iter().map(Fabric::new).collect(),
            measuring: false,
            words_delivered: 0,
            buffered_words: 0,
            buffers: Energy::ZERO,
        }
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
        self.buffers = Energy::ZERO;
        for fabric in &mut self.fabrics {
            fabric.switches = Energy::ZERO;
            fabric.wires = Energy::ZERO;
        }
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

    /// The switch/buffer/wire energy the first fabric was charged during
    /// the measurement window.
    #[must_use]
    pub fn energy(&self) -> EnergyAccount {
        self.fabric_energy(0)
    }

    /// The switch/buffer/wire energy fabric `fabric` (in the order the
    /// node was given them) was charged during the measurement window.
    pub(crate) fn fabric_energy(&self, fabric: usize) -> EnergyAccount {
        let fabric = &self.fabrics[fabric];
        EnergyAccount {
            switches: fabric.switches,
            buffers: self.buffers,
            wires: fabric.wires,
        }
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
    /// route table, so in steady state a step neither hashes nor allocates.
    /// A pass this cycle's events give no work is skipped (see the module
    /// docs).
    ///
    /// The caller owns the clock: `cycle` only seeds the rotating contention
    /// priority and is echoed nowhere else.
    pub fn step(&mut self, cycle: u64, completed: &mut Vec<Packet>) {
        // Without a pending output the pass would grant nothing.
        if self.arbiter.may_be_pending {
            self.arbitrate();
        }
        // Without a flow there is nothing to block, send, charge or
        // complete.
        if self.flows.is_empty() {
            return;
        }
        self.resolve_contention(cycle);
        if self.measuring {
            self.transmit::<true>();
        } else {
            self.transmit::<false>();
        }
        // Only a flow that finished this step is complete.
        if self.finished > 0 {
            self.complete_flows(completed);
        }
    }

    /// First-come-first-serve arbitration with a round-robin tie-break per
    /// egress port: destination contention is resolved here, before packets
    /// enter the fabric (paper §3.2).
    fn arbitrate(&mut self) {
        for &(input, output) in self.arbiter.arbitrate() {
            let packet = self.input_queues[input]
                .pop_front()
                .expect("a granted input has a head-of-line packet");
            let route = self.fabrics[0].priced.routes().route_index(input, output);
            // A packet without words completes at once and never occupies
            // its path.
            if packet.payload.is_empty() {
                self.finished += 1;
            } else {
                for fabric in &mut self.fabrics {
                    fabric.count_route(route, true);
                }
            }
            self.flows.push(ActiveFlow {
                packet,
                route,
                words_delivered: 0,
                last_word: self.input_last_word[input],
                blocked: false,
            });
            self.input_busy[input] = true;
        }
    }

    /// Detects interconnect contention (internal blocking) for fabrics whose
    /// paths can share links — only the Banyan in the paper's set, where
    /// every hop is contendable, and which is alone on its node.  Flows are
    /// examined in a rotating priority order, from flow `cycle % flows` to
    /// the last and then from the first; a flow that cannot claim every
    /// link of its path is blocked for this cycle and its incoming word is
    /// parked in a node buffer.  A flow whose blocked flag flips moves its
    /// hops out of or back into the element occupancy.  On other fabrics no
    /// flow is ever blocked.
    ///
    /// Each pass has a new number, and a claim stamps the link with it, so
    /// the last pass's claims lapse without being cleared.
    fn resolve_contention(&mut self, cycle: u64) {
        // Only a contendable node has claim stamps, so a contention-free
        // one returns before it reads its table.
        if self.claimed.is_empty() || self.flows.is_empty() {
            return;
        }
        let fabric = &mut self.fabrics[0];
        let table = fabric.priced.routes();
        debug_assert!(table.contendable());
        self.contention_pass += 1;
        let pass = self.contention_pass;
        let claimed = &mut self.claimed[..];
        let start = (cycle as usize) % self.flows.len();
        let (before, after) = self.flows.split_at_mut(start);
        for flow in after.iter_mut().chain(before) {
            if flow.is_complete() {
                continue;
            }
            let hops = table.hops(table.route(flow.route));
            let blocked = hops.iter().any(|hop| claimed[hop.link as usize] == pass);
            if !blocked {
                for hop in hops {
                    claimed[hop.link as usize] = pass;
                }
            }
            if blocked != flow.blocked {
                flow.blocked = blocked;
                fabric.occupancy.count(&fabric.priced, hops, !blocked);
            }
        }
    }

    /// Advances every flow by one word; while `MEASURING`, charges its
    /// energy to every fabric as it goes.
    fn transmit<const MEASURING: bool>(&mut self) {
        let word_mask = self.word_mask;
        let sends = &mut self.sends;
        let mut buffer_energy = Energy::ZERO;
        let mut buffered_words = 0;
        let mut words_delivered = 0;
        let mut finished = 0;
        sends.clear();
        for flow in &mut self.flows {
            if flow.is_complete() {
                continue;
            }
            if flow.blocked {
                // The word arriving at the contended node this cycle is
                // written into (and will later be read back from) the node
                // buffer: one `E_B_bit` per bit pays for both accesses, as
                // in Eq. 5.
                if MEASURING {
                    buffer_energy += self.word_buffer_energy;
                    buffered_words += 1;
                }
                continue;
            }

            let word = flow.packet.payload[flow.words_delivered] & word_mask;
            let previous = flow.last_word;
            sends.push(Send {
                route: flow.route,
                flips: if MEASURING {
                    polarity_flips(previous, word)
                } else {
                    0
                },
                previous,
                word,
            });
            flow.last_word = word;
            flow.words_delivered += 1;
            words_delivered += 1;
            if flow.is_complete() {
                finished += 1;
            }
        }

        self.finished += finished;
        for fabric in &mut self.fabrics {
            fabric.charge::<MEASURING>(sends);
        }
        if MEASURING {
            self.words_delivered += words_delivered;
            self.buffered_words += buffered_words;
            self.buffers += buffer_energy;
        }
    }

    /// Removes finished flows, releases their path's occupancy in every
    /// fabric, frees their input/output ports (the freed input's next
    /// head-of-line packet requests its output), and moves their packets
    /// into `completed` in completion order.
    fn complete_flows(&mut self, completed: &mut Vec<Packet>) {
        let finished = std::mem::take(&mut self.finished);
        let before = completed.len();
        for flow in self.flows.extract_if(.., |flow| flow.is_complete()) {
            // A flow finishes on a word it sent unblocked, so it still
            // occupies its path, unless it never had a word to send.
            if !flow.packet.payload.is_empty() {
                for fabric in &mut self.fabrics {
                    fabric.count_route(flow.route, false);
                }
            }
            let input = flow.packet.source;
            self.input_busy[input] = false;
            self.input_last_word[input] = flow.last_word;
            self.arbiter.release(flow.packet.destination);
            if let Some(head) = self.input_queues[input].front() {
                self.arbiter.request(input, head.destination);
            }
            completed.push(flow.packet);
        }
        debug_assert_eq!(
            completed.len() - before,
            finished,
            "every completed flow was counted as finished"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric_power_fabric::{Architecture, FabricEnergyModel};
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
                let recounted = recounted_sets(ports, requested, held.iter().copied());
                prop_assert!(
                    arbiter.may_be_pending || recounted[2].iter().all(|&w| w == 0),
                    "an output is pending but the flag is clear"
                );
                prop_assert_eq!(arbiter_sets(&arbiter), recounted);

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
                prop_assert!(!arbiter.may_be_pending, "the pass left the flag set");
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

    /// The price-row offset of each element a fabric's routes cross, by
    /// dense element id.
    fn element_rows(fabric: &Fabric) -> Vec<Option<usize>> {
        let table = fabric.priced.routes();
        let mut rows = vec![None; table.element_count()];
        for route in 0..table.ports() * table.ports() {
            for hop in table.hops(table.route(route as u32)) {
                rows[hop.element as usize] = Some(hop.row as usize);
            }
        }
        rows
    }

    /// A fabric's element occupancy and prices recounted from the node's
    /// flows, as a node between steps must hold them: every unblocked flow
    /// on every element it crosses, and each element priced from its row
    /// (`element_rows`) at that count.
    fn recounted_occupancy(
        node: &RouterNode,
        fabric: &Fabric,
        element_rows: &[Option<usize>],
    ) -> Occupancy {
        let table = fabric.priced.routes();
        let mut counts = vec![0; table.element_count()];
        for flow in node.flows.iter().filter(|flow| !flow.blocked) {
            for hop in table.hops(table.route(flow.route)) {
                counts[hop.element as usize] += 1;
            }
        }
        let (rows, _) = fabric.priced.price_rows();
        let idle = fabric.priced.idle_element_prices();
        let prices = (0..counts.len())
            .map(|element| {
                element_rows[element].map_or(idle[element], |row| {
                    rows[row + FLIP_COUNTS + counts[element]]
                })
            })
            .collect();
        Occupancy { counts, prices }
    }

    fn priced(architecture: Architecture, ports: usize) -> Arc<PricedRoutes> {
        let model = Arc::new(FabricEnergyModel::paper(ports).unwrap());
        Arc::new(PricedRoutes::new(architecture, model))
    }

    /// The contention-free architectures, which share one flow schedule.
    const SHARED: [Architecture; 3] = [
        Architecture::Crossbar,
        Architecture::FullyConnected,
        Architecture::BatcherBanyan,
    ];

    /// The arbiter's sets recounted from the node's queues and flows, after
    /// checking that the busy inputs are exactly those a flow holds.
    fn recounted_arbiter_sets(node: &RouterNode) -> [Vec<u64>; 3] {
        let mut input_busy = vec![false; node.input_queues.len()];
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
        recounted_sets(node.input_queues.len(), requested, held)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn router_core_conserves_packets_words_and_buffer_occupancy(
            architectures in prop_oneof![
                Just(&[Architecture::Crossbar][..]),
                Just(&[Architecture::FullyConnected][..]),
                Just(&[Architecture::Banyan][..]),
                Just(&[Architecture::BatcherBanyan][..]),
                Just(&SHARED[..]),
            ],
            ports in prop_oneof![Just(2_usize), Just(4), Just(8), Just(16), Just(32), Just(128)],
            seed in any::<u64>(),
        ) {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let fabrics = architectures.iter().map(|&architecture| priced(architecture, ports));
            let mut node = RouterNode::sharing(fabrics.collect());
            let contendable = architectures.contains(&Architecture::Banyan);
            let element_rows: Vec<_> = node.fabrics.iter().map(element_rows).collect();
            node.begin_measurement();

            // Per-case injection rate and schedule length, light to saturating.
            let inject_p = rng.gen::<f64>() * 0.5;
            let schedule_cycles = rng.gen_range(1..200_u64);
            let mut outstanding: Vec<Option<Vec<u64>>> = Vec::new();
            let mut completed = Vec::new();
            let mut completed_words = 0;
            let mut parked = 0;
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
                // Every flow blocked this step parked one word, and a
                // blocked flow sent none, so it is still in the fabric.
                parked += node.flows.iter().filter(|flow| flow.blocked).count() as u64;
                for (fabric, element_rows) in node.fabrics.iter().zip(&element_rows) {
                    prop_assert_eq!(
                        &fabric.occupancy,
                        &recounted_occupancy(&node, fabric, element_rows)
                    );
                }
                // The skipped passes left no work undone: no finished flow
                // stays, and a pending output is always flagged.
                prop_assert!(
                    !node.flows.iter().any(ActiveFlow::is_complete),
                    "a finished flow was left in the fabric"
                );
                let recounted = recounted_arbiter_sets(&node);
                prop_assert!(
                    node.arbiter.may_be_pending || recounted[2].iter().all(|&w| w == 0),
                    "an output is pending but the flag is clear"
                );
                prop_assert_eq!(arbiter_sets(&node.arbiter), recounted);
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
            prop_assert_eq!(parked, node.buffered_words());
            if !contendable {
                prop_assert_eq!(node.buffered_words(), 0);
                for fabric in 0..architectures.len() {
                    prop_assert!(node.fabric_energy(fabric).buffers.is_zero());
                }
            }
            for fabric in &node.fabrics {
                prop_assert!(
                    fabric.occupancy.counts.iter().all(|&occupants| occupants == 0),
                    "{architectures:?} {ports}x{ports}: element occupancy left after draining"
                );
            }
        }
    }

    #[test]
    #[should_panic(
        expected = "a contendable fabric blocks flows, so it cannot share a flow schedule"
    )]
    fn a_contendable_fabric_cannot_share_a_node() {
        let _ = RouterNode::sharing(vec![
            priced(Architecture::Crossbar, 8),
            priced(Architecture::Banyan, 8),
        ]);
    }

    /// The contention pass the claim stamps replaced: flows visited through
    /// a `%` rotation, every hop of a contendable table claimed, as `bool`s,
    /// and every unblocked flow's hops cleared again at the end of the pass.
    fn bool_and_clear_contention(
        fabric: &PricedRoutes,
        flows: &mut [ActiveFlow],
        occupancy: &mut Occupancy,
        claimed: &mut [bool],
        cycle: u64,
    ) {
        let table = fabric.routes();
        if flows.is_empty() || !table.contendable() {
            return;
        }
        let count = flows.len();
        let start = (cycle as usize) % count;
        for offset in 0..count {
            let flow = &mut flows[(start + offset) % count];
            if flow.is_complete() {
                continue;
            }
            let hops = table.hops(table.route(flow.route));
            let blocked = hops.iter().any(|hop| claimed[hop.link as usize]);
            if !blocked {
                for hop in hops {
                    claimed[hop.link as usize] = true;
                }
            }
            if blocked != flow.blocked {
                flow.blocked = blocked;
                occupancy.count(fabric, hops, !blocked);
            }
        }
        for flow in flows.iter().filter(|flow| !flow.blocked) {
            for hop in table.hops(table.route(flow.route)) {
                claimed[hop.link as usize] = false;
            }
        }
    }

    /// Each flow's contention outcome: its blocked flag.
    fn contention_outcome(flows: &[ActiveFlow]) -> Vec<bool> {
        flows.iter().map(|flow| flow.blocked).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn claim_stamps_match_the_bool_and_clear_pass(
            address_bits in 1_u32..=6,
            seed in any::<u64>(),
        ) {
            let ports = 1_usize << address_bits;
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let fabric = priced(Architecture::Banyan, ports);
            let mut node = RouterNode::new(Arc::clone(&fabric));
            let mut claimed = vec![false; fabric.routes().link_count()];

            // Per-case injection rate and schedule length, light to saturating.
            let inject_p = rng.gen::<f64>();
            let schedule_cycles = rng.gen_range(1..160_u64);
            let mut completed = Vec::new();
            let mut next_id = 0;
            let mut cycle = 0;
            while cycle < schedule_cycles || !drained(&node) {
                prop_assert!(cycle < 100_000, "the node never drained");
                if cycle < schedule_cycles {
                    for port in 0..ports {
                        if rng.gen_bool(inject_p) {
                            let words = rng.gen_range(1..=24_usize);
                            node.inject(
                                port,
                                Packet {
                                    id: next_id,
                                    source: port,
                                    destination: rng.gen_range(0..ports),
                                    payload: (0..words).map(|_| rng.gen()).collect(),
                                    arrival_cycle: cycle,
                                },
                            );
                            next_id += 1;
                        }
                    }
                }
                node.arbitrate();
                let mut flows = node.flows.clone();
                let mut occupancy = node.fabrics[0].occupancy.clone();
                bool_and_clear_contention(&fabric, &mut flows, &mut occupancy, &mut claimed, cycle);
                prop_assert!(!claimed.contains(&true), "a link left claimed after the pass");
                node.resolve_contention(cycle);
                prop_assert_eq!(contention_outcome(&node.flows), contention_outcome(&flows));
                prop_assert_eq!(&node.fabrics[0].occupancy, &occupancy);
                node.transmit::<true>();
                node.complete_flows(&mut completed);
                completed.clear();
                cycle += 1;
            }
        }
    }
}
