//! The compact, immutable route table a [`RouterNode`] steps against.
//!
//! A route table holds every `(input, output)` path of one fabric.  It
//! routes each pair with the paper's arithmetic (§4) and appends every hop
//! to flat arrays as it goes:
//!
//! * the crossbar crosses crosspoint `input · N + output`, whose row bus
//!   toggles all `N` crosspoints of the row (Eq. 3);
//! * the fully-connected fabric crosses the `N`-input MUX of the output,
//!   after the input's broadcast bus (Eq. 4);
//! * the Banyan self-routes through `log₂N` stages of 2×2 switches, each
//!   stage setting the next destination bit, most significant first
//!   (Eq. 5);
//! * the Batcher-Banyan crosses the `½·log₂N·(log₂N + 1)` stages of its
//!   bitonic sorter, then a Banyan (Eq. 6).
//!
//! Every wire length comes from the closed forms of [`wirelength`].  Each
//! hop is 12 bytes:
//!
//! * a dense element id, `stage · per-stage + index`, into a node's
//!   occupancy and element-price arrays;
//! * a dense link id into its flat array of last-word polarity state: ids
//!   `0..ports` are the ingress segments, and the link leaving element `e`
//!   on its output `p` is `ports + e · links-per-element + p`;
//! * the offset of its kind's price row, where a kind is one entry of a
//!   small deduplicated table of `HopData`, the route-independent part of a
//!   hop.
//!
//! So building a table hashes nothing.  Each route is a span of hops plus
//! its ingress wire length.  The ingress segment of a port carries only
//! that port's flows, so a node keeps its polarity per input, not per link.
//!
//! A [`PricedRoutes`] lowers the table at its energy model's port count, so
//! the two cannot disagree, and prices every hop kind once, in one row: its
//! wire energy for each possible count of flipped bits, then its switch
//! energy for each possible occupancy of its element.  Every hop through
//! one element has the same switch prices, so a node can keep each
//! element's price at its current occupancy in one array.  A mesh builds
//! one and [`Arc`]-shares it across all of its nodes, and a sweep builds
//! one per architecture and size and shares it across every lockstep
//! simulator that steps it.
//!
//! [`RouterNode`]: crate::node::RouterNode

use std::sync::Arc;

use fabric_power_fabric::energy_model::FabricEnergyModel;
use fabric_power_fabric::{wirelength, Architecture, SwitchClass};
use fabric_power_tech::units::Energy;

/// The route-independent part of a hop: everything that charges energy,
/// shared by every hop through the same kind of element at the same stage
/// distance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct HopData {
    /// Switch class (selects the bit-energy LUT).
    pub(crate) class: SwitchClass,
    /// Thompson grids of interconnect driven after leaving the element.
    pub(crate) wire_grids_after: u64,
    /// Node-switch inputs the bit's wire toggles (N on a crossbar row).
    pub(crate) charged_inputs: usize,
}

/// One hop of a lowered route.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Hop {
    /// Dense id of the link the packet leaves the element on.
    pub(crate) link: u32,
    /// Dense id of the element.
    pub(crate) element: u32,
    /// Offset of the hop kind's price row: the kind's index in the route
    /// table's hop-data table times the row length.
    pub(crate) row: u32,
}

/// One lowered `(input, output)` route.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Route {
    /// Thompson grids between the ingress port and the first element, as
    /// the factor the ingress wire term multiplies by.
    pub(crate) wire_grids_before: f64,
    /// The route's hops are `hops[start..end]` of the table.
    start: u32,
    end: u32,
}

/// Every `(input, output)` path of one fabric, lowered to dense ids.
#[derive(Debug, Clone)]
pub(crate) struct RouteTable {
    architecture: Architecture,
    ports: usize,
    element_count: usize,
    link_count: usize,
    /// `ports²` routes, row-major by input.
    routes: Vec<Route>,
    hops: Vec<Hop>,
    hop_data: Vec<HopData>,
    /// Entries per price row: `FLIP_COUNTS + ports + 1`.
    row_len: usize,
    /// Whether every hop can suffer interconnect contention and park a
    /// word in the node buffer (the Banyan's); no hop can otherwise.
    contendable: bool,
}

impl RouteTable {
    /// Routes every `(input, output)` pair of an `N × N` fabric, appending
    /// each hop to the table as it goes.
    ///
    /// # Panics
    ///
    /// Panics unless `ports` is a power of two ≥ 2, as every energy
    /// model's port count is.
    pub(crate) fn new(architecture: Architecture, ports: usize) -> Self {
        let n = ports;
        let banyan_stages = wirelength::banyan_stages(n) as usize;
        // Switches per stage, stages, and output links per switch: one for
        // a crosspoint or a MUX, two for a 2×2 element.
        let (per_stage, stages, links_per_element) = match architecture {
            Architecture::Crossbar => (n * n, 1, 1),
            Architecture::FullyConnected => (n, 1, 1),
            Architecture::Banyan => (n / 2, banyan_stages, 2),
            Architecture::BatcherBanyan => (
                n / 2,
                wirelength::batcher_sorting_stages(n) as usize + banyan_stages,
                2,
            ),
        };
        let element_count = per_stage * stages;
        let row_len = FLIP_COUNTS + n + 1;
        // Only the fully-connected fabric has an ingress run: its ingress
        // bus is one broadcast net spanning the whole double row of MUXes,
        // so every bit toggles all of its ½·N² grids, whichever output it
        // is bound for (Eq. 4).
        let wire_grids_before = match architecture {
            Architecture::FullyConnected => wirelength::fully_connected_bit_wire_grids(n) as f64,
            _ => 0.0,
        };
        let mut hops = Vec::with_capacity(n * n * stages);
        let mut hop_data: Vec<HopData> = Vec::new();
        // Appends the hop through element `index` of `stage` that leaves on
        // the element's output `port`.
        let mut push = |stage: usize, index: usize, port: usize, data: HopData| {
            let element = stage * per_stage + index;
            // A fabric has a handful of distinct hop kinds, so a linear
            // search beats hashing.
            let kind = hop_data.iter().position(|d| *d == data).unwrap_or_else(|| {
                hop_data.push(data);
                hop_data.len() - 1
            });
            hops.push(Hop {
                link: dense(n + element * links_per_element + port),
                element: dense(element),
                row: dense(kind * row_len),
            });
        };
        let one_input = |class, wire_grids_after| HopData {
            class,
            wire_grids_after,
            charged_inputs: 1,
        };
        let mut routes = Vec::with_capacity(n * n);
        for input in 0..n {
            for output in 0..n {
                match architecture {
                    Architecture::Crossbar => push(
                        0,
                        input * n + output,
                        0,
                        HopData {
                            class: SwitchClass::CrossbarCrosspoint,
                            // Full row plus full column interconnect (Eq. 3).
                            wire_grids_after: wirelength::crossbar_bit_wire_grids(n),
                            // The row bus toggles the inputs of all N
                            // crosspoints.
                            charged_inputs: n,
                        },
                    ),
                    Architecture::FullyConnected => {
                        push(0, output, 0, one_input(SwitchClass::Mux { inputs: n }, 0));
                    }
                    Architecture::Banyan | Architecture::BatcherBanyan => {
                        // The Batcher-Banyan's bitonic sorter: merge phase j
                        // (j = 0..n-1) has sub-stages i = 0..=j whose
                        // interconnects span 4·2^i grids (Eq. 6).  The
                        // packet keeps its input row through the sorter and
                        // enters the Banyan unsorted.  That is a modelling
                        // choice, not what a sorter does: it sets which
                        // flows share an element, and so the switch price,
                        // and lets two flows share a Banyan link (ROADMAP
                        // item 22).
                        let phases = match architecture {
                            Architecture::BatcherBanyan => banyan_stages,
                            _ => 0,
                        };
                        let mut stage = 0;
                        for phase in 0..phases {
                            for sub in 0..=phase {
                                let grids = wirelength::banyan_stage_wire_grids(sub as u32);
                                let data = one_input(SwitchClass::BatcherSorting, grids);
                                push(stage, input / 2, input & 1, data);
                                stage += 1;
                            }
                        }
                        // Self-routing butterfly: the stage that sets
                        // destination bit `bit` exchanges the packet to the
                        // half of the network that bit selects.
                        let mut row = input;
                        for bit in (0..banyan_stages).rev() {
                            let destination_bit = (output >> bit) & 1;
                            // The 2x2 switch groups the two rows differing
                            // only in `bit`.
                            let index = ((row >> (bit + 1)) << bit) | (row & ((1 << bit) - 1));
                            row = (row & !(1 << bit)) | (destination_bit << bit);
                            // The stage drives the interconnect that
                            // exchanges bit `bit`: the longest wires come
                            // first, 4·2^bit grids (Eq. 5).
                            let grids = wirelength::banyan_stage_wire_grids(bit as u32);
                            let data = one_input(SwitchClass::BanyanBinary, grids);
                            push(stage, index, destination_bit, data);
                            stage += 1;
                        }
                        debug_assert_eq!(
                            row, output,
                            "butterfly self-routing must reach the destination"
                        );
                    }
                }
                // Every route crosses each stage once.
                let start = dense(routes.len() * stages);
                routes.push(Route {
                    wire_grids_before,
                    start,
                    end: start + dense(stages),
                });
            }
        }
        Self {
            architecture,
            ports,
            element_count,
            link_count: n + element_count * links_per_element,
            routes,
            hops,
            hop_data,
            row_len,
            contendable: architecture == Architecture::Banyan,
        }
    }

    /// The architecture whose paths the table lowers.
    pub(crate) fn architecture(&self) -> Architecture {
        self.architecture
    }

    /// Number of ingress/egress ports.
    pub(crate) fn ports(&self) -> usize {
        self.ports
    }

    /// Size of the dense element-id space.
    pub(crate) fn element_count(&self) -> usize {
        self.element_count
    }

    /// Size of the dense link-id space.
    pub(crate) fn link_count(&self) -> usize {
        self.link_count
    }

    /// Whether routes can suffer interconnect contention, on every hop.
    pub(crate) fn contendable(&self) -> bool {
        self.contendable
    }

    /// The index of the route from `input` to `output`, the same in every
    /// table with this port count.
    pub(crate) fn route_index(&self, input: usize, output: usize) -> u32 {
        dense(input * self.ports + output)
    }

    /// The route with the given [`route_index`](Self::route_index).
    pub(crate) fn route(&self, index: u32) -> &Route {
        &self.routes[index as usize]
    }

    /// The hops of a route, in path order.
    pub(crate) fn hops(&self, route: &Route) -> &[Hop] {
        &self.hops[route.start as usize..route.end as usize]
    }
}

fn dense(id: usize) -> u32 {
    u32::try_from(id).expect("dense ids fit in 32 bits")
}

/// Polarity flips one `u64` word can show against the previous one: 0..=64.
/// A price row's switch energies start at this index.
pub(crate) const FLIP_COUNTS: usize = u64::BITS as usize + 1;

/// One fabric's route table with every hop kind priced under one energy
/// model.
///
/// Each hop kind has one price row: the wire energy of the hop's outgoing
/// link for each flipped-bit count `0..=64`, then one packet's share of the
/// element's switch energy for each occupancy `0..=ports`.  A transmitted
/// word reads each hop's wire energy from its row and its switch energy
/// from the node's element prices, which the node rewrites from the row
/// whenever an element's occupancy changes.  Each entry is the product the
/// per-hop formula would compute, in the same operand order, so the sums a
/// node accumulates are bit-identical to charging the model directly.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use fabric_power_fabric::{Architecture, FabricEnergyModel};
/// use fabric_power_router::{PricedRoutes, RouterNode};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let model = Arc::new(FabricEnergyModel::paper(8)?);
/// // One priced table, shared by every node of a mesh.
/// let priced = Arc::new(PricedRoutes::new(Architecture::Banyan, model));
/// let nodes: Vec<RouterNode> = (0..4)
///     .map(|_| RouterNode::new(Arc::clone(&priced)))
///     .collect();
/// assert_eq!(nodes[3].input_queue_len(7), 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct PricedRoutes {
    routes: RouteTable,
    model: Arc<FabricEnergyModel>,
    /// One row of `row_len` entries per hop kind: the wire energy of the
    /// link after the element by flipped-bit count (`row[flips]`), then one
    /// packet's share of the element's switch energy by occupancy
    /// (`row[FLIP_COUNTS + occupants]`).
    prices: Vec<Energy>,
    /// `FLIP_COUNTS + ports + 1`.
    row_len: usize,
    /// Each element's switch price at occupancy 0, by dense element id.
    idle_element_prices: Vec<Energy>,
}

impl PricedRoutes {
    /// Lowers the route table of `architecture` at `model`'s port count and
    /// prices every hop kind under `model`.
    ///
    /// # Panics
    ///
    /// Panics unless the model's port count is a power of two ≥ 2.  Every
    /// model constructor and the model provider's store reject any other.
    #[must_use]
    pub fn new(architecture: Architecture, model: Arc<FabricEnergyModel>) -> Self {
        let ports = model.ports();
        let routes = RouteTable::new(architecture, ports);
        let grid = model.grid_bit_energy();
        let bus_width = f64::from(model.bus_width_bits());
        let row_len = routes.row_len;
        let mut prices = Vec::with_capacity(routes.hop_data.len() * row_len);
        for data in &routes.hop_data {
            prices.extend(
                (0..FLIP_COUNTS).map(|flips| grid * (flips as f64 * data.wire_grids_after as f64)),
            );
            if data.charged_inputs > 1 {
                // Crossbar row: the bit toggles the inputs of all N
                // crosspoints (Eq. 3's N·E_S term), whatever the occupancy.
                let row = model.switch_bit_energy(data.class, 1)
                    * (bus_width * data.charged_inputs as f64);
                prices.extend(std::iter::repeat_n(row, ports + 1));
            } else {
                // The LUT value is the whole switch's per-bit-slot energy
                // under that occupancy; split evenly between the packets
                // sharing the switch so it is charged exactly once.
                prices.extend((0..=ports).map(|occupants| {
                    let occupants = occupants.max(1);
                    model.switch_bit_energy(data.class, occupants) * (bus_width / occupants as f64)
                }));
            }
        }
        let mut idle_element_prices = vec![Energy::ZERO; routes.element_count()];
        for hop in &routes.hops {
            idle_element_prices[hop.element as usize] = prices[hop.row as usize + FLIP_COUNTS];
        }
        Self {
            routes,
            model,
            prices,
            row_len,
            idle_element_prices,
        }
    }

    /// The route table.
    pub(crate) fn routes(&self) -> &RouteTable {
        &self.routes
    }

    /// The energy model the hops are priced under.
    pub(crate) fn model(&self) -> &FabricEnergyModel {
        &self.model
    }

    /// Every hop kind's price row, back to back, and the row length: a
    /// hop's row is `prices[hop.row..][..row_len]`.
    pub(crate) fn price_rows(&self) -> (&[Energy], usize) {
        (&self.prices, self.row_len)
    }

    /// Each element's switch price at occupancy 0, by dense element id: the
    /// element prices of an idle node.
    pub(crate) fn idle_element_prices(&self) -> &[Energy] {
        &self.idle_element_prices
    }
}

#[cfg(test)]
impl RouteTable {
    /// The route-independent data of a hop.
    pub(crate) fn data(&self, hop: &Hop) -> &HopData {
        &self.hop_data[hop.row as usize / self.row_len]
    }
}

#[cfg(test)]
mod tests {
    use std::collections::{HashMap, HashSet};

    use fabric_power_fabric::analytic;
    use fabric_power_tech::constants::PAPER_PORT_COUNTS;
    use proptest::prelude::*;

    use super::*;

    /// The hops of the route from `input` to `output`.
    fn path(table: &RouteTable, input: usize, output: usize) -> &[Hop] {
        table.hops(table.route(table.route_index(input, output)))
    }

    /// Interconnect length of a whole route in Thompson grids.
    fn total_wire_grids(table: &RouteTable, input: usize, output: usize) -> u64 {
        let route = table.route(table.route_index(input, output));
        route.wire_grids_before as u64
            + table
                .hops(route)
                .iter()
                .map(|hop| table.data(hop).wire_grids_after)
                .sum::<u64>()
    }

    /// The output a hop leaves its element on, read back from its link id.
    fn output_port(table: &RouteTable, hop: &Hop) -> usize {
        let links_per_element = (table.link_count() - table.ports()) / table.element_count();
        let local = hop.link as usize - table.ports();
        assert_eq!(local / links_per_element, hop.element as usize);
        local % links_per_element
    }

    /// Eq. 3–6's wire term: the grids one bit drives across the fabric.
    fn equation_grids(architecture: Architecture, ports: usize) -> u64 {
        match architecture {
            Architecture::Crossbar => wirelength::crossbar_bit_wire_grids(ports),
            Architecture::FullyConnected => wirelength::fully_connected_bit_wire_grids(ports),
            Architecture::Banyan => wirelength::banyan_bit_wire_grids(ports),
            Architecture::BatcherBanyan => wirelength::batcher_banyan_bit_wire_grids(ports),
        }
    }

    #[test]
    fn table_reproduces_every_topology_route() {
        for architecture in Architecture::ALL {
            for ports in [2, 8, 32] {
                let table = RouteTable::new(architecture, ports);
                let sorting = match architecture {
                    Architecture::BatcherBanyan => {
                        wirelength::batcher_sorting_stages(ports) as usize
                    }
                    _ => 0,
                };
                // Every route crosses every stage once.
                let stages = match architecture {
                    Architecture::Crossbar | Architecture::FullyConnected => 1,
                    Architecture::Banyan | Architecture::BatcherBanyan => {
                        sorting + wirelength::banyan_stages(ports) as usize
                    }
                };
                for input in 0..ports {
                    for output in 0..ports {
                        assert_eq!(
                            total_wire_grids(&table, input, output),
                            equation_grids(architecture, ports),
                            "{architecture} {input} -> {output}"
                        );
                        let route = table.route(table.route_index(input, output));
                        let ingress = architecture == Architecture::FullyConnected;
                        assert_eq!(route.wire_grids_before > 0.0, ingress);
                        let hops = table.hops(route);
                        assert_eq!(hops.len(), stages);
                        for (stage, hop) in hops.iter().enumerate() {
                            let data = table.data(hop);
                            let class = match architecture {
                                Architecture::Crossbar => SwitchClass::CrossbarCrosspoint,
                                Architecture::FullyConnected => SwitchClass::Mux { inputs: ports },
                                Architecture::BatcherBanyan if stage < sorting => {
                                    SwitchClass::BatcherSorting
                                }
                                Architecture::Banyan | Architecture::BatcherBanyan => {
                                    SwitchClass::BanyanBinary
                                }
                            };
                            assert_eq!(data.class, class);
                            let crossbar = architecture == Architecture::Crossbar;
                            assert_eq!(data.charged_inputs, if crossbar { ports } else { 1 });
                        }
                    }
                }
                // Deduplication leaves at most one hop kind per stage.
                assert!(table.hop_data.len() <= stages);
                // Contention claims every hop of a route, so a Banyan hop is
                // always contendable and no other fabric's ever is.
                assert_eq!(table.contendable(), architecture == Architecture::Banyan);
                assert_eq!(table.architecture(), architecture);
            }
        }
    }

    #[test]
    fn priced_hops_equal_the_per_hop_formulas() {
        for architecture in Architecture::ALL {
            for ports in [2, 8, 32] {
                let model = Arc::new(FabricEnergyModel::paper(ports).unwrap());
                let priced = PricedRoutes::new(architecture, model);
                let (table, model) = (priced.routes(), priced.model());
                let bus_width = f64::from(model.bus_width_bits());
                let (prices, row_len) = priced.price_rows();
                assert_eq!(row_len, FLIP_COUNTS + ports + 1);
                assert_eq!(prices.len(), table.hop_data.len() * row_len);
                // A hop's row offset selects its kind's row.
                for hop in &table.hops {
                    assert_eq!(hop.row as usize % row_len, 0);
                    assert!((hop.row as usize) < prices.len());
                }
                for (row, data) in prices.chunks_exact(row_len).zip(&table.hop_data) {
                    let (wire, switch) = row.split_at(FLIP_COUNTS);
                    for (flips, &priced) in (0..=64_u32).zip(wire) {
                        let expected = model.grid_bit_energy()
                            * (f64::from(flips) * data.wire_grids_after as f64);
                        assert_eq!(priced, expected);
                    }
                    assert_eq!(switch.len(), ports + 1);
                    for (occupancy, &priced) in switch.iter().enumerate() {
                        let expected = if data.charged_inputs > 1 {
                            model.switch_bit_energy(data.class, 1)
                                * (bus_width * data.charged_inputs as f64)
                        } else {
                            let occupants = occupancy.max(1);
                            model.switch_bit_energy(data.class, occupants)
                                * (bus_width / occupants as f64)
                        };
                        assert_eq!(priced, expected);
                    }
                }
            }
        }
    }

    #[test]
    fn every_hop_through_an_element_has_its_switch_prices() {
        for architecture in Architecture::ALL {
            for ports in [2, 8, 32] {
                let model = Arc::new(FabricEnergyModel::paper(ports).unwrap());
                let priced = PricedRoutes::new(architecture, model);
                let (prices, row_len) = priced.price_rows();
                let table = priced.routes();
                let idle = priced.idle_element_prices();
                assert_eq!(idle.len(), table.element_count());
                for hop in &table.hops {
                    let switch = &prices[hop.row as usize + FLIP_COUNTS..][..ports + 1];
                    // Any hop through the element prices it as the idle
                    // price's row does, at every occupancy.
                    let first = table
                        .hops
                        .iter()
                        .find(|other| other.element == hop.element)
                        .unwrap();
                    assert_eq!(
                        switch,
                        &prices[first.row as usize + FLIP_COUNTS..first.row as usize + row_len]
                    );
                    assert_eq!(idle[hop.element as usize], switch[0]);
                }
            }
        }
    }

    /// Counts the permutations `input -> output` whose routes claim pairwise
    /// distinct links, the links contention resolution claims: the
    /// permutations that cross the fabric without an internal conflict.
    /// Each input in turn takes every free output whose route claims no
    /// link an earlier input's route claimed.
    fn conflict_free_permutations(
        table: &RouteTable,
        input: usize,
        outputs_taken: &mut [bool],
        claimed: &mut [bool],
    ) -> u64 {
        if input == table.ports() {
            return 1;
        }
        let mut count = 0;
        for output in 0..table.ports() {
            let hops = path(table, input, output);
            if outputs_taken[output] || hops.iter().any(|hop| claimed[hop.link as usize]) {
                continue;
            }
            outputs_taken[output] = true;
            for hop in hops {
                claimed[hop.link as usize] = true;
            }
            count += conflict_free_permutations(table, input + 1, outputs_taken, claimed);
            outputs_taken[output] = false;
            for hop in hops {
                claimed[hop.link as usize] = false;
            }
        }
        count
    }

    #[test]
    fn a_banyan_passes_one_permutation_per_switch_setting() {
        // A Banyan of 2x2 switches has one path per (input, output) pair and
        // (N/2)·log₂N switches of two states each, and distinct settings
        // route distinct permutations: exactly 2^((N/2)·log₂N) of the N!
        // permutations cross it without an internal conflict.
        for (ports, expected) in [(2, 2), (4, 16), (8, 4_096)] {
            let table = RouteTable::new(Architecture::Banyan, ports);
            let switches = ports / 2 * ports.ilog2() as usize;
            assert_eq!(expected, 1_u64 << switches);
            let count = conflict_free_permutations(
                &table,
                0,
                &mut vec![false; ports],
                &mut vec![false; table.link_count()],
            );
            assert_eq!(count, expected, "{ports}x{ports}");
        }
    }

    #[test]
    fn hops_are_twelve_bytes() {
        assert_eq!(std::mem::size_of::<Hop>(), 12);
    }

    #[test]
    fn invalid_port_counts_are_rejected() {
        let lowered = std::panic::catch_unwind(|| RouteTable::new(Architecture::Crossbar, 6));
        assert!(lowered.is_err());
    }

    #[test]
    fn every_fabric_refuses_the_port_counts_no_model_has() {
        // A table is lowered at its energy model's port count, and no
        // model has one that is not a power of two of at least 2.
        for ports in [0, 3, 6] {
            let error = FabricEnergyModel::paper(ports).unwrap_err();
            assert!(error.to_string().contains(&ports.to_string()), "{error}");
            for architecture in Architecture::ALL {
                let lowered = std::panic::catch_unwind(|| RouteTable::new(architecture, ports));
                assert!(lowered.is_err(), "{architecture:?} {ports}");
            }
        }
        for architecture in Architecture::ALL {
            assert_eq!(RouteTable::new(architecture, 16).ports(), 16);
        }
    }

    #[test]
    fn crossbar_path_matches_eq3_structure() {
        let table = RouteTable::new(Architecture::Crossbar, 8);
        let hops = path(&table, 2, 5);
        assert_eq!(hops.len(), 1);
        assert_eq!(hops[0].element, 2 * 8 + 5);
        assert_eq!(table.data(&hops[0]).charged_inputs, 8);
        assert_eq!(total_wire_grids(&table, 2, 5), 64); // 8N
        assert!(!table.contendable());
        assert_eq!(table.element_count(), 64);
    }

    #[test]
    fn fully_connected_path_matches_eq4_structure() {
        let table = RouteTable::new(Architecture::FullyConnected, 16);
        let hops = path(&table, 7, 11);
        assert_eq!(hops.len(), 1);
        assert_eq!(table.data(&hops[0]).class, SwitchClass::Mux { inputs: 16 });
        assert_eq!(total_wire_grids(&table, 7, 11), 128); // ½·N² broadcast bus
                                                          // The wire cost is destination-independent: the ingress bus is one
                                                          // net.
        assert_eq!(total_wire_grids(&table, 7, 15), 128);
        assert_eq!(table.element_count(), 16);
    }

    #[test]
    fn banyan_self_routing_reaches_every_destination() {
        let table = RouteTable::new(Architecture::Banyan, 16);
        assert!(table.contendable());
        for input in 0..16 {
            for output in 0..16 {
                let hops = path(&table, input, output);
                assert_eq!(hops.len(), 4);
                assert_eq!(
                    total_wire_grids(&table, input, output),
                    wirelength::banyan_bit_wire_grids(16)
                );
                // Each hop crosses one of its stage's 8 switches.
                for (stage, hop) in hops.iter().enumerate() {
                    assert_eq!(hop.element as usize / 8, stage);
                    assert!(output_port(&table, hop) < 2);
                }
                // The last stage's switch `k` drives outputs 2k and 2k + 1.
                let last = hops.last().unwrap();
                let index = last.element as usize % 8;
                assert_eq!(2 * index + output_port(&table, last), output);
            }
        }
    }

    #[test]
    fn banyan_distinct_destinations_use_distinct_final_links() {
        // The final-stage link uniquely identifies the egress port, so two
        // packets to different outputs can never collide there.
        let table = RouteTable::new(Architecture::Banyan, 8);
        let final_links: HashSet<u32> = (0..8)
            .map(|output| path(&table, 0, output).last().unwrap().link)
            .collect();
        assert_eq!(final_links.len(), 8);
    }

    #[test]
    fn banyan_shared_links_exist_for_some_traffic_patterns() {
        // Internal blocking: distinct (input, output) pairs with distinct
        // inputs and outputs can still share an intermediate link.
        let table = RouteTable::new(Architecture::Banyan, 8);
        let pairs = || (0..8).flat_map(|input| (0..8).map(move |output| (input, output)));
        let collision = pairs().any(|(a, x)| {
            pairs().any(|(b, y)| a != b && x != y && path(&table, a, x)[0] == path(&table, b, y)[0])
        });
        assert!(collision, "a Banyan must exhibit internal blocking");
    }

    #[test]
    fn batcher_banyan_has_the_extra_sorting_stages() {
        let table = RouteTable::new(Architecture::BatcherBanyan, 16);
        let hops = path(&table, 3, 9);
        // ½·n·(n+1) sorting stages + n banyan stages, n = 4.
        assert_eq!(hops.len(), 10 + 4);
        assert!(!table.contendable());
        assert_eq!(
            total_wire_grids(&table, 3, 9),
            wirelength::batcher_banyan_bit_wire_grids(16)
        );
        let sorting_hops = hops
            .iter()
            .filter(|hop| table.data(hop).class == SwitchClass::BatcherSorting)
            .count();
        assert_eq!(sorting_hops, 10);
    }

    #[test]
    fn element_counts_match_the_paper_formulas() {
        assert_eq!(
            RouteTable::new(Architecture::Banyan, 32).element_count(),
            80
        );
        assert_eq!(
            RouteTable::new(Architecture::BatcherBanyan, 32).element_count(),
            15 * 16 + 80
        );
        assert_eq!(
            RouteTable::new(Architecture::FullyConnected, 32).element_count(),
            32
        );
    }

    #[test]
    fn dense_ids_are_a_bijection_onto_their_ranges() {
        for architecture in Architecture::ALL {
            for ports in [2, 4, 16, 32] {
                let table = RouteTable::new(architecture, ports);
                let mut elements = HashSet::new();
                // Each link leaves exactly one element.
                let mut links = HashMap::new();
                for hop in &table.hops {
                    assert!(
                        (hop.element as usize) < table.element_count(),
                        "{architecture}"
                    );
                    elements.insert(hop.element);
                    let link = hop.link as usize;
                    assert!((ports..table.link_count()).contains(&link));
                    assert_eq!(*links.entry(link).or_insert(hop.element), hop.element);
                    output_port(&table, hop);
                }
                // The routes use every id, so the arrays have no holes.
                assert_eq!(elements.len(), table.element_count(), "{architecture}");
                assert_eq!(links.len(), table.link_count() - ports, "{architecture}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_range_port_panics() {
        let table = RouteTable::new(Architecture::Crossbar, 4);
        let _ = table.route(table.route_index(4, 0));
    }

    #[test]
    fn wire_lengths_order_banyan_below_crossbar() {
        for ports in [4, 8, 16, 32] {
            let banyan = RouteTable::new(Architecture::Banyan, ports);
            let crossbar = RouteTable::new(Architecture::Crossbar, ports);
            assert!(
                total_wire_grids(&banyan, 0, ports - 1) < total_wire_grids(&crossbar, 0, ports - 1)
            );
        }
    }

    #[test]
    fn only_banyan_has_interconnect_contention() {
        for architecture in Architecture::ALL {
            assert_eq!(
                RouteTable::new(architecture, 8).contendable(),
                architecture == Architecture::Banyan,
                "{architecture}"
            );
        }
    }

    #[test]
    fn analytic_equations_agree_with_topology_path_structure() {
        // The closed-form equations and the routed paths must describe the
        // same fabric: same wire grids, same switch-hop counts.
        for ports in PAPER_PORT_COUNTS {
            let model = FabricEnergyModel::paper(ports).unwrap();

            let crossbar = RouteTable::new(Architecture::Crossbar, ports);
            let hop = path(&crossbar, 0, ports - 1)[0];
            let wire_energy = model.wire_bit_energy(total_wire_grids(&crossbar, 0, ports - 1));
            let switch_energy = model.switch_bit_energy(SwitchClass::CrossbarCrosspoint, 1)
                * crossbar.data(&hop).charged_inputs as f64;
            let reconstructed = wire_energy + switch_energy;
            let analytic_value = analytic::crossbar_bit_energy(&model);
            assert!(
                (reconstructed.as_joules() - analytic_value.as_joules()).abs()
                    < 1e-6 * analytic_value.as_joules(),
                "crossbar N={ports}: path-based {reconstructed} vs Eq.3 {analytic_value}"
            );

            let banyan = RouteTable::new(Architecture::Banyan, ports);
            assert_eq!(
                total_wire_grids(&banyan, 0, ports - 1),
                wirelength::banyan_bit_wire_grids(ports)
            );
            assert_eq!(
                path(&banyan, 0, ports - 1).len() as u32,
                wirelength::banyan_stages(ports)
            );
        }
    }

    /// Strategy: one of the paper's power-of-two port counts.
    fn port_counts() -> impl Strategy<Value = usize> {
        prop_oneof![
            Just(2_usize),
            Just(4),
            Just(8),
            Just(16),
            Just(32),
            Just(64)
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn banyan_routes_always_have_log2_hops_and_in_range_elements(
            ports in port_counts(),
            input_seed in any::<usize>(),
            output_seed in any::<usize>(),
        ) {
            let input = input_seed % ports;
            let output = output_seed % ports;
            let table = RouteTable::new(Architecture::Banyan, ports);
            let hops = path(&table, input, output);
            prop_assert_eq!(hops.len() as u32, wirelength::banyan_stages(ports));
            prop_assert_eq!(
                total_wire_grids(&table, input, output),
                wirelength::banyan_bit_wire_grids(ports)
            );
            // Stage s holds elements s·N/2 .. (s+1)·N/2.
            for (stage, hop) in hops.iter().enumerate() {
                prop_assert_eq!(hop.element as usize / (ports / 2), stage);
                prop_assert!(output_port(&table, hop) < 2);
            }
        }

        #[test]
        fn banyan_final_links_identify_destinations(
            ports in port_counts(),
            input_a in any::<usize>(),
            input_b in any::<usize>(),
            output_a in any::<usize>(),
            output_b in any::<usize>(),
        ) {
            let table = RouteTable::new(Architecture::Banyan, ports);
            let last_a = *path(&table, input_a % ports, output_a % ports).last().unwrap();
            let last_b = *path(&table, input_b % ports, output_b % ports).last().unwrap();
            // Two packets to different outputs never share the final link;
            // two packets to the same output always share it.
            prop_assert_eq!(last_a.link == last_b.link, output_a % ports == output_b % ports);
        }

        #[test]
        fn crossbar_fully_connected_and_batcher_paths_match_their_closed_forms(
            ports in port_counts(),
            input in any::<usize>(),
            output in any::<usize>(),
        ) {
            let input = input % ports;
            let output = output % ports;
            let crossbar = RouteTable::new(Architecture::Crossbar, ports);
            prop_assert_eq!(
                total_wire_grids(&crossbar, input, output),
                wirelength::crossbar_bit_wire_grids(ports)
            );
            // Every bit toggles the whole broadcast ingress bus (Eq. 4),
            // whichever output it is bound for, and passes one MUX.
            let fully = RouteTable::new(Architecture::FullyConnected, ports);
            prop_assert_eq!(
                total_wire_grids(&fully, input, output),
                wirelength::fully_connected_bit_wire_grids(ports)
            );
            prop_assert_eq!(path(&fully, input, output).len(), 1);
            let batcher = RouteTable::new(Architecture::BatcherBanyan, ports);
            prop_assert_eq!(
                total_wire_grids(&batcher, input, output),
                wirelength::batcher_banyan_bit_wire_grids(ports)
            );
            prop_assert_eq!(
                path(&batcher, input, output).len() as u64,
                wirelength::batcher_sorting_stages(ports) + u64::from(wirelength::banyan_stages(ports))
            );
        }
    }
}
