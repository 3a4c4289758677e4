//! The compact, immutable route table a [`RouterNode`] steps against.
//!
//! [`FabricTopology::route`] describes one path as a heap-allocated
//! [`RoutePath`](fabric_power_fabric::RoutePath) of full
//! [`PathHop`](fabric_power_fabric::PathHop)s.  A [`RouteTable`] lowers the
//! path of every `(input, output)` pair once, at construction, into flat
//! arrays:
//!
//! * each hop is 12 bytes: a dense link id (into a node's flat array of
//!   last-word polarity state), a dense element id (into its occupancy and
//!   element-price arrays), and the offset of its kind's price row, where a
//!   kind is one entry of a small deduplicated table of `HopData`, the
//!   route-independent part of a hop;
//! * each route is a span of hops plus its ingress wire length.  The
//!   ingress segment of a port carries only that port's flows, so a node
//!   keeps its polarity per input, not per link.
//!
//! The dense ids come from the topology's arithmetic scheme
//! ([`FabricTopology::element_slot`], [`FabricTopology::hop_link`]), so
//! building the table hashes nothing.
//!
//! A [`PricedRoutes`] pairs the table with one energy model and prices
//! every hop kind once, in one row: its wire energy for each possible count
//! of flipped bits, then its switch energy for each possible occupancy of
//! its element.  Every hop through one element has the same switch prices,
//! so a node can keep each element's price at its current occupancy in one
//! array.  A mesh builds one and [`Arc`]-shares it across all of its nodes,
//! and a sweep builds one per architecture and size and shares it across
//! every lockstep simulator that steps it.
//!
//! [`RouterNode`]: crate::node::RouterNode

use std::sync::Arc;

use fabric_power_fabric::energy_model::FabricEnergyModel;
use fabric_power_fabric::topology::{FabricTopology, TopologyError};
use fabric_power_fabric::{Architecture, SwitchClass};
use fabric_power_tech::units::Energy;

use crate::sim::SimulationError;

/// The route-independent part of a hop: everything that charges energy
/// or decides contention, shared by every hop through the same kind of
/// element at the same stage distance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct HopData {
    /// Switch class (selects the bit-energy LUT).
    pub(crate) class: SwitchClass,
    /// Thompson grids of interconnect driven after leaving the element.
    pub(crate) wire_grids_after: u64,
    /// Node-switch inputs the bit's wire toggles (N on a crossbar row).
    pub(crate) charged_inputs: usize,
    /// Whether losing the outgoing link here parks the word in the node
    /// buffer.  Either every hop of a table is contendable (the Banyan) or
    /// none is.
    pub(crate) contendable: bool,
}

/// One hop of a lowered route.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Hop {
    /// Dense id of the link the packet leaves the element on.
    pub(crate) link: u32,
    /// Dense id of the element.
    pub(crate) element: u32,
    /// Offset of the hop kind's price row: the kind's index in
    /// [`RouteTable`]'s hop-data table times the row length.
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
///
/// # Examples
///
/// ```
/// use fabric_power_fabric::Architecture;
/// use fabric_power_router::RouteTable;
///
/// let table = RouteTable::new(Architecture::Banyan, 8)?;
/// assert_eq!(table.architecture(), Architecture::Banyan);
/// assert_eq!(table.ports(), 8);
/// # Ok::<(), fabric_power_fabric::TopologyError>(())
/// ```
#[derive(Debug, Clone)]
pub struct RouteTable {
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
    /// Whether every hop can suffer interconnect contention (no hop can
    /// otherwise).
    contendable: bool,
}

impl RouteTable {
    /// Lowers every route of an `N × N` fabric.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::InvalidPortCount`] unless `ports` is a
    /// power of two ≥ 2.
    ///
    /// # Panics
    ///
    /// If the topology mixes contendable and uncontendable hops: contention
    /// resolution claims every hop of a route, so a fabric's hops are either
    /// all contendable or none.
    pub fn new(architecture: Architecture, ports: usize) -> Result<Self, TopologyError> {
        let topology = FabricTopology::new(architecture, ports)?;
        let row_len = FLIP_COUNTS + ports + 1;
        let mut routes = Vec::with_capacity(ports * ports);
        let mut hops = Vec::new();
        let mut hop_data: Vec<HopData> = Vec::new();
        for input in 0..ports {
            for output in 0..ports {
                let path = topology.route(input, output);
                let start = dense(hops.len());
                for hop in &path.hops {
                    let data = HopData {
                        class: hop.class,
                        wire_grids_after: hop.wire_grids_after,
                        charged_inputs: hop.charged_inputs,
                        contendable: hop.buffered_on_contention,
                    };
                    // A fabric has a handful of distinct hop kinds, so a
                    // linear search beats hashing.
                    let index = hop_data.iter().position(|d| *d == data).unwrap_or_else(|| {
                        hop_data.push(data);
                        hop_data.len() - 1
                    });
                    hops.push(Hop {
                        link: dense(topology.hop_link(hop.element, hop.output_port)),
                        element: dense(topology.element_slot(hop.element)),
                        row: dense(index * row_len),
                    });
                }
                routes.push(Route {
                    wire_grids_before: path.wire_grids_before as f64,
                    start,
                    end: dense(hops.len()),
                });
            }
        }
        let contendable = hop_data.iter().any(|d| d.contendable);
        assert!(
            hop_data.iter().all(|d| d.contendable == contendable),
            "{architecture} {ports}x{ports}: hops are either all contendable or none"
        );
        Ok(Self {
            architecture,
            ports,
            element_count: topology.element_count(),
            link_count: topology.link_count(),
            routes,
            contendable,
            hops,
            hop_data,
            row_len,
        })
    }

    /// The architecture whose paths the table lowers.
    #[must_use]
    pub fn architecture(&self) -> Architecture {
        self.architecture
    }

    /// Number of ingress/egress ports.
    #[must_use]
    pub fn ports(&self) -> usize {
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

/// A [`RouteTable`] with every hop kind priced under one energy model.
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
/// use fabric_power_router::{PricedRoutes, RouteTable, RouterNode};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let routes = RouteTable::new(Architecture::Banyan, 8)?;
/// let model = Arc::new(FabricEnergyModel::paper(8)?);
/// // One priced table, shared by every node of a mesh.
/// let priced = Arc::new(PricedRoutes::new(routes, model)?);
/// let nodes: Vec<RouterNode> = (0..4)
///     .map(|_| RouterNode::new(Arc::clone(&priced)))
///     .collect();
/// assert_eq!(nodes[3].ports(), 8);
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
    /// Prices every hop kind of `routes` under `model`.
    ///
    /// # Errors
    ///
    /// Returns [`SimulationError::PortMismatch`] if the route table and the
    /// energy model disagree on the port count.
    pub fn new(routes: RouteTable, model: Arc<FabricEnergyModel>) -> Result<Self, SimulationError> {
        let ports = routes.ports();
        if model.ports() != ports {
            return Err(SimulationError::PortMismatch {
                config_ports: ports,
                model_ports: model.ports(),
            });
        }
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
        Ok(Self {
            routes,
            model,
            prices,
            row_len,
            idle_element_prices,
        })
    }

    /// The route table.
    #[must_use]
    pub fn routes(&self) -> &RouteTable {
        &self.routes
    }

    /// The energy model the hops are priced under.
    #[must_use]
    pub fn model(&self) -> &FabricEnergyModel {
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
    use super::*;

    #[test]
    fn table_reproduces_every_topology_route() {
        for architecture in Architecture::ALL {
            for ports in [2, 8, 32] {
                let topology = FabricTopology::new(architecture, ports).unwrap();
                let table = RouteTable::new(architecture, ports).unwrap();
                for input in 0..ports {
                    for output in 0..ports {
                        let path = topology.route(input, output);
                        let route = table.route(table.route_index(input, output));
                        assert_eq!(route.wire_grids_before, path.wire_grids_before as f64);
                        let hops = table.hops(route);
                        assert_eq!(hops.len(), path.hops.len());
                        for (hop, expected) in hops.iter().zip(&path.hops) {
                            let data = table.data(hop);
                            assert_eq!(data.class, expected.class);
                            assert_eq!(data.wire_grids_after, expected.wire_grids_after);
                            assert_eq!(data.charged_inputs, expected.charged_inputs);
                            assert_eq!(data.contendable, expected.buffered_on_contention);
                            // Contention claims every hop of a route, so a
                            // Banyan hop is always contendable and no other
                            // fabric's ever is.
                            assert_eq!(data.contendable, architecture == Architecture::Banyan);
                            assert_eq!(
                                hop.link as usize,
                                topology.hop_link(expected.element, expected.output_port)
                            );
                            assert_eq!(
                                hop.element as usize,
                                topology.element_slot(expected.element)
                            );
                        }
                    }
                }
                // Deduplication leaves at most one hop kind per stage.
                // Every path crosses every stage.
                assert!(table.hop_data.len() <= topology.route(0, 0).hops.len());
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
                let priced =
                    PricedRoutes::new(RouteTable::new(architecture, ports).unwrap(), model)
                        .unwrap();
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
                let priced =
                    PricedRoutes::new(RouteTable::new(architecture, ports).unwrap(), model)
                        .unwrap();
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
            let hops = table.hops(table.route(table.route_index(input, output)));
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
            let table = RouteTable::new(Architecture::Banyan, ports).unwrap();
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
        assert!(RouteTable::new(Architecture::Crossbar, 6).is_err());
    }
}
