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
//!   node-buffer arrays), and an index into a small deduplicated table of
//!   [`HopData`], the route-independent part of a hop;
//! * each route is a span of hops plus its ingress link and ingress wire
//!   length.
//!
//! The dense ids come from the topology's arithmetic scheme
//! ([`FabricTopology::element_slot`], [`FabricTopology::hop_link`]), so
//! building the table hashes nothing.
//!
//! A [`PricedRoutes`] pairs the table with one energy model and prices
//! every hop kind once: its wire energy for each possible count of flipped
//! bits, and its switch energy for each possible occupancy of its element.
//! A mesh builds one and [`Arc`]-shares it across all of its nodes.
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
    /// buffer (Banyan only).
    pub(crate) contendable: bool,
}

/// One hop of a lowered route.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Hop {
    /// Dense id of the link the packet leaves the element on.
    pub(crate) link: u32,
    /// Dense id of the element.
    pub(crate) element: u32,
    /// Index into [`RouteTable`]'s hop-data table.
    pub(crate) data: u32,
}

/// One lowered `(input, output)` route.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Route {
    /// Thompson grids between the ingress port and the first element.
    pub(crate) wire_grids_before: u64,
    /// Dense id of the ingress segment.
    pub(crate) ingress_link: u32,
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
/// assert_eq!(table.ports(), 8);
/// # Ok::<(), fabric_power_fabric::TopologyError>(())
/// ```
#[derive(Debug, Clone)]
pub struct RouteTable {
    ports: usize,
    element_count: usize,
    link_count: usize,
    /// `ports²` routes, row-major by input.
    routes: Vec<Route>,
    hops: Vec<Hop>,
    hop_data: Vec<HopData>,
    /// Whether any hop can suffer interconnect contention.
    contendable: bool,
}

impl RouteTable {
    /// Lowers every route of an `N × N` fabric.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::InvalidPortCount`] unless `ports` is a
    /// power of two ≥ 2.
    pub fn new(architecture: Architecture, ports: usize) -> Result<Self, TopologyError> {
        let topology = FabricTopology::new(architecture, ports)?;
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
                        data: dense(index),
                    });
                }
                routes.push(Route {
                    wire_grids_before: path.wire_grids_before,
                    ingress_link: dense(topology.ingress_link(input)),
                    start,
                    end: dense(hops.len()),
                });
            }
        }
        Ok(Self {
            ports,
            element_count: topology.element_count(),
            link_count: topology.link_count(),
            routes,
            contendable: hop_data.iter().any(|d| d.contendable),
            hops,
            hop_data,
        })
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

    /// Whether any route can suffer interconnect contention.
    pub(crate) fn contendable(&self) -> bool {
        self.contendable
    }

    /// The route from `input` to `output`.
    pub(crate) fn route(&self, input: usize, output: usize) -> Route {
        self.routes[input * self.ports + output]
    }

    /// The hops of a route, in path order.
    pub(crate) fn hops(&self, route: &Route) -> &[Hop] {
        &self.hops[route.start as usize..route.end as usize]
    }

    /// The route-independent data of a hop.
    pub(crate) fn data(&self, hop: &Hop) -> &HopData {
        &self.hop_data[hop.data as usize]
    }
}

fn dense(id: usize) -> u32 {
    u32::try_from(id).expect("dense ids fit in 32 bits")
}

/// Polarity flips one `u64` word can show against the previous one: 0..=64.
const FLIP_COUNTS: usize = u64::BITS as usize + 1;

/// A [`RouteTable`] with every hop kind priced under one energy model.
///
/// A transmitted word charges each hop two table reads: the wire energy of
/// the bits it flips on the hop's outgoing link, and its share of the
/// element's switch energy at the element's occupancy.  Each entry is the
/// product the per-hop formula would compute, in the same operand order,
/// so the sums a node accumulates are bit-identical to charging the model
/// directly.
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
///     .map(|_| RouterNode::new(Arc::clone(&priced), 0))
///     .collect();
/// assert_eq!(nodes[3].ports(), 8);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct PricedRoutes {
    routes: RouteTable,
    model: Arc<FabricEnergyModel>,
    /// Per hop kind, the wire energy of the link after the element, by
    /// flipped-bit count.
    wire: Vec<[Energy; FLIP_COUNTS]>,
    /// Per hop kind, one packet's share of the element's switch energy by
    /// occupancy `0..=ports`: `switch[kind * (ports + 1) + occupants]`.
    switch: Vec<Energy>,
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
        let wire = routes
            .hop_data
            .iter()
            .map(|data| {
                std::array::from_fn(|flips| grid * (flips as f64 * data.wire_grids_after as f64))
            })
            .collect();
        let mut switch = Vec::with_capacity(routes.hop_data.len() * (ports + 1));
        for data in &routes.hop_data {
            if data.charged_inputs > 1 {
                // Crossbar row: the bit toggles the inputs of all N
                // crosspoints (Eq. 3's N·E_S term), whatever the occupancy.
                let row = model.switch_bit_energy(data.class, 1)
                    * (bus_width * data.charged_inputs as f64);
                switch.extend(std::iter::repeat_n(row, ports + 1));
            } else {
                // The LUT value is the whole switch's per-bit-slot energy
                // under that occupancy; split evenly between the packets
                // sharing the switch so it is charged exactly once.
                switch.extend((0..=ports).map(|occupants| {
                    let occupants = occupants.max(1);
                    model.switch_bit_energy(data.class, occupants) * (bus_width / occupants as f64)
                }));
            }
        }
        Ok(Self {
            routes,
            model,
            wire,
            switch,
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

    /// Wire energy of a word that flips `flips` bits on `hop`'s outgoing
    /// link.
    #[inline]
    pub(crate) fn wire_energy(&self, hop: &Hop, flips: u32) -> Energy {
        self.wire[hop.data as usize][flips as usize]
    }

    /// One packet's share of the switch energy at `hop` while `occupants`
    /// packets cross its element.
    #[inline]
    pub(crate) fn switch_energy(&self, hop: &Hop, occupants: usize) -> Energy {
        // At most one flow per input, so an element never holds more than
        // `ports`; a larger count would read the next hop kind's row.
        debug_assert!(occupants <= self.routes.ports);
        self.switch[hop.data as usize * (self.routes.ports + 1) + occupants]
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
                        let route = table.route(input, output);
                        assert_eq!(route.wire_grids_before, path.wire_grids_before);
                        assert_eq!(route.ingress_link as usize, input);
                        let hops = table.hops(&route);
                        assert_eq!(hops.len(), path.hops.len());
                        for (hop, expected) in hops.iter().zip(&path.hops) {
                            let data = table.data(hop);
                            assert_eq!(data.class, expected.class);
                            assert_eq!(data.wire_grids_after, expected.wire_grids_after);
                            assert_eq!(data.charged_inputs, expected.charged_inputs);
                            assert_eq!(data.contendable, expected.buffered_on_contention);
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
                assert!(table.hop_data.len() <= topology.stage_count());
                assert_eq!(table.contendable(), architecture == Architecture::Banyan);
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
                for (kind, data) in table.hop_data.iter().enumerate() {
                    let hop = &Hop {
                        link: 0,
                        element: 0,
                        data: dense(kind),
                    };
                    for flips in 0..=64 {
                        let expected = model.grid_bit_energy()
                            * (f64::from(flips) * data.wire_grids_after as f64);
                        assert_eq!(priced.wire_energy(hop, flips), expected);
                    }
                    for occupancy in 0..=ports {
                        let expected = if data.charged_inputs > 1 {
                            model.switch_bit_energy(data.class, 1)
                                * (bus_width * data.charged_inputs as f64)
                        } else {
                            let occupants = occupancy.max(1);
                            model.switch_bit_energy(data.class, occupants)
                                * (bus_width / occupants as f64)
                        };
                        assert_eq!(priced.switch_energy(hop, occupancy), expected);
                    }
                }
            }
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
