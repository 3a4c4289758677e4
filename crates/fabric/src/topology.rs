//! Structural path models of the four fabrics.
//!
//! The bit-level router simulator needs to know, for a packet entering port
//! `i` and leaving port `j`, which node switches it passes (and of which
//! class), which interconnect segments it drives (and how long they are in
//! Thompson grids), and where interconnect contention can force a buffer
//! access.  [`FabricTopology::route`] answers exactly that with a
//! [`RoutePath`].
//!
//! Only the Banyan network can suffer interconnect contention: its hop
//! descriptions carry real per-stage link identities (switch element +
//! output port) so the simulator can detect two packets colliding on a
//! shared link.  The other three fabrics are contention-free by construction
//! (paper §4.1, §4.2, §4.4).

use serde::{Deserialize, Serialize};

use fabric_power_netlist::SwitchClass;
use fabric_power_thompson::wirelength;

use crate::architecture::Architecture;

/// Identifies one physical node switch inside a fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ElementId {
    /// Pipeline stage the element belongs to (0 for single-stage fabrics).
    pub stage: usize,
    /// Index of the element within its stage.
    pub index: usize,
}

/// One hop of a packet's path through the fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PathHop {
    /// The node switch traversed.
    pub element: ElementId,
    /// Its switch class (selects the bit-energy LUT).
    pub class: SwitchClass,
    /// The output port of the element the packet leaves on — together with
    /// `element` this names the outgoing link, the resource interconnect
    /// contention is detected on.
    pub output_port: usize,
    /// Length, in Thompson grids, of the interconnect the packet drives after
    /// leaving this element.
    pub wire_grids_after: u64,
    /// How many node-switch inputs the bit's wire toggles at this hop. This
    /// is 1 everywhere except the crossbar, where the row bus feeds all `N`
    /// crosspoints (the `N · E_S_bit` term of Eq. 3).
    pub charged_inputs: usize,
    /// Whether losing arbitration for the outgoing link at this hop forces
    /// the packet into the node's internal buffer (true only inside Banyan).
    pub buffered_on_contention: bool,
}

/// The complete path of one packet through the fabric.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct RoutePath {
    /// Thompson grids of interconnect between the ingress port and the first
    /// node switch.
    pub wire_grids_before: u64,
    /// The node switches traversed, in order.
    pub hops: Vec<PathHop>,
}

/// Errors raised when building a topology.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum TopologyError {
    /// The port count must be a power of two of at least 2.
    InvalidPortCount {
        /// The rejected port count.
        ports: usize,
    },
}

impl std::fmt::Display for TopologyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::InvalidPortCount { ports } => {
                write!(f, "port count {ports} must be a power of two of at least 2")
            }
        }
    }
}

impl std::error::Error for TopologyError {}

/// The structural model of one `N × N` fabric instance.
///
/// # Examples
///
/// ```
/// use fabric_power_fabric::architecture::Architecture;
/// use fabric_power_fabric::topology::FabricTopology;
///
/// let banyan = FabricTopology::new(Architecture::Banyan, 8)?;
/// let path = banyan.route(3, 6);
/// // log2(8) = 3 stages of 2x2 switches.
/// assert_eq!(path.hops.len(), 3);
/// # Ok::<(), fabric_power_fabric::topology::TopologyError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FabricTopology {
    architecture: Architecture,
    ports: usize,
}

impl FabricTopology {
    /// Builds the topology of an `N × N` fabric.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::InvalidPortCount`] unless `ports` is a power
    /// of two ≥ 2.
    pub fn new(architecture: Architecture, ports: usize) -> Result<Self, TopologyError> {
        if ports < 2 || !ports.is_power_of_two() {
            return Err(TopologyError::InvalidPortCount { ports });
        }
        Ok(Self {
            architecture,
            ports,
        })
    }

    /// The fabric architecture.
    #[must_use]
    pub fn architecture(&self) -> Architecture {
        self.architecture
    }

    /// Number of ingress/egress ports.
    #[must_use]
    pub fn ports(&self) -> usize {
        self.ports
    }

    /// Number of Banyan stages `n = log2(N)` (meaningful for the multistage
    /// fabrics, but defined for all).
    #[must_use]
    pub fn banyan_stages(&self) -> u32 {
        wirelength::banyan_stages(self.ports)
    }

    /// Total number of node-switch elements in the fabric.
    #[must_use]
    pub fn element_count(&self) -> usize {
        let n = self.ports;
        match self.architecture {
            Architecture::Crossbar => n * n,
            Architecture::FullyConnected => n,
            Architecture::Banyan => fabric_power_memory::banyan_switch_count(n),
            Architecture::BatcherBanyan => {
                wirelength::batcher_sorting_stages(n) as usize * n / 2
                    + fabric_power_memory::banyan_switch_count(n)
            }
        }
    }

    /// Node switches per stage; every stage of a fabric is the same width.
    fn elements_per_stage(&self) -> usize {
        let n = self.ports;
        match self.architecture {
            Architecture::Crossbar => n * n,
            Architecture::FullyConnected => n,
            Architecture::Banyan | Architecture::BatcherBanyan => n / 2,
        }
    }

    /// Output links per node switch: two for the 2×2 elements of the
    /// multistage fabrics, one for a crosspoint or a MUX.
    fn links_per_element(&self) -> usize {
        match self.architecture {
            Architecture::Crossbar | Architecture::FullyConnected => 1,
            Architecture::Banyan | Architecture::BatcherBanyan => 2,
        }
    }

    /// Dense id of a node switch, in `0..element_count()`:
    /// `stage · elements-per-stage + index`.
    ///
    /// Together with [`FabricTopology::hop_link`] this lets a simulator keep
    /// per-element and per-link state in flat arrays instead of maps keyed
    /// by [`ElementId`].
    #[must_use]
    pub fn element_slot(&self, element: ElementId) -> usize {
        element.stage * self.elements_per_stage() + element.index
    }

    /// Number of dense link ids: one ingress segment per port (ids
    /// `0..ports`, port order), then one link per node-switch output port.
    #[must_use]
    pub fn link_count(&self) -> usize {
        self.ports + self.element_count() * self.links_per_element()
    }

    /// Dense id of the link leaving `element` on `output_port`, in
    /// `ports..link_count()`.
    #[must_use]
    pub fn hop_link(&self, element: ElementId, output_port: usize) -> usize {
        self.ports + self.element_slot(element) * self.links_per_element() + output_port
    }

    /// Routes a packet from ingress port `input` to egress port `output`.
    ///
    /// # Panics
    ///
    /// Panics if `input` or `output` is outside `0..ports`.
    #[must_use]
    pub fn route(&self, input: usize, output: usize) -> RoutePath {
        assert!(input < self.ports, "input port {input} out of range");
        assert!(output < self.ports, "output port {output} out of range");
        match self.architecture {
            Architecture::Crossbar => self.route_crossbar(input, output),
            Architecture::FullyConnected => self.route_fully_connected(input, output),
            Architecture::Banyan => self.route_banyan(input, output, 0, true),
            Architecture::BatcherBanyan => self.route_batcher_banyan(input, output),
        }
    }

    fn route_crossbar(&self, input: usize, output: usize) -> RoutePath {
        let n = self.ports;
        RoutePath {
            wire_grids_before: 0,
            hops: vec![PathHop {
                element: ElementId {
                    stage: 0,
                    index: input * n + output,
                },
                class: SwitchClass::CrossbarCrosspoint,
                output_port: 0,
                // Full row interconnect plus full column interconnect (Eq. 3).
                wire_grids_after: wirelength::crossbar_bit_wire_grids(n),
                // The row bus toggles the inputs of all N crosspoints.
                charged_inputs: n,
                buffered_on_contention: false,
            }],
        }
    }

    fn route_fully_connected(&self, _input: usize, output: usize) -> RoutePath {
        let n = self.ports;
        RoutePath {
            // The ingress bus is a broadcast net spanning the whole double row
            // of MUXes, so every bit toggles its full ½·N² grids regardless of
            // which output is addressed (Eq. 4).
            wire_grids_before: wirelength::fully_connected_bit_wire_grids(n),
            hops: vec![PathHop {
                element: ElementId {
                    stage: 0,
                    index: output,
                },
                class: SwitchClass::Mux { inputs: n },
                output_port: 0,
                wire_grids_after: 0,
                charged_inputs: 1,
                buffered_on_contention: false,
            }],
        }
    }

    /// Self-routing butterfly path: stage `s` examines destination bit
    /// `n−1−s` and exchanges the packet to the half of the network selected
    /// by that bit.
    fn route_banyan(
        &self,
        input: usize,
        output: usize,
        stage_offset: usize,
        bufferable: bool,
    ) -> RoutePath {
        let n = self.banyan_stages() as usize;
        let mut hops = Vec::with_capacity(n);
        let mut row = input;
        for s in 0..n {
            let bit = n - 1 - s;
            let destination_bit = (output >> bit) & 1;
            // The 2x2 switch groups the two rows differing only in `bit`.
            let element_index = ((row >> (bit + 1)) << bit) | (row & ((1 << bit) - 1));
            row = (row & !(1 << bit)) | (destination_bit << bit);
            hops.push(PathHop {
                element: ElementId {
                    stage: stage_offset + s,
                    index: element_index,
                },
                class: SwitchClass::BanyanBinary,
                output_port: destination_bit,
                // Stage s drives the interconnect that exchanges bit `bit`:
                // the longest wires come first, 4·2^bit grids (Eq. 5).
                wire_grids_after: wirelength::banyan_stage_wire_grids(bit as u32),
                charged_inputs: 1,
                buffered_on_contention: bufferable,
            });
        }
        debug_assert_eq!(
            row, output,
            "butterfly self-routing must reach the destination"
        );
        RoutePath {
            wire_grids_before: 0,
            hops,
        }
    }

    fn route_batcher_banyan(&self, input: usize, output: usize) -> RoutePath {
        let n = self.banyan_stages() as usize;
        let mut hops = Vec::new();
        // Batcher bitonic sorter: merge phase j (j = 0..n-1) contains
        // sub-stages i = 0..=j whose interconnects span 4·2^i grids (Eq. 6).
        // The sorter is contention-free, so the exact sorted position does
        // not change the energy accounting; we keep the packet on its input
        // row for element bookkeeping.
        let mut stage = 0;
        for phase in 0..n {
            for sub in 0..=phase {
                hops.push(PathHop {
                    element: ElementId {
                        stage,
                        index: input / 2,
                    },
                    class: SwitchClass::BatcherSorting,
                    output_port: input & 1,
                    wire_grids_after: wirelength::banyan_stage_wire_grids(sub as u32),
                    charged_inputs: 1,
                    buffered_on_contention: false,
                });
                stage += 1;
            }
        }
        // Followed by the Banyan network, now contention-free.
        let banyan = self.route_banyan(input, output, stage, false);
        hops.extend(banyan.hops);
        RoutePath {
            wire_grids_before: 0,
            hops,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Interconnect length of a whole path in Thompson grids.
    fn total_wire_grids(path: &RoutePath) -> u64 {
        path.wire_grids_before + path.hops.iter().map(|h| h.wire_grids_after).sum::<u64>()
    }
    use std::collections::{HashMap, HashSet};

    #[test]
    fn invalid_port_counts_are_rejected() {
        assert!(FabricTopology::new(Architecture::Banyan, 3).is_err());
        assert!(FabricTopology::new(Architecture::Crossbar, 0).is_err());
        assert!(FabricTopology::new(Architecture::Crossbar, 16).is_ok());
        assert!(TopologyError::InvalidPortCount { ports: 3 }
            .to_string()
            .contains('3'));
    }

    #[test]
    fn crossbar_path_matches_eq3_structure() {
        let fabric = FabricTopology::new(Architecture::Crossbar, 8).unwrap();
        let path = fabric.route(2, 5);
        assert_eq!(path.hops.len(), 1);
        assert_eq!(path.hops[0].charged_inputs, 8);
        assert_eq!(total_wire_grids(&path), 64); // 8N
        assert!(!path.hops[0].buffered_on_contention);
        assert_eq!(fabric.element_count(), 64);
    }

    #[test]
    fn fully_connected_path_matches_eq4_structure() {
        let fabric = FabricTopology::new(Architecture::FullyConnected, 16).unwrap();
        let path = fabric.route(7, 11);
        assert_eq!(path.hops.len(), 1);
        assert_eq!(path.hops[0].class, SwitchClass::Mux { inputs: 16 });
        assert_eq!(total_wire_grids(&path), 128); // ½·N² broadcast bus
                                                  // The wire cost is destination-independent: the ingress bus is one net.
        assert_eq!(total_wire_grids(&fabric.route(7, 15)), 128);
        assert_eq!(fabric.element_count(), 16);
    }

    #[test]
    fn banyan_self_routing_reaches_every_destination() {
        let fabric = FabricTopology::new(Architecture::Banyan, 16).unwrap();
        for input in 0..16 {
            for output in 0..16 {
                let path = fabric.route(input, output);
                assert_eq!(path.hops.len(), 4);
                assert_eq!(
                    total_wire_grids(&path),
                    fabric_power_thompson::wirelength::banyan_bit_wire_grids(16)
                );
                assert!(path.hops.iter().all(|h| h.buffered_on_contention));
                // Element indices stay within each stage's switch count.
                for hop in &path.hops {
                    assert!(hop.element.index < 8);
                    assert!(hop.output_port < 2);
                }
            }
        }
    }

    #[test]
    fn banyan_distinct_destinations_use_distinct_final_links() {
        // The final-stage link uniquely identifies the egress port, so two
        // packets to different outputs can never collide there.
        let fabric = FabricTopology::new(Architecture::Banyan, 8).unwrap();
        let mut final_links = HashSet::new();
        for output in 0..8 {
            let path = fabric.route(0, output);
            let last = path.hops.last().unwrap();
            final_links.insert((last.element, last.output_port));
        }
        assert_eq!(final_links.len(), 8);
    }

    #[test]
    fn banyan_shared_links_exist_for_some_traffic_patterns() {
        // Internal blocking: distinct (input, output) pairs with distinct
        // outputs can still share an intermediate link.
        let fabric = FabricTopology::new(Architecture::Banyan, 8).unwrap();
        let mut seen = HashSet::new();
        let mut collision = false;
        for input in 0..8 {
            for output in 0..8 {
                let path = fabric.route(input, output);
                let first = &path.hops[0];
                if !seen.insert((input, first.element, first.output_port))
                    || seen.iter().any(|&(other_in, e, p)| {
                        other_in != input && e == first.element && p == first.output_port
                    })
                {
                    collision = true;
                }
            }
        }
        assert!(collision, "a Banyan must exhibit internal blocking");
    }

    #[test]
    fn batcher_banyan_has_the_extra_sorting_stages() {
        let fabric = FabricTopology::new(Architecture::BatcherBanyan, 16).unwrap();
        let path = fabric.route(3, 9);
        // ½·n·(n+1) sorting stages + n banyan stages, n = 4.
        assert_eq!(path.hops.len(), 10 + 4);
        assert!(path.hops.iter().all(|h| !h.buffered_on_contention));
        assert_eq!(
            total_wire_grids(&path),
            fabric_power_thompson::wirelength::batcher_banyan_bit_wire_grids(16)
        );
        let sorting_hops = path
            .hops
            .iter()
            .filter(|h| h.class == SwitchClass::BatcherSorting)
            .count();
        assert_eq!(sorting_hops, 10);
    }

    #[test]
    fn element_counts_match_the_paper_formulas() {
        let banyan = FabricTopology::new(Architecture::Banyan, 32).unwrap();
        assert_eq!(banyan.element_count(), 80);
        let batcher = FabricTopology::new(Architecture::BatcherBanyan, 32).unwrap();
        assert_eq!(batcher.element_count(), 15 * 16 + 80);
        let fully = FabricTopology::new(Architecture::FullyConnected, 32).unwrap();
        assert_eq!(fully.element_count(), 32);
    }

    #[test]
    fn dense_ids_are_a_bijection_onto_their_ranges() {
        for architecture in Architecture::ALL {
            for ports in [2, 4, 16, 32] {
                let fabric = FabricTopology::new(architecture, ports).unwrap();
                let mut slots = HashMap::new();
                let mut links = HashMap::new();
                for input in 0..ports {
                    for output in 0..ports {
                        for hop in fabric.route(input, output).hops {
                            let slot = fabric.element_slot(hop.element);
                            assert!(slot < fabric.element_count(), "{architecture}");
                            assert_eq!(*slots.entry(slot).or_insert(hop.element), hop.element);
                            let link = fabric.hop_link(hop.element, hop.output_port);
                            assert!((ports..fabric.link_count()).contains(&link));
                            let key = (hop.element, hop.output_port);
                            assert_eq!(*links.entry(link).or_insert(key), key);
                        }
                    }
                }
                // The routes use every id, so the arrays have no holes.
                assert_eq!(slots.len(), fabric.element_count(), "{architecture}");
                assert_eq!(links.len(), fabric.link_count() - ports, "{architecture}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_port_panics() {
        let fabric = FabricTopology::new(Architecture::Crossbar, 4).unwrap();
        let _ = fabric.route(4, 0);
    }

    #[test]
    fn wire_lengths_order_banyan_below_crossbar() {
        for ports in [4, 8, 16, 32] {
            let banyan = FabricTopology::new(Architecture::Banyan, ports).unwrap();
            let crossbar = FabricTopology::new(Architecture::Crossbar, ports).unwrap();
            assert!(
                total_wire_grids(&banyan.route(0, ports - 1))
                    < total_wire_grids(&crossbar.route(0, ports - 1))
            );
        }
    }
}
