//! Structural generators for the node-switch circuits characterized in the
//! paper's Table 1.
//!
//! Each generator builds a complete gate-level [`Netlist`] together with a
//! [`SwitchCircuit`] wrapper that records which primary inputs carry packet
//! data, packet-presence flags and routing control, and which nets are the
//! data outputs.  The [`crate::characterize`] module drives these circuits
//! with random payload streams to extract per-bit energy look-up tables.

mod binary_switch;
mod crosspoint;
mod mux;
mod sorting_switch;

pub use binary_switch::banyan_binary_switch;
pub use crosspoint::crossbar_crosspoint;
pub use mux::n_input_mux;
pub use sorting_switch::batcher_sorting_switch;

use serde::{Deserialize, Serialize};

use crate::netlist::{NetId, Netlist, NetlistError};

/// Which of the paper's node-switch circuits a [`SwitchCircuit`] implements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SwitchClass {
    /// Crossbar crosspoint: a bus-wide tri-state/pass-gate connection
    /// (paper Table 1 row "Crossbar 1×1").
    CrossbarCrosspoint,
    /// The 2×2 self-routing binary switch used in Banyan networks.
    BanyanBinary,
    /// The 2×2 sorting (compare-exchange) switch used in Batcher networks.
    BatcherSorting,
    /// An N-input multiplexer aggregating all inputs onto one output, as used
    /// by the fully-connected fabric.
    Mux {
        /// Number of multiplexer inputs.
        inputs: usize,
    },
}

impl std::fmt::Display for SwitchClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::CrossbarCrosspoint => write!(f, "crossbar crosspoint"),
            Self::BanyanBinary => write!(f, "Banyan 2x2 binary switch"),
            Self::BatcherSorting => write!(f, "Batcher 2x2 sorting switch"),
            Self::Mux { inputs } => write!(f, "{inputs}-input MUX"),
        }
    }
}

/// Generates the circuit of `class` over a `bus_width`-bit payload bus.
/// `address_bits` is the Batcher sorting switch's compared address width,
/// raised to at least 1; the other classes ignore it.
///
/// # Errors
///
/// Propagates the [`NetlistError`] of the class's generator.
pub fn switch_circuit(
    class: SwitchClass,
    bus_width: usize,
    address_bits: usize,
) -> Result<SwitchCircuit, NetlistError> {
    match class {
        SwitchClass::CrossbarCrosspoint => crossbar_crosspoint(bus_width),
        SwitchClass::BanyanBinary => banyan_binary_switch(bus_width),
        SwitchClass::BatcherSorting => batcher_sorting_switch(bus_width, address_bits.max(1)),
        SwitchClass::Mux { inputs } => n_input_mux(inputs, bus_width),
    }
}

/// A generated node-switch circuit plus its interface bookkeeping.
///
/// Field conventions:
///
/// * `data_inputs[p][b]` — bit `b` of the payload bus entering port `p`;
/// * `presence_inputs[p]` — "a packet is present on port `p`" flag;
/// * `control_inputs` — routing control (destination bits, sort keys or MUX
///   select lines), circuit-specific;
/// * `data_outputs[q][b]` — bit `b` of the payload bus leaving output `q`.
#[derive(Debug, Clone)]
pub struct SwitchCircuit {
    /// The generated gate-level netlist.
    pub netlist: Netlist,
    /// Which switch this circuit implements.
    pub class: SwitchClass,
    /// Number of input ports.
    pub ports: usize,
    /// Payload bus width in bits.
    pub bus_width: usize,
    /// Payload data input nets, `[port][bit]`.
    pub data_inputs: Vec<Vec<NetId>>,
    /// Packet-presence flags, one per port.
    pub presence_inputs: Vec<NetId>,
    /// Routing-control input nets (meaning depends on the circuit).
    pub control_inputs: Vec<NetId>,
    /// Payload data output nets, `[output port][bit]`.
    pub data_outputs: Vec<Vec<NetId>>,
}

impl SwitchCircuit {
    /// Total number of standard-cell instances in the circuit.
    #[must_use]
    pub fn cell_count(&self) -> usize {
        self.netlist.cell_count()
    }
}

/// Helpers shared by the concrete generators.
pub(crate) mod build {
    use super::{NetId, Netlist, NetlistError};
    use crate::cells::CellKind;

    /// Adds a bus of `width` primary inputs.
    pub(crate) fn input_bus(netlist: &mut Netlist, width: usize) -> Vec<NetId> {
        (0..width).map(|_| netlist.add_input()).collect()
    }

    /// Adds a bus of `width` internal nets.
    pub(crate) fn net_bus(netlist: &mut Netlist, width: usize) -> Vec<NetId> {
        (0..width).map(|_| netlist.add_net()).collect()
    }

    /// Adds a register (DFF) stage over a whole bus and returns the Q bus.
    pub(crate) fn register_bus(
        netlist: &mut Netlist,
        data: &[NetId],
    ) -> Result<Vec<NetId>, NetlistError> {
        let q = net_bus(netlist, data.len());
        for (&d, &qn) in data.iter().zip(&q) {
            netlist.add_cell(CellKind::Dff, &[d], qn)?;
        }
        Ok(q)
    }

    /// Adds a bus-wide 2:1 mux selecting between `a` and `b` with `select`.
    pub(crate) fn mux_bus(
        netlist: &mut Netlist,
        a: &[NetId],
        b: &[NetId],
        select: NetId,
    ) -> Result<Vec<NetId>, NetlistError> {
        assert_eq!(a.len(), b.len(), "mux bus operands must have equal widths");
        let y = net_bus(netlist, a.len());
        for i in 0..a.len() {
            netlist.add_cell(CellKind::Mux2, &[a[i], b[i], select], y[i])?;
        }
        Ok(y)
    }

    /// AND-gates every bit of `data` with `enable`.
    pub(crate) fn gate_bus(
        netlist: &mut Netlist,
        data: &[NetId],
        enable: NetId,
    ) -> Result<Vec<NetId>, NetlistError> {
        let out = net_bus(netlist, data.len());
        for (&d, &o) in data.iter().zip(&out) {
            netlist.add_cell(CellKind::And2, &[d, enable], o)?;
        }
        Ok(out)
    }
}

/// Scalar-oracle stimulus helpers for the circuit tests.
#[cfg(test)]
impl SwitchCircuit {
    /// Builds a primary-input vector of the right length, all `false`.
    #[must_use]
    pub(crate) fn blank_input_vector(&self) -> Vec<bool> {
        vec![false; self.netlist.primary_inputs().len()]
    }

    /// Sets the value of a specific input net inside a primary-input vector.
    ///
    /// # Panics
    ///
    /// Panics if `net` is not a primary input of this circuit — that would be
    /// a bug in a circuit generator, not a user error.
    pub(crate) fn set_input(&self, vector: &mut [bool], net: NetId, value: bool) {
        let position = self
            .netlist
            .primary_input_position(net)
            .expect("switch circuit interface net must be a primary input");
        vector[position] = value;
    }

    /// Sets an entire data bus from the low bits of `word`.
    pub(crate) fn set_bus(&self, vector: &mut [bool], port: usize, word: u64) {
        for (bit, &net) in self.data_inputs[port].iter().enumerate() {
            self.set_input(vector, net, (word >> bit) & 1 == 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cells::CellKind;

    #[test]
    fn switch_class_display() {
        assert_eq!(
            SwitchClass::CrossbarCrosspoint.to_string(),
            "crossbar crosspoint"
        );
        assert_eq!(SwitchClass::Mux { inputs: 8 }.to_string(), "8-input MUX");
    }

    #[test]
    fn all_generators_produce_valid_netlists() {
        let circuits = [
            crossbar_crosspoint(8).unwrap(),
            banyan_binary_switch(8).unwrap(),
            batcher_sorting_switch(8, 4).unwrap(),
            n_input_mux(4, 8).unwrap(),
        ];
        for circuit in circuits {
            circuit
                .netlist
                .validate()
                .expect("generated netlist must validate");
            assert!(circuit.cell_count() > 0);
            assert_eq!(circuit.data_inputs.len(), circuit.ports);
            assert_eq!(circuit.presence_inputs.len(), circuit.ports);
            for bus in &circuit.data_inputs {
                assert_eq!(bus.len(), circuit.bus_width);
            }
            for bus in &circuit.data_outputs {
                assert_eq!(bus.len(), circuit.bus_width);
            }
        }
    }

    #[test]
    fn the_cell_set_is_what_the_generators_instantiate() {
        // The seven `netlist-stats all` classes at its 32-bit bus and 5-bit
        // sort addresses, and the MUX at both ends of the port range.
        let classes = [
            SwitchClass::CrossbarCrosspoint,
            SwitchClass::BanyanBinary,
            SwitchClass::BatcherSorting,
            SwitchClass::Mux { inputs: 2 },
            SwitchClass::Mux { inputs: 4 },
            SwitchClass::Mux { inputs: 8 },
            SwitchClass::Mux { inputs: 16 },
            SwitchClass::Mux { inputs: 32 },
            SwitchClass::Mux { inputs: 128 },
        ];
        let mut used = std::collections::BTreeSet::new();
        for class in classes {
            let circuit = switch_circuit(class, 32, 5).unwrap();
            used.extend(circuit.netlist.cell_histogram().into_keys());
        }
        let all: std::collections::BTreeSet<_> = CellKind::ALL.into_iter().collect();
        assert_eq!(
            used, all,
            "a cell kind no generator instantiates, or one missing"
        );
    }

    #[test]
    fn set_bus_writes_low_bits() {
        let circuit = crossbar_crosspoint(8).unwrap();
        let mut vector = circuit.blank_input_vector();
        circuit.set_bus(&mut vector, 0, 0b1010_1010);
        let ones = vector.iter().filter(|&&b| b).count();
        assert_eq!(ones, 4);
    }

    #[test]
    fn gate_complexity_ordering_matches_paper_intuition() {
        // The sorting switch must be more complex than the binary switch,
        // which is more complex than a crosspoint (paper §4.3).
        let crosspoint = crossbar_crosspoint(32).unwrap().cell_count();
        let binary = banyan_binary_switch(32).unwrap().cell_count();
        let sorting = batcher_sorting_switch(32, 6).unwrap().cell_count();
        assert!(crosspoint < binary, "{crosspoint} !< {binary}");
        assert!(binary < sorting, "{binary} !< {sorting}");
    }

    #[test]
    fn mux_complexity_grows_with_inputs() {
        let m4 = n_input_mux(4, 32).unwrap().cell_count();
        let m8 = n_input_mux(8, 32).unwrap().cell_count();
        let m32 = n_input_mux(32, 32).unwrap().cell_count();
        assert!(m4 < m8 && m8 < m32);
    }
}
