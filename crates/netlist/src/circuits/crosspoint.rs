//! Crossbar crosspoint switch (paper §4.1).
//!
//! The node switch at a crossbar crosspoint is "a simple CMOS pass gate, or a
//! tri-state CMOS buffer" — by far the simplest of the four node switches.
//! We model it as a bus-wide array of pass gates whose enable is the
//! AND of the packet-presence flag and a stored configuration bit (set by the
//! arbiter when the crosspoint is part of the selected input/output path).

use crate::cells::CellKind;
use crate::netlist::{Netlist, NetlistError};

use super::build::{input_bus, net_bus};
use super::{SwitchCircuit, SwitchClass};

/// Builds a crossbar crosspoint switch for a `bus_width`-bit payload bus.
///
/// Interface:
/// * 1 data input bus, 1 presence flag;
/// * 1 control input: the crosspoint configuration bit (driven by the arbiter);
/// * 1 data output bus.
///
/// # Errors
///
/// Returns a [`NetlistError`] only if the internal construction is
/// inconsistent, which would indicate a bug in this generator.
///
/// # Examples
///
/// ```
/// use fabric_power_netlist::circuits::crossbar_crosspoint;
///
/// let circuit = crossbar_crosspoint(32)?;
/// assert_eq!(circuit.ports, 1);
/// assert_eq!(circuit.bus_width, 32);
/// circuit.netlist.validate()?;
/// # Ok::<(), fabric_power_netlist::netlist::NetlistError>(())
/// ```
pub fn crossbar_crosspoint(bus_width: usize) -> Result<SwitchCircuit, NetlistError> {
    let mut netlist = Netlist::new();

    let data_in = input_bus(&mut netlist, bus_width);
    let presence = netlist.add_input();
    let config = netlist.add_input();

    // The crosspoint drives the column bus only when the arbiter configured it
    // and a packet is actually flowing.
    let enable = netlist.add_net();
    netlist.add_cell(CellKind::And2, &[presence, config], enable)?;

    // One small buffer per data bit isolates the row bus from the pass gate,
    // then a pass gate drives the column bus.
    let buffered = net_bus(&mut netlist, bus_width);
    let data_out = net_bus(&mut netlist, bus_width);
    for bit in 0..bus_width {
        netlist.add_cell(CellKind::Buf, &[data_in[bit]], buffered[bit])?;
        netlist.add_cell(CellKind::PassGate, &[buffered[bit], enable], data_out[bit])?;
        netlist.mark_output(data_out[bit])?;
    }

    #[cfg(debug_assertions)]
    netlist.validate_strict()?;

    Ok(SwitchCircuit {
        netlist,
        class: SwitchClass::CrossbarCrosspoint,
        ports: 1,
        bus_width,
        data_inputs: vec![data_in],
        presence_inputs: vec![presence],
        control_inputs: vec![config],
        data_outputs: vec![data_out],
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library::CellLibrary;
    use crate::sim::Simulator;

    #[test]
    fn crosspoint_passes_data_when_enabled() {
        let circuit = crossbar_crosspoint(8).unwrap();
        let lib = CellLibrary::calibrated_018um();
        let mut sim = Simulator::new(&circuit.netlist, &lib).unwrap();

        let mut vector = circuit.blank_input_vector();
        circuit.set_input(&mut vector, circuit.presence_inputs[0], true);
        circuit.set_input(&mut vector, circuit.control_inputs[0], true);
        circuit.set_bus(&mut vector, 0, 0xA5);
        sim.step(&vector);

        let out: Vec<bool> = circuit.data_outputs[0]
            .iter()
            .map(|&n| sim.net_value(n))
            .collect();
        let word: u64 = out
            .iter()
            .enumerate()
            .map(|(i, &b)| if b { 1 << i } else { 0 })
            .sum();
        assert_eq!(word, 0xA5);
    }

    #[test]
    fn crosspoint_holds_output_when_disabled() {
        let circuit = crossbar_crosspoint(8).unwrap();
        let lib = CellLibrary::calibrated_018um();
        let mut sim = Simulator::new(&circuit.netlist, &lib).unwrap();

        // Enabled with a known word.
        let mut vector = circuit.blank_input_vector();
        circuit.set_input(&mut vector, circuit.presence_inputs[0], true);
        circuit.set_input(&mut vector, circuit.control_inputs[0], true);
        circuit.set_bus(&mut vector, 0, 0xFF);
        sim.step(&vector);

        // Disabled with different data: output must not follow.
        let mut vector = circuit.blank_input_vector();
        circuit.set_bus(&mut vector, 0, 0x00);
        sim.step(&vector);
        let held = circuit.data_outputs[0].iter().all(|&n| sim.net_value(n));
        assert!(held, "disabled crosspoint must hold the column bus value");
    }

    #[test]
    fn crosspoint_cell_count_scales_with_bus_width() {
        let small = crossbar_crosspoint(8).unwrap().cell_count();
        let large = crossbar_crosspoint(32).unwrap().cell_count();
        assert!(large > small);
        // 2 cells per bit + 1 enable gate.
        assert_eq!(large, 2 * 32 + 1);
    }
}
