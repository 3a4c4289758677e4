//! The 2×2 self-routing binary switch used in Banyan networks (paper §3.1,
//! Fig. 2 and §4.3).
//!
//! The switch inspects one destination-address bit per incoming packet
//! ("header data path"), allocates an output port, and then forwards payload
//! words through that output for the remainder of the packet ("payload data
//! path").  Structurally the generated circuit contains:
//!
//! * per-port input registers (one DFF per payload bit),
//! * an allocator (request/grant gates, ~a dozen cells),
//! * per-output bus-wide 2:1 multiplexers selecting the granted input,
//! * per-output output registers.

use crate::cells::CellKind;
use crate::netlist::{Netlist, NetlistError};

use super::build::{gate_bus, input_bus, mux_bus, register_bus};
use super::{SwitchCircuit, SwitchClass};

/// Builds a 2×2 Banyan binary switch with a `bus_width`-bit payload path.
///
/// Interface:
/// * 2 data input buses, 2 presence flags;
/// * 2 control inputs: the routed destination bit of the packet on each port
///   (`0` → output 0, `1` → output 1);
/// * 2 data output buses.
///
/// # Errors
///
/// Returns a [`NetlistError`] only if the internal construction is
/// inconsistent, which would indicate a bug in this generator.
///
/// # Examples
///
/// ```
/// use fabric_power_netlist::circuits::banyan_binary_switch;
///
/// let circuit = banyan_binary_switch(32)?;
/// assert_eq!(circuit.ports, 2);
/// assert_eq!(circuit.data_outputs.len(), 2);
/// # Ok::<(), fabric_power_netlist::netlist::NetlistError>(())
/// ```
pub fn banyan_binary_switch(bus_width: usize) -> Result<SwitchCircuit, NetlistError> {
    let mut netlist = Netlist::new();

    // --- interface ---------------------------------------------------------
    let data_in0 = input_bus(&mut netlist, bus_width);
    let data_in1 = input_bus(&mut netlist, bus_width);
    let present0 = netlist.add_input();
    let present1 = netlist.add_input();
    let dest0 = netlist.add_input();
    let dest1 = netlist.add_input();

    // --- input registers (payload data path) -------------------------------
    let reg_in0 = register_bus(&mut netlist, &data_in0)?;
    let reg_in1 = register_bus(&mut netlist, &data_in1)?;

    // --- allocator (header data path) ---------------------------------------
    // Requests: port p requests output 0 when its destination bit is 0.
    let ndest0 = netlist.add_net();
    let ndest1 = netlist.add_net();
    netlist.add_cell(CellKind::Inv, &[dest0], ndest0)?;
    netlist.add_cell(CellKind::Inv, &[dest1], ndest1)?;

    let req0_out0 = netlist.add_net();
    let req1_out0 = netlist.add_net();
    let req0_out1 = netlist.add_net();
    let req1_out1 = netlist.add_net();
    netlist.add_cell(CellKind::And2, &[present0, ndest0], req0_out0)?;
    netlist.add_cell(CellKind::And2, &[present1, ndest1], req1_out0)?;
    netlist.add_cell(CellKind::And2, &[present0, dest0], req0_out1)?;
    netlist.add_cell(CellKind::And2, &[present1, dest1], req1_out1)?;

    // Fixed-priority grants: port 0 wins ties (the loser is buffered by the
    // surrounding node-switch buffer, outside this circuit).
    let nreq0_out0 = netlist.add_net();
    let nreq0_out1 = netlist.add_net();
    netlist.add_cell(CellKind::Inv, &[req0_out0], nreq0_out0)?;
    netlist.add_cell(CellKind::Inv, &[req0_out1], nreq0_out1)?;

    let grant1_out0 = netlist.add_net();
    let grant1_out1 = netlist.add_net();
    netlist.add_cell(CellKind::And2, &[req1_out0, nreq0_out0], grant1_out0)?;
    netlist.add_cell(CellKind::And2, &[req1_out1, nreq0_out1], grant1_out1)?;

    // Output-enable per output port: any grant present.
    let enable_out0 = netlist.add_net();
    let enable_out1 = netlist.add_net();
    netlist.add_cell(CellKind::Or2, &[req0_out0, grant1_out0], enable_out0)?;
    netlist.add_cell(CellKind::Or2, &[req0_out1, grant1_out1], enable_out1)?;

    // --- payload data path ---------------------------------------------------
    // select = 1 chooses input port 1.
    let mux_out0 = mux_bus(&mut netlist, &reg_in0, &reg_in1, grant1_out0)?;
    let mux_out1 = mux_bus(&mut netlist, &reg_in0, &reg_in1, grant1_out1)?;

    // Gate the payload with the output enable so an idle output does not
    // toggle, then register it.
    let gated_out0 = gate_bus(&mut netlist, &mux_out0, enable_out0)?;
    let gated_out1 = gate_bus(&mut netlist, &mux_out1, enable_out1)?;
    let data_out0 = register_bus(&mut netlist, &gated_out0)?;
    let data_out1 = register_bus(&mut netlist, &gated_out1)?;

    for &net in data_out0.iter().chain(&data_out1) {
        netlist.mark_output(net)?;
    }

    #[cfg(debug_assertions)]
    netlist.validate_strict()?;

    Ok(SwitchCircuit {
        netlist,
        class: SwitchClass::BanyanBinary,
        ports: 2,
        bus_width,
        data_inputs: vec![data_in0, data_in1],
        presence_inputs: vec![present0, present1],
        control_inputs: vec![dest0, dest1],
        data_outputs: vec![data_out0, data_out1],
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library::CellLibrary;
    use crate::sim::Simulator;

    fn read_bus(sim: &Simulator<'_>, bus: &[crate::netlist::NetId]) -> u64 {
        bus.iter()
            .enumerate()
            .map(|(i, &n)| if sim.net_value(n) { 1 << i } else { 0 })
            .sum()
    }

    #[test]
    fn packet_on_port0_routes_to_requested_output() {
        let circuit = banyan_binary_switch(8).unwrap();
        let lib = CellLibrary::calibrated_018um();
        let mut sim = Simulator::new(&circuit.netlist, &lib).unwrap();

        // Packet on port 0 with destination bit 1 → output 1.
        let mut vector = circuit.blank_input_vector();
        circuit.set_input(&mut vector, circuit.presence_inputs[0], true);
        circuit.set_input(&mut vector, circuit.control_inputs[0], true);
        circuit.set_bus(&mut vector, 0, 0x5A);
        // Three cycles: input register, output register, observe.
        sim.step(&vector);
        sim.step(&vector);
        sim.step(&vector);
        assert_eq!(read_bus(&sim, &circuit.data_outputs[1]), 0x5A);
        assert_eq!(read_bus(&sim, &circuit.data_outputs[0]), 0);
    }

    #[test]
    fn both_packets_to_different_outputs_pass_simultaneously() {
        let circuit = banyan_binary_switch(8).unwrap();
        let lib = CellLibrary::calibrated_018um();
        let mut sim = Simulator::new(&circuit.netlist, &lib).unwrap();

        let mut vector = circuit.blank_input_vector();
        circuit.set_input(&mut vector, circuit.presence_inputs[0], true);
        circuit.set_input(&mut vector, circuit.presence_inputs[1], true);
        // port 0 → output 0, port 1 → output 1.
        circuit.set_input(&mut vector, circuit.control_inputs[0], false);
        circuit.set_input(&mut vector, circuit.control_inputs[1], true);
        circuit.set_bus(&mut vector, 0, 0x11);
        circuit.set_bus(&mut vector, 1, 0xEE);
        sim.step(&vector);
        sim.step(&vector);
        sim.step(&vector);
        assert_eq!(read_bus(&sim, &circuit.data_outputs[0]), 0x11);
        assert_eq!(read_bus(&sim, &circuit.data_outputs[1]), 0xEE);
    }

    #[test]
    fn contending_packets_give_priority_to_port0() {
        let circuit = banyan_binary_switch(8).unwrap();
        let lib = CellLibrary::calibrated_018um();
        let mut sim = Simulator::new(&circuit.netlist, &lib).unwrap();

        let mut vector = circuit.blank_input_vector();
        circuit.set_input(&mut vector, circuit.presence_inputs[0], true);
        circuit.set_input(&mut vector, circuit.presence_inputs[1], true);
        // Both packets want output 0: interconnect contention inside the node.
        circuit.set_input(&mut vector, circuit.control_inputs[0], false);
        circuit.set_input(&mut vector, circuit.control_inputs[1], false);
        circuit.set_bus(&mut vector, 0, 0x0F);
        circuit.set_bus(&mut vector, 1, 0xF0);
        sim.step(&vector);
        sim.step(&vector);
        sim.step(&vector);
        // Port 0 wins the output; port 1's payload must not appear there.
        assert_eq!(read_bus(&sim, &circuit.data_outputs[0]), 0x0F);
    }

    #[test]
    fn idle_switch_outputs_stay_quiet() {
        let circuit = banyan_binary_switch(8).unwrap();
        let lib = CellLibrary::calibrated_018um();
        let mut sim = Simulator::new(&circuit.netlist, &lib).unwrap();
        let mut vector = circuit.blank_input_vector();
        // Data wiggling but no packet present: outputs must stay 0.
        circuit.set_bus(&mut vector, 0, 0xFF);
        sim.step(&vector);
        sim.step(&vector);
        sim.step(&vector);
        assert_eq!(read_bus(&sim, &circuit.data_outputs[0]), 0);
        assert_eq!(read_bus(&sim, &circuit.data_outputs[1]), 0);
    }

    #[test]
    fn cell_count_is_a_few_hundred_for_32_bit_bus() {
        // The paper quotes "a few hundred gates to 10K gates" for node
        // switches; the 32-bit binary switch should be in that band.
        let circuit = banyan_binary_switch(32).unwrap();
        assert!(circuit.cell_count() >= 200, "{}", circuit.cell_count());
        assert!(circuit.cell_count() <= 2000, "{}", circuit.cell_count());
    }
}
