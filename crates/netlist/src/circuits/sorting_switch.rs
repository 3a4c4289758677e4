//! The 2×2 sorting (compare-exchange) switch used in Batcher sorting
//! networks (paper §4.4).
//!
//! A Batcher sorting element compares the destination addresses of the two
//! incoming packets and exchanges them if they are out of order, so that the
//! following Banyan network receives a contention-free permutation.  Compared
//! with the plain binary switch it adds a full magnitude comparator over the
//! destination addresses, which is why its characterized bit energy is higher
//! (paper Table 1: 1253 fJ vs 1080 fJ for one active input).

use crate::cells::CellKind;
use crate::netlist::{NetId, Netlist, NetlistError};

use super::build::{gate_bus, input_bus, mux_bus, net_bus, register_bus};
use super::{SwitchCircuit, SwitchClass};

/// Builds a 2×2 Batcher sorting switch.
///
/// * `bus_width` — payload bus width in bits;
/// * `address_bits` — width of the destination address that is compared.
///
/// Interface:
/// * 2 data input buses, 2 presence flags;
/// * `2 × address_bits` control inputs: the destination address of the packet
///   on port 0 followed by the address on port 1 (LSB first);
/// * 2 data output buses (output 0 carries the smaller address after sorting).
///
/// # Errors
///
/// Returns a [`NetlistError`] only if the internal construction is
/// inconsistent, which would indicate a bug in this generator.
///
/// # Examples
///
/// ```
/// use fabric_power_netlist::circuits::batcher_sorting_switch;
///
/// let circuit = batcher_sorting_switch(32, 6)?;
/// assert_eq!(circuit.control_inputs.len(), 12);
/// circuit.netlist.validate()?;
/// # Ok::<(), fabric_power_netlist::netlist::NetlistError>(())
/// ```
pub fn batcher_sorting_switch(
    bus_width: usize,
    address_bits: usize,
) -> Result<SwitchCircuit, NetlistError> {
    assert!(
        address_bits > 0,
        "a sorting switch needs at least one address bit"
    );
    let mut netlist = Netlist::new();

    // --- interface ---------------------------------------------------------
    let data_in0 = input_bus(&mut netlist, bus_width);
    let data_in1 = input_bus(&mut netlist, bus_width);
    let present0 = netlist.add_input();
    let present1 = netlist.add_input();
    let addr0 = input_bus(&mut netlist, address_bits);
    let addr1 = input_bus(&mut netlist, address_bits);

    // --- input registers -----------------------------------------------------
    let reg_in0 = register_bus(&mut netlist, &data_in0)?;
    let reg_in1 = register_bus(&mut netlist, &data_in1)?;

    // --- magnitude comparator: swap = (addr0 > addr1) -----------------------
    let swap_raw = build_greater_than(&mut netlist, &addr0, &addr1)?;

    // Only swap when both packets are present; an idle port must not steal the
    // other packet's slot (an absent packet sorts as "infinitely large").
    let both_present = netlist.add_net();
    netlist.add_cell(CellKind::And2, &[present0, present1], both_present)?;
    // If only port 1 has a packet it must exit on output 0 (packets are
    // compacted towards the low output), which is also a "swap".
    let npresent0 = netlist.add_net();
    netlist.add_cell(CellKind::Inv, &[present0], npresent0)?;
    let only_port1 = netlist.add_net();
    netlist.add_cell(CellKind::And2, &[present1, npresent0], only_port1)?;
    let swap_if_both = netlist.add_net();
    netlist.add_cell(CellKind::And2, &[swap_raw, both_present], swap_if_both)?;
    let swap = netlist.add_net();
    netlist.add_cell(CellKind::Or2, &[swap_if_both, only_port1], swap)?;

    // --- exchange stage ------------------------------------------------------
    // Output 0 takes port1 when swapping, output 1 takes port0 when swapping.
    let mux_out0 = mux_bus(&mut netlist, &reg_in0, &reg_in1, swap)?;
    let mux_out1 = mux_bus(&mut netlist, &reg_in1, &reg_in0, swap)?;

    // Gate idle outputs so they do not toggle when no packet leaves there.
    let any_present = netlist.add_net();
    netlist.add_cell(CellKind::Or2, &[present0, present1], any_present)?;
    let gated_out0 = gate_bus(&mut netlist, &mux_out0, any_present)?;
    let gated_out1 = gate_bus(&mut netlist, &mux_out1, both_present)?;

    // --- header forwarding ---------------------------------------------------
    // A Batcher element forwards the destination address along with the
    // payload so that later sorting stages (and the final Banyan stage) can
    // keep comparing it; the header follows the same exchange decision.
    let addr_out0_mux = mux_bus(&mut netlist, &addr0, &addr1, swap)?;
    let addr_out1_mux = mux_bus(&mut netlist, &addr1, &addr0, swap)?;
    let addr_out0 = register_bus(&mut netlist, &addr_out0_mux)?;
    let addr_out1 = register_bus(&mut netlist, &addr_out1_mux)?;
    for &net in addr_out0.iter().chain(&addr_out1) {
        netlist.mark_output(net)?;
    }

    // --- output registers ----------------------------------------------------
    let data_out0 = register_bus(&mut netlist, &gated_out0)?;
    let data_out1 = register_bus(&mut netlist, &gated_out1)?;
    for &net in data_out0.iter().chain(&data_out1) {
        netlist.mark_output(net)?;
    }

    let mut control_inputs = addr0;
    control_inputs.extend(addr1);

    #[cfg(debug_assertions)]
    netlist.validate_strict()?;

    Ok(SwitchCircuit {
        netlist,
        class: SwitchClass::BatcherSorting,
        ports: 2,
        bus_width,
        data_inputs: vec![data_in0, data_in1],
        presence_inputs: vec![present0, present1],
        control_inputs,
        data_outputs: vec![data_out0, data_out1],
    })
}

/// Builds an unsigned magnitude comparator returning a net that is high when
/// `a > b`. Both operands are LSB-first.
fn build_greater_than(
    netlist: &mut Netlist,
    a: &[NetId],
    b: &[NetId],
) -> Result<NetId, NetlistError> {
    assert_eq!(a.len(), b.len());
    let width = a.len();
    // Per-bit equality and "a wins at this bit".
    let eq = net_bus(netlist, width);
    let gt = net_bus(netlist, width);
    for i in 0..width {
        netlist.add_cell(CellKind::Xnor2, &[a[i], b[i]], eq[i])?;
        let nb = netlist.add_net();
        netlist.add_cell(CellKind::Inv, &[b[i]], nb)?;
        netlist.add_cell(CellKind::And2, &[a[i], nb], gt[i])?;
    }
    // Ripple from the LSB up: after bit i, greater = gt[i] | (eq[i] & greater_below).
    // The final value after the MSB gives higher bits priority, as required.
    let mut greater = gt[0];
    for i in 1..width {
        let lower_and_eq = netlist.add_net();
        netlist.add_cell(CellKind::And2, &[eq[i], greater], lower_and_eq)?;
        let next = netlist.add_net();
        netlist.add_cell(CellKind::Or2, &[gt[i], lower_and_eq], next)?;
        greater = next;
    }
    Ok(greater)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library::CellLibrary;
    use crate::sim::Simulator;

    fn read_bus(sim: &Simulator<'_>, bus: &[NetId]) -> u64 {
        bus.iter()
            .enumerate()
            .map(|(i, &n)| if sim.net_value(n) { 1 << i } else { 0 })
            .sum()
    }

    fn drive(
        circuit: &SwitchCircuit,
        addr_bits: usize,
        present: [bool; 2],
        addr: [u64; 2],
        data: [u64; 2],
    ) -> Vec<bool> {
        let mut vector = circuit.blank_input_vector();
        for port in 0..2 {
            circuit.set_input(&mut vector, circuit.presence_inputs[port], present[port]);
            circuit.set_bus(&mut vector, port, data[port]);
            for bit in 0..addr_bits {
                let net = circuit.control_inputs[port * addr_bits + bit];
                circuit.set_input(&mut vector, net, (addr[port] >> bit) & 1 == 1);
            }
        }
        vector
    }

    #[test]
    fn in_order_packets_pass_straight_through() {
        let circuit = batcher_sorting_switch(8, 4).unwrap();
        let lib = CellLibrary::calibrated_018um();
        let mut sim = Simulator::new(&circuit.netlist, &lib).unwrap();
        let v = drive(&circuit, 4, [true, true], [2, 9], [0x21, 0x43]);
        sim.step(&v);
        sim.step(&v);
        sim.step(&v);
        assert_eq!(read_bus(&sim, &circuit.data_outputs[0]), 0x21);
        assert_eq!(read_bus(&sim, &circuit.data_outputs[1]), 0x43);
    }

    #[test]
    fn out_of_order_packets_are_exchanged() {
        let circuit = batcher_sorting_switch(8, 4).unwrap();
        let lib = CellLibrary::calibrated_018um();
        let mut sim = Simulator::new(&circuit.netlist, &lib).unwrap();
        let v = drive(&circuit, 4, [true, true], [11, 3], [0xAA, 0x55]);
        sim.step(&v);
        sim.step(&v);
        sim.step(&v);
        // Port 0 carried the larger address, so its payload leaves on output 1.
        assert_eq!(read_bus(&sim, &circuit.data_outputs[0]), 0x55);
        assert_eq!(read_bus(&sim, &circuit.data_outputs[1]), 0xAA);
    }

    #[test]
    fn lone_packet_on_port1_is_compacted_to_output0() {
        let circuit = batcher_sorting_switch(8, 4).unwrap();
        let lib = CellLibrary::calibrated_018um();
        let mut sim = Simulator::new(&circuit.netlist, &lib).unwrap();
        let v = drive(&circuit, 4, [false, true], [0, 6], [0x00, 0x3C]);
        sim.step(&v);
        sim.step(&v);
        sim.step(&v);
        assert_eq!(read_bus(&sim, &circuit.data_outputs[0]), 0x3C);
        assert_eq!(read_bus(&sim, &circuit.data_outputs[1]), 0x00);
    }

    #[test]
    fn equal_addresses_do_not_swap() {
        let circuit = batcher_sorting_switch(8, 4).unwrap();
        let lib = CellLibrary::calibrated_018um();
        let mut sim = Simulator::new(&circuit.netlist, &lib).unwrap();
        let v = drive(&circuit, 4, [true, true], [5, 5], [0x01, 0x02]);
        sim.step(&v);
        sim.step(&v);
        sim.step(&v);
        assert_eq!(read_bus(&sim, &circuit.data_outputs[0]), 0x01);
        assert_eq!(read_bus(&sim, &circuit.data_outputs[1]), 0x02);
    }

    #[test]
    fn sorting_switch_has_more_cells_than_binary_switch() {
        let sorting = batcher_sorting_switch(32, 6).unwrap().cell_count();
        let binary = super::super::banyan_binary_switch(32).unwrap().cell_count();
        assert!(sorting > binary, "{sorting} !> {binary}");
    }
}
