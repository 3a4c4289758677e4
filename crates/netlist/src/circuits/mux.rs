//! The N-input multiplexer used by the fully-connected fabric (paper §4.2).
//!
//! Each egress port of a fully-connected network owns one N-input MUX that
//! aggregates every ingress bus; the arbiter drives the select lines.  Every
//! ingress bus toggles the first multiplexer level whether or not it is the
//! selected one, which is why the characterized bit energy grows with N
//! (paper Table 1: 431 fJ at N = 4 up to 2515 fJ at N = 32).

use crate::cells::CellKind;
use crate::netlist::{NetId, Netlist, NetlistError};

use super::build::{input_bus, net_bus, register_bus};
use super::{SwitchCircuit, SwitchClass};

/// Builds an `inputs`-input multiplexer over a `bus_width`-bit payload bus.
///
/// `inputs` must be a power of two and at least 2 (the select lines encode a
/// binary port index).
///
/// Interface:
/// * `inputs` data input buses, `inputs` presence flags (presence is not used
///   by the datapath — an idle ingress bus simply stays static);
/// * `log2(inputs)` control inputs: the binary select lines;
/// * 1 data output bus.
///
/// # Errors
///
/// Returns a [`NetlistError`] only if the internal construction is
/// inconsistent, which would indicate a bug in this generator.
///
/// # Panics
///
/// Panics if `inputs` is not a power of two or is smaller than 2.
///
/// # Examples
///
/// ```
/// use fabric_power_netlist::circuits::n_input_mux;
///
/// let circuit = n_input_mux(8, 32)?;
/// assert_eq!(circuit.ports, 8);
/// assert_eq!(circuit.control_inputs.len(), 3);
/// # Ok::<(), fabric_power_netlist::netlist::NetlistError>(())
/// ```
pub fn n_input_mux(inputs: usize, bus_width: usize) -> Result<SwitchCircuit, NetlistError> {
    assert!(
        inputs >= 2 && inputs.is_power_of_two(),
        "the N-input MUX requires a power-of-two input count >= 2, got {inputs}"
    );
    let select_bits = inputs.trailing_zeros() as usize;
    let mut netlist = Netlist::new();

    let data_inputs: Vec<Vec<NetId>> = (0..inputs)
        .map(|_| input_bus(&mut netlist, bus_width))
        .collect();
    let presence_inputs: Vec<NetId> = (0..inputs).map(|_| netlist.add_input()).collect();
    let select: Vec<NetId> = (0..select_bits).map(|_| netlist.add_input()).collect();

    // Binary multiplexer tree, one per payload bit. Level `l` consumes pairs
    // of the previous level and is steered by select bit `l`.
    let mut current: Vec<Vec<NetId>> = data_inputs.clone();
    for &sel in &select {
        let half = current.len() / 2;
        let mut next: Vec<Vec<NetId>> = Vec::with_capacity(half);
        for pair in 0..half {
            let a = &current[2 * pair];
            let b = &current[2 * pair + 1];
            let y = net_bus(&mut netlist, bus_width);
            for bit in 0..bus_width {
                netlist.add_cell(CellKind::Mux2, &[a[bit], b[bit], sel], y[bit])?;
            }
            next.push(y);
        }
        current = next;
    }
    debug_assert_eq!(current.len(), 1);

    // Registered output stage.
    let data_out = register_bus(&mut netlist, &current[0])?;
    for &net in &data_out {
        netlist.mark_output(net)?;
    }

    #[cfg(debug_assertions)]
    netlist.validate_strict()?;

    Ok(SwitchCircuit {
        netlist,
        class: SwitchClass::Mux { inputs },
        ports: inputs,
        bus_width,
        data_inputs,
        presence_inputs,
        control_inputs: select,
        data_outputs: vec![data_out],
    })
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

    #[test]
    fn mux_selects_the_addressed_input() {
        let circuit = n_input_mux(4, 8).unwrap();
        let lib = CellLibrary::calibrated_018um();

        for selected in 0..4_usize {
            let mut sim = Simulator::new(&circuit.netlist, &lib).unwrap();
            let mut vector = circuit.blank_input_vector();
            for port in 0..4 {
                circuit.set_bus(&mut vector, port, 0x10 + port as u64);
            }
            for (bit, &net) in circuit.control_inputs.iter().enumerate() {
                circuit.set_input(&mut vector, net, (selected >> bit) & 1 == 1);
            }
            sim.step(&vector);
            sim.step(&vector);
            assert_eq!(
                read_bus(&sim, &circuit.data_outputs[0]),
                0x10 + selected as u64,
                "select={selected}"
            );
        }
    }

    #[test]
    fn select_lines_count_is_log2_of_inputs() {
        assert_eq!(n_input_mux(4, 8).unwrap().control_inputs.len(), 2);
        assert_eq!(n_input_mux(16, 8).unwrap().control_inputs.len(), 4);
        assert_eq!(n_input_mux(32, 8).unwrap().control_inputs.len(), 5);
    }

    #[test]
    fn mux_cell_count_grows_roughly_linearly_with_inputs() {
        let m4 = n_input_mux(4, 32).unwrap().cell_count() as f64;
        let m8 = n_input_mux(8, 32).unwrap().cell_count() as f64;
        let m16 = n_input_mux(16, 32).unwrap().cell_count() as f64;
        assert!(m8 / m4 > 1.5);
        assert!(m16 / m8 > 1.5);
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn non_power_of_two_inputs_panic() {
        let _ = n_input_mux(6, 8);
    }
}
