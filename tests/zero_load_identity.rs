//! A known answer from outside the simulator: Eq. 3–6 at zero load.
//!
//! The closed-form equations (`fabric_power_fabric::analytic`) give the
//! energy of one bit that flips on every segment of its path through an
//! otherwise idle fabric.  A lone 16-word packet whose words alternate
//! all-ones and all-zeros, on an idle `RouterNode` whose links all start at
//! zero, flips every bus bit of every word on every segment.  So under the
//! paper's model its simulated energy per bit must equal the equation's
//! worst-case bit energy, term by term: the switch energy the equation's
//! switch term and the wire energy `E_T_bit` times the equation's grids.
//! No contention occurs, so this is the Banyan at `qᵢ = 0`.
//!
//! With a random payload only the flipping bits cost wire energy, so the
//! wire energy of a lone packet is `E_T_bit` times the equation's grids
//! times the bit flips its words make on the bus, counted from the idle
//! all-zero link.

use std::sync::Arc;

use fabric_power_fabric::{analytic, Architecture, FabricEnergyModel};
use fabric_power_netlist::SwitchClass;
use fabric_power_router::{EnergyAccount, Packet, PricedRoutes, RouterNode};
use fabric_power_tech::constants::PAPER_PORT_COUNTS;
use fabric_power_thompson::wirelength;

const PACKET_WORDS: usize = 16;

/// The relative error the identity is held to: a few ulps of the sums.
const TOLERANCE: f64 = 1e-15;

/// Sends one packet carrying `payload` from the first port to the last
/// through an idle node and returns the energy it was charged.
fn lone_packet_energy(
    architecture: Architecture,
    model: &Arc<FabricEnergyModel>,
    payload: Vec<u64>,
) -> EnergyAccount {
    let ports = model.ports();
    let fabric = Arc::new(PricedRoutes::new(architecture, Arc::clone(model)));
    let mut node = RouterNode::new(fabric);
    node.begin_measurement();
    node.inject(
        0,
        Packet {
            id: 0,
            source: 0,
            destination: ports - 1,
            payload,
            arrival_cycle: 0,
        },
    );
    let mut completed = Vec::new();
    for cycle in 0..4 * PACKET_WORDS as u64 {
        node.step(cycle, &mut completed);
        if !completed.is_empty() {
            break;
        }
    }
    assert_eq!(
        completed.len(),
        1,
        "{architecture} {ports}: the packet completes"
    );
    assert_eq!(node.words_delivered(), PACKET_WORDS as u64);
    assert_eq!(
        node.buffered_words(),
        0,
        "{architecture} {ports}: no contention"
    );
    node.energy()
}

/// The equation's switch term and its wire grids, per bit.
fn equation_terms(architecture: Architecture, model: &FabricEnergyModel) -> (f64, u64) {
    let n = model.ports();
    let switch = |class| model.switch_bit_energy(class, 1).as_joules();
    let stages = f64::from(wirelength::banyan_stages(n));
    match architecture {
        Architecture::Crossbar => (
            switch(SwitchClass::CrossbarCrosspoint) * n as f64,
            wirelength::crossbar_bit_wire_grids(n),
        ),
        Architecture::FullyConnected => (
            switch(SwitchClass::Mux { inputs: n }),
            wirelength::fully_connected_bit_wire_grids(n),
        ),
        Architecture::Banyan => (
            switch(SwitchClass::BanyanBinary) * stages,
            wirelength::banyan_bit_wire_grids(n),
        ),
        Architecture::BatcherBanyan => (
            switch(SwitchClass::BatcherSorting) * wirelength::batcher_sorting_stages(n) as f64
                + switch(SwitchClass::BanyanBinary) * stages,
            wirelength::batcher_banyan_bit_wire_grids(n),
        ),
    }
}

fn assert_close(label: &str, simulated: f64, expected: f64) {
    let error = (simulated - expected).abs() / expected;
    assert!(
        error <= TOLERANCE,
        "{label}: simulated {simulated:e} J/bit, equation {expected:e} J/bit, relative error {error:e}"
    );
}

#[test]
fn a_lone_packet_costs_the_worst_case_bit_energy_of_eq_3_to_6() {
    for ports in PAPER_PORT_COUNTS {
        let model = Arc::new(FabricEnergyModel::paper(ports).expect("paper model"));
        let bits = (PACKET_WORDS as u64 * u64::from(model.bus_width_bits())) as f64;
        for architecture in Architecture::ALL {
            let label = format!("{architecture} {ports}x{ports}");
            // The transmitter masks each word to the bus width.
            let payload = (0..PACKET_WORDS)
                .map(|word| if word % 2 == 0 { u64::MAX } else { 0 })
                .collect();
            let energy = lone_packet_energy(architecture, &model, payload);
            assert!(energy.buffers.is_zero(), "{label}");
            assert_close(
                &label,
                energy.total().as_joules() / bits,
                analytic::worst_case_bit_energy(architecture, &model, 0).as_joules(),
            );
            let (switch, grids) = equation_terms(architecture, &model);
            assert_close(
                &format!("{label} switch"),
                energy.switches.as_joules() / bits,
                switch,
            );
            assert_close(
                &format!("{label} wire"),
                energy.wires.as_joules() / bits,
                model.wire_bit_energy(grids).as_joules(),
            );
        }
    }
}

#[test]
fn a_lone_random_packet_costs_e_t_bit_per_grid_per_flip() {
    for ports in PAPER_PORT_COUNTS {
        let model = Arc::new(FabricEnergyModel::paper(ports).expect("paper model"));
        // A seeded xorshift64 payload, full 64-bit words.
        let mut state = 0x2002_u64 + ports as u64;
        let payload: Vec<u64> = (0..PACKET_WORDS)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            })
            .collect();
        // Flips on the bus: each word against the previous one, the first
        // against the idle all-zero link, masked to the bus width.
        let mask = u64::MAX >> (64 - model.bus_width_bits());
        let flips: u32 = payload
            .iter()
            .scan(0_u64, |previous, &word| {
                let flips = ((word ^ *previous) & mask).count_ones();
                *previous = word;
                Some(flips)
            })
            .sum();
        for architecture in Architecture::ALL {
            let energy = lone_packet_energy(architecture, &model, payload.clone());
            let (_, grids) = equation_terms(architecture, &model);
            assert_close(
                &format!("{architecture} {ports}x{ports} wire, {flips} flips"),
                energy.wires.as_joules(),
                model.wire_bit_energy(grids).as_joules() * f64::from(flips),
            );
        }
    }
}
