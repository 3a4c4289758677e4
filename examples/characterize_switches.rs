//! Runs the gate-level characterization flow (the paper's Synopsys Power
//! Compiler substitute) for every node switch and prints the resulting
//! input-vector-indexed bit-energy LUTs next to the published Table 1.
//!
//! Run with `cargo run --release --example characterize_switches`.

use fabric_power_core::paper::table1_rows;
use fabric_power_core::prelude::*;
use fabric_power_netlist::circuits::{banyan_binary_switch, batcher_sorting_switch};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let library = CellLibrary::calibrated_018um();
    let config = CharacterizationConfig::quick();

    // Show the structural side first: how big are the generated circuits?
    let binary = banyan_binary_switch(32)?;
    let sorting = batcher_sorting_switch(32, 5)?;
    println!(
        "generated circuits: binary switch {} cells, sorting switch {} cells",
        binary.cell_count(),
        sorting.cell_count()
    );

    // Full Table 1 characterization at a 16-bit bus width to keep the example
    // fast, printed through the ledger's Table 1 rows.
    let ours = Table1::characterize(16, 4, &library, &config)?;
    for row in table1_rows(std::slice::from_ref(&ours)) {
        let (label, fj, paper) = (row.label, row.ours[0], row.paper);
        println!("{label:<18} {fj:>6.0} fJ (paper: {paper:.0} fJ)");
    }

    // The input-state dependence the paper highlights: two packets cost more
    // than one, but less than twice as much.
    let one = ours.banyan_binary.energy_for_active_count(1);
    let two = ours.banyan_binary.energy_for_active_count(2);
    println!(
        "binary switch: one packet {one}, two packets {two} ({}x)",
        (two / one * 100.0).round() / 100.0
    );
    Ok(())
}
