//! Regenerates **Table 1** — node-switch bit energy under different input
//! vectors — by characterizing the generated gate-level circuits and printing
//! them next to the paper's published values.
//!
//! The paper characterizes 32-bit-wide data paths on 0.18 µm cells; the
//! sorting switch compares 5-bit addresses, i.e. log2(32).  This is the
//! characterization `tests/golden/table1_characterized.json` pins.
//!
//! Run with `cargo run --release -p fabric-power-bench --bin table1`.

use fabric_power_core::report::format_table1;
use fabric_power_netlist::{CellLibrary, CharacterizationConfig, Table1};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let ours = Table1::characterize(
        32,
        5,
        &CellLibrary::calibrated_018um(),
        &CharacterizationConfig::default(),
    )?;
    println!("{}", format_table1(&ours, &Table1::paper()));
    println!(
        "(ratio = characterized / paper; the qualitative ordering is the result that matters)"
    );
    Ok(())
}
