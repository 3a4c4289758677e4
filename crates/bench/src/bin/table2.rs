//! Regenerates **Table 2** — Banyan shared-buffer bit energy per fabric size
//! — from the structural SRAM model and prints it next to the paper's
//! published values.
//!
//! Run with `cargo run --release -p fabric-power-bench --bin table2`.

use fabric_power_core::report::format_table2;
use fabric_power_memory::Table2;
use fabric_power_tech::constants::PAPER_PORT_COUNTS;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let computed = Table2::compute(&PAPER_PORT_COUNTS)?;
    println!("{}", format_table2(&computed, &Table2::paper()));
    Ok(())
}
