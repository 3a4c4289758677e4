//! Evaluates the closed-form worst-case bit-energy equations (Eq. 3–6) over
//! a range of fabric sizes — the analytic counterpart of Figures 9/10.
//!
//! Run with `cargo run --release -p fabric-power-bench --bin analytic_model`.

use fabric_power_core::report::format_analytic_table;
use fabric_power_fabric::analytic::analytic_table;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let rows = analytic_table(&[4, 8, 16, 32, 64, 128])?;
    println!("{}", format_analytic_table(&rows));
    println!("Notes:");
    println!("  * one contended Banyan stage adds one buffer access per bit (the buffer penalty),");
    println!("    which immediately dominates every other term;");
    println!("  * the fully-connected wire term grows as N^2/2 and overtakes the crossbar's 8N");
    println!(
        "    around N = 32 — the paper's remark that interconnect power dominates large fabrics."
    );
    Ok(())
}
