//! Prints the paper-conformance ledger (`fabric_power_core::paper`) and
//! exits 1 when a row does not hold. Takes no arguments.
//!
//! Run with `cargo run --release -p fabric-power-core --bin conform`.

fn main() -> Result<std::process::ExitCode, Box<dyn std::error::Error>> {
    let ledger = fabric_power_core::paper::Ledger::evaluate()?;
    fabric_power_sweep::write_stdout(&ledger.to_string())?;
    Ok(u8::from(!ledger.holds()).into())
}
