//! # fabric-power-netlist
//!
//! A gate-level netlist substrate and power-characterization engine: the
//! from-scratch replacement for the Synopsys Power Compiler flow the DAC 2002
//! paper uses to pre-compute its node-switch bit-energy look-up tables
//! (Table 1).
//!
//! The crate is organized bottom-up:
//!
//! * [`cells`] / [`library`] — a minimal 0.18 µm standard-cell set with
//!   calibrated switching energies: exactly the kinds the [`circuits`]
//!   generators instantiate, so a kind comes back with the generator that
//!   needs it;
//! * [`netlist`] — the (unnamed) netlist graph and structural validation;
//! * [`sim`] — per-toggle energy accounting ([`sim::EnergyTables`]); the
//!   crate's tests also hold a scalar, bool-per-net reference simulator
//!   there, the oracle the packed engine is checked against;
//! * [`schedule`] — levelization of a netlist into the flat, level-ordered
//!   [`EvalSchedule`] the characterization engine executes, optionally
//!   without the cells that only forward a held input;
//! * [`packed`] — the characterization engine: 64-lane bit-parallel
//!   simulation from the compiled schedule alone, one word-and-toggle-count
//!   slot per net, inputs that persist between steps (a step writes only
//!   the inputs that change), one pass over every scheduled cell per step,
//!   lane toggles counted with popcounts, energies bit-identical to
//!   per-lane scalar runs;
//! * [`circuits`] — generators for the four node-switch circuits the paper
//!   characterizes (crossbar crosspoint, Banyan 2×2 binary switch, Batcher
//!   2×2 sorting switch, N-input MUX);
//! * [`compiled`] — a switch circuit compiled for one cell library
//!   (schedule, energy tables, stimulus positions; no netlist), and the
//!   process-wide memo that compiles each standard circuit once;
//! * [`characterize`] — drives random payload through the generated circuits
//!   (one stimulus definition for the packed engine and the tests' scalar
//!   oracle) and produces [`lut::SwitchEnergyLut`] tables;
//! * [`lut`] — the bit-energy tables keyed by active-port count, including
//!   the paper's published Table 1 values as a reference dataset.
//!
//! # Examples
//!
//! Characterize the Banyan binary switch and compare it with the paper's
//! published value:
//!
//! ```
//! use fabric_power_netlist::characterize::{characterize_class, CharacterizationConfig};
//! use fabric_power_netlist::circuits::SwitchClass;
//! use fabric_power_netlist::library::CellLibrary;
//! use fabric_power_netlist::lut::SwitchEnergyLut;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let library = CellLibrary::calibrated_018um();
//! let config = CharacterizationConfig::quick();
//! let ours = characterize_class(SwitchClass::BanyanBinary, 16, 4, &library, &config)?;
//! let paper = SwitchEnergyLut::paper_banyan_binary();
//! // Both agree that a busy switch costs more than an idle one.
//! assert!(ours.energy_for_active_count(1) > ours.energy_for_active_count(0));
//! assert!(paper.energy_for_active_count(1) > paper.energy_for_active_count(0));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cells;
pub mod characterize;
pub mod circuits;
pub mod compiled;
pub mod library;
pub mod lut;
pub mod netlist;
pub mod packed;
pub mod schedule;
pub mod sim;

pub use cells::CellKind;
pub use characterize::{characterize_class, characterize_switch, CharacterizationConfig, Table1};
pub use circuits::SwitchClass;
pub use compiled::compiled_switch;
pub use library::CellLibrary;
pub use lut::SwitchEnergyLut;
pub use schedule::EvalSchedule;

#[cfg(test)]
mod tests;
