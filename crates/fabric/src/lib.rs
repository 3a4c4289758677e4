//! # fabric-power-fabric
//!
//! Energy and analytic models of the four switch-fabric architectures the
//! DAC 2002 paper analyzes: crossbar, fully-connected (MUX-based), Banyan and
//! Batcher-Banyan.
//!
//! * [`architecture`] — the [`Architecture`] enumeration and its properties;
//! * [`energy_model`] — the per-fabric bundle of bit-energy components
//!   (`E_S` LUTs, `E_B` buffer energy, `E_T` wire energy), built either from
//!   the paper's published values or from the substrate models;
//! * [`wirelength`] — the closed-form Thompson-grid wire lengths of each
//!   fabric, re-exported from `fabric-power-thompson` for the
//!   `fabric-power-router` route tables, which route every packet path from
//!   them;
//! * [`analytic`] — the closed-form worst-case bit-energy equations
//!   (paper Eq. 3–6);
//! * [`provider`] — the model-provider layer: every energy-model acquisition
//!   goes through a [`ModelProvider`] (in-memory memo plus an optional
//!   content-addressed on-disk cache), so expensive gate-level
//!   characterization happens once per `(ports, bus width, technology,
//!   characterization config, model source)` and every downstream consumer
//!   shares the result.
//!
//! # Examples
//!
//! ```
//! use fabric_power_fabric::analytic;
//! use fabric_power_fabric::energy_model::FabricEnergyModel;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let model = FabricEnergyModel::paper(16)?;
//! let banyan = analytic::banyan_bit_energy(&model, 0);
//! let crossbar = analytic::crossbar_bit_energy(&model);
//! // Without contention the Banyan's short wiring and few switches win.
//! assert!(banyan < crossbar);
//! // One buffered stage is enough to flip the comparison (buffer penalty).
//! assert!(analytic::banyan_bit_energy(&model, 1) > crossbar);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod analytic;
pub mod architecture;
pub mod energy_model;
pub mod provider;

pub use architecture::Architecture;
pub use energy_model::FabricEnergyModel;
pub use provider::{ModelKind, ModelProvider, ModelSpec};

/// The node-switch class of a route hop, re-exported so the router need not
/// depend on the netlist crate.
pub use fabric_power_netlist::SwitchClass;

/// The closed-form wire lengths, re-exported so the router need not depend
/// on the Thompson crate.
pub use fabric_power_thompson::wirelength;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn public_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Architecture>();
        assert_send_sync::<FabricEnergyModel>();
        assert_send_sync::<ModelProvider>();
        assert_send_sync::<ModelSpec>();
    }
}
