//! # fabric-power-fabric
//!
//! Structural and analytic models of the four switch-fabric architectures the
//! DAC 2002 paper analyzes: crossbar, fully-connected (MUX-based), Banyan and
//! Batcher-Banyan.
//!
//! * [`architecture`] — the [`Architecture`] enumeration and its properties;
//! * [`energy_model`] — the per-fabric bundle of bit-energy components
//!   (`E_S` LUTs, `E_B` buffer energy, `E_T` wire energy), built either from
//!   the paper's published values or from the substrate models;
//! * [`topology`] — per-architecture packet paths: which node switches a
//!   packet traverses, which interconnects it drives and where interconnect
//!   contention can occur (consumed by the `fabric-power-router` simulator);
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
pub mod topology;

pub use architecture::Architecture;
pub use energy_model::FabricEnergyModel;
pub use provider::{ModelKind, ModelProvider, ModelSpec};
pub use topology::{FabricTopology, PathHop, RoutePath, TopologyError};

/// The node-switch class a [`PathHop`] names, re-exported so path consumers
/// need not depend on the netlist crate.
pub use fabric_power_netlist::SwitchClass;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn public_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Architecture>();
        assert_send_sync::<FabricEnergyModel>();
        assert_send_sync::<FabricTopology>();
        assert_send_sync::<RoutePath>();
        assert_send_sync::<ModelProvider>();
        assert_send_sync::<ModelSpec>();
    }
}
