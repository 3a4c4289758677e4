//! # fabric-power-core
//!
//! The bit-energy power-consumption analysis framework for network-router
//! switch fabrics — a Rust reproduction of *"Analysis of Power Consumption on
//! Switch Fabrics in Network Routers"* (Ye, Benini, De Micheli, DAC 2002).
//!
//! This crate ties the substrate crates together into the workflow the paper
//! describes:
//!
//! 1. **Characterize** the node switches at the gate level
//!    (`fabric-power-netlist`, Table 1) or load the paper's published LUTs;
//! 2. **Model** the internal buffers (`fabric-power-memory`, Table 2) and the
//!    interconnect wires (`fabric-power-tech` + `fabric-power-thompson`,
//!    `E_T_bit ≈ 87 fJ`);
//! 3. **Assemble** the per-fabric [`prelude::FabricEnergyModel`]
//!    (`fabric-power-fabric`) and evaluate either the closed-form worst-case
//!    equations (Eq. 3–6) or
//! 4. **Simulate** dynamic traffic bit-by-bit on the router platform
//!    (`fabric-power-router`, whose route tables cross the switches and
//!    drive the wires Eq. 3–6 count) and sweep load and fabric size to
//!    regenerate Figure 9 and Figure 10 (`fabric-power-sweep`:
//!    [`prelude::ThroughputSweep`], [`prelude::PortSweep`]);
//! 5. **Compare** every published number with ours: the ledger ([`paper`]).
//!
//! # Quick start
//!
//! ```
//! use fabric_power_core::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A reduced version of the paper's Figure 9 sweep.
//! let sweep = ThroughputSweep::run(&ExperimentConfig::quick())?;
//! let banyan_curve = sweep.curve(Architecture::Banyan, 8);
//! assert!(banyan_curve.last().unwrap().power > banyan_curve[0].power);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod paper;

/// Convenient re-exports of the most frequently used types from the whole
/// workspace, so downstream users can `use fabric_power_core::prelude::*`.
pub mod prelude {
    pub use fabric_power_fabric::analytic;
    pub use fabric_power_fabric::{Architecture, FabricEnergyModel};
    pub use fabric_power_memory::{MemoryModel, Table2};
    pub use fabric_power_netlist::{
        CellLibrary, CharacterizationConfig, SwitchClass, SwitchEnergyLut, Table1,
    };
    pub use fabric_power_router::{
        RouterSimulator, SimulationConfig, SimulationReport, TrafficPattern,
    };
    pub use fabric_power_tech::{Energy, Power, Technology, WireModel};

    pub use fabric_power_sweep::{
        merge_documents, ExperimentConfig, ModelProvider, ModelSource, ModelSpec, PortSweep,
        Scenario, ScenarioRegistry, SeedStrategy, Shard, ShardDocument, ShardStrategy,
        SweepDocument, SweepEngine, SweepPlan, SweepPoint, ThroughputSweep,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_exposes_the_full_pipeline() {
        // Analytic path.
        let model = FabricEnergyModel::paper(4).expect("model");
        assert!(analytic::banyan_bit_energy(&model, 0) < analytic::crossbar_bit_energy(&model));
        // Simulation path.
        let config = SimulationConfig {
            warmup_cycles: 100,
            measure_cycles: 800,
            ..SimulationConfig::new(Architecture::FullyConnected, 4, 0.2)
        };
        let report = RouterSimulator::with_shared_model(config, std::sync::Arc::new(model))
            .expect("simulation")
            .run();
        assert!(report.measured_throughput() > 0.0);
    }
}
