//! # fabric-power-router
//!
//! The bit-level, cycle-driven network-router simulation platform of the
//! DAC 2002 paper (its Simulink/C++ S-function environment rebuilt in Rust):
//! ingress/egress process units, a first-come-first-serve round-robin
//! arbiter with input buffering, synthetic TCP/IP-like traffic, and per-bit
//! energy tracing through any of the four switch-fabric architectures.
//!
//! * [`packet`] — packets with real random payload bits;
//! * [`traffic`] — offered-load-controlled packet generation (uniform,
//!   hot-spot and permutation destination patterns);
//! * [`energy`] — the three-component energy account (switches, buffers,
//!   wires);
//! * [`metrics`] — streaming latency-distribution metrics: a deterministic
//!   fixed-bin histogram behind the report's p50/p95/p99 fields;
//! * [`config`] — simulation configuration and the per-run report;
//! * [`route_table`] — every fabric path routed once with the paper's
//!   switch and wire arithmetic, straight into dense link and element ids,
//!   and every hop kind priced once under an energy model, at its port
//!   count, shared by the nodes of a mesh and by every simulator of a sweep;
//! * [`node`] — the reusable per-tick switching core of one router
//!   (injected traffic, shared with the `fabric-power-noc` network layer);
//! * [`sim`] — the single-router driver built on it.
//!
//! # Examples
//!
//! Reproduce one point of the paper's Figure 9 (16×16 Banyan at 30 % load):
//!
//! ```
//! use fabric_power_fabric::{Architecture, FabricEnergyModel};
//! use fabric_power_router::config::SimulationConfig;
//! use fabric_power_router::sim::RouterSimulator;
//! use std::sync::Arc;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let config = SimulationConfig {
//!     warmup_cycles: 100,
//!     measure_cycles: 800,
//!     ..SimulationConfig::new(Architecture::Banyan, 16, 0.3)
//! };
//! let model = Arc::new(FabricEnergyModel::paper(16)?);
//! let report = RouterSimulator::with_shared_model(config, model)?.run();
//! println!(
//!     "throughput {:.2}, power {}",
//!     report.measured_throughput(),
//!     report.average_power()
//! );
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod config;
pub mod energy;
pub mod metrics;
pub mod node;
pub mod packet;
pub mod route_table;
pub mod sim;
pub mod traffic;

pub use config::{SimulationConfig, SimulationReport};
pub use energy::EnergyAccount;
pub use node::RouterNode;
pub use packet::Packet;
pub use route_table::PricedRoutes;
pub use sim::RouterSimulator;
pub use traffic::TrafficPattern;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn public_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SimulationConfig>();
        assert_send_sync::<SimulationReport>();
        assert_send_sync::<RouterSimulator>();
        assert_send_sync::<EnergyAccount>();
    }
}
