//! # fabric-power-noc
//!
//! The tick-based network-of-routers layer: meshes and tori of the paper's
//! switch-fabric routers, joined by credit/backpressure links, with per-hop
//! energy attribution rolled up from the per-switch energy models.
//!
//! Each grid node is a full [`fabric_power_router::RouterNode`] — the same
//! per-cycle switching core the single-router simulator drives — with fabric
//! port 0 reserved for local injection/ejection and ports 1–4 wired to the
//! four grid directions.  A deterministic global tick loop injects traffic
//! from per-node seeded sources, routes packets hop by hop
//! (dimension-order or minimal-adaptive), enforces per-link credit depths,
//! and charges link-traversal wire energy against per-link polarity state.
//!
//! * [`topology`] — grid shapes (mesh/torus), directions, routing policies;
//! * [`config`] — [`NetworkConfig`] knobs and the [`NetworkReport`] /
//!   [`NetworkStats`] output schema;
//! * [`sim`] — the [`NetworkSimulator`] tick loop.
//!
//! A 1×1 network degrades to the single-router simulation *exactly*: same
//! RNG stream, same report bytes — pinned by tests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod config;
pub mod sim;
pub mod topology;

pub use config::{NetworkConfig, NetworkReport, NetworkStats};
pub use sim::{NetworkError, NetworkSimulator};
pub use topology::RoutingPolicy;
