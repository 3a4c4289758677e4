//! # fabric-power-sweep
//!
//! The experiment-orchestration subsystem of the `fabric-power` workspace:
//! everything between "a grid of operating points I want evaluated" and "a
//! deterministic, structured result file".
//!
//! The paper's evaluation is a large grid — 4 architectures × {4, 8, 16, 32}
//! ports × 5 offered loads × traffic patterns — and every future scaling
//! direction (more patterns, more sizes, derived models) only makes it
//! larger.  This crate owns that problem end to end:
//!
//! * [`config`] — [`ExperimentConfig`]: the declarative description of a
//!   sweep grid, optionally with a [`NetworkSweepConfig`] mesh axis that turns every operating point
//!   into a network-of-routers run (`noc-*` scenarios);
//! * [`cell`] — [`SweepCell`]: one flattened operating point with its own
//!   deterministic RNG seed, and [`SweepPoint`], the measured result —
//!   including mean **and p50/p95/p99** latency from the simulator's
//!   streaming latency histogram;
//! * [`plan`] — [`SweepPlan`] expands a scenario into the flat seeded cell
//!   list once and splits it into contiguous, self-describing [`Shard`]s;
//! * `executor` — a self-scheduling parallel map over cells: worker
//!   threads pull the next unclaimed cell from a shared cursor, so load
//!   balances dynamically and the result order never depends on scheduling;
//! * [`engine`] — [`SweepEngine`]: runs a grid, a whole plan or a single
//!   shard, acquiring one immutable
//!   [`fabric_power_fabric::FabricEnergyModel`] per fabric size through a
//!   [`fabric_power_fabric::ModelProvider`] (by default the process-wide
//!   in-memory memo) and sharing it across threads via [`std::sync::Arc`].
//!   Results are **bit-identical regardless of thread count**;
//! * [`merge`] — recombines partial [`ShardDocument`]s by cell index into a
//!   document byte-identical to a one-shard run, refusing overlapping or
//!   missing cells — and any part whose own self-description (shard index,
//!   cell range) does not hold up;
//! * [`diff`] — cell-oriented comparison of two result documents
//!   (`fabric-power diff`);
//! * [`sweeps`] — [`ThroughputSweep`] / [`PortSweep`]: the Figure 9/10
//!   datasets, lookup views over sweep points (power and latency per
//!   operating point, the cheapest architecture, the fully-connected vs.
//!   Batcher-Banyan gap) that `report` prints from;
//! * [`registry`] — [`ScenarioRegistry`]: named, JSON-round-trippable
//!   workload definitions (`paper-fig9`, `hotspot-ablation`, `tornado`, …);
//! * [`emit`] — structured emitters: deterministic JSON and CSV documents,
//!   and the one table of a point's reported values by CSV column name that
//!   the CSV table and [`diff`] share;
//! * [`report`] — plain-text summaries for the `fabric-power report` CLI,
//!   the one way to print Figures 9 and 10: per-size power and latency
//!   tables, the cheapest architecture and the fully-connected vs.
//!   Batcher-Banyan gap per load, once per mesh.
//!
//! The `fabric-power` binary in `src/bin/` is the user-facing entry point:
//!
//! ```text
//! fabric-power list-scenarios
//! fabric-power sweep --scenario paper-fig9 --threads 8 --out fig9.json
//! fabric-power diff fig9-a.json fig9-b.json
//! fabric-power report --in fig9.json
//! ```
//!
//! # Determinism
//!
//! Two sweeps of the same scenario with the same base seed produce
//! byte-identical JSON no matter how many worker threads run them.  Each
//! cell's simulation is seeded before execution starts — either with the
//! shared base seed ([`SeedStrategy::Shared`], matching the original
//! sequential implementation point for point) or with a per-cell seed mixed
//! from `(base_seed, architecture, ports, load, pattern)`
//! ([`SeedStrategy::PerCell`], decorrelating the traffic across cells) — and
//! results are written back by cell index, not completion order.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cell;
pub mod config;
pub mod diff;
pub mod emit;
pub mod engine;
pub(crate) mod executor;
pub mod merge;
pub mod plan;
pub mod registry;
pub mod report;
pub mod sweeps;

pub use cell::{SeedStrategy, SweepCell, SweepPoint};
pub use config::{ExperimentConfig, ExperimentError, MeshSize, ModelSource, NetworkSweepConfig};
pub use diff::diff_documents;
pub use emit::{write_atomic, write_stdout, SweepDocument};
pub use engine::SweepEngine;
pub use fabric_power_fabric::provider::{ModelProvider, ModelSpec};
pub use merge::{merge_documents, MergeError, ShardDocument};
pub use plan::{Shard, ShardStrategy, SweepPlan};
pub use registry::{Scenario, ScenarioRegistry};
pub use sweeps::{PortSweep, ThroughputSweep};
