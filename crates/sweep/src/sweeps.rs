//! The Figure 9 / Figure 10 datasets, as thin views over sweep points.
//!
//! `fabric-power report` prints both figures through these lookups.  `run`
//! evaluates a grid on a default [`SweepEngine`] (every core, shared seed,
//! canonical order); for threads, seeding or a model provider of your own,
//! wrap the points that [`SweepEngine::run`] returns on a configured engine.

use serde::{Deserialize, Serialize};

use fabric_power_fabric::Architecture;
use fabric_power_tech::units::Power;

use crate::cell::SweepPoint;
use crate::config::{ExperimentConfig, ExperimentError};
use crate::engine::SweepEngine;

/// The data behind Figure 9: power vs. offered throughput for every
/// architecture and fabric size.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ThroughputSweep {
    /// All simulated points.
    pub points: Vec<SweepPoint>,
}

impl ThroughputSweep {
    /// Runs the sweep described by `config` on every available core.
    ///
    /// Results are bit-identical to the original sequential implementation:
    /// the engine uses the shared-seed strategy and reports points in the
    /// same ports → architecture → load order.
    ///
    /// # Errors
    ///
    /// Propagates model and simulation errors.
    pub fn run(config: &ExperimentConfig) -> Result<Self, ExperimentError> {
        Ok(Self {
            points: SweepEngine::new().run(config)?,
        })
    }

    /// Points of one architecture at one fabric size, ordered by offered load
    /// (one curve of Figure 9).
    #[must_use]
    pub fn curve(&self, architecture: Architecture, ports: usize) -> Vec<&SweepPoint> {
        let mut points: Vec<&SweepPoint> = self
            .points
            .iter()
            .filter(|p| p.architecture == architecture && p.ports == ports)
            .collect();
        points.sort_by(|a, b| a.offered_load.total_cmp(&b.offered_load));
        points
    }

    /// The full measured point at one operating point, if it was simulated.
    #[must_use]
    pub fn point(
        &self,
        architecture: Architecture,
        ports: usize,
        offered_load: f64,
    ) -> Option<&SweepPoint> {
        self.points.iter().find(|p| {
            p.architecture == architecture
                && p.ports == ports
                && (p.offered_load - offered_load).abs() < 1e-9
        })
    }

    /// The power of one operating point, if it was simulated.
    #[must_use]
    pub fn power(
        &self,
        architecture: Architecture,
        ports: usize,
        offered_load: f64,
    ) -> Option<Power> {
        self.point(architecture, ports, offered_load)
            .map(|p| p.power)
    }

    /// The architecture with the lowest power at the given size and load.
    #[must_use]
    pub fn cheapest(&self, ports: usize, offered_load: f64) -> Option<Architecture> {
        self.points
            .iter()
            .filter(|p| p.ports == ports && (p.offered_load - offered_load).abs() < 1e-9)
            .min_by(|a, b| a.power.as_watts().total_cmp(&b.power.as_watts()))
            .map(|p| p.architecture)
    }
}

/// The data behind Figure 10: power vs. number of ports at one fixed load.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PortSweep {
    /// Offered load shared by every point (the paper uses 50 %).
    pub offered_load: f64,
    /// All simulated points.
    pub points: Vec<SweepPoint>,
}

impl PortSweep {
    /// Runs the port sweep at `offered_load` over the configured sizes.
    ///
    /// # Errors
    ///
    /// Propagates model and simulation errors.
    pub fn run(config: &ExperimentConfig, offered_load: f64) -> Result<Self, ExperimentError> {
        let single = ExperimentConfig {
            offered_loads: vec![offered_load],
            ..config.clone()
        };
        Ok(Self {
            offered_load,
            points: ThroughputSweep::run(&single)?.points,
        })
    }

    /// Power of one architecture at one size.
    #[must_use]
    pub fn power(&self, architecture: Architecture, ports: usize) -> Option<Power> {
        self.points
            .iter()
            .find(|p| p.architecture == architecture && p.ports == ports)
            .map(|p| p.power)
    }

    /// Relative power gap between the fully-connected fabric and the
    /// Batcher-Banyan at one size: `(P_batcher − P_fc) / P_batcher`.
    ///
    /// The paper reports this gap shrinking from 37 % at 4×4 to 20 % at
    /// 32×32 (§6 observation 2).
    #[must_use]
    pub fn fully_connected_vs_batcher_gap(&self, ports: usize) -> Option<f64> {
        let fully = self.power(Architecture::FullyConnected, ports)?;
        let batcher = self.power(Architecture::BatcherBanyan, ports)?;
        if batcher.as_watts() == 0.0 {
            return None;
        }
        Some((batcher.as_watts() - fully.as_watts()) / batcher.as_watts())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The point-for-point equivalence between the engine-backed run and the
    // original sequential nested-loop implementation is pinned at workspace
    // level in `tests/sweep_determinism.rs`, which keeps the reference loop
    // in exactly one place.

    #[test]
    fn port_sweep_restricts_to_one_load() {
        let config = ExperimentConfig::quick();
        let sweep = PortSweep::run(&config, 0.3).expect("sweep");
        assert_eq!(
            sweep.points.len(),
            config.port_counts.len() * config.architectures.len()
        );
        assert!(sweep
            .points
            .iter()
            .all(|p| (p.offered_load - 0.3).abs() < 1e-12));
    }
}
