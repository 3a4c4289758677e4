//! The Figure 9 / Figure 10 datasets, as thin views over sweep points.
//!
//! `fabric-power report` prints both figures through these lookups.  `run`
//! evaluates a grid on a default [`SweepEngine`] (every core, shared seed,
//! canonical order).  For threads or a model provider of your own, wrap the
//! points that [`SweepEngine::run`] returns on a configured engine; seeding
//! is set on a plan, so for per-cell seeds wrap the points of
//! [`SweepEngine::run_plan`] on a [`crate::SweepPlan`] built with
//! [`crate::SeedStrategy::PerCell`].

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

    /// The port sweep of `config`'s sizes at `offered_load` alone.
    fn port_sweep(config: &ExperimentConfig, offered_load: f64) -> PortSweep {
        let single = ExperimentConfig {
            offered_loads: vec![offered_load],
            ..config.clone()
        };
        PortSweep {
            offered_load,
            points: ThroughputSweep::run(&single).expect("sweep").points,
        }
    }

    #[test]
    fn port_sweep_restricts_to_one_load() {
        let config = ExperimentConfig::quick();
        let sweep = port_sweep(&config, 0.3);
        assert_eq!(
            sweep.points.len(),
            config.port_counts.len() * config.architectures.len()
        );
        assert!(sweep
            .points
            .iter()
            .all(|p| (p.offered_load - 0.3).abs() < 1e-12));
    }

    #[test]
    fn quick_throughput_sweep_produces_all_points() {
        let config = ExperimentConfig::quick();
        let sweep = ThroughputSweep::run(&config).unwrap();
        assert_eq!(
            sweep.points.len(),
            config.port_counts.len() * config.architectures.len() * config.offered_loads.len()
        );
        let curve = sweep.curve(Architecture::Banyan, 8);
        assert_eq!(curve.len(), 3);
        assert!(curve
            .windows(2)
            .all(|w| w[0].offered_load < w[1].offered_load));
        assert!(sweep.power(Architecture::Crossbar, 8, 0.3).is_some());
        assert!(sweep.power(Architecture::Crossbar, 64, 0.3).is_none());
    }

    #[test]
    fn power_increases_with_load_for_every_architecture() {
        let config = ExperimentConfig::quick();
        let sweep = ThroughputSweep::run(&config).unwrap();
        for &architecture in &config.architectures {
            let curve = sweep.curve(architecture, 8);
            assert!(
                curve.last().unwrap().power > curve.first().unwrap().power,
                "{architecture}"
            );
        }
    }

    #[test]
    fn port_sweep_gap_is_computable() {
        let config = ExperimentConfig::quick();
        let sweep = port_sweep(&config, 0.5);
        let gap = sweep.fully_connected_vs_batcher_gap(8).unwrap();
        assert!(gap > 0.0 && gap < 1.0, "gap {gap}");
        assert!(sweep.power(Architecture::Banyan, 8).is_some());
    }

    #[test]
    fn cheapest_architecture_at_low_load_is_banyan_or_fully_connected() {
        let config = ExperimentConfig::quick();
        let sweep = ThroughputSweep::run(&config).unwrap();
        let cheapest = sweep.cheapest(8, 0.1).unwrap();
        assert!(
            matches!(
                cheapest,
                Architecture::Banyan | Architecture::FullyConnected
            ),
            "cheapest at low load was {cheapest}"
        );
    }

    #[test]
    fn sweeps_share_models_through_an_explicit_provider() {
        use fabric_power_fabric::provider::ModelProvider;
        use std::sync::Arc;

        let provider = Arc::new(ModelProvider::in_memory());
        let engine = SweepEngine::new()
            .with_threads(1)
            .with_provider(Arc::clone(&provider));
        let mut config = ExperimentConfig::quick();
        let throughput = engine.run(&config).unwrap();
        config.offered_loads = vec![0.5];
        let port = engine.run(&config).unwrap();
        assert!(!throughput.is_empty());
        assert!(!port.is_empty());
        // Both sweeps cover the same two fabric sizes: two builds total, the
        // rest served from the shared memo.
        let stats = provider.stats();
        assert_eq!(stats.builds, 2);
        assert!(stats.memory_hits >= 2);
    }
}
