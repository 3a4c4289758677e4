//! Experiment configuration and the parameter sweeps behind the paper's
//! Figure 9 (power vs. traffic throughput) and Figure 10 (power vs. number
//! of ports).
//!
//! The implementation moved to the [`fabric_power_sweep`] crate when sweep
//! orchestration became its own subsystem: `ThroughputSweep::run` and
//! `PortSweep::run` now expand the grid into cells and evaluate them on the
//! parallel [`fabric_power_sweep::SweepEngine`] (one shared energy model per
//! fabric size, deterministic per-cell seeds, results in canonical grid
//! order).  Energy models are acquired through the model-provider layer
//! ([`ModelProvider`]): run several grids through [`SweepEngine::run`] on
//! one engine built with `SweepEngine::new().with_provider(...)` to share
//! one provider — and optionally a content-addressed on-disk model cache —
//! across many experiments.  This module re-exports the public types so
//! every pre-existing `fabric_power_core::experiment::...` path keeps
//! working, with identical results point for point.
//!
//! Execution goes through the plan → execute → merge pipeline: `SweepEngine::
//! run` expands the grid into a single-shard [`SweepPlan`] internally, and the
//! same plan split into N [`Shard`]s (`fabric-power plan --shards N`) runs as
//! N independent worker processes whose partial documents
//! [`merge_documents`] recombines byte-identically.

pub use fabric_power_sweep::{
    merge_documents, ExperimentConfig, ExperimentError, MergeError, ModelKind, ModelProvider,
    ModelSource, ModelSpec, PlanError, PortSweep, ProviderStats, SeedStrategy, Shard,
    ShardDocument, ShardStrategy, SweepCell, SweepEngine, SweepPlan, SweepPoint, ThroughputSweep,
};

#[cfg(test)]
mod tests {
    use super::*;
    use fabric_power_fabric::energy_model::EnergyModelError;
    use fabric_power_fabric::Architecture;

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
        let sweep = PortSweep::run(&config, 0.5).unwrap();
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
    fn experiment_errors_display() {
        let err = ExperimentError::from(EnergyModelError::InvalidPortCount { ports: 7 });
        assert!(err.to_string().contains('7'));
    }

    #[test]
    fn sweeps_share_models_through_an_explicit_provider() {
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
