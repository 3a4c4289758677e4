//! The sweep engine: the *execute* stage of the plan → execute → merge
//! pipeline.  Evaluates a whole [`SweepPlan`] or a single [`Shard`] of one on
//! a parallel, deterministic executor.

use std::collections::HashMap;
use std::sync::Arc;

use fabric_power_fabric::energy_model::FabricEnergyModel;
use fabric_power_fabric::provider::ModelProvider;
use fabric_power_noc::{NetworkReport, NetworkSimulator};
use fabric_power_obs as obs;
use fabric_power_router::sim::RouterSimulator;

/// The obs target engine events are tagged with.
const TARGET: &str = "sweep.engine";

use crate::cell::{SeedStrategy, SweepCell, SweepPoint};
use crate::config::{ExperimentConfig, ExperimentError};
use crate::emit::SweepDocument;
use crate::executor;
use crate::merge::{ShardCellResult, ShardDocument};
use crate::plan::{self, PlanError, PlanHeader, Shard, ShardStrategy, SweepPlan};

/// Orchestrates the evaluation of an experiment grid.
///
/// The engine guarantees **bit-identical results regardless of thread
/// count**: cell seeds are fixed at expansion time, every cell's simulation
/// is independent, and results are assembled in canonical grid order rather
/// than completion order.
///
/// Energy models are acquired through a [`ModelProvider`] (by default the
/// process-wide shared one), so repeated sweeps of the same configuration
/// in one process reuse already-built models.
///
/// # Examples
///
/// ```
/// use fabric_power_sweep::{ExperimentConfig, SweepEngine};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let engine = SweepEngine::new().with_threads(2);
/// let points = engine.run(&ExperimentConfig::quick())?;
/// assert_eq!(points.len(), ExperimentConfig::quick().grid_size());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SweepEngine {
    threads: usize,
    seed_strategy: SeedStrategy,
    provider: Arc<ModelProvider>,
}

impl Default for SweepEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl SweepEngine {
    /// Creates an engine with automatic thread count, the seed-compatible
    /// [`SeedStrategy::Shared`] and the process-wide shared model provider.
    #[must_use]
    pub fn new() -> Self {
        Self {
            threads: 0,
            seed_strategy: SeedStrategy::Shared,
            provider: ModelProvider::shared(),
        }
    }

    /// Overrides the worker thread count (`0` = use every available core).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Overrides the per-cell seed derivation strategy.
    #[must_use]
    pub fn with_seed_strategy(mut self, strategy: SeedStrategy) -> Self {
        self.seed_strategy = strategy;
        self
    }

    /// Overrides the model provider — e.g. a fresh in-memory provider when
    /// a test or benchmark wants isolated hit/miss statistics.
    #[must_use]
    pub fn with_provider(mut self, provider: Arc<ModelProvider>) -> Self {
        self.provider = provider;
        self
    }

    /// The model provider this engine acquires energy models through.
    #[must_use]
    pub fn provider(&self) -> &Arc<ModelProvider> {
        &self.provider
    }

    /// The resolved worker thread count this engine will run with.
    #[must_use]
    pub fn threads(&self) -> usize {
        if self.threads == 0 {
            executor::default_threads()
        } else {
            self.threads
        }
    }

    /// The seed strategy this engine runs with.
    #[must_use]
    pub fn seed_strategy(&self) -> SeedStrategy {
        self.seed_strategy
    }

    /// Expands a configuration into its flat cell list, in canonical order
    /// (ports → architecture → offered load — the order the original
    /// sequential loops visited the grid in), using this engine's seed
    /// strategy.  Delegates to [`plan::expand_cells`], the single grid
    /// expansion the whole pipeline shares.
    #[must_use]
    pub fn expand(&self, config: &ExperimentConfig) -> Vec<SweepCell> {
        plan::expand_cells(config, self.seed_strategy)
    }

    /// Expands a configuration and splits it into `shards` self-describing
    /// shards: the *plan* step of `fabric-power plan`.
    ///
    /// # Errors
    ///
    /// Returns [`PlanError::ZeroShards`] when `shards` is zero.
    pub fn plan(
        &self,
        scenario: impl Into<String>,
        config: &ExperimentConfig,
        shards: usize,
        strategy: ShardStrategy,
    ) -> Result<SweepPlan, PlanError> {
        SweepPlan::new(
            scenario,
            config.clone(),
            self.seed_strategy,
            shards,
            strategy,
        )
    }

    /// Acquires one immutable energy model per fabric size through the
    /// provider, shared across all cells (and worker threads) of that size
    /// via [`Arc`].
    ///
    /// Models for distinct sizes are independent, so cache misses build on
    /// the same parallel executor as the cells — with `ModelSource::Derived`,
    /// the per-size gate-level characterization is the most expensive step
    /// of the whole sweep and would otherwise serialize before any cell
    /// runs.  Models the provider already holds (or finds in its on-disk
    /// store) are returned without any characterization at all.
    ///
    /// # Errors
    ///
    /// Propagates the first model-acquisition failure, in port order.
    fn build_models(
        &self,
        config: &ExperimentConfig,
        cells: &[SweepCell],
    ) -> Result<HashMap<usize, Arc<FabricEnergyModel>>, ExperimentError> {
        let unique_ports = crate::cell::unique_ports(cells);
        let built = executor::parallel_map(&unique_ports, self.threads().max(1), |&ports| {
            let span = obs::log::span(TARGET, "build_model").field("ports", ports);
            let model = self.provider.get(&config.model_spec(ports));
            span.finish();
            model
        });
        let mut models = HashMap::new();
        for (&ports, result) in unique_ports.iter().zip(built) {
            models.insert(ports, result?);
        }
        Ok(models)
    }

    /// Evaluates an explicit cell list (already expanded and seeded) and
    /// returns one [`SweepPoint`] per cell, in the list's order.  Only the
    /// fabric sizes the cells actually touch get models built — a shard of a
    /// contiguous split typically needs one or two, not the whole grid's.
    ///
    /// # Errors
    ///
    /// Propagates model and simulation errors; when several cells fail, the
    /// error of the lowest-indexed cell is returned (deterministically).
    fn run_cells(
        &self,
        config: &ExperimentConfig,
        cells: &[SweepCell],
    ) -> Result<Vec<SweepPoint>, ExperimentError> {
        let models = self.build_models(config, cells)?;
        let results = executor::parallel_map(cells, self.threads().max(1), |cell| {
            self.run_cell(config, cell, &models[&cell.ports])
        });
        results.into_iter().collect()
    }

    /// Runs the full grid and returns one [`SweepPoint`] per cell, in
    /// canonical grid order.
    ///
    /// Internally this is a single-shard plan pushed through the same
    /// plan → execute path sharded runs use, so a direct `run` can never
    /// drift from a plan/run-shard/merge round trip.
    ///
    /// # Errors
    ///
    /// Propagates model and simulation errors; when several cells fail, the
    /// error of the lowest-indexed cell is returned (deterministically).
    pub fn run(&self, config: &ExperimentConfig) -> Result<Vec<SweepPoint>, ExperimentError> {
        let plan = self
            .plan("run", config, 1, ShardStrategy::Contiguous)
            .expect("one shard is always a valid plan");
        self.run_cells(config, &plan.shards[0].cells)
    }

    /// Runs every shard of a plan in this process and returns the complete
    /// document — what `fabric-power sweep` effectively does, and the
    /// reference a sharded run's merged output must match byte for byte.
    ///
    /// # Errors
    ///
    /// Propagates model and simulation errors.
    pub fn run_plan(&self, plan: &SweepPlan) -> Result<SweepDocument, ExperimentError> {
        let mut cells: Vec<SweepCell> = plan
            .shards
            .iter()
            .flat_map(|shard| shard.cells.iter().copied())
            .collect();
        cells.sort_by_key(|cell| cell.index);
        let points = self.run_cells(&plan.config, &cells)?;
        Ok(SweepDocument {
            scenario: plan.scenario.clone(),
            config: plan.config.clone(),
            seed_strategy: plan.seed_strategy,
            points,
        })
    }

    /// Runs one shard of a plan and returns the partial document tagged with
    /// the shard id and the cell-index range it covers — what `run-shard`
    /// writes for [`crate::merge::merge_documents`].
    ///
    /// The cells' seeds were fixed when the plan was built, so the points
    /// this produces are bit-identical to the same cells evaluated by a
    /// single-process run, whatever this engine's thread count.
    ///
    /// # Errors
    ///
    /// Returns [`ExperimentError::InvalidShard`] when `index` is out of
    /// range; otherwise propagates model and simulation errors.
    pub fn run_shard(
        &self,
        plan: &SweepPlan,
        index: usize,
    ) -> Result<ShardDocument, ExperimentError> {
        let shard: &Shard = plan
            .shard(index)
            .ok_or_else(|| ExperimentError::InvalidShard {
                index,
                shards: plan.shard_count(),
            })?;
        self.run_shard_detached(&plan.header(), shard)
    }

    /// Runs one shard *detached from its plan*: the [`PlanHeader`] supplies
    /// the grid-wide context (scenario, configuration, seed strategy) and the
    /// [`Shard`] the cells, so a caller holding one shard needs no other
    /// shard's cells.
    ///
    /// The cells carry their plan-time seeds, so the resulting document is
    /// bit-identical to [`SweepEngine::run_shard`] on the full plan.
    ///
    /// # Errors
    ///
    /// Propagates model and simulation errors.
    pub fn run_shard_detached(
        &self,
        header: &PlanHeader,
        shard: &Shard,
    ) -> Result<ShardDocument, ExperimentError> {
        let points = self.run_cells(&header.config, &shard.cells)?;
        Ok(ShardDocument {
            scenario: header.scenario.clone(),
            config: header.config.clone(),
            seed_strategy: header.seed_strategy,
            shard_index: shard.index,
            shard_total: shard.total,
            cell_range: shard.cell_index_range(),
            results: shard
                .cells
                .iter()
                .zip(points)
                .map(|(cell, point)| ShardCellResult {
                    index: cell.index,
                    point,
                })
                .collect(),
        })
    }

    /// Simulates a single cell against a shared energy model.
    ///
    /// Every operating parameter comes from the cell itself (a cell is the
    /// self-describing unit sharding ships around, including its network
    /// coordinate when the sweep has a mesh axis); the config only
    /// contributes the grid-wide knobs (cycle windows, packet length, model
    /// source).
    fn run_cell(
        &self,
        config: &ExperimentConfig,
        cell: &SweepCell,
        model: &Arc<FabricEnergyModel>,
    ) -> Result<SweepPoint, ExperimentError> {
        let span = obs::log::span(TARGET, "run_cell")
            .with_level(obs::Level::Trace)
            .field("cell", cell.index)
            .field("ports", cell.ports);
        let mut sim_config =
            config.simulation_config(cell.architecture, cell.ports, cell.offered_load, cell.seed);
        sim_config.pattern = cell.pattern;
        let report = match cell.network {
            // A network cell runs the tick-based fabric-of-fabrics; a 1×1
            // network degrades inside the simulator to exactly the
            // single-router path (and reports no network aggregates).
            Some(network) => {
                NetworkSimulator::with_shared_model(sim_config, network, Arc::clone(model))?.run()
            }
            None => NetworkReport {
                simulation: RouterSimulator::with_shared_model(sim_config, Arc::clone(model))?
                    .run(),
                network: None,
            },
        };
        span.finish();
        let simulation = report.simulation;
        Ok(SweepPoint {
            architecture: cell.architecture,
            ports: cell.ports,
            offered_load: cell.offered_load,
            measured_throughput: simulation.measured_throughput(),
            power: simulation.average_power(),
            switch_energy: simulation.energy.switches,
            buffer_energy: simulation.energy.buffers,
            wire_energy: simulation.energy.wires,
            buffered_words: simulation.buffered_words,
            average_latency_cycles: simulation.average_latency_cycles,
            latency_p50: simulation.latency_p50,
            latency_p95: simulation.latency_p95,
            latency_p99: simulation.latency_p99,
            latency_histogram: simulation.latency_histogram,
            network: report.network,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric_power_fabric::Architecture;

    #[test]
    fn expansion_is_canonical_and_complete() {
        let config = ExperimentConfig::quick();
        let cells = SweepEngine::new().expand(&config);
        assert_eq!(cells.len(), config.grid_size());
        // Canonical order: ports outermost, loads innermost.
        assert_eq!(cells[0].ports, 4);
        assert_eq!(cells[0].architecture, config.architectures[0]);
        assert_eq!(cells[0].offered_load, config.offered_loads[0]);
        assert_eq!(cells[1].offered_load, config.offered_loads[1]);
        for (index, cell) in cells.iter().enumerate() {
            assert_eq!(cell.index, index);
            assert_eq!(cell.seed, config.seed, "shared strategy");
        }
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let config = ExperimentConfig::quick();
        let sequential = SweepEngine::new().with_threads(1).run(&config).unwrap();
        let parallel = SweepEngine::new().with_threads(8).run(&config).unwrap();
        assert_eq!(sequential, parallel);
    }

    #[test]
    fn per_cell_strategy_changes_traffic_but_not_shape() {
        let config = ExperimentConfig::quick();
        let shared = SweepEngine::new().with_threads(2).run(&config).unwrap();
        let per_cell = SweepEngine::new()
            .with_threads(2)
            .with_seed_strategy(SeedStrategy::PerCell)
            .run(&config)
            .unwrap();
        assert_eq!(shared.len(), per_cell.len());
        assert!(
            shared != per_cell,
            "per-cell seeding should change at least one trajectory"
        );
        // And stays deterministic in itself.
        let per_cell_again = SweepEngine::new()
            .with_threads(8)
            .with_seed_strategy(SeedStrategy::PerCell)
            .run(&config)
            .unwrap();
        assert_eq!(per_cell, per_cell_again);
    }

    #[test]
    fn model_errors_surface_deterministically() {
        let config = ExperimentConfig {
            port_counts: vec![3],
            ..ExperimentConfig::quick()
        };
        let err = SweepEngine::new().run(&config).unwrap_err();
        assert!(err.to_string().contains('3'));
    }

    #[test]
    fn repeated_runs_reuse_models_through_the_provider() {
        let provider = Arc::new(ModelProvider::in_memory());
        let engine = SweepEngine::new()
            .with_threads(2)
            .with_provider(Arc::clone(&provider));
        let config = ExperimentConfig::quick();
        let first = engine.run(&config).unwrap();
        let second = engine.run(&config).unwrap();
        assert_eq!(first, second);
        let stats = provider.stats();
        assert_eq!(stats.builds, 2, "one build per unique fabric size");
        assert_eq!(stats.memory_hits, 2, "the second run is all memo hits");
        // Results are identical to an engine on the default shared provider.
        let default_engine = SweepEngine::new().with_threads(2);
        assert!(Arc::ptr_eq(
            default_engine.provider(),
            &ModelProvider::shared()
        ));
        assert_eq!(default_engine.run(&config).unwrap(), first);
    }

    #[test]
    fn run_matches_run_plan_and_merged_shards() {
        let config = ExperimentConfig {
            port_counts: vec![4],
            offered_loads: vec![0.1, 0.3],
            warmup_cycles: 50,
            measure_cycles: 200,
            ..ExperimentConfig::quick()
        };
        let engine = SweepEngine::new().with_threads(2);
        let direct = engine.run(&config).unwrap();
        let plan = engine
            .plan("engine-test", &config, 3, ShardStrategy::RoundRobin)
            .unwrap();
        let whole = engine.run_plan(&plan).unwrap();
        assert_eq!(whole.points, direct);
        let parts: Vec<_> = (0..3)
            .map(|index| engine.run_shard(&plan, index).unwrap())
            .collect();
        let merged = crate::merge::merge_documents(&parts).unwrap();
        assert_eq!(merged, whole);
    }

    #[test]
    fn shard_runs_only_build_the_models_the_shard_needs() {
        let provider = Arc::new(ModelProvider::in_memory());
        let engine = SweepEngine::new()
            .with_threads(1)
            .with_provider(Arc::clone(&provider));
        // Contiguous split of the quick grid: shard 0 is all 4-port cells.
        let plan = engine
            .plan(
                "model-scope",
                &ExperimentConfig::quick(),
                2,
                ShardStrategy::Contiguous,
            )
            .unwrap();
        let document = engine.run_shard(&plan, 0).unwrap();
        assert!(document.results.iter().all(|r| r.point.ports == 4));
        assert_eq!(
            provider.stats().builds,
            1,
            "only the 4-port model should have been built"
        );
        assert_eq!(document.cell_range, Some((0, 11)));
        assert_eq!(document.shard_index, 0);
        assert_eq!(document.shard_total, 2);
    }

    #[test]
    fn empty_shards_advertise_no_cell_range() {
        let config = ExperimentConfig {
            port_counts: vec![4],
            offered_loads: vec![0.2],
            architectures: vec![fabric_power_fabric::Architecture::Banyan],
            warmup_cycles: 20,
            measure_cycles: 50,
            ..ExperimentConfig::quick()
        };
        let engine = SweepEngine::new().with_threads(1);
        // 1 cell over 3 shards: shards 1 and 2 are empty.
        let plan = engine
            .plan("empty-shards", &config, 3, ShardStrategy::Contiguous)
            .unwrap();
        let full = engine.run_shard(&plan, 0).unwrap();
        assert_eq!(full.cell_range, Some((0, 0)));
        let empty = engine.run_shard(&plan, 1).unwrap();
        assert_eq!(empty.cell_range, None);
        assert!(empty.results.is_empty());
        // The distinction survives JSON (null vs an array).
        let round =
            crate::merge::ShardDocument::from_json_str(&empty.to_json_string().unwrap()).unwrap();
        assert_eq!(round.cell_range, None);
    }

    #[test]
    fn detached_shard_execution_matches_the_plan_bound_one() {
        let config = ExperimentConfig {
            port_counts: vec![4],
            offered_loads: vec![0.2, 0.4],
            warmup_cycles: 50,
            measure_cycles: 200,
            ..ExperimentConfig::quick()
        };
        let engine = SweepEngine::new().with_threads(2);
        let plan = engine
            .plan("detached", &config, 2, ShardStrategy::RoundRobin)
            .unwrap();
        let header = plan.header();
        for index in 0..plan.shard_count() {
            let bound = engine.run_shard(&plan, index).unwrap();
            let detached = engine
                .run_shard_detached(&header, plan.shard(index).unwrap())
                .unwrap();
            assert_eq!(bound, detached);
        }
    }

    #[test]
    fn out_of_range_shard_index_is_an_error() {
        let engine = SweepEngine::new().with_threads(1);
        let plan = engine
            .plan(
                "bad-index",
                &ExperimentConfig::quick(),
                2,
                ShardStrategy::Contiguous,
            )
            .unwrap();
        let err = engine.run_shard(&plan, 5).unwrap_err();
        assert!(matches!(
            err,
            ExperimentError::InvalidShard {
                index: 5,
                shards: 2
            }
        ));
        assert!(err.to_string().contains("out of range"));
    }

    #[test]
    fn engine_reports_resolved_threads() {
        assert_eq!(SweepEngine::new().with_threads(5).threads(), 5);
        assert!(SweepEngine::new().threads() >= 1);
        assert_eq!(
            SweepEngine::new()
                .with_seed_strategy(SeedStrategy::PerCell)
                .seed_strategy(),
            SeedStrategy::PerCell
        );
        let _ = Architecture::ALL;
    }
}
