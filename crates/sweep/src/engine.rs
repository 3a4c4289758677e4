//! The sweep engine: evaluates a scenario's grid, a whole [`SweepPlan`] or a
//! single [`Shard`] of one on a parallel, deterministic executor.

use std::collections::HashMap;
use std::sync::Arc;

use fabric_power_fabric::energy_model::FabricEnergyModel;
use fabric_power_fabric::provider::ModelProvider;
use fabric_power_fabric::Architecture;
use fabric_power_noc::{NetworkReport, NetworkSimulator};
use fabric_power_obs as obs;
use fabric_power_router::sim::RouterSimulator;
use fabric_power_router::PricedRoutes;

/// The obs target engine spans are tagged with.
const TARGET: &str = "sweep.engine";

use crate::cell::{SeedStrategy, SweepCell, SweepPoint};
use crate::config::{ExperimentConfig, ExperimentError};
use crate::emit::SweepDocument;
use crate::executor;
use crate::merge::{ShardCellResult, ShardDocument};
use crate::plan::{PlanError, PlanHeader, Shard, ShardStrategy, SweepPlan};

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
/// Seeding is set on a plan, not on the engine: [`SweepEngine::plan`] and
/// [`SweepEngine::run`] seed with [`SeedStrategy::Shared`], and a plan built
/// with [`SweepPlan::new`] carries any other [`SeedStrategy`] through
/// [`SweepEngine::run_plan`].
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
    provider: Arc<ModelProvider>,
}

impl Default for SweepEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl SweepEngine {
    /// Creates an engine with automatic thread count and the process-wide
    /// shared model provider.
    #[must_use]
    pub fn new() -> Self {
        Self {
            threads: 0,
            provider: ModelProvider::shared(),
        }
    }

    /// Overrides the worker thread count (`0` = use every available core).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Overrides the model provider — e.g. a fresh in-memory provider when
    /// a test or benchmark wants isolated hit/miss statistics.
    #[must_use]
    pub fn with_provider(mut self, provider: Arc<ModelProvider>) -> Self {
        self.provider = provider;
        self
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

    /// Expands a configuration with the shared base seed
    /// ([`SeedStrategy::Shared`]) and splits it into `shards`
    /// self-describing shards.  For another seed strategy, build the plan
    /// with [`SweepPlan::new`].
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
            SeedStrategy::Shared,
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
    /// fabric sizes the cells actually touch get models built: a shard of a
    /// few cells needs one or two, not the whole grid's.
    ///
    /// The cells run in [`traffic_groups`]: single-router cells that draw
    /// the same traffic run as one lockstep simulation, so the traffic is
    /// generated once per operating point instead of once per architecture.
    /// Each distinct (architecture, ports) route table is lowered and priced
    /// once ([`price_tables`]) and [`Arc`]-shared by every group, and every
    /// worker thread, that steps it.
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
        let groups = traffic_groups(cells);
        let tables = price_tables(cells, &groups, &models);
        let runnable: Vec<_> = groups.iter().zip(&tables).collect();
        let results =
            executor::parallel_map(&runnable, self.threads().max(1), |&(group, tables)| {
                let group: Vec<&SweepCell> =
                    group.iter().map(|&position| &cells[position]).collect();
                self.run_group(config, &group, &models[&group[0].ports], tables)
            });
        let mut points: Vec<Option<SweepPoint>> = vec![None; cells.len()];
        // A group fails as a whole: construction errors depend on the
        // traffic and the port count, never on the architecture.  Groups are
        // in order of their first cell, so the first failing group holds the
        // lowest-indexed failing cell.
        for (group, result) in groups.iter().zip(results) {
            for (&position, point) in group.iter().zip(result?) {
                points[position] = Some(point);
            }
        }
        Ok(points
            .into_iter()
            .map(|point| point.expect("every cell belongs to one group"))
            .collect())
    }

    /// Runs the full grid with the shared base seed
    /// ([`SeedStrategy::Shared`]) and returns one [`SweepPoint`] per cell, in
    /// canonical grid order.
    ///
    /// The cells come from the same expansion every plan uses, so a direct
    /// `run` can never drift from a planned one.
    ///
    /// # Errors
    ///
    /// Propagates model and simulation errors; when several cells fail, the
    /// error of the lowest-indexed cell is returned (deterministically).
    pub fn run(&self, config: &ExperimentConfig) -> Result<Vec<SweepPoint>, ExperimentError> {
        let cells = crate::plan::expand_cells(config, SeedStrategy::Shared);
        self.run_cells(config, &cells)
    }

    /// Runs every shard of a plan in this process and returns the complete
    /// document: what `fabric-power sweep` does with its one-shard plan,
    /// and the reference that shards merged by
    /// [`crate::merge::merge_documents`] must match byte for byte.
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
    /// the shard id and the cell-index range it covers, for
    /// [`crate::merge::merge_documents`] to recombine.
    ///
    /// The run is *detached from its plan*: the [`PlanHeader`] supplies the
    /// grid-wide context (scenario, configuration, seed strategy) and the
    /// [`Shard`] the cells, so a caller holding one shard needs no other
    /// shard's cells.  The cells' seeds were fixed when the plan was built,
    /// so the points this produces are bit-identical to the same cells
    /// evaluated by a one-shard run, whatever this engine's thread count.
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

    /// Simulates one traffic group and returns a point per cell, in the
    /// group's order: a network cell alone against its shared energy model,
    /// or every single-router cell of the group in one lockstep
    /// [`RouterSimulator`] over `tables`, the cells' priced route tables in
    /// group order.
    ///
    /// Every operating parameter comes from the cells themselves (each cell
    /// carries its coordinates and seed, including its network coordinate
    /// when the sweep has a mesh axis); the config only contributes the
    /// grid-wide knobs (cycle windows, packet length, model source).  Each
    /// cell still gets its own `run_cell` span, which covers the group's run.
    fn run_group(
        &self,
        config: &ExperimentConfig,
        group: &[&SweepCell],
        model: &Arc<FabricEnergyModel>,
        tables: &[Arc<PricedRoutes>],
    ) -> Result<Vec<SweepPoint>, ExperimentError> {
        let spans: Vec<obs::log::Span> = group
            .iter()
            .map(|cell| {
                obs::log::span(TARGET, "run_cell")
                    .with_level(obs::Level::Trace)
                    .field("cell", cell.index)
                    .field("ports", cell.ports)
            })
            .collect();
        let first = group[0];
        let mut sim_config = config.simulation_config(
            first.architecture,
            first.ports,
            first.offered_load,
            first.seed,
        );
        sim_config.pattern = first.pattern;
        let reports = match first.network {
            // A network cell runs the tick-based fabric-of-fabrics; a 1×1
            // network degrades inside the simulator to exactly the
            // single-router path (and reports no network aggregates).
            Some(network) => {
                vec![
                    NetworkSimulator::with_shared_model(sim_config, network, Arc::clone(model))?
                        .run(),
                ]
            }
            None => RouterSimulator::lockstep(sim_config, tables)?
                .run_all()
                .into_iter()
                .map(|simulation| NetworkReport {
                    simulation,
                    network: None,
                })
                .collect(),
        };
        drop(spans);
        Ok(group
            .iter()
            .zip(reports)
            .map(|(cell, report)| {
                let simulation = report.simulation;
                SweepPoint {
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
                }
            })
            .collect())
    }
}

/// Lowers and prices the route tables of the single-router groups: each
/// distinct (architecture, ports) table once, under its size's model,
/// [`Arc`]-shared by every group that steps it.  Returns each group's
/// tables in group order (none for a network group, whose mesh lowers its
/// own).
fn price_tables(
    cells: &[SweepCell],
    groups: &[Vec<usize>],
    models: &HashMap<usize, Arc<FabricEnergyModel>>,
) -> Vec<Vec<Arc<PricedRoutes>>> {
    let mut priced: HashMap<(Architecture, usize), Arc<PricedRoutes>> = HashMap::new();
    let mut table_for = |cell: &SweepCell| {
        let table = priced
            .entry((cell.architecture, cell.ports))
            .or_insert_with(|| {
                Arc::new(PricedRoutes::new(
                    cell.architecture,
                    Arc::clone(&models[&cell.ports]),
                ))
            });
        Arc::clone(table)
    };
    groups
        .iter()
        .map(|group| {
            group
                .iter()
                .map(|&position| &cells[position])
                .filter(|cell| cell.network.is_none())
                .map(&mut table_for)
                .collect()
        })
        .collect()
}

/// Splits a cell list into the groups that can share one simulation, as
/// positions into `cells`, each group in list order and the groups in order
/// of their first cell.
///
/// Single-router cells that share ports, offered load, pattern and seed
/// draw the same traffic whatever their architecture, so they form one
/// group: under [`SeedStrategy::Shared`] that is every architecture of one
/// operating point.  Network cells, and cells whose seeds differ (as
/// [`SeedStrategy::PerCell`] makes them), are groups of one.
fn traffic_groups(cells: &[SweepCell]) -> Vec<Vec<usize>> {
    let same_traffic = |a: &SweepCell, b: &SweepCell| {
        a.network.is_none()
            && b.network.is_none()
            && a.ports == b.ports
            && a.offered_load.to_bits() == b.offered_load.to_bits()
            && a.pattern == b.pattern
            && a.seed == b.seed
    };
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for (position, cell) in cells.iter().enumerate() {
        match groups
            .iter_mut()
            .find(|group| same_traffic(&cells[group[0]], cell))
        {
            Some(group) => group.push(position),
            None => groups.push(vec![position]),
        }
    }
    groups
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric_power_fabric::Architecture;

    #[test]
    fn expansion_is_canonical_and_complete() {
        let config = ExperimentConfig::quick();
        let cells = crate::plan::expand_cells(&config, SeedStrategy::Shared);
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
        let per_cell_plan = SweepPlan::new(
            "per-cell",
            config,
            SeedStrategy::PerCell,
            1,
            ShardStrategy::Contiguous,
        )
        .unwrap();
        let per_cell = SweepEngine::new()
            .with_threads(2)
            .run_plan(&per_cell_plan)
            .unwrap();
        assert_eq!(per_cell.seed_strategy, SeedStrategy::PerCell);
        assert_eq!(shared.len(), per_cell.points.len());
        assert!(
            shared != per_cell.points,
            "per-cell seeding should change at least one trajectory"
        );
        // And stays deterministic in itself.
        let per_cell_again = SweepEngine::new()
            .with_threads(8)
            .run_plan(&per_cell_plan)
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
    fn the_lowest_indexed_failing_cell_names_the_error() {
        // Two kinds of group fail: every cell at 150 % load, and the 2-port
        // cells at 30 %, which have no hot-spot port 5.  The first failing
        // cell in grid order decides, whichever group it is in.
        let base = ExperimentConfig {
            offered_loads: vec![0.3, 1.5],
            pattern: fabric_power_router::TrafficPattern::Hotspot {
                port: 5,
                fraction: 0.5,
            },
            warmup_cycles: 10,
            measure_cycles: 20,
            ..ExperimentConfig::quick()
        };
        for (port_counts, expected) in [
            (vec![8, 2], "offered load must be in (0, 1], got 1.5"),
            (
                vec![2, 8],
                "hot-spot port must be below the port count 2, got 5",
            ),
        ] {
            let config = ExperimentConfig {
                port_counts,
                ..base.clone()
            };
            for threads in [1, 2] {
                let err = SweepEngine::new()
                    .with_threads(threads)
                    .run(&config)
                    .unwrap_err();
                assert!(err.to_string().contains(expected), "{err}");
            }
        }
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
            &default_engine.provider,
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
            .plan("engine-test", &config, 3, ShardStrategy::Contiguous)
            .unwrap();
        let whole = engine.run_plan(&plan).unwrap();
        assert_eq!(whole.points, direct);
        let parts: Vec<_> = plan
            .shards
            .iter()
            .map(|shard| engine.run_shard_detached(&plan.header(), shard).unwrap())
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
        let document = engine
            .run_shard_detached(&plan.header(), &plan.shards[0])
            .unwrap();
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
        let full = engine
            .run_shard_detached(&plan.header(), &plan.shards[0])
            .unwrap();
        assert_eq!(full.cell_range, Some((0, 0)));
        let empty = engine
            .run_shard_detached(&plan.header(), &plan.shards[1])
            .unwrap();
        assert_eq!(empty.cell_range, None);
        assert!(empty.results.is_empty());
    }

    #[test]
    fn a_sweep_prices_each_route_table_once() {
        let config = crate::registry::ScenarioRegistry::builtin()
            .get("paper-fig9")
            .unwrap()
            .config
            .clone();
        let engine = SweepEngine::new()
            .with_threads(1)
            .with_provider(Arc::new(ModelProvider::in_memory()));
        for (strategy, group_count) in [(SeedStrategy::Shared, 20), (SeedStrategy::PerCell, 80)] {
            let cells = crate::plan::expand_cells(&config, strategy);
            let models = engine.build_models(&config, &cells).unwrap();
            let groups = traffic_groups(&cells);
            let tables = price_tables(&cells, &groups, &models);
            assert_eq!(tables.len(), group_count, "{strategy:?}");
            // Each group holds its cells' tables in its order, and every
            // group of one size holds the same table per architecture.
            let mut shared: HashMap<(Architecture, usize), &Arc<PricedRoutes>> = HashMap::new();
            for (group, tables) in groups.iter().zip(&tables) {
                assert_eq!(group.len(), tables.len());
                for (&position, table) in group.iter().zip(tables) {
                    let cell = &cells[position];
                    let first = shared
                        .entry((cell.architecture, cell.ports))
                        .or_insert(table);
                    assert!(Arc::ptr_eq(first, table), "{strategy:?}: {cell:?}");
                }
            }
            // Four architectures at four sizes: 16 tables lowered.
            let lowered: std::collections::HashSet<*const PricedRoutes> =
                tables.iter().flatten().map(Arc::as_ptr).collect();
            assert_eq!(lowered.len(), 16, "{strategy:?}");
        }
    }

    #[test]
    fn engine_reports_resolved_threads() {
        assert_eq!(SweepEngine::new().with_threads(5).threads(), 5);
        assert!(SweepEngine::new().threads() >= 1);
        let _ = Architecture::ALL;
    }
}
