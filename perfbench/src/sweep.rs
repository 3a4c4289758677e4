//! The sweep workloads (`fig9`, `noc-uniform`): a registered scenario run
//! through the same engine path as `fabric-power sweep --threads 1`.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use fabric_power_fabric::{Architecture, FabricEnergyModel, ModelProvider, ModelSpec};
use fabric_power_noc::NetworkSimulator;
use fabric_power_router::{RouterSimulator, SimulationReport};
use fabric_power_sweep::{
    merge_documents, ExperimentConfig, ScenarioRegistry, ShardStrategy, SweepCell, SweepDocument,
    SweepEngine, SweepPlan, SweepPoint,
};

use crate::metrics::Layers;
use crate::{digest, Sample, Traced};

/// One registered scenario with the workload seed applied.
#[derive(Debug, Clone)]
pub struct SweepWorkload {
    scenario: String,
    config: ExperimentConfig,
}

/// Extra set-ups timed before and again after each run; `setup_s` is the
/// median of these and the run's own set-up.  A microsecond-scale set-up
/// is a snapshot of the host's momentary speed, so taking snapshots on
/// both sides of the seconds-long cell phase steadies the median.
const SETUP_REPS_PER_SIDE: usize = 64;

impl SweepWorkload {
    /// The registered scenario `scenario` with its base seed replaced by
    /// `seed`, as `fabric-power sweep --seed` does.
    ///
    /// # Errors
    ///
    /// Names the scenario when the registry does not hold it.
    pub fn new(scenario: &str, seed: u64) -> Result<Self, String> {
        let registered = ScenarioRegistry::builtin()
            .get(scenario)
            .cloned()
            .ok_or_else(|| format!("scenario `{scenario}` is not registered"))?;
        let mut config = registered.config;
        config.seed = seed;
        Ok(Self {
            scenario: registered.name,
            config,
        })
    }

    /// Replaces the scenario's grid, keeping its name and seed (tests run
    /// shortened grids).
    #[cfg(test)]
    pub fn with_config(mut self, edit: impl FnOnce(&mut ExperimentConfig)) -> Self {
        edit(&mut self.config);
        self
    }

    /// Cells one run evaluates.
    #[must_use]
    pub fn cells(&self) -> u64 {
        self.config.grid_size() as u64
    }

    /// A single-threaded engine over a fresh in-memory provider.
    fn engine() -> (Arc<ModelProvider>, SweepEngine) {
        let provider = Arc::new(ModelProvider::in_memory());
        let engine = SweepEngine::new()
            .with_threads(1)
            .with_provider(Arc::clone(&provider));
        (provider, engine)
    }

    /// Plan expansion plus acquisition of every energy model the plan
    /// touches: everything before the first cell runs.
    fn setup(&self) -> Result<(SweepEngine, SweepPlan), String> {
        let (provider, engine) = Self::engine();
        let plan = engine
            .plan(&self.scenario, &self.config, 1, ShardStrategy::Contiguous)
            .map_err(|e| e.to_string())?;
        for ports in plan.shards[0].unique_ports() {
            provider
                .get(&self.config.model_spec(ports))
                .map_err(|e| e.to_string())?;
        }
        Ok((engine, plan))
    }

    /// Simulated router cycles of one run: one per node per tick, warm-up
    /// included.
    fn sim_cycles(&self, cells: &[SweepCell]) -> u64 {
        let ticks = self.config.warmup_cycles + self.config.measure_cycles;
        cells
            .iter()
            .map(|cell| cell.network.map_or(1, |n| n.nodes() as u64) * ticks)
            .sum()
    }

    /// One untraced run: set-up, every cell, then the JSON document, which
    /// is returned with its digest for the output checks.
    ///
    /// # Errors
    ///
    /// Propagates model, simulation and serialization errors.
    pub fn run(&self) -> Result<(Sample, SweepDocument), String> {
        let mut setups = Vec::with_capacity(2 * SETUP_REPS_PER_SIDE + 1);
        let time_setups = |setups: &mut Vec<Duration>| -> Result<(), String> {
            for _ in 0..SETUP_REPS_PER_SIDE {
                let started = Instant::now();
                drop(self.setup()?);
                setups.push(started.elapsed());
            }
            Ok(())
        };
        time_setups(&mut setups)?;
        let started = Instant::now();
        let (engine, plan) = self.setup()?;
        let setup = started.elapsed();
        let document = engine.run_plan(&plan).map_err(|e| e.to_string())?;
        let json = document_bytes(&document)?;
        let wall = started.elapsed();
        setups.push(setup);
        time_setups(&mut setups)?;
        let sample = Sample {
            wall,
            setup: median_duration(setups),
            sim_cycles: self.sim_cycles(&plan.shards[0].cells),
            sim_time: wall - setup,
            digest: digest(json.as_bytes()),
        };
        Ok((sample, document))
    }

    /// One traced run: the same work split into timed calls per crate.
    ///
    /// The plan has one shard per cell.  Each cell is simulated once
    /// directly (`RouterSimulator` or `NetworkSimulator`: the `router` or
    /// `noc` time) and once through `SweepEngine::run_shard_detached` (the
    /// inclusive `sweep.cell_s`); the sweep's self time is the difference.
    /// The merged shards must reproduce the untraced document byte for
    /// byte, and every direct simulation the point the engine produced.
    ///
    /// # Errors
    ///
    /// Propagates model, simulation, merge and serialization errors, and
    /// reports a replayed cell that disagrees with the engine.
    pub fn run_traced(&self) -> Result<Traced, String> {
        let mut layers = Layers::default();
        let started = Instant::now();
        let (provider, engine) = Self::engine();

        let timer = Instant::now();
        let plan = engine
            .plan(
                &self.scenario,
                &self.config,
                self.config.grid_size(),
                ShardStrategy::Contiguous,
            )
            .map_err(|e| e.to_string())?;
        let plan_time = timer.elapsed();
        layers.add_time("sweep.plan_s", plan_time);
        let mut sweep_self = plan_time.as_secs_f64();

        let models = acquire_models(&self.config, &plan, &provider, &mut layers)?;

        let header = plan.header();
        let mut parts = Vec::with_capacity(plan.shards.len());
        for shard in &plan.shards {
            let [cell] = shard.cells.as_slice() else {
                return Err(format!(
                    "shard {} does not hold exactly one cell",
                    shard.index
                ));
            };
            let (direct, report) = self.replay_cell(cell, &models[&cell.ports], &mut layers)?;
            let timer = Instant::now();
            let part = engine
                .run_shard_detached(&header, shard)
                .map_err(|e| e.to_string())?;
            let inclusive = timer.elapsed().as_secs_f64();
            layers.add("sweep.cell_s", inclusive);
            layers.max("sweep.max_cell_s", inclusive);
            sweep_self += inclusive - direct.as_secs_f64();
            let point = &part.results[0].point;
            if !replay_matches(point, &report) {
                return Err(format!(
                    "cell {}: direct replay differs from the engine",
                    cell.index
                ));
            }
            parts.push(part);
        }

        let timer = Instant::now();
        let merged = merge_documents(&parts).map_err(|e| e.to_string())?;
        let merge_time = timer.elapsed();
        let timer = Instant::now();
        let json = document_bytes(&merged)?;
        let emit_time = timer.elapsed();
        let wall = started.elapsed();

        layers.add_time("sweep.merge_s", merge_time);
        layers.add_time("sweep.emit_s", emit_time);
        layers.set("sweep.doc_bytes", json.len() as f64);
        sweep_self += (merge_time + emit_time).as_secs_f64();
        layers.set("sweep.self_s", sweep_self.max(0.0));
        layers.set_ratio("router.ns_per_cycle", "router.run_s", "router.cycles", 1e9);
        for arch in Architecture::ALL {
            let label = architecture_label(arch);
            let router_cells: Vec<SweepCell> = plan
                .shards
                .iter()
                .flat_map(|shard| shard.cells.iter().copied())
                .filter(|cell| cell.architecture == arch && cell.network.is_none())
                .collect();
            let cycles = self.sim_cycles(&router_cells) as f64;
            let run_s = layers.get(&format!("router.run_s.{label}"));
            let ns = if cycles > 0.0 {
                run_s / cycles * 1e9
            } else {
                0.0
            };
            layers.set(&format!("router.ns_per_cycle.{label}"), ns);
        }
        layers.set_ratio("noc.ns_per_node_tick", "noc.run_s", "noc.node_ticks", 1e9);
        Ok(Traced {
            wall,
            digest: digest(json.as_bytes()),
            layers,
        })
    }

    /// Simulates one cell directly on the router or NoC crate, exactly as
    /// the engine's cell runner constructs it, and books its time and
    /// counts.
    fn replay_cell(
        &self,
        cell: &SweepCell,
        model: &Arc<FabricEnergyModel>,
        layers: &mut Layers,
    ) -> Result<(Duration, SimulationReport), String> {
        let mut config = self.config.simulation_config(
            cell.architecture,
            cell.ports,
            cell.offered_load,
            cell.seed,
        );
        config.pattern = cell.pattern;
        let ticks = (self.config.warmup_cycles + self.config.measure_cycles) as f64;
        let timer = Instant::now();
        match cell.network {
            Some(network) => {
                let report =
                    NetworkSimulator::with_shared_model(config, network, Arc::clone(model))
                        .map_err(|e| e.to_string())?
                        .run();
                let elapsed = timer.elapsed();
                let mesh = format!("{}x{}", network.width, network.height);
                layers.add_time("noc.run_s", elapsed);
                layers.add_time(&format!("noc.run_s.{mesh}"), elapsed);
                layers.add("noc.node_ticks", network.nodes() as f64 * ticks);
                if let Some(stats) = report.network {
                    layers.add("noc.link_words", stats.link_words as f64);
                    layers.add("noc.credit_stalls", stats.credit_stalls as f64);
                }
                Ok((elapsed, report.simulation))
            }
            None => {
                let report = RouterSimulator::with_shared_model(config, Arc::clone(model))
                    .map_err(|e| e.to_string())?
                    .run();
                let elapsed = timer.elapsed();
                let label = architecture_label(cell.architecture);
                layers.add_time("router.run_s", elapsed);
                layers.add_time(&format!("router.run_s.{label}"), elapsed);
                layers.add_time(&format!("router.run_s.p{}", cell.ports), elapsed);
                layers.add("router.cycles", ticks);
                layers.add("router.words_delivered", report.words_delivered as f64);
                layers.add("router.packets_delivered", report.packets_delivered as f64);
                layers.add("router.buffered_words", report.buffered_words as f64);
                Ok((elapsed, report))
            }
        }
    }
}

/// Builds every model the plan touches (`fabric.build_s`), acquires it
/// cold through the provider (`fabric.store_write_s`: acquisition beyond
/// the build) and once more warm (`fabric.store_read_s`).
fn acquire_models(
    config: &ExperimentConfig,
    plan: &SweepPlan,
    provider: &ModelProvider,
    layers: &mut Layers,
) -> Result<HashMap<usize, Arc<FabricEnergyModel>>, String> {
    let mut ports: Vec<usize> = plan.shards.iter().flat_map(|s| s.unique_ports()).collect();
    ports.sort_unstable();
    ports.dedup();
    let specs: Vec<ModelSpec> = ports.iter().map(|&p| config.model_spec(p)).collect();
    for spec in &specs {
        let timer = Instant::now();
        spec.build().map_err(|e| e.to_string())?;
        let build = timer.elapsed();
        let timer = Instant::now();
        provider.get(spec).map_err(|e| e.to_string())?;
        let cold = timer.elapsed();
        layers.add_time("fabric.build_s", build);
        layers.add(
            "fabric.store_write_s",
            cold.saturating_sub(build).as_secs_f64(),
        );
    }
    let cold = provider.stats();
    let mut models = HashMap::new();
    for (spec, &ports) in specs.iter().zip(&ports) {
        let timer = Instant::now();
        let model = provider.get(spec).map_err(|e| e.to_string())?;
        layers.add_time("fabric.store_read_s", timer.elapsed());
        models.insert(ports, model);
    }
    let warm = provider.stats();
    let warm_requests = (warm.requests() - cold.requests()) as f64;
    layers.set("fabric.builds", cold.builds as f64);
    layers.set("fabric.disk_hits", warm.disk_hits as f64);
    layers.set("fabric.disk_rejections", warm.disk_rejections as f64);
    layers.set(
        "fabric.warm_hit_ratio",
        (warm.hits() - cold.hits()) as f64 / warm_requests.max(1.0),
    );
    // Paper models characterize nothing: the whole build is assembly.
    layers.set("fabric.assemble_s", layers.get("fabric.build_s"));
    Ok(models)
}

/// Whether the directly simulated report carries the engine's point.
fn replay_matches(point: &SweepPoint, report: &SimulationReport) -> bool {
    point.power == report.average_power()
        && point.measured_throughput.to_bits() == report.measured_throughput().to_bits()
        && point.buffered_words == report.buffered_words
        && point.latency_histogram == report.latency_histogram
}

/// The bytes `fabric-power sweep --out` writes for a document.
fn document_bytes(document: &SweepDocument) -> Result<String, String> {
    let mut json = document.to_json_string().map_err(|e| e.to_string())?;
    json.push('\n');
    Ok(json)
}

fn median_duration(mut values: Vec<Duration>) -> Duration {
    values.sort_unstable();
    values[values.len() / 2]
}

/// The metric-name suffix of an architecture.
#[must_use]
pub fn architecture_label(architecture: Architecture) -> &'static str {
    match architecture {
        Architecture::Crossbar => "crossbar",
        Architecture::FullyConnected => "fully_connected",
        Architecture::Banyan => "banyan",
        Architecture::BatcherBanyan => "batcher_banyan",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric_power_sweep::MeshSize;

    fn short(config: &mut ExperimentConfig) {
        config.offered_loads = vec![0.1, 0.5];
        config.warmup_cycles = 40;
        config.measure_cycles = 160;
    }

    fn assert_replay_is_exact(workload: &SweepWorkload, layer: &str) {
        let (sample, document) = workload.run().unwrap();
        assert_eq!(workload.cells(), document.points.len() as u64);
        let traced = workload.run_traced().unwrap();
        assert_eq!(
            traced.digest, sample.digest,
            "merged shards differ from the run"
        );
        assert!(traced.layers.unknown_names().is_empty());
        assert!(traced.layers.get(layer) > 0.0, "{layer} was not timed");
        assert_eq!(traced.layers.get("sweep.doc_bytes") as usize, {
            document_bytes(&document).unwrap().len()
        });
    }

    #[test]
    fn fig9_replay_merges_to_the_untraced_document() {
        let workload = SweepWorkload::new("paper-fig9", 11)
            .unwrap()
            .with_config(|c| {
                short(c);
                c.port_counts = vec![4, 8];
            });
        assert_replay_is_exact(&workload, "router.run_s");
    }

    #[test]
    fn noc_replay_merges_to_the_untraced_document() {
        let workload = SweepWorkload::new("noc-uniform", 11)
            .unwrap()
            .with_config(|c| {
                short(c);
                let network = c.network.as_mut().unwrap();
                network.meshes = vec![MeshSize::new(2, 2), MeshSize::new(4, 4)];
            });
        assert_replay_is_exact(&workload, "noc.run_s.4x4");
    }

    #[test]
    fn the_workload_seed_overrides_the_scenario_seed() {
        let a = SweepWorkload::new("paper-fig9", 1)
            .unwrap()
            .with_config(|c| {
                short(c);
                c.port_counts = vec![4];
            });
        let b = SweepWorkload::new("paper-fig9", 2)
            .unwrap()
            .with_config(|c| {
                short(c);
                c.port_counts = vec![4];
            });
        assert_eq!(a.config.seed, 1);
        assert_ne!(a.run().unwrap().0.digest, b.run().unwrap().0.digest);
        assert_eq!(a.run().unwrap().0.digest, a.run().unwrap().0.digest);
    }
}
