//! The `table1-mc` workload: a Monte-Carlo re-derivation of the paper's
//! Table 1.  Every seed characterizes the four paper-size derived models
//! into an empty on-disk store, then a fresh provider re-acquires them all
//! from that store.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use fabric_power_fabric::{FabricEnergyModel, ModelKind, ModelProvider, ModelSpec};
use fabric_power_netlist::{characterize_class, CharacterizationConfig, SwitchClass, Table1};
use fabric_power_tech::Technology;

use crate::metrics::Layers;
use crate::{digest, Sample, Traced};

/// Stimulus seeds characterized per run: about as long a run as `fig9`.
pub const SEEDS: usize = 128;

/// The paper's fabric sizes.
const PORTS: [usize; 4] = [4, 8, 16, 32];

/// The K × 4 model specs of one run and the scratch directory their stores
/// live under.
#[derive(Debug, Clone)]
pub struct Table1Workload {
    specs: Vec<ModelSpec>,
    scratch: PathBuf,
    runs: usize,
}

/// The `k`-th characterization seed of workload seed `seed`: the workload
/// seed itself first (so the default seed reproduces the default
/// characterization), then SplitMix64-scrambled successors.
#[must_use]
pub fn stimulus_seed(seed: u64, k: usize) -> u64 {
    if k == 0 {
        return seed;
    }
    let mut z = seed.wrapping_add((k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Table1Workload {
    /// `seeds` stimulus seeds derived from `seed`, with model stores created
    /// under `scratch`.
    #[must_use]
    pub fn new(seed: u64, seeds: usize, scratch: &Path) -> Self {
        let technology = Technology::tsmc180();
        let library = fabric_power_netlist::CellLibrary::calibrated_018um();
        let specs = (0..seeds)
            .flat_map(|k| {
                let config = CharacterizationConfig {
                    seed: stimulus_seed(seed, k),
                    ..CharacterizationConfig::default()
                };
                let (technology, library) = (technology.clone(), library.clone());
                PORTS.map(move |ports| {
                    ModelSpec::derived(ports, technology.clone(), library.clone(), config)
                })
            })
            .collect();
        Self {
            specs,
            scratch: scratch.to_owned(),
            runs: 0,
        }
    }

    /// Models one run acquires.
    #[must_use]
    pub fn models(&self) -> u64 {
        self.specs.len() as u64
    }

    /// A fresh, empty store directory for the next run.
    fn fresh_store(&mut self) -> Result<PathBuf, String> {
        self.runs += 1;
        let dir = self
            .scratch
            .join(format!("store-{}-{}", std::process::id(), self.runs));
        if dir.exists() {
            std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        Ok(dir)
    }

    /// One untraced run: cold characterization into the store is the
    /// set-up, the warm re-acquisition completes the run.  Returns the
    /// cold models for the paper comparison.
    ///
    /// # Errors
    ///
    /// Propagates characterization and store errors, and reports a warm
    /// model that differs from its cold build or any store rejection.
    pub fn run(&mut self) -> Result<(Sample, Vec<Arc<FabricEnergyModel>>), String> {
        let dir = self.fresh_store()?;
        let started = Instant::now();
        let cold_provider = open_store(&dir)?;
        let cold = acquire_all(&cold_provider, &self.specs)?;
        let setup = started.elapsed();
        let warm_provider = open_store(&dir)?;
        let warm = acquire_all(&warm_provider, &self.specs)?;
        let wall = started.elapsed();

        let checked = check_store(&cold_provider, &warm_provider, &cold, &warm);
        std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let digest = checked?;
        let sample = Sample {
            wall,
            setup,
            sim_cycles: cold
                .iter()
                .zip(&self.specs)
                .map(|(model, spec)| lane_cycles(model, spec))
                .sum(),
            sim_time: setup,
            digest,
        };
        Ok((sample, cold))
    }

    /// One traced run: each model's switch classes are characterized
    /// directly (`netlist`), built (`fabric.build_s`), acquired cold into
    /// the store (`fabric.store_write_s`: acquisition beyond the build) and
    /// re-acquired warm (`fabric.store_read_s`).  The directly
    /// characterized LUTs must equal the built model's.
    ///
    /// # Errors
    ///
    /// As [`Table1Workload::run`], plus a direct LUT that differs from the
    /// model's.
    pub fn run_traced(&mut self) -> Result<Traced, String> {
        let dir = self.fresh_store()?;
        let mut layers = Layers::default();
        let started = Instant::now();
        let cold_provider = open_store(&dir)?;
        let mut cold = Vec::with_capacity(self.specs.len());
        for spec in &self.specs {
            let ModelKind::Derived {
                technology,
                library,
                characterization,
            } = &spec.kind
            else {
                return Err("table1-mc characterizes derived models only".into());
            };
            let bus_width = technology.bus_width_bits() as usize;
            let address_bits = (spec.ports.trailing_zeros() as usize).max(1);
            let mut luts = Vec::with_capacity(4);
            for class in classes(spec.ports) {
                let timer = Instant::now();
                let lut =
                    characterize_class(class, bus_width, address_bits, library, characterization)
                        .map_err(|e| e.to_string())?;
                let elapsed = timer.elapsed();
                layers.add_time("netlist.characterize_s", elapsed);
                layers.add_time(
                    &format!("netlist.characterize_s.{}", class_label(class)),
                    elapsed,
                );
                layers.add(
                    "netlist.lane_cycles",
                    ((lut.ports() + 1) as u64 * characterization.measure_cycles) as f64,
                );
                luts.push((class, lut));
            }
            let timer = Instant::now();
            let built = spec.build().map_err(|e| e.to_string())?;
            let build = timer.elapsed();
            let timer = Instant::now();
            let model = cold_provider.get(spec).map_err(|e| e.to_string())?;
            let acquire = timer.elapsed();
            layers.add_time("fabric.build_s", build);
            layers.add(
                "fabric.store_write_s",
                acquire.saturating_sub(build).as_secs_f64(),
            );
            for (class, lut) in &luts {
                if built.switch_lut(*class) != lut || model.switch_lut(*class) != lut {
                    return Err(format!(
                        "{}-port {class}: direct characterization differs from the model",
                        spec.ports
                    ));
                }
            }
            cold.push(model);
        }
        let warm_provider = open_store(&dir)?;
        let timer = Instant::now();
        let warm = acquire_all(&warm_provider, &self.specs)?;
        layers.add_time("fabric.store_read_s", timer.elapsed());
        let wall = started.elapsed();

        let cold_stats = cold_provider.stats();
        let warm_stats = warm_provider.stats();
        layers.set("fabric.builds", cold_stats.builds as f64);
        layers.set("fabric.disk_hits", warm_stats.disk_hits as f64);
        layers.set(
            "fabric.disk_rejections",
            (cold_stats.disk_rejections + warm_stats.disk_rejections) as f64,
        );
        layers.set(
            "fabric.warm_hit_ratio",
            warm_stats.hits() as f64 / (warm_stats.requests() as f64).max(1.0),
        );
        let store_bytes: u64 = warm_provider
            .disk_entries()
            .map_err(|e| e.to_string())?
            .iter()
            .map(|entry| entry.bytes)
            .sum();
        layers.set("fabric.store_bytes", store_bytes as f64);
        layers.set(
            "fabric.assemble_s",
            (layers.get("fabric.build_s") - layers.get("netlist.characterize_s")).max(0.0),
        );
        layers.set_ratio(
            "netlist.lane_cycles_per_s",
            "netlist.lane_cycles",
            "netlist.characterize_s",
            1.0,
        );

        let checked = check_store(&cold_provider, &warm_provider, &cold, &warm);
        std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(Traced {
            wall,
            digest: checked?,
            layers,
        })
    }
}

fn open_store(dir: &Path) -> Result<ModelProvider, String> {
    ModelProvider::with_disk_cache(dir).map_err(|e| format!("{}: {e}", dir.display()))
}

/// Acquires every spec in order, one after another.
fn acquire_all(
    provider: &ModelProvider,
    specs: &[ModelSpec],
) -> Result<Vec<Arc<FabricEnergyModel>>, String> {
    specs
        .iter()
        .map(|spec| provider.get(spec).map_err(|e| e.to_string()))
        .collect()
}

/// Checks that the cold provider built (and persisted) every model, the
/// warm provider read every one back from disk bit-identically, and
/// neither rejected an entry or failed a write.  Returns the digest of the
/// models' canonical JSON.
fn check_store(
    cold_provider: &ModelProvider,
    warm_provider: &ModelProvider,
    cold: &[Arc<FabricEnergyModel>],
    warm: &[Arc<FabricEnergyModel>],
) -> Result<String, String> {
    let (cold_stats, warm_stats) = (cold_provider.stats(), warm_provider.stats());
    let models = cold.len() as u64;
    if cold_stats.builds != models || warm_stats.disk_hits != models || warm_stats.builds != 0 {
        return Err(format!(
            "store round trip: cold {cold_stats}; warm {warm_stats}"
        ));
    }
    let faults = cold_stats.disk_rejections
        + cold_stats.disk_write_errors
        + warm_stats.disk_rejections
        + warm_stats.disk_write_errors;
    if faults != 0 {
        return Err(format!(
            "store faults: cold {cold_stats}; warm {warm_stats}"
        ));
    }
    let mut canonical = String::new();
    for (cold, warm) in cold.iter().zip(warm) {
        let json = cold.to_canonical_json().map_err(|e| e.to_string())?;
        if warm.to_canonical_json().map_err(|e| e.to_string())? != json {
            return Err(format!(
                "{}-port model: warm read differs from its cold build",
                cold.ports()
            ));
        }
        canonical.push_str(&json);
        canonical.push('\n');
    }
    Ok(digest(canonical.as_bytes()))
}

/// The switch classes a derived model of `ports` characterizes.
fn classes(ports: usize) -> [SwitchClass; 4] {
    [
        SwitchClass::CrossbarCrosspoint,
        SwitchClass::BanyanBinary,
        SwitchClass::BatcherSorting,
        SwitchClass::Mux { inputs: ports },
    ]
}

/// The metric-name suffix of a switch class.
fn class_label(class: SwitchClass) -> String {
    match class {
        SwitchClass::CrossbarCrosspoint => "crosspoint".into(),
        SwitchClass::BanyanBinary => "banyan".into(),
        SwitchClass::BatcherSorting => "batcher".into(),
        SwitchClass::Mux { inputs } => format!("mux{inputs}"),
    }
}

/// Lane-cycles measured to characterize `model`: one measurement of
/// `measure_cycles` lane-cycles per occupancy state of each switch class.
fn lane_cycles(model: &FabricEnergyModel, spec: &ModelSpec) -> u64 {
    let ModelKind::Derived {
        characterization, ..
    } = &spec.kind
    else {
        return 0;
    };
    classes(model.ports())
        .iter()
        .map(|&class| {
            (model.switch_lut(class).ports() as u64 + 1) * characterization.measure_cycles
        })
        .sum()
}

/// Mean `|ours / paper − 1|` over every non-zero entry of the paper's
/// Table 1, with ours assembled from the first seed's four models as the
/// `table1` bin does (2×2 classes and crosspoint from the 32-port model,
/// whose sorting switch compares log2(32)-bit addresses; each size's MUX).
#[must_use]
pub fn paper_err(first_seed_models: &[Arc<FabricEnergyModel>]) -> f64 {
    let largest = first_seed_models.last().expect("four models per seed");
    let ours = Table1 {
        crosspoint: largest.switch_lut(SwitchClass::CrossbarCrosspoint).clone(),
        banyan_binary: largest.switch_lut(SwitchClass::BanyanBinary).clone(),
        batcher_sorting: largest.switch_lut(SwitchClass::BatcherSorting).clone(),
        muxes: first_seed_models
            .iter()
            .map(|m| m.switch_lut(SwitchClass::Mux { inputs: m.ports() }).clone())
            .collect(),
    };
    let paper = Table1::paper();
    let pairs = |t: &Table1| {
        let mut luts = vec![&t.crosspoint, &t.banyan_binary, &t.batcher_sorting];
        luts.extend(&t.muxes);
        luts.into_iter()
            .flat_map(|lut| lut.entries().to_vec())
            .collect::<Vec<_>>()
    };
    let errors: Vec<f64> = pairs(&ours)
        .iter()
        .zip(pairs(&paper))
        .filter(|(_, paper)| paper.as_femtojoules() != 0.0)
        .map(|(ours, paper)| (ours.as_femtojoules() / paper.as_femtojoules() - 1.0).abs())
        .collect();
    errors.iter().sum::<f64>() / errors.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(".store")
            .join(name)
    }

    #[test]
    fn stimulus_seeds_start_at_the_workload_seed_and_stay_distinct() {
        assert_eq!(stimulus_seed(0xDAC_2002, 0), 0xDAC_2002);
        let seeds: std::collections::BTreeSet<u64> =
            (0..SEEDS).map(|k| stimulus_seed(5, k)).collect();
        assert_eq!(seeds.len(), SEEDS);
    }

    #[test]
    fn traced_run_reproduces_the_untraced_models() {
        let dir = scratch("traced-replay");
        let mut workload = Table1Workload::new(3, 2, &dir);
        let (sample, models) = workload.run().unwrap();
        assert_eq!(workload.models(), 8);
        assert_eq!(models.len(), 8);
        let traced = workload.run_traced().unwrap();
        assert_eq!(traced.digest, sample.digest);
        assert!(traced.layers.unknown_names().is_empty());
        assert_eq!(
            traced.layers.get("netlist.lane_cycles"),
            sample.sim_cycles as f64
        );
        assert_eq!(traced.layers.get("fabric.disk_hits"), 8.0);
        assert_eq!(traced.layers.get("fabric.disk_rejections"), 0.0);
        assert!(paper_err(&models[..4]) > 0.0);
        std::fs::remove_dir_all(&dir).unwrap();
        let _ = std::fs::remove_dir(dir.parent().unwrap());
    }
}
