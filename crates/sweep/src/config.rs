//! Experiment configuration: the declarative description of a sweep grid.
//! `fabric_power_core::prelude` re-exports these types.

use serde::{Deserialize, Serialize};

use fabric_power_fabric::energy_model::EnergyModelError;
use fabric_power_fabric::provider::ModelSpec;
use fabric_power_fabric::Architecture;
use fabric_power_netlist::characterize::CharacterizationConfig;
use fabric_power_netlist::library::CellLibrary;
use fabric_power_noc::{NetworkConfig, NetworkError, RoutingPolicy};
use fabric_power_router::config::SimulationConfig;
use fabric_power_router::sim::SimulationError;
use fabric_power_router::traffic::TrafficPattern;
use fabric_power_tech::Technology;

/// Where the bit-energy components come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ModelSource {
    /// The paper's published Table 1 / Table 2 / 87 fJ values.
    Paper,
    /// Everything re-derived from the substrate models (gate-level
    /// characterization, structural SRAM model, wire model).
    Derived,
}

/// Errors raised while running an experiment.
#[derive(Debug)]
pub enum ExperimentError {
    /// Building an energy model failed.
    Model(EnergyModelError),
    /// Building or running the simulator failed.
    Simulation(SimulationError),
    /// Building or running the network simulator failed.
    Network(NetworkError),
    /// A shard index outside the plan was requested.
    InvalidShard {
        /// The requested shard index.
        index: usize,
        /// How many shards the plan has.
        shards: usize,
    },
}

impl std::fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Model(e) => write!(f, "energy model: {e}"),
            Self::Simulation(e) => write!(f, "simulation: {e}"),
            Self::Network(e) => write!(f, "network: {e}"),
            Self::InvalidShard { index, shards } => write!(
                f,
                "shard index {index} is out of range: the plan has {shards} shard(s)"
            ),
        }
    }
}

impl std::error::Error for ExperimentError {}

impl From<EnergyModelError> for ExperimentError {
    fn from(e: EnergyModelError) -> Self {
        Self::Model(e)
    }
}

impl From<SimulationError> for ExperimentError {
    fn from(e: SimulationError) -> Self {
        Self::Simulation(e)
    }
}

impl From<NetworkError> for ExperimentError {
    fn from(e: NetworkError) -> Self {
        Self::Network(e)
    }
}

/// One grid shape of a network sweep's mesh axis.
///
/// (A dedicated struct rather than a `(usize, usize)` tuple so the JSON form
/// is self-describing: `{"width": 4, "height": 4}`.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MeshSize {
    /// Routers along the X axis.
    pub width: usize,
    /// Routers along the Y axis.
    pub height: usize,
}

impl MeshSize {
    /// A `width`×`height` grid.
    #[must_use]
    pub fn new(width: usize, height: usize) -> Self {
        Self { width, height }
    }
}

/// The network axis of a sweep: the mesh sizes to evaluate plus the link and
/// routing knobs every size shares.
///
/// Present on an [`ExperimentConfig`] it turns each operating point into a
/// network-of-routers run: the grid gains a fourth (outermost) axis over
/// `meshes`, `port_counts` becomes the per-node fabric radix, and
/// `offered_loads` the injection rate at each node's local port.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetworkSweepConfig {
    /// Grid shapes to evaluate (the sweep's fourth axis).
    pub meshes: Vec<MeshSize>,
    /// `true` for tori (wraparound links), `false` for meshes.
    pub torus: bool,
    /// Next-hop selection policy.
    pub routing: RoutingPolicy,
    /// Credit depth of each inter-router link.
    pub link_depth: usize,
    /// Cycles a packet spends crossing one inter-router link.
    pub link_latency: u64,
    /// Electrical length of one inter-router link in wire-grid units.
    pub link_grids: u32,
}

impl NetworkSweepConfig {
    /// A mesh axis over the given sizes with the default link knobs of
    /// [`NetworkConfig::mesh`] (dimension-order routing, depth 4,
    /// single-cycle links, 16-grid links).
    #[must_use]
    pub fn meshes(sizes: &[(usize, usize)]) -> Self {
        let template = NetworkConfig::mesh(1, 1);
        Self {
            meshes: sizes
                .iter()
                .map(|&(width, height)| MeshSize::new(width, height))
                .collect(),
            torus: false,
            routing: template.routing,
            link_depth: template.link_depth,
            link_latency: template.link_latency,
            link_grids: template.link_grids,
        }
    }

    /// The full per-run network configuration for one mesh size.
    #[must_use]
    pub(crate) fn network_config(&self, mesh: MeshSize) -> NetworkConfig {
        NetworkConfig {
            width: mesh.width,
            height: mesh.height,
            torus: self.torus,
            routing: self.routing,
            link_depth: self.link_depth,
            link_latency: self.link_latency,
            link_grids: self.link_grids,
        }
    }
}

/// Configuration shared by every experiment in the evaluation section.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentConfig {
    /// Fabric sizes to evaluate (the paper uses 4, 8, 16, 32).
    pub port_counts: Vec<usize>,
    /// Offered loads to evaluate (the paper sweeps 10 %–50 %).
    pub offered_loads: Vec<f64>,
    /// Architectures to compare.
    pub architectures: Vec<Architecture>,
    /// Payload words per packet.
    pub packet_words: usize,
    /// Warmup cycles per simulation.
    pub warmup_cycles: u64,
    /// Measured cycles per simulation.
    pub measure_cycles: u64,
    /// Random seed.
    pub seed: u64,
    /// Traffic destination pattern.
    pub pattern: TrafficPattern,
    /// Source of the bit-energy components.
    pub model_source: ModelSource,
    /// Optional network axis: when present, every operating point runs a
    /// mesh/torus of routers instead of a single fabric, and the grid gains
    /// an outermost axis over the listed mesh sizes.  Absent from (and
    /// omitted in) single-router configurations, so documents emitted before
    /// the network layer existed keep their exact bytes and still parse.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub network: Option<NetworkSweepConfig>,
}

impl ExperimentConfig {
    /// The paper's full evaluation grid: 4 architectures × {4, 8, 16, 32}
    /// ports × loads 10 %–50 %.
    #[must_use]
    pub fn paper() -> Self {
        Self {
            port_counts: vec![4, 8, 16, 32],
            offered_loads: vec![0.10, 0.20, 0.30, 0.40, 0.50],
            architectures: Architecture::ALL.to_vec(),
            packet_words: 16,
            warmup_cycles: 500,
            measure_cycles: 4000,
            seed: 0xDAC_2002,
            pattern: TrafficPattern::UniformRandom,
            model_source: ModelSource::Paper,
            network: None,
        }
    }

    /// A reduced grid that finishes in well under a second — used by unit
    /// tests, examples and smoke benches.
    #[must_use]
    pub fn quick() -> Self {
        Self {
            port_counts: vec![4, 8],
            offered_loads: vec![0.10, 0.30, 0.50],
            warmup_cycles: 100,
            measure_cycles: 600,
            ..Self::paper()
        }
    }

    /// Number of operating points the grid expands to (including the mesh
    /// axis when a network sweep is configured).
    #[must_use]
    pub fn grid_size(&self) -> usize {
        let meshes = self.network.as_ref().map_or(1, |n| n.meshes.len());
        meshes * self.port_counts.len() * self.architectures.len() * self.offered_loads.len()
    }

    /// The complete model specification for one fabric size according to
    /// [`ExperimentConfig::model_source`] — the value the model-provider
    /// layer memoizes and content-addresses on disk.
    #[must_use]
    pub fn model_spec(&self, ports: usize) -> ModelSpec {
        match self.model_source {
            ModelSource::Paper => ModelSpec::paper(ports),
            ModelSource::Derived => ModelSpec::derived(
                ports,
                Technology::tsmc180(),
                CellLibrary::calibrated_018um(),
                CharacterizationConfig::quick(),
            ),
        }
    }

    /// Builds the simulator configuration for one operating point, with an
    /// explicit per-cell seed (see [`crate::SeedStrategy`]).
    #[must_use]
    pub fn simulation_config(
        &self,
        architecture: Architecture,
        ports: usize,
        offered_load: f64,
        seed: u64,
    ) -> SimulationConfig {
        SimulationConfig {
            architecture,
            ports,
            offered_load,
            packet_words: self.packet_words,
            warmup_cycles: self.warmup_cycles,
            measure_cycles: self.measure_cycles,
            seed,
            pattern: self.pattern,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_size_counts_every_point() {
        let config = ExperimentConfig::paper();
        assert_eq!(config.grid_size(), 4 * 4 * 5);
        assert_eq!(ExperimentConfig::quick().grid_size(), 2 * 4 * 3);
    }

    #[test]
    fn a_network_axis_multiplies_the_grid_and_round_trips() {
        let config = ExperimentConfig {
            network: Some(NetworkSweepConfig::meshes(&[(4, 4), (8, 8)])),
            ..ExperimentConfig::quick()
        };
        assert_eq!(config.grid_size(), 2 * 2 * 4 * 3);
        let json = serde_json::to_string(&config).expect("serialize");
        let back: ExperimentConfig = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(config, back);
        // The axis expands into per-mesh network configurations.
        let network = config.network.as_ref().unwrap();
        let built = network.network_config(network.meshes[1]);
        assert_eq!((built.width, built.height), (8, 8));
        assert_eq!(
            built.link_depth,
            fabric_power_noc::NetworkConfig::mesh(1, 1).link_depth
        );
        // A config without the axis omits the key entirely, keeping
        // pre-network documents byte-identical.
        let single = serde_json::to_string(&ExperimentConfig::quick()).expect("serialize");
        assert!(!single.contains("network"));
    }

    #[test]
    fn config_round_trips_through_json() {
        let config = ExperimentConfig::paper();
        let json = serde_json::to_string(&config).expect("serialize");
        let back: ExperimentConfig = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(config, back);
    }

    #[test]
    fn experiment_errors_display() {
        let err = ExperimentError::from(EnergyModelError::InvalidPortCount { ports: 7 });
        assert!(err.to_string().contains('7'));
    }

    #[test]
    fn model_spec_tracks_the_model_source() {
        use fabric_power_fabric::provider::ModelKind;
        let paper = ExperimentConfig::paper();
        assert!(matches!(paper.model_spec(8).kind, ModelKind::Paper));
        let derived = ExperimentConfig {
            model_source: ModelSource::Derived,
            ..ExperimentConfig::paper()
        };
        assert!(matches!(
            derived.model_spec(8).kind,
            ModelKind::Derived { .. }
        ));
        assert_ne!(paper.model_spec(8), derived.model_spec(8));
    }
}
