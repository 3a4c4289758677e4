//! The scenario registry: named workloads mapping to full experiment
//! configurations, serializable to and from JSON.
//!
//! Scenarios are how users talk to the `fabric-power` CLI ("run
//! `paper-fig9`") and how future workloads get added without touching code
//! that consumes them: register a name, get orchestration, emission and
//! reporting for free.

use serde::{Deserialize, Serialize};

use fabric_power_fabric::Architecture;
use fabric_power_router::traffic::TrafficPattern;
use fabric_power_tech::constants::FIGURE10_THROUGHPUT;

use crate::config::{ExperimentConfig, ModelSource, NetworkSweepConfig};

/// One named workload: a full experiment configuration plus a summary line.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// The registry key (kebab-case, e.g. `paper-fig9`).
    pub name: String,
    /// One-line description shown by `fabric-power list-scenarios`.
    pub summary: String,
    /// The grid this scenario expands to.
    pub config: ExperimentConfig,
}

/// An ordered collection of named scenarios.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ScenarioRegistry {
    scenarios: Vec<Scenario>,
}

impl ScenarioRegistry {
    /// Creates an empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The built-in scenarios: the paper's figures plus the extended traffic
    /// patterns.
    #[must_use]
    pub fn builtin() -> Self {
        let mut registry = Self::new();

        registry.register(Scenario {
            name: "paper-fig9".into(),
            summary:
                "Figure 9: power vs. throughput, 4 architectures x {4,8,16,32} ports x 5 loads"
                    .into(),
            config: ExperimentConfig::paper(),
        });
        registry.register(Scenario {
            name: "paper-fig10".into(),
            summary: "Figure 10: power vs. ports at the paper's fixed 50% offered load".into(),
            config: ExperimentConfig {
                offered_loads: vec![FIGURE10_THROUGHPUT],
                ..ExperimentConfig::paper()
            },
        });
        registry.register(Scenario {
            name: "quick".into(),
            summary: "Reduced smoke grid ({4,8} ports, 3 loads, short windows)".into(),
            config: ExperimentConfig::quick(),
        });
        registry.register(Scenario {
            name: "derived-quick".into(),
            summary: "Quick grid with fully derived energy models (gate-level characterization)"
                .into(),
            config: ExperimentConfig {
                model_source: ModelSource::Derived,
                ..ExperimentConfig::quick()
            },
        });
        registry.register(Scenario {
            name: "hotspot-ablation".into(),
            summary: "30% of traffic aimed at port 0, {8,16} ports (beyond-paper ablation)".into(),
            config: ExperimentConfig {
                port_counts: vec![8, 16],
                pattern: TrafficPattern::Hotspot {
                    port: 0,
                    fraction: 0.3,
                },
                ..ExperimentConfig::paper()
            },
        });
        registry.register(Scenario {
            name: "tornado".into(),
            summary: "Tornado permutation (half-span destinations), contention-free at the arbiter"
                .into(),
            config: ExperimentConfig {
                pattern: TrafficPattern::Tornado,
                ..ExperimentConfig::paper()
            },
        });
        registry.register(Scenario {
            name: "bit-complement".into(),
            summary: "Bit-complement permutation (destination = !source)".into(),
            config: ExperimentConfig {
                pattern: TrafficPattern::BitComplement,
                ..ExperimentConfig::paper()
            },
        });
        registry.register(Scenario {
            name: "bursty".into(),
            summary: "Two-state on/off traffic: ON 80%, OFF 5%, 400-cycle mean bursts".into(),
            config: ExperimentConfig {
                // The state loads drive bursty traffic; the swept offered
                // load is a nominal label here (see TrafficPattern::Bursty).
                offered_loads: vec![0.425],
                pattern: TrafficPattern::Bursty {
                    on_load: 0.80,
                    off_load: 0.05,
                    mean_burst: 400.0,
                },
                ..ExperimentConfig::paper()
            },
        });

        // The network-of-routers family: every operating point is a mesh (or
        // torus) of radix-8 crossbar routers; `port_counts` is the per-node
        // fabric radix and `offered_loads` the injection rate at each node's
        // local port.  Patterns address *nodes*, not ports.
        let noc_base = ExperimentConfig {
            port_counts: vec![8],
            architectures: vec![Architecture::Crossbar],
            ..ExperimentConfig::paper()
        };
        registry.register(Scenario {
            name: "noc-quick".into(),
            summary: "NoC smoke grid: 2x2 and 4x4 meshes of radix-8 crossbars, short windows"
                .into(),
            config: ExperimentConfig {
                offered_loads: vec![0.10, 0.30],
                warmup_cycles: 100,
                measure_cycles: 600,
                network: Some(NetworkSweepConfig::meshes(&[(2, 2), (4, 4)])),
                ..noc_base.clone()
            },
        });
        registry.register(Scenario {
            name: "noc-uniform".into(),
            summary: "Uniform-random node traffic over {2x2, 4x4, 8x8} meshes".into(),
            config: ExperimentConfig {
                network: Some(NetworkSweepConfig::meshes(&[(2, 2), (4, 4), (8, 8)])),
                ..noc_base.clone()
            },
        });
        registry.register(Scenario {
            name: "noc-hotspot".into(),
            summary: "30% of all node traffic aimed at node 0 of a {4x4, 8x8} mesh".into(),
            config: ExperimentConfig {
                pattern: TrafficPattern::Hotspot {
                    port: 0,
                    fraction: 0.3,
                },
                network: Some(NetworkSweepConfig::meshes(&[(4, 4), (8, 8)])),
                ..noc_base.clone()
            },
        });
        registry.register(Scenario {
            name: "noc-transpose".into(),
            summary: "Transpose permutation (node r*k+c -> c*k+r) over {4x4, 8x8} meshes".into(),
            config: ExperimentConfig {
                pattern: TrafficPattern::Transpose,
                network: Some(NetworkSweepConfig::meshes(&[(4, 4), (8, 8)])),
                ..noc_base
            },
        });

        registry
    }

    /// Adds a scenario, replacing any existing scenario with the same name.
    pub fn register(&mut self, scenario: Scenario) {
        if let Some(existing) = self.scenarios.iter_mut().find(|s| s.name == scenario.name) {
            *existing = scenario;
        } else {
            self.scenarios.push(scenario);
        }
    }

    /// Looks up a scenario by name.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&Scenario> {
        self.scenarios.iter().find(|s| s.name == name)
    }

    /// All scenarios, in registration order.
    #[must_use]
    pub fn scenarios(&self) -> &[Scenario] {
        &self.scenarios
    }

    /// All scenario names, in registration order.
    #[must_use]
    pub fn names(&self) -> Vec<&str> {
        self.scenarios.iter().map(|s| s.name.as_str()).collect()
    }

    /// Serializes the registry to pretty JSON.
    ///
    /// # Errors
    ///
    /// Propagates serializer errors.
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string_pretty(self)
    }

    /// Rebuilds a registry from JSON produced by
    /// [`ScenarioRegistry::to_json`].
    ///
    /// # Errors
    ///
    /// Propagates parse errors.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(json)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_covers_the_paper_and_the_extended_patterns() {
        let registry = ScenarioRegistry::builtin();
        for name in [
            "paper-fig9",
            "paper-fig10",
            "quick",
            "derived-quick",
            "hotspot-ablation",
            "tornado",
            "bit-complement",
            "bursty",
            "noc-quick",
            "noc-uniform",
            "noc-hotspot",
            "noc-transpose",
        ] {
            assert!(registry.get(name).is_some(), "missing scenario `{name}`");
        }
        // The noc family sweeps meshes of radix-8 crossbars.
        let noc = registry.get("noc-uniform").unwrap();
        let network = noc.config.network.as_ref().expect("network axis");
        assert_eq!(network.meshes.len(), 3);
        assert_eq!(noc.config.port_counts, vec![8]);
        assert_eq!(noc.config.grid_size(), 3 * 5, "3 meshes x 1 arch x 5 loads");
        assert_eq!(
            registry.get("derived-quick").unwrap().config.model_source,
            ModelSource::Derived
        );
        assert_eq!(
            registry.get("paper-fig9").unwrap().config.grid_size(),
            4 * 4 * 5
        );
        assert_eq!(
            registry.get("paper-fig10").unwrap().config.offered_loads,
            vec![0.50]
        );
        assert!(registry.get("nonexistent").is_none());
    }

    #[test]
    fn registry_round_trips_through_json() {
        let registry = ScenarioRegistry::builtin();
        let json = registry.to_json().expect("serialize");
        let back = ScenarioRegistry::from_json(&json).expect("deserialize");
        assert_eq!(registry, back);
    }

    #[test]
    fn register_replaces_by_name() {
        let mut registry = ScenarioRegistry::builtin();
        let count = registry.scenarios().len();
        let mut custom = registry.get("quick").unwrap().clone();
        custom.summary = "replaced".into();
        registry.register(custom);
        assert_eq!(registry.scenarios().len(), count);
        assert_eq!(registry.get("quick").unwrap().summary, "replaced");
    }
}
