//! Sweep cells: one flattened operating point per cell, each carrying its
//! own deterministic RNG seed, plus the measured [`SweepPoint`] results.

use serde::{Deserialize, Serialize};

use fabric_power_fabric::Architecture;
use fabric_power_noc::{NetworkConfig, NetworkStats};
use fabric_power_router::metrics::SparseLatencyHistogram;
use fabric_power_router::traffic::TrafficPattern;
use fabric_power_tech::units::{Energy, Power};

/// How each cell's simulation seed is derived from the experiment's base
/// seed.
///
/// Either way the seed is fixed when the grid is expanded — before any worker
/// thread starts — so results never depend on thread count or scheduling
/// order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum SeedStrategy {
    /// Every cell uses the base seed unchanged.  This matches the original
    /// sequential `ThroughputSweep::run` implementation point for point, so
    /// it is the default.
    #[default]
    Shared,
    /// Each cell's seed is mixed from `(base_seed, architecture, ports,
    /// offered_load, pattern)`, decorrelating the traffic streams of
    /// different cells (two cells that differ only in architecture still
    /// share a seed stream under [`SeedStrategy::Shared`]).
    PerCell,
}

impl SeedStrategy {
    /// Parses the CLI spelling (`shared` / `per-cell`).
    ///
    /// # Errors
    ///
    /// Returns the unrecognized input.
    pub fn parse(input: &str) -> Result<Self, String> {
        match input {
            "shared" => Ok(Self::Shared),
            "per-cell" => Ok(Self::PerCell),
            other => Err(format!(
                "unknown seed strategy `{other}` (expected `shared` or `per-cell`)"
            )),
        }
    }

    /// Derives the cell seed for one operating point.
    ///
    /// `network` is the cell's network coordinate, when the sweep has a mesh
    /// axis.  Single-router cells (`None`) derive exactly the seed they did
    /// before the network layer existed, under either strategy.
    #[must_use]
    pub fn cell_seed(
        self,
        base_seed: u64,
        architecture: Architecture,
        ports: usize,
        offered_load: f64,
        pattern: TrafficPattern,
        network: Option<&NetworkConfig>,
    ) -> u64 {
        match self {
            Self::Shared => base_seed,
            Self::PerCell => {
                let mut state = base_seed;
                state = mix(state, architecture_fingerprint(architecture));
                state = mix(state, ports as u64);
                state = mix(state, offered_load.to_bits());
                state = mix(state, pattern_fingerprint(pattern));
                if let Some(network) = network {
                    state = mix(state, network_fingerprint(network));
                }
                state
            }
        }
    }
}

/// SplitMix64-style combine step: deterministic, well-distributed, and
/// platform independent.
fn mix(state: u64, value: u64) -> u64 {
    let mut z = state
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(value.wrapping_mul(0xA24B_AED4_963E_E407));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn architecture_fingerprint(architecture: Architecture) -> u64 {
    // The slug is stable across compilers and releases, unlike discriminant
    // values or type layout.
    fnv1a(architecture.slug().as_bytes())
}

/// A stable 64-bit fingerprint of a traffic pattern (variant tag plus every
/// parameter), used for per-cell seed derivation.
#[must_use]
pub(crate) fn pattern_fingerprint(pattern: TrafficPattern) -> u64 {
    match pattern {
        TrafficPattern::UniformRandom => fnv1a(b"uniform-random"),
        TrafficPattern::Hotspot { port, fraction } => {
            mix(mix(fnv1a(b"hotspot"), port as u64), fraction.to_bits())
        }
        TrafficPattern::Permutation { shift } => mix(fnv1a(b"permutation"), shift as u64),
        TrafficPattern::Tornado => fnv1a(b"tornado"),
        TrafficPattern::BitComplement => fnv1a(b"bit-complement"),
        TrafficPattern::Transpose => fnv1a(b"transpose"),
        TrafficPattern::Bursty {
            on_load,
            off_load,
            mean_burst,
        } => mix(
            mix(mix(fnv1a(b"bursty"), on_load.to_bits()), off_load.to_bits()),
            mean_burst.to_bits(),
        ),
    }
}

/// A stable 64-bit fingerprint of a cell's network coordinate (shape,
/// routing policy and every link knob), used for per-cell seed derivation on
/// sweeps with a mesh axis.
#[must_use]
pub(crate) fn network_fingerprint(network: &NetworkConfig) -> u64 {
    let mut state = fnv1a(b"network");
    state = mix(state, network.width as u64);
    state = mix(state, network.height as u64);
    state = mix(state, u64::from(network.torus));
    state = mix(state, fnv1a(network.routing.slug().as_bytes()));
    state = mix(state, network.link_depth as u64);
    state = mix(state, network.link_latency);
    state = mix(state, u64::from(network.link_grids));
    state
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// One operating point of an expanded sweep grid, ready to simulate.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SweepCell {
    /// Position in the grid's canonical order (ports → architecture → load),
    /// which is also the order results are reported in.
    pub index: usize,
    /// Architecture to simulate.
    pub architecture: Architecture,
    /// Fabric size.
    pub ports: usize,
    /// Offered load per port.
    pub offered_load: f64,
    /// Traffic destination pattern.
    pub pattern: TrafficPattern,
    /// The simulation seed this cell runs with (already derived; see
    /// [`SeedStrategy`]).
    pub seed: u64,
    /// The network this cell simulates, when the sweep has a mesh axis:
    /// `ports` is then the per-node fabric radix and `offered_load` the
    /// injection rate at each node's local port.  `None` (and omitted from
    /// JSON) for single-router cells, so pre-network plans keep their exact
    /// bytes and still parse.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub network: Option<NetworkConfig>,
}

/// The distinct fabric sizes a cell list touches, in first-seen order — the
/// sizes an executor must acquire energy models for before running it.
#[must_use]
pub fn unique_ports(cells: &[SweepCell]) -> Vec<usize> {
    let mut ports = Vec::new();
    for cell in cells {
        if !ports.contains(&cell.ports) {
            ports.push(cell.ports);
        }
    }
    ports
}

/// One simulated operating point: architecture × size × offered load.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepPoint {
    /// Architecture simulated.
    pub architecture: Architecture,
    /// Fabric size.
    pub ports: usize,
    /// Offered load per port.
    pub offered_load: f64,
    /// Throughput measured at the egress ports.
    pub measured_throughput: f64,
    /// Average switch-fabric power.
    pub power: Power,
    /// Node-switch energy share of the total.
    pub switch_energy: Energy,
    /// Internal-buffer energy share of the total.
    pub buffer_energy: Energy,
    /// Interconnect-wire energy share of the total.
    pub wire_energy: Energy,
    /// Words absorbed by internal buffers (interconnect contention).
    pub buffered_words: u64,
    /// Mean packet latency in cycles.
    pub average_latency_cycles: f64,
    /// Median (50th-percentile) packet latency in cycles, from the
    /// simulator's deterministic fixed-bin latency histogram.  Defaults keep
    /// documents emitted before the percentile columns existed parseable
    /// (they read back as 0).
    #[serde(default)]
    pub latency_p50: f64,
    /// 95th-percentile packet latency in cycles.
    #[serde(default)]
    pub latency_p95: f64,
    /// 99th-percentile packet latency in cycles.
    #[serde(default)]
    pub latency_p99: f64,
    /// The full latency distribution of this cell, sparse over non-zero
    /// bins (the ROADMAP "full latency histograms in emitted documents"
    /// follow-on).  Lossless: it keeps every non-zero bin of the
    /// simulator's dense histogram, plus its overflow count, sample count,
    /// sum and maximum.  `diff` compares it bin by bin.  Defaults (to
    /// empty) keep documents emitted before this field existed parseable.
    #[serde(default)]
    pub latency_histogram: SparseLatencyHistogram,
    /// Network-level aggregates (hop percentiles, link and per-hop energy,
    /// saturation throughput), for cells that ran a multi-node network.
    /// `None` — and omitted from the JSON — for single-router cells and 1×1
    /// networks, so single-router documents keep their exact bytes.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub network: Option<NetworkStats>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric_power_noc::RoutingPolicy;

    #[test]
    fn shared_strategy_passes_the_base_seed_through() {
        let seed = SeedStrategy::Shared.cell_seed(
            42,
            Architecture::Banyan,
            8,
            0.3,
            TrafficPattern::UniformRandom,
            None,
        );
        assert_eq!(seed, 42);
        // Shared stays the base seed on network cells too — the
        // seed-compatible default, whatever the axis.
        let networked = SeedStrategy::Shared.cell_seed(
            42,
            Architecture::Banyan,
            8,
            0.3,
            TrafficPattern::UniformRandom,
            Some(&NetworkConfig::mesh(4, 4)),
        );
        assert_eq!(networked, 42);
    }

    #[test]
    fn per_cell_seeds_differ_across_every_coordinate() {
        let base = |architecture, ports, load, pattern| {
            SeedStrategy::PerCell.cell_seed(0xDAC_2002, architecture, ports, load, pattern, None)
        };
        let reference = base(Architecture::Banyan, 8, 0.3, TrafficPattern::UniformRandom);
        assert_ne!(
            reference,
            base(
                Architecture::Crossbar,
                8,
                0.3,
                TrafficPattern::UniformRandom
            )
        );
        assert_ne!(
            reference,
            base(Architecture::Banyan, 16, 0.3, TrafficPattern::UniformRandom)
        );
        assert_ne!(
            reference,
            base(Architecture::Banyan, 8, 0.4, TrafficPattern::UniformRandom)
        );
        assert_ne!(
            reference,
            base(Architecture::Banyan, 8, 0.3, TrafficPattern::Tornado)
        );
        // And it is a pure function of its inputs.
        assert_eq!(
            reference,
            base(Architecture::Banyan, 8, 0.3, TrafficPattern::UniformRandom)
        );
    }

    #[test]
    fn pattern_fingerprints_separate_parameterized_variants() {
        let a = pattern_fingerprint(TrafficPattern::Hotspot {
            port: 0,
            fraction: 0.3,
        });
        let b = pattern_fingerprint(TrafficPattern::Hotspot {
            port: 1,
            fraction: 0.3,
        });
        let c = pattern_fingerprint(TrafficPattern::Hotspot {
            port: 0,
            fraction: 0.4,
        });
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(
            pattern_fingerprint(TrafficPattern::Tornado),
            pattern_fingerprint(TrafficPattern::BitComplement)
        );
    }

    #[test]
    fn network_fingerprints_separate_every_knob() {
        let reference = NetworkConfig::mesh(4, 4);
        let fingerprint = network_fingerprint(&reference);
        assert_eq!(fingerprint, network_fingerprint(&NetworkConfig::mesh(4, 4)));
        for variant in [
            NetworkConfig::mesh(8, 4),
            NetworkConfig::mesh(4, 8),
            NetworkConfig {
                torus: true,
                ..NetworkConfig::mesh(4, 4)
            },
            NetworkConfig {
                routing: RoutingPolicy::MinimalAdaptive,
                ..NetworkConfig::mesh(4, 4)
            },
            NetworkConfig {
                link_depth: 2,
                ..NetworkConfig::mesh(4, 4)
            },
            NetworkConfig {
                link_latency: 2,
                ..NetworkConfig::mesh(4, 4)
            },
            NetworkConfig {
                link_grids: 32,
                ..NetworkConfig::mesh(4, 4)
            },
        ] {
            assert_ne!(fingerprint, network_fingerprint(&variant), "{variant:?}");
        }
        // And the per-cell strategy folds it into the seed.
        let seeded = |network| {
            SeedStrategy::PerCell.cell_seed(
                7,
                Architecture::Banyan,
                8,
                0.3,
                TrafficPattern::UniformRandom,
                network,
            )
        };
        assert_ne!(seeded(None), seeded(Some(&reference)));
        assert_ne!(
            seeded(Some(&reference)),
            seeded(Some(&NetworkConfig::mesh(8, 8)))
        );
    }

    #[test]
    fn seed_strategy_parses_cli_spellings() {
        assert_eq!(SeedStrategy::parse("shared").unwrap(), SeedStrategy::Shared);
        assert_eq!(
            SeedStrategy::parse("per-cell").unwrap(),
            SeedStrategy::PerCell
        );
        assert!(SeedStrategy::parse("banana").is_err());
    }
}
