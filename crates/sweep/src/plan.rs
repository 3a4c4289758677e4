//! Sweep plans: the *plan* stage of the plan → execute → merge pipeline.
//!
//! A [`SweepPlan`] expands a scenario's grid into its flat, seeded
//! [`SweepCell`] list exactly once and splits it into self-describing
//! [`Shard`]s.  Each shard carries complete cells (coordinates *and* derived
//! seeds), so a worker process given nothing but the serialized plan and a
//! shard index reproduces its slice of the grid bit for bit — no coordination
//! with other workers and no shared state: each process builds the models
//! its shard needs in its own memory.
//!
//! ```text
//! fabric-power plan paper-fig9 --shards 3 --out plan.json   # plan
//! fabric-power run-shard plan.json --index 0 --out p0.json  # execute (x3)
//! fabric-power merge p0.json p1.json p2.json --out all.json # merge
//! ```
//!
//! The merged document is byte-identical to a single-process `sweep` run of
//! the same scenario, for any shard count, split strategy and thread count
//! (pinned by `tests/shard_merge.rs`).

use serde::{Deserialize, Serialize};

use crate::cell::{SeedStrategy, SweepCell};
use crate::config::ExperimentConfig;

/// Expands a configuration into its flat cell list, in canonical order
/// (mesh → ports → architecture → offered load — the inner three axes in the
/// order the original sequential loops visited the grid in, with the network
/// axis, when present, outermost), with every cell's seed fixed up front.
///
/// This is *the* grid expansion: the engine, plans and shards all call it, so
/// cell indices and seeds can never disagree between a planned run and a
/// direct one.
#[must_use]
pub(crate) fn expand_cells(
    config: &ExperimentConfig,
    seed_strategy: SeedStrategy,
) -> Vec<SweepCell> {
    // A single-router sweep is a network sweep over the one-element axis
    // `[None]`; a network sweep iterates its mesh sizes outermost.
    let networks = match &config.network {
        None => vec![None],
        Some(network) => network
            .meshes
            .iter()
            .map(|&mesh| Some(network.network_config(mesh)))
            .collect(),
    };
    let mut cells = Vec::with_capacity(config.grid_size());
    for network in networks {
        for &ports in &config.port_counts {
            for &architecture in &config.architectures {
                for &offered_load in &config.offered_loads {
                    cells.push(SweepCell {
                        index: cells.len(),
                        architecture,
                        ports,
                        offered_load,
                        pattern: config.pattern,
                        seed: seed_strategy.cell_seed(
                            config.seed,
                            architecture,
                            ports,
                            offered_load,
                            config.pattern,
                            network.as_ref(),
                        ),
                        network,
                    });
                }
            }
        }
    }
    cells
}

/// How a plan distributes cells over its shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum ShardStrategy {
    /// Contiguous runs of cell indices (shard 0 gets the first
    /// `ceil(n/k)`-ish cells, and so on).  Cells of one fabric size cluster
    /// in canonical order, so contiguous shards tend to need fewer distinct
    /// energy models each.
    #[default]
    Contiguous,
    /// Cell `i` goes to shard `i mod k`.  Spreads expensive high-load /
    /// large-fabric cells evenly across shards at the cost of every shard
    /// touching every fabric size.
    RoundRobin,
}

impl ShardStrategy {
    /// Parses the CLI spelling (`contiguous` / `round-robin`).
    ///
    /// # Errors
    ///
    /// Returns the unrecognized input.
    pub fn parse(input: &str) -> Result<Self, String> {
        match input {
            "contiguous" => Ok(Self::Contiguous),
            "round-robin" => Ok(Self::RoundRobin),
            other => Err(format!(
                "unknown shard strategy `{other}` (expected `contiguous` or `round-robin`)"
            )),
        }
    }

    /// The CLI spelling of this strategy.
    #[must_use]
    pub fn slug(self) -> &'static str {
        match self {
            Self::Contiguous => "contiguous",
            Self::RoundRobin => "round-robin",
        }
    }
}

/// Errors raised while building a plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// A plan needs at least one shard.
    ZeroShards,
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::ZeroShards => write!(f, "a plan needs at least one shard"),
        }
    }
}

impl std::error::Error for PlanError {}

/// One self-describing slice of a planned sweep: the cells this shard owns,
/// each complete with its grid index and derived seed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Shard {
    /// This shard's position in the plan (`0..total`).
    pub index: usize,
    /// How many shards the plan was split into.
    pub total: usize,
    /// The cells this shard evaluates, in ascending grid-index order.
    pub cells: Vec<SweepCell>,
}

impl Shard {
    /// The lowest and highest grid indices this shard covers, or `None` for
    /// an empty shard.  (Round-robin shards cover a strided set; the range
    /// is still what execution reports tag their output with.)
    #[must_use]
    pub(crate) fn cell_index_range(&self) -> Option<(usize, usize)> {
        Some((self.cells.first()?.index, self.cells.last()?.index))
    }

    /// The distinct fabric sizes this shard needs energy models for, in
    /// first-seen order.
    #[must_use]
    pub fn unique_ports(&self) -> Vec<usize> {
        crate::cell::unique_ports(&self.cells)
    }
}

/// The grid-wide context of a plan, without the shards: everything
/// [`crate::SweepEngine::run_shard_detached`] needs besides the cells
/// themselves to execute a [`Shard`] and tag the resulting document.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlanHeader {
    /// The scenario name the plan was built from (or a free-form label).
    pub scenario: String,
    /// The exact configuration the cells were expanded from.
    pub config: ExperimentConfig,
    /// How each cell's seed was derived from `config.seed`.
    pub seed_strategy: SeedStrategy,
}

/// A fully expanded, sharded sweep: the serializable artifact the `plan`
/// subcommand writes and `run-shard` consumes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepPlan {
    /// The scenario name the plan was built from (or a free-form label).
    pub scenario: String,
    /// The exact configuration the cells were expanded from.
    pub config: ExperimentConfig,
    /// How each cell's seed was derived from `config.seed`.
    pub seed_strategy: SeedStrategy,
    /// How cells were distributed over shards.
    pub strategy: ShardStrategy,
    /// The shards, in index order.  Every grid cell appears in exactly one.
    pub shards: Vec<Shard>,
}

impl SweepPlan {
    /// Expands `config` once and splits the cells into `shard_count` shards.
    ///
    /// # Errors
    ///
    /// Returns [`PlanError::ZeroShards`] when `shard_count` is zero.
    pub fn new(
        scenario: impl Into<String>,
        config: ExperimentConfig,
        seed_strategy: SeedStrategy,
        shard_count: usize,
        strategy: ShardStrategy,
    ) -> Result<Self, PlanError> {
        if shard_count == 0 {
            return Err(PlanError::ZeroShards);
        }
        let cells = expand_cells(&config, seed_strategy);
        let mut buckets: Vec<Vec<SweepCell>> = vec![Vec::new(); shard_count];
        match strategy {
            ShardStrategy::Contiguous => {
                // First `remainder` shards get one extra cell, so sizes never
                // differ by more than one.
                let base = cells.len() / shard_count;
                let remainder = cells.len() % shard_count;
                let mut cursor = 0;
                for (shard, bucket) in buckets.iter_mut().enumerate() {
                    let take = base + usize::from(shard < remainder);
                    bucket.extend_from_slice(&cells[cursor..cursor + take]);
                    cursor += take;
                }
            }
            ShardStrategy::RoundRobin => {
                for cell in cells {
                    let shard = cell.index % shard_count;
                    buckets[shard].push(cell);
                }
            }
        }
        let shards = buckets
            .into_iter()
            .enumerate()
            .map(|(index, cells)| Shard {
                index,
                total: shard_count,
                cells,
            })
            .collect();
        Ok(Self {
            scenario: scenario.into(),
            config,
            seed_strategy,
            strategy,
            shards,
        })
    }

    /// Number of shards in the plan.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Total cells across all shards (the grid size).
    #[must_use]
    pub fn total_cells(&self) -> usize {
        self.shards.iter().map(|s| s.cells.len()).sum()
    }

    /// Looks up one shard by index.
    #[must_use]
    pub fn shard(&self, index: usize) -> Option<&Shard> {
        self.shards.get(index)
    }

    /// The grid-wide context of this plan (scenario, configuration, seed
    /// strategy), without the shards.
    #[must_use]
    pub fn header(&self) -> PlanHeader {
        PlanHeader {
            scenario: self.scenario.clone(),
            config: self.config.clone(),
            seed_strategy: self.seed_strategy,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_plan(shards: usize, strategy: ShardStrategy) -> SweepPlan {
        SweepPlan::new(
            "plan-test",
            ExperimentConfig::quick(),
            SeedStrategy::Shared,
            shards,
            strategy,
        )
        .expect("plan builds")
    }

    #[test]
    fn every_cell_lands_in_exactly_one_shard() {
        let grid = ExperimentConfig::quick().grid_size();
        for strategy in [ShardStrategy::Contiguous, ShardStrategy::RoundRobin] {
            for shards in [1, 2, 3, 7, grid, grid + 5] {
                let plan = quick_plan(shards, strategy);
                assert_eq!(plan.shard_count(), shards);
                assert_eq!(plan.total_cells(), grid, "{strategy:?} x{shards}");
                let mut seen = vec![false; grid];
                for shard in &plan.shards {
                    assert_eq!(shard.total, shards);
                    for cell in &shard.cells {
                        assert!(!seen[cell.index], "cell {} duplicated", cell.index);
                        seen[cell.index] = true;
                    }
                    // Cells stay in ascending grid order inside a shard.
                    assert!(shard.cells.windows(2).all(|w| w[0].index < w[1].index));
                }
                assert!(
                    seen.iter().all(|&s| s),
                    "{strategy:?} x{shards} missed cells"
                );
            }
        }
    }

    #[test]
    fn contiguous_shards_are_ranges_and_balanced() {
        let plan = quick_plan(3, ShardStrategy::Contiguous);
        let sizes: Vec<usize> = plan.shards.iter().map(|s| s.cells.len()).collect();
        assert_eq!(sizes, vec![8, 8, 8]); // 24 cells over 3 shards
        for shard in &plan.shards {
            let (first, last) = shard.cell_index_range().unwrap();
            assert_eq!(last - first + 1, shard.cells.len(), "contiguous range");
        }
    }

    #[test]
    fn round_robin_strides_cells_across_shards() {
        let plan = quick_plan(3, ShardStrategy::RoundRobin);
        for shard in &plan.shards {
            assert!(shard.cells.iter().all(|c| c.index % 3 == shard.index));
        }
    }

    #[test]
    fn unbalanced_split_never_differs_by_more_than_one() {
        let plan = quick_plan(5, ShardStrategy::Contiguous);
        let sizes: Vec<usize> = plan.shards.iter().map(|s| s.cells.len()).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 24);
        assert!(sizes.iter().max().unwrap() - sizes.iter().min().unwrap() <= 1);
    }

    #[test]
    fn plan_round_trips_through_json() {
        let plan = quick_plan(3, ShardStrategy::RoundRobin);
        let json = serde_json::to_string_pretty(&plan).expect("serialize");
        let back: SweepPlan = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(plan, back);
    }

    #[test]
    fn zero_shards_is_rejected() {
        let err = SweepPlan::new(
            "bad",
            ExperimentConfig::quick(),
            SeedStrategy::Shared,
            0,
            ShardStrategy::Contiguous,
        )
        .unwrap_err();
        assert_eq!(err, PlanError::ZeroShards);
        assert!(err.to_string().contains("at least one"));
    }

    #[test]
    fn shard_helpers_describe_the_slice() {
        let plan = quick_plan(2, ShardStrategy::Contiguous);
        let shard = plan.shard(0).unwrap();
        assert_eq!(shard.cell_index_range(), Some((0, 11)));
        assert_eq!(shard.unique_ports(), vec![4]);
        assert!(plan.shard(2).is_none());
        let empty = Shard {
            index: 0,
            total: 1,
            cells: Vec::new(),
        };
        assert_eq!(empty.cell_index_range(), None);
        assert!(empty.unique_ports().is_empty());
    }

    #[test]
    fn header_carries_the_grid_wide_context() {
        let plan = quick_plan(3, ShardStrategy::Contiguous);
        let header = plan.header();
        assert_eq!(header.scenario, plan.scenario);
        assert_eq!(header.config, plan.config);
        assert_eq!(header.seed_strategy, plan.seed_strategy);
        // The header round-trips through JSON.
        let json = serde_json::to_string(&header).unwrap();
        let back: PlanHeader = serde_json::from_str(&json).unwrap();
        assert_eq!(back, header);
    }

    #[test]
    fn strategies_parse_and_slug_round_trip() {
        for strategy in [ShardStrategy::Contiguous, ShardStrategy::RoundRobin] {
            assert_eq!(ShardStrategy::parse(strategy.slug()).unwrap(), strategy);
        }
        assert!(ShardStrategy::parse("spiral").is_err());
    }
}
