//! Shard execution results and their recombination: the *merge* stage of the
//! plan → execute → merge pipeline.
//!
//! A [`ShardDocument`] is the partial result one worker emits after running a
//! single [`crate::plan::Shard`]: every measured point rides with its grid
//! index, and the document is tagged with the shard id, the shard count and
//! the cell-index range it covers.  [`merge_documents`] recombines partials
//! by cell index into a [`SweepDocument`] that is byte-identical to what a
//! single-process run of the same scenario would have emitted — and refuses
//! anything less: overlapping cells, missing cells, out-of-range cells, a
//! point placed at another cell's index and metadata that disagrees between
//! parts are all hard errors, never silent best effort.

use fabric_power_fabric::Architecture;
use serde::{Deserialize, Serialize};

use crate::cell::{SeedStrategy, SweepCell, SweepPoint};
use crate::config::ExperimentConfig;
use crate::emit::SweepDocument;
use crate::plan::expand_cells;

/// One measured cell inside a [`ShardDocument`]: the point plus the grid
/// index that places it in the merged document.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardCellResult {
    /// The cell's position in the grid's canonical order.
    pub index: usize,
    /// The measured result.
    pub point: SweepPoint,
}

/// The partial sweep result of one shard, self-describing enough to be
/// merged without access to the plan that produced it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardDocument {
    /// The scenario name the plan was built from.
    pub scenario: String,
    /// The exact configuration the grid was expanded from.
    pub config: ExperimentConfig,
    /// How each cell's seed was derived from `config.seed`.
    pub seed_strategy: SeedStrategy,
    /// Which shard of the plan this is (`0..shard_total`).
    pub shard_index: usize,
    /// How many shards the plan was split into.
    pub shard_total: usize,
    /// The `(lowest, highest)` grid indices this shard covered, or `None`
    /// when the shard was empty (a plan with more shards than cells).
    pub cell_range: Option<(usize, usize)>,
    /// The measured cells, in ascending grid-index order.
    pub results: Vec<ShardCellResult>,
}

/// Why a set of shard documents could not be merged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MergeError {
    /// No documents were given.
    NoParts,
    /// Two parts disagree on scenario, configuration, seed strategy or shard
    /// count; the message names the first disagreement.
    Mismatch(String),
    /// A grid cell appears in more than one part.
    Overlap {
        /// The duplicated cell index.
        cell: usize,
    },
    /// A grid cell appears in no part.
    Missing {
        /// The first uncovered cell index.
        cell: usize,
        /// How many cells are uncovered in total.
        total_missing: usize,
    },
    /// A part claims a cell outside the configuration's grid.
    OutOfRange {
        /// The offending cell index.
        cell: usize,
        /// The grid size the configuration expands to.
        grid_size: usize,
    },
    /// A result's point was not measured at the grid cell its index names:
    /// its architecture, port count, offered load or mesh shape differ.
    WrongCell {
        /// The result's cell index.
        cell: usize,
        /// The coordinates of that cell in the configuration's grid.
        expected: String,
        /// The coordinates the point carries.
        found: String,
    },
    /// A part's claimed shard index does not fit its claimed shard count.
    ShardIndexOutOfRange {
        /// The claimed shard index.
        shard_index: usize,
        /// The claimed shard count it must be below.
        shard_total: usize,
    },
    /// Two parts claim the same shard index.
    DuplicateShard {
        /// The shard index claimed more than once.
        shard_index: usize,
    },
    /// A part's declared `cell_range` disagrees with the results it actually
    /// carries.
    CellRangeMismatch {
        /// The shard whose self-description is inconsistent.
        shard_index: usize,
        /// The `(lowest, highest)` range the part declares.
        declared: Option<(usize, usize)>,
        /// The range its results actually span.
        actual: Option<(usize, usize)>,
    },
}

impl std::fmt::Display for MergeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::NoParts => write!(f, "nothing to merge: no shard documents given"),
            Self::Mismatch(what) => write!(f, "shard documents disagree: {what}"),
            Self::Overlap { cell } => {
                write!(f, "overlapping shards: cell {cell} appears more than once")
            }
            Self::Missing {
                cell,
                total_missing,
            } => write!(
                f,
                "incomplete merge: cell {cell} is not covered by any shard \
                 ({total_missing} cell(s) missing)"
            ),
            Self::OutOfRange { cell, grid_size } => write!(
                f,
                "cell {cell} is outside the configuration's grid of {grid_size} cell(s)"
            ),
            Self::WrongCell {
                cell,
                expected,
                found,
            } => write!(
                f,
                "cell {cell} is {expected} in the configuration's grid, but its result \
                 is for {found}"
            ),
            Self::ShardIndexOutOfRange {
                shard_index,
                shard_total,
            } => write!(
                f,
                "a part claims shard index {shard_index} of only {shard_total} shard(s)"
            ),
            Self::DuplicateShard { shard_index } => {
                write!(f, "two parts both claim shard index {shard_index}")
            }
            Self::CellRangeMismatch {
                shard_index,
                declared,
                actual,
            } => write!(
                f,
                "shard {shard_index} declares cell range {declared:?} but its results span \
                 {actual:?}"
            ),
        }
    }
}

impl std::error::Error for MergeError {}

/// Recombines partial shard documents into the full sweep document, placing
/// every point by its grid index.
///
/// The output is byte-identical to the document a single-process run of the
/// same scenario emits (JSON and CSV alike), because points are reassembled
/// into canonical grid order and each point was computed from the same
/// plan-time seed either way.
///
/// # Errors
///
/// * [`MergeError::NoParts`] — the slice is empty;
/// * [`MergeError::Mismatch`] — parts disagree on scenario, configuration,
///   seed strategy or shard count;
/// * [`MergeError::ShardIndexOutOfRange`] — a part's claimed shard index
///   does not fit the shard count;
/// * [`MergeError::DuplicateShard`] — two parts claim the same shard index;
/// * [`MergeError::CellRangeMismatch`] — a part's declared `cell_range`
///   disagrees with the results it actually carries;
/// * [`MergeError::OutOfRange`] — a part claims a cell index outside the
///   configuration's grid;
/// * [`MergeError::Overlap`] — a cell appears in more than one part;
/// * [`MergeError::WrongCell`] — a result's point does not match the grid
///   cell at its index (architecture, port count, bitwise offered load, or
///   mesh shape);
/// * [`MergeError::Missing`] — a cell appears in no part.
pub fn merge_documents(parts: &[ShardDocument]) -> Result<SweepDocument, MergeError> {
    let Some(first) = parts.first() else {
        return Err(MergeError::NoParts);
    };
    for part in &parts[1..] {
        if part.scenario != first.scenario {
            return Err(MergeError::Mismatch(format!(
                "scenario `{}` vs `{}`",
                first.scenario, part.scenario
            )));
        }
        if part.config != first.config {
            return Err(MergeError::Mismatch(
                "experiment configurations differ".into(),
            ));
        }
        if part.seed_strategy != first.seed_strategy {
            return Err(MergeError::Mismatch("seed strategies differ".into()));
        }
        if part.shard_total != first.shard_total {
            return Err(MergeError::Mismatch(format!(
                "shard {} claims {} total shard(s), shard {} claims {}",
                first.shard_index, first.shard_total, part.shard_index, part.shard_total
            )));
        }
    }

    // Every part's *own* self-description must hold up before its cells are
    // trusted: parts arrive from independent worker processes, so a claimed
    // shard id or cell range is an assertion to verify, not a fact.  (A set,
    // not a bitmap: `shard_total` is itself untrusted input, and sizing an
    // allocation by it would let a forged part crash the merge instead of
    // failing it.)
    let mut claimed = std::collections::HashSet::with_capacity(parts.len());
    for part in parts {
        if part.shard_index >= part.shard_total {
            return Err(MergeError::ShardIndexOutOfRange {
                shard_index: part.shard_index,
                shard_total: part.shard_total,
            });
        }
        if !claimed.insert(part.shard_index) {
            return Err(MergeError::DuplicateShard {
                shard_index: part.shard_index,
            });
        }
        // Min/max over the results as they are — don't assume they arrived
        // sorted, that is part of what is being checked.
        let actual = part
            .results
            .iter()
            .fold(None, |span: Option<(usize, usize)>, result| {
                Some(match span {
                    None => (result.index, result.index),
                    Some((lo, hi)) => (lo.min(result.index), hi.max(result.index)),
                })
            });
        if part.cell_range != actual {
            return Err(MergeError::CellRangeMismatch {
                shard_index: part.shard_index,
                declared: part.cell_range,
                actual,
            });
        }
    }

    let cells = expand_cells(&first.config, first.seed_strategy);
    let grid_size = cells.len();
    let mut slots: Vec<Option<SweepPoint>> = vec![None; grid_size];
    for part in parts {
        for result in &part.results {
            let Some(cell) = cells.get(result.index) else {
                return Err(MergeError::OutOfRange {
                    cell: result.index,
                    grid_size,
                });
            };
            let slot = &mut slots[result.index];
            if slot.is_some() {
                return Err(MergeError::Overlap { cell: result.index });
            }
            let (expected, found) = (cell_coordinates(cell), point_coordinates(&result.point));
            if expected != found {
                return Err(MergeError::WrongCell {
                    cell: result.index,
                    expected: describe(expected),
                    found: describe(found),
                });
            }
            *slot = Some(result.point.clone());
        }
    }

    let total_missing = slots.iter().filter(|slot| slot.is_none()).count();
    if let Some(cell) = slots.iter().position(Option::is_none) {
        return Err(MergeError::Missing {
            cell,
            total_missing,
        });
    }

    Ok(SweepDocument {
        scenario: first.scenario.clone(),
        config: first.config.clone(),
        seed_strategy: first.seed_strategy,
        points: slots
            .into_iter()
            .map(|slot| slot.expect("checked"))
            .collect(),
    })
}

/// The coordinates that tie a point to its grid cell: architecture, port
/// count, offered load (as bits, so it compares bitwise) and the mesh shape
/// of a network of more than one router, the only kind whose points carry
/// one.
type Coordinates = (Architecture, usize, u64, Option<(usize, usize)>);

/// The coordinates a point measured at `cell` carries.
fn cell_coordinates(cell: &SweepCell) -> Coordinates {
    let mesh = cell
        .network
        .filter(|network| network.nodes() > 1)
        .map(|network| (network.width, network.height));
    (
        cell.architecture,
        cell.ports,
        cell.offered_load.to_bits(),
        mesh,
    )
}

/// The coordinates `point` carries.
fn point_coordinates(point: &SweepPoint) -> Coordinates {
    let mesh = point.network.map(|stats| (stats.width, stats.height));
    (
        point.architecture,
        point.ports,
        point.offered_load.to_bits(),
        mesh,
    )
}

/// `crossbar 4x4 @0.2`, with ` on a 2x2 mesh` for a mesh.
fn describe((architecture, ports, load, mesh): Coordinates) -> String {
    let point = format!(
        "{} {ports}x{ports} @{}",
        architecture.slug(),
        f64::from_bits(load)
    );
    match mesh {
        Some((width, height)) => format!("{point} on a {width}x{height} mesh"),
        None => point,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SweepEngine;
    use crate::plan::{ShardStrategy, SweepPlan};

    fn test_config() -> ExperimentConfig {
        ExperimentConfig {
            port_counts: vec![4],
            offered_loads: vec![0.2, 0.4],
            warmup_cycles: 50,
            measure_cycles: 200,
            ..ExperimentConfig::quick()
        }
    }

    fn parts(shards: usize, strategy: ShardStrategy) -> (Vec<ShardDocument>, SweepDocument) {
        let engine = SweepEngine::new().with_threads(2);
        let plan = SweepPlan::new(
            "merge-test",
            test_config(),
            SeedStrategy::Shared,
            shards,
            strategy,
        )
        .unwrap();
        let parts: Vec<ShardDocument> = (0..shards)
            .map(|index| {
                engine
                    .run_shard_detached(&plan.header(), plan.shard(index).unwrap())
                    .unwrap()
            })
            .collect();
        let full = engine.run_plan(&plan).unwrap();
        (parts, full)
    }

    #[test]
    fn merge_reassembles_the_single_run_document() {
        for strategy in [ShardStrategy::Contiguous, ShardStrategy::RoundRobin] {
            let (parts, full) = parts(3, strategy);
            let merged = merge_documents(&parts).unwrap();
            assert_eq!(merged, full, "{strategy:?}");
            assert_eq!(
                merged.to_json_string().unwrap(),
                full.to_json_string().unwrap()
            );
            // Merge order must not matter either.
            let reversed: Vec<ShardDocument> = parts.iter().rev().cloned().collect();
            assert_eq!(merge_documents(&reversed).unwrap(), full);
        }
    }

    #[test]
    fn empty_input_is_refused() {
        assert_eq!(merge_documents(&[]), Err(MergeError::NoParts));
    }

    #[test]
    fn overlapping_cells_are_refused() {
        let (mut parts, _) = parts(2, ShardStrategy::Contiguous);
        // Duplicate an interior cell of shard 0 without perturbing its
        // declared cell range, so the overlap itself is what gets caught.
        parts[0].results[1].index = parts[0].results[0].index;
        let duplicated = parts[0].results[0].index;
        assert_eq!(
            merge_documents(&parts),
            Err(MergeError::Overlap { cell: duplicated })
        );
    }

    #[test]
    fn missing_cells_are_refused() {
        let (mut parts, _) = parts(2, ShardStrategy::Contiguous);
        let dropped = parts[1].results.pop().unwrap();
        // Keep the part's self-description truthful about what it now holds,
        // so the *grid-level* gap is what gets reported.
        parts[1].cell_range = Some((
            parts[1].results.first().unwrap().index,
            parts[1].results.last().unwrap().index,
        ));
        let err = merge_documents(&parts).unwrap_err();
        assert_eq!(
            err,
            MergeError::Missing {
                cell: dropped.index,
                total_missing: 1
            }
        );
        assert!(err.to_string().contains("not covered"));
        // Dropping a whole part is the same failure, just larger.
        let solo = &parts[..1];
        assert!(matches!(
            merge_documents(solo),
            Err(MergeError::Missing { .. })
        ));
    }

    #[test]
    fn out_of_range_cells_are_refused() {
        let (mut parts, _) = parts(2, ShardStrategy::Contiguous);
        let grid_size = parts[0].config.grid_size();
        parts[0].results[0].index = grid_size + 7;
        // A self-consistent but out-of-grid claim: the declared range agrees
        // with the results, the grid bound is what rejects it.
        let indices: Vec<usize> = parts[0].results.iter().map(|r| r.index).collect();
        parts[0].cell_range = Some((
            indices.iter().copied().min().unwrap(),
            indices.iter().copied().max().unwrap(),
        ));
        assert_eq!(
            merge_documents(&parts),
            Err(MergeError::OutOfRange {
                cell: grid_size + 7,
                grid_size
            })
        );
    }

    #[test]
    fn a_point_at_another_cells_index_is_refused() {
        let (mut parts, _) = parts(2, ShardStrategy::Contiguous);
        // Swap two results' indices inside one part: its cell range and
        // every other check still hold.
        let results = &mut parts[0].results;
        assert!(results.len() >= 3);
        let (one, two) = (results[1].index, results[2].index);
        results[1].index = two;
        results[2].index = one;
        let err = merge_documents(&parts).unwrap_err();
        assert_eq!(
            err,
            MergeError::WrongCell {
                cell: two,
                expected: "fully_connected 4x4 @0.2".into(),
                found: "crossbar 4x4 @0.4".into(),
            }
        );
        assert!(err
            .to_string()
            .contains("cell 2 is fully_connected 4x4 @0.2 in the configuration's grid"));

        // A single-router cell whose point claims a mesh is refused too.
        let (mut parts, _) = self::parts(2, ShardStrategy::Contiguous);
        let stats = fabric_power_noc::NetworkStats {
            width: 2,
            height: 2,
            torus: false,
            routing: fabric_power_noc::RoutingPolicy::DimensionOrder,
            average_hops: 1.5,
            hops_p50: 1.0,
            hops_p95: 2.0,
            hops_p99: 2.0,
            link_energy: fabric_power_tech::units::Energy::ZERO,
            per_hop_energy: fabric_power_tech::units::Energy::ZERO,
            saturation_throughput: 0.2,
            link_words: 0,
            credit_stalls: 0,
        };
        parts[1].results[0].point.network = Some(stats);
        let cell = parts[1].results[0].index;
        assert!(matches!(
            merge_documents(&parts),
            Err(MergeError::WrongCell { cell: c, found, .. })
                if c == cell && found.ends_with(" on a 2x2 mesh")
        ));
    }

    #[test]
    fn shard_index_beyond_the_shard_count_is_refused() {
        let (mut parts, _) = parts(2, ShardStrategy::Contiguous);
        parts[1].shard_index = 5;
        let err = merge_documents(&parts).unwrap_err();
        assert_eq!(
            err,
            MergeError::ShardIndexOutOfRange {
                shard_index: 5,
                shard_total: 2
            }
        );
        assert!(err.to_string().contains("shard index 5"));
    }

    #[test]
    fn absurd_shard_totals_never_drive_an_allocation() {
        // Parts claiming usize::MAX shards must be processed without sizing
        // anything by that untrusted number — no capacity-overflow panic, no
        // OOM-sized bitmap.  With the cells themselves consistent, the merge
        // simply proceeds on the evidence it can verify.
        let (mut parts, _) = parts(2, ShardStrategy::Contiguous);
        for part in &mut parts {
            part.shard_total = usize::MAX;
        }
        parts[1].shard_index = usize::MAX - 1;
        assert!(merge_documents(&parts).is_ok());
        // And a duplicate claim under the absurd total is still caught.
        parts[1].shard_index = parts[0].shard_index;
        assert!(matches!(
            merge_documents(&parts),
            Err(MergeError::DuplicateShard { .. })
        ));
    }

    #[test]
    fn two_parts_claiming_the_same_shard_are_refused() {
        let (mut parts, _) = parts(2, ShardStrategy::Contiguous);
        parts[1].shard_index = 0;
        let err = merge_documents(&parts).unwrap_err();
        assert_eq!(err, MergeError::DuplicateShard { shard_index: 0 });
        assert!(err.to_string().contains("both claim"));
        // The duplicate-shard check fires even when the duplicated part is
        // empty (no cell overlap to fall back on).
        let (originals, _) = self::parts(2, ShardStrategy::Contiguous);
        let mut cloned = originals.clone();
        cloned[1] = ShardDocument {
            shard_index: 0,
            cell_range: None,
            results: Vec::new(),
            ..originals[1].clone()
        };
        assert_eq!(
            merge_documents(&cloned),
            Err(MergeError::DuplicateShard { shard_index: 0 })
        );
    }

    #[test]
    fn declared_cell_range_must_match_the_results_present() {
        // Declared range is None while results exist.
        let (mut parts, _) = parts(2, ShardStrategy::Contiguous);
        let honest = parts[0].cell_range;
        parts[0].cell_range = None;
        let err = merge_documents(&parts).unwrap_err();
        assert_eq!(
            err,
            MergeError::CellRangeMismatch {
                shard_index: 0,
                declared: None,
                actual: honest,
            }
        );
        assert!(err.to_string().contains("declares cell range"));

        // Declared range is wider than the results.
        let (mut parts, _) = self::parts(2, ShardStrategy::Contiguous);
        let honest = parts[1].cell_range;
        parts[1].cell_range = honest.map(|(lo, hi)| (lo, hi + 3));
        assert!(matches!(
            merge_documents(&parts),
            Err(MergeError::CellRangeMismatch { shard_index: 1, .. })
        ));

        // A range declared on an empty part is just as inconsistent.
        let (mut parts, _) = self::parts(2, ShardStrategy::Contiguous);
        parts[1].results.clear();
        assert!(matches!(
            merge_documents(&parts),
            Err(MergeError::CellRangeMismatch {
                shard_index: 1,
                actual: None,
                ..
            })
        ));
    }

    #[test]
    fn metadata_disagreements_are_refused() {
        let (parts, _) = parts(2, ShardStrategy::Contiguous);

        let mut renamed = parts.clone();
        renamed[1].scenario = "other".into();
        assert!(matches!(
            merge_documents(&renamed),
            Err(MergeError::Mismatch(m)) if m.contains("scenario")
        ));

        let mut reconfigured = parts.clone();
        reconfigured[1].config.seed ^= 1;
        assert!(matches!(
            merge_documents(&reconfigured),
            Err(MergeError::Mismatch(m)) if m.contains("configurations")
        ));

        let mut reseeded = parts.clone();
        reseeded[1].seed_strategy = SeedStrategy::PerCell;
        assert!(matches!(
            merge_documents(&reseeded),
            Err(MergeError::Mismatch(m)) if m.contains("seed")
        ));

        let mut recounted = parts;
        recounted[1].shard_total = 9;
        assert!(matches!(
            merge_documents(&recounted),
            Err(MergeError::Mismatch(m)) if m.contains("total shard")
        ));
    }

    #[test]
    fn shard_document_round_trips_through_json() {
        let (parts, _) = parts(2, ShardStrategy::RoundRobin);
        let json = serde_json::to_string_pretty(&parts[0]).unwrap();
        let back: ShardDocument = serde_json::from_str(&json).unwrap();
        assert_eq!(parts[0], back);
    }
}
