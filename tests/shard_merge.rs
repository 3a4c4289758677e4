//! Workspace-level guarantees of the plan → execute → merge pipeline:
//! splitting a scenario into shards, running each shard independently (at
//! any thread count) and merging the partial documents is **byte-identical**
//! to a single-process run — and the merge refuses incomplete or
//! overlapping coverage instead of degrading silently.

use fabric_power_sweep::{
    merge_documents, ExperimentConfig, MergeError, ScenarioRegistry, SeedStrategy, ShardDocument,
    ShardStrategy, SweepDocument, SweepEngine, SweepPlan,
};

/// The paper-fig9 grid (4 architectures × {4, 8, 16, 32} ports × 5 loads)
/// with shortened simulation windows so the 80 cells finish quickly in CI.
/// The grid *shape* — what sharding actually partitions — is untouched.
fn fig9_config() -> ExperimentConfig {
    let scenario = ScenarioRegistry::builtin()
        .get("paper-fig9")
        .expect("paper-fig9 is built in")
        .clone();
    ExperimentConfig {
        warmup_cycles: 30,
        measure_cycles: 120,
        ..scenario.config
    }
}

fn single_run_document(config: &ExperimentConfig) -> SweepDocument {
    let engine = SweepEngine::new().with_threads(2);
    SweepDocument {
        scenario: "paper-fig9".into(),
        config: config.clone(),
        seed_strategy: SeedStrategy::Shared,
        points: engine.run(config).expect("single-process run"),
    }
}

#[test]
fn paper_fig9_in_three_shards_merges_byte_identically() {
    let config = fig9_config();
    let reference = single_run_document(&config).to_json_string().unwrap();

    for strategy in [ShardStrategy::Contiguous, ShardStrategy::RoundRobin] {
        let plan = SweepPlan::new(
            "paper-fig9",
            config.clone(),
            SeedStrategy::Shared,
            3,
            strategy,
        )
        .unwrap();
        // Ship the plan through its serialized form, the way real worker
        // processes receive it, and give every worker a different thread
        // count — none of it may show in the bytes.
        let shipped: SweepPlan =
            serde_json::from_str(&serde_json::to_string_pretty(&plan).unwrap()).unwrap();
        let parts: Vec<ShardDocument> = (0..3)
            .map(|index| {
                let engine = SweepEngine::new().with_threads(index + 1);
                let part = engine
                    .run_shard_detached(&shipped.header(), shipped.shard(index).unwrap())
                    .expect("shard run");
                // Partial documents survive their own JSON round trip.
                serde_json::from_str(&serde_json::to_string_pretty(&part).unwrap()).unwrap()
            })
            .collect();
        let merged = merge_documents(&parts).expect("merge");
        assert_eq!(
            merged.to_json_string().unwrap(),
            reference,
            "{strategy:?}: merged bytes differ from the single-process run"
        );
    }
}

#[test]
fn shard_count_does_not_change_the_merged_bytes() {
    // A smaller grid so sweeping several shard counts stays cheap.
    let config = ExperimentConfig {
        port_counts: vec![4, 8],
        warmup_cycles: 30,
        measure_cycles: 120,
        ..fig9_config()
    };
    let reference = {
        let engine = SweepEngine::new().with_threads(4);
        SweepDocument {
            scenario: "paper-fig9".into(),
            config: config.clone(),
            seed_strategy: SeedStrategy::Shared,
            points: engine.run(&config).unwrap(),
        }
        .to_json_string()
        .unwrap()
    };
    let grid = config.grid_size();
    for shards in [1, 2, 5, grid] {
        let engine = SweepEngine::new().with_threads(3);
        let plan = engine
            .plan("paper-fig9", &config, shards, ShardStrategy::RoundRobin)
            .unwrap();
        let parts: Vec<ShardDocument> = (0..shards)
            .map(|index| {
                engine
                    .run_shard_detached(&plan.header(), plan.shard(index).unwrap())
                    .unwrap()
            })
            .collect();
        let merged = merge_documents(&parts).unwrap();
        assert_eq!(
            merged.to_json_string().unwrap(),
            reference,
            "{shards} shard(s)"
        );
    }
}

#[test]
fn merge_rejects_overlapping_and_missing_ranges() {
    let config = ExperimentConfig {
        port_counts: vec![4],
        offered_loads: vec![0.1, 0.3],
        warmup_cycles: 20,
        measure_cycles: 80,
        ..ExperimentConfig::quick()
    };
    let engine = SweepEngine::new().with_threads(2);
    let plan = engine
        .plan("reject-test", &config, 2, ShardStrategy::Contiguous)
        .unwrap();
    let parts: Vec<ShardDocument> = (0..2)
        .map(|index| {
            engine
                .run_shard_detached(&plan.header(), plan.shard(index).unwrap())
                .unwrap()
        })
        .collect();

    // The untampered parts merge.
    assert!(merge_documents(&parts).is_ok());

    // A missing part means missing cells.
    assert!(matches!(
        merge_documents(&parts[..1]),
        Err(MergeError::Missing { .. })
    ));

    // Duplicating a whole part is caught by its claimed shard identity
    // before any cell is even looked at.
    let duplicated = vec![parts[0].clone(), parts[0].clone(), parts[1].clone()];
    assert!(matches!(
        merge_documents(&duplicated),
        Err(MergeError::DuplicateShard { shard_index: 0 })
    ));

    // Two *distinct* shards covering the same cell is the cell-level overlap
    // (self-descriptions kept honest so the overlap itself is what trips).
    let mut overlapping = parts.clone();
    overlapping[1].results[1].index = overlapping[1].results[0].index;
    assert!(matches!(
        merge_documents(&overlapping),
        Err(MergeError::Overlap { .. })
    ));

    // A part whose declared cell range disagrees with the results it
    // actually carries is refused outright.
    let mut lying = parts.clone();
    lying[1].results.remove(0);
    assert!(matches!(
        merge_documents(&lying),
        Err(MergeError::CellRangeMismatch { shard_index: 1, .. })
    ));

    // Dropping a single cell from one part (with the self-description kept
    // consistent) is caught by grid index, not count.
    let mut truncated = parts.clone();
    let dropped = truncated[1].results.remove(0);
    truncated[1].cell_range = Some((
        truncated[1].results.first().unwrap().index,
        truncated[1].results.last().unwrap().index,
    ));
    assert_eq!(
        merge_documents(&truncated),
        Err(MergeError::Missing {
            cell: dropped.index,
            total_missing: 1
        })
    );
}
