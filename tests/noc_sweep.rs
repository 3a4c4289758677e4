//! Workspace-level guarantees of the network-of-routers sweep path:
//!
//! 1. a 1×1 mesh "network" sweep reproduces the single-router sweep's
//!    numbers exactly (the degradation contract of `NetworkSimulator`);
//! 2. multi-node mesh sweeps emit byte-identical JSON at every thread
//!    count, and for every shard count when the library's shards are run
//!    and merged.

use fabric_power_sweep::{
    ExperimentConfig, NetworkSweepConfig, SeedStrategy, ShardStrategy, SweepDocument, SweepEngine,
    SweepPlan,
};

/// A small but genuinely multi-hop grid: {2×2, 3×3} meshes of radix-8
/// crossbar routers, two loads each — 4 network cells.
fn noc_config() -> ExperimentConfig {
    ExperimentConfig {
        port_counts: vec![8],
        offered_loads: vec![0.2, 0.4],
        architectures: vec![fabric_power_fabric::Architecture::Crossbar],
        warmup_cycles: 50,
        measure_cycles: 200,
        network: Some(NetworkSweepConfig::meshes(&[(2, 2), (3, 3)])),
        ..ExperimentConfig::quick()
    }
}

fn document(config: &ExperimentConfig, threads: usize) -> SweepDocument {
    let points = SweepEngine::new()
        .with_threads(threads)
        .run(config)
        .expect("sweep");
    SweepDocument {
        scenario: "noc-sweep-test".into(),
        config: config.clone(),
        seed_strategy: SeedStrategy::Shared,
        points,
    }
}

#[test]
fn one_by_one_mesh_sweep_reproduces_the_single_router_sweep_exactly() {
    // The same operating points, once as plain single routers and once as
    // 1×1 "networks": every measured number must agree exactly, and the 1×1
    // points must carry no network aggregates.
    let single = ExperimentConfig {
        port_counts: vec![8],
        offered_loads: vec![0.2, 0.4],
        warmup_cycles: 50,
        measure_cycles: 200,
        ..ExperimentConfig::quick()
    };
    let meshed = ExperimentConfig {
        network: Some(NetworkSweepConfig::meshes(&[(1, 1)])),
        ..single.clone()
    };
    let single_points = SweepEngine::new().with_threads(2).run(&single).unwrap();
    let meshed_points = SweepEngine::new().with_threads(2).run(&meshed).unwrap();
    assert_eq!(single_points, meshed_points);
    assert!(meshed_points.iter().all(|p| p.network.is_none()));
}

#[test]
fn noc_documents_are_byte_identical_across_thread_counts() {
    let config = noc_config();
    let reference = document(&config, 1).to_json_string().unwrap();
    for threads in [2, 4] {
        assert_eq!(
            reference,
            document(&config, threads).to_json_string().unwrap(),
            "thread count {threads} changed the emitted bytes"
        );
    }
    // And the multi-node points actually carry network aggregates.
    let probe = document(&config, 1);
    assert!(probe.points.iter().all(|p| p.network.is_some()));
    assert!(probe
        .points
        .iter()
        .all(|p| p.network.unwrap().average_hops >= 1.0));
}

#[test]
fn sharded_noc_sweeps_merge_byte_identical_to_a_single_process() {
    let config = noc_config();
    let engine = SweepEngine::new().with_threads(2);
    let single_shard = engine
        .plan("noc-shard-test", &config, 1, ShardStrategy::Contiguous)
        .unwrap();
    let whole = engine.run_plan(&single_shard).expect("whole run");
    for shards in [3, 4] {
        let plan = engine
            .plan("noc-shard-test", &config, shards, ShardStrategy::Contiguous)
            .unwrap();
        let parts: Vec<_> = plan
            .shards
            .iter()
            .map(|shard| {
                engine
                    .run_shard_detached(&plan.header(), shard)
                    .expect("shard run")
            })
            .collect();
        let merged = fabric_power_sweep::merge_documents(&parts).expect("merge");
        assert_eq!(
            merged.to_json_string().unwrap(),
            whole.to_json_string().unwrap(),
            "{shards} shards drifted from the one-shard bytes"
        );
    }
}

#[test]
fn per_cell_seeding_separates_noc_cells_but_stays_thread_invariant() {
    let config = noc_config();
    let plan = SweepPlan::new(
        "noc-per-cell",
        config.clone(),
        SeedStrategy::PerCell,
        1,
        ShardStrategy::Contiguous,
    )
    .unwrap();
    let run = |threads| {
        SweepEngine::new()
            .with_threads(threads)
            .run_plan(&plan)
            .expect("sweep")
            .points
    };
    let reference = run(1);
    assert_eq!(reference, run(4));
    assert_ne!(
        reference,
        SweepEngine::new().with_threads(1).run(&config).unwrap(),
        "per-cell seeding must change at least one trajectory"
    );
}
