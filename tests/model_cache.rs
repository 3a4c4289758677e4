//! Workspace-level correctness guarantees of the model-provider layer and
//! its content-addressed on-disk cache:
//!
//! 1. a derived-model sweep run cold (characterizing) and warm (served from
//!    the cache) produces **byte-identical JSON**, and the warm run performs
//!    **zero gate-level characterization**;
//! 2. a truncated or corrupted cache file silently falls back to
//!    re-derivation — same results, never an error — and heals the entry;
//! 3. the cache is keyed by the full spec: a different characterization
//!    config or model source never hits another spec's entry.

use std::path::PathBuf;
use std::sync::Arc;

use fabric_power_sweep::{
    ExperimentConfig, ModelProvider, ModelSource, SeedStrategy, SweepDocument, SweepEngine,
};

/// A derived-model grid small enough for CI: characterization dominates the
/// cold run, which is exactly what the cache is for.
fn derived_config() -> ExperimentConfig {
    ExperimentConfig {
        port_counts: vec![4, 8],
        offered_loads: vec![0.2, 0.4],
        warmup_cycles: 50,
        measure_cycles: 200,
        model_source: ModelSource::Derived,
        ..ExperimentConfig::paper()
    }
}

fn temp_cache_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "fabric-power-model-cache-test-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Runs the derived sweep on a fresh provider over `dir` and returns the
/// emitted JSON plus the provider for stats inspection.
fn run_with_cache(dir: &PathBuf, threads: usize) -> (String, Arc<ModelProvider>) {
    let provider = Arc::new(ModelProvider::with_disk_cache(dir).expect("cache dir"));
    let config = derived_config();
    let points = SweepEngine::new()
        .with_threads(threads)
        .with_provider(Arc::clone(&provider))
        .run(&config)
        .expect("sweep");
    let json = SweepDocument {
        scenario: "model-cache-test".into(),
        config,
        seed_strategy: SeedStrategy::Shared,
        points,
    }
    .to_json_string()
    .expect("serialize");
    (json, provider)
}

#[test]
fn warm_run_is_byte_identical_and_characterizes_nothing() {
    let dir = temp_cache_dir("cold-warm");

    let (cold_json, cold_provider) = run_with_cache(&dir, 2);
    let cold = cold_provider.stats();
    assert_eq!(cold.builds, 2, "one build per unique fabric size");
    assert_eq!(cold.characterizations, 2);
    assert_eq!(cold.disk_hits, 0);

    // A fresh provider over the same directory models a new process.
    let (warm_json, warm_provider) = run_with_cache(&dir, 2);
    assert_eq!(cold_json, warm_json, "cold and warm results must not drift");
    let warm = warm_provider.stats();
    assert_eq!(warm.builds, 0, "warm run must build nothing");
    assert_eq!(warm.characterizations, 0, "warm run must not characterize");
    assert_eq!(warm.disk_hits, 2);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_cache_files_fall_back_to_rederivation() {
    let dir = temp_cache_dir("corruption");

    let (reference_json, _) = run_with_cache(&dir, 1);
    let entries: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("cache dir")
        .map(|e| e.expect("entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "json"))
        .collect();
    assert_eq!(entries.len(), 2, "one entry per fabric size");

    // Truncate one entry mid-JSON and replace the other with garbage.
    let valid = std::fs::read_to_string(&entries[0]).expect("read entry");
    std::fs::write(&entries[0], &valid[..valid.len() / 2]).expect("truncate");
    std::fs::write(&entries[1], "!! not json !!").expect("corrupt");

    let (rebuilt_json, provider) = run_with_cache(&dir, 2);
    assert_eq!(
        reference_json, rebuilt_json,
        "fallback re-derivation must reproduce the original results"
    );
    let stats = provider.stats();
    assert_eq!(stats.disk_rejections, 2, "both bad entries rejected");
    assert_eq!(stats.builds, 2, "both models rebuilt");

    // The rebuild healed the store: the next run is all disk hits again.
    let (healed_json, healed_provider) = run_with_cache(&dir, 1);
    assert_eq!(reference_json, healed_json);
    assert_eq!(healed_provider.stats().disk_hits, 2);
    assert_eq!(healed_provider.stats().builds, 0);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cache_entries_are_keyed_by_the_full_spec() {
    let dir = temp_cache_dir("keying");

    // Warm the cache with derived models…
    let (_, derived_provider) = run_with_cache(&dir, 1);
    assert_eq!(derived_provider.stats().builds, 2);

    // …then run the same grid with paper models over the same directory:
    // nothing may be served from the derived entries.
    let provider = Arc::new(ModelProvider::with_disk_cache(&dir).expect("cache dir"));
    let config = ExperimentConfig {
        model_source: ModelSource::Paper,
        ..derived_config()
    };
    SweepEngine::new()
        .with_threads(1)
        .with_provider(Arc::clone(&provider))
        .run(&config)
        .expect("sweep");
    let stats = provider.stats();
    assert_eq!(stats.disk_hits, 0, "paper specs must miss derived entries");
    assert_eq!(stats.builds, 2);
    assert_eq!(stats.characterizations, 0);
    assert_eq!(
        provider.disk_entries().expect("entries").len(),
        4,
        "derived and paper entries coexist under distinct content addresses"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// Warm-cache derived sweeps stay byte-identical across thread counts, with
/// zero characterization on every warm run.
#[test]
fn warm_derived_sweeps_are_thread_invariant() {
    let dir = temp_cache_dir("thread-invariance");

    let (cold_json, _) = run_with_cache(&dir, 2);
    let (warm_1_thread, provider_1) = run_with_cache(&dir, 1);
    let (warm_8_threads, provider_8) = run_with_cache(&dir, 8);

    assert_eq!(cold_json, warm_1_thread);
    assert_eq!(warm_1_thread, warm_8_threads);
    assert_eq!(provider_1.stats().characterizations, 0);
    assert_eq!(provider_8.stats().characterizations, 0);

    let _ = std::fs::remove_dir_all(&dir);
}
