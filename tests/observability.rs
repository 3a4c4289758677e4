//! The observability guard: instrumentation must be strictly out-of-band.
//!
//! Turning *everything* on — trace-level logging and JSONL capture — must
//! not perturb a single byte of the documents a sweep emits, at any thread
//! count.  This test pins that contract, and checks that the instrumentation
//! actually observes the runs while staying out of the data path.

use std::path::PathBuf;

use fabric_power_obs as obs;
use fabric_power_sweep::{ExperimentConfig, SeedStrategy, ShardStrategy, SweepEngine, SweepPlan};

fn guard_config() -> ExperimentConfig {
    ExperimentConfig {
        port_counts: vec![4],
        offered_loads: vec![0.3, 0.6],
        warmup_cycles: 50,
        measure_cycles: 200,
        ..ExperimentConfig::quick()
    }
}

fn guard_plan() -> SweepPlan {
    SweepPlan::new(
        "obs-guard",
        guard_config(),
        SeedStrategy::Shared,
        2,
        ShardStrategy::RoundRobin,
    )
    .expect("plan builds")
}

fn temp_log_path(tag: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!(
        "fabric-power-obs-guard-{tag}-{}.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    path
}

/// Runs the guard plan at `threads` and returns its JSON and CSV renderings.
fn run_documents(threads: usize) -> (String, String) {
    let document = SweepEngine::new()
        .with_threads(threads)
        .run_plan(&guard_plan())
        .expect("sweep runs");
    (
        document.to_json_string().expect("json"),
        document.to_csv_string(),
    )
}

#[test]
fn full_instrumentation_is_byte_invisible_in_emitted_documents() {
    // The logger is process-global; this is the only test in the binary that
    // reconfigures it.

    // Reference: observability off entirely.
    obs::log::set_filter(obs::Filter::off());
    obs::log::clear_json();
    let (quiet_json_1, quiet_csv_1) = run_documents(1);
    let (quiet_json_8, quiet_csv_8) = run_documents(8);
    assert_eq!(quiet_json_1, quiet_json_8, "thread-count invariance");
    assert_eq!(quiet_csv_1, quiet_csv_8);

    // Everything on: trace-level events and JSONL capture.
    let log_path = temp_log_path("full");
    obs::log::set_filter(obs::Filter::level(obs::Level::Trace));
    obs::log::log_json_to_file(&log_path).expect("open JSONL log");
    let (loud_json_1, loud_csv_1) = run_documents(1);
    let (loud_json_8, loud_csv_8) = run_documents(8);
    obs::log::clear_json();
    obs::log::set_filter(obs::Filter::default());

    assert_eq!(
        quiet_json_1, loud_json_1,
        "instrumented 1-thread JSON drifted"
    );
    assert_eq!(
        quiet_json_8, loud_json_8,
        "instrumented 8-thread JSON drifted"
    );
    assert_eq!(quiet_csv_1, loud_csv_1, "instrumented 1-thread CSV drifted");
    assert_eq!(quiet_csv_8, loud_csv_8, "instrumented 8-thread CSV drifted");

    // The JSONL capture is well-formed: every line parses as JSON with the
    // structural fields the CI log check relies on.
    let log = std::fs::read_to_string(&log_path).expect("read JSONL log");
    let mut run_cell_done = 0;
    let mut build_model_done = 0;
    for line in log.lines() {
        let event = serde_json::parse_value_str(line)
            .unwrap_or_else(|e| panic!("malformed JSONL `{line}`: {e}"));
        for key in ["t", "level", "target", "msg"] {
            assert!(event.get(key).is_some(), "missing `{key}`: {line}");
        }
        let counter = match event.get("msg").and_then(serde::Value::as_str) {
            Some("run_cell done") => &mut run_cell_done,
            Some("build_model done") => &mut build_model_done,
            _ => continue,
        };
        let elapsed_us = event
            .get("fields")
            .and_then(|fields| fields.get("elapsed_us"));
        assert!(
            matches!(elapsed_us, Some(serde::Value::UInt(_))),
            "span event without an integer `fields.elapsed_us`: {line}"
        );
        *counter += 1;
    }
    // The instrumentation observed the runs it did not perturb: 8 cells and
    // one fabric size per run, two instrumented runs.
    assert_eq!(run_cell_done, 16, "one `run_cell done` per cell per run");
    assert_eq!(build_model_done, 2, "one `build_model done` per run");
    let _ = std::fs::remove_file(&log_path);
}
