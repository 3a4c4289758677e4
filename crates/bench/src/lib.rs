//! # fabric-power-bench
//!
//! Experiment harness for the `fabric-power` workspace: the binaries in
//! `src/bin/` regenerate every table and figure of the DAC 2002 paper.
//! Performance is measured by the separate `perfbench` crate at the
//! repository root.
//!
//! | target | reproduces |
//! |---|---|
//! | `table1` | Table 1 — node-switch bit energy vs. input vector |
//! | `table2` | Table 2 — Banyan shared-buffer bit energy |
//! | `wire_energy` | §5.1 — the 87 fJ Thompson-grid wire energy |
//! | `figure9` | Figure 9 — power vs. traffic throughput |
//! | `figure10` | Figure 10 — power vs. number of ports |
//! | `analytic_model` | Eq. 3–6 — worst-case bit energy |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::Arc;

use serde::Serialize;

use fabric_power_fabric::provider::ModelProvider;

/// Writes any serializable result as pretty JSON next to the textual output,
/// so downstream tooling (plotting scripts, CI diffs) can consume the data.
///
/// The file is written into `target/experiments/<name>.json` relative to the
/// workspace root; failures are reported but not fatal (the textual output on
/// stdout is the primary artifact).
pub fn export_json<T: Serialize>(name: &str, value: &T) {
    let dir = std::path::Path::new("target").join("experiments");
    if let Err(error) = std::fs::create_dir_all(&dir) {
        eprintln!("warning: could not create {}: {error}", dir.display());
        return;
    }
    let path = dir.join(format!("{name}.json"));
    match serde_json::to_string_pretty(value) {
        Ok(json) => {
            if let Err(error) = std::fs::write(&path, json) {
                eprintln!("warning: could not write {}: {error}", path.display());
            } else {
                eprintln!("wrote {}", path.display());
            }
        }
        Err(error) => eprintln!("warning: could not serialize {name}: {error}"),
    }
}

/// The energy-model provider every experiment binary in this crate shares:
/// one per process, so the figure/table binaries never build the same model
/// twice, backed by a content-addressed on-disk cache when `--model-cache
/// <DIR>` is passed (or the `FABRIC_POWER_MODEL_CACHE` environment variable
/// is set) — with a warmed cache, derived-model runs skip gate-level
/// characterization entirely.
///
/// # Errors
///
/// Returns a message when the flag is present without a value or the cache
/// directory cannot be created.
pub fn process_provider() -> Result<Arc<ModelProvider>, String> {
    let args: Vec<String> = std::env::args().collect();
    let dir = match args.iter().position(|a| a == "--model-cache") {
        Some(position) => Some(
            args.get(position + 1)
                .cloned()
                .ok_or_else(|| "`--model-cache` needs a value".to_string())?,
        ),
        None => std::env::var("FABRIC_POWER_MODEL_CACHE").ok(),
    };
    ModelProvider::from_cache_dir_arg(dir.as_deref())
}

/// Parses an optional `--threads N` flag from the process arguments, shared
/// by the figure-regeneration binaries (the sweeps run on the parallel
/// engine; results are identical for every thread count).
///
/// # Errors
///
/// Returns a message when the flag is present but its value is missing or
/// not a positive integer.
pub fn parse_threads() -> Result<Option<usize>, String> {
    let args: Vec<String> = std::env::args().collect();
    let Some(position) = args.iter().position(|a| a == "--threads") else {
        return Ok(None);
    };
    let value = args
        .get(position + 1)
        .ok_or_else(|| "`--threads` needs a value".to_string())?;
    fabric_power_sweep::executor::parse_thread_count(value).map(Some)
}

#[cfg(test)]
mod tests {
    #[test]
    fn export_json_smoke() {
        super::export_json("bench_selftest", &vec![1, 2, 3]);
    }

    #[test]
    fn parse_threads_without_flag_is_none() {
        // The test harness's argv has no `--threads`.
        assert_eq!(super::parse_threads().unwrap(), None);
    }

    #[test]
    fn process_provider_defaults_to_the_shared_in_memory_one() {
        // The test harness's argv has no `--model-cache` (and the test
        // environment does not set FABRIC_POWER_MODEL_CACHE).
        if std::env::var("FABRIC_POWER_MODEL_CACHE").is_err() {
            let provider = super::process_provider().unwrap();
            assert!(provider.cache_dir().is_none());
        }
    }
}
