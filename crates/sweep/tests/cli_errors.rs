//! `fabric-power` points at its usage text only when the arguments were
//! wrong: an unknown command, an unexpected, missing or repeated argument,
//! or a malformed flag value.  An error in the work itself, such as a file
//! that cannot be read, exits 1 without the pointer.  The log filter is one
//! level or `off`, from `--log` or, failing that, `FABRIC_POWER_LOG`; a
//! malformed variable costs one warning, not the run.  Progress lines on
//! stderr are best effort: a stderr that cannot be written changes nothing.

use std::process::{Command, Output};

use fabric_power_sweep::{MeshSize, Scenario, ScenarioRegistry};

const HINT: &str = "run `fabric-power help` for usage";

fn fabric_power(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_fabric-power"))
        .args(args)
        .output()
        .expect("run fabric-power")
}

fn stderr(output: &Output) -> String {
    String::from_utf8_lossy(&output.stderr).into_owned()
}

#[test]
fn an_unknown_command_gets_the_usage_hint() {
    for (args, command) in [
        (&["serve"][..], "serve"),
        (&["cache", "stats", "--model-cache", "DIR"], "cache"),
    ] {
        let output = fabric_power(args);
        let stderr = stderr(&output);
        assert_eq!(output.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(
            stderr.contains(&format!("unknown command `{command}`")),
            "{args:?}: {stderr}"
        );
        assert!(stderr.contains(HINT), "{args:?}: {stderr}");
    }
}

#[test]
fn an_unexpected_flag_gets_the_usage_hint() {
    for (args, flag) in [
        (
            &["sweep", "--scenario", "quick", "--metrics", "m.json"][..],
            "--metrics",
        ),
        (
            &["sweep", "--scenario", "quick", "--model-cache", "DIR"],
            "--model-cache",
        ),
        (
            &["run-shard", "plan.json", "--model-cache", "DIR"],
            "--model-cache",
        ),
    ] {
        let output = fabric_power(args);
        let stderr = stderr(&output);
        assert_eq!(output.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(
            stderr.contains(&format!("unexpected argument `{flag}`")),
            "{args:?}: {stderr}"
        );
        assert!(stderr.contains(HINT), "{args:?}: {stderr}");
    }
}

#[test]
fn missing_and_malformed_flag_values_get_the_usage_hint() {
    for args in [
        &["report"][..],
        &["sweep", "--scenario", "quick", "--threads", "0"],
        &["sweep", "--scenario", "quick", "--seed", "0xZZ"],
        &["plan", "quick", "--shards"],
    ] {
        let output = fabric_power(args);
        let stderr = stderr(&output);
        assert_eq!(output.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.contains(HINT), "{args:?}: {stderr}");
    }
}

#[test]
fn a_missing_file_is_not_a_usage_error() {
    let missing = std::env::temp_dir().join("fabric-power-cli-errors-no-such-part.json");
    let missing = missing.to_str().expect("a UTF-8 temp path");
    for args in [&["merge", missing][..], &["report", "--in", missing]] {
        let output = fabric_power(args);
        let stderr = stderr(&output);
        assert_eq!(output.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(
            stderr.starts_with(&format!("error: reading {missing}: ")),
            "{args:?}: {stderr}"
        );
        assert!(!stderr.contains(HINT), "{args:?}: {stderr}");
    }
}

#[test]
fn a_document_that_is_not_json_names_what_the_parser_found() {
    let dir = std::env::temp_dir();
    let id = std::process::id();
    for (name, contents, expected) in [
        (
            "text",
            "some text\n",
            "unexpected character 's' at offset 0",
        ),
        ("empty", "", "unexpected end of input at offset 0"),
    ] {
        let path = dir.join(format!("fabric-power-cli-errors-{id}-{name}.txt"));
        std::fs::write(&path, contents).expect("write the input file");
        let output = fabric_power(&["report", "--in", path.to_str().expect("a UTF-8 temp path")]);
        let _ = std::fs::remove_file(&path);
        let stderr = stderr(&output);
        assert_eq!(output.status.code(), Some(1), "{name}: {stderr}");
        assert!(stderr.contains(expected), "{name}: {stderr}");
        assert!(!stderr.contains(HINT), "{name}: {stderr}");
    }
}

/// Runs `sweep --scenario-file` on `scenario`, written to a temporary file
/// named after `tag`, with `--threads 1` and an `--out` path; returns the
/// output and whether a document was written.
fn sweep_scenario_file(scenario: &Scenario, tag: &str) -> (Output, bool) {
    let dir = std::env::temp_dir();
    let id = std::process::id();
    let path = dir.join(format!("fabric-power-cli-errors-{id}-{tag}.json"));
    let out = dir.join(format!("fabric-power-cli-errors-{id}-{tag}-out.json"));
    let json = serde_json::to_string(scenario).expect("serialize the scenario");
    std::fs::write(&path, json).expect("write the scenario file");
    let output = fabric_power(&[
        "sweep",
        "--scenario-file",
        path.to_str().expect("a UTF-8 temp path"),
        "--threads",
        "1",
        "--out",
        out.to_str().expect("a UTF-8 temp path"),
    ]);
    let wrote = out.exists();
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&out);
    (output, wrote)
}

#[test]
fn a_zero_cycle_measurement_window_is_a_named_error() {
    let registry = ScenarioRegistry::builtin();
    // One single-router scenario and one mesh scenario.
    for name in ["quick", "noc-quick"] {
        let mut scenario = registry.get(name).expect("a registered scenario").clone();
        scenario.config.measure_cycles = 0;
        let (output, wrote) = sweep_scenario_file(&scenario, &format!("{name}-window"));
        let stderr = stderr(&output);
        assert_eq!(output.status.code(), Some(1), "{name}: {stderr}");
        assert!(
            stderr.contains("a run needs at least one measure cycle, got 0"),
            "{name}: {stderr}"
        );
        assert!(!stderr.contains(HINT), "{name}: {stderr}");
        assert!(!wrote, "{name}: a document was written");
    }
}

#[test]
fn an_empty_mesh_is_a_named_error() {
    let mut scenario = ScenarioRegistry::builtin()
        .get("noc-quick")
        .expect("a registered scenario")
        .clone();
    scenario
        .config
        .network
        .as_mut()
        .expect("a mesh scenario")
        .meshes = vec![MeshSize::new(0, 4)];
    let (output, wrote) = sweep_scenario_file(&scenario, "empty-mesh");
    let stderr = stderr(&output);
    assert_eq!(output.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("error: network: network has zero routers"),
        "{stderr}"
    );
    assert!(!stderr.contains(HINT), "{stderr}");
    assert!(!wrote, "a document was written");
}

#[test]
fn a_shard_index_outside_the_plan_is_a_named_error() {
    let dir = std::env::temp_dir();
    let id = std::process::id();
    let plan = dir.join(format!("fabric-power-cli-errors-{id}-plan.json"));
    let plan = plan.to_str().expect("a UTF-8 temp path");
    let planned = fabric_power(&["plan", "quick", "--shards", "2", "--out", plan]);
    assert!(planned.status.success(), "{}", stderr(&planned));
    let output = fabric_power(&["run-shard", plan, "--index", "2"]);
    let _ = std::fs::remove_file(plan);
    let stderr = stderr(&output);
    assert_eq!(output.status.code(), Some(1), "{stderr}");
    assert_eq!(
        stderr,
        "error: shard index 2 is out of range: the plan has 2 shard(s)\n"
    );
}

#[test]
fn a_log_directive_is_a_usage_error() {
    let output = fabric_power(&["sweep", "--log", "warn,sweep.engine=trace"]);
    let stderr = stderr(&output);
    assert_eq!(output.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("unknown log level"), "{stderr}");
    assert!(stderr.contains(HINT), "{stderr}");
}

#[test]
fn the_log_environment_variable_works_on_its_own_and_yields_to_the_flag() {
    let run_cell_lines = |extra: &[&str]| {
        let output = Command::new(env!("CARGO_BIN_EXE_fabric-power"))
            .args(["sweep", "--scenario", "quick", "--threads", "2"])
            .args(extra)
            .env("FABRIC_POWER_LOG", "trace")
            .output()
            .expect("run fabric-power");
        let stderr = stderr(&output);
        assert!(output.status.success(), "{extra:?}: {stderr}");
        stderr
            .lines()
            .filter(|line| line.contains("run_cell done"))
            .count()
    };
    // One span per cell of the 24-cell grid, with no `--log` given.
    assert_eq!(run_cell_lines(&[]), 24);
    assert_eq!(run_cell_lines(&["--log", "debug"]), 0);
}

#[test]
fn a_repeated_flag_is_a_usage_error() {
    for (args, flag) in [
        (
            &[
                "sweep",
                "--scenario",
                "quick",
                "--threads",
                "1",
                "--threads",
                "2",
            ][..],
            "--threads",
        ),
        (&["netlist-stats", "all", "--json", "--json"], "--json"),
    ] {
        let output = fabric_power(args);
        let stderr = stderr(&output);
        assert_eq!(output.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(
            stderr.contains(&format!("`{flag}` is given more than once")),
            "{args:?}: {stderr}"
        );
        assert!(stderr.contains(HINT), "{args:?}: {stderr}");
    }
}

#[test]
fn a_malformed_log_variable_warns_once_and_runs_at_info() {
    let sweep = |spec: Option<&str>| {
        let mut command = Command::new(env!("CARGO_BIN_EXE_fabric-power"));
        command.args(["sweep", "--scenario", "quick", "--threads", "2"]);
        match spec {
            Some(spec) => command.env("FABRIC_POWER_LOG", spec),
            None => command.env_remove("FABRIC_POWER_LOG"),
        };
        let output = command.output().expect("run fabric-power");
        assert!(output.status.success(), "{spec:?}: {}", stderr(&output));
        output
    };
    let plain = sweep(None);
    let spec = "warn,sweep.engine=trace";
    let malformed = sweep(Some(spec));
    // The document is the one a run without the variable prints.
    assert_eq!(malformed.stdout, plain.stdout);
    let stderr = stderr(&malformed);
    let warnings: Vec<&str> = stderr
        .lines()
        .filter(|line| line.contains("FABRIC_POWER_LOG"))
        .collect();
    assert_eq!(warnings.len(), 1, "{stderr}");
    assert!(warnings[0].contains(spec), "{stderr}");
    assert!(warnings[0].contains("unknown log level"), "{stderr}");
    // `info` reports no span.
    assert!(!stderr.contains(" done "), "{stderr}");
}

#[cfg(target_os = "linux")]
#[test]
fn an_unwritable_stderr_changes_neither_the_exit_status_nor_the_output() {
    let dir = std::env::temp_dir();
    let sweep = |out: &std::path::Path, stderr: std::process::Stdio| {
        Command::new(env!("CARGO_BIN_EXE_fabric-power"))
            .args(["sweep", "--scenario", "quick", "--threads", "1", "--out"])
            .arg(out)
            .stderr(stderr)
            .status()
            .expect("run fabric-power")
    };
    let id = std::process::id();
    let normal = dir.join(format!("fabric-power-cli-errors-{id}-normal.json"));
    let full = dir.join(format!("fabric-power-cli-errors-{id}-full.json"));
    assert!(sweep(&normal, std::process::Stdio::null()).success());
    let dev_full = std::fs::OpenOptions::new()
        .write(true)
        .open("/dev/full")
        .expect("open /dev/full");
    let status = sweep(&full, dev_full.into());
    let bytes = (std::fs::read(&normal), std::fs::read(&full));
    let _ = std::fs::remove_file(&normal);
    let _ = std::fs::remove_file(&full);
    assert_eq!(status.code(), Some(0));
    let (normal, full) = (
        bytes.0.expect("normal run output"),
        bytes.1.expect("output"),
    );
    assert_eq!(full, normal);
}
