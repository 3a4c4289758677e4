//! `fabric-power` points at its usage text only when the arguments were
//! wrong: an unknown command, an unexpected or missing argument, or a
//! malformed flag value.  An error in the work itself, such as a file that
//! cannot be read, exits 1 without the pointer.

use std::process::{Command, Output};

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
