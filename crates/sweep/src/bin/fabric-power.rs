//! The `fabric-power` CLI: the user-facing entry point to the sweep engine.
//!
//! ```text
//! fabric-power list-scenarios
//! fabric-power sweep --scenario paper-fig9 --threads 8 --out fig9.json
//! fabric-power plan paper-fig9 --shards 3 --out plan.json
//! fabric-power run-shard plan.json --index 0 --out part0.json
//! fabric-power merge part0.json part1.json part2.json --out fig9.json
//! fabric-power diff a.json b.json
//! fabric-power report --in fig9.json
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use fabric_power_netlist::SwitchClass;
use fabric_power_obs as obs;
use fabric_power_sweep::{
    diff_documents, merge_documents, report, write_stdout, Scenario, ScenarioRegistry,
    SeedStrategy, ShardDocument, ShardStrategy, SweepDocument, SweepEngine, SweepPlan,
};

const USAGE: &str = "\
fabric-power — switch-fabric power sweeps (DAC 2002 reproduction)

USAGE:
    fabric-power <COMMAND> [OPTIONS]

COMMANDS:
    list-scenarios                 List every registered scenario (the noc-*
                                   family sweeps multi-router mesh networks)
    export-scenario <NAME>         Print a scenario as JSON (editable, then
                                   runnable via `sweep --scenario-file`)
    sweep                          Run a scenario's grid
        --scenario <NAME>          A registered scenario, or
        --scenario-file <FILE>     a scenario loaded from JSON
        [--threads <N>]            Worker threads (default: all cores; results
                                   are identical for every thread count)
        [--seed <SEED>]            Override the scenario's base RNG seed
        [--seed-strategy <S>]      `shared` (default) or `per-cell`
        [--out <FILE.json>]        Write the JSON document here
        [--csv <FILE.csv>]         Also write a CSV table here
    plan <SCENARIO> --shards <N>   Expand a scenario once and split it into
                                   self-describing shards (a JSON plan)
        [--scenario-file <FILE>]   Plan a scenario loaded from JSON instead
        [--strategy <S>]           `contiguous` (default) or `round-robin`
        [--seed <SEED>]            Override the scenario's base RNG seed
        [--seed-strategy <S>]      `shared` (default) or `per-cell`
        [--out <FILE.json>]        Write the plan here (default: stdout)
    run-shard <PLAN.json>          Run one shard of a plan, emitting a
        --index <I>                partial document for `merge`; shards may
                                   run as separate processes or on separate
                                   machines
        [--threads <N>] [--out <FILE.json>]
    merge <PART.json>...           Recombine partial shard documents into the
                                   full sweep document (byte-identical to a
                                   single-process run; refuses overlapping or
                                   missing cells)
        [--out <FILE.json>] [--csv <FILE.csv>]
    diff <A.json> <B.json>         Compare two sweep documents cell by cell
        [--tolerance <REL>]        Accepted relative deviation (default 0 =
                                   byte-exact); exits nonzero on mismatch
    report --in <FILE.json>        Summarize a previously emitted document
    netlist-stats <CLASS>          Generate a Table 1 switch circuit and show
                                   its cell, net and combinational-level
                                   counts, its settle depth (the warm-up
                                   cycles characterization simulates) plus
                                   cells per kind. CLASS is `crosspoint`,
                                   `banyan`, `batcher`, `mux<N>` (N a power
                                   of two >= 2, e.g. `mux16`) or `all`
        [--json]                   Emit the statistics as JSON
    help                           Show this message

GLOBAL OPTIONS (any command):
    --log <LEVEL>                  Phase timings on stderr: `debug` times
                                   each model build, `trace` each sweep cell
                                   too; `info` (default), `warn`, `error` and
                                   `off` time nothing. Overrides
                                   $FABRIC_POWER_LOG, which takes the same
                                   values
    --log-json <FILE>              Also append every timing as one JSON line
                                   to FILE (truncated at startup)

All instrumentation is out of band (stderr / side files): emitted sweep
documents are byte-identical with observability on or off.
";

/// Why a command failed.
#[derive(Debug)]
enum CliError {
    /// The arguments were wrong: an unknown command, an unexpected or
    /// missing argument, or a malformed flag value.  Reported with a
    /// pointer to the usage text.
    Usage(String),
    /// The arguments were fine, but the work failed: a file could not be
    /// read or written, a document or plan was refused, a run failed.
    Failed(String),
}

impl From<String> for CliError {
    fn from(message: String) -> Self {
        Self::Failed(message)
    }
}

/// A usage error with this message.
fn usage(message: impl Into<String>) -> CliError {
    CliError::Usage(message.into())
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    match apply_global_flags(&mut args).and_then(|()| run(&args)) {
        Ok(code) => code,
        Err(CliError::Usage(message)) => {
            eprintln!("error: {message}");
            eprintln!("run `fabric-power help` for usage");
            ExitCode::FAILURE
        }
        Err(CliError::Failed(message)) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

/// Strips the global `--log` / `--log-json` flags out of the argument list
/// (they are accepted anywhere, for every command) and configures the logger
/// accordingly.  `--log` takes one level or `off`; anything else is a usage
/// error.  It beats `$FABRIC_POWER_LOG`, which the logger reads only when
/// the first span closes and no `--log` was given.
fn apply_global_flags(args: &mut Vec<String>) -> Result<(), CliError> {
    let mut log_spec = None;
    let mut log_json = None;
    let mut index = 0;
    while index < args.len() {
        let slot = match args[index].as_str() {
            "--log" => &mut log_spec,
            "--log-json" => &mut log_json,
            _ => {
                index += 1;
                continue;
            }
        };
        if index + 1 >= args.len() {
            return Err(usage(format!("`{}` needs a value", args[index])));
        }
        *slot = Some(args.remove(index + 1));
        args.remove(index);
    }
    if let Some(spec) = log_spec {
        obs::log::set_filter(obs::Filter::parse(&spec).map_err(CliError::Usage)?);
    }
    if let Some(path) = log_json {
        obs::log::log_json_to_file(std::path::Path::new(&path))
            .map_err(|e| format!("opening log file {path}: {e}"))?;
    }
    Ok(())
}

fn run(args: &[String]) -> Result<ExitCode, CliError> {
    fn done(result: Result<(), impl Into<CliError>>) -> Result<ExitCode, CliError> {
        result.map(|()| ExitCode::SUCCESS).map_err(Into::into)
    }
    match args.first().map(String::as_str) {
        None | Some("help" | "--help" | "-h") => done(write_stdout(USAGE)),
        Some("list-scenarios") => done(list_scenarios()),
        Some("export-scenario") => done(export_scenario(&args[1..])),
        Some("sweep") => done(sweep(&args[1..])),
        Some("plan") => done(plan(&args[1..])),
        Some("run-shard") => done(run_shard(&args[1..])),
        Some("merge") => done(merge(&args[1..])),
        Some("diff") => diff(&args[1..]),
        Some("report") => done(report_command(&args[1..])),
        Some("netlist-stats") => done(netlist_stats(&args[1..])),
        Some(other) => Err(usage(format!("unknown command `{other}`"))),
    }
}

fn list_scenarios() -> Result<(), String> {
    let registry = ScenarioRegistry::builtin();
    let mut out = format!("{:<20} {:>7}  description\n", "scenario", "points");
    for scenario in registry.scenarios() {
        out.push_str(&format!(
            "{:<20} {:>7}  {}\n",
            scenario.name,
            scenario.config.grid_size(),
            scenario.summary
        ));
    }
    write_stdout(&out)
}

fn export_scenario(args: &[String]) -> Result<(), CliError> {
    let [name] = args else {
        return Err(usage("export-scenario needs exactly one scenario name"));
    };
    let registry = ScenarioRegistry::builtin();
    let scenario = registry.get(name).ok_or_else(|| unknown_scenario(name))?;
    Ok(write_stdout(
        &(serde_json::to_string_pretty(scenario).map_err(|e| e.to_string())? + "\n"),
    )?)
}

/// Pulls the value of `--flag value` out of an argument list.
fn flag_value(args: &[String], flag: &str) -> Result<Option<String>, CliError> {
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        if arg == flag {
            return match iter.next() {
                Some(value) => Ok(Some(value.clone())),
                None => Err(usage(format!("`{flag}` needs a value"))),
            };
        }
    }
    Ok(None)
}

/// Validates that `args` contains only `--flag value` pairs from `flags`,
/// with up to `positionals` leading positional arguments.
fn known_flags_with_positionals(
    args: &[String],
    positionals: usize,
    flags: &[&str],
) -> Result<(), CliError> {
    let mut expect_value = false;
    let mut seen_positionals = 0;
    for arg in args {
        if expect_value {
            expect_value = false;
            continue;
        }
        if flags.contains(&arg.as_str()) {
            expect_value = true;
        } else if !arg.starts_with('-') && seen_positionals < positionals {
            seen_positionals += 1;
        } else {
            return Err(usage(format!("unexpected argument `{arg}`")));
        }
    }
    Ok(())
}

fn known_flags(args: &[String], flags: &[&str]) -> Result<(), CliError> {
    known_flags_with_positionals(args, 0, flags)
}

/// The arguments left once every `--flag value` pair in `flags` is removed.
fn positional_args<'a>(args: &'a [String], flags: &[&str]) -> Vec<&'a String> {
    let mut positionals = Vec::new();
    let mut skip_next = false;
    for arg in args {
        if skip_next {
            skip_next = false;
        } else if flags.contains(&arg.as_str()) {
            skip_next = true;
        } else {
            positionals.push(arg);
        }
    }
    positionals
}

fn unknown_scenario(name: &str) -> String {
    format!(
        "unknown scenario `{name}` (available: {})",
        ScenarioRegistry::builtin().names().join(", ")
    )
}

/// Loads a scenario from a registry name or a JSON file (exactly one of the
/// two) — the single resolution path every subcommand shares, so lookup
/// behavior and error wording cannot drift between them.
fn load_scenario(
    name: Option<String>,
    file: Option<String>,
    neither: &str,
    both: &str,
) -> Result<Scenario, CliError> {
    match (name, file) {
        (Some(_), Some(_)) => Err(usage(both)),
        (None, None) => Err(usage(neither)),
        (Some(name), None) => {
            let registry = ScenarioRegistry::builtin();
            Ok(registry
                .get(&name)
                .cloned()
                .ok_or_else(|| unknown_scenario(&name))?)
        }
        (None, Some(path)) => {
            let json =
                std::fs::read_to_string(&path).map_err(|e| format!("reading {path}: {e}"))?;
            let scenario: Scenario = serde_json::from_str(json.trim())
                .map_err(|e| format!("parsing {path}: {e} (expected a scenario object like `fabric-power export-scenario` prints)"))?;
            Ok(scenario)
        }
    }
}

/// Resolves the scenario from `--scenario <NAME>` or `--scenario-file
/// <FILE>` (exactly one of the two).
fn resolve_scenario(args: &[String]) -> Result<Scenario, CliError> {
    load_scenario(
        flag_value(args, "--scenario")?,
        flag_value(args, "--scenario-file")?,
        "need `--scenario <NAME>` or `--scenario-file <FILE>`",
        "`--scenario` and `--scenario-file` are mutually exclusive",
    )
}

/// Builds the engine every executing subcommand shares: `--threads` sets
/// the worker count.
fn resolve_engine(args: &[String]) -> Result<SweepEngine, CliError> {
    let mut engine = SweepEngine::new();
    if let Some(threads) = flag_value(args, "--threads")? {
        let threads =
            fabric_power_sweep::executor::parse_thread_count(&threads).map_err(CliError::Usage)?;
        engine = engine.with_threads(threads);
    }
    Ok(engine)
}

fn sweep(args: &[String]) -> Result<(), CliError> {
    known_flags(
        args,
        &[
            "--scenario",
            "--scenario-file",
            "--threads",
            "--seed",
            "--seed-strategy",
            "--out",
            "--csv",
        ],
    )?;
    let scenario = resolve_scenario(args)?;
    let mut engine = resolve_engine(args)?;

    let mut config = scenario.config.clone();
    if let Some(seed) = flag_value(args, "--seed")? {
        config.seed = parse_seed(&seed)?;
    }
    if let Some(strategy) = flag_value(args, "--seed-strategy")? {
        engine =
            engine.with_seed_strategy(SeedStrategy::parse(&strategy).map_err(CliError::Usage)?);
    }

    eprintln!(
        "running scenario `{}`: {} points on {} thread(s)...",
        scenario.name,
        config.grid_size(),
        engine.threads()
    );
    let started = std::time::Instant::now();
    let points = engine.run(&config).map_err(|e| e.to_string())?;
    eprintln!(
        "completed {} points in {:.2?}",
        points.len(),
        started.elapsed()
    );

    let document = SweepDocument {
        scenario: scenario.name.clone(),
        config,
        seed_strategy: engine.seed_strategy(),
        points,
    };

    write_document_outputs(&document, args)
}

/// The one output policy for subcommands that produce a [`SweepDocument`]
/// (`sweep`, `merge`): write `--out` and/or `--csv` when given, otherwise
/// dump the JSON document to stdout.
fn write_document_outputs(document: &SweepDocument, args: &[String]) -> Result<(), CliError> {
    let out = flag_value(args, "--out")?.map(PathBuf::from);
    let csv = flag_value(args, "--csv")?.map(PathBuf::from);
    match (&out, &csv) {
        (None, None) => {
            // No files requested: the JSON document goes to stdout.
            write_stdout(&(document.to_json_string().map_err(|e| e.to_string())? + "\n"))?;
        }
        _ => {
            if let Some(path) = &out {
                document.write_json(path).map_err(|e| e.to_string())?;
                eprintln!("wrote {}", path.display());
            }
            if let Some(path) = &csv {
                document.write_csv(path).map_err(|e| e.to_string())?;
                eprintln!("wrote {}", path.display());
            }
        }
    }
    Ok(())
}

fn read_document(path: &str) -> Result<SweepDocument, String> {
    let json = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    SweepDocument::from_json_str(json.trim_end()).map_err(|e| format!("parsing {path}: {e}"))
}

/// Compares two documents; a mismatch is a *result* (exit code 1 with the
/// delta report on stdout), not a usage error.
fn diff(args: &[String]) -> Result<ExitCode, CliError> {
    known_flags_with_positionals(args, 2, &["--tolerance"])?;
    let tolerance = match flag_value(args, "--tolerance")? {
        Some(value) => value
            .parse::<f64>()
            .ok()
            .filter(|t| t.is_finite() && *t >= 0.0)
            .ok_or_else(|| usage(format!("invalid tolerance `{value}`")))?,
        None => 0.0,
    };
    // The two document paths are the arguments left once `--tolerance` and
    // its value are removed.
    let [a_path, b_path] = positional_args(args, &["--tolerance"])[..] else {
        return Err(usage("diff needs exactly two document paths"));
    };
    let a = read_document(a_path)?;
    let b = read_document(b_path)?;
    let result = diff_documents(&a, &b, tolerance);
    write_stdout(&result.format())?;
    if result.is_match() {
        Ok(ExitCode::SUCCESS)
    } else {
        Ok(ExitCode::FAILURE)
    }
}

/// `fabric-power plan <SCENARIO> --shards N`: expand once, split, serialize.
fn plan(args: &[String]) -> Result<(), CliError> {
    const FLAGS: &[&str] = &[
        "--scenario-file",
        "--shards",
        "--strategy",
        "--seed",
        "--seed-strategy",
        "--out",
    ];
    known_flags_with_positionals(args, 1, FLAGS)?;
    let shards = flag_value(args, "--shards")?.ok_or_else(|| usage("plan needs `--shards <N>`"))?;
    let shards: usize = shards.parse().ok().filter(|&n| n > 0).ok_or_else(|| {
        usage(format!(
            "invalid shard count `{shards}` (need a positive integer)"
        ))
    })?;
    let strategy = match flag_value(args, "--strategy")? {
        Some(value) => ShardStrategy::parse(&value).map_err(CliError::Usage)?,
        None => ShardStrategy::Contiguous,
    };

    // The scenario comes from the positional name or `--scenario-file`.
    let positional_name = match positional_args(args, FLAGS)[..] {
        [] => None,
        [name] => Some(name.clone()),
        _ => return Err(usage("plan takes at most one scenario name")),
    };
    let Scenario { name, config, .. } = load_scenario(
        positional_name,
        flag_value(args, "--scenario-file")?,
        "plan needs a scenario name or `--scenario-file <FILE>`",
        "give a scenario name or `--scenario-file`, not both",
    )?;

    let mut config = config;
    if let Some(seed) = flag_value(args, "--seed")? {
        config.seed = parse_seed(&seed)?;
    }
    let seed_strategy = match flag_value(args, "--seed-strategy")? {
        Some(value) => SeedStrategy::parse(&value).map_err(CliError::Usage)?,
        None => SeedStrategy::Shared,
    };

    let plan =
        SweepPlan::new(name, config, seed_strategy, shards, strategy).map_err(|e| e.to_string())?;
    eprintln!(
        "planned scenario `{}`: {} cell(s) over {} {} shard(s)",
        plan.scenario,
        plan.total_cells(),
        plan.shard_count(),
        plan.strategy.slug(),
    );
    Ok(emit_json(
        &plan.to_json_string().map_err(|e| e.to_string())?,
        flag_value(args, "--out")?.as_deref(),
    )?)
}

/// `fabric-power run-shard <PLAN> --index i`: execute one shard of a plan.
fn run_shard(args: &[String]) -> Result<(), CliError> {
    const FLAGS: &[&str] = &["--index", "--threads", "--out"];
    known_flags_with_positionals(args, 1, FLAGS)?;
    let [plan_path] = positional_args(args, FLAGS)[..] else {
        return Err(usage("run-shard needs exactly one plan file"));
    };
    let index =
        flag_value(args, "--index")?.ok_or_else(|| usage("run-shard needs `--index <I>`"))?;
    let index: usize = index
        .parse()
        .map_err(|_| usage(format!("invalid shard index `{index}`")))?;

    let json =
        std::fs::read_to_string(plan_path).map_err(|e| format!("reading {plan_path}: {e}"))?;
    let plan = SweepPlan::from_json_str(json.trim_end())
        .map_err(|e| format!("parsing {plan_path}: {e}"))?;
    let engine = resolve_engine(args)?;

    // Check the index before printing progress, but keep the engine's error
    // as the single source of the message.
    let shard = plan.shard(index).ok_or_else(|| {
        fabric_power_sweep::ExperimentError::InvalidShard {
            index,
            shards: plan.shard_count(),
        }
        .to_string()
    })?;
    eprintln!(
        "running shard {index}/{} of `{}`: {} cell(s) on {} thread(s)...",
        plan.shard_count(),
        plan.scenario,
        shard.cells.len(),
        engine.threads()
    );
    let started = std::time::Instant::now();
    let document = engine.run_shard(&plan, index).map_err(|e| e.to_string())?;
    eprintln!(
        "completed {} cell(s) in {:.2?}",
        document.results.len(),
        started.elapsed()
    );
    Ok(emit_json(
        &document.to_json_string().map_err(|e| e.to_string())?,
        flag_value(args, "--out")?.as_deref(),
    )?)
}

/// `fabric-power merge <PART>...`: recombine partial documents by cell index.
fn merge(args: &[String]) -> Result<(), CliError> {
    const FLAGS: &[&str] = &["--out", "--csv"];
    known_flags_with_positionals(args, usize::MAX, FLAGS)?;
    let part_paths = positional_args(args, FLAGS);
    if part_paths.is_empty() {
        return Err(usage("merge needs at least one shard document"));
    }
    let mut parts = Vec::with_capacity(part_paths.len());
    for path in part_paths {
        let json = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        parts.push(
            ShardDocument::from_json_str(json.trim_end())
                .map_err(|e| format!("parsing {path}: {e}"))?,
        );
    }
    let document = merge_documents(&parts).map_err(|e| e.to_string())?;
    eprintln!(
        "merged {} shard(s) into {} point(s) of `{}`",
        parts.len(),
        document.points.len(),
        document.scenario
    );
    write_document_outputs(&document, args)
}

/// Writes pretty JSON to `--out` (with a trailing newline) or to stdout.
/// File writes are atomic (write-temp-then-rename), so an interrupted
/// `plan`/`run-shard` never leaves a truncated artifact behind.
fn emit_json(json: &str, out: Option<&str>) -> Result<(), String> {
    match out {
        Some(path) => {
            fabric_power_sweep::write_atomic(std::path::Path::new(path), &format!("{json}\n"))
                .map_err(|e| format!("writing {path}: {e}"))?;
            eprintln!("wrote {path}");
        }
        None => write_stdout(&format!("{json}\n"))?,
    }
    Ok(())
}

fn parse_seed(input: &str) -> Result<u64, CliError> {
    let parsed = if let Some(hex) = input
        .strip_prefix("0x")
        .or_else(|| input.strip_prefix("0X"))
    {
        u64::from_str_radix(hex, 16)
    } else {
        input.parse()
    };
    parsed.map_err(|_| usage(format!("invalid seed `{input}`")))
}

fn report_command(args: &[String]) -> Result<(), CliError> {
    known_flags(args, &["--in"])?;
    let path = flag_value(args, "--in")?.ok_or_else(|| usage("report needs `--in <FILE.json>`"))?;
    let document = read_document(&path)?;
    Ok(write_stdout(&report::format_document(&document))?)
}

/// One `netlist-stats` row: the size of one generated circuit class.
#[derive(serde::Serialize)]
struct NetlistStatsRow {
    class: String,
    bus_width: usize,
    cells: usize,
    nets: usize,
    levels: usize,
    /// `EvalSchedule::settle_cycles`: `null` when unbounded.
    settle_cycles: Option<u64>,
    cells_by_kind: std::collections::BTreeMap<fabric_power_netlist::CellKind, usize>,
}

/// The classes `netlist-stats` accepts, for its error messages.
const NETLIST_CLASSES: &str =
    "crosspoint, banyan, batcher, mux<N> with N a power of two >= 2, or all";

/// Parses the `netlist-stats` class argument into the switch classes it
/// names: one Table 1 class, or `all` for the whole Table 1 set.
fn parse_netlist_classes(arg: &str) -> Result<Vec<SwitchClass>, String> {
    Ok(match arg {
        "crosspoint" => vec![SwitchClass::CrossbarCrosspoint],
        "banyan" => vec![SwitchClass::BanyanBinary],
        "batcher" => vec![SwitchClass::BatcherSorting],
        "all" => vec![
            SwitchClass::CrossbarCrosspoint,
            SwitchClass::BanyanBinary,
            SwitchClass::BatcherSorting,
            SwitchClass::Mux { inputs: 4 },
            SwitchClass::Mux { inputs: 8 },
            SwitchClass::Mux { inputs: 16 },
            SwitchClass::Mux { inputs: 32 },
        ],
        other => match other
            .strip_prefix("mux")
            .and_then(|n| n.parse::<usize>().ok())
        {
            Some(inputs) if inputs >= 2 && inputs.is_power_of_two() => {
                vec![SwitchClass::Mux { inputs }]
            }
            Some(inputs) => {
                return Err(format!(
                    "unsupported class `{other}`: a MUX needs a power-of-two input count \
                     >= 2, got {inputs} (expected {NETLIST_CLASSES})"
                ))
            }
            None => {
                return Err(format!(
                    "unknown class `{other}` (expected {NETLIST_CLASSES})"
                ))
            }
        },
    })
}

/// `fabric-power netlist-stats <CLASS> [--json]`: generate a Table 1 switch
/// circuit and print its cell, net and level counts, its settle depth and
/// its cell-kind histogram — the size of what characterization simulates.
fn netlist_stats(args: &[String]) -> Result<(), CliError> {
    let mut json = false;
    let mut rest = Vec::new();
    for arg in args {
        match arg.as_str() {
            "--json" => json = true,
            _ => rest.push(arg.clone()),
        }
    }
    known_flags_with_positionals(&rest, 1, &[])?;
    let class_arg = rest
        .first()
        .ok_or_else(|| usage(format!("netlist-stats needs a class: {NETLIST_CLASSES}")))?;
    let classes = parse_netlist_classes(class_arg).map_err(CliError::Usage)?;
    Ok(write_stdout(&render_netlist_stats(&classes, json)?)?)
}

/// Renders the `netlist-stats` rows of `classes`: pretty JSON (`json`) or
/// two text lines per class.
fn render_netlist_stats(classes: &[SwitchClass], json: bool) -> Result<String, String> {
    use fabric_power_netlist::circuits::switch_circuit;
    use fabric_power_netlist::EvalSchedule;

    // The Table 1 switch set: 32-bit payload buses, 5-bit sort addresses
    // (log2 of the paper's 32-port fabrics), as in the `conform` ledger's
    // Table 1 rows.
    const BUS_WIDTH: usize = 32;
    const ADDRESS_BITS: usize = 5;

    let mut rows = Vec::new();
    for &class in classes {
        let circuit = switch_circuit(class, BUS_WIDTH, ADDRESS_BITS)
            .map_err(|e| format!("generating {class}: {e}"))?;
        let netlist = &circuit.netlist;
        let schedule =
            EvalSchedule::compile(netlist).map_err(|e| format!("levelizing {class}: {e}"))?;
        rows.push(NetlistStatsRow {
            class: class.to_string(),
            bus_width: BUS_WIDTH,
            cells: netlist.cell_count(),
            nets: netlist.net_count(),
            levels: schedule.level_count(),
            settle_cycles: schedule.settle_cycles(),
            cells_by_kind: netlist.cell_histogram(),
        });
    }

    if json {
        return Ok(serde_json::to_string_pretty(&rows).map_err(|e| e.to_string())? + "\n");
    }
    let mut out = String::new();
    for row in &rows {
        let settle = row.settle_cycles.map_or_else(
            || "unbounded".to_string(),
            |cycles| format!("{cycles} cycles"),
        );
        out.push_str(&format!(
            "{} ({}-bit bus): {} cells, {} nets, {} levels, settle depth {settle}\n",
            row.class, row.bus_width, row.cells, row.nets, row.levels
        ));
        let kinds: Vec<String> = row
            .cells_by_kind
            .iter()
            .map(|(kind, count)| format!("{kind} {count}"))
            .collect();
        out.push_str(&format!("  {}\n", kinds.join(", ")));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn netlist_stats_json_matches_the_golden() {
        // `tests/golden/netlist_stats.json` is the stdout of
        // `fabric-power netlist-stats all --json`.
        let golden = std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../tests/golden/netlist_stats.json"
        ))
        .expect("read the netlist-stats golden");
        let classes = parse_netlist_classes("all").unwrap();
        assert_eq!(render_netlist_stats(&classes, true).unwrap(), golden);
    }

    #[test]
    fn netlist_classes_parse_to_the_table1_set() {
        assert_eq!(
            parse_netlist_classes("crosspoint").unwrap(),
            vec![SwitchClass::CrossbarCrosspoint]
        );
        assert_eq!(
            parse_netlist_classes("banyan").unwrap(),
            vec![SwitchClass::BanyanBinary]
        );
        assert_eq!(
            parse_netlist_classes("batcher").unwrap(),
            vec![SwitchClass::BatcherSorting]
        );
        assert_eq!(parse_netlist_classes("all").unwrap().len(), 7);
        for inputs in [2, 4, 32, 1024] {
            assert_eq!(
                parse_netlist_classes(&format!("mux{inputs}")).unwrap(),
                vec![SwitchClass::Mux { inputs }]
            );
        }
    }

    #[test]
    fn mux_input_counts_that_are_not_powers_of_two_are_named_errors() {
        for arg in ["mux0", "mux1", "mux3", "mux6", "mux12"] {
            let error = parse_netlist_classes(arg).unwrap_err();
            assert!(
                error.starts_with(&format!("unsupported class `{arg}`")),
                "{error}"
            );
            assert!(error.contains(NETLIST_CLASSES), "{error}");
        }
        for arg in ["mux", "muxx", "mux-4", "crossbar", ""] {
            let error = parse_netlist_classes(arg).unwrap_err();
            assert!(
                error.starts_with(&format!("unknown class `{arg}`")),
                "{error}"
            );
            assert!(error.contains(NETLIST_CLASSES), "{error}");
        }
    }
}
