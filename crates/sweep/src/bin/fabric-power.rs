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

use std::io::Write as _;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use fabric_power_netlist::SwitchClass;
use fabric_power_obs as obs;
use fabric_power_sweep::{
    diff_documents, merge_documents, report, write_atomic, write_stdout, ExperimentError, Scenario,
    ScenarioRegistry, SeedStrategy, ShardDocument, ShardStrategy, SweepDocument, SweepEngine,
    SweepPlan,
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

Each flag may be given once. All instrumentation is out of band (stderr /
side files): emitted sweep documents are byte-identical with observability
on or off.
";

/// The flags every command accepts, anywhere in its arguments.
const GLOBAL_FLAGS: &[&str] = &["--log", "--log-json"];

/// Why a command failed.
#[derive(Debug)]
enum CliError {
    /// The arguments were wrong: an unknown command, an unexpected, missing
    /// or repeated argument, or a malformed flag value.  Reported with a
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
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(error) => {
            let (CliError::Usage(message) | CliError::Failed(message)) = &error;
            note(&format!("error: {message}"));
            if matches!(error, CliError::Usage(_)) {
                note("run `fabric-power help` for usage");
            }
            ExitCode::FAILURE
        }
    }
}

/// Writes one line to stderr: the one path of every progress and error
/// line.  Those lines are best effort, so a stderr that cannot be written
/// changes neither the work nor the exit status.
fn note(line: &str) {
    let _ = writeln!(std::io::stderr(), "{line}");
}

/// One command's arguments, checked against what the command accepts.
#[derive(Debug, Default)]
struct Args {
    /// Each flag or switch given, with its value (empty for a switch).
    given: Vec<(&'static str, String)>,
    /// The positional arguments, in order.
    positionals: Vec<String>,
}

impl Args {
    /// Parses the arguments of a command whose `flags` take a value, whose
    /// `switches` take none and which takes up to `positionals` positional
    /// arguments; the [`GLOBAL_FLAGS`] are accepted too.  An unknown or
    /// surplus argument, a flag without its value and a flag or switch given
    /// twice are usage errors.
    fn parse(
        args: &[String],
        flags: &[&'static str],
        switches: &[&'static str],
        positionals: usize,
    ) -> Result<Self, CliError> {
        let mut parsed = Self::default();
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            let flag = GLOBAL_FLAGS.iter().chain(flags).find(|&flag| flag == arg);
            if let Some(&name) = flag.or_else(|| switches.iter().find(|&switch| switch == arg)) {
                if parsed.value(name).is_some() {
                    return Err(usage(format!("`{name}` is given more than once")));
                }
                let value = match flag {
                    Some(_) => args
                        .next()
                        .ok_or_else(|| usage(format!("`{name}` needs a value")))?
                        .clone(),
                    None => String::new(),
                };
                parsed.given.push((name, value));
            } else if !arg.starts_with('-') && parsed.positionals.len() < positionals {
                parsed.positionals.push(arg.clone());
            } else {
                return Err(usage(format!("unexpected argument `{arg}`")));
            }
        }
        Ok(parsed)
    }

    /// The value of a flag given (`""` for a switch), or `None`.
    fn value(&self, name: &str) -> Option<&str> {
        self.given
            .iter()
            .find(|(given, _)| *given == name)
            .map(|(_, value)| value.as_str())
    }
}

/// Splits the command name off the arguments: the first argument that is
/// neither a global flag nor a global flag's value.
fn split_command(args: &[String]) -> (Option<&str>, Vec<String>) {
    let mut at = 0;
    while args
        .get(at)
        .is_some_and(|arg| GLOBAL_FLAGS.contains(&arg.as_str()))
    {
        at += 2;
    }
    match args.get(at) {
        Some(command) => (Some(command), [&args[..at], &args[at + 1..]].concat()),
        None => (None, args.to_vec()),
    }
}

/// Configures the logger from the global flags.  `--log` takes one level or
/// `off`; anything else is a usage error.  It beats `$FABRIC_POWER_LOG`,
/// which the logger reads only when the first span closes and no `--log`
/// was given.
fn set_up_logging(args: &Args) -> Result<(), CliError> {
    if let Some(spec) = args.value("--log") {
        obs::log::set_filter(obs::Filter::parse(spec).map_err(CliError::Usage)?);
    }
    if let Some(path) = args.value("--log-json") {
        obs::log::log_json_to_file(Path::new(path))
            .map_err(|e| format!("opening log file {path}: {e}"))?;
    }
    Ok(())
}

fn run(args: &[String]) -> Result<ExitCode, CliError> {
    fn done(result: Result<(), impl Into<CliError>>) -> Result<ExitCode, CliError> {
        result.map(|()| ExitCode::SUCCESS).map_err(Into::into)
    }
    let (command, rest) = split_command(args);
    let parse = |flags: &[&'static str], switches: &[&'static str], positionals: usize| {
        let args = Args::parse(&rest, flags, switches, positionals)?;
        set_up_logging(&args)?;
        Ok::<_, CliError>(args)
    };
    match command {
        None | Some("help" | "--help" | "-h") => {
            parse(&[], &[], usize::MAX)?;
            done(write_stdout(USAGE))
        }
        Some("list-scenarios") => {
            parse(&[], &[], 0)?;
            done(list_scenarios())
        }
        Some("export-scenario") => done(export_scenario(&parse(&[], &[], 1)?)),
        Some("sweep") => done(sweep(&parse(
            &[
                "--scenario",
                "--scenario-file",
                "--threads",
                "--seed",
                "--seed-strategy",
                "--out",
                "--csv",
            ],
            &[],
            0,
        )?)),
        Some("plan") => done(plan(&parse(
            &[
                "--scenario-file",
                "--shards",
                "--strategy",
                "--seed",
                "--seed-strategy",
                "--out",
            ],
            &[],
            1,
        )?)),
        Some("run-shard") => done(run_shard(&parse(
            &["--index", "--threads", "--out"],
            &[],
            1,
        )?)),
        Some("merge") => done(merge(&parse(&["--out", "--csv"], &[], usize::MAX)?)),
        Some("diff") => diff(&parse(&["--tolerance"], &[], 2)?),
        Some("report") => done(report_command(&parse(&["--in"], &[], 0)?)),
        Some("netlist-stats") => done(netlist_stats(&parse(&[], &["--json"], 1)?)),
        Some(other) => Err(usage(format!("unknown command `{other}`"))),
    }
}

/// Reads one JSON input: a scenario, plan, shard part or sweep document.
/// `hint` follows a parse error's message.
fn read_json<T: serde::Deserialize>(path: &str, hint: &str) -> Result<T, String> {
    let json = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    serde_json::from_str(&json).map_err(|e| format!("parsing {path}: {e}{hint}"))
}

/// Writes `value` as pretty JSON with a trailing newline: to `out` when
/// given, otherwise to stdout.
fn write_json(value: &impl serde::Serialize, out: Option<&str>) -> Result<(), String> {
    let json = serde_json::to_string_pretty(value).map_err(|e| e.to_string())? + "\n";
    match out {
        Some(path) => write_file(path, &json),
        None => write_stdout(&json),
    }
}

/// Writes an artifact atomically (write-temp-then-rename, see
/// [`write_atomic`]), so an interrupted run never leaves a truncated file
/// behind, and says so on stderr.
fn write_file(path: &str, contents: &str) -> Result<(), String> {
    write_atomic(Path::new(path), contents).map_err(|e| format!("writing {path}: {e}"))?;
    note(&format!("wrote {path}"));
    Ok(())
}

/// The one output policy of the commands that produce a [`SweepDocument`]
/// (`sweep`, `merge`): write `--out` and/or `--csv` when given, otherwise
/// the JSON document to stdout.
fn write_document(document: &SweepDocument, args: &Args) -> Result<(), String> {
    let (out, csv) = (args.value("--out"), args.value("--csv"));
    if out.is_some() || csv.is_none() {
        write_json(document, out)?;
    }
    if let Some(path) = csv {
        write_file(path, &document.to_csv_string())?;
    }
    Ok(())
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

fn export_scenario(args: &Args) -> Result<(), CliError> {
    let [name] = &args.positionals[..] else {
        return Err(usage("export-scenario needs exactly one scenario name"));
    };
    let registry = ScenarioRegistry::builtin();
    let scenario = registry.get(name).ok_or_else(|| unknown_scenario(name))?;
    Ok(write_json(scenario, None)?)
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
    name: Option<&str>,
    file: Option<&str>,
    neither: &str,
    both: &str,
) -> Result<Scenario, CliError> {
    match (name, file) {
        (Some(_), Some(_)) => Err(usage(both)),
        (None, None) => Err(usage(neither)),
        (Some(name), None) => Ok(ScenarioRegistry::builtin()
            .get(name)
            .cloned()
            .ok_or_else(|| unknown_scenario(name))?),
        (None, Some(path)) => Ok(read_json(
            path,
            " (expected a scenario object like `fabric-power export-scenario` prints)",
        )?),
    }
}

/// Expands a scenario into the plan `sweep` and `plan` run: its grid with
/// `--seed` and `--seed-strategy` applied, split into `shards`.
fn seeded_plan(
    args: &Args,
    scenario: Scenario,
    shards: usize,
    strategy: ShardStrategy,
) -> Result<SweepPlan, CliError> {
    let Scenario {
        name, mut config, ..
    } = scenario;
    if let Some(seed) = args.value("--seed") {
        config.seed = parse_seed(seed)?;
    }
    let seed_strategy = match args.value("--seed-strategy") {
        Some(value) => SeedStrategy::parse(value).map_err(CliError::Usage)?,
        None => SeedStrategy::Shared,
    };
    Ok(SweepPlan::new(name, config, seed_strategy, shards, strategy).map_err(|e| e.to_string())?)
}

/// Builds the engine every executing subcommand shares: `--threads` sets
/// the worker count.
fn engine(args: &Args) -> Result<SweepEngine, CliError> {
    let mut engine = SweepEngine::new();
    if let Some(threads) = args.value("--threads") {
        engine = engine.with_threads(parse_thread_count(threads)?);
    }
    Ok(engine)
}

/// `fabric-power sweep`: the whole grid as a one-shard plan, run in this
/// process.
fn sweep(args: &Args) -> Result<(), CliError> {
    let scenario = load_scenario(
        args.value("--scenario"),
        args.value("--scenario-file"),
        "need `--scenario <NAME>` or `--scenario-file <FILE>`",
        "`--scenario` and `--scenario-file` are mutually exclusive",
    )?;
    let engine = engine(args)?;
    let plan = seeded_plan(args, scenario, 1, ShardStrategy::Contiguous)?;
    note(&format!(
        "running scenario `{}`: {} points on {} thread(s)...",
        plan.scenario,
        plan.total_cells(),
        engine.threads()
    ));
    let started = Instant::now();
    let document = engine.run_plan(&plan).map_err(|e| e.to_string())?;
    note(&format!(
        "completed {} points in {:.2?}",
        document.points.len(),
        started.elapsed()
    ));
    Ok(write_document(&document, args)?)
}

/// Compares two documents; a mismatch is a *result* (exit code 1 with the
/// delta report on stdout), not a usage error.
fn diff(args: &Args) -> Result<ExitCode, CliError> {
    let tolerance = match args.value("--tolerance") {
        Some(value) => value
            .parse::<f64>()
            .ok()
            .filter(|t| t.is_finite() && *t >= 0.0)
            .ok_or_else(|| usage(format!("invalid tolerance `{value}`")))?,
        None => 0.0,
    };
    let [a_path, b_path] = &args.positionals[..] else {
        return Err(usage("diff needs exactly two document paths"));
    };
    let a: SweepDocument = read_json(a_path, "")?;
    let b: SweepDocument = read_json(b_path, "")?;
    let result = diff_documents(&a, &b, tolerance);
    write_stdout(&result.format())?;
    if result.is_match() {
        Ok(ExitCode::SUCCESS)
    } else {
        Ok(ExitCode::FAILURE)
    }
}

/// `fabric-power plan <SCENARIO> --shards N`: expand once, split, serialize.
fn plan(args: &Args) -> Result<(), CliError> {
    let shards = args
        .value("--shards")
        .ok_or_else(|| usage("plan needs `--shards <N>`"))?;
    let shards: usize = shards.parse().ok().filter(|&n| n > 0).ok_or_else(|| {
        usage(format!(
            "invalid shard count `{shards}` (need a positive integer)"
        ))
    })?;
    let strategy = match args.value("--strategy") {
        Some(value) => ShardStrategy::parse(value).map_err(CliError::Usage)?,
        None => ShardStrategy::Contiguous,
    };
    // The scenario comes from the positional name or `--scenario-file`.
    let scenario = load_scenario(
        args.positionals.first().map(String::as_str),
        args.value("--scenario-file"),
        "plan needs a scenario name or `--scenario-file <FILE>`",
        "give a scenario name or `--scenario-file`, not both",
    )?;
    let plan = seeded_plan(args, scenario, shards, strategy)?;
    note(&format!(
        "planned scenario `{}`: {} cell(s) over {} {} shard(s)",
        plan.scenario,
        plan.total_cells(),
        plan.shard_count(),
        plan.strategy.slug(),
    ));
    Ok(write_json(&plan, args.value("--out"))?)
}

/// `fabric-power run-shard <PLAN> --index i`: execute one shard of a plan.
fn run_shard(args: &Args) -> Result<(), CliError> {
    let [plan_path] = &args.positionals[..] else {
        return Err(usage("run-shard needs exactly one plan file"));
    };
    let index = args
        .value("--index")
        .ok_or_else(|| usage("run-shard needs `--index <I>`"))?;
    let index: usize = index
        .parse()
        .map_err(|_| usage(format!("invalid shard index `{index}`")))?;
    let plan: SweepPlan = read_json(plan_path, "")?;
    let engine = engine(args)?;

    let shard = plan.shard(index).ok_or_else(|| {
        ExperimentError::InvalidShard {
            index,
            shards: plan.shard_count(),
        }
        .to_string()
    })?;
    note(&format!(
        "running shard {index}/{} of `{}`: {} cell(s) on {} thread(s)...",
        plan.shard_count(),
        plan.scenario,
        shard.cells.len(),
        engine.threads()
    ));
    let started = Instant::now();
    let document = engine
        .run_shard_detached(&plan.header(), shard)
        .map_err(|e| e.to_string())?;
    note(&format!(
        "completed {} cell(s) in {:.2?}",
        document.results.len(),
        started.elapsed()
    ));
    Ok(write_json(&document, args.value("--out"))?)
}

/// `fabric-power merge <PART>...`: recombine partial documents by cell index.
fn merge(args: &Args) -> Result<(), CliError> {
    if args.positionals.is_empty() {
        return Err(usage("merge needs at least one shard document"));
    }
    let parts = args
        .positionals
        .iter()
        .map(|path| read_json::<ShardDocument>(path, ""))
        .collect::<Result<Vec<_>, _>>()?;
    let document = merge_documents(&parts).map_err(|e| e.to_string())?;
    note(&format!(
        "merged {} shard(s) into {} point(s) of `{}`",
        parts.len(),
        document.points.len(),
        document.scenario
    ));
    Ok(write_document(&document, args)?)
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

/// Parses a `--threads` value: a positive integer.
fn parse_thread_count(value: &str) -> Result<usize, CliError> {
    match value.parse::<usize>() {
        Ok(0) => Err(usage("`--threads` must be at least 1")),
        Ok(threads) => Ok(threads),
        Err(_) => Err(usage(format!("invalid thread count `{value}`"))),
    }
}

fn report_command(args: &Args) -> Result<(), CliError> {
    let path = args
        .value("--in")
        .ok_or_else(|| usage("report needs `--in <FILE.json>`"))?;
    let document: SweepDocument = read_json(path, "")?;
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
fn netlist_stats(args: &Args) -> Result<(), CliError> {
    let class_arg = args
        .positionals
        .first()
        .ok_or_else(|| usage(format!("netlist-stats needs a class: {NETLIST_CLASSES}")))?;
    let classes = parse_netlist_classes(class_arg).map_err(CliError::Usage)?;
    let json = args.value("--json").is_some();
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
