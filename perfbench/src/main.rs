//! `perfbench`: the layered end-to-end benchmark of the fabric-power
//! workloads.
//!
//! ```text
//! perfbench --workload <fig9|noc-uniform|table1-mc> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Runs one workload repeatedly for `S` seconds through the public crate
//! APIs the `fabric-power` CLI uses, checks every run's output, prints each
//! metric with its median, quartiles and sample count, and ends with one
//! JSON line: `{"correct", "attempted", "failed", "metrics"}`.  End-to-end
//! times are scaled to a reference host speed (see `calib`).  With
//! `--trace 1` untraced and traced runs alternate and the metrics are the
//! per-layer split; see `README.md` next to this crate.

mod calib;
mod metrics;
mod stats;
mod sweep;
mod table1;

use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use fabric_power_core::paper::published_fc_vs_batcher_gap;
use fabric_power_fabric::provider::stable_hash_hex;
use fabric_power_fabric::FabricEnergyModel;
use fabric_power_sweep::{PortSweep, SweepDocument};
use serde::Value;

use crate::metrics::{Layers, END_TO_END, PER_LAYER};
use crate::sweep::SweepWorkload;
use crate::table1::Table1Workload;

/// The registered scenarios' base seed, used when `--seed` is absent.
const DEFAULT_SEED: u64 = 0xDAC_2002;

/// Digests (`stable_hash_hex`) of the files
/// `fabric-power sweep --scenario <name> --threads 1 --out <file>` writes
/// at the default seed.  A run at the default seed must reproduce them.
const CLI_DIGESTS: &[(&str, &str)] = &[
    ("fig9", "abfad4ebcb60e4366d0e1d89dd11902f"),
    ("noc-uniform", "3dec59df1338a958aa27e34156c54f95"),
];

/// Runs a measurement lasts at least, whatever `--seconds` says.
const MIN_RUNS: usize = 3;

/// One untraced run of a workload.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Host time of the whole run.
    pub wall: Duration,
    /// Host time of set-up (a median where the workload repeats set-up).
    pub setup: Duration,
    /// Simulated cycles: router node-cycles, or characterized lane-cycles.
    pub sim_cycles: u64,
    /// Host time the simulated cycles took.
    pub sim_time: Duration,
    /// Digest of the run's output.
    pub digest: String,
}

/// One traced run of a workload.
#[derive(Debug, Clone)]
pub struct Traced {
    /// Host time of the whole traced run.
    pub wall: Duration,
    /// Digest of the run's output (must equal the untraced one).
    pub digest: String,
    /// The per-layer split.
    pub layers: Layers,
}

/// Digest of an output, as used by the model cache's content addresses.
#[must_use]
pub fn digest(bytes: &[u8]) -> String {
    stable_hash_hex(bytes)
}

enum Workload {
    Sweep(SweepWorkload),
    Table1(Table1Workload),
}

impl Workload {
    fn new(name: &str, seed: u64, scratch: &Path) -> Result<Self, String> {
        match name {
            "fig9" => SweepWorkload::new("paper-fig9", seed).map(Self::Sweep),
            "noc-uniform" => SweepWorkload::new("noc-uniform", seed).map(Self::Sweep),
            "table1-mc" => Ok(Self::Table1(Table1Workload::new(
                seed,
                table1::SEEDS,
                scratch,
            ))),
            other => Err(format!(
                "unknown workload `{other}` (fig9, noc-uniform, table1-mc)"
            )),
        }
    }

    fn ops(&self) -> u64 {
        match self {
            Self::Sweep(w) => w.cells(),
            Self::Table1(w) => w.models(),
        }
    }

    /// One untraced run plus the output the paper comparison reads.
    fn run(&mut self) -> Result<(Sample, Output), String> {
        match self {
            Self::Sweep(w) => w.run().map(|(s, doc)| (s, Output::Document(Box::new(doc)))),
            Self::Table1(w) => w.run().map(|(s, models)| (s, Output::Models(models))),
        }
    }

    fn run_traced(&mut self) -> Result<Traced, String> {
        match self {
            Self::Sweep(w) => w.run_traced(),
            Self::Table1(w) => w.run_traced(),
        }
    }
}

enum Output {
    Document(Box<SweepDocument>),
    Models(Vec<Arc<FabricEnergyModel>>),
}

/// The deterministic error against the paper, where the repository holds
/// a reference, with a description of what it measures.
fn paper_err(workload: &str, output: &Output) -> Result<(f64, &'static str), &'static str> {
    match (workload, output) {
        ("fig9", Output::Document(document)) => {
            let sweep = PortSweep {
                offered_load: 0.5,
                points: document
                    .points
                    .iter()
                    .filter(|p| (p.offered_load - 0.5).abs() < 1e-9)
                    .cloned()
                    .collect(),
            };
            let gaps: Option<Vec<f64>> = [4, 32]
                .iter()
                .map(|&ports| {
                    let ours = sweep.fully_connected_vs_batcher_gap(ports)?;
                    Some((ours - published_fc_vs_batcher_gap(ports)?).abs())
                })
                .collect();
            let gaps = gaps.ok_or("the document lacks the 50% load points")?;
            Ok((
                gaps.iter().sum::<f64>() / gaps.len() as f64,
                "mean |ours - published| fully-connected vs Batcher-Banyan gap, 50% load, ports 4 and 32",
            ))
        }
        ("table1-mc", Output::Models(models)) => Ok((
            table1::paper_err(&models[..4]),
            "mean |ours/paper - 1| over Table 1 entries, first stimulus seed",
        )),
        _ => Err("unvalidated, no error figure"),
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_seed(text: &str) -> Result<u64, String> {
    let clean = text.replace('_', "");
    let parsed = match clean
        .strip_prefix("0x")
        .or_else(|| clean.strip_prefix("0X"))
    {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => clean.parse(),
    };
    parsed.map_err(|_| format!("invalid seed `{text}`"))
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let value = iter
            .next()
            .ok_or_else(|| format!("`{flag}` needs a value"))?;
        match flag.as_str() {
            "--workload" => parsed.workload.clone_from(value),
            "--seed" => parsed.seed = parse_seed(value)?,
            "--seconds" => {
                parsed.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("invalid seconds `{value}`"))?;
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                };
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    if parsed.workload.is_empty() {
        return Err("need `--workload <fig9|noc-uniform|table1-mc>`".into());
    }
    Ok(parsed)
}

/// One successful untraced run.
struct Measured {
    sample: Sample,
    /// Peak resident memory in MiB.
    rss_mb: f64,
    /// Factor from the run's host seconds to reference-host seconds.
    scale: f64,
}

/// Everything one measurement collected.
#[derive(Default)]
struct Collected {
    attempted: u64,
    failed: u64,
    expected_digest: Option<String>,
    samples: Vec<Measured>,
    traced: Vec<Traced>,
    paper_err: Option<Result<(f64, &'static str), &'static str>>,
}

impl Collected {
    /// Books one run's operations, failing all of them when the run errored
    /// or its digest differs from the expected one.
    fn book(&mut self, ops: u64, digest: Result<&str, &str>) -> bool {
        self.attempted += ops;
        let ok = match digest {
            Ok(digest) => {
                let expected = self
                    .expected_digest
                    .get_or_insert_with(|| digest.to_owned());
                if expected == digest {
                    true
                } else {
                    eprintln!("output digest {digest} differs from {expected}");
                    false
                }
            }
            Err(error) => {
                eprintln!("run failed: {error}");
                false
            }
        };
        if !ok {
            self.failed += ops;
        }
        ok
    }
}

fn measure(args: &Args, workload: &mut Workload) -> Collected {
    let mut collected = Collected {
        expected_digest: (args.seed == DEFAULT_SEED)
            .then(|| {
                CLI_DIGESTS
                    .iter()
                    .find(|(name, _)| *name == args.workload)
                    .map(|(_, digest)| (*digest).to_owned())
            })
            .flatten(),
        ..Collected::default()
    };
    let budget = Duration::from_secs_f64(args.seconds);
    let min_runs = if args.trace { MIN_RUNS + 1 } else { MIN_RUNS };
    let started = Instant::now();
    let mut runs = 0;
    // The calibration right after an untraced run is the one right before
    // the next, unless a traced run came in between.
    let mut calibrated = None;
    while runs < min_runs || started.elapsed() < budget {
        let ops = workload.ops();
        if args.trace && runs % 2 == 1 {
            calibrated = None;
            match workload.run_traced() {
                Ok(traced) => {
                    if collected.book(ops, Ok(&traced.digest)) {
                        collected.traced.push(traced);
                    }
                }
                Err(error) => {
                    collected.book(ops, Err(&error));
                }
            }
        } else {
            let before = calibrated.unwrap_or_else(calib::calibrate);
            stats::reset_peak_rss();
            let result = workload.run();
            let rss_mb = stats::peak_rss_mb().unwrap_or(0.0);
            let after = calib::calibrate();
            calibrated = Some(after);
            match result {
                Ok((sample, output)) => {
                    let scale = calib::scale(before, after);
                    eprintln!(
                        "run {runs}: wall {:.4} s, calibration {:.3}/{:.3} ms, scaled wall {:.4} s",
                        sample.wall.as_secs_f64(),
                        before.as_secs_f64() * 1e3,
                        after.as_secs_f64() * 1e3,
                        sample.wall.as_secs_f64() * scale,
                    );
                    if collected.book(ops, Ok(&sample.digest)) {
                        collected
                            .paper_err
                            .get_or_insert_with(|| paper_err(&args.workload, &output));
                        collected.samples.push(Measured {
                            sample,
                            rss_mb,
                            scale,
                        });
                    }
                }
                Err(error) => {
                    collected.book(ops, Err(&error));
                }
            }
        }
        runs += 1;
    }
    collected
}

/// Prints one metric's summary line and returns the median it reports.
fn metric_line(name: &str, unit: &str, values: &[f64]) -> f64 {
    let s = stats::summarize(values);
    println!(
        "{name:<38} median {:<14.6e} q1 {:<14.6e} q3 {:<14.6e} n {:<3} {unit}",
        s.median, s.q1, s.q3, s.n
    );
    s.median
}

fn run(args: &Args) -> Result<(), String> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let scratch = root.join(".store");
    let mut workload = Workload::new(&args.workload, args.seed, &scratch)?;
    let collected = measure(args, &mut workload);
    // Only this process's stores live here; leave nothing behind.
    let _ = std::fs::remove_dir(&scratch);

    if collected.samples.is_empty() || (args.trace && collected.traced.is_empty()) {
        return Err("no run succeeded".into());
    }
    let scales: Vec<f64> = collected.samples.iter().map(|m| m.scale).collect();
    println!(
        "perfbench workload={} seed={:#x} host_cpus={} threads=1 revision={} runs={} traced_runs={} host_scale={:.4}",
        args.workload,
        args.seed,
        stats::host_cpus(),
        stats::git_revision(root.parent().unwrap_or(root)),
        collected.samples.len(),
        collected.traced.len(),
        stats::summarize(&scales).median,
    );

    let walls: Vec<f64> = collected
        .samples
        .iter()
        .map(|m| m.sample.wall.as_secs_f64())
        .collect();
    let mut metrics = Vec::new();
    let mut report = |name: &str, unit: &str, values: &[f64]| {
        let value = metric_line(name, unit, values);
        metrics.push((
            name.to_owned(),
            Value::Object(vec![
                ("value".into(), Value::Float(value)),
                ("unit".into(), Value::Str(unit.into())),
            ]),
        ));
    };
    if args.trace {
        let wall = stats::summarize(&walls).median;
        for &(name, unit) in PER_LAYER {
            let values: Vec<f64> = collected
                .traced
                .iter()
                .map(|t| match name {
                    "trace.overhead_frac" => t.wall.as_secs_f64() / wall - 1.0,
                    "trace.coverage_frac" => t.layers.self_time_s() / wall,
                    _ => t.layers.get(name),
                })
                .collect();
            report(name, unit, &values);
        }
        if let Some(unknown) = collected
            .traced
            .iter()
            .map(|t| t.layers.unknown_names())
            .find(|u| !u.is_empty())
        {
            return Err(format!("traced run set undeclared metrics: {unknown:?}"));
        }
    } else {
        // Times are reference-host seconds: a run's host seconds times
        // its calibration scale.
        for &(name, unit) in END_TO_END {
            let values: Vec<f64> = collected
                .samples
                .iter()
                .map(|m| match name {
                    "wall_s" => m.sample.wall.as_secs_f64() * m.scale,
                    "setup_s" => m.sample.setup.as_secs_f64() * m.scale,
                    "sim_cycles_per_s" => {
                        m.sample.sim_cycles as f64 / (m.sample.sim_time.as_secs_f64() * m.scale)
                    }
                    "peak_rss_mb" => m.rss_mb,
                    _ => unreachable!("every end-to-end metric is computed above"),
                })
                .collect();
            report(name, unit, &values);
        }
    }
    println!(
        "{:<38} {} ({} of {} operations)",
        "failed_frac",
        collected.failed as f64 / collected.attempted.max(1) as f64,
        collected.failed,
        collected.attempted
    );
    match collected
        .paper_err
        .expect("a successful run sets paper_err")
    {
        Ok((err, what)) => println!("{:<38} {err:.6} ({what})", "paper_err"),
        Err(why) => println!("{:<38} {why}", "paper_err"),
    }

    let result = Value::Object(vec![
        ("correct".into(), Value::Bool(collected.failed == 0)),
        ("attempted".into(), Value::UInt(collected.attempted)),
        ("failed".into(), Value::UInt(collected.failed)),
        ("metrics".into(), Value::Object(metrics)),
    ]);
    println!(
        "{}",
        serde_json::to_string(&result).map_err(|e| e.to_string())?
    );
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&args).and_then(|args| run(&args)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(error) => {
            eprintln!("perfbench: {error}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>())
    }

    #[test]
    fn arguments_parse_and_bad_ones_are_refused() {
        let parsed = args(&["--workload", "fig9", "--seed", "0xDAC_2002", "--trace", "1"]).unwrap();
        assert_eq!(
            (parsed.seed, parsed.trace, parsed.seconds),
            (DEFAULT_SEED, true, 10.0)
        );
        assert_eq!(
            args(&["--workload", "fig9", "--seed", "42"]).unwrap().seed,
            42
        );
        assert!(args(&["--seed", "1"]).is_err(), "workload is required");
        assert!(args(&["--workload", "fig9", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "fig9", "--seconds", "-1"]).is_err());
        assert!(args(&["--workload", "fig9", "--bogus", "1"]).is_err());
        assert!(args(&["--workload"]).is_err());
        assert!(Workload::new("fleet", 1, Path::new(".")).is_err());
    }

    /// The default-seed documents are byte-identical to the files
    /// `fabric-power sweep --scenario <name> --threads 1 --out` writes.
    #[test]
    fn default_seed_documents_match_the_cli() {
        for (workload, cli) in CLI_DIGESTS {
            let Workload::Sweep(sweep) =
                Workload::new(workload, DEFAULT_SEED, Path::new(".")).unwrap()
            else {
                unreachable!("CLI digests are recorded for sweeps");
            };
            let (sample, document) = sweep.run().unwrap();
            assert_eq!(sample.digest, *cli, "{workload}");
            let err = paper_err(workload, &Output::Document(Box::new(document)));
            match *workload {
                "fig9" => assert!(err.unwrap().0 > 0.0),
                _ => assert_eq!(err.unwrap_err(), "unvalidated, no error figure"),
            }
        }
    }
}
