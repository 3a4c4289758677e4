//! Timed phase spans, one level filter and two sinks (human-readable stderr,
//! optional JSONL file).
//!
//! # Filtering
//!
//! One [`Filter`] gates both sinks.  Its spec is a single level, which
//! admits that level and every more severe one, or `off`:
//!
//! ```text
//! FABRIC_POWER_LOG=info     # default: no span reports at info or above
//! FABRIC_POWER_LOG=debug    # `characterize` and `build_model` spans
//! FABRIC_POWER_LOG=trace    # plus one `run_cell` span per sweep cell
//! FABRIC_POWER_LOG=off      # silence
//! ```
//!
//! The filter is read from `FABRIC_POWER_LOG` when the first span closes,
//! unless [`set_filter`] (the CLI's `--log`) set it before.  An unset
//! `FABRIC_POWER_LOG` means `info`; so does a malformed one, after one
//! warning line on stderr that names the variable, its value and the parse
//! error.
//!
//! # Timestamps
//!
//! Events are stamped with seconds elapsed since the first event of the
//! process, not wall-clock time: the workspace has no date/time formatting
//! dependency, and relative stamps are what phase timing needs anyway.

use std::fmt::Write as _;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Instant;

/// Event severity, ordered from most verbose to most severe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Level {
    /// Per-item detail (one `run_cell` span per sweep cell).
    Trace,
    /// Phase detail (the `characterize` and `build_model` spans).
    Debug,
    /// The default threshold.  No span reports at `info` or above, so a
    /// default run writes no timings.
    Info,
    /// A threshold above every span.
    Warn,
    /// A threshold above every span.
    Error,
}

impl Level {
    /// Every level, most verbose first.
    pub const ALL: [Self; 5] = [
        Self::Trace,
        Self::Debug,
        Self::Info,
        Self::Warn,
        Self::Error,
    ];

    /// The canonical lowercase spelling (`trace` … `error`).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Self::Trace => "trace",
            Self::Debug => "debug",
            Self::Info => "info",
            Self::Warn => "warn",
            Self::Error => "error",
        }
    }

    /// Parses a level name (case-insensitive).
    ///
    /// # Errors
    ///
    /// Returns the unrecognized input.
    pub fn parse(input: &str) -> Result<Self, String> {
        match input.to_ascii_lowercase().as_str() {
            "trace" => Ok(Self::Trace),
            "debug" => Ok(Self::Debug),
            "info" => Ok(Self::Info),
            "warn" | "warning" => Ok(Self::Warn),
            "error" => Ok(Self::Error),
            other => Err(format!(
                "unknown log level `{other}` (expected trace, debug, info, warn, error or off)"
            )),
        }
    }
}

/// Decides which spans are reported: those at one level and above, or none.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Filter {
    /// The most verbose level admitted (`None` = off).
    minimum: Option<Level>,
}

impl Default for Filter {
    /// The out-of-the-box filter: `info`.
    fn default() -> Self {
        Self::level(Level::Info)
    }
}

impl Filter {
    /// A filter that admits `level` and above.
    #[must_use]
    pub fn level(level: Level) -> Self {
        Self {
            minimum: Some(level),
        }
    }

    /// A filter that admits nothing.
    #[must_use]
    pub fn off() -> Self {
        Self { minimum: None }
    }

    /// Parses a `FABRIC_POWER_LOG` or `--log` spec: one level name or `off`.
    ///
    /// # Errors
    ///
    /// Returns a description of anything else.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let spec = spec.trim();
        if spec.eq_ignore_ascii_case("off") {
            Ok(Self::off())
        } else {
            Level::parse(spec).map(Self::level)
        }
    }

    /// The lowest [`Level`] discriminant this filter admits ([`RANK_OFF`]
    /// when it admits none).
    fn rank(self) -> u8 {
        self.minimum.map_or(RANK_OFF, |level| level as u8)
    }
}

/// A rank no level reaches: everything filtered out.
const RANK_OFF: u8 = Level::Error as u8 + 1;
/// No filter yet: the first span to close reads `FABRIC_POWER_LOG`.
const RANK_UNSET: u8 = u8::MAX;

/// The active filter's rank, read without a lock so a disabled span costs
/// one relaxed atomic load.
static MIN_RANK: AtomicU8 = AtomicU8::new(RANK_UNSET);
/// The JSONL sink.  Held while an event goes to both sinks, so both list
/// events in the same order.
static JSON: Mutex<Option<BufWriter<File>>> = Mutex::new(None);
static START: OnceLock<Instant> = OnceLock::new();

/// Replaces the process-wide filter (the CLI's `--log` flag, and tests).
/// Once set, `FABRIC_POWER_LOG` is no longer read.
pub fn set_filter(filter: Filter) {
    MIN_RANK.store(filter.rank(), Ordering::Relaxed);
}

/// Whether a span at `level` is reported, reading `FABRIC_POWER_LOG` on
/// the first call that finds no filter set.
fn enabled(level: Level) -> bool {
    let mut rank = MIN_RANK.load(Ordering::Relaxed);
    if rank == RANK_UNSET {
        let spec = std::env::var("FABRIC_POWER_LOG").ok();
        let parsed = spec.as_deref().map(Filter::parse);
        let filter = match &parsed {
            Some(Ok(filter)) => *filter,
            _ => Filter::default(),
        };
        // A `set_filter` that ran in the meantime wins.
        rank = match MIN_RANK.compare_exchange(
            RANK_UNSET,
            filter.rank(),
            Ordering::Relaxed,
            Ordering::Relaxed,
        ) {
            Ok(_) => {
                // Only the thread that installed the filter warns, so the
                // line appears once however many spans close at once.
                if let (Some(spec), Some(Err(error))) = (&spec, &parsed) {
                    let _ = writeln!(
                        std::io::stderr(),
                        "warning: ignoring FABRIC_POWER_LOG={spec:?}: {error}; using `info`"
                    );
                }
                filter.rank()
            }
            Err(current) => current,
        };
    }
    level as u8 >= rank
}

fn json_sink() -> MutexGuard<'static, Option<BufWriter<File>>> {
    JSON.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Routes a JSONL copy of every reported span to `path` (truncating it).
///
/// # Errors
///
/// Propagates file-creation failures.
pub fn log_json_to_file(path: &Path) -> std::io::Result<()> {
    let file = File::create(path)?;
    *json_sink() = Some(BufWriter::new(file));
    Ok(())
}

/// Stops writing the JSONL sink (flushing what was buffered).
pub fn clear_json() {
    if let Some(mut writer) = json_sink().take() {
        let _ = writer.flush();
    }
}

/// Writes one event to stderr and, when configured, to the JSONL sink.
fn emit(level: Level, target: &str, message: &str, fields: &[(&str, u64)]) {
    let elapsed = START.get_or_init(Instant::now).elapsed().as_secs_f64();
    let mut sink = json_sink();
    let mut line = format!("[{elapsed:9.3}s {:5} {target}] {message}", level.as_str());
    for (key, value) in fields {
        let _ = write!(line, " {key}={value}");
    }
    // A span reports from `Drop`, which must not panic as `eprintln!` does
    // when stderr fails.
    let _ = writeln!(std::io::stderr(), "{line}");
    if let Some(writer) = sink.as_mut() {
        let mut json = String::with_capacity(line.len() + 48);
        json.push_str("{\"t\":");
        push_json_f64(&mut json, elapsed);
        json.push_str(",\"level\":\"");
        json.push_str(level.as_str());
        json.push_str("\",\"target\":");
        push_json_string(&mut json, target);
        json.push_str(",\"msg\":");
        push_json_string(&mut json, message);
        json.push_str(",\"fields\":{");
        for (index, (key, value)) in fields.iter().enumerate() {
            if index > 0 {
                json.push(',');
            }
            push_json_string(&mut json, key);
            let _ = write!(json, ":{value}");
        }
        json.push_str("}}\n");
        // One write per line and an immediate flush: a reader tailing the
        // file (or reading it after a kill) never sees a torn line.
        let _ = writer.write_all(json.as_bytes());
        let _ = writer.flush();
    }
}

/// Appends a JSON string literal (quoted, escaped) to `out`.
fn push_json_string(out: &mut String, value: &str) {
    out.push('"');
    for c in value.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Appends a float as JSON (non-finite values become `null`, which bare
/// `Display` floats would not: `NaN` is not JSON).
fn push_json_f64(out: &mut String, value: f64) {
    if value.is_finite() {
        let _ = write!(out, "{value}");
    } else {
        out.push_str("null");
    }
}

/// A timed scope for one pipeline phase.  Dropping it emits a `<name> done`
/// event carrying its integer fields and the elapsed microseconds as
/// `elapsed_us`.
#[derive(Debug)]
#[must_use = "a span measures the scope it is bound to; dropping it immediately measures nothing"]
pub struct Span {
    level: Level,
    target: &'static str,
    name: &'static str,
    start: Instant,
    fields: Vec<(&'static str, u64)>,
}

/// Opens a [`Span`] for phase `name`, reported at [`Level::Debug`] under
/// `target` when it closes.
pub fn span(target: &'static str, name: &'static str) -> Span {
    Span {
        level: Level::Debug,
        target,
        name,
        start: Instant::now(),
        fields: Vec::new(),
    }
}

impl Span {
    /// Overrides the level the completion event is reported at (e.g.
    /// [`Level::Trace`] for per-cell spans).
    pub fn with_level(mut self, level: Level) -> Self {
        self.level = level;
        self
    }

    /// Attaches a count (a port count, a cell index) to the completion
    /// event.
    pub fn field(mut self, key: &'static str, count: usize) -> Self {
        self.fields.push((key, count as u64));
        self
    }

    /// Closes the span now (identical to dropping it; reads better at the
    /// end of a long scope).
    pub fn finish(self) {}
}

impl Drop for Span {
    fn drop(&mut self) {
        if enabled(self.level) {
            let micros = u64::try_from(self.start.elapsed().as_micros()).unwrap_or(u64::MAX);
            self.fields.push(("elapsed_us", micros));
            emit(
                self.level,
                self.target,
                &format!("{} done", self.name),
                &self.fields,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_parse_order_and_print() {
        assert!(Level::Trace < Level::Debug);
        assert!(Level::Debug < Level::Info);
        assert!(Level::Info < Level::Warn);
        assert!(Level::Warn < Level::Error);
        for level in Level::ALL {
            assert_eq!(Level::parse(level.as_str()).unwrap(), level);
            assert_eq!(Level::parse(&level.as_str().to_uppercase()).unwrap(), level);
        }
        assert!(Level::parse("loud").is_err());
    }

    #[test]
    fn default_filter_is_info() {
        assert_eq!(Filter::default(), Filter::level(Level::Info));
        assert_eq!(Filter::parse("info"), Ok(Filter::default()));
        assert_eq!(Filter::default().rank(), Level::Info as u8);
    }

    #[test]
    fn off_silences_every_level() {
        assert_eq!(Filter::parse("OFF"), Ok(Filter::off()));
        assert!(Level::ALL
            .iter()
            .all(|&level| (level as u8) < Filter::off().rank()));
        assert_eq!(Filter::level(Level::Trace).rank(), 0);
    }

    #[test]
    fn malformed_specs_are_errors() {
        assert!(Filter::parse("").is_err());
        assert!(Filter::parse("banana").is_err());
        assert!(Filter::parse(",,").is_err());
        // Anything but one level or `off` is an error, so a per-target
        // directive is refused instead of silently widening the filter.
        for spec in ["warn,sweep.engine=trace", "sweep=debug", "debug,off"] {
            let error = Filter::parse(spec).unwrap_err();
            assert!(error.contains("unknown log level"), "{spec}: {error}");
        }
    }

    #[test]
    fn json_string_escaping_covers_the_awkward_cases() {
        let mut out = String::new();
        push_json_string(&mut out, "plain");
        assert_eq!(out, "\"plain\"");
        let mut out = String::new();
        push_json_string(&mut out, "a\"b\\c\nd\te\u{1}");
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\\te\\u0001\"");
    }

    #[test]
    fn json_floats_stay_valid_json() {
        let mut out = String::new();
        push_json_f64(&mut out, 1.5);
        assert_eq!(out, "1.5");
        let mut out = String::new();
        push_json_f64(&mut out, f64::NAN);
        assert_eq!(out, "null");
        let mut out = String::new();
        push_json_f64(&mut out, f64::INFINITY);
        assert_eq!(out, "null");
    }
}
