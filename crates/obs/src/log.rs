//! Structured, leveled, target-tagged events with two sinks (human-readable
//! stderr, optional JSONL file) and `FABRIC_POWER_LOG` filtering.
//!
//! # Filtering
//!
//! One [`Filter`] gates both sinks.  Its spec is a comma-separated list of
//! directives, each either a bare level (`info`, `debug`, …, or `off`) that
//! sets the default, or `target=level` scoping the level to every target
//! whose dot-separated path starts with `target`:
//!
//! ```text
//! FABRIC_POWER_LOG=info                       # default
//! FABRIC_POWER_LOG=debug                      # everything at debug+
//! FABRIC_POWER_LOG=warn,sweep.engine=trace    # quiet, except the engine
//! FABRIC_POWER_LOG=off                        # silence
//! ```
//!
//! The most specific (longest) matching directive wins.  An unset or
//! unparseable `FABRIC_POWER_LOG` means `info`.
//!
//! # Timestamps
//!
//! Events are stamped with seconds elapsed since the first event of the
//! process, not wall-clock time: the workspace has no date/time formatting
//! dependency, and relative stamps are what phase timing needs anyway.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Instant;

/// Event severity, ordered from most verbose to most severe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Level {
    /// Per-item detail (e.g. one event per sweep cell).
    Trace,
    /// Phase-level detail (span timings, cache probes).
    Debug,
    /// Lifecycle events an operator wants by default.
    Info,
    /// Something degraded but recoverable (a healed cache entry, a requeue).
    Warn,
    /// Something failed.
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

    fn rank(self) -> u8 {
        match self {
            Self::Trace => 0,
            Self::Debug => 1,
            Self::Info => 2,
            Self::Warn => 3,
            Self::Error => 4,
        }
    }
}

impl std::fmt::Display for Level {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One typed field value attached to an event.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// A boolean.
    Bool(bool),
    /// An unsigned integer.
    U64(u64),
    /// A signed integer.
    I64(i64),
    /// A float (non-finite values render as JSON `null`).
    F64(f64),
    /// A string.
    Str(String),
}

impl std::fmt::Display for FieldValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Bool(v) => write!(f, "{v}"),
            Self::U64(v) => write!(f, "{v}"),
            Self::I64(v) => write!(f, "{v}"),
            Self::F64(v) => write!(f, "{v}"),
            Self::Str(v) => write!(f, "{v}"),
        }
    }
}

macro_rules! field_from {
    ($($ty:ty => $variant:ident as $target:ty),* $(,)?) => {
        $(impl From<$ty> for FieldValue {
            fn from(value: $ty) -> Self {
                Self::$variant(value as $target)
            }
        })*
    };
}

impl From<bool> for FieldValue {
    fn from(value: bool) -> Self {
        Self::Bool(value)
    }
}

field_from! {
    u8 => U64 as u64,
    u16 => U64 as u64,
    u32 => U64 as u64,
    u64 => U64 as u64,
    usize => U64 as u64,
    i8 => I64 as i64,
    i16 => I64 as i64,
    i32 => I64 as i64,
    i64 => I64 as i64,
    f32 => F64 as f64,
    f64 => F64 as f64,
}

impl From<&str> for FieldValue {
    fn from(value: &str) -> Self {
        Self::Str(value.to_string())
    }
}

impl From<String> for FieldValue {
    fn from(value: String) -> Self {
        Self::Str(value)
    }
}

impl From<&String> for FieldValue {
    fn from(value: &String) -> Self {
        Self::Str(value.clone())
    }
}

/// One parsed `target=level` directive (`target` empty = the default).
#[derive(Debug, Clone, PartialEq, Eq)]
struct Directive {
    target: String,
    /// `None` means `off`.
    level: Option<Level>,
}

/// Decides which events are emitted, by level and target.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Filter {
    directives: Vec<Directive>,
}

impl Default for Filter {
    /// The out-of-the-box filter: `info`.
    fn default() -> Self {
        Self::level(Level::Info)
    }
}

impl Filter {
    /// A filter that admits `level` and above for every target.
    #[must_use]
    pub fn level(level: Level) -> Self {
        Self {
            directives: vec![Directive {
                target: String::new(),
                level: Some(level),
            }],
        }
    }

    /// A filter that admits nothing.
    #[must_use]
    pub fn off() -> Self {
        Self {
            directives: vec![Directive {
                target: String::new(),
                level: None,
            }],
        }
    }

    /// Parses a `FABRIC_POWER_LOG`-style spec (see the module docs).
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed directive.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut directives = Vec::new();
        for raw in spec.split(',') {
            let raw = raw.trim();
            if raw.is_empty() {
                continue;
            }
            let (target, level_str) = match raw.split_once('=') {
                Some((target, level)) => (target.trim().to_string(), level.trim()),
                None => (String::new(), raw),
            };
            let level = if level_str.eq_ignore_ascii_case("off") {
                None
            } else {
                Some(Level::parse(level_str)?)
            };
            directives.push(Directive { target, level });
        }
        if directives.is_empty() {
            return Err(format!("empty log filter spec `{spec}`"));
        }
        Ok(Self { directives })
    }

    /// Whether an event at `level` for `target` passes this filter.
    ///
    /// A directive matches a target when its name is a dot-boundary prefix
    /// of it (`sweep` matches `sweep.engine` but not `sweeps`); the longest
    /// matching directive decides.
    #[must_use]
    pub fn enabled(&self, level: Level, target: &str) -> bool {
        let mut best: Option<&Directive> = None;
        for directive in &self.directives {
            if !prefix_matches(&directive.target, target) {
                continue;
            }
            if best.is_none_or(|b| directive.target.len() >= b.target.len()) {
                best = Some(directive);
            }
        }
        match best {
            Some(directive) => directive.level.is_some_and(|minimum| level >= minimum),
            None => false,
        }
    }

    /// The most verbose level any directive admits (`None` = fully off) —
    /// the cheap pre-check [`enabled`] uses before consulting directives.
    fn most_verbose(&self) -> Option<Level> {
        self.directives.iter().filter_map(|d| d.level).min()
    }
}

fn prefix_matches(prefix: &str, target: &str) -> bool {
    if prefix.is_empty() {
        return true;
    }
    match target.strip_prefix(prefix) {
        Some(rest) => rest.is_empty() || rest.starts_with('.'),
        None => false,
    }
}

/// The process-wide logger: one filter, stderr always, JSONL optionally.
struct Logger {
    filter: Filter,
    json: Option<BufWriter<File>>,
}

impl Logger {
    fn from_env() -> Self {
        let filter = std::env::var("FABRIC_POWER_LOG")
            .ok()
            .and_then(|spec| Filter::parse(&spec).ok())
            .unwrap_or_default();
        Self { filter, json: None }
    }
}

/// 5 = everything filtered out.
const RANK_OFF: u8 = 5;

/// Mirrors the active filter's most verbose admitted rank, read without the
/// lock so disabled events cost one relaxed atomic load.  Starts at the
/// default filter's `info`.
static MIN_RANK: AtomicU8 = AtomicU8::new(2);
static LOGGER: OnceLock<Mutex<Logger>> = OnceLock::new();
static START: OnceLock<Instant> = OnceLock::new();

fn logger() -> MutexGuard<'static, Logger> {
    let mutex = LOGGER.get_or_init(|| {
        let logger = Logger::from_env();
        publish_min_rank(&logger.filter);
        Mutex::new(logger)
    });
    mutex
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn publish_min_rank(filter: &Filter) {
    let rank = filter.most_verbose().map_or(RANK_OFF, Level::rank);
    MIN_RANK.store(rank, Ordering::Relaxed);
}

/// Seconds elapsed since the process's first observability call.
#[must_use]
pub fn elapsed_seconds() -> f64 {
    START.get_or_init(Instant::now).elapsed().as_secs_f64()
}

/// Replaces the process-wide filter (normally parsed from
/// `FABRIC_POWER_LOG`; explicit calls are for the CLI's `--log` flag and for
/// tests).
pub fn set_filter(filter: Filter) {
    let mut logger = logger();
    publish_min_rank(&filter);
    logger.filter = filter;
}

/// Routes a JSONL copy of every admitted event to `path` (truncating it).
///
/// # Errors
///
/// Propagates file-creation failures.
pub fn log_json_to_file(path: &Path) -> std::io::Result<()> {
    let file = File::create(path)?;
    logger().json = Some(BufWriter::new(file));
    Ok(())
}

/// Stops writing the JSONL sink (flushing what was buffered).
pub fn clear_json() {
    if let Some(mut writer) = logger().json.take() {
        let _ = writer.flush();
    }
}

/// Whether an event at `level` for `target` would currently be emitted.
///
/// Cheap when the answer is no: a disabled level costs one relaxed atomic
/// load, no lock.
#[must_use]
pub fn enabled(level: Level, target: &str) -> bool {
    if level.rank() < MIN_RANK.load(Ordering::Relaxed) {
        return false;
    }
    logger().filter.enabled(level, target)
}

/// Emits one event to every active sink.  Prefer the [`crate::event!`] /
/// [`crate::info!`]-family macros, which check [`enabled`] first and build
/// the field slice inline.
pub fn emit(level: Level, target: &str, message: &str, fields: &[(&str, FieldValue)]) {
    let elapsed = elapsed_seconds();
    let mut logger = logger();
    if !logger.filter.enabled(level, target) {
        return;
    }
    let mut line = format!("[{elapsed:9.3}s {:5} {target}] {message}", level.as_str());
    for (key, value) in fields {
        use std::fmt::Write as _;
        let _ = write!(line, " {key}={value}");
    }
    eprintln!("{line}");
    if let Some(writer) = logger.json.as_mut() {
        let mut json = String::with_capacity(line.len() + 48);
        json.push_str("{\"t\":");
        push_json_f64(&mut json, elapsed);
        json.push_str(",\"level\":\"");
        json.push_str(level.as_str());
        json.push_str("\",\"target\":");
        push_json_string(&mut json, target);
        json.push_str(",\"msg\":");
        push_json_string(&mut json, message);
        if !fields.is_empty() {
            json.push_str(",\"fields\":{");
            for (index, (key, value)) in fields.iter().enumerate() {
                if index > 0 {
                    json.push(',');
                }
                push_json_string(&mut json, key);
                json.push(':');
                push_json_value(&mut json, value);
            }
            json.push('}');
        }
        json.push('}');
        json.push('\n');
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
                use std::fmt::Write as _;
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
    use std::fmt::Write as _;
    if value.is_finite() {
        let _ = write!(out, "{value}");
    } else {
        out.push_str("null");
    }
}

fn push_json_value(out: &mut String, value: &FieldValue) {
    use std::fmt::Write as _;
    match value {
        FieldValue::Bool(v) => {
            let _ = write!(out, "{v}");
        }
        FieldValue::U64(v) => {
            let _ = write!(out, "{v}");
        }
        FieldValue::I64(v) => {
            let _ = write!(out, "{v}");
        }
        FieldValue::F64(v) => push_json_f64(out, *v),
        FieldValue::Str(v) => push_json_string(out, v),
    }
}

/// A timed scope for one pipeline phase.  Dropping it emits a `<name> done`
/// event carrying the elapsed microseconds as `elapsed_us`.
#[derive(Debug)]
#[must_use = "a span measures the scope it is bound to; dropping it immediately measures nothing"]
pub struct Span {
    level: Level,
    target: &'static str,
    name: &'static str,
    start: Instant,
    fields: Vec<(&'static str, FieldValue)>,
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

    /// Attaches a field to the completion event.
    pub fn field(mut self, key: &'static str, value: impl Into<FieldValue>) -> Self {
        self.fields.push((key, value.into()));
        self
    }

    /// Closes the span now (identical to dropping it; reads better at the
    /// end of a long scope).
    pub fn finish(self) {}
}

impl Drop for Span {
    fn drop(&mut self) {
        if enabled(self.level, self.target) {
            let micros = u64::try_from(self.start.elapsed().as_micros()).unwrap_or(u64::MAX);
            let mut fields = std::mem::take(&mut self.fields);
            fields.push(("elapsed_us", FieldValue::U64(micros)));
            emit(
                self.level,
                self.target,
                &format!("{} done", self.name),
                &fields,
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
        let filter = Filter::default();
        assert!(filter.enabled(Level::Info, "anything"));
        assert!(filter.enabled(Level::Error, "anything"));
        assert!(!filter.enabled(Level::Debug, "anything"));
    }

    #[test]
    fn directive_specs_scope_levels_by_target_prefix() {
        let filter = Filter::parse("warn,sweep.server=trace,fabric=debug").unwrap();
        assert!(filter.enabled(Level::Trace, "sweep.server"));
        assert!(filter.enabled(Level::Trace, "sweep.server.lease"));
        assert!(!filter.enabled(Level::Trace, "sweep.worker"));
        assert!(filter.enabled(Level::Debug, "fabric.provider"));
        assert!(!filter.enabled(Level::Info, "sweep.engine"));
        assert!(filter.enabled(Level::Warn, "sweep.engine"));
        assert_eq!(filter.most_verbose(), Some(Level::Trace));
    }

    #[test]
    fn prefix_matching_respects_dot_boundaries() {
        let filter = Filter::parse("off,sweep=debug").unwrap();
        assert!(filter.enabled(Level::Debug, "sweep"));
        assert!(filter.enabled(Level::Debug, "sweep.engine"));
        assert!(!filter.enabled(Level::Error, "sweeps"), "no dot boundary");
    }

    #[test]
    fn off_silences_and_most_specific_wins() {
        let filter = Filter::parse("debug,sweep=off").unwrap();
        assert!(!filter.enabled(Level::Error, "sweep.server"));
        assert!(filter.enabled(Level::Debug, "fabric"));
        let fully_off = Filter::off();
        assert!(!fully_off.enabled(Level::Error, "anything"));
        assert_eq!(fully_off.most_verbose(), None);
    }

    #[test]
    fn malformed_specs_are_errors() {
        assert!(Filter::parse("").is_err());
        assert!(Filter::parse("sweep=banana").is_err());
        assert!(Filter::parse(",,").is_err());
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

    #[test]
    fn field_values_convert_from_common_types() {
        assert_eq!(FieldValue::from(3_usize), FieldValue::U64(3));
        assert_eq!(FieldValue::from(-3_i32), FieldValue::I64(-3));
        assert_eq!(FieldValue::from(0.5_f64), FieldValue::F64(0.5));
        assert_eq!(FieldValue::from(true), FieldValue::Bool(true));
        assert_eq!(FieldValue::from("x"), FieldValue::Str("x".into()));
        assert_eq!(
            FieldValue::from(String::from("y")),
            FieldValue::Str("y".into())
        );
    }
}
