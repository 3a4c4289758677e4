//! # fabric-power-obs
//!
//! Zero-dependency observability for the `fabric-power` workspace: structured
//! leveled events and timed phase spans, implemented on `std` alone (the
//! build container is offline, so no `tracing` and no `log` crates).
//!
//! Two pieces:
//!
//! * [`log`] — leveled, target-tagged events with key/value fields, rendered
//!   human-readably to stderr and optionally as one JSON object per line
//!   (JSONL) to a file (`fabric-power --log-json <path>`).  What gets emitted
//!   is controlled by a [`Filter`] parsed from the `FABRIC_POWER_LOG`
//!   environment variable (same `target=level` directive shape as
//!   `env_logger`/`RUST_LOG`);
//! * [`span`](log::Span) — a timed scope for pipeline phases
//!   (`characterize`, `build_model`, `run_cell`, …): on drop it
//!   emits a `<name> done` event whose `elapsed_us` field is the phase's
//!   wall time.
//!
//! Counts live with the code that owns them (`ProviderStats`, the sweep
//! documents, the simulator reports), and `perfbench --trace 1` gives the
//! per-layer time split, so this crate keeps no counters of its own.
//!
//! # Out-of-band by construction
//!
//! Nothing in this crate feeds back into computation: events are write-only
//! side channels, and no instrumented code path reads a clock or a log level
//! to make a decision.  The sweep pipeline's emitted documents are therefore
//! byte-identical with observability on or off — a determinism guard test in
//! the workspace pins exactly that.
//!
//! # Examples
//!
//! ```
//! use fabric_power_obs as obs;
//!
//! // Events: level + target + message + fields.
//! obs::info!("doc.example", "shard written", shard = 0_usize, cells = 8_usize);
//!
//! // Spans: time a phase; the drop emits `merge done` with `elapsed_us`.
//! {
//!     let _span = obs::log::span("doc.example", "merge").field("parts", 4_usize);
//!     // ... do the work ...
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod log;

pub use log::{FieldValue, Filter, Level, Span};

/// Emits one structured event at an explicit [`Level`].
///
/// ```
/// use fabric_power_obs as obs;
/// obs::event!(obs::Level::Info, "doc.event", "it happened", attempts = 3_u64);
/// ```
#[macro_export]
macro_rules! event {
    ($level:expr, $target:expr, $message:expr $(, $key:ident = $value:expr)* $(,)?) => {{
        let level = $level;
        let target = $target;
        if $crate::log::enabled(level, target) {
            $crate::log::emit(
                level,
                target,
                ::std::convert::AsRef::<str>::as_ref(&$message),
                &[$((stringify!($key), $crate::FieldValue::from($value)),)*],
            );
        }
    }};
}

/// Emits a [`Level::Trace`] event: `obs::trace!(target, message, key = value, ...)`.
#[macro_export]
macro_rules! trace {
    ($($rest:tt)*) => { $crate::event!($crate::Level::Trace, $($rest)*) };
}

/// Emits a [`Level::Debug`] event: `obs::debug!(target, message, key = value, ...)`.
#[macro_export]
macro_rules! debug {
    ($($rest:tt)*) => { $crate::event!($crate::Level::Debug, $($rest)*) };
}

/// Emits a [`Level::Info`] event: `obs::info!(target, message, key = value, ...)`.
#[macro_export]
macro_rules! info {
    ($($rest:tt)*) => { $crate::event!($crate::Level::Info, $($rest)*) };
}

/// Emits a [`Level::Warn`] event: `obs::warn!(target, message, key = value, ...)`.
#[macro_export]
macro_rules! warn {
    ($($rest:tt)*) => { $crate::event!($crate::Level::Warn, $($rest)*) };
}

/// Emits a [`Level::Error`] event: `obs::error!(target, message, key = value, ...)`.
#[macro_export]
macro_rules! error {
    ($($rest:tt)*) => { $crate::event!($crate::Level::Error, $($rest)*) };
}
