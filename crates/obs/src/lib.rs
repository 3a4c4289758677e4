//! # fabric-power-obs
//!
//! Timed phase spans for the `fabric-power` workspace, implemented on `std`
//! alone (no `tracing` and no `log` crate).
//!
//! A [`log::Span`] times one pipeline phase (`characterize`, `build_model`,
//! `run_cell`): on drop it reports a `<name> done` event with its integer
//! fields and an `elapsed_us` field, the phase's wall time.  The event goes
//! to stderr and, optionally, as one JSON object per line (JSONL) to a file
//! (`fabric-power --log-json <path>`).  One level [`Filter`], set by
//! `fabric-power --log` or read from the `FABRIC_POWER_LOG` environment
//! variable, decides which spans are reported; see [`log`].
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
//! // Time a phase; the drop reports `merge done` with `parts` and
//! // `elapsed_us` when the filter admits debug.
//! {
//!     let _span = obs::log::span("doc.example", "merge").field("parts", 4);
//!     // ... do the work ...
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod log;

pub use log::{Filter, Level};
