//! The process-wide metrics registry: named counters and fixed-bin
//! histograms, readable as one deterministic [`MetricsSnapshot`].
//!
//! Instruments are interned by name on first use and live for the rest of
//! the process (`Box::leak`, bounded by the fixed instrument vocabulary in
//! [`names`] plus one histogram per span phase), so recording on a handle is
//! a single atomic RMW — cheap enough to leave on unconditionally.  All of
//! it is out-of-band: nothing in the workspace reads a metric to make a
//! decision, so computation is byte-identical with the registry hot or cold.
//!
//! # Histogram shape
//!
//! [`Histogram`] reuses the shape of the router's `LatencyHistogram`: a
//! fixed array of bins plus exact `count`/`sum`/`max` integers.  Where the
//! latency histogram affords one exact bin per cycle value, a wall-time
//! histogram spans nanoseconds to minutes, so the fixed bins here are
//! power-of-two buckets of the recorded value (bin *i* holds values whose
//! highest set bit is *i − 1*; bin 0 holds zero).  Mean and totals stay
//! exact through `count`/`sum`; the bins answer "what order of magnitude"
//! distribution questions.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

use crate::log::{push_json_f64, push_json_string};

/// The workspace's named-instrument vocabulary, so call sites and readers
/// (e.g. `fabric-power cache stats`) agree on spellings.
pub mod names {
    /// Counter: energy models served from the in-memory memo or disk cache.
    pub const MODEL_CACHE_HIT: &str = "model_cache.hit";
    /// Counter: energy models built because no cache layer had them.
    pub const MODEL_CACHE_MISS: &str = "model_cache.miss";
    /// Counter: on-disk cache entries rejected by verification and rebuilt
    /// (the rebuild re-persists, healing the entry in place).
    pub const MODEL_CACHE_HEAL: &str = "model_cache.heal";
    /// Counter: sweep cells completed by this process's engine.
    pub const CELLS_COMPLETED: &str = "sweep.cells_completed";
    /// Counter: measured lane-cycles simulated by characterization.
    pub const CHARACTERIZE_LANE_CYCLES: &str = "characterize.lane_cycles";
    /// Histogram: characterization throughput per occupancy measurement, in
    /// lane-cycles per second.
    pub const CHARACTERIZE_LANE_CYCLES_PER_SEC: &str = "characterize.lane_cycles_per_sec";
    /// Counter: model-cache disk writes that failed (ENOSPC and kin); the
    /// provider falls back to its in-memory memo and the sweep continues.
    pub const MODEL_CACHE_WRITE_ERROR: &str = "model_cache.write_error";
    /// Counter: payload words forwarded over inter-router NoC links.
    pub const NOC_FLITS_ROUTED: &str = "noc.flits_routed";
    /// Counter: NoC link launches that stalled waiting for credits.
    pub const NOC_CREDIT_STALLS: &str = "noc.credits_stalled";
    /// Histogram: wall-clock nanoseconds per NoC global tick.
    pub const NOC_TICK_NANOS: &str = "noc.tick_nanos";
}

/// A monotonically increasing named count.
#[derive(Debug)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    const fn new() -> Self {
        Self {
            value: AtomicU64::new(0),
        }
    }

    /// Adds one.
    pub fn increment(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// The current count.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Power-of-two buckets: bin 0 counts zeros, bin `i ≥ 1` counts values in
/// `[2^(i-1), 2^i)`, and the last bin absorbs everything from `2^62` up.
pub const HISTOGRAM_BINS: usize = 64;

/// A fixed-bin streaming histogram (see the module docs for the bin layout).
#[derive(Debug)]
pub struct Histogram {
    bins: [AtomicU64; HISTOGRAM_BINS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Histogram {
    fn new() -> Self {
        Self {
            bins: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one sample.
    pub fn observe(&self, value: u64) {
        let bin = match value {
            0 => 0,
            v => usize::try_from(v.ilog2() + 1)
                .unwrap_or(HISTOGRAM_BINS - 1)
                .min(HISTOGRAM_BINS - 1),
        };
        self.bins[bin].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Total samples recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Exact sum of all recorded samples.
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Largest sample recorded (0 when empty).
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    fn snapshot(&self) -> HistogramSnapshot {
        let bins = self
            .bins
            .iter()
            .enumerate()
            .filter_map(|(index, bin)| {
                let count = bin.load(Ordering::Relaxed);
                (count > 0).then(|| (bin_upper_bound(index), count))
            })
            .collect();
        HistogramSnapshot {
            count: self.count(),
            sum: self.sum(),
            max: self.max(),
            bins,
        }
    }
}

/// The inclusive upper bound of bin `index` (`u64::MAX` for the last bin).
fn bin_upper_bound(index: usize) -> u64 {
    if index == 0 {
        0
    } else if index >= 63 {
        u64::MAX
    } else {
        (1_u64 << index) - 1
    }
}

/// A point-in-time copy of one [`Histogram`], sparse over non-empty bins.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Total samples recorded.
    pub count: u64,
    /// Exact sum of all recorded samples.
    pub sum: u64,
    /// Largest sample recorded.
    pub max: u64,
    /// `(inclusive upper bound, samples)` for every non-empty bin,
    /// ascending.
    pub bins: Vec<(u64, u64)>,
}

impl HistogramSnapshot {
    /// Mean sample value (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            #[allow(clippy::cast_precision_loss)]
            {
                self.sum as f64 / self.count as f64
            }
        }
    }
}

#[derive(Default)]
struct Registry {
    counters: BTreeMap<String, &'static Counter>,
    histograms: BTreeMap<String, &'static Histogram>,
}

fn registry() -> MutexGuard<'static, Registry> {
    static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
    REGISTRY
        .get_or_init(Mutex::default)
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The counter named `name`, created (at zero) on first use.
pub fn counter(name: &str) -> &'static Counter {
    if let Some(counter) = registry().counters.get(name) {
        return counter;
    }
    let leaked: &'static Counter = Box::leak(Box::new(Counter::new()));
    registry()
        .counters
        .entry(name.to_string())
        .or_insert(leaked)
}

/// The histogram named `name`, created (empty) on first use.
pub fn histogram(name: &str) -> &'static Histogram {
    if let Some(histogram) = registry().histograms.get(name) {
        return histogram;
    }
    let leaked: &'static Histogram = Box::leak(Box::new(Histogram::new()));
    registry()
        .histograms
        .entry(name.to_string())
        .or_insert(leaked)
}

/// A deterministic point-in-time copy of every registered instrument, in
/// name order.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Every registered counter's current count, by name.
    pub counters: BTreeMap<String, u64>,
    /// Every registered histogram's current contents, by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Whether no instrument has been registered at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.histograms.is_empty()
    }

    /// Renders the snapshot as one JSON object (hand-assembled: this crate
    /// deliberately has no dependencies, serde included).
    ///
    /// Shape:
    ///
    /// ```json
    /// {
    ///   "counters": {"model_cache.hit": 3},
    ///   "histograms": {
    ///     "phase.run_cell.micros": {
    ///       "count": 1, "sum": 180, "max": 180, "mean": 180.0,
    ///       "bins": [[255, 1]]
    ///     }
    ///   }
    /// }
    /// ```
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        for (index, (name, value)) in self.counters.iter().enumerate() {
            if index > 0 {
                out.push(',');
            }
            push_json_string(&mut out, name);
            out.push_str(&format!(":{value}"));
        }
        out.push_str("},\"histograms\":{");
        for (index, (name, histogram)) in self.histograms.iter().enumerate() {
            if index > 0 {
                out.push(',');
            }
            push_json_string(&mut out, name);
            out.push_str(&format!(
                ":{{\"count\":{},\"sum\":{},\"max\":{},\"mean\":",
                histogram.count, histogram.sum, histogram.max
            ));
            push_json_f64(&mut out, histogram.mean());
            out.push_str(",\"bins\":[");
            for (bin_index, (bound, count)) in histogram.bins.iter().enumerate() {
                if bin_index > 0 {
                    out.push(',');
                }
                out.push_str(&format!("[{bound},{count}]"));
            }
            out.push_str("]}");
        }
        out.push_str("}}");
        out
    }
}

impl std::fmt::Display for MetricsSnapshot {
    /// A compact human table: one `name value` line per instrument,
    /// histograms summarized as `count/mean/max`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (name, value) in &self.counters {
            writeln!(f, "counter    {name} = {value}")?;
        }
        for (name, histogram) in &self.histograms {
            writeln!(
                f,
                "histogram  {name} = count {} mean {:.1} max {}",
                histogram.count,
                histogram.mean(),
                histogram.max
            )?;
        }
        Ok(())
    }
}

/// Copies every registered instrument into a [`MetricsSnapshot`].
///
/// Instrument sets and orderings are deterministic (name-sorted); the values
/// are whatever the process has recorded so far.
#[must_use]
pub fn snapshot() -> MetricsSnapshot {
    let registry = registry();
    MetricsSnapshot {
        counters: registry
            .counters
            .iter()
            .map(|(name, counter)| (name.clone(), counter.get()))
            .collect(),
        histograms: registry
            .histograms
            .iter()
            .map(|(name, histogram)| (name.clone(), histogram.snapshot()))
            .collect(),
    }
}

/// Resets every registered instrument to zero (the instruments stay
/// registered).  For tests that need isolated counts in one process.
pub fn reset() {
    let registry = registry();
    for counter in registry.counters.values() {
        counter.value.store(0, Ordering::Relaxed);
    }
    for histogram in registry.histograms.values() {
        for bin in &histogram.bins {
            bin.store(0, Ordering::Relaxed);
        }
        histogram.count.store(0, Ordering::Relaxed);
        histogram.sum.store(0, Ordering::Relaxed);
        histogram.max.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_intern_by_name() {
        let a = counter("test.metrics.counter_a");
        a.increment();
        a.add(4);
        assert_eq!(counter("test.metrics.counter_a").get(), a.get());
        assert!(a.get() >= 5);
    }

    #[test]
    fn histogram_bins_are_powers_of_two() {
        let histogram = histogram("test.metrics.histogram_bins");
        for value in [0, 1, 2, 3, 900, u64::MAX] {
            histogram.observe(value);
        }
        let snapshot = histogram.snapshot();
        assert_eq!(snapshot.count, 6);
        assert_eq!(snapshot.max, u64::MAX);
        // 0 → bin 0; 1 → (0,1]; 2,3 → (1,3]; 900 → (511,1023]; MAX → last.
        let bounds: Vec<u64> = snapshot.bins.iter().map(|&(bound, _)| bound).collect();
        assert_eq!(bounds, vec![0, 1, 3, 1023, u64::MAX]);
        let counts: Vec<u64> = snapshot.bins.iter().map(|&(_, count)| count).collect();
        assert_eq!(counts, vec![1, 1, 2, 1, 1]);
    }

    #[test]
    fn snapshot_is_name_ordered_and_renders_as_json_and_text() {
        counter("test.metrics.z").increment();
        counter("test.metrics.a").increment();
        histogram("test.metrics.h").observe(180);
        let snapshot = snapshot();
        let names: Vec<&String> = snapshot.counters.keys().collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted, "BTreeMap keeps name order");
        let json = snapshot.to_json();
        assert!(json.starts_with("{\"counters\":{"));
        assert!(json.contains("\"test.metrics.h\":{\"count\":"));
        assert!(!json.contains('\n'));
        let text = snapshot.to_string();
        assert!(text.contains("counter    test.metrics.a"));
        assert!(text.contains("histogram  test.metrics.h"));
        assert!(!snapshot.is_empty());
    }

    #[test]
    fn histogram_mean_is_exact_over_integers() {
        let histogram = histogram("test.metrics.mean");
        histogram.observe(10);
        histogram.observe(30);
        let snapshot = histogram.snapshot();
        assert!((snapshot.mean() - 20.0).abs() < 1e-12);
        assert_eq!(snapshot.sum, 40);
    }
}
