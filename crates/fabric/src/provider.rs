//! The model-provider layer: every energy-model acquisition in the workspace
//! goes through a [`ModelProvider`].
//!
//! With `ModelSource::Derived` the gate-level characterization of the full
//! switch set is the single largest fixed cost of a sweep, and it used to be
//! repeated per fabric size, per process.  The provider restructures that
//! acquisition into three layers:
//!
//! 1. a **specification** ([`ModelSpec`]) — the complete, serializable
//!    description of one model build: `(ports, bus width, technology,
//!    characterization config, model source)`;
//! 2. an **in-memory memo**: one immutable [`Arc<FabricEnergyModel>`] per
//!    spec, shared across sweeps, simulators and worker threads of a process;
//! 3. an optional **content-addressed on-disk store**: each model is
//!    persisted under a stable hash of its spec's canonical JSON form, with
//!    atomic write-then-rename persistence and corruption-tolerant reads — a
//!    bad cache file falls back to re-derivation, never an error.
//!
//! A warmed cache makes derived-model sweeps start in milliseconds instead of
//! re-characterizing, and N sharded worker processes can share one cache
//! directory instead of each redoing identical characterization.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use fabric_power_obs as obs;
use serde::{Deserialize, Serialize};

use fabric_power_netlist::characterize::CharacterizationConfig;
use fabric_power_netlist::library::CellLibrary;
use fabric_power_tech::Technology;

use crate::energy_model::{EnergyModelError, FabricEnergyModel};

/// The obs target provider events are tagged with.
const TARGET: &str = "fabric.provider";

/// Version tag baked into cache keys and cache files.  Bump it whenever the
/// canonical serialized form of [`FabricEnergyModel`] or [`ModelSpec`]
/// changes incompatibly: old entries then simply miss instead of misparsing.
/// Adding or removing a spec field (such as a [`CharacterizationConfig`]
/// knob) needs no bump: the canonical JSON changes, so every affected key
/// changes with it, old entries miss and the store heals by re-deriving.
pub const CACHE_FORMAT_VERSION: u32 = 1;

/// Which construction recipe a [`ModelSpec`] describes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ModelKind {
    /// The paper's published Table 1 / Table 2 / 87 fJ values
    /// ([`FabricEnergyModel::paper`]).
    Paper,
    /// Everything re-derived from the substrate models
    /// ([`FabricEnergyModel::derived`]): gate-level characterization of the
    /// switch set, structural SRAM model, wire model.
    Derived {
        /// Process technology the components are derived for.
        technology: Technology,
        /// Cell library driving the gate-level characterization.
        library: CellLibrary,
        /// Characterization run parameters (cycles, seed).
        characterization: CharacterizationConfig,
    },
}

/// The complete, serializable description of one energy-model build.
///
/// Everything [`ModelSpec::build`] consumes is inside the spec, so two specs
/// that compare equal always build identical models — which is what makes
/// the spec's canonical JSON a sound content address for the on-disk cache.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelSpec {
    /// Fabric port count the model is built for.
    pub ports: usize,
    /// Payload bus width in bits (fixed by the technology; kept explicit
    /// because it is part of the published cache-key tuple).
    pub bus_width_bits: u32,
    /// The construction recipe.
    pub kind: ModelKind,
}

impl ModelSpec {
    /// The spec of a paper-reference model for one fabric size.
    #[must_use]
    pub fn paper(ports: usize) -> Self {
        Self {
            ports,
            bus_width_bits: Technology::tsmc180().bus_width_bits(),
            kind: ModelKind::Paper,
        }
    }

    /// The spec of a fully derived model for one fabric size.
    #[must_use]
    pub fn derived(
        ports: usize,
        technology: Technology,
        library: CellLibrary,
        characterization: CharacterizationConfig,
    ) -> Self {
        Self {
            ports,
            bus_width_bits: technology.bus_width_bits(),
            kind: ModelKind::Derived {
                technology,
                library,
                characterization,
            },
        }
    }

    /// Whether building this spec runs gate-level characterization.
    #[must_use]
    pub fn is_derived(&self) -> bool {
        matches!(self.kind, ModelKind::Derived { .. })
    }

    /// A short human-readable label for the recipe (`paper` / `derived`).
    #[must_use]
    pub fn kind_label(&self) -> &'static str {
        match self.kind {
            ModelKind::Paper => "paper",
            ModelKind::Derived { .. } => "derived",
        }
    }

    /// The stable content address of this spec: a 128-bit FNV-1a hash of its
    /// canonical JSON form (prefixed with [`CACHE_FORMAT_VERSION`]), rendered
    /// as 32 lowercase hex digits.
    ///
    /// The hash input is byte-deterministic — the serializer keeps field
    /// order and floats render with shortest-round-trip formatting — so the
    /// key is stable across runs, processes and machines.
    #[must_use]
    pub fn cache_key(&self) -> String {
        let json = serde_json::to_string(self)
            .expect("a ModelSpec always serializes: no maps, no non-finite floats");
        stable_hash_hex(
            format!("fabric-power model-spec v{CACHE_FORMAT_VERSION}:{json}").as_bytes(),
        )
    }

    /// Builds the model this spec describes.
    ///
    /// # Errors
    ///
    /// Propagates [`EnergyModelError`] (invalid port count, characterization
    /// or memory-model failures).
    pub fn build(&self) -> Result<FabricEnergyModel, EnergyModelError> {
        match &self.kind {
            ModelKind::Paper => FabricEnergyModel::paper(self.ports),
            ModelKind::Derived {
                technology,
                library,
                characterization,
            } => FabricEnergyModel::derived(self.ports, technology, library, characterization),
        }
    }
}

/// 128-bit stable hash as 32 hex chars: two independent 64-bit FNV-1a passes
/// (forward, and reversed with a different offset basis).  Not cryptographic
/// — it only needs to address a small closed key space without collisions.
///
/// Public because other layers content-address their own artifacts with the
/// same function (e.g. `SweepPlan::content_hash` in the sweep crate); give
/// each use its own domain-separation prefix.
#[must_use]
pub fn stable_hash_hex(bytes: &[u8]) -> String {
    const PRIME: u64 = 0x0000_0100_0000_01B3;
    let mut forward = 0xcbf2_9ce4_8422_2325_u64;
    for &byte in bytes {
        forward ^= u64::from(byte);
        forward = forward.wrapping_mul(PRIME);
    }
    let mut backward = 0x6c62_272e_07bb_0142_u64;
    for &byte in bytes.iter().rev() {
        backward ^= u64::from(byte);
        backward = backward.wrapping_mul(PRIME);
    }
    format!("{forward:016x}{backward:016x}")
}

/// One persisted cache file: the spec that produced the model rides along so
/// reads can verify the content address end-to-end (hash collisions and
/// stale-format files are rejected the same way as corrupt ones).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct CacheEntry {
    format_version: u32,
    key: String,
    spec: ModelSpec,
    model: FabricEnergyModel,
}

/// A snapshot of a provider's counters (see [`ModelProvider::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ProviderStats {
    /// Requests served from the in-memory memo.
    pub memory_hits: u64,
    /// Requests served by parsing a valid on-disk entry.
    pub disk_hits: u64,
    /// Requests that built the model from scratch.
    pub builds: u64,
    /// Subset of `builds` that ran gate-level characterization
    /// (`ModelKind::Derived`).
    pub characterizations: u64,
    /// On-disk entries rejected as corrupt, truncated or mismatched (each
    /// one fell back to a build).
    pub disk_rejections: u64,
    /// Failed persistence attempts (non-fatal: the model is still returned).
    pub disk_write_errors: u64,
}

impl ProviderStats {
    /// Total requests the provider has served.
    #[must_use]
    pub fn requests(&self) -> u64 {
        self.memory_hits + self.disk_hits + self.builds
    }

    /// Requests served without building (memory or disk).
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.memory_hits + self.disk_hits
    }
}

impl std::fmt::Display for ProviderStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} hit(s) ({} memory, {} disk), {} build(s) ({} characterized), \
             {} rejected, {} write error(s)",
            self.hits(),
            self.memory_hits,
            self.disk_hits,
            self.builds,
            self.characterizations,
            self.disk_rejections,
            self.disk_write_errors,
        )
    }
}

#[derive(Debug, Default)]
struct Counters {
    memory_hits: AtomicU64,
    disk_hits: AtomicU64,
    builds: AtomicU64,
    characterizations: AtomicU64,
    disk_rejections: AtomicU64,
    disk_write_errors: AtomicU64,
}

/// What [`ModelProvider::disk_entries`] reports about one cache file.
#[derive(Debug, Clone)]
pub struct DiskEntryInfo {
    /// Path of the cache file.
    pub path: PathBuf,
    /// File size in bytes.
    pub bytes: u64,
    /// The spec the entry was built from, or `None` when the file is corrupt
    /// or from an incompatible format version.
    pub spec: Option<ModelSpec>,
}

/// What [`ModelProvider::prune_disk`] did (see `fabric-power cache prune`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PruneReport {
    /// Entries deleted.
    pub removed: usize,
    /// Bytes those entries occupied.
    pub removed_bytes: u64,
    /// Entries still in the store afterwards.
    pub kept: usize,
    /// Bytes the store occupies afterwards.
    pub kept_bytes: u64,
}

impl std::fmt::Display for PruneReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "removed {} entry(ies) ({} bytes), kept {} ({} bytes)",
            self.removed, self.removed_bytes, self.kept, self.kept_bytes
        )
    }
}

/// Owns all energy-model acquisition: an in-memory memo over immutable
/// [`Arc`]-shared models, optionally backed by a content-addressed on-disk
/// store.
///
/// # Examples
///
/// ```
/// use fabric_power_fabric::provider::{ModelProvider, ModelSpec};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let provider = ModelProvider::in_memory();
/// let first = provider.get(&ModelSpec::paper(8))?;
/// let second = provider.get(&ModelSpec::paper(8))?;
/// assert!(std::sync::Arc::ptr_eq(&first, &second));
/// assert_eq!(provider.stats().memory_hits, 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ModelProvider {
    disk_dir: Option<PathBuf>,
    memory: Mutex<HashMap<String, Arc<FabricEnergyModel>>>,
    counters: Counters,
}

impl Default for ModelProvider {
    fn default() -> Self {
        Self::in_memory()
    }
}

impl ModelProvider {
    /// A provider with only the in-memory memo (no persistence).
    #[must_use]
    pub fn in_memory() -> Self {
        Self {
            disk_dir: None,
            memory: Mutex::new(HashMap::new()),
            counters: Counters::default(),
        }
    }

    /// A provider backed by a content-addressed store in `dir` (created if
    /// missing).
    ///
    /// # Errors
    ///
    /// Propagates the error if the directory cannot be created.
    pub fn with_disk_cache(dir: impl Into<PathBuf>) -> std::io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(Self {
            disk_dir: Some(dir),
            memory: Mutex::new(HashMap::new()),
            counters: Counters::default(),
        })
    }

    /// The process-wide shared provider (in-memory only): the default model
    /// source for sweep engines and the bench binaries, so every sweep in a
    /// process reuses the same characterized models.
    #[must_use]
    pub fn shared() -> Arc<Self> {
        static SHARED: OnceLock<Arc<ModelProvider>> = OnceLock::new();
        Arc::clone(SHARED.get_or_init(|| Arc::new(Self::in_memory())))
    }

    /// Resolves the provider a CLI entry point should use from its optional
    /// `--model-cache <DIR>` argument: disk-backed over `dir` when given,
    /// otherwise the process-wide shared in-memory provider.  The error is a
    /// ready-to-print message, shared by every binary so the wording cannot
    /// drift between them.
    ///
    /// # Errors
    ///
    /// Returns a message when the cache directory cannot be created.
    pub fn from_cache_dir_arg(dir: Option<&str>) -> Result<Arc<Self>, String> {
        match dir {
            Some(dir) => Self::with_disk_cache(dir)
                .map(Arc::new)
                .map_err(|e| format!("opening model cache {dir}: {e}")),
            None => Ok(Self::shared()),
        }
    }

    /// The on-disk store directory, when persistence is enabled.
    #[must_use]
    pub fn cache_dir(&self) -> Option<&Path> {
        self.disk_dir.as_deref()
    }

    /// Returns the model for `spec`, from the cheapest available layer:
    /// in-memory memo, then the on-disk store, then a fresh build (persisted
    /// afterwards when a store is configured).
    ///
    /// Corrupt, truncated or mismatched cache files are never an error: they
    /// count as [`ProviderStats::disk_rejections`] and fall back to
    /// re-derivation, and the rebuilt entry atomically replaces the bad file.
    ///
    /// # Errors
    ///
    /// Propagates [`EnergyModelError`] from the underlying build only
    /// (invalid port count, characterization or memory-model failures).
    pub fn get(&self, spec: &ModelSpec) -> Result<Arc<FabricEnergyModel>, EnergyModelError> {
        let key = spec.cache_key();
        if let Some(model) = self
            .memory
            .lock()
            .expect("provider memo poisoned")
            .get(&key)
        {
            self.counters.memory_hits.fetch_add(1, Ordering::Relaxed);
            obs::metrics::counter(obs::metrics::names::MODEL_CACHE_HIT).increment();
            return Ok(Arc::clone(model));
        }

        if let Some(model) = self.read_disk(spec, &key) {
            self.counters.disk_hits.fetch_add(1, Ordering::Relaxed);
            obs::metrics::counter(obs::metrics::names::MODEL_CACHE_HIT).increment();
            obs::debug!(
                TARGET,
                "disk cache hit",
                ports = spec.ports,
                key = key.as_str()
            );
            return Ok(self.memoize(key, model));
        }

        obs::metrics::counter(obs::metrics::names::MODEL_CACHE_MISS).increment();
        // Gate-level characterization dominates a derived build; the span
        // makes the phase visible in trace output and the phase histogram.
        let span = spec
            .is_derived()
            .then(|| obs::log::span(TARGET, "characterize").field("ports", spec.ports));
        let model = spec.build()?;
        if let Some(span) = span {
            span.finish();
        }
        self.counters.builds.fetch_add(1, Ordering::Relaxed);
        if spec.is_derived() {
            self.counters
                .characterizations
                .fetch_add(1, Ordering::Relaxed);
        }
        self.write_disk(spec, &key, &model);
        Ok(self.memoize(key, model))
    }

    /// A snapshot of the provider's counters.
    #[must_use]
    pub fn stats(&self) -> ProviderStats {
        ProviderStats {
            memory_hits: self.counters.memory_hits.load(Ordering::Relaxed),
            disk_hits: self.counters.disk_hits.load(Ordering::Relaxed),
            builds: self.counters.builds.load(Ordering::Relaxed),
            characterizations: self.counters.characterizations.load(Ordering::Relaxed),
            disk_rejections: self.counters.disk_rejections.load(Ordering::Relaxed),
            disk_write_errors: self.counters.disk_write_errors.load(Ordering::Relaxed),
        }
    }

    /// Lists the store's cache files (valid and corrupt), in file-name order.
    ///
    /// # Errors
    ///
    /// Propagates directory-read errors; returns an empty list when no store
    /// is configured.
    pub fn disk_entries(&self) -> std::io::Result<Vec<DiskEntryInfo>> {
        let Some(dir) = &self.disk_dir else {
            return Ok(Vec::new());
        };
        let mut entries = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            let entry = entry?;
            let path = entry.path();
            if !Self::is_cache_file(&path) {
                continue;
            }
            let bytes = entry.metadata().map(|m| m.len()).unwrap_or(0);
            let spec = std::fs::read_to_string(&path)
                .ok()
                .and_then(|json| serde_json::from_str::<CacheEntry>(&json).ok())
                .filter(|e| e.format_version == CACHE_FORMAT_VERSION)
                .map(|e| e.spec);
            entries.push(DiskEntryInfo { path, bytes, spec });
        }
        entries.sort_by(|a, b| a.path.cmp(&b.path));
        Ok(entries)
    }

    /// Deletes every cache file in the store and returns how many were
    /// removed.  Only content-addressed files (32-hex-digit names with a
    /// `.json` extension) are touched, so a store pointed at a shared
    /// directory never eats foreign files.
    ///
    /// # Errors
    ///
    /// Propagates directory-read and file-removal errors; returns 0 when no
    /// store is configured.
    pub fn clear_disk(&self) -> std::io::Result<usize> {
        let mut removed = 0;
        for entry in self.disk_entries()? {
            std::fs::remove_file(&entry.path)?;
            removed += 1;
        }
        self.remove_stale_tmp_files(std::time::SystemTime::now())?;
        Ok(removed)
    }

    /// Evicts cache entries by age and/or total size — the policy behind
    /// `fabric-power cache prune` (where `cache clear` is all-or-nothing).
    ///
    /// Entries whose modification time is older than `max_age` are removed
    /// first; if the surviving entries still exceed `max_bytes`, the oldest
    /// are evicted (ties broken by path, deterministically) until the store
    /// fits.  Corrupt entries get no special treatment: they age out and
    /// count toward the size cap like any other file.  Passing `None` for a
    /// limit disables that criterion; passing `None` for both is a no-op.
    ///
    /// # Errors
    ///
    /// Propagates directory-read and file-removal errors; an empty report is
    /// returned when no store is configured.
    pub fn prune_disk(
        &self,
        max_age: Option<std::time::Duration>,
        max_bytes: Option<u64>,
    ) -> std::io::Result<PruneReport> {
        let Some(dir) = &self.disk_dir else {
            return Ok(PruneReport::default());
        };
        let now = std::time::SystemTime::now();
        let mut report = PruneReport {
            removed_bytes: self.remove_stale_tmp_files(now)?,
            ..PruneReport::default()
        };
        // One metadata call per file — unlike `disk_entries`, pruning never
        // needs to read or parse entry contents, only stat them.
        let mut entries: Vec<(std::time::SystemTime, PathBuf, u64)> = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            let entry = entry?;
            let path = entry.path();
            if !Self::is_cache_file(&path) {
                continue;
            }
            let metadata = entry.metadata()?;
            let modified = metadata.modified().unwrap_or(std::time::UNIX_EPOCH);
            entries.push((modified, path, metadata.len()));
        }
        // Oldest first, ties broken by path, deterministically.
        entries.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.cmp(&b.1)));

        let mut survivors: Vec<(PathBuf, u64)> = Vec::new();
        for (modified, path, bytes) in entries {
            let expired = max_age.is_some_and(|limit| {
                now.duration_since(modified)
                    .map(|age| age > limit)
                    .unwrap_or(false)
            });
            if expired {
                std::fs::remove_file(&path)?;
                report.removed += 1;
                report.removed_bytes += bytes;
            } else {
                survivors.push((path, bytes));
            }
        }

        if let Some(limit) = max_bytes {
            let mut total: u64 = survivors.iter().map(|(_, bytes)| bytes).sum();
            for (path, bytes) in survivors {
                if total <= limit {
                    report.kept += 1;
                    report.kept_bytes += bytes;
                    continue;
                }
                std::fs::remove_file(&path)?;
                report.removed += 1;
                report.removed_bytes += bytes;
                total -= bytes;
            }
        } else {
            report.kept = survivors.len();
            report.kept_bytes = survivors.iter().map(|(_, bytes)| bytes).sum();
        }
        Ok(report)
    }

    fn memoize(&self, key: String, model: FabricEnergyModel) -> Arc<FabricEnergyModel> {
        let mut memo = self.memory.lock().expect("provider memo poisoned");
        // Two threads may race to build the same spec; keep the first insert
        // so every caller shares one allocation.
        Arc::clone(memo.entry(key).or_insert_with(|| Arc::new(model)))
    }

    fn entry_path(&self, key: &str) -> Option<PathBuf> {
        self.disk_dir
            .as_ref()
            .map(|dir| dir.join(format!("{key}.json")))
    }

    fn is_cache_file(path: &Path) -> bool {
        let Some(stem) = path.file_stem().and_then(|s| s.to_str()) else {
            return false;
        };
        path.extension().and_then(|e| e.to_str()) == Some("json")
            && stem.len() == 32
            && stem.bytes().all(|b| b.is_ascii_hexdigit())
    }

    /// Whether `path` is a write-temp file of this store
    /// (`{32-hex-key}.tmp.{pid}.{nonce}` — see [`ModelProvider::write_disk`]).
    /// A tmp file normally lives for milliseconds between write and rename;
    /// one that persists was orphaned by a killed process or a failed rename.
    fn is_tmp_file(path: &Path) -> bool {
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            return false;
        };
        let Some((key, rest)) = name.split_once('.') else {
            return false;
        };
        key.len() == 32 && key.bytes().all(|b| b.is_ascii_hexdigit()) && rest.starts_with("tmp.")
    }

    /// Counts the store's write-temp files (`{key}.tmp.{pid}.{nonce}`) and
    /// the bytes they occupy, whatever their age.  `cache stats` reports
    /// this: these files are not content-addressed entries, so
    /// [`ModelProvider::disk_entries`] never sees them, yet each one holds a
    /// full-model-sized payload — a store that keeps accumulating them has a
    /// writer being killed mid-persist.
    ///
    /// # Errors
    ///
    /// Propagates directory-read errors; `(0, 0)` when no store is
    /// configured.
    pub fn orphaned_tmp_files(&self) -> std::io::Result<(usize, u64)> {
        let Some(dir) = &self.disk_dir else {
            return Ok((0, 0));
        };
        let mut count = 0;
        let mut bytes = 0;
        for entry in std::fs::read_dir(dir)? {
            let entry = entry?;
            if Self::is_tmp_file(&entry.path()) {
                count += 1;
                bytes += entry.metadata().map(|m| m.len()).unwrap_or(0);
            }
        }
        Ok((count, bytes))
    }

    /// Deletes orphaned write-temp files older than one minute (young ones
    /// may belong to a live writer racing us).  Shared by `clear` and
    /// `prune`, which would otherwise never see these files: they are not
    /// content-addressed entries, so `disk_entries` ignores them, yet they
    /// hold full-model-sized payloads.
    fn remove_stale_tmp_files(&self, now: std::time::SystemTime) -> std::io::Result<u64> {
        let Some(dir) = &self.disk_dir else {
            return Ok(0);
        };
        let mut removed_bytes = 0;
        for entry in std::fs::read_dir(dir)? {
            let entry = entry?;
            let path = entry.path();
            if !Self::is_tmp_file(&path) {
                continue;
            }
            let metadata = entry.metadata()?;
            let age = now
                .duration_since(metadata.modified().unwrap_or(std::time::UNIX_EPOCH))
                .unwrap_or_default();
            if age > std::time::Duration::from_secs(60) {
                std::fs::remove_file(&path)?;
                removed_bytes += metadata.len();
            }
        }
        Ok(removed_bytes)
    }

    /// Reads and validates the on-disk entry for `key`, or `None` (counting
    /// a rejection when a file existed but could not be trusted).
    fn read_disk(&self, spec: &ModelSpec, key: &str) -> Option<FabricEnergyModel> {
        let path = self.entry_path(key)?;
        let json = std::fs::read_to_string(&path).ok()?;
        match serde_json::from_str::<CacheEntry>(&json) {
            Ok(entry)
                if entry.format_version == CACHE_FORMAT_VERSION
                    && entry.key == key
                    && &entry.spec == spec
                    && entry.model.ports() == spec.ports =>
            {
                Some(entry.model)
            }
            _ => {
                self.counters
                    .disk_rejections
                    .fetch_add(1, Ordering::Relaxed);
                // The rebuild that follows re-persists a good entry over the
                // bad one — the store heals itself.
                obs::metrics::counter(obs::metrics::names::MODEL_CACHE_HEAL).increment();
                obs::warn!(
                    TARGET,
                    "rejected untrusted cache entry, rebuilding",
                    key = key,
                );
                None
            }
        }
    }

    /// Persists a freshly built model with write-then-rename (readers in
    /// other processes never observe a half-written entry).  Failures are
    /// counted, not raised: the cache is an accelerator, not a dependency.
    fn write_disk(&self, spec: &ModelSpec, key: &str, model: &FabricEnergyModel) {
        let Some(path) = self.entry_path(key) else {
            return;
        };
        let entry = CacheEntry {
            format_version: CACHE_FORMAT_VERSION,
            key: key.to_owned(),
            spec: spec.clone(),
            model: model.clone(),
        };
        // The temp name must be unique per *call*, not just per process: two
        // threads of one process can race to persist the same spec, and a
        // shared name would let one truncate the file mid-rename of the
        // other, publishing a half-written entry.
        static TMP_NONCE: AtomicU64 = AtomicU64::new(0);
        let nonce = TMP_NONCE.fetch_add(1, Ordering::Relaxed);
        let result = serde_json::to_string(&entry)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))
            .and_then(|json| {
                let json: &[u8] = match obs::faults::next_disk_fault() {
                    // Fail the persist outright (an injected ENOSPC); the
                    // graceful-degradation path below absorbs it.
                    Some(obs::faults::DiskFault::Fail) => {
                        return Err(std::io::Error::new(
                            std::io::ErrorKind::StorageFull,
                            "fault injection: cache write failed",
                        ));
                    }
                    // Publish a torn entry: rename goes through, but the
                    // payload is half a JSON document.  read_disk's
                    // validation rejects and heals it — this fault proves
                    // that path, so the *write* still reports success.
                    Some(obs::faults::DiskFault::Torn) => &json.as_bytes()[..json.len() / 2],
                    None => json.as_bytes(),
                };
                let tmp = path.with_extension(format!("tmp.{}.{nonce}", std::process::id()));
                std::fs::write(&tmp, json)?;
                std::fs::rename(&tmp, &path)
            });
        if let Err(error) = result {
            // Graceful degradation, not an abort: the in-memory memo still
            // holds the model, so the sweep proceeds — the next process
            // just rebuilds instead of reading the cache.
            self.counters
                .disk_write_errors
                .fetch_add(1, Ordering::Relaxed);
            obs::metrics::counter(obs::metrics::names::MODEL_CACHE_WRITE_ERROR).increment();
            obs::warn!(
                TARGET,
                "model cache write failed, continuing with in-memory model",
                key = key,
                error = error.to_string(),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_store(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "fabric-power-provider-test-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn quick_derived_spec(ports: usize) -> ModelSpec {
        ModelSpec::derived(
            ports,
            Technology::tsmc180(),
            CellLibrary::calibrated_018um(),
            CharacterizationConfig::quick(),
        )
    }

    #[test]
    fn cache_keys_are_stable_and_discriminating() {
        let paper8 = ModelSpec::paper(8);
        assert_eq!(paper8.cache_key(), ModelSpec::paper(8).cache_key());
        assert_eq!(paper8.cache_key().len(), 32);
        assert_ne!(paper8.cache_key(), ModelSpec::paper(16).cache_key());
        assert_ne!(paper8.cache_key(), quick_derived_spec(8).cache_key());
        // The characterization config is part of the address.
        let slow = ModelSpec::derived(
            8,
            Technology::tsmc180(),
            CellLibrary::calibrated_018um(),
            CharacterizationConfig::default(),
        );
        assert_ne!(quick_derived_spec(8).cache_key(), slow.cache_key());
        // So is the technology (and with it the bus width).
        let other_tech = ModelSpec::derived(
            8,
            Technology::generic130(),
            CellLibrary::calibrated_018um(),
            CharacterizationConfig::quick(),
        );
        assert_ne!(quick_derived_spec(8).cache_key(), other_tech.cache_key());
    }

    #[test]
    fn spec_builds_match_the_stock_constructors() {
        assert_eq!(
            ModelSpec::paper(8).build().unwrap(),
            FabricEnergyModel::paper(8).unwrap()
        );
        assert_eq!(
            quick_derived_spec(4).build().unwrap(),
            FabricEnergyModel::derived(
                4,
                &Technology::tsmc180(),
                &CellLibrary::calibrated_018um(),
                &CharacterizationConfig::quick(),
            )
            .unwrap()
        );
    }

    #[test]
    fn memory_layer_shares_one_arc_per_spec() {
        let provider = ModelProvider::in_memory();
        let a = provider.get(&ModelSpec::paper(4)).unwrap();
        let b = provider.get(&ModelSpec::paper(4)).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        let stats = provider.stats();
        assert_eq!(stats.builds, 1);
        assert_eq!(stats.memory_hits, 1);
        assert_eq!(stats.characterizations, 0);
        assert_eq!(stats.requests(), 2);
    }

    #[test]
    fn build_errors_propagate_and_are_not_cached() {
        let provider = ModelProvider::in_memory();
        assert!(provider.get(&ModelSpec::paper(7)).is_err());
        assert!(provider.get(&ModelSpec::paper(7)).is_err());
        assert_eq!(provider.stats().requests(), 0);
    }

    #[test]
    fn disk_store_round_trips_across_provider_instances() {
        let dir = temp_store("roundtrip");
        let spec = quick_derived_spec(4);

        let cold = ModelProvider::with_disk_cache(&dir).unwrap();
        let built = cold.get(&spec).unwrap();
        assert_eq!(cold.stats().builds, 1);
        assert_eq!(cold.stats().characterizations, 1);

        // A fresh provider (fresh process, conceptually) hits the disk.
        let warm = ModelProvider::with_disk_cache(&dir).unwrap();
        let loaded = warm.get(&spec).unwrap();
        assert_eq!(*built, *loaded);
        let stats = warm.stats();
        assert_eq!(stats.disk_hits, 1);
        assert_eq!(stats.builds, 0);
        assert_eq!(stats.characterizations, 0);

        let entries = warm.disk_entries().unwrap();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].spec.as_ref(), Some(&spec));
        assert!(entries[0].bytes > 0);

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_and_truncated_entries_fall_back_to_rederivation() {
        let dir = temp_store("corrupt");
        let spec = ModelSpec::paper(8);
        let key = spec.cache_key();

        let provider = ModelProvider::with_disk_cache(&dir).unwrap();
        let original = provider.get(&spec).unwrap();
        let path = dir.join(format!("{key}.json"));
        assert!(path.exists());

        for garbage in ["", "{\"format_version\":", "not json at all"] {
            std::fs::write(&path, garbage).unwrap();
            let fresh = ModelProvider::with_disk_cache(&dir).unwrap();
            let model = fresh.get(&spec).unwrap();
            assert_eq!(*model, *original, "fallback must rebuild the same model");
            let stats = fresh.stats();
            assert_eq!(stats.disk_rejections, 1, "garbage {garbage:?}");
            assert_eq!(stats.builds, 1);
            // The rebuild healed the entry in place.
            let healed = ModelProvider::with_disk_cache(&dir).unwrap();
            healed.get(&spec).unwrap();
            assert_eq!(healed.stats().disk_hits, 1, "garbage {garbage:?}");
        }

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mismatched_spec_under_the_right_key_is_rejected() {
        let dir = temp_store("mismatch");
        let provider = ModelProvider::with_disk_cache(&dir).unwrap();
        let spec8 = ModelSpec::paper(8);
        provider.get(&spec8).unwrap();

        // Plant the 8-port entry under the 16-port key: a simulated hash
        // collision / renamed file.  The read must reject it.
        let spec16 = ModelSpec::paper(16);
        let entry =
            std::fs::read_to_string(dir.join(format!("{}.json", spec8.cache_key()))).unwrap();
        std::fs::write(dir.join(format!("{}.json", spec16.cache_key())), entry).unwrap();

        let fresh = ModelProvider::with_disk_cache(&dir).unwrap();
        let model = fresh.get(&spec16).unwrap();
        assert_eq!(model.ports(), 16);
        assert_eq!(fresh.stats().disk_rejections, 1);

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn clear_disk_removes_only_content_addressed_files() {
        let dir = temp_store("clear");
        let provider = ModelProvider::with_disk_cache(&dir).unwrap();
        provider.get(&ModelSpec::paper(4)).unwrap();
        provider.get(&ModelSpec::paper(8)).unwrap();
        let foreign = dir.join("notes.json");
        std::fs::write(&foreign, "keep me").unwrap();

        assert_eq!(provider.clear_disk().unwrap(), 2);
        assert!(foreign.exists());
        assert!(provider.disk_entries().unwrap().is_empty());

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn prune_by_size_evicts_oldest_first() {
        let dir = temp_store("prune-size");
        let provider = ModelProvider::with_disk_cache(&dir).unwrap();
        provider.get(&ModelSpec::paper(4)).unwrap();
        provider.get(&ModelSpec::paper(8)).unwrap();
        provider.get(&ModelSpec::paper(16)).unwrap();
        let entries = provider.disk_entries().unwrap();
        assert_eq!(entries.len(), 3);
        // Make the 4-port entry unambiguously the oldest.
        let oldest = dir.join(format!("{}.json", ModelSpec::paper(4).cache_key()));
        let old_time = std::time::SystemTime::now() - std::time::Duration::from_secs(3600);
        let file = std::fs::File::options().write(true).open(&oldest).unwrap();
        let _ = file.set_modified(old_time);
        drop(file);

        let total: u64 = entries.iter().map(|e| e.bytes).sum();
        let largest = entries.iter().map(|e| e.bytes).max().unwrap();
        // A cap that forces out at least one entry but keeps at least one.
        let report = provider.prune_disk(None, Some(total - 1)).unwrap();
        assert!(report.removed >= 1);
        assert!(report.kept >= 1);
        assert!(report.kept_bytes <= total - 1 + largest);
        assert!(!oldest.exists(), "oldest entry must go first");
        assert_eq!(
            report.kept + report.removed,
            3,
            "every entry accounted for: {report}"
        );

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn prune_by_age_only_touches_expired_entries() {
        let dir = temp_store("prune-age");
        let provider = ModelProvider::with_disk_cache(&dir).unwrap();
        provider.get(&ModelSpec::paper(4)).unwrap();
        provider.get(&ModelSpec::paper(8)).unwrap();
        let expired = dir.join(format!("{}.json", ModelSpec::paper(8).cache_key()));
        let old_time = std::time::SystemTime::now() - std::time::Duration::from_secs(7200);
        let file = std::fs::File::options().write(true).open(&expired).unwrap();
        let _ = file.set_modified(old_time);
        drop(file);

        let report = provider
            .prune_disk(Some(std::time::Duration::from_secs(3600)), None)
            .unwrap();
        assert_eq!(report.removed, 1);
        assert_eq!(report.kept, 1);
        assert!(!expired.exists());
        // No limits at all is a no-op that still reports the store size.
        let untouched = provider.prune_disk(None, None).unwrap();
        assert_eq!(untouched.removed, 0);
        assert_eq!(untouched.kept, 1);
        assert!(untouched.kept_bytes > 0);

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn clear_and_prune_sweep_up_orphaned_tmp_files() {
        let dir = temp_store("tmp-orphans");
        let provider = ModelProvider::with_disk_cache(&dir).unwrap();
        provider.get(&ModelSpec::paper(4)).unwrap();
        let key = ModelSpec::paper(4).cache_key();
        // An orphan from a killed writer, old enough to be unambiguous, and
        // a fresh one that may belong to a live writer.
        let stale = dir.join(format!("{key}.tmp.12345.0"));
        let fresh = dir.join(format!("{key}.tmp.12345.1"));
        std::fs::write(&stale, "half-written").unwrap();
        std::fs::write(&fresh, "half-written").unwrap();
        let old_time = std::time::SystemTime::now() - std::time::Duration::from_secs(600);
        let file = std::fs::File::options().write(true).open(&stale).unwrap();
        let _ = file.set_modified(old_time);
        drop(file);

        // Stats see both orphans before anything sweeps them.
        let (orphans, orphan_bytes) = provider.orphaned_tmp_files().unwrap();
        assert_eq!(orphans, 2);
        assert_eq!(orphan_bytes, 2 * "half-written".len() as u64);

        let report = provider.prune_disk(None, Some(u64::MAX)).unwrap();
        assert!(!stale.exists(), "stale tmp file must be swept");
        assert!(fresh.exists(), "fresh tmp file may be a live writer's");
        assert!(report.removed_bytes >= "half-written".len() as u64);
        assert_eq!(report.kept, 1, "the real entry survives");

        // clear sweeps them too (after aging the fresh one).
        let file = std::fs::File::options().write(true).open(&fresh).unwrap();
        let _ = file.set_modified(old_time);
        drop(file);
        assert_eq!(provider.clear_disk().unwrap(), 1);
        assert!(!fresh.exists());
        assert_eq!(provider.orphaned_tmp_files().unwrap(), (0, 0));

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn in_memory_provider_has_no_disk_surface() {
        let provider = ModelProvider::in_memory();
        assert!(provider.cache_dir().is_none());
        assert!(provider.disk_entries().unwrap().is_empty());
        assert_eq!(provider.orphaned_tmp_files().unwrap(), (0, 0));
        assert_eq!(provider.clear_disk().unwrap(), 0);
        assert_eq!(
            provider.prune_disk(None, Some(0)).unwrap(),
            PruneReport::default()
        );
    }

    #[test]
    fn shared_provider_is_one_per_process() {
        let a = ModelProvider::shared();
        let b = ModelProvider::shared();
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn stats_display_is_human_readable() {
        let stats = ProviderStats {
            memory_hits: 2,
            disk_hits: 1,
            builds: 3,
            characterizations: 1,
            ..ProviderStats::default()
        };
        let text = stats.to_string();
        assert!(text.contains("3 hit(s)"));
        assert!(text.contains("3 build(s)"));
        assert_eq!(stats.hits(), 3);
    }
}
