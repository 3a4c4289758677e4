//! The model-provider layer: every energy-model acquisition in the workspace
//! goes through a [`ModelProvider`].
//!
//! With `ModelSource::Derived` a model build runs gate-level
//! characterization of the full switch set.  The provider organizes that
//! acquisition in three layers:
//!
//! 1. a **specification** ([`ModelSpec`]) — the complete, serializable
//!    description of one model build: `(ports, bus width, technology,
//!    characterization config, model source)`;
//! 2. an **in-memory memo**: one immutable [`Arc<FabricEnergyModel>`] per
//!    spec, shared across sweeps, simulators and worker threads of a process;
//! 3. an optional **content-addressed on-disk store**
//!    ([`ModelProvider::with_disk_cache`]): each model is persisted under a
//!    stable hash of its spec's canonical JSON form, with atomic
//!    write-then-rename persistence and corruption-tolerant reads — a bad
//!    store file falls back to re-derivation, never an error.
//!
//! Sweeps and the `fabric-power` CLI run on the in-memory memo alone
//! ([`ModelProvider::shared`]): characterizing every paper size costs a few
//! milliseconds per process, so persisting models across processes saves
//! nothing measurable.  The on-disk store remains for the benchmark's
//! `table1-mc` workload, which times a cold build into a fresh store and a
//! warm read back from it.

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

/// The obs target provider spans are tagged with.
const TARGET: &str = "fabric.provider";

/// Version tag baked into cache keys and cache files.  Bump it whenever the
/// canonical serialized form of [`FabricEnergyModel`] or [`ModelSpec`]
/// changes incompatibly: old entries then simply miss instead of misparsing.
/// Adding or removing a spec field (such as a [`CharacterizationConfig`]
/// knob) needs no bump: the canonical JSON changes, so every affected key
/// changes with it, old entries miss and the store heals by re-deriving.
pub(crate) const CACHE_FORMAT_VERSION: u32 = 1;

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
    pub(crate) fn is_derived(&self) -> bool {
        matches!(self.kind, ModelKind::Derived { .. })
    }

    /// The stable content address of this spec: a 128-bit FNV-1a hash of its
    /// canonical JSON form (prefixed with [`CACHE_FORMAT_VERSION`]), rendered
    /// as 32 lowercase hex digits.
    ///
    /// The hash input is byte-deterministic — the serializer keeps field
    /// order and floats render with shortest-round-trip formatting — so the
    /// key is stable across runs, processes and machines.
    #[must_use]
    pub(crate) fn cache_key(&self) -> String {
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

/// Writes `contents` to `path` atomically: the bytes land in a uniquely
/// named temporary file next to `path` (`path` with the extension
/// `tmp.{pid}.{nonce}`), which is then renamed over it.  The model store
/// persists entries with it, and the sweep crate re-exports it for plans
/// and documents.
///
/// A crash mid-write leaves at worst an orphaned temp file — never a
/// truncated file that a later reader fails on confusingly.  The temp name
/// is unique per *call*, not just per process: two threads racing to write
/// the same path with a shared name could truncate each other mid-rename.
///
/// # Errors
///
/// Propagates I/O errors from the write or the rename; either failure
/// removes the temporary file before returning, so a failed write leaves no
/// full-size leftover next to `path`.
pub fn write_atomic(path: &Path, contents: &str) -> std::io::Result<()> {
    static TMP_NONCE: AtomicU64 = AtomicU64::new(0);
    let nonce = TMP_NONCE.fetch_add(1, Ordering::Relaxed);
    let tmp = path.with_extension(format!("tmp.{}.{nonce}", std::process::id()));
    let written = std::fs::write(&tmp, contents).and_then(|()| std::fs::rename(&tmp, path));
    if written.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    written
}

/// 128-bit stable hash as 32 hex chars: two independent 64-bit FNV-1a passes
/// (forward, and reversed with a different offset basis).  Not cryptographic
/// — it only needs to address a small closed key space without collisions.
///
/// Public because the byte pins digest their documents with the same
/// function (the characterization goldens and perfbench's CLI digests);
/// give each new content-addressing use its own domain-separation prefix.
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

/// What [`ModelProvider::disk_entries`] reports about one store file.
#[derive(Debug, Clone)]
pub struct DiskEntryInfo {
    /// Path of the store file.
    pub path: PathBuf,
    /// File size in bytes.
    pub bytes: u64,
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
    /// source for sweep engines and [`crate::analytic::analytic_table`], so
    /// every sweep in a process reuses the same characterized models.
    #[must_use]
    pub fn shared() -> Arc<Self> {
        static SHARED: OnceLock<Arc<ModelProvider>> = OnceLock::new();
        Arc::clone(SHARED.get_or_init(|| Arc::new(Self::in_memory())))
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
    /// Returns [`EnergyModelError::InvalidPortCount`] unless the spec's port
    /// count is a power of two ≥ 2, before any layer is read: a router
    /// lowers its route tables at the model's port count, so no store entry
    /// may supply another.  Otherwise propagates the build's characterization
    /// or memory-model failures.
    pub fn get(&self, spec: &ModelSpec) -> Result<Arc<FabricEnergyModel>, EnergyModelError> {
        FabricEnergyModel::check_ports(spec.ports)?;
        let key = spec.cache_key();
        if let Some(model) = self
            .memory
            .lock()
            .expect("provider memo poisoned")
            .get(&key)
        {
            self.counters.memory_hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Arc::clone(model));
        }

        if let Some(model) = self.read_disk(spec, &key) {
            self.counters.disk_hits.fetch_add(1, Ordering::Relaxed);
            return Ok(self.memoize(key, model));
        }

        // Gate-level characterization dominates a derived build; the span's
        // `characterize done` event makes the phase and its duration visible
        // in debug output.
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

    /// Lists the store's entry files (`{key}.json`; their contents are not
    /// read), in file-name order.
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
            entries.push(DiskEntryInfo { path, bytes });
        }
        entries.sort_by(|a, b| a.path.cmp(&b.path));
        Ok(entries)
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
                None
            }
        }
    }

    /// Persists a freshly built model with [`write_atomic`] (readers in
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
        let written =
            serde_json::to_string(&entry).is_ok_and(|json| write_atomic(&path, &json).is_ok());
        if !written {
            // Graceful degradation, not an abort: the in-memory memo still
            // holds the model, so the sweep proceeds — the next process
            // just rebuilds instead of reading the cache.
            self.counters
                .disk_write_errors
                .fetch_add(1, Ordering::Relaxed);
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
        let json = serde_json::to_string(&Technology::tsmc180()).unwrap();
        let narrow: Technology =
            serde_json::from_str(&json.replace("\"bus_width_bits\":32", "\"bus_width_bits\":16"))
                .unwrap();
        assert_eq!(narrow.bus_width_bits(), 16);
        let other_tech = ModelSpec::derived(
            8,
            narrow,
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
    fn a_stored_model_with_an_invalid_port_count_is_an_error() {
        let dir = temp_store("invalid-ports");
        let provider = ModelProvider::with_disk_cache(&dir).unwrap();
        let spec8 = ModelSpec::paper(8);
        provider.get(&spec8).unwrap();

        // An entry consistent in every field that names a 6-port model, which
        // no constructor builds and no route table can be lowered for.
        let spec6 = ModelSpec::paper(6);
        let entry = std::fs::read_to_string(dir.join(format!("{}.json", spec8.cache_key())))
            .unwrap()
            .replace(&spec8.cache_key(), &spec6.cache_key())
            .replace("\"ports\":8", "\"ports\":6");
        std::fs::write(dir.join(format!("{}.json", spec6.cache_key())), entry).unwrap();

        let fresh = ModelProvider::with_disk_cache(&dir).unwrap();
        assert!(matches!(
            fresh.get(&spec6),
            Err(EnergyModelError::InvalidPortCount { ports: 6 })
        ));
        assert_eq!(fresh.stats().disk_hits, 0);

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_cache_write_keeps_the_model_and_leaves_no_temp_file() {
        let dir = temp_store("write-fails");
        std::fs::create_dir_all(&dir).unwrap();
        let spec = ModelSpec::paper(8);
        // A directory where the entry belongs: the write-temp lands, but
        // renaming it over the directory fails.
        std::fs::create_dir(dir.join(format!("{}.json", spec.cache_key()))).unwrap();

        let provider = ModelProvider::with_disk_cache(&dir).unwrap();
        let model = provider.get(&spec).unwrap();
        assert_eq!(*model, spec.build().unwrap());
        assert_eq!(provider.stats().disk_write_errors, 1);
        // The in-memory memo still serves the model...
        assert!(Arc::ptr_eq(&model, &provider.get(&spec).unwrap()));
        // ...and the failed persist left no full-size temp file behind.
        let temp_prefix = format!("{}.tmp.", spec.cache_key());
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|entry| entry.unwrap().file_name())
            .filter(|name| name.to_string_lossy().starts_with(&temp_prefix))
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn in_memory_provider_has_no_disk_surface() {
        let provider = ModelProvider::in_memory();
        assert!(provider.disk_entries().unwrap().is_empty());
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
