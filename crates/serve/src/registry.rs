//! The dataset registry: named, **versioned** datasets shared by every
//! concurrent job.
//!
//! A mining request names its dataset (`"dataset": "retail-small"`, or
//! pinned to a version: `"retail-small@2"`); the registry resolves the
//! name to an `Arc<Dataset>` snapshot. Sources are either *builtin*
//! generator configs (deterministic under their seeds), on-disk basket
//! files parsed through `setm_core::io`, or datasets registered over the
//! wire (`register-dataset`). Every source is loaded lazily on first use
//! and cached behind `Arc`, so N concurrent requests against the same
//! name share one immutable copy.
//!
//! # Versions and copy-on-write appends
//!
//! Registration creates version 1. `append-batch` concatenates a batch
//! of *new* transactions (trans_ids disjoint from the snapshot — a
//! shared id would merge two baskets and corrupt counts) and bumps the
//! version: `name@v+1`. Snapshots are copy-on-write — the new version is
//! a fresh allocation, every older `Arc<Dataset>` stays untouched, so an
//! in-flight job keeps the exact bytes it started with and **old
//! versions stay addressable forever** (`name@1` still resolves after
//! ten appends). The per-version deltas are retained so the incremental
//! miner can replay `f+1..=v` onto a frontier captured at version `f`.
//!
//! # What is retained
//!
//! Storage grows with the data appended, not with the number of
//! versions: the registry holds version 1, every delta, and the latest
//! snapshot. A superseded snapshot is held only weakly — it lives while
//! a job, a reader or a stored frontier still holds its `Arc`, and once
//! nothing does it is freed. Asking for it again (`name@v`, or a replay
//! from `v`) rebuilds it by concatenating the deltas onto the newest
//! version still alive below it: the same concatenations that first
//! built it, so the rebuilt snapshot equals the original exactly.

use setm_core::io::{self, FileFormat};
use setm_core::Dataset;
use setm_incremental::{concat_datasets, ensure_disjoint_tids};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::{Arc, OnceLock, RwLock, Weak};

use setm_datagen::{QuestConfig, RetailConfig, UniformConfig};

/// Where a registered dataset's version 1 comes from.
enum Source {
    /// A deterministic generator (builtin names).
    Builtin(fn() -> Dataset),
    /// A basket file on disk, parsed via [`setm_core::io`].
    File { path: PathBuf, format: FileFormat },
    /// An already-materialized dataset (in-process or wire registration).
    Preloaded(Arc<Dataset>),
}

/// One appended version: the batch that created it and, weakly, the
/// snapshot it produced.
struct AppendedVersion {
    delta: Arc<Dataset>,
    snapshot: Weak<Dataset>,
}

/// Versions 2.. of one entry.
#[derive(Default)]
struct History {
    /// `appended[i]` is version `i + 2`.
    appended: Vec<AppendedVersion>,
    /// The newest appended snapshot, the one snapshot past version 1
    /// held strongly.
    latest: Option<Arc<Dataset>>,
}

impl History {
    fn latest_version(&self) -> u64 {
        self.appended.len() as u64 + 1
    }

    /// Version `v`'s snapshot if something still holds it (version 1
    /// is `base`, always held).
    fn live(&self, base: &Arc<Dataset>, v: u64) -> Option<Arc<Dataset>> {
        match v {
            1 => Some(Arc::clone(base)),
            v => self.appended[v as usize - 2].snapshot.upgrade(),
        }
    }

    /// The snapshots of versions `from..to` (`1 ≤ from ≤ to ≤ latest + 1`),
    /// oldest first. Each is the live one, or is rebuilt by concatenating
    /// the deltas onto the newest live version below it — the same
    /// concatenations that created it, so its bytes are the original's.
    fn snapshots(&self, base: &Arc<Dataset>, from: u64, to: u64) -> Vec<Arc<Dataset>> {
        let (start, mut current) = (1..=from)
            .rev()
            .find_map(|v| self.live(base, v).map(|snapshot| (v, snapshot)))
            .expect("version 1 is always live");
        let mut out = Vec::with_capacity((to - from) as usize);
        for v in start..to {
            if v > start {
                current = self.live(base, v).unwrap_or_else(|| {
                    Arc::new(concat_datasets(&current, &self.appended[v as usize - 2].delta))
                });
            }
            if v >= from {
                out.push(Arc::clone(&current));
            }
        }
        out
    }
}

struct Entry {
    description: String,
    source: Source,
    /// Version 1, materialized lazily.
    cell: OnceLock<Result<Arc<Dataset>, String>>,
    history: RwLock<History>,
}

impl Entry {
    fn new(description: &str, source: Source) -> Arc<Entry> {
        Arc::new(Entry {
            description: description.to_string(),
            source,
            cell: OnceLock::new(),
            history: RwLock::new(History::default()),
        })
    }

    /// Materialize version 1.
    fn base(&self, name: &str) -> Result<Arc<Dataset>, RegistryError> {
        self.cell
            .get_or_init(|| match &self.source {
                Source::Builtin(generate) => Ok(Arc::new(generate())),
                Source::File { path, format } => {
                    io::load_path(path, *format).map(Arc::new).map_err(|e| e.to_string())
                }
                Source::Preloaded(d) => Ok(Arc::clone(d)),
            })
            .clone()
            .map_err(|message| RegistryError::Load { name: name.to_string(), message })
    }
}

/// A resolution failure: the name or version is unknown, the source
/// failed to load, or a mutation was invalid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegistryError {
    UnknownDataset(String),
    Load {
        name: String,
        message: String,
    },
    /// `name@v` where `v` does not exist (yet).
    UnknownVersion {
        name: String,
        version: u64,
        latest: u64,
    },
    /// A version spec that is not `name` or `name@<positive integer>`,
    /// or a runtime registration under a name containing `@`.
    BadSpec(String),
    /// `register-dataset` against a name that already exists (append to
    /// it instead — re-registering would silently orphan its versions).
    AlreadyRegistered(String),
    /// An appended batch reuses a `trans_id` of the current snapshot.
    OverlappingTransIds {
        name: String,
        tid: u32,
    },
}

impl std::fmt::Display for RegistryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegistryError::UnknownDataset(name) => write!(f, "unknown dataset {name:?}"),
            RegistryError::Load { name, message } => {
                write!(f, "dataset {name:?} failed to load: {message}")
            }
            RegistryError::UnknownVersion { name, version, latest } => {
                write!(f, "dataset {name:?} has no version {version} (latest is {latest})")
            }
            RegistryError::BadSpec(spec) => {
                write!(f, "bad dataset spec {spec:?}; expected name or name@version")
            }
            RegistryError::AlreadyRegistered(name) => {
                write!(f, "dataset {name:?} is already registered; use append-batch")
            }
            RegistryError::OverlappingTransIds { name, tid } => {
                write!(
                    f,
                    "batch reuses trans_id {tid} of dataset {name:?}; appended transactions \
                     must be new"
                )
            }
        }
    }
}

impl std::error::Error for RegistryError {}

/// One row of `list-datasets`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DatasetInfo {
    pub name: String,
    pub description: String,
    /// The latest version (1 until something is appended).
    pub version: u64,
    /// Whether the dataset has been materialized yet.
    pub loaded: bool,
    /// Set once loaded (numbers of the latest version).
    pub n_transactions: Option<u64>,
    pub n_rows: Option<u64>,
}

/// A resolved dataset spec: the base name, the pinned-or-latest version,
/// and that version's immutable snapshot.
#[derive(Clone)]
pub struct Resolved {
    pub name: String,
    pub version: u64,
    pub dataset: Arc<Dataset>,
}

impl Resolved {
    /// The canonical `name@version` form — the dataset half of the
    /// outcome-cache key.
    pub fn versioned_name(&self) -> String {
        format!("{}@{}", self.name, self.version)
    }
}

/// What an append produced: the new version and the snapshots around it.
pub struct Appended {
    pub version: u64,
    pub snapshot: Arc<Dataset>,
}

/// One frontier-replay step: `(base snapshot, appended delta)`.
pub type DeltaStep = (Arc<Dataset>, Arc<Dataset>);

/// The registry itself. Build it (builtins + any files) with the
/// `&mut self` methods, then hand it to the server; runtime mutation
/// (`register-dataset` / `append-batch`) is interior and thread-safe.
pub struct Registry {
    entries: RwLock<BTreeMap<String, Arc<Entry>>>,
}

impl Default for Registry {
    fn default() -> Self {
        Registry::with_builtins()
    }
}

impl Registry {
    /// An empty registry (no names resolve).
    pub fn empty() -> Self {
        Registry { entries: RwLock::new(BTreeMap::new()) }
    }

    /// The builtin catalog: the worked example plus the calibrated
    /// synthetic workloads the benchmarks use. All deterministic.
    pub fn with_builtins() -> Self {
        let mut r = Registry::empty();
        r.register_builtin(
            "example",
            "the paper's ten-transaction worked example (Section 4.2)",
            setm_core::example::paper_example_dataset,
        );
        r.register_builtin(
            "retail-small",
            "retail stand-in scaled to 2,500 transactions (seed 11)",
            || RetailConfig::small(2_500, 11).generate(),
        );
        r.register_builtin(
            "retail-paper",
            "retail stand-in at full paper scale: 46,873 transactions",
            || RetailConfig::paper().generate(),
        );
        r.register_builtin("quest-t5", "Quest T5.I2, 10,000 transactions", || {
            QuestConfig::t5_i2_d100k(10).generate()
        });
        r.register_builtin("quest-t10", "Quest T10.I4, 10,000 transactions", || {
            QuestConfig::t10_i4_d100k(10).generate()
        });
        r.register_builtin(
            "uniform-s100",
            "Section 3.2 uniform retailing model at 1/100 scale",
            || UniformConfig::paper_scaled(100).generate(),
        );
        r
    }

    fn insert(&mut self, name: &str, description: &str, source: Source) {
        self.entries
            .get_mut()
            .expect("registry lock poisoned")
            .insert(name.to_string(), Entry::new(description, source));
    }

    /// Register a builtin generator under `name` (replaces any previous
    /// entry of that name; build time only).
    pub fn register_builtin(&mut self, name: &str, description: &str, generate: fn() -> Dataset) {
        self.insert(name, description, Source::Builtin(generate));
    }

    /// Register an on-disk basket file. The file is read lazily, on the
    /// first request that names it.
    pub fn register_file(&mut self, name: &str, path: impl Into<PathBuf>, format: FileFormat) {
        let path = path.into();
        let description = format!("{} file {}", format.name(), path.display());
        self.insert(name, &description, Source::File { path, format });
    }

    /// Register an already-materialized dataset (build time; replaces).
    pub fn register_dataset(&mut self, name: &str, description: &str, dataset: Dataset) {
        self.insert(name, description, Source::Preloaded(Arc::new(dataset)));
    }

    /// Runtime registration (the `register-dataset` wire verb): creates
    /// `name@1`. Unlike the build-time methods this never replaces — an
    /// existing name is a typed error, as silently dropping its version
    /// history would break `name@v` addressability.
    pub fn register_runtime(
        &self,
        name: &str,
        description: &str,
        dataset: Dataset,
    ) -> Result<u64, RegistryError> {
        if name.is_empty() || name.contains('@') {
            return Err(RegistryError::BadSpec(name.to_string()));
        }
        let mut entries = self.entries.write().expect("registry lock poisoned");
        if entries.contains_key(name) {
            return Err(RegistryError::AlreadyRegistered(name.to_string()));
        }
        entries.insert(
            name.to_string(),
            Entry::new(description, Source::Preloaded(Arc::new(dataset))),
        );
        Ok(1)
    }

    fn entry(&self, name: &str) -> Result<Arc<Entry>, RegistryError> {
        self.entries
            .read()
            .expect("registry lock poisoned")
            .get(name)
            .cloned()
            .ok_or_else(|| RegistryError::UnknownDataset(name.to_string()))
    }

    /// Append a batch of new transactions to `name`, creating the next
    /// version (copy-on-write: every older snapshot stays untouched).
    /// The batch's `trans_id`s must be disjoint from the current
    /// snapshot.
    pub fn append_batch(&self, name: &str, batch: Dataset) -> Result<Appended, RegistryError> {
        let entry = self.entry(name)?;
        let base = entry.base(name)?;
        let mut history = entry.history.write().expect("registry lock poisoned");
        let latest = history.latest.clone().unwrap_or(base);
        if let Err(tid) = ensure_disjoint_tids(&latest, &batch) {
            return Err(RegistryError::OverlappingTransIds { name: name.to_string(), tid });
        }
        let snapshot = Arc::new(concat_datasets(&latest, &batch));
        history
            .appended
            .push(AppendedVersion { delta: Arc::new(batch), snapshot: Arc::downgrade(&snapshot) });
        history.latest = Some(Arc::clone(&snapshot));
        Ok(Appended { version: history.latest_version(), snapshot })
    }

    /// Resolve a dataset spec — `name` (latest version) or `name@v` — to
    /// an immutable snapshot. A superseded version nothing holds any more
    /// is rebuilt from an older live version and the deltas after it.
    pub fn resolve(&self, spec: &str) -> Result<Resolved, RegistryError> {
        let (name, version) = match spec.split_once('@') {
            None => (spec, None),
            Some((name, v)) => {
                let version: u64 = v
                    .parse()
                    .ok()
                    .filter(|&v| v >= 1)
                    .ok_or_else(|| RegistryError::BadSpec(spec.to_string()))?;
                (name, Some(version))
            }
        };
        let entry = self.entry(name)?;
        let base = entry.base(name)?;
        let history = entry.history.read().expect("registry lock poisoned");
        let latest = history.latest_version();
        let version = version.unwrap_or(latest);
        if version > latest {
            return Err(RegistryError::UnknownVersion { name: name.to_string(), version, latest });
        }
        let dataset = history.snapshots(&base, version, version + 1).remove(0);
        Ok(Resolved { name: name.to_string(), version, dataset })
    }

    /// Resolve `name` to its **latest** snapshot, loading and caching on
    /// first use. Concurrent callers share the one `Arc<Dataset>`.
    pub fn get(&self, name: &str) -> Result<Arc<Dataset>, RegistryError> {
        self.resolve(name).map(|r| r.dataset)
    }

    /// The replay path for a mining frontier captured at version `from`:
    /// each step's `(base snapshot, appended delta)` for versions
    /// `from+1 ..= to`, oldest first.
    pub fn deltas_between(
        &self,
        name: &str,
        from: u64,
        to: u64,
    ) -> Result<Vec<DeltaStep>, RegistryError> {
        let entry = self.entry(name)?;
        let base = entry.base(name)?;
        let history = entry.history.read().expect("registry lock poisoned");
        let latest = history.latest_version();
        if from < 1 || to > latest || from > to {
            return Err(RegistryError::UnknownVersion {
                name: name.to_string(),
                version: to.max(from),
                latest,
            });
        }
        let deltas = history.appended[from as usize - 1..to as usize - 1].iter();
        Ok(history
            .snapshots(&base, from, to)
            .into_iter()
            .zip(deltas.map(|v| Arc::clone(&v.delta)))
            .collect())
    }

    /// Every registered dataset, in name order.
    pub fn list(&self) -> Vec<DatasetInfo> {
        let entries = self.entries.read().expect("registry lock poisoned");
        entries
            .iter()
            .map(|(name, entry)| {
                let history = entry.history.read().expect("registry lock poisoned");
                let base = entry.cell.get().and_then(|r| r.as_ref().ok());
                let latest = history.latest.as_ref().or(base);
                DatasetInfo {
                    name: name.clone(),
                    description: entry.description.clone(),
                    version: history.latest_version(),
                    loaded: latest.is_some(),
                    n_transactions: latest.map(|d| d.n_transactions()),
                    n_rows: latest.map(|d| d.n_rows()),
                }
            })
            .collect()
    }

    /// Number of registered names.
    pub fn len(&self) -> usize {
        self.entries.read().expect("registry lock poisoned").len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of datasets materialized so far.
    pub fn loaded_count(&self) -> usize {
        self.entries
            .read()
            .expect("registry lock poisoned")
            .values()
            .filter(|e| matches!(e.cell.get(), Some(Ok(_))))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtins_resolve_and_cache_one_copy() {
        let r = Registry::with_builtins();
        assert!(r.len() >= 6);
        assert_eq!(r.loaded_count(), 0);
        let a = r.get("example").unwrap();
        let b = r.get("example").unwrap();
        assert!(Arc::ptr_eq(&a, &b), "cached copies must be the same allocation");
        assert_eq!(a.n_transactions(), 10);
        assert_eq!(r.loaded_count(), 1);
        let info = r.list();
        let example = info.iter().find(|i| i.name == "example").unwrap();
        assert!(example.loaded);
        assert_eq!(example.version, 1);
        assert_eq!(example.n_transactions, Some(10));
        let retail = info.iter().find(|i| i.name == "retail-paper").unwrap();
        assert!(!retail.loaded);
        assert_eq!(retail.n_transactions, None);
    }

    #[test]
    fn unknown_names_are_typed_errors() {
        let r = Registry::with_builtins();
        assert_eq!(r.get("nope").unwrap_err(), RegistryError::UnknownDataset("nope".to_string()));
    }

    #[test]
    fn file_sources_load_lazily_and_report_failures() {
        let dir = std::env::temp_dir().join(format!("setm-serve-reg-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let good = dir.join("good.fimi");
        std::fs::write(&good, "1 2 3\n1 2\n2 3\n").unwrap();
        let mut r = Registry::empty();
        r.register_file("good", &good, FileFormat::Fimi);
        r.register_file("missing", dir.join("missing.fimi"), FileFormat::Fimi);
        let d = r.get("good").unwrap();
        assert_eq!(d.n_transactions(), 3);
        let err = r.get("missing").unwrap_err();
        assert!(matches!(err, RegistryError::Load { .. }), "{err}");
        // A load failure is cached too (the file is not re-probed).
        assert_eq!(r.get("missing").unwrap_err(), err);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_first_touch_materializes_once() {
        let r = Arc::new(Registry::with_builtins());
        let copies: Vec<Arc<Dataset>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let r = Arc::clone(&r);
                    s.spawn(move || r.get("quest-t5").unwrap())
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for c in &copies[1..] {
            assert!(Arc::ptr_eq(&copies[0], c));
        }
    }

    #[test]
    fn preloaded_datasets_resolve() {
        let mut r = Registry::empty();
        r.register_dataset("inline", "test data", Dataset::from_pairs([(1, 1), (1, 2), (2, 1)]));
        assert_eq!(r.get("inline").unwrap().n_rows(), 3);
        assert!(!r.is_empty());
    }

    #[test]
    fn appends_bump_versions_and_old_snapshots_stay_addressable() {
        let r = Registry::with_builtins();
        r.register_runtime("stream", "wire data", Dataset::from_pairs([(1, 1), (1, 2)])).unwrap();
        let v1 = r.resolve("stream").unwrap();
        assert_eq!((v1.version, v1.dataset.n_transactions()), (1, 1));

        let a = r
            .append_batch("stream", Dataset::from_transactions([(2, [1u32, 3].as_slice())]))
            .unwrap();
        assert_eq!(a.version, 2);
        assert_eq!(a.snapshot.n_transactions(), 2);

        // Old version untouched and still addressable; latest moved on.
        let pinned = r.resolve("stream@1").unwrap();
        assert!(Arc::ptr_eq(&pinned.dataset, &v1.dataset), "copy-on-write");
        let latest = r.resolve("stream").unwrap();
        assert_eq!(latest.version, 2);
        assert_eq!(latest.versioned_name(), "stream@2");
        assert_eq!(latest.dataset.n_transactions(), 2);

        // The replay path sees exactly the appended delta.
        let steps = r.deltas_between("stream", 1, 2).unwrap();
        assert_eq!(steps.len(), 1);
        assert!(Arc::ptr_eq(&steps[0].0, &v1.dataset));
        assert_eq!(steps[0].1.n_transactions(), 1);
    }

    #[test]
    fn superseded_snapshots_are_released_and_rebuilt_byte_identical() {
        let r = Registry::empty();
        r.register_runtime("s", "d", Dataset::from_pairs([(1, 1), (1, 2), (2, 2), (2, 3)]))
            .unwrap();
        let batch = |tid: u32| {
            Dataset::from_transactions([(tid, [1u32, 3].as_slice()), (tid + 1, [2u32].as_slice())])
        };
        let v2 = r.append_batch("s", batch(10)).unwrap().snapshot;
        let original = (*v2).clone();
        let weak = Arc::downgrade(&v2);
        drop(v2);
        // A reader that resolved v3 keeps that exact allocation.
        r.append_batch("s", batch(20)).unwrap();
        let held_v3 = r.resolve("s@3").unwrap().dataset;
        r.append_batch("s", batch(30)).unwrap();

        assert!(weak.upgrade().is_none(), "nothing holds version 2 any more");
        assert_eq!(*r.resolve("s@2").unwrap().dataset, original, "rebuilt from base + deltas");
        assert!(Arc::ptr_eq(&r.resolve("s@3").unwrap().dataset, &held_v3), "held stays shared");
        let steps = r.deltas_between("s", 2, 4).unwrap();
        assert_eq!(steps.len(), 2);
        assert_eq!((&*steps[0].0, &*steps[0].1), (&original, &batch(20)));
        assert!(Arc::ptr_eq(&steps[1].0, &held_v3));
        assert_eq!(*steps[1].1, batch(30));
        assert!(r.deltas_between("s", 3, 3).unwrap().is_empty());
        assert_eq!(r.resolve("s").unwrap().dataset.n_transactions(), 8);
    }

    #[test]
    fn bad_specs_versions_and_mutations_are_typed_errors() {
        let r = Registry::with_builtins();
        assert!(matches!(r.resolve("example@0"), Err(RegistryError::BadSpec(_))));
        assert!(matches!(r.resolve("example@two"), Err(RegistryError::BadSpec(_))));
        assert!(matches!(
            r.resolve("example@7"),
            Err(RegistryError::UnknownVersion { version: 7, latest: 1, .. })
        ));
        assert!(matches!(
            r.register_runtime("example", "clash", Dataset::from_pairs([(1, 1)])),
            Err(RegistryError::AlreadyRegistered(_))
        ));
        assert!(matches!(
            r.register_runtime("bad@name", "spec", Dataset::from_pairs([(1, 1)])),
            Err(RegistryError::BadSpec(_))
        ));
        assert!(matches!(
            r.append_batch("nope", Dataset::from_pairs([(1, 1)])),
            Err(RegistryError::UnknownDataset(_))
        ));
    }

    #[test]
    fn overlapping_trans_ids_are_rejected() {
        let r = Registry::with_builtins();
        r.register_runtime("s", "d", Dataset::from_pairs([(7, 1), (8, 2)])).unwrap();
        let err = r
            .append_batch("s", Dataset::from_transactions([(8, [9u32].as_slice())]))
            .err()
            .unwrap();
        assert_eq!(err, RegistryError::OverlappingTransIds { name: "s".to_string(), tid: 8 });
        // Nothing was appended.
        assert_eq!(r.resolve("s").unwrap().version, 1);
    }

    #[test]
    fn concurrent_appends_serialize_into_distinct_versions() {
        let r = Arc::new(Registry::with_builtins());
        r.register_runtime("c", "d", Dataset::from_pairs([(1, 1)])).unwrap();
        let versions: Vec<u64> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8u32)
                .map(|i| {
                    let r = Arc::clone(&r);
                    s.spawn(move || {
                        r.append_batch(
                            "c",
                            Dataset::from_transactions([(100 + i, [1u32, 2].as_slice())]),
                        )
                        .unwrap()
                        .version
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let mut sorted = versions.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (2..=9).collect::<Vec<u64>>(), "{versions:?}");
        assert_eq!(r.resolve("c").unwrap().dataset.n_transactions(), 9);
    }
}
