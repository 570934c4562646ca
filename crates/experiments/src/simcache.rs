//! Content-addressed memoization of simulation runs.
//!
//! The evaluation re-runs many *identical* simulations: F4 replays F3's
//! sobel/wearable run to measure backup overheads, F8 replays it for
//! frame latency, every sweep (F5/F6/F10/F11) includes the default
//! operating point that other experiments also simulate, and F12's
//! fault-free control trials do not depend on the fault seed. Each run
//! is a pure function of `(program, system configuration, backup model,
//! policy, fault plan, power trace)`, so a process-wide cache keyed on a
//! SHA-256 digest of exactly those inputs deduplicates them.
//!
//! Key derivation (see `DESIGN.md` § Performance):
//!
//! * a schema + run-kind tag (`nvp-simcache/1:nvp`, `…:wait`,
//!   `…:f12-trial`), so runs of different kinds never collide;
//! * the **model fingerprint** ([`MODEL_FINGERPRINT`], derived by
//!   `build.rs` from every model source file and the compiler
//!   version), mixed in through [`versioned`] together with the tag, so
//!   a build with different simulation semantics never addresses a
//!   record an older build wrote;
//! * the program image: entry point, code words, initialized data
//!   segments — hashed directly;
//! * the platform configuration: the `Debug` rendering of
//!   `SystemConfig`/`WaitComputeConfig`, `BackupModel`, `BackupPolicy`
//!   and (for F12 trials) `FaultPlan`. Rust's `f64` `Debug` output is
//!   the shortest round-trip representation, so distinct configurations
//!   always render distinctly;
//! * the power trace: dt, length, and every sample's bit pattern,
//!   hashed **once per trace** (`trace_digest`) and reused across runs.
//!
//! Values are [`SimResult`]s: the `RunReport` plus the recovery-latency
//! vector an F12 trial extracts from its event stream (empty for every
//! other run kind). The cache map is a `BTreeMap` for deterministic
//! internal order. Fills are **single-flight**: the first thread to miss
//! a key installs an in-flight slot and computes without holding the
//! map lock, so distinct simulations run in parallel, while later
//! threads asking for the same key wait on a condition variable instead
//! of recomputing. Every key is therefore simulated at most once per
//! process, and the hit/miss counts are a pure function of the work
//! requested, whatever the worker count. A simulation never re-enters
//! the cache or the scheduler, so a waiter always waits on a thread
//! that can finish; a fill that panics clears its slot on unwind, so
//! waiters retry instead of hanging.
//!
//! ## Persistence
//!
//! The in-memory index can be backed by an on-disk record log (see
//! [`crate::persist`] for the format), so a *fresh process* rerunning
//! the campaign is served from cache instead of resimulating. The
//! backing directory is resolved once, lazily, on the first cache
//! access: [`set_cache_dir`] (what the `repro` binary calls, defaulting
//! to `<out_dir>/.simcache` unless `--no-cache`) wins over the
//! `NVP_CACHE_DIR` environment variable; with neither, the cache stays
//! memory-only and behaves exactly as before. Library users and tests
//! therefore never touch the filesystem unless they opt in. Every
//! computed value is appended to the log; values loaded from disk are
//! bit-identical to recomputed ones (the key is a SHA-256 of every
//! simulation input and the model itself, and the value encoding
//! round-trips float bit patterns), so golden digests cannot tell a
//! warm-disk run from a cold one.

use std::collections::BTreeMap;
use std::fmt::Debug;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

use nvp_core::RunReport;
use nvp_energy::PowerTrace;

use crate::persist::PersistentStore;
use crate::sha256::{Digest, Sha256};

/// Hex SHA-256 over every source file that can change a simulation
/// result, plus `rustc -V` (computed by `build.rs`).
pub(crate) const MODEL_FINGERPRINT: &str = env!("NVP_MODEL_FINGERPRINT");

/// Starts a digest under a schema `tag`, versioned by the model
/// fingerprint. Every cache key, trace digest and `nvpd` idempotency
/// key begins here, so none of them survives a change to the model.
pub(crate) fn versioned(tag: &str) -> Sha256 {
    let mut h = Sha256::new();
    for field in [tag, MODEL_FINGERPRINT] {
        h.update(&(field.len() as u64).to_le_bytes());
        h.update(field.as_bytes());
    }
    h
}

/// Builds a cache key from length-prefixed, type-tagged fields.
#[derive(Clone)]
pub(crate) struct KeyHasher(Sha256);

impl KeyHasher {
    /// Starts a key with a schema + run-kind tag (e.g.
    /// `"nvp-simcache/1:nvp"`), versioned by the model fingerprint.
    pub(crate) fn new(tag: &str) -> KeyHasher {
        KeyHasher(versioned(tag))
    }

    fn len(&mut self, n: usize) {
        self.0.update(&(n as u64).to_le_bytes());
    }

    /// A length-prefixed UTF-8 string.
    pub(crate) fn str(&mut self, s: &str) {
        self.len(s.len());
        self.0.update(s.as_bytes());
    }

    /// A value through its `Debug` rendering (length-prefixed). `f64`
    /// `Debug` is the shortest round-trip form, so distinct values
    /// render distinctly.
    pub(crate) fn debug<T: Debug>(&mut self, value: &T) {
        let mut s = String::new();
        write!(s, "{value:?}").expect("Debug formatting does not fail");
        self.str(&s);
    }

    /// A program image: entry, code words, initialized data segments.
    pub(crate) fn program(&mut self, program: &nvp_isa::Program) {
        self.0.update(&program.entry().to_le_bytes());
        self.len(program.code().len());
        for &word in program.code() {
            self.0.update(&word.to_le_bytes());
        }
        self.len(program.data_segments().len());
        for seg in program.data_segments() {
            self.0.update(&seg.addr.to_le_bytes());
            self.len(seg.words.len());
            for &w in &seg.words {
                self.0.update(&w.to_le_bytes());
            }
        }
    }

    /// A precomputed digest (e.g. a trace's).
    pub(crate) fn digest(&mut self, d: &Digest) {
        self.0.update(d);
    }

    pub(crate) fn finish(self) -> Digest {
        self.0.finalize()
    }
}

/// Digest of a power trace: dt, length, and every sample's bit pattern.
/// Computed once per trace and reused for every run over it.
pub(crate) fn trace_digest(trace: &PowerTrace) -> Digest {
    let mut h = versioned("nvp-simcache/1:trace");
    h.update(&trace.dt_s().to_bits().to_le_bytes());
    h.update(&(trace.len() as u64).to_le_bytes());
    for &sample in trace.samples() {
        h.update(&sample.to_bits().to_le_bytes());
    }
    h.finalize()
}

/// One cached simulation outcome.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SimResult {
    /// The run's report.
    pub report: RunReport,
    /// Recovery latencies in milliseconds, for F12 fault trials; empty
    /// for every other run kind.
    pub latencies_ms: Vec<f64>,
}

impl From<RunReport> for SimResult {
    fn from(report: RunReport) -> SimResult {
        SimResult { report, latencies_ms: Vec::new() }
    }
}

/// Cache hit/miss counters for one runner invocation (or the whole
/// process, via [`sim_cache_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimCacheStats {
    /// Simulations answered from the cache (in-memory index), including
    /// requests that waited for another thread's in-flight fill.
    pub hits: u64,
    /// The subset of [`hits`](Self::hits) whose report was loaded from
    /// the persistent store rather than computed by this process.
    pub disk_hits: u64,
    /// Simulations actually executed (and then cached): exactly one per
    /// distinct key.
    pub misses: u64,
    /// Reports this process appended to the persistent store.
    pub persisted: u64,
    /// Damaged shard files the persistent store quarantined on load
    /// (copied to `*.quarantine`, then rewritten to the salvage).
    /// Distinguishes a corrupted cache from a merely cold one.
    pub quarantined: u64,
}

impl SimCacheStats {
    /// Counter-wise difference `self - earlier` (saturating), for
    /// per-invocation deltas against process-wide counters.
    #[must_use]
    pub fn since(self, earlier: SimCacheStats) -> SimCacheStats {
        SimCacheStats {
            hits: self.hits.saturating_sub(earlier.hits),
            disk_hits: self.disk_hits.saturating_sub(earlier.disk_hits),
            misses: self.misses.saturating_sub(earlier.misses),
            persisted: self.persisted.saturating_sub(earlier.persisted),
            quarantined: self.quarantined.saturating_sub(earlier.quarantined),
        }
    }
}

/// One key's entry in the cache map.
#[derive(Debug)]
enum Slot {
    /// Being computed by one thread; others wait on [`FILLED`].
    Filling,
    /// Computed by this process, with the [`USE_CLOCK`] stamp of its
    /// last use.
    Computed(SimResult, u64),
    /// Loaded from the persistent store at open time.
    Disk(SimResult),
}

/// The most computed entries the map keeps. A campaign needs far fewer
/// (a full one computes fewer than 200), so `repro` never evicts; a resident
/// `nvpd` serving jobs with fresh fault seeds would otherwise grow by
/// every faulted F12 trial it ever ran. Entries loaded from disk do not
/// count: the cache directory bounds them.
const MAX_COMPUTED: usize = 1024;

/// Past [`MAX_COMPUTED`], drops the least recently used computed
/// entries down to three quarters of the limit, so eviction scans run
/// once per quarter-limit of new entries. Their records stay on disk;
/// a later request for one simulates it again.
fn evict_least_recent(map: &mut BTreeMap<Digest, Slot>) {
    if map.len() <= MAX_COMPUTED {
        return;
    }
    let mut computed: Vec<(u64, Digest)> = map
        .iter()
        .filter_map(|(key, slot)| match slot {
            Slot::Computed(_, used) => Some((*used, *key)),
            _ => None,
        })
        .collect();
    if computed.len() <= MAX_COMPUTED {
        return;
    }
    computed.sort_unstable();
    for (_, key) in &computed[..computed.len() - MAX_COMPUTED * 3 / 4] {
        map.remove(key);
    }
}

/// The persistence backing, resolved at most once per process.
#[derive(Debug)]
enum PersistState {
    /// Neither [`set_cache_dir`] nor `NVP_CACHE_DIR` consulted yet.
    Unresolved,
    /// Memory-only (no directory configured, or opening one failed).
    Disabled,
    /// Appending to (and loaded from) an open store.
    Active(PersistentStore),
}

static CACHE: Mutex<BTreeMap<Digest, Slot>> = Mutex::new(BTreeMap::new());
/// Signalled whenever a [`Slot::Filling`] entry is resolved or cleared.
static FILLED: Condvar = Condvar::new();
/// Orders uses of computed entries, for [`evict_least_recent`].
static USE_CLOCK: AtomicU64 = AtomicU64::new(0);
static PERSIST: Mutex<PersistState> = Mutex::new(PersistState::Unresolved);
static HITS: AtomicU64 = AtomicU64::new(0);
static DISK_HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);
static PERSISTED: AtomicU64 = AtomicU64::new(0);
static QUARANTINED: AtomicU64 = AtomicU64::new(0);

/// The cache map. No code panics while holding it, so a poisoned lock
/// still guards a consistent map.
fn cache() -> MutexGuard<'static, BTreeMap<Digest, Slot>> {
    CACHE.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Lock order: [`PERSIST`] strictly before the [`CACHE`] map lock
/// (never the reverse), shared by resolution, loading, and appending.
fn persist_lock() -> MutexGuard<'static, PersistState> {
    PERSIST.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Opens `dir` and merges its records into the in-memory index (never
/// overwriting an entry this process already computed or is computing).
/// Returns the number of records now serving from memory that came from
/// disk.
///
/// Entries loaded from a *previously* attached store are dropped first:
/// re-pointing the cache at a new directory must not keep serving (or
/// counting) another directory's records — the isolation the `nvpd`
/// server relies on when jobs repoint the store. Reports this process
/// computed itself stay, which is safe because keys are content
/// addresses: a hit is bit-identical wherever it came from.
fn activate(state: &mut PersistState, dir: &Path) -> std::io::Result<u64> {
    let (store, loaded) = PersistentStore::open(dir)?;
    QUARANTINED.fetch_add(loaded.quarantined, Ordering::Relaxed);
    let mut map = cache();
    map.retain(|_, slot| !matches!(slot, Slot::Disk(_)));
    let mut merged = 0u64;
    for (key, value) in loaded.records {
        map.entry(key).or_insert_with(|| {
            merged += 1;
            Slot::Disk(value)
        });
    }
    drop(map);
    *state = PersistState::Active(store);
    Ok(merged)
}

/// Points the simulation cache at a persistent directory (`Some`) or
/// pins it memory-only (`None`), overriding `NVP_CACHE_DIR`. Opening a
/// directory loads every valid record into the in-memory index
/// immediately and returns how many were merged; subsequent first-time
/// simulations are appended to it. On `Err` the cache falls back to
/// memory-only — a broken cache directory costs time, never a run.
///
/// The `repro` binary calls this with `<out_dir>/.simcache` (or `None`
/// under `--no-cache`); benchmarks call it to measure cold/warm/reload
/// behavior. Calling it again re-resolves: pointing at the same
/// directory after [`reset_sim_cache`] reloads the log from disk, and
/// pointing at a *different* directory first drops every entry the old
/// store contributed, so records never leak between cache directories
/// (see `tests/persist_cache.rs`).
pub fn set_cache_dir(dir: Option<&Path>) -> std::io::Result<u64> {
    let mut state = persist_lock();
    match dir {
        None => {
            *state = PersistState::Disabled;
            Ok(0)
        }
        Some(d) => activate(&mut state, d).inspect_err(|_| *state = PersistState::Disabled),
    }
}

/// Resolves `NVP_CACHE_DIR` on the first cache access if no explicit
/// [`set_cache_dir`] call got there first. Unset or empty means
/// memory-only, as does a directory that fails to open.
fn ensure_persist_resolved() {
    let mut state = persist_lock();
    if matches!(*state, PersistState::Unresolved) {
        *state = PersistState::Disabled;
        if let Some(dir) = std::env::var_os("NVP_CACHE_DIR").filter(|v| !v.is_empty()) {
            let _ = activate(&mut state, Path::new(&dir));
        }
    }
}

/// Best-effort append of a freshly computed value to the active store.
fn persist_append(key: &Digest, value: &SimResult) {
    let state = persist_lock();
    if let PersistState::Active(store) = &*state {
        if store.append(key, value).is_ok() {
            PERSISTED.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// The in-flight slot of one fill. Dropped once the value is installed,
/// or during unwind if the fill panicked: a slot still marked
/// [`Slot::Filling`] is cleared, and the waiters are woken either way
/// (after a panic, one of them fills the key itself).
struct Fill(Digest);

impl Drop for Fill {
    fn drop(&mut self) {
        let mut map = cache();
        if matches!(map.get(&self.0), Some(Slot::Filling)) {
            map.remove(&self.0);
        }
        drop(map);
        FILLED.notify_all();
    }
}

/// Returns the cached value for `key`, or computes it with `run` and
/// caches it. Single-flight: while one thread runs `run` (without the
/// map lock, so distinct simulations proceed in parallel), every other
/// thread asking for `key` waits for its value instead of recomputing.
/// `run` must not call back into the cache.
pub(crate) fn cached_run(key: Digest, run: impl FnOnce() -> SimResult) -> SimResult {
    ensure_persist_resolved();
    let mut map = cache();
    loop {
        match map.get_mut(&key) {
            Some(Slot::Computed(value, used)) => {
                *used = USE_CLOCK.fetch_add(1, Ordering::Relaxed);
                HITS.fetch_add(1, Ordering::Relaxed);
                return value.clone();
            }
            Some(Slot::Disk(value)) => {
                HITS.fetch_add(1, Ordering::Relaxed);
                DISK_HITS.fetch_add(1, Ordering::Relaxed);
                return value.clone();
            }
            Some(Slot::Filling) => map = FILLED.wait(map).unwrap_or_else(PoisonError::into_inner),
            None => break,
        }
    }
    map.insert(key, Slot::Filling);
    drop(map);
    let fill = Fill(key);
    let value = run();
    MISSES.fetch_add(1, Ordering::Relaxed);
    let mut map = cache();
    map.insert(key, Slot::Computed(value.clone(), USE_CLOCK.fetch_add(1, Ordering::Relaxed)));
    evict_least_recent(&mut map);
    drop(map);
    drop(fill);
    persist_append(&key, &value);
    value
}

/// Process-wide simulation-cache counters.
#[must_use]
pub fn sim_cache_stats() -> SimCacheStats {
    SimCacheStats {
        hits: HITS.load(Ordering::Relaxed),
        disk_hits: DISK_HITS.load(Ordering::Relaxed),
        misses: MISSES.load(Ordering::Relaxed),
        persisted: PERSISTED.load(Ordering::Relaxed),
        quarantined: QUARANTINED.load(Ordering::Relaxed),
    }
}

/// Clears the in-memory simulation cache and its counters (benchmarks
/// use this to measure cold- vs warm-cache runs). The persistence
/// configuration — and any on-disk records — are untouched; re-point
/// [`set_cache_dir`] at the directory to reload them. Meant for
/// quiescent moments: a fill in flight during a reset still completes,
/// but a concurrent request for its key may compute it a second time.
pub fn reset_sim_cache() {
    cache().clear();
    HITS.store(0, Ordering::Relaxed);
    DISK_HITS.store(0, Ordering::Relaxed);
    MISSES.store(0, Ordering::Relaxed);
    PERSISTED.store(0, Ordering::Relaxed);
    QUARANTINED.store(0, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_fields_are_length_prefixed() {
        // ("ab", "c") and ("a", "bc") must hash differently.
        let mut h1 = KeyHasher::new("t");
        h1.str("ab");
        h1.str("c");
        let mut h2 = KeyHasher::new("t");
        h2.str("a");
        h2.str("bc");
        assert_ne!(h1.finish(), h2.finish());
    }

    #[test]
    fn keys_are_versioned_by_the_model_fingerprint() {
        assert_eq!(MODEL_FINGERPRINT.len(), 64, "hex SHA-256 from build.rs");
        let mut plain = Sha256::new();
        plain.update(&(1u64).to_le_bytes());
        plain.update(b"t");
        assert_ne!(versioned("t").finalize(), plain.finalize(), "fingerprint mixed in");
        assert_ne!(versioned("a").finalize(), versioned("b").finalize());
    }

    #[test]
    fn trace_digest_distinguishes_traces() {
        let a = PowerTrace::from_samples(1e-4, vec![1.0e-6, 2.0e-6]);
        let b = PowerTrace::from_samples(1e-4, vec![1.0e-6, 2.0000001e-6]);
        let c = PowerTrace::from_samples(2e-4, vec![1.0e-6, 2.0e-6]);
        assert_ne!(trace_digest(&a), trace_digest(&b));
        assert_ne!(trace_digest(&a), trace_digest(&c));
        assert_eq!(trace_digest(&a), trace_digest(&a));
    }

    #[test]
    fn eviction_keeps_the_most_recently_used_computed_entries() {
        let key = |i: usize| KeyHasher::new(&format!("nvp-simcache/test:evict:{i}")).finish();
        let result = SimResult::from(RunReport::default());
        let mut map = BTreeMap::new();
        for i in 0..MAX_COMPUTED {
            map.insert(key(i), Slot::Computed(result.clone(), i as u64));
        }
        map.insert(key(MAX_COMPUTED), Slot::Disk(result.clone()));
        map.insert(key(MAX_COMPUTED + 1), Slot::Filling);
        evict_least_recent(&mut map);
        assert_eq!(map.len(), MAX_COMPUTED + 2, "only computed entries count");
        // Entry 0, the oldest, was just used again.
        map.insert(key(0), Slot::Computed(result.clone(), 2 * MAX_COMPUTED as u64));
        map.insert(key(MAX_COMPUTED + 2), Slot::Computed(result, 2 * MAX_COMPUTED as u64 + 1));
        evict_least_recent(&mut map);
        let kept = MAX_COMPUTED * 3 / 4;
        assert_eq!(map.len(), kept + 2);
        assert!(map.contains_key(&key(0)), "recently used entry kept");
        assert!(!map.contains_key(&key(1)), "least recently used entry dropped");
        assert!(map.contains_key(&key(MAX_COMPUTED - 1)));
        assert!(matches!(map.get(&key(MAX_COMPUTED)), Some(Slot::Disk(_))));
        assert!(matches!(map.get(&key(MAX_COMPUTED + 1)), Some(Slot::Filling)));
    }

    /// Single-flight: many threads asking for one fresh key run the
    /// computation once; the rest wait and are counted as hits. The
    /// fill does not finish before every thread has started its request,
    /// so the others find the slot in flight. A fill that panics leaves
    /// the key fillable.
    #[test]
    fn concurrent_requests_for_one_key_simulate_once() {
        use std::sync::atomic::AtomicUsize;
        use std::sync::Barrier;

        const THREADS: usize = 6;
        let key = KeyHasher::new("nvp-simcache/test:single-flight").finish();
        let start = Barrier::new(THREADS);
        let requested = AtomicUsize::new(0);
        let runs = AtomicUsize::new(0);
        let value = SimResult { report: RunReport::default(), latencies_ms: vec![1.5, 2.5] };
        let got: Vec<SimResult> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..THREADS)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        requested.fetch_add(1, Ordering::SeqCst);
                        cached_run(key, || {
                            runs.fetch_add(1, Ordering::SeqCst);
                            while requested.load(Ordering::SeqCst) < THREADS {
                                std::thread::yield_now();
                            }
                            value.clone()
                        })
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(runs.load(Ordering::SeqCst), 1, "one fill for one key");
        assert!(got.iter().all(|v| *v == value));

        let poisoned = KeyHasher::new("nvp-simcache/test:panicking-fill").finish();
        let panicked = std::thread::spawn(move || {
            cached_run(poisoned, || panic!("simulated fill failure"));
        })
        .join();
        assert!(panicked.is_err());
        let retried = cached_run(poisoned, || value.clone());
        assert_eq!(retried, value, "the cleared slot is filled by the next request");
    }
}
