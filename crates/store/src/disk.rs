//! The disk-backed content-addressed blob store.
//!
//! Layout under the store root:
//!
//! ```text
//! <root>/blobs/matrix/<key:016x>.blob        published artifacts
//! <root>/blobs/clustering/<key:016x>.blob
//! <root>/quarantine/<kind>-<key:016x>.blob   blobs that failed verification
//! <root>/stats.json                          cumulative hit/miss counters
//! <root>/blobs/<kind>/.tmp-*                 in-flight writes (never read)
//! ```
//!
//! Publication is atomic: a blob is written to a `.tmp-` file in its final
//! directory, fsynced, then renamed into place (and the directory synced),
//! so a reader can never observe a half-written artifact — a crash leaves
//! either the old state or the new, plus at worst a dead temp file that
//! the next open sweeps away.
//!
//! Every load re-runs the full decode verification ([`crate::codec`]);
//! a blob that fails is *moved* to the quarantine directory, counted, and
//! reported as a miss — corrupt bytes are recomputed upstream, never
//! served, and the evidence is preserved for inspection instead of being
//! silently deleted.
//!
//! Eviction is LRU by an in-process access sequence (a plain counter, not
//! a clock — the store must stay free of time sources, see the
//! `cache-key-purity` lint): when a put takes the total published bytes
//! over [`StoreOptions::byte_budget`], the least-recently-touched blobs
//! are deleted until the budget holds (the newest blob itself is always
//! kept). On open, recency is seeded in deterministic filename order.
//!
//! The hit/miss/put/eviction/quarantine counters are cumulative across
//! process restarts: they are persisted to `stats.json` (atomic
//! write-then-rename, no fsync — losing the very last update in a crash
//! costs a counter tick, not correctness) and reloaded on open, so a
//! daemon's `stats` response survives restarts. Persist failures are
//! counted (`store.stats_persist_errors`), never silently dropped.
//!
//! Every filesystem call goes through the [`crate::faultfs`] shim (the
//! `store-faultfs` lint enforces it), so the chaos harness can inject
//! schedule-deterministic crashes and errors under any of these syscalls.
//! One injected regime gets first-class handling: a put that fails with
//! `ENOSPC` flips the store into **degraded mode** — publication is
//! suspended (callers still get their computed artifacts; most puts drop
//! out early, every [`DEGRADED_PROBE_INTERVAL`]-th put probes the disk)
//! while loads keep serving hits. The first successful probe clears the
//! flag. The mode is surfaced via [`DiskStore::is_degraded`], the
//! `store.degraded` gauge, and the daemon's `health`/`stats` ops.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

use symclust_engine::json::{parse_object, JsonObject};
use symclust_obs::MetricsRegistry;

use crate::codec::{Artifact, ArtifactKind, StoreError};
use crate::faultfs;
use crate::metric_names;

const STATS_FILE: &str = "stats.json";
const BLOB_EXT: &str = "blob";

/// While the store is in `ENOSPC` degraded mode, one put out of this many
/// actually touches the disk to probe whether space came back; the rest
/// return immediately without publishing.
pub const DEGRADED_PROBE_INTERVAL: u64 = 16;

/// The raw OS error number for `ENOSPC` ("no space left on device").
const ENOSPC: i32 = 28;

/// Configuration for a [`DiskStore`].
#[derive(Debug, Clone, Copy, Default)]
pub struct StoreOptions {
    /// Maximum total bytes of published blobs; `None` disables eviction.
    /// The budget is enforced after each put: least-recently-used blobs
    /// are evicted until the total fits (the blob just published is never
    /// evicted, even if it alone exceeds the budget).
    pub byte_budget: Option<u64>,
}

/// Cumulative store counters, as returned by [`DiskStore::stats`].
///
/// The event counters (`hits` … `put_errors`) persist across process
/// restarts via the `stats.json` sidecar; `blobs` and `bytes` describe
/// what is on disk right now.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Loads served from an intact on-disk blob.
    pub hits: u64,
    /// Loads that found no blob, or found one that failed verification.
    pub misses: u64,
    /// Blobs published.
    pub puts: u64,
    /// Blobs deleted by the size-budget sweep.
    pub evictions: u64,
    /// Blobs that failed verification on load and were quarantined.
    pub quarantined: u64,
    /// Publish attempts that failed at the filesystem layer.
    pub put_errors: u64,
    /// Failed attempts to persist this very structure to `stats.json`.
    pub stats_persist_errors: u64,
    /// Blobs currently published.
    pub blobs: u64,
    /// Total bytes of currently published blobs.
    pub bytes: u64,
    /// Whether the store is currently in `ENOSPC` degraded mode.
    pub degraded: bool,
}

struct Entry {
    size: u64,
    seq: u64,
}

struct Index {
    entries: HashMap<(u8, u64), Entry>,
    total_bytes: u64,
}

/// A disk-backed content-addressed artifact store. Thread-safe; share it
/// behind an `Arc` (the daemon does).
pub struct DiskStore {
    root: PathBuf,
    options: StoreOptions,
    index: Mutex<Index>,
    next_seq: AtomicU64,
    // Cumulative counters (restored from stats.json at open).
    hits: AtomicU64,
    misses: AtomicU64,
    puts: AtomicU64,
    evictions: AtomicU64,
    quarantined: AtomicU64,
    put_errors: AtomicU64,
    stats_persist_errors: AtomicU64,
    // ENOSPC degraded mode: publication suspended, hits still served.
    degraded: AtomicBool,
    degraded_probe: AtomicU64,
    metrics: Option<MetricsRegistry>,
}

fn io_err(context: &str, path: &Path, e: std::io::Error) -> StoreError {
    StoreError::Io(format!("{context} {}: {e}", path.display()))
}

const KINDS: [ArtifactKind; 2] = [ArtifactKind::Matrix, ArtifactKind::Clustering];

impl DiskStore {
    /// Opens (creating if needed) a store rooted at `root`: builds the
    /// blob index from a deterministic directory scan, sweeps dead temp
    /// files from interrupted publications, restores the cumulative stats
    /// sidecar, and re-enforces the byte budget (a crash between a
    /// publication and its eviction sweep can leave the store over
    /// budget; recovery must not).
    pub fn open(root: impl AsRef<Path>, options: StoreOptions) -> Result<Self, StoreError> {
        let root = root.as_ref().to_path_buf();
        let mut entries = HashMap::new();
        let mut total_bytes = 0u64;
        let mut seq = 0u64;
        for kind in KINDS {
            let dir = root.join("blobs").join(kind.dir_name());
            faultfs::create_dir_all(&dir).map_err(|e| io_err("creating", &dir, e))?;
            let mut names: Vec<(String, PathBuf)> = faultfs::read_dir(&dir)
                .map_err(|e| io_err("scanning", &dir, e))?
                .filter_map(|entry| {
                    let entry = entry.ok()?;
                    Some((
                        entry.file_name().to_string_lossy().into_owned(),
                        entry.path(),
                    ))
                })
                .collect();
            // Sorted order makes cold-start LRU seeding deterministic.
            names.sort();
            for (name, path) in names {
                if name.starts_with(".tmp-") {
                    // Leftover from a publication interrupted mid-write;
                    // it was never renamed into place, so it is garbage.
                    faultfs::remove_file(&path).map_err(|e| io_err("sweeping", &path, e))?;
                    continue;
                }
                let Some(key) = parse_blob_name(&name) else {
                    continue; // foreign file; leave it alone
                };
                let meta = faultfs::metadata(&path).map_err(|e| io_err("stat", &path, e))?;
                let size = meta.len();
                entries.insert((kind.tag(), key), Entry { size, seq });
                total_bytes += size;
                seq += 1;
            }
        }
        let qdir = root.join("quarantine");
        faultfs::create_dir_all(&qdir).map_err(|e| io_err("creating", &qdir, e))?;

        let persisted = load_stats_sidecar(&root.join(STATS_FILE));
        let store = DiskStore {
            root,
            options,
            index: Mutex::new(Index {
                entries,
                total_bytes,
            }),
            next_seq: AtomicU64::new(seq),
            hits: AtomicU64::new(persisted.hits),
            misses: AtomicU64::new(persisted.misses),
            puts: AtomicU64::new(persisted.puts),
            evictions: AtomicU64::new(persisted.evictions),
            quarantined: AtomicU64::new(persisted.quarantined),
            put_errors: AtomicU64::new(persisted.put_errors),
            stats_persist_errors: AtomicU64::new(persisted.stats_persist_errors),
            degraded: AtomicBool::new(false),
            degraded_probe: AtomicU64::new(0),
            metrics: None,
        };
        // Re-enforce the budget over whatever the scan found, keeping the
        // most-recently-seeded entry (deterministic: filename order).
        let evicted = {
            let mut index = store.lock_index();
            let newest = index
                .entries
                .iter()
                .max_by_key(|(_, e)| e.seq)
                .map(|(k, _)| *k);
            match newest {
                Some(keep) => {
                    let before = store.evictions.load(Ordering::Relaxed);
                    store.evict_over_budget(&mut index, keep);
                    store.evictions.load(Ordering::Relaxed) != before
                }
                None => false,
            }
        };
        if evicted {
            store.persist_stats();
        }
        store.publish_gauges();
        Ok(store)
    }

    /// Attaches a metrics registry; subsequent store events also increment
    /// the `store.*` instruments (DESIGN.md §11).
    pub fn with_metrics(mut self, metrics: MetricsRegistry) -> Self {
        metrics
            .gauge(metric_names::STORE_BYTES)
            .set(self.bytes() as f64);
        metrics
            .gauge(metric_names::STORE_DEGRADED)
            .set(if self.is_degraded() { 1.0 } else { 0.0 });
        self.metrics = Some(metrics);
        self
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The quarantine directory (inspect after corruption incidents).
    pub fn quarantine_dir(&self) -> PathBuf {
        self.root.join("quarantine")
    }

    fn blob_path(&self, kind: ArtifactKind, key: u64) -> PathBuf {
        self.root
            .join("blobs")
            .join(kind.dir_name())
            .join(format!("{key:016x}.{BLOB_EXT}"))
    }

    fn lock_index(&self) -> std::sync::MutexGuard<'_, Index> {
        self.index.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Loads and fully verifies the artifact stored under `key`.
    ///
    /// Returns `None` — counted as a miss — when no blob exists *or* when
    /// the blob fails verification; in the latter case the blob is moved
    /// to quarantine first, so the caller's recompute-and-put replaces it.
    pub fn load<T: Artifact>(&self, key: u64) -> Option<T> {
        let kind = T::KIND;
        let path = self.blob_path(kind, key);
        let bytes = match faultfs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                self.count_miss();
                return None;
            }
            Err(_) => {
                // Unreadable blob (permissions, I/O error): treat as a
                // miss; upstream recomputes and the put will surface any
                // persistent filesystem problem.
                self.count_miss();
                return None;
            }
        };
        match T::decode(&bytes) {
            Ok(artifact) => {
                let mut index = self.lock_index();
                if let Some(entry) = index.entries.get_mut(&(kind.tag(), key)) {
                    entry.seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
                }
                drop(index);
                self.count_hit();
                Some(artifact)
            }
            Err(err) => {
                self.quarantine(kind, key, &path, &err);
                self.count_miss();
                None
            }
        }
    }

    /// Publishes `artifact` under `key` with atomic write-then-rename.
    /// Idempotent: if the key is already published, nothing is written
    /// (content addressing means the bytes would be identical). May evict
    /// least-recently-used blobs afterwards to honor the byte budget.
    /// In `ENOSPC` degraded mode the put usually returns `Ok(())` without
    /// publishing anything (the caller keeps its computed artifact; the
    /// disk is full, not the pipeline); every
    /// [`DEGRADED_PROBE_INTERVAL`]-th put probes the disk and the first
    /// success clears the mode.
    pub fn put<T: Artifact>(&self, key: u64, artifact: &T) -> Result<(), StoreError> {
        let kind = T::KIND;
        {
            let index = self.lock_index();
            if index.entries.contains_key(&(kind.tag(), key)) {
                return Ok(());
            }
        }
        if self.degraded.load(Ordering::Relaxed) {
            let probe = self.degraded_probe.fetch_add(1, Ordering::Relaxed);
            #[allow(clippy::manual_is_multiple_of)] // u64::is_multiple_of needs 1.87, MSRV is 1.75
            if probe % DEGRADED_PROBE_INTERVAL != 0 {
                return Ok(());
            }
        }
        let blob = artifact.encode();
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        let dir = self.root.join("blobs").join(kind.dir_name());
        let tmp = dir.join(format!(".tmp-{seq}-{key:016x}"));
        let dest = self.blob_path(kind, key);
        let publish = (|| -> Result<(), (&'static str, &Path, std::io::Error)> {
            faultfs::write_sync(&tmp, &blob).map_err(|e| ("writing", tmp.as_path(), e))?;
            faultfs::rename(&tmp, &dest).map_err(|e| ("publishing", dest.as_path(), e))?;
            // Make the rename itself durable (best-effort).
            let _ = faultfs::sync_dir(&dir);
            Ok(())
        })();
        if let Err((context, path, e)) = publish {
            let disk_full = e.raw_os_error() == Some(ENOSPC);
            let _ = faultfs::remove_file(&tmp);
            self.put_errors.fetch_add(1, Ordering::Relaxed);
            if let Some(m) = &self.metrics {
                m.counter(metric_names::STORE_PUT_ERRORS).inc();
            }
            if disk_full {
                self.set_degraded(true);
            }
            self.persist_stats();
            return Err(io_err(context, path, e));
        }
        // Publication works: if we were degraded, the disk has space again.
        self.set_degraded(false);
        let size = blob.len() as u64;
        {
            let mut index = self.lock_index();
            index.entries.insert((kind.tag(), key), Entry { size, seq });
            index.total_bytes += size;
            self.evict_over_budget(&mut index, (kind.tag(), key));
        }
        self.puts.fetch_add(1, Ordering::Relaxed);
        if let Some(m) = &self.metrics {
            m.counter(metric_names::STORE_PUTS).inc();
        }
        self.persist_stats();
        self.publish_gauges();
        Ok(())
    }

    /// Whether a blob is currently published under `key`.
    pub fn contains(&self, kind: ArtifactKind, key: u64) -> bool {
        self.lock_index().entries.contains_key(&(kind.tag(), key))
    }

    /// Number of currently published blobs.
    pub fn len(&self) -> usize {
        self.lock_index().entries.len()
    }

    /// Whether no blob is published.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total bytes of currently published blobs.
    pub fn bytes(&self) -> u64 {
        self.lock_index().total_bytes
    }

    /// Snapshot of the cumulative counters plus current disk occupancy.
    pub fn stats(&self) -> StoreStats {
        let (blobs, bytes) = {
            let index = self.lock_index();
            (index.entries.len() as u64, index.total_bytes)
        };
        StoreStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            puts: self.puts.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            quarantined: self.quarantined.load(Ordering::Relaxed),
            put_errors: self.put_errors.load(Ordering::Relaxed),
            stats_persist_errors: self.stats_persist_errors.load(Ordering::Relaxed),
            blobs,
            bytes,
            degraded: self.degraded.load(Ordering::Relaxed),
        }
    }

    /// Whether the store is currently in `ENOSPC` degraded mode
    /// (publication suspended, hits still served).
    pub fn is_degraded(&self) -> bool {
        self.degraded.load(Ordering::Relaxed)
    }

    /// Persists the cumulative counters right now. The daemon calls this
    /// once during drain, so a graceful shutdown never loses the final
    /// ticks between the last store event and process exit.
    pub fn flush_stats(&self) {
        self.persist_stats();
    }

    // ---------------------------------------------------------- internals

    fn evict_over_budget(&self, index: &mut Index, keep: (u8, u64)) {
        let Some(budget) = self.options.byte_budget else {
            return;
        };
        while index.total_bytes > budget && index.entries.len() > 1 {
            let victim = index
                .entries
                .iter()
                .filter(|(k, _)| **k != keep)
                .min_by_key(|(_, e)| e.seq)
                .map(|(k, _)| *k);
            let Some((tag, key)) = victim else { break };
            let Some(entry) = index.entries.remove(&(tag, key)) else {
                break;
            };
            index.total_bytes -= entry.size;
            for kind in KINDS {
                if kind.tag() == tag {
                    let _ = faultfs::remove_file(&self.blob_path(kind, key));
                }
            }
            self.evictions.fetch_add(1, Ordering::Relaxed);
            if let Some(m) = &self.metrics {
                m.counter(metric_names::STORE_EVICTIONS).inc();
            }
        }
    }

    fn quarantine(&self, kind: ArtifactKind, key: u64, path: &Path, err: &StoreError) {
        let dest = self
            .quarantine_dir()
            .join(format!("{}-{key:016x}.{BLOB_EXT}", kind.dir_name()));
        // Preserve the evidence; if a previous quarantined copy of the
        // same key exists, the newer one replaces it.
        if faultfs::rename(path, &dest).is_err() {
            // Renaming failed (e.g. racing loader already moved it) —
            // make sure the corrupt blob is at least not served again.
            let _ = faultfs::remove_file(path);
        }
        let mut index = self.lock_index();
        if let Some(entry) = index.entries.remove(&(kind.tag(), key)) {
            index.total_bytes -= entry.size;
        }
        drop(index);
        self.quarantined.fetch_add(1, Ordering::Relaxed);
        if let Some(m) = &self.metrics {
            m.counter(metric_names::STORE_QUARANTINED).inc();
        }
        self.persist_stats();
        self.publish_gauges();
        // Quarantine is an incident worth a trace: record the reason in
        // the metrics-free path too via the sidecar-adjacent log file.
        let note = self
            .quarantine_dir()
            .join(format!("{}-{key:016x}.reason.txt", kind.dir_name()));
        let _ = faultfs::write(&note, format!("{err}\n").as_bytes());
    }

    fn count_hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
        if let Some(m) = &self.metrics {
            m.counter(metric_names::STORE_HITS).inc();
        }
        self.persist_stats();
    }

    fn count_miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
        if let Some(m) = &self.metrics {
            m.counter(metric_names::STORE_MISSES).inc();
        }
        self.persist_stats();
    }

    fn publish_gauges(&self) {
        if let Some(m) = &self.metrics {
            m.gauge(metric_names::STORE_BYTES).set(self.bytes() as f64);
        }
    }

    fn set_degraded(&self, on: bool) {
        let was = self.degraded.swap(on, Ordering::Relaxed);
        if was != on {
            if let Some(m) = &self.metrics {
                m.gauge(metric_names::STORE_DEGRADED)
                    .set(if on { 1.0 } else { 0.0 });
            }
        }
    }

    /// Persists the cumulative counters to `stats.json` via atomic
    /// write-then-rename. Deliberately not fsynced: a crash can lose the
    /// last few ticks, never corrupt the file (the rename is atomic).
    /// Failures are non-fatal — the in-memory counters remain
    /// authoritative for this process's lifetime — but they are *counted*
    /// (`store.stats_persist_errors`) and surfaced via [`Self::stats`],
    /// so a daemon whose sidecar silently stopped updating is visible.
    fn persist_stats(&self) {
        let mut obj = JsonObject::new();
        obj.number("hits", self.hits.load(Ordering::Relaxed) as f64);
        obj.number("misses", self.misses.load(Ordering::Relaxed) as f64);
        obj.number("puts", self.puts.load(Ordering::Relaxed) as f64);
        obj.number("evictions", self.evictions.load(Ordering::Relaxed) as f64);
        obj.number(
            "quarantined",
            self.quarantined.load(Ordering::Relaxed) as f64,
        );
        obj.number("put_errors", self.put_errors.load(Ordering::Relaxed) as f64);
        obj.number(
            "stats_persist_errors",
            self.stats_persist_errors.load(Ordering::Relaxed) as f64,
        );
        let line = obj.finish();
        let path = self.root.join(STATS_FILE);
        let tmp = self.root.join(".stats.json.tmp");
        let written =
            faultfs::write(&tmp, line.as_bytes()).and_then(|()| faultfs::rename(&tmp, &path));
        if written.is_err() {
            self.stats_persist_errors.fetch_add(1, Ordering::Relaxed);
            if let Some(m) = &self.metrics {
                m.counter(metric_names::STORE_STATS_PERSIST_ERRORS).inc();
            }
        }
    }
}

fn parse_blob_name(name: &str) -> Option<u64> {
    let stem = name.strip_suffix(&format!(".{BLOB_EXT}"))?;
    if stem.len() != 16 {
        return None;
    }
    u64::from_str_radix(stem, 16).ok()
}

#[derive(Default)]
struct PersistedStats {
    hits: u64,
    misses: u64,
    puts: u64,
    evictions: u64,
    quarantined: u64,
    put_errors: u64,
    stats_persist_errors: u64,
}

fn load_stats_sidecar(path: &Path) -> PersistedStats {
    let Ok(text) = faultfs::read_to_string(path) else {
        return PersistedStats::default();
    };
    let Ok(map) = parse_object(text.trim()) else {
        // A corrupt sidecar resets the counters rather than failing the
        // open; losing cumulative stats is an annoyance, not an outage.
        return PersistedStats::default();
    };
    let get = |k: &str| map.get(k).and_then(|v| v.as_f64()).unwrap_or(0.0) as u64;
    PersistedStats {
        hits: get("hits"),
        misses: get("misses"),
        puts: get("puts"),
        evictions: get("evictions"),
        quarantined: get("quarantined"),
        put_errors: get("put_errors"),
        stats_persist_errors: get("stats_persist_errors"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use symclust_sparse::CsrMatrix;

    static TEST_DIR_SEQ: AtomicU64 = AtomicU64::new(0);

    fn temp_store_dir(tag: &str) -> PathBuf {
        let n = TEST_DIR_SEQ.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "symclust_store_test_{}_{tag}_{n}",
            std::process::id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn matrix(scale: f64) -> CsrMatrix {
        CsrMatrix::from_dense(&[vec![0.0, scale], vec![scale * 2.0, 0.0]])
    }

    #[test]
    fn put_then_load_roundtrips() {
        let dir = temp_store_dir("roundtrip");
        let store = DiskStore::open(&dir, StoreOptions::default()).unwrap();
        let m = matrix(1.5);
        store.put(42, &m).unwrap();
        let back: CsrMatrix = store.load(42).unwrap();
        assert_eq!(back, m);
        let stats = store.stats();
        assert_eq!((stats.puts, stats.hits, stats.misses), (1, 1, 0));
        assert_eq!(stats.blobs, 1);
        assert!(stats.bytes > 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_key_is_a_miss() {
        let dir = temp_store_dir("miss");
        let store = DiskStore::open(&dir, StoreOptions::default()).unwrap();
        assert!(store.load::<CsrMatrix>(7).is_none());
        assert_eq!(store.stats().misses, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn blobs_survive_reopen() {
        let dir = temp_store_dir("reopen");
        let m = matrix(3.0);
        {
            let store = DiskStore::open(&dir, StoreOptions::default()).unwrap();
            store.put(7, &m).unwrap();
        }
        let store = DiskStore::open(&dir, StoreOptions::default()).unwrap();
        assert!(store.contains(ArtifactKind::Matrix, 7));
        let back: CsrMatrix = store.load(7).unwrap();
        assert_eq!(back, m);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stats_survive_reopen() {
        // Regression test for the satellite bugfix: `ArtifactCache` stats
        // were process-local; store stats must be cumulative across
        // restarts via the sidecar.
        let dir = temp_store_dir("stats_persist");
        {
            let store = DiskStore::open(&dir, StoreOptions::default()).unwrap();
            store.put(1, &matrix(1.0)).unwrap();
            let _: Option<CsrMatrix> = store.load(1); // hit
            let _: Option<CsrMatrix> = store.load(2); // miss
            let s = store.stats();
            assert_eq!((s.puts, s.hits, s.misses), (1, 1, 1));
        }
        let store = DiskStore::open(&dir, StoreOptions::default()).unwrap();
        let s = store.stats();
        assert_eq!(
            (s.puts, s.hits, s.misses),
            (1, 1, 1),
            "cumulative stats must survive a restart"
        );
        let _: Option<CsrMatrix> = store.load(1);
        assert_eq!(store.stats().hits, 2, "and keep accumulating");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_blob_is_quarantined_not_served() {
        let dir = temp_store_dir("quarantine");
        let store = DiskStore::open(&dir, StoreOptions::default()).unwrap();
        store.put(5, &matrix(2.0)).unwrap();
        // Flip one payload byte on disk.
        let path = store.blob_path(ArtifactKind::Matrix, 5);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();

        assert!(store.load::<CsrMatrix>(5).is_none(), "corrupt blob served");
        assert!(!path.exists(), "corrupt blob left in place");
        let quarantined: Vec<_> = std::fs::read_dir(store.quarantine_dir())
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        assert!(
            quarantined
                .iter()
                .any(|n| n.contains("matrix-") && n.ends_with(".blob")),
            "blob not moved to quarantine: {quarantined:?}"
        );
        let s = store.stats();
        assert_eq!((s.quarantined, s.misses, s.hits), (1, 1, 0));
        // The key is free again: a recompute-and-put republishes it.
        store.put(5, &matrix(2.0)).unwrap();
        assert!(store.load::<CsrMatrix>(5).is_some());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn eviction_is_lru_and_keeps_newest() {
        let dir = temp_store_dir("evict");
        let one_blob = matrix(1.0).encode().len() as u64;
        let store = DiskStore::open(
            &dir,
            StoreOptions {
                byte_budget: Some(2 * one_blob),
            },
        )
        .unwrap();
        store.put(1, &matrix(1.0)).unwrap();
        store.put(2, &matrix(2.0)).unwrap();
        // Touch key 1 so key 2 becomes the LRU victim.
        let _: Option<CsrMatrix> = store.load(1);
        store.put(3, &matrix(3.0)).unwrap();
        assert!(
            store.contains(ArtifactKind::Matrix, 1),
            "recently used evicted"
        );
        assert!(!store.contains(ArtifactKind::Matrix, 2), "LRU victim kept");
        assert!(store.contains(ArtifactKind::Matrix, 3), "newest evicted");
        assert_eq!(store.stats().evictions, 1);
        assert!(store.bytes() <= 2 * one_blob);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tiny_budget_always_keeps_the_latest_blob() {
        let dir = temp_store_dir("tiny_budget");
        let store = DiskStore::open(
            &dir,
            StoreOptions {
                byte_budget: Some(1),
            },
        )
        .unwrap();
        store.put(1, &matrix(1.0)).unwrap();
        store.put(2, &matrix(2.0)).unwrap();
        assert_eq!(store.len(), 1, "budget of 1 byte keeps exactly the newest");
        assert!(store.contains(ArtifactKind::Matrix, 2));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn put_is_idempotent_per_key() {
        let dir = temp_store_dir("idempotent");
        let store = DiskStore::open(&dir, StoreOptions::default()).unwrap();
        store.put(9, &matrix(1.0)).unwrap();
        store.put(9, &matrix(1.0)).unwrap();
        assert_eq!(store.stats().puts, 1, "second put of same key is a no-op");
        assert_eq!(store.len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn dead_temp_files_are_swept_on_open() {
        let dir = temp_store_dir("sweep");
        {
            let store = DiskStore::open(&dir, StoreOptions::default()).unwrap();
            store.put(1, &matrix(1.0)).unwrap();
        }
        let tmp = dir.join("blobs").join("matrix").join(".tmp-99-dead");
        std::fs::write(&tmp, b"half-written").unwrap();
        let store = DiskStore::open(&dir, StoreOptions::default()).unwrap();
        assert!(!tmp.exists(), "interrupted publication not swept");
        assert_eq!(store.len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn kinds_are_namespaced() {
        use symclust_cluster::Clustering;
        let dir = temp_store_dir("kinds");
        let store = DiskStore::open(&dir, StoreOptions::default()).unwrap();
        let c = Clustering::from_assignments(&[0, 1, 0]);
        store.put(11, &matrix(1.0)).unwrap();
        store.put(11, &c).unwrap(); // same key, different kind: distinct blob
        assert_eq!(store.len(), 2);
        let m: CsrMatrix = store.load(11).unwrap();
        let c2: Clustering = store.load(11).unwrap();
        assert_eq!(m, matrix(1.0));
        assert_eq!(c2, c);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reopen_with_budget_re_enforces_eviction() {
        // A crash between a publication and its eviction sweep can leave
        // the store over budget; open must bring it back under.
        let dir = temp_store_dir("evict_on_open");
        let one_blob = matrix(1.0).encode().len() as u64;
        {
            let store = DiskStore::open(&dir, StoreOptions::default()).unwrap();
            store.put(1, &matrix(1.0)).unwrap();
            store.put(2, &matrix(2.0)).unwrap();
            store.put(3, &matrix(3.0)).unwrap();
        }
        let store = DiskStore::open(
            &dir,
            StoreOptions {
                byte_budget: Some(one_blob),
            },
        )
        .unwrap();
        assert_eq!(store.len(), 1, "open left the store over budget");
        assert!(store.bytes() <= one_blob);
        assert!(
            store.contains(ArtifactKind::Matrix, 3),
            "open evicted the newest entry instead of the oldest"
        );
        assert_eq!(store.stats().evictions, 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stats_report_no_degradation_by_default() {
        let dir = temp_store_dir("not_degraded");
        let store = DiskStore::open(&dir, StoreOptions::default()).unwrap();
        store.put(1, &matrix(1.0)).unwrap();
        let s = store.stats();
        assert!(!s.degraded);
        assert!(!store.is_degraded());
        assert_eq!(s.stats_persist_errors, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn metrics_track_store_events() {
        let dir = temp_store_dir("metrics");
        let metrics = MetricsRegistry::new();
        let store = DiskStore::open(&dir, StoreOptions::default())
            .unwrap()
            .with_metrics(metrics.clone());
        store.put(1, &matrix(1.0)).unwrap();
        let _: Option<CsrMatrix> = store.load(1);
        let _: Option<CsrMatrix> = store.load(2);
        assert_eq!(metrics.counter(metric_names::STORE_PUTS).get(), 1);
        assert_eq!(metrics.counter(metric_names::STORE_HITS).get(), 1);
        assert_eq!(metrics.counter(metric_names::STORE_MISSES).get(), 1);
        assert!(metrics.gauge(metric_names::STORE_BYTES).get() > 0.0);
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[cfg(all(test, feature = "fault-injection"))]
mod fault_tests {
    use super::*;
    use crate::faultfs;
    use symclust_engine::faultplan::{FaultErrno, FaultSpec};
    use symclust_sparse::CsrMatrix;

    fn temp_store_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("symclust_store_fault_{}_{tag}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn matrix(scale: f64) -> CsrMatrix {
        CsrMatrix::from_dense(&[vec![0.0, scale], vec![scale * 2.0, 0.0]])
    }

    #[test]
    fn enospc_put_enters_degraded_mode_and_hits_keep_serving() {
        let dir = temp_store_dir("degraded");
        let store = DiskStore::open(&dir, StoreOptions::default()).unwrap();
        store.put(1, &matrix(1.0)).unwrap();

        faultfs::arm(FaultSpec {
            enospc_after: Some(0),
            ..FaultSpec::default()
        });
        let err = store.put(2, &matrix(2.0)).unwrap_err();
        assert!(
            err.to_string().contains("writing"),
            "unexpected error: {err}"
        );
        assert!(store.is_degraded(), "ENOSPC put must flip degraded mode");
        assert!(store.stats().degraded);
        assert_eq!(store.stats().put_errors, 1);

        // Hits keep serving on the full disk (reads are not injected by
        // enospc-after), and the failed key stays unpublished.
        let back: Option<CsrMatrix> = store.load(1);
        assert!(back.is_some(), "degraded mode must keep serving hits");
        assert!(!store.contains(ArtifactKind::Matrix, 2));

        // While degraded, most puts are silently suspended: the first
        // (probe 0) hits the disk and fails, the next
        // DEGRADED_PROBE_INTERVAL - 1 drop out early with Ok(()).
        assert!(
            store.put(100, &matrix(3.0)).is_err(),
            "probe 0 touches disk"
        );
        for i in 1..DEGRADED_PROBE_INTERVAL {
            assert!(
                store.put(100 + i, &matrix(3.0)).is_ok(),
                "suspended put {i} must not error"
            );
            assert!(!store.contains(ArtifactKind::Matrix, 100 + i));
        }

        // Disk space comes back: the next probe publishes and clears the
        // mode.
        faultfs::reset();
        let probe_key = 100 + DEGRADED_PROBE_INTERVAL;
        store.put(probe_key, &matrix(4.0)).unwrap();
        assert!(!store.is_degraded(), "successful probe must clear degraded");
        assert!(store.contains(ArtifactKind::Matrix, probe_key));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stats_persist_failures_are_counted_not_swallowed() {
        let dir = temp_store_dir("persist_err");
        let store = DiskStore::open(&dir, StoreOptions::default()).unwrap();

        // A miss runs: read (op 0), then persist_stats = write (op 1) +
        // rename (op 2). Injecting EIO into the sidecar write must be
        // counted, not dropped on the floor.
        faultfs::arm(FaultSpec {
            err_at: Some((1, FaultErrno::Eio)),
            ..FaultSpec::default()
        });
        assert!(store.load::<CsrMatrix>(7).is_none());
        faultfs::reset();
        let s = store.stats();
        assert_eq!((s.misses, s.stats_persist_errors), (1, 1));

        // The next successful persist carries the failure count into the
        // sidecar, so it survives a restart like every other counter.
        assert!(store.load::<CsrMatrix>(8).is_none());
        drop(store);
        let store = DiskStore::open(&dir, StoreOptions::default()).unwrap();
        assert_eq!(store.stats().stats_persist_errors, 1);
        assert_eq!(store.stats().misses, 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn injected_short_read_quarantines_instead_of_serving() {
        let dir = temp_store_dir("short_read");
        let store = DiskStore::open(&dir, StoreOptions::default()).unwrap();
        store.put(5, &matrix(2.0)).unwrap();

        faultfs::arm(FaultSpec {
            seed: 3,
            short_read_at: Some(0),
            ..FaultSpec::default()
        });
        let got: Option<CsrMatrix> = store.load(5);
        faultfs::reset();
        assert!(got.is_none(), "a truncated blob must never be served");
        let s = store.stats();
        assert_eq!((s.quarantined, s.misses), (1, 1));
        assert!(!store.contains(ArtifactKind::Matrix, 5));
        // The recompute-and-put path republishes cleanly.
        store.put(5, &matrix(2.0)).unwrap();
        let back: Option<CsrMatrix> = store.load(5);
        assert_eq!(back, Some(matrix(2.0)));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn injected_rename_failure_is_a_put_error_and_cleans_the_temp() {
        let dir = temp_store_dir("rename_fail");
        let store = DiskStore::open(&dir, StoreOptions::default()).unwrap();

        // put = create (0) + write (1) + fsync (2) + rename (3) + ...
        faultfs::arm(FaultSpec {
            err_at: Some((3, FaultErrno::Eio)),
            ..FaultSpec::default()
        });
        assert!(store.put(9, &matrix(1.0)).is_err());
        faultfs::reset();
        assert_eq!(store.stats().put_errors, 1);
        assert!(!store.contains(ArtifactKind::Matrix, 9));
        let leftovers: Vec<String> = std::fs::read_dir(dir.join("blobs").join("matrix"))
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        assert!(
            leftovers.iter().all(|n| !n.starts_with(".tmp-")),
            "failed publication left a temp file: {leftovers:?}"
        );
        // The same key publishes fine afterwards.
        store.put(9, &matrix(1.0)).unwrap();
        assert!(store.contains(ArtifactKind::Matrix, 9));
        std::fs::remove_dir_all(&dir).ok();
    }
}
