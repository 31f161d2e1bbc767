//! A counting, timing [`ObjectStore`] wrapped around [`LocalFs`] in the
//! traced run, so backend work is measured where it happens.

use blockdec_store::error::Result;
use blockdec_store::{LocalFs, ObjectStore};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

/// Backend counters. Statistics only, so every update is `Relaxed`.
#[derive(Default)]
pub struct BackendStats {
    pub get_bytes: AtomicU64,
    pub get_range_calls: AtomicU64,
    pub get_range_bytes: AtomicU64,
    pub put_calls: AtomicU64,
    pub put_bytes: AtomicU64,
    pub put_ns: AtomicU64,
    pub segment_puts: AtomicU64,
    pub segment_bytes: AtomicU64,
}

/// A point-in-time copy of [`BackendStats`].
#[derive(Clone, Copy, Debug, Default)]
pub struct Snapshot {
    pub get_bytes: u64,
    pub get_range_calls: u64,
    pub get_range_bytes: u64,
    pub put_calls: u64,
    pub put_bytes: u64,
    pub put_ns: u64,
    pub segment_puts: u64,
    pub segment_bytes: u64,
}

impl BackendStats {
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            get_bytes: self.get_bytes.load(Relaxed),
            get_range_calls: self.get_range_calls.load(Relaxed),
            get_range_bytes: self.get_range_bytes.load(Relaxed),
            put_calls: self.put_calls.load(Relaxed),
            put_bytes: self.put_bytes.load(Relaxed),
            put_ns: self.put_ns.load(Relaxed),
            segment_puts: self.segment_puts.load(Relaxed),
            segment_bytes: self.segment_bytes.load(Relaxed),
        }
    }
}

impl Snapshot {
    /// Counter growth from `earlier` to `self`.
    pub fn since(&self, earlier: &Snapshot) -> Snapshot {
        Snapshot {
            get_bytes: self.get_bytes - earlier.get_bytes,
            get_range_calls: self.get_range_calls - earlier.get_range_calls,
            get_range_bytes: self.get_range_bytes - earlier.get_range_bytes,
            put_calls: self.put_calls - earlier.put_calls,
            put_bytes: self.put_bytes - earlier.put_bytes,
            put_ns: self.put_ns - earlier.put_ns,
            segment_puts: self.segment_puts - earlier.segment_puts,
            segment_bytes: self.segment_bytes - earlier.segment_bytes,
        }
    }
}

/// [`LocalFs`] plus counters for every read and write.
pub struct CountingStore {
    inner: LocalFs,
    stats: Arc<BackendStats>,
}

impl CountingStore {
    pub fn new(dir: &Path, stats: Arc<BackendStats>) -> CountingStore {
        CountingStore {
            inner: LocalFs::new(dir),
            stats,
        }
    }
}

/// The backend a store handle is built on: plain [`LocalFs`] for the
/// end-to-end run, the counting wrapper when `stats` is given.
pub fn backend(dir: &Path, stats: Option<&Arc<BackendStats>>) -> Arc<dyn ObjectStore> {
    match stats {
        Some(s) => Arc::new(CountingStore::new(dir, Arc::clone(s))),
        None => Arc::new(LocalFs::new(dir)),
    }
}

impl ObjectStore for CountingStore {
    fn describe(&self, name: &str) -> String {
        self.inner.describe(name)
    }

    fn describe_root(&self) -> String {
        self.inner.describe_root()
    }

    fn create_root(&self) -> Result<()> {
        self.inner.create_root()
    }

    fn exists(&self, name: &str) -> bool {
        self.inner.exists(name)
    }

    fn size(&self, name: &str) -> Result<u64> {
        self.inner.size(name)
    }

    fn get(&self, name: &str) -> Result<Vec<u8>> {
        let bytes = self.inner.get(name)?;
        self.stats.get_bytes.fetch_add(bytes.len() as u64, Relaxed);
        Ok(bytes)
    }

    fn get_range(&self, name: &str, offset: u64, len: usize) -> Result<Vec<u8>> {
        let bytes = self.inner.get_range(name, offset, len)?;
        self.stats.get_range_calls.fetch_add(1, Relaxed);
        self.stats
            .get_range_bytes
            .fetch_add(bytes.len() as u64, Relaxed);
        Ok(bytes)
    }

    fn put_atomic(&self, name: &str, bytes: &[u8]) -> Result<()> {
        let t = Instant::now();
        let out = self.inner.put_atomic(name, bytes);
        let ns = u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.stats.put_calls.fetch_add(1, Relaxed);
        self.stats.put_bytes.fetch_add(bytes.len() as u64, Relaxed);
        self.stats.put_ns.fetch_add(ns, Relaxed);
        if name.ends_with(".bds") {
            self.stats.segment_puts.fetch_add(1, Relaxed);
            self.stats
                .segment_bytes
                .fetch_add(bytes.len() as u64, Relaxed);
        }
        out
    }

    fn list(&self) -> Result<Vec<String>> {
        self.inner.list()
    }

    fn quarantine(&self, name: &str) -> Result<()> {
        self.inner.quarantine(name)
    }

    fn remove(&self, name: &str) -> Result<()> {
        self.inner.remove(name)
    }

    fn sweep_temps(&self) -> Result<usize> {
        self.inner.sweep_temps()
    }
}
