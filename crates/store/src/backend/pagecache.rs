//! Bounded LRU cache of byte ranges fetched through an
//! [`ObjectStore`].
//!
//! Pruned scans touch a segment's tail, header, index block, and only
//! the page groups that survive zone/bloom pruning — small ranges that
//! repeat across overlapping windows. Caching them by **content
//! identity** (the manifest's `file@crc` cache key plus the range)
//! means a rewritten segment can never serve stale bytes and no
//! invalidation is needed across compaction: a new CRC is a new key.
//!
//! Capacity is in bytes. Entries are `Arc`-shared so a hit never copies
//! the range; eviction is LRU by a monotonic clock stamp. It is the
//! store's only cache: row and columnar scans both read through it.
//! Hits, misses, and
//! evictions feed the `store.backend.*` counters; configured capacity
//! and resident bytes are exported as gauges for the run summary.

use super::{get_range_retry, ObjectStore};
use crate::error::Result;
use blockdec_obs::metrics::{counter, Counter};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// `(hit, miss, evict)` counters, looked up once.
fn page_counters() -> &'static (Arc<Counter>, Arc<Counter>, Arc<Counter>) {
    static COUNTERS: OnceLock<(Arc<Counter>, Arc<Counter>, Arc<Counter>)> = OnceLock::new();
    COUNTERS.get_or_init(|| {
        (
            counter("store.backend.hit"),
            counter("store.backend.miss"),
            counter("store.backend.evict"),
        )
    })
}

/// Cache key: content identity of the object plus the byte range.
type RangeKey = (String, u64, u32);

struct Inner {
    map: BTreeMap<RangeKey, (u64, Arc<Vec<u8>>)>,
    clock: u64,
    capacity_bytes: usize,
    resident_bytes: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
}

/// Point-in-time snapshot of a [`PageCache`]'s counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PageCacheStats {
    /// Range lookups served from memory.
    pub hits: u64,
    /// Range lookups that went to the backend.
    pub misses: u64,
    /// Ranges dropped to stay under capacity.
    pub evictions: u64,
    /// Configured capacity in bytes.
    pub capacity_bytes: usize,
    /// Bytes currently resident.
    pub resident_bytes: usize,
}

/// See the [module docs](self).
pub struct PageCache {
    inner: Mutex<Inner>,
}

impl PageCache {
    /// A cache holding up to `capacity_bytes` of ranges. Capacity 0
    /// disables caching (every fetch goes to the backend).
    pub fn new(capacity_bytes: usize) -> PageCache {
        blockdec_obs::counter("store.backend.capacity_bytes").set(capacity_bytes as u64);
        PageCache {
            inner: Mutex::new(Inner {
                map: BTreeMap::new(),
                clock: 0,
                capacity_bytes,
                resident_bytes: 0,
                hits: 0,
                misses: 0,
                evictions: 0,
            }),
        }
    }

    /// Lock the cache state, ignoring poison (the cache holds only
    /// plain data, so a panicking reader cannot corrupt it logically).
    fn locked(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Change the capacity, evicting down to the new bound immediately.
    pub fn set_capacity(&self, capacity_bytes: usize) {
        let mut inner = self.locked();
        inner.capacity_bytes = capacity_bytes;
        Self::evict_over_capacity(&mut inner);
        blockdec_obs::counter("store.backend.capacity_bytes").set(capacity_bytes as u64);
        blockdec_obs::counter("store.backend.resident_bytes").set(inner.resident_bytes as u64);
    }

    /// Fetch `[offset, offset+len)` of `name` through `store`, serving
    /// from cache when the same range of the same content (`key`) is
    /// resident. Misses read through [`get_range_retry`], so transient
    /// backend faults are retried before anything is cached.
    pub fn get_range(
        &self,
        store: &dyn ObjectStore,
        key: &str,
        name: &str,
        offset: u64,
        len: usize,
    ) -> Result<Arc<Vec<u8>>> {
        let range_key: RangeKey = (key.to_string(), offset, len as u32);
        {
            let mut inner = self.locked();
            inner.clock += 1;
            let clock = inner.clock;
            if let Some((stamp, bytes)) = inner.map.get_mut(&range_key) {
                *stamp = clock;
                let bytes = Arc::clone(bytes);
                inner.hits += 1;
                drop(inner);
                page_counters().0.inc();
                return Ok(bytes);
            }
            inner.misses += 1;
        }
        page_counters().1.inc();
        // Fetch outside the lock: the backend may be slow by design.
        let bytes = Arc::new(get_range_retry(store, name, offset, len)?);
        let mut inner = self.locked();
        if inner.capacity_bytes > 0 && len <= inner.capacity_bytes {
            inner.clock += 1;
            let clock = inner.clock;
            if inner
                .map
                .insert(range_key, (clock, Arc::clone(&bytes)))
                .is_none()
            {
                inner.resident_bytes += len;
            }
            Self::evict_over_capacity(&mut inner);
            blockdec_obs::counter("store.backend.resident_bytes").set(inner.resident_bytes as u64);
        }
        Ok(bytes)
    }

    fn evict_over_capacity(inner: &mut Inner) {
        while inner.resident_bytes > inner.capacity_bytes && !inner.map.is_empty() {
            let Some(oldest) = inner
                .map
                .iter()
                .min_by_key(|(_, (stamp, _))| *stamp)
                .map(|(k, _)| k.clone())
            else {
                break;
            };
            if let Some((_, bytes)) = inner.map.remove(&oldest) {
                inner.resident_bytes -= bytes.len();
                inner.evictions += 1;
                page_counters().2.inc();
            }
        }
    }

    /// Drop every cached range.
    pub fn clear(&self) {
        let mut inner = self.locked();
        inner.map.clear();
        inner.resident_bytes = 0;
        blockdec_obs::counter("store.backend.resident_bytes").set(0);
    }

    /// Current counters and occupancy.
    pub fn stats(&self) -> PageCacheStats {
        let inner = self.locked();
        PageCacheStats {
            hits: inner.hits,
            misses: inner.misses,
            evictions: inner.evictions,
            capacity_bytes: inner.capacity_bytes,
            resident_bytes: inner.resident_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::LocalFs;
    use super::*;
    use std::fs;

    fn tmp_store(tag: &str) -> (std::path::PathBuf, LocalFs) {
        let d = std::env::temp_dir().join(format!(
            "blockdec-pagecache-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).unwrap();
        let store = LocalFs::new(&d);
        store
            .put_atomic("blob", &(0..=255u8).collect::<Vec<_>>())
            .unwrap();
        (d, store)
    }

    #[test]
    fn hits_serve_from_memory() {
        let (dir, store) = tmp_store("hits");
        let cache = PageCache::new(1024);
        let a = cache.get_range(&store, "blob@1", "blob", 0, 16).unwrap();
        let b = cache.get_range(&store, "blob@1", "blob", 0, 16).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(&a[..4], &[0, 1, 2, 3]);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert_eq!(stats.resident_bytes, 16);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn distinct_content_keys_never_alias() {
        // Same name + range but a different content key (a rewritten
        // segment) must refetch, never serve the old bytes.
        let (dir, store) = tmp_store("alias");
        let cache = PageCache::new(1024);
        cache.get_range(&store, "blob@1", "blob", 0, 8).unwrap();
        store.put_atomic("blob", &[9u8; 256]).unwrap();
        let fresh = cache.get_range(&store, "blob@2", "blob", 0, 8).unwrap();
        assert_eq!(&fresh[..], &[9u8; 8]);
        assert_eq!(cache.stats().misses, 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn capacity_bounds_resident_bytes_lru() {
        let (dir, store) = tmp_store("lru");
        let cache = PageCache::new(64);
        for off in [0u64, 32, 64] {
            cache.get_range(&store, "blob@1", "blob", off, 32).unwrap();
        }
        let stats = cache.stats();
        assert!(stats.resident_bytes <= 64, "{stats:?}");
        assert_eq!(stats.evictions, 1);
        // Oldest range (offset 0) was evicted; refetch misses.
        cache.get_range(&store, "blob@1", "blob", 0, 32).unwrap();
        assert_eq!(cache.stats().misses, 4);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn zero_capacity_never_caches() {
        let (dir, store) = tmp_store("zero");
        let cache = PageCache::new(0);
        cache.get_range(&store, "blob@1", "blob", 0, 8).unwrap();
        cache.get_range(&store, "blob@1", "blob", 0, 8).unwrap();
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (0, 2));
        assert_eq!(stats.resident_bytes, 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn clear_empties_the_cache() {
        let (dir, store) = tmp_store("clear");
        let cache = PageCache::new(1024);
        cache.get_range(&store, "blob@1", "blob", 0, 8).unwrap();
        cache.clear();
        assert_eq!(cache.stats().resident_bytes, 0);
        cache.get_range(&store, "blob@1", "blob", 0, 8).unwrap();
        assert_eq!(cache.stats().misses, 2);
        fs::remove_dir_all(&dir).unwrap();
    }
}
