//! The public store API: [`BlockStore`].

use crate::backend::{get_retry, LocalFs, ObjectStore, PageCache, PageCacheStats};
use crate::catalog::{segment_file_name, Manifest, SegmentMeta, MANIFEST_NAME};
use crate::compactor::{CompactionPolicy, Compactor};
use crate::dictionary::{load_dictionary, save_dictionary, DICTIONARY_NAME};
use crate::error::{Result, StoreError};
use crate::row::{weight_to_millis, RowRecord};
use crate::segment::{
    read_segment_file, write_segment_file, PrunedDecode, SegmentDecoder, SEGMENT_ROWS,
};
use crate::zonemap::ZoneMap;
use blockdec_chain::{
    AttributedBlock, BlockColumns, Credit, ProducerId, ProducerRegistry, Timestamp,
};
use std::path::Path;
use std::sync::Arc;

/// Filter for [`BlockStore::scan`]. All bounds are inclusive; `None`
/// means unconstrained.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScanPredicate {
    /// Height range.
    pub heights: Option<(u64, u64)>,
    /// Timestamp range (seconds).
    pub times: Option<(i64, i64)>,
    /// Restrict to a single producer id.
    pub producer: Option<u32>,
}

impl ScanPredicate {
    /// Match everything.
    pub fn all() -> ScanPredicate {
        ScanPredicate::default()
    }

    /// Restrict to a height range (inclusive).
    pub fn heights(mut self, lo: u64, hi: u64) -> Self {
        self.heights = Some((lo, hi));
        self
    }

    /// Restrict to a timestamp range (inclusive).
    pub fn times(mut self, lo: i64, hi: i64) -> Self {
        self.times = Some((lo, hi));
        self
    }

    /// Restrict to one producer.
    pub fn producer(mut self, id: u32) -> Self {
        self.producer = Some(id);
        self
    }

    /// Row-level test.
    pub fn matches(&self, row: &RowRecord) -> bool {
        if let Some((lo, hi)) = self.heights {
            if row.height < lo || row.height > hi {
                return false;
            }
        }
        if let Some((lo, hi)) = self.times {
            if row.timestamp < lo || row.timestamp > hi {
                return false;
            }
        }
        if let Some(p) = self.producer {
            if row.producer != p {
                return false;
            }
        }
        true
    }

    /// True when the predicate can skip page groups inside a segment —
    /// i.e. any bound is set. The unconstrained predicate decodes every
    /// row anyway, so a ranged (page-by-page) read would only add
    /// round-trips over fetching the whole object once.
    pub fn can_prune(&self) -> bool {
        self.heights.is_some() || self.times.is_some() || self.producer.is_some()
    }

    /// Segment-level test against a zone map.
    pub fn may_match(&self, zone: &ZoneMap) -> bool {
        if let Some((lo, hi)) = self.heights {
            if !zone.overlaps_heights(lo, hi) {
                return false;
            }
        }
        if let Some((lo, hi)) = self.times {
            if !zone.overlaps_times(lo, hi) {
                return false;
            }
        }
        true
    }
}

/// Why a segment can be skipped without opening its file, if it can.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Prune {
    /// The segment may hold matching rows — it must be read.
    No,
    /// The zone map proves no row is in the predicate's height/time range.
    Zone,
    /// The producer bloom filter proves the scanned producer is absent.
    Bloom,
}

/// Decide segment-level pruning from manifest metadata alone: the zone
/// map first (cheapest), then the mirrored producer bloom filter. Both
/// are conservative — a pruned segment provably holds no matching row.
fn prune_segment(pred: &ScanPredicate, seg: &SegmentMeta) -> Prune {
    if !pred.may_match(&seg.zone) {
        return Prune::Zone;
    }
    if let Some(p) = pred.producer {
        if !seg.producers.contains(p) {
            return Prune::Bloom;
        }
    }
    Prune::No
}

/// Pruning statistics of one scan.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScanStats {
    /// Sealed segments in the catalog.
    pub segments_total: usize,
    /// Segments skipped without being opened — by zone-map pruning or a
    /// producer bloom miss (the bloom subset is also in
    /// [`ScanStats::bloom_skips`]).
    pub segments_pruned: usize,
    /// Segments skipped because the manifest's producer bloom filter
    /// proved the scanned producer absent (never a false skip: bloom
    /// filters have no false negatives).
    pub bloom_skips: usize,
    /// CRC-framed column pages skipped *inside* decoded segments via the
    /// v3 per-group index (zone or group-bloom miss). Row and columnar
    /// scans share one decode loop, so both report the same count.
    pub pages_pruned: u64,
    /// Unreadable segments skipped by a degraded scan (always 0 for a
    /// strict scan, which errors instead). See [`ScanOptions`].
    pub segments_skipped: usize,
    /// Rows returned.
    pub rows_returned: u64,
}

/// Read-path behavior knobs for scans.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScanOptions {
    /// When true, a segment that fails to read or decode is skipped
    /// (counted in [`ScanStats::segments_skipped`] and in the
    /// `store.fault.segments_skipped` counter) instead of aborting the
    /// scan — a *degraded* scan that returns every surviving row.
    pub skip_corrupt: bool,
    /// Decode worker threads for columnar scans
    /// ([`BlockStore::scan_columnar_with`]): `0` means one per available
    /// CPU, `1` decodes inline on the calling thread. Row scans are
    /// always sequential and ignore this.
    pub threads: usize,
}

impl ScanOptions {
    /// Strict scanning (the default): any unreadable segment is an error.
    pub fn strict() -> ScanOptions {
        ScanOptions::default()
    }

    /// Degraded scanning: skip unreadable segments, return survivors.
    pub fn degraded() -> ScanOptions {
        ScanOptions {
            skip_corrupt: true,
            ..ScanOptions::default()
        }
    }

    /// Same options with an explicit columnar decode thread count.
    pub fn with_threads(mut self, threads: usize) -> ScanOptions {
        self.threads = threads;
        self
    }
}

/// An embedded columnar block store rooted at a directory.
///
/// ```
/// use blockdec_store::{BlockStore, RowRecord, ScanPredicate};
/// let dir = std::env::temp_dir().join(format!("blockdec-doc-{}", std::process::id()));
/// let _ = std::fs::remove_dir_all(&dir);
/// let mut store = BlockStore::create(&dir).unwrap();
/// let pool = store.intern_producer("F2Pool");
/// store.append_rows(&[RowRecord {
///     height: 556_459,
///     timestamp: 1_546_300_800,
///     producer: pool,
///     credit_millis: 1_000,
///     tx_count: 2_500,
///     size_bytes: 1_100_000,
///     difficulty: 5_618_595_848_853,
/// }]).unwrap();
/// store.flush().unwrap();
/// let rows = store.scan(&ScanPredicate::all().heights(556_000, 557_000)).unwrap();
/// assert_eq!(rows.len(), 1);
/// # std::fs::remove_dir_all(&dir).unwrap();
/// ```
pub struct BlockStore {
    store: Arc<dyn ObjectStore>,
    manifest: Manifest,
    registry: ProducerRegistry,
    pages: PageCache,
    active: Vec<RowRecord>,
    last_height: Option<u64>,
    scan_threads: usize,
    compact_policy: Option<CompactionPolicy>,
}

/// Default page-cache capacity in mebibytes.
const DEFAULT_PAGE_CACHE_MB: u64 = 64;

/// Page-cache capacity in bytes: `BLOCKDEC_PAGE_CACHE_MB` (in MiB) when
/// set and parseable, 64 MiB otherwise.
pub fn default_page_cache_bytes() -> usize {
    let mb = std::env::var("BLOCKDEC_PAGE_CACHE_MB")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(DEFAULT_PAGE_CACHE_MB);
    usize::try_from(mb.saturating_mul(1024 * 1024)).unwrap_or(usize::MAX)
}

fn fresh_handle(store: Arc<dyn ObjectStore>, manifest: Manifest) -> BlockStore {
    let last_height = manifest.segments.last().map(|s| s.zone.max_height);
    BlockStore {
        store,
        manifest,
        registry: ProducerRegistry::new(),
        pages: PageCache::new(default_page_cache_bytes()),
        active: Vec::new(),
        last_height,
        scan_threads: 0,
        compact_policy: None,
    }
}

impl BlockStore {
    /// Create a new store in `dir` (created if missing; must not already
    /// contain a manifest).
    pub fn create(dir: impl AsRef<Path>) -> Result<BlockStore> {
        BlockStore::create_with(Arc::new(LocalFs::new(dir)))
    }

    /// [`BlockStore::create`] over an explicit [`ObjectStore`] backend.
    pub fn create_with(backend: Arc<dyn ObjectStore>) -> Result<BlockStore> {
        backend.create_root()?;
        if backend.exists(MANIFEST_NAME) {
            return Err(StoreError::InvalidAppend(format!(
                "store already exists at {}",
                backend.describe_root()
            )));
        }
        let store = fresh_handle(backend, Manifest::new());
        store.manifest.save(store.store.as_ref())?;
        save_dictionary(store.store.as_ref(), &store.registry)?;
        Ok(store)
    }

    /// Open an existing store.
    ///
    /// Recovers from interrupted commits first: stale `*.tmp` crash
    /// artifacts are swept into quarantine (the previous committed state
    /// is what the manifest describes), and a store whose manifest
    /// commits zero rows may be missing its dictionary (crash between
    /// `create`'s two commits) — an empty dictionary is recreated in
    /// that case.
    pub fn open(dir: impl AsRef<Path>) -> Result<BlockStore> {
        BlockStore::open_with(Arc::new(LocalFs::new(dir)))
    }

    /// [`BlockStore::open`] over an explicit [`ObjectStore`] backend.
    pub fn open_with(backend: Arc<dyn ObjectStore>) -> Result<BlockStore> {
        let swept = backend.sweep_temps()?;
        if swept > 0 {
            blockdec_obs::warn!(
                swept = swept;
                "quarantined stale temp files from an interrupted commit"
            );
        }
        let manifest = Manifest::load(backend.as_ref())?;
        if !backend.exists(DICTIONARY_NAME) && manifest.total_rows() == 0 {
            save_dictionary(backend.as_ref(), &ProducerRegistry::new())?;
        }
        let registry = load_dictionary(backend.as_ref())?;
        let mut store = fresh_handle(backend, manifest);
        store.registry = registry;
        Ok(store)
    }

    /// Set the default decode thread count for this handle's columnar
    /// scans: `0` (the initial value) means one per available CPU, `1`
    /// forces sequential decoding. Explicit [`ScanOptions`] passed to
    /// [`BlockStore::scan_columnar_with`] take precedence.
    pub fn set_scan_threads(&mut self, threads: usize) {
        self.scan_threads = threads;
    }

    /// Opt in to background-style compaction on flush: after each flush
    /// commit, runs of small height-adjacent segments matching `policy`
    /// are merged into large sorted segments. `None` (the initial value)
    /// leaves compaction to explicit [`BlockStore::compact`] calls.
    pub fn set_compaction_policy(&mut self, policy: Option<CompactionPolicy>) {
        self.compact_policy = policy;
    }

    /// Open if a manifest exists, otherwise create.
    pub fn open_or_create(dir: impl AsRef<Path>) -> Result<BlockStore> {
        BlockStore::open_or_create_with(Arc::new(LocalFs::new(dir)))
    }

    /// [`BlockStore::open_or_create`] over an explicit [`ObjectStore`]
    /// backend.
    pub fn open_or_create_with(backend: Arc<dyn ObjectStore>) -> Result<BlockStore> {
        if backend.exists(MANIFEST_NAME) {
            BlockStore::open_with(backend)
        } else {
            BlockStore::create_with(backend)
        }
    }

    /// Resize the backend page cache (bytes; `0` disables caching).
    pub fn set_page_cache_bytes(&mut self, capacity: usize) {
        self.pages.set_capacity(capacity);
    }

    /// The backend this store reads and writes through.
    pub fn backend(&self) -> &Arc<dyn ObjectStore> {
        &self.store
    }

    /// The store's producer dictionary.
    pub fn registry(&self) -> &ProducerRegistry {
        &self.registry
    }

    /// Intern a producer name into the store's dictionary.
    pub fn intern_producer(&mut self, name: &str) -> u32 {
        self.registry.intern(name).0
    }

    /// Total rows (sealed + buffered).
    pub fn row_count(&self) -> u64 {
        self.manifest.total_rows() + self.active.len() as u64
    }

    /// Sealed segment count.
    pub fn segment_count(&self) -> usize {
        self.manifest.segments.len()
    }

    /// Rows buffered in memory, not yet sealed.
    pub fn buffered_rows(&self) -> usize {
        self.active.len()
    }

    /// Height of the last appended row (sealed or buffered); `None` for
    /// an empty store. Head-following ingestion uses this as the
    /// finalized watermark when it adopts an existing store.
    pub fn last_height(&self) -> Option<u64> {
        self.last_height
    }

    fn check_order(&mut self, rows: &[RowRecord]) -> Result<()> {
        let mut last = self.last_height;
        for r in rows {
            check_height(last, r.height)?;
            if r.producer as usize >= self.registry.len() {
                return Err(StoreError::InvalidAppend(format!(
                    "producer id {} not in dictionary (len {})",
                    r.producer,
                    self.registry.len()
                )));
            }
            last = Some(r.height);
        }
        self.last_height = last;
        Ok(())
    }

    /// Append raw rows (producer ids must already be interned via
    /// [`Self::intern_producer`]). Heights must be non-decreasing across
    /// the store's lifetime.
    ///
    /// Full segments are sealed eagerly to bound memory: a partially
    /// filled buffer is topped up to one segment first, then every whole
    /// [`SEGMENT_ROWS`] slice is sealed straight from `rows`, and only
    /// the tail is copied into the buffer.
    pub fn append_rows(&mut self, rows: &[RowRecord]) -> Result<()> {
        self.check_order(rows)?;
        let mut rest = rows;
        if !self.active.is_empty() {
            let room = SEGMENT_ROWS.saturating_sub(self.active.len());
            let (head, tail) = rest.split_at(room.min(rest.len()));
            self.active.extend_from_slice(head);
            rest = tail;
            if self.active.len() >= SEGMENT_ROWS {
                self.seal_active()?;
            }
        }
        let mut whole = rest.chunks_exact(SEGMENT_ROWS);
        for chunk in &mut whole {
            self.seal_eager(chunk)?;
        }
        self.active.extend_from_slice(whole.remainder());
        Ok(())
    }

    /// Append attributed blocks whose producer ids refer to
    /// `src_registry`; names are re-interned into the store's own
    /// dictionary.
    ///
    /// The whole call is validated (heights in order, every producer in
    /// `src_registry`) and its producers interned before any row is
    /// buffered; rows are then streamed into the buffer, sealing each
    /// time it fills.
    pub fn append_attributed(
        &mut self,
        blocks: &[AttributedBlock],
        src_registry: &ProducerRegistry,
    ) -> Result<()> {
        let missing = |p: ProducerId| {
            StoreError::InvalidAppend(format!("producer {p} missing from source registry"))
        };
        let mut id_map: Vec<Option<u32>> = vec![None; src_registry.len()];
        for c in blocks.iter().flat_map(|b| &b.credits) {
            let src_idx = c.producer.index();
            if id_map.get(src_idx).copied().flatten().is_none() {
                let name = src_registry
                    .name(c.producer)
                    .ok_or_else(|| missing(c.producer))?;
                let mapped = self.registry.intern(name).0;
                if let Some(slot) = id_map.get_mut(src_idx) {
                    *slot = Some(mapped);
                }
            }
        }
        let mut last = self.last_height;
        for b in blocks.iter().filter(|b| !b.credits.is_empty()) {
            check_height(last, b.height)?;
            last = Some(b.height);
        }
        self.last_height = last;

        for b in blocks {
            for c in &b.credits {
                let producer = id_map
                    .get(c.producer.index())
                    .copied()
                    .flatten()
                    .ok_or_else(|| missing(c.producer))?;
                self.active.push(RowRecord {
                    height: b.height,
                    timestamp: b.timestamp.secs(),
                    producer,
                    credit_millis: weight_to_millis(c.weight),
                    tx_count: 0,
                    size_bytes: 0,
                    difficulty: 0,
                });
                if self.active.len() >= SEGMENT_ROWS {
                    self.seal_active()?;
                }
            }
        }
        Ok(())
    }

    /// Seal the full buffer, keeping its allocation for the next
    /// segment's rows.
    fn seal_active(&mut self) -> Result<()> {
        let mut rows = std::mem::take(&mut self.active);
        let sealed = self.seal_eager(&rows);
        if sealed.is_ok() {
            rows.clear();
        }
        self.active = rows;
        sealed
    }

    /// A seal made inside an append, as opposed to `flush`'s own.
    fn seal_eager(&mut self, rows: &[RowRecord]) -> Result<()> {
        let _t = blockdec_obs::span_timed!("stage.store_seal", rows = rows.len());
        self.seal(rows)
    }

    fn seal(&mut self, rows: &[RowRecord]) -> Result<()> {
        debug_assert!(!rows.is_empty());
        let id = self.manifest.next_segment_id;
        let file = segment_file_name(id);
        let stamp = write_segment_file(self.store.as_ref(), &file, rows)?;
        self.manifest.segments.push(SegmentMeta {
            file,
            zone: ZoneMap::from_rows(rows),
            crc: stamp.crc,
            producers: stamp.producers,
        });
        self.manifest.next_segment_id = id + 1;
        // Commit: dictionary first (superset is harmless), then manifest.
        save_dictionary(self.store.as_ref(), &self.registry)?;
        self.manifest.save(self.store.as_ref())?;
        // No cache invalidation: the page cache is keyed by content
        // identity (file name + footer CRC), so entries for superseded
        // bytes simply stop being addressed and age out.
        Ok(())
    }

    /// Seal any buffered rows into a final (possibly short) segment and
    /// commit. Idempotent when the buffer is empty. When a compaction
    /// policy is set ([`BlockStore::set_compaction_policy`]), eligible
    /// runs of small segments are merged after the flush commit.
    pub fn flush(&mut self) -> Result<()> {
        {
            let _t = blockdec_obs::span_timed!("stage.store_flush", rows = self.active.len());
            if self.active.is_empty() {
                // Still persist dictionary growth from interning.
                save_dictionary(self.store.as_ref(), &self.registry)?;
                return Ok(());
            }
            let rows = std::mem::take(&mut self.active);
            self.seal(&rows)?;
        }
        if let Some(policy) = self.compact_policy {
            self.run_compaction(policy)?;
        }
        Ok(())
    }

    /// Scan rows matching a predicate, in height order.
    pub fn scan(&self, pred: &ScanPredicate) -> Result<Vec<RowRecord>> {
        Ok(self.scan_with_stats(pred)?.0)
    }

    /// Scan with zone-map pruning statistics.
    pub fn scan_with_stats(&self, pred: &ScanPredicate) -> Result<(Vec<RowRecord>, ScanStats)> {
        self.scan_with_options(pred, ScanOptions::strict())
    }

    /// Materializing scan under explicit [`ScanOptions`] — use
    /// [`ScanOptions::degraded`] to read past corrupt segments.
    pub fn scan_with_options(
        &self,
        pred: &ScanPredicate,
        opts: ScanOptions,
    ) -> Result<(Vec<RowRecord>, ScanStats)> {
        let mut out = Vec::new();
        let stats = self.scan_for_each_with(pred, opts, |r| out.push(*r))?;
        Ok((out, stats))
    }

    /// Visit matching rows in height order without materializing the
    /// result set — memory use is bounded by one segment's decoded page
    /// groups regardless of how many rows match. Returns pruning
    /// statistics.
    pub fn scan_for_each(
        &self,
        pred: &ScanPredicate,
        visit: impl FnMut(&RowRecord),
    ) -> Result<ScanStats> {
        self.scan_for_each_with(pred, ScanOptions::strict(), visit)
    }

    /// [`BlockStore::scan_for_each`] under explicit [`ScanOptions`].
    /// With [`ScanOptions::degraded`], an unreadable segment is skipped
    /// and counted ([`ScanStats::segments_skipped`], plus the
    /// `store.fault.segments_skipped` counter) instead of aborting —
    /// the scan yields every row of the surviving segments.
    ///
    /// Rows come from the same decode as [`BlockStore::scan_columnar`]:
    /// each surviving segment is decoded into one reused
    /// [`SegmentDecoder`], page groups the predicate rules out are never
    /// fetched, and a pruning predicate reads its ranges through the
    /// page cache. The scan is always sequential, so a visitor sees rows
    /// in exactly the order they are stored.
    pub fn scan_for_each_with(
        &self,
        pred: &ScanPredicate,
        opts: ScanOptions,
        mut visit: impl FnMut(&RowRecord),
    ) -> Result<ScanStats> {
        let _t = blockdec_obs::span_timed!("stage.scan", segments = self.manifest.segments.len());
        let (selected, mut stats) = self.select_segments(pred);
        let mut tally = DecodeTally::default();
        decode_segments(
            self.store.as_ref(),
            &self.pages,
            &selected,
            pred,
            opts,
            &mut tally,
            |r| {
                visit(r);
                stats.rows_returned += 1;
            },
        )?;
        for r in self.active.iter().filter(|r| pred.matches(r)) {
            visit(r);
            stats.rows_returned += 1;
        }
        stats.segments_skipped = tally.skipped;
        stats.pages_pruned = tally.pages_pruned;
        blockdec_obs::counter("store.rows.scanned").add(stats.rows_returned);
        blockdec_obs::counter("store.scan.pages_pruned").add(stats.pages_pruned);
        blockdec_obs::debug!(
            rows = stats.rows_returned,
            pruned = stats.segments_pruned,
            skipped = stats.segments_skipped,
            total_segments = stats.segments_total;
            "scan complete"
        );
        Ok(stats)
    }

    /// Segment-level pruning shared by every scan: the segments that
    /// must be opened, in catalog order, plus stats holding the pruned
    /// and bloom-skipped counts (also added to their obs counters).
    fn select_segments(&self, pred: &ScanPredicate) -> (Vec<&SegmentMeta>, ScanStats) {
        let mut stats = ScanStats {
            segments_total: self.manifest.segments.len(),
            ..ScanStats::default()
        };
        let mut selected = Vec::with_capacity(self.manifest.segments.len());
        for seg in &self.manifest.segments {
            match prune_segment(pred, seg) {
                Prune::Zone => stats.segments_pruned += 1,
                Prune::Bloom => {
                    stats.segments_pruned += 1;
                    stats.bloom_skips += 1;
                }
                Prune::No => selected.push(seg),
            }
        }
        blockdec_obs::counter("store.scan.segments_pruned").add(stats.segments_pruned as u64);
        blockdec_obs::counter("store.scan.bloom_skip").add(stats.bloom_skips as u64);
        (selected, stats)
    }

    /// Scan and regroup rows into attribution view (one
    /// [`AttributedBlock`] per height).
    ///
    /// Regroups rows *as they stream* out of [`BlockStore::scan_for_each`]
    /// — the full `Vec<RowRecord>` is never collected, so peak memory is
    /// one segment's decoded page groups plus the result itself. Returns
    /// [`StoreError::InconsistentCatalog`] if the scan ever yields rows
    /// out of height order (a corrupt manifest, not a caller error).
    pub fn scan_attributed(&self, pred: &ScanPredicate) -> Result<Vec<AttributedBlock>> {
        let mut out: Vec<AttributedBlock> = Vec::new();
        let mut disorder: Option<(u64, u64)> = None;
        self.scan_for_each(pred, |r| {
            if let Some(b) = out.last_mut() {
                if b.height == r.height {
                    b.credits.push(Credit {
                        producer: ProducerId(r.producer),
                        weight: r.credit(),
                    });
                    return;
                }
            }
            if let Some(b) = out.last() {
                if r.height < b.height && disorder.is_none() {
                    disorder = Some((b.height, r.height));
                }
            }
            out.push(AttributedBlock {
                height: r.height,
                timestamp: Timestamp(r.timestamp),
                credits: vec![Credit {
                    producer: ProducerId(r.producer),
                    weight: r.credit(),
                }],
            });
        })?;
        if let Some((prev, next)) = disorder {
            return Err(StoreError::InconsistentCatalog(format!(
                "scan yielded rows out of height order: height {next} after {prev}"
            )));
        }
        Ok(out)
    }

    /// Scan straight into columnar form — the fastest read path in the
    /// store. Non-pruned segments are decoded zero-copy by
    /// [`crate::segment::SegmentDecoder`] (pages borrowed from the file
    /// buffer, columns batch-decoded into reusable scratch) and pushed
    /// into [`BlockColumns`] without ever materializing a
    /// `Vec<RowRecord>`; with more than one decode thread the segment
    /// list is split into contiguous chunks, each worker builds a partial
    /// column set, and the partials are stitched back in height order.
    ///
    /// The result is bitwise-identical to the sequential row scan
    /// regrouped through [`BlockColumns::push_row`], at any thread count.
    pub fn scan_columnar(&self, pred: &ScanPredicate) -> Result<BlockColumns> {
        self.scan_columnar_filtered(pred, |_| true)
    }

    /// [`BlockStore::scan_columnar`] with an extra row-level filter the
    /// zone-mapped predicate cannot express (the query layer's residual
    /// filters). Rows rejected by `keep` never reach the columns. The
    /// filter must be `Sync`: decode workers apply it in parallel.
    pub fn scan_columnar_filtered(
        &self,
        pred: &ScanPredicate,
        keep: impl Fn(&RowRecord) -> bool + Sync,
    ) -> Result<BlockColumns> {
        let opts = ScanOptions::strict().with_threads(self.scan_threads);
        Ok(self.scan_columnar_with(pred, opts, keep)?.0)
    }

    /// The fully explicit columnar scan: predicate, [`ScanOptions`]
    /// (degraded mode and decode thread count), and a residual row
    /// filter. Returns the columns plus [`ScanStats`].
    ///
    /// Exactness contract: for any fixed store state, predicate, filter,
    /// and `skip_corrupt` setting, every thread count yields the same
    /// `BlockColumns`, the same stats, and the same error (the first
    /// unreadable segment in catalog order under strict options; the
    /// first out-of-order height pair in scan order otherwise).
    ///
    /// ```
    /// use blockdec_store::{BlockStore, RowRecord, ScanOptions, ScanPredicate};
    /// let dir = std::env::temp_dir().join(format!("blockdec-doc-par-{}", std::process::id()));
    /// let _ = std::fs::remove_dir_all(&dir);
    /// let mut store = BlockStore::create(&dir).unwrap();
    /// let pool = store.intern_producer("Ethermine");
    /// let rows: Vec<RowRecord> = (0..100)
    ///     .map(|h| RowRecord {
    ///         height: h,
    ///         timestamp: 1_546_300_800 + h as i64 * 13,
    ///         producer: pool,
    ///         credit_millis: 1_000,
    ///         tx_count: 120,
    ///         size_bytes: 30_000,
    ///         difficulty: 1,
    ///     })
    ///     .collect();
    /// for chunk in rows.chunks(40) {
    ///     store.append_rows(chunk).unwrap();
    ///     store.flush().unwrap();
    /// }
    /// let pred = ScanPredicate::all();
    /// let (sequential, _) = store
    ///     .scan_columnar_with(&pred, ScanOptions::strict().with_threads(1), |_| true)
    ///     .unwrap();
    /// let (parallel, stats) = store
    ///     .scan_columnar_with(&pred, ScanOptions::strict().with_threads(2), |_| true)
    ///     .unwrap();
    /// assert_eq!(parallel, sequential);
    /// assert_eq!(stats.rows_returned, 100);
    /// # std::fs::remove_dir_all(&dir).unwrap();
    /// ```
    pub fn scan_columnar_with(
        &self,
        pred: &ScanPredicate,
        opts: ScanOptions,
        keep: impl Fn(&RowRecord) -> bool + Sync,
    ) -> Result<(BlockColumns, ScanStats)> {
        let _t = blockdec_obs::span_timed!("stage.scan", segments = self.manifest.segments.len());
        let (selected, mut stats) = self.select_segments(pred);
        let threads = effective_scan_threads(opts.threads, selected.len());
        let backend = self.store.as_ref();
        let pages = &self.pages;
        let mut partials: Vec<ColumnarPartial> = if threads <= 1 {
            vec![decode_columnar_chunk(
                backend, pages, &selected, pred, &keep, opts,
            )]
        } else {
            let per_chunk = selected.len().div_ceil(threads);
            std::thread::scope(|scope| {
                let handles: Vec<_> = selected
                    .chunks(per_chunk)
                    .map(|segs| {
                        scope.spawn(|| {
                            decode_columnar_chunk(backend, pages, segs, pred, &keep, opts)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("decode worker never panics")) // blockdec-lint: allow(panic) — join only fails by propagating a worker panic; nothing to recover
                    .collect()
            })
        };

        // A strict decode error aborts before any stitching; chunks are
        // in catalog order, so the first chunk's error is the error the
        // sequential scan would have hit first.
        for p in partials.iter_mut() {
            if let Some(e) = p.error.take() {
                return Err(e);
            }
        }
        for (i, p) in partials.iter().enumerate() {
            blockdec_obs::debug!(
                thread = i,
                segments = p.tally.segments_decoded,
                rows = p.tally.rows_decoded,
                bytes = p.tally.bytes_decoded;
                "columnar decode worker done"
            );
        }

        let blocks: usize = partials.iter().map(|p| p.cols.len()).sum();
        let credits: usize = partials.iter().map(|p| p.cols.credit_count()).sum();
        let mut cols = BlockColumns::with_capacity(blocks, credits);
        let mut last_height: Option<u64> = None;
        let mut disorder: Option<(u64, u64)> = None;
        for p in &partials {
            stats.segments_skipped += p.tally.skipped;
            stats.rows_returned += p.rows_matched;
            stats.pages_pruned += p.tally.pages_pruned;
            if disorder.is_none() {
                // Boundary disorder (last row of the previous chunk vs
                // first accepted row of this one) is observed before any
                // disorder internal to this chunk, as in a single pass.
                if let (Some(prev), Some(first)) = (last_height, p.first_height) {
                    if first < prev {
                        disorder = Some((prev, first));
                    }
                }
                if disorder.is_none() {
                    disorder = p.disorder;
                }
            }
            if p.last_height.is_some() {
                last_height = p.last_height;
            }
            cols.append_columns(&p.cols);
        }
        for r in self.active.iter().filter(|r| pred.matches(r)) {
            stats.rows_returned += 1;
            if !keep(r) {
                continue;
            }
            if let Some(h) = last_height {
                if r.height < h && disorder.is_none() {
                    disorder = Some((h, r.height));
                }
            }
            last_height = Some(r.height);
            cols.push_row(
                r.height,
                Timestamp(r.timestamp),
                ProducerId(r.producer),
                r.credit(),
            );
        }
        blockdec_obs::counter("store.rows.scanned").add(stats.rows_returned);
        blockdec_obs::counter("store.scan.pages_pruned").add(stats.pages_pruned);
        if let Some((prev, next)) = disorder {
            return Err(StoreError::InconsistentCatalog(format!(
                "scan yielded rows out of height order: height {next} after {prev}"
            )));
        }
        debug_assert!(cols.validate().is_ok(), "scan built invalid columns");
        blockdec_obs::counter("columnar.blocks").add(cols.len() as u64);
        blockdec_obs::counter("columnar.credits").add(cols.credit_count() as u64);
        blockdec_obs::counter("columnar.bytes_resident").add(cols.resident_bytes() as u64);
        blockdec_obs::debug!(
            rows = stats.rows_returned,
            pruned = stats.segments_pruned,
            skipped = stats.segments_skipped,
            threads = threads,
            total_segments = stats.segments_total;
            "columnar scan complete"
        );
        Ok((cols, stats))
    }

    /// `(hits, misses)` of the store's one cache, the byte-range
    /// [`PageCache`] that pruned row and columnar scans read through
    /// (the same counts as [`BlockStore::page_cache_stats`]).
    pub fn cache_stats(&self) -> (u64, u64) {
        let stats = self.pages.stats();
        (stats.hits, stats.misses)
    }

    /// Backend page-cache counters and configuration.
    pub fn page_cache_stats(&self) -> PageCacheStats {
        self.pages.stats()
    }

    /// Verify every on-disk artifact: decode all segments (exercising
    /// page CRCs), re-derive their zone maps against the manifest, and
    /// check that all row producer ids resolve in the dictionary.
    /// Collects problems instead of stopping at the first.
    pub fn scrub(&self) -> Result<ScrubReport> {
        let mut report = ScrubReport::default();
        for seg in &self.manifest.segments {
            report.segments_checked += 1;
            match read_segment_file(self.store.as_ref(), &seg.file) {
                Ok(rows) => {
                    report.rows_checked += rows.len() as u64;
                    let zone = ZoneMap::from_rows(&rows);
                    if zone != seg.zone {
                        report.errors.push(format!(
                            "{}: zone map drift (manifest {:?}, actual {:?})",
                            seg.file, seg.zone, zone
                        ));
                    }
                    if let Some(bad) = rows
                        .iter()
                        .find(|r| r.producer as usize >= self.registry.len())
                    {
                        report.errors.push(format!(
                            "{}: producer id {} outside dictionary (len {})",
                            seg.file,
                            bad.producer,
                            self.registry.len()
                        ));
                    }
                }
                Err(e) => report.errors.push(format!("{}: {e}", seg.file)),
            }
        }
        Ok(report)
    }

    /// Run a full fault check over the store's on-disk state without
    /// modifying anything. See [`crate::StoreDoctor::check`].
    pub fn fsck(&self) -> Result<crate::doctor::FsckReport> {
        crate::doctor::StoreDoctor::with_backend(self.store.clone()).check()
    }

    /// Repair the on-disk store (see [`crate::StoreDoctor::repair`])
    /// and resynchronize this handle with the repaired state: the
    /// manifest and dictionary are reloaded and the page cache is
    /// cleared so no byte of a quarantined segment is ever served from
    /// memory.
    pub fn repair(&mut self) -> Result<crate::doctor::RepairOutcome> {
        let outcome = crate::doctor::StoreDoctor::with_backend(self.store.clone()).repair()?;
        self.manifest = Manifest::load(self.store.as_ref())?;
        self.registry = load_dictionary(self.store.as_ref())?;
        self.pages.clear();
        self.last_height = self
            .active
            .last()
            .map(|r| r.height)
            .or_else(|| self.manifest.segments.last().map(|s| s.zone.max_height));
        Ok(outcome)
    }

    /// Merge runs of under-filled adjacent segments into full ones.
    /// Repeated `flush` calls create short segments; compaction rewrites
    /// them into [`SEGMENT_ROWS`]-sized v3 segments (fresh page-group
    /// indexes and producer bloom filters included), commits the new
    /// manifest atomically, then removes the superseded files. No-op
    /// (returning `false`) when no run would shrink the segment count.
    /// Buffered rows are flushed first. See [`crate::compactor`] for the
    /// planning rules and crash-safety argument.
    pub fn compact(&mut self) -> Result<bool> {
        self.flush()?;
        self.run_compaction(CompactionPolicy::full())
    }

    /// Execute one compaction pass under `policy` over the sealed
    /// segments. The page cache needs no invalidation: replacement
    /// segments get fresh file names and cache keys carry the content
    /// CRC, so superseded entries are simply never addressed again and
    /// age out of the LRU.
    fn run_compaction(&mut self, policy: CompactionPolicy) -> Result<bool> {
        let compactor = Compactor::new(self.store.as_ref(), policy);
        Ok(compactor.run(&mut self.manifest)?.is_some())
    }
}

/// Reject `height` if it would go below the last appended height.
fn check_height(last: Option<u64>, height: u64) -> Result<()> {
    match last {
        Some(prev) if height < prev => Err(StoreError::InvalidAppend(format!(
            "height {height} after {prev}: appends must be height-ordered"
        ))),
        _ => Ok(()),
    }
}

/// Resolve a requested columnar decode thread count: `0` means one per
/// available CPU, and no scan uses more threads than it has segments.
fn effective_scan_threads(requested: usize, segments: usize) -> usize {
    let n = if requested == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        requested
    };
    n.clamp(1, segments.max(1))
}

/// One decode worker's output: a partial column set plus everything the
/// stitch step needs to reproduce the sequential scan's stats, disorder
/// detection, and error ordering.
#[derive(Default)]
struct ColumnarPartial {
    cols: BlockColumns,
    /// Rows matching the predicate (before the residual filter) — what
    /// `ScanStats::rows_returned` counts.
    rows_matched: u64,
    /// Height of the first/last row accepted into `cols`.
    first_height: Option<u64>,
    last_height: Option<u64>,
    /// First out-of-order height pair observed inside this chunk.
    disorder: Option<(u64, u64)>,
    /// First decode error (strict mode): aborts the whole scan.
    error: Option<StoreError>,
    tally: DecodeTally,
}

/// What one pass of [`decode_segments`] read and skipped.
#[derive(Default)]
struct DecodeTally {
    /// Unreadable segments skipped (degraded mode only).
    skipped: usize,
    segments_decoded: usize,
    rows_decoded: u64,
    bytes_decoded: u64,
    /// CRC-framed column pages skipped via the page-group index.
    pages_pruned: u64,
}

/// Decode one segment through the backend, choosing the read shape by
/// predicate: a pruning predicate goes through the page cache with
/// ranged reads (only the header, tail, index block, and surviving page
/// groups are fetched — a pruned group never crosses the wire), while
/// the unconstrained scan fetches the whole object once, uncached (it
/// decodes every byte exactly once, so caching would only double the
/// memory). Returns the bytes read — the whole object, or the ranges a
/// pruned decode fetched, from the cache or not — plus the pruned
/// decode, leaving the decoded rows in `dec`.
fn decode_one_segment(
    backend: &dyn ObjectStore,
    pages: &PageCache,
    seg: &SegmentMeta,
    what: &str,
    pred: &ScanPredicate,
    dec: &mut SegmentDecoder,
) -> Result<(u64, PrunedDecode)> {
    if pred.can_prune() {
        let file_len = backend.size(&seg.file)?;
        let key = seg.cache_key();
        let mut read = 0u64;
        let mut fetch = |offset: u64, len: usize| {
            read += len as u64;
            pages.get_range(backend, &key, &seg.file, offset, len)
        };
        let pruned = dec.decode_pruned_ranged(&mut fetch, file_len, what, pred)?;
        Ok((read, pruned))
    } else {
        let bytes = get_retry(backend, &seg.file)?;
        let pruned = dec.decode_pruned(&bytes, what, pred)?;
        Ok((bytes.len() as u64, pruned))
    }
}

/// The one segment loop behind every scan. Each segment in `segs` is
/// decoded into one [`SegmentDecoder`], whose scratch buffers serve the
/// whole run, and every decoded row that matches `pred` is handed to
/// `visit`, assembled on the stack — no `Vec<RowRecord>` is ever built. An unreadable segment is the error under strict options
/// (rows of earlier segments have already been visited) and is skipped
/// and counted under [`ScanOptions::degraded`].
fn decode_segments(
    backend: &dyn ObjectStore,
    pages: &PageCache,
    segs: &[&SegmentMeta],
    pred: &ScanPredicate,
    opts: ScanOptions,
    tally: &mut DecodeTally,
    mut visit: impl FnMut(&RowRecord),
) -> Result<()> {
    let mut dec = SegmentDecoder::new();
    for seg in segs {
        let what = backend.describe(&seg.file);
        let timer = blockdec_obs::Timer::new("store.segment_read");
        let decoded = decode_one_segment(backend, pages, seg, &what, pred, &mut dec);
        let (bytes_read, pruned) = match decoded {
            Ok(v) => v,
            Err(e) if opts.skip_corrupt => {
                tally.skipped += 1;
                blockdec_obs::counter("store.fault.segments_skipped").inc();
                blockdec_obs::warn!(
                    file = seg.file.clone();
                    "degraded scan skipping unreadable segment: {e}"
                );
                continue;
            }
            Err(e) => return Err(e),
        };
        let elapsed_ms = timer.stop() * 1e3;
        let n = pruned.rows;
        tally.segments_decoded += 1;
        tally.rows_decoded += n as u64;
        tally.bytes_decoded += bytes_read;
        tally.pages_pruned += pruned.pages_skipped() as u64;
        blockdec_obs::counter("store.segments.read").inc();
        blockdec_obs::counter("store.decode.segments").inc();
        blockdec_obs::counter("store.decode.rows").add(n as u64);
        blockdec_obs::counter("store.decode.bytes").add(bytes_read);
        blockdec_obs::debug!(
            file = seg.file.clone(),
            rows = n,
            groups_skipped = pruned.groups_skipped,
            bytes = bytes_read,
            elapsed_ms = elapsed_ms;
            "decoded segment"
        );
        for i in 0..n {
            let r = dec.row(i);
            if pred.matches(&r) {
                visit(&r);
            }
        }
    }
    Ok(())
}

/// Decode a contiguous run of segments straight into a partial
/// [`BlockColumns`] through [`decode_segments`], applying the residual
/// filter and recording what the stitch step needs.
fn decode_columnar_chunk(
    backend: &dyn ObjectStore,
    pages: &PageCache,
    segs: &[&SegmentMeta],
    pred: &ScanPredicate,
    keep: &(impl Fn(&RowRecord) -> bool + Sync),
    opts: ScanOptions,
) -> ColumnarPartial {
    let mut part = ColumnarPartial::default();
    let mut tally = DecodeTally::default();
    let decoded = decode_segments(backend, pages, segs, pred, opts, &mut tally, |r| {
        part.rows_matched += 1;
        if !keep(r) {
            return;
        }
        if let Some(h) = part.last_height {
            if r.height < h && part.disorder.is_none() {
                part.disorder = Some((h, r.height));
            }
        }
        if part.first_height.is_none() {
            part.first_height = Some(r.height);
        }
        part.last_height = Some(r.height);
        part.cols.push_row(
            r.height,
            Timestamp(r.timestamp),
            ProducerId(r.producer),
            r.credit(),
        );
    });
    part.error = decoded.err();
    part.tally = tally;
    part
}

/// Outcome of [`BlockStore::scrub`].
#[derive(Clone, Debug, Default)]
pub struct ScrubReport {
    /// Segments read and decoded.
    pub segments_checked: usize,
    /// Rows decoded across all segments.
    pub rows_checked: u64,
    /// Problems found (empty = healthy).
    pub errors: Vec<String>,
}

impl ScrubReport {
    /// True when no problems were found.
    pub fn is_healthy(&self) -> bool {
        self.errors.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blockdec_chain::{Credit, ProducerId, Timestamp};
    use std::fs;
    use std::path::PathBuf;

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "blockdec-store-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn row(store: &mut BlockStore, height: u64, producer: &str) -> RowRecord {
        let id = store.intern_producer(producer);
        RowRecord {
            height,
            timestamp: 1_546_300_800 + height as i64 * 600,
            producer: id,
            credit_millis: 1000,
            tx_count: 10,
            size_bytes: 100,
            difficulty: 5,
        }
    }

    #[test]
    fn create_append_scan_roundtrip() {
        let dir = tmp_dir("basic");
        let mut store = BlockStore::create(&dir).unwrap();
        let rows: Vec<RowRecord> = (0..100).map(|h| row(&mut store, h, "F2Pool")).collect();
        store.append_rows(&rows).unwrap();
        store.flush().unwrap();
        let got = store.scan(&ScanPredicate::all()).unwrap();
        assert_eq!(got, rows);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reopen_preserves_everything() {
        let dir = tmp_dir("reopen");
        {
            let mut store = BlockStore::create(&dir).unwrap();
            let rows: Vec<RowRecord> = (0..50).map(|h| row(&mut store, h, "AntPool")).collect();
            store.append_rows(&rows).unwrap();
            store.flush().unwrap();
        }
        let store = BlockStore::open(&dir).unwrap();
        assert_eq!(store.row_count(), 50);
        assert_eq!(store.registry().get("AntPool"), Some(ProducerId(0)));
        let got = store.scan(&ScanPredicate::all()).unwrap();
        assert_eq!(got.len(), 50);
        assert_eq!(got[49].height, 49);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn create_refuses_existing_store() {
        let dir = tmp_dir("exists");
        BlockStore::create(&dir).unwrap();
        assert!(BlockStore::create(&dir).is_err());
        assert!(BlockStore::open_or_create(&dir).is_ok());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rejects_out_of_order_heights() {
        let dir = tmp_dir("order");
        let mut store = BlockStore::create(&dir).unwrap();
        let a = row(&mut store, 10, "X1");
        let b = row(&mut store, 9, "X1");
        store.append_rows(&[a]).unwrap();
        let err = store.append_rows(&[b]).unwrap_err();
        assert!(matches!(err, StoreError::InvalidAppend(_)), "{err}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rejects_unknown_producer_ids() {
        let dir = tmp_dir("unknown-producer");
        let mut store = BlockStore::create(&dir).unwrap();
        let r = RowRecord {
            height: 1,
            timestamp: 0,
            producer: 7, // never interned
            credit_millis: 1000,
            tx_count: 0,
            size_bytes: 0,
            difficulty: 0,
        };
        assert!(store.append_rows(&[r]).is_err());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn seals_full_segments_automatically() {
        let dir = tmp_dir("autoseal");
        let mut store = BlockStore::create(&dir).unwrap();
        let rows: Vec<RowRecord> = (0..(SEGMENT_ROWS as u64 + 10))
            .map(|h| row(&mut store, h, "P"))
            .collect();
        store.append_rows(&rows).unwrap();
        assert_eq!(store.segment_count(), 1);
        assert_eq!(store.buffered_rows(), 10);
        store.flush().unwrap();
        assert_eq!(store.segment_count(), 2);
        assert_eq!(store.buffered_rows(), 0);
        assert_eq!(store.row_count(), SEGMENT_ROWS as u64 + 10);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn scan_sees_unflushed_rows() {
        let dir = tmp_dir("unflushed");
        let mut store = BlockStore::create(&dir).unwrap();
        let r = row(&mut store, 5, "P");
        store.append_rows(&[r]).unwrap();
        assert_eq!(store.scan(&ScanPredicate::all()).unwrap().len(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn predicates_filter_and_prune() {
        let dir = tmp_dir("pred");
        let mut store = BlockStore::create(&dir).unwrap();
        // Two sealed segments with disjoint height ranges.
        let first: Vec<RowRecord> = (0..100).map(|h| row(&mut store, h, "A")).collect();
        store.append_rows(&first).unwrap();
        store.flush().unwrap();
        let second: Vec<RowRecord> = (100..200).map(|h| row(&mut store, h, "B")).collect();
        store.append_rows(&second).unwrap();
        store.flush().unwrap();

        let (rows, stats) = store
            .scan_with_stats(&ScanPredicate::all().heights(150, 160))
            .unwrap();
        assert_eq!(rows.len(), 11);
        assert_eq!(stats.segments_total, 2);
        assert_eq!(stats.segments_pruned, 1);

        // Time predicate.
        let t0 = 1_546_300_800 + 50 * 600;
        let t1 = 1_546_300_800 + 59 * 600;
        let rows = store.scan(&ScanPredicate::all().times(t0, t1)).unwrap();
        assert_eq!(rows.len(), 10);
        assert!(rows.iter().all(|r| r.timestamp >= t0 && r.timestamp <= t1));

        // Producer predicate.
        let b = store.registry().get("B").unwrap().0;
        let rows = store.scan(&ScanPredicate::all().producer(b)).unwrap();
        assert_eq!(rows.len(), 100);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn append_attributed_remaps_ids() {
        let dir = tmp_dir("remap");
        let mut store = BlockStore::create(&dir).unwrap();
        // Pre-intern something so ids diverge from the source registry.
        store.intern_producer("AlreadyHere");

        let mut src = ProducerRegistry::new();
        let f2 = src.intern("F2Pool");
        let ant = src.intern("AntPool");
        let blocks = vec![
            AttributedBlock {
                height: 1,
                timestamp: Timestamp(100),
                credits: vec![Credit {
                    producer: f2,
                    weight: 1.0,
                }],
            },
            AttributedBlock {
                height: 2,
                timestamp: Timestamp(200),
                credits: vec![
                    Credit {
                        producer: ant,
                        weight: 1.0,
                    },
                    Credit {
                        producer: f2,
                        weight: 1.0,
                    },
                ],
            },
        ];
        store.append_attributed(&blocks, &src).unwrap();
        store.flush().unwrap();

        let rows = store.scan(&ScanPredicate::all()).unwrap();
        assert_eq!(rows.len(), 3);
        let f2_store = store.registry().get("F2Pool").unwrap().0;
        assert_eq!(rows[0].producer, f2_store);
        assert_ne!(f2_store, f2.0, "ids must be remapped, not copied");

        let back = store.scan_attributed(&ScanPredicate::all()).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back[1].credits.len(), 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn multi_credit_heights_survive_segment_boundaries() {
        let dir = tmp_dir("boundary");
        let mut store = BlockStore::create(&dir).unwrap();
        let p = store.intern_producer("P");
        // Rows sharing one height right at the segment edge.
        let mut rows = Vec::new();
        for h in 0..(SEGMENT_ROWS as u64 - 1) {
            rows.push(RowRecord {
                height: h,
                timestamp: h as i64,
                producer: p,
                credit_millis: 1000,
                tx_count: 0,
                size_bytes: 0,
                difficulty: 0,
            });
        }
        let edge = SEGMENT_ROWS as u64 - 1;
        for _ in 0..5 {
            rows.push(RowRecord {
                height: edge,
                timestamp: edge as i64,
                producer: p,
                credit_millis: 1000,
                tx_count: 0,
                size_bytes: 0,
                difficulty: 0,
            });
        }
        store.append_rows(&rows).unwrap();
        store.flush().unwrap();
        assert_eq!(store.segment_count(), 2);
        let blocks = store.scan_attributed(&ScanPredicate::all()).unwrap();
        let last = blocks.last().unwrap();
        assert_eq!(last.height, edge);
        assert_eq!(
            last.credits.len(),
            5,
            "credits split across segments must regroup"
        );
        // The columnar scan must regroup the straddling block identically.
        let cols = store.scan_columnar(&ScanPredicate::all()).unwrap();
        cols.validate().unwrap();
        assert_eq!(cols.len(), blocks.len());
        assert_eq!(cols.producers_of(cols.len() - 1).len(), 5);
        assert_eq!(cols.to_blocks(), blocks);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn columnar_scan_matches_attributed_scan() {
        let dir = tmp_dir("columnar");
        let mut store = BlockStore::create(&dir).unwrap();
        let p = store.intern_producer("P");
        let q = store.intern_producer("Q");
        // Mixed 1/3-credit heights spanning sealed segments plus the
        // unflushed active buffer.
        let mut rows = Vec::new();
        for h in 0..((SEGMENT_ROWS + SEGMENT_ROWS / 2) as u64) {
            let n = if h % 7 == 0 { 3 } else { 1 };
            for k in 0..n {
                rows.push(RowRecord {
                    height: h,
                    timestamp: h as i64 * 600,
                    producer: if k == 0 { p } else { q },
                    credit_millis: 1000,
                    tx_count: 0,
                    size_bytes: 0,
                    difficulty: 0,
                });
            }
        }
        let split = rows.len() - 40;
        store.append_rows(&rows[..split]).unwrap();
        store.flush().unwrap();
        store.append_rows(&rows[split..]).unwrap(); // stays buffered

        for pred in [
            ScanPredicate::all(),
            ScanPredicate::all().heights(100, 5000),
        ] {
            let blocks = store.scan_attributed(&pred).unwrap();
            let cols = store.scan_columnar(&pred).unwrap();
            cols.validate().unwrap();
            assert_eq!(cols.to_blocks(), blocks);
        }
        // Residual row filter: only producer q's rows survive.
        let filtered = store
            .scan_columnar_filtered(&ScanPredicate::all(), |r| r.producer == q)
            .unwrap();
        assert!(!filtered.is_empty());
        assert!((0..filtered.len()).all(|i| filtered.producers_of(i).iter().all(|pr| pr.0 == q)));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_segment_surfaces_on_scan() {
        let dir = tmp_dir("corrupt");
        let mut store = BlockStore::create(&dir).unwrap();
        let rows: Vec<RowRecord> = (0..10).map(|h| row(&mut store, h, "P")).collect();
        store.append_rows(&rows).unwrap();
        store.flush().unwrap();
        // Flip a byte in the middle of the segment file.
        let seg = dir.join(segment_file_name(0));
        let mut bytes = fs::read(&seg).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        fs::write(&seg, bytes).unwrap();

        let store = BlockStore::open(&dir).unwrap();
        let err = store.scan(&ScanPredicate::all()).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt { .. }), "{err}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn visitor_scan_matches_materialized_scan() {
        let dir = tmp_dir("visitor");
        let mut store = BlockStore::create(&dir).unwrap();
        let rows: Vec<RowRecord> = (0..200).map(|h| row(&mut store, h, "P")).collect();
        store.append_rows(&rows[..150]).unwrap();
        store.flush().unwrap();
        store.append_rows(&rows[150..]).unwrap(); // part stays buffered

        let pred = ScanPredicate::all().heights(100, 180);
        let materialized = store.scan(&pred).unwrap();
        let mut visited = Vec::new();
        let stats = store.scan_for_each(&pred, |r| visited.push(*r)).unwrap();
        assert_eq!(visited, materialized);
        assert_eq!(stats.rows_returned, materialized.len() as u64);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn scrub_reports_healthy_store() {
        let dir = tmp_dir("scrub-ok");
        let mut store = BlockStore::create(&dir).unwrap();
        let rows: Vec<RowRecord> = (0..100).map(|h| row(&mut store, h, "P")).collect();
        store.append_rows(&rows).unwrap();
        store.flush().unwrap();
        let report = store.scrub().unwrap();
        assert!(report.is_healthy(), "{:?}", report.errors);
        assert_eq!(report.segments_checked, 1);
        assert_eq!(report.rows_checked, 100);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn scrub_catches_corruption_without_aborting() {
        let dir = tmp_dir("scrub-bad");
        let mut store = BlockStore::create(&dir).unwrap();
        for batch in 0..2u64 {
            let rows: Vec<RowRecord> = (batch * 50..batch * 50 + 50)
                .map(|h| row(&mut store, h, "P"))
                .collect();
            store.append_rows(&rows).unwrap();
            store.flush().unwrap();
        }
        // Corrupt only the first segment.
        let seg = dir.join(segment_file_name(0));
        let mut bytes = fs::read(&seg).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        fs::write(&seg, bytes).unwrap();

        let store = BlockStore::open(&dir).unwrap();
        let report = store.scrub().unwrap();
        assert!(!report.is_healthy());
        assert_eq!(report.errors.len(), 1);
        assert_eq!(report.segments_checked, 2);
        // The healthy segment's rows were still counted.
        assert_eq!(report.rows_checked, 50);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compaction_merges_small_segments() {
        let dir = tmp_dir("compact");
        let mut store = BlockStore::create(&dir).unwrap();
        // 40 tiny flushes → 40 segments.
        for batch in 0..40u64 {
            let rows: Vec<RowRecord> = (batch * 10..batch * 10 + 10)
                .map(|h| row(&mut store, h, "P"))
                .collect();
            store.append_rows(&rows).unwrap();
            store.flush().unwrap();
        }
        assert_eq!(store.segment_count(), 40);
        let before = store.scan(&ScanPredicate::all()).unwrap();

        assert!(store.compact().unwrap());
        assert_eq!(store.segment_count(), 1);
        assert_eq!(store.row_count(), 400);
        let after = store.scan(&ScanPredicate::all()).unwrap();
        assert_eq!(before, after, "compaction must not change contents");
        // Old segment files are gone; scrub is clean.
        assert!(store.scrub().unwrap().is_healthy());
        assert!(!dir.join(segment_file_name(0)).exists());

        // Idempotent: second compaction is a no-op.
        assert!(!store.compact().unwrap());

        // Reopen still sees everything.
        drop(store);
        let store = BlockStore::open(&dir).unwrap();
        assert_eq!(store.row_count(), 400);
        assert_eq!(store.scan(&ScanPredicate::all()).unwrap(), after);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compaction_flushes_buffered_rows_first() {
        let dir = tmp_dir("compact-buf");
        let mut store = BlockStore::create(&dir).unwrap();
        let rows: Vec<RowRecord> = (0..10).map(|h| row(&mut store, h, "P")).collect();
        store.append_rows(&rows[..5]).unwrap();
        store.flush().unwrap();
        store.append_rows(&rows[5..]).unwrap();
        // 1 sealed + 5 buffered: compact seals the buffer (2 segs) then
        // merges to 1.
        assert!(store.compact().unwrap());
        assert_eq!(store.segment_count(), 1);
        assert_eq!(store.buffered_rows(), 0);
        assert_eq!(store.scan(&ScanPredicate::all()).unwrap(), rows);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compaction_on_empty_store_is_noop() {
        let dir = tmp_dir("compact-empty");
        let mut store = BlockStore::create(&dir).unwrap();
        assert!(!store.compact().unwrap());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn cache_hits_on_repeated_scans() {
        // A pruning predicate reads through the page cache: the first
        // row scan fills it, a repeat is served from memory.
        let dir = tmp_dir("cache");
        let mut store = BlockStore::create(&dir).unwrap();
        let rows: Vec<RowRecord> = (0..10).map(|h| row(&mut store, h, "P")).collect();
        store.append_rows(&rows).unwrap();
        store.flush().unwrap();
        let pred = ScanPredicate::all().heights(0, 9);
        assert_eq!(store.scan(&pred).unwrap(), rows);
        let (hits_warm, misses_warm) = store.cache_stats();
        assert!(misses_warm >= 1);
        assert_eq!(store.scan(&pred).unwrap(), rows);
        let (hits, misses) = store.cache_stats();
        assert_eq!(misses, misses_warm, "a repeat scan must not fetch again");
        assert_eq!(hits, hits_warm + misses_warm);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compaction_never_serves_stale_cache_entries() {
        // Regression: page-cache keys carry the content CRC, so a scan
        // after compaction must fetch the rewritten segment (misses,
        // never a stale hit) even though no explicit invalidation
        // happens.
        let dir = tmp_dir("compact-cache");
        let mut store = BlockStore::create(&dir).unwrap();
        for batch in 0..4u64 {
            let rows: Vec<RowRecord> = (batch * 10..batch * 10 + 10)
                .map(|h| row(&mut store, h, "P"))
                .collect();
            store.append_rows(&rows).unwrap();
            store.flush().unwrap();
        }
        // Warm the cache on the pre-compaction layout. Every segment is
        // one page group, so each costs the same number of ranges.
        let pred = ScanPredicate::all().heights(0, 39);
        let before = store.scan(&pred).unwrap();
        let (_, misses_before) = store.cache_stats();
        assert!(misses_before > 0 && misses_before % 4 == 0);
        let per_segment = misses_before / 4;

        assert!(store.compact().unwrap());
        let after = store.scan(&pred).unwrap();
        assert_eq!(before, after);
        let (_, misses_after) = store.cache_stats();
        assert_eq!(
            misses_after,
            misses_before + per_segment,
            "the compacted segment must be fetched fresh, not served stale"
        );

        // And repeat scans on the new layout hit the cache normally.
        let (hits_1, _) = store.cache_stats();
        assert_eq!(store.scan(&pred).unwrap(), after);
        let (hits_2, misses_2) = store.cache_stats();
        assert_eq!(misses_2, misses_after);
        assert_eq!(hits_2, hits_1 + per_segment);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bloom_filter_prunes_producer_scans() {
        let dir = tmp_dir("bloom-prune");
        let mut store = BlockStore::create(&dir).unwrap();
        // Two segments with disjoint producers over one height range
        // split: zone maps cannot separate producers, only the bloom
        // filter can.
        let rows_a: Vec<RowRecord> = (0..10).map(|h| row(&mut store, h, "OnlyA")).collect();
        store.append_rows(&rows_a).unwrap();
        store.flush().unwrap();
        let rows_b: Vec<RowRecord> = (10..20).map(|h| row(&mut store, h, "OnlyB")).collect();
        store.append_rows(&rows_b).unwrap();
        store.flush().unwrap();

        let b = store.intern_producer("OnlyB");
        let pred = ScanPredicate::all().producer(b);
        let (rows, stats) = store.scan_with_stats(&pred).unwrap();
        assert_eq!(rows, rows_b);
        assert_eq!(stats.bloom_skips, 1, "segment A must be bloom-pruned");
        assert_eq!(stats.segments_pruned, 1);

        // Same pruning on the columnar path.
        let (cols, cstats) = store
            .scan_columnar_with(&pred, ScanOptions::strict(), |_| true)
            .unwrap();
        assert_eq!(cols.len(), rows_b.len());
        assert_eq!(cstats.bloom_skips, 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn columnar_scan_reports_pruned_pages() {
        let dir = tmp_dir("page-prune");
        let mut store = BlockStore::create(&dir).unwrap();
        // One segment spanning three page groups (2.5 × 4096 rows).
        let rows: Vec<RowRecord> = (0..10_240).map(|h| row(&mut store, h, "P")).collect();
        store.append_rows(&rows).unwrap();
        store.flush().unwrap();
        assert_eq!(store.segment_count(), 1);

        // A height slice inside the middle group: the first and last
        // groups are skipped without decoding, 7 pages each.
        let pred = ScanPredicate::all().heights(5_000, 5_100);
        let (cols, stats) = store
            .scan_columnar_with(&pred, ScanOptions::strict(), |_| true)
            .unwrap();
        assert_eq!(cols.len(), 101);
        assert_eq!(stats.pages_pruned, 14, "two of three page groups skipped");
        assert_eq!(stats.segments_pruned, 0);
        // The row scan shares the decode loop and reports the same.
        let (rows_hit, row_stats) = store.scan_with_stats(&pred).unwrap();
        assert_eq!(rows_hit.len(), 101);
        assert_eq!(row_stats, stats);

        // The full scan prunes nothing and says so.
        let (cols, stats) = store
            .scan_columnar_with(&ScanPredicate::all(), ScanOptions::strict(), |_| true)
            .unwrap();
        assert_eq!(cols.len(), rows.len());
        assert_eq!(stats.pages_pruned, 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn size_tiered_policy_compacts_during_flush() {
        let dir = tmp_dir("tiered");
        let mut store = BlockStore::create(&dir).unwrap();
        store.set_compaction_policy(Some(CompactionPolicy::size_tiered()));
        // Three small flushes: below min_run, nothing merges.
        for batch in 0..3u64 {
            let rows: Vec<RowRecord> = (batch * 10..batch * 10 + 10)
                .map(|h| row(&mut store, h, "P"))
                .collect();
            store.append_rows(&rows).unwrap();
            store.flush().unwrap();
        }
        assert_eq!(store.segment_count(), 3);
        // The fourth flush completes a run of four and triggers the
        // background merge.
        let rows: Vec<RowRecord> = (30..40).map(|h| row(&mut store, h, "P")).collect();
        store.append_rows(&rows).unwrap();
        store.flush().unwrap();
        assert_eq!(store.segment_count(), 1);
        assert_eq!(store.row_count(), 40);
        assert!(store.scrub().unwrap().is_healthy());
        fs::remove_dir_all(&dir).unwrap();
    }
}
