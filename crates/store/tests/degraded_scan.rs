//! Degraded scans ([`ScanOptions::degraded`]) and cache behavior around
//! corruption and repair: a strict scan aborts on the first unreadable
//! segment, a degraded scan returns every surviving row while counting
//! what it skipped, and a repair clears the page cache so quarantined
//! data is never served from memory.

use blockdec_store::catalog::segment_file_name;
use blockdec_store::{BlockStore, FaultInjector, RowRecord, ScanOptions, ScanPredicate};
use std::fs;
use std::path::{Path, PathBuf};

fn tmp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "blockdec-degraded-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = fs::remove_dir_all(&d);
    d
}

fn build_fixture(dir: &Path) -> Vec<RowRecord> {
    let mut store = BlockStore::create(dir).unwrap();
    let p = store.intern_producer("pool");
    let mut all = Vec::new();
    for batch in 0..3u64 {
        let rows: Vec<RowRecord> = (batch * 20..batch * 20 + 20)
            .map(|h| RowRecord {
                height: h,
                timestamp: 1_546_300_800 + h as i64 * 600,
                producer: p,
                credit_millis: 1000,
                tx_count: 1,
                size_bytes: 1,
                difficulty: 1,
            })
            .collect();
        store.append_rows(&rows).unwrap();
        store.flush().unwrap();
        all.extend(rows);
    }
    all
}

#[test]
fn strict_scan_errors_degraded_scan_survives() {
    let dir = tmp_dir("survive");
    let all = build_fixture(&dir);
    FaultInjector::new(&dir, 21)
        .flip_bit(&segment_file_name(1))
        .unwrap();

    let store = BlockStore::open(&dir).unwrap();
    // Strict: the corrupt middle segment aborts the scan.
    assert!(store.scan(&ScanPredicate::all()).is_err());
    let (_, strict_stats) = store
        .scan_with_options(&ScanPredicate::all().heights(0, 10), ScanOptions::strict())
        .unwrap();
    assert_eq!(strict_stats.segments_skipped, 0);

    // Degraded: every row of the two healthy segments comes back and
    // the skip is counted, both in stats and in the obs counter.
    let skipped_before = blockdec_obs::counter("store.fault.segments_skipped").get();
    let (rows, stats) = store
        .scan_with_options(&ScanPredicate::all(), ScanOptions::degraded())
        .unwrap();
    let expected: Vec<RowRecord> = all
        .iter()
        .filter(|r| r.height < 20 || r.height >= 40)
        .copied()
        .collect();
    assert_eq!(rows, expected);
    assert_eq!(stats.segments_skipped, 1);
    assert_eq!(stats.segments_total, 3);
    assert_eq!(
        blockdec_obs::counter("store.fault.segments_skipped").get(),
        skipped_before + 1
    );

    // Zone-map pruning still applies under degraded options: a scan
    // that never touches the corrupt segment skips nothing.
    let (rows, stats) = store
        .scan_with_options(
            &ScanPredicate::all().heights(0, 10),
            ScanOptions::degraded(),
        )
        .unwrap();
    assert_eq!(rows.len(), 11);
    assert_eq!(stats.segments_skipped, 0);
    assert!(stats.segments_pruned >= 1);
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn repair_clears_page_cache() {
    let dir = tmp_dir("cache");
    build_fixture(&dir);
    let mut store = BlockStore::open(&dir).unwrap();
    // A pruning predicate that still covers every row: reads go through
    // the page cache, range by range.
    let pred = ScanPredicate::all().heights(0, 59);

    // Warm the cache: the pages of all three segments are resident.
    assert_eq!(store.scan(&pred).unwrap().len(), 60);
    let (_, misses_warm) = store.cache_stats();
    assert!(misses_warm > 0 && misses_warm % 3 == 0);
    let per_segment = misses_warm / 3;
    assert_eq!(store.scan(&pred).unwrap().len(), 60);
    let (hits_after, misses_after) = store.cache_stats();
    assert_eq!(
        misses_after, misses_warm,
        "second scan must be served from cache"
    );
    assert!(hits_after >= misses_warm);

    // Corrupt a segment on disk. The cache still holds its old pages,
    // so even a strict scan keeps succeeding — stale reads are exactly
    // the hazard repair must close.
    FaultInjector::new(&dir, 22)
        .flip_bit(&segment_file_name(1))
        .unwrap();
    assert_eq!(
        store.scan(&pred).unwrap().len(),
        60,
        "cached pages mask on-disk corruption until the cache is cleared"
    );

    // Repair quarantines the corrupt segment AND clears the cache: the
    // quarantined rows are gone and the surviving segments are fetched
    // from disk again (cache misses increase).
    let outcome = store.repair().unwrap();
    assert_eq!(outcome.quarantined, vec![segment_file_name(1)]);
    let rows = store.scan(&pred).unwrap();
    assert_eq!(rows.len(), 40);
    assert!(rows.iter().all(|r| r.height < 20 || r.height >= 40));
    let (_, misses_final) = store.cache_stats();
    assert_eq!(
        misses_final,
        misses_after + 2 * per_segment,
        "post-repair scan must fetch the two survivors from disk"
    );
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn degraded_scan_columnar_paths_still_strict() {
    // The columnar/attributed paths deliberately stay strict: they feed
    // the measurement engines, where silently missing rows would skew
    // results. Only an explicit degraded scan reads past damage.
    let dir = tmp_dir("strictcols");
    build_fixture(&dir);
    FaultInjector::new(&dir, 23)
        .truncate(&segment_file_name(0))
        .unwrap();
    let store = BlockStore::open(&dir).unwrap();
    assert!(store.scan_columnar(&ScanPredicate::all()).is_err());
    assert!(store.scan_attributed(&ScanPredicate::all()).is_err());
    fs::remove_dir_all(&dir).unwrap();
}
