//! Row and columnar scans share one decode loop, so they must agree
//! exactly: on a calibrated 2019 chain-year (Bitcoin and Ethereum),
//! fragmented and compacted, with a buffered tail, and for every
//! predicate shape, the rows `scan_for_each` visits, regrouped with
//! `BlockColumns::push_row`, equal `scan_columnar`, and both report the
//! same `ScanStats` — page groups pruned included. A pruned row scan
//! also fetches only part of the segment it opens.

use blockdec::chain::BlockColumns;
use blockdec::prelude::*;
use blockdec::store::catalog::segment_file_name;
use blockdec::store::{ScanOptions, ScanStats};
use std::fs;
use std::path::PathBuf;

const DAY: i64 = 86_400;

fn tmp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("blockdec-agree-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&d);
    d
}

/// The row scan, regrouped into columns as it streams.
fn row_scan(store: &BlockStore, pred: &ScanPredicate) -> (BlockColumns, ScanStats) {
    let mut cols = BlockColumns::new();
    let stats = store
        .scan_for_each(pred, |r| {
            cols.push_row(
                r.height,
                Timestamp(r.timestamp),
                ProducerId(r.producer),
                r.credit(),
            )
        })
        .unwrap();
    (cols, stats)
}

/// One predicate of each shape, placed inside the chain-year.
fn predicates(store: &BlockStore) -> Vec<(&'static str, ScanPredicate)> {
    let all = store.scan_columnar(&ScanPredicate::all()).unwrap();
    let n = all.len();
    let (h_lo, h_hi) = (all.height(n / 3), all.height(n / 3 + n / 50));
    let t0 = all.timestamp(0).secs();
    let mid = t0 + 180 * DAY;
    // The producer of the middle block: present in most segments.
    let producer = all.producers_of(n / 2)[0].0;
    vec![
        ("none", ScanPredicate::all()),
        ("heights", ScanPredicate::all().heights(h_lo, h_hi)),
        ("times", ScanPredicate::all().times(mid, mid + 3 * DAY - 1)),
        ("producer", ScanPredicate::all().producer(producer)),
        (
            "combined",
            ScanPredicate::all()
                .heights(all.height(n / 4), all.height(3 * n / 4))
                .times(t0 + 100 * DAY, t0 + 130 * DAY)
                .producer(producer),
        ),
    ]
}

fn assert_scans_agree(store: &BlockStore, layout: &str) {
    for (shape, pred) in predicates(store) {
        let (rows, row_stats) = row_scan(store, &pred);
        let (cols, col_stats) = store
            .scan_columnar_with(&pred, ScanOptions::strict(), |_| true)
            .unwrap();
        assert_eq!(rows, cols, "{layout}/{shape}: rows differ");
        assert_eq!(row_stats, col_stats, "{layout}/{shape}: stats differ");
        if shape != "none" {
            assert!(!cols.is_empty(), "{layout}/{shape}: empty fixture");
        }
    }
}

/// Load `scenario` fragmented (many flushes) with a buffered tail,
/// check agreement, then compact, buffer a second tail, and check again.
fn check_chain_year(tag: &str, scenario: Scenario) {
    let stream = scenario.generate();
    let blocks = &stream.attributed;
    let n = blocks.len();
    let (body, tails) = blocks.split_at(n - 2_000);
    let (tail1, tail2) = tails.split_at(1_000);
    let dir = tmp_dir(tag);
    let mut store = BlockStore::create(&dir).unwrap();
    for chunk in body.chunks(body.len().div_ceil(12)) {
        store.append_attributed(chunk, &stream.registry).unwrap();
        store.flush().unwrap();
    }
    store.append_attributed(tail1, &stream.registry).unwrap();
    assert!(store.segment_count() >= 12);
    assert!(store.buffered_rows() > 0);
    assert_scans_agree(&store, "fragmented");

    store.compact().unwrap();
    store.append_attributed(tail2, &stream.registry).unwrap();
    assert!(store.buffered_rows() > 0);
    assert_scans_agree(&store, "compacted");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn bitcoin_row_and_columnar_scans_agree() {
    check_chain_year("btc", Scenario::bitcoin_2019());
}

#[test]
fn ethereum_row_and_columnar_scans_agree() {
    check_chain_year("eth", Scenario::ethereum_2019());
}

#[test]
fn pruned_row_scan_fetches_less_than_the_segment_it_opens() {
    let stream = Scenario::bitcoin_2019().generate();
    let dir = tmp_dir("fetch");
    let mut store = BlockStore::create(&dir).unwrap();
    store
        .append_attributed(&stream.attributed, &stream.registry)
        .unwrap();
    store.flush().unwrap();
    assert_eq!(store.segment_count(), 1, "a Bitcoin year fits one segment");

    // A fresh handle starts with an empty page cache, and a pruned scan
    // reads every range through it exactly once: what it holds after
    // the scan is what was fetched from the backend.
    let store = BlockStore::open(&dir).unwrap();
    let lo = stream.attributed[0].timestamp.secs() + 180 * DAY;
    let pred = ScanPredicate::all().times(lo, lo + 3 * DAY - 1);
    let mut rows = 0u64;
    let stats = store.scan_for_each(&pred, |_| rows += 1).unwrap();
    assert!(rows > 0 && stats.pages_pruned > 0, "{stats:?}");
    let fetched = store.page_cache_stats().resident_bytes as u64;
    let segment = fs::metadata(dir.join(segment_file_name(0))).unwrap().len();
    assert!(
        fetched > 0 && fetched < segment,
        "a 3-day row scan fetched {fetched} of its segment's {segment} bytes"
    );
    let _ = fs::remove_dir_all(&dir);
}
