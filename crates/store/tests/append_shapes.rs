//! The store's bytes must not depend on how rows are handed to it. One
//! call of k×`SEGMENT_ROWS`+r rows, the same rows one block at a time
//! (the live follow path's shape) and the same rows in uneven chunks
//! must leave byte-identical segment files, manifest and dictionary —
//! for both `append_rows` and `append_attributed`. A multi-segment call
//! rejected by its last row must seal, buffer and commit nothing.

use blockdec_chain::{AttributedBlock, Credit, ProducerId, ProducerRegistry, Timestamp};
use blockdec_store::row::weight_to_millis;
use blockdec_store::segment::SEGMENT_ROWS;
use blockdec_store::{BlockStore, RowRecord, StoreError};
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn tmp_dir() -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "blockdec-shapes-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = fs::remove_dir_all(&d);
    d
}

/// Every file under `dir`, by relative path.
fn snapshot(dir: &Path) -> BTreeMap<PathBuf, Vec<u8>> {
    fn walk(root: &Path, dir: &Path, out: &mut BTreeMap<PathBuf, Vec<u8>>) {
        for entry in fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                walk(root, &path, out);
            } else {
                let rel = path.strip_prefix(root).unwrap().to_path_buf();
                out.insert(rel, fs::read(&path).unwrap());
            }
        }
    }
    let mut out = BTreeMap::new();
    walk(dir, dir, &mut out);
    out
}

/// Full segments in one call, plus a tail that `flush` seals.
const WHOLE: usize = 2;
const TAIL: usize = 1_234;
const PRODUCERS: u32 = 9;

/// Source producer names, interned in the source registry in reverse of
/// the order in which blocks first credit them, so the store's ids differ
/// from the source's and remapping is exercised.
fn source_registry() -> ProducerRegistry {
    let mut reg = ProducerRegistry::new();
    for p in (0..PRODUCERS).rev() {
        reg.intern(&format!("pool-{p}"));
    }
    reg
}

fn source_id(reg: &ProducerRegistry, p: u32) -> ProducerId {
    reg.get(&format!("pool-{p}")).unwrap()
}

/// Blocks carrying exactly `WHOLE * SEGMENT_ROWS + TAIL` credits in
/// total: every seventh block has three credits, so multi-credit heights
/// straddle segment boundaries.
fn blocks(reg: &ProducerRegistry) -> Vec<AttributedBlock> {
    let target = WHOLE * SEGMENT_ROWS + TAIL;
    let mut out = Vec::new();
    let mut credits = 0;
    let mut height = 9_193_266u64;
    while credits < target {
        let n = if height.is_multiple_of(7) { 3 } else { 1 }.min(target - credits);
        let credits_of_block = (0..n)
            .map(|i| Credit {
                producer: source_id(reg, ((height + i as u64) % u64::from(PRODUCERS)) as u32),
                weight: if n == 1 { 1.0 } else { 1.0 / n as f64 },
            })
            .collect();
        out.push(AttributedBlock {
            height,
            timestamp: Timestamp(1_546_300_800 + (height as i64 - 9_193_266) * 14),
            credits: credits_of_block,
        });
        credits += n;
        height += 1;
    }
    out
}

/// The rows `append_attributed` derives from `blocks`, with store ids
/// assigned in first-credit order — what it interns into a fresh store.
fn rows_of(blocks: &[AttributedBlock], reg: &ProducerRegistry) -> (Vec<String>, Vec<RowRecord>) {
    let mut names: Vec<String> = Vec::new();
    let mut rows = Vec::new();
    for b in blocks {
        for c in &b.credits {
            let name = reg.name(c.producer).unwrap().to_string();
            let id = match names.iter().position(|n| *n == name) {
                Some(i) => i,
                None => {
                    names.push(name);
                    names.len() - 1
                }
            };
            rows.push(RowRecord {
                height: b.height,
                timestamp: b.timestamp.secs(),
                producer: id as u32,
                credit_millis: weight_to_millis(c.weight),
                tx_count: 0,
                size_bytes: 0,
                difficulty: 0,
            });
        }
    }
    (names, rows)
}

/// Uneven chunk lengths cycling through sub-segment, over-segment and
/// boundary-straddling sizes.
const UNEVEN: [usize; 6] = [1, 5_003, SEGMENT_ROWS + 17, 2, 40_000, SEGMENT_ROWS - 3];

fn uneven_chunks<T>(items: &[T]) -> Vec<&[T]> {
    let mut out = Vec::new();
    let mut rest = items;
    for len in UNEVEN.iter().cycle() {
        if rest.is_empty() {
            break;
        }
        let (head, tail) = rest.split_at((*len).min(rest.len()));
        out.push(head);
        rest = tail;
    }
    out
}

/// Rows grouped by height: one slice per block.
fn per_block(rows: &[RowRecord]) -> Vec<&[RowRecord]> {
    rows.chunk_by(|a, b| a.height == b.height).collect()
}

fn store_from_rows(names: &[String], calls: &[&[RowRecord]]) -> BTreeMap<PathBuf, Vec<u8>> {
    let dir = tmp_dir();
    let mut store = BlockStore::create(&dir).unwrap();
    for name in names {
        store.intern_producer(name);
    }
    for call in calls {
        store.append_rows(call).unwrap();
    }
    assert_eq!(store.segment_count(), WHOLE, "full segments seal eagerly");
    assert_eq!(store.buffered_rows(), TAIL);
    store.flush().unwrap();
    let snap = snapshot(&dir);
    fs::remove_dir_all(&dir).unwrap();
    snap
}

fn store_from_blocks(
    reg: &ProducerRegistry,
    calls: &[&[AttributedBlock]],
) -> BTreeMap<PathBuf, Vec<u8>> {
    let dir = tmp_dir();
    let mut store = BlockStore::create(&dir).unwrap();
    for call in calls {
        store.append_attributed(call, reg).unwrap();
    }
    assert_eq!(store.segment_count(), WHOLE, "full segments seal eagerly");
    assert_eq!(store.buffered_rows(), TAIL);
    store.flush().unwrap();
    let snap = snapshot(&dir);
    fs::remove_dir_all(&dir).unwrap();
    snap
}

fn assert_same_store(a: &BTreeMap<PathBuf, Vec<u8>>, b: &BTreeMap<PathBuf, Vec<u8>>, what: &str) {
    assert_eq!(
        a.keys().collect::<Vec<_>>(),
        b.keys().collect::<Vec<_>>(),
        "{what}: file sets differ"
    );
    for (name, bytes) in a {
        assert!(b[name] == *bytes, "{what}: {} differs", name.display());
    }
}

#[test]
fn append_rows_bytes_do_not_depend_on_call_shape() {
    let reg = source_registry();
    let (names, rows) = rows_of(&blocks(&reg), &reg);
    assert_eq!(rows.len(), WHOLE * SEGMENT_ROWS + TAIL);
    let one_call = store_from_rows(&names, &[&rows]);
    // WHOLE + 1 segments, manifest and dictionary.
    assert_eq!(one_call.len(), WHOLE + 3, "{:?}", one_call.keys());
    assert_same_store(
        &one_call,
        &store_from_rows(&names, &per_block(&rows)),
        "per block",
    );
    assert_same_store(
        &one_call,
        &store_from_rows(&names, &uneven_chunks(&rows)),
        "uneven",
    );
}

#[test]
fn append_attributed_bytes_do_not_depend_on_call_shape() {
    let reg = source_registry();
    let blocks = blocks(&reg);
    let one_call = store_from_blocks(&reg, &[&blocks]);
    let singles: Vec<&[AttributedBlock]> = blocks.chunks(1).collect();
    assert_same_store(&one_call, &store_from_blocks(&reg, &singles), "per block");
    assert_same_store(
        &one_call,
        &store_from_blocks(&reg, &uneven_chunks(&blocks)),
        "uneven",
    );
    // And both write paths agree on the same rows.
    let (names, rows) = rows_of(&blocks, &reg);
    assert_same_store(&one_call, &store_from_rows(&names, &[&rows]), "append_rows");
}

/// The store's view of its own size, which a rejected call must leave
/// untouched (as well as every file).
#[derive(Debug, PartialEq)]
struct Observed {
    segments: usize,
    rows: u64,
    buffered: usize,
    last_height: Option<u64>,
}

fn observe(store: &BlockStore) -> Observed {
    Observed {
        segments: store.segment_count(),
        rows: store.row_count(),
        buffered: store.buffered_rows(),
        last_height: store.last_height(),
    }
}

/// A store holding one sealed segment and a partly filled buffer, so a
/// rejected call has both committed and buffered state to disturb.
fn seeded_store(reg: &ProducerRegistry, blocks: &[AttributedBlock]) -> (PathBuf, BlockStore) {
    let dir = tmp_dir();
    let mut store = BlockStore::create(&dir).unwrap();
    let seed_rows: usize = SEGMENT_ROWS + 100;
    let mut credits = 0;
    let split = blocks
        .iter()
        .position(|b| {
            credits += b.credits.len();
            credits >= seed_rows
        })
        .unwrap();
    store.append_attributed(&blocks[..=split], reg).unwrap();
    assert_eq!(store.segment_count(), 1);
    assert!(store.buffered_rows() > 0);
    (dir, store)
}

fn assert_rejected(err: StoreError, needle: &str) {
    match err {
        StoreError::InvalidAppend(msg) => assert!(msg.contains(needle), "{msg}"),
        other => panic!("expected InvalidAppend, got {other}"),
    }
}

/// `WHOLE` segments' worth of valid blocks after `from`, whose last block
/// is then spoiled by `spoil`.
fn spoiled_call(
    blocks: &[AttributedBlock],
    from: u64,
    spoil: impl FnOnce(&mut AttributedBlock),
) -> Vec<AttributedBlock> {
    let mut call: Vec<AttributedBlock> = blocks
        .iter()
        .filter(|b| b.height > from)
        .take(WHOLE * SEGMENT_ROWS)
        .cloned()
        .collect();
    let last = call.last_mut().unwrap();
    spoil(last);
    call
}

#[test]
fn append_attributed_rejected_by_its_last_row_changes_nothing() {
    let reg = source_registry();
    let blocks = blocks(&reg);
    type Spoil = fn(&mut AttributedBlock);
    let cases: [(Spoil, &str); 2] = [
        (|b| b.height = 0, "appends must be height-ordered"),
        (
            |b| b.credits.last_mut().unwrap().producer = ProducerId(PRODUCERS + 5),
            "missing from source registry",
        ),
    ];
    for (spoil, needle) in cases {
        let (dir, mut store) = seeded_store(&reg, &blocks);
        let from = store.last_height().unwrap();
        let call = spoiled_call(&blocks, from, spoil);
        let credits: usize = call.iter().map(|b| b.credits.len()).sum();
        assert!(credits > SEGMENT_ROWS, "the call spans segments");
        let (before, files) = (observe(&store), snapshot(&dir));
        let err = store.append_attributed(&call, &reg).unwrap_err();
        assert_rejected(err, needle);
        assert_eq!(observe(&store), before, "{needle}");
        assert_same_store(&files, &snapshot(&dir), needle);
        fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn append_rows_rejected_by_its_last_row_changes_nothing() {
    let reg = source_registry();
    let blocks = blocks(&reg);
    type Spoil = fn(&mut RowRecord);
    let cases: [(Spoil, &str); 2] = [
        (|r| r.height = 0, "appends must be height-ordered"),
        (|r| r.producer = PRODUCERS + 5, "not in dictionary"),
    ];
    for (spoil, needle) in cases {
        let (dir, mut store) = seeded_store(&reg, &blocks);
        let from = store.last_height().unwrap();
        let call = spoiled_call(&blocks, from, |_| {});
        let mut rows: Vec<RowRecord> = call
            .iter()
            .flat_map(|b| {
                b.credits.iter().map(|c| RowRecord {
                    height: b.height,
                    timestamp: b.timestamp.secs(),
                    producer: store
                        .registry()
                        .get(reg.name(c.producer).unwrap())
                        .unwrap()
                        .0,
                    credit_millis: 1000,
                    tx_count: 0,
                    size_bytes: 0,
                    difficulty: 0,
                })
            })
            .collect();
        assert!(rows.len() > SEGMENT_ROWS, "the call spans segments");
        spoil(rows.last_mut().unwrap());
        let (before, files) = (observe(&store), snapshot(&dir));
        let err = store.append_rows(&rows).unwrap_err();
        assert_rejected(err, needle);
        assert_eq!(observe(&store), before, "{needle}");
        assert_same_store(&files, &snapshot(&dir), needle);
        fs::remove_dir_all(&dir).unwrap();
    }
}
