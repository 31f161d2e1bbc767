//! `eth-year-batch`: the paper pipeline, `load` then `measure`.
//!
//! Load: attribute the chain-year, `append_attributed` it into a fresh
//! store and `flush`. Measure: open the store cold, `scan_columnar` all
//! of it and run the 15-configuration paper matrix through `MatrixPlan`.
//! One operation is one full pass; passes repeat until the run's time is
//! up (at least three, the first of them a warm-up).

use crate::check;
use crate::counting::{self, BackendStats};
use crate::sys::PeakRss;
use crate::trace::{median, Tracer};
use crate::{timed_setup, Config, Outcome};
use blockdec_chain::time::SECS_PER_DAY;
use blockdec_chain::{Attributor, BlockColumns, Granularity, Timestamp};
use blockdec_core::{MatrixPlan, MeasurementEngine, MeasurementSeries, MetricKind};
use blockdec_store::{BlockStore, ScanPredicate};
use std::sync::Arc;
use std::time::Instant;

/// Passes per run at least: one warm-up, then a traced and an untraced
/// one.
const MIN_PASSES: usize = 3;

/// Block-count sliding window of the paper matrix (~21.7 h of ETH).
const SLIDING_BLOCKS: usize = 6000;

/// The paper's per-chain matrix: every PAPER metric over day, week and
/// month calendar windows, one block-count and one day-long time-based
/// sliding spec — 15 configurations.
pub fn paper_matrix(origin: Timestamp) -> Vec<MeasurementEngine> {
    let mut configs = Vec::new();
    for &metric in &MetricKind::PAPER {
        for g in [Granularity::Day, Granularity::Week, Granularity::Month] {
            configs.push(MeasurementEngine::new(metric).fixed_calendar(g, origin));
        }
        configs.push(MeasurementEngine::new(metric).sliding(SLIDING_BLOCKS, SLIDING_BLOCKS / 2));
        configs.push(MeasurementEngine::new(metric).sliding_time(SECS_PER_DAY, SECS_PER_DAY / 2));
    }
    configs
}

/// One configuration at a time through the single-config engine, on two
/// threads: the reference the planner's shared-window output must equal.
fn reference_series(configs: &[MeasurementEngine], cols: &BlockColumns) -> Vec<MeasurementSeries> {
    let half = configs.len().div_ceil(2);
    std::thread::scope(|scope| {
        let second = scope.spawn(|| {
            configs[half..]
                .iter()
                .map(|c| c.run_columns(cols.as_slice()))
                .collect::<Vec<_>>()
        });
        let mut out: Vec<MeasurementSeries> = configs[..half]
            .iter()
            .map(|c| c.run_columns(cols.as_slice()))
            .collect();
        out.extend(second.join().expect("reference thread panicked"));
        out
    })
}

/// Per-pass layer readings of a traced pass.
#[derive(Default)]
struct Layers {
    attribute: f64,
    append: f64,
    flush: f64,
    open: f64,
    scan: f64,
    plan: f64,
    matrix: f64,
    rows: f64,
    windows: f64,
    segments: f64,
    segment_bytes: f64,
    blocks: f64,
    puts: f64,
    put_bytes: f64,
    put_s: f64,
    get_bytes: f64,
}

pub fn run(cfg: &Config, tr: &mut Tracer) -> Outcome {
    let scenario = cfg.scenario();
    let (blocks, setup_s) = timed_setup(|| scenario.generate_blocks());

    // Reference: the generated columns, attributed once in set-up, and
    // every configuration's series from the single-config engine.
    let mut attributor = Attributor::new(scenario.chain, scenario.attribution);
    let mut generated = BlockColumns::with_capacity(blocks.len(), blocks.len());
    for b in &blocks {
        attributor.attribute_into(b, &mut generated);
    }
    let generated_names = attributor.into_registry();
    let configs = paper_matrix(Timestamp(scenario.start_time));
    let mut reference = reference_series(&configs, &generated);
    if cfg.corrupt_reference {
        check::corrupt(&mut reference);
    }

    let stats = cfg.trace.then(|| Arc::new(BackendStats::default()));
    let mut load_s = Vec::new();
    let mut measure_s = Vec::new();
    let mut traced_pass_s = Vec::new();
    let mut untraced_pass_s = Vec::new();
    let mut layers: Vec<Layers> = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);

    let rss = PeakRss::start();
    let mut peak_rss_mb = None;
    let deadline = cfg.deadline();
    let mut pass = 0usize;
    while pass < MIN_PASSES || Instant::now() < deadline {
        // The traced run alternates untraced and traced passes.
        tr.set_enabled(cfg.trace && pass > 0 && pass.is_multiple_of(2));
        let traced = tr.enabled();
        let dir = cfg.fresh_dir(&format!("batch-{pass}"));
        let backend = || counting::backend(&dir, if traced { stats.as_ref() } else { None });
        let before = stats.as_ref().map(|s| s.snapshot()).unwrap_or_default();
        attempted += 1;

        let t0 = Instant::now();
        let load = tr.enter("load");
        let span = tr.enter("chain.attribute");
        let mut attributor = Attributor::new(scenario.chain, scenario.attribution);
        let attributed = attributor.attribute_all(&blocks);
        tr.exit(span);
        let loaded = (|| {
            let span = tr.enter("store.create");
            let mut store = BlockStore::create_with(backend())?;
            tr.exit(span);
            let span = tr.enter("store.append");
            store.append_attributed(&attributed, attributor.registry())?;
            tr.exit(span);
            let span = tr.enter("store.flush");
            store.flush()?;
            tr.exit(span);
            Ok::<(), blockdec_store::StoreError>(())
        })();
        tr.exit(load);
        let t1 = Instant::now();
        drop(attributed);
        let after_load = stats.as_ref().map(|s| s.snapshot()).unwrap_or_default();

        let t2 = Instant::now();
        let measure = tr.enter("measure");
        let measured = loaded.and_then(|()| {
            let span = tr.enter("store.open");
            let store = BlockStore::open_with(backend())?;
            tr.exit(span);
            let span = tr.enter("store.scan");
            let cols = store.scan_columnar(&ScanPredicate::all())?;
            tr.exit(span);
            let span = tr.enter("core.plan");
            let plan = MatrixPlan::new(&configs);
            tr.exit(span);
            let span = tr.enter("core.matrix");
            let series = plan.run_columns(cols.as_slice());
            tr.exit(span);
            Ok::<_, blockdec_store::StoreError>((store, cols, series))
        });
        tr.exit(measure);
        let t3 = Instant::now();
        if pass == 0 {
            // Before the check, whose reference copy is not the program's.
            peak_rss_mb = rss.growth_mb();
        }

        let ok = match &measured {
            Ok((store, cols, series)) => {
                let expected =
                    check::rekey(generated.as_slice(), &generated_names, store.registry());
                expected.as_ref() == Some(cols) && check::same_series(series, &reference)
            }
            Err(e) => {
                eprintln!("perfbench: batch pass {pass} failed: {e}");
                false
            }
        };
        if !ok {
            failed += 1;
            eprintln!("perfbench: batch pass {pass} output differs from the reference");
        }
        let pass_s = (t1 - t0 + (t3 - t2)).as_secs_f64();
        if traced {
            let grown = stats.as_ref().map(|s| s.snapshot()).unwrap_or_default();
            let (load_io, measure_io) = (after_load.since(&before), grown.since(&after_load));
            let (rows, windows) = measured.as_ref().map_or((0.0, 0.0), |(_, cols, series)| {
                let windows: usize = series.iter().map(|s| s.points.len()).sum();
                (cols.credit_count() as f64, windows as f64)
            });
            let last = |name: &str| tr.durations_s(name).last().copied().unwrap_or(0.0);
            layers.push(Layers {
                attribute: last("chain.attribute"),
                append: last("store.append"),
                flush: last("store.flush"),
                open: last("store.open"),
                scan: last("store.scan"),
                plan: last("core.plan"),
                matrix: last("core.matrix"),
                rows,
                windows,
                segments: load_io.segment_puts as f64,
                segment_bytes: load_io.segment_bytes as f64,
                blocks: blocks.len() as f64,
                puts: load_io.put_calls as f64,
                put_bytes: load_io.put_bytes as f64,
                put_s: load_io.put_ns as f64 / 1e9,
                get_bytes: (measure_io.get_bytes + measure_io.get_range_bytes) as f64,
            });
            traced_pass_s.push(pass_s);
        } else if pass > 0 {
            // Pass 0 faults in the heap the later passes reuse; it is
            // checked but not timed.
            untraced_pass_s.push(pass_s);
            load_s.push((t1 - t0).as_secs_f64());
            measure_s.push((t3 - t2).as_secs_f64());
        }
        drop(measured);
        let _ = std::fs::remove_dir_all(&dir);
        pass += 1;
    }
    tr.set_enabled(false);

    let m = |f: fn(&Layers) -> f64| median(&layers.iter().map(f).collect::<Vec<_>>());
    let layers = if cfg.trace {
        vec![
            ("chain.attribute_s", m(|l| l.attribute)),
            ("store.append_s", m(|l| l.append)),
            ("store.flush_s", m(|l| l.flush)),
            ("store.segments_sealed", m(|l| l.segments)),
            ("store.bytes_per_block", m(|l| l.segment_bytes / l.blocks)),
            ("backend.put_calls", m(|l| l.puts)),
            ("backend.put_bytes", m(|l| l.put_bytes)),
            ("backend.put_s", m(|l| l.put_s)),
            ("store.open_s", m(|l| l.open)),
            ("store.scan_s", m(|l| l.scan)),
            ("store.decode_rows_per_s", m(|l| l.rows / l.scan)),
            ("backend.get_bytes", m(|l| l.get_bytes)),
            ("core.plan_s", m(|l| l.plan)),
            ("core.matrix_s", m(|l| l.matrix)),
            ("core.windows_emitted", m(|l| l.windows)),
            (
                "trace.overhead_pct",
                (median(&traced_pass_s) / median(&untraced_pass_s) - 1.0) * 100.0,
            ),
        ]
    } else {
        Vec::new()
    };
    Outcome {
        attempted,
        failed,
        setup_s,
        peak_rss_mb,
        op_s: untraced_pass_s,
        layers,
        details: vec![
            ("load_s", median(&load_s), "s"),
            ("measure_s", median(&measure_s), "s"),
        ],
    }
}
