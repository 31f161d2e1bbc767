//! `eth-year-follow`: the live head-following path.
//!
//! The pre-generated head events (canonical blocks interleaved with the
//! feed's seeded forks) are applied one at a time: `ChainView::apply`,
//! `take_finalized`, then every finalized block into six
//! `MetricDeltaStream`s (PAPER metrics × {fixed:day, sliding 6000/3000}).
//! One operation is one event; its latency runs from `apply` until its
//! finalized blocks are in every stream. Passes over the year's events
//! repeat, each into a fresh store, until the run's time is up.

use crate::check;
use crate::counting::{self, BackendStats};
use crate::sys::PeakRss;
use crate::trace::{percentile, Tracer};
use crate::{timed_setup, Config, Outcome};
use blockdec_chain::{Block, Granularity, Timestamp};
use blockdec_core::windows::SlidingWindowSpec;
use blockdec_core::{
    MeasurementEngine, MeasurementPoint, MeasurementSeries, MetricDeltaStream, MetricKind,
};
use blockdec_ingest::ChainView;
use blockdec_sim::FeedConfig;
use blockdec_store::{BlockStore, ScanPredicate};
use std::sync::Arc;
use std::time::Instant;

/// Finality watermark: deeper than the feed's deepest fork (3).
const FINALITY: usize = 6;

/// Block-count sliding window of the streams (~21.7 h of ETH).
const SLIDING_BLOCKS: usize = 6000;

/// Events between deadline checks; the traced run also alternates
/// tracing on and off at this grain to measure its own overhead.
const CHUNK: usize = 4096;

fn configs(origin: Timestamp) -> Vec<MeasurementEngine> {
    MetricKind::PAPER
        .iter()
        .flat_map(|&m| {
            [
                MeasurementEngine::new(m).fixed_calendar(Granularity::Day, origin),
                MeasurementEngine::new(m).sliding(SLIDING_BLOCKS, SLIDING_BLOCKS / 2),
            ]
        })
        .collect()
}

fn streams(origin: Timestamp) -> Vec<MetricDeltaStream> {
    let spec = SlidingWindowSpec::new(SLIDING_BLOCKS, SLIDING_BLOCKS / 2);
    MetricKind::PAPER
        .iter()
        .flat_map(|&m| {
            [
                MetricDeltaStream::fixed(m, Granularity::Day, origin),
                MetricDeltaStream::sliding(m, spec),
            ]
        })
        .collect()
}

fn drain(streams: &mut [MetricDeltaStream], points: &mut [Vec<MeasurementPoint>]) {
    for (s, p) in streams.iter_mut().zip(points.iter_mut()) {
        p.extend(std::iter::from_fn(|| s.poll()));
    }
}

/// Readings of the last pass, for the per-layer metrics.
#[derive(Default)]
struct PassReadings {
    complete: bool,
    reorgs: u64,
    rolled_back: u64,
    accepted: u64,
    finalized: u64,
    flush_s: f64,
    segments: u64,
    segment_bytes: u64,
    puts: u64,
    put_bytes: u64,
    put_s: f64,
}

pub fn run(cfg: &Config, tr: &mut Tracer) -> Outcome {
    let scenario = cfg.scenario();
    let (events, setup_s) = timed_setup(|| {
        scenario
            .stream_events(FeedConfig::default())
            .collect::<Vec<Block>>()
    });

    // Reference: the generated canonical columns and each streamed
    // configuration's batch series. The series are made on one thread:
    // threads sharing the allocator arena leave a heap layout that differs
    // from run to run, and the pass's peak RSS growth differs with it.
    let generated = scenario.generate_columns();
    let origin = Timestamp(scenario.start_time);
    let mut reference: Vec<MeasurementSeries> = configs(origin)
        .iter()
        .map(|c| c.run_columns(generated.columns.as_slice()))
        .collect();
    if cfg.corrupt_reference {
        check::corrupt(&mut reference);
    }

    let stats = cfg.trace.then(|| Arc::new(BackendStats::default()));
    // Touch the latency buffer now, so filling it is not counted as the
    // program's memory growth.
    let mut latency_ns: Vec<u32> = vec![u32::MAX; events.len() * 4];
    latency_ns.clear();
    let (mut traced_ns, mut traced_n, mut untraced_ns, mut untraced_n) = (0u64, 0u64, 0u64, 0u64);
    let (mut pushed_blocks, mut push_ns_total) = (0u64, 0u64);
    let mut loop_s = 0.0;
    let mut last = PassReadings::default();
    let (mut attempted, mut failed) = (0u64, 0u64);

    let rss = PeakRss::start();
    let mut peak_rss_mb = None;
    let deadline = cfg.deadline();
    let mut pass = 0usize;
    while pass == 0 || Instant::now() < deadline {
        let dir = cfg.fresh_dir(&format!("follow-{pass}"));
        let before = stats.as_ref().map(|s| s.snapshot()).unwrap_or_default();
        let store = match BlockStore::create_with(counting::backend(&dir, stats.as_ref())) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("perfbench: cannot create follow store: {e}");
                attempted += 1;
                failed += 1;
                break;
            }
        };
        let mut view = ChainView::new(store, scenario.chain, scenario.attribution, FINALITY);
        let mut live = streams(origin);
        let mut points: Vec<Vec<MeasurementPoint>> = vec![Vec::new(); live.len()];
        let mut pass_ok = true;
        let mut pass_events = 0u64;
        let mut complete = true;

        let t_loop = Instant::now();
        for (i, event) in events.iter().enumerate() {
            if i % CHUNK == 0 {
                if i > 0 && Instant::now() >= deadline {
                    complete = false;
                    break;
                }
                tr.set_enabled(cfg.trace && (i / CHUNK) % 2 == 1);
            }
            let traced = tr.enabled();
            let t0 = Instant::now();
            let applied = view.apply(event);
            let finalized = view.take_finalized();
            let t1 = Instant::now();
            let mut pushed = true;
            for b in &finalized {
                for s in live.iter_mut() {
                    pushed &= s.push_block(b).is_ok();
                }
            }
            let t2 = Instant::now();
            let ns = u64::try_from((t2 - t0).as_nanos()).unwrap_or(u64::MAX);
            latency_ns.push(u32::try_from(ns).unwrap_or(u32::MAX));
            if traced {
                let push = u64::try_from((t2 - t1).as_nanos()).unwrap_or(u64::MAX);
                tr.sample("ingest.apply", ns - push);
                tr.sample("core.delta_push", push);
                pushed_blocks += finalized.len() as u64;
                push_ns_total += push;
                traced_ns += ns;
                traced_n += 1;
            } else {
                untraced_ns += ns;
                untraced_n += 1;
            }
            pass_events += 1;
            drain(&mut live, &mut points);
            if let Err(e) = applied {
                eprintln!("perfbench: follow event {i} failed: {e}");
                pass_ok = false;
                complete = false;
                break;
            }
            pass_ok &= pushed;
        }
        loop_s += t_loop.elapsed().as_secs_f64();
        if pass == 0 {
            // Before the check, whose reference copy is not the program's.
            peak_rss_mb = rss.growth_mb();
        }
        tr.set_enabled(false);
        attempted += pass_events;

        // Check: what the view persisted and every stream's points must
        // equal the reference, whole-year or as a prefix.
        let t_flush = Instant::now();
        let flushed = if complete {
            view.finalize_all().map(|_| ())
        } else {
            view.flush()
        };
        let flush_s = t_flush.elapsed().as_secs_f64();
        pass_ok &= flushed.is_ok();
        if complete {
            for b in &view.take_finalized() {
                for s in live.iter_mut() {
                    pass_ok &= s.push_block(b).is_ok();
                }
            }
            live.iter_mut().for_each(MetricDeltaStream::finish);
            drain(&mut live, &mut points);
        }
        let store = view.store();
        let n = usize::try_from(view.finalized()).unwrap_or(usize::MAX);
        let expected = (n <= generated.columns.len())
            .then(|| {
                let prefix = generated.columns.slice(0, n);
                check::rekey(prefix, &generated.registry, store.registry())
            })
            .flatten();
        let scanned = store.scan_columnar(&ScanPredicate::all()).ok();
        pass_ok &= expected.is_some() && expected == scanned;
        pass_ok &= points.iter().zip(&reference).all(|(got, want)| {
            if complete {
                check::same_points(got, &want.points)
            } else {
                got.len() <= want.points.len() && check::same_points(got, &want.points[..got.len()])
            }
        });
        if !pass_ok {
            eprintln!("perfbench: follow pass {pass} output differs from the reference");
            failed += pass_events;
        }

        if complete || !last.complete {
            let io = stats
                .as_ref()
                .map(|s| s.snapshot().since(&before))
                .unwrap_or_default();
            let reorgs = view.reorg_stats();
            last = PassReadings {
                complete,
                reorgs: reorgs.applied,
                rolled_back: reorgs.blocks_dropped,
                accepted: view.accepted(),
                finalized: view.finalized(),
                flush_s,
                segments: io.segment_puts,
                segment_bytes: io.segment_bytes,
                puts: io.put_calls,
                put_bytes: io.put_bytes,
                put_s: io.put_ns as f64 / 1e9,
            };
        }
        drop(view);
        let _ = std::fs::remove_dir_all(&dir);
        pass += 1;
    }
    let mut sorted_ns = latency_ns.clone();
    sorted_ns.sort_unstable();
    let us = |p: f64| f64::from(percentile(&sorted_ns, p)) / 1e3;
    let details = vec![
        (
            "follow_events_per_s",
            latency_ns.len() as f64 / loop_s,
            "1/s",
        ),
        ("event_latency_p50_us", us(50.0), "us"),
        ("event_latency_p99_us", us(99.0), "us"),
    ];
    drop(sorted_ns);

    let layers = if cfg.trace {
        let apply = tr.samples("ingest.apply");
        let mut apply_sorted = apply.to_vec();
        apply_sorted.sort_unstable();
        let mean = |v: &[u64]| v.iter().sum::<u64>() as f64 / v.len().max(1) as f64;
        let per_year = events.len() as f64 / 1e9;
        let streams = (MetricKind::PAPER.len() * 2) as u64;
        vec![
            ("ingest.apply_s", mean(apply) * per_year),
            (
                "ingest.apply_p99_us",
                percentile(&apply_sorted, 99.0) as f64 / 1e3,
            ),
            ("ingest.reorgs_applied", last.reorgs as f64),
            ("ingest.blocks_rolled_back", last.rolled_back as f64),
            (
                "ingest.useful_ratio",
                last.finalized as f64 / last.accepted.max(1) as f64,
            ),
            (
                "core.delta_push_s",
                mean(tr.samples("core.delta_push")) * per_year,
            ),
            (
                "core.delta_ns_per_block_stream",
                push_ns_total as f64 / (pushed_blocks.max(1) * streams) as f64,
            ),
            ("store.flush_s", last.flush_s),
            ("store.segments_sealed", last.segments as f64),
            (
                "store.bytes_per_block",
                last.segment_bytes as f64 / last.finalized.max(1) as f64,
            ),
            ("backend.put_calls", last.puts as f64),
            ("backend.put_bytes", last.put_bytes as f64),
            ("backend.put_s", last.put_s),
            (
                "trace.overhead_pct",
                ((traced_ns as f64 / traced_n.max(1) as f64)
                    / (untraced_ns as f64 / untraced_n.max(1) as f64)
                    - 1.0)
                    * 100.0,
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
        op_s: latency_ns.iter().map(|&ns| f64::from(ns) / 1e9).collect(),
        layers,
        details,
    }
}
