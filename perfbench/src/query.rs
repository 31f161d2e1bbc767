//! `eth-adhoc-query`: a seeded mix of ad-hoc questions against a
//! compacted chain-year store built in set-up.
//!
//! - ~50% top-10 producers in a 3-day window: `Plan::top_k`, the row
//!   path through the decoded-segment cache.
//! - ~48% paper metrics over a 7-day window: `block_columns` with a time
//!   filter, then `MatrixPlan` — the pruned columnar path through the
//!   page cache.
//! - ~2% one producer's full-year count: `Plan::count`, a full row scan.
//!
//! About three quarters of the windows fall in the last 30 days. The
//! store's ~34 segments overflow the 8-segment row cache while its
//! ~18 MB fit the 64 MiB page cache, so one mix covers a working set
//! that overflows one cache and fits the other. One operation is one
//! question. A first round of 200 warms the caches untimed; whole rounds
//! then run back to back until the run's time is up, at least
//! `RSS_ROUNDS` of them.

use crate::check;
use crate::counting::{self, BackendStats};
use crate::sys::PeakRss;
use crate::trace::{median, percentile, Tracer};
use crate::{timed_setup, Config, Outcome};
use blockdec_chain::hash::splitmix64;
use blockdec_chain::time::SECS_PER_DAY;
use blockdec_chain::{BlockColumns, Granularity, ProducerId, Timestamp};
use blockdec_core::{MatrixPlan, MeasurementEngine, MeasurementSeries, MetricKind};
use blockdec_query::{Filter, MeasurementSource, Plan, QueryOutput};
use blockdec_sim::rng::SimRng;
use blockdec_store::BlockStore;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Questions made in set-up; far more than a run can ask.
const QUESTIONS: usize = 100_000;

/// Seed domain of the question mix, apart from the scenario's streams.
const MIX_DOMAIN: u64 = 0x9e37_79b9_7f4a_7c15;

/// Recent windows fall in the last `RECENT_DAYS` of the year.
const RECENT_DAYS: i64 = 30;

/// Timed rounds over which peak-RSS growth is read. Every run asks at
/// least this many, so the reading covers the same questions whatever
/// the host's speed.
const RSS_ROUNDS: usize = 4;

/// Producers a full-year count may ask about: the largest ones, which
/// appear in every segment, so the count is a full row scan.
const SCAN_PRODUCERS: usize = 10;

#[derive(Clone, Copy)]
enum Question {
    TopK { lo: i64, hi: i64 },
    Window { lo: i64, hi: i64 },
    Producer { id: u32 },
}

/// The reference the store's answers are checked against: the generated
/// columns in the store's dictionary, plus per-producer full-year totals.
struct Reference {
    cols: BlockColumns,
    sorted: bool,
    totals: Vec<f64>,
}

impl Reference {
    fn new(cols: BlockColumns, producers: usize) -> Reference {
        let sorted = (1..cols.len()).all(|i| cols.timestamp(i - 1) <= cols.timestamp(i));
        let mut totals = vec![0.0; producers];
        for i in 0..cols.len() {
            for (p, w) in cols.producers_of(i).iter().zip(cols.weights_of(i)) {
                totals[p.index()] += w;
            }
        }
        Reference {
            cols,
            sorted,
            totals,
        }
    }

    /// Blocks with a timestamp in `[lo, hi]`.
    fn window(&self, lo: i64, hi: i64) -> BlockColumns {
        let c = &self.cols;
        if self.sorted {
            let ts = |i: usize| c.timestamp(i).secs();
            let a = partition(c.len(), |i| ts(i) < lo);
            let b = partition(c.len(), |i| ts(i) <= hi);
            return c.slice(a, b.max(a)).to_columns();
        }
        let mut out = BlockColumns::new();
        for i in (0..c.len()).filter(|&i| (lo..=hi).contains(&c.timestamp(i).secs())) {
            out.push_block(c.height(i), c.timestamp(i));
            for (&p, &w) in c.producers_of(i).iter().zip(c.weights_of(i)) {
                out.push_credit(p, w);
            }
        }
        out
    }

    /// What `Plan::top_k(TimeBetween(lo, hi), 10)` must print.
    fn top_k(&self, store: &BlockStore, lo: i64, hi: i64, k: usize) -> Vec<Vec<String>> {
        let w = self.window(lo, hi);
        let mut counts: BTreeMap<u32, f64> = BTreeMap::new();
        for i in 0..w.len() {
            for (p, &c) in w.producers_of(i).iter().zip(w.weights_of(i)) {
                *counts.entry(p.0).or_insert(0.0) += c;
            }
        }
        let total: f64 = counts.values().sum();
        let mut ranked: Vec<(u32, f64)> = counts.into_iter().collect();
        ranked.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        ranked.truncate(k);
        ranked
            .into_iter()
            .map(|(p, blocks)| {
                let name = store.registry().name(ProducerId(p)).unwrap_or("<unknown>");
                let share = if total > 0.0 { blocks / total } else { 0.0 };
                vec![name.to_string(), format!("{blocks}"), format!("{share:.6}")]
            })
            .collect()
    }
}

/// First index in `0..n` where `pred` stops holding (it must hold on a
/// prefix).
fn partition(n: usize, pred: impl Fn(usize) -> bool) -> usize {
    let (mut lo, mut hi) = (0, n);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if pred(mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// One round of the mix, shuffled: 100 top-k, 96 window, 4 full-year
/// counts, with exactly three quarters of each kind's windows recent.
/// Whole rounds keep every run's composition at the stated shares.
const ROUND: [(u8, usize); 5] = [(0, 75), (1, 25), (2, 72), (3, 24), (4, 4)];

fn make_questions(seed: u64, ts_min: i64, ts_max: i64, producers: &[u32]) -> Vec<Question> {
    let mut rng = SimRng::new(splitmix64(seed ^ MIX_DOMAIN));
    let window = |rng: &mut SimRng, days: i64, recent: bool| {
        let len = days * SECS_PER_DAY;
        let recent_lo = ts_min.max(ts_max - RECENT_DAYS * SECS_PER_DAY);
        let from = if recent { recent_lo } else { ts_min };
        let to = (ts_max - len).max(from);
        let lo = from + rng.below((to - from) as u64 + 1) as i64;
        (lo, lo + len - 1)
    };
    // Full-year counts take the largest producers in turn from a seeded
    // start, so every run of ten or more of them covers all ten.
    let mut next_producer = rng.below(producers.len() as u64) as usize;
    let mut round: Vec<u8> = ROUND
        .iter()
        .flat_map(|&(kind, n)| std::iter::repeat_n(kind, n))
        .collect();
    let mut out = Vec::with_capacity(QUESTIONS);
    while out.len() < QUESTIONS {
        for i in (1..round.len()).rev() {
            round.swap(i, rng.below(i as u64 + 1) as usize);
        }
        for &kind in &round {
            out.push(match kind {
                0 | 1 => {
                    let (lo, hi) = window(&mut rng, 3, kind == 0);
                    Question::TopK { lo, hi }
                }
                2 | 3 => {
                    let (lo, hi) = window(&mut rng, 7, kind == 2);
                    Question::Window { lo, hi }
                }
                _ => {
                    next_producer = (next_producer + 1) % producers.len();
                    Question::Producer {
                        id: producers[next_producer],
                    }
                }
            });
        }
    }
    out
}

/// Per-kind latencies in milliseconds, split by whether the question ran
/// traced.
#[derive(Default)]
struct Latencies {
    topk: Vec<f64>,
    window: Vec<f64>,
    producer: Vec<f64>,
}

impl Latencies {
    fn kind(&mut self, q: &Question) -> &mut Vec<f64> {
        match q {
            Question::TopK { .. } => &mut self.topk,
            Question::Window { .. } => &mut self.window,
            Question::Producer { .. } => &mut self.producer,
        }
    }

    /// Σ count × median over the kinds: the weight of a typical mix.
    fn weighted(&self, counts: &Latencies) -> f64 {
        [
            (&self.topk, counts.topk.len()),
            (&self.window, counts.window.len()),
            (&self.producer, counts.producer.len()),
        ]
        .iter()
        .map(|(v, n)| median(v) * *n as f64)
        .sum()
    }
}

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

enum Answer {
    Table(QueryOutput),
    Measured(BlockColumns, Vec<MeasurementSeries>),
}

pub fn run(cfg: &Config, tr: &mut Tracer) -> Outcome {
    let scenario = cfg.scenario();
    let dir = cfg.work.join("store");
    let (generated, setup_s) = timed_setup(|| {
        let _ = std::fs::remove_dir_all(&dir);
        let generated = scenario.generate();
        let mut store = BlockStore::create(&dir).expect("create the query store");
        store
            .append_attributed(&generated.attributed, &generated.registry)
            .expect("load the query store");
        store.flush().expect("flush the query store");
        store.compact().expect("compact the query store");
        generated
    });

    let stats = cfg.trace.then(|| Arc::new(BackendStats::default()));
    let store = BlockStore::open_with(counting::backend(&dir, stats.as_ref()))
        .expect("open the query store");
    let cols = BlockColumns::from_blocks(&generated.attributed);
    drop(generated.attributed);
    let rekeyed = check::rekey(cols.as_slice(), &generated.registry, store.registry())
        .expect("every generated producer is in the store dictionary");
    drop(cols);
    let reference = Reference::new(rekeyed, store.registry().len());
    let ts_min = (0..reference.cols.len())
        .map(|i| reference.cols.timestamp(i).secs())
        .min()
        .unwrap_or(0);
    let ts_max = (0..reference.cols.len())
        .map(|i| reference.cols.timestamp(i).secs())
        .max()
        .unwrap_or(0);
    let mut by_total: Vec<u32> = (0..reference.totals.len() as u32).collect();
    by_total.sort_by(|&a, &b| {
        reference.totals[b as usize]
            .total_cmp(&reference.totals[a as usize])
            .then(a.cmp(&b))
    });
    by_total.truncate(SCAN_PRODUCERS);
    let questions = make_questions(cfg.seed, ts_min, ts_max, &by_total);
    let origin = Timestamp(scenario.start_time);
    let configs: Vec<MeasurementEngine> = MetricKind::PAPER
        .iter()
        .map(|&m| MeasurementEngine::new(m).fixed_calendar(Granularity::Day, origin))
        .collect();

    let mut traced = Latencies::default();
    let mut untraced = Latencies::default();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let round_len: usize = ROUND.iter().map(|&(_, n)| n).sum();
    let mut op_s = Vec::new();
    let (mut seg0, mut pages0) = (store.cache_stats(), store.page_cache_stats());
    let mut io0 = stats.as_ref().map(|s| s.snapshot()).unwrap_or_default();
    let mut rss = None;
    let mut peak_rss_mb = None;
    let mut deadline = Instant::now();
    for (i, q) in questions.iter().enumerate() {
        // The first round warms the caches and is checked but not timed.
        // Later rounds run whole, so every run asks the exact mix.
        if i == round_len {
            (seg0, pages0) = (store.cache_stats(), store.page_cache_stats());
            io0 = stats.as_ref().map(|s| s.snapshot()).unwrap_or_default();
            rss = Some(PeakRss::start());
            deadline = cfg.deadline();
        } else if i % round_len == 0 {
            if i == (1 + RSS_ROUNDS) * round_len {
                peak_rss_mb = rss.as_ref().and_then(PeakRss::growth_mb);
            }
            if i >= (1 + RSS_ROUNDS) * round_len && Instant::now() >= deadline {
                break;
            }
        }
        let timed = i >= round_len;
        tr.set_enabled(cfg.trace && timed && i % 2 == 1);
        let t0 = Instant::now();
        let answer = match *q {
            Question::TopK { lo, hi } => {
                let span = tr.enter("query.topk");
                let out = Plan::top_k(Filter::TimeBetween(lo, hi), 10).execute(&store);
                tr.exit(span);
                out.map(Answer::Table)
            }
            Question::Window { lo, hi } => {
                let span = tr.enter("query.window_measure");
                let out = store.block_columns(&Filter::TimeBetween(lo, hi));
                tr.exit(span);
                out.map(|cols| {
                    let span = tr.enter("core.plan");
                    let plan = MatrixPlan::new(&configs);
                    tr.exit(span);
                    let span = tr.enter("core.matrix");
                    let series = plan.run_columns(cols.as_slice());
                    tr.exit(span);
                    Answer::Measured(cols, series)
                })
            }
            Question::Producer { id } => {
                let span = tr.enter("query.producer_scan");
                let out = Plan::count(Filter::ProducerIs(id)).execute(&store);
                tr.exit(span);
                out.map(Answer::Table)
            }
        };
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        if tr.enabled() {
            traced.kind(q).push(ms);
        } else if timed {
            untraced.kind(q).push(ms);
            op_s.push(ms / 1e3);
        }
        tr.set_enabled(false);
        attempted += 1;

        let ok = match (q, &answer) {
            (Question::TopK { lo, hi }, Ok(Answer::Table(t))) => {
                t.rows == reference.top_k(&store, *lo, *hi, 10)
            }
            (Question::Window { lo, hi }, Ok(Answer::Measured(cols, series))) => {
                let want = reference.window(*lo, *hi);
                let mut want_series: Vec<MeasurementSeries> = configs
                    .iter()
                    .map(|c| c.run_columns(want.as_slice()))
                    .collect();
                if cfg.corrupt_reference {
                    check::corrupt(&mut want_series);
                }
                *cols == want && check::same_series(series, &want_series)
            }
            (Question::Producer { id }, Ok(Answer::Table(t))) => {
                t.rows == vec![vec![format!("{}", reference.totals[*id as usize])]]
            }
            (_, Err(e)) => {
                eprintln!("perfbench: question {i} failed: {e}");
                false
            }
            _ => false,
        };
        if !ok {
            failed += 1;
            if failed <= 3 {
                eprintln!("perfbench: question {i} answer differs from the reference");
            }
        }
    }

    let layers = if cfg.trace {
        let (seg1, pages1) = (store.cache_stats(), store.page_cache_stats());
        let io = stats
            .as_ref()
            .map(|s| s.snapshot().since(&io0))
            .unwrap_or_default();
        let ratio = |hits: u64, misses: u64| hits as f64 / (hits + misses).max(1) as f64;
        let span_median = |name: &str| median(&tr.durations_s(name));
        let asked = attempted.max(1) as f64;
        vec![
            ("query.topk_s", span_median("query.topk")),
            (
                "query.window_measure_s",
                span_median("query.window_measure"),
            ),
            ("query.producer_scan_s", span_median("query.producer_scan")),
            ("core.plan_s", span_median("core.plan")),
            ("core.matrix_s", span_median("core.matrix")),
            (
                "store.segment_cache_hit_ratio",
                ratio(seg1.0 - seg0.0, seg1.1 - seg0.1),
            ),
            (
                "store.page_cache_hit_ratio",
                ratio(pages1.hits - pages0.hits, pages1.misses - pages0.misses),
            ),
            (
                "store.page_cache_evictions",
                (pages1.evictions - pages0.evictions) as f64,
            ),
            ("backend.get_range_calls", io.get_range_calls as f64 / asked),
            (
                "backend.bytes_fetched_per_query",
                (io.get_bytes + io.get_range_bytes) as f64 / asked,
            ),
            (
                "trace.overhead_pct",
                (traced.weighted(&untraced) / untraced.weighted(&untraced) - 1.0) * 100.0,
            ),
        ]
    } else {
        Vec::new()
    };
    let (topk, window, producer) = (
        sorted(&untraced.topk),
        sorted(&untraced.window),
        sorted(&untraced.producer),
    );
    Outcome {
        attempted,
        failed,
        setup_s,
        peak_rss_mb,
        op_s,
        layers,
        details: vec![
            ("topk_p50_ms", percentile(&topk, 50.0), "ms"),
            ("topk_p95_ms", percentile(&topk, 95.0), "ms"),
            ("window_measure_p50_ms", percentile(&window, 50.0), "ms"),
            ("window_measure_p95_ms", percentile(&window, 95.0), "ms"),
            ("producer_scan_p50_ms", percentile(&producer, 50.0), "ms"),
        ],
    }
}
