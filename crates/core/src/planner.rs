//! The shared-window matrix planner.
//!
//! The paper's headline artifact is a *matrix* — 3 metrics × 3
//! granularities × 2 window families per chain — and every configuration
//! in a column of that matrix re-derives the same intermediate state: the
//! window boundaries, the per-window [`ProducerDistribution`], and the
//! sorted weight vector the metric kernels consume. [`MatrixPlan`]
//! deduplicates all of it:
//!
//! 1. **Group by window spec.** Configurations are grouped by their
//!    [`WindowSpec`] (`Eq + Hash`), and duplicate `(metric, window)`
//!    pairs collapse to one evaluation. Each unique spec's window stream
//!    is materialized once — the fixed-calendar bucketing, the sliding
//!    add/remove slide, and the time-window permutation sort happen once
//!    per *spec*, not once per *config*.
//! 2. **One sorted scratch buffer per window.** For each window the
//!    planner fills a reusable scratch `Vec<f64>` via
//!    [`ProducerDistribution::sorted_weights_into`] (the
//!    sorted-scratch contract of [`crate::metrics`]) and evaluates every
//!    requested metric with [`MetricKind::compute_sorted`] — the weight
//!    vector is allocated and sorted once, however many metrics read it.
//! 3. **Chunked data parallelism.** Parallelism lives *within* a window
//!    spec, not across configs: emitted window indices are partitioned
//!    into contiguous chunks across `std::thread::scope` workers, each
//!    rebuilding its chunk's leading distribution and then sliding. A
//!    single-config ETH-scale sliding run saturates every core.
//!
//! # Exactness
//!
//! Because every public metric function is itself a sort-then-delegate
//! wrapper over the same `*_sorted` kernels, planner output is
//! bit-identical to per-config [`MeasurementEngine::run`] output for the
//! paper's unit-credit attribution (all arithmetic is exact small-integer
//! f64). Under *fractional* credit weights the chunk-leading rebuild and
//! the time-window slide may differ from a continuous slide by f64
//! residue on the order of 1e-12 — the engine's own `ZERO_EPS` guard
//! band — so fractional-attribution comparisons should use an epsilon.

use crate::distribution::ProducerDistribution;
use crate::engine::{timestamp_order_columns, MeasurementEngine, WindowSpec};
use crate::metrics::MetricKind;
use crate::series::{MeasurementPoint, MeasurementSeries};
use crate::windows::fixed::fixed_calendar_windows_columns;
use crate::windows::sliding::SlidingWindowSpec;
use crate::windows::sliding_time::{time_windows_columns, TimeWindowSpec};
use blockdec_chain::{AttributedBlock, BlockColumns, ColumnsSlice, Granularity, Timestamp};
use std::collections::HashMap;
use std::ops::Range;

/// Below this many windows per worker, extra threads cost more in spawn
/// and leading-rebuild overhead than they recover.
const MIN_CHUNK_WINDOWS: usize = 16;

/// One unique window spec and every metric requested over it, in
/// first-appearance order.
struct SpecGroup {
    window: WindowSpec,
    metrics: Vec<MetricKind>,
}

/// An executable measurement plan: the deduplicated form of a config
/// matrix. Build with [`MatrixPlan::new`], execute with
/// [`MatrixPlan::run`]. [`crate::engine::run_matrix`] is the one-call
/// convenience wrapper.
pub struct MatrixPlan {
    groups: Vec<SpecGroup>,
    /// For each input config: (group index, metric slot in that group).
    slots: Vec<(usize, usize)>,
}

/// Everything the planner computes per emitted window: the point
/// metadata plus one value per metric of the owning group, all read from
/// a single sorted scratch fill.
struct WindowRow {
    index: i64,
    start_height: u64,
    end_height: u64,
    start_time: Timestamp,
    end_time: Timestamp,
    blocks: u64,
    producers: u64,
    values: Vec<f64>,
}

impl MatrixPlan {
    /// Plan a config matrix: group configurations by window spec and
    /// collapse duplicate `(metric, window)` pairs.
    pub fn new(configs: &[MeasurementEngine]) -> MatrixPlan {
        let mut groups: Vec<SpecGroup> = Vec::new();
        let mut by_spec: HashMap<WindowSpec, usize> = HashMap::new();
        let mut slots = Vec::with_capacity(configs.len());
        for cfg in configs {
            let gi = *by_spec.entry(cfg.window()).or_insert_with(|| {
                groups.push(SpecGroup {
                    window: cfg.window(),
                    metrics: Vec::new(),
                });
                groups.len() - 1
            });
            let metrics = &mut groups[gi].metrics;
            let slot = metrics
                .iter()
                .position(|&m| m == cfg.metric())
                .unwrap_or_else(|| {
                    metrics.push(cfg.metric());
                    metrics.len() - 1
                });
            slots.push((gi, slot));
        }
        MatrixPlan { groups, slots }
    }

    /// Number of input configurations the plan covers.
    pub fn configs(&self) -> usize {
        self.slots.len()
    }

    /// Number of unique window specs — the streams actually materialized.
    pub fn window_specs(&self) -> usize {
        self.groups.len()
    }

    /// Configurations that reuse a window stream another configuration
    /// already pays for: `configs() - window_specs()`.
    pub fn dedup_hits(&self) -> usize {
        self.slots.len() - self.groups.len()
    }

    /// Execute the plan over a height-ordered block stream.
    ///
    /// Thin compatibility wrapper: converts to [`BlockColumns`] and
    /// delegates to [`MatrixPlan::run_columns`], the canonical path.
    pub fn run(&self, blocks: &[AttributedBlock]) -> Vec<MeasurementSeries> {
        let cols = BlockColumns::from_blocks(blocks);
        self.run_columns(cols.as_slice())
    }

    /// Execute the plan over a height-ordered columnar block stream.
    /// Results come back in input-configuration order. Every window
    /// family and the chunked workers iterate the flat columns directly.
    pub fn run_columns(&self, cols: ColumnsSlice<'_>) -> Vec<MeasurementSeries> {
        let _t = blockdec_obs::span_timed!(
            "stage.measure_matrix",
            configs = self.configs(),
            specs = self.window_specs(),
            blocks = cols.len(),
        );
        blockdec_obs::counter("planner.window_specs").add(self.window_specs() as u64);
        blockdec_obs::counter("planner.dedup_hits").add(self.dedup_hits() as u64);
        let per_group: Vec<Vec<MeasurementSeries>> =
            self.groups.iter().map(|g| eval_group(g, cols)).collect();
        let mut out = Vec::with_capacity(self.slots.len());
        let mut windows_emitted = 0u64;
        for &(gi, slot) in &self.slots {
            let series = per_group[gi][slot].clone();
            windows_emitted += series.points.len() as u64;
            out.push(series);
        }
        // Input blocks count once per run, however many configs share
        // them, as they do for a single-config engine run.
        blockdec_obs::counter("engine.blocks").add(cols.len() as u64);
        blockdec_obs::counter("engine.windows").add(windows_emitted);
        blockdec_obs::debug!(
            configs = self.configs(), specs = self.window_specs(), windows = windows_emitted;
            "matrix plan complete"
        );
        out
    }
}

/// Materialize one group's window stream and fan its rows out into one
/// series per metric.
fn eval_group(group: &SpecGroup, cols: ColumnsSlice<'_>) -> Vec<MeasurementSeries> {
    let rows = match group.window {
        WindowSpec::FixedCalendar {
            granularity,
            origin,
        } => eval_fixed(cols, granularity, origin, &group.metrics),
        WindowSpec::SlidingBlocks(spec) => eval_sliding(cols, spec, &group.metrics),
        WindowSpec::SlidingTime(spec) => eval_sliding_time(cols, spec, &group.metrics),
    };
    // Each row's scratch fill served every metric past the first for free.
    blockdec_obs::counter("planner.scratch_reuse")
        .add((rows.len() * group.metrics.len().saturating_sub(1)) as u64);
    let mut per_metric: Vec<Vec<MeasurementPoint>> = group
        .metrics
        .iter()
        .map(|_| Vec::with_capacity(rows.len()))
        .collect();
    for row in &rows {
        for (slot, &value) in row.values.iter().enumerate() {
            per_metric[slot].push(MeasurementPoint {
                index: row.index,
                start_height: row.start_height,
                end_height: row.end_height,
                start_time: row.start_time,
                end_time: row.end_time,
                blocks: row.blocks,
                producers: row.producers,
                value,
            });
        }
    }
    group
        .metrics
        .iter()
        .zip(per_metric)
        .map(|(&metric, points)| MeasurementSeries {
            metric,
            window: group.window.label(),
            points,
        })
        .collect()
}

/// Sort the window's distribution into the shared scratch once, then
/// evaluate every metric of the group from the pre-sorted slice.
/// `(first, last)` are the window's inclusive block-position bounds in
/// `cols`.
fn finish_row(
    index: i64,
    cols: ColumnsSlice<'_>,
    (first, last): (usize, usize),
    blocks: u64,
    dist: &ProducerDistribution,
    scratch: &mut Vec<f64>,
    metrics: &[MetricKind],
) -> WindowRow {
    dist.sorted_weights_into(scratch);
    WindowRow {
        index,
        start_height: cols.height(first),
        end_height: cols.height(last),
        start_time: cols.timestamp(first),
        end_time: cols.timestamp(last),
        blocks,
        producers: dist.producers() as u64,
        values: metrics.iter().map(|m| m.compute_sorted(scratch)).collect(),
    }
}

/// Partition `total` window indices into contiguous chunks across scoped
/// workers; `eval` computes one chunk's rows. Single-chunk totals run
/// inline without spawning.
fn run_chunked<F>(total: usize, eval: F) -> Vec<WindowRow>
where
    F: Fn(Range<usize>) -> Vec<WindowRow> + Sync,
{
    if total == 0 {
        return Vec::new();
    }
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    let workers = cores.min(total.div_ceil(MIN_CHUNK_WINDOWS)).max(1);
    blockdec_obs::counter("planner.chunks").add(workers as u64);
    if workers == 1 {
        let _t = blockdec_obs::Timer::new("planner.chunk");
        return eval(0..total);
    }
    let per = total.div_ceil(workers);
    let bounds: Vec<Range<usize>> = (0..workers)
        .map(|w| (w * per)..((w + 1) * per).min(total))
        .filter(|r| !r.is_empty())
        .collect();
    let eval = &eval;
    let mut chunks: Vec<Vec<WindowRow>> = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = bounds
            .into_iter()
            .map(|r| {
                scope.spawn(move || {
                    let _t = blockdec_obs::Timer::new("planner.chunk");
                    eval(r)
                })
            })
            .collect();
        chunks = handles
            .into_iter()
            .map(|h| h.join().expect("planner chunk worker panicked")) // blockdec-lint: allow(panic) — join only fails by propagating a worker panic; nothing to recover
            .collect();
    });
    chunks.into_iter().flatten().collect()
}

fn eval_fixed(
    cols: ColumnsSlice<'_>,
    granularity: Granularity,
    origin: Timestamp,
    metrics: &[MetricKind],
) -> Vec<WindowRow> {
    let windows = fixed_calendar_windows_columns(cols, granularity, origin);
    run_chunked(windows.len(), |chunk| {
        let mut dist = ProducerDistribution::new();
        let mut scratch = Vec::new();
        let mut rows = Vec::with_capacity(chunk.len());
        for w in &windows[chunk] {
            dist.clear();
            for &i in &w.block_indices {
                dist.add_credits(cols.producers_of(i as usize), cols.weights_of(i as usize));
            }
            let first = w.block_indices[0] as usize;
            let last = w.block_indices[w.block_indices.len() - 1] as usize;
            rows.push(finish_row(
                w.bucket,
                cols,
                (first, last),
                w.block_indices.len() as u64,
                &dist,
                &mut scratch,
                metrics,
            ));
        }
        rows
    })
}

fn eval_sliding(
    cols: ColumnsSlice<'_>,
    spec: SlidingWindowSpec,
    metrics: &[MetricKind],
) -> Vec<WindowRow> {
    let total = spec.window_count(cols.len());
    run_chunked(total, |chunk| {
        let mut dist = ProducerDistribution::new();
        let mut scratch = Vec::new();
        let mut rows = Vec::with_capacity(chunk.len());
        let mut current: Option<Range<usize>> = None;
        for wi in chunk {
            let range = spec
                .window_range(wi, cols.len())
                .expect("window within count"); // blockdec-lint: allow(panic) — run_chunked only yields indices below the window count
            match current.take() {
                // Overlapping advance: O(step) slide, same arm the
                // engine's own sliding path takes.
                Some(prev) if prev.end > range.start => {
                    for b in prev.start..range.start {
                        dist.remove_credits(cols.producers_of(b), cols.weights_of(b));
                    }
                    for b in prev.end..range.end {
                        dist.add_credits(cols.producers_of(b), cols.weights_of(b));
                    }
                }
                // Chunk-leading window, or a gap (step > size): rebuild.
                _ => {
                    dist.clear();
                    for b in range.clone() {
                        dist.add_credits(cols.producers_of(b), cols.weights_of(b));
                    }
                }
            }
            rows.push(finish_row(
                wi as i64,
                cols,
                (range.start, range.end - 1),
                range.len() as u64,
                &dist,
                &mut scratch,
                metrics,
            ));
            current = Some(range);
        }
        rows
    })
}

fn eval_sliding_time(
    cols: ColumnsSlice<'_>,
    spec: TimeWindowSpec,
    metrics: &[MetricKind],
) -> Vec<WindowRow> {
    // One permutation sort per spec, shared by every chunk and metric.
    let order = timestamp_order_columns(cols);
    let windows = time_windows_columns(cols, &order, spec);
    let (order, windows) = (&order, &windows);
    run_chunked(windows.len(), move |chunk| {
        let mut dist = ProducerDistribution::new();
        let mut scratch = Vec::new();
        let mut rows = Vec::with_capacity(chunk.len());
        let mut current: Option<Range<usize>> = None;
        for w in &windows[chunk] {
            match current.take() {
                // Time windows advance monotonically through `order`, so
                // overlapping windows slide just like block windows.
                Some(prev) if prev.end > w.blocks.start => {
                    for &i in &order[prev.start..w.blocks.start] {
                        dist.remove_credits(
                            cols.producers_of(i as usize),
                            cols.weights_of(i as usize),
                        );
                    }
                    for &i in &order[prev.end..w.blocks.end] {
                        dist.add_credits(
                            cols.producers_of(i as usize),
                            cols.weights_of(i as usize),
                        );
                    }
                }
                _ => {
                    dist.clear();
                    for &i in &order[w.blocks.clone()] {
                        dist.add_credits(
                            cols.producers_of(i as usize),
                            cols.weights_of(i as usize),
                        );
                    }
                }
            }
            rows.push(finish_row(
                w.index as i64,
                cols,
                (
                    order[w.blocks.start] as usize,
                    order[w.blocks.end - 1] as usize,
                ),
                w.blocks.len() as u64,
                &dist,
                &mut scratch,
                metrics,
            ));
            current = Some(w.blocks.clone());
        }
        rows
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use blockdec_chain::time::SECS_PER_DAY;
    use blockdec_chain::{Credit, ProducerId};

    fn stream(pattern: &[u32], n: usize, spacing: i64) -> Vec<AttributedBlock> {
        let o = Timestamp::year_2019_start().secs();
        (0..n)
            .map(|i| AttributedBlock {
                height: 1000 + i as u64,
                timestamp: Timestamp(o + i as i64 * spacing),
                credits: vec![Credit {
                    producer: ProducerId(pattern[i % pattern.len()]),
                    weight: 1.0,
                }],
            })
            .collect()
    }

    fn paper_fixed_and_sliding_configs() -> Vec<MeasurementEngine> {
        MetricKind::PAPER
            .iter()
            .flat_map(|&m| {
                vec![
                    MeasurementEngine::new(m)
                        .fixed_calendar(Granularity::Day, Timestamp::year_2019_start()),
                    MeasurementEngine::new(m).sliding(24, 12),
                    MeasurementEngine::new(m).sliding_time(SECS_PER_DAY, SECS_PER_DAY / 2),
                ]
            })
            .collect()
    }

    #[test]
    fn plan_dedups_window_specs() {
        let configs = paper_fixed_and_sliding_configs();
        let plan = MatrixPlan::new(&configs);
        assert_eq!(plan.configs(), 9);
        assert_eq!(plan.window_specs(), 3);
        assert_eq!(plan.dedup_hits(), 6);
    }

    #[test]
    fn duplicate_configs_collapse_but_both_answer() {
        let cfg = MeasurementEngine::new(MetricKind::Gini).sliding(10, 5);
        let plan = MatrixPlan::new(&[cfg, cfg]);
        assert_eq!(plan.window_specs(), 1);
        let blocks = stream(&[0, 1, 2], 40, 60);
        let out = plan.run(&blocks);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0], out[1]);
        assert_eq!(out[0], cfg.run(&blocks));
    }

    #[test]
    fn planner_equals_engine_on_small_matrix() {
        let blocks = stream(&[0, 0, 1, 2, 3], 300, 500);
        let configs = paper_fixed_and_sliding_configs();
        let out = MatrixPlan::new(&configs).run(&blocks);
        for (cfg, series) in configs.iter().zip(&out) {
            assert_eq!(series, &cfg.run(&blocks));
        }
    }

    #[test]
    fn empty_inputs() {
        assert!(MatrixPlan::new(&[]).run(&stream(&[0], 5, 60)).is_empty());
        let cfg = MeasurementEngine::new(MetricKind::Gini).sliding(10, 5);
        let out = MatrixPlan::new(&[cfg]).run(&[]);
        assert_eq!(out.len(), 1);
        assert!(out[0].points.is_empty());
    }

    #[test]
    fn columnar_sub_slice_equals_aos_sub_slice() {
        // Multi-credit anomaly blocks plus a zero-credit block, evaluated
        // through a ColumnsSlice whose credit offsets do NOT start at 0 —
        // the planner must handle rebased views identically to a fresh
        // conversion of the same AoS range.
        let mut blocks = stream(&[0, 1, 2, 3], 400, 600);
        for k in 0..30usize {
            let i = 13 * (k + 1) % blocks.len();
            blocks[i].credits = (0..5 + k as u32)
                .map(|j| Credit {
                    producer: ProducerId(100 + j),
                    weight: 1.0,
                })
                .collect();
        }
        blocks[200].credits.clear();
        let cols = BlockColumns::from_blocks(&blocks);
        let configs = paper_fixed_and_sliding_configs();
        let plan = MatrixPlan::new(&configs);
        for (lo, hi) in [(0, 400), (37, 391), (150, 150)] {
            let via_cols = plan.run_columns(cols.slice(lo, hi));
            let via_aos = plan.run(&blocks[lo..hi]);
            assert_eq!(via_cols, via_aos, "range {lo}..{hi}");
        }
    }

    #[test]
    fn chunked_evaluation_covers_every_window_in_order() {
        // Enough windows to force multiple chunks on multicore hosts; on
        // any host the result must be the naive engine's, in order.
        let blocks = stream(&[0, 1, 1, 2, 3, 4, 4, 4], 2000, 60);
        let cfg = MeasurementEngine::new(MetricKind::Hhi).sliding(64, 8);
        let out = MatrixPlan::new(&[cfg]).run(&blocks);
        assert_eq!(out[0], cfg.run(&blocks));
        let indices: Vec<i64> = out[0].points.iter().map(|p| p.index).collect();
        let sorted = {
            let mut s = indices.clone();
            s.sort_unstable();
            s
        };
        assert_eq!(indices, sorted);
    }
}
