//! Memory-bounded measurement straight off the store.
//!
//! The in-memory engine materializes every attributed block before
//! windowing — fine for one chain-year, but a store can hold many. This
//! module computes *fixed calendar* measurements in a single visitor
//! scan: per-bucket producer distributions accumulate as rows stream by
//! (segment by segment), so peak memory is one segment's decoded page
//! groups plus the per-bucket aggregates, independent of total store
//! size.

use crate::expr::Filter;
use blockdec_chain::{Granularity, ProducerId, Timestamp};
use blockdec_core::distribution::ProducerDistribution;
use blockdec_core::metrics::MetricKind;
use blockdec_core::series::{MeasurementPoint, MeasurementSeries, WindowLabel};
use blockdec_store::error::Result;
use blockdec_store::BlockStore;
use std::collections::BTreeMap;

struct BucketAcc {
    dist: ProducerDistribution,
    blocks: u64,
    last_height: Option<u64>,
    start_height: u64,
    end_height: u64,
    start_time: i64,
    end_time: i64,
}

impl BucketAcc {
    fn new() -> BucketAcc {
        BucketAcc {
            dist: ProducerDistribution::new(),
            blocks: 0,
            last_height: None,
            start_height: u64::MAX,
            end_height: 0,
            start_time: i64::MAX,
            end_time: i64::MIN,
        }
    }
}

/// Fixed-calendar measurement computed in one streaming scan of the
/// store. Equivalent to scanning into memory and running
/// `MeasurementEngine::fixed_calendar`, but with O(segment) memory.
pub fn measure_fixed_streaming(
    store: &BlockStore,
    filter: &Filter,
    metric: MetricKind,
    granularity: Granularity,
    origin: Timestamp,
) -> Result<MeasurementSeries> {
    let mut series = measure_fixed_streaming_matrix(store, filter, &[metric], granularity, origin)?;
    Ok(series.pop().expect("one metric in, one series out")) // blockdec-lint: allow(panic) — the matrix call returns exactly one series per requested metric
}

/// Planner-style multi-metric variant of [`measure_fixed_streaming`]:
/// every requested metric is answered from **one** store scan and, per
/// bucket, one sorted scratch fill — the store-backed analogue of
/// [`blockdec_core::planner::MatrixPlan`] for a single fixed-calendar
/// window spec. Returns one series per metric, in input order (duplicate
/// metrics each get their own series).
pub fn measure_fixed_streaming_matrix(
    store: &BlockStore,
    filter: &Filter,
    metrics: &[MetricKind],
    granularity: Granularity,
    origin: Timestamp,
) -> Result<Vec<MeasurementSeries>> {
    let (pred, residual) = filter.compile();
    let mut buckets: BTreeMap<i64, BucketAcc> = BTreeMap::new();
    store.scan_for_each(&pred, |row| {
        if !residual.matches(row) {
            return;
        }
        let bucket = Timestamp(row.timestamp).bucket(granularity, origin);
        let acc = buckets.entry(bucket).or_insert_with(BucketAcc::new);
        acc.dist.add(ProducerId(row.producer), row.credit());
        // Rows of one block share a height and arrive adjacently; count
        // blocks by height transitions within the bucket.
        if acc.last_height != Some(row.height) {
            acc.blocks += 1;
            acc.last_height = Some(row.height);
        }
        acc.start_height = acc.start_height.min(row.height);
        acc.end_height = acc.end_height.max(row.height);
        acc.start_time = acc.start_time.min(row.timestamp);
        acc.end_time = acc.end_time.max(row.timestamp);
    })?;

    let mut per_metric: Vec<Vec<MeasurementPoint>> = metrics
        .iter()
        .map(|_| Vec::with_capacity(buckets.len()))
        .collect();
    let mut scratch = Vec::new();
    for (&bucket, acc) in &buckets {
        acc.dist.sorted_weights_into(&mut scratch);
        for (slot, &metric) in metrics.iter().enumerate() {
            per_metric[slot].push(MeasurementPoint {
                index: bucket,
                start_height: acc.start_height,
                end_height: acc.end_height,
                start_time: Timestamp(acc.start_time),
                end_time: Timestamp(acc.end_time),
                blocks: acc.blocks,
                producers: acc.dist.producers() as u64,
                value: metric.compute_sorted(&scratch),
            });
        }
    }
    Ok(metrics
        .iter()
        .zip(per_metric)
        .map(|(&metric, points)| MeasurementSeries {
            metric,
            window: WindowLabel::FixedCalendar {
                granularity: granularity.label().to_string(),
            },
            points,
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::MeasurementSource;
    use blockdec_core::engine::MeasurementEngine;
    use blockdec_sim::Scenario;

    fn test_store(tag: &str) -> (BlockStore, std::path::PathBuf) {
        let dir = std::env::temp_dir().join(format!(
            "blockdec-measure-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut store = BlockStore::create(&dir).unwrap();
        let stream = Scenario::bitcoin_2019().truncated(10).generate();
        store
            .append_attributed(&stream.attributed, &stream.registry)
            .unwrap();
        store.flush().unwrap();
        (store, dir)
    }

    #[test]
    fn streaming_equals_materialized_engine() {
        let (store, dir) = test_store("equiv");
        let origin = Timestamp::year_2019_start();
        let blocks = store.attributed_blocks(&Filter::True).unwrap();
        for metric in MetricKind::PAPER {
            for g in [Granularity::Day, Granularity::Week] {
                let streaming =
                    measure_fixed_streaming(&store, &Filter::True, metric, g, origin).unwrap();
                let engine = MeasurementEngine::new(metric)
                    .fixed_calendar(g, origin)
                    .run(&blocks);
                assert_eq!(streaming.points.len(), engine.points.len());
                for (s, e) in streaming.points.iter().zip(&engine.points) {
                    assert_eq!(s.index, e.index);
                    assert_eq!(s.blocks, e.blocks, "bucket {}", s.index);
                    assert_eq!(s.producers, e.producers, "bucket {}", s.index);
                    assert!(
                        (s.value - e.value).abs() < 1e-9,
                        "{metric:?}/{} bucket {}: {} vs {}",
                        g.label(),
                        s.index,
                        s.value,
                        e.value
                    );
                }
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn matrix_scan_equals_per_metric_scans() {
        let (store, dir) = test_store("matrix");
        let origin = Timestamp::year_2019_start();
        let metrics = [
            MetricKind::Gini,
            MetricKind::ShannonEntropy,
            MetricKind::Nakamoto,
        ];
        let combined = measure_fixed_streaming_matrix(
            &store,
            &Filter::True,
            &metrics,
            Granularity::Day,
            origin,
        )
        .unwrap();
        assert_eq!(combined.len(), 3);
        for (&metric, series) in metrics.iter().zip(&combined) {
            let single =
                measure_fixed_streaming(&store, &Filter::True, metric, Granularity::Day, origin)
                    .unwrap();
            assert_eq!(series, &single, "{metric:?}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn filter_restricts_streaming_measurement() {
        let (store, dir) = test_store("filter");
        let origin = Timestamp::year_2019_start();
        let day3 = origin.secs() + 3 * 86_400;
        let filter = Filter::TimeBetween(day3, day3 + 86_400 - 1);
        let series =
            measure_fixed_streaming(&store, &filter, MetricKind::Gini, Granularity::Day, origin)
                .unwrap();
        assert_eq!(series.points.len(), 1);
        assert_eq!(series.points[0].index, 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_store_yields_empty_series() {
        let dir =
            std::env::temp_dir().join(format!("blockdec-measure-empty-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = BlockStore::create(&dir).unwrap();
        let series = measure_fixed_streaming(
            &store,
            &Filter::True,
            MetricKind::Gini,
            Granularity::Day,
            Timestamp::year_2019_start(),
        )
        .unwrap();
        assert!(series.points.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
