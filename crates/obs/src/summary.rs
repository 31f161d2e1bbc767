//! End-of-run summary: per-stage wall time, throughput, store decode and
//! page-cache figures, and windows emitted, assembled from the metrics
//! registry.

use crate::log::LogFormat;
use crate::metrics::{counter_values, histogram_snapshots, HistogramSnapshot};
use std::collections::BTreeMap;

/// One `stage.*` histogram rendered for the summary table.
#[derive(Clone, Debug)]
pub struct StageLine {
    /// Stage name with the `stage.` prefix stripped.
    pub name: String,
    /// How many times the stage ran.
    pub count: u64,
    /// Total wall seconds across runs.
    pub total_secs: f64,
}

/// A snapshot of the run's headline numbers. Build with
/// [`RunSummary::collect`]; render with [`RunSummary::render_text`] /
/// [`RunSummary::render_json`] or print via [`RunSummary::emit`].
#[derive(Clone, Debug)]
pub struct RunSummary {
    /// Per-stage wall time, in registration (alphabetical) order.
    pub stages: Vec<StageLine>,
    /// Blocks processed per wall second of measurement — `engine.blocks`
    /// over `stage.measure` plus `stage.measure_matrix` time — or of
    /// simulation / ingest when no measurement ran. `None` when nothing
    /// was counted.
    pub blocks_per_sec: Option<f64>,
    /// Attribution rows decoded per wall second of store scanning
    /// (`store.decode.rows` over `stage.scan`). `None` when no scan
    /// decoded a segment.
    pub decode_rows_per_sec: Option<f64>,
    /// Segment bytes decoded per wall second of store scanning, in MB/s
    /// (`store.decode.bytes` over `stage.scan`).
    pub decode_mb_per_sec: Option<f64>,
    /// Segments skipped without being opened (`store.scan.segments_pruned`:
    /// zone-map and producer-bloom pruning combined).
    pub segments_pruned: u64,
    /// The bloom-filter subset of the pruned segments
    /// (`store.scan.bloom_skip`).
    pub bloom_skips: u64,
    /// Column pages skipped inside decoded segments via v3 page-group
    /// zone maps (`store.scan.pages_pruned`).
    pub pages_pruned: u64,
    /// Bytes read from the storage backend (`store.backend.bytes_fetched`:
    /// whole objects plus ranged page-cache fills).
    pub backend_bytes_fetched: u64,
    /// Backend page-cache hit rate in `[0, 1]`; `None` before any ranged
    /// read (`store.backend.hit` / `store.backend.miss`).
    pub page_cache_hit_rate: Option<f64>,
    /// Transient backend read errors absorbed by the retry layer
    /// (`store.backend.retries`).
    pub backend_retries: u64,
    /// Measurement windows emitted (`engine.windows`).
    pub windows: u64,
    /// Store faults classified this run (`store.fault.detected`).
    pub faults_detected: u64,
    /// Segments quarantined by repair (`store.fault.quarantined`).
    pub segments_quarantined: u64,
    /// Segments skipped by degraded scans (`store.fault.segments_skipped`):
    /// reads that succeeded by omitting unreadable segments.
    pub segments_skipped: u64,
    /// Every registered counter, for the machine-readable dump.
    pub counters: BTreeMap<String, u64>,
}

fn rate(blocks: u64, secs: f64) -> Option<f64> {
    if blocks == 0 || secs <= 0.0 {
        None
    } else {
        Some(blocks as f64 / secs)
    }
}

impl RunSummary {
    /// Read the current registry state into a summary.
    pub fn collect() -> RunSummary {
        let counters = counter_values();
        let hists: BTreeMap<String, HistogramSnapshot> = histogram_snapshots();
        let stages: Vec<StageLine> = hists
            .iter()
            .filter_map(|(name, snap)| {
                let stage = name.strip_prefix("stage.")?;
                Some(StageLine {
                    name: stage.to_string(),
                    count: snap.count,
                    total_secs: snap.sum,
                })
            })
            .collect();
        let get = |k: &str| counters.get(k).copied().unwrap_or(0);
        let stage_secs = |k: &str| hists.get(k).map(|s| s.sum).unwrap_or(0.0);
        // Prefer measurement throughput; fall back to whichever stage ran.
        let measure_secs = stage_secs("stage.measure") + stage_secs("stage.measure_matrix");
        let blocks_per_sec = rate(get("engine.blocks"), measure_secs)
            .or_else(|| rate(get("sim.blocks"), stage_secs("stage.simulate")))
            .or_else(|| rate(get("ingest.blocks"), stage_secs("stage.ingest")));
        let scan_secs = stage_secs("stage.scan");
        let decode_rows_per_sec = rate(get("store.decode.rows"), scan_secs);
        let decode_mb_per_sec =
            rate(get("store.decode.bytes"), scan_secs).map(|r| r / (1024.0 * 1024.0));
        let page_hits = get("store.backend.hit");
        let page_misses = get("store.backend.miss");
        let page_cache_hit_rate = if page_hits + page_misses > 0 {
            Some(page_hits as f64 / (page_hits + page_misses) as f64)
        } else {
            None
        };
        RunSummary {
            stages,
            blocks_per_sec,
            decode_rows_per_sec,
            decode_mb_per_sec,
            segments_pruned: get("store.scan.segments_pruned"),
            bloom_skips: get("store.scan.bloom_skip"),
            pages_pruned: get("store.scan.pages_pruned"),
            backend_bytes_fetched: get("store.backend.bytes_fetched"),
            page_cache_hit_rate,
            backend_retries: get("store.backend.retries"),
            windows: get("engine.windows"),
            faults_detected: get("store.fault.detected"),
            segments_quarantined: get("store.fault.quarantined"),
            segments_skipped: get("store.fault.segments_skipped"),
            counters,
        }
    }

    /// Human-readable multi-line table.
    pub fn render_text(&self) -> String {
        let mut out = String::from("run summary\n");
        if self.stages.is_empty() {
            out.push_str("  stages: none recorded\n");
        } else {
            out.push_str("  stage                 runs   wall time\n");
            for s in &self.stages {
                out.push_str(&format!(
                    "  {:<20} {:>5}   {:>8.3}s\n",
                    s.name, s.count, s.total_secs
                ));
            }
        }
        match self.blocks_per_sec {
            Some(r) => out.push_str(&format!("  throughput: {r:.0} blocks/sec\n")),
            None => out.push_str("  throughput: n/a\n"),
        }
        if let (Some(rows), Some(mb)) = (self.decode_rows_per_sec, self.decode_mb_per_sec) {
            out.push_str(&format!(
                "  store decode: {rows:.0} rows/sec, {mb:.1} MB/sec\n"
            ));
        }
        if self.segments_pruned > 0 || self.pages_pruned > 0 {
            out.push_str(&format!(
                "  scan pruning: {} segment(s) skipped ({} by bloom), {} page(s) skipped\n",
                self.segments_pruned, self.bloom_skips, self.pages_pruned
            ));
        }
        if self.backend_bytes_fetched > 0 || self.backend_retries > 0 {
            out.push_str(&format!(
                "  backend: {:.1} MB fetched",
                self.backend_bytes_fetched as f64 / (1024.0 * 1024.0)
            ));
            if let Some(r) = self.page_cache_hit_rate {
                out.push_str(&format!(", page cache {:.1}% hit rate", r * 100.0));
            }
            if self.backend_retries > 0 {
                out.push_str(&format!(", {} read(s) retried", self.backend_retries));
            }
            out.push('\n');
        }
        out.push_str(&format!("  windows emitted: {}\n", self.windows));
        if self.faults_detected > 0 || self.segments_quarantined > 0 {
            out.push_str(&format!(
                "  store faults: {} detected, {} segment(s) quarantined\n",
                self.faults_detected, self.segments_quarantined
            ));
        }
        if self.segments_skipped > 0 {
            out.push_str(&format!(
                "  degraded scans: {} segment(s) skipped\n",
                self.segments_skipped
            ));
        }
        out
    }

    /// One JSON object (no trailing newline) with `stages`,
    /// `blocks_per_sec`, the decode, pruning, backend and fault figures,
    /// `windows`, and the raw `counters` map.
    pub fn render_json(&self) -> String {
        fn push_f64(out: &mut String, v: f64) {
            if v.is_finite() {
                out.push_str(&format!("{v:.6}"));
            } else {
                out.push_str("null");
            }
        }
        let mut out = String::from("{\"summary\":{\"stages\":[");
        for (i, s) in self.stages.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"runs\":{},\"wall_secs\":",
                s.name, s.count
            ));
            push_f64(&mut out, s.total_secs);
            out.push('}');
        }
        out.push_str("],\"blocks_per_sec\":");
        match self.blocks_per_sec {
            Some(r) => push_f64(&mut out, r),
            None => out.push_str("null"),
        }
        out.push_str(",\"decode_rows_per_sec\":");
        match self.decode_rows_per_sec {
            Some(r) => push_f64(&mut out, r),
            None => out.push_str("null"),
        }
        out.push_str(",\"decode_mb_per_sec\":");
        match self.decode_mb_per_sec {
            Some(r) => push_f64(&mut out, r),
            None => out.push_str("null"),
        }
        out.push_str(&format!(
            ",\"segments_pruned\":{},\"bloom_skips\":{},\"pages_pruned\":{}",
            self.segments_pruned, self.bloom_skips, self.pages_pruned
        ));
        out.push_str(&format!(
            ",\"backend_bytes_fetched\":{}",
            self.backend_bytes_fetched
        ));
        out.push_str(",\"page_cache_hit_rate\":");
        match self.page_cache_hit_rate {
            Some(r) => push_f64(&mut out, r),
            None => out.push_str("null"),
        }
        out.push_str(&format!(",\"backend_retries\":{}", self.backend_retries));
        out.push_str(&format!(
            ",\"windows\":{},\"faults_detected\":{},\"segments_quarantined\":{},\"segments_skipped\":{},\"counters\":{{",
            self.windows, self.faults_detected, self.segments_quarantined, self.segments_skipped
        ));
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{k}\":{v}"));
        }
        out.push_str("}}}");
        out
    }

    /// Print the summary to stderr in the logger's configured format
    /// (text when no logger is installed).
    pub fn emit(&self) {
        let json = matches!(
            crate::log::logger().map(|l| l.format()),
            Some(LogFormat::Json)
        );
        if json {
            eprintln!("{}", self.render_json());
        } else {
            eprint!("{}", self.render_text());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunSummary {
        RunSummary {
            stages: vec![
                StageLine {
                    name: "measure".into(),
                    count: 2,
                    total_secs: 1.25,
                },
                StageLine {
                    name: "scan".into(),
                    count: 1,
                    total_secs: 0.5,
                },
            ],
            blocks_per_sec: Some(42_000.0),
            decode_rows_per_sec: Some(2_000_000.0),
            decode_mb_per_sec: Some(96.5),
            segments_pruned: 12,
            bloom_skips: 4,
            pages_pruned: 84,
            backend_bytes_fetched: 2 * 1024 * 1024,
            page_cache_hit_rate: Some(0.75),
            backend_retries: 2,
            windows: 365,
            faults_detected: 0,
            segments_quarantined: 0,
            segments_skipped: 0,
            counters: BTreeMap::from([
                ("engine.windows".to_string(), 365u64),
                ("store.backend.hit".to_string(), 7u64),
            ]),
        }
    }

    #[test]
    fn text_contains_headline_numbers() {
        let text = sample().render_text();
        assert!(text.contains("measure"), "{text}");
        assert!(text.contains("42000 blocks/sec"), "{text}");
        assert!(
            text.contains("store decode: 2000000 rows/sec, 96.5 MB/sec"),
            "{text}"
        );
        assert!(
            text.contains("scan pruning: 12 segment(s) skipped (4 by bloom), 84 page(s) skipped"),
            "{text}"
        );
        assert!(text.contains("windows emitted: 365"), "{text}");
        assert!(
            text.contains("backend: 2.0 MB fetched, page cache 75.0% hit rate, 2 read(s) retried"),
            "{text}"
        );
    }

    #[test]
    fn json_is_well_formed() {
        let json = sample().render_json();
        assert!(json.starts_with("{\"summary\":{"));
        assert!(json.contains("\"windows\":365"), "{json}");
        assert!(
            json.contains("\"segments_pruned\":12,\"bloom_skips\":4,\"pages_pruned\":84"),
            "{json}"
        );
        assert!(json.contains("\"backend_bytes_fetched\":2097152"), "{json}");
        assert!(json.contains("\"page_cache_hit_rate\":0.75"), "{json}");
        assert!(json.contains("\"backend_retries\":2"), "{json}");
        assert!(json.contains("\"engine.windows\":365"), "{json}");
        // Balanced braces (no string values contain braces here).
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn empty_summary_renders() {
        let s = RunSummary {
            stages: Vec::new(),
            blocks_per_sec: None,
            decode_rows_per_sec: None,
            decode_mb_per_sec: None,
            segments_pruned: 0,
            bloom_skips: 0,
            pages_pruned: 0,
            backend_bytes_fetched: 0,
            page_cache_hit_rate: None,
            backend_retries: 0,
            windows: 0,
            faults_detected: 0,
            segments_quarantined: 0,
            segments_skipped: 0,
            counters: BTreeMap::new(),
        };
        assert!(s.render_text().contains("none recorded"));
        assert!(s.render_json().contains("\"blocks_per_sec\":null"));
        assert!(s.render_json().contains("\"decode_rows_per_sec\":null"));
        assert!(s.render_json().contains("\"page_cache_hit_rate\":null"));
        // Quiet runs stay quiet: no fault line, no decode line, no
        // pruning or backend lines.
        assert!(!s.render_text().contains("store faults"));
        assert!(!s.render_text().contains("degraded scans"));
        assert!(!s.render_text().contains("store decode"));
        assert!(!s.render_text().contains("scan pruning"));
        assert!(!s.render_text().contains("backend:"));
    }

    #[test]
    fn fault_line_renders_when_nonzero() {
        let mut s = sample();
        s.faults_detected = 3;
        s.segments_quarantined = 1;
        s.segments_skipped = 2;
        let text = s.render_text();
        assert!(
            text.contains("store faults: 3 detected, 1 segment(s) quarantined"),
            "{text}"
        );
        assert!(
            text.contains("degraded scans: 2 segment(s) skipped"),
            "{text}"
        );
        let json = s.render_json();
        assert!(json.contains("\"faults_detected\":3"), "{json}");
        assert!(json.contains("\"segments_quarantined\":1"), "{json}");
        assert!(json.contains("\"segments_skipped\":2"), "{json}");
    }

    #[test]
    fn collect_reads_registry() {
        crate::metrics::counter("engine.windows").add(3);
        crate::metrics::histogram("stage.summary_test").record(0.25);
        let s = RunSummary::collect();
        assert!(s.windows >= 3);
        assert!(s.stages.iter().any(|st| st.name == "summary_test"));
    }
}
