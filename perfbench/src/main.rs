//! End-to-end and per-layer benchmark of the blockdec libraries on the
//! calibrated Ethereum 2019 chain-year.
//!
//! ```text
//! perfbench --workload <eth-year-batch|eth-year-follow|eth-adhoc-query>
//!           --seed <n> --seconds <s> --trace <0|1> [--days <d>]
//! ```
//!
//! Each workload is one process and one closed-loop client. The
//! simulator runs only in set-up and makes the inputs from `--seed`;
//! the timed code sees only the generated blocks, events or questions.
//! Every output is checked bitwise against a reference made without the
//! code path under test. The last line of standard output is one JSON
//! object: `correct`, `attempted`, `failed` and `metrics` — the
//! end-to-end metrics with `--trace 0`, the per-layer metrics (and the
//! tracing overhead) with `--trace 1`. See `perfbench/README.md`.

mod batch;
mod check;
mod counting;
mod follow;
mod query;
mod sys;
mod trace;

use blockdec_sim::Scenario;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Workload names, as `--workload` takes them.
const WORKLOADS: [&str; 3] = ["eth-year-batch", "eth-year-follow", "eth-adhoc-query"];

/// How many times set-up runs; `setup_s` is the median.
const SETUP_REPEATS: usize = 3;

/// Per-layer metrics with their units, reported by every traced run.
/// A layer the workload does not reach reads 0.
pub const LAYERS: [(&str, &str); 31] = [
    ("chain.attribute_s", "s"),
    ("store.append_s", "s"),
    ("store.flush_s", "s"),
    ("store.segments_sealed", "count"),
    ("store.bytes_per_block", "B"),
    ("backend.put_calls", "count"),
    ("backend.put_bytes", "B"),
    ("backend.put_s", "s"),
    ("store.open_s", "s"),
    ("store.scan_s", "s"),
    ("store.decode_rows_per_s", "1/s"),
    ("backend.get_bytes", "B"),
    ("core.plan_s", "s"),
    ("core.matrix_s", "s"),
    ("core.windows_emitted", "count"),
    ("ingest.apply_s", "s"),
    ("ingest.apply_p99_us", "us"),
    ("ingest.reorgs_applied", "count"),
    ("ingest.blocks_rolled_back", "count"),
    ("ingest.useful_ratio", "ratio"),
    ("core.delta_push_s", "s"),
    ("core.delta_ns_per_block_stream", "ns"),
    ("query.topk_s", "s"),
    ("query.window_measure_s", "s"),
    ("query.producer_scan_s", "s"),
    ("store.segment_cache_hit_ratio", "ratio"),
    ("store.page_cache_hit_ratio", "ratio"),
    ("store.page_cache_evictions", "count"),
    ("backend.get_range_calls", "count/query"),
    ("backend.bytes_fetched_per_query", "B/query"),
    ("trace.overhead_pct", "%"),
];

/// Parsed command line.
pub struct Config {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scenario length in days (365 = the full chain-year).
    pub days: u32,
    /// Flip one reference value before checking (self-test of the gate).
    pub corrupt_reference: bool,
    /// Scratch directory for this run's stores, inside the working
    /// directory.
    pub work: PathBuf,
}

impl Config {
    /// The ETH 2019 scenario for this run: seed 0 is the calibrated
    /// default, any other seed is folded into it.
    pub fn scenario(&self) -> Scenario {
        let base = Scenario::ethereum_2019();
        let seed = base.seed ^ self.seed;
        let s = base.with_seed(seed);
        if self.days < 365 {
            s.truncated(self.days)
        } else {
            s
        }
    }

    /// When the timed phase that starts now must stop.
    pub fn deadline(&self) -> Instant {
        Instant::now() + Duration::from_secs_f64(self.seconds)
    }

    /// A fresh (removed) store directory under the run's scratch area.
    pub fn fresh_dir(&self, name: &str) -> PathBuf {
        let dir = self.work.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }
}

/// What one workload run produced.
pub struct Outcome {
    /// Operations attempted and failed (error or wrong result).
    pub attempted: u64,
    pub failed: u64,
    /// Median set-up seconds.
    pub setup_s: f64,
    /// Peak-RSS growth over the first operations; `None` where the
    /// high-water mark cannot be reset.
    pub peak_rss_mb: Option<f64>,
    /// Latency in seconds of every untraced operation.
    pub op_s: Vec<f64>,
    /// Per-layer readings of the traced run.
    pub layers: Vec<(&'static str, f64)>,
    /// The workload's own per-path figures, printed on standard error.
    pub details: Vec<(&'static str, f64, &'static str)>,
}

/// Time `SETUP_REPEATS` set-ups, keep the last result, return it with
/// the median set-up seconds.
pub fn timed_setup<T>(mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut secs = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        // Drop the previous result first so set-ups do not stack memory.
        drop(last.take());
        let t = Instant::now();
        last = Some(setup());
        secs.push(t.elapsed().as_secs_f64());
    }
    (
        last.expect("set-up ran at least once"),
        trace::median(&secs),
    )
}

fn parse_args() -> Result<Config, String> {
    let mut args = std::env::args().skip(1);
    let mut workload = None;
    let mut seed = 0u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut days = 365u32;
    let mut corrupt_reference = false;
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value()? != "0",
            "--days" => days = value()?.parse().map_err(|e| format!("--days: {e}"))?,
            "--corrupt-reference" => corrupt_reference = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    if seconds.is_nan() || seconds <= 0.0 || days == 0 {
        return Err("--seconds and --days must be positive".to_string());
    }
    let work = PathBuf::from(".bench_work").join(format!("{workload}-{}", std::process::id()));
    Ok(Config {
        workload,
        seed,
        seconds,
        trace,
        days,
        corrupt_reference,
        work,
    })
}

/// The end-to-end metrics: set-up, memory, and the closed loop's
/// throughput, median and p99 operation latency.
fn end_to_end(o: &Outcome) -> Vec<(&'static str, Option<f64>, &'static str)> {
    let mut ops = o.op_s.clone();
    ops.sort_by(f64::total_cmp);
    let busy: f64 = ops.iter().sum();
    vec![
        ("setup_s", Some(o.setup_s), "s"),
        ("peak_rss_mb", o.peak_rss_mb, "MB"),
        ("ops_per_s", Some(ops.len() as f64 / busy), "1/s"),
        ("op_p50_ms", Some(trace::percentile(&ops, 50.0) * 1e3), "ms"),
        ("op_p99_ms", Some(trace::percentile(&ops, 99.0) * 1e3), "ms"),
    ]
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn main() -> ExitCode {
    sys::steady_allocator();
    let cfg = match parse_args() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let fingerprint = sys::fingerprint();
    eprintln!("perfbench: fingerprint {fingerprint}");
    if let Err(e) = std::fs::create_dir_all(&cfg.work) {
        eprintln!("perfbench: cannot create {}: {e}", cfg.work.display());
        return ExitCode::from(2);
    }
    let mut tracer = trace::Tracer::new(false);
    let outcome = match cfg.workload.as_str() {
        "eth-year-batch" => batch::run(&cfg, &mut tracer),
        "eth-year-follow" => follow::run(&cfg, &mut tracer),
        _ => query::run(&cfg, &mut tracer),
    };
    let _ = std::fs::remove_dir_all(&cfg.work);

    if cfg.trace {
        let path = PathBuf::from(".bench_work")
            .join(format!("trace-{}-seed{}.json", cfg.workload, cfg.seed));
        let doc = format!(
            "{{\"workload\":\"{}\",\"seed\":{},\"fingerprint\":{fingerprint},\"trace\":{}}}\n",
            cfg.workload,
            cfg.seed,
            tracer.to_json()
        );
        match std::fs::write(&path, doc) {
            Ok(()) => eprintln!("perfbench: trace written to {}", path.display()),
            Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
        }
    }

    for (name, value, unit) in &outcome.details {
        eprintln!(
            "perfbench: detail {name:<30} {:>18} {unit}",
            json_number(*value)
        );
    }
    let metrics: Vec<(&str, Option<f64>, &str)> = if cfg.trace {
        LAYERS
            .iter()
            .map(|&(name, unit)| {
                let value = outcome.layers.iter().find(|(n, _)| *n == name);
                (name, Some(value.map_or(0.0, |(_, v)| *v)), unit)
            })
            .collect()
    } else {
        end_to_end(&outcome)
    };
    let fields: Vec<String> = metrics
        .iter()
        .filter_map(|&(name, value, unit)| {
            let v = value?;
            eprintln!("perfbench: {name:<37} {:>18} {unit}", json_number(v));
            Some(format!(
                "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                json_number(v)
            ))
        })
        .collect();
    eprintln!(
        "perfbench: {} attempted, {} failed, op_fail_ratio {}",
        outcome.attempted,
        outcome.failed,
        outcome.failed as f64 / outcome.attempted.max(1) as f64
    );
    let correct = outcome.failed == 0 && outcome.attempted > 0;
    println!("{{\"fingerprint\":{fingerprint}}}");
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.attempted,
        outcome.failed,
        fields.join(",")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
