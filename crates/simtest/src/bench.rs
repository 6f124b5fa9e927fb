//! A lightweight wall-clock benchmark harness.
//!
//! Replaces the criterion `harness = false` benches: each benchmark runs a
//! warmup phase, then collects `samples` timed samples (automatically
//! batching sub-microsecond operations so `Instant` overhead does not
//! dominate), and reports mean/p50/p99/min/max per-operation times. The
//! mean/min/max come from [`simcore::stats::Summary`]; the percentiles are
//! exact order statistics over the recorded samples.
//!
//! [`BenchSuite::finish`] prints a table and writes
//! `results/bench_<suite>.json`, re-parsing the file with [`crate::json`]
//! so a malformed report fails loudly.
//!
//! Environment knobs:
//!
//! * `SIMTEST_BENCH_MODE=smoke` — 1 sample, no warmup, no batching: a CI
//!   smoke pass that still exercises every benchmark body and the JSON
//!   pipeline.
//! * `SIMTEST_BENCH_SAMPLES=<n>` / `SIMTEST_BENCH_WARMUP=<n>` — override
//!   the per-benchmark sample and warmup iteration counts.
//! * `SIMTEST_RESULTS_DIR=<path>` — override the output directory
//!   (defaults to `<workspace root>/results`).

use crate::json::Json;
use simcore::stats::Summary;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Per-suite configuration, resolved from the environment.
#[derive(Debug, Clone)]
pub struct BenchConfig {
    /// Timed samples per benchmark.
    pub samples: u64,
    /// Untimed warmup iterations per benchmark.
    pub warmup: u64,
    /// Smoke mode: single iteration, no batching.
    pub smoke: bool,
}

impl Default for BenchConfig {
    fn default() -> Self {
        let smoke = std::env::var("SIMTEST_BENCH_MODE")
            .map(|m| m == "smoke")
            .unwrap_or(false);
        let env_u64 = |k: &str| std::env::var(k).ok().and_then(|v| v.parse::<u64>().ok());
        let samples = env_u64("SIMTEST_BENCH_SAMPLES").unwrap_or(if smoke { 1 } else { 100 });
        let warmup = env_u64("SIMTEST_BENCH_WARMUP").unwrap_or(if smoke { 0 } else { 10 });
        BenchConfig {
            samples: samples.max(1),
            warmup,
            smoke,
        }
    }
}

/// One benchmark's result, in nanoseconds per operation.
#[derive(Debug, Clone)]
pub struct BenchRecord {
    /// Benchmark name (`group/function` style).
    pub name: String,
    /// Timed samples recorded.
    pub samples: u64,
    /// Operations per timed sample (batching factor).
    pub batch: u64,
    /// Mean ns/op.
    pub mean_ns: f64,
    /// Median ns/op (exact order statistic over the samples).
    pub p50_ns: f64,
    /// 99th-percentile ns/op.
    pub p99_ns: f64,
    /// Fastest sample ns/op.
    pub min_ns: f64,
    /// Slowest sample ns/op.
    pub max_ns: f64,
}

impl BenchRecord {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("name", Json::Str(self.name.clone())),
            ("samples", Json::Num(self.samples as f64)),
            ("batch", Json::Num(self.batch as f64)),
            ("mean_ns", Json::Num(self.mean_ns)),
            ("p50_ns", Json::Num(self.p50_ns)),
            ("p99_ns", Json::Num(self.p99_ns)),
            ("min_ns", Json::Num(self.min_ns)),
            ("max_ns", Json::Num(self.max_ns)),
        ])
    }
}

/// A named collection of benchmarks sharing one JSON report.
pub struct BenchSuite {
    suite: String,
    cfg: BenchConfig,
    filter: Option<String>,
    records: Vec<BenchRecord>,
}

/// Exact percentile over recorded samples (nearest-rank).
fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

impl BenchSuite {
    /// Creates a suite; configuration comes from the environment and the
    /// benchmark filter (if any) from the command line, so
    /// `cargo bench -- wire` runs only matching benchmarks.
    pub fn new(suite: &str) -> Self {
        let filter = std::env::args().skip(1).find(|a| !a.starts_with("--"));
        BenchSuite {
            suite: suite.to_owned(),
            cfg: BenchConfig::default(),
            filter,
            records: Vec::new(),
        }
    }

    /// Overrides the configuration (used by tests; environment variables
    /// normally decide).
    pub fn with_config(mut self, cfg: BenchConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// The results recorded so far.
    pub fn records(&self) -> &[BenchRecord] {
        &self.records
    }

    /// Runs one benchmark with the suite-default sample count.
    pub fn bench<R>(&mut self, name: &str, f: impl FnMut() -> R) {
        let samples = self.cfg.samples;
        self.bench_n(name, samples, f);
    }

    /// Runs one benchmark with an explicit sample count (still capped by
    /// smoke mode). Use for whole-system benches where the default count
    /// would take minutes.
    pub fn bench_n<R>(&mut self, name: &str, samples: u64, mut f: impl FnMut() -> R) {
        if let Some(filter) = &self.filter {
            if !name.contains(filter.as_str()) {
                return;
            }
        }
        let samples = if self.cfg.smoke { 1 } else { samples.max(1) };
        let warmup = if self.cfg.smoke { 0 } else { self.cfg.warmup };
        for _ in 0..warmup {
            std::hint::black_box(f());
        }
        // Calibrate a batch size so each timed sample spans ≥ ~20 µs,
        // keeping Instant overhead below ~1%.
        let batch = if self.cfg.smoke {
            1
        } else {
            let t0 = Instant::now();
            std::hint::black_box(f());
            let one = t0.elapsed().as_nanos().max(1);
            (20_000u128 / one).clamp(1, 10_000) as u64
        };
        let mut summary = Summary::new();
        let mut per_op: Vec<f64> = Vec::with_capacity(samples as usize);
        for _ in 0..samples {
            let t0 = Instant::now();
            for _ in 0..batch {
                std::hint::black_box(f());
            }
            let ns = t0.elapsed().as_nanos() as f64 / batch as f64;
            summary.record(ns);
            per_op.push(ns);
        }
        per_op.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
        let record = BenchRecord {
            name: name.to_owned(),
            samples,
            batch,
            mean_ns: summary.mean(),
            p50_ns: percentile(&per_op, 0.50),
            p99_ns: percentile(&per_op, 0.99),
            min_ns: summary.min(),
            max_ns: summary.max(),
        };
        eprintln!(
            "{:<44} mean {:>12}  p50 {:>12}  p99 {:>12}",
            record.name,
            fmt_ns(record.mean_ns),
            fmt_ns(record.p50_ns),
            fmt_ns(record.p99_ns),
        );
        self.records.push(record);
    }

    /// Renders the suite report as a JSON document.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("suite", Json::Str(self.suite.clone())),
            (
                "mode",
                Json::Str(if self.cfg.smoke { "smoke" } else { "full" }.into()),
            ),
            (
                "benches",
                Json::Arr(self.records.iter().map(BenchRecord::to_json).collect()),
            ),
        ])
    }

    /// Writes `results/bench_<suite>.json`, verifies it parses, and
    /// returns the path.
    ///
    /// # Panics
    /// Panics if the report cannot be written or does not round-trip
    /// through the JSON parser.
    pub fn finish(self) -> PathBuf {
        let dir = results_dir();
        std::fs::create_dir_all(&dir)
            .unwrap_or_else(|e| panic!("cannot create {}: {e}", dir.display()));
        let path = dir.join(format!("bench_{}.json", self.suite));
        let doc = self.to_json();
        let text = doc.to_string();
        std::fs::write(&path, &text)
            .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
        let reread = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot re-read {}: {e}", path.display()));
        let parsed = crate::json::parse(&reread)
            .unwrap_or_else(|e| panic!("{} is not valid JSON: {e}", path.display()));
        assert_eq!(parsed, doc, "bench report did not round-trip");
        eprintln!("[simtest] wrote {}", path.display());
        path
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} us", ns / 1e3)
    } else {
        format!("{ns:.1} ns")
    }
}

/// The directory bench reports land in: `SIMTEST_RESULTS_DIR` if set,
/// otherwise `results/` under the nearest enclosing workspace root (cargo
/// runs bench binaries with the crate directory as cwd), otherwise
/// `./results`.
pub fn results_dir() -> PathBuf {
    if let Some(dir) = std::env::var_os("SIMTEST_RESULTS_DIR") {
        return PathBuf::from(dir);
    }
    let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    let mut probe: Option<&Path> = Some(cwd.as_path());
    while let Some(dir) = probe {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return dir.join("results");
            }
        }
        probe = dir.parent();
    }
    cwd.join("results")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quiet_cfg() -> BenchConfig {
        BenchConfig {
            samples: 20,
            warmup: 2,
            smoke: false,
        }
    }

    #[test]
    fn records_sane_statistics() {
        let mut suite = BenchSuite::new("unit_stats").with_config(quiet_cfg());
        suite.filter = None;
        let mut x = 0u64;
        suite.bench("spin", || {
            for i in 0..100u64 {
                x = x.wrapping_add(i * i);
            }
            x
        });
        let r = &suite.records()[0];
        assert_eq!(r.samples, 20);
        assert!(r.min_ns <= r.p50_ns && r.p50_ns <= r.p99_ns + 1e-9);
        assert!(r.p99_ns <= r.max_ns + 1e-9);
        assert!(r.mean_ns > 0.0);
    }

    #[test]
    fn percentiles_are_exact_order_statistics() {
        let xs: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile(&xs, 0.50), 50.0);
        assert_eq!(percentile(&xs, 0.99), 99.0);
        assert_eq!(percentile(&xs, 1.0), 100.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn smoke_mode_runs_exactly_once() {
        let mut suite = BenchSuite::new("unit_smoke").with_config(BenchConfig {
            samples: 50,
            warmup: 5,
            smoke: true,
        });
        suite.filter = None;
        let mut calls = 0u64;
        suite.bench_n("count", 50, || calls += 1);
        assert_eq!(calls, 1, "smoke mode must not batch or warm up");
        assert_eq!(suite.records()[0].samples, 1);
    }

    #[test]
    fn json_report_roundtrips_through_parser() {
        let mut suite = BenchSuite::new("unit_json").with_config(quiet_cfg());
        suite.filter = None;
        suite.bench("noop", || 1 + 1);
        let doc = suite.to_json();
        let back = crate::json::parse(&doc.to_string()).expect("valid json");
        assert_eq!(back, doc);
        let benches = back.get("benches").unwrap().as_arr().unwrap();
        assert_eq!(benches.len(), 1);
        assert_eq!(benches[0].get("name").unwrap().as_str(), Some("noop"));
        assert!(benches[0].get("p99_ns").unwrap().as_f64().unwrap() >= 0.0);
    }

    #[test]
    fn finish_writes_parseable_file() {
        let dir = std::env::temp_dir().join("simtest_bench_unit");
        // Scoped env override: this test is the only writer of this var in
        // the crate's test binary, and tests touching it run serially in
        // practice; worst case another suite writes into the temp dir too.
        std::env::set_var("SIMTEST_RESULTS_DIR", &dir);
        let mut suite = BenchSuite::new("unit_finish").with_config(quiet_cfg());
        suite.filter = None;
        suite.bench("noop", || 0u8);
        let path = suite.finish();
        std::env::remove_var("SIMTEST_RESULTS_DIR");
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(crate::json::parse(&text).is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }
}
