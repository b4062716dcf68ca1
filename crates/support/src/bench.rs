//! A small benchmark harness (the workspace's in-tree replacement for
//! `criterion`), driven by `ucfg bench`.
//!
//! Each suite builds a [`Suite`], registers timed closures under
//! groups, and finishes by writing one JSON line per benchmark to
//! `out/BENCH_<suite>.json` (the `BENCH_*.json` convention used by the
//! repo's tooling). Measurement is warmup + `samples` timed batches;
//! reported statistics are per-iteration min / mean / median / p95 / max
//! in nanoseconds.
//!
//! [`Options`] holds what `ucfg bench`'s flags set: `--smoke` runs every
//! benchmark once with no statistics (the CI gate), `--list` prints each
//! benchmark's `group/id` without running it, `--samples N` and
//! `--warmup-ms N` size a timed run, `--out-dir P` places
//! `BENCH_<suite>.json`, and a bare argument filters ids by substring.
//!
//! ```no_run
//! use ucfg_support::bench::{Options, Suite};
//!
//! let opts = Options { smoke: true, ..Options::default() };
//! let mut suite = Suite::with_options("demo", opts);
//! let mut g = suite.group("fib");
//! g.bench("fib/20", || (0..20u64).product::<u64>());
//! suite.finish();
//! ```

use std::hint::black_box;
use std::io::Write as _;
use std::path::PathBuf;
use std::time::Instant;

/// Harness options.
#[derive(Debug, Clone)]
pub struct Options {
    /// Run each benchmark exactly once (CI smoke mode).
    pub smoke: bool,
    /// List benchmark ids without running anything.
    pub list: bool,
    /// Timed batches per benchmark (at least 2 are taken, so statistics
    /// stay meaningful).
    pub samples: usize,
    /// Warmup budget per benchmark, in milliseconds.
    pub warmup_ms: u64,
    /// Substring filter on `group/id` names.
    pub filter: Option<String>,
    /// Output directory for the JSON record.
    pub out_dir: PathBuf,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            smoke: false,
            list: false,
            samples: 20,
            warmup_ms: 50,
            filter: None,
            out_dir: out_dir(),
        }
    }
}

/// The workspace output directory: `$UCFG_OUT_DIR` when set, else `out/`
/// relative to the current directory. All generated artefacts
/// (`BENCH_*.json`, `report_output.txt`, `separation_sweep.csv`) land here.
pub fn out_dir() -> PathBuf {
    std::env::var_os("UCFG_OUT_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("out"))
}

/// Per-iteration timing statistics, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stats {
    /// Fastest sample.
    pub min_ns: f64,
    /// Arithmetic mean of samples.
    pub mean_ns: f64,
    /// Median sample.
    pub median_ns: f64,
    /// 95th-percentile sample.
    pub p95_ns: f64,
    /// Slowest sample.
    pub max_ns: f64,
}

/// Compute [`Stats`] from per-iteration sample times. Panics on empty
/// input.
pub fn stats_of(samples: &[f64]) -> Stats {
    assert!(!samples.is_empty(), "stats of zero samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let n = sorted.len();
    let median = if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    };
    // Nearest-rank p95 (1-indexed rank ⌈0.95·n⌉).
    let p95 = sorted[((n as f64 * 0.95).ceil() as usize).clamp(1, n) - 1];
    Stats {
        min_ns: sorted[0],
        mean_ns: sorted.iter().sum::<f64>() / n as f64,
        median_ns: median,
        p95_ns: p95,
        max_ns: sorted[n - 1],
    }
}

/// One finished benchmark, ready to serialise.
#[derive(Debug, Clone)]
struct Record {
    group: String,
    id: String,
    iters_per_sample: u64,
    samples: usize,
    smoke: bool,
    stats: Stats,
}

pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

impl Record {
    fn json_line(&self, suite: &str) -> String {
        format!(
            "{{\"suite\":\"{}\",\"group\":\"{}\",\"id\":\"{}\",\"samples\":{},\
             \"iters_per_sample\":{},\"smoke\":{},\"min_ns\":{:.1},\"mean_ns\":{:.1},\
             \"median_ns\":{:.1},\"p95_ns\":{:.1},\"max_ns\":{:.1}}}",
            json_escape(suite),
            json_escape(&self.group),
            json_escape(&self.id),
            self.samples,
            self.iters_per_sample,
            self.smoke,
            self.stats.min_ns,
            self.stats.mean_ns,
            self.stats.median_ns,
            self.stats.p95_ns,
            self.stats.max_ns,
        )
    }
}

/// One finished benchmark's public record: what the orchestrator (or any
/// other in-process consumer) reads instead of re-parsing the JSON file.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchEntry {
    /// Group name within the suite.
    pub group: String,
    /// Benchmark id within the group.
    pub id: String,
    /// Whether this was a single smoke iteration.
    pub smoke: bool,
    /// Per-iteration statistics in nanoseconds.
    pub stats: Stats,
}

/// A bench suite: the named set of benchmarks one `ucfg bench <suite>` run
/// times.
pub struct Suite {
    name: String,
    opts: Options,
    records: Vec<Record>,
    listed: Vec<String>,
}

impl Suite {
    /// Build a suite from its options.
    pub fn with_options(name: &str, opts: Options) -> Self {
        Suite {
            name: name.to_string(),
            opts,
            records: Vec::new(),
            listed: Vec::new(),
        }
    }

    /// Is this a smoke run?
    pub fn is_smoke(&self) -> bool {
        self.opts.smoke
    }

    /// Is this a `--list` run (benchmarks enumerated, nothing executed)?
    pub fn is_list(&self) -> bool {
        self.opts.list
    }

    /// The `group/id` names seen in `--list` mode, in registration order.
    pub fn listed_ids(&self) -> &[String] {
        &self.listed
    }

    /// Open a named benchmark group.
    pub fn group(&mut self, name: &str) -> Group<'_> {
        Group {
            suite: self,
            name: name.to_string(),
        }
    }

    /// Number of benchmarks recorded so far.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether nothing has been recorded (filters can cause this).
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    fn record(&mut self, rec: Record) {
        let mode = if rec.smoke { " [smoke]" } else { "" };
        println!(
            "bench {}/{}: median {} p95 {} ({}×{} iters){}",
            rec.group,
            rec.id,
            fmt_ns(rec.stats.median_ns),
            fmt_ns(rec.stats.p95_ns),
            rec.samples,
            rec.iters_per_sample,
            mode
        );
        self.records.push(rec);
    }

    /// The finished benchmarks as public records, in execution order.
    pub fn results(&self) -> Vec<BenchEntry> {
        self.records
            .iter()
            .map(|r| BenchEntry {
                group: r.group.clone(),
                id: r.id.clone(),
                smoke: r.smoke,
                stats: r.stats,
            })
            .collect()
    }

    /// Render the JSON-lines payload (one line per benchmark).
    pub fn json_lines(&self) -> String {
        let mut out = String::new();
        for r in &self.records {
            out.push_str(&r.json_line(&self.name));
            out.push('\n');
        }
        out
    }

    /// Write `BENCH_<suite>.json` into the output directory and print a
    /// pointer to it. Call this last. A `--list` run writes nothing.
    pub fn finish(self) {
        if self.opts.list {
            return;
        }
        let path = self.opts.out_dir.join(format!("BENCH_{}.json", self.name));
        if let Err(e) = std::fs::create_dir_all(&self.opts.out_dir)
            .and_then(|()| std::fs::File::create(&path))
            .and_then(|mut f| f.write_all(self.json_lines().as_bytes()))
        {
            eprintln!("warning: could not write {}: {e}", path.display());
        } else {
            println!("{} benchmarks → {}", self.records.len(), path.display());
        }
    }
}

/// A group of related benchmarks within a [`Suite`].
pub struct Group<'a> {
    suite: &'a mut Suite,
    name: String,
}

impl Group<'_> {
    /// Time `f`, recording per-iteration statistics (or a single smoke
    /// iteration). The closure's result is passed through
    /// [`std::hint::black_box`] so the work is not optimised away.
    pub fn bench<T>(&mut self, id: &str, mut f: impl FnMut() -> T) {
        let full = format!("{}/{id}", self.name);
        if let Some(filter) = &self.suite.opts.filter {
            if !full.contains(filter.as_str()) {
                return;
            }
        }
        if self.suite.opts.list {
            println!("{full}");
            self.suite.listed.push(full);
            return;
        }
        if self.suite.opts.smoke {
            let t = Instant::now();
            black_box(f());
            let ns = t.elapsed().as_nanos() as f64;
            self.suite.record(Record {
                group: self.name.clone(),
                id: id.to_string(),
                iters_per_sample: 1,
                samples: 1,
                smoke: true,
                stats: Stats {
                    min_ns: ns,
                    mean_ns: ns,
                    median_ns: ns,
                    p95_ns: ns,
                    max_ns: ns,
                },
            });
            return;
        }

        // Warmup: run until the budget is spent, estimating the
        // per-iteration cost as we go.
        let warmup_budget = std::time::Duration::from_millis(self.suite.opts.warmup_ms);
        let warmup_start = Instant::now();
        let mut warmup_iters = 0u64;
        while warmup_start.elapsed() < warmup_budget || warmup_iters < 3 {
            black_box(f());
            warmup_iters += 1;
            if warmup_iters >= (1 << 22) {
                break; // per-iter cost is in single-digit nanoseconds
            }
        }
        let est_ns = warmup_start.elapsed().as_nanos() as f64 / warmup_iters as f64;
        // Aim for ~5 ms per sample, between 1 and 2^20 iterations.
        let iters_per_sample = ((5e6 / est_ns.max(1.0)) as u64).clamp(1, 1 << 20);

        let mut samples = Vec::with_capacity(self.suite.opts.samples.max(2));
        for _ in 0..self.suite.opts.samples.max(2) {
            let t = Instant::now();
            for _ in 0..iters_per_sample {
                black_box(f());
            }
            samples.push(t.elapsed().as_nanos() as f64 / iters_per_sample as f64);
        }
        self.suite.record(Record {
            group: self.name.clone(),
            id: id.to_string(),
            iters_per_sample,
            samples: samples.len(),
            smoke: false,
            stats: stats_of(&samples),
        });
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns < 1e3 {
        format!("{ns:.1}ns")
    } else if ns < 1e6 {
        format!("{:.2}µs", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.2}ms", ns / 1e6)
    } else {
        format!("{:.2}s", ns / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn suite(smoke: bool, list: bool, filter: Option<&str>) -> Suite {
        let opts = Options {
            smoke,
            list,
            filter: filter.map(str::to_string),
            ..Options::default()
        };
        Suite::with_options("t", opts)
    }

    #[test]
    fn stats_median_and_p95() {
        let s = stats_of(&[5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!(s.min_ns, 1.0);
        assert_eq!(s.median_ns, 3.0);
        assert_eq!(s.max_ns, 5.0);
        assert_eq!(s.mean_ns, 3.0);
        assert_eq!(s.p95_ns, 5.0); // ⌈0.95·5⌉ = 5th of 5
        let s = stats_of(&[1.0, 2.0]);
        assert_eq!(s.median_ns, 1.5);
        let many: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(stats_of(&many).p95_ns, 95.0);
    }

    #[test]
    fn smoke_runs_each_bench_once() {
        let mut calls = 0u32;
        let mut suite = suite(true, false, None);
        let mut g = suite.group("grp");
        g.bench("one", || calls += 1);
        g.bench("two", || calls += 1);
        assert_eq!(calls, 2);
        assert_eq!(suite.len(), 2);
        let json = suite.json_lines();
        assert_eq!(json.lines().count(), 2);
        assert!(json.contains("\"suite\":\"t\""), "{json}");
        assert!(json.contains("\"group\":\"grp\""), "{json}");
        assert!(json.contains("\"smoke\":true"), "{json}");
    }

    #[test]
    fn list_mode_enumerates_without_running() {
        let mut calls = 0u32;
        let mut suite = suite(false, true, None);
        assert!(suite.is_list());
        let mut g = suite.group("grp");
        g.bench("one", || calls += 1);
        g.bench("two", || calls += 1);
        assert_eq!(calls, 0, "--list must not execute benchmark bodies");
        assert_eq!(suite.listed_ids(), ["grp/one", "grp/two"]);
        assert!(suite.is_empty(), "--list records no timings");
        suite.finish(); // must not write BENCH_t.json (no panic, no file)
    }

    #[test]
    fn list_mode_respects_filter() {
        let mut suite = suite(false, true, Some("keep"));
        let mut g = suite.group("grp");
        g.bench("keep_me", || ());
        g.bench("drop_me", || ());
        assert_eq!(suite.listed_ids(), ["grp/keep_me"]);
    }

    #[test]
    fn filter_skips_non_matching() {
        let mut suite = suite(true, false, Some("keep"));
        let mut g = suite.group("grp");
        g.bench("keep_me", || ());
        g.bench("drop_me", || ());
        assert_eq!(suite.len(), 1);
    }

    #[test]
    fn timed_mode_produces_ordered_stats() {
        let opts = Options {
            samples: 5,
            warmup_ms: 1,
            ..Options::default()
        };
        let mut suite = Suite::with_options("t", opts);
        let mut g = suite.group("grp");
        g.bench("spin", || {
            let mut x = 0u64;
            for i in 0..100 {
                x = x.wrapping_add(black_box(i));
            }
            x
        });
        assert_eq!(suite.len(), 1);
        let rec = &suite.records[0];
        assert!(!rec.smoke);
        assert!(rec.stats.min_ns <= rec.stats.median_ns);
        assert!(rec.stats.median_ns <= rec.stats.p95_ns);
        assert!(rec.stats.p95_ns <= rec.stats.max_ns);
        assert!(rec.stats.min_ns > 0.0);
        assert_eq!(rec.samples, 5);
        // Fewer than two samples would make the statistics meaningless.
        let opts = Options {
            samples: 0,
            warmup_ms: 1,
            ..Options::default()
        };
        let mut suite = Suite::with_options("t", opts);
        suite.group("grp").bench("nop", || ());
        assert_eq!(suite.records[0].samples, 2);
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(json_escape("tab\there"), "tab\\u0009here");
    }

    #[test]
    fn finish_writes_json_file() {
        let dir = std::env::temp_dir().join(format!("ucfg_bench_test_{}", std::process::id()));
        let opts = Options {
            smoke: true,
            out_dir: dir.clone(),
            ..Options::default()
        };
        let mut suite = Suite::with_options("filetest", opts);
        suite.group("g").bench("b", || 1 + 1);
        suite.finish();
        let path = dir.join("BENCH_filetest.json");
        let body = std::fs::read_to_string(&path).expect("json written");
        assert!(body.contains("\"id\":\"b\""), "{body}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fmt_ns_scales() {
        assert_eq!(fmt_ns(12.0), "12.0ns");
        assert_eq!(fmt_ns(1500.0), "1.50µs");
        assert_eq!(fmt_ns(2_500_000.0), "2.50ms");
        assert_eq!(fmt_ns(3_000_000_000.0), "3.00s");
    }
}
