//! A zero-dependency observability layer for the kernels.
//!
//! The bench harness ([`crate::bench`]) times whole suites from the
//! outside; this module watches the kernels from the *inside*: a
//! process-wide metrics registry of monotonic counters, gauges and
//! fixed-bucket duration histograms (all plain atomics), lightweight RAII
//! spans with wall-time capture, and a deterministic JSON/text exporter.
//!
//! Everything is **off by default and near-zero cost when off**: every
//! mutation first checks a single relaxed [`AtomicBool`], so an
//! uninstrumented run pays one predictable branch per probe. Tracing is
//! switched on by the `UCFG_TRACE=1` environment variable (read once) or
//! programmatically via [`set_enabled`] — the funnel behind
//! `ucfg --trace`.
//!
//! Metrics live in two strata so CI can assert thread-count determinism:
//!
//! - **deterministic** counters ([`count!`]) and gauges ([`gauge_set!`],
//!   [`gauge_add!`]) — values that must be bit-identical for every
//!   `UCFG_THREADS`, e.g. chunks dispatched or cache misses;
//! - **volatile** counters ([`vcount!`]) and histograms / span timings
//!   ([`span!`]) — values that legitimately vary run to run (serial-path
//!   hits, per-worker load, wall time).
//!
//! [`export_json`] renders the registry with sorted keys and the whole
//! volatile stratum *last*, so `sed '/"volatile"/,$d'` cuts a
//! byte-comparable deterministic prefix; [`write_metrics`] lands it in
//! `out/METRICS_<command>.json` (`$UCFG_OUT_DIR`-aware) and [`summary`]
//! renders a one-screen table for end-of-run stderr.
//!
//! ```
//! use ucfg_support::obs;
//!
//! obs::set_enabled(true);
//! obs::count!("doc.widgets", 3);
//! {
//!     let _t = obs::span!("doc.phase");
//!     // ... timed work ...
//! }
//! assert_eq!(obs::counter("doc.widgets").value(), 3);
//! ```

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Mutex, Once};
use std::time::Instant;

/// Environment variable that switches tracing on (`1` or `true`).
pub const TRACE_ENV: &str = "UCFG_TRACE";

static ENABLED: AtomicBool = AtomicBool::new(false);
static ENV_INIT: Once = Once::new();

/// Read `UCFG_TRACE` exactly once; explicit [`set_enabled`] calls also
/// force the read first so the environment can never override them later.
fn init_from_env() {
    ENV_INIT.call_once(|| {
        let on = std::env::var(TRACE_ENV)
            .map(|v| {
                let v = v.trim();
                v == "1" || v.eq_ignore_ascii_case("true")
            })
            .unwrap_or(false);
        if on {
            ENABLED.store(true, Ordering::Relaxed);
        }
    });
}

/// Whether tracing is on. One relaxed atomic load (plus a one-time
/// environment read); this is the only cost instrumented code pays when
/// tracing is off.
#[inline]
pub fn enabled() -> bool {
    init_from_env();
    ENABLED.load(Ordering::Relaxed)
}

/// Switch tracing on or off for this process (the `--trace` funnel).
/// Takes precedence over `UCFG_TRACE` regardless of call order.
pub fn set_enabled(on: bool) {
    init_from_env();
    ENABLED.store(on, Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// Instruments
// ---------------------------------------------------------------------------

/// A monotonic event counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Add `delta` events (relaxed; callers already gate on [`enabled`]).
    #[inline]
    pub fn add(&self, delta: u64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn value(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-write-wins / additive signed gauge (e.g. bytes resident).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Overwrite the gauge.
    #[inline]
    pub fn set(&self, value: i64) {
        self.0.store(value, Ordering::Relaxed);
    }

    /// Adjust the gauge by `delta` (commutative, so safe across threads).
    #[inline]
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn value(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of power-of-two buckets in a [`Histogram`]. Bucket `i` holds
/// samples whose value has bit length `i` (bucket 0: value 0), with the
/// top bucket absorbing everything wider.
pub const HISTOGRAM_BUCKETS: usize = 32;

/// A fixed-bucket histogram of `u64` samples (span durations in
/// nanoseconds, per-worker loads, ...). Power-of-two buckets keep the
/// record path to a handful of instructions.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    total: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [(); HISTOGRAM_BUCKETS].map(|()| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            total: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Record one sample.
    #[inline]
    pub fn record(&self, value: u64) {
        let bucket = (64 - value.leading_zeros() as usize).min(HISTOGRAM_BUCKETS - 1);
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples.
    pub fn total(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }

    /// Largest sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Per-bucket sample counts.
    pub fn buckets(&self) -> [u64; HISTOGRAM_BUCKETS] {
        let mut out = [0u64; HISTOGRAM_BUCKETS];
        for (o, b) in out.iter_mut().zip(&self.buckets) {
            *o = b.load(Ordering::Relaxed);
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// The four namespaces of the process-wide registry. Instruments are
/// interned on first use (leaked, so handles are `&'static` and can be
/// cached in call-site statics) and exported in `BTreeMap` (= sorted
/// key) order.
struct Registry {
    counters: Mutex<BTreeMap<String, &'static Counter>>,
    gauges: Mutex<BTreeMap<String, &'static Gauge>>,
    vcounters: Mutex<BTreeMap<String, &'static Counter>>,
    histograms: Mutex<BTreeMap<String, &'static Histogram>>,
}

fn registry() -> &'static Registry {
    static REGISTRY: std::sync::OnceLock<Registry> = std::sync::OnceLock::new();
    REGISTRY.get_or_init(|| Registry {
        counters: Mutex::new(BTreeMap::new()),
        gauges: Mutex::new(BTreeMap::new()),
        vcounters: Mutex::new(BTreeMap::new()),
        histograms: Mutex::new(BTreeMap::new()),
    })
}

fn intern<T: Default>(map: &Mutex<BTreeMap<String, &'static T>>, name: &str) -> &'static T {
    let mut map = map.lock().expect("obs registry poisoned");
    if let Some(t) = map.get(name) {
        return t;
    }
    let t: &'static T = Box::leak(Box::default());
    map.insert(name.to_string(), t);
    t
}

/// Intern (or fetch) the **deterministic** counter `name`: its final
/// value must be identical for every thread count.
pub fn counter(name: &str) -> &'static Counter {
    intern(&registry().counters, name)
}

/// Intern (or fetch) the **volatile** counter `name`: its value may
/// legitimately vary run to run (e.g. serial-path hits).
pub fn vcounter(name: &str) -> &'static Counter {
    intern(&registry().vcounters, name)
}

/// Intern (or fetch) the deterministic gauge `name`.
pub fn gauge(name: &str) -> &'static Gauge {
    intern(&registry().gauges, name)
}

/// Intern (or fetch) the histogram `name` (exported in the volatile
/// stratum alongside the span timings).
pub fn histogram(name: &str) -> &'static Histogram {
    intern(&registry().histograms, name)
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// An RAII wall-time span: created by [`span!`] (or [`Span::start`] for
/// dynamic names), records its elapsed nanoseconds into a histogram on
/// drop. Inert (no clock read, no registry touch) when tracing is off.
#[must_use = "a span measures the scope it is bound to"]
pub struct Span {
    live: Option<(&'static Histogram, Instant)>,
}

impl Span {
    /// Start a span recording into the histogram `name`. Use this for
    /// dynamically built names (e.g. per-experiment ids); statically
    /// named call sites should prefer [`span!`], which caches the
    /// histogram handle.
    pub fn start(name: &str) -> Span {
        if enabled() {
            Span::from_histogram(histogram(name))
        } else {
            Span { live: None }
        }
    }

    /// Start a span on an already-interned histogram (the [`span!`]
    /// fast path). Callers gate on [`enabled`].
    pub fn from_histogram(hist: &'static Histogram) -> Span {
        Span {
            live: Some((hist, Instant::now())),
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some((hist, start)) = self.live.take() {
            let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            hist.record(ns);
        }
    }
}

// ---------------------------------------------------------------------------
// Macros (re-exported below as `obs::count!` etc.)
// ---------------------------------------------------------------------------

/// Bump the deterministic counter `$name` by `$delta` (default 1) when
/// tracing is on. The handle is interned once per call site.
#[macro_export]
macro_rules! obs_count {
    ($name:expr) => {
        $crate::obs_count!($name, 1u64)
    };
    ($name:expr, $delta:expr) => {
        if $crate::obs::enabled() {
            static __UCFG_OBS_C: ::std::sync::OnceLock<&'static $crate::obs::Counter> =
                ::std::sync::OnceLock::new();
            __UCFG_OBS_C
                .get_or_init(|| $crate::obs::counter($name))
                .add($delta as u64);
        }
    };
}

/// Bump the **volatile** counter `$name` by `$delta` (default 1) when
/// tracing is on.
#[macro_export]
macro_rules! obs_vcount {
    ($name:expr) => {
        $crate::obs_vcount!($name, 1u64)
    };
    ($name:expr, $delta:expr) => {
        if $crate::obs::enabled() {
            static __UCFG_OBS_VC: ::std::sync::OnceLock<&'static $crate::obs::Counter> =
                ::std::sync::OnceLock::new();
            __UCFG_OBS_VC
                .get_or_init(|| $crate::obs::vcounter($name))
                .add($delta as u64);
        }
    };
}

/// Overwrite the gauge `$name` with `$value` when tracing is on.
#[macro_export]
macro_rules! obs_gauge_set {
    ($name:expr, $value:expr) => {
        if $crate::obs::enabled() {
            static __UCFG_OBS_G: ::std::sync::OnceLock<&'static $crate::obs::Gauge> =
                ::std::sync::OnceLock::new();
            __UCFG_OBS_G
                .get_or_init(|| $crate::obs::gauge($name))
                .set($value as i64);
        }
    };
}

/// Adjust the gauge `$name` by `$delta` when tracing is on.
#[macro_export]
macro_rules! obs_gauge_add {
    ($name:expr, $delta:expr) => {
        if $crate::obs::enabled() {
            static __UCFG_OBS_GA: ::std::sync::OnceLock<&'static $crate::obs::Gauge> =
                ::std::sync::OnceLock::new();
            __UCFG_OBS_GA
                .get_or_init(|| $crate::obs::gauge($name))
                .add($delta as i64);
        }
    };
}

/// Record the sample `$value` into the histogram `$name` when tracing is
/// on.
#[macro_export]
macro_rules! obs_record {
    ($name:expr, $value:expr) => {
        if $crate::obs::enabled() {
            static __UCFG_OBS_H: ::std::sync::OnceLock<&'static $crate::obs::Histogram> =
                ::std::sync::OnceLock::new();
            __UCFG_OBS_H
                .get_or_init(|| $crate::obs::histogram($name))
                .record($value as u64);
        }
    };
}

/// Open an RAII wall-time span named `$name`; bind it (`let _t = ...`) so
/// it drops — and records — at end of scope. Inert when tracing is off.
#[macro_export]
macro_rules! obs_span {
    ($name:expr) => {{
        if $crate::obs::enabled() {
            static __UCFG_OBS_S: ::std::sync::OnceLock<&'static $crate::obs::Histogram> =
                ::std::sync::OnceLock::new();
            $crate::obs::Span::from_histogram(
                __UCFG_OBS_S.get_or_init(|| $crate::obs::histogram($name)),
            )
        } else {
            $crate::obs::Span::start("")
        }
    }};
}

// `obs::count!(..)` reads better than `ucfg_support::obs_count!(..)`.
pub use crate::obs_count as count;
pub use crate::obs_gauge_add as gauge_add;
pub use crate::obs_gauge_set as gauge_set;
pub use crate::obs_record as record;
pub use crate::obs_span as span;
pub use crate::obs_vcount as vcount;

// ---------------------------------------------------------------------------
// Export
// ---------------------------------------------------------------------------

/// Render the registry as pretty-printed JSON with **sorted keys** and
/// the volatile stratum strictly last:
///
/// ```json
/// {
///   "bin": "sweep",
///   "counters": { "cyk.charts": 7, ... },
///   "gauges": { "wordset.cache.bytes": 4096, ... },
///   "volatile": {
///     "counters": { "par.serial_hits": 2, ... },
///     "timings": { "cyk.fill": {"count":7,"total_ns":...}, ... }
///   }
/// }
/// ```
///
/// Everything before the `"volatile"` line is thread-count deterministic,
/// so CI byte-compares `sed '/"volatile"/,$d'` of two runs.
pub fn export_json(bin: &str) -> String {
    let reg = registry();
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"bin\": \"{}\",", crate::bench::json_escape(bin));

    let counters = snapshot(&reg.counters, Counter::value);
    write_map(&mut out, 1, "counters", &counters, u64_json, true);
    let gauges = snapshot(&reg.gauges, Gauge::value);
    write_map(&mut out, 1, "gauges", &gauges, i64_json, true);

    out.push_str("  \"volatile\": {\n");
    let vcounters = snapshot(&reg.vcounters, Counter::value);
    write_map(&mut out, 2, "counters", &vcounters, u64_json, true);
    let timings = snapshot(&reg.histograms, hist_json);
    write_map(&mut out, 2, "timings", &timings, String::clone, false);
    out.push_str("  }\n");
    out.push_str("}\n");
    out
}

/// Render only the **deterministic stratum** of the registry — the
/// `bin` tag, counters and gauges, with sorted keys — omitting the
/// volatile section entirely. The output is byte-identical across
/// worker counts for the same logical workload, so callers (e.g. the
/// `ucfg-serve` `/metrics/deterministic` endpoint) can diff two live
/// processes without the `sed '/"volatile"/,$d'` dance.
pub fn export_deterministic(bin: &str) -> String {
    let reg = registry();
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"bin\": \"{}\",", crate::bench::json_escape(bin));
    let counters = snapshot(&reg.counters, Counter::value);
    write_map(&mut out, 1, "counters", &counters, u64_json, true);
    let gauges = snapshot(&reg.gauges, Gauge::value);
    write_map(&mut out, 1, "gauges", &gauges, i64_json, false);
    out.push_str("}\n");
    out
}

fn snapshot<T, V>(
    map: &Mutex<BTreeMap<String, &'static T>>,
    read: impl Fn(&T) -> V,
) -> Vec<(String, V)> {
    map.lock()
        .expect("obs registry poisoned")
        .iter()
        .map(|(k, t)| (k.clone(), read(t)))
        .collect()
}

fn u64_json(v: &u64) -> String {
    v.to_string()
}

fn i64_json(v: &i64) -> String {
    v.to_string()
}

fn hist_json(h: &Histogram) -> String {
    let buckets = h.buckets();
    let top = buckets.iter().rposition(|&c| c > 0).map_or(0, |i| i + 1);
    let rendered: Vec<String> = buckets[..top].iter().map(u64::to_string).collect();
    format!(
        "{{\"count\":{},\"total_ns\":{},\"max_ns\":{},\"buckets\":[{}]}}",
        h.count(),
        h.total(),
        h.max(),
        rendered.join(",")
    )
}

fn write_map<V>(
    out: &mut String,
    depth: usize,
    key: &str,
    entries: &[(String, V)],
    render: impl Fn(&V) -> String,
    trailing_comma: bool,
) {
    let pad = "  ".repeat(depth);
    let comma = if trailing_comma { "," } else { "" };
    if entries.is_empty() {
        let _ = writeln!(out, "{pad}\"{key}\": {{}}{comma}");
        return;
    }
    let _ = writeln!(out, "{pad}\"{key}\": {{");
    for (i, (name, value)) in entries.iter().enumerate() {
        let sep = if i + 1 < entries.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "{pad}  \"{}\": {}{sep}",
            crate::bench::json_escape(name),
            render(value)
        );
    }
    let _ = writeln!(out, "{pad}}}{comma}");
}

/// Write [`export_json`] to `out/METRICS_<bin>.json` (honouring
/// `$UCFG_OUT_DIR`) and return the path. `ucfg` calls it once per
/// process, with the command's name as `bin`.
pub fn write_metrics(bin: &str) -> std::io::Result<PathBuf> {
    let dir = crate::bench::out_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("METRICS_{bin}.json"));
    std::fs::write(&path, export_json(bin))?;
    Ok(path)
}

/// Render a one-screen text summary of every non-empty instrument, for
/// end-of-run stderr. Counters and gauges print raw values; histograms
/// print count / mean / max in a human unit (ns-scaled columns).
pub fn summary() -> String {
    let reg = registry();
    let mut out = String::new();
    out.push_str("── obs summary ──────────────────────────────────────\n");
    let counters = snapshot(&reg.counters, Counter::value);
    let vcounters = snapshot(&reg.vcounters, Counter::value);
    for (name, v) in counters.iter().chain(vcounters.iter()) {
        if *v > 0 {
            let _ = writeln!(out, "  {name:<40} {v:>12}");
        }
    }
    for (name, v) in snapshot(&reg.gauges, Gauge::value) {
        let _ = writeln!(out, "  {name:<40} {v:>12}");
    }
    let hists = snapshot(&reg.histograms, |h: &Histogram| {
        (h.count(), h.total(), h.max())
    });
    for (name, (count, total, max)) in hists {
        if count == 0 {
            continue;
        }
        let mean = total / count.max(1);
        let _ = writeln!(
            out,
            "  {name:<40} n={count:<8} mean={:<12} max={}",
            fmt_ns(mean),
            fmt_ns(max)
        );
    }
    out.push_str("─────────────────────────────────────────────────────");
    out
}

/// Render nanoseconds with an adaptive unit (`ns`, `µs`, `ms`, `s`).
fn fmt_ns(ns: u64) -> String {
    match ns {
        0..=9_999 => format!("{ns}ns"),
        10_000..=9_999_999 => format!("{}µs", ns / 1_000),
        10_000_000..=9_999_999_999 => format!("{}ms", ns / 1_000_000),
        _ => format!("{:.1}s", ns as f64 / 1e9),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The registry and the enabled flag are process-wide; serialize the
    /// tests that flip them so `cargo test`'s parallel runner can't
    /// interleave.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static GATE: Mutex<()> = Mutex::new(());
        GATE.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn disabled_probes_are_inert() {
        let _g = lock();
        set_enabled(false);
        count!("test.obs.disabled", 5);
        vcount!("test.obs.disabled.v", 5);
        gauge_set!("test.obs.disabled.g", 5);
        record!("test.obs.disabled.h", 5);
        let _s = span!("test.obs.disabled.span");
        drop(_s);
        assert_eq!(counter("test.obs.disabled").value(), 0);
        assert_eq!(vcounter("test.obs.disabled.v").value(), 0);
        assert_eq!(gauge("test.obs.disabled.g").value(), 0);
        assert_eq!(histogram("test.obs.disabled.h").count(), 0);
        assert_eq!(histogram("test.obs.disabled.span").count(), 0);
    }

    #[test]
    fn counters_gauges_histograms_record_when_enabled() {
        let _g = lock();
        set_enabled(true);
        count!("test.obs.c");
        count!("test.obs.c", 9);
        vcount!("test.obs.vc", 2);
        gauge_set!("test.obs.g", 40);
        gauge_add!("test.obs.g", 2);
        record!("test.obs.h", 1024);
        {
            let _t = span!("test.obs.span");
            std::hint::black_box(0u64);
        }
        set_enabled(false);
        assert_eq!(counter("test.obs.c").value(), 10);
        assert_eq!(vcounter("test.obs.vc").value(), 2);
        assert_eq!(gauge("test.obs.g").value(), 42);
        let h = histogram("test.obs.h");
        assert_eq!((h.count(), h.total(), h.max()), (1, 1024, 1024));
        assert_eq!(h.buckets()[11], 1, "1024 has bit length 11");
        assert_eq!(histogram("test.obs.span").count(), 1);
    }

    #[test]
    fn dynamic_spans_record_under_their_name() {
        let _g = lock();
        set_enabled(true);
        let before = histogram("test.obs.dyn.T1").count();
        {
            let _t = Span::start(&format!("test.obs.dyn.{}", "T1"));
        }
        set_enabled(false);
        assert_eq!(histogram("test.obs.dyn.T1").count(), before + 1);
    }

    #[test]
    fn histogram_bucket_edges() {
        let h = Histogram::default();
        h.record(0);
        h.record(1);
        h.record(u64::MAX);
        let b = h.buckets();
        assert_eq!(b[0], 1);
        assert_eq!(b[1], 1);
        assert_eq!(b[HISTOGRAM_BUCKETS - 1], 1);
        assert_eq!(h.max(), u64::MAX);
    }

    #[test]
    fn export_is_sorted_and_volatile_last() {
        let _g = lock();
        set_enabled(true);
        count!("test.export.b", 2);
        count!("test.export.a", 1);
        gauge_set!("test.export.g", -7);
        vcount!("test.export.v", 3);
        record!("test.export.t", 5);
        set_enabled(false);
        let json = export_json("unit");
        let a = json.find("\"test.export.a\"").expect("a exported");
        let b = json.find("\"test.export.b\"").expect("b exported");
        assert!(a < b, "counter keys sorted");
        let vol = json.find("\"volatile\"").expect("volatile section");
        assert!(vol > a && vol > json.find("\"test.export.g\": -7").expect("gauge exported"));
        assert!(json.find("\"test.export.v\"").expect("vcounter exported") > vol);
        assert!(json.find("\"test.export.t\"").expect("timing exported") > vol);
        assert!(json.trim_end().ends_with('}'));
        // The deterministic prefix is everything before the volatile line.
        let prefix: String = json
            .lines()
            .take_while(|l| !l.contains("\"volatile\""))
            .collect();
        assert!(prefix.contains("test.export.a"));
        assert!(!prefix.contains("test.export.v"));
    }

    #[test]
    fn summary_lists_active_instruments() {
        let _g = lock();
        set_enabled(true);
        count!("test.summary.hits", 4);
        set_enabled(false);
        let s = summary();
        assert!(s.contains("test.summary.hits"));
        assert!(s.contains('4'));
    }

    #[test]
    fn env_spellings() {
        // `init_from_env` may already have run; just pin the parser logic.
        for (v, want) in [
            ("1", true),
            ("true", true),
            ("TRUE", true),
            ("0", false),
            ("", false),
        ] {
            let v = v.trim();
            let got = v == "1" || v.eq_ignore_ascii_case("true");
            assert_eq!(got, want, "spelling {v:?}");
        }
    }
}
