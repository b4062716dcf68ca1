//! # ucfg-support — hermetic workspace support
//!
//! In-tree, zero-dependency replacements for the three external crates the
//! workspace used, so `cargo build`, `cargo test` and `ucfg bench`
//! work fully offline and bit-for-bit reproducibly:
//!
//! - [`rng`] — deterministic seedable PRNGs (SplitMix64, xoshiro256**)
//!   with the `random`/`random_range`/`shuffle`/`choose` surface
//!   (replaces `rand`),
//! - [`prop`] — a property-testing harness with generators, fixed-seed
//!   replay, and bounded size-directed shrinking (replaces `proptest`),
//! - [`mod@bench`] — a warmup + median/p95 bench harness emitting
//!   `out/BENCH_*.json` lines, with a `--smoke` mode for CI (replaces
//!   `criterion`),
//! - [`par`] — a scoped, deterministic parallel-map layer (ordered
//!   results, fixed chunking, `UCFG_THREADS` override, serial fallback)
//!   for the exhaustive kernels (replaces `rayon`),
//! - [`obs`] — a process-wide observability layer (counters / gauges /
//!   duration histograms behind atomics, RAII spans, a deterministic
//!   `out/METRICS_*.json` exporter), off by default and switched on by
//!   `UCFG_TRACE=1` or `ucfg --trace`,
//! - [`fnv`] — a stable FNV-1a 64-bit hasher for content-addressed
//!   artifact caching (`std::hash` is seed-randomised per process, so
//!   it cannot produce stable cache keys),
//! - [`html`] — a self-contained static-HTML document builder for the
//!   orchestrator's run reports (tables, `<pre>` blocks, badges; inline
//!   CSS, no scripts),
//! - [`baseline`] — the pure baseline-diffing logic behind the
//!   orchestrator's `--check` regression gate (tolerance ratios, noise
//!   floors, exact-digest comparison),
//! - [`simd`] — runtime-dispatched AVX2/scalar kernels for the `u64`
//!   bitset slabs behind the word-set and CYK hot loops (`UCFG_NO_SIMD`
//!   forces the always-tested scalar path),
//! - [`arena`] — a bounded process-wide pool of `u64` slab buffers so the
//!   serve daemon's per-request charts and chunk blocks stop paying
//!   allocator traffic,
//! - [`evloop`] — thin edge-triggered `epoll` bindings (poller, events,
//!   cross-thread waker, `RLIMIT_NOFILE` raise) for the serve daemon's
//!   nonblocking accept/read path (Linux; stubs elsewhere).

#![warn(missing_docs)]

pub mod arena;
pub mod baseline;
pub mod bench;
pub mod evloop;
pub mod fnv;
pub mod html;
pub mod obs;
pub mod par;
pub mod prop;
pub mod rng;
pub mod simd;

pub use rng::{Rng, SeedableRng, StdRng};
