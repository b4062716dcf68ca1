//! # ucfg-bench — experiment tables, in-tree benches, and the orchestrator
//!
//! [`experiments`] regenerates every table/figure of the reproduction
//! (DESIGN.md §5); `cargo run -p ucfg-bench --release --bin report` prints
//! them all. The bench suites live in [`suites`] as library functions on
//! the in-tree `ucfg_support::bench` harness; the `bench` binary
//! (`bench <suite>`, `bench --all`) and the orchestrator run them through
//! the same registry, so the two cannot drift apart. [`sweep`] renders the Theorem 1 separation CSV on a
//! deterministic parallel runner. [`orchestrate`] runs the whole matrix —
//! experiments, bench suites, thread-pinned sweeps — as a cached,
//! dependency-aware job graph with an HTML report and a baseline
//! regression gate (`ucfg orchestrate`).

#![warn(missing_docs)]

pub mod experiments;
pub mod orchestrate;
pub mod suites;
pub mod sweep;
