//! # ucfg-bench — experiment tables, in-tree benches, and the orchestrator
//!
//! A library with no binary of its own: the `ucfg` commands `report`,
//! `sweep`, `bench` and `orchestrate` call it. [`experiments`] regenerates
//! every table/figure of the reproduction (DESIGN.md §5);
//! `cargo run --release -p ucfg-cli -- report` prints them all. The bench
//! suites live in [`suites`] as library functions on the in-tree
//! `ucfg_support::bench` harness; `ucfg bench` (`ucfg bench <suite>`,
//! `ucfg bench --all`) and the orchestrator run them through the same
//! registry, so the two cannot drift apart. [`sweep`] renders the
//! Theorem 1 separation CSV on a deterministic parallel runner.
//! [`orchestrate`] runs the whole matrix — experiments, bench suites,
//! thread-pinned sweeps — as a cached, dependency-aware job graph with an
//! HTML report and a baseline regression gate (`ucfg orchestrate`).

#![warn(missing_docs)]

pub mod experiments;
pub mod orchestrate;
pub mod suites;
pub mod sweep;
