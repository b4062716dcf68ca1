//! The bench-suite registry: every suite as an in-process library
//! function, plus the single list of suite names that `ucfg bench`, the
//! orchestrator, and CI all share.
//!
//! Each suite module exposes `build(opts) -> Suite`: it constructs the
//! suite, executes every registered benchmark under the given options
//! (timed, `--smoke`, or `--list`), and returns the suite with its
//! records so the caller can write `out/BENCH_<suite>.json` via
//! [`Suite::finish`] or read the JSON lines directly. `ucfg bench <suite>`
//! and `ucfg orchestrate` both call [`build`], so the suite bodies live
//! in exactly one place and the two cannot drift apart.

use ucfg_support::bench::{Options, Suite};

mod counting;
mod lower_bounds;
mod par_kernels;
mod parsing;
mod representations;
mod serve_bench;
mod simd_kernels;
mod stream_kernels;
mod wordset_kernels;

/// Every bench suite, in canonical order. This is the single source of
/// truth for "the nine bench suites": CI's bench-smoke job iterates
/// `ucfg bench --list` (which prints this), and the orchestrator's job matrix
/// is generated from it, so a suite added here is automatically picked
/// up by both.
pub const ALL_SUITES: &[&str] = &[
    "parsing",
    "counting",
    "lower_bounds",
    "representations",
    "par_kernels",
    "wordset_kernels",
    "simd_kernels",
    "serve_bench",
    "stream_kernels",
];

/// Build and execute the named suite under the given options. Returns
/// `None` for an unknown suite name.
pub fn build(name: &str, opts: Options) -> Option<Suite> {
    Some(match name {
        "parsing" => parsing::build(opts),
        "counting" => counting::build(opts),
        "lower_bounds" => lower_bounds::build(opts),
        "representations" => representations::build(opts),
        "par_kernels" => par_kernels::build(opts),
        "wordset_kernels" => wordset_kernels::build(opts),
        "simd_kernels" => simd_kernels::build(opts),
        "serve_bench" => serve_bench::build(opts),
        "stream_kernels" => stream_kernels::build(opts),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_covers_every_suite_exactly_once() {
        let mut names: Vec<&str> = ALL_SUITES.to_vec();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), ALL_SUITES.len(), "duplicate suite name");
        for name in ALL_SUITES {
            let opts = Options {
                list: true,
                ..Options::default()
            };
            let suite = build(name, opts).expect("registered suite builds");
            assert!(
                !suite.listed_ids().is_empty(),
                "suite {name} lists no benchmarks"
            );
        }
        assert!(build("no_such_suite", Options::default()).is_none());
    }
}
