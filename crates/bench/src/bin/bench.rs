//! The unified bench harness driver: runs any (or every) bench suite
//! in one process, and — crucially for CI — prints the authoritative
//! suite list so shell scripts never hardcode it again.
//!
//! Usage:
//! ```text
//! bench --list                 # suite names, one per line (nothing runs)
//! bench <suite> [...]          # run the named suites
//! bench --all [harness flags]  # run every suite
//! ```
//!
//! Any flag the driver doesn't recognise (`--smoke`, `--samples N`,
//! `--warmup-ms N`, `--out-dir P`, a substring filter, or the harness's
//! own `--list`) is passed through to `ucfg_support::bench::Options`, so
//! `bench --all --smoke` is the whole CI bench-smoke matrix in one
//! process and `bench parsing --list` enumerates one suite's benchmark
//! ids. Arguments the harness rejects (say `--smok`) exit with status 2
//! before any suite runs.

use ucfg_bench::suites;
use ucfg_support::bench::Options;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // `--list` with no suite selection lists *suites*; with a selection
    // it falls through to the harness, which lists that suite's
    // benchmark ids.
    let selects_suites = args
        .iter()
        .any(|a| a == "--all" || suites::ALL_SUITES.contains(&a.as_str()));
    if args.iter().any(|a| a == "--list") && !selects_suites {
        for name in suites::ALL_SUITES {
            println!("{name}");
        }
        return;
    }
    let mut selected: Vec<&str> = Vec::new();
    let mut harness_args: Vec<String> = Vec::new();
    let mut all = false;
    for a in &args {
        if a == "--all" {
            all = true;
        } else if let Some(name) = suites::ALL_SUITES.iter().find(|s| *s == a) {
            selected.push(name);
        } else {
            harness_args.push(a.clone());
        }
    }
    if all {
        selected = suites::ALL_SUITES.to_vec();
    }
    if selected.is_empty() {
        eprintln!(
            "bench: no suite selected\n\
             usage: bench --list | bench --all [flags] | bench <suite>.. [flags]\n\
             suites: {}",
            suites::ALL_SUITES.join(" ")
        );
        std::process::exit(2);
    }
    let opts = Options::parse(harness_args.into_iter()).unwrap_or_else(|e| {
        eprintln!("bench: {e}");
        std::process::exit(2);
    });
    let mut empty_suites: Vec<&str> = Vec::new();
    for name in selected {
        println!("=== suite {name} ===");
        let suite = suites::build(name, opts.clone()).expect("selected from ALL_SUITES");
        // A run (not a `--list`) that records nothing measured nothing —
        // typically a filter that matches no benchmark id. CI treats a
        // silently-empty suite as a failure, so flag it here.
        if !suite.is_list() && suite.is_empty() {
            empty_suites.push(name);
        }
        suite.finish();
    }
    if !empty_suites.is_empty() {
        eprintln!(
            "bench: no measurement rows from suite(s): {} (filter matched nothing?)",
            empty_suites.join(" ")
        );
        std::process::exit(1);
    }
}
