//! The command line of `ucfg`: every command's flag table, the global
//! flags, and the one parser that reads them all.
//!
//! [`parse`] walks the argument vector once. A flag that takes a value
//! accepts `--flag V` and `--flag=V` (a single-dash spelling also `-fV`),
//! and the token after `--flag` is its value whatever it looks like. The
//! global flags are accepted anywhere, before or after the command, but
//! never in place of another flag's value. An unknown flag or a missing
//! value is an error before any command runs; typed checks (ranges,
//! counts ≥ 1, exclusive pairs) stay with each command. [`usage`] is
//! rendered from the same tables.

use crate::{err, CliError};
use std::fmt::Write as _;

/// A flag: its spellings (`|`-separated, canonical first), the
/// placeholder of the value it takes (empty for a switch), and its help
/// line.
#[derive(Debug)]
struct Flag(&'static str, &'static str, &'static str);

impl Flag {
    /// The canonical spelling, under which [`Invocation`] records it.
    fn name(&self) -> &'static str {
        self.0.split_once('|').map_or(self.0, |(name, _)| name)
    }
}

/// A command: its name, positional synopsis, help line and flags.
#[derive(Debug)]
struct Command(&'static str, &'static str, &'static str, &'static [Flag]);

/// Accepted anywhere on the command line, by every command.
const GLOBAL_FLAGS: &[Flag] = &[
    Flag("--threads|-j", "N", "overrides UCFG_THREADS"),
    Flag("--trace", "", "metrics → out/METRICS_<command>.json"),
    Flag("--chunk-bits", "N", "stream wordsets in N-bit chunks"),
];

const SERVE_FLAGS: &[Flag] = &[
    Flag("--port", "N", "TCP port (default 7878; 0 asks the OS)"),
    Flag("--host", "H", "interface to bind (default 127.0.0.1)"),
    Flag("--queue-depth", "N", "batch-queue depth per shard"),
    Flag("--deadline-ms", "N", "per-request queue deadline"),
    Flag("--cache-capacity", "N", "cache entries across shards"),
    Flag("--max-connections", "N", "connections before accepts pause"),
    Flag("--shards", "N", "worker shards"),
    Flag("--max-body-bytes", "N", "largest request body (else 413)"),
    Flag("--request-timeout-ms", "N", "request deadline (else 408)"),
    Flag("--idle-timeout-ms", "N", "close connections idle this long"),
];

const QUERY_FLAGS: &[Flag] = &[
    Flag("--port", "N", "daemon port (required)"),
    Flag("--host", "H", "daemon host (default 127.0.0.1)"),
    Flag("--file", "F", "script of JSON lines (default: stdin)"),
    Flag("--timeout-ms", "N", "read timeout per response (30 s)"),
    Flag("--shutdown", "", "send POST /shutdown after the script"),
];

const STREAM_FLAGS: &[Flag] = &[
    Flag("--port", "N", "daemon port (required)"),
    Flag("--host", "H", "daemon host (default 127.0.0.1)"),
    Flag("--grammar", "SRC", "grammar text (or --builtin NAME --n N)"),
    Flag("--builtin", "NAME", "builtin grammar family"),
    Flag("--n", "N", "builtin parameter"),
    Flag("--file", "F", "token file (or --text CHARS)"),
    Flag("--text", "CHARS", "inline tokens"),
    Flag("--window", "W", "window capacity (default 64)"),
    Flag("--regex", "R", "product regex"),
    Flag("--name", "S", "session tag"),
    Flag("--chunk", "N", "feed chunk in characters (default 16)"),
    Flag("--timeout-ms", "N", "read timeout per response (30 s)"),
    Flag("--shutdown", "", "send POST /shutdown after closing"),
];

const ORCHESTRATE_FLAGS: &[Flag] = &[
    Flag("--smoke", "", "smoke profile"),
    Flag("--check", "", "gate on baselines/<profile>.json"),
    Flag("--write-baseline", "", "save the run as the baseline"),
    Flag("--list", "", "list job ids, run nothing"),
    Flag("--filter", "S", "substring filter on job ids"),
    Flag("--baseline", "PATH", "baseline file override"),
    Flag("--out-dir", "DIR", "output root ($UCFG_OUT_DIR, out/)"),
    Flag("--cache-dir", "DIR", "artifact cache directory"),
    Flag("--refresh", "", "recompute cached jobs"),
    Flag("--tolerance", "R", "timed-comparison ratio (≥ 1)"),
    Flag("--floor-ns", "N", "timed-comparison noise floor"),
];

const REPORT_FLAGS: &[Flag] = &[Flag("--list|-l", "", "list experiment ids")];

const SWEEP_FLAGS: &[Flag] = &[Flag("--kernels", "", "bitmap-kernel sweep")];

const BENCH_FLAGS: &[Flag] = &[
    Flag("--all", "", "every suite"),
    Flag("--list", "", "suite names, or the selected suites' ids"),
    Flag("--smoke", "", "run each benchmark once"),
    Flag("--samples", "N", "timed batches per benchmark (20)"),
    Flag("--warmup-ms", "N", "warmup per benchmark (50 ms)"),
    Flag("--out-dir", "DIR", "where BENCH_<suite>.json goes"),
];

/// Every command, in usage order.
const COMMANDS: &[Command] = &[
    Command("member", "<n> <word>", "is <word> ∈ L_n?", &[]),
    Command("count", "<n>", "|L_n|", &[]),
    Command("sizes", "<n>", "Theorem 1 size row for L_n", &[]),
    Command("grammar", "<which> <n>", "print a paper grammar", &[]),
    Command("check", "", "analyse a grammar read from stdin", &[]),
    Command("determinize", "", "CFG → uCFG (the [20] route), stdin", &[]),
    Command("extract", "<n>", "Proposition 7 extraction demo", &[]),
    Command("rank", "<n>", "Theorem 17 rank certificates", &[]),
    Command("cover", "<n>", "verify the Example 8 cover of L_n", &[]),
    Command("discrepancy", "<n>", "disc(𝓛) streamed vs ledger", &[]),
    Command("accounting", "<m>", "Lemma 18/19 ledger at n = 4m", &[]),
    Command("serve", "", "run the query daemon", SERVE_FLAGS),
    Command("query", "", "send JSON-lines requests", QUERY_FLAGS),
    Command("stream", "", "drive a stream session", STREAM_FLAGS),
    Command(
        "orchestrate",
        "[filter]",
        "experiment matrix as a cached job graph",
        ORCHESTRATE_FLAGS,
    ),
    Command("report", "[id…]", "experiment tables", REPORT_FLAGS),
    Command("sweep", "[max_n]", "separation CSV", SWEEP_FLAGS),
    Command("bench", "[suite|filter…]", "bench suites", BENCH_FLAGS),
];

/// A parsed command line: the command, the flags given to it or
/// globally, and its positional arguments.
#[derive(Debug)]
pub struct Invocation {
    command: Option<&'static Command>,
    /// Canonical spelling and value of each flag, in order; a switch
    /// records an empty value.
    flags: Vec<(&'static str, String)>,
    /// The positional arguments after the command.
    pub(crate) args: Vec<String>,
}

impl Invocation {
    /// The command's name; `"ucfg"` when none was given.
    pub fn name(&self) -> &'static str {
        self.command.map_or("ucfg", |c| c.0)
    }

    /// Whether `flag` was given.
    pub(crate) fn has(&self, flag: &str) -> bool {
        self.flags.iter().any(|(f, _)| *f == flag)
    }

    /// The value `flag` was last given.
    pub(crate) fn value(&self, flag: &str) -> Option<&str> {
        let last = self.flags.iter().rev().find(|(f, _)| *f == flag);
        last.map(|(_, v)| v.as_str())
    }

    /// The value of `flag` parsed as a `T`, if given.
    pub(crate) fn num<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>, CliError> {
        let parse = |v: &str| {
            v.parse()
                .map_err(|_| err(format!("invalid {flag} value {v:?}")))
        };
        self.value(flag).map(parse).transpose()
    }

    /// [`num`](Self::num) for a count, which must be ≥ 1.
    pub(crate) fn count(&self, flag: &str) -> Result<Option<usize>, CliError> {
        match self.num(flag)? {
            Some(0) => Err(err(format!("{flag} must be ≥ 1"))),
            n => Ok(n),
        }
    }

    /// The error for positional arguments the command does not take.
    pub(crate) fn misuse(&self) -> CliError {
        let synopsis = self.command.map_or("", |c| c.1);
        err(format!("usage: ucfg {} {synopsis}", self.name()).trim_end())
    }
}

/// Parse a full argument vector (without the program name).
pub fn parse(argv: &[String]) -> Result<Invocation, CliError> {
    let mut inv = Invocation {
        command: None,
        flags: Vec::new(),
        args: Vec::new(),
    };
    let mut tokens = argv.iter();
    while let Some(tok) = tokens.next() {
        let own = inv.command.map_or(&[][..], |c| c.3);
        let Some((flag, attached)) = lookup(GLOBAL_FLAGS, tok).or_else(|| lookup(own, tok)) else {
            match inv.command {
                None => {
                    let cmd = COMMANDS.iter().find(|c| c.0 == tok);
                    inv.command = Some(cmd.ok_or_else(|| unrecognised(argv))?);
                }
                Some(c) if tok.len() > 1 && tok.starts_with('-') => {
                    return Err(err(format!("unrecognised {} flag: {tok}", c.0)));
                }
                Some(_) => inv.args.push(tok.clone()),
            }
            continue;
        };
        let value = match (flag.1.is_empty(), attached) {
            (true, None) => String::new(),
            (true, Some(_)) => return Err(err(format!("{} takes no value", flag.name()))),
            (false, Some(v)) => v.to_string(),
            (false, None) => tokens
                .next()
                .ok_or_else(|| err(format!("{tok} needs a value")))?
                .clone(),
        };
        inv.flags.push((flag.name(), value));
    }
    Ok(inv)
}

/// The flag `tok` spells, with any value attached to it: `--flag=V`, or
/// `-fV` for a single-dash flag that takes a value.
fn lookup<'t>(table: &'static [Flag], tok: &'t str) -> Option<(&'static Flag, Option<&'t str>)> {
    table.iter().find_map(|flag| {
        flag.0
            .split('|')
            .find_map(|name| match tok.strip_prefix(name)? {
                "" => Some((flag, None)),
                rest if name.starts_with("--") => Some((flag, Some(rest.strip_prefix('=')?))),
                rest if !flag.1.is_empty() => Some((flag, Some(rest))),
                _ => None,
            })
    })
}

fn unrecognised(argv: &[String]) -> CliError {
    err(format!("unrecognised arguments: {argv:?}\n\n{}", usage()))
}

/// Usage text, rendered from the flag tables.
pub fn usage() -> String {
    let mut out = String::from(
        "ucfg — the uCFG lower-bound toolkit (PODS 2025 reproduction)\n\n\
         usage: ucfg <command> [args] [flags]\n\ncommands:\n",
    );
    for Command(name, args, help, flags) in COMMANDS {
        row(&mut out, 2, &format!("{name} {args}"), help);
        for flag in *flags {
            row(&mut out, 6, &synopsis(flag), flag.2);
        }
    }
    out.push_str("\nglobal flags, accepted anywhere:\n");
    for flag in GLOBAL_FLAGS {
        row(&mut out, 2, &synopsis(flag), flag.2);
    }
    out
}

/// `--threads N | -j N`: every spelling with its value placeholder.
fn synopsis(flag: &Flag) -> String {
    let value = if flag.1.is_empty() {
        String::new()
    } else {
        format!(" {}", flag.1)
    };
    let spellings: Vec<String> = flag.0.split('|').map(|n| format!("{n}{value}")).collect();
    spellings.join(" | ")
}

/// One usage row, its help aligned in a column.
fn row(out: &mut String, indent: usize, lhs: &str, help: &str) {
    let _ = writeln!(out, "{:indent$}{lhs:<w$} {help}", "", w = 36 - indent);
}
