//! # ucfg-cli — command implementations
//!
//! The logic behind the `ucfg` binary, kept in a library so every command
//! is unit-testable: [`parse`] reads a command line against each
//! command's flag table, and [`run`] runs it. Commands operate on the
//! paper's language `L_n`, on grammars in the text format of
//! `ucfg_grammar::text`, on the lower-bound machinery of `ucfg-core`, on
//! the `ucfg-serve` daemon, and on the experiment report, sweeps and
//! bench suites of `ucfg-bench`.

#![warn(missing_docs)]

mod args;

pub use args::{parse, usage, Invocation};
use std::fmt::Write as _;
use std::io::Read;
use std::path::PathBuf;
use std::time::Duration;
use ucfg_bench::suites::ALL_SUITES;
use ucfg_core::extract::extract_cover;
use ucfg_core::ln_grammars::{appendix_a_grammar, example3_grammar, example4_ucfg};
use ucfg_core::separation::separation_row;
use ucfg_core::words;
use ucfg_grammar::count::{decide_unambiguous, UnambiguityVerdict};
use ucfg_grammar::language::finite_language;
use ucfg_grammar::lint;
use ucfg_grammar::normal_form::CnfGrammar;
use ucfg_grammar::text::{parse_grammar, print_grammar};
use ucfg_serve::client::DEFAULT_READ_TIMEOUT;
use ucfg_support::bench::Options;

/// Errors surfaced to the CLI user.
#[derive(Debug)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

fn err(msg: impl Into<String>) -> CliError {
    CliError(msg.into())
}

fn parse_n(s: &str) -> Result<usize, CliError> {
    let n: usize = s.parse().map_err(|_| err(format!("not a number: {s}")))?;
    if n == 0 || n > 32 {
        return Err(err("n must be in 1..=32"));
    }
    Ok(n)
}

/// `ucfg member <n> <word>` — is the word in `L_n`?
pub fn cmd_member(n: &str, word: &str) -> Result<String, CliError> {
    let n = parse_n(n)?;
    let w = words::from_string(n, word)
        .ok_or_else(|| err(format!("word must be over {{a,b}} with length {}", 2 * n)))?;
    Ok(format!(
        "{word} ∈ L_{n}: {} (witnessing pairs: {})\n",
        words::ln_contains(n, w),
        words::witness_count(n, w)
    ))
}

/// `ucfg count <n>` — |L_n| by closed form.
pub fn cmd_count(n: &str) -> Result<String, CliError> {
    let n = parse_n(n)?;
    Ok(format!("|L_{n}| = 4^{n} − 3^{n} = {}\n", words::ln_size(n)))
}

/// `ucfg grammar <which> <n>` — print one of the paper's grammars.
pub fn cmd_grammar(which: &str, n: &str) -> Result<String, CliError> {
    let n = parse_n(n)?;
    let g = match which {
        "appendix-a" | "cfg" => appendix_a_grammar(n),
        "example3" => example3_grammar(n),
        "example4" | "ucfg" => {
            if n > 10 {
                return Err(err("example4 is exponential; n ≤ 10"));
            }
            example4_ucfg(n)
        }
        other => {
            return Err(err(format!(
                "unknown grammar {other:?} (use appendix-a | example3 | example4)"
            )))
        }
    };
    let mut out = String::new();
    let _ = writeln!(out, "# {which} grammar, n = {n}, size {}", g.size());
    out.push_str(&print_grammar(&g));
    Ok(out)
}

/// `ucfg sizes <n>` — the Theorem 1 size row.
pub fn cmd_sizes(n: &str) -> Result<String, CliError> {
    let n = parse_n(n)?;
    let row = separation_row(n, 16, 8);
    let mut out = String::new();
    let _ = writeln!(out, "n = {n}  (|L_n| = {})", row.language_size);
    let _ = writeln!(out, "  CFG (Appendix A):        {}", row.cfg_size);
    let _ = writeln!(
        out,
        "  NFA (Θ(n), promise):     {}",
        row.nfa_pattern_transitions
    );
    if let Some(t) = row.nfa_exact_transitions {
        let _ = writeln!(out, "  NFA (exact, Θ(n²)):      {t}");
    }
    let _ = writeln!(out, "  uCFG (Example 4):        {}", row.ucfg_example4_size);
    if let Some(d) = row.ucfg_dawg_size {
        let _ = writeln!(out, "  uCFG (DAWG):             {d}");
    }
    if let Some(lb) = row.ucfg_lower_bound_log2 {
        let _ = writeln!(out, "  every uCFG ≥             2^{lb:.2}");
    }
    Ok(out)
}

/// `ucfg check < grammar.txt` — parse a grammar and analyse it.
pub fn cmd_check(src: &str) -> Result<String, CliError> {
    let g = parse_grammar(src).map_err(|e| err(e.to_string()))?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "parsed: {} non-terminals, {} rules, size {}",
        g.nonterminal_count(),
        g.rule_count(),
        g.size()
    );
    match finite_language(&g) {
        Some(lang) => {
            let _ = writeln!(out, "finite language: {} words", lang.len());
            let show: Vec<&str> = lang.iter().take(8).map(|s| s.as_str()).collect();
            let _ = writeln!(
                out,
                "  {}{}",
                show.join(" "),
                if lang.len() > 8 { " …" } else { "" }
            );
            match decide_unambiguous(&g) {
                UnambiguityVerdict::Unambiguous => {
                    let _ = writeln!(out, "unambiguous ✓");
                }
                UnambiguityVerdict::Ambiguous { witness, degree } => {
                    let _ = writeln!(out, "AMBIGUOUS: {witness:?} has {degree} parse trees");
                }
                v => {
                    let _ = writeln!(out, "verdict: {v:?}");
                }
            }
        }
        None => {
            let _ = writeln!(out, "infinite language (size analyses skipped)");
        }
    }
    // Structural lints.
    let findings = lint::lint(&g);
    for f in &findings {
        let _ = writeln!(out, "{f}");
    }
    if findings.is_empty() {
        let _ = writeln!(out, "no lints ✓");
    }
    Ok(out)
}

/// `ucfg extract <n>` — run the Proposition 7 extraction on the Example 4
/// uCFG for `L_n`.
pub fn cmd_extract(n: &str) -> Result<String, CliError> {
    let n = parse_n(n)?;
    if n > 5 {
        return Err(err("extraction demo is exponential; n ≤ 5"));
    }
    let g = example4_ucfg(n);
    let cnf = CnfGrammar::from_grammar(&g);
    let res = extract_cover(&cnf, 2 * n).map_err(|e| err(format!("{e:?}")))?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Proposition 7 on the Example 4 uCFG (n = {n}, |G| = {}):",
        g.size()
    );
    let _ = writeln!(
        out,
        "  {} balanced rectangles (bound n·|G| = {}), disjoint: {}",
        res.rectangles.len(),
        res.bound,
        res.is_disjoint()
    );
    for r in res.rectangles.iter().take(10) {
        let _ = writeln!(
            out,
            "  [{}..{}] |middles| = {:>3} |contexts| = {:>3}   (from {})",
            r.position,
            r.position + r.span_len - 1,
            r.rectangle.middles.len(),
            r.rectangle.contexts.len(),
            r.nt_name
        );
    }
    if res.rectangles.len() > 10 {
        let _ = writeln!(out, "  … {} more", res.rectangles.len() - 10);
    }
    Ok(out)
}

/// `ucfg rank <n>` — the Theorem 17 rank certificates for the `L_n`
/// communication matrix under the `[1, n]` partition. Runs on the
/// parallel kernels (worker count from `$UCFG_THREADS`, else all cores);
/// the result is bit-identical for every thread count. Past `n = 10` the
/// Gaussian elimination is infeasible, but the matrix census (ones count
/// and digest) streams through `WordSetSource` up to `n = 18` — in
/// chunks past the materialisation cap at `n ≥ 16`.
pub fn cmd_rank(n: &str) -> Result<String, CliError> {
    let n = parse_n(n)?;
    if n > 18 {
        return Err(err("the rank matrix census streams 4^n bits; n ≤ 18"));
    }
    let threads = ucfg_support::par::thread_count();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Theorem 17 rank certificates for M_{{L_{n}}} ({threads} thread{}):",
        if threads == 1 { "" } else { "s" }
    );
    if n <= 10 {
        let gf2 = ucfg_core::rank::rank_gf2(n);
        let _ = writeln!(out, "  rank over GF(2):           {gf2}");
    } else {
        let source = ucfg_core::wordset::chunked::WordSetSource::for_word_domain(n);
        let _ = writeln!(
            out,
            "  rank over GF(2):           (elimination needs n ≤ 10; census {})",
            source.describe()
        );
    }
    if n <= 9 {
        let gfp = ucfg_core::rank::rank_mod_p(n);
        let _ = writeln!(out, "  rank over GF(2^61 − 1):    {gfp}");
    }
    let scan = ucfg_core::rank::rank_matrix_scan(n);
    let _ = writeln!(
        out,
        "  matrix ones (4^n − 3^n):   {} (digest {:016x})",
        scan.ones, scan.digest
    );
    let _ = writeln!(
        out,
        "  ⇒ any disjoint [1,n]-rectangle cover of L_{n} needs ≥ {} rectangles",
        (1u64 << n) - 1
    );
    Ok(out)
}

/// `ucfg cover <n>` — verify the Example 8 cover of `L_n` through the
/// [`ucfg_core::wordset::chunked::WordSetSource`] routing: in-memory
/// below the materialisation cap, chunked above it or whenever
/// `--chunk-bits` / `UCFG_WORDSET_CHUNK` forces streaming. The scan line
/// names the source, so logs show which path ran; everything below it is
/// byte-identical across thread counts, chunk sizes, and the
/// in-memory/chunked split — the CI determinism job byte-compares these
/// lines.
pub fn cmd_cover(n: &str) -> Result<String, CliError> {
    let n = parse_n(n)?;
    if n > 18 {
        return Err(err("the cover scan streams 4^n bits; n ≤ 18"));
    }
    let threads = ucfg_support::par::thread_count();
    let source = ucfg_core::wordset::chunked::WordSetSource::for_word_domain(n);
    let rects = ucfg_core::cover::example8_cover(n);
    let scan = ucfg_core::cover::cover_scan_threads(n, &rects, threads);
    let mut out = String::new();
    let _ = writeln!(out, "Example 8 cover of L_{n}, {}:", source.describe());
    let _ = writeln!(out, "  rectangles:     {}", scan.size);
    let _ = writeln!(out, "  covers exactly: {}", scan.covers_exactly);
    let _ = writeln!(out, "  all balanced:   {}", scan.all_balanced);
    let _ = writeln!(out, "  max overlap:    {}", scan.max_overlap);
    let _ = writeln!(
        out,
        "  union:          count {} digest {:016x}",
        scan.union_count, scan.union_digest
    );
    let _ = writeln!(
        out,
        "  L_{n}:            count {} digest {:016x}",
        scan.ln_count, scan.ln_digest
    );
    Ok(out)
}

/// `ucfg discrepancy <n>` — the signed discrepancy `|R∩A| − |R∩B|` of
/// the full-family rectangle `R = 𝓛` at the `[1, n]` cut, streamed over
/// the family-rank domain through the [`WordSetSource`] routing (chunked
/// past the cap or under `--chunk-bits`), and cross-checked against the
/// exact closed-form ledger value `−2^{3m}` — the Lemma 19 bound met
/// with equality.
///
/// [`WordSetSource`]: ucfg_core::wordset::chunked::WordSetSource
pub fn cmd_discrepancy(n: &str) -> Result<String, CliError> {
    let n = parse_n(n)?;
    if !ucfg_core::discrepancy::supports_blocks(n) {
        return Err(err("the family 𝓛 needs n ≡ 0 mod 4"));
    }
    if n > 32 {
        return Err(err("the streamed scan probes 2^n family ranks; n ≤ 32"));
    }
    let threads = ucfg_support::par::thread_count();
    let source = ucfg_core::wordset::chunked::WordSetSource::for_family_domain(n);
    let rect = ucfg_core::discrepancy::full_family_rectangle(n);
    let d = ucfg_core::discrepancy::discrepancy_threads(n, &rect, threads);
    let acc = ucfg_core::discrepancy::family_accounting((n / 4) as u64);
    let exact = &acc.full_family_discrepancy;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Full-family discrepancy at n = {n}, {}:",
        source.describe()
    );
    let _ = writeln!(out, "  disc(𝓛) = |𝓛∩A| − |𝓛∩B|:   {d}");
    let _ = writeln!(out, "  exact ledger −2^{{3m}}:       {exact}");
    let _ = writeln!(
        out,
        "  streamed = exact:           {}",
        if exact.to_i128() == Some(i128::from(d)) {
            "true"
        } else {
            "FALSE"
        }
    );
    Ok(out)
}

/// `ucfg accounting <m>` — the exact Lemma 18/19 ledger for the family
/// `𝓛` at `n = 4m`, in closed form over the big-integer layer. Valid at
/// any `m`, in particular `n ≥ 32` where enumeration and bitmaps are
/// impossible and the signed quantities overflow `i64`; cross-checked
/// against enumeration and the streamed kernels at every feasible `n`
/// by the differential suite.
pub fn cmd_accounting(m: &str) -> Result<String, CliError> {
    let m: u64 = m.parse().map_err(|_| err(format!("not a number: {m}")))?;
    if m == 0 || m > 1024 {
        return Err(err("m must be in 1..=1024"));
    }
    let acc = ucfg_core::discrepancy::family_accounting(m);
    let mut out = String::new();
    let _ = writeln!(out, "Lemma 18/19 ledger for 𝓛 at m = {m} (n = {}):", 4 * m);
    let _ = writeln!(out, "  |𝓛| = 16^m:                 {}", acc.family_size);
    let _ = writeln!(out, "  |A| = (16^m − 8^m)/2:       {}", acc.a_size);
    let _ = writeln!(out, "  |B| = (16^m + 8^m)/2:       {}", acc.b_size);
    let _ = writeln!(out, "  |B ∖ L_n| = 12^m:           {}", acc.b_outside_ln);
    let _ = writeln!(out, "  |A ∩ L_n| = |A|:            {}", acc.a_in_ln);
    let _ = writeln!(out, "  |B ∩ L_n| = |B| − 12^m:     {}", acc.b_in_ln);
    let _ = writeln!(out, "  gap = 12^m − 8^m:           {}", acc.gap);
    let _ = writeln!(
        out,
        "  disc(𝓛) = |A| − |B|:        {}",
        acc.full_family_discrepancy
    );
    let _ = writeln!(out, "  Lemma 19 bound 2^{{3m}}:      {}", acc.lemma19_bound);
    let _ = writeln!(
        out,
        "  Lemma 18 (gap > 2^{{7m/2}}):   {}",
        if acc.lemma18_holds { "holds" } else { "fails" }
    );
    Ok(out)
}

/// `ucfg determinize < grammar.txt` — the KMN CFG → uCFG conversion with
/// accounting.
pub fn cmd_determinize(src: &str) -> Result<String, CliError> {
    let g = parse_grammar(src).map_err(|e| err(e.to_string()))?;
    let d = ucfg_core::kmn::determinize_grammar(&g).map_err(|e| err(format!("{e:?}")))?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# determinized: |G| = {} → |G'| = {}  (|L| = {}, max len {})",
        d.input_size, d.output_size, d.language_size, d.max_word_len
    );
    debug_assert!(decide_unambiguous(&d.ucfg).is_unambiguous());
    out.push_str(&print_grammar(&d.ucfg));
    Ok(out)
}

/// `ucfg serve [--port N] [--host H] [...]` — run the query daemon.
///
/// Blocks until SIGTERM / ctrl-c / `POST /shutdown`, then drains
/// in-flight batches and returns a one-line summary. The metrics layer
/// is always on for the daemon, so the binary writes
/// `out/METRICS_serve.json` (honouring `$UCFG_OUT_DIR`) after the
/// graceful drain. The listening address goes to stderr *before* the
/// accept loop starts so scripts can synchronise on it.
pub fn cmd_serve(a: &Invocation) -> Result<String, CliError> {
    let config = serve_config(a)?;
    let shards = config.shards;
    ucfg_support::obs::set_enabled(true);
    ucfg_serve::Server::install_signal_handlers();
    let server = ucfg_serve::Server::bind(config).map_err(|e| err(format!("bind failed: {e}")))?;
    let addr = server
        .local_addr()
        .map_err(|e| err(format!("no local address: {e}")))?;
    let threads = ucfg_support::par::thread_count();
    eprintln!(
        "ucfg-serve listening on {addr} ({threads} thread{}, {shards} shard{})",
        if threads == 1 { "" } else { "s" },
        if shards == 1 { "" } else { "s" }
    );
    let summary = server
        .run()
        .map_err(|e| err(format!("server error: {e}")))?;
    Ok(format!("served {} requests\n", summary.requests))
}

/// The daemon configuration `ucfg serve`'s flags ask for.
fn serve_config(a: &Invocation) -> Result<ucfg_serve::ServeConfig, CliError> {
    let d = ucfg_serve::ServeConfig::default();
    Ok(ucfg_serve::ServeConfig {
        host: a.value("--host").map_or(d.host, str::to_string),
        port: a.num("--port")?.unwrap_or(d.port),
        queue_depth: a.num("--queue-depth")?.unwrap_or(d.queue_depth),
        deadline_ms: a.num("--deadline-ms")?.unwrap_or(d.deadline_ms),
        cache_capacity: a.num("--cache-capacity")?.unwrap_or(d.cache_capacity),
        max_connections: a.num("--max-connections")?.unwrap_or(d.max_connections),
        shards: a.num("--shards")?.unwrap_or(d.shards),
        max_body_bytes: a.num("--max-body-bytes")?.unwrap_or(d.max_body_bytes),
        request_timeout_ms: a
            .num("--request-timeout-ms")?
            .unwrap_or(d.request_timeout_ms),
        idle_timeout_ms: a.num("--idle-timeout-ms")?.unwrap_or(d.idle_timeout_ms),
    })
}

/// The daemon address and per-response read timeout of `query` and
/// `stream`. The port is required: there is no default, so a stray
/// client can't silently talk to an unrelated local service.
fn daemon(a: &Invocation) -> Result<(String, Duration), CliError> {
    let port: u16 = a
        .num("--port")?
        .ok_or_else(|| err(format!("{} needs --port N", a.name())))?;
    let timeout = a
        .count("--timeout-ms")?
        .map_or(DEFAULT_READ_TIMEOUT, |ms| Duration::from_millis(ms as u64));
    let host = a.value("--host").unwrap_or("127.0.0.1");
    Ok((format!("{host}:{port}"), timeout))
}

fn connect((addr, timeout): &(String, Duration)) -> Result<ucfg_serve::Client, CliError> {
    ucfg_serve::Client::connect_retry_with(addr, Duration::from_secs(10), Some(*timeout))
        .map_err(|e| err(format!("could not connect to {addr}: {e}")))
}

/// Send one request and append its `<status> <body>` line to `out`.
fn send(
    client: &mut ucfg_serve::Client,
    out: &mut String,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> Result<(u16, String), CliError> {
    let r = client
        .request(method, path, body)
        .map_err(|e| err(format!("{path} request failed: {e}")))?;
    let line = r.body.trim_end_matches('\n').to_string();
    let _ = writeln!(out, "{} {line}", r.status);
    Ok((r.status, line))
}

fn read_file(path: &str) -> Result<String, CliError> {
    std::fs::read_to_string(path).map_err(|e| err(format!("could not read {path}: {e}")))
}

/// `ucfg query --port N [--file script.jsonl] [--shutdown]
/// [--timeout-ms N]` — drive a running daemon with a script of JSON
/// lines, read from `--file` or else from `stdin`. `--timeout-ms` bounds
/// each response read (default 30 s) so a wedged daemon fails the
/// script fast.
///
/// Each non-empty, non-`#` line is a JSON object whose `"path"` key
/// routes the request; an optional `"method"` overrides the verb and
/// every *other* key becomes the request body. Lines with no body keys
/// default to `GET`, lines with body keys to `POST` — so
/// `{"path": "/healthz"}` probes and
/// `{"path": "/parse", "grammar": "S -> a", "word": "a"}` parses.
/// The output is one `<status> <body>` line per request, in script
/// order, suitable for byte-comparison across daemon configurations.
pub fn cmd_query(a: &Invocation, stdin: &mut dyn Read) -> Result<String, CliError> {
    let target = daemon(a)?;
    let script = match a.value("--file") {
        Some(path) => read_file(path)?,
        None => read_all(stdin)?,
    };
    let mut client = connect(&target)?;
    let mut out = String::new();
    for (lineno, line) in script.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let v = ucfg_serve::Json::parse(line)
            .map_err(|e| err(format!("script line {}: {e}", lineno + 1)))?;
        let entries = match v {
            ucfg_serve::Json::Obj(entries) => entries,
            _ => return Err(err(format!("script line {}: not an object", lineno + 1))),
        };
        let mut path = None;
        let mut method = None;
        let mut body_entries = Vec::new();
        for (k, val) in entries {
            match (k.as_str(), &val) {
                ("path", ucfg_serve::Json::Str(s)) => path = Some(s.clone()),
                ("method", ucfg_serve::Json::Str(s)) => method = Some(s.clone()),
                ("path" | "method", _) => {
                    return Err(err(format!(
                        "script line {}: {k:?} must be a string",
                        lineno + 1
                    )))
                }
                _ => body_entries.push((k, val)),
            }
        }
        let path =
            path.ok_or_else(|| err(format!("script line {}: missing \"path\"", lineno + 1)))?;
        let body = if body_entries.is_empty() {
            None
        } else {
            Some(ucfg_serve::Json::Obj(body_entries).render())
        };
        let method =
            method.unwrap_or_else(|| if body.is_none() { "GET" } else { "POST" }.to_string());
        send(&mut client, &mut out, &method, &path, body.as_deref())
            .map_err(|e| err(format!("script line {}: {e}", lineno + 1)))?;
    }
    if a.has("--shutdown") {
        send(&mut client, &mut out, "POST", "/shutdown", None)?;
    }
    Ok(out)
}

/// `ucfg stream --port N (--grammar SRC | --builtin NAME --n N)
/// (--file tokens.txt | --text CHARS) [--window W] [--regex R]
/// [--name S] [--chunk N] [--timeout-ms N] [--shutdown]` — drive a
/// running daemon's streaming endpoints: open a session, feed the
/// token stream in `--chunk`-character slices, query the final window,
/// and close. Whitespace in the token source is ignored, so files can
/// be line-wrapped.
///
/// The output is one `<status> <body>` line per request, in order
/// (open, each feed, query, close), suitable for byte-comparison
/// across daemon thread counts and shard layouts.
pub fn cmd_stream(a: &Invocation) -> Result<String, CliError> {
    use ucfg_serve::Json;
    let target = daemon(a)?;
    let n: Option<u64> = a.num("--n")?;
    let mut open = match (a.value("--grammar"), a.value("--builtin")) {
        (Some(g), None) => vec![("grammar", Json::str(g))],
        (None, Some(b)) => {
            let n = n.ok_or_else(|| err("--builtin needs --n N"))?;
            vec![("builtin", Json::str(b)), ("n", Json::Int(n as i64))]
        }
        (Some(_), Some(_)) => return Err(err("give --grammar or --builtin, not both")),
        (None, None) => return Err(err("stream needs --grammar SRC or --builtin NAME --n N")),
    };
    let window = a.count("--window")?.unwrap_or(64);
    open.push(("window", Json::Int(window as i64)));
    if let Some(r) = a.value("--regex") {
        open.push(("regex", Json::str(r)));
    }
    open.push(("name", Json::str(a.value("--name").unwrap_or_default())));
    let tokens: Vec<char> = match (a.value("--file"), a.value("--text")) {
        (Some(path), None) => read_file(path)?,
        (None, Some(text)) => text.to_string(),
        (Some(_), Some(_)) => return Err(err("give --file or --text, not both")),
        (None, None) => return Err(err("stream needs --file tokens.txt or --text CHARS")),
    }
    .chars()
    .filter(|c| !c.is_whitespace())
    .collect();
    let chunk = a.count("--chunk")?.unwrap_or(16);
    let mut client = connect(&target)?;

    let mut out = String::new();
    let open = Json::obj(open).render();
    let (status, body) = send(&mut client, &mut out, "POST", "/stream/open", Some(&open))?;
    if status != 200 {
        return Err(err(format!("open failed: {status} {body}")));
    }
    let session = Json::parse(&body)
        .ok()
        .and_then(|v| v.get("session").and_then(Json::as_str).map(str::to_string))
        .ok_or_else(|| err(format!("open response has no session id: {body}")))?;

    for slice in tokens.chunks(chunk) {
        let feed = Json::obj(vec![
            ("session", Json::str(&session)),
            ("tokens", Json::str(slice.iter().collect::<String>())),
        ])
        .render();
        let (status, body) = send(&mut client, &mut out, "POST", "/stream/feed", Some(&feed))?;
        if status != 200 {
            return Err(err(format!("feed failed: {status} {body}")));
        }
    }

    let sess = Json::obj(vec![("session", Json::str(session))]).render();
    send(&mut client, &mut out, "POST", "/stream/query", Some(&sess))?;
    send(&mut client, &mut out, "POST", "/stream/close", Some(&sess))?;
    if a.has("--shutdown") {
        send(&mut client, &mut out, "POST", "/shutdown", None)?;
    }
    Ok(out)
}

/// `ucfg orchestrate [--smoke] [--check] [--write-baseline] …` — run the
/// experiment matrix as a cached job graph; see
/// [`ucfg_bench::orchestrate`].
///
/// Exits nonzero (via `Err`) when a job fails or — under `--check` — a
/// baseline comparison regresses.
pub fn cmd_orchestrate(a: &Invocation) -> Result<String, CliError> {
    if a.has("--filter") && !a.args.is_empty() {
        return Err(a.misuse());
    }
    let max_ratio = a.num::<f64>("--tolerance")?;
    if let Some(r) = max_ratio.filter(|r| r.is_nan() || *r < 1.0) {
        return Err(err(format!("--tolerance must be ≥ 1.0, got {r}")));
    }
    let floor_ns = a.num::<f64>("--floor-ns")?;
    if let Some(f) = floor_ns.filter(|f| f.is_nan() || *f < 0.0) {
        return Err(err(format!("--floor-ns must be ≥ 0, got {f}")));
    }
    let cfg = ucfg_bench::orchestrate::Config {
        smoke: a.has("--smoke"),
        check: a.has("--check"),
        write_baseline: a.has("--write-baseline"),
        baseline_path: a.value("--baseline").map(PathBuf::from),
        out_dir: a.value("--out-dir").map(PathBuf::from),
        cache_dir: a.value("--cache-dir").map(PathBuf::from),
        refresh: a.has("--refresh"),
        max_ratio,
        floor_ns,
        filter: a
            .value("--filter")
            .or(a.args.first().map(String::as_str))
            .map(str::to_string),
        list: a.has("--list"),
    };
    let outcome = ucfg_bench::orchestrate::run(&cfg).map_err(err)?;
    if outcome.is_failure() {
        return Err(err(format!(
            "{}orchestrate failed: {} regression(s), {} failed job(s)",
            outcome.summary, outcome.regressions, outcome.failed_jobs
        )));
    }
    Ok(outcome.summary)
}

/// Write `body` to `file` in the output directory (`$UCFG_OUT_DIR`, else
/// `out/`) and name it on stderr; a failed write is only a warning.
fn write_out(file: &str, body: &str, what: &str) {
    let dir = ucfg_support::bench::out_dir();
    let path = dir.join(file);
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, body)) {
        Ok(()) => eprintln!("{what} written to {}", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}

/// `ucfg report [ids | --list]` — the experiment report: every table and
/// figure of DESIGN.md §5, also written to `out/report_output.txt`, or
/// only the experiments named (stdout only).
pub fn cmd_report(a: &Invocation) -> Result<String, CliError> {
    use ucfg_bench::experiments;
    if a.has("--list") {
        let mut out = "available experiments (see DESIGN.md §5):\n".to_string();
        for id in experiments::ALL_EXPERIMENTS {
            let _ = writeln!(out, "  {id}");
        }
        return Ok(out);
    }
    if !a.args.is_empty() {
        return Ok(a.args.iter().map(|id| experiments::run(id)).collect());
    }
    let report = experiments::full_report();
    write_out("report_output.txt", &report, "report");
    Ok(report)
}

/// `ucfg sweep [max_n] [--kernels]` — the Theorem 1 separation over a
/// dense `n`-sweep as CSV (default `max_n` 256), also written to
/// `out/separation_sweep.csv`; with `--kernels`, the bitmap-kernel sweep
/// (default `max_n` 16) to `out/kernel_sweep.csv`. See
/// [`ucfg_bench::sweep`] for the columns. The CSV is byte-identical for
/// every thread count.
pub fn cmd_sweep(a: &Invocation) -> Result<String, CliError> {
    let mut max_n = None;
    for arg in &a.args {
        max_n = Some(
            arg.parse()
                .map_err(|_| err(format!("unrecognised argument '{arg}'")))?,
        );
    }
    let threads = ucfg_support::par::thread_count();
    let (csv, file) = if a.has("--kernels") {
        // The exhaustive columns cap themselves (NA above their
        // thresholds), so the default ceiling just bounds the cheap ones.
        let csv = ucfg_bench::sweep::kernel_sweep_csv(max_n.unwrap_or(16), threads);
        (csv, "kernel_sweep.csv")
    } else {
        let csv = ucfg_bench::sweep::sweep_csv(max_n.unwrap_or(256), threads);
        (csv, "separation_sweep.csv")
    };
    write_out(file, &csv, "sweep");
    Ok(csv)
}

/// The suites `ucfg bench` selects and the harness options: a positional
/// that names a suite selects it, any other is the benchmark-id filter.
fn bench_plan(a: &Invocation) -> Result<(Vec<&'static str>, Options), CliError> {
    let mut selected = Vec::new();
    let mut filter = None;
    for arg in &a.args {
        match ALL_SUITES.iter().find(|s| *s == arg) {
            Some(name) => selected.push(*name),
            None => filter = Some(arg.clone()),
        }
    }
    if a.has("--all") {
        selected = ALL_SUITES.to_vec();
    }
    let d = Options::default();
    let opts = Options {
        smoke: a.has("--smoke"),
        list: a.has("--list"),
        samples: a.num("--samples")?.unwrap_or(d.samples),
        warmup_ms: a.num("--warmup-ms")?.unwrap_or(d.warmup_ms),
        filter,
        out_dir: a.value("--out-dir").map_or(d.out_dir, PathBuf::from),
    };
    Ok((selected, opts))
}

/// `ucfg bench (--list | --all | <suite>…) [--smoke] [--samples N]
/// [--warmup-ms N] [--out-dir P] [filter]` — run bench suites in one
/// process, each writing `BENCH_<suite>.json`. `--list` alone prints the
/// suite registry, one name per line (CI reads it, so scripts never
/// hardcode suites); with a selection it lists the selected suites'
/// benchmark ids. A run in which a suite records nothing (a filter that
/// matches no id) is an error.
pub fn cmd_bench(a: &Invocation) -> Result<String, CliError> {
    let (selected, opts) = bench_plan(a)?;
    if selected.is_empty() {
        if opts.list {
            return Ok(ALL_SUITES.iter().map(|s| format!("{s}\n")).collect());
        }
        return Err(err(format!(
            "no suite selected (give --list, --all or a suite: {})",
            ALL_SUITES.join(" ")
        )));
    }
    let mut empty = Vec::new();
    for name in selected {
        // The harness prints as it runs, so the banner must too.
        println!("=== suite {name} ===");
        let suite = ucfg_bench::suites::build(name, opts.clone()).expect("a registered suite");
        if !suite.is_list() && suite.is_empty() {
            empty.push(name);
        }
        suite.finish();
    }
    if !empty.is_empty() {
        return Err(err(format!(
            "no measurement rows from suite(s): {} (filter matched nothing?)",
            empty.join(" ")
        )));
    }
    Ok(String::new())
}

fn read_all(stdin: &mut dyn Read) -> Result<String, CliError> {
    let mut buf = String::new();
    stdin
        .read_to_string(&mut buf)
        .map_err(|e| err(format!("could not read stdin: {e}")))?;
    Ok(buf)
}

/// Run a parsed command line: apply the global flags, then run the
/// command. Only `check`, `determinize` and a `query` without `--file`
/// read `stdin`, so no other command blocks on it.
///
/// `--threads N` (any spelling) overrides `UCFG_THREADS` through
/// [`ucfg_support::par::set_thread_count`], so every parallel kernel
/// downstream picks the count up from
/// [`ucfg_support::par::thread_count`]. `--trace` switches the
/// [`ucfg_support::obs`] metrics layer on. `--chunk-bits N` sets
/// `UCFG_WORDSET_CHUNK` through
/// [`ucfg_core::wordset::chunked::set_chunk_bits`], so the wordset
/// kernels stream in `N`-bit chunks even below the materialisation cap.
pub fn run(a: &Invocation, stdin: &mut dyn Read) -> Result<String, CliError> {
    use ucfg_core::wordset::chunked;
    if a.has("--trace") {
        ucfg_support::obs::set_enabled(true);
    }
    if let Some(v) = a.value("--threads") {
        ucfg_support::par::set_thread_count(ucfg_support::par::parse_threads(v).map_err(err)?);
    }
    if let Some(v) = a.value("--chunk-bits") {
        chunked::set_chunk_bits(chunked::parse_chunk_bits(v).map_err(err)?);
    }
    match (a.name(), &a.args[..]) {
        ("ucfg", _) => Ok(usage()),
        ("member", [n, word]) => cmd_member(n, word),
        ("count", [n]) => cmd_count(n),
        ("sizes", [n]) => cmd_sizes(n),
        ("grammar", [which, n]) => cmd_grammar(which, n),
        ("check", []) => cmd_check(&read_all(stdin)?),
        ("determinize", []) => cmd_determinize(&read_all(stdin)?),
        ("extract", [n]) => cmd_extract(n),
        ("rank", [n]) => cmd_rank(n),
        ("cover", [n]) => cmd_cover(n),
        ("discrepancy", [n]) => cmd_discrepancy(n),
        ("accounting", [m]) => cmd_accounting(m),
        ("serve", []) => cmd_serve(a),
        ("query", []) => cmd_query(a, stdin),
        ("stream", []) => cmd_stream(a),
        ("orchestrate", [] | [_]) => cmd_orchestrate(a),
        ("report", _) => cmd_report(a),
        ("sweep", _) => cmd_sweep(a),
        ("bench", _) => cmd_bench(a),
        _ => Err(a.misuse()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    /// What `main` does with a command line and a stdin.
    fn ucfg(args: &[&str], stdin: &str) -> Result<String, CliError> {
        run(&parse(&argv(args))?, &mut stdin.as_bytes())
    }

    /// Tests that set `UCFG_THREADS` or `UCFG_WORDSET_CHUNK` through the
    /// global flags must not interleave under the parallel test runner.
    fn env_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn member_command() {
        let out = cmd_member("2", "abab").unwrap();
        assert!(out.contains("true"));
        let out = cmd_member("2", "abba").unwrap();
        assert!(out.contains("false"));
        assert!(cmd_member("2", "ab").is_err());
        assert!(cmd_member("0", "").is_err());
        assert!(cmd_member("x", "").is_err());
    }

    #[test]
    fn count_command() {
        assert!(cmd_count("3").unwrap().contains("37"));
    }

    #[test]
    fn grammar_command() {
        let out = cmd_grammar("appendix-a", "4").unwrap();
        assert!(out.contains("size"));
        assert!(cmd_grammar("example4", "11").is_err());
        assert!(cmd_grammar("nope", "3").is_err());
        // Printed grammars re-parse.
        let body: String = out
            .lines()
            .filter(|l| !l.starts_with('#'))
            .collect::<Vec<_>>()
            .join("\n");
        assert!(ucfg_grammar::text::parse_grammar(&body).is_ok());
    }

    #[test]
    fn sizes_command() {
        let out = cmd_sizes("8").unwrap();
        assert!(out.contains("CFG"));
        assert!(out.contains("uCFG"));
    }

    #[test]
    fn check_command() {
        let out = cmd_check("S -> A A\nA -> a | b\n").unwrap();
        assert!(out.contains("unambiguous ✓"), "{out}");
        assert!(out.contains("no lints"), "{out}");
        let out = cmd_check("S -> A B | B A\nA -> a\nB -> a\n").unwrap();
        assert!(out.contains("AMBIGUOUS"), "{out}");
        assert!(cmd_check("garbage").is_err());
        // Lints fire on sloppy grammars.
        let out = cmd_check("S -> a | a\nDead -> Dead a\n").unwrap();
        assert!(out.contains("warning:"), "{out}");
    }

    #[test]
    fn determinize_command() {
        // An ambiguous grammar becomes unambiguous with the same language.
        let src = "S -> A B | B A\nA -> a\nB -> a\n";
        let out = cmd_determinize(src).unwrap();
        assert!(out.contains("determinized"), "{out}");
        let body: String = out
            .lines()
            .filter(|l| !l.starts_with('#'))
            .collect::<Vec<_>>()
            .join("\n");
        let g = ucfg_grammar::text::parse_grammar(&body).unwrap();
        assert!(decide_unambiguous(&g).is_unambiguous());
        assert_eq!(finite_language(&g).unwrap().len(), 1); // {aa}
                                                           // Infinite language rejected.
        assert!(cmd_determinize("S -> a S | a").is_err());
    }

    #[test]
    fn extract_command() {
        let out = cmd_extract("2").unwrap();
        assert!(out.contains("disjoint: true"), "{out}");
        assert!(cmd_extract("9").is_err());
    }

    #[test]
    fn rank_command() {
        let out = cmd_rank("4").unwrap();
        assert!(out.contains("GF(2):           15"), "{out}");
        assert!(out.contains("GF(2^61 − 1):    15"), "{out}");
        assert!(out.contains("≥ 15 rectangles"), "{out}");
        // Past the elimination ceiling only the streamed census runs:
        // ones = 4^11 − 3^11 with the census source named in the banner.
        let out = cmd_rank("11").unwrap();
        assert!(out.contains("elimination needs n ≤ 10"), "{out}");
        assert!(out.contains("matrix ones (4^n − 3^n):   4017157"), "{out}");
        assert!(cmd_rank("19").is_err());
        assert!(cmd_rank("0").is_err());
    }

    #[test]
    fn cover_command() {
        let out = cmd_cover("4").unwrap();
        assert!(out.contains("rectangles:     4"), "{out}");
        assert!(out.contains("covers exactly: true"), "{out}");
        assert!(out.contains("all balanced:   true"), "{out}");
        assert!(out.contains("max overlap:    4"), "{out}");
        // |L_4| = 4^4 − 3^4 = 175, and the union equals it.
        assert_eq!(out.matches("count 175").count(), 2, "{out}");
        assert!(cmd_cover("19").is_err());
        assert!(cmd_cover("0").is_err());
    }

    #[test]
    fn discrepancy_command() {
        // n = 8 (m = 2): disc(𝓛) = −2^6 = −64, streamed = ledger.
        let out = cmd_discrepancy("8").unwrap();
        assert!(out.contains("disc(𝓛) = |𝓛∩A| − |𝓛∩B|:   -64"), "{out}");
        assert!(out.contains("exact ledger −2^{3m}:       -64"), "{out}");
        assert!(out.contains("streamed = exact:           true"), "{out}");
        assert!(cmd_discrepancy("6").is_err(), "n ≢ 0 mod 4");
        assert!(cmd_discrepancy("36").is_err(), "past the scan ceiling");
    }

    #[test]
    fn accounting_command() {
        // m = 2 (n = 8): enumeration-checkable numbers.
        let out = cmd_accounting("2").unwrap();
        assert!(out.contains("|𝓛| = 16^m:                 256"), "{out}");
        assert!(out.contains("gap = 12^m − 8^m:           80"), "{out}");
        assert!(out.contains("disc(𝓛) = |A| − |B|:        -64"), "{out}");
        // m = 8 (n = 32): past every enumeration/materialisation cap.
        let out = cmd_accounting("8").unwrap();
        assert!(out.contains("4294967296"), "16^8: {out}"); // |𝓛| = 2^32
        assert!(out.contains("-16777216"), "−2^24: {out}");
        assert!(out.contains("holds"), "{out}");
        assert!(cmd_accounting("0").is_err());
        assert!(cmd_accounting("1025").is_err());
        assert!(cmd_accounting("x").is_err());
    }

    #[test]
    fn global_flags_parse_anywhere() {
        // The four thread spellings, before, after and inside the command.
        for form in [
            &["--threads", "3", "count", "2"][..],
            &["-j", "3", "count", "2"],
            &["--threads=3", "count", "2"],
            &["-j3", "count", "2"],
            &["count", "2", "-j", "3"],
            &["count", "--threads=3", "2"],
        ] {
            let a = parse(&argv(form)).expect("valid spelling");
            assert_eq!(
                (a.name(), &a.args[..]),
                ("count", &argv(&["2"])[..]),
                "{form:?}"
            );
            assert_eq!(a.value("--threads"), Some("3"), "{form:?}");
        }
        // Later flags win; positionals keep their order.
        let a = parse(&argv(&["member", "-j2", "2", "--threads=5", "abab"])).unwrap();
        assert_eq!(a.args, argv(&["2", "abab"]));
        assert_eq!(a.value("--threads"), Some("5"));
        for form in [
            &["--chunk-bits", "1024", "cover", "4"][..],
            &["cover", "--chunk-bits=1024", "4"],
        ] {
            let a = parse(&argv(form)).expect("valid spelling");
            assert_eq!(a.value("--chunk-bits"), Some("1024"), "{form:?}");
            assert_eq!(a.args, argv(&["4"]), "{form:?}");
        }
        for form in [
            &["--trace", "count", "2"][..],
            &["count", "--trace", "2"],
            &["count", "2", "--trace"],
        ] {
            let a = parse(&argv(form)).expect("valid spelling");
            assert!(a.has("--trace"), "{form:?}");
            assert_eq!(a.args, argv(&["2"]), "{form:?}");
        }
        // A value that looks like a global flag is taken verbatim.
        let a = parse(&argv(&["stream", "--port", "1", "--name", "-j2"])).unwrap();
        assert_eq!(a.value("--name"), Some("-j2"));
        assert_eq!(a.value("--threads"), None);
        // Missing values and unknown flags are errors, in every position.
        for bad in [
            &["--threads"][..],
            &["-j"],
            &["count", "2", "--chunk-bits"],
            &["count", "--bogus", "2"],
            &["--bogus", "count", "2"],
            &["count", "2", "--trace=1"],
            &["report", "-lx"],
            &["serve", "--port"],
            &["serve", "--chunk", "4"],
        ] {
            assert!(parse(&argv(bad)).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn chunk_flag_round_trips_to_the_wordset_layer() {
        let _env = env_lock();
        // Both spellings land in UCFG_WORDSET_CHUNK.
        for form in [&["--chunk-bits", "1024"][..], &["--chunk-bits=1024"]] {
            ucfg(form, "").expect("valid spelling");
            let chunk = std::env::var(ucfg_core::wordset::chunked::CHUNK_ENV);
            assert_eq!(chunk.as_deref(), Ok("1024"), "{form:?}");
            std::env::remove_var(ucfg_core::wordset::chunked::CHUNK_ENV);
        }
        // --chunk-bits must force the chunked path below the cap, and
        // every line after the source banner must be byte-identical to
        // the in-memory pass — the invariant CI's determinism job pins.
        let chunked = ucfg(&["--chunk-bits=1024", "cover", "4"], "").unwrap();
        assert!(chunked.contains("chunked"), "{chunked}");
        std::env::remove_var(ucfg_core::wordset::chunked::CHUNK_ENV);
        let inmem = ucfg(&["cover", "4"], "").unwrap();
        assert!(inmem.contains("in-memory"), "{inmem}");
        let tail = |s: &str| s.lines().skip(1).collect::<Vec<_>>().join("\n");
        assert_eq!(tail(&chunked), tail(&inmem));
        // Malformed sizes are hard errors in both spellings, and must
        // not leave an override behind.
        for bad in [
            &["--chunk-bits"][..],
            &["--chunk-bits", "0"],
            &["--chunk-bits", "100"],
            &["--chunk-bits", "banana"],
            &["--chunk-bits=banana"],
            &["--chunk-bits=63", "count", "2"],
            &["--chunk-bits=0"],
        ] {
            assert!(ucfg(bad, "").is_err(), "accepted {bad:?}");
        }
        assert!(std::env::var(ucfg_core::wordset::chunked::CHUNK_ENV).is_err());
    }

    #[test]
    fn threads_flag_round_trips_to_the_par_layer() {
        let _env = env_lock();
        // Every spelling must land in ucfg_support::par::thread_count for
        // every kernel the command runs.
        for (form, threads) in [
            (&["--threads", "3", "count", "2"][..], 3),
            (&["--threads=5", "count", "2"], 5),
            (&["-j4", "count", "2"], 4),
            (&["count", "2", "-j", "6"], 6),
        ] {
            assert!(ucfg(form, "").unwrap().contains('7'), "{form:?}");
            assert_eq!(ucfg_support::par::thread_count(), threads, "{form:?}");
        }
        // The short form, with no command → usage.
        assert!(ucfg(&["-j", "2"], "").unwrap().contains("usage"));
        assert_eq!(ucfg_support::par::thread_count(), 2);
        // Malformed values are rejected, in every spelling.
        for bad in [
            &["--threads"][..],
            &["-j"],
            &["--threads", "0"],
            &["--threads", "x"],
            &["--threads=0"],
            &["--threads=x"],
            &["--threads=banana"],
            &["-j0"],
            &["-jx"],
        ] {
            assert!(ucfg(bad, "").is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn stdin_is_read_after_global_flags() {
        let _env = env_lock();
        let grammar = "S -> A A\nA -> a | b\n";
        for form in [&["-j", "2", "check"][..], &["check", "--threads=2"]] {
            let out = ucfg(form, grammar).unwrap();
            assert!(out.contains("unambiguous ✓"), "{form:?}: {out}");
        }
        for form in [&["-j2", "determinize"][..], &["determinize", "-j", "2"]] {
            let out = ucfg(form, grammar).unwrap();
            assert!(out.contains("determinized"), "{form:?}: {out}");
        }
    }

    #[test]
    fn bench_flags_parse_and_reject() {
        let plan = |args: &[&str]| bench_plan(&parse(&argv(args))?);
        let (suites, o) = plan(&["bench", "parsing", "--smoke", "--samples", "7", "cyk"]).unwrap();
        assert_eq!(suites, ["parsing"]);
        assert!(o.smoke);
        assert_eq!(o.samples, 7);
        assert_eq!(o.filter.as_deref(), Some("cyk"));
        let (suites, o) = plan(&["bench", "--all", "--warmup-ms", "5", "--out-dir", "/x"]).unwrap();
        assert_eq!(suites, ALL_SUITES);
        assert!(!o.smoke && !o.list);
        assert_eq!(o.warmup_ms, 5);
        assert_eq!(o.out_dir, PathBuf::from("/x"));
        for bad in [
            &["--smok"][..],
            &["--bench"],
            &["--samples", "many"],
            &["--samples", "-3"],
            &["--warmup-ms", "1.5"],
            &["--samples"],
            &["--out-dir"],
        ] {
            assert!(
                plan(&[&["bench", "parsing"], bad].concat()).is_err(),
                "accepted {bad:?}"
            );
        }
        // Nothing selected: --list prints the registry, else an error.
        let list = ucfg(&["bench", "--list"], "").unwrap();
        assert_eq!(list.lines().collect::<Vec<_>>(), ALL_SUITES);
        assert!(ucfg(&["bench", "--smoke"], "").is_err());
    }

    #[test]
    fn report_and_sweep_arguments() {
        for form in [&["report", "--list"][..], &["report", "-l"]] {
            let out = ucfg(form, "").unwrap();
            assert!(out.starts_with("available experiments"), "{out}");
            assert!(out.contains("  T24\n"), "{out}");
        }
        assert!(ucfg(&["report", "F1"], "").unwrap().contains("=== F1"));
        for bad in [
            &["sweep", "x"][..],
            &["sweep", "-5"],
            &["sweep", "--kernel"],
        ] {
            assert!(ucfg(bad, "").is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn serve_flags_parse_and_reject() {
        let config = |args: &[&str]| serve_config(&parse(&argv(args))?);
        let d = config(&["serve"]).unwrap();
        assert_eq!(d.port, 7878);
        assert_eq!(d.host, "127.0.0.1");
        assert_eq!(d.shards, 1);
        assert_eq!(d.max_body_bytes, 4 << 20);
        assert_eq!(d.request_timeout_ms, 10_000);
        assert_eq!(d.idle_timeout_ms, 60_000);
        let a = config(&[
            "serve",
            "--port",
            "9000",
            "--host=0.0.0.0",
            "--queue-depth",
            "8",
            "--deadline-ms=250",
            "--cache-capacity",
            "4",
            "--max-connections=2",
            "--shards=4",
            "--max-body-bytes",
            "1024",
            "--request-timeout-ms=500",
            "--idle-timeout-ms=2000",
        ])
        .unwrap();
        let want = ucfg_serve::ServeConfig {
            host: "0.0.0.0".into(),
            port: 9000,
            queue_depth: 8,
            deadline_ms: 250,
            cache_capacity: 4,
            max_connections: 2,
            shards: 4,
            max_body_bytes: 1024,
            request_timeout_ms: 500,
            idle_timeout_ms: 2000,
        };
        assert_eq!(format!("{a:?}"), format!("{want:?}"));
        // Malformed ports are hard errors, in both flag spellings.
        for bad in ["x", "-1", "65536", "70000", "1.5", ""] {
            assert!(config(&["serve", "--port", bad]).is_err(), "--port {bad}");
            assert!(
                config(&["serve", &format!("--port={bad}")]).is_err(),
                "--port={bad}"
            );
        }
        for bad in [
            &["--port"][..],
            &["--bogus"],
            &["--queue-depth", "x"],
            &["--shards", "x"],
            &["--max-body-bytes=huge"],
            &["--request-timeout-ms"],
            &["--idle-timeout-ms=x"],
        ] {
            assert!(
                config(&[&["serve"], bad].concat()).is_err(),
                "accepted {bad:?}"
            );
        }
        // The daemon takes no positional arguments.
        assert!(ucfg(&["serve", "extra"], "").is_err());
    }

    #[test]
    fn query_flags_parse_and_reject() {
        let target = |args: &[&str]| daemon(&parse(&argv(args))?);
        let (addr, timeout) = target(&["query", "--port", "7878"]).unwrap();
        assert_eq!(addr, "127.0.0.1:7878");
        assert_eq!(timeout, DEFAULT_READ_TIMEOUT);
        let args = argv(&[
            "query",
            "--port=1234",
            "--host",
            "localhost",
            "--file",
            "s.jsonl",
            "--shutdown",
            "--timeout-ms=2500",
        ]);
        let a = parse(&args).unwrap();
        assert_eq!(
            daemon(&a).unwrap(),
            ("localhost:1234".into(), Duration::from_millis(2500))
        );
        assert_eq!(a.value("--file"), Some("s.jsonl"));
        assert!(a.has("--shutdown"));
        // Port is mandatory and malformed ports are hard errors.
        assert!(target(&["query"]).is_err());
        assert!(target(&["query", "--port", "no"]).is_err());
        assert!(target(&["query", "--port=99999"]).is_err());
        assert!(target(&["query", "--wat"]).is_err());
        assert!(target(&["query", "--port=1", "--timeout-ms=0"]).is_err());
        assert!(target(&["query", "--port=1", "--timeout-ms=x"]).is_err());
    }

    #[test]
    fn query_drives_a_live_daemon() {
        // A real daemon on an ephemeral loopback port, driven through
        // the same code path as `ucfg query` with a stdin script.
        let server = ucfg_serve::Server::bind(ucfg_serve::ServeConfig {
            port: 0,
            ..ucfg_serve::ServeConfig::default()
        })
        .expect("bind");
        let port = server.local_addr().expect("addr").port().to_string();
        let join = std::thread::spawn(move || server.run().expect("run"));

        // Script errors are reported with line numbers.
        let bad = ucfg(&["query", "--port", &port], "not json\n").unwrap_err();
        assert!(bad.to_string().contains("line 1"), "{bad}");
        let bad = ucfg(&["query", "--port", &port], "{\"method\": \"GET\"}\n").unwrap_err();
        assert!(bad.to_string().contains("missing \"path\""), "{bad}");

        // The script comes from stdin with a global flag before or after
        // the command.
        {
            let _env = env_lock();
            for form in [
                &["-j", "1", "query", "--port", &port][..],
                &["query", "--port", &port, "-j1"],
            ] {
                let out = ucfg(form, "{\"path\": \"/healthz\"}\n").unwrap();
                assert!(out.starts_with("200 {"), "{form:?}: {out}");
            }
        }

        let script = "# probe, parse twice (second hits the cache), then stop\n\
                      {\"path\": \"/healthz\"}\n\
                      {\"path\": \"/parse\", \"grammar\": \"S -> a S b S | ()\", \"word\": \"ab\"}\n\
                      {\"path\": \"/parse\", \"grammar\": \"S -> a S b S | ()\", \"word\": \"ab\"}\n";
        let out = ucfg(&["query", "--port", &port, "--shutdown"], script).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 4, "{out}");
        assert!(lines[0].starts_with("200 "), "{out}");
        assert!(lines[1].contains("\"member\":true"), "{out}");
        assert!(lines[1].contains("\"cache\":\"miss\""), "{out}");
        assert_eq!(
            lines[2],
            lines[1].replace("\"cache\":\"miss\"", "\"cache\":\"hit\""),
            "warm repeat identical apart from the cache tag"
        );
        assert!(lines[3].contains("draining"), "{out}");
        join.join().expect("clean join");
    }

    #[test]
    fn stream_flags_reject_before_connecting() {
        // Port, grammar source, and token source are all mandatory;
        // conflicting sources and empty windows are hard errors. All of
        // these fail before any connection attempt.
        for bad in [
            &["stream"][..],
            &["stream", "--port=1", "--text=a"],
            &["stream", "--port=1", "--grammar=S -> a"],
            &[
                "stream",
                "--port=1",
                "--grammar=S -> a",
                "--builtin=example3",
                "--n=2",
                "--text=a",
            ],
            &["stream", "--port=1", "--builtin=example3", "--text=a"],
            &[
                "stream",
                "--port=1",
                "--grammar=S -> a",
                "--text=a",
                "--file=f",
            ],
            &[
                "stream",
                "--port=1",
                "--grammar=S -> a",
                "--text=a",
                "--window=0",
            ],
            &[
                "stream",
                "--port=1",
                "--grammar=S -> a",
                "--text=a",
                "--chunk=0",
            ],
        ] {
            assert!(ucfg(bad, "").is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn stream_drives_a_live_daemon() {
        let server = ucfg_serve::Server::bind(ucfg_serve::ServeConfig {
            port: 0,
            shards: 2,
            ..ucfg_serve::ServeConfig::default()
        })
        .expect("bind");
        let port = server.local_addr().expect("addr").port().to_string();
        let join = std::thread::spawn(move || server.run().expect("run"));

        let out = ucfg(
            &[
                "stream",
                "--port",
                &port,
                "--grammar",
                "S -> a S b | a b",
                "--window=8",
                "--regex",
                "a(a|b)*b",
                "--text",
                "aaaa bbbb",
                "--chunk=3",
                "--shutdown",
            ],
            "",
        )
        .unwrap();
        let lines: Vec<&str> = out.lines().collect();
        // open + 3 feed chunks (8 chars / 3) + query + close + shutdown.
        assert_eq!(lines.len(), 7, "{out}");
        assert!(lines[0].starts_with("200 "), "{out}");
        assert!(lines[0].contains("\"session\""), "{out}");
        // `--window=8` sets the capacity (the default is 64) and
        // `--regex` reaches the session: the open reply carries the
        // regex DFA and the query reports the product.
        assert!(lines[0].contains("\"window\":8,"), "{out}");
        assert!(lines[0].contains("\"dfa_states\":3"), "{out}");
        assert!(lines[3].contains("\"member\":true"), "{out}");
        assert!(lines[4].contains("\"window\":\"aaaabbbb\""), "{out}");
        assert!(lines[4].contains("\"count\":\"1\""), "{out}");
        assert!(
            lines[4].contains("\"product\":{\"nonempty\":true,\"matches\":1}"),
            "{out}"
        );
        assert!(lines[5].contains("\"closed\":true"), "{out}");
        assert!(lines[6].contains("draining"), "{out}");
        join.join().expect("clean join");
    }

    #[test]
    fn dispatch_routes() {
        assert!(ucfg(&["count", "2"], "").unwrap().contains('7'));
        assert!(ucfg(&[], "").unwrap().contains("usage"));
        assert!(ucfg(&["bogus"], "").is_err());
        assert!(ucfg(&["count"], "").is_err());
        assert!(ucfg(&["count", "2", "3"], "").is_err());
        assert!(ucfg(&["orchestrate", "a", "b"], "").is_err());
        assert!(ucfg(&["orchestrate", "--filter", "a", "b"], "").is_err());
        let checked = ucfg(&["check"], "S -> a\n").unwrap();
        assert!(checked.contains("1 words"));
    }
}
