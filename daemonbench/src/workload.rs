//! The four workloads: seeded request pools, the set-up traffic each
//! daemon receives before timing starts, and the order the closed loop
//! walks the pool in (repeated). `README.md` says why each exists.

use crate::wire::frame;
use std::collections::HashSet;
use ucfg_core::ln_grammars::appendix_a_grammar;
use ucfg_grammar::sample::TreeSampler;
use ucfg_grammar::text::parse_grammar;
use ucfg_grammar::{CnfGrammar, Grammar};
use ucfg_serve::Json;
use ucfg_support::fnv::Fnv1a;
use ucfg_support::rng::{Rng, SeedableRng, StdRng};

pub const NAMES: &str = "parse_warm | parse_cold | stream_feed | certify";

/// One request: its path, JSON body and complete frame.
#[derive(Clone)]
pub struct Request {
    pub path: &'static str,
    pub body: String,
    pub frame: Vec<u8>,
}

impl Request {
    fn post(path: &'static str, body: Json) -> Request {
        let body = body.render();
        let frame = frame("POST", path, &body);
        Request { path, body, frame }
    }
}

/// What an op asks, for the oracle and the replay.
pub enum Ask {
    /// `/parse` of `word` against `grammars[grammar]`.
    Parse { grammar: usize, word: String },
    /// Feeds of `tokens` into `sessions[session]`, then one query.
    Stream { session: usize, tokens: String },
    /// `CERTIFICATE[i]` for each `i` of `order`.
    Certify { order: Vec<usize> },
}

/// One op: requests sent back to back on the connection, timed as one.
pub struct Input {
    pub requests: Vec<Request>,
    pub ask: Ask,
}

/// A `/stream` session, opened and pre-filled during set-up.
pub struct Session {
    pub grammar: usize,
    pub regex: &'static str,
    pub name: String,
    pub prefill: String,
}

pub struct Workload {
    pub name: &'static str,
    pub grammars: Vec<Grammar>,
    pub sessions: Vec<Session>,
    pub setup: Vec<Request>,
    pub inputs: Vec<Input>,
    pub schedule: Vec<usize>,
}

impl Workload {
    pub fn build(name: &str, seed: u64) -> Result<Workload, String> {
        let mut rng = StdRng::seed_from_u64(seed);
        match name {
            "parse_warm" => Ok(parse_warm(&mut rng)),
            "parse_cold" => Ok(parse_cold(&mut rng)),
            "stream_feed" => Ok(stream_feed(&mut rng)),
            "certify" => Ok(certify(&mut rng)),
            other => Err(format!("unknown workload {other:?} ({NAMES})")),
        }
    }

    fn empty(name: &'static str) -> Workload {
        Workload {
            name,
            grammars: Vec::new(),
            sessions: Vec::new(),
            setup: Vec::new(),
            inputs: Vec::new(),
            schedule: Vec::new(),
        }
    }

    /// FNV-1a over the set-up traffic and every frame of the schedule:
    /// two runs with one seed send identical traffic iff their digests
    /// agree.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv1a::new();
        for r in &self.setup {
            h.write(&r.frame);
        }
        for &i in &self.schedule {
            for r in &self.inputs[i].requests {
                h.write(&r.frame);
            }
        }
        h.finish()
    }

    /// Requests per op, averaged over the schedule.
    pub fn requests_per_op(&self) -> f64 {
        let total: usize = self
            .schedule
            .iter()
            .map(|&i| self.inputs[i].requests.len())
            .sum();
        total as f64 / self.schedule.len() as f64
    }

    fn push_parse(&mut self, grammar: usize, word: String, mut spec: Vec<(&str, Json)>) {
        spec.push(("word", Json::str(word.clone())));
        self.inputs.push(Input {
            requests: vec![Request::post("/parse", Json::obj(spec))],
            ask: Ask::Parse { grammar, word },
        });
    }
}

// ---------------------------------------------------------------------------
// parse_warm and parse_cold
// ---------------------------------------------------------------------------

/// Dyck-style text grammars of `parse_warm` beside `appendix-a`; the third
/// is ambiguous, so exact counts run into big integers.
const WARM_TEXT_GRAMMARS: [&str; 5] = [
    "S -> a S b S | ()",
    "S -> a S b S | c S d S | ()",
    "S -> a S b | S S | a b",
    "S -> a S b S | c S | ()",
    "S -> L S R S | ()\nL -> a | c\nR -> b | d",
];
/// `appendix-a` sizes: words of `L_n` have exactly `2n` letters.
pub const WARM_APPENDIX_N: [usize; 3] = [48, 56, 64];
/// Words per grammar. The ambiguous grammar's ops set p99 (their p90 is
/// ≈ 2× the others'), and with 96 words p99 rested on ≈ 8 distinct
/// words, so it moved with the seed; 384 spread it over ≈ 30.
const WARM_WORDS_PER_GRAMMAR: usize = 384;
/// Words per grammar sent during set-up: the cache needs one, the rest
/// warm the daemon's buffers as the first timed ops would.
const WARM_PRIME_PER_GRAMMAR: usize = 96;

/// 8 grammars primed into the cache, 96–128-letter words, members and
/// non-members alternating: every op is a cache hit, CYK fill + count.
fn parse_warm(rng: &mut StdRng) -> Workload {
    let mut wl = Workload::empty("parse_warm");
    for n in WARM_APPENDIX_N {
        let gi = wl.grammars.len();
        wl.grammars.push(appendix_a_grammar(n));
        for j in 0..WARM_WORDS_PER_GRAMMAR {
            let word = ln_word(rng, n, j % 2 == 0);
            let spec = vec![
                ("builtin", Json::str("appendix-a")),
                ("n", Json::Int(n as i64)),
            ];
            wl.push_parse(gi, word, spec);
        }
    }
    for src in WARM_TEXT_GRAMMARS {
        let gi = wl.grammars.len();
        let g = parse_grammar(src).expect("built-in grammar text parses");
        let cnf = CnfGrammar::from_grammar(&g);
        let sampler = TreeSampler::new(&cnf, 128);
        for j in 0..WARM_WORDS_PER_GRAMMAR {
            // Even lengths spread evenly over 96..=128, the same mix for
            // every seed; the seed picks the letters.
            let len = 96 + 2 * (j % 17);
            let word = sampled_word(&sampler, g.alphabet(), len, j % 2 == 0, rng);
            wl.push_parse(gi, word, vec![("grammar", Json::str(src))]);
        }
        wl.grammars.push(g);
    }
    wl.setup = wl
        .inputs
        .iter()
        .enumerate()
        .filter(|(i, _)| i % WARM_WORDS_PER_GRAMMAR < WARM_PRIME_PER_GRAMMAR)
        .flat_map(|(_, input)| input.requests.iter().cloned())
        .collect();
    wl.schedule = (0..wl.inputs.len()).collect();
    rng.shuffle(&mut wl.schedule);
    wl
}

/// Distinct grammars cycled by `parse_cold`: 5× the daemon's default
/// cache capacity (64), so the LRU never hits.
const COLD_GRAMMARS: usize = 320;
const COLD_WORDS_PER_GRAMMAR: usize = 4;
const COLD_NONTERMINALS: usize = 24;
const COLD_ALTERNATIVES: usize = 5;
const COLD_ALPHABET: [char; 4] = ['a', 'b', 'c', 'd'];

/// Random grammars from a narrow size band, 8–16-letter words: every op
/// misses the cache, compiles (text parse, CNF, rule index, nullable) and
/// evicts.
fn parse_cold(rng: &mut StdRng) -> Workload {
    let mut wl = Workload::empty("parse_cold");
    let mut seen = HashSet::new();
    while wl.grammars.len() < COLD_GRAMMARS {
        let src = random_grammar_text(rng);
        let g = parse_grammar(&src).expect("generated grammar text parses");
        let cnf = CnfGrammar::from_grammar(&g);
        let sampler = TreeSampler::new(&cnf, 16);
        let lens: Vec<usize> = (8..=16)
            .filter(|&l| !sampler.tree_count(l).is_zero())
            .collect();
        if lens.is_empty() || !seen.insert(g.content_hash()) {
            continue;
        }
        let gi = wl.grammars.len();
        for j in 0..COLD_WORDS_PER_GRAMMAR {
            let len = lens[rng.random_range(0..lens.len())];
            let word = sampled_word(&sampler, g.alphabet(), len, j % 2 == 0, rng);
            wl.push_parse(gi, word, vec![("grammar", Json::str(src.clone()))]);
        }
        wl.grammars.push(g);
    }
    // Pass c of the schedule sends word c of every grammar, grammars in
    // one seeded order; set-up compiles every grammar once (last word), so
    // the cache is full and evicting before the first timed op.
    let mut perm: Vec<usize> = (0..COLD_GRAMMARS).collect();
    rng.shuffle(&mut perm);
    let w = COLD_WORDS_PER_GRAMMAR;
    wl.setup = perm
        .iter()
        .map(|&g| wl.inputs[g * w + w - 1].requests[0].clone())
        .collect();
    wl.schedule = (0..w)
        .flat_map(|c| perm.iter().map(move |&g| g * w + c))
        .collect();
    wl
}

/// A word of length `2n`: in `L_n` (some `k` with `w_k = w_{k+n} = a`)
/// or not (every pair at distance `n` avoids `(a, a)`).
fn ln_word(rng: &mut StdRng, n: usize, member: bool) -> String {
    let mut w = vec![b'b'; 2 * n];
    if member {
        for c in w.iter_mut() {
            *c = if rng.random_bool(0.5) { b'a' } else { b'b' };
        }
        let k = rng.random_range(0..n);
        w[k] = b'a';
        w[k + n] = b'a';
    } else {
        for k in 0..n {
            let (x, y) = [(b'a', b'b'), (b'b', b'a'), (b'b', b'b')][rng.random_range(0..3usize)];
            w[k] = x;
            w[k + n] = y;
        }
    }
    String::from_utf8(w).expect("ascii")
}

/// A sampled member of length `len`, or for non-members the same with one
/// letter changed (a random word when the length has no member).
fn sampled_word(
    sampler: &TreeSampler<'_>,
    alphabet: &[char],
    len: usize,
    member: bool,
    rng: &mut StdRng,
) -> String {
    let mut w: Vec<char> = match sampler.sample_word(len, rng) {
        Some(s) => s.chars().collect(),
        None => (0..len)
            .map(|_| alphabet[rng.random_range(0..alphabet.len())])
            .collect(),
    };
    if !member {
        let i = rng.random_range(0..w.len());
        let others: Vec<char> = alphabet.iter().copied().filter(|&c| c != w[i]).collect();
        w[i] = others[rng.random_range(0..others.len())];
    }
    w.into_iter().collect()
}

/// A random grammar over `a`–`d`: the first alternative of every
/// non-terminal is terminal-only (so all are productive), the others mix
/// 2–4 terminals and non-terminals. No ε and no unit rules.
fn random_grammar_text(rng: &mut StdRng) -> String {
    let name = |i: usize| {
        if i == 0 {
            "S".to_string()
        } else {
            format!("N{i}")
        }
    };
    let mut text = String::new();
    for i in 0..COLD_NONTERMINALS {
        let mut alts = Vec::with_capacity(COLD_ALTERNATIVES);
        let first: Vec<String> = (0..rng.random_range(1..=2usize))
            .map(|_| COLD_ALPHABET[rng.random_range(0..4usize)].to_string())
            .collect();
        alts.push(first.join(" "));
        for _ in 1..COLD_ALTERNATIVES {
            let body: Vec<String> = (0..rng.random_range(2..=4usize))
                .map(|_| {
                    if rng.random_bool(0.5) {
                        COLD_ALPHABET[rng.random_range(0..4usize)].to_string()
                    } else {
                        name(rng.random_range(0..COLD_NONTERMINALS))
                    }
                })
                .collect();
            alts.push(body.join(" "));
        }
        text.push_str(&format!("{} -> {}\n", name(i), alts.join(" | ")));
    }
    text
}

// ---------------------------------------------------------------------------
// stream_feed
// ---------------------------------------------------------------------------

/// Window capacity of every session.
pub const WINDOW: usize = 128;
/// Feeds per op and tokens per feed: few and large, so compute stays
/// ahead of the hand-off between connection and shard threads.
const FEEDS_PER_OP: usize = 2;
pub const FEED_TOKENS: usize = 64;
/// Ops per session before its token pool repeats.
const ROUNDS: usize = 32;
/// Set-up tokens per session: enough that set-up is dominated by the
/// sessions' own work, not by spawning the daemon.
const PREFILL: usize = 8 * WINDOW;
/// Session grammars and their registered regexes; two sessions each.
const STREAM_GRAMMARS: [(&str, &str); 4] = [
    ("S -> a S b S | ()", "a(a|b)*b"),
    ("S -> a S b S | c S d S | ()", "(a|c)(a|b|c|d)*(b|d)"),
    ("S -> L S R S | ()\nL -> a | c\nR -> b | d", "a(a|b|c|d)*d"),
    ("S -> a S b S | c S | ()", "c*a(a|b|c)*b"),
];
const SESSIONS_PER_GRAMMAR: usize = 2;

/// 8 sessions opened and pre-filled during set-up; one op is one round on
/// one session (two 64-token feeds, then a query), sessions in turn.
fn stream_feed(rng: &mut StdRng) -> Workload {
    let mut wl = Workload::empty("stream_feed");
    for (src, regex) in STREAM_GRAMMARS {
        let g = parse_grammar(src).expect("built-in grammar text parses");
        let gi = wl.grammars.len();
        let cnf = CnfGrammar::from_grammar(&g);
        let sampler = TreeSampler::new(&cnf, 32);
        for _ in 0..SESSIONS_PER_GRAMMAR {
            let s = wl.sessions.len();
            let name = format!("s{s}");
            let id = ucfg_stream::session_id(g.content_hash(), WINDOW, Some(regex), &name);
            let hex = Json::str(format!("{id:016x}"));
            let session = || ("session", hex.clone());
            wl.setup.push(Request::post(
                "/stream/open",
                Json::obj(vec![
                    ("grammar", Json::str(src)),
                    ("window", Json::Int(WINDOW as i64)),
                    ("regex", Json::str(regex)),
                    ("name", Json::str(name.clone())),
                ]),
            ));
            let prefill = token_stream(&sampler, g.alphabet(), PREFILL, rng);
            let pool = token_stream(
                &sampler,
                g.alphabet(),
                ROUNDS * FEEDS_PER_OP * FEED_TOKENS,
                rng,
            );
            let chunk = |t: &str| {
                Request::post(
                    "/stream/feed",
                    Json::obj(vec![session(), ("tokens", Json::str(t))]),
                )
            };
            for c in prefill.as_bytes().chunks(FEED_TOKENS) {
                wl.setup.push(chunk(std::str::from_utf8(c).expect("ascii")));
            }
            for round in pool.as_bytes().chunks(FEEDS_PER_OP * FEED_TOKENS) {
                let mut requests: Vec<Request> = round
                    .chunks(FEED_TOKENS)
                    .map(|c| chunk(std::str::from_utf8(c).expect("ascii")))
                    .collect();
                requests.push(Request::post("/stream/query", Json::obj(vec![session()])));
                wl.inputs.push(Input {
                    requests,
                    ask: Ask::Stream {
                        session: s,
                        tokens: String::from_utf8(round.to_vec()).expect("ascii"),
                    },
                });
            }
            wl.sessions.push(Session {
                grammar: gi,
                regex,
                name,
                prefill,
            });
        }
        wl.grammars.push(g);
    }
    // Round r of every session, sessions in order, for r = 0, 1, ….
    let sessions = wl.sessions.len();
    wl.schedule = (0..ROUNDS)
        .flat_map(|r| (0..sessions).map(move |s| s * ROUNDS + r))
        .collect();
    wl
}

/// `len` tokens of concatenated sampled members (4–32 letters each);
/// every eighth member has one letter changed, so windows are members
/// and non-members.
fn token_stream(
    sampler: &TreeSampler<'_>,
    alphabet: &[char],
    len: usize,
    rng: &mut StdRng,
) -> String {
    let lens: Vec<usize> = (4..=32)
        .filter(|&l| !sampler.tree_count(l).is_zero())
        .collect();
    let mut out = String::with_capacity(len + 32);
    let mut k = 0usize;
    while out.len() < len {
        let l = lens[rng.random_range(0..lens.len())];
        out.push_str(&sampled_word(sampler, alphabet, l, k % 8 != 7, rng));
        k += 1;
    }
    out.truncate(len);
    out
}

// ---------------------------------------------------------------------------
// certify
// ---------------------------------------------------------------------------

/// The certificate: (endpoint, family, n). Example 8's cover is checked
/// at n = 10 and its discrepancy ledger at n = 12; the Proposition 7
/// extraction at n = 5 and n = 4 (its build at n = 6 takes seconds, and
/// n = 13 covers cost ≈ 256 ms — either would make the op bimodal).
pub const CERTIFICATE: [(&str, &str, usize); 4] = [
    ("/cover/verify", "example8", 10),
    ("/discrepancy", "example8", 12),
    ("/cover/verify", "extraction", 5),
    ("/discrepancy", "extraction", 4),
];
const CERTIFY_SCHEDULE: usize = 256;

/// One op is one certificate: the four requests back to back, in an
/// order the seed picks per op. Set-up sends each once, so the rectangle
/// families are built and cached before timing.
fn certify(rng: &mut StdRng) -> Workload {
    let mut wl = Workload::empty("certify");
    let request = |i: usize| {
        let (path, family, n) = CERTIFICATE[i];
        Request::post(
            path,
            Json::obj(vec![
                ("family", Json::str(family)),
                ("n", Json::Int(n as i64)),
            ]),
        )
    };
    wl.setup = (0..CERTIFICATE.len()).map(request).collect();
    for _ in 0..CERTIFY_SCHEDULE {
        let mut order: Vec<usize> = (0..CERTIFICATE.len()).collect();
        rng.shuffle(&mut order);
        wl.schedule.push(wl.inputs.len());
        wl.inputs.push(Input {
            requests: order.iter().map(|&i| request(i)).collect(),
            ask: Ask::Certify { order },
        });
    }
    wl
}
