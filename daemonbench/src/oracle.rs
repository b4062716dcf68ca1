//! The answer oracle: every reply is checked against an independent
//! in-process computation, never against the daemon's own code path.
//!
//! - `/parse`: Earley membership on the original grammar (plus the closed
//!   form of `L_n` for `appendix-a`) and an exact tree count of the CNF —
//!   by `TreeCounter` on the CNF's grammar view where the language is
//!   finite (the `L_n` grammars), else by the `CykChart::build_scalar`
//!   reference fill.
//! - `stream_feed`: the client's own record of each session's last
//!   `WINDOW` tokens, reparsed from scratch after every op: Earley
//!   membership, and a scalar CYK fill for the count, the window suffixes
//!   in `L(G)` and those the regex's DFA also accepts.
//! - `certify`: the closed-form verdicts (Example 8 covers `L_n` with `n`
//!   balanced rectangles overlapping `n`-fold at `a^{2n}`; the Proposition
//!   7 extraction is a disjoint balanced cover whose discrepancies sum to
//!   the gap `12^m − 8^m`), with each discrepancy vector from the scalar
//!   reference kernel.

use crate::workload::{Ask, Workload, CERTIFICATE, FEED_TOKENS, WARM_APPENDIX_N, WINDOW};
use crate::Executed;
use std::collections::HashMap;
use ucfg_automata::dfa::Dfa;
use ucfg_automata::regex::Regex;
use ucfg_core::cover::{discrepancy_accounting_scalar, example8_cover};
use ucfg_core::discrepancy::gap;
use ucfg_grammar::count::TreeCounter;
use ucfg_grammar::cyk::CykChart;
use ucfg_grammar::earley::Earley;
use ucfg_grammar::CnfGrammar;
use ucfg_serve::cache::RectsArtifact;
use ucfg_serve::protocol::{RectFamily, RectRequest};
use ucfg_serve::Json;

/// Expected facts about one stream window.
#[derive(Clone)]
struct WindowFacts {
    member: bool,
    count: String,
    suffix_matches: i64,
    product_matches: i64,
}

pub struct Oracle<'w> {
    wl: &'w Workload,
    cnf: Vec<CnfGrammar>,
    /// `TreeCounter` per grammar, built on first use; `None` for
    /// infinite languages.
    counters: HashMap<usize, Option<TreeCounter>>,
    dfas: Vec<Dfa>,
    parse_memo: HashMap<usize, (bool, String)>,
    window_memo: HashMap<(usize, String), WindowFacts>,
    /// Expected reply fields per `CERTIFICATE` entry.
    certificate: Vec<Vec<(&'static str, Json)>>,
}

impl<'w> Oracle<'w> {
    pub fn new(wl: &'w Workload) -> Result<Oracle<'w>, String> {
        let dfas = wl
            .sessions
            .iter()
            .map(|s| {
                Regex::parse(s.regex)
                    .map(|r| Dfa::from_nfa(&r.glushkov()))
                    .map_err(|e| format!("regex {:?}: {e}", s.regex))
            })
            .collect::<Result<_, _>>()?;
        let certificate = if wl.name == "certify" {
            certificate_facts()?
        } else {
            Vec::new()
        };
        Ok(Oracle {
            wl,
            cnf: wl.grammars.iter().map(CnfGrammar::from_grammar).collect(),
            counters: HashMap::new(),
            dfas,
            parse_memo: HashMap::new(),
            window_memo: HashMap::new(),
            certificate,
        })
    }

    /// Ops of one daemon, in the order they ran, whose replies are not all
    /// 200s with the expected answers.
    pub fn failures(&mut self, ops: &[Executed]) -> usize {
        // The client's record per session: its last WINDOW tokens and the
        // stream position, starting from the set-up pre-fill.
        let mut records: Vec<(String, i64)> = self
            .wl
            .sessions
            .iter()
            .map(|s| {
                (
                    s.prefill[s.prefill.len() - WINDOW..].to_string(),
                    s.prefill.len() as i64,
                )
            })
            .collect();
        let mut failed = 0;
        for e in ops {
            let ok = e.replies.iter().all(|r| r.status == 200)
                && match &self.wl.inputs[e.input].ask {
                    Ask::Parse { grammar, word } => self.parse_ok(e, *grammar, word),
                    Ask::Stream { session, tokens } => {
                        self.stream_ok(e, *session, tokens, &mut records[*session])
                    }
                    Ask::Certify { order } => self.certify_ok(e, order),
                };
            if !ok {
                if failed < 3 {
                    let r = e.replies.last().expect("every op sends a request");
                    eprintln!(
                        "wrong reply to input {}: {} {}",
                        e.input,
                        r.status,
                        r.body.trim_end()
                    );
                }
                failed += 1;
            }
        }
        failed
    }

    fn parse_ok(&mut self, e: &Executed, grammar: usize, word: &str) -> bool {
        let (member, count) = self.parse_expect(e.input, grammar, word);
        let v = reply_json(e, 0);
        field(&v, "member").and_then(Json::as_bool) == Some(member)
            && field(&v, "parse_count").and_then(Json::as_str) == Some(count.as_str())
    }

    fn parse_expect(&mut self, input: usize, grammar: usize, word: &str) -> (bool, String) {
        if let Some(e) = self.parse_memo.get(&input) {
            return e.clone();
        }
        let g = &self.wl.grammars[grammar];
        let member = Earley::new(g).recognize_str(word);
        let appendix_a = self.wl.name == "parse_warm" && grammar < WARM_APPENDIX_N.len();
        if appendix_a {
            let n = WARM_APPENDIX_N[grammar];
            let b = word.as_bytes();
            let closed = b.len() == 2 * n && (0..n).any(|k| b[k] == b'a' && b[k + n] == b'a');
            if closed != member {
                // Disagreeing references: no reply can match this.
                return (member, "oracle disagreement".into());
            }
        }
        let cnf = &self.cnf[grammar];
        let counter = self
            .counters
            .entry(grammar)
            .or_insert_with(|| TreeCounter::new(&cnf.to_grammar()).ok());
        let count = match (counter, cnf.encode(word)) {
            (Some(tc), _) => tc.count_str(word).to_string(),
            (None, Some(w)) => CykChart::build_scalar(cnf, &w).count_trees().to_string(),
            (None, None) => "0".into(),
        };
        self.parse_memo.insert(input, (member, count.clone()));
        (member, count)
    }

    fn stream_ok(
        &mut self,
        e: &Executed,
        session: usize,
        tokens: &str,
        record: &mut (String, i64),
    ) -> bool {
        let feeds = e.replies.len() - 1;
        let mut ok = true;
        for (k, chunk) in tokens
            .as_bytes()
            .chunks(FEED_TOKENS)
            .enumerate()
            .take(feeds)
        {
            record.1 += chunk.len() as i64;
            let v = reply_json(e, k);
            ok &= field(&v, "fed").and_then(Json::as_i64) == Some(chunk.len() as i64)
                && field(&v, "total").and_then(Json::as_i64) == Some(record.1);
        }
        record.0.push_str(tokens);
        let cut = record.0.len() - WINDOW.min(record.0.len());
        record.0.drain(..cut);
        let facts = self.window_facts(session, &record.0);
        let v = reply_json(e, feeds);
        let product = field(&v, "product");
        ok && field(&v, "window").and_then(Json::as_str) == Some(record.0.as_str())
            && field(&v, "total").and_then(Json::as_i64) == Some(record.1)
            && field(&v, "member").and_then(Json::as_bool) == Some(facts.member)
            && field(&v, "count").and_then(Json::as_str) == Some(facts.count.as_str())
            && field(&v, "suffix_matches").and_then(Json::as_i64) == Some(facts.suffix_matches)
            && product
                .and_then(|p| p.get("matches"))
                .and_then(Json::as_i64)
                == Some(facts.product_matches)
    }

    fn window_facts(&mut self, session: usize, window: &str) -> WindowFacts {
        let key = (session, window.to_string());
        if let Some(f) = self.window_memo.get(&key) {
            return f.clone();
        }
        let grammar = self.wl.sessions[session].grammar;
        let cnf = &self.cnf[grammar];
        let member = Earley::new(&self.wl.grammars[grammar]).recognize_str(window);
        let facts = match cnf.encode(window) {
            Some(w) => {
                let chart = CykChart::build_scalar(cnf, &w);
                let len = w.len();
                let in_lang = |j: usize| {
                    if j == len {
                        cnf.accepts_epsilon()
                    } else {
                        chart.derives(cnf.start(), j, len - j)
                    }
                };
                let dfa = &self.dfas[session];
                WindowFacts {
                    member,
                    count: chart.count_trees().to_string(),
                    suffix_matches: (0..=len).filter(|&j| in_lang(j)).count() as i64,
                    product_matches: (0..=len)
                        .filter(|&j| in_lang(j) && dfa.accepts(&window[j..]))
                        .count() as i64,
                }
            }
            None => WindowFacts {
                member,
                count: "0".into(),
                suffix_matches: -1,
                product_matches: -1,
            },
        };
        self.window_memo.insert(key, facts.clone());
        facts
    }

    fn certify_ok(&self, e: &Executed, order: &[usize]) -> bool {
        order.iter().enumerate().all(|(k, &i)| {
            let v = reply_json(e, k);
            self.certificate[i]
                .iter()
                .all(|(name, want)| field(&v, name) == Some(want))
        })
    }
}

fn reply_json(e: &Executed, k: usize) -> Option<Json> {
    Json::parse(e.replies[k].body.trim_end()).ok()
}

fn field<'a>(v: &'a Option<Json>, name: &str) -> Option<&'a Json> {
    v.as_ref().and_then(|v| v.get(name))
}

/// Expected reply fields for each `CERTIFICATE` request.
fn certificate_facts() -> Result<Vec<Vec<(&'static str, Json)>>, String> {
    CERTIFICATE
        .iter()
        .map(|&(path, family, n)| {
            let disjoint = family == "extraction";
            let rects = if disjoint {
                let req = RectRequest {
                    n,
                    family: RectFamily::Extraction,
                };
                RectsArtifact::build(req)
                    .map_err(|e| format!("extraction n={n}: {}", e.message()))?
                    .rects
                    .clone()
            } else {
                example8_cover(n)
            };
            let size = ("size", Json::Int(rects.len() as i64));
            if path == "/cover/verify" {
                return Ok(vec![
                    size,
                    ("covers_exactly", Json::Bool(true)),
                    ("disjoint", Json::Bool(disjoint)),
                    ("all_balanced", Json::Bool(true)),
                    // a^{2n} lies in all n Example 8 rectangles.
                    (
                        "max_overlap",
                        Json::Int(if disjoint { 1 } else { n as i64 }),
                    ),
                ]);
            }
            let (discs, _) = discrepancy_accounting_scalar(n, &rects);
            let gap = gap((n / 4) as u64).to_u64().ok_or("gap overflows u64")? as i64;
            let sums = discs.iter().sum::<i64>() == gap;
            if disjoint && !sums {
                return Err(format!(
                    "scalar discrepancies of the extraction at n={n} do not sum to the gap"
                ));
            }
            Ok(vec![
                size,
                (
                    "discrepancies",
                    Json::Arr(discs.into_iter().map(Json::Int).collect()),
                ),
                ("sums_to_gap", Json::Bool(sums)),
            ])
        })
        .collect()
}
