//! Parsing benches: membership and parse-forest work on the paper's
//! grammars and automata (experiments F1/T1/T2 timing side).

use std::hint::black_box;
use ucfg_automata::ln_nfa::{exact_nfa, pattern_nfa};
use ucfg_core::ln_grammars::{appendix_a_grammar, example4_ucfg};
use ucfg_core::words;
use ucfg_grammar::cyk::{CykChart, CykRuleIndex};
use ucfg_grammar::earley::{Earley, InsideCounter};
use ucfg_grammar::normal_form::CnfGrammar;
use ucfg_grammar::parse_tree::FixedLenParser;
use ucfg_grammar::sample::TreeSampler;
use ucfg_grammar::text::{parse_grammar, print_grammar};
use ucfg_grammar::Terminal;
use ucfg_support::bench::{Options, Suite};
use ucfg_support::rng::{Rng, SeedableRng, StdRng};

fn some_words(n: usize, how_many: usize) -> Vec<String> {
    // Deterministic mix of members and non-members of L_n.
    (0..how_many as u64)
        .map(|i| {
            words::to_string(
                n,
                i.wrapping_mul(0x9e3779b97f4a7c15) & words::low_mask(2 * n),
            )
        })
        .collect()
}

fn bench_cyk(suite: &mut Suite) {
    let mut g = suite.group("cyk_recognize");
    for n in [3usize, 4, 5] {
        let cnf = CnfGrammar::from_grammar(&example4_ucfg(n));
        let inputs: Vec<Vec<_>> = some_words(n, 16)
            .iter()
            .map(|w| cnf.encode(w).unwrap())
            .collect();
        g.bench(&format!("example4_ucfg/{n}"), || {
            let mut acc = 0usize;
            for w in &inputs {
                acc += usize::from(CykChart::build(black_box(&cnf), w).accepted());
            }
            acc
        });
    }
}

fn bench_cyk_count(suite: &mut Suite) {
    let mut g = suite.group("cyk_count_trees");
    for n in [3usize, 4] {
        let cnf = CnfGrammar::from_grammar(&appendix_a_grammar(n));
        let all_a = cnf.encode(&"a".repeat(2 * n)).unwrap();
        g.bench(&format!("appendixA_all_a/{n}"), || {
            CykChart::build(black_box(&cnf), &all_a).count_trees()
        });
    }
}

/// The ambiguous `S -> S S | a` over `a^128`: Catalan(127) trees, so
/// nearly every count is a big integer. The Earley inside pass against
/// the CYK fill + count it replaced for stream windows.
fn bench_count_catalan(suite: &mut Suite) {
    let mut g = suite.group("count_catalan_a128");
    let cnf = CnfGrammar::from_grammar(&parse_grammar("S -> S S | a").unwrap());
    let word = cnf.encode(&"a".repeat(128)).unwrap();
    g.bench("cyk", || {
        CykChart::build(black_box(&cnf), &word).count_trees()
    });
    let counter = InsideCounter::new(&cnf);
    g.bench("earley_inside", || counter.count(black_box(&word)));
}

/// A random grammar text of the shape `daemonbench`'s `parse_cold`
/// workload sends: 24 non-terminals of 5 alternatives over `a`–`d`, the
/// first terminal-only, the others 2–4 symbols. Its CNF has about 220
/// rules.
fn random_cold_text(rng: &mut StdRng) -> String {
    let name = |i: usize| match i {
        0 => "S".to_string(),
        _ => format!("N{i}"),
    };
    let letter = |rng: &mut StdRng| ["a", "b", "c", "d"][rng.random_range(0..4usize)].to_string();
    let mut text = String::new();
    for i in 0..24 {
        let mut alts: Vec<String> = Vec::new();
        let first: Vec<String> = (0..rng.random_range(1..=2usize))
            .map(|_| letter(rng))
            .collect();
        alts.push(first.join(" "));
        for _ in 1..5 {
            let body: Vec<String> = (0..rng.random_range(2..=4usize))
                .map(|_| match rng.random_bool(0.5) {
                    true => letter(rng),
                    false => name(rng.random_range(0..24usize)),
                })
                .collect();
            alts.push(body.join(" "));
        }
        text.push_str(&format!("{} -> {}\n", name(i), alts.join(" | ")));
    }
    text
}

/// [`random_cold_text`], read and converted to CNF.
fn random_cold_grammar(rng: &mut StdRng) -> CnfGrammar {
    let text = random_cold_text(rng);
    CnfGrammar::from_grammar(&parse_grammar(&text).expect("generated grammar text parses"))
}

/// The compile work of a `/parse` that misses the cache, stage by stage:
/// reading the grammar text, its content hash (the cache key), the CNF
/// conversion and the CYK rule index. On a `parse_cold`-shaped random
/// grammar, on `appendix-a` n = 64 (as printed text: unit rules and a
/// five-symbol body) and on a Dyck grammar (an ε-rule).
fn bench_compile(suite: &mut Suite) {
    let mut rng = StdRng::seed_from_u64(25);
    let texts = [
        ("cold", random_cold_text(&mut rng)),
        ("appendix-a-64", print_grammar(&appendix_a_grammar(64))),
        ("dyck", "S -> a S b S | ()".to_string()),
    ];
    let mut g = suite.group("compile");
    for (name, text) in &texts {
        let grammar = parse_grammar(text).expect("bench grammar text parses");
        let cnf = CnfGrammar::from_grammar(&grammar);
        g.bench(&format!("text/{name}"), || parse_grammar(black_box(text)));
        g.bench(&format!("hash/{name}"), || {
            black_box(&grammar).content_hash()
        });
        g.bench(&format!("cnf/{name}"), || {
            CnfGrammar::from_grammar(black_box(&grammar))
        });
        g.bench(&format!("index/{name}"), || {
            CykRuleIndex::new(black_box(&cnf))
        });
    }
}

/// Words grouped by their length.
type WordsByLen = Vec<(usize, Vec<Vec<Terminal>>)>;

/// Four words of each length in `lens`: two sampled members, and two
/// sampled members with one letter changed, as `daemonbench` builds its
/// words. `None` if some length has no member.
fn sampled_words(cnf: &CnfGrammar, lens: &[usize], rng: &mut StdRng) -> Option<WordsByLen> {
    let sampler = TreeSampler::new(cnf, *lens.iter().max()?);
    let letters = cnf.alphabet().len() as u16;
    let mut out = Vec::new();
    for &len in lens {
        let mut words = Vec::new();
        for j in 0..4 {
            let member = sampler.sample_word(len, rng)?;
            let mut w = cnf.encode(&member).expect("a word over the alphabet");
            if j % 2 == 1 {
                let i = rng.random_range(0..len);
                w[i] = Terminal((w[i].0 + rng.random_range(1..letters)) % letters);
            }
            words.push(w);
        }
        out.push((len, words));
    }
    Some(out)
}

/// The words of length `len`, if any.
fn words_of(by_len: &WordsByLen, len: usize) -> &[Vec<Terminal>] {
    by_len
        .iter()
        .find(|(l, _)| *l == len)
        .map_or(&[], |(_, words)| words)
}

/// Four words of length `2n` for `appendix-a`: two members of `L_n`, and
/// two words whose every pair at distance `n` avoids `(a, a)`.
fn ln_words(cnf: &CnfGrammar, n: usize, rng: &mut StdRng) -> Vec<Vec<Terminal>> {
    (0..4)
        .map(|j| {
            let mut w = vec![b'b'; 2 * n];
            for k in 0..n {
                let (x, y) =
                    [(b'a', b'b'), (b'b', b'a'), (b'b', b'b')][rng.random_range(0..3usize)];
                w[k] = x;
                w[k + n] = y;
            }
            if j % 2 == 0 {
                let k = rng.random_range(0..n);
                w[k] = b'a';
                w[k + n] = b'a';
            }
            cnf.encode(std::str::from_utf8(&w).expect("ascii"))
                .expect("a word over the alphabet")
        })
        .collect()
}

/// `/parse`'s two counting kernels on the same words: the CYK fill +
/// count against the Earley inside pass, for a Dyck grammar, `appendix-a`
/// and a `parse_cold`-shaped random grammar, at lengths on both sides of
/// each one's crossover. `ucfg_serve::cache::INSIDE_PASS_RATIO` is read
/// off these. Each iteration counts four words; ids end in the length.
fn bench_parse_count(suite: &mut Suite) {
    let mut rng = StdRng::seed_from_u64(18);
    let dyck = CnfGrammar::from_grammar(&parse_grammar("S -> a S b S | ()").unwrap());
    let words = sampled_words(&dyck, &[16, 32, 64], &mut rng).expect("Dyck words of even length");
    let mut grammars = vec![("dyck", dyck, words)];
    for n in [12, 24, 32, 48] {
        let cnf = CnfGrammar::from_grammar(&appendix_a_grammar(n));
        let words = ln_words(&cnf, n, &mut rng);
        grammars.push(("appendix-a", cnf, vec![(2 * n, words)]));
    }
    // The first generated grammar with members of every length.
    grammars.push(loop {
        let cnf = random_cold_grammar(&mut rng);
        if let Some(words) = sampled_words(&cnf, &[16, 48, 96, 128], &mut rng) {
            break ("random", cnf, words);
        }
    });
    let mut g = suite.group("parse_count");
    for (name, cnf, by_len) in &grammars {
        let index = CykRuleIndex::new(cnf);
        let counter = InsideCounter::new(cnf);
        for (len, words) in by_len {
            g.bench(&format!("cyk/{name}/{len}"), || {
                words
                    .iter()
                    .map(|w| CykChart::build_with_index(cnf, &index, black_box(w)).count_trees())
                    .filter(|c| !c.is_zero())
                    .count()
            });
            g.bench(&format!("inside/{name}/{len}"), || {
                words
                    .iter()
                    .map(|w| counter.count(black_box(w)))
                    .filter(|c| !c.is_zero())
                    .count()
            });
        }
    }
}

/// The same two kernels on short words, where the CYK fill can win: a
/// Dyck grammar at 4 and 8 letters, `appendix-a` at 8 and 12, and four
/// `parse_cold`-shaped random grammars at the 8–16 letters that workload
/// sends, so each `cold` iteration counts 16 words.
/// The lower end of `INSIDE_PASS_RATIO` is read off these. They draw from
/// their own seed, so the grammars and words behind the keys above stay
/// as they were.
fn bench_parse_count_short(suite: &mut Suite) {
    let mut rng = StdRng::seed_from_u64(27);
    let dyck = CnfGrammar::from_grammar(&parse_grammar("S -> a S b S | ()").unwrap());
    let words = sampled_words(&dyck, &[4, 8], &mut rng).expect("Dyck words of even length");
    let mut sets = vec![("dyck", vec![(dyck, words)])];
    let appendix_a = [4, 6].map(|n| {
        let cnf = CnfGrammar::from_grammar(&appendix_a_grammar(n));
        let words = ln_words(&cnf, n, &mut rng);
        (cnf, vec![(2 * n, words)])
    });
    sets.push(("appendix-a", appendix_a.into()));
    let mut cold = Vec::new();
    while cold.len() < 4 {
        let cnf = random_cold_grammar(&mut rng);
        if let Some(words) = sampled_words(&cnf, &[8, 12, 16], &mut rng) {
            cold.push((cnf, words));
        }
    }
    sets.push(("cold", cold));
    let mut g = suite.group("parse_count");
    for (name, grammars) in &sets {
        let kernels: Vec<_> = grammars
            .iter()
            .map(|(cnf, _)| (CykRuleIndex::new(cnf), InsideCounter::new(cnf)))
            .collect();
        let mut lens: Vec<usize> = grammars
            .iter()
            .flat_map(|(_, by_len)| by_len.iter().map(|(len, _)| *len))
            .collect();
        lens.sort_unstable();
        lens.dedup();
        for len in lens {
            g.bench(&format!("cyk/{name}/{len}"), || {
                let mut members = 0;
                for ((cnf, by_len), (index, _)) in grammars.iter().zip(&kernels) {
                    for w in words_of(by_len, len) {
                        let count =
                            CykChart::build_with_index(cnf, index, black_box(w)).count_trees();
                        members += usize::from(!count.is_zero());
                    }
                }
                members
            });
            g.bench(&format!("inside/{name}/{len}"), || {
                let mut members = 0;
                for ((_, by_len), (_, counter)) in grammars.iter().zip(&kernels) {
                    for w in words_of(by_len, len) {
                        members += usize::from(!counter.count(black_box(w)).is_zero());
                    }
                }
                members
            });
        }
    }
}

fn bench_fixed_len_parser(suite: &mut Suite) {
    let mut g = suite.group("fixed_len_parser");
    for n in [4usize, 6] {
        let gr = appendix_a_grammar(n);
        let parser = FixedLenParser::new(&gr).unwrap();
        let inputs: Vec<Vec<_>> = some_words(n, 16)
            .iter()
            .map(|w| gr.encode(w).unwrap())
            .collect();
        g.bench(&format!("appendixA_count/{n}"), || {
            let mut acc = 0u64;
            for w in &inputs {
                acc += parser
                    .count_trees(black_box(w))
                    .to_u64()
                    .unwrap_or(u64::MAX);
            }
            acc
        });
    }
}

fn bench_earley(suite: &mut Suite) {
    let mut g = suite.group("earley_recognize");
    for n in [3usize, 4] {
        let gr = appendix_a_grammar(n);
        let e = Earley::new(&gr);
        let inputs = some_words(n, 8);
        g.bench(&format!("appendixA/{n}"), || {
            let mut acc = 0usize;
            for w in &inputs {
                acc += usize::from(e.recognize_str(black_box(w)));
            }
            acc
        });
    }
}

fn bench_nfa(suite: &mut Suite) {
    let mut g = suite.group("nfa_accepts");
    for n in [8usize, 16, 32] {
        let pat = pattern_nfa(n);
        let exact = exact_nfa(n);
        let inputs = some_words(n, 32);
        g.bench(&format!("pattern/{n}"), || {
            inputs.iter().filter(|w| pat.accepts(black_box(w))).count()
        });
        g.bench(&format!("exact/{n}"), || {
            inputs
                .iter()
                .filter(|w| exact.accepts(black_box(w)))
                .count()
        });
    }
}

/// Build and execute the suite; the caller decides what to do with the
/// finished records (write them via [`Suite::finish`], or read them).
pub(super) fn build(opts: Options) -> Suite {
    let mut suite = Suite::with_options("parsing", opts);
    bench_cyk(&mut suite);
    bench_cyk_count(&mut suite);
    bench_count_catalan(&mut suite);
    bench_parse_count(&mut suite);
    bench_parse_count_short(&mut suite);
    bench_compile(&mut suite);
    bench_fixed_len_parser(&mut suite);
    bench_earley(&mut suite);
    bench_nfa(&mut suite);
    suite
}
