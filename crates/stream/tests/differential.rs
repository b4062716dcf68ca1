//! Differential property tests for the streaming subsystem.
//!
//! The window and product layers maintain answers by deltas on the
//! incremental Earley chart (`ucfg_grammar::earley::Chart`, whose own
//! append/truncate properties live in the grammar crate's
//! `tests/differential_props.rs`). These tests pin the deltas to an
//! independent from-scratch kernel, scalar CYK on the CNF conversion,
//! on random general grammars and random streams:
//!
//! * sliding-window membership, suffix counts, and `CFG ∩ regex` match
//!   counts agree with scalar-CYK reparses of every window suffix;
//! * everything is bit-identical across `par` thread counts 1 / 2 / 8 —
//!   the streaming layer is deterministic under the same knob the serve
//!   matrix varies.

use std::sync::Arc;
use ucfg_automata::dfa::Dfa;
use ucfg_automata::regex::Regex;
use ucfg_grammar::cyk::CykChart;
use ucfg_grammar::earley::Chart;
use ucfg_grammar::{CnfGrammar, Grammar, GrammarBuilder, NonTerminal, Symbol, Terminal};
use ucfg_stream::{ProductQuery, StreamSession, WindowParser};
use ucfg_support::prop::Gen;
use ucfg_support::rng::Rng;
use ucfg_support::{par, prop_assert_eq, property};

const ALPHABET: [char; 2] = ['a', 'b'];

/// Regex pool for the product layer; all parse, some are empty against
/// many random grammars (both emptiness verdicts get exercised).
const REGEXES: [&str; 5] = ["a(a|b)*b", "(ab)*", "a*", "b(a|b)?", "(a|b)(a|b)*"];

/// A random general grammar: bodies of length 0..=3 mixing terminals
/// and non-terminals, so ε-rules, unit rules, and useless symbols all
/// occur (same shape as the grammar crate's own differential suite).
fn rand_grammar(g: &mut Gen) -> Arc<Grammar> {
    let nts = g.int_in(1usize..=4);
    let mut b = GrammarBuilder::new(&ALPHABET);
    let ids: Vec<NonTerminal> = (0..nts).map(|i| b.nonterminal(&format!("N{i}"))).collect();
    let rules = g.int_in(1usize..=(2 * nts + 3));
    for _ in 0..rules {
        let lhs = *g.choice(&ids);
        let body_len = g.int_in(0usize..=3);
        let rhs: Vec<Symbol> = (0..body_len)
            .map(|_| {
                if g.bool() {
                    Symbol::T(Terminal(g.rng().random_range(0..2u16)))
                } else {
                    Symbol::N(*g.choice(&ids))
                }
            })
            .collect();
        b.raw_rule(lhs, rhs);
    }
    Arc::new(b.build(ids[0]))
}

/// A random token stream over {a, b}, length 0..=12.
fn rand_stream(g: &mut Gen) -> Vec<Terminal> {
    g.vec_of(0..13, |g| Terminal(g.rng().random_range(0..2u16)))
}

property! {
    cases = 64;
    /// Sliding-window membership, suffix counts, and product-query match
    /// counts agree with scalar-CYK reparses at every slide.
    fn window_and_product_equal_brute_force(
        g in rand_grammar,
        stream in rand_stream,
        cap in |g: &mut Gen| g.int_in(1usize..=5),
        ri in |g: &mut Gen| g.int_in(0usize..REGEXES.len()),
    ) {
        let cnf = CnfGrammar::from_grammar(&g);
        let member = |w: &[Terminal]| CykChart::build_scalar(&cnf, w).accepted();
        let regex = REGEXES[ri];
        let dfa = Dfa::from_nfa(&Regex::parse(regex).unwrap().glushkov());
        let mut w = WindowParser::new(Arc::clone(&g), cap);
        let mut q = ProductQuery::compile(&g, regex).unwrap();
        for (i, &t) in stream.iter().enumerate() {
            w.push(t);
            q.push(t);
            q.sync(&w);
            let lo = (i + 1).saturating_sub(cap);
            let mut suffix_members = 0usize;
            let mut product_matches = 0usize;
            for j in lo..=i + 1 {
                let suffix = &stream[j..=i];
                let is_member = member(suffix);
                prop_assert_eq!(w.suffix_member(j as u64), is_member, "suffix at {j}");
                suffix_members += usize::from(is_member);
                let text: String = suffix.iter().map(|&t| ALPHABET[t.index()]).collect();
                product_matches += usize::from(is_member && dfa.accepts(&text));
            }
            prop_assert_eq!(w.suffix_match_count(), suffix_members);
            prop_assert_eq!(q.window_matches(&w), product_matches);
            prop_assert_eq!(w.current_member(), member(&stream[lo..=i]));
        }
    }
}

/// The whole streaming layer is deterministic across `par` thread
/// counts: identical fingerprints and identical session reports at
/// 1, 2, and 8 threads (the axis the serve CI matrix varies).
#[test]
fn results_are_identical_across_thread_counts() {
    let mut outcomes: Vec<(u64, String)> = Vec::new();
    for threads in [1usize, 2, 8] {
        par::set_thread_count(threads);
        let mut g = Gen::new(0x5eed_1e55, 1.0);
        let grammar = rand_grammar(&mut g);
        let stream = rand_stream(&mut g);
        let mut s = StreamSession::open(Arc::clone(&grammar), 4, Some("a(a|b)*b"), "dt").unwrap();
        let text: String = stream.iter().map(|&t| ALPHABET[t.index()]).collect();
        s.feed(&text).unwrap();
        let q = s.query();
        let mut chart = Chart::new(Arc::clone(&grammar), false);
        for &t in &stream {
            chart.append(t);
        }
        outcomes.push((chart.fingerprint(), format!("{q:?}")));
    }
    par::set_thread_count(1);
    assert_eq!(outcomes[0], outcomes[1], "1 vs 2 threads");
    assert_eq!(outcomes[0], outcomes[2], "1 vs 8 threads");
}
