//! `/parse` through the batching scheduler against the scalar CYK
//! reference, on both sides of the counting-kernel threshold.
//!
//! `/parse` counts a word with the CYK fill when it is short against the
//! grammar and with the Earley inside pass when it is long
//! ([`CountKernel::for_word`]). On random general grammars, with ε-rules,
//! unit rules and ambiguity, and words from the empty word to past the
//! threshold, every outcome must equal `CykChart::build_scalar` on the
//! CNF, and the `"check": true` recount by the other kernel must agree.

use std::sync::Mutex;
use std::time::{Duration, Instant};
use ucfg_grammar::cyk::CykChart;
use ucfg_grammar::sample::TreeSampler;
use ucfg_grammar::{CnfGrammar, Grammar, GrammarBuilder, NonTerminal, Symbol, Terminal};
use ucfg_serve::batch::{Job, ParseJob, ParseOutcome, ReplySink, Scheduler, SessionStore};
use ucfg_serve::cache::{ArtifactCache, CountKernel};
use ucfg_support::prop::Gen;
use ucfg_support::rng::Rng;
use ucfg_support::{prop_assert, prop_assert_eq, property};

const ALPHABET: [char; 2] = ['a', 'b'];

/// A random general grammar: bodies of length 0..=3 mixing terminals and
/// non-terminals freely, so ε-rules, unit rules, useless non-terminals
/// and ambiguity all occur.
fn rand_general(g: &mut Gen) -> Grammar {
    let nts = g.int_in(1usize..=5);
    let mut b = GrammarBuilder::new(&ALPHABET);
    let ids: Vec<NonTerminal> = (0..nts).map(|i| b.nonterminal(&format!("N{i}"))).collect();
    let rules = g.int_in(1usize..=(3 * nts + 3));
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
    b.build(ids[0])
}

/// A grammar and words on both sides of the first length the inside
/// pass counts (`edge`): lengths 0–3 and `edge - 2 ..= edge + 2`, at each
/// a random word and, where the language has one, a sampled member.
#[derive(Debug)]
struct Case {
    grammar: Grammar,
    words: Vec<String>,
}

fn rand_case(g: &mut Gen) -> Case {
    // An empty CNF sends even the empty word to the inside pass, and a
    // large one puts the edge where counting ambiguous words in a debug
    // build takes seconds; redraw both.
    let (grammar, cnf) = loop {
        let grammar = rand_general(g);
        let cnf = CnfGrammar::from_grammar(&grammar);
        if (1..=16).contains(&cnf.rule_count()) {
            break (grammar, cnf);
        }
    };
    let edge = (0..)
        .find(|&n| CountKernel::for_word(n, cnf.rule_count()) == CountKernel::Inside)
        .expect("long words go to the inside pass");
    let sampler = TreeSampler::new(&cnf, edge + 2);
    let mut words = Vec::new();
    for len in (0..=3).chain(edge.saturating_sub(2)..=edge + 2) {
        words.push(g.string_of(&ALPHABET, len..=len));
        if let Some(w) = sampler.sample_word(len, g.rng()) {
            words.push(w);
        }
    }
    Case { grammar, words }
}

/// The scalar CYK reference outcome: (member, count, ambiguous).
fn reference(cnf: &CnfGrammar, word: &str) -> (bool, String, bool) {
    let w = cnf.encode(word).expect("words are over the alphabet");
    let chart = CykChart::build_scalar(cnf, &w);
    let count = chart.count_trees();
    let ambiguous = !matches!(count.to_u64(), Some(0 | 1));
    (chart.accepted(), count.to_string(), ambiguous)
}

property! {
    cases = 48;
    /// Every `/parse` outcome, with and without `"check": true`, equals
    /// scalar CYK on the CNF; the check never reports a mismatch.
    fn parse_outcomes_equal_scalar_cyk(case in rand_case) {
        let cnf = CnfGrammar::from_grammar(&case.grammar);
        let sched = Scheduler::new(4 * case.words.len(), Duration::from_secs(60));
        let mut replies = Vec::new();
        for word in &case.words {
            for check in [false, true] {
                let (reply, rx) = ReplySink::channel();
                sched
                    .try_enqueue(Job::Parse(ParseJob {
                        key: case.grammar.content_hash(),
                        grammar: case.grammar.clone(),
                        word: word.clone(),
                        check,
                        enqueued: Instant::now(),
                        reply,
                    }))
                    .expect("the queue holds every job");
                replies.push((word, check, rx));
            }
        }
        sched.stop();
        sched.run(&Mutex::new(ArtifactCache::new(4)), &Mutex::new(SessionStore::new(1)));
        for (word, check, rx) in replies {
            let outcome: ParseOutcome = match rx.recv().expect("every job is answered") {
                Ok(o) => o,
                Err(e) => return Err(ucfg_support::prop::CaseError::new(format!(
                    "{word:?} (check {check}): {}", e.message()
                ))),
            };
            let (member, count, ambiguous) = reference(&cnf, word);
            prop_assert_eq!(outcome.member, member, "member of {:?}", word);
            prop_assert_eq!(&outcome.parse_count, &count, "count of {:?}", word);
            prop_assert_eq!(outcome.ambiguous, ambiguous, "ambiguity of {:?}", word);
            prop_assert!(outcome.cross_checked == check.then_some(true));
        }
    }
}
