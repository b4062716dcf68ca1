//! Differential property tests across the crate's independent parsers.
//!
//! Three recognisers/counters exist with no shared kernel code: the
//! bitset CYK fill, the scalar reference CYK fill, and the Earley
//! recogniser (which works on arbitrary grammars, not just CNF). On
//! random CNF grammars and random words they must agree bit for bit —
//! membership, per-span chart contents, and exact parse-tree counts —
//! and on random *general* grammars Earley must agree with CYK through
//! the CNF conversion. Any divergence is a real bug in one of the
//! kernels, which is exactly what the serve daemon's `"check": true`
//! cross-check relies on.
//!
//! The incremental Earley chart (the one engine behind both batch
//! recognition and the stream crate's windows) is pinned the same way:
//! a chart grown by appends agrees with CYK at every prefix and equals
//! a fresh chart of the same tokens, and any append/truncate script
//! lands on the chart a replay of the surviving tokens builds.
//!
//! The Earley inside pass (`earley::count_trees`, the counting engine
//! `/parse` and the stream windows use) is pinned to the scalar CYK
//! count: on every short word, on sampled members of up to 40 letters
//! and their one-letter mutants, on raw `CnfGrammar::from_rules` input
//! (duplicate rules, useless non-terminals, a start without rules), on
//! `aᵏ` under two Catalan-type grammars far past `u64`, and on ε and
//! words whose prefix dies.

use ucfg_grammar::count::TreeCounter;
use ucfg_grammar::cyk::CykChart;
use ucfg_grammar::earley::{count_trees, Chart, Earley};
use ucfg_grammar::language::language_up_to;
use ucfg_grammar::sample::TreeSampler;
use ucfg_grammar::text::parse_grammar;
use ucfg_grammar::{BigUint, CnfGrammar, Grammar, GrammarBuilder, NonTerminal, Symbol, Terminal};
use ucfg_support::prop::Gen;
use ucfg_support::rng::{Rng, SeedableRng};
use ucfg_support::{prop_assert, prop_assert_eq, property};

const ALPHABET: [char; 2] = ['a', 'b'];

/// A random CNF grammar: up to 5 non-terminals over {a, b}, random
/// terminal and binary rules (deduplicated so rule multiplicity never
/// muddies tree counts), random ε acceptance. Sparse enough that empty
/// and infinite languages both occur.
fn rand_cnf(g: &mut Gen) -> CnfGrammar {
    let nts = g.int_in(1usize..=5);
    let names = (0..nts).map(|i| format!("N{i}")).collect();
    let nt = |g: &mut Gen, nts: usize| NonTerminal(g.rng().random_range(0..nts as u32));
    let mut term_rules: Vec<(NonTerminal, Terminal)> = g.vec_of(0..(2 * nts + 2), |g| {
        (nt(g, nts), Terminal(g.rng().random_range(0..2u16)))
    });
    term_rules.sort();
    term_rules.dedup();
    let mut bin_rules: Vec<(NonTerminal, NonTerminal, NonTerminal)> =
        g.vec_of(0..(3 * nts + 2), |g| (nt(g, nts), nt(g, nts), nt(g, nts)));
    bin_rules.sort();
    bin_rules.dedup();
    CnfGrammar::from_rules(
        ALPHABET.to_vec(),
        names,
        NonTerminal(0),
        g.bool(),
        term_rules,
        bin_rules,
    )
}

/// A random word over {a, b} as terminal ids, length 0..=7.
fn rand_word(g: &mut Gen) -> Vec<Terminal> {
    g.vec_of(0..8, |g| Terminal(g.rng().random_range(0..2u16)))
}

/// A random *general* grammar: bodies of length 0..=3 mixing terminals
/// and non-terminals freely, so ε-rules, unit rules, and useless
/// non-terminals all occur and the CNF conversion is genuinely
/// exercised.
fn rand_general(g: &mut Gen) -> Grammar {
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
    b.build(ids[0])
}

/// A random token stream over {a, b}, length 0..=12.
fn rand_stream(g: &mut Gen) -> Vec<Terminal> {
    g.vec_of(0..13, |g| Terminal(g.rng().random_range(0..2u16)))
}

/// One step of a random chart edit script.
#[derive(Debug, Clone)]
enum Edit {
    Append(Terminal),
    /// Interpreted modulo the current length plus one at replay time.
    TruncateTo(u64),
}

fn rand_edits(g: &mut Gen) -> Vec<Edit> {
    g.vec_of(1..16, |g| {
        if g.rng().random_range(0..4u32) == 0 {
            Edit::TruncateTo(g.rng().random_range(0..16u64))
        } else {
            Edit::Append(Terminal(g.rng().random_range(0..2u16)))
        }
    })
}

/// A fresh chart over `tokens`.
fn chart_of<'g>(g: &'g Grammar, tokens: &[Terminal]) -> Chart<&'g Grammar> {
    let mut chart = Chart::new(g, false);
    for &t in tokens {
        chart.append(t);
    }
    chart
}

property! {
    cases = 128;
    /// Bitset CYK, scalar CYK, and Earley agree on membership — and the
    /// two CYK fills agree on every chart cell, not just acceptance.
    fn membership_kernels_agree(
        cnf in rand_cnf,
        word in rand_word,
    ) {
        let bitset = CykChart::build(&cnf, &word);
        let scalar = CykChart::build_scalar(&cnf, &word);
        prop_assert_eq!(bitset.accepted(), scalar.accepted());
        for len in 1..=word.len() {
            for i in 0..=word.len() - len {
                prop_assert_eq!(
                    bitset.nonterminals_at(i, len),
                    scalar.nonterminals_at(i, len),
                    "cell ({i}, {len}) diverges on {}",
                    cnf.decode(&word)
                );
            }
        }
        // `to_grammar` documents that the ε-flag is dropped, so Earley
        // sees the ε-free language; ε itself is answered by the flag.
        if word.is_empty() {
            prop_assert_eq!(bitset.accepted(), cnf.accepts_epsilon());
        } else {
            let g = cnf.to_grammar();
            prop_assert_eq!(
                Earley::new(&g).recognize(&word),
                bitset.accepted(),
                "Earley vs CYK on {:?}",
                cnf.decode(&word)
            );
        }
    }

    cases = 128;
    /// Exact parse-tree counts agree between the two CYK fills, match
    /// acceptance, and — when the language is finite — match the
    /// independent `TreeCounter` recurrence on the un-converted grammar.
    fn parse_counts_agree(
        cnf in rand_cnf,
        word in rand_word,
    ) {
        let n_bitset = CykChart::build(&cnf, &word).count_trees();
        let n_scalar = CykChart::build_scalar(&cnf, &word).count_trees();
        prop_assert_eq!(&n_bitset, &n_scalar);
        prop_assert_eq!(
            n_bitset.is_zero(),
            !CykChart::build(&cnf, &word).accepted(),
            "count {} vs membership on {:?}",
            n_bitset,
            cnf.decode(&word)
        );
        // CNF ⊂ general grammars, so the CNF rules *are* a grammar the
        // length-indexed TreeCounter recurrence runs on directly — an
        // algorithmically unrelated count. (ε is represented as a flag in
        // CNF but a rule in the grammar view, so compare nonempty words.)
        if !word.is_empty() {
            if let Ok(counter) = TreeCounter::new(&cnf.to_grammar()) {
                prop_assert_eq!(
                    counter.count(&word),
                    n_bitset,
                    "TreeCounter vs CYK on {:?}",
                    cnf.decode(&word)
                );
            }
        }
    }

    cases = 96;
    /// Membership survives the CNF conversion: Earley on a random
    /// general grammar (ε-rules, unit rules and all) agrees with CYK on
    /// `CnfGrammar::from_grammar` for every word — including ε, where
    /// CYK answers via the `accepts_epsilon` flag.
    fn conversion_preserves_membership(
        g in rand_general,
        word in rand_word,
    ) {
        let earley = Earley::new(&g);
        let cnf = CnfGrammar::from_grammar(&g);
        prop_assert_eq!(
            earley.recognize(&word),
            CykChart::build(&cnf, &word).accepted(),
            "Earley on the original vs CYK on the CNF of\n{}on {:?}",
            g.pretty(),
            g.decode(&word)
        );
    }

    cases = 48;
    /// Positive coverage: every enumerated language word up to length 4
    /// is accepted by all kernels with a nonzero count. (Random words
    /// alone under-sample sparse languages.)
    fn enumerated_words_are_members(cnf in rand_cnf) {
        for word in language_up_to(&cnf, 4) {
            let chart = CykChart::build(&cnf, &word);
            prop_assert!(
                chart.accepted(),
                "enumerated word {:?} rejected by the bitset kernel",
                cnf.decode(&word)
            );
            prop_assert!(!chart.count_trees().is_zero());
            prop_assert!(CykChart::build_scalar(&cnf, &word).accepted());
            if !word.is_empty() {
                // ε lives in the CNF flag, which `to_grammar` drops.
                let g = cnf.to_grammar();
                prop_assert!(Earley::new(&g).recognize(&word));
            }
        }
    }
}

/// Every word over {a, b} of length at most `max_len`, shortest first.
fn all_words(max_len: usize) -> impl Iterator<Item = Vec<Terminal>> {
    (0..=max_len).flat_map(|len| {
        (0..1u32 << len)
            .map(move |bits| (0..len).map(|i| Terminal((bits >> i & 1) as u16)).collect())
    })
}

property! {
    cases = 48;
    /// The Earley inside count equals both CYK fills' tree counts on
    /// every word up to length 8, ε and dead prefixes included, over a
    /// random CNF grammar and over the CNF conversion of a random general
    /// grammar (ε-rules, unit rules and ambiguity all occur).
    fn inside_counts_equal_cyk(cnf in rand_cnf, g in rand_general) {
        for cnf in [cnf, CnfGrammar::from_grammar(&g)] {
            for word in all_words(8) {
                let n = count_trees(&cnf, &word);
                prop_assert_eq!(
                    &n,
                    &CykChart::build(&cnf, &word).count_trees(),
                    "bitset CYK on {:?}",
                    cnf.decode(&word)
                );
                prop_assert_eq!(
                    &n,
                    &CykChart::build_scalar(&cnf, &word).count_trees(),
                    "scalar CYK on {:?}",
                    cnf.decode(&word)
                );
            }
        }
    }
}

/// The scalar CYK count of `word`: the reference the inside pass is
/// checked against.
fn cyk_count(cnf: &CnfGrammar, word: &[Terminal]) -> BigUint {
    CykChart::build_scalar(cnf, word).count_trees()
}

/// Raw `CnfGrammar::from_rules` input: up to 6 non-terminals over
/// {a, b}, rules drawn with repeats and kept as drawn (a repeated rule
/// is a second derivation), non-terminals left useless by the draw, and
/// in a quarter of the cases a start symbol with no rules at all.
fn rand_raw_cnf(g: &mut Gen) -> CnfGrammar {
    let nts = g.int_in(1usize..=6);
    let names = (0..nts).map(|i| format!("N{i}")).collect();
    let nt = |g: &mut Gen| NonTerminal(g.rng().random_range(0..nts as u32));
    let mut term_rules: Vec<(NonTerminal, Terminal)> = g.vec_of(1..(2 * nts + 3), |g| {
        (nt(g), Terminal(g.rng().random_range(0..2u16)))
    });
    let mut bin_rules: Vec<(NonTerminal, NonTerminal, NonTerminal)> =
        g.vec_of(1..(3 * nts + 3), |g| (nt(g), nt(g), nt(g)));
    let repeats = g.int_in(0usize..=3);
    for _ in 0..repeats {
        if g.bool() {
            let r = *g.choice(&term_rules);
            term_rules.push(r);
        } else {
            let r = *g.choice(&bin_rules);
            bin_rules.push(r);
        }
    }
    if g.int_in(0u32..=3) == 0 {
        term_rules.retain(|&(a, _)| a != NonTerminal(0));
        bin_rules.retain(|&(a, _, _)| a != NonTerminal(0));
    }
    CnfGrammar::from_rules(
        ALPHABET.to_vec(),
        names,
        NonTerminal(0),
        g.bool(),
        term_rules,
        bin_rules,
    )
}

property! {
    cases = 64;
    /// Sampled members of 9–40 letters, and each with one letter
    /// changed: the inside count equals the scalar CYK count. Long
    /// members of ambiguous grammars push counts past `u64`.
    fn inside_counts_equal_cyk_on_long_members(
        cnf in rand_cnf,
        g in rand_general,
        seed in |g: &mut Gen| g.any_u64(),
    ) {
        let mut rng = ucfg_support::rng::StdRng::seed_from_u64(seed);
        for cnf in [cnf, CnfGrammar::from_grammar(&g)] {
            let sampler = TreeSampler::new(&cnf, 40);
            for _ in 0..6 {
                let len = rng.random_range(9..=40usize);
                let Some(member) = sampler.sample_word(len, &mut rng) else {
                    continue;
                };
                let mut word = cnf.encode(&member).expect("a sampled word is over the alphabet");
                let n = count_trees(&cnf, &word);
                prop_assert!(!n.is_zero(), "sampled member {member:?} counted 0");
                prop_assert_eq!(&n, &cyk_count(&cnf, &word), "member {:?}", member);
                let at = rng.random_range(0..len);
                word[at] = Terminal(1 - word[at].0);
                prop_assert_eq!(
                    count_trees(&cnf, &word),
                    cyk_count(&cnf, &word),
                    "mutant {:?}",
                    cnf.decode(&word)
                );
            }
        }
    }

    cases = 96;
    /// Duplicate rules, useless non-terminals and a start symbol with no
    /// rules, exactly as `from_rules` takes them: the inside count equals
    /// the scalar CYK count on every word up to 7 letters.
    fn inside_counts_equal_cyk_on_raw_rules(cnf in rand_raw_cnf) {
        for word in all_words(7) {
            prop_assert_eq!(
                count_trees(&cnf, &word),
                cyk_count(&cnf, &word),
                "on {:?}",
                cnf.decode(&word)
            );
        }
    }

    cases = 96;
    /// A short random prefix, which often dies, followed by up to 30
    /// more letters: the inside count equals the scalar CYK count, so a
    /// pass that stops at a dead prefix stops only where every extension
    /// counts 0.
    fn inside_counts_equal_cyk_past_dead_prefixes(
        cnf in rand_cnf,
        prefix in rand_word,
        suffix in |g: &mut Gen| g.vec_of(0..31, |g| Terminal(g.rng().random_range(0..2u16))),
    ) {
        let word = [prefix, suffix].concat();
        prop_assert_eq!(
            count_trees(&cnf, &word),
            cyk_count(&cnf, &word),
            "on {:?}",
            cnf.decode(&word)
        );
    }
}

/// `aᵏ` for every `k ≤ 72` under `S → S S | a` (Catalan(k − 1) trees) and
/// `S → S S S | S S | a`: counts pass `u64` in the middle of the pass and
/// reach 160 bits, and each equals the scalar CYK count.
#[test]
fn inside_counts_promote_mid_pass_on_catalan_words() {
    for src in ["S -> S S | a", "S -> S S S | S S | a"] {
        let cnf = CnfGrammar::from_grammar(&parse_grammar(src).unwrap());
        let mut widest = 0;
        for k in 0..=72 {
            let word = vec![Terminal(0); k];
            let n = count_trees(&cnf, &word);
            assert_eq!(n, cyk_count(&cnf, &word), "{src} on a^{k}");
            widest = widest.max(n.bits());
        }
        assert!(widest > 128, "{src}: counts stay within {widest} bits");
    }
}

/// ε is answered by the grammar's flag, and a word whose prefix dies
/// counts 0 whatever follows; a letter outside the alphabet kills the
/// prefix at once.
#[test]
fn inside_counts_handle_epsilon_and_dead_prefixes() {
    let dyck = CnfGrammar::from_grammar(&parse_grammar("S -> a S b S | ()").unwrap());
    assert!(dyck.accepts_epsilon());
    assert_eq!(count_trees(&dyck, &[]), BigUint::one());
    let catalan = CnfGrammar::from_grammar(&parse_grammar("S -> S S | a").unwrap());
    assert!(count_trees(&catalan, &[]).is_zero());
    let balanced = "ab".repeat(20);
    for dead in ["b", "abb", "aabbb"] {
        for tail in ["", "ab", balanced.as_str()] {
            let word = dyck.encode(&format!("{dead}{tail}")).unwrap();
            assert!(count_trees(&dyck, &word).is_zero(), "{dead}{tail}");
            assert!(cyk_count(&dyck, &word).is_zero(), "{dead}{tail}");
        }
    }
    // Balanced words of the same letters parse.
    for live in ["ab", "aabb", "aabbab"] {
        let word = dyck.encode(live).unwrap();
        assert_eq!(count_trees(&dyck, &word), BigUint::one(), "{live}");
    }
    let foreign = [Terminal(0), Terminal(7), Terminal(1)];
    assert!(count_trees(&dyck, &foreign).is_zero());
}

property! {
    cases = 96;
    /// A chart kept across k appends accepts exactly the prefixes scalar
    /// CYK accepts on the CNF, and is the chart a fresh parse of the
    /// same k tokens builds: same items at every position, same cells.
    fn chart_appends_equal_full_reparse(
        g in rand_general,
        stream in rand_stream,
    ) {
        let cnf = CnfGrammar::from_grammar(&g);
        let mut chart = Chart::new(&g, false);
        for (i, &t) in stream.iter().enumerate() {
            chart.append(t);
            prop_assert_eq!(
                chart.suffix_complete(0),
                CykChart::build_scalar(&cnf, &stream[..=i]).accepted(),
                "prefix of length {}",
                i + 1
            );
            let fresh = chart_of(&g, &stream[..=i]);
            prop_assert_eq!(chart.fingerprint(), fresh.fingerprint());
            prop_assert_eq!(chart.cells(), fresh.cells());
        }
    }

    cases = 96;
    /// Any append/truncate script is equivalent to a fresh parse of the
    /// surviving tokens, and truncating to 0 restores the initial chart.
    fn chart_edit_scripts_equal_replay(
        g in rand_general,
        edits in rand_edits,
    ) {
        let mut chart = Chart::new(&g, false);
        let initial = chart.fingerprint();
        let mut shadow: Vec<Terminal> = Vec::new();
        for e in &edits {
            match e {
                Edit::Append(t) => {
                    chart.append(*t);
                    shadow.push(*t);
                }
                Edit::TruncateTo(raw) => {
                    let to = raw % (shadow.len() as u64 + 1);
                    chart.truncate(to);
                    shadow.truncate(to as usize);
                }
            }
            prop_assert_eq!(chart.fingerprint(), chart_of(&g, &shadow).fingerprint(), "after {:?}", e);
        }
        chart.truncate(0);
        prop_assert_eq!(chart.fingerprint(), initial);
        prop_assert_eq!(chart.total(), 0);
    }
}

/// Counts are exercised above only when random draws hit the language;
/// pin one deterministic ambiguous case end to end so the property
/// suite can never silently degrade to vacuous agreement on zeros.
#[test]
fn pinned_ambiguous_counts() {
    let cnf = CnfGrammar::from_rules(
        ALPHABET.to_vec(),
        vec!["S".into()],
        NonTerminal(0),
        false,
        vec![(NonTerminal(0), Terminal(0))],
        vec![(NonTerminal(0), NonTerminal(0), NonTerminal(0))],
    );
    // Catalan numbers: 1, 1, 2, 5, 14 trees for a^1 .. a^5.
    for (len, expect) in [(1u64, 1u64), (2, 1), (3, 2), (4, 5), (5, 14)] {
        let word = vec![Terminal(0); len as usize];
        let n = CykChart::build(&cnf, &word).count_trees();
        assert_eq!(n, BigUint::from_u64(expect), "a^{len}");
        assert_eq!(CykChart::build_scalar(&cnf, &word).count_trees(), n);
        assert_eq!(count_trees(&cnf, &word), n);
    }
}
