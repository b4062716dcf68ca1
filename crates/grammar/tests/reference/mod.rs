//! Reference implementations the fast paths must match bit for bit.
//!
//! These are the straightforward versions of the grammar-text reader,
//! the content hash and the CNF conversion: one `String` per token, one
//! `Vec<u8>` per hashed rule, and a conversion that rebuilds whole
//! grammars between its phases and deduplicates through hash sets. The
//! library's versions replace each of them in place; the property tests
//! beside this module assert equal output on every field, with the
//! comparisons at the end of this module.

#![allow(dead_code)]

use std::collections::{BTreeSet, HashMap, HashSet};
use ucfg_grammar::analysis::{nullable, trim};
use ucfg_grammar::text::TextError;
use ucfg_grammar::{CnfGrammar, Grammar, GrammarBuilder, NonTerminal, Rule, Symbol, Terminal};
use ucfg_support::prop::CaseError;
use ucfg_support::prop_assert_eq;

fn is_nonterminal_token(tok: &str) -> bool {
    tok.chars().next().is_some_and(|c| c.is_uppercase())
        || (tok.len() > 1 && tok.chars().next().is_some_and(|c| c == '⟨' || c == '('))
}

/// The two-pass grammar-text reader: validate every line and collect the
/// alphabet, then intern names through a [`GrammarBuilder`].
pub fn parse_grammar(src: &str) -> Result<Grammar, TextError> {
    struct Line {
        no: usize,
        lhs: String,
        alts: Vec<Vec<String>>,
    }
    let mut lines: Vec<Line> = Vec::new();
    let mut alphabet: BTreeSet<char> = BTreeSet::new();
    for (no, raw) in src.lines().enumerate() {
        let no = no + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (lhs, rest) = line
            .split_once("->")
            .or_else(|| line.split_once('→'))
            .ok_or_else(|| TextError {
                line: no,
                msg: "missing '->'".into(),
            })?;
        let lhs = lhs.trim().to_string();
        if lhs.is_empty() || !is_nonterminal_token(&lhs) {
            return Err(TextError {
                line: no,
                msg: format!("left-hand side {lhs:?} must be a non-terminal (Upper-case)"),
            });
        }
        let mut alts = Vec::new();
        for alt in rest.split('|') {
            let toks: Vec<String> = alt.split_whitespace().map(str::to_string).collect();
            if toks.is_empty() {
                return Err(TextError {
                    line: no,
                    msg: "empty alternative (use () for ε)".into(),
                });
            }
            for t in &toks {
                if !is_nonterminal_token(t) && t != "()" && t != "eps" {
                    for c in t.chars() {
                        if c.is_uppercase() {
                            return Err(TextError {
                                line: no,
                                msg: format!("mixed-case token {t:?}"),
                            });
                        }
                        alphabet.insert(c);
                    }
                }
            }
            alts.push(toks);
        }
        lines.push(Line { no, lhs, alts });
    }
    let first = lines.first().ok_or(TextError {
        line: 0,
        msg: "no rules".into(),
    })?;
    let alphabet: Vec<char> = alphabet.into_iter().collect();
    let mut b = GrammarBuilder::new(&alphabet);
    let start = b.nonterminal(&first.lhs);
    for l in &lines {
        b.nonterminal(&l.lhs);
    }
    for l in &lines {
        let lhs = b.nonterminal(&l.lhs);
        for alt in &l.alts {
            if alt.len() == 1 && (alt[0] == "()" || alt[0] == "eps") {
                b.epsilon_rule(lhs);
                continue;
            }
            let mut rhs: Vec<Symbol> = Vec::new();
            for tok in alt {
                if tok == "()" || tok == "eps" {
                    return Err(TextError {
                        line: l.no,
                        msg: "ε may only stand alone in an alternative".into(),
                    });
                }
                if is_nonterminal_token(tok) {
                    rhs.push(Symbol::N(b.nonterminal(tok)));
                } else {
                    for c in tok.chars() {
                        rhs.push(Symbol::T(b.terminal(c)));
                    }
                }
            }
            b.raw_rule(lhs, rhs);
        }
    }
    Ok(b.build(start))
}

/// FNV-1a over each rule's encoding in its own `Vec<u8>`, sorted.
pub fn content_hash(g: &Grammar) -> u64 {
    use ucfg_support::fnv::Fnv1a;
    let mut encoded: Vec<Vec<u8>> = g
        .rules()
        .iter()
        .map(|r| {
            let mut e = Vec::with_capacity(4 + 5 * r.rhs.len());
            e.extend_from_slice(&(r.lhs.0).to_le_bytes());
            for &s in &r.rhs {
                match s {
                    Symbol::T(t) => {
                        e.push(0);
                        e.extend_from_slice(&t.0.to_le_bytes());
                    }
                    Symbol::N(n) => {
                        e.push(1);
                        e.extend_from_slice(&n.0.to_le_bytes());
                    }
                }
            }
            e
        })
        .collect();
    encoded.sort_unstable();

    let mut h = Fnv1a::new();
    h.write(b"ucfg-cfg-v1");
    h.write_usize(g.alphabet().len());
    for &c in g.alphabet() {
        h.write_u32(c as u32);
    }
    h.write_usize(g.nonterminal_count());
    h.write_u32(g.start().0);
    h.write_usize(encoded.len());
    for e in &encoded {
        h.write_usize(e.len());
        h.write(e);
    }
    h.finish()
}

/// TERM → BIN → DEL → UNIT between whole-grammar trims, deduplicating
/// through hash sets and naming every fresh non-terminal as it is made.
pub fn cnf_from_grammar(g: &Grammar) -> CnfGrammar {
    let g = trim(g);
    let alphabet = g.alphabet().to_vec();
    let mut names: Vec<String> = (0..g.nonterminal_count())
        .map(|i| g.name(NonTerminal(i as u32)).to_string())
        .collect();
    let fresh = |names: &mut Vec<String>, base: String| -> NonTerminal {
        let id = NonTerminal(names.len() as u32);
        names.push(format!("{base}·{}", id.0));
        id
    };

    // TERM
    let mut term_proxy: HashMap<Terminal, NonTerminal> = HashMap::new();
    let mut rules: Vec<Rule> = Vec::new();
    let mut extra_rules: Vec<Rule> = Vec::new();
    for r in g.rules() {
        if r.rhs.len() >= 2 {
            let rhs = r
                .rhs
                .iter()
                .map(|&s| match s {
                    Symbol::T(t) => {
                        let p = *term_proxy.entry(t).or_insert_with(|| {
                            let nt = fresh(&mut names, format!("⟨{}⟩", g.letter(t)));
                            extra_rules.push(Rule {
                                lhs: nt,
                                rhs: vec![Symbol::T(t)],
                            });
                            nt
                        });
                        Symbol::N(p)
                    }
                    n => n,
                })
                .collect();
            rules.push(Rule { lhs: r.lhs, rhs });
        } else {
            rules.push(r.clone());
        }
    }
    rules.extend(extra_rules);

    // BIN
    let mut bin_rules_acc: Vec<Rule> = Vec::new();
    for r in rules {
        if r.rhs.len() <= 2 {
            bin_rules_acc.push(r);
            continue;
        }
        let mut prev = r.lhs;
        let k = r.rhs.len();
        for i in 0..k - 2 {
            let cont = fresh(&mut names, format!("⟨{}#{}⟩", g.name(r.lhs), i + 1));
            bin_rules_acc.push(Rule {
                lhs: prev,
                rhs: vec![r.rhs[i], Symbol::N(cont)],
            });
            prev = cont;
        }
        bin_rules_acc.push(Rule {
            lhs: prev,
            rhs: vec![r.rhs[k - 2], r.rhs[k - 1]],
        });
    }
    let rules = bin_rules_acc;

    // DEL
    let tmp = Grammar::from_parts(alphabet.clone(), names.clone(), rules.clone(), g.start());
    let null = nullable(&tmp);
    let mut no_eps: HashSet<(NonTerminal, Vec<Symbol>)> = HashSet::new();
    for r in &rules {
        match r.rhs.len() {
            0 => {}
            1 => {
                no_eps.insert((r.lhs, r.rhs.clone()));
            }
            2 => {
                no_eps.insert((r.lhs, r.rhs.clone()));
                for keep in 0..2usize {
                    let drop = 1 - keep;
                    if let Symbol::N(n) = r.rhs[drop] {
                        if null[n.index()] {
                            no_eps.insert((r.lhs, vec![r.rhs[keep]]));
                        }
                    }
                }
            }
            _ => unreachable!("BIN bounded bodies by 2"),
        }
    }
    let accepts_epsilon = null[g.start().index()];

    // UNIT
    let n_now = names.len();
    let mut unit: Vec<HashSet<usize>> = (0..n_now).map(|i| HashSet::from([i])).collect();
    let mut changed = true;
    let unit_edges: Vec<(usize, usize)> = no_eps
        .iter()
        .filter_map(|(a, rhs)| match rhs.as_slice() {
            [Symbol::N(b)] => Some((a.index(), b.index())),
            _ => None,
        })
        .collect();
    while changed {
        changed = false;
        for &(a, b) in &unit_edges {
            let bs: Vec<usize> = unit[b].iter().copied().collect();
            for x in bs {
                if unit[a].insert(x) {
                    changed = true;
                }
            }
        }
    }
    let mut term_rules: HashSet<(NonTerminal, Terminal)> = HashSet::new();
    let mut bin_rules: HashSet<(NonTerminal, NonTerminal, NonTerminal)> = HashSet::new();
    for (a, unit_a) in unit.iter().enumerate().take(n_now) {
        for &b in unit_a {
            for (lhs, rhs) in &no_eps {
                if lhs.index() != b {
                    continue;
                }
                match rhs.as_slice() {
                    [Symbol::T(t)] => {
                        term_rules.insert((NonTerminal(a as u32), *t));
                    }
                    [Symbol::N(x), Symbol::N(y)] => {
                        bin_rules.insert((NonTerminal(a as u32), *x, *y));
                    }
                    [Symbol::N(_)] => {}
                    _ => unreachable!(),
                }
            }
        }
    }
    let mut term_rules: Vec<_> = term_rules.into_iter().collect();
    term_rules.sort();
    let mut bin_rules: Vec<_> = bin_rules.into_iter().collect();
    bin_rules.sort();
    trimmed(&CnfGrammar::from_rules(
        alphabet,
        names,
        g.start(),
        accepts_epsilon,
        term_rules,
        bin_rules,
    ))
}

/// The trim of a CNF grammar through its generic view: `to_grammar`,
/// `analysis::trim`, then split the rules back by shape.
pub fn trimmed(cnf: &CnfGrammar) -> CnfGrammar {
    let g = trim(&cnf.to_grammar());
    let mut term_rules = Vec::new();
    let mut bin_rules = Vec::new();
    for r in g.rules() {
        match r.rhs.as_slice() {
            [Symbol::T(t)] => term_rules.push((r.lhs, *t)),
            [Symbol::N(b), Symbol::N(c)] => bin_rules.push((r.lhs, *b, *c)),
            _ => unreachable!("trim preserves CNF rule shapes"),
        }
    }
    let names = (0..g.nonterminal_count())
        .map(|i| g.name(NonTerminal(i as u32)).to_string())
        .collect();
    CnfGrammar::from_rules(
        g.alphabet().to_vec(),
        names,
        g.start(),
        cnf.accepts_epsilon(),
        term_rules,
        bin_rules,
    )
}

/// Two grammars agree on alphabet, names, rules in order, and start.
pub fn same_grammar(got: &Grammar, want: &Grammar) -> Result<(), CaseError> {
    let names = |g: &Grammar| -> Vec<String> {
        (0..g.nonterminal_count() as u32)
            .map(|i| g.name(NonTerminal(i)).to_string())
            .collect()
    };
    prop_assert_eq!(got.alphabet(), want.alphabet());
    prop_assert_eq!(names(got), names(want));
    prop_assert_eq!(got.rules(), want.rules());
    prop_assert_eq!(got.start(), want.start());
    Ok(())
}

/// Every field of two CNF grammars, and every per-lhs view, agree.
pub fn same_cnf(got: &CnfGrammar, want: &CnfGrammar) -> Result<(), CaseError> {
    let names = |c: &CnfGrammar| -> Vec<String> {
        (0..c.nonterminal_count() as u32)
            .map(|i| c.name(NonTerminal(i)).to_string())
            .collect()
    };
    prop_assert_eq!(got.alphabet(), want.alphabet());
    prop_assert_eq!(names(got), names(want));
    prop_assert_eq!(got.start(), want.start());
    prop_assert_eq!(got.accepts_epsilon(), want.accepts_epsilon());
    prop_assert_eq!(got.term_rules(), want.term_rules());
    prop_assert_eq!(got.bin_rules(), want.bin_rules());
    for i in 0..got.nonterminal_count() as u32 {
        let a = NonTerminal(i);
        prop_assert_eq!(got.terms_of(a), want.terms_of(a), "terms_of({a})");
        prop_assert_eq!(got.bins_of(a), want.bins_of(a), "bins_of({a})");
    }
    Ok(())
}

/// Both readers give the same grammar, or the same error (line and
/// message).
pub fn same_reading(src: &str) -> Result<(), CaseError> {
    match (ucfg_grammar::text::parse_grammar(src), parse_grammar(src)) {
        (Ok(got), Ok(want)) => same_grammar(&got, &want),
        (got, want) => {
            prop_assert_eq!(got.err(), want.err(), "on {src:?}");
            Ok(())
        }
    }
}
