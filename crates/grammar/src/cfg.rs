//! Context-free grammars with the paper's size measure.
//!
//! A [`Grammar`] is the four-tuple `(Σ, N, R, S)` of Definition 2. The size
//! measure is the one the paper (and factorised representations) use:
//! `|G| = Σ_{A→W ∈ R} |W|`, the sum of the lengths of all rule bodies —
//! *not* the number of rules (the measure of Bucher et al., which the
//! related-work section contrasts).

use crate::symbol::{NonTerminal, Symbol, Terminal};
use std::collections::HashMap;
use std::fmt;

/// A single rule `lhs → rhs`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Rule {
    /// The non-terminal on the left.
    pub lhs: NonTerminal,
    /// The body; may be empty (an ε-rule).
    pub rhs: Vec<Symbol>,
}

impl Rule {
    /// The rule's contribution to `|G|`.
    pub fn size(&self) -> usize {
        self.rhs.len()
    }
}

/// A context-free grammar `(Σ, N, R, S)`.
///
/// Terminals are `char`s interned in `alphabet`; non-terminals are named in
/// `nonterminal_names`. Construction goes through
/// [`GrammarBuilder`](crate::builder::GrammarBuilder) in typical use.
#[derive(Debug, Clone)]
pub struct Grammar {
    pub(crate) alphabet: Vec<char>,
    pub(crate) nonterminal_names: Vec<String>,
    pub(crate) rules: Vec<Rule>,
    pub(crate) start: NonTerminal,
    /// `rules_by_lhs[A] = indices into rules with lhs A`.
    pub(crate) rules_by_lhs: Vec<Vec<usize>>,
}

/// Errors detected by [`Grammar::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GrammarError {
    /// A rule references a terminal id outside the alphabet table.
    UnknownTerminal(Terminal),
    /// A rule references a non-terminal id outside the non-terminal table.
    UnknownNonTerminal(NonTerminal),
    /// The start symbol is not in the non-terminal table.
    BadStart(NonTerminal),
}

impl fmt::Display for GrammarError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GrammarError::UnknownTerminal(t) => write!(f, "unknown terminal id {}", t.0),
            GrammarError::UnknownNonTerminal(n) => write!(f, "unknown non-terminal id {}", n.0),
            GrammarError::BadStart(n) => write!(f, "start symbol id {} out of range", n.0),
        }
    }
}

impl std::error::Error for GrammarError {}

impl Grammar {
    /// Assemble a grammar from parts, indexing rules by left-hand side.
    ///
    /// Prefer [`GrammarBuilder`](crate::builder::GrammarBuilder); this is the
    /// low-level constructor used by transformations.
    pub fn from_parts(
        alphabet: Vec<char>,
        nonterminal_names: Vec<String>,
        rules: Vec<Rule>,
        start: NonTerminal,
    ) -> Self {
        let mut rules_by_lhs = vec![Vec::new(); nonterminal_names.len()];
        for (i, r) in rules.iter().enumerate() {
            rules_by_lhs[r.lhs.index()].push(i);
        }
        Grammar {
            alphabet,
            nonterminal_names,
            rules,
            start,
            rules_by_lhs,
        }
    }

    /// The paper's size measure `|G| = Σ |rhs|`.
    pub fn size(&self) -> usize {
        self.rules.iter().map(Rule::size).sum()
    }

    /// Number of rules (the Bucher-et-al. measure, for comparison tables).
    pub fn rule_count(&self) -> usize {
        self.rules.len()
    }

    /// Number of non-terminals.
    pub fn nonterminal_count(&self) -> usize {
        self.nonterminal_names.len()
    }

    /// The alphabet Σ.
    pub fn alphabet(&self) -> &[char] {
        &self.alphabet
    }

    /// The start symbol S.
    pub fn start(&self) -> NonTerminal {
        self.start
    }

    /// All rules.
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    /// The rules whose left-hand side is `a`.
    pub fn rules_for(&self, a: NonTerminal) -> impl Iterator<Item = &Rule> + '_ {
        self.rules_by_lhs[a.index()].iter().map(|&i| &self.rules[i])
    }

    /// The display name of a non-terminal.
    pub fn name(&self, n: NonTerminal) -> &str {
        &self.nonterminal_names[n.index()]
    }

    /// The character a terminal id stands for.
    pub fn letter(&self, t: Terminal) -> char {
        self.alphabet[t.index()]
    }

    /// Look up the terminal id of a character, if in the alphabet.
    pub fn terminal_of(&self, c: char) -> Option<Terminal> {
        self.alphabet
            .iter()
            .position(|&x| x == c)
            .map(|i| Terminal(i as u16))
    }

    /// Encode a `&str` into terminal ids; `None` if any char is foreign.
    pub fn encode(&self, word: &str) -> Option<Vec<Terminal>> {
        word.chars().map(|c| self.terminal_of(c)).collect()
    }

    /// Decode terminal ids back to a `String`.
    pub fn decode(&self, word: &[Terminal]) -> String {
        word.iter().map(|&t| self.letter(t)).collect()
    }

    /// Check internal consistency of all symbol ids.
    pub fn validate(&self) -> Result<(), GrammarError> {
        if self.start.index() >= self.nonterminal_names.len() {
            return Err(GrammarError::BadStart(self.start));
        }
        for r in &self.rules {
            if r.lhs.index() >= self.nonterminal_names.len() {
                return Err(GrammarError::UnknownNonTerminal(r.lhs));
            }
            for &s in &r.rhs {
                match s {
                    Symbol::T(t) if t.index() >= self.alphabet.len() => {
                        return Err(GrammarError::UnknownTerminal(t))
                    }
                    Symbol::N(n) if n.index() >= self.nonterminal_names.len() => {
                        return Err(GrammarError::UnknownNonTerminal(n))
                    }
                    _ => {}
                }
            }
        }
        Ok(())
    }

    /// A stable 64-bit content hash (FNV-1a over a canonical rule
    /// serialisation), suitable as a content-addressed cache key for
    /// compiled artifacts (CNF conversions, CYK rule indexes, Earley
    /// tables).
    ///
    /// Canonicalisation guarantees two invariances, covered by unit
    /// tests:
    ///
    /// - **renaming-insensitive** — non-terminal *names* never enter the
    ///   hash, only their ids, so `S → A A` and `Start → Left Left`
    ///   (same ids, different spellings) hash equal;
    /// - **rule-order-insensitive** — rule encodings are sorted before
    ///   hashing, so permuting `rules` leaves the digest unchanged.
    ///   Rules are hashed as a *multiset*: a duplicated rule changes the
    ///   digest, because duplicates change parse counts.
    ///
    /// The hash is *not* isomorphism-invariant: relabelling non-terminal
    /// ids (or reordering the alphabet, which renumbers terminals)
    /// produces a different digest. That is the right contract for
    /// content addressing — equal hash means the compiled artifacts are
    /// interchangeable byte for byte.
    pub fn content_hash(&self) -> u64 {
        use ucfg_support::fnv::Fnv1a;
        // Every rule's encoding back to back in one buffer, addressed by
        // spans, so sorting moves spans instead of per-rule buffers.
        let mut bytes = Vec::with_capacity(4 * self.rules.len() + 5 * self.size());
        let mut spans: Vec<(usize, usize)> = Vec::with_capacity(self.rules.len());
        for r in &self.rules {
            let start = bytes.len();
            bytes.extend_from_slice(&(r.lhs.0).to_le_bytes());
            for &s in &r.rhs {
                match s {
                    Symbol::T(t) => {
                        bytes.push(0);
                        bytes.extend_from_slice(&t.0.to_le_bytes());
                    }
                    Symbol::N(n) => {
                        bytes.push(1);
                        bytes.extend_from_slice(&n.0.to_le_bytes());
                    }
                }
            }
            spans.push((start, bytes.len()));
        }
        spans.sort_unstable_by(|&(a, b), &(c, d)| bytes[a..b].cmp(&bytes[c..d]));

        let mut h = Fnv1a::new();
        h.write(b"ucfg-cfg-v1");
        h.write_usize(self.alphabet.len());
        for &c in &self.alphabet {
            h.write_u32(c as u32);
        }
        h.write_usize(self.nonterminal_names.len());
        h.write_u32(self.start.0);
        h.write_usize(spans.len());
        for &(start, end) in &spans {
            // Length-prefix each rule so concatenations can't collide.
            h.write_usize(end - start);
            h.write(&bytes[start..end]);
        }
        h.finish()
    }

    /// Render a symbol for display.
    pub fn symbol_str(&self, s: Symbol) -> String {
        match s {
            Symbol::T(t) => self.letter(t).to_string(),
            Symbol::N(n) => self.name(n).to_string(),
        }
    }

    /// Group rules by lhs and render in the `A → W | W'` notation of the
    /// paper (still meaning one rule per alternative).
    pub fn pretty(&self) -> String {
        let mut by_lhs: HashMap<NonTerminal, Vec<String>> = HashMap::new();
        for r in &self.rules {
            let body = if r.rhs.is_empty() {
                "ε".to_string()
            } else {
                r.rhs
                    .iter()
                    .map(|&s| self.symbol_str(s))
                    .collect::<Vec<_>>()
                    .join(" ")
            };
            by_lhs.entry(r.lhs).or_default().push(body);
        }
        let mut order: Vec<NonTerminal> = by_lhs.keys().copied().collect();
        order.sort_by_key(|n| (*n != self.start, n.index()));
        let mut out = String::new();
        for n in order {
            out.push_str(&format!("{} → {}\n", self.name(n), by_lhs[&n].join(" | ")));
        }
        out
    }
}

impl fmt::Display for Grammar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.pretty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GrammarBuilder;

    fn tiny() -> Grammar {
        // S → a S | b
        let mut b = GrammarBuilder::new(&['a', 'b']);
        let s = b.nonterminal("S");
        b.rule(s, |r| r.t('a').n(s));
        b.rule(s, |r| r.t('b'));
        b.build(s)
    }

    #[test]
    fn size_is_sum_of_rhs_lengths() {
        let g = tiny();
        assert_eq!(g.size(), 3); // |aS| + |b| = 2 + 1
        assert_eq!(g.rule_count(), 2);
        assert_eq!(g.nonterminal_count(), 1);
    }

    #[test]
    fn encode_decode_roundtrip() {
        let g = tiny();
        let w = g.encode("abba").unwrap();
        assert_eq!(g.decode(&w), "abba");
        assert!(g.encode("abc").is_none());
    }

    #[test]
    fn rules_for_groups_by_lhs() {
        let g = tiny();
        assert_eq!(g.rules_for(g.start()).count(), 2);
    }

    #[test]
    fn validate_accepts_well_formed() {
        assert!(tiny().validate().is_ok());
    }

    #[test]
    fn validate_rejects_bad_ids() {
        let g = Grammar::from_parts(
            vec!['a'],
            vec!["S".into()],
            vec![Rule {
                lhs: NonTerminal(0),
                rhs: vec![Symbol::T(Terminal(5))],
            }],
            NonTerminal(0),
        );
        assert_eq!(
            g.validate(),
            Err(GrammarError::UnknownTerminal(Terminal(5)))
        );

        let g = Grammar::from_parts(vec!['a'], vec!["S".into()], vec![], NonTerminal(3));
        assert_eq!(g.validate(), Err(GrammarError::BadStart(NonTerminal(3))));
    }

    #[test]
    fn content_hash_is_renaming_insensitive() {
        // Same structure under ids, different non-terminal spellings.
        let build = |names: [&str; 2]| {
            let mut b = GrammarBuilder::new(&['a', 'b']);
            let s = b.nonterminal(names[0]);
            let a = b.nonterminal(names[1]);
            b.rule(s, |r| r.n(a).n(a));
            b.rule(a, |r| r.t('a'));
            b.rule(a, |r| r.t('b'));
            b.build(s)
        };
        let g = build(["S", "A"]);
        let renamed = build(["Start", "Leaf"]);
        assert_eq!(g.content_hash(), renamed.content_hash());
    }

    #[test]
    fn content_hash_is_rule_order_insensitive() {
        let g = tiny();
        let mut rules = g.rules().to_vec();
        rules.reverse();
        let permuted =
            Grammar::from_parts(g.alphabet().to_vec(), vec!["S".into()], rules, g.start());
        assert_eq!(g.content_hash(), permuted.content_hash());
    }

    #[test]
    fn content_hash_separates_different_grammars() {
        let g = tiny();
        // S → a S | a   differs from   S → a S | b
        let mut b = GrammarBuilder::new(&['a', 'b']);
        let s = b.nonterminal("S");
        b.rule(s, |r| r.t('a').n(s));
        b.rule(s, |r| r.t('a'));
        let other = b.build(s);
        assert_ne!(g.content_hash(), other.content_hash());
    }

    #[test]
    fn content_hash_counts_duplicate_rules() {
        // Duplicated rules double parse counts, so they must change the
        // digest even though the generated language is unchanged.
        let g = tiny();
        let mut rules = g.rules().to_vec();
        rules.push(rules[1].clone());
        let doubled =
            Grammar::from_parts(g.alphabet().to_vec(), vec!["S".into()], rules, g.start());
        assert_ne!(g.content_hash(), doubled.content_hash());
    }

    #[test]
    fn content_hash_depends_on_start_symbol() {
        let mut b = GrammarBuilder::new(&['a']);
        let s = b.nonterminal("S");
        let t = b.nonterminal("T");
        b.rule(s, |r| r.t('a'));
        b.rule(t, |r| r.t('a').t('a'));
        let from_s = b.build(s);
        let from_t = Grammar::from_parts(
            from_s.alphabet().to_vec(),
            vec!["S".into(), "T".into()],
            from_s.rules().to_vec(),
            t,
        );
        assert_ne!(from_s.content_hash(), from_t.content_hash());
    }

    #[test]
    fn content_hash_is_stable_across_calls() {
        let g = tiny();
        assert_eq!(g.content_hash(), g.content_hash());
        assert_eq!(g.content_hash(), g.clone().content_hash());
    }

    #[test]
    fn pretty_prints_alternatives() {
        let g = tiny();
        let p = g.pretty();
        assert!(p.contains("S → "), "got: {p}");
        assert!(p.contains('|'), "got: {p}");
    }
}
