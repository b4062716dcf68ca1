//! Chomsky normal form.
//!
//! The paper assumes w.l.o.g. that grammars are in CNF (rules `A → BC` or
//! `A → a`), citing the classical conversion with `|G'| ≤ |G|²`. This module
//! implements the conversion (TERM → BIN → DEL → UNIT, then trimming) and a
//! dedicated [`CnfGrammar`] representation optimised for CYK parsing and
//! counting.
//!
//! The conversion runs over one flat rule arena. After the input is
//! trimmed, TERM and BIN emit every rule as a fixed triple `(lhs, x, y)`,
//! bodies of at most two symbols. DEL computes the nullable set on that
//! arena and removes duplicates by sorting; UNIT closes each non-terminal
//! over its unit rules, with the arena indexed by left-hand side; the final
//! trim works on the rule arrays. The per-lhs views of a [`CnfGrammar`] are
//! offsets into one array per rule kind.
//!
//! Fresh non-terminals are spelled only if they survive the final trim:
//! `⟨a⟩·7` is TERM's proxy for the letter `a`, `⟨A#2⟩·9` the second link
//! BIN made for a long body of `A`. The suffix is the id before trimming,
//! which keeps names globally unique — the annotation machinery
//! ([`annotated`](crate::annotated)) re-identifies non-terminals by name.
//!
//! For ε-free grammars without unit cycles — which covers every grammar in
//! the paper — the conversion is a parse-tree bijection, so it preserves
//! unambiguity; this is verified by the counting tests in `count.rs`.

use crate::analysis::useful;
use crate::cfg::{Grammar, Rule};
use crate::symbol::{NonTerminal, Symbol, Terminal};
use std::fmt;

/// A grammar in Chomsky normal form.
///
/// All rules are `A → B C` (`bin_rules`) or `A → a` (`term_rules`); the
/// empty word, if accepted, is flagged separately (`accepts_epsilon`) rather
/// than materialised as a rule, matching the usual CNF convention.
#[derive(Debug, Clone)]
pub struct CnfGrammar {
    alphabet: Vec<char>,
    names: Names,
    start: NonTerminal,
    accepts_epsilon: bool,
    rules: RuleTable,
}

/// Non-terminal names spelled into one buffer: name `i` ends at `ends[i]`
/// and starts where name `i − 1` ends.
#[derive(Debug, Clone, Default)]
struct Names {
    text: String,
    ends: Vec<usize>,
}

impl Names {
    fn get(&self, i: usize) -> &str {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.text[start..self.ends[i]]
    }

    fn len(&self) -> usize {
        self.ends.len()
    }

    fn push(&mut self, name: &str) {
        self.text.push_str(name);
        self.ends.push(self.text.len());
    }

    fn push_fmt(&mut self, name: fmt::Arguments<'_>) {
        fmt::Write::write_fmt(&mut self.text, name).expect("writing to a String cannot fail");
        self.ends.push(self.text.len());
    }
}

/// The rules of a CNF grammar, in the order given, with per-lhs views:
/// `a`'s terminal bodies are `term_rhs[term_off[a]..term_off[a + 1]]`, its
/// binary bodies `bin_rhs[bin_off[a]..bin_off[a + 1]]`.
#[derive(Debug, Clone)]
struct RuleTable {
    term_rules: Vec<(NonTerminal, Terminal)>,
    bin_rules: Vec<(NonTerminal, NonTerminal, NonTerminal)>,
    term_off: Vec<u32>,
    term_rhs: Vec<Terminal>,
    bin_off: Vec<u32>,
    bin_rhs: Vec<(NonTerminal, NonTerminal)>,
}

/// A trimmed [`RuleTable`], its start, and the old id of each survivor.
type Trimmed = (RuleTable, NonTerminal, Vec<NonTerminal>);

impl RuleTable {
    fn new(
        n: usize,
        term_rules: Vec<(NonTerminal, Terminal)>,
        bin_rules: Vec<(NonTerminal, NonTerminal, NonTerminal)>,
    ) -> Self {
        let (term_off, term_rhs) = group_by_lhs(n, &term_rules, |&(a, t)| (a, t));
        let (bin_off, bin_rhs) = group_by_lhs(n, &bin_rules, |&(a, b, c)| (a, (b, c)));
        RuleTable {
            term_rules,
            bin_rules,
            term_off,
            term_rhs,
            bin_off,
            bin_rhs,
        }
    }

    fn terms_of(&self, a: NonTerminal) -> &[Terminal] {
        &self.term_rhs[self.term_off[a.index()] as usize..self.term_off[a.index() + 1] as usize]
    }

    fn bins_of(&self, a: NonTerminal) -> &[(NonTerminal, NonTerminal)] {
        &self.bin_rhs[self.bin_off[a.index()] as usize..self.bin_off[a.index() + 1] as usize]
    }

    /// Which non-terminals are useful: productive, and reachable from
    /// `start` through rules whose bodies are all productive (the notion
    /// of [`analysis::useful`](crate::analysis::useful)).
    fn useful(&self, start: NonTerminal) -> Vec<bool> {
        let n = self.term_off.len() - 1;
        let mut prod: Vec<bool> = self.term_off.windows(2).map(|w| w[0] < w[1]).collect();
        let mut changed = true;
        while changed {
            changed = false;
            // BIN's links follow their head, so a reverse sweep settles a
            // chain in one pass.
            for &(a, b, c) in self.bin_rules.iter().rev() {
                if !prod[a.index()] && prod[b.index()] && prod[c.index()] {
                    prod[a.index()] = true;
                    changed = true;
                }
            }
        }
        let mut keep = vec![false; n];
        if prod[start.index()] {
            keep[start.index()] = true;
            let mut stack = vec![start];
            while let Some(a) = stack.pop() {
                for &(b, c) in self.bins_of(a) {
                    if !(prod[b.index()] && prod[c.index()]) {
                        continue;
                    }
                    for x in [b, c] {
                        if !keep[x.index()] {
                            keep[x.index()] = true;
                            stack.push(x);
                        }
                    }
                }
            }
        }
        keep
    }

    /// Drop the useless non-terminals and every rule that mentions one,
    /// renumbering the survivors densely in id order; `start` survives
    /// even when useless, with no rules. `None` if every non-terminal is
    /// useful, so nothing changes.
    fn trim(&self, start: NonTerminal) -> Option<Trimmed> {
        let keep = self.useful(start);
        if keep.iter().all(|&k| k) {
            return None;
        }
        let mut id = vec![NONE; keep.len()];
        let mut kept = Vec::new();
        for (i, &k) in keep.iter().enumerate() {
            if k || i == start.index() {
                id[i] = kept.len() as u32;
                kept.push(NonTerminal(i as u32));
            }
        }
        let nt = |a: NonTerminal| NonTerminal(id[a.index()]);
        let term_rules = self
            .term_rules
            .iter()
            .filter(|(a, _)| keep[a.index()])
            .map(|&(a, t)| (nt(a), t))
            .collect();
        let bin_rules = self
            .bin_rules
            .iter()
            .filter(|(a, b, c)| keep[a.index()] && keep[b.index()] && keep[c.index()])
            .map(|&(a, b, c)| (nt(a), nt(b), nt(c)))
            .collect();
        let table = RuleTable::new(kept.len(), term_rules, bin_rules);
        Some((table, nt(start), kept))
    }
}

/// Group rule bodies by left-hand side, keeping rule order within each
/// group (a counting sort): returns the `n + 1` group offsets and the
/// bodies.
fn group_by_lhs<R, B: Copy>(
    n: usize,
    rules: &[R],
    split: impl Fn(&R) -> (NonTerminal, B),
) -> (Vec<u32>, Vec<B>) {
    let mut off = vec![0u32; n + 1];
    for r in rules {
        off[split(r).0.index()] += 1;
    }
    for a in 1..=n {
        off[a] += off[a - 1];
    }
    // `off[a]` is now the end of `a`'s group; filling back to front walks
    // it down to the group's start.
    let Some(first) = rules.first() else {
        return (off, Vec::new());
    };
    let mut bodies = vec![split(first).1; rules.len()];
    for r in rules.iter().rev() {
        let (a, body) = split(r);
        off[a.index()] -= 1;
        bodies[off[a.index()] as usize] = body;
    }
    (off, bodies)
}

/// Arena symbol tag: a terminal `t` is stored as `TERMINAL | t`, a
/// non-terminal as its bare id.
const TERMINAL: u32 = 1 << 31;
/// Arena filler where a body has fewer than two symbols; also marks an
/// unassigned id.
const NONE: u32 = u32::MAX;

/// Where a non-terminal of the conversion comes from, to spell its name
/// if it survives.
#[derive(Debug, Clone, Copy)]
enum Origin {
    /// The input's non-terminal of this id.
    Input(NonTerminal),
    /// TERM's proxy for a terminal.
    Proxy(Terminal),
    /// BIN's `k`-th link for a long body of the input's non-terminal.
    Link(NonTerminal, usize),
}

/// Which non-terminals derive ε, over an arena of `(lhs, x, y)` rules.
fn nullable(n: usize, arena: &[[u32; 3]]) -> Vec<bool> {
    let mut null = vec![false; n];
    let derives_eps = |null: &[bool], s: u32| s == NONE || (s & TERMINAL == 0 && null[s as usize]);
    let mut changed = true;
    while changed {
        changed = false;
        // BIN's links follow their head, so a reverse sweep settles a chain
        // in one pass.
        for &[a, x, y] in arena.iter().rev() {
            if !null[a as usize] && derives_eps(&null, x) && derives_eps(&null, y) {
                null[a as usize] = true;
                changed = true;
            }
        }
    }
    null
}

impl CnfGrammar {
    /// Assemble from explicit rule lists (used by transformations).
    pub fn from_rules(
        alphabet: Vec<char>,
        names: Vec<String>,
        start: NonTerminal,
        accepts_epsilon: bool,
        term_rules: Vec<(NonTerminal, Terminal)>,
        bin_rules: Vec<(NonTerminal, NonTerminal, NonTerminal)>,
    ) -> Self {
        let mut spelled = Names::default();
        for name in &names {
            spelled.push(name);
        }
        CnfGrammar {
            alphabet,
            rules: RuleTable::new(names.len(), term_rules, bin_rules),
            names: spelled,
            start,
            accepts_epsilon,
        }
    }

    /// Convert an arbitrary grammar to CNF.
    ///
    /// The input is trimmed first (the paper's "no redundant non-terminals"
    /// assumption); duplicate rules arising during conversion are merged.
    /// Rules come out sorted, terminal and binary ones apart.
    pub fn from_grammar(g: &Grammar) -> Self {
        // ---- Trim the input: its useful non-terminals keep their order. ----
        let keep = useful(g);
        let start = g.start();
        let mut id = vec![NONE; g.nonterminal_count()];
        let mut origin: Vec<Origin> = Vec::new();
        for (i, &k) in keep.iter().enumerate() {
            if k || i == start.index() {
                id[i] = origin.len() as u32;
                origin.push(Origin::Input(NonTerminal(i as u32)));
            }
        }
        let kept: Vec<&Rule> = g
            .rules()
            .iter()
            .filter(|r| {
                keep[r.lhs.index()]
                    && r.rhs.iter().all(|s| match s {
                        Symbol::N(n) => keep[n.index()],
                        Symbol::T(_) => true,
                    })
            })
            .collect();

        // ---- TERM: one proxy per terminal inside a longer body, by first use. ----
        let mut proxy = vec![NONE; g.alphabet().len()];
        for r in kept.iter().filter(|r| r.rhs.len() >= 2) {
            for &s in &r.rhs {
                if let Symbol::T(t) = s {
                    if proxy[t.index()] == NONE {
                        proxy[t.index()] = origin.len() as u32;
                        origin.push(Origin::Proxy(t));
                    }
                }
            }
        }

        // ---- BIN: a body of k ≥ 3 symbols becomes a chain of k − 1 pairs. ----
        let sym = |s: Symbol, in_pair: bool| match s {
            Symbol::N(n) => id[n.index()],
            Symbol::T(t) if in_pair => proxy[t.index()],
            Symbol::T(t) => TERMINAL | u32::from(t.0),
        };
        let pieces: usize = kept.iter().map(|r| r.rhs.len().max(2) - 1).sum();
        let mut arena: Vec<[u32; 3]> = Vec::with_capacity(2 * (pieces + proxy.len()));
        for r in &kept {
            let lhs = id[r.lhs.index()];
            match r.rhs[..] {
                [] => arena.push([lhs, NONE, NONE]),
                [x] => arena.push([lhs, sym(x, false), NONE]),
                ref body => {
                    let k = body.len();
                    let mut prev = lhs;
                    for (i, &s) in body[..k - 2].iter().enumerate() {
                        let link = origin.len() as u32;
                        origin.push(Origin::Link(r.lhs, i + 1));
                        arena.push([prev, sym(s, true), link]);
                        prev = link;
                    }
                    arena.push([prev, sym(body[k - 2], true), sym(body[k - 1], true)]);
                }
            }
        }
        for (t, &p) in proxy.iter().enumerate() {
            if p != NONE {
                arena.push([p, TERMINAL | t as u32, NONE]);
            }
        }

        // ---- DEL: drop ε-rules; a pair with a nullable member also yields
        // the rule without it. Pair bodies hold only non-terminals. ----
        let n = origin.len();
        let null = nullable(n, &arena);
        let accepts_epsilon = null[id[start.index()] as usize];
        for i in 0..arena.len() {
            let [a, x, y] = arena[i];
            if y != NONE {
                if null[y as usize] {
                    arena.push([a, x, NONE]);
                }
                if null[x as usize] {
                    arena.push([a, y, NONE]);
                }
            }
        }
        arena.retain(|&[_, x, _]| x != NONE);
        arena.sort_unstable();
        arena.dedup();

        // ---- UNIT: a derives, in place of each unit rule a → b, every
        // non-unit body of each b in a's unit closure. ----
        let mut off = vec![0usize; n + 1];
        for &[a, _, _] in &arena {
            off[a as usize + 1] += 1;
        }
        for a in 0..n {
            off[a + 1] += off[a];
        }
        let mut term_rules = Vec::new();
        let mut bin_rules = Vec::new();
        let mut seen = vec![NONE; n];
        let mut stack = Vec::new();
        for a in 0..n {
            let lhs = NonTerminal(a as u32);
            seen[a] = a as u32;
            stack.push(a);
            while let Some(b) = stack.pop() {
                for &[_, x, y] in &arena[off[b]..off[b + 1]] {
                    if y != NONE {
                        bin_rules.push((lhs, NonTerminal(x), NonTerminal(y)));
                    } else if x & TERMINAL != 0 {
                        term_rules.push((lhs, Terminal(x as u16)));
                    } else if seen[x as usize] != a as u32 {
                        seen[x as usize] = a as u32;
                        stack.push(x as usize);
                    }
                }
            }
        }
        term_rules.sort_unstable();
        term_rules.dedup();
        bin_rules.sort_unstable();
        bin_rules.dedup();

        // ---- Trim, then spell the survivors' names. ----
        let table = RuleTable::new(n, term_rules, bin_rules);
        let start = NonTerminal(id[start.index()]);
        let (rules, start, kept) = match table.trim(start) {
            Some(trimmed) => trimmed,
            None => (table, start, (0..n as u32).map(NonTerminal).collect()),
        };
        let mut names = Names::default();
        for k in kept {
            match origin[k.index()] {
                Origin::Input(i) => names.push(g.name(i)),
                Origin::Proxy(t) => names.push_fmt(format_args!("⟨{}⟩·{}", g.letter(t), k.0)),
                Origin::Link(of, i) => {
                    names.push_fmt(format_args!("⟨{}#{}⟩·{}", g.name(of), i, k.0))
                }
            }
        }
        CnfGrammar {
            alphabet: g.alphabet().to_vec(),
            names,
            start,
            accepts_epsilon,
            rules,
        }
    }

    /// Remove non-terminals that are unproductive or unreachable.
    pub fn trimmed(&self) -> CnfGrammar {
        let Some((rules, start, kept)) = self.rules.trim(self.start) else {
            return self.clone();
        };
        let mut names = Names::default();
        for k in kept {
            names.push(self.name(k));
        }
        CnfGrammar {
            alphabet: self.alphabet.clone(),
            names,
            start,
            accepts_epsilon: self.accepts_epsilon,
            rules,
        }
    }

    /// View as a generic [`Grammar`] (for printing and shared analyses).
    /// The ε-flag is not representable and is dropped.
    pub fn to_grammar(&self) -> Grammar {
        let mut rules = Vec::with_capacity(self.rule_count());
        for &(a, t) in self.term_rules() {
            rules.push(Rule {
                lhs: a,
                rhs: vec![Symbol::T(t)],
            });
        }
        for &(a, b, c) in self.bin_rules() {
            rules.push(Rule {
                lhs: a,
                rhs: vec![Symbol::N(b), Symbol::N(c)],
            });
        }
        let names = (0..self.names.len())
            .map(|i| self.names.get(i).to_string())
            .collect();
        Grammar::from_parts(self.alphabet.clone(), names, rules, self.start)
    }

    /// The paper's size measure: 1 per terminal rule, 2 per binary rule.
    pub fn size(&self) -> usize {
        self.rules.term_rules.len() + 2 * self.rules.bin_rules.len()
    }

    /// Number of rules.
    pub fn rule_count(&self) -> usize {
        self.rules.term_rules.len() + self.rules.bin_rules.len()
    }

    /// Number of non-terminals.
    pub fn nonterminal_count(&self) -> usize {
        self.names.len()
    }

    /// The start symbol.
    pub fn start(&self) -> NonTerminal {
        self.start
    }

    /// Whether ε ∈ L(G).
    pub fn accepts_epsilon(&self) -> bool {
        self.accepts_epsilon
    }

    /// The alphabet Σ.
    pub fn alphabet(&self) -> &[char] {
        &self.alphabet
    }

    /// All terminal rules `A → a`.
    pub fn term_rules(&self) -> &[(NonTerminal, Terminal)] {
        &self.rules.term_rules
    }

    /// All binary rules `A → B C`.
    pub fn bin_rules(&self) -> &[(NonTerminal, NonTerminal, NonTerminal)] {
        &self.rules.bin_rules
    }

    /// Terminal rules of a given non-terminal.
    pub fn terms_of(&self, a: NonTerminal) -> &[Terminal] {
        self.rules.terms_of(a)
    }

    /// Binary rules of a given non-terminal.
    pub fn bins_of(&self, a: NonTerminal) -> &[(NonTerminal, NonTerminal)] {
        self.rules.bins_of(a)
    }

    /// Display name of a non-terminal.
    pub fn name(&self, a: NonTerminal) -> &str {
        self.names.get(a.index())
    }

    /// The character a terminal stands for.
    pub fn letter(&self, t: Terminal) -> char {
        self.alphabet[t.index()]
    }

    /// Encode a `&str` into terminal ids; `None` if any char is foreign.
    pub fn encode(&self, word: &str) -> Option<Vec<Terminal>> {
        word.chars()
            .map(|c| {
                self.alphabet
                    .iter()
                    .position(|&x| x == c)
                    .map(|i| Terminal(i as u16))
            })
            .collect()
    }

    /// Decode terminal ids back to a `String`.
    pub fn decode(&self, word: &[Terminal]) -> String {
        word.iter().map(|&t| self.letter(t)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GrammarBuilder;

    fn abba_grammar() -> Grammar {
        // S → a B b a | ε-free long body exercising TERM+BIN.
        let mut b = GrammarBuilder::new(&['a', 'b']);
        let s = b.nonterminal("S");
        let bb = b.nonterminal("B");
        b.rule(s, |r| r.t('a').n(bb).t('b').t('a'));
        b.rule(bb, |r| r.t('b'));
        b.build(s)
    }

    #[test]
    fn cnf_shapes_only() {
        let cnf = CnfGrammar::from_grammar(&abba_grammar());
        assert!(!cnf.accepts_epsilon());
        for &(_, _b, _c) in cnf.bin_rules() {}
        // Every non-terminal has only CNF-shaped rules by construction;
        // validate via the generic view.
        let g = cnf.to_grammar();
        for r in g.rules() {
            match r.rhs.as_slice() {
                [Symbol::T(_)] => {}
                [Symbol::N(_), Symbol::N(_)] => {}
                other => panic!("non-CNF rule shape: {other:?}"),
            }
        }
    }

    #[test]
    fn cnf_size_quadratic_bound() {
        let g = abba_grammar();
        let cnf = CnfGrammar::from_grammar(&g);
        assert!(
            cnf.size() <= g.size() * g.size().max(1),
            "CNF size {} exceeds |G|^2 = {}",
            cnf.size(),
            g.size() * g.size()
        );
    }

    #[test]
    fn epsilon_elimination_sets_flag() {
        // S → A A, A → a | ε : language {ε, a, aa}.
        let mut b = GrammarBuilder::new(&['a']);
        let s = b.nonterminal("S");
        let a = b.nonterminal("A");
        b.rule(s, |r| r.n(a).n(a));
        b.rule(a, |r| r.t('a'));
        b.epsilon_rule(a);
        let cnf = CnfGrammar::from_grammar(&b.build(s));
        assert!(cnf.accepts_epsilon());
        // S must still derive "a" and "aa": S → a (via DEL+UNIT) and S → A A.
        assert!(cnf.terms_of(cnf.start()).len() == 1);
        assert!(!cnf.bins_of(cnf.start()).is_empty());
    }

    #[test]
    fn unit_rules_are_eliminated() {
        // S → A, A → B, B → a b
        let mut b = GrammarBuilder::new(&['a', 'b']);
        let s = b.nonterminal("S");
        let a = b.nonterminal("A");
        let bb = b.nonterminal("B");
        b.rule(s, |r| r.n(a));
        b.rule(a, |r| r.n(bb));
        b.rule(bb, |r| r.t('a').t('b'));
        let cnf = CnfGrammar::from_grammar(&b.build(s));
        let g = cnf.to_grammar();
        for r in g.rules() {
            if r.rhs.len() == 1 {
                assert!(r.rhs[0].is_terminal()); // no unit N bodies
            }
        }
        // S itself derives "ab" via a binary rule after unit elimination.
        assert!(!cnf.bins_of(cnf.start()).is_empty());
    }

    #[test]
    fn already_cnf_grammar_is_stable() {
        let mut b = GrammarBuilder::new(&['a']);
        let s = b.nonterminal("S");
        let a = b.nonterminal("A");
        b.rule(s, |r| r.n(a).n(a));
        b.rule(a, |r| r.t('a'));
        let g = b.build(s);
        let cnf = CnfGrammar::from_grammar(&g);
        assert_eq!(cnf.size(), g.size());
        assert_eq!(cnf.rule_count(), g.rule_count());
    }

    #[test]
    fn roundtrip_to_grammar_preserves_size() {
        let cnf = CnfGrammar::from_grammar(&abba_grammar());
        assert_eq!(cnf.size(), cnf.to_grammar().size());
        assert_eq!(cnf.rule_count(), cnf.to_grammar().rule_count());
    }

    #[test]
    fn indexes_are_consistent() {
        let cnf = CnfGrammar::from_grammar(&abba_grammar());
        let by_lhs_total: usize = (0..cnf.nonterminal_count())
            .map(|i| {
                cnf.terms_of(NonTerminal(i as u32)).len() + cnf.bins_of(NonTerminal(i as u32)).len()
            })
            .sum();
        assert_eq!(by_lhs_total, cnf.rule_count());
    }
}
