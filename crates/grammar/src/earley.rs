//! Earley recognition for arbitrary grammars: the workspace's one
//! Earley engine.
//!
//! [`Chart`] is an incremental Earley chart over a token sequence that
//! grows, rewinds and slides. It rests on a locality property of
//! Earley's algorithm: processing set `k` only ever *writes* into set
//! `k` (predict, complete) and set `k + 1` (scan), and only ever
//! *reads* sets `≤ k`. Once a set is closed under predict/complete it
//! is final, which makes three operations cheap:
//!
//! * **append** — scan the newest set into a fresh set, then close the
//!   new set; every earlier set is reused verbatim;
//! * **truncate** — drop a suffix of sets and tokens; the kept prefix
//!   is already final;
//! * **evict** — drop the *front* of the chart (sliding windows). Items
//!   whose origin predates the new base form a closed ecosystem: their
//!   completions only advance waiters in dropped sets, so discarding
//!   them cannot change any item whose origin survives.
//!
//! [`Earley`] is the batch recogniser: it appends a word into a fresh
//! chart, so a chart grown by appends is by construction the chart a
//! from-scratch recognition builds. It works directly on non-CNF
//! grammars (e.g. the Appendix A grammar with its long rule bodies), so
//! it cross-checks both the CNF conversion and the CYK chart;
//! `tests/differential_props.rs` pins it to both CYK fills.

use crate::analysis::nullable;
use crate::cfg::Grammar;
use crate::symbol::{NonTerminal, Symbol, Terminal};
use std::borrow::Borrow;
use std::collections::{HashSet, VecDeque};
use ucfg_support::fnv::Fnv1a;

/// An Earley item: rule `rule` with the dot before position `dot`,
/// started at **absolute** position `origin` (absolute so that window
/// eviction never has to rewrite surviving items).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Item {
    rule: u32,
    dot: u32,
    origin: u64,
}

/// Two hasher writes where the derived impl makes three: the set
/// indexes hash every pushed item, and recognition measured faster so.
impl std::hash::Hash for Item {
    fn hash<H: std::hash::Hasher>(&self, h: &mut H) {
        h.write_u64(u64::from(self.rule) << 32 | u64::from(self.dot));
        h.write_u64(self.origin);
    }
}

impl Item {
    /// The symbol after the dot; `None` for a complete item.
    fn next(self, g: &Grammar) -> Option<Symbol> {
        g.rules()[self.rule as usize]
            .rhs
            .get(self.dot as usize)
            .copied()
    }

    /// The same item with the dot moved over one symbol.
    fn advanced(self) -> Item {
        Item {
            dot: self.dot + 1,
            ..self
        }
    }
}

/// One Earley set: items in insertion order plus a dedup index.
#[derive(Default)]
struct Set {
    items: Vec<Item>,
    seen: HashSet<Item>,
}

impl Set {
    fn push(&mut self, it: Item) {
        if self.seen.insert(it) {
            self.items.push(it);
        }
    }

    /// Predict: add `a → •α`, started at `origin`, for every rule of `a`.
    fn predict(&mut self, g: &Grammar, a: NonTerminal, origin: u64) {
        for (ri, r) in g.rules().iter().enumerate() {
            if r.lhs == a {
                self.push(Item {
                    rule: ri as u32,
                    dot: 0,
                    origin,
                });
            }
        }
    }
}

/// An incremental Earley chart. `G` is `&Grammar` for batch recognition
/// ([`Earley`]) and `Arc<Grammar>` for charts that outlive the caller's
/// borrow (the stream crate's sliding windows); both run the same loop.
///
/// `sets[i]` is the Earley set at absolute position `base + i`, and
/// `tokens[i]` sits between `sets[i]` and `sets[i + 1]`. Every set is
/// closed under predict/complete at all times.
///
/// ```
/// use ucfg_grammar::earley::Chart;
///
/// let g = ucfg_grammar::text::parse_grammar("S -> a S b S | ()").unwrap();
/// let mut chart = Chart::new(&g, false);
/// for t in g.encode("aabb").unwrap() {
///     chart.append(t);
/// }
/// assert!(chart.suffix_complete(0));
/// chart.append(g.terminal_of('a').unwrap());
/// assert!(!chart.suffix_complete(0));
/// chart.truncate(4);
/// assert!(chart.suffix_complete(0));
/// ```
pub struct Chart<G: Borrow<Grammar>> {
    g: G,
    nullable: Vec<bool>,
    /// Seed start-rule items at *every* position, not just position 0,
    /// so "does the suffix starting at `j` parse?" can be read off the
    /// newest set for every `j` at once.
    all_starts: bool,
    /// Absolute position of `sets[0]`.
    base: u64,
    tokens: VecDeque<Terminal>,
    sets: VecDeque<Set>,
}

impl<G: Borrow<Grammar>> Chart<G> {
    /// An empty chart at position 0, its set seeded and closed. With
    /// `all_starts`, start-rule items are seeded at every position
    /// (sliding-window mode), not at position 0 only.
    pub fn new(g: G, all_starts: bool) -> Self {
        let nullable = nullable(g.borrow());
        Self::with_nullable(g, nullable, all_starts)
    }

    fn with_nullable(g: G, nullable: Vec<bool>, all_starts: bool) -> Self {
        let mut chart = Chart {
            g,
            nullable,
            all_starts,
            base: 0,
            tokens: VecDeque::new(),
            sets: VecDeque::new(),
        };
        chart.push_set(Set::default());
        chart
    }

    /// The grammar this chart parses against.
    pub fn grammar(&self) -> &G {
        &self.g
    }

    /// Absolute position of the oldest retained set.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Absolute position of the newest set (= tokens ever appended minus
    /// those truncated away).
    pub fn total(&self) -> u64 {
        self.base + self.tokens.len() as u64
    }

    /// Retained tokens, oldest first.
    pub fn tokens(&self) -> impl ExactSizeIterator<Item = Terminal> + '_ {
        self.tokens.iter().copied()
    }

    /// Total live items across all retained sets.
    pub fn cells(&self) -> u64 {
        self.sets.iter().map(|s| s.items.len() as u64).sum()
    }

    fn newest(&self) -> &Set {
        self.sets
            .back()
            .expect("a chart always holds its newest set")
    }

    /// Seed (position 0, or every position in all-starts mode) and close
    /// `set`, the set at position `total()`, then retain it.
    fn push_set(&mut self, mut set: Set) {
        let g = self.g.borrow();
        let here = self.total();
        if here == 0 || self.all_starts {
            set.predict(g, g.start(), here);
        }
        let mut i = 0;
        while i < set.items.len() {
            let it = set.items[i];
            i += 1;
            match it.next(g) {
                Some(Symbol::N(b)) => {
                    set.predict(g, b, here);
                    // Aycock–Horspool nullable fix: advance over a
                    // nullable `b` at once, so late-predicted items are
                    // not missed by an already-processed completion.
                    if self.nullable[b.index()] {
                        set.push(it.advanced());
                    }
                }
                // Scan waits for the next token.
                Some(Symbol::T(_)) => {}
                // Complete an item started here: the range is fixed, and
                // waiters added later are covered by the nullable fix.
                None if it.origin == here => {
                    let waiting = Some(Symbol::N(g.rules()[it.rule as usize].lhs));
                    for j in 0..set.items.len() {
                        let p = set.items[j];
                        if p.next(g) == waiting {
                            set.push(p.advanced());
                        }
                    }
                }
                // Complete an item started in a retained set. An origin
                // before the base points at an evicted set; its waiters
                // were evicted with it and can only beget pre-base items.
                None if it.origin >= self.base => {
                    let waiting = Some(Symbol::N(g.rules()[it.rule as usize].lhs));
                    for &p in &self.sets[(it.origin - self.base) as usize].items {
                        if p.next(g) == waiting {
                            set.push(p.advanced());
                        }
                    }
                }
                None => {}
            }
        }
        self.sets.push_back(set);
    }

    /// Append one token: scan the newest set into a fresh set, then seed
    /// and close that. Every earlier set is reused untouched.
    pub fn append(&mut self, t: Terminal) {
        let g = self.g.borrow();
        let mut next = Set::default();
        for &it in &self.newest().items {
            // Pre-base items are stale and await a prune.
            if it.origin >= self.base && it.next(g) == Some(Symbol::T(t)) {
                next.push(it.advanced());
            }
        }
        self.tokens.push_back(t);
        self.push_set(next);
    }

    /// Rewind to absolute position `to`, keeping the first `to - base`
    /// retained tokens. The kept sets are final, so this is a pure
    /// truncation.
    ///
    /// # Panics
    ///
    /// If `to` is outside `[base, total]`; callers validate.
    pub fn truncate(&mut self, to: u64) {
        assert!(
            to >= self.base && to <= self.total(),
            "truncate {to} outside [{}, {}]",
            self.base,
            self.total()
        );
        let keep = (to - self.base) as usize;
        self.tokens.truncate(keep);
        self.sets.truncate(keep + 1);
    }

    /// Drop the oldest set and token, advancing the base by one. Stale
    /// items (origin < base) left in surviving sets are skipped by scan
    /// and complete, and removed by the next [`Chart::prune`].
    pub fn evict_front(&mut self) {
        assert!(!self.tokens.is_empty(), "evicting an empty chart");
        self.sets.pop_front();
        self.tokens.pop_front();
        self.base += 1;
    }

    /// Remove items whose origin predates the base from every retained
    /// set, so set sizes stay proportional to the window. Answers do
    /// not change; callers amortise the cost over many evictions.
    pub fn prune(&mut self) {
        let base = self.base;
        for set in &mut self.sets {
            if set.items.iter().any(|it| it.origin < base) {
                set.items.retain(|it| it.origin >= base);
                set.seen.retain(|it| it.origin >= base);
            }
        }
    }

    /// Is there a complete start-rule item with origin `j` in the newest
    /// set? For `j = 0` on a fresh chart, and for every retained `j` in
    /// all-starts mode, this says `tokens[j..total] ∈ L(G)`.
    pub fn suffix_complete(&self, j: u64) -> bool {
        let g = self.g.borrow();
        self.newest().items.iter().any(|it| {
            it.origin == j && it.next(g).is_none() && g.rules()[it.rule as usize].lhs == g.start()
        })
    }

    /// An order-insensitive digest of the retained chart: base, tokens,
    /// mode, and every set as a sorted item list. Equal fingerprints
    /// mean identical item sets at identical positions.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.write_u64(self.base)
            .write_usize(self.tokens.len())
            .write_u8(u8::from(self.all_starts));
        for t in &self.tokens {
            h.write_u64(t.index() as u64);
        }
        for set in &self.sets {
            let mut items = set.items.clone();
            items.sort_unstable();
            h.write_usize(items.len());
            for it in items {
                h.write_u64(u64::from(it.rule))
                    .write_u64(u64::from(it.dot))
                    .write_u64(it.origin);
            }
        }
        h.finish()
    }
}

/// Batch Earley recogniser: the grammar's nullable table computed once,
/// and a fresh [`Chart`] per word.
pub struct Earley<'g> {
    g: &'g Grammar,
    nullable: Vec<bool>,
}

impl<'g> Earley<'g> {
    /// Wrap a grammar for recognition.
    pub fn new(g: &'g Grammar) -> Self {
        Self::with_nullable(g, nullable(g))
    }

    /// Wrap a grammar with a precomputed nullable table (the "Earley
    /// table" an artifact cache stores alongside the grammar), skipping
    /// the per-construction [`nullable`] fixpoint.
    ///
    /// `precomputed` must be `nullable(g)` for this exact grammar; a
    /// mismatched table gives wrong answers, so this is checked by a
    /// debug assertion.
    pub fn with_nullable(g: &'g Grammar, precomputed: Vec<bool>) -> Self {
        debug_assert_eq!(precomputed, nullable(g), "nullable table mismatch");
        Earley {
            g,
            nullable: precomputed,
        }
    }

    /// Is `word ∈ L(G)`? Appends `word` into a fresh chart.
    pub fn recognize(&self, word: &[Terminal]) -> bool {
        let mut chart = Chart::with_nullable(self.g, self.nullable.clone(), false);
        for &t in word {
            chart.append(t);
        }
        chart.suffix_complete(0)
    }

    /// Recognise a `&str` (must be over the grammar's alphabet).
    pub fn recognize_str(&self, w: &str) -> bool {
        match self.g.encode(w) {
            Some(word) => self.recognize(&word),
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GrammarBuilder;
    use crate::cyk::CykChart;
    use crate::normal_form::CnfGrammar;
    use crate::text::parse_grammar;

    #[test]
    fn recognizes_regular_language() {
        // S → a S | b : a*b
        let mut b = GrammarBuilder::new(&['a', 'b']);
        let s = b.nonterminal("S");
        b.rule(s, |r| r.t('a').n(s));
        b.rule(s, |r| r.t('b'));
        let g = b.build(s);
        let e = Earley::new(&g);
        assert!(e.recognize_str("b"));
        assert!(e.recognize_str("aaab"));
        assert!(!e.recognize_str("ba"));
        assert!(!e.recognize_str(""));
        assert!(!e.recognize_str("abc")); // foreign letter
    }

    #[test]
    fn recognizes_dyck_like() {
        // S → a S b S | ε  over {a,b} = balanced with a=( and b=).
        let mut b = GrammarBuilder::new(&['a', 'b']);
        let s = b.nonterminal("S");
        b.rule(s, |r| r.t('a').n(s).t('b').n(s));
        b.epsilon_rule(s);
        let g = b.build(s);
        let e = Earley::new(&g);
        for w in ["", "ab", "aabb", "abab", "aababb"] {
            assert!(e.recognize_str(w), "{w}");
        }
        for w in ["a", "ba", "abb", "aab"] {
            assert!(!e.recognize_str(w), "{w}");
        }
    }

    #[test]
    fn handles_long_bodies_without_cnf() {
        // S → a B b a ; B → b | a a
        let mut b = GrammarBuilder::new(&['a', 'b']);
        let s = b.nonterminal("S");
        let bb = b.nonterminal("B");
        b.rule(s, |r| r.t('a').n(bb).t('b').t('a'));
        b.rule(bb, |r| r.t('b'));
        b.rule(bb, |r| r.ts("aa"));
        let g = b.build(s);
        let e = Earley::new(&g);
        assert!(e.recognize_str("abba"));
        assert!(e.recognize_str("aaaba"));
        assert!(!e.recognize_str("abab"));
    }

    #[test]
    fn nullable_chains() {
        // S → A A a ; A → ε : language {a}
        let mut b = GrammarBuilder::new(&['a']);
        let s = b.nonterminal("S");
        let a = b.nonterminal("A");
        b.rule(s, |r| r.n(a).n(a).t('a'));
        b.epsilon_rule(a);
        let g = b.build(s);
        let e = Earley::new(&g);
        assert!(e.recognize_str("a"));
        assert!(!e.recognize_str(""));
        assert!(!e.recognize_str("aa"));
    }

    #[test]
    fn with_nullable_matches_new() {
        let mut b = GrammarBuilder::new(&['a', 'b']);
        let s = b.nonterminal("S");
        b.rule(s, |r| r.t('a').n(s).t('b').n(s));
        b.epsilon_rule(s);
        let g = b.build(s);
        let table = crate::analysis::nullable(&g);
        let e = Earley::with_nullable(&g, table);
        assert!(e.recognize_str("aabb"));
        assert!(!e.recognize_str("ba"));
    }

    #[test]
    fn unit_cycles_terminate() {
        // S → A, A → S | a.
        let mut b = GrammarBuilder::new(&['a']);
        let s = b.nonterminal("S");
        let a = b.nonterminal("A");
        b.rule(s, |r| r.n(a));
        b.rule(a, |r| r.n(s));
        b.rule(a, |r| r.t('a'));
        let g = b.build(s);
        let e = Earley::new(&g);
        assert!(e.recognize_str("a"));
        assert!(!e.recognize_str("aa"));
    }

    fn dyck() -> Grammar {
        parse_grammar("S -> a S b S | ()").unwrap()
    }

    fn append_str(chart: &mut Chart<&Grammar>, text: &str) {
        for t in chart.grammar().encode(text).unwrap() {
            chart.append(t);
        }
    }

    #[test]
    fn append_tracks_full_recognition() {
        let g = dyck();
        let cnf = CnfGrammar::from_grammar(&g);
        let mut chart = Chart::new(&g, false);
        assert!(chart.suffix_complete(0), "empty word is balanced");
        let text = "aabbabab";
        for (i, c) in text.char_indices() {
            chart.append(g.terminal_of(c).unwrap());
            let prefix = cnf.encode(&text[..=i]).unwrap();
            assert_eq!(
                chart.suffix_complete(0),
                CykChart::build_scalar(&cnf, &prefix).accepted(),
                "prefix {}",
                &text[..=i]
            );
        }
        assert_eq!(chart.total(), 8);
    }

    #[test]
    fn truncate_rewinds_to_the_earlier_chart() {
        let g = dyck();
        let mut chart = Chart::new(&g, false);
        append_str(&mut chart, "aabb");
        let (at, fp) = (chart.total(), chart.fingerprint());
        append_str(&mut chart, "ababab");
        assert_ne!(chart.fingerprint(), fp);
        chart.truncate(at);
        assert_eq!(chart.fingerprint(), fp);
        assert!(chart.suffix_complete(0));
        // Truncating to the current position is a no-op.
        chart.truncate(chart.total());
        assert_eq!(chart.fingerprint(), fp);
    }

    #[test]
    #[should_panic(expected = "truncate 10 outside [0, 4]")]
    fn truncate_refuses_a_position_from_the_discarded_future() {
        let g = dyck();
        let mut chart = Chart::new(&g, false);
        append_str(&mut chart, "aabbab");
        chart.truncate(4);
        chart.truncate(10);
    }

    #[test]
    fn incremental_chart_matches_from_scratch() {
        let g = dyck();
        let mut incremental = Chart::new(&g, false);
        append_str(&mut incremental, "aab");
        incremental.truncate(1);
        append_str(&mut incremental, "babab");

        // Final token sequence: "a" + "babab".
        let mut fresh = Chart::new(&g, false);
        append_str(&mut fresh, "ababab");
        assert_eq!(incremental.fingerprint(), fresh.fingerprint());
        assert_eq!(incremental.cells(), fresh.cells());
    }
}
