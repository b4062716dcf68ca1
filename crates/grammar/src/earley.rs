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
//!
//! A **counting** chart holds the same items, each with its inside
//! count: the number of derivations of the tokens between its origin and
//! its set by the symbols before its dot. [`count_trees`] and
//! [`InsideCounter`] run it over a CNF grammar's view
//! ([`CnfGrammar::to_grammar`]), so their counts equal
//! [`CykChart::count_trees`](crate::cyk::CykChart::count_trees) by
//! construction, at O(n²) on unambiguous grammars where the CYK chart
//! costs O(n³), and stop at the first position where the prefix dies.

use crate::analysis::nullable;
use crate::bignum::BigUint;
use crate::cfg::Grammar;
use crate::normal_form::CnfGrammar;
use crate::symbol::{NonTerminal, Symbol, Terminal};
use std::borrow::{Borrow, Cow};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet, VecDeque};
use ucfg_support::fnv::Fnv1a;
use ucfg_support::obs;

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

    /// The rule's left-hand side.
    fn lhs(self, g: &Grammar) -> NonTerminal {
        g.rules()[self.rule as usize].lhs
    }
}

/// An exact derivation count: a `u64` while it fits, promoted exactly
/// to a [`BigUint`] when a sum or product overflows.
#[derive(Debug, Clone)]
enum Count {
    Small(u64),
    Big(BigUint),
}

impl Count {
    fn from_u128(v: u128) -> Count {
        u64::try_from(v).map_or_else(|_| Count::Big(BigUint::from_u128(v)), Count::Small)
    }

    fn big(&self) -> Cow<'_, BigUint> {
        match self {
            Count::Small(v) => Cow::Owned(BigUint::from_u64(*v)),
            Count::Big(b) => Cow::Borrowed(b),
        }
    }

    fn product(a: &Count, b: &Count) -> Count {
        match (a, b) {
            (Count::Small(x), Count::Small(y)) => Count::from_u128(u128::from(*x) * u128::from(*y)),
            _ => Count::Big(&*a.big() * &*b.big()),
        }
    }

    fn add(&mut self, other: &Count) {
        *self = match (&*self, other) {
            (Count::Small(x), Count::Small(y)) => Count::from_u128(u128::from(*x) + u128::from(*y)),
            _ => Count::Big(&*self.big() + &*other.big()),
        };
    }
}

/// One Earley set: items in insertion order plus a dedup index.
///
/// A counting chart's sets leave `seen` empty (their closure needs no
/// general dedup, see [`Chart::close_counted`]) and fill the counting
/// fields instead.
#[derive(Default)]
struct Set {
    items: Vec<Item>,
    seen: HashSet<Item>,
    /// The inside count of each item, parallel to `items`.
    counts: Vec<Count>,
    /// Indices of the items whose next symbol is a non-terminal, grouped
    /// by that non-terminal: `B`'s waiters are
    /// `waiting[waiting_at[B]..waiting_at[B + 1]]`.
    waiting: Vec<u32>,
    waiting_at: Vec<u32>,
}

impl Set {
    fn push(&mut self, it: Item) {
        if self.seen.insert(it) {
            self.items.push(it);
        }
    }

    /// Predict: add `a → •α`, started at `origin`, for every rule of `a`.
    fn predict(&mut self, g: &Grammar, a: NonTerminal, origin: u64) {
        for &ri in &g.rules_by_lhs[a.index()] {
            self.push(Item {
                rule: ri as u32,
                dot: 0,
                origin,
            });
        }
    }

    /// Index the waiters: `waits` holds `(B, i)` for every item `i`
    /// whose next symbol is the non-terminal `B`, in item order; a
    /// counting sort groups them by `B` into `waiting`.
    fn index_waiting(&mut self, nonterminals: usize, waits: &[(NonTerminal, u32)]) {
        let mut at = vec![0u32; nonterminals + 1];
        for &(b, _) in waits {
            at[b.index() + 1] += 1;
        }
        for b in 0..nonterminals {
            at[b + 1] += at[b];
        }
        let mut fill = at.clone();
        self.waiting = vec![0; waits.len()];
        for &(b, i) in waits {
            self.waiting[fill[b.index()] as usize] = i;
            fill[b.index()] += 1;
        }
        self.waiting_at = at;
    }

    /// The indices of the items whose next symbol is `b`.
    fn waiting_on(&self, b: NonTerminal) -> &[u32] {
        &self.waiting[self.waiting_at[b.index()] as usize..self.waiting_at[b.index() + 1] as usize]
    }
}

/// Counting mode's working buffers, reused from set to set.
#[derive(Default)]
struct Scratch {
    /// Complete items of the set being closed, as `(lhs, index)`, by
    /// origin (offset from the base).
    by_origin: Vec<Vec<(NonTerminal, u32)>>,
    /// Bit `o` is set while `by_origin[o]` is not empty.
    pending: Vec<u64>,
    /// Items with two or more symbols before the dot, to their index.
    split_items: HashMap<Item, u32>,
    /// Non-terminals already predicted in the set being closed.
    predicted: Vec<bool>,
    /// `(B, i)` for every item `i` of the set being closed whose next
    /// symbol is the non-terminal `B`.
    waits: Vec<(NonTerminal, u32)>,
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
    /// Counting mode ([`Chart::counting`]): every item carries its
    /// inside count, and the closure works in these buffers.
    counting: Option<Scratch>,
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
            counting: None,
            base: 0,
            tokens: VecDeque::new(),
            sets: VecDeque::new(),
        };
        chart.push_set(Set::default());
        chart
    }

    /// An empty counting chart at position 0: it holds the items a
    /// [`Chart::new`]`(g, false)` chart holds, each with its inside
    /// count, so [`Chart::count`] reads the number of parse trees of the
    /// appended word. A counting chart grows and truncates but does not
    /// slide. `g` must have no ε-rules and no unit rules `A → B`: the
    /// counting closure relies on every symbol spanning at least one
    /// token.
    fn counting(g: G) -> Self {
        let grammar = g.borrow();
        debug_assert!(
            grammar
                .rules()
                .iter()
                .all(|r| !matches!(r.rhs[..], [] | [Symbol::N(_)])),
            "a counting chart needs a grammar without ε-rules and unit rules"
        );
        // Without ε-rules nothing is nullable.
        let nullable = vec![false; grammar.nonterminal_count()];
        let mut chart = Chart {
            g,
            nullable,
            all_starts: false,
            counting: Some(Scratch::default()),
            base: 0,
            tokens: VecDeque::new(),
            sets: VecDeque::new(),
        };
        chart.close_counted(Set::default());
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

    /// Close `set`, the set at position `total()`, in counting mode,
    /// then retain it. `set` holds the scanned items and their counts.
    ///
    /// Without ε-rules no item completes in the set that predicted it,
    /// and without unit rules a complete item's last symbol starts
    /// strictly after its origin. So an item complete here with origin
    /// `i` draws all its derivations from complete items with origins
    /// above `i`: completing in decreasing origin order makes each count
    /// final before it propagates. Complete items sharing an origin and a
    /// left-hand side advance their waiters once, with summed counts.
    /// Predictions come last: they never complete in their own set.
    fn close_counted(&mut self, mut set: Set) {
        let here = self.total();
        let (g, base, sets) = (self.g.borrow(), self.base, &self.sets);
        let scratch = self.counting.as_mut().expect("a counting chart");
        let span = (here - base) as usize;
        if scratch.by_origin.len() < span {
            scratch.by_origin.resize_with(span, Vec::new);
            scratch.pending.resize(span.div_ceil(64), 0);
        }
        let pend = |scratch: &mut Scratch, it: Item, i: usize| {
            let origin = (it.origin - base) as usize;
            scratch.by_origin[origin].push((it.lhs(g), i as u32));
            scratch.pending[origin / 64] |= 1 << (origin % 64);
        };
        for (i, &it) in set.items.iter().enumerate() {
            if it.next(g).is_none() {
                pend(scratch, it, i);
            }
        }
        // Only an item with two or more symbols before its dot can be
        // reached from more than one split point, so only such items are
        // looked up; every other advance creates a new item.
        scratch.split_items.clear();
        // Completing only adds items of smaller origin, so the highest
        // pending origin never rises and its bitmap word only moves down.
        let mut word = span.div_ceil(64);
        while word > 0 {
            if scratch.pending[word - 1] == 0 {
                word -= 1;
                continue;
            }
            let bit = 63 - scratch.pending[word - 1].leading_zeros() as usize;
            scratch.pending[word - 1] &= !(1 << bit);
            let origin = (word - 1) * 64 + bit;
            let mut complete = std::mem::take(&mut scratch.by_origin[origin]);
            complete.sort_unstable();
            for group in complete.chunk_by(|x, y| x.0 == y.0) {
                let mut inside = set.counts[group[0].1 as usize].clone();
                for &(_, j) in &group[1..] {
                    inside.add(&set.counts[j as usize]);
                }
                let from = &sets[origin];
                for &w in from.waiting_on(group[0].0) {
                    let target = from.items[w as usize].advanced();
                    let count = Count::product(&from.counts[w as usize], &inside);
                    if target.dot >= 2 {
                        match scratch.split_items.entry(target) {
                            Entry::Occupied(e) => {
                                set.counts[*e.get() as usize].add(&count);
                                continue;
                            }
                            Entry::Vacant(e) => {
                                e.insert(set.items.len() as u32);
                            }
                        }
                    }
                    if target.next(g).is_none() {
                        pend(scratch, target, set.items.len());
                    }
                    set.items.push(target);
                    set.counts.push(count);
                }
            }
            complete.clear();
            scratch.by_origin[origin] = complete;
        }
        // Predict each non-terminal once; a predicted item's count is 1.
        let predicted = &mut scratch.predicted;
        predicted.clear();
        predicted.resize(g.nonterminal_count(), false);
        let mut predict = |set: &mut Set, a: NonTerminal| {
            if !std::mem::replace(&mut predicted[a.index()], true) {
                for &ri in &g.rules_by_lhs[a.index()] {
                    set.items.push(Item {
                        rule: ri as u32,
                        dot: 0,
                        origin: here,
                    });
                    set.counts.push(Count::Small(1));
                }
            }
        };
        if here == 0 {
            predict(&mut set, g.start());
        }
        let waits = &mut scratch.waits;
        waits.clear();
        let mut i = 0;
        while i < set.items.len() {
            if let Some(Symbol::N(b)) = set.items[i].next(g) {
                predict(&mut set, b);
                waits.push((b, i as u32));
            }
            i += 1;
        }
        set.index_waiting(g.nonterminal_count(), waits);
        self.sets.push_back(set);
    }

    /// Append one token: scan the newest set into a fresh set, then seed
    /// and close that. Every earlier set is reused untouched.
    pub fn append(&mut self, t: Terminal) {
        if self.counting.is_some() {
            return self.append_counted(t);
        }
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

    /// [`Chart::append`] in counting mode: a scanned item keeps its count.
    fn append_counted(&mut self, t: Terminal) {
        let g = self.g.borrow();
        let newest = self.newest();
        let mut next = Set::default();
        for (it, count) in newest.items.iter().zip(&newest.counts) {
            if it.next(g) == Some(Symbol::T(t)) {
                next.items.push(it.advanced());
                next.counts.push(count.clone());
            }
        }
        self.tokens.push_back(t);
        self.close_counted(next);
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

    /// Does the newest set hold no items? A chart seeded at position 0
    /// only then has a dead prefix: no extension of its tokens parses.
    fn is_dead(&self) -> bool {
        self.newest().items.is_empty()
    }

    /// The number of parse trees of the appended word, on a counting
    /// chart: the summed counts of the complete start-rule items with
    /// origin 0 in the newest set.
    fn count(&self) -> BigUint {
        let g = self.g.borrow();
        let mut total = Count::Small(0);
        for (it, count) in self.newest().items.iter().zip(&self.newest().counts) {
            if it.origin == 0 && it.next(g).is_none() && it.lhs(g) == g.start() {
                total.add(count);
            }
        }
        total.big().into_owned()
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

/// Exact parse-tree counts over a CNF grammar by an Earley inside pass:
/// the grammar's view ([`CnfGrammar::to_grammar`], free of ε-rules and
/// unit rules) is built once, and each word runs through a fresh
/// counting [`Chart`]. Counts equal
/// [`CykChart::count_trees`](crate::cyk::CykChart::count_trees).
///
/// ```
/// use ucfg_grammar::earley::InsideCounter;
/// use ucfg_grammar::text::parse_grammar;
/// use ucfg_grammar::CnfGrammar;
///
/// let cnf = CnfGrammar::from_grammar(&parse_grammar("S -> S S | a").unwrap());
/// let counter = InsideCounter::new(&cnf);
/// // a⁴ has Catalan(3) = 5 parse trees; the empty word has none.
/// assert_eq!(counter.count(&cnf.encode("aaaa").unwrap()).to_u64(), Some(5));
/// assert!(counter.count(&[]).is_zero());
/// ```
#[derive(Debug)]
pub struct InsideCounter {
    view: Grammar,
    accepts_epsilon: bool,
}

impl InsideCounter {
    /// Build the CNF view of `g`.
    pub fn new(g: &CnfGrammar) -> Self {
        InsideCounter {
            view: g.to_grammar(),
            accepts_epsilon: g.accepts_epsilon(),
        }
    }

    /// The number of parse trees of `word`. The pass stops at the first
    /// position where the prefix dies.
    pub fn count(&self, word: &[Terminal]) -> BigUint {
        if word.is_empty() {
            return BigUint::from_u64(u64::from(self.accepts_epsilon));
        }
        obs::count!("earley.count.passes");
        let mut chart = Chart::counting(&self.view);
        for &t in word {
            chart.append(t);
            if chart.is_dead() {
                break;
            }
        }
        obs::count!("earley.count.items", chart.cells());
        if chart.is_dead() {
            BigUint::zero()
        } else {
            chart.count()
        }
    }
}

/// The number of parse trees of `word` under `g`; see [`InsideCounter`].
pub fn count_trees(g: &CnfGrammar, word: &[Terminal]) -> BigUint {
    InsideCounter::new(g).count(word)
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
    fn counting_chart_holds_the_recognizers_items() {
        for (src, text) in [
            ("S -> a S b S | ()", "aabbabaabb"),
            ("S -> S S | a", "aaaaaaa"),
            ("S -> a S b | S S | a b", "aabbab"),
        ] {
            let view = CnfGrammar::from_grammar(&parse_grammar(src).unwrap()).to_grammar();
            let mut plain = Chart::new(&view, false);
            let mut counting = Chart::counting(&view);
            assert_eq!(plain.fingerprint(), counting.fingerprint(), "{src}");
            for t in view.encode(text).unwrap() {
                plain.append(t);
                counting.append(t);
                assert_eq!(plain.fingerprint(), counting.fingerprint(), "{src}");
            }
        }
    }

    #[test]
    fn counts_promote_past_u64_exactly() {
        // a^40 under S → S S | a has Catalan(39) ≈ 6.8·10²⁰ trees.
        let g = CnfGrammar::from_grammar(&parse_grammar("S -> S S | a").unwrap());
        let w = vec![Terminal(0); 40];
        let n = count_trees(&g, &w);
        assert!(n.to_u64().is_none(), "Catalan(39) overflows u64");
        assert_eq!(n.to_string(), "680425371729975800390");
        assert_eq!(n, CykChart::build_scalar(&g, &w).count_trees());
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
