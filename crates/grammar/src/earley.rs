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
//! Counting is a separate engine, not a mode of the chart.
//! [`InsideCounter`] runs Earley's algorithm specialised to a
//! [`CnfGrammar`]'s rule arrays: predictions are a bitset per position,
//! dot-one items `A → B•C` are grouped by `C`, and complete items carry
//! their inside count, summed in place. Its counts (and [`count_trees`]'s)
//! equal [`CykChart::count_trees`](crate::cyk::CykChart::count_trees) at
//! O(n²) on unambiguous grammars where the CYK chart costs O(n³), and the
//! pass stops at the first position where the prefix dies.

use crate::analysis::nullable;
use crate::bignum::BigUint;
use crate::cfg::Grammar;
use crate::normal_form::CnfGrammar;
use crate::symbol::{NonTerminal, Symbol, Terminal};
use std::borrow::{Borrow, Cow};
use std::collections::{HashSet, VecDeque};
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
        for &ri in &g.rules_by_lhs[a.index()] {
            self.push(Item {
                rule: ri as u32,
                dot: 0,
                origin,
            });
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

/// Exact parse-tree counts over a CNF grammar by an Earley inside pass
/// that reads the grammar's rule arrays directly. Counts equal
/// [`CykChart::count_trees`](crate::cyk::CykChart::count_trees).
///
/// A CNF grammar has no ε-rules and no unit rules, so Earley's items
/// reduce to three kinds, each kept in its own table:
///
/// * **predicted** items `A → •α` are implied by a bitset per position:
///   the union of the left-corner closures of the non-terminals awaited
///   there;
/// * **dot-one** items `A → B•C` with their origin and the inside count
///   of `B`, stored per position and grouped by `C`;
/// * **complete** items: at each position, the inside count of every
///   `(A, origin)` that derives the span, summed in place.
///
/// A complete `A` with origin `i` draws all its derivations from complete
/// items with origins above `i` (`C` in `A → B C` starts strictly after
/// `i`), so each position processes its origins in decreasing order and
/// every count is final before it propagates. Counts are `u64` until a
/// sum or product overflows, then exact [`BigUint`]s. A position where
/// no dot-one item awaits anything ends the pass: no extension of the
/// prefix parses.
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
    start: usize,
    accepts_epsilon: bool,
    nonterminals: usize,
    /// `u64` words per set of non-terminals.
    words: usize,
    /// The left-hand sides of letter `t`'s terminal rules, one entry per
    /// rule: `term_lhs[term_at[t]..term_at[t + 1]]`.
    term_at: Vec<u32>,
    term_lhs: Vec<u32>,
    /// `(A, C)` for each binary rule `A → B C`, grouped by `B`:
    /// `by_first[first_at[B]..first_at[B + 1]]`.
    first_at: Vec<u32>,
    by_first: Vec<(u32, u32)>,
    /// Each non-terminal's reflexive left-corner closure, `words` words
    /// each: `A` and the first child of every binary rule of a member.
    closure: Vec<u64>,
}

impl InsideCounter {
    /// Build the rule tables of `g`.
    pub fn new(g: &CnfGrammar) -> Self {
        let nonterminals = g.nonterminal_count();
        let words = nonterminals.div_ceil(64);
        let letters = g.term_rules().iter().map(|&(_, t)| t.index() + 1).max();
        let (term_at, term_lhs) = grouped(
            letters.unwrap_or(0),
            g.term_rules().iter().map(|&(a, t)| (t.index(), a.0)),
        );
        let (first_at, by_first) = grouped(
            nonterminals,
            g.bin_rules()
                .iter()
                .map(|&(a, b, c)| (b.index(), (a.0, c.0))),
        );
        let mut closure = vec![0u64; nonterminals * words];
        let mut stack = Vec::new();
        for (a, row) in closure.chunks_exact_mut(words.max(1)).enumerate() {
            row[a / 64] |= 1 << (a % 64);
            stack.push(a);
            while let Some(x) = stack.pop() {
                for &(b, _) in g.bins_of(NonTerminal(x as u32)) {
                    let b = b.index();
                    if row[b / 64] >> (b % 64) & 1 == 0 {
                        row[b / 64] |= 1 << (b % 64);
                        stack.push(b);
                    }
                }
            }
        }
        InsideCounter {
            start: g.start().index(),
            accepts_epsilon: g.accepts_epsilon(),
            nonterminals,
            words,
            term_at,
            term_lhs,
            first_at,
            by_first,
            closure,
        }
    }

    /// The left-hand sides of `t`'s terminal rules.
    fn terminal_lhs(&self, t: Terminal) -> &[u32] {
        match self.term_at.get(t.index() + 1) {
            Some(&end) => &self.term_lhs[self.term_at[t.index()] as usize..end as usize],
            None => &[],
        }
    }

    /// `(A, C)` for each binary rule `A → b C`.
    fn with_first(&self, b: u32) -> &[(u32, u32)] {
        let b = b as usize;
        &self.by_first[self.first_at[b] as usize..self.first_at[b + 1] as usize]
    }

    /// The non-terminals `a` predicts, `a` included.
    fn closure_of(&self, a: usize) -> &[u64] {
        &self.closure[a * self.words..(a + 1) * self.words]
    }

    /// The number of parse trees of `word`. The pass stops at the first
    /// position where the prefix dies.
    pub fn count(&self, word: &[Terminal]) -> BigUint {
        let n = word.len();
        if n == 0 {
            return BigUint::from_u64(u64::from(self.accepts_epsilon));
        }
        obs::count!("earley.count.passes");
        let words = self.words;
        // `predicted[j * words..][..words]`: the non-terminals predicted at
        // position `j`. Position 0 awaits the start symbol.
        let mut predicted = vec![0u64; n * words];
        predicted[..words].copy_from_slice(self.closure_of(self.start));
        let is_predicted =
            |p: &[u64], j: usize, a: u32| p[j * words + a as usize / 64] >> (a % 64) & 1 == 1;
        let mut waiting = Waiting::new(self.nonterminals);
        let mut done = Completions::new(n, self.nonterminals);
        let mut fresh = Vec::new();
        let mut completed = 0;
        let total = 'pass: {
            for k in 1..=n {
                // Scan: a terminal rule of a non-terminal predicted before
                // the letter completes over it.
                for &a in self.terminal_lhs(word[k - 1]) {
                    if is_predicted(&predicted, k - 1, a) {
                        done.entry(a, k - 1).add(&Count::Small(1));
                    }
                }
                // Complete, highest origin first: `(x, o)` advances the
                // dot-one items at `o` awaiting `x`, whose origins lie
                // below `o`, and starts a dot-one item `A → x•C` here for
                // every rule of a non-terminal `A` predicted at `o`.
                let mut o = k;
                while o > done.lowest {
                    o -= 1;
                    let mut d = done.head[o];
                    while d != 0 {
                        let i = d as usize - 1;
                        d = done.next[i];
                        let x = done.items[i].0;
                        let inside = std::mem::replace(&mut done.items[i].2, Count::Small(0));
                        for w in waiting.awaiting(o, x) {
                            let (a, origin) = waiting.items[w];
                            done.entry(a, origin as usize)
                                .add_product(&waiting.counts[w], &inside);
                        }
                        if k < n {
                            for &(a, c) in self.with_first(x) {
                                if is_predicted(&predicted, o, a) {
                                    fresh.push((c, a, o as u32, inside.clone()));
                                }
                            }
                        }
                        done.items[i].2 = inside;
                    }
                }
                completed += done.items.len() as u64;
                if k == n {
                    break;
                }
                done.clear();
                waiting.push_position(&mut fresh);
                let awaited = waiting.groups_at(k);
                if awaited.is_empty() {
                    break 'pass Count::Small(0);
                }
                let here = &mut predicted[k * words..(k + 1) * words];
                for &(c, _) in awaited {
                    for (p, &q) in here.iter_mut().zip(self.closure_of(c as usize)) {
                        *p |= q;
                    }
                }
            }
            done.get(self.start as u32, 0)
        };
        obs::count!("earley.count.items", completed + waiting.items.len() as u64);
        total.big().into_owned()
    }
}

/// Group `(key, value)` pairs by key, keeping their order within a key:
/// the values, and `keys + 1` offsets into them.
fn grouped<V: Copy>(keys: usize, pairs: impl Iterator<Item = (usize, V)>) -> (Vec<u32>, Vec<V>) {
    let mut pairs: Vec<(usize, V)> = pairs.collect();
    pairs.sort_by_key(|&(k, _)| k);
    let mut at = vec![0u32; keys + 1];
    for &(k, _) in &pairs {
        at[k + 1] += 1;
    }
    for k in 0..keys {
        at[k + 1] += at[k];
    }
    (at, pairs.into_iter().map(|(_, v)| v).collect())
}

/// An exact derivation count: a `u64` while it fits, promoted exactly
/// to a [`BigUint`] when a sum or product overflows.
#[derive(Debug, Clone)]
enum Count {
    Small(u64),
    Big(BigUint),
}

impl Count {
    fn big(&self) -> Cow<'_, BigUint> {
        match self {
            Count::Small(v) => Cow::Owned(BigUint::from_u64(*v)),
            Count::Big(b) => Cow::Borrowed(b),
        }
    }

    /// `self += other`.
    fn add(&mut self, other: &Count) {
        match (&mut *self, other) {
            (Count::Small(x), Count::Small(y)) => match x.checked_add(*y) {
                Some(sum) => *x = sum,
                None => *self = Count::Big(BigUint::from_u128(u128::from(*x) + u128::from(*y))),
            },
            (Count::Big(x), y) => *x += &*y.big(),
            (Count::Small(x), Count::Big(y)) => *self = Count::Big(y + &BigUint::from_u64(*x)),
        }
    }

    /// `self += a · b`.
    fn add_product(&mut self, a: &Count, b: &Count) {
        match (&mut *self, a, b) {
            (Count::Small(s), Count::Small(x), Count::Small(y)) => {
                // (2⁶⁴ − 1)² + 2⁶⁴ − 1 < 2¹²⁸, so the sum cannot overflow.
                let sum = u128::from(*x) * u128::from(*y) + u128::from(*s);
                match u64::try_from(sum) {
                    Ok(v) => *s = v,
                    Err(_) => *self = Count::Big(BigUint::from_u128(sum)),
                }
            }
            _ => self.add(&Count::Big(&*a.big() * &*b.big())),
        }
    }
}

/// The dot-one items `A → B•C` of a pass, as `(A, origin)` with the inside
/// count of `B`, position by position and grouped by `C` within a
/// position.
struct Waiting {
    items: Vec<(u32, u32)>,
    counts: Vec<Count>,
    /// `(C, end)`: a group's items run from the previous group's end to
    /// `end`.
    groups: Vec<(u32, u32)>,
    /// Position `j`'s groups are `groups[group_at[j]..group_at[j + 1]]`;
    /// position 0 has none.
    group_at: Vec<u32>,
    /// Group offsets by `C` while a position is placed, reused.
    at: Vec<u32>,
}

impl Waiting {
    fn new(nonterminals: usize) -> Self {
        Waiting {
            items: Vec::new(),
            counts: Vec::new(),
            groups: Vec::new(),
            group_at: vec![0, 0],
            at: vec![0; nonterminals + 1],
        }
    }

    /// The index of group `g`'s first item.
    fn first_item(&self, g: usize) -> usize {
        match g {
            0 => 0,
            _ => self.groups[g - 1].1 as usize,
        }
    }

    /// The groups of position `j`.
    fn groups_at(&self, j: usize) -> &[(u32, u32)] {
        &self.groups[self.group_at[j] as usize..self.group_at[j + 1] as usize]
    }

    /// The indices of the items at position `j` awaiting `c`.
    fn awaiting(&self, j: usize, c: u32) -> std::ops::Range<usize> {
        match self.groups_at(j).binary_search_by_key(&c, |&(c, _)| c) {
            Ok(g) => {
                let g = self.group_at[j] as usize + g;
                self.first_item(g)..self.groups[g].1 as usize
            }
            Err(_) => 0..0,
        }
    }

    /// Append the next position's items, `(C, A, origin, count)` in any
    /// order, draining `fresh`: a counting sort by `C`.
    fn push_position(&mut self, fresh: &mut Vec<(u32, u32, u32, Count)>) {
        let at = &mut self.at;
        at.fill(0);
        for &(c, ..) in fresh.iter() {
            at[c as usize + 1] += 1;
        }
        for c in 1..at.len() {
            at[c] += at[c - 1];
        }
        // `C`'s items go to `base + at[C]..base + at[C + 1]`.
        let base = self.items.len();
        for (c, ends) in at.windows(2).enumerate() {
            if ends[0] < ends[1] {
                self.groups.push((c as u32, base as u32 + ends[1]));
            }
        }
        self.items.resize(base + fresh.len(), (0, 0));
        self.counts.resize(base + fresh.len(), Count::Small(0));
        for (c, a, o, count) in fresh.drain(..) {
            let i = base + at[c as usize] as usize;
            at[c as usize] += 1;
            self.items[i] = (a, o);
            self.counts[i] = count;
        }
        self.group_at.push(self.groups.len() as u32);
    }
}

/// The complete items of one position: `(A, origin, count)`, each
/// `(A, origin)` once with its count summed in place.
struct Completions {
    nonterminals: usize,
    items: Vec<(u32, u32, Count)>,
    /// One plus the index in `items` of `(A, origin)`, at
    /// `slot[origin * nonterminals + A]`; 0 if absent.
    slot: Vec<u32>,
    /// Each origin's items as a list through `next`: `head[origin]` is
    /// one plus the index of the newest, `next[i]` one plus the index of
    /// the item before `i`; 0 ends a list.
    head: Vec<u32>,
    next: Vec<u32>,
    /// No origin below this one holds an item.
    lowest: usize,
}

impl Completions {
    /// Room for the completions of a word of `n` letters.
    fn new(n: usize, nonterminals: usize) -> Self {
        Completions {
            nonterminals,
            items: Vec::new(),
            slot: vec![0; n * nonterminals],
            head: vec![0; n],
            next: Vec::new(),
            lowest: n,
        }
    }

    /// The count of `(a, origin)`, created at zero on first use.
    fn entry(&mut self, a: u32, origin: usize) -> &mut Count {
        let slot = &mut self.slot[origin * self.nonterminals + a as usize];
        if *slot == 0 {
            self.items.push((a, origin as u32, Count::Small(0)));
            self.next.push(self.head[origin]);
            *slot = self.items.len() as u32;
            self.head[origin] = *slot;
            self.lowest = self.lowest.min(origin);
        }
        &mut self.items[*slot as usize - 1].2
    }

    /// The count of `(a, origin)`.
    fn get(&self, a: u32, origin: usize) -> Count {
        match self.slot[origin * self.nonterminals + a as usize] {
            0 => Count::Small(0),
            i => self.items[i as usize - 1].2.clone(),
        }
    }

    /// Forget every completion, ready for the next position.
    fn clear(&mut self) {
        for &(a, origin, _) in &self.items {
            self.slot[origin as usize * self.nonterminals + a as usize] = 0;
            self.head[origin as usize] = 0;
        }
        self.items.clear();
        self.next.clear();
        self.lowest = self.head.len();
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
