//! Pillar 3: the online Bar-Hillel layer — `CFG ∩ regex` as a live
//! query over a sliding window.
//!
//! Registering a regex does two things:
//!
//! 1. **Static emptiness.** The regex compiles (Glushkov → subset
//!    construction) to a [`Dfa`], and the Bar-Hillel triple construction
//!    ([`ucfg_automata::intersect::intersect_cnf_dfa`]) decides once
//!    whether `L(G) ∩ L(R)` is empty at all — the Clemente-style
//!    inclusion/universality primitive, answered before a single token
//!    streams in.
//! 2. **Online window matches.** For the per-window count the product
//!    grammar is *not* reparsed: the layer maintains, for every origin
//!    `j` the window covers, the DFA state reached by running `R` over
//!    `tokens[j..now]`. One appended token advances every tracked state
//!    by a single transition — O(window) per token — and a window suffix
//!    matches `CFG ∩ regex` exactly when the all-starts chart has a
//!    complete start item at `j` *and* the tracked DFA state at `j` is
//!    accepting.

use crate::window::WindowParser;
use std::collections::VecDeque;
use std::sync::Arc;
use ucfg_automata::dfa::Dfa;
use ucfg_automata::nfa::State;
use ucfg_automata::regex::Regex;
use ucfg_grammar::analysis::productive;
use ucfg_grammar::normal_form::CnfGrammar;
use ucfg_grammar::symbol::Terminal;
use ucfg_grammar::Grammar;

/// A compiled `CFG ∩ regex` query bound to one token stream.
///
/// ```
/// use std::sync::Arc;
/// use ucfg_stream::{ProductQuery, WindowParser};
///
/// let g = Arc::new(ucfg_grammar::text::parse_grammar("S -> a S b S | ()").unwrap());
/// let mut w = WindowParser::new(Arc::clone(&g), 8);
/// let mut q = ProductQuery::compile(&g, "a(a|b)*b").unwrap();
/// assert!(q.nonempty(), "balanced words matching a(a|b)*b exist");
/// for c in "aabb".chars() {
///     let t = g.terminal_of(c).unwrap();
///     w.push(t);
///     q.push(t);
///     q.sync(&w);
/// }
/// // Suffixes of "aabb" in both languages: just "aabb" itself.
/// assert_eq!(q.window_matches(&w), 1);
/// ```
pub struct ProductQuery {
    regex: String,
    dfa: Dfa,
    /// Terminal index → DFA alphabet symbol (None = dead letter).
    sym_of: Vec<Option<usize>>,
    /// `states[i]` is the DFA state reached from `initial` over
    /// `tokens[base + i .. now]`; `None` once the run died. The last
    /// entry is the empty suffix (always `initial`).
    states: VecDeque<Option<State>>,
    /// Absolute position of `states[0]`.
    base: u64,
    /// Is `L(G) ∩ L(R)` non-empty (decided statically at compile)?
    nonempty: bool,
}

impl ProductQuery {
    /// Parse and compile `regex`, build the Bar-Hillel product with `g`,
    /// and decide emptiness. Returns the parse error message on a bad
    /// regex.
    pub fn compile(g: &Arc<Grammar>, regex: &str) -> Result<ProductQuery, String> {
        let parsed = Regex::parse(regex).map_err(|e| e.to_string())?;
        let dfa = Dfa::from_nfa(&parsed.glushkov()).minimized();
        let cnf = CnfGrammar::from_grammar(g.as_ref());
        let product = ucfg_automata::intersect::intersect_cnf_dfa(&cnf, &dfa);
        // The triple construction covers non-empty words; ε is in the
        // intersection iff both sides accept it.
        let nonempty = productive(&product)[product.start().index()]
            || (cnf.accepts_epsilon() && dfa.accepts(""));
        let sym_of = g
            .alphabet()
            .iter()
            .map(|&c| dfa.alphabet().iter().position(|&x| x == c))
            .collect();
        let initial = dfa.initial();
        Ok(ProductQuery {
            regex: regex.to_string(),
            dfa,
            sym_of,
            states: VecDeque::from([Some(initial)]),
            base: 0,
            nonempty,
        })
    }

    /// The registered regex, verbatim.
    pub fn regex(&self) -> &str {
        &self.regex
    }

    /// Number of states in the compiled (minimised) DFA.
    pub fn dfa_states(&self) -> usize {
        self.dfa.state_count()
    }

    /// Is `L(G) ∩ L(R)` non-empty? Decided once, statically, by the
    /// Bar-Hillel product — independent of what has streamed in.
    pub fn nonempty(&self) -> bool {
        self.nonempty
    }

    /// Advance every tracked suffix run over one appended token and
    /// start tracking the new empty suffix. Must be called once per
    /// token, in step with the window's `push`.
    pub fn push(&mut self, t: Terminal) {
        let sym = self.sym_of[t.index()];
        for s in self.states.iter_mut() {
            *s = match (*s, sym) {
                (Some(p), Some(sym)) => self.dfa.step(p, sym),
                _ => None,
            };
        }
        self.states.push_back(Some(self.dfa.initial()));
    }

    /// Drop tracked origins the window no longer covers. Call after the
    /// window's own eviction (any number of pushes later — the layer
    /// catches up to `w.base()`).
    pub fn sync(&mut self, w: &WindowParser) {
        while self.base < w.base() && self.states.len() > 1 {
            self.states.pop_front();
            self.base += 1;
        }
        debug_assert_eq!(self.base, w.base(), "product layer out of step");
        debug_assert_eq!(self.states.len() as u64, w.total() - w.base() + 1);
    }

    /// Re-derive every tracked DFA state from the window's retained
    /// tokens. Used after a truncate, which un-advances runs in a way
    /// the forward-only transition table cannot.
    pub fn rewind(&mut self, w: &WindowParser) {
        let tokens = w.window();
        self.base = w.base();
        self.states.clear();
        for j in 0..=tokens.len() {
            let mut s = Some(self.dfa.initial());
            for &t in &tokens[j..] {
                s = match (s, self.sym_of[t.index()]) {
                    (Some(p), Some(sym)) => self.dfa.step(p, sym),
                    _ => None,
                };
            }
            self.states.push_back(s);
        }
    }

    /// How many suffixes of the current window are in `L(G) ∩ L(R)`:
    /// positions where the CFG chart has a complete start item *and*
    /// the tracked DFA run is in an accepting state.
    pub fn window_matches(&self, w: &WindowParser) -> usize {
        debug_assert_eq!(self.base, w.base(), "call sync() after pushes");
        self.states
            .iter()
            .enumerate()
            .filter(|&(i, s)| {
                s.is_some_and(|s| self.dfa.is_accepting(s)) && w.suffix_member(self.base + i as u64)
            })
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ucfg_grammar::cyk::CykChart;
    use ucfg_grammar::text::parse_grammar;

    fn dyck() -> Arc<Grammar> {
        Arc::new(parse_grammar("S -> a S b S | ()").unwrap())
    }

    #[test]
    fn static_emptiness_matches_the_product_grammar() {
        let g = dyck();
        // Balanced ∩ a(a|b)*b: non-empty ("ab", "aabb", …).
        assert!(ProductQuery::compile(&g, "a(a|b)*b").unwrap().nonempty());
        // Balanced ∩ b(a|b)*: a balanced word never starts with 'b'.
        assert!(!ProductQuery::compile(&g, "b(a|b)*").unwrap().nonempty());
        // ε reaches the intersection through the optional branch: the
        // triple construction only covers non-empty words, so this pins
        // the explicit ε check.
        assert!(ProductQuery::compile(&g, "a?").unwrap().nonempty());
        let g2 = Arc::new(parse_grammar("S -> a S | b").unwrap());
        // a*b ∩ {a} is empty; a*b ∩ {ab} is not.
        assert!(!ProductQuery::compile(&g2, "a").unwrap().nonempty());
        assert!(ProductQuery::compile(&g2, "ab").unwrap().nonempty());
    }

    #[test]
    fn bad_regex_reports_a_parse_error() {
        let g = dyck();
        assert!(ProductQuery::compile(&g, "a(b").is_err());
    }

    #[test]
    fn online_counts_match_brute_force() {
        let g = dyck();
        let cnf = CnfGrammar::from_grammar(&g);
        let member = |w: &str| CykChart::build_scalar(&cnf, &cnf.encode(w).unwrap()).accepted();
        let regex = "a(a|b)*b";
        let parsed = Regex::parse(regex).unwrap();
        let dfa = Dfa::from_nfa(&parsed.glushkov());
        let mut w = WindowParser::new(Arc::clone(&g), 6);
        let mut q = ProductQuery::compile(&g, regex).unwrap();
        let stream: Vec<char> = "abaabbababab".chars().collect();
        for (i, &c) in stream.iter().enumerate() {
            let t = g.terminal_of(c).unwrap();
            w.push(t);
            q.push(t);
            q.sync(&w);
            let lo = (i + 1).saturating_sub(6);
            let brute = (lo..=i + 1)
                .filter(|&j| {
                    let suffix: String = stream[j..=i].iter().collect();
                    member(&suffix) && dfa.accepts(&suffix)
                })
                .count();
            assert_eq!(q.window_matches(&w), brute, "after {} pushes", i + 1);
        }
    }
}
