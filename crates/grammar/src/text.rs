//! A text format for grammars: parse and pretty-print.
//!
//! The notation of the paper's Definition 2:
//!
//! ```text
//! # comments and blank lines are ignored; the first lhs is the start
//! S  -> A A | a
//! A  -> a | b | ()
//! ```
//!
//! Upper-case-initial identifiers are non-terminals, single lower-case
//! letters/digits are terminals, `()` (or `eps`) is ε, `|` separates
//! alternatives (still one rule each, as the paper insists), `->` or `→`
//! introduces bodies. Tokens are whitespace-separated except that a bare
//! word of terminals like `abba` is a sequence of terminal letters.
//!
//! The reader makes one pass over the text, on `&str` slices: it interns
//! each name where it first appears and notes the terminal letters, then
//! settles the ids once the whole text is read. Letters are numbered in
//! `char` order; left-hand sides come first, in line order (the first is
//! the start), then names that occur only in bodies, in order of first
//! use. Of several faults, the first in the text is reported, except that
//! a misplaced ε is reported only if the text has no other fault.
//!
//! ```
//! use ucfg_grammar::text::{parse_grammar, print_grammar};
//! use ucfg_grammar::language::finite_language;
//!
//! let g = parse_grammar("S -> A A\nA -> a | b\n").unwrap();
//! assert_eq!(finite_language(&g).unwrap().len(), 4);
//! let round = parse_grammar(&print_grammar(&g)).unwrap();
//! assert_eq!(finite_language(&round), finite_language(&g));
//! ```

use crate::cfg::{Grammar, Rule};
use crate::symbol::{NonTerminal, Symbol, Terminal};
use std::collections::HashMap;
use std::fmt;

/// Parse errors with line information.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TextError {
    /// 1-based line number.
    pub line: usize,
    /// Message.
    pub msg: String,
}

impl fmt::Display for TextError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for TextError {}

fn is_nonterminal_token(tok: &str) -> bool {
    tok.chars().next().is_some_and(|c| c.is_uppercase())
        || (tok.len() > 1 && tok.chars().next().is_some_and(|c| c == '⟨' || c == '('))
}

/// A body symbol before ids are settled: a name's interning index, or
/// `LETTER | c` for the terminal letter `c`.
const LETTER: u32 = 1 << 31;
/// No left-hand-side rank: the name has only occurred in bodies.
const NONE: u32 = u32::MAX;

/// Names in order of first appearance, with their ranks as left-hand
/// sides.
#[derive(Default)]
struct Names<'a> {
    index: HashMap<&'a str, u32>,
    spelling: Vec<&'a str>,
    lhs_rank: Vec<u32>,
    lhs_count: u32,
}

impl<'a> Names<'a> {
    fn intern(&mut self, name: &'a str) -> u32 {
        let next = self.spelling.len() as u32;
        let i = *self.index.entry(name).or_insert(next);
        if i == next {
            self.spelling.push(name);
            self.lhs_rank.push(NONE);
        }
        i
    }

    fn intern_lhs(&mut self, name: &'a str) -> u32 {
        let i = self.intern(name);
        if self.lhs_rank[i as usize] == NONE {
            self.lhs_rank[i as usize] = self.lhs_count;
            self.lhs_count += 1;
        }
        i
    }

    /// The final id of every interned name, and the names in id order.
    fn settle(self) -> (Vec<u32>, Vec<String>) {
        let mut next = self.lhs_count;
        let ids: Vec<u32> = self
            .lhs_rank
            .iter()
            .map(|&rank| match rank {
                NONE => {
                    next += 1;
                    next - 1
                }
                rank => rank,
            })
            .collect();
        let mut names = vec![String::new(); ids.len()];
        for (&id, name) in ids.iter().zip(&self.spelling) {
            names[id as usize] = name.to_string();
        }
        (ids, names)
    }
}

/// Parse a grammar from the text format.
pub fn parse_grammar(src: &str) -> Result<Grammar, TextError> {
    let mut names = Names::default();
    let mut ascii_letters = 0u128;
    let mut other_letters: Vec<char> = Vec::new();
    // One entry per alternative: its lhs and where its body ends in
    // `syms`; the bodies lie back to back.
    let mut alts: Vec<(u32, usize)> = Vec::new();
    let mut syms: Vec<u32> = Vec::new();
    let mut misplaced_eps = None;
    for (no, raw) in src.lines().enumerate() {
        let no = no + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let fault = |msg: String| Err(TextError { line: no, msg });
        let Some((lhs, rest)) = line.split_once("->").or_else(|| line.split_once('→')) else {
            return fault("missing '->'".into());
        };
        let lhs = lhs.trim();
        if lhs.is_empty() || !is_nonterminal_token(lhs) {
            return fault(format!(
                "left-hand side {lhs:?} must be a non-terminal (Upper-case)"
            ));
        }
        let lhs = names.intern_lhs(lhs);
        for alt in rest.split('|') {
            let (mut tokens, mut eps) = (0, 0);
            for tok in alt.split_whitespace() {
                tokens += 1;
                if tok == "()" || tok == "eps" {
                    eps += 1;
                } else if is_nonterminal_token(tok) {
                    syms.push(names.intern(tok));
                } else {
                    for c in tok.chars() {
                        if c.is_uppercase() {
                            return fault(format!("mixed-case token {tok:?}"));
                        }
                        match c {
                            c if c.is_ascii() => ascii_letters |= 1 << c as u32,
                            c => other_letters.push(c),
                        }
                        syms.push(LETTER | c as u32);
                    }
                }
            }
            match (tokens, eps) {
                (0, _) => return fault("empty alternative (use () for ε)".into()),
                (_, 0) | (1, 1) => {}
                _ => {
                    misplaced_eps.get_or_insert(no);
                }
            }
            alts.push((lhs, syms.len()));
        }
    }
    if alts.is_empty() {
        return Err(TextError {
            line: 0,
            msg: "no rules".into(),
        });
    }
    if let Some(line) = misplaced_eps {
        return Err(TextError {
            line,
            msg: "ε may only stand alone in an alternative".into(),
        });
    }

    other_letters.sort_unstable();
    other_letters.dedup();
    let alphabet: Vec<char> = (0..128u8)
        .filter(|&b| (ascii_letters >> b) & 1 == 1)
        .map(char::from)
        .chain(other_letters)
        .collect();
    let (ids, names) = names.settle();
    let symbol = |s: u32| match s & LETTER {
        0 => Symbol::N(NonTerminal(ids[s as usize])),
        _ => {
            let c = char::from_u32(s & !LETTER).expect("stored from a char");
            let t = alphabet
                .binary_search(&c)
                .expect("every letter is in the alphabet");
            Symbol::T(Terminal(t as u16))
        }
    };
    let mut begin = 0;
    let rules = alts
        .iter()
        .map(|&(lhs, end)| {
            let rhs = syms[begin..end].iter().map(|&s| symbol(s)).collect();
            begin = end;
            Rule {
                lhs: NonTerminal(ids[lhs as usize]),
                rhs,
            }
        })
        .collect();
    Ok(Grammar::from_parts(alphabet, names, rules, NonTerminal(0)))
}

/// Print in the text format (round-trips through [`parse_grammar`] up to
/// rule order, provided the names follow the conventions).
pub fn print_grammar(g: &Grammar) -> String {
    let mut out = String::new();
    // Start's rules first, then the rest grouped by lhs in id order.
    let mut order: Vec<u32> = (0..g.nonterminal_count() as u32).collect();
    order.sort_by_key(|&i| (crate::symbol::NonTerminal(i) != g.start(), i));
    for i in order {
        let nt = crate::symbol::NonTerminal(i);
        let alts: Vec<String> = g
            .rules_for(nt)
            .map(|r| {
                if r.rhs.is_empty() {
                    "()".to_string()
                } else {
                    r.rhs
                        .iter()
                        .map(|&s| g.symbol_str(s))
                        .collect::<Vec<_>>()
                        .join(" ")
                }
            })
            .collect();
        if !alts.is_empty() {
            out.push_str(&format!("{} -> {}\n", g.name(nt), alts.join(" | ")));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::count::decide_unambiguous;
    use crate::language::{finite_language, languages_equal};

    #[test]
    fn parse_simple_grammar() {
        let g = parse_grammar(
            "# all words of length 2\n\
             S -> A A\n\
             A -> a | b\n",
        )
        .unwrap();
        let lang = finite_language(&g).unwrap();
        assert_eq!(lang.len(), 4);
        assert!(decide_unambiguous(&g).is_unambiguous());
    }

    #[test]
    fn terminal_words_expand_to_letters() {
        let g = parse_grammar("S -> abba | ab").unwrap();
        let lang = finite_language(&g).unwrap();
        assert!(lang.contains("abba") && lang.contains("ab"));
        assert_eq!(g.size(), 6);
    }

    #[test]
    fn epsilon_rules() {
        let g = parse_grammar("S -> a S | ()").unwrap();
        // a* — infinite; just check ε and membership via Earley.
        let e = crate::earley::Earley::new(&g);
        assert!(e.recognize_str(""));
        assert!(e.recognize_str("aaa"));
        assert!(!e.recognize_str("b"));
    }

    #[test]
    fn roundtrip_print_parse() {
        let g = parse_grammar(
            "S -> A B | b\n\
             A -> a a | b\n\
             B -> a | ()\n",
        )
        .unwrap();
        let printed = print_grammar(&g);
        let g2 = parse_grammar(&printed).unwrap();
        assert_eq!(languages_equal(&g, &g2), Some(true));
        assert_eq!(g.size(), g2.size());
    }

    #[test]
    fn example3_in_text_form() {
        // The paper's Example 3 for n = 1, written as text.
        let g = parse_grammar(
            "A1 -> B0 A0 | A0 B0\n\
             A0 -> B0 a B1 a | a B1 a B0\n\
             B1 -> B0 B0\n\
             B0 -> a | b\n",
        )
        .unwrap();
        let reference = {
            // Compare with the programmatic construction via language.
            use crate::builder::GrammarBuilder;
            let mut b = GrammarBuilder::new(&['a', 'b']);
            let a1 = b.nonterminal("A1");
            let a0 = b.nonterminal("A0");
            let b1 = b.nonterminal("B1");
            let b0 = b.nonterminal("B0");
            b.rule(a1, |r| r.n(b0).n(a0));
            b.rule(a1, |r| r.n(a0).n(b0));
            b.rule(a0, |r| r.n(b0).t('a').n(b1).t('a'));
            b.rule(a0, |r| r.t('a').n(b1).t('a').n(b0));
            b.rule(b1, |r| r.n(b0).n(b0));
            b.rule(b0, |r| r.t('a'));
            b.rule(b0, |r| r.t('b'));
            b.build(a1)
        };
        assert_eq!(languages_equal(&g, &reference), Some(true));
    }

    #[test]
    fn error_reporting() {
        assert!(parse_grammar("S a b").unwrap_err().msg.contains("->"));
        assert!(parse_grammar("s -> a")
            .unwrap_err()
            .msg
            .contains("non-terminal"));
        assert!(parse_grammar("S -> a | ")
            .unwrap_err()
            .msg
            .contains("empty"));
        assert!(parse_grammar("S -> aB")
            .unwrap_err()
            .msg
            .contains("mixed-case"));
        assert!(parse_grammar("").unwrap_err().msg.contains("no rules"));
        assert!(parse_grammar("S -> a () b")
            .unwrap_err()
            .msg
            .contains("stand alone"));
    }

    #[test]
    fn first_lhs_is_start() {
        let g = parse_grammar("X -> Y\nY -> a").unwrap();
        assert_eq!(g.name(g.start()), "X");
    }
}
