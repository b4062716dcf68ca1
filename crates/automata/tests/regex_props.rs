//! Property tests for the regex reader and the Glushkov construction.
//!
//! Random patterns are written as text from the pattern grammar
//! (`alt := cat ('|' cat)*`, `cat := postfix*`, `postfix := atom [*+?]*`,
//! `atom := letter | '(' alt ')'`) and read back with [`Regex::parse`].
//! The backtracking matcher [`Regex::matches`] and the Glushkov NFA must
//! agree on every word over `{a, b}` of up to six letters. Every prefix
//! and every one-byte edit of a valid pattern must read to `Ok` or `Err`
//! without panicking; an error's offset never passes the pattern's end,
//! and an edit that still reads keeps the two matchers in agreement.

use ucfg_automata::regex::Regex;
use ucfg_support::prop::{CaseError, Gen};
use ucfg_support::{prop_assert, prop_assert_eq, property};

/// Pattern letters: mostly the test alphabet, plus one outside it and a
/// multi-byte one so byte edits can split a character.
const LETTERS: [char; 4] = ['a', 'b', 'c', 'é'];
/// The bytes the syntax gives meaning to, favoured by the byte edits.
const MEANINGFUL: &[u8] = b"()|*+?ab";

fn alt(g: &mut Gen, depth: usize, out: &mut String) {
    cat(g, depth, out);
    for _ in 0..g.int_in(0usize..=2) {
        out.push('|');
        cat(g, depth, out);
    }
}

fn cat(g: &mut Gen, depth: usize, out: &mut String) {
    for _ in 0..g.int_in(0usize..=3) {
        postfix(g, depth, out);
    }
}

fn postfix(g: &mut Gen, depth: usize, out: &mut String) {
    if depth > 0 && g.int_in(0u8..4) == 0 {
        out.push('(');
        alt(g, depth - 1, out);
        out.push(')');
    } else {
        out.push(if g.int_in(0u8..8) == 0 {
            *g.choice(&LETTERS[2..])
        } else {
            *g.choice(&LETTERS[..2])
        });
    }
    // At most two operators per atom: `+` copies its operand, so long
    // runs of it grow the expression exponentially.
    for _ in 0..g.int_in(0usize..=2) {
        out.push(*g.choice(&['*', '+', '?']));
    }
}

/// A pattern the grammar above derives, nested up to three groups deep
/// as the size grows.
fn valid_pattern(g: &mut Gen) -> String {
    let depth = (3.0 * g.size()).ceil() as usize;
    let mut out = String::new();
    alt(g, depth, &mut out);
    out
}

/// Every word over `{a, b}` of at most `max_len` letters.
fn words(max_len: usize) -> impl Iterator<Item = String> {
    (0..=max_len).flat_map(|len| {
        (0..1u32 << len).map(move |mask| {
            (0..len)
                .map(|i| if mask >> i & 1 == 1 { 'a' } else { 'b' })
                .collect()
        })
    })
}

/// The two matchers agree on every word of up to `max_len` letters.
fn matchers_agree(r: &Regex, src: &str, max_len: usize) -> Result<(), CaseError> {
    let nfa = r.glushkov();
    for w in words(max_len) {
        prop_assert_eq!(nfa.accepts(&w), r.matches(&w), "{:?} on {:?}", src, w);
    }
    Ok(())
}

/// Read `src`: a panic fails the case (the harness catches it), an
/// error must point inside the pattern, and a pattern that reads must
/// keep the matchers in agreement on short words.
fn read(src: &str) -> Result<(), CaseError> {
    match Regex::parse(src) {
        Ok(r) => matchers_agree(&r, src, 4),
        Err(e) => {
            prop_assert!(
                e.at <= src.chars().count(),
                "{:?}: error offset {} past the end",
                src,
                e.at
            );
            Ok(())
        }
    }
}

property! {
    cases = 64;
    fn glushkov_and_matcher_agree_on_random_patterns(src in valid_pattern) {
        let r = Regex::parse(&src);
        prop_assert!(r.is_ok(), "{:?} derives from the pattern grammar: {:?}", src, r);
        matchers_agree(&r.expect("checked"), &src, 6)?;
    }

    cases = 32;
    /// Every prefix and every one-byte replacement, deletion and
    /// insertion of a valid pattern reads to `Ok` or `Err`. Edits that
    /// break UTF-8 are skipped: the reader takes `&str`.
    fn prefixes_and_byte_edits_read_without_panicking(
        src in valid_pattern,
        seed in |g: &mut Gen| g.any_u64(),
    ) {
        for end in (0..=src.len()).filter(|&i| src.is_char_boundary(i)) {
            read(&src[..end])?;
        }
        let mut state = seed;
        let mut next_byte = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            match (state >> 33) % 3 {
                0 => MEANINGFUL[(state >> 40) as usize % MEANINGFUL.len()],
                _ => (state >> 40) as u8,
            }
        };
        for i in 0..src.len() {
            let mut replaced = src.clone().into_bytes();
            replaced[i] = next_byte();
            let mut deleted = src.clone().into_bytes();
            deleted.remove(i);
            let mut inserted = src.clone().into_bytes();
            inserted.insert(i, next_byte());
            for edit in [replaced, deleted, inserted] {
                if let Ok(text) = String::from_utf8(edit) {
                    read(&text)?;
                }
            }
        }
    }
}
