//! Property tests for the grammar-text reader.
//!
//! Random texts, valid and malformed, go through `parse_grammar` and the
//! reference reader (`reference/mod.rs`): both must give the same grammar
//! (alphabet, names, rules in order, start) or the same error (line and
//! message) — including which error wins when a text has several. Every
//! prefix and every one-byte edit of a valid text must read without
//! panicking, and an error's line never exceeds the text's line count.

mod reference;

use reference::same_reading;
use ucfg_grammar::text::parse_grammar;
use ucfg_support::prop::{CaseError, Gen};
use ucfg_support::rng::Rng;
use ucfg_support::{prop_assert, property};

/// The bytes the format gives meaning to, favoured by the byte edits.
const MEANINGFUL: &[u8] = b"-> |()#\n\r\t e";
/// Terminal letters, non-ASCII ones included.
const LETTERS: [&str; 8] = ["a", "b", "c", "0", "é", "ß", "λ", "x"];
/// Non-terminal names: upper-case initials (non-ASCII too) and the
/// `⟨…⟩` and `(…` spellings the CNF conversion's names use.
const NAMES: [&str; 8] = ["S", "A", "B1", "Ärger", "Ω", "⟨a⟩·3", "(N", "Long_Name"];

fn name(g: &mut Gen) -> String {
    g.choice(&NAMES).to_string()
}

/// A body token: a name, one letter, or a bare word of letters (`abba`).
fn token(g: &mut Gen) -> String {
    match g.int_in(0u32..=2) {
        0 => name(g),
        1 => g.choice(&LETTERS).to_string(),
        _ => (0..g.int_in(2usize..=4))
            .map(|_| *g.choice(&LETTERS))
            .collect(),
    }
}

/// An alternative: ε alone (`()` or `eps`), or 1–4 tokens.
fn alternative(g: &mut Gen) -> String {
    if g.int_in(0u32..=5) == 0 {
        return g.choice(&["()", "eps"]).to_string();
    }
    let tokens: Vec<String> = (0..g.int_in(1usize..=4)).map(|_| token(g)).collect();
    tokens.join(*g.choice(&[" ", "  ", "\t"]))
}

fn rule_line(g: &mut Gen) -> String {
    let alts: Vec<String> = (0..g.int_in(1usize..=4)).map(|_| alternative(g)).collect();
    let arrow = g.choice(&[" -> ", "->", " → ", "\t->  "]);
    let sep = g.choice(&[" | ", "|", "  |\t"]);
    format!("{}{arrow}{}", name(g), alts.join(sep))
}

/// A line with exactly one fault.
fn faulty_line(g: &mut Gen) -> String {
    let body = alternative(g);
    match g.int_in(0u32..=6) {
        0 => format!("{} {body}", name(g)),
        1 => format!("{} -> {body}", g.choice(&["s", "abc", "é"])),
        2 => format!("{}-> {body}", g.choice(&["", "  "])),
        3 => format!("{} -> {body} |{}", name(g), g.choice(&["", " | a"])),
        4 => format!("{} -> a{}", name(g), g.choice(&["B", "bΩ"])),
        5 => format!("{} -> {} () {}", name(g), token(g), token(g)),
        _ => format!("{} -> eps {}", name(g), token(g)),
    }
}

/// Join lines with `\n` or `\r\n`, among comments, blank and
/// whitespace-only lines.
fn assemble(g: &mut Gen, rules: Vec<String>) -> String {
    let newline = *g.choice(&["\n", "\r\n"]);
    let mut text = String::new();
    for line in rules {
        if g.int_in(0u32..=4) == 0 {
            let filler = g.choice(&["# a comment -> with | bars", "", "   ", "\t# indented"]);
            text.push_str(filler);
            text.push_str(newline);
        }
        text.push_str(&line);
        text.push_str(newline);
    }
    if g.bool() {
        text.pop();
    }
    text
}

fn valid_text(g: &mut Gen) -> String {
    let rules = (0..g.int_in(1usize..=8)).map(|_| rule_line(g)).collect();
    assemble(g, rules)
}

/// A valid text with one to three lines swapped for faulty ones, or
/// with no rule lines at all.
fn malformed_text(g: &mut Gen) -> String {
    if g.int_in(0u32..=9) == 0 {
        return assemble(g, Vec::new());
    }
    let mut rules: Vec<String> = (0..g.int_in(1usize..=6)).map(|_| rule_line(g)).collect();
    for _ in 0..g.int_in(1usize..=3) {
        let at = g.rng().random_range(0..rules.len());
        rules[at] = faulty_line(g);
    }
    assemble(g, rules)
}

/// Read `src` with both readers: they agree, and an error's line is
/// within the text.
fn check(src: &str) -> Result<(), CaseError> {
    if let Err(e) = parse_grammar(src) {
        let lines = src.lines().count();
        prop_assert!(e.line <= lines, "error line {} of {lines}: {src:?}", e.line);
    }
    same_reading(src)
}

property! {
    cases = 256;
    /// Valid texts read, and read as the reference reads them.
    fn valid_texts_match_reference(src in valid_text) {
        prop_assert!(parse_grammar(&src).is_ok(), "{src:?}: {:?}", parse_grammar(&src).err());
        check(&src)?;
    }
}

property! {
    cases = 256;
    /// Malformed texts fail with the reference's error: same line, same
    /// message, the same fault winning among several.
    fn malformed_texts_match_reference(src in malformed_text) {
        prop_assert!(parse_grammar(&src).is_err(), "{src:?} read");
        check(&src)?;
    }
}

property! {
    cases = 32;
    /// Every prefix and every one-byte replacement, deletion and
    /// insertion of a valid text reads without panicking, as the
    /// reference reads it. Edits that break UTF-8 are skipped: the reader
    /// takes `&str`.
    fn prefixes_and_byte_edits_match_reference(
        src in valid_text,
        seed in |g: &mut Gen| g.any_u64(),
    ) {
        for end in (0..=src.len()).filter(|&i| src.is_char_boundary(i)) {
            check(&src[..end])?;
        }
        let mut byte = seed;
        let mut next_byte = || {
            byte = byte.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            match (byte >> 33) % 4 {
                0 => MEANINGFUL[(byte >> 40) as usize % MEANINGFUL.len()],
                1 => b'A' + (byte >> 40) as u8 % 26,
                _ => (byte >> 40) as u8,
            }
        };
        for i in 0..src.len() {
            let mut edits = Vec::with_capacity(3);
            let mut replaced = src.clone().into_bytes();
            replaced[i] = next_byte();
            edits.push(replaced);
            let mut deleted = src.clone().into_bytes();
            deleted.remove(i);
            edits.push(deleted);
            let mut inserted = src.clone().into_bytes();
            inserted.insert(i, next_byte());
            edits.push(inserted);
            for edit in edits {
                if let Ok(text) = String::from_utf8(edit) {
                    check(&text)?;
                }
            }
        }
    }
}
