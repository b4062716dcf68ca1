//! A minimal JSON value, parser, and single-line writer.
//!
//! The workspace is hermetic, so the wire format is hand-rolled. The
//! subset is deliberately small but closed under everything the
//! protocol needs: objects (insertion-ordered, so rendering is
//! deterministic), arrays, strings with `\uXXXX` escapes, `i64`
//! integers, finite floats, booleans and null.
//!
//! Rendering is always a single line — the protocol is JSON-lines, one
//! request or response per line — and renders a value parsed from
//! canonical output back to the same bytes.

use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (the protocol's numbers are ids, sizes, and ports).
    Int(i64),
    /// A non-integer number; accepted on input, rendered with `{:?}`.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion-ordered for deterministic rendering.
    Obj(Vec<(String, Json)>),
}

/// A parse error: byte offset plus message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the error in the input.
    pub at: usize,
    /// What went wrong.
    pub msg: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "json error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Parse a complete JSON document (trailing whitespace allowed,
    /// trailing garbage rejected).
    pub fn parse(src: &str) -> Result<Json, JsonError> {
        let bytes = src.as_bytes();
        let mut p = Parser { bytes, pos: 0 };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != bytes.len() {
            return Err(p.err("trailing characters after value"));
        }
        Ok(v)
    }

    /// Render as a single line with no insignificant whitespace.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::Float(x) => {
                let _ = write!(out, "{x:?}");
            }
            Json::Str(s) => render_string(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    render_string(k, out);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }

    /// Object field lookup (first match); `None` on non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer payload, if this is an integer.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The integer payload as a `usize`, if integral and non-negative.
    pub fn as_usize(&self) -> Option<usize> {
        self.as_i64().and_then(|i| usize::try_from(i).ok())
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Convenience constructor for an object.
    pub fn obj(fields: Vec<(&str, Json)>) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Convenience constructor for a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }
}

fn render_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

/// Nesting depth bound: the protocol never nests deeper than a few
/// levels, and the recursive-descent parser must not let untrusted
/// input exhaust the stack.
const MAX_DEPTH: usize = 32;

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> JsonError {
        JsonError {
            at: self.pos,
            msg: msg.to_string(),
        }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8, what: &str) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(what))
        }
    }

    fn lit(&mut self, word: &str, v: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            None => Err(self.err("unexpected end of input")),
            Some(b'n') => self.lit("null", Json::Null),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.eat(b'[', "expected '['")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.eat(b'{', "expected '{'")?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':', "expected ':'")?;
            self.skip_ws();
            let val = self.value(depth + 1)?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"', "expected string")?;
        let mut out = String::new();
        loop {
            let b = self.peek().ok_or_else(|| self.err("unterminated string"))?;
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let e = self.peek().ok_or_else(|| self.err("bad escape"))?;
                    self.pos += 1;
                    match e {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let cp = self.hex4()?;
                            // Surrogate pairs: accept, combine; lone
                            // surrogates are rejected.
                            if (0xD800..0xDC00).contains(&cp) {
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    self.eat(b'u', "expected low surrogate")?;
                                    let lo = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&lo) {
                                        return Err(self.err("invalid low surrogate"));
                                    }
                                    let c = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                                    out.push(
                                        char::from_u32(c)
                                            .ok_or_else(|| self.err("invalid code point"))?,
                                    );
                                } else {
                                    return Err(self.err("lone high surrogate"));
                                }
                            } else {
                                out.push(
                                    char::from_u32(cp)
                                        .ok_or_else(|| self.err("invalid code point"))?,
                                );
                            }
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                b if b < 0x20 => return Err(self.err("control character in string")),
                _ => {
                    // Re-decode the UTF-8 sequence starting here.
                    let start = self.pos - 1;
                    let len = utf8_len(b).ok_or_else(|| self.err("invalid utf-8"))?;
                    let end = start + len;
                    if end > self.bytes.len() {
                        return Err(self.err("truncated utf-8"));
                    }
                    let s = std::str::from_utf8(&self.bytes[start..end])
                        .map_err(|_| self.err("invalid utf-8"))?;
                    out.push_str(s);
                    self.pos = end;
                }
            }
        }
    }

    /// Exactly four hex digits (`u32::from_str_radix` would also take a
    /// leading `+`).
    fn hex4(&mut self) -> Result<u32, JsonError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let mut v = 0;
        for &b in &self.bytes[self.pos..end] {
            let digit = (b as char)
                .to_digit(16)
                .ok_or_else(|| self.err("bad \\u escape"))?;
            v = v * 16 + digit;
        }
        self.pos = end;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("bad number"))?;
        if is_float {
            let x: f64 = text.parse().map_err(|_| self.err("bad number"))?;
            if !x.is_finite() {
                return Err(self.err("non-finite number"));
            }
            Ok(Json::Float(x))
        } else {
            let i: i64 = text.parse().map_err(|_| self.err("bad number"))?;
            Ok(Json::Int(i))
        }
    }
}

fn utf8_len(first: u8) -> Option<usize> {
    match first {
        0x00..=0x7F => Some(1),
        0xC0..=0xDF => Some(2),
        0xE0..=0xEF => Some(3),
        0xF0..=0xF7 => Some(4),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_the_protocol_shapes() {
        for src in [
            r#"{"grammar":"S -> a S | b","word":"aab"}"#,
            r#"{"builtin":"example4","n":3,"word":"ab"}"#,
            r#"{"member":true,"parse_count":"5","ambiguous":true}"#,
            r#"{"discrepancies":[-1,0,27],"sums_to_gap":false}"#,
            r#"[1,[2,[3,null]],{"k":[]}]"#,
            r#""ε and \"quotes\"""#,
            r#"-42"#,
            r#"{}"#,
        ] {
            let v = Json::parse(src).unwrap_or_else(|e| panic!("{src}: {e}"));
            assert_eq!(v.render(), src, "canonical roundtrip");
            // And render→parse is the identity again.
            assert_eq!(Json::parse(&v.render()).unwrap(), v);
        }
    }

    #[test]
    fn parses_whitespace_and_floats() {
        let v = Json::parse(" { \"x\" :\t1.5 , \"y\": [ 1 , 2 ] }\n").unwrap();
        assert_eq!(v.get("x"), Some(&Json::Float(1.5)));
        assert_eq!(
            v.get("y"),
            Some(&Json::Arr(vec![Json::Int(1), Json::Int(2)]))
        );
    }

    #[test]
    fn escapes_roundtrip() {
        let v = Json::parse(r#""aé\n\t\\\" \u0001""#).unwrap();
        assert_eq!(v.as_str(), Some("aé\n\t\\\" \u{1}"));
        let rendered = v.render();
        assert_eq!(Json::parse(&rendered).unwrap(), v);
        // Control characters never appear raw in output.
        assert!(!rendered.contains('\u{1}'));
    }

    #[test]
    fn surrogate_pairs_combine() {
        let v = Json::parse(r#""😀""#).unwrap();
        assert_eq!(v.as_str(), Some("😀"));
        assert!(Json::parse(r#""\ud83d""#).is_err());
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "tru",
            "1 2",
            "{\"a\":1,}",
            "\"unterminated",
            "nul",
            "[1,2,",
            "1e999",
            "\"\\u+041\"",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn deep_nesting_is_rejected_not_a_stack_overflow() {
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(Json::parse(&deep).is_err());
        let ok = "[".repeat(10) + &"]".repeat(10);
        assert!(Json::parse(&ok).is_ok());
    }

    #[test]
    fn accessors() {
        let v = Json::parse(r#"{"s":"x","i":7,"b":true,"neg":-1}"#).unwrap();
        assert_eq!(v.get("s").and_then(Json::as_str), Some("x"));
        assert_eq!(v.get("i").and_then(Json::as_usize), Some(7));
        assert_eq!(v.get("b").and_then(Json::as_bool), Some(true));
        assert_eq!(v.get("neg").and_then(Json::as_usize), None);
        assert_eq!(v.get("missing"), None);
    }

    mod props {
        use super::super::*;
        use ucfg_support::prop::Gen;
        use ucfg_support::{prop_assert, prop_assert_eq, property};

        /// Quotes, backslashes, every escape the writer emits, other
        /// control characters, and 2-, 3- and 4-byte (non-BMP) UTF-8.
        const CHARS: &str = "a \"\\/\n\r\t\u{0}\u{8}\u{c}\u{1f}\u{7f}é€\u{ffff}😀\u{10ffff}";

        fn rand_string(g: &mut Gen) -> String {
            let chars: Vec<char> = CHARS.chars().collect();
            g.string_of(&chars, 0..=8)
        }

        fn rand_leaf(g: &mut Gen) -> Json {
            match g.int_in(0u8..=6) {
                0 => Json::Null,
                1 => Json::Bool(g.bool()),
                2 => Json::Int(*g.choice(&[i64::MIN, i64::MAX, 0, -1])),
                3 => Json::Int(g.any_u64() as i64),
                4 => {
                    let x = f64::from_bits(g.any_u64());
                    Json::Float(if x.is_finite() { x } else { 0.5 })
                }
                5 => Json::Str(rand_string(g)),
                _ => Json::Arr(Vec::new()),
            }
        }

        /// A value nested exactly `depth` containers deep: at each level
        /// one child recurses and its siblings are leaves.
        fn rand_json(g: &mut Gen, depth: usize) -> Json {
            if depth == 0 {
                return rand_leaf(g);
            }
            let mut items = g.vec_of(0..3, rand_leaf);
            let at = g.int_in(0..=items.len());
            items.insert(at, rand_json(g, depth - 1));
            if g.bool() {
                Json::Arr(items)
            } else {
                Json::Obj(items.into_iter().map(|v| (rand_string(g), v)).collect())
            }
        }

        fn rand_doc(g: &mut Gen) -> Json {
            let depth = g.int_in(0..=MAX_DEPTH);
            rand_json(g, depth)
        }

        /// Parse without panicking; an error must point inside the input.
        fn parse_in_bounds(src: &str) -> Result<(), String> {
            match Json::parse(src) {
                Err(e) if e.at > src.len() => Err(format!("{e} past len {}", src.len())),
                _ => Ok(()),
            }
        }

        property! {
            cases = 256;
            fn render_then_parse_is_the_identity(v in rand_doc) {
                let doc = v.render();
                prop_assert_eq!(Json::parse(&doc), Ok(v.clone()));
            }
        }

        property! {
            cases = 64;
            // Truncated or corrupted documents are errors or other values,
            // never a panic, and an error's offset lies within the input.
            fn prefixes_and_one_byte_edits_never_panic(
                v in rand_doc,
                edit in |g: &mut Gen| (g.any_u64(), g.int_in(0u8..=2), g.int_in(0u8..=255)),
            ) {
                let doc = v.render();
                for cut in (0..=doc.len()).filter(|&i| doc.is_char_boundary(i)) {
                    let r = parse_in_bounds(&doc[..cut]);
                    prop_assert!(r.is_ok(), "prefix {cut}: {r:?}");
                }
                let (pos, kind, byte) = edit;
                let mut bytes = doc.into_bytes();
                let pos = (pos % (bytes.len() as u64 + 1)) as usize;
                match kind {
                    0 if pos < bytes.len() => bytes[pos] = byte,
                    1 if pos < bytes.len() => {
                        bytes.remove(pos);
                    }
                    _ => bytes.insert(pos, byte),
                }
                // The daemon hands the parser only valid UTF-8.
                if let Ok(edited) = std::str::from_utf8(&bytes) {
                    let r = parse_in_bounds(edited);
                    prop_assert!(r.is_ok(), "edit {edit:?}: {r:?}");
                }
            }
        }
    }
}
