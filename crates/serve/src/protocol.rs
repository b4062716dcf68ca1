//! Wire protocol: typed requests, error codes, and JSON bodies.
//!
//! Every response body is a single JSON line. Errors carry a stable
//! machine-readable `error` code plus a human `message`:
//!
//! | HTTP | `error` code         | meaning                                     |
//! |------|----------------------|---------------------------------------------|
//! | 400  | `bad_request`        | malformed JSON / unknown field / bad bounds |
//! | 404  | `not_found`          | unknown path                                |
//! | 405  | `method_not_allowed` | known path, wrong verb                      |
//! | 408  | `request_timeout`    | request head/body trickled in too slowly    |
//! | 413  | `payload_too_large`  | body over the `--max-body-bytes` cap        |
//! | 500  | `internal`           | invariant breach (e.g. differential mismatch) |
//! | 503  | `load_shed`          | queue full — retry later                    |
//! | 503  | `shutting_down`      | server is draining                          |
//! | 504  | `deadline_exceeded`  | request overstayed its queue deadline       |

use crate::json::Json;
use ucfg_core::ln_grammars::{appendix_a_grammar, example3_grammar, example4_ucfg};
use ucfg_grammar::text::parse_grammar;
use ucfg_grammar::Grammar;
use ucfg_support::fnv::Fnv1a;

/// Longest word `/parse` accepts; CYK is `O(n³)` per word, so the bound
/// keeps one query from monopolising the pool.
pub const MAX_WORD_LEN: usize = 512;
/// Largest `n` for the exhaustive cover/discrepancy kernels (they walk
/// `2^{2n}` words, and the bitmap layer asserts `2n ≤ 26`).
pub const MAX_COVER_N: usize = 13;
/// Largest `n` for the Proposition 7 extraction family (the Example 4
/// uCFG is `2^Θ(n)`).
pub const MAX_EXTRACTION_N: usize = 6;
/// Largest `n` for the exponential Example 4 builtin.
pub const MAX_EXAMPLE4_N: usize = 10;
/// Largest `n` for the polynomial builtins.
pub const MAX_BUILTIN_N: usize = 128;
/// Largest sliding-window capacity a `/stream/open` may request; the
/// all-starts chart is `O(window²)` items in the worst case.
pub const MAX_STREAM_WINDOW: usize = 1024;
/// Most characters one `/stream/feed` may push (each is one incremental
/// chart extension).
pub const MAX_FEED_CHARS: usize = 4096;
/// Longest regex a `/stream/open` may register.
pub const MAX_REGEX_LEN: usize = 256;
/// Longest session name.
pub const MAX_NAME_LEN: usize = 64;

/// A protocol-level failure, mapped onto HTTP status + error code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ApiError {
    /// 400 — the request is malformed or out of bounds.
    BadRequest(String),
    /// 404 — no such endpoint.
    NotFound(String),
    /// 405 — endpoint exists, verb is wrong.
    MethodNotAllowed(String),
    /// 408 — the peer trickled the request in past the per-request
    /// deadline (slowloris defence).
    RequestTimeout {
        /// How long the server waited for the complete request, in ms.
        waited_ms: u64,
    },
    /// 413 — the declared body exceeds the configured cap.
    PayloadTooLarge {
        /// The configured `--max-body-bytes` limit.
        limit: usize,
    },
    /// 503 — the batch queue is full; the request was shed, not queued.
    LoadShed {
        /// The configured queue bound that was hit.
        depth: usize,
    },
    /// 503 — the server is draining for shutdown.
    ShuttingDown,
    /// 504 — the request waited longer than the configured deadline.
    DeadlineExceeded {
        /// How long the request sat in the queue, in milliseconds.
        waited_ms: u64,
    },
    /// 500 — an internal invariant failed.
    Internal(String),
}

impl ApiError {
    /// The HTTP status code.
    pub fn status(&self) -> u16 {
        match self {
            ApiError::BadRequest(_) => 400,
            ApiError::NotFound(_) => 404,
            ApiError::MethodNotAllowed(_) => 405,
            ApiError::RequestTimeout { .. } => 408,
            ApiError::PayloadTooLarge { .. } => 413,
            ApiError::LoadShed { .. } | ApiError::ShuttingDown => 503,
            ApiError::DeadlineExceeded { .. } => 504,
            ApiError::Internal(_) => 500,
        }
    }

    /// The stable machine-readable code.
    pub fn code(&self) -> &'static str {
        match self {
            ApiError::BadRequest(_) => "bad_request",
            ApiError::NotFound(_) => "not_found",
            ApiError::MethodNotAllowed(_) => "method_not_allowed",
            ApiError::RequestTimeout { .. } => "request_timeout",
            ApiError::PayloadTooLarge { .. } => "payload_too_large",
            ApiError::LoadShed { .. } => "load_shed",
            ApiError::ShuttingDown => "shutting_down",
            ApiError::DeadlineExceeded { .. } => "deadline_exceeded",
            ApiError::Internal(_) => "internal",
        }
    }

    /// The human-readable message.
    pub fn message(&self) -> String {
        match self {
            ApiError::BadRequest(m) | ApiError::Internal(m) => m.clone(),
            ApiError::NotFound(p) => format!("no such endpoint {p:?}"),
            ApiError::MethodNotAllowed(p) => format!("wrong method for {p:?}"),
            ApiError::RequestTimeout { waited_ms } => {
                format!("request incomplete after {waited_ms} ms; closing")
            }
            ApiError::PayloadTooLarge { limit } => {
                format!("request body exceeds max_body_bytes={limit}")
            }
            ApiError::LoadShed { depth } => {
                format!("queue full (depth {depth}); request shed, retry later")
            }
            ApiError::ShuttingDown => "server is draining".to_string(),
            ApiError::DeadlineExceeded { waited_ms } => {
                format!("request waited {waited_ms} ms in queue, past its deadline")
            }
        }
    }

    /// The single-line JSON body (with trailing newline).
    pub fn body(&self) -> String {
        let mut b = Json::obj(vec![
            ("error", Json::str(self.code())),
            ("message", Json::str(self.message())),
        ])
        .render();
        b.push('\n');
        b
    }
}

/// How `/parse` names its grammar: inline text or a named builtin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GrammarSpec {
    /// Inline grammar text in the workspace's `S -> a S | b` format.
    Text(String),
    /// A builtin family from `ucfg_core::ln_grammars` at parameter `n`.
    Builtin {
        /// `appendix-a`, `example3`, or `example4`.
        which: String,
        /// The family parameter.
        n: usize,
    },
}

impl GrammarSpec {
    /// Extract a spec from a request body: either `"grammar": "<text>"`
    /// or `"builtin": "<name>", "n": <int>`.
    pub fn from_json(body: &Json) -> Result<GrammarSpec, ApiError> {
        match (body.get("grammar"), body.get("builtin")) {
            (Some(_), Some(_)) => Err(ApiError::BadRequest(
                "give either \"grammar\" or \"builtin\", not both".into(),
            )),
            (Some(g), None) => {
                let text = g
                    .as_str()
                    .ok_or_else(|| ApiError::BadRequest("\"grammar\" must be a string".into()))?;
                Ok(GrammarSpec::Text(text.to_string()))
            }
            (None, Some(b)) => {
                let which = b
                    .as_str()
                    .ok_or_else(|| ApiError::BadRequest("\"builtin\" must be a string".into()))?;
                let n = body.get("n").and_then(Json::as_usize).ok_or_else(|| {
                    ApiError::BadRequest("builtin needs integer \"n\" ≥ 0".into())
                })?;
                Ok(GrammarSpec::Builtin {
                    which: which.to_string(),
                    n,
                })
            }
            (None, None) => Err(ApiError::BadRequest(
                "missing \"grammar\" (text) or \"builtin\"+\"n\"".into(),
            )),
        }
    }

    /// Materialise the grammar (bounds-checked).
    pub fn build(&self) -> Result<Grammar, ApiError> {
        match self {
            GrammarSpec::Text(src) => parse_grammar(src).map_err(|e| {
                ApiError::BadRequest(format!("grammar text, line {}: {}", e.line, e.msg))
            }),
            GrammarSpec::Builtin { which, n } => {
                let n = *n;
                match which.as_str() {
                    "appendix-a" if (1..=MAX_BUILTIN_N).contains(&n) => Ok(appendix_a_grammar(n)),
                    "example3" if (1..=MAX_BUILTIN_N).contains(&n) => Ok(example3_grammar(n)),
                    "example4" | "ucfg" if (1..=MAX_EXAMPLE4_N).contains(&n) => {
                        Ok(example4_ucfg(n))
                    }
                    "example4" | "ucfg" => Err(ApiError::BadRequest(format!(
                        "example4 is exponential; need 1 ≤ n ≤ {MAX_EXAMPLE4_N}"
                    ))),
                    "appendix-a" | "example3" => Err(ApiError::BadRequest(format!(
                        "need 1 ≤ n ≤ {MAX_BUILTIN_N}"
                    ))),
                    other => Err(ApiError::BadRequest(format!(
                        "unknown builtin {other:?} (appendix-a | example3 | example4)"
                    ))),
                }
            }
        }
    }
}

/// A `/parse` request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseRequest {
    /// Which grammar.
    pub spec: GrammarSpec,
    /// The word to test.
    pub word: String,
    /// Cross-check the answer: recount the word with the counting
    /// kernel that did not serve (CYK fill or Earley inside pass) and
    /// compare the counts, and compare membership with the Earley
    /// recogniser on the original (pre-CNF) grammar.
    pub check: bool,
}

impl ParseRequest {
    /// Parse and bounds-check a `/parse` body.
    pub fn from_json(body: &Json) -> Result<ParseRequest, ApiError> {
        let spec = GrammarSpec::from_json(body)?;
        let word = body
            .get("word")
            .and_then(Json::as_str)
            .ok_or_else(|| ApiError::BadRequest("missing string \"word\"".into()))?;
        if word.chars().count() > MAX_WORD_LEN {
            return Err(ApiError::BadRequest(format!(
                "word longer than {MAX_WORD_LEN} letters"
            )));
        }
        let check = body.get("check").and_then(Json::as_bool).unwrap_or(false);
        Ok(ParseRequest {
            spec,
            word: word.to_string(),
            check,
        })
    }
}

/// The rectangle families the cover/discrepancy endpoints know.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RectFamily {
    /// The Example 8 cover of `L_n` by `n` balanced rectangles.
    Example8,
    /// The Proposition 7 extraction from the Example 4 uCFG.
    Extraction,
}

impl RectFamily {
    /// The wire name.
    pub fn name(&self) -> &'static str {
        match self {
            RectFamily::Example8 => "example8",
            RectFamily::Extraction => "extraction",
        }
    }

    fn from_str(s: &str) -> Result<RectFamily, ApiError> {
        match s {
            "example8" => Ok(RectFamily::Example8),
            "extraction" => Ok(RectFamily::Extraction),
            other => Err(ApiError::BadRequest(format!(
                "unknown family {other:?} (example8 | extraction)"
            ))),
        }
    }
}

/// A `/cover/verify` or `/discrepancy` request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RectRequest {
    /// The half-length parameter (`L_n ⊆ {a,b}^{2n}`).
    pub n: usize,
    /// Which rectangle family.
    pub family: RectFamily,
}

impl RectRequest {
    /// Parse and bounds-check a rectangle-family body. `need_blocks`
    /// additionally requires the Section 4 block structure
    /// (`discrepancy` needs `n ≡ 0 mod 4`).
    pub fn from_json(body: &Json, need_blocks: bool) -> Result<RectRequest, ApiError> {
        let n = body
            .get("n")
            .and_then(Json::as_usize)
            .ok_or_else(|| ApiError::BadRequest("missing integer \"n\" ≥ 1".into()))?;
        let family = body
            .get("family")
            .and_then(Json::as_str)
            .map(RectFamily::from_str)
            .transpose()?
            .unwrap_or(RectFamily::Example8);
        if !(1..=MAX_COVER_N).contains(&n) {
            return Err(ApiError::BadRequest(format!(
                "exhaustive kernels need 1 ≤ n ≤ {MAX_COVER_N}"
            )));
        }
        if family == RectFamily::Extraction && n > MAX_EXTRACTION_N {
            return Err(ApiError::BadRequest(format!(
                "extraction family needs n ≤ {MAX_EXTRACTION_N}"
            )));
        }
        if need_blocks && !ucfg_core::discrepancy::supports_blocks(n) {
            return Err(ApiError::BadRequest(
                "discrepancy needs the 4-block structure: n ≥ 4 and n ≡ 0 mod 4".into(),
            ));
        }
        Ok(RectRequest { n, family })
    }

    /// The artifact-cache key for this family.
    pub fn cache_key(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.write(b"ucfg-rects-v1")
            .write(self.family.name().as_bytes())
            .write_usize(self.n);
        h.finish()
    }
}

/// A `/stream/open` request: grammar + window capacity + optional regex
/// and name. The session id is a pure function of these, so re-opening
/// with identical parameters addresses (and resets) the same session on
/// the same shard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamOpenRequest {
    /// Which grammar the session parses against.
    pub spec: GrammarSpec,
    /// Sliding-window capacity in tokens (1..=`MAX_STREAM_WINDOW`).
    pub window: usize,
    /// Optional regex for the `CFG ∩ regex` product layer.
    pub regex: Option<String>,
    /// Client-chosen tag distinguishing otherwise identical sessions.
    pub name: String,
}

impl StreamOpenRequest {
    /// Parse and bounds-check a `/stream/open` body.
    pub fn from_json(body: &Json) -> Result<StreamOpenRequest, ApiError> {
        let spec = GrammarSpec::from_json(body)?;
        let window = body
            .get("window")
            .and_then(Json::as_usize)
            .ok_or_else(|| ApiError::BadRequest("missing integer \"window\" ≥ 1".into()))?;
        if !(1..=MAX_STREAM_WINDOW).contains(&window) {
            return Err(ApiError::BadRequest(format!(
                "window must be 1..={MAX_STREAM_WINDOW}"
            )));
        }
        let regex = match body.get("regex") {
            None => None,
            Some(r) => {
                let r = r
                    .as_str()
                    .ok_or_else(|| ApiError::BadRequest("\"regex\" must be a string".into()))?;
                if r.chars().count() > MAX_REGEX_LEN {
                    return Err(ApiError::BadRequest(format!(
                        "regex longer than {MAX_REGEX_LEN} characters"
                    )));
                }
                Some(r.to_string())
            }
        };
        let name = match body.get("name") {
            None => String::new(),
            Some(n) => {
                let n = n
                    .as_str()
                    .ok_or_else(|| ApiError::BadRequest("\"name\" must be a string".into()))?;
                if n.chars().count() > MAX_NAME_LEN {
                    return Err(ApiError::BadRequest(format!(
                        "name longer than {MAX_NAME_LEN} characters"
                    )));
                }
                n.to_string()
            }
        };
        Ok(StreamOpenRequest {
            spec,
            window,
            regex,
            name,
        })
    }
}

/// Pull the `"session"` field (16 hex digits, as `/stream/open` returns
/// it) out of a stream request body.
pub fn session_from_json(body: &Json) -> Result<u64, ApiError> {
    let s = body
        .get("session")
        .and_then(Json::as_str)
        .ok_or_else(|| ApiError::BadRequest("missing string \"session\"".into()))?;
    u64::from_str_radix(s, 16)
        .map_err(|_| ApiError::BadRequest("\"session\" must be 16 hex digits".into()))
}

/// A `/stream/feed` request: either new tokens or a truncate position,
/// never both.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreamFeedRequest {
    /// Append `text` (every character must be in the grammar alphabet).
    Tokens {
        /// The session to feed.
        session: u64,
        /// The characters to append.
        text: String,
    },
    /// Rewind the stream to absolute position `to`.
    Truncate {
        /// The session to rewind.
        session: u64,
        /// The absolute position to rewind to.
        to: u64,
    },
}

impl StreamFeedRequest {
    /// Parse and bounds-check a `/stream/feed` body.
    pub fn from_json(body: &Json) -> Result<StreamFeedRequest, ApiError> {
        let session = session_from_json(body)?;
        match (body.get("tokens"), body.get("truncate")) {
            (Some(_), Some(_)) => Err(ApiError::BadRequest(
                "give either \"tokens\" or \"truncate\", not both".into(),
            )),
            (Some(t), None) => {
                let text = t
                    .as_str()
                    .ok_or_else(|| ApiError::BadRequest("\"tokens\" must be a string".into()))?;
                if text.chars().count() > MAX_FEED_CHARS {
                    return Err(ApiError::BadRequest(format!(
                        "feed longer than {MAX_FEED_CHARS} characters; chunk it"
                    )));
                }
                Ok(StreamFeedRequest::Tokens {
                    session,
                    text: text.to_string(),
                })
            }
            (None, Some(to)) => {
                let to = to.as_usize().ok_or_else(|| {
                    ApiError::BadRequest("\"truncate\" must be an integer ≥ 0".into())
                })?;
                Ok(StreamFeedRequest::Truncate {
                    session,
                    to: to as u64,
                })
            }
            (None, None) => Err(ApiError::BadRequest(
                "missing \"tokens\" (string) or \"truncate\" (position)".into(),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn body(src: &str) -> Json {
        Json::parse(src).unwrap()
    }

    #[test]
    fn parse_request_text_form() {
        let r =
            ParseRequest::from_json(&body(r#"{"grammar":"S -> a S | b","word":"aab"}"#)).unwrap();
        assert_eq!(r.spec, GrammarSpec::Text("S -> a S | b".into()));
        assert_eq!(r.word, "aab");
        assert!(!r.check);
        assert!(r.spec.build().is_ok());
    }

    #[test]
    fn parse_request_builtin_form() {
        let r = ParseRequest::from_json(&body(
            r#"{"builtin":"example4","n":3,"word":"ab","check":true}"#,
        ))
        .unwrap();
        assert!(matches!(r.spec, GrammarSpec::Builtin { ref which, n: 3 } if which == "example4"));
        assert!(r.check);
        assert!(r.spec.build().is_ok());
    }

    #[test]
    fn parse_request_rejections() {
        for (src, want) in [
            (r#"{"word":"a"}"#, "missing \"grammar\""),
            (
                r#"{"grammar":"S -> a","builtin":"example3","n":1,"word":"a"}"#,
                "not both",
            ),
            (r#"{"grammar":7,"word":"a"}"#, "must be a string"),
            (r#"{"grammar":"S -> a"}"#, "missing string \"word\""),
            (r#"{"builtin":"example4","word":"a"}"#, "integer \"n\""),
            (r#"{"builtin":"nope","n":1,"word":"a"}"#, ""),
        ] {
            let err = match ParseRequest::from_json(&body(src)) {
                Err(e) => e,
                Ok(r) => match r.spec.build() {
                    Err(e) => e,
                    Ok(_) => panic!("accepted {src}"),
                },
            };
            assert_eq!(err.status(), 400, "{src}");
            assert!(err.message().contains(want), "{src}: {}", err.message());
        }
    }

    #[test]
    fn builtin_bounds_are_hard() {
        for src in [
            r#"{"builtin":"example4","n":11,"word":"a"}"#,
            r#"{"builtin":"example3","n":0,"word":"a"}"#,
            r#"{"builtin":"appendix-a","n":129,"word":"a"}"#,
        ] {
            let r = ParseRequest::from_json(&body(src)).unwrap();
            assert!(r.spec.build().is_err(), "{src}");
        }
    }

    #[test]
    fn oversized_word_is_rejected() {
        let w = "a".repeat(MAX_WORD_LEN + 1);
        let src = format!(r#"{{"grammar":"S -> a","word":"{w}"}}"#);
        assert!(ParseRequest::from_json(&body(&src)).is_err());
    }

    #[test]
    fn rect_request_bounds() {
        let r = RectRequest::from_json(&body(r#"{"n":4,"family":"example8"}"#), false).unwrap();
        assert_eq!(r.n, 4);
        assert_eq!(r.family, RectFamily::Example8);

        // Default family is example8.
        let r = RectRequest::from_json(&body(r#"{"n":3}"#), false).unwrap();
        assert_eq!(r.family, RectFamily::Example8);

        assert!(RectRequest::from_json(&body(r#"{"n":14}"#), false).is_err());
        assert!(RectRequest::from_json(&body(r#"{"n":0}"#), false).is_err());
        assert!(RectRequest::from_json(&body(r#"{"n":7,"family":"extraction"}"#), false).is_err());
        assert!(RectRequest::from_json(&body(r#"{"n":1,"family":"x"}"#), false).is_err());
        // Blocks requirement: n = 6 verifies but has no 4-block structure.
        assert!(RectRequest::from_json(&body(r#"{"n":6}"#), false).is_ok());
        assert!(RectRequest::from_json(&body(r#"{"n":6}"#), true).is_err());
        assert!(RectRequest::from_json(&body(r#"{"n":8}"#), true).is_ok());
    }

    #[test]
    fn rect_cache_keys_separate_families_and_sizes() {
        let k = |src: &str| {
            RectRequest::from_json(&body(src), false)
                .unwrap()
                .cache_key()
        };
        let a = k(r#"{"n":4,"family":"example8"}"#);
        let b = k(r#"{"n":5,"family":"example8"}"#);
        let c = k(r#"{"n":4,"family":"extraction"}"#);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, k(r#"{"n":4}"#));
    }

    #[test]
    fn stream_open_request_bounds() {
        let r = StreamOpenRequest::from_json(&body(
            r#"{"grammar":"S -> a S | b","window":8,"regex":"a*b","name":"t"}"#,
        ))
        .unwrap();
        assert_eq!(r.window, 8);
        assert_eq!(r.regex.as_deref(), Some("a*b"));
        assert_eq!(r.name, "t");

        // regex and name are optional.
        let r = StreamOpenRequest::from_json(&body(r#"{"grammar":"S -> a","window":1}"#)).unwrap();
        assert_eq!(r.regex, None);
        assert_eq!(r.name, "");

        for src in [
            r#"{"grammar":"S -> a"}"#,
            r#"{"grammar":"S -> a","window":0}"#,
            r#"{"grammar":"S -> a","window":1025}"#,
            r#"{"window":4}"#,
            r#"{"grammar":"S -> a","window":4,"regex":7}"#,
        ] {
            let e = StreamOpenRequest::from_json(&body(src)).unwrap_err();
            assert_eq!(e.status(), 400, "{src}");
        }
        let long = format!(
            r#"{{"grammar":"S -> a","window":4,"regex":"{}"}}"#,
            "a".repeat(MAX_REGEX_LEN + 1)
        );
        assert!(StreamOpenRequest::from_json(&body(&long)).is_err());
    }

    #[test]
    fn stream_feed_request_forms() {
        let r = StreamFeedRequest::from_json(&body(
            r#"{"session":"00000000000000ab","tokens":"abab"}"#,
        ))
        .unwrap();
        assert_eq!(
            r,
            StreamFeedRequest::Tokens {
                session: 0xab,
                text: "abab".into()
            }
        );
        let r =
            StreamFeedRequest::from_json(&body(r#"{"session":"ffffffffffffffff","truncate":3}"#))
                .unwrap();
        assert_eq!(
            r,
            StreamFeedRequest::Truncate {
                session: u64::MAX,
                to: 3
            }
        );
        for src in [
            r#"{"tokens":"ab"}"#,
            r#"{"session":"xyz","tokens":"ab"}"#,
            r#"{"session":"0","tokens":"ab","truncate":1}"#,
            r#"{"session":"0"}"#,
        ] {
            let e = StreamFeedRequest::from_json(&body(src)).unwrap_err();
            assert_eq!(e.status(), 400, "{src}");
        }
        let long = format!(
            r#"{{"session":"0","tokens":"{}"}}"#,
            "a".repeat(MAX_FEED_CHARS + 1)
        );
        assert!(StreamFeedRequest::from_json(&body(&long)).is_err());
    }

    #[test]
    fn error_bodies_are_single_json_lines() {
        let errors = [
            ApiError::BadRequest("x".into()),
            ApiError::NotFound("/nope".into()),
            ApiError::MethodNotAllowed("/parse".into()),
            ApiError::RequestTimeout { waited_ms: 250 },
            ApiError::PayloadTooLarge { limit: 4 << 20 },
            ApiError::LoadShed { depth: 8 },
            ApiError::ShuttingDown,
            ApiError::DeadlineExceeded { waited_ms: 12 },
            ApiError::Internal("y".into()),
        ];
        for e in errors {
            let b = e.body();
            assert!(b.ends_with('\n'));
            assert_eq!(b.trim_end().lines().count(), 1);
            let v = Json::parse(b.trim_end()).unwrap();
            assert_eq!(v.get("error").and_then(Json::as_str), Some(e.code()));
            assert!(e.status() >= 400);
        }
    }
}
