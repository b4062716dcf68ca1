//! A minimal HTTP/1.1 request assembler and response writer.
//!
//! Just enough of RFC 9112 for the JSON-lines protocol: request line,
//! headers, `Content-Length` bodies, keep-alive. No chunked transfer
//! coding, no multipart, no TLS.
//!
//! The core is the push-based [`Assembler`]: bytes go in via
//! [`Assembler::push`] in whatever fragments the transport delivers
//! (one epoll readiness burst, one `read` syscall, one byte), and
//! complete requests come out of [`Assembler::next`]. The event loop
//! and the tests drive the same `Assembler`; responses are framed by
//! [`render_response`].

use std::io::{self, Write};

/// Default largest accepted request body (4 MiB). Grammars are text,
/// so this is already generous, and the bound keeps a hostile
/// `Content-Length` from allocating gigabytes. Overridable per server
/// via [`Limits`] / `--max-body-bytes`.
pub const MAX_BODY_BYTES: usize = 4 << 20;
/// Default largest accepted request line or header line.
pub const MAX_LINE_BYTES: usize = 8 << 10;
/// Default maximum number of headers per request.
pub const MAX_HEADERS: usize = 64;

/// Parser bounds, configurable per server instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Limits {
    /// Largest accepted request body in bytes (`--max-body-bytes`).
    pub max_body_bytes: usize,
    /// Largest accepted request line or header line in bytes.
    pub max_line_bytes: usize,
    /// Maximum number of headers per request.
    pub max_headers: usize,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            max_body_bytes: MAX_BODY_BYTES,
            max_line_bytes: MAX_LINE_BYTES,
            max_headers: MAX_HEADERS,
        }
    }
}

/// A parsed HTTP request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// `GET`, `POST`, …, uppercased by the client already.
    pub method: String,
    /// The path, e.g. `/parse` (query strings are kept verbatim).
    pub path: String,
    /// Headers in arrival order, names lowercased.
    pub headers: Vec<(String, String)>,
    /// The body (may be empty).
    pub body: Vec<u8>,
    /// The request came in as HTTP/1.0, whose default (RFC 9112
    /// Appendix C) is connection-close unless keep-alive is explicit.
    pub http10: bool,
}

impl Request {
    /// First header with this (lowercase) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Should the connection close after this exchange? An explicit
    /// `Connection` header wins; absent one, HTTP/1.1 defaults to
    /// keep-alive and HTTP/1.0 to close.
    pub fn wants_close(&self) -> bool {
        match self.header("connection") {
            Some(v) if v.eq_ignore_ascii_case("close") => true,
            Some(v) if v.eq_ignore_ascii_case("keep-alive") => false,
            _ => self.http10,
        }
    }

    /// The body as UTF-8, or `None` if it isn't.
    pub fn body_str(&self) -> Option<&str> {
        std::str::from_utf8(&self.body).ok()
    }
}

/// A protocol-level rejection: data the *peer* sent that we refuse to
/// parse. Maps to a wire status (400 or 413); I/O failures are a
/// separate `io::Error` channel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Not HTTP, or over a structural bound — answer 400.
    Malformed(String),
    /// The declared body exceeds the configured cap — answer 413.
    TooLarge {
        /// The configured `max_body_bytes` the request exceeded.
        limit: usize,
    },
}

impl WireError {
    /// The HTTP status this rejection earns.
    pub fn status(&self) -> u16 {
        match self {
            WireError::Malformed(_) => 400,
            WireError::TooLarge { .. } => 413,
        }
    }

    /// Human-readable reason for the error body.
    pub fn message(&self) -> String {
        match self {
            WireError::Malformed(m) => m.clone(),
            WireError::TooLarge { limit } => {
                format!("body exceeds max_body_bytes={limit}")
            }
        }
    }
}

/// Where the assembler is inside the current request.
#[derive(Debug)]
enum Phase {
    /// Waiting for (or mid-way through) the request line.
    RequestLine,
    /// Request line parsed; accumulating header lines.
    Headers {
        method: String,
        path: String,
        http10: bool,
        headers: Vec<(String, String)>,
    },
    /// Headers done; `want` body bytes outstanding.
    Body {
        method: String,
        path: String,
        http10: bool,
        headers: Vec<(String, String)>,
        want: usize,
        got: Vec<u8>,
    },
    /// A [`WireError`] was reported; the connection must close.
    Failed,
}

/// Incremental HTTP/1.1 request parser.
///
/// Feed raw bytes with [`push`](Assembler::push) exactly as they
/// arrive off the wire; pull out zero or more complete requests with
/// [`next`](Assembler::next). Pipelined requests in a single `push`
/// are handled — each `next` call yields at most one. After an `Err`,
/// the assembler is poisoned (the stream is unrecoverable mid-parse)
/// and further `next` calls repeat the error.
#[derive(Debug)]
pub struct Assembler {
    limits: Limits,
    /// Unconsumed input; `pos` is the scan cursor (compacted lazily).
    buf: Vec<u8>,
    pos: usize,
    phase: Phase,
    error: Option<WireError>,
}

impl Assembler {
    /// A fresh assembler with the given bounds.
    pub fn new(limits: Limits) -> Assembler {
        Assembler {
            limits,
            buf: Vec::new(),
            pos: 0,
            phase: Phase::RequestLine,
            error: None,
        }
    }

    /// Append raw wire bytes. Accepts any fragmentation, including one
    /// byte at a time and several pipelined requests at once.
    pub fn push(&mut self, bytes: &[u8]) {
        // Compact before growing so a long-lived keep-alive connection
        // doesn't accrete every request it ever carried.
        if self.pos > 0 && (self.pos >= self.buf.len() || self.pos > 4096) {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// No request is in flight and no bytes are buffered — the
    /// connection is between requests (safe to idle-timeout softly).
    pub fn is_idle(&self) -> bool {
        matches!(self.phase, Phase::RequestLine) && self.pos >= self.buf.len()
    }

    /// Try to produce the next complete request from buffered bytes.
    ///
    /// `Ok(Some(_))` — one request, its bytes consumed. `Ok(None)` —
    /// need more input. `Err(_)` — the peer broke protocol; answer
    /// with [`WireError::status`] and close.
    ///
    /// Deliberately named like — but distinct from — `Iterator::next`:
    /// this is a fallible pull with a tri-state result, not an iterator.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Result<Option<Request>, WireError> {
        if let Some(e) = &self.error {
            return Err(e.clone());
        }
        match self.advance() {
            Ok(req) => Ok(req),
            Err(e) => {
                self.phase = Phase::Failed;
                self.error = Some(e.clone());
                Err(e)
            }
        }
    }

    fn advance(&mut self) -> Result<Option<Request>, WireError> {
        loop {
            match &mut self.phase {
                Phase::Failed => unreachable!("poisoned assembler re-entered"),
                Phase::RequestLine => {
                    let line = match self.take_line()? {
                        Some(l) => l,
                        None => return Ok(None),
                    };
                    if line.is_empty() {
                        // Tolerate stray blank lines between requests
                        // (RFC 9112 §2.2 robustness).
                        continue;
                    }
                    let (method, path, http10) = parse_request_line(&line)?;
                    self.phase = Phase::Headers {
                        method,
                        path,
                        http10,
                        headers: Vec::new(),
                    };
                }
                Phase::Headers { .. } => {
                    let line = match self.take_line()? {
                        Some(l) => l,
                        None => return Ok(None),
                    };
                    let Phase::Headers {
                        method,
                        path,
                        http10,
                        headers,
                    } = std::mem::replace(&mut self.phase, Phase::RequestLine)
                    else {
                        unreachable!()
                    };
                    if line.is_empty() {
                        // End of head: validate framing headers now so a
                        // hostile Content-Length never allocates.
                        let want = body_len(&headers, &self.limits)?;
                        if want == 0 {
                            return Ok(Some(Request {
                                method,
                                path,
                                headers,
                                body: Vec::new(),
                                http10,
                            }));
                        }
                        self.phase = Phase::Body {
                            method,
                            path,
                            http10,
                            headers,
                            want,
                            got: Vec::with_capacity(want.min(64 << 10)),
                        };
                        continue;
                    }
                    let mut headers = headers;
                    if headers.len() >= self.limits.max_headers {
                        return Err(WireError::Malformed("too many headers".into()));
                    }
                    match line.split_once(':') {
                        Some((name, value)) => headers
                            .push((name.trim().to_ascii_lowercase(), value.trim().to_string())),
                        None => return Err(WireError::Malformed(format!("bad header {line:?}"))),
                    }
                    self.phase = Phase::Headers {
                        method,
                        path,
                        http10,
                        headers,
                    };
                }
                Phase::Body { want, got, .. } => {
                    let avail = self.buf.len() - self.pos;
                    let take = avail.min(*want - got.len());
                    got.extend_from_slice(&self.buf[self.pos..self.pos + take]);
                    self.pos += take;
                    if got.len() < *want {
                        return Ok(None);
                    }
                    let Phase::Body {
                        method,
                        path,
                        http10,
                        headers,
                        got,
                        ..
                    } = std::mem::replace(&mut self.phase, Phase::RequestLine)
                    else {
                        unreachable!()
                    };
                    return Ok(Some(Request {
                        method,
                        path,
                        headers,
                        body: got,
                        http10,
                    }));
                }
            }
        }
    }

    /// Extract one CRLF- (or bare-LF-) terminated line if complete;
    /// `None` if the terminator hasn't arrived. Enforces the line
    /// bound against the *unterminated* prefix too, so a slowloris
    /// stream with no newline is rejected as soon as it crosses the
    /// cap rather than buffered forever.
    fn take_line(&mut self) -> Result<Option<String>, WireError> {
        let hay = &self.buf[self.pos..];
        match hay.iter().position(|&b| b == b'\n') {
            Some(i) => {
                if i > self.limits.max_line_bytes {
                    return Err(WireError::Malformed("line too long".into()));
                }
                let mut end = i;
                if end > 0 && hay[end - 1] == b'\r' {
                    end -= 1;
                }
                let line = String::from_utf8(hay[..end].to_vec())
                    .map_err(|_| WireError::Malformed("non-utf8 line".into()))?;
                self.pos += i + 1;
                Ok(Some(line))
            }
            None if hay.len() > self.limits.max_line_bytes => {
                Err(WireError::Malformed("line too long".into()))
            }
            None => Ok(None),
        }
    }
}

/// Split and validate `METHOD SP PATH SP VERSION`. The third element
/// of the result is whether the version was HTTP/1.0.
fn parse_request_line(line: &str) -> Result<(String, String, bool), WireError> {
    let mut parts = line.split(' ');
    let (method, path, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v), None) if !m.is_empty() && p.starts_with('/') => (m, p, v),
        _ => {
            return Err(WireError::Malformed(format!("bad request line {line:?}")));
        }
    };
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(WireError::Malformed(format!("bad version {version:?}")));
    }
    Ok((method.to_string(), path.to_string(), version == "HTTP/1.0"))
}

/// Resolve the body length from the headers, rejecting unsupported
/// transfer codings, duplicate/conflicting `Content-Length` (request
/// smuggling vectors, RFC 9112 §6.3), and bodies over the cap.
fn body_len(headers: &[(String, String)], limits: &Limits) -> Result<usize, WireError> {
    if headers
        .iter()
        .any(|(k, v)| k == "transfer-encoding" && !v.eq_ignore_ascii_case("identity"))
    {
        return Err(WireError::Malformed(
            "chunked transfer coding not supported".into(),
        ));
    }
    let mut lens = headers.iter().filter(|(k, _)| k == "content-length");
    let first = match lens.next() {
        None => return Ok(0),
        Some((_, v)) => v,
    };
    if lens.next().is_some() {
        return Err(WireError::Malformed(
            "duplicate content-length headers".into(),
        ));
    }
    // RFC 9112 §6.3 allows digits only; `str::parse` alone would also
    // take a leading `+`, which another parser on the path may reject.
    let digits = first.bytes().all(|b| b.is_ascii_digit());
    match first.parse::<usize>() {
        Ok(n) if digits && n <= limits.max_body_bytes => Ok(n),
        Ok(_) if digits => Err(WireError::TooLarge {
            limit: limits.max_body_bytes,
        }),
        _ => Err(WireError::Malformed(format!(
            "bad content-length {first:?}"
        ))),
    }
}

/// The reason phrase for the status codes the protocol uses.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

/// Serialise a complete response to bytes (for the nonblocking write
/// path, which needs the frame up front to track partial writes). The
/// body is included verbatim with an exact `Content-Length`, so
/// JSON-lines bodies keep their trailing newline.
pub fn render_response(status: u16, body: &[u8], close: bool) -> Vec<u8> {
    let conn = if close { "close" } else { "keep-alive" };
    let mut out = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n",
        status,
        reason(status),
        body.len(),
        conn
    )
    .into_bytes();
    out.extend_from_slice(body);
    out
}

/// Write a complete response to a blocking stream.
pub fn write_response(w: &mut impl Write, status: u16, body: &[u8], close: bool) -> io::Result<()> {
    w.write_all(&render_response(status, body, close))?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One pull from a fresh assembler fed `bytes` in a single push.
    fn parse(bytes: &[u8]) -> Result<Option<Request>, WireError> {
        let mut asm = Assembler::new(Limits::default());
        asm.push(bytes);
        asm.next()
    }

    #[test]
    fn parses_post_with_body() {
        let raw = b"POST /parse HTTP/1.1\r\nHost: x\r\nContent-Length: 11\r\n\r\nhello world";
        let r = parse(raw).unwrap().expect("complete request");
        assert_eq!(r.method, "POST");
        assert_eq!(r.path, "/parse");
        assert_eq!(r.header("host"), Some("x"));
        assert_eq!(r.body_str(), Some("hello world"));
        assert!(!r.wants_close());
    }

    #[test]
    fn parses_get_without_body_and_bare_lf() {
        let r = parse(b"GET /healthz HTTP/1.1\nConnection: Close\n\n")
            .unwrap()
            .expect("complete request");
        assert_eq!(r.method, "GET");
        assert!(r.body.is_empty());
        assert!(r.wants_close());
    }

    #[test]
    fn http10_defaults_to_close_unless_keep_alive() {
        let r = parse(b"GET /healthz HTTP/1.0\r\n\r\n").unwrap().unwrap();
        assert!(r.http10);
        assert!(r.wants_close(), "bare HTTP/1.0 closes by default");
        let r = parse(b"GET /healthz HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n")
            .unwrap()
            .unwrap();
        assert!(!r.wants_close(), "explicit keep-alive wins");
        let r = parse(b"GET /healthz HTTP/1.1\r\n\r\n").unwrap().unwrap();
        assert!(!r.http10);
        assert!(!r.wants_close(), "HTTP/1.1 keeps alive by default");
    }

    #[test]
    fn two_requests_on_one_connection() {
        let raw: Vec<u8> = [
            &b"POST /parse HTTP/1.1\r\nContent-Length: 2\r\n\r\nab"[..],
            &b"GET /metrics HTTP/1.1\r\n\r\n"[..],
        ]
        .concat();
        let mut asm = Assembler::new(Limits::default());
        asm.push(&raw);
        assert_eq!(asm.next().unwrap().unwrap().body_str(), Some("ab"));
        assert_eq!(asm.next().unwrap().unwrap().path, "/metrics");
        // A peer closing here closes cleanly, between requests.
        assert!(asm.next().unwrap().is_none());
        assert!(asm.is_idle());
    }

    #[test]
    fn malformed_inputs_are_reported_not_fatal() {
        for raw in [
            &b"NONSENSE\r\n\r\n"[..],
            &b"GET /x HTTP/2.0\r\n\r\n"[..],
            &b"GET noslash HTTP/1.1\r\n\r\n"[..],
            &b"GET /x HTTP/1.1\r\nbadheader\r\n\r\n"[..],
            &b"POST /x HTTP/1.1\r\nContent-Length: nope\r\n\r\n"[..],
            &b"POST /x HTTP/1.1\r\nContent-Length: +2\r\n\r\nab"[..],
            &b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"[..],
        ] {
            let outcome = parse(raw);
            assert!(
                matches!(outcome, Err(WireError::Malformed(_))),
                "{:?}: {outcome:?}",
                String::from_utf8_lossy(raw)
            );
            assert_eq!(outcome.unwrap_err().status(), 400);
        }
    }

    #[test]
    fn oversized_body_earns_413_not_an_allocation() {
        let raw = format!(
            "POST /x HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        assert!(matches!(
            parse(raw.as_bytes()),
            Err(WireError::TooLarge {
                limit: MAX_BODY_BYTES
            })
        ));

        // A hostile multi-gigabyte declaration must be rejected at
        // header time — the assembler never allocates for the body.
        let raw = b"POST /x HTTP/1.1\r\nContent-Length: 99999999999\r\n\r\n";
        assert!(matches!(parse(raw), Err(WireError::TooLarge { .. })));
    }

    #[test]
    fn duplicate_and_conflicting_content_lengths_are_rejected() {
        for raw in [
            &b"POST /x HTTP/1.1\r\nContent-Length: 3\r\nContent-Length: 8\r\n\r\nabc"[..],
            &b"POST /x HTTP/1.1\r\nContent-Length: 3\r\nContent-Length: 3\r\n\r\nabc"[..],
        ] {
            let mut asm = Assembler::new(Limits::default());
            asm.push(raw);
            assert!(
                matches!(asm.next(), Err(WireError::Malformed(ref m)) if m.contains("content-length")),
                "{:?}",
                String::from_utf8_lossy(raw)
            );
        }
    }

    #[test]
    fn assembler_handles_every_byte_split() {
        let raw = b"POST /parse HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhello";
        for cut in 0..raw.len() {
            let mut asm = Assembler::new(Limits::default());
            asm.push(&raw[..cut]);
            // At most one incomplete parse before the rest arrives.
            assert!(asm.next().unwrap().is_none(), "cut={cut}");
            asm.push(&raw[cut..]);
            let req = asm.next().unwrap().expect("complete after rest");
            assert_eq!(req.body_str(), Some("hello"));
            assert!(asm.is_idle());
        }
    }

    #[test]
    fn assembler_yields_pipelined_requests_one_by_one() {
        let raw: Vec<u8> = [
            &b"POST /parse HTTP/1.1\r\nContent-Length: 2\r\n\r\nab"[..],
            &b"GET /healthz HTTP/1.1\r\n\r\n"[..],
            &b"GET /metr"[..],
        ]
        .concat();
        let mut asm = Assembler::new(Limits::default());
        asm.push(&raw);
        assert_eq!(asm.next().unwrap().unwrap().path, "/parse");
        assert_eq!(asm.next().unwrap().unwrap().path, "/healthz");
        assert!(asm.next().unwrap().is_none());
        assert!(!asm.is_idle(), "partial third request is buffered");
        asm.push(b"ics HTTP/1.1\r\n\r\n");
        assert_eq!(asm.next().unwrap().unwrap().path, "/metrics");
        assert!(asm.is_idle());
    }

    #[test]
    fn assembler_is_poisoned_after_wire_error() {
        let mut asm = Assembler::new(Limits::default());
        asm.push(b"NONSENSE\r\n");
        assert!(asm.next().is_err());
        asm.push(b"GET /x HTTP/1.1\r\n\r\n");
        assert!(asm.next().is_err(), "errors are sticky");
    }

    #[test]
    fn unterminated_oversized_line_is_rejected_early() {
        // A slowloris stream that never sends a newline must be cut
        // off once it crosses the line cap, not buffered forever.
        let limits = Limits {
            max_line_bytes: 64,
            ..Limits::default()
        };
        let mut asm = Assembler::new(limits);
        asm.push(&[b'A'; 64]);
        assert!(asm.next().unwrap().is_none());
        asm.push(&[b'A'; 8]);
        assert!(matches!(
            asm.next(),
            Err(WireError::Malformed(ref m)) if m == "line too long"
        ));
    }

    #[test]
    fn response_bytes_are_exact() {
        let mut out = Vec::new();
        write_response(&mut out, 200, b"{\"ok\":true}\n", false).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("Content-Length: 12\r\n"), "{text}");
        assert!(text.ends_with("\r\n\r\n{\"ok\":true}\n"), "{text}");

        let mut out = Vec::new();
        write_response(&mut out, 503, b"x", true).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("503 Service Unavailable"), "{text}");
        assert!(text.contains("Connection: close"), "{text}");

        assert_eq!(reason(408), "Request Timeout");
        let rendered = render_response(408, b"late", true);
        let mut streamed = Vec::new();
        write_response(&mut streamed, 408, b"late", true).unwrap();
        assert_eq!(rendered, streamed);
    }

    #[test]
    fn truncated_body_leaves_the_request_in_flight() {
        let mut asm = Assembler::new(Limits::default());
        asm.push(b"POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort");
        assert!(asm.next().unwrap().is_none());
        assert!(!asm.is_idle(), "an eof here is mid-request");
    }

    #[test]
    fn overlong_and_non_utf8_lines_earn_a_400_not_an_error() {
        let mut raw = vec![b'A'; MAX_LINE_BYTES + 10];
        raw.extend_from_slice(b" /x HTTP/1.1\r\n\r\n");
        assert!(matches!(parse(&raw), Err(WireError::Malformed(m)) if m == "line too long"));

        let raw = b"GET /\xff\xfe HTTP/1.1\r\n\r\n";
        assert!(matches!(parse(&raw[..]), Err(WireError::Malformed(m)) if m == "non-utf8 line"));

        // The same two problems inside a *header* line, after a clean
        // request line.
        let mut raw = b"GET /x HTTP/1.1\r\nX-Big: ".to_vec();
        raw.extend(std::iter::repeat_n(b'y', MAX_LINE_BYTES + 10));
        raw.extend_from_slice(b"\r\n\r\n");
        assert!(matches!(parse(&raw), Err(WireError::Malformed(_))));
        assert!(matches!(
            parse(&b"GET /x HTTP/1.1\r\nX-Bin: \xff\xff\r\n\r\n"[..]),
            Err(WireError::Malformed(_))
        ));
    }

    mod properties {
        use super::super::*;
        use super::parse;
        use ucfg_support::prop::Gen;
        use ucfg_support::{prop_assert, property};

        /// A plausible request serialised to bytes, for prefix mangling.
        fn well_formed(g: &mut Gen) -> Vec<u8> {
            let body_len = g.len_in(0..64);
            let body: Vec<u8> = (0..body_len).map(|_| g.int_in(0u8..=255)).collect();
            let path = g.string_of(&['a', 'b', '/', '?', '='], 1..=12);
            let mut raw =
                format!("POST /{path} HTTP/1.1\r\nHost: x\r\nContent-Length: {body_len}\r\n\r\n")
                    .into_bytes();
            raw.extend_from_slice(&body);
            raw
        }

        property! {
            cases = 256;
            // A valid request truncated anywhere is still in flight (or,
            // at cut 0, not begun) — never a 400 or a panic — and the
            // whole request parses.
            fn truncated_prefixes_never_panic(
                raw in well_formed,
                cut in |g: &mut Gen| g.int_in(0usize..1 << 9),
            ) {
                let cut = cut.min(raw.len());
                let mut asm = Assembler::new(Limits::default());
                asm.push(&raw[..cut]);
                let outcome = asm.next();
                if cut == raw.len() {
                    prop_assert!(
                        matches!(outcome, Ok(Some(_))),
                        "whole request must parse: {outcome:?}"
                    );
                } else {
                    prop_assert!(matches!(outcome, Ok(None)), "cut {cut}: {outcome:?}");
                    prop_assert!(asm.is_idle() == (cut == 0), "cut {cut}");
                }
            }
        }

        property! {
            cases = 256;
            // Splitting a valid request into two pushes at any byte
            // boundary must reassemble to the identical request.
            fn any_split_reassembles_identically(
                raw in well_formed,
                cut in |g: &mut Gen| g.int_in(0usize..1 << 9),
            ) {
                let cut = cut.min(raw.len());
                let mut whole = Assembler::new(Limits::default());
                whole.push(&raw);
                let expect = whole.next().unwrap().expect("well-formed parses");

                let mut split = Assembler::new(Limits::default());
                split.push(&raw[..cut]);
                let early = split.next().unwrap();
                split.push(&raw[cut..]);
                let got = match early {
                    Some(r) => r,
                    None => split.next().unwrap().expect("complete after rest"),
                };
                prop_assert!(got == expect, "split at {cut} diverged");
            }
        }

        property! {
            cases = 256;
            // Arbitrary bytes — binary garbage, oversized runs with no
            // terminator, stray newlines — must never panic, and any
            // rejected input must carry a non-empty 400 message.
            fn random_bytes_never_panic(
                raw in |g: &mut Gen| {
                    let len = g.len_in(0..2048);
                    (0..len).map(|_| g.int_in(0u8..=255)).collect::<Vec<u8>>()
                },
            ) {
                if let Err(WireError::Malformed(msg)) = parse(&raw) {
                    prop_assert!(!msg.is_empty(), "400 needs a reason");
                }
            }
        }

        property! {
            cases = 64;
            // A run longer than MAX_LINE_BYTES with no newline is the
            // classic slowloris-ish probe: wire-level 400, not an `Err`
            // that silently drops the connection.
            fn oversized_first_line_is_malformed(
                extra in |g: &mut Gen| g.int_in(1usize..1 << 10),
                byte in |g: &mut Gen| *g.choice(&[b'A', b' ', b'/', 0xff]),
            ) {
                let raw = vec![byte; MAX_LINE_BYTES + extra];
                let outcome = parse(&raw);
                prop_assert!(
                    matches!(outcome, Err(WireError::Malformed(ref m)) if m == "line too long"),
                    "{outcome:?}"
                );
            }
        }
    }
}
