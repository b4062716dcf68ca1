//! A minimal blocking HTTP/1.1 client for the serve protocol.
//!
//! Used by `ucfg query` (and CI) to drive a running daemon: one
//! keep-alive connection, sequential request/response. Connection setup
//! retries for a bounded window so scripts can race server startup.
//!
//! The read timeout is configurable ([`Client::connect_with`] /
//! `ucfg query --timeout-ms`) and defaults to
//! [`DEFAULT_READ_TIMEOUT`], so a wedged daemon fails the script fast
//! instead of stalling it for minutes.

use std::io::{self, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// How long a response read may stall before the client gives up.
/// Generous against the server's own 10 s queue deadline, far below
/// the minutes a hung connection used to cost.
pub const DEFAULT_READ_TIMEOUT: Duration = Duration::from_secs(30);

/// A keep-alive connection to a serve daemon.
#[derive(Debug)]
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

/// One response: status code and body text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// The body, verbatim (single JSON line for API endpoints).
    pub body: String,
}

impl Client {
    /// Connect once with [`DEFAULT_READ_TIMEOUT`].
    pub fn connect(addr: &str) -> io::Result<Client> {
        Client::connect_with(addr, Some(DEFAULT_READ_TIMEOUT))
    }

    /// Connect once with an explicit read timeout (`None` blocks
    /// forever — only sensible for interactive experiments).
    pub fn connect_with(addr: &str, read_timeout: Option<Duration>) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        // A stuck server should fail the script, not hang it.
        stream.set_read_timeout(read_timeout)?;
        Ok(Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    /// Connect, retrying on `ECONNREFUSED`-style failures until
    /// `within` elapses — covers the window between spawning the server
    /// process and its `bind`. Uses [`DEFAULT_READ_TIMEOUT`].
    pub fn connect_retry(addr: &str, within: Duration) -> io::Result<Client> {
        Client::connect_retry_with(addr, within, Some(DEFAULT_READ_TIMEOUT))
    }

    /// [`Client::connect_retry`] with an explicit read timeout.
    pub fn connect_retry_with(
        addr: &str,
        within: Duration,
        read_timeout: Option<Duration>,
    ) -> io::Result<Client> {
        let start = Instant::now();
        loop {
            match Client::connect_with(addr, read_timeout) {
                Ok(c) => return Ok(c),
                Err(e) if start.elapsed() < within => {
                    let _ = e;
                    std::thread::sleep(Duration::from_millis(50));
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Send one request and read its response. `body = None` sends a
    /// bodyless request (GET-style). The request goes out in one write:
    /// the stream is unbuffered with `TCP_NODELAY`, so each write can
    /// leave as its own segment.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> io::Result<Response> {
        self.writer
            .write_all(&frame_request(method, path, body.unwrap_or("")))?;
        self.read_response()
    }

    fn read_response(&mut self) -> io::Result<Response> {
        let status_line = self.read_line()?;
        let status: u16 = status_line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("bad status line {status_line:?}"),
                )
            })?;
        let mut content_length = 0usize;
        loop {
            let line = self.read_line()?;
            if line.is_empty() {
                break;
            }
            if let Some((name, value)) = line.split_once(':') {
                if name.trim().eq_ignore_ascii_case("content-length") {
                    content_length = value.trim().parse().map_err(|_| {
                        io::Error::new(io::ErrorKind::InvalidData, "bad content-length")
                    })?;
                }
            }
        }
        let mut body = vec![0u8; content_length];
        self.reader.read_exact(&mut body)?;
        let body = String::from_utf8(body)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-utf8 body"))?;
        Ok(Response { status, body })
    }

    fn read_line(&mut self) -> io::Result<String> {
        let mut buf = Vec::new();
        loop {
            let mut byte = [0u8; 1];
            match self.reader.read(&mut byte)? {
                0 => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "eof in response head",
                    ))
                }
                _ => {
                    if byte[0] == b'\n' {
                        if buf.last() == Some(&b'\r') {
                            buf.pop();
                        }
                        return String::from_utf8(buf).map_err(|_| {
                            io::Error::new(io::ErrorKind::InvalidData, "non-utf8 header")
                        });
                    }
                    buf.push(byte[0]);
                }
            }
        }
    }
}

/// The wire bytes of one request: head and body in one buffer.
fn frame_request(method: &str, path: &str, body: &str) -> Vec<u8> {
    let mut frame = format!(
        "{method} {path} HTTP/1.1\r\nHost: ucfg-serve\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    frame.extend_from_slice(body.as_bytes());
    frame
}

// The client is exercised end-to-end against a real server in
// `tests/serve_e2e.rs`; pure parsing paths are covered there too.
#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_frame_is_exact_and_parses_back() {
        let frame = frame_request("POST", "/parse", "{\"word\":\"ab\"}");
        assert_eq!(
            frame,
            b"POST /parse HTTP/1.1\r\nHost: ucfg-serve\r\nContent-Length: 13\r\n\r\n{\"word\":\"ab\"}"
        );
        assert_eq!(
            frame_request("GET", "/healthz", ""),
            b"GET /healthz HTTP/1.1\r\nHost: ucfg-serve\r\nContent-Length: 0\r\n\r\n"
        );
        let mut asm = crate::http::Assembler::new(crate::http::Limits::default());
        asm.push(&frame);
        let req = asm.next().unwrap().expect("one complete request");
        assert_eq!((req.method.as_str(), req.path.as_str()), ("POST", "/parse"));
        assert_eq!(req.body_str(), Some("{\"word\":\"ab\"}"));
        assert!(asm.is_idle());
    }

    #[test]
    fn connect_retry_gives_up_with_the_underlying_error() {
        // Port 1 on loopback is essentially never listening.
        let err = Client::connect_retry("127.0.0.1:1", Duration::from_millis(120)).unwrap_err();
        // Any error kind is fine — the point is it returns, bounded.
        let _ = err;
    }

    #[test]
    fn read_timeout_cuts_off_a_wedged_server() {
        use std::net::TcpListener;

        // A listener that accepts and then never writes a byte.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let hold = std::thread::spawn(move || listener.accept().map(|(s, _)| s));

        let mut client = Client::connect_with(&addr, Some(Duration::from_millis(100))).unwrap();
        let start = Instant::now();
        let err = client.request("GET", "/healthz", None).unwrap_err();
        assert!(
            matches!(
                err.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
            ),
            "{err:?}"
        );
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "timeout must fire promptly, took {:?}",
            start.elapsed()
        );
        drop(hold.join().unwrap());
    }
}
