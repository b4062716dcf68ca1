//! The client side of the wire: request frames, one keep-alive
//! connection, and the daemon child process.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// The daemon's command line: an ephemeral loopback port, one shard, and
/// every other setting (cache capacity 64, queue depth 256, …) default.
pub const SERVE_ARGS: [&str; 7] = [
    "serve",
    "--host",
    "127.0.0.1",
    "--port",
    "0",
    "--shards",
    "1",
];

/// A complete request frame, sent with one `write_all` so the daemon sees
/// one segment per request (`ucfg_serve::Client` formats the head piece by
/// piece onto the socket).
pub fn frame(method: &str, path: &str, body: &str) -> Vec<u8> {
    let mut f = format!(
        "{method} {path} HTTP/1.1\r\nHost: ucfg-serve\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    f.extend_from_slice(body.as_bytes());
    f
}

pub struct Reply {
    pub status: u16,
    pub body: String,
}

/// One keep-alive connection, sequential request/response.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: String,
}

impl Conn {
    pub fn connect(addr: &str) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            line: String::new(),
        })
    }

    pub fn send(&mut self, frame: &[u8]) -> io::Result<Reply> {
        let invalid = |m: &str| io::Error::new(io::ErrorKind::InvalidData, m.to_string());
        self.writer.write_all(frame)?;
        self.read_line()?;
        let status = self
            .line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| invalid("bad status line"))?;
        let mut length = 0usize;
        loop {
            self.read_line()?;
            if self.line.is_empty() {
                break;
            }
            if let Some((name, value)) = self.line.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    length = value
                        .trim()
                        .parse()
                        .map_err(|_| invalid("bad content-length"))?;
                }
            }
        }
        let mut body = vec![0u8; length];
        self.reader.read_exact(&mut body)?;
        let body = String::from_utf8(body).map_err(|_| invalid("non-UTF-8 body"))?;
        Ok(Reply { status, body })
    }

    fn read_line(&mut self) -> io::Result<()> {
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "daemon closed the connection",
            ));
        }
        let keep = self.line.trim_end_matches(['\r', '\n']).len();
        self.line.truncate(keep);
        Ok(())
    }

    pub fn get_json(&mut self, path: &str) -> Result<ucfg_serve::Json, String> {
        let r = self
            .send(&frame("GET", path, ""))
            .map_err(|e| format!("GET {path}: {e}"))?;
        if r.status != 200 {
            return Err(format!("GET {path} answered {}", r.status));
        }
        ucfg_serve::Json::parse(r.body.trim_end()).map_err(|e| format!("GET {path}: {e}"))
    }
}

/// The `ucfg` binary next to this one (both built into one target
/// directory by `run.sh`) and a scratch directory under that target
/// directory for the daemon's exit metrics and the traced run's spans.
pub struct Env {
    pub ucfg: PathBuf,
    pub work: PathBuf,
    pub threads: usize,
}

impl Env {
    pub fn locate() -> Result<Env, String> {
        let exe = std::env::current_exe().map_err(|e| format!("cannot locate this binary: {e}"))?;
        let bin_dir = exe.parent().ok_or("binary has no parent directory")?;
        let ucfg = bin_dir.join("ucfg");
        if !ucfg.is_file() {
            return Err(format!(
                "{} is missing; build through daemonbench/run.sh",
                ucfg.display()
            ));
        }
        let work = bin_dir.parent().unwrap_or(bin_dir).join("daemonbench-work");
        std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
        Ok(Env {
            ucfg,
            work,
            threads: nproc(),
        })
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The daemon under test; killed and reaped on drop unless it already
/// exited cleanly. Its metrics layer is always on (`ucfg serve` enables
/// it unconditionally), in timed and traced runs alike.
pub struct Daemon {
    child: Child,
    pub addr: String,
    stderr: Option<std::thread::JoinHandle<()>>,
}

impl Daemon {
    pub fn spawn(env: &Env) -> Result<Daemon, String> {
        let mut child = Command::new(&env.ucfg)
            .args(SERVE_ARGS)
            .env("UCFG_THREADS", env.threads.to_string())
            .env("UCFG_OUT_DIR", &env.work)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", env.ucfg.display()))?;
        let stderr = child.stderr.take().expect("stderr is piped");
        let mut daemon = Daemon {
            child,
            addr: String::new(),
            stderr: None,
        };
        let mut lines = BufReader::new(stderr);
        let mut line = String::new();
        while daemon.addr.is_empty() {
            line.clear();
            if !matches!(lines.read_line(&mut line), Ok(n) if n > 0) {
                return Err("daemon exited before listening".into());
            }
            if let Some(rest) = line.split("listening on ").nth(1) {
                daemon.addr = rest
                    .split_whitespace()
                    .next()
                    .unwrap_or_default()
                    .to_string();
            }
        }
        // Keep draining so the daemon never blocks on a full pipe.
        daemon.stderr = Some(std::thread::spawn(move || {
            let mut sink = String::new();
            while matches!(lines.read_line(&mut sink), Ok(n) if n > 0) {
                sink.clear();
            }
        }));
        Ok(daemon)
    }

    /// Peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.child.id());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| format!("{path} has no VmHWM"))
    }

    /// `POST /shutdown`, then wait for a clean exit.
    pub fn shutdown(mut self, conn: &mut Conn) -> Result<(), String> {
        conn.send(&frame("POST", "/shutdown", ""))
            .map_err(|e| format!("shutdown: {e}"))?;
        let start = Instant::now();
        loop {
            match self.child.try_wait() {
                Ok(Some(s)) if s.success() => return Ok(()),
                Ok(Some(s)) => return Err(format!("daemon exited with {s}")),
                Ok(None) if start.elapsed() < Duration::from_secs(30) => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => return Err("daemon did not exit after /shutdown".into()),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if !matches!(self.child.try_wait(), Ok(Some(_))) {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        if let Some(h) = self.stderr.take() {
            let _ = h.join();
        }
    }
}

/// Machine and settings stamped on every result.
pub fn fingerprint(threads: usize) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .and_then(|r| r.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let rustc = Command::new(std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into()))
        .arg("-V")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "cpu=\"{cpu}\" nproc={} simd={:?} rustc=\"{rustc}\" profile={profile} \
         daemon=\"ucfg {}\" cache=default UCFG_THREADS={threads}",
        nproc(),
        ucfg_support::simd::backend(),
        SERVE_ARGS.join(" ")
    )
}
