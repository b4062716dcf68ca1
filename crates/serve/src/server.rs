//! The TCP server: epoll event loop, routing, shards, and graceful
//! shutdown.
//!
//! Threading model: **one event-loop thread** owns every socket — the
//! listener and all connections are nonblocking and edge-triggered
//! through [`ucfg_support::evloop`] — plus one batch-scheduler thread
//! per shard ([`ShardSet`]). Each connection is a small state machine:
//! an incremental [`Assembler`] collects request bytes as they arrive,
//! complete requests are routed, compute requests are enqueued on the
//! shard owning their content hash, and the shard's reply lands in a
//! completion queue that wakes the poller (eventfd) to write the
//! response. At most one request per connection is in flight at a
//! time; pipelined bytes wait in the assembler.
//!
//! Robustness on the connection path:
//! - bodies over `--max-body-bytes` are answered `413` at header time
//!   (nothing is allocated for the declared length);
//! - a request that trickles in longer than `--request-timeout-ms`
//!   is answered `408` and the connection closed (slowloris defence);
//! - a connection with no forward progress for `--idle-timeout-ms` —
//!   silent since accept, or never reading the response it is owed —
//!   is closed outright, so silent peers cannot pin the connection
//!   budget and starve accepts;
//! - when live connections reach `--max-connections`, the listener is
//!   deregistered from the poller (**accept backpressure**): new
//!   connections queue in the kernel backlog instead of each burning a
//!   thread, and accepting resumes as soon as a slot frees.
//!
//! Shutdown — via SIGTERM/SIGINT, `POST /shutdown`, or a
//! [`ServerHandle`] — runs in strict order: stop accepting, close idle
//! connections, let in-flight requests complete (their responses are
//! sent `Connection: close`; the per-request deadline bounds the
//! stragglers), then stop and join the shard schedulers once no
//! producer remains. That ordering is what makes "drain in-flight
//! batches" a guarantee instead of a race.

use crate::batch::{Job, ParseJob, ParseOutcome, RectJob, ReplySink, StreamJob, StreamOp};
use crate::http::{render_response, Assembler, Limits, Request, WireError};
use crate::json::Json;
use crate::protocol::{
    session_from_json, ApiError, ParseRequest, RectRequest, StreamFeedRequest, StreamOpenRequest,
};
use crate::shard::ShardSet;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};
use ucfg_grammar::Grammar;
use ucfg_support::evloop::{self, Event, Interest, Poller, Waker};
use ucfg_support::{obs, par};

/// Set by the SIGTERM/SIGINT handlers; polled by every event loop.
/// Process-global because signal dispositions are process-global.
static SIGNAL_SHUTDOWN: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
mod sig {
    use super::SIGNAL_SHUTDOWN;
    use std::sync::atomic::Ordering;

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" fn on_signal(_signum: i32) {
        // An atomic store is async-signal-safe; everything else happens
        // on the event loop when it next polls the flag.
        SIGNAL_SHUTDOWN.store(true, Ordering::SeqCst);
    }

    /// Route SIGTERM and SIGINT to the shutdown flag. Uses the libc
    /// `signal(2)` symbol std already links — the workspace stays
    /// dependency-free.
    pub fn install() {
        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }
        let handler: extern "C" fn(i32) = on_signal;
        unsafe {
            signal(SIGINT, handler as usize);
            signal(SIGTERM, handler as usize);
        }
    }
}

#[cfg(not(unix))]
mod sig {
    /// No-op off Unix; `POST /shutdown` and [`super::ServerHandle`]
    /// still provide graceful shutdown.
    pub fn install() {}
}

/// Server configuration. `Default` gives the documented defaults;
/// `ucfg serve` sets every field from its flags (the default where a
/// flag is absent), and tests override the bounds.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Interface to bind (default loopback).
    pub host: String,
    /// TCP port; 0 asks the OS for an ephemeral port.
    pub port: u16,
    /// Bounded batch-queue depth per shard; a full queue load-sheds.
    pub queue_depth: usize,
    /// Per-request queue deadline in milliseconds.
    pub deadline_ms: u64,
    /// Artifact-cache capacity (entries, total across shards).
    pub cache_capacity: usize,
    /// Maximum concurrent connections. At the budget the listener is
    /// paused (accept backpressure) instead of answering 503; excess
    /// connections wait in the kernel backlog.
    pub max_connections: usize,
    /// Worker shards: per-shard artifact cache + batch queue, keyed by
    /// content hash (`--shards`).
    pub shards: usize,
    /// Largest accepted request body in bytes (`--max-body-bytes`);
    /// larger declarations are answered 413.
    pub max_body_bytes: usize,
    /// Overall header+body deadline per request in milliseconds
    /// (`--request-timeout-ms`); slower clients are answered 408.
    pub request_timeout_ms: u64,
    /// How long a connection may sit with no forward progress — no
    /// bytes read, no bytes written — before it is closed
    /// (`--idle-timeout-ms`). This is what reclaims slots from clients
    /// that connect and never send a byte, so silent connections
    /// cannot pin the `max_connections` budget and starve accepts.
    pub idle_timeout_ms: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            host: "127.0.0.1".to_string(),
            port: 7878,
            queue_depth: 256,
            deadline_ms: 10_000,
            cache_capacity: 64,
            max_connections: 10_000,
            shards: 1,
            max_body_bytes: crate::http::MAX_BODY_BYTES,
            request_timeout_ms: 10_000,
            idle_timeout_ms: 60_000,
        }
    }
}

pub(crate) struct State {
    cfg: ServeConfig,
    shards: ShardSet,
    shutdown: AtomicBool,
    started: Instant,
    requests: AtomicU64,
    /// Live connections (for `/healthz`).
    connections: AtomicUsize,
    /// Socket `write(2)` calls the event loop has issued — the
    /// coalescing metric: queued responses on a connection are batched
    /// into one flush per event-loop wakeup, so pipelined requests cost
    /// one syscall, not one per response (for `/healthz`; volatile).
    flush_writes: AtomicU64,
    /// Replies from shard threads, drained by the event loop.
    completions: Mutex<Vec<Completion>>,
    /// Wakes the poller when a completion lands; set once by `run`.
    waker: OnceLock<Arc<Waker>>,
}

/// One finished compute job, addressed to connection `slot` as of
/// generation `gen` (stale generations mean the connection died and
/// was replaced; the completion is dropped).
struct Completion {
    slot: usize,
    gen: u64,
    status: u16,
    body: String,
}

impl State {
    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst) || SIGNAL_SHUTDOWN.load(Ordering::SeqCst)
    }
}

/// Deliver a shard reply to the event loop and wake it.
fn push_completion(state: &State, slot: usize, gen: u64, status: u16, body: String) {
    state
        .completions
        .lock()
        .expect("completions poisoned")
        .push(Completion {
            slot,
            gen,
            status,
            body,
        });
    if let Some(w) = state.waker.get() {
        w.wake();
    }
}

/// A clonable handle for telling a running server to drain and exit
/// (used by tests and by in-process embedders like `serve_bench`).
#[derive(Clone)]
pub struct ServerHandle {
    state: Arc<State>,
}

impl ServerHandle {
    /// Begin graceful shutdown.
    pub fn shutdown(&self) {
        self.state.shutdown.store(true, Ordering::SeqCst);
    }
}

/// What [`Server::run`] reports after a graceful drain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeSummary {
    /// Total HTTP requests answered (any status).
    pub requests: u64,
}

/// A bound, not-yet-running server.
pub struct Server {
    listener: TcpListener,
    state: Arc<State>,
}

impl Server {
    /// Bind `cfg.host:cfg.port` and prepare the state. Does not accept
    /// yet — call [`Server::run`].
    pub fn bind(cfg: ServeConfig) -> io::Result<Server> {
        let listener = TcpListener::bind((cfg.host.as_str(), cfg.port))?;
        listener.set_nonblocking(true)?;
        let state = Arc::new(State {
            shards: ShardSet::new(
                cfg.shards,
                cfg.cache_capacity,
                cfg.queue_depth,
                Duration::from_millis(cfg.deadline_ms),
            ),
            shutdown: AtomicBool::new(false),
            started: Instant::now(),
            requests: AtomicU64::new(0),
            connections: AtomicUsize::new(0),
            flush_writes: AtomicU64::new(0),
            completions: Mutex::new(Vec::new()),
            waker: OnceLock::new(),
            cfg,
        });
        Ok(Server { listener, state })
    }

    /// Where the server actually listens (resolves port 0).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A shutdown handle, safe to move to another thread.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            state: Arc::clone(&self.state),
        }
    }

    /// Install SIGTERM/SIGINT handlers that trigger graceful shutdown.
    /// Call once from the CLI; in-process embedders skip this and use
    /// [`Server::handle`].
    pub fn install_signal_handlers() {
        sig::install();
    }

    /// Serve until shutdown is requested, then drain and return.
    /// Requires epoll, i.e. Linux (the constructor fails cleanly
    /// elsewhere).
    pub fn run(self) -> io::Result<ServeSummary> {
        let state = Arc::clone(&self.state);

        // Best-effort: each connection is one fd; leave headroom for
        // the listener, poller, eventfd, and stdio.
        let _ = evloop::raise_nofile_limit(state.cfg.max_connections as u64 + 64);

        let shard_threads = state.shards.spawn()?;

        let poller = Poller::new()?;
        poller.add(
            self.listener.as_raw_fd(),
            TOKEN_LISTENER,
            Interest::READABLE,
        )?;
        let waker = Arc::new(Waker::new(&poller, TOKEN_WAKER)?);
        let _ = state.waker.set(Arc::clone(&waker));

        let mut evloop = EventLoop {
            state: Arc::clone(&state),
            poller,
            listener: self.listener,
            conns: Vec::new(),
            gens: Vec::new(),
            free: Vec::new(),
            live: 0,
            accept_registered: true,
            events: Vec::new(),
            dirty: Vec::new(),
        };
        let result = evloop.run();

        // No producer remains (all connections are closed), so the
        // shard queues drain to empty and the threads exit.
        state.shards.stop();
        for h in shard_threads {
            let _ = h.join();
        }
        result?;

        Ok(ServeSummary {
            requests: state.requests.load(Ordering::SeqCst),
        })
    }
}

/// Token for the listening socket.
const TOKEN_LISTENER: u64 = u64::MAX;
/// Token for the completion-queue eventfd.
const TOKEN_WAKER: u64 = u64::MAX - 1;

/// Per-connection state machine.
struct Conn {
    stream: TcpStream,
    /// Incremental request parser.
    asm: Assembler,
    /// Pending response bytes (next write starts at `out_pos`).
    out: Vec<u8>,
    out_pos: usize,
    /// A compute job is in flight; don't pump further requests.
    awaiting_reply: bool,
    /// Close once `out` is fully flushed.
    close_after_write: bool,
    /// The in-flight request asked for `Connection: close`.
    pending_close: bool,
    /// Deadline for completing the currently-assembling request
    /// (slowloris defence); `None` while idle, awaiting a reply, or
    /// already marked to close.
    deadline: Option<Instant>,
    /// Last moment the connection made forward progress (accepted,
    /// bytes read, or bytes written). A connection stalled longer than
    /// `--idle-timeout-ms` — silent since accept, or never reading its
    /// final response — is closed outright.
    last_activity: Instant,
    /// Registered interest currently includes writable.
    want_write: bool,
    /// Queued response bytes await the end-of-wakeup flush (the slot is
    /// on the event loop's dirty list).
    flush_pending: bool,
    /// Slot generation, for matching completions.
    gen: u64,
}

/// The single-threaded epoll loop owning every socket.
struct EventLoop {
    state: Arc<State>,
    poller: Poller,
    listener: TcpListener,
    conns: Vec<Option<Conn>>,
    /// Per-slot generation counters (bumped on reuse).
    gens: Vec<u64>,
    free: Vec<usize>,
    live: usize,
    accept_registered: bool,
    events: Vec<Event>,
    /// Slots with responses queued this wakeup, flushed once at the end
    /// of the loop iteration so pipelined responses coalesce into one
    /// `write`.
    dirty: Vec<usize>,
}

impl EventLoop {
    fn run(&mut self) -> io::Result<()> {
        loop {
            if self.state.shutting_down() {
                self.pause_accept();
                self.close_idle_conns();
                if self.live == 0 {
                    return Ok(());
                }
            }

            let timeout = self.next_timeout();
            let mut events = std::mem::take(&mut self.events);
            events.clear();
            self.poller.wait(&mut events, Some(timeout))?;
            for &ev in events.iter() {
                match ev.token {
                    TOKEN_LISTENER => self.accept_sweep()?,
                    TOKEN_WAKER => {
                        if let Some(w) = self.state.waker.get() {
                            w.drain();
                        }
                    }
                    slot => self.on_conn_event(slot as usize, ev),
                }
            }
            self.events = events;

            self.deliver_completions();
            self.enforce_deadlines();
            self.flush_dirty();
            self.maybe_resume_accept()?;
        }
    }

    /// How long the next `epoll_wait` may block: bounded by the poll
    /// tick (shutdown flag, completion races) and the nearest
    /// per-request deadline.
    fn next_timeout(&self) -> Duration {
        let tick = Duration::from_millis(50);
        let now = Instant::now();
        self.conns
            .iter()
            .flatten()
            .filter_map(|c| c.deadline)
            .map(|d| d.saturating_duration_since(now))
            .min()
            .map_or(tick, |until| until.min(tick))
    }

    // ---- accepting --------------------------------------------------

    fn accept_sweep(&mut self) -> io::Result<()> {
        if !self.accept_registered {
            return Ok(());
        }
        loop {
            if self.live >= self.state.cfg.max_connections {
                // Budget reached: stop listening. The kernel backlog
                // holds new connections until a slot frees.
                self.pause_accept();
                return Ok(());
            }
            match self.listener.accept() {
                Ok((stream, _peer)) => self.register_conn(stream)?,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                // The peer vanished between SYN and accept (ECONNABORTED
                // and friends): that connection is gone from the queue,
                // keep draining the rest.
                Err(e) if e.kind() == io::ErrorKind::ConnectionAborted => {}
                // Resource errors (EMFILE/ENFILE/ENOBUFS…) leave the
                // connection *in* the backlog, so under edge-triggered
                // epoll simply returning would strand it until a fresh
                // SYN. Park the listener instead; `maybe_resume_accept`
                // re-arms it on the next tick — a level-style retry
                // without a busy loop.
                Err(_) => {
                    obs::vcount!("serve.accept.errors");
                    self.pause_accept();
                    return Ok(());
                }
            }
        }
    }

    fn register_conn(&mut self, stream: TcpStream) -> io::Result<()> {
        stream.set_nonblocking(true)?;
        let _ = stream.set_nodelay(true);
        let slot = self.free.pop().unwrap_or_else(|| {
            self.conns.push(None);
            self.gens.push(0);
            self.conns.len() - 1
        });
        self.gens[slot] += 1;
        self.poller
            .add(stream.as_raw_fd(), slot as u64, Interest::READABLE)?;
        self.conns[slot] = Some(Conn {
            stream,
            asm: Assembler::new(Limits {
                max_body_bytes: self.state.cfg.max_body_bytes,
                ..Limits::default()
            }),
            out: Vec::new(),
            out_pos: 0,
            awaiting_reply: false,
            close_after_write: false,
            pending_close: false,
            deadline: None,
            last_activity: Instant::now(),
            want_write: false,
            flush_pending: false,
            gen: self.gens[slot],
        });
        self.live += 1;
        self.state.connections.store(self.live, Ordering::SeqCst);
        obs::vcount!("serve.connections.accepted");
        Ok(())
    }

    fn pause_accept(&mut self) {
        if self.accept_registered {
            let _ = self.poller.remove(self.listener.as_raw_fd());
            self.accept_registered = false;
        }
    }

    fn maybe_resume_accept(&mut self) -> io::Result<()> {
        if !self.accept_registered
            && !self.state.shutting_down()
            && self.live < self.state.cfg.max_connections
        {
            self.poller.add(
                self.listener.as_raw_fd(),
                TOKEN_LISTENER,
                Interest::READABLE,
            )?;
            self.accept_registered = true;
            // Edge-triggered: connections that queued while paused
            // won't produce a fresh edge, so sweep the backlog now.
            self.accept_sweep()?;
        }
        Ok(())
    }

    // ---- connection I/O --------------------------------------------

    fn on_conn_event(&mut self, slot: usize, ev: Event) {
        if self.conns.get(slot).is_none_or(Option::is_none) {
            return; // stale event for a closed connection
        }
        if ev.error {
            self.close_conn(slot);
            return;
        }
        if ev.readable || ev.hangup {
            self.read_drain(slot);
        }
        if ev.writable && self.conns[slot].is_some() {
            self.flush(slot);
        }
    }

    /// Drain the socket until `WouldBlock` (edge-triggered contract),
    /// then pump any complete requests.
    fn read_drain(&mut self, slot: usize) {
        let mut eof = false;
        let mut buf = [0u8; 16 << 10];
        loop {
            let Some(conn) = self.conns[slot].as_mut() else {
                return;
            };
            match conn.stream.read(&mut buf) {
                Ok(0) => {
                    eof = true;
                    break;
                }
                Ok(n) => {
                    conn.last_activity = Instant::now();
                    conn.asm.push(&buf[..n]);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    eof = true;
                    break;
                }
            }
        }
        self.pump_requests(slot);
        if eof {
            let Some(conn) = self.conns[slot].as_mut() else {
                return;
            };
            if conn.awaiting_reply || conn.out_pos < conn.out.len() {
                // A reply is still owed or buffered: deliver it (the
                // peer may have only shut down its write side), then
                // close. No more request bytes can arrive, so the
                // request deadline is moot.
                conn.close_after_write = true;
                conn.deadline = None;
            } else {
                self.close_conn(slot);
            }
        }
    }

    /// Run the assembler: dispatch complete requests until input runs
    /// out, a compute job goes in flight, or the connection errors.
    fn pump_requests(&mut self, slot: usize) {
        loop {
            let step = {
                let Some(conn) = self.conns[slot].as_mut() else {
                    return;
                };
                if conn.awaiting_reply || conn.close_after_write {
                    break;
                }
                conn.asm.next()
            };
            match step {
                Ok(None) => break,
                Ok(Some(req)) => {
                    let routed = route(&self.state, &req);
                    // Computed after routing so `POST /shutdown`'s own
                    // response already carries `Connection: close`.
                    let close = req.wants_close() || self.state.shutting_down();
                    match routed {
                        Routed::Ready(status, body) => {
                            self.queue_response(slot, status, &body, close)
                        }
                        Routed::Enqueue(spec) => {
                            let gen = {
                                let conn = self.conns[slot].as_mut().expect("checked above");
                                conn.awaiting_reply = true;
                                conn.pending_close = close;
                                conn.gen
                            };
                            if let Err(e) = enqueue_job(&self.state, spec, slot, gen) {
                                if let Some(conn) = self.conns[slot].as_mut() {
                                    conn.awaiting_reply = false;
                                }
                                self.queue_response(slot, e.status(), &e.body(), close);
                            }
                        }
                    }
                }
                Err(we) => {
                    let err = match we {
                        WireError::Malformed(m) => ApiError::BadRequest(m),
                        WireError::TooLarge { limit } => ApiError::PayloadTooLarge { limit },
                    };
                    self.queue_response(slot, err.status(), &err.body(), true);
                    break;
                }
            }
        }
        // Deadline bookkeeping: a partially-assembled request is on
        // the clock; an idle, reply-awaiting, or closing connection is
        // not.
        if let Some(conn) = self.conns[slot].as_mut() {
            if conn.awaiting_reply || conn.close_after_write || conn.asm.is_idle() {
                conn.deadline = None;
            } else if conn.deadline.is_none() {
                conn.deadline =
                    Some(Instant::now() + Duration::from_millis(self.state.cfg.request_timeout_ms));
            }
        }
    }

    /// Serialise a response onto the connection's write buffer and
    /// mark the slot dirty; the actual `write` happens once per event-
    /// loop wakeup in [`EventLoop::flush_dirty`], so pipelined replies
    /// coalesce into a single syscall.
    fn queue_response(&mut self, slot: usize, status: u16, body: &str, close: bool) {
        let Some(conn) = self.conns[slot].as_mut() else {
            return; // slot already closed; nothing was sent, count nothing
        };
        self.state.requests.fetch_add(1, Ordering::SeqCst);
        let frame = render_response(status, body.as_bytes(), close);
        conn.out.extend_from_slice(&frame);
        conn.last_activity = Instant::now();
        if close {
            conn.close_after_write = true;
            // The request clock stops once the closing response is
            // queued — otherwise an unread response would re-trip the
            // deadline every tick.
            conn.deadline = None;
        }
        if !conn.flush_pending {
            conn.flush_pending = true;
            self.dirty.push(slot);
        }
    }

    /// Flush every slot that queued a response this wakeup. Runs once
    /// per loop iteration, after completions and deadlines, so a burst
    /// of pipelined responses leaves in one `write`.
    fn flush_dirty(&mut self) {
        if self.dirty.is_empty() {
            return;
        }
        let dirty = std::mem::take(&mut self.dirty);
        for slot in dirty {
            // A writable-edge flush (or a close) may already have
            // cleared the mark; stale entries are skipped.
            let pending = self
                .conns
                .get(slot)
                .is_some_and(|c| c.as_ref().is_some_and(|c| c.flush_pending));
            if pending {
                self.flush(slot);
            }
        }
    }

    fn flush(&mut self, slot: usize) {
        let Some(conn) = self.conns[slot].as_mut() else {
            return;
        };
        conn.flush_pending = false;
        while conn.out_pos < conn.out.len() {
            match conn.stream.write(&conn.out[conn.out_pos..]) {
                Ok(0) => {
                    self.close_conn(slot);
                    return;
                }
                Ok(n) => {
                    self.state.flush_writes.fetch_add(1, Ordering::SeqCst);
                    obs::vcount!("serve.flush.writes");
                    conn.out_pos += n;
                    conn.last_activity = Instant::now();
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    if !conn.want_write {
                        conn.want_write = true;
                        let _ = self.poller.modify(
                            conn.stream.as_raw_fd(),
                            slot as u64,
                            Interest::BOTH,
                        );
                    }
                    return;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.close_conn(slot);
                    return;
                }
            }
        }
        conn.out.clear();
        conn.out_pos = 0;
        if conn.close_after_write {
            self.close_conn(slot);
            return;
        }
        if conn.want_write {
            conn.want_write = false;
            let _ = self
                .poller
                .modify(conn.stream.as_raw_fd(), slot as u64, Interest::READABLE);
        }
    }

    fn close_conn(&mut self, slot: usize) {
        if let Some(conn) = self.conns[slot].take() {
            let _ = self.poller.remove(conn.stream.as_raw_fd());
            drop(conn);
            self.free.push(slot);
            self.live -= 1;
            self.state.connections.store(self.live, Ordering::SeqCst);
        }
    }

    // ---- completions and deadlines ---------------------------------

    fn deliver_completions(&mut self) {
        let done: Vec<Completion> = {
            let mut guard = self.state.completions.lock().expect("completions poisoned");
            std::mem::take(&mut *guard)
        };
        for c in done {
            let matches = self.conns.get(c.slot).is_some_and(|s| {
                s.as_ref()
                    .is_some_and(|conn| conn.gen == c.gen && conn.awaiting_reply)
            });
            if !matches {
                continue; // connection died; the reply has no home
            }
            let close = {
                let conn = self.conns[c.slot].as_mut().expect("checked above");
                conn.awaiting_reply = false;
                conn.pending_close || self.state.shutting_down()
            };
            self.queue_response(c.slot, c.status, &c.body, close);
            // The reply may have unblocked pipelined requests.
            if self.conns[c.slot].is_some() {
                self.pump_requests(c.slot);
            }
        }
    }

    /// Answer 408 to connections whose in-progress request overstayed
    /// `--request-timeout-ms`, and close connections that have made no
    /// forward progress for `--idle-timeout-ms` (silent since accept,
    /// or never reading the response owed to them).
    fn enforce_deadlines(&mut self) {
        let now = Instant::now();
        let idle_after = Duration::from_millis(self.state.cfg.idle_timeout_ms);
        for slot in 0..self.conns.len() {
            let Some(conn) = self.conns[slot].as_ref() else {
                continue;
            };
            // Already answered and closing: the request clock is off
            // (queue_response cleared it); only the stall check below
            // can still reap the slot if the peer never reads.
            if !conn.close_after_write && conn.deadline.is_some_and(|d| now >= d) {
                obs::vcount!("serve.rejects.request_timeout");
                let err = ApiError::RequestTimeout {
                    waited_ms: self.state.cfg.request_timeout_ms,
                };
                // queue_response(close=true) clears the deadline, so
                // the 408 is framed exactly once per request.
                self.queue_response(slot, err.status(), &err.body(), true);
                continue;
            }
            // Stall reaper. Connections awaiting a shard reply are
            // exempt: the batch deadline bounds those, and the
            // completion restarts the clock.
            let stalled = !conn.awaiting_reply
                && now.saturating_duration_since(conn.last_activity) >= idle_after;
            if stalled {
                obs::vcount!("serve.rejects.idle_timeout");
                self.close_conn(slot);
            }
        }
    }

    /// During shutdown: close connections with nothing in flight.
    fn close_idle_conns(&mut self) {
        for slot in 0..self.conns.len() {
            let idle = self.conns[slot]
                .as_ref()
                .is_some_and(|c| !c.awaiting_reply && c.out_pos >= c.out.len() && c.asm.is_idle());
            if idle {
                self.close_conn(slot);
            }
        }
    }
}

/// Where a routed request goes next.
enum Routed {
    /// Answer immediately (status, body).
    Ready(u16, String),
    /// Hand to a shard's batch queue.
    Enqueue(JobSpec),
}

/// A compute request, validated and ready to enqueue.
enum JobSpec {
    /// `/parse`.
    Parse {
        key: u64,
        grammar: Grammar,
        word: String,
        check: bool,
    },
    /// `/cover/verify` or `/discrepancy`.
    Rect { req: RectRequest, discrepancy: bool },
    /// `/stream/open`, `/stream/feed`, `/stream/query`, `/stream/close`.
    /// Routed to the shard owning the deterministic session id.
    Stream { session: u64, op: StreamOp },
}

/// Dispatch one request. Infallible: protocol errors become their JSON
/// error bodies. Pure routing — no compute, no blocking.
fn route(state: &State, req: &Request) -> Routed {
    let result: Result<Routed, ApiError> = match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => {
            obs::count!("serve.requests.healthz");
            Ok(Routed::Ready(200, healthz(state)))
        }
        ("GET", "/metrics") => {
            obs::count!("serve.requests.metrics");
            Ok(Routed::Ready(200, obs::export_json("serve")))
        }
        ("GET", "/metrics/deterministic") => {
            obs::count!("serve.requests.metrics");
            Ok(Routed::Ready(200, obs::export_deterministic("serve")))
        }
        ("POST", "/parse") => {
            obs::count!("serve.requests.parse");
            parse_spec(state, req)
        }
        ("POST", "/cover/verify") => {
            obs::count!("serve.requests.cover");
            rect_spec(state, req, false)
        }
        ("POST", "/discrepancy") => {
            obs::count!("serve.requests.discrepancy");
            rect_spec(state, req, true)
        }
        ("POST", "/stream/open") => {
            obs::count!("serve.requests.stream_open");
            stream_open_spec(state, req)
        }
        ("POST", "/stream/feed") => {
            obs::count!("serve.requests.stream_feed");
            stream_feed_spec(state, req)
        }
        ("POST", "/stream/query") => {
            obs::count!("serve.requests.stream_query");
            stream_session_spec(state, req, StreamOp::Query)
        }
        ("POST", "/stream/close") => {
            obs::count!("serve.requests.stream_close");
            stream_session_spec(state, req, StreamOp::Close)
        }
        ("POST", "/shutdown") => {
            obs::count!("serve.requests.shutdown");
            state.shutdown.store(true, Ordering::SeqCst);
            Ok(Routed::Ready(
                200,
                single_line(Json::obj(vec![("draining", Json::Bool(true))])),
            ))
        }
        (
            _,
            "/healthz"
            | "/metrics"
            | "/metrics/deterministic"
            | "/parse"
            | "/cover/verify"
            | "/discrepancy"
            | "/stream/open"
            | "/stream/feed"
            | "/stream/query"
            | "/stream/close"
            | "/shutdown",
        ) => Err(ApiError::MethodNotAllowed(req.path.clone())),
        (_, path) => Err(ApiError::NotFound(path.to_string())),
    };
    match result {
        Ok(r) => r,
        Err(e) => Routed::Ready(e.status(), e.body()),
    }
}

/// `POST /parse`: body → bounds-checked job spec.
fn parse_spec(state: &State, req: &Request) -> Result<Routed, ApiError> {
    if state.shutting_down() {
        return Err(ApiError::ShuttingDown);
    }
    let preq = parse_body(req).and_then(|b| ParseRequest::from_json(&b))?;
    let grammar = preq.spec.build()?;
    Ok(Routed::Enqueue(JobSpec::Parse {
        key: grammar.content_hash(),
        grammar,
        word: preq.word,
        check: preq.check,
    }))
}

/// `POST /cover/verify` and `POST /discrepancy` share the rectangle
/// path; the boolean picks the kernel.
fn rect_spec(state: &State, req: &Request, discrepancy: bool) -> Result<Routed, ApiError> {
    if state.shutting_down() {
        return Err(ApiError::ShuttingDown);
    }
    let rreq = parse_body(req).and_then(|b| RectRequest::from_json(&b, discrepancy))?;
    Ok(Routed::Enqueue(JobSpec::Rect {
        req: rreq,
        discrepancy,
    }))
}

/// `POST /stream/open`: body → a validated Open op keyed by the
/// deterministic session id (a pure function of grammar hash, window,
/// regex, and name — so every client, thread count, and shard layout
/// derives the same id).
fn stream_open_spec(state: &State, req: &Request) -> Result<Routed, ApiError> {
    if state.shutting_down() {
        return Err(ApiError::ShuttingDown);
    }
    let oreq = parse_body(req).and_then(|b| StreamOpenRequest::from_json(&b))?;
    let grammar = oreq.spec.build()?;
    let session = ucfg_stream::session_id(
        grammar.content_hash(),
        oreq.window,
        oreq.regex.as_deref(),
        &oreq.name,
    );
    Ok(Routed::Enqueue(JobSpec::Stream {
        session,
        op: StreamOp::Open {
            grammar,
            window: oreq.window,
            regex: oreq.regex,
            name: oreq.name,
        },
    }))
}

/// `POST /stream/feed`: appends tokens or truncates, per the body.
fn stream_feed_spec(state: &State, req: &Request) -> Result<Routed, ApiError> {
    if state.shutting_down() {
        return Err(ApiError::ShuttingDown);
    }
    let freq = parse_body(req).and_then(|b| StreamFeedRequest::from_json(&b))?;
    let (session, op) = match freq {
        StreamFeedRequest::Tokens { session, text } => (session, StreamOp::Feed { text }),
        StreamFeedRequest::Truncate { session, to } => (session, StreamOp::Truncate { to }),
    };
    Ok(Routed::Enqueue(JobSpec::Stream { session, op }))
}

/// `POST /stream/query` and `POST /stream/close`: body carries only
/// the session id; the op is fixed by the path.
fn stream_session_spec(state: &State, req: &Request, op: StreamOp) -> Result<Routed, ApiError> {
    if state.shutting_down() {
        return Err(ApiError::ShuttingDown);
    }
    let session = parse_body(req).and_then(|b| session_from_json(&b))?;
    Ok(Routed::Enqueue(JobSpec::Stream { session, op }))
}

/// Enqueue a validated spec on the shard owning its content hash. The
/// reply sink pushes a completion and wakes the event loop.
fn enqueue_job(state: &Arc<State>, spec: JobSpec, slot: usize, gen: u64) -> Result<(), ApiError> {
    match spec {
        JobSpec::Parse {
            key,
            grammar,
            word,
            check,
        } => {
            let st = Arc::clone(state);
            let reply = ReplySink::from_fn(move |res: Result<ParseOutcome, ApiError>| {
                let (status, body) = match res {
                    Ok(o) => (200, render_parse(&o)),
                    Err(e) => (e.status(), e.body()),
                };
                push_completion(&st, slot, gen, status, body);
            });
            state
                .shards
                .pick(key)
                .sched
                .try_enqueue(Job::Parse(ParseJob {
                    key,
                    grammar,
                    word,
                    check,
                    enqueued: Instant::now(),
                    reply,
                }))
        }
        JobSpec::Rect { req, discrepancy } => {
            let st = Arc::clone(state);
            let reply = ReplySink::from_fn(move |res: Result<String, ApiError>| {
                let (status, body) = match res {
                    Ok(b) => (200, b),
                    Err(e) => (e.status(), e.body()),
                };
                push_completion(&st, slot, gen, status, body);
            });
            state
                .shards
                .pick(req.cache_key())
                .sched
                .try_enqueue(Job::Rect(RectJob {
                    req,
                    discrepancy,
                    enqueued: Instant::now(),
                    reply,
                }))
        }
        JobSpec::Stream { session, op } => {
            let st = Arc::clone(state);
            let reply = ReplySink::from_fn(move |res: Result<String, ApiError>| {
                let (status, body) = match res {
                    Ok(b) => (200, b),
                    Err(e) => (e.status(), e.body()),
                };
                push_completion(&st, slot, gen, status, body);
            });
            state
                .shards
                .pick(session)
                .sched
                .try_enqueue(Job::Stream(StreamJob {
                    session,
                    op,
                    enqueued: Instant::now(),
                    reply,
                }))
        }
    }
}

fn single_line(v: Json) -> String {
    let mut s = v.render();
    s.push('\n');
    s
}

fn healthz(state: &State) -> String {
    // Per-shard views. /healthz is excluded from CI byte-diffs (it
    // already carries uptime), so shard-layout-dependent fields are
    // fine here.
    let depths: Vec<Json> = state
        .shards
        .shards()
        .iter()
        .map(|s| Json::Int(s.sched.queue_len() as i64))
        .collect();
    let caps: Vec<Json> = state
        .shards
        .shards()
        .iter()
        .map(|s| Json::Int(s.sched.depth() as i64))
        .collect();
    single_line(Json::obj(vec![
        ("status", Json::str("ok")),
        ("queue_depth", Json::Int(state.shards.queue_len() as i64)),
        ("shard_queue_depths", Json::Arr(depths)),
        ("shard_queue_capacities", Json::Arr(caps)),
        (
            "connections",
            Json::Int(state.connections.load(Ordering::SeqCst) as i64),
        ),
        ("shards", Json::Int(state.shards.len() as i64)),
        (
            "stream_sessions",
            Json::Int(state.shards.session_count() as i64),
        ),
        (
            "flush_writes",
            Json::Int(state.flush_writes.load(Ordering::SeqCst) as i64),
        ),
        (
            "uptime_ms",
            Json::Int(state.started.elapsed().as_millis() as i64),
        ),
        ("threads", Json::Int(par::thread_count() as i64)),
    ]))
}

fn render_parse(o: &ParseOutcome) -> String {
    let mut fields = vec![
        ("member", Json::Bool(o.member)),
        ("parse_count", Json::str(o.parse_count.clone())),
        ("ambiguous", Json::Bool(o.ambiguous)),
        (
            "grammar_hash",
            Json::str(format!("{:016x}", o.grammar_hash)),
        ),
        ("cache", Json::str(if o.cache_hit { "hit" } else { "miss" })),
    ];
    if let Some(ok) = o.cross_checked {
        fields.push(("cross_check", Json::str(if ok { "ok" } else { "mismatch" })));
    }
    single_line(Json::obj(fields))
}

fn parse_body(req: &Request) -> Result<Json, ApiError> {
    let text = req
        .body_str()
        .ok_or_else(|| ApiError::BadRequest("body is not UTF-8".into()))?;
    Json::parse(text).map_err(|e| ApiError::BadRequest(format!("body: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    /// A state with live shard drain threads, so `route_sync` can
    /// resolve Enqueue specs end to end. The threads park on their
    /// condvars and die with the process.
    fn test_state(queue_depth: usize, deadline_ms: u64) -> Arc<State> {
        let cfg = ServeConfig {
            queue_depth,
            deadline_ms,
            ..ServeConfig::default()
        };
        let state = Arc::new(State {
            shards: ShardSet::new(
                cfg.shards,
                cfg.cache_capacity,
                cfg.queue_depth,
                Duration::from_millis(cfg.deadline_ms),
            ),
            shutdown: AtomicBool::new(false),
            started: Instant::now(),
            requests: AtomicU64::new(0),
            connections: AtomicUsize::new(0),
            flush_writes: AtomicU64::new(0),
            completions: Mutex::new(Vec::new()),
            waker: OnceLock::new(),
            cfg,
        });
        state.shards.spawn().unwrap();
        state
    }

    /// Route a request and, when it enqueues, run the job through the
    /// state's live shards — the blocking analogue of the event loop.
    fn route_sync(state: &Arc<State>, req: &Request) -> (u16, String) {
        match route(state, req) {
            Routed::Ready(status, body) => (status, body),
            Routed::Enqueue(spec) => {
                let (tx, rx) = mpsc::channel::<(u16, String)>();
                let enqueued = match spec {
                    JobSpec::Parse {
                        key,
                        grammar,
                        word,
                        check,
                    } => {
                        let reply =
                            ReplySink::from_fn(move |res: Result<ParseOutcome, ApiError>| {
                                let msg = match res {
                                    Ok(o) => (200, render_parse(&o)),
                                    Err(e) => (e.status(), e.body()),
                                };
                                let _ = tx.send(msg);
                            });
                        state
                            .shards
                            .pick(key)
                            .sched
                            .try_enqueue(Job::Parse(ParseJob {
                                key,
                                grammar,
                                word,
                                check,
                                enqueued: Instant::now(),
                                reply,
                            }))
                    }
                    JobSpec::Rect { req, discrepancy } => {
                        let reply = ReplySink::from_fn(move |res: Result<String, ApiError>| {
                            let msg = match res {
                                Ok(b) => (200, b),
                                Err(e) => (e.status(), e.body()),
                            };
                            let _ = tx.send(msg);
                        });
                        state
                            .shards
                            .pick(req.cache_key())
                            .sched
                            .try_enqueue(Job::Rect(RectJob {
                                req,
                                discrepancy,
                                enqueued: Instant::now(),
                                reply,
                            }))
                    }
                    JobSpec::Stream { session, op } => {
                        let reply = ReplySink::from_fn(move |res: Result<String, ApiError>| {
                            let msg = match res {
                                Ok(b) => (200, b),
                                Err(e) => (e.status(), e.body()),
                            };
                            let _ = tx.send(msg);
                        });
                        state
                            .shards
                            .pick(session)
                            .sched
                            .try_enqueue(Job::Stream(StreamJob {
                                session,
                                op,
                                enqueued: Instant::now(),
                                reply,
                            }))
                    }
                };
                match enqueued {
                    Ok(()) => rx.recv_timeout(Duration::from_secs(30)).expect("reply"),
                    Err(e) => (e.status(), e.body()),
                }
            }
        }
    }

    fn post(path: &str, body: &str) -> Request {
        Request {
            method: "POST".into(),
            path: path.into(),
            headers: vec![],
            body: body.as_bytes().to_vec(),
            http10: false,
        }
    }

    fn get(path: &str) -> Request {
        Request {
            method: "GET".into(),
            path: path.into(),
            headers: vec![],
            body: vec![],
            http10: false,
        }
    }

    #[test]
    fn routing_basics() {
        let state = test_state(8, 1000);
        let (status, body) = route_sync(&state, &get("/healthz"));
        assert_eq!(status, 200);
        let v = Json::parse(body.trim_end()).unwrap();
        assert_eq!(v.get("status").and_then(Json::as_str), Some("ok"));
        assert_eq!(v.get("shards"), Some(&Json::Int(1)));
        assert_eq!(v.get("connections"), Some(&Json::Int(0)));

        let (status, _) = route_sync(&state, &get("/nope"));
        assert_eq!(status, 404);
        let (status, body) = route_sync(&state, &get("/parse"));
        assert_eq!(status, 405, "{body}");
        let (status, body) = route_sync(&state, &post("/parse", "not json"));
        assert_eq!(status, 400, "{body}");
    }

    #[test]
    fn metrics_endpoints_render() {
        let state = test_state(8, 1000);
        let (status, body) = route_sync(&state, &get("/metrics"));
        assert_eq!(status, 200);
        assert!(body.contains("\"volatile\""));
        let (status, det) = route_sync(&state, &get("/metrics/deterministic"));
        assert_eq!(status, 200);
        assert!(!det.contains("\"volatile\""));
        assert!(det.contains("\"counters\""));
    }

    #[test]
    fn parse_requests_flow_through_the_shards() {
        let state = test_state(8, 5000);
        let (status, body) = route_sync(
            &state,
            &post("/parse", r#"{"grammar":"S -> a S | b","word":"aab"}"#),
        );
        assert_eq!(status, 200, "{body}");
        let v = Json::parse(body.trim_end()).unwrap();
        assert_eq!(v.get("member"), Some(&Json::Bool(true)));
        assert_eq!(v.get("cache").and_then(Json::as_str), Some("miss"));

        // Warm repeat: same grammar hash lands on the same shard and
        // hits its cache.
        let (_, body) = route_sync(
            &state,
            &post("/parse", r#"{"grammar":"S -> a S | b","word":"b"}"#),
        );
        let v = Json::parse(body.trim_end()).unwrap();
        assert_eq!(v.get("cache").and_then(Json::as_str), Some("hit"));
    }

    #[test]
    fn cover_and_discrepancy_endpoints_compute() {
        let state = test_state(8, 5000);
        let (status, body) = route_sync(&state, &post("/cover/verify", r#"{"n":4}"#));
        assert_eq!(status, 200, "{body}");
        let v = Json::parse(body.trim_end()).unwrap();
        assert_eq!(v.get("size"), Some(&Json::Int(4)));
        assert_eq!(v.get("covers_exactly"), Some(&Json::Bool(true)));
        assert_eq!(v.get("all_balanced"), Some(&Json::Bool(true)));
        assert_eq!(v.get("cache").and_then(Json::as_str), Some("miss"));

        // Warm repeat: same family resolves from the cache.
        let (_, body) = route_sync(&state, &post("/cover/verify", r#"{"n":4}"#));
        let v = Json::parse(body.trim_end()).unwrap();
        assert_eq!(v.get("cache").and_then(Json::as_str), Some("hit"));

        let (status, body) = route_sync(&state, &post("/discrepancy", r#"{"n":4}"#));
        assert_eq!(status, 200, "{body}");
        let v = Json::parse(body.trim_end()).unwrap();
        assert_eq!(v.get("sums_to_gap"), Some(&Json::Bool(true)));

        // n without block structure: 400 from /discrepancy only.
        let (status, _) = route_sync(&state, &post("/discrepancy", r#"{"n":6}"#));
        assert_eq!(status, 400);
        let (status, _) = route_sync(&state, &post("/cover/verify", r#"{"n":6}"#));
        assert_eq!(status, 200);
    }

    #[test]
    fn shutdown_endpoint_flips_the_flag_and_sheds() {
        let state = test_state(8, 1000);
        assert!(!state.shutting_down());
        let (status, body) = route_sync(&state, &post("/shutdown", ""));
        assert_eq!(status, 200);
        assert!(body.contains("draining"));
        assert!(state.shutting_down());
        let (status, body) = route_sync(&state, &post("/cover/verify", r#"{"n":4}"#));
        assert_eq!(status, 503);
        assert!(body.contains("shutting_down"), "{body}");
    }

    #[test]
    fn render_parse_is_stable_json() {
        let o = ParseOutcome {
            member: true,
            parse_count: "12".into(),
            ambiguous: true,
            grammar_hash: 0xabc,
            cache_hit: false,
            cross_checked: Some(true),
        };
        let line = render_parse(&o);
        assert_eq!(
            line,
            "{\"member\":true,\"parse_count\":\"12\",\"ambiguous\":true,\
             \"grammar_hash\":\"0000000000000abc\",\"cache\":\"miss\",\
             \"cross_check\":\"ok\"}\n"
        );
    }

    #[test]
    fn sharded_responses_match_single_shard() {
        let bodies: Vec<Vec<String>> = [1usize, 4]
            .into_iter()
            .map(|shards| {
                let cfg = ServeConfig {
                    shards,
                    ..ServeConfig::default()
                };
                let state = Arc::new(State {
                    shards: ShardSet::new(
                        cfg.shards,
                        cfg.cache_capacity,
                        cfg.queue_depth,
                        Duration::from_millis(cfg.deadline_ms),
                    ),
                    shutdown: AtomicBool::new(false),
                    started: Instant::now(),
                    requests: AtomicU64::new(0),
                    connections: AtomicUsize::new(0),
                    flush_writes: AtomicU64::new(0),
                    completions: Mutex::new(Vec::new()),
                    waker: OnceLock::new(),
                    cfg,
                });
                state.shards.spawn().unwrap();
                [
                    r#"{"grammar":"S -> a S | b","word":"aab"}"#,
                    r#"{"grammar":"S -> S S | a","word":"aaa"}"#,
                    r#"{"builtin":"example3","n":2,"word":"ab"}"#,
                ]
                .iter()
                .map(|body| route_sync(&state, &post("/parse", body)).1)
                .collect()
            })
            .collect();
        assert_eq!(
            bodies[0], bodies[1],
            "shard count must not leak into bodies"
        );
    }

    #[test]
    fn stream_endpoints_flow_end_to_end() {
        let state = test_state(8, 5000);
        let open = r#"{"grammar":"S -> a S b | a b","window":8,"regex":"a(a|b)*b","name":"t"}"#;
        let (status, body) = route_sync(&state, &post("/stream/open", open));
        assert_eq!(status, 200, "{body}");
        let v = Json::parse(body.trim_end()).unwrap();
        let session = v.get("session").and_then(Json::as_str).unwrap().to_string();
        assert_eq!(session.len(), 16);
        assert_eq!(v.get("product_nonempty"), Some(&Json::Bool(true)));

        // Re-opening the same parameters is idempotent: same id.
        let (status, body2) = route_sync(&state, &post("/stream/open", open));
        assert_eq!(status, 200);
        assert_eq!(body2, body);

        let feed = format!(r#"{{"session":"{session}","tokens":"aabb"}}"#);
        let (status, body) = route_sync(&state, &post("/stream/feed", &feed));
        assert_eq!(status, 200, "{body}");
        let v = Json::parse(body.trim_end()).unwrap();
        assert_eq!(v.get("fed"), Some(&Json::Int(4)));
        assert_eq!(v.get("total"), Some(&Json::Int(4)));
        assert_eq!(v.get("member"), Some(&Json::Bool(true)));

        let q = format!(r#"{{"session":"{session}"}}"#);
        let (status, body) = route_sync(&state, &post("/stream/query", &q));
        assert_eq!(status, 200, "{body}");
        let v = Json::parse(body.trim_end()).unwrap();
        assert_eq!(v.get("window").and_then(Json::as_str), Some("aabb"));
        assert_eq!(v.get("member"), Some(&Json::Bool(true)));
        assert_eq!(v.get("count").and_then(Json::as_str), Some("1"));

        let trunc = format!(r#"{{"session":"{session}","truncate":2}}"#);
        let (status, body) = route_sync(&state, &post("/stream/feed", &trunc));
        assert_eq!(status, 200, "{body}");
        let v = Json::parse(body.trim_end()).unwrap();
        assert_eq!(v.get("total"), Some(&Json::Int(2)));

        let (status, body) = route_sync(&state, &post("/stream/close", &q));
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"closed\":true"));
        // The session is gone now.
        let (status, _) = route_sync(&state, &post("/stream/query", &q));
        assert_eq!(status, 400);
    }

    #[test]
    fn stream_endpoints_reject_malformed_requests() {
        let state = test_state(8, 5000);
        let (status, _) = route_sync(&state, &get("/stream/open"));
        assert_eq!(status, 405);
        let (status, _) = route_sync(&state, &post("/stream/open", "nope"));
        assert_eq!(status, 400);
        let (status, body) = route_sync(
            &state,
            &post("/stream/open", r#"{"grammar":"S -> a","window":0}"#),
        );
        assert_eq!(status, 400, "{body}");
        let (status, body) = route_sync(
            &state,
            &post(
                "/stream/feed",
                r#"{"session":"0000000000000001","tokens":"a","truncate":1}"#,
            ),
        );
        assert_eq!(status, 400, "{body}");
        // Well-formed op on a session nobody opened.
        let (status, body) = route_sync(
            &state,
            &post(
                "/stream/feed",
                r#"{"session":"0000000000000001","tokens":"a"}"#,
            ),
        );
        assert_eq!(status, 400);
        assert!(body.contains("no such session"), "{body}");
    }

    #[test]
    fn stream_responses_match_across_shard_counts() {
        let bodies: Vec<Vec<String>> = [1usize, 4]
            .into_iter()
            .map(|shards| {
                let cfg = ServeConfig {
                    shards,
                    ..ServeConfig::default()
                };
                let state = Arc::new(State {
                    shards: ShardSet::new(
                        cfg.shards,
                        cfg.cache_capacity,
                        cfg.queue_depth,
                        Duration::from_millis(cfg.deadline_ms),
                    ),
                    shutdown: AtomicBool::new(false),
                    started: Instant::now(),
                    requests: AtomicU64::new(0),
                    connections: AtomicUsize::new(0),
                    flush_writes: AtomicU64::new(0),
                    completions: Mutex::new(Vec::new()),
                    waker: OnceLock::new(),
                    cfg,
                });
                state.shards.spawn().unwrap();
                let mut out = Vec::new();
                let open =
                    r#"{"grammar":"S -> a S b | a b","window":4,"regex":"a(a|b)*b","name":"d"}"#;
                let (_, body) = route_sync(&state, &post("/stream/open", open));
                out.push(body.clone());
                let session = Json::parse(body.trim_end())
                    .unwrap()
                    .get("session")
                    .and_then(Json::as_str)
                    .unwrap()
                    .to_string();
                for step in [
                    format!(r#"{{"session":"{session}","tokens":"aab"}}"#),
                    format!(r#"{{"session":"{session}","tokens":"baab"}}"#),
                    format!(r#"{{"session":"{session}","truncate":5}}"#),
                ] {
                    out.push(route_sync(&state, &post("/stream/feed", &step)).1);
                }
                let q = format!(r#"{{"session":"{session}"}}"#);
                out.push(route_sync(&state, &post("/stream/query", &q)).1);
                out.push(route_sync(&state, &post("/stream/close", &q)).1);
                out
            })
            .collect();
        assert_eq!(
            bodies[0], bodies[1],
            "shard count must not leak into stream bodies"
        );
    }

    #[test]
    fn healthz_reports_per_shard_queues_and_sessions() {
        let state = test_state(8, 1000);
        let (_, body) = route_sync(&state, &get("/healthz"));
        let v = Json::parse(body.trim_end()).unwrap();
        let Some(Json::Arr(depths)) = v.get("shard_queue_depths") else {
            panic!("missing shard_queue_depths: {body}");
        };
        let Some(Json::Arr(caps)) = v.get("shard_queue_capacities") else {
            panic!("missing shard_queue_capacities: {body}");
        };
        assert_eq!(depths.len(), state.shards.len());
        assert_eq!(caps.len(), state.shards.len());
        assert!(caps.iter().all(|c| matches!(c, Json::Int(n) if *n >= 1)));
        assert_eq!(v.get("stream_sessions"), Some(&Json::Int(0)));

        let open = r#"{"grammar":"S -> a S b | a b","window":4,"name":"h"}"#;
        let (status, _) = route_sync(&state, &post("/stream/open", open));
        assert_eq!(status, 200);
        let (_, body) = route_sync(&state, &get("/healthz"));
        let v = Json::parse(body.trim_end()).unwrap();
        assert_eq!(v.get("stream_sessions"), Some(&Json::Int(1)));
    }
}
