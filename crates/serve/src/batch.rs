//! The batching scheduler.
//!
//! Compute requests (`/parse`, `/cover/verify`, `/discrepancy`) are
//! enqueued as [`Job`]s (bounded; a full queue **load-sheds** instead
//! of blocking) and a scheduler thread drains the queue, groups the
//! drained parse jobs by grammar hash, resolves each group's compiled
//! artifact through the [`ArtifactCache`] once, and runs the group as
//! one batch on the deterministic `ucfg_support::par` pool. Each word's
//! parse trees are counted by one of two kernels over the group's CNF,
//! chosen by word length against grammar size
//! ([`CountKernel::for_word`](crate::cache::CountKernel::for_word)): a
//! short word by a `build_with_index` CYK chart on the shared
//! [`CykRuleIndex`](ucfg_grammar::cyk::CykRuleIndex), a long one by the
//! Earley inside pass, whose O(n²) work on unambiguous grammars beats
//! the chart's O(n³) cells once `n²` is large against the rule count.
//! Rectangle jobs run one at a time as a serial fold over bitmaps the
//! artifact built once, on the same pool, for the first job that needed
//! them.
//!
//! Replies travel through a [`ReplySink`] — a one-shot callback — so
//! the same scheduler serves both the blocking unit tests (sink backed
//! by an `mpsc` channel) and the nonblocking event loop (sink pushes a
//! completion and wakes the poller).
//!
//! Each request carries its enqueue time; requests that sat in the
//! queue past the configured deadline are answered with
//! `deadline_exceeded` instead of being run.
//!
//! Determinism: batch *results* are pure functions of the request, so
//! responses are byte-identical across thread counts, shard counts,
//! and batch shapes. Batch *shapes* (how many requests a drain
//! catches) depend on timing, so batch counters and sizes are volatile
//! instruments.

use crate::cache::{Artifact, ArtifactCache, GrammarArtifact, RectsArtifact};
use crate::json::Json;
use crate::protocol::{ApiError, RectRequest};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Condvar, Mutex};
use std::time::{Duration, Instant};
use ucfg_grammar::Grammar;
use ucfg_stream::{FeedReport, StreamError, StreamSession};
use ucfg_support::{arena, obs, par};

/// Most live stream sessions one shard holds; opening past the cap is
/// shed (close a session first).
pub const MAX_SESSIONS_PER_SHARD: usize = 256;

/// A one-shot reply channel: the scheduler calls it exactly once with
/// the job's result. Backed by whatever the enqueuer needs — an
/// `mpsc::Sender` for blocking callers, a completion queue + poller
/// wake for the event loop.
pub struct ReplySink<T>(Box<dyn FnOnce(T) + Send>);

impl<T: Send + 'static> ReplySink<T> {
    /// Wrap an arbitrary one-shot callback.
    pub fn from_fn(f: impl FnOnce(T) + Send + 'static) -> ReplySink<T> {
        ReplySink(Box::new(f))
    }

    /// A sink/receiver pair for blocking callers: `send` forwards to
    /// the returned receiver.
    pub fn channel() -> (ReplySink<T>, mpsc::Receiver<T>) {
        let (tx, rx) = mpsc::channel();
        (
            ReplySink::from_fn(move |v| {
                let _ = tx.send(v);
            }),
            rx,
        )
    }

    /// Deliver the result, consuming the sink.
    pub fn send(self, value: T) {
        (self.0)(value)
    }
}

impl<T> std::fmt::Debug for ReplySink<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("ReplySink")
    }
}

/// The outcome of one `/parse` request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseOutcome {
    /// Is the word in the language?
    pub member: bool,
    /// Exact number of parse trees, as a decimal string (may exceed
    /// `u64`).
    pub parse_count: String,
    /// Does the word have ≥ 2 parse trees? (Word-level ambiguity — the
    /// paper's uCFG condition is that *no* word has two trees.)
    pub ambiguous: bool,
    /// The grammar's content hash (hex), echoing the cache key.
    pub grammar_hash: u64,
    /// Did this request's batch group hit the artifact cache?
    pub cache_hit: bool,
    /// `Some(true)` when the `"check": true` cross-check ran and agreed:
    /// the counting kernel that did not serve recounted the word to the
    /// same number, and the Earley recogniser on the original grammar
    /// agreed on membership. A disagreement is answered as an internal
    /// error instead.
    pub cross_checked: Option<bool>,
}

/// One queued `/parse` request.
#[derive(Debug)]
pub struct ParseJob {
    /// The grammar's content hash — the batch group key.
    pub key: u64,
    /// The parsed grammar, used to compile the artifact on a miss.
    pub grammar: Grammar,
    /// The word to test.
    pub word: String,
    /// Run the cross-check (see [`ParseOutcome::cross_checked`])?
    pub check: bool,
    /// When the job entered the queue.
    pub enqueued: Instant,
    /// Where the answer goes.
    pub reply: ReplySink<Result<ParseOutcome, ApiError>>,
}

/// One queued `/cover/verify` or `/discrepancy` request. The reply is
/// the rendered single-line JSON body.
#[derive(Debug)]
pub struct RectJob {
    /// The bounds-checked request.
    pub req: RectRequest,
    /// `true` for `/discrepancy`, `false` for `/cover/verify`.
    pub discrepancy: bool,
    /// When the job entered the queue.
    pub enqueued: Instant,
    /// Where the rendered body goes.
    pub reply: ReplySink<Result<String, ApiError>>,
}

/// What a queued `/stream/*` request does to its session.
#[derive(Debug)]
pub enum StreamOp {
    /// `/stream/open` — create (or reset) the session.
    Open {
        /// The session's grammar (already built and bounds-checked).
        grammar: Grammar,
        /// Sliding-window capacity in tokens.
        window: usize,
        /// Optional regex for the product layer.
        regex: Option<String>,
        /// Client-chosen session tag.
        name: String,
    },
    /// `/stream/feed` with `"tokens"` — append characters.
    Feed {
        /// The characters to append.
        text: String,
    },
    /// `/stream/feed` with `"truncate"` — rewind to a position.
    Truncate {
        /// Absolute stream position to rewind to.
        to: u64,
    },
    /// `/stream/query` — the full window report.
    Query,
    /// `/stream/close` — drop the session.
    Close,
}

/// One queued `/stream/*` request. The reply is the rendered
/// single-line JSON body. Stream jobs run sequentially in drain order,
/// so a session's history is a deterministic function of the request
/// sequence.
#[derive(Debug)]
pub struct StreamJob {
    /// The deterministic session id (also the shard-routing key).
    pub session: u64,
    /// What to do.
    pub op: StreamOp,
    /// When the job entered the queue.
    pub enqueued: Instant,
    /// Where the rendered body goes.
    pub reply: ReplySink<Result<String, ApiError>>,
}

/// The live stream sessions owned by one shard, addressed by the
/// deterministic session id (rendezvous-routed, so an id always lands
/// on the shard holding its session).
pub struct SessionStore {
    sessions: HashMap<u64, StreamSession>,
    capacity: usize,
}

impl SessionStore {
    /// An empty store shedding opens past `capacity` sessions.
    pub fn new(capacity: usize) -> SessionStore {
        SessionStore {
            sessions: HashMap::new(),
            capacity: capacity.max(1),
        }
    }

    /// How many sessions are live.
    pub fn len(&self) -> usize {
        self.sessions.len()
    }

    /// No sessions?
    pub fn is_empty(&self) -> bool {
        self.sessions.is_empty()
    }
}

/// Anything the scheduler can run.
#[derive(Debug)]
pub enum Job {
    /// A `/parse` request (batched by grammar hash).
    Parse(ParseJob),
    /// A rectangle-family request (runs alone; its kernel parallelises
    /// internally).
    Rect(RectJob),
    /// A `/stream/*` request (runs sequentially against the shard's
    /// session store).
    Stream(StreamJob),
}

impl Job {
    /// Answer the job with an error without running it.
    fn reject(self, err: ApiError) {
        match self {
            Job::Parse(j) => j.reply.send(Err(err)),
            Job::Rect(j) => j.reply.send(Err(err)),
            Job::Stream(j) => j.reply.send(Err(err)),
        }
    }

    fn enqueued(&self) -> Instant {
        match self {
            Job::Parse(j) => j.enqueued,
            Job::Rect(j) => j.enqueued,
            Job::Stream(j) => j.enqueued,
        }
    }
}

/// The bounded queue + scheduler.
pub struct Scheduler {
    queue: Mutex<VecDeque<Job>>,
    cv: Condvar,
    depth: usize,
    deadline: Duration,
    stopping: AtomicBool,
}

impl Scheduler {
    /// A scheduler with the given queue bound and per-request deadline.
    pub fn new(depth: usize, deadline: Duration) -> Scheduler {
        Scheduler {
            queue: Mutex::new(VecDeque::new()),
            cv: Condvar::new(),
            depth: depth.max(1),
            deadline,
            stopping: AtomicBool::new(false),
        }
    }

    /// The queue bound.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Current queue length (for `/healthz`).
    pub fn queue_len(&self) -> usize {
        self.queue.lock().expect("queue poisoned").len()
    }

    /// Enqueue a job, or shed it if the queue is full or the scheduler
    /// is stopping. Never blocks.
    pub fn try_enqueue(&self, job: Job) -> Result<(), ApiError> {
        if self.stopping.load(Ordering::SeqCst) {
            return Err(ApiError::ShuttingDown);
        }
        {
            let mut q = self.queue.lock().expect("queue poisoned");
            if q.len() >= self.depth {
                obs::count!("serve.rejects.load_shed");
                return Err(ApiError::LoadShed { depth: self.depth });
            }
            q.push_back(job);
            obs::gauge_set!("serve.queue.depth", q.len() as i64);
        }
        self.cv.notify_one();
        Ok(())
    }

    /// Ask the drain loop to exit once the queue is empty.
    pub fn stop(&self) {
        self.stopping.store(true, Ordering::SeqCst);
        self.cv.notify_all();
    }

    /// The scheduler thread body: drain, group parse jobs by grammar
    /// hash, resolve artifacts through `cache`, run each group as one
    /// parallel batch, apply stream jobs to `sessions` in drain order,
    /// reply. Returns (after draining everything still queued) once
    /// [`Scheduler::stop`] has been called.
    pub fn run(&self, cache: &Mutex<ArtifactCache>, sessions: &Mutex<SessionStore>) {
        loop {
            let batch: Vec<Job> = {
                let mut q = self.queue.lock().expect("queue poisoned");
                loop {
                    if !q.is_empty() {
                        break;
                    }
                    if self.stopping.load(Ordering::SeqCst) {
                        return;
                    }
                    let (guard, _) = self
                        .cv
                        .wait_timeout(q, Duration::from_millis(50))
                        .expect("queue poisoned");
                    q = guard;
                }
                let drained: Vec<Job> = q.drain(..).collect();
                obs::gauge_set!("serve.queue.depth", 0);
                drained
            };

            obs::vcount!("serve.batches");
            obs::record!("serve.batch.size", batch.len() as u64);

            // Reject everything that overstayed its queue deadline,
            // then split by kind.
            let now = Instant::now();
            let mut parses = Vec::new();
            let mut rects = Vec::new();
            let mut streams = Vec::new();
            for job in batch {
                let waited = now.duration_since(job.enqueued());
                if waited > self.deadline {
                    obs::count!("serve.rejects.deadline");
                    job.reject(ApiError::DeadlineExceeded {
                        waited_ms: waited.as_millis() as u64,
                    });
                    continue;
                }
                match job {
                    Job::Parse(p) => parses.push(p),
                    Job::Rect(r) => rects.push(r),
                    Job::Stream(s) => streams.push(s),
                }
            }

            // Stream ops mutate session state, so they run strictly in
            // drain (= arrival) order; each is O(feed · window).
            for job in streams {
                run_stream(sessions, job);
            }
            for (key, jobs) in group_by_key(parses) {
                self.run_group(cache, key, jobs);
            }
            for job in rects {
                run_rect(cache, job);
            }
            // Batch boundary: the chart slabs and word-set buffers this
            // batch borrowed from the arena have all been recycled — mark
            // the epoch so `arena.peak_bytes` tracks per-batch high-water
            // and the pooled buffers serve the next drain allocation-free.
            arena::reset();
        }
    }

    fn run_group(&self, cache: &Mutex<ArtifactCache>, key: u64, jobs: Vec<ParseJob>) {
        // On a miss the first job's grammar moves into the compile; the
        // rest are dropped only after the replies are out, off the
        // requests' critical path. The pool maps over (word, check) pairs,
        // since the reply sinks aren't `Sync`, and the replies fan out
        // afterwards.
        let mut grammars = Vec::with_capacity(jobs.len());
        let mut inputs = Vec::with_capacity(jobs.len());
        let mut replies = Vec::with_capacity(jobs.len());
        for job in jobs {
            grammars.push(job.grammar);
            inputs.push((job.word, job.check));
            replies.push(job.reply);
        }
        // One artifact resolve per group: the whole point of batching.
        let resolved = cache
            .lock()
            .expect("cache poisoned")
            .get_or_insert_with(key, || {
                let grammar = grammars.swap_remove(0);
                Ok(Artifact::Grammar(GrammarArtifact::compile_hashed(
                    grammar, key,
                )))
            });
        let (art, hit) = match resolved {
            Ok((Artifact::Grammar(g), hit)) => (g, hit),
            Ok((Artifact::Rects(_), _)) => {
                for reply in replies {
                    reply.send(Err(ApiError::Internal("key collision in cache".into())));
                }
                return;
            }
            Err(e) => {
                for reply in replies {
                    reply.send(Err(e.clone()));
                }
                return;
            }
        };

        let _t = obs::span!("serve.batch.run");
        let outcomes = par::par_map(&inputs, |(word, check)| run_one(&art, word, *check, hit));
        for (reply, outcome) in replies.into_iter().zip(outcomes) {
            reply.send(outcome);
        }
    }
}

/// Group jobs by key, preserving first-appearance order within and
/// across groups.
fn group_by_key(jobs: Vec<ParseJob>) -> Vec<(u64, Vec<ParseJob>)> {
    let mut groups: Vec<(u64, Vec<ParseJob>)> = Vec::new();
    for job in jobs {
        match groups.iter_mut().find(|(k, _)| *k == job.key) {
            Some((_, g)) => g.push(job),
            None => groups.push((job.key, vec![job])),
        }
    }
    groups
}

/// Parse one word against a compiled artifact. Pure in (artifact,
/// word), so batch results are thread-count independent.
fn run_one(
    art: &GrammarArtifact,
    job_word: &str,
    check: bool,
    cache_hit: bool,
) -> Result<ParseOutcome, ApiError> {
    let word = match art.cnf.encode(job_word) {
        Some(w) => w,
        None => {
            // A letter outside the alphabet: trivially not a member.
            return Ok(ParseOutcome {
                member: false,
                parse_count: "0".to_string(),
                ambiguous: false,
                grammar_hash: art.hash,
                cache_hit,
                cross_checked: None,
            });
        }
    };

    let kernel = art.kernel(word.len());
    let count = art.count_with(kernel, &word);
    let member = !count.is_zero();
    let ambiguous = member && count != ucfg_grammar::BigUint::one();

    let cross_checked = if check {
        let other = kernel.other();
        let recount = art.count_with(other, &word);
        if recount != count {
            return Err(ApiError::Internal(format!(
                "differential mismatch on {job_word:?}: {kernel:?} counts {count} vs {other:?} {recount}"
            )));
        }
        let earley_member = art.earley().recognize_str(job_word);
        if earley_member != member {
            return Err(ApiError::Internal(format!(
                "differential mismatch on {job_word:?}: {kernel:?} member {member} vs Earley {earley_member}"
            )));
        }
        Some(true)
    } else {
        None
    };

    Ok(ParseOutcome {
        member,
        parse_count: count.to_string(),
        ambiguous,
        grammar_hash: art.hash,
        cache_hit,
        cross_checked,
    })
}

/// Run one rectangle-family job: resolve the artifact, fold over its
/// cached bitmaps (built on the deterministic pool by the first request
/// that needs them), reply with the rendered body. Pure in the request,
/// so the body is byte-identical across thread and shard counts.
fn run_rect(cache: &Mutex<ArtifactCache>, job: RectJob) {
    let resolved = cache
        .lock()
        .expect("cache poisoned")
        .get_or_insert_with(job.req.cache_key(), || {
            RectsArtifact::build(job.req).map(Artifact::Rects)
        });
    let (artifact, hit) = match resolved {
        Ok(v) => v,
        Err(e) => {
            job.reply.send(Err(e));
            return;
        }
    };
    let Some(rects) = artifact.as_rects() else {
        job.reply
            .send(Err(ApiError::Internal("key collision in cache".into())));
        return;
    };

    let single_line = |v: Json| {
        let mut s = v.render();
        s.push('\n');
        s
    };
    let cache_tag = ("cache", Json::str(if hit { "hit" } else { "miss" }));
    let body = if job.discrepancy {
        let _t = obs::span!("serve.discrepancy");
        let (discs, sums) = rects.discrepancy_accounting();
        single_line(Json::obj(vec![
            ("n", Json::Int(job.req.n as i64)),
            ("family", Json::str(job.req.family.name())),
            ("size", Json::Int(rects.rects.len() as i64)),
            (
                "discrepancies",
                Json::Arr(discs.into_iter().map(Json::Int).collect()),
            ),
            ("sums_to_gap", Json::Bool(sums)),
            cache_tag,
        ]))
    } else {
        let _t = obs::span!("serve.cover.verify");
        let report = rects.verify_cover();
        single_line(Json::obj(vec![
            ("n", Json::Int(job.req.n as i64)),
            ("family", Json::str(job.req.family.name())),
            ("size", Json::Int(report.size as i64)),
            ("covers_exactly", Json::Bool(report.covers_exactly)),
            ("disjoint", Json::Bool(report.disjoint)),
            ("all_balanced", Json::Bool(report.all_balanced)),
            ("max_overlap", Json::Int(report.max_overlap as i64)),
            cache_tag,
        ]))
    };
    job.reply.send(Ok(body));
}

fn stream_api_error(e: StreamError) -> ApiError {
    ApiError::BadRequest(e.to_string())
}

fn hex_id(id: u64) -> Json {
    Json::str(format!("{id:016x}"))
}

fn feed_body(id: u64, r: &FeedReport) -> String {
    let mut s = Json::obj(vec![
        ("session", hex_id(id)),
        ("fed", Json::Int(r.fed as i64)),
        ("evicted", Json::Int(r.evicted as i64)),
        ("total", Json::Int(r.total as i64)),
        ("base", Json::Int(r.base as i64)),
        ("window_len", Json::Int(r.window_len as i64)),
        ("member", Json::Bool(r.member)),
    ])
    .render();
    s.push('\n');
    s
}

/// Apply one `/stream/*` job to the shard's session store and render
/// the single-line reply. Every body is a pure function of the
/// session's request history, so stream responses are byte-identical
/// across thread and shard counts.
fn run_stream(sessions: &Mutex<SessionStore>, job: StreamJob) {
    let _t = obs::span!("serve.stream.op");
    let mut store = sessions.lock().expect("sessions poisoned");
    let id = job.session;
    let result: Result<String, ApiError> = match job.op {
        StreamOp::Open {
            grammar,
            window,
            regex,
            name,
        } => {
            if store.sessions.len() >= store.capacity && !store.sessions.contains_key(&id) {
                Err(ApiError::LoadShed {
                    depth: store.capacity,
                })
            } else {
                StreamSession::open(
                    std::sync::Arc::new(grammar),
                    window,
                    regex.as_deref(),
                    &name,
                )
                .map_err(stream_api_error)
                .map(|s| {
                    debug_assert_eq!(s.id(), id, "router and session disagree on the id");
                    let mut fields = vec![
                        ("session", hex_id(id)),
                        (
                            "grammar_hash",
                            Json::str(format!("{:016x}", s.grammar().content_hash())),
                        ),
                        ("window", Json::Int(s.capacity() as i64)),
                    ];
                    let q = s.query();
                    if let Some(p) = &q.product {
                        fields.push(("product_nonempty", Json::Bool(p.nonempty)));
                        fields.push(("dfa_states", Json::Int(p.dfa_states as i64)));
                    }
                    store.sessions.insert(id, s);
                    let mut b = Json::obj(fields).render();
                    b.push('\n');
                    b
                })
            }
        }
        StreamOp::Feed { text } => match store.sessions.get_mut(&id) {
            None => Err(ApiError::BadRequest(format!("no such session {id:016x}"))),
            Some(s) => s
                .feed(&text)
                .map_err(stream_api_error)
                .map(|r| feed_body(id, &r)),
        },
        StreamOp::Truncate { to } => match store.sessions.get_mut(&id) {
            None => Err(ApiError::BadRequest(format!("no such session {id:016x}"))),
            Some(s) => s
                .truncate(to)
                .map_err(stream_api_error)
                .map(|r| feed_body(id, &r)),
        },
        StreamOp::Query => match store.sessions.get(&id) {
            None => Err(ApiError::BadRequest(format!("no such session {id:016x}"))),
            Some(s) => {
                let q = s.query();
                let mut fields = vec![
                    ("session", hex_id(id)),
                    ("total", Json::Int(q.total as i64)),
                    ("base", Json::Int(q.base as i64)),
                    ("window", Json::str(q.window.clone())),
                    ("member", Json::Bool(q.member)),
                    ("suffix_matches", Json::Int(q.suffix_matches as i64)),
                    ("count", Json::str(q.count.clone())),
                ];
                if let Some(p) = &q.product {
                    fields.push((
                        "product",
                        Json::obj(vec![
                            ("nonempty", Json::Bool(p.nonempty)),
                            ("matches", Json::Int(p.matches as i64)),
                        ]),
                    ));
                }
                let mut b = Json::obj(fields).render();
                b.push('\n');
                Ok(b)
            }
        },
        StreamOp::Close => match store.sessions.remove(&id) {
            None => Err(ApiError::BadRequest(format!("no such session {id:016x}"))),
            Some(_) => {
                let mut b =
                    Json::obj(vec![("session", hex_id(id)), ("closed", Json::Bool(true))]).render();
                b.push('\n');
                Ok(b)
            }
        },
    };
    job.reply.send(result);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CountKernel;
    use std::sync::mpsc;

    fn job(
        grammar_src: &str,
        word: &str,
        check: bool,
    ) -> (ParseJob, mpsc::Receiver<Result<ParseOutcome, ApiError>>) {
        let g = ucfg_grammar::text::parse_grammar(grammar_src).unwrap();
        let (tx, rx) = ReplySink::channel();
        (
            ParseJob {
                key: g.content_hash(),
                grammar: g,
                word: word.to_string(),
                check,
                enqueued: Instant::now(),
                reply: tx,
            },
            rx,
        )
    }

    fn drain_once(sched: &Scheduler, cache: &Mutex<ArtifactCache>) {
        // Run the loop to completion: stop() first so it exits after
        // draining what's queued.
        sched.stop();
        sched.run(
            cache,
            &Mutex::new(SessionStore::new(MAX_SESSIONS_PER_SHARD)),
        );
    }

    fn stream_job(
        session: u64,
        op: StreamOp,
    ) -> (StreamJob, mpsc::Receiver<Result<String, ApiError>>) {
        let (tx, rx) = ReplySink::channel();
        (
            StreamJob {
                session,
                op,
                enqueued: Instant::now(),
                reply: tx,
            },
            rx,
        )
    }

    #[test]
    fn stream_jobs_run_in_drain_order_against_the_store() {
        let cache = Mutex::new(ArtifactCache::new(4));
        let sessions = Mutex::new(SessionStore::new(MAX_SESSIONS_PER_SHARD));
        let g = ucfg_grammar::text::parse_grammar("S -> a S b S | ()").unwrap();
        let id = ucfg_stream::session_id(g.content_hash(), 8, None, "");

        let sched = Scheduler::new(16, Duration::from_secs(5));
        let (open, r_open) = stream_job(
            id,
            StreamOp::Open {
                grammar: g,
                window: 8,
                regex: None,
                name: String::new(),
            },
        );
        let (feed, r_feed) = stream_job(
            id,
            StreamOp::Feed {
                text: "aabb".into(),
            },
        );
        let (query, r_query) = stream_job(id, StreamOp::Query);
        let (close, r_close) = stream_job(id, StreamOp::Close);
        // All four in one drain: open → feed → query → close, in order.
        sched.try_enqueue(Job::Stream(open)).unwrap();
        sched.try_enqueue(Job::Stream(feed)).unwrap();
        sched.try_enqueue(Job::Stream(query)).unwrap();
        sched.try_enqueue(Job::Stream(close)).unwrap();
        sched.stop();
        sched.run(&cache, &sessions);

        let open_body = r_open.recv().unwrap().unwrap();
        assert!(open_body.contains(&format!("{id:016x}")), "{open_body}");
        let feed_body = r_feed.recv().unwrap().unwrap();
        let v = Json::parse(feed_body.trim_end()).unwrap();
        assert_eq!(v.get("fed"), Some(&Json::Int(4)));
        assert_eq!(v.get("member"), Some(&Json::Bool(true)));
        let query_body = r_query.recv().unwrap().unwrap();
        let v = Json::parse(query_body.trim_end()).unwrap();
        assert_eq!(v.get("window").and_then(Json::as_str), Some("aabb"));
        assert_eq!(v.get("count").and_then(Json::as_str), Some("1"));
        assert!(r_close.recv().unwrap().unwrap().contains("closed"));
        assert!(sessions.lock().unwrap().is_empty());
    }

    #[test]
    fn stream_ops_on_unknown_sessions_are_rejected() {
        let cache = Mutex::new(ArtifactCache::new(4));
        let sessions = Mutex::new(SessionStore::new(MAX_SESSIONS_PER_SHARD));
        let sched = Scheduler::new(16, Duration::from_secs(5));
        let (q, r) = stream_job(7, StreamOp::Query);
        sched.try_enqueue(Job::Stream(q)).unwrap();
        sched.stop();
        sched.run(&cache, &sessions);
        let err = r.recv().unwrap().unwrap_err();
        assert_eq!(err.status(), 400);
        assert!(err.message().contains("no such session"));
    }

    #[test]
    fn session_store_sheds_past_capacity() {
        let cache = Mutex::new(ArtifactCache::new(4));
        let sessions = Mutex::new(SessionStore::new(1));
        let sched = Scheduler::new(16, Duration::from_secs(5));
        let g1 = ucfg_grammar::text::parse_grammar("S -> a").unwrap();
        let g2 = ucfg_grammar::text::parse_grammar("S -> b").unwrap();
        let id1 = ucfg_stream::session_id(g1.content_hash(), 4, None, "");
        let id2 = ucfg_stream::session_id(g2.content_hash(), 4, None, "");
        let open = |g: ucfg_grammar::Grammar, id: u64| {
            stream_job(
                id,
                StreamOp::Open {
                    grammar: g,
                    window: 4,
                    regex: None,
                    name: String::new(),
                },
            )
        };
        let (j1, r1) = open(g1.clone(), id1);
        let (j2, r2) = open(g2, id2);
        // Re-opening the session already held is allowed at capacity.
        let (j3, r3) = open(g1, id1);
        sched.try_enqueue(Job::Stream(j1)).unwrap();
        sched.try_enqueue(Job::Stream(j2)).unwrap();
        sched.try_enqueue(Job::Stream(j3)).unwrap();
        sched.stop();
        sched.run(&cache, &sessions);
        assert!(r1.recv().unwrap().is_ok());
        let err = r2.recv().unwrap().unwrap_err();
        assert_eq!(err, ApiError::LoadShed { depth: 1 });
        assert!(r3.recv().unwrap().is_ok());
        assert_eq!(sessions.lock().unwrap().len(), 1);
    }

    #[test]
    fn batch_parses_and_counts() {
        let cache = Mutex::new(ArtifactCache::new(4));
        let sched = Scheduler::new(8, Duration::from_secs(5));
        // S → A A ; A → a | b : length-2 words, unambiguous.
        let src = "S -> A A\nA -> a | b";
        let (j1, r1) = job(src, "ab", true);
        let (j2, r2) = job(src, "abc", false);
        let (j3, r3) = job(src, "a", false);
        sched.try_enqueue(Job::Parse(j1)).unwrap();
        sched.try_enqueue(Job::Parse(j2)).unwrap();
        sched.try_enqueue(Job::Parse(j3)).unwrap();
        drain_once(&sched, &cache);

        let o1 = r1.recv().unwrap().unwrap();
        assert!(o1.member);
        assert_eq!(o1.parse_count, "1");
        assert!(!o1.ambiguous);
        assert_eq!(o1.cross_checked, Some(true));
        assert!(!o1.cache_hit, "first group resolve is a miss");

        // Foreign letter: clean non-membership.
        let o2 = r2.recv().unwrap().unwrap();
        assert!(!o2.member);
        assert_eq!(o2.parse_count, "0");

        let o3 = r3.recv().unwrap().unwrap();
        assert!(!o3.member);
    }

    #[test]
    fn ambiguity_is_detected_with_exact_counts() {
        let cache = Mutex::new(ArtifactCache::new(4));
        let sched = Scheduler::new(8, Duration::from_secs(5));
        // S → S S | a : Catalan-many trees.
        let (j, r) = job("S -> S S | a", "aaaa", false);
        sched.try_enqueue(Job::Parse(j)).unwrap();
        drain_once(&sched, &cache);
        let o = r.recv().unwrap().unwrap();
        assert!(o.member);
        assert!(o.ambiguous);
        assert_eq!(o.parse_count, "5", "C_3 = 5 trees for aaaa");
    }

    #[test]
    fn check_recounts_with_the_kernel_that_did_not_serve() {
        // S → S S S | S S | a has a 4-rule CNF: a³ is counted by CYK and
        // checked by the inside pass, a⁴⁸ the other way round; its trees
        // overflow u64.
        let src = "S -> S S S | S S | a";
        let art = GrammarArtifact::compile(ucfg_grammar::text::parse_grammar(src).unwrap());
        let (short, long) = ("a".repeat(3), "a".repeat(48));
        assert_eq!(art.kernel(short.len()), CountKernel::Cyk);
        assert_eq!(art.kernel(long.len()), CountKernel::Inside);

        let cache = Mutex::new(ArtifactCache::new(4));
        let sched = Scheduler::new(8, Duration::from_secs(5));
        let (j1, r1) = job(src, &short, true);
        let (j2, r2) = job(src, &long, true);
        sched.try_enqueue(Job::Parse(j1)).unwrap();
        sched.try_enqueue(Job::Parse(j2)).unwrap();
        drain_once(&sched, &cache);
        for (r, count) in [(r1, "3"), (r2, "37148089828257848287481292489600")] {
            let o = r.recv().unwrap().unwrap();
            assert_eq!(o.parse_count, count);
            assert!(o.member && o.ambiguous);
            assert_eq!(o.cross_checked, Some(true));
        }
    }

    #[test]
    fn shared_grammar_hash_resolves_once_and_hits_after_warmup() {
        let cache = Mutex::new(ArtifactCache::new(4));
        let sched = Scheduler::new(8, Duration::from_secs(5));
        let (j1, r1) = job("S -> a S | b", "aab", false);
        sched.try_enqueue(Job::Parse(j1)).unwrap();
        drain_once(&sched, &cache);
        assert!(!r1.recv().unwrap().unwrap().cache_hit);

        // Second round, same grammar: the artifact is already cached.
        let sched2 = Scheduler::new(8, Duration::from_secs(5));
        let (j2, r2) = job("S -> a S | b", "b", false);
        let (j3, r3) = job("S -> a S | b", "ab", false);
        sched2.try_enqueue(Job::Parse(j2)).unwrap();
        sched2.try_enqueue(Job::Parse(j3)).unwrap();
        drain_once(&sched2, &cache);
        assert!(r2.recv().unwrap().unwrap().cache_hit);
        assert!(r3.recv().unwrap().unwrap().cache_hit);
        assert_eq!(cache.lock().unwrap().len(), 1);
    }

    #[test]
    fn rect_jobs_run_and_render_through_the_queue() {
        let cache = Mutex::new(ArtifactCache::new(4));
        let sched = Scheduler::new(8, Duration::from_secs(5));
        let req = RectRequest::from_json(&Json::parse(r#"{"n":4}"#).unwrap(), false).unwrap();
        let (tx, rx) = ReplySink::channel();
        sched
            .try_enqueue(Job::Rect(RectJob {
                req,
                discrepancy: false,
                enqueued: Instant::now(),
                reply: tx,
            }))
            .unwrap();
        drain_once(&sched, &cache);
        let body = rx.recv().unwrap().unwrap();
        let v = Json::parse(body.trim_end()).unwrap();
        assert_eq!(v.get("covers_exactly"), Some(&Json::Bool(true)));
        assert_eq!(v.get("cache").and_then(Json::as_str), Some("miss"));
        assert_eq!(cache.lock().unwrap().len(), 1);
    }

    #[test]
    fn full_queue_sheds_instead_of_blocking() {
        let sched = Scheduler::new(2, Duration::from_secs(5));
        let (j1, _r1) = job("S -> a", "a", false);
        let (j2, _r2) = job("S -> a", "a", false);
        let (j3, _r3) = job("S -> a", "a", false);
        sched.try_enqueue(Job::Parse(j1)).unwrap();
        sched.try_enqueue(Job::Parse(j2)).unwrap();
        let err = sched.try_enqueue(Job::Parse(j3)).unwrap_err();
        assert_eq!(err, ApiError::LoadShed { depth: 2 });
        assert_eq!(err.status(), 503);
        assert_eq!(sched.queue_len(), 2);
    }

    #[test]
    fn zero_deadline_rejects_queued_work() {
        let cache = Mutex::new(ArtifactCache::new(4));
        let sched = Scheduler::new(8, Duration::from_millis(0));
        let (mut j, r) = job("S -> a", "a", false);
        // Backdate the enqueue so the deadline has certainly passed.
        j.enqueued = Instant::now() - Duration::from_millis(50);
        sched.try_enqueue(Job::Parse(j)).unwrap();
        drain_once(&sched, &cache);
        let err = r.recv().unwrap().unwrap_err();
        assert!(matches!(err, ApiError::DeadlineExceeded { .. }));
        assert_eq!(err.status(), 504);
    }

    #[test]
    fn stopping_scheduler_sheds_new_work() {
        let sched = Scheduler::new(8, Duration::from_secs(5));
        sched.stop();
        let (j, _r) = job("S -> a", "a", false);
        assert_eq!(
            sched.try_enqueue(Job::Parse(j)).unwrap_err(),
            ApiError::ShuttingDown
        );
    }

    #[test]
    fn grouping_preserves_order() {
        let (a1, _r1) = job("S -> a", "a", false);
        let (b1, _r2) = job("S -> b", "b", false);
        let (a2, _r3) = job("S -> a", "a", false);
        let ka = a1.key;
        let kb = b1.key;
        assert_ne!(ka, kb);
        let groups = group_by_key(vec![a1, b1, a2]);
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].0, ka);
        assert_eq!(groups[0].1.len(), 2);
        assert_eq!(groups[1].0, kb);
    }

    #[test]
    fn batch_results_match_across_thread_counts() {
        let src = "S -> a S b S | ()";
        let words = ["", "ab", "aabb", "abab", "ba", "aab"];
        let mut per_threads = Vec::new();
        for threads in [1, 4] {
            let cache = Mutex::new(ArtifactCache::new(4));
            let sched = Scheduler::new(16, Duration::from_secs(5));
            let mut rxs = Vec::new();
            for w in words {
                let (j, r) = job(src, w, true);
                sched.try_enqueue(Job::Parse(j)).unwrap();
                rxs.push(r);
            }
            // Pin the pool width through the par layer for this run.
            ucfg_support::par::set_thread_count(threads);
            drain_once(&sched, &cache);
            let outcomes: Vec<ParseOutcome> = rxs
                .into_iter()
                .map(|r| r.recv().unwrap().unwrap())
                .collect();
            per_threads.push(outcomes);
        }
        assert_eq!(per_threads[0], per_threads[1]);
    }
}
