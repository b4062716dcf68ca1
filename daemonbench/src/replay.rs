//! The traced run's two sources of per-layer numbers: the daemon's own
//! `/metrics` + `/healthz` counters, and an in-process replay of every
//! traced op through the public functions the daemon calls, one timed
//! call per layer.

use crate::wire::{Conn, Reply};
use crate::workload::{Ask, Request, Workload, CERTIFICATE, WINDOW};
use crate::Executed;
use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;
use ucfg_core::cover::{discrepancy_accounting_threads, verify_cover_threads};
use ucfg_grammar::analysis::nullable;
use ucfg_grammar::cyk::{CykChart, CykRuleIndex};
use ucfg_grammar::symbol::Terminal;
use ucfg_grammar::CnfGrammar;
use ucfg_serve::cache::{GrammarArtifact, RectsArtifact};
use ucfg_serve::http::{render_response, Assembler, Limits};
use ucfg_serve::protocol::{
    session_from_json, ParseRequest, RectFamily, RectRequest, StreamFeedRequest,
};
use ucfg_serve::Json;
use ucfg_stream::{ProductQuery, StreamSession, WindowParser};

/// A `/metrics` + `/healthz` snapshot of the daemon's own counters.
pub struct Snapshot {
    metrics: Json,
    pub flush_writes: f64,
}

impl Snapshot {
    pub fn take(conn: &mut Conn) -> Result<Snapshot, String> {
        let health = conn.get_json("/healthz")?;
        let metrics = conn.get_json("/metrics")?;
        let flush_writes = health
            .get("flush_writes")
            .and_then(Json::as_i64)
            .ok_or("healthz lacks flush_writes")? as f64;
        Ok(Snapshot {
            metrics,
            flush_writes,
        })
    }

    pub fn counter(&self, name: &str) -> f64 {
        let find = |s: Option<&Json>| s.and_then(|s| s.get(name)).and_then(Json::as_i64);
        find(self.metrics.get("counters"))
            .or_else(|| find(self.metrics.get("volatile").and_then(|v| v.get("counters"))))
            .unwrap_or(0) as f64
    }

    /// (count, total) of a volatile histogram.
    pub fn histogram(&self, name: &str) -> (f64, f64) {
        let h = self
            .metrics
            .get("volatile")
            .and_then(|v| v.get("timings"))
            .and_then(|t| t.get(name));
        let f = |k: &str| h.and_then(|h| h.get(k)).and_then(Json::as_i64).unwrap_or(0) as f64;
        (f("count"), f("total_ns"))
    }
}

/// Replayed self time per layer, summed over the replayed ops, in µs
/// (`tokens` counts the stream tokens replayed; `rects_build` is one
/// build of the certificate's four rectangle families).
#[derive(Default)]
pub struct Sums {
    pub http: f64,
    pub json: f64,
    pub protocol: f64,
    pub text: f64,
    pub compile: f64,
    pub cnf: f64,
    pub cyk_index: f64,
    pub nullable: f64,
    pub cyk: f64,
    pub count: f64,
    pub window: f64,
    pub product: f64,
    pub query: f64,
    pub tokens: f64,
    pub cover: f64,
    pub discrepancy: f64,
    pub rects_build: f64,
}

impl Sums {
    /// Everything replayed that lies on the ops' blocking path. The
    /// compile split (cnf, cyk_index, nullable) lies inside `compile`; a
    /// daemon feed is its window and product pushes.
    pub fn on_path(&self) -> f64 {
        self.http
            + self.json
            + self.protocol
            + self.text
            + self.compile
            + self.cyk
            + self.count
            + self.window
            + self.product
            + self.query
            + self.cover
            + self.discrepancy
    }
}

fn timed_us<T>(acc: &mut f64, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let v = black_box(f());
    *acc += t.elapsed().as_secs_f64() * 1e6;
    v
}

/// The wire layers of one request: HTTP framing in and out, then the
/// JSON body.
fn wire(s: &mut Sums, req: &Request, reply: &Reply) -> Result<Json, String> {
    timed_us(&mut s.http, || {
        let mut asm = Assembler::new(Limits::default());
        asm.push(&req.frame);
        let parsed = asm.next().ok();
        (
            parsed,
            render_response(reply.status, reply.body.as_bytes(), false),
        )
    });
    timed_us(&mut s.json, || Json::parse(&req.body)).map_err(|e| e.to_string())
}

/// Replay `ops` (one daemon's ops, in the order they ran) in-process.
pub fn replay(wl: &Workload, ops: &[Executed], threads: usize) -> Result<Sums, String> {
    match wl.name {
        "stream_feed" => replay_stream(wl, ops),
        "certify" => replay_certify(wl, ops, threads),
        _ => replay_parse(wl, ops),
    }
}

/// Compiles replay only where the daemon's reply says the cache missed.
fn replay_parse(wl: &Workload, ops: &[Executed]) -> Result<Sums, String> {
    let mut s = Sums::default();
    let mut compiled: HashMap<u64, Arc<GrammarArtifact>> = HashMap::new();
    for e in ops {
        let (req, reply) = (&wl.inputs[e.input].requests[0], &e.replies[0]);
        let body = wire(&mut s, req, reply)?;
        let preq = timed_us(&mut s.protocol, || ParseRequest::from_json(&body))
            .map_err(|e| e.message())?;
        let (g, key) = timed_us(&mut s.text, || {
            preq.spec.build().map(|g| {
                let key = g.content_hash();
                (g, key)
            })
        })
        .map_err(|e| e.message())?;
        let art = if reply.body.contains("\"cache\":\"miss\"") {
            timed_us(&mut s.nullable, || nullable(&g));
            let cnf = timed_us(&mut s.cnf, || CnfGrammar::from_grammar(&g));
            timed_us(&mut s.cyk_index, || CykRuleIndex::new(&cnf));
            timed_us(&mut s.compile, || GrammarArtifact::compile(g.clone()))
        } else {
            Arc::clone(
                compiled
                    .entry(key)
                    .or_insert_with(|| GrammarArtifact::compile(g.clone())),
            )
        };
        {
            let chart = timed_us(&mut s.cyk, || {
                art.cnf
                    .encode(&preq.word)
                    .map(|w| CykChart::build_with_index(&art.cnf, &art.index, &w))
            });
            if let Some(chart) = chart {
                timed_us(&mut s.count, || chart.count_trees());
            }
        }
        compiled.insert(key, art);
    }
    Ok(s)
}

/// Per session: a `StreamSession` for the query, and a bare window and
/// product query the pushes are timed on. All start from the set-up
/// pre-fill, as the daemon's sessions did.
fn replay_stream(wl: &Workload, ops: &[Executed]) -> Result<Sums, String> {
    struct Mirror {
        session: StreamSession,
        window: WindowParser,
        product: ProductQuery,
        terminals: HashMap<char, Terminal>,
    }
    let mut mirrors = Vec::with_capacity(wl.sessions.len());
    for sess in &wl.sessions {
        let g = Arc::new(wl.grammars[sess.grammar].clone());
        let mut session = StreamSession::open(Arc::clone(&g), WINDOW, Some(sess.regex), &sess.name)
            .map_err(|e| e.to_string())?;
        session.feed(&sess.prefill).map_err(|e| e.to_string())?;
        let mut window = WindowParser::new(Arc::clone(&g), WINDOW);
        let mut product = ProductQuery::compile(&g, sess.regex)?;
        let terminals: HashMap<char, Terminal> = g
            .alphabet()
            .iter()
            .filter_map(|&c| g.terminal_of(c).map(|t| (c, t)))
            .collect();
        for c in sess.prefill.chars() {
            window.push(terminals[&c]);
            product.push(terminals[&c]);
        }
        product.sync(&window);
        mirrors.push(Mirror {
            session,
            window,
            product,
            terminals,
        });
    }
    let mut s = Sums::default();
    for e in ops {
        let input = &wl.inputs[e.input];
        let Ask::Stream { session, tokens } = &input.ask else {
            return Err("stream replay of a non-stream op".into());
        };
        for (req, reply) in input.requests.iter().zip(&e.replies) {
            let body = wire(&mut s, req, reply)?;
            let ok = timed_us(&mut s.protocol, || match req.path {
                "/stream/feed" => StreamFeedRequest::from_json(&body).map(drop),
                _ => session_from_json(&body).map(drop),
            });
            ok.map_err(|e| e.message())?;
        }
        let m = &mut mirrors[*session];
        let ts: Vec<Terminal> = tokens.chars().map(|c| m.terminals[&c]).collect();
        timed_us(&mut s.window, || {
            for &t in &ts {
                m.window.push(t);
            }
        });
        timed_us(&mut s.product, || {
            for &t in &ts {
                m.product.push(t);
            }
            m.product.sync(&m.window);
        });
        s.tokens += ts.len() as f64;
        m.session.feed(tokens).map_err(|e| e.to_string())?;
        timed_us(&mut s.query, || m.session.query());
    }
    Ok(s)
}

/// Builds the four families once (timed), then replays each request's
/// kernel on them with the daemon's thread count.
fn replay_certify(wl: &Workload, ops: &[Executed], threads: usize) -> Result<Sums, String> {
    let mut s = Sums::default();
    let mut families = Vec::with_capacity(CERTIFICATE.len());
    for &(_, family, n) in &CERTIFICATE {
        let family = match family {
            "example8" => RectFamily::Example8,
            _ => RectFamily::Extraction,
        };
        let art = timed_us(&mut s.rects_build, || {
            RectsArtifact::build(RectRequest { n, family })
        })
        .map_err(|e| e.message())?;
        families.push(art);
    }
    for e in ops {
        let input = &wl.inputs[e.input];
        let Ask::Certify { order } = &input.ask else {
            return Err("certify replay of a non-certify op".into());
        };
        for ((req, reply), &i) in input.requests.iter().zip(&e.replies).zip(order) {
            let body = wire(&mut s, req, reply)?;
            let discrepancy = req.path == "/discrepancy";
            timed_us(&mut s.protocol, || {
                RectRequest::from_json(&body, discrepancy)
            })
            .map_err(|e| e.message())?;
            let art = &families[i];
            if discrepancy {
                timed_us(&mut s.discrepancy, || {
                    discrepancy_accounting_threads(art.n, &art.rects, threads)
                });
            } else {
                timed_us(&mut s.cover, || {
                    verify_cover_threads(art.n, &art.rects, threads)
                });
            }
        }
    }
    Ok(s)
}
