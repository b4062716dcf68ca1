//! Streaming-parse kernels: the incremental-Earley delta against the
//! full-reparse baseline, across window sizes.
//!
//! Three tiers per window size `W` ∈ {64, 256, 1024}:
//!
//! * `append/incremental/wW` — steady state: a [`WindowParser`] already
//!   holding `W` tokens absorbs one more (scan the last Earley set,
//!   close the new one, evict the front — work bounded by the chart
//!   delta, not the window);
//! * `append/full_reparse/wW` — what the same arrival costs without the
//!   subsystem: re-recognize the whole `W`-token window from scratch;
//! * `product/sync/wW` — the `CFG ∩ regex` layer's per-token cost: push
//!   the token through the tracked DFA states and re-sync suffixes;
//! * `query/wW` — two full [`StreamSession::query`] reports on full
//!   windows with a registered regex: a member window (`ab` repeated,
//!   whose tree count runs to the end) and a dead-prefix window (`ba`
//!   repeated, whose count stops at the first token).
//!
//! The `incremental` / `full_reparse` ratio in `out/BENCH_stream.json`
//! is the acceptance number EXPERIMENTS.md quotes (≥ 5× at `W` ≥ 256).

use std::hint::black_box;
use std::sync::Arc;
use ucfg_grammar::earley::Earley;
use ucfg_grammar::text::parse_grammar;
use ucfg_stream::{ProductQuery, StreamSession, WindowParser};
use ucfg_support::bench::{Options, Suite};

const WINDOWS: [usize; 3] = [64, 256, 1024];

/// Build and execute the suite; see the module docs for the tiers.
pub(super) fn build(opts: Options) -> Suite {
    // The balanced-pairs grammar over {a, b}: unbounded nesting keeps
    // the Earley charts honest (items carry real origin spread), and
    // the "ab" cycle below keeps every window prefix parseable.
    let g = Arc::new(parse_grammar("S -> a S b S | ()").expect("bench grammar"));

    let mut suite = Suite::with_options("stream", opts);
    {
        let mut grp = suite.group("append");
        for &w in &WINDOWS {
            let tokens = g.encode(&"ab".repeat(w)).expect("alphabet");
            // Pre-fill to capacity so every timed push is steady state:
            // one scan + close + front eviction, never a cold start.
            let mut parser = WindowParser::new(Arc::clone(&g), w);
            for &t in &tokens {
                parser.push(t);
            }
            let mut i = 0usize;
            grp.bench(&format!("incremental/w{w}"), move || {
                let t = tokens[i % tokens.len()];
                i += 1;
                black_box(parser.push(t))
            });
        }
        for &w in &WINDOWS {
            let tokens = g.encode(&"ab".repeat(w / 2)).expect("alphabet");
            let earley = Earley::new(&g);
            grp.bench(&format!("full_reparse/w{w}"), || {
                black_box(earley.recognize(black_box(&tokens)))
            });
        }
    }
    {
        let mut grp = suite.group("product");
        for &w in &WINDOWS {
            let tokens = g.encode(&"ab".repeat(w)).expect("alphabet");
            let mut parser = WindowParser::new(Arc::clone(&g), w);
            let mut q = ProductQuery::compile(&g, "a(a|b)*b").expect("regex");
            for &t in &tokens {
                parser.push(t);
                q.push(t);
                q.sync(&parser);
            }
            let mut i = 0usize;
            grp.bench(&format!("sync/w{w}"), move || {
                let t = tokens[i % tokens.len()];
                i += 1;
                parser.push(t);
                q.push(t);
                q.sync(&parser);
                black_box(q.window_matches(&parser))
            });
        }
    }
    {
        let mut grp = suite.group("query");
        for &w in &WINDOWS {
            let session = |text: String| {
                let mut s = StreamSession::open(Arc::clone(&g), w, Some("a(a|b)*b"), "bench")
                    .expect("regex");
                s.feed(&text).expect("alphabet");
                s
            };
            let member = session("ab".repeat(w / 2));
            let dead = session("ba".repeat(w / 2));
            grp.bench(&format!("w{w}"), || {
                black_box((member.query(), dead.query()))
            });
        }
    }
    suite
}
