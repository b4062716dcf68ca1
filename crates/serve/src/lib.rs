//! # ucfg-serve — the resident query daemon
//!
//! A long-running TCP service over the workspace's kernels, closing the
//! gap between the one-shot `ucfg` commands (`rank`, `report`, `sweep`, …) and
//! the ROADMAP's production-serving north star. Hermetic like the rest
//! of the workspace: `std::net` TCP, a hand-rolled HTTP/1.1 subset
//! ([`http`]), and a hand-rolled JSON value ([`json`]) — no external
//! crates.
//!
//! The serving layer is four pieces:
//!
//! * [`cache`] — a content-addressed **artifact cache**: FNV-1a content
//!   hashes (`Grammar::content_hash`, rectangle-family keys) address an
//!   LRU of compiled artifacts — CNF conversions, flat-slab
//!   `CykRuleIndex`es, Earley nullable tables, rectangle families — so
//!   repeat queries skip compilation entirely;
//! * [`batch`] — a **batching scheduler**: queued `/parse` requests are
//!   drained together, grouped by grammar hash, and run as one batch on
//!   the deterministic `ucfg_support::par` pool, with a bounded queue
//!   (full ⇒ `503 load_shed`, never blocking) and a per-request
//!   deadline (`504 deadline_exceeded`);
//! * [`shard`] — **worker shards**: `--shards` independent
//!   cache + scheduler pairs, jobs routed by rendezvous hashing of the
//!   content hash so a grammar's artifact compiles on exactly one
//!   shard;
//! * [`server`] — a nonblocking **epoll event loop**
//!   (`ucfg_support::evloop`): edge-triggered readiness, incremental
//!   request assembly ([`http::Assembler`]), accept backpressure at the
//!   connection budget, per-request timeouts (`408`), body caps
//!   (`413`), and **graceful shutdown** — SIGTERM / ctrl-c /
//!   `POST /shutdown` stop the accept loop, let in-flight requests
//!   finish, and drain the shard schedulers before exit.
//!
//! ## Endpoints
//!
//! | method | path | body |
//! |---|---|---|
//! | POST | `/parse` | `{"grammar": "S -> a S \| b", "word": "aab"}` or `{"builtin": "example4", "n": 3, "word": "…"}`, optional `"check": true` |
//! | POST | `/cover/verify` | `{"n": 4, "family": "example8" \| "extraction"}` |
//! | POST | `/discrepancy` | `{"n": 4, "family": …}` (needs `n ≡ 0 mod 4`) |
//! | POST | `/stream/open` | grammar spec + `{"window": 64, "regex": "a(a\|b)*b", "name": "tag"}` → deterministic session id |
//! | POST | `/stream/feed` | `{"session": "<16 hex>", "tokens": "aabb"}` or `{"session": …, "truncate": 5}` |
//! | POST | `/stream/query` | `{"session": "<16 hex>"}` → window, membership, counts, product matches |
//! | POST | `/stream/close` | `{"session": "<16 hex>"}` |
//! | POST | `/shutdown` | — |
//! | GET | `/healthz` | — |
//! | GET | `/metrics`, `/metrics/deterministic` | — |
//!
//! Streaming sessions (incremental Earley plus sliding-window
//! membership plus `CFG ∩ regex` product queries, from `ucfg_stream`)
//! live on the
//! shard that owns their **deterministic session id** — a pure FNV
//! hash of (grammar hash, window, regex, name) — so re-opening the
//! same parameters lands on the same session from any client, and
//! responses are byte-identical across thread counts and shard
//! layouts.
//!
//! Responses are JSON lines; error codes are tabulated in [`protocol`].
//! All instruments live under `serve.*` in the `ucfg_support::obs`
//! registry, deterministic counters/gauges split from volatile batch
//! statistics and timings as everywhere else in the workspace.
//!
//! ## Example
//!
//! ```
//! use ucfg_serve::{Client, ServeConfig, Server};
//! use std::time::Duration;
//!
//! let server = Server::bind(ServeConfig {
//!     port: 0, // ephemeral
//!     ..ServeConfig::default()
//! })
//! .unwrap();
//! let addr = server.local_addr().unwrap().to_string();
//! let handle = server.handle();
//! let daemon = std::thread::spawn(move || server.run().unwrap());
//!
//! let mut client = Client::connect_retry(&addr, Duration::from_secs(5)).unwrap();
//! let r = client
//!     .request("POST", "/parse", Some(r#"{"grammar":"S -> a S | b","word":"aab"}"#))
//!     .unwrap();
//! assert_eq!(r.status, 200);
//! assert!(r.body.contains("\"member\":true"));
//!
//! handle.shutdown();
//! let summary = daemon.join().unwrap();
//! assert!(summary.requests >= 1);
//! ```

#![warn(missing_docs)]

pub mod batch;
pub mod cache;
pub mod client;
pub mod http;
pub mod json;
pub mod protocol;
pub mod server;
pub mod shard;

pub use client::{Client, Response};
pub use json::Json;
pub use protocol::ApiError;
pub use server::{ServeConfig, ServeSummary, Server, ServerHandle};
