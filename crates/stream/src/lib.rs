//! Streaming parse subsystem: sliding-window membership and an online
//! Bar-Hillel `CFG ∩ regex` query layer.
//!
//! The batch kernels elsewhere in the workspace answer questions about a
//! *fixed* word. This crate answers the same questions about a *moving*
//! one — a token stream that grows, slides, and rewinds — without
//! reparsing from scratch on every change. It has no Earley engine of
//! its own: the incremental chart (append, truncate, front eviction,
//! all-starts mode) is [`ucfg_grammar::earley::Chart`], the same engine
//! batch recognition runs.
//!
//! * [`WindowParser`] — a fixed-capacity sliding window over an
//!   unbounded stream, answering window and window-suffix membership by
//!   delta maintenance on an all-starts chart.
//! * [`ProductQuery`] — a registered regex, compiled through Glushkov →
//!   DFA → Bar-Hillel product for static `CFG ∩ regex` (non)emptiness,
//!   plus per-window match counts maintained one DFA transition per
//!   token.
//! * [`StreamSession`] — the deterministic session object the
//!   `/stream/*` serve endpoints and the `ucfg stream` CLI driver
//!   operate on, bundling a window, an optional product query, and an
//!   exact tree counter.
//!
//! Everything is deterministic: session ids are FNV digests of the
//! opening parameters, and every report is a pure function of the token
//! history — the serve layer's byte-identical-across-shards contract
//! extends to streams unchanged.

#![warn(missing_docs)]

pub mod product;
pub mod session;
pub mod window;

pub use product::ProductQuery;
pub use session::{session_id, FeedReport, ProductReport, QueryReport, StreamError, StreamSession};
pub use window::WindowParser;
