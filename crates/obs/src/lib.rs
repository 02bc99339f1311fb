//! # zeroed-obs
//!
//! Dependency-free, always-on observability for the ZeroED workspace:
//!
//! * [`Profiler`] / [`Span`] — hierarchical, thread-safe **stage spans**.
//!   A span is a named node in a tree; recording a duration into it is two
//!   atomic adds, and child lookup is a get-or-create by name so repeated
//!   invocations of the same stage accumulate instead of multiplying nodes.
//!   [`Profiler::snapshot`] freezes the tree into a plain [`StageProfile`]
//!   value that serializes to the hand-rolled JSON style the bench emitters
//!   use and renders as a human-readable breakdown table.
//! * [`Histogram`] — fixed log₂-bucket latency histogram with a bounded
//!   sliding window of raw samples for **exact** nearest-rank p50/p95/p99
//!   extraction (`idx = ceil(q·n) − 1` over the sorted window, the same
//!   semantics the router's quantile tests pin).
//! * [`TraceRecorder`] / [`TraceEvent`] — the per-request causal **flight
//!   recorder**: deterministic [`TraceId`]s minted from request keys, a
//!   bounded drop-oldest [`EventRing`] with exact per-kind counts and drop
//!   accounting, a causality checker ([`check_causality`]) and exporters to
//!   a JSONL journal and Chrome trace-event format ([`chrome_trace_json`]).
//!
//! The crate has **no dependencies** (not even the workspace's vendored
//! stubs) so every layer — store, runtime, core, bench — can link it without
//! cycles, and it is cheap enough to leave on unconditionally: a span timer
//! is two `Instant` reads plus two relaxed atomic adds, and a histogram
//! record is three atomic adds plus one short mutex push.
//!
//! ```
//! use zeroed_obs::Profiler;
//! use std::time::Duration;
//!
//! let profiler = Profiler::new("detect");
//! let features = profiler.root().child("features");
//! features.record(Duration::from_millis(12));
//! {
//!     let llm = features.child_dist("criteria_llm");
//!     llm.record(Duration::from_millis(3));
//!     llm.record(Duration::from_millis(5));
//! }
//! let profile = profiler.snapshot();
//! assert_eq!(profile.find("features/criteria_llm").unwrap().count, 2);
//! println!("{}", profile.render_table());
//! ```

mod hist;
mod json;
mod profile;
mod trace;

pub use hist::{Histogram, HistogramSnapshot};
pub use json::{escape_json, fmt_ms};
pub use profile::{Profiler, Quantiles, Span, SpanTimer, StageProfile};
pub use trace::{
    check_causality, chrome_trace_json, current_id, emit_current, journal_jsonl, request_scope,
    EventKind, EventRing, TraceEvent, TraceExemplar, TraceId, TraceRecorder, TraceScope,
    TraceSummary,
};
