//! # zeroed-obs
//!
//! Dependency-free, always-on observability for the ZeroED workspace:
//!
//! * [`Profiler`] / [`Span`] — hierarchical, thread-safe **stage spans**.
//!   A span is a named node in a tree; recording a duration into it is two
//!   atomic adds, and child lookup is a get-or-create by name so repeated
//!   invocations of the same stage accumulate instead of multiplying nodes.
//!   [`Profiler::snapshot`] freezes the tree into a plain [`StageProfile`]
//!   value that renders as a human-readable breakdown table.
//! * [`Histogram`] — latency histogram: lifetime count/total/max plus a
//!   bounded sliding window of raw samples for **exact** nearest-rank
//!   p50/p95/p99 extraction (`idx = ceil(q·n) − 1` over the sorted window).
//!
//! The crate has **no dependencies** (not even the workspace's vendored
//! stubs) so the layers that record into it — `zeroed-runtime` and
//! `zeroed-core` — link it without cycles, and it is cheap enough to leave
//! on unconditionally: a timed span is two `Instant` reads plus two relaxed
//! atomic adds, and a histogram record is two atomic adds, an atomic max
//! and one short mutex push.
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
mod profile;

pub use hist::{Histogram, HistogramSnapshot};
pub use profile::{Profiler, Quantiles, Span, StageProfile};
