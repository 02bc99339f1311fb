//! # zeroed-runtime
//!
//! The concurrent LLM-orchestration runtime underneath the ZeroED pipeline.
//!
//! ZeroED spends most of its wall-clock and token budget in per-attribute LLM
//! stages (distribution analysis, guideline generation, batched labelling,
//! criteria refinement — paper §III and the Fig. 8 token-cost experiments).
//! The seed implementation drove every call sequentially through a blocking
//! [`zeroed_llm::LlmClient`], one column at a time. This crate turns those
//! interactions into explicit, keyed requests executed on a configurable
//! worker pool, with content-addressed deduplication of identical requests.
//!
//! ## Request lifecycle
//!
//! A request travels through four stations:
//!
//! 1. **Submit** — a pipeline stage (e.g. "label column 3, batch 2") issues
//!    one [`zeroed_llm::Request`] through
//!    [`zeroed_llm::LlmClient::complete`]. The request renders its prompt,
//!    and the cache layer derives its [`RequestKey`]: a 128-bit content hash
//!    of the request kind, model name, target coordinates (table
//!    fingerprint, column, row indices), the rendered prompt, and the
//!    client's [`zeroed_llm::LlmClient::request_salt`] (hidden state such as
//!    the simulator's seed and oracle bits). Two requests share a key *iff*
//!    a deterministic model must answer them identically.
//! 2. **Dedup** — the [`ResponseCache`] is consulted. A completed entry is
//!    returned immediately (a *hit*: no model call, no tokens, no latency).
//!    An entry that another worker is currently computing parks the caller on
//!    a condition variable until the response lands (*single-flight
//!    coalescing*: concurrent identical requests cost one model call). A
//!    miss claims the in-flight slot and proceeds. The cache never evicts:
//!    it lives as long as its detector and holds one entry per distinct
//!    request, a run's few hundred responses.
//! 3. **Execute** — the wrapped [`zeroed_llm::LlmClient`] performs the actual
//!    call (for [`zeroed_llm::SimLlm`]: deterministic simulation plus token
//!    accounting plus optional simulated serving latency, in one of its
//!    [`zeroed_llm::SimLlm::SERVING_CAPACITY`] serving slots). The
//!    [`Scheduler`] is what puts many executions in flight at once: each
//!    attribute's model calls (analysis → guideline → label batches →
//!    refinement → augmentation) run as one phase of that attribute's
//!    chain ([`Scheduler::run_chain`]), so stage order *within* an
//!    attribute is preserved while attributes proceed concurrently — as
//!    many as the model can serve
//!    ([`zeroed_llm::LlmClient::max_in_flight`]), on a process-wide pool of
//!    long-lived request threads — and the chains' CPU phases (sampling,
//!    the detector) overlap them on a lane of one worker per core. The one
//!    step whose requests do not depend on each other, an attribute's
//!    label batches once its guideline is back, fans out again inside the
//!    phase ([`RuntimeConfig::run_nested_llm`]).
//! 4. **Publish** — the [`zeroed_llm::Response`] and its exact token cost
//!    (the prompt and [`zeroed_llm::Request::render`]'s response text) are
//!    stored under the key; parked waiters wake. Each lookup is counted once, by
//!    the adapter that made it ([`CachedLlm::stats`]: hits, misses,
//!    coalesced waits, tokens saved), never by the shared cache. Later
//!    identical requests — retries, re-runs of the same detection, repeated
//!    values — replay the stored response for free.
//!
//! The cache guarantees **bit-identical replay**: a cached response is the
//! exact value the wrapped client returned for that key, and the key covers
//! everything the (deterministic) client's answer depends on. The pipeline's
//! sequential run (one worker, no cache) therefore remains the correctness
//! oracle — concurrent and cached runs must produce the same
//! [`zeroed_table::ErrorMask`], which `crates/core` asserts in its
//! equivalence tests (the same discipline `zeroed_features::reference`
//! established for the featuriser).
//!
//! [`CachedLlm`] packages stations 1, 2 and 4 behind the ordinary
//! [`zeroed_llm::LlmClient`] trait, so pipeline code does not change shape
//! when caching is enabled. Like every layer of the stack (the repair ladder
//! too), it implements the one prompt method,
//! [`zeroed_llm::LlmClient::complete`], for all seven request kinds. The
//! stack composes as
//!
//! ```text
//! pipeline stages → Scheduler request threads → CachedLlm → RepairLlm → SimLlm
//! ```
//!
//! with cache hits short-circuiting before the repair ladder or the model
//! runs.
//!
//! ## Cross-process persistence
//!
//! The response cache is in-memory; [`StoreLayer`] extends station 4 across
//! *process* boundaries by writing every published response through to a
//! crash-safe on-disk segment store (`zeroed-store`), keyed by the same
//! 128-bit [`RequestKey`]:
//!
//! ```text
//!            publish (miss)                       open (warm start)
//! CachedLlm ───────────────▶ StoreSink ─┐   ┌──▶ preload_into(ResponseCache)
//!                                       ▼   │
//!                        writer thread ──▶ ResponseStore (seg-NNNNNN.zseg)
//! ```
//!
//! Persistence is **write-through and asynchronous**: a miss enqueues the
//! `(key, response)` pair and returns — the worker pool never blocks on an
//! fsync. A fresh detector pointed at the same store directory preloads every
//! live record into its cache as `Persisted` entries before the first
//! request, so a benchmark re-run, service restart or second experiment bin
//! issues **zero** LLM calls and reproduces bit-identical masks (the warm-hit
//! replays the exact stored value and charges the exact persisted token cost
//! as savings — the ledger reconciles to the cold run's bill). Recovery
//! tolerates torn tails, flipped bits and zero-length segments by truncating
//! or skipping, never by refusing to open; see `zeroed-store`'s crate docs
//! for the segment format and the versioning rules.
//!
//! The persistence contract rests on [`RequestKey`] stability: the store's
//! `KEY_SCHEMA_VERSION` is pinned against the golden 128-bit key values in
//! `tests/request_key_golden.rs`, so a hash-input reordering that would
//! silently invalidate persisted entries fails CI instead.
//!
//! ## Conformance suites
//!
//! Scheduler liveness under contention and hostile tasks is enforced by
//! `tests/scheduler_stress.rs`; [`RequestKey`] derivation stability and the
//! persisted-format version pins by `tests/request_key_golden.rs`; the key
//! [`CachedLlm`] derives for each request kind by
//! `tests/adapter_key_golden.rs`; and the cross-process warm start (cold run
//! → reopen in a fresh detector → zero-request warm run) by
//! `crates/core/tests/store_warm_start.rs`.

pub mod cache;
pub mod client;
mod fifo;
pub mod key;
pub mod persist;
mod pool;
pub mod scheduler;

pub use cache::{CacheTimings, Lookup, ResponseCache, ResponseOrigin, StoredResponse};
pub use client::{CacheStats, CachedLlm};
pub use key::{RequestKey, RequestKeyBuilder, RequestKind};
pub use persist::{PersistStats, StoreLayer, StoreLayerTimings, StoreSink};
pub use scheduler::{RuntimeConfig, Scheduler, SchedulerStats, SchedulerTimings};
pub use zeroed_store::{FsyncPolicy, RecoveryReport, ResponseStore, StoreConfig, StoreStats};
