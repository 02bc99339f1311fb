//! Per-request causal tracing: deterministic trace ids, a bounded
//! flight-recorder ring of typed lifecycle events, a causality checker and
//! two exporters (JSONL journal, Chrome trace-event format).
//!
//! The aggregate profiler ([`crate::Profiler`]) answers *"where does wall
//! time go?"*; this module answers *"what happened to this request?"*. Every
//! serving-stack layer emits [`TraceEvent`]s into one per-run
//! [`TraceRecorder`]: the scheduler's submit/start/end, the response cache's
//! hit/miss/coalesce/park/publish, the repair ladder's
//! mangled/salvaged/re-asked/defaulted steps, and the store's
//! persist/preload.
//!
//! Three properties make the journal trustworthy:
//!
//! * **Deterministic identity** — a [`TraceId`] is a pure function of the
//!   128-bit request key and a run nonce ([`TraceId::from_key`]), so the
//!   same logical request carries the same id across execution modes
//!   (sequential / concurrent / warm) and across the layers that
//!   see the key at different times (cache adapter, store writer thread).
//! * **Exact accounting under bounded memory** — the ring ([`EventRing`])
//!   holds a fixed number of events and drops oldest-first, but per-kind
//!   counts are atomics updated on *every* emit, and the drop count is
//!   exact: `recorded == ring.len() + dropped` always. Reconciliation
//!   against `CacheStats` / `RepairCounters` therefore never degrades when
//!   the ring wraps.
//! * **Checkable causality** — [`check_causality`] verifies the event
//!   stream's well-formedness (no execute-before-submit, terminal task event
//!   exactly once, every cache publish preceded by its miss, repair ladders
//!   that balance).
//!
//! Cross-layer correlation uses a thread-local *request scope*: the cache
//! adapter (the single choke point every LLM request passes through) installs
//! the recorder + trace id with [`request_scope`]; layers below it either
//! emit through [`emit_current`] (the shared cache, which must attribute
//! events only to calls made under a scope) or hold their own recorder handle
//! and stamp [`current_id`] (repair ladder, scheduler workers).

use std::cell::RefCell;
use std::collections::HashMap;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::json::escape_json;

/// splitmix64 finaliser: the avalanche both lanes of the runtime's
/// `RequestKey` already use, reimplemented locally so `zeroed-obs` stays
/// dependency-free.
#[inline]
fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58476d1ce4e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

/// Identity of one logical request (or scheduler task) inside a traced run.
///
/// Ids are deterministic — [`TraceId::from_key`] over the same key and nonce
/// always yields the same id — and never zero for a real request:
/// [`TraceId::NONE`] marks events emitted outside any request scope (the
/// sequential oracle path, run-scoped events like the store preload).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceId(u64);

impl TraceId {
    /// The "no request scope" id (sequential-path repair events, run-scoped
    /// events). Grouped but exempt from per-request causality checks that
    /// assume a single logical request.
    pub const NONE: TraceId = TraceId(0);

    /// Mint the id for a logical request from its 128-bit content-addressed
    /// key and the run nonce. Pure and collision-resistant: both key words
    /// are folded through a splitmix64 avalanche, and 0 (reserved for
    /// [`TraceId::NONE`]) is remapped.
    pub fn from_key(key: u128, nonce: u64) -> TraceId {
        let folded = (key >> 64) as u64 ^ (key as u64).rotate_left(32);
        let x = mix64(folded ^ mix64(nonce ^ 0x7265715f74726163)); // "req_trac"
        TraceId(x.max(1))
    }

    /// Mint the id for one scheduler task: `fanout` numbers the `run()`
    /// fan-out within the run, `task` the task index within it.
    pub fn for_task(nonce: u64, fanout: u64, task: u64) -> TraceId {
        let x = mix64(((fanout << 32) | task).wrapping_add(mix64(nonce ^ 0x7461736b5f747261))); // "task_tra"
        TraceId(x.max(1))
    }

    /// The raw 64-bit value (0 for [`TraceId::NONE`]).
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Whether this is the out-of-scope marker.
    pub fn is_none(self) -> bool {
        self.0 == 0
    }
}

/// The typed request-lifecycle event taxonomy. Fieldless with fixed
/// discriminants so per-kind counters can live in a flat array and the
/// serialized names stay stable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum EventKind {
    /// Scheduler: task handed to the queue (or started inline).
    TaskSubmit = 0,
    /// Scheduler: a worker dequeued the task and began executing.
    TaskStart = 1,
    /// Scheduler: the task finished (terminal, exactly once per task).
    TaskEnd = 2,
    /// Cache: lookup answered from a ready slot (includes coalesced hits).
    CacheHit = 3,
    /// Cache: the hit coalesced onto an in-flight identical request
    /// (always paired with a [`EventKind::CacheHit`] on the same trace).
    CacheCoalesced = 4,
    /// Cache: lookup missed; this caller computes the response.
    CacheMiss = 5,
    /// Cache: the computed response was published to the slot (pairs with
    /// the preceding [`EventKind::CacheMiss`] on the same trace).
    CachePublish = 6,
    /// Cache: a waiter parked on an in-flight slot (`arg` = park nanos).
    CacheParkWait = 7,
    /// Repair: validation rejected a response; the ladder engaged.
    RepairMangled = 8,
    /// Repair: structural salvage recovered the response.
    RepairSalvaged = 9,
    /// Repair: a re-ask round-trip recovered the response (`arg` = attempt).
    RepairReasked = 10,
    /// Repair: the ladder exhausted and the stage default was used.
    RepairDefaulted = 11,
    /// Store: one record written through to disk by the background writer.
    StorePersist = 12,
    /// Store: run-scoped preload marker (`arg` = records preloaded).
    StorePreload = 13,
}

impl EventKind {
    /// Number of kinds (the per-kind counter array length).
    pub const COUNT: usize = 14;

    /// Every kind, in discriminant order.
    pub const ALL: [EventKind; EventKind::COUNT] = [
        EventKind::TaskSubmit,
        EventKind::TaskStart,
        EventKind::TaskEnd,
        EventKind::CacheHit,
        EventKind::CacheCoalesced,
        EventKind::CacheMiss,
        EventKind::CachePublish,
        EventKind::CacheParkWait,
        EventKind::RepairMangled,
        EventKind::RepairSalvaged,
        EventKind::RepairReasked,
        EventKind::RepairDefaulted,
        EventKind::StorePersist,
        EventKind::StorePreload,
    ];

    /// Position in the per-kind counter array.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable snake_case name used by both exporters and the ledger.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::TaskSubmit => "task_submit",
            EventKind::TaskStart => "task_start",
            EventKind::TaskEnd => "task_end",
            EventKind::CacheHit => "cache_hit",
            EventKind::CacheCoalesced => "cache_coalesced",
            EventKind::CacheMiss => "cache_miss",
            EventKind::CachePublish => "cache_publish",
            EventKind::CacheParkWait => "cache_park_wait",
            EventKind::RepairMangled => "repair_mangled",
            EventKind::RepairSalvaged => "repair_salvaged",
            EventKind::RepairReasked => "repair_reasked",
            EventKind::RepairDefaulted => "repair_defaulted",
            EventKind::StorePersist => "store_persist",
            EventKind::StorePreload => "store_preload",
        }
    }
}

/// One journal entry: when (nanos since the recorder's epoch), which logical
/// request, what happened, and one kind-specific argument word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Nanoseconds since the owning recorder's epoch.
    pub t_nanos: u64,
    /// The logical request (or task) this event belongs to.
    pub trace: TraceId,
    /// What happened.
    pub kind: EventKind,
    /// Kind-specific argument (park nanos, re-ask attempt, preload count, …).
    pub arg: u64,
}

/// Fixed-capacity drop-oldest event ring. The drop count is exact: every
/// overwritten event increments it, so `pushed == len() + dropped()` holds
/// at all times.
#[derive(Debug)]
pub struct EventRing {
    cap: usize,
    buf: Vec<TraceEvent>,
    next: usize,
    dropped: u64,
}

impl EventRing {
    /// A ring holding at most `cap` events (`cap` clamped to at least 1).
    pub fn new(cap: usize) -> Self {
        EventRing {
            cap: cap.max(1),
            buf: Vec::new(),
            next: 0,
            dropped: 0,
        }
    }

    /// Append one event, evicting the oldest when full.
    pub fn push(&mut self, ev: TraceEvent) {
        if self.buf.len() < self.cap {
            self.buf.push(ev);
        } else {
            self.buf[self.next] = ev;
            self.dropped += 1;
        }
        self.next = (self.next + 1) % self.cap;
    }

    /// Events currently held (≤ capacity).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether no events have been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Exact number of events evicted by overwrites.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The surviving events, oldest first.
    pub fn ordered(&self) -> Vec<TraceEvent> {
        if self.buf.len() < self.cap {
            self.buf.clone()
        } else {
            let mut out = Vec::with_capacity(self.cap);
            out.extend_from_slice(&self.buf[self.next..]);
            out.extend_from_slice(&self.buf[..self.next]);
            out
        }
    }
}

/// The per-run flight recorder: a shared epoch, exact per-kind atomic
/// counters and the bounded [`EventRing`] under a short mutex. Emitting is
/// one `Instant` read, one relaxed atomic add and one short lock — the same
/// cost class as a [`crate::Histogram`] record, cheap enough to leave on.
#[derive(Debug)]
pub struct TraceRecorder {
    nonce: u64,
    epoch: Instant,
    counts: [AtomicU64; EventKind::COUNT],
    ring: Mutex<EventRing>,
}

impl TraceRecorder {
    /// Default ring capacity: 2¹⁷ events (≈4 MiB) — comfortably above a
    /// full 50k-row detection's event volume, so quick and ledger runs
    /// journal without drops while worst-case memory stays bounded.
    pub const DEFAULT_CAPACITY: usize = 1 << 17;

    /// A recorder with the default ring capacity. The nonce seeds every
    /// [`TraceId`] minted for this run.
    pub fn new(nonce: u64) -> Arc<Self> {
        Self::with_capacity(nonce, Self::DEFAULT_CAPACITY)
    }

    /// A recorder with an explicit ring capacity (clamped to at least 1).
    pub fn with_capacity(nonce: u64, capacity: usize) -> Arc<Self> {
        Arc::new(TraceRecorder {
            nonce,
            epoch: Instant::now(),
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            ring: Mutex::new(EventRing::new(capacity)),
        })
    }

    /// The run nonce ids are derived from.
    pub fn nonce(&self) -> u64 {
        self.nonce
    }

    /// [`TraceId::from_key`] with this recorder's nonce.
    pub fn trace_for_key(&self, key: u128) -> TraceId {
        TraceId::from_key(key, self.nonce)
    }

    /// Record one event. Never blocks beyond the short ring lock; the
    /// per-kind count is updated even when the ring evicts.
    pub fn emit(&self, trace: TraceId, kind: EventKind, arg: u64) {
        let t_nanos = self.epoch.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        self.counts[kind.index()].fetch_add(1, Ordering::Relaxed);
        self.ring
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(TraceEvent {
                t_nanos,
                trace,
                kind,
                arg,
            });
    }

    /// Exact lifetime count of events of `kind` (not bounded by the ring).
    pub fn count(&self, kind: EventKind) -> u64 {
        self.counts[kind.index()].load(Ordering::Relaxed)
    }

    /// Exact number of events the ring evicted.
    pub fn dropped(&self) -> u64 {
        self.ring
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .dropped()
    }

    /// The surviving events in timestamp order. Timestamps are read before
    /// the ring lock is taken, so two racing writers can land in the ring
    /// out of time order; the stable re-sort here restores the real-time
    /// order (ties keep insertion order, which for same-thread emissions is
    /// causal order).
    pub fn events(&self) -> Vec<TraceEvent> {
        let mut events = self
            .ring
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .ordered();
        events.sort_by_key(|e| e.t_nanos);
        events
    }

    /// Freeze the recorder into a [`TraceSummary`] carrying the surviving
    /// events, exact per-kind counts, the drop count and the
    /// `max_exemplars` slowest request-rooted traces.
    pub fn summary(&self, max_exemplars: usize) -> TraceSummary {
        let events = self.events();
        let exemplars = build_exemplars(&events, max_exemplars);
        TraceSummary {
            counts: std::array::from_fn(|i| self.counts[i].load(Ordering::Relaxed)),
            dropped_events: self.dropped(),
            events,
            exemplars,
        }
    }
}

thread_local! {
    static CURRENT: RefCell<Option<(Arc<TraceRecorder>, TraceId)>> = const { RefCell::new(None) };
}

/// RAII guard installing a request scope on the current thread (see
/// [`request_scope`]). Restores the previous scope on drop, so nested
/// resolves (re-asks through the cache) stay correctly attributed.
#[derive(Debug)]
pub struct TraceScope {
    prev: Option<(Arc<TraceRecorder>, TraceId)>,
    // Thread-local restore must happen on the installing thread.
    _not_send: PhantomData<*const ()>,
}

/// Install `(recorder, id)` as the current thread's request scope. The cache
/// adapter calls this at its resolve choke point; everything below it on the
/// same thread attributes events to `id` via [`emit_current`] /
/// [`current_id`].
pub fn request_scope(recorder: &Arc<TraceRecorder>, id: TraceId) -> TraceScope {
    let prev = CURRENT.with(|c| c.borrow_mut().replace((Arc::clone(recorder), id)));
    TraceScope {
        prev,
        _not_send: PhantomData,
    }
}

impl Drop for TraceScope {
    fn drop(&mut self) {
        let prev = self.prev.take();
        CURRENT.with(|c| *c.borrow_mut() = prev);
    }
}

/// Emit through the current thread's request scope; a no-op when no scope is
/// installed. This is how shared long-lived components (the response cache)
/// attribute events only to calls made under a scope.
pub fn emit_current(kind: EventKind, arg: u64) {
    CURRENT.with(|c| {
        if let Some((rec, id)) = c.borrow().as_ref() {
            rec.emit(*id, kind, arg);
        }
    });
}

/// The current thread's request id, or [`TraceId::NONE`] outside any scope.
/// Components that hold their own recorder handle (the repair ladder) use
/// this to stamp their events.
pub fn current_id() -> TraceId {
    CURRENT.with(|c| c.borrow().as_ref().map_or(TraceId::NONE, |(_, id)| *id))
}

/// One of the slowest request-rooted traces of a run: the events of a single
/// [`TraceId`], oldest first, with the trace's observed begin/end times.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceExemplar {
    /// The request this trace belongs to.
    pub trace: TraceId,
    /// First event time (nanos since the recorder epoch).
    pub begin_nanos: u64,
    /// Last event time (nanos since the recorder epoch).
    pub end_nanos: u64,
    /// The trace's events, oldest first.
    pub events: Vec<TraceEvent>,
}

impl TraceExemplar {
    /// Observed first-to-last-event span.
    pub fn span_nanos(&self) -> u64 {
        self.end_nanos.saturating_sub(self.begin_nanos)
    }
}

fn build_exemplars(events: &[TraceEvent], max: usize) -> Vec<TraceExemplar> {
    if max == 0 {
        return Vec::new();
    }
    let mut by_trace: HashMap<u64, TraceExemplar> = HashMap::new();
    let mut order: Vec<u64> = Vec::new();
    for ev in events {
        if ev.trace.is_none() {
            continue;
        }
        let entry = by_trace.entry(ev.trace.raw()).or_insert_with(|| {
            order.push(ev.trace.raw());
            TraceExemplar {
                trace: ev.trace,
                begin_nanos: ev.t_nanos,
                end_nanos: ev.t_nanos,
                events: Vec::new(),
            }
        });
        entry.begin_nanos = entry.begin_nanos.min(ev.t_nanos);
        entry.end_nanos = entry.end_nanos.max(ev.t_nanos);
        entry.events.push(*ev);
    }
    // Request-rooted only: traces that are purely scheduler tasks are the
    // aggregate profiler's business, not per-request exemplars.
    let task_only = |ex: &TraceExemplar| {
        ex.events.iter().all(|e| {
            matches!(
                e.kind,
                EventKind::TaskSubmit | EventKind::TaskStart | EventKind::TaskEnd
            )
        })
    };
    let mut out: Vec<TraceExemplar> = order
        .into_iter()
        .filter_map(|raw| by_trace.remove(&raw))
        .filter(|ex| !task_only(ex))
        .collect();
    out.sort_by(|a, b| {
        b.span_nanos()
            .cmp(&a.span_nanos())
            .then(a.trace.raw().cmp(&b.trace.raw()))
    });
    out.truncate(max);
    out
}

/// A frozen flight recorder: the surviving events, exact per-kind counts,
/// the exact drop count and the slowest request-rooted traces. Surfaced per
/// run as `PipelineStats::trace`.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSummary {
    /// Exact lifetime event counts, indexed by [`EventKind::index`] —
    /// unaffected by ring eviction.
    pub counts: [u64; EventKind::COUNT],
    /// Exact number of events the ring evicted (0 on a well-sized run).
    pub dropped_events: u64,
    /// The surviving events, oldest first (`recorded − dropped` of them).
    pub events: Vec<TraceEvent>,
    /// The slowest request-rooted traces, slowest first.
    pub exemplars: Vec<TraceExemplar>,
}

impl Default for TraceSummary {
    fn default() -> Self {
        TraceSummary {
            counts: [0; EventKind::COUNT],
            dropped_events: 0,
            events: Vec::new(),
            exemplars: Vec::new(),
        }
    }
}

impl TraceSummary {
    /// Exact lifetime count of events of `kind`.
    pub fn count(&self, kind: EventKind) -> u64 {
        self.counts[kind.index()]
    }

    /// Exact total events recorded (survivors + dropped).
    pub fn recorded(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Verify the journal end to end: the ring must not have dropped (else
    /// the event stream is incomplete and order checks would be vacuous),
    /// the per-kind counters must equal the surviving stream's counts, and
    /// [`check_causality`] must pass.
    pub fn verify(&self) -> Result<(), String> {
        if self.dropped_events > 0 {
            return Err(format!(
                "ring dropped {} events; causality can only be checked on a complete journal",
                self.dropped_events
            ));
        }
        let mut seen = [0u64; EventKind::COUNT];
        for ev in &self.events {
            seen[ev.kind.index()] += 1;
        }
        for kind in EventKind::ALL {
            if seen[kind.index()] != self.counts[kind.index()] {
                return Err(format!(
                    "{}: counter says {} but the journal holds {}",
                    kind.name(),
                    self.counts[kind.index()],
                    seen[kind.index()]
                ));
            }
        }
        check_causality(&self.events)
    }
}

/// Check the causal well-formedness of a complete event stream (events in
/// emission order, no drops). Per trace id, in order:
///
/// * **tasks** — no start before its submit, no end before its start, and
///   for any trace containing task events, submit/start/end each exactly
///   once (the terminal event cannot repeat);
/// * **cache** — every publish is preceded by a matching miss
///   (prefix-wise `publishes ≤ misses`) and totals balance exactly; a
///   coalesced marker never outnumbers hits;
/// * **repair** — ladder outcomes never outnumber engagements prefix-wise
///   and balance exactly at end of trace
///   (`mangled == salvaged + reasked + defaulted`).
///
/// [`TraceId::NONE`] groups events emitted outside any request scope (the
/// sequential path); it is checked with the same aggregate rules except the
/// task exactly-once rule, which presumes a single logical task.
pub fn check_causality(events: &[TraceEvent]) -> Result<(), String> {
    #[derive(Default)]
    struct PerTrace {
        submit: u64,
        start: u64,
        end: u64,
        hit: u64,
        coalesced: u64,
        miss: u64,
        publish: u64,
        mangled: u64,
        salvaged: u64,
        reasked: u64,
        defaulted: u64,
    }
    let mut traces: HashMap<u64, PerTrace> = HashMap::new();
    let fail = |trace: u64, msg: &str| -> Result<(), String> {
        Err(format!("trace 0x{trace:016x}: {msg}"))
    };
    for ev in events {
        let raw = ev.trace.raw();
        let t = traces.entry(raw).or_default();
        match ev.kind {
            EventKind::TaskSubmit => t.submit += 1,
            EventKind::TaskStart => {
                t.start += 1;
                if t.start > t.submit {
                    return fail(raw, "task started before it was submitted");
                }
            }
            EventKind::TaskEnd => {
                t.end += 1;
                if t.end > t.start {
                    return fail(raw, "task ended before it started");
                }
            }
            EventKind::CacheHit => t.hit += 1,
            EventKind::CacheCoalesced => {
                t.coalesced += 1;
                if t.coalesced > t.hit {
                    return fail(raw, "coalesced marker without a preceding cache hit");
                }
            }
            EventKind::CacheMiss => t.miss += 1,
            EventKind::CachePublish => {
                t.publish += 1;
                if t.publish > t.miss {
                    return fail(raw, "cache publish without a preceding miss");
                }
            }
            EventKind::RepairMangled => t.mangled += 1,
            EventKind::RepairSalvaged => {
                t.salvaged += 1;
                if t.salvaged + t.reasked + t.defaulted > t.mangled {
                    return fail(raw, "repair outcome without a mangled response");
                }
            }
            EventKind::RepairReasked => {
                t.reasked += 1;
                if t.salvaged + t.reasked + t.defaulted > t.mangled {
                    return fail(raw, "repair outcome without a mangled response");
                }
            }
            EventKind::RepairDefaulted => {
                t.defaulted += 1;
                if t.salvaged + t.reasked + t.defaulted > t.mangled {
                    return fail(raw, "repair outcome without a mangled response");
                }
            }
            EventKind::CacheParkWait | EventKind::StorePersist | EventKind::StorePreload => {}
        }
    }
    for (raw, t) in &traces {
        let has_task = t.submit + t.start + t.end > 0;
        if has_task && *raw != 0 && (t.submit != 1 || t.start != 1 || t.end != 1) {
            return fail(*raw, "a task trace must submit, start and end exactly once");
        }
        if has_task && *raw == 0 && (t.start > t.submit || t.end > t.start) {
            return fail(*raw, "unscoped task events out of order");
        }
        if t.publish != t.miss {
            return fail(*raw, "cache publishes do not balance misses");
        }
        if t.mangled != t.salvaged + t.reasked + t.defaulted {
            return fail(*raw, "repair ladder does not balance");
        }
    }
    Ok(())
}

/// Export events as a JSONL journal: one object per line, in stream order.
pub fn journal_jsonl(events: &[TraceEvent]) -> String {
    let mut out = String::new();
    for ev in events {
        out.push_str(&format!(
            "{{\"t_ns\": {}, \"trace\": \"0x{:016x}\", \"kind\": \"{}\", \"arg\": {}}}\n",
            ev.t_nanos,
            ev.trace.raw(),
            escape_json(ev.kind.name()),
            ev.arg
        ));
    }
    out
}

/// The span pairs the Chrome exporter reconstructs: a close kind, its
/// matching open kind and the span name.
const CHROME_PAIRS: [(EventKind, EventKind, &str); 3] = [
    (EventKind::TaskStart, EventKind::TaskSubmit, "task_queue"),
    (EventKind::TaskEnd, EventKind::TaskStart, "task_execute"),
    (
        EventKind::CachePublish,
        EventKind::CacheMiss,
        "cache_compute",
    ),
];

fn chrome_open_kind(kind: EventKind) -> bool {
    CHROME_PAIRS.iter().any(|&(_, open, _)| open == kind)
}

fn chrome_close_pair(kind: EventKind) -> Option<(EventKind, &'static str)> {
    CHROME_PAIRS
        .iter()
        .find(|&&(close, _, _)| close == kind)
        .map(|&(_, open, name)| (open, name))
}

/// Export events in Chrome trace-event format (a JSON array loadable by
/// `chrome://tracing` and Perfetto). Paired events — task submit→start,
/// start→end, cache miss→publish — become complete (`"ph": "X"`) spans at
/// the open event's position; everything else becomes an instant
/// (`"ph": "i"`). `pid` is always 1; `tid` is the trace id's low 32 bits so
/// one request's lifecycle lands on one track. Timestamps are microseconds
/// with nanosecond precision. Deterministic for a given event stream.
pub fn chrome_trace_json(events: &[TraceEvent]) -> String {
    // Match close events to the most recent unmatched open of their pair
    // kind within the same trace.
    let mut open_stacks: HashMap<(u64, u8), Vec<usize>> = HashMap::new();
    let mut span_close: Vec<Option<(usize, &'static str)>> = vec![None; events.len()];
    let mut consumed: Vec<bool> = vec![false; events.len()];
    for (i, ev) in events.iter().enumerate() {
        if let Some((open_kind, name)) = chrome_close_pair(ev.kind) {
            if let Some(oi) = open_stacks
                .get_mut(&(ev.trace.raw(), open_kind as u8))
                .and_then(|s| s.pop())
            {
                span_close[oi] = Some((i, name));
                consumed[oi] = true;
                consumed[i] = true;
            }
        }
        if chrome_open_kind(ev.kind) {
            open_stacks
                .entry((ev.trace.raw(), ev.kind as u8))
                .or_default()
                .push(i);
        }
    }
    let us = |nanos: u64| format!("{:.3}", nanos as f64 / 1e3);
    let mut entries: Vec<String> = Vec::new();
    for (i, ev) in events.iter().enumerate() {
        let tid = ev.trace.raw() & 0xffff_ffff;
        let args = format!(
            "\"args\": {{\"trace\": \"0x{:016x}\", \"arg\": {}}}",
            ev.trace.raw(),
            ev.arg
        );
        if let Some((ci, name)) = span_close[i] {
            entries.push(format!(
                "{{\"name\": \"{}\", \"cat\": \"zeroed\", \"ph\": \"X\", \"ts\": {}, \"dur\": {}, \"pid\": 1, \"tid\": {}, {}}}",
                name,
                us(ev.t_nanos),
                us(events[ci].t_nanos.saturating_sub(ev.t_nanos)),
                tid,
                args
            ));
        } else if !consumed[i] {
            entries.push(format!(
                "{{\"name\": \"{}\", \"cat\": \"zeroed\", \"ph\": \"i\", \"ts\": {}, \"s\": \"t\", \"pid\": 1, \"tid\": {}, {}}}",
                ev.kind.name(),
                us(ev.t_nanos),
                tid,
                args
            ));
        }
    }
    let mut out = String::from("[\n");
    out.push_str(&entries.join(",\n"));
    out.push_str("\n]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t: u64, trace: TraceId, kind: EventKind) -> TraceEvent {
        TraceEvent {
            t_nanos: t,
            trace,
            kind,
            arg: 0,
        }
    }

    #[test]
    fn all_lists_each_kind_once_in_discriminant_order() {
        for (i, kind) in EventKind::ALL.iter().enumerate() {
            assert_eq!(kind.index(), i, "{kind:?} is out of place in ALL");
        }
        let names: std::collections::HashSet<&str> =
            EventKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(names.len(), EventKind::COUNT, "kind names must be distinct");
    }

    #[test]
    fn trace_ids_are_deterministic_and_nonce_scoped() {
        let a = TraceId::from_key(42, 7);
        assert_eq!(a, TraceId::from_key(42, 7));
        assert_ne!(a, TraceId::from_key(42, 8));
        assert_ne!(a, TraceId::from_key(43, 7));
        assert!(!a.is_none());
        let t = TraceId::for_task(7, 0, 0);
        assert_eq!(t, TraceId::for_task(7, 0, 0));
        assert_ne!(t, TraceId::for_task(7, 0, 1));
        assert_ne!(t, TraceId::for_task(7, 1, 0));
    }

    #[test]
    fn ring_drops_oldest_with_exact_accounting() {
        let mut ring = EventRing::new(4);
        for i in 0..10u64 {
            ring.push(ev(i, TraceId::NONE, EventKind::CacheHit));
        }
        assert_eq!(ring.len(), 4);
        assert_eq!(ring.dropped(), 6);
        let kept: Vec<u64> = ring.ordered().iter().map(|e| e.t_nanos).collect();
        assert_eq!(kept, vec![6, 7, 8, 9]);
    }

    #[test]
    fn recorder_counts_survive_ring_eviction() {
        let rec = TraceRecorder::with_capacity(1, 8);
        for _ in 0..100 {
            rec.emit(TraceId::NONE, EventKind::CacheMiss, 0);
        }
        assert_eq!(rec.count(EventKind::CacheMiss), 100);
        assert_eq!(rec.dropped(), 92);
        assert_eq!(rec.events().len(), 8);
        let s = rec.summary(3);
        assert_eq!(s.count(EventKind::CacheMiss), 100);
        assert_eq!(s.recorded(), 100);
        assert_eq!(s.dropped_events, 92);
        assert!(s.verify().is_err(), "a dropped journal must not verify");
    }

    #[test]
    fn scope_attributes_and_restores() {
        let rec = TraceRecorder::new(9);
        assert_eq!(current_id(), TraceId::NONE);
        emit_current(EventKind::CacheHit, 0); // no scope: no-op
        let outer = rec.trace_for_key(1);
        let inner = rec.trace_for_key(2);
        {
            let _a = request_scope(&rec, outer);
            assert_eq!(current_id(), outer);
            {
                let _b = request_scope(&rec, inner);
                assert_eq!(current_id(), inner);
                emit_current(EventKind::CacheMiss, 0);
            }
            assert_eq!(current_id(), outer);
        }
        assert_eq!(current_id(), TraceId::NONE);
        let events = rec.events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].trace, inner);
        assert_eq!(rec.count(EventKind::CacheHit), 0);
    }

    #[test]
    fn causality_accepts_a_well_formed_stream() {
        let t = TraceId::from_key(5, 1);
        let task = TraceId::for_task(1, 0, 0);
        let stream = [
            ev(0, task, EventKind::TaskSubmit),
            ev(1, task, EventKind::TaskStart),
            ev(2, t, EventKind::CacheMiss),
            ev(3, t, EventKind::RepairMangled),
            ev(4, t, EventKind::RepairSalvaged),
            ev(5, t, EventKind::CachePublish),
            ev(6, task, EventKind::TaskEnd),
        ];
        assert!(check_causality(&stream).is_ok());
    }

    #[test]
    fn causality_rejects_malformed_streams() {
        let task = TraceId::for_task(1, 0, 0);
        let t = TraceId::from_key(5, 1);
        // Execute before submit.
        assert!(check_causality(&[ev(0, task, EventKind::TaskStart)]).is_err());
        // Terminal event twice.
        assert!(check_causality(&[
            ev(0, task, EventKind::TaskSubmit),
            ev(1, task, EventKind::TaskStart),
            ev(2, task, EventKind::TaskEnd),
            ev(3, task, EventKind::TaskEnd),
        ])
        .is_err());
        // Publish without a miss.
        assert!(check_causality(&[ev(0, t, EventKind::CachePublish)]).is_err());
        // Repair ladder that does not balance.
        assert!(check_causality(&[ev(0, t, EventKind::RepairMangled)]).is_err());
    }

    #[test]
    fn exemplars_rank_slowest_request_traces() {
        let rec = TraceRecorder::new(3);
        let slow = rec.trace_for_key(1);
        let fast = rec.trace_for_key(2);
        let task = TraceId::for_task(3, 0, 0);
        let stream = [
            ev(0, slow, EventKind::CacheMiss),
            ev(10, fast, EventKind::CacheMiss),
            ev(12, fast, EventKind::CachePublish),
            ev(50, slow, EventKind::CachePublish),
            ev(0, task, EventKind::TaskSubmit),
            ev(1, task, EventKind::TaskStart),
            ev(90, task, EventKind::TaskEnd),
        ];
        let got = build_exemplars(&stream, 2);
        assert_eq!(got.len(), 2, "task-only traces are not exemplars");
        assert_eq!(got[0].trace, slow);
        assert_eq!(got[0].span_nanos(), 50);
        assert_eq!(got[1].trace, fast);
    }

    #[test]
    fn journal_jsonl_is_one_object_per_line() {
        let t = TraceId::from_key(1, 2);
        let out = journal_jsonl(&[ev(5, t, EventKind::CacheHit)]);
        assert_eq!(out.lines().count(), 1);
        assert!(out.starts_with("{\"t_ns\": 5, \"trace\": \"0x"));
        assert!(out.contains("\"kind\": \"cache_hit\""));
    }

    #[test]
    fn chrome_export_pairs_spans_and_instants() {
        let task = TraceId::for_task(1, 0, 0);
        let t = TraceId::from_key(5, 1);
        let stream = [
            ev(1_000, task, EventKind::TaskSubmit),
            ev(2_000, task, EventKind::TaskStart),
            ev(2_500, t, EventKind::CacheHit),
            ev(9_000, task, EventKind::TaskEnd),
        ];
        let out = chrome_trace_json(&stream);
        assert!(out.starts_with("[\n"));
        assert!(out.ends_with("\n]\n"));
        assert!(out.contains("\"name\": \"task_queue\""));
        assert!(out.contains("\"ph\": \"X\", \"ts\": 1.000, \"dur\": 1.000"));
        assert!(out.contains("\"name\": \"task_execute\""));
        assert!(out.contains("\"ts\": 2.000, \"dur\": 7.000"));
        assert!(out.contains("\"name\": \"cache_hit\""));
        assert!(out.contains("\"ph\": \"i\""));
        // Exactly 3 entries: two spans, one instant.
        assert_eq!(out.matches("\"ph\":").count(), 3);
    }
}
