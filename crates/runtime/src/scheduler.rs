//! The worker-pool scheduler and its configuration.
//!
//! [`Scheduler::run`] fans `n` index-addressed tasks out across a fixed pool
//! of scoped worker threads fed by a bounded queue. The ZeroED pipeline maps
//! one task to one attribute's stage chain (e.g. analysis → guideline →
//! label batches), which preserves stage ordering *within* an attribute while
//! attributes proceed concurrently. Results come back in task-index order, so
//! downstream consumers are oblivious to scheduling — the foundation of the
//! bit-identical-to-sequential guarantee.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;
use zeroed_obs::{EventKind, Histogram, HistogramSnapshot, TraceId, TraceRecorder};

/// Configuration of the orchestration runtime.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Worker threads; `0` means one per available core. One worker runs
    /// every task in order on the calling thread.
    pub workers: usize,
    /// Bounded submit-queue capacity; submission blocks when full.
    pub queue_capacity: usize,
    /// Additional attempts for fallible tasks (see
    /// [`Scheduler::run_fallible`]).
    pub max_retries: usize,
    /// Enable the request-dedup response cache.
    pub cache: bool,
    /// Response-cache entry budget (completed entries; exceeding it triggers
    /// a generational flush).
    pub cache_capacity: usize,
    /// Multi-backend routing policy (see [`crate::RouterConfig`]): per-backend
    /// budgets, hedged-request policy and circuit-breaker thresholds. `None`
    /// (the default) means single-backend operation; routers built through
    /// [`crate::RouterLlm::from_runtime`] fall back to
    /// [`crate::RouterConfig::for_backends`] defaults in that case.
    pub router: Option<crate::router::RouterConfig>,
    /// Crash-safe on-disk response store (see [`zeroed_store::StoreConfig`]):
    /// when set, published responses are persisted write-through and a new
    /// detector warm-starts its cache from the store directory — repeated
    /// sweeps and service restarts skip the LLM across processes. `None` (the
    /// default) keeps the cache purely in-memory. Only the cache uses the
    /// store, so a detector with `cache` off never opens it.
    pub store: Option<zeroed_store::StoreConfig>,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        Self {
            workers: 0,
            queue_capacity: 256,
            max_retries: 2,
            cache: true,
            cache_capacity: 1 << 20,
            router: None,
            store: None,
        }
    }
}

impl RuntimeConfig {
    /// The sequential reference run: one worker, no cache (and so no
    /// store).
    pub fn sequential() -> Self {
        Self {
            workers: 1,
            cache: false,
            ..Self::default()
        }
    }

    /// Resolved worker count (`workers == 0` → available parallelism).
    pub fn effective_workers(&self) -> usize {
        if self.workers == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            self.workers
        }
    }
}

/// Snapshot of scheduler activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedulerStats {
    /// Fan-out batches executed (one per [`Scheduler::run`] call).
    pub batches: u64,
    /// Tasks completed.
    pub tasks: u64,
    /// Retry attempts performed by [`Scheduler::run_fallible`].
    pub retries: u64,
}

/// Per-task timing distributions for one scheduler's lifetime: how long each
/// task sat in the bounded queue before a worker picked it up, and how long
/// its closure ran. Snapshots come from [`Scheduler::timings`]; quantiles are
/// exact nearest-rank over the histogram's sample window.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedulerTimings {
    /// Submit-to-pop latency per task (zero on the inline fast path, which
    /// has no queue and records nothing here).
    pub queue_wait: HistogramSnapshot,
    /// Closure execution time per task (recorded on both paths).
    pub execute: HistogramSnapshot,
}

#[derive(Default)]
struct Counters {
    batches: AtomicU64,
    tasks: AtomicU64,
    retries: AtomicU64,
}

/// A bounded multi-producer multi-consumer queue of task indices.
struct BoundedQueue {
    inner: Mutex<QueueState>,
    not_full: Condvar,
    not_empty: Condvar,
    capacity: usize,
}

struct QueueState {
    items: VecDeque<usize>,
    closed: bool,
}

impl BoundedQueue {
    fn new(capacity: usize) -> Self {
        Self {
            inner: Mutex::new(QueueState {
                items: VecDeque::new(),
                closed: false,
            }),
            not_full: Condvar::new(),
            not_empty: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Blocks while the queue is at capacity. Returns `false` once the queue
    /// has been closed (e.g. by a panicking worker's guard) — submitters must
    /// stop producing, otherwise a producer blocked on a full queue whose
    /// consumers all died would wait forever.
    fn push(&self, item: usize) -> bool {
        let mut state = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if state.closed {
                return false;
            }
            if state.items.len() < self.capacity {
                state.items.push_back(item);
                drop(state);
                self.not_empty.notify_one();
                return true;
            }
            state = self
                .not_full
                .wait(state)
                .unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Blocks until an item is available; `None` once closed and drained.
    fn pop(&self) -> Option<usize> {
        let mut state = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(item) = state.items.pop_front() {
                drop(state);
                self.not_full.notify_one();
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state = self
                .not_empty
                .wait(state)
                .unwrap_or_else(|e| e.into_inner());
        }
    }

    fn close(&self) {
        let mut state = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        state.closed = true;
        drop(state);
        // Wake everyone: blocked producers must observe `closed` and bail,
        // idle workers must drain and exit.
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }
}

/// Closes the queue when its worker unwinds, so the producer and sibling
/// workers cannot deadlock on a queue nobody will ever drain; the panic
/// itself still propagates when the worker scope joins.
struct PanicGuard<'a>(&'a BoundedQueue);

impl Drop for PanicGuard<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.close();
        }
    }
}

/// The worker-pool scheduler.
pub struct Scheduler {
    workers: usize,
    queue_capacity: usize,
    max_retries: usize,
    counters: Counters,
    queue_wait: Histogram,
    execute: Histogram,
    /// Per-run flight recorder (see [`Scheduler::with_recorder`]); when set,
    /// every task journals submit/start/end under a deterministic
    /// [`TraceId::for_task`] id.
    recorder: Option<Arc<TraceRecorder>>,
    /// Numbers each [`Scheduler::run`] fan-out so task trace ids stay unique
    /// across the many batches one detection runs.
    fanouts: AtomicU64,
}

impl std::fmt::Debug for Scheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scheduler")
            .field("workers", &self.workers)
            .field("queue_capacity", &self.queue_capacity)
            .field("max_retries", &self.max_retries)
            .field("stats", &self.stats())
            .finish()
    }
}

impl Scheduler {
    /// Builds the scheduler a config describes.
    pub fn from_config(config: &RuntimeConfig) -> Self {
        Self {
            workers: config.effective_workers().max(1),
            queue_capacity: config.queue_capacity,
            max_retries: config.max_retries,
            counters: Counters::default(),
            queue_wait: Histogram::new(),
            execute: Histogram::new(),
            recorder: None,
            fanouts: AtomicU64::new(0),
        }
    }

    /// A scheduler with an explicit worker count (tests/benches).
    pub fn with_workers(workers: usize) -> Self {
        Self {
            workers: workers.max(1),
            queue_capacity: 256,
            max_retries: 2,
            counters: Counters::default(),
            queue_wait: Histogram::new(),
            execute: Histogram::new(),
            recorder: None,
            fanouts: AtomicU64::new(0),
        }
    }

    /// Attach a flight recorder: every task emits
    /// [`EventKind::TaskSubmit`] / [`EventKind::TaskStart`] /
    /// [`EventKind::TaskEnd`] (`arg` = task index) under a deterministic
    /// per-task [`TraceId`].
    pub fn with_recorder(mut self, recorder: Arc<TraceRecorder>) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Resolved worker-pool size.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Current counter snapshot.
    pub fn stats(&self) -> SchedulerStats {
        SchedulerStats {
            batches: self.counters.batches.load(Ordering::Relaxed),
            tasks: self.counters.tasks.load(Ordering::Relaxed),
            retries: self.counters.retries.load(Ordering::Relaxed),
        }
    }

    /// Per-task queue-wait and execute-time distributions accumulated across
    /// every batch this scheduler has run.
    pub fn timings(&self) -> SchedulerTimings {
        SchedulerTimings {
            queue_wait: self.queue_wait.snapshot(),
            execute: self.execute.snapshot(),
        }
    }

    /// Runs tasks `0..n` on the pool and returns their results in task order.
    ///
    /// `f` runs once per task; a panicking task aborts the whole batch (the
    /// panic propagates when the worker scope joins). With one worker, or a
    /// single task, everything runs inline on the calling thread.
    pub fn run<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        self.counters.batches.fetch_add(1, Ordering::Relaxed);
        let fanout = self.fanouts.fetch_add(1, Ordering::Relaxed);
        // Deterministic per-task trace id for this fan-out (no-ops when no
        // recorder is attached).
        let task_trace = |i: usize| -> TraceId {
            match &self.recorder {
                Some(rec) => TraceId::for_task(rec.nonce(), fanout, i as u64),
                None => TraceId::NONE,
            }
        };
        let journal = |trace: TraceId, kind: EventKind, i: usize| {
            if let Some(rec) = &self.recorder {
                rec.emit(trace, kind, i as u64);
            }
        };
        if self.workers <= 1 || n <= 1 {
            self.counters.tasks.fetch_add(n as u64, Ordering::Relaxed);
            return (0..n)
                .map(|i| {
                    let trace = task_trace(i);
                    journal(trace, EventKind::TaskSubmit, i);
                    journal(trace, EventKind::TaskStart, i);
                    let t = Instant::now();
                    let value = f(i);
                    self.execute.record(t.elapsed());
                    journal(trace, EventKind::TaskEnd, i);
                    value
                })
                .collect();
        }
        let queue = BoundedQueue::new(self.queue_capacity);
        let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
        // Submit timestamps as nanos since `batch_start`: the producer stamps
        // slot `i` before pushing index `i`, the popping worker subtracts to
        // get the task's queue wait. The queue's mutex orders the relaxed
        // store before the worker's load.
        let batch_start = Instant::now();
        let submitted: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        std::thread::scope(|s| {
            for _ in 0..self.workers.min(n) {
                s.spawn(|| {
                    let _guard = PanicGuard(&queue);
                    while let Some(i) = queue.pop() {
                        let waited = batch_start
                            .elapsed()
                            .as_nanos()
                            .saturating_sub(submitted[i].load(Ordering::Relaxed) as u128);
                        self.queue_wait
                            .record_nanos(waited.min(u64::MAX as u128) as u64);
                        let trace = task_trace(i);
                        journal(trace, EventKind::TaskStart, i);
                        let t = Instant::now();
                        let value = f(i);
                        self.execute.record(t.elapsed());
                        journal(trace, EventKind::TaskEnd, i);
                        *slots[i].lock().unwrap_or_else(|e| e.into_inner()) = Some(value);
                        self.counters.tasks.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
            for i in 0..n {
                submitted[i].store(
                    batch_start.elapsed().as_nanos().min(u64::MAX as u128) as u64,
                    Ordering::Relaxed,
                );
                journal(task_trace(i), EventKind::TaskSubmit, i);
                if !queue.push(i) {
                    // A worker panicked and closed the queue; stop producing
                    // and let the scope join rethrow the panic.
                    break;
                }
            }
            queue.close();
        });
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .unwrap_or_else(|e| e.into_inner())
                    .expect("every task slot is filled before the scope joins")
            })
            .collect()
    }

    /// Like [`Scheduler::run`] for fallible tasks: each task is attempted up
    /// to `1 + max_retries` times; the first success (or the last error) is
    /// returned, in task order.
    pub fn run_fallible<T, E, F>(&self, n: usize, f: F) -> Vec<Result<T, E>>
    where
        T: Send,
        E: Send,
        F: Fn(usize) -> Result<T, E> + Sync,
    {
        self.run(n, |i| {
            let mut last = f(i);
            let mut attempts = 0;
            while last.is_err() && attempts < self.max_retries {
                attempts += 1;
                self.counters.retries.fetch_add(1, Ordering::Relaxed);
                last = f(i);
            }
            last
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn results_come_back_in_task_order() {
        let s = Scheduler::with_workers(4);
        let out = s.run(100, |i| i * 3);
        assert_eq!(out, (0..100).map(|i| i * 3).collect::<Vec<_>>());
        assert_eq!(s.stats().tasks, 100);
        assert_eq!(s.stats().batches, 1);
    }

    #[test]
    fn single_worker_runs_inline() {
        let s = Scheduler::with_workers(1);
        let out = s.run(5, |i| i + 1);
        assert_eq!(out, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn pool_actually_overlaps_work() {
        use std::time::{Duration, Instant};
        let s = Scheduler::with_workers(8);
        let start = Instant::now();
        let _ = s.run(8, |_| std::thread::sleep(Duration::from_millis(40)));
        // Eight 40 ms sleeps on eight workers should take ~40 ms, not 320 ms.
        assert!(
            start.elapsed() < Duration::from_millis(200),
            "pool did not overlap: {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn bounded_queue_survives_small_capacity() {
        let mut s = Scheduler::with_workers(3);
        s.queue_capacity = 2;
        let out = s.run(50, |i| i);
        assert_eq!(out.len(), 50);
        assert_eq!(out[49], 49);
    }

    #[test]
    fn panicking_tasks_propagate_instead_of_deadlocking() {
        // More tasks than queue capacity + workers, every task panics: the
        // workers die immediately, and without the panic guard the producer
        // would block forever on the full queue. The run must end in a panic.
        let mut s = Scheduler::with_workers(2);
        s.queue_capacity = 1;
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            s.run(64, |i: usize| -> usize { panic!("task {i} failed") })
        }));
        assert!(result.is_err(), "the task panic must propagate");
    }

    #[test]
    fn retry_policy_retries_up_to_the_budget() {
        let s = Scheduler::with_workers(2);
        let attempts = AtomicUsize::new(0);
        let out = s.run_fallible(4, |i| {
            if i == 2 {
                // Fails twice, then succeeds (max_retries is 2).
                let n = attempts.fetch_add(1, Ordering::SeqCst);
                if n < 2 {
                    return Err("flaky");
                }
            }
            Ok(i)
        });
        assert!(out.iter().enumerate().all(|(i, r)| *r == Ok(i)));
        assert_eq!(s.stats().retries, 2);

        let exhausted = s.run_fallible(1, |_| Err::<(), _>("always"));
        assert_eq!(exhausted[0], Err("always"));
    }

    #[test]
    fn timings_cover_every_task() {
        let s = Scheduler::with_workers(4);
        let _ = s.run(32, |_| std::thread::sleep(std::time::Duration::from_millis(1)));
        let t = s.timings();
        assert_eq!(t.execute.count, 32);
        assert_eq!(t.queue_wait.count, 32);
        // Each task slept ≥1ms, so the p50 execute time cannot be below it.
        assert!(t.execute.p50_nanos >= 1_000_000);

        // The inline path records execute but has no queue to wait in.
        let inline = Scheduler::with_workers(1);
        let _ = inline.run(4, |i| i);
        assert_eq!(inline.timings().execute.count, 4);
        assert_eq!(inline.timings().queue_wait.count, 0);
    }

    #[test]
    fn recorder_journals_every_task_exactly_once() {
        let rec = TraceRecorder::new(5);
        let s = Scheduler::with_workers(4).with_recorder(Arc::clone(&rec));
        let _ = s.run(32, |i| i);
        let _ = s.run(8, |i| i); // second fan-out mints distinct trace ids
        assert_eq!(rec.count(EventKind::TaskSubmit), 40);
        assert_eq!(rec.count(EventKind::TaskStart), 40);
        assert_eq!(rec.count(EventKind::TaskEnd), 40);
        assert_eq!(rec.dropped(), 0);
        zeroed_obs::check_causality(&rec.events()).expect("well-formed task stream");

        // The inline fast path journals the same triple.
        let rec = TraceRecorder::new(5);
        let inline = Scheduler::with_workers(1).with_recorder(Arc::clone(&rec));
        let _ = inline.run(4, |i| i);
        assert_eq!(rec.count(EventKind::TaskSubmit), 4);
        assert_eq!(rec.count(EventKind::TaskEnd), 4);
        zeroed_obs::check_causality(&rec.events()).expect("inline stream");
    }

    #[test]
    fn config_resolves_workers_and_modes() {
        let c = RuntimeConfig::default();
        assert!(c.cache);
        assert!(c.effective_workers() >= 1);
        let seq = RuntimeConfig::sequential();
        assert_eq!(seq.effective_workers(), 1);
        assert!(!seq.cache);
        let fixed = RuntimeConfig {
            workers: 3,
            ..RuntimeConfig::default()
        };
        assert_eq!(fixed.effective_workers(), 3);
    }
}
