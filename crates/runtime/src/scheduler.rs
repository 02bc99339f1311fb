//! The scheduler and its configuration.
//!
//! A [`Scheduler`] runs `n` index-addressed tasks at one of two widths, one
//! task per attribute in the ZeroED pipeline.
//!
//! * [`Scheduler::run`] is for CPU-bound fan-outs (criteria evaluation):
//!   one worker per core by default, the calling thread and scoped threads
//!   spawned for the fan-out.
//! * [`Scheduler::run_llm`] is for fan-outs that mostly wait on the model
//!   (criteria generation): as many tasks in flight as the model can serve
//!   ([`zeroed_llm::LlmClient::max_in_flight`]), on the calling thread and a
//!   process-wide pool of long-lived request threads.
//!
//!   The two share one body: every task is submitted up front, and the
//!   calling thread and its helpers claim task indices in order until none
//!   are left.
//! * [`Scheduler::run_chain`] streams a three-phase chain per task, mixing
//!   both widths: the CPU phases (sampling, the detector) on a lane of one
//!   worker per core, the phase in between (labelling, then training-data
//!   construction) at the model's width. A task's phases run in order while
//!   tasks proceed concurrently, and no fan-out barrier separates the
//!   phases, so one task's CPU work overlaps another's waits on the model.
//! * [`RuntimeConfig::run_nested_llm`] fans out requests from inside a
//!   task (an attribute's label batches inside its middle phase) at the
//!   model's width, on the calling thread and scoped threads spawned for
//!   the call, so the request threads stay with the outer fan-out.
//!
//! An explicit [`RuntimeConfig::workers`] pins both widths, so one worker
//! runs every task in order on the calling thread. Either way results come
//! back in task-index order, so downstream consumers are oblivious to
//! scheduling — the foundation of the bit-identical-to-sequential guarantee.

use crate::fifo::Fifo;
use crate::pool::{self, Helpers};
use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Instant;
use zeroed_llm::LlmClient;
use zeroed_obs::{Histogram, HistogramSnapshot};

/// Configuration of the orchestration runtime.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Fan-out width. `0` (the default) sizes each kind of work by the
    /// resource it waits on: CPU work ([`Scheduler::run`] and the CPU lane
    /// of [`Scheduler::run_chain`]) gets one worker per available core, LLM
    /// work ([`Scheduler::run_llm`] and the middle phase of a chain) as many
    /// requests in flight as the model reports it can serve (one per core
    /// when it does not say). `N` pins both widths to `N`, so one worker
    /// runs every task in order on the calling thread.
    pub workers: usize,
    /// Enable the request-dedup response cache.
    pub cache: bool,
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
            cache: true,
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

    /// Resolved CPU fan-out width (`workers == 0` → available parallelism).
    pub fn effective_workers(&self) -> usize {
        if self.workers == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            self.workers
        }
    }

    /// Resolved LLM fan-out width for a model that can serve
    /// `max_in_flight` requests at once (see
    /// [`LlmClient::max_in_flight`]): that capacity when `workers == 0`,
    /// otherwise [`RuntimeConfig::effective_workers`].
    pub(crate) fn llm_width(&self, max_in_flight: Option<usize>) -> usize {
        match max_in_flight {
            Some(capacity) if self.workers == 0 => capacity.max(1),
            _ => self.effective_workers(),
        }
    }

    /// Runs tasks `0..n` that mostly wait on `llm` from inside another
    /// task (one attribute's label batches inside its chain's middle
    /// phase), and returns their results in task order.
    ///
    /// Up to the LLM width this config resolves for `llm` run at once: the
    /// calling thread and scoped threads spawned for the call claim the
    /// tasks in order, as in [`Scheduler::run`]. The long-lived request
    /// threads neither help nor grow, so the outer fan-out keeps them. At
    /// width one every task runs in order on the calling thread. A task
    /// panic propagates with its own payload once the started tasks have
    /// finished.
    pub fn run_nested_llm<T, F>(&self, llm: &dyn LlmClient, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let helpers = Helpers::Scoped(self.llm_width(llm.max_in_flight()) - 1);
        gather(helpers, n, f).unwrap_or_else(|panicked| resume_unwind(panicked.payload))
    }
}

/// Snapshot of scheduler activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedulerStats {
    /// Fan-outs executed (one per [`Scheduler::run`], [`Scheduler::run_llm`]
    /// or [`Scheduler::run_chain`] call).
    pub batches: u64,
    /// Tasks completed.
    pub tasks: u64,
    /// Tasks of a panicked [`Scheduler::run`] or [`Scheduler::run_llm`]
    /// fan-out, and phases of a panicked [`Scheduler::run_chain`], that never
    /// started.
    pub skipped: u64,
}

/// Per-task timing distributions for one scheduler's lifetime: how long each
/// task waited between its submission and a thread picking it up, and how
/// long its closure ran. Snapshots come from [`Scheduler::timings`];
/// quantiles are exact nearest-rank over the histogram's sample window.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedulerTimings {
    /// Submit-to-pickup latency per task (the inline fast path runs each
    /// task as it submits it and records nothing here).
    pub queue_wait: HistogramSnapshot,
    /// Closure execution time per task (recorded on both paths).
    pub execute: HistogramSnapshot,
}

#[derive(Default)]
struct Counters {
    batches: AtomicU64,
    tasks: AtomicU64,
    skipped: AtomicU64,
}

/// The two-width scheduler (see the module docs).
pub struct Scheduler {
    workers: usize,
    llm_width: usize,
    counters: Counters,
    queue_wait: Histogram,
    execute: Histogram,
}

impl std::fmt::Debug for Scheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scheduler")
            .field("workers", &self.workers)
            .field("llm_width", &self.llm_width)
            .field("stats", &self.stats())
            .finish()
    }
}

impl Scheduler {
    /// Builds the scheduler a config describes for a model of unknown
    /// serving capacity.
    pub fn from_config(config: &RuntimeConfig) -> Self {
        Self {
            workers: config.effective_workers().max(1),
            llm_width: config.llm_width(None),
            counters: Counters::default(),
            queue_wait: Histogram::new(),
            execute: Histogram::new(),
        }
    }

    /// Builds the scheduler a config describes for detection against `llm`:
    /// with `workers == 0` its LLM fan-outs are as wide as `llm` can serve.
    pub fn for_client(config: &RuntimeConfig, llm: &dyn LlmClient) -> Self {
        Self {
            llm_width: config.llm_width(llm.max_in_flight()),
            ..Self::from_config(config)
        }
    }

    /// A scheduler with both widths pinned to `workers` (tests/benches).
    pub fn with_workers(workers: usize) -> Self {
        Self::from_config(&RuntimeConfig {
            workers: workers.max(1),
            ..RuntimeConfig::default()
        })
    }

    /// Resolved CPU width ([`Scheduler::run`], a chain's CPU lane).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Resolved LLM width ([`Scheduler::run_llm`], a chain's middle phase).
    pub fn llm_width(&self) -> usize {
        self.llm_width
    }

    /// Current counter snapshot.
    pub fn stats(&self) -> SchedulerStats {
        SchedulerStats {
            batches: self.counters.batches.load(Ordering::Relaxed),
            tasks: self.counters.tasks.load(Ordering::Relaxed),
            skipped: self.counters.skipped.load(Ordering::Relaxed),
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

    /// Runs CPU-bound tasks `0..n` on the calling thread and
    /// [`Scheduler::workers`] `- 1` scoped threads, and returns their results
    /// in task order.
    ///
    /// If a task panics, the tasks not yet started are skipped (counted in
    /// [`SchedulerStats::skipped`]), and the panic propagates with its own
    /// payload once every task has finished or been skipped. With one
    /// worker, or a single task, everything runs inline on the calling
    /// thread.
    pub fn run<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        self.fan_out(self.workers, Helpers::Scoped, n, f)
    }

    /// Runs tasks `0..n` that mostly wait on the model with up to
    /// [`Scheduler::llm_width`] in flight, and returns their results in
    /// task order.
    ///
    /// The calling thread and the process-wide pool of long-lived request
    /// threads share the tasks; otherwise it is [`Scheduler::run`], panics
    /// included.
    pub fn run_llm<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        self.fan_out(self.llm_width, Helpers::Requests, n, f)
    }

    /// The body of [`Scheduler::run`] and [`Scheduler::run_llm`]: `width`
    /// tasks in flight, on the calling thread and `helpers(width - 1)`.
    fn fan_out<T, F>(&self, width: usize, helpers: fn(usize) -> Helpers, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        self.counters.batches.fetch_add(1, Ordering::Relaxed);
        if width <= 1 || n <= 1 {
            return (0..n).map(|i| self.run_task(|| f(i))).collect();
        }
        // Every task is submitted up front; its queue wait runs until a
        // thread picks it up.
        let batch_start = Instant::now();
        let task = |i: usize| {
            self.queue_wait.record(batch_start.elapsed());
            self.run_task(|| f(i))
        };
        gather(helpers(width - 1), n, task).unwrap_or_else(|panicked| {
            self.counters
                .skipped
                .fetch_add(panicked.skipped as u64, Ordering::Relaxed);
            resume_unwind(panicked.payload)
        })
    }

    /// Runs every task's three phases, `first` → `middle` → `last`, each
    /// handing its output to the next, and returns the `last` outputs in
    /// task order.
    ///
    /// `first` and `last` are CPU work. They run on a lane of
    /// [`Scheduler::workers`] scoped threads fed by one queue: every task's
    /// `first` is queued up front in task order, and a task's `last` is
    /// queued the moment its `middle` returns. `middle` mostly waits on
    /// the model, so it runs [`Scheduler::llm_width`] wide on the calling
    /// thread and the request pool, as [`Scheduler::run_llm`] does. Each
    /// `middle` waits only for its own task's `first` and hands off to the
    /// lane without waiting for `last`, so no request thread runs CPU-lane
    /// work, and one task's `last` overlaps other tasks' `middle`.
    ///
    /// Every phase is timed and counted as a scheduler task. If a
    /// phase panics, the phases not yet started are skipped (counted in
    /// [`SchedulerStats::skipped`]), a `middle` waiting for a `first` that
    /// will never run is woken, and the panic is re-raised with its own
    /// payload once every started phase has finished. With both widths at
    /// one, or a single task, each task's three phases run in task order on
    /// the calling thread.
    pub fn run_chain<A, B, C, F, M, L>(&self, n: usize, first: F, middle: M, last: L) -> Vec<C>
    where
        A: Send,
        B: Send,
        C: Send,
        F: Fn(usize) -> A + Sync,
        M: Fn(usize, A) -> B + Sync,
        L: Fn(usize, B) -> C + Sync,
    {
        self.counters.batches.fetch_add(1, Ordering::Relaxed);
        if (self.workers <= 1 && self.llm_width <= 1) || n <= 1 {
            return (0..n)
                .map(|i| {
                    let a = self.run_task(|| first(i));
                    let b = self.run_task(|| middle(i, a));
                    self.run_task(|| last(i, b))
                })
                .collect();
        }
        let chain = Chain::new(n);
        // Job `i < n` is task i's `first`, job `n + i` its `last`.
        let lane = Fifo::new();
        let batch_start = Instant::now();
        std::thread::scope(|s| {
            for _ in 0..self.workers.min(n) {
                s.spawn(|| {
                    // `run_phase` catches the phases' panics, so a lane
                    // thread never unwinds.
                    while let Some(job) = lane.pop() {
                        if job < n {
                            let i = job;
                            if let Some(a) = self.run_phase(&chain, batch_start, || first(i)) {
                                chain.hand_first(i, a);
                            }
                        } else {
                            let i = job - n;
                            let (b, ready) = chain.middles[i]
                                .lock()
                                .unwrap_or_else(|e| e.into_inner())
                                .take()
                                .expect("a task's last is queued after its middle hands off");
                            let c = self.run_phase(&chain, ready, || last(i, b));
                            *chain.results[i].lock().unwrap_or_else(|e| e.into_inner()) = c;
                        }
                    }
                });
            }
            for i in 0..n {
                lane.push(i);
            }
            let body = |i: usize| {
                let Some((a, ready)) = chain.wait_first(i) else {
                    return;
                };
                if let Some(b) = self.run_phase(&chain, ready, || middle(i, a)) {
                    *chain.middles[i].lock().unwrap_or_else(|e| e.into_inner()) =
                        Some((b, Instant::now()));
                    lane.push(n + i);
                }
            };
            // `run_phase` catches the phases' panics, so none reaches the
            // pool.
            if let Err(panicked) = pool::scatter(Helpers::Requests(self.llm_width - 1), n, &body) {
                chain.fail(panicked.payload);
            }
            // Every `last` is queued once the middles have settled; the lane
            // drains them and exits.
            lane.close();
        });
        let started = chain.started.load(Ordering::Relaxed);
        let handoff = chain
            .handoff
            .into_inner()
            .unwrap_or_else(|e| e.into_inner());
        if let Some(payload) = handoff.panic {
            self.counters
                .skipped
                .fetch_add((3 * n - started) as u64, Ordering::Relaxed);
            resume_unwind(payload);
        }
        collect(chain.results)
    }

    /// Runs one task, timing and counting it.
    fn run_task<T>(&self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let value = f();
        self.execute.record(t.elapsed());
        self.counters.tasks.fetch_add(1, Ordering::Relaxed);
        value
    }

    /// Runs one phase of a [`Scheduler::run_chain`] task unless the chain
    /// has failed: records its queue wait since it became `ready`, runs it
    /// as a task, and turns a panic into the chain's failure.
    fn run_phase<A, B, C, T>(
        &self,
        chain: &Chain<A, B, C>,
        ready: Instant,
        f: impl FnOnce() -> T,
    ) -> Option<T> {
        if chain.failed() {
            return None;
        }
        self.queue_wait.record(ready.elapsed());
        chain.started.fetch_add(1, Ordering::Relaxed);
        match catch_unwind(AssertUnwindSafe(|| self.run_task(f))) {
            Ok(value) => Some(value),
            Err(payload) => {
                chain.fail(payload);
                None
            }
        }
    }
}

/// The state one [`Scheduler::run_chain`] call shares across its threads.
struct Chain<A, B, C> {
    handoff: Mutex<Handoff<A>>,
    /// Signalled when a `first` hands its output off or the chain fails.
    handed: Condvar,
    /// Each task's `middle` output and when it was handed off, until the
    /// task's `last` takes it.
    middles: Vec<Mutex<Option<(B, Instant)>>>,
    results: Vec<Mutex<Option<C>>>,
    /// Phases that started; the rest of the `3n` are skipped.
    started: AtomicUsize,
}

struct Handoff<A> {
    /// Each task's `first` output and when it was handed off, until the
    /// task's `middle` takes it.
    firsts: Vec<Option<(A, Instant)>>,
    /// The first phase panic. Once it is set, phases not yet started are
    /// skipped.
    panic: Option<Box<dyn Any + Send>>,
}

impl<A, B, C> Chain<A, B, C> {
    fn new(n: usize) -> Self {
        Self {
            handoff: Mutex::new(Handoff {
                firsts: (0..n).map(|_| None).collect(),
                panic: None,
            }),
            handed: Condvar::new(),
            middles: (0..n).map(|_| Mutex::new(None)).collect(),
            results: (0..n).map(|_| Mutex::new(None)).collect(),
            started: AtomicUsize::new(0),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Handoff<A>> {
        self.handoff.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn failed(&self) -> bool {
        self.lock().panic.is_some()
    }

    /// Keeps the first panic and wakes every `middle` waiting for a `first`.
    fn fail(&self, payload: Box<dyn Any + Send>) {
        self.lock().panic.get_or_insert(payload);
        self.handed.notify_all();
    }

    fn hand_first(&self, i: usize, value: A) {
        self.lock().firsts[i] = Some((value, Instant::now()));
        self.handed.notify_all();
    }

    /// Blocks until task `i`'s `first` has handed its output off, or returns
    /// `None` once the chain has failed.
    fn wait_first(&self, i: usize) -> Option<(A, Instant)> {
        let mut handoff = self.lock();
        loop {
            if handoff.panic.is_some() {
                return None;
            }
            if let Some(handed) = handoff.firsts[i].take() {
                return Some(handed);
            }
            handoff = self.handed.wait(handoff).unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// Runs `f(i)` for every `i` in `0..n` through [`pool::scatter`] and
/// returns the results in task order.
fn gather<T, F>(helpers: Helpers, n: usize, f: F) -> Result<Vec<T>, pool::Panicked>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let body = |i: usize| {
        let value = f(i);
        *slots[i].lock().unwrap_or_else(|e| e.into_inner()) = Some(value);
    };
    pool::scatter(helpers, n, &body)?;
    Ok(collect(slots))
}

/// Unwraps a fan-out's result slots, all filled once it returns.
fn collect<T>(slots: Vec<Mutex<Option<T>>>) -> Vec<T> {
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(|e| e.into_inner())
                .expect("every task slot is filled before the fan-out returns")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn panicking_tasks_propagate_instead_of_deadlocking() {
        // Every task panics: the first panic cancels the rest, and the run
        // must end in that panic once the fan-out has settled.
        let s = Scheduler::with_workers(2);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            s.run(64, |i: usize| -> usize { panic!("task {i} failed") })
        }));
        assert!(result.is_err(), "the task panic must propagate");
    }

    #[test]
    fn timings_cover_every_task() {
        let s = Scheduler::with_workers(4);
        let _ = s.run(32, |_| {
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
        let t = s.timings();
        assert_eq!(t.execute.count, 32);
        assert_eq!(t.queue_wait.count, 32);
        // Each task slept ≥1ms, so the p50 execute time cannot be below it.
        assert!(t.execute.p50_nanos >= 1_000_000);

        // The inline path records execute but runs each task as it submits
        // it, so nothing waits.
        let inline = Scheduler::with_workers(1);
        let _ = inline.run(4, |i| i);
        assert_eq!(inline.timings().execute.count, 4);
        assert_eq!(inline.timings().queue_wait.count, 0);
    }

    #[test]
    fn config_resolves_workers_and_modes() {
        let c = RuntimeConfig::default();
        assert!(c.cache);
        assert!(c.effective_workers() >= 1);
        // Auto width: LLM fan-outs follow the model's serving capacity and
        // fall back to the core count when it is unknown.
        assert_eq!(c.llm_width(Some(8)), 8);
        assert_eq!(c.llm_width(None), c.effective_workers());
        let seq = RuntimeConfig::sequential();
        assert_eq!(seq.effective_workers(), 1);
        assert_eq!(seq.llm_width(Some(8)), 1, "pinned widths ignore the model");
        assert!(!seq.cache);
        let fixed = RuntimeConfig {
            workers: 3,
            ..RuntimeConfig::default()
        };
        assert_eq!(fixed.effective_workers(), 3);
        assert_eq!(fixed.llm_width(Some(8)), 3);
        let llm = zeroed_llm::SimLlm::default_model(0);
        let s = Scheduler::for_client(&c, &llm);
        assert_eq!(s.llm_width(), zeroed_llm::SimLlm::SERVING_CAPACITY);
        assert_eq!(s.workers(), c.effective_workers());
    }

    #[test]
    fn llm_fanout_returns_results_in_task_order() {
        let s = Scheduler::with_workers(8);
        let out = s.run_llm(100, |i| {
            if i % 7 == 0 {
                std::thread::sleep(std::time::Duration::from_micros(200));
            }
            i * 3
        });
        assert_eq!(out, (0..100).map(|i| i * 3).collect::<Vec<_>>());
        assert_eq!(s.stats().tasks, 100);
        assert_eq!(s.stats().batches, 1);
        assert_eq!(s.timings().queue_wait.count, 100);
        assert_eq!(s.timings().execute.count, 100);
    }

    #[test]
    fn recorder_journals_every_task_exactly_once() {
        // Each task is counted and timed once, across fan-outs on one
        // scheduler.
        let s = Scheduler::with_workers(4);
        let _ = s.run(32, |i| i);
        let _ = s.run(8, |i| i);
        assert_eq!(s.stats().tasks, 40);
        assert_eq!(s.stats().batches, 2);
        assert_eq!(s.stats().skipped, 0);
        assert_eq!(s.timings().execute.count, 40);
        assert_eq!(s.timings().queue_wait.count, 40);

        // The inline fast path counts and times the same way.
        let inline = Scheduler::with_workers(1);
        let _ = inline.run(4, |i| i);
        assert_eq!(inline.stats().tasks, 4);
        assert_eq!(inline.stats().batches, 1);
        assert_eq!(inline.timings().execute.count, 4);
    }

    #[test]
    fn recorder_journals_both_widths_once_per_task() {
        let llm = zeroed_llm::SimLlm::default_model(0);
        let s = Scheduler::for_client(&RuntimeConfig::default(), &llm);
        let _ = s.run(32, |i| i);
        let _ = s.run_llm(32, |i| i);
        let _ = s.run(8, |i| i);
        let _ = s.run_llm(8, |i| i);
        // A chain counts each of its three phases as a task, and the whole
        // chain as one batch.
        let _ = s.run_chain(16, |i| i, |_, a| a, |_, b| b);
        assert_eq!(s.stats().tasks, 80 + 3 * 16);
        assert_eq!(s.stats().batches, 5);
        assert_eq!(s.stats().skipped, 0);
        assert_eq!(s.timings().execute.count, 80 + 3 * 16);
    }

    #[test]
    fn nested_llm_fanout_follows_the_model_width() {
        let llm = zeroed_llm::SimLlm::default_model(0);
        let caller = std::thread::current().id();
        let out = RuntimeConfig::default().run_nested_llm(&llm, 40, |i| i * 3);
        assert_eq!(out, (0..40).map(|i| i * 3).collect::<Vec<_>>());

        // Nested inside an LLM fan-out, each task runs on the request
        // thread that called it or on a scoped helper, never on another
        // request thread.
        let s = Scheduler::for_client(&RuntimeConfig::default(), &llm);
        let placements = s.run_llm(8, |_| {
            let outer = std::thread::current().id();
            RuntimeConfig::default().run_nested_llm(&llm, 8, |_| {
                let here = std::thread::current();
                here.id() == outer || here.name().is_none()
            })
        });
        assert!(placements.iter().flatten().all(|&ok| ok));

        // At width one every task runs on the calling thread, in order.
        let log = Mutex::new(Vec::new());
        let out = RuntimeConfig::sequential().run_nested_llm(&llm, 5, |i| {
            log.lock().unwrap().push((i, std::thread::current().id()));
            i
        });
        assert_eq!(out, vec![0, 1, 2, 3, 4]);
        let expected: Vec<_> = (0..5).map(|i| (i, caller)).collect();
        assert_eq!(*log.lock().unwrap(), expected);

        // A task panic reaches the caller with its own payload.
        let pinned = RuntimeConfig {
            workers: 4,
            ..RuntimeConfig::default()
        };
        let payload = catch_unwind(AssertUnwindSafe(|| {
            pinned.run_nested_llm(&llm, 16, |i| {
                if i == 3 {
                    panic!("batch 3 failed");
                }
                i
            })
        }))
        .expect_err("the task panic must propagate");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"batch 3 failed"));
    }

    #[test]
    fn chain_returns_results_in_task_order() {
        let streamed = Scheduler::with_workers(4);
        let out = streamed.run_chain(
            100,
            |i| i,
            |i, a| {
                assert_eq!(a, i, "a middle gets its own task's first");
                a * 3
            },
            |_, b| b + 1,
        );
        assert_eq!(out, (0..100).map(|i| i * 3 + 1).collect::<Vec<_>>());
        assert_eq!(streamed.stats().tasks, 300);
        assert_eq!(streamed.stats().batches, 1);
        assert_eq!(streamed.timings().queue_wait.count, 300);
        assert_eq!(streamed.timings().execute.count, 300);

        // With both widths at one, each task's phases run in task order on
        // the calling thread, and nothing queues.
        let inline = Scheduler::with_workers(1);
        let log = Mutex::new(Vec::new());
        let note = |phase: char, i: usize| log.lock().unwrap().push((phase, i));
        let out = inline.run_chain(
            3,
            |i| note('f', i),
            |i, ()| note('m', i),
            |i, ()| {
                note('l', i);
                i
            },
        );
        assert_eq!(out, vec![0, 1, 2]);
        let expected: Vec<(char, usize)> = (0..3)
            .flat_map(|i| [('f', i), ('m', i), ('l', i)])
            .collect();
        assert_eq!(*log.lock().unwrap(), expected);
        assert_eq!(inline.timings().execute.count, 9);
        assert_eq!(inline.timings().queue_wait.count, 0);
    }
}
