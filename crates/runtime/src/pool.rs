//! The claim loop behind every index-addressed fan-out, and the
//! process-wide pool of long-lived request threads that helps the fan-outs
//! waiting on the model.
//!
//! [`scatter`] runs one fan-out: the calling thread claims task indices in
//! order and so do its helpers, either scoped threads spawned for the
//! fan-out (CPU work, [`crate::Scheduler::run`]) or turns of the request
//! threads ([`crate::Scheduler::run_llm`] and the middle phase of
//! [`crate::Scheduler::run_chain`]). Because the caller works too, a
//! fan-out finishes even when every request thread is busy elsewhere (for
//! example inside another caller's fan-out), and it never returns before
//! every task has finished or been skipped: the tasks borrow the caller's
//! stack.
//!
//! An LLM fan-out mostly waits on the model, so it runs wider than the core
//! count. Spawning that many threads per fan-out costs more than the spawns:
//! every new thread gets its own malloc arena, and the CPU stages'
//! allocations then spread across them, raising the process's peak RSS. The
//! pool keeps its request threads for the life of the process instead,
//! growing only when a fan-out asks for more than it has, and CPU work never
//! runs on them.

use crate::fifo::Fifo;
use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// The threads that help a fan-out's caller.
pub(crate) enum Helpers {
    /// This many scoped threads, spawned for the fan-out.
    Scoped(usize),
    /// This many turns of the request threads.
    Requests(usize),
}

/// A task panic, re-raised by the caller once its fan-out has settled.
pub(crate) struct Panicked {
    /// The first panic's payload.
    pub payload: Box<dyn Any + Send>,
    /// Tasks that never started because an earlier one panicked.
    pub skipped: usize,
}

/// Runs `body(i)` for every `i` in `0..n` on the calling thread plus up to
/// `n - 1` of `helpers`, and returns once every index has finished or been
/// skipped. After a task panics, the tasks not yet started are skipped and
/// the first panic comes back as `Err`.
pub(crate) fn scatter(
    helpers: Helpers,
    n: usize,
    body: &(dyn Fn(usize) + Sync),
) -> Result<(), Panicked> {
    let body: *const (dyn Fn(usize) + Sync + '_) = body;
    // SAFETY: only the trait object's lifetime bound changes. `Batch::help`
    // dereferences the pointer for claimed indices below `n` only, and this
    // function waits below until all `n` of them are counted done.
    let body: *const (dyn Fn(usize) + Sync + 'static) = unsafe { std::mem::transmute(body) };
    let batch = Arc::new(Batch {
        n,
        body,
        next: AtomicUsize::new(0),
        cancelled: AtomicBool::new(false),
        progress: Mutex::new(Progress::default()),
        settled: Condvar::new(),
    });
    match helpers {
        Helpers::Scoped(k) => std::thread::scope(|s| {
            for _ in 0..k.min(n.saturating_sub(1)) {
                s.spawn(|| batch.help());
            }
            batch.help();
        }),
        Helpers::Requests(k) => {
            POOL.submit(&batch, k.min(n.saturating_sub(1)));
            batch.help();
        }
    }
    let mut progress = batch.lock();
    while progress.done < n {
        progress = batch
            .settled
            .wait(progress)
            .unwrap_or_else(|e| e.into_inner());
    }
    match progress.panic.take() {
        Some(payload) => Err(Panicked {
            payload,
            skipped: progress.skipped,
        }),
        None => Ok(()),
    }
}

/// One fan-out's shared state. Request threads hold it through an `Arc`, so
/// a helper that starts after the caller returned touches only this: it
/// claims an index past `n` and leaves without reading `body`.
struct Batch {
    n: usize,
    /// The caller's task body, valid until `progress.done` reaches `n`.
    body: *const (dyn Fn(usize) + Sync + 'static),
    next: AtomicUsize,
    cancelled: AtomicBool,
    progress: Mutex<Progress>,
    settled: Condvar,
}

// SAFETY: `body` is the only field that is not `Send + Sync` on its own: it
// points at a `Sync` closure, which any thread may call through a shared
// reference, and `scatter` keeps it alive for as long as any thread may
// (see `Batch::help`). The other fields are atomics, a `Mutex` over `Send`
// data, a `Condvar` and a `usize`.
unsafe impl Send for Batch {}
unsafe impl Sync for Batch {}

#[derive(Default)]
struct Progress {
    done: usize,
    skipped: usize,
    panic: Option<Box<dyn Any + Send>>,
}

impl Batch {
    fn lock(&self) -> std::sync::MutexGuard<'_, Progress> {
        self.progress.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Claims and runs indices until none are left. Never unwinds: a task
    /// panic is caught, cancels the tasks not yet started and is kept for
    /// the caller.
    fn help(&self) {
        loop {
            // `next` and `cancelled` publish no other data: results and the
            // panic travel under `progress`'s lock.
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.n {
                return;
            }
            let outcome = if self.cancelled.load(Ordering::Relaxed) {
                None
            } else {
                // SAFETY: `i < n` and is not yet counted done, so `scatter`
                // is still waiting and the closure is alive.
                let body = unsafe { &*self.body };
                Some(catch_unwind(AssertUnwindSafe(|| body(i))))
            };
            let mut progress = self.lock();
            match outcome {
                None => progress.skipped += 1,
                Some(Ok(())) => {}
                Some(Err(payload)) => {
                    self.cancelled.store(true, Ordering::Relaxed);
                    progress.panic.get_or_insert(payload);
                }
            }
            progress.done += 1;
            if progress.done == self.n {
                self.settled.notify_all();
            }
        }
    }
}

/// The request threads and the fan-outs waiting for their help.
struct Pool {
    /// One entry per helping turn a fan-out asked for.
    jobs: Fifo<Arc<Batch>>,
    threads: Mutex<usize>,
}

static POOL: Pool = Pool {
    jobs: Fifo::new(),
    threads: Mutex::new(0),
};

impl Pool {
    /// Queues `helpers` helping turns on `batch`, first growing the pool to
    /// at least `helpers` threads.
    fn submit(&'static self, batch: &Arc<Batch>, helpers: usize) {
        {
            let mut threads = self.threads.lock().unwrap_or_else(|e| e.into_inner());
            while *threads < helpers {
                std::thread::Builder::new()
                    .name("zeroed-request".into())
                    .spawn(move || self.serve())
                    .expect("spawn a request thread");
                *threads += 1;
            }
        }
        // All turns at once: a fan-out whose tasks wait on each other then
        // gets every helper before a later fan-out gets any.
        self.jobs
            .push_all(std::iter::repeat_n(Arc::clone(batch), helpers));
    }

    /// A request thread's life: the job list is never closed, and
    /// `Batch::help` cannot unwind, so it serves until the process exits.
    fn serve(&self) {
        while let Some(batch) = self.jobs.pop() {
            batch.help();
        }
    }
}
