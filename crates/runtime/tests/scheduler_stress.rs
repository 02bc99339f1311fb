//! Scheduler stress tests: contended claim loops with hostile workloads.
//!
//! The pipeline trusts [`zeroed_runtime::Scheduler`] with two guarantees that
//! only matter under pressure: results come back in task order no matter how
//! workers interleave, and nothing — not many threads claiming at once, not
//! an erroring task, not a panicking one — can deadlock a batch. Each test
//! here runs under a watchdog so a regression surfaces as a clean failure
//! instead of a hung CI job.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Barrier, Condvar, Mutex};
use std::time::{Duration, Instant};
use zeroed_llm::SimLlm;
use zeroed_runtime::{RuntimeConfig, Scheduler};

/// Generous CI watchdog: the workloads below finish in well under a second on
/// one core; a minute means a deadlock.
const WATCHDOG: Duration = Duration::from_secs(60);

/// Runs `f` on a helper thread and panics if it does not finish in time.
/// A panic inside `f` is rethrown with its original payload (so assertion
/// failures read as themselves, not as deadlocks); on a true timeout the
/// runaway thread is leaked — the test is failing anyway.
fn with_watchdog<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    let handle = std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    match rx.recv_timeout(WATCHDOG) {
        Ok(value) => {
            handle.join().expect("stress worker panicked after sending");
            value
        }
        Err(mpsc::RecvTimeoutError::Disconnected) => match handle.join() {
            Err(panic) => std::panic::resume_unwind(panic),
            Ok(_) => panic!("stress worker exited without delivering a result"),
        },
        Err(mpsc::RecvTimeoutError::Timeout) => {
            panic!("scheduler deadlocked: no result within {WATCHDOG:?}")
        }
    }
}

fn scheduler(workers: usize) -> Scheduler {
    Scheduler::from_config(&RuntimeConfig {
        workers,
        ..RuntimeConfig::default()
    })
}

#[test]
fn saturated_tiny_queue_preserves_task_order() {
    with_watchdog(|| {
        // 2000 tiny tasks on 8 workers: the threads contend on nearly every
        // claim and every result slot.
        let s = scheduler(8);
        let out = s.run(2000, |i| {
            if i % 97 == 0 {
                // A sprinkle of slow tasks to force reordering pressure.
                std::thread::sleep(Duration::from_micros(200));
            }
            i * 31
        });
        assert_eq!(out.len(), 2000);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i * 31, "task {i} out of order");
        }
        assert_eq!(s.stats().tasks, 2000);
    });
}

#[test]
fn panicking_worker_aborts_the_batch_without_deadlock() {
    with_watchdog(|| {
        // Task 5 panics early in a long batch: the tasks not yet started are
        // skipped, and the panic reaches the caller instead of hanging it.
        let s = scheduler(2);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            s.run(5000, |i| {
                if i == 5 {
                    panic!("worker died mid-batch");
                }
                i
            })
        }));
        assert!(result.is_err(), "the worker panic must propagate");
    });
}

#[test]
fn every_worker_panicking_still_terminates() {
    with_watchdog(|| {
        let s = scheduler(8);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            s.run(1000, |i: usize| -> usize { panic!("task {i}") })
        }));
        assert!(result.is_err());
    });
}

#[test]
fn panics_interleaved_with_errors_neither_hang_nor_corrupt_results() {
    with_watchdog(|| {
        // First a poisoned batch, then a healthy one on the *same* scheduler:
        // a panicked batch must leave no residue (claim state is per-run).
        // Tasks return `Result`s, so errors travel as values next to the
        // panic.
        let s = scheduler(4);
        let poisoned = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            s.run(300, |i| {
                if i == 150 {
                    panic!("poison");
                }
                if i % 2 == 0 {
                    Err("even tasks error")
                } else {
                    Ok(i)
                }
            })
        }));
        assert!(poisoned.is_err());

        let healthy = s.run(300, |i| {
            if i % 2 == 0 {
                Err("even tasks error")
            } else {
                Ok(i)
            }
        });
        for (i, r) in healthy.iter().enumerate() {
            if i % 2 == 0 {
                assert_eq!(*r, Err("even tasks error"));
            } else {
                assert_eq!(*r, Ok(i));
            }
        }
    });
}

#[test]
fn concurrent_batches_on_one_scheduler_stay_isolated() {
    with_watchdog(|| {
        // The pipeline shares one scheduler across stages; concurrent run()
        // calls from different threads must not cross results.
        let s = Arc::new(scheduler(4));
        let mut handles = Vec::new();
        for batch in 0..4u64 {
            let s = Arc::clone(&s);
            handles.push(std::thread::spawn(move || {
                let out = s.run(500, move |i| batch * 10_000 + i as u64);
                (batch, out)
            }));
        }
        for h in handles {
            let (batch, out) = h.join().unwrap();
            for (i, v) in out.iter().enumerate() {
                assert_eq!(*v, batch * 10_000 + i as u64);
            }
        }
        assert_eq!(s.stats().tasks, 2000);
        assert_eq!(s.stats().batches, 4);
    });
}

#[test]
fn llm_fanout_panic_settles_every_job_before_unwinding() {
    with_watchdog(|| {
        // The jobs borrow the caller's stack, so the panic may reach the
        // caller only once no job can still run: each one finished or was
        // skipped.
        let s = Scheduler::with_workers(8);
        let n = 64;
        let started = AtomicUsize::new(0);
        let running = AtomicUsize::new(0);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            s.run_llm(n, |i| {
                started.fetch_add(1, Ordering::SeqCst);
                if i == 5 {
                    // `resume_unwind` skips the panic hook, whose backtrace
                    // printing could outlast every other job.
                    std::panic::resume_unwind(Box::new(format!("task {i} failed")));
                }
                running.fetch_add(1, Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(20));
                running.fetch_sub(1, Ordering::SeqCst);
                i
            })
        }));
        let payload = result.expect_err("the task panic must propagate");
        assert_eq!(
            payload.downcast_ref::<String>().map(String::as_str),
            Some("task 5 failed"),
            "the task's own panic is re-raised"
        );
        assert_eq!(running.load(Ordering::SeqCst), 0, "a job outlived the call");
        let skipped = s.stats().skipped;
        assert!(skipped > 0, "later jobs must be skipped, not run");
        assert_eq!(started.load(Ordering::SeqCst) as u64 + skipped, n as u64);

        // The request threads survive the panic: the next fan-out still
        // overlaps eight sleeping tasks.
        let t = Instant::now();
        let out = s.run_llm(8, |i| {
            std::thread::sleep(Duration::from_millis(40));
            i
        });
        assert_eq!(out, (0..8).collect::<Vec<_>>());
        assert!(
            t.elapsed() < Duration::from_millis(200),
            "request threads did not overlap: {:?}",
            t.elapsed()
        );
    });
}

#[test]
fn two_threads_fanning_out_through_the_pool_at_once_both_finish() {
    with_watchdog(|| {
        let s = Arc::new(scheduler(8));
        let handles: Vec<_> = (0..2u64)
            .map(|batch| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    s.run_llm(64, move |i| {
                        std::thread::sleep(Duration::from_millis(1));
                        batch * 10_000 + i as u64
                    })
                })
            })
            .collect();
        for (batch, h) in handles.into_iter().enumerate() {
            let out = h.join().unwrap();
            for (i, v) in out.iter().enumerate() {
                assert_eq!(*v, batch as u64 * 10_000 + i as u64);
            }
        }
        assert_eq!(s.stats().tasks, 128);
    });
}

/// A one-shot gate: [`Gate::wait`] blocks until [`Gate::open`] has run.
#[derive(Default)]
struct Gate {
    open: Mutex<bool>,
    opened: Condvar,
}

impl Gate {
    fn open(&self) {
        *self.open.lock().unwrap() = true;
        self.opened.notify_all();
    }

    fn wait(&self) {
        let mut open = self.open.lock().unwrap();
        while !*open {
            open = self.opened.wait(open).unwrap();
        }
    }
}

/// Opens its gate when dropped, which a panicking phase does as it unwinds.
struct OpenOnDrop<'a>(&'a Gate);

impl Drop for OpenOnDrop<'_> {
    fn drop(&mut self) {
        self.0.open();
    }
}

/// Counts the phases running now and keeps the peak; dropping it (also
/// while unwinding) leaves the phase.
struct Running<'a>(&'a AtomicUsize);

impl<'a> Running<'a> {
    fn enter(now: &'a AtomicUsize, peak: &AtomicUsize) -> Self {
        let running = now.fetch_add(1, Ordering::SeqCst) + 1;
        peak.fetch_max(running, Ordering::SeqCst);
        Running(now)
    }
}

impl Drop for Running<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

fn on_request_thread() -> bool {
    std::thread::current().name() == Some("zeroed-request")
}

#[test]
fn chain_keeps_cpu_phases_off_request_threads_at_both_widths() {
    with_watchdog(|| {
        let llm = SimLlm::default_model(0);
        let s = Scheduler::for_client(&RuntimeConfig::default(), &llm);
        let (cpu, width) = (s.workers(), s.llm_width());
        let n = 4 * cpu.max(width);
        // The first `cpu` firsts meet on one barrier, so the lane must run
        // that many at once; the first `width` middles meet on another, so
        // that many must be in flight at once.
        let lane_meet = Barrier::new(cpu);
        let middle_meet = Barrier::new(width);
        let (cpu_now, cpu_peak) = (AtomicUsize::new(0), AtomicUsize::new(0));
        let (middle_now, middle_peak) = (AtomicUsize::new(0), AtomicUsize::new(0));
        let middles_on_requests = AtomicUsize::new(0);
        let cpu_phase = |phase: &str, i: usize| {
            assert!(
                !on_request_thread(),
                "the {phase} of task {i} ran on a request thread"
            );
            Running::enter(&cpu_now, &cpu_peak)
        };
        let out = s.run_chain(
            n,
            |i| {
                let _running = cpu_phase("first", i);
                if i < cpu {
                    lane_meet.wait();
                }
                i
            },
            |i, a| {
                let _running = Running::enter(&middle_now, &middle_peak);
                if on_request_thread() {
                    middles_on_requests.fetch_add(1, Ordering::SeqCst);
                }
                if i < width {
                    middle_meet.wait();
                }
                a * 2
            },
            |i, b| {
                let _running = cpu_phase("last", i);
                b + 1
            },
        );
        assert_eq!(out, (0..n).map(|i| 2 * i + 1).collect::<Vec<_>>());
        assert_eq!(cpu_peak.load(Ordering::SeqCst), cpu, "CPU phases at once");
        assert_eq!(middle_peak.load(Ordering::SeqCst), width, "middles at once");
        assert!(
            middles_on_requests.load(Ordering::SeqCst) > 0,
            "middles run on the request pool"
        );
    });
}

#[test]
fn cpu_fanouts_stay_off_request_threads_and_llm_fanouts_use_them() {
    with_watchdog(|| {
        let llm = SimLlm::default_model(0);
        let s = Scheduler::for_client(&RuntimeConfig::default(), &llm);
        let (cpu, width) = (s.workers(), s.llm_width());
        let n = 4 * cpu.max(width);
        // The first tasks of each fan-out meet on a barrier as wide as the
        // fan-out, so each runs at its full width.
        let cpu_meet = Barrier::new(cpu);
        s.run(n, |i| {
            assert!(
                !on_request_thread(),
                "task {i} of `run` ran on a request thread"
            );
            if i < cpu {
                cpu_meet.wait();
            }
        });
        let llm_meet = Barrier::new(width);
        let on_requests = AtomicUsize::new(0);
        s.run_llm(n, |i| {
            if on_request_thread() {
                on_requests.fetch_add(1, Ordering::SeqCst);
            }
            if i < width {
                llm_meet.wait();
            }
        });
        // `width` tasks ran at once, and the caller held only one of them.
        assert!(
            on_requests.load(Ordering::SeqCst) >= width - 1,
            "tasks of `run_llm` run on the request pool"
        );
    });
}

#[test]
fn cpu_fanout_panic_settles_every_task_before_unwinding() {
    with_watchdog(|| {
        // `llm_fanout_panic_settles_every_job_before_unwinding` through
        // `run`. The first `width` tasks meet on a barrier, so each holds a
        // thread of its own; then task 0 panics, and the others finish only
        // after it has begun to unwind.
        let width = 8;
        let s = Scheduler::with_workers(width);
        let n = 5000;
        let meet = Barrier::new(width);
        let unwinding = Gate::default();
        let started = AtomicUsize::new(0);
        let (running, peak) = (AtomicUsize::new(0), AtomicUsize::new(0));
        let witnesses_done = AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            s.run(n, |i| {
                started.fetch_add(1, Ordering::SeqCst);
                let _running = Running::enter(&running, &peak);
                if i < width {
                    meet.wait();
                    if i == 0 {
                        let _open = OpenOnDrop(&unwinding);
                        // `resume_unwind` skips the panic hook, whose
                        // backtrace printing would slow the unwinding the
                        // witnesses wait for.
                        resume_unwind(Box::new(format!("task {i} failed")));
                    }
                    unwinding.wait();
                    witnesses_done.fetch_add(1, Ordering::SeqCst);
                }
                i
            })
        }));
        let payload = result.expect_err("the task panic must propagate");
        assert_eq!(
            payload.downcast_ref::<String>().map(String::as_str),
            Some("task 0 failed"),
            "the task's own panic is re-raised"
        );
        assert_eq!(
            running.load(Ordering::SeqCst),
            0,
            "a task outlived the call"
        );
        assert_eq!(
            witnesses_done.load(Ordering::SeqCst),
            width - 1,
            "the witnesses finished first"
        );
        assert_eq!(peak.load(Ordering::SeqCst), width, "tasks at once");
        assert_eq!(
            started.load(Ordering::SeqCst) as u64 + s.stats().skipped,
            n as u64
        );

        // The next fan-out on the same scheduler still runs `width` tasks at
        // once.
        let again = Barrier::new(width);
        let out = s.run(width, |i| {
            again.wait();
            i
        });
        assert_eq!(out, (0..width).collect::<Vec<_>>());
    });
}

/// Runs a two-task chain on two lanes at a width of two in which `phase`
/// (0 first, 1 middle, 2 last) of task 0 panics while a witness phase of
/// task 1 runs: the two meet on a barrier, and the witness finishes only
/// after the panic has begun to unwind. Checks that the panic reaches the
/// caller with its own payload once every started phase has finished, and
/// returns the phases skipped.
fn chain_panic_settles(phase: usize) -> u64 {
    let s = Scheduler::with_workers(2);
    let n = 2;
    // Task 1's phase beside task 0's panicking one: a middle (so no first
    // runs once a first has panicked), or the last of a task whose middle
    // returned.
    let witness = [1, 2, 1][phase];
    let meet = Barrier::new(2);
    let unwinding = Gate::default();
    let (running, peak) = (AtomicUsize::new(0), AtomicUsize::new(0));
    let started = AtomicUsize::new(0);
    let witness_done = AtomicBool::new(false);
    let step = |p: usize, i: usize| {
        started.fetch_add(1, Ordering::SeqCst);
        let _running = Running::enter(&running, &peak);
        if i == 0 && p == phase {
            meet.wait();
            let _open = OpenOnDrop(&unwinding);
            // `resume_unwind` skips the panic hook, whose backtrace printing
            // would slow the unwinding the witness waits for.
            resume_unwind(Box::new(format!("phase {p} of task 0 failed")));
        }
        if i == 1 && p == witness {
            meet.wait();
            unwinding.wait();
            witness_done.store(true, Ordering::SeqCst);
        }
    };
    let result = catch_unwind(AssertUnwindSafe(|| {
        s.run_chain(n, |i| step(0, i), |i, ()| step(1, i), |i, ()| step(2, i))
    }));
    let payload = result.expect_err("the phase panic must propagate");
    assert_eq!(
        payload.downcast_ref::<String>().map(String::as_str),
        Some(format!("phase {phase} of task 0 failed").as_str()),
        "the phase's own panic is re-raised"
    );
    assert_eq!(
        running.load(Ordering::SeqCst),
        0,
        "a phase outlived the call"
    );
    assert!(
        witness_done.load(Ordering::SeqCst),
        "the witness finished first"
    );
    let skipped = s.stats().skipped;
    assert_eq!(
        started.load(Ordering::SeqCst) as u64 + skipped,
        3 * n as u64
    );
    skipped
}

#[test]
fn chain_panic_in_a_first_wakes_its_middle_and_settles() {
    // Task 0's middle waits on a first that never hands off, and no other
    // first hands off after the panic, so only the panic can wake it. Task
    // 0's middle and last never start.
    with_watchdog(|| assert!(chain_panic_settles(0) >= 2));
}

#[test]
fn chain_panic_in_a_middle_settles_every_phase() {
    // Task 0's last is never queued.
    with_watchdog(|| assert!(chain_panic_settles(1) >= 1));
}

#[test]
fn chain_panic_in_a_last_settles_every_phase() {
    with_watchdog(|| {
        chain_panic_settles(2);
    });
}
