//! Scheduler stress tests: bounded-queue saturation with hostile workloads.
//!
//! The pipeline trusts [`zeroed_runtime::Scheduler`] with two guarantees that
//! only matter under pressure: results come back in task order no matter how
//! workers interleave, and nothing — not a saturated queue, not an erroring
//! task, not a panicking worker — can deadlock a batch. Each test here runs
//! under a watchdog so a regression surfaces as a clean failure instead of a
//! hung CI job.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};
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

fn scheduler(workers: usize, queue_capacity: usize, max_retries: usize) -> Scheduler {
    Scheduler::from_config(&RuntimeConfig {
        workers,
        queue_capacity,
        max_retries,
        ..RuntimeConfig::default()
    })
}

#[test]
fn saturated_tiny_queue_preserves_task_order() {
    with_watchdog(|| {
        // 2000 tasks through a 1-slot queue on 8 workers: the producer blocks
        // on nearly every push, workers contend on nearly every pop.
        let s = scheduler(8, 1, 0);
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
fn erroring_tasks_respect_the_retry_cap_exactly() {
    with_watchdog(|| {
        let max_retries = 3;
        let s = scheduler(4, 2, max_retries);
        let n = 200usize;
        let attempts: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        let attempts = Arc::new(attempts);
        let a = Arc::clone(&attempts);
        // Tasks divisible by 3 always fail; tasks divisible by 5 (not 3)
        // succeed on their final attempt; the rest succeed immediately.
        let out = s.run_fallible(n, move |i| {
            let attempt = a[i].fetch_add(1, Ordering::SeqCst);
            if i % 3 == 0 {
                Err(format!("task {i} permanently broken"))
            } else if i % 5 == 0 && attempt < max_retries {
                Err(format!("task {i} flaky"))
            } else {
                Ok(i)
            }
        });
        let mut expected_retries = 0u64;
        for i in 0..n {
            let tries = attempts[i].load(Ordering::SeqCst);
            if i % 3 == 0 {
                assert_eq!(out[i], Err(format!("task {i} permanently broken")));
                assert_eq!(tries, 1 + max_retries, "task {i} must exhaust its budget");
            } else if i % 5 == 0 {
                assert_eq!(out[i], Ok(i), "flaky task {i} must succeed eventually");
                assert_eq!(tries, 1 + max_retries, "task {i} succeeds on the last try");
            } else {
                assert_eq!(out[i], Ok(i));
                assert_eq!(tries, 1, "healthy task {i} must not be retried");
            }
            expected_retries += (tries - 1) as u64;
        }
        assert_eq!(s.stats().retries, expected_retries, "retry accounting");
    });
}

#[test]
fn panicking_worker_aborts_the_batch_without_deadlock() {
    with_watchdog(|| {
        // Workers die on task 5 while the producer is wedged against a full
        // 1-slot queue; the panic guard must close the queue so the producer
        // bails and the scope join rethrows instead of hanging.
        let s = scheduler(2, 1, 0);
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
        let s = scheduler(8, 1, 0);
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
        // a panicked batch must leave no residue (closed queues are per-run).
        let s = scheduler(4, 2, 1);
        let poisoned = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            s.run_fallible(300, |i| {
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

        let healthy = s.run_fallible(300, |i| {
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
        let s = Arc::new(scheduler(4, 4, 0));
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
        let s = Arc::new(scheduler(8, 4, 0));
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
