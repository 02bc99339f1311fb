//! [`Budget`]: the counting semaphore that bounds how many requests one
//! serving backend handles at once.
//!
//! The simulator gates every call on one ([`crate::SimLlm`]'s serving
//! capacity), and the multi-backend router in `zeroed-runtime` gates each
//! backend on another (its per-backend concurrency budget).

use std::sync::{Condvar, Mutex};

/// A counting semaphore over in-flight requests; capacity `0` never blocks.
#[derive(Debug)]
pub struct Budget {
    capacity: usize,
    in_flight: Mutex<usize>,
    freed: Condvar,
}

impl Budget {
    /// A budget admitting `capacity` requests at once (`0` = unlimited).
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            in_flight: Mutex::new(0),
            freed: Condvar::new(),
        }
    }

    /// The configured limit, `None` when unlimited.
    pub fn capacity(&self) -> Option<usize> {
        (self.capacity > 0).then_some(self.capacity)
    }

    /// Blocks until a slot frees up; the permit releases on drop, so a
    /// panicking call cannot leak the slot and starve later requests.
    pub fn acquire(&self) -> BudgetPermit<'_> {
        let mut n = self.in_flight.lock().unwrap_or_else(|e| e.into_inner());
        let mut waited = false;
        while self.capacity > 0 && *n >= self.capacity {
            waited = true;
            n = self.freed.wait(n).unwrap_or_else(|e| e.into_inner());
        }
        *n += 1;
        BudgetPermit {
            budget: self,
            in_flight: *n,
            waited,
        }
    }

    fn release(&self) {
        let mut n = self.in_flight.lock().unwrap_or_else(|e| e.into_inner());
        *n = n.saturating_sub(1);
        drop(n);
        self.freed.notify_one();
    }
}

/// RAII permit for one in-flight request.
#[derive(Debug)]
pub struct BudgetPermit<'a> {
    budget: &'a Budget,
    in_flight: usize,
    waited: bool,
}

impl BudgetPermit<'_> {
    /// Requests in flight right after this one was admitted, itself included.
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// Whether admission had to wait for a slot.
    pub fn waited(&self) -> bool {
        self.waited
    }
}

impl Drop for BudgetPermit<'_> {
    fn drop(&mut self) {
        self.budget.release();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::time::Duration;

    #[test]
    fn budget_bounds_inflight_requests() {
        let budget = Budget::new(2);
        let active = AtomicU64::new(0);
        let peak = AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    let permit = budget.acquire();
                    assert!(permit.in_flight() <= 2);
                    let n = active.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(n, Ordering::SeqCst);
                    std::thread::sleep(Duration::from_millis(5));
                    active.fetch_sub(1, Ordering::SeqCst);
                });
            }
        });
        assert!(
            peak.load(Ordering::SeqCst) <= 2,
            "budget must cap concurrency"
        );
    }

    #[test]
    fn budget_permit_survives_a_panicking_call() {
        // A panic while holding the only permit must release it on unwind,
        // otherwise the next request on this backend deadlocks forever.
        let budget = Budget::new(1);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _permit = budget.acquire();
            panic!("backend call died");
        }));
        assert!(result.is_err());
        // Still acquirable — a leak would hang here (test would time out).
        let permit = budget.acquire();
        assert_eq!(permit.in_flight(), 1);
        assert!(!permit.waited());
    }
}
