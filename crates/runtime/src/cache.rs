//! The response cache: completed- and in-flight-request deduplication.
//!
//! Maps [`RequestKey`]s to stored responses. Lookups follow the single-flight
//! discipline: the first thread to miss claims the key and computes; any
//! thread that asks for the same key while that computation is in flight
//! parks on a condition variable and receives the published response without
//! a second model call. Each lookup tells its caller how it was satisfied
//! ([`Lookup`]); the caller keeps the counts ([`crate::CachedLlm::stats`]),
//! so one run's activity is its own even when several runs share the cache.
//!
//! The cache never evicts. It lives as long as its detector and the
//! detector's clones, and holds one entry per distinct request they have
//! made or preloaded: a run's few hundred responses, not a working set that
//! needs a bound. An entry leaves the map only when the caller computing it
//! panics, which hands the flight to the next caller.

use crate::key::RequestKey;
use std::collections::HashMap;
#[cfg(test)]
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Instant;
use zeroed_llm::Response;
use zeroed_obs::{Histogram, HistogramSnapshot};

/// Where a published response came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResponseOrigin {
    /// Computed by the wrapped client in this process.
    Computed,
    /// Preloaded from the persisted response store (a cross-process warm
    /// start); hits on such entries count as [`crate::CacheStats::store_hits`].
    Persisted,
}

/// A published response plus the token cost its original call charged.
#[derive(Debug)]
pub struct StoredResponse {
    /// The response value, stored by value so a hit replays the exact
    /// object the wrapped client returned (and the store persists it as is).
    pub value: Response,
    /// Prompt tokens the original call consumed.
    pub input_tokens: usize,
    /// Completion tokens the original call produced.
    pub output_tokens: usize,
    /// Provenance (computed here vs preloaded from the store).
    pub origin: ResponseOrigin,
}

enum Slot {
    /// A worker is computing this response right now.
    InFlight,
    /// The response has been published.
    Ready(Arc<StoredResponse>),
}

/// How a [`ResponseCache::get_or_compute`] call was satisfied. Returned to
/// the caller so per-consumer accounting (e.g. one pipeline run's
/// `PipelineStats`) can attribute activity precisely even when several
/// consumers share one cache concurrently.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lookup {
    /// The caller executed the computation.
    Miss,
    /// Served from a published entry; `coalesced` is true when the caller
    /// parked behind an in-flight computation.
    Hit {
        /// Whether the caller waited on another caller's in-flight request.
        coalesced: bool,
    },
}

/// Contention distributions for one cache's lifetime, from
/// [`ResponseCache::timings`]. Quantiles are exact nearest-rank over each
/// histogram's sample window.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheTimings {
    /// Total time each [`ResponseCache::get_or_compute`] call held the map
    /// mutex (summed across that call's critical sections: lookup, claim,
    /// publish — parked time excluded). One sample per call.
    pub lock_hold: HistogramSnapshot,
    /// Time callers spent parked on the publish condvar waiting for an
    /// in-flight computation. One sample per caller that parked at least
    /// once; non-parking calls record nothing here.
    pub park_wait: HistogramSnapshot,
    /// Duration of each [`ResponseCache::preload`] call (the warm-start
    /// insertion path; essentially its lock-hold time).
    pub preload: HistogramSnapshot,
}

#[derive(Default)]
struct Timings {
    lock_hold: Histogram,
    park_wait: Histogram,
    preload: Histogram,
}

/// Thread-safe single-flight response cache. It has no bound and never
/// evicts: it holds one entry per distinct request for as long as it lives.
/// A detector shares it with its clones behind an [`Arc`].
#[derive(Default)]
pub struct ResponseCache {
    map: Mutex<HashMap<RequestKey, Slot>>,
    published: Condvar,
    timings: Timings,
    /// Callers parked on `published` right now (tests only).
    #[cfg(test)]
    parked: AtomicUsize,
}

impl std::fmt::Debug for ResponseCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResponseCache")
            .field("entries", &self.len())
            .finish()
    }
}

impl ResponseCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> MutexGuard<'_, HashMap<RequestKey, Slot>> {
        self.map.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Number of entries currently stored (including in-flight slots).
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Contention distributions: per-call map-lock hold time, condvar park
    /// time of coalesced waiters, and preload-call durations.
    pub fn timings(&self) -> CacheTimings {
        CacheTimings {
            lock_hold: self.timings.lock_hold.snapshot(),
            park_wait: self.timings.park_wait.snapshot(),
            preload: self.timings.preload.snapshot(),
        }
    }

    /// Inserts a completed response for `key` without counting a miss or a
    /// hit — the warm-start preload path from a persisted store. Returns
    /// `false` (and drops `response`) when the key is already present,
    /// published or in flight. Every other record is kept: the cache has no
    /// bound, so a warm start holds the whole store.
    pub fn preload(&self, key: RequestKey, response: StoredResponse) -> bool {
        use std::collections::hash_map::Entry;
        let t = Instant::now();
        let loaded = match self.lock().entry(key) {
            Entry::Occupied(_) => false,
            Entry::Vacant(slot) => {
                slot.insert(Slot::Ready(Arc::new(response)));
                true
            }
        };
        self.timings.preload.record(t.elapsed());
        loaded
    }

    /// Returns the response for `key` (and how it was obtained), computing it
    /// with `compute` on a miss.
    ///
    /// Exactly one caller executes `compute` per key (single flight);
    /// concurrent callers with the same key block until the response is
    /// published. If `compute` panics, its in-flight entry is removed, the
    /// parked callers wake and the panic propagates: the first of them to
    /// find no entry claims the flight and the rest coalesce behind it.
    pub fn get_or_compute(
        &self,
        key: RequestKey,
        compute: impl FnOnce() -> StoredResponse,
    ) -> (Arc<StoredResponse>, Lookup) {
        let mut map = self.lock();
        // Observability: `held_nanos` accumulates this call's time under the
        // map mutex (parked intervals excluded); `park_start` marks the first
        // park, so total coalesced wait records as one sample on exit.
        let mut hold_start = Instant::now();
        let mut held_nanos: u64 = 0;
        let mut park_start: Option<Instant> = None;
        loop {
            match map.get(&key) {
                Some(Slot::Ready(stored)) => {
                    let stored = Arc::clone(stored);
                    held_nanos += hold_start.elapsed().as_nanos() as u64;
                    drop(map);
                    self.timings.lock_hold.record_nanos(held_nanos);
                    if let Some(t) = park_start {
                        self.timings.park_wait.record(t.elapsed());
                    }
                    let coalesced = park_start.is_some();
                    return (stored, Lookup::Hit { coalesced });
                }
                Some(Slot::InFlight) => {
                    park_start.get_or_insert_with(Instant::now);
                    held_nanos += hold_start.elapsed().as_nanos() as u64;
                    #[cfg(test)]
                    self.parked.fetch_add(1, Ordering::SeqCst);
                    map = self.published.wait(map).unwrap_or_else(|e| e.into_inner());
                    #[cfg(test)]
                    self.parked.fetch_sub(1, Ordering::SeqCst);
                    hold_start = Instant::now();
                }
                None => {
                    map.insert(key, Slot::InFlight);
                    break;
                }
            }
        }
        held_nanos += hold_start.elapsed().as_nanos() as u64;
        drop(map);
        if let Some(t) = park_start {
            // Parked behind a computation whose caller panicked; this
            // caller's wait ends here (it computes itself below).
            self.timings.park_wait.record(t.elapsed());
        }

        // Remove the in-flight entry if `compute` unwinds, so parked callers
        // wake up and one of them claims the flight instead of deadlocking.
        struct FlightGuard<'a> {
            cache: &'a ResponseCache,
            key: RequestKey,
        }
        impl Drop for FlightGuard<'_> {
            fn drop(&mut self) {
                self.cache.lock().remove(&self.key);
                self.cache.published.notify_all();
            }
        }
        let guard = FlightGuard { cache: self, key };
        let stored = Arc::new(compute());
        std::mem::forget(guard);

        let mut map = self.lock();
        let hold_start = Instant::now();
        map.insert(key, Slot::Ready(Arc::clone(&stored)));
        held_nanos += hold_start.elapsed().as_nanos() as u64;
        drop(map);
        self.timings.lock_hold.record_nanos(held_nanos);
        self.published.notify_all();
        (stored, Lookup::Miss)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::{RequestKey, RequestKind};

    fn test_key(n: u64) -> RequestKey {
        let mut b = RequestKey::builder(RequestKind::LabelBatch, "m");
        b.word(n);
        b.finish()
    }

    fn response(flag: bool) -> StoredResponse {
        StoredResponse {
            value: Response::Flags(vec![flag]),
            input_tokens: 10,
            output_tokens: 3,
            origin: ResponseOrigin::Computed,
        }
    }

    #[test]
    fn hit_replays_the_stored_value_and_counts_savings() {
        let cache = ResponseCache::new();
        let calls = AtomicUsize::new(0);
        let mut saved = 0;
        for round in 0..3 {
            let (stored, lookup) = cache.get_or_compute(test_key(1), || {
                calls.fetch_add(1, Ordering::SeqCst);
                response(true)
            });
            if round == 0 {
                assert_eq!(lookup, Lookup::Miss);
            } else {
                assert_eq!(lookup, Lookup::Hit { coalesced: false });
                // A hit replays the cost the caller books as savings.
                saved += stored.input_tokens + stored.output_tokens;
            }
            match &stored.value {
                Response::Flags(f) => assert_eq!(f, &vec![true]),
                other => panic!("wrong variant: {other:?}"),
            }
        }
        assert_eq!(calls.load(Ordering::SeqCst), 1);
        assert_eq!(saved, 26);
    }

    #[test]
    fn single_flight_under_contention_computes_once() {
        let cache = ResponseCache::new();
        let calls = AtomicUsize::new(0);
        let n_threads = 8;
        let lookups: Vec<Lookup> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..n_threads)
                .map(|_| {
                    s.spawn(|| {
                        let (stored, lookup) = cache.get_or_compute(test_key(2), || {
                            calls.fetch_add(1, Ordering::SeqCst);
                            // Hold the flight open long enough for others to park.
                            std::thread::sleep(std::time::Duration::from_millis(20));
                            response(false)
                        });
                        assert!(matches!(stored.value, Response::Flags(_)));
                        lookup
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(calls.load(Ordering::SeqCst), 1, "compute must run once");
        let misses = lookups.iter().filter(|l| **l == Lookup::Miss).count();
        assert_eq!(misses, 1);
        assert!(
            lookups.contains(&Lookup::Hit { coalesced: true }),
            "some callers must have parked"
        );
    }

    #[test]
    fn panic_in_compute_releases_the_flight() {
        let cache = ResponseCache::new();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cache.get_or_compute(test_key(5), || panic!("boom"));
        }));
        assert!(result.is_err());
        // The key is free again: a later caller computes normally.
        let (stored, lookup) = cache.get_or_compute(test_key(5), || response(true));
        assert!(matches!(stored.value, Response::Flags(_)));
        assert_eq!(lookup, Lookup::Miss);
    }

    #[test]
    fn panicking_computer_hands_the_flight_to_a_parked_waiter() {
        use std::sync::mpsc;
        let cache = ResponseCache::new();
        let calls = AtomicUsize::new(0);
        let (started_tx, started_rx) = mpsc::channel();
        let (go_tx, go_rx) = mpsc::channel::<()>();
        let cache_ref = &cache;
        let calls_ref = &calls;
        std::thread::scope(|s| {
            // T1 claims the flight, then panics on signal.
            let t1 = s.spawn(move || {
                cache_ref.get_or_compute(test_key(11), || {
                    started_tx.send(()).unwrap();
                    go_rx.recv().unwrap();
                    panic!("computer died");
                })
            });
            started_rx.recv().unwrap();
            // T2 parks behind the in-flight computation.
            let t2 = s.spawn(move || {
                cache_ref.get_or_compute(test_key(11), || {
                    calls_ref.fetch_add(1, Ordering::SeqCst);
                    response(true)
                })
            });
            while cache.parked.load(Ordering::SeqCst) == 0 {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            go_tx.send(()).unwrap();
            assert!(t1.join().is_err(), "T1's panic must propagate");
            let (stored, lookup) = t2.join().unwrap();
            assert_eq!(
                lookup,
                Lookup::Miss,
                "the waiter claims the released flight"
            );
            assert!(matches!(stored.value, Response::Flags(_)));
        });
        assert_eq!(calls.load(Ordering::SeqCst), 1);
        // Nobody is left parked, and the cache is reusable: T2's response
        // serves the key, and a new key computes.
        assert_eq!(cache.parked.load(Ordering::SeqCst), 0);
        assert_eq!(cache.len(), 1);
        let (_, lookup) = cache.get_or_compute(test_key(11), || response(false));
        assert_eq!(lookup, Lookup::Hit { coalesced: false });
        let (_, lookup) = cache.get_or_compute(test_key(12), || response(false));
        assert_eq!(lookup, Lookup::Miss);
    }

    #[test]
    fn preloaded_entries_hit_without_a_miss_and_count_store_hits() {
        let cache = ResponseCache::new();
        let preloaded = StoredResponse {
            value: Response::Flags(vec![true, true]),
            input_tokens: 40,
            output_tokens: 4,
            origin: ResponseOrigin::Persisted,
        };
        assert!(cache.preload(test_key(1), preloaded));
        // Re-preloading the same key is refused.
        assert!(!cache.preload(test_key(1), response(false)));

        let calls = AtomicUsize::new(0);
        let (stored, lookup) = cache.get_or_compute(test_key(1), || {
            calls.fetch_add(1, Ordering::SeqCst);
            response(false)
        });
        assert_eq!(
            calls.load(Ordering::SeqCst),
            0,
            "preload must satisfy the request"
        );
        assert_eq!(lookup, Lookup::Hit { coalesced: false });
        match &stored.value {
            Response::Flags(f) => assert_eq!(f, &vec![true, true]),
            other => panic!("wrong variant: {other:?}"),
        }
        // The caller counts a hit on a persisted entry as a store hit, and
        // the savings it books are the persisted token counts, exactly.
        assert_eq!(stored.origin, ResponseOrigin::Persisted);
        assert_eq!((stored.input_tokens, stored.output_tokens), (40, 4));
    }

    #[test]
    fn preload_accepts_every_distinct_record() {
        let cache = ResponseCache::new();
        let persisted = |i: u64| StoredResponse {
            value: Response::Flags(vec![i.is_multiple_of(2)]),
            input_tokens: 10,
            output_tokens: 3,
            origin: ResponseOrigin::Persisted,
        };
        for i in 0..1_000 {
            assert!(cache.preload(test_key(i), persisted(i)), "record {i}");
        }
        assert_eq!(cache.len(), 1_000);
        for i in 0..1_000 {
            let (stored, lookup) =
                cache.get_or_compute(test_key(i), || panic!("record {i} must not compute"));
            assert_eq!(lookup, Lookup::Hit { coalesced: false });
            assert_eq!(stored.origin, ResponseOrigin::Persisted);
            match &stored.value {
                Response::Flags(f) => assert_eq!(f, &vec![i.is_multiple_of(2)]),
                other => panic!("wrong variant: {other:?}"),
            }
        }
    }

    #[test]
    fn timings_record_holds_parks_and_preloads() {
        let cache = ResponseCache::new();
        let _ = cache.get_or_compute(test_key(1), || response(true));
        let _ = cache.get_or_compute(test_key(1), || response(true));
        assert!(cache.preload(test_key(2), response(false)));
        let t = cache.timings();
        assert_eq!(t.lock_hold.count, 2, "one hold sample per call");
        assert_eq!(t.preload.count, 1);
        assert_eq!(t.park_wait.count, 0, "nobody parked");

        // A coalesced waiter records a park at least as long as the flight.
        let cache = &cache;
        std::thread::scope(|s| {
            let (started_tx, started_rx) = std::sync::mpsc::channel();
            s.spawn(move || {
                let _ = cache.get_or_compute(test_key(3), || {
                    started_tx.send(()).unwrap();
                    std::thread::sleep(std::time::Duration::from_millis(20));
                    response(true)
                });
            });
            started_rx.recv().unwrap();
            let _ = cache.get_or_compute(test_key(3), || response(false));
        });
        let t = cache.timings();
        assert_eq!(t.park_wait.count, 1);
        assert!(t.park_wait.max_nanos >= 1_000_000);
    }
}
