//! The response cache: completed- and in-flight-request deduplication.
//!
//! Maps [`RequestKey`]s to stored responses. Lookups follow the single-flight
//! discipline: the first thread to miss claims the key and computes; any
//! thread that asks for the same key while that computation is in flight
//! parks on a condition variable and receives the published response without
//! a second model call. Each lookup tells its caller how it was satisfied
//! ([`Lookup`]) and journals one event; the caller keeps the counts
//! ([`crate::CachedLlm::stats`]), so one run's activity is its own even when
//! several runs share the cache.

use crate::key::RequestKey;
use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;
use zeroed_obs::{emit_current, EventKind, Histogram, HistogramSnapshot};

/// A structured LLM response, stored by value so a hit replays the exact
/// object the wrapped client originally returned.
///
/// This is `zeroed-store`'s [`zeroed_store::ResponseValue`] re-exported: the
/// on-disk codec and the in-memory cache share one value type, so persisting
/// and warm-start preloading involve no conversion at all.
pub use zeroed_store::ResponseValue as CachedResponse;

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
    /// The response value.
    pub value: CachedResponse,
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
    /// The computing worker unwound while callers were still parked. The
    /// entry must survive (the parked callers' pins reference it); the first
    /// waiter to wake claims the flight and recomputes, the rest stay
    /// coalesced behind the new computation.
    Vacated,
}

/// One cache entry: its slot plus the number of callers currently parked on
/// (or waking up for) it. The waiter count *pins* the entry across
/// generational flushes: a response published while callers are still parked
/// must survive until every one of them has consumed it, otherwise a flush
/// racing the wake-up would evict the entry and force the waiters to
/// recompute — a duplicated model call the single-flight contract forbids.
struct Entry {
    slot: Slot,
    waiters: usize,
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

struct Timings {
    lock_hold: Histogram,
    park_wait: Histogram,
    preload: Histogram,
}

impl Default for Timings {
    fn default() -> Self {
        Self {
            lock_hold: Histogram::new(),
            park_wait: Histogram::new(),
            preload: Histogram::new(),
        }
    }
}

/// Thread-safe single-flight response cache.
///
/// Cloneable handles share one store ([`Arc`] inside), mirroring
/// [`zeroed_llm::TokenLedger`]'s sharing model.
pub struct ResponseCache {
    map: Mutex<HashMap<RequestKey, Entry>>,
    published: Condvar,
    timings: Timings,
    /// Entry budget; exceeding it flushes completed entries (generational
    /// eviction — in-flight slots survive so waiters are never orphaned).
    capacity: usize,
}

impl std::fmt::Debug for ResponseCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResponseCache")
            .field("entries", &self.len())
            .field("capacity", &self.capacity)
            .finish()
    }
}

impl ResponseCache {
    /// Creates a cache holding at most `capacity` completed entries.
    pub fn new(capacity: usize) -> Self {
        Self {
            map: Mutex::new(HashMap::new()),
            published: Condvar::new(),
            timings: Timings::default(),
            capacity: capacity.max(1),
        }
    }

    /// Number of entries currently stored (including in-flight slots).
    pub fn len(&self) -> usize {
        self.map.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of callers currently pinning `key` (tests only).
    #[cfg(test)]
    fn waiter_count(&self, key: &RequestKey) -> usize {
        self.map
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(key)
            .map(|entry| entry.waiters)
            .unwrap_or(0)
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

    /// Evicts completed entries, retaining in-flight computations and any
    /// entry with parked waiters (either would orphan callers otherwise).
    /// Returns how many entries were evicted.
    fn flush_locked(map: &mut HashMap<RequestKey, Entry>) -> usize {
        let before = map.len();
        map.retain(|_, entry| matches!(entry.slot, Slot::InFlight) || entry.waiters > 0);
        before - map.len()
    }

    /// Drops every completed entry (an explicit generational flush) and
    /// returns how many entries were evicted. Entries that are still in
    /// flight, or whose response has parked waiters that have not consumed it
    /// yet, survive — flushing can never orphan a caller or force a duplicate
    /// computation.
    pub fn flush(&self) -> usize {
        Self::flush_locked(&mut self.map.lock().unwrap_or_else(|e| e.into_inner()))
    }

    /// Inserts a completed response for `key` without counting a miss or a
    /// hit — the warm-start preload path from a persisted store. Returns
    /// `false` (and drops `response`) when the key is already present
    /// (published or in flight) or the preload budget is exhausted.
    ///
    /// The budget is the capacity minus a 1/8 headroom (for capacities ≥ 8):
    /// filling the map *exactly* to capacity would make the very next novel
    /// request trigger a generational flush that evicts every preloaded
    /// entry — a warm start silently discarded. The headroom lets a run
    /// absorb novel requests while keeping the preloaded generation alive.
    pub fn preload(&self, key: RequestKey, response: StoredResponse) -> bool {
        use std::collections::hash_map::Entry as MapEntry;
        let t = Instant::now();
        let budget = self.capacity - self.capacity / 8;
        let mut map = self.map.lock().unwrap_or_else(|e| e.into_inner());
        let loaded = if map.len() >= budget {
            false
        } else {
            match map.entry(key) {
                MapEntry::Occupied(_) => false,
                MapEntry::Vacant(slot) => {
                    slot.insert(Entry {
                        slot: Slot::Ready(Arc::new(response)),
                        waiters: 0,
                    });
                    true
                }
            }
        };
        drop(map);
        self.timings.preload.record(t.elapsed());
        loaded
    }

    /// Returns the response for `key` (and how it was obtained), computing it
    /// with `compute` on a miss.
    ///
    /// Exactly one caller executes `compute` per key (single flight);
    /// concurrent callers with the same key block until the response is
    /// published. If `compute` panics, the in-flight slot is released and the
    /// panic propagates (waiters retry the computation themselves).
    pub fn get_or_compute(
        &self,
        key: RequestKey,
        compute: impl FnOnce() -> StoredResponse,
    ) -> (Arc<StoredResponse>, Lookup) {
        let mut map = self.map.lock().unwrap_or_else(|e| e.into_inner());
        // Observability: `held_nanos` accumulates this call's time under the
        // map mutex (parked intervals excluded); `park_start` marks the first
        // park so total coalesced wait records as one sample on exit.
        let mut hold_start = Instant::now();
        let mut held_nanos: u64 = 0;
        let mut park_start: Option<Instant> = None;
        // `waited` marks a coalesced hit; `pinned` tracks whether this
        // caller currently holds a waiter pin on the entry. They are distinct:
        // a waiter that claims a vacated flight has waited but no longer pins.
        let mut waited = false;
        let mut pinned = false;
        loop {
            match map.get_mut(&key) {
                Some(entry) => match &entry.slot {
                    Slot::Ready(stored) => {
                        let stored = Arc::clone(stored);
                        if pinned {
                            // Release the pin taken before parking.
                            entry.waiters -= 1;
                        }
                        held_nanos += hold_start.elapsed().as_nanos() as u64;
                        drop(map);
                        self.timings.lock_hold.record_nanos(held_nanos);
                        if let Some(t) = park_start {
                            let parked = t.elapsed();
                            self.timings.park_wait.record(parked);
                            emit_current(
                                EventKind::CacheParkWait,
                                parked.as_nanos().min(u64::MAX as u128) as u64,
                            );
                        }
                        emit_current(EventKind::CacheHit, 0);
                        if waited {
                            emit_current(EventKind::CacheCoalesced, 0);
                        }
                        return (stored, Lookup::Hit { coalesced: waited });
                    }
                    Slot::InFlight => {
                        if !pinned {
                            // Pin the entry so a generational flush racing
                            // the publish cannot evict the response before
                            // this caller wakes up and reads it.
                            entry.waiters += 1;
                            pinned = true;
                        }
                        waited = true;
                        park_start.get_or_insert_with(Instant::now);
                        held_nanos += hold_start.elapsed().as_nanos() as u64;
                        map = self
                            .published
                            .wait(map)
                            .unwrap_or_else(|e| e.into_inner());
                        hold_start = Instant::now();
                    }
                    Slot::Vacated => {
                        // The previous computer panicked. Claim the flight in
                        // place (releasing our pin — the computer does not pin
                        // itself); other parked waiters keep theirs and stay
                        // coalesced behind us.
                        if pinned {
                            entry.waiters -= 1;
                        }
                        entry.slot = Slot::InFlight;
                        break;
                    }
                },
                None => {
                    // A pinned waiter's entry is never removed (a panicking
                    // computer vacates it instead), so reaching here means
                    // this caller holds no pin: claim a fresh flight.
                    debug_assert!(!pinned);
                    if map.len() >= self.capacity {
                        // Generational flush: drop completed entries, keep
                        // in-flight slots and pinned responses alive for
                        // their waiters.
                        Self::flush_locked(&mut map);
                    }
                    map.insert(
                        key,
                        Entry {
                            slot: Slot::InFlight,
                            waiters: 0,
                        },
                    );
                    break;
                }
            }
        }
        held_nanos += hold_start.elapsed().as_nanos() as u64;
        drop(map);
        if let Some(t) = park_start {
            // Parked behind a computation that was vacated by a panic; this
            // caller's wait ends here (it recomputes itself below).
            let parked = t.elapsed();
            self.timings.park_wait.record(parked);
            emit_current(
                EventKind::CacheParkWait,
                parked.as_nanos().min(u64::MAX as u128) as u64,
            );
        }
        emit_current(EventKind::CacheMiss, 0);

        // Release the in-flight claim if `compute` unwinds, so parked waiters
        // wake up and recompute instead of deadlocking.
        struct FlightGuard<'a> {
            cache: &'a ResponseCache,
            key: RequestKey,
            armed: bool,
        }
        impl Drop for FlightGuard<'_> {
            fn drop(&mut self) {
                if self.armed {
                    let mut map = self.cache.map.lock().unwrap_or_else(|e| e.into_inner());
                    match map.get_mut(&self.key) {
                        // Parked waiters pin the entry; removing it would
                        // orphan their pins (a later decrement would
                        // underflow a fresh entry's count). Vacate in place:
                        // the first waiter to wake claims the flight.
                        Some(entry) if entry.waiters > 0 => entry.slot = Slot::Vacated,
                        Some(_) => {
                            map.remove(&self.key);
                        }
                        None => {}
                    }
                    drop(map);
                    self.cache.published.notify_all();
                }
            }
        }
        let mut guard = FlightGuard {
            cache: self,
            key,
            armed: true,
        };

        let stored = Arc::new(compute());
        guard.armed = false;

        let mut map = self.map.lock().unwrap_or_else(|e| e.into_inner());
        let hold_start = Instant::now();
        // Publish in place: the entry's waiter pin count must survive, so the
        // response stays flush-proof until every parked caller has read it.
        match map.get_mut(&key) {
            Some(entry) => entry.slot = Slot::Ready(Arc::clone(&stored)),
            None => {
                map.insert(
                    key,
                    Entry {
                        slot: Slot::Ready(Arc::clone(&stored)),
                        waiters: 0,
                    },
                );
            }
        }
        held_nanos += hold_start.elapsed().as_nanos() as u64;
        drop(map);
        self.timings.lock_hold.record_nanos(held_nanos);
        self.published.notify_all();
        emit_current(EventKind::CachePublish, 0);
        (stored, Lookup::Miss)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::{RequestKey, RequestKind};
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn test_key(n: u64) -> RequestKey {
        let mut b = RequestKey::builder(RequestKind::LabelBatch, "m");
        b.word(n);
        b.finish()
    }

    fn response(flag: bool) -> StoredResponse {
        StoredResponse {
            value: CachedResponse::Flags(vec![flag]),
            input_tokens: 10,
            output_tokens: 3,
            origin: ResponseOrigin::Computed,
        }
    }

    #[test]
    fn hit_replays_the_stored_value_and_counts_savings() {
        let cache = ResponseCache::new(16);
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
                CachedResponse::Flags(f) => assert_eq!(f, &vec![true]),
                other => panic!("wrong variant: {other:?}"),
            }
        }
        assert_eq!(calls.load(Ordering::SeqCst), 1);
        assert_eq!(saved, 26);
    }

    #[test]
    fn single_flight_under_contention_computes_once() {
        let cache = ResponseCache::new(64);
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
                        assert!(matches!(stored.value, CachedResponse::Flags(_)));
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
    fn capacity_flush_keeps_working() {
        let cache = ResponseCache::new(2);
        for i in 0..10 {
            let _ = cache.get_or_compute(test_key(i), || response(true));
        }
        assert!(cache.len() <= 2, "the capacity bound flushed");
        // Still functional after flushes.
        let (stored, lookup) = cache.get_or_compute(test_key(99), || response(true));
        assert!(matches!(stored.value, CachedResponse::Flags(_)));
        assert_eq!(lookup, Lookup::Miss);
    }

    #[test]
    fn panic_in_compute_releases_the_flight() {
        let cache = ResponseCache::new(8);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cache.get_or_compute(test_key(5), || panic!("boom"));
        }));
        assert!(result.is_err());
        // The key is free again: a later caller computes normally.
        let (stored, lookup) = cache.get_or_compute(test_key(5), || response(true));
        assert!(matches!(stored.value, CachedResponse::Flags(_)));
        assert_eq!(lookup, Lookup::Miss);
    }

    #[test]
    fn flush_never_evicts_a_response_with_parked_waiters() {
        // Regression: the generational flush used to retain only in-flight
        // slots, so a response published while callers were still parked
        // could be evicted before they woke — forcing a duplicate model call.
        // Waiter pins must keep the entry alive until the last parked caller
        // has consumed it.
        use std::sync::mpsc;
        let cache = ResponseCache::new(4);
        let calls = AtomicUsize::new(0);
        let (started_tx, started_rx) = mpsc::channel();
        let (go_tx, go_rx) = mpsc::channel::<()>();
        let cache = &cache;
        let calls = &calls;
        std::thread::scope(|s| {
            // T1 claims the flight and blocks inside compute.
            let t1 = s.spawn(move || {
                cache.get_or_compute(test_key(7), || {
                    calls.fetch_add(1, Ordering::SeqCst);
                    started_tx.send(()).unwrap();
                    go_rx.recv().unwrap();
                    response(true)
                })
            });
            started_rx.recv().unwrap();
            // T2 parks behind the in-flight computation.
            let t2 = s.spawn(|| {
                cache.get_or_compute(test_key(7), || {
                    calls.fetch_add(1, Ordering::SeqCst);
                    response(false)
                })
            });
            while cache.waiter_count(&test_key(7)) == 0 {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            // Publish, then hammer flushes while T2 races to wake up.
            go_tx.send(()).unwrap();
            for _ in 0..10_000 {
                cache.flush();
            }
            let (stored1, l1) = t1.join().unwrap();
            let (stored2, l2) = t2.join().unwrap();
            assert_eq!(l1, Lookup::Miss);
            assert_eq!(
                l2,
                Lookup::Hit { coalesced: true },
                "the parked waiter must receive the published response"
            );
            for stored in [&stored1, &stored2] {
                match &stored.value {
                    CachedResponse::Flags(f) => assert_eq!(f, &vec![true]),
                    other => panic!("wrong variant: {other:?}"),
                }
            }
        });
        assert_eq!(
            calls.load(Ordering::SeqCst),
            1,
            "a flush racing the wake-up must never force a recompute"
        );
        // Once the waiter has consumed the entry, flushing may evict it.
        cache.flush();
        assert!(cache.is_empty());
    }

    #[test]
    fn panicking_computer_hands_the_flight_to_a_parked_waiter() {
        // Regression: the panic path used to remove the entry wholesale,
        // orphaning parked waiters' pins — a waiter that re-parked behind a
        // later computation would then decrement a fresh entry's zero count
        // (underflow). Vacating in place keeps pins valid: the parked waiter
        // claims the flight, recomputes, and bookkeeping balances.
        use std::sync::mpsc;
        let cache = ResponseCache::new(8);
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
            // T2 parks (and pins) behind the in-flight computation.
            let t2 = s.spawn(move || {
                cache_ref.get_or_compute(test_key(11), || {
                    calls_ref.fetch_add(1, Ordering::SeqCst);
                    response(true)
                })
            });
            while cache.waiter_count(&test_key(11)) == 0 {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            go_tx.send(()).unwrap();
            assert!(t1.join().is_err(), "T1's panic must propagate");
            let (stored, lookup) = t2.join().unwrap();
            assert_eq!(lookup, Lookup::Miss, "the waiter claims the vacated flight");
            assert!(matches!(stored.value, CachedResponse::Flags(_)));
        });
        assert_eq!(calls.load(Ordering::SeqCst), 1);
        // Pins are balanced: the entry is flushable and the cache reusable.
        assert_eq!(cache.waiter_count(&test_key(11)), 0);
        cache.flush();
        assert!(cache.is_empty());
        let (_, lookup) = cache.get_or_compute(test_key(11), || response(false));
        assert_eq!(lookup, Lookup::Miss);
    }

    #[test]
    fn explicit_flush_spares_in_flight_entries() {
        let cache = ResponseCache::new(64);
        let _ = cache.get_or_compute(test_key(1), || response(true));
        let cache = &cache;
        std::thread::scope(|s| {
            let (tx, rx) = std::sync::mpsc::channel::<()>();
            let (started_tx, started_rx) = std::sync::mpsc::channel();
            s.spawn(move || {
                let _ = cache.get_or_compute(test_key(2), || {
                    started_tx.send(()).unwrap();
                    rx.recv().unwrap();
                    response(false)
                });
            });
            started_rx.recv().unwrap();
            cache.flush();
            // The completed entry is gone; the in-flight one survives.
            assert_eq!(cache.len(), 1);
            tx.send(()).unwrap();
        });
        // The in-flight entry completed normally after the flush.
        let (_, lookup) = cache.get_or_compute(test_key(2), || response(true));
        assert_eq!(lookup, Lookup::Hit { coalesced: false });
    }

    #[test]
    fn flush_reports_how_many_entries_it_evicted() {
        let cache = ResponseCache::new(64);
        for i in 0..5 {
            let _ = cache.get_or_compute(test_key(i), || response(true));
        }
        assert_eq!(cache.flush(), 5);
        assert!(cache.is_empty());
        assert_eq!(cache.flush(), 0, "second flush has nothing left");
    }

    #[test]
    fn capacity_flush_counts_evicted_entries_too() {
        let cache = ResponseCache::new(2);
        for i in 0..3 {
            let _ = cache.get_or_compute(test_key(i), || response(true));
        }
        // The third insert found the map full and evicted both entries.
        assert_eq!(cache.len(), 1);
        let (_, lookup) = cache.get_or_compute(test_key(0), || response(true));
        assert_eq!(lookup, Lookup::Miss, "an evicted entry recomputes");
    }

    #[test]
    fn preloaded_entries_hit_without_a_miss_and_count_store_hits() {
        let cache = ResponseCache::new(16);
        let preloaded = StoredResponse {
            value: CachedResponse::Flags(vec![true, true]),
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
        assert_eq!(calls.load(Ordering::SeqCst), 0, "preload must satisfy the request");
        assert_eq!(lookup, Lookup::Hit { coalesced: false });
        match &stored.value {
            CachedResponse::Flags(f) => assert_eq!(f, &vec![true, true]),
            other => panic!("wrong variant: {other:?}"),
        }
        // The caller counts a hit on a persisted entry as a store hit, and
        // the savings it books are the persisted token counts, exactly.
        assert_eq!(stored.origin, ResponseOrigin::Persisted);
        assert_eq!((stored.input_tokens, stored.output_tokens), (40, 4));
    }

    #[test]
    fn preload_respects_the_capacity_bound() {
        let cache = ResponseCache::new(2);
        assert!(cache.preload(test_key(1), response(true)));
        assert!(cache.preload(test_key(2), response(true)));
        assert!(!cache.preload(test_key(3), response(true)), "cache full");
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn preload_leaves_headroom_so_a_novel_miss_cannot_wipe_the_warm_start() {
        // Capacity 16 → preload budget 14. Filling to capacity would make
        // the first novel request's generational flush evict every preloaded
        // entry; the headroom keeps the warm generation alive.
        let cache = ResponseCache::new(16);
        let mut loaded = 0;
        for i in 0..16 {
            if cache.preload(test_key(i), response(true)) {
                loaded += 1;
            }
        }
        assert_eq!(loaded, 14, "1/8 headroom withheld");
        // A novel request computes without flushing the preloads.
        let (_, lookup) = cache.get_or_compute(test_key(100), || response(false));
        assert_eq!(lookup, Lookup::Miss);
        assert_eq!(cache.len(), 15, "no flush while headroom lasts");
        // Preloaded entries still serve.
        let (_, lookup) = cache.get_or_compute(test_key(0), || response(false));
        assert_eq!(lookup, Lookup::Hit { coalesced: false });
    }

    #[test]
    fn timings_record_holds_parks_and_preloads() {
        let cache = ResponseCache::new(64);
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
