//! The write-through persistence layer under the response cache.
//!
//! [`StoreLayer`] owns a [`zeroed_store::ResponseStore`] plus one background
//! writer thread. Publishing a response must never block the worker pool on
//! disk I/O, so the hot path only enqueues: [`StoreSink::offer`] pushes the
//! `(key, response)` pair onto an unbounded in-memory queue and returns; the
//! writer thread drains the queue, encodes records and appends them (fsyncing
//! per the store's [`zeroed_store::FsyncPolicy`]).
//!
//! On the way *in*, [`StoreLayer::preload_into`] replays every live persisted
//! record into a [`ResponseCache`] as `ResponseOrigin::Persisted` entries —
//! the cross-process warm start. Hits on those entries never reach the model
//! and replay the exact token cost the original call charged, so a warm run's
//! ledger reconciles to the cold run's bill as savings.
//!
//! Shutdown is drop-driven: when the last handle to the layer drops, the
//! queue is closed, the writer drains every remaining job, appends them, and
//! the store is synced — so a detector that goes out of scope leaves a
//! complete store behind for the next process.

use crate::cache::{ResponseCache, ResponseOrigin, StoredResponse};
use crate::fifo::Fifo;
use crate::key::RequestKey;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::Instant;
use zeroed_store::{now_epoch, ResponseStore, StoreConfig, StoreRecord};

enum Job {
    /// Append one published response, attributing the outcome to the
    /// offering sink's counters.
    Write(RequestKey, Arc<StoredResponse>, Arc<Counters>),
    /// Wake the barrier's waiter once every job queued before it has been
    /// written (the queue is FIFO, so reaching the barrier implies that).
    Barrier(mpsc::Sender<()>),
}

/// One sink's write-through activity, from [`StoreSink::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PersistStats {
    /// Responses offered to the persistence queue.
    pub offered: u64,
    /// Records successfully appended to the store.
    pub persisted_records: u64,
    /// Frame bytes appended.
    pub persisted_bytes: u64,
    /// Appends that failed with an I/O error (the response stays served from
    /// memory; it is simply not durable).
    pub append_errors: u64,
    /// Offers rejected because the layer was already shutting down.
    pub dropped: u64,
}

#[derive(Default)]
struct Counters {
    offered: AtomicU64,
    persisted_records: AtomicU64,
    persisted_bytes: AtomicU64,
    append_errors: AtomicU64,
    dropped: AtomicU64,
}

/// A cheap cloneable handle pipelines hand to [`crate::CachedLlm`] so misses
/// are enqueued for persistence off the hot path.
///
/// Each sink carries its own counters (clones share them), the only count of
/// each offer and append: one detection run's `PipelineStats` reflect
/// exactly its own write-through activity even when cloned detectors sharing
/// the layer persist concurrently — the same per-consumer discipline
/// `CachedLlm` applies to cache counters.
#[derive(Clone)]
pub struct StoreSink {
    queue: Arc<Fifo<Job>>,
    /// This sink's counters (shared only with its clones).
    counters: Arc<Counters>,
}

impl std::fmt::Debug for StoreSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StoreSink")
            .field("stats", &self.stats())
            .finish()
    }
}

impl StoreSink {
    /// Offers one published response for persistence. Never blocks on disk;
    /// returns immediately after enqueueing.
    pub fn offer(&self, key: RequestKey, response: &Arc<StoredResponse>) {
        self.counters.offered.fetch_add(1, Ordering::Relaxed);
        if !self.queue.push(Job::Write(
            key,
            Arc::clone(response),
            Arc::clone(&self.counters),
        )) {
            self.counters.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Write-through counters attributable to this sink (and its clones)
    /// alone. Exact once the layer has been drained past this sink's offers.
    pub fn stats(&self) -> PersistStats {
        let c = &self.counters;
        PersistStats {
            offered: c.offered.load(Ordering::Relaxed),
            persisted_records: c.persisted_records.load(Ordering::Relaxed),
            persisted_bytes: c.persisted_bytes.load(Ordering::Relaxed),
            append_errors: c.append_errors.load(Ordering::Relaxed),
            dropped: c.dropped.load(Ordering::Relaxed),
        }
    }
}

/// The owning handle: store + writer thread (see module docs).
///
/// The layer holds the directory's single-writer lock for its lifetime, so
/// one layer at a time writes a store directory; clones of a detector share
/// their layer.
pub struct StoreLayer {
    store: Arc<ResponseStore>,
    queue: Arc<Fifo<Job>>,
    writer: Option<JoinHandle<()>>,
    /// Wall time [`StoreLayer::open`] took (recovery + writer spawn).
    open_nanos: u64,
    /// Cumulative wall time of [`StoreLayer::preload_into`] calls.
    preload_nanos: AtomicU64,
}

/// Wall-clock timings of a [`StoreLayer`]'s warm-start path, from
/// [`StoreLayer::timings`]. The store's own open, fsync and compaction
/// timings live in [`zeroed_store::StoreStats`]; these cover the layer-level
/// operations the pipeline observes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreLayerTimings {
    /// [`StoreLayer::open`] wall time, nanoseconds (includes crash recovery
    /// and the writer-thread spawn).
    pub open_nanos: u64,
    /// Cumulative [`StoreLayer::preload_into`] wall time, nanoseconds
    /// (reading live records off disk and inserting them into the cache).
    pub preload_nanos: u64,
}

impl std::fmt::Debug for StoreLayer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StoreLayer")
            .field("store", &self.store)
            .finish()
    }
}

impl StoreLayer {
    /// Opens the store at `config.dir` (running crash recovery) and starts
    /// the background writer.
    pub fn open(config: StoreConfig) -> io::Result<Self> {
        let t_open = Instant::now();
        let store = Arc::new(ResponseStore::open(config)?);
        let queue = Arc::new(Fifo::new());
        let writer = {
            let store = Arc::clone(&store);
            let queue = Arc::clone(&queue);
            std::thread::Builder::new()
                .name("zeroed-store-writer".into())
                .spawn(move || {
                    while let Some(job) = queue.pop() {
                        match job {
                            Job::Write(key, response, counters) => {
                                let record = StoreRecord {
                                    key: key.to_u128(),
                                    input_tokens: response.input_tokens as u64,
                                    output_tokens: response.output_tokens as u64,
                                    // Stamped at write time; the store tool
                                    // prints it.
                                    epoch: now_epoch(),
                                    value: response.value.clone(),
                                };
                                match store.append(&record) {
                                    Ok(bytes) => {
                                        counters.persisted_records.fetch_add(1, Ordering::Relaxed);
                                        counters
                                            .persisted_bytes
                                            .fetch_add(bytes, Ordering::Relaxed);
                                    }
                                    Err(_) => {
                                        counters.append_errors.fetch_add(1, Ordering::Relaxed);
                                    }
                                }
                            }
                            Job::Barrier(waiter) => {
                                let _ = waiter.send(());
                            }
                        }
                    }
                    let _ = store.sync();
                })
                .map_err(io::Error::other)?
        };
        Ok(Self {
            store,
            queue,
            writer: Some(writer),
            open_nanos: t_open.elapsed().as_nanos().min(u64::MAX as u128) as u64,
            preload_nanos: AtomicU64::new(0),
        })
    }

    /// Layer-level open/preload wall timings (see [`StoreLayerTimings`]).
    pub fn timings(&self) -> StoreLayerTimings {
        StoreLayerTimings {
            open_nanos: self.open_nanos,
            preload_nanos: self.preload_nanos.load(Ordering::Relaxed),
        }
    }

    /// The underlying store: its recovery report from open
    /// ([`ResponseStore::recovery`]) and its counters
    /// ([`ResponseStore::stats`]).
    pub fn store(&self) -> &ResponseStore {
        &self.store
    }

    /// A fresh sink handle for [`crate::CachedLlm::with_persistence`]. Each
    /// call returns a sink with its own counters ([`StoreSink::stats`]);
    /// clones of one sink share them.
    pub fn sink(&self) -> StoreSink {
        StoreSink {
            queue: Arc::clone(&self.queue),
            counters: Arc::new(Counters::default()),
        }
    }

    /// Blocks until every response offered before this call has been written
    /// to the store (a queue barrier, not an fsync — pair with
    /// [`ResponseStore::sync`] for a durability barrier).
    pub fn drain(&self) {
        let (waiter, written) = mpsc::channel();
        if self.queue.push(Job::Barrier(waiter)) {
            // `Err` means the writer dropped the barrier unanswered: it died.
            let _ = written.recv();
        }
    }

    /// Replays every live persisted record into `cache` as
    /// `ResponseOrigin::Persisted` entries. Returns how many were inserted
    /// (entries already present, or beyond the cache capacity, are skipped).
    pub fn preload_into(&self, cache: &ResponseCache) -> io::Result<usize> {
        let t = Instant::now();
        let mut inserted = 0usize;
        for record in self.store.load_live()? {
            let response = StoredResponse {
                value: record.value,
                input_tokens: record.input_tokens as usize,
                output_tokens: record.output_tokens as usize,
                origin: ResponseOrigin::Persisted,
            };
            if cache.preload(RequestKey::from_u128(record.key), response) {
                inserted += 1;
            }
        }
        self.preload_nanos.fetch_add(
            t.elapsed().as_nanos().min(u64::MAX as u128) as u64,
            Ordering::Relaxed,
        );
        Ok(inserted)
    }
}

impl Drop for StoreLayer {
    fn drop(&mut self) {
        self.queue.close();
        if let Some(writer) = self.writer.take() {
            // The writer drains every queued job before exiting, then syncs.
            let _ = writer.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::RequestKind;
    use std::path::PathBuf;
    use std::sync::atomic::AtomicU32;
    use zeroed_llm::Response;

    static DIR_COUNTER: AtomicU32 = AtomicU32::new(0);

    fn temp_dir() -> PathBuf {
        let n = DIR_COUNTER.fetch_add(1, Ordering::SeqCst);
        let dir =
            std::env::temp_dir().join(format!("zeroed-persist-unit-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn test_key(n: u64) -> RequestKey {
        let mut b = RequestKey::builder(RequestKind::LabelBatch, "m");
        b.word(n);
        b.finish()
    }

    fn response(tokens: usize, flags: &[bool]) -> Arc<StoredResponse> {
        Arc::new(StoredResponse {
            value: Response::Flags(flags.to_vec()),
            input_tokens: tokens,
            output_tokens: flags.len(),
            origin: ResponseOrigin::Computed,
        })
    }

    #[test]
    fn offered_responses_survive_into_a_reopened_layer() {
        let dir = temp_dir();
        let config = StoreConfig::new(dir.to_str().unwrap());
        {
            let layer = StoreLayer::open(config.clone()).unwrap();
            let sink = layer.sink();
            sink.offer(test_key(1), &response(11, &[true]));
            sink.offer(test_key(2), &response(22, &[false, true]));
            layer.drain();
            assert_eq!(sink.stats().persisted_records, 2);
            assert!(sink.stats().persisted_bytes > 0);
            assert_eq!(sink.stats().append_errors, 0);
        } // drop closes the queue, joins the writer, syncs the store

        let layer = StoreLayer::open(config).unwrap();
        assert_eq!(layer.store().recovery().records_recovered, 2);
        let cache = ResponseCache::new(64);
        assert_eq!(layer.preload_into(&cache).unwrap(), 2);

        // The preloaded entry answers without computing, as a persisted
        // entry, and replays the persisted token cost as savings.
        let (stored, lookup) = cache.get_or_compute(test_key(2), || {
            panic!("preloaded entry must satisfy the request")
        });
        assert_eq!(lookup, crate::cache::Lookup::Hit { coalesced: false });
        assert_eq!(stored.origin, ResponseOrigin::Persisted);
        assert_eq!(stored.input_tokens, 22);
        match &stored.value {
            Response::Flags(f) => assert_eq!(f, &vec![false, true]),
            other => panic!("wrong variant: {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn drop_flushes_pending_writes_without_an_explicit_drain() {
        let dir = temp_dir();
        let config = StoreConfig::new(dir.to_str().unwrap());
        {
            let layer = StoreLayer::open(config.clone()).unwrap();
            let sink = layer.sink();
            for i in 0..50 {
                sink.offer(test_key(i), &response(i as usize, &[true]));
            }
        }
        let layer = StoreLayer::open(config).unwrap();
        assert_eq!(layer.store().recovery().records_recovered, 50);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn offers_after_shutdown_are_counted_as_dropped() {
        let dir = temp_dir();
        let layer = StoreLayer::open(StoreConfig::new(dir.to_str().unwrap())).unwrap();
        let sink = layer.sink();
        drop(layer);
        sink.offer(test_key(1), &response(1, &[true]));
        // The layer is gone; the counters live on through the sink's Arcs.
        assert_eq!(sink.stats().dropped, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sink_counters_attribute_writes_per_sink_not_per_layer() {
        // Two sinks on one layer (two concurrent detection runs): each must
        // see exactly its own persisted records.
        let dir = temp_dir();
        let layer = StoreLayer::open(StoreConfig::new(dir.to_str().unwrap())).unwrap();
        let sink_a = layer.sink();
        let sink_b = layer.sink();
        for i in 0..3 {
            sink_a.offer(test_key(i), &response(1, &[true]));
        }
        for i in 10..15 {
            sink_b.offer(test_key(i), &response(1, &[false]));
        }
        layer.drain();
        assert_eq!(sink_a.stats().persisted_records, 3);
        assert_eq!(sink_b.stats().persisted_records, 5);
        assert!(sink_a.stats().persisted_bytes > 0);
        assert!(sink_b.stats().persisted_bytes > sink_a.stats().persisted_bytes);
        assert_eq!(layer.store().stats().live_records, 8);
        // A clone shares its parent's counters (same run).
        let clone_a = sink_a.clone();
        clone_a.offer(test_key(99), &response(1, &[true]));
        layer.drain();
        assert_eq!(sink_a.stats().persisted_records, 4);
        assert_eq!(sink_b.stats().persisted_records, 5);
        drop(layer);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn layer_timings_cover_open_and_preload() {
        let dir = temp_dir();
        let config = StoreConfig::new(dir.to_str().unwrap());
        {
            let layer = StoreLayer::open(config.clone()).unwrap();
            let sink = layer.sink();
            sink.offer(test_key(1), &response(5, &[true]));
            layer.drain();
            assert!(layer.timings().open_nanos > 0);
            assert_eq!(layer.timings().preload_nanos, 0, "nothing preloaded yet");
        }
        let layer = StoreLayer::open(config).unwrap();
        let cache = ResponseCache::new(16);
        assert_eq!(layer.preload_into(&cache).unwrap(), 1);
        let t = layer.timings();
        assert!(t.open_nanos > 0);
        assert!(t.preload_nanos > 0, "preload wall time recorded");
        // The store carries its own open timing too.
        assert!(layer.store().stats().open_nanos > 0);
        drop(layer);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn superseding_offers_keep_the_latest_value() {
        let dir = temp_dir();
        let config = StoreConfig::new(dir.to_str().unwrap());
        {
            let layer = StoreLayer::open(config.clone()).unwrap();
            let sink = layer.sink();
            sink.offer(test_key(9), &response(1, &[false]));
            sink.offer(test_key(9), &response(2, &[true]));
            layer.drain();
            assert_eq!(layer.store().stats().live_records, 1);
        }
        let layer = StoreLayer::open(config).unwrap();
        let record = layer.store().get(test_key(9).to_u128()).unwrap().unwrap();
        match record.value {
            Response::Flags(f) => assert_eq!(f, vec![true]),
            other => panic!("wrong variant: {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
