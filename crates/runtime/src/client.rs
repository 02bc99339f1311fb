//! [`CachedLlm`]: the dedup-caching adapter around any [`LlmClient`].
//!
//! Its one prompt method, [`LlmClient::complete`], renders the request's
//! prompt (the same template the wrapped client uses), derives the request's
//! [`RequestKey`] and resolves it through the shared [`ResponseCache`].
//! Misses execute the wrapped client (which charges its own
//! [`zeroed_llm::TokenLedger`] and simulated latency); hits replay the
//! stored response and charge nothing — the avoided cost is accounted in
//! [`CacheStats`] instead, using the exact same token arithmetic the
//! original call was charged with ([`Request::render`]).
//!
//! The adapter is constructed per table ([`CachedLlm::for_table`]): a
//! fingerprint of the full table contents is folded into every key, because
//! several responses (distribution analyses, guidelines) depend on cells the
//! prompt never serialises. Requests about any *other* table must not go
//! through the same adapter.

use crate::cache::{Lookup, ResponseCache, ResponseOrigin, StoredResponse};
use crate::key::{table_fingerprint, RequestKey};
use crate::persist::StoreSink;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use zeroed_llm::{count_tokens, LlmClient, Request, Response, TokenLedger};
use zeroed_table::Table;

/// One adapter's cache activity, from [`CachedLlm::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Requests answered from a published entry (no model call).
    pub hits: u64,
    /// Requests that had to execute the model call.
    pub misses: u64,
    /// Hits that waited for an in-flight computation (subset of `hits`).
    pub coalesced: u64,
    /// Prompt tokens the hits avoided sending.
    pub input_tokens_saved: u64,
    /// Completion tokens the hits avoided generating.
    pub output_tokens_saved: u64,
    /// Hits served by entries preloaded from the persisted response store
    /// (subset of `hits`).
    pub store_hits: u64,
}

impl CacheStats {
    /// Total tokens saved by deduplication.
    pub fn tokens_saved(&self) -> u64 {
        self.input_tokens_saved + self.output_tokens_saved
    }
}

/// A caching [`LlmClient`] adapter (see module docs).
pub struct CachedLlm<'a> {
    inner: &'a dyn LlmClient,
    cache: Arc<ResponseCache>,
    table_fp: u64,
    /// Write-through persistence: misses are offered here (off the hot path)
    /// so later processes can warm-start from the on-disk store.
    persist: Option<StoreSink>,
    /// Activity of *this adapter only*: the one count of each lookup, so a
    /// detection run's `PipelineStats` stay its own even when cloned
    /// detectors sharing the cache run concurrently.
    counters: Counters,
}

#[derive(Default)]
struct Counters {
    hits: AtomicU64,
    misses: AtomicU64,
    coalesced: AtomicU64,
    input_tokens_saved: AtomicU64,
    output_tokens_saved: AtomicU64,
    store_hits: AtomicU64,
}

impl std::fmt::Debug for CachedLlm<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CachedLlm")
            .field("model", &self.inner.name())
            .field("table_fp", &format_args!("{:016x}", self.table_fp))
            .field("cache", &self.cache)
            .finish()
    }
}

impl<'a> CachedLlm<'a> {
    /// Wraps `inner` for requests against `table`, fingerprinting the table's
    /// full contents into every request key.
    pub fn for_table(inner: &'a dyn LlmClient, cache: Arc<ResponseCache>, table: &Table) -> Self {
        Self {
            inner,
            cache,
            table_fp: table_fingerprint(table),
            persist: None,
            counters: Counters::default(),
        }
    }

    /// Attaches a write-through persistence sink: every miss this adapter
    /// resolves is offered to the sink (asynchronously — the hot path never
    /// waits on disk), so the backing [`crate::StoreLayer`]'s store can
    /// warm-start later processes.
    pub fn with_persistence(mut self, sink: StoreSink) -> Self {
        self.persist = Some(sink);
        self
    }

    /// Cache activity attributable to this adapter alone.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.counters.hits.load(Ordering::Relaxed),
            misses: self.counters.misses.load(Ordering::Relaxed),
            coalesced: self.counters.coalesced.load(Ordering::Relaxed),
            input_tokens_saved: self.counters.input_tokens_saved.load(Ordering::Relaxed),
            output_tokens_saved: self.counters.output_tokens_saved.load(Ordering::Relaxed),
            store_hits: self.counters.store_hits.load(Ordering::Relaxed),
        }
    }

    /// The request's key: the kind and model identity, the table
    /// fingerprint, the request's column, then its kind-specific fields and
    /// prompt, then the wrapped client's salt.
    fn key(&self, request: &Request<'_>, prompt: &str) -> RequestKey {
        let mut b = RequestKey::builder(request.kind(), self.inner.name());
        let (_, column, rows) = request.target();
        b.word(self.table_fp).column(column);
        match request {
            // The contrastive prompt does not serialise the existing criteria
            // the refinement starts from, so fold their full *canonical*
            // encoding in (sorted collections — `Debug` would vary with
            // `HashSet` iteration order across processes, splitting persisted
            // warm-start keys).
            Request::Refine { existing, .. } => b
                .text(prompt)
                .bytes(&zeroed_store::canonical_criteria(existing)),
            Request::Augment { count, .. } => b.word(*count as u64).text(prompt),
            _ => b.rows(rows).text(prompt),
        };
        b.word(self.inner.request_salt(request));
        b.finish()
    }

    /// Resolves one request: a miss runs the wrapped client and charges the
    /// entry the exact tokens it was billed (the prompt and the rendered
    /// response), so hits account precise savings.
    fn resolve(&self, request: &Request<'_>) -> Arc<StoredResponse> {
        let prompt = request.prompt();
        let key = self.key(request, &prompt);
        let (stored, lookup) = self.cache.get_or_compute(key, || {
            let value = self.inner.complete(request);
            StoredResponse {
                input_tokens: count_tokens(&prompt),
                output_tokens: count_tokens(&request.render(&value)),
                value,
                origin: ResponseOrigin::Computed,
            }
        });
        match lookup {
            Lookup::Miss => {
                self.counters.misses.fetch_add(1, Ordering::Relaxed);
                // Write-through: offer the freshly computed response for
                // persistence. Asynchronous — publishing never waits on I/O.
                if let Some(sink) = &self.persist {
                    sink.offer(key, &stored);
                }
            }
            Lookup::Hit { coalesced } => {
                self.counters.hits.fetch_add(1, Ordering::Relaxed);
                if coalesced {
                    self.counters.coalesced.fetch_add(1, Ordering::Relaxed);
                }
                if stored.origin == ResponseOrigin::Persisted {
                    self.counters.store_hits.fetch_add(1, Ordering::Relaxed);
                }
                self.counters
                    .input_tokens_saved
                    .fetch_add(stored.input_tokens as u64, Ordering::Relaxed);
                self.counters
                    .output_tokens_saved
                    .fetch_add(stored.output_tokens as u64, Ordering::Relaxed);
            }
        }
        stored
    }
}

impl LlmClient for CachedLlm<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn ledger(&self) -> &TokenLedger {
        self.inner.ledger()
    }

    fn complete(&self, request: &Request<'_>) -> Response {
        self.resolve(request).value.clone()
    }

    fn request_salt(&self, request: &Request<'_>) -> u64 {
        self.inner.request_salt(request)
    }

    fn note_reask(&self, salt: u64, attempt: u32) {
        self.inner.note_reask(salt, attempt);
    }

    fn max_in_flight(&self) -> Option<usize> {
        self.inner.max_in_flight()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zeroed_llm::{AttributeContext, SimLlm};

    fn fixture() -> Table {
        let rows: Vec<Vec<String>> = (0..60)
            .map(|i| {
                vec![
                    ["Boston", "Denver", "Phoenix"][i % 3].to_string(),
                    ["MA", "CO", "AZ"][i % 3].to_string(),
                ]
            })
            .collect();
        Table::new("cities", vec!["city".into(), "state".into()], rows).unwrap()
    }

    #[test]
    fn repeated_requests_hit_the_cache_and_charge_no_tokens() {
        let table = fixture();
        let sim = SimLlm::default_model(3);
        let cache = Arc::new(ResponseCache::new());
        let llm = CachedLlm::for_table(&sim, cache, &table);
        let corr = vec![0usize];
        let samples: Vec<usize> = (0..10).collect();
        let ctx = AttributeContext {
            table: &table,
            column: 1,
            correlated: &corr,
            sample_rows: &samples,
        };

        let first = llm.label_batch(&ctx, None, &samples);
        let usage_after_first = sim.ledger().usage();
        let second = llm.label_batch(&ctx, None, &samples);
        let usage_after_second = sim.ledger().usage();

        assert_eq!(first, second, "replayed response must be identical");
        assert_eq!(
            usage_after_first, usage_after_second,
            "a hit must not charge the ledger"
        );
        let stats = llm.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 1);
        // The savings equal exactly what the original call charged.
        assert_eq!(
            stats.input_tokens_saved as usize,
            usage_after_first.input_tokens
        );
        assert_eq!(
            stats.output_tokens_saved as usize,
            usage_after_first.output_tokens
        );
    }

    #[test]
    fn concurrent_identical_requests_miss_once_and_count_coalesced_hits() {
        let table = fixture();
        let sim = SimLlm::default_model(3).with_latency_scale(1.0);
        let cache = Arc::new(ResponseCache::new());
        let llm = CachedLlm::for_table(&sim, cache, &table);
        let corr = vec![0usize];
        let samples: Vec<usize> = (0..10).collect();
        let ctx = AttributeContext {
            table: &table,
            column: 1,
            correlated: &corr,
            sample_rows: &samples,
        };
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| llm.label_batch(&ctx, None, &samples));
            }
        });
        let stats = llm.stats();
        assert_eq!((stats.misses, stats.hits), (1, 3), "{stats:?}");
        // Callers that arrived while the model was answering parked behind
        // the one computation; a coalesced hit is still a hit.
        assert!(
            stats.coalesced >= 1 && stats.coalesced <= stats.hits,
            "{stats:?}"
        );
        assert_eq!(sim.ledger().usage().requests, 1);
    }

    #[test]
    fn different_rows_never_share_an_entry() {
        let table = fixture();
        let sim = SimLlm::default_model(3);
        let cache = Arc::new(ResponseCache::new());
        let llm = CachedLlm::for_table(&sim, cache, &table);
        let corr = vec![0usize];
        let samples: Vec<usize> = (0..4).collect();
        let ctx = AttributeContext {
            table: &table,
            column: 1,
            correlated: &corr,
            sample_rows: &samples,
        };
        // Rows 0 and 3 hold the same *content* ("MA" in Boston context): an
        // index-blind key would conflate them; the exact key must not.
        let _ = llm.label_batch(&ctx, None, &[0]);
        let _ = llm.label_batch(&ctx, None, &[3]);
        assert_eq!(llm.stats().misses, 2);
        assert_eq!(llm.stats().hits, 0);
    }

    #[test]
    fn full_surface_round_trips_through_the_cache() {
        let table = fixture();
        let sim = SimLlm::default_model(1);
        let cache = Arc::new(ResponseCache::new());
        let llm = CachedLlm::for_table(&sim, cache, &table);
        let corr = vec![0usize];
        let samples: Vec<usize> = (0..8).collect();
        let ctx = AttributeContext {
            table: &table,
            column: 1,
            correlated: &corr,
            sample_rows: &samples,
        };
        for _ in 0..2 {
            let criteria = llm.generate_criteria(&ctx);
            let analysis = llm.analyze_distribution(&ctx);
            let guideline = llm.generate_guideline(&ctx, &analysis);
            let labels = llm.label_batch(&ctx, Some(&guideline), &samples);
            assert_eq!(labels.len(), samples.len());
            let refined = llm.refine_criteria(&ctx, &["MA".into()], &["".into()], &criteria);
            assert!(refined.len() >= criteria.len());
            let values = llm.augment_errors(&ctx, &["MA".into(), "CO".into()], 4);
            assert_eq!(values.len(), 4);
            let flags = llm.detect_tuple(&table, 2);
            assert_eq!(flags.len(), 2);
        }
        let stats = llm.stats();
        assert_eq!(stats.misses, 7, "seven distinct requests");
        assert_eq!(stats.hits, 7, "second pass replays all seven");
        // Second pass charged nothing: requests in the ledger equal misses.
        assert_eq!(sim.ledger().usage().requests, 7);
    }
}
