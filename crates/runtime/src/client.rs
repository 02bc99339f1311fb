//! [`CachedLlm`]: the dedup-caching adapter around any [`LlmClient`].
//!
//! Each trait method renders its prompt (the same template the wrapped client
//! uses), derives the request's [`RequestKey`] and resolves it through the
//! shared [`ResponseCache`]. Misses execute the wrapped client (which charges
//! its own [`zeroed_llm::TokenLedger`] and simulated latency); hits replay the
//! stored response and charge nothing — the avoided cost is accounted in
//! [`CacheStats`] instead, using the exact same token arithmetic the
//! original call was charged with (shared `prompts::render_*` helpers).
//!
//! The adapter is constructed per table ([`CachedLlm::for_table`]): a
//! fingerprint of the full table contents is folded into every key, because
//! several responses (distribution analyses, guidelines) depend on cells the
//! prompt never serialises. Requests about any *other* table must not go
//! through the same adapter.

use crate::cache::{CachedResponse, Lookup, ResponseCache, ResponseOrigin, StoredResponse};
use crate::key::{table_fingerprint, RequestKey, RequestKeyBuilder, RequestKind};
use crate::persist::StoreSink;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use zeroed_criteria::CriteriaSet;
use zeroed_llm::{
    count_tokens, prompts, AttributeContext, DistributionAnalysis, Guideline, LlmClient,
    TokenLedger,
};
use zeroed_obs::{request_scope, TraceRecorder};
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
    /// Per-request flight recorder. When present, [`CachedLlm::resolve`] mints
    /// the request's [`zeroed_obs::TraceId`] from its [`RequestKey`] and
    /// installs a thread-local trace scope around the cache lookup, so every
    /// layer underneath (cache, router, repair) journals into the same trace.
    recorder: Option<Arc<TraceRecorder>>,
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
            recorder: None,
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

    /// Attaches a flight recorder: every request resolved through this
    /// adapter runs inside a [`zeroed_obs::TraceScope`] whose id is minted
    /// deterministically from the request's key
    /// ([`TraceRecorder::trace_for_key`]), so cache, router and repair events
    /// correlate per logical request across execution modes.
    pub fn with_recorder(mut self, recorder: Arc<TraceRecorder>) -> Self {
        self.recorder = Some(recorder);
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

    fn key_builder(&self, kind: RequestKind) -> RequestKeyBuilder {
        // `cache_identity`, not `name`: composite clients (the router)
        // answer with their backends' responses and share their identity, so
        // cached — and persisted — entries stay valid across execution modes.
        let mut b = RequestKey::builder(kind, self.inner.cache_identity());
        b.word(self.table_fp);
        b
    }

    /// Resolves one request: `value()` runs the wrapped client on a miss;
    /// `render` turns a response value into the exact response text the
    /// client charges for, so hits account precise savings.
    fn resolve(
        &self,
        key: RequestKey,
        prompt: &str,
        value: impl FnOnce() -> CachedResponse,
        render: impl Fn(&CachedResponse) -> String,
    ) -> Arc<StoredResponse> {
        // Install the per-request trace scope for the duration of the lookup
        // (and, on a miss, the wrapped-client computation inside it): the
        // single choke point every logical request passes through.
        let _scope = self
            .recorder
            .as_ref()
            .map(|rec| request_scope(rec, rec.trace_for_key(key.to_u128())));
        let (stored, lookup) = self.cache.get_or_compute(key, || {
            let value = value();
            let response = render(&value);
            StoredResponse {
                input_tokens: count_tokens(prompt),
                output_tokens: count_tokens(&response),
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

fn as_criteria(stored: &StoredResponse) -> CriteriaSet {
    match &stored.value {
        CachedResponse::Criteria(set) => set.clone(),
        other => unreachable!("criteria key resolved to {other:?}"),
    }
}

fn as_flags(stored: &StoredResponse) -> Vec<bool> {
    match &stored.value {
        CachedResponse::Flags(flags) => flags.clone(),
        other => unreachable!("flags key resolved to {other:?}"),
    }
}

fn render_criteria(value: &CachedResponse) -> String {
    match value {
        CachedResponse::Criteria(set) => prompts::render_criteria_response(set),
        _ => unreachable!(),
    }
}

fn render_flags(value: &CachedResponse, tuple: bool) -> String {
    match value {
        CachedResponse::Flags(flags) if tuple => prompts::render_tuple_response(flags),
        CachedResponse::Flags(flags) => prompts::render_labels_response(flags),
        _ => unreachable!(),
    }
}

impl LlmClient for CachedLlm<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn ledger(&self) -> &TokenLedger {
        self.inner.ledger()
    }

    fn generate_criteria(&self, ctx: &AttributeContext<'_>) -> CriteriaSet {
        let prompt = prompts::criteria_prompt(ctx);
        let salt = self
            .inner
            .request_salt(ctx.table, Some(ctx.column), ctx.sample_rows);
        let mut b = self.key_builder(RequestKind::Criteria);
        b.column(Some(ctx.column))
            .rows(ctx.sample_rows)
            .text(&prompt)
            .word(salt);
        let stored = self.resolve(
            b.finish(),
            &prompt,
            || CachedResponse::Criteria(self.inner.generate_criteria(ctx)),
            render_criteria,
        );
        as_criteria(&stored)
    }

    fn analyze_distribution(&self, ctx: &AttributeContext<'_>) -> DistributionAnalysis {
        let prompt = prompts::analysis_prompt(ctx);
        let salt = self
            .inner
            .request_salt(ctx.table, Some(ctx.column), ctx.sample_rows);
        let mut b = self.key_builder(RequestKind::Analysis);
        b.column(Some(ctx.column))
            .rows(ctx.sample_rows)
            .text(&prompt)
            .word(salt);
        let stored = self.resolve(
            b.finish(),
            &prompt,
            || CachedResponse::Analysis(self.inner.analyze_distribution(ctx)),
            |value| match value {
                CachedResponse::Analysis(a) => prompts::render_analysis(a),
                _ => unreachable!(),
            },
        );
        match &stored.value {
            CachedResponse::Analysis(a) => a.clone(),
            other => unreachable!("analysis key resolved to {other:?}"),
        }
    }

    fn generate_guideline(
        &self,
        ctx: &AttributeContext<'_>,
        analysis: &DistributionAnalysis,
    ) -> Guideline {
        let prompt = prompts::guideline_prompt(ctx, analysis);
        let salt = self
            .inner
            .request_salt(ctx.table, Some(ctx.column), ctx.sample_rows);
        let mut b = self.key_builder(RequestKind::Guideline);
        b.column(Some(ctx.column))
            .rows(ctx.sample_rows)
            .text(&prompt)
            .word(salt);
        let stored = self.resolve(
            b.finish(),
            &prompt,
            || CachedResponse::Guideline(self.inner.generate_guideline(ctx, analysis)),
            |value| match value {
                CachedResponse::Guideline(g) => g.render(),
                _ => unreachable!(),
            },
        );
        match &stored.value {
            CachedResponse::Guideline(g) => g.clone(),
            other => unreachable!("guideline key resolved to {other:?}"),
        }
    }

    fn label_batch(
        &self,
        ctx: &AttributeContext<'_>,
        guideline: Option<&Guideline>,
        rows: &[usize],
    ) -> Vec<bool> {
        let prompt = prompts::labeling_prompt(ctx, guideline, rows);
        let salt = self.inner.request_salt(ctx.table, Some(ctx.column), rows);
        let mut b = self.key_builder(RequestKind::LabelBatch);
        b.column(Some(ctx.column)).rows(rows).text(&prompt).word(salt);
        let stored = self.resolve(
            b.finish(),
            &prompt,
            || CachedResponse::Flags(self.inner.label_batch(ctx, guideline, rows)),
            |value| render_flags(value, false),
        );
        as_flags(&stored)
    }

    fn refine_criteria(
        &self,
        ctx: &AttributeContext<'_>,
        clean_examples: &[String],
        error_examples: &[String],
        existing: &CriteriaSet,
    ) -> CriteriaSet {
        let prompt = prompts::contrastive_prompt(ctx, clean_examples, error_examples);
        let salt = self.inner.request_salt(ctx.table, Some(ctx.column), &[]);
        let mut b = self.key_builder(RequestKind::Refine);
        // The contrastive prompt does not serialise the existing criteria the
        // refinement starts from, so fold their full *canonical* encoding in
        // (sorted collections — `Debug` would vary with `HashSet` iteration
        // order across processes, splitting persisted warm-start keys).
        b.column(Some(ctx.column))
            .text(&prompt)
            .bytes(&zeroed_store::canonical_criteria(existing))
            .word(salt);
        let stored = self.resolve(
            b.finish(),
            &prompt,
            || {
                CachedResponse::Criteria(self.inner.refine_criteria(
                    ctx,
                    clean_examples,
                    error_examples,
                    existing,
                ))
            },
            render_criteria,
        );
        as_criteria(&stored)
    }

    fn augment_errors(
        &self,
        ctx: &AttributeContext<'_>,
        clean_examples: &[String],
        count: usize,
    ) -> Vec<String> {
        let prompt = prompts::augmentation_prompt(ctx, clean_examples, count);
        let salt = self.inner.request_salt(ctx.table, Some(ctx.column), &[]);
        let mut b = self.key_builder(RequestKind::Augment);
        b.column(Some(ctx.column))
            .word(count as u64)
            .text(&prompt)
            .word(salt);
        let stored = self.resolve(
            b.finish(),
            &prompt,
            || CachedResponse::Values(self.inner.augment_errors(ctx, clean_examples, count)),
            |value| match value {
                CachedResponse::Values(v) => prompts::render_augment_response(v),
                _ => unreachable!(),
            },
        );
        match &stored.value {
            CachedResponse::Values(v) => v.clone(),
            other => unreachable!("augment key resolved to {other:?}"),
        }
    }

    fn detect_tuple(&self, table: &Table, row: usize) -> Vec<bool> {
        let prompt = prompts::tuple_prompt(table, row);
        let salt = self.inner.request_salt(table, None, &[row]);
        let mut b = self.key_builder(RequestKind::Tuple);
        b.column(None).rows(&[row]).text(&prompt).word(salt);
        let stored = self.resolve(
            b.finish(),
            &prompt,
            || CachedResponse::Flags(self.inner.detect_tuple(table, row)),
            |value| render_flags(value, true),
        );
        as_flags(&stored)
    }

    fn request_salt(&self, table: &Table, column: Option<usize>, rows: &[usize]) -> u64 {
        self.inner.request_salt(table, column, rows)
    }

    fn note_reask(&self, salt: u64, attempt: u32) {
        self.inner.note_reask(salt, attempt);
    }

    fn cache_identity(&self) -> &str {
        self.inner.cache_identity()
    }

    fn max_in_flight(&self) -> Option<usize> {
        self.inner.max_in_flight()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zeroed_llm::SimLlm;

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
        let cache = Arc::new(ResponseCache::new(1 << 10));
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
        assert_eq!(stats.input_tokens_saved as usize, usage_after_first.input_tokens);
        assert_eq!(stats.output_tokens_saved as usize, usage_after_first.output_tokens);
    }

    #[test]
    fn different_rows_never_share_an_entry() {
        let table = fixture();
        let sim = SimLlm::default_model(3);
        let cache = Arc::new(ResponseCache::new(1 << 10));
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
        let cache = Arc::new(ResponseCache::new(1 << 10));
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
            let refined =
                llm.refine_criteria(&ctx, &["MA".into()], &["".into()], &criteria);
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
