//! Step 3 — guideline generation and holistic LLM labelling (paper §III-C).
//!
//! The pipeline calls [`label_representatives`] in the middle phase of each
//! attribute's streamed chain, right after the attribute's sampling and
//! before its training-data construction, at the model's serving width.
//! Within the attribute, distribution analysis → guideline stay ordered;
//! the label batches depend only on the guideline, so once it is back they
//! go out together, up to the model's width
//! ([`zeroed_runtime::RuntimeConfig::run_nested_llm`]), while attributes
//! proceed in parallel.

use crate::config::ZeroEdConfig;
use crate::pipeline::repair;
use std::collections::HashMap;
use zeroed_llm::{AttributeContext, LlmClient};

/// The labels of one attribute's representatives plus the bookkeeping of any
/// short labelling responses that were repaired.
#[derive(Debug, Clone, Default)]
pub struct LabelOutcome {
    /// `row index → is_error` for every representative.
    pub labels: HashMap<usize, bool>,
    /// Representatives relabelled one-by-one because their batch returned
    /// fewer labels than requested.
    pub fallback_cells: usize,
    /// Representatives defaulted to clean because even the individual
    /// relabelling returned no label.
    pub defaulted_cells: usize,
}

/// Labels the representative cells of one attribute.
///
/// When guidelines are enabled the two-step process of the paper runs first:
/// the LLM writes distribution-analysis functions (whose execution over the
/// full data is summarised in a [`zeroed_llm::DistributionAnalysis`]) and then
/// derives an attribute-specific detection guideline, which is included in
/// every labelling prompt. Representatives are labelled in batches of
/// `config.batch_size`. The batches run concurrently on the calling thread
/// and scoped helpers, at most as many at once as `config.runtime` allows
/// the model (one under [`ZeroEdConfig::sequential_runtime`], which runs
/// them in order), and their labels merge in batch order, so the outcome
/// does not depend on the width.
///
/// A model may answer a batch with fewer labels than it was asked for (a
/// truncated or malformed response). Those rows are never dropped silently:
/// the batch relabels them individually, and rows that still come back
/// empty are recorded as defaulted-to-clean in the outcome's counters.
pub fn label_representatives(
    ctx: &AttributeContext<'_>,
    config: &ZeroEdConfig,
    llm: &dyn LlmClient,
    representatives: &[usize],
) -> LabelOutcome {
    let mut outcome = LabelOutcome {
        labels: HashMap::with_capacity(representatives.len()),
        ..LabelOutcome::default()
    };
    if representatives.is_empty() {
        return outcome;
    }
    let guideline = if config.use_guidelines {
        let analysis = llm.analyze_distribution(ctx);
        Some(llm.generate_guideline(ctx, &analysis))
    } else {
        None
    };
    let batches: Vec<&[usize]> = representatives.chunks(config.batch_size.max(1)).collect();
    let labelled = config.runtime.run_nested_llm(llm, batches.len(), |b| {
        let batch = batches[b];
        let labels = llm.label_batch(ctx, guideline.as_ref(), batch);
        // Short response: the answered prefix keeps its labels; the
        // unanswered suffix goes through the shared per-row repair helper.
        let unanswered = &batch[labels.len().min(batch.len())..];
        let repaired = repair::relabel_rows_individually(llm, ctx, guideline.as_ref(), unanswered);
        (batch.iter().copied().zip(labels), repaired)
    });
    for (answered, repaired) in labelled {
        outcome.labels.extend(answered);
        outcome.fallback_cells += repaired.len();
        for (row, is_error, defaulted) in repaired {
            if defaulted {
                outcome.defaulted_cells += 1;
            }
            outcome.labels.insert(row, is_error);
        }
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Condvar, Mutex};
    use std::time::Duration;
    use zeroed_datagen::{generate, DatasetSpec, GenerateOptions};
    use zeroed_llm::{Request, Response, SimLlm};
    use zeroed_runtime::RuntimeConfig;

    fn fixture() -> (zeroed_datagen::GeneratedDataset, SimLlm) {
        let ds = generate(
            DatasetSpec::Hospital,
            &GenerateOptions {
                n_rows: 120,
                seed: 5,
                error_spec: None,
            },
        );
        let llm = SimLlm::default_model(3).with_oracle(ds.mask.clone());
        (ds, llm)
    }

    #[test]
    fn labels_every_representative_exactly_once() {
        let (ds, llm) = fixture();
        let corr = vec![0usize];
        let reps: Vec<usize> = (0..30).collect();
        let ctx = AttributeContext {
            table: &ds.dirty,
            column: 3,
            correlated: &corr,
            sample_rows: &reps,
        };
        let config = ZeroEdConfig::fast();
        let outcome = label_representatives(&ctx, &config, &llm, &reps);
        assert_eq!(outcome.labels.len(), 30);
        for row in 0..30 {
            assert!(outcome.labels.contains_key(&row));
        }
        assert_eq!(outcome.fallback_cells, 0);
        assert_eq!(outcome.defaulted_cells, 0);
    }

    #[test]
    fn guideline_ablation_skips_analysis_calls() {
        let (ds, _) = fixture();
        let corr = vec![0usize];
        let reps: Vec<usize> = (0..10).collect();
        let ctx = AttributeContext {
            table: &ds.dirty,
            column: 2,
            correlated: &corr,
            sample_rows: &reps,
        };
        // With guidelines: analysis + guideline + 1 labelling batch = 3 requests.
        let with_llm = SimLlm::default_model(1);
        let _ = label_representatives(&ctx, &ZeroEdConfig::fast(), &with_llm, &reps);
        let with_requests = with_llm.ledger().usage().requests;
        // Without guidelines: only the labelling batch.
        let without_llm = SimLlm::default_model(1);
        let _ = label_representatives(
            &ctx,
            &ZeroEdConfig::fast().without_guidelines(),
            &without_llm,
            &reps,
        );
        let without_requests = without_llm.ledger().usage().requests;
        assert!(with_requests > without_requests);
        assert_eq!(without_requests, 1);
    }

    #[test]
    fn batching_splits_requests() {
        let (ds, _) = fixture();
        let corr: Vec<usize> = vec![];
        let reps: Vec<usize> = (0..45).collect();
        let ctx = AttributeContext {
            table: &ds.dirty,
            column: 1,
            correlated: &corr,
            sample_rows: &reps,
        };
        let llm = SimLlm::default_model(2);
        let config = ZeroEdConfig {
            batch_size: 20,
            ..ZeroEdConfig::fast().without_guidelines()
        };
        let outcome = label_representatives(&ctx, &config, &llm, &reps);
        assert_eq!(outcome.labels.len(), 45);
        // ceil(45 / 20) = 3 labelling requests.
        assert_eq!(llm.ledger().usage().requests, 3);
    }

    #[test]
    fn empty_representatives_short_circuit() {
        let (ds, llm) = fixture();
        let corr: Vec<usize> = vec![];
        let ctx = AttributeContext {
            table: &ds.dirty,
            column: 0,
            correlated: &corr,
            sample_rows: &[],
        };
        let outcome = label_representatives(&ctx, &ZeroEdConfig::fast(), &llm, &[]);
        assert!(outcome.labels.is_empty());
    }

    /// An [`LlmClient`] whose batch answers are truncated: full batches get
    /// only `keep` labels back, single-row repair requests answer normally,
    /// except rows in `mute` which never get an answer at all.
    struct TruncatingLlm {
        inner: SimLlm,
        keep: usize,
        mute: Vec<usize>,
    }

    impl LlmClient for TruncatingLlm {
        fn name(&self) -> &str {
            self.inner.name()
        }
        fn ledger(&self) -> &zeroed_llm::TokenLedger {
            self.inner.ledger()
        }
        fn max_in_flight(&self) -> Option<usize> {
            self.inner.max_in_flight()
        }
        fn complete(&self, request: &Request<'_>) -> Response {
            match *request {
                Request::Labels { rows: &[row], .. } if self.mute.contains(&row) => {
                    Response::Flags(Vec::new())
                }
                Request::Labels { rows, .. } if rows.len() > 1 => {
                    let mut labels = self.inner.complete(request).into_flags();
                    labels.truncate(self.keep);
                    Response::Flags(labels)
                }
                _ => self.inner.complete(request),
            }
        }
    }

    #[test]
    fn truncated_batches_are_repaired_row_by_row() {
        let (ds, _) = fixture();
        let llm = TruncatingLlm {
            inner: SimLlm::default_model(2).with_oracle(ds.mask.clone()),
            keep: 6,
            mute: vec![8],
        };
        let corr: Vec<usize> = vec![];
        let reps: Vec<usize> = (0..10).collect();
        let ctx = AttributeContext {
            table: &ds.dirty,
            column: 1,
            correlated: &corr,
            sample_rows: &reps,
        };
        let config = ZeroEdConfig {
            batch_size: 10,
            ..ZeroEdConfig::fast().without_guidelines()
        };
        let outcome = label_representatives(&ctx, &config, &llm, &reps);
        // Every representative is labelled despite the truncated batch.
        assert_eq!(outcome.labels.len(), 10);
        for row in 0..10 {
            assert!(outcome.labels.contains_key(&row), "row {row} lost");
        }
        // Rows 6..10 fell back to individual labelling; row 8 never answered
        // and defaulted to clean.
        assert_eq!(outcome.fallback_cells, 4);
        assert_eq!(outcome.defaulted_cells, 1);
        assert!(!outcome.labels[&8]);
        // The repaired labels agree with what the model answers individually.
        let single = llm.label_batch(&ctx, None, &[7]);
        assert_eq!(outcome.labels[&7], single[0]);
    }

    /// Wraps a client, forwarding `max_in_flight`, and counts the label
    /// requests in flight. With `rendezvous` set, the first label request
    /// waits until a second one arrives (or a generous bound passes), so
    /// two batches overlap whenever the runtime lets them.
    struct OverlapProbe<L> {
        inner: L,
        rendezvous: bool,
        labels: Mutex<InFlight>,
        arrived: Condvar,
    }

    #[derive(Default)]
    struct InFlight {
        now: usize,
        peak: usize,
        seen: usize,
    }

    impl<L> OverlapProbe<L> {
        fn new(inner: L, rendezvous: bool) -> Self {
            Self {
                inner,
                rendezvous,
                labels: Mutex::default(),
                arrived: Condvar::new(),
            }
        }

        fn peak(&self) -> usize {
            self.labels.lock().unwrap().peak
        }
    }

    impl<L: LlmClient> LlmClient for OverlapProbe<L> {
        fn name(&self) -> &str {
            self.inner.name()
        }
        fn ledger(&self) -> &zeroed_llm::TokenLedger {
            self.inner.ledger()
        }
        fn max_in_flight(&self) -> Option<usize> {
            self.inner.max_in_flight()
        }
        fn complete(&self, request: &Request<'_>) -> Response {
            if !matches!(request, Request::Labels { .. }) {
                return self.inner.complete(request);
            }
            let mut labels = self.labels.lock().unwrap();
            labels.now += 1;
            labels.peak = labels.peak.max(labels.now);
            labels.seen += 1;
            self.arrived.notify_all();
            if self.rendezvous && labels.seen == 1 {
                labels = self
                    .arrived
                    .wait_timeout_while(labels, Duration::from_secs(60), |l| l.seen < 2)
                    .unwrap()
                    .0;
            }
            drop(labels);
            let response = self.inner.complete(request);
            self.labels.lock().unwrap().now -= 1;
            response
        }
    }

    #[test]
    fn label_batches_overlap_and_merge_in_batch_order() {
        let (ds, _) = fixture();
        let corr = vec![0usize];
        let reps: Vec<usize> = (0..30).collect();
        let ctx = AttributeContext {
            table: &ds.dirty,
            column: 1,
            correlated: &corr,
            sample_rows: &reps,
        };
        // Three batches of ten, each answered with six labels; rows 8 and
        // 17 (batches 0 and 1) never get an answer at all.
        let label = |config: ZeroEdConfig, rendezvous: bool| {
            let truncating = TruncatingLlm {
                inner: SimLlm::default_model(2).with_oracle(ds.mask.clone()),
                keep: 6,
                mute: vec![8, 17],
            };
            let llm = OverlapProbe::new(truncating, rendezvous);
            let config = ZeroEdConfig {
                batch_size: 10,
                ..config
            };
            let outcome = label_representatives(&ctx, &config, &llm, &reps);
            (outcome, llm.peak(), llm.ledger().usage())
        };
        let (seq, seq_peak, seq_usage) = label(ZeroEdConfig::fast().sequential_runtime(), false);
        assert_eq!(seq_peak, 1, "the sequential run labels one batch at a time");
        assert_eq!(seq.labels.len(), 30);
        assert_eq!(seq.fallback_cells, 12);
        assert_eq!(seq.defaulted_cells, 2);
        let pinned = ZeroEdConfig::fast().with_runtime(RuntimeConfig {
            workers: 4,
            ..RuntimeConfig::default()
        });
        for (name, config) in [("pinned", pinned), ("default", ZeroEdConfig::fast())] {
            let (outcome, peak, usage) = label(config, true);
            assert!(peak >= 2, "{name}: label requests never overlapped");
            assert_eq!(outcome.labels, seq.labels, "{name}");
            assert_eq!(outcome.fallback_cells, seq.fallback_cells, "{name}");
            assert_eq!(outcome.defaulted_cells, seq.defaulted_cells, "{name}");
            assert_eq!(usage, seq_usage, "{name}");
        }
    }
}
