//! Step 3 — guideline generation and holistic LLM labelling (paper §III-C).
//!
//! The pipeline calls [`label_representatives`] in the middle phase of each
//! attribute's streamed chain, right after the attribute's sampling and
//! before its training-data construction, at the model's serving width. The
//! calls below (distribution analysis → guideline → label batches) stay
//! ordered within the attribute while attributes proceed in parallel.

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
/// `config.batch_size`.
///
/// A model may answer a batch with fewer labels than it was asked for (a
/// truncated or malformed response). Those rows are never dropped silently:
/// they are relabelled individually, and rows that still come back empty are
/// recorded as defaulted-to-clean in the outcome's counters.
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
    for batch in representatives.chunks(config.batch_size.max(1)) {
        let batch_labels = llm.label_batch(ctx, guideline.as_ref(), batch);
        for (&row, &is_error) in batch.iter().zip(batch_labels.iter()) {
            outcome.labels.insert(row, is_error);
        }
        // Short response: the zip above consumed the answered prefix; the
        // unanswered suffix goes through the shared per-row repair helper.
        let unanswered = &batch[batch_labels.len().min(batch.len())..];
        outcome.fallback_cells += unanswered.len();
        for (row, is_error, defaulted) in
            repair::relabel_rows_individually(llm, ctx, guideline.as_ref(), unanswered)
        {
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
    use zeroed_datagen::{generate, DatasetSpec, GenerateOptions};
    use zeroed_llm::SimLlm;

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
        fn generate_criteria(&self, ctx: &AttributeContext<'_>) -> zeroed_criteria::CriteriaSet {
            self.inner.generate_criteria(ctx)
        }
        fn analyze_distribution(&self, ctx: &AttributeContext<'_>) -> zeroed_llm::DistributionAnalysis {
            self.inner.analyze_distribution(ctx)
        }
        fn generate_guideline(
            &self,
            ctx: &AttributeContext<'_>,
            analysis: &zeroed_llm::DistributionAnalysis,
        ) -> zeroed_llm::Guideline {
            self.inner.generate_guideline(ctx, analysis)
        }
        fn label_batch(
            &self,
            ctx: &AttributeContext<'_>,
            guideline: Option<&zeroed_llm::Guideline>,
            rows: &[usize],
        ) -> Vec<bool> {
            if rows.len() == 1 && self.mute.contains(&rows[0]) {
                return Vec::new();
            }
            let mut labels = self.inner.label_batch(ctx, guideline, rows);
            if rows.len() > 1 {
                labels.truncate(self.keep);
            }
            labels
        }
        fn refine_criteria(
            &self,
            ctx: &AttributeContext<'_>,
            clean: &[String],
            error: &[String],
            existing: &zeroed_criteria::CriteriaSet,
        ) -> zeroed_criteria::CriteriaSet {
            self.inner.refine_criteria(ctx, clean, error, existing)
        }
        fn augment_errors(
            &self,
            ctx: &AttributeContext<'_>,
            clean: &[String],
            count: usize,
        ) -> Vec<String> {
            self.inner.augment_errors(ctx, clean, count)
        }
        fn detect_tuple(&self, table: &zeroed_table::Table, row: usize) -> Vec<bool> {
            self.inner.detect_tuple(table, row)
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
        assert_eq!(outcome.labels[&8], false);
        // The repaired labels agree with what the model answers individually.
        let single = llm.label_batch(&ctx, None, &[7]);
        assert_eq!(outcome.labels[&7], single[0]);
    }
}
