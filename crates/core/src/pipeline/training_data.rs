//! Step 4 — training-data construction (paper Algorithm 1).
//!
//! The LLM labels of the cluster representatives are propagated to every cell
//! of the same cluster; the attribute's criteria are refined contrastively on
//! the labelled examples; criteria and propagated labels then verify each
//! other (criteria with low accuracy on clean-labelled data are dropped,
//! clean-labelled cells failing most surviving criteria are discarded); and
//! finally the LLM augments the minority error class with synthetic error
//! values.
//!
//! The pipeline calls [`construct`] in the middle phase of each attribute's
//! streamed chain, right after the attribute's labelling and before its
//! detector, at the model's serving width (the refinement → verification →
//! augmentation chain stays ordered within the attribute). It makes no
//! cross-attribute reads, which is what keeps the streamed chains
//! bit-identical to the sequential loop.

use super::sampling::ColumnSampling;
use crate::config::{CriteriaEngine, ZeroEdConfig};
use std::collections::HashMap;
use zeroed_criteria::verify::oracle;
use zeroed_criteria::{filter_criteria_dict, filter_rows_dict, CriteriaSet};
use zeroed_llm::{AttributeContext, LlmClient};
use zeroed_obs::Span;
use zeroed_table::TableDict;

/// The per-attribute training data produced by Algorithm 1.
#[derive(Debug, Clone, Default)]
pub struct ColumnTrainingData {
    /// Rows whose (verified) label is clean.
    pub clean_rows: Vec<usize>,
    /// Rows whose propagated label is erroneous.
    pub error_rows: Vec<usize>,
    /// Synthetic error examples: `(context row, fabricated value)`.
    pub augmented: Vec<(usize, String)>,
    /// The refined and verified criteria for the attribute (None when the
    /// criteria component is ablated).
    pub criteria: Option<CriteriaSet>,
    /// Number of cells that received a label through propagation.
    pub propagated_cells: usize,
}

/// Runs Algorithm 1 for one attribute.
///
/// `dict` is the run-wide distinct-value dictionary of `ctx.table` (built
/// once by the pipeline); the compiled criteria engine verifies per distinct
/// code against it. `verify_span`, when given, accrues the wall time of the
/// mutual-verification passes (the `criteria_verify` distribution in the
/// stage profile).
pub fn construct(
    ctx: &AttributeContext<'_>,
    config: &ZeroEdConfig,
    llm: &dyn LlmClient,
    sampling: &ColumnSampling,
    llm_labels: &HashMap<usize, bool>,
    criteria: Option<CriteriaSet>,
    dict: &TableDict,
    verify_span: Option<&Span>,
) -> ColumnTrainingData {
    let table = ctx.table;
    let col = ctx.column;

    // ---- Line 1: propagate labels within clusters. -----------------------
    // Propagation touches every row of the column; reserve up front so the
    // pushes below never reallocate mid-loop.
    let n_assignments = sampling.clustering.assignments.len();
    let mut clean_rows: Vec<usize> = Vec::with_capacity(n_assignments);
    let mut error_rows: Vec<usize> = Vec::with_capacity(n_assignments / 4);
    let mut propagated_cells = 0usize;
    // Label of each cluster = label of its representative (when labelled).
    let mut cluster_label: HashMap<usize, bool> = HashMap::new();
    for (&row, &label) in llm_labels {
        if let Some(&cluster) = sampling.clustering.assignments.get(row) {
            cluster_label.insert(cluster, label);
        }
    }
    for (row, &cluster) in sampling.clustering.assignments.iter().enumerate() {
        let Some(&label) = cluster_label.get(&cluster) else {
            continue;
        };
        if !llm_labels.contains_key(&row) {
            propagated_cells += 1;
        }
        if label {
            error_rows.push(row);
        } else {
            clean_rows.push(row);
        }
    }

    // ---- Lines 4–7: contrastive criteria refinement. ----------------------
    // Iterate the LLM labels in row order so the pipeline stays deterministic
    // regardless of hash-map iteration order.
    let mut sorted_labels: Vec<(usize, bool)> =
        llm_labels.iter().map(|(&row, &label)| (row, label)).collect();
    sorted_labels.sort_unstable();
    let clean_examples: Vec<String> = sorted_labels
        .iter()
        .filter(|(_, e)| !e)
        .take(20)
        .map(|(row, _)| table.cell(*row, col).to_string())
        .collect();
    let error_examples: Vec<String> = sorted_labels
        .iter()
        .filter(|(_, e)| *e)
        .take(20)
        .map(|(row, _)| table.cell(*row, col).to_string())
        .collect();
    let mut refined = criteria.map(|set| {
        if config.use_verification && !clean_examples.is_empty() {
            llm.refine_criteria(ctx, &clean_examples, &error_examples, &set)
        } else {
            set
        }
    });

    // ---- Lines 8–20: mutual verification. ---------------------------------
    if config.use_verification {
        if let Some(set) = refined.take() {
            let t_verify = std::time::Instant::now();
            // Verify criteria on a bounded sample of clean-labelled rows.
            let check_rows: Vec<usize> = clean_rows.iter().copied().take(500).collect();
            let threshold = config.verification_threshold;
            let (verified_criteria, kept_rows) = match config.criteria_engine {
                CriteriaEngine::Compiled => {
                    let verified = filter_criteria_dict(&set, dict, &check_rows, threshold);
                    // Verify propagated clean labels with the surviving
                    // criteria.
                    let kept = filter_rows_dict(&verified, dict, &clean_rows, threshold);
                    (verified, kept)
                }
                CriteriaEngine::AstOracle => {
                    let verified = oracle::filter_criteria(&set, table, &check_rows, threshold);
                    let kept = oracle::filter_rows(&verified, table, &clean_rows, threshold);
                    (verified, kept)
                }
            };
            clean_rows = kept_rows;
            refined = Some(verified_criteria);
            if let Some(span) = verify_span {
                span.record(t_verify.elapsed());
            }
        }
    }

    // ---- Lines 24–26: LLM error augmentation for class balance. -----------
    let mut augmented: Vec<(usize, String)> = Vec::new();
    if config.use_verification && !clean_rows.is_empty() {
        let deficit = clean_rows.len().saturating_sub(error_rows.len());
        let target = deficit
            .min(config.max_augment_per_column)
            .min(clean_rows.len());
        if target > 0 {
            let example_values: Vec<String> = clean_rows
                .iter()
                .take(20)
                .map(|&row| table.cell(row, col).to_string())
                .collect();
            let generated = llm.augment_errors(ctx, &example_values, target);
            for (i, value) in generated.into_iter().enumerate() {
                let context_row = clean_rows[i % clean_rows.len()];
                augmented.push((context_row, value));
            }
        }
    }

    ColumnTrainingData {
        clean_rows,
        error_rows,
        augmented,
        criteria: refined,
        propagated_cells,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::features;
    use crate::pipeline::sampling::sample_column;
    use zeroed_cluster::SamplingMethod;
    use zeroed_datagen::{generate, DatasetSpec, GenerateOptions};
    use zeroed_features::{FeatureBuilder, FeatureConfig};
    use zeroed_llm::{LlmClient, SimLlm};

    struct Fixture {
        ds: zeroed_datagen::GeneratedDataset,
        llm: SimLlm,
        sampling: ColumnSampling,
        labels: HashMap<usize, bool>,
        correlated: Vec<Vec<usize>>,
        criteria: Vec<Option<CriteriaSet>>,
        column: usize,
    }

    fn fixture() -> Fixture {
        let ds = generate(
            DatasetSpec::Beers,
            &GenerateOptions {
                n_rows: 200,
                seed: 9,
                error_spec: None,
            },
        );
        let types: Vec<_> = ds
            .injected
            .iter()
            .map(|e| ((e.row, e.col), e.error_type))
            .collect();
        let llm = SimLlm::default_model(4)
            .with_oracle(ds.mask.clone())
            .with_error_types(types);
        let config = ZeroEdConfig::fast();
        let column = ds.dirty.column_index("state").unwrap();
        let correlated = features::compute_correlated(&ds.dirty, &config);
        let scheduler = zeroed_runtime::Scheduler::with_workers(1);
        let criteria =
            features::generate_criteria_on(&scheduler, &ds.dirty, &correlated, &config, &llm);
        let extra = features::criteria_extra_dict_on(
            &scheduler,
            &criteria,
            &ds.dirty,
            &ds.dirty.intern(),
            crate::config::CriteriaEngine::Compiled,
        );
        let feats = FeatureBuilder::new(FeatureConfig {
            embed_dim: 8,
            top_k_corr: 2,
            ..FeatureConfig::default()
        })
        .build(&ds.dirty, &extra);
        let sampling = sample_column(
            &feats.unified[column],
            20,
            SamplingMethod::KMeans,
            7,
            20_000,
        );
        let reps = sampling.representatives.clone();
        let ctx = AttributeContext {
            table: &ds.dirty,
            column,
            correlated: &correlated[column],
            sample_rows: &reps,
        };
        let labels: HashMap<usize, bool> = reps
            .iter()
            .zip(llm.label_batch(&ctx, None, &reps))
            .map(|(&r, l)| (r, l))
            .collect();
        Fixture {
            ds,
            llm,
            sampling,
            labels,
            correlated,
            criteria,
            column,
        }
    }

    #[test]
    fn propagation_expands_the_labeled_set() {
        let f = fixture();
        let ctx = AttributeContext {
            table: &f.ds.dirty,
            column: f.column,
            correlated: &f.correlated[f.column],
            sample_rows: &f.sampling.representatives,
        };
        let data = construct(
            &ctx,
            &ZeroEdConfig::fast(),
            &f.llm,
            &f.sampling,
            &f.labels,
            f.criteria[f.column].clone(),
            &f.ds.dirty.intern(),
            None,
        );
        let labeled = data.clean_rows.len() + data.error_rows.len();
        assert!(
            labeled > f.labels.len(),
            "propagation should label more cells than the LLM did directly"
        );
        assert!(data.propagated_cells > 0);
        assert!(data.criteria.is_some());
    }

    #[test]
    fn augmentation_balances_classes_and_respects_ablation() {
        let f = fixture();
        let ctx = AttributeContext {
            table: &f.ds.dirty,
            column: f.column,
            correlated: &f.correlated[f.column],
            sample_rows: &f.sampling.representatives,
        };
        let dict = f.ds.dirty.intern();
        let with = construct(
            &ctx,
            &ZeroEdConfig::fast(),
            &f.llm,
            &f.sampling,
            &f.labels,
            f.criteria[f.column].clone(),
            &dict,
            None,
        );
        assert!(
            !with.augmented.is_empty(),
            "clean rows should outnumber error rows, triggering augmentation"
        );
        assert!(with.augmented.len() <= ZeroEdConfig::fast().max_augment_per_column);
        for (row, value) in &with.augmented {
            assert!(*row < f.ds.dirty.n_rows());
            assert!(value.len() < 200);
        }
        let without = construct(
            &ctx,
            &ZeroEdConfig::fast().without_verification(),
            &f.llm,
            &f.sampling,
            &f.labels,
            f.criteria[f.column].clone(),
            &dict,
            None,
        );
        assert!(without.augmented.is_empty());
    }

    #[test]
    fn compiled_and_oracle_engines_construct_identical_training_data() {
        let f = fixture();
        let ctx = AttributeContext {
            table: &f.ds.dirty,
            column: f.column,
            correlated: &f.correlated[f.column],
            sample_rows: &f.sampling.representatives,
        };
        let dict = f.ds.dirty.intern();
        let compiled = construct(
            &ctx,
            &ZeroEdConfig::fast(),
            &f.llm,
            &f.sampling,
            &f.labels,
            f.criteria[f.column].clone(),
            &dict,
            None,
        );
        let oracle = construct(
            &ctx,
            &ZeroEdConfig::fast().with_criteria_oracle(),
            &f.llm,
            &f.sampling,
            &f.labels,
            f.criteria[f.column].clone(),
            &dict,
            None,
        );
        assert_eq!(compiled.clean_rows, oracle.clean_rows);
        assert_eq!(compiled.error_rows, oracle.error_rows);
        assert_eq!(compiled.criteria, oracle.criteria);
        assert_eq!(compiled.augmented, oracle.augmented);
    }

    #[test]
    fn works_without_criteria() {
        let f = fixture();
        let ctx = AttributeContext {
            table: &f.ds.dirty,
            column: f.column,
            correlated: &f.correlated[f.column],
            sample_rows: &f.sampling.representatives,
        };
        let data = construct(
            &ctx,
            &ZeroEdConfig::fast().without_criteria(),
            &f.llm,
            &f.sampling,
            &f.labels,
            None,
            &f.ds.dirty.intern(),
            None,
        );
        assert!(data.criteria.is_none());
        assert!(!data.clean_rows.is_empty());
    }
}
