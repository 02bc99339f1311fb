//! Step 1 — feature representation with criteria reasoning (paper §III-B).
//!
//! This module computes the correlated attributes, asks the LLM for
//! error-checking criteria per attribute, and turns those criteria into the
//! binary feature block passed to `zeroed-features` as `extra` features.
//! Past the fit, [`distinct_vectors`] streams one attribute's unified
//! vectors from the fitted caches into the distinct vectors its sampling
//! and its detector read.

use crate::config::{CriteriaEngine, ZeroEdConfig};
use zeroed_cluster::DedupPoints;
use zeroed_criteria::{criteria_features_dict, CriteriaSet};
use zeroed_features::nmi::top_k_correlated_dict;
use zeroed_features::{FeatureMatrix, FittedFeatures};
use zeroed_llm::{AttributeContext, LlmClient};
use zeroed_table::{Table, TableDict};

/// Computes the top-`k` correlated attributes for every column (empty lists
/// when the correlated-attribute component is ablated). Interns the table
/// internally; the pipeline itself uses [`compute_correlated_dict`] so the
/// dictionary is built exactly once per detection run.
pub fn compute_correlated(table: &Table, config: &ZeroEdConfig) -> Vec<Vec<usize>> {
    compute_correlated_dict(&table.intern(), config)
}

/// [`compute_correlated`] over a pre-built distinct-value dictionary: NMI is
/// estimated on interned `u32` codes instead of string columns.
pub fn compute_correlated_dict(dict: &TableDict, config: &ZeroEdConfig) -> Vec<Vec<usize>> {
    let k = config.effective_top_k();
    (0..dict.n_cols())
        .map(|j| top_k_correlated_dict(dict, j, k, 5_000))
        .collect()
}

/// Row indices used as examples in criteria/analysis prompts: an even stride
/// through the table capped at 20 rows (the paper serialises "randomly sampled
/// tuples"; a stride keeps the choice deterministic).
pub fn prompt_sample_rows(n_rows: usize) -> Vec<usize> {
    if n_rows == 0 {
        return Vec::new();
    }
    let take = n_rows.min(20);
    let stride = (n_rows / take).max(1);
    (0..n_rows).step_by(stride).take(take).collect()
}

/// Asks the LLM for error-checking criteria for every attribute, one
/// scheduler task per attribute at the scheduler's LLM width
/// ([`zeroed_runtime::Scheduler::run_llm`]), results in column order.
/// Returns `None` per column when the criteria component is ablated.
pub fn generate_criteria_on(
    scheduler: &zeroed_runtime::Scheduler,
    table: &Table,
    correlated: &[Vec<usize>],
    config: &ZeroEdConfig,
    llm: &dyn LlmClient,
) -> Vec<Option<CriteriaSet>> {
    if !config.use_criteria {
        return vec![None; table.n_cols()];
    }
    let samples = prompt_sample_rows(table.n_rows());
    scheduler.run_llm(table.n_cols(), |j| {
        let ctx = AttributeContext {
            table,
            column: j,
            correlated: &correlated[j],
            sample_rows: &samples,
        };
        Some(llm.generate_criteria(&ctx))
    })
}

/// Evaluates every column's criteria over the full table, producing the
/// per-column extra feature blocks for the feature builder: one flat
/// `n_rows × n_criteria` matrix per column, and a 0×0 matrix for a column
/// without criteria. One scheduler task per column (criteria evaluation is
/// CPU-bound and embarrassingly parallel per column), honouring the
/// configured evaluation engine: compiled-VM per-distinct evaluation by
/// default, the per-cell AST oracle when pinned. `dict` must describe
/// `table`.
pub fn criteria_extra_dict_on(
    scheduler: &zeroed_runtime::Scheduler,
    criteria: &[Option<CriteriaSet>],
    table: &Table,
    dict: &TableDict,
    engine: CriteriaEngine,
) -> Vec<FeatureMatrix> {
    scheduler.run(criteria.len(), |j| match &criteria[j] {
        Some(set) if !set.is_empty() => {
            let block = match engine {
                CriteriaEngine::Compiled => criteria_features_dict(set, dict),
                CriteriaEngine::AstOracle => {
                    zeroed_criteria::verify::oracle::criteria_features(set, table)
                }
            };
            FeatureMatrix::from_flat(table.n_rows(), set.len(), block)
        }
        _ => FeatureMatrix::zeros(0, 0),
    })
}

/// Rows [`distinct_vectors`] fills per chunk: a 256-row buffer of a
/// ~110-wide attribute is ~110 KB, against ~21 MB for the whole matrix of
/// a 50k-row one.
const DISTINCT_CHUNK_ROWS: usize = 256;

/// Attribute `col`'s unified feature vectors, deduplicated: filled from the
/// fitted caches ([`FittedFeatures::unified_rows_into`]) a chunk of rows at
/// a time and grouped by bit pattern as they arrive
/// ([`DedupPoints::build_chunked`]), so only the distinct vectors and one
/// chunk are ever held, never the attribute's `n_rows × width` matrix.
/// Bit-identical to [`DedupPoints::build`] over
/// [`FittedFeatures::unified_matrix`]`(col)` on a table with rows.
pub fn distinct_vectors(fitted: &FittedFeatures<'_>, col: usize) -> DedupPoints {
    DedupPoints::build_chunked(
        fitted.dict().n_rows(),
        fitted.unified_dim(col),
        DISTINCT_CHUNK_ROWS,
        |rows, out| fitted.unified_rows_into(col, rows, out),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use zeroed_datagen::{generate, DatasetSpec, GenerateOptions};
    use zeroed_llm::SimLlm;

    #[test]
    fn prompt_rows_are_bounded_and_spread() {
        assert!(prompt_sample_rows(0).is_empty());
        assert_eq!(prompt_sample_rows(5), vec![0, 1, 2, 3, 4]);
        let rows = prompt_sample_rows(1_000);
        assert_eq!(rows.len(), 20);
        assert!(rows.windows(2).all(|w| w[1] > w[0]));
        assert!(*rows.last().unwrap() >= 900);
    }

    #[test]
    fn criteria_generation_respects_ablation() {
        let ds = generate(
            DatasetSpec::Flights,
            &GenerateOptions {
                n_rows: 100,
                seed: 1,
                error_spec: None,
            },
        );
        let llm = SimLlm::default_model(0);
        let config = ZeroEdConfig::fast();
        let corr = compute_correlated(&ds.dirty, &config);
        assert_eq!(corr.len(), ds.dirty.n_cols());
        assert!(corr.iter().all(|c| c.len() <= 2));

        let scheduler = zeroed_runtime::Scheduler::with_workers(1);
        let crit = generate_criteria_on(&scheduler, &ds.dirty, &corr, &config, &llm);
        assert!(crit
            .iter()
            .all(|c| c.as_ref().map(|s| !s.is_empty()).unwrap_or(false)));
        let dict = ds.dirty.intern();
        let extra_of = |crit: &[Option<CriteriaSet>]| {
            criteria_extra_dict_on(&scheduler, crit, &ds.dirty, &dict, CriteriaEngine::Compiled)
        };
        let extra = extra_of(&crit);
        assert_eq!(extra.len(), ds.dirty.n_cols());
        assert_eq!(extra[0].n_rows(), ds.dirty.n_rows());
        assert_eq!(extra[0].n_cols(), crit[0].as_ref().unwrap().len());

        let none = generate_criteria_on(
            &scheduler,
            &ds.dirty,
            &corr,
            &config.clone().without_criteria(),
            &llm,
        );
        assert!(none.iter().all(|c| c.is_none()));
        assert!(extra_of(&none).iter().all(|e| e.n_rows() == 0));
    }

    /// The streamed distinct vectors equal the dedup of the whole unified
    /// matrix bit for bit, on a table longer than one chunk with criteria
    /// blocks, duplicated rows and all-distinct attributes alike.
    #[test]
    fn distinct_vectors_match_the_dedup_of_the_unified_matrix() {
        let ds = generate(
            DatasetSpec::Flights,
            &GenerateOptions {
                n_rows: 2 * DISTINCT_CHUNK_ROWS + 37,
                seed: 5,
                error_spec: None,
            },
        );
        let config = ZeroEdConfig::default();
        let scheduler = zeroed_runtime::Scheduler::with_workers(1);
        let dict = std::sync::Arc::new(ds.dirty.intern());
        let corr = compute_correlated_dict(&dict, &config);
        let llm = SimLlm::default_model(0);
        let crit = generate_criteria_on(&scheduler, &ds.dirty, &corr, &config, &llm);
        let extra = criteria_extra_dict_on(
            &scheduler,
            &crit,
            &ds.dirty,
            &dict,
            CriteriaEngine::Compiled,
        );
        let builder = zeroed_features::FeatureBuilder::new(zeroed_features::FeatureConfig {
            embed_dim: config.embed_dim,
            top_k_corr: config.effective_top_k(),
            ..zeroed_features::FeatureConfig::default()
        });
        let fitted = builder.fit_prepared(&ds.dirty, dict, corr, &extra);
        let bits = |dd: &DedupPoints| -> Vec<u32> {
            (0..dd.n_unique())
                .flat_map(|u| dd.unique_row(u).iter().map(|x| x.to_bits()))
                .collect()
        };
        for j in 0..ds.dirty.n_cols() {
            let matrix = fitted.unified_matrix(j);
            let expected = DedupPoints::build(&matrix.row_refs());
            let streamed = distinct_vectors(&fitted, j);
            assert_eq!(streamed.dim(), matrix.n_cols(), "column {j}");
            assert_eq!(bits(&streamed), bits(&expected), "column {j}");
            assert_eq!(streamed.codes(), expected.codes(), "column {j}");
            assert_eq!(streamed.counts(), expected.counts(), "column {j}");
            assert_eq!(streamed.first_rows(), expected.first_rows(), "column {j}");
        }
    }

    #[test]
    fn ablated_correlation_gives_empty_lists() {
        let ds = generate(
            DatasetSpec::Beers,
            &GenerateOptions {
                n_rows: 80,
                seed: 2,
                error_spec: None,
            },
        );
        let corr = compute_correlated(&ds.dirty, &ZeroEdConfig::fast().without_correlated());
        assert!(corr.iter().all(|c| c.is_empty()));
    }
}
