//! Step 1 — feature representation with criteria reasoning (paper §III-B).
//!
//! This module computes the correlated attributes, asks the LLM for
//! error-checking criteria per attribute, and turns those criteria into the
//! binary feature block passed to `zeroed-features` as `extra` features.

use crate::config::{CriteriaEngine, ZeroEdConfig};
use zeroed_criteria::{criteria_features_dict, CriteriaSet};
use zeroed_features::nmi::top_k_correlated_dict;
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
/// per-column extra feature blocks for the feature builder (columns without
/// criteria get an empty block). One scheduler task per column (criteria
/// evaluation is CPU-bound and embarrassingly parallel per column),
/// honouring the configured evaluation engine: compiled-VM per-distinct
/// evaluation by default, the per-cell AST oracle when pinned. `dict` must
/// describe `table`.
pub fn criteria_extra_dict_on(
    scheduler: &zeroed_runtime::Scheduler,
    criteria: &[Option<CriteriaSet>],
    table: &Table,
    dict: &TableDict,
    engine: CriteriaEngine,
) -> Vec<Vec<Vec<f32>>> {
    scheduler.run(criteria.len(), |j| match &criteria[j] {
        Some(set) if !set.is_empty() => match engine {
            CriteriaEngine::Compiled => criteria_features_dict(set, dict),
            CriteriaEngine::AstOracle => {
                zeroed_criteria::verify::oracle::criteria_features(set, table)
            }
        },
        _ => Vec::new(),
    })
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
        assert_eq!(extra[0].len(), ds.dirty.n_rows());

        let none = generate_criteria_on(
            &scheduler,
            &ds.dirty,
            &corr,
            &config.clone().without_criteria(),
            &llm,
        );
        assert!(none.iter().all(|c| c.is_none()));
        assert!(extra_of(&none).iter().all(|e| e.is_empty()));
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
