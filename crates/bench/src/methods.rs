//! Uniform wrapper around every evaluated method (ZeroED + the six baselines).

use std::time::{Duration, Instant};
use zeroed_baselines::{
    ActiveClean, Baseline, BaselineInput, DBoost, FmEd, Katara, LabeledTuple, Nadeef, Raha,
};
use zeroed_core::{ZeroEd, ZeroEdConfig};
use zeroed_datagen::GeneratedDataset;
use zeroed_llm::{LlmClient, LlmProfile, SimLlm, TokenUsage};
use zeroed_table::DetectionReport;

/// A method under evaluation.
#[derive(Debug, Clone)]
pub enum Method {
    /// dBoost with its default statistical configuration.
    DBoost,
    /// NADEEF with the dataset's constraints and patterns.
    Nadeef,
    /// KATARA with the dataset's knowledge base.
    Katara,
    /// ActiveClean with `labeled_tuples` labelled records.
    ActiveClean {
        /// Number of labelled tuples given to the method.
        labeled_tuples: usize,
    },
    /// Raha with `labeled_tuples` labelled records.
    Raha {
        /// Number of labelled tuples given to the method.
        labeled_tuples: usize,
    },
    /// The LLM prompt-per-tuple baseline.
    FmEd,
    /// ZeroED with the given configuration (boxed: it is far larger than
    /// the other variants).
    ZeroEd(Box<ZeroEdConfig>),
}

impl Method {
    /// Display name matching the paper's tables.
    pub fn name(&self) -> String {
        match self {
            Method::DBoost => "dBoost".into(),
            Method::Nadeef => "NADEEF".into(),
            Method::Katara => "KATARA".into(),
            Method::ActiveClean { .. } => "ActiveClean".into(),
            Method::Raha { .. } => "Raha".into(),
            Method::FmEd => "FM_ED".into(),
            Method::ZeroEd(_) => "ZeroED".into(),
        }
    }

    /// The default line-up of the paper's Table III (2 labelled tuples for the
    /// manual-label baselines, default ZeroED configuration).
    pub fn paper_lineup(zeroed_config: ZeroEdConfig) -> Vec<Method> {
        vec![
            Method::DBoost,
            Method::Nadeef,
            Method::Katara,
            Method::ActiveClean { labeled_tuples: 2 },
            Method::Raha { labeled_tuples: 2 },
            Method::FmEd,
            Method::ZeroEd(Box::new(zeroed_config)),
        ]
    }
}

/// Outcome of running one method on one dataset.
#[derive(Debug, Clone)]
pub struct MethodResult {
    /// Cell-level precision/recall/F1 against the ground truth.
    pub report: DetectionReport,
    /// End-to-end wall-clock runtime.
    pub runtime: Duration,
    /// LLM token usage (zero for non-LLM methods).
    pub tokens: TokenUsage,
}

/// Deterministically selects `n` tuples to hand to the manual-label baselines:
/// an even stride over the table, which mixes clean and dirty tuples the same
/// way a human annotator sampling the file would.
pub fn labeled_tuple_rows(ds: &GeneratedDataset, n: usize) -> Vec<usize> {
    let n_rows = ds.dirty.n_rows();
    if n == 0 || n_rows == 0 {
        return Vec::new();
    }
    let take = n.min(n_rows);
    let stride = (n_rows / take).max(1);
    (0..n_rows).step_by(stride).take(take).collect()
}

/// Builds the simulated LLM for a dataset: oracle mask + per-cell error types,
/// with the requested backbone profile.
pub fn simulated_llm(ds: &GeneratedDataset, profile: LlmProfile, seed: u64) -> SimLlm {
    let types: Vec<_> = ds
        .injected
        .iter()
        .map(|e| ((e.row, e.col), e.error_type))
        .collect();
    SimLlm::new(profile, seed)
        .with_oracle(ds.mask.clone())
        .with_error_types(types)
}

/// Runs one method on one prepared dataset and scores it against the ground
/// truth.
pub fn run_method(
    method: &Method,
    ds: &GeneratedDataset,
    llm_profile: LlmProfile,
    seed: u64,
) -> MethodResult {
    let start = Instant::now();
    let (mask, tokens) = match method {
        Method::DBoost => {
            let input = BaselineInput {
                dirty: &ds.dirty,
                metadata: &ds.metadata,
                labeled: &[],
            };
            (DBoost::default().detect(&input), TokenUsage::default())
        }
        Method::Nadeef => {
            let input = BaselineInput {
                dirty: &ds.dirty,
                metadata: &ds.metadata,
                labeled: &[],
            };
            (Nadeef::default().detect(&input), TokenUsage::default())
        }
        Method::Katara => {
            let input = BaselineInput {
                dirty: &ds.dirty,
                metadata: &ds.metadata,
                labeled: &[],
            };
            (Katara.detect(&input), TokenUsage::default())
        }
        Method::ActiveClean { labeled_tuples } => {
            let rows = labeled_tuple_rows(ds, *labeled_tuples);
            let labeled = LabeledTuple::from_mask(&ds.mask, &rows);
            let input = BaselineInput {
                dirty: &ds.dirty,
                metadata: &ds.metadata,
                labeled: &labeled,
            };
            (ActiveClean::default().detect(&input), TokenUsage::default())
        }
        Method::Raha { labeled_tuples } => {
            let rows = labeled_tuple_rows(ds, *labeled_tuples);
            let labeled = LabeledTuple::from_mask(&ds.mask, &rows);
            let input = BaselineInput {
                dirty: &ds.dirty,
                metadata: &ds.metadata,
                labeled: &labeled,
            };
            (
                Raha {
                    seed,
                    ..Raha::default()
                }
                .detect(&input),
                TokenUsage::default(),
            )
        }
        Method::FmEd => {
            let llm = simulated_llm(ds, llm_profile, seed);
            let fm = FmEd::new(&llm);
            let input = BaselineInput {
                dirty: &ds.dirty,
                metadata: &ds.metadata,
                labeled: &[],
            };
            let mask = fm.detect(&input);
            (mask, llm.ledger().usage())
        }
        Method::ZeroEd(config) => {
            let llm = simulated_llm(ds, llm_profile, seed);
            let mut config = (**config).clone();
            config.seed = seed;
            let outcome = ZeroEd::new(config).detect(&ds.dirty, &llm);
            (outcome.mask, llm.ledger().usage())
        }
    };
    let runtime = start.elapsed();
    let report = mask
        .score_against(&ds.mask)
        .expect("prediction mask matches the dataset shape");
    MethodResult {
        report,
        runtime,
        tokens,
    }
}

/// Runs one method over several seeds and averages the reports (the paper
/// averages three repetitions).
pub fn run_method_averaged(
    method: &Method,
    ds: &GeneratedDataset,
    llm_profile: LlmProfile,
    seeds: &[u64],
) -> MethodResult {
    let mut reports = Vec::new();
    let mut runtime = Duration::ZERO;
    let mut tokens = TokenUsage::default();
    for &seed in seeds {
        let r = run_method(method, ds, llm_profile.clone(), seed);
        reports.push(r.report);
        runtime += r.runtime;
        tokens.input_tokens += r.tokens.input_tokens;
        tokens.output_tokens += r.tokens.output_tokens;
        tokens.requests += r.tokens.requests;
    }
    let n = seeds.len().max(1);
    MethodResult {
        report: DetectionReport::mean(&reports),
        runtime: runtime / n as u32,
        tokens: TokenUsage {
            input_tokens: tokens.input_tokens / n,
            output_tokens: tokens.output_tokens / n,
            requests: tokens.requests / n,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zeroed_datagen::{generate, DatasetSpec, GenerateOptions};

    fn tiny() -> GeneratedDataset {
        generate(
            DatasetSpec::Flights,
            &GenerateOptions {
                n_rows: 120,
                seed: 7,
                error_spec: None,
            },
        )
    }

    #[test]
    fn all_methods_run_on_a_tiny_dataset() {
        let ds = tiny();
        let config = ZeroEdConfig {
            label_rate: 0.08,
            ..ZeroEdConfig::fast()
        };
        for method in Method::paper_lineup(config) {
            let result = run_method(&method, &ds, LlmProfile::qwen_72b(), 1);
            assert!(
                result.report.precision >= 0.0 && result.report.precision <= 1.0,
                "{}",
                method.name()
            );
            if matches!(method, Method::FmEd | Method::ZeroEd(_)) {
                assert!(
                    result.tokens.requests > 0,
                    "{} should use the LLM",
                    method.name()
                );
            } else {
                assert_eq!(result.tokens.requests, 0, "{}", method.name());
            }
        }
    }

    #[test]
    fn labeled_rows_are_deterministic_and_bounded() {
        let ds = tiny();
        let rows = labeled_tuple_rows(&ds, 5);
        assert_eq!(rows.len(), 5);
        assert_eq!(rows, labeled_tuple_rows(&ds, 5));
        assert!(labeled_tuple_rows(&ds, 0).is_empty());
        assert_eq!(labeled_tuple_rows(&ds, 10_000).len(), ds.dirty.n_rows());
    }

    #[test]
    fn averaging_runs_multiple_seeds() {
        let ds = tiny();
        let result = run_method_averaged(&Method::DBoost, &ds, LlmProfile::qwen_72b(), &[1, 2]);
        assert!(result.report.f1 >= 0.0);
    }
}
