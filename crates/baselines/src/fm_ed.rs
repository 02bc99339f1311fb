//! FM_ED: LLM prompt-based per-tuple error detection.
//!
//! The "can foundation models wrangle your data?" approach asks the LLM, for
//! each tuple in isolation, whether its values are erroneous. It needs neither
//! criteria nor labels, but it lacks dataset-level context (so rule violations
//! and distribution outliers are largely invisible to it) and it spends input
//! tokens on every single tuple — the behaviour the paper contrasts with
//! ZeroED in Table III and Fig. 8.

use crate::{Baseline, BaselineInput};
use zeroed_llm::LlmClient;
use zeroed_table::ErrorMask;

/// The FM_ED baseline; wraps an [`LlmClient`] used for per-tuple prompts.
pub struct FmEd<'a> {
    llm: &'a dyn LlmClient,
}

impl<'a> FmEd<'a> {
    /// Creates the baseline around an LLM client.
    pub fn new(llm: &'a dyn LlmClient) -> Self {
        Self { llm }
    }
}

impl Baseline for FmEd<'_> {
    fn name(&self) -> &'static str {
        "FM_ED"
    }

    fn detect(&self, input: &BaselineInput<'_>) -> ErrorMask {
        let table = input.dirty;
        let mut mask = ErrorMask::for_table(table);
        for row in 0..table.n_rows() {
            let flags = self.llm.detect_tuple(table, row);
            for (col, &flag) in flags.iter().enumerate().take(table.n_cols()) {
                if flag {
                    mask.set(row, col, true);
                }
            }
        }
        mask
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zeroed_datagen::{generate, DatasetSpec, GenerateOptions};
    use zeroed_llm::SimLlm;
    use zeroed_table::ErrorType;

    #[test]
    fn queries_every_tuple_and_spends_input_tokens() {
        let ds = generate(
            DatasetSpec::Hospital,
            &GenerateOptions {
                n_rows: 80,
                seed: 4,
                error_spec: None,
            },
        );
        let types: Vec<_> = ds
            .injected
            .iter()
            .map(|e| ((e.row, e.col), e.error_type))
            .collect();
        let llm = SimLlm::default_model(6)
            .with_oracle(ds.mask.clone())
            .with_error_types(types);
        let fm = FmEd::new(&llm);
        let input = BaselineInput {
            dirty: &ds.dirty,
            metadata: &ds.metadata,
            labeled: &[],
        };
        let mask = fm.detect(&input);
        let usage = llm.ledger().usage();
        assert_eq!(usage.requests, 80, "one request per tuple");
        assert!(usage.input_tokens > usage.output_tokens, "input-heavy");
        let report = mask.score_against(&ds.mask).unwrap();
        assert!(
            report.f1 > 0.2,
            "FM_ED should find the easy errors: {report}"
        );
        assert_eq!(fm.name(), "FM_ED");
    }

    #[test]
    fn misses_most_rule_violations() {
        let ds = generate(
            DatasetSpec::Beers,
            &GenerateOptions {
                n_rows: 200,
                seed: 8,
                error_spec: Some(zeroed_datagen::ErrorSpec::only(
                    ErrorType::RuleViolation,
                    0.05,
                )),
            },
        );
        let types: Vec<_> = ds
            .injected
            .iter()
            .map(|e| ((e.row, e.col), e.error_type))
            .collect();
        let llm = SimLlm::default_model(6)
            .with_oracle(ds.mask.clone())
            .with_error_types(types);
        let fm = FmEd::new(&llm);
        let input = BaselineInput {
            dirty: &ds.dirty,
            metadata: &ds.metadata,
            labeled: &[],
        };
        let report = fm.detect(&input).score_against(&ds.mask).unwrap();
        assert!(
            report.recall < 0.6,
            "per-tuple prompting should miss most rule violations: {report}"
        );
    }
}
