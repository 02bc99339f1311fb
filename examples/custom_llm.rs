//! Plugging a custom LLM into ZeroED.
//!
//! ```text
//! cargo run --release --example custom_llm
//! ```
//!
//! The pipeline only talks to the `LlmClient` trait, so swapping the simulated
//! model for a served one (vLLM, an HTTP API, ...) means implementing that
//! trait. This example implements a tiny rule-of-thumb "LLM" from scratch —
//! it answers every request with simple heuristics — and runs the full
//! pipeline against it. A client provides one prompt method, `complete`,
//! which answers each kind of `Request` with its `Response` (besides `name`
//! and the token `ledger`); the example also shows how token accounting
//! works.

use zeroed::criteria::{Check, CriteriaSet, Criterion};
use zeroed::llm::{
    count_tokens, DistributionAnalysis, ErrorTypeGuide, Guideline, LlmClient, Request, Response,
    TokenLedger,
};
use zeroed::prelude::*;

/// A minimal hand-rolled "LLM": flags missing values and values it has never
/// seen more than once, and produces one not-missing criterion per attribute.
struct RuleOfThumbLlm {
    ledger: TokenLedger,
}

impl RuleOfThumbLlm {
    fn new() -> Self {
        Self {
            ledger: TokenLedger::new(),
        }
    }
}

impl LlmClient for RuleOfThumbLlm {
    fn name(&self) -> &str {
        "rule-of-thumb"
    }

    fn ledger(&self) -> &TokenLedger {
        &self.ledger
    }

    fn complete(&self, request: &Request<'_>) -> Response {
        let response = match *request {
            Request::Criteria { ctx } => {
                let mut set = CriteriaSet::new(ctx.column);
                set.criteria.push(Criterion::new(
                    format!("is_clean_{}_not_missing", ctx.column_name()),
                    "values should be present",
                    Check::NotMissing,
                ));
                Response::Criteria(set)
            }
            Request::Analysis { ctx } => Response::Analysis(DistributionAnalysis {
                column: ctx.column_name().to_string(),
                total_records: ctx.table.n_rows(),
                distinct_values: 0,
                missing_ratio: 0.0,
                frequent_values: vec![],
                rare_values: vec![],
                frequent_patterns: vec![],
                numeric_summary: None,
                findings: vec!["no analysis performed by this toy client".into()],
            }),
            Request::Guideline { ctx, .. } => Response::Guideline(Guideline {
                column: ctx.column_name().to_string(),
                explanation: "flag empty values and one-off strings".into(),
                error_types: vec![ErrorTypeGuide {
                    error_type: ErrorType::MissingValue,
                    examples: vec![String::new()],
                    causes: "blank fields".into(),
                    detection: "value is empty".into(),
                }],
            }),
            Request::Labels { ctx, rows, .. } => Response::Flags(
                rows.iter()
                    .map(|&row| {
                        let v = ctx.table.cell(row, ctx.column);
                        let occurrences = ctx
                            .table
                            .column_refs(ctx.column)
                            .iter()
                            .filter(|x| **x == v)
                            .count();
                        v.trim().is_empty() || occurrences <= 1
                    })
                    .collect(),
            ),
            Request::Refine { existing, .. } => Response::Criteria(existing.clone()),
            Request::Augment { clean, count, .. } => Response::Values(
                (0..count)
                    .map(|i| format!("{}x", clean[i % clean.len()]))
                    .collect(),
            ),
            Request::Tuple { table, row } => Response::Flags(
                (0..table.n_cols())
                    .map(|col| table.cell(row, col).trim().is_empty())
                    .collect(),
            ),
        };
        // Charge the rendered prompt and the answer's text, the way a served
        // model bills them.
        self.ledger.record_counts(
            count_tokens(&request.prompt()),
            count_tokens(&request.render(&response)),
        );
        response
    }
}

fn main() {
    let ds = generate(
        DatasetSpec::Hospital,
        &GenerateOptions {
            n_rows: 300,
            seed: 4,
            ..Default::default()
        },
    );

    let custom = RuleOfThumbLlm::new();
    let outcome = ZeroEd::new(ZeroEdConfig::fast()).detect(&ds.dirty, &custom);
    let report = outcome.mask.score_against(&ds.mask).unwrap();
    println!(
        "rule-of-thumb client: precision {:.3}, recall {:.3}, F1 {:.3}",
        report.precision, report.recall, report.f1
    );

    let simulated = SimLlm::default_model(4).with_oracle(ds.mask.clone());
    let outcome = ZeroEd::new(ZeroEdConfig::fast()).detect(&ds.dirty, &simulated);
    let report = outcome.mask.score_against(&ds.mask).unwrap();
    println!(
        "simulated Qwen2.5-72b:  precision {:.3}, recall {:.3}, F1 {:.3}",
        report.precision, report.recall, report.f1
    );
    println!("\ncustom client token usage: {:?}", custom.ledger().usage());
}
