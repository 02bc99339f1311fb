//! The [`LlmClient`] trait and the structured inputs and answers shared by
//! the ZeroED pipeline, the FM_ED baseline and the simulated model.

use crate::request::{Request, Response};
use crate::token::TokenLedger;
use zeroed_criteria::CriteriaSet;
use zeroed_table::{ErrorType, Table};

/// Everything an LLM call needs to know about the attribute it is working on.
#[derive(Debug, Clone, Copy)]
pub struct AttributeContext<'a> {
    /// The dirty table being cleaned.
    pub table: &'a Table,
    /// Index of the attribute under consideration.
    pub column: usize,
    /// Indices of the attribute's top correlated attributes (by NMI), used to
    /// provide cross-attribute context in prompts and reasoning.
    pub correlated: &'a [usize],
    /// Row indices of the representative samples selected by clustering.
    pub sample_rows: &'a [usize],
}

impl<'a> AttributeContext<'a> {
    /// Name of the attribute.
    pub fn column_name(&self) -> &str {
        &self.table.columns()[self.column]
    }

    /// Serialises one sample row restricted to this attribute and its
    /// correlated attributes — the batch format used in labelling prompts.
    pub fn serialize_row(&self, row: usize) -> String {
        let mut parts = vec![format!(
            "{}: {}",
            self.column_name(),
            self.table.cell(row, self.column)
        )];
        for &q in self.correlated {
            parts.push(format!(
                "{}: {}",
                self.table.columns()[q],
                self.table.cell(row, q)
            ));
        }
        parts.join(" | ")
    }
}

/// The outcome of executing the LLM-written distribution-analysis functions
/// over the full dataset (paper Fig. 5, step 1).
#[derive(Debug, Clone)]
pub struct DistributionAnalysis {
    /// Attribute the analysis describes.
    pub column: String,
    /// Total number of records analysed.
    pub total_records: usize,
    /// Number of distinct values.
    pub distinct_values: usize,
    /// Fraction of missing values.
    pub missing_ratio: f64,
    /// Most frequent values with their counts.
    pub frequent_values: Vec<(String, usize)>,
    /// Rare values (candidates for outliers/typos).
    pub rare_values: Vec<String>,
    /// Most frequent generalised formats with their counts.
    pub frequent_patterns: Vec<(String, usize)>,
    /// `(min, mean, max)` for numeric attributes.
    pub numeric_summary: Option<(f64, f64, f64)>,
    /// Free-text findings, one line per analysis perspective.
    pub findings: Vec<String>,
}

/// Guidance for detecting one error type on one attribute.
#[derive(Debug, Clone)]
pub struct ErrorTypeGuide {
    /// Which error type this entry covers.
    pub error_type: ErrorType,
    /// Concrete example values that would be erroneous.
    pub examples: Vec<String>,
    /// Likely causes.
    pub causes: String,
    /// How to detect this error type on this attribute.
    pub detection: String,
}

/// The attribute-specific error-detection guideline produced by the two-step
/// reasoning process (paper §III-C).
#[derive(Debug, Clone)]
pub struct Guideline {
    /// Attribute the guideline applies to.
    pub column: String,
    /// Natural-language explanation of the attribute's meaning.
    pub explanation: String,
    /// Per-error-type guidance.
    pub error_types: Vec<ErrorTypeGuide>,
}

impl Guideline {
    /// Renders the guideline as the text block inserted into labelling
    /// prompts.
    pub fn render(&self) -> String {
        let mut out = format!(
            "Attribute '{}': {}\n\nError types and analysis:\n",
            self.column, self.explanation
        );
        for (i, guide) in self.error_types.iter().enumerate() {
            out.push_str(&format!(
                "{}. {}\n   - examples: {}\n   - causes: {}\n   - detection: {}\n",
                i + 1,
                guide.error_type,
                guide.examples.join(", "),
                guide.causes,
                guide.detection
            ));
        }
        out
    }
}

/// The interface between ZeroED and a large language model.
///
/// A client answers one [`Request`] at a time through
/// [`LlmClient::complete`], the one method a model, or a layer stacked on
/// one, has to write besides [`LlmClient::name`] and
/// [`LlmClient::ledger`]. The typed calls the pipeline and the baselines
/// make ([`LlmClient::label_batch`] and the rest, one per prompt family)
/// build the request and unwrap the [`Response`]; implementors never
/// override them. Implementations must be deterministic for a fixed seed so
/// that experiments are reproducible, and must account for their token
/// usage in [`LlmClient::ledger`].
pub trait LlmClient: Send + Sync {
    /// Model name (e.g. `Qwen2.5-72b`).
    fn name(&self) -> &str;

    /// The shared token ledger for this client.
    fn ledger(&self) -> &TokenLedger;

    /// Answers one request with the response variant its kind calls for
    /// (see each [`Request`] variant).
    fn complete(&self, request: &Request<'_>) -> Response;

    /// Reasons about error causes for an attribute and emits executable
    /// error-checking criteria (paper §III-B, Fig. 4).
    fn generate_criteria(&self, ctx: &AttributeContext<'_>) -> CriteriaSet {
        self.complete(&Request::Criteria { ctx: *ctx })
            .into_criteria()
    }

    /// Writes and "executes" data-distribution analysis functions for an
    /// attribute, returning the aggregated analysis (paper Fig. 5, step 1).
    fn analyze_distribution(&self, ctx: &AttributeContext<'_>) -> DistributionAnalysis {
        self.complete(&Request::Analysis { ctx: *ctx })
            .into_analysis()
    }

    /// Generates the attribute-specific error-detection guideline from the
    /// distribution analysis and representative samples (paper Fig. 5, step 2).
    fn generate_guideline(
        &self,
        ctx: &AttributeContext<'_>,
        analysis: &DistributionAnalysis,
    ) -> Guideline {
        self.complete(&Request::Guideline {
            ctx: *ctx,
            analysis,
        })
        .into_guideline()
    }

    /// Labels a batch of sampled cells in context; `true` marks an error.
    /// `guideline` is `None` in the "w/o Guid." ablation.
    fn label_batch(
        &self,
        ctx: &AttributeContext<'_>,
        guideline: Option<&Guideline>,
        rows: &[usize],
    ) -> Vec<bool> {
        self.complete(&Request::Labels {
            ctx: *ctx,
            guideline,
            rows,
        })
        .into_flags()
    }

    /// Refines an attribute's criteria through contrastive in-context
    /// learning, given examples of values labelled clean and erroneous
    /// (Algorithm 1 lines 4–7).
    fn refine_criteria(
        &self,
        ctx: &AttributeContext<'_>,
        clean_examples: &[String],
        error_examples: &[String],
        existing: &CriteriaSet,
    ) -> CriteriaSet {
        self.complete(&Request::Refine {
            ctx: *ctx,
            clean: clean_examples,
            errors: error_examples,
            existing,
        })
        .into_criteria()
    }

    /// Generates additional realistic error values for an attribute, based on
    /// verified clean examples (Algorithm 1 line 25).
    fn augment_errors(
        &self,
        ctx: &AttributeContext<'_>,
        clean_examples: &[String],
        count: usize,
    ) -> Vec<String> {
        self.complete(&Request::Augment {
            ctx: *ctx,
            clean: clean_examples,
            count,
        })
        .into_values()
    }

    /// FM_ED-style per-tuple detection: answers "is there an error in this
    /// tuple?" for every attribute of one tuple, without any dataset-level
    /// context. Returns one flag per column (`true` = error).
    fn detect_tuple(&self, table: &Table, row: usize) -> Vec<bool> {
        self.complete(&Request::Tuple { table, row }).into_flags()
    }

    /// Hash of any *hidden* per-request state a caching layer must fold into
    /// its content-addressed request keys.
    ///
    /// A served model at temperature 0 is a pure function of the prompt, so
    /// the default is `0` (prompt content alone identifies the response). The
    /// simulated model is not: its answers additionally depend on its seed and
    /// on the ground-truth oracle for the cells of the request's
    /// [`Request::target`], so it overrides this to hash that state. Without
    /// the override, two content-identical requests about different cells
    /// could share a cache entry and break the bit-identical-to-sequential
    /// guarantee of `zeroed-runtime`.
    fn request_salt(&self, request: &Request<'_>) -> u64 {
        let _ = request;
        0
    }

    /// Marks the request identified by `salt` as being re-issued on
    /// `attempt` (1 = the repair layer's single bounded re-ask; 0 clears the
    /// mark once the re-ask returns).
    ///
    /// A served client needs no notion of attempts — retrying simply issues
    /// the same request again — so the default is a no-op. The simulator
    /// overrides it: its seeded [`crate::MangleSchedule`] folds the attempt
    /// number into the corruption draw, so a re-ask of a mangled request
    /// redraws independently (usually healthy, occasionally re-mangled), and
    /// its ledger books the re-ask's tokens on the distinct `reask` line.
    /// Composite clients (the repair and caching layers) forward the mark
    /// to their inner client.
    fn note_reask(&self, salt: u64, attempt: u32) {
        let _ = (salt, attempt);
    }

    /// How many requests this client can serve at once, if it knows.
    ///
    /// The pipeline sizes its LLM fan-outs (criteria generation, labelling,
    /// training-data construction) from this when
    /// `RuntimeConfig::workers` is 0, and falls back to one request per
    /// core when it is `None` (the default). The simulator reports its
    /// fixed serving capacity; composite clients forward their inner
    /// client's answer.
    fn max_in_flight(&self) -> Option<usize> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_serialization_includes_correlated_attributes() {
        let table = Table::new(
            "t",
            vec!["name".into(), "gender".into(), "salary".into()],
            vec![vec!["Bob".into(), "M".into(), "80000".into()]],
        )
        .unwrap();
        let corr = vec![1usize];
        let ctx = AttributeContext {
            table: &table,
            column: 0,
            correlated: &corr,
            sample_rows: &[0],
        };
        assert_eq!(ctx.column_name(), "name");
        assert_eq!(ctx.serialize_row(0), "name: Bob | gender: M");
    }

    #[test]
    fn guideline_rendering_mentions_every_error_type() {
        let g = Guideline {
            column: "zip".into(),
            explanation: "US postal code".into(),
            error_types: vec![
                ErrorTypeGuide {
                    error_type: ErrorType::MissingValue,
                    examples: vec!["".into(), "N/A".into()],
                    causes: "form left blank".into(),
                    detection: "flag empty or placeholder values".into(),
                },
                ErrorTypeGuide {
                    error_type: ErrorType::PatternViolation,
                    examples: vec!["9021".into()],
                    causes: "truncated on import".into(),
                    detection: "values must be exactly five digits".into(),
                },
            ],
        };
        let text = g.render();
        assert!(text.contains("missing value"));
        assert!(text.contains("pattern violation"));
        assert!(text.contains("five digits"));
    }
}
