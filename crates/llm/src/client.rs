//! The [`LlmClient`] trait and the structured request/response types shared by
//! the ZeroED pipeline, the FM_ED baseline and the simulated model.

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
/// Every method corresponds to one prompt family in the paper. Implementations
/// must be deterministic for a fixed seed so that experiments are
/// reproducible, and must account for their token usage in [`LlmClient::ledger`].
pub trait LlmClient: Send + Sync {
    /// Model name (e.g. `Qwen2.5-72b`).
    fn name(&self) -> &str;

    /// The shared token ledger for this client.
    fn ledger(&self) -> &TokenLedger;

    /// Reasons about error causes for an attribute and emits executable
    /// error-checking criteria (paper §III-B, Fig. 4).
    fn generate_criteria(&self, ctx: &AttributeContext<'_>) -> CriteriaSet;

    /// Writes and "executes" data-distribution analysis functions for an
    /// attribute, returning the aggregated analysis (paper Fig. 5, step 1).
    fn analyze_distribution(&self, ctx: &AttributeContext<'_>) -> DistributionAnalysis;

    /// Generates the attribute-specific error-detection guideline from the
    /// distribution analysis and representative samples (paper Fig. 5, step 2).
    fn generate_guideline(
        &self,
        ctx: &AttributeContext<'_>,
        analysis: &DistributionAnalysis,
    ) -> Guideline;

    /// Labels a batch of sampled cells in context; `true` marks an error.
    /// `guideline` is `None` in the "w/o Guid." ablation.
    fn label_batch(
        &self,
        ctx: &AttributeContext<'_>,
        guideline: Option<&Guideline>,
        rows: &[usize],
    ) -> Vec<bool>;

    /// Refines an attribute's criteria through contrastive in-context
    /// learning, given examples of values labelled clean and erroneous
    /// (Algorithm 1 lines 4–7).
    fn refine_criteria(
        &self,
        ctx: &AttributeContext<'_>,
        clean_examples: &[String],
        error_examples: &[String],
        existing: &CriteriaSet,
    ) -> CriteriaSet;

    /// Generates additional realistic error values for an attribute, based on
    /// verified clean examples (Algorithm 1 line 25).
    fn augment_errors(
        &self,
        ctx: &AttributeContext<'_>,
        clean_examples: &[String],
        count: usize,
    ) -> Vec<String>;

    /// FM_ED-style per-tuple detection: answers "is there an error in this
    /// tuple?" for every attribute of one tuple, without any dataset-level
    /// context. Returns one flag per column (`true` = error).
    fn detect_tuple(&self, table: &Table, row: usize) -> Vec<bool>;

    /// The model identity a caching layer folds into its content-addressed
    /// request keys (and persists with stored responses).
    ///
    /// Defaults to [`LlmClient::name`]. Composite clients whose *responses*
    /// are those of an underlying model override this: the multi-backend
    /// router in `zeroed-runtime` answers with whatever its
    /// response-equivalent backends answer, so it reports the backends'
    /// identity rather than its own `router[...]` display name — a routed run
    /// and a single-backend run then share cache entries (and cross-process
    /// store entries), which is what makes warm starts work across execution
    /// modes.
    fn cache_identity(&self) -> &str {
        self.name()
    }

    /// Hash of any *hidden* per-request state a caching layer must fold into
    /// its content-addressed request keys.
    ///
    /// A served model at temperature 0 is a pure function of the prompt, so
    /// the default is `0` (prompt content alone identifies the response). The
    /// simulated model is not: its answers additionally depend on its seed and
    /// on the ground-truth oracle for the referenced cells, so it overrides
    /// this to hash that state. Without the override, two content-identical
    /// requests about different cells could share a cache entry and break the
    /// bit-identical-to-sequential guarantee of `zeroed-runtime`.
    ///
    /// `column` is `None` for whole-tuple requests (FM_ED).
    fn request_salt(&self, table: &Table, column: Option<usize>, rows: &[usize]) -> u64 {
        let _ = (table, column, rows);
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
    /// Composite clients forward the mark: a caching layer to its inner
    /// client, the multi-backend router to *all* backends (any of them may
    /// end up executing the re-ask).
    fn note_reask(&self, salt: u64, attempt: u32) {
        let _ = (salt, attempt);
    }

    /// Simulated-fault probe for the request identified by `salt` (the value
    /// [`LlmClient::request_salt`] returns for it).
    ///
    /// Orchestration layers — in particular the multi-backend router in
    /// `zeroed-runtime` — consult this *before* executing a request so a
    /// backend scheduled to error or time out can be skipped, counted against
    /// its circuit breaker and failed over deterministically. The default is
    /// `None` (a served client's failures are real, not injected); the
    /// simulator answers from its seeded [`crate::FaultSchedule`], which keys
    /// the decision off the salt so runs stay reproducible regardless of
    /// scheduling.
    fn injected_fault(&self, salt: u64) -> Option<crate::FaultKind> {
        let _ = salt;
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
