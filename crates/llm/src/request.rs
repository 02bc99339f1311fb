//! One request type for every prompt family.
//!
//! ZeroED sends the model six prompt families (criteria, distribution
//! analysis, guideline and label batches, criteria refinement and error
//! augmentation) and the FM_ED baseline a seventh (the tuple check). A
//! [`Request`] names one of them with its borrowed inputs, and it alone
//! knows what every layer of the serving stack needs from it: its
//! [`RequestKind`], its rendered prompt, the cells its answer depends on
//! beyond the prompt ([`Request::target`]) and the response text a
//! [`Response`] is charged as. A layer implements
//! [`crate::LlmClient::complete`] once instead of one method per family.

use crate::client::{AttributeContext, DistributionAnalysis, Guideline};
use crate::prompts;
use zeroed_criteria::CriteriaSet;
use zeroed_table::Table;

/// The prompt family a request belongs to. A caching layer folds it into
/// its request keys, so two families never share an entry even if they
/// rendered identical text. The discriminants are part of the persisted key
/// schema and never change.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum RequestKind {
    /// [`Request::Criteria`] (paper §III-B).
    Criteria = 1,
    /// [`Request::Analysis`] (paper Fig. 5, step 1).
    Analysis = 2,
    /// [`Request::Guideline`] (paper Fig. 5, step 2).
    Guideline = 3,
    /// [`Request::Labels`] (paper §III-C).
    LabelBatch = 4,
    /// [`Request::Refine`] (Algorithm 1 lines 4–7).
    Refine = 5,
    /// [`Request::Augment`] (Algorithm 1 line 25).
    Augment = 6,
    /// [`Request::Tuple`] (FM_ED baseline).
    Tuple = 7,
}

/// One LLM request with its borrowed inputs.
#[derive(Debug, Clone, Copy)]
pub enum Request<'a> {
    /// Reason about error causes and emit executable error-checking criteria
    /// (paper §III-B, Fig. 4). Answered with [`Response::Criteria`].
    Criteria {
        /// The attribute and its representative samples.
        ctx: AttributeContext<'a>,
    },
    /// Write and "execute" data-distribution analysis functions (paper
    /// Fig. 5, step 1). Answered with [`Response::Analysis`].
    Analysis {
        /// The attribute and its representative samples.
        ctx: AttributeContext<'a>,
    },
    /// Write the attribute's error-detection guideline from its distribution
    /// analysis (paper Fig. 5, step 2). Answered with [`Response::Guideline`].
    Guideline {
        /// The attribute and its representative samples.
        ctx: AttributeContext<'a>,
        /// The analysis the guideline builds on.
        analysis: &'a DistributionAnalysis,
    },
    /// Label a batch of sampled cells in context; `true` marks an error.
    /// Answered with one [`Response::Flags`] entry per row.
    Labels {
        /// The attribute being labelled.
        ctx: AttributeContext<'a>,
        /// `None` in the "w/o Guid." ablation.
        guideline: Option<&'a Guideline>,
        /// The rows of the batch.
        rows: &'a [usize],
    },
    /// Refine criteria through contrastive in-context learning (Algorithm 1
    /// lines 4–7). Answered with [`Response::Criteria`].
    Refine {
        /// The attribute whose criteria are refined.
        ctx: AttributeContext<'a>,
        /// Values labelled clean.
        clean: &'a [String],
        /// Values labelled erroneous.
        errors: &'a [String],
        /// The criteria the refinement starts from.
        existing: &'a CriteriaSet,
    },
    /// Generate realistic error values from verified clean examples
    /// (Algorithm 1 line 25). Answered with [`Response::Values`].
    Augment {
        /// The attribute to fabricate errors for.
        ctx: AttributeContext<'a>,
        /// Verified clean values to imitate.
        clean: &'a [String],
        /// How many error values to generate.
        count: usize,
    },
    /// FM_ED-style per-tuple check: "is there an error in this tuple?" for
    /// every attribute of one row, without dataset-level context. Answered
    /// with one [`Response::Flags`] entry per column.
    Tuple {
        /// The table the row belongs to.
        table: &'a Table,
        /// The row to check.
        row: usize,
    },
}

impl Request<'_> {
    /// The request's prompt family.
    pub fn kind(&self) -> RequestKind {
        match self {
            Request::Criteria { .. } => RequestKind::Criteria,
            Request::Analysis { .. } => RequestKind::Analysis,
            Request::Guideline { .. } => RequestKind::Guideline,
            Request::Labels { .. } => RequestKind::LabelBatch,
            Request::Refine { .. } => RequestKind::Refine,
            Request::Augment { .. } => RequestKind::Augment,
            Request::Tuple { .. } => RequestKind::Tuple,
        }
    }

    /// The rendered prompt ([`crate::prompts`]).
    pub fn prompt(&self) -> String {
        match self {
            Request::Criteria { ctx } => prompts::criteria_prompt(ctx),
            Request::Analysis { ctx } => prompts::analysis_prompt(ctx),
            Request::Guideline { ctx, analysis } => prompts::guideline_prompt(ctx, analysis),
            Request::Labels {
                ctx,
                guideline,
                rows,
            } => prompts::labeling_prompt(ctx, *guideline, rows),
            Request::Refine {
                ctx, clean, errors, ..
            } => prompts::contrastive_prompt(ctx, clean, errors),
            Request::Augment { ctx, clean, count } => {
                prompts::augmentation_prompt(ctx, clean, *count)
            }
            Request::Tuple { table, row } => prompts::tuple_prompt(table, *row),
        }
    }

    /// The cells the answer depends on beyond the prompt, as `(table,
    /// column, rows)`: what [`crate::LlmClient::request_salt`] hashes.
    /// `column` is `None` for the whole-tuple check. Criteria, analysis and
    /// guideline requests name their representative samples, a label batch
    /// its rows, refinement and augmentation no rows, and the tuple check
    /// its one row.
    pub fn target(&self) -> (&Table, Option<usize>, &[usize]) {
        match self {
            Request::Criteria { ctx }
            | Request::Analysis { ctx }
            | Request::Guideline { ctx, .. } => (ctx.table, Some(ctx.column), ctx.sample_rows),
            Request::Labels { ctx, rows, .. } => (ctx.table, Some(ctx.column), *rows),
            Request::Refine { ctx, .. } | Request::Augment { ctx, .. } => {
                (ctx.table, Some(ctx.column), &[])
            }
            Request::Tuple { table, row } => (*table, None, std::slice::from_ref(row)),
        }
    }

    /// The response text `response` is charged as: what the model writes
    /// back, rendered by the same [`crate::prompts`] helpers every layer
    /// counts tokens with.
    pub fn render(&self, response: &Response) -> String {
        match response {
            Response::Criteria(set) => prompts::render_criteria_response(set),
            Response::Analysis(analysis) => prompts::render_analysis(analysis),
            Response::Guideline(guideline) => guideline.render(),
            Response::Flags(flags) if matches!(self, Request::Tuple { .. }) => {
                prompts::render_tuple_response(flags)
            }
            Response::Flags(flags) => prompts::render_labels_response(flags),
            Response::Values(values) => prompts::render_augment_response(values),
        }
    }
}

/// A structured LLM response. The response cache stores it by value and
/// the on-disk store encodes it, so a replay hands back the exact value the
/// model returned.
#[derive(Debug, Clone)]
pub enum Response {
    /// Criteria set (criteria generation and refinement).
    Criteria(CriteriaSet),
    /// Distribution analysis.
    Analysis(DistributionAnalysis),
    /// Detection guideline.
    Guideline(Guideline),
    /// Per-row labels (label batches) or per-column flags (tuple checks).
    Flags(Vec<bool>),
    /// Fabricated error values (augmentation).
    Values(Vec<String>),
}

impl Response {
    /// Short human-readable name of the variant (what the store's
    /// inspection tool prints as a record's kind).
    pub fn kind_name(&self) -> &'static str {
        match self {
            Response::Criteria(_) => "criteria",
            Response::Analysis(_) => "analysis",
            Response::Guideline(_) => "guideline",
            Response::Flags(_) => "flags",
            Response::Values(_) => "values",
        }
    }

    /// The criteria set. Panics on any other variant: a client answered a
    /// criteria request with the wrong kind of response.
    pub fn into_criteria(self) -> CriteriaSet {
        match self {
            Response::Criteria(set) => set,
            other => other.mismatch("criteria"),
        }
    }

    /// The distribution analysis. Panics on any other variant.
    pub fn into_analysis(self) -> DistributionAnalysis {
        match self {
            Response::Analysis(analysis) => analysis,
            other => other.mismatch("analysis"),
        }
    }

    /// The guideline. Panics on any other variant.
    pub fn into_guideline(self) -> Guideline {
        match self {
            Response::Guideline(guideline) => guideline,
            other => other.mismatch("guideline"),
        }
    }

    /// The flags. Panics on any other variant.
    pub fn into_flags(self) -> Vec<bool> {
        match self {
            Response::Flags(flags) => flags,
            other => other.mismatch("flags"),
        }
    }

    /// The values. Panics on any other variant.
    pub fn into_values(self) -> Vec<String> {
        match self {
            Response::Values(values) => values,
            other => other.mismatch("values"),
        }
    }

    fn mismatch(&self, wanted: &str) -> ! {
        panic!("expected a {wanted} response, got {}", self.kind_name())
    }
}
