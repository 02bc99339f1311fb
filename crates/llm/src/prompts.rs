//! Prompt templates.
//!
//! These reproduce the prompt structures described in the paper (Fig. 5 and
//! §III-B/C/D): criteria-reasoning prompts, distribution-analysis prompts,
//! guideline-generation prompts, batched labelling prompts, contrastive
//! refinement prompts, error-augmentation prompts, and the single-tuple
//! prompt used by the FM_ED baseline. The simulated LLM renders them for
//! every call so that token accounting matches what a real deployment would
//! send and receive.

use crate::client::{AttributeContext, DistributionAnalysis, Guideline};

/// Standard description of the five common error types, inserted into
/// criteria-reasoning and guideline-generation prompts.
pub const ERROR_DESCRIPTIONS: &str = "Common error types:\n\
 1. Missing values: empty fields or null placeholders such as 'NULL', 'N/A' or '-'.\n\
 2. Typos: misspellings or character-level corruptions of otherwise valid values.\n\
 3. Pattern violations: values whose format differs from the attribute's expected format.\n\
 4. Outliers: values far outside the attribute's usual distribution or domain.\n\
 5. Rule violations: values inconsistent with related attributes (e.g. broken functional dependencies).";

fn serialize_samples(ctx: &AttributeContext<'_>, max_rows: usize) -> String {
    ctx.sample_rows
        .iter()
        .take(max_rows)
        .map(|&r| ctx.serialize_row(r))
        .collect::<Vec<_>>()
        .join("\n")
}

/// Prompt asking the model to reason about error causes and emit executable
/// error-checking criteria for one attribute (paper §III-B).
pub fn criteria_prompt(ctx: &AttributeContext<'_>) -> String {
    format!(
        "You are a top data scientist in data cleaning. Reason about the possible error causes \
for the attribute '{attr}' of the '{table}' table and write executable error-checking \
functions. Each function takes a row and the attribute name, and returns true when the value \
looks clean with respect to one specific error reason.\n\n{errors}\n\nSampled tuples:\n{samples}\n\n\
Return only the functions.",
        attr = ctx.column_name(),
        table = ctx.table.name(),
        errors = ERROR_DESCRIPTIONS,
        samples = serialize_samples(ctx, 20),
    )
}

/// Prompt asking the model to write data-distribution analysis functions for
/// one attribute (paper Fig. 5, left).
pub fn analysis_prompt(ctx: &AttributeContext<'_>) -> String {
    format!(
        "Based on the column '{attr}' with examples:\n{samples}\n\n\
Please generate Python functions to analyze the data distribution from various perspectives, \
so that we can verify whether an error is reasonable or not. Each function should:\n\
1. Take parameters (dirty_csv, attr_name)\n2. Return a string containing the detailed analysis results\n\
3. Do not enumerate all values, showing representative ones\n4. Also import necessary libraries",
        attr = ctx.column_name(),
        samples = serialize_samples(ctx, 20),
    )
}

/// Prompt asking the model to produce an attribute-specific error-detection
/// guideline from the distribution analysis (paper Fig. 5, right).
pub fn guideline_prompt(ctx: &AttributeContext<'_>, analysis: &DistributionAnalysis) -> String {
    format!(
        "You are a top data scientist in data cleaning. Please generate a comprehensive guideline \
for identifying and analyzing common errors in the '{attr}' attribute of the '{table}' table.\n\n\
Here is the data distribution analysis for '{attr}':\n{analysis}\n\n\
Here are examples for '{attr}' with strongly correlated attribute values:\n{samples}\n\n\
Please first explain the meaning of attribute '{attr}'. Then, for each error type below, \
considering the data distribution analysis results, provide specific causes, examples, and \
detection methods for '{attr}'.\n\n{errors}\n\n\
NOTE: When analyzing potential errors, only flag values as errors when you have high confidence.",
        attr = ctx.column_name(),
        table = ctx.table.name(),
        analysis = render_analysis(analysis),
        samples = serialize_samples(ctx, 20),
        errors = ERROR_DESCRIPTIONS,
    )
}

/// Renders the distribution analysis as the text block embedded in the
/// guideline prompt (and counted as output tokens of the analysis step).
pub fn render_analysis(analysis: &DistributionAnalysis) -> String {
    let mut out = format!(
        "**Analysis of '{}'**\nTotal records: {}\nDistinct values: {}\nMissing values: {:.2}%\n",
        analysis.column,
        analysis.total_records,
        analysis.distinct_values,
        analysis.missing_ratio * 100.0
    );
    if let Some((min, mean, max)) = analysis.numeric_summary {
        out.push_str(&format!(
            "Numeric range: min {min:.2}, mean {mean:.2}, max {max:.2}\n"
        ));
    }
    if !analysis.frequent_values.is_empty() {
        out.push_str("Most frequent values: ");
        out.push_str(
            &analysis
                .frequent_values
                .iter()
                .map(|(v, c)| format!("'{v}' ({c})"))
                .collect::<Vec<_>>()
                .join(", "),
        );
        out.push('\n');
    }
    if !analysis.frequent_patterns.is_empty() {
        out.push_str("Most frequent formats: ");
        out.push_str(
            &analysis
                .frequent_patterns
                .iter()
                .map(|(p, c)| format!("{p} ({c})"))
                .collect::<Vec<_>>()
                .join(", "),
        );
        out.push('\n');
    }
    if !analysis.rare_values.is_empty() {
        out.push_str(&format!(
            "Rare values: {}\n",
            analysis.rare_values.join(", ")
        ));
    }
    for finding in &analysis.findings {
        out.push_str(finding);
        out.push('\n');
    }
    out
}

/// Renders a criteria set the way the simulated model "writes" it back: one
/// checking function per criterion. Shared by [`crate::SimLlm`] and response
/// caches so that replayed responses account for exactly the output tokens the
/// original call charged.
pub fn render_criteria_response(set: &zeroed_criteria::CriteriaSet) -> String {
    set.criteria
        .iter()
        .map(|c| {
            format!(
                "def {}(row, attr):\n    # {}\n    return check(row[attr])\n",
                c.name, c.rationale
            )
        })
        .collect()
}

/// Renders a labelling response: one `clean`/`error` line per batch entry.
pub fn render_labels_response(labels: &[bool]) -> String {
    labels
        .iter()
        .enumerate()
        .map(|(i, &e)| format!("{}. {}\n", i + 1, if e { "error" } else { "clean" }))
        .collect()
}

/// Renders an error-augmentation response: one fabricated value per line.
pub fn render_augment_response(values: &[String]) -> String {
    values.join("\n")
}

/// Renders the FM_ED per-tuple response: `yes`/`no` per attribute.
pub fn render_tuple_response(flags: &[bool]) -> String {
    flags
        .iter()
        .map(|&e| if e { "yes " } else { "no " })
        .collect()
}

/// Prompt asking the model to label one batch of sampled values (paper
/// §III-C, context-aware LLM labelling).
pub fn labeling_prompt(
    ctx: &AttributeContext<'_>,
    guideline: Option<&Guideline>,
    rows: &[usize],
) -> String {
    let guideline_text = guideline
        .map(|g| g.render())
        .unwrap_or_else(|| ERROR_DESCRIPTIONS.to_string());
    let batch = rows
        .iter()
        .enumerate()
        .map(|(i, &r)| format!("{}. {}", i + 1, ctx.serialize_row(r)))
        .collect::<Vec<_>>()
        .join("\n");
    format!(
        "Task: decide for each value of attribute '{attr}' below whether it is clean or erroneous, \
following the detection guideline. Answer with one line per value: 'clean' or 'error'.\n\n\
Guideline:\n{guideline_text}\n\nValues (with correlated attribute context):\n{batch}",
        attr = ctx.column_name(),
    )
}

/// Prompt asking the model to refine criteria by contrasting clean and
/// erroneous examples (Algorithm 1, contrastive in-context prompting).
pub fn contrastive_prompt(
    ctx: &AttributeContext<'_>,
    clean_examples: &[String],
    error_examples: &[String],
) -> String {
    format!(
        "Below are values of attribute '{attr}' labelled clean and erroneous. Compare the two \
groups, identify the distinguishing error reasons, and update the error-checking functions \
accordingly.\n\nClean values:\n{clean}\n\nErroneous values:\n{dirty}\n\nReturn only the functions.",
        attr = ctx.column_name(),
        clean = clean_examples.join("\n"),
        dirty = error_examples.join("\n"),
    )
}

/// Prompt asking the model to synthesise additional realistic error values
/// (Algorithm 1, error augmentation).
pub fn augmentation_prompt(
    ctx: &AttributeContext<'_>,
    clean_examples: &[String],
    count: usize,
) -> String {
    format!(
        "Task: generate {count} realistic erroneous values for attribute '{attr}', based on the \
error reasons observed in this table (typos, missing placeholders, format corruption, outliers, \
inconsistent values). The errors should stay semantically close to the clean examples.\n\n\
Example clean values:\n{examples}",
        attr = ctx.column_name(),
        examples = clean_examples.join("\n"),
    )
}

/// The single-tuple prompt used by the FM_ED baseline ("Is there an error in
/// this tuple?").
pub fn tuple_prompt(table: &zeroed_table::Table, row: usize) -> String {
    format!(
        "Is there an error in this tuple from table '{name}'? Answer per attribute with yes or no.\n{tuple}",
        name = table.name(),
        tuple = table.serialize_tuple(row).unwrap_or_default(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use zeroed_table::Table;

    fn ctx_fixture() -> (Table, Vec<usize>, Vec<usize>) {
        let table = Table::new(
            "Flights",
            vec!["flight".into(), "sched_dep_time".into()],
            vec![
                vec!["AA-101".into(), "7:45 am".into()],
                vec!["UA-202".into(), "9:05 pm".into()],
            ],
        )
        .unwrap();
        (table, vec![1usize], vec![0usize, 1usize])
    }

    #[test]
    fn prompts_mention_attribute_and_samples() {
        let (table, corr, samples) = ctx_fixture();
        let ctx = AttributeContext {
            table: &table,
            column: 0,
            correlated: &corr,
            sample_rows: &samples,
        };
        for prompt in [
            criteria_prompt(&ctx),
            analysis_prompt(&ctx),
            labeling_prompt(&ctx, None, &samples),
        ] {
            assert!(prompt.contains("flight"), "{prompt}");
            assert!(prompt.contains("AA-101"), "{prompt}");
        }
        assert!(criteria_prompt(&ctx).contains("Rule violations"));
        let tuple = tuple_prompt(&table, 0);
        assert!(tuple.contains("sched_dep_time: 7:45 am"));
    }

    #[test]
    fn guideline_prompt_embeds_analysis() {
        let (table, corr, samples) = ctx_fixture();
        let ctx = AttributeContext {
            table: &table,
            column: 1,
            correlated: &corr,
            sample_rows: &samples,
        };
        let analysis = DistributionAnalysis {
            column: "sched_dep_time".into(),
            total_records: 2,
            distinct_values: 2,
            missing_ratio: 0.0,
            frequent_values: vec![("7:45 am".into(), 1)],
            rare_values: vec![],
            frequent_patterns: vec![("D[1]S[1]D[2]S[1]u[2]".into(), 2)],
            numeric_summary: None,
            findings: vec!["All values are 12-hour clock times.".into()],
        };
        let prompt = guideline_prompt(&ctx, &analysis);
        assert!(prompt.contains("12-hour clock times"));
        assert!(prompt.contains("Most frequent formats"));
        assert!(prompt.contains("only flag values as errors when you have high confidence"));
    }

    #[test]
    fn contrastive_and_augmentation_prompts() {
        let (table, corr, samples) = ctx_fixture();
        let ctx = AttributeContext {
            table: &table,
            column: 0,
            correlated: &corr,
            sample_rows: &samples,
        };
        let c = contrastive_prompt(&ctx, &["AA-101".into()], &["AA101".into()]);
        assert!(c.contains("Clean values"));
        assert!(c.contains("AA101"));
        let a = augmentation_prompt(&ctx, &["AA-101".into()], 5);
        assert!(a.contains("generate 5 realistic erroneous values"));
    }
}
