//! Distribution analysis and guideline generation for the simulated LLM
//! (paper §III-C, Fig. 5).

use super::profiling::ColumnProfile;
use crate::client::{DistributionAnalysis, ErrorTypeGuide, Guideline};
use crate::mangle::MangleKind;
use zeroed_table::ErrorType;

/// Produces the distribution analysis that "executing the LLM-written analysis
/// functions over the whole dataset" yields.
pub fn build_analysis(profile: &ColumnProfile) -> DistributionAnalysis {
    let mut findings = Vec::new();
    findings.push(format!(
        "The attribute has {} distinct values over {} records.",
        profile.distinct(),
        profile.total
    ));
    if profile.missing_ratio > 0.0 {
        findings.push(format!(
            "{:.2}% of the values are missing or null placeholders.",
            profile.missing_ratio * 100.0
        ));
    }
    if profile.is_numeric() {
        if let Some((lo, hi)) = profile.numeric_bounds {
            findings.push(format!(
                "Values are numeric; the bulk of the distribution lies within [{lo:.2}, {hi:.2}]."
            ));
        }
    } else if profile.is_categorical() {
        findings.push(
            "The attribute is categorical; values outside the frequent categories are suspicious."
                .to_string(),
        );
    } else {
        findings.push(
            "The attribute is free text; formats are more informative than exact values."
                .to_string(),
        );
    }
    if profile.fd_mapping.is_some() {
        findings.push(
            "The attribute is strongly determined by a correlated attribute; inconsistent pairs indicate rule violations."
                .to_string(),
        );
    }
    DistributionAnalysis {
        column: profile.name.clone(),
        total_records: profile.total,
        distinct_values: profile.distinct(),
        missing_ratio: profile.missing_ratio,
        frequent_values: profile.top_values(5),
        rare_values: profile.rare_values(5),
        frequent_patterns: profile.top_patterns(3),
        numeric_summary: profile.numeric_summary,
        findings,
    }
}

/// Produces the attribute-specific error-detection guideline from the profile
/// and its distribution analysis.
pub fn build_guideline(profile: &ColumnProfile, analysis: &DistributionAnalysis) -> Guideline {
    let name = &profile.name;
    let explanation = if profile.is_numeric() {
        format!("'{name}' is a numeric attribute; typical values lie in a bounded range.")
    } else if profile.is_categorical() {
        format!(
            "'{name}' is a categorical attribute with {} frequent categories.",
            analysis.frequent_values.len()
        )
    } else {
        format!("'{name}' is a textual attribute whose values follow a small set of formats.")
    };

    let dominant_format = analysis
        .frequent_patterns
        .first()
        .map(|(p, _)| p.clone())
        .unwrap_or_else(|| "the dominant format".to_string());
    let frequent_example = analysis
        .frequent_values
        .first()
        .map(|(v, _)| v.clone())
        .unwrap_or_default();

    let error_types = vec![
        ErrorTypeGuide {
            error_type: ErrorType::MissingValue,
            examples: vec!["".into(), "NULL".into(), "N/A".into()],
            causes: "fields left blank at entry time or lost during integration".into(),
            detection: "flag empty strings and common null placeholders".into(),
        },
        ErrorTypeGuide {
            error_type: ErrorType::Typo,
            examples: profile.rare_values(3),
            causes: "manual entry mistakes producing rare, near-duplicate strings".into(),
            detection: format!(
                "flag rare values that are close (small edit distance) to frequent values such as '{frequent_example}'"
            ),
        },
        ErrorTypeGuide {
            error_type: ErrorType::PatternViolation,
            examples: vec![format!("values not matching {dominant_format}")],
            causes: "format drift between sources (different date/time/identifier conventions)".into(),
            detection: format!("flag values whose character format differs from {dominant_format}"),
        },
        ErrorTypeGuide {
            error_type: ErrorType::Outlier,
            examples: profile
                .numeric_summary
                .map(|(min, _, max)| vec![format!("{}", max * 100.0), format!("{}", min - 1.0)])
                .unwrap_or_else(|| vec!["values far outside the usual domain".into()]),
            causes: "unit mistakes, sensor faults or corrupted numeric entries".into(),
            detection: profile
                .numeric_bounds
                .map(|(lo, hi)| format!("flag numeric values outside [{lo:.2}, {hi:.2}]"))
                .unwrap_or_else(|| "flag values with frequency below 1% that do not fit the domain".into()),
        },
        ErrorTypeGuide {
            error_type: ErrorType::RuleViolation,
            examples: vec![format!("a '{name}' value inconsistent with its correlated attribute")],
            causes: "updates applied to one attribute but not its dependent attributes".into(),
            detection: if profile.fd_mapping.is_some() {
                "compare the value against the usual value for the same correlated attribute value"
                    .into()
            } else {
                "cross-check the value against related attributes in the same tuple".into()
            },
        },
    ];

    Guideline {
        column: name.clone(),
        explanation,
        error_types,
    }
}

/// Applies one seeded content corruption to a distribution-analysis response
/// (see [`crate::mangle`]). Scars: empty findings (a healthy analysis always
/// reports at least one), a non-finite missing ratio (the unrepairable
/// garbage sentinel), a column name outside the schema, or record counts that
/// cannot match the analysed table.
pub fn mangle_analysis(mut a: DistributionAnalysis, kind: MangleKind) -> DistributionAnalysis {
    match kind {
        MangleKind::TruncatedList => {
            a.findings.clear();
            a.rare_values.clear();
            a.frequent_patterns.truncate(1);
            a
        }
        MangleKind::MalformedJson => {
            a.missing_ratio = f64::NAN;
            a
        }
        MangleKind::HallucinatedColumn => {
            a.column = format!("{}_id", a.column);
            a
        }
        MangleKind::WrongArity => {
            a.total_records = a.total_records * 2 + 1;
            a.distinct_values = a.total_records + 1;
            a
        }
        MangleKind::SchemaDrift => {
            a.column = format!("{}::v2", a.column);
            a.total_records = 0;
            a
        }
        MangleKind::EmptyBody => DistributionAnalysis {
            column: String::new(),
            total_records: 0,
            distinct_values: 0,
            missing_ratio: f64::NAN,
            frequent_values: Vec::new(),
            rare_values: Vec::new(),
            frequent_patterns: Vec::new(),
            numeric_summary: None,
            findings: Vec::new(),
        },
    }
}

/// Applies one seeded content corruption to a guideline response (see
/// [`crate::mangle`]). Scars: fewer or more than the five canonical error
/// types, entries out of canonical order, a drifted column name, or the
/// empty/garbage sentinel with no salvageable entries.
pub fn mangle_guideline(mut g: Guideline, kind: MangleKind) -> Guideline {
    match kind {
        MangleKind::TruncatedList => {
            g.error_types.truncate(2);
            g
        }
        MangleKind::MalformedJson => {
            g.error_types.clear();
            g.explanation = "{ \"guideline\": [ unterminated".to_string();
            g
        }
        MangleKind::HallucinatedColumn => {
            g.column = format!("{}_notes", g.column);
            g
        }
        MangleKind::WrongArity => {
            if let Some(first) = g.error_types.first().cloned() {
                g.error_types.push(first);
            }
            g
        }
        MangleKind::SchemaDrift => {
            g.error_types.reverse();
            g
        }
        MangleKind::EmptyBody => Guideline {
            column: String::new(),
            explanation: String::new(),
            error_types: Vec::new(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zeroed_table::Table;

    fn profile() -> ColumnProfile {
        let rows: Vec<Vec<String>> = (0..100)
            .map(|i| {
                vec![
                    format!("{}", 40_000 + (i % 9) * 1_000),
                    ["Boston", "Denver"][i % 2].to_string(),
                ]
            })
            .collect();
        let t = Table::new("t", vec!["salary".into(), "city".into()], rows).unwrap();
        ColumnProfile::analyze(&t, 0, &[1])
    }

    #[test]
    fn analysis_summarises_column() {
        let p = profile();
        let a = build_analysis(&p);
        assert_eq!(a.column, "salary");
        assert_eq!(a.total_records, 100);
        assert_eq!(a.distinct_values, 9);
        assert!(a.numeric_summary.is_some());
        assert!(!a.findings.is_empty());
        assert!(!a.frequent_values.is_empty());
    }

    #[test]
    fn guideline_covers_all_five_error_types() {
        let p = profile();
        let a = build_analysis(&p);
        let g = build_guideline(&p, &a);
        assert_eq!(g.error_types.len(), 5);
        let types: Vec<ErrorType> = g.error_types.iter().map(|e| e.error_type).collect();
        for ty in ErrorType::ALL {
            assert!(types.contains(&ty), "missing {ty}");
        }
        let text = g.render();
        assert!(text.contains("salary"));
        assert!(text.contains("detection"));
    }

    #[test]
    fn numeric_guideline_mentions_bounds() {
        let p = profile();
        let a = build_analysis(&p);
        let g = build_guideline(&p, &a);
        let outlier = g
            .error_types
            .iter()
            .find(|e| e.error_type == ErrorType::Outlier)
            .unwrap();
        assert!(outlier.detection.contains("flag numeric values outside"));
    }

    #[test]
    fn every_mangle_kind_scars_analysis_and_guideline() {
        let p = profile();
        let a = build_analysis(&p);
        let g = build_guideline(&p, &a);
        let analysis_scarred = |m: &DistributionAnalysis| {
            m.column != a.column
                || m.total_records != a.total_records
                || m.distinct_values > m.total_records
                || !m.missing_ratio.is_finite()
                || m.findings.is_empty()
        };
        let guideline_scarred = |m: &Guideline| {
            m.column != g.column
                || m.error_types.len() != g.error_types.len()
                || m.error_types
                    .iter()
                    .zip(g.error_types.iter())
                    .any(|(e, h)| e.error_type != h.error_type)
        };
        assert!(!analysis_scarred(&a), "healthy analysis must be unscarred");
        assert!(
            !guideline_scarred(&g),
            "healthy guideline must be unscarred"
        );
        for kind in MangleKind::ALL {
            assert!(
                analysis_scarred(&mangle_analysis(a.clone(), kind)),
                "{kind:?} left the analysis unscarred"
            );
            assert!(
                guideline_scarred(&mangle_guideline(g.clone(), kind)),
                "{kind:?} left the guideline unscarred"
            );
        }
    }
}
