//! The five error types of the ZeroED paper and a heuristic classifier.
//!
//! Section II of the paper distinguishes missing values, typos, pattern
//! violations, outliers and rule violations; Table II reports the per-type
//! error rates of each benchmark dataset using the following heuristics, which
//! this module reproduces:
//!
//! * **Missing values (MV)** — explicit or implicit placeholders;
//! * **Typos (T)** — dirty value within edit distance ≤ 3 of the clean value;
//! * **Pattern violations (PV)** — the dirty value's character pattern does not
//!   occur among clean values of the attribute;
//! * **Rule violations (RV)** — the dirty value breaks a functional dependency
//!   that holds on the clean data (detected against provided dependencies);
//! * **Outliers (O)** — dirty values with < 1% frequency in the attribute that
//!   do not fall in the previous classes.

use crate::mask::ErrorMask;
use crate::table::Table;
use crate::value::{edit_distance, is_missing};
use std::collections::{HashMap, HashSet};

/// The error taxonomy used throughout the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ErrorType {
    /// Empty fields or explicit/implicit null placeholders.
    MissingValue,
    /// Character-level corruptions close to the clean value.
    Typo,
    /// Values whose format differs from every clean format of the attribute.
    PatternViolation,
    /// Values far outside the attribute's distribution/domain.
    Outlier,
    /// Cross-attribute inconsistencies (e.g. broken functional dependencies).
    RuleViolation,
}

impl ErrorType {
    /// All five error types in the order used by the paper's tables.
    pub const ALL: [ErrorType; 5] = [
        ErrorType::MissingValue,
        ErrorType::PatternViolation,
        ErrorType::Typo,
        ErrorType::Outlier,
        ErrorType::RuleViolation,
    ];

    /// Short code used in the paper's figures (MV, PV, T, O, RV).
    pub fn code(&self) -> &'static str {
        match self {
            ErrorType::MissingValue => "MV",
            ErrorType::Typo => "T",
            ErrorType::PatternViolation => "PV",
            ErrorType::Outlier => "O",
            ErrorType::RuleViolation => "RV",
        }
    }
}

impl std::fmt::Display for ErrorType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            ErrorType::MissingValue => "missing value",
            ErrorType::Typo => "typo",
            ErrorType::PatternViolation => "pattern violation",
            ErrorType::Outlier => "outlier",
            ErrorType::RuleViolation => "rule violation",
        };
        write!(f, "{name}")
    }
}

/// Generalises a value to the coarse `L2` character pattern used for
/// pattern-violation classification (letters → `L`, digits → `D`, whitespace →
/// `_`, everything else → `S`). The full three-level generalisation of §III-B
/// lives in `zeroed-features`; this compact variant is only used to decide
/// whether a dirty value's format appears among clean values.
fn coarse_pattern(value: &str) -> String {
    value
        .chars()
        .map(|c| {
            if c.is_alphabetic() {
                'L'
            } else if c.is_ascii_digit() {
                'D'
            } else if c.is_whitespace() {
                '_'
            } else {
                'S'
            }
        })
        .collect()
}

/// Classifies a single erroneous cell, given the dirty value, the clean value,
/// the set of clean coarse patterns of the attribute and the dirty value's
/// relative frequency within the attribute.
///
/// `violates_rule` should be `true` when the caller knows (from dataset
/// metadata / injected error bookkeeping) that the cell breaks a functional
/// dependency; pass `false` when unknown.
pub fn classify_error(
    dirty: &str,
    clean: &str,
    clean_patterns: &HashSet<String>,
    value_frequency: f64,
    violates_rule: bool,
) -> ErrorType {
    if is_missing(dirty) {
        return ErrorType::MissingValue;
    }
    if violates_rule {
        return ErrorType::RuleViolation;
    }
    if edit_distance(dirty, clean) <= 3 {
        return ErrorType::Typo;
    }
    if !clean_patterns.contains(&coarse_pattern(dirty)) {
        return ErrorType::PatternViolation;
    }
    if value_frequency < 0.01 {
        return ErrorType::Outlier;
    }
    // Fall back to rule violation: the value is well-formed and common, so the
    // inconsistency must be contextual.
    ErrorType::RuleViolation
}

/// Per-type error statistics for a (dirty, clean) table pair, as reported in
/// the paper's Table II.
#[derive(Debug, Clone)]
pub struct ErrorProfile {
    /// Overall cell error rate.
    pub error_rate: f64,
    /// Number of erroneous cells.
    pub error_count: usize,
    /// Count of errors per type.
    pub by_type: HashMap<ErrorType, usize>,
}

impl ErrorProfile {
    /// Rate (fraction of all cells) of one error type.
    pub fn rate(&self, ty: ErrorType, total_cells: usize) -> f64 {
        if total_cells == 0 {
            0.0
        } else {
            *self.by_type.get(&ty).unwrap_or(&0) as f64 / total_cells as f64
        }
    }
}

/// Computes the [`ErrorProfile`] of a dirty/clean pair by classifying every
/// differing cell. `rule_violation_cells` lets the caller pass cells known to
/// be rule violations (e.g. from the error injector's bookkeeping).
pub fn profile_errors(
    dirty: &Table,
    clean: &Table,
    rule_violation_cells: &HashSet<(usize, usize)>,
) -> crate::Result<ErrorProfile> {
    let mask = ErrorMask::diff(dirty, clean)?;
    // Pre-compute per-column clean pattern sets and dirty value frequencies.
    let mut clean_patterns: Vec<HashSet<String>> = Vec::with_capacity(dirty.n_cols());
    let mut value_counts: Vec<HashMap<&str, usize>> = Vec::with_capacity(dirty.n_cols());
    for j in 0..dirty.n_cols() {
        let mut pats = HashSet::new();
        let mut counts: HashMap<&str, usize> = HashMap::new();
        for i in 0..dirty.n_rows() {
            pats.insert(coarse_pattern(clean.cell(i, j)));
            *counts.entry(dirty.cell(i, j)).or_insert(0) += 1;
        }
        clean_patterns.push(pats);
        value_counts.push(counts);
    }
    let n_rows = dirty.n_rows().max(1);
    let mut by_type: HashMap<ErrorType, usize> = HashMap::new();
    for cell in mask.iter_errors() {
        let d = dirty.cell(cell.row, cell.col);
        let c = clean.cell(cell.row, cell.col);
        let freq =
            value_counts[cell.col].get(d).copied().unwrap_or(0) as f64 / n_rows as f64;
        let ty = classify_error(
            d,
            c,
            &clean_patterns[cell.col],
            freq,
            rule_violation_cells.contains(&(cell.row, cell.col)),
        );
        *by_type.entry(ty).or_insert(0) += 1;
    }
    Ok(ErrorProfile {
        error_rate: mask.error_rate(),
        error_count: mask.error_count(),
        by_type,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn patterns(values: &[&str]) -> HashSet<String> {
        values.iter().map(|v| coarse_pattern(v)).collect()
    }

    #[test]
    fn classify_missing_and_typo() {
        let pats = patterns(&["Bachelor", "Master"]);
        assert_eq!(
            classify_error("", "Bachelor", &pats, 0.2, false),
            ErrorType::MissingValue
        );
        assert_eq!(
            classify_error("NULL", "Bachelor", &pats, 0.2, false),
            ErrorType::MissingValue
        );
        assert_eq!(
            classify_error("Bechxlor", "Bachelor", &pats, 0.001, false),
            ErrorType::Typo
        );
    }

    #[test]
    fn classify_pattern_outlier_rule() {
        let pats = patterns(&["12:30 pm", "1:45 am"]);
        // "half past twelve" has a pattern (all letters) not seen among clean
        // values and is far (edit distance > 3) from the clean value.
        assert_eq!(
            classify_error("half past twelve", "12:30 pm", &pats, 0.001, false),
            ErrorType::PatternViolation
        );
        // Same pattern as clean values, rare, distant from clean value → outlier.
        let pats_num = patterns(&["80000", "64000"]);
        assert_eq!(
            classify_error("99999", "64000", &pats_num, 0.001, false),
            ErrorType::Outlier
        );
        // Known rule violation dominates.
        assert_eq!(
            classify_error("F", "M", &pats, 0.4, true),
            ErrorType::RuleViolation
        );
        // Frequent, well-formed and far from the clean value → rule violation fallback.
        let pats_name = patterns(&["pneumonia", "heart attack"]);
        assert_eq!(
            classify_error("pneumonia", "heart attack", &pats_name, 0.3, false),
            ErrorType::RuleViolation
        );
    }

    #[test]
    fn profile_counts_types() {
        let clean = Table::new(
            "t",
            vec!["name".into(), "code".into()],
            vec![
                vec!["alice".into(), "A-1".into()],
                vec!["bob".into(), "B-2".into()],
                vec!["carla".into(), "C-3".into()],
                vec!["dan".into(), "D-4".into()],
            ],
        )
        .unwrap();
        let mut dirty = clean.clone();
        dirty.set(0, 0, "alicf").unwrap(); // typo
        dirty.set(1, 1, "").unwrap(); // missing
        dirty.set(2, 1, "C3###").unwrap(); // pattern violation
        let profile = profile_errors(&dirty, &clean, &HashSet::new()).unwrap();
        assert_eq!(profile.error_count, 3);
        assert_eq!(profile.by_type.get(&ErrorType::Typo), Some(&1));
        assert_eq!(profile.by_type.get(&ErrorType::MissingValue), Some(&1));
        assert_eq!(profile.by_type.get(&ErrorType::PatternViolation), Some(&1));
        assert!(profile.rate(ErrorType::Typo, dirty.n_cells()) > 0.0);
    }

    #[test]
    fn codes_and_display() {
        assert_eq!(ErrorType::MissingValue.code(), "MV");
        assert_eq!(ErrorType::RuleViolation.code(), "RV");
        assert_eq!(format!("{}", ErrorType::Outlier), "outlier");
        assert_eq!(ErrorType::ALL.len(), 5);
    }
}
