//! BART-style error injection.
//!
//! The paper's synthetic datasets (Billionaire, Tax) were dirtied with the
//! BigDaMa error generator / BART; the real-world datasets contain organic
//! errors of the same five types. This module reproduces the operator set of
//! those tools: placeholder substitution (missing values), character edits
//! (typos), format corruption (pattern violations), numeric distortion
//! (outliers) and functional-dependency breaking (rule violations).
//!
//! Injection is deterministic given the seed and never corrupts the same cell
//! twice, so the resulting [`InjectionOutcome::mask`] is exactly the cell-wise
//! diff between the dirty and clean tables.

use crate::metadata::{DatasetMetadata, PatternKind};
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::HashSet;
use zeroed_table::{ErrorMask, ErrorType, Table};

/// Per-type cell corruption rates (fractions of all cells).
#[derive(Debug, Clone, PartialEq)]
pub struct ErrorSpec {
    /// Fraction of cells turned into missing values.
    pub missing: f64,
    /// Fraction of cells receiving typos.
    pub typo: f64,
    /// Fraction of cells receiving pattern violations.
    pub pattern: f64,
    /// Fraction of cells receiving outliers.
    pub outlier: f64,
    /// Fraction of cells receiving rule (FD) violations.
    pub rule: f64,
}

impl ErrorSpec {
    /// Creates a spec from the five per-type rates.
    pub fn new(missing: f64, pattern: f64, typo: f64, outlier: f64, rule: f64) -> Self {
        Self {
            missing,
            typo,
            pattern,
            outlier,
            rule,
        }
    }

    /// A spec with no errors at all.
    pub fn none() -> Self {
        Self::new(0.0, 0.0, 0.0, 0.0, 0.0)
    }

    /// A spec containing only a single error type at the given rate; used by
    /// the per-error-type experiment (paper Fig. 11).
    pub fn only(ty: ErrorType, rate: f64) -> Self {
        let mut spec = Self::none();
        match ty {
            ErrorType::MissingValue => spec.missing = rate,
            ErrorType::Typo => spec.typo = rate,
            ErrorType::PatternViolation => spec.pattern = rate,
            ErrorType::Outlier => spec.outlier = rate,
            ErrorType::RuleViolation => spec.rule = rate,
        }
        spec
    }

    /// Sum of the per-type rates (approximately the overall error rate).
    pub fn total_rate(&self) -> f64 {
        self.missing + self.typo + self.pattern + self.outlier + self.rule
    }

    /// Scales every rate by a factor.
    pub fn scaled(&self, factor: f64) -> Self {
        Self::new(
            self.missing * factor,
            self.pattern * factor,
            self.typo * factor,
            self.outlier * factor,
            self.rule * factor,
        )
    }
}

/// Bookkeeping for one injected error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectedError {
    /// Row of the corrupted cell.
    pub row: usize,
    /// Column of the corrupted cell.
    pub col: usize,
    /// Which error type was injected.
    pub error_type: ErrorType,
}

/// Result of injecting errors into a clean table.
#[derive(Debug, Clone)]
pub struct InjectionOutcome {
    /// The dirty table.
    pub dirty: Table,
    /// Ground-truth mask (equal to the dirty/clean diff).
    pub mask: ErrorMask,
    /// One record per corrupted cell.
    pub injected: Vec<InjectedError>,
}

/// Deterministic error injector.
#[derive(Debug, Clone)]
pub struct Injector {
    spec: ErrorSpec,
    seed: u64,
}

/// Placeholders used when injecting missing values (a mix of explicit and
/// implicit placeholders, as in the benchmarks).
const MISSING_SUBSTITUTES: &[&str] = &["", "", "NULL", "N/A", "-", "nan"];

impl Injector {
    /// Creates an injector with the given per-type rates and seed.
    pub fn new(spec: ErrorSpec, seed: u64) -> Self {
        Self { spec, seed }
    }

    /// Injects errors into `clean`, returning the dirty table, mask and
    /// per-cell bookkeeping.
    pub fn inject(&self, clean: &Table, metadata: &DatasetMetadata) -> InjectionOutcome {
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);
        let mut dirty = clean.clone();
        let n_rows = clean.n_rows();
        let n_cols = clean.n_cols();
        let n_cells = n_rows * n_cols;
        let mut corrupted: HashSet<(usize, usize)> = HashSet::new();
        let mut injected = Vec::new();

        if n_rows < 2 || n_cols == 0 {
            let mask = ErrorMask::for_table(&dirty);
            return InjectionOutcome {
                dirty,
                mask,
                injected,
            };
        }

        // Column groups used to pick suitable targets per error type.
        let fd_dependent_cols: Vec<usize> = clean
            .columns()
            .iter()
            .enumerate()
            .filter(|(_, name)| !metadata.fds_determining(name).is_empty())
            .map(|(j, _)| j)
            .collect();
        let numeric_cols: Vec<usize> = clean
            .columns()
            .iter()
            .enumerate()
            .filter(|(_, name)| metadata.numeric_columns.contains(*name))
            .map(|(j, _)| j)
            .collect();
        let all_cols: Vec<usize> = (0..n_cols).collect();

        let plan: [(ErrorType, f64); 5] = [
            (ErrorType::RuleViolation, self.spec.rule),
            (ErrorType::PatternViolation, self.spec.pattern),
            (ErrorType::Outlier, self.spec.outlier),
            (ErrorType::Typo, self.spec.typo),
            (ErrorType::MissingValue, self.spec.missing),
        ];

        for (ty, rate) in plan {
            let target = (rate * n_cells as f64).round() as usize;
            if target == 0 {
                continue;
            }
            let candidate_cols: &[usize] = match ty {
                ErrorType::RuleViolation if !fd_dependent_cols.is_empty() => &fd_dependent_cols,
                ErrorType::Outlier if !numeric_cols.is_empty() => &numeric_cols,
                _ => &all_cols,
            };
            let mut placed = 0usize;
            let mut attempts = 0usize;
            let max_attempts = target * 30 + 200;
            while placed < target && attempts < max_attempts {
                attempts += 1;
                let row = rng.gen_range(0..n_rows);
                let col = candidate_cols[rng.gen_range(0..candidate_cols.len())];
                if corrupted.contains(&(row, col)) {
                    continue;
                }
                let original = clean.cell(row, col).to_string();
                let Some(new_value) =
                    self.corrupt(ty, &original, clean, metadata, row, col, &mut rng)
                else {
                    continue;
                };
                if new_value == original {
                    continue;
                }
                dirty
                    .set(row, col, new_value)
                    .expect("cell indices are in range");
                corrupted.insert((row, col));
                injected.push(InjectedError {
                    row,
                    col,
                    error_type: ty,
                });
                placed += 1;
            }
        }

        let mask = ErrorMask::diff(&dirty, clean).expect("dirty keeps the clean shape");
        InjectionOutcome {
            dirty,
            mask,
            injected,
        }
    }

    /// Produces a corrupted value of the requested error type, or `None` if
    /// the cell is unsuitable (e.g. already empty for a typo).
    #[allow(clippy::too_many_arguments)]
    fn corrupt(
        &self,
        ty: ErrorType,
        original: &str,
        clean: &Table,
        metadata: &DatasetMetadata,
        row: usize,
        col: usize,
        rng: &mut ChaCha8Rng,
    ) -> Option<String> {
        match ty {
            ErrorType::MissingValue => {
                let sub = MISSING_SUBSTITUTES[rng.gen_range(0..MISSING_SUBSTITUTES.len())];
                Some(sub.to_string())
            }
            ErrorType::Typo => inject_typo(original, rng),
            ErrorType::PatternViolation => {
                let pattern = metadata.pattern_for(&clean.columns()[col]);
                inject_pattern_violation(original, pattern, rng)
            }
            ErrorType::Outlier => inject_outlier(original, rng),
            ErrorType::RuleViolation => inject_rule_violation(original, clean, row, col, rng),
        }
    }
}

/// Applies 1–2 random character edits (substitution, deletion, insertion,
/// adjacent transposition) to a non-empty value.
fn inject_typo(original: &str, rng: &mut ChaCha8Rng) -> Option<String> {
    let chars: Vec<char> = original.chars().collect();
    if chars.is_empty() {
        return None;
    }
    let mut out = chars;
    let n_edits = 1 + usize::from(rng.gen_bool(0.4));
    for _ in 0..n_edits {
        if out.is_empty() {
            break;
        }
        let pos = rng.gen_range(0..out.len());
        match rng.gen_range(0..4u8) {
            0 => {
                // substitution with a nearby letter/digit
                let c = out[pos];
                out[pos] = substitute_char(c, rng);
            }
            1 => {
                out.remove(pos);
            }
            2 => {
                let c = random_char(rng);
                out.insert(pos, c);
            }
            _ => {
                if pos + 1 < out.len() {
                    out.swap(pos, pos + 1);
                }
            }
        }
    }
    Some(out.into_iter().collect())
}

fn substitute_char(c: char, rng: &mut ChaCha8Rng) -> char {
    if c.is_ascii_digit() {
        char::from(b'0' + rng.gen_range(0..10u8))
    } else if c.is_ascii_lowercase() {
        char::from(b'a' + rng.gen_range(0..26u8))
    } else if c.is_ascii_uppercase() {
        char::from(b'A' + rng.gen_range(0..26u8))
    } else {
        random_char(rng)
    }
}

fn random_char(rng: &mut ChaCha8Rng) -> char {
    const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789";
    ALPHABET[rng.gen_range(0..ALPHABET.len())] as char
}

/// Corrupts a value's *format*. When the column has a known [`PatternKind`], a
/// format-specific transformation that is guaranteed to break the pattern is
/// applied; otherwise a generic separator/case scramble is used.
fn inject_pattern_violation(
    original: &str,
    pattern: Option<&PatternKind>,
    rng: &mut ChaCha8Rng,
) -> Option<String> {
    if original.trim().is_empty() {
        return None;
    }
    let generic = |rng: &mut ChaCha8Rng, value: &str| -> String {
        match rng.gen_range(0..3u8) {
            0 => value
                .chars()
                .filter(|c| c.is_alphanumeric())
                .collect::<String>()
                .to_uppercase(),
            1 => format!("{value}##"),
            _ => value.replace([' ', ':', '-', '/'], "").to_lowercase(),
        }
    };
    let corrupted = match pattern {
        Some(PatternKind::Time12H) => {
            // Convert "7:45 am" → "0745" or "7.45am" (no longer a valid time).
            match rng.gen_range(0..2u8) {
                0 => original.replace([':', ' '], ""),
                _ => original.replace(':', ".").replace(' ', ""),
            }
        }
        Some(PatternKind::IsoDate) => {
            // "2015-04-30" → "30/04/2015" or "20150430"
            let parts: Vec<&str> = original.split('-').collect();
            if parts.len() == 3 {
                if rng.gen_bool(0.5) {
                    format!("{}/{}/{}", parts[2], parts[1], parts[0])
                } else {
                    parts.concat()
                }
            } else {
                generic(rng, original)
            }
        }
        Some(PatternKind::ZipCode) => {
            if rng.gen_bool(0.5) {
                original.chars().take(4).collect()
            } else {
                format!("{original}-0000x")
            }
        }
        Some(PatternKind::Phone) => original.replace(['(', ')', ' ', '-'], ""),
        Some(PatternKind::Issn) => original.replace('-', ""),
        Some(PatternKind::FlightNumber) => original.replace('-', "/"),
        _ => generic(rng, original),
    };
    if corrupted == original {
        Some(format!("{original}##"))
    } else {
        Some(corrupted)
    }
}

/// Distorts a numeric value far outside its usual range; for non-numeric cells
/// a rare random token is substituted.
fn inject_outlier(original: &str, rng: &mut ChaCha8Rng) -> Option<String> {
    if let Some(x) = zeroed_table::value::parse_numeric(original) {
        let factor = match rng.gen_range(0..4u8) {
            0 => 10.0,
            1 => 100.0,
            2 => 0.01,
            _ => -1.0,
        };
        let distorted = if x == 0.0 { 9999.0 } else { x * factor };
        // Preserve integer formatting for integer inputs.
        if original.chars().all(|c| c.is_ascii_digit() || c == '-') {
            Some(format!("{}", distorted.round() as i64))
        } else {
            Some(format!("{distorted:.2}"))
        }
    } else {
        // Rare random token, unlikely to repeat → low frequency.
        let token: String = (0..6).map(|_| random_char(rng)).collect();
        Some(format!("zq{token}"))
    }
}

/// Breaks a functional dependency by replacing the dependent value with a
/// value drawn from a *different* tuple of the same column (so the value stays
/// in-domain and well-formatted, but is inconsistent with its determinant).
fn inject_rule_violation(
    original: &str,
    clean: &Table,
    _row: usize,
    col: usize,
    rng: &mut ChaCha8Rng,
) -> Option<String> {
    let mut candidates: Vec<&str> = clean
        .rows()
        .iter()
        .map(|r| r[col].as_str())
        .filter(|v| *v != original && !v.trim().is_empty())
        .collect();
    if candidates.is_empty() {
        return None;
    }
    candidates.shuffle(rng);
    Some(candidates[0].to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metadata::{ColumnPattern, FunctionalDependency};

    fn clean_table(n: usize) -> (Table, DatasetMetadata) {
        let cities = ["Birmingham", "Phoenix", "Denver", "Boston"];
        let states = ["AL", "AZ", "CO", "MA"];
        let rows = (0..n)
            .map(|i| {
                let k = i % cities.len();
                vec![
                    format!("{:05}", 10000 + k),
                    cities[k].to_string(),
                    states[k].to_string(),
                    format!("{}", 1000 + (i % 17) * 10),
                ]
            })
            .collect();
        let table = Table::new(
            "mini",
            vec!["zip".into(), "city".into(), "state".into(), "salary".into()],
            rows,
        )
        .unwrap();
        let metadata = DatasetMetadata {
            fds: vec![
                FunctionalDependency::new("zip", "city"),
                FunctionalDependency::new("zip", "state"),
            ],
            patterns: vec![ColumnPattern::new("zip", PatternKind::ZipCode)],
            kb: vec![],
            numeric_columns: vec!["salary".into()],
            text_columns: vec!["city".into()],
        };
        (table, metadata)
    }

    #[test]
    fn injects_requested_amount_roughly() {
        let (clean, meta) = clean_table(500);
        let spec = ErrorSpec::new(0.02, 0.02, 0.02, 0.02, 0.02);
        let out = Injector::new(spec.clone(), 7).inject(&clean, &meta);
        let expected = (spec.total_rate() * clean.n_cells() as f64) as usize;
        let got = out.mask.error_count();
        assert!(
            got as f64 > expected as f64 * 0.7 && got <= expected,
            "expected about {expected}, got {got}"
        );
        assert_eq!(out.injected.len(), got);
    }

    #[test]
    fn injection_is_deterministic() {
        let (clean, meta) = clean_table(200);
        let spec = ErrorSpec::new(0.03, 0.02, 0.02, 0.01, 0.02);
        let a = Injector::new(spec.clone(), 99).inject(&clean, &meta);
        let b = Injector::new(spec, 99).inject(&clean, &meta);
        assert_eq!(a.dirty, b.dirty);
    }

    #[test]
    fn mask_matches_diff_and_types_recorded() {
        let (clean, meta) = clean_table(300);
        let out =
            Injector::new(ErrorSpec::new(0.02, 0.02, 0.02, 0.02, 0.03), 3).inject(&clean, &meta);
        for err in &out.injected {
            assert!(out.mask.get(err.row, err.col));
            assert_ne!(
                out.dirty.cell(err.row, err.col),
                clean.cell(err.row, err.col)
            );
        }
        let types: HashSet<ErrorType> = out.injected.iter().map(|e| e.error_type).collect();
        assert!(types.len() >= 4, "expected most error types, got {types:?}");
    }

    #[test]
    fn rule_violations_target_fd_columns() {
        let (clean, meta) = clean_table(300);
        let out =
            Injector::new(ErrorSpec::only(ErrorType::RuleViolation, 0.05), 5).inject(&clean, &meta);
        assert!(out.mask.error_count() > 0);
        for err in &out.injected {
            let col_name = &clean.columns()[err.col];
            assert!(
                col_name == "city" || col_name == "state",
                "rule violation should land on an FD-dependent column, got {col_name}"
            );
        }
    }

    #[test]
    fn outliers_target_numeric_columns() {
        let (clean, meta) = clean_table(300);
        let out = Injector::new(ErrorSpec::only(ErrorType::Outlier, 0.05), 5).inject(&clean, &meta);
        assert!(out.mask.error_count() > 0);
        for err in &out.injected {
            assert_eq!(clean.columns()[err.col], "salary");
        }
    }

    #[test]
    fn pattern_violations_break_the_pattern() {
        let (clean, meta) = clean_table(300);
        let out = Injector::new(ErrorSpec::only(ErrorType::PatternViolation, 0.05), 5)
            .inject(&clean, &meta);
        assert!(out.mask.error_count() > 0);
        for err in &out.injected {
            if clean.columns()[err.col] == "zip" {
                assert!(!PatternKind::ZipCode.matches(out.dirty.cell(err.row, err.col)));
            }
        }
    }

    #[test]
    fn no_errors_spec_produces_clean_copy() {
        let (clean, meta) = clean_table(50);
        let out = Injector::new(ErrorSpec::none(), 1).inject(&clean, &meta);
        assert_eq!(out.mask.error_count(), 0);
        assert_eq!(out.dirty, clean);
    }

    #[test]
    fn typo_helpers_behave() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        assert!(inject_typo("", &mut rng).is_none());
        let t = inject_typo("Birmingham", &mut rng).unwrap();
        assert_ne!(t, "");
        let o = inject_outlier("100", &mut rng).unwrap();
        assert!(zeroed_table::value::parse_numeric(&o).is_some());
        let p = inject_pattern_violation("7:45 am", Some(&PatternKind::Time12H), &mut rng).unwrap();
        assert!(!PatternKind::Time12H.matches(&p));
    }

    #[test]
    fn spec_helpers() {
        let spec = ErrorSpec::new(0.01, 0.02, 0.03, 0.04, 0.05);
        assert!((spec.total_rate() - 0.15).abs() < 1e-12);
        let scaled = spec.scaled(2.0);
        assert!((scaled.total_rate() - 0.30).abs() < 1e-12);
        let only = ErrorSpec::only(ErrorType::Typo, 0.1);
        assert_eq!(only.typo, 0.1);
        assert_eq!(only.missing, 0.0);
    }
}
