//! Per-dataset metadata consumed by criteria-based baselines and by the error
//! injector.
//!
//! The ZeroED paper gives the manual-criteria baselines (NADEEF, KATARA,
//! dBoost) their integrity constraints, regex-like patterns and knowledge
//! bases "from existing public code". In this reproduction the dataset
//! generators know their own ground-truth dependencies and formats, so they
//! export them here; ZeroED itself never reads this metadata (it is zero-shot).

use std::collections::{HashMap, HashSet};

/// A functional dependency `determinant → dependent` between two columns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FunctionalDependency {
    /// Left-hand-side (determining) column name.
    pub determinant: String,
    /// Right-hand-side (determined) column name.
    pub dependent: String,
}

impl FunctionalDependency {
    /// Convenience constructor.
    pub fn new(determinant: impl Into<String>, dependent: impl Into<String>) -> Self {
        Self {
            determinant: determinant.into(),
            dependent: dependent.into(),
        }
    }
}

/// Format/domain constraint kinds attachable to a column.
///
/// Each kind knows how to check a value ([`PatternKind::matches`]); NADEEF uses
/// them as pattern rules, dBoost uses the numeric ranges, and the injector uses
/// them to produce *pattern violations* that are guaranteed to break the
/// format.
#[derive(Debug, Clone, PartialEq)]
pub enum PatternKind {
    /// A 12-hour clock time such as `7:45 am` / `11:05 pm`.
    Time12H,
    /// A date formatted `YYYY-MM-DD`.
    IsoDate,
    /// A 5-digit ZIP code.
    ZipCode,
    /// A US-style phone number `(ddd) ddd-dddd`.
    Phone,
    /// An ISSN `dddd-dddx`.
    Issn,
    /// A flight number: two-letter airline code + 1-4 digits (e.g. `AA-1234`).
    FlightNumber,
    /// Integer within an inclusive range.
    IntRange {
        /// Minimum allowed value.
        min: i64,
        /// Maximum allowed value.
        max: i64,
    },
    /// Float within an inclusive range.
    FloatRange {
        /// Minimum allowed value.
        min: f64,
        /// Maximum allowed value.
        max: f64,
    },
    /// Value must belong to a fixed domain (case-insensitive comparison).
    OneOf(Vec<String>),
    /// Value must be non-empty.
    NonEmpty,
}

impl PatternKind {
    /// Checks whether a value conforms to the pattern. Missing values never
    /// conform (except for `NonEmpty`, which they also fail).
    pub fn matches(&self, value: &str) -> bool {
        let v = value.trim();
        match self {
            PatternKind::NonEmpty => !zeroed_table::value::is_missing(v),
            PatternKind::Time12H => matches_time12h(v),
            PatternKind::IsoDate => matches_iso_date(v),
            PatternKind::ZipCode => v.len() == 5 && v.chars().all(|c| c.is_ascii_digit()),
            PatternKind::Phone => matches_phone(v),
            PatternKind::Issn => matches_issn(v),
            PatternKind::FlightNumber => matches_flight(v),
            PatternKind::IntRange { min, max } => v
                .parse::<i64>()
                .map(|x| x >= *min && x <= *max)
                .unwrap_or(false),
            PatternKind::FloatRange { min, max } => zeroed_table::value::parse_numeric(v)
                .map(|x| x >= *min && x <= *max)
                .unwrap_or(false),
            PatternKind::OneOf(domain) => {
                let lower = v.to_ascii_lowercase();
                domain.iter().any(|d| d.to_ascii_lowercase() == lower)
            }
        }
    }
}

fn matches_time12h(v: &str) -> bool {
    // "H:MM am" or "HH:MM pm"
    let lower = v.to_ascii_lowercase();
    let Some((time, ampm)) = lower.rsplit_once(' ') else {
        return false;
    };
    if ampm != "am" && ampm != "pm" {
        return false;
    }
    let Some((h, m)) = time.split_once(':') else {
        return false;
    };
    let Ok(h) = h.parse::<u32>() else {
        return false;
    };
    let Ok(m) = m.parse::<u32>() else {
        return false;
    };
    m.to_string().len() <= 2 && (1..=12).contains(&h) && m < 60
}

fn matches_iso_date(v: &str) -> bool {
    let parts: Vec<&str> = v.split('-').collect();
    if parts.len() != 3 {
        return false;
    }
    let (y, m, d) = (parts[0], parts[1], parts[2]);
    if y.len() != 4 || m.len() != 2 || d.len() != 2 {
        return false;
    }
    let (Ok(_), Ok(m), Ok(d)) = (y.parse::<u32>(), m.parse::<u32>(), d.parse::<u32>()) else {
        return false;
    };
    (1..=12).contains(&m) && (1..=31).contains(&d)
}

fn matches_phone(v: &str) -> bool {
    // "(ddd) ddd-dddd"
    let bytes: Vec<char> = v.chars().collect();
    if bytes.len() != 14 {
        return false;
    }
    let digits_at = |idx: std::ops::Range<usize>| bytes[idx].iter().all(|c| c.is_ascii_digit());
    bytes[0] == '('
        && digits_at(1..4)
        && bytes[4] == ')'
        && bytes[5] == ' '
        && digits_at(6..9)
        && bytes[9] == '-'
        && digits_at(10..14)
}

fn matches_issn(v: &str) -> bool {
    let Some((a, b)) = v.split_once('-') else {
        return false;
    };
    a.len() == 4
        && b.len() == 4
        && a.chars().all(|c| c.is_ascii_digit())
        && b.chars().take(3).all(|c| c.is_ascii_digit())
        && b.chars()
            .nth(3)
            .map(|c| c.is_ascii_digit() || c == 'X')
            .unwrap_or(false)
}

fn matches_flight(v: &str) -> bool {
    let Some((code, num)) = v.split_once('-') else {
        return false;
    };
    code.len() == 2
        && code
            .chars()
            .all(|c| c.is_ascii_alphanumeric() && !c.is_ascii_lowercase())
        && !num.is_empty()
        && num.len() <= 4
        && num.chars().all(|c| c.is_ascii_digit())
}

/// A format constraint attached to one column.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnPattern {
    /// Column name the pattern applies to.
    pub column: String,
    /// The pattern itself.
    pub kind: PatternKind,
}

impl ColumnPattern {
    /// Convenience constructor.
    pub fn new(column: impl Into<String>, kind: PatternKind) -> Self {
        Self {
            column: column.into(),
            kind,
        }
    }
}

/// One knowledge-base relation for the KATARA baseline: the set of valid
/// values of a column (optionally keyed by another column's value).
#[derive(Debug, Clone, PartialEq)]
pub struct KnowledgeBaseEntry {
    /// Column whose values the KB constrains.
    pub column: String,
    /// Valid standalone values (lower-cased).
    pub valid_values: HashSet<String>,
    /// Optional relational knowledge: `(context_column, context_value) → valid
    /// values` (e.g. country → capital). Keys and values are lower-cased.
    pub conditioned_on: Option<(String, HashMap<String, String>)>,
}

impl KnowledgeBaseEntry {
    /// KB entry with a plain domain of valid values.
    pub fn domain(column: impl Into<String>, values: impl IntoIterator<Item = String>) -> Self {
        Self {
            column: column.into(),
            valid_values: values.into_iter().map(|v| v.to_lowercase()).collect(),
            conditioned_on: None,
        }
    }
}

/// Everything the criteria-based baselines know about a dataset.
#[derive(Debug, Clone, Default)]
pub struct DatasetMetadata {
    /// Functional dependencies that hold on the clean data.
    pub fds: Vec<FunctionalDependency>,
    /// Format/domain constraints per column.
    pub patterns: Vec<ColumnPattern>,
    /// Knowledge-base relations (KATARA).
    pub kb: Vec<KnowledgeBaseEntry>,
    /// Names of columns that are numeric measurements (dBoost outlier checks).
    pub numeric_columns: Vec<String>,
    /// Names of columns holding free text (generators use this to skip outlier
    /// injection where it would be meaningless).
    pub text_columns: Vec<String>,
}

impl DatasetMetadata {
    /// Returns the pattern attached to `column`, if any.
    pub fn pattern_for(&self, column: &str) -> Option<&PatternKind> {
        self.patterns
            .iter()
            .find(|p| p.column == column)
            .map(|p| &p.kind)
    }

    /// Returns all FDs whose dependent side is `column`.
    pub fn fds_determining(&self, column: &str) -> Vec<&FunctionalDependency> {
        self.fds
            .iter()
            .filter(|fd| fd.dependent == column)
            .collect()
    }

    /// Returns `true` when the column participates in at least one FD (either
    /// side).
    pub fn in_fd(&self, column: &str) -> bool {
        self.fds
            .iter()
            .any(|fd| fd.determinant == column || fd.dependent == column)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_pattern() {
        let p = PatternKind::Time12H;
        assert!(p.matches("7:45 am"));
        assert!(p.matches("11:05 PM"));
        assert!(!p.matches("13:45 pm"));
        assert!(!p.matches("7:75 am"));
        assert!(!p.matches("745 am"));
        assert!(!p.matches("7:45"));
        assert!(!p.matches(""));
    }

    #[test]
    fn date_zip_phone_issn_flight() {
        assert!(PatternKind::IsoDate.matches("2015-04-30"));
        assert!(!PatternKind::IsoDate.matches("2015-13-30"));
        assert!(!PatternKind::IsoDate.matches("30/04/2015"));
        assert!(PatternKind::ZipCode.matches("35233"));
        assert!(!PatternKind::ZipCode.matches("3523"));
        assert!(!PatternKind::ZipCode.matches("3523a"));
        assert!(PatternKind::Phone.matches("(205) 325-8100"));
        assert!(!PatternKind::Phone.matches("205-325-8100"));
        assert!(PatternKind::Issn.matches("1234-567X"));
        assert!(PatternKind::Issn.matches("0140-6736"));
        assert!(!PatternKind::Issn.matches("01406736"));
        assert!(PatternKind::FlightNumber.matches("AA-1234"));
        assert!(PatternKind::FlightNumber.matches("B6-98"));
        assert!(!PatternKind::FlightNumber.matches("AAA-1234"));
        assert!(!PatternKind::FlightNumber.matches("AA1234"));
    }

    #[test]
    fn ranges_and_domains() {
        assert!(PatternKind::IntRange { min: 0, max: 10 }.matches("7"));
        assert!(!PatternKind::IntRange { min: 0, max: 10 }.matches("11"));
        assert!(!PatternKind::IntRange { min: 0, max: 10 }.matches("7.5"));
        assert!(PatternKind::FloatRange { min: 0.0, max: 1.0 }.matches("0.35"));
        assert!(!PatternKind::FloatRange { min: 0.0, max: 1.0 }.matches("-2"));
        let dom = PatternKind::OneOf(vec!["M".into(), "F".into()]);
        assert!(dom.matches("m"));
        assert!(!dom.matches("X"));
        assert!(PatternKind::NonEmpty.matches("x"));
        assert!(!PatternKind::NonEmpty.matches("NULL"));
    }

    #[test]
    fn metadata_lookups() {
        let meta = DatasetMetadata {
            fds: vec![
                FunctionalDependency::new("zip", "city"),
                FunctionalDependency::new("zip", "state"),
            ],
            patterns: vec![ColumnPattern::new("zip", PatternKind::ZipCode)],
            kb: vec![KnowledgeBaseEntry::domain(
                "state",
                ["AL".to_string(), "CA".to_string()],
            )],
            numeric_columns: vec!["salary".into()],
            text_columns: vec!["name".into()],
        };
        assert!(meta.pattern_for("zip").is_some());
        assert!(meta.pattern_for("city").is_none());
        assert_eq!(meta.fds_determining("city").len(), 1);
        assert!(meta.in_fd("zip"));
        assert!(!meta.in_fd("salary"));
        assert!(meta.kb[0].valid_values.contains("al"));
    }
}
