//! Criteria generation and contrastive refinement for the simulated LLM.
//!
//! This mirrors what the paper's LLM does when prompted with
//! [`crate::prompts::criteria_prompt`]: reason about likely error causes for
//! the attribute and emit executable checks. The simulated model derives the
//! checks from the [`ColumnProfile`]; the `criteria_quality` knob of the
//! model profile controls how many check families it manages to produce
//! (weaker models emit fewer, coarser criteria).

use super::profiling::ColumnProfile;
use crate::mangle::MangleKind;
use std::collections::HashSet;
use zeroed_criteria::{Check, CriteriaSet, Criterion};
use zeroed_features::pattern::{generalize, Level};

/// Builds an attribute's criteria set from its profile.
///
/// `quality` in `[0, 1]` determines how many criterion families are emitted:
/// every model produces the basic null/format checks, stronger models add
/// range, domain, charset and cross-attribute consistency checks.
pub fn build_criteria(profile: &ColumnProfile, quality: f64) -> CriteriaSet {
    let mut set = CriteriaSet::new(profile.column);
    let name = &profile.name;

    // 1. Missing check — always produced unless the column is mostly empty by
    // design.
    if profile.missing_ratio < 0.5 {
        set.criteria.push(Criterion::new(
            format!("is_clean_{name}_not_missing"),
            format!("values of '{name}' should be present; blanks and null placeholders indicate missing data"),
            Check::NotMissing,
        ));
    }

    // 2. Format template check from the patterns covering most of the data.
    let covering = profile.covering_patterns(0.92);
    if !covering.is_empty() && covering.len() <= 12 {
        set.criteria.push(Criterion::new(
            format!("is_clean_{name}_format"),
            format!(
                "'{name}' values follow {} dominant character formats; deviating formats suggest pattern violations",
                covering.len()
            ),
            Check::PatternTemplate {
                allowed: covering.into_iter().collect::<HashSet<String>>(),
            },
        ));
    }

    // 3. Length range with slack.
    let (min_len, max_len) = profile.length_range;
    if max_len > 0 && quality >= 0.3 {
        let slack = ((max_len - min_len) / 2).max(2);
        set.criteria.push(Criterion::new(
            format!("is_clean_{name}_length"),
            format!("'{name}' values are between {min_len} and {max_len} characters long"),
            Check::LengthRange {
                min: min_len.saturating_sub(slack),
                max: max_len + slack,
            },
        ));
    }

    // 4. Numeric range from robust bounds.
    if let (Some((lo, hi)), true) = (profile.numeric_bounds, quality >= 0.4) {
        set.criteria.push(Criterion::new(
            format!("is_clean_{name}_numeric_range"),
            format!("'{name}' is numeric and typically lies within [{lo:.2}, {hi:.2}]; far-out values are outliers"),
            Check::NumericRange { min: lo, max: hi },
        ));
    }

    // 5. Domain membership for categorical columns.
    if profile.is_categorical() && !profile.is_numeric() && quality >= 0.5 {
        let allowed: HashSet<String> = profile
            .value_counts
            .iter()
            .filter(|(v, &c)| c >= 2 && !v.trim().is_empty())
            .map(|(v, _)| v.trim().to_lowercase())
            .collect();
        if allowed.len() >= 2 && allowed.len() <= 64 {
            set.criteria.push(Criterion::new(
                format!("is_clean_{name}_domain"),
                format!(
                    "'{name}' takes one of {} known categorical values",
                    allowed.len()
                ),
                Check::Domain { allowed },
            ));
        }
    }

    // 6. Charset check derived from observed characters.
    if quality >= 0.6 {
        let mut letters = false;
        let mut digits = false;
        let mut whitespace = false;
        let mut symbols: HashSet<char> = HashSet::new();
        for value in profile.value_counts.keys() {
            for c in value.chars() {
                if c.is_alphabetic() {
                    letters = true;
                } else if c.is_ascii_digit() {
                    digits = true;
                } else if c.is_whitespace() {
                    whitespace = true;
                } else {
                    symbols.insert(c);
                }
            }
        }
        if symbols.len() <= 8 {
            // Sorted, not hash-order: the symbol list is part of the
            // criterion's content, and content-addressed request keys (and
            // with them trace ids) must not vary with `HashSet` iteration
            // order across runs or processes.
            let mut symbols: Vec<char> = symbols.into_iter().collect();
            symbols.sort_unstable();
            set.criteria.push(Criterion::new(
                format!("is_clean_{name}_charset"),
                format!("'{name}' values only use the character classes observed in the data"),
                Check::Charset {
                    letters,
                    digits,
                    whitespace,
                    symbols,
                },
            ));
        }
    }

    // 7. Cross-attribute consistency from the empirical FD mapping.
    if let (Some((det, mapping)), true) = (&profile.fd_mapping, quality >= 0.7) {
        if mapping.len() >= 3 {
            set.criteria.push(Criterion::new(
                format!("is_clean_{name}_consistent_with_correlated"),
                format!(
                    "'{name}' is determined by attribute #{det}; values disagreeing with the usual pairing are rule violations"
                ),
                Check::FdLookup {
                    determinant_col: *det,
                    mapping: mapping.clone(),
                },
            ));
        }
    }

    set
}

/// Contrastive refinement (Algorithm 1 lines 4–7): given values labelled clean
/// and erroneous, tighten the criteria so they separate the two groups better.
/// The simulated model adds (a) a pattern template restricted to formats seen
/// among clean examples but not erroneous ones, and (b) a domain built from
/// clean examples for categorical columns, keeping the original criteria.
pub fn refine_criteria(
    profile: &ColumnProfile,
    existing: &CriteriaSet,
    clean_examples: &[String],
    error_examples: &[String],
) -> CriteriaSet {
    let mut refined = existing.clone();
    if clean_examples.is_empty() {
        return refined;
    }
    let name = &profile.name;
    let clean_patterns: HashSet<String> = clean_examples
        .iter()
        .map(|v| generalize(v, Level::L3))
        .collect();
    let error_patterns: HashSet<String> = error_examples
        .iter()
        .map(|v| generalize(v, Level::L3))
        .collect();
    // Patterns that only ever appear among clean examples.
    let distinctive: HashSet<String> = clean_patterns
        .difference(&error_patterns)
        .cloned()
        .collect();
    if !distinctive.is_empty()
        && distinctive.len() <= 12
        && !refined
            .criteria
            .iter()
            .any(|c| c.name.ends_with("_contrastive_format"))
    {
        refined.criteria.push(Criterion::new(
            format!("is_clean_{name}_contrastive_format"),
            format!(
                "formats observed only among clean '{name}' examples; erroneous examples use other formats"
            ),
            Check::PatternTemplate {
                allowed: distinctive,
            },
        ));
    }
    if profile.is_categorical() && !profile.is_numeric() {
        let allowed: HashSet<String> = clean_examples
            .iter()
            .map(|v| v.trim().to_lowercase())
            .filter(|v| !v.is_empty())
            .collect();
        if allowed.len() >= 2
            && !refined
                .criteria
                .iter()
                .any(|c| c.name.ends_with("_contrastive_domain"))
        {
            refined.criteria.push(Criterion::new(
                format!("is_clean_{name}_contrastive_domain"),
                format!("values of '{name}' seen among verified clean examples"),
                Check::Domain { allowed },
            ));
        }
    }
    refined
}

/// Applies one seeded content corruption to a criteria response (see
/// [`crate::mangle`]). Every kind leaves a scar the repair layer's validator
/// always catches: an unnamed criterion, a column index outside the schema
/// (`n_cols` wide), duplicated function names, names drifted out of the
/// `is_clean_` namespace, or the unrepairable empty/garbage sentinel.
pub fn mangle_criteria(mut set: CriteriaSet, kind: MangleKind, n_cols: usize) -> CriteriaSet {
    // A legitimately empty criteria set has no list items to corrupt; the
    // arity/drift kinds degrade to the unparseable sentinel so the corruption
    // never hides behind a healthy-looking empty response.
    let unparseable = || CriteriaSet {
        column: usize::MAX,
        criteria: Vec::new(),
    };
    match kind {
        MangleKind::TruncatedList => {
            let keep = set.criteria.len() / 2;
            set.criteria.truncate(keep);
            set.criteria.push(Criterion::new(
                "",
                "the response cut off in the middle of a function definition",
                Check::NotMissing,
            ));
            set
        }
        MangleKind::MalformedJson | MangleKind::EmptyBody => unparseable(),
        MangleKind::HallucinatedColumn => {
            set.column = set.column.saturating_add(n_cols).saturating_add(1);
            set
        }
        MangleKind::WrongArity => {
            if set.criteria.is_empty() {
                return unparseable();
            }
            let dup = set.criteria.clone();
            set.criteria.extend(dup);
            set
        }
        MangleKind::SchemaDrift => {
            if set.criteria.is_empty() {
                return unparseable();
            }
            for c in &mut set.criteria {
                c.name = match c.name.strip_prefix("is_clean_") {
                    Some(rest) => rest.to_string(),
                    None => format!("drifted_{}", c.name),
                };
            }
            set
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zeroed_table::Table;

    fn zip_profile() -> ColumnProfile {
        let rows: Vec<Vec<String>> = (0..200)
            .map(|i| {
                vec![
                    format!("{:05}", 10_000 + (i % 7) * 101),
                    ["Boston", "Denver", "Phoenix"][i % 3].to_string(),
                ]
            })
            .collect();
        let t = Table::new("t", vec!["zip".into(), "city".into()], rows).unwrap();
        ColumnProfile::analyze(&t, 0, &[1])
    }

    #[test]
    fn high_quality_produces_rich_criteria() {
        let profile = zip_profile();
        let set = build_criteria(&profile, 0.95);
        assert!(set.len() >= 4, "got {} criteria", set.len());
        let names: Vec<&str> = set.criteria.iter().map(|c| c.name.as_str()).collect();
        assert!(names.iter().any(|n| n.contains("not_missing")));
        assert!(names.iter().any(|n| n.contains("format")));
        assert!(names
            .iter()
            .any(|n| n.contains("numeric_range") || n.contains("length")));
    }

    #[test]
    fn low_quality_produces_fewer_criteria() {
        let profile = zip_profile();
        let rich = build_criteria(&profile, 0.95).len();
        let poor = build_criteria(&profile, 0.2).len();
        assert!(poor < rich, "poor {poor} should be < rich {rich}");
        assert!(poor >= 1);
    }

    #[test]
    fn refinement_adds_contrastive_checks() {
        let profile = zip_profile();
        let base = build_criteria(&profile, 0.9);
        let refined = refine_criteria(
            &profile,
            &base,
            &["10101".into(), "10202".into()],
            &["1010".into(), "".into()],
        );
        assert!(refined.len() > base.len());
        // Refinement is idempotent with respect to the contrastive criteria.
        let twice = refine_criteria(&profile, &refined, &["10101".into()], &["abc".into()]);
        assert_eq!(twice.len(), refined.len());
        // Empty clean examples are a no-op.
        let noop = refine_criteria(&profile, &base, &[], &["x".into()]);
        assert_eq!(noop.len(), base.len());
    }

    #[test]
    fn every_mangle_kind_leaves_a_detectable_scar() {
        let profile = zip_profile();
        let base = build_criteria(&profile, 0.95);
        let n_cols = 2;
        let scarred = |set: &CriteriaSet| {
            set.column != base.column
                || set
                    .criteria
                    .iter()
                    .any(|c| !c.name.starts_with("is_clean_"))
                || {
                    let mut names: Vec<&str> =
                        set.criteria.iter().map(|c| c.name.as_str()).collect();
                    names.sort_unstable();
                    names.windows(2).any(|w| w[0] == w[1])
                }
        };
        for kind in crate::mangle::MangleKind::ALL {
            let mangled = mangle_criteria(base.clone(), kind, n_cols);
            assert!(scarred(&mangled), "{kind:?} left no scar");
            // Scars survive even when the healthy response is empty.
            let mangled_empty = mangle_criteria(CriteriaSet::new(base.column), kind, n_cols);
            assert!(scarred(&mangled_empty), "{kind:?} hid behind an empty set");
        }
    }
}
