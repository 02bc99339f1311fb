//! Labelling behaviour of the simulated LLM.
//!
//! The simulated model decides whether a cell is erroneous in two layers:
//!
//! 1. a **heuristic judgment** derived from the column profile — the same
//!    evidence a real LLM extracts from its guideline and in-context samples
//!    (missing placeholders, rare formats, out-of-range numbers, values that
//!    disagree with the empirical dependency on a correlated attribute);
//! 2. an optional **oracle blend** — when the experiment harness supplies the
//!    ground-truth error mask, the simulator answers correctly with the
//!    probability given by its [`crate::LlmProfile`] (per error type, plus the
//!    guideline boost) and otherwise falls back to the heuristic judgment.
//!    This is what lets the reproduction calibrate different backbone models
//!    (Table V) and the guideline ablation (Table IV) without network access.

use super::profiling::ColumnProfile;
use crate::mangle::MangleKind;
use crate::profile::LlmProfile;
use zeroed_table::value::is_missing;
use zeroed_table::{ErrorType, Table};

/// Deterministic pseudo-random draw in `[0, 1)` for a (seed, row, col, salt)
/// tuple, independent of call order.
pub fn cell_draw(seed: u64, row: usize, col: usize, salt: u64) -> f64 {
    let mut h = seed ^ 0x9e3779b97f4a7c15;
    for v in [row as u64, col as u64, salt] {
        h ^= v
            .wrapping_add(0x9e3779b97f4a7c15)
            .wrapping_add(h << 6)
            .wrapping_add(h >> 2);
        h = h.wrapping_mul(0xbf58476d1ce4e5b9);
        h ^= h >> 27;
    }
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Heuristic cell judgment against the column profile; `true` = looks
/// erroneous. `use_context` enables the cross-attribute dependency check —
/// the per-tuple FM_ED baseline runs with it disabled because it cannot see
/// other tuples.
pub fn heuristic_judgment(
    profile: &ColumnProfile,
    table: &Table,
    row: usize,
    col: usize,
    use_context: bool,
) -> bool {
    let value = table.cell(row, col);
    if is_missing(value) {
        return true;
    }
    // Numeric outlier.
    if let (Some((lo, hi)), Some(x)) = (
        profile.numeric_bounds,
        zeroed_table::value::parse_numeric(value),
    ) {
        if x < lo || x > hi {
            return true;
        }
    }
    // Rare format.
    if profile.pattern_frequency(value) < 0.02 {
        return true;
    }
    // Rare value in a categorical column.
    if profile.is_categorical() && profile.value_frequency(value) < 0.005 {
        return true;
    }
    // Disagreement with the empirical dependency on the correlated attribute.
    if use_context {
        if let Some((det, mapping)) = &profile.fd_mapping {
            let d = table.cell(row, *det).trim().to_lowercase();
            if let Some(expected) = mapping.get(&d) {
                if !expected.is_empty() && value.trim().to_lowercase() != *expected {
                    return true;
                }
            }
        }
    }
    false
}

/// Final label for one cell ("is this an error?"), blending the oracle (when
/// available) with the heuristic judgment according to the model profile.
#[allow(clippy::too_many_arguments)]
pub fn label_cell(
    model: &LlmProfile,
    profile: &ColumnProfile,
    table: &Table,
    row: usize,
    col: usize,
    truth: Option<(bool, Option<ErrorType>)>,
    with_guideline: bool,
    seed: u64,
) -> bool {
    let heuristic = heuristic_judgment(profile, table, row, col, true);
    let Some((is_error, error_type)) = truth else {
        // Zero-knowledge mode: pure heuristic reasoning.
        return heuristic;
    };
    let boost = if with_guideline {
        model.guideline_boost
    } else {
        0.0
    };
    let p_correct = if is_error {
        let base = match error_type {
            Some(ty) => model.recall(ty),
            None => {
                (model.recall_missing
                    + model.recall_typo
                    + model.recall_pattern
                    + model.recall_outlier
                    + model.recall_rule)
                    / 5.0
            }
        };
        (base + boost).min(0.995)
    } else {
        (model.clean_accuracy + boost).min(0.995)
    };
    if cell_draw(seed, row, col, 17) < p_correct {
        is_error
    } else {
        // The model answers incorrectly-or-heuristically: fall back to its
        // heuristic opinion, flipping it when the heuristic happens to agree
        // with the truth (so the error rate matches the profile).
        if heuristic == is_error {
            !is_error
        } else {
            heuristic
        }
    }
}

/// Applies one seeded content corruption to a batch-labelling response (see
/// [`crate::mangle`]). The response contract is arity (one label per
/// requested row), so every kind maps onto an arity scar: a truncated answer
/// list, extra labels beyond the batch, or an empty body. Callers only mangle
/// non-empty batches — an empty request has no answer lines to corrupt.
pub fn mangle_labels(mut labels: Vec<bool>, kind: MangleKind) -> Vec<bool> {
    match kind {
        MangleKind::TruncatedList | MangleKind::SchemaDrift => {
            let keep = labels.len() / 2;
            labels.truncate(keep);
            labels
        }
        MangleKind::WrongArity | MangleKind::HallucinatedColumn => {
            labels.push(false);
            labels.push(true);
            labels
        }
        MangleKind::MalformedJson | MangleKind::EmptyBody => Vec::new(),
    }
}

/// FM_ED-style per-tuple judgment: only single-cell evidence (no dataset
/// context), with reduced effective recall for context-dependent error types.
pub fn detect_tuple_cell(
    model: &LlmProfile,
    profile: &ColumnProfile,
    table: &Table,
    row: usize,
    col: usize,
    truth: Option<(bool, Option<ErrorType>)>,
    seed: u64,
) -> bool {
    let heuristic = {
        let value = table.cell(row, col);
        is_missing(value) || (profile.is_categorical() && profile.value_frequency(value) < 0.002)
    };
    let Some((is_error, error_type)) = truth else {
        return heuristic;
    };
    // Context-dependent error types are much harder without dataset context.
    let p_correct = if is_error {
        let scale = match error_type {
            Some(ErrorType::MissingValue) => 1.0,
            Some(ErrorType::Typo) => 0.85,
            Some(ErrorType::PatternViolation) => 0.55,
            Some(ErrorType::Outlier) => 0.45,
            Some(ErrorType::RuleViolation) => 0.2,
            None => 0.6,
        };
        (model.recall(error_type.unwrap_or(ErrorType::Typo)) * scale).min(0.99)
    } else {
        (model.clean_accuracy + 0.015).min(0.99)
    };
    if cell_draw(seed, row, col, 31) < p_correct {
        is_error
    } else if heuristic == is_error {
        !is_error
    } else {
        heuristic
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixture() -> (Table, ColumnProfile) {
        let mut rows: Vec<Vec<String>> = (0..200)
            .map(|i| {
                vec![
                    ["Boston", "Denver", "Phoenix", "Boston"][i % 4].to_string(),
                    match i % 4 {
                        0 | 3 => "MA",
                        1 => "CO",
                        _ => "AZ",
                    }
                    .to_string(),
                ]
            })
            .collect();
        rows[5][1] = "".into(); // missing
        rows[9][1] = "CO".into(); // rule violation: Boston paired with CO (i%4==1? index 9 -> 9%4=1 Denver..)
        rows[8][1] = "AZ".into(); // rule violation: Boston (8%4=0) paired with AZ
        let t = Table::new("t", vec!["city".into(), "state".into()], rows).unwrap();
        let p = ColumnProfile::analyze(&t, 1, &[0]);
        (t, p)
    }

    #[test]
    fn heuristics_catch_missing_and_inconsistency() {
        let (t, p) = fixture();
        assert!(heuristic_judgment(&p, &t, 5, 1, true), "missing value");
        assert!(heuristic_judgment(&p, &t, 8, 1, true), "broken dependency");
        assert!(!heuristic_judgment(&p, &t, 0, 1, true), "clean value");
        // Without context the dependency violation is invisible.
        assert!(!heuristic_judgment(&p, &t, 8, 1, false));
    }

    #[test]
    fn oracle_blend_follows_profile_quality() {
        let (t, p) = fixture();
        let strong = LlmProfile::qwen_72b();
        let weak = LlmProfile::gpt_4o_mini();
        // Over many synthetic clean cells, the strong model mislabels fewer.
        let mut strong_wrong = 0;
        let mut weak_wrong = 0;
        for row in 0..200 {
            if row == 5 || row == 8 || row == 9 {
                continue;
            }
            let truth = Some((false, None));
            if label_cell(&strong, &p, &t, row, 1, truth, true, 7) {
                strong_wrong += 1;
            }
            if label_cell(&weak, &p, &t, row, 1, truth, true, 7) {
                weak_wrong += 1;
            }
        }
        assert!(
            strong_wrong < weak_wrong,
            "strong {strong_wrong} vs weak {weak_wrong}"
        );
    }

    #[test]
    fn guideline_boost_improves_error_recall() {
        let (t, p) = fixture();
        let model = LlmProfile::qwen_7b();
        let mut with_g = 0;
        let mut without_g = 0;
        // Use many seeds to estimate recall on a single known error cell.
        for seed in 0..500 {
            let truth = Some((true, Some(ErrorType::RuleViolation)));
            if label_cell(&model, &p, &t, 8, 1, truth, true, seed) {
                with_g += 1;
            }
            if label_cell(&model, &p, &t, 8, 1, truth, false, seed) {
                without_g += 1;
            }
        }
        assert!(with_g >= without_g, "with {with_g} vs without {without_g}");
    }

    #[test]
    fn labels_are_deterministic_per_seed() {
        let (t, p) = fixture();
        let model = LlmProfile::llama_8b();
        let a = label_cell(&model, &p, &t, 3, 1, Some((false, None)), true, 11);
        let b = label_cell(&model, &p, &t, 3, 1, Some((false, None)), true, 11);
        assert_eq!(a, b);
    }

    #[test]
    fn tuple_detection_misses_rule_violations_more_often() {
        let (t, p) = fixture();
        let model = LlmProfile::qwen_72b();
        let mut tuple_hits = 0;
        let mut context_hits = 0;
        for seed in 0..400 {
            let truth = Some((true, Some(ErrorType::RuleViolation)));
            if detect_tuple_cell(&model, &p, &t, 8, 1, truth, seed) {
                tuple_hits += 1;
            }
            if label_cell(&model, &p, &t, 8, 1, truth, true, seed) {
                context_hits += 1;
            }
        }
        assert!(
            tuple_hits < context_hits,
            "tuple {tuple_hits} vs context {context_hits}"
        );
    }

    #[test]
    fn cell_draw_is_uniform_ish() {
        let n = 2_000;
        let mean: f64 = (0..n).map(|i| cell_draw(1, i, 0, 3)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn every_mangle_kind_breaks_label_arity() {
        let healthy = vec![true, false, true, false, true, false];
        for kind in MangleKind::ALL {
            let mangled = mangle_labels(healthy.clone(), kind);
            assert_ne!(mangled.len(), healthy.len(), "{kind:?} kept the arity");
        }
        // Over-arity answers keep the healthy prefix (a trim recovers them).
        let over = mangle_labels(healthy.clone(), MangleKind::WrongArity);
        assert_eq!(&over[..healthy.len()], &healthy[..]);
    }
}
