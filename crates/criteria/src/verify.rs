//! Mutual verification between criteria and propagated labels, plus the
//! criteria-feature extraction used by the feature builder.
//!
//! Algorithm 1 of the paper refines training data in two passes:
//!
//! 1. **verify criteria with right labels** — every refined criterion is
//!    scored on cells whose propagated label says "clean"; criteria whose
//!    accuracy falls below 0.5 are dropped ([`filter_criteria_dict`]);
//! 2. **verify data with reliable criteria** — propagated "clean" cells that
//!    fail more than half of the surviving criteria are discarded
//!    ([`filter_rows_dict`]).
//!
//! ## Compiled, with the oracle beside it
//!
//! Every entry point here runs on the **compiled** path over the caller's
//! [`TableDict`] (the pipeline interns the table once per run): checks are
//! lowered once ([`crate::compile`]) and evaluated per distinct value /
//! distinct value pair ([`crate::vm`]) instead of walking the
//! [`Check`](crate::dsl::Check) AST per cell. The original per-cell
//! implementations are preserved verbatim in [`oracle`] — they are the
//! specification, the differential suite (`tests/vm_differential.rs`) holds
//! the two bit-identical, and the pipeline can be pinned to them via
//! `ZeroEdConfig::criteria_engine` in `zeroed-core`.
//!
//! The float conventions are part of the contract and identical on both
//! paths: an empty row set scores a criterion's accuracy `1.0`, an empty
//! criteria set scores a row's pass rate `1.0`, and every rate is computed
//! as `count as f64 / len as f64`.

use crate::compile::compile_set;
use crate::dsl::CriteriaSet;
use crate::vm::DistinctEval;
use zeroed_table::TableDict;

/// The original per-cell AST-walking implementations, kept byte-for-byte as
/// the specification oracle for the compiled path (the same discipline as
/// `zeroed_features::reference` and the scalar MLP oracle): slow, obviously
/// correct, and exercised against the VM by the differential suite.
pub mod oracle {
    use crate::dsl::{CriteriaSet, Criterion};
    use zeroed_table::Table;

    /// Fraction of the given rows (all assumed labelled clean) that satisfy
    /// the criterion. Returns 1.0 for an empty row set (no evidence against
    /// it).
    pub fn criterion_accuracy(
        criterion: &Criterion,
        table: &Table,
        col: usize,
        clean_rows: &[usize],
    ) -> f64 {
        if clean_rows.is_empty() {
            return 1.0;
        }
        let satisfied = clean_rows
            .iter()
            .filter(|&&row| criterion.evaluate(table, row, col))
            .count();
        satisfied as f64 / clean_rows.len() as f64
    }

    /// Fraction of criteria in the set that the cell satisfies. Returns 1.0
    /// for an empty criteria set.
    pub fn pass_rate(set: &CriteriaSet, table: &Table, row: usize) -> f64 {
        if set.is_empty() {
            return 1.0;
        }
        let passed = set
            .criteria
            .iter()
            .filter(|c| c.evaluate(table, row, set.column))
            .count();
        passed as f64 / set.criteria.len() as f64
    }

    /// Drops criteria whose accuracy on clean-labelled rows is below
    /// `threshold` (Algorithm 1 lines 8–14; the paper uses 0.5). Returns the
    /// retained set.
    pub fn filter_criteria(
        set: &CriteriaSet,
        table: &Table,
        clean_rows: &[usize],
        threshold: f64,
    ) -> CriteriaSet {
        let criteria = set
            .criteria
            .iter()
            .filter(|c| criterion_accuracy(c, table, set.column, clean_rows) >= threshold)
            .cloned()
            .collect();
        CriteriaSet {
            column: set.column,
            criteria,
        }
    }

    /// Keeps only the clean-labelled rows whose pass rate over the (verified)
    /// criteria reaches `threshold` (Algorithm 1 lines 15–20; the paper uses
    /// 0.5).
    pub fn filter_rows(
        set: &CriteriaSet,
        table: &Table,
        clean_rows: &[usize],
        threshold: f64,
    ) -> Vec<usize> {
        clean_rows
            .iter()
            .copied()
            .filter(|&row| pass_rate(set, table, row) >= threshold)
            .collect()
    }

    /// Evaluates a column's criteria over every row, producing the binary
    /// error-reason-aware feature block (`f_cri`) consumed by
    /// `zeroed-features::FeatureBuilder` as `extra` features. Satisfied
    /// criteria map to `1.0`, violated ones to `0.0`.
    pub fn criteria_features(set: &CriteriaSet, table: &Table) -> Vec<Vec<f32>> {
        if set.is_empty() {
            return Vec::new();
        }
        (0..table.n_rows())
            .map(|row| {
                set.evaluate_cell(table, row)
                    .into_iter()
                    .map(|b| if b { 1.0 } else { 0.0 })
                    .collect()
            })
            .collect()
    }
}

fn matrix_to_f32(per_criterion: Vec<Vec<bool>>, n_rows: usize) -> Vec<Vec<f32>> {
    (0..n_rows)
        .map(|row| {
            per_criterion
                .iter()
                .map(|col| if col[row] { 1.0 } else { 0.0 })
                .collect()
        })
        .collect()
}

/// Evaluates a column's criteria over every row, producing the binary
/// error-reason-aware feature block (`f_cri`) consumed by
/// `zeroed-features::FeatureBuilder` as `extra` features: satisfied criteria
/// map to `1.0`, violated ones to `0.0`. Per-distinct evaluation straight
/// off the caller's `dict`, which must describe the same table the criteria
/// were generated for. Oracle: [`oracle::criteria_features`].
pub fn criteria_features_dict(set: &CriteriaSet, dict: &TableDict) -> Vec<Vec<f32>> {
    if set.is_empty() {
        return Vec::new();
    }
    let compiled = compile_set(set);
    let per_criterion: Vec<Vec<bool>> = compiled
        .evaluators(|col| dict.column(col))
        .into_iter()
        .map(|mut ev| ev.eval_all_rows())
        .collect();
    matrix_to_f32(per_criterion, dict.n_rows())
}

/// Drops criteria whose accuracy on clean-labelled rows is below `threshold`
/// (Algorithm 1 lines 8–14; the paper uses 0.5). Returns the retained set.
/// `dict` must describe the same table; evaluation is memoised per distinct
/// interned code. Oracle: [`oracle::filter_criteria`].
pub fn filter_criteria_dict(
    set: &CriteriaSet,
    dict: &TableDict,
    clean_rows: &[usize],
    threshold: f64,
) -> CriteriaSet {
    let compiled = compile_set(set);
    let criteria = set
        .criteria
        .iter()
        .zip(compiled.programs.iter())
        .filter(|(_, program)| {
            let acc = if clean_rows.is_empty() {
                1.0
            } else {
                let mut ev = DistinctEval::new(
                    program,
                    dict.column(set.column),
                    program.other_col.map(|c| dict.column(c as usize)),
                );
                let satisfied = clean_rows.iter().filter(|&&row| ev.eval_row(row)).count();
                satisfied as f64 / clean_rows.len() as f64
            };
            acc >= threshold
        })
        .map(|(c, _)| c.clone())
        .collect();
    CriteriaSet {
        column: set.column,
        criteria,
    }
}

/// Keeps only the clean-labelled rows whose pass rate over the (verified)
/// criteria reaches `threshold` (Algorithm 1 lines 15–20; the paper uses
/// 0.5). `dict` must describe the same table; evaluation is memoised per
/// distinct interned code. Oracle: [`oracle::filter_rows`].
pub fn filter_rows_dict(
    set: &CriteriaSet,
    dict: &TableDict,
    clean_rows: &[usize],
    threshold: f64,
) -> Vec<usize> {
    let compiled = compile_set(set);
    let mut evals: Vec<DistinctEval<'_>> = compiled
        .programs
        .iter()
        .map(|p| {
            DistinctEval::new(
                p,
                dict.column(set.column),
                p.other_col.map(|c| dict.column(c as usize)),
            )
        })
        .collect();
    clean_rows
        .iter()
        .copied()
        .filter(|&row| {
            let rate = if evals.is_empty() {
                1.0
            } else {
                let mut passed = 0usize;
                for ev in evals.iter_mut() {
                    if ev.eval_row(row) {
                        passed += 1;
                    }
                }
                passed as f64 / evals.len() as f64
            };
            rate >= threshold
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsl::{Check, Criterion};
    use zeroed_table::Table;

    fn table() -> Table {
        Table::new(
            "t",
            vec!["zip".into()],
            vec![
                vec!["35233".into()],
                vec!["90210".into()],
                vec!["9021".into()],
                vec!["".into()],
                vec!["abcde".into()],
            ],
        )
        .unwrap()
    }

    fn set() -> CriteriaSet {
        CriteriaSet {
            column: 0,
            criteria: vec![
                Criterion::new("not_missing", "zip present", Check::NotMissing),
                Criterion::new(
                    "five_digits",
                    "zip is 5 chars",
                    Check::LengthRange { min: 5, max: 5 },
                ),
                Criterion::new(
                    "numeric",
                    "zip is numeric",
                    Check::NumericRange { min: 0.0, max: 99999.0 },
                ),
            ],
        }
    }

    #[test]
    fn accuracy_and_pass_rate() {
        let t = table();
        let s = set();
        // Rows 0 and 1 are genuinely clean.
        let acc = oracle::criterion_accuracy(&s.criteria[1], &t, 0, &[0, 1]);
        assert_eq!(acc, 1.0);
        // Row 2 (4 digits) fails the length criterion.
        let acc = oracle::criterion_accuracy(&s.criteria[1], &t, 0, &[0, 1, 2]);
        assert!((acc - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(oracle::criterion_accuracy(&s.criteria[0], &t, 0, &[]), 1.0);

        assert_eq!(oracle::pass_rate(&s, &t, 0), 1.0);
        assert!((oracle::pass_rate(&s, &t, 2) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(oracle::pass_rate(&s, &t, 3), 0.0);
        let empty = CriteriaSet::new(0);
        assert_eq!(oracle::pass_rate(&empty, &t, 3), 1.0);
    }

    #[test]
    fn filtering_criteria_drops_inaccurate_ones() {
        let t = table();
        let mut s = set();
        // Add a bogus criterion that fails on every clean value.
        s.criteria.push(Criterion::new(
            "bogus",
            "zips must equal 00000 (wrong)",
            Check::Domain {
                allowed: ["00000".to_string()].into_iter().collect(),
            },
        ));
        let kept = filter_criteria_dict(&s, &t.intern(), &[0, 1], 0.5);
        assert_eq!(kept.len(), 4 - 1);
        assert!(kept.criteria.iter().all(|c| c.name != "bogus"));
    }

    #[test]
    fn filtering_rows_drops_unreliable_labels() {
        let t = table();
        let s = set();
        let dict = t.intern();
        // Suppose propagation labelled rows 0, 2, 3 and 4 as clean.
        let kept = filter_rows_dict(&s, &dict, &[0, 2, 3, 4], 0.5);
        // Row 0 passes 3/3, row 2 passes 2/3, row 3 passes 0/3, row 4 passes
        // 2/3 ("abcde" is non-missing and five characters, but not numeric).
        assert_eq!(kept, vec![0, 2, 4]);
        // A stricter threshold keeps only the fully consistent row.
        assert_eq!(filter_rows_dict(&s, &dict, &[0, 2, 3, 4], 0.9), vec![0]);
    }

    #[test]
    fn criteria_feature_matrix_shape() {
        let t = table();
        let s = set();
        let dict = t.intern();
        let feats = criteria_features_dict(&s, &dict);
        assert_eq!(feats.len(), 5);
        assert_eq!(feats[0], vec![1.0, 1.0, 1.0]);
        assert_eq!(feats[3], vec![0.0, 0.0, 0.0]);
        assert!(criteria_features_dict(&CriteriaSet::new(0), &dict).is_empty());
    }

    #[test]
    fn compiled_entry_points_match_the_oracle() {
        let t = table();
        let s = set();
        let dict = t.intern();
        assert_eq!(criteria_features_dict(&s, &dict), oracle::criteria_features(&s, &t));
        let rows = [0usize, 1, 2, 3, 4];
        assert_eq!(
            filter_criteria_dict(&s, &dict, &rows, 0.5),
            oracle::filter_criteria(&s, &t, &rows, 0.5)
        );
        assert_eq!(
            filter_rows_dict(&s, &dict, &rows, 0.5),
            oracle::filter_rows(&s, &t, &rows, 0.5)
        );
        // Empty clean-row sets keep every criterion on both paths.
        assert_eq!(filter_criteria_dict(&s, &dict, &[], 0.5).len(), s.len());
        assert_eq!(oracle::filter_criteria(&s, &t, &[], 0.5).len(), s.len());
        // Empty criteria sets keep every row (pass rate convention 1.0).
        let empty = CriteriaSet::new(0);
        assert_eq!(filter_rows_dict(&empty, &dict, &rows, 0.5), rows.to_vec());
        assert_eq!(oracle::filter_rows(&empty, &t, &rows, 0.5), rows.to_vec());
    }
}
