//! # zeroed-baselines
//!
//! The six baseline error-detection methods the ZeroED paper compares against
//! (Table III):
//!
//! * [`DBoost`] — statistical outlier detection (Gaussian models on numeric
//!   columns plus rare-format detection), following the dBoost tool;
//! * [`Nadeef`] — violations of manually supplied integrity constraints
//!   (functional dependencies) and format rules;
//! * [`Katara`] — knowledge-base lookups: values outside the curated domains
//!   are flagged;
//! * [`Raha`] — the configuration-free ensemble: many cheap detection
//!   strategies become per-cell feature vectors, cells are clustered per
//!   column, a handful of user-labelled tuples are propagated through the
//!   clusters, and a classifier predicts the rest;
//! * [`ActiveClean`] — record-level dirty detection with a convex model
//!   trained on a few labelled records;
//! * [`FmEd`] — the LLM prompt-per-tuple detector ("can foundation models
//!   wrangle your data?"-style), which queries an [`zeroed_llm::LlmClient`]
//!   for every tuple in isolation.
//!
//! The manual-criteria baselines receive their constraints, patterns and
//! knowledge bases from [`zeroed_datagen::DatasetMetadata`], mirroring how the
//! paper takes them from the datasets' public repositories. The manual-label
//! baselines receive a small set of labelled tuples (the paper uses 2 by
//! default, and sweeps 1–45 in Fig. 6).

pub mod activeclean;
pub mod dboost;
pub mod fm_ed;
pub mod katara;
pub mod nadeef;
pub mod raha;

pub use activeclean::ActiveClean;
pub use dboost::DBoost;
pub use fm_ed::FmEd;
pub use katara::Katara;
pub use nadeef::Nadeef;
pub use raha::Raha;

use zeroed_datagen::DatasetMetadata;
use zeroed_table::{ErrorMask, Table};

/// A tuple labelled by the (hypothetical) human expert: the row index and one
/// `is_error` flag per attribute.
#[derive(Debug, Clone)]
pub struct LabeledTuple {
    /// Row index of the labelled tuple.
    pub row: usize,
    /// Per-attribute error flags.
    pub flags: Vec<bool>,
}

impl LabeledTuple {
    /// Builds labelled tuples for the given rows by reading the ground-truth
    /// mask — the stand-in for the paper's human annotator.
    pub fn from_mask(mask: &ErrorMask, rows: &[usize]) -> Vec<LabeledTuple> {
        rows.iter()
            .map(|&row| LabeledTuple {
                row,
                flags: (0..mask.n_cols()).map(|col| mask.get(row, col)).collect(),
            })
            .collect()
    }

    /// A labelling budget with both classes represented: the first `n` rows
    /// that contain errors plus the first `n` row indices outright (mostly
    /// clean), labelled from the ground-truth mask. This is the deterministic
    /// recipe the Fig. 6 style sweeps and the interning-equivalence suite
    /// share — one definition, so they can never silently measure different
    /// inputs.
    pub fn mixed_from_mask(mask: &ErrorMask, n: usize) -> Vec<LabeledTuple> {
        let error_rows: Vec<usize> = (0..mask.n_rows())
            .filter(|&row| (0..mask.n_cols()).any(|col| mask.get(row, col)))
            .take(n)
            .collect();
        // The clean half is clamped to rows that exist (a budget larger than
        // the table degrades to "label everything available") and excludes
        // rows the error half already took, so every tuple is distinct and
        // the budget really is at most n + n labels.
        let rows: Vec<usize> = error_rows
            .iter()
            .copied()
            .chain((0..n.min(mask.n_rows())).filter(|row| !error_rows.contains(row)))
            .collect();
        Self::from_mask(mask, &rows)
    }
}

/// Everything a baseline may consume. Individual baselines use only the parts
/// their paper-described counterpart has access to.
#[derive(Clone, Copy)]
pub struct BaselineInput<'a> {
    /// The dirty table.
    pub dirty: &'a Table,
    /// Manually curated constraints/patterns/knowledge bases (criteria-based
    /// baselines only).
    pub metadata: &'a DatasetMetadata,
    /// A small number of human-labelled tuples (label-based baselines only).
    pub labeled: &'a [LabeledTuple],
}

/// The common interface of all baselines.
pub trait Baseline {
    /// Method name as used in the paper's tables.
    fn name(&self) -> &'static str;

    /// Detects errors, returning one flag per cell.
    fn detect(&self, input: &BaselineInput<'_>) -> ErrorMask;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labeled_tuples_read_the_mask() {
        let mut mask = ErrorMask::new(3, 2);
        mask.set(1, 0, true);
        let labeled = LabeledTuple::from_mask(&mask, &[0, 1]);
        assert_eq!(labeled.len(), 2);
        assert_eq!(labeled[0].flags, vec![false, false]);
        assert_eq!(labeled[1].flags, vec![true, false]);
    }

    #[test]
    fn mixed_budget_covers_error_and_clean_rows_and_clamps_to_the_table() {
        let mut mask = ErrorMask::new(4, 2);
        mask.set(2, 1, true);
        let labeled = LabeledTuple::mixed_from_mask(&mask, 2);
        // One error row exists (row 2), plus the first two rows outright.
        let rows: Vec<usize> = labeled.iter().map(|l| l.row).collect();
        assert_eq!(rows, vec![2, 0, 1]);
        // A budget larger than the table degrades gracefully instead of
        // indexing past the mask, and never labels a row twice.
        let oversized = LabeledTuple::mixed_from_mask(&mask, 20);
        assert!(oversized.iter().all(|l| l.row < 4));
        let mut seen: Vec<usize> = oversized.iter().map(|l| l.row).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), oversized.len(), "all labelled rows distinct");
        assert_eq!(oversized.len(), 4, "every row labelled exactly once");
    }
}
