//! Per-cell boolean error masks.
//!
//! An [`ErrorMask`] marks which cells of a table are erroneous. Ground-truth
//! masks are obtained by diffing a dirty table against its clean version
//! (`D[i,j] != D*[i,j]`, the paper's error definition); detector outputs are
//! also represented as masks so that scoring is uniform across all methods.

use crate::metrics::DetectionReport;
use crate::table::{CellRef, Table};
use crate::{Result, TableError};

/// A dense boolean matrix with the same shape as its table: `true` marks an
/// erroneous (or predicted-erroneous) cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ErrorMask {
    n_rows: usize,
    n_cols: usize,
    flags: Vec<bool>,
}

impl ErrorMask {
    /// Creates an all-false mask of the given shape.
    pub fn new(n_rows: usize, n_cols: usize) -> Self {
        Self {
            n_rows,
            n_cols,
            flags: vec![false; n_rows * n_cols],
        }
    }

    /// Creates an all-false mask with the shape of `table`.
    pub fn for_table(table: &Table) -> Self {
        Self::new(table.n_rows(), table.n_cols())
    }

    /// Computes the ground-truth mask by cell-wise comparison of a dirty table
    /// against its clean counterpart. Any literal difference counts as an
    /// error, mirroring the paper's problem statement.
    pub fn diff(dirty: &Table, clean: &Table) -> Result<Self> {
        dirty.congruent_with(clean)?;
        let mut mask = Self::for_table(dirty);
        for i in 0..dirty.n_rows() {
            for j in 0..dirty.n_cols() {
                if dirty.cell(i, j) != clean.cell(i, j) {
                    mask.set(i, j, true);
                }
            }
        }
        Ok(mask)
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of columns.
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    #[inline]
    fn idx(&self, row: usize, col: usize) -> usize {
        row * self.n_cols + col
    }

    /// Returns the flag at `(row, col)`. Panics if out of bounds.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> bool {
        self.flags[self.idx(row, col)]
    }

    /// Checked accessor.
    pub fn try_get(&self, row: usize, col: usize) -> Result<bool> {
        if row >= self.n_rows || col >= self.n_cols {
            return Err(TableError::OutOfBounds {
                what: format!(
                    "mask cell ({row}, {col}) of ({}, {})",
                    self.n_rows, self.n_cols
                ),
            });
        }
        Ok(self.get(row, col))
    }

    /// Sets the flag at `(row, col)`. Panics if out of bounds.
    #[inline]
    pub fn set(&mut self, row: usize, col: usize, value: bool) {
        let i = self.idx(row, col);
        self.flags[i] = value;
    }

    /// Marks a cell as erroneous.
    pub fn mark(&mut self, cell: CellRef) {
        self.set(cell.row, cell.col, true);
    }

    /// Number of cells flagged as errors.
    pub fn error_count(&self) -> usize {
        self.flags.iter().filter(|&&b| b).count()
    }

    /// Fraction of cells flagged as errors.
    pub fn error_rate(&self) -> f64 {
        if self.flags.is_empty() {
            0.0
        } else {
            self.error_count() as f64 / self.flags.len() as f64
        }
    }

    /// Number of cells flagged in a single column.
    pub fn column_error_count(&self, col: usize) -> usize {
        (0..self.n_rows).filter(|&i| self.get(i, col)).count()
    }

    /// Iterator over all flagged cells.
    pub fn iter_errors(&self) -> impl Iterator<Item = CellRef> + '_ {
        (0..self.n_rows).flat_map(move |i| {
            (0..self.n_cols)
                .filter(move |&j| self.get(i, j))
                .map(move |j| CellRef::new(i, j))
        })
    }

    /// Cell-wise OR of two masks (e.g. union of detector outputs).
    pub fn union(&self, other: &ErrorMask) -> Result<ErrorMask> {
        self.check_same_shape(other)?;
        let mut out = self.clone();
        for (a, b) in out.flags.iter_mut().zip(other.flags.iter()) {
            *a = *a || *b;
        }
        Ok(out)
    }

    /// Cell-wise AND of two masks.
    pub fn intersection(&self, other: &ErrorMask) -> Result<ErrorMask> {
        self.check_same_shape(other)?;
        let mut out = self.clone();
        for (a, b) in out.flags.iter_mut().zip(other.flags.iter()) {
            *a = *a && *b;
        }
        Ok(out)
    }

    /// Scores this mask (the prediction) against a ground-truth mask.
    pub fn score_against(&self, truth: &ErrorMask) -> Result<DetectionReport> {
        self.check_same_shape(truth)?;
        let mut tp = 0usize;
        let mut fp = 0usize;
        let mut fne = 0usize;
        let mut tn = 0usize;
        for (p, t) in self.flags.iter().zip(truth.flags.iter()) {
            match (p, t) {
                (true, true) => tp += 1,
                (true, false) => fp += 1,
                (false, true) => fne += 1,
                (false, false) => tn += 1,
            }
        }
        Ok(DetectionReport::from_counts(tp, fp, fne, tn))
    }

    fn check_same_shape(&self, other: &ErrorMask) -> Result<()> {
        if self.n_rows != other.n_rows || self.n_cols != other.n_cols {
            return Err(TableError::ShapeMismatch(format!(
                "mask shapes differ: ({}, {}) vs ({}, {})",
                self.n_rows, self.n_cols, other.n_rows, other.n_cols
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dirty_clean() -> (Table, Table) {
        let clean = Table::new(
            "t",
            vec!["a".into(), "b".into()],
            vec![
                vec!["1".into(), "x".into()],
                vec!["2".into(), "y".into()],
                vec!["3".into(), "z".into()],
            ],
        )
        .unwrap();
        let mut dirty = clean.clone();
        dirty.set(0, 1, "").unwrap();
        dirty.set(2, 0, "33").unwrap();
        (dirty, clean)
    }

    #[test]
    fn diff_marks_changed_cells() {
        let (dirty, clean) = dirty_clean();
        let mask = ErrorMask::diff(&dirty, &clean).unwrap();
        assert_eq!(mask.error_count(), 2);
        assert!(mask.get(0, 1));
        assert!(mask.get(2, 0));
        assert!(!mask.get(1, 0));
        assert!((mask.error_rate() - 2.0 / 6.0).abs() < 1e-12);
        let cells: Vec<CellRef> = mask.iter_errors().collect();
        assert_eq!(cells, vec![CellRef::new(0, 1), CellRef::new(2, 0)]);
    }

    #[test]
    fn diff_requires_congruent_tables() {
        let (dirty, clean) = dirty_clean();
        assert!(ErrorMask::diff(&dirty, &clean.head(1)).is_err());
    }

    #[test]
    fn union_and_intersection() {
        let mut a = ErrorMask::new(2, 2);
        a.set(0, 0, true);
        a.set(1, 1, true);
        let mut b = ErrorMask::new(2, 2);
        b.set(0, 0, true);
        b.set(0, 1, true);
        let u = a.union(&b).unwrap();
        assert_eq!(u.error_count(), 3);
        let i = a.intersection(&b).unwrap();
        assert_eq!(i.error_count(), 1);
        assert!(i.get(0, 0));
        let other_shape = ErrorMask::new(1, 2);
        assert!(a.union(&other_shape).is_err());
    }

    #[test]
    fn scoring() {
        let (dirty, clean) = dirty_clean();
        let truth = ErrorMask::diff(&dirty, &clean).unwrap();
        // Perfect prediction.
        let report = truth.score_against(&truth).unwrap();
        assert_eq!(report.precision, 1.0);
        assert_eq!(report.recall, 1.0);
        assert_eq!(report.f1, 1.0);
        // Predict one of the two errors plus one false positive.
        let mut pred = ErrorMask::for_table(&dirty);
        pred.set(0, 1, true);
        pred.set(1, 0, true);
        let r = pred.score_against(&truth).unwrap();
        assert!((r.precision - 0.5).abs() < 1e-12);
        assert!((r.recall - 0.5).abs() < 1e-12);
        assert!((r.f1 - 0.5).abs() < 1e-12);
    }

    #[test]
    fn checked_access() {
        let m = ErrorMask::new(2, 2);
        assert!(m.try_get(1, 1).is_ok());
        assert!(m.try_get(2, 0).is_err());
        assert_eq!(m.column_error_count(0), 0);
    }
}
