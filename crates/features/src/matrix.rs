//! A simple dense, row-major `f32` feature matrix.

/// Dense row-major matrix of `f32` features: one row per cell value of an
/// attribute, one column per feature dimension.
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureMatrix {
    n_rows: usize,
    n_cols: usize,
    data: Vec<f32>,
}

impl FeatureMatrix {
    /// Creates a zero-filled matrix.
    pub fn zeros(n_rows: usize, n_cols: usize) -> Self {
        Self {
            n_rows,
            n_cols,
            data: vec![0.0; n_rows * n_cols],
        }
    }

    /// Builds a matrix from per-row vectors. All rows must share a length;
    /// panics otherwise (programming error).
    pub fn from_rows(rows: Vec<Vec<f32>>) -> Self {
        let n_rows = rows.len();
        let n_cols = rows.first().map(|r| r.len()).unwrap_or(0);
        let mut data = Vec::with_capacity(n_rows * n_cols);
        for row in &rows {
            assert_eq!(row.len(), n_cols, "all feature rows must share a dimension");
            data.extend_from_slice(row);
        }
        Self {
            n_rows,
            n_cols,
            data,
        }
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of feature dimensions.
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// Borrow one row.
    #[inline]
    pub fn row(&self, i: usize) -> &[f32] {
        &self.data[i * self.n_cols..(i + 1) * self.n_cols]
    }

    /// Mutable borrow of one row.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f32] {
        &mut self.data[i * self.n_cols..(i + 1) * self.n_cols]
    }

    /// Builds a matrix from an existing flat row-major buffer.
    ///
    /// Panics when `data.len() != n_rows * n_cols` (programming error).
    pub fn from_flat(n_rows: usize, n_cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            n_rows * n_cols,
            "flat buffer must hold n_rows * n_cols values"
        );
        Self {
            n_rows,
            n_cols,
            data,
        }
    }

    /// The underlying flat row-major buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable access to the flat row-major buffer (used by the zero-copy
    /// feature assembly to scatter per-distinct-value blocks into rows, and to
    /// split the buffer into disjoint row chunks for parallel writers).
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Borrowed references to every row in order — the view the clustering
    /// and detector layers consume (`&[&[f32]]`) without copying any data.
    pub fn row_refs(&self) -> Vec<&[f32]> {
        (0..self.n_rows).map(|i| self.row(i)).collect()
    }

    /// Returns a new matrix keeping only the selected rows.
    pub fn select_rows(&self, indices: &[usize]) -> FeatureMatrix {
        let mut out = FeatureMatrix::zeros(indices.len(), self.n_cols);
        for (dst, &src) in indices.iter().enumerate() {
            out.row_mut(dst).copy_from_slice(self.row(src));
        }
        out
    }

    /// Horizontally concatenates two matrices with the same row count.
    pub fn hconcat(&self, other: &FeatureMatrix) -> FeatureMatrix {
        assert_eq!(
            self.n_rows, other.n_rows,
            "hconcat requires matching row counts"
        );
        let n_cols = self.n_cols + other.n_cols;
        let mut data = Vec::with_capacity(self.n_rows * n_cols);
        for i in 0..self.n_rows {
            data.extend_from_slice(self.row(i));
            data.extend_from_slice(other.row(i));
        }
        FeatureMatrix::from_flat(self.n_rows, n_cols, data)
    }

    /// Squared Euclidean distance between two rows of (possibly different)
    /// matrices with the same dimensionality.
    pub fn sq_distance(a: &[f32], b: &[f32]) -> f32 {
        a.iter()
            .zip(b.iter())
            .map(|(x, y)| {
                let d = x - y;
                d * d
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let m = FeatureMatrix::from_rows(vec![vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(m.n_rows(), 2);
        assert_eq!(m.n_cols(), 2);
        assert_eq!(m.row(1), &[3.0, 4.0]);
        assert_eq!(m.as_slice(), &[1.0, 2.0, 3.0, 4.0]);
        let z = FeatureMatrix::zeros(3, 2);
        assert_eq!(z.row(2), &[0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "share a dimension")]
    fn ragged_rows_panic() {
        let _ = FeatureMatrix::from_rows(vec![vec![1.0], vec![1.0, 2.0]]);
    }

    #[test]
    fn select_and_concat() {
        let m = FeatureMatrix::from_rows(vec![vec![1.0], vec![2.0], vec![3.0]]);
        let s = m.select_rows(&[2, 0]);
        assert_eq!(s.row(0), &[3.0]);
        assert_eq!(s.row(1), &[1.0]);
        let n = FeatureMatrix::from_rows(vec![vec![9.0], vec![8.0], vec![7.0]]);
        let c = m.hconcat(&n);
        assert_eq!(c.n_cols(), 2);
        assert_eq!(c.row(1), &[2.0, 8.0]);
        // Chained, with blocks of different widths.
        let w = FeatureMatrix::from_rows(vec![vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]);
        let chained = w.hconcat(&n).hconcat(&w);
        assert_eq!(chained.n_cols(), 5);
        assert_eq!(chained.row(0), &[1.0, 2.0, 9.0, 1.0, 2.0]);
        assert_eq!(chained.row(2), &[5.0, 6.0, 7.0, 5.0, 6.0]);
    }

    #[test]
    fn from_flat_round_trips() {
        let m = FeatureMatrix::from_flat(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
    }

    #[test]
    #[should_panic(expected = "n_rows * n_cols")]
    fn from_flat_checks_length() {
        let _ = FeatureMatrix::from_flat(2, 3, vec![0.0; 5]);
    }

    #[test]
    fn distances() {
        assert_eq!(FeatureMatrix::sq_distance(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
        assert_eq!(FeatureMatrix::sq_distance(&[1.0], &[1.0]), 0.0);
    }
}
