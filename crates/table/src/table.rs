//! The [`Table`] type: an in-memory string-typed relational table.

use crate::schema::Schema;
use crate::{Result, TableError};

/// A reference to a single cell, identified by `(row, column)` indices.
///
/// This mirrors the `D[i, j]` notation in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CellRef {
    /// Zero-based tuple (row) index.
    pub row: usize,
    /// Zero-based attribute (column) index.
    pub col: usize,
}

impl CellRef {
    /// Creates a new cell reference.
    pub fn new(row: usize, col: usize) -> Self {
        Self { row, col }
    }
}

/// An in-memory relational table with named columns and string cells.
///
/// All values are stored as `String`; the empty string denotes a missing value.
/// This matches the data model of the ZeroED paper where error detection is a
/// binary classification over every cell value `D[i, j]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    name: String,
    columns: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table from column names and row data.
    ///
    /// Returns [`TableError::RowArity`] if any row's width differs from the
    /// number of columns.
    pub fn new(
        name: impl Into<String>,
        columns: Vec<String>,
        rows: Vec<Vec<String>>,
    ) -> Result<Self> {
        let ncols = columns.len();
        for (i, row) in rows.iter().enumerate() {
            if row.len() != ncols {
                return Err(TableError::RowArity {
                    row: i,
                    found: row.len(),
                    expected: ncols,
                });
            }
        }
        Ok(Self {
            name: name.into(),
            columns,
            rows,
        })
    }

    /// Creates an empty table with the given column names.
    pub fn empty(name: impl Into<String>, columns: Vec<String>) -> Self {
        Self {
            name: name.into(),
            columns,
            rows: Vec::new(),
        }
    }

    /// The table's name (dataset name).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Renames the table.
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// Number of tuples (rows).
    pub fn n_rows(&self) -> usize {
        self.rows.len()
    }

    /// Number of attributes (columns).
    pub fn n_cols(&self) -> usize {
        self.columns.len()
    }

    /// Total number of cells.
    pub fn n_cells(&self) -> usize {
        self.n_rows() * self.n_cols()
    }

    /// Column names in order.
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// Index of a column by name, if present.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c == name)
    }

    /// Index of a column by name, as a `Result`.
    pub fn require_column(&self, name: &str) -> Result<usize> {
        self.column_index(name)
            .ok_or_else(|| TableError::NoSuchColumn(name.to_string()))
    }

    /// Borrow the raw rows.
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    /// Borrow a single row.
    pub fn row(&self, i: usize) -> Result<&[String]> {
        self.rows
            .get(i)
            .map(|r| r.as_slice())
            .ok_or_else(|| TableError::OutOfBounds {
                what: format!("row {i} of {}", self.rows.len()),
            })
    }

    /// Get a cell value. Panics on out-of-bounds (use [`Table::get`] for a
    /// checked variant); the unchecked accessor keeps hot loops simple.
    pub fn cell(&self, row: usize, col: usize) -> &str {
        &self.rows[row][col]
    }

    /// Checked cell access.
    pub fn get(&self, row: usize, col: usize) -> Result<&str> {
        self.rows
            .get(row)
            .and_then(|r| r.get(col))
            .map(|s| s.as_str())
            .ok_or_else(|| TableError::OutOfBounds {
                what: format!(
                    "cell ({row}, {col}) of ({}, {})",
                    self.rows.len(),
                    self.columns.len()
                ),
            })
    }

    /// Sets a cell value (checked).
    pub fn set(&mut self, row: usize, col: usize, value: impl Into<String>) -> Result<()> {
        let nrows = self.rows.len();
        let ncols = self.columns.len();
        let cell = self
            .rows
            .get_mut(row)
            .and_then(|r| r.get_mut(col))
            .ok_or_else(|| TableError::OutOfBounds {
                what: format!("cell ({row}, {col}) of ({nrows}, {ncols})"),
            })?;
        *cell = value.into();
        Ok(())
    }

    /// Appends a row.
    pub fn push_row(&mut self, row: Vec<String>) -> Result<()> {
        if row.len() != self.columns.len() {
            return Err(TableError::RowArity {
                row: self.rows.len(),
                found: row.len(),
                expected: self.columns.len(),
            });
        }
        self.rows.push(row);
        Ok(())
    }

    /// Returns an owned copy of a column's values.
    pub fn column_values(&self, col: usize) -> Result<Vec<String>> {
        if col >= self.columns.len() {
            return Err(TableError::OutOfBounds {
                what: format!("column {col} of {}", self.columns.len()),
            });
        }
        Ok(self.rows.iter().map(|r| r[col].clone()).collect())
    }

    /// Returns borrowed references to a column's values.
    pub fn column_refs(&self, col: usize) -> Vec<&str> {
        self.rows.iter().map(|r| r[col].as_str()).collect()
    }

    /// Iterator over `(CellRef, &str)` for every cell, row-major.
    pub fn iter_cells(&self) -> impl Iterator<Item = (CellRef, &str)> + '_ {
        self.rows.iter().enumerate().flat_map(|(i, row)| {
            row.iter()
                .enumerate()
                .map(move |(j, v)| (CellRef::new(i, j), v.as_str()))
        })
    }

    /// Returns a new table containing only the first `n` rows (or all rows if
    /// fewer). Useful for the scalability experiments on Tax subsets.
    pub fn head(&self, n: usize) -> Table {
        Table {
            name: self.name.clone(),
            columns: self.columns.clone(),
            rows: self.rows.iter().take(n).cloned().collect(),
        }
    }

    /// Returns a new table containing only the selected row indices.
    pub fn select_rows(&self, indices: &[usize]) -> Result<Table> {
        let mut rows = Vec::with_capacity(indices.len());
        for &i in indices {
            rows.push(self.row(i)?.to_vec());
        }
        Ok(Table {
            name: self.name.clone(),
            columns: self.columns.clone(),
            rows,
        })
    }

    /// Infers the table's [`Schema`] from its contents.
    pub fn schema(&self) -> Schema {
        Schema::infer(self)
    }

    /// Checks that another table has the same shape and column names, which is
    /// required when diffing dirty against clean data.
    pub fn congruent_with(&self, other: &Table) -> Result<()> {
        if self.columns != other.columns {
            return Err(TableError::ShapeMismatch(format!(
                "column names differ: {:?} vs {:?}",
                self.columns, other.columns
            )));
        }
        if self.n_rows() != other.n_rows() {
            return Err(TableError::ShapeMismatch(format!(
                "row counts differ: {} vs {}",
                self.n_rows(),
                other.n_rows()
            )));
        }
        Ok(())
    }

    /// Serialises a tuple as the attribute-value pair string used in LLM
    /// prompts (paper §III-B): `attr1: val1 | attr2: val2 | ...`.
    pub fn serialize_tuple(&self, row: usize) -> Result<String> {
        let r = self.row(row)?;
        let parts: Vec<String> = self
            .columns
            .iter()
            .zip(r.iter())
            .map(|(c, v)| format!("{c}: {v}"))
            .collect();
        Ok(parts.join(" | "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        Table::new(
            "tax",
            vec!["Name".into(), "Gender".into(), "Salary".into()],
            vec![
                vec!["Bob Johnson".into(), "M".into(), "80000".into()],
                vec!["Carol Brown".into(), "F".into(), "6000".into()],
                vec!["Dave Green".into(), "M".into(), "64000".into()],
            ],
        )
        .unwrap()
    }

    #[test]
    fn construction_checks_arity() {
        let err = Table::new(
            "t",
            vec!["a".into(), "b".into()],
            vec![vec!["1".into()]],
        )
        .unwrap_err();
        assert!(matches!(err, TableError::RowArity { expected: 2, found: 1, .. }));
    }

    #[test]
    fn basic_accessors() {
        let t = sample();
        assert_eq!(t.n_rows(), 3);
        assert_eq!(t.n_cols(), 3);
        assert_eq!(t.n_cells(), 9);
        assert_eq!(t.cell(1, 2), "6000");
        assert_eq!(t.get(1, 2).unwrap(), "6000");
        assert!(t.get(9, 0).is_err());
        assert_eq!(t.column_index("Gender"), Some(1));
        assert_eq!(t.column_index("none"), None);
        assert!(t.require_column("none").is_err());
    }

    #[test]
    fn set_and_push() {
        let mut t = sample();
        t.set(0, 2, "90000").unwrap();
        assert_eq!(t.cell(0, 2), "90000");
        assert!(t.set(5, 0, "x").is_err());
        t.push_row(vec!["Eve".into(), "F".into(), "1".into()]).unwrap();
        assert_eq!(t.n_rows(), 4);
        assert!(t.push_row(vec!["too short".into()]).is_err());
    }

    #[test]
    fn column_values_and_iter() {
        let t = sample();
        assert_eq!(
            t.column_values(1).unwrap(),
            vec!["M".to_string(), "F".into(), "M".into()]
        );
        assert!(t.column_values(7).is_err());
        assert_eq!(t.iter_cells().count(), 9);
        let (first_ref, first_val) = t.iter_cells().next().unwrap();
        assert_eq!(first_ref, CellRef::new(0, 0));
        assert_eq!(first_val, "Bob Johnson");
    }

    #[test]
    fn head_and_select() {
        let t = sample();
        assert_eq!(t.head(2).n_rows(), 2);
        assert_eq!(t.head(10).n_rows(), 3);
        let sel = t.select_rows(&[2, 0]).unwrap();
        assert_eq!(sel.cell(0, 0), "Dave Green");
        assert_eq!(sel.cell(1, 0), "Bob Johnson");
        assert!(t.select_rows(&[10]).is_err());
    }

    #[test]
    fn congruence() {
        let t = sample();
        let mut other = sample();
        assert!(t.congruent_with(&other).is_ok());
        other.push_row(vec!["x".into(), "M".into(), "1".into()]).unwrap();
        assert!(t.congruent_with(&other).is_err());
        let different = Table::empty("d", vec!["A".into()]);
        assert!(t.congruent_with(&different).is_err());
    }

    #[test]
    fn tuple_serialization() {
        let t = sample();
        assert_eq!(
            t.serialize_tuple(0).unwrap(),
            "Name: Bob Johnson | Gender: M | Salary: 80000"
        );
    }
}
