//! Schema inference: per-column types and summary statistics.

use crate::table::Table;
use crate::value;
use std::collections::HashSet;

/// Coarse value type of a column, inferred from its contents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColumnType {
    /// Mostly integer values.
    Integer,
    /// Mostly floating-point (or mixed numeric) values.
    Float,
    /// Few distinct values relative to the row count (codes, enums, flags).
    Categorical,
    /// Free-form text values.
    Text,
    /// Column is (almost) entirely missing.
    Empty,
}

/// Per-column metadata computed by [`Schema::infer`].
#[derive(Debug, Clone)]
pub struct ColumnMeta {
    /// Column name.
    pub name: String,
    /// Inferred coarse type.
    pub ty: ColumnType,
    /// Number of distinct non-missing values.
    pub distinct: usize,
    /// Fraction of rows whose value is missing ([`value::is_missing`]).
    pub missing_ratio: f64,
    /// Minimum numeric value among parseable cells (if any).
    pub numeric_min: Option<f64>,
    /// Maximum numeric value among parseable cells (if any).
    pub numeric_max: Option<f64>,
    /// Mean numeric value among parseable cells (if any).
    pub numeric_mean: Option<f64>,
    /// Mean string length of non-missing values.
    pub mean_len: f64,
}

/// A table schema: ordered per-column metadata.
#[derive(Debug, Clone)]
pub struct Schema {
    columns: Vec<ColumnMeta>,
}

impl Schema {
    /// Infers column metadata from the table contents.
    ///
    /// Type inference rules (applied to non-missing values only):
    /// * ≥ 90% parse as integers → [`ColumnType::Integer`];
    /// * ≥ 90% parse as numbers → [`ColumnType::Float`];
    /// * otherwise, if the number of distinct values is at most
    ///   `max(10, 5% of rows)` → [`ColumnType::Categorical`];
    /// * otherwise [`ColumnType::Text`].
    pub fn infer(table: &Table) -> Schema {
        let n_rows = table.n_rows();
        let mut columns = Vec::with_capacity(table.n_cols());
        for (j, name) in table.columns().iter().enumerate() {
            let mut distinct: HashSet<&str> = HashSet::new();
            let mut missing = 0usize;
            let mut numeric: Vec<f64> = Vec::new();
            let mut integers = 0usize;
            let mut non_missing = 0usize;
            let mut total_len = 0usize;
            for row in table.rows() {
                let v = row[j].as_str();
                if value::is_missing(v) {
                    missing += 1;
                    continue;
                }
                non_missing += 1;
                total_len += v.chars().count();
                distinct.insert(v);
                if let Some(x) = value::parse_numeric(v) {
                    numeric.push(x);
                    if (x.fract()).abs() < f64::EPSILON {
                        integers += 1;
                    }
                }
            }
            let ty = if non_missing == 0 {
                ColumnType::Empty
            } else if numeric.len() as f64 >= 0.9 * non_missing as f64 {
                if integers as f64 >= 0.9 * non_missing as f64 {
                    ColumnType::Integer
                } else {
                    ColumnType::Float
                }
            } else if distinct.len() <= 10.max(n_rows / 20) {
                ColumnType::Categorical
            } else {
                ColumnType::Text
            };
            let (numeric_min, numeric_max, numeric_mean) = if numeric.is_empty() {
                (None, None, None)
            } else {
                let min = numeric.iter().cloned().fold(f64::INFINITY, f64::min);
                let max = numeric.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                let mean = numeric.iter().sum::<f64>() / numeric.len() as f64;
                (Some(min), Some(max), Some(mean))
            };
            columns.push(ColumnMeta {
                name: name.clone(),
                ty,
                distinct: distinct.len(),
                missing_ratio: if n_rows == 0 {
                    0.0
                } else {
                    missing as f64 / n_rows as f64
                },
                numeric_min,
                numeric_max,
                numeric_mean,
                mean_len: if non_missing == 0 {
                    0.0
                } else {
                    total_len as f64 / non_missing as f64
                },
            });
        }
        Schema { columns }
    }

    /// Per-column metadata in column order.
    pub fn columns(&self) -> &[ColumnMeta] {
        &self.columns
    }

    /// Metadata for a single column index.
    pub fn column(&self, idx: usize) -> Option<&ColumnMeta> {
        self.columns.get(idx)
    }

    /// Looks up a column's metadata by name.
    pub fn by_name(&self, name: &str) -> Option<&ColumnMeta> {
        self.columns.iter().find(|c| c.name == name)
    }

    /// Returns `true` if the column at `idx` is numeric (integer or float).
    pub fn is_numeric(&self, idx: usize) -> bool {
        matches!(
            self.columns.get(idx).map(|c| c.ty),
            Some(ColumnType::Integer) | Some(ColumnType::Float)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> Table {
        Table::new(
            "t",
            vec![
                "id".into(),
                "price".into(),
                "gender".into(),
                "bio".into(),
                "empty".into(),
            ],
            (0..100)
                .map(|i| {
                    vec![
                        i.to_string(),
                        format!("{}.5", i),
                        if i % 2 == 0 { "M".into() } else { "F".into() },
                        format!("this is a rather unique biography number {i}"),
                        "".into(),
                    ]
                })
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn infers_types() {
        let schema = table().schema();
        assert_eq!(schema.column(0).unwrap().ty, ColumnType::Integer);
        assert_eq!(schema.column(1).unwrap().ty, ColumnType::Float);
        assert_eq!(schema.column(2).unwrap().ty, ColumnType::Categorical);
        assert_eq!(schema.column(3).unwrap().ty, ColumnType::Text);
        assert_eq!(schema.column(4).unwrap().ty, ColumnType::Empty);
        assert!(schema.is_numeric(0));
        assert!(schema.is_numeric(1));
        assert!(!schema.is_numeric(2));
    }

    #[test]
    fn numeric_summaries() {
        let schema = table().schema();
        let price = schema.by_name("price").unwrap();
        assert_eq!(price.numeric_min, Some(0.5));
        assert_eq!(price.numeric_max, Some(99.5));
        assert!((price.numeric_mean.unwrap() - 50.0).abs() < 1e-9);
        assert_eq!(price.missing_ratio, 0.0);
        let empty = schema.by_name("empty").unwrap();
        assert_eq!(empty.missing_ratio, 1.0);
        assert_eq!(empty.distinct, 0);
    }

    #[test]
    fn distinct_counts() {
        let schema = table().schema();
        assert_eq!(schema.by_name("gender").unwrap().distinct, 2);
        assert_eq!(schema.by_name("id").unwrap().distinct, 100);
        assert!(schema.by_name("nope").is_none());
    }
}
