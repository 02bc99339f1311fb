//! dBoost: statistical outlier detection over numeric and formatted columns.
//!
//! The original dBoost fits simple statistical models (Gaussians, histograms,
//! partitioned models) per column and flags low-likelihood cells. This
//! implementation keeps the two models that matter for the benchmark error
//! types it targets (outliers and pattern/rule side effects): a Gaussian
//! z-score test on numeric columns and a rare-format test on textual columns.
//! Missing values and typos are out of scope by design (paper Table I).
//!
//! The hot path consumes the shared distinct-value machinery
//! ([`zeroed_table::TableDict`] via the code-keyed
//! [`zeroed_features::FrequencyModel`]): numeric parsing, format
//! generalisation and the per-format histogram all run once per *distinct*
//! value and are scattered to rows by code, instead of re-hashing owned
//! strings per cell as the seed implementation did.
//! [`DBoost::detect_reference`] keeps the seed per-cell path as the
//! correctness oracle (same discipline as `zeroed_features::reference`).

use crate::{Baseline, BaselineInput};
use std::collections::HashMap;
use std::sync::Arc;
use zeroed_features::pattern::{generalize, Level};
use zeroed_features::FrequencyModel;
use zeroed_table::value::parse_numeric;
use zeroed_table::ErrorMask;

/// Configuration of the dBoost baseline.
#[derive(Debug, Clone)]
pub struct DBoost {
    /// Z-score above which a numeric value is an outlier (dBoost's common
    /// configuration uses 3 standard deviations).
    pub z_threshold: f64,
    /// Formats rarer than this fraction of a column are flagged.
    pub pattern_threshold: f64,
}

impl Default for DBoost {
    fn default() -> Self {
        Self {
            z_threshold: 3.0,
            pattern_threshold: 0.02,
        }
    }
}

impl DBoost {
    /// The seed per-cell implementation: recomputes numeric parses and format
    /// generalisations for every cell over string-keyed histograms. Kept as
    /// the correctness oracle for the interned fast path.
    pub fn detect_reference(&self, input: &BaselineInput<'_>) -> ErrorMask {
        let table = input.dirty;
        let mut mask = ErrorMask::for_table(table);
        let n_rows = table.n_rows();
        if n_rows == 0 {
            return mask;
        }
        for col in 0..table.n_cols() {
            let values: Vec<&str> = table.column_refs(col);
            // Gaussian model on numeric columns.
            let numerics: Vec<f64> = values.iter().filter_map(|v| parse_numeric(v)).collect();
            let is_numeric_col = numerics.len() as f64 >= 0.9 * n_rows as f64;
            let gaussian = if is_numeric_col && numerics.len() > 1 {
                let mean = numerics.iter().sum::<f64>() / numerics.len() as f64;
                let var = numerics.iter().map(|x| (x - mean).powi(2)).sum::<f64>()
                    / numerics.len() as f64;
                Some((mean, var.sqrt().max(1e-9)))
            } else {
                None
            };
            // Histogram of L2 formats.
            let mut pattern_counts: HashMap<String, usize> = HashMap::new();
            for v in &values {
                *pattern_counts.entry(generalize(v, Level::L2)).or_insert(0) += 1;
            }
            for (row, v) in values.iter().enumerate() {
                let mut flagged = false;
                if let (Some((mean, std)), Some(x)) = (gaussian, parse_numeric(v)) {
                    if ((x - mean) / std).abs() > self.z_threshold {
                        flagged = true;
                    }
                }
                if !flagged {
                    let count = pattern_counts[&generalize(v, Level::L2)];
                    if (count as f64 / n_rows as f64) < self.pattern_threshold {
                        flagged = true;
                    }
                }
                if flagged {
                    mask.set(row, col, true);
                }
            }
        }
        mask
    }
}

impl Baseline for DBoost {
    fn name(&self) -> &'static str {
        "dBoost"
    }

    fn detect(&self, input: &BaselineInput<'_>) -> ErrorMask {
        let table = input.dirty;
        let mut mask = ErrorMask::for_table(table);
        let n_rows = table.n_rows();
        if n_rows == 0 {
            return mask;
        }
        // Shared interned machinery: one dictionary pass, format histograms
        // memoised per distinct code inside the frequency model.
        let fm = FrequencyModel::from_dict(Arc::new(table.intern()));
        for col in 0..table.n_cols() {
            let dict = fm.dict().column(col);
            let n_distinct = dict.n_distinct();
            // Numeric parse once per distinct value; occurrence counts come
            // from the dictionary, so the weighted moments equal the seed's
            // per-row accumulation.
            let parsed: Vec<Option<f64>> = dict.values().iter().map(|v| parse_numeric(v)).collect();
            let mut numeric_rows = 0usize;
            let mut sum = 0.0f64;
            for (code, x) in parsed.iter().enumerate() {
                if let Some(x) = x {
                    let c = dict.count(code as u32) as usize;
                    numeric_rows += c;
                    sum += x * c as f64;
                }
            }
            let is_numeric_col = numeric_rows as f64 >= 0.9 * n_rows as f64;
            let gaussian = if is_numeric_col && numeric_rows > 1 {
                let mean = sum / numeric_rows as f64;
                let var = parsed
                    .iter()
                    .enumerate()
                    .filter_map(|(code, x)| {
                        x.map(|x| (x - mean).powi(2) * dict.count(code as u32) as f64)
                    })
                    .sum::<f64>()
                    / numeric_rows as f64;
                Some((mean, var.sqrt().max(1e-9)))
            } else {
                None
            };
            // Decide once per distinct value, scatter by code.
            let flagged: Vec<bool> = (0..n_distinct)
                .map(|code| {
                    if let (Some((mean, std)), Some(x)) = (gaussian, parsed[code]) {
                        if ((x - mean) / std).abs() > self.z_threshold {
                            return true;
                        }
                    }
                    fm.pattern_frequency_code(col, code as u32, Level::L2) < self.pattern_threshold
                })
                .collect();
            for (row, &code) in dict.codes().iter().enumerate() {
                if flagged[code as usize] {
                    mask.set(row, col, true);
                }
            }
        }
        mask
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zeroed_datagen::DatasetMetadata;
    use zeroed_table::Table;

    fn input_fixture() -> (Table, DatasetMetadata) {
        let mut rows: Vec<Vec<String>> = (0..100)
            .map(|i| {
                vec![
                    format!("{}", 50_000 + (i % 10) * 100),
                    "7:45 am".to_string(),
                ]
            })
            .collect();
        rows[3][0] = "5000000".into(); // numeric outlier
        rows[8][1] = "0745".into(); // rare format
        (
            Table::new("t", vec!["salary".into(), "time".into()], rows).unwrap(),
            DatasetMetadata::default(),
        )
    }

    #[test]
    fn flags_numeric_outliers_and_rare_formats() {
        let (table, metadata) = input_fixture();
        let input = BaselineInput {
            dirty: &table,
            metadata: &metadata,
            labeled: &[],
        };
        let mask = DBoost::default().detect(&input);
        assert!(mask.get(3, 0), "numeric outlier should be flagged");
        assert!(mask.get(8, 1), "rare format should be flagged");
        assert!(!mask.get(0, 0));
        assert!(!mask.get(0, 1));
        assert!(mask.error_count() < 10);
    }

    #[test]
    fn interned_path_matches_the_reference() {
        let (table, metadata) = input_fixture();
        let input = BaselineInput {
            dirty: &table,
            metadata: &metadata,
            labeled: &[],
        };
        let detector = DBoost::default();
        assert_eq!(detector.detect(&input), detector.detect_reference(&input));
    }

    #[test]
    fn empty_table_yields_empty_mask() {
        let table = Table::empty("e", vec!["a".into()]);
        let metadata = DatasetMetadata::default();
        let input = BaselineInput {
            dirty: &table,
            metadata: &metadata,
            labeled: &[],
        };
        assert_eq!(DBoost::default().detect(&input).error_count(), 0);
        assert_eq!(DBoost::default().detect_reference(&input).error_count(), 0);
        assert_eq!(DBoost::default().name(), "dBoost");
    }
}
