//! ActiveClean: record-level dirty-data detection with a convex model.
//!
//! ActiveClean interleaves cleaning with training of a downstream convex model
//! and prioritises records whose gradients suggest they are dirty. As an error
//! *detector* (the role it plays in the paper's comparison) it reduces to:
//! featurise each record with simple aggregate statistics, train a logistic
//! model on the few labelled records (dirty = any cell dirty), and flag every
//! cell of the records predicted dirty. Because whole records are flagged, its
//! precision is low on datasets where errors are sparse within a tuple —
//! exactly the behaviour reported in the paper.

use crate::{Baseline, BaselineInput};
use std::collections::HashMap;
use zeroed_ml::{LogisticRegression, LogisticRegressionConfig};
use zeroed_table::value::{is_missing, parse_numeric};
use zeroed_table::{ErrorMask, Table};

/// Configuration of the ActiveClean baseline.
#[derive(Debug, Clone)]
pub struct ActiveClean {
    /// Probability threshold above which a record is considered dirty.
    pub threshold: f32,
}

impl Default for ActiveClean {
    fn default() -> Self {
        Self { threshold: 0.5 }
    }
}

impl ActiveClean {
    /// Simple record-level features: per-record missing fraction, mean value
    /// rarity, mean length and numeric fraction.
    fn record_features(table: &Table, value_counts: &[HashMap<&str, usize>]) -> Vec<Vec<f32>> {
        let n_rows = table.n_rows().max(1) as f64;
        table
            .rows()
            .iter()
            .map(|row| {
                let n_cols = row.len().max(1) as f32;
                let missing = row.iter().filter(|v| is_missing(v)).count() as f32 / n_cols;
                let rarity: f32 = row
                    .iter()
                    .enumerate()
                    .map(|(j, v)| {
                        let c = *value_counts[j].get(v.as_str()).unwrap_or(&0) as f64;
                        (1.0 - c / n_rows) as f32
                    })
                    .sum::<f32>()
                    / n_cols;
                let mean_len =
                    row.iter().map(|v| v.chars().count() as f32).sum::<f32>() / n_cols / 32.0;
                let numeric =
                    row.iter().filter(|v| parse_numeric(v).is_some()).count() as f32 / n_cols;
                vec![missing, rarity, mean_len.min(1.0), numeric]
            })
            .collect()
    }
}

impl Baseline for ActiveClean {
    fn name(&self) -> &'static str {
        "ActiveClean"
    }

    fn detect(&self, input: &BaselineInput<'_>) -> ErrorMask {
        let table = input.dirty;
        let mut mask = ErrorMask::for_table(table);
        if table.n_rows() == 0 || input.labeled.is_empty() {
            return mask;
        }
        let value_counts: Vec<HashMap<&str, usize>> = (0..table.n_cols())
            .map(|j| {
                let mut counts: HashMap<&str, usize> = HashMap::new();
                for row in table.rows() {
                    *counts.entry(row[j].as_str()).or_insert(0) += 1;
                }
                counts
            })
            .collect();
        let features = Self::record_features(table, &value_counts);

        // Train on the labelled records.
        let mut train_rows: Vec<&[f32]> = Vec::new();
        let mut train_labels: Vec<f32> = Vec::new();
        for labeled in input.labeled {
            if labeled.row >= table.n_rows() {
                continue;
            }
            train_rows.push(features[labeled.row].as_slice());
            train_labels.push(if labeled.flags.iter().any(|&f| f) {
                1.0
            } else {
                0.0
            });
        }
        let has_dirty = train_labels.iter().any(|&l| l > 0.5);
        let has_clean = train_labels.iter().any(|&l| l < 0.5);
        if train_rows.is_empty() {
            return mask;
        }
        if !has_dirty || !has_clean {
            // With a single observed class ActiveClean cannot separate records;
            // it conservatively follows the observed class for every record.
            let flag_all = has_dirty;
            if flag_all {
                for row in 0..table.n_rows() {
                    for col in 0..table.n_cols() {
                        mask.set(row, col, true);
                    }
                }
            }
            return mask;
        }
        let model = LogisticRegression::fit(
            &train_rows,
            &train_labels,
            &LogisticRegressionConfig::default(),
        );
        for (row, feat) in features.iter().enumerate() {
            if model.predict_proba(feat) >= self.threshold {
                for col in 0..table.n_cols() {
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
    use crate::LabeledTuple;
    use zeroed_datagen::{generate, DatasetSpec, GenerateOptions};

    #[test]
    fn flags_whole_records_and_needs_both_classes() {
        let ds = generate(
            DatasetSpec::Rayyan,
            &GenerateOptions {
                n_rows: 150,
                seed: 2,
                error_spec: None,
            },
        );
        // Pick some dirty and some clean rows to label.
        let dirty_rows: Vec<usize> = ds.injected.iter().map(|e| e.row).take(10).collect();
        let clean_rows: Vec<usize> = (0..ds.dirty.n_rows())
            .filter(|&r| (0..ds.dirty.n_cols()).all(|c| !ds.mask.get(r, c)))
            .take(10)
            .collect();
        let mut rows = dirty_rows.clone();
        rows.extend(&clean_rows);
        let labeled = LabeledTuple::from_mask(&ds.mask, &rows);
        let input = BaselineInput {
            dirty: &ds.dirty,
            metadata: &ds.metadata,
            labeled: &labeled,
        };
        let mask = ActiveClean::default().detect(&input);
        // Record-level flagging: any flagged row has every cell flagged.
        for row in 0..ds.dirty.n_rows() {
            let flagged: Vec<bool> = (0..ds.dirty.n_cols()).map(|c| mask.get(row, c)).collect();
            assert!(
                flagged.iter().all(|&f| f) || flagged.iter().all(|&f| !f),
                "row {row} should be flagged entirely or not at all"
            );
        }
        assert_eq!(ActiveClean::default().name(), "ActiveClean");
    }

    #[test]
    fn no_labels_no_output() {
        let ds = generate(
            DatasetSpec::Beers,
            &GenerateOptions {
                n_rows: 60,
                seed: 3,
                error_spec: None,
            },
        );
        let input = BaselineInput {
            dirty: &ds.dirty,
            metadata: &ds.metadata,
            labeled: &[],
        };
        assert_eq!(ActiveClean::default().detect(&input).error_count(), 0);
    }
}
