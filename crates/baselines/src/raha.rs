//! Raha: the configuration-free, manual-label error detection system.
//!
//! Raha runs a large library of cheap detection strategies (outlier detectors,
//! pattern checks, rule checks, knowledge-base checks under many
//! configurations), uses their outputs as a feature vector per cell, clusters
//! the cells of each column, asks the user to label a handful of tuples,
//! propagates those labels through the clusters and trains a per-column
//! classifier. This implementation follows that architecture with a strategy
//! library drawn from the same families; the labelled tuples come from
//! [`crate::LabeledTuple`] (2 tuples by default in the paper's comparison,
//! swept in Fig. 6).
//!
//! The hot path consumes the shared distinct-value machinery
//! ([`zeroed_table::TableDict`]): every per-cell strategy verdict depends
//! only on the cell's *distinct value* (missing/empty checks, frequency and
//! format-rarity thresholds, Gaussian z-scores) or on the row's *code pair*
//! (rule strategies against per-determinant majorities), so the strategy
//! block is computed once per distinct code and scattered to rows, and the
//! majority tables are built over `(determinant code, value code)` pairs
//! instead of owned strings. [`Raha::detect_reference`] keeps the seed
//! per-cell path as the correctness oracle (same discipline as
//! `zeroed_features::reference`), with the majority tie-break pinned to the
//! same deterministic `(count, value)` order NADEEF's port established —
//! both paths must produce bit-identical masks (asserted by
//! `tests/interning_equivalence.rs`).

use crate::{Baseline, BaselineInput};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use zeroed_cluster::{cluster, SamplingMethod};
use zeroed_features::pattern::{generalize, Level};
use zeroed_ml::{LogisticRegression, LogisticRegressionConfig};
use zeroed_table::value::{is_missing, parse_numeric};
use zeroed_table::{ErrorMask, Table};

/// Configuration of the Raha baseline.
#[derive(Debug, Clone)]
pub struct Raha {
    /// Number of cell clusters per column (Raha's label-propagation
    /// granularity). The effective number also grows with the labelling
    /// budget.
    pub clusters_per_column: usize,
    /// Random seed.
    pub seed: u64,
}

impl Default for Raha {
    fn default() -> Self {
        Self {
            clusters_per_column: 20,
            seed: 13,
        }
    }
}

/// Number of per-distinct strategy features (missing ×2, frequency ×2,
/// format ×2, outlier ×2); rule strategies add one more per other column.
const BASE_STRATEGIES: usize = 8;

/// Multiply-xor hasher for the packed `(determinant code, value code)` pair
/// keys of the rule strategies. The pair maps see `n_rows` inserts per
/// (column, determinant) combination — the hot loop of the interned path on
/// near-unique columns — where SipHash overhead dominates; a single
/// multiply-mix is plenty for u64 keys that are already near-uniform codes.
#[derive(Default)]
struct PairHasher(u64);

impl Hasher for PairHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }

    fn finish(&self) -> u64 {
        let h = self.0;
        (h ^ (h >> 31)).wrapping_mul(0x94d0_49bb_1331_11eb)
    }
}

type PairMap = HashMap<u64, u32, BuildHasherDefault<PairHasher>>;

/// Packs a `(determinant code, value code)` pair into one map key.
fn pair_key(det_code: u32, value_code: u32) -> u64 {
    ((det_code as u64) << 32) | value_code as u64
}

impl Raha {
    /// Strategy-output feature vector for one cell: each entry is the verdict
    /// of one cheap detection strategy (1.0 = that strategy flags the cell).
    /// The seed per-cell path, kept for [`Raha::detect_reference`].
    fn strategy_features(
        table: &Table,
        col: usize,
        row: usize,
        value_counts: &HashMap<&str, usize>,
        pattern_counts: &HashMap<String, usize>,
        numeric_stats: Option<(f64, f64)>,
        fd_majorities: &[(usize, HashMap<&str, &str>)],
    ) -> Vec<f32> {
        let n_rows = table.n_rows() as f64;
        let v = table.cell(row, col);
        let mut feats = Vec::with_capacity(BASE_STRATEGIES + fd_majorities.len());
        // Missing-value strategies.
        feats.push(if is_missing(v) { 1.0 } else { 0.0 });
        feats.push(if v.trim().is_empty() { 1.0 } else { 0.0 });
        // Frequency strategies at two thresholds.
        let freq = *value_counts.get(v).unwrap_or(&0) as f64 / n_rows;
        feats.push(if freq < 0.01 { 1.0 } else { 0.0 });
        feats.push(if freq < 0.05 { 1.0 } else { 0.0 });
        // Pattern strategies at two thresholds.
        let pat_freq = *pattern_counts.get(&generalize(v, Level::L2)).unwrap_or(&0) as f64 / n_rows;
        feats.push(if pat_freq < 0.01 { 1.0 } else { 0.0 });
        feats.push(if pat_freq < 0.05 { 1.0 } else { 0.0 });
        // Outlier strategies (Gaussian at 2 and 3 sigma).
        match (numeric_stats, parse_numeric(v)) {
            (Some((mean, std)), Some(x)) => {
                let z = ((x - mean) / std).abs();
                feats.push(if z > 3.0 { 1.0 } else { 0.0 });
                feats.push(if z > 2.0 { 1.0 } else { 0.0 });
            }
            _ => {
                feats.push(0.0);
                feats.push(0.0);
            }
        }
        // Rule strategies: disagreement with the majority value per determinant
        // for each other column.
        for (det, majority) in fd_majorities {
            let d = table.cell(row, *det);
            let flagged = majority
                .get(d)
                .map(|&expected| expected != v)
                .unwrap_or(false);
            feats.push(if flagged { 1.0 } else { 0.0 });
        }
        feats
    }

    /// Clusters the column's strategy vectors, propagates the labelled
    /// tuples' flags through the clusters and trains the per-column
    /// classifier — the half of Raha downstream of featurisation, shared by
    /// the interned and reference paths (both feed it bit-identical inputs).
    fn classify_column(
        &self,
        col: usize,
        feats: &[Vec<f32>],
        labeled: &HashMap<usize, &Vec<bool>>,
        k: usize,
        mask: &mut ErrorMask,
    ) {
        let n_rows = feats.len();
        let rows: Vec<&[f32]> = feats.iter().map(|f| f.as_slice()).collect();
        let clustering = cluster(SamplingMethod::KMeans, &rows, k, self.seed + col as u64);

        // Propagate the labels of the labelled tuples through their clusters.
        let mut cluster_votes: HashMap<usize, (usize, usize)> = HashMap::new();
        for (&row, flags) in labeled {
            if row >= n_rows {
                continue;
            }
            let c = clustering.assignments[row];
            let entry = cluster_votes.entry(c).or_insert((0, 0));
            if flags[col] {
                entry.0 += 1;
            } else {
                entry.1 += 1;
            }
        }
        let mut train_rows: Vec<&[f32]> = Vec::new();
        let mut train_labels: Vec<f32> = Vec::new();
        for (row, feat) in feats.iter().enumerate() {
            let c = clustering.assignments[row];
            if let Some(&(err, clean)) = cluster_votes.get(&c) {
                let label = if err > clean { 1.0 } else { 0.0 };
                train_rows.push(feat.as_slice());
                train_labels.push(label);
            }
        }
        let has_both =
            train_labels.iter().any(|&l| l > 0.5) && train_labels.iter().any(|&l| l < 0.5);
        if !has_both {
            // Without both classes, fall back to propagated labels only.
            for row in 0..n_rows {
                let c = clustering.assignments[row];
                if let Some(&(err, clean)) = cluster_votes.get(&c) {
                    if err > clean {
                        mask.set(row, col, true);
                    }
                }
            }
            return;
        }
        let model = LogisticRegression::fit(
            &train_rows,
            &train_labels,
            &LogisticRegressionConfig::default(),
        );
        for (row, feat) in feats.iter().enumerate() {
            if model.predict(feat) {
                mask.set(row, col, true);
            }
        }
    }

    /// The seed per-cell implementation: recomputes value lookups, format
    /// generalisations and majority lookups for every cell over string-keyed
    /// maps. Kept as the correctness oracle for the interned fast path and
    /// as the slow side of the `bench_features` baselines ledger. (Majority
    /// ties are broken deterministically by `(count, value)` — pinned, so
    /// the oracle itself is reproducible across hasher instances.)
    pub fn detect_reference(&self, input: &BaselineInput<'_>) -> ErrorMask {
        let table = input.dirty;
        let n_rows = table.n_rows();
        let n_cols = table.n_cols();
        let mut mask = ErrorMask::for_table(table);
        if n_rows == 0 || input.labeled.is_empty() {
            return mask;
        }
        let labeled: HashMap<usize, &Vec<bool>> =
            input.labeled.iter().map(|l| (l.row, &l.flags)).collect();
        let k = (self.clusters_per_column + input.labeled.len()).min(n_rows);

        for col in 0..n_cols {
            // Pre-compute per-column statistics shared by the strategies.
            let mut value_counts: HashMap<&str, usize> = HashMap::new();
            let mut pattern_counts: HashMap<String, usize> = HashMap::new();
            let mut numerics: Vec<f64> = Vec::new();
            for row in table.rows() {
                let v = row[col].as_str();
                *value_counts.entry(v).or_insert(0) += 1;
                *pattern_counts.entry(generalize(v, Level::L2)).or_insert(0) += 1;
                if let Some(x) = parse_numeric(v) {
                    numerics.push(x);
                }
            }
            let numeric_stats = if numerics.len() as f64 >= 0.9 * n_rows as f64 {
                let mean = numerics.iter().sum::<f64>() / numerics.len() as f64;
                let std = (numerics.iter().map(|x| (x - mean).powi(2)).sum::<f64>()
                    / numerics.len() as f64)
                    .sqrt()
                    .max(1e-9);
                Some((mean, std))
            } else {
                None
            };
            // Majority mapping from every other column (cheap rule strategies).
            let mut fd_majorities: Vec<(usize, HashMap<&str, &str>)> = Vec::new();
            for det in 0..n_cols {
                if det == col {
                    continue;
                }
                let mut groups: HashMap<&str, HashMap<&str, usize>> = HashMap::new();
                for row in table.rows() {
                    *groups
                        .entry(row[det].as_str())
                        .or_default()
                        .entry(row[col].as_str())
                        .or_insert(0) += 1;
                }
                let majority: HashMap<&str, &str> = groups
                    .into_iter()
                    .map(|(d, dist)| {
                        let best = dist
                            .into_iter()
                            .max_by_key(|(v, c)| (*c, *v))
                            .map(|(v, _)| v)
                            .unwrap_or_default();
                        (d, best)
                    })
                    .collect();
                fd_majorities.push((det, majority));
            }

            // Strategy feature vectors for every cell of the column.
            let feats: Vec<Vec<f32>> = (0..n_rows)
                .map(|row| {
                    Self::strategy_features(
                        table,
                        col,
                        row,
                        &value_counts,
                        &pattern_counts,
                        numeric_stats,
                        &fd_majorities,
                    )
                })
                .collect();
            self.classify_column(col, &feats, &labeled, k, &mut mask);
        }
        mask
    }
}

impl Baseline for Raha {
    fn name(&self) -> &'static str {
        "Raha"
    }

    fn detect(&self, input: &BaselineInput<'_>) -> ErrorMask {
        let table = input.dirty;
        let n_rows = table.n_rows();
        let n_cols = table.n_cols();
        let mut mask = ErrorMask::for_table(table);
        if n_rows == 0 || input.labeled.is_empty() {
            return mask;
        }
        let labeled: HashMap<usize, &Vec<bool>> =
            input.labeled.iter().map(|l| (l.row, &l.flags)).collect();
        let k = (self.clusters_per_column + input.labeled.len()).min(n_rows);

        // One interning pass shared by every column's strategies.
        let dict = table.intern();

        for col in 0..n_cols {
            let col_dict = dict.column(col);
            let n_distinct = col_dict.n_distinct();
            let values = col_dict.values();
            let codes = col_dict.codes();

            // Numeric parse once per distinct value; the moments accumulate
            // in *row order* (scattered by code) so the floating-point sums
            // are bit-identical to the seed's per-row accumulation.
            let parsed: Vec<Option<f64>> = values.iter().map(|v| parse_numeric(v)).collect();
            let mut numerics: Vec<f64> = Vec::new();
            for &code in codes {
                if let Some(x) = parsed[code as usize] {
                    numerics.push(x);
                }
            }
            let numeric_stats = if numerics.len() as f64 >= 0.9 * n_rows as f64 {
                let mean = numerics.iter().sum::<f64>() / numerics.len() as f64;
                let std = (numerics.iter().map(|x| (x - mean).powi(2)).sum::<f64>()
                    / numerics.len() as f64)
                    .sqrt()
                    .max(1e-9);
                Some((mean, std))
            } else {
                None
            };

            // Format generalisation once per distinct value; the histogram
            // sums occurrence counts per pattern (integers — order-free).
            let patterns: Vec<String> = values.iter().map(|v| generalize(v, Level::L2)).collect();
            let mut pattern_counts: HashMap<&str, usize> = HashMap::new();
            for (code, pattern) in patterns.iter().enumerate() {
                *pattern_counts.entry(pattern.as_str()).or_insert(0) +=
                    col_dict.count(code as u32) as usize;
            }

            // The per-distinct strategy block: eight verdicts per code.
            let base: Vec<[f32; BASE_STRATEGIES]> = (0..n_distinct)
                .map(|code| {
                    let v: &str = &values[code];
                    let freq = col_dict.count(code as u32) as f64 / n_rows as f64;
                    let pat_freq = pattern_counts[patterns[code].as_str()] as f64 / n_rows as f64;
                    let (z3, z2) = match (numeric_stats, parsed[code]) {
                        (Some((mean, std)), Some(x)) => {
                            let z = ((x - mean) / std).abs();
                            (z > 3.0, z > 2.0)
                        }
                        _ => (false, false),
                    };
                    [
                        if is_missing(v) { 1.0 } else { 0.0 },
                        if v.trim().is_empty() { 1.0 } else { 0.0 },
                        if freq < 0.01 { 1.0 } else { 0.0 },
                        if freq < 0.05 { 1.0 } else { 0.0 },
                        if pat_freq < 0.01 { 1.0 } else { 0.0 },
                        if pat_freq < 0.05 { 1.0 } else { 0.0 },
                        if z3 { 1.0 } else { 0.0 },
                        if z2 { 1.0 } else { 0.0 },
                    ]
                })
                .collect();

            // Rule strategies: majority value code per determinant code for
            // every other column, over interned pair counts. Ties break on
            // (count, value string) — the pinned order the reference uses.
            let mut fd_majorities: Vec<(&[u32], Vec<u32>)> = Vec::new();
            for det in 0..n_cols {
                if det == col {
                    continue;
                }
                let det_dict = dict.column(det);
                let det_codes = det_dict.codes();
                let mut pair_counts = PairMap::default();
                for row in 0..n_rows {
                    *pair_counts
                        .entry(pair_key(det_codes[row], codes[row]))
                        .or_insert(0) += 1;
                }
                // (count, majority value code) per determinant code; every
                // determinant code occurs in some row, so a majority always
                // exists by the time rows are scattered.
                let mut majority: Vec<(u32, u32)> = vec![(0, 0); det_dict.n_distinct()];
                for (&key, &count) in &pair_counts {
                    let (d, v) = ((key >> 32) as u32, key as u32);
                    let entry = &mut majority[d as usize];
                    let better = count > entry.0
                        || (count == entry.0 && *values[v as usize] > *values[entry.1 as usize]);
                    if entry.0 == 0 || better {
                        *entry = (count, v);
                    }
                }
                fd_majorities.push((det_codes, majority.into_iter().map(|(_, v)| v).collect()));
            }

            // Assemble per-row vectors: scatter the per-distinct block by
            // code, then one rule verdict per determinant column.
            let feats: Vec<Vec<f32>> = (0..n_rows)
                .map(|row| {
                    let code = codes[row];
                    let mut f = Vec::with_capacity(BASE_STRATEGIES + fd_majorities.len());
                    f.extend_from_slice(&base[code as usize]);
                    for (det_codes, majority) in &fd_majorities {
                        let d = det_codes[row];
                        f.push(if majority[d as usize] != code {
                            1.0
                        } else {
                            0.0
                        });
                    }
                    f
                })
                .collect();
            self.classify_column(col, &feats, &labeled, k, &mut mask);
        }
        mask
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LabeledTuple;
    use zeroed_datagen::{generate, DatasetSpec, GenerateOptions};

    fn dataset() -> zeroed_datagen::GeneratedDataset {
        generate(
            DatasetSpec::Beers,
            &GenerateOptions {
                n_rows: 200,
                seed: 21,
                error_spec: None,
            },
        )
    }

    fn labels_from(ds: &zeroed_datagen::GeneratedDataset, n: usize) -> Vec<LabeledTuple> {
        LabeledTuple::mixed_from_mask(&ds.mask, n)
    }

    #[test]
    fn more_labels_do_not_hurt_and_usually_help() {
        let ds = dataset();
        // Label tuples that actually contain errors plus a few clean ones so
        // both classes are represented.
        let few = labels_from(&ds, 2);
        let many = labels_from(&ds, 15);
        let input_few = BaselineInput {
            dirty: &ds.dirty,
            metadata: &ds.metadata,
            labeled: &few,
        };
        let input_many = BaselineInput {
            dirty: &ds.dirty,
            metadata: &ds.metadata,
            labeled: &many,
        };
        let raha = Raha::default();
        let f1_few = raha.detect(&input_few).score_against(&ds.mask).unwrap().f1;
        let f1_many = raha.detect(&input_many).score_against(&ds.mask).unwrap().f1;
        assert!(f1_many >= f1_few * 0.8, "few {f1_few} vs many {f1_many}");
        assert!(
            f1_many > 0.1,
            "Raha with many labels should detect something"
        );
    }

    #[test]
    fn interned_path_matches_the_reference() {
        let ds = dataset();
        let labels = labels_from(&ds, 8);
        let input = BaselineInput {
            dirty: &ds.dirty,
            metadata: &ds.metadata,
            labeled: &labels,
        };
        let raha = Raha::default();
        assert_eq!(raha.detect(&input), raha.detect_reference(&input));
    }

    #[test]
    fn no_labels_mean_no_detection() {
        let ds = dataset();
        let input = BaselineInput {
            dirty: &ds.dirty,
            metadata: &ds.metadata,
            labeled: &[],
        };
        assert_eq!(Raha::default().detect(&input).error_count(), 0);
        assert_eq!(Raha::default().detect_reference(&input).error_count(), 0);
        assert_eq!(Raha::default().name(), "Raha");
    }
}
