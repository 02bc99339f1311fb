//! Column profiling used by the simulated LLM's "reasoning".
//!
//! A real LLM grounds its criteria, guidelines and labels in what it can see
//! of the data (sampled tuples) plus the output of the distribution-analysis
//! functions it wrote. The simulated LLM grounds the same decisions in a
//! [`ColumnProfile`]: frequent values and formats, numeric ranges, length
//! statistics, and the majority mapping from the most correlated attribute
//! (an empirical functional dependency).

use std::collections::HashMap;
use zeroed_features::pattern::{generalize, Level};
use zeroed_table::value::{is_missing, parse_numeric};
use zeroed_table::Table;

/// Summary of one attribute's value distribution.
#[derive(Debug, Clone)]
pub struct ColumnProfile {
    /// Column index.
    pub column: usize,
    /// Column name.
    pub name: String,
    /// Number of rows profiled.
    pub total: usize,
    /// value → count.
    pub value_counts: HashMap<String, usize>,
    /// L3 pattern → count.
    pub pattern_counts: HashMap<String, usize>,
    /// Fraction of missing values.
    pub missing_ratio: f64,
    /// Fraction of values that parse as numbers.
    pub numeric_ratio: f64,
    /// Robust numeric bounds (5th/95th percentile) extended by 50% of the
    /// inter-quantile range, when the column is numeric.
    pub numeric_bounds: Option<(f64, f64)>,
    /// `(min, mean, max)` of numeric values.
    pub numeric_summary: Option<(f64, f64, f64)>,
    /// Minimum and maximum character length of non-missing values.
    pub length_range: (usize, usize),
    /// Majority mapping `correlated value → this column's most common value`
    /// for the strongest correlated attribute, along with that attribute's
    /// index. Present only when the mapping is reasonably functional.
    pub fd_mapping: Option<(usize, HashMap<String, String>)>,
}

impl ColumnProfile {
    /// Profiles a column over the whole table. `correlated` is consulted to
    /// build the empirical FD mapping against the strongest correlated
    /// attribute.
    pub fn analyze(table: &Table, column: usize, correlated: &[usize]) -> ColumnProfile {
        let total = table.n_rows();
        let mut value_counts: HashMap<String, usize> = HashMap::new();
        let mut pattern_counts: HashMap<String, usize> = HashMap::new();
        let mut missing = 0usize;
        let mut numerics: Vec<f64> = Vec::new();
        let mut min_len = usize::MAX;
        let mut max_len = 0usize;
        for row in table.rows() {
            let v = row[column].as_str();
            *value_counts.entry(v.to_string()).or_insert(0) += 1;
            *pattern_counts.entry(generalize(v, Level::L3)).or_insert(0) += 1;
            if is_missing(v) {
                missing += 1;
            } else {
                let len = v.chars().count();
                min_len = min_len.min(len);
                max_len = max_len.max(len);
                if let Some(x) = parse_numeric(v) {
                    numerics.push(x);
                }
            }
        }
        if min_len == usize::MAX {
            min_len = 0;
        }
        let non_missing = (total - missing).max(1);
        let numeric_ratio = numerics.len() as f64 / non_missing as f64;
        let (numeric_bounds, numeric_summary) = if numeric_ratio >= 0.9 && !numerics.is_empty() {
            let mut sorted = numerics.clone();
            sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
            let q = |p: f64| sorted[((sorted.len() - 1) as f64 * p) as usize];
            let (p5, p95) = (q(0.05), q(0.95));
            let spread = (p95 - p5).abs().max(1e-9);
            let bounds = (p5 - 0.5 * spread, p95 + 0.5 * spread);
            let min = sorted[0];
            let max = sorted[sorted.len() - 1];
            let mean = sorted.iter().sum::<f64>() / sorted.len() as f64;
            (Some(bounds), Some((min, mean, max)))
        } else {
            (None, None)
        };

        // Empirical FD against the strongest correlated attribute: for each
        // determinant value record this column's majority value; keep the
        // mapping only when it is strongly functional (majority share ≥ 0.9 on
        // average).
        let fd_mapping = correlated.first().and_then(|&det| {
            let mut pairs: HashMap<String, HashMap<String, usize>> = HashMap::new();
            for row in table.rows() {
                let d = row[det].trim().to_lowercase();
                let v = row[column].trim().to_lowercase();
                if d.is_empty() {
                    continue;
                }
                *pairs.entry(d).or_default().entry(v).or_insert(0) += 1;
            }
            let mut mapping = HashMap::new();
            let mut share_acc = 0.0;
            let mut n_groups = 0usize;
            for (d, dist) in &pairs {
                let total_d: usize = dist.values().sum();
                if total_d < 2 {
                    continue;
                }
                // Break count ties by value so the mapping (and therefore the
                // whole pipeline) is independent of hash-map iteration order.
                let (best_v, best_c) = dist
                    .iter()
                    .max_by(|a, b| a.1.cmp(b.1).then_with(|| a.0.cmp(b.0)))
                    .map(|(v, &c)| (v.clone(), c))
                    .expect("non-empty distribution");
                share_acc += best_c as f64 / total_d as f64;
                n_groups += 1;
                mapping.insert(d.clone(), best_v);
            }
            if n_groups >= 3 && share_acc / n_groups as f64 >= 0.85 {
                Some((det, mapping))
            } else {
                None
            }
        });

        ColumnProfile {
            column,
            name: table.columns()[column].clone(),
            total,
            value_counts,
            pattern_counts,
            missing_ratio: if total == 0 {
                0.0
            } else {
                missing as f64 / total as f64
            },
            numeric_ratio,
            numeric_bounds,
            numeric_summary,
            length_range: (min_len, max_len),
            fd_mapping,
        }
    }

    /// Number of distinct values.
    pub fn distinct(&self) -> usize {
        self.value_counts.len()
    }

    /// Relative frequency of one value.
    pub fn value_frequency(&self, value: &str) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        *self.value_counts.get(value).unwrap_or(&0) as f64 / self.total as f64
    }

    /// Relative frequency of a value's L3 pattern.
    pub fn pattern_frequency(&self, value: &str) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let pat = generalize(value, Level::L3);
        *self.pattern_counts.get(&pat).unwrap_or(&0) as f64 / self.total as f64
    }

    /// The `n` most frequent values (descending).
    pub fn top_values(&self, n: usize) -> Vec<(String, usize)> {
        let mut v: Vec<(String, usize)> = self
            .value_counts
            .iter()
            .map(|(k, &c)| (k.clone(), c))
            .collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        v.truncate(n);
        v
    }

    /// The `n` most frequent L3 patterns (descending).
    pub fn top_patterns(&self, n: usize) -> Vec<(String, usize)> {
        let mut v: Vec<(String, usize)> = self
            .pattern_counts
            .iter()
            .map(|(k, &c)| (k.clone(), c))
            .collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        v.truncate(n);
        v
    }

    /// Values occurring at most once (typo/outlier candidates), capped at `n`.
    pub fn rare_values(&self, n: usize) -> Vec<String> {
        let mut v: Vec<String> = self
            .value_counts
            .iter()
            .filter(|(_, &c)| c <= 1)
            .map(|(k, _)| k.clone())
            .collect();
        v.sort();
        v.truncate(n);
        v
    }

    /// Whether the column looks categorical (few distinct values).
    pub fn is_categorical(&self) -> bool {
        self.distinct() <= 12.max(self.total / 50)
    }

    /// Whether the column is (predominantly) numeric.
    pub fn is_numeric(&self) -> bool {
        self.numeric_ratio >= 0.9
    }

    /// Patterns that jointly cover at least `coverage` of the rows, most
    /// frequent first.
    pub fn covering_patterns(&self, coverage: f64) -> Vec<String> {
        let mut pats = self.top_patterns(self.pattern_counts.len());
        let mut kept = Vec::new();
        let mut covered = 0usize;
        let target = (coverage * self.total as f64).ceil() as usize;
        for (p, c) in pats.drain(..) {
            kept.push(p);
            covered += c;
            if covered >= target {
                break;
            }
        }
        kept
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> Table {
        let mut rows = Vec::new();
        for i in 0..100 {
            let city = ["Boston", "Denver", "Phoenix", "Boston"][i % 4];
            let state = match city {
                "Boston" => "MA",
                "Denver" => "CO",
                _ => "AZ",
            };
            rows.push(vec![
                city.to_string(),
                state.to_string(),
                format!("{}", 50_000 + (i % 10) * 1_000),
            ]);
        }
        rows[7][2] = "".into();
        Table::new(
            "t",
            vec!["city".into(), "state".into(), "salary".into()],
            rows,
        )
        .unwrap()
    }

    #[test]
    fn profiles_basic_statistics() {
        let t = table();
        let p = ColumnProfile::analyze(&t, 0, &[1]);
        assert_eq!(p.total, 100);
        assert_eq!(p.distinct(), 3);
        assert!(p.is_categorical());
        assert!(!p.is_numeric());
        assert!((p.value_frequency("Boston") - 0.5).abs() < 1e-12);
        assert_eq!(p.top_values(1)[0].0, "Boston");
        assert!(p.missing_ratio < 1e-9);
    }

    #[test]
    fn numeric_profile_has_bounds() {
        let t = table();
        let p = ColumnProfile::analyze(&t, 2, &[0]);
        assert!(p.is_numeric());
        let (lo, hi) = p.numeric_bounds.unwrap();
        assert!(lo < 50_000.0);
        assert!(hi > 59_000.0);
        let (min, mean, max) = p.numeric_summary.unwrap();
        assert!(min <= mean && mean <= max);
        assert!(p.missing_ratio > 0.0);
    }

    #[test]
    fn fd_mapping_reflects_dependency() {
        let t = table();
        let p = ColumnProfile::analyze(&t, 1, &[0]);
        let (det, mapping) = p.fd_mapping.as_ref().expect("state depends on city");
        assert_eq!(*det, 0);
        assert_eq!(mapping.get("boston").map(|s| s.as_str()), Some("ma"));
        assert_eq!(mapping.get("denver").map(|s| s.as_str()), Some("co"));
    }

    #[test]
    fn covering_patterns_and_rare_values() {
        let t = table();
        let p = ColumnProfile::analyze(&t, 2, &[0]);
        let pats = p.covering_patterns(0.95);
        assert!(!pats.is_empty());
        // All salaries share the 5-digit pattern except the injected blank.
        assert!(pats[0].starts_with("D["));
        let rare = p.rare_values(10);
        assert!(rare.contains(&"".to_string()));
    }
}
