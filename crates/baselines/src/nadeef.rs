//! NADEEF: rule-based detection from manually supplied constraints.
//!
//! NADEEF evaluates user-provided quality rules. Here the rules are the
//! functional dependencies and column format patterns exported by the dataset
//! generators (the paper likewise plugs in constraints from the datasets'
//! public repositories). A cell is flagged when it participates in a
//! functional-dependency violation (its dependent value disagrees with the
//! majority value for the same determinant) or fails its column's format
//! pattern.
//!
//! FD lookups run over the shared [`zeroed_table::TableDict`]: determinant /
//! dependent pairs are counted as `(u32, u32)` code pairs and format patterns
//! are evaluated once per *distinct* value, instead of the seed's per-row
//! string-keyed nested hash maps. [`Nadeef::detect_reference`] keeps the seed
//! per-cell path as the correctness oracle. Majority ties are broken
//! deterministically (highest count, then greatest value string) on both
//! paths — the seed picked whichever entry its hash map yielded first, which
//! was not stable across processes.

use crate::{Baseline, BaselineInput};
use std::collections::HashMap;
use zeroed_table::ErrorMask;

/// Configuration of the NADEEF baseline.
///
/// The paper's NADEEF runs with the *limited* rule sets available in the
/// datasets' public repositories (which is why its recall is low in Table
/// III), so the default here likewise restricts the number of rules it is
/// given; [`Nadeef::with_all_rules`] lifts the restriction.
#[derive(Debug, Clone)]
pub struct Nadeef {
    /// When true, only FD rules are evaluated (no format patterns).
    pub fds_only: bool,
    /// Maximum number of functional dependencies taken from the metadata.
    pub max_fds: usize,
    /// Maximum number of format patterns taken from the metadata.
    pub max_patterns: usize,
}

impl Default for Nadeef {
    fn default() -> Self {
        Self {
            fds_only: false,
            max_fds: 2,
            max_patterns: 1,
        }
    }
}

impl Nadeef {
    /// A NADEEF instance that is handed every rule the generator knows about
    /// (an upper bound on what a carefully curated rule set could achieve).
    pub fn with_all_rules() -> Self {
        Self {
            fds_only: false,
            max_fds: usize::MAX,
            max_patterns: usize::MAX,
        }
    }

    /// The seed per-cell implementation over string-keyed maps, kept as the
    /// correctness oracle for the interned fast path (with the majority
    /// tie-break pinned to the same deterministic order).
    pub fn detect_reference(&self, input: &BaselineInput<'_>) -> ErrorMask {
        let table = input.dirty;
        let metadata = input.metadata;
        let mut mask = ErrorMask::for_table(table);
        if table.n_rows() == 0 {
            return mask;
        }

        // Functional-dependency violations.
        for fd in metadata.fds.iter().take(self.max_fds) {
            let (Some(det), Some(dep)) = (
                table.column_index(&fd.determinant),
                table.column_index(&fd.dependent),
            ) else {
                continue;
            };
            // Majority dependent value per determinant value.
            let mut groups: HashMap<&str, HashMap<&str, usize>> = HashMap::new();
            for row in table.rows() {
                *groups
                    .entry(row[det].as_str())
                    .or_default()
                    .entry(row[dep].as_str())
                    .or_insert(0) += 1;
            }
            let majority: HashMap<&str, &str> = groups
                .iter()
                .filter(|(_, dist)| dist.len() > 1)
                .map(|(d, dist)| {
                    let best = dist
                        .iter()
                        .max_by_key(|(v, &c)| (c, **v))
                        .map(|(v, _)| *v)
                        .unwrap_or_default();
                    (*d, best)
                })
                .collect();
            for (row_idx, row) in table.rows().iter().enumerate() {
                if let Some(&expected) = majority.get(row[det].as_str()) {
                    if row[dep] != expected {
                        mask.set(row_idx, dep, true);
                    }
                }
            }
        }

        // Format pattern violations.
        if !self.fds_only {
            for pattern in metadata.patterns.iter().take(self.max_patterns) {
                let Some(col) = table.column_index(&pattern.column) else {
                    continue;
                };
                for (row_idx, row) in table.rows().iter().enumerate() {
                    if !pattern.kind.matches(&row[col]) {
                        mask.set(row_idx, col, true);
                    }
                }
            }
        }
        mask
    }
}

impl Baseline for Nadeef {
    fn name(&self) -> &'static str {
        "NADEEF"
    }

    fn detect(&self, input: &BaselineInput<'_>) -> ErrorMask {
        let table = input.dirty;
        let metadata = input.metadata;
        let mut mask = ErrorMask::for_table(table);
        if table.n_rows() == 0 {
            return mask;
        }
        let dict = table.intern();

        // Functional-dependency violations over interned code pairs.
        for fd in metadata.fds.iter().take(self.max_fds) {
            let (Some(det), Some(dep)) = (
                table.column_index(&fd.determinant),
                table.column_index(&fd.dependent),
            ) else {
                continue;
            };
            let det_dict = dict.column(det);
            let dep_dict = dict.column(dep);
            // Count (determinant code, dependent code) co-occurrences.
            let mut pair_counts: HashMap<(u32, u32), u32> = HashMap::new();
            for row in 0..table.n_rows() {
                *pair_counts
                    .entry((det_dict.code(row), dep_dict.code(row)))
                    .or_insert(0) += 1;
            }
            // Majority dependent code per determinant code, counting variants
            // so single-valued groups are skipped like the reference does.
            // Ties break on (count, value string), matching the oracle path.
            let mut majority: HashMap<u32, (u32, u32, u32)> = HashMap::new(); // det → (count, dep, variants)
            for (&(d, p), &count) in &pair_counts {
                let entry = majority.entry(d).or_insert((0, p, 0));
                entry.2 += 1;
                let better = count > entry.0
                    || (count == entry.0 && dep_dict.value(p) > dep_dict.value(entry.1));
                if entry.0 == 0 || better {
                    entry.0 = count;
                    entry.1 = p;
                }
            }
            for row in 0..table.n_rows() {
                if let Some(&(_, best, variants)) = majority.get(&det_dict.code(row)) {
                    if variants > 1 && dep_dict.code(row) != best {
                        mask.set(row, dep, true);
                    }
                }
            }
        }

        // Format pattern violations, evaluated once per distinct value.
        if !self.fds_only {
            for pattern in metadata.patterns.iter().take(self.max_patterns) {
                let Some(col) = table.column_index(&pattern.column) else {
                    continue;
                };
                let col_dict = dict.column(col);
                let violating: Vec<bool> = col_dict
                    .values()
                    .iter()
                    .map(|v| !pattern.kind.matches(v))
                    .collect();
                for (row, &code) in col_dict.codes().iter().enumerate() {
                    if violating[code as usize] {
                        mask.set(row, col, true);
                    }
                }
            }
        }
        mask
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zeroed_datagen::{ColumnPattern, DatasetMetadata, FunctionalDependency, PatternKind};
    use zeroed_table::Table;

    fn fixture() -> (Table, DatasetMetadata) {
        let mut rows: Vec<Vec<String>> = (0..60)
            .map(|i| {
                let city = ["Boston", "Denver"][i % 2];
                let state = ["MA", "CO"][i % 2];
                vec![
                    city.to_string(),
                    state.to_string(),
                    format!("{:05}", 10000 + i % 2),
                ]
            })
            .collect();
        rows[4][1] = "CO".into(); // FD violation: Boston → CO
        rows[9][2] = "123".into(); // zip format violation
        let table =
            Table::new("t", vec!["city".into(), "state".into(), "zip".into()], rows).unwrap();
        let metadata = DatasetMetadata {
            fds: vec![FunctionalDependency::new("city", "state")],
            patterns: vec![ColumnPattern::new("zip", PatternKind::ZipCode)],
            ..DatasetMetadata::default()
        };
        (table, metadata)
    }

    #[test]
    fn flags_fd_and_pattern_violations() {
        let (table, metadata) = fixture();
        let input = BaselineInput {
            dirty: &table,
            metadata: &metadata,
            labeled: &[],
        };
        let mask = Nadeef::default().detect(&input);
        assert!(mask.get(4, 1), "FD violation flagged");
        assert!(mask.get(9, 2), "pattern violation flagged");
        assert!(!mask.get(0, 1));
        assert_eq!(mask.error_count(), 2);
    }

    #[test]
    fn interned_path_matches_the_reference() {
        let (table, metadata) = fixture();
        let input = BaselineInput {
            dirty: &table,
            metadata: &metadata,
            labeled: &[],
        };
        for detector in [Nadeef::default(), Nadeef::with_all_rules()] {
            assert_eq!(
                detector.detect(&input),
                detector.detect_reference(&input),
                "{:?}",
                detector
            );
        }
    }

    #[test]
    fn fds_only_mode_ignores_patterns() {
        let (table, metadata) = fixture();
        let input = BaselineInput {
            dirty: &table,
            metadata: &metadata,
            labeled: &[],
        };
        let mask = Nadeef {
            fds_only: true,
            ..Nadeef::with_all_rules()
        }
        .detect(&input);
        assert!(mask.get(4, 1));
        assert!(!mask.get(9, 2));
        assert_eq!(Nadeef::default().name(), "NADEEF");
    }

    #[test]
    fn rule_budget_limits_detection() {
        let (table, metadata) = fixture();
        let input = BaselineInput {
            dirty: &table,
            metadata: &metadata,
            labeled: &[],
        };
        let limited = Nadeef {
            max_fds: 0,
            max_patterns: 0,
            fds_only: false,
        }
        .detect(&input);
        assert_eq!(limited.error_count(), 0);
        let full = Nadeef::with_all_rules().detect(&input);
        assert!(full.error_count() >= limited.error_count());
    }

    #[test]
    fn missing_rule_columns_are_ignored() {
        let (table, _) = fixture();
        let metadata = DatasetMetadata {
            fds: vec![FunctionalDependency::new("nope", "state")],
            patterns: vec![ColumnPattern::new("unknown", PatternKind::ZipCode)],
            ..DatasetMetadata::default()
        };
        let input = BaselineInput {
            dirty: &table,
            metadata: &metadata,
            labeled: &[],
        };
        assert_eq!(Nadeef::default().detect(&input).error_count(), 0);
        assert_eq!(Nadeef::default().detect_reference(&input).error_count(), 0);
    }
}
