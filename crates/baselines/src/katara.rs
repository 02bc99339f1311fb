//! KATARA: knowledge-base powered detection.
//!
//! KATARA aligns table columns with knowledge-base relations and flags values
//! that cannot be matched. This implementation consumes the knowledge-base
//! entries exported with each dataset: a cell is flagged when its column has a
//! KB domain and the (non-missing) value does not belong to it, or when a
//! conditioned relation (e.g. country → capital) is contradicted. Columns
//! without KB coverage are never flagged, which mirrors the paper's
//! observation that KATARA detects nothing on datasets lacking a relevant
//! knowledge base.
//!
//! KB lookups run over interned [`zeroed_table::ColumnDict`]s: the
//! normalise-trim-lowercase pass, the domain-membership test and the
//! conditioned-relation lookup are each evaluated once per *distinct* value
//! code rather than once per row — the seed per-cell path re-lowercased and
//! re-hashed every cell. Only the columns the knowledge base actually
//! references are interned (and each at most once, however many entries name
//! it): a full `TableDict` over every column would cost more than the
//! per-row work it saves. [`Katara::detect_reference`] keeps the seed path
//! as the correctness oracle.

use crate::{Baseline, BaselineInput};
use std::collections::HashMap;
use zeroed_table::value::is_missing;
use zeroed_table::{ColumnDict, ErrorMask};

/// The KATARA baseline (no configuration).
#[derive(Debug, Clone, Default)]
pub struct Katara;

impl Katara {
    /// The seed per-cell implementation, kept as the correctness oracle for
    /// the interned fast path.
    pub fn detect_reference(&self, input: &BaselineInput<'_>) -> ErrorMask {
        let table = input.dirty;
        let mut mask = ErrorMask::for_table(table);
        for entry in &input.metadata.kb {
            let Some(col) = table.column_index(&entry.column) else {
                continue;
            };
            let context_col = entry
                .conditioned_on
                .as_ref()
                .and_then(|(name, _)| table.column_index(name));
            for (row_idx, row) in table.rows().iter().enumerate() {
                let value = row[col].trim().to_lowercase();
                if is_missing(&value) {
                    continue;
                }
                let mut violated =
                    !entry.valid_values.is_empty() && !entry.valid_values.contains(&value);
                if !violated {
                    if let (Some((_, mapping)), Some(ctx_col)) =
                        (entry.conditioned_on.as_ref(), context_col)
                    {
                        let ctx_value = row[ctx_col].trim().to_lowercase();
                        if let Some(expected) = mapping.get(&ctx_value) {
                            violated = *expected != value;
                        }
                    }
                }
                if violated {
                    mask.set(row_idx, col, true);
                }
            }
        }
        mask
    }
}

impl Baseline for Katara {
    fn name(&self) -> &'static str {
        "KATARA"
    }

    fn detect(&self, input: &BaselineInput<'_>) -> ErrorMask {
        let table = input.dirty;
        let mut mask = ErrorMask::for_table(table);
        if table.n_rows() == 0 {
            return mask;
        }
        // Intern and normalise exactly the columns the KB references, each
        // once — however many entries or conditioned relations name them.
        struct InternedColumn {
            dict: ColumnDict,
            /// Trimmed, lower-cased form of each distinct value (code order).
            norm: Vec<String>,
            /// Missing flag per distinct value.
            missing: Vec<bool>,
        }
        let mut columns: HashMap<usize, InternedColumn> = HashMap::new();
        for entry in &input.metadata.kb {
            for name in std::iter::once(&entry.column)
                .chain(entry.conditioned_on.as_ref().map(|(ctx, _)| ctx))
            {
                if let Some(col) = table.column_index(name) {
                    columns.entry(col).or_insert_with(|| {
                        let dict = ColumnDict::for_column(table, col);
                        let norm: Vec<String> = dict
                            .values()
                            .iter()
                            .map(|v| v.trim().to_lowercase())
                            .collect();
                        let missing = norm.iter().map(|v| is_missing(v)).collect();
                        InternedColumn {
                            dict,
                            norm,
                            missing,
                        }
                    });
                }
            }
        }
        for entry in &input.metadata.kb {
            let Some(col) = table.column_index(&entry.column) else {
                continue;
            };
            let interned = &columns[&col];
            let context = entry.conditioned_on.as_ref().and_then(|(name, mapping)| {
                table.column_index(name).map(|ctx_col| (ctx_col, mapping))
            });

            // Entry-specific verdict per distinct value code (the domain set
            // differs per entry; the normalised values are memoised above).
            let out_of_domain: Vec<bool> = interned
                .norm
                .iter()
                .map(|v| !entry.valid_values.is_empty() && !entry.valid_values.contains(v))
                .collect();

            // Per distinct context code: the expected dependent value, if the
            // conditioned relation knows this context value.
            let expected: Option<(&InternedColumn, Vec<Option<&String>>)> =
                context.map(|(ctx_col, mapping)| {
                    let ctx = &columns[&ctx_col];
                    let per_code = ctx.norm.iter().map(|v| mapping.get(v)).collect();
                    (ctx, per_code)
                });

            for row in 0..table.n_rows() {
                let code = interned.dict.code(row) as usize;
                if interned.missing[code] {
                    continue;
                }
                let mut violated = out_of_domain[code];
                if !violated {
                    if let Some((ctx, per_code)) = &expected {
                        let ctx_code = ctx.dict.code(row) as usize;
                        if let Some(exp) = per_code[ctx_code] {
                            violated = *exp != interned.norm[code];
                        }
                    }
                }
                if violated {
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
    use std::collections::HashMap;
    use zeroed_datagen::{DatasetMetadata, KnowledgeBaseEntry};
    use zeroed_table::Table;

    fn fixture() -> (Table, DatasetMetadata) {
        let rows = vec![
            vec!["France".to_string(), "Paris".to_string()],
            vec!["France".to_string(), "Lyon".to_string()], // wrong capital
            vec!["Wakanda".to_string(), "Paris".to_string()], // unknown country
            vec!["".to_string(), "Paris".to_string()],      // missing → ignored
        ];
        let table = Table::new("t", vec!["country".into(), "capital".into()], rows).unwrap();
        let mut capital_map = HashMap::new();
        capital_map.insert("france".to_string(), "paris".to_string());
        let metadata = DatasetMetadata {
            kb: vec![
                KnowledgeBaseEntry::domain(
                    "country",
                    ["France".to_string(), "Germany".to_string()],
                ),
                KnowledgeBaseEntry {
                    column: "capital".into(),
                    valid_values: ["paris", "berlin", "lyon"]
                        .iter()
                        .map(|s| s.to_string())
                        .collect(),
                    conditioned_on: Some(("country".into(), capital_map)),
                },
            ],
            ..DatasetMetadata::default()
        };
        (table, metadata)
    }

    #[test]
    fn flags_out_of_kb_and_inconsistent_values() {
        let (table, metadata) = fixture();
        let input = BaselineInput {
            dirty: &table,
            metadata: &metadata,
            labeled: &[],
        };
        let mask = Katara.detect(&input);
        assert!(mask.get(2, 0), "unknown country flagged");
        assert!(mask.get(1, 1), "inconsistent capital flagged");
        assert!(!mask.get(0, 0));
        assert!(!mask.get(0, 1));
        assert!(!mask.get(3, 0), "missing values are not KATARA's job");
    }

    #[test]
    fn no_kb_means_no_detection() {
        let (table, _) = fixture();
        let metadata = DatasetMetadata::default();
        let input = BaselineInput {
            dirty: &table,
            metadata: &metadata,
            labeled: &[],
        };
        assert_eq!(Katara.detect(&input).error_count(), 0);
        assert_eq!(Katara.detect_reference(&input).error_count(), 0);
        assert_eq!(Katara.name(), "KATARA");
    }

    #[test]
    fn interned_path_matches_the_reference() {
        // The hand-built fixture plus a generated dataset with real KB
        // entries: the interned fast path must be bit-identical to the seed
        // per-cell oracle on both.
        let (table, metadata) = fixture();
        let input = BaselineInput {
            dirty: &table,
            metadata: &metadata,
            labeled: &[],
        };
        assert_eq!(Katara.detect(&input), Katara.detect_reference(&input));

        for spec in [
            zeroed_datagen::DatasetSpec::Hospital,
            zeroed_datagen::DatasetSpec::Flights,
        ] {
            let ds = zeroed_datagen::generate(
                spec,
                &zeroed_datagen::GenerateOptions {
                    n_rows: 400,
                    seed: 5,
                    error_spec: None,
                },
            );
            let input = BaselineInput {
                dirty: &ds.dirty,
                metadata: &ds.metadata,
                labeled: &[],
            };
            let interned = Katara.detect(&input);
            assert_eq!(interned, Katara.detect_reference(&input), "{spec:?}");
            assert!(
                interned.error_count() > 0,
                "{spec:?}: the generated KB must flag something for the bench to mean anything"
            );
        }
    }

    #[test]
    fn empty_table_is_a_no_op_on_both_paths() {
        let table = Table::empty("e", vec!["country".into(), "capital".into()]);
        let (_, metadata) = fixture();
        let input = BaselineInput {
            dirty: &table,
            metadata: &metadata,
            labeled: &[],
        };
        assert_eq!(Katara.detect(&input).error_count(), 0);
        assert_eq!(Katara.detect_reference(&input).error_count(), 0);
    }
}
