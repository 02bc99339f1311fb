//! Synthetic *workload-shape* scenarios: tables built to stress specific
//! pipeline dimensions rather than to mirror a paper benchmark.
//!
//! Three named shapes (see [`crate::DatasetSpec`]):
//!
//! * **Wide** — a very wide table (30 attributes): many metric, code, date
//!   and time columns over one FD anchor. Stresses per-attribute fan-out —
//!   criteria generation, sampling and labelling all scale with the column
//!   count, so the scheduler's task queue and the response cache see an
//!   order of magnitude more distinct requests per row than the paper
//!   benchmarks produce.
//! * **HighDistinct** — columns whose values are (nearly) unique per row:
//!   identifiers, e-mail-like handles, timestamps, free-text notes, and
//!   high-precision amounts, next to one low-distinct city→state anchor.
//!   Stresses the frequency/interning fast paths and clustering, which get
//!   no duplicate signal to lean on.
//! * **MixedSchema** — batches of heterogeneous records in one table: a
//!   `kind` discriminator selects which *format* the `payload` and `tag`
//!   columns carry per row (numeric readings, clock times, or free text).
//!   Stresses pattern features and guideline generation, since no single
//!   format dominates a column.
//!
//! Like every dataset module, each generator returns *clean* data — FDs hold
//! exactly and every value matches its declared pattern — and the standard
//! [`crate::inject::Injector`] dirties it afterwards.

use super::skewed_index;
use crate::metadata::{
    ColumnPattern, DatasetMetadata, FunctionalDependency, KnowledgeBaseEntry, PatternKind,
};
use crate::vocab;
use rand::Rng;
use rand_chacha::ChaCha8Rng;
use zeroed_table::Table;

/// Code-column domains for the Wide shape, rotated per column.
const CODE_DOMAINS: [&[&str]; 3] = [
    &["alpha", "beta", "gamma", "delta"],
    &["low", "medium", "high", "critical"],
    &["north", "south", "east", "west"],
];

/// Generates the **Wide** workload: 30 attributes over one city→state anchor.
pub fn wide(n_rows: usize, rng: &mut ChaCha8Rng) -> (Table, DatasetMetadata) {
    const N_METRICS: usize = 10;
    const N_CODES: usize = 10;
    const N_DATES: usize = 4;
    const N_TIMES: usize = 3;

    let mut columns = vec![
        "record_id".to_string(),
        "city".to_string(),
        "state".to_string(),
    ];
    columns.extend((0..N_METRICS).map(|k| format!("metric_{k:02}")));
    columns.extend((0..N_CODES).map(|k| format!("code_{k:02}")));
    columns.extend((0..N_DATES).map(|k| format!("date_{k}")));
    columns.extend((0..N_TIMES).map(|k| format!("slot_{k}")));

    let mut rows = Vec::with_capacity(n_rows);
    for i in 0..n_rows {
        let city_idx = skewed_index(rng, vocab::CITIES.len());
        let mut row = vec![
            format!("{}", 10_000 + i),
            vocab::CITIES[city_idx].to_string(),
            vocab::STATES_FOR_CITIES[city_idx].to_string(),
        ];
        for k in 0..N_METRICS {
            // Per-column offset keeps the metric distributions distinct.
            let value = (k as f64) * 10.0 + rng.gen_range(0..1_000) as f64 * 0.01;
            row.push(format!("{value:.2}"));
        }
        for k in 0..N_CODES {
            let domain = CODE_DOMAINS[k % CODE_DOMAINS.len()];
            row.push(domain[skewed_index(rng, domain.len())].to_string());
        }
        for k in 0..N_DATES {
            let year = 2018 + (k as u32) % 3;
            row.push(super::format_iso_date(
                year,
                1 + rng.gen_range(0..12),
                1 + rng.gen_range(0..28),
            ));
        }
        for _ in 0..N_TIMES {
            row.push(super::format_time_12h(rng.gen_range(0..24 * 60)));
        }
        rows.push(row);
    }

    let table = Table::new("Wide", columns.clone(), rows).expect("generated rows match the schema");

    let mut patterns = vec![ColumnPattern::new(
        "record_id",
        PatternKind::IntRange {
            min: 0,
            max: 1_000_000,
        },
    )];
    for k in 0..N_METRICS {
        patterns.push(ColumnPattern::new(
            format!("metric_{k:02}"),
            PatternKind::FloatRange {
                min: 0.0,
                max: 110.0,
            },
        ));
    }
    for k in 0..N_CODES {
        let domain = CODE_DOMAINS[k % CODE_DOMAINS.len()];
        patterns.push(ColumnPattern::new(
            format!("code_{k:02}"),
            PatternKind::OneOf(domain.iter().map(|s| s.to_string()).collect()),
        ));
    }
    for k in 0..N_DATES {
        patterns.push(ColumnPattern::new(
            format!("date_{k}"),
            PatternKind::IsoDate,
        ));
    }
    for k in 0..N_TIMES {
        patterns.push(ColumnPattern::new(
            format!("slot_{k}"),
            PatternKind::Time12H,
        ));
    }

    let metadata = DatasetMetadata {
        fds: vec![FunctionalDependency::new("city", "state")],
        patterns,
        kb: vec![
            KnowledgeBaseEntry::domain(
                "state",
                vocab::STATES_FOR_CITIES.iter().map(|s| s.to_string()),
            ),
            KnowledgeBaseEntry::domain("city", vocab::CITIES.iter().map(|s| s.to_string())),
        ],
        numeric_columns: (0..N_METRICS).map(|k| format!("metric_{k:02}")).collect(),
        text_columns: vec![],
    };
    (table, metadata)
}

/// Generates the **HighDistinct** workload: 8 attributes, most of them
/// (nearly) unique per row.
pub fn high_distinct(n_rows: usize, rng: &mut ChaCha8Rng) -> (Table, DatasetMetadata) {
    const COLUMNS: [&str; 8] = [
        "uid", "handle", "session", "created", "amount", "note", "city", "state",
    ];
    let mut rows = Vec::with_capacity(n_rows);
    for i in 0..n_rows {
        let city_idx = skewed_index(rng, vocab::CITIES.len());
        let first = vocab::pick(
            vocab::FIRST_NAMES,
            rng.gen_range(0..vocab::FIRST_NAMES.len()),
        );
        // Row-indexed composition keeps uid/handle/session unique without a
        // uniqueness bookkeeping pass.
        rows.push(vec![
            format!("U-{i:06}"),
            format!("{}.{i}@example.org", first.to_lowercase()),
            format!(
                "{:08x}",
                (i as u64).wrapping_mul(0x9e37_79b9) ^ rng.gen_range(0..0x1_0000)
            ),
            super::format_iso_date(
                2015 + (i as u32 % 10),
                1 + rng.gen_range(0..12),
                1 + rng.gen_range(0..28),
            ),
            format!("{:.2}", rng.gen_range(0..10_000_000) as f64 * 0.01),
            format!(
                "{} {} #{i}",
                vocab::pick(
                    vocab::TOPIC_WORDS,
                    rng.gen_range(0..vocab::TOPIC_WORDS.len())
                ),
                vocab::pick(
                    vocab::TOPIC_WORDS,
                    rng.gen_range(0..vocab::TOPIC_WORDS.len())
                ),
            ),
            vocab::CITIES[city_idx].to_string(),
            vocab::STATES_FOR_CITIES[city_idx].to_string(),
        ]);
    }
    let table = Table::new(
        "HighDistinct",
        COLUMNS.iter().map(|s| s.to_string()).collect(),
        rows,
    )
    .expect("generated rows match the schema");

    let metadata = DatasetMetadata {
        fds: vec![FunctionalDependency::new("city", "state")],
        patterns: vec![
            ColumnPattern::new("uid", PatternKind::NonEmpty),
            ColumnPattern::new("handle", PatternKind::NonEmpty),
            ColumnPattern::new("session", PatternKind::NonEmpty),
            ColumnPattern::new("created", PatternKind::IsoDate),
            ColumnPattern::new(
                "amount",
                PatternKind::FloatRange {
                    min: 0.0,
                    max: 100_000.0,
                },
            ),
            ColumnPattern::new("note", PatternKind::NonEmpty),
        ],
        kb: vec![KnowledgeBaseEntry::domain(
            "state",
            vocab::STATES_FOR_CITIES.iter().map(|s| s.to_string()),
        )],
        numeric_columns: vec!["amount".into()],
        text_columns: vec!["note".into(), "handle".into()],
    };
    (table, metadata)
}

/// Record kinds of the MixedSchema workload and the tags each kind uses.
const KINDS: [(&str, &[&str]); 3] = [
    ("measurement", &["m:raw", "m:calibrated", "m:derived"]),
    ("event", &["e:start", "e:stop", "e:checkpoint"]),
    ("note", &["n:misc", "n:review", "n:followup"]),
];

/// Generates the **MixedSchema** workload: 7 attributes where `payload` and
/// `tag` formats depend on the row's `kind`.
pub fn mixed_schema(n_rows: usize, rng: &mut ChaCha8Rng) -> (Table, DatasetMetadata) {
    const COLUMNS: [&str; 7] = [
        "seq", "kind", "entity", "payload", "tag", "country", "region",
    ];
    let mut rows = Vec::with_capacity(n_rows);
    for i in 0..n_rows {
        let (kind, tags) = KINDS[skewed_index(rng, KINDS.len())];
        let payload = match kind {
            "measurement" => format!("{:.3}", rng.gen_range(0..100_000) as f64 * 0.001),
            "event" => super::format_time_12h(rng.gen_range(0..24 * 60)),
            _ => format!(
                "{} {}",
                vocab::pick(
                    vocab::TOPIC_WORDS,
                    rng.gen_range(0..vocab::TOPIC_WORDS.len())
                ),
                vocab::pick(
                    vocab::TOPIC_WORDS,
                    rng.gen_range(0..vocab::TOPIC_WORDS.len())
                ),
            ),
        };
        let country_idx = skewed_index(rng, vocab::COUNTRIES.len());
        rows.push(vec![
            format!("{}", 1 + i),
            kind.to_string(),
            vocab::CITIES[skewed_index(rng, vocab::CITIES.len())].to_string(),
            payload,
            tags[rng.gen_range(0..tags.len())].to_string(),
            vocab::COUNTRIES[country_idx].to_string(),
            vocab::REGIONS_FOR_COUNTRIES[country_idx].to_string(),
        ]);
    }
    let table = Table::new(
        "MixedSchema",
        COLUMNS.iter().map(|s| s.to_string()).collect(),
        rows,
    )
    .expect("generated rows match the schema");

    let all_tags: Vec<String> = KINDS
        .iter()
        .flat_map(|(_, tags)| tags.iter().map(|t| t.to_string()))
        .collect();
    let metadata = DatasetMetadata {
        fds: vec![FunctionalDependency::new("country", "region")],
        patterns: vec![
            ColumnPattern::new(
                "seq",
                PatternKind::IntRange {
                    min: 0,
                    max: 10_000_000,
                },
            ),
            ColumnPattern::new(
                "kind",
                PatternKind::OneOf(KINDS.iter().map(|(k, _)| k.to_string()).collect()),
            ),
            // The payload column deliberately has *no* single format: it is
            // only required to be present.
            ColumnPattern::new("payload", PatternKind::NonEmpty),
            ColumnPattern::new("tag", PatternKind::OneOf(all_tags.clone())),
        ],
        kb: vec![
            KnowledgeBaseEntry::domain(
                "region",
                vocab::REGIONS_FOR_COUNTRIES.iter().map(|s| s.to_string()),
            ),
            KnowledgeBaseEntry::domain("tag", all_tags),
        ],
        numeric_columns: vec![],
        text_columns: vec!["payload".into(), "entity".into()],
    };
    (table, metadata)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::testutil::assert_fd_holds;
    use rand::SeedableRng;
    use std::collections::HashSet;

    #[test]
    fn wide_is_wide_and_clean() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let (table, meta) = wide(300, &mut rng);
        assert_eq!(table.n_rows(), 300);
        assert_eq!(table.n_cols(), 30, "the point of this shape is width");
        for fd in &meta.fds {
            assert_fd_holds(&table, &fd.determinant, &fd.dependent);
        }
        for pat in &meta.patterns {
            let col = table.column_index(&pat.column).unwrap();
            for row in table.rows() {
                assert!(
                    pat.kind.matches(&row[col]),
                    "{}: {:?}",
                    pat.column,
                    row[col]
                );
            }
        }
    }

    #[test]
    fn high_distinct_columns_are_nearly_unique() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let (table, meta) = high_distinct(500, &mut rng);
        assert_eq!(table.n_rows(), 500);
        for col_name in ["uid", "handle", "session"] {
            let col = table.column_index(col_name).unwrap();
            let distinct: HashSet<&str> = table.rows().iter().map(|r| r[col].as_str()).collect();
            assert_eq!(distinct.len(), 500, "{col_name} must be unique per row");
        }
        // The anchor stays low-distinct: clustering has *something* to group.
        let state = table.column_index("state").unwrap();
        let states: HashSet<&str> = table.rows().iter().map(|r| r[state].as_str()).collect();
        assert!(
            states.len() <= vocab::STATES_FOR_CITIES.len(),
            "bounded by the vocabulary, not by the row count"
        );
        for fd in &meta.fds {
            assert_fd_holds(&table, &fd.determinant, &fd.dependent);
        }
    }

    #[test]
    fn mixed_schema_payload_formats_follow_kind() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let (table, meta) = mixed_schema(400, &mut rng);
        let kind = table.column_index("kind").unwrap();
        let payload = table.column_index("payload").unwrap();
        let tag = table.column_index("tag").unwrap();
        let mut kinds_seen = HashSet::new();
        for row in table.rows() {
            kinds_seen.insert(row[kind].clone());
            match row[kind].as_str() {
                "measurement" => {
                    assert!(row[payload].parse::<f64>().is_ok(), "{:?}", row[payload]);
                    assert!(row[tag].starts_with("m:"));
                }
                "event" => {
                    assert!(
                        row[payload].contains("am") || row[payload].contains("pm"),
                        "{:?}",
                        row[payload]
                    );
                    assert!(row[tag].starts_with("e:"));
                }
                other => {
                    assert_eq!(other, "note");
                    assert!(row[tag].starts_with("n:"));
                }
            }
        }
        assert_eq!(kinds_seen.len(), 3, "all record kinds must appear");
        for fd in &meta.fds {
            assert_fd_holds(&table, &fd.determinant, &fd.dependent);
        }
    }
}
