//! The Flights benchmark: flight departure/arrival times aggregated from
//! several websites.
//!
//! Schema (7 attributes): data source, flight number, scheduled/actual
//! departure time, scheduled/actual arrival time, gate. The key functional
//! dependencies mirror the original benchmark: a flight number determines its
//! scheduled departure and arrival time (every website should agree on the
//! schedule), while actual times vary slightly per source.

use super::{format_time_12h, skewed_index};
use crate::metadata::{
    ColumnPattern, DatasetMetadata, FunctionalDependency, KnowledgeBaseEntry, PatternKind,
};
use crate::vocab;
use rand::Rng;
use rand_chacha::ChaCha8Rng;
use zeroed_table::Table;

/// Column names of the generated Flights table.
pub const COLUMNS: [&str; 7] = [
    "src",
    "flight",
    "sched_dep_time",
    "act_dep_time",
    "sched_arr_time",
    "act_arr_time",
    "gate",
];

struct FlightEntity {
    number: String,
    sched_dep: u32,
    sched_arr: u32,
    gate: String,
}

/// Generates a clean Flights table with `n_rows` tuples.
pub fn clean(n_rows: usize, rng: &mut ChaCha8Rng) -> (Table, DatasetMetadata) {
    let n_flights = (n_rows / 8).clamp(5, 120);
    let flights: Vec<FlightEntity> = (0..n_flights)
        .map(|i| {
            let airline = vocab::AIRLINES[i % vocab::AIRLINES.len()];
            let dep = rng.gen_range(5 * 60..22 * 60);
            let duration = rng.gen_range(45..360);
            FlightEntity {
                number: format!("{airline}-{}", 100 + rng.gen_range(0..4000)),
                sched_dep: dep,
                sched_arr: (dep + duration) % (24 * 60),
                gate: format!("{}{}", [b'A', b'B', b'C', b'D'][i % 4] as char, 1 + i % 40),
            }
        })
        .collect();

    let mut rows = Vec::with_capacity(n_rows);
    for _ in 0..n_rows {
        let f = &flights[skewed_index(rng, flights.len())];
        let src = vocab::FLIGHT_SOURCES[rng.gen_range(0..vocab::FLIGHT_SOURCES.len())];
        // Actual times: the flight's schedule plus a delay that is a pure
        // function of the flight (so the table stays consistent/clean).
        let delay = (f.sched_dep % 7) * 5;
        let act_dep = f.sched_dep + delay;
        let act_arr = f.sched_arr + delay;
        rows.push(vec![
            src.to_string(),
            f.number.clone(),
            format_time_12h(f.sched_dep),
            format_time_12h(act_dep),
            format_time_12h(f.sched_arr),
            format_time_12h(act_arr),
            f.gate.clone(),
        ]);
    }

    let table = Table::new(
        "Flights",
        COLUMNS.iter().map(|s| s.to_string()).collect(),
        rows,
    )
    .expect("generated rows match the schema");

    let metadata = DatasetMetadata {
        fds: vec![
            FunctionalDependency::new("flight", "sched_dep_time"),
            FunctionalDependency::new("flight", "sched_arr_time"),
            FunctionalDependency::new("flight", "act_dep_time"),
            FunctionalDependency::new("flight", "act_arr_time"),
            FunctionalDependency::new("flight", "gate"),
        ],
        patterns: vec![
            ColumnPattern::new("flight", PatternKind::FlightNumber),
            ColumnPattern::new("sched_dep_time", PatternKind::Time12H),
            ColumnPattern::new("act_dep_time", PatternKind::Time12H),
            ColumnPattern::new("sched_arr_time", PatternKind::Time12H),
            ColumnPattern::new("act_arr_time", PatternKind::Time12H),
            ColumnPattern::new(
                "src",
                PatternKind::OneOf(
                    vocab::FLIGHT_SOURCES
                        .iter()
                        .map(|s| s.to_string())
                        .collect(),
                ),
            ),
        ],
        kb: vec![KnowledgeBaseEntry::domain(
            "src",
            vocab::FLIGHT_SOURCES.iter().map(|s| s.to_string()),
        )],
        numeric_columns: vec![],
        text_columns: vec!["gate".into()],
    };
    (table, metadata)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::testutil::assert_fd_holds;
    use rand::SeedableRng;

    #[test]
    fn shape_fds_and_patterns() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let (table, meta) = clean(500, &mut rng);
        assert_eq!(table.n_rows(), 500);
        assert_eq!(table.n_cols(), 7);
        for fd in &meta.fds {
            assert_fd_holds(&table, &fd.determinant, &fd.dependent);
        }
        for pat in &meta.patterns {
            let col = table.column_index(&pat.column).unwrap();
            for row in table.rows() {
                assert!(
                    pat.kind.matches(&row[col]),
                    "{} -> {:?}",
                    pat.column,
                    row[col]
                );
            }
        }
    }

    #[test]
    fn times_are_valid_12h_format() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let (table, _) = clean(100, &mut rng);
        let col = table.column_index("sched_dep_time").unwrap();
        for row in table.rows() {
            assert!(PatternKind::Time12H.matches(&row[col]));
        }
    }
}
