//! The Tax benchmark: the large synthetic tax dataset from the BART
//! repository, used by the paper for scalability experiments (up to 200,000
//! tuples).
//!
//! Schema (22 attributes): person identity, contact information, address
//! (city/state/zip), marital and dependent status, salary and the tax fields
//! whose consistency rules BART uses (rate, exemptions). Functional
//! dependencies: `zip → city, state`, `area_code → state`, and
//! `state, has_child → child_exemption`-style rules approximated as
//! `state → single_exemption`.

use super::skewed_index;
use crate::metadata::{
    ColumnPattern, DatasetMetadata, FunctionalDependency, KnowledgeBaseEntry, PatternKind,
};
use crate::vocab;
use rand::Rng;
use rand_chacha::ChaCha8Rng;
use zeroed_table::Table;

/// Column names of the generated Tax table.
pub const COLUMNS: [&str; 22] = [
    "f_name",
    "l_name",
    "gender",
    "area_code",
    "phone",
    "city",
    "state",
    "zip",
    "marital_status",
    "has_child",
    "salary",
    "rate",
    "single_exemp",
    "married_exemp",
    "child_exemp",
    "email",
    "ssn_last4",
    "employer",
    "occupation",
    "years_employed",
    "filing_year",
    "account_type",
];

struct Location {
    city: String,
    state: String,
    zip: String,
    area_code: String,
    rate: f64,
    single_exemp: u32,
    married_exemp: u32,
    child_exemp: u32,
}

/// Generates a clean Tax table with `n_rows` tuples.
pub fn clean(n_rows: usize, rng: &mut ChaCha8Rng) -> (Table, DatasetMetadata) {
    let locations: Vec<Location> = vocab::CITIES
        .iter()
        .enumerate()
        .map(|(i, city)| {
            let state = vocab::STATES_FOR_CITIES[i];
            Location {
                city: city.to_string(),
                state: state.to_string(),
                zip: format!("{:05}", 10000 + i * 211),
                area_code: format!("{}", 201 + i * 3),
                rate: 2.0 + (i % 8) as f64,
                single_exemp: 1000 + (i as u32 % 6) * 250,
                married_exemp: 2000 + (i as u32 % 6) * 500,
                child_exemp: 500 + (i as u32 % 4) * 100,
            }
        })
        .collect();
    let occupations = [
        "engineer",
        "teacher",
        "nurse",
        "manager",
        "analyst",
        "clerk",
        "driver",
        "consultant",
        "technician",
        "accountant",
    ];

    let mut rows = Vec::with_capacity(n_rows);
    for i in 0..n_rows {
        let loc = &locations[skewed_index(rng, locations.len())];
        let first = vocab::pick(
            vocab::FIRST_NAMES,
            rng.gen_range(0..vocab::FIRST_NAMES.len()),
        );
        let last = vocab::pick(vocab::LAST_NAMES, rng.gen_range(0..vocab::LAST_NAMES.len()));
        let gender = if rng.gen_bool(0.5) { "M" } else { "F" };
        let marital = vocab::MARITAL_STATUSES[rng.gen_range(0..2)];
        let has_child = if rng.gen_bool(0.4) { "Y" } else { "N" };
        let salary = 20_000 + rng.gen_range(0..180_000);
        rows.push(vec![
            first.to_string(),
            last.to_string(),
            gender.to_string(),
            loc.area_code.clone(),
            format!(
                "({}) {:03}-{:04}",
                loc.area_code,
                200 + rng.gen_range(0..700),
                1000 + rng.gen_range(0..9000)
            ),
            loc.city.clone(),
            loc.state.clone(),
            loc.zip.clone(),
            marital.to_string(),
            has_child.to_string(),
            format!("{salary}"),
            format!("{:.1}", loc.rate),
            format!("{}", loc.single_exemp),
            format!("{}", loc.married_exemp),
            format!("{}", loc.child_exemp),
            format!(
                "{}.{}@example.com",
                first.to_lowercase(),
                last.to_lowercase()
            ),
            format!("{:04}", rng.gen_range(0..10_000)),
            format!(
                "{} {} inc",
                vocab::pick(
                    vocab::BREWERY_WORDS,
                    rng.gen_range(0..vocab::BREWERY_WORDS.len())
                ),
                vocab::pick(
                    vocab::MOVIE_NOUNS,
                    rng.gen_range(0..vocab::MOVIE_NOUNS.len())
                )
            )
            .to_lowercase(),
            occupations[rng.gen_range(0..occupations.len())].to_string(),
            format!("{}", rng.gen_range(0..40)),
            format!("{}", 2010 + (i % 10)),
            if rng.gen_bool(0.7) {
                "individual"
            } else {
                "joint"
            }
            .to_string(),
        ]);
    }

    let table = Table::new("Tax", COLUMNS.iter().map(|s| s.to_string()).collect(), rows)
        .expect("generated rows match the schema");

    let metadata = DatasetMetadata {
        fds: vec![
            FunctionalDependency::new("zip", "city"),
            FunctionalDependency::new("zip", "state"),
            FunctionalDependency::new("area_code", "state"),
            FunctionalDependency::new("city", "state"),
            FunctionalDependency::new("state", "rate"),
            FunctionalDependency::new("state", "single_exemp"),
            FunctionalDependency::new("state", "married_exemp"),
            FunctionalDependency::new("state", "child_exemp"),
        ],
        patterns: vec![
            ColumnPattern::new("zip", PatternKind::ZipCode),
            ColumnPattern::new("gender", PatternKind::OneOf(vec!["M".into(), "F".into()])),
            ColumnPattern::new(
                "marital_status",
                PatternKind::OneOf(vec!["S".into(), "M".into()]),
            ),
            ColumnPattern::new(
                "has_child",
                PatternKind::OneOf(vec!["Y".into(), "N".into()]),
            ),
            ColumnPattern::new(
                "salary",
                PatternKind::IntRange {
                    min: 0,
                    max: 1_000_000,
                },
            ),
            ColumnPattern::new(
                "rate",
                PatternKind::FloatRange {
                    min: 0.0,
                    max: 15.0,
                },
            ),
            ColumnPattern::new("years_employed", PatternKind::IntRange { min: 0, max: 60 }),
            ColumnPattern::new(
                "filing_year",
                PatternKind::IntRange {
                    min: 2000,
                    max: 2030,
                },
            ),
        ],
        kb: vec![
            KnowledgeBaseEntry::domain(
                "state",
                vocab::STATES_FOR_CITIES.iter().map(|s| s.to_string()),
            ),
            KnowledgeBaseEntry::domain("city", vocab::CITIES.iter().map(|s| s.to_string())),
        ],
        numeric_columns: vec![
            "salary".into(),
            "rate".into(),
            "single_exemp".into(),
            "married_exemp".into(),
            "child_exemp".into(),
            "years_employed".into(),
        ],
        text_columns: vec![
            "f_name".into(),
            "l_name".into(),
            "employer".into(),
            "email".into(),
        ],
    };
    (table, metadata)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::testutil::assert_fd_holds;
    use rand::SeedableRng;

    #[test]
    fn shape_and_fds() {
        let mut rng = ChaCha8Rng::seed_from_u64(14);
        let (table, meta) = clean(800, &mut rng);
        assert_eq!(table.n_rows(), 800);
        assert_eq!(table.n_cols(), 22);
        for fd in &meta.fds {
            assert_fd_holds(&table, &fd.determinant, &fd.dependent);
        }
    }

    #[test]
    fn patterns_hold() {
        let mut rng = ChaCha8Rng::seed_from_u64(15);
        let (table, meta) = clean(300, &mut rng);
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
    fn scales_to_larger_sizes() {
        let mut rng = ChaCha8Rng::seed_from_u64(16);
        let (table, _) = clean(5_000, &mut rng);
        assert_eq!(table.n_rows(), 5_000);
    }
}
