//! The Beers benchmark: craft beers and the breweries that make them.
//!
//! Schema (11 attributes): beer id, beer name, style, ounces, ABV, IBU,
//! brewery id, brewery name, city, state, serving. Functional dependencies:
//! `brewery_id → brewery_name, city, state` and `city → state`.

use super::skewed_index;
use crate::metadata::{
    ColumnPattern, DatasetMetadata, FunctionalDependency, KnowledgeBaseEntry, PatternKind,
};
use crate::vocab;
use rand::Rng;
use rand_chacha::ChaCha8Rng;
use zeroed_table::Table;

/// Column names of the generated Beers table.
pub const COLUMNS: [&str; 11] = [
    "id",
    "beer_name",
    "style",
    "ounces",
    "abv",
    "ibu",
    "brewery_id",
    "brewery_name",
    "city",
    "state",
    "serving",
];

struct Brewery {
    id: String,
    name: String,
    city: String,
    state: String,
}

/// Generates a clean Beers table with `n_rows` tuples.
pub fn clean(n_rows: usize, rng: &mut ChaCha8Rng) -> (Table, DatasetMetadata) {
    let n_breweries = (n_rows / 10).clamp(5, 80);
    let breweries: Vec<Brewery> = (0..n_breweries)
        .map(|i| {
            let city_idx = rng.gen_range(0..vocab::CITIES.len());
            Brewery {
                id: format!("{}", 100 + i),
                // Index-based composition keeps brewery names unique so that
                // the FD brewery_name -> city holds on clean data.
                name: format!(
                    "{} {} brewing company",
                    vocab::pick(vocab::BREWERY_WORDS, i),
                    vocab::pick(vocab::BEER_NOUNS, i / vocab::BREWERY_WORDS.len())
                ),
                city: vocab::CITIES[city_idx].to_string(),
                state: vocab::STATES_FOR_CITIES[city_idx].to_string(),
            }
        })
        .collect();

    let mut rows = Vec::with_capacity(n_rows);
    for i in 0..n_rows {
        let b = &breweries[skewed_index(rng, breweries.len())];
        let style = vocab::BEER_STYLES[rng.gen_range(0..vocab::BEER_STYLES.len())];
        let abv = 3.5 + rng.gen_range(0..80) as f64 * 0.1;
        let ibu = 10 + rng.gen_range(0..110);
        let ounces = [12.0, 16.0, 19.2, 24.0][rng.gen_range(0..4)];
        rows.push(vec![
            format!("{}", 1000 + i),
            format!(
                "{} {}",
                vocab::pick(vocab::BEER_WORDS, rng.gen_range(0..vocab::BEER_WORDS.len())),
                vocab::pick(vocab::BEER_NOUNS, rng.gen_range(0..vocab::BEER_NOUNS.len()))
            ),
            style.to_string(),
            format!("{ounces:.1}"),
            format!("{abv:.1}"),
            format!("{ibu}"),
            b.id.clone(),
            b.name.clone(),
            b.city.clone(),
            b.state.clone(),
            if ounces <= 12.0 { "can" } else { "bottle" }.to_string(),
        ]);
    }

    let table = Table::new(
        "Beers",
        COLUMNS.iter().map(|s| s.to_string()).collect(),
        rows,
    )
    .expect("generated rows match the schema");

    let metadata = DatasetMetadata {
        fds: vec![
            FunctionalDependency::new("brewery_id", "brewery_name"),
            FunctionalDependency::new("brewery_id", "city"),
            FunctionalDependency::new("brewery_id", "state"),
            FunctionalDependency::new("brewery_name", "city"),
            FunctionalDependency::new("city", "state"),
        ],
        patterns: vec![
            ColumnPattern::new(
                "abv",
                PatternKind::FloatRange {
                    min: 0.0,
                    max: 15.0,
                },
            ),
            ColumnPattern::new("ibu", PatternKind::IntRange { min: 0, max: 150 }),
            ColumnPattern::new(
                "ounces",
                PatternKind::FloatRange {
                    min: 8.0,
                    max: 32.0,
                },
            ),
            ColumnPattern::new(
                "id",
                PatternKind::IntRange {
                    min: 0,
                    max: 1_000_000,
                },
            ),
            ColumnPattern::new(
                "brewery_id",
                PatternKind::IntRange {
                    min: 0,
                    max: 10_000,
                },
            ),
            ColumnPattern::new(
                "style",
                PatternKind::OneOf(vocab::BEER_STYLES.iter().map(|s| s.to_string()).collect()),
            ),
            ColumnPattern::new(
                "serving",
                PatternKind::OneOf(vec!["can".into(), "bottle".into()]),
            ),
        ],
        kb: vec![
            KnowledgeBaseEntry::domain(
                "state",
                vocab::STATES_FOR_CITIES.iter().map(|s| s.to_string()),
            ),
            KnowledgeBaseEntry::domain("city", vocab::CITIES.iter().map(|s| s.to_string())),
            KnowledgeBaseEntry::domain("style", vocab::BEER_STYLES.iter().map(|s| s.to_string())),
        ],
        numeric_columns: vec!["abv".into(), "ibu".into(), "ounces".into()],
        text_columns: vec!["beer_name".into(), "brewery_name".into()],
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
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let (table, meta) = clean(600, &mut rng);
        assert_eq!(table.n_rows(), 600);
        assert_eq!(table.n_cols(), 11);
        for fd in &meta.fds {
            assert_fd_holds(&table, &fd.determinant, &fd.dependent);
        }
    }

    #[test]
    fn numeric_columns_in_range() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let (table, meta) = clean(200, &mut rng);
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
}
