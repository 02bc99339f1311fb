//! The Movies benchmark (Magellan movies metadata).
//!
//! Schema (17 attributes): title, year, director, creators, cast, genre,
//! duration, content rating, language, country, release date, description and
//! ratings. Functional dependencies: `title → director, year, language,
//! country` (each movie entity appears on several aggregator rows).

use super::{format_iso_date, skewed_index};
use crate::metadata::{
    ColumnPattern, DatasetMetadata, FunctionalDependency, KnowledgeBaseEntry, PatternKind,
};
use crate::vocab;
use rand::Rng;
use rand_chacha::ChaCha8Rng;
use zeroed_table::Table;

/// Column names of the generated Movies table.
pub const COLUMNS: [&str; 17] = [
    "id",
    "title",
    "year",
    "director",
    "creator",
    "cast",
    "genre",
    "duration_minutes",
    "content_rating",
    "language",
    "country",
    "release_date",
    "description",
    "imdb_rating",
    "metascore",
    "votes",
    "source_site",
];

struct Movie {
    title: String,
    year: u32,
    director: String,
    creator: String,
    genre: String,
    language: String,
    country: String,
    duration: u32,
    rating: String,
}

/// Generates a clean Movies table with `n_rows` tuples.
pub fn clean(n_rows: usize, rng: &mut ChaCha8Rng) -> (Table, DatasetMetadata) {
    let n_movies = (n_rows / 5).clamp(10, 400);
    let movies: Vec<Movie> = (0..n_movies)
        .map(|i| {
            let country_idx = rng.gen_range(0..vocab::COUNTRIES.len());
            Movie {
                title: format!(
                    "{} {} {}",
                    vocab::pick(
                        vocab::MOVIE_WORDS,
                        rng.gen_range(0..vocab::MOVIE_WORDS.len())
                    ),
                    vocab::pick(
                        vocab::MOVIE_NOUNS,
                        rng.gen_range(0..vocab::MOVIE_NOUNS.len())
                    ),
                    i
                ),
                year: 1960 + rng.gen_range(0..64),
                director: format!(
                    "{} {}",
                    vocab::pick(
                        vocab::FIRST_NAMES,
                        rng.gen_range(0..vocab::FIRST_NAMES.len())
                    ),
                    vocab::pick(vocab::LAST_NAMES, rng.gen_range(0..vocab::LAST_NAMES.len()))
                ),
                creator: format!(
                    "{} {}",
                    vocab::pick(
                        vocab::FIRST_NAMES,
                        rng.gen_range(0..vocab::FIRST_NAMES.len())
                    ),
                    vocab::pick(vocab::LAST_NAMES, rng.gen_range(0..vocab::LAST_NAMES.len()))
                ),
                genre: vocab::GENRES[rng.gen_range(0..vocab::GENRES.len())].to_string(),
                language: [
                    "English", "French", "Spanish", "Mandarin", "Hindi", "Japanese",
                ][rng.gen_range(0..6)]
                .to_string(),
                country: vocab::COUNTRIES[country_idx].to_string(),
                duration: 70 + rng.gen_range(0..120),
                rating: vocab::RATINGS[rng.gen_range(0..vocab::RATINGS.len())].to_string(),
            }
        })
        .collect();

    let mut rows = Vec::with_capacity(n_rows);
    for i in 0..n_rows {
        let m = &movies[skewed_index(rng, movies.len())];
        let n_cast = 2 + rng.gen_range(0..3);
        let cast: Vec<String> = (0..n_cast)
            .map(|_| {
                format!(
                    "{} {}",
                    vocab::pick(
                        vocab::FIRST_NAMES,
                        rng.gen_range(0..vocab::FIRST_NAMES.len())
                    ),
                    vocab::pick(vocab::LAST_NAMES, rng.gen_range(0..vocab::LAST_NAMES.len()))
                )
            })
            .collect();
        rows.push(vec![
            format!("m{:06}", i),
            m.title.clone(),
            format!("{}", m.year),
            m.director.clone(),
            m.creator.clone(),
            cast.join(", "),
            m.genre.clone(),
            format!("{}", m.duration),
            m.rating.clone(),
            m.language.clone(),
            m.country.clone(),
            format_iso_date(m.year, 1 + rng.gen_range(0..12), 1 + rng.gen_range(0..28)),
            format!(
                "a {} story about the {} of {}",
                m.genre.to_lowercase(),
                vocab::pick(
                    vocab::MOVIE_NOUNS,
                    rng.gen_range(0..vocab::MOVIE_NOUNS.len())
                )
                .to_lowercase(),
                vocab::pick(
                    vocab::MOVIE_WORDS,
                    rng.gen_range(0..vocab::MOVIE_WORDS.len())
                )
                .to_lowercase()
            ),
            format!("{:.1}", 3.0 + rng.gen_range(0..70) as f64 * 0.1),
            format!("{}", 20 + rng.gen_range(0..80)),
            format!("{}", 100 + rng.gen_range(0..500_000)),
            if rng.gen_bool(0.5) {
                "imdb"
            } else {
                "rottentomatoes"
            }
            .to_string(),
        ]);
    }

    let table = Table::new(
        "Movies",
        COLUMNS.iter().map(|s| s.to_string()).collect(),
        rows,
    )
    .expect("generated rows match the schema");

    let metadata = DatasetMetadata {
        fds: vec![
            FunctionalDependency::new("title", "director"),
            FunctionalDependency::new("title", "year"),
            FunctionalDependency::new("title", "language"),
            FunctionalDependency::new("title", "country"),
            FunctionalDependency::new("title", "genre"),
            FunctionalDependency::new("title", "content_rating"),
        ],
        patterns: vec![
            ColumnPattern::new(
                "year",
                PatternKind::IntRange {
                    min: 1900,
                    max: 2030,
                },
            ),
            ColumnPattern::new(
                "duration_minutes",
                PatternKind::IntRange { min: 30, max: 300 },
            ),
            ColumnPattern::new(
                "imdb_rating",
                PatternKind::FloatRange {
                    min: 0.0,
                    max: 10.0,
                },
            ),
            ColumnPattern::new("metascore", PatternKind::IntRange { min: 0, max: 100 }),
            ColumnPattern::new("release_date", PatternKind::IsoDate),
            ColumnPattern::new(
                "content_rating",
                PatternKind::OneOf(vocab::RATINGS.iter().map(|s| s.to_string()).collect()),
            ),
            ColumnPattern::new(
                "genre",
                PatternKind::OneOf(vocab::GENRES.iter().map(|s| s.to_string()).collect()),
            ),
        ],
        kb: vec![
            KnowledgeBaseEntry::domain("genre", vocab::GENRES.iter().map(|s| s.to_string())),
            KnowledgeBaseEntry::domain(
                "content_rating",
                vocab::RATINGS.iter().map(|s| s.to_string()),
            ),
            KnowledgeBaseEntry::domain("country", vocab::COUNTRIES.iter().map(|s| s.to_string())),
        ],
        numeric_columns: vec![
            "duration_minutes".into(),
            "imdb_rating".into(),
            "metascore".into(),
            "votes".into(),
        ],
        text_columns: vec![
            "title".into(),
            "description".into(),
            "cast".into(),
            "director".into(),
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
        let mut rng = ChaCha8Rng::seed_from_u64(12);
        let (table, meta) = clean(700, &mut rng);
        assert_eq!(table.n_rows(), 700);
        assert_eq!(table.n_cols(), 17);
        for fd in &meta.fds {
            assert_fd_holds(&table, &fd.determinant, &fd.dependent);
        }
    }

    #[test]
    fn patterns_hold() {
        let mut rng = ChaCha8Rng::seed_from_u64(13);
        let (table, meta) = clean(250, &mut rng);
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
