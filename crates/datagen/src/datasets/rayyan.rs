//! The Rayyan benchmark: bibliographic records from the Rayyan systematic
//! review screening tool.
//!
//! Schema (11 attributes): article title, journal title, ISSN, volume, pages,
//! creation date, authors, language, journal abbreviation, publication year,
//! article type. Functional dependencies: `journal_title → issn,
//! journal_abbreviation, language`.

use super::{format_iso_date, skewed_index};
use crate::metadata::{
    ColumnPattern, DatasetMetadata, FunctionalDependency, KnowledgeBaseEntry, PatternKind,
};
use crate::vocab;
use rand::Rng;
use rand_chacha::ChaCha8Rng;
use zeroed_table::Table;

/// Column names of the generated Rayyan table.
pub const COLUMNS: [&str; 11] = [
    "article_title",
    "journal_title",
    "journal_issn",
    "article_jvolumn",
    "article_pagination",
    "jcreated_at",
    "article_authors",
    "article_language",
    "journal_abbreviation",
    "article_jyear",
    "article_type",
];

struct Journal {
    title: String,
    issn: String,
    abbreviation: String,
    language: String,
}

fn abbreviate(title: &str) -> String {
    title
        .split_whitespace()
        .filter(|w| w.len() > 2 && !w.eq_ignore_ascii_case("the") && !w.eq_ignore_ascii_case("and"))
        .map(|w| &w[..w.len().min(4)])
        .collect::<Vec<_>>()
        .join(". ")
}

/// Generates a clean Rayyan table with `n_rows` tuples.
pub fn clean(n_rows: usize, rng: &mut ChaCha8Rng) -> (Table, DatasetMetadata) {
    let journals: Vec<Journal> = vocab::JOURNALS
        .iter()
        .enumerate()
        .map(|(i, title)| Journal {
            title: title.to_string(),
            issn: format!(
                "{:04}-{:03}{}",
                1000 + i * 37,
                100 + i * 7,
                if i % 5 == 0 {
                    "X".to_string()
                } else {
                    (i % 10).to_string()
                }
            ),
            abbreviation: abbreviate(title),
            language: vocab::LANGUAGES[i % 3].to_string(),
        })
        .collect();

    let mut rows = Vec::with_capacity(n_rows);
    for _ in 0..n_rows {
        let j = &journals[skewed_index(rng, journals.len())];
        let n_title_words = 5 + rng.gen_range(0..6);
        let title: Vec<&str> = (0..n_title_words)
            .map(|_| vocab::TOPIC_WORDS[rng.gen_range(0..vocab::TOPIC_WORDS.len())])
            .collect();
        let n_authors = 1 + rng.gen_range(0..4);
        let authors: Vec<String> = (0..n_authors)
            .map(|_| {
                format!(
                    "{} {}",
                    vocab::pick(vocab::LAST_NAMES, rng.gen_range(0..vocab::LAST_NAMES.len())),
                    vocab::pick(
                        vocab::FIRST_NAMES,
                        rng.gen_range(0..vocab::FIRST_NAMES.len())
                    )
                    .chars()
                    .next()
                    .unwrap_or('A')
                )
            })
            .collect();
        let year = 1995 + rng.gen_range(0..28);
        let start_page = 1 + rng.gen_range(0..800);
        rows.push(vec![
            title.join(" "),
            j.title.clone(),
            j.issn.clone(),
            format!("{}", 1 + rng.gen_range(0..90)),
            format!("{}-{}", start_page, start_page + rng.gen_range(3..25)),
            format_iso_date(year, 1 + rng.gen_range(0..12), 1 + rng.gen_range(0..28)),
            authors.join("; "),
            j.language.clone(),
            j.abbreviation.clone(),
            format!("{year}"),
            if rng.gen_bool(0.7) {
                "journal article"
            } else {
                "review"
            }
            .to_string(),
        ]);
    }

    let table = Table::new(
        "Rayyan",
        COLUMNS.iter().map(|s| s.to_string()).collect(),
        rows,
    )
    .expect("generated rows match the schema");

    let metadata = DatasetMetadata {
        fds: vec![
            FunctionalDependency::new("journal_title", "journal_issn"),
            FunctionalDependency::new("journal_title", "journal_abbreviation"),
            FunctionalDependency::new("journal_title", "article_language"),
            FunctionalDependency::new("journal_issn", "journal_title"),
        ],
        patterns: vec![
            ColumnPattern::new("journal_issn", PatternKind::Issn),
            ColumnPattern::new("jcreated_at", PatternKind::IsoDate),
            ColumnPattern::new(
                "article_jyear",
                PatternKind::IntRange {
                    min: 1900,
                    max: 2030,
                },
            ),
            ColumnPattern::new(
                "article_jvolumn",
                PatternKind::IntRange { min: 1, max: 500 },
            ),
            ColumnPattern::new(
                "article_language",
                PatternKind::OneOf(vocab::LANGUAGES.iter().map(|s| s.to_string()).collect()),
            ),
            ColumnPattern::new(
                "article_type",
                PatternKind::OneOf(vec!["journal article".into(), "review".into()]),
            ),
        ],
        kb: vec![
            KnowledgeBaseEntry::domain(
                "journal_title",
                vocab::JOURNALS.iter().map(|s| s.to_string()),
            ),
            KnowledgeBaseEntry::domain(
                "article_language",
                vocab::LANGUAGES.iter().map(|s| s.to_string()),
            ),
        ],
        numeric_columns: vec!["article_jyear".into(), "article_jvolumn".into()],
        text_columns: vec!["article_title".into(), "article_authors".into()],
    };
    (table, metadata)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::testutil::assert_fd_holds;
    use rand::SeedableRng;

    #[test]
    fn shape_fds_patterns() {
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let (table, meta) = clean(400, &mut rng);
        assert_eq!(table.n_rows(), 400);
        assert_eq!(table.n_cols(), 11);
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
    fn abbreviation_skips_stop_words() {
        assert_eq!(abbreviate("The Lancet"), "Lanc");
        assert!(abbreviate("Journal of Clinical Epidemiology").starts_with("Jour"));
    }
}
