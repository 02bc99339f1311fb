//! The Billionaire benchmark (CORGIS billionaires list) with synthetic errors.
//!
//! Schema (22 attributes): person identity (name, age, gender, citizenship),
//! wealth fields (rank, net worth, source, industry, company facts) and
//! location fields (country, region, capital). Functional dependencies:
//! `name → gender, citizenship`, `country → region, capital`,
//! `company_name → industry, company_founded`.

use super::skewed_index;
use crate::metadata::{
    ColumnPattern, DatasetMetadata, FunctionalDependency, KnowledgeBaseEntry, PatternKind,
};
use crate::vocab;
use rand::Rng;
use rand_chacha::ChaCha8Rng;
use zeroed_table::Table;

/// Column names of the generated Billionaire table.
pub const COLUMNS: [&str; 22] = [
    "name",
    "rank",
    "year",
    "company_name",
    "company_founded",
    "company_relationship",
    "industry",
    "country",
    "region",
    "capital",
    "citizenship",
    "networth_billions",
    "source",
    "age",
    "gender",
    "was_founder",
    "inherited",
    "wealth_type",
    "gdp",
    "sector",
    "selfmade_score",
    "decade",
];

struct Person {
    name: String,
    gender: String,
    citizenship: String,
    age_base: u32,
}

struct Company {
    name: String,
    industry: String,
    founded: u32,
}

/// Generates a clean Billionaire table with `n_rows` tuples.
pub fn clean(n_rows: usize, rng: &mut ChaCha8Rng) -> (Table, DatasetMetadata) {
    let n_people = (n_rows / 4).clamp(10, 200);
    let people: Vec<Person> = (0..n_people)
        .map(|i| {
            let first = vocab::pick(
                vocab::FIRST_NAMES,
                rng.gen_range(0..vocab::FIRST_NAMES.len()),
            );
            let last = vocab::pick(vocab::LAST_NAMES, rng.gen_range(0..vocab::LAST_NAMES.len()));
            let country_idx = rng.gen_range(0..vocab::COUNTRIES.len());
            Person {
                name: format!("{first} {last} {}", i),
                gender: if i % 5 == 0 { "female" } else { "male" }.to_string(),
                citizenship: vocab::COUNTRIES[country_idx].to_string(),
                age_base: 35 + rng.gen_range(0..55),
            }
        })
        .collect();
    let n_companies = (n_people / 2).max(8);
    let companies: Vec<Company> = (0..n_companies)
        .map(|i| Company {
            // Index-based composition keeps company names unique so that the
            // FD company_name -> industry holds on clean data.
            name: format!(
                "{} {} group",
                vocab::pick(vocab::BREWERY_WORDS, i),
                vocab::pick(vocab::MOVIE_NOUNS, i / vocab::BREWERY_WORDS.len())
            ),
            industry: vocab::INDUSTRIES[rng.gen_range(0..vocab::INDUSTRIES.len())].to_string(),
            founded: 1900 + rng.gen_range(0..120),
        })
        .collect();

    let mut rows = Vec::with_capacity(n_rows);
    for i in 0..n_rows {
        let p = &people[skewed_index(rng, people.len())];
        let c = &companies[rng.gen_range(0..companies.len())];
        let country_idx = vocab::COUNTRIES
            .iter()
            .position(|x| *x == p.citizenship)
            .unwrap_or(0);
        let year = 2001 + (i % 14) as u32;
        let networth = 1.0 + rng.gen_range(0..800) as f64 * 0.1;
        rows.push(vec![
            p.name.clone(),
            format!("{}", 1 + rng.gen_range(0..500)),
            format!("{year}"),
            c.name.clone(),
            format!("{}", c.founded),
            if rng.gen_bool(0.5) {
                "founder"
            } else {
                "relation"
            }
            .to_string(),
            c.industry.clone(),
            p.citizenship.clone(),
            vocab::REGIONS_FOR_COUNTRIES[country_idx].to_string(),
            vocab::CAPITALS_FOR_COUNTRIES[country_idx].to_string(),
            p.citizenship.clone(),
            format!("{networth:.1}"),
            c.industry.to_lowercase(),
            format!("{}", p.age_base + (year - 2001)),
            p.gender.clone(),
            if rng.gen_bool(0.6) { "true" } else { "false" }.to_string(),
            if rng.gen_bool(0.3) {
                "inherited"
            } else {
                "not inherited"
            }
            .to_string(),
            if rng.gen_bool(0.5) {
                "self-made finance"
            } else {
                "founder non-finance"
            }
            .to_string(),
            format!("{}", 100 + rng.gen_range(0..20000)),
            c.industry.clone(),
            format!("{}", 1 + rng.gen_range(0..10)),
            format!("{}", (year / 10) * 10),
        ]);
    }

    let table = Table::new(
        "Billionaire",
        COLUMNS.iter().map(|s| s.to_string()).collect(),
        rows,
    )
    .expect("generated rows match the schema");

    let metadata = DatasetMetadata {
        fds: vec![
            FunctionalDependency::new("name", "gender"),
            FunctionalDependency::new("name", "citizenship"),
            FunctionalDependency::new("country", "region"),
            FunctionalDependency::new("country", "capital"),
            FunctionalDependency::new("company_name", "industry"),
            FunctionalDependency::new("company_name", "company_founded"),
        ],
        patterns: vec![
            ColumnPattern::new("rank", PatternKind::IntRange { min: 1, max: 2000 }),
            ColumnPattern::new(
                "year",
                PatternKind::IntRange {
                    min: 1990,
                    max: 2030,
                },
            ),
            ColumnPattern::new("age", PatternKind::IntRange { min: 18, max: 110 }),
            ColumnPattern::new(
                "networth_billions",
                PatternKind::FloatRange {
                    min: 0.5,
                    max: 300.0,
                },
            ),
            ColumnPattern::new(
                "gender",
                PatternKind::OneOf(vec!["male".into(), "female".into()]),
            ),
            ColumnPattern::new(
                "industry",
                PatternKind::OneOf(vocab::INDUSTRIES.iter().map(|s| s.to_string()).collect()),
            ),
            ColumnPattern::new(
                "country",
                PatternKind::OneOf(vocab::COUNTRIES.iter().map(|s| s.to_string()).collect()),
            ),
            ColumnPattern::new(
                "company_founded",
                PatternKind::IntRange {
                    min: 1800,
                    max: 2025,
                },
            ),
        ],
        kb: vec![
            KnowledgeBaseEntry::domain("country", vocab::COUNTRIES.iter().map(|s| s.to_string())),
            KnowledgeBaseEntry::domain(
                "region",
                vocab::REGIONS_FOR_COUNTRIES.iter().map(|s| s.to_string()),
            ),
            KnowledgeBaseEntry::domain(
                "capital",
                vocab::CAPITALS_FOR_COUNTRIES.iter().map(|s| s.to_string()),
            ),
            KnowledgeBaseEntry::domain("industry", vocab::INDUSTRIES.iter().map(|s| s.to_string())),
        ],
        numeric_columns: vec![
            "networth_billions".into(),
            "age".into(),
            "gdp".into(),
            "rank".into(),
        ],
        text_columns: vec!["name".into(), "company_name".into(), "source".into()],
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
        let mut rng = ChaCha8Rng::seed_from_u64(10);
        let (table, meta) = clean(500, &mut rng);
        assert_eq!(table.n_rows(), 500);
        assert_eq!(table.n_cols(), 22);
        for fd in &meta.fds {
            assert_fd_holds(&table, &fd.determinant, &fd.dependent);
        }
    }

    #[test]
    fn patterns_hold_on_clean_data() {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
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
}
