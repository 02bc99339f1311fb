//! The Hospital benchmark: US hospital quality measures.
//!
//! Schema (20 attributes, as in the original Hospital benchmark): provider
//! number, hospital identity (name, address, city, state, zip, county, phone),
//! facility descriptors, and quality-measure fields (condition, measure code,
//! measure name, score, sample, state average). Hospitals and measures are
//! entity pools, so several functional dependencies hold exactly:
//!
//! * `HospitalName → Address, City, State, ZipCode, CountyName, PhoneNumber`
//! * `MeasureCode → MeasureName, Condition`
//! * `City → State`
//! * `State, MeasureCode → StateAvg`

use super::skewed_index;
use crate::metadata::{
    ColumnPattern, DatasetMetadata, FunctionalDependency, KnowledgeBaseEntry, PatternKind,
};
use crate::vocab;
use rand::Rng;
use rand_chacha::ChaCha8Rng;
use zeroed_table::Table;

struct HospitalEntity {
    provider_number: String,
    name: String,
    address: String,
    city: String,
    state: String,
    zip: String,
    county: String,
    phone: String,
    hospital_type: String,
    owner: String,
    emergency: String,
}

struct MeasureEntity {
    code: String,
    name: String,
    condition: String,
}

/// Column names of the generated Hospital table.
pub const COLUMNS: [&str; 20] = [
    "ProviderNumber",
    "HospitalName",
    "Address1",
    "City",
    "State",
    "ZipCode",
    "CountyName",
    "PhoneNumber",
    "HospitalType",
    "HospitalOwner",
    "EmergencyService",
    "Condition",
    "MeasureCode",
    "MeasureName",
    "Score",
    "Sample",
    "StateAvg",
    "Stateavg2",
    "CertifiedBeds",
    "SurveyDate",
];

/// Generates a clean Hospital table with `n_rows` tuples.
pub fn clean(n_rows: usize, rng: &mut ChaCha8Rng) -> (Table, DatasetMetadata) {
    let n_hospitals = (n_rows / 12).clamp(6, 60);
    let hospitals: Vec<HospitalEntity> = (0..n_hospitals)
        .map(|i| {
            let city_idx = rng.gen_range(0..vocab::CITIES.len());
            let city = vocab::CITIES[city_idx];
            let state = vocab::STATES_FOR_CITIES[city_idx];
            let last = vocab::pick(vocab::LAST_NAMES, rng.gen_range(0..vocab::LAST_NAMES.len()));
            HospitalEntity {
                provider_number: format!("{:05}", 10000 + i * 7),
                name: format!("{last} {} medical center", city.to_lowercase()),
                address: format!(
                    "{} {}",
                    100 + rng.gen_range(0..900),
                    vocab::pick(vocab::STREETS, rng.gen_range(0..vocab::STREETS.len()))
                        .to_lowercase()
                ),
                city: city.to_lowercase(),
                state: state.to_lowercase(),
                zip: format!("{:05}", 10000 + city_idx * 137 + 11),
                county: format!("{} county", last.to_lowercase()),
                phone: format!(
                    "({:03}) {:03}-{:04}",
                    200 + city_idx,
                    300 + rng.gen_range(0..600),
                    1000 + rng.gen_range(0..9000)
                ),
                hospital_type: vocab::HOSPITAL_TYPES[rng.gen_range(0..vocab::HOSPITAL_TYPES.len())]
                    .to_string(),
                owner: vocab::HOSPITAL_OWNERS[rng.gen_range(0..vocab::HOSPITAL_OWNERS.len())]
                    .to_string(),
                emergency: if rng.gen_bool(0.8) { "yes" } else { "no" }.to_string(),
            }
        })
        .collect();

    let measures: Vec<MeasureEntity> = vocab::MEASURE_NAMES
        .iter()
        .enumerate()
        .map(|(i, (prefix, name))| {
            let condition = vocab::CONDITIONS
                .iter()
                .find(|(_, p)| p == prefix)
                .map(|(c, _)| *c)
                .unwrap_or("pneumonia");
            MeasureEntity {
                code: format!("{}-card-{}", prefix.to_lowercase(), i + 1),
                name: name.to_string(),
                condition: condition.to_string(),
            }
        })
        .collect();

    // Fixed per (state, measure) average so the FD State,MeasureCode → StateAvg holds.
    let state_avg = |state: &str, code: &str| -> String {
        let h = state
            .bytes()
            .chain(code.bytes())
            .fold(0u32, |acc, b| acc.wrapping_mul(31).wrapping_add(b as u32));
        format!("{}%", 60 + (h % 40))
    };

    let mut rows = Vec::with_capacity(n_rows);
    for _ in 0..n_rows {
        let h = &hospitals[skewed_index(rng, hospitals.len())];
        let m = &measures[rng.gen_range(0..measures.len())];
        let score = format!("{}%", 55 + rng.gen_range(0..45));
        let sample = format!("{} patients", 10 + rng.gen_range(0..400));
        let avg = state_avg(&h.state, &m.code);
        rows.push(vec![
            h.provider_number.clone(),
            h.name.clone(),
            h.address.clone(),
            h.city.clone(),
            h.state.clone(),
            h.zip.clone(),
            h.county.clone(),
            h.phone.clone(),
            h.hospital_type.clone(),
            h.owner.clone(),
            h.emergency.clone(),
            m.condition.clone(),
            m.code.clone(),
            m.name.clone(),
            score,
            sample,
            avg.clone(),
            avg,
            format!("{}", 50 + rng.gen_range(0..500)),
            super::format_iso_date(2011, 1 + rng.gen_range(0..12), 1 + rng.gen_range(0..28)),
        ]);
    }

    let table = Table::new(
        "Hospital",
        COLUMNS.iter().map(|s| s.to_string()).collect(),
        rows,
    )
    .expect("generated rows match the schema");

    let metadata = DatasetMetadata {
        fds: vec![
            FunctionalDependency::new("HospitalName", "Address1"),
            FunctionalDependency::new("HospitalName", "City"),
            FunctionalDependency::new("HospitalName", "State"),
            FunctionalDependency::new("HospitalName", "ZipCode"),
            FunctionalDependency::new("HospitalName", "CountyName"),
            FunctionalDependency::new("HospitalName", "PhoneNumber"),
            FunctionalDependency::new("MeasureCode", "MeasureName"),
            FunctionalDependency::new("MeasureCode", "Condition"),
            FunctionalDependency::new("City", "State"),
            FunctionalDependency::new("ZipCode", "City"),
        ],
        patterns: vec![
            ColumnPattern::new("ZipCode", PatternKind::ZipCode),
            ColumnPattern::new("PhoneNumber", PatternKind::Phone),
            ColumnPattern::new(
                "ProviderNumber",
                PatternKind::IntRange {
                    min: 10000,
                    max: 99999,
                },
            ),
            ColumnPattern::new("SurveyDate", PatternKind::IsoDate),
            ColumnPattern::new(
                "EmergencyService",
                PatternKind::OneOf(vec!["yes".into(), "no".into()]),
            ),
            ColumnPattern::new(
                "HospitalType",
                PatternKind::OneOf(
                    vocab::HOSPITAL_TYPES
                        .iter()
                        .map(|s| s.to_string())
                        .collect(),
                ),
            ),
            ColumnPattern::new("CertifiedBeds", PatternKind::IntRange { min: 1, max: 2000 }),
        ],
        kb: vec![
            KnowledgeBaseEntry::domain(
                "State",
                vocab::STATES_FOR_CITIES.iter().map(|s| s.to_lowercase()),
            ),
            KnowledgeBaseEntry::domain("City", vocab::CITIES.iter().map(|s| s.to_lowercase())),
            KnowledgeBaseEntry::domain(
                "Condition",
                vocab::CONDITIONS.iter().map(|(c, _)| c.to_string()),
            ),
        ],
        numeric_columns: vec!["CertifiedBeds".into(), "ProviderNumber".into()],
        text_columns: vec![
            "HospitalName".into(),
            "MeasureName".into(),
            "Address1".into(),
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
    fn generates_expected_shape_and_fds() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let (table, meta) = clean(400, &mut rng);
        assert_eq!(table.n_rows(), 400);
        assert_eq!(table.n_cols(), 20);
        for fd in &meta.fds {
            assert_fd_holds(&table, &fd.determinant, &fd.dependent);
        }
    }

    #[test]
    fn clean_values_match_patterns() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let (table, meta) = clean(200, &mut rng);
        for pat in &meta.patterns {
            let col = table.column_index(&pat.column).unwrap();
            for row in table.rows() {
                assert!(
                    pat.kind.matches(&row[col]),
                    "value {:?} violates pattern of {}",
                    row[col],
                    pat.column
                );
            }
        }
    }

    #[test]
    fn hospitals_repeat_for_frequency_signal() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let (table, _) = clean(300, &mut rng);
        let names = table.column_values(1).unwrap();
        let distinct: std::collections::HashSet<_> = names.iter().collect();
        assert!(distinct.len() < 80, "hospital entities should repeat");
    }
}
