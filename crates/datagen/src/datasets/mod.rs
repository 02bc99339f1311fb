//! Clean-data generators for the seven benchmark datasets of the paper.
//!
//! Each submodule exposes `clean(n_rows, rng) -> (Table, DatasetMetadata)`.
//! The generated tables are *clean*: functional dependencies hold exactly,
//! every value matches its column pattern, and numeric columns stay inside
//! their declared ranges. Errors are injected afterwards by
//! [`crate::inject::Injector`].

pub mod beers;
pub mod billionaire;
pub mod flights;
pub mod hospital;
pub mod movies;
pub mod rayyan;
pub mod tax;
pub mod workloads;

use rand::Rng;
use rand_chacha::ChaCha8Rng;

/// Draws an index with a skewed (roughly Zipfian) distribution so that some
/// entities occur much more frequently than others, which is what gives the
/// value/vicinity frequency features of ZeroED their signal.
pub(crate) fn skewed_index(rng: &mut ChaCha8Rng, n: usize) -> usize {
    debug_assert!(n > 0);
    // Square a uniform draw: small indices become much more likely.
    let u: f64 = rng.gen::<f64>();
    let idx = (u * u * n as f64) as usize;
    idx.min(n - 1)
}

/// Formats a 12-hour clock time from minutes-past-midnight.
pub(crate) fn format_time_12h(total_minutes: u32) -> String {
    let minutes = total_minutes % (24 * 60);
    let hour24 = minutes / 60;
    let minute = minutes % 60;
    let (hour12, ampm) = match hour24 {
        0 => (12, "am"),
        1..=11 => (hour24, "am"),
        12 => (12, "pm"),
        _ => (hour24 - 12, "pm"),
    };
    format!("{hour12}:{minute:02} {ampm}")
}

/// Formats an ISO date from a year and day-of-year-ish pair.
pub(crate) fn format_iso_date(year: u32, month: u32, day: u32) -> String {
    format!("{year:04}-{month:02}-{day:02}")
}

#[cfg(test)]
pub(crate) mod testutil {
    use std::collections::HashMap;
    use zeroed_table::Table;

    /// Asserts that the functional dependency `det → dep` holds on the table.
    pub fn assert_fd_holds(table: &Table, det: &str, dep: &str) {
        let di = table
            .column_index(det)
            .unwrap_or_else(|| panic!("no col {det}"));
        let pi = table
            .column_index(dep)
            .unwrap_or_else(|| panic!("no col {dep}"));
        let mut seen: HashMap<&str, &str> = HashMap::new();
        for row in table.rows() {
            let d = row[di].as_str();
            let p = row[pi].as_str();
            if let Some(prev) = seen.get(d) {
                assert_eq!(
                    *prev, p,
                    "FD {det} -> {dep} violated for determinant {d:?}: {prev:?} vs {p:?}"
                );
            } else {
                seen.insert(d, p);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn skewed_index_stays_in_bounds_and_skews_low() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let n = 50;
        let mut counts = vec![0usize; n];
        for _ in 0..5000 {
            let i = skewed_index(&mut rng, n);
            assert!(i < n);
            counts[i] += 1;
        }
        let low: usize = counts[..10].iter().sum();
        let high: usize = counts[40..].iter().sum();
        assert!(low > high * 2, "low {low} vs high {high}");
    }

    #[test]
    fn time_formatting() {
        assert_eq!(format_time_12h(0), "12:00 am");
        assert_eq!(format_time_12h(7 * 60 + 45), "7:45 am");
        assert_eq!(format_time_12h(12 * 60 + 5), "12:05 pm");
        assert_eq!(format_time_12h(23 * 60 + 59), "11:59 pm");
    }

    #[test]
    fn date_formatting() {
        assert_eq!(format_iso_date(2015, 4, 3), "2015-04-03");
    }
}
