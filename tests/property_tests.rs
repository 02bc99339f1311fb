//! Property-based tests over the core data structures and invariants that the
//! pipeline relies on.
//!
//! The build environment is offline, so instead of `proptest` these use a
//! small hand-rolled generator loop: each property runs over a fixed number of
//! seeded random cases (deterministic across runs) drawn from the same
//! distributions the original proptest strategies described.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use zeroed::criteria::{Check, CriteriaSet, Criterion};
use zeroed::features::{generalize, normalized_mutual_information, HashEmbedder, Level};
use zeroed::ml::{Mlp, MlpConfig, StandardScaler};
use zeroed::prelude::*;
use zeroed::table::csv::{parse_csv, to_csv};
use zeroed::table::value::edit_distance;

/// A random printable-ASCII cell value of length 0..=24 (mirrors the original
/// `[ -~]{0,24}` strategy).
fn cell_value(rng: &mut ChaCha8Rng) -> String {
    let len = rng.gen_range(0..=24usize);
    (0..len)
        .map(|_| char::from(rng.gen_range(0x20u8..=0x7e)))
        .collect()
}

/// CSV serialisation round-trips arbitrary printable cell values.
#[test]
fn csv_round_trip() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xC5F);
    for _case in 0..64 {
        let n_rows = rng.gen_range(1..12usize);
        let rows: Vec<Vec<String>> = (0..n_rows)
            .map(|_| (0..3).map(|_| cell_value(&mut rng)).collect())
            .collect();
        let table = Table::new("prop", vec!["a".into(), "b".into(), "c".into()], rows).unwrap();
        let text = to_csv(&table);
        let back = parse_csv("prop", &text).unwrap();
        assert_eq!(table, back);
    }
}

/// Pattern generalisation is deterministic, and values with identical
/// character-class structure share a pattern.
#[test]
fn pattern_generalisation_is_stable() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x9A7);
    for _case in 0..64 {
        let value = cell_value(&mut rng);
        for level in Level::ALL {
            assert_eq!(generalize(&value, level), generalize(&value, level));
        }
        // L2 ignores case, so a case change never alters the L2 pattern.
        let upper = value.to_uppercase();
        assert_eq!(
            generalize(&value, Level::L2),
            generalize(&upper, Level::L2),
            "value {value:?}"
        );
    }
}

/// Embeddings are unit-length (or zero for missing values) and identical
/// strings embed identically.
#[test]
fn embeddings_are_normalised() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xE3B);
    let embedder = HashEmbedder::new(16);
    for _case in 0..64 {
        let value = cell_value(&mut rng);
        let v = embedder.embed(&value);
        assert_eq!(v.len(), 16);
        let norm: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
        assert!(norm < 1.0 + 1e-4, "norm {norm} for {value:?}");
        assert!(
            norm.abs() < 1e-6 || (norm - 1.0).abs() < 1e-4,
            "norm {norm} for {value:?}"
        );
        assert_eq!(embedder.embed(&value), v);
    }
}

/// NMI is symmetric and bounded in [0, 1]; a column is maximally informative
/// about itself whenever it is not constant.
#[test]
fn nmi_symmetry_and_bounds() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x217);
    for _case in 0..64 {
        let n = rng.gen_range(10..80usize);
        let values: Vec<u8> = (0..n).map(|_| rng.gen_range(0u8..5)).collect();
        let xs: Vec<String> = values.iter().map(|v| format!("x{v}")).collect();
        let ys: Vec<String> = values.iter().map(|v| format!("y{}", v % 3)).collect();
        let xr: Vec<&str> = xs.iter().map(|s| s.as_str()).collect();
        let yr: Vec<&str> = ys.iter().map(|s| s.as_str()).collect();
        let ab = normalized_mutual_information(&xr, &yr);
        let ba = normalized_mutual_information(&yr, &xr);
        assert!((ab - ba).abs() < 1e-9);
        assert!((0.0..=1.0).contains(&ab));
        let distinct: std::collections::HashSet<&u8> = values.iter().collect();
        if distinct.len() > 1 {
            let self_nmi = normalized_mutual_information(&xr, &xr);
            assert!((self_nmi - 1.0).abs() < 1e-9);
        }
    }
}

/// Edit distance is metric-ish: symmetric, zero iff equal, bounded by the
/// longer string length.
#[test]
fn edit_distance_properties() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xED1);
    for _case in 0..64 {
        let a = cell_value(&mut rng);
        let b = cell_value(&mut rng);
        let d_ab = edit_distance(&a, &b);
        let d_ba = edit_distance(&b, &a);
        assert_eq!(d_ab, d_ba);
        assert_eq!(d_ab == 0, a == b);
        assert!(d_ab <= a.chars().count().max(b.chars().count()));
    }
}

/// Error masks computed by diff always agree with manual comparison and the
/// error count never exceeds the number of cells.
#[test]
fn error_mask_diff_is_consistent() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xD1F);
    for _case in 0..64 {
        let n = rng.gen_range(4..40usize);
        let values: Vec<String> = (0..n).map(|_| cell_value(&mut rng)).collect();
        let flips: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.5)).collect();
        let clean_rows: Vec<Vec<String>> = values.iter().map(|v| vec![v.clone()]).collect();
        let clean = Table::new("c", vec!["v".into()], clean_rows).unwrap();
        let mut dirty = clean.clone();
        let mut expected = 0;
        for (i, &flip) in flips.iter().enumerate() {
            if flip {
                let new_value = format!("{}~corrupt", clean.cell(i, 0));
                dirty.set(i, 0, new_value).unwrap();
                expected += 1;
            }
        }
        let mask = ErrorMask::diff(&dirty, &clean).unwrap();
        assert_eq!(mask.error_count(), expected);
        assert!(mask.error_rate() <= 1.0);
    }
}

/// The criteria executor is total: it never panics on arbitrary values and
/// always returns one verdict per criterion.
#[test]
fn criteria_executor_is_total() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xC21);
    for _case in 0..64 {
        let value = cell_value(&mut rng);
        let other = cell_value(&mut rng);
        let table =
            Table::new("t", vec!["a".into(), "b".into()], vec![vec![value, other]]).unwrap();
        let set = CriteriaSet {
            column: 0,
            criteria: vec![
                Criterion::new("nm", "", Check::NotMissing),
                Criterion::new("len", "", Check::LengthRange { min: 1, max: 10 }),
                Criterion::new(
                    "num",
                    "",
                    Check::NumericRange {
                        min: 0.0,
                        max: 100.0,
                    },
                ),
                Criterion::new("tok", "", Check::TokenCountRange { min: 1, max: 5 }),
                Criterion::new(
                    "charset",
                    "",
                    Check::Charset {
                        letters: true,
                        digits: true,
                        whitespace: true,
                        symbols: vec!['-', '.'],
                    },
                ),
            ],
        };
        let verdicts = set.evaluate_cell(&table, 0);
        assert_eq!(verdicts.len(), 5);
    }
}

/// Detection metrics satisfy their algebraic identities.
#[test]
fn detection_report_identities() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xDE7);
    for _case in 0..64 {
        let tp = rng.gen_range(0usize..50);
        let fp = rng.gen_range(0usize..50);
        let fn_ = rng.gen_range(0usize..50);
        let tn = rng.gen_range(0usize..50);
        let r = DetectionReport::from_counts(tp, fp, fn_, tn);
        assert_eq!(r.total_cells(), tp + fp + fn_ + tn);
        assert!((0.0..=1.0).contains(&r.precision));
        assert!((0.0..=1.0).contains(&r.recall));
        assert!((0.0..=1.0).contains(&r.f1));
        if r.precision > 0.0 && r.recall > 0.0 {
            let expected = 2.0 * r.precision * r.recall / (r.precision + r.recall);
            assert!((r.f1 - expected).abs() < 1e-9);
        }
    }
}

/// The error injector never corrupts more cells than requested, never changes
/// the table shape, and its mask always equals the dirty/clean diff.
#[test]
fn injector_respects_budget() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x1B9);
    for _case in 0..16 {
        let seed = rng.gen_range(0u64..500);
        let rate = rng.gen_range(0.0f64..0.15);
        let ds = generate(
            DatasetSpec::Beers,
            &GenerateOptions {
                n_rows: 120,
                seed,
                error_spec: Some(ErrorSpec::new(
                    rate / 5.0,
                    rate / 5.0,
                    rate / 5.0,
                    rate / 5.0,
                    rate / 5.0,
                )),
            },
        );
        assert_eq!(ds.dirty.n_rows(), ds.clean.n_rows());
        assert_eq!(ds.dirty.n_cols(), ds.clean.n_cols());
        let budget = (rate * ds.dirty.n_cells() as f64).ceil() as usize + 5;
        assert!(ds.mask.error_count() <= budget);
        let diff = ErrorMask::diff(&ds.dirty, &ds.clean).unwrap();
        assert_eq!(diff, ds.mask);
    }
}

/// Standardised features keep their dimensionality and the MLP always outputs
/// probabilities in [0, 1].
#[test]
fn scaler_and_mlp_are_well_behaved() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x5CA);
    for _case in 0..16 {
        let n = rng.gen_range(8..40usize);
        let rows: Vec<Vec<f32>> = (0..n)
            .map(|_| (0..4).map(|_| rng.gen_range(-100.0f32..100.0)).collect())
            .collect();
        let refs: Vec<&[f32]> = rows.iter().map(|r| r.as_slice()).collect();
        let scaler = StandardScaler::fit(&refs);
        for row in &refs {
            assert_eq!(scaler.transform(row).len(), 4);
        }
        let labels: Vec<f32> = rows
            .iter()
            .map(|r| if r[0] > 0.0 { 1.0 } else { 0.0 })
            .collect();
        let mlp = Mlp::fit(
            &refs,
            &labels,
            &MlpConfig {
                epochs: 3,
                hidden: 8,
                ..MlpConfig::default()
            },
        );
        for row in &refs {
            let p = mlp.predict_proba(row);
            assert!((0.0..=1.0).contains(&p));
        }
    }
}
