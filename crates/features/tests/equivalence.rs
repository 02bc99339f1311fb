//! Equivalence property tests: the interned/cached fast path must produce
//! **bit-identical** feature output to the seed per-cell implementation
//! preserved in `zeroed_features::reference`.
//!
//! Random tables are drawn duplicate-heavy (small value pools, so codes
//! repeat) with occasional missing placeholders and unicode, then compared
//! across feature configurations — including `value_override` cells that are
//! *not* in the dictionary and `extra_override` criteria blocks.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use zeroed_features::reference::{
    base_row_reference, build_all_reference, unified_row_reference,
};
use zeroed_features::{FeatureBuilder, FeatureConfig};
use zeroed_table::Table;

/// A random table with duplicate-heavy columns: each column draws from a pool
/// of `pool_size` values, some of which are missing placeholders.
fn random_table(rng: &mut ChaCha8Rng, n_rows: usize, n_cols: usize, pool_size: usize) -> Table {
    let pools: Vec<Vec<String>> = (0..n_cols)
        .map(|j| {
            (0..pool_size)
                .map(|v| match rng.gen_range(0..10u8) {
                    0 => String::new(),
                    1 => "N/A".to_string(),
                    2 => format!("Wörd-{j}-{v} Münich"),
                    3 => format!("({v:03}) 555-01{j:02}"),
                    _ => format!("value {j}-{v}"),
                })
                .collect()
        })
        .collect();
    let rows: Vec<Vec<String>> = (0..n_rows)
        .map(|_| {
            (0..n_cols)
                .map(|j| pools[j][rng.gen_range(0..pool_size)].clone())
                .collect()
        })
        .collect();
    let columns: Vec<String> = (0..n_cols).map(|j| format!("c{j}")).collect();
    Table::new("equiv", columns, rows).unwrap()
}

fn configs() -> Vec<FeatureConfig> {
    vec![
        FeatureConfig {
            embed_dim: 8,
            top_k_corr: 2,
            ..FeatureConfig::default()
        },
        FeatureConfig {
            embed_dim: 6,
            top_k_corr: 1,
            include_semantic: false,
            ..FeatureConfig::default()
        },
        FeatureConfig {
            embed_dim: 5,
            top_k_corr: 0,
            include_stats: false,
            ..FeatureConfig::default()
        },
        FeatureConfig {
            embed_dim: 4,
            top_k_corr: 2,
            include_stats: false,
            include_semantic: false,
            ..FeatureConfig::default()
        },
        // The embedder clamps a zero dimension to one.
        FeatureConfig {
            embed_dim: 0,
            top_k_corr: 1,
            ..FeatureConfig::default()
        },
    ]
}

#[test]
fn build_all_is_bit_identical_to_reference() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xB1DE);
    for case in 0..8 {
        let n_rows = rng.gen_range(20..120usize);
        let n_cols = rng.gen_range(2..5usize);
        let pool = rng.gen_range(3..12usize);
        let table = random_table(&mut rng, n_rows, n_cols, pool);
        for (ci, config) in configs().into_iter().enumerate() {
            let builder = FeatureBuilder::new(config);
            let fitted = builder.fit(&table, &[]);
            let fast = fitted.build_all();
            let naive = build_all_reference(&fitted);
            for j in 0..n_cols {
                assert_eq!(
                    fast.base[j], naive.base[j],
                    "case {case} config {ci}: base matrix of column {j} diverged"
                );
                assert_eq!(
                    fast.unified[j], naive.unified[j],
                    "case {case} config {ci}: unified matrix of column {j} diverged"
                );
                assert_eq!(
                    fitted.unified_matrix(j),
                    naive.unified[j],
                    "case {case} config {ci}: streamed unified matrix of column {j} diverged"
                );
            }
            assert_eq!(fast.correlated, naive.correlated);
        }
    }
}

#[test]
fn build_all_with_extra_blocks_is_bit_identical() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xE74A);
    for _case in 0..4 {
        let n_rows = rng.gen_range(30..80usize);
        let table = random_table(&mut rng, n_rows, 3, 6);
        // Criteria indicators on columns 0 and 2 (column 1 has none).
        let extra: Vec<Vec<Vec<f32>>> = vec![
            (0..n_rows)
                .map(|_| vec![f32::from(rng.gen_bool(0.5)), f32::from(rng.gen_bool(0.2))])
                .collect(),
            Vec::new(),
            (0..n_rows).map(|_| vec![f32::from(rng.gen_bool(0.8))]).collect(),
        ];
        let extra_configs = std::iter::once(FeatureConfig {
            embed_dim: 7,
            top_k_corr: 2,
            ..FeatureConfig::default()
        })
        .chain(configs());
        for (ci, config) in extra_configs.enumerate() {
            let builder = FeatureBuilder::new(config);
            let fitted = builder.fit(&table, &extra);
            let fast = fitted.build_all();
            let naive = build_all_reference(&fitted);
            for j in 0..3 {
                assert_eq!(fast.base[j], naive.base[j], "config {ci}: base matrix of column {j}");
                assert_eq!(
                    fast.unified[j], naive.unified[j],
                    "config {ci}: unified matrix of column {j}"
                );
                assert_eq!(
                    fitted.unified_matrix(j),
                    naive.unified[j],
                    "config {ci}: streamed unified matrix of column {j}"
                );
            }
        }
    }
}

#[test]
fn single_cell_rows_match_reference_including_overrides() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x0CE1);
    let n_rows = 60;
    let table = random_table(&mut rng, n_rows, 3, 5);
    for config in configs() {
        let builder = FeatureBuilder::new(config);
        let fitted = builder.fit(&table, &[]);
        for _ in 0..40 {
            let row = rng.gen_range(0..n_rows);
            let col = rng.gen_range(0..3usize);
            assert_eq!(
                fitted.base_row(row, col, None, None),
                base_row_reference(&fitted, row, col, None, None),
                "plain base cell ({row}, {col})"
            );
            assert_eq!(
                fitted.unified_row(row, col, None, None),
                unified_row_reference(&fitted, row, col, None, None),
                "plain unified cell ({row}, {col})"
            );
            // Overrides: a value that is NOT in the dictionary, a value that
            // IS (another cell of the same column), and an extra block.
            let unseen = format!("unseen-{}", rng.gen_range(0..1_000_000u32));
            assert!(fitted.dict().column(col).lookup(&unseen).is_none());
            assert_eq!(
                fitted.unified_row(row, col, Some(&unseen), None),
                unified_row_reference(&fitted, row, col, Some(&unseen), None),
                "unseen override at ({row}, {col})"
            );
            let other_value = table.cell(rng.gen_range(0..n_rows), col).to_string();
            assert_eq!(
                fitted.unified_row(row, col, Some(&other_value), None),
                unified_row_reference(&fitted, row, col, Some(&other_value), None),
                "in-dictionary override at ({row}, {col})"
            );
            let extra_block = [1.0f32, 0.0];
            assert_eq!(
                fitted.unified_row(row, col, Some(&unseen), Some(&extra_block)),
                unified_row_reference(&fitted, row, col, Some(&unseen), Some(&extra_block)),
                "override with extra block at ({row}, {col})"
            );
        }
    }
}

#[test]
fn empty_and_constant_tables_match_reference() {
    let empty = Table::empty("e", vec!["a".into(), "b".into()]);
    let constant = Table::new(
        "c",
        vec!["a".into(), "b".into()],
        (0..10).map(|_| vec!["same".to_string(), "same".into()]).collect(),
    )
    .unwrap();
    for table in [&empty, &constant] {
        let builder = FeatureBuilder::new(FeatureConfig {
            embed_dim: 4,
            top_k_corr: 1,
            ..FeatureConfig::default()
        });
        let fitted = builder.fit(table, &[]);
        let fast = fitted.build_all();
        let naive = build_all_reference(&fitted);
        for j in 0..table.n_cols() {
            assert_eq!(fast.base[j], naive.base[j], "{} base col {j}", table.name());
            assert_eq!(fast.unified[j], naive.unified[j], "{} unified col {j}", table.name());
            let streamed = fitted.unified_matrix(j);
            assert_eq!(streamed, naive.unified[j], "{} streamed col {j}", table.name());
            if table.n_rows() == 0 {
                assert_eq!((streamed.n_rows(), streamed.n_cols()), (0, 0));
            }
        }
    }
}
