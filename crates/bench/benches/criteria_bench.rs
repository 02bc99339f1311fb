//! Criteria evaluation cost: compiled VM vs AST oracle (features §III-B,
//! Algorithm 1 verification §III-D).
//!
//! The compiled path's advantage scales with value duplication — programs
//! evaluate once per *distinct* code and scatter by the interned column's
//! codes — so the tables here sweep cardinality: `u` distinct values spread
//! over `n` rows, the shape real per-attribute columns take.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use std::collections::HashSet;
use zeroed_criteria::dsl::{Check, CriteriaSet, Criterion as Crit};
use zeroed_criteria::{compile_set, verify};
use zeroed_table::Table;

/// `n`-row, two-column table with `u` distinct values in column 0 (the
/// checked attribute) and `u / 4 + 1` in column 1 (the cross-check column).
fn synthetic(n: usize, u: usize) -> Table {
    let rows: Vec<Vec<String>> = (0..n)
        .map(|i| {
            let v = (i * 7 + i / 11) % u;
            vec![format!("val-{v:05}"), format!("det-{:04}", v % (u / 4 + 1))]
        })
        .collect();
    Table::new("bench", vec!["a".into(), "det".into()], rows).unwrap()
}

/// A representative per-attribute criteria set: one cheap check, one
/// string-heavy check, one numeric check, and one cross-column check.
fn criteria() -> CriteriaSet {
    CriteriaSet {
        column: 0,
        criteria: vec![
            Crit::new("present", "", Check::NotMissing),
            Crit::new(
                "shape",
                "",
                Check::PatternTemplate {
                    allowed: HashSet::from(["u[3]S[1]D[5]".to_string()]),
                },
            ),
            Crit::new("len", "", Check::LengthRange { min: 6, max: 12 }),
            Crit::new(
                "paired",
                "",
                Check::CrossKeyword {
                    other_col: 1,
                    pairs: vec![("det-0001".into(), "val-".into())],
                },
            ),
        ],
    }
}

fn bench_criteria_features(c: &mut Criterion) {
    let mut group = c.benchmark_group("criteria_features");
    let set = criteria();
    for &(n, u) in &[(10_000usize, 60usize), (50_000, 300)] {
        let table = synthetic(n, u);
        let dict = table.intern();
        group.bench_with_input(BenchmarkId::new("ast_oracle", n), &table, |b, table| {
            b.iter(|| black_box(verify::oracle::criteria_features(&set, table)))
        });
        group.bench_with_input(BenchmarkId::new("compiled_vm", n), &dict, |b, dict| {
            b.iter(|| black_box(verify::criteria_features_dict(&set, dict)))
        });
    }
    group.finish();
}

fn bench_verification(c: &mut Criterion) {
    let mut group = c.benchmark_group("criteria_verify");
    let set = criteria();
    let table = synthetic(50_000, 300);
    let dict = table.intern();
    let check_rows: Vec<usize> = (0..500).collect();
    group.bench_with_input(BenchmarkId::new("ast_oracle", 500), &table, |b, table| {
        b.iter(|| {
            let kept = verify::oracle::filter_criteria(&set, table, &check_rows, 0.5);
            black_box(verify::oracle::filter_rows(&kept, table, &check_rows, 0.5))
        })
    });
    group.bench_with_input(BenchmarkId::new("compiled_vm", 500), &dict, |b, dict| {
        b.iter(|| {
            let kept = verify::filter_criteria_dict(&set, dict, &check_rows, 0.5);
            black_box(verify::filter_rows_dict(&kept, dict, &check_rows, 0.5))
        })
    });
    group.finish();
}

fn bench_compile(c: &mut Criterion) {
    let mut group = c.benchmark_group("criteria_compile");
    let set = criteria();
    group.bench_with_input(
        BenchmarkId::new("compile_set", set.len()),
        &set,
        |b, set| b.iter(|| black_box(compile_set(set))),
    );
    let programs = compile_set(&set);
    group.bench_with_input(
        BenchmarkId::new("roundtrip_bytes", set.len()),
        &programs,
        |b, compiled| {
            b.iter(|| {
                for p in &compiled.programs {
                    let bytes = p.to_bytes();
                    black_box(zeroed_criteria::Program::from_bytes(&bytes).unwrap());
                }
            })
        },
    );
    group.finish();
}

criterion_group!(
    benches,
    bench_criteria_features,
    bench_verification,
    bench_compile
);
criterion_main!(benches);
