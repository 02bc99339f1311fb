//! Differential-testing harness: the compiled criteria VM against the
//! AST-walking specification oracle.
//!
//! A seeded generator produces random [`Check`] trees and random tables —
//! including empty strings, unicode, near-numeric junk and FD determinants
//! the mapping has never seen — and every cell's VM verdict is asserted
//! bit-identical to [`Check::evaluate`]. On top of the per-cell sweep, the
//! compiled `verify` entry points (the `_dict` variants the pipeline runs)
//! are compared against their `verify::oracle` counterparts, and the
//! empty-set `1.0` conventions of `pass_rate` / `criterion_accuracy` are
//! pinned as properties on both paths.

use std::collections::{HashMap, HashSet};
use zeroed_criteria::dsl::{Check, CriteriaSet, Criterion};
use zeroed_criteria::vm::DistinctEval;
use zeroed_criteria::{compile_check, compile_set, verify, Program};
use zeroed_table::Table;

/// SplitMix64 — a tiny deterministic RNG, no external deps.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`.
    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }

    fn f64_small(&mut self) -> f64 {
        (self.next_u64() % 2_000) as f64 / 10.0 - 100.0
    }

    fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len())]
    }
}

/// Cell vocabulary stressing every check family: clean-looking values,
/// missing placeholders, unicode (multi-byte uppercase/lowercase, CJK),
/// near-numeric junk, currency/percent forms, whitespace oddities.
const VALUES: &[&str] = &[
    "",
    " ",
    "  NULL ",
    "n/a",
    "?",
    "-",
    "unknown",
    "35233",
    "90210",
    "9021",
    "90x10",
    "12a",
    "$1,200.50",
    "12%",
    "€7",
    "-3.5",
    "1e3",
    "NaN",
    "inf",
    "heart attack",
    "Heart  Attack",
    "surgical infection prevention",
    "pneumonia",
    "scip-card-2",
    "ami-card-3",
    "pn-card-5",
    "ZÜRICH",
    "zürich",
    "Ärzte 12",
    "東京",
    "naïve",
    "ß",
    "DOe123.",
    "a-b_c",
    "  x  ",
    "0",
    "00000",
    "MA",
    "ma ",
];

fn random_table(rng: &mut Rng, n_rows: usize, n_cols: usize) -> Table {
    let columns: Vec<String> = (0..n_cols).map(|j| format!("c{j}")).collect();
    let rows: Vec<Vec<String>> = (0..n_rows)
        .map(|_| (0..n_cols).map(|_| rng.pick(VALUES).to_string()).collect())
        .collect();
    Table::new("diff", columns, rows).unwrap()
}

fn random_string_set(rng: &mut Rng) -> HashSet<String> {
    (0..rng.below(5))
        .map(|_| rng.pick(VALUES).to_string())
        .collect()
}

fn random_check(rng: &mut Rng, n_cols: usize, col: usize) -> Check {
    match rng.below(9) {
        0 => Check::NotMissing,
        1 => Check::PatternTemplate {
            allowed: (0..rng.below(4))
                .map(|_| zeroed_criteria::l3_pattern(rng.pick::<&str>(VALUES)))
                .collect(),
        },
        2 => {
            let min = rng.below(6);
            Check::LengthRange {
                min,
                max: min + rng.below(8),
            }
        }
        3 => {
            let a = rng.f64_small();
            let b = rng.f64_small();
            Check::NumericRange {
                min: a.min(b),
                max: a.max(b),
            }
        }
        4 => Check::Domain {
            allowed: random_string_set(rng)
                .into_iter()
                .map(|s| s.trim().to_lowercase())
                .collect(),
        },
        5 => Check::Charset {
            letters: rng.below(2) == 0,
            digits: rng.below(2) == 0,
            whitespace: rng.below(2) == 0,
            symbols: (0..rng.below(4))
                .map(|_| *rng.pick(&['-', '.', '$', ',', '/', 'ü', '東']))
                .collect(),
        },
        6 => {
            let min = rng.below(3);
            Check::TokenCountRange {
                min,
                max: min + rng.below(4),
            }
        }
        7 => {
            // Determinants deliberately include values absent from the
            // tables (unknown determinants must pass) and near-collisions.
            let mut mapping = HashMap::new();
            for _ in 0..rng.below(6) {
                mapping.insert(
                    rng.pick(VALUES).trim().to_lowercase(),
                    rng.pick(VALUES).trim().to_lowercase(),
                );
            }
            mapping.insert("never-seen-determinant".to_string(), "x".to_string());
            let mut determinant_col = rng.below(n_cols);
            if determinant_col == col {
                determinant_col = (determinant_col + 1) % n_cols;
            }
            Check::FdLookup {
                determinant_col,
                mapping,
            }
        }
        _ => {
            let mut other_col = rng.below(n_cols);
            if other_col == col {
                other_col = (other_col + 1) % n_cols;
            }
            Check::CrossKeyword {
                other_col,
                pairs: (0..rng.below(4) + 1)
                    .map(|_| {
                        (
                            rng.pick(VALUES).to_lowercase(),
                            rng.pick(VALUES).to_lowercase(),
                        )
                    })
                    .collect(),
            }
        }
    }
}

fn random_set(rng: &mut Rng, n_cols: usize) -> CriteriaSet {
    let column = rng.below(n_cols);
    CriteriaSet {
        column,
        criteria: (0..rng.below(5) + 1)
            .map(|i| {
                Criterion::new(
                    format!("crit_{i}"),
                    "generated",
                    random_check(rng, n_cols, column),
                )
            })
            .collect(),
    }
}

fn assert_program_matches_oracle(check: &Check, program: &Program, table: &Table, col: usize) {
    for row in 0..table.n_rows() {
        let other = program
            .other_col
            .map(|c| table.cell(row, c as usize))
            .unwrap_or("");
        assert_eq!(
            program.eval(table.cell(row, col), other),
            check.evaluate(table, row, col),
            "VM diverged from oracle: row {row}, col {col}, check {check:?}, cell {:?}",
            table.cell(row, col),
        );
    }
}

#[test]
fn vm_is_bit_identical_to_the_ast_oracle_per_cell() {
    let mut rng = Rng::new(0x5EED_CAFE);
    for round in 0..60 {
        let n_cols = rng.below(3) + 2;
        let n_rows = rng.below(60) + 1;
        let table = random_table(&mut rng, n_rows, n_cols);
        for col in 0..n_cols {
            for _ in 0..4 {
                let check = random_check(&mut rng, n_cols, col);
                let program = compile_check(&check, col);
                assert_program_matches_oracle(&check, &program, &table, col);
                // Byte round-trip must preserve behaviour, not just equality.
                let reloaded = Program::from_bytes(&program.to_bytes()).unwrap();
                assert_program_matches_oracle(&check, &reloaded, &table, col);
                let _ = round;
            }
        }
    }
}

#[test]
fn columnar_distinct_eval_matches_the_per_cell_vm() {
    let mut rng = Rng::new(0xD157_1C01);
    for _ in 0..30 {
        let n_cols = rng.below(3) + 2;
        let n_rows = rng.below(200) + 1;
        let table = random_table(&mut rng, n_rows, n_cols);
        let dict = table.intern();
        let col = rng.below(n_cols);
        let check = random_check(&mut rng, n_cols, col);
        let program = compile_check(&check, col);
        let mut ev = DistinctEval::new(
            &program,
            dict.column(col),
            program.other_col.map(|c| dict.column(c as usize)),
        );
        let scattered = ev.eval_all_rows();
        assert_eq!(scattered.len(), n_rows);
        for (row, &got) in scattered.iter().enumerate() {
            assert_eq!(got, check.evaluate(&table, row, col), "row {row}");
        }
    }
}

/// The compiled criteria block equals the oracle's bit for bit, has the
/// flat row-major `n_rows × set.len()` shape (empty for an empty set), and
/// row `i` holds the `1.0`/`0.0` verdicts of `set.evaluate_cell(table, i)`.
fn assert_flat_block(block: &[f32], oracle: &[f32], set: &CriteriaSet, table: &Table) {
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(block), bits(oracle));
    let width = set.len();
    let n_rows = if width == 0 { 0 } else { table.n_rows() };
    assert_eq!(block.len(), n_rows * width);
    for row in 0..n_rows {
        let expected: Vec<f32> = set
            .evaluate_cell(table, row)
            .into_iter()
            .map(|b| if b { 1.0 } else { 0.0 })
            .collect();
        assert_eq!(
            bits(&block[row * width..][..width]),
            bits(&expected),
            "row {row}"
        );
    }
}

#[test]
fn verify_entry_points_match_their_oracles_bitwise() {
    let mut rng = Rng::new(0xFEED_F00D);
    for _ in 0..25 {
        let n_cols = rng.below(3) + 2;
        let n_rows = rng.below(80) + 1;
        let table = random_table(&mut rng, n_rows, n_cols);
        let dict = table.intern();
        let set = random_set(&mut rng, n_cols);
        let threshold = [0.0, 0.25, 0.5, 0.9, 1.0][rng.below(5)];
        let clean_rows: Vec<usize> = (0..n_rows).filter(|_| rng.below(3) != 0).collect();

        // criteria_features: the flat n_rows × set.len() block, bit for
        // bit, and each of its rows is that cell's `evaluate_cell` verdicts.
        let oracle = verify::oracle::criteria_features(&set, &table);
        assert_flat_block(
            &verify::criteria_features_dict(&set, &dict),
            &oracle,
            &set,
            &table,
        );

        // filter_criteria / filter_rows: the verdicts of criterion_accuracy
        // and pass_rate against the threshold, criterion by criterion and
        // row by row.
        let oracle_kept = verify::oracle::filter_criteria(&set, &table, &clean_rows, threshold);
        assert_eq!(
            verify::filter_criteria_dict(&set, &dict, &clean_rows, threshold),
            oracle_kept
        );
        let oracle_rows = verify::oracle::filter_rows(&oracle_kept, &table, &clean_rows, threshold);
        assert_eq!(
            verify::filter_rows_dict(&oracle_kept, &dict, &clean_rows, threshold),
            oracle_rows
        );
    }
}

#[test]
fn compiled_set_eval_cell_matches_the_dsl_everywhere() {
    let mut rng = Rng::new(0xABCD_1234);
    for _ in 0..20 {
        let n_cols = rng.below(3) + 2;
        let n_rows = rng.below(40) + 1;
        let table = random_table(&mut rng, n_rows, n_cols);
        let set = random_set(&mut rng, n_cols);
        let compiled = compile_set(&set);
        for row in 0..n_rows {
            assert_eq!(
                compiled.eval_cell(&table, row),
                set.evaluate_cell(&table, row)
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Property pins: the empty-set conventions are 1.0 on BOTH paths.
// ---------------------------------------------------------------------------

#[test]
fn empty_row_set_scores_accuracy_one_on_both_paths() {
    let mut rng = Rng::new(7);
    let table = random_table(&mut rng, 10, 2);
    let dict = table.intern();
    for _ in 0..20 {
        let check = random_check(&mut rng, 2, 0);
        let criterion = Criterion::new("c", "", check);
        assert_eq!(
            verify::oracle::criterion_accuracy(&criterion, &table, 0, &[]),
            1.0
        );
        // Accuracy 1.0 clears the strictest threshold on the compiled path.
        let set = CriteriaSet {
            column: 0,
            criteria: vec![criterion],
        };
        assert_eq!(verify::filter_criteria_dict(&set, &dict, &[], 1.0), set);
    }
}

#[test]
fn empty_criteria_set_scores_pass_rate_one_on_both_paths() {
    let mut rng = Rng::new(8);
    let table = random_table(&mut rng, 10, 2);
    let dict = table.intern();
    let empty = CriteriaSet::new(0);
    for row in 0..table.n_rows() {
        assert_eq!(verify::oracle::pass_rate(&empty, &table, row), 1.0);
    }
    // And the conventions compose: an empty set keeps every row through
    // filter_rows at any threshold ≤ 1.0 and drops all above — identically.
    let rows: Vec<usize> = (0..10).collect();
    for threshold in [0.0, 0.5, 1.0, 1.5] {
        let kept = verify::filter_rows_dict(&empty, &dict, &rows, threshold);
        assert_eq!(
            kept,
            verify::oracle::filter_rows(&empty, &table, &rows, threshold)
        );
        assert_eq!(kept.len(), if threshold <= 1.0 { rows.len() } else { 0 });
    }
}

#[test]
fn empty_tables_are_handled_identically() {
    let table = Table::empty("e", vec!["a".into(), "b".into()]);
    let dict = table.intern();
    let mut rng = Rng::new(9);
    let set = random_set(&mut rng, 2);
    assert_flat_block(
        &verify::criteria_features_dict(&set, &dict),
        &verify::oracle::criteria_features(&set, &table),
        &set,
        &table,
    );
    assert_eq!(
        verify::filter_rows_dict(&set, &dict, &[], 0.5),
        Vec::<usize>::new()
    );
}
