//! The register-free stack VM that evaluates compiled criteria programs.
//!
//! Two layers live here:
//!
//! * [`Program::eval`] — the instruction interpreter: one program, one
//!   `(this, other)` value pair, a boolean stack. It reuses the exact cell
//!   helpers the AST oracle calls (`zeroed_table::value::{is_missing,
//!   parse_numeric, tokenize}` and [`crate::dsl::l3_pattern`]), so a single
//!   evaluation is semantics-identical to [`crate::dsl::Check::evaluate`] by
//!   construction; the differential suite holds it to *bit*-identical.
//! * [`DistinctEval`] — the columnar driver: criteria are pure functions of
//!   the cell *value*, so over a [`ColumnDict`] a program only ever needs to
//!   run once per **distinct code** (or distinct `(this_code, other_code)`
//!   pair for cross-column programs) and the result is scattered back to rows
//!   by code, exactly like `FittedFeatures::build_all` scatters per-distinct
//!   feature blocks. On repeated-value-heavy real tables this collapses the
//!   dominant cost of [`crate::criteria_features_dict`] and Algorithm-1
//!   verification ([`crate::filter_criteria_dict`],
//!   [`crate::filter_rows_dict`]) from
//!   `O(rows × criteria)` AST walks to `O(distinct × criteria)` program runs
//!   plus a code-indexed copy.
//!
//! Full-table scatters run in fixed-size row chunks ([`ROW_CHUNK`]): one
//! program is driven across one (column × row-chunk) block at a time, which
//! keeps the per-distinct result vector hot in cache while rows stream.

use crate::compile::{CompiledSet, Op, Program};
use std::collections::HashMap;
use zeroed_table::intern::ColumnDict;
use zeroed_table::value::{is_missing, parse_numeric, tokenize};
use zeroed_table::Table;

/// Rows scattered per (program × chunk) block in [`DistinctEval::eval_all_rows`].
pub const ROW_CHUNK: usize = 4096;

#[inline]
fn imm_u32(code: &[u8], pc: &mut usize) -> u32 {
    let v = u32::from_le_bytes(code[*pc..*pc + 4].try_into().unwrap());
    *pc += 4;
    v
}

#[inline]
fn imm_u64(code: &[u8], pc: &mut usize) -> u64 {
    let v = u64::from_le_bytes(code[*pc..*pc + 8].try_into().unwrap());
    *pc += 8;
    v
}

impl Program {
    /// Runs the program on one value pair: `this` is the cell of the
    /// program's own column, `other` the cell of [`Program::other_col`]
    /// (pass `""` for single-column programs — they never read it).
    ///
    /// Total like the oracle: malformed values simply fail their checks, the
    /// stack never underflows on compiler-produced programs, and an empty
    /// program yields `true`.
    pub fn eval(&self, this: &str, other: &str) -> bool {
        let code = &self.code;
        let mut stack: Vec<bool> = Vec::with_capacity(4);
        // `ThisContains`/`OtherContains` operate on the untrimmed lowercase
        // forms (the oracle lowers once per CrossKeyword evaluation); compute
        // them lazily so single-op programs never allocate here.
        let mut this_lower: Option<String> = None;
        let mut other_lower: Option<String> = None;
        let mut pc = 0usize;
        while pc < code.len() {
            let op = Op::from_byte(code[pc]).expect("compiler-produced opcode");
            pc += 1;
            match op {
                Op::NotMissing => stack.push(!is_missing(this)),
                Op::PatternIn => {
                    let set = &self.pool.str_sets[imm_u32(code, &mut pc) as usize];
                    let pattern = crate::dsl::l3_pattern(this);
                    stack.push(set.binary_search(&pattern).is_ok());
                }
                Op::LenInRange => {
                    let min = imm_u64(code, &mut pc);
                    let max = imm_u64(code, &mut pc);
                    let len = this.chars().count() as u64;
                    stack.push(len >= min && len <= max);
                }
                Op::NumInRange => {
                    let lo = self.pool.f64s[imm_u32(code, &mut pc) as usize];
                    let hi = self.pool.f64s[imm_u32(code, &mut pc) as usize];
                    stack.push(
                        parse_numeric(this)
                            .map(|x| x >= lo && x <= hi)
                            .unwrap_or(false),
                    );
                }
                Op::DomainIn => {
                    let set = &self.pool.str_sets[imm_u32(code, &mut pc) as usize];
                    let key = this.trim().to_lowercase();
                    stack.push(set.binary_search(&key).is_ok());
                }
                Op::CharsetOk => {
                    let cs = &self.pool.charsets[imm_u32(code, &mut pc) as usize];
                    stack.push(this.chars().all(|c| cs.allows(c)));
                }
                Op::TokensInRange => {
                    let min = imm_u64(code, &mut pc);
                    let max = imm_u64(code, &mut pc);
                    let n = tokenize(this).len() as u64;
                    stack.push(n >= min && n <= max);
                }
                Op::FdConsistent => {
                    let map = &self.pool.fd_maps[imm_u32(code, &mut pc) as usize];
                    let det = other.trim().to_lowercase();
                    let verdict = match map.binary_search_by(|(k, _)| k.as_str().cmp(&det)) {
                        Ok(i) => this.trim().to_lowercase() == map[i].1,
                        Err(_) => true,
                    };
                    stack.push(verdict);
                }
                Op::OtherContains => {
                    let needle = &self.pool.strings[imm_u32(code, &mut pc) as usize];
                    let haystack = other_lower.get_or_insert_with(|| other.to_lowercase());
                    stack.push(haystack.contains(needle.as_str()));
                }
                Op::ThisContains => {
                    let needle = &self.pool.strings[imm_u32(code, &mut pc) as usize];
                    let haystack = this_lower.get_or_insert_with(|| this.to_lowercase());
                    stack.push(haystack.contains(needle.as_str()));
                }
                Op::PushTrue => stack.push(true),
                Op::And => {
                    let b = stack.pop().expect("And rhs");
                    let a = stack.pop().expect("And lhs");
                    stack.push(a & b);
                }
                Op::Or => {
                    let b = stack.pop().expect("Or rhs");
                    let a = stack.pop().expect("Or lhs");
                    stack.push(a | b);
                }
                Op::Not => {
                    let a = stack.pop().expect("Not operand");
                    stack.push(!a);
                }
            }
        }
        stack.pop().unwrap_or(true)
    }
}

/// Memoising columnar driver for one program over interned columns: results
/// are computed once per distinct code (single-column programs) or once per
/// distinct `(this_code, other_code)` pair (cross-column programs) and reused
/// for every row sharing the code(s).
pub struct DistinctEval<'a> {
    program: &'a Program,
    this: &'a ColumnDict,
    other: Option<&'a ColumnDict>,
    /// Per-distinct verdicts of single-column programs, indexed by code.
    single: Vec<Option<bool>>,
    /// Per-distinct-pair verdicts of cross-column programs.
    pairs: HashMap<(u32, u32), bool>,
}

impl<'a> DistinctEval<'a> {
    /// Binds a program to the interned column(s) it reads. `other` must be
    /// `Some` exactly when the program has an [`Program::other_col`]; both
    /// dictionaries must describe the same table (equal row counts).
    pub fn new(program: &'a Program, this: &'a ColumnDict, other: Option<&'a ColumnDict>) -> Self {
        assert_eq!(
            program.other_col.is_some(),
            other.is_some(),
            "other-column dictionary must match the program's column wiring"
        );
        if let Some(other) = other {
            assert_eq!(
                this.n_rows(),
                other.n_rows(),
                "dictionaries describe one table"
            );
        }
        let single = if other.is_none() {
            vec![None; this.n_distinct()]
        } else {
            Vec::new()
        };
        Self {
            program,
            this,
            other,
            single,
            pairs: HashMap::new(),
        }
    }

    /// Evaluates the program for one row, memoised by distinct code(s).
    #[inline]
    pub fn eval_row(&mut self, row: usize) -> bool {
        match self.other {
            None => {
                let code = self.this.code(row);
                self.eval_code(code)
            }
            Some(other) => {
                let key = (self.this.code(row), other.code(row));
                match self.pairs.get(&key) {
                    Some(&v) => v,
                    None => {
                        let v = self
                            .program
                            .eval(self.this.value(key.0), other.value(key.1));
                        self.pairs.insert(key, v);
                        v
                    }
                }
            }
        }
    }

    #[inline]
    fn eval_code(&mut self, code: u32) -> bool {
        match self.single[code as usize] {
            Some(v) => v,
            None => {
                let v = self.program.eval(self.this.value(code), "");
                self.single[code as usize] = Some(v);
                v
            }
        }
    }

    /// Evaluates the program for every row of the column: per-distinct
    /// verdicts first, then a chunked scatter by code.
    #[allow(
        clippy::needless_range_loop,
        reason = "`row` indexes the codes and the output in the chunked scatter the VM differential pins"
    )]
    pub fn eval_all_rows(&mut self) -> Vec<bool> {
        let n_rows = self.this.n_rows();
        let mut out = vec![false; n_rows];
        match self.other {
            None => {
                for code in 0..self.this.n_distinct() as u32 {
                    self.eval_code(code);
                }
                let codes = self.this.codes();
                for start in (0..n_rows).step_by(ROW_CHUNK) {
                    let end = (start + ROW_CHUNK).min(n_rows);
                    for row in start..end {
                        out[row] =
                            self.single[codes[row] as usize].expect("all distinct codes evaluated");
                    }
                }
            }
            Some(_) => {
                for start in (0..n_rows).step_by(ROW_CHUNK) {
                    let end = (start + ROW_CHUNK).min(n_rows);
                    for row in start..end {
                        out[row] = self.eval_row(row);
                    }
                }
            }
        }
        out
    }
}

impl CompiledSet {
    /// Evaluates every compiled criterion on one cell of `table`, mirroring
    /// [`crate::dsl::CriteriaSet::evaluate_cell`] on the compiled path.
    pub fn eval_cell(&self, table: &Table, row: usize) -> Vec<bool> {
        let this = table.cell(row, self.column);
        self.programs
            .iter()
            .map(|p| {
                let other = p
                    .other_col
                    .map(|c| table.cell(row, c as usize))
                    .unwrap_or("");
                p.eval(this, other)
            })
            .collect()
    }

    /// Binds every program of the set to dictionaries resolved by
    /// `resolve`, returning one [`DistinctEval`] per criterion (in order).
    /// `resolve` is called with the set's own column and with every distinct
    /// `other_col` the programs reference.
    pub fn evaluators<'a>(
        &'a self,
        resolve: impl Fn(usize) -> &'a ColumnDict,
    ) -> Vec<DistinctEval<'a>> {
        let this = resolve(self.column);
        self.programs
            .iter()
            .map(|p| DistinctEval::new(p, this, p.other_col.map(|c| resolve(c as usize))))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::{compile_check, compile_set};
    use crate::dsl::{Check, CriteriaSet, Criterion};
    use std::collections::HashMap as StdHashMap;

    fn table() -> Table {
        Table::new(
            "t",
            vec!["code".into(), "cond".into()],
            vec![
                vec!["ami-1".into(), "heart attack".into()],
                vec!["scip-2".into(), "surgical infection prevention".into()],
                vec!["ami-1".into(), "heart attack".into()],
                vec!["pn-9".into(), "heart attack".into()],
                vec!["".into(), "".into()],
            ],
        )
        .unwrap()
    }

    #[test]
    fn vm_matches_oracle_per_cell() {
        let t = table();
        let checks = vec![
            Check::NotMissing,
            Check::LengthRange { min: 3, max: 12 },
            Check::TokenCountRange { min: 2, max: 3 },
            Check::CrossKeyword {
                other_col: 0,
                pairs: vec![
                    ("ami".into(), "heart".into()),
                    ("pn".into(), "pneumonia".into()),
                ],
            },
            Check::FdLookup {
                determinant_col: 0,
                mapping: StdHashMap::from([("ami-1".to_string(), "heart attack".to_string())]),
            },
        ];
        for check in &checks {
            let p = compile_check(check, 1);
            for row in 0..t.n_rows() {
                let other = p.other_col.map(|c| t.cell(row, c as usize)).unwrap_or("");
                assert_eq!(
                    p.eval(t.cell(row, 1), other),
                    check.evaluate(&t, row, 1),
                    "{check:?} row {row}"
                );
            }
        }
    }

    #[test]
    fn distinct_eval_memoises_and_scatters() {
        let t = table();
        let dict = t.intern();
        let p = compile_check(&Check::NotMissing, 1);
        let mut ev = DistinctEval::new(&p, dict.column(1), None);
        let all = ev.eval_all_rows();
        assert_eq!(all, vec![true, true, true, true, false]);
        for (row, &expected) in all.iter().enumerate() {
            assert_eq!(ev.eval_row(row), expected);
        }
    }

    #[test]
    fn cross_column_pairs_memoise() {
        let t = table();
        let dict = t.intern();
        let cross = compile_check(
            &Check::CrossKeyword {
                other_col: 0,
                pairs: vec![("pn".into(), "pneumonia".into())],
            },
            1,
        );
        let mut ev = DistinctEval::new(&cross, dict.column(1), Some(dict.column(0)));
        let all = ev.eval_all_rows();
        let expect: Vec<bool> = (0..t.n_rows())
            .map(|row| {
                Check::CrossKeyword {
                    other_col: 0,
                    pairs: vec![("pn".into(), "pneumonia".into())],
                }
                .evaluate(&t, row, 1)
            })
            .collect();
        assert_eq!(all, expect);
        // rows 0 and 2 share both codes — one pair entry serves both.
        assert!(ev.pairs.len() < t.n_rows());
    }

    #[test]
    fn compiled_set_eval_cell_matches_dsl() {
        let t = table();
        let set = CriteriaSet {
            column: 1,
            criteria: vec![
                Criterion::new("nm", "", Check::NotMissing),
                Criterion::new(
                    "fd",
                    "",
                    Check::FdLookup {
                        determinant_col: 0,
                        mapping: StdHashMap::from([(
                            "ami-1".to_string(),
                            "heart attack".to_string(),
                        )]),
                    },
                ),
            ],
        };
        let compiled = compile_set(&set);
        for row in 0..t.n_rows() {
            assert_eq!(compiled.eval_cell(&t, row), set.evaluate_cell(&t, row));
        }
    }
}
