//! Statistical frequency features (paper §III-B, `f_stat` and `f_pat`).
//!
//! Three frequency families are computed for a cell value `D[i, j]`:
//!
//! * **value frequency** — how often the value occurs in its own attribute;
//! * **vicinity frequency** — for another attribute `a_q`, how often the pair
//!   `(D[i,q], D[i,j])` co-occurs, normalised by the frequency of `D[i,q]`
//!   (an empirical estimate of `P(D[i,j] | D[i,q])`);
//! * **pattern frequency** — how often the value's generalised pattern (at
//!   levels L1–L3) occurs within the attribute.
//!
//! All counts are keyed by the table's interned value codes
//! ([`zeroed_table::TableDict`]): value counts come straight from the
//! dictionary, pattern generalisation runs once per *distinct* value with the
//! per-code pattern count memoised, and co-occurrence maps are keyed by
//! `(u32, u32)` code pairs instead of owned `(String, String)` pairs. The
//! string-keyed accessors remain for arbitrary (e.g. hypothetical) values and
//! produce results identical to the seed implementation.

use crate::fx::FxBuild;
use crate::pattern::{generalize, Level};
use std::collections::HashMap;
use std::sync::Arc;
use zeroed_table::{Table, TableDict};

fn level_index(level: Level) -> usize {
    match level {
        Level::L1 => 0,
        Level::L2 => 1,
        Level::L3 => 2,
    }
}

/// One column pair's co-occurrence counts: (code_j, code_q) → count.
type PairCounts = HashMap<(u32, u32), usize, FxBuild>;

/// Pre-computed per-attribute frequency statistics for one table.
#[derive(Debug, Clone)]
pub struct FrequencyModel {
    dict: Arc<TableDict>,
    n_rows: usize,
    /// Per column and level: pattern → count (serves arbitrary-value queries).
    pattern_counts: Vec<[HashMap<String, usize>; 3]>,
    /// Per column and level: memoised pattern count of each distinct code.
    pattern_count_of_code: Vec<[Vec<usize>; 3]>,
    /// Lazily built co-occurrence maps keyed by (col_j, col_q):
    /// (code_j, code_q) → count.
    pair_counts: HashMap<(usize, usize), PairCounts>,
    /// Per prepared pair: the co-occurrence count of each *row's* code pair,
    /// so a column fill reads an array instead of hashing.
    pair_row_counts: HashMap<(usize, usize), Vec<u32>>,
}

impl FrequencyModel {
    /// Builds value and pattern counts for every column of the table.
    pub fn new(table: &Table) -> Self {
        Self::from_dict(Arc::new(table.intern()))
    }

    /// Builds the model over an existing dictionary (shared with other
    /// featurisation layers so the table is interned exactly once).
    #[allow(
        clippy::needless_range_loop,
        reason = "`j` indexes the dictionary and two per-column tables the feature oracle pins"
    )]
    pub fn from_dict(dict: Arc<TableDict>) -> Self {
        let n_rows = dict.n_rows();
        let n_cols = dict.n_cols();
        let mut pattern_counts: Vec<[HashMap<String, usize>; 3]> = (0..n_cols)
            .map(|_| [HashMap::new(), HashMap::new(), HashMap::new()])
            .collect();
        let mut pattern_count_of_code: Vec<[Vec<usize>; 3]> = Vec::with_capacity(n_cols);
        for j in 0..n_cols {
            let col = dict.column(j);
            // Generalise each *distinct* value once; a pattern's count is the
            // sum of the value counts mapping to it.
            let mut pattern_of_code: [Vec<String>; 3] = [Vec::new(), Vec::new(), Vec::new()];
            for (code, value) in col.values().iter().enumerate() {
                for (li, level) in Level::ALL.iter().enumerate() {
                    let pat = generalize(value, *level);
                    *pattern_counts[j][li].entry(pat.clone()).or_insert(0) +=
                        col.count(code as u32) as usize;
                    pattern_of_code[li].push(pat);
                }
            }
            let memo: [Vec<usize>; 3] = std::array::from_fn(|li| {
                pattern_of_code[li]
                    .iter()
                    .map(|pat| pattern_counts[j][li][pat])
                    .collect()
            });
            pattern_count_of_code.push(memo);
        }
        Self {
            dict,
            n_rows,
            pattern_counts,
            pattern_count_of_code,
            pair_counts: HashMap::new(),
            pair_row_counts: HashMap::new(),
        }
    }

    /// Number of rows of the underlying table.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// The shared distinct-value dictionary.
    pub fn dict(&self) -> &Arc<TableDict> {
        &self.dict
    }

    /// Relative frequency of `value` within column `col` (0 when unseen).
    pub fn value_frequency(&self, col: usize, value: &str) -> f64 {
        if self.n_rows == 0 {
            return 0.0;
        }
        self.value_count(col, value) as f64 / self.n_rows as f64
    }

    /// Relative frequency of the distinct value `code` within column `col`.
    #[inline]
    pub fn value_frequency_code(&self, col: usize, code: u32) -> f64 {
        if self.n_rows == 0 {
            return 0.0;
        }
        self.dict.column(col).count(code) as f64 / self.n_rows as f64
    }

    /// Absolute count of `value` within column `col`.
    pub fn value_count(&self, col: usize, value: &str) -> usize {
        let col_dict = self.dict.column(col);
        col_dict
            .lookup(value)
            .map(|code| col_dict.count(code) as usize)
            .unwrap_or(0)
    }

    /// Number of distinct values in a column.
    pub fn distinct_count(&self, col: usize) -> usize {
        self.dict.column(col).n_distinct()
    }

    /// Relative frequency of the value's generalised pattern at `level`.
    pub fn pattern_frequency(&self, col: usize, value: &str, level: Level) -> f64 {
        if self.n_rows == 0 {
            return 0.0;
        }
        let li = level_index(level);
        // Memoised fast path for values that occur in the table.
        if let Some(code) = self.dict.column(col).lookup(value) {
            return self.pattern_count_of_code[col][li][code as usize] as f64 / self.n_rows as f64;
        }
        let pat = generalize(value, level);
        *self.pattern_counts[col][li].get(&pat).unwrap_or(&0) as f64 / self.n_rows as f64
    }

    /// Relative frequency of the pattern of distinct value `code` at `level`.
    #[inline]
    pub fn pattern_frequency_code(&self, col: usize, code: u32, level: Level) -> f64 {
        if self.n_rows == 0 {
            return 0.0;
        }
        self.pattern_count_of_code[col][level_index(level)][code as usize] as f64
            / self.n_rows as f64
    }

    /// Ensures the co-occurrence map for `(col_j, col_q)` is built. Pair maps
    /// are constructed lazily because only the top-`k` correlated attribute
    /// pairs are ever requested. `table` must be the table the model was built
    /// from (kept in the signature for API compatibility; the codes come from
    /// the shared dictionary).
    pub fn prepare_pair(&mut self, _table: &Table, col_j: usize, col_q: usize) {
        if col_j == col_q || self.pair_counts.contains_key(&(col_j, col_q)) {
            return;
        }
        let codes_j = self.dict.column(col_j).codes();
        let codes_q = self.dict.column(col_q).codes();
        let mut map: PairCounts = HashMap::default();
        for (&cj, &cq) in codes_j.iter().zip(codes_q.iter()) {
            *map.entry((cj, cq)).or_insert(0) += 1;
        }
        // Memoise each row's own pair count so a column fill does a single
        // array read per vicinity slot instead of a map lookup.
        let row_counts: Vec<u32> = codes_j
            .iter()
            .zip(codes_q.iter())
            .map(|(&cj, &cq)| map[&(cj, cq)] as u32)
            .collect();
        self.pair_row_counts.insert((col_j, col_q), row_counts);
        self.pair_counts.insert((col_j, col_q), map);
    }

    /// Vicinity frequency: empirical `P(value_j | value_q)` where `value_q`
    /// is the co-occurring value in attribute `col_q`.
    ///
    /// Returns the value frequency when `col_j == col_q` (the paper's
    /// definition collapses to the value frequency in that case). The pair map
    /// must have been prepared with [`FrequencyModel::prepare_pair`];
    /// otherwise 0 is returned.
    pub fn vicinity_frequency(
        &self,
        col_j: usize,
        value_j: &str,
        col_q: usize,
        value_q: &str,
    ) -> f64 {
        if col_j == col_q {
            return self.value_frequency(col_j, value_j);
        }
        let Some(code_q) = self.dict.column(col_q).lookup(value_q) else {
            return 0.0;
        };
        let Some(code_j) = self.dict.column(col_j).lookup(value_j) else {
            // Unknown value_j cannot co-occur with anything, but an unknown
            // conditioning value must still yield 0 before the denominator is
            // consulted — both branches return 0, matching the seed.
            return 0.0;
        };
        self.vicinity_frequency_code(col_j, code_j, col_q, code_q)
    }

    /// The row-indexed vicinity frequencies of the prepared pair
    /// `(col_j, col_q)`, or `None` when the pair was never prepared (its
    /// frequencies are then 0). The pair key is hashed once here, so a
    /// column fill reads arrays per row instead of hashing per row.
    pub fn pair_rows(&self, col_j: usize, col_q: usize) -> Option<PairRows<'_>> {
        let row_counts = self.pair_row_counts.get(&(col_j, col_q))?;
        let col_q = self.dict.column(col_q);
        Some(PairRows {
            row_counts,
            codes_q: col_q.codes(),
            counts_q: col_q.counts(),
        })
    }

    /// Code-keyed vicinity frequency (fast path for values in the table).
    #[inline]
    pub fn vicinity_frequency_code(
        &self,
        col_j: usize,
        code_j: u32,
        col_q: usize,
        code_q: u32,
    ) -> f64 {
        if col_j == col_q {
            return self.value_frequency_code(col_j, code_j);
        }
        let denom = self.dict.column(col_q).count(code_q) as usize;
        if denom == 0 {
            return 0.0;
        }
        let num = self
            .pair_counts
            .get(&(col_j, col_q))
            .and_then(|m| m.get(&(code_j, code_q)))
            .copied()
            .unwrap_or(0);
        num as f64 / denom as f64
    }
}

/// Every row's own vicinity frequency in one prepared pair `(col_j, col_q)`,
/// from [`FrequencyModel::pair_rows`].
#[derive(Debug, Clone, Copy)]
pub struct PairRows<'a> {
    /// Co-occurrence count of each row's own code pair.
    row_counts: &'a [u32],
    /// Per-row codes of `col_q`.
    codes_q: &'a [u32],
    /// Occurrences of each code of `col_q`.
    counts_q: &'a [u32],
}

impl PairRows<'_> {
    /// Vicinity frequency of row `row`'s own cell pair: the value
    /// [`FrequencyModel::vicinity_frequency_code`] gives for the row's codes.
    #[inline]
    pub fn frequency(&self, row: usize) -> f64 {
        let denom = self.counts_q[self.codes_q[row] as usize];
        if denom == 0 {
            return 0.0;
        }
        self.row_counts[row] as f64 / denom as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> Table {
        Table::new(
            "t",
            vec!["name".into(), "gender".into(), "salary".into()],
            vec![
                vec!["bob".into(), "M".into(), "80000".into()],
                vec!["bob".into(), "M".into(), "80000".into()],
                vec!["carol".into(), "F".into(), "6000".into()],
                vec!["dave".into(), "M".into(), "64000".into()],
            ],
        )
        .unwrap()
    }

    #[test]
    fn value_frequency() {
        let fm = FrequencyModel::new(&table());
        assert!((fm.value_frequency(0, "bob") - 0.5).abs() < 1e-12);
        assert!((fm.value_frequency(0, "carol") - 0.25).abs() < 1e-12);
        assert_eq!(fm.value_frequency(0, "unknown"), 0.0);
        assert_eq!(fm.value_count(1, "M"), 3);
        assert_eq!(fm.distinct_count(0), 3);
    }

    #[test]
    fn code_accessors_match_string_accessors() {
        let t = table();
        let fm = FrequencyModel::new(&t);
        let dict = fm.dict().clone();
        for j in 0..t.n_cols() {
            for i in 0..t.n_rows() {
                let value = t.cell(i, j);
                let code = dict.column(j).code(i);
                assert_eq!(
                    fm.value_frequency(j, value),
                    fm.value_frequency_code(j, code)
                );
                for level in Level::ALL {
                    assert_eq!(
                        fm.pattern_frequency(j, value, level),
                        fm.pattern_frequency_code(j, code, level)
                    );
                }
            }
        }
    }

    #[test]
    fn pattern_frequency_groups_same_formats() {
        let fm = FrequencyModel::new(&table());
        // All salaries are digit strings; at L2 they share a pattern family
        // (D[5] for the 5-digit ones, D[4] for 6000).
        assert!((fm.pattern_frequency(2, "80000", Level::L2) - 0.75).abs() < 1e-12);
        assert!((fm.pattern_frequency(2, "6000", Level::L2) - 0.25).abs() < 1e-12);
        // L2 pattern of a new 5-digit value is still frequent even if unseen.
        assert!((fm.pattern_frequency(2, "99999", Level::L2) - 0.75).abs() < 1e-12);
        // L1 keeps run lengths: "bob" (A[3]) appears twice out of four names.
        assert!((fm.pattern_frequency(0, "bob", Level::L1) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn vicinity_frequency_estimates_conditionals() {
        let t = table();
        let mut fm = FrequencyModel::new(&t);
        fm.prepare_pair(&t, 1, 0); // P(gender | name)
        assert!((fm.vicinity_frequency(1, "M", 0, "bob") - 1.0).abs() < 1e-12);
        assert_eq!(fm.vicinity_frequency(1, "F", 0, "bob"), 0.0);
        // Same column collapses to value frequency.
        assert!((fm.vicinity_frequency(1, "M", 1, "M") - 0.75).abs() < 1e-12);
        // Unknown conditioning value.
        assert_eq!(fm.vicinity_frequency(1, "M", 0, "nobody"), 0.0);
        // Unprepared pair returns 0 rather than panicking.
        assert_eq!(fm.vicinity_frequency(2, "80000", 0, "bob"), 0.0);
    }

    #[test]
    fn row_vicinity_matches_code_and_string_paths() {
        let t = table();
        let mut fm = FrequencyModel::new(&t);
        fm.prepare_pair(&t, 1, 0);
        let dict = fm.dict().clone();
        let pair = fm.pair_rows(1, 0).expect("the pair was prepared");
        for row in 0..t.n_rows() {
            let by_row = pair.frequency(row);
            let by_code = fm.vicinity_frequency_code(
                1,
                dict.column(1).code(row),
                0,
                dict.column(0).code(row),
            );
            let by_string = fm.vicinity_frequency(1, t.cell(row, 1), 0, t.cell(row, 0));
            assert_eq!(by_row, by_code, "row {row}");
            assert_eq!(by_row, by_string, "row {row}");
        }
        // An unprepared pair has no row view.
        assert!(fm.pair_rows(2, 0).is_none());
    }

    #[test]
    fn empty_table() {
        let t = Table::empty("e", vec!["a".into()]);
        let fm = FrequencyModel::new(&t);
        assert_eq!(fm.value_frequency(0, "x"), 0.0);
        assert_eq!(fm.pattern_frequency(0, "x", Level::L1), 0.0);
        assert_eq!(fm.n_rows(), 0);
    }
}
