//! The unified feature representation (paper §III-B).
//!
//! For each attribute the [`FeatureBuilder`] assembles a *base* feature matrix
//! (statistics + pattern frequencies + semantic embedding + optional
//! error-reason-aware criteria indicators) and then concatenates the base
//! features of the top-`k` NMI-correlated attributes to form the *unified*
//! representation `Feat(D[i,j]) = f_base(D[i,j]) ⊕ { f_base(D[i,q]) }` used by
//! clustering, sampling and the detector.
//!
//! [`FittedFeatures`] keeps the fitted statistics (frequency model, correlated
//! attributes) so that individual cells — including hypothetical values that
//! do not appear in the table, such as the LLM-augmented error examples of
//! Algorithm 1 — can be featurised consistently after the initial build.
//!
//! # Interned fast path
//!
//! Fitting interns the table once ([`zeroed_table::TableDict`]) and
//! precomputes, per column and per *distinct* value: the six row-independent
//! statistics (value frequency, three pattern frequencies, length, missing
//! flag) and the semantic embedding. A cell's base vector is then assembled by
//! copying its distinct value's cached blocks and filling only the genuinely
//! row-dependent slots (vicinity frequencies, keyed by `(u32, u32)` code
//! pairs; criteria indicators, which are per-row inputs held in one flat
//! `n_rows × n_criteria` [`FeatureMatrix`] per attribute).
//! [`FittedFeatures::unified_rows_into`] fills any row range of one
//! attribute's unified vectors from those blocks, one base block at a time,
//! into a caller's buffer on the calling thread — no per-cell `Vec`, no
//! `from_rows` materialisation, no base matrices to concatenate. The
//! pipeline streams an attribute through it a chunk of rows at a time;
//! [`FittedFeatures::unified_matrix`] fills all rows at once, and
//! [`FittedFeatures::build_all`] does that for every attribute.
//! The [`crate::reference`] module keeps the seed's per-cell implementation
//! as the correctness oracle; equivalence tests assert the two paths produce
//! bit-identical output.

use crate::embed::HashEmbedder;
use crate::matrix::FeatureMatrix;
use crate::nmi::top_k_correlated_dict;
use crate::pattern::Level;
use crate::stats::{FrequencyModel, PairRows};
use std::ops::Range;
use std::sync::Arc;
use zeroed_table::value::is_missing;
use zeroed_table::{Table, TableDict};

/// Configuration of the feature representation.
#[derive(Debug, Clone)]
pub struct FeatureConfig {
    /// Dimensionality of the semantic (subword hashing) embedding.
    pub embed_dim: usize,
    /// Number of correlated attributes whose base features are concatenated
    /// (the paper's default is 2).
    pub top_k_corr: usize,
    /// Include the semantic embedding component.
    pub include_semantic: bool,
    /// Include the statistical frequency component.
    pub include_stats: bool,
    /// Row-sample cap used when estimating NMI on large tables.
    pub nmi_sample_rows: usize,
}

impl Default for FeatureConfig {
    fn default() -> Self {
        Self {
            embed_dim: 24,
            top_k_corr: 2,
            include_semantic: true,
            include_stats: true,
            nmi_sample_rows: 5_000,
        }
    }
}

/// The per-table output of feature construction.
#[derive(Debug, Clone)]
pub struct TableFeatures {
    /// Unified feature matrix per attribute (base ⊕ correlated bases).
    pub unified: Vec<FeatureMatrix>,
    /// Base feature matrix per attribute.
    pub base: Vec<FeatureMatrix>,
    /// Indices of the correlated attributes chosen for each attribute.
    pub correlated: Vec<Vec<usize>>,
}

impl TableFeatures {
    /// Unified feature dimensionality of one attribute.
    pub fn dim(&self, col: usize) -> usize {
        self.unified[col].n_cols()
    }
}

/// Builds base and unified feature matrices for a table.
#[derive(Debug, Clone)]
pub struct FeatureBuilder {
    config: FeatureConfig,
    embedder: HashEmbedder,
}

/// Width of the per-distinct-value stats cache rows:
/// `[value_freq, pat_l1, pat_l2, pat_l3, len_norm, missing]`.
const STATS_CACHE_COLS: usize = 6;

/// Fitted per-table feature state: the frequency model, the correlated
/// attributes, the extra (criteria) feature blocks and the per-column
/// distinct-value caches. Produced by [`FeatureBuilder::fit`]; can featurise
/// arbitrary cells, including cells with an overridden (synthetic) value.
pub struct FittedFeatures<'a> {
    pub(crate) config: FeatureConfig,
    pub(crate) embedder: &'a HashEmbedder,
    pub(crate) table: &'a Table,
    pub(crate) extra: &'a [FeatureMatrix],
    pub(crate) freq: FrequencyModel,
    pub(crate) correlated: Vec<Vec<usize>>,
    /// Interned view of `table` (shared with the frequency model).
    dict: Arc<TableDict>,
    /// Per column: `[n_distinct × STATS_CACHE_COLS]` row-independent stats
    /// (empty when stats are disabled).
    stats_cache: Vec<FeatureMatrix>,
    /// Per column: `[n_distinct × embedder.dim()]` embeddings (empty when
    /// the semantic component is disabled).
    embed_cache: Vec<FeatureMatrix>,
}

impl FeatureBuilder {
    /// Creates a builder from a configuration.
    pub fn new(config: FeatureConfig) -> Self {
        let embedder = HashEmbedder::new(config.embed_dim);
        Self { config, embedder }
    }

    /// The builder's configuration.
    pub fn config(&self) -> &FeatureConfig {
        &self.config
    }

    /// Fits the per-table feature state (frequency model, correlated
    /// attributes, distinct-value caches) without materialising the full
    /// matrices. The table is interned internally; use
    /// [`FeatureBuilder::fit_with_dict`] when a dictionary already exists.
    ///
    /// `extra` supplies optional per-attribute, per-row additional features —
    /// ZeroED passes the binary error-checking-criteria indicators here, one
    /// flat `n_rows × n_criteria` matrix per attribute. Use an empty slice
    /// (or 0-row matrices) when there are none. `extra[j]`, when it has
    /// rows, must have one per table row; fitting panics otherwise.
    pub fn fit<'a>(&'a self, table: &'a Table, extra: &'a [FeatureMatrix]) -> FittedFeatures<'a> {
        self.fit_with_dict(table, Arc::new(table.intern()), extra)
    }

    /// [`FeatureBuilder::fit`] over a pre-built dictionary, so callers that
    /// already interned the table don't pay for a second interning pass.
    /// `dict` must describe `table`.
    pub fn fit_with_dict<'a>(
        &'a self,
        table: &'a Table,
        dict: Arc<TableDict>,
        extra: &'a [FeatureMatrix],
    ) -> FittedFeatures<'a> {
        let correlated: Vec<Vec<usize>> = (0..table.n_cols())
            .map(|j| {
                top_k_correlated_dict(
                    &dict,
                    j,
                    self.config.top_k_corr,
                    self.config.nmi_sample_rows,
                )
            })
            .collect();
        self.fit_prepared(table, dict, correlated, extra)
    }

    /// [`FeatureBuilder::fit_with_dict`] with the correlated attributes
    /// already chosen. The pipeline computes them once (they are also fed to
    /// the LLM prompt contexts) and hands them in here, so the `O(cols²)` NMI
    /// sweep runs exactly once per detection and the features are guaranteed
    /// to encode the same correlated attributes the prompts describe.
    pub fn fit_prepared<'a>(
        &'a self,
        table: &'a Table,
        dict: Arc<TableDict>,
        correlated: Vec<Vec<usize>>,
        extra: &'a [FeatureMatrix],
    ) -> FittedFeatures<'a> {
        assert_eq!(
            dict.n_rows(),
            table.n_rows(),
            "dictionary/table row mismatch"
        );
        assert_eq!(
            dict.n_cols(),
            table.n_cols(),
            "dictionary/table column mismatch"
        );
        assert_eq!(
            correlated.len(),
            table.n_cols(),
            "one correlated-attribute list per column required"
        );
        let n_cols = table.n_cols();
        for (j, corr) in correlated.iter().enumerate() {
            for &q in corr {
                assert!(
                    q < n_cols && q != j,
                    "correlated list of column {j} holds invalid attribute {q}"
                );
            }
        }
        let n_rows = table.n_rows();
        for (j, block) in extra.iter().enumerate().filter(|(_, b)| b.n_rows() > 0) {
            assert_eq!(
                block.n_rows(),
                n_rows,
                "extra block of column {j} has {} rows for a {n_rows}-row table",
                block.n_rows()
            );
        }
        let mut freq = FrequencyModel::from_dict(dict.clone());
        if self.config.include_stats {
            for (j, corr) in correlated.iter().enumerate() {
                for &q in corr {
                    freq.prepare_pair(table, j, q);
                }
            }
        }
        let stats_cache: Vec<FeatureMatrix> = if self.config.include_stats {
            (0..n_cols)
                .map(|j| {
                    let col = dict.column(j);
                    let n_distinct = col.n_distinct();
                    let mut cache = FeatureMatrix::zeros(n_distinct, STATS_CACHE_COLS);
                    for code in 0..n_distinct as u32 {
                        let value = col.value(code);
                        let row = cache.row_mut(code as usize);
                        row[0] = freq.value_frequency_code(j, code) as f32;
                        row[1] = freq.pattern_frequency_code(j, code, Level::L1) as f32;
                        row[2] = freq.pattern_frequency_code(j, code, Level::L2) as f32;
                        row[3] = freq.pattern_frequency_code(j, code, Level::L3) as f32;
                        row[4] = (value.chars().count() as f32 / 64.0).min(1.0);
                        row[5] = if is_missing(value) { 1.0 } else { 0.0 };
                    }
                    cache
                })
                .collect()
        } else {
            Vec::new()
        };
        // Each distinct value is embedded once, into its column's pool.
        let embed_cache: Vec<FeatureMatrix> = if self.config.include_semantic {
            (0..n_cols)
                .map(|j| self.embedder.embed_pool(dict.column(j).values()))
                .collect()
        } else {
            Vec::new()
        };
        FittedFeatures {
            config: self.config.clone(),
            embedder: &self.embedder,
            table,
            extra,
            freq,
            correlated,
            dict,
            stats_cache,
            embed_cache,
        }
    }

    /// Builds features for every attribute of `table` (fit + materialise).
    pub fn build(&self, table: &Table, extra: &[FeatureMatrix]) -> TableFeatures {
        self.fit(table, extra).build_all()
    }
}

impl<'a> FittedFeatures<'a> {
    /// The correlated attributes chosen for each column.
    pub fn correlated(&self) -> &[Vec<usize>] {
        &self.correlated
    }

    /// The shared distinct-value dictionary of the fitted table.
    pub fn dict(&self) -> &Arc<TableDict> {
        &self.dict
    }

    /// The table-extra block of column `col`, when it has rows.
    fn extra_block(&self, col: usize) -> Option<&FeatureMatrix> {
        self.extra.get(col).filter(|m| m.n_rows() > 0)
    }

    /// Width of the table-extra block of column `col`.
    fn extra_width(&self, col: usize) -> usize {
        self.extra_block(col).map_or(0, FeatureMatrix::n_cols)
    }

    /// Base-vector width of column `col` given an extra block of `extra_len`
    /// values (the empty feature set degenerates to a single 0.0 slot,
    /// matching the seed implementation).
    fn base_width_with(&self, col: usize, extra_len: usize) -> usize {
        let mut width = 0;
        if self.config.include_stats {
            width += 4 + self.correlated[col].len() + 2;
        }
        if self.config.include_semantic {
            width += self.embedder.dim();
        }
        width += extra_len;
        width.max(1)
    }

    /// Base feature dimensionality of column `col` (with the table's own
    /// extra block).
    pub fn base_dim(&self, col: usize) -> usize {
        self.base_width_with(col, self.extra_width(col))
    }

    /// Fast path: fills column `col`'s base block for the table's own
    /// (interned) cells of `rows`. Row `rows.start + r` goes to the
    /// `base_dim(col)` values at `out[r * stride + offset..]`. This is the
    /// one implementation of the interned base-block layout: single rows,
    /// base matrices and unified matrices all fill through it. What does not
    /// depend on the row (the column's codes, its stats and embedding
    /// caches, its extra block and its correlated pairs) is resolved once
    /// per call.
    fn fill_base_block(
        &self,
        col: usize,
        rows: Range<usize>,
        out: &mut [f32],
        stride: usize,
        offset: usize,
    ) {
        let width = self.base_dim(col);
        let codes = self.dict.column(col).codes();
        let stats = self.config.include_stats.then(|| {
            // Correlated attributes never include the column itself, and
            // fitting prepared every pair.
            let pairs: Vec<PairRows<'_>> = self.correlated[col]
                .iter()
                .map(|&q| {
                    self.freq
                        .pair_rows(col, q)
                        .expect("fitting prepares every correlated pair")
                })
                .collect();
            (&self.stats_cache[col], pairs)
        });
        let embed = self.config.include_semantic.then(|| &self.embed_cache[col]);
        let extra = self.extra_block(col);
        for (r, row) in rows.enumerate() {
            let dst = &mut out[r * stride + offset..][..width];
            let code = codes[row] as usize;
            let mut off = 0usize;
            if let Some((cache, pairs)) = &stats {
                let cached = cache.row(code);
                dst[..4].copy_from_slice(&cached[..4]);
                off = 4;
                for pair in pairs {
                    dst[off] = pair.frequency(row) as f32;
                    off += 1;
                }
                dst[off] = cached[4];
                dst[off + 1] = cached[5];
                off += 2;
            }
            if let Some(cache) = embed {
                let block = cache.row(code);
                dst[off..off + block.len()].copy_from_slice(block);
                off += block.len();
            }
            if let Some(extra) = extra {
                let block = extra.row(row);
                dst[off..off + block.len()].copy_from_slice(block);
                off += block.len();
            }
            if off == 0 {
                dst[0] = 0.0;
            }
        }
    }

    /// Fills the base blocks of `cols` side by side for the table's rows
    /// `rows`: row `rows.start + r` goes to `out[r * stride..][..stride]`,
    /// `stride` being the sum of the blocks' widths, which `out` must hold
    /// exactly `rows.len()` times.
    fn fill_blocks(
        &self,
        cols: impl Iterator<Item = usize> + Clone,
        rows: Range<usize>,
        out: &mut [f32],
    ) {
        let stride: usize = cols.clone().map(|c| self.base_dim(c)).sum();
        assert_eq!(
            out.len(),
            rows.len() * stride,
            "the buffer must hold rows.len() rows of {stride} values"
        );
        let mut offset = 0;
        for c in cols {
            self.fill_base_block(c, rows.clone(), out, stride, offset);
            offset += self.base_dim(c);
        }
    }

    /// The matrix whose rows hold the base blocks of `cols` side by side,
    /// one row per table row. A 0-row table yields a 0×0 matrix, as the
    /// seed path (`from_rows` of an empty vector) does.
    fn blocks_matrix(&self, cols: impl Iterator<Item = usize> + Clone) -> FeatureMatrix {
        let n_rows = self.table.n_rows();
        if n_rows == 0 {
            return FeatureMatrix::zeros(0, 0);
        }
        let stride = cols.clone().map(|c| self.base_dim(c)).sum();
        let mut matrix = FeatureMatrix::zeros(n_rows, stride);
        self.fill_blocks(cols, 0..n_rows, matrix.data_mut());
        matrix
    }

    /// Column `col` followed by its correlated attributes: the base blocks
    /// of a unified vector, in order.
    fn unified_cols(&self, col: usize) -> impl Iterator<Item = usize> + Clone + '_ {
        std::iter::once(col).chain(self.correlated[col].iter().copied())
    }

    /// General path: fills the base vector of a cell, honouring value and
    /// extra overrides. `out` must be `base_width_with(col, effective extra
    /// length)` long. Falls back to string-keyed statistics only for override
    /// values missing from the dictionary.
    pub fn base_row_into(
        &self,
        row: usize,
        col: usize,
        value_override: Option<&str>,
        extra_override: Option<&[f32]>,
        out: &mut [f32],
    ) {
        if value_override.is_none() && extra_override.is_none() {
            self.fill_base_block(col, row..row + 1, out, 0, 0);
            return;
        }
        let value = value_override.unwrap_or_else(|| self.table.cell(row, col));
        // An override value may still be one of the column's distinct values,
        // in which case every cached block applies.
        let code = self.dict.column(col).lookup(value);
        let mut off = 0usize;
        if self.config.include_stats {
            match code {
                Some(code) => {
                    let cached = self.stats_cache[col].row(code as usize);
                    out[..4].copy_from_slice(&cached[..4]);
                    off = 4;
                    for &q in &self.correlated[col] {
                        let code_q = self.dict.column(q).code(row);
                        out[off] = self.freq.vicinity_frequency_code(col, code, q, code_q) as f32;
                        off += 1;
                    }
                    out[off] = cached[4];
                    out[off + 1] = cached[5];
                    off += 2;
                }
                None => {
                    out[0] = self.freq.value_frequency(col, value) as f32;
                    out[1] = self.freq.pattern_frequency(col, value, Level::L1) as f32;
                    out[2] = self.freq.pattern_frequency(col, value, Level::L2) as f32;
                    out[3] = self.freq.pattern_frequency(col, value, Level::L3) as f32;
                    off = 4;
                    for &q in &self.correlated[col] {
                        out[off] =
                            self.freq
                                .vicinity_frequency(col, value, q, self.table.cell(row, q))
                                as f32;
                        off += 1;
                    }
                    out[off] = (value.chars().count() as f32 / 64.0).min(1.0);
                    out[off + 1] = if is_missing(value) { 1.0 } else { 0.0 };
                    off += 2;
                }
            }
        }
        if self.config.include_semantic {
            let dim = self.embedder.dim();
            match code {
                Some(code) => {
                    out[off..off + dim].copy_from_slice(self.embed_cache[col].row(code as usize));
                }
                None => self.embedder.embed_into(value, &mut out[off..off + dim]),
            }
            off += dim;
        }
        let extra_cell: Option<&[f32]> =
            extra_override.or_else(|| self.extra_block(col).map(|m| m.row(row)));
        if let Some(block) = extra_cell {
            out[off..off + block.len()].copy_from_slice(block);
            off += block.len();
        }
        if off == 0 {
            out[0] = 0.0;
        }
    }

    /// Base feature vector for one cell. `value_override` substitutes a
    /// hypothetical value for the cell (used to featurise augmented error
    /// examples in the context of an existing row); `extra_override` replaces
    /// the cell's extra (criteria) features, which callers must supply when
    /// overriding the value and criteria features are in use.
    pub fn base_row(
        &self,
        row: usize,
        col: usize,
        value_override: Option<&str>,
        extra_override: Option<&[f32]>,
    ) -> Vec<f32> {
        let extra_len = extra_override
            .map(|e| e.len())
            .unwrap_or_else(|| self.extra_width(col));
        let mut out = vec![0.0f32; self.base_width_with(col, extra_len)];
        self.base_row_into(row, col, value_override, extra_override, &mut out);
        out
    }

    /// Fills the unified feature vector of one cell: its base features
    /// followed by the base features of its correlated attributes (taken from
    /// the stored table, never overridden). `out` must be long enough for the
    /// base width implied by the overrides plus `base_dim` of each correlated
    /// attribute.
    pub fn unified_row_into(
        &self,
        row: usize,
        col: usize,
        value_override: Option<&str>,
        extra_override: Option<&[f32]>,
        out: &mut [f32],
    ) {
        let extra_len = extra_override
            .map(|e| e.len())
            .unwrap_or_else(|| self.extra_width(col));
        let mut off = self.base_width_with(col, extra_len);
        self.base_row_into(row, col, value_override, extra_override, &mut out[..off]);
        for &q in &self.correlated[col] {
            self.fill_base_block(q, row..row + 1, out, 0, off);
            off += self.base_dim(q);
        }
    }

    /// Unified feature vector for one cell: its base features concatenated
    /// with the base features of its correlated attributes (taken from the
    /// stored table, never overridden).
    pub fn unified_row(
        &self,
        row: usize,
        col: usize,
        value_override: Option<&str>,
        extra_override: Option<&[f32]>,
    ) -> Vec<f32> {
        let extra_len = extra_override
            .map(|e| e.len())
            .unwrap_or_else(|| self.extra_width(col));
        let width = self.base_width_with(col, extra_len)
            + self.correlated[col]
                .iter()
                .map(|&q| self.base_dim(q))
                .sum::<usize>();
        let mut out = vec![0.0f32; width];
        self.unified_row_into(row, col, value_override, extra_override, &mut out);
        out
    }

    /// Unified feature dimensionality of column `col`: its base block plus
    /// the base blocks of its correlated attributes.
    pub fn unified_dim(&self, col: usize) -> usize {
        self.unified_cols(col).map(|c| self.base_dim(c)).sum()
    }

    /// Fills attribute `col`'s unified vectors of the table's rows `rows`
    /// into `out`, row-major: row `rows.start + r` goes to
    /// `out[r * unified_dim(col)..][..unified_dim(col)]`, and `out` must
    /// hold exactly `rows.len() × unified_dim(col)` values. The values are
    /// bit-identical to those rows of [`FittedFeatures::unified_matrix`], so
    /// a caller can stream an attribute's vectors through a buffer of a few
    /// rows instead of materialising its matrix; `ZeroEd::detect` does so
    /// for each attribute's sampling and detector.
    pub fn unified_rows_into(&self, col: usize, rows: Range<usize>, out: &mut [f32]) {
        self.fill_blocks(self.unified_cols(col), rows, out);
    }

    /// Attribute `col`'s unified matrix: per row, its base block followed by
    /// the base blocks of its correlated attributes, filled as
    /// [`FittedFeatures::unified_rows_into`] fills them. Bit-identical to
    /// `build_all().unified[col]`, including the 0×0 matrix of a 0-row
    /// table.
    ///
    /// Holding it costs `n_rows × unified_dim(col)` values, which
    /// `ZeroEd::detect` never pays: its sampling and detector read the
    /// attribute's distinct vectors, streamed from
    /// [`FittedFeatures::unified_rows_into`] a chunk of rows at a time.
    pub fn unified_matrix(&self, col: usize) -> FeatureMatrix {
        self.blocks_matrix(self.unified_cols(col))
    }

    /// Materialises the full base and unified matrices for every attribute,
    /// one column after another on the calling thread, through the same
    /// block filler as [`FittedFeatures::unified_matrix`].
    ///
    /// Holding every matrix at once costs `n_rows ×` the sum of all base and
    /// unified widths, so detection does not call this. Its callers are
    /// the ones that want the whole table's features side by side:
    /// `paper_bench`'s traced driver, which restates the pipeline with
    /// barriers between the stages; the `bench_features` ledger and the
    /// `features_bench` micro-benchmark, which time it against the
    /// [`reference`](crate::reference) oracle; and the equivalence tests.
    pub fn build_all(&self) -> TableFeatures {
        let n_cols = self.table.n_cols();
        TableFeatures {
            unified: (0..n_cols).map(|j| self.unified_matrix(j)).collect(),
            base: (0..n_cols)
                .map(|j| self.blocks_matrix(std::iter::once(j)))
                .collect(),
            correlated: self.correlated.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> Table {
        let rows: Vec<Vec<String>> = (0..60)
            .map(|i| {
                let name = format!("person{}", i % 12);
                let gender = if (i % 12) < 6 { "M" } else { "F" };
                let salary = format!("{}", 40_000 + (i % 12) * 1_000);
                vec![name, gender.to_string(), salary]
            })
            .collect();
        Table::new(
            "t",
            vec!["name".into(), "gender".into(), "salary".into()],
            rows,
        )
        .unwrap()
    }

    #[test]
    fn builds_matrices_of_expected_shape() {
        let t = table();
        let builder = FeatureBuilder::new(FeatureConfig {
            embed_dim: 8,
            top_k_corr: 2,
            ..Default::default()
        });
        let feats = builder.build(&t, &[]);
        assert_eq!(feats.base.len(), 3);
        assert_eq!(feats.unified.len(), 3);
        for j in 0..3 {
            assert_eq!(feats.base[j].n_rows(), 60);
            assert_eq!(feats.unified[j].n_rows(), 60);
            // base dim: 4 freq + 2 vicinity + 2 misc + 8 embed = 16
            assert_eq!(feats.base[j].n_cols(), 16);
            // unified: base + 2 correlated bases
            assert_eq!(feats.unified[j].n_cols(), 16 * 3);
            assert_eq!(feats.correlated[j].len(), 2);
            assert_eq!(feats.dim(j), 48);
        }
    }

    #[test]
    fn extra_features_are_appended() {
        let t = table();
        let builder = FeatureBuilder::new(FeatureConfig {
            embed_dim: 4,
            top_k_corr: 1,
            ..Default::default()
        });
        let extra = vec![
            FeatureMatrix::from_rows((0..60).map(|_| vec![1.0, 0.0]).collect()),
            FeatureMatrix::zeros(0, 0),
            FeatureMatrix::zeros(0, 0),
        ];
        let feats = builder.build(&t, &extra);
        // Column 0 has 2 extra dims compared to columns 1 and 2.
        assert_eq!(feats.base[0].n_cols(), feats.base[1].n_cols() + 2);
        assert_eq!(feats.base[0].row(0)[feats.base[0].n_cols() - 2], 1.0);
    }

    fn six_row_table() -> Table {
        let rows = (0..6)
            .map(|i| vec![format!("v{}", i % 3), format!("w{}", i % 2)])
            .collect();
        Table::new("six", vec!["a".into(), "b".into()], rows).unwrap()
    }

    #[test]
    #[should_panic(expected = "extra block of column 1 has 3 rows for a 6-row table")]
    fn fitting_rejects_a_short_extra_block() {
        let t = six_row_table();
        let extra = vec![FeatureMatrix::zeros(0, 0), FeatureMatrix::zeros(3, 1)];
        let _ = FeatureBuilder::new(FeatureConfig::default()).fit(&t, &extra);
    }

    #[test]
    fn stats_only_and_semantic_only() {
        let t = table();
        let stats_only = FeatureBuilder::new(FeatureConfig {
            include_semantic: false,
            top_k_corr: 1,
            ..Default::default()
        })
        .build(&t, &[]);
        assert_eq!(stats_only.base[0].n_cols(), 4 + 1 + 2);
        let sem_only = FeatureBuilder::new(FeatureConfig {
            include_stats: false,
            embed_dim: 6,
            top_k_corr: 0,
            ..Default::default()
        })
        .build(&t, &[]);
        assert_eq!(sem_only.base[0].n_cols(), 6);
        assert!(sem_only.correlated[0].is_empty());
    }

    #[test]
    fn identical_values_share_feature_rows() {
        let t = table();
        let feats = FeatureBuilder::new(FeatureConfig {
            embed_dim: 8,
            top_k_corr: 1,
            ..Default::default()
        })
        .build(&t, &[]);
        // Rows 0 and 12 hold the same (name, gender, salary) combination.
        assert_eq!(feats.unified[0].row(0), feats.unified[0].row(12));
    }

    #[test]
    fn fitted_rows_match_built_matrices() {
        let t = table();
        let builder = FeatureBuilder::new(FeatureConfig {
            embed_dim: 8,
            top_k_corr: 2,
            ..Default::default()
        });
        let fitted = builder.fit(&t, &[]);
        let built = fitted.build_all();
        for j in 0..3 {
            for i in [0usize, 7, 59] {
                assert_eq!(
                    fitted.unified_row(i, j, None, None),
                    built.unified[j].row(i).to_vec(),
                    "cell ({i}, {j})"
                );
            }
        }
    }

    #[test]
    fn value_override_changes_only_base_part() {
        let t = table();
        let builder = FeatureBuilder::new(FeatureConfig {
            embed_dim: 8,
            top_k_corr: 1,
            ..Default::default()
        });
        let fitted = builder.fit(&t, &[]);
        let normal = fitted.unified_row(0, 2, None, None);
        let overridden = fitted.unified_row(0, 2, Some("999999999"), None);
        assert_eq!(normal.len(), overridden.len());
        assert_ne!(normal, overridden);
        // The correlated (tail) block is unchanged by the override.
        let base_dim = fitted.base_row(0, 2, None, None).len();
        assert_eq!(normal[base_dim..], overridden[base_dim..]);
        // An unseen value has zero value-frequency.
        assert_eq!(overridden[0], 0.0);
    }

    #[test]
    fn override_with_existing_value_hits_the_cache() {
        let t = table();
        let builder = FeatureBuilder::new(FeatureConfig {
            embed_dim: 8,
            top_k_corr: 1,
            ..Default::default()
        });
        let fitted = builder.fit(&t, &[]);
        // Overriding cell (0, 0) with the value it already holds must be a
        // no-op relative to the plain path.
        let own_value = t.cell(0, 0).to_string();
        assert_eq!(
            fitted.unified_row(0, 0, Some(&own_value), None),
            fitted.unified_row(0, 0, None, None),
        );
        // Overriding with another row's value reuses that value's cached
        // blocks; spot-check the value-frequency slot.
        let other = t.cell(1, 0).to_string();
        let feat = fitted.base_row(0, 0, Some(&other), None);
        assert_eq!(feat[0], fitted.base_row(1, 0, None, None)[0]);
    }

    #[test]
    fn fit_with_dict_reuses_the_given_dictionary() {
        let t = table();
        let dict = Arc::new(t.intern());
        let builder = FeatureBuilder::new(FeatureConfig {
            embed_dim: 4,
            top_k_corr: 1,
            ..Default::default()
        });
        let fitted = builder.fit_with_dict(&t, dict.clone(), &[]);
        assert!(Arc::ptr_eq(fitted.dict(), &dict));
        let from_scratch = builder.fit(&t, &[]);
        assert_eq!(
            fitted.unified_row(3, 0, None, None),
            from_scratch.unified_row(3, 0, None, None),
        );
    }
}
