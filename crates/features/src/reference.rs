//! The seed (pre-interning) featurisation path, kept verbatim as the
//! correctness oracle for the interned fast path.
//!
//! Every function here recomputes features per cell through the string-keyed
//! [`FrequencyModel`] accessors and a fresh embedding per value — exactly what
//! `FittedFeatures` did before the distinct-value interning refactor. The
//! equivalence tests (`tests/equivalence.rs`) assert the fast path produces
//! bit-identical output, and the `zeroed-bench` `bench_features` emitter uses
//! [`build_all_reference`] as the "before" timing when reporting speedups.
//!
//! [`FrequencyModel`]: crate::stats::FrequencyModel

use crate::matrix::FeatureMatrix;
use crate::pattern::Level;
use crate::unified::{FittedFeatures, TableFeatures};
use zeroed_table::value::is_missing;

/// Per-cell base vector, recomputed from scratch (seed implementation).
pub fn base_row_reference(
    fitted: &FittedFeatures<'_>,
    row: usize,
    col: usize,
    value_override: Option<&str>,
    extra_override: Option<&[f32]>,
) -> Vec<f32> {
    let value = value_override.unwrap_or_else(|| fitted.table.cell(row, col));
    let mut feat: Vec<f32> = Vec::new();
    if fitted.config.include_stats {
        feat.push(fitted.freq.value_frequency(col, value) as f32);
        feat.push(fitted.freq.pattern_frequency(col, value, Level::L1) as f32);
        feat.push(fitted.freq.pattern_frequency(col, value, Level::L2) as f32);
        feat.push(fitted.freq.pattern_frequency(col, value, Level::L3) as f32);
        for &q in &fitted.correlated[col] {
            feat.push(
                fitted
                    .freq
                    .vicinity_frequency(col, value, q, fitted.table.cell(row, q))
                    as f32,
            );
        }
        feat.push((value.chars().count() as f32 / 64.0).min(1.0));
        feat.push(if is_missing(value) { 1.0 } else { 0.0 });
    }
    if fitted.config.include_semantic {
        feat.extend(fitted.embedder.embed(value));
    }
    let extra_cell: Option<&[f32]> = extra_override.or_else(|| {
        fitted
            .extra
            .get(col)
            .filter(|m| m.n_rows() > 0)
            .map(|m| m.row(row))
    });
    if let Some(extra) = extra_cell {
        feat.extend(extra.iter().copied());
    }
    if feat.is_empty() {
        feat.push(0.0);
    }
    feat
}

/// Per-cell unified vector, recomputed from scratch (seed implementation).
pub fn unified_row_reference(
    fitted: &FittedFeatures<'_>,
    row: usize,
    col: usize,
    value_override: Option<&str>,
    extra_override: Option<&[f32]>,
) -> Vec<f32> {
    let mut feat = base_row_reference(fitted, row, col, value_override, extra_override);
    for &q in &fitted.correlated[col] {
        feat.extend(base_row_reference(fitted, row, q, None, None));
    }
    feat
}

/// Full-table materialisation through per-cell row vectors, `from_rows` and
/// chained `hconcat` (seed implementation). Like the fast path it runs on the
/// calling thread, so benchmark comparisons measure the algorithmic change.
pub fn build_all_reference(fitted: &FittedFeatures<'_>) -> TableFeatures {
    let n_cols = fitted.table.n_cols();
    let n_rows = fitted.table.n_rows();
    let base: Vec<FeatureMatrix> = (0..n_cols)
        .map(|j| {
            let rows: Vec<Vec<f32>> = (0..n_rows)
                .map(|i| base_row_reference(fitted, i, j, None, None))
                .collect();
            FeatureMatrix::from_rows(rows)
        })
        .collect();
    let unified: Vec<FeatureMatrix> = (0..n_cols)
        .map(|j| {
            let mut m = base[j].clone();
            for &q in &fitted.correlated[j] {
                m = m.hconcat(&base[q]);
            }
            m
        })
        .collect();
    TableFeatures {
        unified,
        base,
        correlated: fitted.correlated.clone(),
    }
}
