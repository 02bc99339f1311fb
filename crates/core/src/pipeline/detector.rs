//! Step 5 — detector training and prediction (paper §III-D).
//!
//! One two-layer MLP is trained per attribute on the verified training data
//! (propagated clean rows, propagated error rows, and LLM-augmented error
//! examples) and then classifies every cell of the attribute. Features are
//! standardised per attribute before training.
//!
//! This stage shared the non-LLM wall with sampling at 50k rows, so
//! [`train_and_predict_distinct`] runs in *dedup-weighted* form over the
//! column's distinct unified vectors ([`DedupPoints`]; the pipeline streams
//! them from the fitted caches and never builds the column's matrix): the
//! scaler fits weighted moments over distinct training vectors
//! ([`StandardScaler::fit_weighted`]), then standardises every distinct
//! vector once, in place, the MLP trains on distinct `(vector, label)` pairs
//! weighted by multiplicity through the batched trainer
//! ([`Mlp::fit_weighted`]), and prediction forwards each distinct vector
//! exactly once, scattering flags back by code — so the per-column cost
//! scales with the number of *distinct* values, not rows, and no per-cell
//! or per-distinct copies remain. [`train_and_predict`] runs the same core
//! over a matrix's distinct rows. The scalar trainer is retained in
//! `zeroed-ml` as the batched path's bit-identity oracle.
//!
//! The detector is free of cross-attribute state and seeds its MLP
//! from `(config seed, column)` alone, so the concurrent runtime path runs it
//! per attribute on the attribute chains' CPU lane, as soon as that
//! attribute's training data is ready, with bit-identical predictions to the
//! sequential loop.

use super::training_data::ColumnTrainingData;
use crate::config::{CriteriaEngine, ZeroEdConfig};
use std::collections::HashMap;
use zeroed_cluster::DedupPoints;
use zeroed_criteria::CompiledSet;
use zeroed_features::{FeatureMatrix, FittedFeatures};
use zeroed_ml::{Mlp, MlpConfig, StandardScaler};
use zeroed_table::Table;

/// One attribute's detector output.
#[derive(Debug, Clone, Default)]
pub struct ColumnPrediction {
    /// One `is_error` flag per row.
    pub flags: Vec<bool>,
    /// Augmented error examples left out of training because their feature
    /// width differs from the column's unified vectors (see
    /// `PipelineStats::augmented_dropped`).
    pub augmented_dropped: usize,
}

/// Trains the per-attribute detector on the column's unified feature matrix
/// and predicts every cell of the column: [`train_and_predict_distinct`]
/// over the matrix's distinct rows, with the same flags. Returns one
/// `is_error` flag per row. `ZeroEd::detect` calls
/// [`train_and_predict_distinct`] directly and never builds the matrix.
pub fn train_and_predict(
    table: &Table,
    column: usize,
    fitted: &FittedFeatures<'_>,
    unified: &FeatureMatrix,
    data: &ColumnTrainingData,
    config: &ZeroEdConfig,
) -> Vec<bool> {
    let dd = DedupPoints::build(&unified.row_refs());
    train_and_predict_distinct(table, column, fitted, dd, data, config).flags
}

/// Trains the per-attribute detector on the column's distinct unified
/// vectors `dd` (one code per table row) and predicts every cell of the
/// column. Consumes `dd`: its vectors are standardised in place.
pub fn train_and_predict_distinct(
    table: &Table,
    column: usize,
    fitted: &FittedFeatures<'_>,
    mut dd: DedupPoints,
    data: &ColumnTrainingData,
    config: &ZeroEdConfig,
) -> ColumnPrediction {
    let n_rows = table.n_rows();
    if n_rows == 0 {
        return ColumnPrediction::default();
    }
    debug_assert_eq!(dd.n_rows(), n_rows, "one code per table row");

    // Augmented error examples: featurise the fabricated value in the context
    // of its source row. When criteria features are in use, the fabricated
    // value is re-checked against the column's criteria so the extra block
    // stays consistent. On the compiled engine the set is lowered once here
    // and reused for every augmented example.
    let compiled_criteria: Option<CompiledSet> = match (config.criteria_engine, &data.criteria) {
        (CriteriaEngine::Compiled, Some(set)) => Some(zeroed_criteria::compile_set(set)),
        _ => None,
    };
    let mut augmented_rows: Vec<Vec<f32>> = Vec::new();
    let mut augmented_dropped = 0;
    for (context_row, value) in &data.augmented {
        let extra_override: Option<Vec<f32>> = data.criteria.as_ref().map(|set| {
            augmented_criteria_features(
                table,
                set,
                compiled_criteria.as_ref(),
                *context_row,
                column,
                value,
            )
        });
        let feat = fitted.unified_row(
            *context_row,
            column,
            Some(value.as_str()),
            extra_override.as_deref(),
        );
        // Guard against dimension drift (e.g. refined criteria adding checks):
        // only use the example when its dimensionality matches the column's
        // vectors, and count the rest.
        if feat.len() == dd.dim() {
            augmented_rows.push(feat);
        } else {
            augmented_dropped += 1;
        }
    }

    let n_error = data.error_rows.len() + augmented_rows.len();
    let n_clean = data.clean_rows.len();
    if n_error == 0 || n_clean == 0 {
        // Degenerate training data: predict the majority class we saw (or
        // "clean" when we saw nothing at all), mirroring the behaviour of a
        // classifier trained on a single class.
        let default_flag = n_error > 0;
        return ColumnPrediction {
            flags: vec![default_flag; n_rows],
            augmented_dropped,
        };
    }

    // Weighted dedup training set: one slot per (distinct vector, label) —
    // the label is part of the key because identical feature vectors can
    // legitimately carry both labels — weighted by how many training rows
    // fold into it. Slots are created in first-occurrence order (clean rows,
    // then error rows, then augmented examples), keeping the set
    // deterministic.
    let mut slot_of: HashMap<(u32, bool), usize> = HashMap::new();
    let mut slot_codes: Vec<u32> = Vec::new();
    let mut labels: Vec<f32> = Vec::new();
    let mut weights: Vec<f32> = Vec::new();
    let mut upsert = |row: usize, is_error: bool| {
        let code = dd.codes()[row];
        match slot_of.entry((code, is_error)) {
            std::collections::hash_map::Entry::Occupied(e) => weights[*e.get()] += 1.0,
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(slot_codes.len());
                slot_codes.push(code);
                labels.push(if is_error { 1.0 } else { 0.0 });
                weights.push(1.0);
            }
        }
    };
    for &row in &data.clean_rows {
        upsert(row, false);
    }
    for &row in &data.error_rows {
        upsert(row, true);
    }

    // Oversample the minority error class (at most 4x) so the cross-entropy
    // objective does not collapse to the majority class; this complements the
    // LLM augmentation, which is capped per column. In weighted form the
    // oversample ratio simply multiplies every error example's weight.
    let oversample = if n_error * 2 < n_clean {
        (n_clean / n_error).clamp(1, 4) as f32
    } else {
        1.0
    };
    for (w, l) in weights.iter_mut().zip(labels.iter()) {
        if *l > 0.5 {
            *w *= oversample;
        }
    }

    // Fit the scaler on the weighted training set (distinct training vectors
    // plus the augmented examples), mirroring the former fit over the
    // oversampled expanded rows.
    let mut train_refs: Vec<&[f32]> = slot_codes
        .iter()
        .map(|&c| dd.unique_row(c as usize))
        .collect();
    for row in &augmented_rows {
        train_refs.push(row.as_slice());
        labels.push(1.0);
        weights.push(oversample);
    }
    let scaler = StandardScaler::fit_weighted(&train_refs, &weights);

    // Standardise every distinct vector and augmented example once, in
    // place; the distinct vectors serve both training (slots reference
    // their row by code) and prediction below.
    dd.map_unique_rows(|row| scaler.transform_in_place(row));
    for row in &mut augmented_rows {
        scaler.transform_in_place(row);
    }
    let scaled_train: Vec<&[f32]> = slot_codes
        .iter()
        .map(|&c| dd.unique_row(c as usize))
        .chain(augmented_rows.iter().map(Vec::as_slice))
        .collect();
    // The dedup set holds `t` slots standing in for `expanded` virtual rows,
    // so one epoch now provides `t/expanded` of the former optimiser steps —
    // running the configured epochs unchanged would underfit badly. Scale the
    // epoch count to reach the former step count, capped at
    // `DEDUP_STEP_CAP`: the capped regime is (near-)full-batch gradient
    // descent over the small weighted problem, which converges in far fewer
    // steps than the per-row SGD sweep it replaces. When the column is
    // mostly distinct (t ≈ expanded) the clamp floor keeps the configured
    // epochs and this degenerates to the former schedule.
    const DEDUP_STEP_CAP: usize = 512;
    // Hard ceiling on the Adam steps any single attribute may spend. The
    // configured schedule (epochs × rows / batch) grows linearly with the
    // table, so at 50k rows a high-cardinality attribute would pay ~9400
    // steps, over 18x the `DEDUP_STEP_CAP` that the detector (64 hidden units
    // by default, 24 in `ZeroEdConfig::fast()`) trains with when dedup
    // collapses its set. The budget (~2.6 passes over 50k rows at batch 64)
    // only binds on large attributes; every configured schedule below it is
    // untouched, so small-table behaviour — and every quality test — is
    // unchanged.
    const TRAIN_STEP_BUDGET: usize = 2_048;
    let batch = config.mlp.batch_size.max(1);
    let expanded = weights.iter().sum::<f32>().round() as usize;
    let steps_per_epoch = scaled_train.len().div_ceil(batch).max(1);
    let expanded_steps = config.mlp.epochs * expanded.div_ceil(batch).max(1);
    let config_steps = config.mlp.epochs * steps_per_epoch;
    let target_steps = expanded_steps
        .clamp(config_steps, DEDUP_STEP_CAP.max(config_steps))
        .min(TRAIN_STEP_BUDGET.max(DEDUP_STEP_CAP));
    let mlp_config = MlpConfig {
        epochs: target_steps.div_ceil(steps_per_epoch),
        seed: config
            .mlp
            .seed
            .wrapping_add(config.seed)
            .wrapping_add(column as u64),
        ..config.mlp.clone()
    };
    let mlp = Mlp::fit_weighted(&scaled_train, &labels, &weights, &mlp_config);

    // Predict each distinct vector once and scatter the flags back to rows
    // by code.
    let scaled: Vec<&[f32]> = (0..dd.n_unique()).map(|u| dd.unique_row(u)).collect();
    let flags: Vec<bool> = mlp
        .predict_proba_batch(&scaled)
        .into_iter()
        .map(|p| p >= 0.5)
        .collect();
    ColumnPrediction {
        flags: dd.scatter(&flags),
        augmented_dropped,
    }
}

/// Evaluates the column's criteria for a fabricated value placed in the
/// context of an existing row, producing the extra (criteria) feature block
/// for that synthetic cell. When `compiled` is given the pre-lowered VM
/// programs run instead of the AST walk (bit-identical by the differential
/// contract).
fn augmented_criteria_features(
    table: &Table,
    criteria: &zeroed_criteria::CriteriaSet,
    compiled: Option<&CompiledSet>,
    context_row: usize,
    column: usize,
    value: &str,
) -> Vec<f32> {
    // Build a single-row scratch table holding the context row with the
    // fabricated value substituted, so row-level checks (FD lookups, keyword
    // consistency) still see the correct surrounding values.
    let mut row = table
        .row(context_row)
        .map(|r| r.to_vec())
        .unwrap_or_else(|_| vec![String::new(); table.n_cols()]);
    if column < row.len() {
        row[column] = value.to_string();
    }
    let scratch = Table::new("scratch", table.columns().to_vec(), vec![row])
        .expect("scratch row matches the schema");
    let verdicts = match compiled {
        Some(compiled) => compiled.eval_cell(&scratch, 0),
        None => criteria.evaluate_cell(&scratch, 0),
    };
    verdicts
        .into_iter()
        .map(|b| if b { 1.0 } else { 0.0 })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use zeroed_criteria::{Check, CriteriaSet, Criterion};
    use zeroed_features::{FeatureBuilder, FeatureConfig};

    fn table() -> Table {
        let rows: Vec<Vec<String>> = (0..120)
            .map(|i| {
                let city = ["Boston", "Denver", "Phoenix"][i % 3];
                let state = if i == 5 || i == 17 {
                    "XX"
                } else {
                    ["MA", "CO", "AZ"][i % 3]
                };
                vec![city.to_string(), state.to_string()]
            })
            .collect();
        Table::new("t", vec!["city".into(), "state".into()], rows).unwrap()
    }

    fn training_data() -> ColumnTrainingData {
        ColumnTrainingData {
            clean_rows: (0..120).filter(|&i| i != 5 && i != 17).collect(),
            error_rows: vec![5, 17],
            augmented: vec![(0, "".to_string()), (1, "Q9".to_string())],
            criteria: Some(CriteriaSet {
                column: 1,
                criteria: vec![Criterion::new(
                    "is_clean_state_domain",
                    "known states",
                    Check::Domain {
                        allowed: ["ma", "co", "az"].iter().map(|s| s.to_string()).collect(),
                    },
                )],
            }),
            propagated_cells: 100,
        }
    }

    #[test]
    fn detector_finds_the_planted_errors() {
        let t = table();
        let data = training_data();
        let set = data.criteria.as_ref().unwrap();
        let extra = vec![
            FeatureMatrix::zeros(0, 0),
            FeatureMatrix::from_flat(
                t.n_rows(),
                set.len(),
                zeroed_criteria::criteria_features_dict(set, &t.intern()),
            ),
        ];
        let builder = FeatureBuilder::new(FeatureConfig {
            embed_dim: 8,
            top_k_corr: 1,
            ..FeatureConfig::default()
        });
        let fitted = builder.fit(&t, &extra);
        let unified = fitted.unified_matrix(1);
        let config = ZeroEdConfig::fast();
        let preds = train_and_predict(&t, 1, &fitted, &unified, &data, &config);
        assert_eq!(preds.len(), 120);
        assert!(preds[5], "row 5 should be flagged");
        assert!(preds[17], "row 17 should be flagged");
        let false_positives = preds
            .iter()
            .enumerate()
            .filter(|(i, &p)| p && *i != 5 && *i != 17)
            .count();
        assert!(
            false_positives < 12,
            "too many false positives: {false_positives}"
        );
    }

    #[test]
    fn degenerate_training_data_predicts_single_class() {
        let t = table();
        let builder = FeatureBuilder::new(FeatureConfig {
            embed_dim: 4,
            top_k_corr: 0,
            ..FeatureConfig::default()
        });
        let fitted = builder.fit(&t, &[]);
        let unified = fitted.unified_matrix(1);
        let config = ZeroEdConfig::fast();
        // Only clean rows → everything predicted clean.
        let clean_only = ColumnTrainingData {
            clean_rows: (0..50).collect(),
            ..Default::default()
        };
        let preds = train_and_predict(&t, 1, &fitted, &unified, &clean_only, &config);
        assert!(preds.iter().all(|&p| !p));
        // No training data at all → everything clean as well.
        let none = ColumnTrainingData::default();
        let preds = train_and_predict(&t, 1, &fitted, &unified, &none, &config);
        assert!(preds.iter().all(|&p| !p));
    }

    /// Augmented examples whose width differs from the column's vectors
    /// are left out of training and counted.
    #[test]
    fn augmented_examples_of_another_width_are_counted() {
        let t = table();
        let mut data = training_data();
        let builder = FeatureBuilder::new(FeatureConfig {
            embed_dim: 8,
            top_k_corr: 1,
            ..FeatureConfig::default()
        });
        let config = ZeroEdConfig::fast();
        // The fitted vectors carry no criteria block while the training
        // data checks one criterion: both augmented examples are one value
        // wider than the column's vectors.
        let fitted = builder.fit(&t, &[]);
        let dropped = |data: &ColumnTrainingData| {
            let dd = crate::pipeline::features::distinct_vectors(&fitted, 1);
            train_and_predict_distinct(&t, 1, &fitted, dd, data, &config).augmented_dropped
        };
        assert_eq!(dropped(&data), 2);
        // Without criteria the widths agree and nothing is dropped.
        data.criteria = None;
        assert_eq!(dropped(&data), 0);
        // A degenerate training set still reports what it dropped.
        data.clean_rows.clear();
        data.criteria = training_data().criteria;
        assert_eq!(dropped(&data), 2);
    }

    #[test]
    fn augmented_criteria_features_reflect_the_substituted_value() {
        let t = table();
        let set = training_data().criteria.unwrap();
        let compiled = zeroed_criteria::compile_set(&set);
        for (value, expect) in [("MA", vec![1.0]), ("not-a-state", vec![0.0])] {
            let vm = augmented_criteria_features(&t, &set, Some(&compiled), 0, 1, value);
            let ast = augmented_criteria_features(&t, &set, None, 0, 1, value);
            assert_eq!(vm, expect);
            assert_eq!(vm, ast, "engines must agree on {value:?}");
        }
    }
}
