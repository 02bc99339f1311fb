//! Detector (MLP) training and inference throughput (paper §III-D), at the
//! shape the paper-default detector trains on: 1,200 weighted rows × 111
//! inputs (an odd width, so every vector remainder path runs), hidden 64,
//! batch 64, 30 epochs (570 Adam steps).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use zeroed_ml::{Mlp, MlpConfig};

const ROWS: usize = 1_200;
const DIM: usize = 111;

/// Rows, labels and weights shaped like the detector's dedup-weighted
/// training set: standardised-looking inputs, about a third of the rows
/// labelled as errors, and integer multiplicities 1–7 with the error rows
/// oversampled 3x.
fn detector_shape() -> (Vec<Vec<f32>>, Vec<f32>, Vec<f32>) {
    let mix = |mut z: u64| {
        z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let rows: Vec<Vec<f32>> = (0..ROWS)
        .map(|r| {
            (0..DIM)
                .map(|c| {
                    ((mix((r * DIM + c) as u64) >> 40) as f32 / (1u64 << 24) as f32 - 0.5) * 4.0
                })
                .collect()
        })
        .collect();
    let labels: Vec<f32> = (0..ROWS)
        .map(|r| (mix(!(r as u64)) % 3 == 0) as u8 as f32)
        .collect();
    let weights = labels
        .iter()
        .enumerate()
        .map(|(r, &y)| (1 + mix(r as u64 ^ 0x5555) % 7) as f32 * if y > 0.5 { 3.0 } else { 1.0 })
        .collect();
    (rows, labels, weights)
}

fn bench_mlp(c: &mut Criterion) {
    let (rows, labels, weights) = detector_shape();
    let refs: Vec<&[f32]> = rows.iter().map(|r| r.as_slice()).collect();
    let config = MlpConfig::default();

    // Check before timing: at this shape the dispatched lane kernel must
    // train to its scalar oracle's loss and predictions bit for bit (see the
    // mlp module docs), so no run times a kernel that has drifted.
    let mut model = Mlp::new(DIM, &config);
    let mut oracle = model.clone();
    let loss = model.train_weighted(&refs, &labels, &weights, &config);
    let oracle_loss = oracle.train_weighted_scalar(&refs, &labels, &weights, &config);
    assert_eq!(loss.to_bits(), oracle_loss.to_bits(), "kernel loss");
    let probs = model.predict_proba_batch(&refs);
    for (r, (row, p)) in refs.iter().zip(&probs).enumerate() {
        let want = oracle.predict_proba(row);
        assert_eq!(p.to_bits(), want.to_bits(), "kernel prediction, row {r}");
    }

    c.bench_function("mlp/train_weighted_1200x111_30epochs", |b| {
        b.iter(|| {
            let mut mlp = Mlp::new(DIM, &config);
            black_box(mlp.train_weighted(&refs, &labels, &weights, &config))
        })
    });
    c.bench_function("mlp/train_weighted_scalar_1200x111_30epochs", |b| {
        b.iter(|| {
            let mut mlp = Mlp::new(DIM, &config);
            black_box(mlp.train_weighted_scalar(&refs, &labels, &weights, &config))
        })
    });

    c.bench_function("mlp/predict_1200x111", |b| {
        b.iter(|| {
            for row in &refs {
                black_box(model.predict_proba(row));
            }
        })
    });
    c.bench_function("mlp/predict_batch_1200x111", |b| {
        b.iter(|| black_box(model.predict_proba_batch(&refs)))
    });
}

criterion_group!(benches, bench_mlp);
criterion_main!(benches);
