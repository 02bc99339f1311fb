//! A two-layer multilayer perceptron for binary cell classification.
//!
//! Architecture (paper §III-D): `input → hidden (ReLU) → 1 (sigmoid)`, trained
//! with the binary cross-entropy loss and the Adam optimiser on mini-batches.
//!
//! Two trainers share the algorithm:
//!
//! * [`Mlp::train`] — the scalar per-example loop, kept as the equivalence
//!   oracle.
//! * [`Mlp::train_batched`] / [`Mlp::train_weighted`] — the production fast
//!   path. It runs entirely on the calling thread; parallelism comes from the
//!   caller training one network per attribute on separate workers.
//!
//! The fast path is a *lane-wise* kernel. Once per mini-batch it transposes
//! `w1` into an `input_dim × hidden` buffer, so the weights every hidden unit
//! applies to input `i` sit in one contiguous row. The forward pass then
//! sweeps the inputs once per example with the hidden units as independent
//! lanes, `h[j] += w1t[i * hidden + j] * x[i]`, writing into one reused
//! `batch × hidden` buffer. No per-example `Vec` is allocated. Each `h[j]`
//! still receives its terms in the scalar `i = 0..input_dim` order, with no
//! fused multiply-add and no reassociation. The backward pass walks hidden
//! units in order and sums each unit's batch contributions in example order:
//! `gb1[j]`/`gw2[j]` accumulate over examples, and row `j` of the `w1`
//! gradient is an axpy per example that skips the examples where unit `j`
//! is inactive. Every f32 location therefore adds the same terms in the
//! same order as the scalar loop, and the trained parameters are
//! bit-identical to [`Mlp::train`]'s. [`Mlp::predict_proba_batch`] runs the
//! same forward kernel with one transpose per call.
//!
//! [`Mlp::train_weighted`] folds a per-example weight into `dL/dlogit` (and
//! the loss), which with unit weights multiplies by `1.0` exactly — so
//! `train_batched` *is* `train_weighted` with weights of one, and both are
//! covered by the same oracle. The weighted form is what lets
//! `zeroed-core`'s detector train on deduplicated feature rows weighted by
//! multiplicity instead of `n` expanded copies.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// MLP hyper-parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MlpConfig {
    /// Hidden layer width.
    pub hidden: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Adam learning rate.
    pub learning_rate: f32,
    /// L2 weight decay.
    pub weight_decay: f32,
    /// PRNG seed for initialisation and shuffling.
    pub seed: u64,
}

impl Default for MlpConfig {
    fn default() -> Self {
        Self {
            hidden: 64,
            epochs: 30,
            batch_size: 64,
            learning_rate: 1e-3,
            weight_decay: 1e-5,
            seed: 42,
        }
    }
}

/// Dense parameter matrix with Adam state.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Param {
    value: Vec<f32>,
    m: Vec<f32>,
    v: Vec<f32>,
}

impl Param {
    fn new(len: usize) -> Self {
        Self {
            value: vec![0.0; len],
            m: vec![0.0; len],
            v: vec![0.0; len],
        }
    }

    fn adam_step(&mut self, grad: &[f32], lr: f32, t: usize, weight_decay: f32) {
        const B1: f32 = 0.9;
        const B2: f32 = 0.999;
        const EPS: f32 = 1e-8;
        // The bias-correction factors depend only on the step count — hoist
        // them so each step costs O(1) `powi` calls instead of O(params).
        let t = t as i32;
        let m_corr = 1.0 / (1.0 - B1.powi(t));
        let v_corr = 1.0 / (1.0 - B2.powi(t));
        for i in 0..self.value.len() {
            let g = grad[i] + weight_decay * self.value[i];
            self.m[i] = B1 * self.m[i] + (1.0 - B1) * g;
            self.v[i] = B2 * self.v[i] + (1.0 - B2) * g * g;
            let m_hat = self.m[i] * m_corr;
            let v_hat = self.v[i] * v_corr;
            self.value[i] -= lr * m_hat / (v_hat.sqrt() + EPS);
        }
    }
}

/// A trained two-layer MLP.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Mlp {
    input_dim: usize,
    hidden: usize,
    w1: Param,
    b1: Param,
    w2: Param,
    b2: Param,
    steps: usize,
}

fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

impl Mlp {
    /// Creates an untrained MLP with Xavier-style initialisation.
    pub fn new(input_dim: usize, config: &MlpConfig) -> Self {
        let hidden = config.hidden.max(1);
        let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
        let scale1 = (2.0 / (input_dim.max(1) + hidden) as f32).sqrt();
        let scale2 = (2.0 / (hidden + 1) as f32).sqrt();
        let mut w1 = Param::new(input_dim * hidden);
        for w in w1.value.iter_mut() {
            *w = (rng.gen::<f32>() * 2.0 - 1.0) * scale1;
        }
        let mut w2 = Param::new(hidden);
        for w in w2.value.iter_mut() {
            *w = (rng.gen::<f32>() * 2.0 - 1.0) * scale2;
        }
        Self {
            input_dim,
            hidden,
            w1,
            b1: Param::new(hidden),
            w2,
            b2: Param::new(1),
            steps: 0,
        }
    }

    /// Input dimensionality the network expects.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Forward pass returning `(hidden_activations, probability)`.
    fn forward(&self, x: &[f32]) -> (Vec<f32>, f32) {
        debug_assert_eq!(x.len(), self.input_dim);
        let mut h = vec![0.0f32; self.hidden];
        for j in 0..self.hidden {
            let mut acc = self.b1.value[j];
            let weights = &self.w1.value[j * self.input_dim..(j + 1) * self.input_dim];
            for (w, &xi) in weights.iter().zip(x.iter()) {
                acc += w * xi;
            }
            h[j] = acc.max(0.0);
        }
        let mut out = self.b2.value[0];
        for (w, &hj) in self.w2.value.iter().zip(h.iter()) {
            out += w * hj;
        }
        (h, sigmoid(out))
    }

    /// Writes `w1` transposed into `w1t`: `input_dim × hidden`, row `i`
    /// holding every hidden unit's weight on input `i`.
    fn transpose_w1(&self, w1t: &mut [f32]) {
        for (i, lanes) in w1t.chunks_exact_mut(self.hidden).enumerate() {
            for (j, w) in lanes.iter_mut().enumerate() {
                *w = self.w1.value[j * self.input_dim + i];
            }
        }
    }

    /// The lane-wise forward pass of one example against a transposed `w1`
    /// ([`Mlp::transpose_w1`]): fills `h` with the hidden activations and
    /// returns the probability. Bit-identical to [`Mlp::forward`], because
    /// every `h[j]` adds its terms in the same `i = 0..input_dim` order.
    fn forward_lanes(&self, w1t: &[f32], x: &[f32], h: &mut [f32]) -> f32 {
        debug_assert_eq!(x.len(), self.input_dim);
        h.copy_from_slice(&self.b1.value);
        for (&xi, lanes) in x.iter().zip(w1t.chunks_exact(self.hidden)) {
            for (hj, &w) in h.iter_mut().zip(lanes) {
                *hj += w * xi;
            }
        }
        let mut out = self.b2.value[0];
        for (hj, &w) in h.iter_mut().zip(&self.w2.value) {
            *hj = hj.max(0.0);
            out += w * *hj;
        }
        sigmoid(out)
    }

    /// Predicted probability that the row is an error (positive class).
    pub fn predict_proba(&self, x: &[f32]) -> f32 {
        self.forward(x).1
    }

    /// Hard prediction at the 0.5 threshold.
    pub fn predict(&self, x: &[f32]) -> bool {
        self.predict_proba(x) >= 0.5
    }

    /// Trains the network on `(rows, labels)` (labels in `{0.0, 1.0}`) and
    /// returns the mean training loss of the final epoch.
    ///
    /// Rows must all have the configured input dimension; label and row counts
    /// must match. An empty training set leaves the network untouched and
    /// returns 0.
    pub fn train(&mut self, rows: &[&[f32]], labels: &[f32], config: &MlpConfig) -> f32 {
        assert_eq!(rows.len(), labels.len(), "rows and labels must align");
        if rows.is_empty() {
            return 0.0;
        }
        let n = rows.len();
        let mut order: Vec<usize> = (0..n).collect();
        let mut rng = ChaCha8Rng::seed_from_u64(config.seed.wrapping_add(1));
        let batch = config.batch_size.max(1);
        let mut last_epoch_loss = 0.0f32;

        // Gradient buffers reused across batches.
        let mut gw1 = vec![0.0f32; self.w1.value.len()];
        let mut gb1 = vec![0.0f32; self.b1.value.len()];
        let mut gw2 = vec![0.0f32; self.w2.value.len()];
        let mut gb2 = vec![0.0f32; 1];

        for _epoch in 0..config.epochs {
            // Fisher-Yates shuffle.
            for i in (1..n).rev() {
                let j = rng.gen_range(0..=i);
                order.swap(i, j);
            }
            let mut epoch_loss = 0.0f32;
            for chunk in order.chunks(batch) {
                gw1.iter_mut().for_each(|g| *g = 0.0);
                gb1.iter_mut().for_each(|g| *g = 0.0);
                gw2.iter_mut().for_each(|g| *g = 0.0);
                gb2[0] = 0.0;
                for &idx in chunk {
                    let x = rows[idx];
                    let y = labels[idx];
                    let (h, p) = self.forward(x);
                    let p_clamped = p.clamp(1e-7, 1.0 - 1e-7);
                    epoch_loss +=
                        -(y * p_clamped.ln() + (1.0 - y) * (1.0 - p_clamped).ln());
                    // dL/dlogit = p - y
                    let dlogit = p - y;
                    gb2[0] += dlogit;
                    for j in 0..self.hidden {
                        gw2[j] += dlogit * h[j];
                    }
                    for j in 0..self.hidden {
                        if h[j] <= 0.0 {
                            continue;
                        }
                        let dh = dlogit * self.w2.value[j];
                        gb1[j] += dh;
                        let grad_row = &mut gw1[j * self.input_dim..(j + 1) * self.input_dim];
                        for (g, &xi) in grad_row.iter_mut().zip(x.iter()) {
                            *g += dh * xi;
                        }
                    }
                }
                let scale = 1.0 / chunk.len() as f32;
                gw1.iter_mut().for_each(|g| *g *= scale);
                gb1.iter_mut().for_each(|g| *g *= scale);
                gw2.iter_mut().for_each(|g| *g *= scale);
                gb2[0] *= scale;
                self.steps += 1;
                let t = self.steps;
                self.w1
                    .adam_step(&gw1, config.learning_rate, t, config.weight_decay);
                self.b1.adam_step(&gb1, config.learning_rate, t, 0.0);
                self.w2
                    .adam_step(&gw2, config.learning_rate, t, config.weight_decay);
                self.b2.adam_step(&gb2, config.learning_rate, t, 0.0);
            }
            last_epoch_loss = epoch_loss / n as f32;
        }
        last_epoch_loss
    }

    /// Batched fast-path trainer: the lane-wise kernel of the module docs,
    /// bit-identical to [`Mlp::train`].
    pub fn train_batched(&mut self, rows: &[&[f32]], labels: &[f32], config: &MlpConfig) -> f32 {
        self.train_weighted(rows, labels, &vec![1.0f32; rows.len()], config)
    }

    /// [`Mlp::train_batched`] with a positive weight per example: each
    /// example's gradient and loss contribution is scaled by its weight, and
    /// batch gradients are weighted means (divided by the batch's total
    /// weight instead of its length). With unit weights this is bit-identical
    /// to [`Mlp::train`]; with integer weights it trains on a deduplicated
    /// set as if each row appeared `weight` times in every batch its distinct
    /// vector lands in.
    pub fn train_weighted(
        &mut self,
        rows: &[&[f32]],
        labels: &[f32],
        weights: &[f32],
        config: &MlpConfig,
    ) -> f32 {
        assert_eq!(rows.len(), labels.len(), "rows and labels must align");
        assert_eq!(rows.len(), weights.len(), "rows and weights must align");
        debug_assert!(weights.iter().all(|&w| w > 0.0), "weights must be positive");
        if rows.is_empty() {
            return 0.0;
        }
        let n = rows.len();
        let mut order: Vec<usize> = (0..n).collect();
        let mut rng = ChaCha8Rng::seed_from_u64(config.seed.wrapping_add(1));
        let batch = config.batch_size.max(1);
        let total_weight: f32 = weights.iter().sum();
        let mut last_epoch_loss = 0.0f32;

        let (input_dim, hidden) = (self.input_dim, self.hidden);
        let mut gw1 = vec![0.0f32; self.w1.value.len()];
        let mut gb1 = vec![0.0f32; self.b1.value.len()];
        let mut gw2 = vec![0.0f32; self.w2.value.len()];
        let mut gb2 = vec![0.0f32; 1];
        // Kernel buffers reused across batches: the transposed `w1`, the
        // batch's hidden activations (one `hidden`-wide row per example) and
        // its weighted `dL/dlogit`s.
        let mut w1t = vec![0.0f32; self.w1.value.len()];
        let mut acts = vec![0.0f32; batch.min(n) * hidden];
        let mut wdlogits = Vec::with_capacity(batch.min(n));

        for _epoch in 0..config.epochs {
            // Fisher-Yates shuffle — same RNG stream as the scalar trainer.
            for i in (1..n).rev() {
                let j = rng.gen_range(0..=i);
                order.swap(i, j);
            }
            let mut epoch_loss = 0.0f32;
            for chunk in order.chunks(batch) {
                // Forward the batch against this step's frozen parameters,
                // accumulating the loss, `b2` and the batch weight in
                // example order (scalar-order f32 sums).
                self.transpose_w1(&mut w1t);
                let acts = &mut acts[..chunk.len() * hidden];
                gb2[0] = 0.0;
                let mut chunk_weight = 0.0f32;
                wdlogits.clear();
                for (&idx, h) in chunk.iter().zip(acts.chunks_exact_mut(hidden)) {
                    let p = self.forward_lanes(&w1t, rows[idx], h);
                    let y = labels[idx];
                    let w = weights[idx];
                    let p_clamped = p.clamp(1e-7, 1.0 - 1e-7);
                    epoch_loss +=
                        w * -(y * p_clamped.ln() + (1.0 - y) * (1.0 - p_clamped).ln());
                    let wdlogit = w * (p - y);
                    gb2[0] += wdlogit;
                    chunk_weight += w;
                    wdlogits.push(wdlogit);
                }
                // Backward, one hidden unit at a time: unit `j` sums its
                // `gb1`, `gw2` and `gw1`-row terms over the batch in example
                // order — the scalar trainer's addition order for each
                // location.
                for j in 0..hidden {
                    let w2_j = self.w2.value[j];
                    let grad_row = &mut gw1[j * input_dim..(j + 1) * input_dim];
                    grad_row.fill(0.0);
                    let mut gb1_j = 0.0f32;
                    let mut gw2_j = 0.0f32;
                    for ((&idx, h), &wdlogit) in
                        chunk.iter().zip(acts.chunks_exact(hidden)).zip(&wdlogits)
                    {
                        gw2_j += wdlogit * h[j];
                        if h[j] <= 0.0 {
                            continue;
                        }
                        let dh = wdlogit * w2_j;
                        gb1_j += dh;
                        for (g, &xi) in grad_row.iter_mut().zip(rows[idx]) {
                            *g += dh * xi;
                        }
                    }
                    gb1[j] = gb1_j;
                    gw2[j] = gw2_j;
                }
                let scale = 1.0 / chunk_weight;
                gw1.iter_mut().for_each(|g| *g *= scale);
                gb1.iter_mut().for_each(|g| *g *= scale);
                gw2.iter_mut().for_each(|g| *g *= scale);
                gb2[0] *= scale;
                self.steps += 1;
                let t = self.steps;
                self.w1
                    .adam_step(&gw1, config.learning_rate, t, config.weight_decay);
                self.b1.adam_step(&gb1, config.learning_rate, t, 0.0);
                self.w2
                    .adam_step(&gw2, config.learning_rate, t, config.weight_decay);
                self.b2.adam_step(&gb2, config.learning_rate, t, 0.0);
            }
            last_epoch_loss = epoch_loss / total_weight;
        }
        last_epoch_loss
    }

    /// Predicted probabilities for a batch of rows through the lane-wise
    /// forward kernel (one `w1` transpose per call); bit-identical to calling
    /// [`Mlp::predict_proba`] per row.
    pub fn predict_proba_batch(&self, rows: &[&[f32]]) -> Vec<f32> {
        let mut w1t = vec![0.0f32; self.w1.value.len()];
        self.transpose_w1(&mut w1t);
        let mut h = vec![0.0f32; self.hidden];
        rows.iter()
            .map(|row| self.forward_lanes(&w1t, row, &mut h))
            .collect()
    }

    /// Convenience: constructs and trains an MLP in one call through the
    /// batched fast path (bit-identical to training with [`Mlp::train`]).
    pub fn fit(rows: &[&[f32]], labels: &[f32], config: &MlpConfig) -> Mlp {
        let input_dim = rows.first().map(|r| r.len()).unwrap_or(0);
        let mut mlp = Mlp::new(input_dim, config);
        mlp.train_batched(rows, labels, config);
        mlp
    }

    /// Constructs and trains a weighted MLP in one call (the detector's
    /// dedup-weighted entry point).
    pub fn fit_weighted(rows: &[&[f32]], labels: &[f32], weights: &[f32], config: &MlpConfig) -> Mlp {
        let input_dim = rows.first().map(|r| r.len()).unwrap_or(0);
        let mut mlp = Mlp::new(input_dim, config);
        mlp.train_weighted(rows, labels, weights, config);
        mlp
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xor_data() -> (Vec<Vec<f32>>, Vec<f32>) {
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for _rep in 0..50 {
            for (a, b) in [(0.0f32, 0.0f32), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)] {
                rows.push(vec![a, b]);
                labels.push(if (a > 0.5) != (b > 0.5) { 1.0 } else { 0.0 });
            }
        }
        (rows, labels)
    }

    #[test]
    fn learns_xor() {
        let (rows, labels) = xor_data();
        let refs: Vec<&[f32]> = rows.iter().map(|r| r.as_slice()).collect();
        let config = MlpConfig {
            hidden: 16,
            epochs: 200,
            batch_size: 16,
            learning_rate: 5e-3,
            ..Default::default()
        };
        let mlp = Mlp::fit(&refs, &labels, &config);
        for (row, &y) in rows.iter().zip(labels.iter()) {
            assert_eq!(mlp.predict(row), y > 0.5, "row {row:?}");
        }
    }

    #[test]
    fn learns_linearly_separable_data() {
        let rows: Vec<Vec<f32>> = (0..200)
            .map(|i| vec![(i % 20) as f32 / 20.0, ((i * 7) % 13) as f32 / 13.0])
            .collect();
        let labels: Vec<f32> = rows
            .iter()
            .map(|r| if r[0] > 0.5 { 1.0 } else { 0.0 })
            .collect();
        let refs: Vec<&[f32]> = rows.iter().map(|r| r.as_slice()).collect();
        let mlp = Mlp::fit(
            &refs,
            &labels,
            &MlpConfig {
                epochs: 120,
                ..Default::default()
            },
        );
        let correct = rows
            .iter()
            .zip(labels.iter())
            .filter(|(r, &y)| mlp.predict(r) == (y > 0.5))
            .count();
        assert!(correct >= 185, "only {correct}/200 correct");
    }

    #[test]
    fn gradient_matches_finite_differences() {
        // Single example; compare analytic dL/dw2[j] against finite differences.
        let config = MlpConfig {
            hidden: 4,
            seed: 3,
            ..Default::default()
        };
        let x = vec![0.3f32, -0.7, 0.9];
        let y = 1.0f32;
        let mlp = Mlp::new(3, &config);
        let loss_of = |m: &Mlp| {
            let p = m.predict_proba(&x).clamp(1e-7, 1.0 - 1e-7);
            -(y * p.ln() + (1.0 - y) * (1.0 - p).ln())
        };
        // Analytic gradient for w2.
        let (h, p) = mlp.forward(&x);
        let dlogit = p - y;
        for j in 0..4 {
            let analytic = dlogit * h[j];
            let mut plus = mlp.clone();
            plus.w2.value[j] += 1e-3;
            let mut minus = mlp.clone();
            minus.w2.value[j] -= 1e-3;
            let numeric = (loss_of(&plus) - loss_of(&minus)) / 2e-3;
            assert!(
                (analytic - numeric).abs() < 1e-2,
                "w2[{j}]: analytic {analytic} vs numeric {numeric}"
            );
        }
    }

    #[test]
    fn probabilities_are_bounded() {
        let mlp = Mlp::new(5, &MlpConfig::default());
        let p = mlp.predict_proba(&[1.0, -2.0, 3.0, 0.0, 10.0]);
        assert!((0.0..=1.0).contains(&p));
    }

    #[test]
    fn empty_training_is_a_noop() {
        let mut mlp = Mlp::new(2, &MlpConfig::default());
        let loss = mlp.train(&[], &[], &MlpConfig::default());
        assert_eq!(loss, 0.0);
    }

    #[test]
    #[should_panic(expected = "rows and labels must align")]
    fn mismatched_labels_panic() {
        let mut mlp = Mlp::new(1, &MlpConfig::default());
        let rows = [vec![1.0f32]];
        let refs: Vec<&[f32]> = rows.iter().map(|r| r.as_slice()).collect();
        let _ = mlp.train(&refs, &[], &MlpConfig::default());
    }

    fn messy_data(n: usize) -> (Vec<Vec<f32>>, Vec<f32>) {
        // Non-integer values: exercises real f32 arithmetic, not just the
        // exact-sum regime.
        let rows: Vec<Vec<f32>> = (0..n)
            .map(|i| {
                vec![
                    (i % 17) as f32 * 0.37 - 2.1,
                    ((i * 13) % 29) as f32 * 0.11,
                    if i % 3 == 0 { -0.5 } else { 1.25 },
                ]
            })
            .collect();
        let labels: Vec<f32> = (0..n).map(|i| ((i * 7) % 5 < 2) as u8 as f32).collect();
        (rows, labels)
    }

    /// The batched trainer must produce bit-identical parameters (hence
    /// predictions) to the scalar oracle — including across multiple batches
    /// and a ragged final chunk.
    #[test]
    fn batched_training_is_bit_identical_to_scalar() {
        let (rows, labels) = messy_data(203);
        let config = MlpConfig {
            hidden: 8,
            epochs: 5,
            batch_size: 32,
            seed: 9,
            ..Default::default()
        };
        assert_kernel_matches_scalar(&rows, &labels, &config);
    }

    /// Unit weights must reduce `train_weighted` to `train_batched` exactly.
    #[test]
    fn unit_weights_are_bit_identical_to_unweighted() {
        let (rows, labels) = messy_data(97);
        let refs: Vec<&[f32]> = rows.iter().map(|r| r.as_slice()).collect();
        let config = MlpConfig {
            hidden: 6,
            epochs: 4,
            batch_size: 16,
            seed: 4,
            ..Default::default()
        };
        let mut unweighted = Mlp::new(3, &config);
        unweighted.train_batched(&refs, &labels, &config);
        let mut weighted = Mlp::new(3, &config);
        weighted.train_weighted(&refs, &labels, &vec![1.0; refs.len()], &config);
        assert_eq!(unweighted.w1.value, weighted.w1.value);
        assert_eq!(unweighted.w2.value, weighted.w2.value);
        assert_eq!(unweighted.b1.value, weighted.b1.value);
        assert_eq!(unweighted.b2.value, weighted.b2.value);
    }

    /// Weighted training still learns: duplicating a class via weights keeps
    /// the separable problem learnable.
    #[test]
    fn weighted_training_learns_linearly_separable_data() {
        let rows: Vec<Vec<f32>> = (0..120)
            .map(|i| vec![(i % 20) as f32 / 20.0, ((i * 7) % 13) as f32 / 13.0])
            .collect();
        let labels: Vec<f32> = rows
            .iter()
            .map(|r| if r[0] > 0.5 { 1.0 } else { 0.0 })
            .collect();
        let weights: Vec<f32> = labels.iter().map(|&y| if y > 0.5 { 3.0 } else { 1.0 }).collect();
        let refs: Vec<&[f32]> = rows.iter().map(|r| r.as_slice()).collect();
        let mlp = Mlp::fit_weighted(
            &refs,
            &labels,
            &weights,
            &MlpConfig {
                epochs: 150,
                learning_rate: 5e-3,
                ..Default::default()
            },
        );
        let correct = rows
            .iter()
            .zip(labels.iter())
            .filter(|(r, &y)| mlp.predict(r) == (y > 0.5))
            .count();
        assert!(correct >= 110, "only {correct}/120 correct");
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Trains the scalar oracle, `train_batched` and `fit_weighted` (unit
    /// weights) from the same initialisation, asserts that the loss, all four
    /// parameter vectors and every batch prediction are bit-identical, and
    /// returns the oracle.
    fn assert_kernel_matches_scalar(rows: &[Vec<f32>], labels: &[f32], config: &MlpConfig) -> Mlp {
        let refs: Vec<&[f32]> = rows.iter().map(|r| r.as_slice()).collect();
        let mut scalar = Mlp::new(refs.first().map_or(0, |r| r.len()), config);
        let scalar_loss = scalar.train(&refs, labels, config);
        let mut batched = Mlp::new(scalar.input_dim(), config);
        let batched_loss = batched.train_batched(&refs, labels, config);
        assert_eq!(scalar_loss.to_bits(), batched_loss.to_bits(), "loss");
        let fitted = Mlp::fit_weighted(&refs, labels, &vec![1.0; refs.len()], config);
        for kernel in [&batched, &fitted] {
            assert_eq!(bits(&scalar.w1.value), bits(&kernel.w1.value), "w1");
            assert_eq!(bits(&scalar.b1.value), bits(&kernel.b1.value), "b1");
            assert_eq!(bits(&scalar.w2.value), bits(&kernel.w2.value), "w2");
            assert_eq!(bits(&scalar.b2.value), bits(&kernel.b2.value), "b2");
        }
        let batch = fitted.predict_proba_batch(&refs);
        assert_eq!(batch.len(), refs.len());
        for (row, p) in refs.iter().zip(batch) {
            assert_eq!(scalar.predict_proba(row).to_bits(), p.to_bits());
        }
        scalar
    }

    /// Rows at the detector's shape from a SplitMix64 hash: values in
    /// (-4, 4) with exact `0.0` and `-0.0` entries mixed in, and every fifth
    /// row scaled by 50 so that it drives many hidden units inactive.
    fn detector_shape_data(n: usize, dim: usize) -> (Vec<Vec<f32>>, Vec<f32>) {
        let mix = |mut z: u64| {
            z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let rows = (0..n)
            .map(|r| {
                let gain = if r % 5 == 0 { 50.0 } else { 1.0 };
                (0..dim)
                    .map(|c| {
                        let z = mix((r * dim + c) as u64);
                        match z % 9 {
                            0 => 0.0,
                            1 => -0.0,
                            _ => ((z >> 40) as f32 / (1u64 << 24) as f32 - 0.5) * 8.0 * gain,
                        }
                    })
                    .collect()
            })
            .collect();
        let labels = (0..n)
            .map(|r| (mix(!(r as u64)) % 3 == 0) as u8 as f32)
            .collect();
        (rows, labels)
    }

    /// The kernel at the production detector's shape (hidden 64, batch 64)
    /// with an odd input width (113: vector loops over inputs end in a
    /// remainder) and a ragged last chunk (203 = 3 × 64 + 11).
    #[test]
    fn detector_shape_kernel_is_bit_identical_to_scalar() {
        let (rows, labels) = detector_shape_data(203, 113);
        let config = MlpConfig {
            hidden: 64,
            epochs: 3,
            batch_size: 64,
            seed: 17,
            ..Default::default()
        };
        let oracle = assert_kernel_matches_scalar(&rows, &labels, &config);
        // The inputs must exercise both backward branches.
        let (mut active, mut inactive) = (0usize, 0usize);
        for row in &rows {
            let (h, _) = oracle.forward(row);
            active += h.iter().filter(|&&a| a > 0.0).count();
            inactive += h.iter().filter(|&&a| a <= 0.0).count();
        }
        assert!(
            active > 0 && inactive > 0,
            "active {active}, inactive {inactive}"
        );
        // A hidden width that is not a multiple of any vector width covers
        // the remainder lanes of the forward kernel.
        let odd = MlpConfig {
            hidden: 61,
            ..config
        };
        assert_kernel_matches_scalar(&rows, &labels, &odd);
    }

    /// Zero-width rows (the `w1` gradient has empty rows) and single-row
    /// training sets finish and equal the scalar path.
    #[test]
    fn zero_width_and_single_rows_match_scalar() {
        let config = MlpConfig {
            hidden: 6,
            epochs: 3,
            batch_size: 4,
            seed: 5,
            ..Default::default()
        };
        let labels = [1.0f32, 0.0, 0.0, 1.0, 0.0];
        assert_kernel_matches_scalar(&vec![Vec::new(); 5], &labels, &config);
        assert_kernel_matches_scalar(&[Vec::new()], &[1.0], &config);
        let (rows, _) = detector_shape_data(1, 113);
        assert_kernel_matches_scalar(&rows, &[0.0], &config);
    }

    /// Batch prediction must match per-row prediction bitwise.
    #[test]
    fn batch_prediction_matches_per_row() {
        let (rows, labels) = messy_data(64);
        let refs: Vec<&[f32]> = rows.iter().map(|r| r.as_slice()).collect();
        let mlp = Mlp::fit(&refs, &labels, &MlpConfig {
            hidden: 5,
            epochs: 3,
            ..Default::default()
        });
        let batch = mlp.predict_proba_batch(&refs);
        for (row, &p) in refs.iter().zip(batch.iter()) {
            assert_eq!(mlp.predict_proba(row).to_bits(), p.to_bits());
        }
    }
}
