//! A two-layer multilayer perceptron for binary cell classification.
//!
//! Architecture (paper §III-D): `input → hidden (ReLU) → 1 (sigmoid)`, trained
//! with the binary cross-entropy loss and the Adam optimiser on mini-batches.
//!
//! Two trainers share the algorithm:
//!
//! * [`Mlp::train_weighted_scalar`] — the scalar per-example loop with a
//!   positive weight per example, kept as the equivalence oracle.
//!   [`Mlp::train`] is its unit-weight call.
//! * [`Mlp::train_weighted`] / [`Mlp::train_batched`] — the production fast
//!   path. It runs entirely on the calling thread; parallelism comes from the
//!   caller training one network per attribute on separate workers.
//!
//! The fast path is a register-blocked *lane* kernel. Every f32 location it
//! writes receives the same terms, rounded by the same IEEE-754 operations
//! in the same order, as in the scalar loop — no fused multiply-add and no
//! reassociation — so the trained parameters are bit-identical. What changes
//! is which independent sums run side by side:
//!
//! * For the whole call, `w1` and its Adam moments are held input-major,
//!   `input_dim` rows of `width` lanes (`width` is `hidden` rounded up to a
//!   multiple of 8; the padding lanes stay zero), and copied back at the
//!   end. The Adam update is elementwise, so the layout changes no bit. Each
//!   mini-batch is copied into a zero-padded `batch × stride` buffer
//!   (`stride` is `input_dim` rounded up to a multiple of 8).
//! * **Forward:** the hidden units are the lanes. One example sweeps its
//!   inputs once per block of up to 64 units, with the block's running sums
//!   `h[j] += w1[j][i] · x[i]` in registers for the whole sweep; each sum
//!   still starts at `b1[j]` and adds its terms in `i` order. The output
//!   logits, each one dependent chain over `j`, are summed for eight
//!   examples side by side.
//! * **`gw2` and `gb1`:** summed example by example with the hidden units as
//!   lanes. An inactive unit adds `+0.0` to `gb1[j]` instead of being
//!   skipped. That is exact: `gb1[j]` starts at `+0.0`, and a round-to-nearest
//!   sum is `-0.0` only when both operands are, so it never becomes `-0.0`,
//!   and `s + 0.0 == s` for every other `s`.
//! * **`w1` gradient:** each unit first lists its active examples (the ones
//!   with `h[j] > 0`), branch-free. Its gradient row is then summed over that
//!   list in register blocks of up to 64 inputs of the padded batch — the
//!   scalar loop's per-location order — and written into the unit's lane of
//!   the input-major gradient.
//!
//! On x86-64 CPUs with AVX the whole call runs a copy of the same code
//! compiled for 256-bit vectors, chosen once per call at run time as
//! `zeroed_cluster::lanes` does. No `fma` target feature is enabled, and
//! every lane performs the same rounded multiply, add, square root and
//! divide at any vector width, so the choice changes no bit.
//! [`Mlp::predict_proba_batch`] runs the same forward kernel, dispatched the
//! same way, with one transpose per call. At the detector's shape (1,200
//! weighted rows × 111 inputs, hidden 64, batch 64, 570 Adam steps) the
//! kernel trains about 3x faster than the lane-wise loop it replaced
//! (`mlp_bench` on a 2-core Xeon with AVX-512: 130–145 ms → 39–46 ms).
//!
//! [`Mlp::train_weighted`] folds a per-example weight into `dL/dlogit` (and
//! the loss), which with unit weights multiplies by `1.0` exactly — so
//! `train_batched` *is* `train_weighted` with weights of one. The weighted
//! form is what lets `zeroed-core`'s detector train on deduplicated feature
//! rows weighted by multiplicity instead of `n` expanded copies.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// MLP hyper-parameters.
#[derive(Debug, Clone)]
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
#[derive(Debug, Clone)]
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

    /// One Adam update with the gradient `grad · scale` (the batch sum times
    /// one over the batch weight).
    #[inline(always)]
    fn adam_step(&mut self, grad: &[f32], scale: f32, lr: f32, t: usize, weight_decay: f32) {
        const B1: f32 = 0.9;
        const B2: f32 = 0.999;
        const EPS: f32 = 1e-8;
        // The bias-correction factors depend only on the step count — hoist
        // them so each step costs O(1) `powi` calls instead of O(params).
        let t = t as i32;
        let m_corr = 1.0 / (1.0 - B1.powi(t));
        let v_corr = 1.0 / (1.0 - B2.powi(t));
        let params = self.value.iter_mut().zip(&mut self.m).zip(&mut self.v);
        for (((value, m), v), &grad) in params.zip(grad) {
            let g = grad * scale + weight_decay * *value;
            *m = B1 * *m + (1.0 - B1) * g;
            *v = B2 * *v + (1.0 - B2) * g * g;
            let m_hat = *m * m_corr;
            let v_hat = *v * v_corr;
            *value -= lr * m_hat / (v_hat.sqrt() + EPS);
        }
    }
}

/// A trained two-layer MLP.
#[derive(Debug, Clone)]
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

/// The weighted binary cross-entropy of probability `p` against label `y`.
#[inline(always)]
fn weighted_loss(p: f32, y: f32, w: f32) -> f32 {
    let p_clamped = p.clamp(1e-7, 1.0 - 1e-7);
    w * -(y * p_clamped.ln() + (1.0 - y) * (1.0 - p_clamped).ln())
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
    #[allow(
        clippy::needless_range_loop,
        reason = "`j` indexes the bias, the weight rows and `h` in the oracle-checked kernel"
    )]
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

    /// Predicted probability that the row is an error (positive class).
    pub fn predict_proba(&self, x: &[f32]) -> f32 {
        self.forward(x).1
    }

    /// Hard prediction at the 0.5 threshold.
    pub fn predict(&self, x: &[f32]) -> bool {
        self.predict_proba(x) >= 0.5
    }

    /// Trains the network on `(rows, labels)` (labels in `{0.0, 1.0}`) with
    /// the scalar oracle loop and returns the mean training loss of the final
    /// epoch: [`Mlp::train_weighted_scalar`] with every weight `1.0`.
    ///
    /// Rows must all have the configured input dimension; label and row counts
    /// must match. An empty training set leaves the network untouched and
    /// returns 0.
    pub fn train(&mut self, rows: &[&[f32]], labels: &[f32], config: &MlpConfig) -> f32 {
        self.train_weighted_scalar(rows, labels, &vec![1.0; rows.len()], config)
    }

    /// The scalar per-example trainer, the bit-identity oracle of
    /// [`Mlp::train_weighted`]: the same weighted objective, one example and
    /// one hidden unit at a time. With unit weights every weight multiplies
    /// by `1.0` and every batch weight is the batch length, both exactly, so
    /// this is the unweighted loop bit for bit.
    pub fn train_weighted_scalar(
        &mut self,
        rows: &[&[f32]],
        labels: &[f32],
        weights: &[f32],
        config: &MlpConfig,
    ) -> f32 {
        assert_eq!(rows.len(), labels.len(), "rows and labels must align");
        assert_eq!(rows.len(), weights.len(), "rows and weights must align");
        if rows.is_empty() {
            return 0.0;
        }
        let n = rows.len();
        let mut order: Vec<usize> = (0..n).collect();
        let mut rng = ChaCha8Rng::seed_from_u64(config.seed.wrapping_add(1));
        let batch = config.batch_size.max(1);
        let total_weight: f32 = weights.iter().sum();
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
                let mut chunk_weight = 0.0f32;
                for &idx in chunk {
                    let x = rows[idx];
                    let (y, w) = (labels[idx], weights[idx]);
                    let (h, p) = self.forward(x);
                    epoch_loss += weighted_loss(p, y, w);
                    // dL/dlogit = w · (p - y)
                    let wdlogit = w * (p - y);
                    gb2[0] += wdlogit;
                    chunk_weight += w;
                    for j in 0..self.hidden {
                        gw2[j] += wdlogit * h[j];
                    }
                    for j in 0..self.hidden {
                        if h[j] <= 0.0 {
                            continue;
                        }
                        let dh = wdlogit * self.w2.value[j];
                        gb1[j] += dh;
                        let grad_row = &mut gw1[j * self.input_dim..(j + 1) * self.input_dim];
                        for (g, &xi) in grad_row.iter_mut().zip(x.iter()) {
                            *g += dh * xi;
                        }
                    }
                }
                adam_step(
                    &mut self.steps,
                    [&mut self.w1, &mut self.b1, &mut self.w2, &mut self.b2],
                    [&gw1, &gb1, &gw2, &gb2],
                    1.0 / chunk_weight,
                    config,
                );
            }
            last_epoch_loss = epoch_loss / total_weight;
        }
        last_epoch_loss
    }

    /// Batched fast-path trainer: the lane kernel of the module docs,
    /// bit-identical to [`Mlp::train`].
    pub fn train_batched(&mut self, rows: &[&[f32]], labels: &[f32], config: &MlpConfig) -> f32 {
        self.train_weighted(rows, labels, &vec![1.0f32; rows.len()], config)
    }

    /// [`Mlp::train_batched`] with a positive weight per example: each
    /// example's gradient and loss contribution is scaled by its weight, and
    /// batch gradients are weighted means (divided by the batch's total
    /// weight instead of its length). Bit-identical to
    /// [`Mlp::train_weighted_scalar`]; with integer weights it trains on a
    /// deduplicated set as if each row appeared `weight` times in every batch
    /// its distinct vector lands in.
    pub fn train_weighted(
        &mut self,
        rows: &[&[f32]],
        labels: &[f32],
        weights: &[f32],
        config: &MlpConfig,
    ) -> f32 {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx") {
            #[target_feature(enable = "avx")]
            fn avx(
                mlp: &mut Mlp,
                rows: &[&[f32]],
                labels: &[f32],
                weights: &[f32],
                config: &MlpConfig,
            ) -> f32 {
                mlp.train_lanes(rows, labels, weights, config)
            }
            // SAFETY: the CPU supports AVX, checked just above.
            return unsafe { avx(self, rows, labels, weights, config) };
        }
        self.train_lanes(rows, labels, weights, config)
    }

    /// The lane kernel behind [`Mlp::train_weighted`], compiled into each
    /// build its dispatch chooses from.
    #[inline(always)]
    fn train_lanes(
        &mut self,
        rows: &[&[f32]],
        labels: &[f32],
        weights: &[f32],
        config: &MlpConfig,
    ) -> f32 {
        assert_eq!(rows.len(), labels.len(), "rows and labels must align");
        assert_eq!(rows.len(), weights.len(), "rows and weights must align");
        assert!(
            rows.iter().all(|r| r.len() == self.input_dim),
            "rows must have the input dimension"
        );
        debug_assert!(weights.iter().all(|&w| w > 0.0), "weights must be positive");
        if rows.is_empty() {
            return 0.0;
        }
        let n = rows.len();
        let mut order: Vec<usize> = (0..n).collect();
        let mut rng = ChaCha8Rng::seed_from_u64(config.seed.wrapping_add(1));
        let batch = config.batch_size.max(1).min(n);
        let total_weight: f32 = weights.iter().sum();
        let mut last_epoch_loss = 0.0f32;

        let (input_dim, hidden) = (self.input_dim, self.hidden);
        let width = hidden.next_multiple_of(LANES);
        // At least one lane wide, so that zero-width rows still step
        // through the batch.
        let stride = input_dim.max(1).next_multiple_of(LANES);
        // `w1` and its Adam moments stay input-major for the whole call, so
        // the forward pass reads the weights as lanes directly.
        let mut w1t = Param {
            value: to_lanes(&self.w1.value, input_dim, width),
            m: to_lanes(&self.w1.m, input_dim, width),
            v: to_lanes(&self.w1.v, input_dim, width),
        };
        let mut gw1t = vec![0.0f32; input_dim * width];
        let mut b1 = vec![0.0f32; width];
        let mut gb1 = vec![0.0f32; hidden];
        let mut gw2 = vec![0.0f32; hidden];
        // Per step: the zero-padded batch; its hidden activations (one
        // `width`-lane row per example, in whole groups of `GROUP` rows) and
        // logits, which become the weighted `dL/dlogit`s; and one unit's
        // active examples.
        let groups = batch.div_ceil(GROUP);
        let mut xs = vec![0.0f32; batch * stride];
        let mut acts = vec![0.0f32; groups * GROUP * width];
        let mut wdlogits = vec![0.0f32; groups * GROUP];
        let mut active = vec![0usize; batch];

        for _epoch in 0..config.epochs {
            // Fisher-Yates shuffle — same RNG stream as the scalar trainer.
            for i in (1..n).rev() {
                let j = rng.gen_range(0..=i);
                order.swap(i, j);
            }
            let mut epoch_loss = 0.0f32;
            for chunk in order.chunks(batch) {
                // Forward the batch against this step's frozen parameters,
                // then accumulate the loss, `b2` and the batch weight in
                // example order (scalar-order f32 sums).
                b1[..hidden].copy_from_slice(&self.b1.value);
                let net = LaneForward {
                    width,
                    w1t: &w1t.value,
                    b1: &b1,
                    w2: &self.w2.value,
                    b2: self.b2.value[0],
                };
                let rows_and_acts = xs
                    .chunks_exact_mut(stride)
                    .zip(acts.chunks_exact_mut(width));
                for (&idx, (x, h)) in chunk.iter().zip(rows_and_acts) {
                    let x = &mut x[..input_dim];
                    x.copy_from_slice(rows[idx]);
                    net.hidden(x, h);
                }
                let used = chunk.len().div_ceil(GROUP) * GROUP;
                net.logits(&acts[..used * width], &mut wdlogits[..used]);
                let mut gb2 = 0.0f32;
                let mut chunk_weight = 0.0f32;
                for (&idx, wdlogit) in chunk.iter().zip(wdlogits.iter_mut()) {
                    let p = sigmoid(*wdlogit);
                    let (y, w) = (labels[idx], weights[idx]);
                    epoch_loss += weighted_loss(p, y, w);
                    *wdlogit = w * (p - y);
                    gb2 += *wdlogit;
                    chunk_weight += w;
                }
                let acts = &acts[..chunk.len() * width];
                let wdlogits = &wdlogits[..chunk.len()];

                // `gw2` and `gb1`, example by example with the units as
                // lanes; an inactive unit adds an exact `+0.0` to `gb1`.
                gw2.fill(0.0);
                gb1.fill(0.0);
                for (h, &wdlogit) in acts.chunks_exact(width).zip(wdlogits) {
                    let units = gw2.iter_mut().zip(&mut gb1).zip(h).zip(&self.w2.value);
                    for (((gw2_j, gb1_j), &h_j), &w2_j) in units {
                        *gw2_j += wdlogit * h_j;
                        *gb1_j += if h_j > 0.0 { wdlogit * w2_j } else { 0.0 };
                    }
                }

                // Unit `j`'s `w1` gradient over its active examples, in
                // example order.
                if input_dim > 0 {
                    for (unit, &w2_j) in self.w2.value.iter().enumerate() {
                        let active =
                            active_examples(&acts[unit..], width, &mut active[..wdlogits.len()]);
                        let mut block = GradBlock {
                            xs: &xs,
                            stride,
                            active,
                            wdlogits,
                            w2_j,
                            input_dim,
                            unit,
                            width,
                            gw1t: &mut gw1t,
                        };
                        for_each_block(stride, &mut block);
                    }
                }
                adam_step(
                    &mut self.steps,
                    [&mut w1t, &mut self.b1, &mut self.w2, &mut self.b2],
                    [&gw1t, &gb1, &gw2, &[gb2]],
                    1.0 / chunk_weight,
                    config,
                );
            }
            last_epoch_loss = epoch_loss / total_weight;
        }
        from_lanes(&w1t.value, &mut self.w1.value, width);
        from_lanes(&w1t.m, &mut self.w1.m, width);
        from_lanes(&w1t.v, &mut self.w1.v, width);
        last_epoch_loss
    }

    /// Predicted probabilities for a batch of rows through the lane forward
    /// kernel (one `w1` transpose per call, AVX-dispatched like
    /// [`Mlp::train_weighted`]); bit-identical to calling
    /// [`Mlp::predict_proba`] per row.
    pub fn predict_proba_batch(&self, rows: &[&[f32]]) -> Vec<f32> {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx") {
            #[target_feature(enable = "avx")]
            fn avx(mlp: &Mlp, rows: &[&[f32]]) -> Vec<f32> {
                mlp.predict_lanes(rows)
            }
            // SAFETY: the CPU supports AVX, checked just above.
            return unsafe { avx(self, rows) };
        }
        self.predict_lanes(rows)
    }

    /// The forward kernel behind [`Mlp::predict_proba_batch`].
    #[inline(always)]
    fn predict_lanes(&self, rows: &[&[f32]]) -> Vec<f32> {
        let width = self.hidden.next_multiple_of(LANES);
        let w1t = to_lanes(&self.w1.value, self.input_dim, width);
        let mut b1 = vec![0.0f32; width];
        b1[..self.hidden].copy_from_slice(&self.b1.value);
        let net = LaneForward {
            width,
            w1t: &w1t,
            b1: &b1,
            w2: &self.w2.value,
            b2: self.b2.value[0],
        };
        let mut acts = vec![0.0f32; GROUP * width];
        let mut logits = [0.0f32; GROUP];
        let mut probs = Vec::with_capacity(rows.len());
        for group in rows.chunks(GROUP) {
            for (x, h) in group.iter().zip(acts.chunks_exact_mut(width)) {
                debug_assert_eq!(x.len(), self.input_dim);
                net.hidden(x, h);
            }
            net.logits(&acts, &mut logits);
            probs.extend(logits[..group.len()].iter().map(|&z| sigmoid(z)));
        }
        probs
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
    pub fn fit_weighted(
        rows: &[&[f32]],
        labels: &[f32],
        weights: &[f32],
        config: &MlpConfig,
    ) -> Mlp {
        let input_dim = rows.first().map(|r| r.len()).unwrap_or(0);
        let mut mlp = Mlp::new(input_dim, config);
        mlp.train_weighted(rows, labels, weights, config);
        mlp
    }
}

/// One Adam step of the parameters `[w1, b1, w2, b2]` from their batch
/// gradient sums and `scale = 1 / batch weight`.
#[inline(always)]
fn adam_step(
    steps: &mut usize,
    params: [&mut Param; 4],
    grads: [&[f32]; 4],
    scale: f32,
    config: &MlpConfig,
) {
    *steps += 1;
    let decays = [config.weight_decay, 0.0, config.weight_decay, 0.0];
    for ((param, grad), decay) in params.into_iter().zip(grads).zip(decays) {
        param.adam_step(grad, scale, config.learning_rate, *steps, decay);
    }
}

/// The narrowest register block: lane widths and padded strides are
/// multiples of it. Eight f32 lanes are one 256-bit vector.
const LANES: usize = 8;

/// Examples whose output logits are summed side by side: each logit is one
/// dependent chain of `hidden` adds, and eight chains in flight hide the add
/// latency.
const GROUP: usize = 8;

/// `w` (`hidden` rows of `input_dim` weights, unit-major as [`Mlp`] keeps
/// `w1`) transposed to input-major lanes: `input_dim` rows of `width`, row
/// `i` holding every unit's weight on input `i`, zero past `hidden`.
fn to_lanes(w: &[f32], input_dim: usize, width: usize) -> Vec<f32> {
    let mut lanes = vec![0.0f32; input_dim * width];
    if input_dim > 0 {
        for (j, row) in w.chunks_exact(input_dim).enumerate() {
            for (&x, lane_row) in row.iter().zip(lanes.chunks_exact_mut(width)) {
                lane_row[j] = x;
            }
        }
    }
    lanes
}

/// The inverse of [`to_lanes`]: writes the lanes back into unit-major `w`.
fn from_lanes(lanes: &[f32], w: &mut [f32], width: usize) {
    let input_dim = lanes.len() / width;
    if input_dim > 0 {
        for (j, row) in w.chunks_exact_mut(input_dim).enumerate() {
            for (x, lane_row) in row.iter_mut().zip(lanes.chunks_exact(width)) {
                *x = lane_row[j];
            }
        }
    }
}

/// The active examples of one unit, in order: the `e < active.len()` whose
/// activation `acts[e · width]` is positive, listed at the front of
/// `active`. Branch-free: every example is written, and only an active one
/// advances the count. Kept out of line, where its few pointers and
/// counters get registers of their own.
#[inline(never)]
fn active_examples<'a>(acts: &[f32], width: usize, active: &'a mut [usize]) -> &'a [usize] {
    let mut n_active = 0;
    for e in 0..active.len() {
        active[n_active] = e;
        n_active += (acts[e * width] > 0.0) as usize;
    }
    &active[..n_active]
}

/// Writes `values` down lane `lane` of consecutive `width`-lane rows of
/// `rows`. Kept out of line, where the strided stores get registers of
/// their own.
#[inline(never)]
fn scatter_lane(values: &[f32], rows: &mut [f32], width: usize, lane: usize) {
    for (row, &v) in rows.chunks_exact_mut(width).zip(values) {
        row[lane] = v;
    }
}

/// A loop over `L` adjacent lanes whose running sums stay in registers.
trait LaneBlock {
    /// Runs the loop over lanes `off..off + L`.
    fn run<const L: usize>(&mut self, off: usize);
}

/// Runs `block` over lanes `0..width` (a multiple of [`LANES`]): 64-lane
/// blocks, then one block of the rest. A 64-lane block keeps its sums in
/// eight 256-bit registers, leaving half the register file for operands,
/// and one block of the rest keeps as many sums in flight as it can, where
/// 8-lane blocks would each wait on one add chain.
#[inline(always)]
fn for_each_block(width: usize, block: &mut impl LaneBlock) {
    debug_assert_eq!(width % LANES, 0, "unpadded width");
    let mut off = 0;
    while off < width {
        let lanes = (width - off).min(64);
        match lanes {
            64 => block.run::<64>(off),
            56 => block.run::<56>(off),
            48 => block.run::<48>(off),
            40 => block.run::<40>(off),
            32 => block.run::<32>(off),
            24 => block.run::<24>(off),
            16 => block.run::<16>(off),
            _ => block.run::<LANES>(off),
        }
        off += lanes;
    }
}

/// The forward pass in lane form: `w1` as input-major lanes ([`to_lanes`])
/// and `b1` padded to `width` lanes, zero past `hidden`, and the output
/// layer as is.
struct LaneForward<'a> {
    /// `hidden` rounded up to a multiple of [`LANES`].
    width: usize,
    w1t: &'a [f32],
    b1: &'a [f32],
    w2: &'a [f32],
    b2: f32,
}

impl LaneForward<'_> {
    /// Fills `h` (`width` lanes) with the hidden activations of `x`,
    /// bit-identical to [`Mlp::forward`]'s: each lane starts at `b1[j]`,
    /// adds `w1[j][i] · x[i]` in `i` order and goes through the ReLU.
    #[inline(always)]
    fn hidden(&self, x: &[f32], h: &mut [f32]) {
        debug_assert_eq!(x.len() * self.width, self.w1t.len(), "input width");
        for_each_block(self.width, &mut HiddenBlock { net: self, x, h });
    }

    /// The output logits of whole groups of [`GROUP`] activation rows:
    /// `out[e] = b2 + Σⱼ w2[j] · h_e[j]`, added in `j` order as
    /// [`Mlp::forward`] adds them.
    #[inline(always)]
    fn logits(&self, acts: &[f32], out: &mut [f32]) {
        let hidden = self.w2.len();
        for (group, out) in acts
            .chunks_exact(GROUP * self.width)
            .zip(out.chunks_exact_mut(GROUP))
        {
            let rows: [&[f32]; GROUP] = std::array::from_fn(|e| &group[e * self.width..][..hidden]);
            let mut acc = [self.b2; GROUP];
            for (j, &w) in self.w2.iter().enumerate() {
                for (a, row) in acc.iter_mut().zip(rows) {
                    *a += w * row[j];
                }
            }
            out.copy_from_slice(&acc);
        }
    }
}

/// One block of [`LaneForward::hidden`].
struct HiddenBlock<'a> {
    net: &'a LaneForward<'a>,
    x: &'a [f32],
    h: &'a mut [f32],
}

impl LaneBlock for HiddenBlock<'_> {
    #[inline(always)]
    fn run<const L: usize>(&mut self, off: usize) {
        let width = self.net.width;
        let mut acc: [f32; L] = self.net.b1[off..off + L]
            .try_into()
            .expect("block within the width");
        for (&x_i, lanes) in self.x.iter().zip(self.net.w1t.chunks_exact(width)) {
            let w: &[f32; L] = lanes[off..off + L]
                .try_into()
                .expect("block within the width");
            for (a, &w) in acc.iter_mut().zip(w) {
                *a += w * x_i;
            }
        }
        for (h_j, a) in self.h[off..off + L].iter_mut().zip(acc) {
            *h_j = a.max(0.0);
        }
    }
}

/// One block of a unit's `w1`-gradient row: `Σ dh · x[i]` with
/// `dh = wdlogit · w2_j`, over the unit's active examples in order, from
/// `0.0`, for inputs `off..off + L` of the zero-padded batch `xs`. The sums
/// land in the unit's lane of the input-major gradient `gw1t`; the padding
/// inputs past `input_dim` are dropped.
struct GradBlock<'a> {
    xs: &'a [f32],
    stride: usize,
    active: &'a [usize],
    wdlogits: &'a [f32],
    w2_j: f32,
    input_dim: usize,
    unit: usize,
    width: usize,
    gw1t: &'a mut [f32],
}

impl LaneBlock for GradBlock<'_> {
    #[inline(always)]
    fn run<const L: usize>(&mut self, off: usize) {
        let mut acc = [0.0f32; L];
        for &e in self.active {
            let dh = self.wdlogits[e] * self.w2_j;
            let x: &[f32; L] = self.xs[e * self.stride + off..][..L]
                .try_into()
                .expect("block within the stride");
            for (a, &x_i) in acc.iter_mut().zip(x) {
                *a += dh * x_i;
            }
        }
        let end = self.input_dim.min(off + L);
        let lanes = &mut self.gw1t[off * self.width..];
        scatter_lane(&acc[..end - off], lanes, self.width, self.unit);
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
        for (j, &h_j) in h.iter().enumerate() {
            let analytic = dlogit * h_j;
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
        assert_kernel_matches_scalar(&rows, &labels, &vec![1.0; rows.len()], &config);
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
        let weights: Vec<f32> = labels
            .iter()
            .map(|&y| if y > 0.5 { 3.0 } else { 1.0 })
            .collect();
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

    /// Trains the weighted scalar oracle and both builds of the kernel — the
    /// dispatched one (the AVX build on CPUs that have it) and the baseline
    /// build — from the same initialisation, twice, so that the second call
    /// starts from trained weights and non-zero Adam moments. Asserts after
    /// each call that both builds' losses, parameters and moments are
    /// bit-identical to the oracle's, then that their batch predictions are
    /// too, and returns the oracle.
    fn assert_kernel_matches_scalar(
        rows: &[Vec<f32>],
        labels: &[f32],
        weights: &[f32],
        config: &MlpConfig,
    ) -> Mlp {
        let refs: Vec<&[f32]> = rows.iter().map(|r| r.as_slice()).collect();
        let dim = refs.first().map_or(0, |r| r.len());
        let mut oracle = Mlp::new(dim, config);
        let mut dispatched = oracle.clone();
        let mut baseline = oracle.clone();
        for call in 1..=2 {
            let oracle_loss = oracle.train_weighted_scalar(&refs, labels, weights, config);
            let dispatched_loss = dispatched.train_weighted(&refs, labels, weights, config);
            let baseline_loss = baseline.train_lanes(&refs, labels, weights, config);
            for (build, kernel, loss) in [
                ("dispatched", &dispatched, dispatched_loss),
                ("baseline", &baseline, baseline_loss),
            ] {
                assert_eq!(
                    oracle_loss.to_bits(),
                    loss.to_bits(),
                    "call {call}: {build} loss"
                );
                assert_eq!(oracle.steps, kernel.steps, "call {call}: {build} steps");
                for (name, want, got) in [
                    ("w1", &oracle.w1, &kernel.w1),
                    ("b1", &oracle.b1, &kernel.b1),
                    ("w2", &oracle.w2, &kernel.w2),
                    ("b2", &oracle.b2, &kernel.b2),
                ] {
                    assert_eq!(
                        bits(&want.value),
                        bits(&got.value),
                        "call {call}: {build} {name}"
                    );
                    assert_eq!(
                        bits(&want.m),
                        bits(&got.m),
                        "call {call}: {build} {name} moment 1"
                    );
                    assert_eq!(
                        bits(&want.v),
                        bits(&got.v),
                        "call {call}: {build} {name} moment 2"
                    );
                }
            }
        }
        let expected: Vec<u32> = refs
            .iter()
            .map(|r| oracle.predict_proba(r).to_bits())
            .collect();
        assert_eq!(
            bits(&oracle.predict_proba_batch(&refs)),
            expected,
            "dispatched predictions"
        );
        assert_eq!(
            bits(&oracle.predict_lanes(&refs)),
            expected,
            "baseline predictions"
        );
        oracle
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
        let ones = vec![1.0; rows.len()];
        let oracle = assert_kernel_matches_scalar(&rows, &labels, &ones, &config);
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
        assert_kernel_matches_scalar(&rows, &labels, &ones, &odd);
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
        assert_kernel_matches_scalar(&vec![Vec::new(); 5], &labels, &[1.0; 5], &config);
        assert_kernel_matches_scalar(&[Vec::new()], &[1.0], &[1.0], &config);
        let (rows, _) = detector_shape_data(1, 113);
        assert_kernel_matches_scalar(&rows, &[0.0], &[1.0], &config);
    }

    /// Weights shaped like the detector's: an integer multiplicity 1–7 per
    /// row, times an oversample of 3 on the error rows.
    fn detector_weights(labels: &[f32]) -> Vec<f32> {
        labels
            .iter()
            .enumerate()
            .map(|(r, &y)| (1 + (r * 5 + 3) % 7) as f32 * if y > 0.5 { 3.0 } else { 1.0 })
            .collect()
    }

    /// Both builds of the kernel equal the weighted scalar oracle bit for
    /// bit at the detector's shape, with the detector's kind of weights,
    /// across hidden widths of 64 and 61 (a remainder past the last full
    /// vector), 113 and 0 inputs, and a ragged last batch (203 = 3 × 64 + 11).
    #[test]
    fn both_builds_match_the_weighted_oracle() {
        for dim in [113, 0] {
            let (rows, labels) = detector_shape_data(203, dim);
            let weights = detector_weights(&labels);
            for hidden in [64, 61] {
                let config = MlpConfig {
                    hidden,
                    epochs: 3,
                    batch_size: 64,
                    seed: 23,
                    ..Default::default()
                };
                assert_kernel_matches_scalar(&rows, &labels, &weights, &config);
            }
        }
    }

    /// `Mlp::train` keeps the bits the scalar loop produced before it took
    /// weights: a checksum of the loss and every prediction after training
    /// at the detector's shape.
    #[test]
    fn scalar_oracle_keeps_its_bits() {
        let (rows, labels) = detector_shape_data(203, 113);
        let refs: Vec<&[f32]> = rows.iter().map(|r| r.as_slice()).collect();
        let config = MlpConfig {
            hidden: 64,
            epochs: 3,
            batch_size: 64,
            seed: 17,
            ..Default::default()
        };
        let mut mlp = Mlp::new(113, &config);
        let loss = mlp.train(&refs, &labels, &config);
        let checksum = refs.iter().fold(loss.to_bits() as u64, |h, r| {
            h.rotate_left(5) ^ mlp.predict_proba(r).to_bits() as u64
        });
        assert_eq!(checksum, 0xe495_de3b_e2fa_af2b);
    }

    /// Batch prediction must match per-row prediction bitwise.
    #[test]
    fn batch_prediction_matches_per_row() {
        let (rows, labels) = messy_data(64);
        let refs: Vec<&[f32]> = rows.iter().map(|r| r.as_slice()).collect();
        let mlp = Mlp::fit(
            &refs,
            &labels,
            &MlpConfig {
                hidden: 5,
                epochs: 3,
                ..Default::default()
            },
        );
        let batch = mlp.predict_proba_batch(&refs);
        for (row, &p) in refs.iter().zip(batch.iter()) {
            assert_eq!(mlp.predict_proba(row).to_bits(), p.to_bits());
        }
    }
}
