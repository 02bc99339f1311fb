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
//!   inputs once per block of up to `B` units (a per-build constant: 64 in
//!   the AVX-512 and AVX builds, 32 in the baseline), with the block's
//!   running sums `h[j] += w1[j][i] · x[i]` in registers for the whole
//!   sweep; each sum still starts at `b1[j]` and adds its terms in `i`
//!   order. The output logits, each one dependent chain over `j`, are
//!   summed for eight examples side by side.
//! * **`gw2`, `gb1` and `dL/dh`:** summed example by example with the
//!   hidden units as lanes. Each example also gets a `dL/dh` row,
//!   `dh[j] = wdlogit · w2[j]` for an active unit (`h[j] > 0`) and `+0.0` for
//!   an inactive one, and adds it to `gb1`.
//! * **`w1` gradient:** the hidden units are the lanes again. For each tile
//!   of `T` inputs one loop sums `dh[j] · x[i]` over the batch's examples, in
//!   order, with the tile's `T` rows of running sums in registers, and
//!   stores them straight into the input-major gradient's rows. `T` is a
//!   per-build constant: 4 in the AVX-512 build, where four rows of 64 lanes
//!   take 16 of the 32 vector registers, and 1 in the others.
//!
//! The scalar loop skips an inactive unit's terms; the kernel adds them, and
//! that is exact. Each sum starts at `+0.0`, and a round-to-nearest sum is
//! `-0.0` only when both operands are, so it is never `-0.0`; adding `±0.0`
//! changes no bit of any other value. The term an inactive unit adds to
//! `gb1[j]` is its `+0.0`, and to the `w1` gradient `+0.0 · x[i]`, which is
//! `±0.0` for every finite `x[i]`. `0 · ±inf` and `0 · NaN` are NaN, so when
//! a call's rows hold a non-finite value the same loop, behind a
//! const-generic flag, adds `if h > 0 { dh · x } else { 0.0 }` instead.
//!
//! The whole call runs one of three builds of the same source, chosen once
//! per call at run time in this order: AVX-512 (`avx512f`, 512-bit
//! vectors), AVX (256-bit) and the target's baseline. No build fuses a
//! multiply and an add (see `Build`), and every lane performs the same
//! rounded multiply, add, square root and divide at any vector width, so
//! the choice changes no bit. [`Mlp::predict_proba_batch`] runs the same
//! forward kernel, dispatched the same way, with one transpose per call. At
//! the detector's shape (1,200 weighted rows × 111 inputs, hidden 64, batch
//! 64, 570 Adam steps; `mlp_bench`'s) on a 2-core Xeon with AVX-512, the
//! median of 15 calls per build timed alternately in one process is 18.3 ms
//! for the AVX-512 build, 23.6 ms for AVX and 49.1 ms for the baseline with
//! 64-lane blocks, against 28.1 ms and 46.1 ms for the AVX and baseline
//! builds of the per-unit `w1` gradient this loop replaced (which had taken
//! the lane-wise loop before it from 130–145 ms to 39–46 ms). The
//! baseline's 32-lane blocks took it from 46.9 / 45.6 ms to 39.7 / 38.9 ms
//! (two runs, 64- and 32-lane calls alternated in one process).
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
        Build::best().run(Train {
            mlp: self,
            rows,
            labels,
            weights,
            config,
        })
    }

    /// The lane kernel behind [`Mlp::train_weighted`], compiled into each
    /// [`Build`]; `B` is the build's widest lane block ([`for_each_block`])
    /// and `T` its `w1`-gradient tile ([`GradTiles`]).
    #[inline(always)]
    fn train_lanes<const B: usize, const T: usize>(
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
        // logits, which become the weighted `dL/dlogit`s; and each example's
        // `dL/dh` row, zero past `hidden`.
        let groups = batch.div_ceil(GROUP);
        let mut xs = vec![0.0f32; batch * stride];
        let mut acts = vec![0.0f32; groups * GROUP * width];
        let mut wdlogits = vec![0.0f32; groups * GROUP];
        let mut dhs = vec![0.0f32; batch * width];
        // Whether an inactive unit's `+0.0 · x[i]` is exact (see `GradTiles`).
        let finite = rows.iter().all(|r| r.iter().all(|x| x.is_finite()));

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
                    net.hidden::<B>(x, h);
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

                // `gw2`, `gb1` and the `dL/dh` rows, example by example with
                // the units as lanes: an inactive unit's `dh` is an exact
                // `+0.0`, and so is what it adds to `gb1`.
                gw2.fill(0.0);
                gb1.fill(0.0);
                let dhs = &mut dhs[..chunk.len() * width];
                let examples = acts.chunks_exact(width).zip(dhs.chunks_exact_mut(width));
                for ((h, dh), &wdlogit) in examples.zip(wdlogits) {
                    let units = gw2.iter_mut().zip(&mut gb1).zip(dh).zip(h);
                    for ((((gw2_j, gb1_j), dh_j), &h_j), &w2_j) in units.zip(&self.w2.value) {
                        *gw2_j += wdlogit * h_j;
                        *dh_j = if h_j > 0.0 { wdlogit * w2_j } else { 0.0 };
                        *gb1_j += *dh_j;
                    }
                }

                // The `w1` gradient, input tile by input tile.
                let mut grad = GradTiles::<T> {
                    xs: &xs,
                    stride,
                    dhs,
                    acts,
                    width,
                    finite,
                    gw1t: &mut gw1t,
                };
                for_each_block::<B>(width, &mut grad);
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
    /// kernel (one `w1` transpose per call, dispatched like
    /// [`Mlp::train_weighted`]); bit-identical to calling
    /// [`Mlp::predict_proba`] per row.
    pub fn predict_proba_batch(&self, rows: &[&[f32]]) -> Vec<f32> {
        Build::best().run(Predict { mlp: self, rows })
    }

    /// The forward kernel behind [`Mlp::predict_proba_batch`], with lane
    /// blocks of up to `B` lanes.
    #[inline(always)]
    fn predict_lanes<const B: usize>(&self, rows: &[&[f32]]) -> Vec<f32> {
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
                net.hidden::<B>(x, h);
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

/// The builds of the lane kernels, in dispatch order, each compiling the
/// same [`Mlp::train_lanes`] and [`Mlp::predict_lanes`] source. None calls
/// `mul_add`, and Rust never contracts a multiply and an add into a fused
/// one, so no build fuses them, although LLVM's `avx512f` implies its `fma`
/// feature.
#[derive(Clone, Copy, Debug)]
enum Build {
    /// 512-bit vectors.
    #[cfg(target_arch = "x86_64")]
    Avx512,
    /// 256-bit vectors.
    #[cfg(target_arch = "x86_64")]
    Avx,
    /// The target's baseline instruction set.
    Baseline,
}

impl Build {
    /// Every build, in dispatch order.
    const ALL: &[Build] = &[
        #[cfg(target_arch = "x86_64")]
        Build::Avx512,
        #[cfg(target_arch = "x86_64")]
        Build::Avx,
        Build::Baseline,
    ];

    /// Whether this CPU can run the build (checked once and cached by `std`).
    fn runs_here(self) -> bool {
        match self {
            #[cfg(target_arch = "x86_64")]
            Build::Avx512 => std::arch::is_x86_feature_detected!("avx512f"),
            #[cfg(target_arch = "x86_64")]
            Build::Avx => std::arch::is_x86_feature_detected!("avx"),
            Build::Baseline => true,
        }
    }

    /// The first build in dispatch order that this CPU runs.
    fn best() -> Build {
        let mut builds = Build::ALL.iter().copied();
        builds.find(|b| b.runs_here()).unwrap_or(Build::Baseline)
    }

    /// Runs `kernel` compiled for this build, with the build's lane block
    /// and `w1`-gradient tile. Panics if the CPU cannot run the build.
    fn run<K: Kernel>(self, kernel: K) -> K::Output {
        assert!(self.runs_here(), "this CPU cannot run the {self:?} build");
        match self {
            #[cfg(target_arch = "x86_64")]
            Build::Avx512 => {
                #[target_feature(enable = "avx512f")]
                fn avx512<K: Kernel>(kernel: K) -> K::Output {
                    // Four rows of 64 lanes are 16 of the 32 zmm registers.
                    kernel.call::<64, 4>()
                }
                // SAFETY: the CPU supports AVX-512F, asserted above.
                unsafe { avx512(kernel) }
            }
            #[cfg(target_arch = "x86_64")]
            Build::Avx => {
                #[target_feature(enable = "avx")]
                fn avx<K: Kernel>(kernel: K) -> K::Output {
                    // One row of 64 lanes is 8 of the 16 ymm registers; a
                    // tile of 4 spills its sums.
                    kernel.call::<64, 1>()
                }
                // SAFETY: the CPU supports AVX, asserted above.
                unsafe { avx(kernel) }
            }
            // On x86-64 that is SSE2: one row of 32 lanes is 8 of the 16
            // xmm registers, where 64 lanes would take all of them.
            Build::Baseline => kernel.call::<32, 1>(),
        }
    }
}

/// A lane-kernel call that [`Build::run`] compiles into each build.
trait Kernel {
    type Output;
    /// Runs the call with lane blocks of up to `B` lanes and `T` inputs per
    /// `w1`-gradient tile.
    fn call<const B: usize, const T: usize>(self) -> Self::Output;
}

/// A [`Mlp::train_lanes`] call.
struct Train<'a> {
    mlp: &'a mut Mlp,
    rows: &'a [&'a [f32]],
    labels: &'a [f32],
    weights: &'a [f32],
    config: &'a MlpConfig,
}

impl Kernel for Train<'_> {
    type Output = f32;

    #[inline(always)]
    fn call<const B: usize, const T: usize>(self) -> f32 {
        self.mlp
            .train_lanes::<B, T>(self.rows, self.labels, self.weights, self.config)
    }
}

/// A [`Mlp::predict_lanes`] call.
struct Predict<'a> {
    mlp: &'a Mlp,
    rows: &'a [&'a [f32]],
}

impl Kernel for Predict<'_> {
    type Output = Vec<f32>;

    #[inline(always)]
    fn call<const B: usize, const T: usize>(self) -> Vec<f32> {
        self.mlp.predict_lanes::<B>(self.rows)
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

/// A loop over `L` adjacent lanes whose running sums stay in registers.
trait LaneBlock {
    /// Runs the loop over lanes `off..off + L`.
    fn run<const L: usize>(&mut self, off: usize);
}

/// Runs `block` over lanes `0..width` (a multiple of [`LANES`]): `B`-lane
/// blocks, then one block of the rest. `B` is a per-build constant (see
/// [`Build::run`]): a row of `B` sums should take about half of the build's
/// vector registers, leaving the rest for operands, and one block of the
/// rest keeps as many sums in flight as it can, where 8-lane blocks would
/// each wait on one add chain.
#[inline(always)]
fn for_each_block<const B: usize>(width: usize, block: &mut impl LaneBlock) {
    const {
        assert!(
            B.is_multiple_of(LANES) && LANES <= B && B <= 64,
            "B must be a multiple of LANES up to 64"
        )
    };
    debug_assert_eq!(width % LANES, 0, "unpadded width");
    let mut off = 0;
    while off < width {
        let lanes = (width - off).min(B);
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
    fn hidden<const B: usize>(&self, x: &[f32], h: &mut [f32]) {
        debug_assert_eq!(x.len() * self.width, self.w1t.len(), "input width");
        for_each_block::<B>(self.width, &mut HiddenBlock { net: self, x, h });
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

/// The `w1` gradient of one batch with the hidden units as lanes: row `i`
/// of the input-major `gw1t` gets `Σₑ dh_e[j] · x_e[i]` in lane `j`, summed
/// over the batch's examples in order from `+0.0`. Inputs go `T` at a
/// time: each example's block of `dh` lanes is loaded once per tile, and
/// the tile's `T` rows of running sums stay in registers. An inactive
/// unit's term is `+0.0 · x[i]` when every row is finite and a selected
/// `0.0` otherwise; the module docs show why both are exact.
struct GradTiles<'a, const T: usize> {
    /// The zero-padded batch, `stride` values per example.
    xs: &'a [f32],
    stride: usize,
    /// Each example's `dL/dh` row: `wdlogit · w2[j]` for an active unit,
    /// `+0.0` for an inactive one and past `hidden`.
    dhs: &'a [f32],
    /// Each example's hidden activations.
    acts: &'a [f32],
    width: usize,
    /// Whether every row holds only finite values.
    finite: bool,
    gw1t: &'a mut [f32],
}

impl<const T: usize> GradTiles<'_, T> {
    /// The tiles of lanes `off..off + L`.
    #[inline(always)]
    fn tiles<const L: usize, const FINITE: bool>(&mut self, off: usize) {
        const { assert!(LANES.is_multiple_of(T), "a tile must end within the stride") };
        let (width, stride) = (self.width, self.stride);
        for (tile, grads) in self.gw1t.chunks_mut(T * width).enumerate() {
            let mut acc = [[0.0f32; L]; T];
            let examples = self
                .dhs
                .chunks_exact(width)
                .zip(self.acts.chunks_exact(width));
            for ((dh, h), x) in examples.zip(self.xs.chunks_exact(stride)) {
                let dh: &[f32; L] = dh[off..off + L].try_into().expect("block within the width");
                let h: &[f32; L] = h[off..off + L].try_into().expect("block within the width");
                let x: &[f32; T] = x[tile * T..][..T]
                    .try_into()
                    .expect("tile within the stride");
                for (acc, &x_i) in acc.iter_mut().zip(x) {
                    for ((a, &dh_j), &h_j) in acc.iter_mut().zip(dh).zip(h) {
                        let term = dh_j * x_i;
                        *a += if FINITE || h_j > 0.0 { term } else { 0.0 };
                    }
                }
            }
            // A last tile past `input_dim` drops its padding inputs' sums.
            for (row, acc) in grads.chunks_exact_mut(width).zip(&acc) {
                row[off..off + L].copy_from_slice(acc);
            }
        }
    }
}

impl<const T: usize> LaneBlock for GradTiles<'_, T> {
    #[inline(always)]
    fn run<const L: usize>(&mut self, off: usize) {
        if self.finite {
            self.tiles::<L, true>(off);
        } else {
            self.tiles::<L, false>(off);
        }
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

    /// The bits of each value, with every NaN as one pattern: arithmetic
    /// NaN payloads are unspecified, so builds may differ in them.
    fn bits(v: &[f32]) -> Vec<u32> {
        let canonical = |x: f32| if x.is_nan() { f32::NAN } else { x };
        v.iter().map(|&x| canonical(x).to_bits()).collect()
    }

    /// Trains the weighted scalar oracle and every build of the kernel this
    /// CPU runs from the same initialisation, twice, so that the second call
    /// starts from trained weights and non-zero Adam moments. Asserts after
    /// each call that each build's loss, parameters and moments are
    /// bit-identical to the oracle's, then that its batch predictions equal
    /// the oracle's per-row ones, and returns the oracle. A build the CPU
    /// cannot run is named in the test output.
    fn assert_kernel_matches_scalar(
        rows: &[Vec<f32>],
        labels: &[f32],
        weights: &[f32],
        config: &MlpConfig,
    ) -> Mlp {
        let refs: Vec<&[f32]> = rows.iter().map(|r| r.as_slice()).collect();
        let dim = refs.first().map_or(0, |r| r.len());
        let mut oracle = Mlp::new(dim, config);
        let (builds, lacking): (Vec<Build>, _) = Build::ALL.iter().partition(|b| b.runs_here());
        for build in lacking {
            println!("{build:?} build not checked: this CPU cannot run it");
        }
        let mut kernels: Vec<(Build, Mlp)> = builds.iter().map(|&b| (b, oracle.clone())).collect();
        for call in 1..=2 {
            let oracle_loss = oracle.train_weighted_scalar(&refs, labels, weights, config);
            for (build, kernel) in &mut kernels {
                let loss = build.run(Train {
                    mlp: kernel,
                    rows: &refs,
                    labels,
                    weights,
                    config,
                });
                assert_eq!(
                    bits(&[oracle_loss]),
                    bits(&[loss]),
                    "call {call}: {build:?} loss"
                );
                assert_eq!(oracle.steps, kernel.steps, "call {call}: {build:?} steps");
                for (name, want, got) in [
                    ("w1", &oracle.w1, &kernel.w1),
                    ("b1", &oracle.b1, &kernel.b1),
                    ("w2", &oracle.w2, &kernel.w2),
                    ("b2", &oracle.b2, &kernel.b2),
                ] {
                    assert_eq!(
                        bits(&want.value),
                        bits(&got.value),
                        "call {call}: {build:?} {name}"
                    );
                    assert_eq!(
                        bits(&want.m),
                        bits(&got.m),
                        "call {call}: {build:?} {name} moment 1"
                    );
                    assert_eq!(
                        bits(&want.v),
                        bits(&got.v),
                        "call {call}: {build:?} {name} moment 2"
                    );
                }
            }
        }
        let expected: Vec<f32> = refs.iter().map(|r| oracle.predict_proba(r)).collect();
        for build in builds {
            let got = build.run(Predict {
                mlp: &oracle,
                rows: &refs,
            });
            assert_eq!(bits(&got), bits(&expected), "{build:?} predictions");
        }
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

    /// Every build of the kernel equals the weighted scalar oracle bit for
    /// bit with the detector's kind of weights, across hidden widths of 8,
    /// 24 (`ZeroEdConfig::fast()`), 61 (a remainder past the last full
    /// vector), 64 (the default) and 72 (a second lane block); 0, 1, 107 and
    /// 113 inputs; and batches of 1, 3 and 64, where 67 rows leave a ragged
    /// last chunk (22 × 3 + 1 and 64 + 3).
    #[test]
    fn every_build_matches_the_weighted_oracle() {
        for dim in [0, 1, 107, 113] {
            let (rows, labels) = detector_shape_data(67, dim);
            let weights = detector_weights(&labels);
            for hidden in [8, 24, 61, 64, 72] {
                for batch_size in [1, 3, 64] {
                    let config = MlpConfig {
                        hidden,
                        epochs: 2,
                        batch_size,
                        seed: 23,
                        ..Default::default()
                    };
                    assert_kernel_matches_scalar(&rows, &labels, &weights, &config);
                }
            }
        }
    }

    /// Rows holding NaN, ±inf and ±0.0 run the kernel's selecting loop and
    /// still equal the oracle. A NaN input leaves every unit of its row
    /// inactive (`NaN.max(0.0)` is `0.0`), so the oracle skips the row in
    /// the `w1` gradient and stays finite, where `+0.0 · NaN` or `+0.0 · inf`
    /// summed into it would not. A lone `+inf` drives the network to NaN,
    /// which every build must reach the same way.
    #[test]
    fn non_finite_rows_match_the_oracle() {
        for dim in [1, 107] {
            let (mut rows, labels) = detector_shape_data(67, dim);
            for (r, row) in rows.iter_mut().enumerate().filter(|(r, _)| r % 7 == 2) {
                row[r % dim] = f32::NAN;
                let inf = if r % 2 == 0 {
                    f32::INFINITY
                } else {
                    -f32::INFINITY
                };
                row[(r + 1) % dim] = if dim > 1 { inf } else { f32::NAN };
            }
            let weights = detector_weights(&labels);
            for hidden in [8, 64, 72] {
                for batch_size in [3, 64] {
                    let config = MlpConfig {
                        hidden,
                        epochs: 2,
                        batch_size,
                        seed: 29,
                        ..Default::default()
                    };
                    let oracle = assert_kernel_matches_scalar(&rows, &labels, &weights, &config);
                    assert!(
                        oracle.w1.value.iter().all(|w| w.is_finite()),
                        "NaN rows must leave the oracle finite"
                    );
                    rows[5][0] = f32::INFINITY;
                    assert_kernel_matches_scalar(&rows, &labels, &weights, &config);
                    rows[5][0] = 1.0;
                }
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
