//! # zeroed-ml
//!
//! Minimal machine-learning substrate for ZeroED — the detector the whole
//! pipeline exists to train.
//!
//! The paper's detector is deliberately simple: a two-layer multilayer
//! perceptron with ReLU activations trained with the binary cross-entropy
//! loss (paper §III-D), one model per attribute, fed by the training data
//! Algorithm 1 constructs (propagated labels, mutually verified clean rows,
//! LLM-augmented error examples). This crate implements that model from
//! scratch — dense layers, Adam optimiser with bias-corrected moments
//! (hoisted per step, not per parameter), mini-batch training — plus the
//! [`LogisticRegression`] the ActiveClean and Raha baselines train and a
//! [`StandardScaler`] for feature standardisation.
//!
//! ## Contracts
//!
//! * **Zero-copy input.** All models consume rows as `&[&[f32]]`, matching
//!   the `FeatureMatrix` rows produced by `zeroed-features` — featurisation
//!   output trains directly, no reshaping or copying.
//! * **Determinism.** Weight initialisation and mini-batch shuffling are
//!   driven by explicit seeds (counter-based RNG), so a detection run is
//!   reproducible end-to-end: same features + same seed → same weights →
//!   same error-mask predictions. The pipeline's bit-identical equivalence
//!   suites (sequential vs concurrent vs warm-started) rest on this.
//! * **No external math stack.** The workspace builds offline; everything
//!   here is plain `f32` loops, which also keeps the per-column models cheap
//!   enough to train one per attribute on 50k-row tables (see
//!   `BENCH_features.json`'s pipeline rows).
//!
//! [`metrics`] carries the confusion-matrix helpers the experiment harness
//! uses to score masks against ground truth.

pub mod logreg;
pub mod metrics;
pub mod mlp;
pub mod scale;

pub use logreg::{LogisticRegression, LogisticRegressionConfig};
pub use metrics::{accuracy, binary_confusion};
pub use mlp::{Mlp, MlpConfig};
pub use scale::StandardScaler;
