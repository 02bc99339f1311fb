//! Logistic regression trained with mini-batch gradient descent.
//!
//! Used by the ActiveClean baseline (which trains a simple convex model on the
//! features of labelled cells) and as a light-weight alternative detector.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Logistic-regression hyper-parameters.
#[derive(Debug, Clone)]
pub struct LogisticRegressionConfig {
    /// Number of passes over the data.
    pub epochs: usize,
    /// Learning rate.
    pub learning_rate: f32,
    /// L2 regularisation strength.
    pub l2: f32,
    /// Shuffle seed.
    pub seed: u64,
}

impl Default for LogisticRegressionConfig {
    fn default() -> Self {
        Self {
            epochs: 50,
            learning_rate: 0.1,
            l2: 1e-4,
            seed: 7,
        }
    }
}

/// A trained logistic-regression model.
#[derive(Debug, Clone)]
pub struct LogisticRegression {
    weights: Vec<f32>,
    bias: f32,
}

fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

impl LogisticRegression {
    /// Fits a model on `(rows, labels)` with labels in `{0.0, 1.0}`.
    pub fn fit(rows: &[&[f32]], labels: &[f32], config: &LogisticRegressionConfig) -> Self {
        assert_eq!(rows.len(), labels.len(), "rows and labels must align");
        let dim = rows.first().map(|r| r.len()).unwrap_or(0);
        let mut weights = vec![0.0f32; dim];
        let mut bias = 0.0f32;
        if rows.is_empty() {
            return Self { weights, bias };
        }
        let n = rows.len();
        let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
        let mut order: Vec<usize> = (0..n).collect();
        for _ in 0..config.epochs {
            for i in (1..n).rev() {
                let j = rng.gen_range(0..=i);
                order.swap(i, j);
            }
            for &idx in &order {
                let x = rows[idx];
                let y = labels[idx];
                let z: f32 = weights.iter().zip(x.iter()).map(|(w, xi)| w * xi).sum::<f32>() + bias;
                let p = sigmoid(z);
                let err = p - y;
                for (w, &xi) in weights.iter_mut().zip(x.iter()) {
                    *w -= config.learning_rate * (err * xi + config.l2 * *w);
                }
                bias -= config.learning_rate * err;
            }
        }
        Self { weights, bias }
    }

    /// Predicted probability of the positive class.
    pub fn predict_proba(&self, x: &[f32]) -> f32 {
        let z: f32 = self
            .weights
            .iter()
            .zip(x.iter())
            .map(|(w, xi)| w * xi)
            .sum::<f32>()
            + self.bias;
        sigmoid(z)
    }

    /// Hard prediction at the 0.5 threshold.
    pub fn predict(&self, x: &[f32]) -> bool {
        self.predict_proba(x) >= 0.5
    }

    /// Model weights (for inspection / sampling heuristics such as
    /// ActiveClean's gradient-based sampling).
    pub fn weights(&self) -> &[f32] {
        &self.weights
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learns_a_threshold() {
        let rows: Vec<Vec<f32>> = (0..100).map(|i| vec![i as f32 / 100.0]).collect();
        let labels: Vec<f32> = (0..100).map(|i| if i >= 50 { 1.0 } else { 0.0 }).collect();
        let refs: Vec<&[f32]> = rows.iter().map(|r| r.as_slice()).collect();
        let model = LogisticRegression::fit(&refs, &labels, &LogisticRegressionConfig::default());
        assert!(!model.predict(&[0.1]));
        assert!(model.predict(&[0.9]));
        assert!(model.predict_proba(&[0.9]) > model.predict_proba(&[0.1]));
    }

    #[test]
    fn empty_training_gives_half_probability() {
        let model =
            LogisticRegression::fit(&[], &[], &LogisticRegressionConfig::default());
        assert!((model.predict_proba(&[]) - 0.5).abs() < 1e-6);
        assert!(model.weights().is_empty());
    }

    #[test]
    fn two_feature_separation() {
        let rows: Vec<Vec<f32>> = (0..200)
            .map(|i| vec![(i % 10) as f32, ((i / 10) % 10) as f32])
            .collect();
        let labels: Vec<f32> = rows
            .iter()
            .map(|r| if r[0] + r[1] > 9.0 { 1.0 } else { 0.0 })
            .collect();
        let refs: Vec<&[f32]> = rows.iter().map(|r| r.as_slice()).collect();
        let model = LogisticRegression::fit(&refs, &labels, &LogisticRegressionConfig::default());
        let correct = rows
            .iter()
            .zip(labels.iter())
            .filter(|(r, &y)| model.predict(r) == (y > 0.5))
            .count();
        assert!(correct >= 175, "only {correct}/200");
    }
}
