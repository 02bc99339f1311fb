//! Classification metrics over boolean predictions.
//!
//! Cell-level precision/recall/F1 live in `zeroed-table::metrics`; the helpers
//! here operate on plain prediction vectors and are used for model-level
//! diagnostics (training-set accuracy, verification thresholds).

/// Fraction of predictions equal to their labels. Returns 1.0 for empty input.
pub fn accuracy(predictions: &[bool], labels: &[bool]) -> f64 {
    assert_eq!(predictions.len(), labels.len(), "length mismatch");
    if predictions.is_empty() {
        return 1.0;
    }
    let correct = predictions
        .iter()
        .zip(labels.iter())
        .filter(|(p, l)| p == l)
        .count();
    correct as f64 / predictions.len() as f64
}

/// Confusion counts `(tp, fp, fn, tn)` treating `true` as the positive class.
pub fn binary_confusion(predictions: &[bool], labels: &[bool]) -> (usize, usize, usize, usize) {
    assert_eq!(predictions.len(), labels.len(), "length mismatch");
    let mut tp = 0;
    let mut fp = 0;
    let mut fn_ = 0;
    let mut tn = 0;
    for (&p, &l) in predictions.iter().zip(labels.iter()) {
        match (p, l) {
            (true, true) => tp += 1,
            (true, false) => fp += 1,
            (false, true) => fn_ += 1,
            (false, false) => tn += 1,
        }
    }
    (tp, fp, fn_, tn)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_basic() {
        assert_eq!(
            accuracy(&[true, false, true], &[true, true, true]),
            2.0 / 3.0
        );
        assert_eq!(accuracy(&[], &[]), 1.0);
    }

    #[test]
    fn confusion_counts() {
        let pred = [true, true, false, false];
        let label = [true, false, true, false];
        assert_eq!(binary_confusion(&pred, &label), (1, 1, 1, 1));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        let _ = accuracy(&[true], &[]);
    }
}
