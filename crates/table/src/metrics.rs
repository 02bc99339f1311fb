//! Cell-level detection metrics: precision, recall, F1.
//!
//! These are the evaluation metrics used throughout the paper's Section IV.

/// Precision / recall / F1 together with the underlying confusion counts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectionReport {
    /// True positives: erroneous cells correctly flagged.
    pub tp: usize,
    /// False positives: clean cells incorrectly flagged.
    pub fp: usize,
    /// False negatives: erroneous cells missed.
    pub fn_: usize,
    /// True negatives: clean cells correctly left unflagged.
    pub tn: usize,
    /// `tp / (tp + fp)`; defined as 0 when no cell was flagged.
    pub precision: f64,
    /// `tp / (tp + fn)`; defined as 1 when there are no true errors.
    pub recall: f64,
    /// Harmonic mean of precision and recall; 0 when both are 0.
    pub f1: f64,
}

impl DetectionReport {
    /// Builds a report from raw confusion counts.
    pub fn from_counts(tp: usize, fp: usize, fn_: usize, tn: usize) -> Self {
        let precision = if tp + fp == 0 {
            0.0
        } else {
            tp as f64 / (tp + fp) as f64
        };
        let recall = if tp + fn_ == 0 {
            1.0
        } else {
            tp as f64 / (tp + fn_) as f64
        };
        let f1 = if precision + recall == 0.0 {
            0.0
        } else {
            2.0 * precision * recall / (precision + recall)
        };
        Self {
            tp,
            fp,
            fn_,
            tn,
            precision,
            recall,
            f1,
        }
    }

    /// A report representing "flagged nothing on a dataset with no errors".
    pub fn perfect_empty() -> Self {
        Self::from_counts(0, 0, 0, 0)
    }

    /// Total number of cells covered by the report.
    pub fn total_cells(&self) -> usize {
        self.tp + self.fp + self.fn_ + self.tn
    }

    /// Averages several reports metric-wise (used for the paper's "average of
    /// three repeated experiments").
    pub fn mean(reports: &[DetectionReport]) -> DetectionReport {
        if reports.is_empty() {
            return DetectionReport::perfect_empty();
        }
        let n = reports.len() as f64;
        let mut out = DetectionReport::perfect_empty();
        out.tp = reports.iter().map(|r| r.tp).sum::<usize>() / reports.len();
        out.fp = reports.iter().map(|r| r.fp).sum::<usize>() / reports.len();
        out.fn_ = reports.iter().map(|r| r.fn_).sum::<usize>() / reports.len();
        out.tn = reports.iter().map(|r| r.tn).sum::<usize>() / reports.len();
        out.precision = reports.iter().map(|r| r.precision).sum::<f64>() / n;
        out.recall = reports.iter().map(|r| r.recall).sum::<f64>() / n;
        out.f1 = reports.iter().map(|r| r.f1).sum::<f64>() / n;
        out
    }
}

impl std::fmt::Display for DetectionReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "P={:.3} R={:.3} F1={:.3} (tp={}, fp={}, fn={}, tn={})",
            self.precision, self.recall, self.f1, self.tp, self.fp, self.fn_, self.tn
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_to_metrics() {
        let r = DetectionReport::from_counts(8, 2, 4, 86);
        assert!((r.precision - 0.8).abs() < 1e-12);
        assert!((r.recall - 8.0 / 12.0).abs() < 1e-12);
        let expect_f1 = 2.0 * 0.8 * (8.0 / 12.0) / (0.8 + 8.0 / 12.0);
        assert!((r.f1 - expect_f1).abs() < 1e-12);
        assert_eq!(r.total_cells(), 100);
    }

    #[test]
    fn degenerate_cases() {
        let none_flagged = DetectionReport::from_counts(0, 0, 5, 95);
        assert_eq!(none_flagged.precision, 0.0);
        assert_eq!(none_flagged.recall, 0.0);
        assert_eq!(none_flagged.f1, 0.0);

        let no_errors = DetectionReport::from_counts(0, 0, 0, 100);
        assert_eq!(no_errors.recall, 1.0);
        assert_eq!(no_errors.f1, 0.0);

        let all_wrong = DetectionReport::from_counts(0, 10, 10, 80);
        assert_eq!(all_wrong.f1, 0.0);
    }

    #[test]
    fn mean_of_reports() {
        let a = DetectionReport::from_counts(10, 0, 0, 90);
        let b = DetectionReport::from_counts(0, 10, 10, 80);
        let m = DetectionReport::mean(&[a, b]);
        assert!((m.precision - 0.5).abs() < 1e-12);
        assert!((m.recall - 0.5).abs() < 1e-12);
        assert_eq!(DetectionReport::mean(&[]).total_cells(), 0);
    }

    #[test]
    fn display_is_readable() {
        let r = DetectionReport::from_counts(1, 1, 1, 1);
        let s = format!("{r}");
        assert!(s.contains("P=0.500"));
        assert!(s.contains("tp=1"));
    }
}
