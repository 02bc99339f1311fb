//! Per-feature standardisation (zero mean, unit variance).

/// A fitted standard scaler: stores per-dimension mean and standard deviation
/// and applies `(x - mean) / std` to new rows. Dimensions with (near-)zero
/// variance are passed through unchanged.
#[derive(Debug, Clone)]
pub struct StandardScaler {
    means: Vec<f32>,
    stds: Vec<f32>,
}

impl StandardScaler {
    /// Fits the scaler on training rows. Panics if `rows` is empty or ragged.
    pub fn fit(rows: &[&[f32]]) -> Self {
        assert!(!rows.is_empty(), "cannot fit a scaler on zero rows");
        let dim = rows[0].len();
        let n = rows.len() as f64;
        let mut means = vec![0.0f64; dim];
        for row in rows {
            assert_eq!(row.len(), dim, "ragged feature rows");
            for (m, &x) in means.iter_mut().zip(row.iter()) {
                *m += x as f64;
            }
        }
        for m in means.iter_mut() {
            *m /= n;
        }
        let mut vars = vec![0.0f64; dim];
        for row in rows {
            for ((v, &x), m) in vars.iter_mut().zip(row.iter()).zip(means.iter()) {
                let d = x as f64 - m;
                *v += d * d;
            }
        }
        let stds: Vec<f32> = vars
            .iter()
            .map(|&v| {
                let s = (v / n).sqrt();
                if s < 1e-8 {
                    1.0
                } else {
                    s as f32
                }
            })
            .collect();
        Self {
            means: means.into_iter().map(|m| m as f32).collect(),
            stds,
        }
    }

    /// Fits the scaler with a positive weight per row: moments are weighted
    /// means, as if row `i` appeared `weights[i]` times. With unit weights
    /// this is bit-identical to [`StandardScaler::fit`] (each accumulation
    /// multiplies by exactly `1.0`, and the weight total sums `1.0` per row
    /// in f64 — exact); it lets the detector fit on deduplicated feature
    /// rows weighted by multiplicity. Panics if `rows` is empty, ragged, or
    /// misaligned with `weights`.
    pub fn fit_weighted(rows: &[&[f32]], weights: &[f32]) -> Self {
        assert!(!rows.is_empty(), "cannot fit a scaler on zero rows");
        assert_eq!(rows.len(), weights.len(), "rows and weights must align");
        debug_assert!(weights.iter().all(|&w| w > 0.0), "weights must be positive");
        let dim = rows[0].len();
        let mut total = 0.0f64;
        let mut means = vec![0.0f64; dim];
        for (row, &w) in rows.iter().zip(weights.iter()) {
            assert_eq!(row.len(), dim, "ragged feature rows");
            let wf = w as f64;
            total += wf;
            for (m, &x) in means.iter_mut().zip(row.iter()) {
                *m += wf * (x as f64);
            }
        }
        for m in means.iter_mut() {
            *m /= total;
        }
        let mut vars = vec![0.0f64; dim];
        for (row, &w) in rows.iter().zip(weights.iter()) {
            let wf = w as f64;
            for ((v, &x), m) in vars.iter_mut().zip(row.iter()).zip(means.iter()) {
                let d = x as f64 - m;
                *v += wf * (d * d);
            }
        }
        let stds: Vec<f32> = vars
            .iter()
            .map(|&v| {
                let s = (v / total).sqrt();
                if s < 1e-8 {
                    1.0
                } else {
                    s as f32
                }
            })
            .collect();
        Self {
            means: means.into_iter().map(|m| m as f32).collect(),
            stds,
        }
    }

    /// Number of feature dimensions.
    pub fn dim(&self) -> usize {
        self.means.len()
    }

    /// Standardises one row into a new vector.
    pub fn transform(&self, row: &[f32]) -> Vec<f32> {
        row.iter()
            .zip(self.means.iter())
            .zip(self.stds.iter())
            .map(|((&x, &m), &s)| (x - m) / s)
            .collect()
    }

    /// Standardises the first `dim()` values of `row` in place, with the
    /// same arithmetic as [`StandardScaler::transform`]; the detector scales
    /// its distinct feature vectors this way instead of copying them.
    pub fn transform_in_place(&self, row: &mut [f32]) {
        for ((x, &m), &s) in row.iter_mut().zip(&self.means).zip(&self.stds) {
            *x = (*x - m) / s;
        }
    }

    /// Standardises a batch of rows.
    pub fn transform_all(&self, rows: &[&[f32]]) -> Vec<Vec<f32>> {
        rows.iter().map(|r| self.transform(r)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standardises_to_zero_mean_unit_variance() {
        let data = [vec![1.0f32, 10.0], vec![2.0, 20.0], vec![3.0, 30.0]];
        let rows: Vec<&[f32]> = data.iter().map(|r| r.as_slice()).collect();
        let scaler = StandardScaler::fit(&rows);
        let transformed = scaler.transform_all(&rows);
        for d in 0..2 {
            let mean: f32 = transformed.iter().map(|r| r[d]).sum::<f32>() / 3.0;
            let var: f32 = transformed.iter().map(|r| r[d] * r[d]).sum::<f32>() / 3.0;
            assert!(mean.abs() < 1e-5);
            assert!((var - 1.0).abs() < 1e-4);
        }
        assert_eq!(scaler.dim(), 2);
    }

    #[test]
    fn constant_dimension_is_left_alone() {
        let data = [vec![5.0f32, 1.0], vec![5.0, 2.0]];
        let rows: Vec<&[f32]> = data.iter().map(|r| r.as_slice()).collect();
        let scaler = StandardScaler::fit(&rows);
        let t = scaler.transform(&[5.0, 1.5]);
        assert_eq!(t[0], 0.0);
    }

    /// In-place standardisation writes the bits `transform` returns,
    /// including for NaN, infinite, signed-zero and constant dimensions.
    #[test]
    fn in_place_transform_matches_transform_bitwise() {
        let data: Vec<Vec<f32>> = (0..40)
            .map(|i| {
                vec![
                    (i % 7) as f32 * 0.37 - 1.1,
                    5.0,
                    if i % 9 == 0 {
                        -0.0
                    } else {
                        (i * i) as f32 * 1e-3
                    },
                    (i % 4) as f32 * 1e6,
                ]
            })
            .collect();
        let rows: Vec<&[f32]> = data.iter().map(|r| r.as_slice()).collect();
        let weights: Vec<f32> = (0..rows.len()).map(|i| (i % 3 + 1) as f32).collect();
        let scaler = StandardScaler::fit_weighted(&rows, &weights);
        let mut probes = data.clone();
        probes.push(vec![f32::NAN, f32::INFINITY, -0.0, f32::MIN_POSITIVE]);
        for row in &probes {
            let expected = scaler.transform(row);
            let mut in_place = row.clone();
            scaler.transform_in_place(&mut in_place);
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&in_place), bits(&expected), "row {row:?}");
        }
    }

    #[test]
    #[should_panic(expected = "zero rows")]
    fn empty_fit_panics() {
        let rows: Vec<&[f32]> = Vec::new();
        let _ = StandardScaler::fit(&rows);
    }

    /// Unit weights must reproduce the unweighted fit bit-for-bit.
    #[test]
    #[allow(
        clippy::approx_constant,
        reason = "3.14 is an arbitrary scale, not π; changing it would change the test data"
    )]
    fn unit_weighted_fit_is_bit_identical() {
        let data: Vec<Vec<f32>> = (0..50)
            .map(|i| vec![(i % 7) as f32 * 0.93 - 1.7, (i % 11) as f32 * 3.14])
            .collect();
        let rows: Vec<&[f32]> = data.iter().map(|r| r.as_slice()).collect();
        let plain = StandardScaler::fit(&rows);
        let weighted = StandardScaler::fit_weighted(&rows, &vec![1.0; rows.len()]);
        assert_eq!(plain.means, weighted.means);
        assert_eq!(plain.stds, weighted.stds);
    }

    /// Integer weights must equal fitting on the expanded row set. The data
    /// is integer-valued and the weights sum to a power of two, so every
    /// intermediate (weighted sums, means, centred squares) is exact in f64
    /// — both paths then compute the same exact value and agree bitwise.
    #[test]
    fn integer_weights_match_expanded_rows_on_integer_data() {
        let unique = [vec![1.0f32, -4.0], vec![2.0, 0.0], vec![7.0, 3.0]];
        let weights = [3.0f32, 1.0, 4.0];
        let urows: Vec<&[f32]> = unique.iter().map(|r| r.as_slice()).collect();
        let weighted = StandardScaler::fit_weighted(&urows, &weights);
        let mut expanded: Vec<&[f32]> = Vec::new();
        for (row, &w) in urows.iter().zip(weights.iter()) {
            for _ in 0..w as usize {
                expanded.push(row);
            }
        }
        let plain = StandardScaler::fit(&expanded);
        assert_eq!(plain.means, weighted.means);
        assert_eq!(plain.stds, weighted.stds);
    }
}
