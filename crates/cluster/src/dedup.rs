//! Distinct-row deduplication: the shared substrate of the clustering and
//! detector fast paths.
//!
//! Per-attribute feature vectors are assembled per *distinct value* and
//! scattered to rows (`zeroed-features` interning), so an attribute with `n`
//! rows but `u` distinct values carries only `u` distinct feature vectors —
//! and real tables have `u ≪ n` (a 50k-row "state" column has ~50 distincts).
//! Clustering, scaling, MLP training and prediction are all pure functions of
//! the vector, so any per-row loop over the attribute can instead run per
//! *unique* vector and scatter results back by code.
//!
//! [`DedupPoints`] captures that factorisation once: the distinct vectors in
//! first-occurrence order, one code per input row, and per-distinct
//! multiplicities. Rows are grouped by exact f32 *bit pattern* (no epsilon),
//! so any computation on a unique vector produces bit-identical results to
//! running it on every duplicate row — the property the equivalence oracles
//! in `kmeans` and `zeroed-ml` assert.

use crate::lanes::{CentroidLanes, PointLanes};
use crate::{sq_dist, Clustering};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Rotate-xor-multiply (FxHash-style) hasher: the keys are content hashes of
/// short f32 rows, for which SipHash's DoS resistance is wasted cost.
#[derive(Default)]
struct FxHasher {
    hash: u64,
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.hash = (self.hash.rotate_left(5) ^ u64::from_le_bytes(buf))
                .wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
        }
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.hash = (self.hash.rotate_left(5) ^ v).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

type FxBuild = BuildHasherDefault<FxHasher>;

/// Content hash of one row's f32 bit patterns.
#[inline]
fn hash_row(row: &[f32]) -> u64 {
    let mut h = FxHasher::default();
    for &x in row {
        h.write_u64(x.to_bits() as u64);
    }
    h.finish()
}

/// Exact bit-pattern equality (distinguishes `-0.0` from `0.0` and treats
/// identical NaN payloads as equal — conservative in both directions).
#[inline]
fn rows_bit_equal(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// A set of input rows factored into distinct vectors plus per-row codes.
#[derive(Debug, Clone)]
pub struct DedupPoints {
    /// Flat row-major storage of the distinct vectors, in first-occurrence
    /// order.
    unique: Vec<f32>,
    /// Vector dimensionality.
    dim: usize,
    /// For every input row, the index of its distinct vector.
    codes: Vec<u32>,
    /// Multiplicity of each distinct vector.
    counts: Vec<u32>,
    /// First input row holding each distinct vector.
    first_rows: Vec<u32>,
}

impl DedupPoints {
    /// Groups `data` rows by exact bit pattern.
    pub fn build(data: &[&[f32]]) -> Self {
        let dim = data.first().map(|r| r.len()).unwrap_or(0);
        let mut unique: Vec<f32> = Vec::new();
        let mut codes: Vec<u32> = Vec::with_capacity(data.len());
        let mut counts: Vec<u32> = Vec::new();
        let mut first_rows: Vec<u32> = Vec::new();
        // hash -> candidate unique ids (collisions resolved by bit comparison).
        let mut by_hash: HashMap<u64, Vec<u32>, FxBuild> = HashMap::default();
        for (i, row) in data.iter().enumerate() {
            debug_assert_eq!(row.len(), dim, "ragged clustering input");
            let candidates = by_hash.entry(hash_row(row)).or_default();
            let found = candidates
                .iter()
                .copied()
                .find(|&u| rows_bit_equal(&unique[u as usize * dim..(u as usize + 1) * dim], row));
            let code = match found {
                Some(u) => {
                    counts[u as usize] += 1;
                    u
                }
                None => {
                    let u = counts.len() as u32;
                    unique.extend_from_slice(row);
                    counts.push(1);
                    first_rows.push(i as u32);
                    candidates.push(u);
                    u
                }
            };
            codes.push(code);
        }
        Self {
            unique,
            dim,
            codes,
            counts,
            first_rows,
        }
    }

    /// Number of input rows.
    pub fn n_rows(&self) -> usize {
        self.codes.len()
    }

    /// Number of distinct vectors.
    pub fn n_unique(&self) -> usize {
        self.counts.len()
    }

    /// Vector dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The `u`-th distinct vector.
    #[inline]
    pub fn unique_row(&self, u: usize) -> &[f32] {
        &self.unique[u * self.dim..(u + 1) * self.dim]
    }

    /// One reference per distinct vector, in first-occurrence order.
    pub fn unique_row_refs(&self) -> Vec<&[f32]> {
        (0..self.n_unique()).map(|u| self.unique_row(u)).collect()
    }

    /// Per-row codes into the distinct vectors.
    pub fn codes(&self) -> &[u32] {
        &self.codes
    }

    /// Multiplicity of each distinct vector.
    pub fn counts(&self) -> &[u32] {
        &self.counts
    }

    /// First input row holding each distinct vector.
    pub fn first_rows(&self) -> &[u32] {
        &self.first_rows
    }

    /// The input row `i` (a view into the distinct storage).
    #[inline]
    pub fn row(&self, i: usize) -> &[f32] {
        self.unique_row(self.codes[i] as usize)
    }

    /// Expands a per-unique result to a per-row result by code.
    pub fn scatter<T: Copy>(&self, per_unique: &[T]) -> Vec<T> {
        debug_assert_eq!(per_unique.len(), self.n_unique());
        self.codes
            .iter()
            .map(|&c| per_unique[c as usize])
            .collect()
    }

    /// Nearest-centroid index per *distinct* vector, through the
    /// centroid-lane kernel (one centroid transpose per call).
    pub fn assign_unique(&self, centroids: &[Vec<f32>]) -> Vec<usize> {
        let mut lanes = CentroidLanes::new(centroids);
        (0..self.n_unique())
            .map(|u| lanes.nearest(self.unique_row(u)))
            .collect()
    }

    /// The distinct vectors transposed into lanes, for distance sweeps
    /// against one centre at a time (k-means++ seeding).
    pub(crate) fn point_lanes(&self) -> PointLanes {
        PointLanes::new(&self.unique, self.n_unique())
    }

    /// Nearest-centroid index per input row: one distance evaluation per
    /// distinct vector, scattered back by code. Bit-identical to
    /// [`crate::assign_to_nearest`] over the full rows.
    pub fn assign_to_nearest(&self, centroids: &[Vec<f32>]) -> Vec<usize> {
        self.scatter(&self.assign_unique(centroids))
    }

    /// Representative row per non-empty cluster: the row closest to its
    /// centroid, evaluated once per distinct vector.
    ///
    /// Bit-identical to [`Clustering::representatives_reference`] over the
    /// full rows: every duplicate row shares its distinct vector's distance,
    /// so the earliest minimal row is the winning distinct's first
    /// occurrence, and scanning distincts in first-occurrence order with a
    /// strict `<` reproduces the row-order tie-break exactly.
    pub fn representatives(&self, clustering: &Clustering) -> Vec<usize> {
        debug_assert_eq!(clustering.assignments.len(), self.n_rows());
        let mut best: Vec<Option<(u32, f32)>> = vec![None; clustering.k];
        for u in 0..self.n_unique() {
            let first = self.first_rows[u];
            let a = clustering.assignments[first as usize];
            let d = sq_dist(self.unique_row(u), &clustering.centroids[a]);
            match best[a] {
                Some((_, bd)) if !(d < bd) => {}
                _ => best[a] = Some((first, d)),
            }
        }
        best.into_iter()
            .flatten()
            .map(|(i, _)| i as usize)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(data: &[Vec<f32>]) -> Vec<&[f32]> {
        data.iter().map(|r| r.as_slice()).collect()
    }

    #[test]
    fn build_groups_duplicate_rows() {
        let data = vec![
            vec![1.0f32, 2.0],
            vec![3.0, 4.0],
            vec![1.0, 2.0],
            vec![1.0, 2.0],
            vec![5.0, 6.0],
        ];
        let dd = DedupPoints::build(&rows(&data));
        assert_eq!(dd.n_rows(), 5);
        assert_eq!(dd.n_unique(), 3);
        assert_eq!(dd.codes(), &[0, 1, 0, 0, 2]);
        assert_eq!(dd.counts(), &[3, 1, 1]);
        assert_eq!(dd.first_rows(), &[0, 1, 4]);
        assert_eq!(dd.unique_row(2), &[5.0, 6.0]);
        assert_eq!(dd.row(3), &[1.0, 2.0]);
    }

    #[test]
    fn negative_zero_is_a_distinct_pattern() {
        let data = vec![vec![0.0f32], vec![-0.0f32]];
        let dd = DedupPoints::build(&rows(&data));
        assert_eq!(dd.n_unique(), 2);
    }

    #[test]
    fn scatter_round_trips() {
        let data = vec![vec![1.0f32], vec![2.0], vec![1.0]];
        let dd = DedupPoints::build(&rows(&data));
        assert_eq!(dd.scatter(&[10usize, 20]), vec![10, 20, 10]);
    }

    #[test]
    fn dedup_assignment_matches_full_assignment() {
        let data: Vec<Vec<f32>> = (0..200)
            .map(|i| vec![(i % 7) as f32, (i % 3) as f32])
            .collect();
        let r = rows(&data);
        let dd = DedupPoints::build(&r);
        assert_eq!(dd.n_unique(), 21);
        let centroids = vec![vec![0.0f32, 0.0], vec![5.0, 2.0]];
        assert_eq!(
            dd.assign_to_nearest(&centroids),
            crate::assign_to_nearest_reference(&r, &centroids)
        );
    }

    #[test]
    fn empty_input_is_empty() {
        let r: Vec<&[f32]> = Vec::new();
        let dd = DedupPoints::build(&r);
        assert_eq!(dd.n_rows(), 0);
        assert_eq!(dd.n_unique(), 0);
        assert_eq!(dd.dim(), 0);
    }
}
