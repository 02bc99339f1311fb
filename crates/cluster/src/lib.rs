//! # zeroed-cluster
//!
//! Clustering and sampling substrate for ZeroED (paper §III-C and Table VI).
//!
//! ## Where it sits in the pipeline
//!
//! ZeroED's labelling budget is its scarce resource: the LLM labels a small
//! fraction of each attribute's cells (`label_rate`, paper Fig. 7), and
//! everything else receives its label through in-cluster propagation. This
//! crate decides *which* cells get the budget: each attribute's per-cell
//! feature vectors (from `zeroed-features`) are clustered, and the point
//! closest to each centroid becomes that cluster's representative — the cell
//! the LLM actually sees. Label quality therefore hinges on cluster quality,
//! which is why the paper sweeps the method (Table VI) and the budget
//! (Fig. 7) separately.
//!
//! The paper's default is k-means; Ward-linkage agglomerative clustering and
//! plain random selection are evaluated as alternatives. All three sit
//! behind the [`SamplingMethod`] enum so the pipeline (and the Table VI
//! experiment binary) can swap them without touching call sites:
//!
//! * [`kmeans()`] — Lloyd's iterations with k-means++-style seeding, the
//!   §III-C default. O(iters · k · u · d) over the `u` distinct vectors, with
//!   the distances computed by the lane-wise kernels of [`lanes`].
//! * [`agglomerative()`] — bottom-up Ward merging ("AGC" in Table VI); more
//!   faithful to irregular cluster shapes, quadratic in n, so the pipeline
//!   caps its input size (`max_cluster_rows`).
//! * Random — centroid-free control arm.
//!
//! ## Contracts
//!
//! * **Zero-copy input.** Data is a slice of row slices (`&[&[f32]]`),
//!   mapping directly onto `FeatureMatrix` rows — no reshaping between
//!   featurisation and clustering.
//! * **Determinism.** Every method is driven by an explicit seed through a
//!   counter-based RNG (`ChaCha8`); the same vectors, `k` and seed produce
//!   the same [`Clustering`] on every platform. The pipeline derives one
//!   seed per attribute, which is what makes whole detection runs
//!   reproducible (and their LLM request keys cacheable across processes —
//!   the representatives chosen here feed the prompts that
//!   `zeroed-runtime` content-hashes).
//! * **Degenerate inputs stay total.** `k` is clamped to the point count;
//!   empty inputs yield an empty clustering rather than panicking.
//! * **One CPU per call.** Every function runs on the calling thread; the
//!   pipeline parallelises by clustering one attribute per scheduler worker.

pub mod agglomerative;
pub mod dedup;
pub mod kmeans;
pub mod lanes;

pub use agglomerative::agglomerative;
pub use dedup::DedupPoints;
pub use kmeans::{
    kmeans, kmeans_dedup, kmeans_reference, kmeans_reference_with_initial, kmeans_with_initial,
    KMeansConfig,
};
pub use lanes::CentroidLanes;

use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Which sampling strategy to use when picking representative cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SamplingMethod {
    /// Lloyd's k-means with k-means++ style initialisation (paper default).
    KMeans,
    /// Ward-linkage agglomerative clustering (Table VI "AGC").
    Agglomerative,
    /// Random centre selection (Table VI "Random").
    Random,
}

impl SamplingMethod {
    /// Human readable name matching the paper's tables.
    pub fn name(&self) -> &'static str {
        match self {
            SamplingMethod::KMeans => "k-Means",
            SamplingMethod::Agglomerative => "AGC",
            SamplingMethod::Random => "Random",
        }
    }
}

/// The outcome of clustering one attribute's feature vectors.
#[derive(Debug, Clone)]
pub struct Clustering {
    /// Number of clusters.
    pub k: usize,
    /// Cluster index per data point.
    pub assignments: Vec<usize>,
    /// Cluster centroids.
    pub centroids: Vec<Vec<f32>>,
}

impl Clustering {
    /// Indices of the points belonging to cluster `c`.
    pub fn members(&self, c: usize) -> Vec<usize> {
        self.assignments
            .iter()
            .enumerate()
            .filter(|(_, &a)| a == c)
            .map(|(i, _)| i)
            .collect()
    }

    /// Number of points per cluster.
    pub fn sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.k];
        for &a in &self.assignments {
            sizes[a] += 1;
        }
        sizes
    }

    /// For each non-empty cluster, the index of the data point closest to the
    /// centroid — the representative that ZeroED sends to the LLM for
    /// labelling.
    ///
    /// Single pass over the rows; bit-identical to
    /// [`Clustering::representatives_reference`] (each row's distance is
    /// evaluated against its own cluster's centroid exactly as the per-cluster
    /// scan does, and the strict `<` keeps the earliest minimal row).
    pub fn representatives(&self, data: &[&[f32]]) -> Vec<usize> {
        let mut best: Vec<Option<(usize, f32)>> = vec![None; self.k];
        for (i, &a) in self.assignments.iter().enumerate() {
            let d = sq_dist(data[i], &self.centroids[a]);
            match best[a] {
                Some((_, bd)) if !(d < bd) => {}
                _ => best[a] = Some((i, d)),
            }
        }
        best.into_iter().flatten().map(|(i, _)| i).collect()
    }

    /// The original O(k·n) per-cluster scan, kept as the equivalence oracle
    /// for [`Clustering::representatives`].
    pub fn representatives_reference(&self, data: &[&[f32]]) -> Vec<usize> {
        let mut reps = Vec::with_capacity(self.k);
        for c in 0..self.k {
            let mut best: Option<(usize, f32)> = None;
            for (i, &a) in self.assignments.iter().enumerate() {
                if a != c {
                    continue;
                }
                let d = sq_dist(data[i], &self.centroids[c]);
                if best.map(|(_, bd)| d < bd).unwrap_or(true) {
                    best = Some((i, d));
                }
            }
            if let Some((i, _)) = best {
                reps.push(i);
            }
        }
        reps
    }
}

/// Squared Euclidean distance between two equal-length vectors.
#[inline]
pub fn sq_dist(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = 0.0f32;
    for (x, y) in a.iter().zip(b.iter()) {
        let d = x - y;
        acc += d * d;
    }
    acc
}

/// Clusters `data` into `k` groups with the requested method.
///
/// `k` is clamped to the number of points; an empty input produces an empty
/// clustering.
pub fn cluster(method: SamplingMethod, data: &[&[f32]], k: usize, seed: u64) -> Clustering {
    if data.is_empty() || k == 0 {
        return Clustering {
            k: 0,
            assignments: Vec::new(),
            centroids: Vec::new(),
        };
    }
    let k = k.min(data.len());
    match method {
        SamplingMethod::KMeans => kmeans(data, k, &KMeansConfig::default(), seed),
        SamplingMethod::Agglomerative => agglomerative(data, k, seed),
        SamplingMethod::Random => random_clustering(data, k, seed),
    }
}

/// Picks `k` random points as centres and assigns every point to its nearest
/// centre. This is the "Random" sampling baseline of Table VI.
pub fn random_clustering(data: &[&[f32]], k: usize, seed: u64) -> Clustering {
    let k = k.min(data.len());
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut indices: Vec<usize> = (0..data.len()).collect();
    indices.shuffle(&mut rng);
    let centroids: Vec<Vec<f32>> = indices[..k].iter().map(|&i| data[i].to_vec()).collect();
    let assignments = assign_to_nearest(data, &centroids);
    Clustering {
        k,
        assignments,
        centroids,
    }
}

/// Assigns each point to the index of its nearest centroid through the
/// centroid-lane kernel ([`CentroidLanes`]); bit-identical to
/// [`assign_to_nearest_reference`].
pub fn assign_to_nearest(data: &[&[f32]], centroids: &[Vec<f32>]) -> Vec<usize> {
    let mut lanes = CentroidLanes::new(centroids);
    data.iter().map(|row| lanes.nearest(row)).collect()
}

/// The scalar nearest-centroid scan (one [`sq_dist`] per point and centroid,
/// first minimal distance wins), kept as the oracle for
/// [`assign_to_nearest`] and the distance path of [`kmeans_reference`].
pub fn assign_to_nearest_reference(data: &[&[f32]], centroids: &[Vec<f32>]) -> Vec<usize> {
    data.iter()
        .map(|row| {
            let mut best = 0usize;
            let mut best_d = f32::INFINITY;
            for (c, centroid) in centroids.iter().enumerate() {
                let d = sq_dist(row, centroid);
                if d < best_d {
                    best_d = d;
                    best = c;
                }
            }
            best
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blobs() -> Vec<Vec<f32>> {
        // Three well-separated 2-D blobs of 20 points each.
        let mut data = Vec::new();
        for (cx, cy) in [(0.0f32, 0.0f32), (10.0, 10.0), (-10.0, 10.0)] {
            for i in 0..20 {
                let dx = (i % 5) as f32 * 0.1;
                let dy = (i / 5) as f32 * 0.1;
                data.push(vec![cx + dx, cy + dy]);
            }
        }
        data
    }

    fn refs(data: &[Vec<f32>]) -> Vec<&[f32]> {
        data.iter().map(|r| r.as_slice()).collect()
    }

    #[test]
    fn all_methods_recover_separated_blobs() {
        let data = blobs();
        let rows = refs(&data);
        for method in [
            SamplingMethod::KMeans,
            SamplingMethod::Agglomerative,
            SamplingMethod::Random,
        ] {
            let c = cluster(method, &rows, 3, 7);
            assert_eq!(c.k, 3, "{}", method.name());
            assert_eq!(c.assignments.len(), 60);
            // Points within the same blob should share a cluster for k-means
            // and agglomerative; random may split blobs, so only check
            // assignment validity there.
            if method != SamplingMethod::Random {
                for blob in 0..3 {
                    let first = c.assignments[blob * 20];
                    for i in 0..20 {
                        assert_eq!(
                            c.assignments[blob * 20 + i],
                            first,
                            "{} split blob {blob}",
                            method.name()
                        );
                    }
                }
            }
            for &a in &c.assignments {
                assert!(a < c.k);
            }
        }
    }

    #[test]
    fn representatives_are_one_per_nonempty_cluster() {
        let data = blobs();
        let rows = refs(&data);
        let c = cluster(SamplingMethod::KMeans, &rows, 3, 1);
        let reps = c.representatives(&rows);
        assert_eq!(reps.len(), 3);
        // Representatives come from distinct clusters.
        let clusters: std::collections::HashSet<usize> =
            reps.iter().map(|&i| c.assignments[i]).collect();
        assert_eq!(clusters.len(), 3);
    }

    #[test]
    fn cluster_handles_degenerate_inputs() {
        let empty: Vec<&[f32]> = Vec::new();
        let c = cluster(SamplingMethod::KMeans, &empty, 5, 0);
        assert_eq!(c.k, 0);
        let one = [vec![1.0f32, 2.0]];
        let rows = refs(&one);
        let c = cluster(SamplingMethod::Agglomerative, &rows, 5, 0);
        assert_eq!(c.k, 1);
        assert_eq!(c.assignments, vec![0]);
    }

    #[test]
    fn sizes_and_members_are_consistent() {
        let data = blobs();
        let rows = refs(&data);
        let c = cluster(SamplingMethod::KMeans, &rows, 3, 3);
        let sizes = c.sizes();
        assert_eq!(sizes.iter().sum::<usize>(), 60);
        for cl in 0..3 {
            assert_eq!(c.members(cl).len(), sizes[cl]);
        }
    }

    #[test]
    fn random_clustering_is_deterministic_per_seed() {
        let data = blobs();
        let rows = refs(&data);
        let a = random_clustering(&rows, 4, 11);
        let b = random_clustering(&rows, 4, 11);
        assert_eq!(a.assignments, b.assignments);
    }
}
