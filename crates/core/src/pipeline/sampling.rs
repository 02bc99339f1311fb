//! Step 2 — clustering-based representative sampling (paper §III-C).
//!
//! This stage dominated the non-LLM wall at 50k rows, so the hot path runs
//! over *deduplicated* feature rows: per-attribute vectors are assembled per
//! distinct value (`zeroed-features`), so an attribute with `n` rows
//! carries only `u ≪ n` distinct vectors. [`sample_distinct`] takes them as
//! a [`DedupPoints`] — the pipeline streams it from the fitted caches
//! ([`super::features::distinct_vectors`]) and never builds the attribute's
//! matrix; [`sample_column`] factors a matrix through one first — and then
//!
//! * k-means seeds over the distinct vectors transposed *in place* into
//!   32-lane blocks ([`zeroed_cluster::kmeans_dedup`], which is why
//!   [`sample_distinct`] borrows them mutably; they come back bit-identical),
//!   so a CPU-lane worker holds one copy of an attribute's distinct vectors,
//!   not two. The seeding sweep also yields the first assignment, and the
//!   Lloyd loops then run per distinct vector, weighting centroid updates by
//!   multiplicity, each assignment pass re-sweeping only the centroids the
//!   last update moved (the `zeroed_cluster::kmeans` module docs),
//! * the final full-column assignment, the last of those passes, is
//!   scattered to rows by code, and
//! * representative selection scans distincts instead of rows.
//!
//! All three are bit-identical to their full-row counterparts (see
//! `zeroed_cluster::dedup`), which the scalar paths — retained as equivalence
//! oracles — assert in the cluster crate's test suite; debug builds also
//! check every incremental pass against a full sweep. The distances come
//! from the bit-identical lane-wise kernels of `zeroed_cluster::lanes`, and
//! [`sample_distinct`] runs entirely on the calling thread: the pipeline's
//! scheduler supplies the parallelism, one attribute per worker of the
//! attribute chains' CPU lane.
//!
//! Two compute policies bound the stage: the `max_cluster_rows` cap applies
//! to the *distinct* count (only attributes whose cardinality exceeds it
//! fall back to a strided row subsample, read by code from the distinct
//! vectors), and the stage's k-means runs under a reduced Lloyd budget
//! (`sampling_kmeans_config`) — representative selection stabilises long
//! before full convergence.

use zeroed_cluster::{
    cluster, kmeans, kmeans_dedup, Clustering, DedupPoints, KMeansConfig, SamplingMethod,
};
use zeroed_features::FeatureMatrix;

/// The clustering of one attribute's cells plus the representative (closest to
/// centroid) row per cluster.
#[derive(Debug, Clone)]
pub struct ColumnSampling {
    /// Cluster assignment of every row of the attribute.
    pub clustering: Clustering,
    /// Row indices of the representatives sent to the LLM.
    pub representatives: Vec<usize>,
}

/// Stride for the strided subsample of an oversized attribute, chosen by
/// ceiling division so the sample never exceeds `max_rows`.
///
/// The former floor division (`n_rows / max_rows`) yielded stride 1 for every
/// `n_rows < 2 * max_rows`, so the "capped" clustering silently ran over the
/// full attribute until twice the cap.
fn subsample_stride(n_rows: usize, max_rows: usize) -> usize {
    n_rows.div_ceil(max_rows.max(1)).max(1)
}

/// The k-means budget for the sampling stage. Sampling clusters an attribute
/// to *pick representatives*, not to report a converged partition: after a
/// handful of Lloyd iterations the per-cluster closest-to-centroid cell is
/// stable for the table shapes the pipeline sees, while the default budget
/// (40 iterations at tolerance 1e-4, which f32 movement noise rarely
/// reaches) spends most of its time polishing centroids to the fourth
/// decimal. The equivalence oracles in `zeroed-cluster` are config-generic,
/// so the dedup fast path keeps its bit-identity guarantees under this
/// budget too.
fn sampling_kmeans_config() -> KMeansConfig {
    KMeansConfig {
        max_iters: 12,
        tolerance: 1e-3,
    }
}

/// Clusters one attribute's unified feature matrix into `k` clusters and
/// picks the centroid representatives: [`sample_distinct`] over the
/// matrix's distinct rows, with the same result. `ZeroEd::detect` calls
/// [`sample_distinct`] directly and never builds the matrix.
pub fn sample_column(
    features: &FeatureMatrix,
    k: usize,
    method: SamplingMethod,
    seed: u64,
    max_rows: usize,
) -> ColumnSampling {
    sample_distinct(
        &mut DedupPoints::build(&features.row_refs()),
        k,
        method,
        seed,
        max_rows,
    )
}

/// Clusters one attribute's unified features, given as their distinct
/// vectors `dd`, into `k` clusters and picks the centroid representatives.
///
/// `max_rows` caps the clustering *compute*, and compute on the dedup path
/// scales with the distinct count: an attribute whose `n_unique()` fits the
/// cap clusters exactly over its weighted distincts no matter how many rows
/// it has. Only high-cardinality attributes exceeding the cap cluster an
/// evenly strided row subsample, with the remaining rows assigned to their
/// nearest centroid — which keeps the step linear for the 200k-row Tax
/// dataset while leaving representative selection unchanged.
///
/// `dd` is borrowed mutably because k-means seeds over its vectors
/// transposed in place; they come back bit-identical.
pub fn sample_distinct(
    dd: &mut DedupPoints,
    k: usize,
    method: SamplingMethod,
    seed: u64,
    max_rows: usize,
) -> ColumnSampling {
    let n_rows = dd.n_rows();
    if n_rows == 0 {
        return ColumnSampling {
            clustering: Clustering {
                k: 0,
                assignments: Vec::new(),
                centroids: Vec::new(),
            },
            representatives: Vec::new(),
        };
    }
    let k = k.clamp(1, n_rows);

    // The Lloyd cost of the dedup path scales with the *distinct* count, so
    // the `max_rows` compute cap applies to `n_unique()`, not to `n_rows`:
    // a million-row attribute with 2k distinct values clusters exactly (all
    // rows weighted in) instead of over a strided sample.
    let direct_kmeans =
        matches!(method, SamplingMethod::KMeans) && dd.n_unique() <= max_rows.max(1);
    if n_rows <= max_rows || direct_kmeans {
        let clustering = match method {
            // The paper-default method gets the dedup-weighted Lloyd loop.
            SamplingMethod::KMeans => kmeans_dedup(dd, k, &sampling_kmeans_config(), seed),
            _ => {
                let rows: Vec<&[f32]> = (0..n_rows).map(|i| dd.row(i)).collect();
                cluster(method, &rows, k, seed)
            }
        };
        let representatives = dd.representatives(&clustering);
        return ColumnSampling {
            clustering,
            representatives,
        };
    }

    // Subsampled clustering for very large high-cardinality attributes.
    let stride = subsample_stride(n_rows, max_rows);
    let sample_rows: Vec<&[f32]> = (0..n_rows).step_by(stride).map(|i| dd.row(i)).collect();
    let sub = match method {
        SamplingMethod::KMeans => kmeans(&sample_rows, k, &sampling_kmeans_config(), seed),
        _ => cluster(method, &sample_rows, k, seed),
    };
    // Assign *all* rows to the nearest centroid of the subsampled clustering
    // (one distance evaluation per distinct vector, scattered by code).
    let assignments = dd.assign_to_nearest(&sub.centroids);
    let clustering = Clustering {
        k: sub.k,
        assignments,
        centroids: sub.centroids,
    };
    let representatives = dd.representatives(&clustering);
    ColumnSampling {
        clustering,
        representatives,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feature_matrix(n: usize) -> FeatureMatrix {
        // Two obvious groups: small values and large values.
        FeatureMatrix::from_rows(
            (0..n)
                .map(|i| {
                    let base = if i % 2 == 0 { 0.0f32 } else { 10.0 };
                    vec![base + (i % 5) as f32 * 0.01, base]
                })
                .collect(),
        )
    }

    #[test]
    fn samples_one_representative_per_cluster() {
        let feats = feature_matrix(200);
        let s = sample_column(&feats, 2, SamplingMethod::KMeans, 1, 10_000);
        assert_eq!(s.clustering.k, 2);
        assert_eq!(s.representatives.len(), 2);
        assert_eq!(s.clustering.assignments.len(), 200);
        // The two representatives come from different groups.
        let a = s.clustering.assignments[s.representatives[0]];
        let b = s.clustering.assignments[s.representatives[1]];
        assert_ne!(a, b);
    }

    #[test]
    fn subsampled_path_covers_all_rows() {
        let feats = feature_matrix(2_000);
        let s = sample_column(&feats, 4, SamplingMethod::KMeans, 2, 500);
        assert_eq!(s.clustering.assignments.len(), 2_000);
        assert!(s.representatives.len() <= 4 && !s.representatives.is_empty());
        for &r in &s.representatives {
            assert!(r < 2_000);
        }
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let empty = FeatureMatrix::zeros(0, 3);
        let s = sample_column(&empty, 5, SamplingMethod::KMeans, 0, 100);
        assert!(s.representatives.is_empty());
        let one = FeatureMatrix::from_rows(vec![vec![1.0, 2.0]]);
        let s = sample_column(&one, 5, SamplingMethod::Random, 0, 100);
        assert_eq!(s.representatives, vec![0]);
    }

    /// A low-cardinality attribute far above `max_rows` must still take the
    /// exact dedup path (the compute cap applies to distincts): every row is
    /// assigned, both groups get a representative, and the clustering
    /// matches the uncapped run exactly.
    #[test]
    fn low_cardinality_column_clusters_exactly_past_the_row_cap() {
        let feats = feature_matrix(5_000); // 10 distinct vectors
        let capped = sample_column(&feats, 2, SamplingMethod::KMeans, 3, 100);
        let uncapped = sample_column(&feats, 2, SamplingMethod::KMeans, 3, usize::MAX);
        assert_eq!(capped.clustering.assignments.len(), 5_000);
        assert_eq!(
            capped.clustering.assignments,
            uncapped.clustering.assignments
        );
        assert_eq!(capped.clustering.centroids, uncapped.clustering.centroids);
        assert_eq!(capped.representatives, uncapped.representatives);
        let a = capped.clustering.assignments[capped.representatives[0]];
        let b = capped.clustering.assignments[capped.representatives[1]];
        assert_ne!(a, b);
    }

    /// A matrix whose rows repeat with period 7 while every 3rd row is
    /// unique, so it has more distinct rows than a small cap and keeps
    /// duplicates on the strided sample.
    fn mixed_matrix(n: usize) -> FeatureMatrix {
        FeatureMatrix::from_rows(
            (0..n)
                .map(|i| {
                    let id = if i % 3 == 0 { i } else { i % 7 };
                    vec![(id % 13) as f32 * 0.7 - 2.0, (id / 13) as f32 * 0.3, -0.0]
                })
                .collect(),
        )
    }

    fn centroid_bits(c: &Clustering) -> Vec<Vec<u32>> {
        c.centroids
            .iter()
            .map(|v| v.iter().map(|x| x.to_bits()).collect())
            .collect()
    }

    /// On the strided-subsample path the distinct core reads the sampled
    /// rows by code (`dd.row(i)`). That equals the former path over the
    /// matrix rows, restated here with the scalar oracles, and
    /// `sample_column` over the matrix, for every method.
    #[test]
    fn distinct_core_matches_the_matrix_on_the_subsample_path() {
        use zeroed_cluster::assign_to_nearest_reference;
        let (n, k, max_rows) = (600usize, 5usize, 90usize);
        let feats = mixed_matrix(n);
        let rows = feats.row_refs();
        let mut dd = DedupPoints::build(&rows);
        assert!(dd.n_unique() > max_rows && dd.n_unique() < n);
        for method in [
            SamplingMethod::KMeans,
            SamplingMethod::Random,
            SamplingMethod::Agglomerative,
        ] {
            let got = sample_distinct(&mut dd, k, method, 4, max_rows);
            let stride = subsample_stride(n, max_rows);
            let sample: Vec<&[f32]> = (0..n).step_by(stride).map(|i| feats.row(i)).collect();
            let sub = match method {
                SamplingMethod::KMeans => kmeans(&sample, k, &sampling_kmeans_config(), 4),
                _ => cluster(method, &sample, k, 4),
            };
            let expected = Clustering {
                k: sub.k,
                assignments: assign_to_nearest_reference(&rows, &sub.centroids),
                centroids: sub.centroids,
            };
            let name = method.name();
            assert_eq!(got.clustering.k, expected.k, "{name}");
            assert_eq!(got.clustering.assignments, expected.assignments, "{name}");
            assert_eq!(
                centroid_bits(&got.clustering),
                centroid_bits(&expected),
                "{name}"
            );
            assert_eq!(
                got.representatives,
                expected.representatives_reference(&rows),
                "{name}"
            );
            let wrapped = sample_column(&feats, k, method, 4, max_rows);
            assert_eq!(wrapped.clustering.assignments, got.clustering.assignments);
            assert_eq!(
                centroid_bits(&wrapped.clustering),
                centroid_bits(&got.clustering)
            );
            assert_eq!(wrapped.representatives, got.representatives, "{name}");
        }
    }

    /// Boundary regression for the subsample cap: at `n = max_rows + 1` the
    /// floor-division stride was 1, so the "capped" clustering ran over all
    /// rows. Ceiling division must keep the sample within `max_rows` for
    /// every oversized `n`.
    #[test]
    fn subsample_never_exceeds_max_rows_at_the_boundary() {
        for max_rows in [1usize, 2, 7, 500] {
            for n_rows in [
                max_rows + 1,
                2 * max_rows - 1,
                2 * max_rows,
                3 * max_rows + 1,
            ] {
                if n_rows <= max_rows {
                    continue;
                }
                let stride = subsample_stride(n_rows, max_rows);
                let sampled = (0..n_rows).step_by(stride).count();
                assert!(
                    sampled <= max_rows,
                    "n={n_rows} max={max_rows}: stride {stride} samples {sampled} rows"
                );
            }
        }
        // The exact boundary the bug hid behind.
        assert_eq!(subsample_stride(501, 500), 2);
    }
}
