//! Equivalence and property suite for the dedup-weighted clustering fast
//! paths against their retained scalar oracles.
//!
//! The duplicated-row tables below use integer-valued f32 features so the
//! weighted f64 centroid sums are exact; in that regime the fast path is
//! bit-identical to the full-row oracle (see the `kmeans` module docs). The
//! all-distinct tables exercise the regime where the two paths coincide
//! unconditionally (every multiplicity is 1, and `1.0 * x == x` exactly).
//! The fast path computes its distances with the lane-wise kernels and the
//! oracle with scalar `sq_dist` calls, so every comparison here also checks
//! the kernels.

use zeroed_cluster::{
    assign_to_nearest, assign_to_nearest_reference, kmeans, kmeans_dedup, kmeans_reference,
    sq_dist, CentroidLanes, DedupPoints, KMeansConfig, SamplingMethod,
};

fn refs(data: &[Vec<f32>]) -> Vec<&[f32]> {
    data.iter().map(|r| r.as_slice()).collect()
}

/// A low-cardinality table shaped like real per-attribute features: `n` rows
/// drawn from `u` distinct integer-valued vectors, interleaved so duplicate
/// runs are non-contiguous.
fn duplicated_table(n: usize, u: usize, dim: usize) -> Vec<Vec<f32>> {
    (0..n)
        .map(|i| {
            let v = (i * 7 + i / 11) % u;
            // Dimension 0 carries `v` itself so the table holds exactly `u`
            // distinct vectors; the rest wrap for varied geometry.
            (0..dim)
                .map(|d| {
                    if d == 0 {
                        v as f32
                    } else {
                        ((v * (d + 3) + d * d) % 23) as f32
                    }
                })
                .collect()
        })
        .collect()
}

/// An all-distinct table with non-integer values.
fn distinct_table(n: usize, dim: usize) -> Vec<Vec<f32>> {
    (0..n)
        .map(|i| {
            (0..dim)
                .map(|d| (i * dim + d) as f32 * 0.37 - 1.9)
                .collect()
        })
        .collect()
}

#[test]
fn dedup_kmeans_is_bit_identical_to_the_oracle_on_duplicated_tables() {
    for (n, u, k, seed) in [
        (500usize, 9usize, 4usize, 1u64),
        (1_000, 40, 12, 7),
        (737, 3, 5, 99),
        (200, 200, 8, 5), // u == n: degenerate dedup, still identical
    ] {
        let data = duplicated_table(n, u, 4);
        let rows = refs(&data);
        let config = KMeansConfig::default();
        let fast = kmeans(&rows, k, &config, seed);
        let oracle = kmeans_reference(&rows, k, &config, seed);
        assert_eq!(fast.k, oracle.k, "n={n} u={u} k={k} seed={seed}");
        assert_eq!(fast.assignments, oracle.assignments, "n={n} u={u} k={k}");
        assert_eq!(fast.centroids, oracle.centroids, "n={n} u={u} k={k}");
    }
}

#[test]
fn dedup_kmeans_is_bit_identical_to_the_oracle_on_all_distinct_tables() {
    let data = distinct_table(300, 3);
    let rows = refs(&data);
    let config = KMeansConfig::default();
    for seed in [0u64, 3, 17] {
        let fast = kmeans(&rows, 6, &config, seed);
        let oracle = kmeans_reference(&rows, 6, &config, seed);
        assert_eq!(fast.assignments, oracle.assignments, "seed={seed}");
        assert_eq!(fast.centroids, oracle.centroids, "seed={seed}");
    }
}

#[test]
fn single_pass_representatives_match_the_reference_scan() {
    for (n, u, k, seed) in [(400usize, 11usize, 6usize, 2u64), (250, 250, 9, 4)] {
        let data = duplicated_table(n, u, 3);
        let rows = refs(&data);
        let c = kmeans(&rows, k, &KMeansConfig::default(), seed);
        assert_eq!(
            c.representatives(&rows),
            c.representatives_reference(&rows),
            "n={n} u={u} k={k}"
        );
    }
}

#[test]
fn dedup_representatives_match_the_reference_scan() {
    let data = duplicated_table(600, 13, 4);
    let rows = refs(&data);
    let dd = DedupPoints::build(&rows);
    for method in [SamplingMethod::KMeans, SamplingMethod::Random] {
        let c = zeroed_cluster::cluster(method, &rows, 7, 11);
        assert_eq!(
            dd.representatives(&c),
            c.representatives_reference(&rows),
            "{}",
            method.name()
        );
    }
}

#[test]
fn dedup_assignment_matches_full_assignment_on_large_input() {
    let data = duplicated_table(2_000, 31, 5);
    let rows = refs(&data);
    let dd = DedupPoints::build(&rows);
    let c = kmeans(&rows, 10, &KMeansConfig::default(), 3);
    let oracle = assign_to_nearest_reference(&rows, &c.centroids);
    assert_eq!(dd.assign_to_nearest(&c.centroids), oracle);
    assert_eq!(assign_to_nearest(&rows, &c.centroids), oracle);
}

/// SplitMix64 finaliser: a seeded stream of test values.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// All-distinct rows shaped like the sampling stage's input: values in
/// (-4, 4) with exact `0.0` and `-0.0` entries mixed in, and every seventh
/// row scaled by 1e3 so that some squared distances need the full f32 range.
fn sampling_shape_table(n: usize, dim: usize, salt: u64) -> Vec<Vec<f32>> {
    (0..n)
        .map(|r| {
            let gain = if r % 7 == 0 { 1e3 } else { 1.0 };
            (0..dim)
                .map(|c| {
                    let z = mix(salt ^ (r * dim + c) as u64);
                    match z % 9 {
                        0 => 0.0,
                        1 => -0.0,
                        _ => ((z >> 40) as f32 / (1u64 << 24) as f32 - 0.5) * 8.0 * gain,
                    }
                })
                .collect()
        })
        .collect()
}

/// The centroid-lane kernel at the sampling stage's shape on movies (370
/// centroids of 108 dimensions) and at odd widths that leave a remainder in
/// any vector loop (371 centroids, 37 and 1 dimensions): every distance
/// equals `sq_dist` bit for bit, and every assignment equals the scalar
/// scan's, on points that include rows equal to a centroid.
#[test]
fn centroid_lanes_match_the_scalar_scan_at_the_sampling_shape() {
    for (n, k, dim) in [(300usize, 370usize, 108usize), (257, 371, 37), (64, 9, 1)] {
        let points = sampling_shape_table(n, dim, 1);
        let mut centroids = sampling_shape_table(k, dim, 2);
        // A duplicated centroid: the tie must go to the lower index.
        centroids[k / 2] = centroids[1].clone();
        let mut rows = refs(&points);
        rows.extend(centroids.iter().step_by(17).map(|c| c.as_slice()));
        let mut lanes = CentroidLanes::new(&centroids);
        for row in &rows {
            let scalar: Vec<u32> = centroids.iter().map(|c| sq_dist(row, c).to_bits()).collect();
            let lane: Vec<u32> = lanes.sq_dists(row).iter().map(|d| d.to_bits()).collect();
            assert_eq!(lane, scalar, "n={n} k={k} dim={dim}");
        }
        let oracle = assign_to_nearest_reference(&rows, &centroids);
        assert_eq!(assign_to_nearest(&rows, &centroids), oracle, "k={k} dim={dim}");
        let dd = DedupPoints::build(&rows);
        assert_eq!(dd.assign_to_nearest(&centroids), oracle, "k={k} dim={dim}");
    }
}

/// The dedup path end to end (point-lane seeding, centroid-lane Lloyd
/// passes, final assignment) against the scalar oracle under the sampling
/// stage's Lloyd budget, with `k` and `dim` at odd widths.
#[test]
fn lane_kmeans_is_bit_identical_to_the_oracle_at_an_odd_shape() {
    let data = sampling_shape_table(403, 37, 3);
    let rows = refs(&data);
    let config = KMeansConfig {
        max_iters: 12,
        tolerance: 1e-3,
    };
    for (k, seed) in [(75usize, 1u64), (403, 2)] {
        let fast = kmeans(&rows, k, &config, seed);
        let oracle = kmeans_reference(&rows, k, &config, seed);
        assert_eq!(fast.assignments, oracle.assignments, "k={k}");
        let bits = |c: &[Vec<f32>]| -> Vec<Vec<u32>> {
            c.iter().map(|v| v.iter().map(|x| x.to_bits()).collect()).collect()
        };
        assert_eq!(bits(&fast.centroids), bits(&oracle.centroids), "k={k}");
    }
}

/// Zero-width rows, a single row, and a single distinct vector behind many
/// rows finish and equal the oracle. With zero width every distance is 0,
/// so seeding takes its all-coincident branch and every row joins cluster 0.
#[test]
fn degenerate_shapes_match_the_oracle() {
    let config = KMeansConfig::default();
    let zero_width = vec![Vec::<f32>::new(); 9];
    let one_row = vec![vec![1.5f32, -0.0, 3.0]];
    let one_distinct = vec![vec![2.0f32, 7.0]; 40];
    for data in [&zero_width, &one_row, &one_distinct] {
        let rows = refs(data);
        for k in [1usize, 3] {
            let fast = kmeans(&rows, k, &config, 4);
            let oracle = kmeans_reference(&rows, k, &config, 4);
            assert_eq!(fast.k, oracle.k);
            assert_eq!(fast.assignments, oracle.assignments);
            assert_eq!(fast.centroids, oracle.centroids);
            assert_eq!(
                kmeans_dedup(&DedupPoints::build(&rows), k, &config, 4).assignments,
                oracle.assignments
            );
        }
        let dd = DedupPoints::build(&rows);
        assert_eq!(dd.assign_to_nearest(&[]), vec![0; rows.len()]);
        assert_eq!(assign_to_nearest(&rows, &[]), vec![0; rows.len()]);
    }
    let rows = refs(&zero_width);
    assert_eq!(kmeans(&rows, 3, &config, 4).assignments, vec![0; 9]);
    for method in [
        SamplingMethod::KMeans,
        SamplingMethod::Agglomerative,
        SamplingMethod::Random,
    ] {
        let c = zeroed_cluster::cluster(method, &rows, 3, 4);
        assert_eq!(c.assignments.len(), 9, "{}", method.name());
    }
}

/// The empty-cluster re-seed fix's global property: whenever the input holds
/// at least `k` distinct points, the converged clustering must never carry
/// two bit-identical centroids.
#[test]
fn no_duplicate_centroids_when_at_least_k_distinct_points() {
    for (n, u, k) in [
        (300usize, 8usize, 8usize),
        (300, 8, 5),
        (500, 20, 16),
        (512, 64, 32),
    ] {
        let data = duplicated_table(n, u, 3);
        let rows = refs(&data);
        assert!(DedupPoints::build(&rows).n_unique() >= k, "premise violated");
        for seed in 0..8u64 {
            let c = kmeans(&rows, k, &KMeansConfig::default(), seed);
            for a in 0..c.centroids.len() {
                for b in (a + 1)..c.centroids.len() {
                    assert_ne!(
                        c.centroids[a], c.centroids[b],
                        "n={n} u={u} k={k} seed={seed}: clusters {a}/{b} collide"
                    );
                }
            }
        }
    }
}
