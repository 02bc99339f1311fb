//! Clustering cost in rows and dimensions (sampling step, paper §III-C).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use zeroed_cluster::{
    assign_to_nearest, assign_to_nearest_reference, cluster, kmeans, kmeans_reference,
    KMeansConfig, SamplingMethod,
};

fn synthetic(n: usize, dim: usize) -> Vec<Vec<f32>> {
    (0..n)
        .map(|i| {
            (0..dim)
                .map(|d| ((i * 31 + d * 17) % 97) as f32 / 97.0 + ((i % 7) * 3) as f32)
                .collect()
        })
        .collect()
}

/// `n` rows drawn from `u` distinct integer-valued vectors — the shape real
/// per-attribute features take (assembled per distinct cell value).
fn duplicated(n: usize, u: usize, dim: usize) -> Vec<Vec<f32>> {
    (0..n)
        .map(|i| {
            let v = (i * 7 + i / 11) % u;
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

fn bench_cluster(c: &mut Criterion) {
    let mut group = c.benchmark_group("cluster");
    for &n in &[500usize, 2_000] {
        let data = synthetic(n, 32);
        let rows: Vec<&[f32]> = data.iter().map(|r| r.as_slice()).collect();
        for method in [
            SamplingMethod::KMeans,
            SamplingMethod::Agglomerative,
            SamplingMethod::Random,
        ] {
            group.bench_with_input(
                BenchmarkId::new(method.name(), n),
                &rows,
                |b, rows| b.iter(|| black_box(cluster(method, rows, 25, 7))),
            );
        }
    }
    group.finish();
}

/// The sampling-stage hot path: dedup-weighted k-means against the retained
/// full-row oracle on low-cardinality tables (u distinct vectors ≪ n rows).
fn bench_kmeans_dedup(c: &mut Criterion) {
    let mut group = c.benchmark_group("kmeans_dedup");
    let config = KMeansConfig::default();
    for &(n, u) in &[(10_000usize, 50usize), (50_000, 200)] {
        let data = duplicated(n, u, 16);
        let rows: Vec<&[f32]> = data.iter().map(|r| r.as_slice()).collect();
        group.bench_with_input(
            BenchmarkId::new("dedup", format!("{n}x{u}")),
            &rows,
            |b, rows| b.iter(|| black_box(kmeans(rows, 25, &config, 7))),
        );
        // The oracle is quadratic in practice (k Lloyd scans over all rows),
        // so only the smaller shape gets the reference run.
        if n <= 10_000 {
            group.bench_with_input(
                BenchmarkId::new("oracle", format!("{n}x{u}")),
                &rows,
                |b, rows| b.iter(|| black_box(kmeans_reference(rows, 25, &config, 7))),
            );
        }
    }
    group.finish();
}

/// One nearest-centroid pass at the sampling stage's shape on movies (370
/// centroids of 108 dimensions): the lane-wise kernel against the scalar
/// `sq_dist` scan it replaced.
fn bench_assign_kernel(c: &mut Criterion) {
    let mut group = c.benchmark_group("assign_370x108");
    let data = synthetic(2_000, 108);
    let rows: Vec<&[f32]> = data.iter().map(|r| r.as_slice()).collect();
    let centroids = data[..370].to_vec();
    group.bench_with_input(BenchmarkId::new("lanes", 2_000), &rows, |b, rows| {
        b.iter(|| black_box(assign_to_nearest(rows, &centroids)))
    });
    group.bench_with_input(BenchmarkId::new("scalar", 2_000), &rows, |b, rows| {
        b.iter(|| black_box(assign_to_nearest_reference(rows, &centroids)))
    });
    group.finish();
}

criterion_group!(benches, bench_cluster, bench_kmeans_dedup, bench_assign_kernel);
criterion_main!(benches);
