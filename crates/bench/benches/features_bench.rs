//! Per-stage cost of the feature representation (paper §III-B): frequency
//! model, pattern generalisation, hashed embeddings, NMI and the full builder.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use zeroed_datagen::{generate, DatasetSpec, GenerateOptions};
use zeroed_features::{
    generalize, normalized_mutual_information, FeatureBuilder, FeatureConfig, FrequencyModel,
    HashEmbedder, Level,
};

fn bench_features(c: &mut Criterion) {
    let ds = generate(
        DatasetSpec::Hospital,
        &GenerateOptions {
            n_rows: 500,
            seed: 1,
            error_spec: None,
        },
    );
    let table = &ds.dirty;

    c.bench_function("features/frequency_model_500x20", |b| {
        b.iter(|| FrequencyModel::new(black_box(table)))
    });

    c.bench_function("features/pattern_generalize_l3", |b| {
        b.iter(|| {
            for row in table.rows().iter().take(100) {
                for v in row {
                    black_box(generalize(v, Level::L3));
                }
            }
        })
    });

    let embedder = HashEmbedder::new(24);
    c.bench_function("features/hash_embedding_cell", |b| {
        b.iter(|| black_box(embedder.embed("prophylactic antibiotic received within one hour")))
    });

    let col_a = table.column_refs(1);
    let col_b = table.column_refs(3);
    c.bench_function("features/nmi_500_rows", |b| {
        b.iter(|| black_box(normalized_mutual_information(&col_a, &col_b)))
    });

    let builder = FeatureBuilder::new(FeatureConfig {
        embed_dim: 16,
        top_k_corr: 2,
        ..FeatureConfig::default()
    });
    c.bench_function("features/full_build_500x20", |b| {
        b.iter(|| black_box(builder.fit(table, &[]).build_all()))
    });

    // Interned fast path vs. the seed per-cell reference on the same fitted
    // state.
    let fitted = builder.fit(table, &[]);
    c.bench_function("features/build_all_interned_500x20", |b| {
        b.iter(|| black_box(fitted.build_all()))
    });
    c.bench_function("features/build_all_reference_500x20", |b| {
        b.iter(|| black_box(zeroed_features::reference::build_all_reference(&fitted)))
    });

    c.bench_function("features/intern_table_500x20", |b| {
        b.iter(|| black_box(table.intern()))
    });

    let mut embed_out = vec![0.0f32; embedder.dim()];
    c.bench_function("features/hash_embedding_cell_into", |b| {
        b.iter(|| {
            embedder.embed_into(
                black_box("prophylactic antibiotic received within one hour"),
                &mut embed_out,
            );
            black_box(embed_out[0])
        })
    });
}

criterion_group!(benches, bench_features);
criterion_main!(benches);
