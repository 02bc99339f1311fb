//! Micro-benchmarks of the orchestration runtime: request-key hashing, cache
//! hit/miss paths and scheduler fan-out overhead. End to end, the repo
//! benchmark (`paper_bench/`) measures `detect` cold and warm, and the
//! `runtime_equivalence` tests bound the default runtime's LLM-stage speedup
//! over the sequential run.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use std::sync::Arc;
use zeroed_llm::{RequestKind, Response};
use zeroed_runtime::{RequestKey, ResponseCache, ResponseOrigin, Scheduler, StoredResponse};

fn key_for(i: u64) -> RequestKey {
    let mut b = RequestKey::builder(RequestKind::LabelBatch, "Qwen2.5-72b");
    b.text(
        "Task: decide for each value of attribute 'state' below whether it is clean or erroneous.",
    )
    .rows(&[1, 2, 3, 4, 5, 6, 7, 8])
    .word(i);
    b.finish()
}

fn bench_runtime(c: &mut Criterion) {
    let mut group = c.benchmark_group("runtime");

    group.bench_function("request_key_build", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = i.wrapping_add(1);
            black_box(key_for(i))
        })
    });

    group.bench_function("cache_hit", |b| {
        let cache = ResponseCache::new();
        let key = key_for(42);
        let _ = cache.get_or_compute(key, || StoredResponse {
            value: Response::Flags(vec![true; 20]),
            input_tokens: 800,
            output_tokens: 40,
            origin: ResponseOrigin::Computed,
        });
        b.iter(|| black_box(cache.get_or_compute(key, || unreachable!("must hit"))))
    });

    group.bench_function("cache_miss_insert", |b| {
        let cache = ResponseCache::new();
        let mut i = 0u64;
        b.iter(|| {
            i = i.wrapping_add(1);
            black_box(cache.get_or_compute(key_for(i), || StoredResponse {
                value: Response::Flags(vec![false; 20]),
                input_tokens: 800,
                output_tokens: 40,
                origin: ResponseOrigin::Computed,
            }))
        })
    });

    group.bench_function("scheduler_fanout_64", |b| {
        let scheduler = Scheduler::with_workers(8);
        b.iter(|| {
            let out = scheduler.run(64, |i| black_box(i * 2 + 1));
            black_box(out)
        })
    });

    // The shared-cache fan-out: many tasks asking for the same key must
    // coalesce onto a single computation.
    group.bench_function("scheduler_fanout_shared_cache", |b| {
        let scheduler = Scheduler::with_workers(8);
        b.iter(|| {
            let cache = Arc::new(ResponseCache::new());
            let out = scheduler.run(32, |i| {
                let (stored, _) = cache.get_or_compute(key_for(7), || StoredResponse {
                    value: Response::Flags(vec![true]),
                    input_tokens: 100,
                    output_tokens: 10,
                    origin: ResponseOrigin::Computed,
                });
                matches!(stored.value, Response::Flags(_)) as usize + i
            });
            black_box(out)
        })
    });

    group.finish();
}

criterion_group!(benches, bench_runtime);
criterion_main!(benches);
