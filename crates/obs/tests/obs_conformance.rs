//! Conformance suite for `zeroed-obs`: span attribution under concurrent
//! writers, histogram quantile exactness against a sorted-sample oracle, a
//! serialization golden for [`StageProfile`], and an overhead guard keeping
//! the always-on profiler cheap enough to never turn off.

use std::time::{Duration, Instant};
use zeroed_obs::{Histogram, Profiler, StageProfile};

/// Deterministic pseudo-random stream (splitmix64) — no external crates.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[test]
fn span_attribution_is_exact_under_concurrent_writers() {
    const THREADS: u64 = 8;
    const RECORDS_PER_THREAD: u64 = 1_000;
    let profiler = Profiler::new("run");
    let root = profiler.root();
    let shared = root.child_parallel("stage").child_dist("task");
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let shared = shared.clone();
            let own = root.child_parallel("stage").child_dist(&format!("worker-{t}"));
            scope.spawn(move || {
                for i in 0..RECORDS_PER_THREAD {
                    shared.record(Duration::from_nanos(1_000 + i));
                    own.record(Duration::from_nanos(t + 1));
                }
            });
        }
    });
    let snap = profiler.snapshot();
    let stage = snap.child("stage").expect("stage node");
    // One node per distinct name: the shared child plus one per worker.
    assert_eq!(stage.children.len(), 1 + THREADS as usize);
    let task = stage.child("task").unwrap();
    assert_eq!(task.count, THREADS * RECORDS_PER_THREAD, "no lost records");
    // Sum of an arithmetic series times the number of threads — exact.
    let expected: u64 = THREADS * (0..RECORDS_PER_THREAD).map(|i| 1_000 + i).sum::<u64>();
    assert_eq!(task.wall_nanos, expected, "no lost nanoseconds");
    for t in 0..THREADS {
        let own = stage.child(&format!("worker-{t}")).unwrap();
        assert_eq!(own.count, RECORDS_PER_THREAD);
        assert_eq!(own.wall_nanos, (t + 1) * RECORDS_PER_THREAD, "cross-thread attribution leak");
    }
}

#[test]
fn histogram_quantiles_match_a_sorted_sample_oracle() {
    let mut state = 7u64;
    let hist = Histogram::new();
    let mut samples: Vec<u64> = Vec::new();
    for _ in 0..2_500 {
        let nanos = splitmix(&mut state) % 10_000_000;
        hist.record_nanos(nanos);
        samples.push(nanos);
    }
    samples.sort_unstable();
    let n = samples.len();
    for q in [0.01, 0.10, 0.25, 0.50, 0.75, 0.90, 0.95, 0.99, 1.0] {
        let rank = (q * n as f64).ceil() as usize;
        let oracle = samples[rank.clamp(1, n) - 1];
        assert_eq!(
            hist.quantile(q),
            Duration::from_nanos(oracle),
            "nearest-rank mismatch at q={q}"
        );
    }
    let snap = hist.snapshot();
    assert_eq!(snap.p50_nanos, samples[(0.5 * n as f64).ceil() as usize - 1]);
    assert_eq!(snap.max_nanos, *samples.last().unwrap());
    assert_eq!(snap.count, n as u64);
    assert_eq!(snap.total_nanos, samples.iter().sum::<u64>());
}

#[test]
fn stage_profile_serialization_golden() {
    let mut root = StageProfile::leaf("detect", Duration::from_millis(100), 1);
    root.children
        .push(StageProfile::leaf("features", Duration::from_micros(61_500), 1));
    let mut dist = StageProfile::leaf("label_attribute", Duration::from_millis(250), 20);
    dist.parallel = true;
    dist.quantiles = Some(zeroed_obs::Quantiles {
        p50_nanos: 11_000_000,
        p95_nanos: 19_500_000,
        p99_nanos: 21_000_000,
        max_nanos: 22_000_000,
        window_dropped: 0,
    });
    let mut labeling = StageProfile::leaf("labeling", Duration::from_millis(30), 1);
    labeling.children.push(dist);
    root.children.push(labeling);
    assert_eq!(
        root.to_json(),
        "{\"name\": \"detect\", \"wall_ms\": 100.000, \"count\": 1, \"parallel\": false, \
         \"children\": [\
         {\"name\": \"features\", \"wall_ms\": 61.500, \"count\": 1, \"parallel\": false}, \
         {\"name\": \"labeling\", \"wall_ms\": 30.000, \"count\": 1, \"parallel\": false, \
         \"children\": [{\"name\": \"label_attribute\", \"wall_ms\": 250.000, \"count\": 20, \
         \"parallel\": true, \"p50_ms\": 11.000, \"p95_ms\": 19.500, \"p99_ms\": 21.000, \
         \"max_ms\": 22.000}]}]}"
    );
    // The golden tree also satisfies the invariants the bench asserts.
    assert!(root.accounting_ok());
    assert!((root.coverage() - 0.915).abs() < 1e-9);
}

/// Overhead guard: recording a span must be cheap enough to leave on
/// unconditionally. The bound is deliberately loose (10µs/record amortized —
/// two orders of magnitude above the measured cost) so the guard catches a
/// pathological regression (a sort on the hot path, an O(children) blowup),
/// not scheduler noise.
#[test]
fn span_recording_overhead_stays_negligible() {
    const RECORDS: u32 = 100_000;
    let profiler = Profiler::new("overhead");
    let span = profiler.root().child_dist("op");
    let t = Instant::now();
    for i in 0..RECORDS {
        span.record(Duration::from_nanos(u64::from(i)));
    }
    let per_record = t.elapsed() / RECORDS;
    assert!(
        per_record < Duration::from_micros(10),
        "span recording costs {per_record:?} per record"
    );
    // The get-or-create child lookup on a realistic fan-out is also hot-path.
    let parent = profiler.root().child("stages");
    for i in 0..16 {
        parent.child(&format!("s{i}"));
    }
    let t = Instant::now();
    for _ in 0..RECORDS / 10 {
        parent.child("s15").record(Duration::ZERO);
    }
    let per_lookup = t.elapsed() / (RECORDS / 10);
    assert!(
        per_lookup < Duration::from_micros(20),
        "child lookup + record costs {per_lookup:?}"
    );
}
