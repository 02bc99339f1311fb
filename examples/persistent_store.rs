//! Persistence operations: sharded cross-process warm starts, TTL/GC and
//! read-only store inspection.
//!
//! ```text
//! cargo run --release --example persistent_store
//! ```
//!
//! Three detectors ("processes") share one sharded store root concurrently,
//! then a fresh detector warm-starts from the merged writer slots with zero
//! LLM requests, and the store is inspected the way `zeroed-store-tool`
//! would — without taking any locks.

use zeroed::prelude::*;
use zeroed::runtime::StoreConfig;

fn main() {
    let dir = std::env::temp_dir().join(format!("zeroed-example-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let ds = generate(
        DatasetSpec::Hospital,
        &GenerateOptions {
            n_rows: 400,
            seed: 7,
            error_spec: None,
        },
    );
    // Shard the key space 4 ways so concurrent detector processes can write
    // one store root without contending on a single lock; expire records
    // after a week so stale experiment bins reclaim themselves.
    let config = ZeroEdConfig::fast().with_store(
        StoreConfig::new(dir.to_str().unwrap())
            .with_shards(4)
            .with_ttl_secs(7 * 24 * 3600),
    );

    // Three concurrent writers, disjoint workloads (distinct LLM seeds).
    // Constructed up front so all three hold their writer slots at once.
    println!("cold: 3 concurrent detectors writing one sharded store root …");
    let detectors: Vec<ZeroEd> = (0..3).map(|_| ZeroEd::new(config.clone())).collect();
    let cold_masks: Vec<ErrorMask> = std::thread::scope(|scope| {
        let handles: Vec<_> = detectors
            .into_iter()
            .enumerate()
            .map(|(w, detector)| {
                let w = w as u64;
                let ds = &ds;
                scope.spawn(move || {
                    let llm = SimLlm::default_model(w).with_oracle(ds.mask.clone());
                    let outcome = detector.detect(&ds.dirty, &llm);
                    // The run's own write-through count, and a fact about
                    // the store the detector keeps.
                    let shards = detector
                        .store()
                        .map_or(0, |layer| layer.store().shard_count());
                    println!(
                        "  writer {w}: {} responses persisted across {shards} shards",
                        outcome.stats.persist.persisted_records
                    );
                    outcome.mask
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // A fresh detector merges every writer slot and replays all three
    // workloads without a single model call.
    println!("warm: fresh detector reopening the store …");
    let warm_detector = ZeroEd::new(config);
    println!("  {} records preloaded", warm_detector.cache().len());
    for (w, cold_mask) in cold_masks.iter().enumerate() {
        let llm = SimLlm::default_model(w as u64).with_oracle(ds.mask.clone());
        let outcome = warm_detector.detect(&ds.dirty, &llm);
        assert_eq!(&outcome.mask, cold_mask, "bit-identical replay");
        assert_eq!(llm.ledger().usage().requests, 0, "zero LLM requests");
        println!(
            "  workload {w}: mask identical, 0 LLM requests, {} tokens saved",
            outcome.stats.cache.tokens_saved()
        );
    }
    drop(warm_detector);

    // Inspect the store read-only — what `zeroed-store-tool stat` prints.
    let report = zeroed::store::inspect(&dir).expect("store readable");
    println!(
        "store: {} shards, {} writer dirs, {} live records, {} bytes",
        report.shard_count,
        report.units.len(),
        report.live.len(),
        report.total_file_bytes
    );
    for (kind, count) in report.kind_counts() {
        println!("  kind {kind:<10} {count}");
    }
    assert!(zeroed::store::verify(&dir).expect("verify runs").is_empty());
    println!("verify: every header and record checksum intact");

    let _ = std::fs::remove_dir_all(&dir);
}
