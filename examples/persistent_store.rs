//! Persistence: a cross-process warm start and read-only store inspection.
//!
//! ```text
//! cargo run --release --example persistent_store
//! ```
//!
//! Three steps: a cold detector writes every response to a store directory,
//! a fresh detector ("the next process") replays the store with zero LLM
//! requests and a bit-identical mask, and the store is inspected and
//! verified the way `zeroed-store-tool` would, without taking its lock.

use zeroed::prelude::*;

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
    let config = ZeroEdConfig::fast().with_store_dir(dir.to_string_lossy());
    let llm = || SimLlm::default_model(7).with_oracle(ds.mask.clone());

    // 1. Cold: every request reaches the model and is written through.
    let cold_llm = llm();
    let cold = ZeroEd::new(config.clone()).detect(&ds.dirty, &cold_llm);
    println!(
        "cold: {} LLM requests, {} responses persisted",
        cold_llm.ledger().usage().requests,
        cold.stats.persist.persisted_records
    );
    // ^ the detector is dropped here: its writer drains and syncs the store.

    // 2. Warm: a fresh detector preloads the store and never asks the model.
    let warm_detector = ZeroEd::new(config);
    let preloaded = warm_detector.cache().len();
    let warm_llm = llm();
    let warm = warm_detector.detect(&ds.dirty, &warm_llm);
    assert_eq!(warm.mask, cold.mask, "bit-identical replay");
    assert_eq!(warm_llm.ledger().usage().requests, 0, "zero LLM requests");
    println!(
        "warm: {preloaded} records preloaded, mask identical, 0 LLM requests, {} tokens saved",
        warm.stats.cache.tokens_saved()
    );
    drop(warm_detector);

    // 3. Inspect and verify read-only — what `zeroed-store-tool stat` and
    //    `verify` print.
    let report = zeroed::store::inspect(&dir).expect("store readable");
    println!(
        "store: {} segment(s), {} live records, {} dead, {} bytes",
        report.segments.len(),
        report.live.len(),
        report.dead_records,
        report.total_file_bytes
    );
    for (kind, count) in report.kind_counts() {
        println!("  kind {kind:<10} {count}");
    }
    assert_eq!(report.live.len(), preloaded);
    assert!(zeroed::store::verify(&dir).expect("verify runs").is_empty());
    println!("verify: every header and record checksum intact");

    let _ = std::fs::remove_dir_all(&dir);
}
