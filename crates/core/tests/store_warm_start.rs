//! Cross-process warm-start conformance: a second `ZeroEd` instance opening
//! the persisted response store must reproduce bit-identical masks with
//! **zero** LLM requests, and its token ledger must reconcile — the warm
//! run's reported savings equal exactly the cold run's bill.
//!
//! "Cross-process" is exercised the way a second process would see it: the
//! cold detector (and with it the store's writer thread and file handles) is
//! fully dropped, then a *fresh* detector re-opens the directory and runs
//! recovery + preload from the bytes on disk alone. The matrix covers the
//! runtime execution modes: cold runs on the concurrent and routed paths
//! (the sequential run has no cache and so never opens the store — it is
//! the correctness baseline all arms are compared against), warm runs on
//! the concurrent and routed paths, in all combinations.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use zeroed_core::{RouterConfig, RouterLlm, RuntimeConfig, StoreConfig, ZeroEd, ZeroEdConfig};
use zeroed_datagen::{generate, DatasetSpec, GenerateOptions};
use zeroed_llm::{FaultSchedule, LlmClient, SimLlm, TokenUsage};
use zeroed_table::ErrorMask;

static DIR_COUNTER: AtomicU32 = AtomicU32::new(0);

fn temp_dir() -> PathBuf {
    let n = DIR_COUNTER.fetch_add(1, Ordering::SeqCst);
    let dir = std::env::temp_dir().join(format!("zeroed-warm-start-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn dataset() -> zeroed_datagen::GeneratedDataset {
    generate(
        DatasetSpec::Hospital,
        &GenerateOptions {
            n_rows: 200,
            seed: 11,
            error_spec: None,
        },
    )
}

fn oracle_llm(ds: &zeroed_datagen::GeneratedDataset, seed: u64) -> SimLlm {
    let types: Vec<_> = ds
        .injected
        .iter()
        .map(|e| ((e.row, e.col), e.error_type))
        .collect();
    SimLlm::default_model(seed)
        .with_oracle(ds.mask.clone())
        .with_error_types(types)
}

fn base_config(dir: &std::path::Path) -> ZeroEdConfig {
    ZeroEdConfig {
        label_rate: 0.08,
        ..ZeroEdConfig::fast()
    }
    .with_runtime(RuntimeConfig {
        workers: 4,
        ..RuntimeConfig::default()
    })
    .with_store_dir(dir.to_str().unwrap())
}

/// How one arm of the matrix executes detection.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Arm {
    Concurrent,
    Routed,
}

/// Runs one detection in the given mode against a fresh oracle client,
/// returning (mask, usage, outcome stats).
fn run_arm(
    arm: Arm,
    detector: &ZeroEd,
    ds: &zeroed_datagen::GeneratedDataset,
    seed: u64,
) -> (ErrorMask, TokenUsage, zeroed_core::PipelineStats) {
    match arm {
        Arm::Concurrent => {
            let llm = oracle_llm(ds, seed);
            let outcome = detector.detect(&ds.dirty, &llm);
            (outcome.mask, llm.ledger().usage(), outcome.stats)
        }
        Arm::Routed => {
            // Two response-equivalent backends, one scheduled with faults, so
            // the routed arm exercises failover on top of persistence.
            let faults = FaultSchedule {
                error_rate: 0.2,
                timeout_rate: 0.1,
                ..FaultSchedule::healthy(3)
            };
            let primary = oracle_llm(ds, seed).with_faults(faults);
            let replica = oracle_llm(ds, seed);
            let clients: Vec<&dyn LlmClient> = vec![&primary, &replica];
            let router = RouterLlm::from_runtime(
                &RuntimeConfig {
                    router: Some(RouterConfig::for_backends(2)),
                    ..detector.config().runtime.clone()
                },
                clients,
            );
            let outcome = detector.detect_routed(&ds.dirty, &router);
            let mut usage = primary.ledger().usage();
            let replica_usage = replica.ledger().usage();
            usage.requests += replica_usage.requests;
            usage.input_tokens += replica_usage.input_tokens;
            usage.output_tokens += replica_usage.output_tokens;
            (outcome.mask, usage, outcome.stats)
        }
    }
}

/// The full cold→warm matrix for one (cold arm, warm arm) pair.
fn check_matrix(cold_arm: Arm, warm_arm: Arm) {
    let ds = dataset();
    let dir = temp_dir();
    let seed = 11;

    // The sequential run every arm must match (no cache, no store).
    let llm_seq = oracle_llm(&ds, seed);
    let seq = ZeroEd::new(
        ZeroEdConfig {
            label_rate: 0.08,
            ..ZeroEdConfig::fast()
        }
        .sequential_runtime(),
    )
    .detect(&ds.dirty, &llm_seq);
    let seq_usage = llm_seq.ledger().usage();

    // Cold run: fresh store directory, every request hits the model once and
    // is written through.
    let (cold_mask, cold_usage, cold_stats) = {
        let detector = ZeroEd::new(base_config(&dir));
        let result = run_arm(cold_arm, &detector, &ds, seed);
        assert_eq!(
            result.2.store_preloaded_records, 0,
            "[{cold_arm:?}→{warm_arm:?}] cold run preloads nothing"
        );
        assert_eq!(
            result.2.store_persisted_records, result.2.cache_misses,
            "[{cold_arm:?}→{warm_arm:?}] every miss must be written through"
        );
        assert!(result.2.store_persisted_bytes > 0);
        assert_eq!(result.2.store_hits, 0);
        result
        // ← the detector (and the store writer) drops here: the "process"
        //   exits, leaving only the bytes on disk.
    };
    assert_eq!(
        seq.mask, cold_mask,
        "[{cold_arm:?}→{warm_arm:?}] cold mask diverged from the sequential oracle"
    );
    assert_eq!(
        cold_usage.input_tokens + cold_usage.output_tokens + cold_stats.cache_tokens_saved,
        seq_usage.input_tokens + seq_usage.output_tokens,
        "[{cold_arm:?}→{warm_arm:?}] cold tokens + dedup savings = sequential bill"
    );

    // Warm run: a brand-new detector (fresh cache) re-opens the store.
    let warm_detector = ZeroEd::new(base_config(&dir));
    let (warm_mask, warm_usage, warm_stats) = run_arm(warm_arm, &warm_detector, &ds, seed);

    // 1. Bit-identical masks.
    assert_eq!(
        seq.mask, warm_mask,
        "[{cold_arm:?}→{warm_arm:?}] warm mask diverged"
    );
    // 2. Zero LLM requests — the model is never consulted.
    assert_eq!(
        warm_usage,
        TokenUsage::default(),
        "[{cold_arm:?}→{warm_arm:?}] warm run must not touch any backend"
    );
    if warm_arm == Arm::Routed {
        assert_eq!(
            warm_stats.router_requests, 0,
            "cache hits must short-circuit before routing"
        );
    }
    // 3. Every request is a store hit; nothing is re-persisted.
    assert_eq!(warm_stats.cache_misses, 0);
    assert_eq!(warm_stats.cache_hits, warm_stats.store_hits);
    assert_eq!(warm_stats.store_persisted_records, 0);
    assert_eq!(
        warm_stats.store_preloaded_records, cold_stats.store_persisted_records,
        "[{cold_arm:?}→{warm_arm:?}] preload must replay the whole cold store"
    );
    assert_eq!(warm_stats.store_recovered_records, cold_stats.store_persisted_records);
    // 4. Ledger reconciliation: the warm run's reported savings are exactly
    //    the sequential bill (= what the cold run paid in total, dedup
    //    savings included).
    assert_eq!(
        warm_stats.cache_tokens_saved,
        seq_usage.input_tokens + seq_usage.output_tokens,
        "[{cold_arm:?}→{warm_arm:?}] warm savings must equal the full sequential token bill"
    );
    assert_eq!(warm_stats.cache_hits, seq_usage.requests);

    drop(warm_detector);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn warm_start_concurrent_to_concurrent() {
    check_matrix(Arm::Concurrent, Arm::Concurrent);
}

#[test]
fn warm_start_concurrent_to_routed() {
    check_matrix(Arm::Concurrent, Arm::Routed);
}

#[test]
fn warm_start_routed_to_concurrent() {
    check_matrix(Arm::Routed, Arm::Concurrent);
}

#[test]
fn warm_start_routed_to_routed() {
    check_matrix(Arm::Routed, Arm::Routed);
}

#[test]
fn warm_start_survives_truncation_of_the_last_segment() {
    // Chop bytes off the persisted store's final segment, then warm-start:
    // recovery truncates the torn tail and the missing responses are simply
    // recomputed — the mask must stay bit-identical and the store usable.
    let ds = dataset();
    let dir = temp_dir();
    let seed = 13;

    let cold_stats = {
        let detector = ZeroEd::new(base_config(&dir));
        let llm = oracle_llm(&ds, seed);
        detector.detect(&ds.dirty, &llm).stats
    };
    assert!(cold_stats.store_persisted_records > 0);
    let oracle_mask = {
        let llm = oracle_llm(&ds, seed);
        ZeroEd::new(
            ZeroEdConfig {
                label_rate: 0.08,
                ..ZeroEdConfig::fast()
            }
            .sequential_runtime(),
        )
        .detect(&ds.dirty, &llm)
        .mask
    };

    // Damage the newest segment: drop the last 30% of its bytes.
    let mut segments: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    segments.sort();
    let last = segments.last().unwrap();
    let bytes = std::fs::read(last).unwrap();
    std::fs::write(last, &bytes[..bytes.len() * 7 / 10]).unwrap();

    let detector = ZeroEd::new(base_config(&dir));
    let llm = oracle_llm(&ds, seed);
    let outcome = detector.detect(&ds.dirty, &llm);
    assert_eq!(outcome.mask, oracle_mask, "recovered warm run must stay bit-identical");
    assert!(
        outcome.stats.store_recovered_records < cold_stats.store_persisted_records,
        "truncation must have cost some records"
    );
    assert!(outcome.stats.store_discarded_tails >= 1);
    assert!(outcome.stats.store_hits > 0, "the surviving prefix still serves");
    assert!(
        outcome.stats.cache_misses > 0,
        "lost responses are recomputed, not lost"
    );
    assert_eq!(
        outcome.stats.store_persisted_records, outcome.stats.cache_misses,
        "recomputed responses are re-persisted"
    );
    drop(detector);

    // Third generation: fully warm again (recomputed entries were written).
    let detector = ZeroEd::new(base_config(&dir));
    let llm = oracle_llm(&ds, seed);
    let outcome = detector.detect(&ds.dirty, &llm);
    assert_eq!(outcome.mask, oracle_mask);
    assert_eq!(outcome.stats.cache_misses, 0);
    assert_eq!(llm.ledger().usage(), TokenUsage::default());
    drop(detector);
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Byte-level store surgery helpers (simulating other builds / older stores).
// ---------------------------------------------------------------------------

/// Walks every `seg-*.zseg` under `dir` (recursively, so sharded layouts
/// work too) and applies `rewrite` to its bytes.
fn rewrite_segments(dir: &std::path::Path, rewrite: &dyn Fn(&[u8]) -> Vec<u8>) {
    let mut stack = vec![dir.to_path_buf()];
    while let Some(current) = stack.pop() {
        for entry in std::fs::read_dir(&current).unwrap().flatten() {
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "zseg") {
                let bytes = std::fs::read(&path).unwrap();
                std::fs::write(&path, rewrite(&bytes)).unwrap();
            }
        }
    }
}

/// Down-converts a v2 segment image to the exact v1 format: header stamped
/// format 1, every frame's payload stripped of its epoch bytes (offset
/// 32..40), lengths and checksums recomputed. This reproduces byte-for-byte
/// what a PR 4-era build wrote, so opening the result exercises the real
/// read-compat path.
fn downconvert_segment_to_v1(bytes: &[u8]) -> Vec<u8> {
    use zeroed_store::{checksum64, HEADER_LEN};
    assert!(bytes.len() >= HEADER_LEN, "segment too short to convert");
    let mut out = bytes[..HEADER_LEN].to_vec();
    out[8..10].copy_from_slice(&1u16.to_le_bytes());
    let header_checksum = checksum64(&out[0..20]);
    out[20..28].copy_from_slice(&header_checksum.to_le_bytes());
    let mut pos = HEADER_LEN;
    while pos < bytes.len() {
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        let payload = &bytes[pos + 12..pos + 12 + len];
        let mut v1_payload = payload[..32].to_vec();
        v1_payload.extend_from_slice(&payload[40..]);
        out.extend_from_slice(&(v1_payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&checksum64(&v1_payload).to_le_bytes());
        out.extend_from_slice(&v1_payload);
        pos += 12 + len;
    }
    out
}

/// Rewrites every frame's written-at epoch in a v2 segment image (checksums
/// recomputed) — the test's way of aging records deterministically.
fn rewrite_epochs(bytes: &[u8], epoch: u64) -> Vec<u8> {
    use zeroed_store::{checksum64, HEADER_LEN};
    let mut out = bytes[..HEADER_LEN].to_vec();
    let mut pos = HEADER_LEN;
    while pos < bytes.len() {
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        let mut payload = bytes[pos + 12..pos + 12 + len].to_vec();
        payload[32..40].copy_from_slice(&epoch.to_le_bytes());
        out.extend_from_slice(&(len as u32).to_le_bytes());
        out.extend_from_slice(&checksum64(&payload).to_le_bytes());
        out.extend_from_slice(&payload);
        pos += 12 + len;
    }
    out
}

/// The tentpole conformance: K processes-worth of writers — distinct
/// `ShardedStore` handles via distinct detectors, each with its own cache
/// and store layer — persist *concurrently* into one sharded root, then a
/// fresh detector reopens the directory and reproduces every writer's mask
/// bit-identically with **zero** LLM requests, having merged records across
/// all writer slots.
#[test]
fn sharded_concurrent_writers_warm_start_with_zero_requests() {
    const WRITERS: u64 = 3;
    let ds = dataset();
    let dir = temp_dir();
    let sharded = |dir: &std::path::Path| {
        ZeroEdConfig {
            label_rate: 0.08,
            ..ZeroEdConfig::fast()
        }
        .with_runtime(RuntimeConfig {
            workers: 2,
            ..RuntimeConfig::default()
        })
        .with_store(StoreConfig::new(dir.to_str().unwrap()).with_shards(4))
    };

    // K concurrent writers. Each uses a different LLM seed, so the request
    // salts (and with them every RequestKey) are disjoint between writers:
    // the warm detector can only succeed by reading *all* the slots.
    //
    // Every detector is constructed (claiming its writer slots) *before* any
    // detection starts — otherwise a fast writer could finish and release
    // its slots before a slow one opens, which would let the slow one
    // reclaim the freed slot instead of exercising true concurrency.
    let detectors: Vec<ZeroEd> = (0..WRITERS).map(|_| ZeroEd::new(sharded(&dir))).collect();
    let cold: Vec<(zeroed_table::ErrorMask, usize)> = std::thread::scope(|scope| {
        let handles: Vec<_> = detectors
            .into_iter()
            .enumerate()
            .map(|(w, detector)| {
                let w = w as u64;
                let ds = &ds;
                scope.spawn(move || {
                    let llm = oracle_llm(ds, 100 + w);
                    let outcome = detector.detect(&ds.dirty, &llm);
                    assert_eq!(
                        outcome.stats.store_persisted_records, outcome.stats.cache_misses,
                        "writer {w}: every miss must be written through"
                    );
                    assert_eq!(outcome.stats.store_shards, 4);
                    (outcome.mask, outcome.stats.store_persisted_records)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let total_persisted: usize = cold.iter().map(|(_, persisted)| persisted).sum();
    assert!(total_persisted > 0);

    // The root must actually be sharded, with one claimed slot per writer.
    assert!(dir.join("sharding.meta").exists());
    for k in 0..4 {
        let shard_dir = dir.join(format!("shard-{k:02}"));
        assert!(shard_dir.is_dir(), "shard {k} exists");
        let slots = std::fs::read_dir(&shard_dir).unwrap().count();
        assert_eq!(slots, WRITERS as usize, "shard {k}: one slot per concurrent writer");
    }

    // Fresh detector: one handle, every slot's records preloaded (the
    // writers' key sets are disjoint, so the preload count proves the merge
    // crossed writer slots).
    let warm_detector = ZeroEd::new(sharded(&dir));
    let mut checked_preload = false;
    for (w, (cold_mask, _)) in cold.iter().enumerate() {
        let llm = oracle_llm(&ds, 100 + w as u64);
        let outcome = warm_detector.detect(&ds.dirty, &llm);
        assert_eq!(
            &outcome.mask, cold_mask,
            "writer {w}: warm mask must be bit-identical"
        );
        assert_eq!(
            llm.ledger().usage(),
            TokenUsage::default(),
            "writer {w}: warm run must issue zero LLM requests"
        );
        assert_eq!(outcome.stats.cache_misses, 0);
        assert_eq!(outcome.stats.store_persisted_records, 0);
        if !checked_preload {
            assert_eq!(
                outcome.stats.store_preloaded_records, total_persisted,
                "the preload must merge all {WRITERS} writers' disjoint records"
            );
            checked_preload = true;
        }
    }
    drop(warm_detector);
    let _ = std::fs::remove_dir_all(&dir);
}

/// v1 (unsharded, epoch-less) stores written by PR 4-era builds still open
/// and warm-start: the detector reads them through the v1 frame layout and
/// replays every response without touching the model.
#[test]
fn v1_era_stores_still_open_and_warm_start() {
    let ds = dataset();
    let dir = temp_dir();
    let seed = 19;

    let (cold_mask, cold_persisted) = {
        let detector = ZeroEd::new(base_config(&dir));
        let llm = oracle_llm(&ds, seed);
        let outcome = detector.detect(&ds.dirty, &llm);
        (outcome.mask, outcome.stats.store_persisted_records)
    };
    assert!(cold_persisted > 0);

    // Rewrite the store on disk into the exact v1 format.
    rewrite_segments(&dir, &downconvert_segment_to_v1);

    let warm_detector = ZeroEd::new(base_config(&dir));
    let llm = oracle_llm(&ds, seed);
    let outcome = warm_detector.detect(&ds.dirty, &llm);
    assert_eq!(outcome.mask, cold_mask, "v1 warm mask must be bit-identical");
    assert_eq!(
        llm.ledger().usage(),
        TokenUsage::default(),
        "v1 warm start must issue zero LLM requests"
    );
    assert_eq!(outcome.stats.cache_misses, 0);
    assert_eq!(outcome.stats.store_preloaded_records, cold_persisted);
    assert_eq!(outcome.stats.store_recovered_records, cold_persisted);
    drop(warm_detector);
    let _ = std::fs::remove_dir_all(&dir);
}

/// TTL/GC conformance: a store whose records have outlived the TTL serves
/// nothing — the stale bin is reclaimed, the expiry is reconciled in
/// `PipelineStats`, the lost responses are recomputed and re-persisted, and
/// the *next* open is fully warm again.
#[test]
fn expired_records_are_gone_after_gc_with_counts_reconciled() {
    let ds = dataset();
    let dir = temp_dir();
    let seed = 23;
    let ttl_config = |dir: &std::path::Path| {
        ZeroEdConfig {
            label_rate: 0.08,
            ..ZeroEdConfig::fast()
        }
        .with_runtime(RuntimeConfig {
            workers: 4,
            ..RuntimeConfig::default()
        })
        .with_store(
            StoreConfig::new(dir.to_str().unwrap()).with_ttl_secs(3_600),
        )
    };

    let cold_persisted = {
        let detector = ZeroEd::new(ttl_config(&dir));
        let llm = oracle_llm(&ds, seed);
        let outcome = detector.detect(&ds.dirty, &llm);
        assert_eq!(outcome.stats.store_expired_records, 0, "fresh records don't expire");
        outcome.stats.store_persisted_records
    };
    assert!(cold_persisted > 0);

    // Age every record far past the TTL.
    let stale_epoch = zeroed_store::now_epoch().saturating_sub(100_000);
    rewrite_segments(&dir, &|bytes| rewrite_epochs(bytes, stale_epoch));

    // Second run: the whole bin is expired at open — every record is
    // recomputed (paying the model) and re-persisted at a fresh epoch.
    let detector = ZeroEd::new(ttl_config(&dir));
    let llm = oracle_llm(&ds, seed);
    let outcome = detector.detect(&ds.dirty, &llm);
    assert_eq!(
        outcome.stats.store_expired_records, cold_persisted,
        "every stale record must be accounted as expired"
    );
    assert_eq!(outcome.stats.store_preloaded_records, 0, "expired records never preload");
    assert_eq!(outcome.stats.store_hits, 0);
    assert_eq!(
        outcome.stats.cache_misses, cold_persisted,
        "every response is recomputed, none lost"
    );
    assert_eq!(outcome.stats.store_persisted_records, cold_persisted);
    assert!(llm.ledger().usage().requests > 0, "the model was consulted again");
    drop(detector);

    // The reclaimed bin holds only fresh records: the expired frames are
    // physically gone from disk (compacted away), and a third open is fully
    // warm with zero expiries.
    let report = zeroed_store::inspect(&dir).unwrap();
    assert_eq!(report.live.len(), cold_persisted);
    let (min_epoch, _) = report.epoch_range().unwrap();
    assert!(min_epoch > stale_epoch, "no stale frame survives on disk");

    let detector = ZeroEd::new(ttl_config(&dir));
    let llm = oracle_llm(&ds, seed);
    let outcome = detector.detect(&ds.dirty, &llm);
    assert_eq!(outcome.stats.store_expired_records, 0);
    assert_eq!(outcome.stats.cache_misses, 0);
    assert_eq!(llm.ledger().usage(), TokenUsage::default());
    drop(detector);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `zeroed-store-tool verify` (via its library entry point) flags a
/// deliberately truncated segment — with the exact recovered prefix — while
/// leaving every byte on disk untouched.
#[test]
fn store_tool_verify_flags_truncation_without_modifying_the_store() {
    let ds = dataset();
    let dir = temp_dir();
    {
        let detector = ZeroEd::new(base_config(&dir));
        let llm = oracle_llm(&ds, 29);
        let outcome = detector.detect(&ds.dirty, &llm);
        assert!(outcome.stats.store_persisted_records > 0);
    }
    assert!(zeroed_store::verify(&dir).unwrap().is_empty(), "fresh store verifies clean");

    // Truncate the last segment mid-frame.
    let mut segments: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "zseg"))
        .collect();
    segments.sort();
    let last = segments.last().unwrap();
    let full = std::fs::read(last).unwrap();
    std::fs::write(last, &full[..full.len() - 9]).unwrap();

    let before: Vec<(PathBuf, Vec<u8>)> = segments
        .iter()
        .map(|p| (p.clone(), std::fs::read(p).unwrap()))
        .collect();
    let issues = zeroed_store::verify(&dir).unwrap();
    let after: Vec<(PathBuf, Vec<u8>)> = segments
        .iter()
        .map(|p| (p.clone(), std::fs::read(p).unwrap()))
        .collect();
    assert_eq!(before, after, "verify must not modify the store");
    assert_eq!(issues.len(), 1);
    match &issues[0] {
        zeroed_store::VerifyIssue::TornTail {
            path,
            discarded_bytes,
            ..
        } => {
            assert_eq!(path, last);
            assert!(*discarded_bytes > 0, "the torn tail is measured, not repaired");
        }
        other => panic!("expected a torn tail, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sequential_mode_ignores_the_store_by_design() {
    // The sequential run is the correctness baseline: one worker, no cache,
    // so no store — even when a store directory is configured.
    let ds = dataset();
    let dir = temp_dir();
    let llm = oracle_llm(&ds, 17);
    let detector = ZeroEd::new(
        ZeroEdConfig {
            label_rate: 0.08,
            ..ZeroEdConfig::fast()
        }
        .sequential_runtime()
        .with_store_dir(dir.to_str().unwrap()),
    );
    let outcome = detector.detect(&ds.dirty, &llm);
    assert!(llm.ledger().usage().requests > 0);
    assert_eq!(outcome.stats.store_persisted_records, 0);
    assert_eq!(outcome.stats.store_hits, 0);
    drop(detector);
    // Nothing was written: a later open recovers zero records.
    let detector = ZeroEd::new(base_config(&dir));
    assert_eq!(detector.store().unwrap().recovery().records_recovered, 0);
    drop(detector);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_detector_without_the_cache_leaves_the_store_unopened() {
    // Only the cache reads or writes the store. Opening it anyway would take
    // the flat store's single-writer lock, start the writer thread and
    // preload records nobody reads, and a cached detector on the same
    // directory would then fail to open.
    let dir = temp_dir();
    let store_dir = dir.to_str().unwrap();
    let uncached = ZeroEd::new(
        ZeroEdConfig::fast()
            .sequential_runtime()
            .with_store_dir(store_dir),
    );
    let cached = ZeroEd::try_new(ZeroEdConfig::fast().with_store_dir(store_dir))
        .expect("an uncached detector must not hold the store's lock");
    assert!(uncached.store().is_none());
    assert!(cached.store().is_some());
    drop((uncached, cached));
    let _ = std::fs::remove_dir_all(&dir);
}
