//! Cross-process warm-start conformance: a second `ZeroEd` instance opening
//! the persisted response store must reproduce bit-identical masks with
//! **zero** LLM requests, and its token ledger must reconcile — the warm
//! run's reported savings equal exactly the cold run's bill.
//!
//! "Cross-process" is exercised the way a second process would see it: the
//! cold detector (and with it the store's writer thread and file handles) is
//! fully dropped, then a *fresh* detector re-opens the directory and runs
//! recovery + preload from the bytes on disk alone. Cold and warm runs take
//! the concurrent path; the sequential run has no cache and so never opens
//! the store — it is the correctness baseline both are compared against.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use zeroed_core::{CacheStats, PersistStats, PipelineStats, RuntimeConfig, ZeroEd, ZeroEdConfig};
use zeroed_datagen::{generate, DatasetSpec, GenerateOptions};
use zeroed_llm::{LlmClient, SimLlm, TokenUsage};
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

/// Runs one detection against a fresh oracle client, returning (mask,
/// usage, outcome stats).
fn run(
    detector: &ZeroEd,
    ds: &zeroed_datagen::GeneratedDataset,
    seed: u64,
) -> (ErrorMask, TokenUsage, PipelineStats) {
    let llm = oracle_llm(ds, seed);
    let outcome = detector.detect(&ds.dirty, &llm);
    (outcome.mask, llm.ledger().usage(), outcome.stats)
}

#[test]
fn warm_start_concurrent_to_concurrent() {
    let ds = dataset();
    let dir = temp_dir();
    let seed = 11;

    // The sequential run both runs must match (no cache, no store).
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
        assert_eq!(detector.cache().len(), 0, "cold run preloads nothing");
        let result = run(&detector, &ds, seed);
        assert_eq!(
            result.2.persist.persisted_records, result.2.cache.misses,
            "every miss must be written through"
        );
        assert!(result.2.persist.persisted_bytes > 0);
        assert_eq!(result.2.cache.store_hits, 0);
        result
        // ← the detector (and the store writer) drops here: the "process"
        //   exits, leaving only the bytes on disk.
    };
    assert_eq!(
        seq.mask, cold_mask,
        "cold mask diverged from the sequential oracle"
    );
    assert_eq!(
        cold_usage.input_tokens
            + cold_usage.output_tokens
            + cold_stats.cache.tokens_saved() as usize,
        seq_usage.input_tokens + seq_usage.output_tokens,
        "cold tokens + dedup savings = sequential bill"
    );

    // Warm run: a brand-new detector (fresh cache) re-opens the store.
    let warm_detector = ZeroEd::new(base_config(&dir));
    let preloaded = warm_detector.cache().len() as u64;
    let (warm_mask, warm_usage, warm_stats) = run(&warm_detector, &ds, seed);

    // 1. Bit-identical masks.
    assert_eq!(seq.mask, warm_mask, "warm mask diverged");
    // 2. Zero LLM requests — the model is never consulted.
    assert_eq!(
        warm_usage,
        TokenUsage::default(),
        "warm run must not touch the model"
    );
    // 3. Every request is a store hit; nothing is re-persisted.
    assert_eq!(warm_stats.cache.misses, 0);
    assert_eq!(warm_stats.cache.hits, warm_stats.cache.store_hits);
    assert_eq!(warm_stats.persist.persisted_records, 0);
    assert_eq!(
        preloaded, cold_stats.persist.persisted_records,
        "preload must replay the whole cold store"
    );
    let recovery = warm_detector.store().unwrap().store().recovery();
    assert_eq!(
        recovery.records_recovered as u64,
        cold_stats.persist.persisted_records
    );
    // 4. Ledger reconciliation: the warm run's reported savings are exactly
    //    the sequential bill (= what the cold run paid in total, dedup
    //    savings included).
    assert_eq!(
        warm_stats.cache.tokens_saved() as usize,
        seq_usage.input_tokens + seq_usage.output_tokens,
        "warm savings must equal the full sequential token bill"
    );
    assert_eq!(warm_stats.cache.hits as usize, seq_usage.requests);

    drop(warm_detector);
    let _ = std::fs::remove_dir_all(&dir);
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
    assert!(cold_stats.persist.persisted_records > 0);
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
    assert_eq!(
        outcome.mask, oracle_mask,
        "recovered warm run must stay bit-identical"
    );
    let recovery = detector.store().unwrap().store().recovery();
    assert!(
        (recovery.records_recovered as u64) < cold_stats.persist.persisted_records,
        "truncation must have cost some records"
    );
    assert!(recovery.tails_truncated + recovery.segments_skipped >= 1);
    assert!(
        outcome.stats.cache.store_hits > 0,
        "the surviving prefix still serves"
    );
    assert!(
        outcome.stats.cache.misses > 0,
        "lost responses are recomputed, not lost"
    );
    assert_eq!(
        outcome.stats.persist.persisted_records, outcome.stats.cache.misses,
        "recomputed responses are re-persisted"
    );
    drop(detector);

    // Third generation: fully warm again (recomputed entries were written).
    let detector = ZeroEd::new(base_config(&dir));
    let llm = oracle_llm(&ds, seed);
    let outcome = detector.detect(&ds.dirty, &llm);
    assert_eq!(outcome.mask, oracle_mask);
    assert_eq!(outcome.stats.cache.misses, 0);
    assert_eq!(llm.ledger().usage(), TokenUsage::default());
    drop(detector);
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Byte-level store surgery helpers (simulating other builds / older stores).
// ---------------------------------------------------------------------------

/// Walks every `seg-*.zseg` under `dir` (recursively) and applies `rewrite`
/// to its bytes.
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

/// One store directory, one writer: while a detector holds the store, a
/// second detector on the same directory is refused, yet a clone of the
/// first shares its layer and detects at the same time. Once both are
/// dropped, a fresh detector opens warm and replays both runs with zero LLM
/// requests.
#[test]
fn one_detector_holds_the_store_while_its_clones_share_it() {
    let ds = dataset();
    let dir = temp_dir();
    let seeds = [51u64, 52];
    let second_open = |dir: &std::path::Path| {
        ZeroEd::try_new(base_config(dir))
            .expect_err("a second detector on a held store must be refused")
            .kind()
    };

    let cold_run = |detector: &ZeroEd, seed: u64| {
        let llm = oracle_llm(&ds, seed);
        let outcome = detector.detect(&ds.dirty, &llm);
        assert!(outcome.stats.cache.misses > 0);
        assert_eq!(
            outcome.stats.persist.persisted_records,
            outcome.stats.cache.misses
        );
        outcome.mask
    };

    let detector = ZeroEd::new(base_config(&dir));
    assert_eq!(second_open(&dir), std::io::ErrorKind::WouldBlock);
    // The detector and a clone of it detect at the same time on the shared
    // layer, with distinct seeds (disjoint request keys).
    let clone = detector.clone();
    let cold = std::thread::scope(|scope| {
        let first = scope.spawn(|| cold_run(&detector, seeds[0]));
        let second = scope.spawn(|| cold_run(&clone, seeds[1]));
        [first.join().unwrap(), second.join().unwrap()]
    });
    drop(clone);
    // The clone is gone, but the first detector still holds the lock.
    assert_eq!(second_open(&dir), std::io::ErrorKind::WouldBlock);
    drop(detector);

    let warm = ZeroEd::try_new(base_config(&dir)).expect("the lock died with the detector");
    for (cold_mask, seed) in cold.iter().zip(seeds) {
        let llm = oracle_llm(&ds, seed);
        let outcome = warm.detect(&ds.dirty, &llm);
        assert_eq!(&outcome.mask, cold_mask, "seed {seed}: warm mask diverged");
        assert_eq!(
            llm.ledger().usage(),
            TokenUsage::default(),
            "seed {seed}: warm run must issue zero LLM requests"
        );
        assert_eq!(outcome.stats.cache.misses, 0);
    }
    drop(warm);
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
        (outcome.mask, outcome.stats.persist.persisted_records)
    };
    assert!(cold_persisted > 0);

    // Rewrite the store on disk into the exact v1 format.
    rewrite_segments(&dir, &downconvert_segment_to_v1);

    let warm_detector = ZeroEd::new(base_config(&dir));
    let preloaded = warm_detector.cache().len() as u64;
    let llm = oracle_llm(&ds, seed);
    let outcome = warm_detector.detect(&ds.dirty, &llm);
    assert_eq!(
        outcome.mask, cold_mask,
        "v1 warm mask must be bit-identical"
    );
    assert_eq!(
        llm.ledger().usage(),
        TokenUsage::default(),
        "v1 warm start must issue zero LLM requests"
    );
    assert_eq!(outcome.stats.cache.misses, 0);
    assert_eq!(preloaded, cold_persisted);
    let recovered = warm_detector
        .store()
        .unwrap()
        .store()
        .recovery()
        .records_recovered;
    assert_eq!(recovered as u64, cold_persisted);
    drop(warm_detector);
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
        assert!(outcome.stats.persist.persisted_records > 0);
    }
    assert!(
        zeroed_store::verify(&dir).unwrap().is_empty(),
        "fresh store verifies clean"
    );

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
            assert!(
                *discarded_bytes > 0,
                "the torn tail is measured, not repaired"
            );
        }
        other => panic!("expected a torn tail, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Clones of one store-backed detector share its cache and store, yet each
/// run's `stats.cache` and `stats.persist` count that run alone: two clones
/// detecting concurrently with distinct seeds (disjoint request keys) each
/// report exactly what the same seed reports solo on a fresh detector, and
/// persist exactly their own misses. A fresh detector then warm-starts both.
#[test]
fn clones_keep_per_run_counts() {
    let ds = dataset();
    let dir = temp_dir();
    let seeds = [41u64, 42];
    // The solo runs use no store, so they leave `dir` empty.
    let solo: Vec<(ErrorMask, CacheStats)> = seeds
        .iter()
        .map(|&seed| {
            let llm = oracle_llm(&ds, seed);
            let config = ZeroEdConfig {
                runtime: RuntimeConfig {
                    workers: 4,
                    ..RuntimeConfig::default()
                },
                ..base_config(&dir)
            };
            let outcome = ZeroEd::new(config).detect(&ds.dirty, &llm);
            (outcome.mask, outcome.stats.cache)
        })
        .collect();

    let detector = ZeroEd::new(base_config(&dir));
    let runs: Vec<(ErrorMask, PipelineStats)> = std::thread::scope(|scope| {
        let handles: Vec<_> = seeds
            .iter()
            .map(|&seed| {
                let (clone, ds) = (detector.clone(), &ds);
                scope.spawn(move || {
                    let llm = oracle_llm(ds, seed);
                    let outcome = clone.detect(&ds.dirty, &llm);
                    (outcome.mask, outcome.stats)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    drop(detector);
    for ((mask, stats), (solo_mask, solo_cache)) in runs.iter().zip(&solo) {
        assert_eq!(mask, solo_mask);
        assert_eq!(
            &stats.cache, solo_cache,
            "a clone's run counts its own lookups only"
        );
        assert!(stats.cache.misses > 0);
        assert_eq!(stats.persist.persisted_records, stats.cache.misses);
    }

    let warm = ZeroEd::new(base_config(&dir));
    for ((cold_mask, _), &seed) in runs.iter().zip(&seeds) {
        let llm = oracle_llm(&ds, seed);
        let outcome = warm.detect(&ds.dirty, &llm);
        assert_eq!(&outcome.mask, cold_mask);
        assert_eq!(llm.ledger().usage(), TokenUsage::default());
    }
    drop(warm);
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
    assert_eq!(outcome.stats.persist.persisted_records, 0);
    assert_eq!(outcome.stats.cache.store_hits, 0);
    drop(detector);
    // Nothing was written: a later open recovers zero records.
    let detector = ZeroEd::new(base_config(&dir));
    assert_eq!(
        detector
            .store()
            .unwrap()
            .store()
            .recovery()
            .records_recovered,
        0
    );
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
    // Without the cache a run makes no lookups and persists nothing.
    let ds = dataset();
    let llm = oracle_llm(&ds, 31);
    let outcome = uncached.detect(&ds.dirty, &llm);
    assert!(llm.ledger().usage().requests > 0);
    assert_eq!(outcome.stats.cache, CacheStats::default());
    assert_eq!(outcome.stats.persist, PersistStats::default());
    drop((uncached, cached));
    let _ = std::fs::remove_dir_all(&dir);
}
