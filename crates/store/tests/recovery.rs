//! Crash-recovery conformance: arbitrary damage to segment files must never
//! prevent the store from opening, and recovery must return exactly the
//! longest valid record prefix (recovered-prefix semantics).

use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use zeroed_llm::Response;
use zeroed_store::{FsyncPolicy, ResponseStore, StoreConfig, StoreRecord};

static DIR_COUNTER: AtomicU32 = AtomicU32::new(0);

fn temp_dir() -> PathBuf {
    let n = DIR_COUNTER.fetch_add(1, Ordering::SeqCst);
    let dir =
        std::env::temp_dir().join(format!("zeroed-store-recovery-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn record(key: u128) -> StoreRecord {
    StoreRecord {
        key,
        input_tokens: 50 + key as u64,
        output_tokens: key as u64,
        epoch: zeroed_store::now_epoch(),
        value: Response::Values(vec![format!("value-{key}"), "padding".into()]),
    }
}

/// Writes `n` records into a fresh store and returns (config, segment path).
fn populated_store(n: u128) -> (StoreConfig, PathBuf) {
    let dir = temp_dir();
    let config = StoreConfig::new(dir.to_str().unwrap());
    let store = ResponseStore::open(config.clone()).unwrap();
    for key in 0..n {
        store.append(&record(key)).unwrap();
    }
    drop(store);
    let segment = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.extension().is_some_and(|e| e == "zseg"))
        .expect("one segment written");
    (config, segment)
}

#[test]
fn truncation_at_every_byte_recovers_the_exact_prefix() {
    let (config, segment) = populated_store(6);
    let full = std::fs::read(&segment).unwrap();

    // Locate frame boundaries by replaying recovery on the intact file.
    let store = ResponseStore::open(config.clone()).unwrap();
    assert_eq!(store.len(), 6);
    drop(store);

    // Truncate the file at arbitrary lengths (every 7th byte for speed, plus
    // the exact tail) and check recovered-prefix semantics each time.
    let header_len = 28;
    let mut cuts: Vec<usize> = (0..full.len()).step_by(7).collect();
    cuts.push(full.len() - 1);
    for cut in cuts {
        std::fs::write(&segment, &full[..cut]).unwrap();
        let store = ResponseStore::open(config.clone()).unwrap();
        let report = store.recovery();
        let live = store.load_live().unwrap();
        // Recovered records must be a strict prefix 0..k of what was written.
        for (i, rec) in live.iter().enumerate() {
            assert_eq!(rec.key, i as u128, "cut at {cut}");
            assert_eq!(rec.input_tokens, 50 + i as u64);
        }
        assert_eq!(report.records_recovered, live.len());
        if cut < header_len {
            // Headerless file: skipped wholesale.
            assert_eq!(report.segments_skipped, 1, "cut at {cut}");
            assert_eq!(live.len(), 0);
        } else if cut < full.len() {
            assert!(live.len() < 6, "cut at {cut} must lose the tail");
        }
        // The store stays fully usable: append after recovery.
        store.append(&record(100)).unwrap();
        assert!(store.get(100).unwrap().is_some());
        drop(store);
        // And the post-recovery state reopens cleanly (truncation happened).
        let reopened = ResponseStore::open(config.clone()).unwrap();
        assert_eq!(reopened.recovery().tails_truncated, 0, "cut at {cut}");
        assert!(reopened.get(100).unwrap().is_some());
        drop(reopened);
        // Reset for the next cut: wipe and rewrite the original image.
        for entry in std::fs::read_dir(segment.parent().unwrap()).unwrap() {
            let _ = std::fs::remove_file(entry.unwrap().path());
        }
        std::fs::write(&segment, &full).unwrap();
    }
    let _ = std::fs::remove_dir_all(segment.parent().unwrap());
}

#[test]
fn a_flipped_bit_truncates_from_the_damaged_record() {
    let (config, segment) = populated_store(5);
    let full = std::fs::read(&segment).unwrap();

    // Flip one bit roughly in the middle of the file (inside record ~2).
    let mut corrupt = full.clone();
    let flip_at = full.len() / 2;
    corrupt[flip_at] ^= 0x10;
    std::fs::write(&segment, &corrupt).unwrap();

    let store = ResponseStore::open(config.clone()).unwrap();
    let report = store.recovery();
    assert_eq!(report.tails_truncated, 1);
    assert!(report.bytes_discarded > 0);
    let live = store.load_live().unwrap();
    assert!(
        !live.is_empty() && live.len() < 5,
        "prefix before the flip survives"
    );
    for (i, rec) in live.iter().enumerate() {
        assert_eq!(rec.key, i as u128);
    }
    let _ = std::fs::remove_dir_all(segment.parent().unwrap());
}

#[test]
fn zero_length_and_garbage_segments_are_skipped_not_fatal() {
    let (config, segment) = populated_store(3);
    let dir = segment.parent().unwrap().to_path_buf();
    // A zero-length segment (e.g. created then never written before a crash).
    std::fs::write(dir.join("seg-000009.zseg"), b"").unwrap();
    // A garbage file wearing a segment name.
    std::fs::write(dir.join("seg-000010.zseg"), vec![0xabu8; 512]).unwrap();

    let store = ResponseStore::open(config.clone()).unwrap();
    let report = store.recovery();
    assert_eq!(report.segments_scanned, 3);
    assert_eq!(report.segments_skipped, 2);
    assert_eq!(report.records_recovered, 3);
    assert_eq!(store.len(), 3);

    // Compaction reclaims the unusable files.
    store.compact().unwrap();
    assert_eq!(store.len(), 3);
    let remaining: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|name| name.ends_with(".zseg"))
        .collect();
    assert_eq!(
        remaining.len(),
        1,
        "only the compacted generation remains: {remaining:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn version_mismatched_segments_are_skipped_but_never_deleted() {
    // A segment written under a different format or key-schema version holds
    // valid data belonging to another build (rollback / roll-forward skew).
    // This build must skip it — and compaction must NOT reclaim it, or a
    // temporary version skew becomes permanent data loss.
    let (config, segment) = populated_store(3);
    let dir = segment.parent().unwrap().to_path_buf();

    // Forge a well-formed header carrying a future format version.
    let mut future = zeroed_store::segment::encode_header(42);
    let v2 = (zeroed_store::FORMAT_VERSION + 1).to_le_bytes();
    future[8..10].copy_from_slice(&v2);
    let cksum = zeroed_store::checksum64(&future[0..20]);
    future[20..28].copy_from_slice(&cksum.to_le_bytes());
    let future_path = dir.join("seg-000042.zseg");
    std::fs::write(&future_path, future).unwrap();

    let store = ResponseStore::open(config.clone()).unwrap();
    assert_eq!(store.recovery().segments_skipped, 1);
    assert_eq!(store.len(), 3);
    store.compact().unwrap();
    assert!(
        future_path.exists(),
        "compaction must preserve version-mismatched segments"
    );
    // Our own data is intact and the store keeps working.
    assert_eq!(store.len(), 3);
    store.append(&record(7)).unwrap();
    drop(store);
    let reopened = ResponseStore::open(config).unwrap();
    assert_eq!(reopened.len(), 4);
    assert!(future_path.exists());
    drop(reopened);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn interrupted_compaction_leaves_a_recoverable_store() {
    // Simulate a crash *mid-compaction*: both the old generation and a torn
    // new generation are on disk. Recovery must serve the old records and
    // ignore the torn tail of the new segment.
    let (config, segment) = populated_store(4);
    let dir = segment.parent().unwrap().to_path_buf();
    let old_bytes = std::fs::read(&segment).unwrap();
    // Fake new generation with a higher id: header + half of a record frame.
    let mut torn = Vec::new();
    torn.extend_from_slice(&zeroed_store::segment::encode_header(99));
    let frame = zeroed_store::codec::encode_record(&record(0));
    torn.extend_from_slice(&frame[..frame.len() / 2]);
    std::fs::write(dir.join("seg-000099.zseg"), &torn).unwrap();

    let store = ResponseStore::open(config.clone()).unwrap();
    assert_eq!(store.len(), 4, "old generation still serves");
    assert_eq!(store.recovery().tails_truncated, 1);
    for key in 0..4u128 {
        assert!(store.get(key).unwrap().is_some());
    }
    // New appends land past the interrupted generation's id.
    store.append(&record(55)).unwrap();
    drop(store);
    let reopened = ResponseStore::open(config).unwrap();
    assert_eq!(reopened.len(), 5);
    drop(reopened);
    let _ = old_bytes;
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn completed_compaction_supersedes_the_old_generation() {
    // The flip side: when compaction *finished* (new generation complete)
    // but the old files were not yet deleted, duplicate resolution must
    // prefer the newer segment.
    let dir = temp_dir();
    let mut config = StoreConfig::new(dir.to_str().unwrap());
    config.compact_threshold = 100.0; // manual control
    let store = ResponseStore::open(config.clone()).unwrap();
    store.append(&record(1)).unwrap();
    drop(store);

    // Write a "new generation" segment holding a different value for key 1.
    let mut newer = StoreRecord {
        key: 1,
        input_tokens: 999,
        output_tokens: 9,
        epoch: zeroed_store::now_epoch(),
        value: Response::Flags(vec![true]),
    };
    let mut bytes = zeroed_store::segment::encode_header(50).to_vec();
    bytes.extend_from_slice(&zeroed_store::codec::encode_record(&newer));
    std::fs::write(dir.join("seg-000050.zseg"), &bytes).unwrap();

    let store = ResponseStore::open(config).unwrap();
    assert_eq!(store.len(), 1);
    assert_eq!(store.recovery().records_superseded, 1);
    let served = store.get(1).unwrap().unwrap();
    assert_eq!(served.input_tokens, 999, "the newer generation wins");
    newer.input_tokens = 0;
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fsync_always_store_persists_every_record_without_a_clean_shutdown() {
    let dir = temp_dir();
    let mut config = StoreConfig::new(dir.to_str().unwrap());
    config.fsync = FsyncPolicy::Always;
    let store = ResponseStore::open(config).unwrap();
    for key in 0..10u128 {
        store.append(&record(key)).unwrap();
    }
    // No clean drop path taken: leak the store (as an aborting process
    // would). Records were fsynced individually, so the bytes on disk must
    // already hold all ten — verified by scanning the segment image
    // directly. (The leaked handle still holds the single-writer lock for
    // this process, which is itself part of the contract: see
    // `second_store_on_the_same_dir_is_refused_until_the_first_closes`.)
    std::mem::forget(store);
    let segment = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.extension().is_some_and(|e| e == "zseg"))
        .expect("one segment written");
    let scan = zeroed_store::segment::scan_segment(&std::fs::read(&segment).unwrap());
    assert!(!scan.torn);
    assert_eq!(scan.records.len(), 10);
    for (i, scanned) in scan.records.iter().enumerate() {
        assert_eq!(scanned.record.key, i as u128);
    }
    let _ = std::fs::remove_dir_all(&dir);
}
