//! Read-only store inspection: what `zeroed-store-tool` prints.
//!
//! Everything in this module opens files for reading only — no advisory
//! lock is taken, no tail is truncated, no segment is deleted, so it is safe
//! to point at a store a detector has open (an in-flight append shows up as
//! a torn tail, exactly as a crash would, and is reported without being
//! "repaired").
//!
//! Two questions, two entry points:
//!
//! * [`inspect`] — *what is in this store?* Every segment, live/dead record
//!   counts after duplicate resolution, byte totals and the live records'
//!   key/kind/cost/epoch metadata (`stat` and `ls`).
//! * [`verify`] — *is it intact?* The full checksum scan, reporting torn
//!   tails, corrupt frames and unreadable headers per file (`verify`).
//!
//! Both refuse a root an older build laid out in shards, as
//! [`crate::ResponseStore::open`] does.

use crate::segment::{parse_segment_file_name, scan_segment, HeaderIssue};
use crate::store::refuse_sharded_root;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};

/// One segment file as the scan saw it.
#[derive(Debug)]
pub struct SegmentReport {
    /// Path of the segment file.
    pub path: PathBuf,
    /// Segment id parsed from the file name.
    pub id: u64,
    /// Format version from the header (0 when the header is unusable).
    pub format: u16,
    /// Why the segment was skipped wholesale, if it was.
    pub header_issue: Option<HeaderIssue>,
    /// Total file size in bytes.
    pub file_bytes: u64,
    /// Records recovered by the scan.
    pub records: usize,
    /// Whether the scan hit a torn/corrupt tail.
    pub torn: bool,
    /// Bytes of the valid prefix (header + intact frames).
    pub valid_bytes: u64,
    /// Bytes past the valid prefix.
    pub discarded_bytes: u64,
}

/// Metadata of one live record (the payload value itself is not retained).
#[derive(Debug, Clone, Copy)]
pub struct LiveEntry {
    /// The 128-bit request key.
    pub key: u128,
    /// Response kind ([`zeroed_llm::Response::kind_name`]).
    pub kind: &'static str,
    /// Prompt tokens the original call consumed.
    pub input_tokens: u64,
    /// Completion tokens the original call produced.
    pub output_tokens: u64,
    /// Written-at epoch (0 for v1 records).
    pub epoch: u64,
}

/// Everything [`inspect`] found.
#[derive(Debug)]
pub struct InspectReport {
    /// The store directory.
    pub root: PathBuf,
    /// Per-segment scan results, in segment-id order.
    pub segments: Vec<SegmentReport>,
    /// Live records, duplicates resolved last-write-wins exactly as
    /// recovery resolves them, in first-seen key order.
    pub live: Vec<LiveEntry>,
    /// Superseded records (dead weight awaiting compaction).
    pub dead_records: usize,
    /// Total bytes across every segment file.
    pub total_file_bytes: u64,
}

impl InspectReport {
    /// `(min, max)` written-at epoch over the live records that carry one.
    /// `None` when no record does (an empty store, or a pure v1-era store
    /// whose records decode with epoch 0 — "no timestamp", not "1970").
    pub fn epoch_range(&self) -> Option<(u64, u64)> {
        let mut range: Option<(u64, u64)> = None;
        for entry in self.live.iter().filter(|e| e.epoch > 0) {
            range = Some(match range {
                None => (entry.epoch, entry.epoch),
                Some((min, max)) => (min.min(entry.epoch), max.max(entry.epoch)),
            });
        }
        range
    }

    /// Live-record counts per response kind, sorted by kind name.
    pub fn kind_counts(&self) -> Vec<(&'static str, usize)> {
        let mut counts: HashMap<&'static str, usize> = HashMap::new();
        for entry in &self.live {
            *counts.entry(entry.kind).or_insert(0) += 1;
        }
        let mut out: Vec<_> = counts.into_iter().collect();
        out.sort();
        out
    }
}

/// One integrity problem [`verify`] found.
#[derive(Debug)]
pub enum VerifyIssue {
    /// A segment whose tail failed the checksum scan (torn write, bit rot,
    /// or an in-flight append).
    TornTail {
        /// The damaged file.
        path: PathBuf,
        /// Intact records before the damage.
        records_recovered: usize,
        /// Bytes of the valid prefix.
        valid_bytes: u64,
        /// Bytes past it.
        discarded_bytes: u64,
    },
    /// A segment whose header could not be used (foreign file, damaged
    /// first sector, or a format/key-schema version this build cannot read).
    UnreadableHeader {
        /// The skipped file.
        path: PathBuf,
        /// What was wrong with the header.
        issue: HeaderIssue,
        /// Total file size.
        file_bytes: u64,
    },
}

impl VerifyIssue {
    /// The file the issue concerns.
    pub fn path(&self) -> &Path {
        match self {
            VerifyIssue::TornTail { path, .. } => path,
            VerifyIssue::UnreadableHeader { path, .. } => path,
        }
    }
}

/// Scans the store at `root` without mutating it (see the module docs).
pub fn inspect(root: &Path) -> io::Result<InspectReport> {
    refuse_sharded_root(root)?;
    let mut segment_ids: Vec<u64> = match std::fs::read_dir(root) {
        Ok(entries) => entries
            .filter_map(|entry| {
                let entry = entry.ok()?;
                parse_segment_file_name(entry.file_name().to_str()?)
            })
            .collect(),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e),
    };
    segment_ids.sort_unstable();

    let mut segments = Vec::with_capacity(segment_ids.len());
    let mut live: Vec<LiveEntry> = Vec::new();
    let mut position: HashMap<u128, usize> = HashMap::new();
    let mut records = 0usize;
    for id in segment_ids {
        let path = root.join(crate::segment::segment_file_name(id));
        let bytes = match std::fs::read(&path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => continue,
            Err(e) => return Err(e),
        };
        let scan = scan_segment(&bytes);
        records += scan.records.len();
        for scanned in &scan.records {
            let entry = LiveEntry {
                key: scanned.record.key,
                kind: scanned.record.value.kind_name(),
                input_tokens: scanned.record.input_tokens,
                output_tokens: scanned.record.output_tokens,
                epoch: scanned.record.epoch,
            };
            match position.entry(entry.key) {
                Entry::Occupied(seen) => live[*seen.get()] = entry,
                Entry::Vacant(new) => {
                    new.insert(live.len());
                    live.push(entry);
                }
            }
        }
        segments.push(SegmentReport {
            path,
            id,
            format: scan.format,
            header_issue: scan.header_issue,
            file_bytes: bytes.len() as u64,
            records: scan.records.len(),
            torn: scan.torn,
            valid_bytes: scan.valid_len,
            discarded_bytes: scan.discarded_bytes,
        });
    }
    let total_file_bytes = segments.iter().map(|s| s.file_bytes).sum();
    Ok(InspectReport {
        root: root.to_path_buf(),
        segments,
        dead_records: records - live.len(),
        live,
        total_file_bytes,
    })
}

/// Runs the full checksum scan over every segment and returns the problems
/// found (empty = clean). Strictly read-only: a deliberately truncated
/// segment is *reported*, with its exact recovered-prefix length, and left
/// byte-for-byte untouched.
pub fn verify(root: &Path) -> io::Result<Vec<VerifyIssue>> {
    let report = inspect(root)?;
    let mut issues = Vec::new();
    for segment in report.segments {
        if let Some(issue) = segment.header_issue {
            issues.push(VerifyIssue::UnreadableHeader {
                path: segment.path,
                issue,
                file_bytes: segment.file_bytes,
            });
        } else if segment.torn {
            issues.push(VerifyIssue::TornTail {
                path: segment.path,
                records_recovered: segment.records,
                valid_bytes: segment.valid_bytes,
                discarded_bytes: segment.discarded_bytes,
            });
        }
    }
    Ok(issues)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{encode_record, now_epoch, StoreRecord};
    use crate::segment::encode_header;
    use crate::store::{ResponseStore, StoreConfig};
    use std::sync::atomic::{AtomicU32, Ordering};
    use zeroed_llm::Response;

    static DIR_COUNTER: AtomicU32 = AtomicU32::new(0);

    fn temp_dir() -> PathBuf {
        let n = DIR_COUNTER.fetch_add(1, Ordering::SeqCst);
        let dir =
            std::env::temp_dir().join(format!("zeroed-inspect-unit-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn record(key: u128) -> StoreRecord {
        StoreRecord {
            key,
            input_tokens: 100 + key as u64,
            output_tokens: key as u64,
            epoch: now_epoch(),
            value: Response::Flags(vec![true]),
        }
    }

    /// Byte-level snapshot of every file under a directory tree.
    fn snapshot(dir: &Path) -> Vec<(PathBuf, Vec<u8>)> {
        let mut files = Vec::new();
        let mut stack = vec![dir.to_path_buf()];
        while let Some(current) = stack.pop() {
            for entry in std::fs::read_dir(&current).unwrap().flatten() {
                let path = entry.path();
                if path.is_dir() {
                    stack.push(path);
                } else {
                    files.push((path.clone(), std::fs::read(&path).unwrap()));
                }
            }
        }
        files.sort();
        files
    }

    #[test]
    fn inspect_reports_flat_stores() {
        let dir = temp_dir();
        let mut config = StoreConfig::new(dir.to_str().unwrap());
        config.compact_threshold = 100.0;
        let store = ResponseStore::open(config).unwrap();
        store.append(&record(1)).unwrap();
        store.append(&record(2)).unwrap();
        store.append(&record(1)).unwrap(); // supersede → 1 dead
        store.sync().unwrap();

        let report = inspect(&dir).unwrap();
        assert_eq!(report.segments.len(), 1);
        assert_eq!(report.live.len(), 2);
        assert_eq!(report.dead_records, 1);
        assert!(report.total_file_bytes > 0);
        assert_eq!(report.kind_counts(), vec![("flags", 2)]);
        let (min, max) = report.epoch_range().unwrap();
        assert!(min <= max && max <= now_epoch());
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sharded_era_roots_are_refused_without_writing() {
        // The layout an older build created with more than one shard: the
        // meta file at the root and segments under shard-KK/writer-WWW/.
        let dir = temp_dir();
        let writer_dir = dir.join("shard-00").join("writer-000");
        std::fs::create_dir_all(&writer_dir).unwrap();
        std::fs::write(dir.join("sharding.meta"), "shards=2\n").unwrap();
        let mut segment = encode_header(0).to_vec();
        segment.extend_from_slice(&encode_record(&record(7)));
        std::fs::write(writer_dir.join("seg-000000.zseg"), &segment).unwrap();

        let before = snapshot(&dir);
        let err = ResponseStore::open(StoreConfig::new(dir.to_str().unwrap())).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::Unsupported);
        assert!(err.to_string().contains("sharding.meta"), "{err}");
        let err = inspect(&dir).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::Unsupported);
        assert!(err.to_string().contains("sharding.meta"), "{err}");
        assert_eq!(before, snapshot(&dir), "a refused root is left untouched");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn verify_flags_a_truncated_segment_without_modifying_anything() {
        let dir = temp_dir();
        let store = ResponseStore::open(StoreConfig::new(dir.to_str().unwrap())).unwrap();
        for key in 0..5u128 {
            store.append(&record(key)).unwrap();
        }
        store.sync().unwrap();
        drop(store);

        assert!(
            verify(&dir).unwrap().is_empty(),
            "clean store verifies clean"
        );

        // Deliberately truncate the segment mid-frame.
        let segment = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .find(|p| p.extension().is_some_and(|e| e == "zseg"))
            .unwrap();
        let bytes = std::fs::read(&segment).unwrap();
        std::fs::write(&segment, &bytes[..bytes.len() - 7]).unwrap();

        let before = snapshot(&dir);
        let issues = verify(&dir).unwrap();
        let after = snapshot(&dir);
        assert_eq!(before, after, "verify must not modify the store");

        assert_eq!(issues.len(), 1);
        match &issues[0] {
            VerifyIssue::TornTail {
                path,
                records_recovered,
                valid_bytes,
                discarded_bytes,
            } => {
                assert_eq!(path, &segment);
                assert_eq!(*records_recovered, 4);
                assert!(*valid_bytes > 0 && *discarded_bytes > 0);
            }
            other => panic!("expected a torn tail, got {other:?}"),
        }

        // A garbage file is reported as an unreadable header.
        std::fs::write(dir.join("seg-000042.zseg"), vec![0u8; 64]).unwrap();
        let issues = verify(&dir).unwrap();
        assert_eq!(issues.len(), 2);
        assert!(issues.iter().any(|i| matches!(
            i,
            VerifyIssue::UnreadableHeader {
                issue: HeaderIssue::BadMagic,
                ..
            }
        )));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
