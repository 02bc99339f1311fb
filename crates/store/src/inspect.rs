//! Read-only store inspection: what `zeroed-store-tool` prints.
//!
//! Everything in this module opens files for reading only — no advisory
//! locks are taken, no tails are truncated, no segments are deleted, so it
//! is safe to point at a store that live detector processes are writing
//! (an in-flight append shows up as a torn tail, exactly as a crash would,
//! and is reported without being "repaired").
//!
//! Three questions, three entry points:
//!
//! * [`inspect`] — *what is in this store?* Layout (sharded or flat), every
//!   segment of every writer slot, live/dead record counts after duplicate
//!   resolution, byte totals and the live records' key/kind/cost/epoch
//!   metadata (`stat` and `ls`).
//! * [`verify`] — *is it intact?* The full checksum scan, reporting torn
//!   tails, corrupt frames and unreadable headers per file (`verify`).
//! * Both work on unsharded (v1-era) directories and on the
//!   `shard-KK/writer-WWW/` layout of [`crate::ShardedStore`].

use crate::segment::{parse_segment_file_name, scan_segment, HeaderIssue};
use crate::shard::{list_writer_slots, read_meta, LastWriteWins, META_FILE};
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

/// One segment directory (the flat root, or one writer slot of one shard).
#[derive(Debug)]
pub struct UnitReport {
    /// The directory scanned.
    pub dir: PathBuf,
    /// Shard index (`None` for an unsharded root).
    pub shard: Option<usize>,
    /// Writer-slot index (`None` for an unsharded root).
    pub slot: Option<usize>,
    /// Per-segment scan results, in segment-id order.
    pub segments: Vec<SegmentReport>,
    /// Distinct live keys within this unit (duplicates resolved
    /// last-write-wins, exactly as recovery resolves them).
    pub live_records: usize,
    /// Superseded records within this unit (dead weight awaiting the
    /// owner's compaction).
    pub dead_records: usize,
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
    /// The store root.
    pub root: PathBuf,
    /// Whether the root uses the sharded layout.
    pub sharded: bool,
    /// Shard count (1 when unsharded).
    pub shard_count: usize,
    /// Every segment directory scanned.
    pub units: Vec<UnitReport>,
    /// Live records after global duplicate resolution (across writer slots;
    /// content-addressed keys make cross-slot duplicates interchangeable).
    pub live: Vec<LiveEntry>,
    /// Total bytes across every segment file.
    pub total_file_bytes: u64,
}

impl InspectReport {
    /// Dead records across all units (superseded within their unit; dead
    /// weight the owning writers' compactors will reclaim).
    pub fn dead_records(&self) -> usize {
        self.units.iter().map(|u| u.dead_records).sum()
    }

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
    /// or a concurrent writer's in-flight append).
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

/// One segment directory: its shard and writer slot (both `None` in a flat
/// layout) and its path.
type SegmentUnit = (Option<usize>, Option<usize>, PathBuf);

/// Lists every segment directory under `root`: the root itself when the
/// layout is flat, otherwise each `shard-KK/writer-WWW/`.
fn segment_units(root: &Path) -> io::Result<(bool, usize, Vec<SegmentUnit>)> {
    let shard_count = read_meta(&root.join(META_FILE))?.unwrap_or(1);
    if shard_count <= 1 {
        return Ok((false, 1, vec![(None, None, root.to_path_buf())]));
    }
    let mut units = Vec::new();
    for shard in 0..shard_count {
        let shard_dir = root.join(format!("shard-{shard:02}"));
        let mut slots = list_writer_slots(&shard_dir)?;
        slots.sort_by_key(|&(index, _)| index);
        for (slot, dir) in slots {
            units.push((Some(shard), Some(slot), dir));
        }
    }
    Ok((true, shard_count, units))
}

fn scan_unit(
    shard: Option<usize>,
    slot: Option<usize>,
    dir: &Path,
    live: &mut LastWriteWins<LiveEntry>,
) -> io::Result<UnitReport> {
    let mut segment_ids: Vec<u64> = match std::fs::read_dir(dir) {
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
    let mut unit_keys: HashMap<u128, usize> = HashMap::new();
    let mut unit_records = 0usize;
    for id in segment_ids {
        let path = dir.join(crate::segment::segment_file_name(id));
        let bytes = match std::fs::read(&path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => continue,
            Err(e) => return Err(e),
        };
        let scan = scan_segment(&bytes);
        for scanned in &scan.records {
            unit_records += 1;
            *unit_keys.entry(scanned.record.key).or_insert(0) += 1;
            let entry = LiveEntry {
                key: scanned.record.key,
                kind: scanned.record.value.kind_name(),
                input_tokens: scanned.record.input_tokens,
                output_tokens: scanned.record.output_tokens,
                epoch: scanned.record.epoch,
            };
            live.insert(entry.key, entry);
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
    Ok(UnitReport {
        dir: dir.to_path_buf(),
        shard,
        slot,
        segments,
        live_records: unit_keys.len(),
        dead_records: unit_records - unit_keys.len(),
    })
}

/// Scans the store at `root` without mutating it (see the module docs).
pub fn inspect(root: &Path) -> io::Result<InspectReport> {
    let (sharded, shard_count, unit_dirs) = segment_units(root)?;
    let mut live = LastWriteWins::new();
    let mut units = Vec::with_capacity(unit_dirs.len());
    for (shard, slot, dir) in unit_dirs {
        units.push(scan_unit(shard, slot, &dir, &mut live)?);
    }
    let total_file_bytes = units
        .iter()
        .flat_map(|u| u.segments.iter())
        .map(|s| s.file_bytes)
        .sum();
    Ok(InspectReport {
        root: root.to_path_buf(),
        sharded,
        shard_count,
        units,
        live: live.into_vec(),
        total_file_bytes,
    })
}

/// Runs the full checksum scan over every segment of every unit and returns
/// the problems found (empty = clean). Strictly read-only: a deliberately
/// truncated segment is *reported*, with its exact recovered-prefix length,
/// and left byte-for-byte untouched.
pub fn verify(root: &Path) -> io::Result<Vec<VerifyIssue>> {
    let report = inspect(root)?;
    let mut issues = Vec::new();
    for unit in report.units {
        for segment in unit.segments {
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
    }
    Ok(issues)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{now_epoch, StoreRecord};
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
        assert!(!report.sharded);
        assert_eq!(report.shard_count, 1);
        assert_eq!(report.units.len(), 1);
        assert_eq!(report.live.len(), 2);
        assert_eq!(report.dead_records(), 1);
        assert!(report.total_file_bytes > 0);
        assert_eq!(report.kind_counts(), vec![("flags", 2)]);
        let (min, max) = report.epoch_range().unwrap();
        assert!(min <= max && max <= now_epoch());
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn inspect_walks_sharded_layouts() {
        let dir = temp_dir();
        let config = StoreConfig::new(dir.to_str().unwrap()).with_shards(3);
        let store = crate::ShardedStore::open(config).unwrap();
        for key in 0..12u128 {
            store.append(&record(key)).unwrap();
        }
        store.sync().unwrap();
        let report = inspect(&dir).unwrap();
        assert!(report.sharded);
        assert_eq!(report.shard_count, 3);
        assert_eq!(report.units.len(), 3, "one claimed slot per shard");
        assert_eq!(report.live.len(), 12);
        drop(store);
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
