//! [`ResponseStore`]: the crash-safe, append-only, generationally compacted
//! segment store.
//!
//! ## Write path
//!
//! Appends go to the *active* segment (created lazily; every process run
//! starts a fresh segment rather than appending to a possibly-torn tail).
//! When the active segment exceeds [`StoreConfig::segment_max_bytes`] it is
//! sealed (fsynced) and a new one is started. Re-appending a key supersedes
//! the earlier record: recovery and compaction both resolve duplicates to
//! the record in the highest `(segment, offset)` position, so
//! last-write-wins holds across crashes.
//!
//! ## Recovery
//!
//! [`ResponseStore::open`] scans every segment in id order. Torn or corrupted
//! tails are truncated at the first bad frame (see
//! [`crate::segment::scan_segment`]); segments with damaged or
//! version-mismatched headers are skipped wholesale. Opening never fails on
//! segment *content* — only real I/O errors (permissions, missing directory
//! parent), a directory another store holds, or a root an older build laid
//! out in shards surface as `Err`.
//!
//! ## Compaction
//!
//! Superseded records are *dead*: they occupy disk but can never be served.
//! When `dead / max(live, 1)` crosses [`StoreConfig::compact_threshold`], the
//! store rewrites every live record into a fresh segment (fsynced before any
//! old file is deleted, so a crash mid-compaction leaves a recoverable
//! superset) and deletes the old generation.

use crate::codec::{encode_record, StoreRecord, FORMAT_VERSION, FRAME_PREFIX_LEN};
use crate::segment::{
    encode_header, parse_segment_file_name, scan_segment, segment_file_name, HEADER_LEN,
};
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// When the store calls `fsync` on segment data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Fsync when a segment is sealed, after compaction and on
    /// [`ResponseStore::sync`] — the default.
    OnSeal,
    /// Fsync after every appended record (every published response is durable
    /// before the append returns).
    Always,
}

/// Configuration of a [`ResponseStore`].
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Directory holding the segment files (created if missing).
    pub dir: String,
    /// Fsync policy for appended data.
    pub fsync: FsyncPolicy,
    /// Active-segment size that triggers a roll to a new segment.
    pub segment_max_bytes: u64,
    /// Dead-to-live record ratio beyond which the store compacts.
    pub compact_threshold: f64,
}

impl StoreConfig {
    /// A configuration with default tuning for `dir`.
    pub fn new(dir: impl Into<String>) -> Self {
        Self {
            dir: dir.into(),
            fsync: FsyncPolicy::OnSeal,
            segment_max_bytes: 8 << 20,
            compact_threshold: 0.5,
        }
    }
}

/// What [`ResponseStore::open`] found on disk.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Segment files scanned.
    pub segments_scanned: usize,
    /// Segments skipped wholesale (broken or version-mismatched headers).
    pub segments_skipped: usize,
    /// Records recovered into the live index (after duplicate resolution).
    pub records_recovered: usize,
    /// Recovered records superseded by a later record for the same key
    /// (dead on arrival).
    pub records_superseded: usize,
    /// Truncation events (torn/corrupt tails cut off).
    pub tails_truncated: usize,
    /// Bytes discarded by truncation and skipped segments.
    pub bytes_discarded: u64,
}

/// Counters describing store activity since open.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Live (servable) records.
    pub live_records: u64,
    /// Superseded records awaiting compaction.
    pub dead_records: u64,
    /// Records appended since open.
    pub appended_records: u64,
    /// Frame bytes appended since open.
    pub appended_bytes: u64,
    /// Compactions performed.
    pub compactions: u64,
    /// `fsync` calls issued.
    pub fsyncs: u64,
    /// Wall time [`ResponseStore::open`] spent opening this store, crash
    /// recovery included, in nanoseconds.
    pub open_nanos: u64,
    /// Wall time spent inside completed compactions, in nanoseconds.
    pub compaction_nanos: u64,
    /// Wall time spent waiting on `fsync`, in nanoseconds.
    pub fsync_nanos: u64,
}

struct IndexEntry {
    segment: u64,
    offset: u64,
    frame_len: u32,
    seq: u64,
}

struct ActiveSegment {
    id: u64,
    file: File,
    bytes: u64,
    records: u64,
}

struct Inner {
    index: HashMap<u128, IndexEntry>,
    next_seq: u64,
    /// Sealed segments by id (recovered ones and rolled ones).
    sealed: Vec<u64>,
    /// Segments skipped at open because their header carries a *different
    /// version* (format or key schema). Their data is valid under another
    /// build, so compaction must leave them on disk — deleting them would
    /// turn a version skew (rollback/roll-forward) into permanent data loss.
    /// Corrupt/garbage segments are not preserved.
    preserved: Vec<u64>,
    active: Option<ActiveSegment>,
    next_segment_id: u64,
    dead_records: u64,
    /// Frame format version of each on-disk segment (recovered segments keep
    /// the version their header declares; segments this process writes are
    /// always the current [`FORMAT_VERSION`]).
    formats: HashMap<u64, u16>,
    /// Live records decoded during the open scan, kept so the warm-start
    /// preload does not read and decode the whole store a second time.
    /// Mirrors the index (superseded entries removed); consumed by the first
    /// [`ResponseStore::load_live`], invalidated by any append or compaction
    /// in between.
    stash: Option<HashMap<u128, (u64, StoreRecord)>>,
}

#[derive(Default)]
struct Counters {
    appended_records: AtomicU64,
    appended_bytes: AtomicU64,
    compactions: AtomicU64,
    fsyncs: AtomicU64,
    open_nanos: AtomicU64,
    compaction_nanos: AtomicU64,
    fsync_nanos: AtomicU64,
}

/// The crash-safe on-disk response store (see module docs).
pub struct ResponseStore {
    dir: PathBuf,
    config: StoreConfig,
    inner: Mutex<Inner>,
    counters: Counters,
    recovery: RecoveryReport,
    /// Exclusive advisory lock on `dir/.lock`, held for the store's
    /// lifetime. The OS releases it when the process dies, so a crash never
    /// leaves a stale lock — unlike a pid file.
    _dir_lock: File,
}

impl std::fmt::Debug for ResponseStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResponseStore")
            .field("dir", &self.dir)
            .field("stats", &self.stats())
            .field("recovery", &self.recovery)
            .finish()
    }
}

impl ResponseStore {
    /// Opens (or creates) the store at `config.dir`, running recovery over
    /// existing segments. Damaged content is truncated or skipped, never
    /// fatal. `Err` means a real I/O error, a directory another store holds
    /// (`WouldBlock`), or a root an older build laid out in shards
    /// (`Unsupported`, with nothing written).
    pub fn open(config: StoreConfig) -> io::Result<Self> {
        let t_open = Instant::now();
        let dir = PathBuf::from(&config.dir);
        refuse_sharded_root(&dir)?;
        std::fs::create_dir_all(&dir)?;

        // Single-writer enforcement: two stores on one directory would race
        // segment ids and delete each other's generations at compaction. An
        // OS advisory lock (auto-released on process death — "never refuse
        // to open" still holds after a crash) turns that silent data loss
        // into an immediate, explicit error.
        let dir_lock = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(false)
            .open(dir.join(".lock"))?;
        dir_lock.try_lock().map_err(|_| {
            io::Error::new(
                io::ErrorKind::WouldBlock,
                format!(
                    "response store at {} is already open in another ResponseStore \
                     (single-writer; close the other instance first)",
                    dir.display()
                ),
            )
        })?;

        let mut segment_ids: Vec<u64> = std::fs::read_dir(&dir)?
            .filter_map(|entry| {
                let entry = entry.ok()?;
                parse_segment_file_name(entry.file_name().to_str()?)
            })
            .collect();
        segment_ids.sort_unstable();

        let mut report = RecoveryReport::default();
        let mut inner = Inner {
            index: HashMap::new(),
            next_seq: 0,
            sealed: Vec::new(),
            preserved: Vec::new(),
            active: None,
            next_segment_id: segment_ids.last().map_or(0, |&last| last + 1),
            dead_records: 0,
            formats: HashMap::new(),
            stash: Some(HashMap::new()),
        };

        for &id in &segment_ids {
            let path = dir.join(segment_file_name(id));
            let bytes = std::fs::read(&path)?;
            let scan = scan_segment(&bytes);
            report.segments_scanned += 1;
            report.bytes_discarded += scan.discarded_bytes;
            if let Some(issue) = scan.header_issue {
                // Unusable wholesale. Corrupt files (zero-length, garbage,
                // damaged headers) are reclaimed at the next compaction;
                // *version-mismatched* segments hold valid data another build
                // wrote, so they are preserved for that build to reclaim.
                if matches!(
                    issue,
                    crate::segment::HeaderIssue::FormatVersion
                        | crate::segment::HeaderIssue::KeySchemaVersion
                ) {
                    inner.preserved.push(id);
                }
                report.segments_skipped += 1;
                continue;
            }
            if scan.torn {
                report.tails_truncated += 1;
                // Cut the corrupt tail so later appends/compactions never
                // resurrect garbage behind a valid prefix.
                let file = OpenOptions::new().write(true).open(&path)?;
                file.set_len(scan.valid_len)?;
            }
            inner.formats.insert(id, scan.format);
            for scanned in scan.records {
                let seq = inner.next_seq;
                inner.next_seq += 1;
                let previous = inner.index.insert(
                    scanned.record.key,
                    IndexEntry {
                        segment: id,
                        offset: scanned.offset,
                        frame_len: scanned.frame_len,
                        seq,
                    },
                );
                if previous.is_some() {
                    report.records_superseded += 1;
                    inner.dead_records += 1;
                }
                // Keep the decoded record for the warm-start preload (the
                // scan already paid for the decode; last write wins here just
                // as it does in the index).
                if let Some(stash) = inner.stash.as_mut() {
                    stash.insert(scanned.record.key, (seq, scanned.record));
                }
            }
            inner.sealed.push(id);
        }
        report.records_recovered = inner.index.len();

        let store = Self {
            dir,
            config,
            inner: Mutex::new(inner),
            counters: Counters::default(),
            recovery: report,
            _dir_lock: dir_lock,
        };
        store.counters.open_nanos.store(
            t_open.elapsed().as_nanos().min(u64::MAX as u128) as u64,
            Ordering::Relaxed,
        );
        Ok(store)
    }

    /// The recovery report from open.
    pub fn recovery(&self) -> RecoveryReport {
        self.recovery
    }

    /// Number of live (servable) records.
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .index
            .len()
    }

    /// Whether the store holds no live records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current counter snapshot.
    pub fn stats(&self) -> StoreStats {
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        StoreStats {
            live_records: inner.index.len() as u64,
            dead_records: inner.dead_records,
            appended_records: self.counters.appended_records.load(Ordering::Relaxed),
            appended_bytes: self.counters.appended_bytes.load(Ordering::Relaxed),
            compactions: self.counters.compactions.load(Ordering::Relaxed),
            fsyncs: self.counters.fsyncs.load(Ordering::Relaxed),
            open_nanos: self.counters.open_nanos.load(Ordering::Relaxed),
            compaction_nanos: self.counters.compaction_nanos.load(Ordering::Relaxed),
            fsync_nanos: self.counters.fsync_nanos.load(Ordering::Relaxed),
        }
    }

    fn segment_path(&self, id: u64) -> PathBuf {
        self.dir.join(segment_file_name(id))
    }

    fn fsync(&self, file: &File) -> io::Result<()> {
        let t = Instant::now();
        file.sync_data()?;
        self.counters.fsync_nanos.fetch_add(
            t.elapsed().as_nanos().min(u64::MAX as u128) as u64,
            Ordering::Relaxed,
        );
        self.counters.fsyncs.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Creates segment `id` with its header written.
    fn create_segment(&self, id: u64) -> io::Result<ActiveSegment> {
        let mut file = OpenOptions::new()
            .create_new(true)
            .write(true)
            .open(self.segment_path(id))?;
        file.write_all(&encode_header(id))?;
        Ok(ActiveSegment {
            id,
            file,
            bytes: HEADER_LEN as u64,
            records: 0,
        })
    }

    /// Seals the active segment (fsynced) and moves it to `sealed`.
    fn seal_active(&self, inner: &mut Inner) -> io::Result<()> {
        if let Some(active) = inner.active.take() {
            self.fsync(&active.file)?;
            inner.sealed.push(active.id);
        }
        Ok(())
    }

    fn ensure_active(&self, inner: &mut Inner, frame_len: u64) -> io::Result<()> {
        let roll = match &inner.active {
            Some(active) => {
                active.records > 0 && active.bytes + frame_len > self.config.segment_max_bytes
            }
            None => true,
        };
        if roll {
            self.seal_active(inner)?;
            let id = inner.next_segment_id;
            inner.next_segment_id += 1;
            inner.active = Some(self.create_segment(id)?);
            inner.formats.insert(id, FORMAT_VERSION);
        }
        Ok(())
    }

    /// Appends (or supersedes) one record, returning the frame bytes written.
    /// May seal/roll segments, fsync (per policy) and trigger compaction.
    pub fn append(&self, record: &StoreRecord) -> io::Result<u64> {
        let frame = encode_record(record);
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        // The preload stash no longer mirrors the index once anything is
        // appended; later load_live calls take the (always-correct) disk path.
        inner.stash = None;
        self.ensure_active(&mut inner, frame.len() as u64)?;
        let seq = inner.next_seq;
        inner.next_seq += 1;
        let offset = inner
            .active
            .as_ref()
            .expect("ensure_active installed one")
            .bytes;
        let write_result = {
            let active = inner.active.as_mut().expect("checked above");
            active.file.write_all(&frame)
        };
        if let Err(e) = write_result {
            // A partial frame may be on disk past `offset` with the cursor
            // advanced: the segment's tail is now garbage and its cursor
            // disagrees with our offsets. Truncate back to the last good
            // frame (best effort) and abandon the segment — already-indexed
            // records before `offset` stay readable, the next append rolls a
            // fresh segment, and recovery would cut the same tail anyway.
            let abandoned = inner.active.take().expect("checked above");
            let _ = abandoned.file.set_len(offset);
            inner.sealed.push(abandoned.id);
            return Err(e);
        }
        let active = inner.active.as_mut().expect("checked above");
        active.bytes += frame.len() as u64;
        active.records += 1;
        let segment = active.id;
        if self.config.fsync == FsyncPolicy::Always {
            let file = &inner.active.as_ref().expect("still active").file;
            self.fsync(file)?;
        }
        let previous = inner.index.insert(
            record.key,
            IndexEntry {
                segment,
                offset,
                frame_len: frame.len() as u32,
                seq,
            },
        );
        if previous.is_some() {
            inner.dead_records += 1;
        }
        self.counters
            .appended_records
            .fetch_add(1, Ordering::Relaxed);
        self.counters
            .appended_bytes
            .fetch_add(frame.len() as u64, Ordering::Relaxed);
        if self.should_compact(&inner) {
            self.compact_locked(&mut inner)?;
        }
        Ok(frame.len() as u64)
    }

    fn should_compact(&self, inner: &Inner) -> bool {
        inner.dead_records > 0
            && inner.dead_records as f64 / inner.index.len().max(1) as f64
                > self.config.compact_threshold
    }

    /// Reads one frame's payload from disk and decodes it at the segment's
    /// recorded format version.
    fn read_entry(&self, entry: &IndexEntry, format: u16) -> io::Result<StoreRecord> {
        let mut file = File::open(self.segment_path(entry.segment))?;
        file.seek(SeekFrom::Start(entry.offset + FRAME_PREFIX_LEN as u64))?;
        let mut payload = vec![0u8; entry.frame_len as usize - FRAME_PREFIX_LEN];
        file.read_exact(&mut payload)?;
        crate::codec::decode_payload(&payload, format)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }

    /// Fetches the live record for `key`, reading it from disk.
    pub fn get(&self, key: u128) -> io::Result<Option<StoreRecord>> {
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        match inner.index.get(&key) {
            Some(entry) => {
                let format = segment_format(&inner, entry.segment);
                Ok(Some(self.read_entry(entry, format)?))
            }
            None => Ok(None),
        }
    }

    /// Reads and decodes every live entry, opening each referenced segment
    /// file exactly once. Returns `(seq, record)` pairs sorted by `seq`
    /// (stable append order).
    fn read_live(&self, inner: &Inner) -> io::Result<Vec<(u64, StoreRecord)>> {
        let mut by_segment: std::collections::BTreeMap<u64, Vec<(u64, u64, u32)>> =
            std::collections::BTreeMap::new();
        for e in inner.index.values() {
            by_segment
                .entry(e.segment)
                .or_default()
                .push((e.seq, e.offset, e.frame_len));
        }
        let mut out = Vec::with_capacity(inner.index.len());
        for (segment, frames) in by_segment {
            let bytes = std::fs::read(self.segment_path(segment))?;
            let format = segment_format(inner, segment);
            for (seq, offset, frame_len) in frames {
                let start = offset as usize + FRAME_PREFIX_LEN;
                let end = offset as usize + frame_len as usize;
                let payload = bytes.get(start..end).ok_or_else(|| {
                    io::Error::new(
                        io::ErrorKind::InvalidData,
                        "segment shrank under a live index entry",
                    )
                })?;
                let record = crate::codec::decode_payload(payload, format)
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
                out.push((seq, record));
            }
        }
        out.sort_by_key(|&(seq, _)| seq);
        Ok(out)
    }

    /// Loads every live record (in stable append order) — the warm-start
    /// preload path. Each segment file is read once, however many records it
    /// holds.
    pub fn load_live(&self) -> io::Result<Vec<StoreRecord>> {
        // The lock is held across the reads so a concurrent compaction
        // cannot delete a segment out from under the index snapshot.
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        // First load after open: the recovery scan already decoded every
        // live record — serve (and free) that stash instead of reading and
        // decoding the whole store a second time.
        let records = match inner.stash.take() {
            Some(stash) => {
                debug_assert_eq!(stash.len(), inner.index.len());
                drop(inner);
                let mut records: Vec<(u64, StoreRecord)> = stash.into_values().collect();
                records.sort_by_key(|&(seq, _)| seq);
                records
            }
            None => self.read_live(&inner)?,
        };
        Ok(records.into_iter().map(|(_, record)| record).collect())
    }

    /// Rewrites live records into a fresh generation and deletes the old
    /// segments. Normally triggered automatically by the dead-ratio
    /// threshold; public for tests and maintenance.
    pub fn compact(&self) -> io::Result<()> {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        self.compact_locked(&mut inner)
    }

    fn compact_locked(&self, inner: &mut Inner) -> io::Result<()> {
        let t_compact = Instant::now();
        inner.stash = None;
        // Seal the active segment so its content is readable and accounted.
        self.seal_active(inner)?;

        // Read every live record, one pass per segment file, in stable
        // append order. Re-encoding (rather than raw frame copy) validates
        // each record a final time, so compaction can never carry corruption
        // forward.
        let records = self.read_live(inner)?;

        let new_id = inner.next_segment_id;
        inner.next_segment_id += 1;
        let mut new_segment = self.create_segment(new_id)?;
        let mut new_entries: HashMap<u128, IndexEntry> = HashMap::with_capacity(records.len());
        for (i, (_, record)) in records.iter().enumerate() {
            let frame = encode_record(record);
            let offset = new_segment.bytes;
            new_segment.file.write_all(&frame)?;
            new_segment.bytes += frame.len() as u64;
            new_segment.records += 1;
            new_entries.insert(
                record.key,
                IndexEntry {
                    segment: new_id,
                    offset,
                    frame_len: frame.len() as u32,
                    seq: i as u64,
                },
            );
        }
        let live_count = records.len();
        drop(records);
        // The new generation must be durable before the old one disappears —
        // a crash in between leaves both (recovery resolves to the newest id).
        self.fsync(&new_segment.file)?;

        // Remove the old generation: every segment file except the one just
        // written — sealed segments, the abandoned active one, and corrupt
        // skipped files alike. Version-preserved segments are exempt: those
        // hold valid data written under a different format/key-schema
        // version, and only a build speaking that version may reclaim them.
        if let Ok(entries) = std::fs::read_dir(&self.dir) {
            for entry in entries.flatten() {
                if let Some(id) = entry.file_name().to_str().and_then(parse_segment_file_name) {
                    if id != new_id && !inner.preserved.contains(&id) {
                        let _ = std::fs::remove_file(entry.path());
                    }
                }
            }
        }

        inner.sealed = vec![new_id];
        inner.active = None;
        inner.index = new_entries;
        inner.next_seq = live_count as u64;
        inner.dead_records = 0;
        inner.formats = HashMap::from([(new_id, FORMAT_VERSION)]);
        self.counters.compactions.fetch_add(1, Ordering::Relaxed);
        self.counters.compaction_nanos.fetch_add(
            t_compact.elapsed().as_nanos().min(u64::MAX as u128) as u64,
            Ordering::Relaxed,
        );
        Ok(())
    }

    /// Forces an fsync of the active segment (a durability barrier regardless
    /// of policy). No-op when nothing has been appended.
    pub fn sync(&self) -> io::Result<()> {
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(active) = &inner.active {
            self.fsync(&active.file)?;
        }
        Ok(())
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

impl Drop for ResponseStore {
    fn drop(&mut self) {
        let _ = self.sync();
    }
}

/// The file an older build wrote at the root of a store it laid out in
/// `shard-KK/writer-WWW/` subdirectories (a store created with more than one
/// shard).
const SHARDED_META: &str = "sharding.meta";

/// Refuses a root an older build laid out in shards. This build reads only
/// the flat layout: opening such a root would write flat segments next to
/// `shard-KK/`, which the older build never reads, and show an empty store.
pub(crate) fn refuse_sharded_root(dir: &Path) -> io::Result<()> {
    let meta = dir.join(SHARDED_META);
    if meta.try_exists()? {
        return Err(io::Error::new(
            io::ErrorKind::Unsupported,
            format!(
                "{} exists: this store was laid out in shards by an older build, \
                 and this build reads only the flat layout",
                meta.display()
            ),
        ));
    }
    Ok(())
}

/// The frame format of `segment` (segments this process writes are always
/// current; only recovered ones can be older).
fn segment_format(inner: &Inner, segment: u64) -> u16 {
    inner
        .formats
        .get(&segment)
        .copied()
        .unwrap_or(FORMAT_VERSION)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::now_epoch;
    use std::sync::atomic::AtomicU32;
    use zeroed_llm::Response;

    static DIR_COUNTER: AtomicU32 = AtomicU32::new(0);

    fn temp_dir() -> PathBuf {
        let n = DIR_COUNTER.fetch_add(1, Ordering::SeqCst);
        let dir =
            std::env::temp_dir().join(format!("zeroed-store-unit-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn record(key: u128, flags: &[bool]) -> StoreRecord {
        StoreRecord {
            key,
            input_tokens: 100 + key as u64,
            output_tokens: key as u64,
            epoch: now_epoch(),
            value: Response::Flags(flags.to_vec()),
        }
    }

    fn flags_of(record: &StoreRecord) -> &[bool] {
        match &record.value {
            Response::Flags(f) => f,
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn append_reopen_replays_records() {
        let dir = temp_dir();
        let config = StoreConfig::new(dir.to_str().unwrap());
        {
            let store = ResponseStore::open(config.clone()).unwrap();
            assert!(store.is_empty());
            store.append(&record(1, &[true])).unwrap();
            store.append(&record(2, &[false, true])).unwrap();
            assert_eq!(store.len(), 2);
        }
        let store = ResponseStore::open(config).unwrap();
        assert_eq!(store.len(), 2);
        assert_eq!(store.recovery().records_recovered, 2);
        assert_eq!(store.recovery().tails_truncated, 0);
        let live = store.load_live().unwrap();
        assert_eq!(live.len(), 2);
        assert_eq!(live[0].key, 1);
        assert_eq!(flags_of(&live[1]), &[false, true]);
        assert_eq!(live[1].input_tokens, 102);
        let fetched = store.get(2).unwrap().unwrap();
        assert_eq!(flags_of(&fetched), &[false, true]);
        assert!(store.get(99).unwrap().is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rewriting_a_key_supersedes_and_last_write_wins_across_reopen() {
        let dir = temp_dir();
        let mut config = StoreConfig::new(dir.to_str().unwrap());
        config.compact_threshold = 100.0; // keep dead records around
        {
            let store = ResponseStore::open(config.clone()).unwrap();
            store.append(&record(5, &[false])).unwrap();
            store.append(&record(5, &[true])).unwrap();
            assert_eq!(store.len(), 1);
            assert_eq!(store.stats().dead_records, 1);
            assert_eq!(flags_of(&store.get(5).unwrap().unwrap()), &[true]);
        }
        let store = ResponseStore::open(config).unwrap();
        assert_eq!(store.len(), 1);
        assert_eq!(store.recovery().records_superseded, 1);
        assert_eq!(flags_of(&store.get(5).unwrap().unwrap()), &[true]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn segments_roll_and_compaction_collapses_generations() {
        let dir = temp_dir();
        let mut config = StoreConfig::new(dir.to_str().unwrap());
        config.segment_max_bytes = 150; // force frequent rolls
        config.compact_threshold = 100.0;
        let store = ResponseStore::open(config.clone()).unwrap();
        for round in 0..4 {
            for key in 0..6u128 {
                store.append(&record(key, &[round % 2 == 0])).unwrap();
            }
        }
        assert_eq!(store.len(), 6);
        assert_eq!(store.stats().dead_records, 18);
        let seg_count = |dir: &PathBuf| {
            std::fs::read_dir(dir)
                .unwrap()
                .filter(|e| {
                    e.as_ref()
                        .unwrap()
                        .file_name()
                        .to_string_lossy()
                        .ends_with(".zseg")
                })
                .count()
        };
        assert!(seg_count(&dir) > 1, "rolling must have produced segments");

        store.compact().unwrap();
        assert_eq!(store.len(), 6);
        assert_eq!(store.stats().dead_records, 0);
        assert_eq!(store.stats().compactions, 1);
        assert_eq!(seg_count(&dir), 1, "one compacted segment remains");
        // Values survived (last write was round 3 → false).
        for key in 0..6u128 {
            assert_eq!(flags_of(&store.get(key).unwrap().unwrap()), &[false]);
        }
        drop(store);
        let store = ResponseStore::open(config).unwrap();
        assert_eq!(store.len(), 6);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dead_ratio_triggers_automatic_compaction() {
        let dir = temp_dir();
        let mut config = StoreConfig::new(dir.to_str().unwrap());
        config.compact_threshold = 0.5;
        let store = ResponseStore::open(config).unwrap();
        store.append(&record(1, &[true])).unwrap();
        store.append(&record(2, &[true])).unwrap();
        // Two supersedes push dead/live to 1.0 > 0.5 → compaction fires.
        store.append(&record(1, &[false])).unwrap();
        store.append(&record(2, &[false])).unwrap();
        assert!(store.stats().compactions >= 1);
        assert_eq!(store.stats().dead_records, 0);
        assert_eq!(store.len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn second_store_on_the_same_dir_is_refused_until_the_first_closes() {
        let dir = temp_dir();
        let config = StoreConfig::new(dir.to_str().unwrap());
        let first = ResponseStore::open(config.clone()).unwrap();
        first.append(&record(1, &[true])).unwrap();
        // A concurrent writer would race segment ids and delete the first
        // store's generations at compaction — refused up front instead.
        let err = ResponseStore::open(config.clone()).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::WouldBlock);
        drop(first);
        // The lock dies with the holder: reopening now succeeds.
        let second = ResponseStore::open(config).unwrap();
        assert_eq!(second.len(), 1);
        drop(second);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fsync_policies_issue_syncs() {
        let dir = temp_dir();
        let mut config = StoreConfig::new(dir.to_str().unwrap());
        config.fsync = FsyncPolicy::Always;
        let store = ResponseStore::open(config).unwrap();
        store.append(&record(1, &[true])).unwrap();
        store.append(&record(2, &[true])).unwrap();
        assert!(store.stats().fsyncs >= 2);
        store.sync().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn maintenance_wall_times_are_accounted() {
        let dir = temp_dir();
        let mut config = StoreConfig::new(dir.to_str().unwrap());
        config.fsync = FsyncPolicy::Always;
        let store = ResponseStore::open(config).unwrap();
        let stats = store.stats();
        assert!(stats.open_nanos > 0, "open wall time recorded");
        assert_eq!(stats.compaction_nanos, 0);

        store.append(&record(1, &[true])).unwrap();
        assert!(
            store.stats().fsync_nanos > 0,
            "Always policy timed its sync"
        );

        store.compact().unwrap();
        let stats = store.stats();
        assert_eq!(stats.compactions, 1);
        assert!(stats.compaction_nanos > 0, "compaction wall time recorded");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
