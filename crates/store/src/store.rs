//! [`ResponseStore`]: the crash-safe, append-only, generationally compacted
//! segment store.
//!
//! ## Write path
//!
//! Appends go to the *active* segment (created lazily; every process run
//! starts a fresh segment rather than appending to a possibly-torn tail).
//! When the active segment exceeds [`StoreConfig::segment_max_bytes`] it is
//! sealed (optionally fsynced) and a new one is started. Re-appending a key
//! supersedes the earlier record: recovery and compaction both resolve
//! duplicates to the record in the highest `(segment, offset)` position, so
//! last-write-wins holds across crashes.
//!
//! ## Recovery
//!
//! [`ResponseStore::open`] scans every segment in id order. Torn or corrupted
//! tails are truncated at the first bad frame (see
//! [`crate::segment::scan_segment`]); segments with damaged or
//! version-mismatched headers are skipped wholesale. Opening never fails on
//! *content* — only real I/O errors (permissions, missing directory parent)
//! surface as `Err`.
//!
//! ## Compaction
//!
//! Superseded and capacity-evicted records are *dead*: they occupy disk but
//! can never be served. When `dead / max(live, 1)` crosses
//! [`StoreConfig::compact_threshold`], the store rewrites every live record
//! into a fresh segment (fsynced before any old file is deleted, so a crash
//! mid-compaction leaves a recoverable superset) and deletes the old
//! generation.

use crate::codec::{encode_record, now_epoch, StoreRecord, FORMAT_VERSION, FRAME_PREFIX_LEN};
use crate::segment::{
    encode_header, parse_segment_file_name, scan_segment, segment_file_name, HEADER_LEN,
};
use std::collections::{HashMap, VecDeque};
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// When the store calls `fsync` on segment data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Never fsync (durability left to the OS; fastest, survives process
    /// crashes but not power loss).
    Never,
    /// Fsync when a segment is sealed, after compaction and on
    /// [`ResponseStore::sync`] — the default.
    OnSeal,
    /// Fsync after every appended record (every published response is durable
    /// before the append returns).
    Always,
}

/// Configuration of a [`ResponseStore`] (and, through
/// [`crate::ShardedStore`], of every writer slot in a sharded store).
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Directory holding the segment files (created if missing). For a
    /// sharded store this is the *root*; each shard's writer slots live in
    /// `shard-KK/writer-WWW/` subdirectories underneath it.
    pub dir: String,
    /// Maximum live entries retained (0 = unbounded). When an append pushes
    /// the live count past the capacity, the oldest live entries are evicted
    /// (they become dead records reclaimed by compaction). In a sharded
    /// store the bound applies per writer slot.
    pub capacity: usize,
    /// Fsync policy for appended data.
    pub fsync: FsyncPolicy,
    /// Active-segment size that triggers a roll to a new segment.
    pub segment_max_bytes: u64,
    /// Dead-to-live record ratio beyond which the store compacts.
    pub compact_threshold: f64,
    /// Number of key-space shards (0 or 1 = unsharded single-directory
    /// layout, the default). Only consulted when *creating* a store through
    /// [`crate::ShardedStore::open`]; an existing directory keeps the layout
    /// it was created with (recorded in `sharding.meta`).
    pub shards: usize,
    /// Seconds a record stays servable after its written-at epoch
    /// ([`StoreRecord::epoch`]); 0 disables expiry. v1 records (epoch 0) are
    /// maximally stale, so any TTL expires them.
    pub ttl_secs: u64,
    /// Automatically enforce the TTL: expired records found at open are
    /// dropped during recovery (compacting the store if enough of it died),
    /// and every compaction filters newly expired entries. When `false`,
    /// expiry happens only on an explicit [`ResponseStore::gc`] call — an
    /// operator choice for inspecting stale experiment bins before
    /// reclaiming them.
    pub gc: bool,
}

impl StoreConfig {
    /// A configuration with default tuning for `dir`.
    pub fn new(dir: impl Into<String>) -> Self {
        Self {
            dir: dir.into(),
            capacity: 0,
            fsync: FsyncPolicy::OnSeal,
            segment_max_bytes: 8 << 20,
            compact_threshold: 0.5,
            shards: 1,
            ttl_secs: 0,
            gc: true,
        }
    }

    /// Partitions the key space across `shards` independent segment
    /// directories (see [`crate::ShardedStore`]).
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Expires records `ttl_secs` after their written-at epoch.
    pub fn with_ttl_secs(mut self, ttl_secs: u64) -> Self {
        self.ttl_secs = ttl_secs;
        self
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
    /// Records dropped at open because their TTL had lapsed (only when
    /// [`StoreConfig::gc`] is set; they become dead records for compaction).
    pub records_expired: usize,
}

impl RecoveryReport {
    /// Component-wise sum (used by [`crate::ShardedStore`] to aggregate the
    /// per-slot reports).
    pub fn merge(&self, other: &RecoveryReport) -> RecoveryReport {
        RecoveryReport {
            segments_scanned: self.segments_scanned + other.segments_scanned,
            segments_skipped: self.segments_skipped + other.segments_skipped,
            records_recovered: self.records_recovered + other.records_recovered,
            records_superseded: self.records_superseded + other.records_superseded,
            tails_truncated: self.tails_truncated + other.tails_truncated,
            bytes_discarded: self.bytes_discarded + other.bytes_discarded,
            records_expired: self.records_expired + other.records_expired,
        }
    }
}

/// Counters describing store activity since open.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Live (servable) records.
    pub live_records: u64,
    /// Dead records awaiting compaction (superseded or evicted).
    pub dead_records: u64,
    /// Records appended since open.
    pub appended_records: u64,
    /// Frame bytes appended since open.
    pub appended_bytes: u64,
    /// Live entries evicted by the capacity bound.
    pub evicted_records: u64,
    /// Records expired by the TTL policy (at open, during compaction, or by
    /// an explicit [`ResponseStore::gc`] sweep).
    pub expired_records: u64,
    /// Compactions performed.
    pub compactions: u64,
    /// `fsync` calls issued.
    pub fsyncs: u64,
    /// Wall time [`ResponseStore::open`] spent opening this store, including
    /// crash recovery, TTL expiry at open and any open-triggered compaction,
    /// in nanoseconds.
    pub open_nanos: u64,
    /// Wall time spent inside completed compactions, in nanoseconds.
    pub compaction_nanos: u64,
    /// Wall time spent in explicit [`ResponseStore::gc`] sweeps (including
    /// compactions those sweeps triggered, which also count toward
    /// `compaction_nanos`), in nanoseconds.
    pub gc_nanos: u64,
    /// Wall time spent waiting on `fsync`, in nanoseconds.
    pub fsync_nanos: u64,
}

impl StoreStats {
    /// Component-wise sum (used by [`crate::ShardedStore`] to aggregate the
    /// per-slot counters).
    pub fn merge(&self, other: &StoreStats) -> StoreStats {
        StoreStats {
            live_records: self.live_records + other.live_records,
            dead_records: self.dead_records + other.dead_records,
            appended_records: self.appended_records + other.appended_records,
            appended_bytes: self.appended_bytes + other.appended_bytes,
            evicted_records: self.evicted_records + other.evicted_records,
            expired_records: self.expired_records + other.expired_records,
            compactions: self.compactions + other.compactions,
            fsyncs: self.fsyncs + other.fsyncs,
            open_nanos: self.open_nanos + other.open_nanos,
            compaction_nanos: self.compaction_nanos + other.compaction_nanos,
            gc_nanos: self.gc_nanos + other.gc_nanos,
            fsync_nanos: self.fsync_nanos + other.fsync_nanos,
        }
    }
}

struct IndexEntry {
    segment: u64,
    offset: u64,
    frame_len: u32,
    seq: u64,
    /// Written-at epoch, mirrored from the record so TTL sweeps run off the
    /// in-memory index without touching disk.
    epoch: u64,
}

struct ActiveSegment {
    id: u64,
    file: File,
    bytes: u64,
    records: u64,
}

struct Inner {
    index: HashMap<u128, IndexEntry>,
    /// Insertion order for capacity eviction (lazy: stale entries are skipped
    /// when their seq no longer matches the index).
    order: VecDeque<(u64, u128)>,
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
    /// Mirrors the index (superseded/evicted entries removed); consumed by
    /// the first [`ResponseStore::load_live`], invalidated by any append or
    /// compaction in between.
    stash: Option<HashMap<u128, (u64, StoreRecord)>>,
}

#[derive(Default)]
struct Counters {
    appended_records: AtomicU64,
    appended_bytes: AtomicU64,
    evicted_records: AtomicU64,
    expired_records: AtomicU64,
    compactions: AtomicU64,
    fsyncs: AtomicU64,
    open_nanos: AtomicU64,
    compaction_nanos: AtomicU64,
    gc_nanos: AtomicU64,
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
    /// fatal; only real I/O errors return `Err`.
    pub fn open(config: StoreConfig) -> io::Result<Self> {
        let t_open = Instant::now();
        let dir = PathBuf::from(&config.dir);
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
            order: VecDeque::new(),
            next_seq: 0,
            sealed: Vec::new(),
            preserved: Vec::new(),
            active: None,
            next_segment_id: segment_ids.last().map_or(0, |&last| last + 1),
            dead_records: 0,
            formats: HashMap::new(),
            stash: Some(HashMap::new()),
        };
        let now = now_epoch();

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
                // TTL enforcement at open: an expired record is dead on
                // arrival — skipped entirely (it must also not resurrect a
                // key a previous record established, so it is dropped before
                // duplicate resolution, not after).
                if config.gc && expired_at(config.ttl_secs, scanned.record.epoch, now) {
                    report.records_expired += 1;
                    inner.dead_records += 1;
                    continue;
                }
                let seq = inner.next_seq;
                inner.next_seq += 1;
                let previous = inner.index.insert(
                    scanned.record.key,
                    IndexEntry {
                        segment: id,
                        offset: scanned.offset,
                        frame_len: scanned.frame_len,
                        seq,
                        epoch: scanned.record.epoch,
                    },
                );
                inner.order.push_back((seq, scanned.record.key));
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
        store
            .counters
            .expired_records
            .store(report.records_expired as u64, Ordering::Relaxed);
        // Enforce the capacity bound on recovered entries too (oldest out),
        // and reclaim stale experiment bins right away: if TTL expiry just
        // killed enough of the store, compact before serving (open is the
        // natural maintenance point for a store whose writers come and go).
        {
            let mut inner = store.inner.lock().unwrap_or_else(|e| e.into_inner());
            store.evict_over_capacity(&mut inner);
            if store.config.gc && report.records_expired > 0 && store.should_compact(&inner) {
                store.compact_locked(&mut inner)?;
            }
        }
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
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).index.len()
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
            evicted_records: self.counters.evicted_records.load(Ordering::Relaxed),
            expired_records: self.counters.expired_records.load(Ordering::Relaxed),
            compactions: self.counters.compactions.load(Ordering::Relaxed),
            fsyncs: self.counters.fsyncs.load(Ordering::Relaxed),
            open_nanos: self.counters.open_nanos.load(Ordering::Relaxed),
            compaction_nanos: self.counters.compaction_nanos.load(Ordering::Relaxed),
            gc_nanos: self.counters.gc_nanos.load(Ordering::Relaxed),
            fsync_nanos: self.counters.fsync_nanos.load(Ordering::Relaxed),
        }
    }

    fn segment_path(&self, id: u64) -> PathBuf {
        self.dir.join(segment_file_name(id))
    }

    fn fsync(&self, file: &File) -> io::Result<()> {
        let t = Instant::now();
        file.sync_data()?;
        self.counters
            .fsync_nanos
            .fetch_add(t.elapsed().as_nanos().min(u64::MAX as u128) as u64, Ordering::Relaxed);
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

    /// Seals the active segment (fsync per policy) and moves it to `sealed`.
    fn seal_active(&self, inner: &mut Inner) -> io::Result<()> {
        if let Some(active) = inner.active.take() {
            if self.config.fsync != FsyncPolicy::Never {
                self.fsync(&active.file)?;
            }
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

    fn evict_over_capacity(&self, inner: &mut Inner) {
        if self.config.capacity == 0 {
            return;
        }
        while inner.index.len() > self.config.capacity {
            let Some((seq, key)) = inner.order.pop_front() else {
                break;
            };
            // Lazy queue: skip entries superseded since they were enqueued.
            let current = inner.index.get(&key).map(|e| e.seq) == Some(seq);
            if current {
                inner.index.remove(&key);
                if let Some(stash) = inner.stash.as_mut() {
                    stash.remove(&key);
                }
                inner.dead_records += 1;
                self.counters.evicted_records.fetch_add(1, Ordering::Relaxed);
            }
        }
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
        let offset = inner.active.as_ref().expect("ensure_active installed one").bytes;
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
                epoch: record.epoch,
            },
        );
        inner.order.push_back((seq, record.key));
        if previous.is_some() {
            inner.dead_records += 1;
        }
        self.counters.appended_records.fetch_add(1, Ordering::Relaxed);
        self.counters
            .appended_bytes
            .fetch_add(frame.len() as u64, Ordering::Relaxed);
        self.evict_over_capacity(&mut inner);
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

    /// Whether the TTL policy hides records whose epoch has lapsed by `now`
    /// from reads (expiry is *enforced* on every read path; *reclaiming* the
    /// frames is the job of open/gc/compaction).
    fn read_filter_expired(&self) -> bool {
        self.config.gc && self.config.ttl_secs > 0
    }

    /// Fetches the live record for `key`, reading it from disk. Records
    /// whose TTL lapsed after open are not served (matching what a sharded
    /// reader's foreign scan — or the next open — would conclude).
    pub fn get(&self, key: u128) -> io::Result<Option<StoreRecord>> {
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        match inner.index.get(&key) {
            Some(entry) => {
                if self.read_filter_expired()
                    && expired_at(self.config.ttl_secs, entry.epoch, now_epoch())
                {
                    return Ok(None);
                }
                let format = segment_format(&inner, entry.segment);
                Ok(Some(self.read_entry(entry, format)?))
            }
            None => Ok(None),
        }
    }

    /// Reads and decodes a batch of live entries, opening each referenced
    /// segment file exactly once. Returns `(seq, record)` pairs in arbitrary
    /// order; the caller sorts as needed.
    fn read_entries_grouped(
        &self,
        formats: &HashMap<u64, u16>,
        entries: &[(u64, u64, u64, u32)], // (seq, segment, offset, frame_len)
    ) -> io::Result<Vec<(u64, StoreRecord)>> {
        let mut by_segment: std::collections::BTreeMap<u64, Vec<(u64, u64, u32)>> =
            std::collections::BTreeMap::new();
        for &(seq, segment, offset, frame_len) in entries {
            by_segment
                .entry(segment)
                .or_default()
                .push((seq, offset, frame_len));
        }
        let mut out = Vec::with_capacity(entries.len());
        for (segment, frames) in by_segment {
            let bytes = std::fs::read(self.segment_path(segment))?;
            let format = formats.get(&segment).copied().unwrap_or(FORMAT_VERSION);
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
        Ok(out)
    }

    fn live_entry_list(inner: &Inner) -> Vec<(u64, u64, u64, u32)> {
        inner
            .index
            .values()
            .map(|e| (e.seq, e.segment, e.offset, e.frame_len))
            .collect()
    }

    /// Loads every live record (in stable append order) — the warm-start
    /// preload path. Each segment file is read once, however many records it
    /// holds. Records whose TTL lapsed after open are filtered, exactly as
    /// [`ResponseStore::get`] filters them.
    pub fn load_live(&self) -> io::Result<Vec<StoreRecord>> {
        let now = now_epoch();
        let expired = |epoch: u64| {
            self.read_filter_expired() && expired_at(self.config.ttl_secs, epoch, now)
        };
        // The lock is held across the reads so a concurrent compaction
        // cannot delete a segment out from under the index snapshot.
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        // First load after open: the recovery scan already decoded every
        // live record — serve (and free) that stash instead of reading and
        // decoding the whole store a second time.
        if let Some(stash) = inner.stash.take() {
            debug_assert_eq!(stash.len(), inner.index.len());
            drop(inner);
            let mut records: Vec<(u64, StoreRecord)> = stash.into_values().collect();
            records.sort_by_key(|&(seq, _)| seq);
            return Ok(records
                .into_iter()
                .filter(|(_, record)| !expired(record.epoch))
                .map(|(_, record)| record)
                .collect());
        }
        let entries: Vec<(u64, u64, u64, u32)> = inner
            .index
            .values()
            .filter(|e| !expired(e.epoch))
            .map(|e| (e.seq, e.segment, e.offset, e.frame_len))
            .collect();
        let mut records = self.read_entries_grouped(&inner.formats, &entries)?;
        drop(inner);
        records.sort_by_key(|&(seq, _)| seq);
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

        // Read every live record, one pass per segment file, then restore
        // stable append order. Re-encoding (rather than raw frame copy)
        // validates each record a final time, so compaction can never carry
        // corruption forward.
        let mut records =
            self.read_entries_grouped(&inner.formats, &Self::live_entry_list(inner))?;
        records.sort_by_key(|&(seq, _)| seq);

        // The compactor is also the TTL garbage collector: records whose TTL
        // lapsed since open are dropped here instead of being carried into
        // the new generation.
        if self.config.gc && self.config.ttl_secs > 0 {
            let now = now_epoch();
            let before = records.len();
            records.retain(|(_, record)| !expired_at(self.config.ttl_secs, record.epoch, now));
            let expired = (before - records.len()) as u64;
            self.counters.expired_records.fetch_add(expired, Ordering::Relaxed);
        }

        let new_id = inner.next_segment_id;
        inner.next_segment_id += 1;
        let mut new_segment = self.create_segment(new_id)?;
        let mut new_entries: HashMap<u128, IndexEntry> = HashMap::with_capacity(records.len());
        let mut new_order: VecDeque<(u64, u128)> = VecDeque::with_capacity(records.len());
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
                    epoch: record.epoch,
                },
            );
            new_order.push_back((i as u64, record.key));
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
                if let Some(id) = entry
                    .file_name()
                    .to_str()
                    .and_then(parse_segment_file_name)
                {
                    if id != new_id && !inner.preserved.contains(&id) {
                        let _ = std::fs::remove_file(entry.path());
                    }
                }
            }
        }

        inner.sealed = vec![new_id];
        inner.active = None;
        inner.index = new_entries;
        inner.order = new_order;
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

    /// Sweeps the TTL over the live index — entries whose TTL has lapsed
    /// since open become dead — and compacts if the sweep pushed the dead
    /// ratio over the threshold. Returns how many records expired. This is
    /// the explicit GC entry point for stores configured with
    /// [`StoreConfig::gc`] `= false` (automatic stores run the same logic at
    /// open and inside every compaction).
    pub fn gc(&self) -> io::Result<u64> {
        if self.config.ttl_secs == 0 {
            return Ok(0);
        }
        let t_gc = Instant::now();
        let now = now_epoch();
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let expired_keys: Vec<u128> = inner
            .index
            .iter()
            .filter(|(_, entry)| expired_at(self.config.ttl_secs, entry.epoch, now))
            .map(|(&key, _)| key)
            .collect();
        for key in &expired_keys {
            inner.index.remove(key);
            if let Some(stash) = inner.stash.as_mut() {
                stash.remove(key);
            }
            inner.dead_records += 1;
        }
        let expired = expired_keys.len() as u64;
        self.counters.expired_records.fetch_add(expired, Ordering::Relaxed);
        if expired > 0 && self.should_compact(&inner) {
            self.compact_locked(&mut inner)?;
        }
        self.counters
            .gc_nanos
            .fetch_add(t_gc.elapsed().as_nanos().min(u64::MAX as u128) as u64, Ordering::Relaxed);
        Ok(expired)
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
        if self.config.fsync != FsyncPolicy::Never {
            let _ = self.sync();
        }
    }
}

/// Whether a record written at `epoch` has outlived `ttl_secs` by `now`
/// (`ttl_secs == 0` disables expiry). Shared with the sharded store's
/// read-only foreign-slot scans so one expiry rule governs every path.
pub(crate) fn expired_at(ttl_secs: u64, epoch: u64, now: u64) -> bool {
    ttl_secs > 0 && epoch.saturating_add(ttl_secs) < now
}

/// The frame format of `segment` (segments this process writes are always
/// current; only recovered ones can be older).
fn segment_format(inner: &Inner, segment: u64) -> u16 {
    inner.formats.get(&segment).copied().unwrap_or(FORMAT_VERSION)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::ResponseValue;
    use std::sync::atomic::AtomicU32;

    static DIR_COUNTER: AtomicU32 = AtomicU32::new(0);

    fn temp_dir() -> PathBuf {
        let n = DIR_COUNTER.fetch_add(1, Ordering::SeqCst);
        let dir = std::env::temp_dir().join(format!(
            "zeroed-store-unit-{}-{n}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn record(key: u128, flags: &[bool]) -> StoreRecord {
        record_at(key, flags, now_epoch())
    }

    fn record_at(key: u128, flags: &[bool], epoch: u64) -> StoreRecord {
        StoreRecord {
            key,
            input_tokens: 100 + key as u64,
            output_tokens: key as u64,
            epoch,
            value: ResponseValue::Flags(flags.to_vec()),
        }
    }

    fn flags_of(record: &StoreRecord) -> &[bool] {
        match &record.value {
            ResponseValue::Flags(f) => f,
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
    fn capacity_evicts_oldest_live_entries() {
        let dir = temp_dir();
        let mut config = StoreConfig::new(dir.to_str().unwrap());
        config.capacity = 3;
        config.compact_threshold = 100.0;
        let store = ResponseStore::open(config.clone()).unwrap();
        for key in 0..5u128 {
            store.append(&record(key, &[true])).unwrap();
        }
        assert_eq!(store.len(), 3);
        assert_eq!(store.stats().evicted_records, 2);
        assert!(store.get(0).unwrap().is_none());
        assert!(store.get(1).unwrap().is_none());
        assert!(store.get(4).unwrap().is_some());
        drop(store);
        // Recovery enforces the bound too.
        let store = ResponseStore::open(config).unwrap();
        assert_eq!(store.len(), 3);
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
    fn expired_records_are_dropped_at_open_and_reclaimed() {
        let dir = temp_dir();
        let now = now_epoch();
        let mut config = StoreConfig::new(dir.to_str().unwrap()).with_ttl_secs(3_600);
        config.compact_threshold = 0.25;
        {
            // Write without a TTL so the stale records land on disk.
            let store = ResponseStore::open(StoreConfig::new(dir.to_str().unwrap())).unwrap();
            store.append(&record_at(1, &[true], now.saturating_sub(10_000))).unwrap();
            store.append(&record_at(2, &[true], now.saturating_sub(20_000))).unwrap();
            store.append(&record_at(3, &[true], now)).unwrap();
            store.append(&record_at(4, &[false], 0)).unwrap(); // v1-style epoch
        }
        let store = ResponseStore::open(config.clone()).unwrap();
        assert_eq!(store.recovery().records_expired, 3);
        assert_eq!(store.len(), 1, "only the fresh record survives");
        assert!(store.get(1).unwrap().is_none());
        assert!(store.get(3).unwrap().is_some());
        assert_eq!(store.stats().expired_records, 3);
        // 3 dead vs 1 live crossed the threshold: open compacted the bin.
        assert_eq!(store.stats().compactions, 1);
        assert_eq!(store.stats().dead_records, 0);
        drop(store);
        // The compacted store no longer contains the expired frames at all.
        let reopened = ResponseStore::open(config).unwrap();
        assert_eq!(reopened.recovery().records_expired, 0);
        assert_eq!(reopened.len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_false_serves_stale_records_until_an_explicit_sweep() {
        let dir = temp_dir();
        let now = now_epoch();
        let mut config = StoreConfig::new(dir.to_str().unwrap()).with_ttl_secs(60);
        config.gc = false;
        config.compact_threshold = 0.25;
        let store = ResponseStore::open(config.clone()).unwrap();
        store.append(&record_at(1, &[true], now.saturating_sub(1_000))).unwrap();
        store.append(&record_at(2, &[true], now)).unwrap();
        drop(store);

        // gc = false: the stale record is still recovered and served.
        let store = ResponseStore::open(config).unwrap();
        assert_eq!(store.recovery().records_expired, 0);
        assert_eq!(store.len(), 2);
        assert!(store.get(1).unwrap().is_some());
        // The explicit sweep expires it (and compacts past the threshold).
        assert_eq!(store.gc().unwrap(), 1);
        assert_eq!(store.len(), 1);
        assert!(store.get(1).unwrap().is_none());
        assert!(store.get(2).unwrap().is_some());
        assert_eq!(store.stats().expired_records, 1);
        assert_eq!(store.gc().unwrap(), 0, "a second sweep finds nothing");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reads_never_serve_records_that_expired_after_open() {
        // A record that outlives its TTL while the store handle stays open
        // must disappear from get()/load_live() immediately — the same
        // verdict a sharded foreign reader or the next open would reach —
        // even before gc()/compaction reclaims the frame.
        let dir = temp_dir();
        let now = now_epoch();
        let mut config = StoreConfig::new(dir.to_str().unwrap()).with_ttl_secs(3_600);
        config.compact_threshold = 100.0;
        let store = ResponseStore::open(config).unwrap();
        store.append(&record_at(1, &[true], now.saturating_sub(10_000))).unwrap();
        store.append(&record_at(2, &[true], now)).unwrap();
        assert!(store.get(1).unwrap().is_none(), "expired record is hidden from get");
        assert!(store.get(2).unwrap().is_some());
        let live = store.load_live().unwrap();
        assert_eq!(live.len(), 1);
        assert_eq!(live[0].key, 2);
        // The frame itself is still on disk until gc/compaction reclaims it.
        assert_eq!(store.len(), 2);
        assert_eq!(store.gc().unwrap(), 1);
        assert_eq!(store.len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_filters_entries_that_expired_since_open() {
        let dir = temp_dir();
        let now = now_epoch();
        let mut config = StoreConfig::new(dir.to_str().unwrap()).with_ttl_secs(3_600);
        config.compact_threshold = 100.0; // manual compaction only
        let store = ResponseStore::open(config).unwrap();
        // Appended while the store is open (bypasses open-time expiry).
        store.append(&record_at(1, &[true], now.saturating_sub(10_000))).unwrap();
        store.append(&record_at(2, &[true], now)).unwrap();
        assert_eq!(store.len(), 2);
        store.compact().unwrap();
        assert_eq!(store.len(), 1, "the compactor drops the expired record");
        assert!(store.get(1).unwrap().is_none());
        assert_eq!(store.stats().expired_records, 1);
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
        config.ttl_secs = 1;
        config.gc = false;
        let store = ResponseStore::open(config).unwrap();
        let stats = store.stats();
        assert!(stats.open_nanos > 0, "open wall time recorded");
        assert_eq!(stats.compaction_nanos, 0);
        assert_eq!(stats.gc_nanos, 0);

        store.append(&record(1, &[true])).unwrap();
        assert!(store.stats().fsync_nanos > 0, "Always policy timed its sync");

        store.compact().unwrap();
        let stats = store.stats();
        assert_eq!(stats.compactions, 1);
        assert!(stats.compaction_nanos > 0, "compaction wall time recorded");

        store.gc().unwrap();
        assert!(store.stats().gc_nanos > 0, "gc sweep wall time recorded");

        // Aggregation sums timing fields like any other counter.
        let doubled = stats.merge(&stats);
        assert_eq!(doubled.open_nanos, stats.open_nanos * 2);
        assert_eq!(doubled.compaction_nanos, stats.compaction_nanos * 2);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
