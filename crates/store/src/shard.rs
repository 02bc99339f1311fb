//! [`ShardedStore`]: key-space-partitioned stores for concurrent writers.
//!
//! A single [`ResponseStore`] is deliberately single-writer: an exclusive
//! advisory lock on its directory stops two processes racing segment ids and
//! deleting each other's generations at compaction. That is correct but it
//! serialises a *fleet* — the north-star deployment runs many detector
//! processes against one shared response store, and "second opener loses"
//! does not scale past one.
//!
//! The sharded layout keeps every single-writer invariant intact while
//! letting any number of processes write concurrently:
//!
//! ```text
//! store-root/
//!   sharding.meta            shard count, fixed at creation
//!   shard-00/                keys with key % N == 0
//!     writer-000/            ← a complete ResponseStore dir (lock, segments)
//!     writer-001/            ← claimed by a second concurrent process
//!   shard-01/
//!     writer-000/
//!   ...
//! ```
//!
//! * The 128-bit `RequestKey` space is partitioned across `N` shard
//!   directories (`shard-KK/`, key routed by `key mod N`).
//! * Within a shard, each opener claims the first **writer slot**
//!   (`writer-WWW/`) whose advisory lock it can take, creating a new slot if
//!   every existing one is held. A slot is an ordinary [`ResponseStore`] —
//!   its own lock, its own appender, its own compactor, its own TTL/GC — so
//!   no two processes ever contend on (or corrupt) the same segment files,
//!   and appends from K processes proceed with zero cross-process lock
//!   traffic.
//! * Reads merge the owned slot with **read-only scans** of the other slots'
//!   segments. Foreign scans never lock, truncate or delete anything; a torn
//!   tail another writer is mid-append on simply ends that scan early, which
//!   is exactly the recovered-prefix semantics recovery would apply.
//!
//! Duplicate keys across slots are benign by construction: the store is
//! content-addressed (`RequestKey` covers everything a deterministic client's
//! answer depends on), so two writers that persisted the same key persisted
//! the same response, and the merge may pick either. Within one slot the
//! usual last-write-wins ordering holds.
//!
//! The shard count is recorded in `sharding.meta` when the store is first
//! created and is immutable afterwards — re-opening with a different
//! [`StoreConfig::shards`] uses the persisted count, because the key→shard
//! mapping must match what the existing records were routed by. A directory
//! that already holds *unsharded* segments (a v1-era store, or one created
//! with `shards <= 1`) keeps its flat layout and opens as a plain
//! single-writer store.

use crate::codec::StoreRecord;
use crate::segment::{parse_segment_file_name, scan_segment};
use crate::store::{expired_at, RecoveryReport, ResponseStore, StoreConfig, StoreStats};
use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};

/// File recording the shard count at the store root.
pub const META_FILE: &str = "sharding.meta";

/// Upper bound on writer slots per shard — purely a runaway guard; real
/// deployments hold a handful of slots (one per concurrently open process).
const MAX_WRITER_SLOTS: usize = 256;

/// Key-ordered last-write-wins accumulator: repeated inserts for one key
/// overwrite in place, first-seen order is preserved. This is the one
/// duplicate-resolution rule every read-side merge shares — slot scans,
/// cross-slot merges, the warm-start preload and the inspection tool all
/// resolve "exactly as recovery resolves", through this type.
pub(crate) struct LastWriteWins<T> {
    merged: Vec<T>,
    position: HashMap<u128, usize>,
}

impl<T> LastWriteWins<T> {
    pub(crate) fn new() -> Self {
        Self {
            merged: Vec::new(),
            position: HashMap::new(),
        }
    }

    /// Inserts (or overwrites) the value for `key`; returns `true` when the
    /// key had been seen before (the insert superseded an earlier value).
    pub(crate) fn insert(&mut self, key: u128, value: T) -> bool {
        match self.position.get(&key) {
            Some(&i) => {
                self.merged[i] = value;
                true
            }
            None => {
                self.position.insert(key, self.merged.len());
                self.merged.push(value);
                false
            }
        }
    }

    /// The merged values, in first-seen key order.
    pub(crate) fn into_vec(self) -> Vec<T> {
        self.merged
    }
}

/// One shard: its directory plus the writer slot this handle owns.
struct Shard {
    dir: PathBuf,
    slot_index: usize,
    slot: ResponseStore,
}

enum Mode {
    /// Unsharded: the root directory *is* a single [`ResponseStore`]
    /// (backwards-compatible with every store written before sharding).
    /// Boxed: a store handle is far larger than the sharded variant.
    Single(Box<ResponseStore>),
    /// Sharded: `shard-KK/` directories, one owned writer slot each.
    Sharded { root: PathBuf, shards: Vec<Shard> },
}

/// A response store whose key space may be partitioned across several
/// independently locked segment directories (see the module docs).
///
/// The API mirrors [`ResponseStore`]; `zeroed-runtime`'s `StoreLayer` holds a
/// `ShardedStore` and is oblivious to the layout underneath.
pub struct ShardedStore {
    config: StoreConfig,
    mode: Mode,
}

impl std::fmt::Debug for ShardedStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedStore")
            .field("dir", &self.config.dir)
            .field("shards", &self.shard_count())
            .field("stats", &self.stats())
            .finish()
    }
}

impl ShardedStore {
    /// Opens (or creates) the store at `config.dir`.
    ///
    /// The layout is decided once, at creation: `config.shards > 1` on a
    /// fresh directory creates the sharded layout and records the count in
    /// [`META_FILE`]; every later open (whatever its config says) follows
    /// the recorded layout. A directory already holding flat `seg-*.zseg`
    /// files opens as a plain single-writer store.
    pub fn open(config: StoreConfig) -> io::Result<Self> {
        let root = PathBuf::from(&config.dir);
        std::fs::create_dir_all(&root)?;
        let shard_count = resolve_shard_count(&root, config.shards)?;
        if shard_count <= 1 {
            let store = ResponseStore::open(config.clone())?;
            return Ok(Self {
                config,
                mode: Mode::Single(Box::new(store)),
            });
        }
        let mut shards = Vec::with_capacity(shard_count);
        for k in 0..shard_count {
            let dir = root.join(format!("shard-{k:02}"));
            let (slot_index, slot) = claim_writer_slot(&dir, &config)?;
            shards.push(Shard {
                dir,
                slot_index,
                slot,
            });
        }
        Ok(Self {
            config,
            mode: Mode::Sharded { root, shards },
        })
    }

    /// Number of key-space shards (1 when unsharded).
    pub fn shard_count(&self) -> usize {
        match &self.mode {
            Mode::Single(_) => 1,
            Mode::Sharded { shards, .. } => shards.len(),
        }
    }

    /// Whether the on-disk layout is sharded.
    pub fn is_sharded(&self) -> bool {
        matches!(self.mode, Mode::Sharded { .. })
    }

    /// The writer-slot index this handle owns in each shard (empty when
    /// unsharded). Slot `k` of the result belongs to `shard-k`.
    pub fn owned_slots(&self) -> Vec<usize> {
        match &self.mode {
            Mode::Single(_) => Vec::new(),
            Mode::Sharded { shards, .. } => shards.iter().map(|s| s.slot_index).collect(),
        }
    }

    /// The store root directory.
    pub fn dir(&self) -> &Path {
        match &self.mode {
            Mode::Single(store) => store.dir(),
            Mode::Sharded { root, .. } => root,
        }
    }

    fn shard_of(&self, key: u128) -> usize {
        match &self.mode {
            Mode::Single(_) => 0,
            Mode::Sharded { shards, .. } => (key % shards.len() as u128) as usize,
        }
    }

    /// Appends (or supersedes) one record in the shard its key routes to.
    pub fn append(&self, record: &StoreRecord) -> io::Result<u64> {
        match &self.mode {
            Mode::Single(store) => store.append(record),
            Mode::Sharded { shards, .. } => shards[self.shard_of(record.key)].slot.append(record),
        }
    }

    /// Fetches the live record for `key`: the owned writer slot first, then
    /// a read-only scan of the shard's other slots.
    ///
    /// Note the asymmetry: the owned slot answers from its index (one frame
    /// read), but a miss there falls back to scanning the shard's foreign
    /// slots end to end — foreign slots belong to other live processes, so
    /// no index over them can stay fresh. Point lookups against a sharded
    /// store are therefore a tooling/test surface; the runtime's bulk path
    /// is [`ShardedStore::load_live`], which pays the foreign scan once for
    /// the whole preload.
    pub fn get(&self, key: u128) -> io::Result<Option<StoreRecord>> {
        match &self.mode {
            Mode::Single(store) => store.get(key),
            Mode::Sharded { shards, .. } => {
                let shard = &shards[self.shard_of(key)];
                if let Some(record) = shard.slot.get(key)? {
                    return Ok(Some(record));
                }
                let foreign = self.scan_foreign_slots(shard)?;
                Ok(foreign.into_iter().find(|r| r.key == key))
            }
        }
    }

    /// Loads every live record across all shards and writer slots — the
    /// warm-start preload path. Records from foreign slots (other processes'
    /// writers, past or present) are merged in by key; the owned slot wins
    /// conflicts, which is safe because identical keys hold identical
    /// content-addressed values.
    pub fn load_live(&self) -> io::Result<Vec<StoreRecord>> {
        match &self.mode {
            Mode::Single(store) => store.load_live(),
            Mode::Sharded { shards, .. } => {
                let mut merged = LastWriteWins::new();
                for shard in shards {
                    let foreign = self.scan_foreign_slots(shard)?;
                    let owned = shard.slot.load_live()?;
                    for record in foreign.into_iter().chain(owned) {
                        merged.insert(record.key, record);
                    }
                }
                Ok(merged.into_vec())
            }
        }
    }

    /// Read-only merge of every slot in `shard` except the owned one:
    /// segments scanned in `(slot, segment id, offset)` order, duplicate keys
    /// resolved to the latest position, expiry applied exactly as the owned
    /// slots apply it. Never locks, truncates or deletes anything.
    fn scan_foreign_slots(&self, shard: &Shard) -> io::Result<Vec<StoreRecord>> {
        let mut merged = LastWriteWins::new();
        let mut slots: Vec<(usize, PathBuf)> = list_writer_slots(&shard.dir)?;
        slots.retain(|(index, _)| *index != shard.slot_index);
        slots.sort_by_key(|(index, _)| *index);
        for (_, slot_dir) in slots {
            for record in scan_slot_read_only(&slot_dir, &self.config)? {
                merged.insert(record.key, record);
            }
        }
        Ok(merged.into_vec())
    }

    /// Aggregated recovery report across the owned writer slots.
    pub fn recovery(&self) -> RecoveryReport {
        match &self.mode {
            Mode::Single(store) => store.recovery(),
            Mode::Sharded { shards, .. } => {
                shards.iter().fold(RecoveryReport::default(), |acc, s| {
                    acc.merge(&s.slot.recovery())
                })
            }
        }
    }

    /// Aggregated counters across the owned writer slots. Foreign slots
    /// belong to other handles and report through *their* stores — in
    /// particular, TTL expiries of foreign records are *enforced* on every
    /// read here (expired records are never served) but *accounted* by the
    /// slot's owner when it next opens or compacts, so each expiry is
    /// counted exactly once fleet-wide rather than once per reader.
    pub fn stats(&self) -> StoreStats {
        match &self.mode {
            Mode::Single(store) => store.stats(),
            Mode::Sharded { shards, .. } => shards
                .iter()
                .fold(StoreStats::default(), |acc, s| acc.merge(&s.slot.stats())),
        }
    }

    /// Live records in the owned writer slots (foreign slots are not
    /// counted; use [`ShardedStore::load_live`] for the full merged view).
    pub fn len(&self) -> usize {
        match &self.mode {
            Mode::Single(store) => store.len(),
            Mode::Sharded { shards, .. } => shards.iter().map(|s| s.slot.len()).sum(),
        }
    }

    /// Whether the owned writer slots hold no live records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Compacts every owned writer slot.
    pub fn compact(&self) -> io::Result<()> {
        match &self.mode {
            Mode::Single(store) => store.compact(),
            Mode::Sharded { shards, .. } => {
                for shard in shards {
                    shard.slot.compact()?;
                }
                Ok(())
            }
        }
    }

    /// Runs the TTL sweep over every owned writer slot, returning the total
    /// number of expired records.
    pub fn gc(&self) -> io::Result<u64> {
        match &self.mode {
            Mode::Single(store) => store.gc(),
            Mode::Sharded { shards, .. } => {
                let mut expired = 0;
                for shard in shards {
                    expired += shard.slot.gc()?;
                }
                Ok(expired)
            }
        }
    }

    /// Durability barrier: fsyncs every owned slot's active segment.
    pub fn sync(&self) -> io::Result<()> {
        match &self.mode {
            Mode::Single(store) => store.sync(),
            Mode::Sharded { shards, .. } => {
                for shard in shards {
                    shard.slot.sync()?;
                }
                Ok(())
            }
        }
    }
}

/// Decides the shard count for `root`: the persisted [`META_FILE`] wins; a
/// directory already holding flat segments (or ever opened as a flat store)
/// is unsharded; otherwise the requested count is recorded and used.
///
/// The whole decision runs under an exclusive lock on `root/.layout.lock`,
/// and whichever layout is chosen leaves a durable marker before the lock
/// releases (`sharding.meta` for sharded, the flat store's `.lock` file for
/// unsharded). Without that, a flat opener and a sharded creator racing on
/// an empty directory could each pick a different layout — the sharded
/// creator would publish `sharding.meta`, and every flat segment the other
/// process then wrote would become silently unreachable behind it.
fn resolve_shard_count(root: &Path, requested: usize) -> io::Result<usize> {
    let layout_lock = std::fs::OpenOptions::new()
        .create(true)
        .write(true)
        .truncate(false)
        .open(root.join(".layout.lock"))?;
    layout_lock.lock()?;
    // Critical section (released when `layout_lock` drops).
    let meta = root.join(META_FILE);
    if let Some(count) = read_meta(&meta)? {
        return Ok(count);
    }
    let flat_marker = root.join(".lock");
    let has_flat_store = flat_marker.exists()
        || std::fs::read_dir(root)?.any(|entry| {
            entry
                .ok()
                .and_then(|e| e.file_name().to_str().and_then(parse_segment_file_name))
                .is_some()
        });
    if has_flat_store || requested <= 1 {
        // Legacy / unsharded layout: no meta file, root is the store. Leave
        // the flat store's lock file in place *now* so a sharded creator
        // that grabs the layout lock next already sees the decision, even
        // before the flat `ResponseStore::open` has run.
        let _ = std::fs::OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(false)
            .open(&flat_marker)?;
        return Ok(1);
    }
    std::fs::write(&meta, format!("shards={requested}\n"))?;
    Ok(requested)
}

pub(crate) fn read_meta(meta: &Path) -> io::Result<Option<usize>> {
    match std::fs::read_to_string(meta) {
        Ok(text) => {
            let count = text
                .lines()
                .find_map(|line| line.strip_prefix("shards="))
                .and_then(|v| v.trim().parse::<usize>().ok())
                .ok_or_else(|| {
                    io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("malformed {}: {text:?}", meta.display()),
                    )
                })?;
            Ok(Some(count.max(1)))
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(e),
    }
}

/// Claims the first writer slot in `shard_dir` whose advisory lock is free,
/// creating a new slot directory when every existing one is held by another
/// live process.
fn claim_writer_slot(shard_dir: &Path, config: &StoreConfig) -> io::Result<(usize, ResponseStore)> {
    std::fs::create_dir_all(shard_dir)?;
    for index in 0..MAX_WRITER_SLOTS {
        let slot_dir = shard_dir.join(writer_slot_name(index));
        let slot_config = StoreConfig {
            dir: slot_dir.to_string_lossy().into_owned(),
            shards: 1,
            ..config.clone()
        };
        match ResponseStore::open(slot_config) {
            Ok(store) => return Ok((index, store)),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => continue,
            Err(e) => return Err(e),
        }
    }
    Err(io::Error::new(
        io::ErrorKind::WouldBlock,
        format!(
            "all {MAX_WRITER_SLOTS} writer slots of {} are locked by live processes",
            shard_dir.display()
        ),
    ))
}

fn writer_slot_name(index: usize) -> String {
    format!("writer-{index:03}")
}

/// Parses a writer-slot index out of a directory name.
fn parse_writer_slot_name(name: &str) -> Option<usize> {
    name.strip_prefix("writer-")?.parse().ok()
}

/// Lists `(slot index, path)` for every writer slot under `shard_dir`.
pub(crate) fn list_writer_slots(shard_dir: &Path) -> io::Result<Vec<(usize, PathBuf)>> {
    let mut slots = Vec::new();
    let entries = match std::fs::read_dir(shard_dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(slots),
        Err(e) => return Err(e),
    };
    for entry in entries.flatten() {
        if let Some(index) = entry.file_name().to_str().and_then(parse_writer_slot_name) {
            slots.push((index, entry.path()));
        }
    }
    Ok(slots)
}

/// Scans one writer slot's segments without taking its lock or mutating
/// anything: segments in id order, duplicates resolved last-write-wins,
/// torn tails ending the affected segment early (another process may be
/// mid-append — its incomplete frame is simply not visible yet). Segment
/// files that vanish mid-scan (the owner compacted) are skipped; any record
/// missed in that race is recomputed by the caller's pipeline, never served
/// corrupted. Expired records are filtered but not counted — expiry
/// accounting belongs to the slot's owner (see [`ShardedStore::stats`]).
fn scan_slot_read_only(slot_dir: &Path, config: &StoreConfig) -> io::Result<Vec<StoreRecord>> {
    let mut segment_ids: Vec<u64> = match std::fs::read_dir(slot_dir) {
        Ok(entries) => entries
            .filter_map(|entry| {
                let entry = entry.ok()?;
                parse_segment_file_name(entry.file_name().to_str()?)
            })
            .collect(),
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e),
    };
    segment_ids.sort_unstable();

    let now = crate::codec::now_epoch();
    let mut merged = LastWriteWins::new();
    for id in segment_ids {
        let path = slot_dir.join(crate::segment::segment_file_name(id));
        let bytes = match std::fs::read(&path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => continue,
            Err(e) => return Err(e),
        };
        let scan = scan_segment(&bytes);
        for scanned in scan.records {
            if config.gc && expired_at(config.ttl_secs, scanned.record.epoch, now) {
                continue;
            }
            merged.insert(scanned.record.key, scanned.record);
        }
    }
    Ok(merged.into_vec())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::now_epoch;
    use std::sync::atomic::{AtomicU32, Ordering};
    use zeroed_llm::Response;

    static DIR_COUNTER: AtomicU32 = AtomicU32::new(0);

    fn temp_dir() -> PathBuf {
        let n = DIR_COUNTER.fetch_add(1, Ordering::SeqCst);
        let dir =
            std::env::temp_dir().join(format!("zeroed-shard-unit-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn record(key: u128) -> StoreRecord {
        StoreRecord {
            key,
            input_tokens: 10 + key as u64,
            output_tokens: key as u64,
            epoch: now_epoch(),
            value: Response::Values(vec![format!("v{key}")]),
        }
    }

    fn sharded_config(dir: &Path, shards: usize) -> StoreConfig {
        StoreConfig::new(dir.to_str().unwrap()).with_shards(shards)
    }

    #[test]
    fn keys_partition_across_shard_directories() {
        let dir = temp_dir();
        let store = ShardedStore::open(sharded_config(&dir, 4)).unwrap();
        assert!(store.is_sharded());
        assert_eq!(store.shard_count(), 4);
        for key in 0..32u128 {
            store.append(&record(key)).unwrap();
        }
        assert_eq!(store.len(), 32);
        for k in 0..4 {
            let shard_dir = dir.join(format!("shard-{k:02}"));
            assert!(
                shard_dir.join("writer-000").is_dir(),
                "shard {k} has a slot"
            );
        }
        // Every record is found through the routed lookup.
        for key in 0..32u128 {
            let got = store.get(key).unwrap().unwrap();
            assert_eq!(got.input_tokens, 10 + key as u64);
        }
        assert!(store.get(999).unwrap().is_none());
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_handles_claim_distinct_slots_and_merge_on_read() {
        let dir = temp_dir();
        let a = ShardedStore::open(sharded_config(&dir, 2)).unwrap();
        // A second handle on the same root must not be refused (the whole
        // point of sharded writers) — it claims the next slot per shard.
        let b = ShardedStore::open(sharded_config(&dir, 2)).unwrap();
        assert_eq!(a.owned_slots(), vec![0, 0]);
        assert_eq!(b.owned_slots(), vec![1, 1]);
        for key in 0..10u128 {
            a.append(&record(key)).unwrap();
        }
        for key in 10..20u128 {
            b.append(&record(key)).unwrap();
        }
        // Each handle sees its own records *and* the other writer's.
        for key in 0..20u128 {
            assert!(a.get(key).unwrap().is_some(), "a must see key {key}");
            assert!(b.get(key).unwrap().is_some(), "b must see key {key}");
        }
        assert_eq!(a.load_live().unwrap().len(), 20);
        assert_eq!(b.load_live().unwrap().len(), 20);
        // Per-handle stats stay attributable to the handle's own slots.
        assert_eq!(a.stats().appended_records, 10);
        assert_eq!(b.stats().appended_records, 10);
        drop(a);
        drop(b);
        // A fresh handle reclaims slot 0 and still reads everything.
        let c = ShardedStore::open(sharded_config(&dir, 2)).unwrap();
        assert_eq!(c.owned_slots(), vec![0, 0]);
        assert_eq!(c.load_live().unwrap().len(), 20);
        drop(c);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shard_count_is_pinned_by_the_meta_file() {
        let dir = temp_dir();
        let store = ShardedStore::open(sharded_config(&dir, 3)).unwrap();
        for key in 0..9u128 {
            store.append(&record(key)).unwrap();
        }
        drop(store);
        // Re-opening with a *different* requested count follows the recorded
        // layout — otherwise the key→shard mapping would orphan every record.
        let store = ShardedStore::open(sharded_config(&dir, 8)).unwrap();
        assert_eq!(store.shard_count(), 3);
        for key in 0..9u128 {
            assert!(store.get(key).unwrap().is_some());
        }
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unsharded_directories_keep_their_flat_layout() {
        let dir = temp_dir();
        // A legacy store created by ResponseStore directly (flat segments).
        {
            let store = ResponseStore::open(StoreConfig::new(dir.to_str().unwrap())).unwrap();
            store.append(&record(1)).unwrap();
        }
        // Opening through ShardedStore with shards requested must not convert
        // the layout (the flat segments would become unreachable).
        let store = ShardedStore::open(sharded_config(&dir, 4)).unwrap();
        assert!(!store.is_sharded());
        assert_eq!(store.shard_count(), 1);
        assert!(store.get(1).unwrap().is_some());
        assert!(!dir.join(META_FILE).exists());
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_flat_opener_pins_the_layout_before_writing_any_segment() {
        // The bootstrap race: a flat store is *open* (no segments appended
        // yet) when a sharded creator arrives. The creator must not publish
        // a sharded layout over it — the flat writer's future segments would
        // become unreachable behind sharding.meta.
        let dir = temp_dir();
        let flat = ShardedStore::open(sharded_config(&dir, 1)).unwrap();
        let err = ShardedStore::open(sharded_config(&dir, 4)).unwrap_err();
        assert_eq!(
            err.kind(),
            io::ErrorKind::WouldBlock,
            "the root is a live flat store; refuse rather than re-layout"
        );
        assert!(
            !dir.join(META_FILE).exists(),
            "no sharded layout was created"
        );
        flat.append(&record(1)).unwrap();
        drop(flat);
        // Even after the flat store closes with zero-or-more segments, the
        // layout stays pinned flat (its .lock file is the durable marker).
        let reopened = ShardedStore::open(sharded_config(&dir, 4)).unwrap();
        assert!(!reopened.is_sharded());
        assert!(reopened.get(1).unwrap().is_some());
        drop(reopened);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shards_one_behaves_exactly_like_a_plain_store() {
        let dir = temp_dir();
        let store = ShardedStore::open(sharded_config(&dir, 1)).unwrap();
        assert!(!store.is_sharded());
        store.append(&record(5)).unwrap();
        assert_eq!(store.load_live().unwrap().len(), 1);
        // Single-writer semantics still hold for the unsharded layout.
        let err = ShardedStore::open(sharded_config(&dir, 1)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WouldBlock);
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn foreign_slot_scans_tolerate_a_torn_tail() {
        let dir = temp_dir();
        let a = ShardedStore::open(sharded_config(&dir, 2)).unwrap();
        let b = ShardedStore::open(sharded_config(&dir, 2)).unwrap();
        for key in 0..6u128 {
            b.append(&record(key)).unwrap();
        }
        b.sync().unwrap();
        drop(b);
        // Tear the tail of one of b's segments (as if b died mid-append).
        let mut torn_any = false;
        for k in 0..2 {
            let slot = dir.join(format!("shard-{k:02}")).join("writer-001");
            for entry in std::fs::read_dir(&slot).unwrap().flatten() {
                let path = entry.path();
                if path.extension().is_some_and(|e| e == "zseg") {
                    let bytes = std::fs::read(&path).unwrap();
                    if bytes.len() > 40 {
                        std::fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();
                        torn_any = true;
                    }
                    break;
                }
            }
        }
        assert!(torn_any);
        // a still reads: intact records survive, torn ones are just absent,
        // and the foreign slot's files are not modified by the scan.
        let live = a.load_live().unwrap();
        assert!(!live.is_empty() && live.len() < 6);
        drop(a);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn ttl_applies_to_foreign_slots_too() {
        let dir = temp_dir();
        let now = now_epoch();
        let fresh_config = sharded_config(&dir, 2);
        let stale = StoreRecord {
            epoch: now.saturating_sub(10_000),
            ..record(3)
        };
        {
            let a = ShardedStore::open(fresh_config.clone()).unwrap();
            let b = ShardedStore::open(fresh_config.clone()).unwrap();
            b.append(&stale).unwrap();
            b.append(&record(4)).unwrap();
            drop(b);
            drop(a);
        }
        let ttl_config = fresh_config.with_ttl_secs(3_600);
        let c = ShardedStore::open(ttl_config).unwrap();
        // c owns slot 0 (empty); b's records are foreign. The stale one is
        // filtered by the same TTL the owned slots enforce.
        let live = c.load_live().unwrap();
        assert_eq!(live.len(), 1);
        assert_eq!(live[0].key, 4);
        assert!(c.get(3).unwrap().is_none());
        drop(c);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
