//! # zeroed-store
//!
//! Crash-safe, versioned, append-only persistence of completed LLM responses
//! keyed by `zeroed-runtime`'s 128-bit `RequestKey` — the cross-process warm
//! start underneath the in-memory `ResponseCache`.
//!
//! ZeroED's dominant cost is the LLM reasoning stage: criteria analysis,
//! guideline generation and batch labelling re-issue largely identical
//! prompts when a detection is run again. The runtime already dedups those
//! calls *in-process*; this crate persists every published response so a
//! *later process* can replay them and skip the model entirely.
//!
//! ## Quickstart
//!
//! Open → append → reopen → load the live records (what a warm-starting
//! detector does through `zeroed-runtime`'s `StoreLayer`):
//!
//! ```
//! use zeroed_llm::Response;
//! use zeroed_store::{now_epoch, ResponseStore, StoreConfig, StoreRecord};
//!
//! let dir = std::env::temp_dir().join(format!("zeroed-store-doc-{}", std::process::id()));
//! let _ = std::fs::remove_dir_all(&dir);
//! let config = StoreConfig::new(dir.to_str().unwrap());
//!
//! // First process: append responses, then exit (drop syncs per policy).
//! {
//!     let store = ResponseStore::open(config.clone())?;
//!     store.append(&StoreRecord {
//!         key: 0x0123_4567_89ab_cdef,          // RequestKey::to_u128()
//!         input_tokens: 321,
//!         output_tokens: 13,
//!         epoch: now_epoch(),                  // written-at, printed by the tool
//!         value: Response::Flags(vec![true, false]),
//!     })?;
//! }
//!
//! // Second process: recovery scans the segments, then replays everything.
//! let store = ResponseStore::open(config)?;
//! assert_eq!(store.recovery().records_recovered, 1);
//! let live = store.load_live()?;
//! assert_eq!(live.len(), 1);
//! assert_eq!(live[0].input_tokens, 321);
//! # drop(store);
//! # let _ = std::fs::remove_dir_all(&dir);
//! # Ok::<(), std::io::Error>(())
//! ```
//!
//! ## Layout
//!
//! A store is a directory of numbered segment files:
//!
//! ```text
//! store-dir/
//!   .lock                the single-writer advisory lock
//!   seg-000000.zseg      sealed segment (earlier generation)
//!   seg-000001.zseg      sealed segment
//!   seg-000002.zseg      active segment (this process appends here)
//!
//! segment file:
//! ┌──────────────────────────── header (28 bytes) ────────────────────────────┐
//! │ magic "ZEDSTOR1" │ format u16 │ key schema u16 │ segment id u64 │ cksum u64│
//! ├──────────────────────────── record frames ────────────────────────────────┤
//! │ len u32 │ checksum u64 │ payload: key u128 · tokens 2×u64 · epoch · value │
//! │ len u32 │ checksum u64 │ payload                                          │
//! │ ...                                                                       │
//! └───────────────────────────────────────────────────────────────────────────┘
//! ```
//!
//! Records are length-prefixed and content-checksummed ([`codec::checksum64`]
//! over the payload, which starts with the request key). Appending the same
//! key again *supersedes* the earlier record: readers resolve duplicates to
//! the highest `(segment id, offset)`, which makes last-write-wins hold
//! across crashes and half-finished compactions.
//!
//! ## Crash safety
//!
//! Recovery ([`ResponseStore::open`]) scans segments in id order and
//! tolerates arbitrary damage without refusing to open:
//!
//! * a **torn tail** (partial final write) is truncated at the first bad
//!   frame — the valid prefix is recovered exactly;
//! * a **flipped bit** fails the frame checksum and truncates the same way;
//! * a **zero-length or foreign file** fails header validation and is skipped
//!   wholesale (reclaimed at the next compaction);
//! * a **crash mid-compaction** leaves both generations on disk; the new one
//!   has higher segment ids, so duplicate resolution serves its records, and
//!   a torn new generation simply falls back to the still-present old one.
//!
//! Appends always go to a *fresh* segment (never a recovered tail), so one
//! damaged run cannot poison the next. The [`FsyncPolicy`] decides when data
//! is forced to disk: per record, or on segment seal.
//!
//! ## Versioning rules
//!
//! The header pins two versions, checked on open:
//!
//! * [`FORMAT_VERSION`] — the byte layout of headers, frames and values.
//!   Formats back to [`MIN_READ_FORMAT_VERSION`] stay *readable* (a v1
//!   segment's epoch-less frames decode with epoch 0); anything outside that
//!   range is skipped and preserved on disk for the build that wrote it (a
//!   warm start degrades to a cold run, never to garbage).
//! * [`KEY_SCHEMA_VERSION`] — the `RequestKey` derivation scheme, frozen by
//!   the golden-key suite in `crates/runtime/tests/request_key_golden.rs`. If
//!   key derivation changes *intentionally*, bump this constant together with
//!   the golden values: persisted entries keyed under the old scheme must not
//!   be consulted by a process hashing under the new one.
//!
//! `zeroed-runtime` asserts both constants alongside its golden keys, so a
//! drive-by change to either contract fails CI.
//!
//! ## Compaction
//!
//! Superseded records are dead weight. When the dead-to-live ratio crosses
//! [`StoreConfig::compact_threshold`], the store rewrites every live record
//! into a fresh generation (fsynced before any old file is deleted) and
//! removes the previous segments.
//!
//! ## One writer
//!
//! A store directory has one writer at a time: an advisory lock on `.lock`
//! turns a second [`ResponseStore::open`] into an immediate `WouldBlock`
//! error instead of two writers racing segment ids. Clones of one detector
//! share its store. A root that an older build laid out in shards (it holds
//! `sharding.meta`) is refused with `Unsupported` and left untouched, never
//! opened as an empty store.
//!
//! ## Inspection
//!
//! The `zeroed-store-tool` binary (`stat` / `ls` / `verify`, backed by the
//! [`inspect`](mod@inspect) module) answers "what is in this store and is it intact?"
//! without booting a detector — and without taking the lock, truncating tails
//! or deleting files, so it is safe against a store a detector has open.

pub mod codec;
pub mod inspect;
pub mod segment;
pub mod store;

pub use codec::{
    canonical_criteria, checksum64, now_epoch, DecodeError, StoreRecord, FORMAT_VERSION,
    KEY_SCHEMA_VERSION, MIN_READ_FORMAT_VERSION,
};
pub use inspect::{inspect, verify, InspectReport, LiveEntry, SegmentReport, VerifyIssue};
pub use segment::{HeaderIssue, HEADER_LEN, MAGIC};
pub use store::{FsyncPolicy, RecoveryReport, ResponseStore, StoreConfig, StoreStats};
