//! Segment files: versioned headers, sequential record frames and the
//! recovery scan.
//!
//! A segment is an append-only file `seg-NNNNNN.zseg`:
//!
//! ```text
//! ┌──────────────────────────── header (28 bytes) ────────────────────────────┐
//! │ magic "ZEDSTOR1" │ format u16 │ key schema u16 │ segment id u64 │ cksum u64│
//! └───────────────────────────────────────────────────────────────────────────┘
//! ┌── record frame ──┐┌── record frame ──┐ ...
//! │ len u32 │ cksum u64 │ payload (len bytes) │
//! └──────────────────┘
//! ```
//!
//! The recovery scan walks frames front to back and stops at the first
//! inconsistency — a frame that runs past the end of the file (torn tail), a
//! checksum mismatch (bit rot / partial write) or a payload that fails to
//! decode. Everything before that point is recovered; everything after is
//! reported as discarded and the caller truncates the file at the boundary.
//! A segment whose header is damaged or whose versions do not match is
//! skipped wholesale — recovery never refuses to open a store.

use crate::codec::{
    checksum64, decode_payload, StoreRecord, FORMAT_VERSION, FRAME_PREFIX_LEN, KEY_SCHEMA_VERSION,
    MIN_READ_FORMAT_VERSION,
};

/// Magic bytes opening every segment file.
pub const MAGIC: [u8; 8] = *b"ZEDSTOR1";

/// Byte length of the segment header.
pub const HEADER_LEN: usize = 28;

/// Renders the file name of segment `id`.
pub fn segment_file_name(id: u64) -> String {
    format!("seg-{id:06}.zseg")
}

/// Parses a segment id back out of a file name produced by
/// [`segment_file_name`].
pub fn parse_segment_file_name(name: &str) -> Option<u64> {
    let stem = name.strip_prefix("seg-")?.strip_suffix(".zseg")?;
    stem.parse().ok()
}

/// Encodes a segment header for segment `id` at the current format and key
/// schema versions.
pub fn encode_header(id: u64) -> [u8; HEADER_LEN] {
    let mut out = [0u8; HEADER_LEN];
    out[0..8].copy_from_slice(&MAGIC);
    out[8..10].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
    out[10..12].copy_from_slice(&KEY_SCHEMA_VERSION.to_le_bytes());
    out[12..20].copy_from_slice(&id.to_le_bytes());
    let checksum = checksum64(&out[0..20]);
    out[20..28].copy_from_slice(&checksum.to_le_bytes());
    out
}

/// Why a segment's contents were not usable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HeaderIssue {
    /// File shorter than a header.
    TooShort,
    /// Magic bytes wrong (not a segment file / first sector lost).
    BadMagic,
    /// Header checksum mismatch.
    BadChecksum,
    /// Format version outside the range this build can read
    /// (`MIN_READ_FORMAT_VERSION..=FORMAT_VERSION`).
    FormatVersion,
    /// Key-schema version is not the one this build's request keys follow
    /// (entries would be unreachable or, worse, wrongly reachable).
    KeySchemaVersion,
}

/// Validates a segment header, returning the encoded segment id and the
/// format version its frames were written at (any version in
/// `MIN_READ_FORMAT_VERSION..=FORMAT_VERSION` is readable — older formats
/// decode through their original frame layout).
pub fn decode_header(bytes: &[u8]) -> Result<(u64, u16), HeaderIssue> {
    if bytes.len() < HEADER_LEN {
        return Err(HeaderIssue::TooShort);
    }
    if bytes[0..8] != MAGIC {
        return Err(HeaderIssue::BadMagic);
    }
    let stored = u64::from_le_bytes(bytes[20..28].try_into().unwrap());
    if stored != checksum64(&bytes[0..20]) {
        return Err(HeaderIssue::BadChecksum);
    }
    let format = u16::from_le_bytes(bytes[8..10].try_into().unwrap());
    if !(MIN_READ_FORMAT_VERSION..=FORMAT_VERSION).contains(&format) {
        return Err(HeaderIssue::FormatVersion);
    }
    let key_schema = u16::from_le_bytes(bytes[10..12].try_into().unwrap());
    if key_schema != KEY_SCHEMA_VERSION {
        return Err(HeaderIssue::KeySchemaVersion);
    }
    Ok((
        u64::from_le_bytes(bytes[12..20].try_into().unwrap()),
        format,
    ))
}

/// One recovered record and where its frame starts in the segment.
#[derive(Debug)]
pub struct ScannedRecord {
    /// Byte offset of the frame (length prefix) within the segment file.
    pub offset: u64,
    /// Total frame length in bytes (prefix + payload).
    pub frame_len: u32,
    /// The decoded record.
    pub record: StoreRecord,
}

/// Outcome of scanning one segment's bytes.
#[derive(Debug)]
pub struct SegmentScan {
    /// Format version the segment's frames were written at (0 when the
    /// header was unusable).
    pub format: u16,
    /// Records recovered, in file order.
    pub records: Vec<ScannedRecord>,
    /// Byte length of the valid prefix (header + recovered frames). When
    /// shorter than the file, the caller truncates to this length.
    pub valid_len: u64,
    /// Bytes past the valid prefix (the torn/corrupt tail).
    pub discarded_bytes: u64,
    /// Whether a corrupt tail was found (`discarded_bytes` may be zero for a
    /// frame torn exactly at its length prefix).
    pub torn: bool,
    /// Header problem, if the segment was skipped wholesale.
    pub header_issue: Option<HeaderIssue>,
}

/// Scans a full segment image, recovering the longest valid record prefix.
/// Frames are decoded at the format version the header declares, so v1
/// segments (no per-record epoch) recover exactly.
pub fn scan_segment(bytes: &[u8]) -> SegmentScan {
    let format = match decode_header(bytes) {
        Ok((_, format)) => format,
        Err(issue) => {
            return SegmentScan {
                format: 0,
                records: Vec::new(),
                valid_len: 0,
                discarded_bytes: bytes.len() as u64,
                torn: !bytes.is_empty(),
                header_issue: Some(issue),
            };
        }
    };
    let mut records = Vec::new();
    let mut pos = HEADER_LEN;
    loop {
        if pos == bytes.len() {
            // Clean end of segment.
            return SegmentScan {
                format,
                records,
                valid_len: pos as u64,
                discarded_bytes: 0,
                torn: false,
                header_issue: None,
            };
        }
        let frame_ok = (|| {
            if bytes.len() - pos < FRAME_PREFIX_LEN {
                return None; // torn inside the prefix
            }
            let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
            let checksum = u64::from_le_bytes(bytes[pos + 4..pos + 12].try_into().unwrap());
            let start = pos + FRAME_PREFIX_LEN;
            if bytes.len() - start < len {
                return None; // torn inside the payload
            }
            let payload = &bytes[start..start + len];
            if checksum64(payload) != checksum {
                return None; // bit rot / partial overwrite
            }
            let record = decode_payload(payload, format).ok()?;
            Some(ScannedRecord {
                offset: pos as u64,
                frame_len: (FRAME_PREFIX_LEN + len) as u32,
                record,
            })
        })();
        match frame_ok {
            Some(scanned) => {
                pos += scanned.frame_len as usize;
                records.push(scanned);
            }
            None => {
                return SegmentScan {
                    format,
                    records,
                    valid_len: pos as u64,
                    discarded_bytes: (bytes.len() - pos) as u64,
                    torn: true,
                    header_issue: None,
                };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::encode_record;
    use zeroed_llm::Response;

    fn record(key: u128, flag: bool) -> StoreRecord {
        StoreRecord {
            key,
            input_tokens: 10,
            output_tokens: 2,
            epoch: 1_000 + key as u64,
            value: Response::Flags(vec![flag]),
        }
    }

    fn segment_with(records: &[StoreRecord]) -> Vec<u8> {
        let mut bytes = encode_header(7).to_vec();
        for r in records {
            bytes.extend_from_slice(&encode_record(r));
        }
        bytes
    }

    #[test]
    fn header_round_trips_and_rejects_tampering() {
        let header = encode_header(42);
        assert_eq!(decode_header(&header), Ok((42, FORMAT_VERSION)));
        assert_eq!(decode_header(&header[..10]), Err(HeaderIssue::TooShort));
        let mut bad_magic = header;
        bad_magic[0] ^= 0xff;
        assert_eq!(decode_header(&bad_magic), Err(HeaderIssue::BadMagic));
        let mut bad_id = encode_header(42);
        bad_id[12] ^= 1; // id changed without re-checksumming
        assert_eq!(decode_header(&bad_id), Err(HeaderIssue::BadChecksum));
    }

    #[test]
    fn version_mismatches_are_detected() {
        let mut wrong_format = encode_header(1);
        wrong_format[8..10].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
        let checksum = checksum64(&wrong_format[0..20]);
        wrong_format[20..28].copy_from_slice(&checksum.to_le_bytes());
        assert_eq!(
            decode_header(&wrong_format),
            Err(HeaderIssue::FormatVersion)
        );

        let mut wrong_schema = encode_header(1);
        wrong_schema[10..12].copy_from_slice(&(KEY_SCHEMA_VERSION + 1).to_le_bytes());
        let checksum = checksum64(&wrong_schema[0..20]);
        wrong_schema[20..28].copy_from_slice(&checksum.to_le_bytes());
        assert_eq!(
            decode_header(&wrong_schema),
            Err(HeaderIssue::KeySchemaVersion)
        );
    }

    /// Builds a v1 segment image: v1 header plus frames whose payloads carry
    /// no epoch (the 8 bytes at offset 32..40 of a v2 payload spliced out).
    fn v1_segment_with(records: &[StoreRecord]) -> Vec<u8> {
        let mut header = encode_header(3);
        header[8..10].copy_from_slice(&1u16.to_le_bytes());
        let checksum = checksum64(&header[0..20]);
        header[20..28].copy_from_slice(&checksum.to_le_bytes());
        let mut bytes = header.to_vec();
        for r in records {
            let v2 = crate::codec::encode_payload(r);
            let mut v1 = v2[..32].to_vec();
            v1.extend_from_slice(&v2[40..]);
            bytes.extend_from_slice(&(v1.len() as u32).to_le_bytes());
            bytes.extend_from_slice(&checksum64(&v1).to_le_bytes());
            bytes.extend_from_slice(&v1);
        }
        bytes
    }

    #[test]
    fn v1_segments_scan_with_epoch_zero() {
        let bytes = v1_segment_with(&[record(1, true), record(2, false)]);
        let scan = scan_segment(&bytes);
        assert_eq!(scan.header_issue, None, "v1 headers stay readable");
        assert_eq!(scan.format, 1);
        assert!(!scan.torn);
        assert_eq!(scan.records.len(), 2);
        for (i, scanned) in scan.records.iter().enumerate() {
            assert_eq!(scanned.record.key, i as u128 + 1);
            assert_eq!(scanned.record.epoch, 0, "v1 records decode as epoch 0");
        }
        // A torn v1 tail truncates exactly like a v2 one.
        let torn = scan_segment(&bytes[..bytes.len() - 3]);
        assert!(torn.torn);
        assert_eq!(torn.records.len(), 1);
    }

    #[test]
    fn scan_recovers_all_records_from_a_clean_segment() {
        let bytes = segment_with(&[record(1, true), record(2, false), record(3, true)]);
        let scan = scan_segment(&bytes);
        assert!(!scan.torn);
        assert_eq!(scan.records.len(), 3);
        assert_eq!(scan.valid_len, bytes.len() as u64);
        assert_eq!(scan.records[1].record.key, 2);
    }

    #[test]
    fn scan_truncates_at_a_torn_tail() {
        let full = segment_with(&[record(1, true), record(2, false)]);
        let second_frame_at = scan_segment(&full).records[1].offset as usize;
        // Cut mid-way through the second frame: only the first survives.
        for cut in second_frame_at + 1..full.len() {
            let scan = scan_segment(&full[..cut]);
            assert!(scan.torn, "cut at {cut}");
            assert_eq!(scan.records.len(), 1, "cut at {cut}");
            assert_eq!(scan.valid_len as usize, second_frame_at, "cut at {cut}");
            assert_eq!(scan.discarded_bytes as usize, cut - second_frame_at);
        }
    }

    #[test]
    fn scan_stops_at_a_flipped_bit() {
        let full = segment_with(&[record(1, true), record(2, false), record(3, true)]);
        let second_frame_at = scan_segment(&full).records[1].offset as usize;
        let mut corrupt = full.clone();
        corrupt[second_frame_at + FRAME_PREFIX_LEN + 3] ^= 0x40;
        let scan = scan_segment(&corrupt);
        assert!(scan.torn);
        assert_eq!(scan.records.len(), 1, "records after the flip are lost");
        assert_eq!(scan.valid_len as usize, second_frame_at);
    }

    #[test]
    fn scan_skips_segments_with_broken_headers() {
        assert_eq!(
            scan_segment(&[]).header_issue,
            Some(HeaderIssue::TooShort),
            "zero-length segment"
        );
        let scan = scan_segment(b"garbage that is long enough to not be short");
        assert_eq!(scan.header_issue, Some(HeaderIssue::BadMagic));
        assert_eq!(scan.records.len(), 0);
    }

    #[test]
    fn file_names_round_trip() {
        assert_eq!(segment_file_name(7), "seg-000007.zseg");
        assert_eq!(parse_segment_file_name("seg-000007.zseg"), Some(7));
        assert_eq!(parse_segment_file_name("seg-1000000.zseg"), Some(1_000_000));
        assert_eq!(parse_segment_file_name("seg-x.zseg"), None);
        assert_eq!(parse_segment_file_name("other.bin"), None);
    }
}
