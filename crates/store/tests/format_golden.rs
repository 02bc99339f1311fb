//! Byte-pinned golden encodings of the on-disk format.
//!
//! The same discipline `crates/runtime/tests/request_key_golden.rs` applies
//! to key derivation: a store written by one build must be readable by every
//! later build, so the exact bytes of segment headers and record frames are
//! frozen here. If a test fails because the encoding changed *intentionally*,
//! bump [`zeroed_store::FORMAT_VERSION`] (old segments are then decoded
//! through their original layout, or skipped when out of the readable range)
//! and update the golden bytes.
//!
//! Two generations are pinned:
//!
//! * **v2** (current) — frames carry a written-at epoch between the token
//!   counts and the value.
//! * **v1** (read-compat) — the exact bytes PR 4 shipped. These must keep
//!   decoding forever (with epoch 0), because stores written by those builds
//!   are still on disk.

use zeroed_llm::Response;
use zeroed_store::codec::{decode_payload, encode_record};
use zeroed_store::segment::{decode_header, encode_header};
use zeroed_store::{
    checksum64, StoreRecord, FORMAT_VERSION, KEY_SCHEMA_VERSION, MIN_READ_FORMAT_VERSION,
};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(s: &str) -> Vec<u8> {
    let clean: String = s.chars().filter(|c| !c.is_whitespace()).collect();
    clean
        .as_bytes()
        .chunks(2)
        .map(|pair| u8::from_str_radix(std::str::from_utf8(pair).unwrap(), 16).unwrap())
        .collect()
}

#[test]
fn format_versions_are_pinned() {
    // All three constants participate in the golden bytes below; bump them
    // (and the bytes) together, never silently.
    assert_eq!(FORMAT_VERSION, 2);
    assert_eq!(MIN_READ_FORMAT_VERSION, 1);
    assert_eq!(KEY_SCHEMA_VERSION, 1);
}

#[test]
fn golden_checksums() {
    assert_eq!(checksum64(b""), 0xe220a8397b1dcdaf);
    assert_eq!(checksum64(b"abc"), 0xabe04960c15641ca);
    assert_eq!(checksum64(b"ZEDSTOR1"), 0x6f2e9ded3c0dd572);
}

#[test]
fn golden_segment_header_bytes() {
    // magic "ZEDSTOR1" · format v2 · key schema v1 · segment id 7 · checksum.
    assert_eq!(
        hex(&encode_header(7)),
        "5a454453544f523102000100070000000000000091c2bb74209938c9"
    );
}

#[test]
fn golden_flags_record_frame() {
    // The key is one of the golden RequestKey values pinned in
    // `crates/runtime/tests/request_key_golden.rs` — the exact 128 bits a
    // warm-starting process will derive and look up.
    let record = StoreRecord {
        key: 0xc4020b2ae9c1fd7d505b58fa7c24e6d0,
        input_tokens: 321,
        output_tokens: 13,
        epoch: 1_753_000_000,
        value: Response::Flags(vec![true, false, true, true]),
    };
    assert_eq!(
        hex(&encode_record(&record)),
        // len=0x31 · checksum · key hi/lo LE · tokens · epoch · tag 4 · 4 bools
        "3100000093fec8ff398a2bb67dfdc1e92a0b02c4d0e6247cfa585b50\
         41010000000000000d0000000000000040a87c6800000000040400000001000101"
    );
}

#[test]
fn golden_values_record_frame() {
    let record = StoreRecord {
        key: 0x0123456789abcdef_fedcba9876543210,
        input_tokens: 7,
        output_tokens: 2,
        epoch: 0,
        value: Response::Values(vec!["ab".into(), "c".into()]),
    };
    assert_eq!(
        hex(&encode_record(&record)),
        "38000000e9e2649bf244d2dbefcdab89674523011032547698badcfe\
         07000000000000000200000000000000000000000000000005020000000200000061620100000063"
    );
}

// ---------------------------------------------------------------------------
// v1 read-compat: the exact bytes the v1 builds wrote, frozen forever.
// ---------------------------------------------------------------------------

/// The v1 segment header golden from PR 4. Its format field says 1, which is
/// within the readable range — `decode_header` must accept it and report the
/// format so frames decode through the v1 layout.
#[test]
fn v1_segment_headers_remain_readable() {
    let v1_header = unhex("5a454453544f52310100010007000000000000005a814abe547fccd1");
    assert_eq!(decode_header(&v1_header), Ok((7, 1)));
}

/// The v1 flags-record golden from PR 4 (no epoch in the payload). It must
/// decode byte-for-byte to the same record, with epoch 0.
#[test]
fn v1_record_frames_remain_readable() {
    let v1_frame = unhex(
        "29000000024479172e84ea9f7dfdc1e92a0b02c4d0e6247cfa585b50\
         41010000000000000d00000000000000040400000001000101",
    );
    let len = u32::from_le_bytes(v1_frame[0..4].try_into().unwrap()) as usize;
    let stored = u64::from_le_bytes(v1_frame[4..12].try_into().unwrap());
    let payload = &v1_frame[12..];
    assert_eq!(payload.len(), len);
    assert_eq!(
        checksum64(payload),
        stored,
        "v1 frame checksums still verify"
    );
    let record = decode_payload(payload, 1).unwrap();
    assert_eq!(record.key, 0xc4020b2ae9c1fd7d505b58fa7c24e6d0);
    assert_eq!(record.input_tokens, 321);
    assert_eq!(record.output_tokens, 13);
    assert_eq!(record.epoch, 0, "v1 records carry no epoch");
    match record.value {
        Response::Flags(f) => assert_eq!(f, vec![true, false, true, true]),
        other => panic!("wrong variant: {other:?}"),
    }
}
