//! The on-disk binary codec: primitives, response values and record frames.
//!
//! Everything is little-endian and length-prefixed. Unordered collections
//! (`HashSet` / `HashMap` fields inside criteria) are sorted before encoding
//! so that the same logical value always produces the same bytes — the
//! byte-pinned golden tests in `tests/format_golden.rs` rely on this, and so
//! does checksum verification on recovery.
//!
//! Decoding is defensive: every read is bounds-checked and every enum tag is
//! validated, returning [`DecodeError`] instead of panicking, because decode
//! failures are how segment recovery detects torn or corrupted tails.

use std::collections::{HashMap, HashSet};
use zeroed_criteria::{Check, CriteriaSet, Criterion};
use zeroed_llm::{DistributionAnalysis, ErrorTypeGuide, Guideline, Response};
use zeroed_table::ErrorType;

/// Version of the byte layout described in this module. Bump when the
/// encoding of headers, frames or values changes incompatibly.
///
/// History:
///
/// * **v1** — original layout: record payloads carry `key · tokens · value`.
/// * **v2** — payloads additionally carry a coarse *written-at epoch*
///   (seconds since the Unix epoch, between the token counts and the value).
///   v1 segments remain fully readable: their records decode with epoch 0
///   ("no timestamp").
pub const FORMAT_VERSION: u16 = 2;

/// The oldest format version this build can still *read*. Segments between
/// [`MIN_READ_FORMAT_VERSION`] and [`FORMAT_VERSION`] are decoded with the
/// corresponding frame layout; anything outside the range is skipped
/// wholesale (and preserved on disk for the build that wrote it).
pub const MIN_READ_FORMAT_VERSION: u16 = 1;

/// Version of the `RequestKey` derivation scheme (`zeroed-runtime`'s
/// 128-bit content-addressed request identity) the store is pinned against.
/// The golden-key suite
/// (`crates/runtime/tests/request_key_golden.rs`) freezes exact 128-bit key
/// values; if key derivation changes intentionally, every persisted entry is
/// unreachable under the new keys, so this constant must be bumped together
/// with the golden values — segments written under a different key schema are
/// skipped on open instead of serving stale entries.
pub const KEY_SCHEMA_VERSION: u16 = 1;

/// One persisted response: the 128-bit request key, the token cost the
/// original call charged (replayed as savings on a warm hit), the coarse
/// written-at epoch and the value.
#[derive(Debug, Clone)]
pub struct StoreRecord {
    /// The content-addressed request key (`RequestKey::to_u128`).
    pub key: u128,
    /// Prompt tokens the original call consumed.
    pub input_tokens: u64,
    /// Completion tokens the original call produced.
    pub output_tokens: u64,
    /// Coarse written-at timestamp (seconds since the Unix epoch; see
    /// [`now_epoch`]). Records decoded from v1 segments carry 0 (no
    /// timestamp). The store never stamps this itself — callers set it (the
    /// runtime's persistence layer stamps the wall clock), and
    /// `zeroed-store-tool` prints it.
    pub epoch: u64,
    /// The response value.
    pub value: Response,
}

/// The current coarse epoch: whole seconds since the Unix epoch (the
/// granularity [`StoreRecord::epoch`] is stored at).
pub fn now_epoch() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

/// A decode failure (treated as corruption by segment recovery).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodeError(pub &'static str);

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "store decode error: {}", self.0)
    }
}

impl std::error::Error for DecodeError {}

/// 64-bit content checksum (rotate-xor-multiply over 8-byte chunks, length
/// folded into the seed, splitmix64 finaliser — the same arithmetic family as
/// the runtime's request keys, with its own seed).
pub fn checksum64(bytes: &[u8]) -> u64 {
    let mut h = 0x9e37_79b9_7f4a_7c15u64 ^ (bytes.len() as u64).wrapping_mul(0x517c_c1b7_2722_0a95);
    for chunk in bytes.chunks(8) {
        let mut buf = [0u8; 8];
        buf[..chunk.len()].copy_from_slice(chunk);
        h = (h.rotate_left(5) ^ u64::from_le_bytes(buf)).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

// ---------------------------------------------------------------------------
// Primitive writers.
// ---------------------------------------------------------------------------

fn put_u8(buf: &mut Vec<u8>, v: u8) {
    buf.push(v);
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_bits().to_le_bytes());
}

fn put_bool(buf: &mut Vec<u8>, v: bool) {
    buf.push(v as u8);
}

fn put_str(buf: &mut Vec<u8>, v: &str) {
    put_u32(buf, v.len() as u32);
    buf.extend_from_slice(v.as_bytes());
}

fn put_str_vec(buf: &mut Vec<u8>, v: &[String]) {
    put_u32(buf, v.len() as u32);
    for s in v {
        put_str(buf, s);
    }
}

/// Sets are persisted sorted so identical logical values byte-compare equal.
fn put_str_set(buf: &mut Vec<u8>, v: &HashSet<String>) {
    let mut sorted: Vec<&String> = v.iter().collect();
    sorted.sort();
    put_u32(buf, sorted.len() as u32);
    for s in sorted {
        put_str(buf, s);
    }
}

fn put_str_map(buf: &mut Vec<u8>, v: &HashMap<String, String>) {
    let mut sorted: Vec<(&String, &String)> = v.iter().collect();
    sorted.sort();
    put_u32(buf, sorted.len() as u32);
    for (k, val) in sorted {
        put_str(buf, k);
        put_str(buf, val);
    }
}

// ---------------------------------------------------------------------------
// Bounds-checked reader.
// ---------------------------------------------------------------------------

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.buf.len() - self.pos < n {
            return Err(DecodeError("unexpected end of payload"));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64, DecodeError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn bool(&mut self) -> Result<bool, DecodeError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(DecodeError("invalid bool byte")),
        }
    }

    /// Collection lengths are validated against the bytes actually remaining
    /// (one byte per element minimum) so a corrupted length cannot trigger a
    /// huge allocation before the bounds check fires.
    fn len(&mut self) -> Result<usize, DecodeError> {
        let n = self.u32()? as usize;
        if n > self.buf.len() - self.pos {
            return Err(DecodeError("collection length exceeds payload"));
        }
        Ok(n)
    }

    fn str(&mut self) -> Result<String, DecodeError> {
        let n = self.len()?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| DecodeError("invalid utf-8 in string"))
    }

    fn str_vec(&mut self) -> Result<Vec<String>, DecodeError> {
        let n = self.len()?;
        (0..n).map(|_| self.str()).collect()
    }

    fn str_set(&mut self) -> Result<HashSet<String>, DecodeError> {
        let n = self.len()?;
        (0..n).map(|_| self.str()).collect()
    }

    fn str_map(&mut self) -> Result<HashMap<String, String>, DecodeError> {
        let n = self.len()?;
        (0..n).map(|_| Ok((self.str()?, self.str()?))).collect()
    }

    fn done(&self) -> bool {
        self.pos == self.buf.len()
    }
}

// ---------------------------------------------------------------------------
// Domain-type encodings.
// ---------------------------------------------------------------------------

fn error_type_tag(t: ErrorType) -> u8 {
    match t {
        ErrorType::MissingValue => 1,
        ErrorType::Typo => 2,
        ErrorType::PatternViolation => 3,
        ErrorType::Outlier => 4,
        ErrorType::RuleViolation => 5,
    }
}

fn error_type_from(tag: u8) -> Result<ErrorType, DecodeError> {
    Ok(match tag {
        1 => ErrorType::MissingValue,
        2 => ErrorType::Typo,
        3 => ErrorType::PatternViolation,
        4 => ErrorType::Outlier,
        5 => ErrorType::RuleViolation,
        _ => return Err(DecodeError("invalid error-type tag")),
    })
}

fn put_check(buf: &mut Vec<u8>, check: &Check) {
    match check {
        Check::NotMissing => put_u8(buf, 1),
        Check::PatternTemplate { allowed } => {
            put_u8(buf, 2);
            put_str_set(buf, allowed);
        }
        Check::LengthRange { min, max } => {
            put_u8(buf, 3);
            put_u64(buf, *min as u64);
            put_u64(buf, *max as u64);
        }
        Check::NumericRange { min, max } => {
            put_u8(buf, 4);
            put_f64(buf, *min);
            put_f64(buf, *max);
        }
        Check::Domain { allowed } => {
            put_u8(buf, 5);
            put_str_set(buf, allowed);
        }
        Check::Charset {
            letters,
            digits,
            whitespace,
            symbols,
        } => {
            put_u8(buf, 6);
            put_bool(buf, *letters);
            put_bool(buf, *digits);
            put_bool(buf, *whitespace);
            put_u32(buf, symbols.len() as u32);
            for &c in symbols {
                put_u32(buf, c as u32);
            }
        }
        Check::TokenCountRange { min, max } => {
            put_u8(buf, 7);
            put_u64(buf, *min as u64);
            put_u64(buf, *max as u64);
        }
        Check::FdLookup {
            determinant_col,
            mapping,
        } => {
            put_u8(buf, 8);
            put_u64(buf, *determinant_col as u64);
            put_str_map(buf, mapping);
        }
        Check::CrossKeyword { other_col, pairs } => {
            put_u8(buf, 9);
            put_u64(buf, *other_col as u64);
            put_u32(buf, pairs.len() as u32);
            for (trigger, required) in pairs {
                put_str(buf, trigger);
                put_str(buf, required);
            }
        }
    }
}

fn read_check(r: &mut Reader<'_>) -> Result<Check, DecodeError> {
    Ok(match r.u8()? {
        1 => Check::NotMissing,
        2 => Check::PatternTemplate {
            allowed: r.str_set()?,
        },
        3 => Check::LengthRange {
            min: r.u64()? as usize,
            max: r.u64()? as usize,
        },
        4 => Check::NumericRange {
            min: r.f64()?,
            max: r.f64()?,
        },
        5 => Check::Domain {
            allowed: r.str_set()?,
        },
        6 => Check::Charset {
            letters: r.bool()?,
            digits: r.bool()?,
            whitespace: r.bool()?,
            symbols: {
                let n = r.len()?;
                (0..n)
                    .map(|_| char::from_u32(r.u32()?).ok_or(DecodeError("invalid char scalar")))
                    .collect::<Result<Vec<char>, _>>()?
            },
        },
        7 => Check::TokenCountRange {
            min: r.u64()? as usize,
            max: r.u64()? as usize,
        },
        8 => Check::FdLookup {
            determinant_col: r.u64()? as usize,
            mapping: r.str_map()?,
        },
        9 => Check::CrossKeyword {
            other_col: r.u64()? as usize,
            pairs: {
                let n = r.len()?;
                (0..n)
                    .map(|_| Ok((r.str()?, r.str()?)))
                    .collect::<Result<Vec<_>, DecodeError>>()?
            },
        },
        _ => return Err(DecodeError("invalid check tag")),
    })
}

fn put_criteria(buf: &mut Vec<u8>, set: &CriteriaSet) {
    put_u64(buf, set.column as u64);
    put_u32(buf, set.criteria.len() as u32);
    for c in &set.criteria {
        put_str(buf, &c.name);
        put_str(buf, &c.rationale);
        put_check(buf, &c.check);
    }
}

fn read_criteria(r: &mut Reader<'_>) -> Result<CriteriaSet, DecodeError> {
    let column = r.u64()? as usize;
    let n = r.len()?;
    let criteria = (0..n)
        .map(|_| {
            Ok(Criterion {
                name: r.str()?,
                rationale: r.str()?,
                check: read_check(r)?,
            })
        })
        .collect::<Result<Vec<_>, DecodeError>>()?;
    Ok(CriteriaSet { column, criteria })
}

fn put_analysis(buf: &mut Vec<u8>, a: &DistributionAnalysis) {
    put_str(buf, &a.column);
    put_u64(buf, a.total_records as u64);
    put_u64(buf, a.distinct_values as u64);
    put_f64(buf, a.missing_ratio);
    put_u32(buf, a.frequent_values.len() as u32);
    for (v, c) in &a.frequent_values {
        put_str(buf, v);
        put_u64(buf, *c as u64);
    }
    put_str_vec(buf, &a.rare_values);
    put_u32(buf, a.frequent_patterns.len() as u32);
    for (p, c) in &a.frequent_patterns {
        put_str(buf, p);
        put_u64(buf, *c as u64);
    }
    match a.numeric_summary {
        Some((min, mean, max)) => {
            put_u8(buf, 1);
            put_f64(buf, min);
            put_f64(buf, mean);
            put_f64(buf, max);
        }
        None => put_u8(buf, 0),
    }
    put_str_vec(buf, &a.findings);
}

fn read_analysis(r: &mut Reader<'_>) -> Result<DistributionAnalysis, DecodeError> {
    Ok(DistributionAnalysis {
        column: r.str()?,
        total_records: r.u64()? as usize,
        distinct_values: r.u64()? as usize,
        missing_ratio: r.f64()?,
        frequent_values: {
            let n = r.len()?;
            (0..n)
                .map(|_| Ok((r.str()?, r.u64()? as usize)))
                .collect::<Result<Vec<_>, DecodeError>>()?
        },
        rare_values: r.str_vec()?,
        frequent_patterns: {
            let n = r.len()?;
            (0..n)
                .map(|_| Ok((r.str()?, r.u64()? as usize)))
                .collect::<Result<Vec<_>, DecodeError>>()?
        },
        numeric_summary: match r.u8()? {
            0 => None,
            1 => Some((r.f64()?, r.f64()?, r.f64()?)),
            _ => return Err(DecodeError("invalid option tag")),
        },
        findings: r.str_vec()?,
    })
}

fn put_guideline(buf: &mut Vec<u8>, g: &Guideline) {
    put_str(buf, &g.column);
    put_str(buf, &g.explanation);
    put_u32(buf, g.error_types.len() as u32);
    for guide in &g.error_types {
        put_u8(buf, error_type_tag(guide.error_type));
        put_str_vec(buf, &guide.examples);
        put_str(buf, &guide.causes);
        put_str(buf, &guide.detection);
    }
}

fn read_guideline(r: &mut Reader<'_>) -> Result<Guideline, DecodeError> {
    Ok(Guideline {
        column: r.str()?,
        explanation: r.str()?,
        error_types: {
            let n = r.len()?;
            (0..n)
                .map(|_| {
                    Ok(ErrorTypeGuide {
                        error_type: error_type_from(r.u8()?)?,
                        examples: r.str_vec()?,
                        causes: r.str()?,
                        detection: r.str()?,
                    })
                })
                .collect::<Result<Vec<_>, DecodeError>>()?
        },
    })
}

/// Canonical byte encoding of a criteria set: identical logical sets produce
/// identical bytes regardless of `HashSet`/`HashMap` iteration order (sorted
/// on encode). Cache-key derivation folds this — never `Debug` formatting,
/// whose set ordering varies per hasher instance and would silently split
/// keys across processes.
pub fn canonical_criteria(set: &CriteriaSet) -> Vec<u8> {
    let mut buf = Vec::with_capacity(64);
    put_criteria(&mut buf, set);
    buf
}

const TAG_CRITERIA: u8 = 1;
const TAG_ANALYSIS: u8 = 2;
const TAG_GUIDELINE: u8 = 3;
const TAG_FLAGS: u8 = 4;
const TAG_VALUES: u8 = 5;

fn put_value(buf: &mut Vec<u8>, value: &Response) {
    match value {
        Response::Criteria(set) => {
            put_u8(buf, TAG_CRITERIA);
            put_criteria(buf, set);
        }
        Response::Analysis(a) => {
            put_u8(buf, TAG_ANALYSIS);
            put_analysis(buf, a);
        }
        Response::Guideline(g) => {
            put_u8(buf, TAG_GUIDELINE);
            put_guideline(buf, g);
        }
        Response::Flags(flags) => {
            put_u8(buf, TAG_FLAGS);
            put_u32(buf, flags.len() as u32);
            for &f in flags {
                put_bool(buf, f);
            }
        }
        Response::Values(values) => {
            put_u8(buf, TAG_VALUES);
            put_str_vec(buf, values);
        }
    }
}

fn read_value(r: &mut Reader<'_>) -> Result<Response, DecodeError> {
    Ok(match r.u8()? {
        TAG_CRITERIA => Response::Criteria(read_criteria(r)?),
        TAG_ANALYSIS => Response::Analysis(read_analysis(r)?),
        TAG_GUIDELINE => Response::Guideline(read_guideline(r)?),
        TAG_FLAGS => Response::Flags({
            let n = r.len()?;
            (0..n).map(|_| r.bool()).collect::<Result<Vec<_>, _>>()?
        }),
        TAG_VALUES => Response::Values(r.str_vec()?),
        _ => return Err(DecodeError("invalid response-value tag")),
    })
}

// ---------------------------------------------------------------------------
// Record frames.
// ---------------------------------------------------------------------------

/// Bytes of a record frame's fixed prefix: payload length (u32) + payload
/// checksum (u64).
pub const FRAME_PREFIX_LEN: usize = 12;

/// Encodes a record payload at the current [`FORMAT_VERSION`] (no frame
/// prefix): key, token counts, written-at epoch, value.
pub fn encode_payload(record: &StoreRecord) -> Vec<u8> {
    let mut buf = Vec::with_capacity(64);
    put_u64(&mut buf, (record.key >> 64) as u64);
    put_u64(&mut buf, record.key as u64);
    put_u64(&mut buf, record.input_tokens);
    put_u64(&mut buf, record.output_tokens);
    put_u64(&mut buf, record.epoch);
    put_value(&mut buf, &record.value);
    buf
}

/// Encodes a full record frame: `[payload_len u32][checksum u64][payload]`.
/// The checksum covers the payload bytes; the length is folded into the
/// checksum seed implicitly via the payload length itself.
pub fn encode_record(record: &StoreRecord) -> Vec<u8> {
    let payload = encode_payload(record);
    let mut frame = Vec::with_capacity(FRAME_PREFIX_LEN + payload.len());
    put_u32(&mut frame, payload.len() as u32);
    put_u64(&mut frame, checksum64(&payload));
    frame.extend_from_slice(&payload);
    frame
}

/// Decodes a record payload written at format version `format` (see
/// [`FORMAT_VERSION`] for the layout history; v1 payloads carry no epoch and
/// decode with epoch 0). The whole payload must be consumed — trailing bytes
/// are corruption.
pub fn decode_payload(payload: &[u8], format: u16) -> Result<StoreRecord, DecodeError> {
    if !(MIN_READ_FORMAT_VERSION..=FORMAT_VERSION).contains(&format) {
        return Err(DecodeError("unreadable format version"));
    }
    let mut r = Reader::new(payload);
    let hi = r.u64()?;
    let lo = r.u64()?;
    let record = StoreRecord {
        key: ((hi as u128) << 64) | lo as u128,
        input_tokens: r.u64()?,
        output_tokens: r.u64()?,
        epoch: if format >= 2 { r.u64()? } else { 0 },
        value: read_value(&mut r)?,
    };
    if !r.done() {
        return Err(DecodeError("trailing bytes after payload"));
    }
    Ok(record)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_criteria() -> CriteriaSet {
        CriteriaSet {
            column: 3,
            criteria: vec![
                Criterion::new("not_missing", "values required", Check::NotMissing),
                Criterion::new(
                    "domain",
                    "known states only",
                    Check::Domain {
                        allowed: ["ma", "co", "az"].iter().map(|s| s.to_string()).collect(),
                    },
                ),
                Criterion::new(
                    "fd",
                    "city determines state",
                    Check::FdLookup {
                        determinant_col: 0,
                        mapping: [("boston", "ma"), ("denver", "co")]
                            .iter()
                            .map(|(a, b)| (a.to_string(), b.to_string()))
                            .collect(),
                    },
                ),
            ],
        }
    }

    #[test]
    fn all_variants_round_trip() {
        let records = vec![
            StoreRecord {
                key: 0xdead_beef_cafe_f00d_0123_4567_89ab_cdef,
                input_tokens: 120,
                output_tokens: 9,
                epoch: 1_753_000_000,
                value: Response::Criteria(sample_criteria()),
            },
            StoreRecord {
                key: 1,
                input_tokens: 0,
                output_tokens: 0,
                epoch: 0,
                value: Response::Analysis(DistributionAnalysis {
                    column: "zip".into(),
                    total_records: 50_000,
                    distinct_values: 213,
                    missing_ratio: 0.0125,
                    frequent_values: vec![("35233".into(), 900)],
                    rare_values: vec!["9021".into()],
                    frequent_patterns: vec![("D[5]".into(), 48_000)],
                    numeric_summary: Some((1015.0, 51234.7, 99999.0)),
                    findings: vec!["mostly five-digit".into()],
                }),
            },
            StoreRecord {
                key: 2,
                input_tokens: 7,
                output_tokens: 7,
                epoch: 42,
                value: Response::Guideline(Guideline {
                    column: "zip".into(),
                    explanation: "US postal code".into(),
                    error_types: vec![ErrorTypeGuide {
                        error_type: ErrorType::PatternViolation,
                        examples: vec!["9021".into()],
                        causes: "truncation".into(),
                        detection: "five digits".into(),
                    }],
                }),
            },
            StoreRecord {
                key: 3,
                input_tokens: 44,
                output_tokens: 5,
                epoch: u64::MAX,
                value: Response::Flags(vec![true, false, false, true]),
            },
            StoreRecord {
                key: u128::MAX,
                input_tokens: u64::MAX,
                output_tokens: 1,
                epoch: 7,
                value: Response::Values(vec!["".into(), "größe".into()]),
            },
        ];
        for record in &records {
            let frame = encode_record(record);
            let len = u32::from_le_bytes(frame[0..4].try_into().unwrap()) as usize;
            let checksum = u64::from_le_bytes(frame[4..12].try_into().unwrap());
            assert_eq!(len, frame.len() - FRAME_PREFIX_LEN);
            assert_eq!(checksum, checksum64(&frame[FRAME_PREFIX_LEN..]));
            let decoded = decode_payload(&frame[FRAME_PREFIX_LEN..], FORMAT_VERSION).unwrap();
            assert_eq!(decoded.key, record.key);
            assert_eq!(decoded.input_tokens, record.input_tokens);
            assert_eq!(decoded.output_tokens, record.output_tokens);
            assert_eq!(decoded.epoch, record.epoch);
            // Values carry no PartialEq (HashSet fields); compare re-encodings.
            assert_eq!(encode_payload(&decoded), encode_payload(record));
        }
    }

    #[test]
    fn v1_payloads_decode_with_epoch_zero() {
        // A v1 payload is the v2 payload with the 8 epoch bytes (offset
        // 32..40, between the token counts and the value) spliced out.
        let record = StoreRecord {
            key: 77,
            input_tokens: 10,
            output_tokens: 3,
            epoch: 1_753_000_000,
            value: Response::Flags(vec![true, false]),
        };
        let v2 = encode_payload(&record);
        let mut v1 = v2[..32].to_vec();
        v1.extend_from_slice(&v2[40..]);
        let decoded = decode_payload(&v1, 1).unwrap();
        assert_eq!(decoded.key, 77);
        assert_eq!(decoded.input_tokens, 10);
        assert_eq!(decoded.output_tokens, 3);
        assert_eq!(decoded.epoch, 0, "v1 records carry no timestamp");
        match decoded.value {
            Response::Flags(f) => assert_eq!(f, vec![true, false]),
            other => panic!("wrong variant: {other:?}"),
        }
        // A v2 payload must not decode as v1 (the epoch bytes would corrupt
        // the value) and unknown versions are rejected outright.
        assert!(decode_payload(&v2, 1).is_err());
        assert!(decode_payload(&v2, 0).is_err());
        assert!(decode_payload(&v2, FORMAT_VERSION + 1).is_err());
    }

    #[test]
    fn unordered_collections_encode_deterministically() {
        // Two HashSets built in different insertion orders must produce the
        // same bytes (sorted on encode).
        let a: HashSet<String> = ["x", "y", "z"].iter().map(|s| s.to_string()).collect();
        let b: HashSet<String> = ["z", "x", "y"].iter().map(|s| s.to_string()).collect();
        let mut buf_a = Vec::new();
        let mut buf_b = Vec::new();
        put_check(&mut buf_a, &Check::Domain { allowed: a });
        put_check(&mut buf_b, &Check::Domain { allowed: b });
        assert_eq!(buf_a, buf_b);
    }

    #[test]
    fn corrupt_payloads_decode_to_errors_not_panics() {
        let record = StoreRecord {
            key: 42,
            input_tokens: 10,
            output_tokens: 2,
            epoch: 99,
            value: Response::Criteria(sample_criteria()),
        };
        let payload = encode_payload(&record);
        // Truncations at every prefix length: always an error at the format
        // that produced the payload, never a panic at any readable format.
        for cut in 0..payload.len() {
            let _ = decode_payload(&payload[..cut], FORMAT_VERSION).unwrap_err();
            let _ = decode_payload(&payload[..cut], 1);
        }
        // Single-byte corruption either still decodes (e.g. a flipped token
        // count) or errors — it must never panic. (The checksum layer above
        // rejects these before decode in practice.)
        for i in 0..payload.len() {
            let mut bad = payload.clone();
            bad[i] ^= 0xff;
            let _ = decode_payload(&bad, FORMAT_VERSION);
        }
        // Trailing garbage is rejected.
        let mut extended = payload.clone();
        extended.push(0);
        assert!(decode_payload(&extended, FORMAT_VERSION).is_err());
    }

    #[test]
    fn checksum_is_length_and_content_sensitive() {
        assert_ne!(checksum64(b""), checksum64(b"\0"));
        assert_ne!(checksum64(b"\0"), checksum64(b"\0\0"));
        assert_ne!(checksum64(b"abcdefgh"), checksum64(b"abcdefgi"));
        assert_eq!(checksum64(b"stable"), checksum64(b"stable"));
    }
}
