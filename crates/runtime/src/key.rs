//! Content-addressed request identity.
//!
//! A [`RequestKey`] is a 128-bit hash over everything a deterministic model's
//! response depends on: the request kind, the model name, the rendered prompt,
//! the request's structural coordinates (table fingerprint, column, row
//! indices) and the client's hidden-state salt. 128 bits come from running the
//! same rotate-xor-multiply scheme (the FxHash multiplier) twice with
//! different seeds, which makes accidental collisions negligible for any
//! realistic number of requests while keeping hashing allocation-free and
//! fast enough to run on every call.

use std::hash::{Hash, Hasher};
pub use zeroed_llm::RequestKind;

const SEED_A: u64 = 0x51_7c_c1_b7_27_22_0a_95;
const SEED_B: u64 = 0x9e_37_79_b9_7f_4a_7c_15;

/// A 128-bit content-addressed request identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestKey {
    hi: u64,
    lo: u64,
}

impl Hash for RequestKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // The key is already a high-quality hash; feed one word through.
        state.write_u64(self.hi ^ self.lo.rotate_left(32));
    }
}

impl RequestKey {
    /// Starts building a key for one request of `kind` against `model`.
    pub fn builder(kind: RequestKind, model: &str) -> RequestKeyBuilder {
        let mut b = RequestKeyBuilder {
            a: SEED_A,
            b: SEED_B,
        };
        b.word(kind as u64);
        b.text(model);
        b
    }

    /// The raw 128 bits (for diagnostics/logging and the persisted-store
    /// index, which keys records by this value).
    pub fn to_u128(self) -> u128 {
        ((self.hi as u128) << 64) | self.lo as u128
    }

    /// Rebuilds a key from its raw 128 bits (the persisted-store preload
    /// path). Inverse of [`RequestKey::to_u128`].
    pub fn from_u128(raw: u128) -> Self {
        Self {
            hi: (raw >> 64) as u64,
            lo: raw as u64,
        }
    }
}

/// Incremental [`RequestKey`] construction.
#[derive(Debug, Clone)]
pub struct RequestKeyBuilder {
    a: u64,
    b: u64,
}

impl RequestKeyBuilder {
    #[inline]
    fn mix(state: u64, word: u64, seed: u64) -> u64 {
        (state.rotate_left(5) ^ word).wrapping_mul(seed)
    }

    /// Folds one 64-bit word into both lanes.
    #[inline]
    pub fn word(&mut self, word: u64) -> &mut Self {
        self.a = Self::mix(self.a, word, SEED_A);
        self.b = Self::mix(self.b, word ^ SEED_B, SEED_B | 1);
        self
    }

    /// Folds a string (length-prefixed so concatenations cannot collide).
    pub fn text(&mut self, text: &str) -> &mut Self {
        self.bytes(text.as_bytes())
    }

    /// Folds a raw byte string (length-prefixed, chunked into words exactly
    /// like [`RequestKeyBuilder::text`]) — for canonical binary encodings
    /// whose full content must participate in the 128-bit mix rather than
    /// being bottlenecked through a narrower digest.
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        self.word(bytes.len() as u64);
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.word(u64::from_le_bytes(buf));
        }
        self
    }

    /// Folds a row-index list (length-prefixed).
    pub fn rows(&mut self, rows: &[usize]) -> &mut Self {
        self.word(rows.len() as u64);
        for &r in rows {
            self.word(r as u64);
        }
        self
    }

    /// Folds an optional column index.
    pub fn column(&mut self, column: Option<usize>) -> &mut Self {
        match column {
            Some(c) => self.word(1).word(c as u64),
            None => self.word(0),
        }
    }

    /// Finishes the key.
    pub fn finish(&self) -> RequestKey {
        // One final avalanche per lane (splitmix64 finaliser).
        fn fin(mut x: u64) -> u64 {
            x ^= x >> 30;
            x = x.wrapping_mul(0xbf58476d1ce4e5b9);
            x ^= x >> 27;
            x = x.wrapping_mul(0x94d049bb133111eb);
            x ^ (x >> 31)
        }
        RequestKey {
            hi: fin(self.a),
            lo: fin(self.b),
        }
    }
}

/// Fingerprint of a whole table's contents (name, shape and every cell).
///
/// Mixed into every request key by [`crate::CachedLlm`] so that two tables
/// that happen to share a name, shape and the handful of sampled rows a
/// prompt serialises can never share cache entries: responses like the
/// distribution analysis depend on *all* cells, not only the prompted ones.
pub fn table_fingerprint(table: &zeroed_table::Table) -> u64 {
    let mut b = RequestKeyBuilder {
        a: SEED_A ^ t_marker(),
        b: SEED_B,
    };
    b.text(table.name());
    b.word(table.n_rows() as u64);
    b.word(table.n_cols() as u64);
    for row in table.rows() {
        for cell in row {
            b.text(cell);
        }
    }
    b.finish().hi
}

// Small helper so the fingerprint lane seed differs from request keys.
#[inline]
const fn t_marker() -> u64 {
    0x7461_626c_6566_7024 // "tablefp$"
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(kind: RequestKind, model: &str, prompt: &str, rows: &[usize], salt: u64) -> RequestKey {
        let mut b = RequestKey::builder(kind, model);
        b.text(prompt).rows(rows).word(salt);
        b.finish()
    }

    #[test]
    fn identical_inputs_produce_identical_keys() {
        let a = key(RequestKind::LabelBatch, "m", "prompt text", &[1, 2, 3], 7);
        let b = key(RequestKind::LabelBatch, "m", "prompt text", &[1, 2, 3], 7);
        assert_eq!(a, b);
        assert_eq!(a.to_u128(), b.to_u128());
    }

    #[test]
    fn any_component_changes_the_key() {
        let base = key(RequestKind::LabelBatch, "m", "prompt", &[1, 2], 7);
        assert_ne!(base, key(RequestKind::Analysis, "m", "prompt", &[1, 2], 7));
        assert_ne!(
            base,
            key(RequestKind::LabelBatch, "m2", "prompt", &[1, 2], 7)
        );
        assert_ne!(
            base,
            key(RequestKind::LabelBatch, "m", "prompt!", &[1, 2], 7)
        );
        assert_ne!(
            base,
            key(RequestKind::LabelBatch, "m", "prompt", &[2, 1], 7)
        );
        assert_ne!(
            base,
            key(RequestKind::LabelBatch, "m", "prompt", &[1, 2], 8)
        );
    }

    #[test]
    fn length_prefixing_separates_concatenations() {
        let mut a = RequestKey::builder(RequestKind::Refine, "m");
        a.text("ab").text("c");
        let mut b = RequestKey::builder(RequestKind::Refine, "m");
        b.text("a").text("bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn table_fingerprint_reflects_contents() {
        let t1 = zeroed_table::Table::new(
            "t",
            vec!["a".into()],
            vec![vec!["x".into()], vec!["y".into()]],
        )
        .unwrap();
        let t2 = zeroed_table::Table::new(
            "t",
            vec!["a".into()],
            vec![vec!["x".into()], vec!["z".into()]],
        )
        .unwrap();
        assert_eq!(table_fingerprint(&t1), table_fingerprint(&t1));
        assert_ne!(table_fingerprint(&t1), table_fingerprint(&t2));
    }
}
