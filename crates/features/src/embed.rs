//! Subword-hashing embeddings (`f_sem`, paper §III-B).
//!
//! The paper averages pre-trained FastText word vectors over a cell value's
//! tokens. FastText itself represents a word as the sum of its character
//! n-gram vectors; this module reproduces that mechanism directly: each
//! character n-gram (3–5 characters, with `<`/`>` boundary markers) is hashed
//! into one of `dim` buckets with a deterministic sign, token vectors are the
//! normalised sum of their n-gram contributions, and the value embedding is
//! the average of its token vectors. Lexically similar strings (typos,
//! reformatted values) therefore land close together — the property ZeroED
//! relies on — without any external model file.
//!
//! The hot-path entry point is [`HashEmbedder::embed_into`], which writes into
//! a caller-supplied slice and performs **no per-call heap allocation**:
//! n-gram windows are hashed character-by-character (no per-window `String`),
//! and the token scratch buffers live in a thread-local arena reused across
//! calls. [`HashEmbedder::embed`] is the allocating convenience wrapper, and
//! [`HashEmbedder::embed_pool`] embeds a column's distinct-value pool — the
//! per-column embedding cache used by the feature builder, so each distinct
//! string is embedded exactly once no matter how many rows repeat it.

use crate::matrix::FeatureMatrix;
use std::cell::RefCell;

/// Deterministic FNV-1a hash (64-bit). Production code hashes incrementally
/// via [`fnv1a_step`]/[`fnv1a_char`]; the slice form remains for the seed
/// reference implementation in the tests.
#[cfg(test)]
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = FNV_OFFSET;
    for &b in bytes {
        hash = fnv1a_step(hash, b);
    }
    hash
}

const FNV_OFFSET: u64 = 0xcbf29ce484222325;

#[inline(always)]
fn fnv1a_step(mut hash: u64, byte: u8) -> u64 {
    hash ^= byte as u64;
    hash.wrapping_mul(0x100000001b3)
}

/// Feeds one char's UTF-8 bytes into an FNV-1a state.
#[inline(always)]
fn fnv1a_char(mut hash: u64, c: char) -> u64 {
    let mut buf = [0u8; 4];
    for &b in c.encode_utf8(&mut buf).as_bytes() {
        hash = fnv1a_step(hash, b);
    }
    hash
}

thread_local! {
    /// Reusable (marked-token chars, per-token accumulator) scratch space so
    /// `embed_into` allocates nothing after the first call on a thread.
    static SCRATCH: RefCell<(Vec<char>, Vec<f32>)> = const { RefCell::new((Vec::new(), Vec::new())) };
}

/// Character n-gram hashing embedder.
#[derive(Debug, Clone)]
pub struct HashEmbedder {
    dim: usize,
    min_ngram: usize,
    max_ngram: usize,
}

impl Default for HashEmbedder {
    fn default() -> Self {
        Self::new(24)
    }
}

impl HashEmbedder {
    /// Creates an embedder producing `dim`-dimensional vectors with n-grams of
    /// length 3–5.
    pub fn new(dim: usize) -> Self {
        Self {
            dim: dim.max(1),
            min_ngram: 3,
            max_ngram: 5,
        }
    }

    /// Creates an embedder with a custom n-gram range.
    pub fn with_ngrams(dim: usize, min_ngram: usize, max_ngram: usize) -> Self {
        assert!(min_ngram >= 1 && max_ngram >= min_ngram);
        Self {
            dim: dim.max(1),
            min_ngram,
            max_ngram,
        }
    }

    /// Embedding dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Accumulates one marked token (`marked` = `<` + lowercase chars + `>`,
    /// `token_hash` = FNV-1a over the unmarked token bytes) into `acc`,
    /// using `tmp` as the per-token scratch accumulator.
    fn accumulate_token(&self, marked: &[char], token_hash: u64, tmp: &mut [f32], acc: &mut [f32]) {
        tmp.iter_mut().for_each(|x| *x = 0.0);
        let mut n_grams = 0usize;
        for n in self.min_ngram..=self.max_ngram {
            if marked.len() < n {
                continue;
            }
            for window in marked.windows(n) {
                let mut h = FNV_OFFSET;
                for &c in window {
                    h = fnv1a_char(h, c);
                }
                let bucket = (h % self.dim as u64) as usize;
                let sign = if (h >> 32) & 1 == 0 { 1.0 } else { -1.0 };
                tmp[bucket] += sign;
                n_grams += 1;
            }
        }
        // Also hash the whole token so very short tokens still contribute.
        let bucket = (token_hash % self.dim as u64) as usize;
        tmp[bucket] += if (token_hash >> 32) & 1 == 0 {
            1.0
        } else {
            -1.0
        };
        n_grams += 1;
        if n_grams > 0 {
            for x in tmp.iter_mut() {
                *x /= n_grams as f32;
            }
        }
        for (a, t) in acc.iter_mut().zip(tmp.iter()) {
            *a += t;
        }
    }

    /// Embeds a cell value into `out` (length must equal [`Self::dim`]):
    /// tokenises it, embeds each token and averages, then L2-normalises.
    /// Missing/empty values map to the zero vector.
    ///
    /// This is the allocation-free hot path: tokens are walked in place (no
    /// `Vec<String>`), windows are hashed char-by-char (no per-window
    /// `String`), and scratch space is a reused thread-local arena.
    pub fn embed_into(&self, value: &str, out: &mut [f32]) {
        assert_eq!(out.len(), self.dim, "output slice must match embedder dim");
        out.iter_mut().for_each(|x| *x = 0.0);
        SCRATCH.with(|scratch| {
            let (marked, tmp) = &mut *scratch.borrow_mut();
            tmp.resize(self.dim, 0.0);
            let mut n_tokens = 0usize;
            let mut token_hash = FNV_OFFSET;
            marked.clear();
            marked.push('<');
            // Tokenise in place: alphanumeric runs, lowercased (mirroring
            // `zeroed_table::value::tokenize`), with `<`/`>` markers.
            for ch in value.chars() {
                if ch.is_alphanumeric() {
                    for lc in ch.to_lowercase() {
                        marked.push(lc);
                        token_hash = fnv1a_char(token_hash, lc);
                    }
                } else if marked.len() > 1 {
                    marked.push('>');
                    self.accumulate_token(marked, token_hash, tmp, out);
                    n_tokens += 1;
                    marked.clear();
                    marked.push('<');
                    token_hash = FNV_OFFSET;
                }
            }
            if marked.len() > 1 {
                marked.push('>');
                self.accumulate_token(marked, token_hash, tmp, out);
                n_tokens += 1;
            }
            if n_tokens == 0 {
                return;
            }
            for x in out.iter_mut() {
                *x /= n_tokens as f32;
            }
            let norm: f32 = out.iter().map(|x| x * x).sum::<f32>().sqrt();
            if norm > 1e-12 {
                for x in out.iter_mut() {
                    *x /= norm;
                }
            }
        });
    }

    /// Embeds a cell value, allocating the output vector. See
    /// [`Self::embed_into`] for the non-allocating variant.
    pub fn embed(&self, value: &str) -> Vec<f32> {
        let mut out = vec![0.0f32; self.dim];
        self.embed_into(value, &mut out);
        out
    }

    /// Embeds a column's distinct-value pool: one row per value. This is the
    /// per-column embedding cache of the interned featurisation path — each
    /// distinct string is embedded exactly once.
    pub fn embed_pool<S: AsRef<str>>(&self, values: &[S]) -> FeatureMatrix {
        let mut pool = FeatureMatrix::zeros(values.len(), self.dim);
        for (value, row) in values.iter().zip(pool.data_mut().chunks_mut(self.dim)) {
            self.embed_into(value.as_ref(), row);
        }
        pool
    }

    /// Cosine similarity between the embeddings of two values.
    pub fn similarity(&self, a: &str, b: &str) -> f32 {
        let ea = self.embed(a);
        let eb = self.embed(b);
        ea.iter().zip(eb.iter()).map(|(x, y)| x * y).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zeroed_table::value::tokenize;

    /// The seed implementation of `embed` (per-token `String` windows), kept
    /// as the arithmetic reference for the allocation-free rewrite.
    fn embed_reference(e: &HashEmbedder, value: &str) -> Vec<f32> {
        let tokens = tokenize(value);
        let mut acc = vec![0.0f32; e.dim];
        if tokens.is_empty() {
            return acc;
        }
        let mut tmp = vec![0.0f32; e.dim];
        for token in &tokens {
            tmp.iter_mut().for_each(|x| *x = 0.0);
            let marked: Vec<char> = std::iter::once('<')
                .chain(token.chars())
                .chain(std::iter::once('>'))
                .collect();
            let mut n_grams = 0usize;
            for n in e.min_ngram..=e.max_ngram {
                if marked.len() < n {
                    continue;
                }
                for window in marked.windows(n) {
                    let s: String = window.iter().collect();
                    let h = fnv1a(s.as_bytes());
                    let bucket = (h % e.dim as u64) as usize;
                    let sign = if (h >> 32) & 1 == 0 { 1.0 } else { -1.0 };
                    tmp[bucket] += sign;
                    n_grams += 1;
                }
            }
            let h = fnv1a(token.as_bytes());
            let bucket = (h % e.dim as u64) as usize;
            tmp[bucket] += if (h >> 32) & 1 == 0 { 1.0 } else { -1.0 };
            n_grams += 1;
            if n_grams > 0 {
                for x in tmp.iter_mut() {
                    *x /= n_grams as f32;
                }
            }
            for (a, t) in acc.iter_mut().zip(tmp.iter()) {
                *a += t;
            }
        }
        for x in acc.iter_mut() {
            *x /= tokens.len() as f32;
        }
        let norm: f32 = acc.iter().map(|x| x * x).sum::<f32>().sqrt();
        if norm > 1e-12 {
            for x in acc.iter_mut() {
                *x /= norm;
            }
        }
        acc
    }

    #[test]
    fn embed_into_matches_seed_reference_bit_for_bit() {
        let e = HashEmbedder::new(24);
        for value in [
            "Bob Johnson",
            "prophylactic antibiotic received within one hour",
            "80000",
            "(205) 325-8100",
            "a",
            "",
            "   ",
            "Ünïcode Tøkens 123",
            "x-y_z.9",
        ] {
            assert_eq!(
                e.embed(value),
                embed_reference(&e, value),
                "value {value:?}"
            );
        }
        let short = HashEmbedder::with_ngrams(8, 2, 3);
        assert_eq!(short.embed("ab cd"), embed_reference(&short, "ab cd"));
    }

    #[test]
    fn dimensions_and_determinism() {
        let e = HashEmbedder::new(16);
        assert_eq!(e.dim(), 16);
        let a = e.embed("Bob Johnson");
        let b = e.embed("Bob Johnson");
        assert_eq!(a.len(), 16);
        assert_eq!(a, b);
    }

    #[test]
    fn empty_is_zero_vector() {
        let e = HashEmbedder::default();
        let z = e.embed("");
        assert!(z.iter().all(|&x| x == 0.0));
        let z2 = e.embed("   ");
        assert!(z2.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn embeddings_are_normalized() {
        let e = HashEmbedder::new(32);
        let v = e.embed("pneumonia");
        let norm: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
        assert!((norm - 1.0).abs() < 1e-5);
    }

    #[test]
    fn typos_are_closer_than_unrelated_words() {
        let e = HashEmbedder::new(48);
        let typo_sim = e.similarity("Bachelor", "Bechxlor");
        let unrelated_sim = e.similarity("Bachelor", "pneumonia");
        assert!(
            typo_sim > unrelated_sim,
            "typo similarity {typo_sim} should exceed unrelated {unrelated_sim}"
        );
        assert!(typo_sim > 0.1, "typo similarity {typo_sim} too low");
    }

    #[test]
    fn identical_strings_have_similarity_one() {
        let e = HashEmbedder::new(24);
        assert!((e.similarity("heart attack", "heart attack") - 1.0).abs() < 1e-5);
    }

    #[test]
    fn custom_ngram_range() {
        let e = HashEmbedder::with_ngrams(8, 2, 3);
        assert_eq!(e.embed("ab").len(), 8);
        // Short tokens still produce a non-zero vector via the whole-token hash.
        assert!(e.embed("a").iter().any(|&x| x != 0.0));
    }

    #[test]
    fn embed_pool_matches_single_embeds() {
        let e = HashEmbedder::new(12);
        let values = vec!["alpha", "beta", "alpha beta", "", "42"];
        let pool = e.embed_pool(&values);
        assert_eq!(pool.n_rows(), 5);
        assert_eq!(pool.n_cols(), 12);
        for (i, v) in values.iter().enumerate() {
            assert_eq!(pool.row(i), e.embed(v).as_slice(), "value {v:?}");
        }
    }
}
