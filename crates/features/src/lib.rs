//! # zeroed-features
//!
//! Feature representation for ZeroED (paper §III-B).
//!
//! ZeroED represents every cell value `D[i,j]` by a *base feature vector*
//! combining:
//!
//! * **statistical features** — value frequency, vicinity (co-occurrence)
//!   frequency with correlated attributes, and pattern frequency at three
//!   generalisation levels ([`stats`], [`pattern`]);
//! * **semantic features** — an averaged subword-hashing embedding standing in
//!   for the paper's FastText vectors ([`embed`]);
//! * **error-reason-aware criteria features** — binary indicators of whether
//!   the value satisfies each LLM-derived error-checking criterion (produced
//!   by `zeroed-criteria` / `zeroed-llm` and passed into the builder as one
//!   flat `n_rows × n_criteria` extra matrix per attribute).
//!
//! Base vectors of the top-`k` correlated attributes (by normalised mutual
//! information, [`nmi`]) are concatenated to form the *unified representation*
//! used for clustering, sampling and the MLP detector ([`unified`]).
//!
//! # Interned featurisation (architecture + invariants)
//!
//! The whole stack is built on the distinct-value dictionary of
//! `zeroed_table::intern`: fitting interns the table once (or reuses a
//! caller-supplied dictionary via `FeatureBuilder::fit_with_dict`) and every
//! layer works per *distinct* value where the feature is row-independent:
//!
//! * [`stats::FrequencyModel`] reads value counts straight off the dictionary,
//!   memoises each distinct value's pattern count per level, keys
//!   co-occurrence maps by `(u32, u32)` code pairs, and additionally memoises
//!   each *row's own* pair count ([`stats::PairRows`]) so a column fill never
//!   hashes;
//! * [`embed::HashEmbedder::embed_into`] is allocation-free (no per-window
//!   `String`, no per-call `Vec`; thread-local scratch) and the fitted state
//!   caches one embedding per distinct value per column;
//! * [`unified::FittedFeatures::unified_rows_into`] fills any row range of
//!   one attribute's unified vectors straight from the cached per-distinct
//!   blocks, one base block at a time, into the caller's buffer on the
//!   calling thread. Detection streams each attribute's rows through it a
//!   chunk at a time, inside the two phases that read them (its sampling
//!   and its detector), and keeps only the distinct vectors, so the fitted
//!   caches, not matrices, are what every attribute shares.
//!   [`unified::FittedFeatures::unified_matrix`] fills all of one
//!   attribute's rows, and [`unified::FittedFeatures::build_all`] every
//!   attribute's base and unified matrices at once, through the same block
//!   filler, for callers that want the whole table side by side
//!   (`paper_bench`'s traced run, benchmarks and the equivalence tests).
//!
//! Invariants the fast path must uphold (enforced by `tests/equivalence.rs`
//! against the seed implementation preserved in [`reference`](mod@reference)):
//!
//! 1. `base_row` / `unified_row` / `unified_rows_into` / `unified_matrix` /
//!    `build_all` output is
//!    **bit-identical** to the per-cell reference path, for every config
//!    combination — including
//!    `value_override` cells whose value is *not* in the dictionary (they fall
//!    back to string-keyed statistics and a fresh embedding) and
//!    `extra_override` criteria blocks of arbitrary width.
//! 2. Cached blocks store the exact `f64 → f32` casts of the reference
//!    arithmetic; derived quantities keep the reference's operation order.
//! 3. A fitted state is a snapshot: the dictionary, caches and frequency
//!    model all describe the table as it was at fit time.

pub mod embed;
pub(crate) mod fx;
pub mod matrix;
pub mod nmi;
pub mod pattern;
pub mod reference;
pub mod stats;
pub mod unified;

pub use embed::HashEmbedder;
pub use matrix::FeatureMatrix;
pub use nmi::{normalized_mutual_information, top_k_correlated, top_k_correlated_dict};
pub use pattern::{generalize, Level};
pub use stats::FrequencyModel;
pub use unified::{FeatureBuilder, FeatureConfig, FittedFeatures, TableFeatures};
