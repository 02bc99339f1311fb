//! # zeroed
//!
//! Umbrella crate for the ZeroED reproduction: hybrid zero-shot error
//! detection for tabular data through (simulated) LLM reasoning.
//!
//! This crate re-exports the workspace's public surface so applications can
//! depend on a single crate:
//!
//! * [`table`] — tabular data model, CSV I/O, error masks, metrics;
//! * [`datagen`] — benchmark dataset generators and BART-style error injection;
//! * [`features`] — statistical/semantic/criteria feature representation;
//! * [`cluster`] — k-means, agglomerative clustering and random sampling;
//! * [`ml`] — the MLP detector and logistic regression;
//! * [`criteria`] — the executable error-checking criteria DSL;
//! * [`llm`] — the `LlmClient` abstraction (one `Request` type, answered by
//!   `LlmClient::complete`), prompt templates, token ledger and the
//!   simulated LLM;
//! * [`obs`] — the always-on observability layer (hierarchical stage
//!   profiler, latency histograms with exact quantiles);
//! * [`runtime`] — the concurrent LLM orchestration runtime (worker-pool
//!   scheduler, request-dedup response cache and its write-through
//!   persistence layer);
//! * [`store`] — the crash-safe on-disk response store (one directory, one
//!   writer, read-only inspection) behind cross-process warm starts;
//! * [`baselines`] — dBoost, NADEEF, KATARA, Raha, ActiveClean and FM_ED;
//! * [`core`] — the ZeroED pipeline itself.
//!
//! See `examples/quickstart.rs` for a five-minute tour,
//! `examples/persistent_store.rs` for a cold run, a zero-request warm start
//! from the store and a read-only inspection of it, and ARCHITECTURE.md for
//! the crate map and serving-stack overview.
//!
//! ```
//! use zeroed::prelude::*;
//!
//! let ds = generate(DatasetSpec::Beers, &GenerateOptions { n_rows: 120, seed: 1, ..Default::default() });
//! let llm = SimLlm::default_model(1).with_oracle(ds.mask.clone());
//! let outcome = ZeroEd::new(ZeroEdConfig::fast()).detect(&ds.dirty, &llm);
//! let report = outcome.mask.score_against(&ds.mask).unwrap();
//! assert!(report.f1 >= 0.0);
//! ```

pub use zeroed_baselines as baselines;
pub use zeroed_cluster as cluster;
pub use zeroed_core as core;
pub use zeroed_criteria as criteria;
pub use zeroed_datagen as datagen;
pub use zeroed_features as features;
pub use zeroed_llm as llm;
pub use zeroed_ml as ml;
pub use zeroed_obs as obs;
pub use zeroed_runtime as runtime;
pub use zeroed_store as store;
pub use zeroed_table as table;

/// The most commonly used items, re-exported for convenience.
pub mod prelude {
    pub use zeroed_baselines::{Baseline, BaselineInput, LabeledTuple};
    pub use zeroed_core::{DetectionOutcome, ZeroEd, ZeroEdConfig};
    pub use zeroed_datagen::{generate, DatasetSpec, ErrorSpec, GenerateOptions};
    pub use zeroed_llm::{LlmClient, LlmProfile, SimLlm};
    pub use zeroed_table::{DetectionReport, ErrorMask, ErrorType, Table};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_round_trip() {
        let ds = generate(
            DatasetSpec::Flights,
            &GenerateOptions {
                n_rows: 60,
                seed: 2,
                ..Default::default()
            },
        );
        assert_eq!(ds.dirty.n_rows(), 60);
        let llm = SimLlm::default_model(2);
        assert_eq!(llm.name(), "Qwen2.5-72b");
    }
}
