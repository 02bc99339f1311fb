//! # zeroed-core
//!
//! The ZeroED pipeline: hybrid zero-shot error detection through (simulated)
//! LLM reasoning, as described in *ZeroED: Hybrid Zero-shot Error Detection
//! through Large Language Model Reasoning* (ICDE 2025).
//!
//! ZeroED detects erroneous cells in a dirty table without any pre-existing
//! labels or manually defined criteria. It proceeds in four steps
//! (paper §III):
//!
//! 1. **Feature representation** — statistical, semantic and error-reason-aware
//!    (LLM-derived criteria) features per cell, concatenated with the features
//!    of the top-`k` NMI-correlated attributes ([`pipeline::features`]).
//! 2. **Representative sampling and holistic LLM labelling** — per-attribute
//!    clustering over the features, centroid representatives are labelled by
//!    the LLM guided by a two-step generated detection guideline
//!    ([`pipeline::sampling`], [`pipeline::labeling`]).
//! 3. **Training-data construction** — in-cluster label propagation,
//!    contrastive criteria refinement, mutual verification, and LLM error
//!    augmentation (Algorithm 1; [`pipeline::training_data`]).
//! 4. **Detector training and prediction** — a per-attribute MLP classifies
//!    every cell as clean or erroneous ([`pipeline::detector`]).
//!
//! ## Quick start
//!
//! ```
//! use zeroed_core::{ZeroEd, ZeroEdConfig};
//! use zeroed_llm::SimLlm;
//! use zeroed_table::Table;
//!
//! // A small dirty table: the state of the third row disagrees with its city.
//! let rows: Vec<Vec<String>> = (0..120)
//!     .map(|i| {
//!         let city = ["Boston", "Denver", "Phoenix"][i % 3];
//!         let state = if i == 5 { "CO" } else { ["MA", "CO", "AZ"][i % 3] };
//!         vec![city.to_string(), state.to_string()]
//!     })
//!     .collect();
//! let dirty = Table::new("cities", vec!["city".into(), "state".into()], rows).unwrap();
//!
//! let llm = SimLlm::default_model(7); // zero-knowledge heuristic mode
//! let config = ZeroEdConfig { label_rate: 0.1, ..ZeroEdConfig::fast() };
//! let outcome = ZeroEd::new(config).detect(&dirty, &llm);
//! assert_eq!(outcome.mask.n_rows(), 120);
//! ```

pub mod config;
pub mod pipeline;
pub mod report;

pub use config::{CriteriaEngine, ZeroEdConfig};
pub use pipeline::repair::{RepairCounters, RepairLlm, StageRepair};
pub use pipeline::ZeroEd;
pub use report::{DetectionOutcome, PipelineStats};
// Re-export the runtime configuration and stats types so callers can tune
// execution and read `PipelineStats` without a separate `zeroed-runtime`
// dependency.
pub use zeroed_runtime::{
    CacheStats, FsyncPolicy, PersistStats, RuntimeConfig, StoreConfig, StoreLayer,
};
