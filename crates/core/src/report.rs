//! Pipeline outputs: the predicted error mask and summary statistics,
//! including the run's stage profile.

use crate::pipeline::repair::RepairCounters;
use zeroed_runtime::{CacheStats, PersistStats};
use zeroed_table::ErrorMask;

/// Summary counters describing what the pipeline did.
///
/// Every counter here is this run's own. Facts that outlive a run are read
/// where they are kept: the store's recovery report and record counts from
/// [`crate::ZeroEd::store`], and the records preloaded at construction from
/// [`crate::ZeroEd::cache`]'s length before the first run.
#[derive(Debug, Clone, Default)]
pub struct PipelineStats {
    /// Cells labelled directly by the LLM.
    pub llm_labeled_cells: usize,
    /// Cells that received a label through in-cluster propagation.
    pub propagated_cells: usize,
    /// Training rows that survived mutual verification (clean class).
    pub verified_clean_rows: usize,
    /// Training rows labelled as errors (propagated error class).
    pub error_rows: usize,
    /// Synthetic error examples returned by the LLM's augmentation step.
    /// This counts what the LLM returned, not what the detector trained on:
    /// [`PipelineStats::augmented_dropped`] of them never reached it.
    pub augmented_rows: usize,
    /// Augmented error examples the detector left out of training because
    /// their feature width differs from their attribute's unified vectors.
    /// Augmented values are re-checked against the refined and verified
    /// criteria, while the unified vectors hold the generated criteria's
    /// indicators, so the widths part whenever verification changes the
    /// criteria count.
    pub augmented_dropped: usize,
    /// Total error-checking criteria in use after refinement/verification.
    pub criteria_count: usize,
    /// Cells relabelled individually because a labelling batch returned
    /// fewer labels than requested (never dropped silently).
    pub label_fallback_cells: usize,
    /// Cells defaulted to clean because even the individual relabelling
    /// returned nothing.
    pub label_defaulted_cells: usize,
    /// Tasks executed by the runtime scheduler, on one worker as on many:
    /// one per attribute for each features fan-out (criteria generation and
    /// evaluation), and three per attribute for the streamed chain (sampling;
    /// labelling with training-data construction; the detector).
    pub runtime_tasks: usize,
    /// This run's response-cache activity: the run's own
    /// [`zeroed_runtime::CachedLlm::stats`], all zero when the cache is off.
    /// `store_hits` counts hits on responses preloaded from the on-disk
    /// store.
    pub cache: CacheStats,
    /// This run's write-through activity: the run's own
    /// [`zeroed_runtime::StoreSink::stats`], drained before detection returns
    /// so the counts are exact; all zero without a store.
    pub persist: PersistStats,
    /// Per-stage repair-ladder counters: corrupted responses detected and
    /// how each was resolved (structural repair, re-ask, or deterministic
    /// default). Every stage reconciles exactly:
    /// `mangled == repaired + reasked + defaulted`.
    pub repair: RepairCounters,
    /// Hierarchical stage profile of this run: a tree of wall-clock spans
    /// covering the pipeline and its sub-stages, with grafted parallel
    /// distribution nodes for per-attribute work, the scheduler (queue-wait
    /// / execute), the response cache (lock-hold / park-wait / preload) and
    /// the persisted store (open / preload / fsync / compaction). Two
    /// top-level spans cover the run: `features` (step 1, a barrier across
    /// attributes) and `attributes`, the wall of the per-attribute chains
    /// that stream steps 2–5. Under `attributes`, the parallel
    /// `sample_column`, `label_attribute`, `construct_attribute`,
    /// `criteria_verify` and `train_predict` nodes sum each phase's task wall
    /// time over attributes; the phases overlap, so only on one worker are
    /// those totals serial wall time. `None` only for the degenerate
    /// empty-table early return. Sequential (non-parallel) children of any
    /// node sum to at most the node's own wall time —
    /// `zeroed_obs::StageProfile::accounting_ok` checks the whole tree.
    pub stage_profile: Option<zeroed_obs::StageProfile>,
}

/// The result of running ZeroED on a dirty table.
#[derive(Debug, Clone)]
pub struct DetectionOutcome {
    /// Predicted error mask (one flag per cell).
    pub mask: ErrorMask,
    /// Summary statistics.
    pub stats: PipelineStats,
}
