//! Pipeline outputs: the predicted error mask and summary statistics,
//! including the run's stage profile.

use crate::pipeline::repair::RepairCounters;
use zeroed_runtime::{CacheStats, PersistStats};
use zeroed_table::ErrorMask;

/// Summary counters describing what the pipeline did.
///
/// Every counter here is this run's own. Facts that outlive a run are read
/// where they are kept: the store's recovery report, TTL expiries and shard
/// count from [`crate::ZeroEd::store`], the records preloaded at construction
/// from [`crate::ZeroEd::cache`]'s length before the first run, and router
/// activity from the caller's [`zeroed_runtime::RouterLlm::stats`]. Those
/// router counters cover the router's lifetime, so build a fresh router per
/// run or take your own deltas.
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
    /// LLM-augmented synthetic error examples.
    pub augmented_rows: usize,
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
    /// the persisted store (open / preload / fsync / compaction / GC). Two
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
    /// Per-request causal trace for the run: exact per-kind event counts,
    /// ring drop count (0 in every shipped configuration), the journal and
    /// the slowest request-rooted exemplars. `TraceSummary::verify` checks
    /// the journal's causality invariants; the tests and the bench reconcile
    /// its counts against `cache`, `persist`, `repair`, `runtime_tasks` and
    /// the caller's router stats with zero tolerance.
    pub trace: Option<zeroed_obs::TraceSummary>,
}

/// The result of running ZeroED on a dirty table.
#[derive(Debug, Clone)]
pub struct DetectionOutcome {
    /// Predicted error mask (one flag per cell).
    pub mask: ErrorMask,
    /// Summary statistics.
    pub stats: PipelineStats,
}
