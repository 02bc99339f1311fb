//! Pipeline outputs: the predicted error mask and summary statistics,
//! including the run's stage profile.

use crate::pipeline::repair::RepairCounters;
use zeroed_table::ErrorMask;

/// Summary counters describing what the pipeline did.
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
    /// Response-cache hits during this run (requests answered without a
    /// model call).
    pub cache_hits: usize,
    /// Response-cache misses (requests that executed the model).
    pub cache_misses: usize,
    /// Hits that coalesced onto an in-flight identical request.
    pub cache_coalesced: usize,
    /// Input + output tokens the cache hits avoided.
    pub cache_tokens_saved: usize,
    /// Tasks executed by the runtime scheduler: one per attribute per
    /// fan-out, on one worker as on many.
    pub runtime_tasks: usize,
    /// Scheduler retry attempts.
    pub runtime_retries: usize,
    /// Backends registered with the multi-backend router (0 when detection
    /// ran on a single client; the remaining `router_*` fields are only
    /// populated by [`crate::ZeroEd::detect_routed`]).
    pub router_backends: usize,
    /// Requests the router dispatched (cache hits never reach it).
    pub router_requests: usize,
    /// Failover skips over backends scheduled to error or time out.
    pub router_failovers: usize,
    /// Hedged requests fired against a second backend.
    pub router_hedges_fired: usize,
    /// Hedged races won by the hedge rather than the slow primary.
    pub router_hedges_won: usize,
    /// Circuit-breaker trips across all backends.
    pub router_breaker_trips: usize,
    /// Tokens charged to cancelled hedge losers (the price of the tail-latency
    /// win; excluded from the useful-token ledger).
    pub router_hedge_waste_tokens: usize,
    /// Requests served by responses preloaded from the persisted on-disk
    /// store (subset of `cache_hits`; 0 when no store is configured). A warm
    /// cross-process run reports every request here.
    pub store_hits: usize,
    /// Persisted records preloaded into the cache when this detector opened
    /// its store.
    pub store_preloaded_records: usize,
    /// Responses written through to the store during this run (the background
    /// writer is drained before detection returns, so the count is exact).
    pub store_persisted_records: usize,
    /// Frame bytes appended to the store during this run.
    pub store_persisted_bytes: usize,
    /// Records the store's crash recovery salvaged when it was opened.
    pub store_recovered_records: usize,
    /// Records/segments the store's crash recovery had to discard (torn or
    /// corrupt tails, version-mismatched segments) — truncation events, not
    /// data this run produced.
    pub store_discarded_tails: usize,
    /// Records the store's TTL policy expired (at open, by compaction, or by
    /// an explicit GC sweep) — stale experiment bins reclaimed, aggregated
    /// across shards. 0 when no TTL is configured.
    pub store_expired_records: usize,
    /// Key-space shards of the configured store (1 = unsharded flat layout;
    /// 0 when no store is configured). Shards let several detector
    /// *processes* write one store root concurrently.
    pub store_shards: usize,
    /// Per-stage repair-ladder counters: corrupted responses detected and
    /// how each was resolved (structural repair, re-ask, or deterministic
    /// default). Every stage reconciles exactly:
    /// `mangled == repaired + reasked + defaulted`.
    pub repair: RepairCounters,
    /// Hierarchical stage profile of this run: a tree of wall-clock spans
    /// covering the five pipeline steps and their sub-stages, with grafted
    /// parallel distribution nodes for per-attribute work, the scheduler
    /// (queue-wait / execute), the response cache (lock-hold / park-wait /
    /// preload) and the persisted store (open / preload / fsync / compaction
    /// / GC). The top-level `features`, `sampling`, `labeling`,
    /// `training_data` and `detector` spans are the steps' wall times.
    /// `None` only for the degenerate empty-table early return. Sequential
    /// (non-parallel) children of any node sum to at most the node's own
    /// wall time — `zeroed_obs::StageProfile::accounting_ok` checks the
    /// whole tree.
    pub stage_profile: Option<zeroed_obs::StageProfile>,
    /// Per-request causal trace for the run: exact per-kind event counts,
    /// ring drop count (0 in every shipped configuration), the journal and
    /// the slowest request-rooted exemplars. `TraceSummary::verify` checks
    /// the journal's causality invariants; the bench reconciles its counts
    /// against the cache / router / repair / store stats with zero
    /// tolerance.
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
