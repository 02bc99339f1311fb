//! The generalized repair/re-ask layer ([`RepairLlm`]).
//!
//! A served model can return content that *parses* but violates its stage's
//! contract: truncated lists, wrong-arity answers, hallucinated column names,
//! drifted schemas, empty bodies (the corruption taxonomy simulated by
//! `zeroed_llm::mangle`). Every stage response the pipeline consumes flows
//! through this layer, which applies one shared **repair ladder**:
//!
//! 1. **validate** — check the stage contract (arity, column identity,
//!    canonical structure). Healthy responses always pass and flow through
//!    untouched.
//! 2. **repair** — attempt a structural salvage: trim over-arity answers,
//!    restore the column identity, drop unusable items, dedup, re-prefix
//!    drifted names. Counted as `repaired` when the salvaged value passes
//!    validation.
//! 3. **re-ask** — re-issue the request once per unit of
//!    [`crate::ZeroEdConfig::reask_budget`] (default 1), marking the attempt
//!    through [`zeroed_llm::LlmClient::note_reask`] so a simulated backend
//!    redraws its corruption independently and books the extra tokens on the
//!    ledger's distinct re-ask line. A valid (or salvageable) retry is
//!    counted as `reasked`.
//! 4. **default** — fall back to a deterministic stage-specific default
//!    (`defaulted`): an empty criteria set / the pre-refinement criteria, a
//!    minimal analysis, a generic five-type guideline, answered-prefix labels
//!    padded clean, augmented values padded empty.
//!
//! The accounting invariant the conformance suite pins: every response that
//! failed validation lands in **exactly one** bucket, so per stage
//! `mangled == repaired + reasked + defaulted` — and the sum of stage
//! `mangled` counters equals the number of corruptions the simulator applied
//! (zero silent drops).
//!
//! [`crate::ZeroEd::detect`] stacks the layer *below* the response cache
//! (`SimLlm → RouterLlm → RepairLlm → CachedLlm`), so the cache — and the
//! persisted `zeroed-store` — always hold the repaired response. A warm start
//! from a store written under mangling therefore replays bit-identically with
//! zero LLM requests and zero new repairs.

use std::collections::HashSet;
use std::sync::Mutex;
use zeroed_criteria::{Check, CriteriaSet, Criterion};
use zeroed_llm::{
    AttributeContext, DistributionAnalysis, ErrorTypeGuide, Guideline, LlmClient, TokenLedger,
};
use zeroed_table::{ErrorType, Table};

/// Repair-ladder counters for one stage. Every response that failed its
/// stage validator is counted in `mangled` and in exactly one of the other
/// three buckets, so `mangled == repaired + reasked + defaulted` always.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageRepair {
    /// Responses that failed validation (detected corruptions).
    pub mangled: usize,
    /// Corruptions fixed by structural salvage alone.
    pub repaired: usize,
    /// Corruptions resolved by re-asking the model (valid or salvageable
    /// retry).
    pub reasked: usize,
    /// Corruptions that fell through to the deterministic stage default.
    pub defaulted: usize,
}

impl StageRepair {
    /// `mangled == repaired + reasked + defaulted` — the exact-accounting
    /// invariant of the repair ladder.
    pub fn reconciles(&self) -> bool {
        self.mangled == self.repaired + self.reasked + self.defaulted
    }
}

/// Per-stage repair counters, nested into [`crate::PipelineStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RepairCounters {
    /// Criteria generation *and* contrastive refinement (both answer with a
    /// [`CriteriaSet`] and share one validator).
    pub criteria: StageRepair,
    /// Distribution analysis.
    pub analysis: StageRepair,
    /// Guideline generation.
    pub guideline: StageRepair,
    /// Batch labelling.
    pub labels: StageRepair,
    /// Error augmentation.
    pub augment: StageRepair,
}

impl RepairCounters {
    /// All stages as an array, in pipeline order.
    pub fn stages(&self) -> [StageRepair; 5] {
        [
            self.criteria,
            self.analysis,
            self.guideline,
            self.labels,
            self.augment,
        ]
    }

    /// Total detected corruptions across all stages.
    pub fn total_mangled(&self) -> usize {
        self.stages().iter().map(|s| s.mangled).sum()
    }

    /// Total repairs/re-asks/defaults across all stages.
    pub fn total_handled(&self) -> (usize, usize, usize) {
        let mut totals = (0, 0, 0);
        for s in self.stages() {
            totals.0 += s.repaired;
            totals.1 += s.reasked;
            totals.2 += s.defaulted;
        }
        totals
    }

    /// Whether every stage's counters reconcile exactly.
    pub fn reconciles(&self) -> bool {
        self.stages().iter().all(StageRepair::reconciles)
    }
}

/// The canonical per-error-type order of a guideline response — the order
/// the two-step reasoning emits its entries in (missing → typo → pattern →
/// outlier → rule). Note this differs from [`ErrorType::ALL`], which lists
/// types in injection-frequency order.
const GUIDELINE_ERROR_ORDER: [ErrorType; 5] = [
    ErrorType::MissingValue,
    ErrorType::Typo,
    ErrorType::PatternViolation,
    ErrorType::Outlier,
    ErrorType::RuleViolation,
];

/// An [`LlmClient`] adapter running every stage response through the repair
/// ladder (see module docs). Wraps any client — the simulator, the
/// multi-backend router — and is itself wrapped by the response cache, so
/// cached and persisted responses are always the repaired ones.
pub struct RepairLlm<'a> {
    inner: &'a dyn LlmClient,
    /// Re-asks allowed per request (step 3 of the ladder); 0 skips straight
    /// from failed salvage to the stage default.
    reask_budget: usize,
    counters: Mutex<RepairCounters>,
    /// Optional profiling span; when set, `validate`/`salvage`/`reask`
    /// ladder steps record their durations as parallel distribution children
    /// (the ladder runs on scheduler workers, so step totals are CPU time
    /// across threads, not coordinating-thread wall time).
    span: Option<zeroed_obs::Span>,
    /// Optional flight recorder; when set, each ladder outcome journals one
    /// `repair_*` [`zeroed_obs::TraceEvent`], stamped with the caller's
    /// current trace scope id (requests resolved through the cache run inside
    /// a scope; sequential-mode events carry [`zeroed_obs::TraceId::NONE`]).
    recorder: Option<std::sync::Arc<zeroed_obs::TraceRecorder>>,
}

impl std::fmt::Debug for RepairLlm<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RepairLlm")
            .field("model", &self.inner.name())
            .field("reask_budget", &self.reask_budget)
            .field("counters", &self.counters())
            .finish()
    }
}

impl<'a> RepairLlm<'a> {
    /// Wraps `inner`, allowing `reask_budget` re-asks per request.
    pub fn new(inner: &'a dyn LlmClient, reask_budget: usize) -> Self {
        Self {
            inner,
            reask_budget,
            counters: Mutex::new(RepairCounters::default()),
            span: None,
            recorder: None,
        }
    }

    /// Attach a profiling span under which the ladder's `validate`,
    /// `salvage` and `reask` steps record per-call durations.
    pub fn with_span(mut self, span: zeroed_obs::Span) -> Self {
        self.span = Some(span);
        self
    }

    /// Attach a flight recorder: every ladder outcome (`mangled`, `repaired`,
    /// `reasked`, `defaulted`) journals a matching `repair_*` trace event.
    pub fn with_recorder(mut self, recorder: std::sync::Arc<zeroed_obs::TraceRecorder>) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// A snapshot of the per-stage repair counters.
    pub fn counters(&self) -> RepairCounters {
        *self.counters.lock().unwrap()
    }

    /// Time one ladder step into the attached span (no-op without one).
    fn time_step<T>(&self, step: &str, f: impl FnOnce() -> T) -> T {
        match &self.span {
            Some(span) => span.child_dist(step).time(f),
            None => f(),
        }
    }

    fn bump(
        &self,
        stage: fn(&mut RepairCounters) -> &mut StageRepair,
        apply: impl FnOnce(&mut StageRepair),
    ) {
        apply(stage(&mut self.counters.lock().unwrap()));
    }

    /// Journal one ladder outcome into the attached recorder (no-op without
    /// one), under the caller's current trace scope id.
    fn journal(&self, kind: zeroed_obs::EventKind) {
        if let Some(rec) = &self.recorder {
            rec.emit(zeroed_obs::current_id(), kind, 0);
        }
    }

    /// The shared repair ladder (module docs): validate → salvage → re-ask →
    /// default. `salvage` returns `Ok` with a value that passes `validate`,
    /// or `Err` handing the unsalvageable value back; `better` decides
    /// whether a failed retry supersedes the kept value (stages whose default
    /// reuses the answered prefix keep the longest one); `default` builds the
    /// deterministic fallback from the best unsalvageable value.
    fn run_ladder<T>(
        &self,
        stage: fn(&mut RepairCounters) -> &mut StageRepair,
        salt: u64,
        fetch: impl Fn() -> T,
        validate: impl Fn(&T) -> bool,
        salvage: impl Fn(T) -> Result<T, T>,
        better: impl Fn(&T, &T) -> bool,
        default: impl FnOnce(T) -> T,
    ) -> T {
        let raw = fetch();
        if self.time_step("validate", || validate(&raw)) {
            return raw;
        }
        self.bump(stage, |s| s.mangled += 1);
        self.journal(zeroed_obs::EventKind::RepairMangled);
        let mut best = match self.time_step("salvage", || salvage(raw)) {
            Ok(fixed) => {
                debug_assert!(validate(&fixed), "salvage must produce a valid value");
                self.bump(stage, |s| s.repaired += 1);
                self.journal(zeroed_obs::EventKind::RepairSalvaged);
                return fixed;
            }
            Err(raw) => raw,
        };
        for attempt in 1..=self.reask_budget as u32 {
            let retry = self.time_step("reask", || {
                self.inner.note_reask(salt, attempt);
                let retry = fetch();
                self.inner.note_reask(salt, 0);
                retry
            });
            if self.time_step("validate", || validate(&retry)) {
                self.bump(stage, |s| s.reasked += 1);
                self.journal(zeroed_obs::EventKind::RepairReasked);
                return retry;
            }
            match self.time_step("salvage", || salvage(retry)) {
                Ok(fixed) => {
                    self.bump(stage, |s| s.reasked += 1);
                    self.journal(zeroed_obs::EventKind::RepairReasked);
                    return fixed;
                }
                Err(retry) => {
                    if better(&retry, &best) {
                        best = retry;
                    }
                }
            }
        }
        self.bump(stage, |s| s.defaulted += 1);
        self.journal(zeroed_obs::EventKind::RepairDefaulted);
        default(best)
    }
}

// ---------------------------------------------------------------------------
// Stage validators, salvages and defaults.
// ---------------------------------------------------------------------------

fn criterion_refs_in_range(c: &Criterion, n_cols: usize) -> bool {
    match &c.check {
        Check::FdLookup {
            determinant_col, ..
        } => *determinant_col < n_cols,
        Check::CrossKeyword { other_col, .. } => *other_col < n_cols,
        _ => true,
    }
}

/// Criteria contract: the set names this attribute, every criterion has a
/// unique non-empty `is_clean_`-namespaced name, and embedded column
/// references stay inside the schema. An empty set is valid — some
/// attributes legitimately yield no executable checks.
fn valid_criteria(set: &CriteriaSet, ctx: &AttributeContext<'_>) -> bool {
    if set.column != ctx.column {
        return false;
    }
    let n_cols = ctx.table.n_cols();
    let mut seen = HashSet::with_capacity(set.criteria.len());
    set.criteria.iter().all(|c| {
        !c.name.is_empty()
            && c.name.starts_with("is_clean_")
            && criterion_refs_in_range(c, n_cols)
            && seen.insert(c.name.as_str())
    })
}

/// Structural salvage of a criteria response: restore the column identity,
/// drop unusable criteria (unnamed, out-of-schema references), re-prefix
/// drifted names back into the `is_clean_` namespace, dedup keep-first. A
/// salvage that ends empty is indistinguishable from unparseable garbage and
/// is handed back for a re-ask.
fn salvage_criteria(
    mut set: CriteriaSet,
    ctx: &AttributeContext<'_>,
) -> Result<CriteriaSet, CriteriaSet> {
    let n_cols = ctx.table.n_cols();
    set.column = ctx.column;
    let mut seen = HashSet::new();
    let mut kept = Vec::with_capacity(set.criteria.len());
    for mut c in std::mem::take(&mut set.criteria) {
        if c.name.is_empty() || !criterion_refs_in_range(&c, n_cols) {
            continue;
        }
        if !c.name.starts_with("is_clean_") {
            c.name = format!("is_clean_{}", c.name);
        }
        if seen.insert(c.name.clone()) {
            kept.push(c);
        }
    }
    set.criteria = kept;
    if set.criteria.is_empty() {
        Err(set)
    } else {
        Ok(set)
    }
}

/// Analysis contract: names this attribute, record counts match the analysed
/// table, a finite in-range missing ratio, at least one finding.
fn valid_analysis(a: &DistributionAnalysis, ctx: &AttributeContext<'_>) -> bool {
    a.column == ctx.column_name()
        && a.total_records == ctx.table.n_rows()
        && a.distinct_values <= a.total_records
        && a.missing_ratio.is_finite()
        && (0.0..=1.0).contains(&a.missing_ratio)
        && !a.findings.is_empty()
}

/// Structural salvage of an analysis: the counts and the column identity are
/// derivable from the analysed table, so they are restored in place; a
/// truncated findings list gets a placeholder entry. A corrupt missing
/// ratio cannot be reconstructed — the value is handed back for a re-ask.
fn salvage_analysis(
    mut a: DistributionAnalysis,
    ctx: &AttributeContext<'_>,
) -> Result<DistributionAnalysis, DistributionAnalysis> {
    if !a.missing_ratio.is_finite() || !(0.0..=1.0).contains(&a.missing_ratio) {
        return Err(a);
    }
    a.column = ctx.column_name().to_string();
    a.total_records = ctx.table.n_rows();
    a.distinct_values = a.distinct_values.min(a.total_records);
    if a.findings.is_empty() {
        a.findings.push(
            "The analysis response was truncated; only summary statistics were recovered."
                .to_string(),
        );
    }
    Ok(a)
}

/// The deterministic analysis default: minimal but valid.
fn default_analysis(ctx: &AttributeContext<'_>) -> DistributionAnalysis {
    DistributionAnalysis {
        column: ctx.column_name().to_string(),
        total_records: ctx.table.n_rows(),
        distinct_values: 0,
        missing_ratio: 0.0,
        frequent_values: Vec::new(),
        rare_values: Vec::new(),
        frequent_patterns: Vec::new(),
        numeric_summary: None,
        findings: vec![
            "Distribution analysis unavailable: the response could not be repaired.".to_string(),
        ],
    }
}

/// Guideline contract: names this attribute and covers exactly the five
/// error types in canonical emission order.
fn valid_guideline(g: &Guideline, ctx: &AttributeContext<'_>) -> bool {
    g.column == ctx.column_name()
        && g.error_types.len() == GUIDELINE_ERROR_ORDER.len()
        && g.error_types
            .iter()
            .zip(GUIDELINE_ERROR_ORDER)
            .all(|(e, ty)| e.error_type == ty)
}

/// A generic, attribute-agnostic guide for one error type — the filler for
/// entries a corrupted guideline lost.
fn generic_guide(ty: ErrorType, attr: &str) -> ErrorTypeGuide {
    let (causes, detection) = match ty {
        ErrorType::MissingValue => (
            "fields left blank at entry time or lost during integration",
            "flag empty strings and common null placeholders",
        ),
        ErrorType::Typo => (
            "manual entry mistakes producing rare, near-duplicate strings",
            "flag rare values that are close to frequent values",
        ),
        ErrorType::PatternViolation => (
            "format drift between data sources",
            "flag values whose character format deviates from the dominant format",
        ),
        ErrorType::Outlier => (
            "unit mistakes, sensor faults or corrupted numeric entries",
            "flag values far outside the attribute's usual domain",
        ),
        ErrorType::RuleViolation => (
            "updates applied to one attribute but not its dependent attributes",
            "cross-check the value against related attributes in the same tuple",
        ),
    };
    ErrorTypeGuide {
        error_type: ty,
        examples: vec![format!("an implausible '{attr}' value")],
        causes: causes.to_string(),
        detection: detection.to_string(),
    }
}

/// Structural salvage of a guideline: restore the column identity, rebuild
/// the entries in canonical order (dedup keep-first), fill lost error types
/// with generic guides. A guideline with *no* entries at all is
/// indistinguishable from garbage and is handed back for a re-ask.
fn salvage_guideline(
    mut g: Guideline,
    ctx: &AttributeContext<'_>,
) -> Result<Guideline, Guideline> {
    if g.error_types.is_empty() {
        return Err(g);
    }
    g.column = ctx.column_name().to_string();
    let entries = std::mem::take(&mut g.error_types);
    g.error_types = GUIDELINE_ERROR_ORDER
        .iter()
        .map(|&ty| {
            entries
                .iter()
                .find(|e| e.error_type == ty)
                .cloned()
                .unwrap_or_else(|| generic_guide(ty, ctx.column_name()))
        })
        .collect();
    Ok(g)
}

/// The deterministic guideline default: a generic five-type guideline.
fn default_guideline(ctx: &AttributeContext<'_>) -> Guideline {
    let attr = ctx.column_name();
    Guideline {
        column: attr.to_string(),
        explanation: format!(
            "'{attr}' is an attribute whose detection guideline could not be generated; \
             generic per-error-type guidance applies."
        ),
        error_types: GUIDELINE_ERROR_ORDER
            .iter()
            .map(|&ty| generic_guide(ty, attr))
            .collect(),
    }
}

/// Row-by-row repair of a short labelling batch: each unanswered row is
/// relabelled individually; rows whose individual request also returns
/// nothing are defaulted to clean. Returns `(row, label, defaulted)` per
/// input row.
///
/// This is the repair [`crate::pipeline::labeling`] applies when it talks to
/// a client *without* the [`RepairLlm`] wrapper (which pads short batches
/// itself, at batch granularity) — the per-row variant trades extra requests
/// for per-cell fidelity and per-cell accounting.
pub fn relabel_rows_individually(
    llm: &dyn LlmClient,
    ctx: &AttributeContext<'_>,
    guideline: Option<&Guideline>,
    rows: &[usize],
) -> Vec<(usize, bool, bool)> {
    rows.iter()
        .map(|&row| match llm.label_batch(ctx, guideline, &[row]).first() {
            Some(&is_error) => (row, is_error, false),
            None => (row, false, true),
        })
        .collect()
}

impl LlmClient for RepairLlm<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn ledger(&self) -> &TokenLedger {
        self.inner.ledger()
    }

    fn generate_criteria(&self, ctx: &AttributeContext<'_>) -> CriteriaSet {
        let salt = self
            .inner
            .request_salt(ctx.table, Some(ctx.column), ctx.sample_rows);
        self.run_ladder(
            |c| &mut c.criteria,
            salt,
            || self.inner.generate_criteria(ctx),
            |set| valid_criteria(set, ctx),
            |set| salvage_criteria(set, ctx),
            |_, _| false,
            |_| CriteriaSet::new(ctx.column),
        )
    }

    fn analyze_distribution(&self, ctx: &AttributeContext<'_>) -> DistributionAnalysis {
        let salt = self
            .inner
            .request_salt(ctx.table, Some(ctx.column), ctx.sample_rows);
        self.run_ladder(
            |c| &mut c.analysis,
            salt,
            || self.inner.analyze_distribution(ctx),
            |a| valid_analysis(a, ctx),
            |a| salvage_analysis(a, ctx),
            |_, _| false,
            |_| default_analysis(ctx),
        )
    }

    fn generate_guideline(
        &self,
        ctx: &AttributeContext<'_>,
        analysis: &DistributionAnalysis,
    ) -> Guideline {
        let salt = self
            .inner
            .request_salt(ctx.table, Some(ctx.column), ctx.sample_rows);
        self.run_ladder(
            |c| &mut c.guideline,
            salt,
            || self.inner.generate_guideline(ctx, analysis),
            |g| valid_guideline(g, ctx),
            |g| salvage_guideline(g, ctx),
            |_, _| false,
            |_| default_guideline(ctx),
        )
    }

    fn label_batch(
        &self,
        ctx: &AttributeContext<'_>,
        guideline: Option<&Guideline>,
        rows: &[usize],
    ) -> Vec<bool> {
        let salt = self.inner.request_salt(ctx.table, Some(ctx.column), rows);
        let want = rows.len();
        self.run_ladder(
            |c| &mut c.labels,
            salt,
            || self.inner.label_batch(ctx, guideline, rows),
            |labels: &Vec<bool>| labels.len() == want,
            |mut labels| {
                // Over-arity answers keep a correct prefix (extra labels were
                // invented beyond the batch); trimming recovers it exactly.
                // Under-arity answers lost real labels — not salvageable.
                if labels.len() > want {
                    labels.truncate(want);
                    Ok(labels)
                } else {
                    Err(labels)
                }
            },
            // The default pads the answered prefix clean, so keep the retry
            // with the most answers.
            |retry, best| retry.len() > best.len(),
            |mut best| {
                best.resize(want, false);
                best
            },
        )
    }

    fn refine_criteria(
        &self,
        ctx: &AttributeContext<'_>,
        clean_examples: &[String],
        error_examples: &[String],
        existing: &CriteriaSet,
    ) -> CriteriaSet {
        let salt = self.inner.request_salt(ctx.table, Some(ctx.column), &[]);
        self.run_ladder(
            |c| &mut c.criteria,
            salt,
            || {
                self.inner
                    .refine_criteria(ctx, clean_examples, error_examples, existing)
            },
            |set| valid_criteria(set, ctx),
            |set| salvage_criteria(set, ctx),
            |_, _| false,
            // Refinement only ever adds criteria, so the pre-refinement set
            // is the natural deterministic fallback.
            |_| existing.clone(),
        )
    }

    fn augment_errors(
        &self,
        ctx: &AttributeContext<'_>,
        clean_examples: &[String],
        count: usize,
    ) -> Vec<String> {
        let salt = self.inner.request_salt(ctx.table, Some(ctx.column), &[]);
        // Contract: one value per requested error — except that a request
        // with nothing to imitate (no clean examples) or nothing requested
        // legitimately answers empty.
        let want = if clean_examples.is_empty() || count == 0 {
            0
        } else {
            count
        };
        self.run_ladder(
            |c| &mut c.augment,
            salt,
            || self.inner.augment_errors(ctx, clean_examples, count),
            |values: &Vec<String>| values.len() == want,
            |mut values| {
                if values.len() > want {
                    values.truncate(want);
                    Ok(values)
                } else {
                    Err(values)
                }
            },
            |retry, best| retry.len() > best.len(),
            |mut best| {
                // Pad with empty strings — missing-value placeholders are
                // legitimate error examples, and the choice is deterministic.
                best.resize(want, String::new());
                best
            },
        )
    }

    fn detect_tuple(&self, table: &Table, row: usize) -> Vec<bool> {
        // The FM_ED baseline sits outside the pipeline's repair layer by
        // design (it has no stage contract to repair against).
        self.inner.detect_tuple(table, row)
    }

    fn request_salt(&self, table: &Table, column: Option<usize>, rows: &[usize]) -> u64 {
        self.inner.request_salt(table, column, rows)
    }

    fn note_reask(&self, salt: u64, attempt: u32) {
        self.inner.note_reask(salt, attempt);
    }

    fn cache_identity(&self) -> &str {
        self.inner.cache_identity()
    }

    fn injected_fault(&self, salt: u64) -> Option<zeroed_llm::FaultKind> {
        self.inner.injected_fault(salt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zeroed_llm::{MangleSchedule, SimLlm};

    fn fixture() -> zeroed_table::Table {
        let rows: Vec<Vec<String>> = (0..120)
            .map(|i| {
                vec![
                    ["Boston", "Denver", "Phoenix"][i % 3].to_string(),
                    ["MA", "CO", "AZ"][i % 3].to_string(),
                ]
            })
            .collect();
        Table::new("cities", vec!["city".into(), "state".into()], rows).unwrap()
    }

    fn run_all_stages(llm: &RepairLlm<'_>, table: &Table) {
        let corr = vec![0usize];
        let samples: Vec<usize> = (0..12).collect();
        for column in 0..table.n_cols() {
            let ctx = AttributeContext {
                table,
                column,
                correlated: &corr,
                sample_rows: &samples,
            };
            let criteria = llm.generate_criteria(&ctx);
            assert!(valid_criteria(&criteria, &ctx));
            let analysis = llm.analyze_distribution(&ctx);
            assert!(valid_analysis(&analysis, &ctx));
            let guideline = llm.generate_guideline(&ctx, &analysis);
            assert!(valid_guideline(&guideline, &ctx));
            let labels = llm.label_batch(&ctx, Some(&guideline), &samples);
            assert_eq!(labels.len(), samples.len());
            let refined =
                llm.refine_criteria(&ctx, &["MA".into(), "CO".into()], &["".into()], &criteria);
            assert!(valid_criteria(&refined, &ctx));
            let values = llm.augment_errors(&ctx, &["MA".into(), "CO".into()], 6);
            assert_eq!(values.len(), 6);
            assert!(llm.augment_errors(&ctx, &[], 6).is_empty());
        }
    }

    #[test]
    fn healthy_responses_flow_through_untouched() {
        let table = fixture();
        let sim = SimLlm::default_model(3);
        let repair = RepairLlm::new(&sim, 1);
        run_all_stages(&repair, &table);
        assert_eq!(repair.counters(), RepairCounters::default());
        assert_eq!(sim.mangled_responses(), 0);
        // Pass-through responses are identical to the unwrapped client's.
        let direct = SimLlm::default_model(3);
        let corr = vec![0usize];
        let samples: Vec<usize> = (0..12).collect();
        let ctx = AttributeContext {
            table: &table,
            column: 1,
            correlated: &corr,
            sample_rows: &samples,
        };
        assert_eq!(
            repair.label_batch(&ctx, None, &samples),
            direct.label_batch(&ctx, None, &samples)
        );
    }

    #[test]
    fn every_corruption_lands_in_exactly_one_bucket() {
        let table = fixture();
        let sim = SimLlm::default_model(3).with_mangling(MangleSchedule::uniform(11, 1.0));
        let repair = RepairLlm::new(&sim, 1);
        run_all_stages(&repair, &table);
        let counters = repair.counters();
        assert!(counters.reconciles(), "{counters:?}");
        assert!(counters.total_mangled() > 0);
        // Zero silent drops: every corruption the simulator applied was
        // detected by a stage validator.
        assert_eq!(counters.total_mangled(), sim.mangled_responses());
    }

    #[test]
    fn zero_budget_still_degrades_predictably() {
        let table = fixture();
        let sim = SimLlm::default_model(3).with_mangling(MangleSchedule::uniform(11, 1.0));
        let repair = RepairLlm::new(&sim, 0);
        run_all_stages(&repair, &table);
        let counters = repair.counters();
        assert!(counters.reconciles(), "{counters:?}");
        let (_, reasked, _) = counters.total_handled();
        assert_eq!(reasked, 0, "budget 0 must never re-ask");
        assert_eq!(counters.total_mangled(), sim.mangled_responses());
        assert_eq!(sim.ledger().reask_usage().requests, 0);
    }

    #[test]
    fn reasks_charge_the_distinct_ledger_line() {
        let table = fixture();
        let sim = SimLlm::default_model(3).with_mangling(MangleSchedule::uniform(11, 1.0));
        let repair = RepairLlm::new(&sim, 1);
        run_all_stages(&repair, &table);
        let counters = repair.counters();
        let (_, reasked, defaulted) = counters.total_handled();
        // Every re-ask attempt (successful or ending in a default) charged
        // the ledger's re-ask line. With budget 1, attempts = reasked +
        // defaulted (each defaulted request burned its one re-ask).
        assert_eq!(
            sim.ledger().reask_usage().requests,
            reasked + defaulted,
            "{counters:?}"
        );
        // Re-ask tokens are included in the main usage too.
        assert!(sim.ledger().usage().requests > 0);
    }

    /// A client answering labelling batches with a scripted arity offset:
    /// attempt 0 responses get `delta_first` labels relative to the batch,
    /// re-asks get `delta_retry`. Everything else passes through healthy.
    struct ArityLlm {
        inner: SimLlm,
        delta_first: isize,
        delta_retry: isize,
        attempts: Mutex<std::collections::HashMap<u64, u32>>,
    }

    impl ArityLlm {
        fn new(seed: u64, delta_first: isize, delta_retry: isize) -> Self {
            Self {
                inner: SimLlm::default_model(seed),
                delta_first,
                delta_retry,
                attempts: Mutex::new(std::collections::HashMap::new()),
            }
        }
        fn apply(&self, mut labels: Vec<bool>, delta: isize) -> Vec<bool> {
            if delta >= 0 {
                labels.extend(std::iter::repeat(true).take(delta as usize));
            } else {
                labels.truncate(labels.len().saturating_sub((-delta) as usize));
            }
            labels
        }
    }

    impl LlmClient for ArityLlm {
        fn name(&self) -> &str {
            self.inner.name()
        }
        fn ledger(&self) -> &TokenLedger {
            self.inner.ledger()
        }
        fn generate_criteria(&self, ctx: &AttributeContext<'_>) -> CriteriaSet {
            self.inner.generate_criteria(ctx)
        }
        fn analyze_distribution(&self, ctx: &AttributeContext<'_>) -> DistributionAnalysis {
            self.inner.analyze_distribution(ctx)
        }
        fn generate_guideline(
            &self,
            ctx: &AttributeContext<'_>,
            analysis: &DistributionAnalysis,
        ) -> Guideline {
            self.inner.generate_guideline(ctx, analysis)
        }
        fn label_batch(
            &self,
            ctx: &AttributeContext<'_>,
            guideline: Option<&Guideline>,
            rows: &[usize],
        ) -> Vec<bool> {
            let salt = self.request_salt(ctx.table, Some(ctx.column), rows);
            let attempt = self.attempts.lock().unwrap().get(&salt).copied().unwrap_or(0);
            let labels = self.inner.label_batch(ctx, guideline, rows);
            let delta = if attempt == 0 {
                self.delta_first
            } else {
                self.delta_retry
            };
            self.apply(labels, delta)
        }
        fn refine_criteria(
            &self,
            ctx: &AttributeContext<'_>,
            clean: &[String],
            error: &[String],
            existing: &CriteriaSet,
        ) -> CriteriaSet {
            self.inner.refine_criteria(ctx, clean, error, existing)
        }
        fn augment_errors(
            &self,
            ctx: &AttributeContext<'_>,
            clean: &[String],
            count: usize,
        ) -> Vec<String> {
            self.inner.augment_errors(ctx, clean, count)
        }
        fn detect_tuple(&self, table: &Table, row: usize) -> Vec<bool> {
            self.inner.detect_tuple(table, row)
        }
        fn request_salt(&self, table: &Table, column: Option<usize>, rows: &[usize]) -> u64 {
            self.inner.request_salt(table, column, rows)
        }
        fn note_reask(&self, salt: u64, attempt: u32) {
            if attempt == 0 {
                self.attempts.lock().unwrap().remove(&salt);
            } else {
                self.attempts.lock().unwrap().insert(salt, attempt);
            }
        }
    }

    #[test]
    fn over_arity_labels_are_trimmed_to_the_exact_healthy_prefix() {
        let table = fixture();
        let scripted = ArityLlm::new(7, 3, 0);
        let repair = RepairLlm::new(&scripted, 1);
        let corr = vec![0usize];
        let rows: Vec<usize> = (0..10).collect();
        let ctx = AttributeContext {
            table: &table,
            column: 1,
            correlated: &corr,
            sample_rows: &rows,
        };
        let repaired = repair.label_batch(&ctx, None, &rows);
        let healthy = scripted.inner.label_batch(&ctx, None, &rows);
        assert_eq!(repaired, healthy, "trim must recover the healthy answer");
        let c = repair.counters().labels;
        assert_eq!((c.mangled, c.repaired, c.reasked, c.defaulted), (1, 1, 0, 0));
    }

    #[test]
    fn under_arity_labels_reask_then_default_with_padding() {
        let table = fixture();
        let corr = vec![0usize];
        let rows: Vec<usize> = (0..10).collect();
        let ctx = AttributeContext {
            table: &table,
            column: 1,
            correlated: &corr,
            sample_rows: &rows,
        };
        // Truncated first ask, healthy retry: resolved by the re-ask.
        let recovers = ArityLlm::new(7, -4, 0);
        let repair = RepairLlm::new(&recovers, 1);
        let labels = repair.label_batch(&ctx, None, &rows);
        assert_eq!(labels, recovers.inner.label_batch(&ctx, None, &rows));
        let c = repair.counters().labels;
        assert_eq!((c.mangled, c.repaired, c.reasked, c.defaulted), (1, 0, 1, 0));

        // Truncated on every attempt: the answered prefix is padded clean.
        let stuck = ArityLlm::new(7, -4, -4);
        let repair = RepairLlm::new(&stuck, 1);
        let labels = repair.label_batch(&ctx, None, &rows);
        let healthy = stuck.inner.label_batch(&ctx, None, &rows);
        assert_eq!(labels.len(), rows.len());
        assert_eq!(&labels[..6], &healthy[..6], "answered prefix preserved");
        assert!(labels[6..].iter().all(|&l| !l), "padding defaults to clean");
        let c = repair.counters().labels;
        assert_eq!((c.mangled, c.repaired, c.reasked, c.defaulted), (1, 0, 0, 1));
    }

    #[test]
    fn row_by_row_relabelling_reports_defaults() {
        let table = fixture();
        let sim = SimLlm::default_model(5);
        let corr = vec![0usize];
        let rows: Vec<usize> = (0..4).collect();
        let ctx = AttributeContext {
            table: &table,
            column: 1,
            correlated: &corr,
            sample_rows: &rows,
        };
        let relabelled = relabel_rows_individually(&sim, &ctx, None, &rows);
        assert_eq!(relabelled.len(), rows.len());
        for (i, (row, label, defaulted)) in relabelled.iter().enumerate() {
            assert_eq!(*row, rows[i]);
            assert!(!defaulted, "a healthy client answers every row");
            assert_eq!(*label, sim.label_batch(&ctx, None, &[rows[i]])[0]);
        }
    }
}
