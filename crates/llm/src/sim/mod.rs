//! The simulated LLM ([`SimLlm`]).
//!
//! See the crate-level documentation for the substitution rationale: the
//! simulator produces the same structured outputs a served model would
//! (criteria, analyses, guidelines, labels, augmented errors), grounded in
//! real data profiling, with labelling fidelity governed by a per-backbone
//! [`LlmProfile`] and an optional ground-truth oracle supplied by the
//! experiment harness. Every call renders the paper's prompt templates and
//! charges a shared [`TokenLedger`].

pub mod augment;
pub mod criteria_gen;
pub mod guideline_gen;
pub mod labeling;
pub mod profiling;

use crate::budget::Budget;
use crate::client::{AttributeContext, LlmClient};
use crate::mangle::{MangleKind, MangleSchedule};
use crate::profile::LlmProfile;
use crate::request::{Request, Response};
use crate::token::TokenLedger;
use parking_lot::Mutex;
use profiling::ColumnProfile;
use std::collections::HashMap;
use std::sync::Arc;
use zeroed_table::{ErrorMask, ErrorType, Table};

/// Ground-truth information the experiment harness may give the simulator so
/// that its labelling accuracy can be calibrated to a target backbone.
#[derive(Debug, Clone, Default)]
struct Oracle {
    mask: Option<ErrorMask>,
    types: HashMap<(usize, usize), ErrorType>,
}

/// A cached column profile's identity: table name, row count, column and
/// FD determinant (the first correlated attribute, if any).
type ProfileKey = (String, usize, usize, Option<usize>);

/// A deterministic simulated LLM implementing [`LlmClient`].
pub struct SimLlm {
    profile: LlmProfile,
    seed: u64,
    ledger: TokenLedger,
    oracle: Oracle,
    /// Multiplier applied to the profile's latency model; `0.0` (the default)
    /// disables the simulated sleep so tests stay instant. Benchmarks enable
    /// it to make scheduling/caching wins measurable in wall-clock.
    latency_scale: f64,
    /// Seeded content-corruption schedule (see [`crate::mangle`]). `None`
    /// means responses are never mangled.
    mangling: Option<MangleSchedule>,
    /// Per-request attempt marks set through [`LlmClient::note_reask`]:
    /// `salt → attempt`. An absent entry is attempt 0 (the first ask). The
    /// mangle draw folds the attempt in, so a re-ask redraws independently.
    attempts: Mutex<HashMap<u64, u32>>,
    /// Number of first-ask responses this simulator actually corrupted —
    /// the conformance suite's "zero silent drops" reference: every count
    /// here must reappear as a `mangled` count in the repair layer.
    mangled_responses: Mutex<usize>,
    profile_cache: Mutex<HashMap<ProfileKey, Arc<ColumnProfile>>>,
    /// The backend's serving slots ([`SimLlm::SERVING_CAPACITY`] of them): a
    /// call holds one for its modelled latency, and a call that finds them
    /// all taken waits for one before its latency starts.
    serving: Budget,
}

impl std::fmt::Debug for SimLlm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimLlm")
            .field("profile", &self.profile.name)
            .field("seed", &self.seed)
            .field("has_oracle", &self.oracle.mask.is_some())
            .finish()
    }
}

impl SimLlm {
    /// How many requests one simulated backend serves at once. Fixed, like
    /// the batch size of a served deployment; calls beyond it queue.
    pub const SERVING_CAPACITY: usize = 8;

    /// Creates a simulator for the given backbone profile.
    pub fn new(profile: LlmProfile, seed: u64) -> Self {
        Self {
            profile,
            seed,
            ledger: TokenLedger::new(),
            oracle: Oracle::default(),
            latency_scale: 0.0,
            mangling: None,
            attempts: Mutex::new(HashMap::new()),
            mangled_responses: Mutex::new(0),
            profile_cache: Mutex::new(HashMap::new()),
            serving: Budget::new(Self::SERVING_CAPACITY),
        }
    }

    /// The paper's default backbone (Qwen2.5-72B).
    pub fn default_model(seed: u64) -> Self {
        Self::new(LlmProfile::qwen_72b(), seed)
    }

    /// Supplies the ground-truth error mask so labelling fidelity follows the
    /// backbone profile (used by the experiment harness; omit for true
    /// zero-knowledge heuristic operation).
    pub fn with_oracle(mut self, mask: ErrorMask) -> Self {
        self.oracle.mask = Some(mask);
        self
    }

    /// Supplies per-cell error types (from the injector's bookkeeping) so the
    /// per-type recalls of the profile apply precisely.
    pub fn with_error_types(
        mut self,
        types: impl IntoIterator<Item = ((usize, usize), ErrorType)>,
    ) -> Self {
        self.oracle.types.extend(types);
        self
    }

    /// Enables simulated serving latency: every call sleeps for
    /// `scale × profile.latency.call_cost(...)` after rendering its prompt
    /// and response, holding one of the [`SimLlm::SERVING_CAPACITY`] serving
    /// slots while it does. `0.0` disables the sleep; the per-call cost is
    /// recorded in the ledger either way.
    pub fn with_latency_scale(mut self, scale: f64) -> Self {
        self.latency_scale = scale.max(0.0);
        self
    }

    /// Attaches a seeded content-corruption schedule (see [`crate::mangle`]).
    ///
    /// Mangled calls *succeed*: the response body is corrupted per the
    /// schedule's seeded draw over `(salt, attempt)` and charged to the
    /// ledger at its corrupted size. The FM_ED per-tuple path
    /// ([`LlmClient::detect_tuple`]) is exempt — it is a baseline outside the
    /// pipeline's repair layer, so corrupting it would only measure the
    /// baseline's lack of a repair path, not the pipeline's degradation.
    pub fn with_mangling(mut self, schedule: MangleSchedule) -> Self {
        self.mangling = Some(schedule);
        self
    }

    /// How many first-ask responses were actually corrupted so far. The
    /// conformance suite compares this against the repair layer's `mangled`
    /// counters: equality proves no corruption slipped through undetected.
    pub fn mangled_responses(&self) -> usize {
        *self.mangled_responses.lock()
    }

    /// The mangle decision for the request identified by `salt` at its
    /// current attempt mark. Returns `(attempt, kind)`; the caller records
    /// the corruption via [`SimLlm::record_mangled`] only if it actually
    /// applies the transform (degenerate responses with nothing to corrupt
    /// are skipped, so the silent-drop reference counter stays exact).
    fn mangle_decision(&self, salt: u64) -> (u32, Option<MangleKind>) {
        let attempt = self.attempts.lock().get(&salt).copied().unwrap_or(0);
        let kind = self.mangling.as_ref().and_then(|s| s.decide(salt, attempt));
        (attempt, kind)
    }

    /// Bumps the silent-drop reference counter for an applied first-ask
    /// corruption (re-ask corruptions are accounted inside the repair
    /// layer's `defaulted` bucket, not as fresh mangles).
    fn record_mangled(&self, attempt: u32) {
        if attempt == 0 {
            *self.mangled_responses.lock() += 1;
        }
    }

    /// Records one rendered call in the ledger (tokens + simulated latency),
    /// admits it to a serving slot (waiting while all are taken) and, when
    /// latency simulation is enabled, sleeps for the scaled cost in it.
    /// `reask` marks the call as a repair-layer re-ask, booking its tokens on
    /// the ledger's distinct re-ask line (still included in the main usage).
    fn charge(&self, prompt: &str, response: &str, reask: bool) {
        let input = crate::token::count_tokens(prompt);
        let output = crate::token::count_tokens(response);
        if reask {
            self.ledger.record_reask_counts(input, output);
        } else {
            self.ledger.record_counts(input, output);
        }
        let cost = self.profile.latency.call_cost(input, output);
        self.ledger.record_sim_cost(cost);
        let slot = self.serving.acquire();
        self.ledger
            .record_admission(slot.in_flight(), slot.waited());
        if self.latency_scale > 0.0 {
            std::thread::sleep(cost.mul_f64(self.latency_scale));
        }
    }

    fn truth_for(&self, row: usize, col: usize) -> Option<(bool, Option<ErrorType>)> {
        let mask = self.oracle.mask.as_ref()?;
        if row >= mask.n_rows() || col >= mask.n_cols() {
            return None;
        }
        let is_error = mask.get(row, col);
        let ty = self.oracle.types.get(&(row, col)).copied();
        Some((is_error, ty))
    }

    /// The unmangled answer to `request`.
    fn answer(&self, request: &Request<'_>) -> Response {
        let profile =
            |ctx: &AttributeContext<'_>| self.column_profile(ctx.table, ctx.column, ctx.correlated);
        match *request {
            Request::Criteria { ctx } => Response::Criteria(criteria_gen::build_criteria(
                &profile(&ctx),
                self.profile.criteria_quality,
            )),
            Request::Analysis { ctx } => {
                Response::Analysis(guideline_gen::build_analysis(&profile(&ctx)))
            }
            Request::Guideline { ctx, analysis } => {
                Response::Guideline(guideline_gen::build_guideline(&profile(&ctx), analysis))
            }
            Request::Labels {
                ctx,
                guideline,
                rows,
            } => {
                let column = profile(&ctx);
                Response::Flags(
                    rows.iter()
                        .map(|&row| {
                            labeling::label_cell(
                                &self.profile,
                                &column,
                                ctx.table,
                                row,
                                ctx.column,
                                self.truth_for(row, ctx.column),
                                guideline.is_some(),
                                self.seed,
                            )
                        })
                        .collect(),
                )
            }
            Request::Refine {
                ctx,
                clean,
                errors,
                existing,
            } => Response::Criteria(criteria_gen::refine_criteria(
                &profile(&ctx),
                existing,
                clean,
                errors,
            )),
            Request::Augment { ctx, clean, count } => Response::Values(augment::augment_errors(
                &profile(&ctx),
                clean,
                count,
                self.seed,
            )),
            Request::Tuple { table, row } => Response::Flags(
                (0..table.n_cols())
                    .map(|col| {
                        let column = self.column_profile(table, col, &[]);
                        labeling::detect_tuple_cell(
                            &self.profile,
                            &column,
                            table,
                            row,
                            col,
                            self.truth_for(row, col),
                            self.seed,
                        )
                    })
                    .collect(),
            ),
        }
    }

    /// The profile of `column`, built once per table shape, column and FD
    /// determinant: the profile's FD mapping comes from the first correlated
    /// attribute, so a profile built for one determinant must not answer a
    /// request that names another.
    fn column_profile(
        &self,
        table: &Table,
        column: usize,
        correlated: &[usize],
    ) -> Arc<ColumnProfile> {
        let key = (
            table.name().to_string(),
            table.n_rows(),
            column,
            correlated.first().copied(),
        );
        {
            let cache = self.profile_cache.lock();
            if let Some(p) = cache.get(&key) {
                return Arc::clone(p);
            }
        }
        let profile = Arc::new(ColumnProfile::analyze(table, column, correlated));
        self.profile_cache.lock().insert(key, Arc::clone(&profile));
        profile
    }
}

/// Corrupts `response` with `kind`, returning whether it did: an empty
/// label batch or augment answer has nothing to corrupt and comes back
/// untouched, so the silent-drop reference counter only counts real
/// corruptions.
fn mangle_response(response: Response, kind: MangleKind, n_cols: usize) -> (Response, bool) {
    let mangled = match response {
        Response::Criteria(set) => {
            Response::Criteria(criteria_gen::mangle_criteria(set, kind, n_cols))
        }
        Response::Analysis(analysis) => {
            Response::Analysis(guideline_gen::mangle_analysis(analysis, kind))
        }
        Response::Guideline(guideline) => {
            Response::Guideline(guideline_gen::mangle_guideline(guideline, kind))
        }
        Response::Flags(labels) if !labels.is_empty() => {
            Response::Flags(labeling::mangle_labels(labels, kind))
        }
        Response::Values(values) if !values.is_empty() => {
            Response::Values(augment::mangle_values(values, kind))
        }
        untouched => return (untouched, false),
    };
    (mangled, true)
}

impl LlmClient for SimLlm {
    fn name(&self) -> &str {
        &self.profile.name
    }

    fn ledger(&self) -> &TokenLedger {
        &self.ledger
    }

    fn complete(&self, request: &Request<'_>) -> Response {
        let salt = self.request_salt(request);
        // The FM_ED tuple check is never mangled (see `with_mangling`), so
        // it is never booked as a re-ask either.
        let (attempt, mangle) = match request {
            Request::Tuple { .. } => (0, None),
            _ => self.mangle_decision(salt),
        };
        let answer = self.answer(request);
        let response = match mangle {
            None => answer,
            Some(kind) => {
                let (table, ..) = request.target();
                let (response, mangled) = mangle_response(answer, kind, table.n_cols());
                if mangled {
                    self.record_mangled(attempt);
                }
                response
            }
        };
        let text = request.render(&response);
        self.charge(&request.prompt(), &text, attempt > 0);
        response
    }

    fn request_salt(&self, request: &Request<'_>) -> u64 {
        // The simulator's answers depend on hidden state a prompt does not
        // capture: the seed (pseudo-random draws hash the *row index*) and
        // the oracle truth of the referenced cells. Fold all of it into the
        // salt so a caching layer can never conflate two requests whose
        // correct responses differ.
        let (table, column, rows) = request.target();
        let mut h: u64 = 0x51_7c_c1_b7_27_22_0a_95 ^ self.seed;
        let mut mix = |word: u64| {
            h = (h.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
        };
        mix(self.oracle.mask.is_some() as u64);
        let cols: Vec<usize> = match column {
            Some(c) => vec![c],
            None => (0..table.n_cols()).collect(),
        };
        // Fold the column identity in even when `rows` is empty (the
        // refine/augment requests), so each per-attribute request draws its
        // own mangle decision and keeps a distinct re-ask attempt mark.
        for &col in &cols {
            mix(col as u64 + 1);
        }
        for &row in rows {
            mix(row as u64);
            for &col in &cols {
                match self.truth_for(row, col) {
                    None => mix(0),
                    Some((is_error, ty)) => {
                        mix(1 + is_error as u64);
                        mix(ty.map(|t| t as u64 + 1).unwrap_or(0));
                    }
                }
            }
        }
        h
    }

    fn note_reask(&self, salt: u64, attempt: u32) {
        if attempt == 0 {
            self.attempts.lock().remove(&salt);
        } else {
            self.attempts.lock().insert(salt, attempt);
        }
    }

    fn max_in_flight(&self) -> Option<usize> {
        Some(self.serving.capacity())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zeroed_table::Table;

    fn fixture() -> (Table, ErrorMask) {
        let mut rows: Vec<Vec<String>> = (0..120)
            .map(|i| {
                let city = ["Boston", "Denver", "Phoenix"][i % 3];
                let state = ["MA", "CO", "AZ"][i % 3];
                vec![
                    city.to_string(),
                    state.to_string(),
                    format!("{:05}", 10_000 + (i % 3) * 111),
                ]
            })
            .collect();
        let clean = Table::new(
            "cities",
            vec!["city".into(), "state".into(), "zip".into()],
            rows.clone(),
        )
        .unwrap();
        rows[3][1] = "".into();
        rows[7][2] = "1x0".into();
        rows[11][1] = "AZ".into(); // inconsistent with Phoenix? row 11 % 3 = 2 -> Phoenix/AZ ... choose another
        rows[12][1] = "CO".into(); // row 12 is Boston -> rule violation
        let dirty = Table::new(
            "cities",
            vec!["city".into(), "state".into(), "zip".into()],
            rows,
        )
        .unwrap();
        let mask = ErrorMask::diff(&dirty, &clean).unwrap();
        (dirty, mask)
    }

    fn ctx<'a>(
        table: &'a Table,
        column: usize,
        corr: &'a [usize],
        samples: &'a [usize],
    ) -> AttributeContext<'a> {
        AttributeContext {
            table,
            column,
            correlated: corr,
            sample_rows: samples,
        }
    }

    #[test]
    fn end_to_end_calls_record_tokens() {
        let (table, mask) = fixture();
        let llm = SimLlm::default_model(3).with_oracle(mask);
        let corr = vec![0usize];
        let samples: Vec<usize> = (0..20).collect();
        let c = ctx(&table, 1, &corr, &samples);
        let criteria = llm.generate_criteria(&c);
        assert!(!criteria.is_empty());
        let analysis = llm.analyze_distribution(&c);
        assert_eq!(analysis.column, "state");
        let guideline = llm.generate_guideline(&c, &analysis);
        assert_eq!(guideline.error_types.len(), 5);
        let labels = llm.label_batch(&c, Some(&guideline), &samples);
        assert_eq!(labels.len(), samples.len());
        let refined = llm.refine_criteria(&c, &["MA".into(), "CO".into()], &["".into()], &criteria);
        assert!(refined.len() >= criteria.len());
        let augmented = llm.augment_errors(&c, &["MA".into(), "CO".into()], 6);
        assert_eq!(augmented.len(), 6);
        let tuple_flags = llm.detect_tuple(&table, 3);
        assert_eq!(tuple_flags.len(), 3);
        let usage = llm.ledger().usage();
        assert!(usage.requests >= 7);
        assert!(usage.input_tokens > usage.output_tokens / 10);
        assert!(usage.output_tokens > 0);
    }

    #[test]
    fn oracle_driven_labels_are_mostly_correct_for_strong_model() {
        let (table, mask) = fixture();
        let llm = SimLlm::default_model(5).with_oracle(mask.clone());
        let corr = vec![0usize];
        let all_rows: Vec<usize> = (0..table.n_rows()).collect();
        let c = ctx(&table, 1, &corr, &all_rows);
        let labels = llm.label_batch(&c, None, &all_rows);
        let correct = all_rows
            .iter()
            .zip(labels.iter())
            .filter(|(&row, &lab)| mask.get(row, 1) == lab)
            .count();
        assert!(
            correct as f64 / all_rows.len() as f64 > 0.9,
            "correct {correct}/{}",
            all_rows.len()
        );
    }

    #[test]
    fn zero_knowledge_mode_still_flags_obvious_errors() {
        let (table, _mask) = fixture();
        let llm = SimLlm::default_model(1); // no oracle
        let corr = vec![0usize];
        let rows = vec![3usize, 0usize];
        let c = ctx(&table, 1, &corr, &rows);
        let labels = llm.label_batch(&c, None, &rows);
        assert!(labels[0], "missing value should be flagged heuristically");
        assert!(!labels[1], "clean value should pass");
    }

    #[test]
    fn mangling_corrupts_responses_and_reasks_redraw() {
        let (table, mask) = fixture();
        let llm = SimLlm::default_model(9)
            .with_oracle(mask)
            .with_mangling(MangleSchedule::uniform(7, 1.0));
        let corr = vec![0usize];
        let rows: Vec<usize> = (0..10).collect();
        let c = ctx(&table, 1, &corr, &rows);
        // rate 1.0: the first ask is always corrupted, and the arity contract
        // of a labelling response is always broken by every mangle kind.
        let labels = llm.label_batch(&c, None, &rows);
        assert_ne!(labels.len(), rows.len());
        assert_eq!(llm.mangled_responses(), 1);
        // A re-ask redraws at attempt 1 and is charged on the re-ask line;
        // it does not count as a fresh first-ask corruption.
        let salt = llm.request_salt(&Request::Labels {
            ctx: c,
            guideline: None,
            rows: &rows,
        });
        llm.note_reask(salt, 1);
        let again = llm.label_batch(&c, None, &rows);
        assert_ne!(again.len(), rows.len(), "rate 1.0 mangles re-asks too");
        assert_eq!(llm.mangled_responses(), 1);
        assert_eq!(llm.ledger().reask_usage().requests, 1);
        llm.note_reask(salt, 0);
        // Degenerate responses with nothing to corrupt are never counted.
        let before = llm.mangled_responses();
        let empty = llm.augment_errors(&c, &[], 5);
        assert!(empty.is_empty());
        assert_eq!(llm.mangled_responses(), before);
        // A healthy schedule never corrupts anything.
        let healthy = SimLlm::default_model(9).with_mangling(MangleSchedule::healthy(7));
        let ok = healthy.label_batch(&c, None, &rows);
        assert_eq!(ok.len(), rows.len());
        assert_eq!(healthy.mangled_responses(), 0);
    }

    #[test]
    fn request_salt_distinguishes_columns_without_rows() {
        let (table, mask) = fixture();
        let llm = SimLlm::default_model(9).with_oracle(mask);
        // The refine/augment requests name no rows; the salt must still
        // depend on the column so per-attribute requests stay distinct.
        let corr = vec![0usize];
        let salt = |column| {
            llm.request_salt(&Request::Augment {
                ctx: ctx(&table, column, &corr, &[]),
                clean: &[],
                count: 0,
            })
        };
        assert_ne!(salt(0), salt(1));
    }

    #[test]
    fn answers_do_not_depend_on_earlier_requests() {
        // A tuple check profiles every column without an FD determinant; a
        // later criteria request naming one must still get the FD-aware
        // profile a fresh client builds.
        let (table, mask) = fixture();
        let corr = vec![0usize];
        let samples: Vec<usize> = (0..20).collect();
        let c = ctx(&table, 1, &corr, &samples);
        let fresh = SimLlm::default_model(7).with_oracle(mask.clone());
        let expected = fresh.generate_criteria(&c);
        let warmed = SimLlm::default_model(7).with_oracle(mask);
        warmed.detect_tuple(&table, 0);
        assert_eq!(warmed.generate_criteria(&c), expected);
    }

    #[test]
    fn serving_capacity_queues_calls_beyond_it() {
        let (table, mask) = fixture();
        let llm = SimLlm::default_model(4)
            .with_oracle(mask)
            .with_latency_scale(0.2);
        assert_eq!(llm.max_in_flight(), Some(SimLlm::SERVING_CAPACITY));
        let corr = vec![0usize];
        let rows: Vec<usize> = (0..4).collect();
        let c = ctx(&table, 1, &corr, &rows);
        let callers = 2 * SimLlm::SERVING_CAPACITY;
        let start = std::sync::Barrier::new(callers);
        std::thread::scope(|s| {
            for _ in 0..callers {
                s.spawn(|| {
                    start.wait();
                    for _ in 0..3 {
                        llm.label_batch(&c, None, &rows);
                    }
                });
            }
        });
        let served = llm.ledger().concurrency();
        assert!(
            served.peak_in_flight <= SimLlm::SERVING_CAPACITY,
            "{served:?}"
        );
        assert!(
            served.waits > 0,
            "16 callers must queue for 8 slots: {served:?}"
        );
        assert_eq!(llm.ledger().usage().requests, 3 * callers);
    }

    #[test]
    fn determinism_across_identical_clients() {
        let (table, mask) = fixture();
        let corr = vec![0usize];
        let rows: Vec<usize> = (0..40).collect();
        let a = SimLlm::default_model(9).with_oracle(mask.clone());
        let b = SimLlm::default_model(9).with_oracle(mask);
        let ca = ctx(&table, 2, &corr, &rows);
        assert_eq!(
            a.label_batch(&ca, None, &rows),
            b.label_batch(&ca, None, &rows)
        );
        assert_eq!(a.name(), "Qwen2.5-72b");
    }
}
