//! The four-step ZeroED pipeline.
//!
//! One code path runs every configuration, on a
//! [`zeroed_runtime::Scheduler`] sized by [`ZeroEdConfig::runtime`].
//! Feature representation (step 1) fans out per attribute and finishes for
//! every attribute first: attribute j's unified vector holds its correlated
//! attributes' blocks. The barrier is the fitted feature state
//! ([`zeroed_features::FittedFeatures`]: frequency model and per-distinct
//! caches), not the matrices. Past it, attribute j's sampling →
//! labelling → training-data construction → detector reads nothing of
//! another attribute (§III-C/D), so the scheduler streams each attribute's
//! chain ([`zeroed_runtime::Scheduler::run_chain`]) and one attribute's
//! detector overlaps another's waits on the model. Attribute j's unified
//! vectors have two readers, its sampling and its detector, and both read
//! only the distinct ones. Each of those phases streams them from the
//! fitted caches a chunk of rows at a time into a
//! [`zeroed_cluster::DedupPoints`] ([`features::distinct_vectors`]) and
//! drops it on return, so no attribute's `n_rows × width` matrix is ever
//! built: a CPU-lane worker holds one attribute's distinct vectors, its
//! row codes and one chunk. Stage order holds within an attribute, and
//! results come back in attribute order, so the worker count never changes
//! the mask.
//!
//! The work runs at two widths. What mostly waits on the model (criteria
//! generation; labelling with training-data construction) keeps as many
//! requests in flight as the model can serve
//! ([`zeroed_llm::LlmClient::max_in_flight`]; 8 for the simulator), on the
//! runtime's long-lived request threads; an attribute's label batches fan
//! out at that width again, on scoped helpers of its middle phase
//! ([`labeling`]). CPU-bound work (criteria
//! evaluation, sampling, the detector) runs one worker per core. A pinned
//! `RuntimeConfig::workers` sets both widths.
//! When the request cache is on (the default), the
//! [`zeroed_llm::LlmClient`] is wrapped in a [`zeroed_runtime::CachedLlm`],
//! so identical requests (retries, re-runs of the same detection) replay
//! stored responses instead of calling the model.
//!
//! "Sequential" ([`ZeroEdConfig::sequential_runtime`]) is this path with
//! one worker and no cache: the scheduler then runs every task in order on
//! the calling thread. It is the reference that 4-worker, cached, mangled
//! and store-warmed runs must match bit for bit (the
//! `runtime_equivalence`, `store_warm_start` and `mangle_conformance`
//! integration tests).
//!
//! With [`ZeroEdConfig::with_store`] the cache additionally persists every
//! published response to a crash-safe on-disk store (`zeroed-store`) and
//! preloads it at construction, so a *fresh process* re-running the same
//! detection makes zero LLM requests (asserted by the `store_warm_start`
//! conformance tests). Only the cache reads or writes the store, so a
//! detector without the cache never opens it.
//!
//! The two *local* hot stages run dedup-weighted fast paths — [`sampling`]
//! clusters each attribute over its distinct feature vectors and
//! [`detector`] trains/predicts per distinct row with multiplicity weights —
//! with their scalar predecessors retained as equivalence oracles (see
//! ARCHITECTURE.md, "The non-LLM wall").

pub mod detector;
pub mod features;
pub mod labeling;
pub mod repair;
pub mod sampling;
pub mod training_data;

use crate::config::ZeroEdConfig;
use crate::report::{DetectionOutcome, PipelineStats};
use std::sync::Arc;
use std::time::{Duration, Instant};
use zeroed_features::{FeatureBuilder, FeatureConfig};
use zeroed_llm::{AttributeContext, LlmClient};
use zeroed_obs::{Profiler, StageProfile};
use zeroed_runtime::{CachedLlm, ResponseCache, Scheduler, StoreLayer};
use zeroed_table::{ErrorMask, Table};

/// A parallel leaf node for a grafted maintenance timing (store opens,
/// fsyncs, compactions): its total is wall time spent off the critical
/// path or on another thread, so it must not count against the parent's
/// sequential accounting.
fn parallel_leaf(name: &str, nanos: u64, count: u64) -> StageProfile {
    let mut leaf = StageProfile::leaf(name, Duration::from_nanos(nanos), count);
    leaf.parallel = true;
    leaf
}

/// The ZeroED error detector.
///
/// Construct with a [`ZeroEdConfig`] and call [`ZeroEd::detect`] with the
/// dirty table and an [`LlmClient`]. The detector never looks at ground truth;
/// any oracle knowledge lives exclusively inside the (simulated) LLM client
/// supplied by the caller.
///
/// The detector owns the runtime's response cache, which persists across
/// [`ZeroEd::detect`] calls (and is shared by clones): re-running detection
/// over the same table and model replays cached responses instead of paying
/// for the LLM again. With [`ZeroEdConfig::with_store`] the cache is also
/// backed by a crash-safe on-disk store: published responses are written
/// through in the background, and construction preloads every persisted
/// response — a *new process* pointed at the same store directory replays
/// the previous run's answers with zero LLM requests.
#[derive(Debug, Clone)]
pub struct ZeroEd {
    config: ZeroEdConfig,
    cache: Arc<ResponseCache>,
    /// Persistence layer (shared by clones; the last drop drains pending
    /// writes and syncs the store).
    store: Option<Arc<StoreLayer>>,
}

impl ZeroEd {
    /// Creates a detector with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if [`ZeroEdConfig::runtime`] enables the cache and names a
    /// response-store directory that cannot be opened (real I/O errors only
    /// — damaged store *content* is recovered, never fatal). Use
    /// [`ZeroEd::try_new`] to handle the error instead.
    pub fn new(config: ZeroEdConfig) -> Self {
        Self::try_new(config).expect("failed to open the configured response store")
    }

    /// Creates a detector, surfacing response-store I/O errors. The store is
    /// opened (locked and preloaded) only when the cache is on: nothing else
    /// reads or writes it.
    pub fn try_new(config: ZeroEdConfig) -> std::io::Result<Self> {
        /// Completed response-cache entries kept before a generational flush.
        const CACHE_CAPACITY: usize = 1 << 20;
        let cache = Arc::new(ResponseCache::new(CACHE_CAPACITY));
        let runtime = &config.runtime;
        let store = match runtime.store.as_ref().filter(|_| runtime.cache) {
            Some(store_config) => {
                let layer = StoreLayer::open(store_config.clone())?;
                layer.preload_into(&cache)?;
                Some(Arc::new(layer))
            }
            None => None,
        };
        Ok(Self {
            config,
            cache,
            store,
        })
    }

    /// Creates a detector with the paper's default configuration.
    pub fn with_defaults() -> Self {
        Self::new(ZeroEdConfig::default())
    }

    /// The detector's configuration.
    pub fn config(&self) -> &ZeroEdConfig {
        &self.config
    }

    /// The runtime response cache (shared with clones of this detector).
    /// Before the first run its length is the number of records preloaded
    /// from the store.
    pub fn cache(&self) -> &Arc<ResponseCache> {
        &self.cache
    }

    /// The persistence layer backing the cache, when a store is configured
    /// and the cache is on (shared with clones of this detector). Its
    /// [`StoreLayer::store`] keeps the store's own facts: the recovery
    /// report from open and the live and dead record counts. The layer holds
    /// the store directory's lock until the detector and all its clones are
    /// dropped, so a second detector on the same directory fails to open.
    pub fn store(&self) -> Option<&Arc<StoreLayer>> {
        self.store.as_ref()
    }

    /// Runs the full pipeline on a dirty table and returns the predicted
    /// error mask together with statistics and the run's stage profile.
    ///
    /// Every stage response flows through the repair/re-ask layer
    /// ([`repair::RepairLlm`]) before the pipeline — or the response cache —
    /// sees it: corrupted responses are structurally repaired, re-asked
    /// within [`ZeroEdConfig::reask_budget`], or replaced by deterministic
    /// stage defaults, with exact per-stage accounting in
    /// [`PipelineStats::repair`]. Because the cache wraps the *repaired*
    /// client, persisted stores always hold repaired responses and warm
    /// starts replay them bit-identically with zero requests.
    pub fn detect(&self, dirty: &Table, llm: &dyn LlmClient) -> DetectionOutcome {
        // One profiler per run: the features barrier and the streamed
        // attribute chains record sequential stage spans under the root,
        // while the per-attribute phases, the repair ladder, the scheduler,
        // the response cache and the store graft *parallel* distribution
        // nodes (their totals are task wall time summed across workers or
        // cache-lifetime sums, not coordinating-thread wall time).
        let profiler = Profiler::new("detect");
        let repairing = repair::RepairLlm::new(llm, self.config.reask_budget)
            .with_span(profiler.root().child_parallel("repair"));
        let mut outcome = if self.config.runtime.cache {
            let mut cached = CachedLlm::for_table(&repairing, Arc::clone(&self.cache), dirty);
            // A fresh sink per run: its counters attribute write-through
            // activity to this run alone, even when cloned detectors
            // share the layer and persist concurrently.
            let sink = self.store.as_ref().map(|layer| layer.sink());
            if let Some(sink) = &sink {
                cached = cached.with_persistence(sink.clone());
            }
            let mut outcome = self.run_stages(dirty, &cached, &profiler);
            // The run's own adapter and sink counters: clones of this
            // detector share the cache and the store and may detect
            // concurrently.
            outcome.stats.cache = cached.stats();
            if let (Some(layer), Some(sink)) = (&self.store, &sink) {
                // Wait for the background writer to drain this run's
                // offers so the persisted counters are exact (a queue
                // barrier, not an fsync — the hot path stayed unblocked).
                layer.drain();
                outcome.stats.persist = sink.stats();
            }
            outcome
        } else {
            self.run_stages(dirty, &repairing, &profiler)
        };
        outcome.stats.repair = repairing.counters();
        if let Some(profile) = outcome.stats.stage_profile.as_mut() {
            // Graft the response-cache and store distributions. Both live
            // longer than one run (clones share the cache; the store is
            // opened at construction), so their totals are lifetime sums —
            // flagged parallel, they never count against run accounting.
            let ct = self.cache.timings();
            let mut cache_node = StageProfile::new("llm_cache");
            cache_node.parallel = true;
            cache_node.count = ct.lock_hold.count;
            cache_node.wall_nanos =
                ct.lock_hold.total_nanos + ct.park_wait.total_nanos + ct.preload.total_nanos;
            cache_node.children.push(ct.lock_hold.to_stage("lock_hold"));
            cache_node.children.push(ct.park_wait.to_stage("park_wait"));
            cache_node.children.push(ct.preload.to_stage("preload"));
            profile.children.push(cache_node);
            if let Some(layer) = &self.store {
                let lt = layer.timings();
                let ss = layer.store().stats();
                let mut store_node = StageProfile::new("store");
                store_node.parallel = true;
                store_node.wall_nanos =
                    lt.open_nanos + lt.preload_nanos + ss.fsync_nanos + ss.compaction_nanos;
                store_node
                    .children
                    .push(parallel_leaf("open", lt.open_nanos, 1));
                store_node.children.push(parallel_leaf(
                    "preload",
                    lt.preload_nanos,
                    u64::from(lt.preload_nanos > 0),
                ));
                store_node
                    .children
                    .push(parallel_leaf("fsync", ss.fsync_nanos, ss.fsyncs));
                store_node.children.push(parallel_leaf(
                    "compaction",
                    ss.compaction_nanos,
                    ss.compactions,
                ));
                profile.children.push(store_node);
            }
        }
        outcome
    }

    /// The pipeline itself: the features stage fanned out per attribute,
    /// then every attribute's chain of the remaining steps, on a scheduler
    /// built from [`ZeroEdConfig::runtime`] and the model's serving capacity
    /// (one worker runs every task in order on the calling thread).
    fn run_stages(
        &self,
        dirty: &Table,
        llm: &dyn LlmClient,
        profiler: &Profiler,
    ) -> DetectionOutcome {
        let config = &self.config;
        let n_rows = dirty.n_rows();
        let n_cols = dirty.n_cols();
        let mut stats = PipelineStats::default();

        if n_rows == 0 || n_cols == 0 {
            return DetectionOutcome {
                mask: ErrorMask::for_table(dirty),
                stats,
            };
        }

        let root = profiler.root();
        let t_run = Instant::now();
        let scheduler = Scheduler::for_client(&config.runtime, llm);

        // ------------------------------------------------------------------
        // Step 1 — feature representation with criteria reasoning (§III-B).
        // ------------------------------------------------------------------
        let t0 = Instant::now();
        let step = root.child("features");
        // Intern the table once; the dictionary is shared by correlated-
        // attribute selection, the frequency model and the feature caches.
        let dict = step.child("intern").time(|| Arc::new(dirty.intern()));
        let correlated = step
            .child("correlated_nmi")
            .time(|| features::compute_correlated_dict(&dict, config));
        let criteria = step
            .child("criteria_llm")
            .time(|| features::generate_criteria_on(&scheduler, dirty, &correlated, config, llm));
        let extra = step.child("criteria_features").time(|| {
            features::criteria_extra_dict_on(
                &scheduler,
                &criteria,
                dirty,
                &dict,
                config.criteria_engine,
            )
        });
        let feature_config = FeatureConfig {
            embed_dim: config.embed_dim,
            top_k_corr: config.effective_top_k(),
            ..FeatureConfig::default()
        };
        let builder = FeatureBuilder::new(feature_config);
        // Reuse the correlated attributes computed above (the same lists the
        // LLM prompt contexts describe) — the NMI sweep runs exactly once.
        let fitted = step
            .child("fit")
            .time(|| builder.fit_prepared(dirty, Arc::clone(&dict), correlated.clone(), &extra));
        step.record(t0.elapsed());

        // ------------------------------------------------------------------
        // Steps 2–5 — each attribute's chain: representative sampling and
        // holistic LLM labelling (§III-C), training-data construction
        // (Algorithm 1), then the detector (§III-D). Past the features
        // barrier attribute j reads nothing of another attribute, so the
        // chains stream: sampling and the detector run on the CPU lane,
        // labelling (analysis → guideline, then the label batches fanned
        // out together on scoped helpers) and Algorithm 1 (propagation →
        // refinement → verification → augmentation) at the model's width,
        // and one attribute's detector overlaps another's LLM waits.
        // Attribute j's unified vectors have no other reader, so
        // its sampling and its detector each stream its distinct vectors
        // from the fitted caches and drop them on return: a CPU-lane worker
        // holds one attribute's distinct vectors and never a matrix.
        // (Handing the sampling phase's vectors on to the detector would
        // keep every attribute's alive, because the lane runs all the
        // samplings before any detector.)
        // ------------------------------------------------------------------
        let t1 = Instant::now();
        let step = root.child("attributes");
        let vectors_dist = step.child_dist("distinct_vectors");
        let sample_dist = step.child_dist("sample_column");
        let label_dist = step.child_dist("label_attribute");
        let construct_dist = step.child_dist("construct_attribute");
        let verify_dist = step.child_dist("criteria_verify");
        let predict_dist = step.child_dist("train_predict");
        let chains = scheduler.run_chain(
            n_cols,
            |j| {
                let mut vectors = vectors_dist.time(|| features::distinct_vectors(&fitted, j));
                sample_dist.time(|| {
                    sampling::sample_distinct(
                        &mut vectors,
                        config.clusters_for(n_rows),
                        config.sampling.into(),
                        config.seed.wrapping_add(j as u64),
                        config.max_cluster_rows,
                    )
                })
            },
            |j, sampled| {
                let ctx = AttributeContext {
                    table: dirty,
                    column: j,
                    correlated: &correlated[j],
                    sample_rows: &sampled.representatives,
                };
                let labels = label_dist.time(|| {
                    labeling::label_representatives(&ctx, config, llm, &sampled.representatives)
                });
                let training = construct_dist.time(|| {
                    training_data::construct(
                        &ctx,
                        config,
                        llm,
                        &sampled,
                        &labels.labels,
                        criteria[j].clone(),
                        &dict,
                        Some(&verify_dist),
                    )
                });
                (labels, training)
            },
            |j, (labels, training)| {
                let vectors = vectors_dist.time(|| features::distinct_vectors(&fitted, j));
                let prediction = predict_dist.time(|| {
                    detector::train_and_predict_distinct(
                        dirty, j, &fitted, vectors, &training, config,
                    )
                });
                (labels, training, prediction)
            },
        );
        let mut mask = ErrorMask::for_table(dirty);
        for (j, (labels, training, prediction)) in chains.iter().enumerate() {
            stats.llm_labeled_cells += labels.labels.len();
            stats.label_fallback_cells += labels.fallback_cells;
            stats.label_defaulted_cells += labels.defaulted_cells;
            stats.propagated_cells += training.propagated_cells;
            stats.verified_clean_rows += training.clean_rows.len();
            stats.error_rows += training.error_rows.len();
            stats.augmented_rows += training.augmented.len();
            stats.augmented_dropped += prediction.augmented_dropped;
            stats.criteria_count += training.criteria.as_ref().map_or(0, |c| c.len());
            for (i, &flag) in prediction.flags.iter().enumerate() {
                if flag {
                    mask.set(i, j, true);
                }
            }
        }
        step.record(t1.elapsed());

        stats.runtime_tasks = scheduler.stats().tasks as usize;

        root.record(t_run.elapsed());
        let mut profile = profiler.snapshot();
        // Graft the scheduler's per-task distributions: queue wait (submit →
        // pickup) and execute (task body) across the features fan-outs and
        // every chain phase. Task wall time summed over workers, so the node
        // is parallel.
        let st = scheduler.timings();
        let mut runtime_node = StageProfile::new("runtime");
        runtime_node.parallel = true;
        runtime_node.count = st.execute.count;
        runtime_node.wall_nanos = st.queue_wait.total_nanos + st.execute.total_nanos;
        runtime_node
            .children
            .push(st.queue_wait.to_stage("queue_wait"));
        runtime_node.children.push(st.execute.to_stage("execute"));
        profile.children.push(runtime_node);
        stats.stage_profile = Some(profile);

        DetectionOutcome { mask, stats }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zeroed_datagen::{generate, DatasetSpec, GenerateOptions};
    use zeroed_llm::SimLlm;
    use zeroed_runtime::RuntimeConfig;

    fn small_dataset() -> zeroed_datagen::GeneratedDataset {
        generate(
            DatasetSpec::Beers,
            &GenerateOptions {
                n_rows: 150,
                seed: 3,
                error_spec: None,
            },
        )
    }

    #[test]
    fn pipeline_produces_a_useful_mask_with_oracle_llm() {
        let ds = small_dataset();
        let types = ds
            .injected
            .iter()
            .map(|e| ((e.row, e.col), e.error_type))
            .collect::<Vec<_>>();
        let llm = SimLlm::default_model(1)
            .with_oracle(ds.mask.clone())
            .with_error_types(types);
        let config = ZeroEdConfig {
            label_rate: 0.1,
            ..ZeroEdConfig::fast()
        };
        let outcome = ZeroEd::new(config).detect(&ds.dirty, &llm);
        let report = outcome.mask.score_against(&ds.mask).unwrap();
        assert!(
            report.f1 > 0.45,
            "expected a reasonable F1 on an easy dataset, got {report}"
        );
        assert!(outcome.stats.llm_labeled_cells > 0);
        assert!(outcome.stats.verified_clean_rows > 0);
        assert!(outcome.stats.stage_profile.as_ref().unwrap().wall() > Duration::ZERO);
        // The LLM labelled far fewer cells than the table contains.
        assert!(outcome.stats.llm_labeled_cells < ds.dirty.n_cells() / 2);
        // The default path went through the scheduler.
        assert!(outcome.stats.runtime_tasks > 0);
    }

    /// The profile invariant for the streamed shape, on the default and the
    /// sequential run alike: the tree reconciles, the `features` and
    /// `attributes` spans cover at least 90% of the run, every phase node
    /// under `attributes` ran once per attribute, and each attribute's
    /// distinct vectors were streamed twice (for its sampling and its
    /// detector) instead of a matrix being built at the features barrier.
    fn assert_stage_profile(profile: &StageProfile, n_cols: usize) {
        assert!(profile.accounting_ok(), "\n{}", profile.render_table());
        assert!(
            profile.coverage() >= 0.9,
            "top-level stages cover {:.3} of root wall\n{}",
            profile.coverage(),
            profile.render_table()
        );
        for name in ["features", "attributes"] {
            assert!(profile.child(name).is_some(), "missing stage {name}");
        }
        for phase in [
            "sample_column",
            "label_attribute",
            "construct_attribute",
            "train_predict",
        ] {
            let node = profile
                .find(&format!("attributes/{phase}"))
                .unwrap_or_else(|| panic!("missing phase {phase}"));
            assert!(node.parallel, "{phase} is task wall time");
            assert_eq!(node.count, n_cols as u64, "{phase} runs once per attribute");
        }
        let builds = profile
            .find("attributes/distinct_vectors")
            .expect("missing node distinct_vectors");
        assert!(builds.parallel, "distinct_vectors is task wall time");
        assert_eq!(
            builds.count,
            2 * n_cols as u64,
            "one build for each attribute's sampling and one for its detector"
        );
        assert!(profile.find("features/build_matrices").is_none());
        assert!(profile.find("attributes/unified_matrix").is_none());
    }

    /// Records made across the whole tree: span records plus the grafted
    /// histogram samples.
    fn profile_records(p: &StageProfile) -> u64 {
        p.count + p.children.iter().map(profile_records).sum::<u64>()
    }

    #[test]
    fn stage_profile_accounts_for_the_run() {
        let ds = small_dataset();
        let n_cols = ds.dirty.n_cols();
        let llm = SimLlm::default_model(9).with_oracle(ds.mask.clone());
        let config = ZeroEdConfig {
            label_rate: 0.08,
            ..ZeroEdConfig::fast()
        };
        let detector = ZeroEd::new(config.clone());
        let t = Instant::now();
        let outcome = detector.detect(&ds.dirty, &llm);
        let wall = t.elapsed();
        let profile = outcome
            .stats
            .stage_profile
            .as_ref()
            .expect("a non-empty run must carry a stage profile");
        assert_stage_profile(profile, n_cols);
        // Always-on profiling stays cheap: the cost of one record, times the
        // records this run made, is under 2% of the run's wall.
        const PROBE_RECORDS: u32 = 50_000;
        let probe = Profiler::new("probe").root().child_dist("record");
        let t = Instant::now();
        for i in 0..PROBE_RECORDS {
            probe.record(Duration::from_nanos(u64::from(i)));
        }
        let per_record = t.elapsed() / PROBE_RECORDS;
        let cost = per_record.as_secs_f64() * profile_records(profile) as f64;
        assert!(
            cost < 0.02 * wall.as_secs_f64(),
            "profiler overhead {cost:.6} s exceeds 2% of the run's {wall:?}"
        );
        assert!(profile.find("features/criteria_llm").is_some());
        let execute = profile.find("runtime/execute").expect("scheduler node");
        assert!(execute.parallel && execute.count > 0);
        // Every stage response passes through the ladder's validate step.
        let validate = profile.find("repair/validate").expect("repair node");
        assert!(validate.count > 0);
        let cache = profile.find("llm_cache/lock_hold").expect("cache node");
        assert!(cache.parallel);

        // A warm re-run answers every request from the cache, and a
        // multi-worker run without the cache asks the model for each: the
        // same phases run either way.
        let warm = detector.detect(&ds.dirty, &llm);
        assert_eq!(warm.stats.cache.misses, 0);
        assert_stage_profile(warm.stats.stage_profile.as_ref().unwrap(), n_cols);
        let uncached = ZeroEd::new(config.clone().with_runtime(RuntimeConfig {
            workers: 4,
            cache: false,
            ..RuntimeConfig::default()
        }))
        .detect(&ds.dirty, &llm);
        assert_stage_profile(uncached.stats.stage_profile.as_ref().unwrap(), n_cols);

        // The sequential run is the same code on one worker: same stage
        // names, and every task executes inline without queueing.
        let seq = ZeroEd::new(config.sequential_runtime()).detect(&ds.dirty, &llm);
        let seq_profile = seq.stats.stage_profile.as_ref().unwrap();
        assert_stage_profile(seq_profile, n_cols);
        let execute = seq_profile.find("runtime/execute").expect("scheduler node");
        assert_eq!(execute.count, seq.stats.runtime_tasks as u64);
        assert_eq!(seq_profile.find("runtime/queue_wait").unwrap().count, 0);
    }

    #[test]
    fn pipeline_handles_empty_table() {
        let empty = Table::empty("e", vec!["a".into(), "b".into()]);
        let llm = SimLlm::default_model(0);
        let outcome = ZeroEd::with_defaults().detect(&empty, &llm);
        assert_eq!(outcome.mask.error_count(), 0);
        let seq = ZeroEd::new(ZeroEdConfig::default().sequential_runtime()).detect(&empty, &llm);
        assert_eq!(seq.mask.error_count(), 0);
    }

    #[test]
    fn ablations_run_and_disable_their_component() {
        let ds = small_dataset();
        let llm = SimLlm::default_model(2).with_oracle(ds.mask.clone());
        let base_config = ZeroEdConfig {
            label_rate: 0.08,
            ..ZeroEdConfig::fast()
        };
        let no_crit = ZeroEd::new(base_config.clone().without_criteria()).detect(&ds.dirty, &llm);
        assert_eq!(no_crit.stats.criteria_count, 0);
        let no_corr = ZeroEd::new(base_config.clone().without_correlated());
        assert_eq!(no_corr.config().effective_top_k(), 0);
        let no_veri =
            ZeroEd::new(base_config.clone().without_verification()).detect(&ds.dirty, &llm);
        assert_eq!(no_veri.stats.augmented_rows, 0);
    }

    #[test]
    fn repeated_detection_replays_the_cache() {
        let ds = small_dataset();
        let detector = ZeroEd::new(ZeroEdConfig {
            label_rate: 0.08,
            ..ZeroEdConfig::fast()
        });
        let llm_cold = SimLlm::default_model(4).with_oracle(ds.mask.clone());
        let cold = detector.detect(&ds.dirty, &llm_cold);
        assert_eq!(cold.stats.cache.hits, 0, "first run cannot hit");
        assert!(cold.stats.cache.misses > 0);

        // Fresh client, same seed and oracle: every request replays.
        let llm_warm = SimLlm::default_model(4).with_oracle(ds.mask.clone());
        let warm = detector.detect(&ds.dirty, &llm_warm);
        assert_eq!(warm.mask, cold.mask, "replayed run must be bit-identical");
        assert_eq!(warm.stats.cache.misses, 0, "warm run must be all hits");
        assert_eq!(warm.stats.cache.hits, cold.stats.cache.misses);
        assert!(warm.stats.cache.tokens_saved() > 0);
        assert_eq!(
            llm_warm.ledger().usage().requests,
            0,
            "warm run must not call the model"
        );
    }
}
