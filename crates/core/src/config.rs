//! ZeroED pipeline configuration, including the ablation switches evaluated in
//! the paper's Table IV.

use zeroed_cluster::SamplingMethod;
use zeroed_ml::MlpConfig;
use zeroed_runtime::RuntimeConfig;

/// Configuration of the ZeroED pipeline.
#[derive(Debug, Clone)]
pub struct ZeroEdConfig {
    /// Fraction of cells per attribute the LLM labels (the paper's default is
    /// 5%); also determines the number of clusters.
    pub label_rate: f64,
    /// Hard cap on the number of clusters (and therefore LLM-labelled cells)
    /// per attribute. Purely an engineering guard for very large tables; the
    /// paper's settings never reach it on the six comparison datasets.
    pub max_clusters_per_column: usize,
    /// Number of correlated attributes whose features are concatenated
    /// (paper default 2). Ignored when [`ZeroEdConfig::use_corr`] is false.
    pub top_k_corr: usize,
    /// Clustering/sampling strategy (paper default k-means; Table VI evaluates
    /// alternatives).
    pub sampling: SamplingMethodConfig,
    /// Number of sampled cells per labelling prompt (paper default 20).
    pub batch_size: usize,
    /// Semantic embedding dimensionality.
    pub embed_dim: usize,
    /// Detector (MLP) hyper-parameters.
    pub mlp: MlpConfig,
    /// Accuracy / pass-rate threshold of the mutual-verification step
    /// (Algorithm 1 uses 0.5).
    pub verification_threshold: f64,
    /// Upper bound on LLM-augmented error examples per attribute.
    pub max_augment_per_column: usize,
    /// Rows used when clustering very large attributes; remaining rows are
    /// assigned to the nearest centroid.
    pub max_cluster_rows: usize,
    /// Ablation switch: generate and use detection guidelines ("w/o Guid."
    /// disables this).
    pub use_guidelines: bool,
    /// Ablation switch: generate error-checking criteria, their features and
    /// their role in verification ("w/o Crit." disables this).
    pub use_criteria: bool,
    /// Ablation switch: concatenate correlated-attribute features ("w/o
    /// Corr." disables this).
    pub use_corr: bool,
    /// Ablation switch: mutual verification and error augmentation ("w/o
    /// Veri." disables this).
    pub use_verification: bool,
    /// Master seed for clustering, the detector and tie-breaking.
    pub seed: u64,
    /// Criteria evaluation engine: the compiled bytecode VM (default) or the
    /// per-cell AST-walking oracle. Both are bit-identical (the differential
    /// suite in `zeroed-criteria` enforces it); the oracle is retained as the
    /// specification and for A/B timing in `bench_runtime`.
    pub criteria_engine: CriteriaEngine,
    /// Re-asks the repair layer ([`crate::pipeline::repair::RepairLlm`]) may
    /// issue per corrupted response before falling back to the deterministic
    /// stage default (default 1). Re-ask tokens are booked on the ledger's
    /// distinct re-ask line. 0 disables re-asking entirely.
    pub reask_budget: usize,
    /// LLM orchestration runtime: worker pool sizing (one worker per core by
    /// default, one worker for the sequential reference run) and the
    /// request-dedup response cache. Scheduling never changes the detection
    /// result — multi-worker runs are bit-identical to sequential ones.
    pub runtime: RuntimeConfig,
}

/// Which engine evaluates error-checking criteria (`zeroed-criteria`).
///
/// The two engines are bit-identical by contract — the compiled VM is held
/// to the AST oracle by `zeroed-criteria`'s differential suite — so this
/// switch never changes a detection result, only how fast `criteria_features`
/// and Algorithm-1 mutual verification run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum CriteriaEngine {
    /// Lower each check to bytecode once and evaluate per distinct interned
    /// value (the default).
    #[default]
    Compiled,
    /// Walk the `Check` AST per cell — the original implementation, kept as
    /// the specification oracle.
    AstOracle,
}

/// Configuration mirror of [`SamplingMethod`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SamplingMethodConfig {
    /// k-means clustering (paper default).
    KMeans,
    /// Ward-linkage agglomerative clustering.
    Agglomerative,
    /// Random centre selection.
    Random,
}

impl From<SamplingMethodConfig> for SamplingMethod {
    fn from(value: SamplingMethodConfig) -> Self {
        match value {
            SamplingMethodConfig::KMeans => SamplingMethod::KMeans,
            SamplingMethodConfig::Agglomerative => SamplingMethod::Agglomerative,
            SamplingMethodConfig::Random => SamplingMethod::Random,
        }
    }
}

impl Default for ZeroEdConfig {
    fn default() -> Self {
        Self {
            label_rate: 0.05,
            max_clusters_per_column: 400,
            top_k_corr: 2,
            sampling: SamplingMethodConfig::KMeans,
            batch_size: 20,
            embed_dim: 24,
            mlp: MlpConfig::default(),
            verification_threshold: 0.5,
            max_augment_per_column: 200,
            max_cluster_rows: 20_000,
            use_guidelines: true,
            use_criteria: true,
            use_corr: true,
            use_verification: true,
            seed: 42,
            criteria_engine: CriteriaEngine::default(),
            reask_budget: 1,
            runtime: RuntimeConfig::default(),
        }
    }
}

impl ZeroEdConfig {
    /// A configuration tuned for unit tests and doc examples: smaller
    /// embeddings, fewer training epochs, smaller caps. Detection quality is
    /// slightly lower but runtime drops by an order of magnitude.
    pub fn fast() -> Self {
        Self {
            embed_dim: 12,
            max_clusters_per_column: 60,
            max_augment_per_column: 40,
            // Representative selection needs a *sketch* of each attribute,
            // not an exact clustering: a 4k strided sample (plus the exact
            // dedup path for attributes whose distinct count fits the cap)
            // picks the same kind of representatives at a tenth of the
            // Lloyd cost of the 20k default.
            max_cluster_rows: 4_000,
            mlp: MlpConfig {
                hidden: 24,
                epochs: 12,
                ..MlpConfig::default()
            },
            ..Self::default()
        }
    }

    /// The "w/o Guid." ablation of Table IV.
    pub fn without_guidelines(mut self) -> Self {
        self.use_guidelines = false;
        self
    }

    /// The "w/o Crit." ablation of Table IV.
    pub fn without_criteria(mut self) -> Self {
        self.use_criteria = false;
        self
    }

    /// The "w/o Corr." ablation of Table IV.
    pub fn without_correlated(mut self) -> Self {
        self.use_corr = false;
        self
    }

    /// The "w/o Veri." ablation of Table IV.
    pub fn without_verification(mut self) -> Self {
        self.use_verification = false;
        self
    }

    /// Pins criteria evaluation to the AST-walking specification oracle
    /// instead of the compiled VM (bit-identical, slower; used for A/B
    /// timing and belt-and-braces verification runs).
    pub fn with_criteria_oracle(mut self) -> Self {
        self.criteria_engine = CriteriaEngine::AstOracle;
        self
    }

    /// Selects the criteria evaluation engine explicitly.
    pub fn with_criteria_engine(mut self, engine: CriteriaEngine) -> Self {
        self.criteria_engine = engine;
        self
    }

    /// Runs the pipeline on one worker without the cache (and so without
    /// the store): the sequential reference that multi-worker, cached,
    /// routed and store-warmed runs are verified against.
    pub fn sequential_runtime(mut self) -> Self {
        self.runtime = RuntimeConfig::sequential();
        self
    }

    /// Replaces the runtime configuration.
    pub fn with_runtime(mut self, runtime: RuntimeConfig) -> Self {
        self.runtime = runtime;
        self
    }

    /// Attaches a multi-backend router policy (backends, budgets, hedging,
    /// circuit breaking) to the runtime configuration. Consumed by
    /// [`zeroed_runtime::RouterLlm::from_runtime`] /
    /// [`crate::ZeroEd::detect_routed`].
    pub fn with_router(mut self, router: zeroed_runtime::RouterConfig) -> Self {
        self.runtime.router = Some(router);
        self
    }

    /// Attaches a crash-safe on-disk response store: published responses are
    /// persisted write-through and a new [`crate::ZeroEd`] pointed at the
    /// same directory warm-starts from it, issuing zero LLM requests for
    /// already-answered prompts — across process boundaries. The store opens
    /// only with the cache (the default): a detector without the cache, such
    /// as [`ZeroEdConfig::sequential_runtime`], never opens or locks it.
    ///
    /// The persistence quickstart, compiler-checked:
    ///
    /// ```
    /// use zeroed_core::{ZeroEd, ZeroEdConfig};
    /// use zeroed_datagen::{generate, DatasetSpec, GenerateOptions};
    /// use zeroed_llm::{LlmClient, SimLlm};
    /// use zeroed_runtime::StoreConfig;
    ///
    /// let dir = std::env::temp_dir().join(format!("zeroed-doc-store-{}", std::process::id()));
    /// let _ = std::fs::remove_dir_all(&dir);
    /// // Tuning knobs ride on StoreConfig: `shards` lets several detector
    /// // processes share the root, `ttl_secs` expires stale experiment bins.
    /// let store = StoreConfig::new(dir.to_str().unwrap())
    ///     .with_shards(2)
    ///     .with_ttl_secs(7 * 24 * 3600);
    /// let config = ZeroEdConfig::fast().with_store(store);
    ///
    /// let ds = generate(DatasetSpec::Beers, &GenerateOptions { n_rows: 60, seed: 5, error_spec: None });
    /// let cold = ZeroEd::new(config.clone()).detect(&ds.dirty, &SimLlm::default_model(1));
    /// // ^ detector dropped: its writes are drained and synced to `dir`.
    ///
    /// // A fresh detector — a new process, as far as the store is concerned —
    /// // replays every response: bit-identical mask, zero LLM requests.
    /// let warm_llm = SimLlm::default_model(1);
    /// let warm = ZeroEd::new(config).detect(&ds.dirty, &warm_llm);
    /// assert_eq!(warm.mask, cold.mask);
    /// assert_eq!(warm.stats.cache_misses, 0);
    /// assert_eq!(warm_llm.ledger().usage().requests, 0);
    /// # let _ = std::fs::remove_dir_all(&dir);
    /// ```
    pub fn with_store(mut self, store: zeroed_runtime::StoreConfig) -> Self {
        self.runtime.store = Some(store);
        self
    }

    /// [`ZeroEdConfig::with_store`] with default store tuning for `dir`.
    pub fn with_store_dir(self, dir: impl Into<String>) -> Self {
        self.with_store(zeroed_runtime::StoreConfig::new(dir))
    }

    /// Effective number of correlated attributes after the ablation switch.
    pub fn effective_top_k(&self) -> usize {
        if self.use_corr {
            self.top_k_corr
        } else {
            0
        }
    }

    /// Number of clusters (labelled cells) for an attribute with `n_rows`
    /// values.
    pub fn clusters_for(&self, n_rows: usize) -> usize {
        let raw = (self.label_rate * n_rows as f64).ceil() as usize;
        raw.clamp(2, self.max_clusters_per_column.max(2)).min(n_rows.max(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_settings() {
        let c = ZeroEdConfig::default();
        assert!((c.label_rate - 0.05).abs() < 1e-12);
        assert_eq!(c.top_k_corr, 2);
        assert_eq!(c.batch_size, 20);
        assert!((c.verification_threshold - 0.5).abs() < 1e-12);
        assert!(c.use_guidelines && c.use_criteria && c.use_corr && c.use_verification);
        assert_eq!(c.reask_budget, 1, "one re-ask per corrupted response");
    }

    #[test]
    fn ablation_builders_flip_one_switch_each() {
        assert!(!ZeroEdConfig::default().without_guidelines().use_guidelines);
        assert!(!ZeroEdConfig::default().without_criteria().use_criteria);
        assert!(!ZeroEdConfig::default().without_correlated().use_corr);
        assert!(!ZeroEdConfig::default().without_verification().use_verification);
        assert_eq!(ZeroEdConfig::default().without_correlated().effective_top_k(), 0);
        assert_eq!(ZeroEdConfig::default().effective_top_k(), 2);
    }

    #[test]
    fn cluster_count_follows_label_rate_with_caps() {
        let c = ZeroEdConfig::default();
        assert_eq!(c.clusters_for(1_000), 50);
        assert_eq!(c.clusters_for(10), 2);
        assert_eq!(c.clusters_for(1_000_000), 400);
        let fast = ZeroEdConfig::fast();
        assert_eq!(fast.clusters_for(10_000), 60);
    }

    #[test]
    fn runtime_defaults_and_builders() {
        let c = ZeroEdConfig::default();
        assert_eq!(c.runtime.workers, 0, "one worker per core");
        assert!(c.runtime.cache);
        let seq = ZeroEdConfig::default().sequential_runtime();
        assert_eq!(seq.runtime.effective_workers(), 1);
        assert!(!seq.runtime.cache);
        let custom = ZeroEdConfig::default().with_runtime(zeroed_runtime::RuntimeConfig {
            workers: 4,
            ..zeroed_runtime::RuntimeConfig::default()
        });
        assert_eq!(custom.runtime.effective_workers(), 4);
    }

    #[test]
    fn store_builders_attach_a_store_config() {
        let c = ZeroEdConfig::default();
        assert!(c.runtime.store.is_none());
        let with = ZeroEdConfig::default().with_store_dir("/tmp/zeroed-store-test");
        let store = with.runtime.store.as_ref().expect("store configured");
        assert_eq!(store.dir, "/tmp/zeroed-store-test");
        let custom = ZeroEdConfig::default().with_store(zeroed_runtime::StoreConfig {
            capacity: 128,
            ..zeroed_runtime::StoreConfig::new("d")
        });
        assert_eq!(custom.runtime.store.unwrap().capacity, 128);
    }

    #[test]
    fn criteria_engine_defaults_to_compiled() {
        let c = ZeroEdConfig::default();
        assert_eq!(c.criteria_engine, CriteriaEngine::Compiled);
        assert_eq!(
            ZeroEdConfig::default().with_criteria_oracle().criteria_engine,
            CriteriaEngine::AstOracle
        );
        assert_eq!(
            ZeroEdConfig::default()
                .with_criteria_engine(CriteriaEngine::Compiled)
                .criteria_engine,
            CriteriaEngine::Compiled
        );
    }

    #[test]
    fn sampling_config_converts() {
        assert_eq!(
            SamplingMethod::from(SamplingMethodConfig::Agglomerative),
            SamplingMethod::Agglomerative
        );
        assert_eq!(
            SamplingMethod::from(SamplingMethodConfig::Random),
            SamplingMethod::Random
        );
    }
}
