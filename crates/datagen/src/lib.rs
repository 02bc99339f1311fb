//! # zeroed-datagen
//!
//! Synthetic benchmark datasets and BART-style error injection for the ZeroED
//! reproduction.
//!
//! The ZeroED paper evaluates on seven tabular datasets (Hospital, Flights,
//! Beers, Rayyan, Billionaire, Movies and Tax — Table II). The original dirty
//! files are not redistributable, so this crate generates *clean* tables with
//! the same schemas, sizes, functional dependencies and value patterns, and
//! then injects the five paper error types (missing values, typos, pattern
//! violations, outliers and rule violations) at per-dataset rates matching
//! Table II using the same operator set as the BART error generator the paper
//! used for its synthetic datasets.
//!
//! The crate also exports per-dataset [`metadata::DatasetMetadata`] — the
//! functional dependencies, column patterns, value domains and knowledge-base
//! relations that the manual-criteria baselines (NADEEF, KATARA, dBoost)
//! consume, mirroring how the paper takes those artefacts "from existing
//! public code".
//!
//! ## How generation works
//!
//! Each dataset module under [`datasets`] describes its schema as column
//! generators over shared vocabularies ([`vocab`]): FD-consistent lookups
//! (city → state, measure code → condition), formatted fields (times, zip
//! codes, phone numbers) and numeric distributions. [`generate`] samples
//! `n_rows` clean rows from an explicit seed, then hands the table to the
//! [`inject`] module, which applies the BART operator set — value removal,
//! character-level typos (substitution, deletion, adjacent transposition),
//! format mangling, numeric outlier scaling, FD-breaking substitutions — at
//! the per-dataset, per-type rates of
//! Table II, recording every injected cell in the returned
//! [`GeneratedDataset`]'s ground-truth [`ErrorMask`].
//!
//! ## Contracts
//!
//! * **Determinism.** Same [`DatasetSpec`], `n_rows` and seed → the same
//!   table, the same injected errors, the same mask, on every platform
//!   (counter-based RNG throughout). Every benchmark ledger and equivalence
//!   suite in the workspace keys off this.
//! * **Scale-invariant shape.** `n_rows` scales the tables from unit-test
//!   sizes (a few hundred rows) to the 50k-row perf ledgers while keeping
//!   the same schemas, error rates and duplicate-heavy value distributions —
//!   the property the interning fast paths (`zeroed-features`,
//!   `zeroed-baselines`) are benchmarked against.
//! * **Detectors never see the ground truth.** The mask travels alongside
//!   the dirty table for *scoring* and for the simulated LLM's oracle; the
//!   pipeline itself only receives the dirty table.
//!
//! Entry point: [`generate`] with a [`DatasetSpec`].
//!
//! ```
//! use zeroed_datagen::{generate, DatasetSpec, GenerateOptions};
//!
//! let ds = generate(DatasetSpec::Hospital, &GenerateOptions { n_rows: 200, seed: 7, ..Default::default() });
//! assert_eq!(ds.dirty.n_rows(), 200);
//! assert!(ds.mask.error_count() > 0);
//! ```

pub mod datasets;
pub mod inject;
pub mod metadata;
pub mod vocab;

pub use inject::{ErrorSpec, InjectedError, Injector};
pub use metadata::{
    ColumnPattern, DatasetMetadata, FunctionalDependency, KnowledgeBaseEntry, PatternKind,
};

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::HashSet;
use zeroed_table::errors::{profile_errors, ErrorProfile};
use zeroed_table::{ErrorMask, Table};

/// The seven benchmark datasets of the paper's Table II, plus three
/// synthetic *workload shapes* ([`datasets::workloads`]) that stress
/// specific pipeline dimensions (width, distinctness, schema heterogeneity).
/// The workload shapes are named scenarios for the benchmark binaries; they
/// are deliberately **not** part of [`DatasetSpec::ALL`] or
/// [`DatasetSpec::COMPARISON`], which stay faithful to the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DatasetSpec {
    /// US hospital quality measures (1,000 × 20 in the paper).
    Hospital,
    /// Flight departure/arrival times (2,376 × 7).
    Flights,
    /// Craft beers and breweries (2,410 × 11).
    Beers,
    /// Bibliographic records from the Rayyan screening tool (1,000 × 11).
    Rayyan,
    /// Billionaires list (2,615 × 22, synthetic errors in the paper).
    Billionaire,
    /// Movie metadata from the Magellan repository (7,390 × 17).
    Movies,
    /// Large synthetic tax dataset from the BART repository (200,000 × 22).
    Tax,
    /// Workload shape: a very wide table (30 attributes) stressing
    /// per-attribute fan-out.
    Wide,
    /// Workload shape: (nearly) unique values per row in most columns,
    /// stressing the frequency/interning fast paths and clustering.
    HighDistinct,
    /// Workload shape: heterogeneous record kinds in one table, with
    /// per-kind payload formats, stressing pattern features and guidelines.
    MixedSchema,
}

impl DatasetSpec {
    /// All seven datasets in the paper's order.
    pub const ALL: [DatasetSpec; 7] = [
        DatasetSpec::Hospital,
        DatasetSpec::Flights,
        DatasetSpec::Beers,
        DatasetSpec::Rayyan,
        DatasetSpec::Billionaire,
        DatasetSpec::Movies,
        DatasetSpec::Tax,
    ];

    /// The six datasets used in the main comparison tables (Tax is reserved
    /// for scalability experiments).
    pub const COMPARISON: [DatasetSpec; 6] = [
        DatasetSpec::Hospital,
        DatasetSpec::Flights,
        DatasetSpec::Beers,
        DatasetSpec::Rayyan,
        DatasetSpec::Billionaire,
        DatasetSpec::Movies,
    ];

    /// Dataset name as used in the paper.
    pub fn name(&self) -> &'static str {
        match self {
            DatasetSpec::Hospital => "Hospital",
            DatasetSpec::Flights => "Flights",
            DatasetSpec::Beers => "Beers",
            DatasetSpec::Rayyan => "Rayyan",
            DatasetSpec::Billionaire => "Billionaire",
            DatasetSpec::Movies => "Movies",
            DatasetSpec::Tax => "Tax",
            DatasetSpec::Wide => "Wide",
            DatasetSpec::HighDistinct => "HighDistinct",
            DatasetSpec::MixedSchema => "MixedSchema",
        }
    }

    /// Number of tuples used in the paper's Table II (default sizes for the
    /// synthetic workload shapes, which have no paper counterpart).
    pub fn paper_rows(&self) -> usize {
        match self {
            DatasetSpec::Hospital => 1_000,
            DatasetSpec::Flights => 2_376,
            DatasetSpec::Beers => 2_410,
            DatasetSpec::Rayyan => 1_000,
            DatasetSpec::Billionaire => 2_615,
            DatasetSpec::Movies => 7_390,
            DatasetSpec::Tax => 200_000,
            DatasetSpec::Wide => 2_000,
            DatasetSpec::HighDistinct => 5_000,
            DatasetSpec::MixedSchema => 3_000,
        }
    }

    /// Default error-injection profile roughly matching Table II.
    pub fn default_error_spec(&self) -> ErrorSpec {
        match self {
            DatasetSpec::Hospital => ErrorSpec::new(0.010, 0.012, 0.012, 0.008, 0.008),
            DatasetSpec::Flights => ErrorSpec::new(0.060, 0.080, 0.055, 0.050, 0.090),
            DatasetSpec::Beers => ErrorSpec::new(0.009, 0.055, 0.024, 0.011, 0.011),
            DatasetSpec::Rayyan => ErrorSpec::new(0.060, 0.055, 0.032, 0.050, 0.055),
            DatasetSpec::Billionaire => ErrorSpec::new(0.024, 0.031, 0.014, 0.018, 0.012),
            DatasetSpec::Movies => ErrorSpec::new(0.022, 0.023, 0.010, 0.010, 0.000),
            DatasetSpec::Tax => ErrorSpec::new(0.008, 0.012, 0.008, 0.006, 0.006),
            DatasetSpec::Wide => ErrorSpec::new(0.015, 0.020, 0.015, 0.010, 0.010),
            DatasetSpec::HighDistinct => ErrorSpec::new(0.020, 0.025, 0.020, 0.015, 0.010),
            DatasetSpec::MixedSchema => ErrorSpec::new(0.020, 0.025, 0.020, 0.010, 0.012),
        }
    }

    /// Parses the paper's dataset name (case-insensitive).
    pub fn parse(name: &str) -> Option<DatasetSpec> {
        match name.to_ascii_lowercase().as_str() {
            "hospital" => Some(DatasetSpec::Hospital),
            "flights" => Some(DatasetSpec::Flights),
            "beers" => Some(DatasetSpec::Beers),
            "rayyan" => Some(DatasetSpec::Rayyan),
            "billionaire" | "billion." => Some(DatasetSpec::Billionaire),
            "movies" => Some(DatasetSpec::Movies),
            "tax" => Some(DatasetSpec::Tax),
            "wide" | "widetable" => Some(DatasetSpec::Wide),
            "highdistinct" | "high-distinct" => Some(DatasetSpec::HighDistinct),
            "mixedschema" | "mixed-schema" | "mixed" => Some(DatasetSpec::MixedSchema),
            _ => None,
        }
    }

    /// The three synthetic workload shapes ([`datasets::workloads`]).
    pub const WORKLOADS: [DatasetSpec; 3] = [
        DatasetSpec::Wide,
        DatasetSpec::HighDistinct,
        DatasetSpec::MixedSchema,
    ];
}

/// Options controlling dataset generation.
#[derive(Debug, Clone)]
pub struct GenerateOptions {
    /// Number of tuples to generate. `0` means "use the paper's size".
    pub n_rows: usize,
    /// PRNG seed; generation is fully deterministic given the seed.
    pub seed: u64,
    /// Error-injection profile. `None` means "use the dataset default".
    pub error_spec: Option<ErrorSpec>,
}

impl Default for GenerateOptions {
    fn default() -> Self {
        Self {
            n_rows: 0,
            seed: 42,
            error_spec: None,
        }
    }
}

/// A generated benchmark dataset: the dirty table presented to detectors, its
/// clean ground truth, the error mask, injection bookkeeping and the metadata
/// consumed by criteria-based baselines.
#[derive(Debug, Clone)]
pub struct GeneratedDataset {
    /// Which benchmark this is.
    pub spec: DatasetSpec,
    /// The dirty table (input to error detection).
    pub dirty: Table,
    /// The clean ground-truth table.
    pub clean: Table,
    /// Ground-truth error mask (`dirty[i,j] != clean[i,j]`).
    pub mask: ErrorMask,
    /// Per-cell bookkeeping of which error type was injected.
    pub injected: Vec<InjectedError>,
    /// Functional dependencies, patterns, domains and KB for the baselines.
    pub metadata: DatasetMetadata,
}

impl GeneratedDataset {
    /// Classifies every erroneous cell and summarises per-type rates (the
    /// numbers reported in Table II).
    pub fn error_profile(&self) -> ErrorProfile {
        let rule_cells: HashSet<(usize, usize)> = self
            .injected
            .iter()
            .filter(|e| e.error_type == zeroed_table::ErrorType::RuleViolation)
            .map(|e| (e.row, e.col))
            .collect();
        profile_errors(&self.dirty, &self.clean, &rule_cells)
            .expect("dirty and clean tables are congruent by construction")
    }
}

/// Generates a benchmark dataset deterministically.
pub fn generate(spec: DatasetSpec, options: &GenerateOptions) -> GeneratedDataset {
    let n_rows = if options.n_rows == 0 {
        spec.paper_rows()
    } else {
        options.n_rows
    };
    let mut rng = ChaCha8Rng::seed_from_u64(options.seed ^ spec_seed(spec));
    let (clean, metadata) = match spec {
        DatasetSpec::Hospital => datasets::hospital::clean(n_rows, &mut rng),
        DatasetSpec::Flights => datasets::flights::clean(n_rows, &mut rng),
        DatasetSpec::Beers => datasets::beers::clean(n_rows, &mut rng),
        DatasetSpec::Rayyan => datasets::rayyan::clean(n_rows, &mut rng),
        DatasetSpec::Billionaire => datasets::billionaire::clean(n_rows, &mut rng),
        DatasetSpec::Movies => datasets::movies::clean(n_rows, &mut rng),
        DatasetSpec::Tax => datasets::tax::clean(n_rows, &mut rng),
        DatasetSpec::Wide => datasets::workloads::wide(n_rows, &mut rng),
        DatasetSpec::HighDistinct => datasets::workloads::high_distinct(n_rows, &mut rng),
        DatasetSpec::MixedSchema => datasets::workloads::mixed_schema(n_rows, &mut rng),
    };
    let spec_err = options
        .error_spec
        .clone()
        .unwrap_or_else(|| spec.default_error_spec());
    let injector = Injector::new(spec_err, options.seed.wrapping_add(0x5eed));
    let outcome = injector.inject(&clean, &metadata);
    GeneratedDataset {
        spec,
        dirty: outcome.dirty,
        clean,
        mask: outcome.mask,
        injected: outcome.injected,
        metadata,
    }
}

fn spec_seed(spec: DatasetSpec) -> u64 {
    match spec {
        DatasetSpec::Hospital => 0x01,
        DatasetSpec::Flights => 0x02,
        DatasetSpec::Beers => 0x03,
        DatasetSpec::Rayyan => 0x04,
        DatasetSpec::Billionaire => 0x05,
        DatasetSpec::Movies => 0x06,
        DatasetSpec::Tax => 0x07,
        DatasetSpec::Wide => 0x08,
        DatasetSpec::HighDistinct => 0x09,
        DatasetSpec::MixedSchema => 0x0a,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let opts = GenerateOptions {
            n_rows: 120,
            seed: 9,
            error_spec: None,
        };
        let a = generate(DatasetSpec::Beers, &opts);
        let b = generate(DatasetSpec::Beers, &opts);
        assert_eq!(a.dirty, b.dirty);
        assert_eq!(a.clean, b.clean);
        assert_eq!(a.mask, b.mask);
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate(
            DatasetSpec::Beers,
            &GenerateOptions {
                n_rows: 200,
                seed: 1,
                error_spec: None,
            },
        );
        let b = generate(
            DatasetSpec::Beers,
            &GenerateOptions {
                n_rows: 200,
                seed: 2,
                error_spec: None,
            },
        );
        assert_ne!(a.dirty, b.dirty);
    }

    #[test]
    fn all_specs_generate_small_tables() {
        for spec in DatasetSpec::ALL {
            let ds = generate(
                spec,
                &GenerateOptions {
                    n_rows: 80,
                    seed: 3,
                    error_spec: None,
                },
            );
            assert_eq!(ds.dirty.n_rows(), 80, "{}", spec.name());
            assert!(ds.dirty.n_cols() >= 7, "{}", spec.name());
            assert!(ds.mask.error_count() > 0, "{}", spec.name());
            assert!(
                ds.mask.error_rate() < 0.6,
                "{} error rate {}",
                spec.name(),
                ds.mask.error_rate()
            );
            // Mask agrees with the dirty/clean diff by construction.
            let diff = ErrorMask::diff(&ds.dirty, &ds.clean).unwrap();
            assert_eq!(diff, ds.mask, "{}", spec.name());
        }
    }

    #[test]
    fn parse_and_names() {
        assert_eq!(DatasetSpec::parse("hospital"), Some(DatasetSpec::Hospital));
        assert_eq!(DatasetSpec::parse("TAX"), Some(DatasetSpec::Tax));
        assert_eq!(DatasetSpec::parse("bogus"), None);
        assert_eq!(DatasetSpec::Movies.name(), "Movies");
        assert_eq!(DatasetSpec::ALL.len(), 7);
        assert_eq!(DatasetSpec::COMPARISON.len(), 6);
    }

    #[test]
    fn workload_shapes_generate_and_stay_out_of_the_paper_sets() {
        assert_eq!(DatasetSpec::WORKLOADS.len(), 3);
        for spec in DatasetSpec::WORKLOADS {
            // The paper-faithful spec lists must not grow.
            assert!(!DatasetSpec::ALL.contains(&spec), "{}", spec.name());
            assert!(!DatasetSpec::COMPARISON.contains(&spec), "{}", spec.name());
            // Names round-trip through the CLI parser.
            assert_eq!(DatasetSpec::parse(spec.name()), Some(spec), "{}", spec.name());
            let ds = generate(
                spec,
                &GenerateOptions {
                    n_rows: 120,
                    seed: 3,
                    error_spec: None,
                },
            );
            assert_eq!(ds.dirty.n_rows(), 120, "{}", spec.name());
            assert!(ds.mask.error_count() > 0, "{}", spec.name());
            let diff = ErrorMask::diff(&ds.dirty, &ds.clean).unwrap();
            assert_eq!(diff, ds.mask, "{}", spec.name());
        }
        assert_eq!(DatasetSpec::Wide.paper_rows(), 2_000);
        assert_eq!(DatasetSpec::parse("mixed"), Some(DatasetSpec::MixedSchema));
    }

    #[test]
    fn error_profile_reports_types() {
        let ds = generate(
            DatasetSpec::Hospital,
            &GenerateOptions {
                n_rows: 300,
                seed: 11,
                error_spec: None,
            },
        );
        let profile = ds.error_profile();
        assert!(profile.error_count > 0);
        assert!(!profile.by_type.is_empty());
    }
}
