//! Shared experiment-harness plumbing: CLI parsing and dataset preparation.

use zeroed_datagen::{generate, DatasetSpec, GenerateOptions, GeneratedDataset};

/// Command-line arguments shared by all experiment binaries.
#[derive(Debug, Clone)]
pub struct HarnessArgs {
    /// Rows per generated dataset; `0` means "use the paper's size". The
    /// default (600) keeps a full sweep to a few minutes.
    pub rows: usize,
    /// Number of repetitions to average (the paper uses 3).
    pub seeds: usize,
    /// Base seed.
    pub base_seed: u64,
}

impl Default for HarnessArgs {
    fn default() -> Self {
        Self {
            rows: 600,
            seeds: 3,
            base_seed: 42,
        }
    }
}

impl HarnessArgs {
    /// The seeds to average over.
    pub fn seed_list(&self) -> Vec<u64> {
        (0..self.seeds.max(1) as u64)
            .map(|i| self.base_seed + i)
            .collect()
    }
}

/// Parses `--rows N`, `--seeds N` and `--seed N` from an argument iterator
/// (unknown arguments are ignored so binaries can add their own).
pub fn parse_args(args: impl Iterator<Item = String>) -> HarnessArgs {
    let mut out = HarnessArgs::default();
    let argv: Vec<String> = args.collect();
    let mut i = 0;
    while i < argv.len() {
        let key = argv[i].as_str();
        let value = argv.get(i + 1).and_then(|v| v.parse::<u64>().ok());
        match (key, value) {
            ("--rows", Some(v)) => {
                out.rows = v as usize;
                i += 1;
            }
            ("--seeds", Some(v)) => {
                out.seeds = v as usize;
                i += 1;
            }
            ("--seed", Some(v)) => {
                out.base_seed = v;
                i += 1;
            }
            _ => {}
        }
        i += 1;
    }
    out
}

/// A generated dataset ready for evaluation.
pub struct PreparedDataset {
    /// Which benchmark it is.
    pub spec: DatasetSpec,
    /// The generated data (dirty, clean, mask, metadata).
    pub data: GeneratedDataset,
}

/// Generates one benchmark dataset at the harness-configured size.
pub fn prepared_dataset(spec: DatasetSpec, args: &HarnessArgs, seed: u64) -> PreparedDataset {
    let data = generate(
        spec,
        &GenerateOptions {
            n_rows: args.rows,
            seed,
            error_spec: None,
        },
    );
    PreparedDataset { spec, data }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_known_flags_and_ignores_unknown() {
        let args = parse_args(
            [
                "--rows", "250", "--seeds", "2", "--seed", "7", "--bogus", "x",
            ]
            .iter()
            .map(|s| s.to_string()),
        );
        assert_eq!(args.rows, 250);
        assert_eq!(args.seeds, 2);
        assert_eq!(args.base_seed, 7);
        assert_eq!(args.seed_list(), vec![7, 8]);
        let default = parse_args(std::iter::empty());
        assert_eq!(default.rows, 600);
        assert_eq!(default.seeds, 3);
    }

    #[test]
    fn prepares_datasets_at_requested_size() {
        let args = HarnessArgs {
            rows: 90,
            seeds: 1,
            base_seed: 1,
        };
        let ds = prepared_dataset(DatasetSpec::Beers, &args, 1);
        assert_eq!(ds.data.dirty.n_rows(), 90);
        assert_eq!(ds.spec, DatasetSpec::Beers);
    }
}
