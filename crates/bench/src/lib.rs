//! # zeroed-bench
//!
//! The experiment harness that regenerates every table and figure of the
//! ZeroED paper's evaluation section (one `exp_*` binary each, below), plus
//! criterion micro-benchmarks for the individual pipeline stages and the
//! `bench_features` featurisation ledger.
//!
//! ## Paper experiments
//!
//! Each experiment is a binary under `src/bin/` (`exp_table2` … `exp_fig11`)
//! built from three shared pieces: [`harness`] (argument parsing, dataset
//! preparation, per-seed averaging), [`methods`] (every detection method —
//! ZeroED and the baselines — behind one [`Method`] enum, plus
//! [`simulated_llm`], which wires the generated dataset's ground truth into
//! `SimLlm` as the labelling oracle) and [`tablefmt`] (the fixed-width table
//! renderer the binaries print). Run, for example:
//!
//! ```text
//! cargo run --release -p zeroed-bench --bin exp_table3
//! cargo run --release -p zeroed-bench --bin exp_table3 -- --rows 400 --seeds 1
//! ```
//!
//! By default the harness generates each benchmark dataset at a reduced size
//! (`--rows 600`) so a full sweep finishes in minutes on a laptop; pass
//! `--rows 0` to use the paper's original sizes.
//!
//! ## Featurisation ledger
//!
//! `bench_features` is the only ledger emitter here. It writes
//! `BENCH_features.json` (drop `--quick` to regenerate the 50k-row file):
//! interned vs seed-reference wall-times for featurisation and for the
//! dBoost/NADEEF/KATARA/Raha baselines, asserting mask equivalence as it
//! measures. End-to-end throughput, CPU, memory, LLM cost and F1 are the
//! repo benchmark's (`paper_bench/`, declared in `BENCHMARK.json`).
//!
//! Criterion micro-benchmarks for individual stages live under `benches/`
//! (`cargo bench --no-run` compiles them in tier-1).

pub mod harness;
pub mod methods;
pub mod tablefmt;

pub use harness::{parse_args, prepared_dataset, HarnessArgs, PreparedDataset};
pub use methods::{run_method, run_method_averaged, simulated_llm, Method, MethodResult};
pub use tablefmt::{format_table, Row};
