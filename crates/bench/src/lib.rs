//! # zeroed-bench
//!
//! The experiment harness that regenerates every table and figure of the
//! ZeroED paper's evaluation section (see DESIGN.md §3 for the full index),
//! plus criterion micro-benchmarks for the individual pipeline stages and
//! the two perf-ledger emitters successive PRs track regressions against.
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
//! ## Perf ledgers
//!
//! Two emitters produce committed JSON ledgers (drop `--quick` to
//! regenerate the 50k-row files):
//!
//! * `bench_features` → `BENCH_features.json` — interned vs seed-reference
//!   wall-times for featurisation and for the dBoost/NADEEF/KATARA/Raha
//!   baselines, asserting mask equivalence as it measures.
//! * `bench_runtime` → stdout, and `BENCH_runtime.json` only with
//!   `--out BENCH_runtime.json` (so the tier-1 `--quick` run leaves the
//!   committed file alone) — LLM-stage wall-times across
//!   the runtime's execution modes (sequential / concurrent / cached cold /
//!   cached warm), the `--router` hedging experiment (p99 recovery against
//!   a slow-tail backend) and the `--persist` cross-process warm start,
//!   including the sharded-concurrent-writers experiment (K detector
//!   handles sharing one store root). Hard assertions gate every section:
//!   masks bit-identical, warm runs issue zero LLM requests, hedging
//!   recovers ≥1.5x p99, concurrent+cache ≥2x sequential. With `--trace`
//!   it additionally runs the flight-recorder conformance suite and embeds
//!   a `trace` section (per-mode event counts, exporter validation,
//!   recorder overhead).
//!
//! The `bench_check` binary is the regression gate over those ledgers: it
//! diffs a freshly generated `BENCH_runtime.json` against the committed one
//! stage-by-stage (share of root wall-time, so absolute machine speed
//! cancels out), warns outside a ±30% band and fails hard past 2x. The
//! [`minijson`] module is its dependency-free JSON reader.
//!
//! Criterion micro-benchmarks for individual stages live under `benches/`
//! (`cargo bench --no-run` compiles them in tier-1).

pub mod harness;
pub mod methods;
pub mod minijson;
pub mod tablefmt;

pub use harness::{parse_args, prepared_dataset, HarnessArgs, PreparedDataset};
pub use methods::{run_method, run_method_averaged, simulated_llm, Method, MethodResult};
pub use tablefmt::{format_table, Row};
