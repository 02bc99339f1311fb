//! # zeroed-llm
//!
//! The LLM abstraction used by ZeroED and the FM_ED baseline.
//!
//! The paper drives several stages of its pipeline with an LLM: deriving
//! executable error-checking criteria, writing data-distribution analysis
//! functions, generating error-detection guidelines, labelling sampled cells
//! in context, refining criteria contrastively, and augmenting the minority
//! error class. All of those interactions go through the [`LlmClient`] trait
//! here, so the pipeline itself is agnostic to *which* model answers.
//!
//! Two things matter for a faithful reproduction without network access:
//!
//! 1. **Structured behaviour** — [`sim::SimLlm`] is a deterministic simulated
//!    LLM. It produces the same *kinds* of structured outputs a real model
//!    would (criteria in the `zeroed-criteria` DSL, guidelines, binary labels,
//!    perturbed error values), driven by actual data profiling plus a
//!    per-model [`LlmProfile`] whose labelling fidelity is calibrated to the
//!    paper's Table V. Experiments hand the simulator a ground-truth oracle;
//!    without one it falls back to purely heuristic reasoning.
//! 2. **Token accounting** — every call renders the paper's prompt templates
//!    ([`prompts`]) and a realistic response text, and records their sizes in
//!    a shared [`TokenLedger`], which is what the Fig. 8 token-cost
//!    experiments measure.

pub mod budget;
pub mod client;
pub mod fault;
pub mod mangle;
pub mod parse;
pub mod profile;
pub mod prompts;
pub mod sim;
pub mod token;

pub use budget::{Budget, BudgetPermit};
pub use client::{AttributeContext, DistributionAnalysis, ErrorTypeGuide, Guideline, LlmClient};
pub use fault::{FaultKind, FaultSchedule};
pub use mangle::{MangleKind, MangleSchedule};
pub use profile::{LlmLatency, LlmProfile};
pub use sim::SimLlm;
pub use token::{count_tokens, ServingConcurrency, TokenLedger, TokenUsage};
