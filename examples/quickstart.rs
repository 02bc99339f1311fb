//! Quickstart: detect errors in a small dirty table with ZeroED.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! This example uses the simulated LLM in *zero-knowledge* mode (no oracle):
//! every label comes purely from the model's heuristic reasoning over the
//! generated criteria and guidelines, which is how you would run ZeroED on
//! your own data after plugging in a real `LlmClient` implementation.

use zeroed::prelude::*;

fn main() {
    // Build a small dirty table by hand: city → state should be consistent,
    // salaries are five-digit numbers, and a few cells are corrupted.
    let mut rows: Vec<Vec<String>> = (0..200)
        .map(|i| {
            let city = ["Boston", "Denver", "Phoenix", "Chicago"][i % 4];
            let state = ["MA", "CO", "AZ", "IL"][i % 4];
            let salary = format!("{}", 52_000 + (i % 9) * 1_000);
            vec![city.to_string(), state.to_string(), salary]
        })
        .collect();
    rows[7][1] = "CO".into(); // rule violation: Boston paired with CO
    rows[23][2] = "".into(); // missing value
    rows[41][2] = "5800000".into(); // outlier
    rows[77][0] = "Bostn".into(); // typo
    let dirty = Table::new(
        "salaries",
        vec!["city".into(), "state".into(), "salary".into()],
        rows,
    )
    .expect("rows match the schema");

    // The simulated LLM (Qwen2.5-72B profile) with no ground-truth oracle:
    // its labels come from profiling-based reasoning only.
    let llm = SimLlm::default_model(7);

    // Run the pipeline with a slightly higher label rate since the table is tiny.
    let config = ZeroEdConfig {
        label_rate: 0.10,
        ..ZeroEdConfig::default()
    };
    let outcome = ZeroEd::new(config).detect(&dirty, &llm);

    println!("ZeroED flagged {} of {} cells as errors:", outcome.mask.error_count(), dirty.n_cells());
    for cell in outcome.mask.iter_errors() {
        println!(
            "  row {:>3}  {:<8} = {:?}",
            cell.row,
            dirty.columns()[cell.col],
            dirty.cell(cell.row, cell.col)
        );
    }
    println!("\nPipeline statistics: {:?}", outcome.stats);
    println!(
        "LLM usage: {} requests, {} input tokens, {} output tokens",
        llm.ledger().usage().requests,
        llm.ledger().usage().input_tokens,
        llm.ledger().usage().output_tokens
    );
    if let Some(profile) = &outcome.stats.stage_profile {
        println!("Total runtime: {:.2?}", profile.wall());
    }
}
