//! Stage-profile walk-through: run one detection and print the hierarchical
//! wall-time breakdown the `zeroed-obs` profiler recorded.
//!
//! ```text
//! cargo run --release --example profile_report
//! ```
//!
//! Every `ZeroEd::detect` run carries a `StageProfile` tree in
//! `PipelineStats::stage_profile`. Two sequential spans cover the run:
//! `features` (with sub-stages like NMI correlation and criteria generation)
//! and `attributes`, where every attribute's sampling → labelling →
//! training-data → detector chain streams. Grafted *parallel* distribution
//! nodes add the per-attribute phase latencies under `attributes`, the
//! scheduler's queue-wait/execute split, the repair ladder's
//! validate/salvage/re-ask timing and the response cache's lock holds.
//! Parallel nodes (marked `∥` in the table) accumulate task wall time
//! summed across workers, so their percentages can exceed 100. Under
//! `attributes` the phases also overlap each other: the `sample_column`,
//! `label_attribute`, `construct_attribute` and `train_predict` totals
//! summed, over the span's wall, give the overlap the streaming bought.

use zeroed::prelude::*;

fn main() {
    let ds = generate(
        DatasetSpec::Hospital,
        &GenerateOptions {
            n_rows: 2_000,
            seed: 7,
            ..Default::default()
        },
    );
    let llm = SimLlm::default_model(1)
        .with_oracle(ds.mask.clone())
        .with_latency_scale(1.0);
    let detector = ZeroEd::new(ZeroEdConfig::fast());
    let outcome = detector.detect(&ds.dirty, &llm);

    let profile = outcome
        .stats
        .stage_profile
        .as_ref()
        .expect("a non-empty run always carries a stage profile");

    println!(
        "hospital @ {} rows × {} cols — {} scheduler tasks, {} LLM requests\n",
        ds.dirty.n_rows(),
        ds.dirty.n_cols(),
        outcome.stats.runtime_tasks,
        llm.ledger().usage().requests,
    );
    print!("{}", profile.render_table());

    // The tree is plain data: walk it to answer "where did the wall go?".
    let covered = profile.coverage() * 100.0;
    println!("\ntop-level stages cover {covered:.1}% of the run's wall time");
    if let Some(execute) = profile.find("runtime/execute") {
        if let Some(q) = &execute.quantiles {
            println!(
                "scheduler task latency: p50 {:.1} ms, p99 {:.1} ms over {} tasks",
                q.p50_nanos as f64 / 1e6,
                q.p99_nanos as f64 / 1e6,
                execute.count,
            );
        }
    }
    assert!(profile.accounting_ok(), "child spans must not overflow their parent");
}
