//! Cross-crate integration tests: the full ZeroED pipeline against generated
//! benchmark datasets and the baselines, exercised through the umbrella crate.

use zeroed::baselines::{Baseline, BaselineInput, DBoost, Katara, Nadeef};
use zeroed::prelude::*;

fn dataset(spec: DatasetSpec, rows: usize, seed: u64) -> zeroed::datagen::GeneratedDataset {
    generate(
        spec,
        &GenerateOptions {
            n_rows: rows,
            seed,
            ..Default::default()
        },
    )
}

fn oracle_llm(ds: &zeroed::datagen::GeneratedDataset, seed: u64) -> SimLlm {
    let types: Vec<_> = ds
        .injected
        .iter()
        .map(|e| ((e.row, e.col), e.error_type))
        .collect();
    SimLlm::default_model(seed)
        .with_oracle(ds.mask.clone())
        .with_error_types(types)
}

#[test]
fn zeroed_beats_criteria_free_baselines_on_rayyan() {
    let ds = dataset(DatasetSpec::Rayyan, 300, 5);
    let llm = oracle_llm(&ds, 5);
    let config = ZeroEdConfig {
        label_rate: 0.08,
        ..ZeroEdConfig::default()
    };
    let zeroed_f1 = ZeroEd::new(config)
        .detect(&ds.dirty, &llm)
        .mask
        .score_against(&ds.mask)
        .unwrap()
        .f1;

    let input = BaselineInput {
        dirty: &ds.dirty,
        metadata: &ds.metadata,
        labeled: &[],
    };
    let dboost_f1 = DBoost::default()
        .detect(&input)
        .score_against(&ds.mask)
        .unwrap()
        .f1;
    let katara_f1 = Katara.detect(&input).score_against(&ds.mask).unwrap().f1;

    assert!(
        zeroed_f1 > dboost_f1,
        "ZeroED {zeroed_f1:.3} should beat dBoost {dboost_f1:.3} on Rayyan"
    );
    assert!(
        zeroed_f1 > katara_f1,
        "ZeroED {zeroed_f1:.3} should beat KATARA {katara_f1:.3}"
    );
    assert!(zeroed_f1 > 0.5, "ZeroED F1 too low: {zeroed_f1:.3}");
}

#[test]
fn zeroed_works_across_all_comparison_datasets() {
    for spec in DatasetSpec::COMPARISON {
        let ds = dataset(spec, 200, 9);
        let llm = oracle_llm(&ds, 9);
        let outcome = ZeroEd::new(ZeroEdConfig {
            label_rate: 0.1,
            ..ZeroEdConfig::fast()
        })
        .detect(&ds.dirty, &llm);
        let report = outcome.mask.score_against(&ds.mask).unwrap();
        assert!(
            report.f1 > 0.25,
            "{}: unexpectedly low F1 {report}",
            spec.name()
        );
        assert!(
            outcome.stats.llm_labeled_cells < ds.dirty.n_cells(),
            "{}: ZeroED must not label every cell with the LLM",
            spec.name()
        );
    }
}

#[test]
fn guideline_and_criteria_ablations_do_not_improve_f1_on_average() {
    // The paper's Table IV shows every ablation losing F1 on average across
    // datasets. With the simulated LLM the gap is smaller but the direction
    // should hold when averaged over a couple of datasets.
    let specs = [DatasetSpec::Beers, DatasetSpec::Flights];
    let mut full = 0.0;
    let mut no_guid = 0.0;
    let mut no_crit = 0.0;
    for (i, &spec) in specs.iter().enumerate() {
        let ds = dataset(spec, 250, 20 + i as u64);
        let llm = oracle_llm(&ds, 20 + i as u64);
        let base = ZeroEdConfig {
            label_rate: 0.08,
            ..ZeroEdConfig::fast()
        };
        let run = |config: ZeroEdConfig| {
            ZeroEd::new(config)
                .detect(&ds.dirty, &llm)
                .mask
                .score_against(&ds.mask)
                .unwrap()
                .f1
        };
        full += run(base.clone());
        no_guid += run(base.clone().without_guidelines());
        no_crit += run(base.clone().without_criteria());
    }
    assert!(
        full + 0.08 >= no_guid,
        "removing guidelines should not clearly help: full {full:.3} vs {no_guid:.3}"
    );
    assert!(
        full + 0.08 >= no_crit,
        "removing criteria should not clearly help: full {full:.3} vs {no_crit:.3}"
    );
}

#[test]
fn nadeef_finds_rule_violations_it_was_given_rules_for() {
    let ds = dataset(DatasetSpec::Hospital, 250, 3);
    let input = BaselineInput {
        dirty: &ds.dirty,
        metadata: &ds.metadata,
        labeled: &[],
    };
    let report = Nadeef::default()
        .detect(&input)
        .score_against(&ds.mask)
        .unwrap();
    // The default NADEEF only receives a small rule budget (as in the paper),
    // so recall is limited — but it must catch at least some true violations.
    assert!(
        report.tp > 0,
        "NADEEF should catch some violations: {report}"
    );
    let full = Nadeef::with_all_rules()
        .detect(&input)
        .score_against(&ds.mask)
        .unwrap();
    assert!(
        full.recall >= report.recall,
        "more rules cannot reduce recall"
    );
}

#[test]
fn token_ledger_is_monotone_across_pipeline_stages() {
    let ds = dataset(DatasetSpec::Rayyan, 150, 8);
    let llm = oracle_llm(&ds, 8);
    let before = llm.ledger().usage();
    assert_eq!(before.requests, 0);
    let _ = ZeroEd::new(ZeroEdConfig::fast()).detect(&ds.dirty, &llm);
    let after = llm.ledger().usage();
    assert!(after.requests > 0);
    assert!(after.input_tokens > 0);
    assert!(after.output_tokens > 0);
}

#[test]
fn detection_is_deterministic_for_a_fixed_seed() {
    let ds = dataset(DatasetSpec::Beers, 150, 4);
    let run = || {
        let llm = oracle_llm(&ds, 4);
        ZeroEd::new(ZeroEdConfig {
            seed: 11,
            ..ZeroEdConfig::fast()
        })
        .detect(&ds.dirty, &llm)
        .mask
    };
    assert_eq!(run(), run());
}
