//! Table IV — ablation study: ZeroED with guideline generation, criteria
//! reasoning, correlated-attribute features or verification/augmentation
//! removed.

use zeroed_bench::tablefmt::prf;
use zeroed_bench::{format_table, parse_args, prepared_dataset, run_method_averaged, Method, Row};
use zeroed_core::ZeroEdConfig;
use zeroed_datagen::DatasetSpec;
use zeroed_llm::LlmProfile;

fn main() {
    let args = parse_args(std::env::args().skip(1));
    println!("== Table IV: ablation study of ZeroED ==");
    println!(
        "(rows per dataset: {}; seeds averaged: {})\n",
        args.rows, args.seeds
    );
    let variants: Vec<(&str, ZeroEdConfig)> = vec![
        ("w/o Guid.", ZeroEdConfig::default().without_guidelines()),
        ("w/o Crit.", ZeroEdConfig::default().without_criteria()),
        ("w/o Corr.", ZeroEdConfig::default().without_correlated()),
        ("w/o Veri.", ZeroEdConfig::default().without_verification()),
        ("ZeroED", ZeroEdConfig::default()),
    ];
    let header: Vec<String> = DatasetSpec::COMPARISON
        .iter()
        .map(|s| format!("{} P/R/F1", s.name()))
        .collect();
    let seeds = args.seed_list();
    let datasets: Vec<_> = DatasetSpec::COMPARISON
        .iter()
        .map(|&spec| prepared_dataset(spec, &args, args.base_seed))
        .collect();

    let mut rows = Vec::new();
    for (label, config) in &variants {
        let method = Method::ZeroEd(Box::new(config.clone()));
        let mut cells = Vec::new();
        for prepared in &datasets {
            let result =
                run_method_averaged(&method, &prepared.data, LlmProfile::qwen_72b(), &seeds);
            cells.push(prf(
                result.report.precision,
                result.report.recall,
                result.report.f1,
            ));
        }
        rows.push(Row::new(*label, cells));
        eprintln!("finished {label}");
    }
    println!("{}", format_table("Ablation", &header, &rows));
}
