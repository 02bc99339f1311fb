//! Table III — main comparison: precision/recall/F1 of the seven methods on
//! the six comparison datasets.

use zeroed_bench::tablefmt::prf;
use zeroed_bench::{format_table, parse_args, prepared_dataset, run_method_averaged};
use zeroed_bench::{Method, Row};
use zeroed_core::ZeroEdConfig;
use zeroed_datagen::DatasetSpec;
use zeroed_llm::LlmProfile;

fn main() {
    let args = parse_args(std::env::args().skip(1));
    println!("== Table III: error-detection performance comparison ==");
    println!(
        "(rows per dataset: {}; seeds averaged: {})\n",
        args.rows, args.seeds
    );
    let methods = Method::paper_lineup(ZeroEdConfig::default());
    let header: Vec<String> = DatasetSpec::COMPARISON
        .iter()
        .map(|s| format!("{} P/R/F1", s.name()))
        .collect();
    let seeds = args.seed_list();

    // Generate each dataset once (per base seed) and reuse across methods.
    let datasets: Vec<_> = DatasetSpec::COMPARISON
        .iter()
        .map(|&spec| prepared_dataset(spec, &args, args.base_seed))
        .collect();

    let mut rows = Vec::new();
    for method in &methods {
        let mut cells = Vec::new();
        for prepared in &datasets {
            let result =
                run_method_averaged(method, &prepared.data, LlmProfile::qwen_72b(), &seeds);
            cells.push(prf(
                result.report.precision,
                result.report.recall,
                result.report.f1,
            ));
        }
        rows.push(Row::new(method.name(), cells));
        eprintln!("finished {}", method.name());
    }
    println!("{}", format_table("Method", &header, &rows));
}
