//! Fig. 9 — ZeroED performance as the LLM label rate (clustering number) grows
//! from 1% to 5%.

use zeroed_bench::tablefmt::prf;
use zeroed_bench::{format_table, parse_args, prepared_dataset, run_method_averaged, Method, Row};
use zeroed_core::ZeroEdConfig;
use zeroed_datagen::DatasetSpec;
use zeroed_llm::LlmProfile;

fn main() {
    let args = parse_args(std::env::args().skip(1));
    println!("== Fig. 9: error detection under different LLM label rates ==");
    println!(
        "(rows per dataset: {}; seeds averaged: {})\n",
        args.rows, args.seeds
    );
    let rates = [0.01, 0.02, 0.03, 0.04, 0.05];
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
    for &rate in &rates {
        let config = ZeroEdConfig {
            label_rate: rate,
            ..ZeroEdConfig::default()
        };
        let method = Method::ZeroEd(Box::new(config));
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
        rows.push(Row::new(format!("{:.0}%", rate * 100.0), cells));
        eprintln!("finished label rate {rate}");
    }
    println!("{}", format_table("Label rate", &header, &rows));
}
