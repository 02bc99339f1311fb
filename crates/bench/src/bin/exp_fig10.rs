//! Fig. 10 — ZeroED performance as the number of correlated attributes grows
//! from 1 to 5.

use zeroed_bench::tablefmt::prf;
use zeroed_bench::{format_table, parse_args, prepared_dataset, run_method_averaged, Method, Row};
use zeroed_core::ZeroEdConfig;
use zeroed_datagen::DatasetSpec;
use zeroed_llm::LlmProfile;

fn main() {
    let args = parse_args(std::env::args().skip(1));
    println!("== Fig. 10: error detection under different correlated-attribute counts ==");
    println!(
        "(rows per dataset: {}; seeds averaged: {})\n",
        args.rows, args.seeds
    );
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
    for k in 1..=5usize {
        let config = ZeroEdConfig {
            top_k_corr: k,
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
        rows.push(Row::new(format!("k = {k}"), cells));
        eprintln!("finished k = {k}");
    }
    println!("{}", format_table("Corr. attrs", &header, &rows));
}
