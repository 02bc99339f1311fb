//! Table V — effect of the LLM backbone: ZeroED with five different simulated
//! model profiles.

use zeroed_bench::tablefmt::prf;
use zeroed_bench::{format_table, parse_args, prepared_dataset, run_method_averaged, Method, Row};
use zeroed_datagen::DatasetSpec;
use zeroed_llm::LlmProfile;

fn main() {
    let args = parse_args(std::env::args().skip(1));
    println!("== Table V: ZeroED with different LLM backbones ==");
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
    for profile in LlmProfile::all() {
        let method = Method::ZeroEd(Box::default());
        let mut cells = Vec::new();
        for prepared in &datasets {
            let result = run_method_averaged(&method, &prepared.data, profile.clone(), &seeds);
            cells.push(prf(
                result.report.precision,
                result.report.recall,
                result.report.f1,
            ));
        }
        rows.push(Row::new(profile.name.clone(), cells));
        eprintln!("finished {}", profile.name);
    }
    println!("{}", format_table("LLM", &header, &rows));
}
