//! Table VI — effect of the clustering/sampling method (Random, agglomerative,
//! k-means) on Flights, Billionaire and Movies.

use zeroed_bench::tablefmt::prf;
use zeroed_bench::{format_table, parse_args, prepared_dataset, run_method_averaged, Method, Row};
use zeroed_core::config::SamplingMethodConfig;
use zeroed_core::ZeroEdConfig;
use zeroed_datagen::DatasetSpec;
use zeroed_llm::LlmProfile;

fn main() {
    let args = parse_args(std::env::args().skip(1));
    println!("== Table VI: ZeroED with different clustering methods ==");
    println!(
        "(rows per dataset: {}; seeds averaged: {})\n",
        args.rows, args.seeds
    );
    let datasets_specs = [
        DatasetSpec::Flights,
        DatasetSpec::Billionaire,
        DatasetSpec::Movies,
    ];
    let header: Vec<String> = datasets_specs
        .iter()
        .map(|s| format!("{} P/R/F1", s.name()))
        .collect();
    let seeds = args.seed_list();
    let datasets: Vec<_> = datasets_specs
        .iter()
        .map(|&spec| prepared_dataset(spec, &args, args.base_seed))
        .collect();

    let variants = [
        ("Random", SamplingMethodConfig::Random),
        ("AGC", SamplingMethodConfig::Agglomerative),
        ("k-Means", SamplingMethodConfig::KMeans),
    ];
    let mut rows = Vec::new();
    for (label, sampling) in variants {
        let config = ZeroEdConfig {
            sampling,
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
        rows.push(Row::new(label, cells));
        eprintln!("finished {label}");
    }
    println!("{}", format_table("Clustering", &header, &rows));
}
