//! Fig. 6 — Raha's F1 as the number of human-labelled tuples grows, with the
//! label-free ZeroED F1 as the reference line.

use zeroed_bench::{format_table, parse_args, prepared_dataset, run_method_averaged, Method, Row};
use zeroed_datagen::DatasetSpec;
use zeroed_llm::LlmProfile;

fn main() {
    let args = parse_args(std::env::args().skip(1));
    println!("== Fig. 6: Raha performance via active learning (F1 vs #labels) ==");
    println!(
        "(rows per dataset: {}; seeds averaged: {})\n",
        args.rows, args.seeds
    );
    let label_counts = [1usize, 5, 10, 15, 20, 25, 30, 35, 40, 45];
    let header: Vec<String> = DatasetSpec::COMPARISON
        .iter()
        .map(|s| s.name().to_string())
        .collect();
    let seeds = args.seed_list();
    let datasets: Vec<_> = DatasetSpec::COMPARISON
        .iter()
        .map(|&spec| prepared_dataset(spec, &args, args.base_seed))
        .collect();

    let mut rows = Vec::new();
    for &n_labels in &label_counts {
        let method = Method::Raha {
            labeled_tuples: n_labels,
        };
        let mut cells = Vec::new();
        for prepared in &datasets {
            let result =
                run_method_averaged(&method, &prepared.data, LlmProfile::qwen_72b(), &seeds);
            cells.push(format!("{:.3}", result.report.f1));
        }
        rows.push(Row::new(format!("Raha @{n_labels}"), cells));
        eprintln!("finished Raha with {n_labels} labels");
    }
    // ZeroED reference (no human labels at all).
    let zeroed = Method::ZeroEd(Box::default());
    let mut cells = Vec::new();
    for prepared in &datasets {
        let result = run_method_averaged(&zeroed, &prepared.data, LlmProfile::qwen_72b(), &seeds);
        cells.push(format!("{:.3}", result.report.f1));
    }
    rows.push(Row::new("ZeroED (0 labels)", cells));
    println!("{}", format_table("F1", &header, &rows));
}
