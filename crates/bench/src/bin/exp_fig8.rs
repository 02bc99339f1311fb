//! Fig. 8 — LLM token consumption of ZeroED vs FM_ED: (a) across the six
//! comparison datasets, (b) on growing subsets of the Tax dataset.

use zeroed_bench::{format_table, parse_args, prepared_dataset, run_method, Method, Row};
use zeroed_datagen::{generate, DatasetSpec, GenerateOptions};
use zeroed_llm::LlmProfile;

fn token_cells(result: &zeroed_bench::MethodResult) -> Vec<String> {
    vec![
        format!("{}", result.tokens.input_tokens),
        format!("{}", result.tokens.output_tokens),
        format!("{}", result.tokens.total()),
    ]
}

fn main() {
    let args = parse_args(std::env::args().skip(1));
    println!("== Fig. 8: token consumption (ZeroED vs FM_ED) ==");
    println!("(rows per dataset: {}; single run per point)\n", args.rows);
    let methods = [
        ("ZeroED", Method::ZeroEd(Box::default())),
        ("FM_ED", Method::FmEd),
    ];

    // (a) Across datasets.
    println!("(a) token cost across datasets (input / output / total)");
    let header: Vec<String> = vec!["input".into(), "output".into(), "total".into()];
    for &spec in &DatasetSpec::COMPARISON {
        let prepared = prepared_dataset(spec, &args, args.base_seed);
        let mut rows = Vec::new();
        for (label, method) in &methods {
            let result = run_method(
                method,
                &prepared.data,
                LlmProfile::qwen_72b(),
                args.base_seed,
            );
            rows.push(Row::new(*label, token_cells(&result)));
        }
        println!("{}", format_table(spec.name(), &header, &rows));
    }

    // (b) Tax subsets.
    let base = if args.rows == 0 { 1_000 } else { args.rows };
    let sizes: Vec<usize> = vec![base, base * 2, base * 4, base * 8];
    println!("(b) total token cost on Tax subsets");
    let header: Vec<String> = sizes.iter().map(|s| format!("{s} rows")).collect();
    let mut rows = Vec::new();
    for (label, method) in &methods {
        let mut cells = Vec::new();
        for &size in &sizes {
            let ds = generate(
                DatasetSpec::Tax,
                &GenerateOptions {
                    n_rows: size,
                    seed: args.base_seed,
                    error_spec: None,
                },
            );
            let result = run_method(method, &ds, LlmProfile::qwen_72b(), args.base_seed);
            cells.push(format!("{}", result.tokens.total()));
        }
        rows.push(Row::new(*label, cells));
        eprintln!("finished {label} on Tax subsets");
    }
    println!("{}", format_table("Method", &header, &rows));
}
