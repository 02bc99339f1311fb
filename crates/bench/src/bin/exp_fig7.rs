//! Fig. 7 — end-to-end runtime: (a) every method across the six comparison
//! datasets, (b) scalability on growing subsets of the Tax dataset.

use zeroed_bench::{format_table, parse_args, prepared_dataset, run_method, Method, Row};
use zeroed_core::ZeroEdConfig;
use zeroed_datagen::{generate, DatasetSpec, GenerateOptions};
use zeroed_llm::LlmProfile;

fn main() {
    let args = parse_args(std::env::args().skip(1));
    println!("== Fig. 7: running-time evaluation ==");
    println!("(rows per dataset: {}; single run per point)\n", args.rows);
    let methods = Method::paper_lineup(ZeroEdConfig::default());

    // (a) Runtime across datasets.
    let header: Vec<String> = DatasetSpec::COMPARISON
        .iter()
        .map(|s| format!("{} (s)", s.name()))
        .collect();
    let datasets: Vec<_> = DatasetSpec::COMPARISON
        .iter()
        .map(|&spec| prepared_dataset(spec, &args, args.base_seed))
        .collect();
    let mut rows = Vec::new();
    for method in &methods {
        let mut cells = Vec::new();
        for prepared in &datasets {
            let result = run_method(
                method,
                &prepared.data,
                LlmProfile::qwen_72b(),
                args.base_seed,
            );
            cells.push(format!("{:.2}", result.runtime.as_secs_f64()));
        }
        rows.push(Row::new(method.name(), cells));
        eprintln!("finished {}", method.name());
    }
    println!("(a) runtime across datasets");
    println!("{}", format_table("Method", &header, &rows));

    // (b) Scalability on Tax subsets. The paper sweeps 50k–200k tuples; the
    // default harness sweep is scaled down so it finishes quickly — pass
    // larger --rows to extend it (sizes are rows, 2*rows, 4*rows, 8*rows).
    let base = if args.rows == 0 { 1_000 } else { args.rows };
    let sizes: Vec<usize> = vec![base, base * 2, base * 4, base * 8];
    let header: Vec<String> = sizes.iter().map(|s| format!("{s} rows (s)")).collect();
    let mut rows = Vec::new();
    for method in &methods {
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
            cells.push(format!("{:.2}", result.runtime.as_secs_f64()));
        }
        rows.push(Row::new(method.name(), cells));
        eprintln!("finished {} on Tax subsets", method.name());
    }
    println!("(b) runtime on Tax subsets");
    println!("{}", format_table("Method", &header, &rows));
}
