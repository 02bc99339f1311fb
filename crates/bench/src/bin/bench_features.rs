//! `BENCH_features.json` emitter: featurisation wall-times on duplicate-heavy
//! generated datasets, fast (interned) path vs. the seed reference path.
//!
//! Runs the full `fit + build_all` featurisation on the hospital and flights
//! generators at 1k/10k/50k rows, once through the interned fast path and once
//! through `zeroed_features::reference::build_all_reference` (the seed
//! per-cell implementation, kept as the correctness oracle), plus an
//! end-to-end `ZeroEd::detect` wall-time per dataset at 1k rows, plus the
//! interned-vs-reference wall-times of the dBoost, NADEEF and KATARA
//! baselines (whose histograms, FD lookups and knowledge-base lookups consume
//! the shared `TableDict` / code-keyed `FrequencyModel`). Results are
//! written to `BENCH_features.json` (override with `--out PATH`; `--quick`
//! caps the sweep at 10k rows for CI smoke runs) so successive PRs can track
//! the perf trajectory.
//!
//! ```text
//! cargo run --release -p zeroed-bench --bin bench_features
//! ```

use std::fmt::Write as _;
use std::time::Instant;
use zeroed_baselines::{Baseline, BaselineInput, DBoost, Katara, LabeledTuple, Nadeef, Raha};
use zeroed_core::{ZeroEd, ZeroEdConfig};
use zeroed_datagen::{generate, DatasetSpec, GenerateOptions};
use zeroed_features::reference::build_all_reference;
use zeroed_features::{FeatureBuilder, FeatureConfig};
use zeroed_llm::LlmProfile;

struct FeatureResult {
    dataset: &'static str,
    rows: usize,
    cols: usize,
    distinct_ratio: f64,
    fit_ms: f64,
    fast_build_ms: f64,
    reference_build_ms: f64,
}

struct PipelineResult {
    dataset: &'static str,
    rows: usize,
    wall_ms: f64,
}

struct BaselineResult {
    method: &'static str,
    dataset: &'static str,
    rows: usize,
    interned_ms: f64,
    reference_ms: f64,
}

fn ms(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

fn bench_dataset(spec: DatasetSpec, name: &'static str, rows: usize) -> FeatureResult {
    let ds = generate(
        spec,
        &GenerateOptions {
            n_rows: rows,
            seed: 7,
            error_spec: None,
        },
    );
    let table = &ds.dirty;
    let dict = table.intern();
    let n_cells = table.n_cells().max(1);
    let distinct: usize = (0..table.n_cols())
        .map(|j| dict.column(j).n_distinct())
        .sum();
    let builder = FeatureBuilder::new(FeatureConfig {
        embed_dim: 24,
        top_k_corr: 2,
        ..FeatureConfig::default()
    });

    // Fit (interning, NMI, frequency model, distinct-value caches).
    let t = Instant::now();
    let fitted = builder.fit(table, &[]);
    let fit_ms = ms(t);

    // Fast path: warm once, then time the better of two runs.
    let _ = fitted.build_all();
    let mut fast_build_ms = f64::INFINITY;
    for _ in 0..2 {
        let t = Instant::now();
        let fast = fitted.build_all();
        fast_build_ms = fast_build_ms.min(ms(t));
        std::hint::black_box(&fast);
    }

    // Seed reference path (single run; it is the slow side being measured).
    let t = Instant::now();
    let reference = build_all_reference(&fitted);
    let reference_build_ms = ms(t);
    std::hint::black_box(&reference);

    FeatureResult {
        dataset: name,
        rows: table.n_rows(),
        cols: table.n_cols(),
        distinct_ratio: distinct as f64 / n_cells as f64,
        fit_ms,
        fast_build_ms,
        reference_build_ms,
    }
}

fn bench_pipeline(spec: DatasetSpec, name: &'static str, rows: usize) -> PipelineResult {
    let ds = generate(
        spec,
        &GenerateOptions {
            n_rows: rows,
            seed: 7,
            error_spec: None,
        },
    );
    let llm = zeroed_bench::simulated_llm(&ds, LlmProfile::qwen_72b(), 1);
    let detector = ZeroEd::new(ZeroEdConfig::fast());
    let t = Instant::now();
    let outcome = detector.detect(&ds.dirty, &llm);
    let wall_ms = ms(t);
    std::hint::black_box(&outcome);
    PipelineResult {
        dataset: name,
        rows,
        wall_ms,
    }
}

fn bench_baselines(spec: DatasetSpec, name: &'static str, rows: usize) -> Vec<BaselineResult> {
    let ds = generate(
        spec,
        &GenerateOptions {
            n_rows: rows,
            seed: 7,
            error_spec: None,
        },
    );
    let input = BaselineInput {
        dirty: &ds.dirty,
        metadata: &ds.metadata,
        labeled: &[],
    };
    let dboost = DBoost::default();
    let nadeef = Nadeef::with_all_rules();
    let mut out = Vec::new();
    // Both sides get the identical protocol — one untimed warm-up run, then
    // best-of-two timed runs — so one-time allocator/page-fault effects bias
    // neither, and equivalence is asserted as we go.
    let time_side = |side: &dyn Fn() -> zeroed_table::ErrorMask| {
        let warm = side();
        let mut best_ms = f64::INFINITY;
        for _ in 0..2 {
            let t = Instant::now();
            let mask = side();
            best_ms = best_ms.min(ms(t));
            assert_eq!(mask, warm);
        }
        (warm, best_ms)
    };
    let time_pair = |fast: &dyn Fn() -> zeroed_table::ErrorMask,
                     slow: &dyn Fn() -> zeroed_table::ErrorMask| {
        let (fast_mask, fast_ms) = time_side(fast);
        let (slow_mask, slow_ms) = time_side(slow);
        assert_eq!(
            slow_mask, fast_mask,
            "interned baseline diverged from reference"
        );
        (fast_ms, slow_ms)
    };
    let (interned_ms, reference_ms) = time_pair(&|| dboost.detect(&input), &|| {
        dboost.detect_reference(&input)
    });
    out.push(BaselineResult {
        method: "dBoost",
        dataset: name,
        rows,
        interned_ms,
        reference_ms,
    });
    let (interned_ms, reference_ms) = time_pair(&|| nadeef.detect(&input), &|| {
        nadeef.detect_reference(&input)
    });
    out.push(BaselineResult {
        method: "NADEEF",
        dataset: name,
        rows,
        interned_ms,
        reference_ms,
    });
    let katara = Katara;
    let (interned_ms, reference_ms) = time_pair(&|| katara.detect(&input), &|| {
        katara.detect_reference(&input)
    });
    out.push(BaselineResult {
        method: "KATARA",
        dataset: name,
        rows,
        interned_ms,
        reference_ms,
    });
    // Raha's detection is label-propagated: give it a realistic labelling
    // budget (error rows plus clean rows, as in the Fig. 6 sweeps).
    let labels = LabeledTuple::mixed_from_mask(&ds.mask, 10);
    let labeled_input = BaselineInput {
        dirty: &ds.dirty,
        metadata: &ds.metadata,
        labeled: &labels,
    };
    let raha = Raha::default();
    let (interned_ms, reference_ms) = time_pair(&|| raha.detect(&labeled_input), &|| {
        raha.detect_reference(&labeled_input)
    });
    out.push(BaselineResult {
        method: "Raha",
        dataset: name,
        rows,
        interned_ms,
        reference_ms,
    });
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out_path = "BENCH_features.json".to_string();
    let mut quick = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--out" => {
                if let Some(p) = args.get(i + 1) {
                    out_path = p.clone();
                    i += 1;
                }
            }
            "--quick" => quick = true,
            _ => {}
        }
        i += 1;
    }

    let sizes: &[usize] = if quick {
        &[1_000, 10_000]
    } else {
        &[1_000, 10_000, 50_000]
    };
    let specs = [
        (DatasetSpec::Hospital, "hospital"),
        (DatasetSpec::Flights, "flights"),
    ];

    let mut features = Vec::new();
    for &(spec, name) in &specs {
        for &rows in sizes {
            eprintln!("featurising {name} @ {rows} rows ...");
            let r = bench_dataset(spec, name, rows);
            eprintln!(
                "  fit {:.1} ms | build fast {:.1} ms | build reference {:.1} ms | speedup {:.1}x",
                r.fit_ms,
                r.fast_build_ms,
                r.reference_build_ms,
                r.reference_build_ms / r.fast_build_ms.max(1e-9),
            );
            features.push(r);
        }
    }

    let mut pipeline = Vec::new();
    for &(spec, name) in &specs {
        eprintln!("end-to-end pipeline {name} @ 1000 rows ...");
        let r = bench_pipeline(spec, name, 1_000);
        eprintln!("  detect {:.1} ms", r.wall_ms);
        pipeline.push(r);
    }

    let baseline_rows = *sizes.last().unwrap();
    let mut baselines = Vec::new();
    for &(spec, name) in &specs {
        eprintln!("baselines {name} @ {baseline_rows} rows ...");
        for r in bench_baselines(spec, name, baseline_rows) {
            eprintln!(
                "  {} interned {:.1} ms | reference {:.1} ms | speedup {:.1}x",
                r.method,
                r.interned_ms,
                r.reference_ms,
                r.reference_ms / r.interned_ms.max(1e-9),
            );
            baselines.push(r);
        }
    }

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(
        json,
        "  \"generated_by\": \"cargo run --release -p zeroed-bench --bin bench_features\",",
    );
    let _ = writeln!(
        json,
        "  \"host_cores\": {},",
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    );
    json.push_str("  \"featurisation\": [\n");
    for (i, r) in features.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"dataset\": \"{}\", \"rows\": {}, \"cols\": {}, \"distinct_ratio\": {:.4}, \
             \"fit_ms\": {:.2}, \"build_fast_ms\": {:.2}, \"build_reference_ms\": {:.2}, \
             \"speedup\": {:.2}}}",
            r.dataset,
            r.rows,
            r.cols,
            r.distinct_ratio,
            r.fit_ms,
            r.fast_build_ms,
            r.reference_build_ms,
            r.reference_build_ms / r.fast_build_ms.max(1e-9),
        );
        json.push_str(if i + 1 < features.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n");
    json.push_str("  \"baselines_interning\": [\n");
    for (i, r) in baselines.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"method\": \"{}\", \"dataset\": \"{}\", \"rows\": {}, \
             \"interned_ms\": {:.2}, \"reference_ms\": {:.2}, \"speedup\": {:.2}}}",
            r.method,
            r.dataset,
            r.rows,
            r.interned_ms,
            r.reference_ms,
            r.reference_ms / r.interned_ms.max(1e-9),
        );
        json.push_str(if i + 1 < baselines.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n");
    json.push_str("  \"pipeline_detect\": [\n");
    for (i, r) in pipeline.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"dataset\": \"{}\", \"rows\": {}, \"wall_ms\": {:.2}}}",
            r.dataset, r.rows, r.wall_ms,
        );
        json.push_str(if i + 1 < pipeline.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ]\n}\n");

    std::fs::write(&out_path, &json).expect("write benchmark JSON");
    println!("{json}");
    eprintln!("wrote {out_path}");
}
