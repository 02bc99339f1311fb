//! Flight-recorder walk-through: run one detection with per-request tracing
//! and render what the recorder saw — an event census, an ASCII waterfall of
//! the slowest request, and a Chrome trace-event file for Perfetto.
//!
//! ```text
//! cargo run --release --example trace_report
//! ```
//!
//! Every `ZeroEd::detect` run journals typed events (scheduler
//! submit/queue/execute, cache hit/miss/publish, repair ladder outcomes,
//! store writes) into a bounded ring keyed by deterministic per-request
//! trace ids, and freezes the journal into `PipelineStats::trace`. The
//! summary's per-kind counts are exact even when the ring overflows; the
//! surviving events power the exemplars and the exporters used below. The
//! written JSON loads directly in <https://ui.perfetto.dev> or
//! `chrome://tracing`.

use zeroed::obs::{chrome_trace_json, EventKind};
use zeroed::prelude::*;

fn main() {
    let ds = generate(
        DatasetSpec::Hospital,
        &GenerateOptions {
            n_rows: 2_000,
            seed: 7,
            ..Default::default()
        },
    );
    let llm = SimLlm::default_model(1)
        .with_oracle(ds.mask.clone())
        .with_latency_scale(1.0);
    let detector = ZeroEd::new(ZeroEdConfig::fast());
    let outcome = detector.detect(&ds.dirty, &llm);

    let trace = outcome
        .stats
        .trace
        .as_ref()
        .expect("every run carries a trace summary");
    trace
        .verify()
        .expect("the journal must be causally consistent");

    // 1. The census: exact per-kind counts, independent of ring capacity.
    println!(
        "flight recorder: {} events recorded, {} dropped from the ring\n",
        trace.recorded(),
        trace.dropped_events,
    );
    for kind in EventKind::ALL {
        let n = trace.count(kind);
        if n > 0 {
            println!("  {:<18} {:>6}", kind.name(), n);
        }
    }

    // 2. The waterfall: the slowest request-rooted trace, event by event.
    let slowest = trace
        .exemplars
        .iter()
        .max_by_key(|e| e.span_nanos())
        .expect("a traced run always yields exemplars");
    let span = slowest.span_nanos().max(1);
    const WIDTH: usize = 48;
    println!(
        "\nslowest request {:#018x} — {:.3} ms, {} events",
        slowest.trace.raw(),
        span as f64 / 1e6,
        slowest.events.len(),
    );
    println!("  {:>10}  {:<width$}  event", "offset", "", width = WIDTH);
    for ev in &slowest.events {
        let offset = ev.t_nanos - slowest.begin_nanos;
        let col = (offset as usize * (WIDTH - 1)) / span as usize;
        let mut lane = vec![b'-'; WIDTH];
        lane[col] = b'*';
        println!(
            "  {:>8.3}ms  {}  {} (arg {})",
            offset as f64 / 1e6,
            String::from_utf8(lane).unwrap(),
            ev.kind.name(),
            ev.arg,
        );
    }

    // 3. The Chrome export: queue/execute/compute spans plus instants.
    let chrome = chrome_trace_json(&trace.events);
    let path = std::env::temp_dir().join("zeroed_trace_report.json");
    std::fs::write(&path, &chrome).expect("write chrome trace");
    println!(
        "\nwrote {} ({} bytes) — open it in https://ui.perfetto.dev",
        path.display(),
        chrome.len(),
    );
}
