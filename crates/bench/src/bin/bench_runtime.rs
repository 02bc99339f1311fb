//! `BENCH_runtime.json` emitter: LLM-orchestration wall-times for the three
//! runtime execution modes.
//!
//! Runs full `ZeroEd::detect` sweeps on the hospital and flights generators
//! (50k rows by default; `--quick` drops to 5k for CI smoke runs) with the
//! simulated serving-latency model enabled, through:
//!
//! 1. **sequential** — one worker, no cache: the scheduler runs every task in
//!    order on the calling thread, so every LLM call blocks the pipeline;
//! 2. **concurrent** — per-attribute fan-out across the `zeroed-runtime`
//!    scheduler's worker pool, no cache;
//! 3. **concurrent+cache (cold)** — same, with the request-dedup cache on;
//! 4. **concurrent+cache (warm)** — a second detection against the same
//!    detector: every request replays from the cache (the re-run /
//!    repeated-workload scenario).
//!
//! The worker budget is fixed (default 16, `--workers N`) rather than derived
//! from host cores: LLM calls are latency-bound, not CPU-bound, so the pool
//! models a request-concurrency budget against a serving backend — sleeps
//! overlap regardless of core count. The headline metric is the *LLM-stage*
//! wall-time (labelling + training-data construction, the two stages whose
//! wall-clock is dominated by model calls); totals and the serial model cost
//! (`TokenLedger::sim_cost`) are reported alongside. Every mode must produce
//! a bit-identical mask — the emitter asserts it before writing the ledger.
//!
//! `--router` adds the multi-backend hedging experiment: detection against a
//! single backend stuck with a latency slow-tail versus a two-backend router
//! that hedges slow requests onto a healthy replica. The section reports
//! per-request p50/p99 latency for both arms and asserts that hedging
//! recovers the tail (p99 at least 1.5x better) without changing the mask.
//!
//! `--persist` adds the cross-process warm-start experiment: a cold detection
//! writes every response through to an on-disk `zeroed-store`, the detector
//! (and the store's writer) is dropped — the "process" exits — and a fresh
//! detector re-opens the directory and re-runs detection. The section reports
//! cold vs warm wall-times and asserts the warm run issues **zero** LLM
//! requests with a bit-identical mask. It also runs the sharded-concurrent-
//! writers experiment: K detectors (distinct `ShardedStore` handles, each
//! claiming its own writer slot per shard) persist disjoint workloads into
//! one sharded root *simultaneously*, and a fresh detector warm-starts all K
//! workloads from the merged slots with zero LLM requests.
//!
//! `--mangle` adds the degradation experiment: the same workload under a
//! seeded content-corruption schedule. It asserts the mask is bit-identical
//! between a sequential mangled oracle and a concurrent+cache run, that the
//! per-stage repair accounting reconciles exactly (`mangled == repaired +
//! reasked + defaulted`, with the totals equal to the simulator's corruption
//! count), and that a warm re-run replays the *repaired* responses with zero
//! LLM requests. The section reports per-stage counters, the re-ask ledger
//! line, and the LLM-stage overhead versus a healthy run.
//!
//! `--shapes` adds the workload-shape sweep: the three synthetic shapes from
//! `zeroed_datagen::WORKLOADS` (wide, high-distinct, mixed-schema), each run
//! sequential vs concurrent+cache with a per-shape `stage_breakdown`, so
//! scaling work can see which stage dominates under which table shape.
//!
//! `--trace` adds the flight-recorder conformance sweep: every headline mode
//! re-checks the per-request trace journal (causality invariants + exact
//! count reconciliation against the cache / scheduler / router / repair /
//! store counters — zero tolerance), and a dedicated section sweeps
//! {sequential, concurrent+cache cold/warm, routed-with-faults, mangled} on
//! hospital + flights, validates both exporters structurally (line-exact
//! JSONL; Chrome entries all complete spans or instants) and bounds the
//! recorder's overhead under the same <2% budget as the profiler.
//!
//! Every invocation — `--quick` included — additionally runs the criteria-VM
//! experiment: the compiled bytecode engine against the AST specification
//! oracle on hospital criteria, feature matrices and Algorithm-1 verification
//! outputs asserted identical before the `criteria_vm` ledger block records
//! the speedups.
//!
//! Every detection run carries a hierarchical stage profile
//! (`PipelineStats::stage_profile`, built by `zeroed-obs`). The emitter
//! asserts the accounting invariant on **every** run — including `--quick` —
//! before writing the ledger: sequential child spans sum to at most their
//! parent's wall, top-level stages cover ≥90% of the run's total wall (no
//! untracked time silently appearing), and the estimated profiler overhead
//! stays under 2% of the run. Each dataset block embeds the cold cached
//! run's tree as `stage_breakdown`. The full-size hospital sequential run
//! additionally asserts the non-LLM wall stays torn down: the `sampling` +
//! `detector` spans together must cover < 90% of the *non-LLM* wall, the
//! detect wall minus the `criteria_llm` and `labeling` spans (see
//! `assert_non_llm_wall` for the scoping rationale and `ARCHITECTURE.md`,
//! "The non-LLM wall").
//!
//! ```text
//! cargo run --release -p zeroed-bench --bin bench_runtime -- --router --persist --mangle --shapes
//! ```

use std::fmt::Write as _;
use std::time::{Duration, Instant};
use zeroed_core::{
    DetectionOutcome, RouterConfig, RouterLlm, RuntimeConfig, StageRepair, StoreConfig, ZeroEd,
    ZeroEdConfig,
};
use zeroed_criteria::verify;
use zeroed_datagen::{generate, DatasetSpec, GenerateOptions};
use zeroed_llm::{FaultSchedule, LlmClient, LlmProfile, MangleSchedule, SimLlm};
use zeroed_obs::{
    chrome_trace_json, journal_jsonl, EventKind, Profiler, StageProfile, TraceId, TraceRecorder,
    TraceSummary,
};

const LATENCY_SCALE: f64 = 1.0;

struct ModeResult {
    label: &'static str,
    total_ms: f64,
    llm_stage_ms: f64,
    requests: usize,
    tokens: usize,
    sim_cost_ms: f64,
    cache_hits: usize,
    cache_misses: usize,
    tokens_saved: usize,
    outcome: DetectionOutcome,
}

fn run_mode(
    label: &'static str,
    detector: &ZeroEd,
    ds: &zeroed_datagen::GeneratedDataset,
    seed: u64,
) -> ModeResult {
    let llm = zeroed_bench::simulated_llm(ds, LlmProfile::qwen_72b(), seed)
        .with_latency_scale(LATENCY_SCALE);
    run_mode_with(label, detector, ds, &llm)
}

/// Like [`run_mode`] but against a caller-built simulator (e.g. one with a
/// mangle schedule attached).
fn run_mode_with(
    label: &'static str,
    detector: &ZeroEd,
    ds: &zeroed_datagen::GeneratedDataset,
    llm: &SimLlm,
) -> ModeResult {
    let t = Instant::now();
    let outcome = detector.detect(&ds.dirty, llm);
    let total_ms = t.elapsed().as_secs_f64() * 1e3;
    let usage = llm.ledger().usage();
    let profile = outcome
        .stats
        .stage_profile
        .as_ref()
        .expect("a benchmark run must carry a stage profile");
    let stage_nanos = |name: &str| profile.child(name).map_or(0, |s| s.wall_nanos);
    let llm_stage_ms = (stage_nanos("labeling") + stage_nanos("training_data")) as f64 * 1e-6;
    ModeResult {
        label,
        total_ms,
        llm_stage_ms,
        requests: usage.requests,
        tokens: usage.total(),
        sim_cost_ms: llm.ledger().sim_cost().as_secs_f64() * 1e3,
        cache_hits: outcome.stats.cache_hits,
        cache_misses: outcome.stats.cache_misses,
        tokens_saved: outcome.stats.cache_tokens_saved,
        outcome,
    }
}

fn mode_json(r: &ModeResult) -> String {
    format!(
        "{{\"mode\": \"{}\", \"total_ms\": {:.1}, \"llm_stage_ms\": {:.1}, \
         \"requests\": {}, \"tokens\": {}, \"llm_serial_cost_ms\": {:.1}, \
         \"cache_hits\": {}, \"cache_misses\": {}, \"cache_tokens_saved\": {}}}",
        r.label,
        r.total_ms,
        r.llm_stage_ms,
        r.requests,
        r.tokens,
        r.sim_cost_ms,
        r.cache_hits,
        r.cache_misses,
        r.tokens_saved,
    )
}

fn json_mode(json: &mut String, r: &ModeResult, last: bool) {
    let _ = write!(json, "      {}", mode_json(r));
    json.push_str(if last { "\n" } else { ",\n" });
}

/// The stage profile a detection run must carry (only the degenerate
/// empty-table early return omits it).
fn profile_of(r: &ModeResult) -> &StageProfile {
    r.outcome
        .stats
        .stage_profile
        .as_ref()
        .expect("a benchmark run must carry a stage profile")
}

/// The accounting invariant, asserted on every run including `--quick`:
/// sequential child spans sum to at most their parent's wall, and the
/// top-level stages cover at least 90% of the run's total wall — untracked
/// time cannot silently appear.
fn assert_profile(dataset: &str, r: &ModeResult) {
    let p = profile_of(r);
    assert!(
        p.accounting_ok(),
        "{dataset}/{}: child spans overflow their parent\n{}",
        r.label,
        p.render_table()
    );
    let coverage = p.coverage();
    assert!(
        coverage >= 0.90,
        "{dataset}/{}: top-level stages cover only {:.1}% of total wall\n{}",
        r.label,
        coverage * 100.0,
        p.render_table()
    );
}

/// The non-LLM wall guard, asserted on the full-size (50k-row) **hospital
/// sequential** run: the `sampling` + `detector` top-level spans together
/// must cover less than 90% of the run's **non-LLM wall** (the detect wall
/// minus the two spans dominated by simulated LLM latency, `criteria_llm`
/// and `labeling`). Before the dedup-clustering and batched-MLP fast paths
/// these two stages exceeded the rest of the local work combined (~101% of
/// the non-LLM wall: 31.2 s + 32.1 s against ~62.5 s of a 66.1 s hospital
/// run); after them they sit at ~75%. This assertion keeps that wall torn
/// down.
///
/// The denominator deliberately excludes the LLM-latency spans: simulated
/// latency is fixed *wall-clock* time, so a share of the total wall would
/// encode the ledger-generation host's CPU speed — on a slower or noisier
/// machine every CPU-bound stage grows while the LLM sleeps don't, and an
/// unchanged binary flips the gate (measured 51.7%→58.9% of total wall for
/// the same code across runs of this 1-CPU box, vs a stable 74–76% of the
/// non-LLM wall). CPU-over-CPU cancels host speed.
///
/// Scope, deliberately narrow:
/// * the *sequential* mode is the seed execution the paper describes; the
///   cached modes skip LLM work entirely, so its stage walls are the
///   cleanest per-stage measurement;
/// * *hospital* is the dataset whose profile defined the wall. Flights
///   featurises almost for free (its per-distinct feature blocks are tiny),
///   so sampling + detector are structurally its largest spans at any
///   implementation and a ratio guard carries no signal there.
/// * `--quick` runs skip it — at 5k rows fixed per-run costs dominate.
fn assert_non_llm_wall(dataset: &str, r: &ModeResult) {
    let p = profile_of(r);
    let span_nanos = |name: &str| p.child(name).map_or(0, |c| c.wall_nanos);
    let hot = span_nanos("sampling") + span_nanos("detector");
    let llm_wall = p.find("features/criteria_llm").map_or(0, |c| c.wall_nanos)
        + span_nanos("labeling");
    let non_llm = p.wall_nanos.saturating_sub(llm_wall).max(1);
    let frac = hot as f64 / non_llm as f64;
    assert!(
        frac < 0.90,
        "{dataset}/{}: sampling+detector cover {:.1}% of the non-LLM wall (must stay < 90%)\n{}",
        r.label,
        frac * 100.0,
        p.render_table()
    );
}

/// Spans recorded across the whole tree (the profiler work this run paid
/// for).
fn profile_records(p: &StageProfile) -> u64 {
    p.count + p.children.iter().map(profile_records).sum::<u64>()
}

/// Estimated profiler overhead as a percentage of the run's wall time:
/// a micro-measured per-record span cost scaled by the number of spans the
/// run actually recorded. Asserted < 2% on every run.
fn profiler_overhead_pct(r: &ModeResult) -> f64 {
    const SAMPLES: u64 = 50_000;
    let probe = Profiler::new("overhead-probe");
    let span = probe.root().child_dist("record");
    let t = Instant::now();
    for i in 0..SAMPLES {
        span.record(Duration::from_nanos(i));
    }
    let per_record = t.elapsed().as_secs_f64() / SAMPLES as f64;
    let records = profile_records(profile_of(r));
    per_record * records as f64 / (r.total_ms / 1e3).max(1e-9) * 100.0
}

/// The `--trace` reconciliation, zero tolerance: the flight recorder's
/// journal must verify causally (every task submitted/started/ended exactly
/// once, every miss published exactly once, every hedge resolved exactly
/// once, the repair ladder balanced) AND its per-kind counts must equal the
/// independently maintained cache / scheduler / router / repair / store
/// counters in [`zeroed_core::PipelineStats`] — not approximately, exactly.
fn assert_trace(label: &str, stats: &zeroed_core::PipelineStats) -> TraceSummary {
    let trace = stats
        .trace
        .clone()
        .unwrap_or_else(|| panic!("{label}: run must publish a trace summary"));
    assert_eq!(trace.dropped_events, 0, "{label}: the ring must not evict");
    if let Err(why) = trace.verify() {
        panic!("{label}: trace causality check failed: {why}");
    }
    let eq = |kind: EventKind, want: usize, what: &str| {
        assert_eq!(
            trace.count(kind),
            want as u64,
            "{label}: journaled {what} must equal the pipeline counter exactly"
        );
    };
    eq(EventKind::TaskSubmit, stats.runtime_tasks, "task submits");
    eq(EventKind::TaskStart, stats.runtime_tasks, "task starts");
    eq(EventKind::TaskEnd, stats.runtime_tasks, "task ends");
    eq(EventKind::CacheHit, stats.cache_hits, "cache hits");
    eq(EventKind::CacheMiss, stats.cache_misses, "cache misses");
    eq(EventKind::CacheCoalesced, stats.cache_coalesced, "coalesced hits");
    eq(EventKind::CachePublish, stats.cache_misses, "publishes");
    eq(EventKind::RouterDone, stats.router_requests, "routed requests");
    eq(EventKind::RouterPrimary, stats.router_requests, "primary picks");
    eq(EventKind::RouterFailover, stats.router_failovers, "failovers");
    eq(EventKind::HedgeFired, stats.router_hedges_fired, "hedges fired");
    eq(EventKind::HedgeWon, stats.router_hedges_won, "hedges won");
    eq(EventKind::BreakerTrip, stats.router_breaker_trips, "breaker trips");
    let (salvaged, reasked, defaulted) = stats.repair.total_handled();
    eq(EventKind::RepairMangled, stats.repair.total_mangled(), "mangled responses");
    eq(EventKind::RepairSalvaged, salvaged, "salvaged responses");
    eq(EventKind::RepairReasked, reasked, "re-asks");
    eq(EventKind::RepairDefaulted, defaulted, "defaults");
    eq(EventKind::StorePersist, stats.store_persisted_records, "store persists");
    trace
}

/// Micro-measured cost of one `TraceRecorder::emit` (counter bump + ring
/// append under the short lock), used to bound the flight recorder's share
/// of a run's wall time.
fn emit_cost_nanos() -> f64 {
    const SAMPLES: u64 = 200_000;
    let recorder = TraceRecorder::new(1);
    let t = Instant::now();
    for i in 0..SAMPLES {
        recorder.emit(TraceId::from_key(i as u128, 1), EventKind::CacheHit, i);
    }
    t.elapsed().as_secs_f64() * 1e9 / SAMPLES as f64
}

/// Estimated flight-recorder overhead as a percentage of the run's wall:
/// per-emit cost scaled by what the run actually journaled. Shares the
/// profiler's <2% budget.
fn trace_overhead_pct(per_emit_nanos: f64, trace: &TraceSummary, total_ms: f64) -> f64 {
    per_emit_nanos * trace.recorded() as f64 / (total_ms * 1e6).max(1e-9) * 100.0
}

/// One arm of the router experiment.
struct RouterArm {
    p50_ms: f64,
    p99_ms: f64,
    requests: u64,
    hedges_fired: u64,
    hedges_won: u64,
    hedge_waste_tokens: u64,
    breaker_trips: u64,
    backends: Vec<(String, u64, u64)>, // (name, requests, useful tokens)
}

/// The `--router` experiment: detection against a single backend stuck with a
/// latency slow-tail, versus a two-backend router hedging slow requests onto
/// a healthy replica. Capped at 5k rows — request count (and therefore the
/// latency sample size) depends on columns, not rows.
fn router_section(rows: usize, workers: usize) -> String {
    const SLOW_RATE: f64 = 0.15;
    const SLOW_MS: f64 = 250.0;
    const DEADLINE_MS: f64 = 25.0;
    let rows = rows.min(5_000).max(1);
    eprintln!("router experiment: hospital @ {rows} rows ...");
    let ds = generate(
        DatasetSpec::Hospital,
        &GenerateOptions {
            n_rows: rows,
            seed: 7,
            error_spec: None,
        },
    );
    let config = ZeroEdConfig::fast();

    // Sequential single-client oracle: the mask every routed arm must match.
    // Latency simulation is off — only the mask matters here.
    let seq_llm = zeroed_bench::simulated_llm(&ds, LlmProfile::qwen_72b(), 1);
    let oracle = ZeroEd::new(config.clone().sequential_runtime()).detect(&ds.dirty, &seq_llm);

    let slow = FaultSchedule::slow_tail(11, SLOW_RATE, SLOW_MS);
    let runtime = RuntimeConfig {
        workers,
        ..RuntimeConfig::default()
    };
    let run_arm = |label: &str, schedules: &[FaultSchedule], hedge: bool| -> RouterArm {
        eprintln!("  router arm: {label} ({} backends, hedge={hedge}) ...", schedules.len());
        let sims: Vec<_> = schedules
            .iter()
            .map(|s| {
                zeroed_bench::simulated_llm(&ds, LlmProfile::qwen_72b(), 1)
                    .with_latency_scale(LATENCY_SCALE)
                    .with_faults(*s)
            })
            .collect();
        let clients: Vec<&dyn LlmClient> = sims.iter().map(|s| s as &dyn LlmClient).collect();
        let mut rc = RouterConfig::for_backends(clients.len());
        rc.hedge.enabled = hedge;
        // p90 deadline: below the slow-tail fraction's complement, so the
        // deadline tracks healthy latency instead of chasing hedged samples.
        rc.hedge.percentile = 0.90;
        rc.hedge.min_deadline_ms = DEADLINE_MS;
        rc.latency_scale = LATENCY_SCALE;
        let detector =
            ZeroEd::new(config.clone().with_runtime(runtime.clone()).with_router(rc));
        let router = RouterLlm::from_runtime(&detector.config().runtime, clients);
        let outcome = detector.detect_routed(&ds.dirty, &router);
        assert_eq!(
            oracle.mask, outcome.mask,
            "router arm '{label}': mask diverged from the sequential oracle"
        );
        let stats = router.stats();
        RouterArm {
            p50_ms: router.latency_quantile(0.50).as_secs_f64() * 1e3,
            p99_ms: router.latency_quantile(0.99).as_secs_f64() * 1e3,
            requests: stats.requests,
            hedges_fired: stats.hedges_fired,
            hedges_won: stats.hedges_won_by_hedge,
            hedge_waste_tokens: stats.hedge_waste_tokens,
            breaker_trips: stats.breaker_trips,
            backends: stats
                .backends
                .iter()
                .map(|b| (b.name.clone(), b.requests, b.tokens()))
                .collect(),
        }
    };

    // Arm 1: the slow-tail backend on its own — every request eats the tail.
    let single = run_arm("single_slow_tail", &[slow], false);
    // Arm 2: same slow-tail primary, healthy replica, hedging on.
    let hedged = run_arm(
        "hedged_two_backends",
        &[slow, FaultSchedule::healthy(12)],
        true,
    );

    let p99_speedup = single.p99_ms / hedged.p99_ms.max(1e-9);
    eprintln!(
        "  router p99: single slow-tail {:.0} ms | hedged {:.0} ms ({:.1}x, {} hedges fired, {} won)",
        single.p99_ms, hedged.p99_ms, p99_speedup, hedged.hedges_fired, hedged.hedges_won,
    );
    assert!(
        hedged.p99_ms <= single.p99_ms,
        "hedged p99 ({:.1} ms) must not exceed the single slow-tail backend's ({:.1} ms)",
        hedged.p99_ms,
        single.p99_ms
    );
    assert!(
        p99_speedup >= 1.5,
        "hedging must recover at least 1.5x p99 vs a single slow-tail backend, got {p99_speedup:.2}x"
    );

    let arm_json = |arm: &RouterArm| -> String {
        let backends: Vec<String> = arm
            .backends
            .iter()
            .map(|(name, requests, tokens)| {
                format!("{{\"name\": \"{name}\", \"requests\": {requests}, \"tokens\": {tokens}}}")
            })
            .collect();
        format!(
            "{{\"p50_ms\": {:.1}, \"p99_ms\": {:.1}, \"requests\": {}, \
             \"hedges_fired\": {}, \"hedges_won\": {}, \"hedge_waste_tokens\": {}, \
             \"breaker_trips\": {}, \"backends\": [{}]}}",
            arm.p50_ms,
            arm.p99_ms,
            arm.requests,
            arm.hedges_fired,
            arm.hedges_won,
            arm.hedge_waste_tokens,
            arm.breaker_trips,
            backends.join(", "),
        )
    };
    let mut block = String::new();
    let _ = writeln!(
        block,
        "    \"dataset\": \"hospital\", \"rows\": {rows}, \"workers\": {workers},"
    );
    let _ = writeln!(
        block,
        "    \"slow_tail_rate\": {SLOW_RATE}, \"slow_tail_ms\": {SLOW_MS}, \
         \"hedge_deadline_floor_ms\": {DEADLINE_MS}, \"hedge_percentile\": 0.90,"
    );
    let _ = writeln!(block, "    \"p99_speedup\": {p99_speedup:.2}, \"masks_identical\": true,");
    let _ = writeln!(block, "    \"single_slow_tail\": {},", arm_json(&single));
    let _ = write!(block, "    \"hedged\": {}", arm_json(&hedged));
    block
}

/// The `--persist` experiment: cold run writing through to the on-disk
/// response store, then a *fresh* detector (new cache, new store handles — a
/// second process as far as the store is concerned) warm-starting from the
/// directory. Asserts the warm run issues zero LLM requests and reproduces
/// the cold mask bit-identically.
fn persist_section(rows: usize, workers: usize) -> String {
    eprintln!("persistence experiment: hospital @ {rows} rows ...");
    let ds = generate(
        DatasetSpec::Hospital,
        &GenerateOptions {
            n_rows: rows,
            seed: 7,
            error_spec: None,
        },
    );
    let store_dir = std::env::temp_dir().join(format!("zeroed-bench-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_dir);
    let config = ZeroEdConfig::fast()
        .with_runtime(RuntimeConfig {
            workers,
            ..RuntimeConfig::default()
        })
        .with_store_dir(store_dir.to_str().expect("utf-8 temp path"));

    eprintln!("  cold (write-through) ...");
    let cold = {
        let detector = ZeroEd::new(config.clone());
        run_mode("persist_cold", &detector, &ds, 1)
        // ← detector drop: queue drained, store synced, handles closed.
    };
    let persisted_records = cold.outcome.stats.store_persisted_records;
    let persisted_bytes = cold.outcome.stats.store_persisted_bytes;
    assert_eq!(
        persisted_records, cold.cache_misses,
        "every cold miss must be persisted"
    );

    eprintln!("  warm (fresh detector, reopened store) ...");
    let warm_detector = ZeroEd::new(config);
    let warm = run_mode("persist_warm_cross_process", &warm_detector, &ds, 1);
    assert_eq!(cold.outcome.mask, warm.outcome.mask, "persisted warm mask diverged");
    assert_eq!(
        warm.requests, 0,
        "cross-process warm run must issue zero LLM requests"
    );
    assert_eq!(warm.outcome.stats.cache_misses, 0);
    assert_eq!(
        warm.outcome.stats.store_hits, warm.outcome.stats.cache_hits,
        "every warm hit must come from the persisted store"
    );
    let preloaded = warm.outcome.stats.store_preloaded_records;
    assert_eq!(preloaded, persisted_records, "preload must replay the whole store");
    drop(warm_detector);
    let _ = std::fs::remove_dir_all(&store_dir);

    let llm_stage_speedup = cold.llm_stage_ms / warm.llm_stage_ms.max(1e-9);
    let total_speedup = cold.total_ms / warm.total_ms.max(1e-9);
    eprintln!(
        "  cold {:.0} ms | warm {:.0} ms total ({total_speedup:.1}x, llm-stage {llm_stage_speedup:.1}x, \
         {} records / {} bytes persisted, {} tokens saved warm)",
        cold.total_ms, warm.total_ms, persisted_records, persisted_bytes, warm.tokens_saved,
    );

    let mut block = String::new();
    let _ = writeln!(
        block,
        "    \"dataset\": \"hospital\", \"rows\": {rows}, \"workers\": {workers}, \
         \"masks_identical\": true, \"warm_llm_requests\": 0,"
    );
    let _ = writeln!(
        block,
        "    \"persisted_records\": {persisted_records}, \"persisted_bytes\": {persisted_bytes}, \
         \"preloaded_records\": {preloaded},"
    );
    let _ = writeln!(
        block,
        "    \"speedup_total_warm\": {total_speedup:.2}, \
         \"speedup_llm_stage_warm\": {llm_stage_speedup:.2},"
    );
    let _ = writeln!(
        block,
        "    \"cold\": {},\n    \"warm\": {},",
        mode_json(&cold),
        mode_json(&warm)
    );
    let _ = write!(block, "    \"sharded_concurrent_writers\": {}", sharded_section(rows, workers));
    block
}

/// The sharded-concurrent-writers experiment: K detectors — each a distinct
/// `ShardedStore` handle holding its own writer slot per shard — persist
/// *disjoint* workloads (distinct simulator seeds, hence disjoint request
/// keys) into one sharded store root at the same time. A single fresh
/// detector then reopens the root and must replay every writer's workload
/// with zero LLM requests: the proof that the preload merges records across
/// all writer slots and that concurrent appends never contended or clobbered.
fn sharded_section(rows: usize, workers: usize) -> String {
    const WRITERS: u64 = 3;
    const SHARDS: usize = 4;
    eprintln!("  sharded writers: {WRITERS} concurrent detectors, {SHARDS} shards ...");
    let ds = generate(
        DatasetSpec::Hospital,
        &GenerateOptions {
            n_rows: rows,
            seed: 7,
            error_spec: None,
        },
    );
    let store_dir =
        std::env::temp_dir().join(format!("zeroed-bench-sharded-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_dir);
    let config = ZeroEdConfig::fast()
        .with_runtime(RuntimeConfig {
            workers,
            ..RuntimeConfig::default()
        })
        .with_store(
            StoreConfig::new(store_dir.to_str().expect("utf-8 temp path")).with_shards(SHARDS),
        );

    // Claim every writer's slots before any detection starts, so the
    // writers genuinely coexist (a fast writer finishing early must not free
    // slots a slow one would then reclaim instead of adding its own).
    let detectors: Vec<ZeroEd> = (0..WRITERS).map(|_| ZeroEd::new(config.clone())).collect();
    let t = Instant::now();
    let cold: Vec<ModeResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = detectors
            .into_iter()
            .enumerate()
            .map(|(w, detector)| {
                let ds = &ds;
                scope.spawn(move || {
                    run_mode("sharded_cold_writer", &detector, ds, 1 + w as u64)
                    // ← detector drop inside the thread: this writer's slots
                    //   are drained, synced and unlocked.
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let cold_wall_ms = t.elapsed().as_secs_f64() * 1e3;
    let persisted_total: usize = cold
        .iter()
        .map(|r| r.outcome.stats.store_persisted_records)
        .sum();
    for r in &cold {
        assert_eq!(
            r.outcome.stats.store_persisted_records, r.cache_misses,
            "sharded writer: every miss must be written through"
        );
    }

    // One fresh handle replays all K workloads from the merged slots.
    let warm_detector = ZeroEd::new(config);
    let t = Instant::now();
    for (w, cold_result) in cold.iter().enumerate() {
        let warm = run_mode("sharded_warm", &warm_detector, &ds, 1 + w as u64);
        assert_eq!(
            cold_result.outcome.mask, warm.outcome.mask,
            "sharded warm mask diverged for writer {w}"
        );
        assert_eq!(
            warm.requests, 0,
            "sharded warm run must issue zero LLM requests (writer {w})"
        );
    }
    let warm_wall_ms = t.elapsed().as_secs_f64() * 1e3;
    let preloaded = warm_detector
        .store()
        .expect("store configured")
        .store()
        .load_live()
        .expect("live records readable")
        .len();
    assert_eq!(
        preloaded, persisted_total,
        "the merged preload must cover all writers' disjoint records"
    );
    drop(warm_detector);
    let _ = std::fs::remove_dir_all(&store_dir);

    eprintln!(
        "  sharded: {WRITERS} writers cold {cold_wall_ms:.0} ms | warm replay of all \
         {WRITERS} workloads {warm_wall_ms:.0} ms | {persisted_total} records merged, 0 warm requests",
    );
    format!(
        "{{\"writers\": {WRITERS}, \"shards\": {SHARDS}, \"rows\": {rows}, \
         \"cold_concurrent_wall_ms\": {cold_wall_ms:.1}, \"warm_all_workloads_wall_ms\": {warm_wall_ms:.1}, \
         \"persisted_records_total\": {persisted_total}, \"preloaded_records\": {preloaded}, \
         \"warm_llm_requests\": 0, \"masks_identical\": true}}"
    )
}

/// The `--mangle` experiment: the same detection workload under a seeded
/// content-corruption schedule. A sequential mangled run is the oracle; a
/// concurrent+cache run under the *same* schedule must produce a bit-identical
/// mask with identical per-stage repair counters, and a warm re-run against
/// the same detector must replay the *repaired* responses with zero LLM
/// requests. A healthy (unmangled) cached run alongside gives the repair
/// overhead. Capped at 3k rows — repair work scales with request count, which
/// depends on columns, not rows.
fn mangle_section(rows: usize, workers: usize) -> String {
    const MANGLE_SEED: u64 = 29;
    const MANGLE_RATE: f64 = 0.4;
    let rows = rows.min(3_000).max(1);
    eprintln!("mangling experiment: hospital @ {rows} rows, rate {MANGLE_RATE} ...");
    let ds = generate(
        DatasetSpec::Hospital,
        &GenerateOptions {
            n_rows: rows,
            seed: 7,
            error_spec: None,
        },
    );
    let schedule = MangleSchedule::uniform(MANGLE_SEED, MANGLE_RATE);
    let config = ZeroEdConfig::fast();
    let cached = RuntimeConfig {
        workers,
        ..RuntimeConfig::default()
    };

    let mangled_llm = |label: &str| {
        eprintln!("  mangled {label} ...");
        zeroed_bench::simulated_llm(&ds, LlmProfile::qwen_72b(), 1)
            .with_latency_scale(LATENCY_SCALE)
            .with_mangling(schedule)
    };

    // Healthy baseline: same workload, same runtime, no corruption.
    eprintln!("  healthy baseline ...");
    let healthy_detector = ZeroEd::new(config.clone().with_runtime(cached.clone()));
    let healthy = run_mode("mangle_healthy_baseline", &healthy_detector, &ds, 1);

    // Sequential mangled oracle: the mask and counters every arm must match.
    let seq_llm = mangled_llm("sequential oracle");
    let seq_detector = ZeroEd::new(config.clone().sequential_runtime());
    let t = Instant::now();
    let seq = seq_detector.detect(&ds.dirty, &seq_llm);
    let seq_ms = t.elapsed().as_secs_f64() * 1e3;
    let repair = seq.stats.repair;
    assert!(repair.reconciles(), "sequential: {repair:?} does not reconcile");
    assert_eq!(
        repair.total_mangled(),
        seq_llm.mangled_responses(),
        "sequential: every simulator corruption must land in a repair bucket"
    );
    assert!(repair.total_mangled() > 0, "rate {MANGLE_RATE} must corrupt something");

    // Concurrent+cache under the same schedule: identical mask, identical
    // per-stage accounting (the corruption draw is salt-keyed, not
    // order-keyed), and the cache absorbs the repaired responses.
    let conc_llm = mangled_llm("concurrent+cache cold");
    let conc_detector = ZeroEd::new(config.clone().with_runtime(cached));
    let conc = run_mode_with("mangle_concurrent_cached_cold", &conc_detector, &ds, &conc_llm);
    assert_eq!(seq.mask, conc.outcome.mask, "mangled concurrent mask diverged");
    assert_eq!(
        conc.outcome.stats.repair, repair,
        "per-stage repair counters must not depend on the execution mode"
    );
    assert_eq!(
        conc.outcome.stats.repair.total_mangled(),
        conc_llm.mangled_responses(),
        "concurrent: every simulator corruption must land in a repair bucket"
    );

    // Warm re-run: the cache holds *repaired* responses, so nothing is
    // re-fetched, re-corrupted or re-repaired.
    let warm_llm = mangled_llm("warm re-run");
    let warm = run_mode_with("mangle_warm_rerun", &conc_detector, &ds, &warm_llm);
    assert_eq!(seq.mask, warm.outcome.mask, "mangled warm mask diverged");
    assert_eq!(warm.requests, 0, "warm run must issue zero LLM requests");
    assert_eq!(warm_llm.mangled_responses(), 0, "the simulator is never consulted warm");
    assert_eq!(
        warm.outcome.stats.repair.total_mangled(),
        0,
        "cached responses are already repaired"
    );

    // Re-ask attempts bill on the ledger's distinct re-ask line: with the
    // default budget of 1, one attempt per re-asked and per defaulted request.
    let (repaired, reasked, defaulted) = repair.total_handled();
    let reask_usage = seq_llm.ledger().reask_usage();
    assert_eq!(
        reask_usage.requests,
        reasked + defaulted,
        "re-ask attempts must be billed on the distinct ledger line"
    );

    let overhead = conc.llm_stage_ms / healthy.llm_stage_ms.max(1e-9);
    eprintln!(
        "  mangled: {} corrupted -> {repaired} repaired / {reasked} re-asked / {defaulted} \
         defaulted | llm-stage {:.0} ms vs healthy {:.0} ms ({overhead:.2}x) | warm 0 requests",
        repair.total_mangled(),
        conc.llm_stage_ms,
        healthy.llm_stage_ms,
    );

    let stage_json = |name: &str, s: StageRepair| -> String {
        format!(
            "{{\"stage\": \"{name}\", \"mangled\": {}, \"repaired\": {}, \"reasked\": {}, \
             \"defaulted\": {}}}",
            s.mangled, s.repaired, s.reasked, s.defaulted
        )
    };
    let stages = [
        ("criteria", repair.criteria),
        ("analysis", repair.analysis),
        ("guideline", repair.guideline),
        ("labels", repair.labels),
        ("augment", repair.augment),
    ]
    .map(|(name, s)| format!("      {}", stage_json(name, s)));

    let mut block = String::new();
    let _ = writeln!(
        block,
        "    \"dataset\": \"hospital\", \"rows\": {rows}, \"workers\": {workers},"
    );
    let _ = writeln!(
        block,
        "    \"mangle_seed\": {MANGLE_SEED}, \"mangle_rate\": {MANGLE_RATE}, \"reask_budget\": {},",
        ZeroEdConfig::default().reask_budget
    );
    let _ = writeln!(
        block,
        "    \"masks_identical\": true, \"accounting_reconciles\": true, \
         \"warm_llm_requests\": 0,"
    );
    let _ = writeln!(
        block,
        "    \"total_mangled\": {}, \"repaired\": {repaired}, \"reasked\": {reasked}, \
         \"defaulted\": {defaulted},",
        repair.total_mangled()
    );
    let _ = writeln!(
        block,
        "    \"reask_line\": {{\"requests\": {}, \"tokens\": {}}},",
        reask_usage.requests,
        reask_usage.total()
    );
    let _ = writeln!(
        block,
        "    \"llm_stage_overhead_vs_healthy\": {overhead:.2}, \"sequential_mangled_ms\": {seq_ms:.1},"
    );
    let _ = writeln!(block, "    \"stages\": [");
    let _ = writeln!(block, "{}", stages.join(",\n"));
    let _ = writeln!(block, "    ],");
    let _ = writeln!(block, "    \"healthy\": {},", mode_json(&healthy));
    let _ = writeln!(block, "    \"mangled_cold\": {},", mode_json(&conc));
    let _ = write!(block, "    \"mangled_warm\": {}", mode_json(&warm));
    block
}

/// The `--shapes` sweep: the three synthetic workload shapes
/// (`zeroed_datagen::WORKLOADS`), each run sequential vs concurrent+cache
/// with mask identity asserted and the cold run's stage breakdown recorded.
/// Capped at 10k rows — the shapes stress column count and value
/// distributions, not row volume.
fn shapes_section(rows: usize, workers: usize) -> String {
    let rows = rows.min(10_000).max(1);
    let cached = RuntimeConfig {
        workers,
        ..RuntimeConfig::default()
    };
    let mut blocks = Vec::new();
    for spec in DatasetSpec::WORKLOADS {
        let name = spec.name().to_ascii_lowercase();
        eprintln!("workload shape {name} @ {rows} rows ...");
        let ds = generate(
            spec,
            &GenerateOptions {
                n_rows: rows,
                seed: 7,
                error_spec: None,
            },
        );
        let config = ZeroEdConfig::fast();
        let seq_detector = ZeroEd::new(config.clone().sequential_runtime());
        let seq = run_mode("sequential", &seq_detector, &ds, 1);
        let cold_detector = ZeroEd::new(config.with_runtime(cached.clone()));
        let cold = run_mode("concurrent_cached_cold", &cold_detector, &ds, 1);
        assert_eq!(
            seq.outcome.mask, cold.outcome.mask,
            "{name}: shape mask diverged from the sequential oracle"
        );
        assert_profile(&name, &seq);
        assert_profile(&name, &cold);
        let overhead = profiler_overhead_pct(&cold);
        assert!(overhead < 2.0, "{name}: profiler overhead {overhead:.3}% >= 2%");
        eprintln!(
            "  {name}: seq llm-stage {:.0} ms | cached cold {:.0} ms | coverage {:.1}% | overhead {overhead:.3}%",
            seq.llm_stage_ms,
            cold.llm_stage_ms,
            profile_of(&cold).coverage() * 100.0,
        );
        let mut block = String::new();
        let _ = writeln!(
            block,
            "    {{\"dataset\": \"{name}\", \"rows\": {}, \"cols\": {}, \"workers\": {workers},",
            ds.dirty.n_rows(),
            ds.dirty.n_cols(),
        );
        let _ = writeln!(
            block,
            "     \"masks_identical\": true, \"profiler_overhead_pct\": {overhead:.3}, \"modes\": ["
        );
        json_mode(&mut block, &seq, false);
        json_mode(&mut block, &cold, true);
        let _ = writeln!(block, "     ],");
        let _ = write!(block, "     \"stage_breakdown\": {}}}", profile_of(&cold).to_json());
        blocks.push(block);
    }
    blocks.join(",\n")
}

/// The `--trace` experiment: the per-request flight recorder swept across
/// the execution-mode matrix on hospital + flights. Every leg re-runs the
/// zero-tolerance reconciliation ([`assert_trace`]); the routed leg
/// additionally pits the journal against the [`RouterLlm`]'s own stats
/// deltas, the mangled leg against the simulator's corruption count, and the
/// cold cached leg's journal is pushed through both exporters with
/// structural validation (JSONL line-exactness; Chrome entries all complete
/// spans or instants that Perfetto will load). Capped at 5k rows — event
/// volume scales with request count, which depends on columns, not rows.
fn trace_section(rows: usize, workers: usize) -> String {
    let rows = rows.min(5_000).max(1);
    let per_emit_nanos = emit_cost_nanos();
    let cached = RuntimeConfig {
        workers,
        ..RuntimeConfig::default()
    };
    let mut blocks = Vec::new();
    for (spec, name) in [
        (DatasetSpec::Hospital, "hospital"),
        (DatasetSpec::Flights, "flights"),
    ] {
        eprintln!("trace experiment: {name} @ {rows} rows ...");
        let ds = generate(
            spec,
            &GenerateOptions {
                n_rows: rows,
                seed: 7,
                error_spec: None,
            },
        );
        let config = ZeroEdConfig::fast();
        let mut runs: Vec<(String, TraceSummary, f64)> = Vec::new();

        eprintln!("  trace: sequential ...");
        let seq_detector = ZeroEd::new(config.clone().sequential_runtime());
        let seq = run_mode("sequential", &seq_detector, &ds, 1);
        runs.push((
            "sequential".into(),
            assert_trace(&format!("{name}/trace sequential"), &seq.outcome.stats),
            seq.total_ms,
        ));

        eprintln!("  trace: concurrent+cache cold ...");
        let cached_detector = ZeroEd::new(config.clone().with_runtime(cached.clone()));
        let cold = run_mode("concurrent_cached_cold", &cached_detector, &ds, 1);
        let cold_trace = assert_trace(&format!("{name}/trace cold"), &cold.outcome.stats);
        assert!(
            !cold_trace.exemplars.is_empty(),
            "{name}: a cold cached run must yield request-rooted exemplars"
        );

        eprintln!("  trace: concurrent+cache warm ...");
        let warm = run_mode("concurrent_cached_warm", &cached_detector, &ds, 1);
        runs.push((
            "concurrent_cached_warm".into(),
            assert_trace(&format!("{name}/trace warm"), &warm.outcome.stats),
            warm.total_ms,
        ));

        eprintln!("  trace: routed (slow-tail primary, hedging) ...");
        let primary = zeroed_bench::simulated_llm(&ds, LlmProfile::qwen_72b(), 1)
            .with_latency_scale(LATENCY_SCALE)
            .with_faults(FaultSchedule {
                error_rate: 0.1,
                ..FaultSchedule::slow_tail(11, 0.1, 50.0)
            });
        let replica = zeroed_bench::simulated_llm(&ds, LlmProfile::qwen_72b(), 1)
            .with_latency_scale(LATENCY_SCALE);
        let clients: Vec<&dyn LlmClient> = vec![&primary, &replica];
        let routed_detector = ZeroEd::new(
            config
                .clone()
                .with_runtime(cached.clone())
                .with_router(RouterConfig::for_backends(2)),
        );
        let router = RouterLlm::from_runtime(&routed_detector.config().runtime, clients);
        let routed = routed_detector.detect_routed(&ds.dirty, &router);
        assert_eq!(seq.outcome.mask, routed.mask, "{name}: routed trace leg mask diverged");
        // The journal counts reconcile against the router's *stats deltas*
        // (folded into PipelineStats by detect_routed) — the router keeps its
        // counters independently of the recorder.
        let routed_trace = assert_trace(&format!("{name}/trace routed"), &routed.stats);
        assert!(routed.stats.router_requests > 0);
        assert!(
            routed.stats.router_failovers > 0,
            "{name}: the faulty primary must force failovers"
        );
        runs.push(("routed_faulty_primary".into(), routed_trace, 0.0));

        eprintln!("  trace: mangled concurrent+cache ...");
        let mangle_llm = zeroed_bench::simulated_llm(&ds, LlmProfile::qwen_72b(), 1)
            .with_latency_scale(LATENCY_SCALE)
            .with_mangling(MangleSchedule::uniform(29, 0.4));
        let mangle_detector = ZeroEd::new(config.clone().with_runtime(cached.clone()));
        let mangled =
            run_mode_with("mangle_concurrent_cached", &mangle_detector, &ds, &mangle_llm);
        // No mask assert here: corruption legitimately degrades labels, and
        // mask invariance *under the same schedule* is the `--mangle`
        // section's job. This leg checks that the degradation ledger and
        // the journal agree while the pipeline is actively repairing.
        let mangled_trace = assert_trace(&format!("{name}/trace mangled"), &mangled.outcome.stats);
        assert_eq!(
            mangled_trace.count(EventKind::RepairMangled),
            mangle_llm.mangled_responses() as u64,
            "{name}: the journal must agree with the simulator's corruption count"
        );
        runs.push(("mangled_concurrent_cached".into(), mangled_trace, mangled.total_ms));

        // Exporter validation on the cold journal. JSONL: one line per
        // surviving event, no more, no less. Chrome: a well-formed JSON
        // array where every entry is a complete span ("X") or an instant
        // ("i") — the two phase types Perfetto needs no clock sync for.
        let journal = journal_jsonl(&cold_trace.events);
        assert_eq!(
            journal.lines().count(),
            cold_trace.events.len(),
            "{name}: JSONL journal must be line-exact"
        );
        let chrome = chrome_trace_json(&cold_trace.events);
        assert!(chrome.starts_with("[\n") && chrome.ends_with("\n]\n"));
        let entries: Vec<&str> = chrome
            .lines()
            .filter(|l| l.starts_with('{'))
            .collect();
        let spans = entries.iter().filter(|l| l.contains("\"ph\": \"X\"")).count();
        let instants = entries.iter().filter(|l| l.contains("\"ph\": \"i\"")).count();
        assert_eq!(
            spans + instants,
            entries.len(),
            "{name}: every Chrome entry must be a complete span or an instant"
        );
        assert!(spans > 0, "{name}: a cold run must reconstruct task/cache spans");
        // One complete span per matched pair: queue + execute per task,
        // compute per publish.
        assert_eq!(
            spans as u64,
            2 * cold_trace.count(EventKind::TaskStart)
                + cold_trace.count(EventKind::CachePublish),
            "{name}: span count must match the pairing rules exactly"
        );

        // Flight-recorder overhead shares the profiler's <2% budget.
        let overhead = trace_overhead_pct(per_emit_nanos, &cold_trace, cold.total_ms);
        assert!(
            overhead < 2.0,
            "{name}: flight-recorder overhead {overhead:.3}% >= 2%"
        );
        let slowest_ns = cold_trace
            .exemplars
            .first()
            .map_or(0, |e| e.end_nanos - e.begin_nanos);
        eprintln!(
            "  trace: {} events cold ({} spans, {} instants in Chrome export), \
             slowest request {:.2} ms, overhead {overhead:.4}%",
            cold_trace.recorded(),
            spans,
            instants,
            slowest_ns as f64 / 1e6,
        );

        runs.insert(1, ("concurrent_cached_cold".into(), cold_trace, cold.total_ms));
        let run_jsons: Vec<String> = runs
            .iter()
            .map(|(mode, trace, _)| {
                let counts: Vec<String> = EventKind::ALL
                    .iter()
                    .filter(|k| trace.count(**k) > 0)
                    .map(|k| format!("\"{}\": {}", k.name(), trace.count(*k)))
                    .collect();
                format!(
                    "      {{\"mode\": \"{mode}\", \"events\": {}, \"dropped\": {}, \
                     \"exemplars\": {}, \"counts\": {{{}}}}}",
                    trace.recorded(),
                    trace.dropped_events,
                    trace.exemplars.len(),
                    counts.join(", "),
                )
            })
            .collect();
        let mut block = String::new();
        let _ = writeln!(
            block,
            "    {{\"dataset\": \"{name}\", \"rows\": {rows}, \"workers\": {workers}, \
             \"causality_verified\": true, \"reconciled_exactly\": true,"
        );
        let _ = writeln!(
            block,
            "     \"recorder_overhead_pct\": {overhead:.4}, \
             \"chrome_spans\": {spans}, \"chrome_instants\": {instants}, \
             \"slowest_request_ns\": {slowest_ns},"
        );
        let _ = writeln!(block, "     \"runs\": [");
        let _ = writeln!(block, "{}", run_jsons.join(",\n"));
        let _ = write!(block, "     ]}}");
        blocks.push(block);
    }
    format!(
        "    \"per_emit_nanos\": {per_emit_nanos:.1},\n    \"datasets\": [\n{}\n    ]",
        blocks.join(",\n")
    )
}

/// The criteria-VM experiment, emitted on **every** run (`--quick` included):
/// the compiled bytecode engine (`zeroed-criteria::{compile, vm}`) against
/// the AST specification oracle (`verify::oracle`) on the hospital table's
/// simulator-derived criteria. Times the full-table feature extraction
/// (`criteria_features`) and the Algorithm-1 verification pair
/// (`filter_criteria` + `filter_rows`) on both engines, asserting the
/// outputs identical — feature matrices cell-for-cell, surviving criteria
/// and row sets exactly — before any speedup is reported.
fn criteria_section(rows: usize) -> String {
    eprintln!("criteria VM experiment: hospital @ {rows} rows ...");
    let ds = generate(
        DatasetSpec::Hospital,
        &GenerateOptions {
            n_rows: rows,
            seed: 7,
            error_spec: None,
        },
    );
    let table = &ds.dirty;
    let config = ZeroEdConfig::fast();
    // Criteria come from the same simulator the pipeline uses; latency
    // sleeps are disabled because only the evaluation engines are timed.
    let llm = SimLlm::default_model(7).with_latency_scale(0.0);
    let correlated = zeroed_core::pipeline::features::compute_correlated(table, &config);
    let criteria = zeroed_core::pipeline::features::generate_criteria_on(
        &zeroed_runtime::Scheduler::with_workers(1),
        table,
        &correlated,
        &config,
        &llm,
    );
    let sets: Vec<&zeroed_criteria::CriteriaSet> = criteria.iter().flatten().collect();
    let n_criteria: usize = sets.iter().map(|s| s.criteria.len()).sum();
    let dict = table.intern();

    // Full-table feature extraction (the per-cell f_cri blocks).
    let t = Instant::now();
    let oracle_features: Vec<Vec<Vec<f32>>> = sets
        .iter()
        .map(|set| verify::oracle::criteria_features(set, table))
        .collect();
    let features_oracle_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    let compiled_features: Vec<Vec<Vec<f32>>> = sets
        .iter()
        .map(|set| verify::criteria_features_dict(set, &dict))
        .collect();
    let features_compiled_ms = t.elapsed().as_secs_f64() * 1e3;
    assert_eq!(
        oracle_features, compiled_features,
        "criteria VM: feature matrices diverged from the AST oracle"
    );

    // Algorithm-1 mutual verification: criterion accuracies over the check
    // rows, then row pass rates over the survivors (threshold 0.5, the
    // paper's value; check rows = first 500, as in training_data).
    let check_rows: Vec<usize> = (0..table.n_rows().min(500)).collect();
    let threshold = 0.5;
    let t = Instant::now();
    let oracle_verified: Vec<_> = sets
        .iter()
        .map(|set| {
            let kept = verify::oracle::filter_criteria(set, table, &check_rows, threshold);
            let rows = verify::oracle::filter_rows(&kept, table, &check_rows, threshold);
            (kept, rows)
        })
        .collect();
    let verify_oracle_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    let compiled_verified: Vec<_> = sets
        .iter()
        .map(|set| {
            let kept = verify::filter_criteria_dict(set, &dict, &check_rows, threshold);
            let rows = verify::filter_rows_dict(&kept, &dict, &check_rows, threshold);
            (kept, rows)
        })
        .collect();
    let verify_compiled_ms = t.elapsed().as_secs_f64() * 1e3;
    assert_eq!(
        oracle_verified, compiled_verified,
        "criteria VM: Algorithm-1 verification diverged from the AST oracle"
    );

    let features_speedup = features_oracle_ms / features_compiled_ms.max(1e-9);
    let verify_speedup = verify_oracle_ms / verify_compiled_ms.max(1e-9);
    eprintln!(
        "  criteria_features: oracle {features_oracle_ms:.1} ms | compiled \
         {features_compiled_ms:.1} ms ({features_speedup:.1}x) | verify: oracle \
         {verify_oracle_ms:.1} ms | compiled {verify_compiled_ms:.1} ms ({verify_speedup:.1}x)"
    );

    let mut block = String::new();
    let _ = writeln!(
        block,
        "    \"dataset\": \"hospital\", \"rows\": {}, \"cols\": {}, \
         \"criteria_total\": {n_criteria},",
        table.n_rows(),
        table.n_cols(),
    );
    let _ = writeln!(
        block,
        "    \"bytecode_version\": {}, \"outputs_identical\": true,",
        zeroed_criteria::BYTECODE_VERSION
    );
    let _ = writeln!(
        block,
        "    \"features_oracle_ms\": {features_oracle_ms:.2}, \
         \"features_compiled_ms\": {features_compiled_ms:.2}, \
         \"features_speedup\": {features_speedup:.2},"
    );
    let _ = write!(
        block,
        "    \"verify_oracle_ms\": {verify_oracle_ms:.2}, \
         \"verify_compiled_ms\": {verify_compiled_ms:.2}, \
         \"verify_speedup\": {verify_speedup:.2}"
    );
    block
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out_path = "BENCH_runtime.json".to_string();
    let mut rows = 50_000usize;
    let mut workers = 16usize;
    let mut router = false;
    let mut persist = false;
    let mut mangle = false;
    let mut shapes = false;
    let mut trace = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--out" => {
                if let Some(p) = args.get(i + 1) {
                    out_path = p.clone();
                    i += 1;
                }
            }
            "--rows" => {
                if let Some(v) = args.get(i + 1).and_then(|v| v.parse().ok()) {
                    rows = v;
                    i += 1;
                }
            }
            "--workers" => {
                if let Some(v) = args.get(i + 1).and_then(|v| v.parse().ok()) {
                    workers = v;
                    i += 1;
                }
            }
            "--quick" => rows = 5_000,
            "--router" => router = true,
            "--persist" => persist = true,
            "--mangle" => mangle = true,
            "--shapes" => shapes = true,
            "--trace" => trace = true,
            _ => {}
        }
        i += 1;
    }

    let specs = [
        (DatasetSpec::Hospital, "hospital"),
        (DatasetSpec::Flights, "flights"),
    ];
    let concurrent = RuntimeConfig {
        workers,
        cache: false,
        ..RuntimeConfig::default()
    };
    let cached = RuntimeConfig {
        workers,
        ..RuntimeConfig::default()
    };

    let mut blocks: Vec<String> = Vec::new();
    let mut all_speedups_ok = true;
    for &(spec, name) in &specs {
        eprintln!("generating {name} @ {rows} rows ...");
        let ds = generate(
            spec,
            &GenerateOptions {
                n_rows: rows,
                seed: 7,
                error_spec: None,
            },
        );
        let config = ZeroEdConfig::fast();

        eprintln!("  sequential ...");
        let seq_detector = ZeroEd::new(config.clone().sequential_runtime());
        let seq = run_mode("sequential", &seq_detector, &ds, 1);

        eprintln!("  concurrent ({workers} workers) ...");
        let conc_detector = ZeroEd::new(config.clone().with_runtime(concurrent.clone()));
        let conc = run_mode("concurrent", &conc_detector, &ds, 1);

        eprintln!("  concurrent+cache cold ...");
        let cached_detector = ZeroEd::new(config.clone().with_runtime(cached.clone()));
        let cold = run_mode("concurrent_cached_cold", &cached_detector, &ds, 1);

        eprintln!("  concurrent+cache warm (re-run) ...");
        let warm = run_mode("concurrent_cached_warm", &cached_detector, &ds, 1);

        // Scheduling and caching must never change the detection result.
        assert_eq!(seq.outcome.mask, conc.outcome.mask, "{name}: concurrent mask diverged");
        assert_eq!(seq.outcome.mask, cold.outcome.mask, "{name}: cached mask diverged");
        assert_eq!(seq.outcome.mask, warm.outcome.mask, "{name}: warm mask diverged");
        assert_eq!(warm.requests, 0, "{name}: warm run must not call the model");

        // Every mode's stage profile must reconcile (child sums ≤ parent,
        // ≥90% of wall covered) and the profiler must stay under 2% of the
        // run — on --quick too, so tier-1 guards the invariant.
        for r in [&seq, &conc, &cold, &warm] {
            assert_profile(name, r);
            if trace {
                // The flight recorder's zero-tolerance reconciliation runs
                // on every headline mode, --quick included.
                assert_trace(&format!("{name}/{}", r.label), &r.outcome.stats);
            }
        }
        // The full-size hospital sequential run also guards the non-LLM
        // wall: sampling+detector must stay under half of the detect wall
        // (see assert_non_llm_wall for why exactly this run).
        if rows >= 50_000 && name == "hospital" {
            assert_non_llm_wall(name, &seq);
        }
        let overhead = profiler_overhead_pct(&cold);
        assert!(overhead < 2.0, "{name}: profiler overhead {overhead:.3}% >= 2%");

        let speedup_concurrent = seq.llm_stage_ms / conc.llm_stage_ms.max(1e-9);
        let speedup_cached = seq.llm_stage_ms / cold.llm_stage_ms.max(1e-9);
        let speedup_warm = seq.llm_stage_ms / warm.llm_stage_ms.max(1e-9);
        eprintln!(
            "  llm-stage: seq {:.0} ms | conc {:.0} ms ({:.1}x) | cache cold {:.0} ms ({:.1}x) | \
             cache warm {:.0} ms ({:.1}x, {} tokens saved)",
            seq.llm_stage_ms,
            conc.llm_stage_ms,
            speedup_concurrent,
            cold.llm_stage_ms,
            speedup_cached,
            warm.llm_stage_ms,
            speedup_warm,
            warm.tokens_saved,
        );
        if speedup_cached < 2.0 {
            all_speedups_ok = false;
        }

        let mut block = String::new();
        let _ = writeln!(
            block,
            "    {{\"dataset\": \"{}\", \"rows\": {}, \"cols\": {}, \"workers\": {},",
            name,
            ds.dirty.n_rows(),
            ds.dirty.n_cols(),
            workers,
        );
        let _ = writeln!(
            block,
            "     \"speedup_llm_stage_concurrent\": {speedup_concurrent:.2}, \
             \"speedup_llm_stage_cached\": {speedup_cached:.2}, \
             \"speedup_llm_stage_warm_rerun\": {speedup_warm:.2}, \
             \"masks_identical\": true, \"modes\": ["
        );
        json_mode(&mut block, &seq, false);
        json_mode(&mut block, &conc, false);
        json_mode(&mut block, &cold, false);
        json_mode(&mut block, &warm, true);
        block.push_str("    ],\n");
        let _ = writeln!(block, "     \"profiler_overhead_pct\": {overhead:.3},");
        // The cold cached run's tree: the representative configuration (the
        // default mode) paying full LLM + featurisation cost.
        let _ = write!(
            block,
            "     \"stage_breakdown\": {}}}",
            profile_of(&cold).to_json()
        );
        blocks.push(block);
    }

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(
        json,
        "  \"generated_by\": \"cargo run --release -p zeroed-bench --bin bench_runtime\",",
    );
    // Host metadata: physical parallelism (std::thread::available_parallelism)
    // alongside the configured worker budget. The pool size is a request-
    // concurrency budget against a serving backend, not a core count —
    // simulated LLM sleeps overlap regardless of cores — so both numbers are
    // needed to interpret speedups across machines.
    let _ = writeln!(
        json,
        "  \"host\": {{\"available_parallelism\": {}, \"worker_budget\": {workers}}},",
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    );
    let _ = writeln!(
        json,
        "  \"latency_scale\": {LATENCY_SCALE}, \"llm_profile\": \"Qwen2.5-72b\",",
    );
    let _ = writeln!(
        json,
        "  \"llm_stage\": \"labeling + training_data (the model-call-dominated pipeline steps)\","
    );
    json.push_str("  \"runs\": [\n");
    json.push_str(&blocks.join(",\n"));
    json.push_str("\n  ]");
    // Always emitted (like the headline runs): the compiled criteria engine
    // vs its AST oracle, outputs asserted identical — tier-1 `--quick` runs
    // guard the equivalence, full runs refresh the ledger's speedups.
    json.push_str(",\n  \"criteria_vm\": {\n");
    json.push_str(&criteria_section(rows));
    json.push_str("\n  }");
    if shapes {
        json.push_str(",\n  \"shapes\": [\n");
        json.push_str(&shapes_section(rows, workers));
        json.push_str("\n  ]");
    }
    if router {
        json.push_str(",\n  \"router\": {\n");
        json.push_str(&router_section(rows, workers));
        json.push_str("\n  }");
    }
    if persist {
        json.push_str(",\n  \"persistence\": {\n");
        json.push_str(&persist_section(rows, workers));
        json.push_str("\n  }");
    }
    if mangle {
        json.push_str(",\n  \"mangling\": {\n");
        json.push_str(&mangle_section(rows, workers));
        json.push_str("\n  }");
    }
    if trace {
        json.push_str(",\n  \"trace\": {\n");
        json.push_str(&trace_section(rows, workers));
        json.push_str("\n  }");
    }
    json.push_str("\n}\n");

    std::fs::write(&out_path, &json).expect("write benchmark JSON");
    println!("{json}");
    eprintln!("wrote {out_path}");
    assert!(
        all_speedups_ok,
        "concurrent+cache must be at least 2x faster than sequential on the LLM stages"
    );
}
