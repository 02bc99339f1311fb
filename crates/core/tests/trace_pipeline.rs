//! Flight-recorder conformance across the pipeline's execution modes: every
//! run publishes a [`zeroed_obs::TraceSummary`] whose journal (a) passes the
//! causality checker and (b) reconciles **exactly** — zero tolerance —
//! against the independently maintained cache, scheduler, repair and store
//! counters in [`zeroed_core::PipelineStats`]. The trace is not a sample:
//! for every counter the pipeline reports there is an equal number of
//! journaled events, in {sequential, uncached, concurrent+cached (cold and
//! warm), mangled, persisted} runs alike. A cold cached run's journal
//! also goes through both exporters, and the recorder and the profiler
//! must cost under 2% of that run.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::{Duration, Instant};
use zeroed_core::{PipelineStats, RuntimeConfig, ZeroEd, ZeroEdConfig};
use zeroed_datagen::{generate, DatasetSpec, GenerateOptions};
use zeroed_llm::{MangleSchedule, SimLlm};
use zeroed_obs::{
    chrome_trace_json, journal_jsonl, EventKind, Profiler, StageProfile, TraceId, TraceRecorder,
};

static DIR_COUNTER: AtomicU32 = AtomicU32::new(0);

fn temp_dir() -> PathBuf {
    let n = DIR_COUNTER.fetch_add(1, Ordering::SeqCst);
    let dir = std::env::temp_dir().join(format!("zeroed-trace-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn dataset() -> zeroed_datagen::GeneratedDataset {
    generate(
        DatasetSpec::Hospital,
        &GenerateOptions {
            n_rows: 180,
            seed: 13,
            error_spec: None,
        },
    )
}

fn oracle_llm(ds: &zeroed_datagen::GeneratedDataset, seed: u64) -> SimLlm {
    let types: Vec<_> = ds
        .injected
        .iter()
        .map(|e| ((e.row, e.col), e.error_type))
        .collect();
    SimLlm::default_model(seed)
        .with_oracle(ds.mask.clone())
        .with_error_types(types)
}

fn config() -> ZeroEdConfig {
    ZeroEdConfig {
        label_rate: 0.08,
        ..ZeroEdConfig::fast()
    }
}

/// The zero-tolerance ledger: journal counts == pipeline counters, and the
/// journal itself is causally consistent. Returns the summary for
/// mode-specific follow-up assertions.
fn assert_trace_reconciles(stats: &PipelineStats, label: &str) -> zeroed_obs::TraceSummary {
    let trace = stats
        .trace
        .clone()
        .unwrap_or_else(|| panic!("[{label}] run must publish a trace summary"));
    assert_eq!(trace.dropped_events, 0, "[{label}] ring must not evict");
    if let Err(why) = trace.verify() {
        panic!("[{label}] causality check failed: {why}");
    }

    // Scheduler: every task journaled exactly once per lifecycle stage.
    let tasks = stats.runtime_tasks as u64;
    assert_eq!(
        trace.count(EventKind::TaskSubmit),
        tasks,
        "[{label}] submits"
    );
    assert_eq!(trace.count(EventKind::TaskStart), tasks, "[{label}] starts");
    assert_eq!(trace.count(EventKind::TaskEnd), tasks, "[{label}] ends");

    // Cache: the per-adapter counters and the journal were written on the
    // same code paths but through independent mechanisms.
    assert_eq!(
        trace.count(EventKind::CacheHit),
        stats.cache.hits,
        "[{label}] hits"
    );
    assert_eq!(
        trace.count(EventKind::CacheMiss),
        stats.cache.misses,
        "[{label}] misses"
    );
    assert_eq!(
        trace.count(EventKind::CacheCoalesced),
        stats.cache.coalesced,
        "[{label}] coalesced"
    );
    assert_eq!(
        trace.count(EventKind::CachePublish),
        stats.cache.misses,
        "[{label}] every miss publishes exactly once"
    );

    // Repair: the degradation ledger and the journal agree bucket by bucket.
    let (salvaged, reasked, defaulted) = stats.repair.total_handled();
    assert_eq!(
        trace.count(EventKind::RepairMangled),
        stats.repair.total_mangled() as u64,
        "[{label}] mangled"
    );
    assert_eq!(
        trace.count(EventKind::RepairSalvaged),
        salvaged as u64,
        "[{label}] salvaged"
    );
    assert_eq!(
        trace.count(EventKind::RepairReasked),
        reasked as u64,
        "[{label}] reasked"
    );
    assert_eq!(
        trace.count(EventKind::RepairDefaulted),
        defaulted as u64,
        "[{label}] defaulted"
    );

    // Store: one persist event per persisted record (journaled from the
    // background writer thread, exact after the drain barrier).
    assert_eq!(
        trace.count(EventKind::StorePersist),
        stats.persist.persisted_records,
        "[{label}] persists"
    );

    trace
}

/// Mean wall time of one call of `op`, measured over `samples` calls.
fn cost_per_call(samples: u32, mut op: impl FnMut(u32)) -> Duration {
    let t = Instant::now();
    for i in 0..samples {
        op(i);
    }
    t.elapsed() / samples
}

/// Spans recorded across the whole tree.
fn profile_records(p: &StageProfile) -> u64 {
    p.count + p.children.iter().map(profile_records).sum::<u64>()
}

#[test]
fn sequential_run_traces_repair_only() {
    let ds = dataset();
    let uncached = RuntimeConfig {
        workers: 4,
        cache: false,
        ..RuntimeConfig::default()
    };
    for (label, config) in [
        ("sequential", config().sequential_runtime()),
        ("uncached 4 workers", config().with_runtime(uncached)),
    ] {
        let llm = oracle_llm(&ds, 13);
        let outcome = ZeroEd::new(config).detect(&ds.dirty, &llm);
        let trace = assert_trace_reconciles(&outcome.stats, label);
        // Every task is journaled (the reconciliation above checks submit,
        // start and end against the count), but without the cache the run
        // has no cache or store events.
        assert!(outcome.stats.runtime_tasks > 0);
        assert_eq!(trace.count(EventKind::CacheHit), 0, "[{label}]");
        assert_eq!(trace.count(EventKind::StorePersist), 0, "[{label}]");
        assert_eq!(trace.count(EventKind::StorePreload), 0, "[{label}]");
    }
}

#[test]
fn concurrent_cached_run_traces_every_layer_exactly() {
    let ds = dataset();
    let detector = ZeroEd::new(config().with_runtime(RuntimeConfig {
        workers: 4,
        ..RuntimeConfig::default()
    }));

    let llm = oracle_llm(&ds, 13);
    let t = Instant::now();
    let cold = detector.detect(&ds.dirty, &llm);
    let wall = t.elapsed();
    let trace = assert_trace_reconciles(&cold.stats, "concurrent cold");
    assert!(cold.stats.runtime_tasks > 0, "fan-out must happen");
    assert!(cold.stats.cache.misses > 0, "cold run must miss");
    assert!(
        !trace.exemplars.is_empty(),
        "request-rooted traces must yield exemplars"
    );
    // Each exemplar belongs to a real request and spans at least its own
    // cache lookup.
    for ex in &trace.exemplars {
        assert!(!ex.trace.is_none());
        assert!(ex.end_nanos >= ex.begin_nanos);
    }

    // Both exporters on a real journal (`trace_conformance` pins their
    // output on a hand-built stream): JSONL is one line per event, and the
    // Chrome array holds only complete spans ("X") and instants ("i"), one
    // span per queue and per execute of each task and one per published
    // computation.
    let journal = journal_jsonl(&trace.events);
    assert_eq!(journal.lines().count(), trace.events.len());
    let chrome = chrome_trace_json(&trace.events);
    assert!(chrome.starts_with("[\n") && chrome.ends_with("\n]\n"));
    let entries: Vec<&str> = chrome.lines().filter(|l| l.starts_with('{')).collect();
    let spans = entries
        .iter()
        .filter(|l| l.contains("\"ph\": \"X\""))
        .count();
    let instants = entries
        .iter()
        .filter(|l| l.contains("\"ph\": \"i\""))
        .count();
    assert_eq!(spans + instants, entries.len(), "only spans and instants");
    assert_eq!(
        spans as u64,
        2 * trace.count(EventKind::TaskStart) + trace.count(EventKind::CachePublish)
    );

    // Always-on observability stays cheap: the flight recorder's and the
    // profiler's cost per operation, times the operations this run
    // recorded, is under 2% of its wall time.
    let recorder = TraceRecorder::new(1);
    let per_emit = cost_per_call(200_000, |i| {
        recorder.emit(
            TraceId::from_key(u128::from(i), 1),
            EventKind::CacheHit,
            u64::from(i),
        )
    });
    let probe = Profiler::new("probe");
    let span = probe.root().child_dist("record");
    let per_record = cost_per_call(50_000, |i| span.record(Duration::from_nanos(u64::from(i))));
    let profile = cold.stats.stage_profile.as_ref().expect("stage profile");
    for (what, cost) in [
        (
            "flight recorder",
            per_emit.as_secs_f64() * trace.recorded() as f64,
        ),
        (
            "profiler",
            per_record.as_secs_f64() * profile_records(profile) as f64,
        ),
    ] {
        assert!(
            cost < 0.02 * wall.as_secs_f64(),
            "{what} overhead {cost:.6} s exceeds 2% of the run's {wall:?}"
        );
    }

    // Warm re-run on the same detector: all hits, still exact.
    let llm_warm = oracle_llm(&ds, 13);
    let warm = detector.detect(&ds.dirty, &llm_warm);
    let trace = assert_trace_reconciles(&warm.stats, "concurrent warm");
    assert_eq!(warm.stats.cache.misses, 0);
    assert!(warm.stats.cache.hits > 0);
    assert_eq!(trace.count(EventKind::CachePublish), 0);
}

#[test]
fn mangled_run_traces_the_degradation_ledger() {
    let ds = dataset();
    let types: Vec<_> = ds
        .injected
        .iter()
        .map(|e| ((e.row, e.col), e.error_type))
        .collect();
    let llm = SimLlm::default_model(13)
        .with_oracle(ds.mask.clone())
        .with_error_types(types)
        .with_mangling(MangleSchedule::uniform(17, 0.5));
    let outcome = ZeroEd::new(config().with_runtime(RuntimeConfig {
        workers: 4,
        ..RuntimeConfig::default()
    }))
    .detect(&ds.dirty, &llm);
    let trace = assert_trace_reconciles(&outcome.stats, "mangled");
    assert!(
        outcome.stats.repair.total_mangled() > 0,
        "rate 0.5 must corrupt something"
    );
    assert_eq!(
        trace.count(EventKind::RepairMangled),
        llm.mangled_responses() as u64,
        "journal must agree with the simulator's own corruption count"
    );
}

#[test]
fn persisted_run_traces_store_writes_and_the_preload() {
    let ds = dataset();
    let dir = temp_dir();
    let store_config = || config().with_store_dir(dir.to_str().unwrap());

    let cold = {
        let llm = oracle_llm(&ds, 13);
        let outcome = ZeroEd::new(store_config()).detect(&ds.dirty, &llm);
        let trace = assert_trace_reconciles(&outcome.stats, "cold store");
        assert!(outcome.stats.persist.persisted_records > 0);
        // The preload marker is journaled exactly once, carrying the
        // warm-start size this run saw (zero: the directory was fresh).
        assert_eq!(trace.count(EventKind::StorePreload), 1);
        let preload = trace
            .events
            .iter()
            .find(|e| e.kind == EventKind::StorePreload)
            .expect("preload event must survive in the ring");
        assert_eq!(preload.arg, 0);
        outcome
    };

    // Fresh detector, same directory: preload arg now equals the cold run's
    // persisted count and the cache's size before the run, and no new
    // persists are journaled.
    let llm = oracle_llm(&ds, 13);
    let detector = ZeroEd::new(store_config());
    let preloaded = detector.cache().len() as u64;
    let outcome = detector.detect(&ds.dirty, &llm);
    let trace = assert_trace_reconciles(&outcome.stats, "warm store");
    assert_eq!(trace.count(EventKind::StorePersist), 0);
    let preload = trace
        .events
        .iter()
        .find(|e| e.kind == EventKind::StorePreload)
        .expect("preload event must survive in the ring");
    assert_eq!(preload.arg, cold.stats.persist.persisted_records);
    assert_eq!(preloaded, cold.stats.persist.persisted_records);
    drop(detector);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Trace ids are minted from (request key, run nonce): two runs under the
/// same seed journal the same id set, and a different seed shifts every id.
#[test]
fn trace_ids_are_deterministic_per_seed() {
    let ds = dataset();
    let ids_of = |seed_cfg: u64| {
        let detector = ZeroEd::new(ZeroEdConfig {
            seed: seed_cfg,
            ..config()
        });
        let llm = oracle_llm(&ds, 13);
        let outcome = detector.detect(&ds.dirty, &llm);
        let trace = outcome.stats.trace.expect("trace");
        let mut ids: Vec<u64> = trace
            .events
            .iter()
            .filter(|e| e.kind == EventKind::CacheMiss)
            .map(|e| e.trace.raw())
            .collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    };
    let a = ids_of(42);
    let b = ids_of(42);
    let c = ids_of(43);
    assert!(!a.is_empty());
    assert_eq!(a, b, "same seed, same request keys → identical trace ids");
    assert_ne!(a, c, "the run nonce must shift every minted id");
}
