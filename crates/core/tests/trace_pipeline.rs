//! Flight-recorder conformance across the pipeline's execution modes: every
//! run publishes a [`zeroed_obs::TraceSummary`] whose journal (a) passes the
//! causality checker and (b) reconciles **exactly** — zero tolerance —
//! against the independently maintained cache, scheduler, repair and store
//! counters in [`zeroed_core::PipelineStats`] and the router's own
//! [`zeroed_core::RouterStats`]. The trace is not a sample: for every
//! counter the pipeline reports there is an equal number of journaled
//! events, in {sequential, concurrent+cached (cold and warm),
//! routed-with-faults, mangled} runs alike.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use zeroed_core::{
    PipelineStats, RouterConfig, RouterLlm, RouterStats, RuntimeConfig, ZeroEd, ZeroEdConfig,
};
use zeroed_datagen::{generate, DatasetSpec, GenerateOptions};
use zeroed_llm::{FaultSchedule, LlmClient, MangleSchedule, SimLlm};
use zeroed_obs::EventKind;

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

/// The zero-tolerance ledger: journal counts == pipeline counters (and the
/// router's own counters, all zero for an unrouted run), and the journal
/// itself is causally consistent. Returns the summary for mode-specific
/// follow-up assertions.
fn assert_trace_reconciles(
    stats: &PipelineStats,
    router: &RouterStats,
    label: &str,
) -> zeroed_obs::TraceSummary {
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
    assert_eq!(trace.count(EventKind::TaskSubmit), tasks, "[{label}] submits");
    assert_eq!(trace.count(EventKind::TaskStart), tasks, "[{label}] starts");
    assert_eq!(trace.count(EventKind::TaskEnd), tasks, "[{label}] ends");

    // Cache: the per-adapter counters and the journal were written on the
    // same code paths but through independent mechanisms.
    assert_eq!(trace.count(EventKind::CacheHit), stats.cache.hits, "[{label}] hits");
    assert_eq!(trace.count(EventKind::CacheMiss), stats.cache.misses, "[{label}] misses");
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

    // Router: one RouterDone per routed request, faults/failovers exact.
    assert_eq!(
        trace.count(EventKind::RouterDone),
        router.requests,
        "[{label}] routed requests"
    );
    assert_eq!(
        trace.count(EventKind::RouterFailover),
        router.failovers,
        "[{label}] failovers"
    );
    assert_eq!(
        trace.count(EventKind::HedgeFired),
        router.hedges_fired,
        "[{label}] hedges fired"
    );
    assert_eq!(
        trace.count(EventKind::HedgeWon),
        router.hedges_won_by_hedge,
        "[{label}] hedges won"
    );
    assert_eq!(
        trace.count(EventKind::BreakerTrip),
        router.breaker_trips,
        "[{label}] breaker trips"
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

#[test]
fn sequential_run_traces_repair_only() {
    let ds = dataset();
    let llm = oracle_llm(&ds, 13);
    let outcome = ZeroEd::new(config().sequential_runtime()).detect(&ds.dirty, &llm);
    let trace = assert_trace_reconciles(&outcome.stats, &RouterStats::default(), "sequential");
    // One worker still journals every task (the reconciliation above checks
    // submit, start and end against the count), but the run has no cache,
    // router or store.
    assert!(outcome.stats.runtime_tasks > 0);
    assert_eq!(trace.count(EventKind::CacheHit), 0);
    assert_eq!(trace.count(EventKind::RouterDone), 0);
    assert_eq!(trace.count(EventKind::StorePersist), 0);
    assert_eq!(trace.count(EventKind::StorePreload), 0);
}

#[test]
fn concurrent_cached_run_traces_every_layer_exactly() {
    let ds = dataset();
    let detector = ZeroEd::new(config().with_runtime(RuntimeConfig {
        workers: 4,
        ..RuntimeConfig::default()
    }));

    let llm = oracle_llm(&ds, 13);
    let cold = detector.detect(&ds.dirty, &llm);
    let trace = assert_trace_reconciles(&cold.stats, &RouterStats::default(), "concurrent cold");
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

    // Warm re-run on the same detector: all hits, still exact.
    let llm_warm = oracle_llm(&ds, 13);
    let warm = detector.detect(&ds.dirty, &llm_warm);
    let trace = assert_trace_reconciles(&warm.stats, &RouterStats::default(), "concurrent warm");
    assert_eq!(warm.stats.cache.misses, 0);
    assert!(warm.stats.cache.hits > 0);
    assert_eq!(trace.count(EventKind::CachePublish), 0);
}

#[test]
fn routed_run_with_faults_traces_router_decisions() {
    let ds = dataset();
    let faults = FaultSchedule {
        error_rate: 0.2,
        timeout_rate: 0.1,
        ..FaultSchedule::healthy(3)
    };
    let primary = oracle_llm(&ds, 13).with_faults(faults);
    let replica = oracle_llm(&ds, 13);
    let clients: Vec<&dyn LlmClient> = vec![&primary, &replica];
    let runtime = RuntimeConfig {
        workers: 4,
        ..RuntimeConfig::default()
    };
    let router = RouterLlm::new(clients, &RouterConfig::for_backends(2));
    let outcome = ZeroEd::new(config().with_runtime(runtime)).detect_routed(&ds.dirty, &router);
    let routed = router.stats();
    let trace = assert_trace_reconciles(&outcome.stats, &routed, "routed");
    assert!(routed.requests > 0);
    assert!(routed.failovers > 0, "the fault schedule must force failovers");
    // Every routed request chose a primary before anything else happened.
    assert_eq!(trace.count(EventKind::RouterPrimary), routed.requests);
    // Faults journaled at the injection site are at least the failovers
    // (slow-tail faults add more, and hedged losers add none).
    assert!(trace.count(EventKind::FaultInjected) >= trace.count(EventKind::RouterFailover));
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
    let trace = assert_trace_reconciles(&outcome.stats, &RouterStats::default(), "mangled");
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
        let trace = assert_trace_reconciles(&outcome.stats, &RouterStats::default(), "cold store");
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
    let trace = assert_trace_reconciles(&outcome.stats, &RouterStats::default(), "warm store");
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
