//! Content-corruption conformance: seeded mangle schedules swept across the
//! execution modes.
//!
//! For every seeded [`MangleSchedule`] the pipeline must degrade
//! *predictably*:
//!
//! 1. **No panics, on any mode** — corrupted responses are repaired,
//!    re-asked or defaulted, never crash the pipeline.
//! 2. **Bit-identical masks across modes** — sequential, concurrent and
//!    routed runs under the *same* schedule agree exactly (the corruption
//!    draw is keyed off the request salt, not off execution order).
//! 3. **Exact accounting** — per stage `mangled == repaired + reasked +
//!    defaulted`, and the sum of stage `mangled` counters equals the number
//!    of corruptions the simulator actually applied: zero silent drops.
//! 4. **Repaired responses are what gets persisted** — a warm start from a
//!    store written under mangling replays bit-identically with zero LLM
//!    requests and zero new repairs.
//!
//! The routed leg runs failover-only (hedging disabled): a hedged request
//! executes on *two* backends and would legitimately double-count
//! `mangled_responses`, breaking invariant 3's equality without indicating a
//! real drop.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use zeroed_core::{HedgePolicy, PipelineStats, RouterConfig, RouterLlm, ZeroEd, ZeroEdConfig};
use zeroed_datagen::{generate, DatasetSpec, GenerateOptions};
use zeroed_llm::{LlmClient, MangleSchedule, SimLlm};
use zeroed_table::ErrorMask;

static DIR_COUNTER: AtomicU32 = AtomicU32::new(0);

fn temp_dir() -> PathBuf {
    let n = DIR_COUNTER.fetch_add(1, Ordering::SeqCst);
    let dir = std::env::temp_dir().join(format!("zeroed-mangle-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn dataset() -> zeroed_datagen::GeneratedDataset {
    generate(
        DatasetSpec::Beers,
        &GenerateOptions {
            n_rows: 140,
            seed: 7,
            error_spec: None,
        },
    )
}

fn mangled_llm(ds: &zeroed_datagen::GeneratedDataset, schedule: MangleSchedule) -> SimLlm {
    let types: Vec<_> = ds
        .injected
        .iter()
        .map(|e| ((e.row, e.col), e.error_type))
        .collect();
    SimLlm::default_model(5)
        .with_oracle(ds.mask.clone())
        .with_error_types(types)
        .with_mangling(schedule)
}

fn config() -> ZeroEdConfig {
    ZeroEdConfig {
        label_rate: 0.08,
        ..ZeroEdConfig::fast()
    }
}

/// A failover-only router config: no hedging, so every request executes on
/// exactly one backend and simulator-side corruption counts stay comparable
/// with the repair layer's.
fn failover_only(n: usize) -> RouterConfig {
    RouterConfig {
        hedge: HedgePolicy {
            enabled: false,
            ..HedgePolicy::default()
        },
        ..RouterConfig::for_backends(n)
    }
}

#[derive(Clone, Copy, Debug)]
enum Mode {
    Sequential,
    Concurrent,
    Routed,
}

/// Runs detection under `schedule` in the given mode with fresh clients,
/// returning the mask, the stats, and the simulator-side corruption count
/// summed across every backend that served requests.
fn run_mode(
    mode: Mode,
    ds: &zeroed_datagen::GeneratedDataset,
    schedule: MangleSchedule,
) -> (ErrorMask, PipelineStats, usize) {
    match mode {
        Mode::Sequential => {
            let llm = mangled_llm(ds, schedule);
            let outcome = ZeroEd::new(config().sequential_runtime()).detect(&ds.dirty, &llm);
            (outcome.mask, outcome.stats, llm.mangled_responses())
        }
        Mode::Concurrent => {
            let llm = mangled_llm(ds, schedule);
            let outcome = ZeroEd::new(config()).detect(&ds.dirty, &llm);
            (outcome.mask, outcome.stats, llm.mangled_responses())
        }
        Mode::Routed => {
            let primary = mangled_llm(ds, schedule);
            let replica = mangled_llm(ds, schedule);
            let clients: Vec<&dyn LlmClient> = vec![&primary, &replica];
            let router = RouterLlm::new(clients, &failover_only(2));
            let outcome = ZeroEd::new(config()).detect_routed(&ds.dirty, &router);
            (
                outcome.mask,
                outcome.stats,
                primary.mangled_responses() + replica.mangled_responses(),
            )
        }
    }
}

fn assert_reconciles(stats: &PipelineStats, sim_mangled: usize, label: &str) {
    let repair = stats.repair;
    assert!(
        repair.reconciles(),
        "[{label}] a corrupted response escaped its bucket: {repair:?}"
    );
    assert_eq!(
        repair.total_mangled(),
        sim_mangled,
        "[{label}] repair-layer detections must equal simulator corruptions (zero silent \
         drops): {repair:?}"
    );
}

/// The tentpole sweep: schedules × modes, masks bit-identical, accounting
/// exact in every cell of the matrix.
#[test]
fn seeded_schedules_degrade_identically_across_modes() {
    let ds = dataset();
    for (seed, rate) in [(3u64, 0.3f64), (17, 1.0)] {
        let schedule = MangleSchedule::uniform(seed, rate);
        let (seq_mask, seq_stats, seq_mangled) = run_mode(Mode::Sequential, &ds, schedule);
        assert_reconciles(&seq_stats, seq_mangled, &format!("seq s{seed} r{rate}"));
        assert!(
            seq_stats.repair.total_mangled() > 0,
            "rate {rate} must corrupt something"
        );

        for mode in [Mode::Concurrent, Mode::Routed] {
            let label = format!("{mode:?} s{seed} r{rate}");
            let (mask, stats, sim_mangled) = run_mode(mode, &ds, schedule);
            assert_eq!(
                mask, seq_mask,
                "[{label}] mask diverged from the sequential oracle under mangling"
            );
            assert_reconciles(&stats, sim_mangled, &label);
            // The corruption draw is salt-keyed, so every mode detects the
            // same corruptions (the cache dedups identical requests, but a
            // deduped request was corrupted — and repaired — exactly once).
            assert_eq!(
                stats.repair, seq_stats.repair,
                "[{label}] per-stage counters must not depend on the execution mode"
            );
        }
    }
}

/// A healthy schedule (rate 0) must leave zero fingerprints: no corruption,
/// no repairs, bit-identical mask to a run without any schedule at all.
#[test]
fn zero_rate_schedule_is_a_no_op() {
    let ds = dataset();
    let unscheduled = {
        // No schedule at all: same oracle, same seed.
        let types: Vec<_> = ds
            .injected
            .iter()
            .map(|e| ((e.row, e.col), e.error_type))
            .collect();
        let plain = SimLlm::default_model(5)
            .with_oracle(ds.mask.clone())
            .with_error_types(types);
        ZeroEd::new(config().sequential_runtime()).detect(&ds.dirty, &plain)
    };
    let llm = mangled_llm(&ds, MangleSchedule::uniform(1, 0.0));
    let outcome = ZeroEd::new(config().sequential_runtime()).detect(&ds.dirty, &llm);
    assert_eq!(outcome.mask, unscheduled.mask);
    assert_eq!(llm.mangled_responses(), 0);
    assert_eq!(outcome.stats.repair.total_mangled(), 0);
}

/// Re-ask budget 0 never re-asks (no re-ask ledger traffic), yet still
/// reconciles and still completes on every mode; the re-ask line otherwise
/// bills exactly the attempts the ladder made.
#[test]
fn reask_budget_bounds_the_ledger_reask_line() {
    let ds = dataset();
    let schedule = MangleSchedule::uniform(23, 0.6);

    let llm = mangled_llm(&ds, schedule);
    let zero_budget = ZeroEdConfig {
        reask_budget: 0,
        ..config()
    };
    let outcome = ZeroEd::new(zero_budget.sequential_runtime()).detect(&ds.dirty, &llm);
    assert_reconciles(&outcome.stats, llm.mangled_responses(), "budget 0");
    let (_, reasked, _) = outcome.stats.repair.total_handled();
    assert_eq!(reasked, 0, "budget 0 must never re-ask");
    assert_eq!(llm.ledger().reask_usage().requests, 0);

    let llm = mangled_llm(&ds, schedule);
    let outcome = ZeroEd::new(config().sequential_runtime()).detect(&ds.dirty, &llm);
    assert_reconciles(&outcome.stats, llm.mangled_responses(), "budget 1");
    let (_, reasked, defaulted) = outcome.stats.repair.total_handled();
    // With budget 1 every resolved re-ask burned one attempt and every
    // defaulted request burned its single (failed) attempt.
    assert_eq!(
        llm.ledger().reask_usage().requests,
        reasked + defaulted,
        "re-ask attempts must be billed on the distinct ledger line: {:?}",
        outcome.stats.repair
    );
    let usage = llm.ledger().usage();
    assert!(
        usage.requests > reasked + defaulted,
        "the re-ask line is a subset of total usage"
    );
}

/// Invariant 4: the cache — and the store behind it — hold *repaired*
/// responses, so a warm start from a store written under heavy mangling
/// replays bit-identically with zero requests and zero new repairs.
#[test]
fn warm_start_from_a_mangled_store_replays_repaired_responses() {
    let ds = dataset();
    let dir = temp_dir();
    let schedule = MangleSchedule::uniform(41, 0.5);
    let store_config = || config().with_store_dir(dir.to_str().unwrap());

    let (cold_mask, cold_stats) = {
        let llm = mangled_llm(&ds, schedule);
        let outcome = ZeroEd::new(store_config()).detect(&ds.dirty, &llm);
        assert_reconciles(&outcome.stats, llm.mangled_responses(), "cold mangled store");
        assert!(outcome.stats.repair.total_mangled() > 0);
        assert!(outcome.stats.persist.persisted_records > 0);
        (outcome.mask, outcome.stats)
        // ← detector drops: writes drained and synced, "process" exits.
    };

    let llm = mangled_llm(&ds, schedule);
    let detector = ZeroEd::new(store_config());
    let preloaded = detector.cache().len() as u64;
    let outcome = detector.detect(&ds.dirty, &llm);
    assert_eq!(outcome.mask, cold_mask, "warm mask must replay bit-identically");
    assert_eq!(
        llm.ledger().usage().requests, 0,
        "warm start must issue zero LLM requests"
    );
    assert_eq!(llm.mangled_responses(), 0, "the simulator is never consulted");
    assert_eq!(
        outcome.stats.repair.total_mangled(),
        0,
        "cached responses are already repaired — nothing to do again"
    );
    assert_eq!(outcome.stats.cache.misses, 0);
    assert_eq!(preloaded, cold_stats.persist.persisted_records);
    drop(detector);
    let _ = std::fs::remove_dir_all(&dir);
}
