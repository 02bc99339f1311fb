//! The orchestration-runtime correctness contract: multi-worker and cached
//! execution must be *bit-identical* to the sequential run (one worker, no
//! cache), and the token ledger must account for every request — cached runs
//! may only differ by exactly the savings the cache reports.

use zeroed_core::{RuntimeConfig, ZeroEd, ZeroEdConfig};
use zeroed_datagen::{generate, DatasetSpec, GenerateOptions};
use zeroed_llm::{LlmClient, SimLlm, TokenUsage};

fn dataset(spec: DatasetSpec, rows: usize, seed: u64) -> zeroed_datagen::GeneratedDataset {
    generate(
        spec,
        &GenerateOptions {
            n_rows: rows,
            seed,
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

fn base_config() -> ZeroEdConfig {
    ZeroEdConfig {
        label_rate: 0.08,
        ..ZeroEdConfig::fast()
    }
}

/// Runs sequential vs concurrent+cached (including a warm re-run) on one
/// dataset and checks masks, stats and ledger accounting, once at a pinned
/// worker count and once at the default runtime's widths.
fn check_equivalence(spec: DatasetSpec, rows: usize, seed: u64) {
    let ds = dataset(spec, rows, seed);

    // Sequential reference run.
    let llm_seq = oracle_llm(&ds, seed);
    let seq = ZeroEd::new(base_config().sequential_runtime()).detect(&ds.dirty, &llm_seq);
    let seq_usage = llm_seq.ledger().usage();
    let seq_cost = llm_seq.ledger().sim_cost();

    // Concurrent + cached paths: a fixed worker count (so the test exercises
    // real fan-out even on single-core CI machines) and the default runtime,
    // whose LLM fan-outs are as wide as the simulator's serving capacity.
    let pinned = RuntimeConfig {
        workers: 4,
        ..RuntimeConfig::default()
    };
    for runtime in [pinned, RuntimeConfig::default()] {
        let label = format!("{} at workers={}", spec.name(), runtime.workers);
        let detector = ZeroEd::new(base_config().with_runtime(runtime));
        let llm_conc = oracle_llm(&ds, seed);
        let conc = detector.detect(&ds.dirty, &llm_conc);
        let conc_usage = llm_conc.ledger().usage();

        // 1. The mask is bit-identical.
        assert_eq!(
            seq.mask, conc.mask,
            "{label}: concurrent+cached mask diverged from sequential"
        );
        // 2. Pipeline statistics agree (the cache/runtime counters are extra).
        assert_eq!(seq.stats.llm_labeled_cells, conc.stats.llm_labeled_cells);
        assert_eq!(seq.stats.propagated_cells, conc.stats.propagated_cells);
        assert_eq!(
            seq.stats.verified_clean_rows,
            conc.stats.verified_clean_rows
        );
        assert_eq!(seq.stats.error_rows, conc.stats.error_rows);
        assert_eq!(seq.stats.augmented_rows, conc.stats.augmented_rows);
        assert_eq!(seq.stats.criteria_count, conc.stats.criteria_count);
        // 3. Ledger totals are identical minus the (exactly accounted) dedup
        //    savings. A single cold run has no duplicate requests, so savings are
        //    zero and the totals match outright — asserted in the general form.
        assert_eq!(
            conc_usage.input_tokens
                + conc_usage.output_tokens
                + conc.stats.cache.tokens_saved() as usize,
            seq_usage.input_tokens + seq_usage.output_tokens,
            "{label}: tokens + savings must equal the sequential total"
        );
        assert_eq!(
            conc_usage.requests + conc.stats.cache.hits as usize,
            seq_usage.requests,
            "{label}: requests + hits must equal the sequential request count"
        );
        assert_eq!(
            llm_conc.ledger().sim_cost(),
            seq_cost,
            "{label}: serial model cost"
        );

        // Warm re-run on the same detector with a fresh client: every request
        // replays from the cache.
        let llm_warm = oracle_llm(&ds, seed);
        let warm = detector.detect(&ds.dirty, &llm_warm);
        let warm_usage = llm_warm.ledger().usage();
        assert_eq!(seq.mask, warm.mask, "{label}: warm mask diverged");
        assert_eq!(
            warm_usage,
            TokenUsage::default(),
            "{label}: warm run must charge nothing"
        );
        assert_eq!(warm.stats.cache.misses, 0, "{label}");
        assert_eq!(
            warm.stats.cache.hits as usize, seq_usage.requests,
            "{label}"
        );
        assert_eq!(
            warm.stats.cache.tokens_saved() as usize,
            seq_usage.input_tokens + seq_usage.output_tokens,
            "{label}: warm savings must equal the full sequential token bill"
        );
    }
}

#[test]
fn concurrent_cached_detection_is_bit_identical_on_beers() {
    check_equivalence(DatasetSpec::Beers, 250, 5);
}

#[test]
fn concurrent_cached_detection_is_bit_identical_on_flights() {
    check_equivalence(DatasetSpec::Flights, 250, 9);
}

#[test]
fn uncached_concurrent_run_matches_too() {
    let ds = dataset(DatasetSpec::Hospital, 200, 3);
    let llm_seq = oracle_llm(&ds, 3);
    let seq = ZeroEd::new(base_config().sequential_runtime()).detect(&ds.dirty, &llm_seq);
    let llm_conc = oracle_llm(&ds, 3);
    let conc = ZeroEd::new(base_config().with_runtime(RuntimeConfig {
        workers: 4,
        cache: false,
        ..RuntimeConfig::default()
    }))
    .detect(&ds.dirty, &llm_conc);
    assert_eq!(seq.mask, conc.mask);
    assert_eq!(llm_seq.ledger().usage(), llm_conc.ledger().usage());
    assert_eq!(conc.stats.cache, Default::default(), "no cache, no lookups");
    assert!(conc.stats.runtime_tasks > 0);
}

#[test]
fn default_runtime_fills_the_model_serving_capacity() {
    // With the simulator's full latency on, the sequential run serves one
    // request at a time; the default runtime's LLM fan-outs keep more than
    // the old per-core width of two in flight, never more than the simulator
    // serves, and so finish the attribute chains at least twice as fast. The
    // table is small because a debug build's CPU time, which the tests
    // running beside this one slow down further, would hide the overlap.
    let ds = dataset(DatasetSpec::Hospital, 100, 3);
    let served = |config: ZeroEdConfig| {
        let llm = oracle_llm(&ds, 3).with_latency_scale(1.0);
        let outcome = ZeroEd::new(config).detect(&ds.dirty, &llm);
        let chains = outcome
            .stats
            .stage_profile
            .as_ref()
            .and_then(|p| p.child("attributes"))
            .expect("a non-empty run times its attribute chains")
            .wall();
        (outcome.mask, llm.ledger().concurrency(), chains)
    };
    let (seq_mask, seq, seq_chains) = served(base_config().sequential_runtime());
    assert_eq!(seq.peak_in_flight, 1, "{seq:?}");
    assert_eq!(seq.waits, 0, "{seq:?}");
    let (mask, default, default_chains) = served(base_config());
    assert_eq!(mask, seq_mask);
    assert!(
        default.peak_in_flight > 2 && default.peak_in_flight <= SimLlm::SERVING_CAPACITY,
        "{default:?}"
    );
    assert!(
        seq_chains >= 2 * default_chains,
        "the default runtime's attribute chains took {default_chains:?}, more than half of \
         the sequential run's {seq_chains:?}"
    );
}

/// The synthetic workload shapes (wide, high-distinct, mixed-schema) stress
/// column counts and value distributions, not rows, so a small table of
/// each is enough: the default runtime reproduces the sequential mask, and
/// both runs' stage profiles reconcile.
#[test]
fn workload_shapes_match_the_sequential_run() {
    for spec in DatasetSpec::WORKLOADS {
        let ds = dataset(spec, 120, 7);
        let name = spec.name();
        let seq =
            ZeroEd::new(base_config().sequential_runtime()).detect(&ds.dirty, &oracle_llm(&ds, 1));
        let default = ZeroEd::new(base_config()).detect(&ds.dirty, &oracle_llm(&ds, 1));
        assert_eq!(
            seq.mask, default.mask,
            "{name}: mask diverged from sequential"
        );
        for outcome in [&seq, &default] {
            let profile = outcome.stats.stage_profile.as_ref().expect("stage profile");
            assert!(
                profile.accounting_ok(),
                "{name}\n{}",
                profile.render_table()
            );
            assert!(
                profile.coverage() >= 0.9,
                "{name}: top-level stages cover {:.3} of the run\n{}",
                profile.coverage(),
                profile.render_table()
            );
        }
    }
}
