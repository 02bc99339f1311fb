//! Router conformance suite: multi-backend routing must be invisible in the
//! detection result.
//!
//! The contract under test: for **every** fault schedule (hard errors,
//! timeouts, latency slow-tails, mixtures), with hedging on or off and any
//! backend count, a routed concurrent+cached detection produces a mask
//! **bit-identical** to a single-backend sequential oracle, and the token
//! ledgers reconcile exactly:
//!
//! ```text
//! sequential total  =  Σ per-backend useful tokens  +  cache savings
//! router spend      =  Σ per-backend useful tokens  +  hedge_waste
//! ```
//!
//! Breaker trips, failovers and fail-open executions may shuffle *who* serves
//! a request, but never lose one and never duplicate one — asserted through
//! request-count conservation on the same ledgers.

use zeroed_core::{RuntimeConfig, ZeroEd, ZeroEdConfig};
use zeroed_datagen::{generate, DatasetSpec, GenerateOptions};
use zeroed_llm::{FaultSchedule, LlmClient, SimLlm};
use zeroed_runtime::{RouterConfig, RouterLlm};

fn dataset() -> zeroed_datagen::GeneratedDataset {
    generate(
        DatasetSpec::Beers,
        &GenerateOptions {
            n_rows: 160,
            seed: 5,
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

/// The fault matrix: name → per-backend schedule generator (`i` is the
/// backend index, so replicas fault on statistically disjoint request sets).
fn schedules() -> Vec<(&'static str, fn(usize) -> FaultSchedule)> {
    vec![
        ("healthy", |i| FaultSchedule::healthy(i as u64)),
        ("errors", |i| FaultSchedule {
            seed: 100 + i as u64,
            error_rate: 0.3,
            ..FaultSchedule::healthy(0)
        }),
        ("timeouts", |i| FaultSchedule {
            seed: 200 + i as u64,
            timeout_rate: 0.3,
            ..FaultSchedule::healthy(0)
        }),
        ("slow_tail", |i| {
            FaultSchedule::slow_tail(300 + i as u64, 0.5, 5.0)
        }),
        ("mixed", |i| FaultSchedule {
            seed: 400 + i as u64,
            error_rate: 0.15,
            timeout_rate: 0.15,
            slow_tail_rate: 0.25,
            slow_tail_ms: 5.0,
        }),
    ]
}

struct Oracle {
    ds: zeroed_datagen::GeneratedDataset,
    mask: zeroed_table::ErrorMask,
    requests: usize,
    tokens: usize,
}

fn sequential_oracle() -> Oracle {
    let ds = dataset();
    let llm = oracle_llm(&ds, 5);
    let outcome = ZeroEd::new(config().sequential_runtime()).detect(&ds.dirty, &llm);
    let usage = llm.ledger().usage();
    Oracle {
        mask: outcome.mask,
        requests: usage.requests,
        tokens: usage.total(),
        ds,
    }
}

/// Runs one matrix cell and asserts the full conformance contract.
fn check_cell(
    oracle: &Oracle,
    n_backends: usize,
    schedule: fn(usize) -> FaultSchedule,
    hedge: bool,
) {
    let sims: Vec<SimLlm> = (0..n_backends)
        .map(|i| oracle_llm(&oracle.ds, 5).with_faults(schedule(i)))
        .collect();
    let clients: Vec<&dyn LlmClient> = sims.iter().map(|s| s as &dyn LlmClient).collect();
    let mut router_config = RouterConfig::for_backends(n_backends);
    router_config.hedge.enabled = hedge;
    let detector = ZeroEd::new(config().with_runtime(RuntimeConfig {
        workers: 4,
        ..RuntimeConfig::default()
    }));
    let router = RouterLlm::new(clients, &router_config);
    let outcome = detector.detect_routed(&oracle.ds.dirty, &router);
    let label = format!("backends={n_backends} hedge={hedge}");

    // 1. Bit-identical mask under every fault schedule.
    assert_eq!(
        oracle.mask, outcome.mask,
        "{label}: routed mask diverged from the sequential oracle"
    );

    // 2. Ledger reconciliation: useful tokens + cache savings equal the
    //    sequential bill; the router's own ledger agrees with the backends.
    let backend_tokens: usize = sims.iter().map(|s| s.ledger().usage().total()).sum();
    let backend_requests: usize = sims.iter().map(|s| s.ledger().usage().requests).sum();
    assert_eq!(
        backend_tokens + outcome.stats.cache.tokens_saved() as usize,
        oracle.tokens,
        "{label}: per-backend tokens + cache savings must equal the sequential total"
    );
    assert_eq!(
        router.ledger().usage().total(),
        backend_tokens,
        "{label}: the router ledger must mirror the backend ledgers"
    );
    let stats = router.stats();
    assert_eq!(
        stats.tokens() as usize,
        backend_tokens,
        "{label}: router per-backend stats must mirror the backend ledgers"
    );
    // Hedge waste is charged iff hedges fired, and a cancelled loser can cost
    // at most what the executed calls did (one duplicate per hedged request).
    assert_eq!(
        stats.hedges_fired == 0,
        stats.hedge_waste_tokens == 0,
        "{label}: waste must be charged exactly when hedges fire"
    );
    assert!(
        stats.hedge_waste_tokens as usize <= backend_tokens,
        "{label}: total waste cannot exceed total useful cost"
    );

    // 3. Request conservation: breaker trips, failovers and hedges never lose
    //    or duplicate a request. Exactly one backend executes per routed
    //    request, and routed requests + cache hits cover the oracle exactly.
    assert_eq!(
        backend_requests + outcome.stats.cache.hits as usize,
        oracle.requests,
        "{label}: executed requests + cache hits must equal the sequential count"
    );
    assert_eq!(
        stats.backends.iter().map(|b| b.requests).sum::<u64>() as usize,
        backend_requests,
        "{label}: every routed request executes exactly one backend call"
    );
    if !hedge {
        assert_eq!(stats.hedges_fired, 0, "{label}: hedging disabled");
    }
}

#[test]
fn healthy_and_error_schedules_conform_with_hedging() {
    let oracle = sequential_oracle();
    for (name, schedule) in schedules().into_iter().take(2) {
        eprintln!("cell: {name} x3 hedged");
        check_cell(&oracle, 3, schedule, true);
    }
}

#[test]
fn timeout_and_slow_schedules_conform_with_hedging() {
    let oracle = sequential_oracle();
    for (name, schedule) in schedules().into_iter().skip(2).take(2) {
        eprintln!("cell: {name} x3 hedged");
        check_cell(&oracle, 3, schedule, true);
    }
}

#[test]
fn mixed_schedule_conforms_across_backend_counts() {
    let oracle = sequential_oracle();
    let (_, mixed) = schedules().pop().unwrap();
    for n in [1usize, 2, 3] {
        eprintln!("cell: mixed x{n} hedged");
        check_cell(&oracle, n, mixed, true);
    }
}

#[test]
fn mixed_schedule_conforms_without_hedging() {
    let oracle = sequential_oracle();
    let (_, mixed) = schedules().pop().unwrap();
    check_cell(&oracle, 3, mixed, false);
}

/// Hedging recovers a slow tail. One backend answers 15% of requests 250 ms
/// late; on its own, every such request reaches the caller late. Next to a
/// healthy replica, with hedging on, a late request is re-sent to the
/// replica after a p90 deadline. The caller-observed p99 must fall at least
/// 1.5x, with both masks equal to the sequential oracle's. The latencies
/// are real sleeps (latency scale 1.0), so both arms take a few seconds.
#[test]
fn hedging_recovers_a_slow_tail_p99() {
    let ds = generate(
        DatasetSpec::Hospital,
        &GenerateOptions {
            n_rows: 200,
            seed: 7,
            error_spec: None,
        },
    );
    let oracle = ZeroEd::new(config().sequential_runtime()).detect(&ds.dirty, &oracle_llm(&ds, 1));
    let slow = FaultSchedule::slow_tail(11, 0.15, 250.0);
    let p99 = |schedules: &[FaultSchedule], hedge: bool| {
        let sims: Vec<SimLlm> = schedules
            .iter()
            .map(|s| oracle_llm(&ds, 1).with_latency_scale(1.0).with_faults(*s))
            .collect();
        let clients: Vec<&dyn LlmClient> = sims.iter().map(|s| s as &dyn LlmClient).collect();
        let mut router_config = RouterConfig::for_backends(clients.len());
        router_config.hedge.enabled = hedge;
        // Only requests whose primary is the slow backend and that fall in
        // its tail (~7.5%) get hedged, so a p90 deadline tracks healthy
        // latency instead of chasing hedged samples.
        router_config.hedge.percentile = 0.90;
        router_config.hedge.min_deadline_ms = 25.0;
        router_config.latency_scale = 1.0;
        let router = RouterLlm::new(clients, &router_config);
        let outcome = ZeroEd::new(config()).detect_routed(&ds.dirty, &router);
        assert_eq!(
            oracle.mask, outcome.mask,
            "hedge={hedge}: routed mask diverged from the sequential oracle"
        );
        router.latency_quantile(0.99)
    };
    let single = p99(&[slow], false);
    let hedged = p99(&[slow, FaultSchedule::healthy(12)], true);
    assert!(
        hedged <= single,
        "hedged p99 {hedged:?} exceeds the single slow-tail backend's {single:?}"
    );
    assert!(
        single.as_secs_f64() >= 1.5 * hedged.as_secs_f64(),
        "hedging must cut the p99 at least 1.5x: single {single:?}, hedged {hedged:?}"
    );
}

/// Property-style sweep at the raw request level: many distinct fingerprints,
/// every schedule, hedge on and off — responses must match a fault-free
/// reference client call-for-call, with exact cost conservation.
#[test]
fn raw_request_sweep_is_response_identical_under_every_schedule() {
    let ds = dataset();
    let reference = oracle_llm(&ds, 5);
    let corr = vec![0usize];
    let n_requests = 120usize;
    let n_rows = ds.dirty.n_rows();
    let expected: Vec<Vec<bool>> = (0..n_requests)
        .map(|i| {
            let rows = [(i * 13) % n_rows, (i * 29 + 7) % n_rows];
            let ctx = zeroed_llm::AttributeContext {
                table: &ds.dirty,
                column: i % ds.dirty.n_cols(),
                correlated: &corr,
                sample_rows: &rows,
            };
            reference.label_batch(&ctx, None, &rows)
        })
        .collect();
    let reference_usage = reference.ledger().usage();

    for (name, schedule) in schedules() {
        for hedge in [false, true] {
            let sims: Vec<SimLlm> = (0..3)
                .map(|i| oracle_llm(&ds, 5).with_faults(schedule(i)))
                .collect();
            let clients: Vec<&dyn LlmClient> = sims.iter().map(|s| s as &dyn LlmClient).collect();
            let mut cfg = RouterConfig::for_backends(3);
            cfg.hedge.enabled = hedge;
            let router = RouterLlm::new(clients, &cfg);
            for (i, want) in expected.iter().enumerate() {
                let rows = [(i * 13) % n_rows, (i * 29 + 7) % n_rows];
                let ctx = zeroed_llm::AttributeContext {
                    table: &ds.dirty,
                    column: i % ds.dirty.n_cols(),
                    correlated: &corr,
                    sample_rows: &rows,
                };
                let got = router.label_batch(&ctx, None, &rows);
                assert_eq!(want, &got, "{name} hedge={hedge} request {i}");
            }
            let executed: usize = sims.iter().map(|s| s.ledger().usage().requests).sum();
            assert_eq!(executed, n_requests, "{name} hedge={hedge}: conservation");
            let tokens: usize = sims.iter().map(|s| s.ledger().usage().total()).sum();
            assert_eq!(
                tokens,
                reference_usage.total(),
                "{name} hedge={hedge}: token conservation"
            );
        }
    }
}
