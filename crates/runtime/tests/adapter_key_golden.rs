//! Golden keys of the caching adapter itself.
//!
//! `request_key_golden.rs` pins [`zeroed_runtime::RequestKeyBuilder`]
//! against a hand-written copy of the adapter's field order. Nothing there
//! pins the order [`CachedLlm`] really folds each request's fields in (such
//! as Augment's count before its prompt, or Refine's missing row list). A
//! cold run and a warm run of the same build cannot see such a drift, yet it
//! orphans every persisted store.
//!
//! Each test here preloads a [`ResponseCache`] with a sentinel response
//! under the key value the adapter derived when these tests were written,
//! then asserts that the typed call through [`CachedLlm::for_table`] is a
//! store hit returning that sentinel. A changed key misses, runs the
//! simulator and fails the sentinel check.

use std::sync::Arc;
use zeroed_criteria::{Check, CriteriaSet, Criterion};
use zeroed_llm::{
    AttributeContext, DistributionAnalysis, ErrorTypeGuide, Guideline, LlmClient, Response, SimLlm,
};
use zeroed_runtime::{CachedLlm, RequestKey, ResponseCache, ResponseOrigin, StoredResponse};
use zeroed_table::{ErrorMask, ErrorType, Table};

const CRITERIA_KEY: u128 = 0x2939f8c3ad9f1ea9e382784aea2ec497;
const ANALYSIS_KEY: u128 = 0x5ed1387302fa5ee40b8ddc62e524c4f0;
const GUIDELINE_KEY: u128 = 0xd33eb408b7248cc17ccd575a512a4e3c;
const LABELS_KEY: u128 = 0x5fdd6de0f683c79388d6051899abbac1;
const REFINE_KEY: u128 = 0xf72ae4f1a26cd57558a3b4abc16d69be;
const AUGMENT_KEY: u128 = 0x5cccfaf90a32332693dc5de7b3db08ae;
const TUPLE_KEY: u128 = 0x785bdfeb11fef4c222346be341e0f022;

const CORRELATED: &[usize] = &[0];
const SAMPLES: &[usize] = &[0, 2, 4];

fn table() -> Table {
    let rows = (0..6)
        .map(|i| {
            vec![
                ["Boston", "Denver", "Phoenix"][i % 3].to_string(),
                ["MA", "CO", "AZ", "", "CO", "XX"][i].to_string(),
                format!("{:05}", 2_000 + 111 * i),
            ]
        })
        .collect();
    Table::new(
        "golden",
        vec!["city".into(), "state".into(), "zip".into()],
        rows,
    )
    .unwrap()
}

/// A simulator with an oracle, so the pinned keys also cover the salt's
/// oracle bits and error types.
fn sim(table: &Table) -> SimLlm {
    let mut mask = ErrorMask::for_table(table);
    mask.set(3, 1, true);
    mask.set(5, 1, true);
    SimLlm::default_model(5)
        .with_oracle(mask)
        .with_error_types([((3, 1), ErrorType::MissingValue), ((5, 1), ErrorType::Typo)])
}

fn ctx(table: &Table) -> AttributeContext<'_> {
    AttributeContext {
        table,
        column: 1,
        correlated: CORRELATED,
        sample_rows: SAMPLES,
    }
}

fn analysis() -> DistributionAnalysis {
    DistributionAnalysis {
        column: "state".into(),
        total_records: 6,
        distinct_values: 5,
        missing_ratio: 0.25,
        frequent_values: vec![("CO".into(), 2)],
        rare_values: vec!["XX".into()],
        frequent_patterns: vec![("AA".into(), 5)],
        numeric_summary: None,
        findings: vec!["two-letter codes".into()],
    }
}

fn guideline(column: &str) -> Guideline {
    Guideline {
        column: column.into(),
        explanation: "US state code".into(),
        error_types: vec![ErrorTypeGuide {
            error_type: ErrorType::MissingValue,
            examples: vec![String::new()],
            causes: "blank field".into(),
            detection: "value is empty".into(),
        }],
    }
}

fn criteria(column: usize, name: &str) -> CriteriaSet {
    let mut set = CriteriaSet::new(column);
    set.criteria.push(Criterion::new(
        format!("is_clean_{name}"),
        "values are present",
        Check::NotMissing,
    ));
    set
}

/// Runs `call` through an adapter whose cache holds only `sentinel` under
/// `key`, and asserts the call was answered from that entry.
fn replays<T>(key: u128, sentinel: Response, call: impl FnOnce(&CachedLlm<'_>) -> T) -> T {
    let table = table();
    let sim = sim(&table);
    let cache = Arc::new(ResponseCache::new());
    let stored = StoredResponse {
        value: sentinel,
        input_tokens: 11,
        output_tokens: 13,
        origin: ResponseOrigin::Persisted,
    };
    assert!(cache.preload(RequestKey::from_u128(key), stored));
    let llm = CachedLlm::for_table(&sim, cache, &table);
    let out = call(&llm);
    let stats = llm.stats();
    assert_eq!(
        (stats.hits, stats.store_hits, stats.misses),
        (1, 1, 0),
        "the adapter derived a different key than {key:#034x}"
    );
    assert_eq!(sim.ledger().usage().requests, 0);
    out
}

#[test]
fn criteria_key_is_pinned() {
    let got = replays(
        CRITERIA_KEY,
        Response::Criteria(criteria(9, "sentinel")),
        |llm| llm.generate_criteria(&ctx(&table())),
    );
    assert_eq!(got, criteria(9, "sentinel"));
}

#[test]
fn analysis_key_is_pinned() {
    let mut sentinel = analysis();
    sentinel.column = "sentinel".into();
    let got = replays(ANALYSIS_KEY, Response::Analysis(sentinel), |llm| {
        llm.analyze_distribution(&ctx(&table()))
    });
    assert_eq!(got.column, "sentinel");
}

#[test]
fn guideline_key_is_pinned() {
    let got = replays(
        GUIDELINE_KEY,
        Response::Guideline(guideline("sentinel")),
        |llm| llm.generate_guideline(&ctx(&table()), &analysis()),
    );
    assert_eq!(got.column, "sentinel");
}

#[test]
fn labels_key_is_pinned() {
    let sentinel = vec![true, false, true, true, false];
    let got = replays(LABELS_KEY, Response::Flags(sentinel.clone()), |llm| {
        llm.label_batch(&ctx(&table()), Some(&guideline("state")), &[1, 3])
    });
    assert_eq!(got, sentinel);
}

#[test]
fn refine_key_is_pinned() {
    let got = replays(
        REFINE_KEY,
        Response::Criteria(criteria(9, "sentinel")),
        |llm| {
            llm.refine_criteria(
                &ctx(&table()),
                &["MA".into(), "CO".into()],
                &["".into()],
                &criteria(1, "state_present"),
            )
        },
    );
    assert_eq!(got, criteria(9, "sentinel"));
}

#[test]
fn augment_key_is_pinned() {
    let sentinel = vec!["sentinel".to_string()];
    let got = replays(AUGMENT_KEY, Response::Values(sentinel.clone()), |llm| {
        llm.augment_errors(&ctx(&table()), &["MA".into(), "CO".into()], 3)
    });
    assert_eq!(got, sentinel);
}

#[test]
fn tuple_key_is_pinned() {
    let sentinel = vec![false, false, true, true, true, true, true];
    let got = replays(TUPLE_KEY, Response::Flags(sentinel.clone()), |llm| {
        llm.detect_tuple(&table(), 2)
    });
    assert_eq!(got, sentinel);
}
