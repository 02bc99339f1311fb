//! Golden [`RequestKey`] values.
//!
//! The ROADMAP's next runtime item is cross-process response-cache
//! persistence: completed entries serialised *keyed by `RequestKey`*, so a
//! later process can replay them. That plan only works if key derivation is
//! stable across builds — any accidental reordering of hash inputs, change of
//! seeds, or tweak to the length-prefixing rules silently invalidates every
//! persisted entry. These tests pin exact 128-bit key values for fixed inputs
//! (the persistence contract) and prove that every key component —
//! kind, model, column, rows, prompt, salt — independently perturbs the key.
//!
//! If a test here fails because key derivation changed *intentionally*, bump
//! `zeroed_store::KEY_SCHEMA_VERSION` alongside the new golden values — the
//! persisted store stamps that version into every segment header and skips
//! segments written under a different scheme, so entries keyed by the old
//! derivation are never consulted by a process hashing with the new one.

use zeroed_runtime::key::table_fingerprint;
use zeroed_runtime::{RequestKey, RequestKind};

/// Builds a key the way [`zeroed_runtime::CachedLlm`] does for a
/// column-scoped request: kind + model, table fingerprint, column, rows,
/// prompt, salt.
fn column_key(
    kind: RequestKind,
    model: &str,
    table_fp: u64,
    column: Option<usize>,
    rows: &[usize],
    prompt: &str,
    salt: u64,
) -> RequestKey {
    let mut b = RequestKey::builder(kind, model);
    b.word(table_fp);
    b.column(column).rows(rows).text(prompt).word(salt);
    b.finish()
}

#[test]
fn golden_128bit_keys_for_fixed_inputs() {
    // Pinned values — the cross-process cache-persistence contract. Do not
    // update without bumping the persisted-cache format version.
    let label = column_key(
        RequestKind::LabelBatch,
        "Qwen2.5-72b",
        0x00c0_ffee,
        Some(3),
        &[0, 1, 2, 41],
        "label these cells",
        7,
    );
    assert_eq!(label.to_u128(), 0xc4020b2ae9c1fd7d505b58fa7c24e6d0);

    let criteria = column_key(
        RequestKind::Criteria,
        "Llama3.1-8b",
        0xdead_beef,
        Some(0),
        &[],
        "derive criteria",
        0,
    );
    assert_eq!(criteria.to_u128(), 0xa429205deb7b28322399a3466249cdb6);

    let tuple = column_key(
        RequestKind::Tuple,
        "GPT-4o-mini",
        1,
        None,
        &[17],
        "tuple check",
        99,
    );
    assert_eq!(tuple.to_u128(), 0x015f074411f56ea0f44ec08f1718d8e7);

    // Degenerate key: no inputs beyond the kind/model prefix.
    let empty = RequestKey::builder(RequestKind::Analysis, "").finish();
    assert_eq!(empty.to_u128(), 0xd62cc11a4a0be0e7121e3e94b64937e0);
}

#[test]
fn store_key_schema_version_is_pinned_with_these_golden_keys() {
    // The persistence format versions and the golden keys above are one
    // contract: segments stamped `KEY_SCHEMA_VERSION = 1` hold entries keyed
    // by exactly the derivation these tests freeze. Changing key derivation
    // without bumping the schema version (or vice versa) silently corrupts
    // warm starts, so the pairing is asserted here.
    assert_eq!(zeroed_store::KEY_SCHEMA_VERSION, 1);
    // FORMAT_VERSION 2 added the per-record written-at epoch (a timestamp
    // `zeroed-store-tool` prints) — a byte-layout change only; key
    // derivation and the key schema are untouched, and v1 segments keyed
    // under schema 1 remain readable.
    assert_eq!(zeroed_store::FORMAT_VERSION, 2);
    assert_eq!(zeroed_store::MIN_READ_FORMAT_VERSION, 1);
    // Round-trip through the store's index key: a warm-starting process
    // rebuilds RequestKeys from persisted u128s.
    let key = RequestKey::builder(RequestKind::LabelBatch, "m").finish();
    assert_eq!(RequestKey::from_u128(key.to_u128()), key);
}

#[test]
fn golden_table_fingerprint() {
    let t = zeroed_table::Table::new(
        "golden",
        vec!["a".into(), "b".into()],
        vec![vec!["x".into(), "y".into()], vec!["1".into(), "2".into()]],
    )
    .unwrap();
    assert_eq!(table_fingerprint(&t), 0xf95c7eee0114b808);
}

#[test]
fn every_component_perturbs_the_key() {
    let base = || {
        column_key(
            RequestKind::LabelBatch,
            "Qwen2.5-72b",
            42,
            Some(3),
            &[0, 1, 2],
            "prompt",
            7,
        )
    };
    // Reproducibility first: the same inputs always produce the same key.
    assert_eq!(base(), base());

    let perturbations = [
        (
            "kind",
            column_key(
                RequestKind::Refine,
                "Qwen2.5-72b",
                42,
                Some(3),
                &[0, 1, 2],
                "prompt",
                7,
            ),
        ),
        (
            "model",
            column_key(
                RequestKind::LabelBatch,
                "Qwen2.5-72B",
                42,
                Some(3),
                &[0, 1, 2],
                "prompt",
                7,
            ),
        ),
        (
            "table fingerprint",
            column_key(
                RequestKind::LabelBatch,
                "Qwen2.5-72b",
                43,
                Some(3),
                &[0, 1, 2],
                "prompt",
                7,
            ),
        ),
        (
            "column index",
            column_key(
                RequestKind::LabelBatch,
                "Qwen2.5-72b",
                42,
                Some(4),
                &[0, 1, 2],
                "prompt",
                7,
            ),
        ),
        (
            "column presence",
            column_key(
                RequestKind::LabelBatch,
                "Qwen2.5-72b",
                42,
                None,
                &[0, 1, 2],
                "prompt",
                7,
            ),
        ),
        (
            "row order",
            column_key(
                RequestKind::LabelBatch,
                "Qwen2.5-72b",
                42,
                Some(3),
                &[0, 2, 1],
                "prompt",
                7,
            ),
        ),
        (
            "row set",
            column_key(
                RequestKind::LabelBatch,
                "Qwen2.5-72b",
                42,
                Some(3),
                &[0, 1],
                "prompt",
                7,
            ),
        ),
        (
            "prompt",
            column_key(
                RequestKind::LabelBatch,
                "Qwen2.5-72b",
                42,
                Some(3),
                &[0, 1, 2],
                "prompt!",
                7,
            ),
        ),
        (
            "salt",
            column_key(
                RequestKind::LabelBatch,
                "Qwen2.5-72b",
                42,
                Some(3),
                &[0, 1, 2],
                "prompt",
                8,
            ),
        ),
    ];
    let reference = base();
    for (what, perturbed) in &perturbations {
        assert_ne!(
            reference, *perturbed,
            "changing the {what} must change the key"
        );
    }
    // And all perturbations are pairwise distinct (no two collapse).
    for i in 0..perturbations.len() {
        for j in i + 1..perturbations.len() {
            assert_ne!(
                perturbations[i].1, perturbations[j].1,
                "{} vs {}",
                perturbations[i].0, perturbations[j].0
            );
        }
    }
}

#[test]
fn every_request_kind_separates_keys() {
    let kinds = [
        RequestKind::Criteria,
        RequestKind::Analysis,
        RequestKind::Guideline,
        RequestKind::LabelBatch,
        RequestKind::Refine,
        RequestKind::Augment,
        RequestKind::Tuple,
    ];
    let keys: Vec<RequestKey> = kinds
        .iter()
        .map(|&k| column_key(k, "m", 1, Some(0), &[0], "same prompt", 0))
        .collect();
    for i in 0..keys.len() {
        for j in i + 1..keys.len() {
            assert_ne!(keys[i], keys[j], "{:?} vs {:?}", kinds[i], kinds[j]);
        }
    }
}
