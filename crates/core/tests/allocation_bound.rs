//! Memory regression test: `ZeroEd::detect` never allocates an attribute's
//! whole unified feature matrix.
//!
//! Sampling and the detector read each attribute's *distinct* unified
//! vectors, streamed from the fitted feature caches a chunk of rows at a
//! time, so no buffer of `n_rows × unified width` values exists at any
//! point of a detection. A counting global allocator records the largest
//! single request (allocation or reallocation) made while `detect` runs, on
//! a 2,000-row table tiled from 50 distinct rows: there every attribute has
//! at most 50 distinct vectors, so the only way to reach the matrix size is
//! to build the matrix. The test sits in a binary of its own, so no other
//! test allocates while it measures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use zeroed_core::{ZeroEd, ZeroEdConfig};
use zeroed_datagen::{generate, DatasetSpec, GenerateOptions};
use zeroed_features::{FeatureBuilder, FeatureConfig};
use zeroed_llm::SimLlm;
use zeroed_table::{ErrorMask, Table};

/// Passes every request to the system allocator and, while armed, keeps
/// the largest requested size.
struct LargestRequest;

static ARMED: AtomicBool = AtomicBool::new(false);
static LARGEST: AtomicUsize = AtomicUsize::new(0);

fn note(size: usize) {
    if ARMED.load(Ordering::Relaxed) {
        LARGEST.fetch_max(size, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; `note` only updates two atomics and never allocates.
unsafe impl GlobalAlloc for LargestRequest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: LargestRequest = LargestRequest;

const DISTINCT_ROWS: usize = 50;
const N_ROWS: usize = 2_000;

/// `ds`'s rows (and error mask) repeated in order until the table has
/// `N_ROWS` rows.
fn tiled(ds: &zeroed_datagen::GeneratedDataset) -> (Table, ErrorMask) {
    let base = &ds.dirty;
    let rows: Vec<Vec<String>> = (0..N_ROWS)
        .map(|i| base.row(i % base.n_rows()).unwrap().to_vec())
        .collect();
    let table = Table::new("tiled", base.columns().to_vec(), rows).unwrap();
    let mut mask = ErrorMask::for_table(&table);
    for i in 0..N_ROWS {
        for j in 0..table.n_cols() {
            mask.set(i, j, ds.mask.get(i % base.n_rows(), j));
        }
    }
    (table, mask)
}

/// Runs `detect` under `config` and returns the largest single request it
/// made, with the byte size of the narrowest attribute matrix it must stay
/// under.
fn largest_request(config: ZeroEdConfig, table: &Table, mask: &ErrorMask) -> (usize, usize) {
    // The narrowest unified width any attribute can have: the same feature
    // configuration fitted without criteria blocks, which only widen it.
    let builder = FeatureBuilder::new(FeatureConfig {
        embed_dim: config.embed_dim,
        top_k_corr: config.effective_top_k(),
        ..FeatureConfig::default()
    });
    let fitted = builder.fit(table, &[]);
    let narrowest = (0..table.n_cols())
        .map(|j| fitted.unified_dim(j))
        .min()
        .unwrap();
    let matrix_bytes = N_ROWS * narrowest * std::mem::size_of::<f32>();

    let detector = ZeroEd::new(config);
    let llm = SimLlm::default_model(7).with_oracle(mask.clone());
    LARGEST.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    let outcome = detector.detect(table, &llm);
    ARMED.store(false, Ordering::SeqCst);
    // The run did its work: every attribute was sampled, labelled and
    // predicted.
    assert_eq!(outcome.mask.n_rows(), N_ROWS);
    assert!(outcome.stats.llm_labeled_cells > 0);
    assert!(outcome.mask.score_against(mask).unwrap().f1 > 0.0);
    (LARGEST.load(Ordering::SeqCst), matrix_bytes)
}

#[test]
fn detect_allocates_no_attribute_matrix() {
    let ds = generate(
        DatasetSpec::Flights,
        &GenerateOptions {
            n_rows: DISTINCT_ROWS,
            seed: 7,
            error_spec: None,
        },
    );
    let (table, mask) = tiled(&ds);
    // The paper's configuration clusters every attribute exactly over its
    // distinct vectors; a cluster-row cap below the distinct count sends
    // sampling down the strided-subsample path instead (on the smaller
    // `fast` detector, which keeps the debug build's run short).
    let subsampled = ZeroEdConfig {
        max_cluster_rows: DISTINCT_ROWS / 2,
        ..ZeroEdConfig::fast()
    };
    for (path, config) in [
        ("dedup", ZeroEdConfig::default()),
        ("subsample", subsampled),
    ] {
        let (largest, matrix_bytes) = largest_request(config, &table, &mask);
        assert!(
            largest < matrix_bytes,
            "{path} path: detect made a {largest}-byte allocation, while one attribute's \
             unified matrix ({N_ROWS} rows x its width x 4 bytes) takes at least \
             {matrix_bytes} bytes"
        );
    }
}
