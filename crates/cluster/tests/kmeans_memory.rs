//! Memory regression test: `kmeans_dedup` holds no second copy of the
//! distinct vectors it clusters.
//!
//! k-means++ seeding sweeps every new centre against all distinct vectors
//! with the vectors as lanes, so it needs them transposed into blocks of 32
//! lanes. It transposes them inside their own storage and back, so the
//! extra heap it holds is a 32-row block, per-vector distances and the
//! centroids, never a transposed copy. A counting global allocator records
//! the peak of live bytes allocated while `kmeans_dedup` runs over an
//! all-distinct input shaped like a movies attribute at the sampling stage
//! (7,390 vectors of 108 dimensions, k = 370, the stage's 12-iteration
//! Lloyd budget), where the vectors are as large as the attribute's matrix,
//! and asserts it stays under half the vectors' bytes. Debug builds, whose
//! every Lloyd pass also runs the full sweep it checks, take a fifth of the
//! shape at the same k per vector. The test sits in a binary of its own, so
//! no other test allocates while it measures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicIsize, Ordering};
use zeroed_cluster::{kmeans_dedup, DedupPoints, KMeansConfig};

/// Passes every request to the system allocator and, while armed, keeps
/// the net bytes allocated since arming and their peak.
struct LiveBytes;

static ARMED: AtomicBool = AtomicBool::new(false);
static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

fn grow(delta: isize) {
    if ARMED.load(Ordering::Relaxed) {
        let live = LIVE.fetch_add(delta, Ordering::Relaxed) + delta;
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; `grow` only updates atomics and never allocates.
unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size() as isize);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grow(layout.size() as isize);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        grow(new_size as isize - layout.size() as isize);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        grow(-(layout.size() as isize));
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: LiveBytes = LiveBytes;

/// Distinct vectors, their width and k: movies' sampling shape, or a fifth
/// of it in debug builds.
const SHAPE: (usize, usize, usize) = if cfg!(debug_assertions) {
    (1_478, 108, 74)
} else {
    (7_390, 108, 370)
};

/// `n` all-distinct rows of `dim` values in [-4, 4), from SplitMix64.
fn distinct_vectors(n: usize, dim: usize) -> DedupPoints {
    let mut z = 0x9e37_79b9_7f4a_7c15u64;
    DedupPoints::build_chunked(n, dim, 256, |_, out| {
        for x in out {
            z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut v = z;
            v = (v ^ (v >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            v = (v ^ (v >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            v ^= v >> 31;
            *x = (v >> 40) as f32 / (1u64 << 24) as f32 * 8.0 - 4.0;
        }
    })
}

fn vector_bits(dd: &DedupPoints) -> Vec<u32> {
    (0..dd.n_unique())
        .flat_map(|u| dd.unique_row(u).iter().map(|x| x.to_bits()))
        .collect()
}

#[test]
fn kmeans_dedup_holds_no_second_copy_of_the_distinct_vectors() {
    let (n, dim, k) = SHAPE;
    let mut dd = distinct_vectors(n, dim);
    assert_eq!(dd.n_unique(), n, "the input must be all-distinct");
    let before = vector_bits(&dd);
    let vector_bytes = (n * dim * std::mem::size_of::<f32>()) as isize;
    let config = KMeansConfig {
        max_iters: 12,
        tolerance: 1e-3,
    };

    LIVE.store(0, Ordering::SeqCst);
    PEAK.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    let clustering = kmeans_dedup(&mut dd, k, &config, 7);
    ARMED.store(false, Ordering::SeqCst);
    let peak = PEAK.load(Ordering::SeqCst);

    assert_eq!(clustering.k, k);
    assert_eq!(clustering.assignments.len(), n);
    assert!(vector_bits(&dd) == before, "the distinct vectors changed");
    assert!(
        peak < vector_bytes / 2,
        "kmeans_dedup held {peak} bytes of extra heap at its peak over {n} distinct \
         vectors of {dim} values ({vector_bytes} bytes), k = {k}"
    );
}
