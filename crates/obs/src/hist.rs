//! Latency histograms with exact quantile extraction.
//!
//! A [`Histogram`] keeps lock-free lifetime counters (count, total, max) and
//! a bounded sliding window of raw samples: the most recent `window` samples
//! under a short mutex. Quantiles are computed over a sorted copy of this
//! window with the nearest-rank rule `idx = ceil(q·n) − 1` (100 samples of
//! 1..=100ms: q0.5 → 50ms, q0.99 → 99ms, q1.0 → 100ms; empty → 0).
//! [`Histogram::snapshot`] reads the lifetime counters and the window's
//! p50/p95/p99 at once.

use crate::profile::{Quantiles, StageProfile};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// A thread-safe latency histogram. Cloneable handles are not provided —
/// share it behind an `Arc` or borrow it; recording takes `&self`.
#[derive(Debug)]
pub struct Histogram {
    count: AtomicU64,
    total_nanos: AtomicU64,
    max_nanos: AtomicU64,
    window: Mutex<Ring>,
}

#[derive(Debug)]
struct Ring {
    cap: usize,
    buf: Vec<u64>,
    next: usize,
}

impl Ring {
    fn push(&mut self, nanos: u64) {
        if self.buf.len() < self.cap {
            self.buf.push(nanos);
        } else {
            self.buf[self.next] = nanos;
        }
        self.next = (self.next + 1) % self.cap;
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Bound on the raw-sample window: quantiles describe the most recent
    /// 4096 samples.
    const WINDOW: usize = 4096;

    /// A histogram whose quantiles describe the most recent 4096 samples.
    pub fn new() -> Self {
        Self::with_window(Self::WINDOW)
    }

    /// A histogram whose quantiles are computed over the last `window`
    /// samples (the tests' small windows). `window` is clamped to at least 1.
    fn with_window(window: usize) -> Self {
        Self {
            count: AtomicU64::new(0),
            total_nanos: AtomicU64::new(0),
            max_nanos: AtomicU64::new(0),
            window: Mutex::new(Ring {
                cap: window.max(1),
                buf: Vec::new(),
                next: 0,
            }),
        }
    }

    /// Record one duration.
    pub fn record(&self, d: Duration) {
        self.record_nanos(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Record one duration given in nanoseconds.
    pub fn record_nanos(&self, nanos: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total_nanos.fetch_add(nanos, Ordering::Relaxed);
        self.max_nanos.fetch_max(nanos, Ordering::Relaxed);
        self.window
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(nanos);
    }

    /// The current window's samples in ascending order.
    fn sorted_window(&self) -> Vec<u64> {
        let mut sorted = self
            .window
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .buf
            .clone();
        sorted.sort_unstable();
        sorted
    }

    /// Exact nearest-rank quantile over the current window:
    /// `sorted[ceil(q·n) − 1]`, clamped into range; [`Duration::ZERO`] when
    /// no samples have been recorded.
    pub fn quantile(&self, q: f64) -> Duration {
        Duration::from_nanos(nearest_rank(&self.sorted_window(), q))
    }

    /// Freeze the histogram into a plain value (count/total/max are lifetime;
    /// quantiles are over the current window). `window_dropped` records how
    /// many lifetime samples the bounded window has already evicted — when
    /// non-zero, the quantiles describe only the most recent tail of the
    /// stream, and the stage-profile table flags them as truncated.
    pub fn snapshot(&self) -> HistogramSnapshot {
        // Copy the window before reading the lifetime count so a concurrent
        // `record_nanos` (count bumped, push pending) cannot make the
        // eviction estimate go negative.
        let sorted = self.sorted_window();
        let count = self.count.load(Ordering::Relaxed);
        HistogramSnapshot {
            count,
            total_nanos: self.total_nanos.load(Ordering::Relaxed),
            max_nanos: self.max_nanos.load(Ordering::Relaxed),
            p50_nanos: nearest_rank(&sorted, 0.50),
            p95_nanos: nearest_rank(&sorted, 0.95),
            p99_nanos: nearest_rank(&sorted, 0.99),
            window_dropped: count.saturating_sub(sorted.len() as u64),
        }
    }
}

/// The nearest-rank `q`-quantile of ascending `sorted`: `sorted[ceil(q·n) −
/// 1]`, clamped into range; 0 when empty.
fn nearest_rank(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let n = sorted.len();
    let rank = (q * n as f64).ceil() as usize;
    sorted[rank.clamp(1, n) - 1]
}

/// A frozen [`Histogram`]: lifetime count/total/max plus window quantiles.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Lifetime number of recorded samples.
    pub count: u64,
    /// Lifetime sum of recorded durations, in nanoseconds.
    pub total_nanos: u64,
    /// Largest recorded duration, in nanoseconds.
    pub max_nanos: u64,
    /// Median over the sample window.
    pub p50_nanos: u64,
    /// 95th percentile over the sample window.
    pub p95_nanos: u64,
    /// 99th percentile over the sample window.
    pub p99_nanos: u64,
    /// Lifetime samples the bounded window had already evicted when the
    /// snapshot was taken (`count − window len`). When non-zero, the
    /// quantiles were computed from a truncated window — only the most
    /// recent samples — and the stage-profile table flags them accordingly.
    pub window_dropped: u64,
}

impl HistogramSnapshot {
    /// Render the snapshot as a **parallel** leaf [`StageProfile`] node so
    /// per-thread distributions (scheduler task execute time, cache lock
    /// holds, store fsyncs) can be grafted into a stage tree. The node is
    /// flagged parallel because its total is wall time summed across
    /// threads, not wall time on the coordinating thread.
    pub fn to_stage(&self, name: &str) -> StageProfile {
        StageProfile {
            name: name.to_string(),
            wall_nanos: self.total_nanos,
            count: self.count,
            parallel: true,
            quantiles: if self.count > 0 {
                Some(Quantiles {
                    p50_nanos: self.p50_nanos,
                    p95_nanos: self.p95_nanos,
                    p99_nanos: self.p99_nanos,
                    max_nanos: self.max_nanos,
                    window_dropped: self.window_dropped,
                })
            } else {
                None
            },
            children: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_is_the_nearest_rank_sample() {
        let h = Histogram::new();
        for ms in 1..=100u64 {
            h.record(Duration::from_millis(ms));
        }
        assert_eq!(h.quantile(0.5), Duration::from_millis(50));
        assert_eq!(h.quantile(0.95), Duration::from_millis(95));
        assert_eq!(h.quantile(0.99), Duration::from_millis(99));
        assert_eq!(h.quantile(1.0), Duration::from_millis(100));
        assert_eq!(h.quantile(0.0), Duration::from_millis(1));
    }

    #[test]
    fn empty_histogram_is_zero() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.99), Duration::ZERO);
        assert_eq!(h.snapshot(), HistogramSnapshot::default());
    }

    #[test]
    fn window_slides() {
        let h = Histogram::with_window(4);
        for ms in [1u64, 2, 3, 4, 100, 200, 300, 400] {
            h.record(Duration::from_millis(ms));
        }
        // Lifetime count keeps everything; quantiles only see the last 4.
        assert_eq!(h.snapshot().count, 8);
        assert_eq!(h.quantile(0.5), Duration::from_millis(200));
        assert_eq!(h.quantile(1.0), Duration::from_millis(400));
        assert_eq!(h.snapshot().max_nanos, 400_000_000);
    }

    #[test]
    fn snapshot_reports_window_truncation_exactly() {
        let h = Histogram::with_window(4);
        for ms in 1..=10u64 {
            h.record(Duration::from_millis(ms));
        }
        let s = h.snapshot();
        assert_eq!(s.count, 10);
        assert_eq!(s.window_dropped, 6, "10 samples, window of 4");
        // Quantiles describe the surviving tail {7,8,9,10} only.
        assert_eq!(s.p50_nanos, 8_000_000);
        // An un-truncated histogram reports zero.
        let full = Histogram::new();
        full.record(Duration::from_millis(1));
        assert_eq!(full.snapshot().window_dropped, 0);
        // The truncation flag flows into the grafted stage node.
        let stage = h.snapshot().to_stage("execute");
        assert_eq!(stage.quantiles.unwrap().window_dropped, 6);
    }

    #[test]
    fn snapshot_to_stage_is_parallel_leaf() {
        let h = Histogram::new();
        h.record(Duration::from_millis(10));
        let stage = h.snapshot().to_stage("execute");
        assert!(stage.parallel);
        assert_eq!(stage.count, 1);
        assert!(stage.children.is_empty());
        assert_eq!(stage.quantiles.unwrap().p50_nanos, 10_000_000);
    }
}
