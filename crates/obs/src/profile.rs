//! Hierarchical stage spans and the frozen [`StageProfile`] tree.
//!
//! A [`Profiler`] owns the root of a tree of named nodes. Layers obtain
//! [`Span`] handles (cheap `Arc` clones), create named children with
//! get-or-create semantics — repeated invocations of the same stage
//! accumulate into one node — and record monotonic wall-time into them with
//! [`Span::record`], [`Span::time`] or a drop-guard [`SpanTimer`].
//!
//! Two kinds of node exist:
//!
//! * **sequential** ([`Span::child`]) — timed on the coordinating thread;
//!   the wall-times of a parent's sequential children are disjoint intervals
//!   inside the parent's own interval, so they sum to ≤ the parent's wall
//!   time. This is the accounting invariant the tier-1 bench asserts.
//! * **parallel** ([`Span::child_parallel`], [`Span::child_dist`]) — recorded
//!   from worker threads; the total is task wall time summed across workers
//!   and may exceed any wall clock. It is not CPU time: a task that waits on
//!   the model mostly sleeps, so an LLM stage at width 8 can show about 8×
//!   its own wall here. Parallel nodes are excluded from the ≤-parent
//!   invariant and from [`StageProfile::coverage`].

use crate::hist::Histogram;
use crate::json::{escape_json, fmt_ms};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

#[derive(Debug)]
struct Node {
    name: String,
    parallel: bool,
    total_nanos: AtomicU64,
    count: AtomicU64,
    hist: Option<Histogram>,
    children: Mutex<Vec<Arc<Node>>>,
}

impl Node {
    fn new(name: &str, parallel: bool, with_hist: bool) -> Arc<Self> {
        Arc::new(Node {
            name: name.to_string(),
            parallel,
            total_nanos: AtomicU64::new(0),
            count: AtomicU64::new(0),
            hist: if with_hist {
                Some(Histogram::new())
            } else {
                None
            },
            children: Mutex::new(Vec::new()),
        })
    }

    /// Get-or-create a child by name. Insertion order is preserved so the
    /// snapshot lists stages in first-recorded order. The kind flags of an
    /// existing node win: the first creator fixes them.
    fn child(&self, name: &str, parallel: bool, with_hist: bool) -> Arc<Node> {
        let mut children = self.children.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(c) = children.iter().find(|c| c.name == name) {
            return Arc::clone(c);
        }
        let node = Node::new(name, parallel, with_hist);
        children.push(Arc::clone(&node));
        node
    }

    fn snapshot(&self) -> StageProfile {
        let children = self.children.lock().unwrap_or_else(|e| e.into_inner());
        StageProfile {
            name: self.name.clone(),
            wall_nanos: self.total_nanos.load(Ordering::Relaxed),
            count: self.count.load(Ordering::Relaxed),
            parallel: self.parallel,
            quantiles: self.hist.as_ref().and_then(|h| {
                let s = h.snapshot();
                if s.count == 0 {
                    return None;
                }
                Some(Quantiles {
                    p50_nanos: s.p50_nanos,
                    p95_nanos: s.p95_nanos,
                    p99_nanos: s.p99_nanos,
                    max_nanos: s.max_nanos,
                    window_dropped: s.window_dropped,
                })
            }),
            children: children.iter().map(|c| c.snapshot()).collect(),
        }
    }
}

/// Owner of a stage-span tree. Cloning shares the same tree.
#[derive(Debug, Clone)]
pub struct Profiler {
    root: Arc<Node>,
}

impl Profiler {
    /// A profiler whose root span is `name`. The root is sequential; record
    /// the whole run's wall time into it via [`Profiler::root`].
    pub fn new(name: &str) -> Self {
        Profiler {
            root: Node::new(name, false, false),
        }
    }

    /// The root span.
    pub fn root(&self) -> Span {
        Span {
            node: Arc::clone(&self.root),
        }
    }

    /// Freeze the current tree into a plain [`StageProfile`] value.
    pub fn snapshot(&self) -> StageProfile {
        self.root.snapshot()
    }
}

/// A handle onto one node of the span tree. Cheap to clone; `Send + Sync`.
#[derive(Debug, Clone)]
pub struct Span {
    node: Arc<Node>,
}

impl Span {
    /// Get-or-create a **sequential** child: timed on the coordinating
    /// thread, participating in the ≤-parent accounting invariant.
    pub fn child(&self, name: &str) -> Span {
        Span {
            node: self.node.child(name, false, false),
        }
    }

    /// Get-or-create a **parallel** child: recorded from worker threads, its
    /// total is task wall time summed across workers (excluded from wall
    /// accounting).
    pub fn child_parallel(&self, name: &str) -> Span {
        Span {
            node: self.node.child(name, true, false),
        }
    }

    /// Get-or-create a parallel child that additionally keeps a latency
    /// [`Histogram`] so the snapshot carries p50/p95/p99 per invocation.
    pub fn child_dist(&self, name: &str) -> Span {
        Span {
            node: self.node.child(name, true, true),
        }
    }

    /// This span's name.
    pub fn name(&self) -> &str {
        &self.node.name
    }

    /// Record one invocation of `d` wall time.
    pub fn record(&self, d: Duration) {
        let nanos = d.as_nanos().min(u64::MAX as u128) as u64;
        self.node.total_nanos.fetch_add(nanos, Ordering::Relaxed);
        self.node.count.fetch_add(1, Ordering::Relaxed);
        if let Some(h) = &self.node.hist {
            h.record_nanos(nanos);
        }
    }

    /// Add pre-aggregated time: `total` across `count` invocations (used to
    /// graft externally measured totals, e.g. store shard counters).
    pub fn add(&self, total: Duration, count: u64) {
        let nanos = total.as_nanos().min(u64::MAX as u128) as u64;
        self.node.total_nanos.fetch_add(nanos, Ordering::Relaxed);
        self.node.count.fetch_add(count, Ordering::Relaxed);
    }

    /// Start a drop-guard timer; the elapsed time records when it drops.
    pub fn timer(&self) -> SpanTimer {
        SpanTimer {
            span: self.clone(),
            start: Instant::now(),
        }
    }

    /// Time a closure and record its duration.
    pub fn time<T>(&self, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.record(start.elapsed());
        out
    }
}

/// Drop guard returned by [`Span::timer`]; records the elapsed wall time
/// into its span when dropped (including during unwinding).
#[derive(Debug)]
pub struct SpanTimer {
    span: Span,
    start: Instant,
}

impl SpanTimer {
    /// Stop early and record now instead of at drop.
    pub fn stop(self) {
        drop(self);
    }
}

impl Drop for SpanTimer {
    fn drop(&mut self) {
        self.span.record(self.start.elapsed());
    }
}

/// Latency quantiles attached to a distribution node, in nanoseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Quantiles {
    /// Median.
    pub p50_nanos: u64,
    /// 95th percentile.
    pub p95_nanos: u64,
    /// 99th percentile.
    pub p99_nanos: u64,
    /// Maximum.
    pub max_nanos: u64,
    /// Samples the bounded quantile window had evicted when the snapshot was
    /// taken. Non-zero means p50/p95/p99 describe only the most recent tail
    /// of the distribution; the JSON and table renderers flag this.
    pub window_dropped: u64,
}

/// A frozen span tree: one node's accumulated wall time, invocation count
/// and children. Fields are public so downstream layers can graft extra
/// nodes (e.g. histogram snapshots from the runtime) before serializing.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StageProfile {
    /// Stage name (path segment; unique among its siblings).
    pub name: String,
    /// Accumulated time in nanoseconds. Wall time for sequential nodes,
    /// task wall time summed across workers for parallel nodes.
    pub wall_nanos: u64,
    /// Invocation count.
    pub count: u64,
    /// Whether this node was recorded from worker threads (see module docs).
    pub parallel: bool,
    /// p50/p95/p99/max when the node kept a distribution.
    pub quantiles: Option<Quantiles>,
    /// Child stages in first-recorded order.
    pub children: Vec<StageProfile>,
}

impl StageProfile {
    /// An empty sequential node (useful as a synthesized attachment point).
    pub fn new(name: &str) -> Self {
        StageProfile {
            name: name.to_string(),
            ..Default::default()
        }
    }

    /// A childless sequential node with a fixed wall time and count.
    pub fn leaf(name: &str, wall: Duration, count: u64) -> Self {
        StageProfile {
            name: name.to_string(),
            wall_nanos: wall.as_nanos().min(u64::MAX as u128) as u64,
            count,
            ..Default::default()
        }
    }

    /// Accumulated time as a [`Duration`].
    pub fn wall(&self) -> Duration {
        Duration::from_nanos(self.wall_nanos)
    }

    /// Direct child by name.
    pub fn child(&self, name: &str) -> Option<&StageProfile> {
        self.children.iter().find(|c| c.name == name)
    }

    /// Descendant by `/`-separated path relative to this node, e.g.
    /// `"features/criteria_llm"`.
    pub fn find(&self, path: &str) -> Option<&StageProfile> {
        let mut node = self;
        for seg in path.split('/').filter(|s| !s.is_empty()) {
            node = node.child(seg)?;
        }
        Some(node)
    }

    /// Sum of the wall times of this node's **sequential** direct children —
    /// the portion of this node's wall the tree accounts for.
    pub fn sequential_child_nanos(&self) -> u64 {
        self.children
            .iter()
            .filter(|c| !c.parallel)
            .map(|c| c.wall_nanos)
            .sum()
    }

    /// Fraction of this node's wall time covered by its sequential children
    /// (1.0 when it has none, or when its own wall is zero). The tier-1
    /// bench asserts this is ≥ 0.9 at the root: no untracked time silently
    /// appearing between stages.
    pub fn coverage(&self) -> f64 {
        if self.children.iter().all(|c| c.parallel) {
            return 1.0;
        }
        if self.wall_nanos == 0 {
            return 1.0;
        }
        self.sequential_child_nanos() as f64 / self.wall_nanos as f64
    }

    /// The accounting invariant, checked recursively over sequential nodes:
    /// every node's sequential children are timed as disjoint sub-intervals
    /// of the node's own interval, so their sum must not exceed the node's
    /// wall time (beyond a 1ms + 0.1% slack for clock-read placement).
    /// Parallel subtrees are skipped — their totals are task wall time
    /// summed across workers.
    pub fn accounting_ok(&self) -> bool {
        if self.parallel {
            return true;
        }
        let budget = self.wall_nanos + self.wall_nanos / 1000 + 1_000_000;
        self.sequential_child_nanos() <= budget && self.children.iter().all(|c| c.accounting_ok())
    }

    /// Serialize as hand-rolled JSON in the bench-ledger style: times as
    /// fractional milliseconds, children nested, quantiles inlined when
    /// present. Deterministic for a given tree.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out);
        out
    }

    fn write_json(&self, out: &mut String) {
        out.push_str(&format!(
            "{{\"name\": \"{}\", \"wall_ms\": {}, \"count\": {}, \"parallel\": {}",
            escape_json(&self.name),
            fmt_ms(self.wall_nanos),
            self.count,
            self.parallel
        ));
        if let Some(q) = &self.quantiles {
            out.push_str(&format!(
                ", \"p50_ms\": {}, \"p95_ms\": {}, \"p99_ms\": {}, \"max_ms\": {}",
                fmt_ms(q.p50_nanos),
                fmt_ms(q.p95_nanos),
                fmt_ms(q.p99_nanos),
                fmt_ms(q.max_nanos)
            ));
            if q.window_dropped > 0 {
                // Truncated-window honesty: the quantiles above were computed
                // from the most recent samples only.
                out.push_str(&format!(", \"window_dropped\": {}", q.window_dropped));
            }
        }
        if !self.children.is_empty() {
            out.push_str(", \"children\": [");
            for (i, c) in self.children.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                c.write_json(out);
            }
            out.push(']');
        }
        out.push('}');
    }

    /// Render an aligned, human-readable breakdown table. Percentages are of
    /// the root's wall time; parallel nodes are marked `∥` (their totals are
    /// task wall time summed across workers, so the percentage can exceed
    /// 100).
    pub fn render_table(&self) -> String {
        let mut rows: Vec<(String, String, String, String, String)> = vec![(
            "stage".to_string(),
            "wall ms".to_string(),
            "% root".to_string(),
            "count".to_string(),
            "p50/p95/p99 ms".to_string(),
        )];
        self.table_rows(0, self.wall_nanos.max(1), &mut rows);
        let mut widths = [0usize; 5];
        for row in &rows {
            let cols = [&row.0, &row.1, &row.2, &row.3, &row.4];
            for (w, c) in widths.iter_mut().zip(cols) {
                *w = (*w).max(c.chars().count());
            }
        }
        let mut out = String::new();
        for (i, row) in rows.iter().enumerate() {
            out.push_str(&format!(
                "{:<w0$}  {:>w1$}  {:>w2$}  {:>w3$}  {:<w4$}\n",
                row.0,
                row.1,
                row.2,
                row.3,
                row.4,
                w0 = widths[0],
                w1 = widths[1],
                w2 = widths[2],
                w3 = widths[3],
                w4 = widths[4],
            ));
            if i == 0 {
                let total: usize = widths.iter().sum::<usize>() + 8;
                out.push_str(&"-".repeat(total));
                out.push('\n');
            }
        }
        out
    }

    fn table_rows(
        &self,
        depth: usize,
        root_nanos: u64,
        rows: &mut Vec<(String, String, String, String, String)>,
    ) {
        let marker = if self.parallel { " ∥" } else { "" };
        let name = format!("{}{}{}", "  ".repeat(depth), self.name, marker);
        let pct = format!("{:.1}", self.wall_nanos as f64 * 100.0 / root_nanos as f64);
        let quant = match &self.quantiles {
            // `~` marks quantiles computed from a truncated sample window
            // (only the most recent samples survived).
            Some(q) => format!(
                "{}{}/{}/{}",
                if q.window_dropped > 0 { "~" } else { "" },
                fmt_ms(q.p50_nanos),
                fmt_ms(q.p95_nanos),
                fmt_ms(q.p99_nanos)
            ),
            None => String::new(),
        };
        rows.push((
            name,
            fmt_ms(self.wall_nanos),
            pct,
            self.count.to_string(),
            quant,
        ));
        for c in &self.children {
            c.table_rows(depth + 1, root_nanos, rows);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_accumulate_by_name() {
        let p = Profiler::new("detect");
        let root = p.root();
        root.child("features").record(Duration::from_millis(5));
        root.child("features").record(Duration::from_millis(7));
        root.child("sampling").record(Duration::from_millis(3));
        let s = p.snapshot();
        assert_eq!(s.children.len(), 2);
        let f = s.child("features").unwrap();
        assert_eq!(f.count, 2);
        assert_eq!(f.wall_nanos, 12_000_000);
        // Insertion order preserved.
        assert_eq!(s.children[0].name, "features");
        assert_eq!(s.children[1].name, "sampling");
    }

    #[test]
    fn timer_records_on_drop_and_time_wraps() {
        let p = Profiler::new("r");
        let span = p.root().child("work");
        {
            let _t = span.timer();
        }
        let out = span.time(|| 42);
        assert_eq!(out, 42);
        assert_eq!(p.snapshot().child("work").unwrap().count, 2);
    }

    #[test]
    fn find_walks_paths() {
        let p = Profiler::new("root");
        p.root()
            .child("a")
            .child("b")
            .record(Duration::from_millis(1));
        let s = p.snapshot();
        assert!(s.find("a/b").is_some());
        assert!(s.find("a/missing").is_none());
        assert_eq!(s.find("").unwrap().name, "root");
    }

    #[test]
    fn coverage_and_accounting() {
        let mut root = StageProfile::leaf("detect", Duration::from_millis(100), 1);
        root.children
            .push(StageProfile::leaf("a", Duration::from_millis(60), 1));
        root.children
            .push(StageProfile::leaf("b", Duration::from_millis(35), 1));
        let mut par = StageProfile::leaf("workers", Duration::from_millis(500), 8);
        par.parallel = true;
        root.children.push(par);
        assert!((root.coverage() - 0.95).abs() < 1e-9);
        assert!(root.accounting_ok());
        // Sequential children exceeding the parent breaks the invariant.
        root.children
            .push(StageProfile::leaf("c", Duration::from_millis(50), 1));
        assert!(!root.accounting_ok());
    }

    #[test]
    fn dist_child_carries_quantiles() {
        let p = Profiler::new("root");
        let d = p.root().child_dist("llm");
        for ms in 1..=100u64 {
            d.record(Duration::from_millis(ms));
        }
        let q = p.snapshot().child("llm").unwrap().quantiles.unwrap();
        assert_eq!(q.p50_nanos, 50_000_000);
        assert_eq!(q.p99_nanos, 99_000_000);
        assert_eq!(q.max_nanos, 100_000_000);
    }

    #[test]
    fn json_and_table_render() {
        let mut root = StageProfile::leaf("detect", Duration::from_millis(10), 1);
        root.children
            .push(StageProfile::leaf("features", Duration::from_millis(8), 1));
        let json = root.to_json();
        assert!(json.contains("\"name\": \"detect\""));
        assert!(json.contains("\"wall_ms\": 10.000"));
        assert!(json.contains("\"children\": ["));
        let table = root.render_table();
        assert!(table.contains("detect"));
        assert!(table.contains("  features"));
    }
}
