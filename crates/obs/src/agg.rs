//! Thread-local recording and global aggregation.
//!
//! Recording is lock-free on the hot path: every thread owns its own
//! [`Aggregates`], and a finished span folds straight into its name's row.
//! A thread's tables merge into the process-global [`registry`] when the
//! thread exits or when [`flush_current_thread`] is called.

use crate::hist::Histogram;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard};

/// Maximum `key = value` dimensions a span can carry (extra ones are dropped).
pub const MAX_SPAN_DIMS: usize = 4;

/// Fixed-size dimension list attached to a span (`rows = 128`, ...).
#[derive(Clone, Copy, Default)]
pub struct SpanDims {
    len: u8,
    entries: [(&'static str, u64); MAX_SPAN_DIMS],
}

impl SpanDims {
    /// Capture up to [`MAX_SPAN_DIMS`] `(name, value)` pairs.
    pub fn capture(dims: &[(&'static str, u64)]) -> Self {
        let mut out = Self::default();
        for &(name, v) in dims.iter().take(MAX_SPAN_DIMS) {
            out.entries[out.len as usize] = (name, v);
            out.len += 1;
        }
        out
    }

    /// The captured pairs.
    pub fn as_slice(&self) -> &[(&'static str, u64)] {
        &self.entries[..self.len as usize]
    }
}

/// Aggregate statistics for one span name.
#[derive(Clone, Default)]
pub struct SpanStat {
    /// Number of completed spans.
    pub calls: u64,
    /// Total wall-clock nanoseconds across calls.
    pub total_ns: u64,
    /// Longest single call in nanoseconds.
    pub max_ns: u64,
    /// Per-dimension value sums, in first-seen order (`("rows", 131072)`).
    pub dims: Vec<(&'static str, u64)>,
}

impl SpanStat {
    /// Fold in `calls` spans totalling `total_ns`, the longest `max_ns`, with
    /// per-dimension sums `dims`: one finished span, or another table's row.
    fn absorb(&mut self, calls: u64, total_ns: u64, max_ns: u64, dims: &[(&'static str, u64)]) {
        self.calls += calls;
        self.total_ns = self.total_ns.saturating_add(total_ns);
        self.max_ns = self.max_ns.max(max_ns);
        for &(name, v) in dims {
            match self.dims.iter_mut().find(|(n, _)| *n == name) {
                Some((_, sum)) => *sum = sum.saturating_add(v),
                None => self.dims.push((name, v)),
            }
        }
    }
}

/// Telemetry tables: spans, counters, gauges and histograms by name. Each
/// thread records into its own; the process-global [`registry`] merges them.
/// `BTreeMap`s, so reports iterate in a deterministic name order.
pub struct Aggregates {
    /// Span name → aggregate stats.
    pub spans: BTreeMap<&'static str, SpanStat>,
    /// Counter name → value.
    pub counters: BTreeMap<&'static str, u64>,
    /// Gauge name → high-water mark (merged by max).
    pub gauges: BTreeMap<&'static str, u64>,
    /// Histogram name → merged histogram.
    pub hists: BTreeMap<&'static str, Histogram>,
}

impl Aggregates {
    const fn new() -> Self {
        Self {
            spans: BTreeMap::new(),
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            hists: BTreeMap::new(),
        }
    }

    fn span(&mut self, name: &'static str) -> &mut SpanStat {
        self.spans.entry(name).or_default()
    }

    fn gauge_max(&mut self, name: &'static str, v: u64) {
        let slot = self.gauges.entry(name).or_insert(0);
        *slot = (*slot).max(v);
    }

    fn hist(&mut self, name: &'static str) -> &mut Histogram {
        self.hists.entry(name).or_insert_with(Histogram::new)
    }

    /// Move everything in `other` into these tables.
    fn merge_from(&mut self, other: &mut Aggregates) {
        for (name, stat) in std::mem::take(&mut other.spans) {
            self.span(name).absorb(stat.calls, stat.total_ns, stat.max_ns, &stat.dims);
        }
        for (name, v) in std::mem::take(&mut other.counters) {
            *self.counters.entry(name).or_insert(0) += v;
        }
        for (name, v) in std::mem::take(&mut other.gauges) {
            self.gauge_max(name, v);
        }
        for (name, h) in std::mem::take(&mut other.hists) {
            self.hist(name).merge(&h);
        }
    }
}

/// The calling thread's tables, whose `Drop` merges them into the registry
/// when the thread exits.
struct LocalCell(RefCell<Aggregates>);

impl Drop for LocalCell {
    fn drop(&mut self) {
        registry().merge_from(self.0.get_mut());
    }
}

thread_local! {
    static LOCAL: LocalCell = const { LocalCell(RefCell::new(Aggregates::new())) };
}

fn with_local<R>(f: impl FnOnce(&mut Aggregates) -> R) -> R {
    LOCAL.with(|cell| f(&mut cell.0.borrow_mut()))
}

static REGISTRY: Mutex<Aggregates> = Mutex::new(Aggregates::new());

/// Lock the process-global merged aggregates.
pub fn registry() -> MutexGuard<'static, Aggregates> {
    REGISTRY.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Fold one finished span into the calling thread's table.
pub fn record_span(name: &'static str, dur_ns: u64, dims: &[(&'static str, u64)]) {
    with_local(|local| local.span(name).absorb(1, dur_ns, dur_ns, dims));
}

/// Add to a counter in the calling thread's table.
pub fn add_counter(name: &'static str, n: u64) {
    with_local(|local| *local.counters.entry(name).or_insert(0) += n);
}

/// Raise a high-water-mark gauge in the calling thread's table; the global
/// value after merging is the max observed on any thread.
pub fn gauge_max(name: &'static str, v: u64) {
    with_local(|local| local.gauge_max(name, v));
}

/// Record a histogram sample in the calling thread's table.
pub fn record_hist(name: &'static str, v: u64) {
    with_local(|local| local.hist(name).record(v));
}

/// Merge the calling thread's tables into the global registry. Threads
/// merge on exit too; the main thread should flush (via [`crate::report`]
/// or [`crate::flush`]) before reading results.
pub fn flush_current_thread() {
    with_local(|local| {
        let recorded = !(local.spans.is_empty()
            && local.counters.is_empty()
            && local.gauges.is_empty()
            && local.hists.is_empty());
        // Nothing recorded: skip the registry lock.
        if recorded {
            registry().merge_from(local);
        }
    });
}

/// Clear all global state (local state of *other* live threads is untouched;
/// the calling thread's is discarded). Test/bench helper.
pub fn reset() {
    with_local(|local| *local = Aggregates::new());
    *registry() = Aggregates::new();
}

/// The registry is process-global; unit tests that read or reset it must
/// serialize against each other.
#[cfg(test)]
pub(crate) fn registry_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_aggregate_per_name_with_dim_sums() {
        let mut stat = SpanStat::default();
        stat.absorb(1, 100, 100, &[("rows", 8), ("cols", 4)]);
        stat.absorb(1, 50, 50, &[("rows", 2), ("cols", 6)]);
        assert_eq!(stat.calls, 2);
        assert_eq!(stat.total_ns, 150);
        assert_eq!(stat.max_ns, 100);
        assert_eq!(stat.dims, vec![("rows", 10), ("cols", 10)]);
    }

    #[test]
    fn stat_merge_matches_event_stream() {
        let spans = [(10, [("n", 1)]), (20, [("n", 2)]), (5, [("n", 3)])];
        let (mut all, mut a, mut b) = <(SpanStat, SpanStat, SpanStat)>::default();
        for (i, (dur, dims)) in spans.iter().enumerate() {
            all.absorb(1, *dur, *dur, dims);
            let part: &mut SpanStat = if i == 0 { &mut a } else { &mut b };
            part.absorb(1, *dur, *dur, dims);
        }
        a.absorb(b.calls, b.total_ns, b.max_ns, &b.dims);
        assert_eq!(a.calls, all.calls);
        assert_eq!(a.total_ns, all.total_ns);
        assert_eq!(a.max_ns, all.max_ns);
        assert_eq!(a.dims, all.dims);
    }

    #[test]
    fn dims_beyond_capacity_are_dropped_not_corrupted() {
        let dims: Vec<(&'static str, u64)> =
            vec![("a", 1), ("b", 2), ("c", 3), ("d", 4), ("e", 5), ("f", 6)];
        let captured = SpanDims::capture(&dims);
        assert_eq!(captured.as_slice(), &dims[..MAX_SPAN_DIMS]);
    }

    #[test]
    fn worker_thread_state_merges_on_exit() {
        let _guard = registry_lock();
        reset();
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..3)
                .map(|t| {
                    s.spawn(move || {
                        record_span("worker_op", 10 * (t + 1), &[]);
                        add_counter("worker_count", 1);
                        record_hist("worker_hist", t);
                    })
                })
                .collect();
            // Join explicitly: `scope` alone only waits for the closures,
            // and the merge happens in TLS destructors, which run after the
            // closure but before `join` returns.
            for h in handles {
                h.join().unwrap();
            }
        });
        // Worker thread-locals dropped on thread exit and merged globally.
        let reg = registry();
        let stat = &reg.spans["worker_op"];
        assert_eq!(stat.calls, 3);
        assert_eq!(stat.total_ns, 60);
        assert_eq!(stat.max_ns, 30);
        assert_eq!(reg.counters["worker_count"], 3);
        assert_eq!(reg.hists["worker_hist"].count(), 3);
    }

    #[test]
    fn gauges_merge_by_max_across_threads() {
        let _guard = registry_lock();
        reset();
        std::thread::scope(|s| {
            let handles: Vec<_> = (1..=3u64)
                .map(|t| {
                    s.spawn(move || {
                        gauge_max("peak", 10 * t);
                        gauge_max("peak", 5); // lower value must not regress it
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
        });
        assert_eq!(registry().gauges["peak"], 30);
    }
}
