//! # basm-obs — structured telemetry for the BASM workspace
//!
//! A dependency-light observability layer: **spans** (scoped wall-clock
//! timers aggregated into per-op tables), **counters**, and log-linear-bucket
//! **histograms** with p50/p90/p99 readout, read out as a [`Report`] whose
//! public rows a binary can print ([`Report::to_table`]) or serialize.
//!
//! ## Enabling telemetry
//!
//! Every build carries the recording hooks; one process-wide switch turns
//! them on. Telemetry starts **off**: [`enabled`] is a single relaxed load
//! of an atomic flag, so an instrumented path (a BASM forward's module
//! boundaries, the trainer step loop, the serving scorer) pays one load and
//! an untaken branch per hook. [`set_enabled`] is the only switch — the
//! binaries that report telemetry turn it on themselves.
//!
//! Telemetry **never** changes what the observed code computes: recording
//! only reads clocks and writes side tables, so results are bitwise
//! identical with telemetry on or off (pinned by
//! `crates/tensor/tests/parallel_determinism.rs` and
//! `crates/serving/tests/mode_matrix.rs`).
//!
//! ## Recording
//!
//! ```
//! // Time a scope, tagging it with work dimensions (bare identifiers or
//! // `key = value` pairs). The guard records on drop.
//! let sessions = 64usize;
//! {
//!     let _span = basm_obs::span!("serving.score_sessions", sessions);
//!     // ... do the work being timed ...
//! }
//!
//! basm_obs::record_span("basm.ststl.fwd", 180_000, &[("rows", 30)]); // timed by the caller
//! basm_obs::counter_add("serving.retries", 1);
//! basm_obs::record_hist("serving.e2e_ns", 1_250);
//!
//! // Snapshot: merged per-op tables, counters, histogram digests. Telemetry
//! // starts off, so nothing above was recorded and the report is empty.
//! let report = basm_obs::report();
//! println!("{}", report.to_table());
//! ```
//!
//! ## Threading model
//!
//! Each thread records into its own tables (no locks on the hot path): a
//! finished span folds straight into its name's row. A thread's state
//! merges into the process-global registry when the thread exits or when
//! [`flush`]/[`report()`] runs on that thread; `basm_tensor::pool::par_map`'s
//! workers flush before they return.
//! Nested spans are each recorded in full, so a parent span's total includes
//! its children's time; the table is a flat per-op profile, not a call tree.

pub mod hist;
pub mod report;

mod agg;

pub use agg::{SpanStat, MAX_SPAN_DIMS};
pub use hist::{Histogram, Summary};
pub use report::{HistRow, Report, SpanRow};

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// The runtime switch; off until [`set_enabled`] turns it on.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Whether telemetry is recording. Instrumented code computing expensive
/// record fields should branch on this.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn recording on or off for the whole process. Used by the telemetry
/// binaries, the determinism tests and the overhead benchmark.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// RAII guard returned by [`span_start`]/[`span!`]; records its scope's
/// wall-clock duration into the thread's span table on drop.
#[must_use = "a span guard records when dropped; binding it to `_` drops immediately"]
pub struct SpanGuard(Option<(&'static str, agg::SpanDims, Instant)>);

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((name, dims, start)) = self.0.take() {
            let dur_ns = start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            agg::record_span(name, dur_ns, dims.as_slice());
        }
    }
}

/// Start a span; prefer the [`span!`] macro, which captures dimension names
/// for you. Returns an inert guard when telemetry is off.
#[inline]
pub fn span_start(name: &'static str, dims: &[(&'static str, u64)]) -> SpanGuard {
    if !enabled() {
        return SpanGuard(None);
    }
    SpanGuard(Some((name, agg::SpanDims::capture(dims), Instant::now())))
}

/// Time a scope and record it under `name`, optionally tagging work
/// dimensions: `span!("matmul", rows, cols)` or
/// `span!("step", batch = 1024)`. Expands to a [`SpanGuard`] binding
/// expression — assign it to a named `_span` variable so it lives to the end
/// of the scope.
#[macro_export]
macro_rules! span {
    ($name:expr $(,)?) => {
        $crate::span_start($name, &[])
    };
    ($name:expr, $($key:ident $(= $val:expr)?),+ $(,)?) => {
        $crate::span_start($name, &[$($crate::span_dim!($key $(= $val)?)),+])
    };
}

/// Expand one [`span!`] dimension: a bare identifier uses its own value,
/// `key = expr` names an arbitrary expression. Implementation detail.
#[doc(hidden)]
#[macro_export]
macro_rules! span_dim {
    ($key:ident) => {
        (stringify!($key), $key as u64)
    };
    ($key:ident = $val:expr) => {
        (stringify!($key), $val as u64)
    };
}

/// Record one finished span of `dur_ns` nanoseconds under `name`, for work
/// the caller timed itself. No-op when telemetry is off.
#[inline]
pub fn record_span(name: &'static str, dur_ns: u64, dims: &[(&'static str, u64)]) {
    if enabled() {
        agg::record_span(name, dur_ns, dims);
    }
}

/// Add `n` to the named monotonic counter. No-op when telemetry is off.
#[inline]
pub fn counter_add(name: &'static str, n: u64) {
    if enabled() {
        agg::add_counter(name, n);
    }
}

/// Raise the named high-water-mark gauge to at least `v`. Unlike counters,
/// gauges do not accumulate: the reported value is the maximum observed on
/// any thread (e.g. `graph.peak_bytes`, the largest tape footprint seen).
/// No-op when telemetry is off.
#[inline]
pub fn gauge_max(name: &'static str, v: u64) {
    if enabled() {
        agg::gauge_max(name, v);
    }
}

/// Record one sample into the named histogram (by convention nanoseconds;
/// see [`hist::Histogram`] for precision bounds). No-op when telemetry is
/// off.
#[inline]
pub fn record_hist(name: &'static str, v: u64) {
    if enabled() {
        agg::record_hist(name, v);
    }
}

/// RAII timer that records its scope's duration into a histogram (rather
/// than a span) — for latency distributions like per-request serving time.
#[must_use = "a histogram timer records when dropped"]
pub struct HistTimer(Option<(&'static str, Instant)>);

impl Drop for HistTimer {
    fn drop(&mut self) {
        if let Some((name, start)) = self.0.take() {
            agg::record_hist(name, start.elapsed().as_nanos().min(u64::MAX as u128) as u64);
        }
    }
}

/// Start a histogram-recording timer for the enclosing scope.
#[inline]
pub fn hist_timer(name: &'static str) -> HistTimer {
    if !enabled() {
        return HistTimer(None);
    }
    HistTimer(Some((name, Instant::now())))
}

/// Merge the calling thread's buffered telemetry into the global registry.
/// Pool workers flush automatically on exit; long-lived threads should flush
/// before another thread calls [`report()`].
pub fn flush() {
    agg::flush_current_thread();
}

/// Flush the calling thread and snapshot all recorded telemetry, ordered by
/// name. Empty when telemetry has been off since start.
pub fn report() -> Report {
    agg::flush_current_thread();
    let reg = agg::registry();
    Report {
        spans: reg.spans.iter().map(|(name, s)| SpanRow::from_stat(name, s)).collect(),
        counters: reg.counters.iter().map(|(n, v)| (n.to_string(), *v)).collect(),
        gauges: reg.gauges.iter().map(|(n, v)| (n.to_string(), *v)).collect(),
        hists: reg
            .hists
            .iter()
            .map(|(n, h)| HistRow { name: n.to_string(), summary: h.summary() })
            .collect(),
    }
}

/// Discard all recorded telemetry (global tables plus the calling thread's
/// buffers). Test/benchmark helper; other live threads' unflushed buffers
/// are unaffected.
pub fn reset() {
    agg::reset();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_counters_hists_round_trip() {
        let _guard = agg::registry_lock();
        reset();
        set_enabled(true);
        {
            let rows = 8usize;
            let _span = span!("test.op", rows, cols = 3usize);
            std::hint::black_box(rows);
        }
        counter_add("test.counter", 2);
        counter_add("test.counter", 3);
        gauge_max("test.gauge", 7);
        gauge_max("test.gauge", 4);
        record_hist("test.hist", 12);
        {
            let _t = hist_timer("test.timer_ns");
        }
        let r = report();
        set_enabled(false);

        let span = r.spans.iter().find(|s| s.name == "test.op").expect("span recorded");
        assert_eq!(span.calls, 1);
        assert_eq!(span.dims, vec![("rows".to_string(), 8), ("cols".to_string(), 3)]);
        assert_eq!(r.counters.iter().find(|(n, _)| n == "test.counter").unwrap().1, 5);
        assert_eq!(r.gauges.iter().find(|(n, _)| n == "test.gauge").unwrap().1, 7);
        let h = r.hists.iter().find(|h| h.name == "test.hist").unwrap();
        assert_eq!((h.summary.count, h.summary.p50), (1, 12));
        assert!(r.hists.iter().any(|h| h.name == "test.timer_ns"));
        reset();
    }

    #[test]
    fn runtime_toggle_gates_recording() {
        let _guard = agg::registry_lock();
        // Off at start, and every test that turns it on turns it off again
        // before releasing the lock.
        assert!(!enabled(), "telemetry must start off");
        reset();
        {
            let _span = span!("test.disabled_op");
        }
        counter_add("test.disabled_counter", 1);
        gauge_max("test.disabled_gauge", 1);
        record_hist("test.disabled_hist", 1);
        let r = report();
        assert!(!r.spans.iter().any(|s| s.name == "test.disabled_op"));
        assert!(!r.counters.iter().any(|(n, _)| n == "test.disabled_counter"));
        assert!(!r.gauges.iter().any(|(n, _)| n == "test.disabled_gauge"));
        assert!(!r.hists.iter().any(|h| h.name == "test.disabled_hist"));
        reset();
    }

    #[test]
    fn nested_and_parallel_spans_aggregate() {
        let _guard = agg::registry_lock();
        reset();
        set_enabled(true);
        // Nested: outer total includes inner; both names appear once per call.
        {
            let _outer = span!("test.outer");
            for _ in 0..3 {
                let _inner = span!("test.inner");
            }
        }
        // Parallel: spans recorded on scoped worker threads. `scope` may
        // return before a worker's TLS destructors (the merge-on-exit
        // backstop) run, so each worker flushes, as the tensor pool does.
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    {
                        let _span = span!("test.parallel");
                    }
                    flush();
                });
            }
        });
        let r = report();
        set_enabled(false);
        let by_name = |n: &str| r.spans.iter().find(|s| s.name == n).map(|s| s.calls);
        assert_eq!(by_name("test.outer"), Some(1));
        assert_eq!(by_name("test.inner"), Some(3));
        assert_eq!(by_name("test.parallel"), Some(4));
        let outer = r.spans.iter().find(|s| s.name == "test.outer").unwrap();
        let inner = r.spans.iter().find(|s| s.name == "test.inner").unwrap();
        assert!(outer.total_ns >= inner.total_ns, "outer span covers nested inner spans");
        reset();
    }
}
