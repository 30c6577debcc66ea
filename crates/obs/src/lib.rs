//! # basm-obs — structured telemetry for the BASM workspace
//!
//! A dependency-light observability layer: **spans** (scoped wall-clock
//! timers aggregated into per-op tables), **counters**, and log-linear-bucket
//! **histograms** with p50/p90/p99 readout, plus two sinks — a human-readable
//! table dump and JSONL emitters (see [`jsonl`]).
//!
//! ## Enabling telemetry
//!
//! Recording is double-gated:
//!
//! 1. **Compile time** — the `enabled` cargo feature (off by default).
//!    Without it every recording entry point in this crate is an inlineable
//!    no-op, so instrumented hot paths (`basm_tensor`'s kernels, the trainer
//!    step loop, the serving scorer) carry zero overhead. Downstream crates
//!    forward it as their own `obs` feature: `cargo build --features obs`.
//! 2. **Run time** — the `BASM_OBS` environment variable, read once: unset
//!    or any value other than `0`/`false`/`off`/`no` means *on*. Tests and
//!    benchmarks can override it within one process via [`set_enabled`].
//!
//! Telemetry **never** changes what the observed code computes: recording
//! only reads clocks and writes side tables, so results are bitwise
//! identical with telemetry on, off, or compiled out (pinned by
//! `crates/tensor/tests/parallel_determinism.rs`).
//!
//! ## Recording
//!
//! ```
//! // Time a scope, tagging it with work dimensions (bare identifiers or
//! // `key = value` pairs). The guard records on drop.
//! let rows = 64usize;
//! let cols = 32usize;
//! {
//!     let _span = basm_obs::span!("matmul", rows, cols);
//!     // ... do the work being timed ...
//! }
//!
//! basm_obs::counter_add("pool.par_regions", 1);
//! basm_obs::record_hist("serve.e2e_ns", 1_250);
//!
//! // Snapshot: merged per-op tables, counters, histogram digests. With the
//! // `enabled` feature off (the default) the report is empty.
//! let report = basm_obs::report();
//! println!("{}", report.to_table());
//! ```
//!
//! ## Threading model
//!
//! Each thread records into its own ring buffer and local tables (no locks
//! on the hot path); a thread's state merges into the process-global
//! registry when the thread exits — `basm_tensor::pool`'s scoped workers do
//! so automatically — or when [`flush`]/[`report()`] runs on that thread.
//! Nested spans are each recorded in full, so a parent span's total includes
//! its children's time; the table is a flat per-op profile, not a call tree.

pub mod hist;
pub mod jsonl;
pub mod report;

mod agg;

pub use agg::{SpanStat, MAX_SPAN_DIMS};
pub use hist::{Histogram, Summary};
pub use report::{HistRow, Report, SpanRow};

use std::sync::atomic::{AtomicI8, Ordering};
#[cfg(feature = "enabled")]
use std::sync::OnceLock;
use std::time::Instant;

/// Programmatic override: -1 = follow `BASM_OBS`, 0 = off, 1 = on.
static ENABLED_OVERRIDE: AtomicI8 = AtomicI8::new(-1);

/// `BASM_OBS` resolution, computed once.
#[cfg(feature = "enabled")]
static ENV_ENABLED: OnceLock<bool> = OnceLock::new();

#[cfg(feature = "enabled")]
fn env_enabled() -> bool {
    *ENV_ENABLED.get_or_init(|| {
        match std::env::var("BASM_OBS") {
            Ok(v) => !matches!(v.trim().to_ascii_lowercase().as_str(), "0" | "false" | "off" | "no"),
            Err(_) => true,
        }
    })
}

/// Whether telemetry is recording: requires the `enabled` cargo feature
/// *and* the runtime toggle (`BASM_OBS` / [`set_enabled`]). Instrumented
/// code computing expensive record fields should branch on this.
#[inline]
pub fn enabled() -> bool {
    #[cfg(feature = "enabled")]
    {
        match ENABLED_OVERRIDE.load(Ordering::Relaxed) {
            -1 => env_enabled(),
            0 => false,
            _ => true,
        }
    }
    #[cfg(not(feature = "enabled"))]
    {
        false
    }
}

/// Override the runtime toggle (`Some(on)`), or restore the `BASM_OBS`
/// default (`None`). Has no effect when the `enabled` feature is compiled
/// out. Used by the determinism tests and the overhead benchmark to compare
/// on/off within one process.
pub fn set_enabled(on: Option<bool>) {
    ENABLED_OVERRIDE.store(on.map_or(-1, |b| b as i8), Ordering::Relaxed);
}

/// RAII guard returned by [`span_start`]/[`span!`]; records its scope's
/// wall-clock duration into the thread-local ring buffer on drop.
#[must_use = "a span guard records when dropped; binding it to `_` drops immediately"]
pub struct SpanGuard(Option<ActiveSpan>);

struct ActiveSpan {
    name: &'static str,
    dims: agg::SpanDims,
    start: Instant,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(active) = self.0.take() {
            let dur_ns = active.start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            agg::push_span(agg::SpanEvent { name: active.name, dur_ns, dims: active.dims });
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
    SpanGuard(Some(ActiveSpan { name, dims: agg::SpanDims::capture(dims), start: Instant::now() }))
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
/// name. Empty when telemetry is compiled out or disabled since start.
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

/// Write [`report()`]'s JSON rendering to `path`, creating parent directories.
pub fn write_report_json(path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
    let path = path.as_ref();
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(path, report().to_json())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[cfg(feature = "enabled")]
    #[test]
    fn spans_counters_hists_round_trip() {
        let _guard = agg::registry_lock();
        reset();
        set_enabled(Some(true));
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
        set_enabled(None);

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

    #[cfg(feature = "enabled")]
    #[test]
    fn runtime_toggle_gates_recording() {
        let _guard = agg::registry_lock();
        reset();
        set_enabled(Some(false));
        {
            let _span = span!("test.disabled_op");
        }
        counter_add("test.disabled_counter", 1);
        gauge_max("test.disabled_gauge", 1);
        record_hist("test.disabled_hist", 1);
        let r = report();
        set_enabled(None);
        assert!(!r.spans.iter().any(|s| s.name == "test.disabled_op"));
        assert!(!r.counters.iter().any(|(n, _)| n == "test.disabled_counter"));
        assert!(!r.gauges.iter().any(|(n, _)| n == "test.disabled_gauge"));
        assert!(!r.hists.iter().any(|h| h.name == "test.disabled_hist"));
        reset();
    }

    #[cfg(feature = "enabled")]
    #[test]
    fn nested_and_parallel_spans_aggregate() {
        let _guard = agg::registry_lock();
        reset();
        set_enabled(Some(true));
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
        set_enabled(None);
        let by_name = |n: &str| r.spans.iter().find(|s| s.name == n).map(|s| s.calls);
        assert_eq!(by_name("test.outer"), Some(1));
        assert_eq!(by_name("test.inner"), Some(3));
        assert_eq!(by_name("test.parallel"), Some(4));
        let outer = r.spans.iter().find(|s| s.name == "test.outer").unwrap();
        let inner = r.spans.iter().find(|s| s.name == "test.inner").unwrap();
        assert!(outer.total_ns >= inner.total_ns, "outer span covers nested inner spans");
        reset();
    }

    #[cfg(not(feature = "enabled"))]
    #[test]
    fn compiled_out_everything_is_inert() {
        assert!(!enabled());
        set_enabled(Some(true)); // must still be a no-op
        {
            let _span = span!("noop.op", n = 5usize);
        }
        counter_add("noop.counter", 1);
        record_hist("noop.hist", 1);
        let r = report();
        assert!(!enabled());
        // Entry points must have recorded nothing (other tests exercise the
        // always-compiled internals directly, so don't assert global
        // emptiness — just that *these* names never appeared).
        assert!(!r.spans.iter().any(|s| s.name == "noop.op"));
        assert!(!r.counters.iter().any(|(n, _)| n == "noop.counter"));
        assert!(!r.hists.iter().any(|h| h.name == "noop.hist"));
        set_enabled(None);
    }
}
