//! Read-out: a point-in-time [`Report`] snapshot with public rows, renderable
//! as a human-readable table. This crate writes no JSON; a binary that
//! publishes telemetry as JSON maps the rows onto its own serializable
//! records (`obs_telemetry` does).

use crate::agg::SpanStat;
use crate::hist::Summary;

/// Aggregated wall-time/call-count row for one span name.
#[derive(Debug, Clone)]
pub struct SpanRow {
    /// Span name as passed to [`crate::span!`].
    pub name: String,
    /// Completed calls.
    pub calls: u64,
    /// Total wall-clock nanoseconds.
    pub total_ns: u64,
    /// Mean nanoseconds per call.
    pub mean_ns: f64,
    /// Slowest single call.
    pub max_ns: u64,
    /// Per-dimension value sums (e.g. total rows processed).
    pub dims: Vec<(String, u64)>,
}

impl SpanRow {
    pub(crate) fn from_stat(name: &str, stat: &SpanStat) -> Self {
        Self {
            name: name.to_string(),
            calls: stat.calls,
            total_ns: stat.total_ns,
            mean_ns: stat.total_ns as f64 / stat.calls.max(1) as f64,
            max_ns: stat.max_ns,
            dims: stat.dims.iter().map(|&(n, v)| (n.to_string(), v)).collect(),
        }
    }
}

/// Digest row for one histogram.
#[derive(Debug, Clone)]
pub struct HistRow {
    /// Histogram name.
    pub name: String,
    /// Count / sum / extremes / mean / p50 / p90 / p99.
    pub summary: Summary,
}

/// A point-in-time snapshot of all recorded telemetry, ordered by name.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Per-op span aggregates.
    pub spans: Vec<SpanRow>,
    /// Monotonic counters.
    pub counters: Vec<(String, u64)>,
    /// High-water-mark gauges (max observed on any thread).
    pub gauges: Vec<(String, u64)>,
    /// Histogram digests.
    pub hists: Vec<HistRow>,
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} µs", ns / 1e3)
    } else {
        format!("{ns:.0} ns")
    }
}

impl Report {
    /// `true` when nothing was recorded (e.g. telemetry was off).
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
            && self.counters.is_empty()
            && self.gauges.is_empty()
            && self.hists.is_empty()
    }

    /// Render the aggregate tables as aligned, human-readable text. A span
    /// with a `rows` dimension also shows its total time per row.
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        if self.is_empty() {
            out.push_str("(no telemetry recorded)\n");
            return out;
        }
        if !self.spans.is_empty() {
            out.push_str("== spans ==\n");
            let w = self.spans.iter().map(|s| s.name.chars().count()).max().unwrap_or(0);
            let header = ["name", "calls", "total", "mean", "max", "per row"];
            let [name, calls, total, mean, max, per_row] = header;
            out.push_str(&format!(
                "  {name:w$} {calls:>8} {total:>11} {mean:>11} {max:>11} {per_row:>11}\n"
            ));
            for s in &self.spans {
                let per_row = match s.dims.iter().find(|(n, _)| n == "rows") {
                    Some(&(_, r)) if r > 0 => fmt_ns(s.total_ns as f64 / r as f64),
                    _ => "-".into(),
                };
                out.push_str(&format!(
                    "  {:w$} {:>8} {:>11} {:>11} {:>11} {per_row:>11}\n",
                    s.name,
                    s.calls,
                    fmt_ns(s.total_ns as f64),
                    fmt_ns(s.mean_ns),
                    fmt_ns(s.max_ns as f64),
                ));
            }
        }
        if !self.counters.is_empty() {
            out.push_str("== counters ==\n");
            for (name, v) in &self.counters {
                out.push_str(&format!("  {name} = {v}\n"));
            }
        }
        if !self.gauges.is_empty() {
            out.push_str("== gauges ==\n");
            for (name, v) in &self.gauges {
                out.push_str(&format!("  {name} = {v}\n"));
            }
        }
        if !self.hists.is_empty() {
            out.push_str("== histograms ==\n");
            for h in &self.hists {
                let s = &h.summary;
                out.push_str(&format!(
                    "  {}  n={}  mean={}  p50={}  p90={}  p99={}  max={}\n",
                    h.name,
                    s.count,
                    fmt_ns(s.mean),
                    fmt_ns(s.p50 as f64),
                    fmt_ns(s.p90 as f64),
                    fmt_ns(s.p99 as f64),
                    fmt_ns(s.max as f64),
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hist::Histogram;

    fn sample_report() -> Report {
        let mut h = Histogram::new();
        for v in [10u64, 20, 30] {
            h.record(v);
        }
        Report {
            spans: vec![SpanRow {
                name: "basm.ststl.fwd".into(),
                calls: 2,
                total_ns: 300,
                mean_ns: 150.0,
                max_ns: 200,
                dims: vec![("rows".into(), 96)],
            }],
            counters: vec![("serving.retries".into(), 4)],
            gauges: vec![("graph.peak_bytes".into(), 4096)],
            hists: vec![HistRow { name: "serve.e2e_ns".into(), summary: h.summary() }],
        }
    }

    #[test]
    fn table_mentions_every_section_and_name() {
        let t = sample_report().to_table();
        for needle in [
            "== spans ==",
            "basm.ststl.fwd",
            "3 ns",
            "== counters ==",
            "serving.retries",
            "== gauges ==",
            "graph.peak_bytes",
            "serve.e2e_ns",
        ] {
            assert!(t.contains(needle), "missing {needle} in:\n{t}");
        }
    }

    #[test]
    fn empty_report_renders_placeholder() {
        let r = Report::default();
        assert!(r.is_empty());
        assert!(r.to_table().contains("no telemetry"));
    }

    #[test]
    fn ns_formatting_picks_unit() {
        assert_eq!(fmt_ns(500.0), "500 ns");
        assert_eq!(fmt_ns(1_500.0), "1.500 µs");
        assert_eq!(fmt_ns(2_000_000.0), "2.000 ms");
        assert_eq!(fmt_ns(3.2e9), "3.200 s");
    }
}
