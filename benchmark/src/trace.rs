//! In-memory spans recorded at the benchmark's own call sites into each
//! layer, their self times, and the trace file written at exit.
//!
//! A span's self time is its duration minus the part of its interval that
//! its child spans cover.

use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// The request, pass or step the span belongs to.
    pub unit: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    origin: Instant,
    enabled: bool,
    pub spans: Vec<Span>,
}

impl Tracer {
    /// A disabled tracer records nothing and costs one branch per call.
    pub fn new(enabled: bool) -> Self {
        Self {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Record a finished span; returns its id for use as a parent.
    pub fn record(
        &mut self,
        name: &'static str,
        unit: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            unit,
        };
        self.spans.push(span);
        Some(self.spans.len() - 1)
    }

    /// Open a span whose end is set by [`Tracer::close`]; children recorded
    /// in between name it as their parent.
    pub fn open(&mut self, name: &'static str, unit: u64, parent: Option<usize>) -> Option<usize> {
        self.open_at(name, unit, parent, Instant::now())
    }

    /// [`Tracer::open`] for a span that began at `start`.
    pub fn open_at(
        &mut self,
        name: &'static str,
        unit: u64,
        parent: Option<usize>,
        start: Instant,
    ) -> Option<usize> {
        self.record(name, unit, parent, start, start)
    }

    pub fn close(&mut self, id: Option<usize>) {
        if let Some(id) = id {
            let end = self.ns(Instant::now());
            self.spans[id].end_ns = end;
        }
    }

    /// Time `f` as a span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        unit: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> R {
        let t0 = Instant::now();
        let out = f();
        self.record(name, unit, parent, t0, Instant::now());
        out
    }

    /// Mean duration in microseconds of spans named `name` per unit in which
    /// any occur (several spans of one unit are summed first).
    pub fn mean_per_unit_us(&self, name: &str) -> f64 {
        let mut per_unit = std::collections::BTreeMap::<u64, u64>::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *per_unit.entry(s.unit).or_insert(0) += s.dur_ns();
        }
        if per_unit.is_empty() {
            return 0.0;
        }
        per_unit.values().sum::<u64>() as f64 / per_unit.len() as f64 / 1e3
    }

    /// Serialize spans and per-name totals as JSON.
    pub fn to_json(&self) -> String {
        let selfs = self_times_ns(&self.spans);
        let mut names: Vec<&'static str> = self.spans.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        let mut out = String::from("{\"columns\":[\"name\",\"start_ns\",\"end_ns\",\"parent\",\"unit\",\"self_ns\"],\"spans\":[");
        for (i, (s, own)) in self.spans.iter().zip(&selfs).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\n[\"{}\",{},{},{},{},{}]",
                s.name, s.start_ns, s.end_ns, parent, s.unit, own
            );
        }
        out.push_str("],\"totals\":{");
        for (i, name) in names.iter().enumerate() {
            let (mut n, mut total, mut own) = (0u64, 0u64, 0u64);
            for (s, o) in self
                .spans
                .iter()
                .zip(&selfs)
                .filter(|(s, _)| s.name == *name)
            {
                n += 1;
                total += s.dur_ns();
                own += o;
            }
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\n\"{name}\":{{\"count\":{n},\"total_ns\":{total},\"self_ns\":{own}}}"
            );
        }
        out.push_str("}}\n");
        out
    }
}

/// Self time of every span: its duration minus the union of its children's
/// intervals, each clipped to the parent's interval.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let (a, b) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            if a < b {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = 0u64;
            for &(a, b) in kids.iter() {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Measured cost of recording one span, in nanoseconds: the figure behind
/// `trace.overhead_share`.
pub fn span_cost_ns() -> f64 {
    const N: usize = 20_000;
    let mut samples = Vec::new();
    for _ in 0..5 {
        let mut t = Tracer::new(true);
        t.spans.reserve(N);
        let t0 = Instant::now();
        for i in 0..N {
            let id = t.open("x", i as u64, None);
            t.close(id);
        }
        samples.push(t0.elapsed().as_nanos() as f64 / N as f64);
        std::hint::black_box(&t.spans);
    }
    crate::stats::median(&samples).unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name: "s",
            start_ns: start,
            end_ns: end,
            parent,
            unit: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(0, 100, None),     // root
            span(10, 30, Some(0)),  // overlaps the next child
            span(20, 50, Some(0)),  //   covered together: [10, 50)
            span(90, 120, Some(0)), // clipped to [90, 100)
            span(25, 35, Some(2)),  // grandchild inside child 2
            span(200, 210, None),   // unrelated root
        ];
        let own = self_times_ns(&spans);
        assert_eq!(own, vec![50, 20, 20, 30, 10, 10]);
        // Self times of a tree add up to its root's duration when children
        // stay inside their parents.
        let inside = vec![
            span(0, 100, None),
            span(10, 40, Some(0)),
            span(15, 25, Some(1)),
        ];
        assert_eq!(self_times_ns(&inside).iter().sum::<u64>(), 100);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.open("a", 0, None);
        t.close(id);
        assert_eq!(t.time("b", 0, None, || 7), 7);
        assert!(id.is_none() && t.spans.is_empty());
    }

    #[test]
    fn mean_per_unit_sums_within_a_unit() {
        let mut t = Tracer::new(true);
        t.spans = vec![
            Span {
                name: "r",
                start_ns: 0,
                end_ns: 1000,
                parent: None,
                unit: 1,
            },
            Span {
                name: "r",
                start_ns: 0,
                end_ns: 3000,
                parent: None,
                unit: 1,
            },
            Span {
                name: "r",
                start_ns: 0,
                end_ns: 2000,
                parent: None,
                unit: 2,
            },
        ];
        assert_eq!(t.mean_per_unit_us("r"), 3.0);
        assert_eq!(t.mean_per_unit_us("missing"), 0.0);
    }
}
