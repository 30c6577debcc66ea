//! Collects one workload run's metrics and correctness checks, and prints
//! them: one `workload metric value unit` line per metric, a JSON file under
//! `benchmark/out/<seed>/`, and the one-line JSON result as the last line of
//! standard output.

use std::fmt::Write as _;
use std::path::Path;

struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

pub struct Report {
    pub workload: &'static str,
    /// Metrics of the result line: end-to-end ones untraced, per-layer ones
    /// traced.
    metrics: Vec<Metric>,
    /// Everything else worth a line: counts, checks, per-run context.
    info: Vec<Metric>,
    digest: Option<u64>,
    failures: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
}

impl Report {
    pub fn new(workload: &'static str) -> Self {
        Self {
            workload,
            metrics: Vec::new(),
            info: Vec::new(),
            digest: None,
            failures: Vec::new(),
            attempted: 0,
            failed: 0,
        }
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        if !value.is_finite() {
            self.fail(format!("metric {name} is not finite ({value})"));
        }
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    pub fn info(&mut self, name: &str, value: f64, unit: &'static str) {
        self.info.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    pub fn digest(&mut self, d: u64) {
        self.digest = Some(d);
    }

    /// Record a correctness failure; the run exits non-zero.
    pub fn fail(&mut self, msg: String) {
        if self.failures.len() < 20 {
            eprintln!("[{}] check failed: {msg}", self.workload);
        }
        self.failures.push(msg);
    }

    /// One attempted operation; `Err` marks it failed and fails the run.
    pub fn op(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(msg) = outcome {
            self.failed += 1;
            self.fail(msg);
        }
    }

    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    /// Print the lines, write the file, print the result line. Returns the
    /// process exit code.
    pub fn finish(self, file: &Path, extra_json: Option<String>) -> i32 {
        let w = self.workload;
        let info = self
            .info
            .iter()
            .filter(|i| !self.metrics.iter().any(|m| m.name == i.name));
        for m in self.metrics.iter().chain(info) {
            println!("{w} {} {} {}", m.name, m.value, m.unit);
        }
        if let Some(d) = self.digest {
            println!("{w} digest {d:016x} hex");
        }
        println!("{w} correct {} bool", self.correct());

        let metrics_json = |ms: &[Metric]| {
            let mut s = String::from("{");
            for (i, m) in ms.iter().enumerate() {
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                let sep = if i == 0 { "" } else { ", " };
                let _ = write!(
                    s,
                    "{sep}\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                );
            }
            s.push('}');
            s
        };
        let result = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics_json(&self.metrics)
        );
        let mut doc = format!(
            "{{\"workload\": \"{w}\", \"result\": {result}, \"info\": {}, \"digest\": \"{}\", \"failures\": [",
            metrics_json(&self.info),
            self.digest.map_or(String::new(), |d| format!("{d:016x}")),
        );
        for (i, f) in self.failures.iter().take(20).enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                doc,
                "{sep}\"{}\"",
                f.replace('\\', "\\\\").replace('"', "'")
            );
        }
        doc.push(']');
        if let Some(extra) = extra_json {
            let _ = write!(doc, ", \"trace\": {extra}");
        }
        doc.push_str("}\n");
        if let Some(dir) = file.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        if let Err(e) = std::fs::write(file, doc) {
            eprintln!("[{w}] could not write {}: {e}", file.display());
        }
        println!("{result}");
        if self.correct() {
            0
        } else {
            1
        }
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
