//! # basm-bench
//!
//! The experiment harness: one binary per table/figure of the paper (see
//! `DESIGN.md` §3 for the index) plus the `bench_*` wall-clock comparisons,
//! which share the [`timing`] scaffolding.
//!
//! Every binary honours these environment variables:
//!
//! * `BASM_FAST=1` — run on the `tiny` dataset configuration (smoke test,
//!   seconds instead of minutes).
//! * `BASM_EPOCHS=n` — override training epochs.
//! * `BASM_BATCH=n` — override the minibatch size (default 512, 128 under
//!   `BASM_FAST=1`).
//! * `BASM_SEEDS=a,b,c` — override the repetition seeds (paper: five).
//! * `BASM_OUT=dir` — where result artifacts (text + JSON) are written
//!   (default `results/`).

use basm_data::{generate_dataset, GeneratedData, WorldConfig};
use std::path::{Path, PathBuf};

/// Shared experiment environment.
pub struct BenchEnv {
    /// Training epochs per run.
    pub epochs: usize,
    /// Minibatch size.
    pub batch: usize,
    /// Repetition seeds.
    pub seeds: Vec<u64>,
    /// Artifact directory.
    pub out_dir: PathBuf,
    /// Smoke-test mode (tiny world).
    pub fast: bool,
}

impl BenchEnv {
    /// Read the environment.
    pub fn from_env() -> Self {
        let fast = std::env::var("BASM_FAST").map(|v| v == "1").unwrap_or(false);
        let epochs = std::env::var("BASM_EPOCHS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(if fast { 1 } else { 2 });
        let batch = std::env::var("BASM_BATCH")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(if fast { 128 } else { 512 });
        let seeds = std::env::var("BASM_SEEDS")
            .ok()
            .map(|v| v.split(',').filter_map(|s| s.trim().parse().ok()).collect())
            .filter(|v: &Vec<u64>| !v.is_empty())
            .unwrap_or_else(|| if fast { vec![1] } else { vec![1, 2] });
        let out_dir = std::env::var("BASM_OUT").map(PathBuf::from).unwrap_or_else(|_| {
            PathBuf::from("results")
        });
        Self { epochs, batch, seeds, out_dir, fast }
    }

    /// The Ele.me-like dataset (or tiny in fast mode).
    pub fn eleme(&self) -> GeneratedData {
        generate_dataset(&if self.fast { WorldConfig::tiny() } else { WorldConfig::eleme_like() })
    }

    /// The public-like dataset (or tiny-with-different-seed in fast mode).
    pub fn public_data(&self) -> GeneratedData {
        generate_dataset(&if self.fast {
            WorldConfig { seed: 99, name: "tiny-public".into(), ..WorldConfig::tiny() }
        } else {
            WorldConfig::public_like()
        })
    }

    /// Write a text artifact under the output dir (also echoes to stdout).
    pub fn emit(&self, name: &str, content: &str) {
        println!("{content}");
        self.write(name, content);
    }

    /// Write a text artifact without echoing. The write is atomic (temp +
    /// rename), so an interrupted bench never leaves a half-written artifact
    /// where a previous full run's file used to be.
    pub fn write(&self, name: &str, content: &str) {
        std::fs::create_dir_all(&self.out_dir).expect("create results dir");
        let path = self.out_dir.join(name);
        basm_tensor::packstore::atomic_write(&path, content.as_bytes())
            .unwrap_or_else(|e| panic!("write {path:?}: {e}"));
        eprintln!("[artifact] {}", path.display());
    }

    /// Write a JSON artifact.
    pub fn write_json(&self, name: &str, value: &impl serde::Serialize) {
        let text = serde_json::to_string_pretty(value).expect("serialize artifact");
        self.write(name, &text);
    }
}

/// Format a markdown-ish table from rows of equal length.
pub fn format_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row.iter()) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        let mut line = String::from("|");
        for (cell, w) in cells.iter().zip(widths.iter()) {
            line.push_str(&format!(" {cell:<w$} |"));
        }
        line.push('\n');
        line
    };
    out.push_str(&fmt_row(
        &header.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
        &widths,
    ));
    out.push_str(&format!(
        "|{}\n",
        widths.iter().map(|w| format!("{}-|", "-".repeat(w + 1))).collect::<String>()
    ));
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
    }
    out
}

/// The path of artifact `name` under the artifact dir (joined only; the
/// file need not exist).
pub fn artifact_path(env: &BenchEnv, name: &str) -> PathBuf {
    Path::new(&env.out_dir).join(name)
}

/// Shared wall-clock scaffolding for the `bench_*` comparison binaries.
///
/// The timing discipline every comparison bench follows (previously
/// copy-pasted into each `bench_*` binary):
///
/// 1. **Interleave** the two arms rep by rep. On a shared/throttling 1-core
///    host, low-frequency speed drift would otherwise bias whichever phase
///    runs second; alternating inside the same time window hits both arms
///    equally.
/// 2. **Speedup = median of per-pair ratios.** Each rep pair sees the same
///    instantaneous host speed, so the per-pair ratio is robust to drift the
///    raw medians are not; the median over pairs then shrugs off stragglers.
pub mod timing {
    use serde::Serialize;
    use std::time::Instant;

    /// Median by `f64::total_cmp` (panics on an empty slice, like the
    /// indexing the callers used to do).
    pub fn median(xs: Vec<f64>) -> f64 {
        quartiles(xs)[1]
    }

    /// `[q1, median, q3]` by `f64::total_cmp`: the sorted elements at
    /// `len/4`, `len/2` and `3·len/4` (panics on an empty slice).
    pub fn quartiles(mut xs: Vec<f64>) -> [f64; 3] {
        xs.sort_by(f64::total_cmp);
        let n = xs.len();
        [xs[n / 4], xs[n / 2], xs[3 * n / 4]]
    }

    /// Median of per-pair `baseline[i] / candidate[i]` ratios — the drift-
    /// robust speedup of candidate over baseline.
    pub fn pairwise_speedup(baseline: &[f64], candidate: &[f64]) -> f64 {
        median(baseline.iter().zip(candidate.iter()).map(|(b, c)| b / c).collect())
    }

    /// Run `f` and return its result plus elapsed seconds.
    pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
        let t0 = Instant::now();
        let out = f();
        (out, t0.elapsed().as_secs_f64())
    }

    /// Per-arm timing summary over the interleaved reps.
    #[derive(Debug, Clone, Serialize)]
    pub struct ModeStat {
        /// Arm label, e.g. `"cold"` / `"pooled"`, `"scalar"` / `"simd"`.
        pub mode: String,
        pub reps: usize,
        pub best_secs: f64,
        pub median_secs: f64,
    }

    impl ModeStat {
        /// Summarize one arm's samples.
        pub fn from_samples(mode: &str, mut samples: Vec<f64>) -> Self {
            samples.sort_by(f64::total_cmp);
            Self {
                mode: mode.to_string(),
                reps: samples.len(),
                best_secs: samples[0],
                median_secs: samples[samples.len() / 2],
            }
        }
    }

    /// An interleaved pairwise-ratio-median comparison of two arms.
    #[derive(Debug, Clone, Serialize)]
    pub struct Comparison {
        pub baseline: ModeStat,
        pub candidate: ModeStat,
        /// Median of per-pair `baseline/candidate` ratios.
        pub speedup: f64,
    }

    /// Time `baseline` and `candidate` interleaved rep by rep after
    /// `warmup` untimed laps of each, and summarize with the pairwise-ratio
    /// speedup. Each closure must run one full unit of its arm's work
    /// (including any mode toggling it needs).
    pub fn interleave(
        labels: (&str, &str),
        reps: usize,
        warmup: usize,
        mut baseline: impl FnMut(),
        mut candidate: impl FnMut(),
    ) -> Comparison {
        for _ in 0..warmup {
            baseline();
        }
        for _ in 0..warmup {
            candidate();
        }
        let (b, c) = interleave_samples(reps, &mut baseline, &mut candidate);
        summarize(labels, b, c)
    }

    /// The raw interleaved loop: alternate the arms `reps` times and return
    /// `(baseline_samples, candidate_samples)` in seconds. For benches whose
    /// report schema needs the samples themselves.
    pub fn interleave_samples(
        reps: usize,
        mut baseline: impl FnMut(),
        mut candidate: impl FnMut(),
    ) -> (Vec<f64>, Vec<f64>) {
        let mut b = Vec::with_capacity(reps);
        let mut c = Vec::with_capacity(reps);
        for _ in 0..reps {
            b.push(timed(&mut baseline).1);
            c.push(timed(&mut candidate).1);
        }
        (b, c)
    }

    /// Package paired samples as a [`Comparison`].
    pub fn summarize(
        (baseline_label, candidate_label): (&str, &str),
        baseline: Vec<f64>,
        candidate: Vec<f64>,
    ) -> Comparison {
        let speedup = pairwise_speedup(&baseline, &candidate);
        Comparison {
            baseline: ModeStat::from_samples(baseline_label, baseline),
            candidate: ModeStat::from_samples(candidate_label, candidate),
            speedup,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timing_median_and_pairwise_speedup() {
        assert_eq!(timing::median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(timing::quartiles((0..10).rev().map(f64::from).collect()), [2.0, 5.0, 7.0]);
        // Per-pair ratios: 2.0, 2.0, 4.0 → median 2.0 even though the raw
        // medians (ruined by the straggler pair) would say otherwise.
        let base = vec![2.0, 4.0, 40.0];
        let cand = vec![1.0, 2.0, 10.0];
        assert_eq!(timing::pairwise_speedup(&base, &cand), 2.0);
        let cmp = timing::summarize(("a", "b"), base, cand);
        assert_eq!(cmp.baseline.mode, "a");
        assert_eq!(cmp.candidate.reps, 3);
        assert_eq!(cmp.candidate.best_secs, 1.0);
        assert_eq!(cmp.speedup, 2.0);
    }

    #[test]
    fn timing_interleave_alternates_arms() {
        use std::cell::RefCell;
        let order = RefCell::new(String::new());
        let cmp = timing::interleave(
            ("x", "y"),
            3,
            1,
            || order.borrow_mut().push('x'),
            || order.borrow_mut().push('y'),
        );
        // Warmup runs each arm once up front; timed reps alternate.
        assert_eq!(order.into_inner(), "xyxyxyxy");
        assert_eq!(cmp.baseline.reps, 3);
        assert!(cmp.speedup.is_finite());
    }

    #[test]
    fn table_formatting_aligns() {
        let t = format_table(
            &["model", "auc"],
            &[vec!["BASM".into(), "0.73".into()], vec!["DIN".into(), "0.71".into()]],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[0].len(), lines[2].len());
        assert!(lines[0].contains("model"));
    }
}
