//! Wall-clock benchmark of the BASM library: four workloads run against the
//! real library on the real clock, each checked for correct output.
//!
//! ```text
//! basm-benchmark --workload <serve_steady|serve_unique|microbatch|train>
//!                [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
//! ```
//!
//! Untraced, a run prints the end-to-end metrics; with `--trace 1` it records
//! spans around the benchmark's calls into each layer and prints the
//! per-layer metrics instead. End-to-end times are host-normalised (see
//! `host`); their wall-clock values are printed as `wall.*` context lines.
//! Either way the last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. The exit code is 1 when
//! an output check failed and 2 on a usage or set-up error.

mod host;
mod layers;
mod microbatch;
mod probe;
mod rank;
mod replica;
mod report;
mod schedule;
mod serve;
mod setup;
mod stats;
mod trace;
mod train;

use std::path::PathBuf;

use basm_tensor::bufpool::PoolStats;

use crate::host::HostSpeed;
use crate::layers::Layers;
use crate::report::Report;
use crate::setup::Setup;
use crate::stats::{median, percentile, windowed_percentile};
use crate::trace::Tracer;

pub const WORKLOADS: [&str; 4] = [
    serve::STEADY.name,
    serve::UNIQUE.name,
    microbatch::NAME,
    train::NAME,
];

pub struct Args {
    pub workload: String,
    pub seed: u64,
    /// Measured seconds per run.
    pub seconds: f64,
    pub trace: bool,
    pub out: PathBuf,
}

/// What a workload hands back for reporting.
pub struct Run {
    pub setup: Setup,
    /// Per unit of work: a request (due → response), a coalesced pass, or a
    /// training step (batch build included). Wall-clock.
    pub latency_ms: Vec<f64>,
    /// The same, host-normalised.
    pub normalised_ms: Vec<f64>,
    /// The window of each unit for `latency_p95_ms`, the median over windows
    /// of each window's p95.
    pub window: Vec<usize>,
    /// Requests per second, or examples per second for training: the
    /// median over windows of consecutive units. Wall-clock and
    /// host-normalised.
    pub throughput: f64,
    pub normalised_throughput: f64,
    pub pool: (PoolStats, PoolStats),
    /// `VmHWM` in MiB, read when the measured phase ends and before any
    /// benchmark-only check loads models of its own.
    pub peak_rss_mb: Option<f64>,
    pub layers: Layers,
}

fn usage(msg: &str) -> ! {
    eprintln!("basm-benchmark: {msg}");
    eprintln!(
        "usage: basm-benchmark --workload <{}> [--seed N] [--seconds S] [--trace 0|1] [--out DIR]",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 25.0,
        trace: false,
        out: PathBuf::from("benchmark/out"),
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .unwrap_or_else(|| usage(&format!("{name} needs a value")))
        };
        match flag.as_str() {
            "--workload" => args.workload = value("--workload"),
            "--seed" => {
                args.seed = value("--seed")
                    .parse()
                    .unwrap_or_else(|_| usage("bad --seed"))
            }
            "--seconds" => {
                args.seconds = value("--seconds")
                    .parse()
                    .unwrap_or_else(|_| usage("bad --seconds"));
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    usage("--seconds must be in (0, 600]");
                }
            }
            "--trace" => {
                args.trace = match it.peek().map(String::as_str) {
                    Some("0") | Some("1") => it.next().as_deref() == Some("1"),
                    _ => true,
                }
            }
            "--out" => args.out = PathBuf::from(value("--out")),
            other => usage(&format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        usage("--workload is required");
    }
    args
}

fn main() {
    let args = parse_args();
    // The library reads `BASM_*` knobs from the environment; a run under any
    // of them would not measure the default build.
    let knobs: Vec<String> = std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("BASM_"))
        .collect();
    if !knobs.is_empty() {
        eprintln!(
            "basm-benchmark: refusing to run with {} set",
            knobs.join(", ")
        );
        std::process::exit(2);
    }
    // One pool thread, so the program runs on the thread whose speed the
    // reference kernel measures. With two, a parallel region waits for the
    // slower vCPU, and on a shared host the two vCPUs slow down
    // independently. Results are bitwise the same at any width.
    basm_tensor::pool::set_threads(1);
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let w = args.workload.as_str();
    println!("{w} host.nproc {nproc} count");
    println!(
        "{w} host.pool_threads {} count",
        basm_tensor::pool::num_threads()
    );
    println!("{w} run.seed {} count", args.seed);
    println!("{w} run.seconds {} s", args.seconds);

    let name = WORKLOADS
        .iter()
        .copied()
        .find(|n| *n == w)
        .expect("validated");
    let mut rep = Report::new(name);
    let mut tr = Tracer::new(args.trace);
    let mut host = HostSpeed::new();
    let outcome = match w {
        "serve_steady" => serve::run(&serve::STEADY, &args, &mut rep, &mut tr, &mut host),
        "serve_unique" => serve::run(&serve::UNIQUE, &args, &mut rep, &mut tr, &mut host),
        "microbatch" => microbatch::run(&args, &mut rep, &mut tr, &mut host),
        _ => train::run(&args, &mut rep, &mut tr, &mut host),
    };
    let run = match outcome {
        Ok(run) => run,
        Err(e) => {
            eprintln!("basm-benchmark: {w}: {e}");
            std::process::exit(2);
        }
    };

    let (before, after) = run.pool;
    let (reuse, miss) = (after.reuse - before.reuse, after.miss - before.miss);
    let reuse_ratio = reuse as f64 / (reuse + miss).max(1) as f64;
    let wall_setup_s = median(
        &run.setup
            .stages
            .iter()
            .map(|s| s.total())
            .collect::<Vec<_>>(),
    );
    // The reference kernel's buffers are the benchmark's, not the program's.
    let rss = run.peak_rss_mb.map_or_else(
        || {
            rep.fail("peak RSS unavailable (no /proc/self/status)".into());
            0.0
        },
        |mb| mb - host::RESIDENT_BYTES as f64 / (1 << 20) as f64,
    );
    let pct = |xs: &[f64], p| percentile(xs, p).unwrap_or(0.0);
    let kernel_s = host.kernel_s();
    rep.info("samples", run.latency_ms.len() as f64, "count");
    rep.info("host.samples", kernel_s.len() as f64, "count");
    rep.info("host.kernel_p50_ms", pct(&kernel_s, 50.0) * 1e3, "ms");
    rep.info("host.kernel_p95_ms", pct(&kernel_s, 95.0) * 1e3, "ms");
    let dir = args.out.join(args.seed.to_string());
    let code = if args.trace {
        run.layers.emit(
            &mut rep,
            &run.setup.stages,
            reuse_ratio,
            trace::span_cost_ns(),
        );
        rep.finish(&dir.join(format!("{w}.trace.json")), Some(tr.to_json()))
    } else {
        rep.metric("setup_s", pct(&run.setup.normalised_s, 50.0), "s");
        rep.metric("latency_p50_ms", pct(&run.normalised_ms, 50.0), "ms");
        rep.metric(
            "latency_p95_ms",
            windowed_percentile(&run.normalised_ms, &run.window, 95.0).unwrap_or(0.0),
            "ms",
        );
        rep.metric("throughput_per_s", run.normalised_throughput, "1/s");
        rep.metric("peak_rss_mb", rss, "MB");
        rep.info("wall.setup_s", wall_setup_s.unwrap_or(0.0), "s");
        rep.info("wall.latency_p50_ms", pct(&run.latency_ms, 50.0), "ms");
        rep.info("wall.latency_p95_ms", pct(&run.latency_ms, 95.0), "ms");
        rep.info("wall.throughput_per_s", run.throughput, "1/s");
        rep.info("bufpool.reuse_ratio", reuse_ratio, "ratio");
        rep.finish(&dir.join(format!("{w}.json")), None)
    };
    std::process::exit(code);
}
