//! **BENCH_load**: the batched serving front-end (DESIGN.md §10) under
//! offered load. For each load level in `BASM_LOAD_QPS` (default
//! `400,800` req/s) the binary reports two complementary views:
//!
//! * **Simulated** — queue-wait and end-to-end latency percentiles on the
//!   front-end's deterministic clock, sustained QPS, shed/degrade counts
//!   and batch shape. These are a pure function of the arrival schedule
//!   and cost model: identical on every host, so they are comparable
//!   across commits.
//! * **Wall clock** — how long one full load run actually takes with
//!   coalesced microbatch scoring versus one model pass per request,
//!   interleaved rep by rep (the `basm_bench::timing` discipline: alternating
//!   within the same time window cancels host speed drift; the speedup is
//!   the median of per-pair ratios).
//!
//! Every run also re-asserts the front-end's determinism contract end to
//! end: coalesced and sequential execution of the same schedule must agree
//! on every exposure, bitwise.

use basm_bench::{timing, BenchEnv};
use basm_data::World;
use basm_serving::{
    generate_arrivals, percentile_ns, run_load, Arrival, ArrivalConfig, FrontendConfig,
    LoadOutcome, LoadSummary, ServingPipeline,
};
use serde::Serialize;

/// Deterministic (simulated-clock) metrics for one load level.
#[derive(Serialize)]
struct SimMetrics {
    queue_wait_p50_ns: u64,
    queue_wait_p99_ns: u64,
    latency_p50_ns: u64,
    latency_p99_ns: u64,
    /// Completed requests per simulated second.
    sustained_qps: f64,
    /// Mean drained microbatch size.
    mean_batch: f64,
}

/// Interleaved wall-clock timing of one full load run per mode.
#[derive(Serialize)]
struct WallClock {
    reps: usize,
    coalesced_median_secs: f64,
    sequential_median_secs: f64,
    /// Median of per-pair `sequential/coalesced` ratios.
    speedup: f64,
    /// Completed requests per wall-clock second, coalesced mode.
    coalesced_qps: f64,
}

#[derive(Serialize)]
struct LoadLevel {
    offered_qps: f64,
    arrivals: usize,
    summary: LoadSummary,
    sim: SimMetrics,
    wall: WallClock,
}

#[derive(Serialize)]
struct LoadBench {
    host_threads: usize,
    dataset: String,
    duration_secs: f64,
    candidate_pool: usize,
    top_k: usize,
    note: String,
    levels: Vec<LoadLevel>,
}

fn sim_metrics(out: &LoadOutcome) -> SimMetrics {
    let mut waits: Vec<u64> = out.completed.iter().map(|c| c.queue_wait_ns).collect();
    let mut lats: Vec<u64> = out.completed.iter().map(|c| c.latency_ns).collect();
    let s = &out.summary;
    SimMetrics {
        queue_wait_p50_ns: percentile_ns(&mut waits, 50.0),
        queue_wait_p99_ns: percentile_ns(&mut waits, 99.0),
        latency_p50_ns: percentile_ns(&mut lats, 50.0),
        latency_p99_ns: percentile_ns(&mut lats, 99.0),
        sustained_qps: s.completed as f64 * 1e9 / s.sim_end_ns.max(1) as f64,
        mean_batch: s.completed as f64 / s.batches.max(1) as f64,
    }
}

/// Bitwise exposure comparison between two runs of the same schedule.
fn assert_runs_agree(a: &LoadOutcome, b: &LoadOutcome) {
    assert_eq!(a.completed.len(), b.completed.len(), "completion counts diverged");
    for (x, y) in a.completed.iter().zip(b.completed.iter()) {
        assert_eq!(x.arrival, y.arrival);
        assert_eq!(x.exposures.len(), y.exposures.len(), "exposure counts diverged");
        for (e, f) in x.exposures.iter().zip(y.exposures.iter()) {
            assert_eq!(
                (e.item, e.position, e.score.to_bits()),
                (f.item, f.position, f.score.to_bits()),
                "coalesced and sequential exposures diverged at arrival {}",
                x.arrival
            );
        }
    }
}

fn bench_level(
    world: &World,
    arrivals: &[Arrival],
    offered_qps: f64,
    pool: usize,
    top_k: usize,
    reps: usize,
) -> LoadLevel {
    let make_pipe = || {
        ServingPipeline::new(
            world,
            basm_baselines::build_model("BASM", &world.config, 1),
            pool,
            top_k,
        )
    };
    let run = |coalesce: bool| -> (LoadOutcome, f64) {
        let mut pipe = make_pipe(); // construction untimed
        let cfg = FrontendConfig { coalesce, ..FrontendConfig::default() };
        timing::timed(|| run_load(&mut pipe, world, arrivals, &cfg))
    };

    // Determinism cross-check + warmup in one: the first pair of runs must
    // already agree bitwise, or the coalescer's contract is broken.
    let (coalesced_out, _) = run(true);
    let (sequential_out, _) = run(false);
    assert_runs_agree(&coalesced_out, &sequential_out);

    // Interleaved sequential/coalesced reps (shared `basm_bench::timing`
    // discipline; the agreement pair above already warmed both arms). The
    // sample is `run`'s inner clock — pipeline construction stays untimed —
    // so the loop stays manual and only the statistics are shared.
    let mut seq_samples = Vec::with_capacity(reps);
    let mut coal_samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let (out, secs) = run(false);
        std::hint::black_box(out.summary.completed);
        seq_samples.push(secs);
        let (out, secs) = run(true);
        std::hint::black_box(out.summary.completed);
        coal_samples.push(secs);
    }
    let speedup = timing::pairwise_speedup(&seq_samples, &coal_samples);
    let coalesced_median_secs = timing::median(coal_samples);
    let sequential_median_secs = timing::median(seq_samples);
    let wall = WallClock {
        reps,
        coalesced_median_secs,
        sequential_median_secs,
        speedup,
        coalesced_qps: coalesced_out.summary.completed as f64 / coalesced_median_secs.max(1e-12),
    };
    let sim = sim_metrics(&coalesced_out);
    eprintln!(
        "[bench_load] {offered_qps:.0} QPS offered: sim p50 {:.2}ms / p99 {:.2}ms, \
         sustained {:.0} QPS, mean batch {:.1}; wall {:.0} QPS coalesced ({:.2}x vs sequential)",
        sim.latency_p50_ns as f64 / 1e6,
        sim.latency_p99_ns as f64 / 1e6,
        sim.sustained_qps,
        sim.mean_batch,
        wall.coalesced_qps,
        wall.speedup,
    );
    LoadLevel {
        offered_qps,
        arrivals: arrivals.len(),
        summary: coalesced_out.summary,
        sim,
        wall,
    }
}

fn main() {
    let env = BenchEnv::from_env();
    let host_threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let data = env.eleme();
    let world = &data.world;

    let qps_levels: Vec<f64> = std::env::var("BASM_LOAD_QPS")
        .ok()
        .map(|v| v.split(',').filter_map(|s| s.trim().parse().ok()).collect())
        .filter(|v: &Vec<f64>| !v.is_empty())
        .unwrap_or_else(|| vec![400.0, 800.0]);
    let duration_ns: u64 = if env.fast { 500_000_000 } else { 2_000_000_000 };
    let (pool, top_k) = if env.fast { (16, 6) } else { (30, 10) };
    let reps = if env.fast { 2 } else { 5 };

    let levels: Vec<LoadLevel> = qps_levels
        .iter()
        .map(|&qps| {
            let arrivals = generate_arrivals(
                world,
                &ArrivalConfig { qps, duration_ns, ..ArrivalConfig::default() },
            );
            bench_level(world, &arrivals, qps, pool, top_k, reps)
        })
        .collect();

    let note = format!(
        "measured on a {host_threads}-core host. `sim` metrics run on the front-end's \
         deterministic simulated clock (host-independent; see DESIGN.md §10); `wall` \
         interleaves coalesced and sequential full-schedule runs rep by rep and reports \
         the median of per-pair ratios. Exposures are asserted bitwise-equal between the \
         two modes before timing.",
    );
    let report = LoadBench {
        host_threads,
        dataset: world.config.name.clone(),
        duration_secs: duration_ns as f64 / 1e9,
        candidate_pool: pool,
        top_k,
        note,
        levels,
    };
    env.write_json("BENCH_load.json", &report);

    let obs = basm_obs::report();
    if !obs.is_empty() {
        eprintln!("{}", obs.to_table());
    }
}
