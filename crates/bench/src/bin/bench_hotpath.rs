//! **BENCH_hotpath**: wall-clock comparison of the allocation-free hot path
//! (graph arena recycling + pooled tensor buffers, `BASM_POOL=1`, the
//! default) against the cold allocate-everything path (`BASM_POOL=0`), on the
//! two loops the pool was built for: steady-state training steps and
//! per-request serving.
//!
//! Both modes run in one process via the programmatic pooling override, with
//! a warmup before timing so the pooled rows measure the steady state the
//! arena is designed for (the first step still cold-allocates its buffers).
//! The binary also re-asserts the determinism contract end to end: pooled and
//! cold predictions must be bitwise identical (the full pin lives in
//! `crates/tensor/tests/parallel_determinism.rs` and the model crates).

use basm_bench::timing::{self, ModeStat};
use basm_bench::BenchEnv;
use basm_core::model::{predict, train_step, CtrModel};
use basm_data::{generate_dataset, Context, StatCounters, TimePeriod, WorldConfig};
use basm_serving::{score_microbatch, ScoreJob};
use basm_tensor::bufpool;
use basm_tensor::optim::AdagradDecay;
use serde::Serialize;
use std::collections::VecDeque;

#[derive(Serialize)]
struct Comparison {
    workload: String,
    /// `BASM_POOL=0`: fresh graph + heap allocation per op.
    cold: ModeStat,
    /// `BASM_POOL=1` (default): recycling arena.
    pooled: ModeStat,
    /// Median of per-pair `cold/pooled` ratios (`basm_bench::timing`).
    speedup: f64,
}

#[derive(Serialize)]
struct HotpathBench {
    host_threads: usize,
    note: String,
    /// Pool traffic over the whole pooled phase (reuse hits vs allocations).
    pool_reuse: u64,
    pool_miss: u64,
    comparisons: Vec<Comparison>,
}

/// Interleaved cold/pooled comparison of one unit of work (the shared
/// `basm_bench::timing` discipline, toggling the pool around each rep).
fn compare(workload: &str, reps: usize, warmup: usize, f: impl FnMut(bool)) -> Comparison {
    // Both arms drive the same workload closure; the RefCell lets the two
    // interleaved thunks share it without aliasing &mut.
    let f = std::cell::RefCell::new(f);
    let run = timing::interleave(
        ("cold", "pooled"),
        reps,
        warmup,
        || {
            bufpool::set_pooling(Some(false));
            f.borrow_mut()(false);
        },
        || {
            bufpool::set_pooling(Some(true));
            f.borrow_mut()(true);
        },
    );
    bufpool::set_pooling(None);
    eprintln!(
        "[bench_hotpath] {workload}: cold {:.1}µs, pooled {:.1}µs ({:.2}x)",
        run.baseline.median_secs * 1e6,
        run.candidate.median_secs * 1e6,
        run.speedup,
    );
    Comparison {
        workload: workload.to_string(),
        cold: run.baseline,
        pooled: run.candidate,
        speedup: run.speedup,
    }
}

fn main() {
    let env = BenchEnv::from_env();
    let host_threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let cfg = WorldConfig::tiny();
    let data = generate_dataset(&cfg);
    let ds = &data.dataset;

    // --- determinism cross-check: pooled and cold bits must agree ---------
    let probe = ds.batch(&(0..32).collect::<Vec<_>>());
    let bits_for = |pooled: bool| -> Vec<u32> {
        bufpool::set_pooling(Some(pooled));
        let mut m = basm_baselines::build_model("BASM", &cfg, 1);
        let bits = predict(m.as_mut(), &probe).iter().map(|p| p.to_bits()).collect();
        bufpool::set_pooling(None);
        bits
    };
    assert_eq!(
        bits_for(false),
        bits_for(true),
        "pooled and cold predictions diverged — determinism contract broken"
    );

    // The paper's training batch size (TrainConfig::default_for); at this
    // size the cold path's buffers cross glibc's mmap threshold, so every
    // step pays mmap/munmap page churn that the arena simply keeps.
    let bsz: usize = std::env::var("HOTPATH_BATCH").ok().and_then(|v| v.parse().ok()).unwrap_or(1024);
    let ncand: u32 = std::env::var("HOTPATH_CANDS").ok().and_then(|v| v.parse().ok()).unwrap_or(30);

    // --- per-request serving ---------------------------------------------
    // Measured before training on purpose: serving allocations are what a
    // fresh RTP process sees, not a heap pre-warmed by a big-batch training
    // phase (glibc keeps freed chunks around, which flatters the cold path).
    let world = &data.world;
    let counters = StatCounters::new(cfg.n_users, cfg.n_items);
    let ctx = Context {
        day: 0,
        hour: 12,
        tp: TimePeriod::Lunch,
        city: world.users[0].city,
        geo: world.users[0].geo,
        position: 0,
    };
    let candidates: Vec<u32> = (1..=ncand).collect();
    let history = VecDeque::new();
    let job = [ScoreJob { uid: 0, candidates: &candidates, ctx, history: &history }];
    let mut serve_models: Vec<Box<dyn CtrModel>> = vec![
        basm_baselines::build_model("BASM", &cfg, 1),
        basm_baselines::build_model("BASM", &cfg, 1),
    ];
    let serve = compare(&format!("serve request (BASM, {ncand} candidates)"), 300, 30, |pooled| {
        let model = &mut serve_models[pooled as usize];
        std::hint::black_box(score_microbatch(model.as_mut(), world, &job, &counters));
    });

    // --- training steps/sec ----------------------------------------------
    let train_idx = ds.train_indices();
    let batch_idx: Vec<usize> = (0..bsz).map(|i| train_idx[i % train_idx.len()]).collect();
    let batch = ds.batch(&batch_idx);
    // One model+optimizer per mode so both start from identical state.
    let mut models: Vec<(Box<dyn CtrModel>, AdagradDecay)> = vec![
        (basm_baselines::build_model("BASM", &cfg, 1), AdagradDecay::paper_default()),
        (basm_baselines::build_model("BASM", &cfg, 1), AdagradDecay::paper_default()),
    ];
    let train = compare(&format!("train step (BASM, batch {bsz})"), 40, 5, |pooled| {
        let (model, opt) = &mut models[pooled as usize];
        std::hint::black_box(train_step(model.as_mut(), &batch, opt, 0.05, Some(10.0)));
    });

    let stats = bufpool::stats();
    let note = format!(
        "measured on a {host_threads}-core host. Steady-state medians after warmup; \
         cold = BASM_POOL=0 (fresh graph + heap allocation per op), pooled = recycling \
         arena (default). Results are bitwise identical in both modes.",
    );
    let report = HotpathBench {
        host_threads,
        note,
        pool_reuse: stats.reuse,
        pool_miss: stats.miss,
        comparisons: vec![train, serve],
    };
    env.write_json("BENCH_hotpath.json", &report);

    // With `--features obs` and BASM_OBS=1 the span/counter/gauge breakdown
    // (serving.assemble_ns vs serving.predict_ns, pool.buffer_* traffic,
    // graph.peak_bytes) shows where the time and memory actually went.
    let obs = basm_obs::report();
    if !obs.is_empty() {
        eprintln!("{}", obs.to_table());
    }
}
