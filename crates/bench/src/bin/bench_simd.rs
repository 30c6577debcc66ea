//! **BENCH_simd**: wall-clock effect of the explicit-SIMD kernel layer
//! (`simd::set_simd`, DESIGN.md §14) on the two loops that matter — steady-state
//! training steps and per-request serving.
//!
//! Both arms run in one process via the programmatic override, interleaved
//! rep by rep with pairwise-ratio-median speedups (`basm_bench::timing`).
//! Before any timing, the binary re-asserts the SIMD contract end to end:
//! scalar and SIMD predictions must be **bitwise identical** (the full pin
//! lives in `crates/tensor/tests/`).

use basm_bench::{timing, BenchEnv};
use basm_core::model::{predict, train_step, CtrModel};
use basm_data::{generate_dataset, Context, StatCounters, TimePeriod, WorldConfig};
use basm_serving::{score_microbatch, ScoreJob};
use basm_tensor::optim::AdagradDecay;
use basm_tensor::simd;
use serde::Serialize;
use std::cell::RefCell;

#[derive(Serialize)]
struct Comparison {
    workload: String,
    scalar: timing::ModeStat,
    simd: timing::ModeStat,
    /// Median of per-pair `scalar/simd` ratios.
    speedup: f64,
}

#[derive(Serialize)]
struct SimdBench {
    host_threads: usize,
    /// f32 lanes the host dispatches (16 = AVX-512F, 8 = AVX, 4 = SSE2,
    /// 1 = scalar-only).
    detected_lanes: usize,
    note: String,
    train_step: Comparison,
    serve_request: Comparison,
}

/// Interleaved scalar/SIMD comparison of one workload: both arms share `f`
/// (one model per arm, indexed by the arm), each sets its SIMD state first.
fn compare(workload: String, reps: usize, warmup: usize, f: impl FnMut(usize)) -> Comparison {
    let f = RefCell::new(f);
    let run = timing::interleave(
        ("scalar", "simd"),
        reps,
        warmup,
        || {
            simd::set_simd(Some(false));
            f.borrow_mut()(0);
        },
        || {
            simd::set_simd(Some(true));
            f.borrow_mut()(1);
        },
    );
    simd::set_simd(None);
    eprintln!(
        "[bench_simd] {workload}: scalar {:.1}µs, simd {:.1}µs ({:.2}x)",
        run.baseline.median_secs * 1e6,
        run.candidate.median_secs * 1e6,
        run.speedup,
    );
    Comparison { workload, scalar: run.baseline, simd: run.candidate, speedup: run.speedup }
}

fn main() {
    let env = BenchEnv::from_env();
    let host_threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let detected_lanes = simd::detected_lanes();
    let cfg = WorldConfig::tiny();
    let data = generate_dataset(&cfg);
    let ds = &data.dataset;
    let world = &data.world;

    // --- contract cross-check before any clock starts ---------------------
    let probe = ds.batch(&(0..32).collect::<Vec<_>>());
    let bits_for = |on: bool| -> Vec<u32> {
        simd::set_simd(Some(on));
        let mut m = basm_baselines::build_model("BASM", &cfg, 1);
        let bits = predict(m.as_mut(), &probe).iter().map(|p| p.to_bits()).collect();
        simd::set_simd(None);
        bits
    };
    assert_eq!(
        bits_for(false),
        bits_for(true),
        "scalar and SIMD predictions diverged — determinism contract broken"
    );

    let ncand: u32 = std::env::var("SIMD_CANDS").ok().and_then(|v| v.parse().ok()).unwrap_or(30);
    let bsz: usize = std::env::var("SIMD_BATCH").ok().and_then(|v| v.parse().ok()).unwrap_or(1024);

    // --- per-request serving ----------------------------------------------
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
    let history = std::collections::VecDeque::new();
    let job = [ScoreJob { uid: 0, candidates: &candidates, ctx, history: &history }];
    let mut serve_models: Vec<Box<dyn CtrModel>> =
        (0..2).map(|_| basm_baselines::build_model("BASM", &cfg, 1)).collect();
    let serve = compare(format!("serve request (BASM, {ncand} candidates)"), 300, 30, |arm| {
        let model = &mut serve_models[arm];
        std::hint::black_box(score_microbatch(model.as_mut(), world, &job, &counters));
    });

    // --- training steps ----------------------------------------------------
    let train_idx = ds.train_indices();
    let batch_idx: Vec<usize> = (0..bsz).map(|i| train_idx[i % train_idx.len()]).collect();
    let batch = ds.batch(&batch_idx);
    let mut train_models: Vec<(Box<dyn CtrModel>, AdagradDecay)> = (0..2)
        .map(|_| (basm_baselines::build_model("BASM", &cfg, 1), AdagradDecay::paper_default()))
        .collect();
    let train = compare(format!("train step (BASM, batch {bsz})"), 40, 5, |arm| {
        let (model, opt) = &mut train_models[arm];
        std::hint::black_box(train_step(model.as_mut(), &batch, opt, 0.05, Some(10.0)));
    });

    let note = format!(
        "measured on a {host_threads}-core host dispatching {detected_lanes} f32 lanes. \
         Arms interleave rep by rep; speedups are medians of per-pair ratios \
         (basm_bench::timing). scalar = set_simd(Some(false)), simd = the default \
         (widest lanes the host supports). Scalar and SIMD results are bitwise \
         identical (asserted before timing).",
    );
    let report = SimdBench {
        host_threads,
        detected_lanes,
        note,
        train_step: train,
        serve_request: serve,
    };
    env.write_json("BENCH_simd.json", &report);
}
